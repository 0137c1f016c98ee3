import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq import jets, maps
from casoratiq.errors import DependencyError, DimensionError, DegenerateMetricError, DomainError
from casoratiq.geometry import (
    ChartPoint,
    MetricChart,
    _symmetry_defects,
    chart,
    christoffel,
    curvature_sums,
    frame_contraction,
    gram_schmidt,
    riemann,
)
from casoratiq.quaternionic import QSFOracle, quat_units

from conftest import (
    mgs2_frame,
    orthonormal_rows,
    orthonormality_residual,
    registry_closure,
    sectional,
)


def conformal_chart():
    def g(c):
        f = jets.exp(2.0 * c[0])
        return [[f, 0.0], [0.0, f]]

    return MetricChart(2, ((-2.0, 2.0), (-2.0, 2.0)), g, name="conformal")


_REGISTRY_NAMES = (
    "flat:3", "flat:12", "sphere:2", "sphere:0.3", "sphere3:1.5", "sphere3:7", "half-plane",
    "polar",
)


class TestRegistry:
    @pytest.mark.parametrize("name", _REGISTRY_NAMES)
    def test_jets_match_the_closures(self, name):
        """Each registry metric text is written in its closure's operation order, so
        the jets, the Christoffel symbols and the curvature keep their bits."""
        ch, oracle = chart(name), registry_closure(name)
        rng = np.random.default_rng(len(name))
        lo, hi = np.array(ch.domain).T
        for x in (lo + (hi - lo) * rng.random((5, ch.dim)), lo + (hi - lo) * rng.random(ch.dim)):
            got, want = ChartPoint.at(ch, x), ChartPoint.at(oracle, x)
            for a, b in zip((got.G0, got.G1, got.G2), (want.G0, want.G1, want.G2)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.gamma.tobytes() == want.gamma.tobytes()
            assert got.curvature.riemann.tobytes() == want.curvature.riemann.tobytes()

    def test_each_name_is_built_once(self):
        assert chart("sphere:2") is chart("sphere:2")
        assert chart("flat:4") is chart("flat:4")

    def test_a_non_finite_metric_is_a_domain_error(self):
        """r r overflows for sphere:1e200; the program's finiteness check names the entry."""
        ch = chart("sphere:1e200")
        with pytest.raises(DomainError, match=re.escape("'1e+200*1e+200' is not finite")):
            ch.metric_jets(np.array([1.0, 0.5]))


class TestChristoffel:
    def test_flat_is_zero(self):
        gam = christoffel(chart("flat:4"), np.array([0.3, -0.2, 1.0, 0.5]))
        assert np.abs(gam).max() == 0.0

    def test_polar(self):
        gam = christoffel(chart("polar"), np.array([2.0, 0.7]))
        # Gamma^r_tt = -r, Gamma^t_rt = 1/r
        assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_conformal(self):
        gam = christoffel(conformal_chart(), np.array([0.0, 0.4]))
        assert gam[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert gam[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_lower_indices(self):
        gam = christoffel(chart("sphere:2"), np.array([1.2, 0.5]))
        assert np.abs(gam - gam.transpose(0, 2, 1)).max() == 0.0

    @pytest.mark.parametrize("name", ["sphere:1", "half-plane", "polar", "sphere3:1.5"])
    def test_metric_compatibility(self, name):
        # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il at 100 random points
        ch = chart(name)
        rng = np.random.default_rng(101)
        lo = np.array([b[0] for b in ch.domain])
        hi = np.array([b[1] for b in ch.domain])
        for _ in range(100):
            x = lo + (hi - lo) * rng.random(ch.dim)
            G0, G1, _ = ch.metric_jets(x)
            gam = christoffel(ch, x)
            dg = np.transpose(G1, (2, 0, 1))  # dg[k, i, j]
            recon = np.einsum("lki,lj->kij", gam, G0) + np.einsum("lkj,il->kij", gam, G0)
            assert np.abs(dg - recon).max() < 1e-9

    def test_degenerate_metric_raises(self):
        bad = MetricChart(2, ((-1.0, 1.0), (-1.0, 1.0)),
                          lambda c: [[c[0], 0.0], [0.0, 1.0]], name="degenerate")
        with pytest.raises(DegenerateMetricError):
            christoffel(bad, np.array([0.0, 0.0]))


class TestRiemann:
    def test_flat_zero(self):
        cp = riemann(chart("flat:4"), np.full(4, 0.2))
        assert np.abs(cp.riemann).max() == 0.0

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_sphere_sectional(self, r):
        ch = chart(f"sphere:{r:g}")
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = np.array([0.3 + 2.4 * rng.random(), -2.0 + 4.0 * rng.random()])
            cp = riemann(ch, x)
            fr = gram_schmidt(list(np.eye(2)), cp.metric)
            assert sectional(cp, fr[0], fr[1]) == pytest.approx(1.0 / r**2, abs=1e-9)

    def test_half_plane_sectional(self):
        cp = riemann(chart("half-plane"), np.array([1.3, 0.8]))
        fr = gram_schmidt(list(np.eye(2)), cp.metric)
        assert sectional(cp, fr[0], fr[1]) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["sphere:1", "half-plane", "polar", "sphere3:2"])
    def test_symmetries_and_bianchi(self, name):
        ch = chart(name)
        rng = np.random.default_rng(13)
        lo = np.array([b[0] for b in ch.domain])
        hi = np.array([b[1] for b in ch.domain])
        for _ in range(20):
            x = lo + (hi - lo) * rng.random(ch.dim)
            maxima, scale = _symmetry_defects(riemann(ch, x).riemann)
            assert (maxima / scale).max() < 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            riemann(chart("sphere:1"), np.array([0.0, 0.0]))

    @pytest.mark.parametrize(
        "rows, message",
        [([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
         ([[1.0, 0.5], [0.0, 1.0]], "not symmetric")],
    )
    def test_constant_metric_keeps_its_checks(self, rows, message):
        # a constant metric skips the curvature products, not the checks of G0
        const = MetricChart(2, ((-1.0, 1.0), (-1.0, 1.0)), lambda coords: rows, name="const")
        with pytest.raises(DegenerateMetricError, match=message):
            riemann(const, np.zeros(2))
        with pytest.raises(DegenerateMetricError, match=message):
            ChartPoint.at(const, np.zeros((3, 2)))


class TestFrames:
    def test_gram_schmidt_identity(self):
        fr = gram_schmidt(list(np.eye(3)), np.eye(3))
        assert np.allclose(fr, np.eye(3))

    def test_gram_schmidt_orthogonalizes(self):
        fr = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])], np.eye(2))
        assert np.allclose(fr, [[1.0, 0.0], [0.0, 1.0]])

    def test_gram_schmidt_metric_normalization(self):
        fr = gram_schmidt([np.array([1.0, 0.0])], np.diag([4.0, 1.0]))
        assert np.allclose(fr, [[0.5, 0.0]])

    def test_rank_deficiency(self):
        with pytest.raises(DependencyError):
            gram_schmidt([np.array([1.0, 1.0]), np.array([2.0, 2.0])], np.eye(2))

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        g = A @ A.T + 3.0 * np.eye(3)
        fr = gram_schmidt(list(rng.normal(size=(3, 3))), g)
        assert orthonormality_residual(fr, g) < 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dependent_rows_raise(self, seed):
        """A row that is a combination of the rows before it raises, whether the
        factorization fails or leaves a residual at rounding level."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        V = rng.normal(size=(k, n))
        V = np.vstack([V, rng.normal(size=k) @ V, rng.normal(size=(n - k - 1, n))])
        A = rng.normal(size=(n, n))
        with pytest.raises(DependencyError, match="numerically dependent"):
            gram_schmidt(V, A @ A.T + np.eye(n))

    @given(seed=st.integers(0, 10_000), log_kappa=st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_block_frames_match_the_one_vector_oracle(self, seed, log_kappa):
        """Random SPD metrics of condition kappa and random full-rank rows, at 3 points."""
        rng = np.random.default_rng(seed)
        n, P = int(rng.integers(2, 13)), 3
        k = int(rng.integers(1, n + 1))
        kappa = 10.0**log_kappa

        def metric():
            ev = np.geomspace(1.0, kappa, n)
            rng.shuffle(ev)
            Q = orthonormal_rows(rng, n)
            g = 10.0 ** rng.uniform(-1.0, 1.0) * (Q.T * ev) @ Q
            return 0.5 * (g + g.T)

        g = np.stack([metric() for _ in range(P)])
        # rows with singular values in [1, 10]
        V = np.stack([
            (orthonormal_rows(rng, k) * rng.uniform(1.0, 10.0, k)) @ orthonormal_rows(rng, n)[:k]
            for _ in range(P)
        ])
        frame = gram_schmidt(V, g)
        for i in range(P):
            alone = gram_schmidt(V[i], g[i])
            assert frame[i].tobytes() == alone.tobytes()
            oracle = mgs2_frame(V[i], g[i])
            assert np.abs(alone - oracle).max() <= 1e-13 * kappa * np.abs(oracle).max()
            # each leading span is kept: the frame is T V with T lower triangular
            T = np.linalg.lstsq(V[i].T, alone.T, rcond=None)[0].T
            assert np.abs(np.triu(T, 1)).max() <= 1e-13 * kappa * np.abs(T).max()
            assert (np.diag(T) > 0).all()
            # Q g Q^T itself rounds at about 1e-16 kappa
            assert orthonormality_residual(alone, g[i]) <= 1e-14 * kappa


def riemannian_linear_map(rng: np.random.Generator, kappa: float) -> maps.SmoothMap:
    """A Riemannian map F = A x of rank r from n1 to m dimensions, 2 <= n1, m <= 6.

    The target metric is exp(w . y) C with C a rotated metric of condition
    kappa, and the source metric is A^T g2(A x) A + N^T N with N the kernel
    rows of A, so dF maps the g1-complement of its kernel isometrically.
    """
    n1, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    r = int(rng.integers(1, min(n1, m) + 1))
    Q1 = orthonormal_rows(rng, n1)
    A = (orthonormal_rows(rng, m)[:r].T * rng.uniform(1.0, 2.0, r)) @ Q1[:r]
    Q2 = orthonormal_rows(rng, m)
    C = (Q2.T * np.geomspace(1.0, kappa, m)[rng.permutation(m)]) @ Q2
    C = 0.5 * (C + C.T)
    K = A.T @ C @ A
    K, NN, w = (0.5 * (K + K.T)).tolist(), (Q1[r:].T @ Q1[r:]).tolist(), 0.1 * rng.normal(size=m)

    def image(c):
        return [sum(a * x for a, x in zip(row, c)) for row in A.tolist()]

    def scale(y):
        return jets.exp(sum(wa * ya for wa, ya in zip(w.tolist(), y)))

    def g2(c):
        f = scale(c)
        return [[f * v for v in row] for row in C.tolist()]

    def g1(c):
        f = scale(image(c))
        return [[f * k + nn for k, nn in zip(rk, rn)] for rk, rn in zip(K, NN)]

    src = MetricChart(n1, ((-1.0, 1.0),) * n1, g1, name="pullback")
    tgt = MetricChart(m, ((-100.0, 100.0),) * m, g2, name="rotated")
    return maps.SmoothMap(src, tgt, image, "riemannian_map", r)


class TestTargetFrame:
    @given(seed=st.integers(0, 10_000), log_kappa=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_target_frame_of_random_riemannian_maps(self, seed, log_kappa):
        """[range; range_perp] is g2-orthonormal, range_perp spans the g2-complement
        that the one-vector completion by coordinate vectors spans, and each row of a
        chunk of 3 points has the bits of its point alone."""
        rng = np.random.default_rng(seed)
        kappa = 10.0**log_kappa
        smap = riemannian_linear_map(rng, kappa)
        r, m = smap.rank, smap.target.dim
        X = rng.uniform(-0.9, 0.9, size=(3, smap.source.dim))
        split = maps.differential(smap, X)
        g2 = split.point.target.G0
        for i in range(3):
            alone = maps.differential(smap, X[i])
            for frame in ("range", "range_perp"):
                want = getattr(alone, frame)
                assert getattr(split, frame)[i].tobytes() == want.tobytes()
            perp = alone.range_perp
            assert perp.shape == (m - r, m)
            assert orthonormality_residual(alone.target_frame, g2[i]) <= 1e-14 * kappa
            if r == m:
                continue
            # g2-orthogonal projectors onto the two spans
            oracle = mgs2_frame(alone.range, g2[i], np.eye(m))[r:]
            got, want = perp.T @ perp @ g2[i], oracle.T @ oracle @ g2[i]
            assert np.abs(got - want).max() <= 1e-13 * kappa * np.abs(want).max()


@pytest.mark.parametrize("kind", ["chart", "oracle"])
def test_sectional_of_degenerate_plane_raises(kind):
    if kind == "chart":
        curvature = riemann(chart("flat:4"), np.full(4, 0.1))
    else:
        curvature = QSFOracle(4.0, quat_units(1), np.eye(4))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    for v in (2.0 * u, np.zeros(4)):
        with pytest.raises(DimensionError):
            sectional(curvature, u, v)


def frame_tensor(cp, E):
    return frame_contraction(cp.riemann, E, E, E, E)


def pairwise_sums(quad, vectors, s):
    """Reference: the pairwise loops over R(e_i, e_j, e_j, e_i) that curvature_sums replaces."""
    hor, vert = vectors[:s], vectors[s:]

    def two_tau(vs):
        return sum(
            2.0 * quad(vs[i], vs[j], vs[j], vs[i])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    mixed = sum(quad(h, v, v, h) for h in hor for v in vert)
    return two_tau(hor), two_tau(vert), mixed


class TestCurvatureSums:
    def test_flat_zero(self):
        cp = riemann(chart("flat:4"), np.full(4, 0.1))
        fr = gram_schmidt(list(np.eye(4)), cp.metric)
        for s in range(5):
            assert curvature_sums(frame_tensor(cp, fr), s) == (0.0, 0.0, 0.0)

    def test_sphere_full_frame(self):
        cp = riemann(chart("sphere:1"), np.array([1.0, 0.2]))
        fr = gram_schmidt(list(np.eye(2)), cp.metric)
        two_tau, rest, mixed = curvature_sums(frame_tensor(cp, fr), 2)
        assert two_tau == pytest.approx(2.0, abs=1e-9)
        assert rest == mixed == 0.0
        # one vector per block: no pairs inside a block, and the mixed sum is
        # the sectional curvature of the plane
        split = curvature_sums(frame_tensor(cp, fr), 1)
        assert split == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)

    def test_ambient_flat_sphere_frame(self):
        # tangent frame of the unit 3-sphere inside flat R^4: ambient curvature is zero
        cp = riemann(chart("flat:4"), np.array([0.5, 0.5, 0.5, 0.5]))
        x = np.array([0.5, 0.5, 0.5, 0.5])
        x = x / np.linalg.norm(x)
        basis = [v - (v @ x) * x for v in np.eye(4)[:3]]
        fr = gram_schmidt(basis, cp.metric)
        assert len(fr) == 3
        assert curvature_sums(frame_tensor(cp, fr), 3)[0] == 0.0

    def test_rotation_invariance(self):
        cp = riemann(chart("sphere3:2"), np.array([1.0, 0.9, 0.3]))
        fr = gram_schmidt(list(np.eye(3)), cp.metric)
        val = curvature_sums(frame_tensor(cp, fr), 3)[0]
        rng = np.random.default_rng(11)
        for _ in range(5):
            Q = orthonormal_rows(rng, 3)
            rot = Q @ fr
            val2 = curvature_sums(frame_tensor(cp, rot), 3)[0]
            assert abs(val - val2) < 1e-9 * max(1.0, abs(val))

    def test_degenerate_blocks(self):
        cp = riemann(chart("sphere3:2"), np.array([1.0, 0.9, 0.3]))
        fr = gram_schmidt(list(np.eye(3)), cp.metric)
        R_E = frame_tensor(cp, fr)
        empty = np.zeros((0, 3))
        assert curvature_sums(frame_tensor(cp, empty), 0) == (0.0, 0.0, 0.0)
        assert curvature_sums(R_E[:1, :1, :1, :1], 1) == (0.0, 0.0, 0.0)
        # a one-vector block on either side of a curved frame
        assert curvature_sums(R_E, 1)[0] == 0.0
        assert curvature_sums(R_E, 2)[1] == 0.0
        # an empty block has no mixed pairs
        for s in (0, 3):
            assert curvature_sums(R_E, s)[2] == 0.0

    def test_mixed_matches_space_form_identity(self):
        # sum_ij R(h_i, v_j, v_j, h_i) = (c/4) s ell + (3c/4) sum_a |P_a^V|^2
        from casoratiq.quaternionic import decompose_J

        J = quat_units(2)
        g = np.eye(8)
        oracle = QSFOracle(4.0, J, g)
        rng = np.random.default_rng(23)
        for _ in range(5):
            rows = orthonormal_rows(rng, 8)
            value = curvature_sums(oracle.curvature_tensor(rows[:7]), 3)[2]
            dec = decompose_J(J, g, rows[:7], 3)
            expected = (4.0 / 4.0) * 3 * 4 + (3 * 4.0 / 4.0) * dec.norms_PV.sum()
            assert value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "name, x", [("sphere3:2", [1.0, 0.9, 0.3]), ("half-plane", [0.3, 0.7])]
    )
    def test_matches_pairwise_loops_on_charts(self, name, x):
        cp = riemann(chart(name), np.array(x))
        n = cp.metric.shape[0]
        fr = gram_schmidt(list(orthonormal_rows(np.random.default_rng(4), n)), cp.metric)

        def quad(*z):
            return float(np.einsum("ijkl,i,j,k,l->", cp.riemann, *z))

        for s in range(n + 1):
            got = curvature_sums(frame_tensor(cp, fr), s)
            want = pairwise_sums(quad, fr, s)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("m", [8, 12])
    def test_matches_pairwise_loops_on_space_forms(self, m):
        rng = np.random.default_rng(m)
        for c in (-4.0, 1.5, 4.0):
            oracle = QSFOracle(c, quat_units(m // 4), np.eye(m))
            rows = orthonormal_rows(rng, m)
            for s in (0, 1, m // 2, m):
                got = curvature_sums(oracle.curvature_tensor(rows), s)
                want = pairwise_sums(oracle.quad, rows, s)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
