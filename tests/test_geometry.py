import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq import jets, maps
from casoratiq.errors import DimensionError, DegenerateMetricError, DomainError
from casoratiq.geometry import (
    ChartPoint,
    MetricChart,
    _symmetry_defects,
    chart,
    christoffel,
    curvature_sums,
    frame_contraction,
    riemann,
)
from casoratiq.quaternionic import QSFOracle, quat_units, space_form_pairs

from conftest import (
    j_blocks_reference,
    mgs2_frame,
    orthonormal_rows,
    orthonormality_residual,
    qsf_tensor_reference,
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
            fr = mgs2_frame(np.eye(2), cp.metric)
            assert sectional(cp, fr[0], fr[1]) == pytest.approx(1.0 / r**2, abs=1e-9)

    def test_half_plane_sectional(self):
        cp = riemann(chart("half-plane"), np.array([1.3, 0.8]))
        fr = mgs2_frame(np.eye(2), cp.metric)
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
         ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
         ([[1.0, 0.0], [0.0, -1e-300]], "not positive definite"),
         ([[1.0, 0.0], [0.0, 0.0]], "not positive definite")],
    )
    def test_constant_metric_keeps_its_checks(self, rows, message):
        # a constant metric skips the curvature products, not the checks of G0
        const = MetricChart(2, ((-1.0, 1.0), (-1.0, 1.0)), lambda coords: rows, name="const")
        with pytest.raises(DegenerateMetricError, match=message):
            riemann(const, np.zeros(2))
        with pytest.raises(DegenerateMetricError, match=message):
            ChartPoint.at(const, np.zeros((3, 2)))
        # definiteness has no absolute floor: diag(1, 1e-300) factors, whatever its unit
        tiny = MetricChart(2, const.domain, lambda coords: [[1.0, 0.0], [0.0, 1e-300]])
        L = ChartPoint.at(tiny, np.zeros((3, 2))).L
        assert np.allclose(L[:, 1, 1], 1e-150, rtol=1e-15, atol=0.0) and (L[:, 0, 0] == 1.0).all()


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


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def stretched_linear_map(rng: np.random.Generator, kappa: float) -> maps.SmoothMap:
    """A linear map F = A x of rank r from n1 to m dimensions, 2 <= n1, m <= 6, that
    stretches each horizontal direction by a factor within 3e-7 of 1.

    The metrics are exp(w . F(x)) C1 on the source and exp(w . y) C2 on the
    target, with |w . F(x)| <= 0.1 and C1, C2 rotated metrics of condition kappa
    and random scale.  A = L2^-T U S V^T L1^T with Ci = Li Li^T, U and V random
    rotations, and S holding the r factors and zeros past them.
    """
    n1, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    r = int(rng.integers(1, min(n1, m) + 1))

    def metric(n):
        Q = orthonormal_rows(rng, n)
        ev = np.geomspace(1.0, kappa, n)[rng.permutation(n)]
        C = 10.0 ** rng.uniform(-1.0, 1.0) * (Q.T * ev) @ Q
        return 0.5 * (C + C.T)

    C1, C2 = metric(n1), metric(m)
    S = np.zeros((m, n1))
    S[range(r), range(r)] = 1.0 + rng.uniform(-3e-7, 3e-7, r)
    M = orthonormal_rows(rng, m) @ S @ orthonormal_rows(rng, n1)
    A = np.linalg.solve(np.linalg.cholesky(C2).T, M) @ np.linalg.cholesky(C1).T
    w = rng.normal(size=m)
    w *= 0.1 / np.abs(w @ A).sum()  # |w . F(x)| <= 0.1 on the source box
    reach = np.abs(A).sum(axis=1).max() + 1.0

    def image(c):
        return [sum(a * x for a, x in zip(row, c)) for row in A.tolist()]

    def scaled(C):
        def g(y):
            f = jets.exp(sum(wa * ya for wa, ya in zip(w.tolist(), y)))
            return [[f * v for v in row] for row in C.tolist()]
        return g

    g1 = scaled(C1)
    src = MetricChart(n1, ((-1.0, 1.0),) * n1, lambda c: g1(image(c)), name="stretched")
    tgt = MetricChart(m, ((-reach, reach),) * m, scaled(C2), name="rotated")
    return maps.SmoothMap(src, tgt, image, "riemannian_map", r)


class TestWhitenedSplit:
    @given(seed=st.integers(0, 10_000), log_kappa=st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_split_of_random_maps(self, seed, log_kappa):
        """Random metrics of condition kappa and a random linear map, at 3 points: each
        chunk row has the bits of its point alone, both frames are g-orthonormal to
        1e-14 kappa (about 45 kappa eps), the vertical rows span ker dF, and the
        isometry residual is the largest |lambda - 1| over the r largest eigenvalues
        of g1^-1 dF^T g2 dF."""
        rng = np.random.default_rng(seed)
        kappa = 10.0**log_kappa
        smap = stretched_linear_map(rng, kappa)
        r, n1 = smap.rank, smap.source.dim
        X = rng.uniform(-0.9, 0.9, size=(3, n1))
        split = maps.differential(smap, X)
        bound = 1e-14 * kappa
        for i in range(3):
            alone = maps.differential(smap, X[i])
            for part in ("source_frame", "target_frame", "isometry_residual", "kernel_residual"):
                assert _bits(getattr(split, part)[i]) == _bits(getattr(alone, part)), part
            pt = alone.point
            g1, g2, dF = pt.source.G0, pt.target.G0, pt.dF
            assert orthonormality_residual(alone.source_frame, g1) <= bound
            assert orthonormality_residual(alone.target_frame, g2) <= bound
            # n1 - r g1-orthonormal rows that dF takes to zero span its kernel
            V = alone.vertical
            assert V.shape == (n1 - r, n1)
            if r < n1:
                assert np.abs(dF @ V.T).max() <= bound * np.linalg.norm(dF, 2) * np.abs(V).max()
            lam = np.sort(np.linalg.eigvals(np.linalg.solve(g1, dF.T @ g2 @ dF)).real)[::-1]
            oracle = np.abs(lam[:r] - 1.0).max()
            assert abs(alone.isometry_residual - oracle) <= bound


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


def pairs(R_E):
    """K[..., a, b] = R_E[..., a, b, b, a], the pairs ``curvature_sums`` reads."""
    return np.einsum("...abba->...ab", R_E)


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
        fr = mgs2_frame(np.eye(4), cp.metric)
        for s in range(5):
            assert curvature_sums(pairs(frame_tensor(cp, fr)), s) == (0.0, 0.0, 0.0)

    def test_sphere_full_frame(self):
        cp = riemann(chart("sphere:1"), np.array([1.0, 0.2]))
        fr = mgs2_frame(np.eye(2), cp.metric)
        two_tau, rest, mixed = curvature_sums(pairs(frame_tensor(cp, fr)), 2)
        assert two_tau == pytest.approx(2.0, abs=1e-9)
        assert rest == mixed == 0.0
        # one vector per block: no pairs inside a block, and the mixed sum is
        # the sectional curvature of the plane
        split = curvature_sums(pairs(frame_tensor(cp, fr)), 1)
        assert split == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)

    def test_ambient_flat_sphere_frame(self):
        # tangent frame of the unit 3-sphere inside flat R^4: ambient curvature is zero
        cp = riemann(chart("flat:4"), np.array([0.5, 0.5, 0.5, 0.5]))
        x = np.array([0.5, 0.5, 0.5, 0.5])
        x = x / np.linalg.norm(x)
        basis = [v - (v @ x) * x for v in np.eye(4)[:3]]
        fr = mgs2_frame(basis, cp.metric)
        assert len(fr) == 3
        assert curvature_sums(pairs(frame_tensor(cp, fr)), 3)[0] == 0.0

    def test_rotation_invariance(self):
        cp = riemann(chart("sphere3:2"), np.array([1.0, 0.9, 0.3]))
        fr = mgs2_frame(np.eye(3), cp.metric)
        val = curvature_sums(pairs(frame_tensor(cp, fr)), 3)[0]
        rng = np.random.default_rng(11)
        for _ in range(5):
            Q = orthonormal_rows(rng, 3)
            rot = Q @ fr
            val2 = curvature_sums(pairs(frame_tensor(cp, rot)), 3)[0]
            assert abs(val - val2) < 1e-9 * max(1.0, abs(val))

    def test_degenerate_blocks(self):
        cp = riemann(chart("sphere3:2"), np.array([1.0, 0.9, 0.3]))
        fr = mgs2_frame(np.eye(3), cp.metric)
        R_E = frame_tensor(cp, fr)
        empty = np.zeros((0, 3))
        assert curvature_sums(pairs(frame_tensor(cp, empty)), 0) == (0.0, 0.0, 0.0)
        assert curvature_sums(pairs(R_E[:1, :1, :1, :1]), 1) == (0.0, 0.0, 0.0)
        # a one-vector block on either side of a curved frame
        assert curvature_sums(pairs(R_E), 1)[0] == 0.0
        assert curvature_sums(pairs(R_E), 2)[1] == 0.0
        # an empty block has no mixed pairs
        for s in (0, 3):
            assert curvature_sums(pairs(R_E), s)[2] == 0.0

    def test_mixed_matches_space_form_identity(self):
        # sum_ij R(h_i, v_j, v_j, h_i) = (c/4) s ell + (3c/4) sum_a |P_a^V|^2
        from casoratiq.quaternionic import decompose_J

        J = quat_units(2)
        g = np.eye(8)
        rng = np.random.default_rng(23)
        for _ in range(5):
            rows = orthonormal_rows(rng, 8)
            value = curvature_sums(pairs(qsf_tensor_reference(4.0, J, g, rows[:7])), 3)[2]
            dec = decompose_J(J, g, rows[:7], 3)
            expected = (4.0 / 4.0) * 3 * 4 + (3 * 4.0 / 4.0) * dec.norms_PV.sum()
            assert value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "name, x", [("sphere3:2", [1.0, 0.9, 0.3]), ("half-plane", [0.3, 0.7])]
    )
    def test_matches_pairwise_loops_on_charts(self, name, x):
        cp = riemann(chart(name), np.array(x))
        n = cp.metric.shape[0]
        fr = mgs2_frame(orthonormal_rows(np.random.default_rng(4), n), cp.metric)

        def quad(*z):
            return float(np.einsum("ijkl,i,j,k,l->", cp.riemann, *z))

        for s in range(n + 1):
            got = curvature_sums(pairs(frame_tensor(cp, fr)), s)
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
                got = curvature_sums(pairs(qsf_tensor_reference(c, oracle.J, oracle.g, rows)), s)
                want = pairwise_sums(oracle.quad, rows, s)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("k", range(4, 33))
    def test_closed_form_sums_match_the_reference_tensor(self, k):
        # k rows in the smallest quaternionic space that holds them, for a
        # J-hermitian metric: a positive multiple of the identity on each line
        rng = np.random.default_rng(k)
        m = -(-k // 4)
        J = quat_units(m)
        g = np.kron(np.diag(rng.uniform(0.5, 2.0, size=m)), np.eye(4))
        orthonormal = orthonormal_rows(rng, 4 * m)[:k] @ np.diag(1.0 / np.sqrt(np.diag(g)))
        # the closed form holds over any rows; generic ones give G_ab != 0 off the diagonal
        for E in (orthonormal, rng.normal(size=(k, 4 * m))):
            gram, blocks = E @ g @ E.T, j_blocks_reference(J, g, E)
            for c in (-4.0, 0.0, 1.5, 4.0):
                got_pairs = space_form_pairs(c, gram, blocks)
                want_pairs = pairs(qsf_tensor_reference(c, J, g, E))
                for s in range(k + 1):
                    got = curvature_sums(got_pairs, s)
                    for a, b in zip(got, curvature_sums(want_pairs, s)):
                        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))
                    if c == 0.0:
                        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in got)
