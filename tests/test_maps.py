import dataclasses
import tracemalloc

import numpy as np
import pytest

from casoratiq.casorati import CasoratiInput
from casoratiq.errors import DimensionError, NotRiemannianMapError, RankError
from casoratiq import jets, maps
from casoratiq.geometry import (
    MetricChart,
    chart,
    christoffel_with_grad,
    riemann,
)
from casoratiq.maps import (
    FundamentalTensor,
    MapPoint,
    SmoothMap,
    differential,
    gauss_residual_map,
    gauss_residual_submersion,
    oneill_A,
    oneill_T,
    second_fundamental_form,
    vertical_bracket,
)

from conftest import mgs2_frame, oneill_reference, orthonormal_rows, sectional


@pytest.fixture(scope="module")
def sheared_hopf_map(hopf_map) -> SmoothMap:
    """The Hopf submersion in the sheared coordinates x = (u1, u2, u3, u4 + s u1^3).

    The source metric is the pulled-back flat metric, so the map is still a
    Riemannian submersion, but neither its Christoffel symbols nor their
    derivatives vanish.
    """
    s = 0.3

    def g1(c):
        w = 3.0 * s * c[0] * c[0]  # d x4 / d u1
        return [[1.0 + w * w, 0.0, 0.0, w],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [w, 0.0, 0.0, 1.0]]

    def F(c):
        return hopf_map.F([c[0], c[1], c[2], c[3] + s * c[0] ** 3])

    src = MetricChart(4, ((0.1, 1.5),) * 4, g1, name="sheared-flat:4")
    return SmoothMap(src, hopf_map.target, F, "riemannian_submersion", 3, "sheared-hopf")


def _oneill_by_definition(ref: dict, gamma, kind: str, E, F) -> np.ndarray:
    """T_E F = h nabla_{vE} vF + v nabla_{vE} hF, A_E F = v nabla_{hE} hF + h nabla_{hE} vF,
    read off the definitions with constant-component extensions of E and F, the
    chart-basis projector ``ref`` of ``oneill_reference`` and the Christoffel symbols."""
    P, dP = ref["Ph"], ref["dPh"]
    Q = np.eye(P.shape[0]) - P
    X = Q @ E if kind == "T" else P @ E

    def nabla(proj, dproj):  # nabla_X (proj F)
        return np.einsum("m,mkl,l->k", X, dproj, F) + np.einsum("kml,m,l->k", gamma, X, proj @ F)

    same, other = (Q, P) if kind == "T" else (P, Q)
    sign = -1.0 if kind == "T" else 1.0  # d(1 - P_h) = -dP_h
    return other @ nabla(same, sign * dP) + same @ nabla(other, -sign * dP)


def _rotate_horizontal(sp, Q: np.ndarray):
    """The split with its horizontal frame turned by Q and its range frame turned with it."""
    horizontal = Q @ sp.horizontal
    return dataclasses.replace(
        sp,
        source_frame=np.concatenate([horizontal, sp.vertical]),
        target_frame=np.concatenate([horizontal @ sp.point.dF.T, sp.range_perp]),
    )


class TestDifferential:
    def test_projection_split(self, projection_map):
        x = np.array([0.3, -0.2, 1.1, 0.5, 0.1, 0.2, -0.7, 0.4])
        sp = differential(projection_map, x)
        assert sp.s == 4 and sp.ell == 4
        assert sp.isometry_residual < 1e-12
        assert sp.kernel_residual < 1e-12
        # vertical = last four coordinates
        assert np.abs(sp.vertical[:, :4]).max() < 1e-12
        assert np.abs(sp.horizontal[:, 4:]).max() < 1e-12

    def test_radial_split(self, radial_map):
        x = np.array([0.5, 0.5, 0.5, 0.5])
        sp = differential(radial_map, x)
        assert sp.s == 1 and sp.ell == 3
        # horizontal is the radial line
        h = sp.horizontal[0]
        xhat = x / np.linalg.norm(x)
        assert abs(abs(h @ xhat) - 1.0) < 1e-10
        # vertical vectors are tangent to the sphere |x| = r
        assert np.abs(sp.vertical @ xhat).max() < 1e-10

    def test_embedding_split(self):
        emb = SmoothMap(chart("flat:2"), chart("flat:4"),
                        lambda c: [c[0], c[1], 0.0, 0.0], "riemannian_map", 2)
        sp = differential(emb, np.array([0.7, -0.4]))
        assert sp.ell == 0 and sp.s == 2
        assert np.abs(sp.range[:, 2:]).max() < 1e-12
        assert len(sp.range_perp) == 2

    def test_each_side_is_one_frame_array(self):
        """With g1 = L1 L1^T, g2 = L2 L2^T and L2^T dF L1^-T = U S V^T, E1 = [horizontal;
        vertical] is the rows of V^T L1^-1 and E2 = [range; range_perp] the rows of
        U^T L2^-1; the four named frames are views of them."""
        g1 = [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        g2 = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]]
        box = ((-1.0, 1.0),)
        emb = SmoothMap(MetricChart(3, box * 3, lambda c: g1, name="skew:3"),
                        MetricChart(4, box * 4, lambda c: g2, name="skew:4"),
                        lambda c: [c[0], c[1], 0.0, 0.0], "riemannian_map", 2)
        sp = differential(emb, np.array([[0.7, -0.4, 0.2], [0.1, 0.3, -0.5]]))
        s, ell = sp.s, sp.ell
        assert (s, ell, sp.target_frame.shape[-2] - s) == (2, 1, 2)
        dF = sp.point.dF
        L1, L2 = (np.linalg.cholesky(side.G0) for side in (sp.point.source, sp.point.target))
        M = L2.swapaxes(-1, -2) @ np.linalg.solve(L1, dF.swapaxes(-1, -2)).swapaxes(-1, -2)
        U, _, Vt = np.linalg.svd(M)
        E1 = np.linalg.solve(L1.swapaxes(-1, -2), Vt.swapaxes(-1, -2)).swapaxes(-1, -2)
        E2 = np.linalg.solve(L2.swapaxes(-1, -2), U).swapaxes(-1, -2)
        assert sp.source_frame.tobytes() == E1.tobytes()
        assert sp.target_frame.tobytes() == E2.tobytes()
        # the vertical row spans ker dF, and dF maps each horizontal row to its range row
        assert np.abs(dF @ sp.vertical.swapaxes(-1, -2)).max() < 1e-15
        assert np.abs(sp.horizontal @ dF.swapaxes(-1, -2) - sp.range).max() < 1e-15
        views = {"horizontal": (sp.source_frame, slice(None, s)),
                 "vertical": (sp.source_frame, slice(s, None)),
                 "range": (sp.target_frame, slice(None, s)),
                 "range_perp": (sp.target_frame, slice(s, None))}
        for name, (side, rows) in views.items():
            frame = getattr(sp, name)
            assert np.shares_memory(frame, side), name
            assert frame.tobytes() == side[..., rows, :].tobytes(), name

    def test_rank_error(self):
        bad = SmoothMap(chart("flat:2"), chart("flat:2"),
                        lambda c: [c[0], c[0]], "riemannian_map", 2)
        with pytest.raises(RankError):
            differential(bad, np.array([0.1, 0.2]))

    def test_not_riemannian_error(self):
        stretch = SmoothMap(chart("flat:2"), chart("flat:2"),
                            lambda c: [2.0 * c[0], c[1]], "riemannian_submersion", 2)
        with pytest.raises(NotRiemannianMapError):
            differential(stretch, np.array([0.1, 0.2]))


class TestSecondFundamentalForm:
    def test_linear_isometry_vanishes(self):
        emb = SmoothMap(chart("flat:2"), chart("flat:4"),
                        lambda c: [c[0], c[1], 0.0, 0.0], "riemannian_map", 2)
        x = np.array([0.7, -0.4])
        sp = differential(emb, x)
        B = second_fundamental_form(sp)
        assert np.abs(B.coeffs).max() < 1e-14

    def test_paraboloid_vertex(self, paraboloid_map):
        x = np.zeros(2)
        sp = differential(paraboloid_map, x)
        B = second_fundamental_form(sp)
        assert B.coeffs.shape == (1, 2, 2)
        assert B.coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
        assert B.coeffs[0, 1, 1] == pytest.approx(1.0, abs=1e-10)
        assert B.coeffs[0, 0, 1] == pytest.approx(0.0, abs=1e-10)
        assert B.raw_symmetry_residual < 1e-10

    def test_projection_vanishes(self, projection_map):
        # projections in map mode: rank 4 with 0 codistribution slices
        x = np.full(8, 0.2)
        sp = differential(projection_map, x)
        B = second_fundamental_form(sp)
        assert B.coeffs.shape[0] == 0
        assert np.abs(B.vectors).max() < 1e-14

    def test_extension_independence(self, paraboloid_map):
        # tensoriality: B computed in a rotated horizontal frame transforms
        # equivariantly, so its scalar norms are invariant
        x = np.array([0.4, -0.3])
        sp = differential(paraboloid_map, x)
        B = second_fundamental_form(sp)
        rng = np.random.default_rng(2)
        B2 = second_fundamental_form(_rotate_horizontal(sp, orthonormal_rows(rng, 2)))
        h, h2 = CasoratiInput(B.coeffs), CasoratiInput(B2.coeffs)
        assert abs(h.norm_sq() - h2.norm_sq()) < 1e-9
        assert abs(h.trace_norm_sq() - h2.trace_norm_sq()) < 1e-9


class TestONeillTensors:
    def test_projection_vanishes(self, projection_map):
        x = np.full(8, 0.3)
        sp = differential(projection_map, x)
        T = CasoratiInput(oneill_T(sp).coeffs)
        A = CasoratiInput(oneill_A(sp).coeffs, kind="skew")
        assert T.norm_sq() == pytest.approx(0.0, abs=1e-20)
        assert A.norm_sq() == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_radial_umbilical(self, radial_map, r):
        x = np.full(4, r / 2.0)
        sp = differential(radial_map, x)
        T = oneill_T(sp)
        diag = np.diagonal(T.coeffs[0])
        assert np.abs(np.abs(diag) - 1.0 / r).max() < 1e-9
        off = T.coeffs[0] - np.diag(diag)
        assert np.abs(off).max() < 1e-9
        assert CasoratiInput(T.coeffs).norm_sq() == pytest.approx(3.0 / r**2, abs=1e-9)

    def test_hopf_A_nonzero(self, hopf_map):
        x = np.array([0.5, 0.3, 0.4, 0.2])
        sp = differential(hopf_map, x)
        A = oneill_A(sp)
        assert CasoratiInput(A.coeffs, kind="skew").norm_sq() > 1e-4
        assert A.raw_symmetry_residual < 1e-9
        assert np.abs(np.trace(A.coeffs, axis1=1, axis2=2)).max() == 0.0

    def test_T_symmetry(self, radial_map):
        x = np.array([0.6, 0.5, 0.55, 0.48])
        sp = differential(radial_map, x)
        assert oneill_T(sp).raw_symmetry_residual < 1e-9

    def test_alternation_identities(self, hopf_map):
        # every T_{v_j} and A_{h_i} is g-skew: g(S_E F, G) = -g(F, S_E G) on frame vectors
        sp = differential(hopf_map, np.array([0.9, 0.2, 0.6, 0.3]))
        E, g1 = sp.source_frame, sp.point.source.G0
        forms = E @ g1 @ sp.projector.L @ E.T  # forms[e, a, b] = g(e_a, L[e] e_b)
        assert np.abs(forms).max() > 0.1
        assert np.abs(forms + forms.transpose(0, 2, 1)).max() < 1e-9

    def test_scalar_invariance_under_split_rotation(self, hopf_map):
        x = np.array([0.4, 0.4, 0.4, 0.4])
        sp = differential(hopf_map, x)
        T = oneill_T(sp)
        A = oneill_A(sp)
        rng = np.random.default_rng(9)
        sp2 = _rotate_horizontal(sp, orthonormal_rows(rng, sp.s))
        T2 = oneill_T(sp2)
        A2 = oneill_A(sp2)
        t, t2 = CasoratiInput(T.coeffs), CasoratiInput(T2.coeffs)
        a, a2 = CasoratiInput(A.coeffs, kind="skew"), CasoratiInput(A2.coeffs, kind="skew")
        assert abs(t.norm_sq() - t2.norm_sq()) < 1e-9
        assert abs(t.trace_norm_sq() - t2.trace_norm_sq()) < 1e-9
        assert abs(a.norm_sq() - a2.norm_sq()) < 1e-9

    def test_fields_match_definitions(self, sheared_hopf_map):
        # T_{v_j} and A_{h_i} on every frame vector, as the tensors and the mixed identity read them
        sp = differential(sheared_hopf_map, np.array([0.5, 0.3, 0.4, 0.2]))
        pt, s = sp.point, sp.s
        dgamma = christoffel_with_grad(sheared_hopf_map.source, pt.x)[1]
        assert np.abs(pt.source.gamma).max() > 0.1 and np.abs(dgamma).max() > 0.1
        E, L, ref = sp.source_frame, sp.projector.L, oneill_reference(pt)
        for e, row in enumerate(E):
            kind = "A" if e < s else "T"
            for f, col in enumerate(E):
                want = _oneill_by_definition(ref, pt.source.gamma, kind, row, col)
                assert np.abs(L[e] @ col - want).max() < 1e-12, (e, f)

    @pytest.mark.parametrize("name", ["hopf_map", "radial_map", "sheared_hopf_map"])
    def test_field_derivatives_match_finite_differences(self, request, name):
        smap = request.getfixturevalue(name)
        x = np.array([0.5, 0.3, 0.4, 0.2])
        sp = differential(smap, x)
        proj, E, s = sp.projector, sp.source_frame, sp.s
        h = 1e-5

        def moved(t, direction):  # the projector's jet at x + t h direction on the frames at x
            return dataclasses.replace(sp, point=MapPoint.at(smap, x + t * h * direction)).projector

        # D_e P_h against central differences of P_h along every frame vector
        for e, row in enumerate(E):
            fd = (moved(1, row).Ph - moved(-1, row).Ph) / (2 * h)
            assert np.abs(proj.dPh[e] - fd).max() < 1e-7, e
        # D_{h_i} D_{v_j} P_h against central differences of D_{v_j} P_h along h_i
        assert proj.X.shape == (sp.s, sp.ell, 4, 4) and np.abs(proj.X).max() > 0.1
        for i, hv in enumerate(E[:s]):
            fd = (moved(1, hv).dPh[s:] - moved(-1, hv).dPh[s:]) / (2 * h)
            assert np.abs(proj.X[i] - fd).max() < 1e-7, i

    def test_map_mode_rejected(self, paraboloid_map):
        x = np.zeros(2)
        sp = differential(paraboloid_map, x)
        with pytest.raises(DimensionError):
            oneill_T(sp)


class TestGaussResiduals:
    def test_flat_linear_map(self):
        emb = SmoothMap(chart("flat:2"), chart("flat:4"),
                        lambda c: [c[0], c[1], 0.0, 0.0], "riemannian_map", 2)
        x = np.array([0.1, 0.9])
        sp = differential(emb, x)
        assert gauss_residual_map(sp) < 1e-14

    def test_paraboloid(self, paraboloid_map):
        for xv in ([0.0, 0.0], [0.4, -0.3], [1.0, 0.7]):
            x = np.array(xv)
            sp = differential(paraboloid_map, x)
            assert gauss_residual_map(sp) < 1e-6

    def test_corrupted_B_detected(self, paraboloid_map):
        x = np.zeros(2)
        sp = differential(paraboloid_map, x)
        B = second_fundamental_form(sp)
        vecs = B.vectors.copy()
        vecs[0, 0] = vecs[0, 0] + 0.1 * sp.range_perp[0]
        coeffs = np.einsum("ija,ab,vb->vij", vecs, B.metric, sp.range_perp)
        bad = FundamentalTensor("B", coeffs, vecs, B.metric)
        assert gauss_residual_map(sp, bad) >= 0.005

    def test_projection_all_zero(self, projection_map):
        x = np.full(8, -0.2)
        sp = differential(projection_map, x)
        res = gauss_residual_submersion(sp, fiber_kappa=0.0)
        assert res.vertical < 1e-14
        assert res.horizontal < 1e-14
        assert res.mixed < 1e-14
        assert res.vertical_independent

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_radial_all_residuals(self, radial_map, r):
        x = np.full(4, r / 2.0)
        sp = differential(radial_map, x)
        res = gauss_residual_submersion(sp, fiber_kappa=1.0 / r**2)
        assert res.vertical < 1e-6
        assert res.horizontal < 1e-6
        assert res.mixed < 1e-6

    def test_hopf_horizontal_and_mixed(self, hopf_map):
        for xv in ([0.5, 0.3, 0.4, 0.2], [0.9, 0.2, 0.6, 0.3]):
            x = np.array(xv)
            sp = differential(hopf_map, x)
            res = gauss_residual_submersion(sp)
            assert res.horizontal < 1e-6
            assert res.mixed < 1e-6
            assert not res.vertical_independent

    def test_curved_chart_mixed_identity_is_exact(self, sheared_hopf_map):
        # the connection terms of the covariant derivatives do not vanish here
        for xv in ([0.5, 0.3, 0.4, 0.2], [0.9, 0.2, 0.6, 0.3]):
            res = gauss_residual_submersion(differential(sheared_hopf_map, np.array(xv)))
            assert res.horizontal < 1e-12
            assert res.mixed < 1e-13

    def test_hopf_sphere_chart_mixed_identity_is_exact(self):
        # the Hopf map S^3(1) -> S^2(1/2) in Hopf coordinates (eta, xi1, xi2):
        # the source is curved (R != 0), the fibers are great circles (T = 0) and A != 0
        def g1(c):
            s, co = jets.sin(c[0]), jets.cos(c[0])
            return [[1.0, 0.0, 0.0], [0.0, s * s, 0.0], [0.0, 0.0, co * co]]

        def g2(c):
            s = jets.sin(c[0])
            return [[0.25, 0.0], [0.0, 0.25 * s * s]]

        src = MetricChart(3, ((0.2, 1.3), (-3.0, 3.0), (-3.0, 3.0)), g1, name="hopf-s3")
        tgt = MetricChart(2, ((0.3, 2.7), (-6.5, 6.5)), g2, name="s2-half")
        hopf = SmoothMap(src, tgt, lambda c: [2.0 * c[0], c[1] - c[2]],
                         "riemannian_submersion", 2, "hopf-s3-s2")
        for xv in ([0.4, 0.3, -0.5], [0.8, -1.2, 0.7], [1.1, 2.0, 1.5]):
            sp = differential(hopf, np.array(xv))
            assert np.abs(sp.source_curvature).max() > 0.5
            assert np.abs(oneill_A(sp).coeffs).max() > 0.1
            res = gauss_residual_submersion(sp, fiber_kappa=None)
            assert res.mixed < 1e-13
            assert res.horizontal < 1e-13

    def test_submersion_residuals_take_few_n4_arrays(self):
        # flat:24 -> flat:4 with the split and both frame curvatures computed first:
        # T, A and the three residuals peak below 9.4 MiB, about 3.5 arrays of
        # 24^4 floats (the chart-basis derivatives of T and A took 7.4)
        smap = SmoothMap(chart("flat:24"), chart("flat:4"), lambda c: list(c[:4]),
                         "riemannian_submersion", 4)
        sp = differential(smap, np.random.default_rng(24).uniform(-0.9, 0.9, size=24))
        sp.source_curvature, sp.target_curvature
        tracemalloc.start()
        try:
            res = gauss_residual_submersion(sp, oneill_T(sp), oneill_A(sp), fiber_kappa=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.vertical, res.horizontal, res.mixed) == (0.0, 0.0, 0.0)
        assert peak <= 9.4 * 2**20, peak

    @pytest.mark.parametrize("fiber_kappa", [0.0, None])
    def test_vertical_identity_takes_few_l4_arrays(self, fiber_kappa):
        # flat:24 -> flat:2: the fibers have l = 22, so one l^4 array is 1.79 MiB and
        # the vertical identity dominates.  Forming each array in place and reducing
        # it at once peaks at about 3 of them (5.5 MiB); holding the T products, the
        # space-form tensor and every defect alive at once takes 7.3 MiB with a
        # space-form fiber and 8.9 MiB with the symmetry checks
        smap = SmoothMap(chart("flat:24"), chart("flat:2"), lambda c: list(c[:2]),
                         "riemannian_submersion", 2)
        sp = differential(smap, np.random.default_rng(24).uniform(-0.9, 0.9, size=24))
        sp.source_curvature, sp.target_curvature
        T, A = oneill_T(sp), oneill_A(sp)
        tracemalloc.start()
        try:
            res = gauss_residual_submersion(sp, T, A, fiber_kappa=fiber_kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.vertical, res.horizontal, res.mixed) == (0.0, 0.0, 0.0)
        assert peak <= 6.3 * 2**20, peak

    def test_fiber_kappa_cross_check_against_sphere_chart(self):
        # the radial fiber is a round 3-sphere; the sphere3 chart gives the
        # same constant sectional curvature, justifying the kappa formula
        for r in (0.5, 2.0):
            cp = riemann(chart(f"sphere3:{r:g}"), np.array([1.2, 0.8, 0.4]))
            fr = mgs2_frame(np.eye(3), cp.metric)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert sectional(cp, fr[i], fr[j]) == pytest.approx(
                        1.0 / r**2, abs=1e-9
                    )


class TestBracketConsistency:
    def test_hopf(self, hopf_map):
        x = np.array([0.5, 0.3, 0.4, 0.2])
        sp = differential(hopf_map, x)
        A = oneill_A(sp)
        br = vertical_bracket(sp)
        assert np.abs(br - 2.0 * A.vectors).max() < 1e-6

    def test_projection(self, projection_map):
        x = np.full(8, 0.1)
        sp = differential(projection_map, x)
        A = oneill_A(sp)
        br = vertical_bracket(sp)
        assert np.abs(br - 2.0 * A.vectors).max() < 1e-12
