import dataclasses

import numpy as np
import pytest

from casoratiq.casorati import CasoratiInput
from casoratiq.errors import DimensionError, NotRiemannianMapError, RankError
from casoratiq import jets
from casoratiq.geometry import MetricChart, OrthoFrame, chart, gram_schmidt, riemann
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

from conftest import orthonormal_rows


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


def _oneill_by_definition(pt: MapPoint, kind: str, E, F) -> np.ndarray:
    """T_E F = h nabla_{vE} vF + v nabla_{vE} hF, A_E F = v nabla_{hE} hF + h nabla_{hE} vF,
    read off the definitions with constant-component extensions of E and F."""
    sub, gamma = pt.submersion, pt.source.gamma
    P = sub.Ph
    Q = np.eye(P.shape[0]) - P
    X = Q @ E if kind == "T" else P @ E

    def nabla(proj, dproj):  # nabla_X (proj F)
        return np.einsum("m,mkl,l->k", X, dproj, F) + np.einsum("kml,m,l->k", gamma, X, proj @ F)

    same, other = (Q, P) if kind == "T" else (P, Q)
    sign = -1.0 if kind == "T" else 1.0  # d(1 - P_h) = -dP_h
    return other @ nabla(same, sign * sub.dPh) + same @ nabla(other, -sign * sub.dPh)


class TestDifferential:
    def test_projection_split(self, projection_map):
        x = np.array([0.3, -0.2, 1.1, 0.5, 0.1, 0.2, -0.7, 0.4])
        sp = differential(projection_map, x)
        assert sp.s == 4 and sp.ell == 4
        assert sp.isometry_residual < 1e-12
        assert sp.kernel_residual() < 1e-12
        # vertical = last four coordinates
        assert np.abs(sp.vertical.vectors[:, :4]).max() < 1e-12
        assert np.abs(sp.horizontal.vectors[:, 4:]).max() < 1e-12

    def test_radial_split(self, radial_map):
        x = np.array([0.5, 0.5, 0.5, 0.5])
        sp = differential(radial_map, x)
        assert sp.s == 1 and sp.ell == 3
        # horizontal is the radial line
        h = sp.horizontal.vectors[0]
        xhat = x / np.linalg.norm(x)
        assert abs(abs(h @ xhat) - 1.0) < 1e-10
        # vertical vectors are tangent to the sphere |x| = r
        assert np.abs(sp.vertical.vectors @ xhat).max() < 1e-10

    def test_embedding_split(self):
        emb = SmoothMap(chart("flat:2"), chart("flat:4"),
                        lambda c: [c[0], c[1], 0.0, 0.0], "riemannian_map", 2)
        sp = differential(emb, np.array([0.7, -0.4]))
        assert sp.ell == 0 and sp.s == 2
        assert np.abs(sp.range.vectors[:, 2:]).max() < 1e-12
        assert sp.range_perp.k == 2

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
        assert B.symmetry_residual() < 1e-10

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
        Q = orthonormal_rows(rng, 2)
        g1 = paraboloid_map.source.metric_jets(x)[0]
        hor2 = OrthoFrame(Q @ sp.horizontal.vectors, g1)
        rng2 = OrthoFrame(hor2.vectors @ sp.point.dF.T, sp.range.metric_at)
        sp2 = dataclasses.replace(sp, horizontal=hor2, range=rng2)
        B2 = second_fundamental_form(sp2)
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
        assert A.symmetry_residual() < 1e-9
        assert np.abs(np.trace(A.coeffs, axis1=1, axis2=2)).max() == 0.0

    def test_T_symmetry(self, radial_map):
        x = np.array([0.6, 0.5, 0.55, 0.48])
        sp = differential(radial_map, x)
        assert oneill_T(sp).symmetry_residual() < 1e-9

    def test_alternation_identities(self, hopf_map):
        x = np.array([0.9, 0.2, 0.6, 0.3])
        g1 = hopf_map.source.metric_jets(x)[0]
        sub = MapPoint.at(hopf_map, x).submersion
        rng = np.random.default_rng(21)
        worst_t = worst_a = 0.0
        for _ in range(20):
            E, F, G = rng.normal(size=(3, 4))
            tef = np.einsum("kmn,m,n->k", sub.T, E, F)
            teg = np.einsum("kmn,m,n->k", sub.T, E, G)
            worst_t = max(worst_t, abs(tef @ g1 @ G + F @ g1 @ teg))
            aef = np.einsum("kmn,m,n->k", sub.A, E, F)
            aeg = np.einsum("kmn,m,n->k", sub.A, E, G)
            worst_a = max(worst_a, abs(aef @ g1 @ G + F @ g1 @ aeg))
        assert worst_t < 1e-9 and worst_a < 1e-9

    def test_scalar_invariance_under_split_rotation(self, hopf_map):
        x = np.array([0.4, 0.4, 0.4, 0.4])
        sp = differential(hopf_map, x)
        T = oneill_T(sp)
        A = oneill_A(sp)
        rng = np.random.default_rng(9)
        Qh = orthonormal_rows(rng, sp.s)
        hor2 = OrthoFrame(Qh @ sp.horizontal.vectors, sp.horizontal.metric_at)
        sp2 = dataclasses.replace(
            sp, horizontal=hor2,
            range=OrthoFrame(hor2.vectors @ sp.point.dF.T, sp.range.metric_at),
        )
        T2 = oneill_T(sp2)
        A2 = oneill_A(sp2)
        t, t2 = CasoratiInput(T.coeffs), CasoratiInput(T2.coeffs)
        a, a2 = CasoratiInput(A.coeffs, kind="skew"), CasoratiInput(A2.coeffs, kind="skew")
        assert abs(t.norm_sq() - t2.norm_sq()) < 1e-9
        assert abs(t.trace_norm_sq() - t2.trace_norm_sq()) < 1e-9
        assert abs(a.norm_sq() - a2.norm_sq()) < 1e-9

    def test_fields_match_definitions(self, sheared_hopf_map):
        pt = MapPoint.at(sheared_hopf_map, np.array([0.5, 0.3, 0.4, 0.2]))
        assert np.abs(pt.source.gamma).max() > 0.1 and np.abs(pt.source.dgamma).max() > 0.1
        rng = np.random.default_rng(5)
        for _ in range(5):
            E, F = rng.normal(size=(2, 4))
            for kind in ("T", "A"):
                field = getattr(pt.submersion, kind)
                got = np.einsum("kmn,m,n->k", field, E, F)
                assert np.abs(got - _oneill_by_definition(pt, kind, E, F)).max() < 1e-12

    @pytest.mark.parametrize("name", ["hopf_map", "radial_map", "sheared_hopf_map"])
    def test_field_derivatives_match_finite_differences(self, request, name):
        smap = request.getfixturevalue(name)
        x = np.array([0.5, 0.3, 0.4, 0.2])
        sub = MapPoint.at(smap, x).submersion
        h = 1e-5
        for p in range(4):
            e = np.zeros(4)
            e[p] = h
            plus, minus = MapPoint.at(smap, x + e).submersion, MapPoint.at(smap, x - e).submersion
            for field, deriv in (("Ph", "dPh"), ("T", "dT"), ("A", "dA")):
                fd = (getattr(plus, field) - getattr(minus, field)) / (2 * h)
                assert np.abs(getattr(sub, deriv)[p] - fd).max() < 1e-7, (field, p)

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
        vecs[0, 0] = vecs[0, 0] + 0.1 * sp.range_perp.vectors[0]
        coeffs = np.einsum("ija,ab,vb->vij", vecs, B.metric, sp.range_perp.vectors)
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

    def test_fiber_kappa_cross_check_against_sphere_chart(self):
        # the radial fiber is a round 3-sphere; the sphere3 chart gives the
        # same constant sectional curvature, justifying the kappa formula
        for r in (0.5, 2.0):
            cp = riemann(chart(f"sphere3:{r:g}"), np.array([1.2, 0.8, 0.4]))
            fr = gram_schmidt(list(np.eye(3)), cp.metric)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert cp.sectional(fr.vectors[i], fr.vectors[j]) == pytest.approx(
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
