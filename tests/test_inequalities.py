import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq.casorati import CasoratiInput, hyperplane_extrema
from casoratiq.errors import ConfigurationError, DimensionError, OracleError
from casoratiq.inequalities import (
    check_combined_theorem,
    check_horizontal_theorem,
    check_map_theorem,
    check_vertical_theorem,
    equality_diagnostics,
    space_form_residual_from_tensor,
)
from casoratiq.quaternionic import QSFOracle, quat_units

from conftest import algebraic_gap, orthonormal_rows, scene_data


def pattern_slices(n, lams):
    out = np.zeros((len(lams), n, n))
    for a, lam in enumerate(lams):
        np.fill_diagonal(out[a], lam)
        out[a, -1, -1] = 2.0 * lam
    return out


def submersion_data(rng, s, ell, c, T=None, A=None, deltaN=None, dim=12):
    rows = orthonormal_rows(rng, dim)
    J = quat_units(dim // 4)
    g = np.eye(dim)
    if T is None:
        raw = rng.uniform(-1, 1, size=(s, ell, ell))
        T = 0.5 * (raw + raw.transpose(0, 2, 1))
    if A is None:
        raw = rng.uniform(-1, 1, size=(ell, s, s))
        A = 0.5 * (raw - raw.transpose(0, 2, 1))
    return scene_data(
        "submersion", rows[: s + ell], s,
        {"T": T, "A": A}, g, J, c, deltaN=deltaN,
    )


class TestAlgebraicGap:
    def test_zero(self):
        lhs, rd, rdh = algebraic_gap(CasoratiInput(np.zeros((1, 4, 4))))
        assert lhs == rd == rdh == 0.0

    def test_equality_pattern(self):
        lhs, rd, rdh = algebraic_gap(CasoratiInput(np.diag([1.0, 1.0, 1.0, 2.0])))
        assert lhs == pytest.approx(1.5, abs=1e-12)
        assert rd - lhs == pytest.approx(0.0, abs=1e-10)
        assert rdh - lhs == pytest.approx(0.25, abs=1e-10)

    def test_random_slack_nonnegative(self):
        rng = np.random.default_rng(2024)
        worst = np.inf
        for _ in range(150):
            s = int(rng.integers(4, 7))
            na = int(rng.integers(1, 4))
            raw = rng.uniform(-1, 1, size=(na, s, s))
            lhs, rd, rdh = algebraic_gap(CasoratiInput(0.5 * (raw + raw.transpose(0, 2, 1))))
            worst = min(worst, rd - lhs, rdh - lhs)
        assert worst >= -1e-9

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            algebraic_gap(CasoratiInput(np.zeros((1, 2, 2))))


class TestMapTheorem:
    def make_data(self, B, c, rng=None, ambient=None):
        """A map point on the space form, or on the chart frame tensor ``ambient``."""
        rng = rng or np.random.default_rng(7)
        rows = orthonormal_rows(rng, 8)
        return scene_data(
            "map", rows, 4, {"B": B}, np.eye(8),
            quat_units(2), c, ambient,
        )

    def test_equality_pattern_delta(self):
        B = np.zeros((4, 4, 4))
        B[0] = np.diag([1.0, 1.0, 1.0, 2.0])
        reports = check_map_theorem(self.make_data(B, 4.0))
        by_key = {(r.theorem_id, r.variant): r for r in reports}
        assert by_key[("map_3_2", "delta")].slack == pytest.approx(0.0, abs=1e-10)
        assert by_key[("map_3_2", "delta")].equality_verdict == "equality"
        assert by_key[("map_3_2", "delta_hat")].slack == pytest.approx(0.25, abs=1e-10)
        assert by_key[("map_3_2", "delta_hat")].equality_verdict == "strict"
        # lemma and theorem assemblies agree on oracle scenes
        assert by_key[("lemma_map_3_1", "delta")].rhs == pytest.approx(
            by_key[("map_3_2", "delta")].rhs, abs=1e-9
        )

    def test_zero_B_flat(self):
        reports = check_map_theorem(self.make_data(np.zeros((4, 4, 4)), 0.0))
        for r in reports:
            assert r.lhs == 0.0 and r.rhs == 0.0
            assert r.equality_verdict == "equality"

    def test_random_negative_c(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.uniform(-1, 1, size=(4, 4, 4))
            B = 0.5 * (raw + raw.transpose(0, 2, 1))
            for r in check_map_theorem(self.make_data(B, -4.0, rng)):
                assert r.slack >= -1e-8

    def test_space_form_mismatch_raises(self):
        # declare c = 4 but feed flat curvature in chart mode
        frame = orthonormal_rows(np.random.default_rng(7), 8)
        residual = space_form_residual_from_tensor(
            np.zeros((8,) * 4), QSFOracle(4.0, quat_units(2), np.eye(8)), frame
        )
        data = self.make_data(np.zeros((4, 4, 4)), 4.0, ambient=np.zeros((8,) * 4))
        assert data.space_form_residual == pytest.approx(float(residual), rel=1e-12)
        with pytest.raises(OracleError):
            check_map_theorem(data)

    def test_dimension_error(self):
        rng = np.random.default_rng(1)
        rows = orthonormal_rows(rng, 8)
        data = scene_data(
            "map", rows, 2, {"B": np.zeros((1, 2, 2))},
            np.eye(8), quat_units(2), 0.0, np.zeros((8,) * 4),
        )
        with pytest.raises(DimensionError):
            check_map_theorem(data)


class TestVerticalTheorem:
    def test_equality_pattern(self):
        rng = np.random.default_rng(3)
        T = pattern_slices(4, [1.0, 0.5, 0.25, 0.0])
        data = submersion_data(rng, 4, 4, 4.0, T=T, A=np.zeros((4, 4, 4)))
        by_key = {(r.theorem_id, r.variant): r for r in check_vertical_theorem(data)}
        assert by_key[("vertical_5_2", "delta")].equality_verdict == "equality"
        assert by_key[("vertical_5_2", "delta")].slack == pytest.approx(0.0, abs=1e-10)
        assert by_key[("vertical_5_2", "delta_hat")].equality_verdict == "strict"

    def test_random_sweep(self):
        rng = np.random.default_rng(5)
        for c in (-4.0, 0.0, 4.0):
            for _ in range(10):
                s = int(rng.integers(3, 6))
                ell = int(rng.integers(3, 6))
                data = submersion_data(rng, s, ell, c)
                for r in check_vertical_theorem(data):
                    assert r.slack >= -1e-8

    def test_dimension_error(self):
        rng = np.random.default_rng(6)
        data = submersion_data(rng, 4, 2, 0.0)
        with pytest.raises(DimensionError):
            check_vertical_theorem(data)


class TestHorizontalTheorem:
    def test_A_zero_gives_equality(self):
        rng = np.random.default_rng(12)
        data = submersion_data(rng, 4, 4, 4.0, A=np.zeros((4, 4, 4)))
        for r in check_horizontal_theorem(data):
            assert r.equality_verdict == "equality"
            assert abs(r.slack) < 1e-10

    @pytest.mark.parametrize("bracket, verdict", [(1e-7, "equality"), (1e-5, "strict")])
    def test_bracket_cross_check_sits_between_1e_7_and_1e_5(self, bracket, verdict):
        """An exactly-zero A reads equality only when the bracket residual backs it."""
        rng = np.random.default_rng(12)
        data = submersion_data(rng, 4, 4, 4.0, A=np.zeros((4, 4, 4)))
        data = dataclasses.replace(data, bracket_residual=bracket)
        for r in check_horizontal_theorem(data):
            assert r.equality_verdict == verdict

    def test_nonzero_A_strict(self):
        rng = np.random.default_rng(13)
        data = submersion_data(rng, 4, 4, 0.0)
        assert data.tensors["A"].norm_sq() > 1e-4
        for r in check_horizontal_theorem(data):
            assert r.equality_verdict == "strict"
            assert r.slack > 0
            assert r.diagnostics.A_norm > 0

    def test_random_sweep(self):
        rng = np.random.default_rng(14)
        for c in (-4.0, 0.0, 4.0):
            for _ in range(10):
                s = int(rng.integers(3, 6))
                ell = int(rng.integers(3, 6))
                for r in check_horizontal_theorem(submersion_data(rng, s, ell, c)):
                    assert r.slack >= -1e-8


class TestCombinedTheorem:
    def test_requires_delta_n(self):
        rng = np.random.default_rng(15)
        data = submersion_data(rng, 4, 4, 0.0, deltaN=None)
        with pytest.raises(ConfigurationError):
            check_combined_theorem(data)

    def test_product_zero(self):
        rng = np.random.default_rng(16)
        data = submersion_data(rng, 4, 4, 0.0, T=np.zeros((4, 4, 4)),
                               A=np.zeros((4, 4, 4)), deltaN=0.0)
        for r in check_combined_theorem(data):
            assert r.lhs == 0.0 and r.rhs == 0.0
            assert r.equality_verdict == "equality"

    def test_pure_c_surplus(self):
        rng = np.random.default_rng(17)
        data = submersion_data(rng, 4, 4, 4.0, T=np.zeros((4, 4, 4)),
                               A=np.zeros((4, 4, 4)), deltaN=0.0)
        D = 4 * 3 * 4 * 3
        mixed = data.sums[2]
        for r in check_combined_theorem(data):
            assert r.slack == pytest.approx(2.0 * mixed / D, abs=1e-10)
            assert r.slack >= 0.0

    def test_assemblies_agree(self):
        rng = np.random.default_rng(18)
        for c in (-4.0, 0.0, 4.0):
            data = submersion_data(rng, 4, 4, c, deltaN=0.0)
            for r in check_combined_theorem(data):
                assert r.extras["assembly_agreement"] < 1e-9

    def test_equality_fixture(self):
        rng = np.random.default_rng(19)
        T = pattern_slices(4, [1.0, 0.5, 0.25, 0.0])
        t_norm = float(np.sum(T * T))
        data = submersion_data(rng, 4, 4, 0.0, T=T, A=np.zeros((4, 4, 4)),
                               deltaN=t_norm / 2.0)
        by_key = {(r.theorem_id, r.variant): r for r in check_combined_theorem(data)}
        rep = by_key[("combined_7_2", "delta")]
        assert rep.equality_verdict == "equality"
        assert abs(rep.slack) < 1e-10
        d = rep.diagnostics
        assert d.offdiag_max < 1e-10
        assert d.eigen_pattern_residual < 1e-10
        assert d.common_eigendirection_residual < 1e-10
        assert d.commutator_max < 1e-10
        assert d.A_norm < 1e-10


class TestEqualityDiagnostics:
    def test_pattern_all_zero(self):
        T = pattern_slices(4, [1.0, 2.0])
        inp = CasoratiInput(T)
        ex = hyperplane_extrema(inp)
        d = equality_diagnostics(inp, ex)
        assert d.offdiag_max < 1e-10
        assert d.eigen_pattern_residual < 1e-10
        assert d.common_eigendirection_residual < 1e-10
        assert d.commutator_max < 1e-10

    def test_umbilical_fails_pattern_but_commutes(self):
        # radial-style umbilical (lam, lam, lam): commuting, not the 2-lam pattern
        inp = CasoratiInput((0.5 * np.eye(3))[None, :, :])
        ex = hyperplane_extrema(inp)
        d = equality_diagnostics(inp, ex)
        assert d.eigen_pattern_residual > 0.1
        assert d.commutator_max < 1e-12
        assert d.degenerate_extrema

    def test_zero_tensor(self):
        inp = CasoratiInput(np.zeros((2, 4, 4)))
        ex = hyperplane_extrema(inp)
        d = equality_diagnostics(inp, ex)
        assert d.offdiag_max == 0.0
        assert d.eigen_pattern_residual == 0.0
        assert d.commutator_max == 0.0

    @given(lam=st.floats(0.25, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_scaling_keeps_classification(self, lam):
        rng = np.random.default_rng(23)
        raw = rng.uniform(-1, 1, size=(2, 4, 4))
        T = 0.5 * (raw + raw.transpose(0, 2, 1))
        inp = CasoratiInput(T)
        scaled = CasoratiInput(lam * T)
        d1 = equality_diagnostics(inp, hyperplane_extrema(inp))
        d2 = equality_diagnostics(scaled, hyperplane_extrema(scaled))
        for f in ("offdiag_max", "eigen_pattern_residual", "commutator_max"):
            v1, v2 = getattr(d1, f), getattr(d2, f)
            assert (v1 < 1e-12) == (v2 < 1e-12 * max(1.0, lam * lam))
            if v1 > 1e-9:
                assert v2 > 1e-9 * min(1.0, lam * lam)

    def test_verdict_scaling_invariance(self):
        rng = np.random.default_rng(29)
        T = pattern_slices(4, [1.0, 0.5, 0.25, 0.0])
        for lam in (0.5, 2.0, 7.0):
            data = submersion_data(rng, 4, 4, 4.0, T=lam * T, A=np.zeros((4, 4, 4)))
            by_key = {(r.theorem_id, r.variant): r
                      for r in check_vertical_theorem(data)}
            assert by_key[("vertical_5_2", "delta")].equality_verdict == "equality"
