import numpy as np
import pytest

from casoratiq.errors import FrameError, StructureError
from casoratiq.geometry import chart, riemann
from casoratiq.quaternionic import (
    QSFOracle,
    QuaternionicStructure,
    check_quaternionic_structure,
    decompose_J,
    quat_units,
    structure,
)

from conftest import j_totals, orthonormal_rows, qsf_tensor_reference, sectional


class TestStructureCheck:
    def test_quaternion_units_pass(self):
        rep = check_quaternionic_structure(quat_units(1), np.eye(4))
        assert rep.passed
        assert rep.worst == 0.0

    def test_block_diagonal_copies_pass(self):
        rep = check_quaternionic_structure(quat_units(2), np.eye(8))
        assert rep.passed

    def test_sign_flip_fails_composition(self):
        J = quat_units(2).copy()
        J[0, :4, :4] *= -1.0  # J1 flipped on the first block only
        rep = check_quaternionic_structure(J, np.eye(8))
        assert not rep.passed
        assert "J1 J2 = J3" in rep.failed_identities()

    def test_registry(self):
        st = structure("quat-flat:3")
        assert st.dim == 12
        with pytest.raises(KeyError):
            structure("nope:1")

    def test_each_registry_structure_is_built_once(self, monkeypatch):
        from casoratiq import quaternionic
        from casoratiq.scenes import builtin_scenario, evaluate_scenario, parse_scenario

        calls = []

        def counted(J, _original=quaternionic._identity_residuals):
            calls.append(J.shape[-1])
            return _original(J)

        monkeypatch.setattr(quaternionic, "_identity_residuals", counted)
        structure.cache_clear()
        doc = builtin_scenario("flat-embedding:4in8").raw
        for _ in range(3):
            evaluate_scenario(parse_scenario(doc))
        assert calls == [8]
        st = structure("quat-flat:2")
        assert st is structure("quat-flat:2") and not st.J_const.flags.writeable
        with pytest.raises(ValueError):
            st.J_const[0, 0, 0] = 1.0
        # explicit matrices are not cached, and the caller's array stays writeable
        J = quat_units(1)
        first = QuaternionicStructure.from_matrices(J)
        assert first is not QuaternionicStructure.from_matrices(J) and J.flags.writeable

    def test_dimension_must_be_multiple_of_four(self):
        with pytest.raises(StructureError):
            QuaternionicStructure(6, J_const=np.zeros((3, 6, 6)))


class TestOracle:
    def test_c_zero_is_flat(self):
        oracle = QSFOracle(0.0, quat_units(2), np.eye(8))
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=(4, 8))
            assert oracle.quad(*z) == 0.0

    def test_quaternionic_plane_sectional(self):
        J = quat_units(2)
        oracle = QSFOracle(4.0, J, np.eye(8))
        X = np.zeros(8)
        X[0] = 1.0
        for a in range(3):
            assert sectional(oracle, X, J[a] @ X) == pytest.approx(4.0, abs=1e-10)

    def test_totally_real_plane_sectional(self):
        oracle = QSFOracle(4.0, quat_units(2), np.eye(8))
        X = np.zeros(8); X[0] = 1.0
        Y = np.zeros(8); Y[4] = 1.0
        assert sectional(oracle, X, Y) == pytest.approx(1.0, abs=1e-10)

    def test_symmetries_and_bianchi_random(self):
        oracle = QSFOracle(-4.0, quat_units(2), np.eye(8))
        rng = np.random.default_rng(99)
        q = oracle.quad
        worst = 0.0
        for _ in range(1000):
            z = rng.normal(size=(4, 8))
            z1, z2, z3, z4 = z / np.linalg.norm(z, axis=1, keepdims=True)
            v = q(z1, z2, z3, z4)
            worst = max(
                worst,
                abs(v + q(z2, z1, z3, z4)),
                abs(v + q(z1, z2, z4, z3)),
                abs(v - q(z3, z4, z1, z2)),
                abs(v + q(z2, z3, z1, z4) + q(z3, z1, z2, z4)),
            )
        assert worst < 1e-10

    def test_tensor_matches_quad(self):
        oracle = QSFOracle(4.0, quat_units(1), np.eye(4))
        rng = np.random.default_rng(5)
        E = orthonormal_rows(rng, 4)
        R = qsf_tensor_reference(oracle.c, oracle.J, oracle.g, E)
        for idx in rng.integers(0, 4, size=(30, 4)):
            a, b, c, d = idx
            assert R[a, b, c, d] == pytest.approx(
                oracle.quad(E[a], E[b], E[c], E[d]), abs=1e-12
            )

    def test_chart_consistency_at_c_zero(self):
        # flat chart curvature (zero) equals the oracle with c = 0
        cp = riemann(chart("flat:4"), np.full(4, 0.3))
        oracle = QSFOracle(0.0, quat_units(1), cp.metric)
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = rng.normal(size=(4, 4))
            chart_value = np.einsum("ijkl,i,j,k,l->", cp.riemann, *z)
            assert chart_value == pytest.approx(oracle.quad(*z), abs=1e-12)

    def test_dimension_error(self):
        with pytest.raises(StructureError):
            QSFOracle(1.0, np.zeros((3, 6, 6)), np.eye(6))


class TestDecomposition:
    def test_full_frame_norms(self):
        # the defining sum over a full 4-frame is the squared Frobenius
        # norm of each J, which is 4 (not 2: each J has four unit entries)
        d = decompose_J(quat_units(1), np.eye(4), np.eye(4), 4)
        assert np.allclose(d.norms_P, 4.0)
        assert np.allclose(d.norms_Q, 0.0)
        assert np.allclose(d.norms_PV, 0.0)

    def test_quaternionic_plane(self):
        J = quat_units(1)
        e1 = np.zeros(4); e1[0] = 1.0
        span = np.array([e1, J[0] @ e1])
        d = decompose_J(J, np.eye(4), span, 2)
        assert d.norms_P[0] == pytest.approx(2.0, abs=1e-12)
        assert d.norms_P[1] == pytest.approx(0.0, abs=1e-12)
        assert d.norms_P[2] == pytest.approx(0.0, abs=1e-12)

    def test_invariant_vertical_plane_kills_cross_norm(self):
        J = quat_units(1)
        e1 = np.zeros(4); e1[0] = 1.0
        vert = np.array([e1, J[0] @ e1])  # J1-invariant plane
        e3 = np.zeros(4); e3[2] = 1.0
        hor = np.array([e3, J[0] @ e3])
        d = decompose_J(J, np.eye(4), np.concatenate([hor, vert]), 2)
        assert d.norms_PV[0] == pytest.approx(0.0, abs=1e-12)

    def test_completeness_identity(self):
        J = quat_units(3)
        g = np.eye(12)
        rng = np.random.default_rng(31)
        for _ in range(10):
            rows = orthonormal_rows(rng, 12)
            k = int(rng.integers(1, 12))
            d = decompose_J(J, g, rows, k)
            total = d.norms_P + d.norms_Q + 2.0 * d.norms_PV
            assert np.abs(total - j_totals(d)).max() < 1e-10

    def test_blocks_are_skew(self):
        J = quat_units(2)
        rng = np.random.default_rng(8)
        rows = orthonormal_rows(rng, 8)
        d = decompose_J(J, np.eye(8), rows, 5)
        for blk in d.blocks:
            assert np.abs(blk + blk.T).max() < 1e-12

    def test_frame_error(self):
        J = quat_units(1)
        bad = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]])
        with pytest.raises(FrameError):
            decompose_J(J, np.eye(4), bad, 2)
