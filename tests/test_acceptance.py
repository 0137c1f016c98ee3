"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from casoratiq.casorati import CasoratiInput, hyperplane_extrema
from casoratiq.cli import report_json
from casoratiq.geometry import _symmetry_defects, chart, riemann
from casoratiq.inequalities import (
    check_combined_theorem,
    check_horizontal_theorem,
    check_map_theorem,
    check_vertical_theorem,
)
from casoratiq.maps import differential, gauss_residual_map, gauss_residual_submersion
from casoratiq.quaternionic import QSFOracle, quat_units
from casoratiq.scenes import builtin_names, builtin_scenario, evaluate_scenario

from conftest import (
    TripathiInstance,
    algebraic_gap,
    dense_extrema,
    mgs2_frame,
    orthonormal_rows,
    qsf_tensor_reference,
    scene_data,
    sectional,
    tripathi_minimize,
    tripathi_minimize_numeric,
    tripathi_objective,
)


def _sample(rng, ch, count):
    lo = np.array([b[0] for b in ch.domain])
    hi = np.array([b[1] for b in ch.domain])
    return lo + (hi - lo) * rng.random((count, ch.dim))


def test_c01_curvature_engine():
    start = time.monotonic()
    rng = np.random.default_rng(10_001)
    for name in ("flat:4", "sphere:1", "half-plane"):
        ch = chart(name)
        for x in _sample(rng, ch, 100):
            cp = riemann(ch, x)
            maxima, scale = _symmetry_defects(cp.riemann)
            assert (maxima / scale).max() < 1e-9
            if name == "sphere:1":
                fr = mgs2_frame(np.eye(2), cp.metric)
                assert abs(sectional(cp, fr[0], fr[1]) - 1.0) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[criterion 1] curvature engine: PASS ({elapsed:.1f}s)")


def test_c02_qsf_oracle_identity():
    rng = np.random.default_rng(10_002)
    ch = chart("flat:8")
    J = quat_units(2)
    for x in _sample(rng, ch, 50):
        cp = riemann(ch, x)
        oracle = QSFOracle(0.0, J, cp.metric)
        E = np.eye(8)
        expected = qsf_tensor_reference(oracle.c, oracle.J, oracle.g, E)
        assert np.abs(cp.riemann - expected).max() < 1e-10
    oracle4 = QSFOracle(4.0, J, np.eye(8))
    for _ in range(25):
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        for a in range(3):
            assert abs(sectional(oracle4, v, J[a] @ v) - 4.0) < 1e-10
    X = np.zeros(8); X[0] = 1.0
    Y = np.zeros(8); Y[4] = 1.0
    assert abs(sectional(oracle4, X, Y) - 1.0) < 1e-10
    print("\n[criterion 2] QSF oracle identity: PASS")


def test_c03_gauss_self_validation():
    for name in ("paraboloid-vertex", "flat-embedding:2in4"):
        scn = builtin_scenario(name)
        for x in scn.evaluation_points():
            split = differential(scn.smap, x)
            assert gauss_residual_map(split) < 1e-6, name

    proj = builtin_scenario("product-projection:8to4")
    for x in proj.evaluation_points():
        split = differential(proj.smap, x)
        res = gauss_residual_submersion(split, fiber_kappa=0.0)
        assert res.vertical < 1e-6 and res.horizontal < 1e-6 and res.mixed < 1e-6

    radial = builtin_scenario("radial:4")
    for x, r in zip(radial.evaluation_points(), (0.5, 1.0, 2.0)):
        split = differential(radial.smap, x)
        res = gauss_residual_submersion(split, fiber_kappa=1.0 / r**2)
        assert res.vertical < 1e-6 and res.horizontal < 1e-6 and res.mixed < 1e-6
    print("\n[criterion 3] Gauss self-validation: PASS")


def test_c04_tripathi_solver():
    start = time.monotonic()
    rng = np.random.default_rng(10_004)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        lam1 = n - 2 + rng.uniform(0.1, 6.0)
        k = rng.uniform(-4.0, 4.0)
        inst = TripathiInstance.from_lam1(n, k, lam1)
        t_star, f_star = tripathi_minimize(inst)
        t_num, f_num = tripathi_minimize_numeric(inst)
        assert abs(f_star - f_num) < 1e-8
        pts = rng.normal(size=(10_000, n))
        pts += (inst.k - pts.sum(axis=1))[:, None] / n
        assert tripathi_objective(inst, pts).min() >= f_star - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[criterion 4] Tripathi solver: PASS ({elapsed:.1f}s)")


def test_c05_hyperplane_extremization():
    rng = np.random.default_rng(10_005)
    worst = 0.0
    for s in (3, 4, 5):
        for _ in range(50):
            n_alpha = int(rng.integers(1, 4))
            raw = rng.uniform(-1.0, 1.0, size=(n_alpha, s, s))
            inp = CasoratiInput(0.5 * (raw + raw.transpose(0, 2, 1)))
            ex = hyperplane_extrema(inp)
            dense_inf, dense_sup = dense_extrema(inp.coeffs)
            gap = max(abs(dense_inf - ex.inf_CL), abs(dense_sup - ex.sup_CL))
            rel = gap / max(1.0, abs(ex.inf_CL), abs(ex.sup_CL))
            worst = max(worst, rel)
            assert rel <= 1e-4
    ex = hyperplane_extrema(CasoratiInput(np.diag([1.0, 1.0, 2.0])))
    assert abs(ex.inf_CL - 1.0) < 1e-9
    assert abs(ex.sup_CL - 2.5) < 1e-9
    print(f"\n[criterion 5] hyperplane extremization: PASS (worst relative gap {worst:.2e})")


def test_c06_algebraic_kernel():
    rng = np.random.default_rng(10_006)
    min_delta = min_hat = np.inf
    for _ in range(1000):
        s = int(rng.integers(4, 7))
        n_alpha = int(rng.integers(1, 4))
        raw = rng.uniform(-1.0, 1.0, size=(n_alpha, s, s))
        lhs, rd, rdh = algebraic_gap(CasoratiInput(0.5 * (raw + raw.transpose(0, 2, 1))))
        min_delta = min(min_delta, rd - lhs)
        min_hat = min(min_hat, rdh - lhs)
    assert min_delta >= -1e-9
    assert min_hat >= -1e-9
    lhs, rd, _ = algebraic_gap(CasoratiInput(np.diag([1.0, 1.0, 1.0, 2.0])))
    assert abs(rd - lhs) < 1e-10
    assert lhs == pytest.approx(1.5, abs=1e-12)
    assert rd == pytest.approx(1.5, abs=1e-10)
    print(
        f"\n[criterion 6] algebraic kernel: PASS "
        f"(min delta slack {min_delta:.2e}, min hat slack {min_hat:.2e})"
    )


def _random_map_data(rng, s, c):
    rows = orthonormal_rows(rng, 8)
    J = quat_units(2)
    g = np.eye(8)
    raw = rng.uniform(-1.0, 1.0, size=(8 - s, s, s))
    B = 0.5 * (raw + raw.transpose(0, 2, 1))
    return scene_data("map", rows, s, {"B": B}, g, J, c)


def _random_submersion_data(rng, s, ell, c, deltaN=None):
    dim = 12
    rows = orthonormal_rows(rng, dim)
    J = quat_units(3)
    g = np.eye(dim)
    raw_t = rng.uniform(-1.0, 1.0, size=(s, ell, ell))
    raw_a = rng.uniform(-1.0, 1.0, size=(ell, s, s))
    return scene_data(
        "submersion", rows[: s + ell], s,
        {
            "T": 0.5 * (raw_t + raw_t.transpose(0, 2, 1)),
            "A": 0.5 * (raw_a - raw_a.transpose(0, 2, 1)),
        },
        g, J, c, deltaN=deltaN,
    )


def test_c07_theorem_sweeps():
    cs = (-4.0, 0.0, 4.0)
    dims = (3, 4, 5)

    rng = np.random.default_rng(10_071)
    min_slack = np.inf
    for i in range(200):
        c = cs[i % 3]
        s = dims[int(rng.integers(3))]
        for r in check_map_theorem(_random_map_data(rng, s, c)):
            if r.theorem_id == "map_3_2":
                min_slack = min(min_slack, r.slack)
    assert min_slack >= -1e-8

    rng = np.random.default_rng(10_072)
    min_v = np.inf
    for i in range(200):
        c = cs[i % 3]
        s, ell = dims[int(rng.integers(3))], dims[int(rng.integers(3))]
        for r in check_vertical_theorem(_random_submersion_data(rng, s, ell, c)):
            if r.theorem_id == "vertical_5_2":
                min_v = min(min_v, r.slack)
    assert min_v >= -1e-8

    rng = np.random.default_rng(10_073)
    min_h = np.inf
    for i in range(200):
        c = cs[i % 3]
        s, ell = dims[int(rng.integers(3))], dims[int(rng.integers(3))]
        for r in check_horizontal_theorem(_random_submersion_data(rng, s, ell, c)):
            if r.theorem_id == "horizontal_6_2":
                min_h = min(min_h, r.slack)
    assert min_h >= -1e-8

    rng = np.random.default_rng(10_074)
    worst_agree = 0.0
    for i in range(200):
        c = cs[i % 3]
        s, ell = dims[int(rng.integers(3))], dims[int(rng.integers(3))]
        data = _random_submersion_data(rng, s, ell, c, deltaN=0.0)
        for r in check_combined_theorem(data):
            worst_agree = max(worst_agree, r.extras["assembly_agreement"])
    assert worst_agree < 1e-9
    print(
        f"\n[criterion 7] theorem sweeps: PASS (min slacks {min_slack:.2e} / "
        f"{min_v:.2e} / {min_h:.2e}, worst assembly gap {worst_agree:.2e})"
    )


def test_c08_radial_regression():
    rep = evaluate_scenario(builtin_scenario("radial:4"))
    assert rep.aggregate["point_errors"] == 0
    for p, r_val in zip(rep.points, (0.5, 1.0, 2.0)):
        for r in p.reports:
            if r.theorem_id != "vertical_5_2" or r.variant != "delta":
                continue
            assert abs(r.slack - 1.0 / (6.0 * r_val**2)) < 1e-6
            assert r.equality_verdict == "strict"
            assert r.diagnostics.commutator_max < 1e-8
            assert r.diagnostics.eigen_pattern_residual > 0.1
    print("\n[criterion 8] radial-submersion regression: PASS")


def test_c09_equality_diagnostics():
    rep = evaluate_scenario(builtin_scenario("pw-equality-combined:s4l4"))
    by_key = {(r.theorem_id, r.variant): r for r in rep.points[0].reports}
    combined = by_key[("combined_7_2", "delta")]
    assert combined.equality_verdict == "equality"
    d = combined.diagnostics
    assert d.offdiag_max < 1e-10
    assert d.eigen_pattern_residual < 1e-10
    assert d.common_eigendirection_residual < 1e-10
    assert d.commutator_max < 1e-10
    assert d.A_norm < 1e-10

    for name in ("product-projection:8to4", "hopf-radial:4to3"):
        chart_rep = evaluate_scenario(builtin_scenario(name))
        for p in chart_rep.points:
            assert p.validation["bracket_verticality_residual"] < 1e-6
    print("\n[criterion 9] equality diagnostics: PASS")


def test_c10_determinism():
    for name in builtin_names():
        first = report_json(evaluate_scenario(builtin_scenario(name)))
        second = report_json(evaluate_scenario(builtin_scenario(name)))
        assert first == second, f"report for {name} is not byte-identical"
    print("\n[criterion 10] determinism: PASS")
