"""Passive programs and exact zeros: the shortcuts against the general path.

A metric program whose entries are all literals, and a map program whose
components are bare coordinates or literals, get their jets without being
run (``CompiledProgram.passive``, ``geometry._ProgramMetric.literal``);
a constant chart under such a map has a constant projector, and gets T,
A, the bracket, the O'Neill derivatives and the Gauss terms that read
them with no product.  A tensor whose stack of slices is all exact zeros,
as such a T and A are, is found once by ``checker_inputs``
(``inequalities._zero_stacks``), and each of its points gets its squared
norm, extrema, equality diagnostics and Casorati terms in closed form,
with no check, no eigendecomposition and no product.  A jet's derivative
that is known to vanish, a seed's Hessian and third derivative and every
derivative of a literal, is one shared marker (``jets._zero``), and no
jet operation forms a term it multiplies.  Each shortcut must give the
reports of the general path bit for bit, and keep its errors; a zero
point in a chunk of nonzero ones takes the general path, and must get
the bits it gets alone.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from casoratiq import geometry, inequalities, jets, maps, scenes
from casoratiq.cli import report_json
from casoratiq.errors import DegenerateMetricError
from casoratiq.expressions import CompiledProgram, compile_program
from casoratiq.geometry import ChartPoint, MetricChart
from casoratiq.jets import Jet2
from casoratiq.quaternionic import QuaternionicStructure

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _general_path(monkeypatch, constant=True):
    """Turn the passive-program detection and the jets' known zeros off, and with
    ``constant`` the exact zeros of constant charts and of all-zero tensor stacks too; a
    class-level property hides what an instance has cached.  Without known zeros every
    zero derivative is a fresh array, and every jet operation forms all its terms."""
    monkeypatch.setattr(jets, "_zero", lambda shape: np.zeros(shape))
    monkeypatch.setattr(CompiledProgram, "passive", property(lambda self: None))
    monkeypatch.setattr(geometry._ProgramMetric, "literal", property(lambda self: None))
    if constant:
        monkeypatch.setattr(ChartPoint, "constant", property(lambda self: False))
        monkeypatch.setattr(inequalities, "_zero_stacks", lambda tensors: set())


def _shipped_reports() -> dict:
    """Every builtin and one round of each bench workload."""
    scns = {name: scenes.builtin_scenario(name) for name in scenes.builtin_names()}
    for workload in workloads.WORKLOADS:
        for i, doc in enumerate(next(workloads.rounds(workload, 11))):
            scns[f"{workload}:{i}"] = scenes.parse_scenario(doc)
    return {name: report_json(scenes.evaluate_scenario(scn)) for name, scn in scns.items()}


@pytest.mark.parametrize("constant", [False, True])
def test_shortcuts_give_the_reports_of_the_general_path(monkeypatch, constant):
    fast = _shipped_reports()
    _general_path(monkeypatch, constant)
    general = _shipped_reports()
    assert [name for name in fast if fast[name] != general[name]] == []


def test_passive_facts_are_worked_out_once_per_program():
    texts = ["x1", "x2", "0", "1.5"]
    index, values = compile_program(texts).passive
    assert index.tolist() == [0, 1, -1, -1] and values.tolist() == [0.0, 0.0, 0.0, 1.5]
    assert compile_program(texts).passive is compile_program(list(texts)).passive
    for active in (["x1*x1"], ["-1"], ["norm(x)"], ["x1", "sin(x2)"]):
        assert compile_program(active).passive is None
    # scene-file charts are new objects in every scene; their metric program is not
    doc = scenes.builtin_scenario("radial:4").raw
    first, second = scenes.parse_scenario(doc).smap, scenes.parse_scenario(doc).smap
    assert first.source is not second.source and first.source.g is second.source.g
    assert first.source.g.literal is second.source.g.literal is not None


@pytest.mark.parametrize("shortcut", [True, False])
def test_a_map_of_literals_runs_no_program_and_fails_its_rank(monkeypatch, shortcut):
    """A map whose components are all literals has dF = 0: it takes the coordinate-map
    shortcut, runs no program, and fails the rank check with the message of the
    general path."""
    doc = {
        "version": 1,
        "name": "literals",
        "mode": "chart",
        "map": {"source": "flat:3", "target": "flat:3", "exprs": ["1", "2", "0.5"],
                "map_mode": "riemannian_map", "rank": 2},
        "c": 0.0,
        "points": [[0.1, 0.2, 0.3]],
        "theorems": [],
    }
    runs = []

    def program_call(prog, coords, _original=CompiledProgram.__call__):
        runs.append(len(coords))
        return _original(prog, coords)

    if not shortcut:
        _general_path(monkeypatch, constant=False)
    monkeypatch.setattr(CompiledProgram, "__call__", program_call)
    rep = scenes.evaluate_scenario(scenes.parse_scenario(doc))
    assert [p.errors for p in rep.points] == [[
        "differential rank 0 does not match declared rank 2 at [0.1, 0.2, 0.3] "
        "(singular values [0.0, 0.0, 0.0])"
    ]]
    assert (runs == []) == shortcut


def test_product_projection_does_no_passive_work(monkeypatch):
    """product-projection:8to4 seeds no jets, runs no metric or map program, makes no
    frame jet of its projector, forms no product of its zero T, A and their covariant
    derivatives, and neither checks nor extremizes its zero stacks: no coefficient
    check, no extrema or equality-diagnostic call, no product and no eigendecomposition.
    Its literal metrics were checked when their programs were first used, here by a
    first run."""
    scn = scenes.builtin_scenario("product-projection:8to4")
    scenes.evaluate_scenario(scn)
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def program_call(prog, coords, _original=CompiledProgram.__call__):
        # the fiber curvature runs on plain coordinates; a chart or map program on jets
        if any(isinstance(c, Jet2) for c in coords):
            calls["program"] = calls.get("program", 0) + 1
        return _original(prog, coords)

    for module in (geometry, maps):
        count(module, "seed_point")
    count(maps, "frame_solve")
    count(maps, "_pairs")
    count(maps, "_apply")
    count(sys.modules["casoratiq.casorati"], "_checked_norms")
    count(inequalities, "_extrema_rows")
    count(inequalities, "_diagnostics_rows")
    count(inequalities, "_rotation_to_last")
    count(np.linalg, "eigvalsh")
    count(np.linalg, "eigh")
    monkeypatch.setattr(CompiledProgram, "__call__", program_call)
    rep = scenes.evaluate_scenario(scn)
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == 4
    assert rep.aggregate["equality_tally"] == {"equality": 48}
    assert calls == {}


def test_a_chunk_with_some_zero_stacks_gives_each_point_its_bits_alone():
    """T is zero at points 1 and 3 of a chunk of four, A at points 0 and 3: in the chunk
    both stacks take the general path, and a zero point alone takes the closed form.
    Every point's reports, diagnostics and Casorati terms are the same bits either way."""
    rng = np.random.default_rng(36)
    P, s, ell = 4, 4, 4
    n = s + ell
    T = rng.uniform(-1.0, 1.0, size=(P, s, ell, ell))
    T += T.swapaxes(-1, -2)
    A = rng.uniform(-1.0, 1.0, size=(P, ell, s, s))
    A -= A.swapaxes(-1, -2)
    T[[1, 3]] = 0.0
    A[[0, 3]] = 0.0
    E = np.stack([np.linalg.qr(rng.normal(size=(n, n)))[0].T for _ in range(P)])
    g = np.broadcast_to(np.eye(n), (P, n, n))
    bracket = np.array([0.0, 2e-9, 0.0, 1e-9])
    J = QuaternionicStructure.quat_flat(n // 4).J_const
    families = ("vertical", "horizontal", "combined")
    checkers = (inequalities.check_vertical_theorem, inequalities.check_horizontal_theorem,
                inequalities.check_combined_theorem)

    def inputs(points):
        return inequalities.checker_inputs(
            "submersion", E[points], s, {"T": T[points], "A": A[points]}, g[points], J, -4.0,
            families, deltaN=0.0, bracket_residual=bracket[points],
        )

    def text(data):
        reports = [r.as_dict() for check in checkers for r in check(data)]
        terms = {key: t._asdict() for key, t in data.terms.items()}
        return json.dumps([reports, terms], sort_keys=True, default=repr)

    chunk = inputs(slice(None))
    assert not inequalities._zero_stacks({"T": T, "A": A})  # the chunk takes the general path
    for p, data in enumerate(chunk):
        (alone,) = inputs(slice(p, p + 1))
        assert text(data) == text(alone), p
    (both_zero,) = inputs(slice(3, 4))
    assert both_zero.terms["T"].block["optimizer_audit"]["path"] == "exact"
    assert both_zero.terms["A"].integrable and both_zero.diagnostics["T"].A_norm == 0.0


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["1", "0.5"], ["0", "1"]], "metric not symmetric at [0.3, -0.2] (chart 'literal')"),
        ([["1", "2"], ["2", "1"]],
         "metric not positive definite at [0.3, -0.2]: min eigenvalue -1.000e+00"),
    ],
)
def test_a_failing_literal_metric_keeps_its_message(monkeypatch, rows, message):
    """A literal metric that is not symmetric runs the program, as any other metric;
    one that is symmetric is literal, and its chart point's factor fails at the first
    point of the chunk, with the message of the general path."""
    chart = MetricChart.from_exprs(2, ((-1.0, 1.0),) * 2, rows, "literal")
    X = np.array([[0.3, -0.2], [0.1, 0.1], [-0.5, 0.4]])
    assert (chart.g.literal is None) == ("not symmetric" in message)
    for general in (False, True):
        if general:
            _general_path(monkeypatch)
        with pytest.raises(DegenerateMetricError) as err:
            ChartPoint.at(chart, X)
        assert str(err.value) == message


def _coordinate_doc(exprs, point):
    return {
        "version": 1, "name": "coordinates", "mode": "chart", "c": 0.0, "theorems": [],
        "map": {"source": "flat:2", "target": {"dim": 3, "box": [[-0.5, 0.5]] * 3,
                                               "metric": [["1", "0", "0"], ["0", "1", "0"],
                                                          ["0", "0", "1"]], "name": "small"},
                "exprs": exprs, "map_mode": "riemannian_map", "rank": 2},
        "points": [point],
    }


@pytest.mark.parametrize(
    "exprs, point, error",
    [
        (["x2", "x1", "0.25"], [0.7, 0.1], "point [0.1, 0.7, 0.25] outside domain of chart 'small'"),
        (["x1", "x2", "0.75"], [0.1, 0.2], "point [0.1, 0.2, 0.75] outside domain of chart 'small'"),
        (["x1", "x3", "0"], [0.1, 0.2], "expression 'x3' has a variable beyond dimension 2"),
    ],
)
def test_a_coordinate_map_keeps_its_errors(monkeypatch, exprs, point, error):
    doc = _coordinate_doc(exprs, point)
    for general in (False, True):
        if general:
            _general_path(monkeypatch)
        (pt,) = scenes.evaluate_scenario(scenes.parse_scenario(doc)).points
        assert pt.errors == [error]


def test_coordinate_map_jets_are_those_of_the_program(monkeypatch):
    doc = _coordinate_doc(["x2", "0.25", "x1"], [0.1, -0.3])
    smap = scenes.parse_scenario(doc).smap
    X = np.array([[0.1, -0.3], [0.2, 0.4]])
    submersion = dataclasses.replace(smap, mode=maps.RIEMANNIAN_SUBMERSION, rank=3)
    for order, smap in ((2, smap), (3, submersion)):
        fast = smap.jets(X)
        with monkeypatch.context() as m:
            _general_path(m)
            general = smap.jets(X)
        assert len(fast) == len(general) == 4
        for a, b in zip(fast, general):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (fast[3] is None) == (order == 2)
