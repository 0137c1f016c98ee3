"""Chart scenes run their points as batches; every point gets the result it gets alone.

A chunk of a scene's points computes its jets, metrics, Christoffel
symbols, curvature, O'Neill fields and fiber curvature at once, then the
split, B or T and A, the frame curvature tensors and the Gauss and
bracket residuals, then the checker inputs (structure check, space-form
residual, J blocks, curvature sums, hyperplane extrema and equality
diagnostics), and each point reads its column.  A single point is a chunk
of one, and a chunk where any of that raises runs each of its points as a
chunk of one.  These tests hold the batch to the single point: reports
are byte-identical, a failing point keeps its own message, and a check
that fails at one point leaves the others alone.
"""

import copy
import dataclasses
import itertools
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from casoratiq import geometry, inequalities, jets, maps, scenes
from casoratiq.casorati import CasoratiInput, hyperplane_extrema
from casoratiq.errors import (
    DegenerateMetricError,
    DimensionError,
    DomainError,
    NotRiemannianMapError,
    OracleError,
    RankError,
    SceneValidationError,
)
from casoratiq.expressions import CompiledProgram
from casoratiq.geometry import MAX_DIM, ChartPoint, MetricChart, _symmetry_defects, batch_size
from casoratiq.inequalities import _diagnostic_arrays, equality_diagnostics
from casoratiq.maps import MapPoint
from casoratiq.quaternionic import (
    QSFOracle,
    decompose_J,
    hermitian_residual,
    quat_units,
    space_form_pairs,
)
from casoratiq.scenes import builtin_scenario, evaluate_scenario, load_scenario, parse_scenario

from conftest import (
    dgamma_reference,
    gamma_reference,
    ginv_jet_reference,
    mgs2_frame,
    orthonormal_rows,
    random_submersion,
    riemann_reference,
)

# the package exports the function casorati under the module's name
casorati = sys.modules["casoratiq.casorati"]
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SYMMETRIES = ("antisym_12", "antisym_34", "pair_sym", "bianchi")


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _point_json(point) -> str:
    """A point's report without its index, as text: equal text means equal bits."""
    doc = point.as_dict()
    del doc["index"]
    return json.dumps(doc, sort_keys=True)


def _alone(scn, x):
    return dataclasses.replace(scn, points=(tuple(x),), sample_spec=None)


def _with_points(name, points) -> dict:
    doc = copy.deepcopy(builtin_scenario(name).raw)
    doc["points"] = points
    return doc


def _sampled_hopf(count=12):
    sample = {"sample": {"count": count, "seed": 16, "box": [[0.2, 1.2]] * 4}}
    doc = _with_points("hopf-radial:4to3", sample)
    return parse_scenario(doc, name_hint="hopf-sampled")


def _sampled(name, count, seed, box=None):
    sample = {"count": count, "seed": seed, **({"box": box} if box else {})}
    return parse_scenario(_with_points(name, {"sample": sample}), name_hint=f"{name}-sampled")


def _sampled_s4():
    """s4-radial, a submersion with a fiber curvature, at 12 sampled points."""
    doc = json.loads((SCENARIOS / "s4-radial.json").read_text())
    doc["points"] = {"sample": {"count": 12, "seed": 17, "box": [[0.1, 1.5]] * 4}}
    return parse_scenario(doc)


def _graph_immersion():
    """The graph of (x1 x2, x3 x4) in flat:8 with its pulled-back metric I + sum grad f grad f^T.

    B has two nonzero slices, so every point takes the multi-start.
    """
    return parse_scenario({
        "version": 1,
        "name": "graph-immersion:4in8",
        "mode": "chart",
        "map": {
            "source": {
                "dim": 4,
                "box": [[-2.0, 2.0]] * 4,
                "metric": [["1+x2^2", "x1*x2", "0", "0"], ["x1*x2", "1+x1^2", "0", "0"],
                           ["0", "0", "1+x4^2", "x3*x4"], ["0", "0", "x3*x4", "1+x3^2"]],
                "name": "graph-pullback",
            },
            "target": "flat:8",
            "exprs": ["x1", "x2", "x3", "x4", "x1*x2", "x3*x4", "0", "0"],
            "map_mode": "riemannian_map",
            "rank": 4,
        },
        "structure": {"on": "target", "name": "quat-flat:2"},
        "c": 0.0,
        "points": [[0.3, -0.2, 0.5, 0.1], [-0.4, 0.6, 0.2, -0.3], [0.7, 0.1, -0.5, 0.4]],
        "theorems": ["map_3_2", "lemma_map_3_1"],
    })


# -- jets ----------------------------------------------------------------------


def _field(c):
    return (
        jets.sqrt(1.0 + c[0] * c[0]) * jets.exp(c[1]) / c[2] ** 2.5
        + jets.log(c[0]) ** 3
        - jets.sin(c[1] * c[2]) ** -1.5
        + jets.cos(c[0] - c[2]) * jets.jet_norm(c)
    )


def test_batch_jets_match_each_point_alone():
    X = np.random.default_rng(4).uniform(0.2, 1.5, size=(7, 3))
    batch = _field(jets.seed_point(X))
    for p, x in enumerate(X):
        alone = _field(jets.seed_point(x))
        for part in ("value", "grad", "hess", "d3"):
            assert _bits(getattr(batch, part)[p]) == _bits(getattr(alone, part)), part


def test_powers_use_python_float_pow():
    v = np.random.default_rng(5).uniform(0.1, 9.0, size=200)
    for p in (2.5, -1.5, 1.0 / 3.0):
        out = jets.seed_point(v[:, None])[0] ** p
        assert _bits(out.value) == _bits([t**p for t in v.tolist()])


def test_batch_keeps_math_error_messages():
    with pytest.raises(ValueError) as want:
        math.log(-0.5)
    with pytest.raises(ValueError) as got:
        jets.log(jets.seed_point(np.array([[0.5], [-0.5], [2.0]]))[0])
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match=re.escape("fractional power of negative base -0.5")):
        jets.seed_point(np.array([[0.5], [-0.5]]))[0] ** 0.5


# -- reports -------------------------------------------------------------------

MULTI_POINT = {
    "radial:4": lambda: builtin_scenario("radial:4"),
    "hopf-radial:4to3": lambda: builtin_scenario("hopf-radial:4to3"),
    "paraboloid-vertex": lambda: builtin_scenario("paraboloid-vertex"),
    "hopf-sampled": _sampled_hopf,
    "s4-radial": lambda: load_scenario(str(SCENARIOS / "s4-radial.json")),
    "s4-sampled": _sampled_s4,
    # T = A = 0 at n = 8, the largest multi-point split
    "product-sampled": lambda: _sampled("product-projection:8to4", 6, 18, [[-1.0, 1.0]] * 8),
    # the map path: B and the map Gauss residual
    "paraboloid-sampled": lambda: _sampled("paraboloid-vertex", 7, 19),
    # map theorems: B = 0 takes the exact extrema, batched
    "flat-embedding:4in8": lambda: builtin_scenario("flat-embedding:4in8"),
    # map theorems: B takes the multi-start at every point
    "graph-immersion": _graph_immersion,
}


def test_graph_immersion_takes_the_multistart():
    rep = evaluate_scenario(_graph_immersion())
    for p in rep.points:
        assert p.gauss_residuals["map"] <= 1e-15
        paths = {r.extras["optimizer_audit"]["path"] for r in p.reports}
        assert paths == {"multistart"}


@pytest.mark.parametrize("name", sorted(MULTI_POINT))
def test_batched_point_matches_the_point_alone(name):
    scn = MULTI_POINT[name]()
    rep = evaluate_scenario(scn)
    assert len(rep.points) > 1 and rep.aggregate["point_errors"] == 0
    for p in rep.points:
        (alone,) = evaluate_scenario(_alone(scn, p.point)).points
        assert _point_json(alone) == _point_json(p)


def _log_graph(points) -> dict:
    """The graph of log(x1 - 1) over the plane, with its pulled-back metric."""
    return {
        "version": 1,
        "name": "log-graph",
        "mode": "chart",
        "map": {
            "source": {"dim": 2, "box": [[0.5, 3.0], [-2.0, 2.0]],
                       "metric": [["1+1/(x1-1)^2", "0"], ["0", "1"]], "name": "log-graph"},
            "target": "flat:3",
            "exprs": ["x1", "x2", "log(x1-1)"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": points,
        "theorems": [],
    }


def _cubic_graph(points) -> dict:
    """(x1^3 / 3, x2, 0) with its pulled-back metric diag(x1^4, 1), degenerate at x1 = 0."""
    return {
        "version": 1,
        "name": "cubic-graph",
        "mode": "chart",
        "map": {
            "source": {"dim": 2, "box": [[-1.0, 2.0], [-1.0, 1.0]],
                       "metric": [["x1^4", "0"], ["0", "1"]], "name": "cubic-pullback"},
            "target": "flat:3",
            "exprs": ["x1^3/3", "x2", "0"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": points,
        "theorems": [],
    }


def _math_message(f, v) -> str:
    try:
        f(v)
    except ValueError as e:
        return str(e)
    raise AssertionError("no error")


def _bent_paraboloid(points) -> dict:
    """paraboloid-vertex with (x1 - x2)^4 added to g_11: isometric only on the diagonal,
    where the metric keeps its pulled-back jets to second order."""
    doc = _with_points("paraboloid-vertex", points)
    doc["map"]["source"]["metric"][0][0] = "1+x1^2+(x1-x2)^4"
    return doc


def _off_fiber_curvature(points) -> dict:
    """radial:4 with a fiber curvature that is off by (x1 - 0.3)(x1 - 1) but for x1 = 0.3 or 1."""
    doc = _with_points("radial:4", points)
    doc["fiber_curvature"] = {"space_form_kappa": "1/(norm(x)^2)+(x1-0.3)*(x1-1.0)"}
    return doc


def _curved_normal_bundle(points) -> dict:
    """flat-embedding:4in8 into a target whose last four coordinates are scaled by
    1 + (y1 - 0.3)^3 (y1 - 1)^3: the map stays isometric and totally geodesic, the
    structure stays hermitian, and the target is flat to second order, as the
    space form c = 0 needs, only where y1 is 0.3 or 1."""
    doc = _with_points("flat-embedding:4in8", points)
    metric = scenes._identity_metric_exprs(8)
    for i in range(4, 8):
        metric[i][i] = "1+(x1-0.3)^3*(x1-1.0)^3"
    doc["map"]["target"] = {"dim": 8, "box": [[-5.0, 5.0]] * 8, "metric": metric,
                            "name": "curved-normal"}
    return doc


# builder, [good, bad, good] points, the bad point's error type and message
ONE_BAD_POINT = {
    "source box": (
        lambda pts: _with_points("radial:4", pts),
        [[0.3, 0.4, 0.5, 0.6], [3.5, 0.5, 0.5, 0.5], [1.0, 0.7, 0.2, 0.4]],
        DomainError,
        "point [3.5, 0.5, 0.5, 0.5] outside domain of chart 'flat-positive:4'",
    ),
    "target box": (
        lambda pts: _with_points("hopf-radial:4to3", pts),
        [[0.5, 0.3, 0.4, 0.2], [1.45, 1.45, 0.2, 0.2], [0.9, 0.2, 0.6, 0.3]],
        DomainError,
        "point [4.125, 1.16, 0.0] outside domain of chart 'hopf-base'",
    ),
    "expression domain": (
        _log_graph,
        [[1.5, 0.3], [0.8, 0.1], [2.2, -0.7]],
        DomainError,
        "expression 'log(x1-1)' is undefined at this point: "
        + _math_message(math.log, 0.8 - 1.0),
    ),
    "metric not positive definite": (
        _cubic_graph,
        [[0.5, 0.3], [0.0, 0.3], [1.2, -0.4]],
        DegenerateMetricError,
        "metric not positive definite at [0.0, 0.3]: min eigenvalue 0.000e+00",
    ),
    "not isometric": (
        _bent_paraboloid,
        [[0.3, 0.3], [0.5, -0.2], [0.7, 0.7]],
        NotRiemannianMapError,
        "differential is not isometric on the horizontal space at [0.5, -0.2] "
        "(residual 1.622e-01)",
    ),
    "Gauss residual": (
        _off_fiber_curvature,
        [[0.3, 0.4, 0.5, 0.6], [0.8, 0.5, 0.5, 0.5], [1.0, 0.7, 0.2, 0.4]],
        SceneValidationError,
        "Gauss residual 1.000e-01 exceeds the scene tolerance 1.0e-06",
    ),
    "space-form residual": (
        _curved_normal_bundle,
        [[0.3, 0.2, -0.3, 0.4], [0.8, 0.1, 0.2, -0.1], [1.0, -0.2, 0.1, 0.3]],
        OracleError,
        "target curvature deviates from the c=0.0 space form by 2.983e-03",
    ),
}
# failures a point finds on its own row: its chunk does not run again point by point
CHECKED_ON_THE_ROW = {"Gauss residual", "space-form residual"}


@pytest.mark.parametrize("kind", sorted(ONE_BAD_POINT))
def test_one_bad_point_among_good_ones(kind):
    build, points, error, message = ONE_BAD_POINT[kind]
    rep = evaluate_scenario(parse_scenario(build(points)))
    good = evaluate_scenario(parse_scenario(build(points[:1] + points[2:])))
    assert [p.errors for p in rep.points] == [[], [message], []]
    assert [p.errors for p in good.points] == [[], []]
    for p, q in zip(rep.points[::2], good.points):
        assert _point_json(p) == _point_json(q)
    with pytest.raises(error) as info:
        evaluate_scenario(parse_scenario(build(points)), strict=True)
    assert str(info.value) == message


def _map_point_shapes(monkeypatch) -> list:
    """The shapes ``MapPoint.at`` is called with from now on."""
    shapes = []
    at = MapPoint.at.__func__

    def counted(cls, smap, x):
        shapes.append(np.shape(x))
        return at(cls, smap, x)

    monkeypatch.setattr(MapPoint, "at", classmethod(counted))
    return shapes


@pytest.mark.parametrize("kind", sorted(ONE_BAD_POINT))
def test_only_a_failing_batch_step_runs_the_chunk_alone(kind, monkeypatch):
    build, points, _, _ = ONE_BAD_POINT[kind]
    scn = parse_scenario(build(points))
    shapes = _map_point_shapes(monkeypatch)
    evaluate_scenario(scn)
    n = len(points[0])
    alone = [] if kind in CHECKED_ON_THE_ROW else [(1, n)] * 3
    assert shapes == [(3, n)] + alone


def test_the_batched_split_names_its_failing_point():
    build, points, error, message = ONE_BAD_POINT["not isometric"]
    smap = parse_scenario(build(points)).smap
    with pytest.raises(error) as info:
        maps.differential(smap, np.array(points))
    assert str(info.value) == message
    # the residual is the spectral norm of Gram - I: at rank 2 = n1, the largest
    # |lambda - 1| over the eigenvalues of g1^-1 dF^T g2 dF at the failing point
    bad = MapPoint.at(smap, np.array(points[1]))
    pullback = bad.dF.T @ bad.target.G0 @ bad.dF
    lam = np.linalg.eigvals(np.linalg.solve(bad.source.G0, pullback)).real
    assert message.endswith(f"(residual {np.abs(lam - 1.0).max():.3e})")
    # the two good points as one chunk and each as a chunk of one
    for chunk in (points[::2], points[:1], points[2:]):
        split = maps.differential(smap, np.array(chunk))
        gauss = maps.gauss_residual_map(split)
        for i, x in enumerate(chunk):
            alone = maps.differential(smap, np.array(x))
            for frame in ("vertical", "horizontal", "range", "range_perp"):
                assert _bits(getattr(split, frame)[i]) == _bits(getattr(alone, frame))
            for part in ("isometry_residual", "kernel_residual", "target_curvature"):
                assert _bits(getattr(split, part)[i]) == _bits(getattr(alone, part))
            assert _bits(gauss[i]) == _bits(maps.gauss_residual_map(alone))


def test_paraboloid_vertex_runs_as_one_chunk(monkeypatch):
    """At the paraboloid vertex the range holds the coordinate vector e1, which the
    other points' ranges do not; the normal rows come from dF's own SVD, not from
    coordinate candidates, so all the points share one split."""
    scn = builtin_scenario("paraboloid-vertex")
    shapes = _map_point_shapes(monkeypatch)
    assert evaluate_scenario(scn).aggregate["point_errors"] == 0
    assert shapes == [(3, 2)]


@pytest.mark.parametrize("n", [8, 16])
def test_the_split_orthonormalizes_each_side_once_per_chunk(n, monkeypatch):
    """Both frames come from one Cholesky factor per side and one SVD, whatever the
    dimension: no frame is built one vector at a time."""
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    counted("cholesky")
    counted("svd")
    smap = maps.SmoothMap(geometry.chart(f"flat:{n}"), geometry.chart("flat:4"),
                          lambda c: list(c[:4]), "riemannian_submersion", 4)
    points = np.random.default_rng(n).uniform(-1.0, 1.0, size=(3, n))
    split = maps.differential(smap, points)
    assert calls == [("cholesky", (3, n, n)), ("cholesky", (3, 4, 4)), ("svd", (3, 4, n))]
    assert split.vertical.shape[-2] == n - 4 and split.range_perp.shape[-2] == 0

    # a map's frames take the same three calls, range_perp included
    calls.clear()
    smap = maps.SmoothMap(geometry.chart("flat:4"), geometry.chart(f"flat:{n}"),
                          lambda c: list(c) + [0.0] * (n - 4), "riemannian_map", 4)
    split = maps.differential(smap, points[:, :4])
    assert calls == [("cholesky", (3, 4, 4)), ("cholesky", (3, n, n)), ("svd", (3, n, 4))]
    assert split.range.shape[-2] == 4 and split.range_perp.shape[-2] == n - 4


# -- chunks --------------------------------------------------------------------


@pytest.mark.parametrize("n, size", [(4, 32768), (12, 134), (32, 1)])
def test_chunk_size_rule(n, size):
    assert batch_size(n) == size
    assert size * n**5 <= MAX_DIM**5 < (size + 1) * n**5


def _chunk_shapes(monkeypatch, scn) -> list:
    """The shapes ``MapPoint.at`` is called with when ``scn`` runs in chunks of 5;
    the reports must be those of the scene run whole."""
    want = [_point_json(p) for p in evaluate_scenario(scn).points]
    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    shapes = _map_point_shapes(monkeypatch)
    assert [_point_json(p) for p in evaluate_scenario(scn).points] == want
    return shapes


def test_scene_runs_in_chunks(monkeypatch):
    assert _chunk_shapes(monkeypatch, _sampled_hopf()) == [(5, 4), (5, 4), (2, 4)]


def test_a_trailing_point_is_a_chunk_of_one(monkeypatch):
    assert _chunk_shapes(monkeypatch, _sampled_hopf(11)) == [(5, 4), (5, 4), (1, 4)]


def test_a_failing_chunk_runs_its_points_alone(monkeypatch):
    scn = _sampled_hopf()
    want = [_point_json(p) for p in evaluate_scenario(scn).points]
    metric_jets = MetricChart.metric_jets
    lone = []

    def corrupted(chart, x):
        G0, G1, G2 = metric_jets(chart, x)
        if np.shape(x) in ((1, 4), (1, 3)):  # a chunk of one, at the source or the target
            lone.append(chart.name)
        elif chart is scn.smap.source:
            G2 = G2.copy()
            G2[3, 0, 0, 1, 2] += 0.5  # d1 d2 g_00 != d2 d1 g_00 at one point of the chunk
        return G0, G1, G2

    monkeypatch.setattr(MetricChart, "metric_jets", corrupted)
    with pytest.raises(DegenerateMetricError, match="curvature symmetries violated"):
        MapPoint.at(scn.smap, scn.evaluation_points()).source.curvature
    assert [_point_json(p) for p in evaluate_scenario(scn).points] == want
    assert sorted(set(lone)) == ["flat-positive:4", "hopf-base"] and len(lone) == 2 * 12


def _shipped(name):
    """A builtin scene, or a scene file of ``scenarios/`` by its file name."""
    return load_scenario(str(SCENARIOS / name) if name.endswith(".json") else name)


CHART_SCENES = [
    name
    for name in scenes.builtin_names() + sorted(p.name for p in SCENARIOS.glob("*.json"))
    if _shipped(name).mode == "chart"
]


def _count_chunks(monkeypatch) -> list:
    """The shapes ``scenes._chunk_rows`` is called with from now on."""
    shapes = []

    def counted(scn, chunk, _original=scenes._chunk_rows):
        shapes.append(np.shape(chunk))
        return _original(scn, chunk)

    monkeypatch.setattr(scenes, "_chunk_rows", counted)
    return shapes


@pytest.mark.parametrize("name", CHART_SCENES)
def test_a_single_point_is_a_chunk_of_one(name, monkeypatch):
    scn = _shipped(name)
    x = scn.evaluation_points()[0]
    shapes = _count_chunks(monkeypatch)
    rep = evaluate_scenario(_alone(scn, x))
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == 1
    assert shapes == [(1, len(x))]


def test_a_failing_single_point_computes_its_stage_once(monkeypatch):
    # dF = (x1, 0) has rank 0 where x1 = 0
    doc = {
        "version": 1,
        "name": "fold",
        "mode": "chart",
        "map": {"source": "flat:2", "target": "flat:1", "exprs": ["x1^2/2"],
                "map_mode": "riemannian_submersion", "rank": 1},
        "c": 0.0,
        "points": [[0.0, 0.3]],
        "theorems": [],
    }
    message = (
        "differential rank 0 does not match declared rank 1 at [0.0, 0.3] "
        "(singular values [0.0, 0.0])"
    )
    splits, shapes = [], _count_chunks(monkeypatch)

    def differential(smap, x, _original=maps.differential):
        splits.append(np.shape(x.x))
        return _original(smap, x)

    monkeypatch.setattr(maps, "differential", differential)
    rep = evaluate_scenario(parse_scenario(doc))
    assert [p.errors for p in rep.points] == [[message]]
    assert shapes == [(1, 2)] and splits == [(1, 2)]
    with pytest.raises(RankError) as info:
        evaluate_scenario(parse_scenario(doc), strict=True)
    assert str(info.value) == message
    assert splits == [(1, 2)] * 2


def test_metric_jets_see_only_chunks(monkeypatch):
    """No chart point of any shipped scene, or of a scene with a failing point,
    is evaluated without a point axis."""
    ndims = []
    metric_jets = MetricChart.metric_jets

    def counted(chart, x):
        ndims.append(np.ndim(x))
        return metric_jets(chart, x)

    monkeypatch.setattr(MetricChart, "metric_jets", counted)
    for name in CHART_SCENES:
        assert evaluate_scenario(_shipped(name)).points
    for build, points, _, _ in ONE_BAD_POINT.values():
        assert evaluate_scenario(parse_scenario(build(points))).aggregate["point_errors"] == 1
    assert ndims and set(ndims) == {2}


def test_fiber_curvature_once_per_chunk(monkeypatch):
    scn = _sampled_s4()
    calls = []

    def counted(coords, _original=scn.fiber_kappa):
        calls.append(np.shape(coords[0]))
        return _original(coords)

    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    rep = evaluate_scenario(dataclasses.replace(scn, fiber_kappa=counted))
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == 12
    assert all(p.gauss_residuals["vertical_independent"] for p in rep.points)
    assert calls == [(5,), (5,), (2,)]


@pytest.mark.parametrize("count, chunks", [(1, 1), (11, 3), (12, 3)])
def test_box_checks_per_chunk(count, chunks, monkeypatch):
    calls = []
    require_inside = MetricChart.require_inside

    def counted(chart, x):
        calls.append(chart.name)
        return require_inside(chart, x)

    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    monkeypatch.setattr(MetricChart, "require_inside", counted)
    rep = evaluate_scenario(_sampled_hopf(count))
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == count
    assert calls == ["flat-positive:4", "hopf-base"] * chunks


@pytest.mark.parametrize(
    "count, chunks", [(1, [(1,)]), (11, [(5,), (5,), (1,)]), (12, [(5,), (5,), (2,)])]
)
def test_split_and_frame_tensors_once_per_chunk(count, chunks, monkeypatch):
    svds, contracted = [], []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        svds.append(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    def counted_contraction(R, *frames, _original=maps.frame_contraction):
        if all(E is frames[0] for E in frames):  # a curvature frame tensor
            contracted.append((R.shape[-1], R.shape[:-4]))
        return _original(R, *frames)

    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(maps, "frame_contraction", counted_contraction)
    rep = evaluate_scenario(_sampled_hopf(count))
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == count
    assert svds == chunks
    # one frame tensor per chunk on the curved target (hopf-base, n = 3), none on the
    # constant source (flat-positive:4), whose frame tensor is zero without a product
    assert [lead for dim, lead in contracted if dim == 3] == chunks
    assert [lead for dim, lead in contracted if dim == 4] == []


def _count_leads(monkeypatch) -> dict:
    """The point axes each checker-input computation is called with from now on.

    The extrema and the diagnostics take stacks of points; they are
    recorded by the stack size.  Calls of the one-point forms, which no
    pipeline path makes, are recorded too.
    """
    calls = {}

    def count(module, name, lead):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(lead(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scenes, "hermitian_residual", lambda J, g: g.shape[:-2])
    count(inequalities, "space_form_residual_from_tensor", lambda R, oracle, E: R.shape[:-4])
    count(inequalities, "decompose_J", lambda J, g, E, s: g.shape[:-2])
    count(inequalities, "curvature_sums", lambda K, s: K.shape[:-2])
    for module in (casorati, inequalities):  # the one-point form and the batched path
        count(module, "_extrema_rows", lambda h, kind, total_sq: len(h))
    count(inequalities, "_diagnostics_rows", lambda h, *rest: len(h))
    count(casorati, "_checked_norms", lambda c, kind: (kind, len(c)))
    count(casorati, "hyperplane_extrema", lambda inp: ())
    count(inequalities, "equality_diagnostics", lambda inp, *rest: ())
    # program runs by their number of expressions and of points
    count(CompiledProgram, "__call__", lambda prog, x: (len(prog.sources), len(x[0].value)))
    return calls


@pytest.mark.parametrize(
    "count, chunks", [(1, [(1,)]), (11, [(5,), (5,), (1,)]), (12, [(5,), (5,), (2,)])]
)
def test_checker_inputs_once_per_chunk(count, chunks, monkeypatch):
    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    calls = _count_leads(monkeypatch)
    rep = evaluate_scenario(_sampled_hopf(count))
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == count
    assert all(p.reports for p in rep.points)
    sizes = [math.prod(lead) for lead in chunks]
    # the map's 3 components and the target's 9 metric entries run as one program
    # each, once per chunk; the source's 16 are literals, which never run
    assert sorted(calls.pop("__call__")) == sorted((m, p) for p in sizes for m in (3, 9))
    # the ambient of the submersion families is the constant source at c = 0, whose
    # zero curvature sums and space-form residual take no pass (see the test below)
    assert calls == {
        "hermitian_residual": chunks,
        "decompose_J": chunks,
        "_extrema_rows": sizes,  # A only: the horizontal family reads nothing else
        "_diagnostics_rows": sizes,
        # T and A are each checked once per chunk, as a stack
        "_checked_norms": [(kind, p) for p in sizes for kind in ("symmetric", "skew")],
    }


def test_a_curved_ambient_is_read_once_per_chunk(monkeypatch):
    """s4-radial's source is curved: its sums and residual are taken once per chunk."""
    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    calls = []
    # the residual reads the frame tensor (P, k, k, k, k), the sums its pairs (P, k, k)
    for name, axes in (("space_form_residual_from_tensor", 4), ("curvature_sums", 2)):
        def counted(R, *rest, _name=name, _axes=axes, _original=getattr(inequalities, name),
                    **kwargs):
            calls.append((_name, R.shape[:-_axes]))
            return _original(R, *rest, **kwargs)

        monkeypatch.setattr(inequalities, name, counted)
    rep = evaluate_scenario(_sampled_s4())
    assert rep.aggregate["point_errors"] == 0 and len(rep.points) == 12
    assert sorted(calls) == sorted(
        (name, lead) for name in ("space_form_residual_from_tensor", "curvature_sums")
        for lead in [(5,), (5,), (2,)]
    )


POINTWISE = {
    "pw-equality-map:s4": lambda: builtin_scenario("pw-equality-map:s4"),
    "pw-equality-combined:s4l4": lambda: builtin_scenario("pw-equality-combined:s4l4"),
    "pw-random-mix:c-4": lambda: builtin_scenario("pw-random-mix:c-4"),
    "random:s5l3": lambda: parse_scenario(scenes.random_pointwise_submersion(5, 3, 4.0, seed=12)),
}


@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_a_pointwise_scene_is_a_chunk_of_one(name, monkeypatch):
    # its checker input is built as a chart chunk's is, on a point axis of one
    scn = POINTWISE[name]()
    calls = _count_leads(monkeypatch)
    (point,) = evaluate_scenario(scn).points
    assert point.reports and not point.errors
    families = scenes._requested_families(scn.theorems)
    read = dict.fromkeys(key for f in families for key in inequalities.FAMILY_TENSORS[f])
    # an all-zero tensor, as the combined equality scene's A, is neither checked
    # nor extremized: checker_inputs gives its records in closed form
    nonzero = [key for key in scn.tensors if scn.tensors[key].any()]
    stacks = [1] * len([key for key in read if key in nonzero])
    want = {
        "hermitian_residual": [()],  # the structure check of the scene's one metric
        "decompose_J": [(1,)],
        "curvature_sums": [(1,)],
        "_extrema_rows": stacks,
        "_diagnostics_rows": stacks,
        "_checked_norms": [(inequalities.TENSORS[key].symmetry, 1) for key in nonzero],
    }
    assert calls == {name: leads for name, leads in want.items() if leads}


def test_a_pointwise_scene_forms_no_frame_tensor(monkeypatch):
    # its curvature sums come from the closed form: at k = 32 the form's frame
    # tensor would hold k^4 floats, 8 MB, and its products more
    k = 32
    scn = parse_scenario(scenes.random_pointwise_submersion(5, k - 5, 4.0, seed=32, dim=k))
    calls, products = [], QSFOracle._products
    monkeypatch.setattr(
        QSFOracle, "_products", lambda self, *args: calls.append(args) or products(self, *args)
    )
    evaluate_scenario(scn)  # the structure registry and lazy imports, once
    tracemalloc.start()
    try:
        report = evaluate_scenario(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.aggregate["point_errors"] == 0 and report.points[0].reports
    assert calls == []
    assert peak < k**4 * 8


# -- checker inputs: a point of a stack gets the bits it gets alone -------------------


def _stack_cases(count=40):
    """Random (P, a, n, n) slice stacks and their kind, over the shapes the checkers meet."""
    rng = np.random.default_rng(19)
    for k in range(count):
        P, a, n = int(rng.integers(2, 6)), int(rng.integers(0, 6)), int(rng.integers(3, 9))
        h = rng.normal(size=(P, a, n, n))
        kind = "skew" if k % 3 == 0 else "symmetric"
        h = 0.5 * (h - h.swapaxes(-1, -2)) if kind == "skew" else 0.5 * (h + h.swapaxes(-1, -2))
        if kind == "symmetric" and a and k % 3 == 1:
            h[:, 1:] = 0.0  # one nonzero slice: the one-slice closed form
        if k % 5 == 0:
            h[0] = 0.0  # a zero stack among the others
        yield h, kind


def _extrema_bits(ex) -> list:
    return [_bits(a) for a in (ex.inf_CL, ex.sup_CL, ex.argmin_normal, ex.argmax_normal)] + [
        ex.degenerate_min, ex.degenerate_max, ex.audit
    ]


def test_stacked_casorati_inputs_match_each_stack_alone():
    cases = list(_stack_cases())
    # the layouts a stack may come in: a transposed view, and one point of a larger stack
    h, kind = cases[1]
    cases += [(h.swapaxes(-1, -2), kind), (np.stack([h[0], h[0]])[:1], kind)]
    for h, kind in cases:
        rows = CasoratiInput.rows(h, kind)
        for row, hp in zip(rows, h):
            alone = CasoratiInput(hp, kind=kind)
            assert _bits(row.norm_sq()) == _bits(float(np.sum(hp**2))) == _bits(alone.norm_sq())
            assert _bits(row.coeffs) == _bits(alone.coeffs) and row.kind == alone.kind == kind


@pytest.mark.parametrize("defect", ["non-finite", "asymmetric"])
def test_a_stacked_casorati_check_raises_for_the_first_failing_point(defect):
    h = np.random.default_rng(24).normal(size=(4, 2, 5, 5))
    h = 0.5 * (h + h.swapaxes(-1, -2))
    h[3, 0, 0, 1] = np.inf  # a later point fails too
    if defect == "non-finite":
        h[1, 1, 2, 2] = np.nan
    else:
        h[1, 1, 2, 3] += 1e-3
    with pytest.raises((DomainError, DimensionError)) as alone:
        CasoratiInput(h[1])
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        CasoratiInput.rows(h)


def test_a_chunk_whose_casorati_check_fails_runs_its_points_alone(monkeypatch):
    # the stacked check raises for a chunk of two or more points; each point then
    # runs as a chunk of one and gets its own rows
    original, chunks = CasoratiInput.rows.__func__, []

    def failing(cls, coeffs, kind="symmetric"):
        chunks.append(len(coeffs))
        if len(coeffs) > 1:
            raise DomainError("coefficient array has non-finite squared norm inf")
        return original(cls, coeffs, kind)

    scn = _sampled_hopf(3)
    want = [p.as_dict() for p in evaluate_scenario(scn).points]
    monkeypatch.setattr(CasoratiInput, "rows", classmethod(failing))
    rep = evaluate_scenario(scn)
    assert [p.as_dict() for p in rep.points] == want
    assert chunks == [3] + [1, 1] * 3  # T fails on the chunk; then T and A per point


def test_stacked_extrema_match_each_stack_alone():
    for h, kind in _stack_cases():
        rows = casorati._extrema_rows(h, kind, [float(np.sum(hp**2)) for hp in h])
        for row, hp in zip(rows, h):
            alone = hyperplane_extrema(CasoratiInput(hp, kind=kind))
            assert _extrema_bits(row) == _extrema_bits(alone)


def _diagnostics_loops(h, u):
    """The equality diagnostics of one stack as slice and pair loops, the reference."""
    n = h.shape[-1]
    # the Householder reflection whose last row is u
    sign = 1.0 if u[-1] >= 0 else -1.0
    v = u + sign * np.eye(n)[-1]
    v /= np.linalg.norm(v)
    Q = -sign * (np.eye(n) - 2.0 * np.outer(v, v))
    rotated = np.array([Q @ sl @ Q.T for sl in h]).reshape(h.shape)
    off = rotated.copy()
    for sl in off:
        np.fill_diagonal(sl, 0.0)
    offdiag = float(np.abs(off).max()) if off.size else 0.0
    pattern = common = comm = 0.0
    for sl in rotated:
        d = np.diagonal(sl)
        lam = (d[:-1].sum() + 2.0 * d[-1]) / (n + 3.0)
        target = np.full(n, lam)
        target[-1] = 2.0 * lam
        pattern = max(pattern, float(np.linalg.norm(d - target)))
        common = max(common, float(np.linalg.norm(sl[:-1, -1])))
    for a in range(h.shape[0]):
        for b in range(a + 1, h.shape[0]):
            comm = max(comm, float(np.linalg.norm(h[a] @ h[b] - h[b] @ h[a])))
    return offdiag, pattern, common, comm


def test_stacked_diagnostics_match_the_slice_loops():
    rng = np.random.default_rng(20)
    for h, kind in _stack_cases():
        u = rng.normal(size=h.shape[::3])
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        stacked = _diagnostic_arrays(h, u)
        for p in range(len(h)):
            want = _diagnostics_loops(h[p], u[p])
            assert [float(a[p]) for a in stacked] == list(want)
            alone = _diagnostic_arrays(h[p], u[p])
            assert [float(a) for a in alone] == list(want)
        ex = hyperplane_extrema(CasoratiInput(h[0], kind=kind))
        d = equality_diagnostics(CasoratiInput(h[0], kind=kind), ex)
        want = _diagnostics_loops(h[0], np.asarray(ex.argmin_normal))
        assert (d.offdiag_max, d.eigen_pattern_residual, d.common_eigendirection_residual,
                d.commutator_max) == want


def test_scaled_diagnostics_keep_the_unscaled_bits(monkeypatch):
    # slices above 1 are measured over 2^k and scaled back, which is exact: every
    # residual keeps the bits of the unscaled computation, point by point
    rng = np.random.default_rng(22)
    h = np.stack([g + g.transpose(0, 2, 1) for g in rng.normal(size=(5, 3, 4, 4))])
    h *= 10.0 ** np.array([-3.0, 0.5, 4.0, 30.0, 70.0])[:, None, None, None]
    u = rng.normal(size=(5, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    scaled = _diagnostic_arrays(h, u)
    monkeypatch.setattr(inequalities, "_scale_exponents", lambda h: np.zeros(h.shape[:-3], int))
    for got, want in zip(scaled, _diagnostic_arrays(h, u)):
        assert np.array_equal(got, want)


def _space_form_cases(count=12):
    """Random metrics, orthonormal frames and curvature tensors at P points."""
    rng = np.random.default_rng(21)
    for k in range(count):
        P, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        n = 4 * m
        # a J-hermitian metric: a positive multiple of the identity on each quaternionic line
        g = np.stack([np.kron(np.diag(rng.uniform(0.5, 2.0, size=m)), np.eye(4)) for _ in range(P)])
        # rows orthonormal for the diagonal metric
        E = np.stack([orthonormal_rows(rng, n) @ np.diag(1.0 / np.sqrt(np.diag(gp))) for gp in g])
        R = rng.normal(size=(P,) + (n,) * 4)
        yield quat_units(m), g, E, R, int(rng.integers(0, n + 1))


def _space_form_products(c, J, g, E):
    """The space-form pairs, the Gram matrix and the J blocks of one point as 2-d
    products, the reference."""
    G = E @ g @ E.T
    X = E @ g @ J @ E.T
    d = np.diag(G)
    return 0.25 * c * (np.outer(d, d) - G * G + 3.0 * (X * X).sum(axis=0)), G, X


def test_stacked_space_form_and_J_blocks_match_each_point_alone():
    for J, g, E, R, s in _space_form_cases():
        c = -4.0
        residual = inequalities.space_form_residual_from_tensor(R, QSFOracle(c, J, g), E)
        decomp = decompose_J(J, g, E, s)
        closed = space_form_pairs(c, decomp.gram, decomp.blocks)
        closed_sums = geometry.curvature_sums(closed, s)
        sums = geometry.curvature_sums(np.einsum("...abba->...ab", R), s)
        herm = hermitian_residual(J, g)
        for p in range(len(g)):
            oracle = QSFOracle(c, J, g[p])
            want_pairs, want_gram, want_blocks = _space_form_products(c, J, g[p], E[p])
            assert float(residual[p]) == inequalities.space_form_residual_from_tensor(
                R[p], oracle, E[p]
            )
            alone = decompose_J(J, g[p], E[p], s)
            row = decomp.rows()[p]
            for part in ("norms_P", "norms_Q", "norms_PV", "blocks", "gram"):
                assert _bits(getattr(decomp, part)[p]) == _bits(getattr(alone, part))
                assert _bits(getattr(row, part)) == _bits(getattr(alone, part))
            assert _bits(alone.blocks) == _bits(want_blocks)
            assert _bits(alone.gram) == _bits(want_gram)
            # the closed-form pairs and their sums: a point of the stack keeps its own bits
            alone_pairs = space_form_pairs(c, alone.gram, alone.blocks)
            assert _bits(closed[p]) == _bits(alone_pairs) == _bits(want_pairs)
            assert tuple(float(v[p]) for v in closed_sums) == tuple(
                geometry.curvature_sums(alone_pairs, s)
            )
            # the per-J loop of sums over each block, the reference
            for norms, block in ((alone.norms_P, (slice(None, s),) * 2),
                                 (alone.norms_Q, (slice(s, None),) * 2),
                                 (alone.norms_PV, (slice(None, s), slice(s, None)))):
                assert norms.tolist() == [float(np.sum(b[block] ** 2)) for b in alone.blocks]
            K = np.einsum("abba->ab", R[p]).copy()
            np.fill_diagonal(K, 0.0)
            want = (float(K[:s, :s].sum()), float(K[s:, s:].sum()), float(K[:s, s:].sum()))
            assert tuple(float(v[p]) for v in sums) == want
            assert tuple(geometry.curvature_sums(np.einsum("abba->ab", R[p]), s)) == want
            assert float(herm[p]) == max(
                float(np.abs(J[a].T @ g[p] @ J[a] - g[p]).max()) for a in range(3)
            )


# -- curvature symmetries ------------------------------------------------------


def _space_form_tensor(rng, n):
    """g(X, W) g(Y, Z) - g(X, Z) g(Y, W) for a random metric: every symmetry holds exactly."""
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    return np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)


def _antisym(rng, n):
    a = rng.normal(size=(n, n))
    return a - a.T


def _sym(rng, n):
    s = rng.normal(size=(n, n))
    return s + s.T


def _levi_civita():
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        eps[perm] = (-1.0) ** inversions
    return eps


# each defect breaks its identity and keeps the listed ones exactly
DEFECTS = {
    "antisym_12": (lambda rng: np.einsum("ij,kl->ijkl", _sym(rng, 4), _antisym(rng, 4)),
                   ["antisym_34"]),
    "antisym_34": (lambda rng: np.einsum("ij,kl->ijkl", _antisym(rng, 4), _sym(rng, 4)),
                   ["antisym_12"]),
    "pair_sym": (lambda rng: np.einsum("ij,kl->ijkl", _antisym(rng, 4), _antisym(rng, 4)),
                 ["antisym_12", "antisym_34"]),
    "bianchi": (lambda rng: _levi_civita(), ["antisym_12", "antisym_34", "pair_sym"]),
}


@pytest.mark.parametrize("broken", SYMMETRIES)
def test_each_curvature_symmetry_is_checked(broken):
    rng = np.random.default_rng(SYMMETRIES.index(broken))
    defect, kept = DEFECTS[broken]
    R = np.stack([_space_form_tensor(rng, 4) for _ in range(3)])
    R[1] += 1e-2 * defect(rng)
    maxima, scale = _symmetry_defects(R)
    worst = maxima / scale
    assert worst[SYMMETRIES.index(broken), 1] > 1e-6
    assert max(worst[SYMMETRIES.index(k), 1] for k in kept) == 0.0
    # the Bianchi sum of a space form rounds to a few ulps
    assert worst[:, [0, 2]].max() < 1e-15


def test_symmetry_defects_match_their_definitions():
    R = np.random.default_rng(8).normal(size=(3, 5, 5, 5, 5))
    maxima, scale = _symmetry_defects(R)
    for p in range(3):
        r = R[p]
        want = [
            np.abs(r + r.transpose(1, 0, 2, 3)).max(),
            np.abs(r + r.transpose(0, 1, 3, 2)).max(),
            np.abs(r - r.transpose(2, 3, 0, 1)).max(),
            np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)).max(),
        ]
        assert maxima[:, p].tolist() == want
        assert scale[p] == max(1.0, np.abs(r).max())


def test_curvature_check_fails_only_its_own_point():
    smap = random_submersion(4, seed=3)
    X = np.array([[0.1, 0.2, -0.3, 0.4], [0.3, -0.1, 0.2, 0.0], [-0.4, 0.1, 0.1, 0.2]])
    cp = ChartPoint.at(smap.source, X)
    for i, x in enumerate(X):
        alone = ChartPoint.at(smap.source, x)
        assert _bits(cp.gamma[i]) == _bits(alone.gamma)
        assert _bits(cp.curvature.riemann[i]) == _bits(alone.curvature.riemann)
    G2 = cp.G2.copy()
    G2[1, 0, 0, 1, 2] += 0.5  # d1 d2 g_00 != d2 d1 g_00: no smooth metric has these jets
    message = re.escape(f"at {X[1].tolist()};")
    with pytest.raises(DegenerateMetricError, match=message):
        ChartPoint(cp.x, cp.G0, cp.G1, G2, "chart").curvature
    with pytest.raises(DegenerateMetricError, match=message):
        ChartPoint(X[1], cp.G0[1], cp.G1[1], G2[1], "chart").curvature
    for i in (0, 2):
        alone = ChartPoint(X[i], cp.G0[i], cp.G1[i], G2[i], "chart").curvature.riemann
        assert _bits(alone) == _bits(ChartPoint.at(smap.source, X[i]).curvature.riemann)


def _random_jets(rng, P, n, constant=False):
    """Metric jets of P points: G0 positive definite, G1 symmetric in its metric slots
    and G2 in its metric and in its derivative slots, as a smooth metric's jets are."""
    B = rng.normal(size=(P, n, n))
    G0 = np.eye(n) + 0.2 * B @ B.swapaxes(-1, -2)
    G1 = rng.normal(size=(P, n, n, n))
    G1 = G1 + G1.swapaxes(1, 2)
    G2 = rng.normal(size=(P, n, n, n, n))
    G2 = G2 + G2.swapaxes(1, 2)
    G2 = G2 + G2.swapaxes(3, 4)
    if constant:
        G1, G2 = np.zeros_like(G1), np.zeros_like(G2)
    return rng.uniform(-1.0, 1.0, size=(P, n)), G0, G1, G2


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("constant", [False, True])
def test_direct_riemann_matches_the_gradient_formula(n, constant):
    # R from the second derivatives and Gamma, with one n^5 product, against R assembled
    # from the chart-basis gradient of Gamma; each point of a chunk gets its bits alone
    rng = np.random.default_rng(40 + n)
    x, G0, G1, G2 = _random_jets(rng, 3, n, constant)
    cp = ChartPoint(x, G0, G1, G2, "chart")
    R = cp.curvature.riemann
    for p in range(3):
        alone = ChartPoint(x[p], G0[p], G1[p], G2[p], "chart")
        ginv_jet = ginv_jet_reference(G0[p], G1[p])
        gamma = gamma_reference(ginv_jet[0], alone._first_kind)
        dgamma = dgamma_reference(ginv_jet, alone._first_kind, G2[p])
        want = riemann_reference(gamma, dgamma, G0[p])
        assert np.abs(R[p] - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
        assert _bits(alone.curvature.riemann) == _bits(R[p])
        assert _bits(alone.gamma) == _bits(cp.gamma[p])
        if constant:  # exact zeros, with no product
            assert alone.constant and not np.any(R[p]) and not np.any(cp.gamma[p])
        else:
            assert not alone.constant and np.abs(want).max() > 0.1


def test_no_pipeline_path_forms_the_chart_basis_gradient_of_gamma(monkeypatch):
    # the n^5 d Gamma is formed only by christoffel_with_grad, which no scene reaches
    def unreachable(*args):
        raise AssertionError("the chart-basis gradient of Gamma was formed")

    monkeypatch.setattr(ChartPoint, "dgamma", property(unreachable), raising=False)
    monkeypatch.setattr(geometry, "christoffel_with_grad", unreachable)
    scenes_run = [builtin_scenario(name) for name in scenes.builtin_names()]
    scenes_run += [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.json"))]
    for scn in scenes_run:
        rep = evaluate_scenario(scn)
        assert rep.aggregate["point_errors"] == 0, scn.name


def test_no_pipeline_path_forms_the_derivative_of_the_inverse_metric(monkeypatch):
    # d g^-1 is formed only by christoffel_with_grad, through jets.matrix_inverse on
    # every module binding of it, and no scene reaches it
    def unreachable(*args):
        raise AssertionError("the derivative of the inverse metric was formed")

    original = jets.matrix_inverse
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("casoratiq"):
            if getattr(module, "matrix_inverse", None) is original:
                monkeypatch.setattr(module, "matrix_inverse", unreachable)
    scenes_run = [builtin_scenario(name) for name in scenes.builtin_names()]
    scenes_run += [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.json"))]
    for scn in scenes_run:
        rep = evaluate_scenario(scn)
        assert rep.aggregate["point_errors"] == 0, scn.name
    with pytest.raises(AssertionError, match="inverse metric"):
        geometry.christoffel_with_grad(geometry.chart("flat:3"), np.full(3, 0.5))


def test_a_submersion_row_holds_its_oneill_fields():
    smap = random_submersion(4, seed=3)
    X = np.array([[0.1, 0.2, -0.3, 0.4], [0.3, -0.1, 0.2, 0.0], [-0.4, 0.1, 0.1, 0.2]])
    # the bent map is no Riemannian submersion, which differential refuses, so its
    # frames are the g-orthonormal kernel rows of dF and then its range rows, point by point
    vt = np.linalg.svd(MapPoint.at(smap, X).dF)[2]
    rows = np.concatenate([vt[:, 2:], vt[:, :2]], axis=1)

    def split_at(x, rows):
        point = MapPoint.at(smap, x)
        full = np.stack([mgs2_frame(r, g) for r, g in zip(rows, point.source.G0)])
        E = np.concatenate([full[..., 2:, :], full[..., :2, :]], axis=-2)  # [horizontal; vertical]
        return maps.SceneSplit(point, E, None, 0.0, 0.0)

    # the projector's frame jet of the three points as one chunk and of the second
    # as a chunk of one, against each point as a chunk of one
    for chunk, chunk_rows in ((X, rows), (X[1:2], rows[1:2])):
        proj = split_at(chunk, chunk_rows).projector
        assert proj.gamma is not None and np.abs(proj.X).max() > 0.0
        for i in range(len(chunk)):
            alone = split_at(chunk[i : i + 1], chunk_rows[i : i + 1]).projector
            for part, want in zip(proj, alone):
                assert _bits(part[i]) == _bits(want[0])
    # the split and the Gauss residuals of a Riemannian submersion, likewise
    scn = builtin_scenario("hopf-radial:4to3")
    X, smap = scn.evaluation_points(), scn.smap
    for chunk in (X, X[1:2]):
        split = maps.differential(smap, chunk)
        gauss = maps.gauss_residual_submersion(split)
        for i, x in enumerate(chunk):
            alone = maps.differential(smap, x)
            for frame in ("vertical", "horizontal", "range", "range_perp"):
                assert _bits(getattr(split, frame)[i]) == _bits(getattr(alone, frame))
            want = maps.gauss_residual_submersion(alone)
            for part in ("vertical", "horizontal", "mixed"):
                assert _bits(getattr(gauss, part)[i]) == _bits(getattr(want, part))
