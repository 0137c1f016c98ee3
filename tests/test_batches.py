"""Chart scenes run their points as batches; every point gets the result it gets alone.

A scene's jets, metrics, Christoffel symbols, curvature and O'Neill
fields are computed once per batch of points, and each point reads its
row.  These tests hold the batch to the single point: reports are
byte-identical, a failing point keeps its own message, and a check that
fails at one point leaves the others alone.
"""

import copy
import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from casoratiq import geometry, jets
from casoratiq.errors import DegenerateMetricError, DomainError
from casoratiq.geometry import MAX_DIM, ChartPoint, _symmetry_defects, batch_size
from casoratiq.maps import MapPoint
from casoratiq.scenes import builtin_scenario, evaluate_scenario, load_scenario, parse_scenario

from conftest import random_submersion

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


def _sampled_hopf():
    sample = {"sample": {"count": 12, "seed": 16, "box": [[0.2, 1.2]] * 4}}
    doc = _with_points("hopf-radial:4to3", sample)
    return parse_scenario(doc, name_hint="hopf-sampled")


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
}


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
}


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


# -- chunks --------------------------------------------------------------------


@pytest.mark.parametrize("n, size", [(4, 32768), (12, 134), (32, 1)])
def test_chunk_size_rule(n, size):
    assert batch_size(n) == size
    assert size * n**5 <= MAX_DIM**5 < (size + 1) * n**5


def test_scene_runs_in_chunks(monkeypatch):
    scn = _sampled_hopf()
    want = [_point_json(p) for p in evaluate_scenario(scn).points]
    sizes = []
    at = MapPoint.at.__func__

    def counted(cls, smap, x):
        sizes.append(len(x))
        return at(cls, smap, x)

    monkeypatch.setattr(geometry, "batch_size", lambda n: 5)
    monkeypatch.setattr(MapPoint, "at", classmethod(counted))
    assert [_point_json(p) for p in evaluate_scenario(scn).points] == want
    assert sizes == [5, 5, 2]


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
    G2 = cp.G2.copy()
    G2[1, 0, 0, 1, 2] += 0.5  # d1 d2 g_00 != d2 d1 g_00: no smooth metric has these jets
    bad = ChartPoint(cp.x, cp.G0, cp.G1, G2)
    with pytest.raises(DegenerateMetricError, match=re.escape(f"at {X[1].tolist()};")):
        bad.curvature
    rows = [bad.row(i) for i in range(3)]
    with pytest.raises(DegenerateMetricError, match=re.escape(f"at {X[1].tolist()};")):
        rows[1].curvature
    for i in (0, 2):
        alone = ChartPoint.at(smap.source, X[i]).curvature.riemann
        assert _bits(rows[i].curvature.riemann) == _bits(alone)
