"""Seeded scenario documents for the benchmark workloads.

Every document is generated here, from the seed alone; nothing is taken
from the engine's builtin registry or its random scene generator, so an
engine change cannot change the workload it is measured on.

A workload is an endless sequence of *rounds*.  Every round has the same shape (the
same scene kinds, dimensions and point counts, in the same order); the
seed only draws the sampled points, frames and tensor entries.  The
timed loop runs whole rounds, so every run measures the same mix of work
whatever the seed, and the cost of a run does not depend on where the
clock happened to stop.
"""

from __future__ import annotations

import itertools

import numpy as np

SUBMERSION_THEOREMS = [
    "vertical_5_2",
    "horizontal_6_2",
    "combined_7_2",
    "lemma_vertical_5_1",
    "lemma_horizontal_6_1",
    "lemma_combined_7_1",
]
MAP_THEOREMS = ["map_3_2", "lemma_map_3_1"]
SPACE_FORM_CS = (-4.0, 0.0, 4.0)
DISTRIBUTION_DIMS = (3, 4, 5)

# chart-product: six n = 8 scenes around one n = 12 scene per round
PRODUCT_DIMS = (8, 8, 8, 12, 8, 8, 8)
# chart-curved: seeded points per curved scene
CURVED_POINTS = 4


def _identity_metric(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


# -- chart-product -----------------------------------------------------------


def product_projection(n: int, point: list[float], name: str) -> dict:
    """flat:n -> flat:4 coordinate projection with quat-flat:n/4 on the source."""
    return {
        "version": 1,
        "name": name,
        "mode": "chart",
        "map": {
            "source": f"flat:{n}",
            "target": "flat:4",
            "exprs": ["x1", "x2", "x3", "x4"],
            "map_mode": "riemannian_submersion",
            "rank": 4,
        },
        "structure": {"on": "source", "name": f"quat-flat:{n // 4}"},
        "fiber_curvature": {"space_form_kappa": "0"},
        "c": 0.0,
        "deltaN": "zero",
        "points": [point],
        "theorems": list(SUBMERSION_THEOREMS),
    }


def chart_product_round(rng: np.random.Generator, r: int) -> list[dict]:
    return [
        product_projection(
            n, rng.uniform(-1.0, 1.0, size=n).tolist(), f"chart-product:n{n}:r{r}s{k}"
        )
        for k, n in enumerate(PRODUCT_DIMS)
    ]


# -- chart-curved ------------------------------------------------------------
# The three curved documents below repeat the engine's hopf-radial:4to3,
# radial:4 and paraboloid-vertex scenes with their points replaced.  The
# sampling boxes sit inside the source boxes with a margin: every image
# point stays inside the target box, and |x| stays away from the origin,
# where the finite-difference mixed residual of the radial and Hopf maps
# would approach the residual tolerance.


def hopf_radial(points: list, name: str) -> dict:
    return {
        "version": 1,
        "name": name,
        "mode": "chart",
        "map": {
            "source": {
                "dim": 4,
                "box": [[0.1, 1.5]] * 4,
                "metric": _identity_metric(4),
                "name": "flat-positive:4",
            },
            "target": {
                "dim": 3,
                "box": [[-4.0, 4.0], [0.02, 7.0], [-4.0, 4.0]],
                "metric": [
                    ["1/(4*norm(x))", "0", "0"],
                    ["0", "1/(4*norm(x))", "0"],
                    ["0", "0", "1/(4*norm(x))"],
                ],
                "name": "hopf-base",
            },
            "exprs": [
                "x1^2+x2^2-x3^2-x4^2",
                "2*(x1*x4+x2*x3)",
                "2*(x2*x4-x1*x3)",
            ],
            "map_mode": "riemannian_submersion",
            "rank": 3,
        },
        "structure": {"on": "source", "name": "quat-flat:1"},
        "c": 0.0,
        "deltaN": "zero",
        "points": points,
        "theorems": ["horizontal_6_2", "lemma_horizontal_6_1"],
    }


def radial(points: list, name: str) -> dict:
    return {
        "version": 1,
        "name": name,
        "mode": "chart",
        "map": {
            "source": {
                "dim": 4,
                "box": [[0.05, 3.0]] * 4,
                "metric": _identity_metric(4),
                "name": "flat-positive:4",
            },
            "target": {
                "dim": 1,
                "box": [[0.05, 6.0]],
                "metric": [["1"]],
                "name": "flat-line",
            },
            "exprs": ["norm(x)"],
            "map_mode": "riemannian_submersion",
            "rank": 1,
        },
        "structure": {"on": "source", "name": "quat-flat:1"},
        "fiber_curvature": {"space_form_kappa": "1/(norm(x)^2)"},
        "c": 0.0,
        "deltaN": "zero",
        "points": points,
        "theorems": ["vertical_5_2", "lemma_vertical_5_1"],
    }


def paraboloid_vertex(points: list, name: str) -> dict:
    return {
        "version": 1,
        "name": name,
        "mode": "chart",
        "map": {
            "source": {
                "dim": 2,
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "metric": [["1+x1^2", "x1*x2"], ["x1*x2", "1+x2^2"]],
                "name": "paraboloid-graph",
            },
            "target": "flat:3",
            "exprs": ["x1", "x2", "0.5*(x1^2+x2^2)"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": points,
        "theorems": [],
    }


# (document builder, sampling box low, high, dimension)
_CURVED = (
    ("hopf-radial", hopf_radial, 0.2, 1.2, 4),
    ("radial", radial, 0.2, 1.5, 4),
    ("paraboloid", paraboloid_vertex, -1.5, 1.5, 2),
)


def chart_curved_round(rng: np.random.Generator, r: int) -> list[dict]:
    out = []
    for tag, build, lo, hi, dim in _CURVED:
        points = rng.uniform(lo, hi, size=(CURVED_POINTS, dim)).tolist()
        out.append(build(points, f"chart-curved:{tag}:r{r}"))
    return out


# -- pointwise-sweep ---------------------------------------------------------


def _orthonormal_columns(rng: np.random.Generator, dim: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Q


def _symmetric(rng: np.random.Generator, shape) -> np.ndarray:
    X = rng.uniform(-1.0, 1.0, size=shape)
    return 0.5 * (X + X.transpose(0, 2, 1))


def _skew(rng: np.random.Generator, shape) -> np.ndarray:
    X = rng.uniform(-1.0, 1.0, size=shape)
    return 0.5 * (X - X.transpose(0, 2, 1))


def pointwise_submersion(
    rng: np.random.Generator, s: int, ell: int, c: float, name: str
) -> dict:
    """12-dimensional pointwise submersion scene with random T and A."""
    dim = 12
    Q = _orthonormal_columns(rng, dim)
    return {
        "version": 1,
        "name": name,
        "mode": "pointwise",
        "dim": dim,
        "kind": "submersion",
        "structure": {"name": "quat-flat:3"},
        "c": c,
        "deltaN": "zero",
        "frames": {
            "horizontal": Q[:, :s].T.tolist(),
            "vertical": Q[:, s : s + ell].T.tolist(),
        },
        "tensors": {
            "T": _symmetric(rng, (s, ell, ell)).tolist(),
            "A": _skew(rng, (ell, s, s)).tolist(),
        },
        "theorems": list(SUBMERSION_THEOREMS),
    }


def pointwise_map(rng: np.random.Generator, s: int, c: float, name: str) -> dict:
    """8-dimensional pointwise map scene of rank s with a random B."""
    dim = 8
    Q = _orthonormal_columns(rng, dim)
    return {
        "version": 1,
        "name": name,
        "mode": "pointwise",
        "dim": dim,
        "kind": "map",
        "structure": {"name": "quat-flat:2"},
        "c": c,
        "frames": {"range": Q[:, :s].T.tolist(), "range_perp": Q[:, s:].T.tolist()},
        "tensors": {"B": _symmetric(rng, (dim - s, s, s)).tolist()},
        "theorems": list(MAP_THEOREMS),
    }


def pointwise_sweep_round(rng: np.random.Generator, r: int) -> list[dict]:
    """Every (s, ell) submersion pair once, then every map rank once.

    c cycles through the space-form constants with the scene index and
    the round, so each round has the same dimensions in the same order.
    """
    out = []
    k = 0
    for s in DISTRIBUTION_DIMS:
        for ell in DISTRIBUTION_DIMS:
            c = SPACE_FORM_CS[(k + r) % 3]
            out.append(pointwise_submersion(rng, s, ell, c, f"pointwise:sub:s{s}l{ell}:r{r}"))
            k += 1
    for s in DISTRIBUTION_DIMS:
        c = SPACE_FORM_CS[(k + r) % 3]
        out.append(pointwise_map(rng, s, c, f"pointwise:map:s{s}:r{r}"))
        k += 1
    return out


ROUND_BUILDERS = {
    "chart-product": chart_product_round,
    "chart-curved": chart_curved_round,
    "pointwise-sweep": pointwise_sweep_round,
}

WORKLOADS = tuple(ROUND_BUILDERS)


def rounds(workload: str, seed: int):
    """Endless sequence of rounds of scenario documents for ``workload``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = ROUND_BUILDERS[workload]
    for r in itertools.count():
        yield build(rng, r)


def scene_points(doc: dict) -> int:
    """Points the scene evaluates: one per listed point, one for a pointwise scene."""
    return len(doc["points"]) if doc["mode"] == "chart" else 1
