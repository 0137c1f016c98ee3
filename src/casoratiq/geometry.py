"""Charts, connections, curvature and orthonormal frames.

Conventions used throughout the engine:

* stored curvature is fully covariant: ``R[i, j, k, l]`` is the
  curvature form on the coordinate vectors in slot order, so
  ``R(X, Y, Z, W) = R[i, j, k, l] X^i Y^j Z^k W^l``;
* the sign is fixed so that the round unit 2-sphere has sectional
  curvature +1, i.e. ``R(X, Y, Y, X) > 0`` on the sphere;
* over an orthonormal frame with rows ``e_a`` the curvature is read from
  one frame tensor ``R_E[a, b, c, d] = R(e_a, e_b, e_c, e_d)``
  (``frame_contraction``); every ambient curvature sum is a block or
  trace of it (``curvature_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMetricError,
    DependencyError,
    DimensionError,
    DomainError,
)
from .jets import jet_arrays, matrix_inverse, seed_point

__all__ = [
    "MetricChart",
    "ChartPoint",
    "CurvaturePoint",
    "OrthoFrame",
    "christoffel",
    "christoffel_with_grad",
    "riemann",
    "gram_schmidt",
    "complete_frame",
    "frame_contraction",
    "curvature_sums",
    "plane_area_sq",
    "chart",
    "MAX_DIM",
]

# largest dimension of a chart or a quaternionic structure: the metric
# jets of an n-dimensional chart hold n^5 floats
MAX_DIM = 32
_SYM_TOL = 1e-14
_PD_TOL = 1e-10


@dataclass(frozen=True)
class MetricChart:
    """A single coordinate domain with a smooth metric component field.

    ``g`` maps a list of coordinate jets (or floats) to an ``dim x dim``
    nested sequence of jets / numbers.
    """

    dim: int
    domain: tuple[tuple[float, float], ...]
    g: Callable
    name: str = ""

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        return all(lo < xi < hi for xi, (lo, hi) in zip(x, self.domain))

    def require_inside(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, chart dimension is {self.dim}")
        if not self.contains(x):
            raise DomainError(f"point {x.tolist()} outside domain of chart {self.name!r}")
        return x

    def metric_jets(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian arrays of every metric component.

        Returns ``(G0, G1, G2)`` with ``G1[a, b, c] = d_c g_ab`` and
        ``G2[a, b, c, d] = d_c d_d g_ab``.  The metric ``G0`` is checked for
        symmetry before it is symmetrized, and for definiteness after.
        """
        x = self.require_inside(x)
        n = self.dim
        rows = self.g(seed_point(x))
        flat = jet_arrays([rows[a][b] for a in range(n) for b in range(n)], n)
        G0, G1, G2 = (m.reshape((n, n) + m.shape[1:]) for m in flat[:3])
        if np.abs(G0 - G0.T).max() > _SYM_TOL * max(1.0, np.abs(G0).max()):
            raise DegenerateMetricError(
                f"metric not symmetric at {x.tolist()} (chart {self.name!r})"
            )
        G0 = 0.5 * (G0 + G0.T)
        eigs = np.linalg.eigvalsh(G0)
        if eigs.min() <= _PD_TOL:
            raise DegenerateMetricError(
                f"metric not positive definite at {x.tolist()}: min eigenvalue {eigs.min():.3e}"
            )
        G1 = 0.5 * (G1 + G1.transpose(1, 0, 2))
        G2 = 0.5 * (G2 + G2.transpose(1, 0, 2, 3))
        return G0, G1, G2


def plane_area_sq(g: np.ndarray, u, v) -> float:
    """Squared g-area of the parallelogram on u and v; raises when it is degenerate."""
    area = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if not area > 0:
        raise DimensionError("sectional curvature of a degenerate 2-plane")
    return float(area)


@dataclass(frozen=True)
class CurvaturePoint:
    """Christoffel symbols and covariant curvature at one chart point."""

    x: np.ndarray
    gamma: np.ndarray  # gamma[k, i, j] = Gamma^k_ij, symmetric in (i, j)
    riemann: np.ndarray  # R[i, j, k, l] fully covariant
    metric: np.ndarray

    def sectional(self, u, v) -> float:
        area = plane_area_sq(self.metric, u, v)
        return float(np.einsum("ijkl,i,j,k,l->", self.riemann, u, v, v, u)) / area

    def symmetry_residuals(self) -> dict[str, float]:
        R = self.riemann
        scale = max(1.0, np.abs(R).max())
        bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        return {
            "antisym_12": np.abs(R + R.transpose(1, 0, 2, 3)).max() / scale,
            "antisym_34": np.abs(R + R.transpose(0, 1, 3, 2)).max() / scale,
            "pair_sym": np.abs(R - R.transpose(2, 3, 0, 1)).max() / scale,
            "bianchi": np.abs(bianchi).max() / scale,
        }


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """The metric jets of a chart at one point, and what derives from them.

    Built from one ``metric_jets`` call.  The inverse metric and its two
    derivatives, the Christoffel symbols, their gradient and the curvature
    are computed from those jets on first use and kept, so every consumer
    at the point shares one copy.
    """

    x: np.ndarray
    G0: np.ndarray
    G1: np.ndarray  # G1[a, b, c] = d_c g_ab
    G2: np.ndarray  # G2[a, b, c, d] = d_c d_d g_ab

    @classmethod
    def at(cls, chart: MetricChart, x) -> "ChartPoint":
        x = np.asarray(x, dtype=float)
        return cls(x, *chart.metric_jets(x))

    @cached_property
    def ginv_jet(self) -> tuple:
        """Matrix jet of g^-1: ``(g^kl, d_m g^kl, d_m d_n g^kl)``, derivative axes first."""
        g = (self.G0, np.moveaxis(self.G1, 2, 0), self.G2.transpose(2, 3, 0, 1))
        try:
            return matrix_inverse(g)
        except np.linalg.LinAlgError as e:
            raise DegenerateMetricError(f"singular metric at {self.x.tolist()}") from e

    @cached_property
    def _first_kind(self) -> np.ndarray:
        # D[i, j, l] = d_i g_jl; returns d_i g_jl + d_j g_il - d_l g_ij
        D = np.transpose(self.G1, (2, 0, 1))
        return D + D.transpose(1, 0, 2) - np.transpose(D, (1, 2, 0))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita connection coefficients ``gamma[k, i, j] = Gamma^k_ij``."""
        return 0.5 * np.tensordot(self.ginv_jet[0], self._first_kind, axes=(1, 2))

    @cached_property
    def dgamma(self) -> np.ndarray:
        """``dgamma[m, k, i, j] = d_m Gamma^k_ij``, exact from the jets."""
        # DD[m, i, j, l] = d_m d_i g_jl
        DD = np.transpose(self.G2, (3, 2, 0, 1))
        Am = DD + DD.transpose(0, 2, 1, 3) - DD.transpose(0, 2, 3, 1)
        return 0.5 * (
            np.tensordot(self.ginv_jet[1], self._first_kind, axes=(2, 2))
            + np.tensordot(self.ginv_jet[0], Am, axes=(1, 3)).transpose(1, 0, 2, 3)
        )

    @cached_property
    def curvature(self) -> CurvaturePoint:
        """Fully covariant curvature, checked for the curvature symmetries."""
        gamma, dgamma = self.gamma, self.dgamma
        # Rup[i, j, k, m] = d_i Gamma^m_jk - d_j Gamma^m_ik
        #                 + Gamma^p_jk Gamma^m_ip - Gamma^p_ik Gamma^m_jp
        # and both products are read from GG[a, b, c, d] = Gamma^p_ab Gamma^c_dp
        GG = np.tensordot(gamma, gamma, axes=(0, 2))
        rup = (
            np.transpose(dgamma, (0, 2, 3, 1))
            - np.transpose(dgamma, (2, 0, 3, 1))
            + GG.transpose(3, 0, 1, 2)
            - GG.transpose(0, 3, 1, 2)
        )
        R = rup @ self.G0
        cp = CurvaturePoint(x=self.x, gamma=gamma, riemann=R, metric=self.G0)
        worst = max(cp.symmetry_residuals().values())
        if worst > 1e-6:
            raise DegenerateMetricError(
                f"curvature symmetries violated ({worst:.3e}) at {self.x.tolist()}; "
                "metric field is likely not smooth enough here"
            )
        return cp


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Levi-Civita connection coefficients ``Gamma[k, i, j]`` at ``x``."""
    return christoffel_with_grad(chart, x)[0]


def christoffel_with_grad(chart: MetricChart, x) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols and their coordinate gradient.

    Returns ``(Gamma, dGamma)`` with ``dGamma[m, k, i, j] = d_m Gamma^k_ij``,
    assembled exactly from the metric jets (no differencing of Gamma).
    """
    pt = ChartPoint.at(chart, x)
    return pt.gamma, pt.dgamma


def riemann(chart: MetricChart, x) -> CurvaturePoint:
    """Fully covariant curvature tensor of ``chart`` at ``x``."""
    return ChartPoint.at(chart, x).curvature


def frame_contraction(R: np.ndarray, E1, E2, E3, E4) -> np.ndarray:
    """Components ``R[a, b, c, d] E1[i, a] E2[j, b] E3[k, c] E4[l, d]``.

    Each frame is contracted into one slot in turn, which costs O(k n^4)
    per step where the single four-fold sum costs O(k^4 n^4); see Smith &
    Gray, *opt_einsum*, JOSS 2018, on contraction order.
    """
    out = R
    for E in (E1, E2, E3, E4):
        out = np.tensordot(out, E, axes=([0], [1]))
    return out


def gram_schmidt(vectors: Sequence, g_at: np.ndarray) -> "OrthoFrame":
    """Metric Gram-Schmidt; preserves span, raises on rank deficiency."""
    g = np.asarray(g_at, dtype=float)
    out: list[np.ndarray] = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        orig = math.sqrt(max(v @ g @ v, 0.0))
        if orig == 0.0:
            raise DependencyError("zero vector handed to gram_schmidt")
        for _ in range(2):  # second pass for numerical orthogonality
            for e in out:
                v = v - (e @ g @ v) * e
        norm = math.sqrt(max(v @ g @ v, 0.0))
        if norm <= 1e-10 * orig:
            raise DependencyError(
                f"vector numerically dependent on predecessors (residual {norm:.3e})"
            )
        out.append(v / norm)
    return OrthoFrame(np.array(out) if out else np.zeros((0, g.shape[0])), g)


def complete_frame(frame: "OrthoFrame", candidates) -> "OrthoFrame":
    """Extend an orthonormal frame to a full frame of the ambient space.

    The candidate vectors are taken in order, made orthogonal to the
    frame built so far and kept unless numerically dependent on it.
    """
    g = frame.metric_at
    n = g.shape[0]
    vecs = [v for v in frame.vectors]
    for cand in candidates:
        if len(vecs) == n:
            break
        v = np.asarray(cand, dtype=float).copy()
        for _ in range(2):
            for e in vecs:
                v = v - (e @ g @ v) * e
        norm = math.sqrt(max(v @ g @ v, 0.0))
        if norm > 1e-8:
            vecs.append(v / norm)
    if len(vecs) != n:
        raise DependencyError("could not complete frame to full dimension")
    return OrthoFrame(np.array(vecs), g)


@dataclass(frozen=True)
class OrthoFrame:
    """Rows of ``vectors`` are g-orthonormal chart components."""

    vectors: np.ndarray  # (k, n)
    metric_at: np.ndarray  # (n, n)

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.atleast_2d(np.asarray(self.vectors, float)))
        object.__setattr__(self, "metric_at", np.asarray(self.metric_at, float))
        if self.vectors.size == 0:
            object.__setattr__(
                self, "vectors", self.vectors.reshape(0, self.metric_at.shape[0])
            )

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.metric_at @ self.vectors.T

    def orthonormality_residual(self) -> float:
        if self.k == 0:
            return 0.0
        return float(np.abs(self.gram() - np.eye(self.k)).max())


def curvature_sums(frame_tensor: np.ndarray, s: int) -> tuple[float, float, float]:
    """Scalar curvature sums of a frame split after its first ``s`` vectors.

    With ``K[a, b] = R_E[a, b, b, a]`` over an orthonormal frame, returns
    ``2 tau`` of the first block, ``2 tau`` of the rest (each the sum of K
    over the block's ordered pairs a != b) and the mixed sum of K over
    (first, rest) pairs.  Blocks of fewer than two vectors give 0.
    """
    K = np.einsum("abba->ab", frame_tensor).copy()
    np.fill_diagonal(K, 0.0)
    return float(K[:s, :s].sum()), float(K[s:, s:].sum()), float(K[:s, s:].sum())


# -- builtin chart registry ----------------------------------------------


def _flat(n: int) -> MetricChart:
    def g(coords):
        m = len(coords)
        return [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]

    return MetricChart(n, tuple((-5.0, 5.0) for _ in range(n)), g, name=f"flat:{n}")


def _sphere(r: float) -> MetricChart:
    from . import jets

    def g(coords):
        theta = coords[0]
        s = jets.sin(theta)
        return [[r * r, 0.0], [0.0, r * r * s * s]]

    return MetricChart(
        2, ((0.15, math.pi - 0.15), (-3.0, 3.0)), g, name=f"sphere:{r:g}"
    )


def _sphere3(r: float) -> MetricChart:
    from . import jets

    def g(coords):
        t1, t2 = coords[0], coords[1]
        s1 = jets.sin(t1)
        s2 = jets.sin(t2)
        return [
            [r * r, 0.0, 0.0],
            [0.0, r * r * s1 * s1, 0.0],
            [0.0, 0.0, r * r * s1 * s1 * s2 * s2],
        ]

    return MetricChart(
        3,
        ((0.2, math.pi - 0.2), (0.2, math.pi - 0.2), (-3.0, 3.0)),
        g,
        name=f"sphere3:{r:g}",
    )


def _half_plane() -> MetricChart:
    def g(coords):
        y = coords[1]
        inv = 1.0 / (y * y)
        return [[inv, 0.0], [0.0, inv]]

    return MetricChart(2, ((-5.0, 5.0), (0.1, 10.0)), g, name="half-plane")


def _polar() -> MetricChart:
    def g(coords):
        r = coords[0]
        return [[1.0, 0.0], [0.0, r * r]]

    return MetricChart(2, ((0.2, 6.0), (-3.0, 3.0)), g, name="polar")


def chart(name: str) -> MetricChart:
    """Look up a builtin chart: flat:n (n <= MAX_DIM), sphere:r, sphere3:r, half-plane, polar."""
    if name == "half-plane":
        return _half_plane()
    if name == "polar":
        return _polar()
    kind, _, param = name.partition(":")
    builders = {"flat": (_flat, int), "sphere": (_sphere, float), "sphere3": (_sphere3, float)}
    if kind in builders:
        build, number = builders[kind]
        try:
            value = number(param)
        except ValueError:
            value = math.nan  # a malformed parameter names no chart
        if kind == "flat" and value > MAX_DIM:
            raise KeyError(f"chart {name!r} has dimension above {MAX_DIM}")
        if 0 < value < math.inf:
            return build(value)
    raise KeyError(f"unknown chart {name!r}")

