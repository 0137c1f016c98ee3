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
  trace of it (``curvature_sums``);
* the metric jets and everything ``ChartPoint`` derives from them carry
  leading point axes: one point is (n,), a batch of P points (P, n).
  Each contraction is one stacked matrix product per point, shaped as
  ``np.tensordot`` shapes it for a lone point, so a point in a batch gets
  the bits it gets alone.  Every check raises for the first point that
  fails it, naming that point, and ``batch_size`` bounds a batch so that
  its jets hold no more floats than one point of a ``MAX_DIM`` chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CasoratiqError,
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


@lru_cache(maxsize=None)
def _tail_axes(ndim: int, axes: tuple) -> tuple:
    k = ndim - len(axes)
    return (*range(k), *(k + i for i in axes))


def tail_transpose(a: np.ndarray, *axes: int) -> np.ndarray:
    """``a.transpose(*axes)`` applied to the trailing axes, the point axes kept in front."""
    return a.transpose(_tail_axes(a.ndim, axes))


def _first(bad: np.ndarray) -> Optional[tuple]:
    """Index of the first point flagged in ``bad``, or None when there is none."""
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


def _row(value, i):
    """Row ``i`` of a batched quantity: a chart point, an array, or a dataclass of arrays."""
    if isinstance(value, ChartPoint):
        return value.row(i)
    if isinstance(value, np.ndarray):
        return value[i]
    return type(value)(*(getattr(value, f)[i] for f in value.__dataclass_fields__))


def batched(compute: Callable) -> cached_property:
    """A cached property that a point taken from a batch reads from its batch.

    The first row to ask has the batch compute the quantity for all its
    points; each row then takes its own row of it.  If the batch's
    computation raises, every row computes the quantity alone, so a
    failing point raises its own error when its evaluation reaches it.
    """
    name = compute.__name__

    @wraps(compute)
    def get(self):
        if self.of is None:
            return compute(self)
        batch, i = self.of
        failed = vars(batch).setdefault("_failed", set())
        if name not in failed:
            try:
                return _row(getattr(batch, name), i)
            except (CasoratiqError, np.linalg.LinAlgError):
                failed.add(name)
        return compute(self)

    return cached_property(get)


def batch_size(n: int) -> int:
    """Points per batch of an n-dimensional scene: P n^5 <= MAX_DIM^5 floats.

    The metric jets of one point of an n-dimensional chart hold n^5
    floats, so a batch holds no more than one point of the largest chart.
    """
    return MAX_DIM**5 // n**5


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

    @cached_property
    def _bounds(self) -> np.ndarray:
        return np.array(self.domain).T

    def require_inside(self, x) -> np.ndarray:
        """``x`` as an array of points (..., dim); raises for the first point outside the box."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, chart dimension is {self.dim}")
        lo, hi = self._bounds
        inside = (lo < x) & (x < hi)
        if not inside.all():
            bad = _first(~inside.all(axis=-1))
            raise DomainError(f"point {x[bad].tolist()} outside domain of chart {self.name!r}")
        return x

    def metric_jets(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian arrays of every metric component at points ``x``.

        ``x`` is one point (n,) or points (P, n).  Returns ``(G0, G1, G2)``
        with ``G1[..., a, b, c] = d_c g_ab`` and ``G2[..., a, b, c, d] =
        d_c d_d g_ab``, the point axes first.  The metric ``G0`` is checked
        for symmetry before it is symmetrized, and for definiteness after;
        either check raises for the first point that fails it.
        """
        x = self.require_inside(x)
        n = self.dim
        rows = self.g(seed_point(x))
        flat = jet_arrays([rows[a][b] for a in range(n) for b in range(n)], x.shape, third=False)
        G0, G1, G2 = (m.reshape(x.shape[:-1] + (n, n) + m.shape[x.ndim :]) for m in flat)
        asym = np.abs(G0 - G0.swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = _first(asym > _SYM_TOL * np.maximum(1.0, np.abs(G0).max(axis=(-2, -1))))
        if bad is not None:
            raise DegenerateMetricError(
                f"metric not symmetric at {x[bad].tolist()} (chart {self.name!r})"
            )
        G0 = 0.5 * (G0 + G0.swapaxes(-1, -2))
        low = np.linalg.eigvalsh(G0).min(axis=-1)
        bad = _first(low <= _PD_TOL)
        if bad is not None:
            raise DegenerateMetricError(
                f"metric not positive definite at {x[bad].tolist()}: min eigenvalue {low[bad]:.3e}"
            )
        G1 = 0.5 * (G1 + G1.swapaxes(-3, -2))
        G2 = 0.5 * (G2 + G2.swapaxes(-4, -3))
        return G0, G1, G2


def plane_area_sq(g: np.ndarray, u, v) -> float:
    """Squared g-area of the parallelogram on u and v; raises when it is degenerate."""
    area = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if not area > 0:
        raise DimensionError("sectional curvature of a degenerate 2-plane")
    return float(area)


_SYMMETRIES = ("antisym_12", "antisym_34", "pair_sym", "bianchi")


def _symmetry_defects(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry of each curvature symmetry defect and ``max(1, max |R|)``, per point.

    The defects R_ijkl + R_jikl, R_ijkl + R_ijlk, R_ijkl - R_klij and the
    first Bianchi sum (shape (4, ...)) are formed one after another in a
    single n^4 buffer.
    """
    buf = np.empty_like(R)
    flat = buf.reshape(R.shape[:-4] + (-1,))
    scale = np.maximum(1.0, np.abs(R, out=buf).reshape(flat.shape).max(axis=-1))
    maxima = []
    for op, perm in ((np.add, (1, 0, 2, 3)), (np.add, (0, 1, 3, 2)), (np.subtract, (2, 3, 0, 1))):
        op(R, tail_transpose(R, *perm), out=buf)
        maxima.append(np.abs(flat, out=flat).max(axis=-1))
    np.add(R, tail_transpose(R, 1, 2, 0, 3), out=buf)
    buf += tail_transpose(R, 2, 0, 1, 3)
    maxima.append(np.abs(flat, out=flat).max(axis=-1))
    return np.array(maxima), scale


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
        maxima, scale = _symmetry_defects(self.riemann)
        return {name: float(m / scale) for name, m in zip(_SYMMETRIES, maxima)}


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """The metric jets of a chart at P points, and what derives from them.

    Every array has the point axes first; a lone point has none.  Built
    from one ``metric_jets`` call.  The inverse metric and its two
    derivatives, the Christoffel symbols, their gradient and the curvature
    are computed from those jets on first use and kept, so every consumer
    shares one copy.  ``row`` hands a point its share of a batch.
    """

    x: np.ndarray
    G0: np.ndarray
    G1: np.ndarray  # G1[..., a, b, c] = d_c g_ab
    G2: np.ndarray  # G2[..., a, b, c, d] = d_c d_d g_ab
    of: Optional[tuple] = field(default=None, repr=False)  # (batch, index) of a row

    @classmethod
    def at(cls, chart: MetricChart, x) -> "ChartPoint":
        x = np.asarray(x, dtype=float)
        return cls(x, *chart.metric_jets(x))

    def row(self, i: int) -> "ChartPoint":
        """Point ``i`` of a batch (P, ...); it reads its Christoffel symbols and
        curvature from the batch (``batched``)."""
        return ChartPoint(self.x[i], self.G0[i], self.G1[i], self.G2[i], of=(self, i))

    @cached_property
    def ginv_jet(self) -> tuple:
        """Matrix jet of g^-1: ``(g^kl, d_m g^kl, d_m d_n g^kl)``, derivative axes before k, l."""
        g = (self.G0, tail_transpose(self.G1, 2, 0, 1), tail_transpose(self.G2, 2, 3, 0, 1))
        try:
            return matrix_inverse(g)
        except np.linalg.LinAlgError as e:
            raise DegenerateMetricError(f"singular metric at {self.x.tolist()}") from e

    @cached_property
    def _first_kind(self) -> np.ndarray:
        # D[i, j, l] = d_i g_jl; returns d_i g_jl + d_j g_il - d_l g_ij
        D = tail_transpose(self.G1, 2, 0, 1)
        return D + D.swapaxes(-3, -2) - tail_transpose(D, 1, 2, 0)

    @batched
    def gamma(self) -> np.ndarray:
        """Levi-Civita connection coefficients ``gamma[k, i, j] = Gamma^k_ij``."""
        n = self.G0.shape[-1]
        lead = self.G0.shape[:-2]
        # the contraction over l is one (n x n) @ (n x n^2) product per point
        fk = tail_transpose(self._first_kind, 2, 0, 1).reshape(lead + (n, n * n))
        return 0.5 * (self.ginv_jet[0] @ fk).reshape(lead + (n, n, n))

    @cached_property
    def dgamma(self) -> np.ndarray:
        """``dgamma[m, k, i, j] = d_m Gamma^k_ij``, exact from the jets."""
        n = self.G0.shape[-1]
        lead = self.G0.shape[:-2]
        # DD[m, i, j, l] = d_m d_i g_jl
        DD = tail_transpose(self.G2, 3, 2, 0, 1)
        Am = DD + DD.swapaxes(-3, -2) - tail_transpose(DD, 0, 2, 3, 1)
        ginv, dginv = self.ginv_jet[:2]
        fk = tail_transpose(self._first_kind, 2, 0, 1).reshape(lead + (n, n * n))
        am = tail_transpose(Am, 3, 0, 1, 2).reshape(lead + (n, n**3))
        return 0.5 * (
            (dginv.reshape(lead + (n * n, n)) @ fk).reshape(lead + (n,) * 4)
            + (ginv @ am).reshape(lead + (n,) * 4).swapaxes(-4, -3)
        )

    @batched
    def curvature(self) -> CurvaturePoint:
        """Fully covariant curvature, checked for the curvature symmetries.

        The check raises for the first point whose worst relative defect
        exceeds 1e-6.
        """
        gamma, dgamma = self.gamma, self.dgamma
        n = self.G0.shape[-1]
        lead = self.G0.shape[:-2]
        # Rup[i, j, k, m] = d_i Gamma^m_jk - d_j Gamma^m_ik
        #                 + Gamma^p_jk Gamma^m_ip - Gamma^p_ik Gamma^m_jp
        # and both products are read from GG[a, b, c, d] = Gamma^p_ab Gamma^c_dp
        GG = (
            tail_transpose(gamma, 1, 2, 0).reshape(lead + (n * n, n))
            @ tail_transpose(gamma, 2, 0, 1).reshape(lead + (n, n * n))
        ).reshape(lead + (n,) * 4)
        rup = (
            tail_transpose(dgamma, 0, 2, 3, 1)
            - tail_transpose(dgamma, 2, 0, 3, 1)
            + tail_transpose(GG, 3, 0, 1, 2)
            - tail_transpose(GG, 0, 3, 1, 2)
        )
        R = rup @ self.G0[..., None, None, :, :]
        maxima, scale = _symmetry_defects(R)
        worst = maxima.max(axis=0) / scale
        bad = _first(worst > 1e-6)
        if bad is not None:
            raise DegenerateMetricError(
                f"curvature symmetries violated ({worst[bad]:.3e}) at {self.x[bad].tolist()}; "
                "metric field is likely not smooth enough here"
            )
        return CurvaturePoint(x=self.x, gamma=gamma, riemann=R, metric=self.G0)


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

