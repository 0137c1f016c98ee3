"""Charts, connections, curvature and frame tensors.

Conventions used throughout the engine:

* stored curvature is fully covariant: ``R[i, j, k, l]`` is the
  curvature form on the coordinate vectors in slot order, so
  ``R(X, Y, Z, W) = R[i, j, k, l] X^i Y^j Z^k W^l``;
* the sign is fixed so that the round unit 2-sphere has sectional
  curvature +1, i.e. ``R(X, Y, Y, X) > 0`` on the sphere;
* a chart whose metric entries are all literals is passive: its matrix
  is built and checked for symmetry once per compiled program
  (``_ProgramMetric.literal``), and ``metric_jets`` returns it with zero
  derivatives, seeding and evaluating nothing; a chart point's Cholesky
  factor (``ChartPoint.L``) decides definiteness, whatever the units;
* a chart point whose metric has zero first and second derivatives
  (``ChartPoint.constant``) has exactly zero Christoffel symbols and
  curvature, returned with no product; otherwise R is read from the
  metric's second derivatives and the Christoffel symbols with one n^5
  product (``ChartPoint.curvature``), and the n^5 chart-basis gradient
  of the Christoffel symbols appears only in ``christoffel_with_grad``;
* over an orthonormal frame with rows ``e_a`` the curvature is read from
  one frame tensor ``R_E[a, b, c, d] = R(e_a, e_b, e_c, e_d)``
  (``frame_contraction``); every ambient curvature sum is a block sum of
  its pairs R_E[a, b, b, a] (``curvature_sums``);
* the metric jets and everything ``ChartPoint`` derives from them, the
  orthonormal frames and the frame tensors carry leading point axes: a
  batch of P points is (P, n), and the scenes pass every chart point in
  such a batch, a single point as P = 1.  Each contraction is one
  stacked matrix product per point, shaped as ``np.tensordot`` shapes it
  for one point without an axis (``tensordot``), so a point in a batch
  gets the bits it gets alone; the public functions still take such a
  point (n,).  Every check raises for the first point that fails it,
  naming that point, and ``batch_size`` bounds a batch so that its jets
  hold no more floats than one point of a ``MAX_DIM`` chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateMetricError,
    DomainError,
)
from .expressions import compile_program
from .jets import jet_arrays, matrix_inverse, seed_point

__all__ = [
    "MetricChart",
    "ChartPoint",
    "CurvaturePoint",
    "christoffel",
    "christoffel_with_grad",
    "riemann",
    "frame_contraction",
    "curvature_sums",
    "chart",
    "MAX_DIM",
]

# largest dimension of a chart or a quaternionic structure: a chunk is
# budgeted n^5 floats per point (batch_size)
MAX_DIM = 32
_SYM_TOL = 1e-14


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


def batch_size(n: int) -> int:
    """Points per batch of an n-dimensional scene: P n^5 <= MAX_DIM^5 floats.

    A point's second-order metric jets and its curvature hold n^4 floats
    each; the budget of n^5 per point keeps a batch within that of one
    point of the largest chart.
    """
    return MAX_DIM**5 // n**5


class _ProgramMetric:
    """The ``g`` of a chart whose metric is a ``dim x dim`` matrix of expression texts.

    Its entries run as one program (``compile_program``), which checks
    that every value and derivative it returns is finite.  There is one
    per tuple of texts (``_program_metric``), so what it works out is
    worked out once per program, whichever chart holds it.
    """

    def __init__(self, program, dim: int):
        self.program = program
        self.dim = dim

    def __call__(self, coords) -> list:
        values, n = self.program(coords), self.dim
        return [values[i : i + n] for i in range(0, n * n, n)]

    @cached_property
    def literal(self) -> Optional[np.ndarray]:
        """The metric when every entry is a literal, symmetric and finite.

        It is the symmetrized matrix that ``metric_jets`` would return at
        any point.  None when an entry reads a coordinate, and when the
        literal matrix fails a check: ``metric_jets`` then runs the program,
        so the error and the point it names are those of any other metric,
        as they are when the chart point's factor fails (``ChartPoint.L``).
        """
        passive = self.program.passive
        if passive is None or (passive[0] >= 0).any():
            return None
        G0 = passive[1].reshape(self.dim, self.dim)
        try:
            # a failure is not reported here, so the point and chart it would name are unused
            G0 = _checked_metric(G0, G0[0], "")
        except DegenerateMetricError:
            return None
        return G0 if np.isfinite(G0).all() else None


@lru_cache(maxsize=1024)
def _program_metric(texts: tuple, dim: int) -> _ProgramMetric:
    return _ProgramMetric(compile_program(texts), dim)


def _checked_metric(G0: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    """``G0`` (..., n, n) symmetrized, checked for symmetry before.

    The check raises for the first of the points ``x`` that fails it, and
    is written so that a NaN fails it.  ``ChartPoint.L`` decides definiteness.
    """
    asym = np.abs(G0 - G0.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = _first(~(asym <= _SYM_TOL * np.maximum(1.0, np.abs(G0).max(axis=(-2, -1)))))
    if bad is not None:
        raise DegenerateMetricError(f"metric not symmetric at {x[bad].tolist()} (chart {name!r})")
    return 0.5 * (G0 + G0.swapaxes(-1, -2))


@dataclass(frozen=True)
class MetricChart:
    """A single coordinate domain with a smooth metric component field.

    ``g`` maps a list of coordinate jets (or floats) to an ``dim x dim``
    nested sequence of jets / numbers.  Registry and scene-file charts
    build it from expression texts (``from_exprs``); when every entry is
    a literal, the metric is built and checked once per program, and
    ``metric_jets`` returns it with no jets.
    """

    dim: int
    domain: tuple[tuple[float, float], ...]
    g: Callable
    name: str = ""

    @classmethod
    def from_exprs(cls, dim: int, box, rows, name: str) -> "MetricChart":
        """The chart whose metric is the ``dim x dim`` matrix ``rows`` of expression texts.

        The entries compile into one program (``compile_program``), which
        checks that every value and derivative it returns is finite.
        """
        return cls(dim, box, _program_metric(tuple(str(e) for row in rows for e in row), dim), name)

    @cached_property
    def _bounds(self) -> np.ndarray:
        return np.array(self.domain).T

    def _as_points(self, x) -> np.ndarray:
        """``x`` as an array of points (..., dim); raises when its last axis is not ``dim``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, chart dimension is {self.dim}")
        return x

    def require_inside(self, x) -> np.ndarray:
        """``x`` as an array of points (..., dim); raises for the first point outside the box."""
        x = self._as_points(x)
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
        for symmetry before it is symmetrized, and G1 and G2 for being
        finite; each check raises for the first point that fails it.  A
        literal metric (``_ProgramMetric.literal``) was checked once for its
        program: it is returned at every point, with zero G1 and G2, and
        nothing is seeded or evaluated.  The box is checked before, by
        ``ChartPoint.at`` or ``SmoothMap.jets``, and definiteness after, by
        the chart point's factor (``ChartPoint.L``).
        """
        x = self._as_points(x)
        n = self.dim
        lead = x.shape[:-1]
        literal = getattr(self.g, "literal", None)
        if literal is not None:
            return (
                np.broadcast_to(literal, lead + (n, n)).copy(),
                np.zeros(lead + (n,) * 3),
                np.zeros(lead + (n,) * 4),
            )
        # nothing reads a metric's third derivatives, so its jets are seeded at order 2
        rows = self.g(seed_point(x, order=2))
        flat = jet_arrays([rows[a][b] for a in range(n) for b in range(n)], x.shape)
        G0, G1, G2 = (m.reshape(lead + (n, n) + m.shape[x.ndim :]) for m in flat)
        G0 = _checked_metric(G0, x, self.name)
        G1 = 0.5 * (G1 + G1.swapaxes(-3, -2))
        G2 = 0.5 * (G2 + G2.swapaxes(-4, -3))
        # a Hessian entry near the largest float overflows when it is symmetrized
        finite = np.isfinite(G1).all(axis=(-3, -2, -1)) & np.isfinite(G2).all(axis=(-4, -3, -2, -1))
        bad = _first(~finite)
        if bad is not None:
            raise DomainError(
                f"metric jets not finite at {x[bad].tolist()} (chart {self.name!r}): "
                "a derivative of the metric overflows"
            )
        return G0, G1, G2


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
    """Christoffel symbols and covariant curvature at chart points, point axes first."""

    x: np.ndarray
    gamma: np.ndarray  # gamma[k, i, j] = Gamma^k_ij, symmetric in (i, j)
    riemann: np.ndarray  # R[i, j, k, l] fully covariant
    metric: np.ndarray


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """The metric jets of a chart at P points, and what derives from them.

    Every array has the point axes first.  Built from one
    ``metric_jets`` call.  The stacked Cholesky factor ``L`` of G0 = L L^T,
    taken as the point is built, is its definiteness check: it completes
    when the condition number of the diagonally scaled G0 is below about
    1/(n^(3/2) u) (Demmel, LAPACK Working Note 14, 1989), which no unit
    moves.  The first point whose own factor fails raises; only its
    eigenvalues are computed, to say whether it is not positive definite
    or too ill-conditioned, naming kappa and the ``label``.  The inverse
    metric, Christoffel symbols and curvature are computed from the jets
    on first use and kept, so every consumer shares one copy.
    """

    x: np.ndarray
    G0: np.ndarray
    G1: np.ndarray  # G1[..., a, b, c] = d_c g_ab
    G2: np.ndarray  # G2[..., a, b, c, d] = d_c d_d g_ab
    label: str  # names the chart (and its side in a map) in the kappa message
    L: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "L", np.linalg.cholesky(self.G0))
        except np.linalg.LinAlgError:
            for i in np.ndindex(self.G0.shape[:-2]):
                try:
                    np.linalg.cholesky(self.G0[i])
                except np.linalg.LinAlgError as e:
                    low, at = np.linalg.eigvalsh(self.G0[i])[0], self.x[i].tolist()
                    if not low > 0.0:
                        message = f"metric not positive definite at {at}: min eigenvalue {low:.3e}"
                    else:
                        message = (f"metric too ill-conditioned (\u03ba \u2248 "
                                   f"{np.linalg.cond(self.G0[i]):.1e}) at {at} ({self.label}): {e}")
                    raise DegenerateMetricError(message) from e
            raise

    @classmethod
    def at(cls, chart: MetricChart, x) -> "ChartPoint":
        """The chart at a point (n,) or at points (P, n), checked against its box."""
        x = chart.require_inside(x)
        return cls(x, *chart.metric_jets(x), f"chart {chart.name!r}")

    @cached_property
    def ginv(self) -> np.ndarray:
        """The inverse metric g^kl."""
        try:
            return np.linalg.inv(self.G0)
        except np.linalg.LinAlgError as e:
            raise DegenerateMetricError(f"singular metric at {self.x.tolist()}") from e

    @cached_property
    def _first_kind(self) -> np.ndarray:
        # D[i, j, l] = d_i g_jl; returns d_i g_jl + d_j g_il - d_l g_ij
        D = tail_transpose(self.G1, 2, 0, 1)
        return D + D.swapaxes(-3, -2) - tail_transpose(D, 1, 2, 0)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita connection coefficients ``gamma[k, i, j] = Gamma^k_ij``."""
        n = self.G0.shape[-1]
        lead = self.G0.shape[:-2]
        if self.constant:
            return np.zeros(lead + (n, n, n))
        # the contraction over l is one (n x n) @ (n x n^2) product per point
        fk = tail_transpose(self._first_kind, 2, 0, 1).reshape(lead + (n, n * n))
        return 0.5 * (self.ginv @ fk).reshape(lead + (n, n, n))

    @cached_property
    def constant(self) -> bool:
        """True when the metric has zero first and second derivatives at every point.

        The Christoffel symbols and the curvature are then exactly zero,
        whatever the chart, and are returned as zeros with no product.
        """
        return not (self.G1.any() or self.G2.any())

    @cached_property
    def curvature(self) -> CurvaturePoint:
        """Fully covariant curvature, checked for the curvature symmetries.

        In the convention here R_ijkl is the negative of do Carmo's
        (*Riemannian Geometry*, ch. 4):

            R_ijkl = 1/2 (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk - d_j d_k g_il)
                     + Gamma^m_ik Gamma_m,jl - Gamma^m_jk Gamma_m,il,

        whose only n^5 term is the product Gamma^m_ik Gamma_m,jl.  That
        product is symmetric under (ik) <-> (jl), so R is half of
        W_ijkl - W_ijlk with W_ijkl = d_i d_k g_jl + d_j d_l g_ik
        + 2 Gamma^m_ik Gamma_m,jl.  The check raises for the first point
        whose worst relative defect exceeds 1e-6 or is not a number; a
        defect that is not a number means that R is not finite, and the
        error says so.
        """
        gamma = self.gamma
        n = self.G0.shape[-1]
        lead = self.G0.shape[:-2]
        if self.constant:
            return CurvaturePoint(self.x, gamma, np.zeros(lead + (n,) * 4), self.G0)
        # GF[i, k, j, l] = 2 Gamma^m_ik Gamma_m,jl = Gamma^m_ik (d_j g_lm + d_l g_jm - d_m g_jl)
        fk = tail_transpose(self._first_kind, 2, 0, 1).reshape(lead + (n, n * n))
        GF = (tail_transpose(gamma, 1, 2, 0).reshape(lead + (n * n, n)) @ fk).reshape(lead + (n,) * 4)
        DD = tail_transpose(self.G2, 2, 0, 3, 1)  # DD[i, j, k, l] = d_i d_k g_jl
        W = DD + tail_transpose(DD, 1, 0, 3, 2)
        W += tail_transpose(GF, 0, 2, 1, 3)
        R = 0.5 * (W - W.swapaxes(-1, -2))
        maxima, scale = _symmetry_defects(R)
        worst = maxima.max(axis=0) / scale
        bad = _first(~(worst <= 1e-6))
        if bad is not None and math.isnan(worst[bad]):
            # the jets are finite, so a NaN defect is a term of the formula that overflows
            raise DomainError(
                f"curvature not finite at {self.x[bad].tolist()}: "
                "the metric's derivatives overflow in its formula"
            )
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
    This is the only place that forms the derivative of the inverse
    metric and the n^5 chart-basis gradient of Gamma: the
    curvature reads the metric's second derivatives directly, and the
    mixed identity of a submersion reads the gradient along its frames
    only (``maps._oneill_derivatives``).
    """
    pt = ChartPoint.at(chart, x)
    n = pt.G0.shape[-1]
    lead = pt.G0.shape[:-2]
    # DD[m, i, j, l] = d_m d_i g_jl, and Am[m, i, j, l] = d_m of the first-kind symbols
    DD = tail_transpose(pt.G2, 3, 2, 0, 1)
    Am = DD + DD.swapaxes(-3, -2) - tail_transpose(DD, 0, 2, 3, 1)
    ginv, dginv = matrix_inverse((pt.G0, tail_transpose(pt.G1, 2, 0, 1)))
    fk = tail_transpose(pt._first_kind, 2, 0, 1).reshape(lead + (n, n * n))
    am = tail_transpose(Am, 3, 0, 1, 2).reshape(lead + (n, n**3))
    dgamma = 0.5 * (
        (dginv.reshape(lead + (n * n, n)) @ fk).reshape(lead + (n,) * 4)
        + (ginv @ am).reshape(lead + (n,) * 4).swapaxes(-4, -3)
    )
    return pt.gamma, dgamma


def riemann(chart: MetricChart, x) -> CurvaturePoint:
    """Fully covariant curvature tensor of ``chart`` at ``x``."""
    return ChartPoint.at(chart, x).curvature


@lru_cache(maxsize=256)
def _contraction(shape_a: tuple, shape_b: tuple, axes: tuple, ndim: int) -> tuple:
    """The axis orders and shapes of ``tensordot`` on operands of these shapes."""
    k = len(shape_a) - ndim
    lead, sa, sb = shape_a[:k], shape_a[k:], shape_b[k:]
    axes_a, axes_b = axes
    rest_a = [i for i in range(len(sa)) if i not in axes_a]
    rest_b = [i for i in range(len(sb)) if i not in axes_b]
    inner = math.prod(sa[i] for i in axes_a)
    return (
        _tail_axes(len(shape_a), (*rest_a, *axes_a)), lead + (-1, inner),
        _tail_axes(len(shape_b), (*axes_b, *rest_b)), lead + (inner, -1),
        lead + tuple(sa[i] for i in rest_a) + tuple(sb[i] for i in rest_b),
    )


def tensordot(a: np.ndarray, b: np.ndarray, axes: tuple, ndim: int) -> np.ndarray:
    """``np.tensordot(a, b, axes)`` over the last ``ndim`` axes of ``a``, point axes in front.

    ``a`` and ``b`` have the same point axes, and ``axes`` is a pair of
    tuples.  The contraction is one stacked matmul per point, shaped as
    ``np.tensordot`` shapes it for one point without an axis, so a point
    in a batch gets the bits it gets alone.  The axis orders and shapes
    are worked out once per operand shapes.
    """
    order_a, shape_a, order_b, shape_b, out = _contraction(a.shape, b.shape, axes, ndim)
    at = a.transpose(order_a).reshape(shape_a)
    return (at @ b.transpose(order_b).reshape(shape_b)).reshape(out)


def frame_contraction(R: np.ndarray, E1, E2, E3, E4) -> np.ndarray:
    """Components ``R[a, b, c, d] E1[i, a] E2[j, b] E3[k, c] E4[l, d]``, point axes first.

    Each frame is contracted into one slot in turn, which costs O(k n^4)
    per step where the single four-fold sum costs O(k^4 n^4); see Smith &
    Gray, *opt_einsum*, JOSS 2018, on contraction order.
    """
    out = R
    for E in (E1, E2, E3, E4):
        out = tensordot(out, E, ((0,), (1,)), 4)
    return out


def curvature_sums(pairs: np.ndarray, s: int) -> tuple:
    """Scalar curvature sums of a frame split after its first ``s`` vectors.

    ``pairs`` (..., k, k) holds K[a, b] = R(e_a, e_b, e_b, e_a) over an
    orthonormal frame: R_E[a, b, b, a] of a frame tensor, or the closed form
    ``quaternionic.space_form_pairs``.  Returns ``2 tau`` of the first block,
    ``2 tau`` of the rest (each the sum of K over the block's ordered pairs
    a != b) and the mixed sum of K over (first, rest) pairs.  Blocks of fewer
    than two vectors give 0.  Each sum has the point axes of K.
    """
    K = np.array(pairs, dtype=float)
    n = K.shape[-1]
    K.reshape(K.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0  # the diagonal a = b
    first, rest = slice(None, s), slice(s, None)
    blocks = ((first, first), (rest, rest), (first, rest))
    return tuple(K[..., rows, cols].sum(axis=(-2, -1)) for rows, cols in blocks)


# -- builtin chart registry ----------------------------------------------


def _euclidean(n: int) -> tuple:
    """``(dim, box, rows)`` of flat:n."""
    return n, ((-5.0, 5.0),) * n, [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _round(r: float, box: tuple) -> tuple:
    """``(dim, box, rows)`` of the round sphere of radius r in polar angles.

    g_kk = r r sin(x1)^2 ... sin(x_{k-1})^2, each written as the
    left-to-right product r*r*sin(x1)*sin(x1)*..., whose prefixes value
    numbering shares between the entries.
    """
    n, entry, rows = len(box), f"{r!r}*{r!r}", []
    for k in range(n):
        rows.append(["0"] * k + [entry] + ["0"] * (n - k - 1))
        entry += f"*sin(x{k + 1})*sin(x{k + 1})"
    return n, box, rows


_PARAMETRIZED = {
    "flat": (int, _euclidean),
    "sphere": (float, lambda r: _round(r, ((0.15, math.pi - 0.15), (-3.0, 3.0)))),
    "sphere3": (float, lambda r: _round(r, ((0.2, math.pi - 0.2),) * 2 + ((-3.0, 3.0),))),
}
_FIXED = {
    "half-plane": (2, ((-5.0, 5.0), (0.1, 10.0)), [["1/(x2*x2)", "0"], ["0", "1/(x2*x2)"]]),
    "polar": (2, ((0.2, 6.0), (-3.0, 3.0)), [["1", "0"], ["0", "x1*x1"]]),
}


@lru_cache(maxsize=64)
def chart(name: str) -> MetricChart:
    """Look up a builtin chart: flat:n (n <= MAX_DIM), sphere:r, sphere3:r, half-plane, polar.

    Each name builds its chart once per process, from its metric texts
    (``MetricChart.from_exprs``); the chart is immutable, so every caller
    shares it.
    """
    if name in _FIXED:
        return MetricChart.from_exprs(*_FIXED[name], name)
    kind, _, param = name.partition(":")
    if kind in _PARAMETRIZED:
        number, build = _PARAMETRIZED[kind]
        try:
            value = number(param)
        except ValueError:
            value = math.nan  # a malformed parameter names no chart
        if kind == "flat" and value > MAX_DIM:
            raise KeyError(f"chart {name!r} has dimension above {MAX_DIM}")
        if 0 < value < math.inf:
            return MetricChart.from_exprs(*build(value), f"{kind}:{value:g}")
    raise KeyError(f"unknown chart {name!r}")
