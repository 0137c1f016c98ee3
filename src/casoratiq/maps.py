"""Riemannian maps and submersions: splits, fundamental tensors, Gauss residuals.

Everything at the source points of a chunk is read from one
``MapPoint``: the map jets, to third order for a submersion and to second
for a Riemannian map, and the second-order source metric jets are
computed once there, and the Christoffel symbols and the curvature of
source and target are derived from them on first use.  A coordinate
map, whose components are bare coordinates or literals, and a literal
metric are not run: their jets are read off the compiled program.  A ``MapPoint``
holds P points at once, the point axes first, as in ``geometry``; a
scene builds one per chunk of its points, a single point being a chunk
of one.
``differential`` takes a ``MapPoint``, or builds one from coordinates,
and hangs it on the ``SceneSplit`` that every other function here takes;
the split, B, T, A, the vertical bracket and the Gauss residuals keep
the point axes, so a chunk computes each of them once for all its
points, and each point reads its column.  Both frames come from one
SVD of dF between g-orthonormal frames (``differential``), which decides
the rank and the isometry too.
Every contraction is one stacked product per point, shaped as a point
without an axis would shape it, so a point in a chunk gets the bits it
gets alone, and the public functions still take such a point.  The
split holds one frame array per side, [horizontal; vertical] in the
source and [range; range_perp] in the target, and one curvature frame
tensor over each, from which every Gauss residual reads its blocks.

The O'Neill tensors are read off one frame jet of the horizontal
projector P_h over the source frame E = [horizontal; vertical]
(``SceneSplit.projector``): P_h, its derivative along every frame vector
and its mixed second derivatives along the (horizontal, vertical) frame
pairs.  With constant-component extensions both T and A collapse to
(1 - 2 P_h)(nabla_X P_h) with X the vertical or horizontal part of the
first argument, so T_{v_j} and A_{h_i} are that operator along one frame
vector; tensoriality makes the result extension independent, which the
tests assert rather than assume.  T, A, the vertical bracket and the
covariant derivatives of T and A that the mixed curvature identity reads
(``_oneill_derivatives``) are all taken on the split frames; nothing is
built on the chart basis, and no derivative is taken by finite
differences.  On a constant source chart under a map with zero second
and third derivatives (a flat product projection) the projector is
constant, and ``SceneSplit.projector`` is None: T, A, the bracket, the
covariant derivatives and every Gauss term that reads them are exact
zeros, and each consumer gives them with no product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionError,
    NotRiemannianMapError,
    RankError,
)
from .geometry import (
    ChartPoint,
    MetricChart,
    _first,
    _symmetry_defects,
    frame_contraction,
    tail_transpose,
    tensordot,
)
from .jets import frame_product, frame_solve, jet_arrays, seed_point

__all__ = [
    "SmoothMap",
    "MapPoint",
    "SceneSplit",
    "FundamentalTensor",
    "SubmersionResiduals",
    "differential",
    "second_fundamental_form",
    "oneill_T",
    "oneill_A",
    "vertical_bracket",
    "gauss_residual_map",
    "gauss_residual_submersion",
]

_KERNEL_TOL = 1e-8
_ISOMETRY_TOL = 1e-6

RIEMANNIAN_MAP = "riemannian_map"
RIEMANNIAN_SUBMERSION = "riemannian_submersion"


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map between charts with a declared mode and rank."""

    source: MetricChart
    target: MetricChart
    F: Callable  # list of jets -> list of jets, length = target.dim
    mode: str
    rank: int
    name: str = ""

    def __post_init__(self):
        if self.mode not in (RIEMANNIAN_MAP, RIEMANNIAN_SUBMERSION):
            raise ValueError(f"unknown map mode {self.mode!r}")
        if self.mode == RIEMANNIAN_SUBMERSION and self.rank != self.target.dim:
            raise RankError(
                f"submersion rank {self.rank} must equal target dimension {self.target.dim}"
            )

    def jets(self, x) -> tuple:
        """Value and derivatives of the map at a point (n,) or points (P, n).

        Returns ``(y, dF, d2F, d3F)`` with ``dF[..., a, mu] = d_mu F^a``,
        ``d2F[..., a, mu, nu] = d_mu d_nu F^a`` and
        ``d3F[..., a, mu, nu, la] = d_mu d_nu d_la F^a``, the point axes first.
        Only a submersion's projector reads the third derivatives; a
        Riemannian map's jets are seeded at order 2, and its ``d3F`` is None.
        A coordinate map, whose components are bare coordinates or literals
        (``CompiledProgram.passive``), is not run: y is read off x, dF is
        its fixed 0/1 matrix, and the higher derivatives are zeros.  A map
        of literals alone has dF = 0, which the rank check then rejects.
        The box checks of source and target raise for the first point outside.
        """
        x = self.source.require_inside(x)
        submersion = self.mode == RIEMANNIAN_SUBMERSION
        passive = getattr(self.F, "passive", None)
        lead, n = x.shape[:-1], x.shape[-1]
        # a coordinate beyond the source dimension is named when the program runs
        if passive is not None and passive[0].max() < n:
            index, values = passive
            read = index >= 0
            y = np.where(read, x[..., index], values)
            self.target.require_inside(y)
            m = len(index)
            dF = np.zeros(lead + (m, n))
            dF[..., read, index[read]] = 1.0
            d3F = np.zeros(lead + (m, n, n, n)) if submersion else None
            return y, dF, np.zeros(lead + (m, n, n)), d3F
        # components that are all constants carry no third derivatives; their
        # differential fails the rank check before anything could read them
        y, dF, d2F, *third = jet_arrays(self.F(seed_point(x, 3 if submersion else 2)), x.shape)
        self.target.require_inside(y)
        return y, dF, d2F, third[0] if third else None


@dataclass(frozen=True, eq=False)
class MapPoint:
    """The jets of a map at P source points, and what derives from them.

    Every array has the point axes first.  Built from one ``smap.jets``
    call.  The source and target chart points, which hold the checked
    metrics, are computed from jets on first use and kept, so each is
    paid for once and only by the consumers that need it.
    """

    smap: SmoothMap
    x: np.ndarray
    y: np.ndarray
    dF: np.ndarray  # dF[..., a, mu] = d_mu F^a
    d2F: np.ndarray  # d2F[..., a, mu, nu] = d_mu d_nu F^a
    d3F: Optional[np.ndarray]  # d3F[..., a, mu, nu, la] = d_mu d_nu d_la F^a; submersions only

    @classmethod
    def at(cls, smap: SmoothMap, x) -> "MapPoint":
        """The map at a point (n,) or at points (P, n)."""
        x = np.asarray(x, dtype=float)
        return cls(smap, x, *smap.jets(x))

    # SmoothMap.jets has checked x and y against the boxes
    @cached_property
    def source(self) -> ChartPoint:
        chart = self.smap.source
        return ChartPoint(self.x, *chart.metric_jets(self.x), f"source chart {chart.name!r}")

    @cached_property
    def target(self) -> ChartPoint:
        chart = self.smap.target
        return ChartPoint(self.y, *chart.metric_jets(self.y), f"target chart {chart.name!r}")


def _largest(a: np.ndarray, ndim: int) -> np.ndarray:
    """Largest absolute entry over the last ``ndim`` axes, at every point; 0 when they are empty."""
    if not a.size:
        return np.zeros(a.shape[: a.ndim - ndim])
    return np.abs(a).max(axis=tuple(range(-ndim, 0)))


@dataclass(frozen=True)
class SceneSplit:
    """The split frame of each side of the map, one g-orthonormal array per side.

    ``source_frame`` is E1 = [horizontal; vertical] (..., n1, n1), in the
    source metric, and ``target_frame`` is E2 = [range; range_perp]
    (..., n2, n2), in the target metric, one chart vector per row.  Each
    splits after its first ``s`` rows, s being the rank of the map, and
    ``horizontal``, ``vertical``, ``range`` and ``range_perp`` are views
    of those rows.  ``isometry_residual`` is the spectral norm of Gram - I,
    Gram being the target-metric Gram matrix of dF of the horizontal
    frame, so it does not depend on the horizontal basis;
    ``kernel_residual`` is the largest entry of dF of the vertical frame.
    ``point`` is the context the split was taken at; every quantity that
    depends only on the point is read from it.  Like the point, a split
    holds P points at once, point axes first.
    """

    point: MapPoint
    source_frame: np.ndarray
    target_frame: np.ndarray
    isometry_residual: np.ndarray
    kernel_residual: np.ndarray

    @property
    def s(self) -> int:
        return self.point.smap.rank

    @property
    def ell(self) -> int:
        return self.source_frame.shape[-2] - self.s

    @property
    def horizontal(self) -> np.ndarray:
        return self.source_frame[..., : self.s, :]

    @property
    def vertical(self) -> np.ndarray:
        return self.source_frame[..., self.s :, :]

    @property
    def range(self) -> np.ndarray:
        return self.target_frame[..., : self.s, :]

    @property
    def range_perp(self) -> np.ndarray:
        return self.target_frame[..., self.s :, :]

    @cached_property
    def source_curvature(self) -> np.ndarray:
        """``R1[a, b, c, d]`` over the source frame [horizontal; vertical]."""
        return _frame_tensor(self.point.source, self.source_frame)

    @cached_property
    def projector(self) -> Optional["_Projector"]:
        """The frame jet of the horizontal projector of a submersion over the source frame.

        P_h = W (J W)^-1 J with J = dF and W = g1^-1 J^T projects onto
        the g1-orthogonal complement of ker dF.  It is carried as a frame
        jet (``jets.frame_solve``, ``jets.frame_product``): the metric's
        second derivatives and the map's third are read along the
        (horizontal, vertical) frame pairs only, and every derivative is
        exact.  See ``_Projector`` for what it holds.  On a constant source
        chart (``ChartPoint.constant``) under a map whose second and third
        derivatives are all zero (a flat product projection) the projector
        is constant, and this is None: every derivative of P_h is zero, so
        T = A = 0, the vertical bracket is zero and so are the covariant
        derivatives of T and A.  Each consumer reads that fact and forms
        none of them, and nothing reads P_h itself, so it is not formed.
        """
        pt = self.point
        if pt.smap.mode != RIEMANNIAN_SUBMERSION:
            raise DimensionError("O'Neill tensors are defined for submersions only")
        src, E, s = pt.source, self.source_frame, self.s
        if src.constant and not (pt.d2F.any() or pt.d3F.any()):
            return None
        J = (pt.dF, *_frame_jet(pt.d2F, pt.d3F, E, s))
        Jt = tuple(m.swapaxes(-1, -2) for m in J)
        W = frame_solve((src.G0, *_frame_jet(src.G1, src.G2, E, s)), src.ginv, Jt, s)
        M = frame_product(J, W, s)
        C = frame_solve(M, np.linalg.inv(M[0]), J, s)  # C = (J W)^-1 J
        Ph, dPh, X = frame_product(W, C, s)
        N, gamma = dPh, None
        if not src.constant:
            gamma = _along(src.gamma.swapaxes(-3, -2), E)
            Pd = Ph[..., None, :, :]  # P_h against the frame axis
            N = dPh + gamma @ Pd - Pd @ gamma
        Q = np.eye(Ph.shape[-1]) - Ph
        L = (Q - Ph)[..., None, :, :] @ N
        return _Projector(Ph, dPh, X, N, L, gamma)

    @cached_property
    def target_curvature(self) -> np.ndarray:
        """``R2[a, b, c, d]`` over the target frame [range; range_perp]."""
        return _frame_tensor(self.point.target, self.target_frame)


def _frame_tensor(pt: ChartPoint, E: np.ndarray) -> np.ndarray:
    """The curvature of ``pt`` over the rows of E; zeros, with no product, for a constant chart."""
    if pt.constant:
        return np.zeros(E.shape[:-2] + (E.shape[-2],) * 4)
    return frame_contraction(pt.curvature.riemann, E, E, E, E)


def differential(smap: SmoothMap, x) -> SceneSplit:
    """Split the tangent spaces at ``x`` along the differential of the map.

    ``x`` is a source point (n,), points (P, n) or the ``MapPoint`` of
    either; the split has the same point axes.

    The split is one SVD of dF between g-orthonormal frames: with the chart
    points' factors g1 = L1 L1^T and g2 = L2 L2^T (``ChartPoint.L``),
    M = L2^T dF L1^-T = U S V^T.  The rank is the number of singular values
    above 1e-8, the source frame [horizontal; vertical] is the rows of
    V^T L1^-1 and the target frame [range; range_perp] is the rows of
    U^T L2^-1, each g-orthonormal and already in that order.  dF maps the
    i-th horizontal row to s_i times the i-th range row, so the horizontal
    Gram matrix of dF is diag(s^2) in the target metric, and the isometry
    residual is its distance from the identity in the spectral norm,
    max |s_i^2 - 1| over the rank, whatever the basis; it must be at most
    1e-6.  None of this depends on the units of either side's coordinates.
    Each check raises for the first point that fails it.
    """
    pt = x if isinstance(x, MapPoint) else MapPoint.at(smap, x)
    L1, L2 = pt.source.L, pt.target.L
    n1 = smap.source.dim
    lead = pt.x.shape[:-1]

    M = L2.swapaxes(-1, -2) @ np.linalg.solve(L1, pt.dF.swapaxes(-1, -2)).swapaxes(-1, -2)
    U, svals, Vt = np.linalg.svd(M)
    svals = np.concatenate([svals, np.zeros(lead + (n1 - svals.shape[-1],))], axis=-1)
    ranks = np.sum(svals > _KERNEL_TOL, axis=-1)
    bad = _first(ranks != smap.rank)
    if bad is not None:
        raise RankError(
            f"differential rank {ranks[bad]} does not match declared rank {smap.rank} "
            f"at {pt.x[bad].tolist()} (singular values {svals[bad].tolist()})"
        )
    rank = smap.rank
    iso_residual = _largest(svals[..., :rank] ** 2 - 1.0, 1)
    bad = _first(~(iso_residual <= _ISOMETRY_TOL))
    if bad is not None:
        raise NotRiemannianMapError(
            f"differential is not isometric on the horizontal space at {pt.x[bad].tolist()} "
            f"(residual {iso_residual[bad]:.3e})"
        )
    source_frame = np.linalg.solve(L1.swapaxes(-1, -2), Vt.swapaxes(-1, -2)).swapaxes(-1, -2)
    return SceneSplit(
        point=pt,
        source_frame=source_frame,
        target_frame=np.linalg.solve(L2.swapaxes(-1, -2), U).swapaxes(-1, -2),
        isometry_residual=iso_residual,
        kernel_residual=_largest(pt.dF @ source_frame[..., rank:, :].swapaxes(-1, -2), 2),
    )


@dataclass(frozen=True)
class FundamentalTensor:
    """Component array of one fundamental tensor in split frames, point axes first.

    ``coeffs[alpha, i, j]`` with alpha running over the co-distribution
    frame (range_perp for B, horizontal for T, vertical for A) and
    ``vectors[i, j]`` the full tensor value as a chart vector.  Stored
    components carry the exact (anti)symmetry of the tensor; the raw
    pre-projection violation is ``raw_symmetry_residual``.
    """

    kind: str  # "B" | "T" | "A"
    coeffs: np.ndarray
    vectors: np.ndarray  # (n, n, dim) tensor values in chart components
    metric: np.ndarray
    raw_symmetry_residual: np.ndarray = 0.0

    @classmethod
    def from_raw(cls, kind, coeffs, vectors, metric) -> "FundamentalTensor":
        sign = -1.0 if kind == "A" else 1.0
        transposed = coeffs.swapaxes(-1, -2)
        residual = _largest(coeffs - sign * transposed, 3)
        coeffs = 0.5 * (coeffs + sign * transposed)
        vectors = 0.5 * (vectors + sign * tail_transpose(vectors, 1, 0, 2))
        return cls(kind, coeffs, vectors, metric, residual)


def second_fundamental_form(split: SceneSplit) -> FundamentalTensor:
    """B(h_i, h_j) = (nabla dF)(h_i, h_j) in target components."""
    pt = split.point
    gamma1 = pt.source.gamma
    gamma2 = pt.target.gamma
    H = split.horizontal
    g2 = pt.target.G0

    # nabla dF in chart components:
    #   B^a_{mu nu} = d2F^a_{mu nu} + Gamma2^a_{bc} dF^b_mu dF^c_nu
    #               - dF^a_lam Gamma1^lam_{mu nu}
    core = (
        pt.d2F
        + np.einsum("...abc,...bm,...cn->...amn", gamma2, pt.dF, pt.dF)
        - np.einsum("...al,...lmn->...amn", pt.dF, gamma1)
    )
    vectors = np.einsum("...amn,...im,...jn->...ija", core, H, H)
    coeffs = np.einsum("...ija,...ab,...vb->...vij", vectors, g2, split.range_perp)
    return FundamentalTensor.from_raw("B", coeffs, vectors, g2)


# -- O'Neill tensors of submersions -------------------------------------------


class _Projector(NamedTuple):
    """The frame jet of the horizontal projector over E = [H; V], H its first s rows.

    Point axes first, then: ``Ph`` is P_h, ``dPh[e] = D_e P_h`` along
    every frame vector and ``X[i, j] = D_{h_i} D_{v_j} P_h`` on the
    (horizontal, vertical) pairs; ``N[e] = nabla_e P_h = D_e P_h +
    [Gamma_e, P_h]`` and ``L[e] = (1 - 2 P_h) N[e]``, so that
    ``T_{v_j} = L[s + j]`` and ``A_{h_i} = L[i]`` as operators; ``gamma[e]``
    is Gamma_e (Gamma_e^a_c = Gamma^a_bc e^b), None on a constant source
    chart, where it vanishes and N is D P_h.
    """

    Ph: np.ndarray
    dPh: np.ndarray
    X: np.ndarray
    N: np.ndarray
    L: np.ndarray
    gamma: Optional[np.ndarray]


def _apply(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``out[e, j] = F[e] y_j``: a stack of operators on the rows of Y, value last."""
    return Y[..., None, :, :] @ F.swapaxes(-1, -2)


def _pairs(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``out[i, j, k, l] = X[i, j, a] Y[k, l, a]``."""
    return tensordot(X, Y, ((2,), (2,)), 3)


def _oneill(
    split: SceneSplit, kind: str, rows: slice, tangent: np.ndarray, normal: np.ndarray
) -> FundamentalTensor:
    """T or A over ``tangent`` from the operators L[rows]; exact zeros, with no
    product, under a constant projector."""
    g1, proj = split.point.source.G0, split.projector
    if proj is None:
        lead, (m, n), k = tangent.shape[:-2], tangent.shape[-2:], normal.shape[-2]
        coeffs, vectors = np.zeros(lead + (k, m, m)), np.zeros(lead + (m, m, n))
        return FundamentalTensor(kind, coeffs, vectors, g1, np.zeros(lead))
    vectors = _apply(proj.L[..., rows, :, :], tangent)
    coeffs = tensordot(vectors, g1 @ normal.swapaxes(-1, -2), ((2,), (0,)), 3)
    coeffs = tail_transpose(coeffs, 2, 0, 1)
    return FundamentalTensor.from_raw(kind, coeffs, vectors, g1)


def oneill_T(split: SceneSplit) -> FundamentalTensor:
    """T^alpha_{ij} = g1(T_{v_i} v_j, h_alpha) over the vertical frame."""
    return _oneill(split, "T", slice(split.s, None), split.vertical, split.horizontal)


def oneill_A(split: SceneSplit) -> FundamentalTensor:
    """A^alpha_{ij} = g1(A_{h_i} h_j, v_alpha) over the horizontal frame."""
    return _oneill(split, "A", slice(None, split.s), split.horizontal, split.vertical)


def vertical_bracket(split: SceneSplit) -> np.ndarray:
    """Vertical part of [H_i, H_j] for the projected horizontal frame fields.

    ``H_i(y) = P_h(y) c_i`` with constant components c_i; the bracket is
    differentiated directly, giving the cross-check v[H_i, H_j] = 2 A_{h_i} h_j.
    Under a constant projector it is zero, with no product.
    """
    proj, H = split.projector, split.horizontal
    if proj is None:
        return np.zeros(H.shape[:-1] + H.shape[-2:])
    # D[i, j] = (D_{h_i} P_h) h_j
    D = _apply(proj.dPh[..., : split.s, :, :], H)
    Q = np.eye(proj.Ph.shape[-1]) - proj.Ph
    return (D - tail_transpose(D, 1, 0, 2)) @ Q.swapaxes(-1, -2)[..., None, :, :]


def _along(F: np.ndarray, E: np.ndarray) -> np.ndarray:
    """``out[e] = sum_p E[e, p] F[p]``, a field ``F[p, ...]`` along the rows of E."""
    lead, n = E.shape[:-2], E.shape[-1]
    return (E @ F.reshape(lead + (n, -1))).reshape(lead + (E.shape[-2],) + F.shape[-2:])


def _frame_jet(F1: np.ndarray, F2: np.ndarray, E: np.ndarray, s: int) -> tuple:
    """The derivative parts of a matrix field's frame jet over E = [H; V], H its first s rows.

    ``F1[..., a, b, p] = d_p F`` and ``F2[..., a, b, p, q] = d_p d_q F``,
    symmetric in p and q; H is contracted first, which keeps the
    intermediate small.
    """
    lead = E.shape[:-2]
    a, b, n = F1.shape[-3:]
    d1 = (F1.reshape(lead + (a * b, n)) @ E.swapaxes(-1, -2)).reshape(lead + (a, b, -1))
    d2 = (F2.reshape(lead + (-1, n)) @ E[..., :s, :].swapaxes(-1, -2)).reshape(lead + (a, b, n, s))
    d2 = tail_transpose(d2, 0, 1, 3, 2).reshape(lead + (-1, n)) @ E[..., s:, :].swapaxes(-1, -2)
    return tail_transpose(d1, 2, 0, 1), tail_transpose(d2.reshape(lead + (a, b, s, -1)), 2, 3, 0, 1)


def _by_x(F: np.ndarray) -> np.ndarray:
    """A stack ``F[x]`` of matrices against the pair axes (x, y)."""
    return F[..., :, None, :, :]


def _by_y(F: np.ndarray) -> np.ndarray:
    """A stack ``F[y]`` of matrices against the pair axes (x, y)."""
    return F[..., None, :, :, :]


def _gamma_derivatives(src: ChartPoint, E: np.ndarray, GE: np.ndarray, s: int) -> tuple:
    """``DG_T[i, j] = (D_{h_i} Gamma)(v_j, .)`` and ``DG_A[j, i] = (D_{v_j} Gamma)(h_i, .)``.

    Each is an (a, c) matrix, over the frame E = [H; V] with H its first
    ``s`` rows, and ``GE[e]`` is Gamma_e (Gamma_e^a_c = Gamma^a_bc e^b)
    along every frame vector.  With
    d_m Gamma^a_bc = g^al (d_m Gamma_l,bc - d_m g_lq Gamma^q_bc) and
    2 d_m Gamma_l,bc = d_m d_b g_lc + d_m d_c g_lb - d_m d_l g_bc, H is
    contracted into the metric's second derivatives first, once on a
    derivative slot and once on a metric slot, and V after: O(s n^4 +
    s ell n^3) per point, where the chart-basis gradient of Gamma
    (``christoffel_with_grad``) costs O(n^5).
    """
    H, V = E[..., :s, :], E[..., s:, :]
    lead, n, ell = E.shape[:-2], E.shape[-1], V.shape[-2]
    G2 = src.G2
    # Kd[p, q, r, i] = d_r D_{h_i} g_pq and Km[i, q, r, t] = d_r d_t g(h_i, .)_q
    Kd = (G2.reshape(lead + (-1, n)) @ H.swapaxes(-1, -2)).reshape(lead + (n, n, n, s))
    Km = (H @ G2.reshape(lead + (n, -1))).reshape(lead + (s, n, n, n))
    # both[c, l, i, j] = D_{h_i} D_{v_j} g_cl, in both sides
    both = tensordot(Kd, V, ((2,), (1,)), 4)
    # S[y, l, c, x] = D_x d_c g(y, .)_l, with x = h_i, y = v_j for T and x = v_j, y = h_i for A
    S_T = (V @ Kd.reshape(lead + (n, -1))).reshape(lead + (ell, n, n, s))
    S_A = (Km.reshape(lead + (-1, n)) @ V.swapaxes(-1, -2)).reshape(lead + (s, n, n, ell))
    # dg[e, l, q] = D_e g_lq along every frame vector
    dg = (src.G1.reshape(lead + (-1, n)) @ E.swapaxes(-1, -2)).reshape(lead + (n, n, -1))
    dg = tail_transpose(dg, 2, 0, 1)
    ginv = src.ginv[..., None, None, :, :]

    def side(x, y, both_xy, S):
        # Zt[x, y, l, c] = D_x Gamma_l,(y, c) - (D_x g Gamma_y)_lc, and the result is g^-1 Zt
        Zt = tail_transpose(S, 3, 0, 1, 2) - tail_transpose(S, 3, 0, 2, 1)
        Zt += both_xy
        Zt *= 0.5
        Zt -= dg[..., x, None, :, :] @ GE[..., None, y, :, :]
        return ginv @ Zt

    H_, V_ = slice(0, s), slice(s, None)
    return (
        side(H_, V_, tail_transpose(both, 2, 3, 0, 1), S_T),
        side(V_, H_, tail_transpose(both, 3, 2, 0, 1), S_A),
    )


def _oneill_derivatives(split: SceneSplit) -> tuple[np.ndarray, np.ndarray]:
    """The frame components of nabla T and nabla A, both indexed [i, j, k, l]:
    ``g((nabla_{h_i} T)(v_j, v_l), h_k)`` and ``g((nabla_{v_j} A)(h_i, h_k), v_l)``.

    Both fields are S(Y, Z) = (1 - 2 Pi)(nabla_{Pi Y} Pi) Z, with Pi = Q
    for T and Pi = P_h for A.  For x, w in the kernel of Pi and y, z in
    its range, every term with (nabla Pi) twice drops out, and
    g((nabla_x S)(y, z), w) = w^T g (nabla^2_{x,y} Pi + nabla_{(nabla_x Pi) y} Pi) z.
    With N[u] = nabla_u P_h = D_u P_h + [Gamma_u, P_h], tau = -1 for T and
    +1 for A, that is

        tau w^T g (D_x D_y P_h + [Gamma_y, D_x P_h] + [Gamma_x, N[y]]
                   + N[tau N[x] y - Gamma(x, y)]) z + g(w, (D_x Gamma)(y, z)),

    read on the s x ell frame pairs only: O(s n^4 + s ell n^3) per point,
    where the chart-basis derivatives of T and A cost O(n^5).  On a
    constant source chart Gamma and its derivative vanish, and every term
    that reads them is left out.  Under a constant projector N and X
    vanish too and nothing is left, so the caller, the mixed residual,
    reads both as zero and does not call this.
    """
    src, proj = split.point.source, split.projector
    E, s = split.source_frame, split.s
    lead, n = E.shape[:-2], E.shape[-1]
    g = src.G0
    # D_e P_h, N[e] and Gamma_e along every frame vector
    PE, NE, GE = proj.dPh, proj.N, proj.gamma
    curved = GE is not None
    if curved:
        DG_T, DG_A = _gamma_derivatives(src, E, GE, s)
    else:
        DG_T = DG_A = None
    # N along a chart vector a is sum_e g(a, e) N[e], E being a g-orthonormal basis
    Eg = g @ E.swapaxes(-1, -2)
    NE_flat = NE.reshape(lead + (n, n * n))

    def side(tau, x, y, XY, DG):
        # x and y slice the frame: w runs over the rows of x and z over those of y,
        # and the result is indexed [x, y, w, z]
        Px, Nx, Ny = PE[..., x, :, :], NE[..., x, :, :], NE[..., y, :, :]
        wg, zt = E[..., x, :] @ g, E[..., y, :].swapaxes(-1, -2)
        # a[x, y] = tau N[x] y - Gamma(x, y)
        a, M = tau * Nx, XY
        if curved:
            Gx, Gy = GE[..., x, :, :], GE[..., y, :, :]
            a = a - Gx
            M = (
                M
                + _by_y(Gy) @ _by_x(Px) - _by_x(Px) @ _by_y(Gy)
                + _by_x(Gx) @ _by_y(Ny) - _by_y(Ny) @ _by_x(Gx)
            )
        a = a @ zt[..., None, :, :]
        Na = (a.swapaxes(-1, -2).reshape(lead + (-1, n)) @ Eg) @ NE_flat
        M = tau * (M + Na.reshape(XY.shape))
        if curved:
            M = M + DG
        return wg[..., None, None, :, :] @ M @ zt[..., None, None, :, :]

    H_, V_ = slice(0, s), slice(s, None)
    nabla_T = side(-1.0, H_, V_, proj.X, DG_T)
    nabla_A = side(1.0, V_, H_, proj.X.swapaxes(-4, -3), DG_A)
    return nabla_T, tail_transpose(nabla_A, 1, 0, 3, 2)


# -- Gauss-type residuals ---------------------------------------------------


def gauss_residual_map(split: SceneSplit, B: Optional[FundamentalTensor] = None) -> np.ndarray:
    """Max residual of the Gauss equation over horizontal quadruples, at every point.

    R2(dF W1, ..., dF W4) - [ R1(W1..W4) + g2(B(W1,W3), B(W2,W4))
                                        - g2(B(W1,W4), B(W2,W3)) ].
    """
    if B is None:
        B = second_fundamental_form(split)
    s = split.s
    lhs = split.target_curvature[..., :s, :s, :s, :s]
    rhs = split.source_curvature[..., :s, :s, :s, :s]
    inner = _pairs(B.vectors @ B.metric[..., None, :, :], B.vectors)
    # g2(B(W1,W3), B(W2,W4)) - g2(B(W1,W4), B(W2,W3)) with slots (i,j,k,l)
    rhs = rhs + tail_transpose(inner, 0, 2, 1, 3) - tail_transpose(inner, 0, 2, 3, 1)
    return _largest(lhs - rhs, 4)


@dataclass(frozen=True)
class SubmersionResiduals:
    """The three residuals at every point, point axes first."""

    vertical: np.ndarray
    horizontal: np.ndarray
    mixed: np.ndarray
    vertical_independent: bool  # True when an independent fiber curvature was used


def _space_form_residual(R: np.ndarray, kappa, g: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Largest entry of R - kappa (G_bc G_ad - G_ac G_bd) on the frame, at every point.

    The model is subtracted from R in place.  With kappa = 0 at every
    point the model is exactly zero, and R is read as it is.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.any():
        G = frame @ g @ frame.swapaxes(-1, -2)
        model = np.einsum("...bc,...ad->...abcd", G, G)
        model -= np.einsum("...ac,...bd->...abcd", G, G)
        R -= np.multiply(kappa[..., None, None, None, None], model, out=model)
    return _largest(R, 4)


def gauss_residual_submersion(
    split: SceneSplit,
    T: Optional[FundamentalTensor] = None,
    A: Optional[FundamentalTensor] = None,
    fiber_kappa=None,
) -> SubmersionResiduals:
    """Residuals of the three curvature relations of a submersion, at every point.

    * vertical: fiber Gauss equation; checked against an independent
      space-form fiber curvature when ``fiber_kappa`` (one value per
      point) is given, else the reconstructed fiber tensor is checked for
      curvature symmetries (the rearranged form, exact by construction).
    * horizontal: base curvature pulled back through dF against the
      ambient curvature and the A-tensor terms.
    * mixed: the mixed identity with the covariant derivatives of T and A,
      read on the frames from the projector's mixed second derivatives
      along the (horizontal, vertical) frame pairs (``_oneill_derivatives``).

    Under a constant projector T = A = 0 on a constant source chart, so
    R1 = 0: every term that reads T, A or R1 is left out, the mixed
    residual is zero, and so are the horizontal one on a constant target
    chart and the vertical one against a zero (or no) fiber curvature.
    """
    pt = split.point
    R1 = split.source_curvature
    g1 = pt.source.G0
    G1 = g1[..., None, :, :]  # g1 against a stack of frame vectors
    V, H, ell, s = split.vertical, split.horizontal, split.ell, split.s
    zero = np.zeros(pt.x.shape[:-1])
    vertical_independent = fiber_kappa is not None
    if split.projector is None:
        vertical = horizontal = zero
        if ell >= 2 and np.any(fiber_kappa):
            vertical = _space_form_residual(R1[..., s:, s:, s:, s:].copy(), fiber_kappa, g1, V)
        if s >= 2 and not pt.target.constant:
            horizontal = _largest(split.target_curvature[..., :s, :s, :s, :s], 4)
        return SubmersionResiduals(vertical, horizontal, zero, vertical_independent)
    if T is None:
        T = oneill_T(split)
    if A is None:
        A = oneill_A(split)

    # vertical identity
    vertical = zero
    if ell >= 2:
        # each l^4 array is formed in place and reduced as soon as it exists
        tt = _pairs(T.vectors @ G1, T.vectors)
        # R_fiber[ijkl] = R1[ijkl] + g(T(i,l), T(j,k)) - g(T(i,k), T(j,l))
        recon = R1[..., s:, s:, s:, s:] + tail_transpose(tt, 0, 2, 3, 1)
        recon -= tail_transpose(tt, 0, 2, 1, 3)
        del tt
        if fiber_kappa is not None:
            vertical = _space_form_residual(recon, fiber_kappa, g1, V)
        else:
            vertical = _symmetry_defects(recon)[0].max(axis=0)

    # horizontal identity against the target curvature
    horizontal = zero
    if s >= 2:
        base = split.target_curvature[..., :s, :s, :s, :s]
        amb_h = R1[..., :s, :s, :s, :s]
        aa = _pairs(A.vectors @ G1, A.vectors)
        # R1[ijkl] = base[ijkl] + 2 g(A(i,j), A(k,l)) - g(A(j,k), A(i,l))
        #                       + g(A(i,k), A(j,l))
        rhs = base + 2.0 * aa - tail_transpose(aa, 2, 0, 1, 3) + tail_transpose(aa, 0, 2, 1, 3)
        horizontal = _largest(amb_h - rhs, 4)

    # mixed identity with the covariant derivatives of T and A:
    # R1(h_i, v_j, v_l, h_k) = g((nabla_{h_i} T)(v_j, v_l), h_k)
    #   + g((nabla_{v_j} A)(h_i, h_k), v_l) - g(T_{v_j} h_i, T_{v_l} h_k)
    #   + g(A_{h_k} v_l, A_{h_i} v_j)
    # O'Neill (1966) writes the left side <R_{h_i v_j} h_k, v_l> with the opposite
    # sign convention; in the convention here it is R1(h_i, v_j, v_l, h_k), which the
    # antisymmetry of the last two slots turns into -R1[i, j, k, l]
    L = split.projector.L
    lhs = -R1[..., :s, s:, :s, s:]
    nabla_T, nabla_A = _oneill_derivatives(split)
    T_vh = _apply(L[..., s:, :, :], H)  # T_vh[j, i] = T_{v_j} h_i
    A_hv = _apply(L[..., :s, :, :], V)  # A_hv[i, j] = A_{h_i} v_j
    rhs = (
        nabla_T
        + nabla_A
        - tail_transpose(_pairs(T_vh @ G1, T_vh), 1, 0, 3, 2)
        + tail_transpose(_pairs(A_hv @ G1, A_hv), 2, 3, 0, 1)
    )
    mixed = _largest(lhs - rhs, 4)

    return SubmersionResiduals(
        vertical=vertical,
        horizontal=horizontal,
        mixed=mixed,
        vertical_independent=vertical_independent,
    )
