"""Casorati curvatures, hyperplane extremization and the constrained quadratic solver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, DomainError, OptimizationError

__all__ = [
    "CasoratiInput",
    "HyperplaneExtrema",
    "casorati",
    "hyperplane_extrema",
    "delta_casorati",
]

_START_SEED = 20240915
_START_COUNT = 64
_POLISH_COUNT = 12
_GRAD_TOL = 1e-10
_BURN_IN = 8  # value-gated descent steps that rank the starts' basins
_POLISH_ITERS = 300  # Newton steps a polished row may take; binds only on clustered inputs
_TIE_VALUE = 1e-10
_TIE_DIRECTION = 1e-3


@dataclass(frozen=True)
class CasoratiInput:
    """Coefficient slices h^alpha_{ij} of a fundamental tensor.

    ``coeffs`` has shape (n_codist, n, n); ``kind`` declares the symmetry
    of each slice ("symmetric" for B and T, "skew" for A).  The squared
    norm is computed once, when the input is checked.
    """

    coeffs: np.ndarray
    kind: str = "symmetric"
    _norm_sq: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise DimensionError(f"coefficient array has shape {c.shape}")
        (norm_sq,) = _checked_norms(c[None], self.kind)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_norm_sq", norm_sq)

    @classmethod
    def rows(cls, coeffs: np.ndarray, kind: str = "symmetric") -> list["CasoratiInput"]:
        """One input per point of the slices ``coeffs`` (P, n_codist, n, n), checked at once.

        Each gets the checks and the squared norm that ``CasoratiInput``
        gives its slices alone, bit for bit; the first point that fails
        raises.
        """
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 4 or c.shape[2] != c.shape[3]:
            raise DimensionError(f"coefficient stack has shape {c.shape}")
        return cls._of_rows(c, kind, _checked_norms(c, kind))

    @classmethod
    def _of_rows(cls, c: np.ndarray, kind: str, norms: list) -> list["CasoratiInput"]:
        """One input per point of the stack ``c`` (P, n_codist, n, n), whose checked
        squared norms are ``norms``; nothing is checked here."""
        out = []
        for row, norm_sq in zip(c, norms):
            inp = object.__new__(cls)
            for name, value in (("coeffs", row), ("kind", kind), ("_norm_sq", norm_sq)):
                object.__setattr__(inp, name, value)
            out.append(inp)
        return out

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_codist(self) -> int:
        return self.coeffs.shape[0]

    def norm_sq(self) -> float:
        return self._norm_sq

    def trace_norm_sq(self) -> float:
        traces = np.trace(self.coeffs, axis1=1, axis2=2)
        return float(np.sum(traces**2))


def _checked_norms(c: np.ndarray, kind: str) -> list[float]:
    """The squared norm of each point's slices ``c[p]`` (P, n_codist, n, n), checked.

    A point fails when its squared norm is not finite or when its slices
    break the declared symmetry by more than 1e-9 of ``max(1, max |c|)``;
    the first point that fails raises.  Each point's sum runs over its
    slices in the order that a sum over them alone takes.
    """
    if c.shape[-1] < 1:
        raise DimensionError("empty coefficient array")
    if kind not in ("symmetric", "skew"):
        raise ValueError(f"unknown kind {kind!r}")
    axes = (-3, -2, -1)
    # c - c^T for symmetric slices, c + c^T for skew ones
    defect = np.subtract if kind == "symmetric" else np.add
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(c**2, axis=axes).tolist()
        scales = np.abs(c).max(axis=axes, initial=1.0).tolist()
        worsts = np.abs(defect(c, c.swapaxes(-1, -2))).max(axis=axes, initial=0.0).tolist()
    for norm_sq, scale, worst in zip(norms, scales, worsts):
        if not math.isfinite(norm_sq):
            raise DomainError(f"coefficient array has non-finite squared norm {norm_sq}")
        if worst > 1e-9 * scale:
            raise DimensionError(f"coefficients violate declared {kind} symmetry by {worst:.3e}")
    return norms


def casorati(inp: CasoratiInput) -> float:
    """Casorati curvature (1/n) sum of squared coefficients."""
    return inp.norm_sq() / inp.n


@dataclass(frozen=True)
class _Quartic:
    """phi(u) = |h|^2 - u^T S u + sum_a (u^T h_a u)^2, built once per call.

    ``blocks`` (a+2, n, n) holds S = sum_a (h_a^T h_a + h_a h_a^T), one
    Gram product over the slices and their transposes, the parts
    sym_a = h_a + h_a^T, and the identity, whose weight -grad . u turns
    the gradient and Hessian Riemannian.  Every block is exactly
    symmetric, so each layout reads them as they lie: the burn-in's
    columns (``_column_state``), the polish's rows (``_RowState.at``)
    and its Hessians (``_hess``).  This holds for skew slices too.

    ``of(h, k)`` builds the quartic of h / 2**k, whose phi is that of h
    times 4**-k, exactly.  The search states its tolerances in the units
    of h through ``scaled``, and its step length and eigenvalue floor
    through ``absolute``, so it takes the steps it would take on h.
    """

    total_sq: float
    blocks: np.ndarray
    k: int = 0

    @classmethod
    def of(cls, h: np.ndarray, k: int = 0) -> "_Quartic":
        if k:
            h = np.ldexp(h, -k)
        n = h.shape[-1]
        hT = h.transpose(0, 2, 1)
        G = np.concatenate([h, hT]).reshape(-1, n)
        blocks = np.concatenate([(G.T @ G)[None], h + hT, np.eye(n)[None]])
        return cls(float(np.sum(h**2)), blocks, k)

    @property
    def S(self) -> np.ndarray:
        return self.blocks[0]

    def signs(self, sign: np.ndarray) -> np.ndarray:
        """sign, sign * |h|^2 and 2 * sign for rows of signs +-1; a product by +-1 is exact."""
        return np.multiply.outer([1.0, self.total_sq, 2.0], sign)

    def scaled(self, value: float) -> float:
        """A value in the units of phi of h, in the units of this quartic's phi (exact)."""
        return math.ldexp(value, -2 * self.k)

    def absolute(self, value: float) -> float:
        """An absolute constant of the search, in the units of phi of h, in this quartic's units.

        That is ``scaled`` up to k = 128.  Past it the constant keeps its
        k = 128 value: there a step of the burn-in already jumps to its
        gradient's direction, and a longer one would square out of range.
        """
        return math.ldexp(value, -2 * min(self.k, 128))


def _signed_terms(r: np.ndarray, signs: np.ndarray):
    """sign * phi and the signed weights of the derivatives of sign * phi on the sphere.

    ``r[k]`` holds the quadratic forms u^T B_k u, block axis first, so
    phi = |h|^2 - r_0 + sum_a r_a^2 / 4 and grad . u = sum_a r_a^2 - 2 r_0;
    ``signs`` comes from ``_Quartic.signs``.  The weights are
    sign * (-2, r_1, ..., r_a) and, for the identity, -sign * grad . u,
    so that sum_k weight_k B_k u is the Riemannian gradient.
    """
    sr = r * signs[0]
    sq = np.einsum("k...,k...->...", sr[1:-1], r[1:-1])
    value = signs[1] - sr[0]
    value += 0.25 * sq
    np.subtract(2.0 * sr[0], sq, out=sr[-1])
    np.negative(signs[2], out=sr[0])
    return value, sr


def _column_state(Q: _Quartic, U: np.ndarray, signs: np.ndarray):
    """sign[m] * phi and its Riemannian gradient at the unit columns U[:, m] of an (n, m) block.

    One matrix product gives every block's product with every column,
    and each column rounds the same in any block of two or more.
    """
    n, m = U.shape
    W = (Q.blocks.reshape(-1, n) @ U).reshape(-1, n, m)
    value, coef = _signed_terms(np.einsum("knm,nm->km", W, U), signs)
    return value, np.einsum("km,knm->nm", coef, W)


def _hess(Q: _Quartic, W: np.ndarray, coef: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Stacked sign * (-2 S + sum_a (2 u^T h_a u) sym_a + 2 V^T V) - (grad . u) I.

    ``W`` and ``coef`` come from ``_RowState.at``; V[m] holds the rows
    sym_a u.  The weighted blocks take one vector product per row, so
    every row rounds as it does alone.
    """
    m, n = W.shape[0], W.shape[-1]
    V = W[:, 1:-1]
    weighted = (coef[:, None, :] @ Q.blocks.reshape(len(Q.blocks), -1)).reshape(m, n, n)
    return weighted + signs[2][:, None, None] * (V.transpose(0, 2, 1) @ V)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[m] . y[m] for every row, rounded as the 1-D ``x[m] @ y[m]``; a 1-D y serves every row."""
    return (x[:, None, :] @ y[..., None])[:, 0, 0]


@functools.lru_cache(maxsize=None)
def _sphere_starts(n: int, count: int, seeds: tuple) -> np.ndarray:
    """Per seed, ``count`` standard Gaussian points of R^n on the unit sphere.

    An array (len(seeds), count, n), built once per (n, count, seeds) and
    read-only.
    """
    z = np.stack([np.random.default_rng(seed).standard_normal((count, n)) for seed in seeds])
    starts = z / np.linalg.norm(z, axis=-1, keepdims=True)
    starts.setflags(write=False)
    return starts


def _starts(Q: _Quartic) -> np.ndarray:
    """The (2, 64, n) starts of the min side and the max side.

    Each side takes its own 64 fixed Gaussian directions and puts the
    eigenvectors of S, the critical points of the quadratic part of
    phi, in place of the first n.  The eigenvector rows reach basins
    that a sphere sample alone can miss.
    """
    n = Q.S.shape[0]
    starts = _sphere_starts(n, _START_COUNT, (_START_SEED, _START_SEED + 1)).copy()
    eig = np.linalg.eigh(Q.S)[1].T[:_START_COUNT]
    starts[:, : eig.shape[0]] = eig
    return starts


def _tangent_frames(U: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Columns of frame m span the tangent space of the sphere at U[m].

    They are the last n - 1 columns of the Householder reflection
    I - c w w^T, w = U[m] +- e_1 with the sign (bit) of U[m, 0] and
    c = 2 / |w|^2, taken as one rank-1 update of those columns of I,
    the n x n identity ``eye``.
    """
    w = U + np.copysign(eye[0], U[:, :1])
    cw = (2.0 / _dot(w, w))[:, None] * w
    return eye[:, 1:] - cw[:, :, None] * w[:, None, 1:]


def _newton_steps(Ht: np.ndarray, gt: np.ndarray, floor: float) -> np.ndarray:
    """Modified Newton steps: Ht[m] z = -gt[m], or |Ht[m]| z = -gt[m] where Ht[m] is not definite.

    One stacked Cholesky factorization tests every row: the gufunc under
    ``np.linalg.cholesky``, which raises for the whole stack, fills a
    row that does not factor with NaN, above the diagonal too, where a
    row that factors has zeros (for n - 1 >= 2).  The rows that factor
    take one stacked ``solve``; the others are solved in the eigenbasis
    of Ht[m], every eigenvalue replaced by its absolute value, at least
    ``floor``, so each step descends even where Ht[m] is indefinite or
    singular.  Stacked LAPACK calls round each row as it would alone.
    """
    with np.errstate(invalid="ignore"):
        factors = _umath_linalg.cholesky_lo(Ht)[:, 0, -1] == 0.0
    if factors.all():
        return -_umath_linalg.solve1(Ht, gt)
    z = np.empty_like(gt)
    if factors.any():
        z[factors] = -_umath_linalg.solve1(Ht[factors], gt[factors])
    bad = ~factors
    lam, V = np.linalg.eigh(Ht[bad])
    lam = np.maximum(np.abs(lam), floor)
    z[bad] = -(V @ ((V.transpose(0, 2, 1) @ gt[bad, :, None]) / lam[:, :, None]))[:, :, 0]
    return z


class _RowState(NamedTuple):
    """sign[m] * phi and its Riemannian gradient at the unit rows U[m], in row form.

    ``W[m]`` holds the block products (S u, sym_1 u, ..., u) and
    ``coef[m]`` the signed weights of its derivatives (``_signed_terms``);
    ``gnorm`` is the norm of ``rgrad``.
    """

    W: np.ndarray
    coef: np.ndarray
    value: np.ndarray
    rgrad: np.ndarray
    gnorm: np.ndarray

    @classmethod
    def at(cls, Q: _Quartic, U: np.ndarray, signs: np.ndarray) -> "_RowState":
        """Every entry is row-wise, so a row rounds as it would alone, in any block.

        Each row of the (m, 1, n) block takes its own vector product: a
        row in an (m, n) block would round as it does alone only for m >= 2.
        """
        m, n = U.shape
        W = (U[:, None, :] @ Q.blocks.reshape(-1, n).T).reshape(m, -1, n)
        value, coef = _signed_terms(np.einsum("mkn,mn->mk", W, U).T, signs)
        rgrad = np.einsum("km,mkn->mn", coef, W)
        return cls(W, coef.T, value, rgrad, np.sqrt(_dot(rgrad, rgrad)))

    def take(self, rows: np.ndarray) -> "_RowState":
        """The state of the given rows only."""
        return _RowState(*(x.take(rows, 0) for x in self))


def _newton_polish(Q, U, sign, tol):
    """Riemannian modified Newton on the sphere for a block of rows.

    Row m minimizes sign[m] * phi.  Value-gated descent bottoms out at
    the value rounding floor well before the gradient tolerance, so the
    polish also accepts a step that shrinks the gradient; the analytic
    Hessian gives quadratic tail convergence at nondegenerate extrema.
    Each iteration takes one modified Newton step (``_newton_steps``)
    for every live row: its Householder tangent frame, its Hessian and
    its factorization are stacked, and its line search halves the step
    (up to 30 times) until the Riemannian gradient shrinks or sign * phi
    falls by the Armijo amount.  The second test carries a row across
    nearly flat, indefinite stretches (clustered eigenvalues), where the
    gradient norm alone stalls.  A row stops converged once its gradient
    is below ``tol``, and unconverged when its line search fails or
    after ``_POLISH_ITERS`` steps.

    Each iterate is evaluated once (``_RowState.at``): the given rows,
    then every line-search candidate.  The full step is tried on the
    whole live block, and only the rows that reject it go on to the
    halving passes.  The state of the candidate a row accepts carries
    into its convergence test and its next step.  Every per-row product
    is row-wise, so a row rounds as it would alone, and a carried state
    has the bits a second evaluation would give.  Returns
    (U, ok, steps, value): steps[m] counts the Newton steps row m took,
    and value[m] is sign[m] * phi at U[m].
    """
    u, U = U, U.copy()  # the given rows are the first iterates
    eye = np.eye(U.shape[1])
    floor = Q.absolute(1e-14)  # the eigenvalue floor of a modified step
    steps = np.zeros(len(U), dtype=int)
    sg = Q.signs(sign)
    state = _RowState.at(Q, u, sg)
    values = state.value.copy()
    ok = state.gnorm < tol
    live, go = np.arange(len(U)), ~ok
    for it in range(1, _POLISH_ITERS + 1):
        keep = np.flatnonzero(go)
        if keep.size < live.size:  # rows that converged or failed leave the block
            live, u, sg, state = live[keep], u.take(keep, 0), sg.take(keep, 1), state.take(keep)
        if not live.size:
            break
        W, coef, value, rgrad, gnorm = state
        Qt = _tangent_frames(u, eye)
        QtT = Qt.transpose(0, 2, 1)
        Ht = QtT @ _hess(Q, W, coef, sg) @ Qt
        gt = (QtT @ rgrad[:, :, None])[:, :, 0]
        z = _newton_steps(Ht, gt, floor)
        slope = 1e-4 * _dot(z, gt)  # Armijo fraction of the directional derivative
        d = (Qt @ z[:, :, None])[:, :, 0]
        cand = u + d  # the full step, on every live row
        cand /= np.sqrt(_dot(cand, cand))[:, None]
        state = _RowState.at(Q, cand, sg)
        s = np.flatnonzero(~((state.gnorm < gnorm) | (state.value < value + slope)))
        step = 1.0
        for _ in range(29):  # 30 passes with the full step
            if not s.size:
                break
            step *= 0.5
            c = u[s] + step * d[s]
            c /= np.sqrt(_dot(c, c))[:, None]
            cs = _RowState.at(Q, c, sg[:, s])
            took = (cs.gnorm < gnorm[s]) | (cs.value < value[s] + step * slope[s])
            rows = s[took]
            cand[rows] = c[took]
            for x, cx in zip(state, cs):
                x[rows] = cx[took]
            s = s[~took]
        done = state.gnorm < tol
        U[live], values[live], steps[live], ok[live] = cand, state.value, it, done
        go = ~done
        if s.size:  # a failed line search stops its row unconverged where it was
            U[live[s]], values[live[s]], steps[live[s]] = u[s], value[s], it - 1
            go[s] = False
        u = cand
    return U, ok, steps, values


def _projected_descent(Q, U, sign):
    """A fixed burn-in of projected-gradient steps on sign[m] * phi over the sphere.

    The rows to descend are the columns of U (n, m).  Row m minimizes
    phi for sign[m] = +1 and maximizes it for -1, and every row takes
    ``_BURN_IN`` steps.  A step moves the row against its Riemannian
    gradient and back onto the sphere, and is kept only where it lowers
    sign * phi: the row's step length then grows by 1.2, and otherwise
    halves.  The burn-in only ranks the starts' basins; the Newton
    polish converges the best rows, quadratically once they sit in a
    basin.  Each step evaluates its candidates as one block
    (``_column_state``), and one mask keeps the accepted rows' points,
    values and gradients.  Returns (U, values) with values = sign * phi.
    """
    U, signs = U.copy(), Q.signs(sign)
    vals, rgrad = _column_state(Q, U, signs)
    steps = np.full(U.shape[1], 0.1 / Q.absolute(1.0))  # 0.1 against h's gradient
    for _ in range(_BURN_IN):
        cand = U - steps * rgrad
        cand /= np.sqrt(np.einsum("nm,nm->m", cand, cand))
        cand_vals, cand_rgrad = _column_state(Q, cand, signs)
        accept = cand_vals < vals
        np.copyto(U, cand, where=accept)
        np.copyto(vals, cand_vals, where=accept)
        np.copyto(rgrad, cand_rgrad, where=accept)
        steps *= np.where(accept, 1.2, 0.5)
    return U, vals


@dataclass(frozen=True)
class HyperplaneExtrema:
    """inf / sup of the hyperplane Casorati curvature with audit data."""

    inf_CL: float
    sup_CL: float
    argmin_normal: np.ndarray
    argmax_normal: np.ndarray
    degenerate_min: bool
    degenerate_max: bool
    audit: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Sides:
    """Polished candidates of the min side [0] and the max side [1], in the burn-in's order."""

    U: np.ndarray  # (2, c, n)
    value: np.ndarray  # sign * phi
    ok: np.ndarray
    start: np.ndarray  # index of each candidate's start among its side's starts
    iterations: np.ndarray  # (2,) Newton steps of each side's slowest candidate


def _search(Q: _Quartic, starts: np.ndarray, tol: float) -> _Sides:
    """Both sides at once: starts[0] minimize phi, starts[1] maximize it.

    Every start of both sides takes the burn-in as one block
    (``_projected_descent``), and one Newton polish then takes the
    ``_POLISH_COUNT`` best rows of each side to the gradient tolerance
    ``tol``.  Each side keeps its polished rows in the order the burn-in
    ranked them, with the values the polish carried, so no polished
    point is evaluated again.
    """
    _, m, n = starts.shape
    signs = np.repeat([1.0, -1.0], m)
    U, vals = _projected_descent(Q, starts.reshape(2 * m, n).T, signs)
    picks = np.argsort(vals.reshape(2, m), axis=1)[:, :_POLISH_COUNT]
    rows = (picks + [[0], [m]]).ravel()
    P, ok, steps, value = _newton_polish(Q, U.T[rows], signs[rows], tol)
    shape = picks.shape
    return _Sides(
        P.reshape(*shape, n), value.reshape(shape), ok.reshape(shape), picks,
        steps.reshape(shape).max(axis=1),
    )


def _best(sides: _Sides, window: float):
    """Each side's best sign * phi, its normal, its tie flag and the start index of that normal.

    The rows whose value lies within ``window`` of their side's best form
    its tie set.  The normal comes from the tie-set row with the lowest
    start index: polished rows that reach one extremum tie to the last
    bit, and often so do their burn-in values, so a rule that ranked
    them by either would move with the rounding.  The extremum is
    degenerate when a tie-set row's normal is off that row's by more
    than ``_TIE_DIRECTION``.  Both sides take one pass.
    """
    best = np.fmin.reduce(sides.value, axis=1)  # a NaN row is never the best
    ties = sides.value - best[:, None] < window
    start = np.where(ties, sides.start, np.iinfo(sides.start.dtype).max)
    u = sides.U[[0, 1], start.argmin(axis=1)]
    cos = np.abs(np.einsum("scn,sn->sc", sides.U, u))
    degenerate = np.where(ties, cos, 1.0).min(axis=1) < 1.0 - _TIE_DIRECTION
    return best.tolist(), u, degenerate.tolist(), start.min(axis=1).tolist()


def _scale_exponents(h: np.ndarray) -> np.ndarray:
    """k for every stack of slices h[..., a, n, n]: 2**k > max |h|, or k = 0 where max |h| <= 1.

    Dividing a stack by 2**k and multiplying its results back is exact
    (barring underflow), and keeps the squares and products of slices
    near the float limit in range.
    """
    top = np.abs(h).max(axis=(-3, -2, -1), initial=0.0)
    return np.where(top > 1.0, np.frexp(top)[1], 0)


def hyperplane_extrema(inp: CasoratiInput) -> HyperplaneExtrema:
    """Extremize the hyperplane Casorati curvature over all unit normals.

    Skew slices (the A tensor), all-zero slices (``_exact_extrema``) and
    symmetric slices of which exactly one is nonzero
    (``_one_slice_extrema``) take an exact path; everything else takes
    the multi-start (``_multistart_extrema``).  ``audit["path"]`` names
    the path taken.
    """
    n = inp.n
    if n < 3:
        raise DimensionError(f"hyperplane extremization needs n >= 3, got {n}")
    return _extrema_rows(inp.coeffs[None], inp.kind, [inp.norm_sq()])[0]


def _extrema_rows(h: np.ndarray, kind: str, total_sq: list) -> list[HyperplaneExtrema]:
    """``hyperplane_extrema`` of every stack of slices ``h[p]`` (P, a, n, n), n >= 3.

    ``total_sq[p]`` is |h[p]|^2.  Each stack takes its own path
    (``_extrema_of``).  Slices so large that the quartic overflows raise
    ``DomainError``: an eigendecomposition that fails, or the first stack
    whose extrema or normals are not finite.
    """
    try:
        out = _extrema_of(h, kind, total_sq)
    except np.linalg.LinAlgError as e:
        raise DomainError(f"hyperplane extremization failed: {e}") from e
    for ex in out:
        if not np.isfinite([ex.inf_CL, ex.sup_CL, *ex.argmin_normal, *ex.argmax_normal]).all():
            raise DomainError(
                f"hyperplane extrema are not finite (inf {ex.inf_CL!r}, sup {ex.sup_CL!r})"
            )
    return out


def _extrema_of(h: np.ndarray, kind: str, total_sq: list) -> list[HyperplaneExtrema]:
    """The extrema of every stack h[p], by the path its nonzero slices choose.

    The matrices of the exact paths, M for skew or zero slices and the one
    nonzero slice otherwise, share one stacked ``eigh``, which gives each
    the bits it gets alone: a zero M, of a zero point among others, gets
    the eigenpairs (0, I) of ``_zero_extrema``.  A stack that is all zeros
    takes ``_zero_extrema`` from its caller (``checker_inputs``) instead.
    Each multi-start runs alone.
    """
    if kind == "skew":
        slices = [0] * len(h)  # as if zero: the quartic term of skew slices vanishes
    else:
        slices = h.any(axis=(-2, -1)).sum(axis=-1).tolist()
    out = [None] * len(h)
    closed = [p for p, k in enumerate(slices) if k < 2]
    if closed:
        hc = h if len(closed) == len(h) else h[closed]
        mats = np.einsum("...aji,...ajk->...ik", hc, hc)
        for i, p in enumerate(closed):
            if slices[p]:
                mats[i] = h[p, h[p].any(axis=(-2, -1)).argmax()]
        lam, V = np.linalg.eigh(mats)
        for i, p in enumerate(closed):
            out[p] = (
                _one_slice_extrema(lam[i], V[i]) if slices[p]
                else _exact_extrema(total_sq[p], lam[i], V[i])
            )
    for p, k in enumerate(slices):
        if k >= 2:
            out[p] = _multistart_extrema(h[p])
    return out


def _exact_result(inf_phi, sup_phi, u_min, u_max, deg_min, deg_max, n) -> HyperplaneExtrema:
    counters = {"iterations": 0, "converged_starts": 0}
    return HyperplaneExtrema(
        inf_CL=inf_phi / (n - 1),
        sup_CL=sup_phi / (n - 1),
        argmin_normal=u_min,
        argmax_normal=u_max,
        degenerate_min=bool(deg_min),
        degenerate_max=bool(deg_max),
        audit={"path": "exact", "min": dict(counters), "max": dict(counters)},
    )


def _exact_extrema(total_sq: float, lam: np.ndarray, V: np.ndarray) -> HyperplaneExtrema:
    """Closed form for slices whose quartic term vanishes (skew or zero).

    Then (u^T h_a u)^2 = 0 and h_a^T h_a = h_a h_a^T, so
    phi(u) = |h|^2 - 2 u^T M u with M = sum_a h_a^T h_a, and the extrema
    over unit normals are the extreme eigenpairs (``lam``, ``V``) of M;
    ``total_sq`` is |h|^2.  An extremum is degenerate when its eigenvalue
    is (numerically) repeated.
    """
    tie = _TIE_VALUE * max(1.0, total_sq)
    return _exact_result(
        total_sq - 2.0 * lam[-1],
        total_sq - 2.0 * lam[0],
        V[:, -1],
        V[:, 0],
        2.0 * (lam[-1] - lam[-2]) < tie,
        2.0 * (lam[1] - lam[0]) < tie,
        V.shape[0],
    )


def _zero_extrema(n: int) -> HyperplaneExtrema:
    """The extrema of all-zero slices over n >= 3 vectors, with no product.

    Their M is zero, and ``eigh`` gives a zero matrix the eigenpairs
    (0, I): inf = sup = 0, at the last and first columns of I, with both
    tie flags set and the audit of the exact path.
    """
    return _exact_extrema(0.0, np.zeros(n), np.eye(n))


def _one_slice_extrema(lam: np.ndarray, V: np.ndarray) -> HyperplaneExtrema:
    """Closed form for a single symmetric slice s = sum_i lam_i v_i v_i^T (eigenpairs lam, V).

    With lam_1 <= ... <= lam_n and weights t_i = (u . v_i)^2 on the
    simplex, phi = sum lam^2 - 2 sum lam_i^2 t_i + (sum lam_i t_i)^2.
    Since (sum lam_i t_i)^2 <= sum lam_i^2 t_i, the sup is
    sum lam^2 - min lam^2, at that eigenvector.  For the inf, a mean
    m = sum lam_i t_i is best reached on v_1 and v_n alone, which leaves
    m^2 - 2 (lam_1 + lam_n) m + 2 lam_1 lam_n to minimize over
    [lam_1, lam_n].  When lam_1 < 0 < lam_n that is m = lam_1 + lam_n:
    inf phi = sum lam^2 - lam_1^2 - lam_n^2 at the weight
    t = lam_n / (lam_n - lam_1) on v_n and 1 - t on v_1, and the
    reflection across v_n is a second minimizing hyperplane.  Otherwise
    it is sum lam^2 - max lam^2, at that eigenvector.  A tie flag is a
    repeated extreme lam^2 (or the reflected pair).
    """
    sq = lam**2
    order = np.argsort(sq, kind="stable")
    ranked = sq[order]
    tie = _TIE_VALUE * max(1.0, float(np.sum(sq)))
    if lam[0] < 0.0 < lam[-1]:
        t = lam[-1] / (lam[-1] - lam[0])
        inf_phi = float(np.sum(sq[1:-1]))
        u_min = math.sqrt(t) * V[:, -1] + math.sqrt(1.0 - t) * V[:, 0]
        deg_min = True
    else:
        inf_phi = float(np.sum(ranked[:-1]))
        u_min = V[:, order[-1]]
        deg_min = ranked[-1] - ranked[-2] < tie
    return _exact_result(
        inf_phi,
        float(np.sum(ranked[1:])),
        u_min,
        V[:, order[0]],
        deg_min,
        ranked[1] - ranked[0] < tie,
        V.shape[0],
    )


def _multistart_extrema(h: np.ndarray) -> HyperplaneExtrema:
    """Deterministic multi-start on the sphere: a short burn-in, then a Newton polish.

    The 64 min starts and the 64 max starts (``_starts``) take the
    burn-in as one block and the best 12 of each side are polished as
    one block (``_search``); ``_best`` reads each side's extremum and
    tie set.  The search runs on h / 2**k (``_scale_exponents``), so
    that phi's squares stay in range near the float limit, and its
    values are scaled back by 4**k, exactly.  Its tolerances, tie
    window, step and floor keep their definitions in the units of h, so
    wherever the search on h itself stays in range it takes the same
    steps, bit for bit.  Valid for any slices, so it also serves as the
    test oracle of ``_exact_extrema`` and ``_one_slice_extrema``.
    """
    n = h.shape[1]
    Q = _Quartic.of(h, int(_scale_exponents(h)))
    scale = max(1.0, math.ldexp(Q.total_sq, 2 * Q.k))  # max(1, |h|^2)
    tol = _GRAD_TOL * scale
    sides = _search(Q, _starts(Q), Q.scaled(tol))
    best, u, degenerate, start = _best(sides, Q.scaled(_TIE_VALUE * scale))
    extrema = [math.ldexp(sign * b, 2 * Q.k) / (n - 1) for sign, b in zip((1.0, -1.0), best)]
    audit = {"path": "multistart"}
    per_side = zip(
        ("min", "max"), extrema, start, sides.iterations.tolist(), sides.ok.sum(1).tolist()
    )
    for key, extremum, index, iterations, converged in per_side:
        if not converged:
            raise OptimizationError(f"no start reached gradient tolerance {tol:.1e}", best=extremum)
        audit[key] = {"start_index": index, "iterations": iterations, "converged_starts": converged}
    audit["starts"] = _START_COUNT
    return HyperplaneExtrema(
        inf_CL=extrema[0],
        sup_CL=extrema[1],
        argmin_normal=u[0],
        argmax_normal=u[1],
        degenerate_min=degenerate[0],
        degenerate_max=degenerate[1],
        audit=audit,
    )


def delta_casorati(C: float, extrema: HyperplaneExtrema, n_dist: int) -> tuple[float, float]:
    """Normalized delta-Casorati pair (delta_C, delta_C_hat).

    delta_C(n-1)     = C/2 + (n+1)/(2n) * inf C^L
    delta_C_hat(n-1) = 2C  - (2n-1)/(2n) * sup C^L
    """
    if n_dist < 3:
        raise DimensionError(f"delta-Casorati needs n >= 3, got {n_dist}")
    n = n_dist
    delta = 0.5 * C + (n + 1) / (2.0 * n) * extrema.inf_CL
    delta_hat = 2.0 * C - (2.0 * n - 1) / (2.0 * n) * extrema.sup_CL
    return float(delta), float(delta_hat)
