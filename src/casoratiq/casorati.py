"""Casorati curvatures, hyperplane extremization and the constrained quadratic solver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

    ``S`` is sum_a (h_a^T h_a + h_a h_a^T); with the symmetric parts
    sym_a = h_a + h_a^T it makes the blocks (S, sym_1, ...).
    ``stacked`` puts the blocks side by side as one (n, (a+1)*n)
    matrix, so one product gives all of them at once, and ``blocks``
    holds them flattened as the rows of an (a+1, n*n) matrix, which the
    Hessian's coefficients weigh.  The formula holds for any slices,
    symmetric or skew.

    ``of(h, k)`` builds the quartic of h / 2**k, whose phi is that of h
    times 4**-k, exactly.  The search states its tolerances in the units
    of h through ``scaled``, and its step length and eigenvalue floor
    through ``absolute``, so it takes the steps it would take on h.
    """

    total_sq: float
    S: np.ndarray
    stacked: np.ndarray
    blocks: np.ndarray
    k: int = 0

    @classmethod
    def of(cls, h: np.ndarray, k: int = 0) -> "_Quartic":
        if k:
            h = np.ldexp(h, -k)
        S = np.einsum("aji,ajk->ik", h, h) + np.einsum("aij,akj->ik", h, h)
        blocks = np.concatenate([S[None], h + h.transpose(0, 2, 1)])
        stacked = blocks.transpose(1, 0, 2).reshape(S.shape[0], -1)
        return cls(float(np.sum(h**2)), S, stacked, blocks.reshape(len(blocks), -1), k)

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

    def products(self, U: np.ndarray):
        """W[m] = (S u, sym_1 u, ...) and r[m] = (u^T S u, 2 u^T h_1 u, ...).

        A (m, n) block of rows takes one matrix product for all of them,
        and every row rounds the same whatever m is (m >= 2).  A
        (m, 1, n) block takes one vector product per row, so every row
        rounds as it does alone; the Newton polish uses that form.
        """
        m, n = U.shape[0], U.shape[-1]
        W = (U @ self.stacked).reshape(m, -1, n)
        return W, np.einsum("mkn,mn->mk", W, U.reshape(m, n))


def _phi(Q: _Quartic, r: np.ndarray) -> np.ndarray:
    """phi from the quadratic forms ``r`` of ``_Quartic.products``."""
    q2 = r[:, 1:]
    return Q.total_sq - r[:, 0] + 0.25 * np.einsum("ma,ma->m", q2, q2)


def _coef(r: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sign[m] * (-2, u^T sym_1 u, ...), the weights of sign * phi's derivatives on the blocks.

    The weights overwrite ``r``, which its caller has read.  Folding the
    signs (+-1) into the weights is exact: each derivative rounds as
    sign * its unsigned form does.
    """
    r[:, 0] = -2.0
    r *= sign[:, None]
    return r


def _grad(W: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sign * (-2 S u + 2 sum_a (u^T h_a u) sym_a u) from ``products`` and ``_coef``."""
    return np.einsum("mk,mkn->mn", coef, W)


def _hess(Q: _Quartic, W: np.ndarray, coef: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Stacked Euclidean Hessians sign * (-2 S + sum_a (2 u^T h_a u) sym_a + 2 V^T V).

    ``W`` comes from ``products`` of an (m, 1, n) block and ``coef`` from
    ``_coef``; V[m] holds the rows sym_a u.  The weighted blocks take one
    vector product per row, so every row rounds as it does alone.
    """
    m, n = W.shape[0], W.shape[-1]
    V = W[:, 1:]
    weighted = (coef[:, None, :] @ Q.blocks).reshape(m, n, n)
    return weighted + (2.0 * sign)[:, None, None] * (V.transpose(0, 2, 1) @ V)


def _signed_phi_grad(Q: _Quartic, U: np.ndarray, sign: np.ndarray):
    """sign[m] * phi and sign[m] * grad of an (m, n) block of rows."""
    W, r = Q.products(U)
    return sign * _phi(Q, r), _grad(W, _coef(r, sign))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[m] . y[m] for every row, rounded as the 1-D ``x[m] @ y[m]``; a 1-D y serves every row."""
    return (x[:, None, :] @ y[..., None])[:, 0, 0]


@functools.lru_cache(maxsize=None)
def _sphere_starts(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` standard Gaussian points of R^n pushed to the unit sphere.

    Built once per (n, count, seed) and read-only.
    """
    z = np.random.default_rng(seed).standard_normal((count, n))
    starts = z / np.linalg.norm(z, axis=1, keepdims=True)
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
    starts = np.stack([_sphere_starts(n, _START_COUNT, _START_SEED + k) for k in (0, 1)])
    eig = np.linalg.eigh(Q.S)[1].T[:_START_COUNT]
    starts[:, : eig.shape[0]] = eig
    return starts


def _tangent_frames(U: np.ndarray) -> np.ndarray:
    """Columns of frame m span the tangent space of the sphere at U[m].

    They are the last n - 1 columns of the Householder reflection
    I - c w w^T, w = U[m] +- e_1 with the sign (bit) of U[m, 0] and
    c = 2 / |w|^2, taken as one rank-1 update of those columns of I.
    """
    w = U.copy()
    w[:, 0] += np.copysign(1.0, U[:, 0])
    cw = (2.0 / _dot(w, w))[:, None] * w
    return np.eye(U.shape[1])[:, 1:] - cw[:, :, None] * w[:, None, 1:]


def _newton_steps(Ht: np.ndarray, gt: np.ndarray, floor: float) -> np.ndarray:
    """Modified Newton steps: Ht[m] z = -gt[m], or |Ht[m]| z = -gt[m] where Ht[m] is not definite.

    The stacked Cholesky factorization is the definiteness test: a stack
    that factors takes one stacked ``solve``.  When it does not, each row
    takes the step it takes alone, so no row's step depends on the rows
    stacked with it.  A row that does not factor is solved in the
    eigenbasis of Ht[m], every eigenvalue replaced by its absolute
    value, at least ``floor``, so each step descends even where Ht[m]
    is indefinite or singular.
    """
    try:
        np.linalg.cholesky(Ht)
    except np.linalg.LinAlgError:
        if len(Ht) > 1:
            return np.concatenate(
                [_newton_steps(Ht[m : m + 1], gt[m : m + 1], floor) for m in range(len(Ht))]
            )
        lam, V = np.linalg.eigh(Ht)
        lam = np.maximum(np.abs(lam), floor)
        return -(V @ ((V.transpose(0, 2, 1) @ gt[:, :, None]) / lam[:, :, None]))[:, :, 0]
    return -np.linalg.solve(Ht, gt[:, :, None])[:, :, 0]


class _RowState(NamedTuple):
    """sign[m] * phi and its Riemannian gradient at the unit rows U[m], in row form.

    ``W`` holds the ``products`` of the (m, 1, n) block and ``coef`` the
    signed weights of its derivatives (``_coef``); ``gu`` is grad . u
    and ``gnorm`` the norm of ``rgrad``.
    """

    W: np.ndarray
    coef: np.ndarray
    value: np.ndarray
    gu: np.ndarray
    rgrad: np.ndarray
    gnorm: np.ndarray

    @classmethod
    def at(cls, Q: _Quartic, U: np.ndarray, sign: np.ndarray) -> "_RowState":
        """Every entry is row-wise, so a row rounds as it would alone, in any block.

        grad . u is read off r: sum_a r_a^2 - 2 r_0, times the sign.
        """
        W, r = Q.products(U[:, None, :])
        q2 = r[:, 1:]
        sq = np.einsum("ma,ma->m", q2, q2)
        value = sign * (Q.total_sq - r[:, 0] + 0.25 * sq)  # sign * _phi(Q, r)
        gu = sign * (sq - 2.0 * r[:, 0])
        coef = _coef(r, sign)
        rgrad = _grad(W, coef) - gu[:, None] * U
        return cls(W, coef, value, gu, rgrad, np.sqrt(_dot(rgrad, rgrad)))


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
    cand, U = U, U.copy()  # the given rows are the first iterates
    eye = np.eye(U.shape[1] - 1)
    floor = Q.absolute(1e-14)  # the eigenvalue floor of a modified step
    steps = np.zeros(U.shape[0], dtype=int)
    live, sg = np.arange(U.shape[0]), sign
    state = _RowState.at(Q, cand, sg)
    values = state.value.copy()
    ok = state.gnorm < tol
    go = ~ok
    for it in range(1, _POLISH_ITERS + 1):
        if not go.all():  # rows that converged or failed leave the block
            live, cand, sg = live[go], cand[go], sg[go]
            state = _RowState(*(x[go] for x in state))
        if not live.size:
            break
        u = cand
        W, coef, value, gu, rgrad, gnorm = state
        Qt = _tangent_frames(u)
        QtT = Qt.transpose(0, 2, 1)
        Ht = QtT @ _hess(Q, W, coef, sg) @ Qt - gu[:, None, None] * eye
        gt = (QtT @ rgrad[:, :, None])[:, :, 0]
        z = _newton_steps(Ht, gt, floor)
        slope = 1e-4 * _dot(z, gt)  # Armijo fraction of the directional derivative
        d = (Qt @ z[:, :, None])[:, :, 0]
        cand = u + d  # the full step, on every live row
        cand /= np.sqrt(_dot(cand, cand))[:, None]
        state = _RowState.at(Q, cand, sg)
        better = (state.gnorm < gnorm) | (state.value < value + slope)
        step = 1.0
        s = np.flatnonzero(~better)
        for _ in range(29):  # 30 passes with the full step
            if not s.size:
                break
            step *= 0.5
            c = u[s] + step * d[s]
            c /= np.sqrt(_dot(c, c))[:, None]
            cs = _RowState.at(Q, c, sg[s])
            took = (cs.gnorm < gnorm[s]) | (cs.value < value[s] + step * slope[s])
            rows = s[took]
            cand[rows] = c[took]
            for x, cx in zip(state, cs):
                x[rows] = cx[took]
            better[rows] = True
            s = s[~took]
        moved = live[better]  # a failed line search stops its row unconverged
        U[moved], values[moved], steps[moved] = cand[better], state.value[better], it
        conv = state.gnorm < tol
        ok[live[better & conv]] = True
        go = better & ~conv
    return U, ok, steps, values


def _projected_descent(Q, U, sign):
    """A fixed burn-in of projected-gradient steps on sign[m] * phi over the sphere.

    Row m minimizes phi for sign[m] = +1 and maximizes it for -1, and
    every row takes ``_BURN_IN`` steps.  A step moves the row against
    its Riemannian gradient and back onto the sphere, and is kept only
    where it lowers sign * phi: the row's step length then grows by
    1.2, and otherwise halves.  The burn-in only ranks the starts'
    basins; the Newton polish converges the best rows, quadratically
    once they sit in a basin.  Each step evaluates its candidates as
    one block (``_signed_phi_grad``), and one mask keeps the accepted
    rows' points, values and gradients.  Returns (U, values) with
    values = sign * phi.
    """
    U = U.copy()
    vals, grad = _signed_phi_grad(Q, U, sign)
    steps = np.full((U.shape[0], 1), 0.1 / Q.absolute(1.0))  # 0.1 against h's gradient
    for _ in range(_BURN_IN):
        rgrad = grad - np.einsum("mn,mn->m", grad, U)[:, None] * U
        cand = U - steps * rgrad
        cand /= np.sqrt(np.einsum("mn,mn->m", cand, cand))[:, None]
        cand_vals, cand_grad = _signed_phi_grad(Q, cand, sign)
        accept = cand_vals < vals
        keep = accept[:, None]
        np.copyto(U, cand, where=keep)
        np.copyto(vals, cand_vals, where=accept)
        np.copyto(grad, cand_grad, where=keep)
        steps *= np.where(keep, 1.2, 0.5)
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
class _Side:
    """Polished candidates of one side of a search, in the burn-in's order."""

    U: np.ndarray
    value: np.ndarray  # sign * phi
    ok: np.ndarray
    start: np.ndarray  # index of each candidate's start among its side's starts
    iterations: int  # Newton steps of the side's slowest candidate


def _search(Q: _Quartic, starts: np.ndarray, tol: float) -> list[_Side]:
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
    U, vals = _projected_descent(Q, starts.reshape(2 * m, n), signs)
    picks = [np.argsort(v)[:_POLISH_COUNT] for v in vals.reshape(2, m)]
    rows = np.concatenate([picks[0], m + picks[1]])
    P, ok, steps, value = _newton_polish(Q, U[rows], signs[rows], tol)
    parts = (slice(0, _POLISH_COUNT), slice(_POLISH_COUNT, None))
    return [
        _Side(P[part], value[part], ok[part], pick, int(steps[part].max()))
        for part, pick in zip(parts, picks)
    ]


def _best(side: _Side, window: float):
    """The side's best sign * phi, its normal, its tie flag and its audit counters.

    The rows whose value lies within ``window`` of the best form the tie
    set.  The normal and the start index come from the tie-set row with
    the lowest start index: polished rows that reach one extremum tie to
    the last bit, and often so do their burn-in values, so a rule that
    ranked them by either would move with the rounding.  The extremum is
    degenerate when a tie-set row's normal is off that row's by more
    than ``_TIE_DIRECTION``.
    """
    best = np.fmin.reduce(side.value)  # a NaN row is never the best
    ties = np.flatnonzero(side.value - best < window)
    first = ties[side.start[ties].argmin()]
    u = side.U[first]
    degenerate = bool(np.abs(side.U[ties] @ u).min() < 1.0 - _TIE_DIRECTION)
    audit = {
        "start_index": int(side.start[first]),
        "iterations": side.iterations,
        "converged_starts": int(side.ok.sum()),
    }
    return float(best), u, degenerate, audit


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
    found = []
    for side, sign in zip(sides, (1.0, -1.0)):
        if not side.ok.any():
            best = math.ldexp(sign * float(np.fmin.reduce(side.value)), 2 * Q.k)
            raise OptimizationError(
                f"no start reached gradient tolerance {tol:.1e}", best=best / (n - 1)
            )
        best, u, degenerate, audit = _best(side, Q.scaled(_TIE_VALUE * scale))
        found.append((math.ldexp(sign * best, 2 * Q.k) / (n - 1), u, degenerate, audit))
    (inf_cl, u_min, deg_min, audit_min), (sup_cl, u_max, deg_max, audit_max) = found
    return HyperplaneExtrema(
        inf_CL=inf_cl,
        sup_CL=sup_cl,
        argmin_normal=u_min,
        argmax_normal=u_max,
        degenerate_min=deg_min,
        degenerate_max=deg_max,
        audit={"path": "multistart", "min": audit_min, "max": audit_max, "starts": _START_COUNT},
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
