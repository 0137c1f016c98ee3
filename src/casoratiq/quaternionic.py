"""Quaternionic structures, the space-form curvature oracle and J-decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import FrameError, StructureError
from .geometry import MAX_DIM, _first, tail_transpose, tensordot

__all__ = [
    "QuaternionicStructure",
    "StructureReport",
    "QSFOracle",
    "JDecomposition",
    "quat_units",
    "structure",
    "check_quaternionic_structure",
    "hermitian_residual",
    "decompose_J",
    "space_form_pairs",
]

_STRUCT_TOL = 1e-10
# largest deviation of a split frame's Gram matrix from the identity
FRAME_TOL = 1e-10


def quat_units(m: int) -> np.ndarray:
    """Left multiplication by the quaternion units i, j, k on H^m.

    Coordinates are grouped in quadruples (a, b, c, d) per quaternionic
    line; each J is block diagonal with the same 4 x 4 block.
    """
    ji = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
    )
    jj = np.array(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    jk = ji @ jj
    n = 4 * m
    out = np.zeros((3, n, n))
    for blk, unit in zip(out, (ji, jj, jk)):
        for q in range(m):
            blk[4 * q : 4 * q + 4, 4 * q : 4 * q + 4] = unit
    return out


@dataclass(frozen=True)
class QuaternionicStructure:
    """Three anti-commuting orthogonal anti-involutions with constant components."""

    dim: int
    J_const: np.ndarray  # (3, n, n)
    name: str = ""

    def __post_init__(self):
        if self.dim % 4 != 0:
            raise StructureError(f"dimension {self.dim} is not a multiple of 4")
        # a read-only copy: registry structures are shared by every scene that names them
        J = np.array(self.J_const, dtype=float)
        if J.shape != (3, self.dim, self.dim):
            raise StructureError(f"J matrices have shape {J.shape}")
        J.flags.writeable = False
        object.__setattr__(self, "J_const", J)

    @classmethod
    def quat_flat(cls, m: int) -> "QuaternionicStructure":
        return cls(4 * m, J_const=quat_units(m), name=f"quat-flat:{m}")

    @classmethod
    def from_matrices(cls, J) -> "QuaternionicStructure":
        J = np.asarray(J, dtype=float)
        return cls(J.shape[-1], J_const=J, name="explicit")

    @cached_property
    def identity_residuals(self) -> tuple[float, float, float]:
        """The residuals of the identities J alone must satisfy, computed once per structure."""
        return _identity_residuals(self.J_const)


@lru_cache(maxsize=64)
def structure(name: str) -> QuaternionicStructure:
    """Registry lookup, e.g. ``quat-flat:2``; ``quat-flat:m`` needs 4 m <= MAX_DIM.

    Each name builds its structure once per process, so its identity
    residuals are computed once; a name that is not in the registry
    raises every time.
    """
    kind, _, param = name.partition(":")
    if kind == "quat-flat" and param.isdecimal() and int(param) > 0:
        if 4 * int(param) > MAX_DIM:
            raise KeyError(f"structure {name!r} has dimension above {MAX_DIM}")
        return QuaternionicStructure.quat_flat(int(param))
    raise KeyError(f"unknown quaternionic structure {name!r}")


@dataclass(frozen=True)
class StructureReport:
    """Max violations of the quaternionic-structure identities."""

    square_residual: float  # max over alpha of |J_a^2 + I|
    anticommute_residual: float  # |J1 J2 + J2 J1|
    composition_residual: float  # |J1 J2 - J3|
    hermitian_residual: float  # max over alpha of |J^T g J - g|
    tol: float = _STRUCT_TOL

    @property
    def passed(self) -> bool:
        return self.worst < self.tol

    @property
    def worst(self) -> float:
        return max(
            self.square_residual,
            self.anticommute_residual,
            self.composition_residual,
            self.hermitian_residual,
        )

    def failed_identities(self) -> list[str]:
        out = []
        if self.square_residual >= self.tol:
            out.append("J_alpha^2 = -I")
        if self.anticommute_residual >= self.tol:
            out.append("J1 J2 = -J2 J1")
        if self.composition_residual >= self.tol:
            out.append("J1 J2 = J3")
        if self.hermitian_residual >= self.tol:
            out.append("g(J X, J Y) = g(X, Y)")
        return out


def _identity_residuals(J: np.ndarray) -> tuple[float, float, float]:
    """Square, anticommutation and composition residuals of J; no metric enters them."""
    eye = np.eye(J.shape[-1])
    square = max(np.abs(J[a] @ J[a] + eye).max() for a in range(3))
    anti = np.abs(J[0] @ J[1] + J[1] @ J[0]).max()
    comp = np.abs(J[0] @ J[1] - J[2]).max()
    return float(square), float(anti), float(comp)


def hermitian_residual(J: np.ndarray, g_at: np.ndarray) -> np.ndarray:
    """max over alpha of |J_alpha^T g J_alpha - g| at every point of g (..., n, n)."""
    g = np.asarray(g_at, dtype=float)[..., None, :, :]
    return np.abs(np.swapaxes(J, -1, -2) @ g @ J - g).max(axis=(-3, -2, -1))


def check_quaternionic_structure(J: np.ndarray, g_at: np.ndarray) -> StructureReport:
    """Diagnostic check of the almost-quaternionic identities at a point."""
    J = np.asarray(J, dtype=float)
    return StructureReport(*_identity_residuals(J), float(hermitian_residual(J, g_at)))


@dataclass(frozen=True)
class QSFOracle:
    """Curvature of a quaternionic space form with constant c.

    The quadrilinear form is

        (c/4) { g(Z2,Z3) g(Z1,Z4) - g(Z1,Z3) g(Z2,Z4) }
      + (c/4) sum_a { g(Z1, Ja Z3) g(Ja Z2, Z4) - g(Z2, Ja Z3) g(Ja Z1, Z4)
                      + 2 g(Z1, Ja Z2) g(Ja Z3, Z4) }.
    """

    c: float
    J: np.ndarray  # (3, n, n)
    g: np.ndarray  # (n, n)

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if J.shape[-1] % 4 != 0:
            raise StructureError(f"dimension {J.shape[-1]} is not a multiple of 4")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "g", g)

    def quad(self, z1, z2, z3, z4) -> float:
        g = self.g
        total = (z2 @ g @ z3) * (z1 @ g @ z4) - (z1 @ g @ z3) * (z2 @ g @ z4)
        for Ja in self.J:
            jz2 = Ja @ z2
            jz3 = Ja @ z3
            total += (
                (z1 @ g @ jz3) * (jz2 @ g @ z4)
                - (z2 @ g @ jz3) * ((Ja @ z1) @ g @ z4)
                + 2.0 * (z1 @ g @ jz2) * (jz3 @ g @ z4)
            )
        return 0.25 * self.c * float(total)

    def residual(self, frame_tensor: np.ndarray, frame_vectors: np.ndarray, blocks=None):
        """Largest entry of ``frame_tensor`` minus the form over the frame rows, per point.

        With G[a, b] = g(e_a, e_b), X[x, a, b] = g(e_a, J_x e_b) = -g(J_x e_a, e_b)
        (``blocks``, when the caller holds them), XX[a, b, c, d] = sum_x X[x, a, b]
        X[x, c, d] and P = G (x) G + XX, the form is R[a,b,c,d] = P[b,c,a,d] -
        P[a,c,b,d] - 2 XX[a,b,c,d]; its terms are subtracted from one copy of the
        tensor in place (at c = 0 it is zero).  The frame (..., k, n) and the metric
        may carry the same leading point axes; each point gets the bits it gets alone.
        """
        if self.c == 0.0:
            return np.abs(frame_tensor).max(axis=(-4, -3, -2, -1))
        P, XX = self._products(frame_vectors, blocks)
        k = 0.25 * self.c
        XX *= 2.0 * k
        P *= k
        deviation = frame_tensor + XX
        deviation -= tail_transpose(P, 2, 0, 1, 3)
        deviation += tail_transpose(P, 0, 2, 1, 3)
        return np.abs(deviation, out=deviation).max(axis=(-4, -3, -2, -1))

    def _products(self, frame_vectors: np.ndarray, blocks) -> tuple:
        """``P = G (x) G + XX`` and ``XX`` over the frame rows (``residual``)."""
        E = np.atleast_2d(np.asarray(frame_vectors, dtype=float))
        G = E @ self.g @ E.swapaxes(-1, -2)
        X = _j_blocks(self.J, self.g, E) if blocks is None else blocks
        XX = tensordot(X, X, ((0,), (0,)), 3)
        P = G[..., :, :, None, None] * G[..., None, None, :, :]
        P += XX
        return P, XX


def space_form_pairs(c: float, gram: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``K[..., a, b] = R(e_a, e_b, e_b, e_a)`` of the form over frame rows, in O(k^2).

    With G = ``gram`` (..., k, k), g(e_a, e_b), and X = ``blocks`` (..., 3, k, k),
    g(e_a, J_x e_b): K = (c/4) (G_aa G_bb - G_ab^2 + 3 sum_x X_xab^2) (Ishihara,
    J. Differential Geom. 9, 1974).  Each point of a stack gets the bits it gets alone.
    """
    d = np.diagonal(gram, axis1=-2, axis2=-1)
    pairs = d[..., :, None] * d[..., None, :] - gram * gram
    pairs += 3.0 * np.sum(blocks * blocks, axis=-3)
    return 0.25 * c * pairs


def _j_blocks(J: np.ndarray, g: np.ndarray, E: np.ndarray) -> np.ndarray:
    """``X[..., x, a, b] = g(e_a, J_x e_b)`` over the rows of E (..., k, n), point axes first."""
    return E[..., None, :, :] @ g[..., None, :, :] @ J @ E.swapaxes(-1, -2)[..., None, :, :]


@dataclass(frozen=True)
class JDecomposition:
    """Squared norms of the J-component blocks over a split frame.

    ``blocks[alpha]`` is the full skew matrix g(e_a, J_alpha e_b) over the
    combined frame (first the s primary vectors, then the ell secondary
    ones); every norm is a slice of it.  ``gram`` is g(e_a, e_b).
    """

    norms_P: np.ndarray  # (..., 3)  primary-primary block
    norms_Q: np.ndarray  # (..., 3)  secondary-secondary block
    norms_PV: np.ndarray  # (..., 3) cross block
    blocks: np.ndarray  # (..., 3, s+ell, s+ell)
    gram: np.ndarray  # (..., s+ell, s+ell)
    s: int
    ell: int

    def rows(self) -> list["JDecomposition"]:
        """The points of a batch one by one."""
        parts = (self.norms_P, self.norms_Q, self.norms_PV, self.blocks, self.gram)
        return [JDecomposition(*row, self.s, self.ell) for row in zip(*parts)]


def decompose_J(J: np.ndarray, g: np.ndarray, E: np.ndarray, s: int, gram=None) -> JDecomposition:
    """Block decomposition of g(., J .) over a split orthonormal frame E (..., k, n).

    The frame's first ``s`` rows are the primary vectors and the rest the
    secondary ones.  For a submersion E is [horizontal; vertical] in the
    source, giving ``|P_a|^2``, ``|Q_a|^2`` and ``|P_a^V|^2``; for a map it
    is [range; range_perp] in the target.  The metric and the frame may
    carry the same leading point axes; the frame must be orthonormal to
    ``FRAME_TOL``, and the check raises for the first point that fails it.
    ``gram`` is E g E^T when the caller already holds it.
    """
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    E = np.asarray(E, dtype=float)
    gram = E @ g @ E.swapaxes(-1, -2) if gram is None else gram
    residual = np.abs(gram - np.eye(E.shape[-2])).max(axis=(-2, -1))
    bad = _first(~(residual <= FRAME_TOL))
    if bad is not None:
        raise FrameError(f"split frames are not jointly orthonormal (residual {residual[bad]:.3e})")
    blocks = _j_blocks(J, g, E)
    return JDecomposition(
        np.sum(blocks[..., :s, :s] ** 2, axis=(-2, -1)),
        np.sum(blocks[..., s:, s:] ** 2, axis=(-2, -1)),
        np.sum(blocks[..., :s, s:] ** 2, axis=(-2, -1)),
        blocks, gram, s, E.shape[-2] - s,
    )
