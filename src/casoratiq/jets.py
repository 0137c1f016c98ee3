"""Forward-mode automatic differentiation to second or third order at many points at once.

A :class:`Jet2` carries the value and the first two or three derivatives
of a scalar expression with respect to a fixed set of n base variables
(truncated Taylor mode; Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008, ch. 13), at every point of a batch: value (P,), grad (P, n),
hess (P, n, n) and, at order 3, d3 (P, n, n, n).  This is the numpy form
of vmapped Taylor mode (Bettencourt, Johnson & Duvenaud, *Taylor-mode
automatic differentiation for higher-order derivatives in JAX*, 2019).
The order is a property of the seed (``seed_point``), and each reader
seeds the order it reads: 2 for a metric and for a Riemannian map, 3 for
the map of a submersion, whose projector derivatives read the third.  A
jet of order 2 carries ``d3 = None`` through every operation and never
computes a third derivative; its arrays are those of the order-3 jet bit
for bit.  The scenes seed every chart point in a batch, a single point
as P = 1; any leading shape works the same way, and so does one point
(n,) with none, as the public functions take it.  A seeded variable or a
constant keeps derivative arrays without the point axes, which
broadcast.  Metric components, map components and scene expressions are
all evaluated on jets, so curvature and the O'Neill tensor derivatives
downstream are exact instead of finite differences.

Jets carry their known zeros.  A derivative that vanishes at every point
by construction is the marker: one shared, read-only array of zeros per
shape (``_zero``), which ``known_zero`` tells apart and nothing writes.
A seeded variable carries it for its Hessian and third derivative, and
a constant (``Jet2.constant``, which an operation makes of a plain-number
operand) for all three derivatives.  Every operation leaves out the
terms that the marker multiplies, adds the others in the same order, and
gives back the marker for a result known to be zero, so it propagates:
the third derivative of x1*x4, of x1^2 and of any quadratic is the
marker, and no array is formed for it.  A left-out term is an exact zero
wherever its other factor is finite, so leaving it out moves only the
sign of a zero.  Where that factor is not finite, an array of the
operation's own result is not either, and a program's finiteness check
raises for the same entry.

The ring operations act on whole arrays and round every point as it
would be rounded alone.  The scalar factors of a power, a reciprocal and
the elementary functions are computed value by value with Python's float
and ``math`` calls (numpy's ``**`` differs from Python's in the last
bit), which also keeps ``math``'s error messages.

A matrix jet is a pair ``(M, dM)`` with ``dM[..., p, :, :] = d_p M``,
the point axes first: every reader of a matrix jet needs the first
derivative only.  Where a second derivative of a matrix field is read,
it is read along a frame, and a frame jet ``(M, dM, ddM)`` holds just
that: ``dM[..., e, :, :]`` is the derivative along the e-th row of a
frame E whose first s rows are one direction set H and the rest another
set V, and ``ddM[..., i, j, :, :] = D_{h_i} D_{v_j} M`` the mixed second
derivative on the s x ell (H, V) pairs alone.  Restricting the jets to
the directions that are read is directional Taylor mode (Griewank &
Walther, ch. 13); ``frame_product``, ``frame_mixed`` and ``frame_solve``
carry such jets through products and linear solves.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


__all__ = [
    "Jet2",
    "seed_point",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "jet_norm",
    "jet_arrays",
    "known_zero",
    "per_value",
    "matrix_product",
    "matrix_inverse",
    "frame_mixed",
    "frame_product",
    "frame_solve",
]


_MARKERS: dict = {}  # shape -> the known-zero marker of that shape
_MARKED: set = set()  # ids of the markers, which _MARKERS keeps alive


def _zero(shape: tuple) -> np.ndarray:
    """The known-zero marker of ``shape``: one shared, read-only array of zeros."""
    z = _MARKERS.get(shape)
    if z is None:
        z = _MARKERS[shape] = np.zeros(shape)
        z.flags.writeable = False
        _MARKED.add(id(z))
    return z


def known_zero(a) -> bool:
    """Whether ``a`` is a known-zero marker, a derivative that vanishes at every point."""
    return id(a) in _MARKED


def _total(terms: list, shape: tuple) -> np.ndarray:
    """The sum of ``terms`` from left to right; the marker of ``shape`` when there is none."""
    if not terms:
        return _zero(shape)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if known_zero(b):
        return a
    return b if known_zero(a) else a + b


def _minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if known_zero(b):
        return a
    return -b if known_zero(a) else a - b


def _negative(a: np.ndarray) -> np.ndarray:
    return a if known_zero(a) else -a


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h_ij g_k + h_ik g_j + h_jk g_i`` for a symmetric ``h``."""
    t = h[..., :, :, None] * g[..., None, None, :]
    return t + t.swapaxes(-1, -2) + t.swapaxes(-1, -3)


def _against(v: np.ndarray, k: int) -> np.ndarray:
    """Values ``v`` against ``k`` trailing derivative axes."""
    return v.reshape(v.shape + (1,) * k)


def per_value(fn: Callable, v) -> np.ndarray:
    """``fn`` at every entry of ``v`` with Python floats, its outputs on a last axis.

    A plain number gives ``fn`` of it unchanged.
    """
    if not isinstance(v, np.ndarray):
        return fn(float(v))
    out = np.array([fn(t) for t in v.ravel().tolist()], dtype=float)
    return out.reshape(v.shape + out.shape[1:])


class Jet2:
    """Truncated Taylor carrier: values, n-gradients, n x n Hessians and, at
    order 3, the n x n x n symmetric third derivatives
    ``d3[..., i, j, k] = d_i d_j d_k f`` (None at order 2), the point axes
    first.  An operation on two jets has the lower of their orders."""

    __slots__ = ("value", "grad", "hess", "d3")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray, d3: Optional[np.ndarray]):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.d3 = None if d3 is None else np.asarray(d3, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @property
    def order(self) -> int:
        return 2 if self.d3 is None else 3

    @classmethod
    def constant(cls, value, n: int, order: int = 3) -> "Jet2":
        return cls(value, _zero((n,)), _zero((n, n)), _zero((n, n, n)) if order == 3 else None)

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.n, self.order)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        d3 = None if self.d3 is None or o.d3 is None else _plus(self.d3, o.d3)
        return Jet2(self.value + o.value, _plus(self.grad, o.grad), _plus(self.hess, o.hess), d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        d3 = None if self.d3 is None or o.d3 is None else _minus(self.d3, o.d3)
        return Jet2(self.value - o.value, _minus(self.grad, o.grad), _minus(self.hess, o.hess), d3)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self

    def __neg__(self):
        d3 = None if self.d3 is None else _negative(self.d3)
        return Jet2(-self.value, _negative(self.grad), _negative(self.hess), d3)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self.value, o.value
        n = self.n
        # a term with a known-zero factor is left out of each sum
        zero_ga, zero_gb = known_zero(self.grad), known_zero(o.grad)
        zero_ha, zero_hb = known_zero(self.hess), known_zero(o.hess)
        grad = [] if zero_gb else [_against(a, 1) * o.grad]
        if not zero_ga:
            grad.append(_against(b, 1) * self.grad)
        hess = [] if zero_hb else [_against(a, 2) * o.hess]
        if not zero_ha:
            hess.append(_against(b, 2) * self.hess)
        if not (zero_ga or zero_gb):
            outer = self.grad[..., :, None] * o.grad[..., None, :]
            hess += [outer, outer.swapaxes(-1, -2)]
        d3 = None
        if self.d3 is not None and o.d3 is not None:
            d3 = [] if known_zero(o.d3) else [_against(a, 3) * o.d3]
            if not known_zero(self.d3):
                d3.append(_against(b, 3) * self.d3)
            if not (zero_ha or zero_gb):
                d3.append(_sym3(self.hess, o.grad))
            if not (zero_hb or zero_ga):
                d3.append(_sym3(o.hess, self.grad))
            d3 = _total(d3, (n, n, n))
        return Jet2(a * b, _total(grad, (n,)), _total(hess, (n, n)), d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self._reciprocal()

    def __pow__(self, p):
        if isinstance(p, Jet2):
            raise TypeError("exponent must be a plain number")
        p = float(p)
        if p == 0:
            return Jet2.constant(1.0, self.n, self.order)
        if p == 1:
            return self
        # falling factorials; a zero one drops its term, so x^2 at 0 has d3 = 0, not 0 * 0^-1
        c = (p, p * (p - 1), p * (p - 1) * (p - 2))[: self.order]

        def factors(v):
            if v < 0 and p != int(p):
                raise ValueError(f"fractional power of negative base {v}")
            return (v**p, *(ck * v ** (p - k) if ck else 0.0 for k, ck in enumerate(c, 1)))

        return self._chain(factors)

    def _reciprocal(self):
        if self.d3 is None:
            return self._chain(lambda v: (1.0 / v, -1.0 / v**2, 2.0 / v**3))
        return self._chain(lambda v: (1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4))

    def _chain(self, factors: Callable) -> "Jet2":
        """Compose with a scalar function; ``factors(v)`` gives its value and derivatives
        up to the jet's order, and no higher one is computed."""
        f = per_value(factors, self.value)
        f0, f1, f2 = f[..., 0], f[..., 1], f[..., 2]
        g, n = self.grad, self.n
        # a term with a known-zero factor is left out of each sum
        flat, linear = known_zero(g), known_zero(self.hess)
        hess = [] if linear else [_against(f1, 2) * self.hess]
        if not flat:
            outer = g[..., :, None] * g[..., None, :]
            hess.append(_against(f2, 2) * outer)
        d3 = None
        if self.d3 is not None:
            d3 = [] if known_zero(self.d3) else [_against(f1, 3) * self.d3]
            if not (linear or flat):
                d3.append(_against(f2, 3) * _sym3(self.hess, g))
            # so is the term of a third-derivative factor that is zero at every point, a square's
            if not flat and f[..., 3].any():
                d3.append(_against(f[..., 3], 3) * (outer[..., None] * g[..., None, None, :]))
            d3 = _total(d3, (n, n, n))
        grad = g if flat else _against(f1, 1) * g
        return Jet2(f0, grad, _total(hess, (n, n)), d3)


def _lift(f_plain: Callable[[float], float], d1, d2, d3) -> Callable:
    def factors2(v):
        return f_plain(v), d1(v), d2(v)

    def factors3(v):
        return f_plain(v), d1(v), d2(v), d3(v)

    def wrapped(x):
        if isinstance(x, Jet2):
            return x._chain(factors2 if x.d3 is None else factors3)
        return per_value(f_plain, x)

    return wrapped


exp = _lift(math.exp, math.exp, math.exp, math.exp)
log = _lift(math.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2, lambda v: 2.0 / v**3)
sin = _lift(math.sin, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
cos = _lift(math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.sin)
sqrt = _lift(
    math.sqrt,
    lambda v: 0.5 / math.sqrt(v),
    lambda v: -0.25 / math.sqrt(v) ** 3,
    lambda v: 0.375 / math.sqrt(v) ** 5,
)


def jet_norm(xs: Sequence) -> "Jet2 | float":
    """Euclidean norm of a vector of jets (or plain numbers)."""
    acc = None
    for x in xs:
        sq = x * x
        acc = sq if acc is None else acc + sq
    if acc is None:
        raise ValueError("norm of empty vector")
    return sqrt(acc)


def jet_arrays(entries: Sequence, shape: tuple) -> tuple:
    """Values and derivatives of jets (or plain numbers) at points of ``shape = (..., n)``.

    Returns ``(value, d1, d2)`` of shapes (..., m), (..., m, n) and
    (..., m, n, n), the entry axis after the point axes, and ``d2``
    symmetrized.  When the jets are of order 3, ``d3`` of shape
    (..., m, n, n, n) follows.
    """
    *lead, n = shape
    m = len(entries)
    value, d1, d2 = np.zeros((*lead, m)), np.zeros((*lead, m, n)), np.zeros((*lead, m, n, n))
    third = any(isinstance(e, Jet2) and e.d3 is not None for e in entries)
    d3 = np.zeros((*lead, m, n, n, n)) if third else None
    for i, e in enumerate(entries):
        if isinstance(e, Jet2):
            # the arrays hold zeros already, so a known zero is not written
            value[..., i] = e.value
            if not known_zero(e.grad):
                d1[..., i, :] = e.grad
            if not known_zero(e.hess):
                d2[..., i, :, :] = 0.5 * (e.hess + e.hess.swapaxes(-1, -2))
            if third and not known_zero(e.d3):
                d3[..., i, :, :, :] = e.d3
        elif (v := float(e)) or math.copysign(1.0, v) < 0:
            # a plain +0.0 is already in place
            value[..., i] = v
    return (value, d1, d2, d3) if third else (value, d1, d2)


def seed_point(x, order: int = 3) -> list[Jet2]:
    """Independent jet variables of ``order`` 2 or 3 at a point (n,) or at points (P, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    grads, hess = np.eye(n), _zero((n, n))
    d3 = _zero((n, n, n)) if order == 3 else None
    return [Jet2(x[..., i], grads[i], hess, d3) for i in range(n)]


def matrix_product(a: tuple, b: tuple) -> tuple:
    """Matrix jet of the product ``A B`` (Leibniz rule to first order)."""
    a0, a1 = a
    b0, b1 = b
    return a0 @ b0, a1 @ b0[..., None, :, :] + a0[..., None, :, :] @ b1


def matrix_inverse(a: tuple) -> tuple:
    """Matrix jet of ``A^-1``, from differentiating ``A A^-1 = I``."""
    a0, a1 = a
    x0 = np.linalg.inv(a0)
    X0 = x0[..., None, :, :]
    return x0, -X0 @ a1 @ X0


def _mixed_pairs(a1: np.ndarray, b1: np.ndarray, s: int) -> np.ndarray:
    """``D_h A D_v B + D_v A D_h B`` on every (h_i, v_j) pair, from derivatives along a frame."""
    return (
        a1[..., :s, None, :, :] @ b1[..., None, s:, :, :]
        + a1[..., None, s:, :, :] @ b1[..., :s, None, :, :]
    )


def frame_mixed(a: tuple, b: tuple, s: int) -> np.ndarray:
    """``D_{h_i} D_{v_j} (A B)`` alone, from the frame jets of A and B."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a2 @ b0[..., None, None, :, :] + a0[..., None, None, :, :] @ b2 + _mixed_pairs(a1, b1, s)
    )


def frame_product(a: tuple, b: tuple, s: int) -> tuple:
    """Frame jet of the product ``A B``; the frame's first ``s`` rows span H."""
    return (*matrix_product(a[:2], b[:2]), frame_mixed(a, b, s))


def frame_solve(a: tuple, ainv: np.ndarray, b: tuple, s: int) -> tuple:
    """Frame jet of ``X = A^-1 B``, from differentiating ``A X = B`` twice.

    ``ainv`` is ``A^-1`` at the points; the frame's first ``s`` rows span H.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    X0 = ainv[..., None, :, :]
    x0 = ainv @ b0
    x1 = X0 @ (b1 - a1 @ x0[..., None, :, :])
    x2 = X0[..., None, :, :] @ (
        b2 - a2 @ x0[..., None, None, :, :] - _mixed_pairs(a1, x1, s)
    )
    return x0, x1, x2
