"""Third-order forward-mode automatic differentiation at many points at once.

A :class:`Jet2` carries the value and the first three derivatives of a
scalar expression with respect to a fixed set of n base variables
(truncated Taylor mode; Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008, ch. 13), at every point of a batch: value (P,), grad (P, n),
hess (P, n, n) and d3 (P, n, n, n).  This is the numpy form of vmapped
Taylor mode (Bettencourt, Johnson & Duvenaud, *Taylor-mode automatic
differentiation for higher-order derivatives in JAX*, 2019).  Any leading
shape works the same way, and a lone point has none; a seeded variable
or a constant keeps derivative arrays without the point axes, which
broadcast.  Metric components, map components and scene expressions are
all evaluated on jets, so curvature and the O'Neill tensor derivatives
downstream are exact instead of finite differences.

The ring operations act on whole arrays and round every point as a lone
point would be rounded.  The scalar factors of a power, a reciprocal and
the elementary functions are computed value by value with Python's float
and ``math`` calls (numpy's ``**`` differs from Python's in the last
bit), which also keeps ``math``'s error messages.

A matrix jet is a tuple ``(M, dM, d2M)`` with ``dM[..., p, :, :] = d_p M``
and ``d2M[..., p, q, :, :] = d_p d_q M``, the point axes first.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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
    "per_value",
    "matrix_product",
    "matrix_inverse",
]


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h_ij g_k + h_ik g_j + h_jk g_i`` for a symmetric ``h``."""
    t = h[..., :, :, None] * g[..., None, None, :]
    return t + t.swapaxes(-1, -2) + t.swapaxes(-1, -3)


def per_value(fn: Callable, v) -> np.ndarray:
    """``fn`` at every entry of ``v`` with Python floats, its outputs on a last axis.

    A plain number gives ``fn`` of it unchanged.
    """
    if not isinstance(v, np.ndarray):
        return fn(float(v))
    out = np.array([fn(t) for t in v.ravel().tolist()], dtype=float)
    return out.reshape(v.shape + out.shape[1:])


class Jet2:
    """Truncated Taylor carrier: values, n-gradients, n x n Hessians and the
    n x n x n symmetric third derivatives ``d3[..., i, j, k] = d_i d_j d_k f``,
    the point axes first."""

    __slots__ = ("value", "grad", "hess", "d3")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray, d3: np.ndarray):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.d3 = np.asarray(d3, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @classmethod
    def constant(cls, value, n: int) -> "Jet2":
        return cls(value, np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.n)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess, self.d3 + o.d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess, self.d3 - o.d3)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess, -self.d3)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self.value[..., None], o.value[..., None]
        outer = self.grad[..., :, None] * o.grad[..., None, :]
        return Jet2(
            self.value * o.value,
            a * o.grad + b * self.grad,
            a[..., None] * o.hess + b[..., None] * self.hess + outer + outer.swapaxes(-1, -2),
            a[..., None, None] * o.d3 + b[..., None, None] * self.d3
            + _sym3(self.hess, o.grad) + _sym3(o.hess, self.grad),
        )

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
            return Jet2.constant(1.0, self.n)
        if p == 1:
            return self
        # falling factorials; a zero one drops its term, so x^2 at 0 has d3 = 0, not 0 * 0^-1
        c = (p, p * (p - 1), p * (p - 1) * (p - 2))

        def factors(v):
            if v < 0 and p != int(p):
                raise ValueError(f"fractional power of negative base {v}")
            f1, f2, f3 = (ck * v ** (p - k) if ck else 0.0 for k, ck in enumerate(c, 1))
            return v**p, f1, f2, f3

        return self._chain(factors)

    def _reciprocal(self):
        return self._chain(lambda v: (1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4))

    def _chain(self, factors: Callable) -> "Jet2":
        """Compose with a scalar function; ``factors(v)`` gives its value and three derivatives."""
        f = per_value(factors, self.value)
        f0, f1, f2, f3 = f[..., 0], f[..., 1:2], f[..., 2:3], f[..., 3:4]
        g = self.grad
        outer = g[..., :, None] * g[..., None, :]
        return Jet2(
            f0,
            f1 * g,
            f1[..., None] * self.hess + f2[..., None] * outer,
            f1[..., None, None] * self.d3 + f2[..., None, None] * _sym3(self.hess, g)
            + f3[..., None, None] * (outer[..., None] * g[..., None, None, :]),
        )


def _lift(f_plain: Callable[[float], float], d1, d2, d3) -> Callable:
    def factors(v):
        return f_plain(v), d1(v), d2(v), d3(v)

    def wrapped(x):
        if isinstance(x, Jet2):
            return x._chain(factors)
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


def jet_arrays(entries: Sequence, shape: tuple, third: bool = True) -> tuple:
    """Values and derivatives of jets (or plain numbers) at points of ``shape = (..., n)``.

    Returns ``(value, d1, d2, d3)`` of shapes (..., m), (..., m, n),
    (..., m, n, n) and (..., m, n, n, n), the entry axis after the point
    axes; ``d2`` is symmetrized, and ``d3`` is left out unless ``third``.
    """
    *lead, n = shape
    m = len(entries)
    value, d1, d2 = np.zeros((*lead, m)), np.zeros((*lead, m, n)), np.zeros((*lead, m, n, n))
    d3 = np.zeros((*lead, m, n, n, n)) if third else None
    for i, e in enumerate(entries):
        if isinstance(e, Jet2):
            value[..., i], d1[..., i, :] = e.value, e.grad
            d2[..., i, :, :] = 0.5 * (e.hess + e.hess.swapaxes(-1, -2))
            if third:
                d3[..., i, :, :, :] = e.d3
        elif (v := float(e)) or math.copysign(1.0, v) < 0:
            # a plain +0.0 is already in place
            value[..., i] = v
    return (value, d1, d2, d3) if third else (value, d1, d2)


def seed_point(x) -> list[Jet2]:
    """Independent jet variables at a point (n,) or at points (P, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    # jets are never written in place, so the variables share their zero derivatives
    grads, hess, d3 = np.eye(n), np.zeros((n, n)), np.zeros((n, n, n))
    return [Jet2(x[..., i], grads[i], hess, d3) for i in range(n)]


def matrix_product(a: tuple, b: tuple) -> tuple:
    """Matrix jet of the product ``A B`` (Leibniz rule to second order)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    A0, B0 = a0[..., None, :, :], b0[..., None, :, :]
    return (
        a0 @ b0,
        a1 @ B0 + A0 @ b1,
        a2 @ B0[..., None, :, :] + A0[..., None, :, :] @ b2
        + a1[..., :, None, :, :] @ b1[..., None, :, :, :]
        + a1[..., None, :, :, :] @ b1[..., :, None, :, :],
    )


def matrix_inverse(a: tuple) -> tuple:
    """Matrix jet of ``A^-1``, from differentiating ``A A^-1 = I`` twice."""
    a0, a1, a2 = a
    x0 = np.linalg.inv(a0)
    X0 = x0[..., None, :, :]
    x1 = -X0 @ a1 @ X0
    x2 = -X0[..., None, :, :] @ (
        a2 @ X0[..., None, :, :]
        + a1[..., :, None, :, :] @ x1[..., None, :, :, :]
        + a1[..., None, :, :, :] @ x1[..., :, None, :, :]
    )
    return x0, x1, x2
