"""Third-order forward-mode automatic differentiation.

A :class:`Jet2` carries the value and the first three derivatives of a
scalar expression with respect to a fixed set of base variables
(truncated Taylor mode; Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008, ch. 13).  Metric components, map components and scene
expressions are all evaluated on jets, so curvature and the O'Neill
tensor derivatives downstream are exact instead of finite differences.
A matrix jet is a tuple ``(M, dM, d2M)`` with ``dM[p] = d_p M`` and
``d2M[p, q] = d_p d_q M``.
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
    "matrix_product",
    "matrix_inverse",
]


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h_ij g_k + h_ik g_j + h_jk g_i`` for a symmetric ``h``."""
    t = np.multiply.outer(h, g)
    return t + t.transpose(0, 2, 1) + t.transpose(2, 1, 0)


class Jet2:
    """Truncated Taylor carrier: value, n-gradient, n x n Hessian and the
    n x n x n symmetric third derivative ``d3[i, j, k] = d_i d_j d_k f``."""

    __slots__ = ("value", "grad", "hess", "d3")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray, d3: np.ndarray):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.d3 = np.asarray(d3, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet2":
        return cls(value, np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n)))

    @classmethod
    def variable(cls, value: float, index: int, n: int) -> "Jet2":
        grad = np.zeros(n)
        grad[index] = 1.0
        return cls(value, grad, np.zeros((n, n)), np.zeros((n, n, n)))

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
        outer = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + outer + outer.T,
            self.value * o.d3 + o.value * self.d3
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
        v = self.value
        if v < 0 and p != int(p):
            raise ValueError(f"fractional power of negative base {v}")
        # falling factorials; a zero one drops its term, so x^2 at 0 has d3 = 0, not 0 * 0^-1
        c = (p, p * (p - 1), p * (p - 1) * (p - 2))
        f1, f2, f3 = (ck * v ** (p - k) if ck else 0.0 for k, ck in enumerate(c, 1))
        return self._chain(v**p, f1, f2, f3)

    def _reciprocal(self):
        v = self.value
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)

    def _chain(self, f0: float, f1: float, f2: float, f3: float) -> "Jet2":
        """Compose with a scalar function given its value and three derivatives."""
        g = self.grad
        outer = np.outer(g, g)
        return Jet2(
            f0,
            f1 * g,
            f1 * self.hess + f2 * outer,
            f1 * self.d3 + f2 * _sym3(self.hess, g) + f3 * np.multiply.outer(outer, g),
        )


def _lift(f_plain: Callable[[float], float], d1, d2, d3) -> Callable:
    def wrapped(x):
        if isinstance(x, Jet2):
            v = x.value
            return x._chain(f_plain(v), d1(v), d2(v), d3(v))
        return f_plain(float(x))

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


def jet_arrays(entries: Sequence, n: int) -> tuple:
    """Values and derivatives of jets (or plain numbers) in ``n`` variables, entry axis first.

    Returns ``(value, d1, d2, d3)`` of shapes (m,), (m, n), (m, n, n) and (m, n, n, n).
    """
    m = len(entries)
    value, d1, d2, d3 = np.empty(m), np.zeros((m, n)), np.zeros((m, n, n)), np.zeros((m, n, n, n))
    for i, e in enumerate(entries):
        if isinstance(e, Jet2):
            value[i], d1[i], d2[i], d3[i] = e.value, e.grad, 0.5 * (e.hess + e.hess.T), e.d3
        else:
            value[i] = float(e)
    return value, d1, d2, d3


def seed_point(x: Sequence[float]) -> list[Jet2]:
    """Turn a coordinate point into independent jet variables."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return [Jet2.variable(x[i], i, n) for i in range(n)]


def matrix_product(a: tuple, b: tuple) -> tuple:
    """Matrix jet of the product ``A B`` (Leibniz rule to second order)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a0 @ b0,
        a1 @ b0 + a0 @ b1,
        a2 @ b0 + a0 @ b2 + a1[:, None] @ b1[None] + a1[None] @ b1[:, None],
    )


def matrix_inverse(a: tuple) -> tuple:
    """Matrix jet of ``A^-1``, from differentiating ``A A^-1 = I`` twice."""
    a0, a1, a2 = a
    x0 = np.linalg.inv(a0)
    x1 = -x0 @ a1 @ x0
    x2 = -x0 @ (a2 @ x0 + a1[:, None] @ x1[None] + a1[None] @ x1[:, None])
    return x0, x1, x2
