"""Second-order forward-mode automatic differentiation.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar
expression with respect to a fixed set of base variables.  Metric
components, map components and scene expressions are all evaluated on
jets, so curvature assembly downstream gets exact second derivatives
instead of finite differences.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "Jet2",
    "seed_point",
    "eval_jet2",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "jet_norm",
]


class Jet2:
    """Truncated Taylor carrier: value, n-gradient and n x n Hessian."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet2":
        return cls(value, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def variable(cls, value: float, index: int, n: int) -> "Jet2":
        grad = np.zeros(n)
        grad[index] = 1.0
        return cls(value, grad, np.zeros((n, n)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.n)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet2(o.value - self.value, o.grad - self.grad, o.hess - self.hess)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        o = self._coerce(other)
        outer = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + outer + outer.T,
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
        return self._chain(v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def _reciprocal(self):
        v = self.value
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def _chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given its value and derivatives."""
        outer = np.outer(self.grad, self.grad)
        return Jet2(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r})"


def _lift(f_plain: Callable[[float], float], d1, d2) -> Callable:
    def wrapped(x):
        if isinstance(x, Jet2):
            v = x.value
            return x._chain(f_plain(v), d1(v), d2(v))
        return f_plain(float(x))

    return wrapped


exp = _lift(math.exp, math.exp, math.exp)
log = _lift(math.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2)
sin = _lift(math.sin, math.cos, lambda v: -math.sin(v))
cos = _lift(math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
sqrt = _lift(
    math.sqrt,
    lambda v: 0.5 / math.sqrt(v),
    lambda v: -0.25 / math.sqrt(v) ** 3,
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


def seed_point(x: Sequence[float]) -> list[Jet2]:
    """Turn a coordinate point into independent jet variables."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return [Jet2.variable(x[i], i, n) for i in range(n)]


def eval_jet2(field: Callable, x: Sequence[float], domain=None) -> Jet2:
    """Evaluate a scalar field to second order at ``x``.

    ``field`` receives a list of jets and must return a jet or a plain
    number (constant fields).  When ``domain`` is given as a sequence of
    open intervals, the point must lie strictly inside.
    """
    x = np.asarray(x, dtype=float)
    if domain is not None:
        for xi, (lo, hi) in zip(x, domain):
            if not (lo < xi < hi):
                raise DomainError(f"coordinate {xi} outside open interval ({lo}, {hi})")
    out = field(seed_point(x))
    if not isinstance(out, Jet2):
        out = Jet2.constant(float(out), x.shape[0])
    out.hess = 0.5 * (out.hess + out.hess.T)
    return out
