"""Closed-form expression language for scene files.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom (("^" | "**") factor)?
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Identifiers are the coordinates ``x1 .. xn``, the bare vector ``x``
(only as the argument of ``norm``), and the functions ``exp``, ``log``,
``sin``, ``cos``, ``sqrt``, ``norm``.  The grammar is deliberately
closed under the jet arithmetic in :mod:`casoratiq.jets`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError, SceneValidationError

__all__ = ["compile_expression", "CompiledExpression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|\^|[+\-*/()]))"
)

_FUNCTIONS = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise SceneValidationError(
                f"bad character {text[pos]!r} at column {pos + 1} in expression {text!r}"
            )
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.advance()
        if kind != "op" or val != op:
            raise SceneValidationError(f"expected {op!r} in expression {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise SceneValidationError(f"trailing tokens in expression {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.advance()[1]
            rhs = self.term()
            node = ("+" if op == "+" else "-", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        # unary minus binds below the power: -x1^2 means -(x1^2)
        if self.peek() == ("op", "-"):
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.advance()
            expo = self.factor()
            if expo[0] != "num" and not (expo[0] == "neg" and expo[1][0] == "num"):
                raise SceneValidationError(
                    f"exponent must be a numeric literal in expression {self.text!r}"
                )
            return ("pow", base, expo)
        return base

    def atom(self):
        kind, val = self.advance()
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "num":
            return ("num", float(val))
        if kind == "ident":
            if self.peek() == ("op", "("):
                self.advance()
                if val == "norm":
                    arg = self.norm_arg()
                else:
                    arg = self.expr()
                self.expect_op(")")
                if val == "norm":
                    return ("norm", arg)
                if val not in _FUNCTIONS:
                    raise SceneValidationError(f"unknown function {val!r}")
                return ("call", val, arg)
            if val == "x":
                raise SceneValidationError("bare 'x' is only valid inside norm(x)")
            m = re.fullmatch(r"x(\d+)", val)
            if m is None or int(m.group(1)) < 1:
                raise SceneValidationError(f"unknown identifier {val!r}")
            return ("var", int(m.group(1)) - 1)
        raise SceneValidationError(f"unexpected token in expression {self.text!r}")

    def norm_arg(self):
        # norm(x) takes the whole coordinate vector
        if self.peek() == ("ident", "x"):
            self.advance()
            return "all"
        raise SceneValidationError("norm() accepts only the coordinate vector x")


def _evaluate(node, coords):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        idx = node[1]
        if idx >= len(coords):
            raise SceneValidationError(
                f"variable x{idx + 1} out of range for dimension {len(coords)}"
            )
        return coords[idx]
    if op == "neg":
        return -_evaluate(node[1], coords)
    if op == "+":
        return _evaluate(node[1], coords) + _evaluate(node[2], coords)
    if op == "-":
        return _evaluate(node[1], coords) - _evaluate(node[2], coords)
    if op == "*":
        return _evaluate(node[1], coords) * _evaluate(node[2], coords)
    if op == "/":
        return _evaluate(node[1], coords) / _evaluate(node[2], coords)
    if op == "pow":
        expo = _evaluate(node[2], [])
        base = _evaluate(node[1], coords)
        # math.pow raises where float ** would return a complex number
        return base**expo if isinstance(base, jets.Jet2) else math.pow(base, expo)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], coords))
    if op == "norm":
        return jets.jet_norm(coords)
    raise AssertionError(f"unhandled node {node!r}")


@dataclass(frozen=True)
class CompiledExpression:
    """A parsed expression, callable on a coordinate list of jets or floats.

    A value or derivative that is undefined or not finite at the point
    raises :class:`DomainError` naming the expression.
    """

    source: str
    _ast: tuple

    def __call__(self, coords):
        try:
            # an overflow or an inf * 0 inside the jet arrays is caught below
            with np.errstate(over="ignore", invalid="ignore"):
                out = _evaluate(self._ast, coords)
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise DomainError(f"expression {self.source!r} is undefined at this point: {e}") from e
        parts = (out.value, out.grad, out.hess, out.d3) if isinstance(out, jets.Jet2) else (out,)
        if not all(np.isfinite(part).all() for part in parts):
            raise DomainError(f"expression {self.source!r} is not finite at this point")
        return out


def compile_expression(text) -> CompiledExpression:
    if isinstance(text, (int, float)):
        value = float(text)
        return CompiledExpression(repr(value), ("num", value))
    ast = _Parser(str(text)).parse()
    return CompiledExpression(str(text), ast)
