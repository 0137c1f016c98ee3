"""Closed-form expression language for scene files.

The grammar is Python's arithmetic subset with ``^`` as an alias of
``**``, whitespace-insensitive: numeric literals, ``+ - * /``, unary
minus (which binds below a power, so ``-x1^2`` is ``-(x1^2)``),
parentheses, and powers whose exponent is a numeric literal that may be
negated.  Identifiers are the coordinates ``x1 .. xn``, the bare vector
``x`` (only as the argument of ``norm``), and the functions ``exp``,
``log``, ``sin``, ``cos``, ``sqrt``, ``norm``.  The grammar is
deliberately closed under the jet arithmetic in :mod:`casoratiq.jets`.

The language's lexical rules turn the text into Python source, which
:func:`ast.parse` reads; a walk flattens the accepted nodes into a
post-order program run on a value stack.  Nothing here recurses, so only
the Python parser bounds the nesting depth.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError, SceneValidationError

__all__ = ["compile_expression", "CompiledExpression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|\^|[+\-*/()])"
    r"|(?P<bad>\S))"
)
_VARIABLE = re.compile(r"x0*([1-9]\d*)")

_FUNCTIONS = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
}


def _power(base, expo):
    # math.pow raises where float ** would return a complex number
    if isinstance(base, jets.Jet2):
        return base**expo
    return jets.per_value(lambda v: math.pow(v, expo), base)


# program instructions are (kind, argument) pairs; "coords" applies its
# argument to the coordinate list
_BINARY = {
    ast.Add: ("binary", operator.add),
    ast.Sub: ("binary", operator.sub),
    ast.Mult: ("binary", operator.mul),
    ast.Div: ("binary", operator.truediv),
    ast.Pow: ("binary", _power),
}


def _python_source(text: str) -> str:
    """The tokens of ``text`` as Python source, one space apart, with ``^`` as ``**``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        num, ident, op, bad = m.groups()
        if bad is not None:
            raise SceneValidationError(
                f"bad character {bad!r} at column {m.end()} in expression {text!r}"
            )
        if num is not None and math.isinf(float(num)):
            raise SceneValidationError(f"literal {num} overflows in expression {text!r}")
        tokens.append(repr(float(num)) if num is not None else ident or op)
    # the spaces keep neighbouring tokens apart, as in "x1 2" or "/ /"
    return " ".join(tokens).replace("^", "**")


def _exponent(node, text: str) -> float:
    negated = type(node) is ast.UnaryOp and type(node.op) is ast.USub
    if negated:
        node = node.operand
    if type(node) is not ast.Constant or type(node.value) is not float:
        raise SceneValidationError(f"exponent must be a numeric literal in expression {text!r}")
    return -node.value if negated else node.value


def _program(text: str) -> tuple:
    """The post-order program of ``text``."""
    source = _python_source(text)
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as e:
        # CPython's own limits on nesting depth differ between versions
        reason = e.msg if isinstance(e, SyntaxError) else "nested too deeply"
        raise SceneValidationError(f"cannot parse expression {text!r}: {reason}") from e
    program = []
    # a tuple on the stack is an instruction whose operands are already emitted
    todo = [tree.body]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:
            program.append(node)
        elif kind is ast.Constant and type(node.value) is float:
            program.append(("const", node.value))
        elif kind is ast.Name and (var := _VARIABLE.fullmatch(node.id)):
            # an index too long for int() is out of range, and so is its 18-digit prefix
            program.append(("coords", operator.itemgetter(int(var.group(1)[:18]) - 1)))
        elif kind is ast.BinOp and type(node.op) is ast.Pow:
            todo += [_BINARY[ast.Pow], ("const", _exponent(node.right, text)), node.left]
        elif kind is ast.BinOp and type(node.op) in _BINARY:
            todo += [_BINARY[type(node.op)], node.right, node.left]
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            todo += [("unary", operator.neg), node.operand]
        elif kind is ast.Call and type(node.func) is ast.Name:
            name, func = node.func.id, node.func
            # Python also reads "(exp)(x1)" and "norm((x))" as calls; the offsets rule them out
            bare = func.col_offset == node.col_offset
            args = source[func.end_col_offset : node.end_col_offset]
            if bare and name == "norm" and args == " ( x )":
                program.append(("coords", jets.jet_norm))
            elif bare and name in _FUNCTIONS and len(node.args) == 1 and not node.keywords:
                todo += [("unary", _FUNCTIONS[name]), node.args[0]]
            else:
                raise SceneValidationError(f"bad call of {name!r} in expression {text!r}")
        else:
            what = repr(node.id) if kind is ast.Name else type(node).__name__
            raise SceneValidationError(f"unsupported {what} in expression {text!r}")
    return tuple(program)


@dataclass(frozen=True)
class CompiledExpression:
    """A parsed expression, callable on a coordinate list of jets or of plain values.

    A coordinate is a jet, a float, or an array of floats with one entry
    per point.  A value or derivative that is undefined or not finite at
    a point raises :class:`DomainError` naming the expression.
    """

    source: str
    program: tuple

    def __call__(self, coords):
        stack = []
        try:
            # an overflow or an inf * 0 inside the jet arrays is caught below; a
            # division by zero of plain arrays raises, as a float division does
            with np.errstate(over="ignore", invalid="ignore", divide="raise"):
                for kind, arg in self.program:
                    if kind == "const":
                        stack.append(arg)
                    elif kind == "coords":
                        stack.append(arg(coords))
                    elif kind == "unary":
                        stack.append(arg(stack.pop()))
                    else:
                        rhs = stack.pop()
                        stack.append(arg(stack.pop(), rhs))
        except IndexError as e:
            raise SceneValidationError(
                f"expression {self.source!r} has a variable beyond dimension {len(coords)}"
            ) from e
        except (ValueError, ZeroDivisionError, OverflowError, FloatingPointError) as e:
            raise DomainError(f"expression {self.source!r} is undefined at this point: {e}") from e
        (out,) = stack
        arrays = (out.value, out.grad, out.hess, out.d3) if isinstance(out, jets.Jet2) else (out,)
        # a 1-d view keeps .all() on the array path for a lone point's 0-d value
        if not all(np.isfinite(np.reshape(a, -1)).all() for a in arrays):
            raise DomainError(f"expression {self.source!r} is not finite at this point")
        return out


def compile_expression(text) -> CompiledExpression:
    """Compile an expression string; a JSON number is read as its decimal text."""
    return CompiledExpression(str(text), _program(str(text)))
