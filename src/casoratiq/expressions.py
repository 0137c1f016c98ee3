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
post-order program.  Nothing here recurses, so only the Python parser
bounds the nesting depth.

Several expressions, such as the n^2 metric entries of a chart or the
components of a map, compile into one program (``compile_program``).
Local value numbering (Aho, Lam, Sethi & Ullman, *Compilers*, 2nd ed.,
6.1 and 8.5) gives structurally identical subexpressions one
instruction, so each is evaluated once for all the entries that hold it;
commutative operands are not reordered, so every entry gets the bits it
gets alone.  Each instruction writes one slot of a register file, and a
slot is reused once its last reader has run.  A program enters its
floating-point state once per run and checks the finiteness of its
results once, and an error names the first failing entry in entry
order, as evaluating the entries one by one would.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import jets
from .errors import DomainError, SceneValidationError

__all__ = ["compile_expression", "compile_program", "CompiledExpression", "CompiledProgram"]

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


# post-order instructions are (kind, argument) pairs: "const" pushes its
# argument, "coord" the coordinate of that index, "coords" applies its
# argument to the coordinate list, and "unary" and "binary" apply theirs
# to the operands on top of the stack
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
            program.append(("coord", int(var.group(1)[:18]) - 1))
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


def _numbered(programs: list) -> tuple:
    """One program for the post-order ``programs``, by local value numbering.

    Returns ``(code, outputs, owners, size, checked)``.  ``code`` holds
    instructions ``(kind, argument, a, b, slot)`` that read their operands
    from slots ``a`` and ``b`` (None where there are fewer) and write
    ``slot``; ``outputs`` is the slot of each program's result, ``owners``
    the first program that holds each instruction, and ``size`` the number
    of slots.  ``checked`` holds ``(entry, slot)`` for the first program
    with each distinct result that is not a literal: a literal is finite,
    since the parser rejects one that overflows.  A slot is reused once
    its last reader has run; a result's never is.
    """
    numbers, ssa, owners, results = {}, [], [], []
    for entry, program in enumerate(programs):
        stack = []
        for kind, arg in program:
            arity = 2 if kind == "binary" else int(kind == "unary")
            operands = tuple(stack[len(stack) - arity :])
            del stack[len(stack) - arity :]
            # -0.0 and 0.0 share a number: only an exponent can be -0.0, and x^-0 = x^0 = 1
            key = (kind, arg, operands)
            if key not in numbers:
                numbers[key] = len(ssa)
                ssa.append((kind, arg, operands))
                owners.append(entry)
            stack.append(numbers[key])
        (result,) = stack
        results.append(result)
    last = {v: i for i, (_, _, operands) in enumerate(ssa) for v in operands}
    last.update((v, len(ssa)) for v in results)
    slot, free, code, size = [], [], [], 0
    for i, (kind, arg, operands) in enumerate(ssa):
        a, b = ([slot[v] for v in operands] + [None, None])[:2]
        # an instruction reads its operands before it writes, so it may reuse their slots
        free += [slot[v] for v in dict.fromkeys(operands) if last[v] == i]
        if not free:
            free.append(size)
            size += 1
        slot.append(free.pop())
        code.append((kind, arg, a, b, slot[-1]))
    first = {}
    for entry, v in enumerate(results):
        first.setdefault(v, entry)
    checked = tuple((entry, slot[v]) for v, entry in first.items() if ssa[v][0] != "const")
    return tuple(code), tuple(slot[v] for v in results), tuple(owners), size, checked


@dataclass(frozen=True)
class CompiledProgram:
    """Expressions compiled into one program, callable on a coordinate list of
    jets or of plain values; a call returns each expression's value, in order.

    A coordinate is a jet, a float, or an array of floats with one entry
    per point.  A value or derivative that is undefined or not finite at
    a point raises :class:`DomainError` naming the first expression, in
    order, that has one.  A program whose every result is a literal or a
    bare coordinate is passive (``passive``): its callers can write its
    jets down without running it.
    """

    sources: tuple
    code: tuple
    outputs: tuple
    owners: tuple
    size: int
    checked: tuple

    def __call__(self, coords) -> list:
        slots, i = [None] * self.size, 0
        try:
            # an overflow or an inf * 0 inside the jet arrays is caught by the
            # finiteness check; a division by zero of plain arrays raises, as a
            # float division does
            with np.errstate(over="ignore", invalid="ignore", divide="raise"):
                for i, (kind, arg, a, b, slot) in enumerate(self.code):
                    if kind == "binary":
                        slots[slot] = arg(slots[a], slots[b])
                    elif kind == "unary":
                        slots[slot] = arg(slots[a])
                    elif kind == "const":
                        slots[slot] = arg
                    elif kind == "coord":
                        slots[slot] = coords[arg]
                    else:
                        slots[slot] = arg(coords)
        except (IndexError, ValueError, ZeroDivisionError, OverflowError, FloatingPointError) as e:
            # every expression before the failing one has its result in place
            entry = self.owners[i]
            self._require_finite(slots, entry)
            if isinstance(e, IndexError):
                raise SceneValidationError(
                    f"expression {self.sources[entry]!r} has a variable beyond dimension"
                    f" {len(coords)}"
                ) from e
            raise DomainError(
                f"expression {self.sources[entry]!r} is undefined at this point: {e}"
            ) from e
        self._require_finite(slots, len(self.sources))
        return [slots[s] for s in self.outputs]

    @cached_property
    def passive(self) -> Optional[tuple]:
        """``(index, values)`` when every result is a literal or a bare coordinate, else None.

        Result k is then the coordinate ``index[k]``, or the literal
        ``values[k]`` where ``index[k]`` is -1.  No result reads a
        coordinate through an operation, so its derivatives are known
        before anything is evaluated: a unit vector for a coordinate and
        zero for a literal.  That is the activity analysis of automatic
        differentiation (Griewank & Walther, *Evaluating Derivatives*, SIAM
        2008).  Worked out once per program; a result's slot is never
        reused, so the last instruction that writes it computes the result.
        """
        writer = {slot: (kind, arg) for kind, arg, _, _, slot in self.code}
        leaves = [writer[slot] for slot in self.outputs]
        if any(kind not in ("const", "coord") for kind, _ in leaves):
            return None
        index = np.array([arg if kind == "coord" else -1 for kind, arg in leaves], dtype=np.intp)
        values = np.array([arg if kind == "const" else 0.0 for kind, arg in leaves])
        return index, values

    def _require_finite(self, slots: list, count: int) -> None:
        """Raise for the first of the first ``count`` results that is not finite."""
        for entry, slot in self.checked:
            if entry >= count:
                break
            out = slots[slot]
            if isinstance(out, jets.Jet2):
                arrays = (out.value, out.grad, out.hess, out.d3)
            else:
                arrays = (out,)
            # a 1-d view keeps .all() on the array path for a 0-d value: a constant's,
            # or that of a point without an axis
            if not all(a is None or np.isfinite(np.reshape(a, -1)).all() for a in arrays):
                source = self.sources[entry]
                raise DomainError(f"expression {source!r} is not finite at this point")


class CompiledExpression(CompiledProgram):
    """One compiled expression; a call returns its value."""

    @property
    def source(self) -> str:
        return self.sources[0]

    def __call__(self, coords):
        (out,) = super().__call__(coords)
        return out


def compile_expression(text) -> CompiledExpression:
    """Compile an expression string; a JSON number is read as its decimal text.

    Each distinct text parses once per process and every caller shares
    the immutable result; a text that does not compile raises every time.
    """
    return _compile(CompiledExpression, (str(text),))


def compile_program(texts) -> CompiledProgram:
    """Compile expression strings, each read as ``compile_expression`` reads it, into one program.

    A program is cached by its tuple of texts, and each distinct text
    parses once per process; the first text that does not compile raises.
    """
    return _compile(CompiledProgram, tuple(map(str, texts)))


@lru_cache(maxsize=1024)
def _compile(cls: type, texts: tuple) -> CompiledProgram:
    return cls(texts, *_numbered([_parse(t) for t in texts]))


@lru_cache(maxsize=1024)
def _parse(text: str) -> tuple:
    return _program(text)
