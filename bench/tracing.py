"""Per-layer tracing installed from the benchmark, without engine changes.

A layer is an engine module.  ``installed`` wraps the public functions and
methods listed in ``TARGETS`` on every binding that names them: the
engine binds names with ``from .x import y``, so ``maps.christoffel`` and
``geometry.christoffel`` are separate references to one function, and a
wrapper on only one of them would miss calls.  Each call records a span
``(name, start, end, parent, scene_id)`` in memory; ``Tracer.write``
saves them when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` of ``casoratiq.<module>`` (``Class.method`` allowed)."""

    module: str
    attr: str
    metric: str  # metric prefix, "<module>.<function>"


TARGETS = (
    Target("scenes", "parse_scenario", "scenes.parse_scenario"),
    Target("scenes", "evaluate_scenario", "scenes.evaluate_scenario"),
    Target("cli", "report_json", "cli.report_json"),
    Target("expressions", "compile_expression", "expressions.compile_expression"),
    Target("expressions", "CompiledExpression.__call__", "expressions.CompiledExpression"),
    Target("jets", "seed_point", "jets.seed_point"),
    Target("geometry", "MetricChart.metric_jets", "geometry.metric_jets"),
    Target("geometry", "christoffel", "geometry.christoffel"),
    Target("geometry", "christoffel_with_grad", "geometry.christoffel_with_grad"),
    Target("geometry", "riemann", "geometry.riemann"),
    Target("maps", "SmoothMap.jets", "maps.SmoothMap.jets"),
    Target("maps", "differential", "maps.differential"),
    Target("maps", "second_fundamental_form", "maps.second_fundamental_form"),
    Target("maps", "oneill_T", "maps.oneill_T"),
    Target("maps", "oneill_A", "maps.oneill_A"),
    Target("maps", "vertical_bracket", "maps.vertical_bracket"),
    Target("maps", "gauss_residual_map", "maps.gauss_residual_map"),
    Target("maps", "gauss_residual_submersion", "maps.gauss_residual_submersion"),
    Target("quaternionic", "QSFOracle.quad", "quaternionic.QSFOracle.quad"),
    Target("quaternionic", "decompose_J", "quaternionic.decompose_J"),
    Target(
        "quaternionic",
        "check_quaternionic_structure",
        "quaternionic.check_quaternionic_structure",
    ),
    Target("casorati", "hyperplane_extrema", "casorati.hyperplane_extrema"),
    Target(
        "inequalities",
        "space_form_residual_from_tensor",
        "inequalities.space_form_residual_from_tensor",
    ),
    Target("inequalities", "check_map_theorem", "inequalities.check_map_theorem"),
    Target("inequalities", "check_vertical_theorem", "inequalities.check_vertical_theorem"),
    Target(
        "inequalities", "check_horizontal_theorem", "inequalities.check_horizontal_theorem"
    ),
    Target("inequalities", "check_combined_theorem", "inequalities.check_combined_theorem"),
    Target("inequalities", "equality_diagnostics", "inequalities.equality_diagnostics"),
)

EXTREMA = "casorati.hyperplane_extrema"
SPACE_FORM = "inequalities.space_form_residual_from_tensor"
EXTREMA_TARGET = next(t for t in TARGETS if t.metric == EXTREMA)
SPACE_FORM_DIMS = (8, 12)


def _span_suffix(metric: str, args) -> str:
    """Spans of some targets carry the input class that sets their cost."""
    if metric == EXTREMA:
        return "." + args[0].kind  # symmetric (T, B) or skew (A) slices
    if metric == SPACE_FORM:
        return f".n{np.shape(args[2])[-1]}"  # ambient dimension of the frame
    return ""


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scene = array("i")
        self.scene_id = -1
        self._stack = [-1]
        self.descent_iterations = 0
        self.converged_starts = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn: Callable, args, kwargs):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.scene.append(self.scene_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def observe_extrema(self, result) -> None:
        for side in ("min", "max"):
            self.descent_iterations += result.audit[side]["iterations"]
            self.converged_starts += result.audit[side]["converged_starts"]

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call count and summed self time (seconds) for every span name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(selfs[i]) for i, n in enumerate(self.names)},
        )

    def write(self, path) -> None:
        """Save every span as numpy arrays in one ``.npz`` file.

        Row i is one span: ``names[name[i]]``, ``start[i]`` and ``end[i]``
        (``time.perf_counter`` seconds), ``parent[i]`` (row of the
        enclosing span, -1 at top level) and ``scene_id[i]`` (index of
        the scene in the traced loop).
        """
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            scene_id=np.frombuffer(self.scene, dtype=np.int32),
        )


def _resolve(target: Target):
    """(owner, attribute name, original) for a target."""
    owner = importlib.import_module(f"casoratiq.{target.module}")
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.metric in (EXTREMA, SPACE_FORM):

        @functools.wraps(fn)
        def classified(*args, **kwargs):
            nid = tracer.name_id(target.metric + _span_suffix(target.metric, args))
            result = tracer.call(nid, fn, args, kwargs)
            if target.metric == EXTREMA:
                tracer.observe_extrema(result)
            return result

        return classified

    nid = tracer.name_id(target.metric)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(nid, fn, args, kwargs)

    return wrapper


def _engine_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "casoratiq" or name.startswith("casoratiq."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of every target for the duration of the block."""
    patches = []  # (owner, attribute, original)
    try:
        for target in TARGETS:
            owner, attr, original = _resolve(target)
            wrapped = _wrapper(tracer, target, original)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in _engine_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def code_key(target: Target) -> tuple[str, int, str]:
    """cProfile's key for the original function of a target."""
    code = _resolve(target)[2].__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def target_totals(target: Target, calls: dict[str, int], selfs: dict[str, float]):
    """(calls, self seconds) of a target, summed over its classified span names."""
    names = [n for n in calls if n == target.metric or n.startswith(target.metric + ".")]
    return sum(calls[n] for n in names), sum(selfs[n] for n in names)


def layer_metrics(tracer: Tracer, points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalized per evaluated point where it applies."""
    calls, selfs = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for target in TARGETS:
        n_calls, self_s = target_totals(target, calls, selfs)
        out[f"{target.metric}.calls"] = (n_calls / points, "1/point")
        out[f"{target.metric}.self_ms"] = (1e3 * self_s / points, "ms/point")
    for kind in ("symmetric", "skew"):
        name = f"{EXTREMA}.{kind}"
        out[f"{EXTREMA}.self_ms.{kind}"] = (1e3 * selfs.get(name, 0.0) / points, "ms/point")
    for n in SPACE_FORM_DIMS:
        name = f"{SPACE_FORM}.n{n}"
        per_call = 1e3 * selfs[name] / calls[name] if calls.get(name) else 0.0
        out[f"{SPACE_FORM}.self_ms.n{n}"] = (per_call, "ms/call")
    # both read from the audit of each call, summed over its min and max sides
    n_extrema = target_totals(EXTREMA_TARGET, calls, selfs)[0]
    out["casorati.descent_iterations"] = (
        tracer.descent_iterations / n_extrema if n_extrema else 0.0,
        "iter/call",
    )
    out["casorati.converged_starts"] = (
        tracer.converged_starts / n_extrema if n_extrema else 0.0,
        "starts/call",
    )
    return out
