"""Scenario model: parsing, validation, builtin registry and point evaluation.

A scenario is a single JSON document (version 1).  Chart scenes declare
source/target charts, the map expressions and evaluation points;
pointwise scenes declare explicit frames, tensors and the structure
matrices.  Unknown keys are rejected, seeds are mandatory for sampled
points, and every numeric knob is echoed into the run report.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import geometry, maps
from .errors import CasoratiqError, DomainError, RankError, SceneValidationError, StructureError
from .expressions import compile_expression, compile_program
from .geometry import MAX_DIM, MetricChart
from .inequalities import (
    FAMILIES,
    FAMILY_TENSORS,
    FRAMES,
    TENSORS,
    THEOREM_IDS,
    SceneData,
    check_combined_theorem,
    check_horizontal_theorem,
    check_map_theorem,
    check_vertical_theorem,
    checker_inputs,
)
from .quaternionic import (
    FRAME_TOL,
    QuaternionicStructure,
    StructureReport,
    hermitian_residual,
    structure as structure_registry,
)

__all__ = [
    "Scenario",
    "PointResult",
    "RunReport",
    "load_scenario",
    "parse_scenario",
    "parse_tolerances",
    "validate_scenario",
    "evaluate_scenario",
    "builtin_names",
    "builtin_scenario",
    "random_pointwise_submersion",
]

_MAX_SAMPLE_COUNT = 1024

_TOP_KEYS_COMMON = {
    "version",
    "name",
    "mode",
    "theorems",
    "c",
    "deltaN",
    "tolerances",
    "points",
}
_TOP_KEYS_CHART = _TOP_KEYS_COMMON | {"map", "structure", "fiber_curvature"}
_TOP_KEYS_POINTWISE = (_TOP_KEYS_COMMON - {"points"}) | {
    "dim",
    "kind",
    "structure",
    "metric",
    "frames",
    "tensors",
}


def _reject_unknown(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise SceneValidationError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise SceneValidationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _require(obj: dict, key: str, where: str, kind: Optional[type] = None):
    """``obj[key]``, which must exist and, when ``kind`` is given, be of that type."""
    if not isinstance(obj, dict):
        raise SceneValidationError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise SceneValidationError(f"missing required key {key!r} in {where}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise SceneValidationError(f"{key} in {where} must be a {kind.__name__}, got {value!r}")
    return value


def _first_bad_entry(raw, where: str, ndim: int) -> Optional[tuple]:
    """``(path, ndim, value)`` of the first entry of ``raw`` that is not made of finite numbers."""
    if ndim and isinstance(raw, (list, tuple)):
        bad = (_first_bad_entry(item, f"{where}[{i}]", ndim - 1) for i, item in enumerate(raw))
        return next(filter(None, bad), None)
    try:
        ok = ndim == 0 and math.isfinite(float(raw))
    except (TypeError, ValueError, OverflowError):
        ok = False
    return None if ok else (where, ndim, raw)


def _numeric(raw, where: str, ndim: int = 0):
    """A number (``ndim`` 0) or an ``ndim``-dimensional float array from a scenario field.

    Anything that is not made of finite numbers is a scene error naming
    the first offending entry.
    """
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value.ndim != ndim or not np.isfinite(value).all():
        where, ndim, raw = _first_bad_entry(raw, where, ndim) or (where, ndim, raw)
        shape = "a finite number" if ndim == 0 else f"a {ndim}-d array of finite numbers"
        raise SceneValidationError(f"{where} must be {shape}, got {raw!r}")
    return float(value) if ndim == 0 else value


def _integer(raw, where: str) -> int:
    """A whole-number scenario field: a dimension, a rank, a sample count or seed."""
    value = _numeric(raw, where)
    if not value.is_integer():
        raise SceneValidationError(f"{where} must be a whole number, got {raw!r}")
    return raw if isinstance(raw, int) else int(value)


def _dimension(raw, where: str) -> int:
    """A chart or space dimension: a whole number from 1 to ``MAX_DIM``."""
    dim = _integer(raw, where)
    if not 1 <= dim <= MAX_DIM:
        raise SceneValidationError(f"{where} must be from 1 to {MAX_DIM}, got {raw!r}")
    return dim


def _box(raw, dim: int, where: str) -> tuple:
    """``dim`` [lo, hi] coordinate intervals."""
    box = _numeric(raw, where, ndim=2)
    if box.shape != (dim, 2):
        raise SceneValidationError(f"{where} must be {dim} [lo, hi] pairs")
    return tuple(map(tuple, box.tolist()))


def parse_tolerances(raw, where: str = "tolerances") -> dict:
    """Tolerance overrides ``equality`` and ``residual`` as finite numbers, zero or more.

    Zero asks for an exact check.
    """
    if not isinstance(raw, dict):
        raise SceneValidationError(f"{where} must be an object")
    _reject_unknown(raw, {"equality", "residual"}, where)
    tolerances = {k: _numeric(v, f"{where}.{k}") for k, v in raw.items()}
    for k, v in tolerances.items():
        if v < 0:
            raise SceneValidationError(f"{where}.{k} must not be negative, got {raw[k]!r}")
    return tolerances


def _parse_delta_n(raw) -> tuple[str, Optional[float]]:
    if raw is None:
        return "unset", None
    if not isinstance(raw, str):
        raise SceneValidationError('deltaN must be "zero" or "user:<value>"')
    if raw == "zero":
        return raw, 0.0
    if raw.startswith("user:"):
        return raw, _numeric(raw[5:], "deltaN value")
    raise SceneValidationError(f'deltaN must be "zero" or "user:<value>", got {raw!r}')


def _chart_from_spec(spec, where: str) -> MetricChart:
    if isinstance(spec, str):
        try:
            return geometry.chart(spec)
        except KeyError as e:
            raise SceneValidationError(e.args[0]) from e
    if not isinstance(spec, dict):
        raise SceneValidationError(f"{where} must be a chart name or object")
    _reject_unknown(spec, {"dim", "box", "metric", "name"}, where)
    dim = _dimension(_require(spec, "dim", where), f"{where}.dim")
    box = _box(_require(spec, "box", where), dim, f"{where}.box")
    rows = _require(spec, "metric", where, list)
    if len(rows) != dim or any(not isinstance(r, list) or len(r) != dim for r in rows):
        raise SceneValidationError(f"{where}.metric must be a {dim}x{dim} expression matrix")
    return MetricChart.from_exprs(dim, box, rows, str(spec.get("name", where)))


def _structure_from_spec(spec, dim: int, where: str) -> QuaternionicStructure:
    if not isinstance(spec, dict):
        raise SceneValidationError(f"{where} must be an object")
    _reject_unknown(spec, {"on", "name", "matrices"}, where)
    if ("name" in spec) == ("matrices" in spec):
        raise SceneValidationError(f"{where} needs exactly one of name / matrices")
    try:
        if "name" in spec:
            st = structure_registry(_require(spec, "name", where, str))
        else:
            st = QuaternionicStructure.from_matrices(
                _numeric(spec["matrices"], f"{where}.matrices", ndim=3)
            )
    except (KeyError, StructureError) as e:
        raise SceneValidationError(f"{where}: {e.args[0]}") from e
    if st.dim != dim:
        raise SceneValidationError(
            f"{where}: structure dimension {st.dim} does not match space dimension {dim}"
        )
    return st


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario, ready for validation and evaluation."""

    name: str
    mode: str  # "chart" | "pointwise"
    c: float
    delta_n_label: str
    delta_n: Optional[float]
    theorems: tuple[str, ...]
    tolerances: dict
    raw: dict
    kind: str = ""  # "submersion" | "map"
    # chart mode
    smap: Optional[maps.SmoothMap] = None
    structure: Optional[QuaternionicStructure] = None
    structure_on: str = ""
    fiber_kappa: Optional[Callable] = None
    points: tuple = ()
    sample_spec: Optional[dict] = None
    # pointwise mode
    dim: int = 0
    g: Optional[np.ndarray] = None
    frames: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)

    def evaluation_points(self) -> np.ndarray:
        if self.mode != "chart":
            return np.zeros((1, 0))
        if self.sample_spec is not None:
            rng = np.random.default_rng(self.sample_spec["seed"])
            lo, hi = np.array(self.sample_spec["box"]).T
            return lo + (hi - lo) * rng.random((self.sample_spec["count"], len(lo)))
        return np.asarray(self.points, dtype=float)


def _check_theorems_fit(theorems, kind: str, structure_on: Optional[str]) -> None:
    """Reject theorems the scene cannot carry, before any point is evaluated.

    Map theorems need a map scene and the others a submersion scene; in
    chart scenes (``structure_on`` not None) the quaternionic structure
    must live on the target of a map or on the source of a submersion.
    """
    wrong = [t for t in theorems if (t in FAMILIES["map"]) != (kind == "map")]
    if wrong:
        raise SceneValidationError(f"theorems {wrong} do not apply to a {kind} scene")
    side = "target" if kind == "map" else "source"
    if theorems and structure_on is not None and structure_on != side:
        raise SceneValidationError(
            f"{kind} theorems need a quaternionic structure on the {side}"
        )


def _pointwise_frames_tensors(doc: dict, dim: int, kind: str, theorems) -> tuple[dict, dict]:
    """The frames and tensors of a pointwise scene, as finite arrays of matching shapes.

    Both frames of the scene's kind (``FRAMES``) are required, as rows
    of ``dim`` coordinates.  The tensors (``TENSORS``) are those that
    live on these frames, and the ones the requested theorems read
    (``FAMILY_TENSORS``) are required.  Tensor h[a, i, j] has one slice
    per vector of its normal frame and one row and column per vector of
    its tangent frame.
    """
    tags = FRAMES[kind]
    frames_spec = _require(doc, "frames", "scenario")
    tensors_spec = _require(doc, "tensors", "scenario")
    for spec, where in ((frames_spec, "frames"), (tensors_spec, "tensors")):
        if not isinstance(spec, dict):
            raise SceneValidationError(f"{where} must be an object")
    _reject_unknown(frames_spec, set(tags), "frames")
    _reject_unknown(
        tensors_spec, {key for key, lay in TENSORS.items() if lay.tangent in tags}, "tensors"
    )
    frames = {}
    for tag in tags:
        frame = _numeric(_require(frames_spec, tag, "frames"), f"frames.{tag}", ndim=2)
        if frame.shape[1] != dim:
            raise SceneValidationError(f"frames.{tag} vectors must have {dim} entries")
        frames[tag] = frame
    needed = set().union(*(FAMILY_TENSORS[f] for f in _requested_families(theorems)))
    missing = sorted(needed - set(tensors_spec))
    if missing:
        raise SceneValidationError(f"missing tensors {missing} for this {kind} scene")
    tensors = {}
    for key, raw in tensors_spec.items():
        tensor = _numeric(raw, f"tensors.{key}", ndim=3)
        lay = TENSORS[key]
        normal, tangent = len(frames[lay.normal]), len(frames[lay.tangent])
        want = (normal, tangent, tangent)
        if tensor.shape != want:
            raise SceneValidationError(f"tensors.{key} has shape {tensor.shape}, not {want}")
        tensors[key] = tensor
    return frames, tensors


def parse_scenario(doc: dict, name_hint: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SceneValidationError("scenario document must be a JSON object")
    version = doc.get("version")
    if version != 1:
        raise SceneValidationError(f"unsupported scenario version {version!r}")
    mode = _require(doc, "mode", "scenario")
    if mode not in ("chart", "pointwise"):
        raise SceneValidationError(f"mode must be 'chart' or 'pointwise', got {mode!r}")
    name = str(doc.get("name", name_hint or "unnamed"))
    theorems = tuple(_require(doc, "theorems", "scenario", list))
    for t in theorems:
        if t not in THEOREM_IDS:
            raise SceneValidationError(f"unknown theorem id {t!r}; known: {THEOREM_IDS}")
    c = _numeric(_require(doc, "c", "scenario"), "c")
    delta_label, delta_n = _parse_delta_n(doc.get("deltaN"))
    tolerances = parse_tolerances(doc.get("tolerances", {}))

    if mode == "chart":
        _reject_unknown(doc, _TOP_KEYS_CHART, "scenario")
        mspec = _require(doc, "map", "scenario")
        _reject_unknown(
            mspec, {"source", "target", "exprs", "map_mode", "rank"}, "map"
        )
        source = _chart_from_spec(_require(mspec, "source", "map"), "map.source")
        target = _chart_from_spec(_require(mspec, "target", "map"), "map.target")
        F = compile_program(_require(mspec, "exprs", "map", list))
        if len(F.sources) != target.dim:
            raise SceneValidationError(
                f"map has {len(F.sources)} component expressions, target dimension is {target.dim}"
            )
        map_mode = str(_require(mspec, "map_mode", "map"))
        rank = _integer(_require(mspec, "rank", "map"), "map.rank")
        try:
            smap = maps.SmoothMap(source, target, F, map_mode, rank, name=name)
        except (ValueError, RankError) as e:
            raise SceneValidationError(f"map: {e}") from e
        kind = "submersion" if smap.mode == maps.RIEMANNIAN_SUBMERSION else "map"
        structure = None
        structure_on = ""
        if "structure" in doc:
            structure_on = str(_require(doc["structure"], "on", "structure"))
            if structure_on not in ("source", "target"):
                raise SceneValidationError("structure.on must be 'source' or 'target'")
            sdim = source.dim if structure_on == "source" else target.dim
            structure = _structure_from_spec(doc["structure"], sdim, "structure")
        _check_theorems_fit(theorems, kind, structure_on)
        fiber_kappa = None
        if "fiber_curvature" in doc:
            fspec = doc["fiber_curvature"]
            _reject_unknown(fspec, {"space_form_kappa"}, "fiber_curvature")
            fiber_kappa = compile_expression(
                _require(fspec, "space_form_kappa", "fiber_curvature")
            )
        pts = _require(doc, "points", "scenario")
        sample_spec = None
        points = ()
        if isinstance(pts, dict):
            _reject_unknown(pts, {"sample"}, "points")
            sample = _require(pts, "sample", "points")
            _reject_unknown(sample, {"count", "seed", "box"}, "points.sample")
            if "seed" not in sample:
                raise SceneValidationError("sampled points require an explicit seed")
            count = _integer(_require(sample, "count", "points.sample"), "points.sample.count")
            seed = _integer(sample["seed"], "points.sample.seed")
            if not 1 <= count <= _MAX_SAMPLE_COUNT or seed < 0:
                raise SceneValidationError(
                    f"points.sample needs 1 <= count <= {_MAX_SAMPLE_COUNT} and seed >= 0"
                )
            sample_spec = {
                "count": count,
                "seed": seed,
                "box": _box(sample.get("box", source.domain), source.dim, "points.sample.box"),
            }
        else:
            if isinstance(pts, list) and not pts:
                raise SceneValidationError("points list is empty")
            coords = _numeric(pts, "points", ndim=2)
            if coords.shape[1] != source.dim:
                raise SceneValidationError(f"points must have {source.dim} coordinates each")
            points = tuple(map(tuple, coords.tolist()))
        return Scenario(
            name=name,
            mode=mode,
            c=c,
            delta_n_label=delta_label,
            delta_n=delta_n,
            theorems=theorems,
            tolerances=tolerances,
            raw=doc,
            smap=smap,
            structure=structure,
            structure_on=structure_on,
            fiber_kappa=fiber_kappa,
            points=points,
            sample_spec=sample_spec,
            kind=kind,
        )

    _reject_unknown(doc, _TOP_KEYS_POINTWISE, "scenario")
    dim = _dimension(_require(doc, "dim", "scenario"), "dim")
    kind = str(_require(doc, "kind", "scenario"))
    if kind not in ("submersion", "map"):
        raise SceneValidationError("pointwise kind must be 'submersion' or 'map'")
    _check_theorems_fit(theorems, kind, None)
    # the structure and the frames tie dim to the size of real data before
    # the default metric np.eye(dim) is built
    structure = _structure_from_spec(_require(doc, "structure", "scenario"), dim, "structure")
    frames, tensors = _pointwise_frames_tensors(doc, dim, kind, theorems)
    g = _numeric(doc["metric"], "metric", ndim=2) if "metric" in doc else np.eye(dim)
    if g.shape != (dim, dim):
        raise SceneValidationError(f"pointwise metric has shape {g.shape}")
    return Scenario(
        name=name,
        mode=mode,
        c=c,
        delta_n_label=delta_label,
        delta_n=delta_n,
        theorems=theorems,
        tolerances=tolerances,
        raw=doc,
        dim=dim,
        kind=kind,
        g=g,
        frames=frames,
        tensors=tensors,
        structure=structure,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a builtin by name, else the JSON scene file at that path."""
    if path_or_name in _registry():
        return builtin_scenario(path_or_name)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SceneValidationError(f"cannot read scenario {path_or_name!r}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneValidationError(
            f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (RecursionError, ValueError) as e:  # nesting or integer size beyond Python's limits
        raise SceneValidationError(f"JSON parse error: {e}") from e
    return parse_scenario(doc, name_hint=path_or_name)


# -- evaluation --------------------------------------------------------------


@dataclass
class PointResult:
    index: int
    point: list
    map_point: Optional[list]
    validation: dict
    gauss_residuals: Optional[dict]
    reports: list
    errors: list

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "point": self.point,
            "map_point": self.map_point,
            "validation": self.validation,
            "gauss_residuals": self.gauss_residuals,
            "reports": [r.as_dict() for r in self.reports],
            "errors": self.errors,
        }


@dataclass
class RunReport:
    scenario: dict
    points: list  # of PointResult
    aggregate: dict
    elapsed_seconds: float = 0.0  # never serialized: reports are byte-stable

    def as_dict(self) -> dict:
        return {
            "format_version": 1,
            "scenario": self.scenario,
            "points": [p.as_dict() for p in self.points],
            "aggregate": self.aggregate,
        }

    def has_violation(self) -> bool:
        return any(
            r.equality_verdict == "violated" for p in self.points for r in p.reports
        )


def _requested_families(theorems) -> dict[str, list[str]]:
    out = {}
    for fam, ids in FAMILIES.items():
        hits = [t for t in theorems if t in ids]
        if hits:
            out[fam] = hits
    return out


def _structure_report(st: QuaternionicStructure, g: np.ndarray):
    """The check of the structure against the metric g, as the report records it.

    ``g`` is one metric (n, n), which gives one record, or a batch
    (P, n, n), which gives one per point.  The identities of J alone are
    computed once per structure.  Raises for the first point where the
    check fails.
    """
    herm = hermitian_residual(st.J_const, g)
    records = []
    for residual in np.reshape(herm, -1).tolist():
        srep = StructureReport(*st.identity_residuals, residual)
        if not srep.passed:
            raise SceneValidationError(
                "quaternionic structure invalid: " + ", ".join(srep.failed_identities())
            )
        records.append(
            {"passed": srep.passed, "worst": srep.worst, "failed_identities": srep.failed_identities()}
        )
    return records if herm.ndim else records[0]


def _structure_metric(scn: Scenario, split: maps.SceneSplit) -> np.ndarray:
    """Metric at the point where a chart scene's structure lives."""
    return (split.point.source if scn.structure_on == "source" else split.point.target).G0


def _bracket_residual(split: maps.SceneSplit, A: maps.FundamentalTensor) -> np.ndarray:
    """Largest g1-length of v[h_i, h_j] - 2 A_{h_i} h_j, at every point; zero, with no
    product, under a constant projector, where both terms are."""
    if split.projector is None:
        return np.zeros(A.metric.shape[:-2])
    diff = maps.vertical_bracket(split) - 2.0 * A.vectors
    sq = np.einsum("...ija,...ab,...ijb->...ij", diff, A.metric, diff)
    if not sq.size:
        return np.zeros(sq.shape[:-2])
    worst = sq.max(axis=(-2, -1))
    return np.sqrt(np.where(worst < 0.0, 0.0, worst))  # max(worst, 0.0) as Python picks it


def _check_gauss(scn: Scenario, *residuals: float) -> None:
    """Raise when the largest of the point's Gauss residuals exceeds the tolerance or is NaN."""
    residual_tol = scn.tolerances.get("residual", 1e-6)
    worst = float(np.max(residuals))  # a NaN anywhere is the largest
    if not worst <= residual_tol:
        raise SceneValidationError(
            f"Gauss residual {worst:.3e} exceeds the scene tolerance {residual_tol:.1e}"
        )


class _PointRow(NamedTuple):
    """One point's share of its chunk: the map point, the validation record
    and the Gauss residuals of its report (None on pointwise scenes), and
    its checker input (None when a chart scene requests no theorem)."""

    map_point: Optional[list]
    validation: dict
    gauss: Optional[dict]
    data: Optional[SceneData]


def _curved_side(scn: Scenario, split: maps.SceneSplit) -> tuple[np.ndarray, np.ndarray, bool]:
    """The split frame of the scene's curved side, the curvature frame tensor over it
    and whether its chart is constant, so that the tensor is exactly zero."""
    if scn.kind == "map":
        return split.target_frame, split.target_curvature, split.point.target.constant
    return split.source_frame, split.source_curvature, split.point.source.constant


def _checker_inputs(
    scn: Scenario, E: np.ndarray, s: int, tensors: dict, g: np.ndarray, ambient=None,
    bracket=None, flat=False, gram=None,
) -> list[SceneData]:
    """Each point's ``SceneData``: ``checker_inputs`` with the scene's kind,
    structure, c, families, deltaN and equality tolerance."""
    return checker_inputs(
        scn.kind, E, s, tensors, g, scn.structure.J_const, scn.c,
        _requested_families(scn.theorems), ambient, deltaN=scn.delta_n,
        equality_tol=scn.tolerances.get("equality"), bracket_residual=bracket, flat=flat,
        gram=gram,
    )


def _chunk_rows(scn: Scenario, chunk: np.ndarray) -> list[_PointRow]:
    """Each point's row of a chunk of points (P, n), all computed for the chunk at once.

    That is everything from the jets to the checker inputs: the map jets,
    the fiber curvature, the split with both chart points, their
    curvature and the O'Neill fields, the structure check right after the
    split, B or T and A, the Gauss and bracket residuals, and, when the
    scene requests theorems, the checker inputs (``_checker_inputs``).
    Each check raises for the first point that fails it.  Each row then
    reads its column of every array.
    """
    point = maps.MapPoint.at(scn.smap, chunk)
    kappa = None
    if scn.fiber_kappa is not None and scn.kind == "submersion":
        kappa = scn.fiber_kappa(list(chunk.T))
    split = maps.differential(scn.smap, point)
    validation = {
        "isometry_residual": split.isometry_residual.tolist(),
        "kernel_residual": split.kernel_residual.tolist(),
    }
    if scn.structure is not None:
        validation["structure"] = _structure_report(scn.structure, _structure_metric(scn, split))
    if scn.kind == "submersion":
        T = maps.oneill_T(split)
        A = maps.oneill_A(split)
        res = maps.gauss_residual_submersion(split, T, A, fiber_kappa=kappa)
        tensors, bracket = {"T": T, "A": A}, _bracket_residual(split, A)
        validation["T_symmetry_residual"] = T.raw_symmetry_residual.tolist()
        validation["A_skew_residual"] = A.raw_symmetry_residual.tolist()
        validation["bracket_verticality_residual"] = bracket.tolist()
        gauss = {
            "vertical": res.vertical.tolist(),
            "horizontal": res.horizontal.tolist(),
            "mixed": res.mixed.tolist(),
            "vertical_independent": [res.vertical_independent] * len(chunk),
        }
    else:
        B = maps.second_fundamental_form(split)
        tensors, bracket = {"B": B}, None
        validation["B_symmetry_residual"] = B.raw_symmetry_residual.tolist()
        gauss = {"map": maps.gauss_residual_map(split, B).tolist()}
    data = [None] * len(chunk)
    if scn.theorems:
        # the parse-time fit check put the structure on the curved side
        E, ambient, flat = _curved_side(scn, split)
        data = _checker_inputs(
            scn, E, split.s, {key: t.coeffs for key, t in tensors.items()},
            _structure_metric(scn, split), ambient, bracket, flat,
        )
    return [
        _PointRow(
            y,
            {key: column[i] for key, column in validation.items()},
            {key: column[i] for key, column in gauss.items()},
            data[i],
        )
        for i, y in enumerate(point.y.tolist())
    ]


def _point_rows(scn: Scenario, chunk: np.ndarray) -> list:
    """Each point's ``_PointRow``, or the error that the point raises on its own.

    A chunk of two or more points where any step raises runs each of its
    points again as a chunk of one, so a failing point keeps its own
    error and the others their rows.  A point's ``LinAlgError`` is kept
    as a ``DomainError``, a point error like any other.
    """
    try:
        return _chunk_rows(scn, chunk)
    except (CasoratiqError, np.linalg.LinAlgError) as e:
        if len(chunk) == 1:
            if isinstance(e, np.linalg.LinAlgError):
                return [DomainError(f"linear algebra failed: {e}")]
            return [e]
        return [row for i in range(len(chunk)) for row in _point_rows(scn, chunk[i : i + 1])]


def _chart_batches(scn: Scenario, X: np.ndarray) -> list:
    """Each chart point's ``_PointRow``, or the error that it raises.

    The points go in chunks of ``batch_size`` of the larger chart
    dimension, and every point goes through ``_chunk_rows``: a scene of
    one point, or a trailing point, is a chunk of one.  A chunk computes,
    for all its points at once, everything from the jets to the checker
    inputs; ``checker_inputs`` builds each point's ``SceneData`` once, a
    record of its J blocks, curvature sums, hyperplane extrema and
    equality diagnostics, as it builds a pointwise scene's for a chunk of
    one (``_evaluate_pointwise``).  A chunk of two or more points where
    any of that raises runs each of its points again as a chunk of one
    (``_point_rows``); a point that fails on its own is computed once, and
    its error is raised at its own step.
    """
    smap = scn.smap
    size = geometry.batch_size(max(smap.source.dim, smap.target.dim))
    rows = []
    for start in range(0, len(X), size):
        rows += _point_rows(scn, X[start : start + size])
    return rows


def _evaluate_chart_point(scn: Scenario, row) -> _PointRow:
    """The row of one chart point, with its Gauss tolerance checked.

    ``row`` is the point's ``_PointRow``, read off its chunk, or the error
    the point raised on its own, which is raised here.  The Gauss
    tolerance is checked here, on the point's own residuals, and the
    space-form tolerance by the checkers, on the point's own data, so a
    point that fails either leaves the rest of its chunk alone.
    """
    if isinstance(row, Exception):
        raise row
    gauss = row.gauss
    if scn.kind == "submersion":
        _check_gauss(scn, gauss["vertical"], gauss["horizontal"], gauss["mixed"])
    else:
        _check_gauss(scn, gauss["map"])
    return row


def _evaluate_pointwise(scn: Scenario) -> _PointRow:
    """The row of a pointwise scene, whose checker input is that of a chunk of one.

    The frame residuals and the checker input are read off one Gram matrix
    E g E^T.  The tensors are checked whether or not the scene requests theorems.
    """
    g = scn.g
    validation = {"structure": _structure_report(scn.structure, g)}
    first, second = (scn.frames[tag] for tag in FRAMES[scn.kind])
    E = np.concatenate([first, second])  # the split frame [first; second], as a chart's
    s = len(first)
    gram = E @ g @ E.T
    for tag, block in zip(FRAMES[scn.kind], (gram[:s, :s], gram[s:, s:])):
        res = float(np.abs(block - np.eye(len(block))).max())
        validation[f"{tag}_frame_residual"] = res
        if not res <= FRAME_TOL:
            raise SceneValidationError(f"{tag} frame is not orthonormal ({res:.3e})")
    cross = float(np.abs(gram[:s, s:]).max())
    validation["cross_orthogonality"] = cross
    if not cross <= FRAME_TOL:
        raise SceneValidationError(f"frames are not mutually orthogonal ({cross:.3e})")
    (data,) = _checker_inputs(
        scn, E[None], s, {key: h[None] for key, h in scn.tensors.items()}, g[None],
        gram=gram[None],
    )
    return _PointRow(None, validation, None, data)


def _theorem_reports(data, theorems) -> list:
    """Run the checker of every requested family and keep the requested ids."""
    # looked up at call time so that wrappers installed on the module names see the calls
    checkers = {
        "map": check_map_theorem,
        "vertical": check_vertical_theorem,
        "horizontal": check_horizontal_theorem,
        "combined": check_combined_theorem,
    }
    reports = []
    for family, ids in _requested_families(theorems).items():
        reports += [r for r in checkers[family](data) if r.theorem_id in ids]
    return reports


def validate_scenario(scn: Scenario) -> list[PointResult]:
    """Run all scene invariants without theorem evaluation."""
    return evaluate_scenario(replace(scn, theorems=())).points


def evaluate_scenario(scn: Scenario, strict: bool = False) -> RunReport:
    """Evaluate every requested theorem at every point of the scenario."""
    start = time.perf_counter()
    points: list[PointResult] = []
    # a value that overflows surfaces as a point error (the checkers test
    # every lhs, rhs and slack), not as a numpy warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        X = scn.evaluation_points()
        batches = _chart_batches(scn, X) if scn.mode == "chart" else None
        for i, x in enumerate(X):
            coords = [float(v) for v in x]
            try:
                if scn.mode == "pointwise":
                    row = _evaluate_pointwise(scn)
                else:
                    row = _evaluate_chart_point(scn, batches[i])
                reports = _theorem_reports(row.data, scn.theorems)
                points.append(
                    PointResult(i, coords, row.map_point, row.validation, row.gauss, reports, [])
                )
            except CasoratiqError as e:
                if strict:
                    raise
                points.append(PointResult(i, coords, None, {}, None, [], [str(e)]))

    aggregate = _aggregate(points)
    scenario_info = {
        "name": scn.name,
        "mode": scn.mode,
        "c": scn.c,
        "deltaN": scn.delta_n_label,
        "theorems": list(scn.theorems),
        "tolerances": scn.tolerances,
    }
    if scn.sample_spec is not None:
        scenario_info["sample"] = {
            "count": scn.sample_spec["count"],
            "seed": scn.sample_spec["seed"],
        }
    return RunReport(
        scenario=scenario_info,
        points=points,
        aggregate=aggregate,
        elapsed_seconds=time.perf_counter() - start,
    )


def _aggregate(points) -> dict:
    min_slack: dict[str, float] = {}
    tally: dict[str, int] = {}
    residual_max: dict[str, float] = {}
    n_errors = 0
    for p in points:
        n_errors += len(p.errors)
        for r in p.reports:
            key = f"{r.theorem_id}/{r.variant}"
            if key not in min_slack or r.slack < min_slack[key]:
                min_slack[key] = r.slack
            tally[r.equality_verdict] = tally.get(r.equality_verdict, 0) + 1
        if p.gauss_residuals:
            for k, v in p.gauss_residuals.items():
                if isinstance(v, bool):
                    continue
                if k not in residual_max or v > residual_max[k]:
                    residual_max[k] = v
    return {
        "min_slack": dict(sorted(min_slack.items())),
        "equality_tally": dict(sorted(tally.items())),
        "gauss_residual_max": dict(sorted(residual_max.items())),
        "point_errors": n_errors,
    }


# -- builtin registry --------------------------------------------------------


@functools.cache
def _registry() -> dict[str, dict]:
    """Every shipped scene document by name, in ``casoratiq list`` order, read from the
    package's ``builtins.json`` on first use."""
    text = resources.files(__package__).joinpath("builtins.json").read_text(encoding="utf-8")
    return json.loads(text)


def builtin_names() -> list[str]:
    return list(_registry())


def builtin_scenario(name: str) -> Scenario:
    if name not in _registry():
        raise SceneValidationError(f"unknown builtin scenario {name!r}")
    # a copy, because callers mutate ``Scenario.raw``
    return parse_scenario(copy.deepcopy(_registry()[name]), name_hint=name)


def random_pointwise_submersion(
    s: int, ell: int, c: float, seed: int, dim: int = 12
) -> dict:
    """Seeded random pointwise submersion scene document."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    T = rng.uniform(-1.0, 1.0, size=(s, ell, ell))
    T = 0.5 * (T + T.transpose(0, 2, 1))
    A = rng.uniform(-1.0, 1.0, size=(ell, s, s))
    A = 0.5 * (A - A.transpose(0, 2, 1))
    return {
        "version": 1,
        "name": f"pw-random:s{s}l{ell}c{c:g}seed{seed}",
        "mode": "pointwise",
        "dim": dim,
        "kind": "submersion",
        "structure": {"name": f"quat-flat:{dim // 4}"},
        "c": float(c),
        "deltaN": "zero",
        "frames": {
            "horizontal": Q[:, :s].T.tolist(),
            "vertical": Q[:, s : s + ell].T.tolist(),
        },
        "tensors": {"T": T.tolist(), "A": A.tolist()},
        "theorems": [
            "vertical_5_2",
            "horizontal_6_2",
            "lemma_vertical_5_1",
            "lemma_horizontal_6_1",
        ],
    }
