"""Scenario model: parsing, validation, builtin registry and point evaluation.

A scenario is a single JSON document (version 1).  Chart scenes declare
source/target charts, the map expressions and evaluation points;
pointwise scenes declare explicit frames, tensors and the structure
matrices.  Unknown keys are rejected, seeds are mandatory for sampled
points, and every numeric knob is echoed into the run report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import geometry, maps
from .errors import CasoratiqError, RankError, SceneValidationError, StructureError
from .expressions import CompiledExpression, compile_expression
from .geometry import MAX_DIM, MetricChart, OrthoFrame
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
    space_form_residual_from_tensor,
)
from .quaternionic import (
    QuaternionicStructure,
    QSFOracle,
    check_quaternionic_structure,
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
    """Tolerance overrides ``equality`` and ``residual`` as finite numbers."""
    if not isinstance(raw, dict):
        raise SceneValidationError(f"{where} must be an object")
    _reject_unknown(raw, {"equality", "residual"}, where)
    return {k: _numeric(v, f"{where}.{k}") for k, v in raw.items()}


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


def _compiled(text, cache: dict) -> CompiledExpression:
    """``compile_expression(text)``, compiled once per distinct text of a scene."""
    key = str(text)
    if key not in cache:
        cache[key] = compile_expression(key)
    return cache[key]


def _chart_from_spec(spec, where: str, cache: dict) -> MetricChart:
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
    compiled = [[_compiled(e, cache) for e in row] for row in rows]

    def g(coords, _compiled=compiled):
        return [[entry(coords) for entry in row] for row in _compiled]

    return MetricChart(
        dim,
        box,
        g,
        name=str(spec.get("name", "custom")),
    )


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
        cache: dict = {}
        source = _chart_from_spec(_require(mspec, "source", "map"), "map.source", cache)
        target = _chart_from_spec(_require(mspec, "target", "map"), "map.target", cache)
        exprs = [_compiled(e, cache) for e in _require(mspec, "exprs", "map", list)]
        if len(exprs) != target.dim:
            raise SceneValidationError(
                f"map has {len(exprs)} component expressions, target dimension is {target.dim}"
            )

        def F(coords, _exprs=exprs):
            return [e(coords) for e in _exprs]

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
            fiber_kappa = _compiled(
                _require(fspec, "space_form_kappa", "fiber_curvature"), cache
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
    """Load from a JSON file path, or fall back to the builtin registry."""
    if path_or_name in _BUILTINS:
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


def _check_structure(J: np.ndarray, g: np.ndarray, validation: dict) -> None:
    """Check J against the metric g, record it in ``validation``, raise when it fails."""
    srep = check_quaternionic_structure(J, g)
    validation["structure"] = {
        "passed": srep.passed,
        "worst": srep.worst,
        "failed_identities": srep.failed_identities(),
    }
    if not srep.passed:
        raise SceneValidationError(
            "quaternionic structure invalid: " + ", ".join(srep.failed_identities())
        )


def _structure_metric(scn: Scenario, split: maps.SceneSplit) -> np.ndarray:
    """Metric at the point where a chart scene's structure lives."""
    return (split.point.source if scn.structure_on == "source" else split.point.target).G0


def _bracket_residual(split: maps.SceneSplit, A: maps.FundamentalTensor) -> float:
    """Largest g1-length of v[h_i, h_j] - 2 A_{h_i} h_j."""
    diff = maps.vertical_bracket(split) - 2.0 * A.vectors
    sq = np.einsum("ija,ab,ijb->ij", diff, A.metric, diff)
    return float(np.sqrt(max(sq.max(), 0.0))) if sq.size else 0.0


def _check_gauss(scn: Scenario, worst: float) -> None:
    residual_tol = scn.tolerances.get("residual", 1e-6)
    if worst > residual_tol:
        raise SceneValidationError(
            f"Gauss residual {worst:.3e} exceeds the scene tolerance {residual_tol:.1e}"
        )


def _chart_batches(scn: Scenario, X: np.ndarray) -> list[tuple]:
    """Each chart point's ``MapPoint`` row and fiber curvature, from batches of the points.

    The points go in chunks of ``batch_size`` of the larger chart
    dimension.  A chunk whose map jets or box checks raise runs one point
    at a time: its points keep their coordinates in place of a row, and
    ``differential`` builds each alone.  A chunk of one point runs that
    way too, without a point axis of length 1, which slowed single-point
    scenes by about 4%.  A fiber curvature that raises at any point is
    left to each point (None).
    """
    smap = scn.smap
    size = geometry.batch_size(max(smap.source.dim, smap.target.dim))
    points = []
    for start in range(0, len(X), size):
        chunk = X[start : start + size]
        try:
            points += maps.MapPoint.at(smap, chunk).rows() if len(chunk) > 1 else list(chunk)
        except CasoratiqError:
            points += list(chunk)
    kappas = [None] * len(X)
    if scn.fiber_kappa is not None:
        try:
            kappa = scn.fiber_kappa(list(X.T))
            kappas = kappa.tolist() if np.ndim(kappa) else [kappa] * len(X)
        except CasoratiqError:
            pass
    return list(zip(points, kappas))


def _evaluate_chart_point(scn: Scenario, x: np.ndarray, point, kappa: Optional[float]):
    """Map point, validation, Gauss residuals and checker data of one chart point.

    ``point`` is the point's ``MapPoint`` row or its coordinates, and
    ``kappa`` its fiber curvature when already evaluated.  The checker
    data is None when the scene requests no theorem.
    """
    split = maps.differential(scn.smap, point)
    validation = {
        "isometry_residual": split.isometry_residual,
        "kernel_residual": split.kernel_residual(),
    }
    J = None
    if scn.structure is not None:
        J = scn.structure.J_const
        _check_structure(J, _structure_metric(scn, split), validation)

    chart = {}
    if scn.kind == "submersion":
        T = maps.oneill_T(split)
        A = maps.oneill_A(split)
        validation["T_symmetry_residual"] = T.symmetry_residual()
        validation["A_skew_residual"] = A.symmetry_residual()
        if scn.fiber_kappa is not None and kappa is None:
            kappa = float(scn.fiber_kappa([float(v) for v in x]))
        res = maps.gauss_residual_submersion(split, T, A, fiber_kappa=kappa)
        gauss = res.as_dict()
        _check_gauss(scn, max(res.vertical, res.horizontal, res.mixed))
        chart["bracket_residual"] = _bracket_residual(split, A)
        validation["bracket_verticality_residual"] = chart["bracket_residual"]
        tensors = {"T": T.coeffs, "A": A.coeffs}
    else:
        B = maps.second_fundamental_form(split)
        validation["B_symmetry_residual"] = B.symmetry_residual()
        gauss = {"map": maps.gauss_residual_map(split, B)}
        _check_gauss(scn, gauss["map"])
        tensors = {"B": B.coeffs}
    data = None
    if scn.theorems:
        # the parse-time fit check put the structure on the curved side
        frames = {tag: getattr(split, tag) for tag in FRAMES[scn.kind]}
        ambient = split.target_curvature if scn.kind == "map" else split.source_curvature
        g = _structure_metric(scn, split)
        chart["space_form_residual"] = space_form_residual_from_tensor(
            ambient, QSFOracle(scn.c, J, g), np.vstack([f.vectors for f in frames.values()])
        )
        data = SceneData(
            scn.kind, frames, tensors, g, J, scn.c, ambient, scn.delta_n,
            equality_tol=scn.tolerances.get("equality"), **chart,
        )
    return split.point.y.tolist(), validation, gauss, data


def _evaluate_pointwise(scn: Scenario):
    """Validation and checker data of a pointwise scene, shaped like a chart point's."""
    g = scn.g
    J = scn.structure.J_const
    validation = {}
    _check_structure(J, g, validation)
    frames = {tag: OrthoFrame(scn.frames[tag], g) for tag in FRAMES[scn.kind]}
    for tag, fr in frames.items():
        res = fr.orthonormality_residual()
        validation[f"{tag}_frame_residual"] = res
        if res > 1e-10:
            raise SceneValidationError(f"{tag} frame is not orthonormal ({res:.3e})")
    first, second = frames.values()
    cross = float(np.abs(first.vectors @ g @ second.vectors.T).max())
    validation["cross_orthogonality"] = cross
    if cross > 1e-10:
        raise SceneValidationError(f"frames are not mutually orthogonal ({cross:.3e})")
    E = np.vstack([f.vectors for f in frames.values()])
    data = SceneData(
        scn.kind, frames, scn.tensors, g, J, scn.c, QSFOracle(scn.c, J, g).curvature_tensor(E),
        scn.delta_n, equality_tol=scn.tolerances.get("equality"),
    )
    return None, validation, None, data


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
                    map_point, validation, gauss, data = _evaluate_pointwise(scn)
                else:
                    map_point, validation, gauss, data = _evaluate_chart_point(scn, x, *batches[i])
                reports = _theorem_reports(data, scn.theorems)
                points.append(PointResult(i, coords, map_point, validation, gauss, reports, []))
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


def _identity_metric_exprs(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _builtin_product_projection() -> dict:
    return {
        "version": 1,
        "name": "product-projection:8to4",
        "mode": "chart",
        "map": {
            "source": "flat:8",
            "target": "flat:4",
            "exprs": ["x1", "x2", "x3", "x4"],
            "map_mode": "riemannian_submersion",
            "rank": 4,
        },
        "structure": {"on": "source", "name": "quat-flat:2"},
        "fiber_curvature": {"space_form_kappa": "0"},
        "c": 0.0,
        "deltaN": "zero",
        "points": {"sample": {"count": 4, "seed": 2024, "box": [[-1.0, 1.0]] * 8}},
        "theorems": [
            "vertical_5_2",
            "horizontal_6_2",
            "combined_7_2",
            "lemma_vertical_5_1",
            "lemma_horizontal_6_1",
            "lemma_combined_7_1",
        ],
    }


def _builtin_radial() -> dict:
    return {
        "version": 1,
        "name": "radial:4",
        "mode": "chart",
        "map": {
            "source": {
                "dim": 4,
                "box": [[0.05, 3.0]] * 4,
                "metric": _identity_metric_exprs(4),
                "name": "flat-positive:4",
            },
            "target": {
                "dim": 1,
                "box": [[0.05, 6.0]],
                "metric": [["1"]],
                "name": "flat-line",
            },
            "exprs": ["norm(x)"],
            "map_mode": "riemannian_submersion",
            "rank": 1,
        },
        "structure": {"on": "source", "name": "quat-flat:1"},
        "fiber_curvature": {"space_form_kappa": "1/(norm(x)^2)"},
        "c": 0.0,
        "deltaN": "zero",
        "points": [[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]],
        "theorems": ["vertical_5_2", "lemma_vertical_5_1"],
    }


def _builtin_paraboloid() -> dict:
    return {
        "version": 1,
        "name": "paraboloid-vertex",
        "mode": "chart",
        "map": {
            "source": {
                "dim": 2,
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "metric": [["1+x1^2", "x1*x2"], ["x1*x2", "1+x2^2"]],
                "name": "paraboloid-graph",
            },
            "target": "flat:3",
            "exprs": ["x1", "x2", "0.5*(x1^2+x2^2)"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": [[0.0, 0.0], [0.4, -0.3], [1.0, 0.7]],
        "theorems": [],
    }


def _builtin_flat_embedding_2in4() -> dict:
    return {
        "version": 1,
        "name": "flat-embedding:2in4",
        "mode": "chart",
        "map": {
            "source": "flat:2",
            "target": "flat:4",
            "exprs": ["x1", "x2", "0", "0"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": [[0.0, 0.0], [0.7, -0.4], [-1.2, 0.9]],
        "theorems": [],
    }


def _builtin_flat_embedding_4in8() -> dict:
    return {
        "version": 1,
        "name": "flat-embedding:4in8",
        "mode": "chart",
        "map": {
            "source": "flat:4",
            "target": "flat:8",
            "exprs": ["x1", "x2", "x3", "x4", "0", "0", "0", "0"],
            "map_mode": "riemannian_map",
            "rank": 4,
        },
        "structure": {"on": "target", "name": "quat-flat:2"},
        "c": 0.0,
        "points": [[0.1, 0.2, -0.3, 0.4], [0.0, 0.0, 0.0, 0.0]],
        "theorems": ["map_3_2", "lemma_map_3_1"],
    }


def _builtin_hopf() -> dict:
    return {
        "version": 1,
        "name": "hopf-radial:4to3",
        "mode": "chart",
        "map": {
            "source": {
                "dim": 4,
                "box": [[0.1, 1.5]] * 4,
                "metric": _identity_metric_exprs(4),
                "name": "flat-positive:4",
            },
            "target": {
                "dim": 3,
                "box": [[-4.0, 4.0], [0.02, 7.0], [-4.0, 4.0]],
                "metric": [
                    ["1/(4*norm(x))", "0", "0"],
                    ["0", "1/(4*norm(x))", "0"],
                    ["0", "0", "1/(4*norm(x))"],
                ],
                "name": "hopf-base",
            },
            "exprs": [
                "x1^2+x2^2-x3^2-x4^2",
                "2*(x1*x4+x2*x3)",
                "2*(x2*x4-x1*x3)",
            ],
            "map_mode": "riemannian_submersion",
            "rank": 3,
        },
        "structure": {"on": "source", "name": "quat-flat:1"},
        "c": 0.0,
        "deltaN": "zero",
        "points": [[0.5, 0.3, 0.4, 0.2], [0.9, 0.2, 0.6, 0.3], [0.4, 0.4, 0.4, 0.4]],
        "theorems": ["horizontal_6_2", "lemma_horizontal_6_1"],
    }


def _equality_pattern(n: int, lams) -> list:
    out = []
    for lam in lams:
        sl = np.zeros((n, n))
        np.fill_diagonal(sl, lam)
        sl[-1, -1] = 2.0 * lam
        out.append(sl.tolist())
    return out


def _builtin_pw_equality_map() -> dict:
    B = _equality_pattern(4, [1.0, 0.0, 0.0, 0.0])
    return {
        "version": 1,
        "name": "pw-equality-map:s4",
        "mode": "pointwise",
        "dim": 8,
        "kind": "map",
        "structure": {"name": "quat-flat:2"},
        "c": 4.0,
        "frames": {
            "range": np.eye(8)[:4].tolist(),
            "range_perp": np.eye(8)[4:].tolist(),
        },
        "tensors": {"B": B},
        "theorems": ["map_3_2", "lemma_map_3_1"],
    }


def _builtin_pw_equality_combined() -> dict:
    lams = [1.0, 0.5, 0.25, 0.0]
    T = _equality_pattern(4, lams)
    t_norm_sq = 7.0 * sum(l * l for l in lams)
    # c = 0 makes the mixed term vanish; deltaN = |T|^2 / 2 closes the identity
    return {
        "version": 1,
        "name": "pw-equality-combined:s4l4",
        "mode": "pointwise",
        "dim": 8,
        "kind": "submersion",
        "structure": {"name": "quat-flat:2"},
        "c": 0.0,
        "deltaN": f"user:{t_norm_sq / 2.0!r}",
        "frames": {
            "horizontal": np.eye(8)[:4].tolist(),
            "vertical": np.eye(8)[4:].tolist(),
        },
        "tensors": {
            "T": T,
            "A": np.zeros((4, 4, 4)).tolist(),
        },
        "theorems": [
            "vertical_5_2",
            "horizontal_6_2",
            "combined_7_2",
            "lemma_vertical_5_1",
            "lemma_horizontal_6_1",
            "lemma_combined_7_1",
        ],
    }


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


def _builtin_pw_random() -> dict:
    doc = random_pointwise_submersion(s=4, ell=4, c=-4.0, seed=1331)
    doc["name"] = "pw-random-mix:c-4"
    return doc


_BUILTINS: dict[str, Callable[[], dict]] = {
    "product-projection:8to4": _builtin_product_projection,
    "radial:4": _builtin_radial,
    "paraboloid-vertex": _builtin_paraboloid,
    "flat-embedding:2in4": _builtin_flat_embedding_2in4,
    "flat-embedding:4in8": _builtin_flat_embedding_4in8,
    "hopf-radial:4to3": _builtin_hopf,
    "pw-equality-map:s4": _builtin_pw_equality_map,
    "pw-equality-combined:s4l4": _builtin_pw_equality_combined,
    "pw-random-mix:c-4": _builtin_pw_random,
}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    if name not in _BUILTINS:
        raise SceneValidationError(f"unknown builtin scenario {name!r}")
    return parse_scenario(_BUILTINS[name](), name_hint=name)
