"""Pointwise evaluation of the curvature inequalities with equality diagnostics.

The checkers assemble each inequality twice where the source material
provides two routes (generic ambient curvature vs the closed-form
space-form expression) and report the left side, right side, slack and
an equality verdict.  Scalar curvature of the horizontal distribution
is taken as (2 tau_H - 3 |A|^2) / (s (s - 1)), the form under which the
horizontal equality case is exactly "A vanishes".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .casorati import (
    CasoratiInput,
    HyperplaneExtrema,
    _extrema_rows,
    _scale_exponents,
    _zero_extrema,
    casorati,
    delta_casorati,
)
from .errors import ConfigurationError, DimensionError, DomainError, OracleError
from .geometry import curvature_sums
from .quaternionic import JDecomposition, QSFOracle, decompose_J, space_form_pairs

__all__ = [
    "TheoremReport",
    "EqualityDiagnostics",
    "SceneData",
    "TensorLayout",
    "check_map_theorem",
    "check_vertical_theorem",
    "check_horizontal_theorem",
    "check_combined_theorem",
    "checker_inputs",
    "equality_diagnostics",
    "FAMILIES",
    "FAMILY_TENSORS",
    "FRAMES",
    "TENSORS",
    "THEOREM_IDS",
]

ORACLE_EQUALITY_TOL = 1e-8
CHART_EQUALITY_TOL = 1e-5
SPACE_FORM_TOL = 1e-6
A_VANISHING_TOL = 1e-8

# each family is checked by one checker: (theorem, generic-curvature lemma)
FAMILIES = {
    "map": ("map_3_2", "lemma_map_3_1"),
    "vertical": ("vertical_5_2", "lemma_vertical_5_1"),
    "horizontal": ("horizontal_6_2", "lemma_horizontal_6_1"),
    "combined": ("combined_7_2", "lemma_combined_7_1"),
}
THEOREM_IDS = tuple(t for ids in zip(*FAMILIES.values()) for t in ids)


@dataclass(frozen=True)
class EqualityDiagnostics:
    """Residuals of the equality-case conditions, all non-negative.

    The distribution frame is rotated so the optimizer's distinguished
    direction (the argmin hyperplane normal) comes last before the
    off-diagonal and eigenvalue-pattern residuals are measured.
    """

    offdiag_max: float
    eigen_pattern_residual: float
    common_eigendirection_residual: float
    commutator_max: float
    A_norm: float
    bracket_verticality_residual: Optional[float] = None
    degenerate_extrema: bool = False

    def as_dict(self) -> dict:
        """The block's JSON object, built once: the rows that hold this block share it,
        as the rows of a family share their extras dict."""
        return self._doc

    @functools.cached_property
    def _doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    variant: str  # "delta" | "delta_hat"
    lhs: float
    rhs: float
    slack: float
    equality_verdict: str  # "equality" | "strict" | "violated"
    diagnostics: Optional[EqualityDiagnostics] = None
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "variant": self.variant,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "verdict": self.equality_verdict,
            "diagnostics": self.diagnostics.as_dict() if self.diagnostics else None,
            "extras": self.extras,
        }


def _verdict(lhs: float, rhs: float, tol: float, extra_equality: bool = True) -> str:
    slack = rhs - lhs
    normalized = slack / max(1.0, abs(lhs), abs(rhs))
    if normalized < -tol:
        return "violated"
    if abs(normalized) < tol and extra_equality:
        return "equality"
    return "strict"


def _dots(x: np.ndarray) -> np.ndarray:
    """``x @ x`` over the last axis of x, at every point, rounded as the 1-D product."""
    x = np.ascontiguousarray(x)
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _running_max(values: np.ndarray) -> np.ndarray:
    """``max(0.0, *values)`` over the last axis, picked as Python's ``max`` picks it."""
    return np.fmax.reduce(values, axis=-1, initial=0.0)


def _rotation_to_last(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrices whose last row is u (..., n), point axes first.

    Householder reflection with the cancellation-free sign choice, so the
    construction stays exact even when u is nearly axis aligned.
    """
    n = u.shape[-1]
    e = np.zeros(n)
    e[-1] = 1.0
    sign = np.where(u[..., -1:] >= 0, 1.0, -1.0)
    v = u + sign * e
    v = v / np.sqrt(_dots(v))[..., None]
    return -sign[..., None] * (np.eye(n) - 2.0 * (v[..., :, None] * v[..., None, :]))


def _diagnostic_arrays(h: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Off-diagonal, eigenvalue-pattern, common-eigendirection and commutator residuals.

    ``h`` (..., a, n, n) holds the slices and ``u`` (..., n) the argmin
    normals, with the same point axes; every residual has those axes, and
    each point gets the bits it gets alone: slices that are all exactly
    zero get exactly zero residuals, the values that ``checker_inputs``
    gives a stack of them with no call here.  Each point's residuals are
    taken on its slices over 2**k (``_scale_exponents``) and scaled back,
    by 2**k and by 4**k for the commutator, which is exact, so slices
    near the float limit keep their products in range.
    """
    n = h.shape[-1]
    k = _scale_exponents(h)
    scaled = k.any()
    if scaled:
        h = np.ldexp(h, -k[..., None, None, None])
    Q = _rotation_to_last(u)[..., None, :, :]  # against the slice axis
    rotated = Q @ h @ Q.swapaxes(-1, -2)
    off = rotated.copy()
    off.reshape(off.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0  # each slice's diagonal
    offdiag = np.abs(off).max(axis=(-3, -2, -1)) if off.size else np.zeros(off.shape[:-3])

    d = np.diagonal(rotated, axis1=-2, axis2=-1)
    lam = (d[..., :-1].sum(axis=-1) + 2.0 * d[..., -1]) / (n + 3.0)
    # the deviation from the pattern (lam, ..., lam, 2 lam) of each slice
    dev = d - lam[..., None]
    dev[..., -1] = d[..., -1] - 2.0 * lam
    pattern = _running_max(np.sqrt(_dots(dev)))
    common = _running_max(np.sqrt(_dots(rotated[..., :-1, -1])))

    # every ordered pair: [h_b, h_a] = -[h_a, h_b] exactly, and [h_a, h_a] = 0
    products = h[..., :, None, :, :] @ h[..., None, :, :, :]
    comm = products - products.swapaxes(-4, -3)
    norms = np.sqrt(_dots(comm.reshape(comm.shape[:-4] + (-1, n * n))))
    comm_max = _running_max(norms)
    if not scaled:
        return offdiag, pattern, common, comm_max
    offdiag, pattern, common = (np.ldexp(x, k) for x in (offdiag, pattern, common))
    return offdiag, pattern, common, np.ldexp(comm_max, 2 * k)


def _diagnostics_rows(
    h: np.ndarray, extrema: list, A_norm_sq: list, bracket_residual: list
) -> list[EqualityDiagnostics]:
    """``equality_diagnostics`` of every stack of slices ``h[p]`` (P, a, n, n) at once."""
    u = np.stack([np.asarray(ex.argmin_normal, dtype=float) for ex in extrema])
    columns = [a.tolist() for a in _diagnostic_arrays(h, u)]
    # slices large enough to overflow a product give a residual that no report can hold
    for f, column in zip(fields(EqualityDiagnostics), columns):
        for value in column:
            if not math.isfinite(value):
                raise DomainError(f"equality diagnostic {f.name} is not finite ({value!r})")
    return _diagnostics_records(columns, extrema, A_norm_sq, bracket_residual)


def _diagnostics_records(
    columns: list, extrema: list, A_norm_sq: list, bracket_residual: list
) -> list[EqualityDiagnostics]:
    """Each point's ``EqualityDiagnostics`` from its four residual ``columns``, its
    extrema, the squared norm of its A and its bracket residual."""
    return [
        EqualityDiagnostics(
            *residuals,
            A_norm=math.sqrt(max(a_sq, 0.0)),
            bracket_verticality_residual=bracket,
            degenerate_extrema=ex.degenerate_min,
        )
        for *residuals, a_sq, bracket, ex in zip(*columns, A_norm_sq, bracket_residual, extrema)
    ]


def equality_diagnostics(
    inp: CasoratiInput,
    extrema: HyperplaneExtrema,
    A_norm_sq: float = 0.0,
    bracket_residual: Optional[float] = None,
) -> EqualityDiagnostics:
    """Measure how far a tensor is from the equality-case pattern.

    The pattern is block-diagonal slices diag(lambda_a, ..., lambda_a,
    2 lambda_a) sharing one distinguished direction; the commutator of
    the slice matrices and the norm of A cover the remaining conditions.
    """
    (diag,) = _diagnostics_rows(inp.coeffs[None], [extrema], [A_norm_sq], [bracket_residual])
    return diag


# -- scene layout and checker input ----------------------------------------


class TensorLayout(NamedTuple):
    """Where a fundamental tensor lives: h[a, i, j] has one slice per vector
    of its ``normal`` frame and one row and column per vector of its
    ``tangent`` frame, and every slice has the given ``symmetry``."""

    normal: str
    tangent: str
    symmetry: str  # "symmetric" | "skew"


# the two frame tags of each scene kind, on the curved side of the scene
# (the target of a map, the source of a submersion), in the order of their
# rows in that side's split frame
FRAMES = {"map": ("range", "range_perp"), "submersion": ("horizontal", "vertical")}
TENSORS = {
    "B": TensorLayout("range_perp", "range", "symmetric"),
    "T": TensorLayout("horizontal", "vertical", "symmetric"),
    "A": TensorLayout("vertical", "horizontal", "skew"),
}
# tensors each theorem family reads
FAMILY_TENSORS = {"map": ("B",), "vertical": ("T",), "horizontal": ("A",), "combined": ("T", "A")}


class CasoratiTerms(NamedTuple):
    """What the checkers read of one tensor h at one point, worked out once.

    ``block`` holds the Casorati curvature, the hyperplane extrema, the
    delta pair and the optimizer audit, under the names of a one-tensor
    family's extras; ``norm`` is |h|.  A symmetric h (B or T) has its
    ``trace_norm_sq``, |trace h|^2, and a skew one (A) its ``integrable``
    flag: whether h vanishes relative to its largest coefficient.
    """

    block: dict
    norm: float
    trace_norm_sq: Optional[float] = None
    integrable: Optional[bool] = None


def _casorati_terms(inp: CasoratiInput, ex: HyperplaneExtrema, zero: bool) -> CasoratiTerms:
    """The ``CasoratiTerms`` of one point's checked tensor and its extrema.

    An all-zero tensor (``zero``) has zero trace and is integrable, with
    no pass over its coefficients.
    """
    C = casorati(inp)
    delta, delta_hat = delta_casorati(C, ex, inp.n)
    block = {
        "casorati": C,
        "inf_CL": ex.inf_CL,
        "sup_CL": ex.sup_CL,
        "delta_C": delta,
        "delta_C_hat": delta_hat,
        "optimizer_audit": ex.audit,
    }
    norm = math.sqrt(inp.norm_sq())
    if inp.kind == "symmetric":
        return CasoratiTerms(block, norm, trace_norm_sq=0.0 if zero else inp.trace_norm_sq())
    return CasoratiTerms(block, norm, integrable=zero or _integrable(inp, norm))


@dataclass(frozen=True)
class SceneData:
    """Everything the theorem checkers read at one point of a map or submersion scene.

    A record built once, by ``checker_inputs``, with every field filled.
    ``tensors`` maps names of ``TENSORS`` to checked ``CasoratiInput`` of
    the table's symmetry, one for each tensor over a non-empty tangent
    frame.  ``decomp`` holds the Gram matrix and J blocks over the split
    frame of the curved side, [first; second] of ``FRAMES[kind]``, and the
    dimensions ``s`` and ``ell`` of its two parts, and ``sums`` the
    ``curvature_sums`` of the ambient pairs, split after the first part.
    ``terms`` and ``diagnostics`` hold the ``CasoratiTerms`` and the
    equality diagnostics of each tensor the requested families read, over
    at least 3 vectors, shared by every family that reads it.  Chart scenes give
    ``space_form_residual``, the deviation of the ambient curvature from
    the space form; it must be small, and it selects the chart-mode
    equality tolerance.  Chart submersions also give ``bracket_residual``.
    """

    kind: str
    tensors: dict
    c: float
    decomp: JDecomposition
    sums: tuple
    terms: dict
    diagnostics: dict
    deltaN: Optional[float] = None
    space_form_residual: Optional[float] = None  # chart scenes only
    equality_tol: Optional[float] = None  # scene override of the verdict tolerance
    bracket_residual: Optional[float] = None  # chart submersions only


def checker_inputs(
    kind: str,
    E: np.ndarray,
    s: int,
    tensors: dict,
    g: np.ndarray,
    J: np.ndarray,
    c: float,
    families,
    ambient: Optional[np.ndarray] = None,
    *,
    deltaN: Optional[float] = None,
    equality_tol: Optional[float] = None,
    bracket_residual: Optional[np.ndarray] = None,
    flat: bool = False,
    gram: Optional[np.ndarray] = None,
) -> list[SceneData]:
    """Each point's ``SceneData``, computed for a stack of points at once.

    ``E`` (P, k, n) is the split frame of the curved side, orthonormal for
    the metrics ``g`` (P, n, n), whose quaternionic structure is ``J``:
    its first ``s`` rows are the first frame of ``FRAMES[kind]`` and the
    rest the second.  ``tensors`` maps names of ``TENSORS`` to
    coefficients (P, a, m, m), m the size of the tensor's tangent frame; a
    tensor with m = 0, as T is when ell = 0, is left out, and every family
    that would read it rejects that dimension first.  A chart scene passes
    its ambient frame tensor (P, k, k, k, k) over E, whose space-form
    residual each point then carries; without one the ambient curvature is
    the space form itself, with no residual, whose pairs take the closed
    form (``space_form_pairs``) over ``gram`` (P, k, k), E g E^T, which
    ``decompose_J`` forms unless the caller holds it.  In order: the J
    blocks, the ambient pairs or residual (sharing the blocks), each tensor's
    check as a stack (``CasoratiInput.rows``), the curvature sums and, for
    each tensor the requested ``families`` read over at least 3 vectors,
    the hyperplane extrema, the equality diagnostics and the
    ``CasoratiTerms`` that every family reading the tensor shares.  Each
    point gets the bits it would compute alone; each check raises for the
    first point that fails it.  ``bracket_residual`` (P,) comes with
    chart submersions.  ``flat`` says that the ambient tensor is exactly
    zero, as a constant chart's is: its curvature sums are zeros, and at
    c = 0 so is its residual, with no pass over it.

    Whether a tensor's stack is all exact zeros (``not h.any()``, as a
    constant projector's T and A are, or zeros given in a pointwise file)
    is decided here, once per stack.  Such a stack passes every check,
    and each of its points gets, with no product: the squared norm 0.0,
    the extrema of a zero M (``_zero_extrema``: eigenpairs (0, I),
    inf = sup = 0, both tie flags set), zero equality residuals beside
    its own |A| and bracket residual, zero trace and, for A, the
    integrable flag.  Those are the bits the general path gives each
    point, alone or in a stack; a zero point among nonzero ones takes
    the general path.
    """
    decomp = decompose_J(J, g, E, s, gram=gram)
    if ambient is None:
        pairs, residuals = space_form_pairs(c, decomp.gram, decomp.blocks), [None] * len(g)
    elif flat and c == 0.0:
        pairs, residuals = None, [0.0] * len(g)
    else:
        pairs = np.einsum("...abba->...ab", ambient)
        residuals = space_form_residual_from_tensor(
            ambient, QSFOracle(c, J, g), E, blocks=decomp.blocks
        ).tolist()
    zero = _zero_stacks(tensors)  # they pass every check, each with squared norm 0.0
    inputs = {
        key: (
            CasoratiInput._of_rows(h, TENSORS[key].symmetry, [0.0] * len(h)) if key in zero
            else CasoratiInput.rows(h, TENSORS[key].symmetry)
        )
        for key, h in tensors.items()
        if h.shape[-1]
    }
    if flat:
        sums = [(0.0, 0.0, 0.0)] * len(g)
    else:
        sums = list(zip(*(v.tolist() for v in curvature_sums(pairs, s))))
    brackets = [None] * len(g) if bracket_residual is None else bracket_residual.tolist()
    a_norm_sq = [A.norm_sq() for A in inputs["A"]] if "A" in inputs else [0.0] * len(g)
    terms, diagnostics = {}, {}
    for key in dict.fromkeys(k for f in families for k in FAMILY_TENSORS[f]):
        h = tensors[key]
        n = h.shape[-1]
        if n < 3:  # the checkers reject the family before they read the extrema
            continue
        if key in zero:
            extrema = [_zero_extrema(n) for _ in h]
            diagnostics[key] = _diagnostics_records(
                [[0.0] * len(h)] * 4, extrema, a_norm_sq, brackets
            )
        else:
            extrema = _extrema_rows(
                h, TENSORS[key].symmetry, [inp.norm_sq() for inp in inputs[key]]
            )
            diagnostics[key] = _diagnostics_rows(h, extrema, a_norm_sq, brackets)
        terms[key] = [
            _casorati_terms(inp, ex, key in zero) for inp, ex in zip(inputs[key], extrema)
        ]
    return [
        SceneData(
            kind, {key: column[i] for key, column in inputs.items()}, c, point_decomp, sums[i],
            {key: column[i] for key, column in terms.items()},
            {key: column[i] for key, column in diagnostics.items()},
            deltaN, residuals[i], equality_tol, brackets[i],
        )
        for i, point_decomp in enumerate(decomp.rows())
    ]


def _zero_stacks(tensors: dict) -> set:
    """The names of the tensors whose stack of slices is all exact zeros."""
    return {key for key, h in tensors.items() if not h.any()}


def space_form_residual_from_tensor(
    frame_tensor: np.ndarray, oracle: QSFOracle, frame_vectors: np.ndarray, blocks=None
) -> np.ndarray:
    """Largest deviation of a curvature frame tensor from the space form on the same frame.

    The tensor, the frame and the oracle's metric may carry the same
    leading point axes; the residual has them (a scalar for a lone point).
    ``blocks`` are the frame's J blocks when already computed.
    """
    return oracle.residual(frame_tensor, frame_vectors, blocks)


def _family_reports(
    family: str, lhs: float, rhs: list, tol: float, diag: EqualityDiagnostics,
    extras: dict, extra_equality: bool = True,
) -> list[TheoremReport]:
    """The theorem and lemma reports of one family, each in both delta variants.

    ``rhs[0]`` holds the (delta, delta_hat) right sides of the theorem,
    ``rhs[1]`` those of its generic-curvature lemma.  A lhs, rhs or slack
    that is not finite is a ``DomainError`` naming the theorem.
    """
    for theorem_id, pair in zip(FAMILIES[family], rhs):
        if not all(map(math.isfinite, (lhs, *pair, *(r - lhs for r in pair)))):
            raise DomainError(f"{theorem_id}: lhs {lhs!r} or rhs {list(pair)!r} is not finite")
    return [
        TheoremReport(
            theorem_id, variant, lhs, r, r - lhs,
            _verdict(lhs, r, tol, extra_equality), diag, extras,
        )
        for theorem_id, pair in zip(FAMILIES[family], rhs)
        for variant, r in zip(("delta", "delta_hat"), pair)
    ]


def _c_term(c: float, k: int, norms: np.ndarray) -> float:
    """Space-form part of the right side over a k-dimensional distribution."""
    return c / 4.0 + (3.0 * c / (4.0 * k * (k - 1))) * float(norms.sum())


def _check_input(data: SceneData, family: str, **dims: int) -> None:
    """Raise unless each named distribution dimension is at least 3 and
    every tensor the family reads is present."""
    if min(dims.values()) < 3:
        got = ", ".join(f"{name}={k}" for name, k in dims.items())
        raise DimensionError(f"{family} theorem needs {', '.join(dims)} >= 3, got {got}")
    missing = [key for key in FAMILY_TENSORS[family] if key not in data.tensors]
    if missing:
        raise ConfigurationError(f"{family} theorem needs the {' and '.join(missing)} tensor")


def _distribution_reports(
    data: SceneData, family: str, rho_key: str, norms_key: str, extra_equality: bool = True,
    **extras,
) -> list[TheoremReport]:
    """Map, vertical and horizontal inequalities: one tensor over one distribution.

    The distribution is the tensor's tangent frame, one block of the
    scene's frames.  Its ambient scalar curvature sum gives rho, and its
    J-block norms the space-form part of the right side.  The lhs adds
    the tensor's Gauss term to rho: (|trace h|^2 - |h|^2) / (k (k - 1))
    for the symmetric B and T, -3 |A|^2 / (s (s - 1)) for the skew A.
    """
    tol, sf_residual = _checked_scene(data)
    (key,) = FAMILY_TENSORS[family]
    h, terms = data.tensors[key], data.terms[key]
    k = h.n
    block = FRAMES[data.kind].index(TENSORS[key].tangent)
    rho = data.sums[block] / (k * (k - 1))
    if TENSORS[key].symmetry == "symmetric":
        lhs = rho + (terms.trace_norm_sq - h.norm_sq()) / (k * (k - 1))
    else:
        lhs = rho - 3.0 * h.norm_sq() / (k * (k - 1))

    norms = (data.decomp.norms_P, data.decomp.norms_Q)[block]
    c_term = _c_term(data.c, k, norms)
    extras = {
        "c": data.c,
        "equality_tol": tol,
        rho_key: rho,
        "space_form_residual": sf_residual,
        norms_key: norms.tolist(),
        **terms.block,
        **extras,
    }
    delta, delta_hat = terms.block["delta_C"], terms.block["delta_C_hat"]
    rhs = [(delta + amb, delta_hat + amb) for amb in (c_term, rho)]
    return _family_reports(family, lhs, rhs, tol, data.diagnostics[key], extras, extra_equality)


def check_map_theorem(data: SceneData) -> list[TheoremReport]:
    """Map-mode inequality (theorem and generic-lemma assemblies)."""
    _check_input(data, "map", s=data.decomp.s)
    return _distribution_reports(data, "map", "rho_range", "norms_P_range")


def check_vertical_theorem(data: SceneData) -> list[TheoremReport]:
    """Vertical-distribution inequality for submersions."""
    _check_input(data, "vertical", ell=data.decomp.ell)
    return _distribution_reports(data, "vertical", "rho_vertical_ambient", "norms_Q")


def _integrable(A: CasoratiInput, a_norm: float) -> bool:
    """Whether A vanishes relative to its largest coefficient."""
    a_scale = max(1.0, float(np.abs(A.coeffs).max(initial=0.0)))
    return a_norm / a_scale < A_VANISHING_TOL


def check_horizontal_theorem(data: SceneData) -> list[TheoremReport]:
    """Horizontal-distribution inequality; equality means A vanishes."""
    _check_input(data, "horizontal", s=data.decomp.s)
    A = data.terms["A"]
    integrable = A.integrable
    if data.bracket_residual is not None:
        # chart scenes: the bracket cross-check must back the A = 0 reading
        integrable = integrable and data.bracket_residual < 1e-6
    return _distribution_reports(
        data, "horizontal", "rho_horizontal_ambient", "norms_P", integrable, A_norm=A.norm
    )


def check_combined_theorem(data: SceneData) -> list[TheoremReport]:
    """Combined vertical+horizontal inequality with the pluggable deltaN."""
    s, ell = data.decomp.s, data.decomp.ell
    _check_input(data, "combined", s=s, ell=ell)
    if data.deltaN is None:
        raise ConfigurationError(
            "deltaN is required for the combined theorem and has no default"
        )
    tol, sf_residual = _checked_scene(data)
    T, A = data.tensors["T"], data.tensors["A"]
    D = s * (s - 1) * ell * (ell - 1)

    two_tau_h, two_tau_v, mixed = data.sums
    rho_v_amb = two_tau_v / (ell * (ell - 1))
    rho_h_amb = two_tau_h / (s * (s - 1))

    t_norm = T.norm_sq()
    a_norm = A.norm_sq()
    rho_v = rho_v_amb + (data.terms["T"].trace_norm_sq - t_norm) / (ell * (ell - 1))
    rho_h = rho_h_amb - 3.0 * a_norm / (s * (s - 1))
    lhs = rho_h / (ell * (ell - 1)) + rho_v / (s * (s - 1))

    decomp = data.decomp
    tail = (2.0 * data.deltaN - t_norm + a_norm) / D
    generic_amb = (
        rho_v_amb / (s * (s - 1)) + rho_h_amb / (ell * (ell - 1)) + 2.0 * mixed / D
    )
    poly = ell * ell + s * s + 2 * s * ell - ell - s
    closed_amb = (data.c / (4.0 * D)) * poly + (3.0 * data.c / (4.0 * D)) * float(
        (decomp.norms_Q + decomp.norms_P + 2.0 * decomp.norms_PV).sum()
    )

    vert, hor = data.terms["T"].block, data.terms["A"].block
    extras = {
        "c": data.c,
        "equality_tol": tol,
        "deltaN": data.deltaN,
        "space_form_residual": sf_residual,
        "mixed_scalar": mixed,
        # full squared norms; the source material labels these |T^V|^2 and
        # |A^H|^2 in one section and |T^H|^2, |A^V|^2 in others
        "T_norm_sq": t_norm,
        "A_norm_sq": a_norm,
        "delta_C_vertical": vert["delta_C"],
        "delta_C_hat_vertical": vert["delta_C_hat"],
        "delta_C_horizontal": hor["delta_C"],
        "delta_C_hat_horizontal": hor["delta_C_hat"],
        "assembly_agreement": abs(generic_amb - closed_amb),
        "optimizer_audit": {"T": vert["optimizer_audit"], "A": hor["optimizer_audit"]},
    }
    rhs = [
        tuple(
            vert[d] / (s * (s - 1)) + hor[d] / (ell * (ell - 1)) + amb + tail
            for d in ("delta_C", "delta_C_hat")
        )
        for amb in (closed_amb, generic_amb)
    ]
    return _family_reports(
        "combined", lhs, rhs, tol, data.diagnostics["T"], extras, data.terms["A"].integrable
    )


def _checked_scene(data: SceneData) -> tuple[float, Optional[float]]:
    """Verdict tolerance and space-form residual of a scene.

    Raises when the residual of a chart scene is too large.
    """
    residual = data.space_form_residual
    if data.equality_tol is not None:
        tol = float(data.equality_tol)
    else:
        # chart scenes come with a space-form residual; oracle scenes do not
        tol = CHART_EQUALITY_TOL if residual is not None else ORACLE_EQUALITY_TOL
    if residual is not None and not residual <= SPACE_FORM_TOL:
        curvature = "target" if data.kind == "map" else "source"
        raise OracleError(
            f"{curvature} curvature deviates from the c={data.c} space form by {residual:.3e}"
        )
    return tol, residual
