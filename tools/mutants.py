"""Run the checked-in mutants of the engine's thresholds and formulas against their tests.

Usage: python tools/mutants.py

Each mutant (``MUTANTS``) replaces one exact text, which occurs once in
its file, by another: a decision threshold loosened or tightened, or a
term of a formula changed.  For each mutant the script copies the
checkout holding it to a temporary directory, without ``.git`` and
caches, applies the mutant there, and runs ``pytest -x`` on the node ids
expected to kill it.  It prints one JSON line per mutant: its name,
``killed`` (a test failed), ``survived`` (every test passed) or ``error``
(pytest could not run the selection, for example a node id that no
longer exists, with pytest's last line), and the seconds taken.  It
exits 1 when any mutant survived or erred.  Only the stdlib and pytest
are needed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids expected to kill the mutant
    why: str


MUTANTS = (
    Mutant(
        "c-term-k-minus-2",
        "src/casoratiq/inequalities.py",
        "(3.0 * c / (4.0 * k * (k - 1)))",
        "(3.0 * c / (4.0 * k * (k - 2)))",
        ("tests/test_inequalities.py::TestVerticalTheorem::test_equality_pattern",
         "tests/test_inequalities.py::TestHorizontalTheorem::test_A_zero_gives_equality"),
        "the space-form term of every right side divides by k(k - 1)",
    ),
    Mutant(
        "delta-C-inf-CL-scaled",
        "src/casoratiq/casorati.py",
        "delta = 0.5 * C + (n + 1) / (2.0 * n) * extrema.inf_CL",
        "delta = 0.5 * C + (n + 1) / (2.0 * n) * extrema.inf_CL * (1 + 1e-9)",
        ("tests/test_casorati.py::TestDelta::test_equality_pattern",
         "tests/test_inequalities.py::TestAlgebraicGap::test_equality_pattern"),
        "a relative error of 1e-9 in delta_C must show",
    ),
    Mutant(
        "chart-equality-tol-tight",
        "src/casoratiq/inequalities.py",
        "CHART_EQUALITY_TOL = 1e-5",
        "CHART_EQUALITY_TOL = 1e-7",
        ("tests/test_golden.py::test_report_matches_golden[radial:4]",
         "tests/test_golden.py::test_report_matches_golden[hopf-radial:4to3]"),
        "chart equality verdicts rest on the chart tolerance",
    ),
    Mutant(
        "oracle-equality-tol-tight",
        "src/casoratiq/inequalities.py",
        "ORACLE_EQUALITY_TOL = 1e-8",
        "ORACLE_EQUALITY_TOL = 1e-10",
        ("tests/test_scenes_cli.py::TestRunReports::test_exit_code_follows_verdicts_not_raw_slack",
         "tests/test_golden.py::test_report_matches_golden[pw-equality-combined:s4l4]"),
        "pointwise equality verdicts rest on the oracle tolerance",
    ),
    Mutant(
        "isometry-tol-loose",
        "src/casoratiq/maps.py",
        "_ISOMETRY_TOL = 1e-6",
        "_ISOMETRY_TOL = 1e-3",
        ("tests/test_scenes_cli.py::TestBadInput::"
         "test_split_tolerances_act_on_the_whitened_singular_values[stretched-unit]",
         "tests/test_scenes_cli.py::TestBadInput::"
         "test_split_tolerances_act_on_the_whitened_singular_values[stretched-rescaled]"),
        "a horizontal stretch of 5e-6 is not a Riemannian map",
    ),
    Mutant(
        "kernel-tol-loose",
        "src/casoratiq/maps.py",
        "_KERNEL_TOL = 1e-8",
        "_KERNEL_TOL = 1e-5",
        ("tests/test_scenes_cli.py::TestBadInput::"
         "test_split_tolerances_act_on_the_whitened_singular_values[rank-unit]",),
        "a whitened singular value of 1e-7 counts towards the rank",
    ),
    Mutant(
        "isometry-residual-sigma",
        "src/casoratiq/maps.py",
        "svals[..., :rank] ** 2 - 1.0",
        "svals[..., :rank] - 1.0",
        ("tests/test_scenes_cli.py::TestBadInput::"
         "test_split_tolerances_act_on_the_whitened_singular_values[stretched-unit]",),
        "the isometry residual is the distance of the horizontal Gram matrix, sigma^2, from 1",
    ),
    Mutant(
        "space-form-tol-loose",
        "src/casoratiq/inequalities.py",
        "SPACE_FORM_TOL = 1e-6",
        "SPACE_FORM_TOL = 1e-3",
        ("tests/test_scenes_cli.py::TestRunReports::"
         "test_space_form_tolerance_sits_between_1e_7_and_1e_5[1e-05-False]",),
        "a source off the declared space form by 1e-5 is refused",
    ),
    Mutant(
        "a-vanishing-tol-loose",
        "src/casoratiq/inequalities.py",
        "A_VANISHING_TOL = 1e-8",
        "A_VANISHING_TOL = 1e-4",
        ("tests/test_scenes_cli.py::TestRunReports::"
         "test_a_vanishing_tolerance_decides_the_horizontal_equality[1e-07-strict]",),
        "an A of norm about 3e-7 is not integrable, so the horizontal family is strict",
    ),
    Mutant(
        "tie-window-off",
        "src/casoratiq/casorati.py",
        "ties = np.flatnonzero(side.value - best < window)",
        "ties = np.flatnonzero(side.value - best <= 0.0)",
        ("tests/test_casorati.py::TestScaleAndTies::test_reversed_slices_move_no_audit",),
        "polished rows that reach one extremum tie to the last bit; the normal and start "
        "index must not follow the rounding",
    ),
    Mutant(
        "overflow-scale-off",
        "src/casoratiq/casorati.py",
        "return np.where(top > 1.0, np.frexp(top)[1], 0)",
        "return np.zeros_like(top, dtype=int)",
        ("tests/test_scenes_cli.py::TestBadInput::test_huge_pointwise_tensor_scales_its_report[150]",),
        "slices near 1e150 square out of range unless the search and the diagnostics run on h / 2^k",
    ),
    Mutant(
        "bracket-cross-check-loose",
        "src/casoratiq/inequalities.py",
        "data.bracket_residual < 1e-6",
        "data.bracket_residual < 1e-1",
        ("tests/test_inequalities.py::TestHorizontalTheorem::"
         "test_bracket_cross_check_sits_between_1e_7_and_1e_5[1e-05-strict]",),
        "a bracket residual of 1e-5 does not back an exactly-zero A",
    ),
    Mutant(
        "constant-projector-forced",
        "src/casoratiq/maps.py",
        "if src.constant and not (pt.d2F.any() or pt.d3F.any()):",
        "if True:",
        ("tests/test_golden.py::test_report_matches_golden[radial:4]",
         "tests/test_golden.py::test_report_matches_golden[hopf-radial:4to3]"),
        "a curved chart or map has a projector that moves, so T, A and their terms are not zero",
    ),
    Mutant(
        "constant-projector-off",
        "src/casoratiq/maps.py",
        "if src.constant and not (pt.d2F.any() or pt.d3F.any()):",
        "if False:",
        ("tests/test_shortcuts.py::test_product_projection_does_no_passive_work",),
        "a flat product projection forms no product of its zero T, A, bracket and residual terms",
    ),
    Mutant(
        "space-form-pairs-J-weight",
        "src/casoratiq/quaternionic.py",
        "pairs += 3.0 * np.sum(blocks * blocks, axis=-3)",
        "pairs += 2.0 * np.sum(blocks * blocks, axis=-3)",
        ("tests/test_geometry.py::TestCurvatureSums::"
         "test_closed_form_sums_match_the_reference_tensor[4]",),
        "each J term enters a pointwise scene's closed-form curvature sums three times",
    ),
    Mutant(
        "space-form-pairs-gram-square-dropped",
        "src/casoratiq/quaternionic.py",
        "pairs = d[..., :, None] * d[..., None, :] - gram * gram",
        "pairs = d[..., :, None] * d[..., None, :]",
        ("tests/test_geometry.py::TestCurvatureSums::"
         "test_closed_form_sums_match_the_reference_tensor[4]",),
        "the closed form holds over any frame rows, where G_ab is not zero off the diagonal",
    ),
    Mutant(
        "zero-stack-forced",
        "src/casoratiq/inequalities.py",
        "return {key for key, h in tensors.items() if not h.any()}",
        "return set(tensors)",
        ("tests/test_golden.py::test_report_matches_golden[radial:4]",
         "tests/test_acceptance.py::test_c08_radial_regression"),
        "a tensor with a nonzero slice has its own norm, extrema and diagnostics, not zeros",
    ),
    Mutant(
        "zero-stack-off",
        "src/casoratiq/inequalities.py",
        "return {key for key, h in tensors.items() if not h.any()}",
        "return set()",
        ("tests/test_shortcuts.py::test_product_projection_does_no_passive_work",
         "tests/test_batches.py::test_a_pointwise_scene_is_a_chunk_of_one[pw-equality-combined:s4l4]"),
        "an all-zero stack is neither checked nor extremized, and has no diagnostic product",
    ),
    Mutant(
        "literal-metric-off",
        "src/casoratiq/geometry.py",
        "if literal is not None:",
        "if False:",
        ("tests/test_shortcuts.py::test_product_projection_does_no_passive_work",
         "tests/test_scenes_cli.py::TestComputeOnce::test_expression_calls_per_scene"),
        "a metric of literals is checked once per program and never seeded or run",
    ),
    Mutant(
        "literal-metric-forced",
        "src/casoratiq/geometry.py",
        "if passive is None or (passive[0] >= 0).any():",
        "if passive is None:",
        ("tests/test_scenes_cli.py::TestValidation::test_corrupted_metric_reported",),
        "a metric entry that is a bare coordinate varies, so the metric is not literal",
    ),
    Mutant(
        "passive-map-off",
        "src/casoratiq/maps.py",
        "if passive is not None and 0 <= passive[0].max() < n:",
        "if False:",
        ("tests/test_shortcuts.py::test_product_projection_does_no_passive_work",),
        "a coordinate map reads y off x and runs no program",
    ),
    Mutant(
        "flat-residual-forced",
        "src/casoratiq/inequalities.py",
        "elif flat and c == 0.0:",
        "elif flat:",
        ("tests/test_scenes_cli.py::TestRunReports::test_false_space_form_declaration_fails",),
        "a flat curved side is the space form only at c = 0; elsewhere its residual is the model",
    ),
    Mutant(
        "flat-residual-off",
        "src/casoratiq/inequalities.py",
        "elif flat and c == 0.0:",
        "elif False:",
        ("tests/test_batches.py::test_checker_inputs_once_per_chunk[1-chunks0]",),
        "at c = 0 a flat curved side has a zero residual, with no pass over its tensor",
    ),
)

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                  ".benchmarks", "out", "*.egg-info")


def run_mutant(root: Path, mutant: Mutant) -> dict:
    """Apply ``mutant`` to a copy of ``root`` and run its tests there; the JSON record."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=_IGNORED)
        target = copy / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: its text does not occur once in {mutant.path}")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-x", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    record = {"mutant": mutant.name, "status": status,
              "seconds": round(time.perf_counter() - start, 1)}
    if status == "error":
        lines = proc.stdout.splitlines()
        record["summary"] = lines[-1] if lines else proc.stderr.strip()[-200:]
    return record


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    failed = False
    for mutant in MUTANTS:
        record = run_mutant(root, mutant)
        failed |= record["status"] != "killed"
        print(json.dumps(record), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
