"""Every builtin report against its frozen golden copy.

A golden file is the report exactly as ``casoratiq run <builtin> -o
tests/golden/<builtin>.json`` writes it.  Keys, strings, booleans,
integers and verdicts must match exactly; a float may move by at most
1e-12 * max(1, |golden|), so a refactor that only reorders rounding
passes and any change of behaviour fails.  A change to a numeric path
regenerates the goldens with that command and states its largest
deviation in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from casoratiq.cli import report_json
from casoratiq.scenes import builtin_names, builtin_scenario, evaluate_scenario

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12


def _mismatches(got, want, path="$"):
    """Yield a description of every place where ``got`` departs from ``want``."""
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, float) or isinstance(got, float):
        if type(got) is not type(want):
            yield f"{path}: type {type(got).__name__} != {type(want).__name__}"
        elif abs(got - want) > FLOAT_RTOL * max(1.0, abs(want)):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            yield f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        else:
            for key in want:
                yield from _mismatches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield f"{path}: {got!r} != {want!r}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _mismatches(g, w, f"{path}[{i}]")
    elif got != want or type(got) is not type(want):
        yield f"{path}: {got!r} != {want!r}"


def test_every_builtin_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(builtin_names())


@pytest.mark.parametrize("name", builtin_names())
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = json.loads(report_json(evaluate_scenario(builtin_scenario(name))))
    bad = list(_mismatches(got, want))
    assert not bad, f"{len(bad)} mismatches, first: " + "; ".join(bad[:5])


def test_comparison_is_exact_except_for_float_rounding():
    want = {"verdict": "equality", "flag": True, "n": 3, "x": [1.0, -2e-3]}
    assert not list(_mismatches({**want, "x": [1.0 + 5e-13, -2e-3]}, want))
    assert list(_mismatches({**want, "x": [1.0 + 5e-12, -2e-3]}, want))
    assert list(_mismatches({**want, "verdict": "strict"}, want))
    assert list(_mismatches({**want, "flag": 1}, want))
    assert list(_mismatches({**want, "n": 3.0}, want))
    assert list(_mismatches({**want, "extra": None}, want))
    assert list(_mismatches({**want, "x": [1.0]}, want))
