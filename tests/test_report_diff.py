"""``tools/report_diff.py``: one checkout against itself, and how a change is classified."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import report_diff  # noqa: E402


def test_head_against_itself_is_identical():
    # a small subset of the corpus: a chart submersion, a pointwise scene and a scene file
    corpus = [
        ["product-projection:8to4", "product-projection:8to4"],
        ["pw-random-mix:c-4", "pw-random-mix:c-4"],
        ["twisted-submersion.json", str(ROOT / "scenarios" / "twisted-submersion.json")],
    ]
    records = report_diff.diff(ROOT, ROOT, corpus)
    assert records == [{"scene": name, "status": "identical"} for name, _ in corpus]
    assert report_diff.summary(records) == {
        "summary": {"scenes": 3, "identical": 3, "float-only": 0, "structural": 0},
        "max_rel": 0.0,
        "at": None,
    }


def _outputs(doc, code=0, stderr=""):
    return {"run": [json.dumps(doc), code, stderr], "validate": ["{}\n", 0, ""]}


REPORT = {"points": [{"reports": [{"slack": 2.0, "verdict": "strict", "count": 3}]}]}


def _moved(**fields):
    doc = json.loads(json.dumps(REPORT))
    doc["points"][0]["reports"][0].update(fields)
    return doc


@pytest.mark.parametrize(
    "change, want",
    [
        (_outputs(REPORT), {"status": "identical"}),
        (_outputs(_moved(slack=2.0 + 2**-50)),
         {"status": "float-only", "max_rel": 2**-51, "path": "run/points/0/reports/0/slack"}),
        (_outputs(_moved(verdict="equality")),
         {"status": "structural", "path": "run/points/0/reports/0/verdict",
          "why": "'strict' -> 'equality'"}),
        (_outputs(_moved(count=4)),
         {"status": "structural", "path": "run/points/0/reports/0/count", "why": "3 -> 4"}),
        (_outputs(_moved(count=3.0)),
         {"status": "structural", "path": "run/points/0/reports/0/count",
          "why": "int -> float"}),
        (_outputs(_moved(extra=None)),
         {"status": "structural", "path": "run/points/0/reports/0",
          "why": "keys ['extra'] added or removed"}),
        (_outputs(REPORT, code=2),
         {"status": "structural", "path": "run:exit", "why": "0 -> 2"}),
        (_outputs(REPORT, stderr="evaluation failed"),
         {"status": "structural", "path": "run:stderr", "why": "'' -> 'evaluation failed'"}),
    ],
)
def test_compare_classifies_each_change(change, want):
    assert report_diff.compare(_outputs(REPORT), change) == want


def test_the_same_values_in_other_bytes_are_structural():
    parent = _outputs(REPORT)
    change = {**parent, "run": [json.dumps(REPORT, indent=1), 0, ""]}
    assert report_diff.compare(parent, change)["status"] == "structural"
