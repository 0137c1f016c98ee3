"""Command line interface: run / list / validate.

Exit codes: 2 when any report's verdict is "violated", else 3 when the
scenario is invalid or a point could not be evaluated, else 0; raw
slacks play no part.  A malformed command line or an output file that
cannot be written exits 3 with one line on stderr, before any verdict.
Reports are byte-stable across runs: numbers serialize as shortest
round-trip decimals and wall-clock timing goes to stderr only.  A report,
like the output of ``validate``, is one line of JSON with sorted keys;
``python -m json.tool`` prints it indented.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys

from .errors import CasoratiqError, SceneValidationError
from .scenes import (
    builtin_names,
    builtin_scenario,
    evaluate_scenario,
    load_scenario,
    parse_tolerances,
    validate_scenario,
)

__all__ = ["main", "report_json", "report_csv"]


def report_json(report) -> str:
    """The report as one line of compact JSON with sorted keys.

    The bytes are those of ``_json_line(report.as_dict())``.  The theorem
    rows of a point share their extras dicts and diagnostics blocks, so
    the document is encoded piecewise (``_rows_text``): each distinct
    shared dict is encoded once per report, and its text is spliced into
    every row that holds it.
    """
    return _rows_text([report.as_dict()], {})[1:-1] + "\n"  # the one row, without brackets


# json.dumps(doc, sort_keys=True, separators=(",", ": "), allow_nan=False) of a tree;
# no indent, which would switch json to its pure-Python encoder, and ": " keeps each
# "key": value pair spelled as in an indented dump
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ": "), allow_nan=False, check_circular=False
)


def _json_line(doc) -> str:
    return _ENCODER.encode(doc) + "\n"


def _rows_text(rows: list, texts: dict) -> str:
    """``_ENCODER.encode(rows)`` of a list of dicts, each shared dict encoded once.

    The values of a key are spliced in when the first row holds a list
    of dicts under it, encoded as rows in turn, or when the first two
    rows hold one dict under it.  Each distinct dict is encoded once and
    kept in ``texts`` under its id (the entry holds the dict, so the id
    stays its own).  The rows, with those values set to None, take one
    encode, and each of their ``"key": null`` pairs is replaced by its
    row's text.  The pairs are all found before any text is spliced in:
    a row that holds the key holds the pair once at its top level, and
    should a dict left in place hold one more, or a row lack the key,
    the rows are encoded whole.
    """
    first, second = rows[0], rows[1] if len(rows) > 1 else {}
    nested = dict.fromkeys(
        key for key, value in first.items()
        if (isinstance(value, list) and value and isinstance(value[0], dict))
        or (isinstance(value, dict) and second.get(key) is value)
    )
    if not nested or not all(key in row for row in rows for key in nested):
        return _ENCODER.encode(rows)
    fills = {
        _ENCODER.encode(key): iter([_text(row[key], texts) for row in rows]) for key in nested
    }
    flat = _ENCODER.encode([row | nested for row in rows])
    pieces = re.split("(" + "|".join(map(re.escape, fills)) + "): null", flat)
    if len(pieces) // 2 != len(rows) * len(nested):
        return _ENCODER.encode(rows)
    out = [pieces[0]]
    for name, rest in zip(pieces[1::2], pieces[2::2]):
        out += [name, ": ", next(fills[name]), rest]
    return "".join(out)


def _text(value, texts: dict) -> str:
    """The text of one spliced value: a list of dicts as rows, a dict once per report."""
    if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
        return _rows_text(value, texts)
    if not isinstance(value, dict):
        return _ENCODER.encode(value)
    entry = texts.get(id(value))
    if entry is None:
        entry = texts[id(value)] = (value, _ENCODER.encode(value))
    return entry[1]


def report_csv(report) -> str:
    """CSV of (point, theorem, lhs, rhs, slack); numbers print exactly as in JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["point_index", "point", "theorem_id", "variant", "lhs", "rhs", "slack", "verdict"]
    )
    for p in report.points:
        coords = ";".join(repr(float(v)) for v in p.point)
        for r in p.reports:
            writer.writerow(
                [
                    p.index,
                    coords,
                    r.theorem_id,
                    r.variant,
                    repr(float(r.lhs)),
                    repr(float(r.rhs)),
                    repr(float(r.slack)),
                    r.equality_verdict,
                ]
            )
    return buf.getvalue()


def _cmd_run(args) -> int:
    pairs = [item.partition("=") for item in args.tolerance or []]
    try:
        scn = load_scenario(args.scenario)
        overrides = parse_tolerances({key: value for key, _, value in pairs}, "--tolerance")
    except SceneValidationError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 3
    if overrides:
        scn = dataclasses.replace(scn, tolerances={**scn.tolerances, **overrides})
    try:
        report = evaluate_scenario(scn, strict=args.strict)
    except SceneValidationError as e:
        print(f"scene invalid: {e}", file=sys.stderr)
        return 3
    except CasoratiqError as e:
        print(f"evaluation failed: {e}", file=sys.stderr)
        return 3

    text = report_json(report)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report_csv(report))
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 3
    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)

    if report.has_violation():
        return 2
    if report.aggregate["point_errors"]:
        return 3
    return 0


def _cmd_list(_args) -> int:
    for name in builtin_names():
        scn = builtin_scenario(name)
        kind = scn.mode if scn.mode == "pointwise" else f"chart/{scn.smap.mode}"
        theorems = ",".join(scn.theorems) if scn.theorems else "residuals-only"
        print(f"{name:28s} {kind:28s} c={scn.c:g}  {theorems}")
    return 0


def _cmd_validate(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        results = validate_scenario(scn)
    except SceneValidationError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 3
    doc = {
        "scenario": scn.name,
        "points": [p.as_dict() for p in results],
        "valid": all(not p.errors for p in results),
    }
    sys.stdout.write(_json_line(doc))
    return 0 if doc["valid"] else 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own code 2 would read as a violated theorem
        self.exit(3, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="casoratiq",
        description="Verify Casorati curvature inequalities on scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario and emit a JSON report")
    p_run.add_argument("scenario", help="scenario file path or builtin name")
    p_run.add_argument("-o", "--output", help="write the JSON report here")
    p_run.add_argument("--csv", help="also write a CSV of per-report numbers")
    p_run.add_argument(
        "--strict", action="store_true", help="abort on the first per-point failure"
    )
    p_run.add_argument(
        "--tolerance",
        action="append",
        metavar="K=V",
        help="override a tolerance (equality=V or residual=V)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="check scene invariants only")
    p_val.add_argument("scenario", help="scenario file path or builtin name")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
