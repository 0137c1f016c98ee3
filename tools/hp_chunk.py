"""Time one 32-point chunk of the HP^1 in HP^2 chart scene (c = 4) on a checkout's engine.

Usage: python tools/hp_chunk.py [CHECKOUT] [--repeats N] [--count P]

CHECKOUT is the root of a casoratiq checkout (default: the one holding
this script); its ``src/`` goes first on ``sys.path``, so two checkouts,
say a parent and a change, can be compared run against run; BLAS and
OpenMP run on one thread.  The scene maps the affine chart of HP^1 onto
the first quaternionic line of the affine chart of HP^2, with
``quat-flat:2`` on the target.  Both metrics
are written as expression entries (``hp_metric``), 16 and 64 of them,
and the P sampled points (32 by default) make one chunk.  The script
prints one JSON line: the milliseconds per point of ``evaluate_scenario``
on the whole scene (the minimum over the repeats), the largest Gauss
residual, the point errors, and the sha256 of ``cli.report_json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path


def hp_metric(J) -> list:
    """The metric of HP^m (c = 4) on its affine chart, as rows of expression texts.

    ``J`` holds the three (4m, 4m) matrices of the quaternionic structure,
    and the entries are those of
    g = ((1 + |x|^2) |dx|^2 - (x.dx)^2 - sum_a (x.J_a dx)^2) / (1 + |x|^2)^2,
    whose subtracted forms span the quaternionic line of x.
    """
    n = len(J[0])
    r = f"(1 + ({' + '.join(f'x{i}^2' for i in range(1, n + 1))}))"
    # form k, component b: the coefficient of dx_b in x.dx (k = 0) or in x.J_k dx
    forms = [[f"x{b + 1}" for b in range(n)]]
    for Ja in J:
        forms.append([
            "(" + " ".join(
                f"{'+' if Ja[c][b] > 0 else '-'} x{c + 1}" for c in range(n) if Ja[c][b]
            ).lstrip("+ ") + ")"
            for b in range(n)
        ])
    rows = []
    for a in range(n):
        quadrics = [" + ".join(f"{f[a]}*{f[b]}" for f in forms) for b in range(n)]
        rows.append([
            f"({r if a == b else 0} - ({q}))/{r}^2" for b, q in enumerate(quadrics)
        ])
    return rows


def hp_line_scene(quat_units, count: int = 32, seed: int = 23) -> dict:
    """HP^1 onto the first quaternionic line of HP^2 (c = 4), at ``count`` sampled points."""
    return {
        "version": 1,
        "name": "hp-line:1in2",
        "mode": "chart",
        "map": {
            "source": {"dim": 4, "box": [[-1.0, 1.0]] * 4, "metric": hp_metric(quat_units(1))},
            "target": {"dim": 8, "box": [[-1.0, 1.0]] * 8, "metric": hp_metric(quat_units(2))},
            "exprs": ["x1", "x2", "x3", "x4", "0", "0", "0", "0"],
            "map_mode": "riemannian_map",
            "rank": 4,
        },
        "structure": {"on": "target", "name": "quat-flat:2"},
        "c": 4.0,
        "points": {"sample": {"count": count, "seed": seed, "box": [[-0.6, 0.6]] * 4}},
        "theorems": ["map_3_2", "lemma_map_3_1"],
    }


def main(argv=None) -> int:
    # one BLAS / OpenMP thread, as bench/run.py sets it before numpy is first imported
    # (below): the engine's arrays are small, and a thread pool only adds noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--count", type=int, default=32)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout) / "src"))
    from casoratiq import cli
    from casoratiq.quaternionic import quat_units
    from casoratiq.scenes import evaluate_scenario, parse_scenario

    scn = parse_scenario(hp_line_scene(quat_units, args.count))
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        report = evaluate_scenario(scn)
        times.append(time.perf_counter() - start)
    residuals = [p.gauss_residuals["map"] for p in report.points if p.gauss_residuals]
    print(json.dumps({
        "checkout": str(Path(args.checkout).resolve()),
        "points": len(report.points),
        "ms_per_point": 1e3 * min(times) / len(report.points),
        "max_gauss_residual": max(residuals, default=None),
        "point_errors": report.aggregate["point_errors"],
        "report_sha256": hashlib.sha256(cli.report_json(report).encode()).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
