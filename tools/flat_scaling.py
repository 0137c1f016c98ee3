"""Time flat:n -> flat:4 product projections per point, n = 8, 12, 16 and 24, on a checkout's engine.

Usage: python tools/flat_scaling.py [CHECKOUT] [--repeats N] [--count P]

CHECKOUT is the root of a casoratiq checkout (default: the one holding
this script); its ``src/`` goes first on ``sys.path``, so two checkouts,
say a parent and a change, can be compared run against run; BLAS and
OpenMP run on one thread.  For each n the scene is the chart-product
benchmark's document
(``bench/workloads.product_projection`` of the checkout: flat:n onto
flat:4 with quat-flat:n/4 on the source and the six submersion theorems)
at P points (1 by default) drawn from ``default_rng(n)`` in [-1, 1]^n.
A timing is ``parse_scenario`` + ``evaluate_scenario`` +
``cli.report_json`` of the scene, as ``casoratiq run`` does after
reading its file.  The script prints one JSON line: the milliseconds per
point at each n (the minimum over the repeats), the point errors, and
the sha256 of the reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

DIMS = (8, 12, 16, 24)


def main(argv=None) -> int:
    # one BLAS / OpenMP thread, as bench/run.py sets it before numpy is first imported
    # (below): the engine's arrays are small, and a thread pool only adds noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument("--count", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path(args.checkout)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import numpy as np
    from casoratiq import cli
    from casoratiq.scenes import evaluate_scenario, parse_scenario
    from workloads import product_projection

    ms_per_point, point_errors, digest = {}, 0, hashlib.sha256()
    for n in DIMS:
        points = np.random.default_rng(n).uniform(-1.0, 1.0, size=(args.count, n)).tolist()
        doc = product_projection(n, points[0], f"flat-scaling:n{n}")
        doc["points"] = points
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            report = evaluate_scenario(parse_scenario(doc))
            text = cli.report_json(report)
            times.append(time.perf_counter() - start)
        ms_per_point[str(n)] = 1e3 * min(times) / args.count
        point_errors += report.aggregate["point_errors"]
        digest.update(text.encode())
    print(json.dumps({
        "checkout": str(root.resolve()),
        "points": args.count,
        "ms_per_point": ms_per_point,
        "point_errors": point_errors,
        "report_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
