"""Time pointwise submersion scenes with k = 12, 16, 24 and 32 frame rows on a checkout's engine.

Usage: python tools/pointwise_scaling.py [CHECKOUT] [--repeats N] [--count P]

CHECKOUT is the root of a casoratiq checkout (default: the one holding
this script); its ``src/`` goes first on ``sys.path``, so two checkouts,
say a parent and a change, can be compared run against run; BLAS and
OpenMP run on one thread.  For each k the scenes are P (1 by default)
random pointwise submersions of the checkout's
``scenes.random_pointwise_submersion``: dimension k with quat-flat:k/4,
s = 5 horizontal and ell = k - 5 vertical frame vectors, c = 4, seeds
0 ... P - 1, and the vertical and horizontal theorems and lemmas.  A
timing is ``parse_scenario`` + ``evaluate_scenario`` + ``cli.report_json``
of every scene, as ``casoratiq run`` does after reading its file.  The
script prints one JSON line: the milliseconds per scene at each k (the
minimum over the repeats), the tracemalloc peak of one evaluation of the
first scene at each k (after a warm run), the point errors, and the
sha256 of the reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

DIMS = (12, 16, 24, 32)
S = 5  # horizontal frame vectors
C = 4.0


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
    sys.path[:0] = [str(root / "src")]
    from casoratiq import cli
    from casoratiq.scenes import evaluate_scenario, parse_scenario, random_pointwise_submersion

    ms_per_scene, peak_mb, point_errors, digest = {}, {}, 0, hashlib.sha256()
    for k in DIMS:
        docs = [random_pointwise_submersion(S, k - S, C, seed=i, dim=k) for i in range(args.count)]
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            reports = [evaluate_scenario(parse_scenario(doc)) for doc in docs]
            texts = [cli.report_json(report) for report in reports]
            times.append(time.perf_counter() - start)
        ms_per_scene[str(k)] = 1e3 * min(times) / args.count
        point_errors += sum(report.aggregate["point_errors"] for report in reports)
        for text in texts:
            digest.update(text.encode())
        scn = parse_scenario(docs[0])
        evaluate_scenario(scn)
        tracemalloc.start()
        try:
            evaluate_scenario(scn)
            peak_mb[str(k)] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    print(json.dumps({
        "checkout": str(root.resolve()),
        "scenes": args.count,
        "ms_per_scene": ms_per_scene,
        "tracemalloc_peak_mb": peak_mb,
        "point_errors": point_errors,
        "report_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
