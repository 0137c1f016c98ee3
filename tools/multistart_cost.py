"""Time one hyperplane multi-start call at five (a slices, n) shapes on a checkout's engine.

Usage: python tools/multistart_cost.py [CHECKOUT] [--repeats N] [--count P]

CHECKOUT is the root of a casoratiq checkout (default: the one holding
this script); its ``src/`` goes first on ``sys.path``, so two checkouts,
say a parent and a change, can be compared run against run; BLAS and
OpenMP run on one thread.  The shapes are (a, n) = (2, 3), (3, 4),
(5, 5), (4, 8) and (4, 12).  For each shape the inputs are P (40 by
default) stacks of a symmetric n x n slices with entries uniform in
[-1, 1], drawn from ``default_rng([i, a, n])``, i = 0 ... P - 1, and a
timing is one ``casorati._multistart_extrema`` call on each of them.
The checkout's ``_projected_descent`` (the burn-in) and
``_newton_polish`` (the polish) are timed inside each call; the rest of
the call, the quartic, the starts, the pick of the polished rows and
the read-out of each side's extremum, is its glue.  The script prints
one JSON line: the microseconds per call at each shape, in all and
split into burn-in, polish and glue (from the fastest of the repeats),
the calls that raised or gave a non-finite extremum (``point_errors``),
and the sha256 of the extrema, normals and audits.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import time
from pathlib import Path

SHAPES = ((2, 3), (3, 4), (5, 5), (4, 8), (4, 12))
PARTS = {"burn_in": "_projected_descent", "polish": "_newton_polish"}


def main(argv=None) -> int:
    # one BLAS / OpenMP thread, as bench/run.py sets it before numpy is first imported
    # (below): the engine's arrays are small, and a thread pool only adds noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args(argv)
    root = Path(args.checkout)
    sys.path[:0] = [str(root / "src")]
    import numpy as np

    # the package attribute ``casoratiq.casorati`` is the function of that name
    casorati = importlib.import_module("casoratiq.casorati")
    from casoratiq.errors import CasoratiqError
    spent = dict.fromkeys(PARTS, 0.0)

    def timed(part, fn):
        def run(*a, **kw):
            start = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[part] += time.perf_counter() - start
        return run

    for part, name in PARTS.items():
        setattr(casorati, name, timed(part, getattr(casorati, name)))

    us_per_call, point_errors, digest = {}, 0, hashlib.sha256()
    for a, n in SHAPES:
        tensors = []
        for i in range(args.count):
            x = np.random.default_rng([i, a, n]).uniform(-1.0, 1.0, size=(a, n, n))
            tensors.append(0.5 * (x + x.transpose(0, 2, 1)))
        best = None
        for _ in range(args.repeats):
            for part in spent:
                spent[part] = 0.0
            results = []
            start = time.perf_counter()
            for h in tensors:
                try:
                    results.append(casorati._multistart_extrema(h))
                except CasoratiqError as err:
                    results.append(err)
            total = time.perf_counter() - start
            if best is None or total < best["total"]:
                best = {"total": total, **spent}
        us = {key: 1e6 * value / args.count for key, value in best.items()}
        us["glue"] = us["total"] - us["burn_in"] - us["polish"]
        us_per_call[f"{a},{n}"] = {key: round(value, 1) for key, value in us.items()}
        for ex in results:
            if isinstance(ex, Exception) or not np.isfinite([ex.inf_CL, ex.sup_CL]).all():
                point_errors += 1
                digest.update(repr(ex).encode())
                continue
            fields = (ex.inf_CL, ex.sup_CL, ex.argmin_normal.tolist(), ex.argmax_normal.tolist(),
                      ex.degenerate_min, ex.degenerate_max, ex.audit)
            digest.update(repr(fields).encode())
    print(json.dumps({
        "checkout": str(root.resolve()),
        "calls_per_shape": args.count,
        "us_per_call": us_per_call,
        "point_errors": point_errors,
        "result_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
