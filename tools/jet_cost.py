"""Time the map and metric jets of four chart scenes on a checkout's engine.

Usage: python tools/jet_cost.py [CHECKOUT] [--repeats N] [--count P]

CHECKOUT is the root of a casoratiq checkout (default: the one holding
this script); its ``src/`` goes first on ``sys.path``, so two checkouts,
say a parent and a change, can be compared run against run; BLAS and
OpenMP run on one thread.  The scenes are the builtins
``hopf-radial:4to3``, ``radial:4`` and ``paraboloid-vertex`` and the
HP^1 in HP^2 scene of ``tools/hp_chunk.py`` (``hp_line_scene``), whose
16 and 64 metric entries are rational expressions.  Each scene is
evaluated at P points (4 by default): a builtin's own points, repeated
in order up to P, and P sampled points of the HP scene.  A timing is
``CALLS`` calls of ``SmoothMap.jets`` at the P source points, and of
``MetricChart.metric_jets`` on the source chart at those points and on
the target chart at their images.  The script prints one JSON line: the
microseconds per call of each (the fastest of the repeats), the calls
that raised or gave a non-finite array (``point_errors``), and the
sha256 of every array the calls return, with -0.0 read as 0.0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

BUILTINS = ("hopf-radial:4to3", "radial:4", "paraboloid-vertex")
CALLS = 20


def main(argv=None) -> int:
    # one BLAS / OpenMP thread, as bench/run.py sets it before numpy is first imported
    # (below): the engine's arrays are small, and a thread pool only adds noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument("--count", type=int, default=4)
    args = parser.parse_args(argv)
    root = Path(args.checkout)
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import numpy as np

    from casoratiq.errors import CasoratiqError
    from casoratiq.quaternionic import quat_units
    from casoratiq.scenes import builtin_scenario, parse_scenario
    from hp_chunk import hp_line_scene

    scns = {name: builtin_scenario(name) for name in BUILTINS}
    hp = parse_scenario(hp_line_scene(quat_units, args.count))
    scns[hp.name] = hp
    us_per_call, point_errors, digest = {}, 0, hashlib.sha256()
    for name, scn in scns.items():
        smap = scn.smap
        x = scn.evaluation_points()
        x = np.resize(x, (args.count, x.shape[-1]))
        try:
            y = smap.jets(x)[0]
        except CasoratiqError as err:
            point_errors += 1
            digest.update(repr(err).encode())
            continue
        calls = {
            "map_jets": lambda: smap.jets(x),
            "source_metric_jets": lambda: smap.source.metric_jets(x),
            "target_metric_jets": lambda: smap.target.metric_jets(y),
        }
        us_per_call[name] = {}
        for part, call in calls.items():
            best = None
            for _ in range(args.repeats):
                start = time.perf_counter()
                for _ in range(CALLS):
                    out = call()
                spent = time.perf_counter() - start
                best = spent if best is None else min(best, spent)
            us_per_call[name][part] = round(1e6 * best / CALLS, 1)
            arrays = [a for a in out if a is not None]
            if not all(np.isfinite(a).all() for a in arrays):
                point_errors += 1
            # + 0.0 reads -0.0 as 0.0: only the sign of a zero may move between two engines
            for a in arrays:
                digest.update(np.ascontiguousarray(a + 0.0).tobytes())
    print(json.dumps({
        "checkout": str(root.resolve()),
        "points": args.count,
        "calls": CALLS,
        "us_per_call": us_per_call,
        "point_errors": point_errors,
        "arrays_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
