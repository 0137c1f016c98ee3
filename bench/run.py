"""casoratiq benchmark: seeded workloads through the public ``casoratiq run`` path.

Usage (from the repository root)::

    python3 bench/run.py --workload chart-curved --seed 1 --seconds 20 --trace 0

One client runs a closed loop: scene k + 1 starts when the report of
scene k has been serialized.  A scene is ``parse_scenario`` ->
``evaluate_scenario`` -> ``cli.report_json`` on a generated document,
which is what ``casoratiq run`` does after reading its file.  The loop
runs whole rounds of the workload (see ``workloads.py``) until
``--seconds`` have passed.  Every report is checked by ``oracles.py``
outside the timed region, and the first scene is evaluated twice (once
during set-up) to check that its report is byte-identical.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
Their times are scene and set-up times scaled to a machine of reference
speed, measured by a fixed kernel that is not part of the program
(``reference_kernel``, ``speed_corrected``); the raw times are printed
too.
With ``--trace 1`` the run first measures half the time untraced, then
half with the per-layer wrappers of ``tracing.py`` installed; the last
line carries the per-layer metrics, and the spans are saved under
``bench/out/``.  The program is taken from ``src/`` of the checkout the
script sits in; without it the script exits with status 2.

``bench/test_bench.py`` is the harness's self-test
(``python3 -m pytest -q bench/test_bench.py``).
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, set before numpy is first imported: the
# engine's arrays are small, and a thread pool would only add noise.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 10
# Coarse steps, so that run-to-run changes in the scene count of one
# workload do not move its tail between percentiles.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
# Reference-kernel samples on each side of a scene that set its slowdown.
SPEED_WINDOW = 5
# Nominal time of one reference_kernel() call: a round figure near its
# median on a 2-core Intel Xeon virtual machine with numpy 2.4.  Only
# ratios to it matter: it sets the scale of the reported times, not how
# they compare between versions of the program.
REFERENCE_S = 2.0e-3

sys.path.insert(0, str(BENCH_DIR))
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_engine():
    """Import casoratiq from this checkout's src/, and only from there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import casoratiq
    import casoratiq.cli

    if Path(casoratiq.__file__).resolve().parent != (SRC / "casoratiq").resolve():
        raise ImportError(f"casoratiq imported from {casoratiq.__file__}, not {SRC}")
    return casoratiq


_REF = np.random.default_rng(20070101)
_REF_M = _REF.standard_normal((6, 5, 5))
_REF_M = _REF_M + _REF_M.transpose(0, 2, 1)
_REF_X = _REF.standard_normal(5)


def reference_kernel() -> float:
    """Fixed work shaped like the engine's, to measure the machine's speed.

    A projected descent over small symmetric slices: many small numpy
    calls from a Python loop, as in the engine's extremization and
    contractions.  It shares no code with the program under test, so
    the program's own costs (and any drift in them) never reach it.
    """
    x = _REF_X / np.linalg.norm(_REF_X)
    total = 0.0
    for _ in range(120):
        g = np.einsum("aij,j->ai", _REF_M, x)
        v = np.einsum("ai,i->a", g, x)
        d = np.einsum("a,ai->i", v, g)
        d -= x * (x @ d)
        x = x - 0.01 * d
        x /= np.linalg.norm(x)
        total += float(v @ v)
    return total + float(np.linalg.eigh(_REF_M[0] + np.outer(x, x))[0][0])


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def run_scene(engine, doc: dict) -> str:
    """One scene exactly as ``casoratiq run`` evaluates it, minus file I/O."""
    report = engine.evaluate_scenario(engine.parse_scenario(doc))
    return engine.cli.report_json(report)


@dataclass
class Setup:
    engine: object
    import_s: float
    first_report: str  # report of the first scene, evaluated untimed as the warm-up


def prepare(workload: str, seed: int) -> Setup:
    """Everything before the timed loop: import, first documents, warm-up scene."""
    t0 = time.perf_counter()
    engine = import_engine()
    import_s = time.perf_counter() - t0
    first_round = next(workloads.rounds(workload, seed))
    return Setup(engine, import_s, run_scene(engine, first_round[0]))


@dataclass
class LoopResult:
    scene_s: list = field(default_factory=list)
    # reference_kernel() times: one before every scene and one after the last
    ref_s: list = field(default_factory=list)
    points: int = 0
    rounds: int = 0
    failed: int = 0
    first_round_bytes: int = 0
    first_round_points: int = 0

    @property
    def attempted(self) -> int:
        return len(self.scene_s)


def timed_loop(setup: Setup, workload: str, seed: int, seconds: float, tracer=None):
    """Run whole rounds until ``seconds`` have passed; at least one round.

    Only the scenes themselves are timed; generating the next round,
    checking reports and timing the reference kernel happen between
    scenes, outside every scene's time.
    """
    out = LoopResult()
    rounds = workloads.rounds(workload, seed)
    begin = time.perf_counter()
    while out.rounds == 0 or time.perf_counter() - begin < seconds:
        docs = next(rounds)
        for k, doc in enumerate(docs):
            out.ref_s.append(time_reference())
            if tracer is not None:
                tracer.scene_id = out.attempted
            t0 = time.perf_counter()
            try:
                text = run_scene(setup.engine, doc)
            except Exception:  # one broken scene must not end the run
                text = None
                traceback.print_exc()
            out.scene_s.append(time.perf_counter() - t0)
            points = workloads.scene_points(doc)
            out.points += points
            problems = ["no report"] if text is None else oracles.check_report(
                workload, doc, json.loads(text)
            )
            if out.rounds == 0 and k == 0 and text != setup.first_report:
                problems.append("report differs from the set-up evaluation of the same scene")
            if problems:
                out.failed += 1
                print(f"FAILED {doc['name']}: " + "; ".join(problems[:5]), file=sys.stderr)
            if out.rounds == 0:
                out.first_round_points += points
                out.first_round_bytes += len(text.encode()) if text else 0
        out.rounds += 1
    out.ref_s.append(time_reference())
    return out


def speed_corrected(times, ref_s) -> np.ndarray:
    """Times scaled to a machine on which reference_kernel() takes REFERENCE_S.

    A shared 2-core virtual machine can run everything in it up to 2x
    slower, in bursts of well under a second and in stretches of
    minutes.  ``ref_s`` holds reference kernel times taken between the
    timed items: ref_s[i] just before item i and ref_s[i + 1] just
    after it.  Item i's slowdown is the mean of those two and the
    SPEED_WINDOW samples beyond each, over REFERENCE_S; its time is
    divided by that slowdown.  The mean, not the median: an item's time
    adds up the bursts it runs through.  The reference kernel is not the
    program, so whatever makes the program slower, at once or gradually
    over a run, stays in the result.
    """
    t = np.asarray(times, dtype=float)
    ref = np.asarray(ref_s, dtype=float)
    assert len(ref) == len(t) + 1
    padded = np.pad(ref, SPEED_WINDOW, constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * SPEED_WINDOW + 2)
    return t * REFERENCE_S / np.nanmean(windows, axis=1)


def tail_percentile(n: int) -> float:
    """Highest percentile that leaves at least ten scenes beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)])


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, one child process at a time.

    Returns the probe times and the reference kernel times taken around
    them (one before every probe and one after the last), for
    ``speed_corrected``.
    """
    times, ref_s = [], []
    for _ in range(SETUP_PROBES):
        ref_s.append(time_reference())
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            try:
                code = proc.wait(timeout=170)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if code != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    ref_s.append(time_reference())
    return times, ref_s


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loop": "closed, one client",
    }


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def end_to_end(loop: LoopResult, setup: tuple[list, list]) -> tuple[dict, str]:
    """End-to-end metrics from speed-corrected scene and set-up times.

    Throughput divides by the summed scene times, so the benchmark's own
    checks between scenes are not charged to the program.  Set-up time
    is the lower quartile of the corrected probes: a probe can only be
    slowed by the machine, never sped up.
    """
    scene_s = speed_corrected(loop.scene_s, loop.ref_s)
    setup_s = speed_corrected(*setup)
    p_tail = tail_percentile(loop.attempted)
    metrics = {
        "points_per_s": (loop.points / float(scene_s.sum()), "1/s"),
        "scene_ms_p50": (1e3 * float(np.median(scene_s)), "ms"),
        "scene_ms_tail": (1e3 * percentile(scene_s, p_tail), "ms"),
        "setup_s": (lower_quartile(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (
        f"scene_ms_tail is p{p_tail:g} of {loop.attempted} scenes; uncorrected "
        f"points_per_s {loop.points / sum(loop.scene_s):.6g}, "
        f"scene_ms_p50 {1e3 * statistics.median(loop.scene_s):.6g}, "
        f"setup_s {lower_quartile(setup[0]):.6g}; reference kernel median "
        f"{1e3 * statistics.median(loop.ref_s):.6g} ms (nominal {1e3 * REFERENCE_S:g} ms)"
    )
    return metrics, note


def per_layer(setup: Setup, workload: str, seed: int, seconds: float):
    """Untraced then traced loops of half the time each; returns (metrics, loop, tracer)."""
    untraced = timed_loop(setup, workload, seed, seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = timed_loop(setup, workload, seed, seconds / 2, tracer)
    metrics = tracing.layer_metrics(tracer, traced.points)
    fast = untraced.points / float(speed_corrected(untraced.scene_s, untraced.ref_s).sum())
    slow = traced.points / float(speed_corrected(traced.scene_s, traced.ref_s).sum())
    metrics["cli.report_bytes"] = (
        traced.first_round_bytes / traced.first_round_points,
        "bytes/point",
    )
    metrics["setup.import_s"] = (setup.import_s, "s")
    metrics["trace.points_per_s.untraced"] = (fast, "1/s")
    metrics["trace.points_per_s.traced"] = (slow, "1/s")
    metrics["trace.overhead_ratio"] = (fast / slow, "ratio")
    loop = LoopResult(
        scene_s=untraced.scene_s + traced.scene_s,
        points=untraced.points + traced.points,
        rounds=untraced.rounds + traced.rounds,
        failed=untraced.failed + traced.failed,
    )
    return metrics, loop, tracer


def result_line(loop: LoopResult, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if not (SRC / "casoratiq" / "__init__.py").is_file():
        print(f"benchmark cannot run: no casoratiq package under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else setup_times(args.workload, args.seed)
    setup = prepare(args.workload, args.seed)

    print(f"provenance {json.dumps(provenance(args.workload, args.seed, args.seconds, args.trace))}")
    if args.trace:
        metrics, loop, tracer = per_layer(setup, args.workload, args.seed, args.seconds)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        note = f"{len(tracer.name)} spans written to {spans.relative_to(ROOT)}"
    else:
        loop = timed_loop(setup, args.workload, args.seed, args.seconds)
        metrics, note = end_to_end(loop, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:14.6g} {unit}")
    print(
        f"{loop.rounds} rounds, {loop.points} points, {loop.attempted} scenes, "
        f"failed_ratio {loop.failed / loop.attempted:g} ({loop.failed}/{loop.attempted}); {note}"
    )
    print(result_line(loop, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
