"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

It runs every workload at its smallest size (one round) through the
real command line, checks the output contract against BENCHMARK.json,
shows that the oracles catch corrupted reports, and checks that the
traced call counts equal cProfile's, so that no binding of a wrapped
function was missed.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def engine():
    return run.import_engine()


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_meets_contract(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _bench("--workload", "chart-curved", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _loop(scene_s, ref_s):
    return run.LoopResult(scene_s=list(scene_s), ref_s=list(ref_s), points=len(scene_s))


BASE = [0.01, 0.02, 0.03] * 8  # three scene kinds, eight rounds
QUIET = [run.REFERENCE_S] * (len(BASE) + 1)


def test_speed_correction_divides_out_machine_slowdowns():
    # the machine runs twice as slow for the last four rounds: the
    # program and the reference kernel slow down together
    slow = [2.0 if i >= 12 else 1.0 for i in range(len(BASE) + 1)]
    scenes = [t * f for t, f in zip(BASE, slow)]
    ref = [r * f for r, f in zip(QUIET, slow)]
    got = run.speed_corrected(scenes, ref)
    # exact away from the step; within the window next to it, off by less than the step
    assert np.allclose(got[:6], BASE[:6]) and np.allclose(got[18:], BASE[18:])
    assert np.all((got > 0.5 * np.array(BASE)) & (got < 2.0 * np.array(BASE)))


def test_speed_correction_keeps_program_slowdowns():
    # every kind gets gradually slower over the rounds (a growing cache,
    # growing state) on a steady machine: all of it must show
    drift = [t * (1.0 + 0.05 * i) for i, t in enumerate(BASE)]
    got = run.speed_corrected(drift, QUIET)
    assert np.allclose(got, drift)
    metrics, _ = run.end_to_end(_loop(drift, QUIET), ([1.0] * 4, [run.REFERENCE_S] * 5))
    steady, _ = run.end_to_end(_loop(BASE, QUIET), ([1.0] * 4, [run.REFERENCE_S] * 5))
    ratio = metrics["points_per_s"][0] / steady["points_per_s"][0]
    assert ratio == pytest.approx(sum(BASE) / sum(drift))  # 0.63: all of the drift
    # a drift on a machine that also slows down still shows once the machine is divided out
    slow = [1.0 + 0.5 * (i % 2) for i in range(len(BASE) + 1)]
    noisy = [t * f for t, f in zip(drift, slow)]
    ref = [r * f for r, f in zip(QUIET, slow)]
    got = run.speed_corrected(noisy, ref)
    assert got[-3:].sum() > 1.5 * got[:3].sum()
    # one slower scene kind is the program's doing and stays
    slower = [t * (2.0 if i % 3 == 1 else 1.0) for i, t in enumerate(BASE)]
    assert np.allclose(run.speed_corrected(slower, QUIET), slower)


def _first_report(engine, workload, index=0):
    doc = next(workloads.rounds(workload, 3))[index]
    return doc, json.loads(run.run_scene(engine, doc))


def _reports(report, theorem_id):
    return [r for p in report["points"] for r in p["reports"] if r["theorem_id"] == theorem_id]


def _flip_verdict(report):
    _reports(report, "horizontal_6_2")[0]["verdict"] = "violated"


def _perturb_inf(report):
    rep = _reports(report, "horizontal_6_2")[0]
    rep["extras"]["inf_CL"] += 1e-6 * max(1.0, abs(rep["extras"]["inf_CL"]))


def _equality_to_strict(report):
    _reports(report, "vertical_5_2")[0]["verdict"] = "strict"


def _radial_slack(report):
    rep = [r for r in _reports(report, "vertical_5_2") if r["variant"] == "delta"][0]
    rep["slack"] += 1e-5


def _point_error(report):
    report["aggregate"]["point_errors"] = 1


@pytest.mark.parametrize(
    "workload, index, corrupt",
    [
        ("pointwise-sweep", 0, _flip_verdict),
        ("pointwise-sweep", 0, _perturb_inf),
        ("pointwise-sweep", 0, _point_error),
        ("chart-product", 0, _equality_to_strict),
        ("chart-curved", 0, _perturb_inf),  # hopf-radial
        ("chart-curved", 1, _radial_slack),
    ],
)
def test_oracles_catch_corruption(engine, workload, index, corrupt):
    doc, report = _first_report(engine, workload, index)
    assert oracles.check_report(workload, doc, report) == []
    corrupt(report)
    assert oracles.check_report(workload, doc, report)


def test_corrupted_reports_count_as_failed(engine, monkeypatch):
    clean = engine.cli.report_json

    def flipped(report):
        return clean(report).replace('"verdict": "strict"', '"verdict": "violated"')

    setup = run.prepare("chart-curved", 5)
    monkeypatch.setattr(engine.cli, "report_json", flipped)
    loop = run.timed_loop(setup, "chart-curved", 5, 0.0)
    # hopf and radial scenes report strict verdicts; the paraboloid has no theorems
    assert loop.failed == 2 and loop.attempted == 3


def test_byte_mismatch_counts_as_failed():
    setup = run.prepare("chart-curved", 5)
    setup.first_report = setup.first_report + " "
    loop = run.timed_loop(setup, "chart-curved", 5, 0.0)
    assert loop.failed == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_calls_equal_cprofile(engine, workload):
    doc = next(workloads.rounds(workload, 11))[0]
    run.run_scene(engine, doc)  # warm up lazy imports before counting

    profile = cProfile.Profile()
    profile.runcall(run.run_scene, engine, doc)
    ncalls = {key: stat[1] for key, stat in pstats.Stats(profile).stats.items()}

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run.run_scene(engine, doc)
    calls, selfs = tracer.totals()

    for target in tracing.TARGETS:
        traced, _ = tracing.target_totals(target, calls, selfs)
        assert traced == ncalls.get(tracing.code_key(target), 0), target.metric
    assert calls  # the scene went through the wrappers at all
