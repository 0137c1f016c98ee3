"""Compare the reports of two casoratiq checkouts, scene by scene.

Usage: python tools/report_diff.py PARENT CHANGE

PARENT and CHANGE are roots of casoratiq checkouts.  The corpus is built
once, from CHANGE (``_corpus_worker``):
- every builtin scene, by name;
- every ``scenarios/*.json``;
- three rounds of each ``bench/workloads.py`` workload at each of the
  seeds ``SEEDS``, written to a temporary directory.

Each checkout's engine then runs the whole corpus in a subprocess of its
own (``_run_worker``), with its ``src/`` as the only ``PYTHONPATH`` and
BLAS and OpenMP on one thread: every scene goes through ``casoratiq run``
and ``casoratiq validate`` in process, which give its stdout, its exit
code and its stderr without the ``elapsed:`` timing line.

The script prints one JSON line per scene, then a summary line.  A scene
is one of:
- ``identical``: every byte of both outputs, both exit codes and both
  stderr texts match;
- ``float-only``: only numbers stored as floats moved; the line gives the
  largest |a - b| / max(1, |a|) and the key path where it occurs, as
  ``command/key/index/...``;
- ``structural``: anything else moved, a verdict, a flag, a path, an int,
  a string, a key set, a list length, an exit code or stderr; the line
  gives the first such key path and what moved there.

It exits 1 when any scene is ``structural``, else 0.  The script itself
needs only the stdlib; each checkout's engine needs numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 3600)
ROUNDS = 3
COMMANDS = ("run", "validate")
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker(root: Path, mode: str, payload) -> object:
    """Run this script's ``mode`` worker ("corpus" or "run") on the engine of ``root``,
    send it ``payload`` as JSON and return the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(dict.fromkeys(_THREADS, "1"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", mode, str(root)],
        input=json.dumps(payload), env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{mode} worker failed on {root}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _corpus_worker(root: Path, directory: str) -> list:
    """The corpus as [scene name, argument of ``casoratiq run``] pairs; workload
    documents are written to ``directory``."""
    sys.path.insert(0, str(root / "bench"))
    import workloads
    from casoratiq.scenes import builtin_names

    corpus = [[name, name] for name in builtin_names()]
    corpus += [[path.name, str(path)] for path in sorted((root / "scenarios").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            docs = workloads.rounds(workload, seed)
            for r in range(ROUNDS):
                for i, doc in enumerate(next(docs)):
                    name = f"{workload}:seed{seed}:r{r}:{i}"
                    path = Path(directory) / f"{name.replace(':', '_')}.json"
                    path.write_text(json.dumps(doc))
                    corpus.append([name, str(path)])
    return corpus


def _run_worker(root: Path, corpus: list) -> dict:
    """Each scene's {command: [stdout, exit code, stderr]} on the engine of ``root``."""
    import casoratiq
    from casoratiq import cli

    if not Path(casoratiq.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"imported {casoratiq.__file__}, not the engine of {root}")
    out = {}
    for name, arg in corpus:
        out[name] = {}
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([command, arg])
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # an engine bug is a result to compare, too
                    code = f"{type(e).__name__}: {e}"
            lines = [ln for ln in stderr.getvalue().splitlines() if not ln.startswith("elapsed:")]
            out[name][command] = [stdout.getvalue(), code, "\n".join(lines)]
    return out


class _Structural(Exception):
    def __init__(self, path: str, why: str):
        super().__init__(path, why)
        self.path, self.why = path, why


def _walk(a, b, path: str, worst: list) -> None:
    """Raise ``_Structural`` at the first non-float difference of two JSON trees; keep
    the largest float difference in ``worst`` as [relative difference, path]."""
    if isinstance(a, float) and isinstance(b, float):
        if a.hex() != b.hex():
            rel = abs(a - b) / max(1.0, abs(a))
            if rel > worst[0] or worst[1] is None:
                worst[:] = [rel, path]
    elif type(a) is not type(b):
        raise _Structural(path, f"{type(a).__name__} -> {type(b).__name__}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            moved = sorted(a.keys() ^ b.keys())
            raise _Structural(path, f"keys {moved} added or removed")
        for key in a:
            _walk(a[key], b[key], f"{path}/{key}", worst)
    elif isinstance(a, list):
        if len(a) != len(b):
            raise _Structural(path, f"length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}/{i}", worst)
    elif a != b:
        raise _Structural(path, f"{a!r} -> {b!r}")


def compare(parent: dict, change: dict) -> dict:
    """The record of one scene from its {command: [stdout, exit code, stderr]} in each
    checkout: its status, and the key path of the largest float change or of the
    first structural one."""
    worst = [0.0, None]
    try:
        for command in sorted(parent.keys() | change.keys()):
            if command not in parent or command not in change:
                raise _Structural(command, "missing")
            (out_a, code_a, err_a), (out_b, code_b, err_b) = parent[command], change[command]
            if code_a != code_b:
                raise _Structural(f"{command}:exit", f"{code_a!r} -> {code_b!r}")
            if err_a != err_b:
                raise _Structural(f"{command}:stderr", f"{err_a!r} -> {err_b!r}")
            if out_a == out_b:
                continue
            try:
                doc_a, doc_b = json.loads(out_a), json.loads(out_b)
            except ValueError:
                raise _Structural(f"{command}:stdout", "not JSON, and not the same bytes")
            moved = [0.0, None]
            _walk(doc_a, doc_b, command, moved)
            if moved[1] is None:
                raise _Structural(f"{command}:stdout", "the same values in other bytes")
            if worst[1] is None or moved[0] > worst[0]:
                worst = moved
    except _Structural as e:
        return {"status": "structural", "path": e.path, "why": e.why}
    if worst[1] is None:
        return {"status": "identical"}
    return {"status": "float-only", "max_rel": worst[0], "path": worst[1]}


def diff(parent: Path, change: Path, corpus: list) -> list:
    """Each scene's record, with its name, over ``corpus``."""
    runs = [_worker(root, "run", corpus) for root in (parent, change)]
    return [{"scene": name, **compare(runs[0][name], runs[1][name])} for name, _ in corpus]


def summary(records: list) -> dict:
    """The counts of each status and the largest float change over all scenes."""
    counts = {status: 0 for status in ("identical", "float-only", "structural")}
    for record in records:
        counts[record["status"]] += 1
    floats = [r for r in records if r["status"] == "float-only"]
    top = max(floats, key=lambda r: r["max_rel"], default=None)
    return {
        "summary": {"scenes": len(records), **counts},
        "max_rel": top["max_rel"] if top else 0.0,
        "at": f"{top['scene']} {top['path']}" if top else None,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        mode, root = argv[1], Path(argv[2])
        payload = json.loads(sys.stdin.read())
        result = _corpus_worker(root, payload) if mode == "corpus" else _run_worker(root, payload)
        sys.stdout.write(json.dumps(result))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        corpus = _worker(change, "corpus", tmp)
        records = diff(parent, change, corpus)
    for record in records:
        print(json.dumps(record), flush=True)
    print(json.dumps(summary(records)))
    return int(any(r["status"] == "structural" for r in records))


if __name__ == "__main__":
    sys.exit(main())
