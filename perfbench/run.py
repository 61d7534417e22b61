"""Benchmark runner: time one ingletonlp workload end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each repeat runs the workload's command as a fresh process
through `child.py`, one after another, until S seconds of commands have
been timed (at least MIN_REPEATS).  Every repeat's output is checked
after its process has exited, outside the timed region.  `--seed` reaches
only workloads whose input depends on it; the others have fixed inputs.

With `--trace 0` the last stdout line carries the end-to-end metrics,
each the median over the run's repeats.  With `--trace 1` an untraced
repeat precedes each traced one as its reference, and the traced repeat
must print the same bytes; the last line then carries the per-layer
medians, `trace.overhead_s` being the traced command time minus its
reference's.  The line before the last is a record of the run: metadata,
every sample, and whether stdout matched the golden output recorded
with the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

MIN_REPEATS = 2  # more would push gen-n8 runs past the total run budget
MIN_TRACED = 2
SETUP_SAMPLES = 7  # import-only processes top the count up to this
CHILD_TIMEOUT_S = 120.0
STOP_STARTING_AFTER_S = 100.0  # keeps a run inside its 180 s limit

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Spawns the child processes of one run inside `work`."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.child = root / "perfbench" / "child.py"
        self.env = dict(os.environ)
        self.env.pop("INGLETONLP_BUDGET", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def spawn(self, argv: list[str], trace: bool, inputs=()) -> dict:
        """Run one child in a fresh directory; returns its measurements."""
        self.count += 1
        run_dir = self.work / f"r{self.count}"
        run_dir.mkdir()
        for name, text in inputs:
            (run_dir / name).write_text(text, encoding="ascii")
        result_path = run_dir / "child.json"
        cmd = [sys.executable, str(self.child), str(result_path),
               "1" if trace else "0", "--", *argv]
        with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=run_dir, stdout=out, stderr=err,
                                    env=self.env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
        rec = {"dir": run_dir, "exit": proc.returncode, "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if result_path.exists():
            child = json.loads(result_path.read_text(encoding="ascii"))
            rec["setup_s"] = child["ready"] - t0
            rec["main_s"] = child.get("main_s")
            rec["layers"] = child.get("layers")
        rec["stdout"] = (run_dir / "stdout").read_bytes()
        return rec


def verdict(workload, rec: dict, seed: int) -> str | None:
    """None when the repeat's output is correct, else the reason it is not."""
    if rec["exit"] != 0:
        err = (rec["dir"] / "stderr").read_text(encoding="ascii", errors="replace")
        return f"exit {rec['exit']}: {err.strip()[-300:]}"
    if "setup_s" not in rec:
        return "child wrote no result"
    if workload.golden_required and rec["golden"] != "match":
        return f"stdout {rec['golden']} against the golden"
    try:
        workload.check(rec["dir"], rec["stdout"], seed)
    except Exception as exc:  # any crash while checking is a failed output
        return f"{type(exc).__name__}: {exc}"
    return None


def _outputs_digest(rec: dict) -> str:
    """Hash of everything a repeat produced that its check reads."""
    h = hashlib.sha256(str(rec["exit"]).encode())
    for path in sorted(rec["dir"].rglob("*")):
        if path.is_file() and path.name not in ("child.json", "stderr"):
            h.update(str(path.relative_to(rec["dir"])).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ingletonlp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def metadata(root: Path, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def _median_of(recs: list[dict], key: str) -> dict:
    values = [r[key] for r in recs if r.get(key) is not None]
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def measure(runner: Runner, workload, seed: int, seconds: float, trace: bool,
            started: float) -> tuple[list[dict], list[dict]]:
    """(checked repeats, import-only probes) of one run."""
    argv = workload.args(seed)
    repeats: list[dict] = []
    timed = 0.0

    verdicts: dict[str, str | None] = {}  # equal outputs get equal verdicts

    def one(traced: bool) -> dict:
        rec = runner.spawn(argv, traced, workload.inputs)
        rec["traced"] = traced
        rec["golden"] = workload.golden_status(seed, rec["stdout"])
        key = _outputs_digest(rec)
        if key not in verdicts:
            verdicts[key] = verdict(workload, rec, seed)
        rec["failure"] = verdicts[key]
        shutil.rmtree(rec.pop("dir"))
        repeats.append(rec)
        return rec

    def may_start() -> bool:
        return time.monotonic() - started < STOP_STARTING_AFTER_S

    if trace:
        # each traced repeat follows an untraced one, so that host speed,
        # which drifts over minutes, cancels in their difference
        while may_start() and (len(repeats) < 2 * MIN_TRACED or timed < seconds):
            reference = one(False)
            rec = one(True)
            timed += reference["wall_s"] + rec["wall_s"]
            if rec["failure"] is None and reference["failure"] is not None:
                rec["failure"] = "untraced reference failed"
            elif rec["failure"] is None and rec["stdout"] != reference["stdout"]:
                rec["failure"] = "traced stdout differs from untraced stdout"
            if rec["failure"] is None:
                rec["overhead_s"] = rec["main_s"] - reference["main_s"]
        return repeats, []
    while may_start() and (len(repeats) < MIN_REPEATS or timed < seconds):
        timed += one(False)["wall_s"]
    probes = []
    while may_start() and len(repeats) + len(probes) < SETUP_SAMPLES:
        probe = runner.spawn([], False)
        shutil.rmtree(probe.pop("dir"))
        probes.append(probe)
    return repeats, probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "ingletonlp" / "cli.py").is_file():
        print("error: run from a checkout root holding src/ingletonlp", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS
    from spans import LAYER_METRICS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = metadata(root, args.seed)

    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(root, work)
        # untimed: fills __pycache__ and the page cache
        shutil.rmtree(runner.spawn([], False)["dir"])
        repeats, probes = measure(runner, workload, args.seed, args.seconds,
                                  bool(args.trace), started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["failure"] is not None for r in repeats)
    # failed repeats are timed only when none passed, to keep the line complete
    good = ([r for r in repeats if r["failure"] is None]
            or [r for r in repeats if "setup_s" in r])
    record = {"workload": workload.name, "trace": args.trace, **meta,
              "attempted": len(repeats), "failed": failed,
              "fail_frac": failed / len(repeats),
              "failures": [r["failure"] for r in repeats if r["failure"]],
              "golden_stdout": sorted({r["golden"] for r in repeats})}
    metrics = {}
    if args.trace:
        traced = [dict(r["layers"], **{"trace.overhead_s": r["overhead_s"]})
                  for r in good if r["traced"] and "overhead_s" in r]
        record["layers"] = traced
        # counts should be equal on every repeat; the record says whether they were
        counts = [k for k, unit in LAYER_METRICS.items() if unit in ("count", "bits")]
        record["counts_repeat"] = all(t[k] == traced[0][k] for t in traced for k in counts)
        record["untraced_main_s"] = [r["main_s"] for r in good if not r["traced"]]
        if traced:
            metrics = {name: {"value": statistics.median(t[name] for t in traced),
                              "unit": unit} for name, unit in LAYER_METRICS.items()}
    elif good:
        samples = good + probes
        summary = {key: _median_of(good, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        summary["setup_s"] = _median_of(samples, "setup_s")
        record["summary"] = summary
        record["repeats"] = [{k: r.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                                    "setup_s", "main_s")} for r in good]
        record["probe_setup_s"] = [p["setup_s"] for p in probes if "setup_s" in p]
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(repeats), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
