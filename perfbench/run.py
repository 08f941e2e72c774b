"""affsymp benchmark: the verification suite, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs the eight claims
of one ``n`` in registry order through one shared ``VerificationContext``,
in a fresh child process (``workload.py``) that imports ``affsymp`` from
``src/``.  Workloads are in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_ref_s`` (first claim call to last claim return, rescaled to the
reference CPU speed that ``workload.py`` samples while the claims run;
median over the run's repetitions), ``peak_rss_mb`` (peak RSS of the child,
median) and ``setup_s`` (interpreter start, ``import affsymp`` and
preparing the cache directory, rescaled by the speed sampled during the
import and preparation; median over set-ups made before and after the
repetitions).  ``--trace 1`` makes the same untraced repetitions, then
one traced run, and reports the per-layer metrics of ``tracing.py``, the
raw ``wall_s`` (less the speed samples' time) and ``cpu.speed`` of the
untraced repetitions (medians), the tracing overhead (traced ``wall_s``
minus the untraced median) and ``claims_failed``.

A repetition starts only while it is expected to end within ``--seconds``;
there is always at least one.  The workloads are fixed, so ``--seed`` only
names the run's scratch directory; it is recorded with the result.

Every claim's rows are compared with ``expected.json`` (written by
``record_expected.py``).  A claim that raises, does not pass or returns other
rows counts as failed, and the run goes on.  The last line of standard
output is the result; the line before it records the environment and the
raw samples.
"""

from __future__ import annotations

import argparse
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

from tracing import COUNTERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-tmp"
EXPECTED = HERE / "expected.json"
# set-up-only children before the repetitions, and again after them
SETUP_SAMPLES = 8
# every child must end by then, so the whole run ends within 180 s
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def remove_scratch(run_dir: Path) -> None:
    """Delete a run's scratch directory, and the scratch root once empty."""
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def child_env() -> dict[str, str]:
    """The parent's environment without affsymp's own settings, with a fixed
    hash seed so that counters repeat exactly."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("AFFSYMP_CACHE_DIR", "AFFSYMP_MEMORY_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(n: int, deadline: float, *, cache_dir: Path | None = None,
              template: Path | None = None, trace: bool = False,
              setup_only: bool = False) -> tuple[float, dict | None]:
    """Start one child for the claims of ``n``; return its set-up seconds
    (spawn to ``ready``, less the speed samples' time, at reference speed)
    and, unless ``setup_only``, its parsed result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--root", str(ROOT), "--n", str(n)]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if template is not None:
        cmd += ["--template", str(template)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left before the run's deadline")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    tag, _, speed = first.partition(" ")
    if proc.returncode != 0 or tag != "ready":
        raise ChildFailed(f"n={n} child exited with {proc.returncode}")
    speed = json.loads(speed)
    setup_s = (setup_s - speed["sampled_s"]) * speed["speed"]
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def failed_claims(result: dict, expected: dict[str, list]) -> int:
    """Claims that raised, did not pass or returned other rows than recorded."""
    failed = 0
    for claim in result["claims"]:
        if claim["error"] or not claim["passed"] or claim["rows"] != expected.get(claim["id"]):
            failed += 1
            print(f"claim {claim['id']} failed: {claim['error'] or claim['rows']}",
                  file=sys.stderr)
    return failed


def unit_of(metric: str) -> str:
    if metric.startswith("cache.bytes_"):
        return "B"
    if metric in COUNTERS:
        return "count"
    if metric.endswith("_s") or metric.startswith("theorems.claim_s."):
        return "s"
    if metric == "cpu.speed":
        return "ratio"
    return "share"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository;
    git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: str, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Everything one invocation runs; returns the result and its record."""
    deadline = time.monotonic() + DEADLINE_S
    expected = json.loads(EXPECTED.read_text())
    spec = WORKLOADS[workload]
    attempted = failed = 0
    correct = True
    record: dict = {"workload": workload}
    template = None

    def cache_dir(name: str) -> Path | None:
        return None if spec["cache"] is None else run_dir / name

    def tally(result: dict, expected_rows: dict) -> None:
        nonlocal attempted, failed
        attempted += len(result["claims"])
        failed += failed_claims(result, expected_rows)

    n = spec["n"]
    if spec["cache"] == "warm":
        # filled by the code under test, once per invocation, never reused
        template = run_dir / "template"
        fill_start = time.perf_counter()
        _, result = run_child(n, deadline, cache_dir=template)
        record["fill_s"] = time.perf_counter() - fill_start
        tally(result, expected[workload])

    setups = []

    def measure_setups() -> None:
        for _ in range(SETUP_SAMPLES):
            target = cache_dir(f"setup{len(setups)}")
            setup_s, _ = run_child(n, deadline, cache_dir=target,
                                   template=template, setup_only=True)
            setups.append(setup_s)
            if target is not None:
                shutil.rmtree(target)

    if not trace:
        measure_setups()
    walls, wall_refs, speeds, rss = [], [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        target = cache_dir(f"run{len(walls)}")
        setup_s, result = run_child(n, deadline, cache_dir=target, template=template)
        if target is not None:
            shutil.rmtree(target)
        setups.append(setup_s)
        walls.append(result["wall_s"] - result["sampled_s"])
        wall_refs.append(result["wall_ref_s"])
        speeds.append(result["cpu_speed"])
        rss.append(result["peak_rss_mb"])
        tally(result, expected[workload])
        if result["cache_changed"]:
            correct = False
            print("not warm: the run changed the warm cache", file=sys.stderr)
        record["backend"] = result["backend"]
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break

    if not trace:
        measure_setups()
    record.update(walls=walls, wall_refs=wall_refs, cpu_speeds=speeds,
                  peak_rss_mb=rss, setups=setups)
    if trace:
        target = cache_dir("traced")
        _, result = run_child(n, deadline, cache_dir=target, template=template, trace=True)
        if target is not None:
            shutil.rmtree(target)
        tally(result, expected[workload])
        metrics = result["trace"]
        if spec["cache"] == "warm" and (metrics["cache.hit_ratio"] < 1
                                        or metrics["cache.bytes_written"] > 0):
            correct = False
            print("not warm: the traced run missed or wrote the cache", file=sys.stderr)
        metrics["wall_s"] = statistics.median(walls)
        metrics["cpu.speed"] = statistics.median(speeds)
        metrics["trace.overhead_s"] = result["wall_s"] - metrics["wall_s"]
        metrics["claims_failed"] = failed / attempted
        record["traced_wall_s"] = result["wall_s"]
        record["untraced_targets"] = result["untraced_targets"]
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        out = {
            "wall_ref_s": {"value": statistics.median(wall_refs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    return {"result": result, "record": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "affsymp" / "__init__.py").is_file():
        print(f"no affsymp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = SCRATCH / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        out = measure(args.workload, args.seconds, bool(args.trace), run_dir)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_scratch(run_dir)
    out["record"].update(
        seed=args.seed, python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)), commit=git_commit(),
    )
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
