"""One benchmark child process: set up, run the claims of one n, report.

    python3 perfbench/workload.py --root CHECKOUT --n N
        [--cache-dir DIR [--template TEMPLATE]] [--trace] [--setup-only]

Set-up is interpreter start, ``import affsymp`` from ``CHECKOUT/src`` and
preparing the cache directory: ``DIR`` is created empty, or as a copy of
``TEMPLATE``.  Without ``--cache-dir`` the claims run with no disk cache.
The child prints ``ready`` and a JSON object when set-up is done, then,
unless ``--setup-only``, runs the claims and prints one JSON line.

The child also samples the speed of the CPU it gets: a timer signal runs a
fixed reference computation, which uses nothing of affsymp, and records how
long it took.  On a shared host that speed swings by a third or more within
seconds, and the time of set-up and claims follows it.  ``wall_ref_s`` is
the claims' wall time without the samples, rescaled to a CPU on which the
reference takes ``REFERENCE_S``; the ``ready`` line gives the speed and
sampled time of the in-process part of set-up, for the parent to rescale
set-up time likewise.  A traced run samples set-up only.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import CLAIMS


def _peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


# set-up lasts about 0.1 s, the claims 3 s or more
SETUP_INTERVAL_S = 0.002
CLAIMS_INTERVAL_S = 0.01
# about what the reference takes on an idle core of the 2-vCPU x86 guest the
# benchmark was defined on; only ratios between runs matter
REFERENCE_S = 100e-6


def _reference() -> Fraction:
    """A fixed computation in the style of the claims' exact arithmetic."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i % 7, i)
    return total


class SpeedSampler:
    """Times ``_reference`` on a timer signal while the claims run; the
    samples are evenly spaced in time.  The collector is off during a
    sample, so a collection that the claims' garbage triggers is not
    charged to it."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _reference()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """``REFERENCE_S`` over a sample, averaged; above 1 is faster than
        the reference.  A sample cut by a switch to another process adds
        almost nothing."""
        if not self.samples:
            raise RuntimeError("no speed sample was taken")
        return statistics.fmean(REFERENCE_S / sample for sample in self.samples)


def _snapshot(path: Path) -> set:
    """Every file under path with its size, mtime and inode; a cache write
    (an atomic rename) changes at least one of them."""
    out = set()
    for entry in path.rglob("*"):
        st = entry.stat()
        out.add((str(entry.relative_to(path)), st.st_size, st.st_mtime_ns, st.st_ino))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--n", type=int, required=True, choices=sorted(CLAIMS))
    parser.add_argument("--cache-dir")
    parser.add_argument("--template")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    for _ in range(3):  # the first calls run slower, before the caches are warm
        _reference()
    setup_sampler = SpeedSampler(SETUP_INTERVAL_S)
    setup_sampler.start()
    src = Path(args.root, "src")
    sys.path.insert(0, str(src))
    import affsymp
    from affsymp import exact_linalg, theorems

    if Path(affsymp.__file__).resolve().parent != (src / "affsymp").resolve():
        raise SystemExit(f"affsymp imported from {affsymp.__file__}, not from {src}")

    cache = None
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
        if args.template:
            shutil.copytree(args.template, cache_dir)
        cache = affsymp.DiffCache(cache_dir)
    setup_sampler.stop()
    speed = {"speed": setup_sampler.speed(), "sampled_s": sum(setup_sampler.samples)}
    print("ready", json.dumps(speed), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import CLAIM_GROUP, Tracer

        tracer = Tracer()
        tracer.install()
    before = _snapshot(cache.path) if args.template else None

    ctx = theorems.VerificationContext(cache=cache, entry_cap=None)
    n = args.n
    claims = []
    sampler = SpeedSampler(CLAIMS_INTERVAL_S) if tracer is None else None
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    for claim_id, params in CLAIMS[n]:
        runner = theorems.CLAIM_RUNNERS[claim_id]
        record = {"id": claim_id, "error": None, "passed": False, "rows": []}
        try:
            if tracer is None:
                report = runner(ctx, n, **params)
            else:
                report = tracer.call(claim_id, CLAIM_GROUP, runner, (ctx, n), params)
            record["passed"] = bool(report.passed)
            record["rows"] = [[r.part, r.degree, r.expected, r.computed] for r in report.rows]
        except Exception:
            record["error"] = traceback.format_exc(limit=3)
        claims.append(record)
    wall_s = time.perf_counter() - start
    if sampler is not None:
        sampler.stop()

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "claims": claims,
        "backend": f"{exact_linalg.Rational.__module__}.{exact_linalg.Rational.__qualname__}",
        "cache_changed": before is not None and _snapshot(cache.path) != before,
    }
    if sampler is not None:
        result["sampled_s"] = sum(sampler.samples)
        result["cpu_speed"] = sampler.speed()
        result["wall_ref_s"] = (wall_s - result["sampled_s"]) * result["cpu_speed"]
    if tracer is not None:
        result["trace"] = tracer.metrics(wall_s)
        result["untraced_targets"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
