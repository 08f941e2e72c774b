"""The traced run's counters repeat exactly, so a later change may rest a
claim on them.

    python3 -m pytest perfbench/test_counters.py

Runs each workload traced twice (about two minutes on two cores).
"""

from __future__ import annotations

import time

import pytest

from run import DEADLINE_S, SCRATCH, remove_scratch, run_child
from tracing import COUNTERS
from workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_exactly(workload):
    spec = WORKLOADS[workload]
    run_dir = SCRATCH / f"counters-{workload}"
    run_dir.mkdir(parents=True)
    try:
        deadline = time.monotonic() + 2 * DEADLINE_S
        template = None
        if spec["cache"] == "warm":
            template = run_dir / "template"
            run_child(spec["n"], deadline, cache_dir=template)
        counts = []
        for i in range(2):
            cache_dir = None if spec["cache"] is None else run_dir / f"run{i}"
            _, result = run_child(spec["n"], deadline, cache_dir=cache_dir,
                                  template=template, trace=True)
            assert not result["untraced_targets"]
            counts.append({name: result["trace"][name] for name in COUNTERS})
    finally:
        remove_scratch(run_dir)
    assert counts[0] == counts[1]
    if spec["cache"] is None:
        assert counts[0]["cache.hits"] == counts[0]["cache.misses"] == 0
    elif spec["cache"] == "warm":
        assert counts[0]["cache.misses"] == counts[0]["cache.bytes_written"] == 0
    else:
        assert counts[0]["cache.misses"] > 0 and counts[0]["cache.bytes_written"] > 0
