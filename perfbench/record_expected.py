"""Write expected.json: every claim's rows on every workload, as the code
under test computes them.

    python3 perfbench/record_expected.py

Run it only at a commit whose results are trusted; the benchmark counts any
later difference from these rows as a failed claim.
"""

from __future__ import annotations

import json
import time

from run import DEADLINE_S, EXPECTED, SCRATCH, remove_scratch, run_child
from workloads import WORKLOADS


def main() -> None:
    run_dir = SCRATCH / "record"
    run_dir.mkdir(parents=True)
    expected = {}
    try:
        for workload, spec in WORKLOADS.items():
            deadline = time.monotonic() + DEADLINE_S
            template = None
            if spec["cache"] == "warm":
                template = run_dir / f"{workload}-template"
                run_child(spec["n"], deadline, cache_dir=template)
            cache_dir = None if spec["cache"] is None else run_dir / workload
            _, result = run_child(spec["n"], deadline, cache_dir=cache_dir, template=template)
            bad = [c["id"] for c in result["claims"] if c["error"] or not c["passed"]]
            if bad:
                raise SystemExit(f"{workload}: claims {bad} fail; nothing recorded")
            expected[workload] = {c["id"]: c["rows"] for c in result["claims"]}
    finally:
        remove_scratch(run_dir)
    # one row per line, so a change of one row reads as a one-line diff
    lines = ["{"]
    for w, (workload, claims) in enumerate(expected.items()):
        lines.append(f" {json.dumps(workload)}: {{")
        for c, (claim, rows) in enumerate(claims.items()):
            lines.append(f"  {json.dumps(claim)}: [")
            lines += [f"   {json.dumps(row)}," for row in rows]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("  ]," if c < len(claims) - 1 else "  ]")
        lines.append(" }," if w < len(expected) - 1 else " }")
    lines.append("}")
    EXPECTED.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
