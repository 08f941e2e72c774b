"""Span recorder for the benchmark's traced run.

The recorder wraps public functions and methods of affsymp's layers from
outside the package; nothing under ``src/`` is edited.  A statement such as
``from .exact_linalg import rank`` binds the function into every importing
module, so a function is replaced in every loaded affsymp module that holds
it.  Methods are replaced on their class.  A wrapper returns exactly what
the wrapped call returns.

Each span records its name, start, end and parent.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter


def _proc_io() -> tuple[int, int, int]:
    """Bytes this process has read and written through system calls, and the
    size of this read of the counters, which the kernel adds to the next
    reading."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        data = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(b": ") for line in data.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(data)


def _nnz_arg(args, result):
    return args[0].nnz


def _nnz_result(args, result):
    return result.nnz


def _length(args, result):
    return len(result)


def _one(args, result):
    return 1


def _hit(args, result):
    return int(result is not None)


def _miss(args, result):
    return int(result is None)


# (module, attribute path, group, {counter: f(args, result)}).  Counting at
# outermost spans only makes DiffCache.get_vectors, which calls get_matrix,
# one lookup.
TARGETS = [
    ("exact_linalg", "rank", "rank",
     {"exact_linalg.rank_calls": _one, "exact_linalg.rank_nnz": _nnz_arg}),
    ("exact_linalg", "multiply", "multiply",
     {"exact_linalg.multiply_calls": _one, "exact_linalg.multiply_nnz": _nnz_result}),
    ("exact_linalg", "kernel_basis", "kernel_basis", {"exact_linalg.kernel_dim": _length}),
    ("exact_linalg", "SparseMatrix.fingerprint", "fingerprint", {}),
    ("chain_complexes", "ChainComplex.verify_dd_zero", "dd_check", {}),
    ("chain_complexes", "rel_complex", "kernel_complex", {}),
    ("chain_complexes", "cr_complex", "kernel_complex", {}),
    ("chain_complexes", "ce_d", "assemble", {"chain_complexes.assemble_nnz": _nnz_result}),
    ("chain_complexes", "leibniz_d", "assemble", {"chain_complexes.assemble_nnz": _nnz_result}),
    ("chain_complexes", "coeff_d", "assemble", {"chain_complexes.assemble_nnz": _nnz_result}),
    ("chain_complexes", "wedge_projection", "projection", {}),
    ("chain_complexes", "partial_wedge_projection", "projection", {}),
    ("chain_complexes", "mixed_projection", "projection", {}),
    ("cache", "DiffCache.get_matrix", "cache_read", {"cache.hits": _hit, "cache.misses": _miss}),
    ("cache", "DiffCache.get_rank", "cache_read", {"cache.hits": _hit, "cache.misses": _miss}),
    ("cache", "DiffCache.get_vectors", "cache_read", {"cache.hits": _hit, "cache.misses": _miss}),
    ("cache", "DiffCache.put_matrix", "cache_write", {}),
    ("cache", "DiffCache.put_rank", "cache_write", {}),
    ("cache", "DiffCache.put_vectors", "cache_write", {}),
    ("homology", "betti", "betti", {}),
    ("homology", "cobetti", "betti", {}),
    ("homology", "homology_reps", "reps", {}),
    ("homology", "class_coordinates", "reps", {}),
    ("homology", "is_cycle", "reps", {}),
    ("homology", "is_boundary", "reps", {}),
    ("invariants", "invariant_subspace", "invariants", {}),
    ("invariants", "omega", "invariants", {}),
    ("invariants", "omega_power", "invariants", {}),
    ("invariants", "omega_tilde", "invariants", {}),
    ("invariants", "standard_modules", "invariants", {}),
    ("invariants", "invariant_dimension_report", "invariants", {}),
    ("lie_structures", "build_sp", "lie", {}),
    ("lie_structures", "build_I", "lie", {}),
    ("lie_structures", "build_g", "lie", {}),
    ("lie_structures", "validate_lie", "lie", {}),
    ("lie_structures", "adjoint_module", "lie", {}),
    ("lie_structures", "trivial_module", "lie", {}),
    ("lie_structures", "restriction_module", "lie", {}),
    ("lie_structures", "submodule", "lie", {}),
    ("lie_structures", "exterior_power_module", "lie", {}),
    ("lie_structures", "tensor_module", "lie", {}),
]

# Cache byte counts come from the process's own I/O counters around each
# outermost cache span.
IO_GROUPS = {"cache_read": "cache.bytes_read", "cache_write": "cache.bytes_written"}

# metric -> (group, "self" or "incl")
TIMES = {
    "exact_linalg.rank_s": ("rank", "self"),
    "exact_linalg.multiply_s": ("multiply", "self"),
    "exact_linalg.kernel_basis_s": ("kernel_basis", "self"),
    "exact_linalg.fingerprint_s": ("fingerprint", "incl"),
    "chain_complexes.dd_check_s": ("dd_check", "incl"),
    "chain_complexes.kernel_complex_s": ("kernel_complex", "incl"),
    "chain_complexes.kernel_complex_self_s": ("kernel_complex", "self"),
    "chain_complexes.assemble_s": ("assemble", "self"),
    "chain_complexes.projection_s": ("projection", "self"),
    "cache.read_s": ("cache_read", "self"),
    "cache.write_s": ("cache_write", "self"),
    "homology.betti_s": ("betti", "incl"),
    "homology.reps_s": ("reps", "self"),
    "invariants.report_s": ("invariants", "self"),
    "lie_structures.build_s": ("lie", "self"),
}

COUNTERS = sorted(
    {name for *_, counters in TARGETS for name in counters} | set(IO_GROUPS.values())
)

CLAIM_GROUP = "claim"


class Tracer:
    """In-memory spans; ``spans[i]`` is ``(name, group, start, end, parent,
    outermost)`` with ``parent`` the index of the enclosing span or ``None``
    and ``outermost`` false inside another span of the same group.  Inclusive
    times, counters and cache byte counts are taken at outermost spans only."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def call(self, name: str, group: str, fn, args=(), kwargs=None, counters=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        outermost = not self._open.get(group)
        io_counter = IO_GROUPS.get(group) if outermost else None
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._open[group] = self._open.get(group, 0) + 1
        if io_counter:
            io_before = _proc_io()
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.spans[sid] = (name, group, start, end, parent, outermost)
            self._stack.pop()
            self._open[group] -= 1
        if io_counter:
            read, written, _ = _proc_io()
            if group == "cache_read":
                self.counts[io_counter] += read - io_before[0] - io_before[2]
            else:
                self.counts[io_counter] += written - io_before[1]
        if outermost and counters:
            for counter, measure in counters.items():
                self.counts[counter] += measure(args, result)
        return result

    def _wrap(self, fn, name: str, group: str, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, group, fn, args, kwargs, counters)

        return traced

    def install(self) -> None:
        """Replace every target in every loaded affsymp module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "affsymp" or k.startswith("affsymp."))]
        for module_name, path, group, counters in TARGETS:
            home = sys.modules.get(f"affsymp.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self._wrap(original, f"{module_name}.{path}", group, counters)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer times and counters, the per-claim inclusive times, and
        the share of ``wall_s`` spent in spans below the claims."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_by_group: dict[str, float] = {}
        incl_by_group: dict[str, float] = {}
        covered = 0.0
        claims: dict[str, float] = {}
        for i, (name, group, start, end, parent, outermost) in enumerate(self.spans):
            duration = end - start
            self_by_group[group] = self_by_group.get(group, 0.0) + duration - child_time[i]
            if outermost:
                incl_by_group[group] = incl_by_group.get(group, 0.0) + duration
            if group == CLAIM_GROUP:
                claims[f"theorems.claim_s.{name}"] = duration
            elif parent is not None and self.spans[parent][1] == CLAIM_GROUP:
                covered += duration
        out: dict[str, float] = {}
        for metric, (group, mode) in TIMES.items():
            table = self_by_group if mode == "self" else incl_by_group
            out[metric] = table.get(group, 0.0)
        out.update(self.counts)
        lookups = self.counts["cache.hits"] + self.counts["cache.misses"]
        out["cache.hit_ratio"] = self.counts["cache.hits"] / lookups if lookups else 0.0
        out.update(claims)
        out["trace.span_share"] = covered / wall_s if wall_s > 0 else 0.0
        return out
