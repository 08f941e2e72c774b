"""Betti numbers, representative cycles and membership tests for any built
chain complex; cohomology dimensions via independently eliminated transposes.

Over a field, b_k = dim C_k - rank d_k - rank d_(k+1).  At the cap degree
d_(cap+1) is not available, so the reported value is only an upper bound and
is flagged as inexact.

Everything here runs on Cartan weight blocks, never on a full matrix.  Each
block is a direct summand of the complex and every block of nonzero weight
is acyclic (see ``chain_complexes``), so a chain is a cycle iff each of its
weight components is, its weight-0 component is a boundary iff it is one in
the weight-0 block, and a component of nonzero weight is a boundary iff it
is a cycle.  Representatives are weight-0 cycles, mapped back to full
indices through their words; both orders are lexicographic.  Chains of the
kernel complexes are vectors of the ambient space; one outside the kernel
is neither a cycle nor a boundary.
"""

from __future__ import annotations

import json

from .chain_complexes import Chain, ChainComplex
from .errors import DegreeRangeError, DomainError, ShapeError
from .exact_linalg import (
    QVector,
    QZERO,
    Rational,
    SparseMatrix,
    append_columns,
    independent_columns,
    kernel_basis,
    rational_to_string,
    solve,
)


def betti(complex_: ChainComplex, k: int) -> int:
    """dim ker d_k - rank d_(k+1); at k = cap the subtraction is skipped and
    the value is an upper bound only."""
    complex_.check_degree(k)
    kernel_dim = complex_.dim(k) - complex_.rank_d(k)
    if k == complex_.cap:
        return kernel_dim
    return kernel_dim - complex_.rank_d(k + 1)


def betti_is_exact(complex_: ChainComplex, k: int) -> bool:
    return k < complex_.cap


def cobetti(complex_: ChainComplex, k: int) -> int:
    """Betti number of the transposed differentials.  The transposes are
    eliminated independently, each cleared only with the pivots of the
    transposed elimination one degree below and never with those of the
    ranks ``betti`` uses, so over the rationals this re-derives betti
    along a genuinely different pivot path."""
    complex_.check_degree(k)
    kernel_dim = complex_.dim(k) - complex_.rank_d_transposed(k)
    if k == complex_.cap:
        return kernel_dim
    return kernel_dim - complex_.rank_d_transposed(k + 1)


def _components(complex_: ChainComplex, chain: Chain) -> dict | None:
    complex_.check_degree(chain.degree)
    if chain.vector.length != len(complex_.basis(chain.degree)):
        raise ShapeError("chain length does not match the degree dimension")
    return complex_.components(chain)


def _block_cycle(complex_: ChainComplex, k: int, weight, part: QVector) -> bool:
    return k == 0 or complex_.block(k, weight).apply(part).is_zero


def is_cycle(complex_: ChainComplex, chain: Chain) -> bool:
    """True iff every weight component of the chain is a cycle in its
    block: d(chain) = 0, and for a kernel complex also pi(chain) = 0.  Every
    degree-0 chain is a cycle."""
    k = chain.degree
    parts = _components(complex_, chain)
    return parts is not None and all(
        _block_cycle(complex_, k, weight, part) for weight, part in parts.items()
    )


def is_boundary(complex_: ChainComplex, chain: Chain) -> bool:
    """True iff the chain lies in the image of d_(degree+1).  The weight-0
    component is one iff d_(degree+1) x = component has an exact solution
    on the weight-0 block; a component of nonzero weight lies in an acyclic
    block, so it is a boundary iff it is a cycle."""
    k = chain.degree
    if k + 1 > complex_.cap:
        raise DegreeRangeError(f"boundary test at degree {k} needs d_{k + 1}")
    zero = complex_.zero_weight
    parts = _components(complex_, chain)
    if parts is None:
        return False
    for weight, part in parts.items():
        if weight == zero:
            bounded = solve(complex_.block(k + 1), part, complex_.blocks.entry_cap) is not None
        else:
            bounded = _block_cycle(complex_, k, weight, part)
        if not bounded:
            return False
    return True


def homology_reps(complex_: ChainComplex, k: int) -> list[Chain]:
    """b_k cycles, pairwise independent modulo boundaries, each normalized so
    its first nonzero coordinate is +1.  The homology lies in the weight-0
    block, so they are found there, deterministically: kernel vectors of
    the block taken in canonical order and kept greedily when they enlarge
    the span of its boundary columns and of the cycles kept before.  At the
    cap there is no d_(k+1) to tell cycles from boundaries, so that degree
    raises.  Eliminations are held to the entry cap of the complex's memo.

    Every boundary is a cycle, so the choice is made on the rows at the
    free columns of the cycle basis alone (``_on_free_rows``)."""
    complex_.check_degree(k)
    if k == complex_.cap:
        raise DegreeRangeError(
            f"representatives at degree {k} need d_{k + 1}, beyond the cap of {complex_.name}"
        )
    target = betti(complex_, k)
    if target == 0:
        return []
    zero = complex_.zero_weight
    bounding = complex_.block(k + 1)
    if k == 0:
        cycles = [QVector.unit(bounding.rows, i) for i in range(bounding.rows)]
    else:
        cycles = kernel_basis(complex_.block(k), complex_.blocks.entry_cap)
    # the greedy choice: pivot columns of [boundaries | cycles] past the boundaries
    bordered = _on_free_rows(bounding, cycles)
    reps = [
        Chain(k, complex_.from_block(k, zero, cycles[c - bounding.cols]).normalized())
        for c in independent_columns(bordered, complex_.blocks.entry_cap)
        if c >= bounding.cols
    ]
    if len(reps) != target:
        raise DomainError(
            f"found {len(reps)} independent cycles, expected {target}"
        )
    return reps


def _on_free_rows(bounding: SparseMatrix, cycles: list[QVector]) -> SparseMatrix:
    """[boundaries | cycles] on the rows at the free columns of the reduced
    echelon cycle basis, in its order.  A cycle is 1 at its own free column
    and 0 at the others, so ker d_k maps one-to-one onto these coordinates;
    the boundaries lie in ker d_k, so every linear relation among the
    columns survives, and the cycles' rows are the identity."""
    free = {v.entries[0][0]: i for i, v in enumerate(cycles)}
    entries = {(free[r], c): v for (r, c), v in bounding.entries.items() if r in free}
    for i in range(len(cycles)):
        entries[(i, bounding.cols + i)] = 1
    return SparseMatrix._of(len(cycles), bounding.cols + len(cycles), entries)


def class_coordinates(
    complex_: ChainComplex, chain: Chain, reps: list[Chain]
) -> list[Rational] | None:
    """Coordinates of the chain's homology class against representative
    cycles, or None when the chain is not in their span modulo boundaries.
    Components of nonzero weight are boundaries when they are cycles, so
    only the weight-0 components of the chain and of the representatives
    enter the one exact solve against [boundaries | representatives], whose
    coordinates past the boundaries are the answer; a representative that
    is not a cycle raises."""
    k = chain.degree
    if k + 1 > complex_.cap:
        raise DegreeRangeError("class reduction needs the next differential")
    zero = complex_.zero_weight
    parts = _components(complex_, chain)
    if any(rep.degree != k or not is_cycle(complex_, rep) for rep in reps):
        raise DomainError(f"representatives must be cycles of degree {k}")
    if parts is None or any(
        weight != zero and not _block_cycle(complex_, k, weight, part)
        for weight, part in parts.items()
    ):
        return None
    bounding = complex_.block(k + 1)
    rows = bounding.rows
    stacked = append_columns(
        bounding, (complex_.components(r).get(zero, QVector.zero(rows)) for r in reps)
    )
    solution = solve(stacked, parts.get(zero, QVector.zero(rows)), complex_.blocks.entry_cap)
    if solution is None:
        return None
    coords = [QZERO] * len(reps)
    for i, v in solution.entries:
        if i >= bounding.cols:
            coords[i - bounding.cols] = v
    return coords


def is_homologous(complex_: ChainComplex, a: Chain, b: Chain) -> bool:
    """True iff a - b is a boundary."""
    if a.degree != b.degree:
        raise DomainError("chains must share a degree")
    return is_boundary(complex_, a.sub(b))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class DegreeRecord:
    def __init__(
        self,
        degree: int,
        dim: int,
        rank_d: int,
        rank_d_next: int | None,
        betti: int,
        exact: bool,
        cycles: list[dict] | None = None,
    ):
        self.degree = degree
        self.dim = dim
        self.rank_d = rank_d
        self.rank_d_next = rank_d_next
        self.betti = betti
        self.exact = exact
        self.cycles = cycles


class HomologyReport:
    """Per-degree rank bookkeeping for one complex."""

    def __init__(self, complex_id: str, kind: str):
        self.complex_id = complex_id
        self.kind = kind
        self.rows: list[DegreeRecord] = []

    def to_json_dict(self) -> dict:
        return {
            "report": "homology",
            "complex": self.complex_id,
            "kind": self.kind,
            "rows": [
                {
                    "degree": r.degree,
                    "dim": r.dim,
                    "rank_d": r.rank_d,
                    "rank_d_next": r.rank_d_next,
                    "betti": r.betti,
                    "exact": r.exact,
                    **({"cycles": r.cycles} if r.cycles is not None else {}),
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["degree,dim,rank_d,rank_d_next,betti"]
        for r in self.rows:
            nxt = "" if r.rank_d_next is None else str(r.rank_d_next)
            lines.append(f"{r.degree},{r.dim},{r.rank_d},{nxt},{r.betti}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"homology of {self.complex_id} ({self.kind})"]
        header = f"{'deg':>4} {'dim':>8} {'rank_d':>8} {'rank_d+':>8} {'betti':>6}"
        lines.append(header)
        for r in self.rows:
            nxt = "-" if r.rank_d_next is None else str(r.rank_d_next)
            mark = "" if r.exact else "  (upper bound)"
            lines.append(
                f"{r.degree:>4} {r.dim:>8} {r.rank_d:>8} {nxt:>8} {r.betti:>6}{mark}"
            )
            for cycle in r.cycles or ():
                parts = []
                for index, value in cycle["coefficients"]:
                    coeff = value[:-2] if value.endswith("/1") else value
                    label = cycle["labels"][str(index)]
                    parts.append(label if coeff == "1" else f"{coeff}*{label}")
                lines.append("     cycle: " + " + ".join(parts))
        return "\n".join(lines)


def homology_report(
    complex_: ChainComplex, max_degree: int, emit_cycles: bool = False
) -> HomologyReport:
    """Rows for degrees 0..max_degree; each row records the rank bookkeeping
    b_k = dim - rank d_k - rank d_(k+1) and whether it is exact at the cap."""
    complex_.check_degree(max_degree)
    report = HomologyReport(complex_id=complex_.name, kind=complex_.kind)
    for k in range(max_degree + 1):
        exact = betti_is_exact(complex_, k)
        rank_next = complex_.rank_d(k + 1) if exact else None
        b = betti(complex_, k)
        cycles = None
        if emit_cycles and exact and b:
            basis = complex_.basis(k)
            cycles = []
            for rep in homology_reps(complex_, k):
                cycles.append(
                    {
                        "degree": k,
                        "coefficients": [
                            [i, rational_to_string(v)] for i, v in rep.vector.entries
                        ],
                        "labels": {
                            str(i): basis.label(i) for i, _ in rep.vector.entries
                        },
                    }
                )
        report.rows.append(
            DegreeRecord(
                degree=k,
                dim=complex_.dim(k),
                rank_d=complex_.rank_d(k),
                rank_d_next=rank_next,
                betti=b,
                exact=exact,
                cycles=cycles,
            )
        )
    return report
