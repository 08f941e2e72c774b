"""The Fraction-based sparse rank, product, serialization, reduced echelon
form, kernel basis, solver and greedy cycle reducer that ``exact_linalg``
and ``homology`` used before they computed on integers inside, kept as a
test oracle for the integer core."""

import heapq
from fractions import Fraction

from affsymp.chain_complexes import Chain
from affsymp.errors import DomainError
from affsymp.exact_linalg import QVector
from affsymp.homology import betti


def _sorted_row_dicts(m):
    rows = {}
    for r, c, v in m.iter_entries():
        rows.setdefault(r, {})[c] = Fraction(v)
    return rows


def fraction_rank(m):
    """Fraction-based Gaussian elimination on a heap of (count, column)
    entries.  It is pushed on every change of a count but not when the
    pivot row retires from a column, so a pivot may have more live entries
    than the Markowitz minimum the integer core takes; only its rank is
    compared."""
    rows = {r: dict(d) for r, d in _sorted_row_dicts(m).items() if d}
    col_rows = {}
    for r, d in rows.items():
        for c in d:
            col_rows.setdefault(c, set()).add(r)
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, c = heapq.heappop(heap)
        live = col_rows.get(c)
        if not live:
            col_rows.pop(c, None)
            continue
        if len(live) != count:
            heapq.heappush(heap, (len(live), c))
            continue
        pivot_row = min(live, key=lambda r: (len(rows[r]), r))
        prow = rows.pop(pivot_row)
        pval = prow[c]
        rank += 1
        for cc in prow:
            s = col_rows.get(cc)
            if s is not None:
                s.discard(pivot_row)
                if not s:
                    del col_rows[cc]
        targets = [r for r in sorted(live) if r != pivot_row and r in rows]
        col_rows.pop(c, None)
        for r in targets:
            row = rows[r]
            a = row.pop(c, None)
            if a is None:
                continue
            f = a / pval
            for cc, pv in prow.items():
                if cc == c:
                    continue
                cur = row.get(cc)
                if cur is None:
                    row[cc] = -f * pv
                    s = col_rows.setdefault(cc, set())
                    s.add(r)
                    heapq.heappush(heap, (len(s), cc))
                else:
                    nv = cur - f * pv
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                        s = col_rows.get(cc)
                        if s is not None:
                            s.discard(r)
                            heapq.heappush(heap, (len(s), cc))
            if not row:
                del rows[r]
    return rank


def fraction_product(a, b):
    """{(row, col): Fraction} of a @ b by the column-by-column Fraction loop."""
    a_cols = {}
    for (r, k), v in sorted(a.entries.items(), key=lambda t: (t[0][1], t[0][0])):
        a_cols.setdefault(k, []).append((r, Fraction(v)))
    b_cols = {}
    for (k, j), v in sorted(b.entries.items(), key=lambda t: (t[0][1], t[0][0])):
        b_cols.setdefault(j, []).append((k, Fraction(v)))
    ents = {}
    for j in range(b.cols):
        acc = {}
        for k, bv in b_cols.get(j, ()):
            for r, av in a_cols.get(k, ()):
                nv = acc.get(r, Fraction(0)) + av * bv
                if nv:
                    acc[r] = nv
                else:
                    del acc[r]
        for r, v in acc.items():
            ents[(r, j)] = v
    return ents


def rational_to_string(value):
    """Canonical "p/q" form, denominator always written."""
    q = Fraction(value)
    return f"{int(q.numerator)}/{int(q.denominator)}"


def matrix_text(m):
    """Header "rows cols nnz", then "row col num/den" per entry, row-major."""
    lines = [f"{m.rows} {m.cols} {m.nnz}"]
    for r, c, v in m.iter_entries():
        lines.append(f"{r} {c} {rational_to_string(v)}")
    return "\n".join(lines) + "\n"


def _rref_rows(rows_in):
    """Canonical reduced row echelon form of the span of the given rows.

    Returns (pivot_cols, {pivot_col: row}) where pivot columns are the
    leftmost possible ones, each pivot value is 1 and pivot columns are
    cleared in every other row.  The output is the unique RREF basis of the
    row space, independent of input order.
    """
    pivots = {}
    col_index = {}  # column -> leads of pivot rows using it

    def reduce(row):
        # cancel leading entries while they keep hitting pivot columns
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            f = row[lead]
            for c, v in prow.items():
                nv = row.get(c, Fraction(0)) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        # clear pivot columns sitting beyond the lead; pivot rows hold no
        # other pivot columns, so one sweep cannot reintroduce any
        hits = [c for c in row if c in pivots]
        while hits:
            for c in hits:
                f = row.get(c)
                if not f:
                    continue
                for cc, v in pivots[c].items():
                    nv = row.get(cc, Fraction(0)) - f * v
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            hits = [c for c in row if c in pivots]
        return row

    for raw in rows_in:
        row = reduce(dict(raw))
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        # clear the new pivot column from the pivot rows that contain it
        for p in list(col_index.get(lead, ())):
            prow = pivots[p]
            f = prow.get(lead)
            if f is None:
                continue
            for c, v in row.items():
                nv = prow.get(c, Fraction(0)) - f * v
                if nv:
                    if c not in prow:
                        col_index.setdefault(c, set()).add(p)
                    prow[c] = nv
                else:
                    if c in prow:
                        del prow[c]
                        used = col_index.get(c)
                        if used is not None:
                            used.discard(p)
        pivots[lead] = row
        for c in row:
            col_index.setdefault(c, set()).add(lead)
    return sorted(pivots), pivots


def kernel_basis(m):
    """The reduced echelon basis of the right null space, from the RREF of
    the rows and a second RREF of the raw kernel vectors."""
    pivot_cols, pivot_rows = _rref_rows(_sorted_row_dicts(m).values())
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    by_free_col = {}
    for p in pivot_cols:
        for c, v in pivot_rows[p].items():
            if c != p:
                by_free_col.setdefault(c, []).append((p, v))
    raw = []
    for f in free_cols:
        vec = {f: Fraction(1)}
        for p, coeff in by_free_col.get(f, ()):
            vec[p] = -coeff
        raw.append(vec)
    _, kernel_pivots = _rref_rows(raw)
    return [QVector.from_dict(m.cols, kernel_pivots[p]) for p in sorted(kernel_pivots)]


class LinearSolver:
    """Solves A x = b from the Fraction RREF of [A | I]."""

    def __init__(self, a):
        self.matrix = a
        rows = _sorted_row_dicts(a)
        augmented = []
        for r in range(a.rows):
            row = dict(rows.get(r, {}))
            row[a.cols + r] = Fraction(1)
            augmented.append(row)
        self._pivot_cols, self._pivot_rows = _rref_rows(augmented)
        self._cols = a.cols

    def solve(self, b):
        """One exact solution (free variables 0), None if inconsistent."""
        coords = {}
        for p in self._pivot_cols:
            prow = self._pivot_rows[p]
            val = Fraction(0)
            for r, v in b.entries:
                f = prow.get(self._cols + r)
                if f is not None:
                    val += f * v
            if val == 0:
                continue
            if p >= self._cols:
                return None
            coords[p] = val
        return QVector.from_dict(self._cols, coords)


def _columns_of(m):
    """The columns of m as {row: Fraction}; the entries of m are ``int``s
    where they are integral."""
    cols = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = Fraction(v)
    return cols


def _reduce_into(reducer, vec):
    """Gaussian reducer over leading indices; inserts the residue when
    nonzero and returns it."""
    while vec:
        lead = min(vec)
        pivot = reducer.get(lead)
        if pivot is None:
            inv = 1 / vec[lead]
            vec = {i: v * inv for i, v in vec.items()}
            reducer[lead] = vec
            return vec
        f = vec[lead]
        for i, v in pivot.items():
            nv = vec.get(i, Fraction(0)) - f * v
            if nv:
                vec[i] = nv
            else:
                vec.pop(i, None)
    return {}


def greedy_cycles(bounding, cycles, target):
    """The cycles kept, in order, while they enlarge the span of the
    boundary columns and of the cycles kept before, up to ``target``."""
    reducer = {}
    for col in _columns_of(bounding):
        if col:
            _reduce_into(reducer, col)
    kept = []
    for vec in cycles:
        if _reduce_into(reducer, vec.to_dict()):
            kept.append(vec)
            if len(kept) == target:
                break
    if len(kept) != target:
        raise DomainError(f"found {len(kept)} independent cycles, expected {target}")
    return kept


def block_homology_reps(complex_, k):
    """``homology.homology_reps`` as the greedy reducer computed it on the
    weight-0 block, with the Fraction kernel basis."""
    target = betti(complex_, k)
    if target == 0:
        return []
    zero = complex_.zero_weight
    bounding = complex_.block(k + 1)
    if k == 0:
        cycles = [QVector.unit(bounding.rows, i) for i in range(bounding.rows)]
    else:
        cycles = kernel_basis(complex_.block(k))
    return [
        Chain(k, complex_.from_block(k, zero, vec).normalized())
        for vec in greedy_cycles(bounding, cycles, target)
    ]
