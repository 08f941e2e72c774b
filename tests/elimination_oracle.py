"""The elimination loop ``exact_linalg._eliminate`` ran before its heap
pushed only when a column count fell, kept verbatim as a test oracle.

It pushes a heap entry on every change of a column count and none when the
pivot row retires from a column, so its Markowitz pivots can lag behind
the true minimum; its results (rank, and every leftmost elimination) are
the same.  Swap it in for the current loop with ``old_loop()``.

The current loop takes one flag, ``leftmost``, for the lowest column first
with Gauss-Jordan clearing; this one takes that rule as two flags,
``leftmost`` and ``reduce``, and ``old_loop`` maps the one onto the two.
"""

import heapq
from contextlib import contextmanager
from math import gcd
from unittest import mock

from affsymp import exact_linalg
from affsymp.exact_linalg import check_entry_budget


@contextmanager
def old_loop():
    """Every elimination of ``exact_linalg`` inside the block runs on the
    old loop."""
    with mock.patch.object(exact_linalg, "_eliminate", _one_flag):
        yield


def _one_flag(rows, cap=None, leftmost=False):
    return _eliminate(rows, cap, leftmost=leftmost, reduce=leftmost)


def _eliminate(
    rows: dict[int, dict[int, int]],
    cap: int | None = None,
    leftmost: bool = False,
    reduce: bool = False,
) -> dict[int, int]:
    """Fraction-free integer Gaussian elimination; consumes ``rows``.
    Returns {pivot column: pivot row} in pivot order; its size is the rank.

    The pivot rule is the caller's:

    * Markowitz (the default): the column with fewest active entries is
      eliminated first (ties to the lowest column index).  Columns with a
      single entry retire a row with no arithmetic at all, which removes
      most of the work on differential matrices.
    * ``leftmost``: the lowest column first.  The pivot columns are then
      those outside the span of the columns before them.

    Pivot rows are dropped as they retire.  With ``reduce`` (leftmost only)
    they are kept in ``rows`` instead, and each pivot column is cleared from
    the earlier pivot rows as well (Gauss-Jordan): the rows left are the
    unique reduced echelon form of the row space, each up to a nonzero
    factor.

    Either way the pivot row is the one with the fewest entries (ties to
    the lowest row index), so the result never depends on entry insertion
    order.  A target row with entry a under the pivot p becomes
    (p/g) row - (a/g) pivot_row with g = gcd(a, p), which keeps it integral
    and its support exactly that of the rational update; when p/g is not 1
    the row is divided by the gcd of its entries.  The live entry count is
    checked against ``cap`` once per pivot step.
    """
    col_rows: dict[int, set[int]] = {}
    live = 0
    for r, d in rows.items():
        live += len(d)
        for c in d:
            s = col_rows.get(c)
            if s is None:
                col_rows[c] = {r}
            else:
                s.add(r)
    # heap keys count * weight + c order columns by (count, c) for
    # Markowitz, by c alone when the weight is 0
    width = max(col_rows, default=0) + 1
    weight = 0 if leftmost else width
    heap = [len(rs) * weight + c for c, rs in col_rows.items()]
    heapq.heapify(heap)
    push = heapq.heappush
    pivots: dict[int, int] = {}
    kept: set[int] = set()  # the pivot rows, with reduce
    while heap:
        count, c = divmod(heapq.heappop(heap), width)
        pivot_col = col_rows.get(c)
        if not pivot_col:
            col_rows.pop(c, None)
            continue
        if weight and len(pivot_col) != count:
            push(heap, len(pivot_col) * weight + c)  # stale entry, reinsert
            continue
        if reduce:
            # kept rows hold c beyond their pivots; the active ones start at c
            active = [r for r in pivot_col if r not in kept]
            if not active:
                del col_rows[c]  # a free column
                continue
            pivot_row = min(active, key=lambda r: (len(rows[r]), r))
            kept.add(pivot_row)
            prow = rows[pivot_row]
            p = prow[c]
            pivot_items = [(cc, v) for cc, v in prow.items() if cc != c]
        else:
            pivot_row = min(pivot_col, key=lambda r: (len(rows[r]), r))
            prow = rows.pop(pivot_row)
            live -= len(prow)
            for cc in prow:
                s = col_rows.get(cc)
                if s is not None:
                    s.discard(pivot_row)
                    if not s:
                        del col_rows[cc]
            p = prow.pop(c)
            pivot_items = list(prow.items())
        pivots[c] = pivot_row
        targets = [r for r in sorted(pivot_col) if r != pivot_row and r in rows]
        col_rows.pop(c, None)
        for r in targets:
            row = rows[r]
            a = row.pop(c, None)
            if a is None:
                continue
            live -= len(row) + 1
            g = gcd(a, p)
            scale, f = p // g, a // g
            if scale < 0:
                scale, f = -scale, -f
            if scale != 1:
                row = rows[r] = {cc: v * scale for cc, v in row.items()}
            for cc, pv in pivot_items:
                cur = row.get(cc)
                if cur is None:
                    row[cc] = -f * pv
                    s = col_rows.get(cc)
                    if s is None:
                        s = col_rows[cc] = set()
                    s.add(r)
                    push(heap, len(s) * weight + cc)
                else:
                    nv = cur - f * pv
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                        s = col_rows.get(cc)
                        if s is not None:
                            s.discard(r)
                            push(heap, len(s) * weight + cc)
            if not row:
                del rows[r]
                continue
            if scale != 1:
                content = gcd(*row.values())
                if content != 1:
                    for cc in row:
                        row[cc] //= content
            live += len(row)
        check_entry_budget(live, cap)
    return pivots
