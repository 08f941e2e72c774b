"""The Fraction-based sparse rank, product and serialization that
``exact_linalg`` used before it computed on integers inside, kept
as a test oracle for the integer core."""

import heapq
from fractions import Fraction


def _sorted_row_dicts(m):
    rows = {}
    for r, c, v in m.iter_entries():
        rows.setdefault(r, {})[c] = Fraction(v)
    return rows


def fraction_rank(m):
    """Fraction-based Gaussian elimination with the same Markowitz pivot
    rule as the integer core."""
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
