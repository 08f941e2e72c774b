"""Exact sparse linear algebra over the rationals.

Everything downstream (differentials, invariant subspaces, Betti numbers,
representative cycles) reduces to ``rank``, ``kernel_basis``,
``independent_columns``, ``LinearSolver``, ``multiply``, ``stack_rows`` and
``products_cancel``, the test that a sum of products is zero (d o d = 0,
chain maps, module laws), all computed in exact rational arithmetic.

A matrix entry is held in one normal form: a Python ``int`` when it is
integral, a reduced ``fractions.Fraction`` with positive denominator
otherwise, so equality is exact and serialization is canonical.  Every
differential and projection here is integral, so its entries never become
``Fraction``s.  Vectors (``QVector``), kernel vectors, solutions and the
scalars the API takes are ``Fraction``s.  Inside, everything computes on
``int``s: a matrix is split as an integer matrix and diagonal denominators
(rows scaled by the lcm of their denominators for an elimination and for
the left factor of a product, columns for the right factor, the whole
matrix for ``products_cancel``), and only ``Fraction`` entries add to those
lcms, so rationals appear only where values enter and leave.

There is one elimination loop, ``_eliminate``: fraction-free (Bareiss
1968; Dumas, Saunders and Villard 2001 for the sparse integer case),
removing a row's content gcd after a scaled update.  ``rank`` runs it with
Markowitz pivots, the column with the fewest live entries first, but takes
a row with one live entry, which costs no arithmetic, before any column
with more than one; two lazy heaps, one of columns by count and one of
such rows, keep that choice exact.  It ranks a transpose, and a matrix
without the rows a caller clears, without forming either, and hands back
the pivots with which ``ChainComplex`` clears the next differential.
Kernels and solves run it leftmost column first with Gauss-Jordan
clearing, which yields the unique reduced echelon form.  Independent
columns run it leftmost column first without clearing, as whether a column
is a pivot does not depend on it.

Every matrix is held to a nonzero-entry budget (``check_entry_budget``):
inputs, stacks and products when they are formed, and the live entries of
an elimination once per pivot step, so fill-in aborts with
``ResourceLimitError`` instead of growing memory.

All public objects are immutable values: operations are pure functions and
safe to call concurrently on distinct inputs.  Elimination is sequential and
deterministic: results depend only on the matrix, never on entry insertion
order or scheduling.
"""

from __future__ import annotations

import heapq
import json
import operator
import re
from collections.abc import Collection, Iterable, Iterator, Mapping
from fractions import Fraction as Rational
from math import gcd, lcm

from .errors import ResourceLimitError, ShapeError

# SHA-256 from CPython's built-in module, as ``random`` does: ``hashlib``
# loads OpenSSL's libcrypto, several MB resident, for the same digest.  The
# module is ``_sha256`` up to 3.11 and ``_sha2`` from 3.12; ``hashlib`` is
# the fallback for a build without either.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

QZERO = Rational(0)
QONE = Rational(1)

# Nonzero-entry budget: any matrix (input, stacked, or product), and the live
# entries of an elimination, above this abort instead of thrashing.
# Tensor-power dimensions grow as dim**k.
DEFAULT_ENTRY_CAP = 10_000_000

# ``to_text`` writes every number without a sign (but a numerator's minus)
# or a leading zero, one space apart, every value "num/den" with den >= 1,
# and a newline after every line.  ``_from_canonical_text`` proves a body
# of that form by its separator skeleton (``_NUMBER_BYTES`` deleted) and
# one ``json.loads`` of it with the separators made commas: a canonical
# line "row col num/den\n" is four JSON ints.
_CANONICAL_HEADER = re.compile(r"(0|[1-9][0-9]*) (0|[1-9][0-9]*) (0|[1-9][0-9]*)\n")
_NUMBER_BYTES = b"0123456789-"
_SEPARATORS_TO_COMMAS = bytes.maketrans(b" /\n", b",,,")


def rational_from_string(text: str) -> Rational:
    """Parse "p" or "p/q" in base 10."""
    num, _, den = text.partition("/")
    return Rational(int(num), int(den)) if den and den != "1" else Rational(int(num))


def rational_to_string(value) -> str:
    """Canonical "p/q" form, denominator always written."""
    q = Rational(value)
    return f"{q.numerator}/{q.denominator}"


def normal_entry(value) -> int | Rational:
    """A matrix entry in normal form: an ``int`` when it is integral, a
    reduced ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    q = value if type(value) is Rational else Rational(value)
    return q.numerator if q.denominator == 1 else q


def check_entry_budget(count: int, cap: int | None = None) -> None:
    limit = DEFAULT_ENTRY_CAP if cap is None else cap
    if count > limit:
        raise ResourceLimitError(
            f"matrix would hold about {count} nonzero entries, over the cap {limit}"
        )


class QVector:
    """Sparse exact vector: entries are (index, value), strictly increasing
    indices, no zero values.  An immutable value: equal to a ``QVector`` of
    the same length and entries, and hashable."""

    __slots__ = ("length", "entries")

    def __init__(self, length: int, entries: tuple[tuple[int, Rational], ...]):
        self.length = length
        self.entries = entries

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.length == other.length and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.length, self.entries))

    def __repr__(self) -> str:
        return f"QVector(length={self.length!r}, entries={self.entries!r})"

    @classmethod
    def from_dict(cls, length: int, values: Mapping[int, Rational]) -> "QVector":
        ents = tuple(
            (i, Rational(v)) for i, v in sorted(values.items()) if v != 0
        )
        for i, _ in ents:
            if not 0 <= i < length:
                raise ShapeError(f"index {i} out of range for length {length}")
        return cls(length, ents)

    @classmethod
    def from_dense(cls, values: Iterable) -> "QVector":
        vals = [Rational(v) for v in values]
        return cls(len(vals), tuple((i, v) for i, v in enumerate(vals) if v != 0))

    @classmethod
    def unit(cls, length: int, index: int) -> "QVector":
        return cls.from_dict(length, {index: QONE})

    @classmethod
    def zero(cls, length: int) -> "QVector":
        return cls(length, ())

    def to_dict(self) -> dict[int, Rational]:
        return dict(self.entries)

    def get(self, index: int) -> Rational:
        for i, v in self.entries:
            if i == index:
                return v
            if i > index:
                break
        return QZERO

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "QVector":
        c = Rational(c)
        if c == 0:
            return QVector(self.length, ())
        return QVector(self.length, tuple((i, v * c) for i, v in self.entries))

    def add(self, other: "QVector") -> "QVector":
        if self.length != other.length:
            raise ShapeError("vector length mismatch")
        acc = self.to_dict()
        for i, v in other.entries:
            nv = acc.get(i, QZERO) + v
            if nv:
                acc[i] = nv
            else:
                acc.pop(i, None)
        return QVector.from_dict(self.length, acc)

    def sub(self, other: "QVector") -> "QVector":
        return self.add(other.scale(-1))

    def normalized(self) -> "QVector":
        """Scaled so the first nonzero coordinate is +1."""
        if not self.entries:
            return self
        return self.scale(QONE / self.entries[0][1])


class SparseMatrix:
    """Immutable sparse rational matrix in triplet form.

    Entries are held as ``{(row, col): value}`` with no explicit zeros; a
    value is an ``int`` exactly when its denominator is 1, and a
    ``Fraction`` otherwise, whatever numbers the constructor was given.
    Iteration order is canonical (row-major).  Do not mutate after
    construction; every operation returns a new matrix.
    """

    __slots__ = ("rows", "cols", "entries", "_col_index", "_fingerprint")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Rational]):
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeError(f"entry ({r},{c}) out of range for {rows}x{cols}")
            if type(v) is not int:
                v = normal_entry(v)
            if v:
                clean[(r, c)] = v
        self._set(rows, cols, clean)

    def _set(self, rows: int, cols: int, clean: dict[tuple[int, int], int | Rational]) -> None:
        check_entry_budget(len(clean))
        self.rows = rows
        self.cols = cols
        self.entries = clean
        self._col_index: dict[int, list[tuple[int, Rational]]] | None = None
        self._fingerprint: str | None = None

    @classmethod
    def _of(
        cls, rows: int, cols: int, clean: dict[tuple[int, int], int | Rational]
    ) -> "SparseMatrix":
        """Wrap entries already known to be in range, nonzero and in normal
        form."""
        m = cls.__new__(cls)
        m._set(rows, cols, clean)
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, rows_list: Iterable[Iterable]) -> "SparseMatrix":
        data = [list(r) for r in rows_list]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        ents = {}
        for r, row in enumerate(data):
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    ents[(r, c)] = v
        return cls(nrows, ncols, ents)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[QVector]) -> "SparseMatrix":
        ents = {}
        ncols = 0
        for c, vec in enumerate(columns):
            ncols += 1
            if vec.length != rows:
                raise ShapeError("column length mismatch")
            for r, v in vec.entries:
                ents[(r, c)] = v
        return cls(rows, ncols, ents)

    # -- basic queries ------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def iter_entries(self) -> Iterator[tuple[int, int, Rational]]:
        """Canonical row-major iteration."""
        for (r, c) in sorted(self.entries):
            yield r, c, self.entries[(r, c)]

    def column(self, c: int) -> list[tuple[int, Rational]]:
        if self._col_index is None:
            idx: dict[int, list[tuple[int, Rational]]] = {}
            for (r, cc), v in sorted(self.entries.items(), key=lambda t: (t[0][1], t[0][0])):
                idx.setdefault(cc, []).append((r, v))
            self._col_index = idx
        return self._col_index.get(c, [])

    def row_dicts(self) -> dict[int, dict[int, Rational]]:
        out: dict[int, dict[int, Rational]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._of(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def apply(self, vec: QVector) -> QVector:
        """Matrix times column vector."""
        if vec.length != self.cols:
            raise ShapeError(f"vector length {vec.length} != cols {self.cols}")
        acc: dict[int, Rational] = {}
        for c, v in vec.entries:
            for r, m in self.column(c):
                nv = acc.get(r, QZERO) + m * v
                if nv:
                    acc[r] = nv
                else:
                    del acc[r]
        return QVector.from_dict(self.rows, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.fingerprint()))

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        return multiply(self, other)

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        """Header "rows cols nnz", then one line "row col num/den" per entry
        in canonical order, base 10."""
        ents = self.entries
        lines = [f"{self.rows} {self.cols} {len(ents)}"]
        for key in sorted(ents):
            v = ents[key]
            if type(v) is int:
                lines.append(f"{key[0]} {key[1]} {v}/1")
            else:
                lines.append(f"{key[0]} {key[1]} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, digest: str | None = None) -> "SparseMatrix":
        """The matrix whose ``to_text`` is exactly ``text``; ``ShapeError``
        on any other text (lines out of order, blank lines, a value not
        written "p/q" in lowest terms, duplicate keys, ...).

        ``digest`` is the SHA-256 of ``text``, as the caller has checked it,
        and becomes the matrix's fingerprint with no serialization."""
        m = cls._from_canonical_text(text)
        if m is None:
            raise ShapeError("not the canonical text of a matrix")
        if digest is not None:
            m._fingerprint = digest
        return m

    @classmethod
    def _from_canonical_text(cls, text: str) -> "SparseMatrix | None":
        """The matrix whose ``to_text`` is exactly ``text``, or None.

        The body is proved canonical in C-level scans of its bytes, with no
        pattern per line:
        * deleting its digits and minus signs leaves "  /\n" once per entry,
          so it has nnz lines of four fields each, and it ends in a newline
          (or is empty when nnz is 0);
        * it holds no "-0";
        * with its separators made commas it is a JSON array of ints, which
          refuses an empty field, a leading zero and an inner minus;
        * no row or column is negative, no denominator below 1 and no value
          0.
        So every field is one the ``to_text`` form allows.  The checks left
        are on whole lists: keys strictly increase, the last row and the
        largest column are in range, and only a denominator other than 1 is
        checked for lowest terms and makes a ``Fraction``."""
        head = _CANONICAL_HEADER.match(text)
        if head is None:
            return None
        rows, cols, nnz = map(int, head.groups())
        body = text[head.end():].encode()
        if (
            body.translate(None, _NUMBER_BYTES) != b"  /\n" * nnz
            or not (body.endswith(b"\n") if nnz else body == b"")
            or b"-0" in body
        ):
            return None
        if not nnz:
            return cls._of(rows, cols, {})
        try:
            numbers = json.loads(b"[" + body[:-1].translate(_SEPARATORS_TO_COMMAS) + b"]")
        except ValueError:
            return None
        columns = numbers[1::4]
        keys = list(zip(numbers[0::4], columns))
        values = numbers[2::4]
        denominators = numbers[3::4]
        if (
            keys[0][0] < 0
            or min(columns) < 0
            or min(denominators) < 1
            or 0 in values
            or keys[-1][0] >= rows
            or max(columns) >= cols
            or not all(map(operator.lt, keys, keys[1:]))
        ):
            return None
        if max(denominators) > 1:
            for i, den in enumerate(denominators):
                if den != 1:
                    if gcd(values[i], den) != 1:
                        return None
                    values[i] = Rational(values[i], den)
        return cls._of(rows, cols, dict(zip(keys, values)))

    def fingerprint(self) -> str:
        """Content hash of the canonical serialization."""
        if self._fingerprint is None:
            self.text_and_fingerprint()
        return self._fingerprint

    def text_and_fingerprint(self) -> tuple[str, str]:
        """``to_text`` and its SHA-256 from one serialization; the digest is
        kept as the fingerprint."""
        text = self.to_text()
        if self._fingerprint is None:
            self._fingerprint = sha256(text.encode()).hexdigest()
        return text, self._fingerprint


# ---------------------------------------------------------------------------
# elimination cores
# ---------------------------------------------------------------------------


def _integer_lines(
    m: SparseMatrix, by: int, scale: int, skip: Collection[int] = ()
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """m with each row (scale=0) or column (scale=1) multiplied by the lcm
    of its denominators, so every entry is an int, grouped by row (by=0) or
    column (by=1) as {line: {index along the line: value}}, leaving out the
    rows ``skip``.  Also returns the lcms that are not 1.  An ``int`` entry
    is read as it is; only the ``Fraction`` entries enter the lcms.  Scaling
    a row or column by a nonzero constant keeps the support and the rank."""
    along = 1 - by
    lines: dict[int, dict[int, int]] = {}
    dens: dict[int, int] = {}
    for key, v in m.entries.items():
        if key[0] in skip:
            continue
        if type(v) is not int:
            dens[key[scale]] = lcm(dens.get(key[scale], 1), v.denominator)
        line = lines.get(key[by])
        if line is None:
            lines[key[by]] = {key[along]: v}
        else:
            line[key[along]] = v
    if dens:  # rebuild with the scaled values
        lines = {}
        for key, v in m.entries.items():
            if key[0] in skip:
                continue
            value = v.numerator * (dens.get(key[scale], 1) // v.denominator)
            lines.setdefault(key[by], {})[key[along]] = value
    return lines, dens


def _eliminate(
    rows: dict[int, dict[int, int]],
    cap: int | None = None,
    leftmost: bool = False,
    reduce: bool = False,
) -> dict[int, int]:
    """Fraction-free integer Gaussian elimination; consumes ``rows``.
    Returns {pivot column: pivot row} in pivot order; its size is the rank.

    The pivot rule is the caller's:

    * Markowitz (the default), with the pivots that cost nothing first
      (the singletons of structured Gaussian elimination: LaMacchia and
      Odlyzko 1990; Dumas and Villard 2002).  Each step takes
      1. the lowest column with one live entry, which retires its row with
         no arithmetic; otherwise
      2. the lowest row with one live entry, which every other row of its
         column only loses, with no scaling, gcd or fill-in; otherwise
      3. the column with the fewest live entries (ties to the lowest
         column index).
      Singleton rows go second: taken before singleton columns, or last
      in first out, they cost more on the Leibniz blocks.
    * ``leftmost``: the lowest column first.  The pivot columns are then
      those outside the span of the columns before them.

    The columns wait in a lazy heap of keys (count, column), count 0 under
    ``leftmost``.  ``low`` holds the key last pushed for each column, and
    for a live column that entry is still in the heap and at or below the
    column's true key.  A column is pushed when it appears, and at the end
    of a pivot step when its count has fallen (a cancellation, or the pivot
    row retiring from it) below ``low``; fill-in only raises counts and
    never pushes.  So no entry at the top is above its column's true key.
    An equal one is exactly the Markowitz minimum.  A lower one is pushed
    again at the true key when it is the latest push, and otherwise
    dropped, since the latest covers the column; so is an entry of a
    column that is gone.  Under Markowitz a second lazy heap holds row
    indices: the rows with one entry at the start, and each row an update
    leaves with one entry.  A popped row is used only if it still has one
    entry; a row that has one again is pushed again.  The loop ends when
    no row is left to pivot on.

    Pivot rows are dropped as they retire.  With ``reduce`` (leftmost only)
    they are kept in ``rows`` instead, and each pivot column is cleared from
    the earlier pivot rows as well (Gauss-Jordan): the rows left are the
    unique reduced echelon form of the row space, each up to a nonzero
    factor.

    Either way, in a column chosen by its count the pivot row is the one
    with the fewest entries (ties to the lowest row index), so the result
    never depends on entry insertion order.  A target row with entry a
    under the pivot p becomes
    (p/g) row - (a/g) pivot_row with g = gcd(a, p), which keeps it integral
    and its support exactly that of the rational update; when p/g is not 1
    the row is divided by the gcd of its entries, and when p is 1 or -1
    there is no gcd to take.  Each target row is updated from the pivot row
    alone, so their order does not matter.  The live entry count is checked
    against ``cap`` before the first pivot step and after each step that
    can add entries; a step on a one-entry row only removes them.
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
    check_entry_budget(live, cap)
    # heap keys count * weight + c order columns by (count, c) for
    # Markowitz, by c alone when the weight is 0
    width = max(col_rows, default=0) + 1
    weight = 0 if leftmost else width
    low = {c: len(rs) * weight + c for c, rs in col_rows.items()}
    heap = list(low.values())
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    # Markowitz only: the rows that had one entry when pushed, lowest first
    singles = [] if leftmost else [r for r, d in rows.items() if len(d) == 1]
    heapq.heapify(singles)
    pivots: dict[int, int] = {}
    kept: set[int] = set()  # the pivot rows, with reduce
    fell: list[int] = []  # columns whose count fell in this step
    while heap and len(rows) > len(kept):  # until every row is a pivot row or gone
        count, c = divmod(heap[0], width)
        pivot_col = col_rows.get(c)
        if not pivot_col:
            pop(heap)
            col_rows.pop(c, None)
            continue
        if weight and len(pivot_col) != count:
            # below the true key: re-push the latest entry, drop an older one
            pop(heap)
            if count * weight + c == low[c]:
                key = low[c] = len(pivot_col) * weight + c
                push(heap, key)
            continue
        pivot_row = None
        if weight and count > 1:
            while singles:  # the lowest row left with one entry, if any
                r = pop(singles)
                if len(rows.get(r, ())) == 1:
                    pivot_row = r
                    c = next(iter(rows[r]))
                    pivot_col = col_rows[c]
                    break
        if pivot_row is None:
            pop(heap)
        # else the heap top stays for the next step, and the entries of the
        # pivot column are dropped when they reach the top
        del col_rows[c]
        if reduce:
            # kept rows hold c beyond their pivots; the active ones start at c
            active = [r for r in pivot_col if r not in kept]
            if not active:
                continue  # a free column
            pivot_row = min(active, key=lambda r: (len(rows[r]), r))
            kept.add(pivot_row)
            prow = rows[pivot_row]
            p = prow[c]
            pivot_items = [(cc, v) for cc, v in prow.items() if cc != c]
        else:
            if pivot_row is None:
                pivot_row = min(pivot_col, key=lambda r: (len(rows[r]), r))
            prow = rows.pop(pivot_row)
            live -= len(prow)
            p = prow.pop(c)
            if weight and not prow:
                # the pivot alone: each other row of the column only loses
                # its entry there, with no scaling and no fill-in
                pivots[c] = pivot_row
                for r in pivot_col:
                    if r != pivot_row:
                        row = rows[r]
                        del row[c]
                        live -= 1
                        if not row:
                            del rows[r]
                        elif len(row) == 1:
                            push(singles, r)
                continue
            for cc in prow:
                s = col_rows[cc]
                s.discard(pivot_row)
                if not s:
                    del col_rows[cc]
                elif weight:
                    fell.append(cc)
            pivot_items = list(prow.items())
        pivots[c] = pivot_row
        unit = p == 1 or p == -1
        for r in pivot_col:
            if r == pivot_row:
                continue
            row = rows[r]
            a = row.pop(c)
            live -= len(row) + 1
            if unit:
                scale, f = 1, a * p
            else:
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
                        col_rows[cc] = {r}
                        low[cc] = weight + cc
                        push(heap, weight + cc)
                    else:
                        s.add(r)
                else:
                    nv = cur - f * pv
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                        s = col_rows[cc]
                        s.discard(r)
                        if not s:
                            del col_rows[cc]
                        elif weight:
                            fell.append(cc)
            if not row:
                del rows[r]
                continue
            if weight and len(row) == 1:
                push(singles, r)
            if scale != 1:
                content = gcd(*row.values())
                if content != 1:
                    for cc in row:
                        row[cc] //= content
            live += len(row)
        for cc in fell:
            s = col_rows.get(cc)
            if s is not None:
                key = len(s) * weight + cc
                if key < low[cc]:
                    low[cc] = key
                    push(heap, key)
        fell.clear()
        check_entry_budget(live, cap)
    return pivots


def _echelon(
    lines: dict[int, dict[int, int]], cap: int | None
) -> list[tuple[int, int, dict[int, int]]]:
    """(pivot column, pivot value, row) of the reduced echelon form of the
    integer rows, by pivot column."""
    pivots = _eliminate(lines, cap, leftmost=True, reduce=True)
    return [(c, lines[r][c], lines[r]) for c, r in pivots.items()]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rank(
    m: SparseMatrix,
    entry_cap: int | None = None,
    transposed: bool = False,
    independent: set[int] | None = None,
    clear: Collection[int] = (),
) -> int:
    """Rank over the rationals (deterministic for a given matrix) of m
    without its rows ``clear``, which the caller knows to be combinations
    of the others, so the rank is that of m.  Raises
    ``ResourceLimitError`` when the live entries of the elimination exceed
    ``entry_cap`` (default ``DEFAULT_ENTRY_CAP``).

    With ``transposed`` it eliminates the columns of m as the rows of its
    transpose, grouped by column with no transpose formed: the same
    elimination as ``rank(m.transpose())``.  The rows ``clear`` are left
    out as the entries are grouped, so no cleared matrix is formed either.
    Given a set ``independent``, it adds ``rank`` columns of m that are
    linearly independent: the pivot columns of the elimination of m, or
    the pivot rows of that of its transpose, which are columns of m.
    Either way the pivot rows and columns meet in a nonsingular
    submatrix."""
    if not m.entries:
        return 0
    side = 1 if transposed else 0
    pivots = _eliminate(_integer_lines(m, side, side, clear)[0], entry_cap)
    if independent is not None:
        independent.update(pivots.values() if transposed else pivots)
    return len(pivots)


def kernel_basis(m: SparseMatrix, entry_cap: int | None = None) -> list[QVector]:
    """Canonical basis of the right null space {v : m v = 0}.

    The returned vectors, stacked as rows, form the unique reduced echelon
    basis of the kernel: each vector's first nonzero coordinate is +1, sits in
    a column where every other basis vector is 0, and vectors are ordered by
    that pivot column.

    It is read off one elimination of m with its columns reversed, whose
    pivots are the rightmost possible: a row R_p with pivot column p holds
    no other pivot column and otherwise only free columns f < p, so the
    vectors v_f = e_f - sum_p (R_p[f] / R_p[p]) e_p are that basis.  Fill-in
    is held to ``entry_cap`` as in ``rank``.
    """
    last = m.cols - 1
    lines = {
        r: {last - c: v for c, v in line.items()}
        for r, line in _integer_lines(m, 0, 0)[0].items()
    }
    pivots: set[int] = set()
    by_free: dict[int, list[tuple[int, Rational]]] = {}
    for rc, lead, row in _echelon(lines, entry_cap):
        p = last - rc
        pivots.add(p)
        for c, v in row.items():
            if c != rc:
                by_free.setdefault(last - c, []).append((p, Rational(-v, lead)))
    return [
        QVector(m.cols, ((f, QONE), *sorted(by_free.get(f, ()))))
        for f in range(m.cols)
        if f not in pivots
    ]


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product a @ b.  With a = D_a^-1 A and b = B D_b^-1 for integral
    A and B, entry (r, j) is (A B)[r, j] / (d_r d_j); A B is formed in ints
    and divided only where a denominator is not 1."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_cols, row_dens = _integer_lines(a, 1, 0)
    b_cols, col_dens = _integer_lines(b, 1, 1)
    ents: dict[tuple[int, int], int | Rational] = {}
    for j in sorted(b_cols):
        acc: dict[int, int] = {}
        for k, bv in b_cols[j].items():
            for r, av in a_cols.get(k, {}).items():
                acc[r] = acc.get(r, 0) + av * bv
        d_j = col_dens.get(j, 1)
        for r, v in acc.items():
            if v:
                den = row_dens.get(r, 1) * d_j
                ents[(r, j)] = v if den == 1 else normal_entry(Rational(v, den))
        check_entry_budget(len(ents))
    return SparseMatrix._of(a.rows, b.cols, ents)


def _integral(m: SparseMatrix) -> tuple[int, Mapping[tuple[int, int], int]]:
    """(d, entries of d m) for d the lcm of the denominators of m, so every
    entry is an int; m's own entries when d is 1."""
    d = 1
    for v in m.entries.values():
        if type(v) is not int:
            d = lcm(d, v.denominator)
    if d == 1:
        return 1, m.entries
    return d, {key: (v * d).numerator for key, v in m.entries.items()}


def products_cancel(terms: Iterable[tuple[object, SparseMatrix, SparseMatrix]]) -> bool:
    """Whether the sum of c * (a @ b) over the terms (c, a, b) is exactly
    the zero matrix.  No product is formed.

    Each a and b is scaled to integers A = d_a a and B = d_b b by the lcm of
    its denominators, and the coefficients c / (d_a d_b) are cleared to ints
    e by the lcm of theirs; the sum vanishes exactly when sum e (A @ B) does.
    Column k of A is packed into one int, sum_r A[r, k] 2^(w r) (Kronecker
    substitution), so column j of the sum is the one int
    sum e B[k, j] packed_k, whose slot r holds the true coefficient x_r of
    row r.  The slot width w is ``bound.bit_length()`` for
    bound = sum |e| max|A| max|B| a.cols, so every |x_r| <= bound < 2^w.
    Then the column's int is 0 exactly when every x_r is: if r0 is the
    highest row with x_r0 != 0, its slot contributes at least 2^(w r0) in
    absolute value, and the slots below at most
    (2^w - 1)(1 + 2^w + ... + 2^(w (r0 - 1))) = 2^(w r0) - 1, so nothing
    cancels it.  No sign bit is needed; one bit fewer is not enough, as
    x = (-2^(w-1), 1) with bound 2^(w-1) shows.  The column sums, like the
    packed columns, take about rows * w bits each.  Raises ``ShapeError``
    unless every a @ b is defined and all have one shape.
    """
    terms = list(terms)
    if not terms:
        return True
    rows, cols = terms[0][1].rows, terms[0][2].cols
    scaled = []
    for c, a, b in terms:
        if a.cols != b.rows or a.rows != rows or b.cols != cols:
            raise ShapeError(
                f"a {a.rows}x{a.cols} by {b.rows}x{b.cols} product is not "
                f"a {rows}x{cols} term"
            )
        d_a, a_ents = _integral(a)
        d_b, b_ents = _integral(b)
        if a_ents and b_ents:
            scaled.append((Rational(c) / (d_a * d_b), a_ents, b_ents, a.cols))
    clear = lcm(1, *(q.denominator for q, *_ in scaled))
    ints = []
    bound = 0
    for q, a_ents, b_ents, inner in scaled:
        e = (q * clear).numerator
        if e:
            top = max(map(abs, a_ents.values())) * max(map(abs, b_ents.values()))
            bound += abs(e) * top * inner
            ints.append((e, a_ents, b_ents, inner))
    width = bound.bit_length()
    sums = [0] * cols
    for e, a_ents, b_ents, inner in ints:
        packed = [0] * inner
        for (r, k), v in a_ents.items():
            packed[k] += v << (width * r)
        if e != 1:
            packed = [e * p for p in packed]
        for (k, j), v in b_ents.items():
            sums[j] += v * packed[k]
    return not any(sums)


def stack_rows(ms: list[SparseMatrix]) -> SparseMatrix:
    """Vertical concatenation in the given order."""
    if not ms:
        raise ShapeError("cannot stack an empty list")
    cols = ms[0].cols
    for m in ms:
        if m.cols != cols:
            raise ShapeError(f"column count mismatch: {m.cols} != {cols}")
    ents: dict[tuple[int, int], Rational] = {}
    offset = 0
    total = 0
    for m in ms:
        total += m.nnz
        check_entry_budget(total)
        for (r, c), v in m.entries.items():
            ents[(r + offset, c)] = v
        offset += m.rows
    return SparseMatrix._of(offset, cols, ents)


def append_columns(m: SparseMatrix, vectors: Iterable[QVector]) -> SparseMatrix:
    """[m | v_1 ... v_j]: the vectors appended as columns, in order."""
    entries = dict(m.entries)
    cols = m.cols
    for vec in vectors:
        if vec.length != m.rows:
            raise ShapeError("column length mismatch")
        for r, v in vec.entries:
            entries[(r, cols)] = normal_entry(v)
        cols += 1
    return SparseMatrix._of(m.rows, cols, entries)


def independent_columns(m: SparseMatrix, entry_cap: int | None = None) -> list[int]:
    """The columns of m outside the span of the columns before them, in
    order: the pivot columns of its reduced echelon form.  They are what a
    greedy pass over the columns keeps."""
    return list(_eliminate(_integer_lines(m, 0, 0)[0], entry_cap, leftmost=True))


def is_in_column_span(m: SparseMatrix, vec: QVector, entry_cap: int | None = None) -> bool:
    """Exact test for vec in the column space of m (rank comparison)."""
    if vec.length != m.rows:
        raise ShapeError("vector length must equal row count")
    if vec.is_zero:
        return True
    return rank(append_columns(m, [vec]), entry_cap) == rank(m, entry_cap)


class LinearSolver:
    """Repeated exact solves of ``A x = b`` against a fixed matrix A.

    Factors once into the reduced echelon form of [A | I], whose identity
    part records the row transform, then answers each right-hand side in
    time proportional to its support.  Fill-in is held to ``entry_cap`` as
    in ``rank``.
    """

    def __init__(self, a: SparseMatrix, entry_cap: int | None = None):
        self.matrix = a
        # a row scaled by its lcm d carries d in its transform column
        lines, dens = _integer_lines(a, 0, 0)
        for r in range(a.rows):
            lines.setdefault(r, {})[a.cols + r] = dens.get(r, 1)
        self._transforms = [
            (p, {c - a.cols: Rational(v, lead) for c, v in row.items() if c >= a.cols})
            for p, lead, row in _echelon(lines, entry_cap)
        ]
        self._cols = a.cols

    def solve(self, b: QVector) -> QVector | None:
        """One exact solution of A x = b (free variables 0), None if
        inconsistent."""
        if b.length != self.matrix.rows:
            raise ShapeError("right-hand side length mismatch")
        coords: dict[int, Rational] = {}
        for p, transform in self._transforms:
            # value of the transformed rhs in this pivot row
            val = QZERO
            for r, v in b.entries:
                f = transform.get(r)
                if f is not None:
                    val += f * v
            if val == 0:
                continue
            if p >= self._cols:
                return None  # pivot in the transform part: inconsistent rhs
            coords[p] = val
        return QVector.from_dict(self._cols, coords)
