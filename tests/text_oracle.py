"""The line-by-line reader of a canonical matrix text that
``SparseMatrix._from_canonical_text`` used before it read a record's
numbers in one ``json.loads``, kept as a test oracle for that scan.  Its
patterns are its own copies, so a change to the production patterns shows
as a disagreement."""

import re
from fractions import Fraction
from math import gcd

from affsymp.exact_linalg import SparseMatrix

_HEADER = re.compile(r"(0|[1-9][0-9]*) (0|[1-9][0-9]*) (0|[1-9][0-9]*)\n")
_LINE = re.compile(r"(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*) -?[1-9][0-9]*/[1-9][0-9]*\n")


def canonical_text_matrix(text):
    """The matrix whose ``to_text`` is exactly ``text``, or None."""
    head = _HEADER.match(text)
    if head is None:
        return None
    rows, cols, nnz = map(int, head.groups())
    body = text[head.end():]
    left, lines = _LINE.subn("", body)
    if left or lines != nnz:
        return None
    ents = {}
    values = {}  # one parse per distinct value
    last = (-1, -1)
    for ln in body.splitlines():
        rt, ct, vt = ln.split(" ")
        key = (int(rt), int(ct))
        if key <= last or key[1] >= cols:
            return None
        last = key
        q = values.get(vt)
        if q is None:
            num, _, den = vt.partition("/")
            if den == "1":
                q = int(num)
            elif gcd(int(num), int(den)) == 1:
                q = Fraction(int(num), int(den))
            else:
                return None
            values[vt] = q
        ents[key] = q
    if last[0] >= rows:
        return None
    return SparseMatrix._of(rows, cols, ents)
