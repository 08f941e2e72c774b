"""Content-addressed disk cache for the weight blocks of differentials and
for matrix ranks.

Keys are SHA-256 digests of structural descriptors (algebra fingerprint,
complex kind, module fingerprint, degree, total weight or, for a block on
W~-orbit sums, the group's generators, and letter weights) and of
``BASIS_CONVENTION``, the version of the word order and
indexing the blocks are written in; a change of that convention bumps the
version, so every record written before it misses instead of being
believed.  Writes are atomic (write to a temp file, then rename), giving
single-writer / multi-reader safety.

The complexes write ``diff/`` records of assembled differential blocks
(the ranked blocks on orbit sums, and the weight blocks the membership
tests make) and ``rank/`` records, and none for a matrix with at most one row or
column (``worth_caching``): such a matrix is built and ranked in about the
time its record takes to read, and each record is one more file to write
and to copy.  Projections and the restricted differentials of the kernel
complexes are made from blocks the run holds and never written; the
ranks of the latter are.  ``diff/`` records an older version wrote for
those restricted differentials are orphans that nothing reads; ``clear``
removes them.  ``kernel/`` holds the vector records of ``put_vectors``,
which nothing in the package writes any more.

A matrix record (``diff/`` and ``kernel/``, ``.mtx``) is a header line
``affsymp-matrix <format version> <SHA-256 of the payload>`` followed by
the payload, the matrix's canonical ``to_text``.  The digest of a payload
that reads back is handed to ``SparseMatrix.from_text``, which keeps it as
the matrix's fingerprint, so a block read from disk is never serialized
again to be hashed.  The payload is parsed in one C-level scan: after its
lines have matched the canonical form, one ``json.loads`` reads all its
numbers.  A payload that is not canonical does not parse, even when its
digest holds, and so reads as a miss.

A rank record is one line, the value and the SHA-256 digest of (key,
value), filed under its key (``rank_key``).  The key of a matrix ranked as
it is is its fingerprint.  A transposed matrix is never serialized: the
key of a transpose is ``descriptor_key("transposed", key of the matrix)``.
Records an older version filed under the fingerprint of a transpose, or
under ``descriptor_key("stacked", fingerprints)`` for the stacked [d; pi]
of a kernel complex, are orphans that nothing reads; ``clear`` removes them.

A record that cannot be read, does not parse, or differs by a single byte
from the record its payload and digest would be written as reads as a
miss, so a truncated or edited file is recomputed and rewritten rather than
believed.
"""

from __future__ import annotations

import os
from pathlib import Path

from .exact_linalg import QVector, SparseMatrix, sha256

MATRIX_TAG = "affsymp-matrix"
MATRIX_FORMAT = 1
# bump on any change of word order, indexing or block layout
BASIS_CONVENTION = 1


def _sha256(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def descriptor_key(*parts: object) -> str:
    return _sha256("\x1f".join(str(p) for p in (f"basis-v{BASIS_CONVENTION}",) + parts))


def worth_caching(rows: int, cols: int) -> bool:
    """Whether a rows x cols matrix, or its rank, goes through the cache:
    not when it has at most one row or column."""
    return min(rows, cols) > 1


def rank_key(matrix: SparseMatrix, transposed: bool = False) -> str:
    """The key of the rank record of ``matrix``, or of its transpose, from
    its fingerprint."""
    key = matrix.fingerprint()
    return descriptor_key("transposed", key) if transposed else key


def _rank_record(key: str, value: int) -> str:
    return f"{value} {descriptor_key('rank', key, value)}\n"


class DiffCache:
    """Directory of serialized matrices and rank records, made with its
    record folders unless ``create`` is false."""

    def __init__(self, path: str | os.PathLike, create: bool = True):
        self.path = Path(path)
        for sub in ("diff", "kernel", "rank") if create else ():
            (self.path / sub).mkdir(parents=True, exist_ok=True)

    # -- low-level ------------------------------------------------------

    def _write_atomic(self, target: Path, text: str) -> None:
        # imported here: ``tempfile`` brings ``random`` and ``shutil``,
        # which a run that writes nothing never needs
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- matrices ---------------------------------------------------------

    def get_matrix(self, kind: str, key: str) -> SparseMatrix | None:
        """The recorded matrix, or None when the record is missing,
        unreadable, of another format version, fails its payload digest or
        does not parse."""
        target = self.path / kind / f"{key}.mtx"
        try:
            header, _, payload = target.read_text(encoding="ascii").partition("\n")
            digest = _sha256(payload)
            if header != f"{MATRIX_TAG} {MATRIX_FORMAT} {digest}":
                return None
            return SparseMatrix.from_text(payload, digest)
        except (OSError, ValueError):  # ShapeError is a ValueError
            return None

    def put_matrix(self, kind: str, key: str, matrix: SparseMatrix) -> None:
        # the matrix fingerprint is the SHA-256 of its to_text, the payload;
        # one serialisation gives both, and the matrix keeps the digest
        payload, digest = matrix.text_and_fingerprint()
        self._write_atomic(
            self.path / kind / f"{key}.mtx", f"{MATRIX_TAG} {MATRIX_FORMAT} {digest}\n{payload}"
        )

    def get_vectors(self, key: str, length: int) -> list[QVector] | None:
        m = self.get_matrix("kernel", key)
        if m is None:
            return None
        if m.rows != length:
            return None
        cols: list[dict] = [dict() for _ in range(m.cols)]
        for (r, c), v in m.entries.items():
            cols[c][r] = v
        return [QVector.from_dict(length, d) for d in cols]

    def put_vectors(self, key: str, length: int, vectors: list[QVector]) -> None:
        self.put_matrix("kernel", key, SparseMatrix.from_columns(length, vectors))

    # -- ranks -------------------------------------------------------------

    def get_rank(self, key: str) -> int | None:
        """The rank recorded under ``key`` (``rank_key``), or None when the
        record is missing, does not parse or does not carry the digest of
        (key, value)."""
        target = self.path / "rank" / f"{key}.txt"
        try:
            text = target.read_text(encoding="ascii")
            value = int(text.partition(" ")[0])
        except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
            return None
        if text != _rank_record(key, value):
            return None
        return value

    def put_rank(self, key: str, value: int) -> None:
        self._write_atomic(self.path / "rank" / f"{key}.txt", _rank_record(key, value))

    # -- management ----------------------------------------------------------

    def stats(self) -> dict:
        out = {}
        total = 0
        for sub in ("diff", "kernel", "rank"):
            files = list((self.path / sub).glob("*"))
            size = sum(f.stat().st_size for f in files)
            out[sub] = {"files": len(files), "bytes": size}
            total += size
        out["total_bytes"] = total
        out["path"] = str(self.path)
        return out

    def clear(self) -> int:
        removed = 0
        for sub in ("diff", "kernel", "rank"):
            for f in (self.path / sub).glob("*"):
                f.unlink()
                removed += 1
        return removed
