import contextlib
import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from affsymp.cache import (
    COUNT_LIMIT, SMALL_BLOCK, DiffCache, descriptor_key, rank_key, worth_caching,
)
from affsymp.chain_complexes import BlockMemo
from affsymp.exact_linalg import QVector, Rational, SparseMatrix


def test_matrix_round_trip(tmp_path):
    cache = DiffCache(tmp_path)
    m = SparseMatrix.from_dense([[1, Rational(2, 3)], [0, -1]])
    key = descriptor_key("diff", "testalg", 2)
    assert cache.get_matrix("diff", key) is None
    cache.put_matrix("diff", key, m)
    assert cache.get_matrix("diff", key) == m


def test_vectors_round_trip(tmp_path):
    cache = DiffCache(tmp_path)
    vecs = [QVector.from_dense([1, 0, -2]), QVector.from_dense([0, Rational(1, 2), 0])]
    key = descriptor_key("kernel", "k", 0)
    cache.put_vectors(key, 3, vecs)
    assert cache.get_vectors(key, 3) == vecs
    assert cache.get_vectors(key, 4) is None  # wrong ambient length misses


def test_rank_round_trip(tmp_path):
    cache = DiffCache(tmp_path)
    fp = SparseMatrix.identity(3).fingerprint()
    assert cache.get_rank(fp) is None
    cache.put_rank(fp, 3)
    assert cache.get_rank(fp) == 3


def test_descriptor_key_sensitivity():
    assert descriptor_key("a", 1) != descriptor_key("a", 2)
    assert descriptor_key("a", 1) == descriptor_key("a", 1)


def test_basis_convention_bump_misses(tmp_path, monkeypatch):
    import affsymp.cache as cache_module
    from affsymp.chain_complexes import leibniz_complex
    from affsymp.lie_structures import build_sp

    # on orbit sums d_5 (10 x 25) is the one block worth a record
    sp = build_sp(1)
    cache = DiffCache(tmp_path)
    leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    written = cache.stats()["diff"]["files"]
    assert written > 0
    lookups = []
    get_matrix = DiffCache.get_matrix

    def counted(self, kind, key):
        got = get_matrix(self, kind, key)
        lookups.append(got is not None)
        return got

    monkeypatch.setattr(DiffCache, "get_matrix", counted)
    leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    assert lookups and all(lookups)
    monkeypatch.setattr(cache_module, "BASIS_CONVENTION", cache_module.BASIS_CONVENTION + 1)
    lookups.clear()
    leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    assert lookups and not any(lookups)
    assert cache.stats()["diff"]["files"] == 2 * written


def test_stats_and_clear(tmp_path):
    cache = DiffCache(tmp_path)
    cache.put_rank("abc", 5)
    cache.put_matrix("diff", "k1", SparseMatrix.identity(2))
    stats = cache.stats()
    assert stats["rank"]["files"] == 1
    assert stats["diff"]["files"] == 1
    assert cache.clear() == 2
    assert cache.stats()["total_bytes"] == 0


def test_complex_reuses_cached_rank(tmp_path):
    from affsymp.chain_complexes import leibniz_complex
    from affsymp.exact_linalg import rank
    from affsymp.lie_structures import build_sp

    sp = build_sp(1)
    cache = DiffCache(tmp_path)
    first = leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    assert first.rank_d(5) == 60
    # rank_d(5) is the rank of the 10x25 block on orbit sums, 9, plus 51
    # off the block.  Poison the block's cached rank with a wrong but
    # possible value; a fresh complex must read it back verbatim, proving
    # the lookup path is active
    block = first._ranked.block(5)
    assert (block.rows, block.cols) == (10, 25) and rank(block) == 9
    key = rank_key(block, "certified")
    assert cache.get_rank(key) == 9
    cache.put_rank(key, 8)
    second = leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    assert second.rank_d(5) == 59
    # a value no 10x25 matrix can have is a miss: recomputed and rewritten
    cache.put_rank(key, 99)
    third = leibniz_complex(sp, 5, blocks=BlockMemo(cache))
    assert third.rank_d(5) == 60
    assert cache.get_rank(key) == 9


def test_tiny_blocks_bypass_the_cache(tmp_path):
    """A block with at most ``SMALL_BLOCK`` rows or columns is rebuilt and
    reranked, never read or written: a poisoned record of one is not
    believed.  On orbit sums, Leibniz d_3 of g_1 is 3 x 9; d_4 (9 x 43) is
    worth a record."""
    from affsymp.chain_complexes import leibniz_complex
    from affsymp.lie_structures import build_g

    g, _ = build_g(1)
    cache = DiffCache(tmp_path)
    first = leibniz_complex(g, 4, blocks=BlockMemo(cache))
    assert first.rank_d(4) == 106 and first.rank_d(3) == 19
    block = first._ranked.block(3)
    assert (block.rows, block.cols) == (3, 9) and block.entries
    top = first._ranked.block(4)
    assert [f.stem for f in (tmp_path / "rank").glob("*.txt")] == [rank_key(top, "certified")]
    records = [cache.get_matrix("diff", f.stem) for f in (tmp_path / "diff").glob("*.mtx")]
    assert records and all(worth_caching(m.rows, m.cols) for m in records)
    cache.put_rank(rank_key(block, "certified"), 0)
    assert leibniz_complex(g, 4, blocks=BlockMemo(cache)).rank_d(3) == 19


def test_records_start_one_above_small_block(tmp_path):
    """Of g_2's blocks on orbit sums, Leibniz d_3 (4 x 18) has smaller side
    ``SMALL_BLOCK`` and gets no record, while Lie d_5 (5 x 12) gets its
    block and its certified rank recorded."""
    from affsymp.chain_complexes import ce_complex, leibniz_complex
    from affsymp.lie_structures import build_g

    assert SMALL_BLOCK == 4
    assert not worth_caching(SMALL_BLOCK, 100) and not worth_caching(100, SMALL_BLOCK)
    assert worth_caching(SMALL_BLOCK + 1, SMALL_BLOCK + 1)
    g, _ = build_g(2)
    cache = DiffCache(tmp_path)
    below = leibniz_complex(g, 3, blocks=BlockMemo(cache))
    block = below._ranked.block(3)
    assert (block.rows, block.cols) == (4, 18) and below.rank_d(3)
    assert _records(tmp_path) == {}
    above = ce_complex(g, 5, blocks=BlockMemo(cache))
    block = above._ranked.block(5)
    assert (block.rows, block.cols) == (5, 12) and above.rank_d(5)
    [diff] = (tmp_path / "diff").glob("*.mtx")
    assert cache.get_matrix("diff", diff.stem) == block
    assert [f.stem for f in (tmp_path / "rank").glob("*.txt")] == [rank_key(block, "certified")]


def test_counts_cut_at_count_limit_decide_as_full_counts():
    """The complexes count a block's rows and columns only to
    ``COUNT_LIMIT`` before asking ``worth_caching``; cut counts must give
    the answer the full ones give, or a warm run would look up records a
    cold one did not write."""
    for rows in range(3 * COUNT_LIMIT):
        for cols in range(3 * COUNT_LIMIT):
            cut = worth_caching(min(rows, COUNT_LIMIT), min(cols, COUNT_LIMIT))
            assert cut == worth_caching(rows, cols), (rows, cols)


def test_malformed_rank_records_miss(tmp_path):
    cache = DiffCache(tmp_path)
    fp = SparseMatrix.identity(3).fingerprint()
    cache.put_rank(fp, 3)
    target = tmp_path / "rank" / f"{fp}.txt"
    good = target.read_text()
    assert good.split()[0] == "3"
    for text in ("", "3\n", "0\n", good.replace("3 ", "2 ", 1), good + "1\n", "x y\n"):
        target.write_text(text)
        assert cache.get_rank(fp) is None, repr(text)
    target.write_bytes(b"\xff\xfe 3\n")
    assert cache.get_rank(fp) is None


def test_malformed_matrix_records_miss(tmp_path):
    cache = DiffCache(tmp_path)
    m = SparseMatrix.from_dense([[1, Rational(2, 3)], [0, -1]])
    cache.put_matrix("diff", "k", m)
    target = tmp_path / "diff" / "k.mtx"
    good = target.read_text()
    header, payload = good.split("\n", 1)
    assert header.split() == ["affsymp-matrix", "1", m.fingerprint()]
    assert payload == m.to_text()
    edited = payload.replace("-1/1", "-2/1")
    for text in (
        "",
        "garbage\n",
        payload,                                   # a record without its header
        header.replace(" 1 ", " 2 ", 1) + "\n" + payload,   # another format version
        header + "\n" + edited,                    # payload edited, digest kept
        header + "\n",                             # payload truncated
        good + "1 1 5/1\n",                        # extra entry line
    ):
        target.write_text(text)
        assert cache.get_matrix("diff", "k") is None, repr(text)
    # a digest that matches a payload which does not parse is still a miss
    bad = "2 2 1\n0 9 1/1\n"
    target.write_text(f"affsymp-matrix 1 {hashlib.sha256(bad.encode()).hexdigest()}\n{bad}")
    assert cache.get_matrix("diff", "k") is None
    target.write_bytes(b"\xff\xfe garbage")
    assert cache.get_matrix("diff", "k") is None
    target.write_text(good)
    assert cache.get_matrix("diff", "k") == m


def test_a_canonical_record_keeps_its_digest_as_the_fingerprint(tmp_path, monkeypatch):
    cache = DiffCache(tmp_path)
    m = SparseMatrix.from_dense([[1, Rational(2, 3), 0], [0, -1, 3]])
    cache.put_matrix("diff", "k", m)

    def refused(self):
        raise AssertionError("a record read back was serialized again")

    monkeypatch.setattr(SparseMatrix, "to_text", refused)
    got = cache.get_matrix("diff", "k")
    assert got == m and got.fingerprint() == m.fingerprint()


# non-canonical payloads of [[1, 2/3, 0], [0, -1, 3]], whose canonical text
# is "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n", or contradictory: each
# is a miss though its digest holds, and is rewritten canonical ...
_NONCANONICAL = [
    "2 3 4\n0 1 2/3\n0 0 1/1\n1 1 -1/1\n1 2 3/1\n",     # lines reordered
    "2 3 4\n0 0 +1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",    # a plus sign
    "2 3 4\n0 0 1/1\n0 1 2/3\n01 1 -1/1\n1 2 3/1\n",    # a leading zero
    "2 3 4\n0 0 1/1\n\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",  # a blank line
    "2 3 4\n0 0 2/2\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",     # not in lowest terms
    "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3\n",       # no denominator
    "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1 \n",    # a trailing space
    "2 3 4\n-0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",    # a -0 index
    "2 3 5\n0 0 1/1\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",  # a duplicate key
    "2 3 4\n0\t0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",    # a tab separator
    "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1",        # no final newline
    "2 3 5\n0 0 1/1\n0 0 7/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",  # two values for a key
]
# ... and each of these is a miss too
_MISSED = [
    "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 3 3/1\n",     # a column >= cols
    "2 3 4\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n2 2 3/1\n",     # a row >= rows
    "2 3 5\n0 0 1/1\n0 1 2/3\n1 1 -1/1\n1 2 3/1\n",     # header nnz one too large
    # CRLF line ends: the record is read with universal newlines, so the
    # payload read is not the one the digest was taken of
    "2 3 4\r\n0 0 1/1\r\n0 1 2/3\r\n1 1 -1/1\r\n1 2 3/1\r\n",
]


def _write_record(tmp_path, payload):
    cache = DiffCache(tmp_path)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    (tmp_path / "diff" / "k.mtx").write_text(f"affsymp-matrix 1 {digest}\n{payload}", newline="")
    return cache, digest


@pytest.mark.parametrize("payload", _NONCANONICAL)
def test_a_noncanonical_record_parses_and_rehashes(tmp_path, payload):
    """A payload whose digest holds but which is not the canonical text of
    a matrix does not parse, so the record is a miss.  The matrix put in its
    place is written canonical and reads back with the digest of its own
    text as its fingerprint."""
    assert SparseMatrix._from_canonical_text(payload) is None
    cache, digest = _write_record(tmp_path, payload)
    assert cache.get_matrix("diff", "k") is None
    m = SparseMatrix.from_dense([[1, Rational(2, 3), 0], [0, -1, 3]])
    cache.put_matrix("diff", "k", m)
    got = cache.get_matrix("diff", "k")
    assert got == m
    assert got.fingerprint() == m.fingerprint() != digest


@pytest.mark.parametrize("payload", _MISSED)
def test_a_noncanonical_record_that_cannot_read_back_misses(tmp_path, payload):
    """A payload that does not parse to a matrix of its shape, or does not
    read back as the text its digest was taken of, is a miss."""
    assert SparseMatrix._from_canonical_text(payload) is None
    cache, _ = _write_record(tmp_path, payload)
    assert cache.get_matrix("diff", "k") is None


def test_malformed_vector_records_miss(tmp_path):
    cache = DiffCache(tmp_path)
    vecs = [QVector.from_dense([1, 0, -2])]
    key = descriptor_key("kernel", "k", 0)
    cache.put_vectors(key, 3, vecs)
    target = tmp_path / "kernel" / f"{key}.mtx"
    for text in ("", "garbage\n", target.read_text().replace("-2/1", "-3/1")):
        target.write_text(text)
        assert cache.get_vectors(key, 3) is None, repr(text)


# the relative complex with cycles writes both record kinds the complexes write
_HOMOLOGY = [
    "homology", "--family", "g", "--n", "1", "--theory", "rel", "--max-degree", "1",
    "--emit-cycles", "--format", "json", "--cache-dir",
]


def _homology(cache_dir):
    from affsymp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_HOMOLOGY + [str(cache_dir)])
    return code, out.getvalue(), err.getvalue()


def _records(path):
    return {
        str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*")) if f.is_file()
    }


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("filled")
    code, out, err = _homology(path)
    assert (code, err) == (0, "")
    records = _records(path)
    assert {name.split("/")[0] for name in records} == {"diff", "rank"}
    return out, records


@st.composite
def _corruptions(draw, records):
    """One to three records, each truncated or with one byte flipped."""
    names = draw(st.lists(st.sampled_from(sorted(records)), min_size=1, max_size=3, unique=True))
    out = {}
    for name in names:
        data = records[name]
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            out[name] = data[:at]
        else:
            mask = draw(st.integers(1, 255))
            out[name] = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_corrupted_records_never_change_answers(filled_cache, tmp_path_factory, data):
    cold, records = filled_cache
    corrupt = data.draw(_corruptions(records))
    path = tmp_path_factory.mktemp("corrupt")
    for name, content in records.items():
        target = path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(corrupt.get(name, content))
    code, out, err = _homology(path)
    # same Betti numbers, ranks and cycles, same exit code, no message
    assert (code, out, err) == (0, cold, "")
    # every corrupted record was a miss and was rewritten as the original
    assert _records(path) == records


def test_a_reordered_record_is_rebuilt_and_rewritten_canonical(filled_cache, tmp_path):
    """A warm run over a cache in which one block's record has its entry
    lines reversed and its digest recomputed prints what the cold run
    printed and leaves that record canonical again."""
    cold, records = filled_cache
    name = next(
        name for name in records if name.startswith("diff/") and records[name].count(b"\n") > 3
    )
    header, head, *lines = records[name].decode().splitlines(keepends=True)
    payload = "".join([head] + lines[::-1])
    tag, version, _ = header.split()
    for other, content in records.items():
        target = tmp_path / other
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    (tmp_path / name).write_text(
        f"{tag} {version} {hashlib.sha256(payload.encode()).hexdigest()}\n{payload}"
    )
    assert _homology(tmp_path) == (0, cold, "")
    assert _records(tmp_path) == records


def test_a_carriage_return_for_a_line_end_is_a_miss(filled_cache, tmp_path):
    """A record whose last ``\\n`` is turned into ``\\r`` reads the same
    under newline translation; it must fail its check instead, and be
    rebuilt and rewritten."""
    cold, records = filled_cache
    for name, content in records.items():
        assert content.endswith(b"\n")
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content[:-1] + b"\r")
    assert _homology(tmp_path) == (0, cold, "")
    assert _records(tmp_path) == records


@pytest.mark.parametrize("n", [1, 2])
def test_verify_caches_no_tiny_block_and_a_warm_rerun_changes_nothing(tmp_path, monkeypatch, n):
    """A cold verify writes no record of a matrix with at most
    ``SMALL_BLOCK`` rows or columns, and each rank record it writes is a
    certified one; a warm rerun reads every record it looks up, writes
    none, leaves the directory byte-identical and eliminates only the
    matrices too small to cache."""
    import affsymp.chain_complexes as chain_complexes
    from affsymp.theorems import VerificationContext, run_all

    shapes = {}
    certified = set()
    original_key = chain_complexes.rank_key

    def recorded(matrix, record):
        key = original_key(matrix, record)
        shapes[key] = (matrix.rows, matrix.cols)
        if record == "certified":
            certified.add(key)
        return key

    monkeypatch.setattr(chain_complexes, "rank_key", recorded)
    assert all(r.passed for r in run_all(VerificationContext(cache=DiffCache(tmp_path)), n))
    cold = _records(tmp_path)
    diffs = [name for name in cold if name.startswith("diff/")]
    ranks = [name for name in cold if name.startswith("rank/")]
    assert diffs and ranks
    for name in diffs:
        rows, cols, _ = cold[name].split(b"\n")[1].split()
        assert worth_caching(int(rows), int(cols)), name
    for name in ranks:
        assert worth_caching(*shapes[name[len("rank/"):-len(".txt")]]), name

    assert {f"rank/{key}.txt" for key in certified} == set(ranks)
    calls = []
    read = set()
    for method in ("get_matrix", "get_rank", "put_matrix", "put_rank"):
        def spy(self, *args, _method=method, _original=getattr(DiffCache, method)):
            got = _original(self, *args)
            calls.append((_method, got is None))
            read.add(args[-1])
            return got

        monkeypatch.setattr(DiffCache, method, spy)
    eliminated = []
    rank = chain_complexes.rank

    def counted(m, *args, **kwargs):
        eliminated.append((m.rows, m.cols))
        return rank(m, *args, **kwargs)

    monkeypatch.setattr(chain_complexes, "rank", counted)
    assert all(r.passed for r in run_all(VerificationContext(cache=DiffCache(tmp_path)), n))
    assert calls and {method for method, _ in calls} == {"get_matrix", "get_rank"}
    assert not any(missed for _, missed in calls)
    assert certified <= read
    assert _records(tmp_path) == cold
    assert eliminated and not any(worth_caching(*shape) for shape in eliminated)
