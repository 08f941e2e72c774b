import hashlib

from affsymp.cache import DiffCache, descriptor_key
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
    from affsymp.chain_complexes import ce_complex
    from affsymp.lie_structures import build_sp

    sp = build_sp(1)
    cache = DiffCache(tmp_path)
    first = ce_complex(sp, 3, cache=cache)
    assert first.rank_d(2) == 3
    # poison the cached rank with a wrong but possible value; a fresh complex
    # must read it back verbatim, proving the lookup path is active
    fp = first.d(2).fingerprint()
    cache.put_rank(fp, 2)
    second = ce_complex(sp, 3, cache=cache)
    assert second.rank_d(2) == 2
    # a value no 3x3 matrix can have is a miss: recomputed and rewritten
    cache.put_rank(fp, 99)
    third = ce_complex(sp, 3, cache=cache)
    assert third.rank_d(2) == 3
    assert cache.get_rank(fp) == 3


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


def test_malformed_vector_records_miss(tmp_path):
    cache = DiffCache(tmp_path)
    vecs = [QVector.from_dense([1, 0, -2])]
    key = descriptor_key("kernel", "k", 0)
    cache.put_vectors(key, 3, vecs)
    target = tmp_path / "kernel" / f"{key}.mtx"
    for text in ("", "garbage\n", target.read_text().replace("-2/1", "-3/1")):
        target.write_text(text)
        assert cache.get_vectors(key, 3) is None, repr(text)
