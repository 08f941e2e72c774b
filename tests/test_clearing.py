"""Clearing: each orientation ranks the weight-0 blocks from the bottom up
and drops the rows of ``block(k)`` that the pivots of its own elimination
of ``block(k - 1)`` prove dependent.  The oracle is the uncleared
``rank(block)`` and ``rank(block.transpose())``.  A clearing with the pivot
rows of ``block(k - 1)`` instead of its pivot columns fails the oracle
tests; one with the set of the other orientation, also columns of full
rank, derives that set, which the tests of what is eliminated catch; a
pivot set kept at the cap fails the checks of the kept sets."""

import random
import sys
import threading
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import affsymp.chain_complexes as chain_complexes
from affsymp.cache import DiffCache, worth_caching
from affsymp.chain_complexes import ChainComplex
from affsymp.exact_linalg import (
    QVector, SparseMatrix, _eliminate, _integer_lines, kernel_basis, rank,
)
from affsymp.theorems import VerificationContext

ORDERS = ("ascending", "descending", "shuffled")


def _matrix(draw, rows, cols):
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    support = draw(st.sets(st.sampled_from(cells), max_size=len(cells))) if cells else set()
    return SparseMatrix(rows, cols, {cell: draw(st.integers(-3, 3)) for cell in support})


@st.composite
def complexes(draw):
    """(dims, {k: d_k}) of an integer complex through a random cap: d_1 is
    random, and each column of d_(k+1) is an integer combination of the
    ``kernel_basis`` of d_k cleared of denominators, so d o d = 0."""
    cap = draw(st.integers(1, 4))
    dims = [draw(st.integers(0, 6)), draw(st.integers(0, 8))]
    diffs = {1: _matrix(draw, dims[0], dims[1])}
    for k in range(2, cap + 1):
        kernel = kernel_basis(diffs[k - 1])
        columns = []
        for _ in range(draw(st.integers(0, 8))):
            column = QVector.zero(dims[k - 1])
            for vec in kernel:
                column = column.add(vec.scale(draw(st.integers(-2, 2))))
            scale = lcm(1, *(v.denominator for _, v in column.entries))
            columns.append(column.scale(scale * draw(st.sampled_from([1, -1, 2]))))
        diffs[k] = SparseMatrix.from_columns(dims[k - 1], columns)
        dims.append(len(columns))
    return dims, diffs


def _requests(cap, order, shuffle):
    """(degree, transposed) pairs of both orientations in the given order;
    ``shuffle`` returns a permutation of a list."""
    pairs = [(k, transposed) for k in range(cap + 1) for transposed in (False, True)]
    if order == "descending":
        pairs.reverse()
    elif order == "shuffled":
        pairs = shuffle(pairs)
    return pairs


def _oracle(block: SparseMatrix, transposed: bool) -> int:
    return rank(block.transpose() if transposed else block)


def _requested(complex_, k, transposed):
    return (complex_.rank_d_transposed if transposed else complex_.rank_d)(k)


def _check_pivot_sets(complex_):
    """No pivot set is kept at the cap, and each kept set of degree k is as
    large as the rank of ``block(k)``, which its columns alone reach."""
    for pivots in complex_._pivots:
        assert complex_.cap not in pivots
        for k, found in pivots.items():
            block = complex_.block(k)
            r = rank(block)
            picked = {key: v for key, v in block.entries.items() if key[1] in found}
            assert len(found) == r == rank(SparseMatrix(block.rows, block.cols, picked))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), made=complexes(), order=st.sampled_from(ORDERS))
def test_random_complexes_rank_as_the_uncleared_oracle(data, made, order):
    dims, diffs = made
    cap = len(diffs)
    complex_ = ChainComplex("test", "random", dims, diffs, {}, cap)
    for k, transposed in _requests(cap, order, lambda p: data.draw(st.permutations(p))):
        expected = 0 if k == 0 else _oracle(diffs[k], transposed)
        assert _requested(complex_, k, transposed) == expected
    _check_pivot_sets(complex_)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), transposed=st.booleans())
def test_rank_hands_back_independent_columns(data, transposed):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    m = _matrix(data.draw, rows, cols)
    found: set[int] = set()
    r = rank(m, None, transposed, found)
    assert r == rank(m) and len(found) == r
    picked = SparseMatrix(rows, cols, {key: v for key, v in m.entries.items() if key[1] in found})
    assert rank(picked) == r


def test_a_transposed_rank_forms_no_transpose(monkeypatch):
    m = SparseMatrix.from_dense([[1, 2, 0], [0, 3, 4], [1, 5, 4]])

    def refused(self):
        raise AssertionError("transpose formed")

    monkeypatch.setattr(SparseMatrix, "transpose", refused)
    assert rank(m, None, True) == 2


THEORIES = [
    ("lie", "sp", 3), ("lie", "g", 5), ("lie", "I", 2),
    ("leibniz", "sp", 5), ("leibniz", "g", 6), ("leibniz", "I", 4),
    ("adjoint", "sp", 3), ("adjoint", "g", 5), ("adjoint", "I", 2),
    ("coeff:trivial", "g", 5), ("coeff:adjoint", "sp", 3),
    ("coeff:I^0", "sp", 4), ("coeff:I^1", "sp", 4), ("coeff:I^2", "sp", 4),
    ("coeff:I^1", "g", 4),
]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("theory, family, cap", THEORIES)
def test_registry_theories_at_n1_rank_as_the_uncleared_oracle(theory, family, cap, order):
    complex_ = VerificationContext().complex(theory, family, 1, cap)
    shuffle = random.Random(f"{theory} {family}").sample
    for k, transposed in _requests(cap, order, lambda p: shuffle(p, len(p))):
        expected = 0
        if k:
            expected = _oracle(complex_.block(k), transposed) + complex_._off_block_rank(k)
        assert _requested(complex_, k, transposed) == expected, (k, transposed)
    _check_pivot_sets(complex_)


@pytest.fixture
def eliminated(monkeypatch):
    """The nnz of each matrix the complexes hand to ``rank``, without the
    rows they clear, by orientation."""
    seen = []
    original = chain_complexes.rank

    def spy(m, entry_cap=None, transposed=False, independent=None, clear=()):
        seen.append((sum(r not in clear for r, _ in m.entries), transposed))
        return original(m, entry_cap, transposed, independent, clear)

    monkeypatch.setattr(chain_complexes, "rank", spy)
    return seen


@pytest.mark.parametrize("transposed", [False, True])
def test_leibniz_d6_of_g1_is_cleared(eliminated, transposed):
    complex_ = VerificationContext().complex("leibniz", "g", 1, 6)
    _requested(complex_, 5, transposed)
    eliminated.clear()
    block = complex_.block(6)
    assert _requested(complex_, 6, transposed) == (
        _oracle(block, transposed) + complex_._off_block_rank(6)
    )
    [(nnz, orientation)] = eliminated
    assert orientation == transposed and nnz < block.nnz


def test_the_cross_check_of_leibniz_d6_of_g1_takes_its_own_pivots():
    """The transposed rank is eliminated on its own: on the cleared d_6 of
    g_1, the (row, column) pivot pairs of the two orientations differ,
    though each orientation retires its one-entry lines first."""
    complex_ = VerificationContext().complex("leibniz", "g", 1, 6)
    block = complex_.block(6)
    pairs = []
    for transposed in (False, True):
        _requested(complex_, 5, transposed)
        side = int(transposed)
        lines = _integer_lines(block, side, side, complex_._pivots[transposed][5])[0]
        pivots = _eliminate(lines)
        pairs.append({(c, r) if transposed else (r, c) for c, r in pivots.items()})
    forward, backward = pairs
    assert len(forward) == len(backward) == complex_.rank_d(6) - complex_._off_block_rank(6)
    assert forward != backward


@pytest.mark.parametrize("transposed", [False, True])
def test_a_degree_above_a_cache_hit_is_cleared(tmp_path, eliminated, transposed):
    """Degree 3 of Leibniz of g_1 is read from a partly warm cache, so it
    leaves no pivots; the miss at degree 4 derives them by eliminating
    d_3, cleared with the set that the rank of d_2 kept, as a cold complex
    clears it, and then eliminates as few nonzeros as the cold complex."""
    k = 4
    first = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, 6)
    _requested(first, k - 1, transposed)
    cold = VerificationContext().complex("leibniz", "g", 1, 6)
    eliminated.clear()
    expected = _requested(cold, k, transposed)
    # d_1 is empty; d_2, d_3 and d_4 are eliminated, d_4 cleared
    cold_calls = list(eliminated)
    assert len(cold_calls) == 3 and cold_calls[-1][0] < cold.block(k).nnz

    warm = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, 6)
    eliminated.clear()
    assert _requested(warm, k, transposed) == expected
    # d_2 (1 x 5) is too small to cache and eliminated, d_3 (5 x 19) is a
    # hit, and the miss at d_4 eliminates d_3 before itself
    assert eliminated == cold_calls
    assert set(warm._pivots[transposed]) == {2, 3, 4}
    assert expected == _oracle(warm.block(k), transposed) + warm._off_block_rank(k)


@pytest.mark.parametrize("transposed", [False, True])
def test_a_warm_rerun_eliminates_no_block_it_reads(tmp_path, eliminated, transposed):
    """A rerun at the same cap reads every rank worth caching, so no pivot
    set is derived: it eliminates only the blocks too small to cache, each
    whole."""
    cap = 6
    first = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, cap)
    _requested(first, cap, transposed)
    warm = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, cap)
    eliminated.clear()
    _requested(warm, cap, transposed)
    small = [k for k in range(1, cap + 1) if warm.block(k).entries
             and not worth_caching(warm.block(k).rows, warm.block(k).cols)]
    assert eliminated == [(warm.block(k).nnz, transposed) for k in small]


def test_threads_sharing_a_complex_get_the_oracle_ranks():
    """Threads that request the ranks of one complex in different orders
    race on its memos of ranks and pivot sets; a set two threads derive at
    once is only computed twice, so every rank is still exact."""
    complex_ = VerificationContext().complex("leibniz", "g", 1, 6)
    expected = {
        (k, transposed): _oracle(complex_.block(k), transposed) + complex_._off_block_rank(k)
        for k in range(1, 7) for transposed in (False, True)
    }
    got, errors = [], []

    def work(seed):
        try:
            shuffle = random.Random(seed).sample
            for k, transposed in _requests(6, "shuffled", lambda p: shuffle(p, len(p))):
                if k:
                    got.append(((k, transposed), _requested(complex_, k, transposed)))
        except Exception as error:  # reported below, with the thread's seed
            errors.append((seed, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(got) == 6 * len(expected)
    assert all(expected[key] == value for key, value in got)
