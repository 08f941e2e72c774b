"""Clearing: ``rank_d`` ranks the blocks of ``_ranked`` (on orbit sums, or
the weight-0 blocks) from the bottom up and drops the rows of the block of
degree k that the pivots of the elimination of the block of degree k - 1
prove dependent.  The oracle is the uncleared ``rank(block)``.  A clearing
with the pivot rows of ``block(k - 1)`` instead of its pivot columns fails
the oracle tests.  ``proved_rank_d`` equals the rank of the uncleared
transpose, pinned or not."""

import random
import sys
import threading
from math import lcm

import pytest
from hypothesis import example, find, given, settings, strategies as st

import affsymp.chain_complexes as chain_complexes
from affsymp.cache import DiffCache, worth_caching
from affsymp.chain_complexes import ChainComplex
from affsymp.exact_linalg import QVector, SparseMatrix, kernel_basis, pinned, rank
from affsymp.theorems import VerificationContext

ORDERS = ("ascending", "descending", "shuffled")


def _matrix(draw, rows, cols):
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    support = draw(st.sets(st.sampled_from(cells), max_size=len(cells))) if cells else set()
    return SparseMatrix(rows, cols, {cell: draw(st.integers(-3, 3)) for cell in support})


@st.composite
def complexes(draw, subset=False):
    """(dims, {k: d_k}) of an integer complex through a random cap: d_1 is
    random, and each column of d_(k+1) is an integer combination of the
    ``kernel_basis`` of d_k cleared of denominators, so d o d = 0.  That
    almost always leaves b_k = 0; with ``subset`` the columns combine a
    random subset of the basis alone, so b_k > 0 is common and a rank that
    nothing pins often has pivots below it to clear with."""
    cap = draw(st.integers(1, 4))
    dims = [draw(st.integers(0, 6)), draw(st.integers(0, 8))]
    diffs = {1: _matrix(draw, dims[0], dims[1])}
    for k in range(2, cap + 1):
        kernel = kernel_basis(diffs[k - 1])
        if subset:
            kernel = [vec for vec in kernel if draw(st.booleans())]
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
    """The degrees 0..cap in the given order; ``shuffle`` returns a
    permutation of a list."""
    degrees = list(range(cap + 1))
    if order == "descending":
        degrees.reverse()
    elif order == "shuffled":
        degrees = shuffle(degrees)
    return degrees


def _oracle(complex_, k: int) -> int:
    """The uncleared rank of the ranked block plus the off-block part."""
    return rank(complex_._ranked.block(k)) + complex_._off_block_rank(k)


def _check_pivot_sets(complex_):
    """Each kept set of degree k is as large as the rank of the ranked
    block, which its columns alone reach."""
    for k, found in complex_._pivots.items():
        block = complex_._ranked.block(k)
        r = rank(block)
        picked = {key: v for key, v in block.entries.items() if key[1] in found}
        assert len(found) == r == rank(SparseMatrix(block.rows, block.cols, picked))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), made=complexes(), order=st.sampled_from(ORDERS))
def test_random_complexes_rank_as_the_uncleared_oracle(data, made, order):
    dims, diffs = made
    cap = len(diffs)
    complex_ = ChainComplex("test", "random", dims, diffs, {}, cap)
    for k in _requests(cap, order, lambda p: data.draw(st.permutations(p))):
        assert complex_.rank_d(k) == (0 if k == 0 else rank(diffs[k]))
    _check_pivot_sets(complex_)


# d_1 has the pivot (column 0, row 3), and d_2, of rank 2, leaves b_1 = 1,
# so nothing pins d_2: its transpose is ranked without row 0 of d_2, which
# only a clearing with the pivot columns of d_1 leaves at rank 2
UNPINNED = ([4, 4, 3], {
    1: SparseMatrix(4, 4, {(3, 0): 1, (3, 1): 1}),
    2: SparseMatrix(4, 3, {(0, 0): 1, (1, 0): -1, (3, 1): 1, (0, 2): 1, (1, 2): -1, (3, 2): 1}),
})


@settings(max_examples=300, deadline=None)
@given(made=st.one_of(complexes(), complexes(subset=True)))
@example(made=UNPINNED)
def test_random_complexes_prove_the_rank_of_the_uncleared_transpose(made):
    """Whether the d o d bound pins a degree or it falls back to the
    transposed block, cleared with the certified pivots below it."""
    dims, diffs = made
    cap = len(diffs)
    complex_ = ChainComplex("test", "random", dims, diffs, {}, cap)
    for k in range(1, cap + 1):
        assert complex_.proved_rank_d(k) == rank(diffs[k].transpose()), k


def _cleared_fallback(made) -> bool:
    """Whether some degree k of the complex is pinned by nothing, so
    ``proved_rank_d`` ranks its transpose, and the pivots of degree k - 1
    clear rows of it."""
    dims, diffs = made
    complex_ = ChainComplex("test", "random", dims, diffs, {}, len(diffs))
    return any(
        not pinned(k, complex_._block_rank_of, complex_.block_dims)
        and complex_._pivot_pairs(k - 1)
        for k in range(2, len(diffs) + 1)
    )


def test_kernel_subsets_draw_the_cleared_fallback():
    """The subset complexes reach the transposed fallback with a nonempty
    clearing set (in about a quarter of 300 draws; the full-kernel ones in
    none); ``find`` raises when no draw does."""
    seeded = settings(max_examples=300, database=None)
    find(complexes(subset=True), _cleared_fallback, settings=seeded, random=random.Random(0))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_hands_back_independent_columns(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    m = _matrix(data.draw, rows, cols)
    found: set[int] = set()
    r = rank(m, independent=found)
    assert r == rank(m) and len(found) == r
    picked = SparseMatrix(rows, cols, {key: v for key, v in m.entries.items() if key[1] in found})
    assert rank(picked) == r


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
    for k in _requests(cap, order, lambda p: shuffle(p, len(p))):
        assert complex_.rank_d(k) == (0 if k == 0 else _oracle(complex_, k)), k
    _check_pivot_sets(complex_)


@pytest.fixture
def eliminated(monkeypatch):
    """The nnz of each matrix the complexes hand to ``rank``, without the
    rows they clear."""
    seen = []
    original = chain_complexes.rank

    def spy(m, entry_cap=None, *, independent=None, clear=()):
        seen.append(sum(r not in clear for r, _ in m.entries))
        return original(m, entry_cap, independent=independent, clear=clear)

    monkeypatch.setattr(chain_complexes, "rank", spy)
    return seen


def _requested(complex_, k, proved):
    """``proved_rank_d``, which reads the certified ranks of the degrees
    that pin it, or ``rank_d`` alone."""
    return (complex_.proved_rank_d if proved else complex_.rank_d)(k)


@pytest.mark.parametrize("proved", [False, True])
def test_leibniz_d6_of_g1_is_cleared(eliminated, proved):
    complex_ = VerificationContext().complex("leibniz", "g", 1, 6)
    _requested(complex_, 5, proved)
    eliminated.clear()
    assert _requested(complex_, 6, proved) == _oracle(complex_, 6)
    [nnz] = eliminated
    assert nnz < complex_._ranked.block(6).nnz


@pytest.mark.parametrize("proved", [False, True])
def test_a_degree_above_a_cache_hit_is_cleared(tmp_path, eliminated, proved):
    """Degrees 4 and 5 of Leibniz of g_1 are read from a partly warm
    cache, so they leave no pivots; the miss at degree 6 derives them by
    eliminating d_4, cleared with the set that the rank of d_3 kept, and
    d_5, cleared with that of d_4, as a cold complex clears them, and then
    eliminates as few nonzeros as the cold complex."""
    k = 6
    first = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, 6)
    _requested(first, k - 1, proved)
    cold = VerificationContext().complex("leibniz", "g", 1, 6)
    eliminated.clear()
    expected = _requested(cold, k, proved)
    # on orbit sums d_1 (1 x 0) and d_2 (0 x 3) are empty; d_3 to d_6 are
    # eliminated, d_3 (3 x 9) whole, as it is too small to cache, and d_4
    # to d_6 cleared
    cold_calls = list(eliminated)
    assert len(cold_calls) == 4 and cold_calls[-1] < cold._ranked.block(k).nnz

    warm = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, 6)
    eliminated.clear()
    assert _requested(warm, k, proved) == expected
    # d_3 is ranked again, d_4 (9 x 43) and d_5 (43 x 190) are hits, and
    # the miss at d_6 eliminates both before itself
    assert eliminated == cold_calls
    assert set(warm._pivots) == {3, 4, 5, 6}
    assert expected == _oracle(warm, k)


@pytest.mark.parametrize("proved", [False, True])
def test_a_warm_rerun_eliminates_no_block_it_reads(tmp_path, eliminated, proved):
    """A rerun at the same cap reads every rank worth caching, and every
    certified rank, so no pivot set of a block worth caching is derived:
    it eliminates only the blocks too small to cache (d_3, 3 x 9), each
    whole."""
    cap = 6
    first = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, cap)
    _requested(first, cap, proved)
    warm = VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, cap)
    eliminated.clear()
    _requested(warm, cap, proved)
    small = [k for k in range(1, cap + 1) if warm._ranked.block(k).entries
             and not worth_caching(warm._ranked.block(k).rows, warm._ranked.block(k).cols)]
    assert small and eliminated == [warm._ranked.block(k).nnz for k in small]
    assert set(warm._pivots) == set(small)


def test_threads_sharing_a_complex_get_the_oracle_ranks():
    """Threads that request the ranks of one complex in different orders
    race on its memos of ranks and pivot sets; a set two threads derive at
    once is only computed twice, so every rank is still exact."""
    complex_ = VerificationContext().complex("leibniz", "g", 1, 6)
    expected = {k: _oracle(complex_, k) for k in range(1, 7)}
    got, errors = [], []

    def work(seed):
        try:
            shuffle = random.Random(seed).sample
            for k in _requests(6, "shuffled", lambda p: shuffle(p, len(p))):
                if k:
                    got.append((k, complex_.rank_d(k)))
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
