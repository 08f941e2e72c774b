"""Certified ranks: ``exact_linalg.certify_rank`` proves each rank from
below, as it is computed, by a pivot minor that is nonsingular mod p, the
d o d bound pins it from above where a Betti number next to it is 0, and
``cobetti`` reads only such ranks, or the rank of the transpose of the one
block that nothing pins."""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import affsymp.chain_complexes as chain_complexes
import affsymp.exact_linalg as exact_linalg
from affsymp.cache import DiffCache, worth_caching
from affsymp.chain_complexes import BlockMemo, ChainComplex
from affsymp.errors import ConsistencyError
from affsymp.exact_linalg import (
    CERTIFICATE_PRIMES, SparseMatrix, certify_rank, pinning_degrees, rank,
)
from affsymp.homology import betti, cobetti
from affsymp.theorems import CLAIM_RUNNERS, VerificationContext, run_all

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _primes(monkeypatch, *primes):
    """``certify_rank`` tries only ``primes`` from now on."""
    monkeypatch.setattr(exact_linalg, "CERTIFICATE_PRIMES", primes)


def test_rank_hands_back_pivot_pairs_of_a_nonsingular_minor(monkeypatch):
    _primes(monkeypatch, CERTIFICATE_PRIMES[0])
    m = SparseMatrix.from_dense([[0, 2, 0, 1], [3, 0, 0, 0], [3, 2, 0, 1], [0, 0, 5, 5]])
    for matrix in (m, m.transpose()):
        found = {}
        assert rank(matrix, independent=found) == len(found) == 3
        minor = [[matrix.entries.get((r, c), 0) for c in found] for r in found.values()]
        assert rank(SparseMatrix.from_dense(minor)) == 3
        assert certify_rank(matrix, found) == 3


def test_a_singular_faked_minor_raises(monkeypatch):
    m = SparseMatrix.from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert rank(m) == 2
    with pytest.raises(ConsistencyError):
        certify_rank(m, {0: 0, 1: 1})
    # the pivot pairs of the elimination pass, on the first prime alone
    found = {}
    rank(m, independent=found)
    _primes(monkeypatch, CERTIFICATE_PRIMES[0])
    assert certify_rank(m, found) == 2
    with pytest.raises(ConsistencyError):
        certify_rank(SparseMatrix.from_dense([[1, 0], [0, 0]]), {0: 0, 1: 1})


@pytest.mark.parametrize("entries", [
    [[CERTIFICATE_PRIMES[0]]],
    [[Fraction(1, CERTIFICATE_PRIMES[0])]],
    # the determinant is the first prime, so only the last pivot vanishes
    [[1, 1], [1, 1 + CERTIFICATE_PRIMES[0]]],
])
def test_a_prime_that_divides_the_minor_or_a_denominator_moves_on(monkeypatch, entries):
    """The first prime proves nothing on these, the second proves the rank,
    and so do the primes in order."""
    first, second = CERTIFICATE_PRIMES[:2]
    m = SparseMatrix.from_dense(entries)
    pivots = {c: c for c in range(m.cols)}
    assert certify_rank(m, pivots) == m.cols
    _primes(monkeypatch, first)
    with pytest.raises(ConsistencyError):
        certify_rank(m, pivots)
    _primes(monkeypatch, second)
    assert certify_rank(m, pivots) == m.cols


def test_no_prime_left_raises():
    product = 1
    for p in CERTIFICATE_PRIMES:
        product *= p
    with pytest.raises(ConsistencyError):
        certify_rank(SparseMatrix.from_dense([[product]]), {0: 0})


@pytest.mark.parametrize("k, ranks, dims, degrees", [
    # d_1 of full rank 2 (2 x 3)
    (1, [0, 2, 1], [2, 3, 1], (1,)),
    # b_1 = 3 - 2 - 1 = 0 pins d_2 and d_1 both
    (2, [0, 1, 2], [2, 3, 4], (1, 2)),
    (1, [0, 1, 2, 1], [2, 3, 4, 2], (1, 2)),
    # b_1 = 1 and b_2 = 0: d_2 is pinned from above only
    (2, [0, 1, 1, 3], [2, 3, 4, 5], (2, 3)),
    # b_1 = 1 and no d_3 built: nothing pins d_2
    (2, [0, 1, 1], [2, 3, 4], ()),
])
def test_pinning_degrees(k, ranks, dims, degrees):
    assert pinning_degrees(k, ranks.__getitem__, dims) == degrees


def _transposed_shapes(monkeypatch):
    """The shape of each block whose transpose the complexes rank."""
    seen = []
    original = BlockMemo.rank

    def spy(self, block, record, compute):
        if record == "transposed":
            def counted():
                seen.append((block.rows, block.cols))
                return compute()

            return original(self, block, record, counted)
        return original(self, block, record, compute)

    monkeypatch.setattr(BlockMemo, "rank", spy)
    return seen


def _certificates(monkeypatch):
    """The (fingerprint, rows, cols) of each block ``certify_rank`` proves,
    in turn."""
    seen = []
    original = chain_complexes.certify_rank

    def spy(m, pivots):
        seen.append((m.fingerprint(), m.rows, m.cols))
        return original(m, pivots)

    monkeypatch.setattr(chain_complexes, "certify_rank", spy)
    return seen


def _ranked_blocks(complex_, degrees):
    """The (fingerprint, rows, cols) of the ranked blocks of ``degrees``
    that have entries."""
    blocks = [complex_._ranked.block(k) for k in degrees]
    return [(b.fingerprint(), b.rows, b.cols) for b in blocks if b.entries]


@pytest.mark.parametrize("n, cap", [(1, 2), (2, 4)])
def test_an_unpinned_rank_is_the_transposed_rank_of_its_block_alone(tmp_path, monkeypatch, n, cap):
    """At an even cap at most 2n, b_cap = 1 sits below the built degree
    cap + 1, so no computed Betti number 0 pins d_(cap+1): cobetti ranks
    that block transposed, and no other; every forward rank through
    d_(cap+1) is certified once.  A warm rerun reads that rank and
    eliminates no block worth caching."""
    seen = _transposed_shapes(monkeypatch)
    certified = _certificates(monkeypatch)
    ctx = VerificationContext(cache=DiffCache(tmp_path), entry_cap=10**9)
    assert CLAIM_RUNNERS["thm-4.3"](ctx, n, cap=cap).passed
    complex_ = ctx.complex("leibniz", "g", n, cap + 1)
    top = complex_._ranked.block(cap + 1)
    assert seen == [(top.rows, top.cols)]
    assert pinning_degrees(cap + 1, complex_._block_rank_of, complex_.block_dims) == ()
    counts = Counter(certified)
    assert all(counts[b] == 1 for b in _ranked_blocks(complex_, range(1, cap + 2)))
    assert complex_.proved_rank_d(cap + 1) == complex_.rank_d(cap + 1)

    eliminated = []
    original = chain_complexes.rank

    def counted(m, *args, **kwargs):
        eliminated.append(min(m.rows, m.cols))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(chain_complexes, "rank", counted)
    warm = VerificationContext(cache=DiffCache(tmp_path), entry_cap=10**9)
    assert CLAIM_RUNNERS["thm-4.3"](warm, n, cap=cap).passed
    assert all(size <= 1 for size in eliminated)


def test_the_fallback_is_independent_of_the_forward_rank():
    """At n = 1, cap 2 nothing pins d_3, so cobetti ranks its transpose on
    its own: a forward rank d_3 one too small raises betti(2) to 2, while
    cobetti(2) still reads the true value, 1."""
    complex_ = VerificationContext().complex("leibniz", "g", 1, 3)
    complex_.rank_d(3)
    complex_._ranks[3] -= 1
    assert betti(complex_, 2) == 2
    assert cobetti(complex_, 2) == 1


def _benchmark_claims():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLAIMS


@pytest.mark.parametrize("n", [1, 2])
def test_at_the_benchmark_caps_every_rank_cobetti_reads_is_certified_and_pinned(
    monkeypatch, n
):
    seen = _transposed_shapes(monkeypatch)
    certified = _certificates(monkeypatch)
    ctx = VerificationContext()
    for claim_id, params in _benchmark_claims()[n]:
        assert CLAIM_RUNNERS[claim_id](ctx, n, **params).passed
    assert seen == []
    complex_ = ctx._complexes[("leibniz", "g", n)]
    degrees = range(1, complex_.cap + 1)
    assert all(pinning_degrees(k, complex_._block_rank_of, complex_.block_dims) for k in degrees)
    assert set(_ranked_blocks(complex_, degrees)) <= set(certified)
    assert [cobetti(complex_, k) for k in degrees] == [betti(complex_, k) for k in degrees]


def test_a_warm_run_reads_the_certificate_and_checks_nothing(tmp_path, monkeypatch):
    ctx = VerificationContext(cache=DiffCache(tmp_path))
    assert CLAIM_RUNNERS["thm-4.3"](ctx, 1, cap=5).passed
    certified = []

    def refused(m, pivots):
        certified.append(m.fingerprint())
        raise AssertionError("certificate checked again")

    monkeypatch.setattr(chain_complexes, "certify_rank", refused)
    warm = VerificationContext(cache=DiffCache(tmp_path))
    assert CLAIM_RUNNERS["thm-4.3"](warm, 1, cap=5).passed
    assert certified == []


@pytest.mark.parametrize("n", [1, 2])
def test_each_forward_rank_is_certified_once_where_it_is_computed(tmp_path, monkeypatch, n):
    """A cold ``run_all`` proves each block it eliminates, once, and no
    other; a warm rerun reads every certified rank worth caching, so it
    proves only the blocks too small to cache."""
    certified = _certificates(monkeypatch)
    eliminated = []
    original = chain_complexes.rank

    def counted(m, *args, **kwargs):
        eliminated.append((m.fingerprint(), m.rows, m.cols))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(chain_complexes, "rank", counted)
    assert all(r.passed for r in run_all(VerificationContext(cache=DiffCache(tmp_path)), n))
    assert certified and Counter(certified) == Counter(eliminated)
    assert set(Counter(certified).values()) == {1}

    certified.clear()
    eliminated.clear()
    assert all(r.passed for r in run_all(VerificationContext(cache=DiffCache(tmp_path)), n))
    assert Counter(certified) == Counter(eliminated)
    assert not any(worth_caching(rows, cols) for _, rows, cols in certified)


def test_a_faked_pivot_fails_its_certificate(monkeypatch):
    """A pivot pair that the elimination did not hand back, one dependent
    column more than the rank, makes ``rank_d`` raise instead of returning
    a rank one too large."""
    original = ChainComplex._pivot_pairs

    def faked(self, k):
        pairs = original(self, k)
        if k < self.cap:
            return pairs
        block = self._ranked.block(k)
        col = next(c for c in range(block.cols) if c not in pairs)
        row = next(r for r in range(block.rows) if r not in pairs.values())
        return {**pairs, col: row}

    monkeypatch.setattr(ChainComplex, "_pivot_pairs", faked)
    complex_ = VerificationContext().complex("leibniz", "g", 1, 4)
    with pytest.raises(ConsistencyError):
        complex_.rank_d(4)
