"""One ``VerificationContext`` builds, reads and d o d-checks each weight
block once: ``rel`` and ``cr`` take their ambient differentials from
``leibniz`` and ``adjoint`` and their targets from ``lie``, through the
context's ``BlockMemo``.  Fresh contexts are the oracle for every rank."""

import collections

import pytest

import affsymp.chain_complexes as chain_complexes
from affsymp.cache import DiffCache
from affsymp.errors import DomainError, ResourceLimitError
from affsymp.homology import betti, cobetti
from affsymp.theorems import VerificationContext, run_all

THEORIES = ("leibniz", "adjoint", "lie", "rel", "cr")


def _numbers(complex_):
    degrees = range(complex_.cap + 1)
    return (
        [complex_.rank_d(k) for k in degrees],
        [complex_.rank_d_transposed(k) for k in degrees],
        [betti(complex_, k) for k in degrees],
        [cobetti(complex_, k) for k in degrees],
    )


@pytest.fixture
def spied(monkeypatch):
    """Counts the ``_assemble`` calls by block descriptor (row and column
    kinds and degrees, grading, total weight) and the ``products_cancel``
    calls of the build-time checks by the objects of each of their terms."""
    assembled = collections.Counter()
    products = collections.Counter()
    operands = []  # kept alive, so no id is reused
    assemble, products_cancel = chain_complexes._assemble, chain_complexes.products_cancel

    def counted_assemble(words, col_kind, k, row_kind, row_k, *rest):
        grading = (tuple(words.letter_weights), tuple(words.module_weights), words.total)
        assembled[(col_kind, k, row_kind, row_k, grading)] += 1
        return assemble(words, col_kind, k, row_kind, row_k, *rest)

    def counted_products_cancel(terms):
        terms = list(terms)
        operands.append(terms)
        products[tuple((id(a), id(b)) for _, a, b in terms)] += 1
        return products_cancel(terms)

    monkeypatch.setattr(chain_complexes, "_assemble", counted_assemble)
    monkeypatch.setattr(chain_complexes, "products_cancel", counted_products_cancel)
    return assembled, products


@pytest.mark.parametrize("family, cap", [("g", 4), ("sp", 3)])
def test_one_context_assembles_and_checks_each_block_once(spied, family, cap):
    assembled, products = spied
    ctx = VerificationContext()
    numbers = {t: _numbers(ctx.complex(t, family, 1, cap)) for t in THEORIES}
    assert assembled and set(assembled.values()) == {1}
    assert products and set(products.values()) == {1}
    shared = sum(assembled.values()), sum(products.values())

    assembled.clear()
    products.clear()
    for theory in THEORIES:
        assert _numbers(VerificationContext().complex(theory, family, 1, cap)) == numbers[theory]
    # the fresh contexts rebuild and recheck what the shared one did once
    assert sum(assembled.values()) > shared[0]
    assert sum(products.values()) > shared[1]


def test_kernel_complexes_reuse_the_block_objects(spied):
    ctx = VerificationContext()
    leibniz = ctx.complex("leibniz", "g", 1, 5)
    adjoint = ctx.complex("adjoint", "g", 1, 4)
    lie = ctx.complex("lie", "g", 1, 5)
    rel = ctx.complex("rel", "g", 1, 3)
    cr = ctx.complex("cr", "g", 1, 3)
    again = chain_complexes.rel_complex(rel.basis(0).algebra, 3, blocks=ctx.blocks)
    for m in range(1, 4):
        assert rel._ambient.block(m) is leibniz.block(m + 2)
        assert cr._ambient.block(m) is adjoint.block(m + 1)
        assert rel._target.block(m) is lie.block(m + 2)
        assert cr._target.block(m) is lie.block(m + 2)
        # the restricted differentials are made again from those blocks
        assert again.block(m) == rel.block(m)


def test_cr_takes_the_context_adjoint_module(monkeypatch):
    """cr is built over the context's adjoint module, so no action matrix
    of a second copy is serialized to fingerprint it; a module of another
    algebra is refused."""
    from affsymp.exact_linalg import SparseMatrix

    ctx = VerificationContext()
    module = ctx.module("adjoint", "g", 1)
    module.fingerprint()

    def refused(self):
        raise AssertionError("a matrix was serialized")

    monkeypatch.setattr(SparseMatrix, "to_text", refused)
    cr = ctx.complex("cr", "g", 1, 3)
    assert cr.basis(0).module is module
    monkeypatch.undo()
    with pytest.raises(DomainError):
        chain_complexes.cr_complex(
            ctx.algebra("g", 1), 3, module=ctx.module("adjoint", "sp", 1)
        )


def _records(path):
    return {
        str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*")) if f.is_file()
    }


def test_disk_records_do_not_depend_on_the_build_order(tmp_path, monkeypatch):
    """A lie block first built as a target of cr, which never writes, is
    still written when lie asks for it; a warm rerun neither misses nor
    writes."""
    shared, apart = tmp_path / "shared", tmp_path / "apart"
    ctx = VerificationContext(cache=DiffCache(shared))
    first = [betti(ctx.complex(t, "g", 1, 4), 2) for t in ("cr", "rel", "lie")]
    for theory in ("cr", "rel", "lie"):
        betti(VerificationContext(cache=DiffCache(apart)).complex(theory, "g", 1, 4), 2)
    assert _records(shared) == _records(apart)

    calls = []
    for method in ("get_matrix", "get_rank", "put_matrix", "put_rank"):
        def spy(self, *args, _method=method, _original=getattr(DiffCache, method)):
            got = _original(self, *args)
            calls.append((_method, got is None))
            return got

        monkeypatch.setattr(DiffCache, method, spy)
    cold = _records(shared)
    ctx = VerificationContext(cache=DiffCache(shared))
    assert [betti(ctx.complex(t, "g", 1, 4), 2) for t in ("cr", "rel", "lie")] == first
    assert calls and {method for method, _ in calls} == {"get_matrix", "get_rank"}
    assert not any(missed for _, missed in calls)
    assert _records(shared) == cold


def test_restricted_differentials_are_derived_never_written(tmp_path, monkeypatch):
    """rel and cr, built against a cache that holds their ambient and
    target blocks, write no matrix: their restricted differentials are made
    from those blocks.  A fresh context is the oracle for their ranks."""
    cache = DiffCache(tmp_path)
    ctx = VerificationContext(cache=cache)
    for theory, cap in (("leibniz", 5), ("adjoint", 4), ("lie", 5)):
        ctx.complex(theory, "g", 1, cap)

    written = []
    put_matrix = DiffCache.put_matrix

    def spy(self, kind, key, matrix):
        written.append((kind, key))
        put_matrix(self, kind, key, matrix)

    monkeypatch.setattr(DiffCache, "put_matrix", spy)
    ctx = VerificationContext(cache=cache)
    for theory in ("rel", "cr"):
        got = _numbers(ctx.complex(theory, "g", 1, 3))
        assert got == _numbers(VerificationContext().complex(theory, "g", 1, 3))
    assert written == []


def test_entry_guard_holds_for_a_block_shared_from_an_earlier_complex(spied):
    """rel(g_1) through degree 3 needs Leibniz d_5, which leibniz(g_1)
    built; under a smaller cap its estimate still aborts, before any
    Leibniz block is assembled again."""
    assembled, _ = spied
    ctx = VerificationContext()
    ctx.complex("leibniz", "g", 1, 5)
    tensor = sum(v for key, v in assembled.items() if key[0] == key[2] == "tensor")
    ctx.blocks.entry_cap = 2000
    with pytest.raises(ResourceLimitError):
        ctx.complex("rel", "g", 1, 3)
    assert sum(v for key, v in assembled.items() if key[0] == key[2] == "tensor") == tensor


def _spy_on_the_cache(monkeypatch):
    """The directory of every ``DiffCache`` read and write, in call order."""
    used = []
    for method in ("get_matrix", "get_rank", "put_matrix", "put_rank"):
        def spy(self, *args, _original=getattr(DiffCache, method)):
            used.append(self.path)
            return _original(self, *args)

        monkeypatch.setattr(DiffCache, method, spy)
    return used


def test_a_memo_reads_and_writes_only_its_own_cache(g1, tmp_path, monkeypatch):
    """leibniz, rel and cr of g_1 built through one memo go to its cache
    alone, cold and warm, and a second memo over a cache not given to any
    builder leaves that cache empty; the Betti numbers are those of a build
    without a cache."""
    mine, other = DiffCache(tmp_path / "mine"), DiffCache(tmp_path / "other")
    used = _spy_on_the_cache(monkeypatch)
    builders = (chain_complexes.leibniz_complex, chain_complexes.rel_complex,
                chain_complexes.cr_complex)
    expected = [[betti(build(g1[0], 3), k) for k in range(3)] for build in builders]
    assert used == []
    for _ in ("cold", "warm"):
        memo = chain_complexes.BlockMemo(mine, 10**6)
        got = [[betti(build(g1[0], 3, blocks=memo), k) for k in range(3)] for build in builders]
        assert got == expected
    assert used and set(used) == {mine.path}
    assert mine.stats()["rank"]["files"] > 0 and other.stats()["total_bytes"] == 0


def test_a_lowered_memo_cap_aborts_a_shared_block_also_from_a_warm_cache(g1, tmp_path):
    """rel(g_1) through degree 3 needs Leibniz d_5, which leibniz(g_1) put
    in the memo and on disk.  Under a lowered cap the block's estimate still
    aborts, whether the memo holds the block or a fresh memo would read it
    back; at the default cap the warm build passes."""
    memo = chain_complexes.BlockMemo(DiffCache(tmp_path))
    chain_complexes.leibniz_complex(g1[0], 5, blocks=memo)
    memo.entry_cap = 2000
    with pytest.raises(ResourceLimitError):
        chain_complexes.rel_complex(g1[0], 3, blocks=memo)
    warm = chain_complexes.BlockMemo(DiffCache(tmp_path), 2000)
    with pytest.raises(ResourceLimitError):
        chain_complexes.rel_complex(g1[0], 3, blocks=warm)
    warm.entry_cap = None
    assert betti(chain_complexes.rel_complex(g1[0], 3, blocks=warm), 2) == 1


def test_a_builder_without_a_memo_touches_no_cache(g1, monkeypatch):
    used = _spy_on_the_cache(monkeypatch)
    algebra = g1[0]
    for complex_ in (
        chain_complexes.ce_complex(algebra, 4),
        chain_complexes.leibniz_complex(algebra, 4),
        chain_complexes.coeff_complex(algebra, chain_complexes.adjoint_module(algebra), 3),
        chain_complexes.rel_complex(algebra, 3),
        chain_complexes.cr_complex(algebra, 3),
    ):
        assert complex_.blocks.cache is None and complex_.blocks.entry_cap is None
        _numbers(complex_)
    assert used == []


def test_cartan_weights_run_once_per_algebra_and_module(monkeypatch):
    counted = collections.Counter()
    cartan_weights = chain_complexes.cartan_weights

    def counted_cartan_weights(algebra, module=None):
        counted[(algebra.fingerprint(), module and module.fingerprint())] += 1
        return cartan_weights(algebra, module)

    monkeypatch.setattr(chain_complexes, "cartan_weights", counted_cartan_weights)
    assert all(report.passed for report in run_all(VerificationContext(), 2))
    assert counted and set(counted.values()) == {1}
    assert any(module is None for _, module in counted)
