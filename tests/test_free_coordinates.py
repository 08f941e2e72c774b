"""The kernel complexes rel and cr in free-word coordinates, against the
stacked path they replaced, which is kept here as the oracle.

That path ranked [d_k; pi_k] and subtracted rank pi_k, and took the cycles
from ``kernel_basis([d_k; pi_k])`` (``kernel_basis(pi_0)`` at degree 0).
The blocks are now the restricted differentials D'_k, whose columns are the
free words of ``chain_complexes._FreeWords``.  Representatives and
``--emit-cycles`` stay byte-identical because, with the highest column of
each projection row as its pivot, the lifted reduced echelon kernel basis of
D'_k is the stacked one; with the lowest column it is not.
"""

import pytest

from affsymp.chain_complexes import Chain, KernelComplex, cr_complex, rel_complex
from affsymp.errors import ConsistencyError
from affsymp.exact_linalg import QVector, SparseMatrix, kernel_basis, rank, stack_rows

# the caps at which ``verify all`` builds them: rel-homology and exactness
# take rel to cap 3 at n = 1 and to cap 2 at n = 2, lemma-4.2 and exactness
# take cr to cap 3
CAPS = {1: {"rel": 3, "cr": 3}, 2: {"rel": 2, "cr": 3}}
BUILDERS = {"rel": rel_complex, "cr": cr_complex}


@pytest.mark.parametrize("theory", ["rel", "cr"])
@pytest.mark.parametrize("family, n", [("g", 1), ("sp", 1), ("g", 2), ("sp", 2)])
def test_free_coordinates_match_the_stacked_blocks(request, family, n, theory):
    built = request.getfixturevalue(f"{family}{n}")
    algebra = built[0] if family == "g" else built
    complex_ = BUILDERS[theory](algebra, CAPS[n][theory])
    lifts = complex_._free_words(0).lifts
    units = [QVector.unit(lifts.cols, i) for i in range(lifts.cols)]
    assert [lifts.apply(v) for v in units] == kernel_basis(complex_._projection.block(0))
    for k in range(1, complex_.cap + 1):
        pi = complex_._projection.block(k)
        stacked = stack_rows([complex_._ambient.block(k), pi])
        restricted = complex_.block(k)
        lifted = [complex_._free_words(k).lifts.apply(v) for v in kernel_basis(restricted)]
        assert lifted == kernel_basis(stacked), (complex_.name, k)
        for orient in (lambda m: m, SparseMatrix.transpose):
            expected = rank(orient(stacked)) - rank(orient(pi))
            assert rank(orient(restricted)) == expected, (complex_.name, k)


def test_the_lifts_of_the_free_words_span_the_kernel():
    # row 0 holds columns 0 and 2, so column 2 is its pivot; column 1 has
    # no entry; row 1 holds column 3 alone
    pi = SparseMatrix(2, 4, {(0, 0): 1, (0, 2): -1, (1, 3): -1})
    complex_ = KernelComplex("rel", "small", [2], {}, {0: pi}, {}, {0: None}, 0)
    words = complex_._free_words(0)
    assert words.free == [0, 1]
    lifts = [words.lifts.apply(QVector.unit(2, i)) for i in range(2)]
    assert lifts == [QVector.from_dict(4, {0: 1, 2: 1}), QVector.unit(4, 1)]
    assert all(pi.apply(v).is_zero for v in lifts)
    chains = [complex_.components(Chain(0, v)) for v in lifts]
    assert chains == [{(): QVector.unit(2, 0)}, {(): QVector.unit(2, 1)}]
    assert complex_.components(Chain(0, QVector.unit(4, 0))) is None


@pytest.mark.parametrize(
    "entries, message",
    [
        # a column with two entries
        ({(0, 0): 1, (1, 0): 1, (1, 1): 1}, "one word or 0"),
        # an entry of 2
        ({(0, 0): 2, (1, 1): 1}, "one word or 0"),
        # a row with no entry
        ({(0, 0): 1, (0, 1): -1}, "not onto"),
    ],
)
def test_a_projection_that_is_not_a_signed_word_map_is_caught(entries, message):
    pi = SparseMatrix(2, 2, entries)
    with pytest.raises(ConsistencyError, match=message):
        KernelComplex("rel", "bad", [0], {}, {0: pi}, {}, {0: None}, 0)


def test_a_projection_above_degree_zero_is_checked_too():
    good = SparseMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    bad = SparseMatrix(1, 2, {(0, 0): 1, (0, 1): 2})
    with pytest.raises(ConsistencyError, match="projection at degree 1"):
        KernelComplex(
            "rel", "bad", [1, 1], {1: SparseMatrix.zero(2, 2)}, {0: good, 1: bad},
            {1: SparseMatrix.zero(1, 1)}, {0: None, 1: None}, 1,
        )
