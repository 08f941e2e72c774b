"""Ranks from the Cartan weight-0 block against the full differentials.

The full matrices, assembled over all words, are the oracle: every
block-derived ``rank_d`` and ``rank_d_transposed`` must equal the rank of the
full d_k and of its transpose.  For the kernel complexes at n = 2 the oracle
is the stacked full identity rank([d_k; pi_k]) - rank pi_k, which the n = 1
cases and ``test_chain_complexes`` tie to the explicit restriction.
"""

import pytest

from affsymp.chain_complexes import (
    ce_complex,
    coeff_complex,
    cr_complex,
    leibniz_complex,
    rel_complex,
)
from affsymp.errors import ConsistencyError
from affsymp.exact_linalg import SparseMatrix, rank, stack_rows
from affsymp.lie_structures import (
    LieAlgebra,
    adjoint_module,
    cartan_weights,
    exterior_power_module,
    restriction_module,
    submodule,
    trivial_module,
)
from affsymp.words import tensor_index


def _ideal_wedge(g, family, k):
    """Lambda^k of the constants, over g itself or restricted to sp."""
    algebra, split = g
    adj = adjoint_module(algebra, validate=False)
    if family == "g":
        base = submodule(adj, split.ideal_indices)
    else:
        base = submodule(restriction_module(adj, split.quotient_indices), split.ideal_indices)
    return exterior_power_module(base, k, validate=False)


def _complexes(g, sp, cap, kernel_cap):
    algebra = g[0]
    out = []
    for a in (algebra, sp):
        out.append(ce_complex(a, cap))
        out.append(leibniz_complex(a, cap))
        out.append(coeff_complex(a, adjoint_module(a, validate=False), cap))
        out.append(coeff_complex(a, trivial_module(a), cap))
        out.append(rel_complex(a, kernel_cap))
        out.append(cr_complex(a, kernel_cap))
    for k in range(len(g[1].ideal_indices) + 1):
        out.append(coeff_complex(algebra, _ideal_wedge(g, "g", k), cap))
        out.append(coeff_complex(sp, _ideal_wedge(g, "sp", k), cap))
    return out


def _full_rank(complex_, k, transposed, explicit_kernels):
    if complex_.kind in ("rel", "cr") and not explicit_kernels:
        stacked = stack_rows([complex_.ambient_d[k], complex_.projections[k]])
        pi = complex_.projections[k]
        if transposed:
            return rank(stacked.transpose()) - rank(pi.transpose())
        return rank(stacked) - rank(pi)
    full = complex_.d(k)
    return rank(full.transpose() if transposed else full)


def _assert_blocks_match(complexes, explicit_kernels):
    """Every degree through each complex's cap."""
    graded = 0
    for complex_ in complexes:
        graded += complex_.block_dims != complex_.dims
        for k in range(1, complex_.cap + 1):
            for transposed in (False, True):
                got = complex_.rank_d_transposed(k) if transposed else complex_.rank_d(k)
                assert got == _full_rank(complex_, k, transposed, explicit_kernels), (
                    complex_.name, k, transposed,
                )
    # the gradings are real: every complex here has a proper weight-0 block
    assert graded == len(complexes)


def test_blocks_match_full_ranks_n1(g1, sp1):
    _assert_blocks_match(_complexes(g1, sp1, 5, 3), explicit_kernels=True)


def test_blocks_match_full_ranks_n2(g2, sp2):
    # degree 3 of rel(g_2) is tensor degree 5, beyond the entry guard for
    # the full matrix, and the stacked full rank at degree 2 alone takes
    # tens of seconds; cr degree 3 is coefficient degree 4
    algebra = g2[0]
    complexes = []
    for a in (algebra, sp2):
        complexes.append(ce_complex(a, 3))
        complexes.append(leibniz_complex(a, 3))
        complexes.append(coeff_complex(a, adjoint_module(a, validate=False), 3))
        complexes.append(coeff_complex(a, trivial_module(a), 3))
        complexes.append(rel_complex(a, 1))
        complexes.append(cr_complex(a, 2))
    for k in (1, 2):
        complexes.append(coeff_complex(sp2, _ideal_wedge(g2, "sp", k), 3))
    _assert_blocks_match(complexes, explicit_kernels=False)


def test_ungraded_algebra_is_one_block(i1):
    complex_ = leibniz_complex(i1, 3)
    assert complex_.block_dims == complex_.dims
    assert complex_.block(3) is complex_.d(3)


def _broken(g1):
    """g_1 with [d/dx, d/dy] = d/dx instead of 0: the pair has weight 0,
    d/dx has weight -1, so the bracket no longer preserves the grading."""
    algebra = g1[0]
    brackets = {key: dict(coeffs) for key, coeffs in algebra.brackets.items()}
    assert (0, 1) not in brackets
    brackets[(0, 1)] = {0: 1}
    return LieAlgebra(algebra.dim, algebra.labels, brackets, validate=False)


def test_bracket_breaking_the_grading_is_caught(g1):
    broken = _broken(g1)
    # the grading element and the letter weights are unchanged
    assert cartan_weights(broken) == cartan_weights(g1[0])
    builders = (
        lambda a: ce_complex(a, 2),
        lambda a: leibniz_complex(a, 2),
        lambda a: coeff_complex(a, trivial_module(a), 2),
        lambda a: rel_complex(a, 1),
    )
    for build in builders:
        with pytest.raises(ConsistencyError, match="leaves the assembled word set"):
            build(broken)


def test_full_pairs_are_checked_once_built(g1, monkeypatch):
    import affsymp.chain_complexes as chain_complexes

    assemble = chain_complexes.leibniz_d
    # (0, 2) has weight 1 and (0, 0, 0) weight -3: the bump is off the block
    row = tensor_index((0, 2), 5)

    def tampered(algebra, k, entry_cap=None, words=None):
        matrix = assemble(algebra, k, entry_cap, words)
        if k == 3 and not words.graded:
            entries = dict(matrix.entries)
            entries[(row, 0)] = entries.get((row, 0), 0) + 1
            matrix = SparseMatrix(matrix.rows, matrix.cols, entries)
        return matrix

    monkeypatch.setattr(chain_complexes, "leibniz_d", tampered)
    complex_ = chain_complexes.leibniz_complex(g1[0], 3)
    assert complex_.rank_d(3) == rank(complex_.block(3)) + complex_._off_block_rank(3)
    complex_.d(2)
    with pytest.raises(ConsistencyError, match="d_2 o d_3"):
        complex_.d(3)
