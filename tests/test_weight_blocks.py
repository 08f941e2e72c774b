"""Ranks from the Cartan weight-0 block against the full differentials.

The full matrices, assembled over all words by ``full_oracle``, are the
oracle: every block-derived ``rank_d``, and the rank of the transpose of
its block (``certificate_oracle.transposed_rank``), must equal the rank of
the full d_k and of its transpose.  For the kernel complexes at
n = 2 the oracle is the stacked full identity rank([d_k; pi_k]) - rank pi_k,
which the n = 1 cases and ``test_chain_complexes`` tie to the explicit
restriction.  The closed-form kernel dimensions, the membership tests and
the representatives are checked against the same oracle, and no production
path may assemble all words.
"""

import ast
import re

import pytest
from hypothesis import given, settings, strategies as st

from affsymp.chain_complexes import (
    Chain,
    ce_complex,
    coeff_complex,
    cr_complex,
    leibniz_complex,
    rel_complex,
)
from affsymp.errors import ConsistencyError
from affsymp.exact_linalg import QVector, Rational, rank
from affsymp.homology import class_coordinates, homology_reps, is_boundary, is_cycle
from affsymp.invariants import omega_power, omega_tilde
from affsymp.lie_structures import (
    LieAlgebra,
    adjoint_module,
    cartan_weights,
    exterior_power_module,
    restriction_module,
    submodule,
    trivial_module,
)

import full_oracle
from certificate_oracle import certified_rank, transposed_rank
from full_oracle import full_block, full_d, full_projection, restricted_d


def _ideal_wedge(g, over, k):
    """Lambda^k of the constants, over g itself or restricted to ``over``,
    the sp of g."""
    algebra, split = g
    adj = adjoint_module(algebra)
    if over is not algebra:
        adj = restriction_module(adj, split.quotient_indices, over)
    return exterior_power_module(submodule(adj, split.ideal_indices), k)


def _complexes(g, sp, cap, kernel_cap):
    algebra = g[0]
    out = []
    for a in (algebra, sp):
        out.append(ce_complex(a, cap))
        out.append(leibniz_complex(a, cap))
        out.append(coeff_complex(a, adjoint_module(a), cap))
        out.append(coeff_complex(a, trivial_module(a), cap))
        out.append(rel_complex(a, kernel_cap))
        out.append(cr_complex(a, kernel_cap))
    for k in range(len(g[1].ideal_indices) + 1):
        out.append(coeff_complex(algebra, _ideal_wedge(g, algebra, k), cap))
        out.append(coeff_complex(sp, _ideal_wedge(g, sp, k), cap))
    return out


def _full_rank(complex_, k, transposed, explicit_kernels):
    if complex_.kind in ("rel", "cr") and not explicit_kernels:
        stacked = full_block(complex_, k)
        pi = full_projection(complex_, k)
        if transposed:
            return rank(stacked.transpose()) - rank(pi.transpose())
        return rank(stacked) - rank(pi)
    if complex_.kind in ("rel", "cr"):
        full = restricted_d(complex_, k)
    else:
        full = full_d(complex_, k)
    return rank(full.transpose() if transposed else full)


def _assert_blocks_match(complexes, explicit_kernels):
    """Every degree through each complex's cap."""
    graded = 0
    for complex_ in complexes:
        graded += complex_.block_dims != complex_.dims
        for k in range(1, complex_.cap + 1):
            oracle = transposed_rank(complex_, k)
            for transposed, got in ((False, complex_.rank_d(k)), (True, oracle)):
                assert got == _full_rank(complex_, k, transposed, explicit_kernels), (
                    complex_.name, k, transposed,
                )
            assert certified_rank(complex_, k) == oracle, (complex_.name, k)
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
        complexes.append(coeff_complex(a, adjoint_module(a), 3))
        complexes.append(coeff_complex(a, trivial_module(a), 3))
        complexes.append(rel_complex(a, 1))
        complexes.append(cr_complex(a, 2))
    for k in (1, 2):
        complexes.append(coeff_complex(sp2, _ideal_wedge(g2, sp2, k), 3))
    _assert_blocks_match(complexes, explicit_kernels=False)


def test_ungraded_algebra_is_one_block(i1):
    complex_ = leibniz_complex(i1, 3)
    assert complex_.block_dims == complex_.dims
    assert complex_.block(3) == full_d(complex_, 3)


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
        # the module-action terms of coeff_d leave the set first
        lambda a: coeff_complex(a, adjoint_module(a), 2),
        lambda a: rel_complex(a, 1),
        lambda a: cr_complex(a, 1),
    )
    for build in builders:
        with pytest.raises(ConsistencyError, match="leaves the assembled word set") as caught:
            build(broken)
        # the message names the word, decoded from its code
        named = re.fullmatch(r"the image (.*) of a degree-\d+ word .*", str(caught.value))
        word = ast.literal_eval(named.group(1))
        if word and isinstance(word[-1], tuple):  # a module-wedge word (m, letters)
            word = (word[0], *word[1])
        assert type(word) is tuple and all(type(a) is int for a in word), caught.value


@pytest.mark.parametrize(
    "family, n, top",
    [("g", 1, 3), ("sp", 1, 3), ("g", 2, 2), ("sp", 2, 2)],
)
def test_closed_form_kernel_dims_match_full_projections(g1, sp1, g2, sp2, family, n, top):
    algebra = {("g", 1): g1[0], ("sp", 1): sp1, ("g", 2): g2[0], ("sp", 2): sp2}[(family, n)]
    for builder in (rel_complex, cr_complex):
        complex_ = builder(algebra, top)
        for m in range(top + 1):
            pi = full_projection(complex_, m)
            assert complex_.dims[m] == pi.cols - rank(pi), (complex_.name, m)


def test_a_projection_that_is_not_onto_is_caught(g1):
    from affsymp.chain_complexes import KernelComplex
    from affsymp.exact_linalg import SparseMatrix

    good = rel_complex(g1[0], 0)
    pi = full_projection(good, 0)
    # one more target row that nothing maps to
    short = SparseMatrix(pi.rows + 1, pi.cols, pi.entries)
    with pytest.raises(ConsistencyError, match="not onto"):
        KernelComplex("rel", "short", [pi.cols - pi.rows - 1], {}, {0: short}, {}, good.bases, 0)


# ---------------------------------------------------------------------------
# membership on blocks against the full oracle
# ---------------------------------------------------------------------------


def _same_membership(complex_, chain, reps=None):
    assert is_cycle(complex_, chain) == full_oracle.is_cycle(complex_, chain)
    assert is_boundary(complex_, chain) == full_oracle.is_boundary(complex_, chain)
    if reps is not None:
        assert class_coordinates(complex_, chain, reps) == full_oracle.class_coordinates(
            complex_, chain, reps
        )


@pytest.mark.parametrize("n", [1, 2])
def test_bivector_membership_matches_the_oracle(g1, g2, n):
    algebra = (g1 if n == 1 else g2)[0]
    leibniz = leibniz_complex(algebra, 3)
    lift = omega_tilde(n)
    reps = homology_reps(leibniz, 2)
    assert reps == full_oracle.homology_reps(leibniz, 2)
    assert is_cycle(leibniz, lift) and not is_boundary(leibniz, lift)
    _same_membership(leibniz, lift, reps)
    lie = ce_complex(algebra, 2 * n + 1)
    for q in range(n + 1):
        power = omega_power(n, q, ambient_dim=algebra.dim)
        _same_membership(lie, power, homology_reps(lie, 2 * q))


def test_reps_match_the_oracle(g1, sp1):
    """Weight-0 representatives mapped to full indices are the ones the full
    complex gives: both word orders are lexicographic."""
    algebra = g1[0]
    complexes = [
        ce_complex(algebra, 5),
        leibniz_complex(algebra, 4),
        coeff_complex(algebra, adjoint_module(algebra), 4),
        coeff_complex(sp1, _ideal_wedge(g1, sp1, 2), 4),
        rel_complex(algebra, 3),
        cr_complex(algebra, 2),
    ]
    for complex_ in complexes:
        for k in range(complex_.cap):
            assert homology_reps(complex_, k) == full_oracle.homology_reps(complex_, k), (
                complex_.name, k,
            )


@pytest.fixture(scope="module")
def membership_cases(g1, sp1):
    """(complex, degree, boundaries, reps): full-oracle boundaries of every
    weight, and the representatives, below each cap."""
    algebra = g1[0]
    complexes = [
        leibniz_complex(algebra, 3),
        ce_complex(algebra, 4),
        coeff_complex(algebra, adjoint_module(algebra), 3),
        coeff_complex(sp1, _ideal_wedge(g1, sp1, 2), 3),
        rel_complex(algebra, 2),
        cr_complex(algebra, 2),
    ]
    cases = []
    for complex_ in complexes:
        for k in range(complex_.cap):
            d_next = full_oracle.full_d(complex_, k + 1)
            if complex_.kind in ("rel", "cr"):
                sources = full_oracle.kernel_vectors(complex_, k + 1)
            else:
                sources = [QVector.unit(d_next.cols, j) for j in range(d_next.cols)]
            boundaries = [v for v in (d_next.apply(s) for s in sources) if not v.is_zero]
            cases.append((complex_, k, boundaries, homology_reps(complex_, k)))
    return cases


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_weight_membership_matches_the_oracle(membership_cases, data):
    # indices, not the objects, keep the drawn examples' reprs short
    case = data.draw(st.integers(0, len(membership_cases) - 1))
    complex_, k, boundaries, reps = membership_cases[case]
    length = len(complex_.basis(k))
    coefficient = st.integers(-2, 2).map(Rational)
    vector = QVector.zero(length)
    if boundaries:
        for b in data.draw(st.lists(st.integers(0, len(boundaries) - 1), max_size=3)):
            vector = vector.add(boundaries[b].scale(data.draw(coefficient)))
    for rep in reps:
        vector = vector.add(rep.vector.scale(data.draw(coefficient)))
    for i in data.draw(st.lists(st.integers(0, length - 1), max_size=2)):
        vector = vector.add(QVector.unit(length, i).scale(data.draw(coefficient)))
    _same_membership(complex_, Chain(k, vector), reps)


# ---------------------------------------------------------------------------
# no production path assembles all words
# ---------------------------------------------------------------------------


def test_no_production_path_assembles_all_words(monkeypatch, capsys):
    """Every assembler raises when it is handed all words of an algebra, or
    none; the claims and every homology theory still run over g_1 and sp_1,
    whose every complex is graded."""
    import affsymp.chain_complexes as chain_complexes
    from affsymp.cli import main
    from affsymp.theorems import VerificationContext, run_all

    def forbid(assemble):
        def blocks_only(algebra, k, entry_cap=None, words=None):
            if words is None or not words.graded:
                raise AssertionError(f"{assemble.__name__} assembled all words")
            return assemble(algebra, k, entry_cap, words)

        return blocks_only

    for name in (
        "ce_d", "leibniz_d", "coeff_d",
        "wedge_projection", "partial_wedge_projection", "mixed_projection",
    ):
        monkeypatch.setattr(chain_complexes, name, forbid(getattr(chain_complexes, name)))
    assert all(report.passed for report in run_all(VerificationContext(), 1))
    theories = ["lie", "leibniz", "adjoint", "coeff:trivial", "coeff:adjoint", "rel", "cr"]
    theories += [f"coeff:I^{k}" for k in range(3)]
    for family in ("g", "sp"):
        for theory in theories:
            argv = [
                "homology", "--family", family, "--n", "1", "--theory", theory,
                "--max-degree", "2", "--emit-cycles", "--format", "json",
            ]
            assert main(argv) == 0, (family, theory, capsys.readouterr().err)
    capsys.readouterr()
