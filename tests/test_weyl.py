"""Ranks on W~-orbit sums against the weight-0 block path.

Every complex of ``sp_n`` and ``g_n`` is ranked on the orbit sums of its
weight-0 words (``weyl``).  The oracle is the same complex over a copy of
the algebra with no ``weyl``, which ranks the weight-0 blocks themselves:
``rank_d`` and ``rank_d_transposed`` must agree in every degree, for all six
kinds.  The orbit counts are pinned, the action is refused where it would
give wrong numbers, and ``I_n`` gets none.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from affsymp.chain_complexes import (
    BlockMemo,
    ce_complex,
    coeff_complex,
    cr_complex,
    leibniz_complex,
    rel_complex,
)
from affsymp.errors import ConsistencyError
from affsymp.homology import betti
from affsymp.lie_structures import (
    LieAlgebra,
    _ideal_hamiltonians,
    _pushed,
    _preserves_brackets,
    _sp_hamiltonians,
    adjoint_module,
    build_I,
    cartan_weights,
    module_weyl,
    restriction_module,
    trivial_module,
    weyl_action,
    weyl_generators,
)
from affsymp.weyl import orbit_words
from affsymp.words import WordSet

from field_oracle import field_letters, ideal_fields, sp_fields
from test_weight_blocks import _ideal_wedge


def _bare(algebra):
    """The algebra with no ``weyl``: its complexes rank the weight-0 blocks."""
    return LieAlgebra(algebra.dim, algebra.labels, algebra.brackets, validate=False)


def _pairs(algebra, modules, caps):
    """(complex on orbit sums, complex on weight-0 blocks) of each kind."""
    bare = _bare(algebra)
    out = []
    # the guard estimates full matrices: Leibniz d_5 of g_2 is 10.8 million;
    # each complex gets a memo of its own
    def guard():
        return {"blocks": BlockMemo(entry_cap=10**8)}

    for a in (algebra, bare):
        built = [
            ce_complex(a, caps["lie"], **guard()),
            leibniz_complex(a, caps["leibniz"], **guard()),
            coeff_complex(a, adjoint_module(a), caps["adjoint"], **guard()),
            rel_complex(a, caps["rel"], **guard()),
            cr_complex(a, caps["cr"], **guard()),
        ]
        built += [coeff_complex(a, module, caps["coeff"], **guard()) for module in modules]
        out.append(built)
    return list(zip(*out))


CAPS = {
    1: {"lie": 6, "leibniz": 6, "adjoint": 5, "coeff": 5, "rel": 4, "cr": 4},
    2: {"lie": 6, "leibniz": 5, "adjoint": 5, "coeff": 4, "rel": 3, "cr": 4},
}


@pytest.mark.parametrize("family, n", [("g", 1), ("sp", 1), ("g", 2), ("sp", 2)])
def test_orbit_sums_rank_as_the_weight_zero_blocks(request, family, n):
    g = request.getfixturevalue(f"g{n}")
    algebra = g[0] if family == "g" else request.getfixturevalue(f"sp{n}")
    modules = [trivial_module(algebra)]
    modules += [_ideal_wedge(g, algebra, k) for k in range(1, 2 * n + 1)]
    checked = smaller = 0
    for orbits, blocks in _pairs(algebra, modules, CAPS[n]):
        assert orbits._ranked is not orbits._diffs and blocks._ranked is blocks._diffs
        assert sum(orbits.block_dims) <= sum(blocks.block_dims), orbits.name
        smaller += sum(orbits.block_dims) < sum(blocks.block_dims)
        for k in range(1, orbits.cap + 1):
            assert orbits.rank_d(k) == blocks.rank_d(k), (orbits.name, k)
            assert orbits.rank_d_transposed(k) == blocks.rank_d_transposed(k), (orbits.name, k)
            checked += 1
    # the action is real: most ranked families are smaller than the blocks
    assert checked >= 25 and smaller >= 5


def test_orbit_counts_are_pinned(g1, g2):
    """The live orbits of the weight-0 Leibniz words: 8,135 words of g_1 in
    degree 7 and 16,432 of g_2 in degree 5."""
    counts = {}
    for (algebra, _), n, degrees in ((g1, 1, range(8)), (g2, 2, (4, 5))):
        words = WordSet(*cartan_weights(algebra))
        orbits = orbit_words(words, algebra)
        counts[n] = {k: len(orbits.tensor(k)) for k in degrees}
        assert len(words.tensor(max(degrees))) == (8135 if n == 1 else 16432)
    assert counts[1] == {0: 1, 1: 0, 2: 3, 3: 9, 4: 43, 5: 190, 6: 876, 7: 4067}
    assert counts[2] == {4: 196, 5: 2075}


def test_every_weight_zero_word_has_a_row(g2):
    """``rows`` sends the code of every weight-0 word to its representative
    and sign, or to sign 0 in a dead orbit; each representative maps to
    itself with sign 1."""
    algebra, _ = g2
    module = adjoint_module(algebra)
    words = WordSet(*cartan_weights(algebra, module))
    orbits = orbit_words(words, algebra, module)
    for kind in ("tensor", "wedge", "module_wedge"):
        for k in range(4):
            rows = orbits.rows(kind, k)
            assert set(rows) == set(words.codes(kind, k))
            reps = getattr(orbits, kind)(k)
            code_at = {i: c for c, i in words.codes(kind, k).items()}
            position = words.position(kind, k)
            assert [rows[code_at[position[w]]] for w in reps] == [(i, 1) for i in range(len(reps))]
            assert {s for _, s in rows.values()} <= {-1, 0, 1}


def test_the_generators_generate_4_to_the_n_n_factorial_and_8_cosets_at_n_2(g2):
    for n, order in ((1, 4), (2, 32), (3, 384)):
        generators = weyl_generators(n)
        group = {tuple((c, 1) for c in range(2 * n))}
        grown = True
        while grown:
            new = {tuple((g[t][0], s * g[t][1]) for t, s in h) for g in group for h in generators}
            grown = not new <= group
            group |= new
        assert len(group) == order
    algebra, _ = g2
    assert len(algebra.weyl) == 3
    orbits = orbit_words(WordSet(*cartan_weights(algebra)), algebra)
    assert len(orbits._tables) + 1 == 8


def _swap_xy(n):
    """x_i <-> y_i: it preserves the bracket table of g_1 but reverses the
    symplectic form."""
    return tuple((n + c, 1) if c < n else (c - n, 1) for c in range(2 * n))


def test_an_anti_symplectic_permutation_is_refused(g1):
    algebra = g1[0]
    hamiltonians = _ideal_hamiltonians(1) + _sp_hamiltonians(1)
    bad = _swap_xy(1)
    letter = {}
    for a, h in enumerate(hamiltonians):
        letter[h] = (a, 1)
        letter[h.neg()] = (a, -1)
    # an anti-symplectic A pushes X_h forward to -X_(h o A^-1)
    perm = tuple((t, -s) for t, s in (letter[_pushed(h, bad)] for h in hamiltonians))
    assert perm == field_letters(ideal_fields(1) + sp_fields(1), bad)
    assert _preserves_brackets(algebra, perm)
    with pytest.raises(ConsistencyError, match="not symplectic"):
        weyl_action(hamiltonians, algebra, [bad])
    # with it, the Leibniz homology of g_1 would lose the class of omega
    wrong = _bare(algebra)
    wrong.weyl = (perm,)
    assert [betti(leibniz_complex(wrong, 6), k) for k in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [betti(leibniz_complex(algebra, 6), k) for k in range(6)] == [1, 0, 1, 0, 0, 0]


def test_a_basis_the_group_does_not_permute_is_refused(g1):
    """g_1 spanned by the same fields but H + x d/dy in place of H, the
    field of x y + x^2/2: J sends it to -H - y d/dx, no signed basis field."""
    algebra = g1[0]
    hamiltonians = _ideal_hamiltonians(1) + _sp_hamiltonians(1)
    hamiltonians[-1] = hamiltonians[-1].add(hamiltonians[2])
    with pytest.raises(ConsistencyError, match="no signed basis field"):
        weyl_action(hamiltonians, algebra, weyl_generators(1))


def test_i_n_gets_no_action(i1):
    assert i1.weyl is None and build_I(2).weyl is None
    assert orbit_words(WordSet(*cartan_weights(i1)), i1) is None
    for complex_ in (leibniz_complex(i1, 3), ce_complex(i1, 3), rel_complex(i1, 2)):
        assert complex_._ranked is complex_._diffs


def test_the_constants_as_an_ideal_get_no_action(g1, i1):
    """The constants restricted to themselves are I_1, on which sp acts by
    outer derivations: the restricted algebra carries no ``weyl``."""
    algebra, split = g1
    module = restriction_module(adjoint_module(algebra), split.ideal_indices, i1)
    assert module.algebra is i1 and i1.weyl is None
    complex_ = coeff_complex(module.algebra, module, 2)
    assert complex_._ranked is complex_._diffs


def test_a_module_action_that_is_not_equivariant_is_dropped(g1):
    algebra = g1[0]
    module = adjoint_module(algebra)
    assert module_weyl(algebra, module) == algebra.weyl
    module.weyl = tuple(tuple((m, 1) for m in range(module.dim)) for _ in algebra.weyl)
    assert module_weyl(algebra, module) is None
    complex_ = coeff_complex(algebra, module, 3)
    assert complex_._ranked is complex_._diffs


def _every_pair(algebra, perm):
    """[g e_i, g e_j] = g [e_i, e_j] on every pair of letters, as
    ``_preserves_brackets`` checked it before it read only the nonzero
    brackets."""
    return all(
        {perm[k][0]: perm[k][1] * v for k, v in algebra.bracket_coeffs(i, j).items()}
        == {k: perm[i][1] * perm[j][1] * v
            for k, v in algebra.bracket_coeffs(perm[i][0], perm[j][0]).items()}
        for i in range(algebra.dim) for j in range(i + 1, algebra.dim)
    )


@settings(max_examples=80, deadline=None)
@given(st.permutations(range(5)), st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
def test_bracket_preservation_reads_only_nonzero_brackets(g1, letters, signs):
    perm = tuple(zip(letters, signs))
    assert _preserves_brackets(g1[0], perm) == _every_pair(g1[0], perm)


# [e0, e1] = e2, with e3 central: small enough to try every signed map
_NILPOTENT = LieAlgebra(4, ("e0", "e1", "e2", "e3"), {(0, 1): {2: 1}})


def test_bracket_preservation_of_every_signed_map():
    # a map that is not a bijection of the letters is refused, even one
    # that keeps every bracket, such as e3 -> e2 with the rest fixed
    images = [(t, s) for t in range(4) for s in (1, -1)]
    for perm in itertools.product(images, repeat=4):
        bijective = len({t for t, _ in perm}) == 4
        expected = bijective and _every_pair(_NILPOTENT, perm)
        assert _preserves_brackets(_NILPOTENT, perm) == expected
    assert _every_pair(_NILPOTENT, ((0, 1), (1, 1), (2, 1), (2, 1)))


def test_bracket_preservation_refusals():
    assert _preserves_brackets(_NILPOTENT, ((0, 1), (1, 1), (2, 1), (3, 1)))
    # a nonzero bracket, [e0, e1], sent to a zero one, [e0, e3]
    assert not _preserves_brackets(_NILPOTENT, ((0, 1), (3, 1), (2, 1), (1, 1)))
    # e0 and e3 both sent to e0, so the zero [e3, e1] would go to e2
    assert not _preserves_brackets(_NILPOTENT, ((0, 1), (1, 1), (2, 1), (0, 1)))


def test_the_generators_preserve_the_brackets(g1):
    assert all(_preserves_brackets(g1[0], perm) for perm in g1[0].weyl)
