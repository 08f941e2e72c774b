import hashlib
from collections import Counter
from math import comb

import pytest

from affsymp.chain_complexes import (
    BlockMemo,
    _estimate_coeff,
    ce_complex,
    ce_d,
    coeff_complex,
    coeff_d,
    cr_complex,
    leibniz_complex,
    leibniz_d,
    mixed_projection,
    partial_wedge_projection,
    rel_complex,
    tensor_chain,
    wedge_projection,
)
from affsymp.chain_complexes import wedge_chain
from affsymp.errors import DegreeRangeError, DomainError, ResourceLimitError
from affsymp.exact_linalg import QVector, Rational, SparseMatrix, multiply
from affsymp.homology import betti
from affsymp.lie_structures import (
    adjoint_module,
    build_g,
    cartan_weights,
    exterior_power_module,
    restriction_module,
    submodule,
    trivial_module,
)
from affsymp.theorems import VerificationContext
from affsymp.words import WordSet, tensor_index, wedge_dim, wedge_index

from full_oracle import (
    full_d,
    full_diffs,
    full_projection,
    full_target,
    kernel_vectors,
    restricted_d,
)


class TestExteriorComplex:
    def test_dims_sp1(self, sp1):
        assert ce_complex(sp1, 3).dims == [1, 3, 3, 1]

    def test_d1_is_zero(self, sp1):
        assert full_d(ce_complex(sp1, 1), 1).nnz == 0

    def test_d2_expands_brackets_with_plus_sign(self, sp1):
        # degree-2 rule: word (i, j) maps to +[e_i, e_j]
        d2 = full_d(ce_complex(sp1, 2), 2)
        for (i, j), coeffs in sp1.brackets.items():
            col = wedge_index((i, j), sp1.dim)
            got = {r: v for (r, c), v in d2.entries.items() if c == col}
            assert got == coeffs

    def test_dd_zero_explicit(self, g1):
        complex_ = ce_complex(g1[0], 6)
        for k in range(2, 7):
            assert multiply(full_d(complex_, k - 1), full_d(complex_, k)).nnz == 0

    def test_degree_range_errors(self, sp1):
        complex_ = ce_complex(sp1, 2)
        with pytest.raises(DegreeRangeError):
            complex_.block(3)
        with pytest.raises(DegreeRangeError):
            complex_.dim(5)


class TestCoefficientComplex:
    def test_trivial_module_matches_exterior(self, g1):
        algebra = g1[0]
        trivial = coeff_complex(algebra, trivial_module(algebra), 4)
        exterior = ce_complex(algebra, 4)
        assert trivial.dims == exterior.dims
        for k in range(4):
            assert betti(trivial, k) == betti(exterior, k)

    def test_adjoint_dims(self, g1):
        complex_ = coeff_complex(g1[0], adjoint_module(g1[0]), 5)
        assert complex_.dims == [5, 25, 50, 50, 25, 5]

    def test_dd_zero_for_wedge_coefficients(self, sp1):
        algebra, split = build_g(1)
        ideal = submodule(
            restriction_module(adjoint_module(algebra), split.quotient_indices, sp1),
            split.ideal_indices,
        )
        module = exterior_power_module(ideal, 2)
        coeff_complex(sp1, module, 3)  # d o d verified at build

    def test_module_mismatch(self, sp1, g1):
        with pytest.raises(DomainError):
            coeff_complex(sp1, adjoint_module(g1[0]), 2)


class TestTensorComplex:
    def test_dims_powers(self, g1):
        assert leibniz_complex(g1[0], 4).dims == [1, 5, 25, 125, 625]

    def test_degree_two_single_bracket(self, g1):
        # d(dx (x) x dy) = [dx, x dy] = dy, with sign (-1)^2 = +1
        algebra = g1[0]
        complex_ = leibniz_complex(algebra, 2)
        col = tensor_index((0, 2), algebra.dim)
        expected_row = 1  # basis label d/dy1
        column = {r: v for (r, c), v in full_d(complex_, 2).entries.items() if c == col}
        assert column == {expected_row: Rational(1)}

    def test_dd_zero_through_degree_five(self, g1):
        leibniz_complex(g1[0], 5)  # verified at build


class TestProjections:
    def test_degree_one_identity(self, g1):
        assert wedge_projection(g1[0], 1) == SparseMatrix.identity(5)

    def test_transposition_sign(self, g1):
        p = wedge_projection(g1[0], 2)
        row = wedge_index((1, 2), 5)
        assert p.entries[(row, tensor_index((2, 1), 5))] == Rational(-1)
        assert p.entries[(row, tensor_index((1, 2), 5))] == Rational(1)

    def test_repeated_letter_maps_to_zero(self, g1):
        p = wedge_projection(g1[0], 2)
        assert all(c != tensor_index((1, 1), 5) for (_, c) in p.entries)

    def test_chain_maps_through_degree_four(self, g1):
        algebra = g1[0]
        tensor = leibniz_complex(algebra, 4)
        exterior = ce_complex(algebra, 4)
        adjoint = coeff_complex(algebra, adjoint_module(algebra), 4)
        for k in range(2, 5):
            lhs = multiply(wedge_projection(algebra, k - 1), full_d(tensor, k))
            rhs = multiply(full_d(exterior, k), wedge_projection(algebra, k))
            assert lhs == rhs
        for k in range(1, 4):
            lhs = multiply(full_d(exterior, k + 1), partial_wedge_projection(algebra, k))
            rhs = multiply(partial_wedge_projection(algebra, k - 1), full_d(adjoint, k))
            assert lhs == rhs

    def test_projection_factorization_through_degree_four(self, g1):
        algebra = g1[0]
        for k in range(1, 4):
            composed = multiply(
                partial_wedge_projection(algebra, k), mixed_projection(algebra, k)
            )
            assert composed == wedge_projection(algebra, k + 1)


class TestKernelComplexes:
    def test_rel_dims(self, ctx):
        complex_ = ctx.complex("rel", "g", 1, 3)
        assert complex_.dims == [15, 115, 620, 3124]

    def test_cr_dims_by_surjectivity(self, ctx):
        from math import comb

        complex_ = ctx.complex("cr", "g", 1, 3)
        assert complex_.dims == [
            5 * comb(5, m + 1) - comb(5, m + 2) for m in range(4)
        ]

    def test_restricted_differential_is_exact_restriction(self, ctx, g1):
        algebra = g1[0]
        complex_ = ctx.complex("rel", "g", 1, 2)
        full = leibniz_complex(algebra, 4)
        basis1 = kernel_vectors(complex_, 1)
        basis0 = kernel_vectors(complex_, 0)
        codomain = SparseMatrix.from_columns(full.dims[2], basis0)
        restricted = restricted_d(complex_, 1)
        for j, vec in enumerate(basis1[:20]):
            image = full_d(full, 3).apply(vec)
            coords = QVector.from_dict(len(basis0), dict(restricted.column(j)))
            assert codomain.apply(coords) == image

    def test_stacked_ranks_match_explicit_restriction(self, g1, sp1, monkeypatch):
        import affsymp.chain_complexes as chain_complexes
        import affsymp.exact_linalg as exact_linalg
        import affsymp.homology as homology
        from affsymp.exact_linalg import rank

        def forbidden(matrix):
            raise AssertionError("kernel_basis called on the rank-only path")

        cases = [(rel_complex, g1[0]), (cr_complex, g1[0]), (cr_complex, sp1)]
        with monkeypatch.context() as patched:
            # chain_complexes no longer imports kernel_basis at all
            assert not hasattr(chain_complexes, "kernel_basis")
            for module in (exact_linalg, homology):
                patched.setattr(module, "kernel_basis", forbidden)
            built = [builder(algebra, 3) for builder, algebra in cases]
            for complex_ in built:
                for k in range(4):
                    assert homology.betti(complex_, k) == homology.cobetti(complex_, k)
        for complex_ in built:
            for k in range(1, 4):
                explicit = rank(restricted_d(complex_, k))
                assert complex_.rank_d(k) == explicit
                assert complex_.rank_d_transposed(k) == explicit

    # rows (0, 2) of g (x) g and m0 (x) e2 of g (x) Lambda^1, which the
    # degree-0 projections do not kill
    @pytest.mark.parametrize(
        "builder, row", [(rel_complex, tensor_index((0, 2), 5)), (cr_complex, 2)]
    )
    def test_chain_map_check_catches_tampered_differential(self, g1, builder, row):
        from affsymp.chain_complexes import KernelComplex
        from affsymp.errors import ConsistencyError

        good = builder(g1[0], 1)
        projections = {m: full_projection(good, m) for m in (0, 1)}
        # at cap 1 there is no d o d pair, so only the chain-map check can fire
        assert projections[0].column(row)
        d1 = full_d(good, 1)
        tampered = dict(d1.entries)
        tampered[(row, 0)] = tampered.get((row, 0), Rational(0)) + 1
        ambient = {1: SparseMatrix(d1.rows, d1.cols, tampered)}
        with pytest.raises(ConsistencyError, match="chain map"):
            KernelComplex(
                good.kind, "tampered", good.dims, ambient, projections,
                {1: full_target(good, 1)}, good.bases, 1,
            )


class TestResourceGuard:
    def test_tensor_power_blowup_aborts(self, g2):
        with pytest.raises(ResourceLimitError):
            leibniz_complex(g2[0], 6)

    def test_custom_cap(self, g1):
        with pytest.raises(ResourceLimitError):
            leibniz_complex(g1[0], 4, blocks=BlockMemo(entry_cap=100))

    def test_builders_keep_entry_cap_for_rank(self, g1):
        from affsymp.theorems import VerificationContext

        for builder in (ce_complex, leibniz_complex, rel_complex, cr_complex):
            memo = BlockMemo(entry_cap=10**5)
            assert builder(g1[0], 2, blocks=memo).blocks is memo
            assert builder(g1[0], 2).blocks.entry_cap is None
        memo = BlockMemo(entry_cap=99)
        assert coeff_complex(g1[0], trivial_module(g1[0]), 2, blocks=memo).blocks is memo
        ctx = VerificationContext(entry_cap=10**5)
        assert ctx.complex("rel", "g", 1, 1).blocks is ctx.blocks
        assert ctx.blocks.entry_cap == 10**5

    def test_a_raised_cap_holds_for_assembled_and_cached_blocks(self, g1, tmp_path, monkeypatch):
        """With the built-in default lowered to 300 entries, a build under a
        raised ``entry_cap`` assembles blocks above the default, writes them
        to a cache and reads them back, with the Betti numbers of a build at
        the true default; without ``entry_cap`` the build still aborts."""
        from affsymp import exact_linalg
        from affsymp.cache import DiffCache

        expected = [betti(leibniz_complex(g1[0], 5), k) for k in range(5)]
        read = []
        get_matrix = DiffCache.get_matrix

        def recorded(cache, kind, key):
            found = get_matrix(cache, kind, key)
            if found is not None:
                read.append(found.nnz)
            return found

        monkeypatch.setattr(exact_linalg, "DEFAULT_ENTRY_CAP", 300)
        monkeypatch.setattr(DiffCache, "get_matrix", recorded)
        for _ in ("cold", "warm"):
            memo = BlockMemo(DiffCache(tmp_path), 10**9)
            complex_ = leibniz_complex(g1[0], 5, blocks=memo)
            assert [betti(complex_, k) for k in range(5)] == expected
        assert max(read) > 300
        with pytest.raises(ResourceLimitError):
            leibniz_complex(g1[0], 5)


class TestBadCaps:
    def test_negative_caps_rejected(self, sp1):
        for builder in (ce_complex, leibniz_complex, rel_complex, cr_complex):
            with pytest.raises(DomainError):
                builder(sp1, -1)


class TestBrokenDifferentialRejected:
    def test_dd_check_catches_corruption(self, g1):
        from affsymp.chain_complexes import ChainComplex
        from affsymp.errors import ConsistencyError

        good = leibniz_complex(g1[0], 3)
        diffs = full_diffs(good)
        tampered = dict(diffs[3].entries)
        # bump the coefficient of a word with a nonzero boundary, so the
        # perturbation cannot hide inside ker d_2
        row = tensor_index((0, 2), 5)
        tampered[(row, 0)] = tampered.get((row, 0), Rational(0)) + 1
        diffs[3] = SparseMatrix(diffs[3].rows, diffs[3].cols, tampered)
        with pytest.raises(ConsistencyError):
            ChainComplex("leibniz", "tampered", good.dims, diffs, good.bases, 3)


class TestBasisPermutationInvariance:
    def test_exterior_betti_invariant(self, g1):
        algebra = g1[0]
        permuted = algebra.permuted([3, 0, 4, 1, 2])
        original = ce_complex(algebra, 4)
        shuffled = ce_complex(permuted, 4)
        for k in range(4):
            assert betti(original, k) == betti(shuffled, k)


class TestChains:
    def test_wedge_chain_sign_normalization(self):
        chain = wedge_chain(4, 2, {(2, 0): Rational(1)})
        assert chain.vector.get(wedge_index((0, 2), 4)) == Rational(-1)

    def test_tensor_chain_roundtrip(self):
        chain = tensor_chain(3, 2, {(2, 1): Rational(1, 2)})
        assert chain.vector.get(tensor_index((2, 1), 3)) == Rational(1, 2)

    @pytest.mark.parametrize(
        "make, word",
        [(tensor_chain, (0, 4)), (wedge_chain, (-1, 2)), (wedge_chain, (0, 5))],
    )
    def test_a_letter_out_of_range_is_refused(self, make, word):
        with pytest.raises(DomainError, match=rf"word \({word[0]}, {word[1]}\)"):
            make(4, 2, {word: Rational(1)})

    def test_chain_arithmetic(self):
        a = tensor_chain(3, 1, {(0,): Rational(1)})
        b = tensor_chain(3, 1, {(1,): Rational(2)})
        combined = a.add(b.scale(Rational(1, 2)))
        assert combined.vector.get(1) == Rational(1)
        with pytest.raises(DomainError):
            a.add(tensor_chain(3, 2, {(0, 0): Rational(1)}))


class TestAssembledMatrices:
    # SHA-256 of the fingerprints listed by ``_pinned_fingerprints``, one a
    # line, as the assemblers produced them before they shared one loop
    PINNED = "8380f01da4d11d7da29f86114d8f1abe5899da7e1da710144fcc9afbee66cafb"

    @staticmethod
    def _pinned_fingerprints(sp1, g1, i1, g2):
        fingerprints = []
        for algebra in (sp1, g1[0], i1):
            for module in (trivial_module(algebra), adjoint_module(algebra)):
                fingerprints += [coeff_d(module, k).fingerprint() for k in range(1, 5)]
            for assemble in (ce_d, leibniz_d):
                fingerprints += [assemble(algebra, k).fingerprint() for k in range(1, 5)]
            fingerprints += [wedge_projection(algebra, k).fingerprint() for k in range(5)]
            for assemble in (partial_wedge_projection, mixed_projection):
                fingerprints += [assemble(algebra, k).fingerprint() for k in range(4)]
        words = WordSet(*cartan_weights(g2[0]))
        fingerprints += [leibniz_d(g2[0], k, None, words).fingerprint() for k in range(1, 5)]
        return fingerprints

    def test_fingerprints_are_pinned(self, sp1, g1, i1, g2):
        """Every entry of the full matrices over sp_1, g_1 and I_1 and of
        the weight-0 Leibniz blocks of g_2 through degree 4."""
        lines = "\n".join(self._pinned_fingerprints(sp1, g1, i1, g2))
        assert hashlib.sha256(lines.encode()).hexdigest() == self.PINNED

    # SHA-256 of the fingerprints listed by ``_pinned_blocks``, one a line,
    # as the assemblers produced them from tuple words, before codes
    PINNED_BLOCKS = "d6b61d08a8744e748ee61275866d996bf5390cc3253c34344133dae21272636d"

    @staticmethod
    def _pinned_blocks(g1):
        context = VerificationContext()
        fingerprints = []
        for family in ("g", "sp"):
            algebra = context.algebra(family, 2)
            words = WordSet(*cartan_weights(algebra))
            fingerprints += [ce_d(algebra, k, None, words).fingerprint() for k in range(1, 7)]
            for spec in ("adjoint", "I^1", "I^2", "I^3"):
                module = context.module(spec, family, 2)
                words = WordSet(*cartan_weights(algebra, module))
                fingerprints += [
                    coeff_d(module, k, None, words).fingerprint() for k in range(1, 5)
                ]
        words = WordSet(*cartan_weights(g1[0]))
        fingerprints += [leibniz_d(g1[0], k, None, words).fingerprint() for k in (5, 6)]
        return fingerprints

    def test_weight_zero_blocks_are_pinned(self, g1):
        """Every entry of the weight-0 blocks of the Lie complexes of g_2
        and sp_2 through degree 6, of their coefficient complexes in the
        adjoint module and in Lambda^k I (k = 1, 2, 3) through degree 4, and
        of Leibniz d_5 and d_6 of g_1."""
        lines = "\n".join(self._pinned_blocks(g1))
        assert hashlib.sha256(lines.encode()).hexdigest() == self.PINNED_BLOCKS

    def test_coefficient_estimate_counts_the_longest_action_column(self, g2):
        """The adjoint action of g_2 has columns of two entries, though no
        action averages more than one entry a column."""
        algebra = g2[0]
        module = adjoint_module(algebra)
        assert max(a.nnz // a.cols + 1 for a in module.actions) == 1
        for k in range(1, 4):
            assert _estimate_coeff(module, k) == module.dim * wedge_dim(algebra.dim, k) * (
                2 * k + comb(k, 2) * 2
            )
        full = coeff_d(module, 2)
        terms = max(Counter(c for _, c in full.entries).values())
        assert terms <= _estimate_coeff(module, 2) // full.cols
