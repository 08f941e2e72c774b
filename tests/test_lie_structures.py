import hashlib
import json

import pytest

from affsymp.errors import ConsistencyError, DomainError
from affsymp.exact_linalg import Rational, SparseMatrix
from affsymp.lie_structures import (
    LieAlgebra,
    _algebra_from_hamiltonians,
    _sp_hamiltonians,
    adjoint_module,
    build_g,
    build_I,
    build_sp,
    exterior_power_module,
    restriction_module,
    submodule,
    tensor_module,
    trivial_module,
    validate_lie,
    weyl_generators,
)
from affsymp.vector_fields import Monomial, Polynomial, PolyVectorField, bracket, poisson

from field_oracle import ideal_fields, pushed, sp_fields


class TestDimensions:
    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 10), (3, 21), (4, 36)])
    def test_sp_dimension(self, n, expected):
        assert build_sp(n).dim == expected == 2 * n * n + n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ideal_dimension_and_abelian(self, n):
        algebra = build_I(n)
        assert algebra.dim == 2 * n
        assert algebra.is_abelian
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                assert algebra.bracket_coeffs(i, j) == {}

    @pytest.mark.parametrize("n,expected", [(1, 5), (2, 14), (3, 27), (4, 44)])
    def test_affine_dimension(self, n, expected):
        algebra, split = build_g(n)
        assert algebra.dim == expected == 2 * n * n + 3 * n
        assert len(split.ideal_indices) == 2 * n

    def test_zero_n_rejected(self):
        for builder in (build_sp, build_I):
            with pytest.raises(DomainError):
                builder(0)
        with pytest.raises(DomainError):
            build_g(0)


class TestAffineStructure:
    def test_constants_first_ordering(self, g1):
        algebra, split = g1
        assert split.ideal_indices == (0, 1)
        assert split.quotient_indices == (2, 3, 4)
        assert algebra.labels[0] == "d/dx1"
        assert algebra.labels[1] == "d/dy1"

    def test_ideal_is_abelian_and_absorbing(self, g2):
        algebra, split = g2
        ideal = set(split.ideal_indices)
        for a in ideal:
            for b in ideal:
                assert algebra.bracket_coeffs(a, b) == {}
            for j in range(algebra.dim):
                assert set(algebra.bracket_coeffs(a, j)) <= ideal

    @pytest.mark.parametrize("n", [1, 2])
    def test_quotient_constants_match_sp(self, n):
        algebra, split = build_g(n)
        sp = build_sp(n)
        offset = len(split.ideal_indices)
        for p in range(sp.dim):
            for q in range(p + 1, sp.dim):
                got = algebra.bracket_coeffs(split.quotient_indices[p], split.quotient_indices[q])
                assert {k - offset: v for k, v in got.items()} == sp.bracket_coeffs(p, q)


class TestValidation:
    def test_affine_passes(self, g1):
        assert g1[0].validate().passed
        assert validate_lie(g1[0]).passed

    def test_abelian_passes(self):
        report = build_I(3).validate()
        assert report.passed and report.checked == 20

    def test_corrupted_constant_reports_triple(self, sp1):
        bad = {k: dict(v) for k, v in sp1.brackets.items()}
        bad[(0, 1)] = {0: Rational(1)}
        corrupt = LieAlgebra(sp1.dim, sp1.labels, bad, validate=False)
        report = corrupt.validate()
        assert not report.passed
        assert any("(0,1,2)" in f for f in report.failures)

    def test_constructor_rejects_corruption(self, sp1):
        bad = {k: dict(v) for k, v in sp1.brackets.items()}
        bad[(0, 1)] = {0: Rational(1)}
        with pytest.raises(ConsistencyError):
            LieAlgebra(sp1.dim, sp1.labels, bad)


class TestAdjoint:
    def test_abelian_adjoint_is_zero(self):
        module = adjoint_module(build_I(2))
        assert all(a.nnz == 0 for a in module.actions)

    def test_sp1_adjoint_traceless(self, sp1):
        module = adjoint_module(sp1)
        for a in module.actions:
            assert a.rows == a.cols == 3
            trace = sum((a.entries.get((i, i), Rational(0)) for i in range(3)), Rational(0))
            assert trace == 0

    def test_module_law_validated_for_affine(self, g1):
        adjoint_module(g1[0])  # construction runs the law check

    def test_bad_actions_rejected(self, sp1):
        actions = list(adjoint_module(sp1).actions)
        broken = dict(actions[0].entries)
        broken[(0, 0)] = Rational(5)
        actions[0] = SparseMatrix(3, 3, broken)
        from affsymp.lie_structures import LieModule

        with pytest.raises(ConsistencyError):
            LieModule(sp1, 3, tuple(actions))


class TestRestrictionSubmodule:
    def test_restrict_affine_adjoint_to_sp(self, g1):
        algebra, split = g1
        module = restriction_module(adjoint_module(algebra), split.quotient_indices)
        assert module.dim == 5
        assert module.algebra.dim == 3
        assert module.algebra.brackets == build_sp(1).brackets

    def test_restrict_to_constants_gives_nilpotent_actions(self, g1):
        algebra, split = g1
        module = restriction_module(adjoint_module(algebra), split.ideal_indices)
        for a in module.actions:
            assert (a @ a).nnz == 0

    def test_non_closed_subset_rejected(self, g1):
        with pytest.raises(DomainError):
            restriction_module(adjoint_module(g1[0]), (2, 3))

    def test_submodule_requires_invariance(self, g1):
        algebra, split = g1
        adjoint = adjoint_module(algebra)
        with pytest.raises(DomainError):
            submodule(adjoint, split.quotient_indices)  # [sp, constants] leaves it


class TestPowersAndProducts:
    def _ideal_module(self, n):
        algebra, split = build_g(n)
        restricted = restriction_module(adjoint_module(algebra), split.quotient_indices)
        return submodule(restricted, split.ideal_indices)

    def test_exterior_zero_is_trivial(self):
        m = self._ideal_module(1)
        lam0 = exterior_power_module(m, 0)
        assert lam0.dim == 1
        assert all(a.nnz == 0 for a in lam0.actions)

    def test_exterior_one_is_identity(self):
        m = self._ideal_module(1)
        lam1 = exterior_power_module(m, 1)
        assert lam1.actions == m.actions

    def test_exterior_two_of_rank_four(self):
        m = self._ideal_module(2)
        assert exterior_power_module(m, 2).dim == 6

    def test_exterior_beyond_dimension(self):
        m = self._ideal_module(1)
        assert exterior_power_module(m, 3).dim == 0

    def test_trivial_tensor_is_identity(self, sp1):
        m = adjoint_module(sp1)
        product = tensor_module(trivial_module(sp1), m)
        assert product.dim == m.dim
        assert product.actions == m.actions

    def test_tensor_dimension(self):
        m = self._ideal_module(1)
        lam2 = exterior_power_module(m, 2)
        algebra, split = build_g(1)
        g_mod = restriction_module(adjoint_module(algebra), split.quotient_indices)
        assert tensor_module(g_mod, lam2).dim == 5

    def test_tensor_module_law_holds(self):
        m = self._ideal_module(1)
        tensor_module(m, m)  # validated at construction

    def test_mismatched_algebras_rejected(self, sp1):
        other = adjoint_module(build_sp(2))
        with pytest.raises(DomainError):
            tensor_module(adjoint_module(sp1), other)


class TestPermutation:
    def test_permuted_algebra_still_valid(self, g1):
        algebra = g1[0]
        perm = [4, 2, 0, 1, 3]
        permuted = algebra.permuted(perm)  # constructor re-validates
        assert permuted.labels == tuple(algebra.labels[e] for e in perm)

    def test_bad_permutation(self, sp1):
        with pytest.raises(DomainError):
            sp1.permuted([0, 0, 1])

    def test_fingerprint_changes_with_basis(self, sp1):
        assert sp1.permuted([1, 0, 2]).fingerprint() != sp1.fingerprint()


class TestSerialization:
    def test_json_dump_shape(self, sp1):
        payload = sp1.to_json_dict()
        assert payload["dim"] == 3
        assert len(payload["labels"]) == 3
        assert all(len(t) == 4 for t in payload["brackets"])

    def test_golden_sp1_dump(self, sp1):
        assert sp1.to_json_dict() == {
            "dim": 3,
            "labels": ["x1*d/dy1", "y1*d/dx1", "-x1*d/dx1 + y1*d/dy1"],
            "brackets": [
                [0, 1, 2, "-1/1"],
                [0, 2, 0, "2/1"],
                [1, 2, 1, "-2/1"],
            ],
        }

    def test_fingerprint_stable(self, sp1):
        assert sp1.fingerprint() == build_sp(1).fingerprint()

    def test_fingerprints_and_dumps_are_pinned(self):
        """The constants are held as ints, yet every algebra's fingerprint and
        JSON dump, and its adjoint module's fingerprint, are byte for byte
        those written when they were ``Fraction``s."""
        h = hashlib.sha256()
        for n in (1, 2, 3):
            for algebra in (build_sp(n), build_I(n), build_g(n)[0]):
                h.update(algebra.fingerprint().encode())
                h.update(json.dumps(algebra.to_json_dict(), sort_keys=True).encode())
                h.update(adjoint_module(algebra).fingerprint().encode())
        assert h.hexdigest() == "d21c4d2e7b786f56b578a16373c9da03b328810afd9762b20aba4adde927368b"

    def test_weyl_actions_are_pinned(self):
        """The letter actions of W~'s generators, byte for byte those found
        by pushing the basis fields forward."""
        h = hashlib.sha256()
        for n in (1, 2, 3):
            for algebra in (build_sp(n), build_g(n)[0]):
                h.update(json.dumps(algebra.weyl).encode())
        assert h.hexdigest() == "f6cf32450419acd35410efd76bb64ae8b293c4bbf8b763322c10d6d58be6b7b7"


def _with_fields(family, n):
    """The built algebra and its basis fields, from ``tests/field_oracle.py``."""
    if family == "sp":
        return build_sp(n), sp_fields(n)
    return build_g(n)[0], ideal_fields(n) + sp_fields(n)


class TestFieldOracle:
    """The structure constants and W~ actions read off the basis
    Hamiltonians are those of the vector fields they stand for."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", ["sp", "g"])
    def test_commutators_expand_in_the_structure_constants(self, family, n):
        algebra, fields = _with_fields(family, n)
        assert algebra.labels == tuple(f.render(n) for f in fields)
        for a in range(algebra.dim):
            for b in range(a + 1, algebra.dim):
                expected = PolyVectorField.zero()
                for k, c in algebra.bracket_coeffs(a, b).items():
                    expected = expected.add(fields[k].scale(c))
                assert bracket(fields[a], fields[b]) == expected, (a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", ["sp", "g"])
    def test_push_forward_sends_each_field_to_its_signed_image(self, family, n):
        algebra, fields = _with_fields(family, n)
        assert len(algebra.weyl) == len(weyl_generators(n))
        for coords, perm in zip(weyl_generators(n), algebra.weyl):
            for f, (target, sign) in zip(fields, perm):
                assert pushed(f, coords) == fields[target].scale(sign)


class TestHamiltonianBasis:
    def test_a_hamiltonian_of_two_monomials_is_refused(self):
        hamiltonians = _sp_hamiltonians(1)
        hamiltonians[2] = hamiltonians[2].add(hamiltonians[0])  # x1 y1 + x1^2/2
        with pytest.raises(ConsistencyError, match="not a multiple of a monomial of its own"):
            _algebra_from_hamiltonians(hamiltonians, 1)

    def test_two_hamiltonians_that_share_a_monomial_are_refused(self):
        hamiltonians = _sp_hamiltonians(1)
        hamiltonians[1] = hamiltonians[0].scale(2)  # x1^2 beside x1^2/2
        with pytest.raises(ConsistencyError, match="not a multiple of a monomial of its own"):
            _algebra_from_hamiltonians(hamiltonians, 1)

    def test_a_bracket_that_leaves_the_span_is_refused(self):
        x2, y2 = Polynomial.var(0, 2), Polynomial.var(1, 2)
        assert poisson(x2, y2, 1) == Polynomial({Monomial.from_dict({0: 1, 1: 1}): 4})
        with pytest.raises(ConsistencyError, match=r"leaves the span at x1\*y1"):
            _algebra_from_hamiltonians([x2, y2], 1)


class TestConstants:
    @pytest.mark.parametrize("n", [1, 2])
    def test_integral_constants_are_ints(self, n):
        for algebra in (build_sp(n), build_g(n)[0]):
            values = [v for coeffs in algebra.brackets.values() for v in coeffs.values()]
            assert values and all(type(v) is int for v in values)

    def test_constants_take_the_matrix_entry_normal_form(self):
        algebra = LieAlgebra(
            3, ("a", "b", "c"),
            {(0, 1): {2: Rational(4, 2), 0: 0}, (0, 2): {2: Rational(1, 2)}},
            validate=False,
        )
        assert algebra.brackets == {(0, 1): {2: 2}, (0, 2): {2: Rational(1, 2)}}
        assert type(algebra.brackets[(0, 1)][2]) is int
        assert type(algebra.brackets[(0, 2)][2]) is Rational
        assert algebra.to_json_dict()["brackets"] == [[0, 1, 2, "2/1"], [0, 2, 2, "1/2"]]
