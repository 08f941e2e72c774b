import pytest

from affsymp.errors import DomainError, ResourceLimitError
from affsymp.exact_linalg import QVector, Rational
from affsymp.invariants import (
    invariant_dim,
    invariant_dimension_report,
    invariant_subspace,
    omega,
    omega_power,
    omega_tilde,
    predicted_ideal_tensor_invariant_dim,
    predicted_wedge_invariant_dim,
    standard_modules,
)
from affsymp.chain_complexes import wedge_projection
from affsymp.homology import is_cycle
from affsymp.lie_structures import exterior_power_module, tensor_module
from affsymp.words import wedge_index


class TestInvariantSubspace:
    def test_constants_have_no_invariants(self):
        _, ideal_mod, _, _, _ = standard_modules(1)
        assert invariant_subspace(ideal_mod).dim == 0

    def test_stacked_action_matrices_have_full_rank(self):
        # the three 2x2 actions stack to a 6x2 matrix of rank 2, the matrix
        # form of the vanishing invariants above
        from affsymp.exact_linalg import rank, stack_rows

        _, ideal_mod, _, _, _ = standard_modules(1)
        stacked = stack_rows(list(ideal_mod.actions))
        assert (stacked.rows, stacked.cols) == (6, 2)
        assert rank(stacked) == 2

    def test_wedge_square_invariant_line(self):
        _, ideal_mod, _, _, _ = standard_modules(1)
        lam2 = exterior_power_module(ideal_mod, 2)
        basis = invariant_subspace(lam2)
        assert basis.dim == 1
        assert basis.spans(omega_power(1, 1).vector)

    def test_spans_only_the_invariant_line(self):
        _, ideal_mod, _, _, _ = standard_modules(2)
        basis = invariant_subspace(exterior_power_module(ideal_mod, 2))
        power = omega_power(2, 1).vector
        assert basis.spans(power.scale(Rational(-3, 2)))
        assert not basis.spans(QVector.unit(power.length, 0))
        assert not basis.spans(power.add(QVector.unit(power.length, 0)))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_sp_tensor_invariants_vanish(self, k):
        _, ideal_mod, sp_adjoint, _, _ = standard_modules(1)
        lam = exterior_power_module(ideal_mod, k, validate=False)
        product = tensor_module(sp_adjoint, lam, validate=False)
        assert invariant_subspace(product).dim == 0

    def test_serializes_no_matrix(self, monkeypatch):
        from affsymp.exact_linalg import SparseMatrix

        _, ideal_mod, _, _, _ = standard_modules(1)
        modules = [exterior_power_module(ideal_mod, k) for k in (0, 2, 3)]

        def refused(self):
            raise AssertionError("an invariant subspace serialized a matrix")

        monkeypatch.setattr(SparseMatrix, "to_text", refused)
        assert [invariant_subspace(m).dim for m in modules] == [1, 1, 0]


class TestOmega:
    def test_n1_single_pair(self):
        chain = omega(1)
        assert chain.vector.entries == ((0, Rational(1)),)

    def test_n2_two_pairs(self):
        chain = omega(2)
        idx = {wedge_index((0, 2), 4), wedge_index((1, 3), 4)}
        assert {i for i, _ in chain.vector.entries} == idx
        assert all(v == 1 for _, v in chain.vector.entries)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariance_under_every_sp_generator(self, n):
        _, ideal_mod, _, _, _ = standard_modules(n)
        lam2 = exterior_power_module(ideal_mod, 2, validate=False)
        vec = omega(n).vector
        for action in lam2.actions:
            assert action.apply(vec).is_zero

    def test_bad_n(self):
        with pytest.raises(DomainError):
            omega(0)

    def test_ambient_too_small(self):
        with pytest.raises(DomainError):
            omega(2, ambient_dim=3)


class TestOmegaPower:
    def test_power_beyond_n_vanishes(self):
        assert omega_power(1, 2).is_zero

    def test_square_at_n2(self):
        # (x1^y1)^(x2^y2) has one inversion against the sorted word, so the
        # canonical coefficient is -2
        chain = omega_power(2, 2)
        assert chain.vector.entries == (
            (wedge_index((0, 1, 2, 3), 4), Rational(-2)),
        )

    def test_zeroth_power_unit(self):
        chain = omega_power(3, 0)
        assert chain.degree == 0
        assert chain.vector.entries == ((0, Rational(1)),)

    @pytest.mark.parametrize("n,q", [(2, 1), (2, 2), (3, 2), (3, 3)])
    def test_powers_lie_in_invariant_line(self, n, q):
        _, ideal_mod, _, _, _ = standard_modules(n)
        lam = exterior_power_module(ideal_mod, 2 * q, validate=False)
        basis = invariant_subspace(lam)
        assert basis.dim == 1
        assert basis.spans(omega_power(n, q).vector)


class TestOmegaTilde:
    @pytest.mark.parametrize("n", [1, 2])
    def test_projects_onto_omega(self, n, ctx):
        algebra = ctx.g(n)[0]
        lift = omega_tilde(n)
        image = wedge_projection(algebra, 2).apply(lift.vector)
        assert image == omega(n, ambient_dim=algebra.dim).vector

    def test_coefficients_are_half(self):
        lift = omega_tilde(1)
        values = dict(lift.vector.entries)
        dim = 5
        assert values[0 * dim + 1] == Rational(1, 2)   # dx (x) dy
        assert values[1 * dim + 0] == Rational(-1, 2)  # dy (x) dx

    @pytest.mark.parametrize("n", [1, 2])
    def test_is_cycle(self, n, ctx):
        complex_ = ctx.complex("leibniz", "g", n, 3)
        assert is_cycle(complex_, omega_tilde(n))


class TestPredictions:
    def test_wedge_prediction_shape(self):
        assert [predicted_wedge_invariant_dim(2, k) for k in range(5)] == [1, 0, 1, 0, 1]
        assert predicted_wedge_invariant_dim(1, 4) == 0

    def test_ideal_tensor_prediction_shape(self):
        assert [predicted_ideal_tensor_invariant_dim(1, k) for k in range(3)] == [0, 1, 0]
        assert [predicted_ideal_tensor_invariant_dim(2, k) for k in range(5)] == [0, 1, 0, 1, 0]


class TestTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_table_passes(self, n):
        table = invariant_dimension_report(n, 2 * n)
        assert table.passed

    def test_beyond_top_power_uses_zero_dimensional_modules(self):
        # k > 2n makes every exterior power zero-dimensional; the table must
        # still agree with the predictions (everything vanishes)
        table = invariant_dimension_report(1, 4)
        assert table.passed
        assert [r.wedge_computed for r in table.rows] == [1, 0, 1, 0, 0]
        assert [r.sp_tensor_computed for r in table.rows] == [0] * 5

    def test_n1_ideal_tensor_values(self):
        table = invariant_dimension_report(1, 2)
        assert [r.ideal_tensor_computed for r in table.rows] == [0, 1, 0]

    def test_n2_wedge_values(self):
        table = invariant_dimension_report(2, 4)
        assert [r.wedge_computed for r in table.rows] == [1, 0, 1, 0, 1]

    def test_n3_top_wedge(self):
        table = invariant_dimension_report(3, 6)
        assert table.rows[6].wedge_computed == 1

    def test_entry_cap_reaches_every_elimination(self):
        from affsymp.theorems import VerificationContext

        from affsymp.invariants import InvariantBasis
        from test_exact_linalg import circulant

        _, ideal_mod, _, _, _ = standard_modules(1)
        with pytest.raises(ResourceLimitError):
            invariant_subspace(ideal_mod, entry_cap=1)
        # a basis whose span test fills in past the cap
        m = circulant(30, (0, 1, 4, 13, 20))
        columns = [QVector.from_dict(30, dict(m.column(c))) for c in range(30)]
        basis = InvariantBasis(columns)
        assert basis.spans(QVector.unit(30, 0))
        with pytest.raises(ResourceLimitError):
            basis.spans(QVector.unit(30, 0), entry_cap=m.nnz)
        with pytest.raises(ResourceLimitError):
            invariant_dimension_report(1, 2, entry_cap=1)
        with pytest.raises(ResourceLimitError):
            VerificationContext(entry_cap=1).invariant_table(1, 2)
        assert VerificationContext(entry_cap=10**4).invariant_table(1, 2).passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_the_kernel_basis_oracle(self, n):
        # the table ranks the stacked actions; the oracle forms the
        # invariant bases and tests omega^(k/2) against their span
        _, ideal_mod, sp_adjoint, g_mod, _ = modules = standard_modules(n)
        table = invariant_dimension_report(n, 2 * n + 1, modules)
        for row in table.rows:
            lam = exterior_power_module(ideal_mod, row.k, validate=False)
            wedge = invariant_subspace(lam)
            tensors = [
                invariant_subspace(tensor_module(m, lam, validate=False)).dim
                for m in (ideal_mod, sp_adjoint, g_mod)
            ]
            spanned = wedge.dim == row.wedge_predicted and (
                wedge.dim != 1 or wedge.spans(omega_power(n, row.k // 2).vector)
            )
            assert (row.wedge_computed, row.ideal_tensor_computed, row.sp_tensor_computed) == (
                wedge.dim, tensors[0], tensors[1])
            assert row.decomposition_consistent == (tensors[2] == tensors[0] + tensors[1])
            assert row.wedge_spanned_by_power == spanned

    def test_power_that_is_not_invariant_is_caught(self):
        # the constants with y_1 and y_2 swapped: omega_2 in these coordinates
        # is dx^1 ^ dy^2 + dx^2 ^ dy^1, not invariant, though the invariant
        # line is still there
        from affsymp.lie_structures import submodule

        sp, _, sp_adjoint, g_mod, split = standard_modules(2)
        x1, x2, y1, y2 = split.ideal_indices
        swapped = submodule(g_mod, (x1, x2, y2, y1))
        table = invariant_dimension_report(2, 2, (sp, swapped, sp_adjoint, g_mod, split))
        assert [r.wedge_computed for r in table.rows] == [1, 0, 1]
        assert [r.wedge_spanned_by_power for r in table.rows] == [True, True, False]
        assert not table.passed

    def test_invariant_dim_edge_cases(self):
        from affsymp.lie_structures import LieAlgebra, LieModule

        _, ideal_mod, _, _, _ = standard_modules(1)
        assert invariant_dim(exterior_power_module(ideal_mod, 3)) == 0
        assert invariant_dim(exterior_power_module(ideal_mod, 0)) == 1
        with pytest.raises(ResourceLimitError):
            invariant_dim(ideal_mod, entry_cap=1)
        point = LieAlgebra(0, (), {})
        with pytest.raises(DomainError):
            invariant_dim(LieModule(point, 1, ()))

    def test_decomposition_identity(self):
        table = invariant_dimension_report(2, 3)
        assert all(r.decomposition_consistent for r in table.rows)

    def test_csv_and_json(self):
        table = invariant_dimension_report(1, 2)
        assert table.to_csv().splitlines()[0].startswith("k,wedge_computed")
        import json

        payload = json.loads(table.to_json())
        assert payload["report"] == "invariants"
        assert payload["passed"] is True
