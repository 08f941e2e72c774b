"""Invariant subspaces of right modules, the canonical symplectic bivector
and its powers, and the direct verification of the invariant-dimension
tables that drive every graded prediction downstream.

For a module M over an algebra g, the invariants are
M^g = {m : [m, X] = 0 for all X in g}, computed as the kernel of the row
stack of all action matrices.  The tables take only its dimension: an
invariant is killed by the grading elements, which act diagonally
(``lie_structures.cartan_weights``), so it has weight 0, and the
dimension is the number of weight-0 module letters less the rank of that
stack on their columns alone.  Over the symplectic algebra
the expected answers are exterior powers of

    omega_n = sum_i dx^i ^ dy^i     (constants-field indices (i, n+i)),

whose k-th wedge power is nonzero exactly for k <= n.
"""

from __future__ import annotations

import json
from itertools import permutations

from .chain_complexes import Chain, tensor_chain, wedge_chain
from .errors import DomainError
from .exact_linalg import (
    QVector,
    Rational,
    SparseMatrix,
    check_entry_budget,
    kernel_basis,
    rank,
    solve,
)
from .lie_structures import (
    LieAlgebra,
    LieModule,
    SubalgebraDecomposition,
    adjoint_module,
    build_g,
    build_sp,
    cartan_weights,
    exterior_power_module,
    restriction_module,
    submodule,
    tensor_module,
)


class InvariantBasis:
    """Reduced-echelon basis of a module's invariant subspace."""

    def __init__(self, vectors: list[QVector]):
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def spans(self, vec: QVector, entry_cap: int | None = None) -> bool:
        """True iff vec lies in the invariant span: the basis, as columns,
        has an exact solve for it."""
        matrix = SparseMatrix.from_columns(vec.length, self.vectors)
        return solve(matrix, vec, entry_cap) is not None


def _stacked_actions(
    module: LieModule, columns: dict[int, int], entry_cap: int | None
) -> SparseMatrix:
    """The action matrices stacked, on the columns of the module letters
    ``columns`` names, {letter: column}; on all of them, in order, its
    kernel is the invariant space.  Its entries are held to ``entry_cap``."""
    if not module.actions:
        raise DomainError("module has no acting algebra elements")
    entries = {}
    for offset, action in enumerate(module.actions):
        offset *= module.dim
        for (r, c), v in action.entries.items():
            col = columns.get(c)
            if col is not None:
                entries[(offset + r, col)] = v
        check_entry_budget(len(entries), entry_cap)
    return SparseMatrix._of(len(module.actions) * module.dim, len(columns), entries)


def invariant_subspace(module: LieModule, entry_cap: int | None = None) -> InvariantBasis:
    """Kernel of the stacked action matrices: a deterministic basis of
    {m : every algebra basis element kills m}.  The stack and the fill-in
    of its elimination are held to ``entry_cap``."""
    if module.dim == 0:
        return InvariantBasis([])
    every = dict(zip(range(module.dim), range(module.dim)))
    return InvariantBasis(kernel_basis(_stacked_actions(module, every, entry_cap), entry_cap))


def invariant_dim(module: LieModule, entry_cap: int | None = None) -> int:
    """dim of the invariant subspace, the number of weight-0 module letters
    less the rank of the stacked actions on their columns; no basis is
    formed.  A grading element h acts on each letter by its weight under
    h, so an invariant has no letter of nonzero weight.  The stack and the
    fill-in of its elimination are held to ``entry_cap``."""
    if module.dim == 0:
        return 0
    _, weights = cartan_weights(module.algebra, module)
    zero = [m for m, weight in enumerate(weights) if not any(weight)]
    columns = dict(zip(zero, range(len(zero))))
    return len(zero) - rank(_stacked_actions(module, columns, entry_cap), entry_cap)


# ---------------------------------------------------------------------------
# the canonical invariant chains
# ---------------------------------------------------------------------------


def omega(n: int, ambient_dim: int | None = None) -> Chain:
    """sum_i dx^i ^ dy^i as a degree-2 wedge chain; coordinates i and n+i.

    With the default ambient dimension 2n the chain lives in the exterior
    square of the constants algebra; a larger ambient (the full affine
    algebra, whose basis starts with the constants) embeds it verbatim.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return omega_power(n, 1, ambient_dim)


def omega_power(n: int, k: int, ambient_dim: int | None = None) -> Chain:
    """k-fold wedge power of omega(n), expanded and canonicalized; the zero
    chain when k > n, the unit of the empty wedge when k = 0.

    It is the sum of the wedges of k distinct pairs (i, n+i) taken in every
    order: the pairs have even degree, so the k! orders of one set of pairs
    carry one sign and add up to k! times its wedge."""
    if k < 0:
        raise DomainError("power must be >= 0")
    dim = 2 * n if ambient_dim is None else ambient_dim
    if dim < 2 * n:
        raise DomainError("ambient dimension too small")
    pairs = [(i, n + i) for i in range(n)]
    return wedge_chain(
        dim, 2 * k, {sum(chosen, ()): 1 for chosen in permutations(pairs, k)}
    )


def omega_tilde(n: int, ambient_dim: int | None = None) -> Chain:
    """The antisymmetrized tensor lift (1/2) sum_i (dx^i (x) dy^i -
    dy^i (x) dx^i), a degree-2 chain in the tensor basis of the affine
    algebra (default ambient dimension 2n^2 + 3n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    dim = 2 * n * n + 3 * n if ambient_dim is None else ambient_dim
    if dim < 2 * n:
        raise DomainError("ambient dimension too small")
    half = Rational(1, 2)
    terms: dict[tuple[int, ...], Rational] = {}
    for i in range(n):
        terms[(i, n + i)] = half
        terms[(n + i, i)] = -half
    return tensor_chain(dim, 2, terms)


# ---------------------------------------------------------------------------
# the invariant-dimension tables
# ---------------------------------------------------------------------------


class InvariantTableRow:
    def __init__(
        self,
        k: int,
        wedge_computed: int,
        wedge_predicted: int,
        wedge_spanned_by_power: bool,
        ideal_tensor_computed: int,
        ideal_tensor_predicted: int,
        sp_tensor_computed: int,
        sp_tensor_predicted: int,
        decomposition_consistent: bool,
    ):
        self.k = k
        self.wedge_computed = wedge_computed
        self.wedge_predicted = wedge_predicted
        self.wedge_spanned_by_power = wedge_spanned_by_power
        self.ideal_tensor_computed = ideal_tensor_computed
        self.ideal_tensor_predicted = ideal_tensor_predicted
        self.sp_tensor_computed = sp_tensor_computed
        self.sp_tensor_predicted = sp_tensor_predicted
        self.decomposition_consistent = decomposition_consistent

    @property
    def passed(self) -> bool:
        return (
            self.wedge_computed == self.wedge_predicted
            and self.wedge_spanned_by_power
            and self.ideal_tensor_computed == self.ideal_tensor_predicted
            and self.sp_tensor_computed == self.sp_tensor_predicted
            and self.decomposition_consistent
        )


class InvariantTable:
    def __init__(self, n: int, k_max: int):
        self.n = n
        self.k_max = k_max
        self.rows: list[InvariantTableRow] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "report": "invariants",
            "n": self.n,
            "k_max": self.k_max,
            "passed": self.passed,
            "rows": [
                {
                    "k": r.k,
                    "wedge": {
                        "computed": r.wedge_computed,
                        "predicted": r.wedge_predicted,
                        "spanned_by_power": r.wedge_spanned_by_power,
                    },
                    "ideal_tensor": {
                        "computed": r.ideal_tensor_computed,
                        "predicted": r.ideal_tensor_predicted,
                    },
                    "sp_tensor": {
                        "computed": r.sp_tensor_computed,
                        "predicted": r.sp_tensor_predicted,
                    },
                    "decomposition_consistent": r.decomposition_consistent,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = [
            "k,wedge_computed,wedge_predicted,spanned_by_power,"
            "ideal_tensor_computed,ideal_tensor_predicted,"
            "sp_tensor_computed,sp_tensor_predicted,decomposition_consistent,passed"
        ]
        for r in self.rows:
            lines.append(
                f"{r.k},{r.wedge_computed},{r.wedge_predicted},"
                f"{str(r.wedge_spanned_by_power).lower()},"
                f"{r.ideal_tensor_computed},{r.ideal_tensor_predicted},"
                f"{r.sp_tensor_computed},{r.sp_tensor_predicted},"
                f"{str(r.decomposition_consistent).lower()},{str(r.passed).lower()}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"invariant dimensions over sp (n={self.n}, k <= {self.k_max})"]
        lines.append(
            f"{'k':>3} {'wedge':>12} {'ideal (x) wedge':>16} {'sp (x) wedge':>14} pass"
        )
        for r in self.rows:
            lines.append(
                f"{r.k:>3} {r.wedge_computed:>5}/{r.wedge_predicted:<6}"
                f" {r.ideal_tensor_computed:>8}/{r.ideal_tensor_predicted:<7}"
                f" {r.sp_tensor_computed:>7}/{r.sp_tensor_predicted:<6}"
                f" {'ok' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines)


def standard_modules(
    n: int,
    sp_adjoint: LieModule | None = None,
    g_adjoint: LieModule | None = None,
    split: SubalgebraDecomposition | None = None,
) -> tuple[LieAlgebra, LieModule, LieModule, LieModule, SubalgebraDecomposition]:
    """(sp, constants-as-sp-module, sp-adjoint, affine-as-sp-module, split),
    from the adjoint modules of ``build_sp(n)`` and of ``build_g(n)`` and
    the split of the latter when given, as a ``VerificationContext`` holds
    them, or from fresh ones."""
    if sp_adjoint is None:
        sp = build_sp(n)
        g, split = build_g(n, sp)
        sp_adjoint, g_adjoint = adjoint_module(sp), adjoint_module(g)
    sp = sp_adjoint.algebra
    g_over_sp = restriction_module(g_adjoint, split.quotient_indices, sp)
    ideal_over_sp = submodule(g_over_sp, split.ideal_indices)
    return sp, ideal_over_sp, sp_adjoint, g_over_sp, split


def predicted_wedge_invariant_dim(n: int, k: int) -> int:
    """dim of the invariant line in the k-th exterior power of the constants:
    1 exactly when k is even with k/2 <= n."""
    return 1 if k % 2 == 0 and k // 2 <= n else 0


def predicted_ideal_tensor_invariant_dim(n: int, k: int) -> int:
    """dim of the invariants of constants (x) Lambda^k(constants): the
    invariant element has total degree k + 1 = 2q with 1 <= q <= n."""
    return 1 if k % 2 == 1 and (k + 1) // 2 <= n else 0


def invariant_dimension_report(
    n: int, k_max: int, modules=None, entry_cap: int | None = None
) -> InvariantTable:
    """For each k <= k_max, computed vs predicted dimensions of the three
    invariant spaces over sp, plus the module split consistency
    dim (affine (x) L)^sp = dim (constants (x) L)^sp + dim (sp (x) L)^sp.
    ``modules`` is ``standard_modules(n)``, built here when not given;
    every stack and elimination is held to ``entry_cap``."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    sp, ideal_mod, sp_adjoint, g_mod, _ = standard_modules(n) if modules is None else modules
    table = InvariantTable(n=n, k_max=k_max)
    for k in range(k_max + 1):
        lam = exterior_power_module(ideal_mod, k)
        wedge_inv_dim = invariant_dim(lam, entry_cap)
        predicted_wedge = predicted_wedge_invariant_dim(n, k)
        spanned = wedge_inv_dim == predicted_wedge
        if wedge_inv_dim == 1 and spanned:
            # a nonzero invariant spans the invariant line
            power = omega_power(n, k // 2).vector
            spanned = not power.is_zero and all(a.apply(power).is_zero for a in lam.actions)

        ideal_dim = invariant_dim(tensor_module(ideal_mod, lam), entry_cap)
        sp_dim = invariant_dim(tensor_module(sp_adjoint, lam), entry_cap)
        g_dim = invariant_dim(tensor_module(g_mod, lam), entry_cap)

        table.rows.append(
            InvariantTableRow(
                k=k,
                wedge_computed=wedge_inv_dim,
                wedge_predicted=predicted_wedge,
                wedge_spanned_by_power=spanned,
                ideal_tensor_computed=ideal_dim,
                ideal_tensor_predicted=predicted_ideal_tensor_invariant_dim(n, k),
                sp_tensor_computed=sp_dim,
                sp_tensor_predicted=0,
                decomposition_consistent=(g_dim == ideal_dim + sp_dim),
            )
        )
    return table
