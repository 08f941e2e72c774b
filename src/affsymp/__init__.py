"""Exact-arithmetic homology engine for the affine symplectic Lie algebra.

Builds the symplectic algebra sp_n, the abelian algebra of constant fields
and their semidirect sum from the Hamiltonians of their basis fields,
assembles the exterior, coefficient, tensor and kernel chain complexes, and
computes homology, invariant subspaces and the full verification suite over
the rationals with no floating point anywhere.
"""

__version__ = "0.1.0"

from .errors import (
    AffsympError,
    ConsistencyError,
    DegreeRangeError,
    DomainError,
    ResourceLimitError,
    ShapeError,
)
from .exact_linalg import (
    QVector,
    Rational,
    SparseMatrix,
    kernel_basis,
    multiply,
    rank,
    stack_rows,
)
from .vector_fields import (
    Monomial,
    Polynomial,
    poisson,
)
from .lie_structures import (
    LieAlgebra,
    LieModule,
    SubalgebraDecomposition,
    adjoint_module,
    build_I,
    build_g,
    build_sp,
    exterior_power_module,
    restriction_module,
    submodule,
    tensor_module,
    trivial_module,
    validate_lie,
)
from .chain_complexes import (
    Chain,
    ChainComplex,
    ce_complex,
    coeff_complex,
    cr_complex,
    leibniz_complex,
    mixed_projection,
    partial_wedge_projection,
    rel_complex,
    tensor_chain,
    wedge_chain,
    wedge_projection,
)
from .homology import (
    HomologyReport,
    betti,
    cobetti,
    homology_report,
    homology_reps,
    is_boundary,
    is_cycle,
    is_homologous,
)
from .invariants import (
    InvariantBasis,
    invariant_dimension_report,
    invariant_subspace,
    omega,
    omega_power,
    omega_tilde,
)
from .theorems import (
    CLAIM_IDS,
    VerificationContext,
    VerificationReport,
    predict_sp_homology,
    run_all,
    run_claim,
)
from .cache import DiffCache
