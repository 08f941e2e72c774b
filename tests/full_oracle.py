"""The full-matrix path that ``chain_complexes`` and ``homology`` took before
they worked on weight blocks only, kept as a test oracle.

``full_d`` assembles the full d_k of a complex from the all-words
assemblers; for a kernel complex that is the ambient d_k, and
``full_projection`` and ``full_target`` give pi_k and the exterior
differential it maps to.  ``kernel_vectors`` and ``restricted_d`` are the
explicit kernel bases and restricted differentials of rel and cr.  The
membership functions are the ones ``homology`` had, on full matrices; for a
kernel complex they take ambient vectors, with cycles ker [d_k; pi_k] and
boundaries the v with (v, 0) in the column span of [d_(k+1); pi_(k+1)].
"""

from affsymp.chain_complexes import (
    Chain,
    ce_d,
    coeff_d,
    leibniz_d,
    partial_wedge_projection,
    wedge_projection,
)
from affsymp.errors import ConsistencyError
from affsymp.exact_linalg import (
    QVector,
    QZERO,
    SparseMatrix,
    multiply,
    solve,
    stack_rows,
)
from affsymp.homology import betti

from fraction_oracle import LinearSolver, _columns_of, greedy_cycles, kernel_basis


def _kernel(complex_):
    return complex_.kind in ("rel", "cr")


def full_d(complex_, k):
    """The full d_k over all words; the ambient d_k of a kernel complex."""
    basis = complex_.basis(k)
    if complex_.kind == "lie":
        return ce_d(basis.algebra, k)
    if complex_.kind == "leibniz":
        return leibniz_d(basis.algebra, k)
    if complex_.kind == "coeff":
        return coeff_d(basis.module, k)
    if complex_.kind == "rel":
        return leibniz_d(basis.algebra, k + 2)
    if complex_.kind == "cr":
        return coeff_d(basis.module, k + 1)
    raise ValueError(f"no all-words assembler for kind {complex_.kind!r}")


def full_diffs(complex_):
    """Every full d_k, 1 <= k <= cap."""
    return {k: full_d(complex_, k) for k in range(1, complex_.cap + 1)}


def full_projection(complex_, k):
    """The full pi_k of a kernel complex."""
    algebra = complex_.basis(k).algebra
    if complex_.kind == "rel":
        return wedge_projection(algebra, k + 2)
    return partial_wedge_projection(algebra, k + 1)


def full_target(complex_, k):
    """The full exterior differential that pi_k maps the ambient d_k to."""
    return ce_d(complex_.basis(k).algebra, k + 2)


def full_block(complex_, k):
    """d_k, or [d_k; pi_k] for a kernel complex, over all words."""
    if _kernel(complex_):
        return stack_rows([full_d(complex_, k), full_projection(complex_, k)])
    return full_d(complex_, k)


def kernel_vectors(complex_, k):
    """The canonical kernel basis of the full pi_k."""
    return kernel_basis(full_projection(complex_, k))


def restricted_d(complex_, k):
    """The ambient d_k expressed in the kernel bases of degrees k and k-1;
    the reduced-echelon pivots make coordinates direct reads.  Raises when
    an image leaves the codomain kernel."""
    full = full_d(complex_, k)
    domain, codomain = kernel_vectors(complex_, k), kernel_vectors(complex_, k - 1)
    dom_matrix = SparseMatrix.from_columns(full.cols, domain)
    image = multiply(full, dom_matrix)
    pivot_row = {v.entries[0][0]: j for j, v in enumerate(codomain)}
    entries = {}
    for (r, c), v in image.entries.items():
        j = pivot_row.get(r)
        if j is not None:
            entries[(j, c)] = v
    restricted = SparseMatrix(len(codomain), dom_matrix.cols, entries)
    cod_matrix = SparseMatrix.from_columns(full.rows, codomain)
    if multiply(cod_matrix, restricted) != image:
        raise ConsistencyError("differential leaves the kernel subspace")
    return restricted


def _padded(vector, rows):
    return QVector.from_dict(rows, vector.to_dict())


def is_cycle(complex_, chain):
    k = chain.degree
    if k == 0:
        if not _kernel(complex_):
            return True
        return full_projection(complex_, 0).apply(chain.vector).is_zero
    return full_block(complex_, k).apply(chain.vector).is_zero


def is_boundary(complex_, chain):
    block = full_block(complex_, chain.degree + 1)
    return solve(block, _padded(chain.vector, block.rows)) is not None


def homology_reps(complex_, k):
    """b_k cycles of the full complex, kernel vectors in canonical order kept
    greedily when they enlarge the span of the boundary columns."""
    target = betti(complex_, k)
    if target == 0:
        return []
    bounding = full_block(complex_, k + 1)
    if k == 0 and not _kernel(complex_):
        cycles = [QVector.unit(bounding.rows, i) for i in range(bounding.rows)]
    elif k == 0:
        cycles = kernel_basis(full_projection(complex_, 0))
    else:
        cycles = kernel_basis(full_block(complex_, k))
    return [Chain(k, vec.normalized()) for vec in greedy_cycles(bounding, cycles, target)]


def class_coordinates(complex_, chain, reps):
    bounding = full_block(complex_, chain.degree + 1)
    rows = bounding.rows
    columns = [QVector.from_dict(rows, c) for c in _columns_of(bounding) if c]
    basis = columns + [_padded(r.vector, rows) for r in reps]
    solution = LinearSolver(SparseMatrix.from_columns(rows, basis)).solve(
        _padded(chain.vector, rows)
    )
    if solution is None:
        return None
    coords = [QZERO] * len(reps)
    for i, v in solution.entries:
        if i >= len(columns):
            coords[i - len(columns)] = v
    return coords
