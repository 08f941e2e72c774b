"""Finite-dimensional Lie algebras as labeled bases plus structure constants.

The three algebras of interest are built from explicit vector-field bases on
R^(2n):

* ``build_sp(n)``   : the symplectic algebra spanned by the Hamiltonian
  fields of quadratic polynomials, dimension 2n^2 + n;
* ``build_I(n)``    : the abelian algebra of constant fields (Hamiltonian
  fields of linear polynomials), dimension 2n;
* ``build_g(n)``    : their semidirect sum, the affine symplectic algebra,
  basis ordered constants first, dimension 2n^2 + 3n.

Right modules are one action matrix per algebra basis element, with
``actions[i] @ m`` representing the bracket [m, e_i]; the compatibility law
``A_i A_j - A_j A_i = -sum_k c_ij^k A_k`` is validated at construction.

Constructed objects are immutable and freely shareable across threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConsistencyError, DomainError
from .exact_linalg import (
    LinearSolver,
    QVector,
    QZERO,
    Rational,
    SparseMatrix,
    normal_entry,
    products_cancel,
    rank,
    rational_to_string,
)
from .vector_fields import (
    Monomial,
    Polynomial,
    PolyVectorField,
    bracket as field_bracket,
    hamiltonian_field,
)
from .words import sort_with_sign, wedge_dim, wedge_index, wedge_words


@dataclass
class ValidationReport:
    """Outcome of structural checks; failures list the offending indices."""

    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)


class LieAlgebra:
    """Basis labels plus sparse structure constants [e_i, e_j] = c_ij^k e_k.

    Constants are stored for i < j only, so antisymmetry is structural; the
    Jacobi identity is checked at construction unless ``validate=False``
    (used by falsification fixtures).  Each constant is held in the normal
    form of a ``SparseMatrix`` entry: an ``int`` when it is integral, a
    ``Fraction`` otherwise.
    """

    __slots__ = ("dim", "labels", "brackets", "_fingerprint")

    def __init__(
        self,
        dim: int,
        labels: tuple[str, ...],
        brackets: dict[tuple[int, int], dict[int, Rational]],
        validate: bool = True,
    ):
        if len(labels) != dim:
            raise DomainError("label count must equal dimension")
        clean: dict[tuple[int, int], dict[int, int | Rational]] = {}
        for (i, j), coeffs in brackets.items():
            if not 0 <= i < j < dim:
                raise DomainError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            kept = {}
            for k, v in coeffs.items():
                if not 0 <= k < dim:
                    raise DomainError(f"bracket target {k} out of range")
                q = normal_entry(v)
                if q:
                    kept[k] = q
            if kept:
                clean[(i, j)] = kept
        self.dim = dim
        self.labels = tuple(labels)
        self.brackets = clean
        self._fingerprint: str | None = None
        if validate:
            report = self.validate()
            if not report.passed:
                raise ConsistencyError(
                    "structure constants violate the Jacobi identity: "
                    + "; ".join(report.failures[:3])
                )

    # -- bracket access -------------------------------------------------

    def bracket_coeffs(self, i: int, j: int) -> dict[int, int | Rational]:
        """[e_i, e_j] as {k: coefficient}, any index order."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        flipped = self.brackets.get((j, i), {})
        return {k: -v for k, v in flipped.items()}

    def bracket_vectors(self, v: QVector, w: QVector) -> QVector:
        acc: dict[int, Rational] = {}
        for i, a in v.entries:
            for j, b in w.entries:
                for k, c in self.bracket_coeffs(i, j).items():
                    nv = acc.get(k, QZERO) + a * b * c
                    if nv:
                        acc[k] = nv
                    else:
                        del acc[k]
        return QVector.from_dict(self.dim, acc)

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check antisymmetry (structural for this storage) and the Jacobi
        identity over all basis triples."""
        failures = []
        checked = 0
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                cij = self.bracket_coeffs(i, j)
                for k in range(j + 1, self.dim):
                    checked += 1
                    acc: dict[int, int | Rational] = {}
                    for m, c in cij.items():
                        for l, d in self.bracket_coeffs(m, k).items():
                            acc[l] = acc.get(l, 0) + c * d
                    for m, c in self.bracket_coeffs(j, k).items():
                        for l, d in self.bracket_coeffs(m, i).items():
                            acc[l] = acc.get(l, 0) + c * d
                    for m, c in self.bracket_coeffs(k, i).items():
                        for l, d in self.bracket_coeffs(m, j).items():
                            acc[l] = acc.get(l, 0) + c * d
                    if any(v != 0 for v in acc.values()):
                        failures.append(f"jacobi fails on triple ({i},{j},{k})")
        return ValidationReport(not failures, checked, failures)

    # -- derived algebras --------------------------------------------------

    def permuted(self, perm: list[int]) -> "LieAlgebra":
        """Conjugate by a basis permutation: new basis f_p = e_perm[p]."""
        if sorted(perm) != list(range(self.dim)):
            raise DomainError("not a permutation of the basis")
        inverse = [0] * self.dim
        for p, e in enumerate(perm):
            inverse[e] = p
        brackets: dict[tuple[int, int], dict[int, Rational]] = {}
        for (i, j), coeffs in self.brackets.items():
            a, b = inverse[i], inverse[j]
            sign = 1
            if a > b:
                a, b = b, a
                sign = -1
            brackets[(a, b)] = {inverse[k]: sign * v for k, v in coeffs.items()}
        labels = tuple(self.labels[e] for e in perm)
        return LieAlgebra(self.dim, labels, brackets)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        triplets = []
        for (i, j) in sorted(self.brackets):
            for k in sorted(self.brackets[(i, j)]):
                triplets.append([i, j, k, rational_to_string(self.brackets[(i, j)][k])])
        return {"dim": self.dim, "labels": list(self.labels), "brackets": triplets}

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            payload = json.dumps(self.to_json_dict(), sort_keys=True)
            self._fingerprint = hashlib.sha256(payload.encode()).hexdigest()
        return self._fingerprint

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.labels == other.labels
            and self.brackets == other.brackets
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim})"


@dataclass(frozen=True)
class SubalgebraDecomposition:
    """Index split of an algebra into an abelian ideal and a complement
    closed under bracket, validated by ``build_g``."""

    ideal_indices: tuple[int, ...]
    quotient_indices: tuple[int, ...]


class LieModule:
    """Right module: one dim x dim action matrix per algebra basis element.

    ``actions[i].apply(m)`` is the bracket [m, e_i] in coordinates.  The law
    A_i A_j - A_j A_i = -sum_k c_ij^k A_k (the unique compatibility for the
    right-action convention [m,[g,h]] = [[m,g],h] - [[m,h],g]) is validated
    at construction.
    """

    __slots__ = ("algebra", "dim", "actions", "_fingerprint")

    def __init__(
        self,
        algebra: LieAlgebra,
        dim: int,
        actions: tuple[SparseMatrix, ...],
        validate: bool = True,
    ):
        if len(actions) != algebra.dim:
            raise DomainError("need one action matrix per algebra basis element")
        for a in actions:
            if a.rows != dim or a.cols != dim:
                raise DomainError(f"action matrices must be {dim}x{dim}")
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)
        self._fingerprint: str | None = None
        if validate:
            report = self.validate()
            if not report.passed:
                raise ConsistencyError(
                    "action matrices violate the right-module law: "
                    + "; ".join(report.failures[:3])
                )

    def act(self, vec: QVector, i: int) -> QVector:
        return self.actions[i].apply(vec)

    def validate(self) -> ValidationReport:
        failures = []
        checked = 0
        identity = SparseMatrix.identity(self.dim)
        for i in range(self.algebra.dim):
            ai = self.actions[i]
            for j in range(i + 1, self.algebra.dim):
                checked += 1
                aj = self.actions[j]
                terms = [(1, ai, aj), (-1, aj, ai)]
                for k, coeff in self.algebra.bracket_coeffs(i, j).items():
                    terms.append((coeff, self.actions[k], identity))
                if not products_cancel(terms):
                    failures.append(f"module law fails on pair ({i},{j})")
        return ValidationReport(not failures, checked, failures)

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(self.algebra.fingerprint().encode())
            h.update(f"|dim={self.dim}".encode())
            for a in self.actions:
                h.update(a.fingerprint().encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"LieModule(dim={self.dim}, over dim {self.algebra.dim})"


# ---------------------------------------------------------------------------
# vector-field bases and the algebras they span
# ---------------------------------------------------------------------------


def _sp_fields(n: int) -> list[PolyVectorField]:
    """Quadratic-Hamiltonian basis, ordered by family:
    (1) x_k d/dy^k, (2) y_k d/dx^k, (3) x_i d/dy^j + x_j d/dy^i (i<j),
    (4) y_i d/dx^j + y_j d/dx^i (i<j), (5) y_j d/dy^i - x_i d/dx^j (all i,j).
    """
    fields = []
    for k in range(n):                               # (1)
        fields.append(PolyVectorField({n + k: Polynomial.var(k)}))
    for k in range(n):                               # (2)
        fields.append(PolyVectorField({k: Polynomial.var(n + k)}))
    for i in range(n):                               # (3)
        for j in range(i + 1, n):
            fields.append(
                PolyVectorField({n + j: Polynomial.var(i), n + i: Polynomial.var(j)})
            )
    for i in range(n):                               # (4)
        for j in range(i + 1, n):
            fields.append(
                PolyVectorField({j: Polynomial.var(n + i), i: Polynomial.var(n + j)})
            )
    for i in range(n):                               # (5)
        for j in range(n):
            f = PolyVectorField(
                {n + i: Polynomial.var(n + j), j: Polynomial.var(i).neg()}
            )
            fields.append(f)
    return fields


def _ideal_fields(n: int) -> list[PolyVectorField]:
    """Constant fields d/dx^1..d/dx^n, d/dy^1..d/dy^n."""
    return [PolyVectorField.unit(d) for d in range(2 * n)]


class _FieldSpan:
    """Expands vector fields in a fixed linearly independent field basis."""

    def __init__(self, fields: list[PolyVectorField]):
        self.fields = fields
        rows: dict[tuple[int, tuple], int] = {}
        for f in fields:
            for d, poly in f.components.items():
                for mono in poly.terms:
                    rows.setdefault((d, mono.exps), len(rows))
        self.rows = rows
        entries = {}
        for col, f in enumerate(fields):
            for d, poly in f.components.items():
                for mono, coeff in poly.terms.items():
                    entries[(rows[(d, mono.exps)], col)] = coeff
        matrix = SparseMatrix(len(rows), len(fields), entries)
        if fields and rank(matrix) != len(fields):
            raise ConsistencyError("basis fields are linearly dependent")
        self.solver = LinearSolver(matrix)

    def expand(self, f: PolyVectorField) -> QVector:
        coords: dict[int, Rational] = {}
        for d, poly in f.components.items():
            for mono, coeff in poly.terms.items():
                row = self.rows.get((d, mono.exps))
                if row is None:
                    raise ConsistencyError("field does not lie in the basis span")
                coords[row] = coeff
        rhs = QVector.from_dict(len(self.rows), coords)
        out = self.solver.solve(rhs)
        if out is None:
            raise ConsistencyError("field does not lie in the basis span")
        return out


def _algebra_from_fields(
    fields: list[PolyVectorField], labels: tuple[str, ...]
) -> LieAlgebra:
    span = _FieldSpan(fields)
    brackets: dict[tuple[int, int], dict[int, Rational]] = {}
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            prod = field_bracket(fields[i], fields[j])
            if prod.is_zero:
                continue
            coeffs = span.expand(prod)
            if not coeffs.is_zero:
                brackets[(i, j)] = coeffs.to_dict()
    return LieAlgebra(len(fields), labels, brackets)


def build_sp(n: int) -> LieAlgebra:
    """Symplectic algebra from the quadratic-Hamiltonian field basis;
    dimension 2n^2 + n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    fields = _sp_fields(n)
    labels = tuple(f.render(n) for f in fields)
    return _algebra_from_fields(fields, labels)


def build_I(n: int) -> LieAlgebra:
    """Abelian algebra of constant fields; dimension 2n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    fields = _ideal_fields(n)
    labels = tuple(f.render(n) for f in fields)
    return LieAlgebra(2 * n, labels, {})


def build_g(n: int) -> tuple[LieAlgebra, SubalgebraDecomposition]:
    """Affine symplectic algebra, constants first then the symplectic basis;
    dimension 2n^2 + 3n.  Validates the abelian-ideal split."""
    if n < 1:
        raise DomainError("n must be >= 1")
    fields = _ideal_fields(n) + _sp_fields(n)
    labels = tuple(f.render(n) for f in fields)
    algebra = _algebra_from_fields(fields, labels)
    ideal = tuple(range(2 * n))
    quotient = tuple(range(2 * n, algebra.dim))
    _check_decomposition(algebra, ideal, quotient, build_sp(n))
    return algebra, SubalgebraDecomposition(ideal, quotient)


def _check_decomposition(
    algebra: LieAlgebra,
    ideal: tuple[int, ...],
    quotient: tuple[int, ...],
    quotient_model: LieAlgebra,
) -> None:
    ideal_set = set(ideal)
    offset = len(ideal)
    for a in ideal:
        for b in ideal:
            if a < b and algebra.bracket_coeffs(a, b):
                raise ConsistencyError("ideal is not abelian")
        for j in range(algebra.dim):
            for k in algebra.bracket_coeffs(a, j):
                if k not in ideal_set:
                    raise ConsistencyError("bracket leaves the ideal")
    for p in range(len(quotient)):
        for q in range(p + 1, len(quotient)):
            got = algebra.bracket_coeffs(quotient[p], quotient[q])
            sp_part = {k - offset: v for k, v in got.items() if k not in ideal_set}
            if any(k in ideal_set for k in got):
                raise ConsistencyError("complement is not closed under bracket")
            if sp_part != quotient_model.bracket_coeffs(p, q):
                raise ConsistencyError(
                    f"quotient constants differ from the model at ({p},{q})"
                )


# ---------------------------------------------------------------------------
# module constructions
# ---------------------------------------------------------------------------


def validate_lie(algebra: LieAlgebra) -> ValidationReport:
    """Antisymmetry and Jacobi report over all basis triples."""
    return algebra.validate()


def cartan_weights(
    algebra: LieAlgebra, module: LieModule | None = None
) -> tuple[list[tuple], list[tuple]]:
    """Weight vectors of the algebra letters and of the module letters.

    A basis element h grades when ad(h), and the module action of h when a
    module is given, is diagonal in the basis; a letter's weight is the
    vector of its diagonal entries under those h.  Coordinates that vanish
    on every letter are dropped, so an algebra without such h (or an abelian
    one, where every weight is 0) gives vectors of length 0.  For the
    symplectic and affine algebras the grading elements are the
    H_i = y_i d/dy^i - x_i d/dx^i.  Brackets and module actions add weights
    (Jacobi identity, module law), so every differential built from them
    preserves the total weight of a word.
    """
    dim = algebra.dim
    grading = [
        i for i in range(dim)
        if all(set(algebra.bracket_coeffs(j, i)) <= {j} for j in range(dim))
        and (module is None or all(r == c for r, c in module.actions[i].entries))
    ]
    rows = [[algebra.bracket_coeffs(j, i).get(j, 0) for i in grading] for j in range(dim)]
    if module is not None:
        rows += [
            [module.actions[i].entries.get((m, m), 0) for i in grading]
            for m in range(module.dim)
        ]
    kept = [c for c in range(len(grading)) if any(row[c] for row in rows)]
    vectors = [tuple(row[c] for c in kept) for row in rows]
    return vectors[:dim], vectors[dim:]


def adjoint_module(algebra: LieAlgebra, validate: bool = True) -> LieModule:
    """The algebra acting on itself: column j of A_i holds [e_j, e_i]."""
    actions = []
    for i in range(algebra.dim):
        entries = {}
        for j in range(algebra.dim):
            for k, v in algebra.bracket_coeffs(j, i).items():
                entries[(k, j)] = v
        actions.append(SparseMatrix(algebra.dim, algebra.dim, entries))
    return LieModule(algebra, algebra.dim, tuple(actions), validate=validate)


def trivial_module(algebra: LieAlgebra, dim: int = 1) -> LieModule:
    zero = SparseMatrix.zero(dim, dim)
    return LieModule(algebra, dim, tuple(zero for _ in range(algebra.dim)), validate=False)


def restriction_module(module: LieModule, sub_indices: tuple[int, ...]) -> LieModule:
    """Same underlying space, action restricted to a bracket-closed subset of
    the algebra basis; the acting algebra is rebuilt on that subset."""
    algebra = module.algebra
    sub = tuple(sub_indices)
    position = {e: p for p, e in enumerate(sub)}
    if len(position) != len(sub):
        raise DomainError("repeated indices in subalgebra index set")
    brackets: dict[tuple[int, int], dict[int, Rational]] = {}
    for p in range(len(sub)):
        for q in range(p + 1, len(sub)):
            coeffs = algebra.bracket_coeffs(sub[p], sub[q])
            out = {}
            for k, v in coeffs.items():
                if k not in position:
                    raise DomainError(
                        f"index set is not closed under bracket: [{sub[p]},{sub[q]}] "
                        f"hits basis element {k}"
                    )
                out[position[k]] = v
            if out:
                brackets[(p, q)] = out
    sub_algebra = LieAlgebra(
        len(sub), tuple(algebra.labels[e] for e in sub), brackets
    )
    actions = tuple(module.actions[e] for e in sub)
    return LieModule(sub_algebra, module.dim, actions)


def submodule(module: LieModule, indices: tuple[int, ...]) -> LieModule:
    """Restrict the underlying space to a coordinate subspace preserved by
    every action matrix."""
    keep = tuple(indices)
    position = {e: p for p, e in enumerate(keep)}
    keep_set = set(keep)
    actions = []
    for a in module.actions:
        entries = {}
        for (r, c), v in a.entries.items():
            if c in keep_set:
                if r not in keep_set:
                    raise DomainError(
                        f"actions do not preserve the subspace: entry ({r},{c})"
                    )
                entries[(position[r], position[c])] = v
        actions.append(SparseMatrix(len(keep), len(keep), entries))
    return LieModule(module.algebra, len(keep), tuple(actions))


def exterior_power_module(module: LieModule, k: int, validate: bool = True) -> LieModule:
    """k-th exterior power with the derivation action
    [a_1 ^ ... ^ a_k, X] = sum_i a_1 ^ ... ^ [a_i, X] ^ ... ^ a_k.

    Basis: strictly increasing words over the module basis, lexicographic.
    k = 0 is the one-dimensional trivial module; k > dim gives dimension 0.
    """
    if k < 0:
        raise DomainError("exterior power degree must be >= 0")
    dim = wedge_dim(module.dim, k)
    words = list(wedge_words(module.dim, k))
    index = {w: i for i, w in enumerate(words)}
    actions = []
    for a in module.actions:
        entries: dict[tuple[int, int], Rational] = {}
        for ci, w in enumerate(words):
            for slot in range(k):
                for r, v in a.column(w[slot]):
                    nw, sign = sort_with_sign(w[:slot] + (r,) + w[slot + 1 :])
                    if nw is None:
                        continue
                    key = (index[nw], ci)
                    nv = entries.get(key, 0) + sign * v
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
        actions.append(SparseMatrix(dim, dim, entries))
    return LieModule(module.algebra, dim, tuple(actions), validate=validate)


def tensor_module(m1: LieModule, m2: LieModule, validate: bool = True) -> LieModule:
    """Tensor product with the derivation action, first factor index major."""
    if m1.algebra.fingerprint() != m2.algebra.fingerprint():
        raise DomainError("tensor factors must be modules over the same algebra")
    dim = m1.dim * m2.dim
    actions = []
    for a1, a2 in zip(m1.actions, m2.actions):
        entries: dict[tuple[int, int], Rational] = {}
        for (r, c), v in a1.entries.items():
            for i in range(m2.dim):
                key = (r * m2.dim + i, c * m2.dim + i)
                nv = entries.get(key, 0) + v
                if nv:
                    entries[key] = nv
                else:
                    del entries[key]
        for (r, c), v in a2.entries.items():
            for j in range(m1.dim):
                key = (j * m2.dim + r, j * m2.dim + c)
                nv = entries.get(key, 0) + v
                if nv:
                    entries[key] = nv
                else:
                    del entries[key]
        actions.append(SparseMatrix(dim, dim, entries))
    return LieModule(m1.algebra, dim, tuple(actions), validate=validate)
