"""Finite-dimensional Lie algebras as labeled bases plus structure constants.

The three algebras of interest are spanned by Hamiltonian vector fields
X_h on R^(2n), each basis field the field of a multiple h of one monomial:

* ``build_sp(n)``   : the symplectic algebra of the fields of quadratic
  polynomials, dimension 2n^2 + n;
* ``build_I(n)``    : the abelian algebra of constant fields (Hamiltonian
  fields of linear polynomials), dimension 2n;
* ``build_g(n)``    : their semidirect sum, the affine symplectic algebra,
  basis ordered constants first, dimension 2n^2 + 3n.

As [X_f, X_g] = X_{f,g} for the Poisson bracket and the field of a constant
is 0, the structure constants are read off {h_a, h_b}: each coefficient of
a non-constant monomial, over that of the basis Hamiltonian with the same
monomial.  The fields label the letters; none is bracketed.

Right modules are one action matrix per algebra basis element, with
``actions[i] @ m`` representing the bracket [m, e_i]; the compatibility law
``A_i A_j - A_j A_i = -sum_k c_ij^k A_k`` is validated at construction.

``build_sp`` and ``build_g`` also give their algebra ``weyl``: the letter
actions of the generators of the signed Weyl group W~ of Sp(2n, R), the
signed permutations of the coordinates that preserve the symplectic form.
Each generator is a linear symplectic map A, checked so (A^T Omega A =
Omega), which pushes X_h forward to X_(h o A^-1); it is checked to send
every basis Hamiltonian to plus or minus one basis Hamiltonian, and that
signed permutation of the letters to preserve the bracket table.  An
anti-symplectic permutation, which pushes X_h forward to -X_(h o A^-1),
also preserves the bracket table of g_1 but lies outside Sp(2n, R), and is
refused.  Every other algebra, ``I_n`` included, has no ``weyl``.  The
adjoint, trivial, coordinate-sub and exterior-power modules of an algebra
with ``weyl`` carry the induced module-letter actions (``LieModule.weyl``);
``module_weyl`` hands them out once every action matrix checks
equivariant.

Constructed objects are immutable and freely shareable across threads.
"""

from __future__ import annotations

import json

from .errors import ConsistencyError, DomainError
from .exact_linalg import (
    Rational,
    SparseMatrix,
    normal_entry,
    products_cancel,
    rational_to_string,
    sha256,
)
from .vector_fields import Monomial, Polynomial, field_label, poisson
from .words import sort_with_sign, wedge_dim, wedge_words

# a signed permutation of basis letters (or coordinates): entry a is the
# (image, sign) of letter a
SignedPerm = tuple[tuple[int, int], ...]


class ValidationReport:
    """Outcome of structural checks; failures list the offending indices."""

    def __init__(self, passed: bool, checked: int, failures: list[str] | None = None):
        self.passed = passed
        self.checked = checked
        self.failures = [] if failures is None else failures


class LieAlgebra:
    """Basis labels plus sparse structure constants [e_i, e_j] = c_ij^k e_k.

    Constants are stored for i < j only, so antisymmetry is structural; the
    Jacobi identity is checked at construction unless ``validate=False``
    (used by falsification fixtures).  Each constant is held in the normal
    form of a ``SparseMatrix`` entry: an ``int`` when it is integral, a
    ``Fraction`` otherwise.
    """

    __slots__ = ("dim", "labels", "brackets", "weyl", "_fingerprint")

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
        # the letter actions of W~'s generators, set by build_sp and build_g
        self.weyl: tuple[SignedPerm, ...] | None = None
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
            self._fingerprint = sha256(payload.encode()).hexdigest()
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


class SubalgebraDecomposition:
    """Index split of an algebra into an abelian ideal and a complement
    closed under bracket, validated by ``build_g``.  An immutable value:
    equal to a split with the same indices, and hashable."""

    __slots__ = ("ideal_indices", "quotient_indices")

    def __init__(self, ideal_indices: tuple[int, ...], quotient_indices: tuple[int, ...]):
        self.ideal_indices = ideal_indices
        self.quotient_indices = quotient_indices

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ideal_indices == other.ideal_indices
            and self.quotient_indices == other.quotient_indices
        )

    def __hash__(self) -> int:
        return hash((self.ideal_indices, self.quotient_indices))

    def __repr__(self) -> str:
        return (
            f"SubalgebraDecomposition(ideal_indices={self.ideal_indices!r},"
            f" quotient_indices={self.quotient_indices!r})"
        )


class LieModule:
    """Right module: one dim x dim action matrix per algebra basis element.

    ``actions[i].apply(m)`` is the bracket [m, e_i] in coordinates.  The law
    A_i A_j - A_j A_i = -sum_k c_ij^k A_k (the unique compatibility for the
    right-action convention [m,[g,h]] = [[m,g],h] - [[m,h],g]) is validated
    at construction.
    """

    __slots__ = ("algebra", "dim", "actions", "weyl", "_fingerprint")

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
        # the module-letter actions of W~'s generators, for the modules
        # derived from an algebra with ``weyl``; see ``module_weyl``
        self.weyl: tuple[SignedPerm, ...] | None = None
        self._fingerprint: str | None = None
        if validate:
            report = self.validate()
            if not report.passed:
                raise ConsistencyError(
                    "action matrices violate the right-module law: "
                    + "; ".join(report.failures[:3])
                )

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
            h = sha256()
            h.update(self.algebra.fingerprint().encode())
            h.update(f"|dim={self.dim}".encode())
            for a in self.actions:
                h.update(a.fingerprint().encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"LieModule(dim={self.dim}, over dim {self.algebra.dim})"


# ---------------------------------------------------------------------------
# basis Hamiltonians and the algebras their fields span
# ---------------------------------------------------------------------------


def _term(c, exps: dict[int, int]) -> Polynomial:
    return Polynomial({Monomial.from_dict(exps): c})


def _sp_hamiltonians(n: int) -> list[Polynomial]:
    """Quadratic basis Hamiltonians, ordered by family: (1) x_k^2/2,
    (2) -y_k^2/2, (3) x_i x_j (i<j), (4) -y_i y_j (i<j), (5) x_i y_j (all
    i,j).  Their fields are (1) x_k d/dy^k, (2) y_k d/dx^k,
    (3) x_i d/dy^j + x_j d/dy^i, (4) y_i d/dx^j + y_j d/dx^i,
    (5) y_j d/dy^i - x_i d/dx^j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (
        [_term(Rational(1, 2), {k: 2}) for k in range(n)]                  # (1)
        + [_term(Rational(-1, 2), {n + k: 2}) for k in range(n)]           # (2)
        + [_term(1, {i: 1, j: 1}) for i, j in pairs]                       # (3)
        + [_term(-1, {n + i: 1, n + j: 1}) for i, j in pairs]              # (4)
        + [_term(1, {i: 1, n + j: 1}) for i in range(n) for j in range(n)]  # (5)
    )


def _ideal_hamiltonians(n: int) -> list[Polynomial]:
    """-y_1..-y_n, x_1..x_n: the fields d/dx^1..d/dx^n, d/dy^1..d/dy^n."""
    return [_term(-1, {n + i: 1}) for i in range(n)] + [_term(1, {i: 1}) for i in range(n)]


def _labels(hamiltonians: list[Polynomial], n: int) -> tuple[str, ...]:
    return tuple(field_label(h, n) for h in hamiltonians)


def _algebra_from_hamiltonians(hamiltonians: list[Polynomial], n: int) -> LieAlgebra:
    """The algebra the fields X_h span, with the letter actions of the
    generators of W~ (``weyl_action``).  As [X_f, X_g] = X_{f,g} and the
    field of a constant is 0, c_ab^k is the coefficient of the monomial of
    h_k in {h_a, h_b} over its coefficient in h_k, the constant term
    dropped.  Raises ``ConsistencyError`` unless each h_k is a multiple of
    its own non-constant monomial and every bracket lies in their span."""
    letter = {}
    for k, h in enumerate(hamiltonians):
        mono = next(iter(h.terms), Monomial())
        if len(h.terms) != 1 or not mono.exps or mono in letter:
            raise ConsistencyError(
                f"basis Hamiltonian {h.render(n)} is not a multiple of a monomial of its own"
            )
        letter[mono] = (k, h.terms[mono])
    brackets: dict[tuple[int, int], dict[int, Rational]] = {}
    for a in range(len(hamiltonians)):
        for b in range(a + 1, len(hamiltonians)):
            coeffs = {}
            for mono, c in poisson(hamiltonians[a], hamiltonians[b], n).terms.items():
                if mono.exps:
                    if mono not in letter:
                        raise ConsistencyError(
                            f"the bracket of letters {a} and {b} leaves the span at {mono.render(n)}"
                        )
                    k, unit = letter[mono]
                    coeffs[k] = c / unit
            if coeffs:
                brackets[(a, b)] = coeffs
    algebra = LieAlgebra(len(hamiltonians), _labels(hamiltonians, n), brackets)
    algebra.weyl = weyl_action(hamiltonians, algebra, weyl_generators(n))
    return algebra


# ---------------------------------------------------------------------------
# the signed Weyl group W~ of Sp(2n, R)
# ---------------------------------------------------------------------------


def weyl_generators(n: int) -> list[SignedPerm]:
    """Generators of W~ as signed permutations of the coordinates
    x_1..x_n, y_1..y_n (A e_j = sign * e_image): J_i, x_i -> y_i and
    y_i -> -x_i, for each i, and the simultaneous swap of the indices i and
    i + 1 of x and y.  W~ has order 4^n n!."""
    out = []
    for i in range(n):
        coords = [(c, 1) for c in range(2 * n)]
        coords[i], coords[n + i] = (n + i, 1), (i, -1)
        out.append(tuple(coords))
    for i in range(n - 1):
        coords = [(c, 1) for c in range(2 * n)]
        for a in (i, n + i):
            coords[a], coords[a + 1] = (a + 1, 1), (a, 1)
        out.append(tuple(coords))
    return out


def _is_symplectic(coords: SignedPerm) -> bool:
    """A^T Omega A = Omega, entry by entry: omega(A e_a, A e_b) =
    omega(e_a, e_b) for omega(x_i, y_i) = 1."""
    n = len(coords) // 2

    def omega(a: int, b: int) -> int:
        return (b - a == n and a < n) - (a - b == n and b < n)

    return all(
        s * t * omega(ta, tb) == omega(a, b)
        for a, (ta, s) in enumerate(coords) for b, (tb, t) in enumerate(coords)
    )


def _pushed(h: Polynomial, coords: SignedPerm) -> Polynomial:
    """h o A^-1 for A e_j = s_j e_(sigma j): a monomial prod z_j^e_j becomes
    prod (s_j z_(sigma j))^e_j.  For a symplectic A it is the Hamiltonian of
    the push-forward A X_h(A^-1 p)."""
    terms = {}
    for mono, c in h.terms.items():
        odd = False
        for j, e in mono.exps:
            odd ^= coords[j][1] < 0 and e % 2 == 1
        terms[Monomial.from_dict({coords[j][0]: e for j, e in mono.exps})] = -c if odd else c
    return Polynomial(terms)


def _preserves_brackets(algebra: LieAlgebra, perm: SignedPerm) -> bool:
    """[g e_i, g e_j] = g [e_i, e_j] for every pair of letters."""
    for i, (ti, si) in enumerate(perm):
        for j in range(i + 1, algebra.dim):
            tj, sj = perm[j]
            moved = {perm[k][0]: perm[k][1] * v for k, v in algebra.bracket_coeffs(i, j).items()}
            if moved != {k: si * sj * v for k, v in algebra.bracket_coeffs(ti, tj).items()}:
                return False
    return True


def weyl_action(
    hamiltonians: list[Polynomial], algebra: LieAlgebra, generators: list[SignedPerm]
) -> tuple[SignedPerm, ...]:
    """The letter actions of the coordinate maps ``generators`` on the
    algebra spanned by the fields of ``hamiltonians`` (its letters, in
    order), by push-forward: a symplectic A sends X_h to X_(h o A^-1).
    Raises ``ConsistencyError`` unless each map is symplectic, sends every
    basis field to plus or minus one basis field, and preserves the bracket
    table."""
    letter = {}
    for a, h in enumerate(hamiltonians):
        letter[h] = (a, 1)
        letter[h.neg()] = (a, -1)
    out = []
    for coords in generators:
        if not _is_symplectic(coords):
            raise ConsistencyError(f"the coordinate map {coords} is not symplectic")
        perm = tuple(letter.get(_pushed(h, coords)) for h in hamiltonians)
        if None in perm:
            raise ConsistencyError(
                f"the coordinate map {coords} sends a basis field to no signed basis field"
            )
        if not _preserves_brackets(algebra, perm):
            raise ConsistencyError(f"the coordinate map {coords} breaks the bracket table")
        out.append(perm)
    return tuple(out)


def module_weyl(algebra: LieAlgebra, module: LieModule) -> tuple[SignedPerm, ...] | None:
    """The module-letter actions of the generators of ``algebra.weyl`` on
    ``module``, a module over the algebra (or a copy with its fingerprint),
    or None when either has none or an action matrix does not check
    equivariant: g A_a g^-1 = s_a A_(sigma a) for g e_a = s_a e_(sigma a)."""
    if algebra.weyl is None or module.weyl is None or len(module.weyl) != len(algebra.weyl):
        return None
    for letters, slots in zip(algebra.weyl, module.weyl):
        for a, action in enumerate(module.actions):
            target, s = letters[a]
            moved = {
                (slots[r][0], slots[c][0]): s * slots[r][1] * slots[c][1] * v
                for (r, c), v in action.entries.items()
            }
            if moved != module.actions[target].entries:
                return None
    return module.weyl


def build_sp(n: int) -> LieAlgebra:
    """Symplectic algebra of the fields of the quadratic basis
    Hamiltonians; dimension 2n^2 + n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _algebra_from_hamiltonians(_sp_hamiltonians(n), n)


def build_I(n: int) -> LieAlgebra:
    """Abelian algebra of constant fields; dimension 2n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return LieAlgebra(2 * n, _labels(_ideal_hamiltonians(n), n), {})


def build_g(
    n: int, sp: LieAlgebra | None = None
) -> tuple[LieAlgebra, SubalgebraDecomposition]:
    """Affine symplectic algebra, constants first then the symplectic basis;
    dimension 2n^2 + 3n.  Validates the abelian-ideal split, with ``sp``,
    the caller's ``build_sp(n)``, as the model of the quotient; by default
    it is built."""
    if n < 1:
        raise DomainError("n must be >= 1")
    algebra = _algebra_from_hamiltonians(_ideal_hamiltonians(n) + _sp_hamiltonians(n), n)
    ideal = tuple(range(2 * n))
    quotient = tuple(range(2 * n, algebra.dim))
    _check_decomposition(algebra, ideal, quotient, build_sp(n) if sp is None else sp)
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
    module = LieModule(algebra, algebra.dim, tuple(actions), validate=validate)
    module.weyl = algebra.weyl  # W~ acts on the letters as on the algebra
    return module


def trivial_module(algebra: LieAlgebra, dim: int = 1) -> LieModule:
    zero = SparseMatrix.zero(dim, dim)
    module = LieModule(algebra, dim, tuple(zero for _ in range(algebra.dim)), validate=False)
    if algebra.weyl is not None:
        fixed = tuple((m, 1) for m in range(dim))
        module.weyl = tuple(fixed for _ in algebra.weyl)
    return module


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
    restricted = LieModule(sub_algebra, module.dim, actions)
    # the same group acts on the same module letters; the subalgebra itself
    # gets no ``weyl``, so only a complex over an algebra that has one (and
    # the fingerprint of the subalgebra) can use it
    restricted.weyl = module.weyl
    return restricted


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
    sub = LieModule(module.algebra, len(keep), tuple(actions))
    if module.weyl is not None and all(
        perm[e][0] in keep_set for perm in module.weyl for e in keep
    ):
        sub.weyl = tuple(
            tuple((position[perm[e][0]], perm[e][1]) for e in keep) for perm in module.weyl
        )
    return sub


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
    power = LieModule(module.algebra, dim, tuple(actions), validate=validate)
    if module.weyl is not None:
        induced = []
        for perm in module.weyl:
            slots = []
            for w in words:
                moved, sign = sort_with_sign(tuple(perm[a][0] for a in w))
                for a in w:
                    sign *= perm[a][1]
                slots.append((index[moved], sign))
            induced.append(tuple(slots))
        power.weyl = tuple(induced)
    return power


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
