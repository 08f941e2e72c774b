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
``actions[i] @ m`` representing the bracket [m, e_i].  The compatibility
law ``A_i A_j - A_j A_i = -sum_k c_ij^k A_k`` is checked on matrices from
outside (``LieModule(...)``).  A module derived from a checked algebra or
module inherits it and is not checked again: the adjoint law is the Jacobi
identity, the law of a restriction to a closed subalgebra is part of the
parent's, and a preserved subspace, a tensor product and an exterior power
keep the law of their factors.

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
from math import comb

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .exact_linalg import (
    DEFAULT_ENTRY_CAP,
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


class _Derived:
    """An algebra or module that keeps what other layers derive from it:
    ``derived(make)`` is ``make(self)``, made on the first call with this
    ``make`` and kept, so a table read off the structure constants or the
    actions, such as the per-letter tables and guard estimates of
    ``chain_complexes`` or the grading letters of ``cartan_weights``, is
    built once per object, not once per use."""

    __slots__ = ("_derived",)

    def derived(self, make):
        got = self._derived.get(make)
        if got is None:
            got = self._derived[make] = make(self)
        return got


class LieAlgebra(_Derived):
    """Basis labels plus sparse structure constants [e_i, e_j] = c_ij^k e_k.

    Constants are given for i < j only (``brackets``), so antisymmetry is
    structural; ``table`` holds every nonzero bracket in both orders, built
    once here, its i < j dicts those of ``brackets`` and its i > j ones
    their negations, each in increasing order of its targets k.  Every
    reader of the constants goes through it.  The Jacobi identity is
    checked at construction unless ``validate=False`` (used by
    falsification fixtures).  Each constant is held in the normal form of a
    ``SparseMatrix`` entry: an ``int`` when it is integral, a ``Fraction``
    otherwise.
    """

    __slots__ = (
        "dim", "labels", "brackets", "table", "weyl", "_report", "_fingerprint",
    )

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
                clean[(i, j)] = dict(sorted(kept.items()))
        table = dict(clean)
        for (i, j), kept in clean.items():
            table[(j, i)] = {k: -v for k, v in kept.items()}
        self.dim = dim
        self.labels = tuple(labels)
        self.brackets = clean
        self.table = table
        self._derived: dict = {}
        self._report: ValidationReport | None = None
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
        """[e_i, e_j] as {k: coefficient}, any index order: the dict of
        ``table``, shared with every caller, which must not mutate it, or a
        new empty dict for a zero bracket."""
        return self.table.get((i, j), {})

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check antisymmetry (structural for this storage) and the Jacobi
        identity over all basis triples, once per algebra: the report is
        kept.  A triple none of whose pairs has a nonzero bracket satisfies
        it trivially, so only the triples with a pair in ``table`` are
        summed, in increasing order."""
        if self._report is None:
            self._report = self._jacobi()
        return self._report

    def _jacobi(self) -> ValidationReport:
        table = self.table
        triples = sorted({
            tuple(sorted((i, j, k))) for i, j in self.brackets
            for k in range(self.dim) if k != i and k != j
        })
        failures = []
        for i, j, k in triples:
            acc: dict[int, int | Rational] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in table.get((a, b), {}).items():
                    for l, y in table.get((m, c), {}).items():
                        acc[l] = acc.get(l, 0) + x * y
            if any(acc.values()):
                failures.append(f"jacobi fails on triple ({i},{j},{k})")
        return ValidationReport(not failures, comb(self.dim, 3), failures)

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


class LieModule(_Derived):
    """Right module: one dim x dim action matrix per algebra basis element.

    ``actions[i].apply(m)`` is the bracket [m, e_i] in coordinates.  The law
    A_i A_j - A_j A_i = -sum_k c_ij^k A_k (the unique compatibility for the
    right-action convention [m,[g,h]] = [[m,g],h] - [[m,h],g]) is checked
    here; the module constructors below derive theirs through ``_of``.
    """

    __slots__ = ("algebra", "dim", "actions", "weyl", "_fingerprint")

    def __init__(self, algebra: LieAlgebra, dim: int, actions: tuple[SparseMatrix, ...]):
        if len(actions) != algebra.dim:
            raise DomainError("need one action matrix per algebra basis element")
        for a in actions:
            if a.rows != dim or a.cols != dim:
                raise DomainError(f"action matrices must be {dim}x{dim}")
        self._set(algebra, dim, tuple(actions), None)
        report = self.validate()
        if not report.passed:
            raise ConsistencyError(
                "action matrices violate the right-module law: "
                + "; ".join(report.failures[:3])
            )

    @classmethod
    def _of(
        cls,
        algebra: LieAlgebra,
        dim: int,
        actions: tuple[SparseMatrix, ...],
        weyl: tuple[SignedPerm, ...] | None = None,
    ) -> "LieModule":
        """Wrap the actions of a module derived from a checked algebra or
        module: their shapes are right by construction and the law is
        inherited, so neither is checked."""
        m = cls.__new__(cls)
        m._set(algebra, dim, actions, weyl)
        return m

    def _set(self, algebra, dim, actions, weyl) -> None:
        self.algebra = algebra
        self.dim = dim
        self.actions = actions
        # the module-letter actions of W~'s generators, for the modules
        # derived from an algebra with ``weyl``; see ``module_weyl``
        self.weyl: tuple[SignedPerm, ...] | None = weyl
        self._derived: dict = {}
        self._fingerprint: str | None = None

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
    """[g e_i, g e_j] = g [e_i, e_j] for every pair of letters.  g permutes
    the letters, so it permutes their pairs, and once each nonzero bracket
    goes to the bracket of the images, which is then nonzero, the zero
    brackets go to zero ones: only the pairs of ``brackets`` are read."""
    if len({t for t, _ in perm}) != len(perm):
        return False
    table = algebra.table
    for (i, j), coeffs in algebra.brackets.items():
        (ti, si), (tj, sj) = perm[i], perm[j]
        moved = {perm[k][0]: perm[k][1] * v for k, v in coeffs.items()}
        if moved != {k: si * sj * v for k, v in table.get((ti, tj), {}).items()}:
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


def check_size(family: str, n: int) -> None:
    """Raise ``DomainError`` unless n >= 1, and ``ResourceLimitError`` when
    the ``family`` algebra at n (``"sp"``, ``"I"`` or ``"g"``) outgrows the
    default entry cap: ``sp_n`` and ``g_n`` by comb(dim, 2) * dim, the
    bound on the triples their Jacobi check sums, and the abelian ``I_n``,
    which has no brackets, by its comb(dim, 2) pairs of letters.  Run
    before any Hamiltonian is made, so a huge n is refused at once."""
    if n < 1:
        raise DomainError("n must be >= 1")
    dim = {"sp": 2 * n * n + n, "I": 2 * n, "g": 2 * n * n + 3 * n}[family]
    pairs = comb(dim, 2)
    size = pairs if family == "I" else pairs * dim
    if size > DEFAULT_ENTRY_CAP:
        times = "" if family == "I" else f" times {dim} letters, {size}"
        raise ResourceLimitError(
            f"an algebra of dimension {dim} has {pairs} pairs of letters{times},"
            f" over the cap {DEFAULT_ENTRY_CAP}"
        )


def build_sp(n: int) -> LieAlgebra:
    """Symplectic algebra of the fields of the quadratic basis
    Hamiltonians; dimension 2n^2 + n."""
    check_size("sp", n)
    return _algebra_from_hamiltonians(_sp_hamiltonians(n), n)


def build_I(n: int) -> LieAlgebra:
    """Abelian algebra of constant fields; dimension 2n."""
    check_size("I", n)
    return LieAlgebra(2 * n, _labels(_ideal_hamiltonians(n), n), {})


def build_g(
    n: int, sp: LieAlgebra | None = None
) -> tuple[LieAlgebra, SubalgebraDecomposition]:
    """Affine symplectic algebra, constants first then the symplectic basis;
    dimension 2n^2 + 3n.  Validates the abelian-ideal split, with ``sp``,
    the caller's ``build_sp(n)``, as the model of the quotient
    (``DomainError`` when its constants are not the quotient's); by default
    it is built."""
    check_size("g", n)
    algebra = _algebra_from_hamiltonians(_ideal_hamiltonians(n) + _sp_hamiltonians(n), n)
    ideal = tuple(range(2 * n))
    quotient = tuple(range(2 * n, algebra.dim))
    for a in ideal:
        for j in range(algebra.dim):
            coeffs = algebra.bracket_coeffs(a, j)
            if j < 2 * n and coeffs:
                raise ConsistencyError("ideal is not abelian")
            if any(k >= 2 * n for k in coeffs):
                raise ConsistencyError("bracket leaves the ideal")
    _check_subalgebra(algebra, quotient, build_sp(n) if sp is None else sp)
    return algebra, SubalgebraDecomposition(ideal, quotient)


def _check_subalgebra(algebra: LieAlgebra, letters: tuple[int, ...], model: LieAlgebra) -> None:
    """Raise ``DomainError`` unless the ``letters`` of ``algebra`` close
    under its bracket with the constants of ``model``, whose letter p is
    ``letters[p]``: [e_letters[p], e_letters[q]] = sum_r c_pq^r
    e_letters[r] for c the constants of ``model``."""
    position = {e: p for p, e in enumerate(letters)}
    if len(position) != len(letters):
        raise DomainError("repeated indices in subalgebra index set")
    if model.dim != len(letters):
        raise DomainError(
            f"{len(letters)} letters cannot span an algebra of dimension {model.dim}"
        )
    for p, a in enumerate(letters):
        for q in range(p + 1, len(letters)):
            b = letters[q]
            coeffs = algebra.bracket_coeffs(a, b)
            for k in coeffs:
                if k not in position:
                    raise DomainError(
                        f"index set is not closed under bracket: [{a},{b}] hits basis element {k}"
                    )
            if {position[k]: v for k, v in coeffs.items()} != model.bracket_coeffs(p, q):
                raise DomainError(f"the constants of letters ({a},{b}) differ from the model's")


# ---------------------------------------------------------------------------
# module constructions
# ---------------------------------------------------------------------------


def validate_lie(algebra: LieAlgebra) -> ValidationReport:
    """Antisymmetry and Jacobi report over all basis triples."""
    return algebra.validate()


def _diagonal_letters(algebra: LieAlgebra) -> tuple[int, ...]:
    """The letters i whose ad(e_i) is diagonal in the basis: no bracket
    [e_j, e_i] has a term off e_j.  The candidate grading elements of
    ``cartan_weights``, derived once per algebra."""
    off_diagonal = {i for (j, i), coeffs in algebra.table.items() if coeffs.keys() - {j}}
    return tuple(i for i in range(algebra.dim) if i not in off_diagonal)


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
    table = algebra.table
    grading = [
        i for i in algebra.derived(_diagonal_letters)
        if module is None or all(r == c for r, c in module.actions[i].entries)
    ]
    rows = [[table.get((j, i), {}).get(j, 0) for i in grading] for j in range(dim)]
    if module is not None:
        rows += [
            [module.actions[i].entries.get((m, m), 0) for i in grading]
            for m in range(module.dim)
        ]
    kept = [c for c in range(len(grading)) if any(row[c] for row in rows)]
    vectors = [tuple(row[c] for c in kept) for row in rows]
    return vectors[:dim], vectors[dim:]


def adjoint_module(algebra: LieAlgebra) -> LieModule:
    """The algebra acting on itself: column j of A_i holds [e_j, e_i].

    Its module law on e_m at the pair (i, j) reads [[e_m, e_j], e_i] -
    [[e_m, e_i], e_j] + [e_m, [e_i, e_j]] = 0: the Jacobi identity of
    {m, i, j}, checked when the algebra was built, or antisymmetry when m
    is i or j.  W~ acts on the module letters as on the algebra's."""
    entries: list[dict] = [{} for _ in range(algebra.dim)]
    for (j, i), coeffs in sorted(algebra.table.items()):
        for k, v in coeffs.items():
            entries[i][(k, j)] = v
    actions = tuple(SparseMatrix(algebra.dim, algebra.dim, e) for e in entries)
    return LieModule._of(algebra, algebra.dim, actions, algebra.weyl)


def trivial_module(algebra: LieAlgebra, dim: int = 1) -> LieModule:
    zero = SparseMatrix.zero(dim, dim)
    weyl = None
    if algebra.weyl is not None:
        fixed = tuple((m, 1) for m in range(dim))
        weyl = tuple(fixed for _ in algebra.weyl)
    return LieModule._of(algebra, dim, tuple(zero for _ in range(algebra.dim)), weyl)


def restriction_module(
    module: LieModule, sub_indices: tuple[int, ...], algebra: LieAlgebra
) -> LieModule:
    """Same underlying space, acted on by the letters ``sub_indices`` of the
    module's algebra through ``algebra``, the caller's copy of the
    subalgebra they span, its letter p the letter ``sub_indices[p]``.
    Raises ``DomainError`` unless they close under the bracket with the
    constants of ``algebra``; no algebra is built.  W~ acts on the same
    module letters, for a complex over an algebra that has it."""
    sub = tuple(sub_indices)
    _check_subalgebra(module.algebra, sub, algebra)
    return LieModule._of(
        algebra, module.dim, tuple(module.actions[e] for e in sub), module.weyl
    )


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
    weyl = None
    if module.weyl is not None and all(
        perm[e][0] in keep_set for perm in module.weyl for e in keep
    ):
        weyl = tuple(
            tuple((position[perm[e][0]], perm[e][1]) for e in keep) for perm in module.weyl
        )
    return LieModule._of(module.algebra, len(keep), tuple(actions), weyl)


def exterior_power_module(module: LieModule, k: int) -> LieModule:
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
    weyl = None
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
        weyl = tuple(induced)
    return LieModule._of(module.algebra, dim, tuple(actions), weyl)


def tensor_module(m1: LieModule, m2: LieModule) -> LieModule:
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
    return LieModule._of(m1.algebra, dim, tuple(actions))
