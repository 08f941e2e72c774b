"""The five chain complexes over a finite-dimensional Lie algebra g.

* ``ce_complex``      : exterior powers Lambda^*(g), differential
  d(g_1^...^g_n) = sum_{i<j} (-1)^j (g_1^...^[g_i,g_j]^...^ghat_j^...^g_n);
* ``coeff_complex``   : M (x) Lambda^*(g) for a right module M, with the
  extra action terms sum_i (-1)^i ([m, g_i] (x) ...);
* ``leibniz_complex`` : tensor powers with the same bracket rule and no
  antisymmetrization;
* ``rel_complex``     : kernels of the tensor-to-wedge projections, degree
  shifted by 2, with the restricted tensor differential;
* ``cr_complex``      : kernels of the mixed projections g (x) Lambda^k ->
  Lambda^(k+1), degree shifted by 1, with the restricted coefficient
  differential.

Ranks come from the Cartan weight-0 block.  The basis elements h whose
adjoint action (and module action) is diagonal grade every complex by the
total weight of a word (``lie_structures.cartan_weights``), and every
differential and projection preserves it.  By Cartan's formula
theta_h = d iota_h + iota_h d every block of nonzero weight is acyclic in
characteristic 0 (Hochschild-Serre 1953 for the Lie and coefficient
complexes, Loday-Pirashvili 1993 for the Leibniz complex, and the kernel
complexes by the long exact sequence of their surjective projections), so

    rank d_k = rank(d_k on weight 0) + sum_{j<k} (-1)^(k-1-j) (dim C_j - dim C_j^0).

``ce_d``, ``leibniz_d``, ``coeff_d`` and the projection functions assemble
the rows and columns of a given ``WordSet``; the full matrix is the one over
all words.  They raise ``ConsistencyError`` when an image word leaves the
set, so a bracket that breaks the grading is caught, not absorbed.  An
algebra without a grading (``I_n``), or a complex built from explicit
matrices, has a single block: the whole complex.

Degree caps are explicit.  d o d = 0 is verified at build time on every
adjacent pair of weight-0 blocks, and on every adjacent pair of full
differentials once both are built; full differentials are assembled only
when ``d`` asks for one (cycles, membership tests) and are then kept.  A
finished complex is shareable across threads; ranks are memoized per
complex and optionally persisted in a ``DiffCache``, as are the matrices.

The two kernel complexes (``KernelComplex``) hold the ambient differentials
d_m and the projections pi_m rather than kernel bases.  Their ranks come
from stacked blocks, as rank([d_m; pi_m]) minus rank pi_m (the rank of d_m
restricted to ker pi_m) on weight 0 plus the off-block sum above, and their
dimensions are cols(pi_m) minus rank pi_m.  The build-time checks are
ambient d o d = 0 and the chain-map identity pi_(m-1) d_m = e_m pi_m with e
the exterior differential, which together make the restriction a complex;
both run on the blocks at build time and on the full matrices once built.
Kernel bases and restricted differentials are built only when ``basis`` or
``d`` asks for them (cycles, membership tests).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb

from .cache import DiffCache, descriptor_key
from .errors import ConsistencyError, DegreeRangeError, DomainError
from .exact_linalg import (
    QONE,
    QVector,
    QZERO,
    Rational,
    SparseMatrix,
    check_entry_budget,
    kernel_basis,
    multiply,
    rank,
    stack_rows,
)
from .lie_structures import LieAlgebra, LieModule, adjoint_module, cartan_weights
from .words import (
    WordSet,
    sort_with_sign,
    tensor_dim,
    tensor_index,
    tensor_word_at,
    wedge_dim,
    wedge_index,
    wedge_word_at,
)


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------


class WedgeBasis:
    """Strictly increasing words over the algebra basis, lexicographic."""

    def __init__(self, algebra: LieAlgebra, k: int):
        self.algebra = algebra
        self.k = k
        self.dim = wedge_dim(algebra.dim, k)

    def __len__(self) -> int:
        return self.dim

    def word_at(self, index: int) -> tuple[int, ...]:
        return wedge_word_at(index, self.algebra.dim, self.k)

    def index(self, word: tuple[int, ...]) -> int:
        return wedge_index(word, self.algebra.dim)

    def label(self, index: int) -> str:
        if self.k == 0:
            return "1"
        return " ^ ".join(f"({self.algebra.labels[i]})" for i in self.word_at(index))


class TensorBasis:
    """All words over the algebra basis, lexicographic."""

    def __init__(self, algebra: LieAlgebra, k: int):
        self.algebra = algebra
        self.k = k
        self.dim = tensor_dim(algebra.dim, k)

    def __len__(self) -> int:
        return self.dim

    def word_at(self, index: int) -> tuple[int, ...]:
        return tensor_word_at(index, self.algebra.dim, self.k)

    def index(self, word: tuple[int, ...]) -> int:
        return tensor_index(word, self.algebra.dim)

    def label(self, index: int) -> str:
        if self.k == 0:
            return "1"
        return " (x) ".join(f"({self.algebra.labels[i]})" for i in self.word_at(index))


class ModuleWedgeBasis:
    """Pairs (module element, wedge word), module index major."""

    def __init__(self, module: LieModule, k: int):
        self.module = module
        self.algebra = module.algebra
        self.k = k
        self.wedge = wedge_dim(self.algebra.dim, k)
        self.dim = module.dim * self.wedge

    def __len__(self) -> int:
        return self.dim

    def index(self, m: int, word: tuple[int, ...]) -> int:
        return m * self.wedge + wedge_index(word, self.algebra.dim)

    def word_at(self, index: int) -> tuple[int, tuple[int, ...]]:
        m, w = divmod(index, self.wedge)
        return m, wedge_word_at(w, self.algebra.dim, self.k)

    def label(self, index: int) -> str:
        m, word = self.word_at(index)
        tail = " ^ ".join(f"({self.algebra.labels[i]})" for i in word) or "1"
        return f"m{m} (x) {tail}"


class KernelBasis:
    """Explicit kernel-subspace vectors in ambient coordinates."""

    def __init__(self, vectors: list[QVector], ambient):
        self.vectors = vectors
        self.ambient = ambient
        self.dim = len(vectors)
        # reduced-echelon pivots: first entry of each vector
        self.pivots = [v.entries[0][0] for v in vectors]

    def __len__(self) -> int:
        return self.dim

    def label(self, index: int) -> str:
        return f"ker{index}"


@dataclass(frozen=True)
class Chain:
    """An element of one degree of a complex, in that degree's basis."""

    degree: int
    vector: QVector

    def scale(self, c) -> "Chain":
        return Chain(self.degree, self.vector.scale(c))

    def add(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise DomainError("cannot add chains of different degrees")
        return Chain(self.degree, self.vector.add(other.vector))

    def sub(self, other: "Chain") -> "Chain":
        return self.add(other.scale(-1))

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero


class _Graded:
    """Matrices by degree: the Cartan weight-0 block and the full matrix,
    each made once, on first use, by ``make(k, weight0)``.  An ungraded
    family (explicit matrices, an algebra without a grading) has one matrix
    per degree, which is both."""

    def __init__(self, make, graded: bool):
        self._make = make
        self.graded = graded
        self._made: dict[tuple[int, bool], SparseMatrix] = {}

    @classmethod
    def of(cls, matrices) -> "_Graded":
        """A family as it is, or explicit matrices by degree as one."""
        if isinstance(matrices, cls):
            return matrices
        given = dict(matrices)
        return cls(lambda k, weight0: given[k], graded=False)

    def block(self, k: int) -> SparseMatrix:
        return self._get(k, self.graded)

    def full(self, k: int) -> SparseMatrix:
        return self._get(k, False)

    def built(self, k: int) -> bool:
        """Whether the full matrix of degree k has been made."""
        return (k, False) in self._made

    def _get(self, k: int, weight0: bool) -> SparseMatrix:
        got = self._made.get((k, weight0))
        if got is None:
            got = self._made[(k, weight0)] = self._make(k, weight0)
        return got


def _check_zero_product(first: SparseMatrix, second: SparseMatrix, what: str) -> None:
    if multiply(first, second).nnz:
        raise ConsistencyError(what)


def _check_full_neighbours(family: _Graded, k: int, cap: int, what: str) -> None:
    """d_(j-1) o d_j = 0 for the pairs around degree k whose full matrices
    are both built."""
    for j in (k, k + 1):
        if 2 <= j <= cap and family.built(j - 1) and family.built(j):
            _check_zero_product(
                family.full(j - 1), family.full(j), f"{what} d_{j - 1} o d_{j} != 0"
            )


class ChainComplex:
    """Graded dimensions plus differentials d_k : C_k -> C_(k-1), 1 <= k <= cap.

    ``diffs`` is either a dict of explicit matrices by degree or the
    ``_Graded`` family of a builder.  ``dims`` and ``bases`` describe the
    full complex; ``block_dims`` the weight-0 block that ranks run on.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        dims: list[int],
        diffs,
        bases: dict[int, object],
        cap: int,
        cache: DiffCache | None = None,
        validate: bool = True,
        entry_cap: int | None = None,
    ):
        self.kind = kind
        self.name = name
        self.dims = list(dims)
        self.bases = dict(bases)
        self.cap = cap
        self.cache = cache
        self.entry_cap = entry_cap
        self._diffs = _Graded.of(diffs)
        self._ranks: dict[int, int] = {}
        self._ranks_transposed: dict[int, int] = {}
        blocks = [self._diffs.block(k) for k in range(1, cap + 1)]
        if self._diffs.graded and blocks:
            self.block_dims = [blocks[0].rows] + [d.cols for d in blocks]
        else:  # the block is the whole complex, or at cap 0 nothing is ranked
            self.block_dims = self.dims
        for k, d in enumerate(blocks, start=1):
            if d.cols != self.block_dims[k] or d.rows != self.block_dims[k - 1]:
                raise ConsistencyError(f"differential d_{k} has the wrong shape")
        if validate:
            self.verify_dd_zero()

    def verify_dd_zero(self) -> None:
        """d o d = 0 on every adjacent pair of weight-0 blocks."""
        for k in range(2, self.cap + 1):
            _check_zero_product(
                self._diffs.block(k - 1), self._diffs.block(k),
                f"{self.name}: d_{k - 1} o d_{k} != 0",
            )

    def check_degree(self, k: int) -> None:
        if not 0 <= k <= self.cap:
            raise DegreeRangeError(
                f"degree {k} outside the built range 0..{self.cap} of {self.name}"
            )

    def dim(self, k: int) -> int:
        self.check_degree(k)
        return self.dims[k]

    def d(self, k: int) -> SparseMatrix:
        """The full differential d_k, assembled on first request; d o d = 0
        is then checked against each full neighbour already built."""
        self.check_degree(k)
        if k == 0:
            raise DegreeRangeError("d_0 does not exist")
        fresh = not self._diffs.built(k)
        got = self._diffs.full(k)
        if fresh:
            if got.cols != self.dims[k] or got.rows != self.dims[k - 1]:
                raise ConsistencyError(f"differential d_{k} has the wrong shape")
            _check_full_neighbours(self._diffs, k, self.cap, f"{self.name}:")
        return got

    @property
    def diffs(self) -> dict[int, SparseMatrix]:
        """Every full differential, assembling those not built yet."""
        return {k: self.d(k) for k in range(1, self.cap + 1)}

    def basis(self, k: int):
        self.check_degree(k)
        return self.bases[k]

    def block(self, k: int) -> SparseMatrix:
        """The matrix ``rank_d(k)`` eliminates: d_k on the weight-0 words."""
        self.check_degree(k)
        return self._diffs.block(k)

    def rank_d(self, k: int) -> int:
        """rank d_k, memoized; rank d_0 is 0 by convention."""
        return self._memoized(
            self._ranks, k, lambda: self._ranked(self.block(k)) + self._off_block_rank(k)
        )

    def rank_d_transposed(self, k: int) -> int:
        """rank of the transposed differential, its block eliminated
        independently; equals rank_d over a field and serves as its
        cross-check."""
        return self._memoized(
            self._ranks_transposed, k,
            lambda: self._ranked(self.block(k).transpose()) + self._off_block_rank(k),
        )

    def _off_block_rank(self, k: int) -> int:
        """rank of d_k outside the weight-0 block.  That part of the complex
        is acyclic, so its ranks telescope down to degree 0."""
        return sum(
            (-1) ** (k - 1 - j) * (self.dims[j] - self.block_dims[j]) for j in range(k)
        )

    def _memoized(self, memo: dict[int, int], k: int, compute) -> int:
        if k == 0:
            return 0
        self.check_degree(k)
        got = memo.get(k)
        if got is None:
            got = memo[k] = compute()
        return got

    def _ranked(self, matrix: SparseMatrix) -> int:
        """rank(matrix), through the disk cache when there is one.  A cached
        value that cannot be a rank of this shape counts as a miss and is
        recomputed and rewritten.  Elimination fill-in is held to the
        complex's ``entry_cap``."""
        if not matrix.entries:
            return 0
        if self.cache is None:
            return rank(matrix, self.entry_cap)
        fp = matrix.fingerprint()
        hit = self.cache.get_rank(fp)
        if hit is not None and 0 <= hit <= min(matrix.rows, matrix.cols):
            return hit
        value = rank(matrix, self.entry_cap)
        self.cache.put_rank(fp, value)
        return value

    def __repr__(self) -> str:
        return f"ChainComplex({self.name}, kind={self.kind}, cap={self.cap})"


# ---------------------------------------------------------------------------
# differential construction
# ---------------------------------------------------------------------------


def _whole(value: Rational):
    """An integral rational as an int, which sums faster; others as they are."""
    return int(value) if value.denominator == 1 else value


def _bracket_table(algebra: LieAlgebra) -> tuple[dict, int]:
    """Both orders of every nonzero bracket, as sorted (target, coefficient)
    pairs; the assembly loops sum in ints where the constants allow and
    ``SparseMatrix`` turns the sums into rationals."""
    table = {}
    longest = 1
    for (i, j), coeffs in algebra.brackets.items():
        items = tuple(sorted((k, _whole(v)) for k, v in coeffs.items()))
        table[(i, j)] = items
        table[(j, i)] = tuple((k, -v) for k, v in items)
        longest = max(longest, len(items))
    return table, longest


def _insert_sorted(
    rest: list[int], m: int, slot: int = 0
) -> tuple[list[int] | None, int]:
    """Insert m into a strictly increasing list; (None, 0) if already there.

    The sign is the parity of the move from position ``slot`` (where the
    bracket lands before reordering) to the sorted position."""
    p = bisect_left(rest, m)
    if p < len(rest) and rest[p] == m:
        return None, 0
    return rest[:p] + [m] + rest[p:], -1 if (p - slot) % 2 else 1


def _guard(estimate: int, cap: int | None) -> None:
    check_entry_budget(estimate, cap)


def _leaves(word, k: int) -> ConsistencyError:
    return ConsistencyError(
        f"the image {word} of a degree-{k} word leaves the assembled word set"
    )


# The up-front estimates count the full matrix whatever word set is
# assembled, so the envelope of a complex (and every exit 3 it gives) does
# not depend on its grading; the weight-0 block is never larger.


def ce_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Exterior-power differential d_k : Lambda^k -> Lambda^(k-1) on the
    wedge words of ``words`` (all words by default)."""
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    if k >= 2:
        _guard(wedge_dim(dim, k) * comb(k, 2) * longest, entry_cap)
    words = WordSet.all(dim) if words is None else words
    cols = words.wedge(k)
    row_of = words.position("wedge", k - 1)
    entries: dict[tuple[int, int], Rational | int] = {}
    for ci, w in enumerate(cols):
        for t in range(1, k):
            sign_t = -1 if (t + 1) % 2 else 1      # (-1)^j with j = t+1 one-based
            for s in range(t):
                items = table.get((w[s], w[t]))
                if not items:
                    continue
                rest = list(w[:s] + w[s + 1 : t] + w[t + 1 :])
                for m, c in items:
                    placed, psign = _insert_sorted(rest, m, s)
                    if placed is None:
                        continue
                    row = row_of.get(tuple(placed))
                    if row is None:
                        raise _leaves(tuple(placed), k)
                    key = (row, ci)
                    nv = entries.get(key, 0) + sign_t * psign * c
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
    _guard(len(entries), entry_cap)
    return SparseMatrix(len(row_of), len(cols), entries)


def leibniz_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Tensor-power differential on the tensor words of ``words`` (all words
    by default): bracket lands in slot i, slot j dropped, sign (-1)^j, no
    reordering."""
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    if k >= 2:
        _guard(tensor_dim(dim, k) * comb(k, 2) * longest, entry_cap)
    words = WordSet.all(dim) if words is None else words
    cols = words.tensor(k)
    row_of = words.position("tensor", k - 1)
    entries: dict[tuple[int, int], Rational | int] = {}
    for ci, w in enumerate(cols):
        for t in range(1, k):
            sign_t = -1 if (t + 1) % 2 else 1
            for s in range(t):
                items = table.get((w[s], w[t]))
                if not items:
                    continue
                prefix = w[:s]
                middle = w[s + 1 : t]
                suffix = w[t + 1 :]
                for m, c in items:
                    nw = prefix + (m,) + middle + suffix
                    row = row_of.get(nw)
                    if row is None:
                        raise _leaves(nw, k)
                    key = (row, ci)
                    nv = entries.get(key, 0) + sign_t * c
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
    _guard(len(entries), entry_cap)
    return SparseMatrix(len(row_of), len(cols), entries)


def coeff_d(
    module: LieModule, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Coefficient differential M (x) Lambda^k -> M (x) Lambda^(k-1) on the
    module-wedge words of ``words`` (all words by default).

    Action terms carry (-1)^i with the wedge letters indexed from 2, so slot
    s (0-based) contributes (-1)^s [m, g_s] (x) (word minus slot s); bracket
    terms carry (-1)^j = (-1)^t by the same indexing.
    """
    algebra = module.algebra
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    action_longest = max((1,) + tuple(a.nnz // max(a.cols, 1) + 1 for a in module.actions))
    _guard(
        module.dim * wedge_dim(dim, k) * (k * action_longest + comb(k, 2) * longest),
        entry_cap,
    )
    words = WordSet.all(dim, module.dim) if words is None else words
    cols = words.module_wedge(k)
    row_of = words.position("module_wedge", k - 1)
    # wedge-only terms of a word, shared across module indices
    shared_of: dict[tuple[int, ...], list[tuple[tuple[int, ...], Rational | int]]] = {}
    entries: dict[tuple[int, int], Rational | int] = {}

    def add(word, col: int, value) -> None:
        row = row_of.get(word)
        if row is None:
            raise _leaves(word, k)
        key = (row, col)
        nv = entries.get(key, 0) + value
        if nv:
            entries[key] = nv
        else:
            del entries[key]

    for col, (mi, w) in enumerate(cols):
        shared = shared_of.get(w)
        if shared is None:
            shared = shared_of[w] = []
            for t in range(1, k):
                sign_t = -1 if t % 2 else 1            # (-1)^(t+2)
                for s in range(t):
                    items = table.get((w[s], w[t]))
                    if not items:
                        continue
                    rest = list(w[:s] + w[s + 1 : t] + w[t + 1 :])
                    for m, c in items:
                        placed, psign = _insert_sorted(rest, m, s)
                        if placed is None:
                            continue
                        shared.append((tuple(placed), sign_t * psign * c))
        for s in range(k):
            sign_s = -1 if s % 2 else 1                # (-1)^(s+2)
            rest = w[:s] + w[s + 1 :]
            for m2, v in module.actions[w[s]].column(mi):
                add((m2, rest), col, sign_s * _whole(v))
        for placed, c in shared:
            add((mi, placed), col, c)
    _guard(len(entries), entry_cap)
    return SparseMatrix(len(row_of), len(cols), entries)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


_UNIT = {1: QONE, -1: -QONE}


def wedge_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Antisymmetrization g^((x)k) -> g^(^k) on the tensor and wedge words of
    ``words`` (all words by default): a word with a repeated letter maps to
    0, otherwise to its sorted word with the permutation sign."""
    dim = algebra.dim
    _guard(tensor_dim(dim, k), entry_cap)
    words = WordSet.all(dim) if words is None else words
    cols = words.tensor(k)
    row_of = words.position("wedge", k)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(cols):
        ordered, sign = sort_with_sign(w)
        if ordered is None:
            continue
        row = row_of.get(ordered)
        if row is None:
            raise _leaves(ordered, k)
        entries[(row, ci)] = _UNIT[sign]
    return SparseMatrix(len(row_of), len(cols), entries)


def partial_wedge_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Wedge the leading factor in: g (x) Lambda^k -> Lambda^(k+1),
    e (x) w -> e ^ w, no scalar.  Columns are the module-wedge words of
    ``words`` over the adjoint module (all words by default)."""
    dim = algebra.dim
    _guard(dim * wedge_dim(dim, k), entry_cap)
    words = WordSet.all(dim, dim) if words is None else words
    cols = words.module_wedge(k)
    row_of = words.position("wedge", k + 1)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, (e, w) in enumerate(cols):
        placed, sign = _insert_sorted(list(w), e)
        if placed is None:
            continue
        row = row_of.get(tuple(placed))
        if row is None:
            raise _leaves(tuple(placed), k)
        entries[(row, ci)] = _UNIT[sign]
    return SparseMatrix(len(row_of), len(cols), entries)


def mixed_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """First factor kept, tail antisymmetrized: g^((x)(k+1)) -> g (x) Lambda^k,
    rows the module-wedge words of ``words`` over the adjoint module (all
    words by default).  Composing with the partial wedge projection recovers
    the full one."""
    dim = algebra.dim
    _guard(tensor_dim(dim, k + 1), entry_cap)
    words = WordSet.all(dim, dim) if words is None else words
    cols = words.tensor(k + 1)
    row_of = words.position("module_wedge", k)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(cols):
        ordered, sign = sort_with_sign(w[1:])
        if ordered is None:
            continue
        row = row_of.get((w[0], ordered))
        if row is None:
            raise _leaves((w[0], ordered), k + 1)
        entries[(row, ci)] = _UNIT[sign]
    return SparseMatrix(len(row_of), len(cols), entries)


# ---------------------------------------------------------------------------
# complex builders
# ---------------------------------------------------------------------------


def _cached_matrix(cache, kind, key_parts, builder):
    if cache is None:
        return builder()
    key = descriptor_key(*key_parts)
    hit = cache.get_matrix(kind, key)
    if hit is not None:
        return hit
    built = builder()
    cache.put_matrix(kind, key, built)
    return built


def _word_sets(algebra: LieAlgebra, module: LieModule | None = None) -> tuple[WordSet, WordSet]:
    """(weight-0 words, all words) of the algebra, and of the module when
    given; without a grading both are all words."""
    letters, module_letters = cartan_weights(algebra, module)
    everything = WordSet.all(algebra.dim, module.dim if module is not None else 0)
    block = WordSet(letters, module_letters)
    return (block if block.graded else everything), everything


def _family(cache, key, assemble, words: tuple[WordSet, WordSet], shift: int = 0) -> _Graded:
    """The matrices ``assemble(k + shift, word set)`` over the weight-0 words
    and over all words.  With a key they go through the disk cache, the full
    matrix under key + (degree,) and the block under key + (degree,
    "weight-0", the letter weights), so a change of grading is a miss."""
    block_words, all_words = words
    grading = ("weight-0", block_words.letter_weights, block_words.module_weights)

    def make(k: int, weight0: bool) -> SparseMatrix:
        degree = k + shift
        chosen = block_words if weight0 else all_words
        if key is None:
            return assemble(degree, chosen)
        parts = key + ((degree,) + grading if weight0 else (degree,))
        return _cached_matrix(cache, "diff", parts, lambda: assemble(degree, chosen))

    return _Graded(make, graded=block_words.graded)


def ce_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Exterior-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    name = name or f"lie[{fp[:8]}]"
    dims = [wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: WedgeBasis(algebra, k) for k in range(cap + 1)}
    diffs = _family(
        cache, ("lie", fp), lambda k, words: ce_d(algebra, k, entry_cap, words),
        _word_sets(algebra),
    )
    return ChainComplex("lie", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap)


def coeff_complex(
    algebra: LieAlgebra,
    module: LieModule,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Complex M (x) Lambda^*(algebra) for a right module M."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    if module.algebra.fingerprint() != algebra.fingerprint():
        raise DomainError("module is not over the given algebra")
    fp = algebra.fingerprint()
    mfp = module.fingerprint()
    name = name or f"coeff[{fp[:8]},{mfp[:8]}]"
    dims = [module.dim * wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: ModuleWedgeBasis(module, k) for k in range(cap + 1)}
    diffs = _family(
        cache, ("coeff", fp, mfp), lambda k, words: coeff_d(module, k, entry_cap, words),
        _word_sets(algebra, module),
    )
    return ChainComplex("coeff", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap)


def leibniz_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Tensor-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    name = name or f"leibniz[{fp[:8]}]"
    dims = [tensor_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: TensorBasis(algebra, k) for k in range(cap + 1)}
    diffs = _family(
        cache, ("leibniz", fp), lambda k, words: leibniz_d(algebra, k, entry_cap, words),
        _word_sets(algebra),
    )
    return ChainComplex(
        "leibniz", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap
    )


def _restrict_to_kernels(
    full: SparseMatrix,
    domain: KernelBasis,
    codomain: KernelBasis,
    what: str,
) -> SparseMatrix:
    """Express full @ domain-vectors in the codomain kernel basis; the
    reduced-echelon pivots make coordinates direct reads.  Verifies the image
    really lies in the codomain span."""
    dom_matrix = SparseMatrix.from_columns(full.cols, domain.vectors)
    image = multiply(full, dom_matrix)
    pivot_row = {p: j for j, p in enumerate(codomain.pivots)}
    entries: dict[tuple[int, int], Rational] = {}
    for (r, c), v in image.entries.items():
        j = pivot_row.get(r)
        if j is not None:
            entries[(j, c)] = v
    restricted = SparseMatrix(codomain.dim, dom_matrix.cols, entries)
    cod_matrix = SparseMatrix.from_columns(full.rows, codomain.vectors)
    if multiply(cod_matrix, restricted) != image:
        raise ConsistencyError(f"{what}: differential leaves the kernel subspace")
    return restricted


class KernelComplex(ChainComplex):
    """Degree m is ker pi_m inside an ambient space, with differential the
    ambient d_m restricted to it.

    ``ambient_d`` (1 <= m <= cap), ``projections`` (0 <= m <= cap) and
    ``targets`` (1 <= m <= cap) are explicit matrices by degree or the
    ``_Graded`` families of a builder, and must satisfy
    pi_(m-1) d_m = e_m pi_m for e_m the target; that identity, checked with
    ambient d o d = 0, is what makes the restriction a complex.  Ranks come
    from stacked weight-0 blocks and projection ranks alone; ``dims`` from
    the full projections.  ``basis`` and ``d`` build the explicit kernel
    basis (cached under ``kernel_key`` + degree) and the restricted matrix
    on first request.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        cap: int,
        ambient_d,
        projections,
        targets,
        ambient_basis_at,
        kernel_key: tuple,
        cache: DiffCache | None = None,
        entry_cap: int | None = None,
    ):
        self.kind = kind
        self.name = name
        self.cap = cap
        self.cache = cache
        self.entry_cap = entry_cap
        self._ambient = _Graded.of(ambient_d)
        self._projection = _Graded.of(projections)
        self._target = _Graded.of(targets)
        self.ambient_basis_at = ambient_basis_at
        self.kernel_key = kernel_key
        self._restricted: dict[int, SparseMatrix] = {}
        self.bases: dict[int, KernelBasis] = {}
        self._ranks: dict[int, int] = {}
        self._ranks_transposed: dict[int, int] = {}
        self._projection_ranks: dict[tuple[int, bool, bool], int] = {}
        for m in range(1, cap + 1):
            self._check_shape(m, self._ambient.block, self._projection.block)
        self.verify_dd_zero()
        self.block_dims = [
            self._projection.block(m).cols - self._projection_rank(m, False, True)
            for m in range(cap + 1)
        ]
        self.dims = [
            self._projection.full(m).cols - self._projection_rank(m, False, False)
            for m in range(cap + 1)
        ]

    def _check_shape(self, m: int, ambient, projection) -> None:
        d = ambient(m)
        if d.cols != projection(m).cols or d.rows != projection(m - 1).cols:
            raise ConsistencyError(f"ambient differential d_{m} has the wrong shape")

    def verify_dd_zero(self) -> None:
        """Ambient d o d = 0 on every pair used, and the exact chain-map
        identity pi_(m-1) d_m = e_m pi_m at every degree, on weight-0
        blocks."""
        for m in range(2, self.cap + 1):
            _check_zero_product(
                self._ambient.block(m - 1), self._ambient.block(m),
                f"{self.name}: ambient d_{m - 1} o d_{m} != 0",
            )
        for m in range(1, self.cap + 1):
            self._check_chain_map(m, self._ambient.block, self._projection.block, self._target.block)

    def _check_chain_map(self, m: int, ambient, projection, target) -> None:
        lhs = multiply(projection(m - 1), ambient(m))
        if lhs != multiply(target(m), projection(m)):
            raise ConsistencyError(f"{self.name}: projection is not a chain map at degree {m}")

    def _ambient_full(self, m: int) -> SparseMatrix:
        """The full ambient d_m, assembled on first request and then checked
        like the blocks against the full matrices already built."""
        fresh = not self._ambient.built(m)
        got = self._ambient.full(m)
        if fresh:
            self._check_shape(m, self._ambient.full, self._projection.full)
            _check_full_neighbours(self._ambient, m, self.cap, f"{self.name}: ambient")
            self._check_chain_map(m, self._ambient.full, self._projection.full, self._target.full)
        return got

    @property
    def ambient_d(self) -> dict[int, SparseMatrix]:
        return {m: self._ambient_full(m) for m in range(1, self.cap + 1)}

    @property
    def projections(self) -> dict[int, SparseMatrix]:
        return {m: self._projection.full(m) for m in range(self.cap + 1)}

    @property
    def targets(self) -> dict[int, SparseMatrix]:
        return {m: self._target.full(m) for m in range(1, self.cap + 1)}

    def rank_d(self, k: int) -> int:
        """rank([d_k; pi_k]) - rank pi_k on weight 0, the rank of the
        restriction there, plus the off-block part."""
        return self._memoized(self._ranks, k, lambda: self._restricted_rank(k, False))

    def rank_d_transposed(self, k: int) -> int:
        """The same from rank([d_k; pi_k]^T) - rank pi_k^T, eliminated
        independently."""
        return self._memoized(
            self._ranks_transposed, k, lambda: self._restricted_rank(k, True)
        )

    def block(self, k: int) -> SparseMatrix:
        """The matrix ``rank_d(k)`` eliminates: [d_k; pi_k] on weight 0."""
        self.check_degree(k)
        return stack_rows([self._ambient.block(k), self._projection.block(k)])

    def _restricted_rank(self, k: int, transposed: bool) -> int:
        stacked = self.block(k)
        if transposed:
            stacked = stacked.transpose()
        return (
            self._ranked(stacked)
            - self._projection_rank(k, transposed, True)
            + self._off_block_rank(k)
        )

    def _projection_rank(self, k: int, transposed: bool, block: bool) -> int:
        key = (k, transposed, block and self._projection.graded)
        got = self._projection_ranks.get(key)
        if got is None:
            pi = self._projection.block(k) if key[2] else self._projection.full(k)
            got = self._ranked(pi.transpose() if transposed else pi)
            self._projection_ranks[key] = got
        return got

    def basis(self, k: int) -> KernelBasis:
        self.check_degree(k)
        got = self.bases.get(k)
        if got is None:
            got = KernelBasis(self._kernel_vectors(k), self.ambient_basis_at(k))
            if got.dim != self.dims[k]:
                raise ConsistencyError(
                    f"{self.name}: kernel basis at degree {k} has {got.dim} vectors, "
                    f"rank bookkeeping gives {self.dims[k]}"
                )
            self.bases[k] = got
        return got

    def d(self, k: int) -> SparseMatrix:
        self.check_degree(k)
        if k == 0:
            raise DegreeRangeError("d_0 does not exist")
        got = self._restricted.get(k)
        if got is None:
            got = _restrict_to_kernels(
                self._ambient_full(k), self.basis(k), self.basis(k - 1),
                f"{self.name} degree {k}",
            )
            self._restricted[k] = got
        return got

    def _kernel_vectors(self, k: int) -> list[QVector]:
        pi = self._projection.full(k)
        if self.cache is None:
            return kernel_basis(pi)
        key = descriptor_key(*self.kernel_key, k)
        hit = self.cache.get_vectors(key, pi.cols)
        if hit is not None:
            return hit
        vecs = kernel_basis(pi)
        self.cache.put_vectors(key, pi.cols, vecs)
        return vecs

    def __repr__(self) -> str:
        return f"KernelComplex({self.name}, kind={self.kind}, cap={self.cap})"


def rel_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> KernelComplex:
    """Relative complex: degree m is the kernel of the antisymmetrization at
    tensor degree m + 2, differential the restricted tensor differential."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    words = _word_sets(algebra)
    return KernelComplex(
        "rel",
        name or f"rel[{fp[:8]}]",
        cap,
        ambient_d=_family(
            cache, ("leibniz", fp), lambda k, ws: leibniz_d(algebra, k, entry_cap, ws),
            words, shift=2,
        ),
        projections=_family(
            None, None, lambda k, ws: wedge_projection(algebra, k, entry_cap, ws),
            words, shift=2,
        ),
        targets=_family(
            None, None, lambda k, ws: ce_d(algebra, k, entry_cap, ws), words, shift=2
        ),
        ambient_basis_at=lambda m: TensorBasis(algebra, m + 2),
        kernel_key=("rel-kernel", fp),
        cache=cache,
        entry_cap=entry_cap,
    )


def cr_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> KernelComplex:
    """Mixed-kernel complex: degree m is the kernel of
    g (x) Lambda^(m+1) -> Lambda^(m+2), differential the restricted adjoint
    coefficient differential."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    adj = adjoint_module(algebra, validate=False)
    mfp = adj.fingerprint()
    words = _word_sets(algebra, adj)
    return KernelComplex(
        "cr",
        name or f"cr[{fp[:8]}]",
        cap,
        ambient_d=_family(
            cache, ("coeff", fp, mfp), lambda k, ws: coeff_d(adj, k, entry_cap, ws),
            words, shift=1,
        ),
        projections=_family(
            None, None, lambda k, ws: partial_wedge_projection(algebra, k, entry_cap, ws),
            words, shift=1,
        ),
        targets=_family(
            None, None, lambda k, ws: ce_d(algebra, k, entry_cap, ws), words, shift=2
        ),
        ambient_basis_at=lambda m: ModuleWedgeBasis(adj, m + 1),
        kernel_key=("cr-kernel", fp),
        cache=cache,
        entry_cap=entry_cap,
    )


# ---------------------------------------------------------------------------
# chains against named bases
# ---------------------------------------------------------------------------


def wedge_chain(
    algebra_dim: int, degree: int, terms: dict[tuple[int, ...], Rational]
) -> Chain:
    """Chain in the exterior basis from {word: coefficient}; words may be
    unsorted and pick up the permutation sign."""
    acc: dict[int, Rational] = {}
    for word, coeff in terms.items():
        if len(word) != degree:
            raise DomainError("word length must equal the degree")
        sorted_word, sign = sort_with_sign(tuple(word))
        if sorted_word is None:
            continue
        idx = wedge_index(sorted_word, algebra_dim)
        nv = acc.get(idx, QZERO) + sign * Rational(coeff)
        if nv:
            acc[idx] = nv
        else:
            del acc[idx]
    return Chain(degree, QVector.from_dict(wedge_dim(algebra_dim, degree), acc))


def tensor_chain(
    algebra_dim: int, degree: int, terms: dict[tuple[int, ...], Rational]
) -> Chain:
    """Chain in the tensor basis from {word: coefficient}."""
    acc: dict[int, Rational] = {}
    for word, coeff in terms.items():
        if len(word) != degree:
            raise DomainError("word length must equal the degree")
        idx = tensor_index(tuple(word), algebra_dim)
        nv = acc.get(idx, QZERO) + Rational(coeff)
        if nv:
            acc[idx] = nv
        else:
            del acc[idx]
    return Chain(degree, QVector.from_dict(tensor_dim(algebra_dim, degree), acc))
