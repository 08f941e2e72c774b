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

Every production path works on Cartan weight blocks; no full matrix is
assembled.  The basis elements h whose adjoint action (and module action)
is diagonal grade every complex by the total weight of a word
(``lie_structures.cartan_weights``), and every differential and projection
preserves it, so each weight block is a subcomplex and a direct summand.
By Cartan's formula theta_h = d iota_h + iota_h d every block of nonzero
weight is acyclic in characteristic 0 (Hochschild-Serre 1953 for the Lie
and coefficient complexes, Loday-Pirashvili 1993 for the Leibniz complex,
and the kernel complexes by the long exact sequence of their surjective
projections).  Hence ranks come from the weight-0 block,

    rank d_k = rank(d_k on weight 0) + sum_{j<k} (-1)^(k-1-j) (dim C_j - dim C_j^0),

full dimensions come in closed form, and the membership tests of
``homology`` split a chain into its weight components and use only the
blocks it touches (``ChainComplex.components``).

``ce_d``, ``leibniz_d``, ``coeff_d`` and the three projections each give
a rule from a word to its image words; one loop, ``_assemble``, sums the
rule over the rows and columns of a given ``WordSet``, one total weight,
and raises ``ConsistencyError`` when an image leaves the set, so a bracket
that breaks the grading is caught, not absorbed.  The full matrix, over all
words, is built only by tests, as an oracle.  An algebra without a grading
(``I_n``), or a complex built from explicit matrices, has a single block:
the whole complex.

Degree caps are explicit.  d o d = 0 is verified at build time on every
adjacent pair of weight-0 blocks.  A finished complex is shareable across
threads; ranks and pivot sets are memoized per complex, and blocks, word
sets and the build-time checks in a ``BlockMemo``.  The complexes of one
memo share them: a block is looked up there under its descriptor before it
is read from a ``DiffCache`` or built, and a check of the same block
objects runs once.  The ambient differentials of ``rel`` and ``cr`` are the blocks of
``leibniz`` and ``adjoint``, and the targets of both are those of ``lie``.
A builder called without a memo gets one of its own.  The rank and the
transposed rank each run from the bottom up, and each clears a block with
the pivots of its own elimination one degree below (``_pivot_set``); each
pivot set is computed once, also below a degree whose rank was read from
the cache.  Only assembled blocks and ranks go to disk.

The two kernel complexes (``KernelComplex``) are complexes like the others
in the free words of their projections pi_m (``_FreeWords``), which also
proves every pi_m onto, so dim ker pi_m = dim C_m - dim target_m in closed
form.  The build-time checks are ambient d o d = 0 and the chain-map
identity pi_(m-1) d_m = e_m pi_m with e the exterior differential, which
together make the restriction a complex.  Their chains are ambient vectors.
Their blocks, the restricted differentials, are made from the ambient and
projection blocks the run holds, and are never written to disk; their
ranks are.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb

from .cache import DiffCache, descriptor_key, rank_key, worth_caching
from .errors import ConsistencyError, DegreeRangeError, DomainError
from .exact_linalg import (
    QVector,
    QZERO,
    Rational,
    SparseMatrix,
    check_entry_budget,
    normal_entry,
    products_cancel,
    rank,
)
from .lie_structures import LieAlgebra, LieModule, adjoint_module, cartan_weights
from .words import (
    Weight,
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

    def index(self, word: tuple[int, tuple[int, ...]]) -> int:
        m, letters = word
        return m * self.wedge + wedge_index(letters, self.algebra.dim)

    def word_at(self, index: int) -> tuple[int, tuple[int, ...]]:
        m, w = divmod(index, self.wedge)
        return m, wedge_word_at(w, self.algebra.dim, self.k)

    def label(self, index: int) -> str:
        m, word = self.word_at(index)
        tail = " ^ ".join(f"({self.algebra.labels[i]})" for i in word) or "1"
        return f"m{m} (x) {tail}"


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
    """Matrices by degree and total weight, each made once, on first use, by
    ``make(k, weight)``.  Degree k of the family has the words of ``kind``
    and length k + ``shift`` in ``words`` as its columns.  An ungraded
    family (explicit matrices, an algebra without a grading) has no
    ``words`` and one matrix per degree, of weight ()."""

    def __init__(self, make, words: WordSet | None = None, kind: str = "", shift: int = 0):
        self._make = make
        self.words = words if words is not None and words.graded else None
        self.kind = kind
        self.shift = shift
        self.zero = self.words.zero if self.words is not None else ()
        self._made: dict[tuple[int, Weight], SparseMatrix] = {}

    @classmethod
    def of(cls, matrices) -> "_Graded":
        """A family as it is, or explicit matrices by degree as one."""
        if isinstance(matrices, cls):
            return matrices
        given = dict(matrices)
        return cls(lambda k, weight: given[k])

    @property
    def graded(self) -> bool:
        return self.words is not None

    def block(self, k: int, weight: Weight | None = None) -> SparseMatrix:
        """The degree-k matrix on the words of total ``weight`` (default 0)."""
        key = (k, self.zero if weight is None else weight)
        got = self._made.get(key)
        if got is None:
            got = self._made[key] = self._make(*key)
        return got

    def split(self, k: int, vector: QVector, basis) -> dict[Weight, QVector]:
        """The nonzero weight components of a degree-k vector in ``basis``
        coordinates, each in the positions of the words of its weight."""
        if self.words is None:
            return {} if vector.is_zero else {self.zero: vector}
        terms: dict[Weight, dict] = {}
        for i, v in vector.entries:
            word = basis.word_at(i)
            terms.setdefault(self.words.weight(self.kind, word), {})[word] = v
        out = {}
        for weight, by_word in terms.items():
            position = self.words.at(weight).position(self.kind, k + self.shift)
            out[weight] = QVector.from_dict(
                len(position), {position[w]: v for w, v in by_word.items()}
            )
        return out

    def lift(self, k: int, weight: Weight, vector: QVector, basis) -> QVector:
        """Inverse of ``split`` on one component: ``basis`` coordinates of a
        vector given in the positions of the words of ``weight``."""
        if self.words is None:
            return vector
        words = getattr(self.words.at(weight), self.kind)(k + self.shift)
        return QVector.from_dict(
            len(basis), {basis.index(words[i]): v for i, v in vector.entries}
        )


class BlockMemo:
    """Blocks, word sets and build-time checks shared by the complexes
    built with it, for as long as it lives; one per ``VerificationContext``.

    ``block`` keeps each block under the digest of its descriptor.  All
    the families that share a descriptor pass the same cache, or none, so
    a block kept here is on disk whenever its family writes there, and the
    disk records do not depend on the order in which complexes are built.
    ``words`` keeps one ``WordSet`` per grading, so its word lists are
    searched once.  ``check`` runs a check once per tuple of the same block
    objects."""

    def __init__(self):
        self._blocks: dict[str, SparseMatrix] = {}
        self._words: dict[tuple, WordSet] = {}
        self._checked: dict[tuple[int, ...], tuple] = {}

    def words(self, algebra: LieAlgebra, module: LieModule | None = None) -> WordSet:
        """The words of the algebra, and of the module when given, graded by
        their Cartan weights; without a grading, every word at weight ()."""
        letters, modules = cartan_weights(algebra, module)
        key = (tuple(letters), tuple(modules))
        got = self._words.get(key)
        if got is None:
            got = self._words[key] = WordSet(letters, modules)
        return got

    def block(self, digest: str, build, cache: DiffCache | None = None) -> SparseMatrix:
        """The block with descriptor ``digest``: kept here, read from
        ``cache`` when given, or ``build()``, and written to ``cache``
        when it misses there."""
        got = self._blocks.get(digest)
        if got is None:
            if cache is not None:
                got = cache.get_matrix("diff", digest)
            if got is None:
                got = build()
                if cache is not None:
                    cache.put_matrix("diff", digest, got)
            self._blocks[digest] = got
        return got

    def check(self, parts: tuple, verify) -> None:
        """``verify()``, which raises on failure, unless it passed before
        on the same objects ``parts``; they are kept, so no id is reused."""
        key = tuple(map(id, parts))
        if key not in self._checked:
            verify()
            self._checked[key] = parts


def _check_zero_product(terms: list, what: str) -> None:
    if not products_cancel(terms):
        raise ConsistencyError(what)


class ChainComplex:
    """Graded dimensions plus differentials d_k : C_k -> C_(k-1), 1 <= k <= cap.

    ``diffs`` is either a dict of explicit matrices by degree or the
    ``_Graded`` family of a builder.  ``dims`` and ``bases`` describe the
    full complex; ``block_dims`` the weight-0 block that ranks run on.
    Chains are vectors in ``basis(k)``; ``components`` splits one by
    weight for the membership tests of ``homology``.  ``blocks`` is the
    memo the build-time checks run through.
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
        entry_cap: int | None = None,
        blocks: BlockMemo | None = None,
    ):
        self.kind = kind
        self.name = name
        self.dims = list(dims)
        self.bases = dict(bases)
        self.cap = cap
        self.cache = cache
        self.entry_cap = entry_cap
        self._blocks = BlockMemo() if blocks is None else blocks
        self._diffs = _Graded.of(diffs)
        self._ranks: dict[int, int] = {}
        self._ranks_transposed: dict[int, int] = {}
        # by orientation, degree below the cap -> ``_pivot_set``
        self._pivots: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})
        blocks = [self._diffs.block(k) for k in range(1, cap + 1)]
        if self._diffs.graded and blocks:
            self.block_dims = [blocks[0].rows] + [d.cols for d in blocks]
        else:  # the block is the whole complex, or at cap 0 nothing is ranked
            self.block_dims = self.dims
        for k, d in enumerate(blocks, start=1):
            if d.cols != self.block_dims[k] or d.rows != self.block_dims[k - 1]:
                raise ConsistencyError(f"differential d_{k} has the wrong shape")
        self.verify_dd_zero()

    def verify_dd_zero(self) -> None:
        """d o d = 0 on every adjacent pair of weight-0 blocks."""
        self._check_dd(self._diffs, "")

    def _check_dd(self, diffs: _Graded, label: str) -> None:
        for k in range(2, self.cap + 1):
            pair = (diffs.block(k - 1), diffs.block(k))
            self._blocks.check(pair, lambda: _check_zero_product(
                [(1, *pair)], f"{self.name}: {label}d_{k - 1} o d_{k} != 0"
            ))

    def check_degree(self, k: int) -> None:
        if not 0 <= k <= self.cap:
            raise DegreeRangeError(
                f"degree {k} outside the built range 0..{self.cap} of {self.name}"
            )

    def dim(self, k: int) -> int:
        self.check_degree(k)
        return self.dims[k]

    def basis(self, k: int):
        self.check_degree(k)
        return self.bases[k]

    @property
    def zero_weight(self) -> Weight:
        """The total weight of the block that carries the homology."""
        return self._diffs.zero

    def block(self, k: int, weight: Weight | None = None) -> SparseMatrix:
        """d_k on the words of total ``weight``; at the default, weight 0,
        the matrix ``rank_d(k)`` eliminates."""
        self.check_degree(k)
        if k == 0:
            raise DegreeRangeError("d_0 does not exist")
        return self._diffs.block(k, weight)

    def components(self, chain: Chain) -> dict[Weight, QVector] | None:
        """The nonzero weight components of a chain, each in the positions
        of the words of its weight, which are those of ``block``, or None
        for a vector that is not a chain (outside a kernel complex)."""
        return self._diffs.split(chain.degree, chain.vector, self.basis(chain.degree))

    def from_block(self, k: int, weight: Weight, vector: QVector) -> QVector:
        """Full ``basis(k)`` coordinates of a vector given in the positions
        of the degree-k words of ``weight``."""
        return self._diffs.lift(k, weight, vector, self.basis(k))

    def rank_d(self, k: int) -> int:
        """rank d_k, memoized; rank d_0 is 0 by convention."""
        return self._memoized(self._ranks, k, lambda: self._rank(k, False))

    def rank_d_transposed(self, k: int) -> int:
        """rank of the transposed differential, its block eliminated
        independently and cleared only with the pivot sets of this
        orientation's own eliminations (``_pivot_set``); equals rank_d over
        a field and serves as its cross-check.  The rows of the transpose
        are the columns of the block, mostly short, so the many with one
        live entry are retired first at no cost (``exact_linalg.rank``);
        the pivots it takes still differ from those of rank_d."""
        return self._memoized(self._ranks_transposed, k, lambda: self._rank(k, True))

    def _rank(self, k: int, transposed: bool) -> int:
        """rank of ``block(k)``, or of its transpose, plus the off-block
        part."""
        return self._block_rank(k, transposed) + self._off_block_rank(k)

    def _block_rank(self, k: int, transposed: bool) -> int:
        """rank of ``block(k)``, or of its transpose.  Degree k - 1 is ranked
        first, so each orientation writes its rank records from the bottom
        up.  The rank goes through the disk cache when there is one and the
        block is worth caching (``cache.worth_caching``), under the key
        ``cache.rank_key`` derives from its fingerprint; a cached value that
        cannot be a rank of this shape counts as a miss and is recomputed
        and rewritten.  On a miss the rank is the size of
        ``_pivot_set(k)``."""
        (self.rank_d_transposed if transposed else self.rank_d)(k - 1)
        block = self._diffs.block(k)
        if not block.entries:
            return 0
        key = None
        if self.cache is not None and worth_caching(block.rows, block.cols):
            key = rank_key(block, transposed)
            hit = self.cache.get_rank(key)
            if hit is not None and 0 <= hit <= min(block.rows, block.cols):
                return hit
        value = len(self._pivot_set(k, transposed))
        if key is not None:
            self.cache.put_rank(key, value)
        return value

    def _pivot_set(self, k: int, transposed: bool) -> set[int]:
        """The columns of ``block(k)`` with full column rank that its
        elimination in this orientation hands back: the pivot columns of the
        block, or the pivot rows of its transpose.  Fill-in is held to the
        complex's ``entry_cap``.

        The elimination is cleared (Chen and Kerber 2011) with the set of
        degree k - 1: as ``block(k - 1) @ block(k) = 0`` (checked at build
        time), the rows of ``block(k)`` indexed by it are combinations of
        the others, so they are dropped and the rank is unchanged.  Each set
        is memoized, so no block is eliminated twice, except the one at the
        cap, which no degree clears with: keeping it alive through the other
        orientation's elimination raises the peak memory.  A block with at
        most one row or column, whose rank is never cached, is eliminated
        whole: clearing it saves next to nothing, and on a warm run deriving
        the set below it would eliminate a block whose rank was read."""
        pivots = self._pivots[transposed]
        got = pivots.get(k)
        if got is None:
            got = set()
            block = self._diffs.block(k)
            if block.entries:
                clear = ()
                if k > 1 and worth_caching(block.rows, block.cols):
                    clear = self._pivot_set(k - 1, transposed)
                rank(block, self.entry_cap, transposed, got, clear)
            if k < self.cap:
                pivots[k] = got
        return got

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, kind={self.kind}, cap={self.cap})"


# ---------------------------------------------------------------------------
# differentials and projections
# ---------------------------------------------------------------------------


def _bracket_table(algebra: LieAlgebra) -> dict:
    """Both orders of every nonzero bracket, as sorted (target, coefficient)
    pairs."""
    table = {}
    for (i, j), coeffs in algebra.brackets.items():
        items = tuple(sorted(coeffs.items()))
        table[(i, j)] = items
        table[(j, i)] = tuple((k, -v) for k, v in items)
    return table


def _longest_bracket(algebra: LieAlgebra) -> int:
    return max(map(len, algebra.brackets.values()), default=1)


def _insert_sorted(
    rest: tuple[int, ...], m: int, slot: int = 0
) -> tuple[tuple[int, ...] | None, int]:
    """Insert m into a strictly increasing word; (None, 0) if already there.

    The sign is the parity of the move from position ``slot`` (where the
    bracket lands before reordering) to the sorted position."""
    p = bisect_left(rest, m)
    if p < len(rest) and rest[p] == m:
        return None, 0
    return rest[:p] + (m,) + rest[p:], -1 if (p - slot) % 2 else 1


def _leaves(word, k: int) -> ConsistencyError:
    return ConsistencyError(
        f"the image {word} of a degree-{k} word leaves the assembled word set"
    )


def _assemble(
    words: WordSet, col_kind: str, k: int, row_kind: str, row_k: int,
    images, estimate: int, entry_cap: int | None,
) -> SparseMatrix:
    """Column i sums the (image word, coefficient) pairs of ``images(w)``,
    w the i-th degree-k word of ``col_kind`` in ``words``, into the rows of
    the degree-``row_k`` words of ``row_kind``; an image outside them raises.

    The entry guard checks ``estimate`` first and the entries made last.
    Each assembler estimates its full matrix, whatever words it is given
    (its ``_estimate_*`` function): all its columns times a bound on the
    terms of one, comb(k, 2) * (longest bracket) for the Lie and Leibniz
    differentials, k * (longest action column) + comb(k, 2) * (longest
    bracket) for the coefficient one, 1 for a projection, so no exit 3
    depends on the grading.  A family of blocks checks the same estimate
    before it looks a block up (``_family``), so none depends on the
    cache either.  A weight-0 estimate
    would let Leibniz d_6 of g_2 past the default cap (192,364 * 15 * 2 =
    5,770,920; the full one is 225,886,080), and that block alone has
    passed 2 GB."""
    check_entry_budget(estimate, entry_cap)
    cols = getattr(words, col_kind)(k)
    row_of = words.position(row_kind, row_k)
    entries: dict[tuple[int, int], Rational | int] = {}
    for col, word in enumerate(cols):
        for image, c in images(word):
            row = row_of.get(image)
            if row is None:
                raise _leaves(image, k)
            key = (row, col)
            was = entries.get(key)
            nv = c if was is None else was + c
            if nv:
                entries[key] = nv
            else:
                del entries[key]
    check_entry_budget(len(entries), entry_cap)
    return SparseMatrix(len(row_of), len(cols), entries)


def _wedge_brackets(table: dict, k: int, word: tuple[int, ...], parity: int) -> list:
    """The bracket terms of a wedge word: [g_s, g_t] lands in slot s, slot t
    is dropped and the word is sorted, with sign (-1)^(t + parity) times
    the sorting sign (t 0-based)."""
    out = []
    for t in range(1, k):
        sign_t = -1 if (t + parity) % 2 else 1
        for s in range(t):
            items = table.get((word[s], word[t]))
            if items:
                rest = word[:s] + word[s + 1 : t] + word[t + 1 :]
                for m, c in items:
                    placed, psign = _insert_sorted(rest, m, s)
                    if placed is not None:
                        out.append((placed, sign_t * psign * c))
    return out


def _estimate_ce(algebra: LieAlgebra, k: int) -> int:
    return wedge_dim(algebra.dim, k) * comb(k, 2) * _longest_bracket(algebra)


def ce_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Exterior-power differential d_k : Lambda^k -> Lambda^(k-1) on the
    wedge words of ``words`` (all words by default)."""
    table = _bracket_table(algebra)
    return _assemble(
        WordSet.all(algebra.dim) if words is None else words, "wedge", k, "wedge", k - 1,
        lambda w: _wedge_brackets(table, k, w, 1),        # (-1)^j, j = t+1 one-based
        _estimate_ce(algebra, k), entry_cap,
    )


def _estimate_leibniz(algebra: LieAlgebra, k: int) -> int:
    return tensor_dim(algebra.dim, k) * comb(k, 2) * _longest_bracket(algebra)


def leibniz_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Tensor-power differential on the tensor words of ``words`` (all words
    by default): bracket lands in slot i, slot j dropped, sign (-1)^j, no
    reordering."""
    table = _bracket_table(algebra)
    slots = [(s, t, -1 if (t + 1) % 2 else 1) for t in range(1, k) for s in range(t)]

    def images(w):
        out = []
        for s, t, sign_t in slots:
            items = table.get((w[s], w[t]))
            if items:
                prefix, middle, suffix = w[:s], w[s + 1 : t], w[t + 1 :]
                for m, c in items:
                    out.append((prefix + (m,) + middle + suffix, sign_t * c))
        return out

    return _assemble(
        WordSet.all(algebra.dim) if words is None else words, "tensor", k, "tensor", k - 1,
        images, _estimate_leibniz(algebra, k), entry_cap,
    )


def _estimate_coeff(module: LieModule, k: int) -> int:
    action_longest = max((1,) + tuple(a.nnz // max(a.cols, 1) + 1 for a in module.actions))
    return module.dim * wedge_dim(module.algebra.dim, k) * (
        k * action_longest + comb(k, 2) * _longest_bracket(module.algebra)
    )


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
    table = _bracket_table(algebra)
    # the bracket terms of a wedge word, shared across module indices
    wedge_terms: dict[tuple[int, ...], list] = {}

    def images(word):
        mi, w = word
        out = []
        for s in range(k):
            sign_s = -1 if s % 2 else 1                # (-1)^(s+2)
            rest = w[:s] + w[s + 1 :]
            for m2, v in module.actions[w[s]].column(mi):
                out.append(((m2, rest), sign_s * v))
        brackets = wedge_terms.get(w)
        if brackets is None:
            brackets = wedge_terms[w] = _wedge_brackets(table, k, w, 0)   # (-1)^(t+2)
        for placed, c in brackets:
            out.append(((mi, placed), c))
        return out

    return _assemble(
        WordSet.all(algebra.dim, module.dim) if words is None else words,
        "module_wedge", k, "module_wedge", k - 1, images, _estimate_coeff(module, k),
        entry_cap,
    )


def _estimate_wedge_projection(algebra: LieAlgebra, k: int) -> int:
    return tensor_dim(algebra.dim, k)


def wedge_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Antisymmetrization g^((x)k) -> g^(^k) on the tensor and wedge words of
    ``words`` (all words by default): a word with a repeated letter maps to
    0, otherwise to its sorted word with the permutation sign."""

    def images(w):
        ordered, sign = sort_with_sign(w)
        return () if ordered is None else ((ordered, sign),)

    return _assemble(
        WordSet.all(algebra.dim) if words is None else words, "tensor", k, "wedge", k,
        images, _estimate_wedge_projection(algebra, k), entry_cap,
    )


def _estimate_partial_wedge_projection(algebra: LieAlgebra, k: int) -> int:
    return algebra.dim * wedge_dim(algebra.dim, k)


def partial_wedge_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Wedge the leading factor in: g (x) Lambda^k -> Lambda^(k+1),
    e (x) w -> e ^ w, no scalar.  Columns are the module-wedge words of
    ``words`` over the adjoint module (all words by default)."""
    dim = algebra.dim

    def images(word):
        e, w = word
        placed, sign = _insert_sorted(w, e)
        return () if placed is None else ((placed, sign),)

    return _assemble(
        WordSet.all(dim, dim) if words is None else words, "module_wedge", k, "wedge", k + 1,
        images, _estimate_partial_wedge_projection(algebra, k), entry_cap,
    )


def mixed_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """First factor kept, tail antisymmetrized: g^((x)(k+1)) -> g (x) Lambda^k,
    rows the module-wedge words of ``words`` over the adjoint module (all
    words by default).  Composing with the partial wedge projection recovers
    the full one."""
    dim = algebra.dim

    def images(w):
        ordered, sign = sort_with_sign(w[1:])
        return () if ordered is None else (((w[0], ordered), sign),)

    return _assemble(
        WordSet.all(dim, dim) if words is None else words, "tensor", k + 1, "module_wedge", k,
        images, tensor_dim(dim, k + 1), entry_cap,
    )


# ---------------------------------------------------------------------------
# complex builders
# ---------------------------------------------------------------------------


def _family(
    blocks: BlockMemo, key: tuple, words: WordSet, kind: str, shift: int,
    assemble, estimate, entry_cap: int | None, cache: DiffCache | None = None,
) -> _Graded:
    """The blocks ``assemble(k + shift, words of one total weight)``, whose
    columns are the words of ``kind`` and whose rows those one degree lower.

    A block is first held to the entry guard by ``estimate(k + shift)``,
    then looked up in ``blocks`` under the digest of key + (degree,
    "weight", the total, the letter weights), so a change of grading is a
    miss.  With a cache, a block worth caching by its word counts also goes
    through the disk under that digest; a family without one, such as a
    projection, never reads or writes the disk."""
    grading = (words.letter_weights, words.module_weights)

    def make(k: int, weight: Weight) -> SparseMatrix:
        degree = k + shift
        check_entry_budget(estimate(degree), entry_cap)
        chosen = words.at(weight)
        persist = cache is not None and worth_caching(
            chosen.count(kind, degree - 1, 2), chosen.count(kind, degree, 2)
        )
        return blocks.block(
            descriptor_key(*key, degree, "weight", weight, *grading),
            lambda: assemble(degree, chosen),
            cache if persist else None,
        )

    return _Graded(make, words, kind, shift)


def _lie_family(
    blocks: BlockMemo, algebra: LieAlgebra, entry_cap: int | None,
    cache: DiffCache | None, shift: int = 0,
) -> _Graded:
    """``ce_d`` of the algebra, the differentials of ``lie`` and the
    targets of ``rel`` and ``cr``."""
    return _family(
        blocks, ("lie", algebra.fingerprint()), blocks.words(algebra), "wedge", shift,
        lambda k, ws: ce_d(algebra, k, entry_cap, ws),
        lambda k: _estimate_ce(algebra, k), entry_cap, cache,
    )


def _leibniz_family(
    blocks: BlockMemo, algebra: LieAlgebra, entry_cap: int | None,
    cache: DiffCache | None, shift: int = 0,
) -> _Graded:
    """``leibniz_d`` of the algebra, the differentials of ``leibniz`` and
    the ambient ones of ``rel``."""
    return _family(
        blocks, ("leibniz", algebra.fingerprint()), blocks.words(algebra), "tensor", shift,
        lambda k, ws: leibniz_d(algebra, k, entry_cap, ws),
        lambda k: _estimate_leibniz(algebra, k), entry_cap, cache,
    )


def _coeff_family(
    blocks: BlockMemo, module: LieModule, entry_cap: int | None,
    cache: DiffCache | None, shift: int = 0,
) -> _Graded:
    """``coeff_d`` of the module, the differentials of ``coeff`` (and of
    ``adjoint``) and the ambient ones of ``cr``."""
    algebra = module.algebra
    return _family(
        blocks, ("coeff", algebra.fingerprint(), module.fingerprint()),
        blocks.words(algebra, module), "module_wedge", shift,
        lambda k, ws: coeff_d(module, k, entry_cap, ws),
        lambda k: _estimate_coeff(module, k), entry_cap, cache,
    )


def ce_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
    blocks: BlockMemo | None = None,
) -> ChainComplex:
    """Exterior-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    name = name or f"lie[{fp[:8]}]"
    dims = [wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: WedgeBasis(algebra, k) for k in range(cap + 1)}
    diffs = _lie_family(blocks, algebra, entry_cap, cache)
    return ChainComplex("lie", name, dims, diffs, bases, cap, cache, entry_cap, blocks)


def coeff_complex(
    algebra: LieAlgebra,
    module: LieModule,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
    blocks: BlockMemo | None = None,
) -> ChainComplex:
    """Complex M (x) Lambda^*(algebra) for a right module M."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    if module.algebra.fingerprint() != algebra.fingerprint():
        raise DomainError("module is not over the given algebra")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    mfp = module.fingerprint()
    name = name or f"coeff[{fp[:8]},{mfp[:8]}]"
    dims = [module.dim * wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: ModuleWedgeBasis(module, k) for k in range(cap + 1)}
    diffs = _coeff_family(blocks, module, entry_cap, cache)
    return ChainComplex("coeff", name, dims, diffs, bases, cap, cache, entry_cap, blocks)


def leibniz_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
    blocks: BlockMemo | None = None,
) -> ChainComplex:
    """Tensor-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    name = name or f"leibniz[{fp[:8]}]"
    dims = [tensor_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: TensorBasis(algebra, k) for k in range(cap + 1)}
    diffs = _leibniz_family(blocks, algebra, entry_cap, cache)
    return ChainComplex("leibniz", name, dims, diffs, bases, cap, cache, entry_cap, blocks)


def _check_projection(pi: SparseMatrix, what: str) -> None:
    """Each column of pi holds one entry, +-1, or none; each row one at least."""
    if len({c for _, c in pi.entries}) < pi.nnz or not set(pi.entries.values()) <= {1, -1}:
        raise ConsistencyError(f"{what} does not send each word to one word or 0")
    if len({r for r, _ in pi.entries}) < pi.rows:
        raise ConsistencyError(f"{what} is not onto")


class _FreeWords:
    """The free words (columns) of a projection pi, and ``lifts``, whose
    columns are a basis of ker pi: row r keeps its highest column c_r as its
    pivot, and every other column c is free, with the lift
    e_c - (pi_c / pi_(c_r)) e_(c_r), or e_c.  The first nonzero entry of a
    kernel vector is free (a pivot entry needs a lower one in its row), so
    lifting keeps the reduced echelon form of ``kernel_basis``."""

    def __init__(self, pi: SparseMatrix, what: str):
        _check_projection(pi, what)
        pivot = {r: c for r, c in sorted(pi.entries)}  # the last is the highest
        pivots = set(pivot.values())
        self.free = [c for c in range(pi.cols) if c not in pivots]
        self.position = {c: j for j, c in enumerate(self.free)}
        lifts = {(c, j): 1 for j, c in enumerate(self.free)}
        for (r, c), v in pi.entries.items():
            if c not in pivots:
                lifts[(pivot[r], self.position[c])] = -v * pi.entries[(r, pivot[r])]
        self.lifts = SparseMatrix._of(pi.cols, len(self.free), lifts)


def _restricted(d: SparseMatrix, rows: _FreeWords, cols: _FreeWords) -> SparseMatrix:
    """d times the lifts of the free columns, on the free rows, which fix
    the image since it lies in ker pi one degree lower."""
    lifted = cols.lifts.row_dicts()
    entries: dict[tuple[int, int], Rational | int] = {}
    for (r, c), v in d.entries.items():
        i = rows.position.get(r)
        if i is None:
            continue
        for j, t in lifted.get(c, {}).items():
            x = entries.get((i, j), 0) + t * v
            if x:
                entries[(i, j)] = x if type(x) is int else normal_entry(x)
            else:
                del entries[(i, j)]
    return SparseMatrix._of(len(rows.free), len(cols.free), entries)


class KernelComplex(ChainComplex):
    """Degree m is ker pi_m inside an ambient space; its blocks are the
    ambient d_m restricted to it in free words (``_restricted``), made from
    the ambient and projection blocks and never written to disk.
    ``ambient_d``, ``projections`` and ``targets`` are explicit matrices by
    degree or ``_Graded`` families, with pi_(m-1) d_m = e_m pi_m for e_m the
    target: checked with ambient d o d = 0, it makes the restriction a
    complex.  ``dims`` are the kernel dimensions, ``bases`` the ambient ones."""

    def __init__(
        self,
        kind: str,
        name: str,
        dims: list[int],
        ambient_d,
        projections,
        targets,
        bases: dict[int, object],
        cap: int,
        cache: DiffCache | None = None,
        entry_cap: int | None = None,
        blocks: BlockMemo | None = None,
    ):
        self._ambient = ambient = _Graded.of(ambient_d)
        self._projection = projection = _Graded.of(projections)
        self._target = _Graded.of(targets)
        for m in range(cap + 1):
            _check_projection(projection.block(m), f"{name}: projection at degree {m}")

        diffs = _Graded(lambda m, weight: _restricted(
            ambient.block(m, weight), *(self._free_words(j, weight) for j in (m - 1, m))
        ), ambient.words)
        super().__init__(kind, name, dims, diffs, bases, cap, cache, entry_cap, blocks)

    def verify_dd_zero(self) -> None:
        """Ambient d o d = 0 on every pair used, and the exact chain-map
        identity pi_(m-1) d_m = e_m pi_m at every degree, on weight-0
        blocks."""
        self._check_dd(self._ambient, "ambient ")
        for m in range(1, self.cap + 1):
            parts = (
                self._projection.block(m - 1), self._ambient.block(m),
                self._target.block(m), self._projection.block(m),
            )
            self._blocks.check(parts, lambda: _check_zero_product(
                [(1, *parts[:2]), (-1, *parts[2:])],
                f"{self.name}: projection is not a chain map at degree {m}",
            ))

    def _free_words(self, m: int, weight: Weight | None = None) -> _FreeWords:
        """Made again on each use rather than kept."""
        pi = self._projection.block(m, weight)
        return _FreeWords(pi, f"{self.name}: projection at degree {m}")

    def components(self, chain: Chain) -> dict[Weight, QVector] | None:
        """The free entries of each weight component of an ambient vector,
        or None when a component is outside the kernel of its projection."""
        k = chain.degree
        out = {}
        for weight, part in self._ambient.split(k, chain.vector, self.basis(k)).items():
            if not self._projection.block(k, weight).apply(part).is_zero:
                return None
            at = self._free_words(k, weight).position
            free = {at[c]: v for c, v in part.entries if c in at}
            out[weight] = QVector.from_dict(len(at), free)
        return out

    def from_block(self, k: int, weight: Weight, vector: QVector) -> QVector:
        """The ambient vector with the given free entries of ``weight``."""
        lifted = self._free_words(k, weight).lifts.apply(vector)
        return self._ambient.lift(k, weight, lifted, self.basis(k))


def rel_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
    blocks: BlockMemo | None = None,
) -> KernelComplex:
    """Relative complex: degree m is the kernel of the antisymmetrization at
    tensor degree m + 2, differential the restricted tensor differential."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    dim = algebra.dim
    return KernelComplex(
        "rel",
        name or f"rel[{fp[:8]}]",
        [tensor_dim(dim, m + 2) - wedge_dim(dim, m + 2) for m in range(cap + 1)],
        ambient_d=_leibniz_family(blocks, algebra, entry_cap, cache, shift=2),
        projections=_family(
            blocks, ("wedge-projection", fp), blocks.words(algebra), "tensor", 2,
            lambda k, ws: wedge_projection(algebra, k, entry_cap, ws),
            lambda k: _estimate_wedge_projection(algebra, k), entry_cap,
        ),
        targets=_lie_family(blocks, algebra, entry_cap, cache, shift=2),
        bases={m: TensorBasis(algebra, m + 2) for m in range(cap + 1)},
        cap=cap,
        cache=cache,
        entry_cap=entry_cap,
        blocks=blocks,
    )


def cr_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
    blocks: BlockMemo | None = None,
    module: LieModule | None = None,
) -> KernelComplex:
    """Mixed-kernel complex: degree m is the kernel of
    g (x) Lambda^(m+1) -> Lambda^(m+2), differential the restricted adjoint
    coefficient differential.  ``module`` is the adjoint module of the
    algebra when the caller holds one, so its fingerprint is not computed
    again; by default it is built."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    dim = algebra.dim
    if module is None:
        module = adjoint_module(algebra, validate=False)
    elif module.algebra.fingerprint() != fp or module.dim != dim:
        raise DomainError("module is not the adjoint module of the given algebra")
    return KernelComplex(
        "cr",
        name or f"cr[{fp[:8]}]",
        [dim * wedge_dim(dim, m + 1) - wedge_dim(dim, m + 2) for m in range(cap + 1)],
        ambient_d=_coeff_family(blocks, module, entry_cap, cache, shift=1),
        projections=_family(
            blocks, ("partial-wedge-projection", fp), blocks.words(algebra, module),
            "module_wedge", 1,
            lambda k, ws: partial_wedge_projection(algebra, k, entry_cap, ws),
            lambda k: _estimate_partial_wedge_projection(algebra, k), entry_cap,
        ),
        targets=_lie_family(blocks, algebra, entry_cap, cache, shift=2),
        bases={m: ModuleWedgeBasis(module, m + 1) for m in range(cap + 1)},
        cap=cap,
        cache=cache,
        entry_cap=entry_cap,
        blocks=blocks,
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
        acc[idx] = acc.get(idx, QZERO) + sign * Rational(coeff)
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
        acc[idx] = acc.get(idx, QZERO) + Rational(coeff)
    return Chain(degree, QVector.from_dict(tensor_dim(algebra_dim, degree), acc))
