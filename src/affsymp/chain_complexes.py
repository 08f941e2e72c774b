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
projections).

Over ``sp_n`` and ``g_n`` the ranks come from a smaller complex still, the
W~-invariants of weight 0 (``weyl``).  W~, the signed permutations of the
coordinates that preserve omega, lies in Sp(2n, R), acts on the complex by
chain maps (push-forward is natural for brackets, module actions and
projections) and keeps weight 0.  Sp(2n, R) is connected, so each element
of W~ is a product of exponentials of elements of sp_n, which act on
homology trivially, being inner derivations (Cartan for the Lie and
coefficient complexes, Loday-Pirashvili 1993 for the Leibniz complex; for
the kernel complexes by their long exact sequences and the complete
reducibility of sp_n).  So W~ acts trivially on homology, averaging over it
is a chain projection in characteristic 0, and the complement of the
invariants is acyclic.  The invariants have the live orbit sums as a
basis, and a projection pi maps S(u) to +-S(pi u) or 0, still one word or
none per column, so the kernel complexes keep their free words.  Two
exclusions keep this sound: ``I_n``, where sp acts by outer derivations and
H(I_n) = Lambda I_n is not W~-trivial, gets no action; and neither does an
anti-symplectic map, which negates omega (``lie_structures``).  Hence,
with C^r the ranked part (the invariants, or weight 0 without an action),

    rank d_k = rank(d_k on C^r) + sum_{j<k} (-1)^(k-1-j) (dim C_j - dim C_j^r),

full dimensions come in closed form, and the membership tests of
``homology`` split a chain into its weight components and use only the
weight blocks it touches (``ChainComplex.components``).

``ce_d``, ``leibniz_d``, ``coeff_d`` and the three projections each give
a rule from a word to the (code, coefficient) pairs of its image, the
integer codes of ``words`` (a tensor index, a wedge bitmask, or
(m << dim) | bitmask); one loop, ``_assemble``, sums the rule over the
columns of a given ``WordSet`` of one total weight, or of its
``weyl.OrbitWords``, by the (row, sign) of each code, and raises
``ConsistencyError``, naming the word, when an image leaves the set, so a
bracket that breaks the grading is caught, not absorbed.  The full matrix,
over all words, is built only by tests, as an oracle.  An algebra without
a grading (``I_n``), or a complex built from explicit matrices, has a
single block: the whole complex.

Degree caps are explicit.  d o d = 0 is verified at build time on every
adjacent pair of ranked blocks, and the weight blocks are made only for
the membership tests.  A finished complex is shareable across threads;
ranks and pivot sets are memoized per complex.  Everything else of a
build lives in one ``BlockMemo``: the run's disk cache and entry cap, and
the blocks, word sets and build-time checks the complexes built with it
share.  A block is looked up there under its descriptor before the memo
reads it from its cache or has it built, a rank record is read and written
by the memo alone, and a check of the same block objects runs once.  The
ambient differentials of ``rel`` and ``cr`` are the blocks of ``leibniz``
and ``adjoint``, and the targets of both are those of ``lie``.  A builder
called without a memo gets ``BlockMemo()``: no cache, the default cap.
The rank runs from the bottom up, and clears a block with the pivots of
the elimination one degree below (``_pivot_pairs``); each set of pivot
pairs is computed once, also below a degree whose rank was read from the
cache.  Each rank is certified where it is computed: a certificate mod p
on its pivot pairs bounds it below (``exact_linalg.certify_rank``) before
it is returned or recorded.  ``proved_rank_d`` adds the d o d bound above,
wherever a Betti number next to it is 0.  A rank that nothing pins is
taken from the transpose of its block instead, formed without the rows
that the certified pivots below it clear; that is the one transposed
elimination.  Only assembled blocks and ranks go to disk.

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

from collections import Counter
from math import comb

from .cache import COUNT_LIMIT, DiffCache, descriptor_key, rank_key, worth_caching
from .errors import ConsistencyError, DegreeRangeError, DomainError
from .exact_linalg import (
    QVector,
    Rational,
    SparseMatrix,
    certify_rank,
    check_entry_budget,
    normal_entry,
    pinned,
    products_cancel,
    rank,
)
from .lie_structures import LieAlgebra, LieModule, adjoint_module, cartan_weights
from .weyl import OrbitWords, orbit_words
from .words import (  # Chain, tensor_chain and wedge_chain are exported here too
    Chain,
    ModuleWedgeBasis,
    TensorBasis,
    Weight,
    WedgeBasis,
    WordSet,
    sorted_wedge_code,
    tensor_chain,
    tensor_dim,
    tensor_index,
    wedge_code,
    wedge_chain,
    wedge_contractions,
    wedge_dim,
)


# ---------------------------------------------------------------------------
# graded families (the bases and chains are in ``words``)
# ---------------------------------------------------------------------------


class _Graded:
    """Matrices by degree and total weight, each made once, on first use, by
    ``make(k, weight)``.  Degree k of the family has the words of ``kind``
    and length k + ``shift`` in ``words`` as its columns.  An ungraded
    family (explicit matrices, an algebra without a grading) has no
    ``words`` and one matrix per degree, of weight ().  ``ranked`` is the
    family ranks run on: the blocks on W~-orbit sums when a builder gives
    it one, otherwise the family itself, whose weight-0 blocks are used."""

    def __init__(self, make, words: WordSet | None = None, kind: str = "", shift: int = 0):
        self._make = make
        self.words = words if words is not None and words.graded else None
        self.kind = kind
        self.shift = shift
        self.zero = self.words.zero if self.words is not None else ()
        self._made: dict[tuple[int, Weight], SparseMatrix] = {}
        self.ranked = self

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
    """The build context of the complexes built with it, for as long as it
    lives; one per ``VerificationContext``.  It holds the run's disk cache
    (``cache``, or None) and the entry cap of every assembly and
    elimination (``entry_cap``, None for ``exact_linalg.DEFAULT_ENTRY_CAP``),
    and is the one reader and writer of their block and rank records.

    ``block`` keeps each block under the digest of its descriptor.  Whether
    a block has a record depends on its descriptor alone (``_family``), and
    the memo has one cache, so the disk records do not depend on the order
    in which complexes are built.  ``rank`` goes through the rank records.
    ``words`` reads the Cartan weights once per pair of algebra and module
    fingerprints and keeps one ``WordSet`` per grading, so its word lists
    are searched once, and ``orbits`` one orbit view per grading and group.
    ``check`` runs a check once per tuple of the same block objects."""

    def __init__(self, cache: DiffCache | None = None, entry_cap: int | None = None):
        self.cache = cache
        self.entry_cap = entry_cap
        self._blocks: dict[str, SparseMatrix] = {}
        self._weights: dict[tuple[str, str | None], tuple] = {}
        self._words: dict[tuple, WordSet] = {}
        self._orbits: dict[tuple, OrbitWords | None] = {}
        self._checked: dict[tuple[int, ...], tuple] = {}

    def words(self, algebra: LieAlgebra, module: LieModule | None = None) -> WordSet:
        """The words of the algebra, and of the module when given, graded by
        their Cartan weights; without a grading, every word at weight ()."""
        fingerprints = (algebra.fingerprint(), module and module.fingerprint())
        key = self._weights.get(fingerprints)
        if key is None:
            letters, modules = cartan_weights(algebra, module)
            key = self._weights[fingerprints] = (tuple(letters), tuple(modules))
        got = self._words.get(key)
        if got is None:
            got = self._words[key] = WordSet(*key)
        return got

    def orbits(self, algebra: LieAlgebra, module: LieModule | None = None) -> OrbitWords | None:
        """The W~-orbits of ``words(algebra, module)`` (``weyl.orbit_words``),
        or None without a verified action."""
        words = self.words(algebra, module)
        key = (id(words), algebra.weyl, module and module.weyl, module and module.fingerprint())
        if key not in self._orbits:
            self._orbits[key] = orbit_words(words, algebra, module)
        return self._orbits[key]

    def block(self, digest: str, build, persist: bool) -> SparseMatrix:
        """The block with descriptor ``digest``: kept here, read from the
        cache when ``persist`` and there is one, or ``build()``, and then
        written to the cache when ``persist``."""
        got = self._blocks.get(digest)
        if got is None:
            cache = self.cache if persist else None
            if cache is not None:
                got = cache.get_matrix("diff", digest)
            if got is None:
                got = build()
                if cache is not None:
                    cache.put_matrix("diff", digest, got)
            self._blocks[digest] = got
        return got

    def rank(self, block: SparseMatrix, record: str, compute) -> int:
        """``compute()``, the rank of ``block`` once its certificate passed
        (``record`` "certified") or that of its transpose ("transposed"),
        through the cache when there is one and the block is worth caching
        (``cache.worth_caching``), under the key ``cache.rank_key`` derives
        from its fingerprint and ``record``; a block with at most
        ``cache.SMALL_BLOCK`` rows or columns is computed every time, as
        its block has no record either.  A value is written only once
        ``compute()`` has returned it.  A recorded value that cannot be a
        rank of this shape counts as a miss, and is recomputed and
        rewritten."""
        if self.cache is None or not worth_caching(block.rows, block.cols):
            return compute()
        key = rank_key(block, record)
        hit = self.cache.get_rank(key)
        if hit is not None and 0 <= hit <= min(block.rows, block.cols):
            return hit
        value = compute()
        self.cache.put_rank(key, value)
        return value

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
    full complex.  Ranks, clearing, the shapes and the d o d check run on
    one family, ``_ranked`` (``_Graded.ranked``): the blocks on orbit sums,
    or the weight-0 blocks without a verified action; ``block_dims`` are
    its dimensions.  Chains are vectors in ``basis(k)``; ``components``
    splits one by weight for the membership tests of ``homology``, which
    use the weight blocks (``block``), each made on first use.
    ``blocks`` is its memo (``BlockMemo``), whose cache its ranks go through
    and whose entry cap holds its eliminations, and through which its
    build-time checks run.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        dims: list[int],
        diffs,
        bases: dict[int, object],
        cap: int,
        blocks: BlockMemo | None = None,
    ):
        self.kind = kind
        self.name = name
        self.dims = list(dims)
        self.bases = dict(bases)
        self.cap = cap
        self.blocks = BlockMemo() if blocks is None else blocks
        self._diffs = _Graded.of(diffs)
        self._ranked = self._diffs.ranked
        self._ranks: dict[int, int] = {}
        self._ranks_proved: dict[int, int] = {}
        self._pivots: dict[int, dict[int, int]] = {}  # degree -> ``_pivot_pairs``
        blocks = [self._ranked.block(k) for k in range(1, cap + 1)]
        if self._diffs.graded and blocks:
            self.block_dims = [blocks[0].rows] + [d.cols for d in blocks]
        else:  # the block is the whole complex, or at cap 0 nothing is ranked
            self.block_dims = self.dims
        for k, d in enumerate(blocks, start=1):
            if d.cols != self.block_dims[k] or d.rows != self.block_dims[k - 1]:
                raise ConsistencyError(f"differential d_{k} has the wrong shape")
        self.verify_dd_zero()

    def verify_dd_zero(self) -> None:
        """d o d = 0 on every adjacent pair of ranked blocks."""
        self._check_dd(self._diffs, "")

    def _check_dd(self, diffs: _Graded, label: str) -> None:
        """On the ranked blocks of ``diffs``."""
        for k in range(2, self.cap + 1):
            pair = (diffs.ranked.block(k - 1), diffs.ranked.block(k))
            self.blocks.check(pair, lambda: _check_zero_product(
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
        """d_k on the words of total ``weight`` (default 0), for the
        membership tests; ranks run on ``_ranked``."""
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
        return self._memoized(
            self._ranks, k, lambda: self._block_rank(k) + self._off_block_rank(k)
        )

    def proved_rank_d(self, k: int) -> int:
        """rank d_k, proved: ``rank_d``, each of whose ranks is certified
        from below, where the d o d bound pins it from above
        (``exact_linalg.pinned``) or the block has no entries;
        otherwise the rank of the transpose of the block of degree k alone,
        formed without the rows that the certified pivot columns of degree
        k - 1 prove dependent and eliminated on its own, under the
        "transposed" rank record of the block."""
        def prove() -> int:
            block = self._ranked.block(k)
            if pinned(k, self._block_rank_of, self.block_dims) or not block.entries:
                return self.rank_d(k)

            def transposed() -> int:
                clear = self._pivot_pairs(k - 1) if k > 1 else ()
                cleared = SparseMatrix._of(block.cols, block.rows, {
                    (c, r): v for (r, c), v in block.entries.items() if r not in clear
                })
                return rank(cleared, self.blocks.entry_cap)

            return self._off_block_rank(k) + self.blocks.rank(block, "transposed", transposed)

        return self._memoized(self._ranks_proved, k, prove)

    def _block_rank_of(self, k: int) -> int:
        return self.rank_d(k) - self._off_block_rank(k)

    def _block_rank(self, k: int) -> int:
        """rank of the ranked block of degree k, certified.  Degree k - 1
        is ranked first, so the rank records are written from the bottom
        up.  The rank goes through the certified rank records of the memo
        (``BlockMemo.rank``); on a miss it is the size of
        ``_pivot_pairs(k)`` once ``exact_linalg.certify_rank`` has proved
        them the pivots of a nonsingular minor, which raises
        ``ConsistencyError`` when it cannot."""
        self.rank_d(k - 1)
        block = self._ranked.block(k)
        if not block.entries:
            return 0
        return self.blocks.rank(
            block, "certified", lambda: certify_rank(block, self._pivot_pairs(k))
        )

    def _pivot_pairs(self, k: int) -> dict[int, int]:
        """The {pivot column: pivot row} pairs of the ranked block of degree
        k that its elimination hands back; the columns have full column
        rank.  Fill-in is held to the entry cap of the memo.

        The elimination is cleared (Chen and Kerber 2011) with the columns
        of degree k - 1: as ``block(k - 1) @ block(k) = 0`` (checked at
        build time), the rows of the block of degree k indexed by them are
        combinations of the others, so they are dropped and the rank is
        unchanged.  Each set is memoized, so no block is eliminated twice.
        A block with at most ``cache.SMALL_BLOCK`` rows or columns, whose
        rank is never cached (``cache.worth_caching``), is eliminated
        whole: clearing it saves next to nothing, and on a warm run
        deriving the pairs below it would eliminate a block whose rank was
        read."""
        got = self._pivots.get(k)
        if got is None:
            got = {}
            block = self._ranked.block(k)
            if block.entries:
                clear = ()
                if k > 1 and worth_caching(block.rows, block.cols):
                    clear = self._pivot_pairs(k - 1)
                rank(block, self.blocks.entry_cap, independent=got, clear=clear)
            self._pivots[k] = got
        return got

    def _off_block_rank(self, k: int) -> int:
        """rank of d_k outside the ranked blocks.  That part of the complex
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


def _longest_bracket(algebra: LieAlgebra) -> int:
    """The most terms of one bracket, read once per algebra through
    ``LieAlgebra.derived`` by the estimates."""
    return max(map(len, algebra.brackets.values()), default=1)


def _leaves(word, k: int) -> ConsistencyError:
    return ConsistencyError(
        f"the image {word} of a degree-{k} word leaves the assembled word set"
    )


def _assemble(
    words: WordSet, col_kind: str, k: int, row_kind: str, row_k: int,
    images, estimate: int, entry_cap: int | None,
) -> SparseMatrix:
    """Column i sums the (code, coefficient) pairs of ``images(w)``, w the
    i-th degree-k word of ``col_kind`` in ``words``, by row: ``rows`` of
    ``words`` maps the code of each degree-``row_k`` word of ``row_kind``
    to its (row, sign), the sign 1 on a ``WordSet`` and that of the word in
    its orbit sum, or 0 for a dead orbit, on ``weyl.OrbitWords``.  A code
    that is no such word raises, naming the word.

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
    row_of = words.rows(row_kind, row_k)
    entries: dict[tuple[int, int], Rational | int] = {}
    for col, word in enumerate(cols):
        sums: dict[int, Rational | int] = {}
        for code, c in images(word):
            at = row_of.get(code)
            if at is None:
                raise _leaves(words.decode(row_kind, row_k, code), k)
            row, sign = at
            if sign:
                sums[row] = sums.get(row, 0) + sign * c
        for row, v in sums.items():
            if v:
                entries[(row, col)] = v if type(v) is int else normal_entry(v)
    check_entry_budget(len(entries), entry_cap)
    return SparseMatrix._of(len(getattr(words, row_kind)(row_k)), len(cols), entries)


def _wedge_table(algebra: LieAlgebra) -> list:
    """[g_a, g_b] by the letters b, then a, as (1 << m, (1 << m) - 1,
    coefficient) for each target m in increasing order: the table of
    ``wedge_contractions``, made once per algebra (``LieAlgebra.derived``)."""
    by_letter = [[()] * algebra.dim for _ in range(algebra.dim)]
    for (a, b), coeffs in algebra.table.items():
        by_letter[b][a] = tuple((1 << m, (1 << m) - 1, c) for m, c in coeffs.items())
    return by_letter


def _estimate_ce(algebra: LieAlgebra, k: int) -> int:
    return wedge_dim(algebra.dim, k) * comb(k, 2) * algebra.derived(_longest_bracket)


def ce_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Exterior-power differential d_k : Lambda^k -> Lambda^(k-1) on the
    wedge words of ``words`` (all words by default)."""
    table = algebra.derived(_wedge_table)
    return _assemble(
        WordSet.all(algebra.dim) if words is None else words, "wedge", k, "wedge", k - 1,
        lambda w: wedge_contractions(table, w, wedge_code(w), 1),  # (-1)^j, j = t+1 one-based
        _estimate_ce(algebra, k), entry_cap,
    )


def _estimate_leibniz(algebra: LieAlgebra, k: int) -> int:
    return tensor_dim(algebra.dim, k) * comb(k, 2) * algebra.derived(_longest_bracket)


def leibniz_d(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None, words: WordSet | None = None
) -> SparseMatrix:
    """Tensor-power differential on the tensor words of ``words`` (all words
    by default): bracket lands in slot i, slot j dropped, sign (-1)^j, no
    reordering.

    Codes are tensor indices: with ``base`` the code of the word without
    slot t, the term of target m in slot s < t has code
    base + (m - w_s) * dim^(k-2-s).  These changes of code, with the sign
    (-1)^(t+1), are tabulated once a call: ``slots`` holds for each t the
    terms of [g_a, g_b] by the letter b in slot t, the slot s and the
    letter a in it."""
    dim = algebra.dim
    power = [dim**j for j in range(k + 1)]
    slots = []
    for t in range(1, k):
        sign_t = -1 if (t + 1) % 2 else 1
        by_letter = [[[()] * dim for _ in range(t)] for _ in range(dim)]
        for (a, b), coeffs in algebra.table.items():
            for s in range(t):
                place = power[k - 2 - s]
                by_letter[b][s][a] = tuple(
                    ((m - a) * place, sign_t * c) for m, c in coeffs.items()
                )
        low = power[k - 1 - t]
        slots.append((t, low * dim, low, by_letter))

    def images(w):
        code = tensor_index(w, dim)
        out = []
        for t, high, low, by_letter in slots:
            base = code // high * low + code % low  # the word without slot t
            for by_a, a in zip(by_letter[w[t]], w):
                for change, c in by_a[a]:
                    out.append((base + change, c))
        return out

    return _assemble(
        WordSet.all(dim) if words is None else words, "tensor", k, "tensor", k - 1,
        images, _estimate_leibniz(algebra, k), entry_cap,
    )


def _longest_action(module: LieModule) -> int:
    """The most entries of one column of an action matrix, at least 1,
    read once per module through ``LieModule.derived`` by the estimates."""
    return max((1, *(
        max(Counter(c for _, c in action.entries).values(), default=0)
        for action in module.actions
    )))


def _estimate_coeff(module: LieModule, k: int) -> int:
    return module.dim * wedge_dim(module.algebra.dim, k) * (
        k * module.derived(_longest_action)
        + comb(k, 2) * module.algebra.derived(_longest_bracket)
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
    dim = algebra.dim
    table = algebra.derived(_wedge_table)
    # [m, g_a] by the letters a, then m, as (m2 << dim, coefficient)
    acting = [
        [tuple((m2 << dim, v) for m2, v in action.column(m)) for m in range(module.dim)]
        for action in module.actions
    ]
    # the bracket terms of a wedge word, shared across module indices
    wedge_terms: dict[int, list] = {}

    def images(word):
        mi, w = word
        mask = wedge_code(w)
        out = []
        for s in range(k):
            rest = mask ^ (1 << w[s])
            for head, v in acting[w[s]][mi]:
                out.append((head | rest, -v if s % 2 else v))   # (-1)^(s+2)
        brackets = wedge_terms.get(mask)
        if brackets is None:
            brackets = wedge_terms[mask] = wedge_contractions(table, w, mask, 0)  # (-1)^(t+2)
        head = mi << dim
        out += [(head | placed, c) for placed, c in brackets]
        return out

    return _assemble(
        WordSet.all(dim, module.dim) if words is None else words,
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
        placed = sorted_wedge_code(w)
        return () if placed is None else (placed,)

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
        placed = sorted_wedge_code((word[0], *word[1]))
        return () if placed is None else (placed,)

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
        placed = sorted_wedge_code(w[1:])
        return () if placed is None else (((w[0] << dim) | placed[0], placed[1]),)

    return _assemble(
        WordSet.all(dim, dim) if words is None else words, "tensor", k + 1, "module_wedge", k,
        images, tensor_dim(dim, k + 1), entry_cap,
    )


# ---------------------------------------------------------------------------
# complex builders
# ---------------------------------------------------------------------------


def _family(
    blocks: BlockMemo, key: tuple, algebra: LieAlgebra, module: LieModule | None,
    kind: str, shift: int, assemble, estimate, persist: bool = True,
) -> _Graded:
    """The blocks ``assemble(k + shift, words of one total weight)`` over
    ``blocks.words(algebra, module)``, whose columns are the words of
    ``kind`` and whose rows those one degree lower, and, given the
    ``blocks.orbits`` of the weight-0 words, the ranked family
    ``assemble(k + shift, orbits)`` on orbit sums.

    A block is first held to the entry guard of the memo by
    ``estimate(k + shift)``, then looked up in ``blocks`` under the digest
    of key + (degree, "weight", the total, the letter weights), or key +
    (degree, "weyl", the group, the letter weights) on orbit sums, so a
    change of grading or of group is a miss.  When the memo has a cache, a
    block worth caching by its word (or orbit) counts
    (``cache.worth_caching``) also goes through the disk under that
    digest, so a warm run looks up exactly the blocks a cold run wrote.
    The counts stop at ``cache.COUNT_LIMIT``, but they list the words of
    both degrees first (and find the first orbits of each), also for a
    block that is then read back.  A family that does not ``persist``,
    such as a projection, never reads or writes the disk."""
    words, orbits = blocks.words(algebra, module), blocks.orbits(algebra, module)
    grading = (words.letter_weights, words.module_weights)

    def make(k: int, chosen, *label) -> SparseMatrix:
        degree = k + shift
        check_entry_budget(estimate(degree), blocks.entry_cap)
        return blocks.block(
            descriptor_key(*key, degree, *label, *grading),
            lambda: assemble(degree, chosen),
            persist and blocks.cache is not None and worth_caching(
                chosen.count(kind, degree - 1, COUNT_LIMIT),
                chosen.count(kind, degree, COUNT_LIMIT),
            ),
        )

    family = _Graded(
        lambda k, weight: make(k, words.at(weight), "weight", weight), words, kind, shift
    )
    if orbits is not None:
        family.ranked = _Graded(lambda k, _: make(k, orbits, "weyl", orbits.key))
    return family


def _lie_family(blocks: BlockMemo, algebra: LieAlgebra, shift: int = 0) -> _Graded:
    """``ce_d`` of the algebra, the differentials of ``lie`` and the
    targets of ``rel`` and ``cr``."""
    return _family(
        blocks, ("lie", algebra.fingerprint()), algebra, None, "wedge", shift,
        lambda k, ws: ce_d(algebra, k, blocks.entry_cap, ws),
        lambda k: _estimate_ce(algebra, k),
    )


def _leibniz_family(blocks: BlockMemo, algebra: LieAlgebra, shift: int = 0) -> _Graded:
    """``leibniz_d`` of the algebra, the differentials of ``leibniz`` and
    the ambient ones of ``rel``."""
    return _family(
        blocks, ("leibniz", algebra.fingerprint()), algebra, None, "tensor", shift,
        lambda k, ws: leibniz_d(algebra, k, blocks.entry_cap, ws),
        lambda k: _estimate_leibniz(algebra, k),
    )


def _coeff_family(
    blocks: BlockMemo, algebra: LieAlgebra, module: LieModule, shift: int = 0
) -> _Graded:
    """``coeff_d`` of the module over the algebra (the module's own, or a
    copy with its fingerprint, whose ``weyl`` is used), the differentials
    of ``coeff`` (and of ``adjoint``) and the ambient ones of ``cr``."""
    return _family(
        blocks, ("coeff", algebra.fingerprint(), module.fingerprint()), algebra, module,
        "module_wedge", shift,
        lambda k, ws: coeff_d(module, k, blocks.entry_cap, ws),
        lambda k: _estimate_coeff(module, k),
    )


def ce_complex(
    algebra: LieAlgebra, cap: int, name: str | None = None, blocks: BlockMemo | None = None
) -> ChainComplex:
    """Exterior-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    name = name or f"lie[{fp[:8]}]"
    dims = [wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: WedgeBasis(algebra, k) for k in range(cap + 1)}
    diffs = _lie_family(blocks, algebra)
    return ChainComplex("lie", name, dims, diffs, bases, cap, blocks)


def coeff_complex(
    algebra: LieAlgebra,
    module: LieModule,
    cap: int,
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
    diffs = _coeff_family(blocks, algebra, module)
    return ChainComplex("coeff", name, dims, diffs, bases, cap, blocks)


def leibniz_complex(
    algebra: LieAlgebra, cap: int, name: str | None = None, blocks: BlockMemo | None = None
) -> ChainComplex:
    """Tensor-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    blocks = BlockMemo() if blocks is None else blocks
    fp = algebra.fingerprint()
    name = name or f"leibniz[{fp[:8]}]"
    dims = [tensor_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: TensorBasis(algebra, k) for k in range(cap + 1)}
    diffs = _leibniz_family(blocks, algebra)
    return ChainComplex("leibniz", name, dims, diffs, bases, cap, blocks)


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
    lifting keeps the reduced echelon form of ``kernel_basis``.  ``spread``
    holds the lift entries off the free columns: pivot column -> {position
    of a free column: entry}."""

    def __init__(self, pi: SparseMatrix, what: str):
        _check_projection(pi, what)
        pivot = {r: c for r, c in sorted(pi.entries)}  # the last is the highest
        pivots = set(pivot.values())
        self.free = [c for c in range(pi.cols) if c not in pivots]
        self.position = {c: j for j, c in enumerate(self.free)}
        lifts = {(c, j): 1 for j, c in enumerate(self.free)}
        self.spread: dict[int, dict[int, int]] = {}
        for (r, c), v in pi.entries.items():
            if c not in pivots:
                j = self.position[c]
                t = lifts[(pivot[r], j)] = -v * pi.entries[(r, pivot[r])]
                self.spread.setdefault(pivot[r], {})[j] = t
        self.lifts = SparseMatrix._of(pi.cols, len(self.free), lifts)


def _restricted(d: SparseMatrix, rows: _FreeWords, cols: _FreeWords) -> SparseMatrix:
    """d times the lifts of the free columns, on the free rows, which fix
    the image since it lies in ker pi one degree lower: the entries of d in
    free rows and columns, plus those of its pivot columns spread over the
    free columns by the lifts.  When every word is free at both degrees
    (pi is 0, as on orbit sums where no wedge orbit of weight 0 lives), it
    is d itself, not a copy."""
    if len(rows.free) == d.rows and len(cols.free) == d.cols:
        return d
    at_row, at_col, spread = rows.position, cols.position, cols.spread
    entries: dict[tuple[int, int], Rational | int] = {
        (at_row[r], at_col[c]): v
        for (r, c), v in d.entries.items() if c in at_col and r in at_row
    }
    for (r, c), v in d.entries.items():
        if c in spread and r in at_row:
            i = at_row[r]
            for j, t in spread[c].items():
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
        blocks: BlockMemo | None = None,
    ):
        self._ambient = ambient = _Graded.of(ambient_d)
        self._projection = projection = _Graded.of(projections)
        self._target = _Graded.of(targets)
        for m in range(cap + 1):
            _check_projection(projection.ranked.block(m), f"{name}: projection at degree {m}")

        def restrict(ambient: _Graded, projection: _Graded) -> _Graded:
            return _Graded(lambda m, weight: _restricted(ambient.block(m, weight), *(
                _FreeWords(projection.block(j, weight), f"{name}: projection at degree {j}")
                for j in (m - 1, m)
            )), ambient.words)

        diffs = restrict(ambient, projection)
        if ambient.ranked is not ambient:
            diffs.ranked = restrict(ambient.ranked, projection.ranked)
        super().__init__(kind, name, dims, diffs, bases, cap, blocks)

    def verify_dd_zero(self) -> None:
        """Ambient d o d = 0 on every pair used, and the exact chain-map
        identity pi_(m-1) d_m = e_m pi_m at every degree, on ranked
        blocks."""
        self._check_dd(self._ambient, "ambient ")
        for m in range(1, self.cap + 1):
            parts = (
                self._projection.ranked.block(m - 1), self._ambient.ranked.block(m),
                self._target.ranked.block(m), self._projection.ranked.block(m),
            )
            self.blocks.check(parts, lambda: _check_zero_product(
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
    algebra: LieAlgebra, cap: int, name: str | None = None, blocks: BlockMemo | None = None
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
        ambient_d=_leibniz_family(blocks, algebra, shift=2),
        projections=_family(
            blocks, ("wedge-projection", fp), algebra, None, "tensor", 2,
            lambda k, ws: wedge_projection(algebra, k, blocks.entry_cap, ws),
            lambda k: _estimate_wedge_projection(algebra, k), persist=False,
        ),
        targets=_lie_family(blocks, algebra, shift=2),
        bases={m: TensorBasis(algebra, m + 2) for m in range(cap + 1)},
        cap=cap,
        blocks=blocks,
    )


def cr_complex(
    algebra: LieAlgebra,
    cap: int,
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
        module = adjoint_module(algebra)
    elif module.algebra.fingerprint() != fp or module.dim != dim:
        raise DomainError("module is not the adjoint module of the given algebra")
    return KernelComplex(
        "cr",
        name or f"cr[{fp[:8]}]",
        [dim * wedge_dim(dim, m + 1) - wedge_dim(dim, m + 2) for m in range(cap + 1)],
        ambient_d=_coeff_family(blocks, algebra, module, shift=1),
        projections=_family(
            blocks, ("partial-wedge-projection", fp), algebra, module, "module_wedge", 1,
            lambda k, ws: partial_wedge_projection(algebra, k, blocks.entry_cap, ws),
            lambda k: _estimate_partial_wedge_projection(algebra, k), persist=False,
        ),
        targets=_lie_family(blocks, algebra, shift=2),
        bases={m: ModuleWedgeBasis(module, m + 1) for m in range(cap + 1)},
        cap=cap,
        blocks=blocks,
    )
