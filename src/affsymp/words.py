"""Index words for tensor and exterior power bases, and those bases
(``WedgeBasis``, ``TensorBasis``, ``ModuleWedgeBasis``), one degree of a
complex each.

Wedge words are strictly increasing index tuples in lexicographic order;
tensor words are arbitrary tuples in lexicographic order.  Ranking and
unranking are exact integer computations so bases never need materializing.

Each word also has an integer code, which the assembly loop of
``chain_complexes`` sums and looks up in place of the tuple: a tensor word
over ``dim`` letters is its ``tensor_index`` (base ``dim``), a wedge word
the bitmask of its letters (``wedge_code``), and a module-wedge word
(m, w) the int ``(m << dim) | wedge_code(w)`` (``module_wedge_code``).

``WordSet`` enumerates the words of one total weight (zero unless another
is asked for) when every letter carries a weight vector: a depth-first
search that extends a prefix only when the remaining letters can still
bring the sum to that total, so it never visits, let alone filters, the
full list.  The search packs each weight vector into one int, a slot of
bits per coordinate wide enough for every sum it compares, so adding and
comparing weights is int arithmetic.  With weight vectors of length 0
every word qualifies, and ``WordSet.all`` is the full basis.

A ``Chain`` is an element of one degree of a complex, a vector in that
degree's basis; ``wedge_chain`` and ``tensor_chain`` make one from words.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations, product
from math import comb

from .errors import DomainError
from .exact_linalg import QZERO, QVector, Rational


def wedge_dim(dim: int, k: int) -> int:
    return comb(dim, k)


def tensor_dim(dim: int, k: int) -> int:
    return dim**k


def wedge_words(dim: int, k: int) -> Iterator[tuple[int, ...]]:
    return combinations(range(dim), k)


def tensor_words(dim: int, k: int) -> Iterator[tuple[int, ...]]:
    return product(range(dim), repeat=k)


def wedge_index(word: tuple[int, ...], dim: int) -> int:
    """Position of a strictly increasing word among C(dim, k) words."""
    k = len(word)
    index = 0
    prev = -1
    for pos, w in enumerate(word):
        for skipped in range(prev + 1, w):
            index += comb(dim - skipped - 1, k - pos - 1)
        prev = w
    return index


def wedge_word_at(index: int, dim: int, k: int) -> tuple[int, ...]:
    """Inverse of wedge_index."""
    word = []
    prev = -1
    remaining = index
    for pos in range(k):
        w = prev + 1
        while True:
            block = comb(dim - w - 1, k - pos - 1)
            if remaining < block:
                break
            remaining -= block
            w += 1
        word.append(w)
        prev = w
    return tuple(word)


def tensor_index(word: tuple[int, ...], dim: int) -> int:
    index = 0
    for w in word:
        index = index * dim + w
    return index


def tensor_word_at(index: int, dim: int, k: int) -> tuple[int, ...]:
    word = []
    for _ in range(k):
        index, rem = divmod(index, dim)
        word.append(rem)
    return tuple(reversed(word))


def wedge_code(word: tuple[int, ...]) -> int:
    """The bitmask of the letters of a wedge word."""
    code = 0
    for a in word:
        code |= 1 << a
    return code


def wedge_from_code(code: int) -> tuple[int, ...]:
    """Inverse of wedge_code: the set bits, lowest first."""
    word = []
    while code:
        low = code & -code
        word.append(low.bit_length() - 1)
        code ^= low
    return tuple(word)


def module_wedge_code(word: tuple[int, tuple[int, ...]], dim: int) -> int:
    """(m << dim) | wedge_code(w) for a module-wedge word (m, w) over ``dim``
    algebra letters."""
    m, letters = word
    return (m << dim) | wedge_code(letters)


def module_wedge_from_code(code: int, dim: int) -> tuple[int, tuple[int, ...]]:
    """Inverse of module_wedge_code."""
    return code >> dim, wedge_from_code(code & ((1 << dim) - 1))


def sorted_wedge_code(word: tuple[int, ...]) -> tuple[int, int] | None:
    """(wedge_code, permutation sign) of the sorted word, None on repeats:
    each letter moves past the larger letters before it."""
    code = 0
    odd = 0
    for a in word:
        bit = 1 << a
        if code & bit:
            return None
        odd ^= (code >> a).bit_count() & 1
        code |= bit
    return code, -1 if odd else 1


def wedge_contractions(
    table: list, word: tuple[int, ...], code: int, parity: int
) -> list[tuple[int, int]]:
    """The terms of contracting the letters a, b in slots s < t of a wedge
    word with code ``code`` into each letter m of ``table[b][a]``, a tuple
    of (1 << m, (1 << m) - 1, coefficient), as (code, coefficient) pairs:
    m lands in slot s, slot t is dropped and the word is sorted, and the
    coefficient takes the sign (-1)^(t + parity) (t 0-based) and that of
    the sort.  With ``rest`` the code of the other letters, the term has
    code rest | 1 << m, or vanishes when m is in rest, and the sort moves m
    from slot s to slot (rest & ((1 << m) - 1)).bit_count()."""
    out = []
    for t in range(1, len(word)):
        sign_t = -1 if (t + parity) % 2 else 1
        by_a = table[word[t]]
        for s in range(t):
            terms = by_a[word[s]]
            if terms:
                rest = code ^ (1 << word[s]) ^ (1 << word[t])
                for bit, below, c in terms:
                    if not rest & bit:
                        odd = ((rest & below).bit_count() - s) % 2
                        out.append((rest | bit, -sign_t * c if odd else sign_t * c))
    return out


def sort_with_sign(word: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort a word, tracking the permutation sign; (None, 0) on repeats."""
    got = sorted_wedge_code(word)
    if got is None:
        return None, 0
    return wedge_from_code(got[0]), got[1]


# ---------------------------------------------------------------------------
# the bases of the complexes: one degree of words over an algebra's letters
# (and a module's), with their indices and labels
# ---------------------------------------------------------------------------


class WedgeBasis:
    """Strictly increasing words over the algebra basis, lexicographic."""

    def __init__(self, algebra, k: int):
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

    def __init__(self, algebra, k: int):
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

    def __init__(self, module, k: int):
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


Weight = tuple


def _pack(weight: Weight, width: int) -> int:
    """A weight vector as one int, coordinate i in the ``width`` bits from
    bit i * width up.  Packing is additive, and injective on vectors whose
    coordinates differ by less than 2**width."""
    return sum(c << (i * width) for i, c in enumerate(weight))


class _Search:
    """The words of k letters, strictly increasing when ``strict``, whose
    packed weights (``packed[a]`` for letter a) sum to a given int, in
    lexicographic order.

    ``reach[(i, j)]`` holds the packed sums of j letters: distinct and of
    index >= i when ``strict``, any when not (then i is 0).  A prefix is
    extended only by a letter that leaves a sum the remaining letters can
    reach.  The suffixes that complete a prefix depend only on (first
    allowed letter, weight still needed, letters left), so each such list
    is made once a search and kept in ``suffixes``.  Between searches it
    keeps only the whole results (``results``), which the word sets hold
    anyway and later searches of longer words reuse as suffixes; the
    shorter lists would hold several times as many words."""

    def __init__(self, packed: list[int], strict: bool):
        self.packed = packed
        self.strict = strict
        self.depth = -1
        self.reach: dict[tuple[int, int], set[int]] = {}
        self.suffixes: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
        self.results: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def words(self, need: int, k: int) -> list[tuple[int, ...]]:
        self._extend(k)
        if need not in self.reach[(0, k)]:
            return []
        got = self.results[(0, need, k)] = self._complete(0, need, k)
        self.suffixes = dict(self.results)
        return got

    def _extend(self, k: int) -> None:
        """The reach sets for lengths up to k."""
        packed = self.packed
        reach = self.reach
        n = len(packed)
        for j in range(self.depth + 1, k + 1):
            if self.strict:
                reach[(n, j)] = {0} if j == 0 else set()
                for i in range(n - 1, -1, -1):
                    reach[(i, j)] = {0} if j == 0 else reach[(i + 1, j)] | {
                        packed[i] + s for s in reach[(i + 1, j - 1)]
                    }
            else:
                reach[(0, j)] = {0} if j == 0 else {
                    w + s for w in set(packed) for s in reach[(0, j - 1)]
                }
        self.depth = max(self.depth, k)

    def _complete(self, start: int, need: int, left: int) -> list[tuple[int, ...]]:
        key = (start, need, left)
        got = self.suffixes.get(key)
        if got is None:
            packed = self.packed
            if left == 0:
                got = [()]
            elif left == 1:
                got = [(a,) for a in range(start, len(packed)) if packed[a] == need]
            else:
                got = []
                for a in range(start, len(packed)):
                    after = a + 1 if self.strict else 0
                    rest = need - packed[a]
                    if rest in self.reach[(after, left - 1)]:
                        head = (a,)
                        got += [head + tail for tail in self._complete(after, rest, left - 1)]
            self.suffixes[key] = got
        return got


class WordSet:
    """The words of total weight ``total`` (default zero) over weighted
    letters, by degree.

    ``letter_weights[i]`` is the weight vector of algebra letter i and
    ``module_weights[m]`` that of module letter m, all of one length.
    ``tensor(k)`` and ``wedge(k)`` are words of k algebra letters,
    ``module_wedge(k)`` pairs (m, wedge word), whose weights sum to
    ``total``, all in lexicographic order (module letter major), so over
    ``WordSet.all`` their positions are the usual tensor, wedge and
    module-wedge indices.  ``at`` gives the same letters at another total.
    Lists and position maps are memoized; ``codes`` maps the integer codes
    of a list (see the module docstring) to positions.
    """

    def __init__(
        self,
        letter_weights: Sequence[Weight],
        module_weights: Sequence[Weight] = (),
        total: Weight | None = None,
    ):
        self.letter_weights = [tuple(w) for w in letter_weights]
        self.module_weights = [tuple(w) for w in module_weights]
        widths = {len(w) for w in self.letter_weights + self.module_weights}
        if len(widths) > 1:
            raise ValueError("weight vectors of different lengths")
        self.width = widths.pop() if widths else 0
        self.zero = (0,) * self.width
        self.total = self.zero if total is None else tuple(total)
        if len(self.total) != self.width:
            raise ValueError("total weight of the wrong length")
        self.dim = len(self.letter_weights)
        self._largest = max((abs(c) for w in self.letter_weights for c in w), default=0)
        self._lists: dict[tuple[str, int], list] = {}
        self._positions: dict[tuple[str, int], dict] = {}
        self._searches: dict[tuple[int, bool], _Search] = {}
        self._totals: dict[Weight, WordSet] = {self.total: self}

    @classmethod
    def all(cls, dim: int, module_dim: int = 0) -> "WordSet":
        """Every word: all letters have the empty weight vector."""
        return cls([()] * dim, [()] * module_dim)

    @property
    def graded(self) -> bool:
        """False when every word has weight zero, so this is every word."""
        return self.width > 0

    def at(self, total: Weight) -> "WordSet":
        """The same letters at total weight ``total``, memoized; the sets of
        one family share their searches."""
        got = self._totals.get(total)
        if got is None:
            got = WordSet(self.letter_weights, self.module_weights, total)
            got._searches = self._searches
            got._totals = self._totals
            self._totals[got.total] = got
        return got

    def weight(self, kind: str, word) -> Weight:
        """The total weight of a word of ``kind`` ("tensor", "wedge" or
        "module_wedge")."""
        vectors = []
        if kind == "module_wedge":
            m, word = word
            vectors.append(self.module_weights[m])
        vectors += [self.letter_weights[a] for a in word]
        return tuple(map(sum, zip(self.zero, *vectors)))

    def tensor(self, k: int) -> list[tuple[int, ...]]:
        return self._memo("tensor", k, lambda: self._search(k, False, self.total))

    def wedge(self, k: int) -> list[tuple[int, ...]]:
        return self._memo("wedge", k, lambda: self._search(k, True, self.total))

    def module_wedge(self, k: int) -> list[tuple[int, tuple[int, ...]]]:
        def build():
            out = []
            for m, need in enumerate(self._module_needs()):
                out += [(m, w) for w in self._search(k, True, need)]
            return out

        return self._memo("module_wedge", k, build)

    def count(self, kind: str, k: int, limit: int) -> int:
        """``min(limit, len(getattr(self, kind)(k)))``."""
        return min(limit, len(getattr(self, kind)(k)))

    def position(self, kind: str, k: int) -> dict:
        """Word -> index in ``getattr(self, kind)(k)``."""
        got = self._positions.get((kind, k))
        if got is None:
            words = getattr(self, kind)(k)
            got = self._positions[(kind, k)] = {w: i for i, w in enumerate(words)}
        return got

    def codes(self, kind: str, k: int) -> dict[int, int]:
        """Code -> index in ``getattr(self, kind)(k)``, made on each call."""
        words = getattr(self, kind)(k)
        dim = self.dim
        if kind == "tensor":
            return {tensor_index(w, dim): i for i, w in enumerate(words)}
        if kind == "wedge":
            return {wedge_code(w): i for i, w in enumerate(words)}
        return {module_wedge_code(w, dim): i for i, w in enumerate(words)}

    def rows(self, kind: str, k: int) -> dict[int, tuple[int, int]]:
        """Code -> (index in ``getattr(self, kind)(k)``, sign 1): the row
        map of the assembly loop, which ``weyl.OrbitWords`` also gives."""
        return {code: (i, 1) for code, i in self.codes(kind, k).items()}

    def decode(self, kind: str, k: int, code: int):
        """The word of ``kind`` and length k with ``code``, in this set or
        not."""
        if kind == "tensor":
            return tensor_word_at(code, self.dim, k)
        if kind == "wedge":
            return wedge_from_code(code)
        return module_wedge_from_code(code, self.dim)

    def _memo(self, kind: str, k: int, build) -> list:
        got = self._lists.get((kind, k))
        if got is None:
            got = self._lists[(kind, k)] = build()
        return got

    def _module_needs(self) -> list[Weight]:
        """The weight the wedge word must bring, by module letter."""
        return [tuple(t - c for t, c in zip(self.total, w)) for w in self.module_weights]

    def _search(self, k: int, strict: bool, total: Weight) -> list[tuple[int, ...]]:
        """Words of k letters (strictly increasing when ``strict``) whose
        weights sum to ``total``, lexicographic.

        No sum of k letters has a coordinate beyond k times the largest
        letter coordinate L, so a total outside that box has no words.  In
        it, every weight the search adds, subtracts or compares has
        coordinates within (k + 1) L, so any two differ by less than
        2**width in each coordinate for width (2 (k + 1) L).bit_length(),
        and ``_pack`` keeps them apart.  The width is rounded up to a
        multiple of 16 bits, so that searches of most lengths share one
        ``_Search``; each of them stays within its own, smaller bound."""
        bound = k * self._largest
        if any(abs(c) > bound for c in total):
            return []
        width = -(-(2 * (k + 1) * self._largest).bit_length() // 16) * 16
        search = self._searches.get((width, strict))
        if search is None:
            packed = [_pack(w, width) for w in self.letter_weights]
            search = self._searches[(width, strict)] = _Search(packed, strict)
        return search.words(_pack(total, width), k)


# ---------------------------------------------------------------------------
# chains in these bases
# ---------------------------------------------------------------------------


class Chain:
    """An element of one degree of a complex, in that degree's basis.  An
    immutable value: equal to a ``Chain`` of the same degree and vector,
    and hashable."""

    __slots__ = ("degree", "vector")

    def __init__(self, degree: int, vector: QVector):
        self.degree = degree
        self.vector = vector

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.degree == other.degree and self.vector == other.vector

    def __hash__(self) -> int:
        return hash((self.degree, self.vector))

    def __repr__(self) -> str:
        return f"Chain(degree={self.degree!r}, vector={self.vector!r})"

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


def _check_word(word: tuple[int, ...], algebra_dim: int, degree: int) -> None:
    if len(word) != degree:
        raise DomainError("word length must equal the degree")
    if not all(0 <= a < algebra_dim for a in word):
        raise DomainError(f"word {word} has a letter outside 0..{algebra_dim - 1}")


def wedge_chain(
    algebra_dim: int, degree: int, terms: dict[tuple[int, ...], Rational]
) -> Chain:
    """Chain in the exterior basis from {word: coefficient}; words may be
    unsorted and pick up the permutation sign."""
    acc: dict[int, Rational] = {}
    for word, coeff in terms.items():
        _check_word(word, algebra_dim, degree)
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
        _check_word(word, algebra_dim, degree)
        idx = tensor_index(tuple(word), algebra_dim)
        acc[idx] = acc.get(idx, QZERO) + Rational(coeff)
    return Chain(degree, QVector.from_dict(tensor_dim(algebra_dim, degree), acc))
