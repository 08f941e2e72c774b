"""Index words for tensor and exterior power bases.

Wedge words are strictly increasing index tuples in lexicographic order;
tensor words are arbitrary tuples in lexicographic order.  Ranking and
unranking are exact integer computations so bases never need materializing.

``WordSet`` enumerates the words of one total weight (zero unless another
is asked for) when every letter carries a weight vector: a depth-first
search that extends a prefix only when the remaining letters can still
bring the sum to that total, so it never visits, let alone filters, the
full list.  With weight vectors of length 0 every word qualifies, and
``WordSet.all`` is the full basis.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from operator import add, sub
from typing import Iterator, Sequence


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


def sort_with_sign(word: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort a word, tracking the permutation sign; (None, 0) on repeats."""
    items = list(word)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None, 0
    return tuple(items), sign


def merge_with_sign(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, int]:
    """Merge two strictly increasing words, counting inversion parity;
    (None, 0) when they share a letter."""
    out = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out), sign


Weight = tuple


def _plus(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def _minus(a: Weight, b: Weight) -> Weight:
    return tuple(map(sub, a, b))


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
    Lists and position maps are memoized.
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
        self._lists: dict[tuple[str, int], list] = {}
        self._positions: dict[tuple[str, int], dict] = {}
        self._reach: dict[bool, tuple[int, dict]] = {}
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
        one family share their reachability tables."""
        got = self._totals.get(total)
        if got is None:
            got = WordSet(self.letter_weights, self.module_weights, total)
            got._reach = self._reach
            got._totals = self._totals
            self._totals[got.total] = got
        return got

    def weight(self, kind: str, word) -> Weight:
        """The total weight of a word of ``kind`` ("tensor", "wedge" or
        "module_wedge")."""
        total = self.zero
        if kind == "module_wedge":
            m, word = word
            total = self.module_weights[m]
        for a in word:
            total = _plus(total, self.letter_weights[a])
        return total

    def tensor(self, k: int) -> list[tuple[int, ...]]:
        return self._memo("tensor", k, lambda: self._search(k, False, self.total))

    def wedge(self, k: int) -> list[tuple[int, ...]]:
        return self._memo("wedge", k, lambda: self._search(k, True, self.total))

    def module_wedge(self, k: int) -> list[tuple[int, tuple[int, ...]]]:
        def build():
            out = []
            for m, weight in enumerate(self.module_weights):
                need = _minus(self.total, weight)
                out.extend((m, w) for w in self._search(k, True, need))
            return out

        return self._memo("module_wedge", k, build)

    def count(self, kind: str, k: int, limit: int) -> int:
        """``min(limit, len(getattr(self, kind)(k)))``; the search stops
        after ``limit`` words instead of listing them all."""
        got = self._lists.get((kind, k))
        if got is not None:
            return min(limit, len(got))
        if kind != "module_wedge":
            return min(limit, len(self._search(k, kind == "wedge", self.total, limit)))
        found = 0
        for weight in self.module_weights:
            if found < limit:
                found += len(self._search(k, True, _minus(self.total, weight), limit - found))
        return min(limit, found)

    def position(self, kind: str, k: int) -> dict:
        """Word -> index in ``getattr(self, kind)(k)``."""
        got = self._positions.get((kind, k))
        if got is None:
            words = getattr(self, kind)(k)
            got = self._positions[(kind, k)] = {w: i for i, w in enumerate(words)}
        return got

    def _memo(self, kind: str, k: int, build) -> list:
        got = self._lists.get((kind, k))
        if got is None:
            got = self._lists[(kind, k)] = build()
        return got

    def _sums(self, k: int, strict: bool) -> dict:
        """Weights reachable by j letters, for j <= k: keyed (i, j) with
        distinct letters of index >= i when ``strict``, keyed (0, j) with
        any letters otherwise.  One table per ``strict``, extended by the
        lengths a call needs beyond those it holds."""
        depth, table = self._reach.get(strict, (-1, {}))
        if depth >= k:
            return table
        weights = self.letter_weights
        n = len(weights)
        distinct = set(weights)
        for j in range(depth + 1, k + 1):
            if strict:
                table[(n, j)] = {self.zero} if j == 0 else set()
                for i in range(n - 1, -1, -1):
                    table[(i, j)] = {self.zero} if j == 0 else table[(i + 1, j)] | {
                        _plus(weights[i], s) for s in table[(i + 1, j - 1)]
                    }
            else:
                table[(0, j)] = {self.zero} if j == 0 else {
                    _plus(w, s) for w in distinct for s in table[(0, j - 1)]
                }
        self._reach[strict] = (k, table)
        return table

    def _search(
        self, k: int, strict: bool, total: Weight, limit: int | None = None
    ) -> list[tuple[int, ...]]:
        """Words of k letters (strictly increasing when ``strict``) whose
        weights sum to ``total``, lexicographic; with a ``limit``, a prefix
        of the list at least that long when there are so many.  The letters
        that can extend a prefix depend only on (first allowed letter, weight
        still needed, letters left), so they are listed once per such
        state."""
        reach = self._sums(k, strict)
        weights = self.letter_weights
        n = len(weights)
        out: list[tuple[int, ...]] = []
        if total not in reach[(0, k)]:
            return out
        steps: dict[tuple, list[tuple[int, Weight]]] = {}

        def options(start: int, need: Weight, left: int) -> list[tuple[int, Weight]]:
            key = (start, need, left)
            got = steps.get(key)
            if got is None:
                got = steps[key] = []
                for a in range(start, n):
                    rest = _minus(need, weights[a])
                    if rest in reach[(a + 1 if strict else 0, left - 1)]:
                        got.append((a, rest))
            return got

        def extend(prefix: tuple[int, ...], start: int, need: Weight, left: int) -> None:
            if left == 1:
                out.extend(prefix + (a,) for a, _ in options(start, need, 1))
                return
            for a, rest in options(start, need, left):
                extend(prefix + (a,), a + 1 if strict else 0, rest, left - 1)
                if limit is not None and len(out) >= limit:
                    return

        if k == 0:
            out.append(())
        else:
            extend((), 0, total, k)
        return out
