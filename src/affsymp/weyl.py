"""Orbit sums of the weight-0 words under the signed Weyl group W~ of
Sp(2n, R), the basis every complex of ``sp_n`` and ``g_n`` is ranked on.

W~ acts on the letters of an algebra with ``LieAlgebra.weyl``, and of a
module through ``lie_structures.module_weyl``, by signed permutations, so
it permutes words up to sign.  The orbit sum S(u) of a word u is the sum of
g u over the group; it is 0 exactly when an element of the stabilizer of u
acts on it by -1 (a dead orbit).  The live orbit sums are a basis of the
invariants of the weight-0 words, and every differential and projection,
being natural, maps S(u) to S(d u): column u of a block on orbit sums is
the image of the one word u, with each word t of it written as
s_t S(rep t), where t = s_t g rep t, or dropped when its orbit is dead.
Why the invariants carry the homology is in the ``chain_complexes``
docstring.

W~ contains the diagonal signs (x_i, y_i) -> (-x_i, -y_i), which act on a
word of weight lambda by (-1)^(lambda_i), so they fix every weight-0 word.
So one element per coset of the subgroup that moves no letter is enough:
2 at n = 1, 8 at n = 2 and 48 at n = 3.  That subgroup is checked to act
on each letter by (-1)^(e . weight) for some 0/1 vector e, which fixes
every weight-0 word.

``OrbitWords`` is the orbit view of a weight-0 ``WordSet`` that the
assembly loop of ``chain_complexes`` takes in its place: its word lists are
the orbit representatives, the first word of each live orbit in the order
of the ``WordSet``, and ``rows`` maps the integer code of every word of an
orbit to (representative position, sign), or to sign 0 for a dead orbit.
The orbits are found on the codes: the image of a word under a group
element is a code computed letter by letter from tables, never a tuple.
"""

from __future__ import annotations

from itertools import product

from .errors import ConsistencyError
from .lie_structures import LieAlgebra, LieModule, SignedPerm, module_weyl
from .words import WordSet, module_wedge_code, tensor_index, wedge_code


def orbit_words(
    words: WordSet, algebra: LieAlgebra, module: LieModule | None = None
) -> "OrbitWords | None":
    """The orbit view of the weight-0 ``words`` of the algebra (and module),
    or None when the algebra has no ``weyl`` or the module no action that
    checks equivariant."""
    if algebra.weyl is None or not words.graded:
        return None
    slots = tuple(() for _ in algebra.weyl) if module is None else module_weyl(algebra, module)
    if slots is None:
        return None
    return OrbitWords(words, algebra.weyl, slots)


def _weight_zero_signs(weights: list[tuple]) -> set[tuple[int, ...]]:
    """The letter signs (-1)^(e . weight), one tuple for each 0/1 vector e:
    the signs whose product over every weight-0 word is 1.  They form a
    group."""
    return {
        tuple(-1 if sum(c for c, bit in zip(w, e) if bit) % 2 else 1 for w in weights)
        for e in product((0, 1), repeat=len(weights[0]) if weights else 0)
    }


class OrbitWords:
    """The live W~-orbits of the weight-0 words of a ``WordSet``, by kind
    and degree, in the interface ``chain_complexes._assemble`` reads:
    ``tensor(k)``, ``wedge(k)`` and ``module_wedge(k)`` list the
    representatives, ``rows(kind, k)`` maps codes to (representative
    position, sign), sign 0 on a dead orbit, and ``count`` and ``decode``
    are those of a ``WordSet``.  ``key`` names the group in block
    descriptors.  Orbits are found once per kind and degree."""

    graded = True

    def __init__(
        self, words: WordSet, letters: tuple[SignedPerm, ...], slots: tuple[SignedPerm, ...]
    ):
        if words.total != words.zero:
            raise ValueError("orbit sums are taken of weight-0 words only")
        self.words = words
        self.letter_weights = words.letter_weights
        self.module_weights = words.module_weights
        self.total = words.total
        self.key = repr((letters, slots))
        dim = words.dim
        # the letters of the module follow those of the algebra
        generators = [a + tuple((dim + t, s) for t, s in m) for a, m in zip(letters, slots)]
        weights = words.letter_weights + words.module_weights
        # one element per letter permutation, found by a breadth-first
        # search from the identity; when g h meets a permutation already
        # found, it differs from that element by signs alone, and these
        # elements (Schreier's) generate the subgroup that moves no letter
        identity = tuple((a, 1) for a in range(len(weights)))
        fixing = _weight_zero_signs(weights)
        cosets = {tuple(range(len(weights))): identity}
        order = [identity]
        for g in order:
            for h in generators:
                gh = tuple((g[t][0], s * g[t][1]) for t, s in h)  # h, then g
                moved = tuple(t for t, _ in gh)
                found = cosets.setdefault(moved, gh)
                if found is gh:
                    order.append(gh)
                elif tuple(s * r for (_, s), (_, r) in zip(gh, found)) not in fixing:
                    raise ConsistencyError(
                        "an element of W~ that moves no letter moves a weight-0 word"
                    )
        # (image, sign is -1) by letter, and by module letter, for each
        # element but the identity
        self._tables = [
            ([(t, s < 0) for t, s in g[:dim]], [(t - dim, s < 0) for t, s in g[dim:]])
            for g in order[1:]
        ]
        self._made: dict[tuple[str, int], tuple[list, dict[int, tuple[int, int]]]] = {}

    def tensor(self, k: int) -> list[tuple[int, ...]]:
        return self._orbits("tensor", k)[0]

    def wedge(self, k: int) -> list[tuple[int, ...]]:
        return self._orbits("wedge", k)[0]

    def module_wedge(self, k: int) -> list[tuple[int, tuple[int, ...]]]:
        return self._orbits("module_wedge", k)[0]

    def rows(self, kind: str, k: int) -> dict[int, tuple[int, int]]:
        return self._orbits(kind, k)[1]

    def count(self, kind: str, k: int, limit: int) -> int:
        """``min(limit, len(getattr(self, kind)(k)))``; the search stops at
        the ``limit``-th live orbit, and keeps nothing."""
        got = self._made.get((kind, k))
        return min(limit, len((got or self._scan(kind, k, limit))[0]))

    def decode(self, kind: str, k: int, code: int):
        return self.words.decode(kind, k, code)

    def _orbits(self, kind: str, k: int) -> tuple[list, dict[int, tuple[int, int]]]:
        got = self._made.get((kind, k))
        if got is None:
            got = self._made[(kind, k)] = self._scan(kind, k)
        return got

    def _scan(self, kind: str, k: int, limit: int | None = None):
        """(representatives, rows) of the orbits of the words, in order, up
        to the ``limit``-th live one."""
        words = getattr(self.words, kind)(k)
        code_of, images = getattr(self, f"_{kind}_images")()
        reps: list = []
        rows: dict[int, tuple[int, int]] = {}
        for word in words:
            if len(reps) == limit:
                return reps, rows
            code = code_of(word)
            if code in rows:
                continue
            orbit = {code: 1}
            live = True
            for image, sign in images(word):
                if orbit.setdefault(image, sign) != sign:
                    live = False
            at = (len(reps), 1) if live else (0, 0)
            for image, sign in orbit.items():
                rows[image] = (at[0], at[1] * sign)
            if live:
                reps.append(word)
        if len(rows) != len(words):
            raise ConsistencyError(f"W~ moves a {kind} word of degree {k} out of weight 0")
        return reps, rows

    def _tensor_images(self):
        dim = self.words.dim
        tables = [letters for letters, _ in self._tables]

        def images(word):
            out = []
            for table in tables:
                code = odd = 0
                for a in word:
                    t, negative = table[a]
                    code = code * dim + t
                    odd ^= negative
                out.append((code, -1 if odd else 1))
            return out

        return (lambda word: tensor_index(word, dim)), images

    def _wedge_images(self):
        tables = [letters for letters, _ in self._tables]

        def images(word):
            out = []
            for table in tables:
                code = odd = 0
                for a in word:
                    t, negative = table[a]
                    # the sort moves t past the letters above it placed so far
                    odd ^= ((code >> t).bit_count() ^ negative) & 1
                    code |= 1 << t
                out.append((code, -1 if odd else 1))
            return out

        return wedge_code, images

    def _module_wedge_images(self):
        dim = self.words.dim

        def images(word):
            m, letters = word
            out = []
            for table, slots in self._tables:
                head, odd = slots[m]
                code = 0
                for a in letters:
                    t, negative = table[a]
                    odd ^= ((code >> t).bit_count() ^ negative) & 1
                    code |= 1 << t
                out.append(((head << dim) | code, -1 if odd else 1))
            return out

        return (lambda word: module_wedge_code(word, dim)), images
