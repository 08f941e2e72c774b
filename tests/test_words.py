from hypothesis import given, settings, strategies as st

from affsymp.words import (
    WordSet,
    module_wedge_code,
    module_wedge_from_code,
    sort_with_sign,
    tensor_dim,
    tensor_index,
    tensor_word_at,
    tensor_words,
    wedge_code,
    wedge_dim,
    wedge_from_code,
    wedge_index,
    wedge_word_at,
    wedge_words,
)

from sign_oracle import merge_with_sign, tuple_sort_with_sign


class TestWedgeRanking:
    def test_enumeration_matches_index(self):
        for dim in (3, 5, 6):
            for k in range(dim + 1):
                for i, word in enumerate(wedge_words(dim, k)):
                    assert wedge_index(word, dim) == i
                    assert wedge_word_at(i, dim, k) == word

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_round_trip(self, dim, data):
        k = data.draw(st.integers(0, dim))
        index = data.draw(st.integers(0, wedge_dim(dim, k) - 1))
        word = wedge_word_at(index, dim, k)
        assert len(word) == k
        assert all(a < b for a, b in zip(word, word[1:]))
        assert wedge_index(word, dim) == index


class TestTensorRanking:
    def test_enumeration_matches_index(self):
        for dim in (2, 3):
            for k in range(4):
                for i, word in enumerate(tensor_words(dim, k)):
                    assert tensor_index(word, dim) == i
                    assert tensor_word_at(i, dim, k) == word

    def test_dim(self):
        assert tensor_dim(5, 3) == 125


class TestCodes:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 70), st.data())
    def test_wedge_round_trip(self, dim, data):
        word = tuple(sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=dim))))
        code = wedge_code(word)
        assert code == sum(1 << a for a in word)
        assert wedge_from_code(code) == word

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 40), st.data())
    def test_module_wedge_round_trip(self, dim, m, data):
        word = tuple(sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=dim))))
        code = module_wedge_code((m, word), dim)
        assert code >> dim == m
        assert module_wedge_from_code(code, dim) == (m, word)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.lists(st.integers(0, 29), max_size=8))
    def test_tensor_round_trip(self, dim, letters):
        word = tuple(a % dim for a in letters)
        assert tensor_word_at(tensor_index(word, dim), dim, len(word)) == word

    def test_codes_of_a_word_set(self):
        words = WordSet([(1,), (-1,), (0,), (2,), (-2,)], [(0,), (1,)])
        for kind in ("tensor", "wedge", "module_wedge"):
            for k in range(5):
                listed = getattr(words, kind)(k)
                codes = words.codes(kind, k)
                assert sorted(codes.values()) == list(range(len(listed)))
                for code, i in codes.items():
                    assert words.decode(kind, k, code) == listed[i]


class TestSigns:
    def test_sort_sign_matches_inversions(self):
        word = (2, 0, 1)
        sorted_word, sign = sort_with_sign(word)
        assert sorted_word == (0, 1, 2)
        assert sign == 1  # two inversions

    def test_sort_detects_repeats(self):
        assert sort_with_sign((1, 1)) == (None, 0)

    def test_merge_sign(self):
        """Merging two increasing words has the parity of sorting their
        concatenation."""
        merged, sign = sort_with_sign((0, 2) + (1, 3))
        assert merged == (0, 1, 2, 3)
        assert sign == -1  # moving 1 past one element
        assert sort_with_sign((0, 1) + (1, 2)) == (None, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 70), max_size=9))
    def test_sort_matches_the_tuple_sort(self, letters):
        assert sort_with_sign(tuple(letters)) == tuple_sort_with_sign(letters)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 20), max_size=6), st.sets(st.integers(0, 20), max_size=6))
    def test_sort_of_a_concatenation_matches_the_merge(self, left, right):
        left, right = tuple(sorted(left)), tuple(sorted(right))
        assert sort_with_sign(left + right) == merge_with_sign(left, right)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=0, max_size=6))
    def test_sort_sign_consistency(self, letters):
        word = tuple(letters)
        sorted_word, sign = sort_with_sign(word)
        if len(set(letters)) != len(letters):
            assert sorted_word is None and sign == 0
        else:
            inversions = sum(
                1
                for i in range(len(word))
                for j in range(i + 1, len(word))
                if word[i] > word[j]
            )
            assert sorted_word == tuple(sorted(word))
            assert sign == (-1) ** inversions


def _total(weights, word, width):
    return tuple(sum(weights[a][c] for a in word) for c in range(width))


class TestWordSet:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), max_size=3),
        st.integers(0, 4),
    )
    def test_matches_filtered_enumeration(self, letters, modules, k):
        words = WordSet(letters, modules)
        zero = (0, 0)
        dim = len(letters)
        assert words.tensor(k) == [
            w for w in tensor_words(dim, k) if _total(letters, w, 2) == zero
        ]
        assert words.wedge(k) == [
            w for w in wedge_words(dim, k) if _total(letters, w, 2) == zero
        ]
        assert words.module_wedge(k) == [
            (m, w)
            for m in range(len(modules))
            for w in wedge_words(dim, k)
            if tuple(a + b for a, b in zip(modules[m], _total(letters, w, 2))) == zero
        ]
        for kind in ("tensor", "wedge", "module_wedge"):
            listed = getattr(words, kind)(k)
            assert words.position(kind, k) == {w: i for i, w in enumerate(listed)}

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), max_size=3),
        st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
        st.integers(0, 7),
    )
    def test_counts_match_the_listed_words(self, letters, modules, total, k):
        # counted before anything is listed, on a set sharing its tables
        words = WordSet(letters, modules).at(total)
        kinds = ("tensor", "wedge", "module_wedge")
        counts = {(kind, limit): words.count(kind, k, limit) for kind in kinds for limit in (1, 2, 5)}
        fresh = WordSet(letters, modules, total)
        for (kind, limit), count in counts.items():
            assert count == min(limit, len(getattr(fresh, kind)(k))), (kind, limit)
            assert words.count(kind, k, limit) == count

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wide_and_negative_weights(self, data):
        """Coordinates up to 2**40 in size, either sign, and words up to
        length 8: weights that a slot too narrow, or a carry between the
        slots, would pack alike must not meet.  The total is the weight of a drawn word,
        so the lists are seldom empty."""
        powers = [sign << e for e in (0, 8, 16, 24, 32, 40) for sign in (1, -1)]
        coordinate = st.sampled_from([0, 2**40 - 1, 1 - 2**40, *powers])
        vector = st.tuples(coordinate, coordinate)
        letters = data.draw(st.lists(vector, min_size=1, max_size=9))
        modules = data.draw(st.lists(vector, max_size=2))
        dim = len(letters)
        k = data.draw(st.integers(0, min(8, dim)))
        drawn = tuple(data.draw(st.lists(st.integers(0, dim - 1), min_size=k, max_size=k)))
        total = _total(letters, drawn, 2)
        words = WordSet(letters, modules).at(total)
        wedges = [w for w in wedge_words(dim, k) if _total(letters, w, 2) == total]
        assert words.wedge(k) == wedges
        assert words.module_wedge(k) == [
            (m, w)
            for m in range(len(modules))
            for w in wedge_words(dim, k)
            if tuple(a + b for a, b in zip(modules[m], _total(letters, w, 2))) == total
        ]
        if dim**k <= 5000:
            assert words.tensor(k) == [
                w for w in tensor_words(dim, k) if _total(letters, w, 2) == total
            ]
            assert drawn in words.tensor(k)
        counted = WordSet(letters, modules).at(total)  # nothing listed yet
        for kind in ("tensor", "wedge", "module_wedge"):
            if kind != "tensor" or dim**k <= 5000:
                assert counted.count(kind, k, 3) == min(3, len(getattr(words, kind)(k)))

    def test_a_sum_that_fills_a_slot_is_not_a_carry(self):
        """Four letters (2**40, 0) sum to (2**42, 0), which slots of 42
        bits would pack as (0, 1)."""
        letters = [(2**40, 0), (0, 1), (0, 0)]
        words = WordSet(letters).at((0, 1))
        assert words.tensor(4) == [
            w for w in tensor_words(3, 4) if _total(letters, w, 2) == (0, 1)
        ]

    def test_all_words_is_the_full_basis(self):
        words = WordSet.all(4, 2)
        assert not words.graded
        for k in range(4):
            assert words.tensor(k) == list(tensor_words(4, k))
            assert words.wedge(k) == list(wedge_words(4, k))
            assert words.module_wedge(k) == [(m, w) for m in range(2) for w in wedge_words(4, k)]
            for i, w in enumerate(words.wedge(k)):
                assert wedge_index(w, 4) == i

    def test_unreachable_total_is_empty(self):
        words = WordSet([(1,), (2,)])
        assert words.graded
        assert words.tensor(3) == []
        assert words.wedge(0) == [()]
