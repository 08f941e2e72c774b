from hypothesis import given, settings, strategies as st

from affsymp.words import (
    WordSet,
    merge_with_sign,
    sort_with_sign,
    tensor_dim,
    tensor_index,
    tensor_word_at,
    tensor_words,
    wedge_dim,
    wedge_index,
    wedge_word_at,
    wedge_words,
)


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


class TestSigns:
    def test_sort_sign_matches_inversions(self):
        word = (2, 0, 1)
        sorted_word, sign = sort_with_sign(word)
        assert sorted_word == (0, 1, 2)
        assert sign == 1  # two inversions

    def test_sort_detects_repeats(self):
        assert sort_with_sign((1, 1)) == (None, 0)

    def test_merge_sign(self):
        merged, sign = merge_with_sign((0, 2), (1, 3))
        assert merged == (0, 1, 2, 3)
        assert sign == -1  # moving 1 past one element
        assert merge_with_sign((0, 1), (1, 2)) == (None, 0)

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
