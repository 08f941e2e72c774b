from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from affsymp import exact_linalg
from affsymp.errors import ResourceLimitError, ShapeError
from affsymp.exact_linalg import (
    QVector,
    Rational,
    SparseMatrix,
    _eliminate,
    _integer_lines,
    append_columns,
    independent_columns,
    kernel_basis,
    multiply,
    products_cancel,
    rank,
    rational_to_string,
    solve,
    stack_rows,
)

import fraction_oracle
from dense_oracle import dense_rank, to_dense
from fraction_oracle import fraction_product, fraction_rank, matrix_text
from fraction_oracle import rational_to_string as fraction_rational_to_string
from elimination_oracle import old_loop
from text_oracle import canonical_text_matrix


# sp1 bracket table, expanded by hand from the field basis
# e0 = x dy, e1 = y dx, e2 = y dy - x dx:
#   [e0,e1] = -e2,  [e0,e2] = 2 e0,  [e1,e2] = -2 e1
SP1_D2_COLUMNS = {
    0: {2: -1},   # word (e0,e1)
    1: {0: 2},    # word (e0,e2)
    2: {1: -2},   # word (e1,e2)
}


def matrix_from_columns_dict(rows, cols, coldict):
    return SparseMatrix(
        rows, cols, {(r, c): Rational(v) for c, col in coldict.items() for r, v in col.items()}
    )


class TestRank:
    def test_identity(self):
        assert rank(SparseMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(SparseMatrix.zero(4, 7)) == 0

    def test_sp1_degree2_differential(self):
        # three bracket images with distinct leading coordinates: rank 3
        d2 = matrix_from_columns_dict(3, 3, SP1_D2_COLUMNS)
        assert rank(d2) == 3

    def test_insertion_order_irrelevant(self):
        entries = {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 6}
        a = SparseMatrix(2, 2, dict(entries))
        b = SparseMatrix(2, 2, dict(reversed(list(entries.items()))))
        assert rank(a) == rank(b) == 1


class TestKernel:
    def test_zero_map_on_q2(self):
        vecs = kernel_basis(SparseMatrix.zero(1, 2))
        assert vecs == [QVector.unit(2, 0), QVector.unit(2, 1)]

    def test_one_one(self):
        (v,) = kernel_basis(SparseMatrix.from_dense([[1, 1]]))
        assert v.entries == ((0, Rational(1)), (1, Rational(-1)))

    def test_echelon_shape(self):
        m = SparseMatrix.from_dense([[2, 1, 1], [0, 0, 0]])
        vecs = kernel_basis(m)
        assert len(vecs) == 2
        pivots = [v.entries[0][0] for v in vecs]
        assert pivots == sorted(pivots)
        for v in vecs:
            assert v.entries[0][1] == 1
            for other in vecs:
                if other is not v:
                    assert other.get(v.entries[0][0]) == 0

    def test_kernel_annihilates(self):
        m = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6]])
        for v in kernel_basis(m):
            assert m.apply(v).is_zero


class TestMultiplyStack:
    def test_identity_times_m(self):
        m = SparseMatrix.from_dense([[1, 2], [0, 1]])
        assert multiply(SparseMatrix.identity(2), m) == m

    def test_fixed_product(self):
        a = SparseMatrix.from_dense([[1, 2], [0, 1]])
        b = SparseMatrix.identity(2)
        assert multiply(a, b) == a

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            multiply(SparseMatrix.zero(2, 3), SparseMatrix.zero(2, 3))

    def test_stack_single(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 4]])
        assert stack_rows([m]) == m

    def test_stack_two_rows_identity(self):
        a = SparseMatrix.from_dense([[1, 0]])
        b = SparseMatrix.from_dense([[0, 1]])
        assert stack_rows([a, b]) == SparseMatrix.identity(2)

    def test_stack_mismatch(self):
        with pytest.raises(ShapeError):
            stack_rows([SparseMatrix.zero(1, 2), SparseMatrix.zero(1, 3)])


class TestSerialization:
    def test_golden_text(self):
        m = SparseMatrix.from_dense([[0, 1], [Fraction(-3, 2), 0]])
        assert m.to_text() == "2 2 2\n0 1 1/1\n1 0 -3/2\n"

    def test_round_trip(self):
        m = SparseMatrix.from_dense([[1, 0, Fraction(2, 7)], [0, -5, 0]])
        assert SparseMatrix.from_text(m.to_text()) == m

    def test_rational_strings(self):
        assert rational_to_string(Rational(-3, 6)) == "-1/2"


class TestExactArithmetic:
    @given(
        st.integers(-50, 50), st.integers(1, 30),
        st.integers(-50, 50), st.integers(1, 30),
    )
    def test_sum_recomputed_two_ways(self, a, b, c, d):
        x, y = Rational(a, b), Rational(c, d)
        direct = x + y
        common = Rational(a * d + c * b, b * d)
        assert direct == common
        assert rational_to_string(direct) == rational_to_string(common)

    def test_reduced_invariants(self):
        q = Rational(6, -4)
        assert q.denominator > 0
        from math import gcd
        assert gcd(abs(int(q.numerator)), int(q.denominator)) == 1


def sparse_matrices(max_rows=6, max_cols=6):
    @st.composite
    def build(draw):
        rows = draw(st.integers(1, max_rows))
        cols = draw(st.integers(1, max_cols))
        nnz = draw(st.integers(0, rows * cols))
        entries = {}
        for _ in range(nnz):
            r = draw(st.integers(0, rows - 1))
            c = draw(st.integers(0, cols - 1))
            num = draw(st.integers(-9, 9))
            den = draw(st.integers(1, 5))
            entries[(r, c)] = Rational(num, den)
        return SparseMatrix(rows, cols, entries)

    return build()


class TestRandomizedProperties:
    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_rank_nullity(self, m):
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == m.cols
        for v in vecs:
            assert m.apply(v).is_zero

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_rank_matches_dense_oracle(self, m):
        assert rank(m) == dense_rank(to_dense(m))

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.randoms(use_true_random=False))
    def test_rank_invariant_under_row_permutation_and_scaling(self, m, rng):
        perm = list(range(m.rows))
        rng.shuffle(perm)
        scales = [Rational(rng.randint(1, 7)) for _ in range(m.rows)]
        entries = {
            (perm[r], c): v * scales[r] for (r, c), v in m.entries.items()
        }
        permuted = SparseMatrix(m.rows, m.cols, entries)
        assert rank(permuted) == rank(m)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(max_rows=5, max_cols=4), sparse_matrices(max_rows=4, max_cols=5))
    def test_transpose_rank(self, a, b):
        assert rank(a) == rank(a.transpose())


@st.composite
def oracle_matrices(draw, rows=None, max_rows=7, max_cols=7):
    """Sparse matrices with non-integral entries, zero and duplicate (scaled)
    rows, and shapes that may be empty."""
    nrows = draw(st.integers(0, max_rows)) if rows is None else rows
    ncols = draw(st.integers(0, max_cols))
    value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    dense_rows: list[dict] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["sparse", "zero", "duplicate"]))
        if kind == "zero" or ncols == 0:
            dense_rows.append({})
        elif kind == "duplicate" and dense_rows:
            source = draw(st.sampled_from(dense_rows))
            scale = draw(value.filter(bool))
            dense_rows.append({c: v * scale for c, v in source.items()})
        else:
            support = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            dense_rows.append({c: draw(value) for c in sorted(support)})
    return SparseMatrix(
        nrows, ncols, {(r, c): v for r, row in enumerate(dense_rows) for c, v in row.items()}
    )


@st.composite
def oracle_products(draw):
    a = draw(oracle_matrices())
    return a, draw(oracle_matrices(rows=a.cols))


def assert_normal_form(m):
    """Every entry of m is an int exactly when its denominator is 1, and a
    Fraction otherwise."""
    for v in m.entries.values():
        assert type(v) is (int if v.denominator == 1 else Fraction), v


def circulant(n, offsets):
    """n x n, row i holding j + 1 at column i + offsets[j] mod n: every row
    and column has len(offsets) entries, and eliminating it fills in."""
    return SparseMatrix(
        n, n, {(i, (i + off) % n): j + 1 for i in range(n) for j, off in enumerate(offsets)}
    )


class TestIntegerCore:
    """The integer rank and product against the Fraction loops they
    replaced (``fraction_oracle``) and the dense textbook eliminator."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    def test_rank_matches_fraction_and_dense_oracles(self, m):
        for mat in (m, m.transpose()):
            assert rank(mat) == fraction_rank(mat) == dense_rank(to_dense(mat))
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=200, deadline=None)
    @given(oracle_products())
    def test_multiply_matches_fraction_product(self, pair):
        a, b = pair
        product = multiply(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.entries == fraction_product(a, b)
        assert_normal_form(product)

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    def test_to_text_matches_rational_to_string_format(self, m):
        assert m.to_text() == matrix_text(m)
        assert m.fingerprint() == SparseMatrix.from_text(matrix_text(m)).fingerprint()
        for v in m.entries.values():
            assert rational_to_string(v) == fraction_rational_to_string(v)

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    def test_canonical_text_keeps_the_given_digest(self, m):
        text = m.to_text()
        got = SparseMatrix.from_text(text, "given")
        assert got == m and got.fingerprint() == "given"
        assert_normal_form(got)
        # the same lines in reverse order are not canonical, and do not parse
        head, *lines = text.splitlines()
        if len(lines) > 1:
            shuffled = "\n".join([head] + lines[::-1]) + "\n"
            with pytest.raises(ShapeError):
                SparseMatrix.from_text(shuffled, "given")

    def test_pinned_leibniz_ranks(self, g1, g2):
        from affsymp.chain_complexes import leibniz_d

        for algebra, k, expected in ((g1[0], 5, 519), (g1[0], 6, 2606), (g2[0], 4, 2563)):
            d = leibniz_d(algebra, k)
            assert rank(d) == expected
            assert rank(d.transpose()) == expected

    def test_fill_in_over_entry_cap_aborts(self):
        m = circulant(30, (0, 1, 4, 13, 20))
        assert m.nnz == 150
        assert rank(m) == dense_rank(to_dense(m)) == 30
        # the input fits the cap, the elimination's live entries do not
        with pytest.raises(ResourceLimitError):
            rank(m, entry_cap=m.nnz)
        assert rank(m, entry_cap=4 * m.nnz) == 30

    @pytest.mark.parametrize("transposed", [False, True])
    def test_an_input_over_the_cap_aborts_when_every_step_is_a_singleton(self, transposed):
        """Every pivot step on an identity or a permutation matrix, or its
        transpose, retires a one-entry line, which adds no entry; the input
        alone is over the cap, as ``kernel_basis`` finds."""
        cyclic = SparseMatrix(3, 3, {(0, 1): 1, (1, 2): -1, (2, 0): 1})
        for m in (SparseMatrix.identity(3), cyclic):
            if transposed:
                m = m.transpose()
            with pytest.raises(ResourceLimitError):
                rank(m, entry_cap=m.nnz - 1)
            with pytest.raises(ResourceLimitError):
                kernel_basis(m, entry_cap=m.nnz - 1)
            assert rank(m, entry_cap=m.nnz) == 3

    def test_complex_passes_entry_cap_to_rank(self):
        from affsymp.chain_complexes import BlockMemo, ChainComplex

        m = circulant(30, (0, 1, 4, 13, 20))
        tight = BlockMemo(entry_cap=m.nnz)
        complex_ = ChainComplex("test", "circulant", [30, 30], {1: m}, {}, 1, tight)
        with pytest.raises(ResourceLimitError):
            complex_.rank_d(1)
        loose = ChainComplex(
            "test", "circulant", [30, 30], {1: m}, {}, 1, BlockMemo(entry_cap=4 * m.nnz)
        )
        assert loose.rank_d(1) == 30

    def test_kernel_and_solver_fill_in_over_entry_cap_abort(self):
        m = circulant(30, (0, 1, 4, 13, 20))
        with pytest.raises(ResourceLimitError):
            kernel_basis(m, entry_cap=m.nnz)
        b = QVector.from_dense(range(30))
        # [m | b] fits the cap, the live entries of its elimination do not
        with pytest.raises(ResourceLimitError):
            solve(m, b, entry_cap=m.nnz + 29)
        with pytest.raises(ResourceLimitError):
            solve(m, QVector.unit(30, 0), entry_cap=m.nnz)
        assert kernel_basis(m) == []
        assert m.apply(solve(m, b)) == b

    def test_membership_and_reps_hold_to_the_complex_cap(self):
        from affsymp.chain_complexes import Chain, ChainComplex
        from affsymp.homology import class_coordinates, homology_reps, is_boundary

        m = circulant(30, (0, 1, 4, 13, 20))
        d1 = SparseMatrix(31, 30, m.entries)  # one zero row: b_0 = 1
        bases = {0: range(31), 1: range(30)}  # ungraded: only their lengths are read
        complex_ = ChainComplex("test", "circulant", [31, 30], {1: d1}, bases, 1)
        chain = Chain(0, QVector.unit(31, 0))
        assert complex_.rank_d(1) == 30 and is_boundary(complex_, chain)
        reps = homology_reps(complex_, 0)
        assert reps == [Chain(0, QVector.unit(31, 30))]
        # ranks are memoized; every elimination started after this meets the cap
        complex_.blocks.entry_cap = m.nnz
        for call in (
            lambda: is_boundary(complex_, chain),
            lambda: homology_reps(complex_, 0),
            lambda: class_coordinates(complex_, chain, reps),
        ):
            with pytest.raises(ResourceLimitError):
                call()


@st.composite
def text_matrices(draw):
    """Matrices whose ``to_text`` the canonical scan reads: small ints,
    ints beyond 2**64, Fractions, all-zero ones and 0 x n and n x 0
    shapes."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    value = st.one_of(
        st.integers(-3, 3),
        st.integers(2**64, 2**90),
        st.integers(-(2**90), -(2**64)),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
    )
    if not nrows or not ncols:
        return SparseMatrix.zero(nrows, ncols)
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    return SparseMatrix(nrows, ncols, draw(st.dictionaries(cell, value)))


_EDIT_CHARACTERS = "0123456789 -/+\n\t\r"


@st.composite
def edited_texts(draw):
    """The ``to_text`` of a matrix with one character deleted, inserted or
    replaced, or one entry line copied over the next, which keeps the
    header's count and breaks the strict order of the keys."""
    text = draw(text_matrices()).to_text()
    kind = draw(st.sampled_from(["delete", "insert", "replace", "copy line"]))
    lines = text.splitlines(keepends=True)
    if kind == "copy line" and len(lines) > 2:
        at = draw(st.integers(1, len(lines) - 2))
        return "".join(lines[: at + 1] + [lines[at]] + lines[at + 2 :])
    char = draw(st.sampled_from(_EDIT_CHARACTERS))
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + char + text[at:]
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + ("" if kind == "delete" else char) + text[at + 1 :]


def assert_scan_matches_the_line_reader(text):
    """Both readers refuse ``text``, or both give the same entries in the
    same order with the same types, and ``from_text`` keeps the digest."""
    expected = canonical_text_matrix(text)
    got = SparseMatrix._from_canonical_text(text)
    if expected is None:
        assert got is None
        return
    assert got == expected and expected.to_text() == text
    assert list(got.entries) == list(expected.entries)
    assert [type(v) for v in got.entries.values()] == [
        type(v) for v in expected.entries.values()
    ]
    assert SparseMatrix.from_text(text, "given").fingerprint() == "given"


class TestCanonicalScan:
    """The one-``json.loads`` reader of a canonical text against the
    line-by-line reader it replaced (``text_oracle``)."""

    @settings(max_examples=300, deadline=None)
    @given(text_matrices())
    def test_written_texts_read_back_alike(self, m):
        assert SparseMatrix._from_canonical_text(m.to_text()) == m
        assert_scan_matches_the_line_reader(m.to_text())

    @settings(max_examples=1000, deadline=None)
    @given(edited_texts())
    def test_edited_texts_are_refused_or_read_alike(self, text):
        assert_scan_matches_the_line_reader(text)


class TestFractionOracle:
    """Kernels, solves, independent columns and representatives on the
    integer core against the Fraction eliminators they replaced
    (``fraction_oracle``), on non-integral, empty, zero-row and
    duplicate-row matrices."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    def test_kernel_basis_matches_fraction_kernel(self, m):
        vecs = kernel_basis(m)
        assert vecs == fraction_oracle.kernel_basis(m)
        assert all(type(v) is Fraction for vec in vecs for _, v in vec.entries)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_solve_matches_fraction_solver(self, data):
        m = data.draw(oracle_matrices())
        value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
        x = QVector.from_dense(data.draw(st.lists(value, min_size=m.cols, max_size=m.cols)))
        noise = QVector.from_dense(data.draw(st.lists(value, min_size=m.rows, max_size=m.rows)))
        oracle = fraction_oracle.LinearSolver(m)
        for b in (m.apply(x), noise):
            got = solve(m, b)
            assert got == oracle.solve(b)
            assert got is None or m.apply(got) == b
        assert solve(m, m.apply(x)) is not None

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    def test_independent_columns_match_the_greedy_reducer(self, m):
        reducer = {}
        greedy = [
            c for c, col in enumerate(fraction_oracle._columns_of(m))
            if col and fraction_oracle._reduce_into(reducer, col)
        ]
        assert independent_columns(m) == greedy
        assert len(greedy) == rank(m)

    def test_reps_match_the_greedy_reducer(self, g1, sp1, g2, sp2, monkeypatch):
        """Also: the greedy choice eliminates one row per weight-0 cycle,
        not the whole bordered block, the kernel complexes included."""
        from affsymp import homology
        from affsymp.chain_complexes import (
            ce_complex, coeff_complex, cr_complex, leibniz_complex, rel_complex,
        )
        from affsymp.homology import homology_reps
        from affsymp.lie_structures import adjoint_module, trivial_module
        from test_weight_blocks import _complexes, _ideal_wedge

        shapes = []

        def recorded(m, entry_cap=None):
            shapes.append((m.rows, m.cols))
            return independent_columns(m, entry_cap)

        monkeypatch.setattr(homology, "independent_columns", recorded)

        complexes = _complexes(g1, sp1, 5, 3)
        for a in (g2[0], sp2):
            complexes.append(ce_complex(a, 3))
            complexes.append(leibniz_complex(a, 3))
            complexes.append(coeff_complex(a, adjoint_module(a), 3))
            complexes.append(coeff_complex(a, trivial_module(a), 3))
            complexes.append(rel_complex(a, 1))
            complexes.append(cr_complex(a, 2))
        for k in (1, 2):
            complexes.append(coeff_complex(sp2, _ideal_wedge(g2, sp2, k), 3))
        found = 0
        for complex_ in complexes:
            for k in range(complex_.cap):
                shapes.clear()
                reps = homology_reps(complex_, k)
                assert reps == fraction_oracle.block_homology_reps(complex_, k), (
                    complex_.name, k,
                )
                found += len(reps)
                if reps:
                    bounding = complex_.block(k + 1)
                    cycles = bounding.rows - (rank(complex_.block(k)) if k else 0)
                    assert shapes == [(cycles, bounding.cols + cycles)]
        assert found > len(complexes)


@st.composite
def integer_matrices(draw, max_rows=10, max_cols=10):
    """Sparse integer matrices with entries in -2..2, zero rows, and rows
    that duplicate or negate an earlier one, drawn as they are or
    transposed."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    value = st.integers(-2, 2)
    dense_rows: list[dict] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "duplicate", "negated"]))
        if kind == "zero" or ncols == 0:
            dense_rows.append({})
        elif kind in ("duplicate", "negated") and dense_rows:
            source = draw(st.sampled_from(dense_rows))
            sign = -1 if kind == "negated" else 1
            dense_rows.append({c: sign * v for c, v in source.items()})
        else:
            support = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            dense_rows.append({c: draw(value) for c in sorted(support)})
    m = SparseMatrix(
        nrows, ncols, {(r, c): v for r, row in enumerate(dense_rows) for c, v in row.items()}
    )
    return m.transpose() if draw(st.booleans()) else m


def markowitz_reference(m):
    """[(pivot column, pivot row)] of a rational elimination that scans every
    live column and every row at every step.  It takes the lowest column
    with one entry, and that entry's row; when there is none, the lowest
    row with one entry, and that entry's column; and when there is none
    either, the column with the fewest entries (ties to the lowest column),
    and in it the row with the fewest entries (ties to the lowest row)."""
    rows = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = Fraction(v)
    order = []
    while rows:
        counts: dict[int, int] = {}
        for row in rows.values():
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        c = min(counts, key=lambda col: (counts[col], col))
        singles = [r for r, row in rows.items() if len(row) == 1]
        if counts[c] > 1 and singles:
            pivot_row = min(singles)
            [c] = rows[pivot_row]
        else:
            pivot_row = min((r for r in rows if c in rows[r]), key=lambda r: (len(rows[r]), r))
        prow = rows.pop(pivot_row)
        order.append((c, pivot_row))
        for r, row in list(rows.items()):
            a = row.get(c)
            if a is None:
                continue
            f = a / prow[c]
            for cc, v in prow.items():
                nv = row.get(cc, 0) - f * v
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
            if not row:
                del rows[r]
    return order


class TestEliminationLoop:
    """The elimination loop against the loop it replaced
    (``elimination_oracle``), the Fraction and dense ranks, and a
    brute-force pivot rule: one-entry columns, then one-entry rows, then
    Markowitz."""

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_rank_matches_the_old_loop_and_the_oracles(self, m):
        got = rank(m)
        with old_loop():
            assert rank(m) == got
        assert got == fraction_rank(m) == dense_rank(to_dense(m))

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_kernels_and_independent_columns_match_the_old_loop(self, m):
        kernel, independent = kernel_basis(m), independent_columns(m)
        with old_loop():
            assert kernel_basis(m) == kernel
            assert independent_columns(m) == independent

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_solves_match_the_old_loop(self, data):
        m = data.draw(integer_matrices())
        value = st.integers(-3, 3)
        x = QVector.from_dense(data.draw(st.lists(value, min_size=m.cols, max_size=m.cols)))
        noise = QVector.from_dense(data.draw(st.lists(value, min_size=m.rows, max_size=m.rows)))
        for b in (m.apply(x), noise):
            got = solve(m, b)
            with old_loop():
                assert solve(m, b) == got

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices(max_rows=8, max_cols=8))
    def test_every_markowitz_pivot_has_the_fewest_live_entries(self, m):
        pivots = _eliminate(_integer_lines(m, 0, 0)[0])
        assert list(pivots.items()) == markowitz_reference(m)

    @pytest.mark.parametrize("dense, expected", [
        # no column has one entry, row 3 has: it is the pivot, rows 1 and
        # 2 are left with one entry each and go next, lowest first, and row
        # 0 loses column 0 to become the last one-entry row
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 1]], [(2, 3), (0, 1), (1, 0)]),
        # column 1 has one entry, so it goes before the one-entry row 0
        ([[1, 0], [1, 1]], [(1, 1), (0, 0)]),
        # nothing has one entry: the Markowitz column, then what it leaves
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [(0, 0), (1, 1), (2, 2)]),
    ])
    def test_one_entry_columns_then_one_entry_rows_then_markowitz(self, dense, expected):
        m = SparseMatrix.from_dense(dense)
        assert list(_eliminate(_integer_lines(m, 0, 0)[0]).items()) == expected
        assert markowitz_reference(m) == expected

    def test_the_old_loop_lags_the_markowitz_minimum(self):
        """Without a push when the pivot row retires from a column, the old
        heap can hold a column above its true count and pivot elsewhere
        first; the ranks still agree."""
        # column 0 pivots on row 0; row 0 retiring leaves column 2 with one
        # entry, which the old heap still holds at two
        m = SparseMatrix.from_dense([[1, 0, 1, 0, 0], [-1, 2, 2, -1, -1], [0, 1, 0, 1, 1]])
        assert list(_eliminate(_integer_lines(m, 0, 0)[0]).items()) == [(0, 0), (2, 1), (1, 2)]
        assert markowitz_reference(m) == [(0, 0), (2, 1), (1, 2)]
        with old_loop():
            old = exact_linalg._eliminate(_integer_lines(m, 0, 0)[0])
        assert list(old.items()) == [(0, 0), (1, 2), (2, 1)]
        assert len(old) == rank(m) == 3


class TestSolver:
    def test_solve_and_verify(self):
        a = SparseMatrix.from_dense([[1, 2], [3, 4]])
        x = solve(a, QVector.from_dense([5, 11]))
        assert a.apply(x) == QVector.from_dense([5, 11])

    def test_inconsistent(self):
        a = SparseMatrix.from_dense([[1, 1], [1, 1]])
        assert solve(a, QVector.from_dense([1, 2])) is None

    def test_length_mismatch(self):
        a = SparseMatrix.from_dense([[1, 1]])
        with pytest.raises(ShapeError):
            solve(a, QVector.from_dense([1, 2]))

    def test_column_span(self):
        a = SparseMatrix.from_dense([[1, 0], [0, 1], [0, 0]])
        assert solve(a, QVector.from_dense([2, 3, 0])) is not None
        assert solve(a, QVector.from_dense([0, 0, 1])) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_solvable_exactly_when_bordering_keeps_the_rank(self, data):
        """b is in the column span of m exactly when rank [m | b] = rank m;
        b is drawn in the span or at random."""
        m = data.draw(oracle_matrices())
        value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
        if data.draw(st.booleans()):
            x = data.draw(st.lists(value, min_size=m.cols, max_size=m.cols))
            b = m.apply(QVector.from_dense(x))
        else:
            b = QVector.from_dense(data.draw(st.lists(value, min_size=m.rows, max_size=m.rows)))
        bordered_rank = rank(append_columns(m, [b]))
        assert (solve(m, b) is not None) == (bordered_rank == rank(m))


class TestResourceGuard:
    def test_entry_budget(self):
        from affsymp.exact_linalg import check_entry_budget

        check_entry_budget(10, cap=10)
        with pytest.raises(ResourceLimitError):
            check_entry_budget(11, cap=10)


class TestConcurrency:
    def test_parallel_calls_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        from random import Random

        rng = Random(7)
        matrices = []
        for _ in range(12):
            entries = {
                (rng.randrange(6), rng.randrange(8)): Rational(rng.randint(-5, 5))
                for _ in range(rng.randint(0, 30))
            }
            matrices.append(SparseMatrix(6, 8, entries))
        sequential = [(rank(m), len(kernel_basis(m))) for m in matrices]
        with ThreadPoolExecutor(max_workers=4) as pool:
            ranks = list(pool.map(rank, matrices))
            kernels = list(pool.map(lambda m: len(kernel_basis(m)), matrices))
        assert list(zip(ranks, kernels)) == sequential


class TestQVector:
    def test_normalized(self):
        v = QVector.from_dense([0, -2, 4])
        assert v.normalized() == QVector.from_dense([0, 1, -2])

    def test_add_scale_dot(self):
        a = QVector.from_dense([1, 0, 2])
        b = QVector.from_dense([0, 3, -2])
        assert a.add(b) == QVector.from_dense([1, 3, 0])
        assert a.scale(Rational(1, 2)) == QVector.from_dense([Fraction(1, 2), 0, 1])

    def test_entries_sorted_nonzero(self):
        v = QVector.from_dict(5, {3: Rational(1), 1: Rational(0), 0: Rational(2)})
        assert v.entries == ((0, Rational(2)), (3, Rational(1)))


@st.composite
def mixed_entries(draw, max_rows=6, max_cols=6):
    """(rows, cols, entries), the entries drawn as ints, as integral
    Fractions (4/2 among them) and as non-integral Fractions."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    keys = (
        draw(st.sets(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))))
        if nrows and ncols else set()
    )
    value = st.one_of(
        st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    )
    return nrows, ncols, {key: draw(value) for key in sorted(keys)}


class TestNormalForm:
    """Every constructor and operation gives entries in one normal form, an
    int exactly when the denominator is 1, whatever numbers it was given."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_entries())
    def test_every_constructor_and_operation(self, drawn):
        rows, cols, values = drawn
        as_fractions = {key: Fraction(v) for key, v in values.items()}
        as_ints = {
            key: q.numerator if q.denominator == 1 else q for key, q in as_fractions.items()
        }
        m = SparseMatrix(rows, cols, as_fractions)
        columns = [
            QVector.from_dict(rows, {r: v for (r, c), v in as_fractions.items() if c == col})
            for col in range(cols)
        ]
        built = [
            SparseMatrix(rows, cols, as_ints),
            SparseMatrix(rows, cols, values),
            SparseMatrix.from_columns(rows, columns),
            SparseMatrix.from_text(m.to_text()),
            append_columns(SparseMatrix.zero(rows, 0), columns),
            m.transpose().transpose(),
        ]
        if rows:
            dense = [[as_fractions.get((r, c), 0) for c in range(cols)] for r in range(rows)]
            built.append(SparseMatrix.from_dense(dense))
        assert_normal_form(m)
        form = {key: type(v) for key, v in m.entries.items()}
        for other in built:
            assert {key: type(v) for key, v in other.entries.items()} == form
            assert other == m
            assert hash(other) == hash(m)
            assert other.fingerprint() == m.fingerprint()
            assert other.to_text() == m.to_text() == matrix_text(m)
            assert rank(other) == rank(m)
        for derived in (
            SparseMatrix.identity(rows),
            m.transpose(),
            stack_rows([m, built[0]]),
            append_columns(m, columns),
            multiply(m, m.transpose()),
            multiply(m.transpose(), m),
        ):
            assert_normal_form(derived)


class TestNoFloats:
    """Integral inputs never turn into floats: every value that leaves a
    solve, a kernel, a product with a vector or a representative cycle is a
    Fraction."""

    @staticmethod
    def assert_fractions(vectors):
        for vec in vectors:
            assert all(type(v) is Fraction for _, v in vec.entries), vec

    def test_normalized_divides_exactly(self):
        # a vector built around from_dict may hold ints; 1 / 3 would be a float
        v = QVector(2, ((0, 3), (1, 1)))
        assert v.normalized() == QVector.from_dense([1, Fraction(1, 3)])

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices(max_rows=7, max_cols=7), st.data())
    def test_outputs_stay_fractions(self, m, data):
        from affsymp.chain_complexes import ChainComplex
        from affsymp.homology import homology_reps

        ints = st.integers(-3, 3)
        x = QVector.from_dense(data.draw(st.lists(ints, min_size=m.cols, max_size=m.cols)))
        b = QVector.from_dense(data.draw(st.lists(ints, min_size=m.rows, max_size=m.rows)))
        kernel = kernel_basis(m)
        solved = [v for v in (solve(m, m.apply(x)), solve(m, b)) if v is not None]
        self.assert_fractions([*kernel, *solved, m.apply(x)])
        # d_2: half the kernel vectors, cleared of denominators, so d_1 d_2 = 0
        # and H_1 is not 0 when the kernel has two vectors or more
        d2 = SparseMatrix.from_columns(m.cols, [
            vec.scale(lcm(*(v.denominator for _, v in vec.entries))) for vec in kernel[::2]
        ])
        assert all(type(v) is int for v in d2.entries.values())
        complex_ = ChainComplex(
            "test", "integral", [m.rows, m.cols, d2.cols], {1: m, 2: d2},
            {0: range(m.rows), 1: range(m.cols), 2: range(d2.cols)}, 2,
        )
        for k in (0, 1):
            self.assert_fractions([rep.vector for rep in homology_reps(complex_, k)])


def scaled(m, s):
    return SparseMatrix(m.rows, m.cols, {key: v * s for key, v in m.entries.items()})


def products_sum(terms):
    """The oracle: sum c * multiply(a, b), as {(row, col): nonzero value}."""
    total = {}
    for c, a, b in terms:
        for key, v in multiply(a, b).entries.items():
            total[key] = total.get(key, 0) + Fraction(c) * v
    return {key: v for key, v in total.items() if v}


ENTRIES = {
    "small": st.integers(-3, 3),
    "big": st.integers(-(2**80), 2**80),
    "fraction": st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
}
COEFFICIENTS = st.sampled_from([1, -1, 2, -2, Fraction(1, 2)])


@st.composite
def kind_matrices(draw, rows, cols):
    """rows x cols with small, big or Fraction entries on a random support,
    which may be empty."""
    value = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    support = draw(st.sets(st.sampled_from(cells), max_size=len(cells))) if cells else set()
    return SparseMatrix(rows, cols, {key: draw(value) for key in support})


@st.composite
def product_terms(draw):
    """Terms (c, a, b) of one shape, either free or built so that their sum
    vanishes: each term again with a factor moved from c into a, or a
    product (a m) b next to a (m b)."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        inner = draw(st.integers(0, 4))
        terms.append((
            draw(COEFFICIENTS),
            draw(kind_matrices(rows, inner)),
            draw(kind_matrices(inner, cols)),
        ))
    built = draw(st.sampled_from(["free", "negated", "associated"]))
    if built == "negated":
        factor = draw(st.sampled_from([2, -1, Fraction(1, 2)]))
        terms += [(-Fraction(c) / factor, scaled(a, factor), b) for c, a, b in terms]
    elif built == "associated":
        c, a, b = terms[0]
        middle = draw(kind_matrices(a.cols, draw(st.integers(0, 4))))
        right = draw(kind_matrices(middle.cols, cols))
        terms = [(c, multiply(a, middle), right), (-c, a, multiply(middle, right))]
    return built, terms


class TestProductsCancel:
    """``products_cancel`` against the sum of ``multiply`` products."""

    @settings(max_examples=300, deadline=None)
    @given(product_terms())
    def test_matches_the_multiply_sum(self, built_terms):
        built, terms = built_terms
        expected = not products_sum(terms)
        assert products_cancel(terms) == expected
        if built != "free":
            assert expected

    @settings(max_examples=100, deadline=None)
    @given(product_terms(), st.integers(0, 3), st.integers(0, 3))
    def test_one_changed_entry_is_seen(self, built_terms, r, c):
        """A vanishing sum plus e_r e_c^T: nonzero whenever it fits."""
        _, terms = built_terms
        rows, cols = terms[0][1].rows, terms[0][2].cols
        if built_terms[0] == "free" or not (r < rows and c < cols):
            return
        bump = (1, SparseMatrix(rows, 1, {(r, 0): 1}), SparseMatrix(1, cols, {(0, c): 1}))
        assert not products_cancel(terms + [bump])

    def test_no_terms_and_empty_shapes(self):
        assert products_cancel([])
        assert products_cancel([(1, SparseMatrix.zero(0, 3), SparseMatrix.zero(3, 2))])
        assert products_cancel([(1, SparseMatrix.zero(2, 0), SparseMatrix.zero(0, 2))])
        assert products_cancel([(0, SparseMatrix.identity(2), SparseMatrix.identity(2))])

    def test_slots_one_bit_narrower_would_carry_into_a_zero(self):
        """The true column (-2^s, 1) meets its bound, 2^s, so the slots are
        s + 1 bits wide.  In slots of s bits it would carry into a zero:
        -2^s + 1 * 2^s.  The kernel must still see it."""
        s = 40
        assert -(2**s) + (1 << s) == 0
        a = SparseMatrix(2, 1, {(0, 0): -(2**s), (1, 0): 1})
        b = SparseMatrix.identity(1)
        assert not products_cancel([(1, a, b)])
        # the same column as the sum of two terms of half the size, and its
        # exact cancellation
        half = SparseMatrix(2, 1, {(0, 0): -(2 ** (s - 1)), (1, 0): 1})
        other = SparseMatrix(2, 1, {(1, 0): -1})
        assert not products_cancel([(2, half, b), (1, other, b)])
        assert products_cancel([(2, half, b), (1, other, b), (-1, a, b)])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            products_cancel([(1, SparseMatrix.zero(2, 3), SparseMatrix.zero(2, 3))])
        with pytest.raises(ShapeError):
            products_cancel([
                (1, SparseMatrix.zero(2, 3), SparseMatrix.zero(3, 2)),
                (1, SparseMatrix.zero(3, 3), SparseMatrix.zero(3, 2)),
            ])
        with pytest.raises(ShapeError):
            products_cancel([
                (1, SparseMatrix.zero(2, 3), SparseMatrix.zero(3, 2)),
                (1, SparseMatrix.zero(2, 3), SparseMatrix.zero(3, 4)),
            ])


def test_a_cached_block_that_breaks_dd_fails_the_build(tmp_path, capsys):
    """A diff/ record of a ranked block (on orbit sums) rewritten with one
    entry changed, under the valid digest of its new payload, reads back as
    a hit; the d o d check of the build must then fail, and the CLI exit 1
    without printing a Betti number."""
    from affsymp.cache import DiffCache
    from affsymp.cli import main
    from affsymp.errors import ConsistencyError
    from affsymp.theorems import VerificationContext

    argv = [
        "homology", "--family", "g", "--n", "1", "--theory", "leibniz",
        "--max-degree", "3", "--format", "json", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out
    good = VerificationContext().complex("leibniz", "g", 1, 4)
    d3, d4 = good._ranked.block(3), good._ranked.block(4)
    cache = DiffCache(tmp_path)
    (key,) = [
        path.stem for path in (tmp_path / "diff").glob("*.mtx")
        if cache.get_matrix("diff", path.stem) == d4
    ]
    # bump an entry in a row whose column of d_3 is not zero
    row, col = next(key_ for key_ in sorted(d4.entries) if d3.column(key_[0]))
    tampered = dict(d4.entries)
    tampered[(row, col)] += 1
    tampered = SparseMatrix(d4.rows, d4.cols, tampered)
    assert multiply(d3, tampered).nnz
    cache.put_matrix("diff", key, tampered)
    assert cache.get_matrix("diff", key) == tampered

    with pytest.raises(ConsistencyError, match="d_3 o d_4"):
        VerificationContext(cache=DiffCache(tmp_path)).complex("leibniz", "g", 1, 4)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d_3 o d_4" in captured.err
