import pytest
from hypothesis import given, settings, strategies as st

from affsymp.errors import DomainError
from affsymp.exact_linalg import Rational
from affsymp.vector_fields import (
    Monomial,
    Polynomial,
    PolyVectorField,
    bracket,
    hamiltonian_field,
    parse_field,
    poisson,
)


def var(i):
    return Polynomial.var(i)


class TestHamiltonianField:
    def test_linear_x1(self):
        assert hamiltonian_field(var(0), 1) == PolyVectorField.unit(1)

    def test_constant(self):
        assert hamiltonian_field(Polynomial.constant(7), 1).is_zero

    def test_x1_y1_gives_diagonal_field(self):
        # y1 d/dy1 - x1 d/dx1, the diagonal quadratic-family element
        field = hamiltonian_field(var(0).mul(var(1)), 1)
        expected = PolyVectorField({1: var(1), 0: var(0).neg()})
        assert field == expected

    def test_out_of_range_coordinate(self):
        with pytest.raises(DomainError):
            hamiltonian_field(var(2), 1)  # coordinate 2 needs n >= 2
        with pytest.raises(DomainError):
            hamiltonian_field(var(0), 0)

    def test_linear_h_constant_field(self):
        for i in range(4):
            f = hamiltonian_field(var(i), 2)
            assert all(p.degree() == 0 for p in f.components.values())

    def test_degree_drop(self):
        h = var(0).mul(var(0)).mul(var(1))  # degree 3
        f = hamiltonian_field(h, 1)
        assert max(p.degree() for p in f.components.values()) == 2


def small_polynomials(n, max_degree=3, max_terms=3):
    coords = st.integers(0, 2 * n - 1)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    @st.composite
    def build(draw):
        poly = Polynomial.zero()
        for _ in range(draw(st.integers(0, max_terms))):
            exps = {}
            for _ in range(draw(st.integers(0, max_degree))):
                i = draw(coords)
                exps[i] = exps.get(i, 0) + 1
            c = draw(coeffs)
            if c == 0:
                continue
            poly = poly.add(
                Polynomial({Monomial.from_dict(exps): Rational(c.numerator, c.denominator)})
            )
        return poly

    return build()


def small_fields(n):
    @st.composite
    def build(draw):
        comps = {}
        for d in range(2 * n):
            if draw(st.booleans()):
                comps[d] = draw(small_polynomials(n))
        return PolyVectorField(comps)

    return build()


class TestBracket:
    def test_constant_fields_commute(self):
        dx, dy = PolyVectorField.unit(0), PolyVectorField.unit(1)
        assert bracket(dx, dy).is_zero

    def test_constant_against_linear(self):
        dx = PolyVectorField.unit(0)
        x_dy = PolyVectorField({1: var(0)})
        assert bracket(dx, x_dy) == PolyVectorField.unit(1)

    def test_opposite_linear_fields(self):
        x_dy = PolyVectorField({1: var(0)})
        y_dx = PolyVectorField({0: var(1)})
        diagonal = PolyVectorField({1: var(1), 0: var(0).neg()})
        assert bracket(x_dy, y_dx) == diagonal.neg()

    @settings(max_examples=40, deadline=None)
    @given(small_fields(1), small_fields(1))
    def test_antisymmetry(self, x, y):
        assert bracket(x, y) == bracket(y, x).neg()

    @settings(max_examples=25, deadline=None)
    @given(small_fields(1), small_fields(1), small_fields(1))
    def test_jacobi(self, x, y, z):
        total = (
            bracket(bracket(x, y), z)
            .add(bracket(bracket(y, z), x))
            .add(bracket(bracket(z, x), y))
        )
        assert total.is_zero


class TestPoisson:
    def test_out_of_range_coordinate(self):
        x2, y2 = var(1), var(3)
        assert poisson(x2, y2, 2) == Polynomial.constant(1)
        with pytest.raises(DomainError):
            poisson(x2, y2, 1)  # coordinate 3 needs n >= 2
        with pytest.raises(DomainError):
            poisson(var(0), var(1), 0)

    @settings(max_examples=30, deadline=None)
    @given(small_polynomials(2, max_degree=2), small_polynomials(2, max_degree=2))
    def test_field_of_poisson_bracket(self, h, k):
        n = 2
        lhs = bracket(hamiltonian_field(h, n), hamiltonian_field(k, n))
        rhs = hamiltonian_field(poisson(h, k, n), n)
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(
        small_polynomials(1), small_polynomials(1),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
    )
    def test_linearity(self, h, k, c):
        n = 1
        q = Rational(c.numerator, c.denominator)
        combined = hamiltonian_field(h.scale(q).add(k), n)
        split = hamiltonian_field(h, n).scale(q).add(hamiltonian_field(k, n))
        assert combined == split


class TestRenderParse:
    def test_known_rendering(self):
        field = PolyVectorField({1: var(1), 0: var(0).neg()})
        assert field.render(1) == "-x1*d/dx1 + y1*d/dy1"

    def test_round_trip_simple(self):
        text = "y1*d/dy1 - x1*d/dx1"
        field = parse_field(text, 1)
        assert parse_field(field.render(1), 1) == field

    def test_round_trip_parenthesized(self):
        text = "(x1 + 2*y2)*d/dx2 - 3/2*x1^2*d/dy1"
        field = parse_field(text, 2)
        assert parse_field(field.render(2), 2) == field

    def test_zero(self):
        assert parse_field("0", 1).is_zero
        assert PolyVectorField.zero().render(1) == "0"

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_field("x1*x2", 2)  # no direction
        with pytest.raises(DomainError):
            parse_field("d/dx1*d/dy1", 1)  # two directions
        with pytest.raises(DomainError):
            parse_field("x9*d/dx1", 2)  # coordinate out of range
        with pytest.raises(DomainError):
            parse_field("x1^3/2*d/dy1", 1)  # fractional exponent

    @settings(max_examples=40, deadline=None)
    @given(small_fields(2))
    def test_round_trip_random(self, field):
        assert parse_field(field.render(2), 2) == field


class TestPolynomialBasics:
    def test_mul_degree(self):
        p = var(0).add(Polynomial.constant(1))
        q = p.mul(p)
        assert q.degree() == 2
        assert q.coefficient(Monomial.var(0, 2)) == 1
        assert q.coefficient(Monomial.var(0)) == 2
        assert q.coefficient(Monomial()) == 1

    def test_diff(self):
        p = Polynomial({Monomial.var(0, 3): Rational(2)})
        assert p.diff(0) == Polynomial({Monomial.var(0, 2): Rational(6)})
        assert p.diff(1).is_zero

    def test_canonicalization_drops_zeros(self):
        p = var(0).sub(var(0))
        assert p.is_zero and p.terms == {}
