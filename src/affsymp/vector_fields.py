"""Polynomials on R^(2n) with rational coefficients, their Poisson
bracket, and the labels of their Hamiltonian fields.

Coordinates are indexed 0..2n-1: index i < n is x_{i+1}, index n+i is
y_{i+1}.  The algebras are spanned by the Hamiltonian fields X_h, and
[X_h, X_k] = X_{h,k}, so they are built from the basis Hamiltonians h and
the Poisson bracket {h, k} alone; a field is only ever written out, as the
label ``field_label`` renders from the partials of h.

All values are immutable; operations are pure and reentrant.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import DomainError
from .exact_linalg import QONE, QZERO, Rational


def coord_name(index: int, n: int) -> str:
    if not 0 <= index < 2 * n:
        raise DomainError(f"coordinate {index} out of range for R^{2 * n}")
    return f"x{index + 1}" if index < n else f"y{index - n + 1}"


def direction_name(index: int, n: int) -> str:
    return "d/d" + coord_name(index, n)


class Monomial:
    """Exponent vector, stored as sorted (coordinate, exponent>0) pairs.  An
    immutable value: equal to a ``Monomial`` of the same exponents, and
    hashable."""

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[tuple[int, int], ...] = ()):
        self.exps = exps

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.exps,))

    def __repr__(self) -> str:
        return f"Monomial(exps={self.exps!r})"

    @classmethod
    def from_dict(cls, exps: Mapping[int, int]) -> "Monomial":
        for i, e in exps.items():
            if i < 0 or e < 0:
                raise DomainError("coordinate indices and exponents must be >= 0")
        return cls(tuple(sorted((i, e) for i, e in exps.items() if e > 0)))

    @classmethod
    def var(cls, index: int, power: int = 1) -> "Monomial":
        return cls.from_dict({index: power})

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def max_coord(self) -> int:
        """Largest coordinate index used, -1 for the constant monomial."""
        return self.exps[-1][0] if self.exps else -1

    def mul(self, other: "Monomial") -> "Monomial":
        acc = dict(self.exps)
        for i, e in other.exps:
            acc[i] = acc.get(i, 0) + e
        return Monomial.from_dict(acc)

    def diff(self, index: int) -> tuple[int, "Monomial"] | None:
        """d/d(coord index): (multiplier, lowered monomial), None if absent."""
        acc = dict(self.exps)
        e = acc.get(index)
        if not e:
            return None
        if e == 1:
            del acc[index]
        else:
            acc[index] = e - 1
        return e, Monomial.from_dict(acc)

    def render(self, n: int) -> str:
        if not self.exps:
            return "1"
        parts = []
        for i, e in self.exps:
            name = coord_name(i, n)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


class Polynomial:
    """Polynomial over Q: map from Monomial to nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean = {}
        for m, c in (terms or {}).items():
            q = Rational(c)
            if q != 0:
                clean[m] = q
        self.terms = clean

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({Monomial(): Rational(c)})

    @classmethod
    def var(cls, index: int, power: int = 1) -> "Polynomial":
        return cls({Monomial.var(index, power): QONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def max_coord(self) -> int:
        return max((m.max_coord() for m in self.terms), default=-1)

    def coefficient(self, mono: Monomial) -> Rational:
        return self.terms.get(mono, QZERO)

    def add(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            nv = acc.get(m, QZERO) + c
            if nv:
                acc[m] = nv
            else:
                del acc[m]
        return Polynomial(acc)

    def neg(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def scale(self, c) -> "Polynomial":
        q = Rational(c)
        if q == 0:
            return Polynomial()
        return Polynomial({m: v * q for m, v in self.terms.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        acc: dict[Monomial, Rational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                nv = acc.get(m, QZERO) + c1 * c2
                if nv:
                    acc[m] = nv
                else:
                    del acc[m]
        return Polynomial(acc)

    def diff(self, index: int) -> "Polynomial":
        acc: dict[Monomial, Rational] = {}
        for m, c in self.terms.items():
            d = m.diff(index)
            if d is None:
                continue
            mult, lowered = d
            nv = acc.get(lowered, QZERO) + c * mult
            if nv:
                acc[lowered] = nv
            else:
                del acc[lowered]
        return Polynomial(acc)

    def _sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        return sorted(self.terms.items(), key=lambda t: (-t[0].degree, t[0].exps))

    def render(self, n: int) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            if m.exps == ():
                body = rational_to_short(c)
            elif c == 1:
                body = m.render(n)
            elif c == -1:
                body = "-" + m.render(n)
            else:
                body = f"{rational_to_short(c)}*{m.render(n)}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0].exps)))

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"


def rational_to_short(q: Rational) -> str:
    return str(int(q)) if q.denominator == 1 else f"{int(q.numerator)}/{int(q.denominator)}"


def _check_domain(max_coord: int, n: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1")
    if max_coord >= 2 * n:
        raise DomainError(f"polynomial uses coordinate {max_coord}, out of range for R^{2 * n}")


def poisson(h: Polynomial, k: Polynomial, n: int) -> Polynomial:
    """Poisson bracket {h, k} = sum dh/dx_i dk/dy_i - dh/dy_i dk/dx_i,
    normalized so that [X_h, X_k] = X_{h, k}.  Raises ``DomainError``
    unless n >= 1 and h and k use only coordinates below 2n.

    Computed term by term on exponent maps: for terms c z^a of h and d z^b
    of k, both products of index i give the monomial z^(a + b) / (x_i y_i),
    with coefficient c d (a_(x_i) b_(y_i) - a_(y_i) b_(x_i)), so no
    intermediate polynomial is formed."""
    _check_domain(max(h.max_coord(), k.max_coord()), n)
    acc: dict[tuple[tuple[int, int], ...], Rational] = {}
    for m1, c1 in h.terms.items():
        a = dict(m1.exps)
        indices = sorted({c % n for c in a})
        for m2, c2 in k.terms.items():
            b = dict(m2.exps)
            for i in indices:
                w = a.get(i, 0) * b.get(n + i, 0) - a.get(n + i, 0) * b.get(i, 0)
                if w:
                    exps = dict(a)
                    for c, e in m2.exps:
                        exps[c] = exps.get(c, 0) + e
                    for c in (i, n + i):
                        exps[c] -= 1
                    key = tuple(sorted(t for t in exps.items() if t[1]))
                    acc[key] = acc.get(key, 0) + c1 * c2 * w
    return Polynomial({Monomial(key): c for key, c in acc.items()})


def field_label(h: Polynomial, n: int) -> str:
    """The rendering of X_h for a multiple h of one non-constant monomial:
    -dh/dy_i on d/dx^i, then dh/dx_i on d/dy^i, e.g. ``-x1*d/dx1 +
    y1*d/dy1`` for h = x1 y1.  Raises ``DomainError`` unless n >= 1 and h
    uses only coordinates below 2n."""
    _check_domain(h.max_coord(), n)
    parts = []
    for d in range(2 * n):
        coeff = (h.diff(n + d).neg() if d < n else h.diff(d - n)).render(n)
        name = direction_name(d, n)
        if coeff == "1":
            parts.append(name)
        elif coeff == "-1":
            parts.append("-" + name)
        elif coeff != "0":
            parts.append(f"{coeff}*{name}")
    # each part is one term, so " + -" only ever joins two of them
    return " + ".join(parts).replace(" + -", " - ")
