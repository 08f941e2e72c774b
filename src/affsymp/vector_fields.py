"""Polynomial vector fields on R^(2n) with rational coefficients.

Coordinates are indexed 0..2n-1: index i < n is x_{i+1}, index n+i is
y_{i+1}.  A field is a finite sum of components ``p(x, y) * d/dx^i`` or
``p(x, y) * d/dy^i``; the two operations that matter downstream are the
Hamiltonian field of a polynomial and the commutator bracket of fields.

All values are immutable; operations are pure and reentrant.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .errors import DomainError
from .exact_linalg import QONE, QZERO, Rational, rational_from_string


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


class PolyVectorField:
    """Derivation sum p_i(x, y) d/dx^i + q_i(x, y) d/dy^i."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, Polynomial] | None = None):
        clean = {}
        for d, p in (components or {}).items():
            if d < 0:
                raise DomainError("direction index must be >= 0")
            if not p.is_zero:
                clean[d] = p
        self.components = clean

    @classmethod
    def zero(cls) -> "PolyVectorField":
        return cls()

    @classmethod
    def unit(cls, direction: int) -> "PolyVectorField":
        return cls({direction: Polynomial.constant(1)})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, direction: int) -> Polynomial:
        return self.components.get(direction, Polynomial.zero())

    def max_coord(self) -> int:
        dirs = max(self.components, default=-1)
        coeffs = max((p.max_coord() for p in self.components.values()), default=-1)
        return max(dirs, coeffs)

    def add(self, other: "PolyVectorField") -> "PolyVectorField":
        acc = dict(self.components)
        for d, p in other.components.items():
            acc[d] = acc.get(d, Polynomial.zero()).add(p)
        return PolyVectorField(acc)

    def neg(self) -> "PolyVectorField":
        return PolyVectorField({d: p.neg() for d, p in self.components.items()})

    def sub(self, other: "PolyVectorField") -> "PolyVectorField":
        return self.add(other.neg())

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField({d: p.scale(c) for d, p in self.components.items()})

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Action as a derivation: X(f) = sum_i X_i * df/d(coord i)."""
        out = Polynomial.zero()
        for d, p in self.components.items():
            out = out.add(p.mul(f.diff(d)))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.components == other.components

    def render(self, n: int) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for d in sorted(self.components):
            p = self.components[d]
            dname = direction_name(d, n)
            if p == Polynomial.constant(1):
                body = dname
            elif p == Polynomial.constant(-1):
                body = "-" + dname
            elif len(p.terms) == 1:
                body = f"{p.render(n)}*{dname}"
            else:
                body = f"({p.render(n)})*{dname}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self) -> str:
        return f"PolyVectorField({self.components!r})"


def bracket(xf: PolyVectorField, yf: PolyVectorField) -> PolyVectorField:
    """Commutator of derivations: [X, Y]_d = X(Y_d) - Y(X_d)."""
    acc: dict[int, Polynomial] = {}
    for d in set(xf.components) | set(yf.components):
        comp = xf.apply_to(yf.component(d)).sub(yf.apply_to(xf.component(d)))
        if not comp.is_zero:
            acc[d] = comp
    return PolyVectorField(acc)


def _check_domain(max_coord: int, n: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1")
    if max_coord >= 2 * n:
        raise DomainError(f"polynomial uses coordinate {max_coord}, out of range for R^{2 * n}")


def hamiltonian_field(h: Polynomial, n: int) -> PolyVectorField:
    """Field with components +dh/dx_i on d/dy^i and -dh/dy_i on d/dx^i.

    Linear h give constant fields, quadratic h give the linear fields that
    close under bracket into the symplectic algebra.
    """
    _check_domain(h.max_coord(), n)
    comps: dict[int, Polynomial] = {}
    for i in range(n):
        dy = h.diff(i)          # d/dx_i lands on the y^i direction
        if not dy.is_zero:
            comps[n + i] = dy
        dx = h.diff(n + i)      # d/dy_i lands on the x^i direction, negated
        if not dx.is_zero:
            comps[i] = dx.neg()
    return PolyVectorField(comps)


def poisson(h: Polynomial, k: Polynomial, n: int) -> Polynomial:
    """Poisson bracket {h, k} = sum dh/dx_i dk/dy_i - dh/dy_i dk/dx_i,
    normalized so that [X_h, X_k] = X_{h, k}.  Raises ``DomainError``
    unless n >= 1 and h and k use only coordinates below 2n."""
    _check_domain(max(h.max_coord(), k.max_coord()), n)
    out = Polynomial.zero()
    for i in range(n):
        out = out.add(h.diff(i).mul(k.diff(n + i)))
        out = out.sub(h.diff(n + i).mul(k.diff(i)))
    return out


# ---------------------------------------------------------------------------
# text grammar: sums of "coef*mono*d/dxI" pieces, e.g. "y1*d/dy1 - x1*d/dx1"
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<dvar>d/d[xy]\d+)|(?P<var>[xy]\d+)|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise DomainError(f"cannot tokenize field text at: {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := term (("+"|"-") term)*;
    term := signed factor ("*" factor)* with at most one d/d factor;
    factor := rational | var ("^" int)? | "(" expr ")"."""

    def __init__(self, tokens: list[str], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise DomainError("unexpected end of field text")
        self.pos += 1
        return tok

    def coord_index(self, name: str) -> int:
        letter, num = name[0], int(name[1:])
        if not 1 <= num <= self.n:
            raise DomainError(f"coordinate {name} out of range for n={self.n}")
        return num - 1 if letter == "x" else self.n + num - 1

    def parse_expr(self) -> PolyVectorField:
        total = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.parse_term()
            total = total.add(nxt if op == "+" else nxt.neg())
        return total

    def parse_term(self) -> PolyVectorField:
        sign = QONE
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        poly = Polynomial.constant(sign)
        direction: int | None = None
        sub: PolyVectorField | None = None
        while True:
            factor = self.parse_factor()
            if isinstance(factor, int):
                if direction is not None:
                    raise DomainError("two derivation symbols in one product")
                direction = factor
            elif isinstance(factor, PolyVectorField):
                if sub is not None or direction is not None:
                    raise DomainError("nested field products are not supported")
                sub = factor
            else:
                poly = poly.mul(factor)
            if self.peek() == "*":
                self.take()
                continue
            break
        if sub is not None:
            if set(poly.terms) - {Monomial()}:
                raise DomainError("only scalar prefixes may multiply a (field)")
            return sub.scale(poly.coefficient(Monomial()))
        if direction is None:
            raise DomainError("product term without a d/d direction")
        return PolyVectorField({direction: poly})

    def parse_factor(self):
        tok = self.take()
        if tok == "(":
            depth = 1
            # decide whether the parenthesized block is a scalar or a field
            has_dvar = False
            i = self.pos
            while i < len(self.tokens) and depth:
                t = self.tokens[i]
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                elif t.startswith("d/d"):
                    has_dvar = True
                i += 1
            if has_dvar:
                field = self.parse_expr()
                if self.take() != ")":
                    raise DomainError("unbalanced parenthesis in field text")
                return field
            poly = self.parse_poly_expr()
            if self.take() != ")":
                raise DomainError("unbalanced parenthesis in field text")
            return poly
        if tok.startswith("d/d"):
            return self.coord_index(tok[3:])
        if tok[0] in "xy":
            index = self.coord_index(tok)
            power = 1
            if self.peek() == "^":
                self.take()
                exponent = self.take()
                if not exponent.isdigit():
                    raise DomainError(f"bad exponent {exponent!r} in field text")
                power = int(exponent)
            return Polynomial.var(index, power)
        if tok[0].isdigit():
            return Polynomial.constant(rational_from_string(tok))
        raise DomainError(f"unexpected token {tok!r} in field text")

    def parse_poly_expr(self) -> Polynomial:
        total = self.parse_poly_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.parse_poly_term()
            total = total.add(nxt if op == "+" else nxt.neg())
        return total

    def parse_poly_term(self) -> Polynomial:
        sign = QONE
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        poly = Polynomial.constant(sign)
        while True:
            factor = self.parse_factor()
            if not isinstance(factor, Polynomial):
                raise DomainError("derivation symbol inside a coefficient")
            poly = poly.mul(factor)
            if self.peek() == "*":
                self.take()
                continue
            break
        return poly


def parse_field(text: str, n: int) -> PolyVectorField:
    """Parse the rendering grammar back into a field."""
    if text.strip() == "0":
        return PolyVectorField.zero()
    parser = _Parser(_tokenize(text), n)
    field = parser.parse_expr()
    if parser.peek() is not None:
        raise DomainError(f"trailing tokens in field text: {parser.tokens[parser.pos:]}")
    return field
