"""The vector-field derivation that ``affsymp.lie_structures`` built
``sp_n`` and ``g_n`` from before it read their structure constants off the
Poisson brackets of the basis Hamiltonians, kept as a test oracle: the
polynomial vector fields and their commutator bracket, the Hamiltonian
field of a polynomial, the basis fields written out, and their
push-forward by a signed permutation of the coordinates.  Also the Poisson
bracket as ``affsymp.vector_fields.poisson`` computed it before it worked
term by term on exponent maps: a chain of ``Polynomial`` derivatives,
products and sums."""

from collections.abc import Mapping

from affsymp.errors import DomainError
from affsymp.vector_fields import Monomial, Polynomial, _check_domain, direction_name


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


def polynomial_poisson(h: Polynomial, k: Polynomial, n: int) -> Polynomial:
    """{h, k} = sum dh/dx_i dk/dy_i - dh/dy_i dk/dx_i, one ``Polynomial``
    operation at a time.  Raises ``DomainError`` unless n >= 1 and h and k
    use only coordinates below 2n."""
    _check_domain(max(h.max_coord(), k.max_coord()), n)
    out = Polynomial.zero()
    for i in range(n):
        out = out.add(h.diff(i).mul(k.diff(n + i)))
        out = out.sub(h.diff(n + i).mul(k.diff(i)))
    return out


def bracket(xf: PolyVectorField, yf: PolyVectorField) -> PolyVectorField:
    """Commutator of derivations: [X, Y]_d = X(Y_d) - Y(X_d)."""
    acc: dict[int, Polynomial] = {}
    for d in set(xf.components) | set(yf.components):
        comp = xf.apply_to(yf.component(d)).sub(yf.apply_to(xf.component(d)))
        if not comp.is_zero:
            acc[d] = comp
    return PolyVectorField(acc)


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


def sp_fields(n):
    """Quadratic-Hamiltonian basis, ordered by family:
    (1) x_k d/dy^k, (2) y_k d/dx^k, (3) x_i d/dy^j + x_j d/dy^i (i<j),
    (4) y_i d/dx^j + y_j d/dx^i (i<j), (5) y_j d/dy^i - x_i d/dx^j (all i,j).
    """
    fields = []
    for k in range(n):                               # (1)
        fields.append(PolyVectorField({n + k: Polynomial.var(k)}))
    for k in range(n):                               # (2)
        fields.append(PolyVectorField({k: Polynomial.var(n + k)}))
    for i in range(n):                               # (3)
        for j in range(i + 1, n):
            fields.append(
                PolyVectorField({n + j: Polynomial.var(i), n + i: Polynomial.var(j)})
            )
    for i in range(n):                               # (4)
        for j in range(i + 1, n):
            fields.append(
                PolyVectorField({j: Polynomial.var(n + i), i: Polynomial.var(n + j)})
            )
    for i in range(n):                               # (5)
        for j in range(n):
            fields.append(
                PolyVectorField({n + i: Polynomial.var(n + j), j: Polynomial.var(i).neg()})
            )
    return fields


def ideal_fields(n):
    """Constant fields d/dx^1..d/dx^n, d/dy^1..d/dy^n."""
    return [PolyVectorField.unit(d) for d in range(2 * n)]


def pushed(f, coords):
    """The push-forward A X(A^-1 p) of a field by A e_j = s_j e_(sigma j):
    a coefficient monomial prod z_j^e_j becomes prod (s_j z_(sigma j))^e_j,
    and the direction j becomes s_j e_(sigma j)."""
    components = {}
    for d, poly in f.components.items():
        target, sign = coords[d]
        terms = {}
        for mono, c in poly.terms.items():
            odd = sign < 0
            for j, e in mono.exps:
                odd ^= coords[j][1] < 0 and e % 2 == 1
            terms[Monomial.from_dict({coords[j][0]: e for j, e in mono.exps})] = -c if odd else c
        components[target] = Polynomial(terms)
    return PolyVectorField(components)


def field_key(f):
    return tuple(sorted(
        (d, tuple(sorted((m.exps, c) for m, c in p.terms.items())))
        for d, p in f.components.items()
    ))


def field_letters(fields, coords):
    """The signed permutation of the letters by which the push-forward of
    ``coords`` sends each basis field to plus or minus a basis field; None
    in the slot of a field it sends elsewhere."""
    letter = {}
    for a, f in enumerate(fields):
        letter[field_key(f)] = (a, 1)
        letter[field_key(f.neg())] = (a, -1)
    return tuple(letter.get(field_key(pushed(f, coords))) for f in fields)
