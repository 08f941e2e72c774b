"""The vector-field derivation that ``affsymp.lie_structures`` built
``sp_n`` and ``g_n`` from before it read their structure constants off the
Poisson brackets of the basis Hamiltonians, kept as a test oracle: the
basis fields written out, and their push-forward by a signed permutation
of the coordinates."""

from affsymp.vector_fields import Monomial, Polynomial, PolyVectorField


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
