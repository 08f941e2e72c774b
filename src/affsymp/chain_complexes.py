"""The five chain complexes over a finite-dimensional Lie algebra g.

* ``ce_complex``      : exterior powers Lambda^*(g), differential
  d(g_1^...^g_n) = sum_{i<j} (-1)^j (g_1^...^[g_i,g_j]^...^ghat_j^...^g_n);
* ``coeff_complex``   : M (x) Lambda^*(g) for a right module M, with the
  extra action terms sum_i (-1)^i ([m, g_i] (x) ...);
* ``leibniz_complex`` : tensor powers with the same bracket rule and no
  antisymmetrization;
* ``rel_complex``     : kernels of the tensor-to-wedge projections, degree
  shifted by 2, with the restricted tensor differential;
* ``cr_complex``      : kernels of the mixed projections g (x) Lambda^k ->
  Lambda^(k+1), degree shifted by 1, with the restricted coefficient
  differential.

Degree caps are explicit; d o d = 0 is verified for every adjacent pair at
build time.  A finished complex is immutable and shareable across threads;
ranks of differentials are memoized per complex and optionally persisted in
a ``DiffCache``.

The two kernel complexes (``KernelComplex``) hold the ambient differentials
d_m and the projections pi_m rather than kernel bases.  Their ranks come
from stacked matrices, as rank([d_m; pi_m]) minus rank pi_m (the rank of d_m
restricted to ker pi_m), and their dimensions are cols(pi_m) minus
rank pi_m.  The build-time checks are ambient d o d = 0 and the chain-map
identity pi_(m-1) d_m = e_m pi_m with e the exterior differential, which
together make the restriction a complex.  Kernel bases and restricted
differentials are built only when ``basis`` or ``d`` asks for them
(cycles, membership tests).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import comb

from .cache import DiffCache, descriptor_key
from .errors import ConsistencyError, DegreeRangeError, DomainError
from .exact_linalg import (
    QVector,
    QZERO,
    Rational,
    SparseMatrix,
    check_entry_budget,
    kernel_basis,
    multiply,
    rank,
    stack_rows,
)
from .lie_structures import LieAlgebra, LieModule, adjoint_module
from .words import (
    tensor_dim,
    tensor_index,
    tensor_word_at,
    tensor_words,
    wedge_dim,
    wedge_index,
    wedge_word_at,
    wedge_words,
)


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------


class WedgeBasis:
    """Strictly increasing words over the algebra basis, lexicographic."""

    def __init__(self, algebra: LieAlgebra, k: int):
        self.algebra = algebra
        self.k = k
        self.dim = wedge_dim(algebra.dim, k)

    def __len__(self) -> int:
        return self.dim

    def word_at(self, index: int) -> tuple[int, ...]:
        return wedge_word_at(index, self.algebra.dim, self.k)

    def index(self, word: tuple[int, ...]) -> int:
        return wedge_index(word, self.algebra.dim)

    def label(self, index: int) -> str:
        if self.k == 0:
            return "1"
        return " ^ ".join(f"({self.algebra.labels[i]})" for i in self.word_at(index))


class TensorBasis:
    """All words over the algebra basis, lexicographic."""

    def __init__(self, algebra: LieAlgebra, k: int):
        self.algebra = algebra
        self.k = k
        self.dim = tensor_dim(algebra.dim, k)

    def __len__(self) -> int:
        return self.dim

    def word_at(self, index: int) -> tuple[int, ...]:
        return tensor_word_at(index, self.algebra.dim, self.k)

    def index(self, word: tuple[int, ...]) -> int:
        return tensor_index(word, self.algebra.dim)

    def label(self, index: int) -> str:
        if self.k == 0:
            return "1"
        return " (x) ".join(f"({self.algebra.labels[i]})" for i in self.word_at(index))


class ModuleWedgeBasis:
    """Pairs (module element, wedge word), module index major."""

    def __init__(self, module: LieModule, k: int):
        self.module = module
        self.algebra = module.algebra
        self.k = k
        self.wedge = wedge_dim(self.algebra.dim, k)
        self.dim = module.dim * self.wedge

    def __len__(self) -> int:
        return self.dim

    def index(self, m: int, word: tuple[int, ...]) -> int:
        return m * self.wedge + wedge_index(word, self.algebra.dim)

    def word_at(self, index: int) -> tuple[int, tuple[int, ...]]:
        m, w = divmod(index, self.wedge)
        return m, wedge_word_at(w, self.algebra.dim, self.k)

    def label(self, index: int) -> str:
        m, word = self.word_at(index)
        tail = " ^ ".join(f"({self.algebra.labels[i]})" for i in word) or "1"
        return f"m{m} (x) {tail}"


class KernelBasis:
    """Explicit kernel-subspace vectors in ambient coordinates."""

    def __init__(self, vectors: list[QVector], ambient):
        self.vectors = vectors
        self.ambient = ambient
        self.dim = len(vectors)
        # reduced-echelon pivots: first entry of each vector
        self.pivots = [v.entries[0][0] for v in vectors]

    def __len__(self) -> int:
        return self.dim

    def label(self, index: int) -> str:
        return f"ker{index}"


@dataclass(frozen=True)
class Chain:
    """An element of one degree of a complex, in that degree's basis."""

    degree: int
    vector: QVector

    def scale(self, c) -> "Chain":
        return Chain(self.degree, self.vector.scale(c))

    def add(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise DomainError("cannot add chains of different degrees")
        return Chain(self.degree, self.vector.add(other.vector))

    def sub(self, other: "Chain") -> "Chain":
        return self.add(other.scale(-1))

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero


class ChainComplex:
    """Graded dimensions plus differentials d_k : C_k -> C_(k-1), 1 <= k <= cap."""

    def __init__(
        self,
        kind: str,
        name: str,
        dims: list[int],
        diffs: dict[int, SparseMatrix],
        bases: dict[int, object],
        cap: int,
        cache: DiffCache | None = None,
        validate: bool = True,
        entry_cap: int | None = None,
    ):
        self.kind = kind
        self.name = name
        self.dims = list(dims)
        self.diffs = dict(diffs)
        self.bases = dict(bases)
        self.cap = cap
        self.cache = cache
        self.entry_cap = entry_cap
        self._ranks: dict[int, int] = {}
        self._ranks_transposed: dict[int, int] = {}
        for k in range(1, cap + 1):
            d = self.diffs[k]
            if d.cols != self.dims[k] or d.rows != self.dims[k - 1]:
                raise ConsistencyError(f"differential d_{k} has the wrong shape")
        if validate:
            self.verify_dd_zero()

    def verify_dd_zero(self) -> None:
        for k in range(2, self.cap + 1):
            if multiply(self.diffs[k - 1], self.diffs[k]).nnz:
                raise ConsistencyError(f"{self.name}: d_{k - 1} o d_{k} != 0")

    def check_degree(self, k: int) -> None:
        if not 0 <= k <= self.cap:
            raise DegreeRangeError(
                f"degree {k} outside the built range 0..{self.cap} of {self.name}"
            )

    def dim(self, k: int) -> int:
        self.check_degree(k)
        return self.dims[k]

    def d(self, k: int) -> SparseMatrix:
        self.check_degree(k)
        if k == 0:
            raise DegreeRangeError("d_0 does not exist")
        return self.diffs[k]

    def basis(self, k: int):
        self.check_degree(k)
        return self.bases[k]

    def rank_d(self, k: int) -> int:
        """rank d_k, memoized; rank d_0 is 0 by convention."""
        return self._memoized(self._ranks, k, lambda: self._ranked(self.diffs[k]))

    def rank_d_transposed(self, k: int) -> int:
        """rank of the transposed differential, eliminated independently;
        equals rank_d over a field and serves as its cross-check."""
        return self._memoized(
            self._ranks_transposed, k, lambda: self._ranked(self.diffs[k].transpose())
        )

    def _memoized(self, memo: dict[int, int], k: int, compute) -> int:
        if k == 0:
            return 0
        self.check_degree(k)
        got = memo.get(k)
        if got is None:
            got = memo[k] = compute()
        return got

    def _ranked(self, matrix: SparseMatrix) -> int:
        """rank(matrix), through the disk cache when there is one.  A cached
        value that cannot be a rank of this shape counts as a miss and is
        recomputed and rewritten.  Elimination fill-in is held to the
        complex's ``entry_cap``."""
        if not matrix.entries:
            return 0
        if self.cache is None:
            return rank(matrix, self.entry_cap)
        fp = matrix.fingerprint()
        hit = self.cache.get_rank(fp)
        if hit is not None and 0 <= hit <= min(matrix.rows, matrix.cols):
            return hit
        value = rank(matrix, self.entry_cap)
        self.cache.put_rank(fp, value)
        return value

    def __repr__(self) -> str:
        return f"ChainComplex({self.name}, kind={self.kind}, cap={self.cap})"


# ---------------------------------------------------------------------------
# differential construction
# ---------------------------------------------------------------------------


def _bracket_table(algebra: LieAlgebra) -> tuple[dict, int]:
    table = {}
    longest = 1
    for (i, j), coeffs in algebra.brackets.items():
        items = tuple(sorted(coeffs.items()))
        table[(i, j)] = items
        table[(j, i)] = tuple((k, -v) for k, v in items)
        longest = max(longest, len(items))
    return table, longest


def _insert_sorted(
    rest: list[int], m: int, slot: int = 0
) -> tuple[list[int] | None, int]:
    """Insert m into a strictly increasing list; (None, 0) if already there.

    The sign is the parity of the move from position ``slot`` (where the
    bracket lands before reordering) to the sorted position."""
    p = bisect_left(rest, m)
    if p < len(rest) and rest[p] == m:
        return None, 0
    return rest[:p] + [m] + rest[p:], -1 if (p - slot) % 2 else 1


def _guard(estimate: int, cap: int | None) -> None:
    check_entry_budget(estimate, cap)


def ce_d(algebra: LieAlgebra, k: int, entry_cap: int | None = None) -> SparseMatrix:
    """Exterior-power differential d_k : Lambda^k -> Lambda^(k-1)."""
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    ncols = wedge_dim(dim, k)
    nrows = wedge_dim(dim, k - 1)
    if k >= 2:
        _guard(ncols * comb(k, 2) * longest, entry_cap)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(wedge_words(dim, k)):
        for t in range(1, k):
            sign_t = -1 if (t + 1) % 2 else 1      # (-1)^j with j = t+1 one-based
            for s in range(t):
                items = table.get((w[s], w[t]))
                if not items:
                    continue
                rest = list(w[:s] + w[s + 1 : t] + w[t + 1 :])
                for m, c in items:
                    placed, psign = _insert_sorted(rest, m, s)
                    if placed is None:
                        continue
                    key = (wedge_index(tuple(placed), dim), ci)
                    nv = entries.get(key, QZERO) + sign_t * psign * c
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
    _guard(len(entries), entry_cap)
    return SparseMatrix(nrows, ncols, entries)


def leibniz_d(algebra: LieAlgebra, k: int, entry_cap: int | None = None) -> SparseMatrix:
    """Tensor-power differential: bracket lands in slot i, slot j dropped,
    sign (-1)^j, no reordering."""
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    ncols = tensor_dim(dim, k)
    nrows = tensor_dim(dim, k - 1)
    if k >= 2:
        _guard(ncols * comb(k, 2) * longest, entry_cap)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(tensor_words(dim, k)):
        for t in range(1, k):
            sign_t = -1 if (t + 1) % 2 else 1
            for s in range(t):
                items = table.get((w[s], w[t]))
                if not items:
                    continue
                prefix = w[:s]
                middle = w[s + 1 : t]
                suffix = w[t + 1 :]
                for m, c in items:
                    nw = prefix + (m,) + middle + suffix
                    key = (tensor_index(nw, dim), ci)
                    nv = entries.get(key, QZERO) + sign_t * c
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
    _guard(len(entries), entry_cap)
    return SparseMatrix(nrows, ncols, entries)


def coeff_d(module: LieModule, k: int, entry_cap: int | None = None) -> SparseMatrix:
    """Coefficient differential M (x) Lambda^k -> M (x) Lambda^(k-1).

    Action terms carry (-1)^i with the wedge letters indexed from 2, so slot
    s (0-based) contributes (-1)^s [m, g_s] (x) (word minus slot s); bracket
    terms carry (-1)^j = (-1)^t by the same indexing.
    """
    algebra = module.algebra
    dim = algebra.dim
    table, longest = _bracket_table(algebra)
    ncols_w = wedge_dim(dim, k)
    nrows_w = wedge_dim(dim, k - 1)
    action_longest = max((1,) + tuple(a.nnz // max(a.cols, 1) + 1 for a in module.actions))
    _guard(module.dim * ncols_w * (k * action_longest + comb(k, 2) * longest), entry_cap)
    entries: dict[tuple[int, int], Rational] = {}
    for ci_w, w in enumerate(wedge_words(dim, k)):
        # wedge-only terms: shared across module indices
        shared: list[tuple[int, Rational]] = []
        for t in range(1, k):
            sign_t = -1 if t % 2 else 1            # (-1)^(t+2)
            for s in range(t):
                items = table.get((w[s], w[t]))
                if not items:
                    continue
                rest = list(w[:s] + w[s + 1 : t] + w[t + 1 :])
                for m, c in items:
                    placed, psign = _insert_sorted(rest, m, s)
                    if placed is None:
                        continue
                    shared.append(
                        (wedge_index(tuple(placed), dim), sign_t * psign * c)
                    )
        drops = [
            (s, w[s], wedge_index(w[:s] + w[s + 1 :], dim)) for s in range(k)
        ]
        for mi in range(module.dim):
            col = mi * ncols_w + ci_w
            for s, a, rest_idx in drops:
                sign_s = -1 if s % 2 else 1        # (-1)^(s+2)
                for m2, v in module.actions[a].column(mi):
                    key = (m2 * nrows_w + rest_idx, col)
                    nv = entries.get(key, QZERO) + sign_s * v
                    if nv:
                        entries[key] = nv
                    else:
                        del entries[key]
            for widx, c in shared:
                key = (mi * nrows_w + widx, col)
                nv = entries.get(key, QZERO) + c
                if nv:
                    entries[key] = nv
                else:
                    del entries[key]
    _guard(len(entries), entry_cap)
    return SparseMatrix(module.dim * nrows_w, module.dim * ncols_w, entries)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def wedge_projection(algebra: LieAlgebra, k: int, entry_cap: int | None = None) -> SparseMatrix:
    """Antisymmetrization g^((x)k) -> g^(^k): a word with a repeated letter
    maps to 0, otherwise to its sorted word with the permutation sign."""
    dim = algebra.dim
    ncols = tensor_dim(dim, k)
    _guard(ncols, entry_cap)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(tensor_words(dim, k)):
        sign = 1
        ordered: list[int] = []
        ok = True
        for a in w:
            p = bisect_left(ordered, a)
            if p < len(ordered) and ordered[p] == a:
                ok = False
                break
            if (len(ordered) - p) % 2:
                sign = -sign
            insort(ordered, a)
        if not ok:
            continue
        entries[(wedge_index(tuple(ordered), dim), ci)] = Rational(sign)
    return SparseMatrix(wedge_dim(dim, k), ncols, entries)


def partial_wedge_projection(
    algebra: LieAlgebra, k: int, entry_cap: int | None = None
) -> SparseMatrix:
    """Wedge the leading factor in: g (x) Lambda^k -> Lambda^(k+1),
    e (x) w -> e ^ w, no scalar."""
    dim = algebra.dim
    nw = wedge_dim(dim, k)
    _guard(dim * nw, entry_cap)
    entries: dict[tuple[int, int], Rational] = {}
    for wi, w in enumerate(wedge_words(dim, k)):
        lw = list(w)
        for e in range(dim):
            placed, sign = _insert_sorted(lw, e)
            if placed is None:
                continue
            entries[(wedge_index(tuple(placed), dim), e * nw + wi)] = Rational(sign)
    return SparseMatrix(wedge_dim(dim, k + 1), dim * nw, entries)


def mixed_projection(algebra: LieAlgebra, k: int, entry_cap: int | None = None) -> SparseMatrix:
    """First factor kept, tail antisymmetrized: g^((x)(k+1)) -> g (x) Lambda^k.
    Composing with the partial wedge projection recovers the full one."""
    dim = algebra.dim
    ncols = tensor_dim(dim, k + 1)
    _guard(ncols, entry_cap)
    nw = wedge_dim(dim, k)
    entries: dict[tuple[int, int], Rational] = {}
    for ci, w in enumerate(tensor_words(dim, k + 1)):
        head, tail = w[0], w[1:]
        sign = 1
        ordered: list[int] = []
        ok = True
        for a in tail:
            p = bisect_left(ordered, a)
            if p < len(ordered) and ordered[p] == a:
                ok = False
                break
            if (len(ordered) - p) % 2:
                sign = -sign
            insort(ordered, a)
        if not ok:
            continue
        row = head * nw + wedge_index(tuple(ordered), dim)
        entries[(row, ci)] = Rational(sign)
    return SparseMatrix(dim * nw, ncols, entries)


# ---------------------------------------------------------------------------
# complex builders
# ---------------------------------------------------------------------------


def _cached_matrix(cache, kind, key_parts, builder):
    if cache is None:
        return builder()
    key = descriptor_key(*key_parts)
    hit = cache.get_matrix(kind, key)
    if hit is not None:
        return hit
    built = builder()
    cache.put_matrix(kind, key, built)
    return built


def ce_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Exterior-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    name = name or f"lie[{fp[:8]}]"
    dims = [wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: WedgeBasis(algebra, k) for k in range(cap + 1)}
    diffs = {
        k: _cached_matrix(
            cache, "diff", ("lie", fp, k), lambda k=k: ce_d(algebra, k, entry_cap)
        )
        for k in range(1, cap + 1)
    }
    return ChainComplex("lie", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap)


def coeff_complex(
    algebra: LieAlgebra,
    module: LieModule,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Complex M (x) Lambda^*(algebra) for a right module M."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    if module.algebra.fingerprint() != algebra.fingerprint():
        raise DomainError("module is not over the given algebra")
    fp = algebra.fingerprint()
    mfp = module.fingerprint()
    name = name or f"coeff[{fp[:8]},{mfp[:8]}]"
    dims = [module.dim * wedge_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: ModuleWedgeBasis(module, k) for k in range(cap + 1)}
    diffs = {
        k: _cached_matrix(
            cache, "diff", ("coeff", fp, mfp, k), lambda k=k: coeff_d(module, k, entry_cap)
        )
        for k in range(1, cap + 1)
    }
    return ChainComplex("coeff", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap)


def leibniz_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> ChainComplex:
    """Tensor-power complex of the algebra through degree cap."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    name = name or f"leibniz[{fp[:8]}]"
    dims = [tensor_dim(algebra.dim, k) for k in range(cap + 1)]
    bases = {k: TensorBasis(algebra, k) for k in range(cap + 1)}
    diffs = {
        k: _cached_matrix(
            cache, "diff", ("leibniz", fp, k), lambda k=k: leibniz_d(algebra, k, entry_cap)
        )
        for k in range(1, cap + 1)
    }
    return ChainComplex(
        "leibniz", name, dims, diffs, bases, cap, cache, entry_cap=entry_cap
    )


def _restrict_to_kernels(
    full: SparseMatrix,
    domain: KernelBasis,
    codomain: KernelBasis,
    what: str,
) -> SparseMatrix:
    """Express full @ domain-vectors in the codomain kernel basis; the
    reduced-echelon pivots make coordinates direct reads.  Verifies the image
    really lies in the codomain span."""
    dom_matrix = SparseMatrix.from_columns(full.cols, domain.vectors)
    image = multiply(full, dom_matrix)
    pivot_row = {p: j for j, p in enumerate(codomain.pivots)}
    entries: dict[tuple[int, int], Rational] = {}
    for (r, c), v in image.entries.items():
        j = pivot_row.get(r)
        if j is not None:
            entries[(j, c)] = v
    restricted = SparseMatrix(codomain.dim, dom_matrix.cols, entries)
    cod_matrix = SparseMatrix.from_columns(full.rows, codomain.vectors)
    if multiply(cod_matrix, restricted) != image:
        raise ConsistencyError(f"{what}: differential leaves the kernel subspace")
    return restricted


class KernelComplex(ChainComplex):
    """Degree m is ker pi_m inside an ambient space, with differential the
    ambient d_m restricted to it.

    ``ambient_d[m]`` (1 <= m <= cap) and ``projections[m]`` (0 <= m <= cap)
    must satisfy pi_(m-1) d_m = e_m pi_m for ``targets[m]`` = e_m; that
    identity, checked at build time with ambient d o d = 0, is what makes the
    restriction a complex.  Ranks and dimensions come from stacked matrices
    and projection ranks alone.  ``basis`` and ``d`` build the explicit
    kernel basis (cached under ``kernel_key`` + degree) and the restricted
    matrix on first request.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        cap: int,
        ambient_d: dict[int, SparseMatrix],
        projections: dict[int, SparseMatrix],
        targets: dict[int, SparseMatrix],
        ambient_basis_at,
        kernel_key: tuple,
        cache: DiffCache | None = None,
        entry_cap: int | None = None,
    ):
        self.kind = kind
        self.name = name
        self.cap = cap
        self.cache = cache
        self.entry_cap = entry_cap
        self.ambient_d = dict(ambient_d)
        self.projections = dict(projections)
        self.targets = dict(targets)
        self.ambient_basis_at = ambient_basis_at
        self.kernel_key = kernel_key
        self.diffs: dict[int, SparseMatrix] = {}
        self.bases: dict[int, KernelBasis] = {}
        self._ranks: dict[int, int] = {}
        self._ranks_transposed: dict[int, int] = {}
        self._projection_ranks: dict[tuple[int, bool], int] = {}
        for m in range(1, cap + 1):
            d = self.ambient_d[m]
            if d.cols != self.projections[m].cols or d.rows != self.projections[m - 1].cols:
                raise ConsistencyError(f"ambient differential d_{m} has the wrong shape")
        self.verify_dd_zero()
        self.dims = [
            self.projections[m].cols - self._projection_rank(m, False)
            for m in range(cap + 1)
        ]

    def verify_dd_zero(self) -> None:
        """Ambient d o d = 0 on every pair used, and the exact chain-map
        identity pi_(m-1) d_m = e_m pi_m at every degree."""
        for m in range(2, self.cap + 1):
            if multiply(self.ambient_d[m - 1], self.ambient_d[m]).nnz:
                raise ConsistencyError(f"{self.name}: ambient d_{m - 1} o d_{m} != 0")
        for m in range(1, self.cap + 1):
            lhs = multiply(self.projections[m - 1], self.ambient_d[m])
            if lhs != multiply(self.targets[m], self.projections[m]):
                raise ConsistencyError(
                    f"{self.name}: projection is not a chain map at degree {m}"
                )

    def rank_d(self, k: int) -> int:
        """rank([d_k; pi_k]) - rank pi_k, the rank of the restriction."""
        return self._memoized(self._ranks, k, lambda: self._restricted_rank(k, False))

    def rank_d_transposed(self, k: int) -> int:
        """rank([d_k; pi_k]^T) - rank pi_k^T, eliminated independently."""
        return self._memoized(
            self._ranks_transposed, k, lambda: self._restricted_rank(k, True)
        )

    def _restricted_rank(self, k: int, transposed: bool) -> int:
        stacked = stack_rows([self.ambient_d[k], self.projections[k]])
        if transposed:
            stacked = stacked.transpose()
        return self._ranked(stacked) - self._projection_rank(k, transposed)

    def _projection_rank(self, k: int, transposed: bool) -> int:
        got = self._projection_ranks.get((k, transposed))
        if got is None:
            pi = self.projections[k]
            got = self._ranked(pi.transpose() if transposed else pi)
            self._projection_ranks[(k, transposed)] = got
        return got

    def basis(self, k: int) -> KernelBasis:
        self.check_degree(k)
        got = self.bases.get(k)
        if got is None:
            got = KernelBasis(self._kernel_vectors(k), self.ambient_basis_at(k))
            if got.dim != self.dims[k]:
                raise ConsistencyError(
                    f"{self.name}: kernel basis at degree {k} has {got.dim} vectors, "
                    f"rank bookkeeping gives {self.dims[k]}"
                )
            self.bases[k] = got
        return got

    def d(self, k: int) -> SparseMatrix:
        self.check_degree(k)
        if k == 0:
            raise DegreeRangeError("d_0 does not exist")
        got = self.diffs.get(k)
        if got is None:
            got = _restrict_to_kernels(
                self.ambient_d[k], self.basis(k), self.basis(k - 1), f"{self.name} degree {k}"
            )
            self.diffs[k] = got
        return got

    def _kernel_vectors(self, k: int) -> list[QVector]:
        pi = self.projections[k]
        if self.cache is None:
            return kernel_basis(pi)
        key = descriptor_key(*self.kernel_key, k)
        hit = self.cache.get_vectors(key, pi.cols)
        if hit is not None:
            return hit
        vecs = kernel_basis(pi)
        self.cache.put_vectors(key, pi.cols, vecs)
        return vecs

    def __repr__(self) -> str:
        return f"KernelComplex({self.name}, kind={self.kind}, cap={self.cap})"


def rel_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> KernelComplex:
    """Relative complex: degree m is the kernel of the antisymmetrization at
    tensor degree m + 2, differential the restricted tensor differential."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    return KernelComplex(
        "rel",
        name or f"rel[{fp[:8]}]",
        cap,
        ambient_d={
            m: _cached_matrix(
                cache, "diff", ("leibniz", fp, m + 2),
                lambda m=m: leibniz_d(algebra, m + 2, entry_cap),
            )
            for m in range(1, cap + 1)
        },
        projections={m: wedge_projection(algebra, m + 2, entry_cap) for m in range(cap + 1)},
        targets={m: ce_d(algebra, m + 2, entry_cap) for m in range(1, cap + 1)},
        ambient_basis_at=lambda m: TensorBasis(algebra, m + 2),
        kernel_key=("rel-kernel", fp),
        cache=cache,
        entry_cap=entry_cap,
    )


def cr_complex(
    algebra: LieAlgebra,
    cap: int,
    cache: DiffCache | None = None,
    entry_cap: int | None = None,
    name: str | None = None,
) -> KernelComplex:
    """Mixed-kernel complex: degree m is the kernel of
    g (x) Lambda^(m+1) -> Lambda^(m+2), differential the restricted adjoint
    coefficient differential."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    fp = algebra.fingerprint()
    adj = adjoint_module(algebra, validate=False)
    mfp = adj.fingerprint()
    return KernelComplex(
        "cr",
        name or f"cr[{fp[:8]}]",
        cap,
        ambient_d={
            m: _cached_matrix(
                cache, "diff", ("coeff", fp, mfp, m + 1),
                lambda m=m: coeff_d(adj, m + 1, entry_cap),
            )
            for m in range(1, cap + 1)
        },
        projections={
            m: partial_wedge_projection(algebra, m + 1, entry_cap) for m in range(cap + 1)
        },
        targets={m: ce_d(algebra, m + 2, entry_cap) for m in range(1, cap + 1)},
        ambient_basis_at=lambda m: ModuleWedgeBasis(adj, m + 1),
        kernel_key=("cr-kernel", fp),
        cache=cache,
        entry_cap=entry_cap,
    )


# ---------------------------------------------------------------------------
# chains against named bases
# ---------------------------------------------------------------------------


def wedge_chain(
    algebra_dim: int, degree: int, terms: dict[tuple[int, ...], Rational]
) -> Chain:
    """Chain in the exterior basis from {word: coefficient}; words may be
    unsorted and pick up the permutation sign."""
    from .words import sort_with_sign

    acc: dict[int, Rational] = {}
    for word, coeff in terms.items():
        if len(word) != degree:
            raise DomainError("word length must equal the degree")
        sorted_word, sign = sort_with_sign(tuple(word))
        if sorted_word is None:
            continue
        idx = wedge_index(sorted_word, algebra_dim)
        nv = acc.get(idx, QZERO) + sign * Rational(coeff)
        if nv:
            acc[idx] = nv
        else:
            del acc[idx]
    return Chain(degree, QVector.from_dict(wedge_dim(algebra_dim, degree), acc))


def tensor_chain(
    algebra_dim: int, degree: int, terms: dict[tuple[int, ...], Rational]
) -> Chain:
    """Chain in the tensor basis from {word: coefficient}."""
    acc: dict[int, Rational] = {}
    for word, coeff in terms.items():
        if len(word) != degree:
            raise DomainError("word length must equal the degree")
        idx = tensor_index(tuple(word), algebra_dim)
        nv = acc.get(idx, QZERO) + Rational(coeff)
        if nv:
            acc[idx] = nv
        else:
            del acc[idx]
    return Chain(degree, QVector.from_dict(tensor_dim(algebra_dim, degree), acc))
