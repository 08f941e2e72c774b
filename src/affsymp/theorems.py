"""End-to-end verification of the structural claims about the affine
symplectic algebra at configured (n, degree cap), with machine-readable
expected-vs-computed reports.

The graded predictions combine three ingredients:

* the homology of the symplectic algebra, an exterior algebra on one
  generator in each degree 3, 7, ..., 4n-1;
* the exterior algebra on the degree-2 symplectic bivector, truncated above
  power n;
* its reduced variant for adjoint coefficients, whose q-th power sits in
  degree 2q - 1 (the invariant lives in constants (x) constants^(2q-1)).

Each claim id maps to one verifier, which takes every parameter
explicitly; ``run_claim`` and ``run_all`` drive them with the desk-scale
caps of ``CLAIM_DEFAULT_CAPS`` and time them.

``VerificationContext`` is the one registry of complexes, shared by the
claims and the CLI.  ``ctx.complex(theory, family, n, cap)`` takes the
``homology --theory`` strings (``lie``, ``leibniz``, ``adjoint``,
``coeff:<trivial|adjoint|I^k>``, ``rel``, ``cr``) over the families ``sp``,
``I`` and ``g``, names the complex as the CLI reports it (``lie(g1)``,
``coeff(sp1,I^2)``), and memoizes it by ``(theory, family, n)``: a complex
already built to at least ``cap`` is reused, so claims that share a complex
build and rank it once.  Its ``BlockMemo``, ``blocks``, is the build
context of every complex it makes.  It holds the run's disk cache and
entry cap, and the blocks that different complexes share: ``rel`` and
``cr`` take their ambient differentials from ``leibniz`` and ``adjoint``
and their targets from ``lie``, and a block, its fingerprint and each of
its d o d and chain-map checks are made once per context.  The invariant
tables are held to the same cap and built over the context's adjoint
modules of ``sp_n`` and ``g_n``.
"""

from __future__ import annotations

import json
import re
import time

from .cache import DiffCache
from .chain_complexes import (
    BlockMemo,
    ChainComplex,
    ce_complex,
    coeff_complex,
    cr_complex,
    leibniz_complex,
    rel_complex,
)
from .errors import DomainError
from .homology import betti, cobetti, is_boundary, is_cycle
from .invariants import (
    InvariantTable,
    invariant_dimension_report,
    omega_tilde,
    standard_modules,
)
from .lie_structures import (
    LieAlgebra,
    LieModule,
    SubalgebraDecomposition,
    adjoint_module,
    build_I,
    build_g,
    build_sp,
    check_size,
    exterior_power_module,
    submodule,
    trivial_module,
)

GradedPrediction = dict[int, int]


def convolve(a: GradedPrediction, b: GradedPrediction) -> GradedPrediction:
    out: GradedPrediction = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def predict_sp_homology(n: int) -> GradedPrediction:
    """Dimensions of the exterior algebra on generators in degrees
    3, 7, ..., 4n-1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out: GradedPrediction = {0: 1}
    for i in range(1, n + 1):
        out = convolve(out, {0: 1, 4 * i - 1: 1})
    return out


def bivector_exterior(n: int) -> GradedPrediction:
    """Exterior algebra on the degree-2 bivector, truncated above power n."""
    return {2 * q: 1 for q in range(n + 1)}


def bivector_exterior_reduced(n: int) -> GradedPrediction:
    """Positive powers only, graded by their adjoint-complex degree 2q - 1
    (the q-th invariant lies in constants (x) wedge^(2q-1) of the constants)."""
    return {2 * q - 1: 1 for q in range(1, n + 1)}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class ClaimRow:
    def __init__(self, part: str, degree: int | None, expected: int, computed: int):
        self.part = part
        self.degree = degree
        self.expected = expected
        self.computed = computed

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def to_json_dict(self) -> dict:
        return {
            "part": self.part,
            "degree": self.degree,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
        }


class VerificationReport:
    def __init__(self, claim_id: str, params: dict):
        self.claim_id = claim_id
        self.params = params
        self.rows: list[ClaimRow] = []
        self.wall_time = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, part: str, degree: int | None, expected: int, computed: int) -> None:
        self.rows.append(ClaimRow(part, degree, expected, computed))

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "report": "verification",
            "claim": self.claim_id,
            "params": self.params,
            "passed": self.passed,
            "rows": [r.to_json_dict() for r in self.rows],
        }
        if include_timing:
            out["wall_time_seconds"] = round(self.wall_time, 3)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), indent=2, sort_keys=True)

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        lines = [f"[{status}] {self.claim_id} ({params})  {self.wall_time:.2f}s"]
        width = max((len(r.part) for r in self.rows), default=4)
        for r in self.rows:
            deg = "-" if r.degree is None else str(r.degree)
            mark = "ok" if r.passed else "FAIL"
            lines.append(
                f"  {r.part:<{width}} deg {deg:>3}  expected {r.expected:>4}"
                f"  computed {r.computed:>4}  {mark}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared build context
# ---------------------------------------------------------------------------


# the k of a ``coeff:I^k`` spec, one spelling per k
_EXPONENT = re.compile("0|[1-9][0-9]*")


class VerificationContext:
    """Memoizes algebras, modules, invariant tables, complexes
    and, in ``blocks``, the blocks the complexes share, across claims and CLI
    commands.  ``blocks`` holds the one disk cache and the entry cap."""

    def __init__(self, cache: DiffCache | None = None, entry_cap: int | None = None):
        self.blocks = BlockMemo(cache, entry_cap)
        self._algebras: dict = {}
        self._complexes: dict = {}
        self._tables: dict = {}

    # -- algebras and modules -----------------------------------------------

    def g(self, n: int) -> tuple[LieAlgebra, SubalgebraDecomposition]:
        """The affine algebra with its split into ideal and quotient."""
        key = ("g", n)
        if key not in self._algebras:
            check_size("g", n)  # before the smaller sp_n is built
            self._algebras[key] = build_g(n, self.algebra("sp", n))
        return self._algebras[key]

    def algebra(self, family: str, n: int) -> LieAlgebra:
        """``sp_n``, ``I_n`` or ``g_n`` by family name."""
        if family == "g":
            return self.g(n)[0]
        key = (family, n)
        if key not in self._algebras:
            if family == "sp":
                self._algebras[key] = build_sp(n)
            elif family == "I":
                self._algebras[key] = build_I(n)
            else:
                raise DomainError(f"unknown family {family!r} (expected sp, I or g)")
        return self._algebras[key]

    def module(self, spec: str, family: str, n: int) -> LieModule:
        """The coefficients of ``coeff:<spec>``: trivial, adjoint, or the
        k-th exterior power of the constants I over sp or g, memoized."""
        key = ("module", spec, family, n)
        if key not in self._tables:
            self._tables[key] = self._module(spec, family, n)
        return self._tables[key]

    def _module(self, spec: str, family: str, n: int) -> LieModule:
        algebra = self.algebra(family, n)
        if spec == "trivial":
            return trivial_module(algebra)
        if spec == "adjoint":
            return adjoint_module(algebra)
        if not spec.startswith("I^"):
            raise DomainError(f"unknown module spec {spec!r} (trivial, adjoint or I^k)")
        if not _EXPONENT.fullmatch(spec[2:]):
            raise DomainError(f"bad exterior power in module spec {spec!r}")
        if family == "I":
            raise DomainError("coefficients I^k need the sp or g action")
        if family == "g":
            base = submodule(self.module("adjoint", "g", n), self.g(n)[1].ideal_indices)
        else:
            base = self._standard(n)[1]
        return exterior_power_module(base, int(spec[2:]))

    def _standard(self, n: int):
        key = ("standard", n)
        if key not in self._tables:
            # sp_n first, so its size is checked before that of g_n, as in
            # standard_modules(n)
            sp_adjoint = self.module("adjoint", "sp", n)
            self._tables[key] = standard_modules(
                n, sp_adjoint, self.module("adjoint", "g", n), self.g(n)[1]
            )
        return self._tables[key]

    # -- complexes ----------------------------------------------------------

    def complex(self, theory: str, family: str, n: int, cap: int) -> ChainComplex:
        """The ``theory`` complex of the ``family`` algebra at ``n``, built
        through degree ``cap`` or beyond."""
        key = (theory, family, n)
        found = self._complexes.get(key)
        if found is not None and found.cap >= cap:
            return found
        algebra = self.algebra(family, n)
        name = f"{theory}({family}{n})"
        # builders are looked up by their module names at each call, so a
        # wrapper installed on this module's globals sees every build
        if theory == "lie":
            found = ce_complex(algebra, cap, name, self.blocks)
        elif theory == "leibniz":
            found = leibniz_complex(algebra, cap, name, self.blocks)
        elif theory == "adjoint":
            module = self.module("adjoint", family, n)
            found = coeff_complex(algebra, module, cap, name, self.blocks)
        elif theory.startswith("coeff:"):
            spec = theory[len("coeff:"):]
            found = coeff_complex(
                algebra, self.module(spec, family, n), cap, f"coeff({family}{n},{spec})",
                self.blocks,
            )
        elif theory == "rel":
            found = rel_complex(algebra, cap, name, self.blocks)
        elif theory == "cr":
            found = cr_complex(
                algebra, cap, name, self.blocks, self.module("adjoint", family, n)
            )
        else:
            raise DomainError(f"unknown theory {theory!r}")
        self._complexes[key] = found
        return found

    def invariant_table(self, n: int, k_max: int) -> InvariantTable:
        """``invariant_dimension_report(n, k_max)`` over the shared modules."""
        key = ("invariants", n, k_max)
        if key not in self._tables:
            self._tables[key] = invariant_dimension_report(
                n, k_max, self._standard(n), self.blocks.entry_cap
            )
        return self._tables[key]


# ---------------------------------------------------------------------------
# claim verifiers
# ---------------------------------------------------------------------------


def verify_lie_factorization(
    ctx: VerificationContext, n: int, cap: int, adjoint_cap: int
) -> VerificationReport:
    """Claim lemma-3.3: Lie homology of the affine algebra factors through
    the symplectic homology times the bivector exterior algebra, for trivial
    and adjoint coefficients."""
    report = VerificationReport(
        "lemma-3.3", {"n": n, "cap": cap, "adjoint_cap": adjoint_cap}
    )
    sp_h = predict_sp_homology(n)
    trivial_expected = convolve(sp_h, bivector_exterior(n))
    complex_ = ctx.complex("lie", "g", n, cap + 1)
    for k in range(cap + 1):
        report.add("trivial", k, trivial_expected.get(k, 0), betti(complex_, k))
    adjoint_expected = convolve(sp_h, bivector_exterior_reduced(n))
    adj = ctx.complex("adjoint", "g", n, adjoint_cap + 1)
    for k in range(adjoint_cap + 1):
        report.add("adjoint", k, adjoint_expected.get(k, 0), betti(adj, k))
    return report


def verify_leibniz_exterior(ctx: VerificationContext, n: int, cap: int) -> VerificationReport:
    """Claim thm-4.3: the tensor-complex homology of the affine algebra is
    the exterior algebra on the bivector; dually for the transposed complex;
    the degree-2 class is generated by the lifted bivector."""
    report = VerificationReport("thm-4.3", {"n": n, "cap": cap})
    expected = bivector_exterior(n)
    complex_ = ctx.complex("leibniz", "g", n, cap + 1)
    for k in range(cap + 1):
        report.add("homology", k, expected.get(k, 0), betti(complex_, k))
    for k in range(cap + 1):
        report.add("cohomology", k, expected.get(k, 0), cobetti(complex_, k))
    if cap >= 2:
        lift = omega_tilde(n)
        cycle, bounds = is_cycle(complex_, lift), is_boundary(complex_, lift)
        report.add("lift-is-cycle", 2, 1, int(cycle))
        report.add("lift-not-boundary", 2, 0, int(bounds))
        # a cycle that is no boundary spans a homology group of dimension 1
        report.add("lift-generates", 2, 1, int(betti(complex_, 2) == 1 and cycle and not bounds))
    return report


def verify_shifted_rel(ctx: VerificationContext, n: int, cap: int) -> VerificationReport:
    """Claim lemma-4.2: the mixed-kernel homology of the affine algebra in
    degree m equals the symplectic homology in degree m + 3, and already does
    so over the symplectic algebra itself."""
    report = VerificationReport("lemma-4.2", {"n": n, "cap": cap})
    sp_h = predict_sp_homology(n)
    for family, part in (("g", "affine"), ("sp", "symplectic")):
        complex_ = ctx.complex("cr", family, n, cap + 1)
        for m in range(cap + 1):
            report.add(part, m, sp_h.get(m + 3, 0), betti(complex_, m))
    return report


def verify_rel_factorization(ctx: VerificationContext, n: int, cap: int) -> VerificationReport:
    """Claim rel-homology: the tensor-kernel homology equals the bivector
    exterior algebra convolved with the 3-shifted symplectic homology."""
    report = VerificationReport("rel-homology", {"n": n, "cap": cap})
    sp_h = predict_sp_homology(n)
    shifted = {k - 3: v for k, v in sp_h.items() if k >= 3}
    expected = convolve(bivector_exterior(n), shifted)
    complex_ = ctx.complex("rel", "g", n, cap + 1)
    for m in range(cap + 1):
        report.add("relative", m, expected.get(m, 0), betti(complex_, m))
    return report


def verify_sp_vanishing(
    ctx: VerificationContext, n: int, cap: int, adjoint_cap: int
) -> VerificationReport:
    """Claim sp-vanishing: the tensor-complex homology of the symplectic
    algebra vanishes in positive degrees, and its adjoint homology vanishes
    in every degree."""
    report = VerificationReport(
        "sp-vanishing", {"n": n, "cap": cap, "adjoint_cap": adjoint_cap}
    )
    leib = ctx.complex("leibniz", "sp", n, cap + 1)
    for k in range(1, cap + 1):
        report.add("tensor", k, 0, betti(leib, k))
    adj = ctx.complex("adjoint", "sp", n, adjoint_cap + 1)
    for k in range(adjoint_cap + 1):
        report.add("adjoint", k, 0, betti(adj, k))
    return report


def verify_coefficient_split(
    ctx: VerificationContext, n: int, m_cap: int, k_cap: int
) -> VerificationReport:
    """Claim e2-page: homology of the symplectic algebra with coefficients in
    an exterior power of the constants splits as (homology with trivial
    coefficients) times (invariant dimension)."""
    report = VerificationReport("e2-page", {"n": n, "m_cap": m_cap, "k_cap": k_cap})
    sp_h = predict_sp_homology(n)
    table = ctx.invariant_table(n, k_cap)
    for k in range(k_cap + 1):
        inv_dim = table.rows[k].wedge_computed
        complex_ = ctx.complex(f"coeff:I^{k}", "sp", n, m_cap + 1)
        for m in range(m_cap + 1):
            report.add(
                f"coeffs=wedge^{k}", m, sp_h.get(m, 0) * inv_dim, betti(complex_, m)
            )
    return report


def verify_invariant_tables(
    ctx: VerificationContext, n: int, k_max: int
) -> VerificationReport:
    """Claim appendix: the three invariant-dimension families match their
    predictions, with the invariant lines spanned by bivector powers."""
    report = VerificationReport("appendix", {"n": n, "k_max": k_max})
    table = ctx.invariant_table(n, k_max)
    for row in table.rows:
        report.add("wedge", row.k, row.wedge_predicted, row.wedge_computed)
        report.add("wedge-spanned-by-power", row.k, 1, int(row.wedge_spanned_by_power))
        report.add(
            "constants-tensor", row.k, row.ideal_tensor_predicted,
            row.ideal_tensor_computed,
        )
        report.add("sp-tensor", row.k, row.sp_tensor_predicted, row.sp_tensor_computed)
        report.add("split-consistent", row.k, 1, int(row.decomposition_consistent))
    return report


# ---------------------------------------------------------------------------
# exactness audit
# ---------------------------------------------------------------------------


def _window_bound_failures(seq: list[tuple[str, int | None]]) -> list[str]:
    """For every exact A -> B -> C, dim B <= dim A + dim C."""
    bad = []
    for i in range(1, len(seq) - 1):
        (la, a), (lb, b), (lc, c) = seq[i - 1], seq[i], seq[i + 1]
        if a is None or b is None or c is None:
            continue
        if b > a + c:
            bad.append(f"window {la} -> {lb} -> {lc}: {b} > {a} + {c}")
    return bad


def _alternating_stretch_failures(seq: list[tuple[str, int | None]]) -> list[str]:
    """Between consecutive known zeros with all interior dims known, the
    alternating sum of an exact stretch must vanish.  Unknown entries act as
    barriers."""
    bad = []
    zero_positions = [i for i, (_, v) in enumerate(seq) if v == 0]
    for a, b in zip(zero_positions, zero_positions[1:]):
        interior = seq[a + 1 : b]
        if not interior or any(v is None for _, v in interior):
            continue
        total = 0
        for offset, (_, v) in enumerate(interior):
            total += v if offset % 2 == 0 else -v
        if total != 0:
            labels = ", ".join(l for l, _ in interior)
            bad.append(f"stretch [{labels}] alternating sum {total} != 0")
    return bad


def exactness_audit(ctx: VerificationContext, n: int, cap: int) -> VerificationReport:
    """Claim exactness: the computed Betti tables admit the two long exact
    sequences (tensor-vs-wedge and adjoint-vs-wedge), checked as dimension
    bookkeeping: three-term bounds, alternating sums across fully known
    stretches between zeros, the degenerate low-degree isomorphisms, and the
    forced shift isomorphism over the symplectic algebra."""
    report = VerificationReport("exactness", {"n": n, "cap": cap})

    leib = ctx.complex("leibniz", "g", n, cap + 1)
    lie = ctx.complex("lie", "g", n, cap + 1)
    rel_cap = {1: 2}.get(n, 1)
    rel = ctx.complex("rel", "g", n, rel_cap + 1)
    adj_cap = {1: 4}.get(n, 3)
    adj = ctx.complex("adjoint", "g", n, adj_cap + 1)
    cr_cap = 2
    cr = ctx.complex("cr", "g", n, cr_cap + 1)
    sp_cr = ctx.complex("cr", "sp", n, cr_cap + 1)
    sp_lie = ctx.complex("lie", "sp", n, cr_cap + 4)

    hl = {k: betti(leib, k) for k in range(cap + 1)}
    hlie = {k: betti(lie, k) for k in range(cap + 1)}
    hrel = {m: betti(rel, m) for m in range(rel_cap + 1)}
    hgg = {k: betti(adj, k) for k in range(adj_cap + 1)}
    hr = {m: betti(cr, m) for m in range(cr_cap + 1)}
    hr_sp = {m: betti(sp_cr, m) for m in range(cr_cap + 1)}
    hlie_sp = {k: betti(sp_lie, k) for k in range(sp_lie.cap)}

    def known(table: dict[int, int], k: int) -> int | None:
        if k < 0:
            return 0
        return table.get(k)

    # tensor-vs-wedge sequence: ... Hrel_(k-2) -> HL_k -> HLie_k -> Hrel_(k-3) ...
    seq1: list[tuple[str, int | None]] = []
    for k in range(cap, 1, -1):
        seq1.append((f"HL_{k}", known(hl, k)))
        seq1.append((f"HLie_{k}", known(hlie, k)))
        seq1.append((f"Hrel_{k - 3}", known(hrel, k - 3)))
    failures = _window_bound_failures(seq1) + _alternating_stretch_failures(seq1)
    report.add("tensor-sequence-consistent", None, 1, int(not failures))
    report.add("HL1-equals-HLie1", 1, known(hlie, 1) or 0, known(hl, 1) or 0)
    report.add("HL0-equals-HLie0", 0, known(hlie, 0) or 0, known(hl, 0) or 0)

    # adjoint sequence: ... HR_(m) -> Hgg_(m+1) -> HLie_(m+2) -> HR_(m-1) ...
    seq2: list[tuple[str, int | None]] = []
    for k in range(cap, 1, -1):
        seq2.append((f"Hgg_{k - 1}", known(hgg, k - 1)))
        seq2.append((f"HLie_{k}", known(hlie, k)))
        seq2.append((f"HR_{k - 3}", known(hr, k - 3)))
    failures2 = _window_bound_failures(seq2) + _alternating_stretch_failures(seq2)
    report.add("adjoint-sequence-consistent", None, 1, int(not failures2))
    report.add("Hgg0-equals-HLie1", 0, known(hlie, 1) or 0, known(hgg, 0) or 0)

    # forced isomorphism over sp: adjoint homology vanishes there, so the
    # boundary map identifies HLie_(m+3)(sp) with HR_m(sp)
    for m in range(cr_cap + 1):
        expected = known(hlie_sp, m + 3)
        if expected is None:
            continue
        report.add("sp-shift-iso", m, expected, known(hr_sp, m) or 0)

    for message in failures + failures2:
        report.add(f"violation: {message}", None, 0, 1)

    return report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CLAIM_DEFAULT_CAPS: dict[str, dict[int, dict]] = {
    "lemma-3.3": {1: {"cap": 5, "adjoint_cap": 4}, 2: {"cap": 5, "adjoint_cap": 3}},
    "thm-4.3": {1: {"cap": 5}, 2: {"cap": 3}},
    "lemma-4.2": {1: {"cap": 2}, 2: {"cap": 2}},
    "rel-homology": {1: {"cap": 2}, 2: {"cap": 1}},
    "sp-vanishing": {1: {"cap": 5, "adjoint_cap": 4}, 2: {"cap": 3, "adjoint_cap": 2}},
    "e2-page": {1: {"m_cap": 3, "k_cap": 2}, 2: {"m_cap": 2, "k_cap": 4}},
    "exactness": {1: {"cap": 5}, 2: {"cap": 3}},
    "appendix": {1: {"k_max": 2}, 2: {"k_max": 4}, 3: {"k_max": 6}},
}

CLAIM_RUNNERS = {
    "lemma-3.3": verify_lie_factorization,
    "thm-4.3": verify_leibniz_exterior,
    "lemma-4.2": verify_shifted_rel,
    "rel-homology": verify_rel_factorization,
    "sp-vanishing": verify_sp_vanishing,
    "e2-page": verify_coefficient_split,
    "exactness": exactness_audit,
    "appendix": verify_invariant_tables,
}

CLAIM_IDS = tuple(CLAIM_RUNNERS)

# the largest n each claim has default caps for: beyond it the tensor-power
# complexes do not stay desk-scale
CLAIM_MAX_N = {claim_id: max(caps) for claim_id, caps in CLAIM_DEFAULT_CAPS.items()}


def claim_params(claim_id: str, n: int, cap: int | None = None) -> dict:
    if claim_id not in CLAIM_RUNNERS:
        raise DomainError(f"unknown claim {claim_id!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > CLAIM_MAX_N[claim_id]:
        raise DomainError(
            f"claim {claim_id} is configured for n <= {CLAIM_MAX_N[claim_id]} "
            f"(tensor powers grow too fast beyond that)"
        )
    if cap is not None and cap < 0:
        raise DomainError(f"cap must be >= 0, not {cap}")
    defaults = CLAIM_DEFAULT_CAPS[claim_id]
    params = dict(defaults[n])
    if cap is not None:
        if "cap" in params:
            params["cap"] = cap
        elif "m_cap" in params:
            params["m_cap"] = cap
        elif "k_max" in params:
            params["k_max"] = cap
    return params


def run_claim(
    ctx: VerificationContext, claim_id: str, n: int, cap: int | None = None
) -> VerificationReport:
    """One claim with its default parameters (``cap`` overriding the main
    one), timed."""
    t0 = time.monotonic()
    params = claim_params(claim_id, n, cap)
    report = CLAIM_RUNNERS[claim_id](ctx, n, **params)
    report.wall_time = time.monotonic() - t0
    return report


def run_all(
    ctx: VerificationContext, n: int
) -> list[VerificationReport]:
    """Every claim configured for this n, in registry order."""
    out = []
    for claim_id in CLAIM_IDS:
        if n <= CLAIM_MAX_N[claim_id]:
            out.append(run_claim(ctx, claim_id, n))
    return out
