"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is an exact integer; comparisons are equality, no
tolerances.  Shared complexes come from the session-scoped context so the
expensive tensor differentials are built and ranked once.
"""

import pytest

from affsymp.chain_complexes import (
    ce_complex,
    leibniz_complex,
    mixed_projection,
    partial_wedge_projection,
    wedge_projection,
)
from affsymp.exact_linalg import multiply
from affsymp.homology import (
    betti,
    class_coordinates,
    cobetti,
    homology_reps,
    is_boundary,
    is_cycle,
    is_homologous,
)
from affsymp.invariants import invariant_dimension_report, omega_tilde
from affsymp.lie_structures import adjoint_module, build_g, build_I, build_sp
from affsymp.theorems import predict_sp_homology

from dense_oracle import dense_rank, to_dense
from full_oracle import full_d, full_diffs


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"criterion-{criterion}: {status}{suffix}")


def betti_list(complex_, through: int) -> list[int]:
    return [betti(complex_, k) for k in range(through + 1)]


def test_criterion_01_structure():
    checks = []
    for n, sp_dim, g_dim in ((1, 3, 5), (2, 10, 14), (3, 21, 27)):
        sp = build_sp(n)
        algebra, split = build_g(n)
        checks.append(sp.dim == sp_dim)
        checks.append(algebra.dim == g_dim)
        checks.append(algebra.validate().passed)
        ideal = set(split.ideal_indices)
        checks.append(
            all(
                algebra.bracket_coeffs(a, b) == {}
                for a in ideal
                for b in ideal
            )
        )
        checks.append(
            all(
                set(algebra.bracket_coeffs(a, j)) <= ideal
                for a in ideal
                for j in range(algebra.dim)
            )
        )
        offset = len(split.ideal_indices)
        quotient_ok = True
        for p in range(sp.dim):
            for q in range(p + 1, sp.dim):
                got = algebra.bracket_coeffs(
                    split.quotient_indices[p], split.quotient_indices[q]
                )
                if {k - offset: v for k, v in got.items()} != sp.bracket_coeffs(p, q):
                    quotient_ok = False
        checks.append(quotient_ok)
    passed = all(checks)
    report("1-structure", passed)
    assert passed


def test_criterion_02_sp_exterior_homology(ctx):
    got1 = betti_list(ctx.complex("lie", "sp", 1, 4), 3)
    got2 = betti_list(ctx.complex("lie", "sp", 2, 6), 5)
    ok = got1 == [1, 0, 0, 1] and got2 == [1, 0, 0, 1, 0, 0]
    report("2-sp-homology", ok, f"sp1 {got1}, sp2 {got2}")
    assert ok


def test_criterion_03_affine_trivial_coefficients(ctx):
    got1 = betti_list(ctx.complex("lie", "g", 1, 6), 5)
    got2 = betti_list(ctx.complex("lie", "g", 2, 6), 5)
    ok = got1 == [1, 0, 1, 1, 0, 1] and got2 == [1, 0, 1, 1, 1, 1]
    report("3-affine-homology", ok, f"g1 {got1}, g2 {got2}")
    assert ok


def test_criterion_04_affine_adjoint_coefficients(ctx):
    # Hochschild-Serre: sp_1 = sl_2 is semisimple and I_1 = V an abelian ideal,
    # so H_*(g_1; g_1) = H_*(sp_1) (x) H_*(I_1; g_1)^{sp_1}.  With g_1 = S^2V + V,
    # the I_1-complex (dims 5, 10, 5; ranks 2, 3) has H_0 = S^2V,
    # H_1 = S^3V + R, H_2 = V, invariants (0, 1, 0); H_*(sp_1) sits in
    # degrees 0 and 3, giving [0, 1, 0, 0, 1].  The table once shipped here,
    # [0, 0, 1, 0, 1], was wrong: H_1(g;g) surjects onto H_2(g) = 1.
    complex_ = ctx.complex("adjoint", "g", 1, 5)
    got = betti_list(complex_, 4)
    expected = [0, 1, 0, 0, 1]
    ranks = [0] + [dense_rank(to_dense(full_d(complex_, k))) for k in range(1, 6)]
    dense = [complex_.dim(k) - ranks[k] - ranks[k + 1] for k in range(5)]
    ok = got == expected and dense == expected
    report(
        "4-adjoint-homology",
        ok,
        f"expected {expected}, computed {got}, dense oracle {dense}",
    )
    assert ok


def test_criterion_05_leibniz_homology(ctx):
    got1 = betti_list(ctx.complex("leibniz", "g", 1, 6), 5)
    got2 = betti_list(ctx.complex("leibniz", "g", 2, 4), 3)
    ok = got1 == [1, 0, 1, 0, 0, 0] and got2 == [1, 0, 1, 0]
    detail = f"g1 {got1}, g2 {got2}"
    generator_ok = True
    for n in (1, 2):
        complex_ = ctx.complex("leibniz", "g", n, 6 if n == 1 else 4)
        lift = omega_tilde(n)
        reps = homology_reps(complex_, 2)
        cycle = is_cycle(complex_, lift)
        boundary = is_boundary(complex_, lift)
        coords = class_coordinates(complex_, lift, reps) if len(reps) == 1 else None
        homologous = (
            coords is not None
            and coords[0] != 0
            and is_homologous(complex_, lift, reps[0].scale(coords[0]))
        )
        generator_ok = generator_ok and cycle and not boundary and homologous
    ok = ok and generator_ok
    report("5-leibniz-homology", ok, detail)
    assert ok


def test_criterion_06_sp_vanishing(ctx):
    hl1 = [betti(ctx.complex("leibniz", "sp", 1, 6), k) for k in range(1, 6)]
    hl2 = [betti(ctx.complex("leibniz", "sp", 2, 4), k) for k in range(1, 4)]
    adj1 = betti_list(ctx.complex("adjoint", "sp", 1, 5), 4)
    ok = hl1 == [0] * 5 and hl2 == [0] * 3 and adj1 == [0] * 5
    report("6-sp-vanishing", ok, f"HL(sp1) {hl1}, HL(sp2) {hl2}, adjoint {adj1}")
    assert ok


def test_criterion_07_shifted_rel(ctx):
    got_g = betti_list(ctx.complex("cr", "g", 1, 3), 2)
    got_sp = betti(ctx.complex("cr", "sp", 1, 3), 0)
    shift = predict_sp_homology(1)
    expected = [shift.get(m + 3, 0) for m in range(3)]
    ok = got_g == expected == [1, 0, 0] and got_sp == 1
    report("7-shifted-rel", ok, f"affine {got_g}, sp degree 0 {got_sp}")
    assert ok


def test_criterion_08_relative_homology(ctx):
    complex_ = ctx.complex("rel", "g", 1, 3)
    dims_ok = complex_.dims == [15, 115, 620, 3124]
    got = betti_list(complex_, 2)
    ok = dims_ok and got == [1, 0, 1]
    report("8-relative-homology", ok, f"kernel dims {complex_.dims}, betti {got}")
    assert ok


def test_criterion_09_invariant_tables():
    ok = True
    details = []
    for n in (1, 2, 3):
        table = invariant_dimension_report(n, 2 * n)
        ok = ok and table.passed
        details.append(f"n={n} {'ok' if table.passed else 'FAIL'}")
    table1 = invariant_dimension_report(1, 2)
    explicit = [r.ideal_tensor_computed for r in table1.rows]
    ok = ok and explicit == [0, 1, 0]
    report("9-invariants", ok, ", ".join(details) + f", explicit n=1 {explicit}")
    assert ok


def test_criterion_10_coefficient_split(ctx):
    k1 = [betti(ctx.complex("coeff:I^1", "sp", 1, 4), m) for m in range(4)]
    k2 = [betti(ctx.complex("coeff:I^2", "sp", 1, 4), m) for m in range(4)]
    table = invariant_dimension_report(1, 2)
    sp_h = predict_sp_homology(1)
    split_ok = True
    for k, got in ((1, k1), (2, k2)):
        inv = table.rows[k].wedge_computed
        expected = [sp_h.get(m, 0) * inv for m in range(4)]
        split_ok = split_ok and got == expected
    ok = split_ok and k1 == [0, 0, 0, 0] and k2 == [1, 0, 0, 1]
    report("10-coefficient-split", ok, f"k=1 {k1}, k=2 {k2}")
    assert ok


def test_criterion_11_property_suites(ctx, g1):
    algebra = g1[0]
    checks = {}

    # d o d = 0 on every complex built here (constructors verify; re-check two)
    lie = ctx.complex("lie", "g", 1, 6)
    leib = ctx.complex("leibniz", "g", 1, 6)
    lie_d, leib_d = full_diffs(lie), full_diffs(leib)
    checks["dd-zero"] = all(
        multiply(lie_d[k - 1], lie_d[k]).nnz == 0 for k in range(2, 7)
    ) and all(multiply(leib_d[k - 1], leib_d[k]).nnz == 0 for k in range(2, 7))

    # projection chain maps through degree 4
    adjoint = ctx.complex("adjoint", "g", 1, 5)
    cm = True
    for k in range(2, 5):
        cm = cm and multiply(wedge_projection(algebra, k - 1), leib_d[k]) == multiply(
            lie_d[k], wedge_projection(algebra, k)
        )
    for k in range(1, 4):
        cm = cm and multiply(lie_d[k + 1], partial_wedge_projection(algebra, k)) == multiply(
            partial_wedge_projection(algebra, k - 1), full_d(adjoint, k)
        )
    for k in range(1, 4):
        cm = cm and multiply(
            partial_wedge_projection(algebra, k), mixed_projection(algebra, k)
        ) == wedge_projection(algebra, k + 1)
    checks["chain-maps"] = cm

    # betti equals cobetti at every interior degree of every complex the
    # suite computes, including the kernel complexes
    surveyed = [
        (lie, 5),
        (leib, 5),
        (adjoint, 4),
        (ctx.complex("lie", "sp", 1, 4), 3),
        (ctx.complex("lie", "sp", 2, 6), 5),
        (ctx.complex("lie", "g", 2, 6), 5),
        (ctx.complex("leibniz", "sp", 1, 6), 5),
        (ctx.complex("leibniz", "sp", 2, 4), 3),
        (ctx.complex("leibniz", "g", 2, 4), 3),
        (ctx.complex("rel", "g", 1, 3), 2),
        (ctx.complex("cr", "g", 1, 3), 2),
    ]
    dual = True
    for complex_, top in surveyed:
        for k in range(top + 1):
            dual = dual and betti(complex_, k) == cobetti(complex_, k)
    checks["betti-cobetti"] = dual

    # rank-nullity bookkeeping at every interior degree
    ranknull = True
    for complex_, top in surveyed:
        for k in range(top + 1):
            ranknull = ranknull and complex_.dim(k) == (
                complex_.rank_d(k) + complex_.rank_d(k + 1) + betti(complex_, k)
            )
    checks["rank-nullity"] = ranknull

    # basis-permutation invariance of Betti numbers on the affine algebra
    permuted = algebra.permuted([3, 0, 4, 1, 2])
    shuffled_lie = ce_complex(permuted, 6)
    shuffled_leib = leibniz_complex(permuted, 4)
    base_leib = [betti(leib, k) for k in range(4)]
    checks["permutation-invariance"] = (
        [betti(shuffled_lie, k) for k in range(6)] == [betti(lie, k) for k in range(6)]
        and [betti(shuffled_leib, k) for k in range(4)]
        == base_leib
    )

    ok = all(checks.values())
    report("11-properties", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok
