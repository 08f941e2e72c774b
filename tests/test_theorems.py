import sys

import pytest

from affsymp.errors import DomainError
from affsymp.homology import class_coordinates, homology_reps
from affsymp.theorems import (
    CLAIM_DEFAULT_CAPS,
    CLAIM_IDS,
    CLAIM_MAX_N,
    VerificationContext,
    bivector_exterior,
    bivector_exterior_reduced,
    claim_params,
    convolve,
    predict_sp_homology,
    run_all,
    run_claim,
)


class TestPredictions:
    def test_sp_homology_small(self):
        assert predict_sp_homology(1) == {0: 1, 3: 1}
        assert predict_sp_homology(2) == {0: 1, 3: 1, 7: 1, 10: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_total_dimension_and_top_degree(self, n):
        prediction = predict_sp_homology(n)
        assert sum(prediction.values()) == 2**n
        assert max(prediction) == sum(4 * i - 1 for i in range(1, n + 1))

    def test_bivector_algebras(self):
        assert bivector_exterior(2) == {0: 1, 2: 1, 4: 1}
        assert bivector_exterior_reduced(2) == {1: 1, 3: 1}

    def test_reduced_is_shifted_positive_part(self):
        # adjoint-coefficient grading: q-th power one degree below 2q
        for n in (1, 2, 3):
            full = bivector_exterior(n)
            reduced = bivector_exterior_reduced(n)
            assert reduced == {d - 1: v for d, v in full.items() if d > 0}

    def test_convolve(self):
        assert convolve({0: 1, 3: 1}, {0: 1, 2: 1}) == {0: 1, 2: 1, 3: 1, 5: 1}


class TestClaimsAtNOne:
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_claim_passes(self, ctx, claim):
        report = run_claim(ctx, claim, 1)
        assert report.passed, report.to_text()

    def test_lie_factorization_rows(self, ctx):
        report = run_claim(ctx, "lemma-3.3", 1)
        trivial = [r.computed for r in report.rows if r.part == "trivial"]
        adjoint = [r.computed for r in report.rows if r.part == "adjoint"]
        assert trivial == [1, 0, 1, 1, 0, 1]
        assert adjoint == [0, 1, 0, 0, 1]

    def test_leibniz_rows(self, ctx):
        report = run_claim(ctx, "thm-4.3", 1)
        homology = [r.computed for r in report.rows if r.part == "homology"]
        cohomology = [r.computed for r in report.rows if r.part == "cohomology"]
        assert homology == [1, 0, 1, 0, 0, 0]
        assert cohomology == homology
        generator_rows = {r.part: r.passed for r in report.rows if r.degree == 2 and "lift" in r.part}
        assert generator_rows == {
            "lift-is-cycle": True,
            "lift-not-boundary": True,
            "lift-generates": True,
        }

    def test_the_lift_generates_without_representatives(self, monkeypatch):
        """The lift-generates row reads the Betti number and the two lift
        rows above it; no representative is chosen, and no class solved."""

        def refused(*args):
            raise AssertionError("called by thm-4.3")

        for original in (homology_reps, class_coordinates):
            for module in [m for key, m in sys.modules.items() if key.startswith("affsymp")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, refused)
        report = run_claim(VerificationContext(), "thm-4.3", 1, cap=2)
        assert report.passed, report.to_text()
        assert [r.computed for r in report.rows if r.part == "lift-generates"] == [1]

    def test_shifted_rel_rows(self, ctx):
        report = run_claim(ctx, "lemma-4.2", 1)
        affine = [r.computed for r in report.rows if r.part == "affine"]
        symplectic = [r.computed for r in report.rows if r.part == "symplectic"]
        assert affine == [1, 0, 0]
        assert symplectic == [1, 0, 0]

    def test_rel_rows(self, ctx):
        report = run_claim(ctx, "rel-homology", 1)
        assert [r.computed for r in report.rows] == [1, 0, 1]

    def test_coefficient_split_rows(self, ctx):
        report = run_claim(ctx, "e2-page", 1)
        k1 = [r.computed for r in report.rows if r.part == "coeffs=wedge^1"]
        k2 = [r.computed for r in report.rows if r.part == "coeffs=wedge^2"]
        assert k1 == [0, 0, 0, 0]
        assert k2 == [1, 0, 0, 1]


class TestClaimsAtNTwo:
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_claim_passes(self, ctx, claim):
        report = run_claim(ctx, claim, 2)
        assert report.passed, report.to_text()

    def test_lie_factorization_trivial_rows(self, ctx):
        report = run_claim(ctx, "lemma-3.3", 2)
        trivial = [r.computed for r in report.rows if r.part == "trivial"]
        assert trivial == [1, 0, 1, 1, 1, 1]

    def test_leibniz_rows(self, ctx):
        report = run_claim(ctx, "thm-4.3", 2)
        homology = [r.computed for r in report.rows if r.part == "homology"]
        assert homology == [1, 0, 1, 0]


class TestRunAll:
    def test_all_claims_n1(self, ctx):
        reports = run_all(ctx, 1)
        assert [r.claim_id for r in reports] == list(CLAIM_IDS)
        assert all(r.passed for r in reports)

    def test_appendix_only_at_n3(self, ctx):
        reports = run_all(ctx, 3)
        assert [r.claim_id for r in reports] == ["appendix"]
        assert reports[0].passed


class TestParams:
    def test_unknown_claim(self):
        with pytest.raises(DomainError):
            claim_params("lemma-9.9", 1)

    def test_envelope(self):
        with pytest.raises(DomainError):
            claim_params("thm-4.3", 3)

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_every_n_up_to_the_envelope_has_caps(self, claim):
        max_n = CLAIM_MAX_N[claim]
        for n in range(1, max_n + 1):
            assert claim_params(claim, n) == CLAIM_DEFAULT_CAPS[claim][n]
        with pytest.raises(DomainError):
            claim_params(claim, max_n + 1)

    def test_cap_override(self):
        assert claim_params("thm-4.3", 1, cap=2) == {"cap": 2}
        assert claim_params("e2-page", 1, cap=2)["m_cap"] == 2
        assert claim_params("appendix", 1, cap=1)["k_max"] == 1

    def test_report_text_and_json(self, ctx):
        report = run_claim(ctx, "lemma-4.2", 1)
        assert report.to_text().startswith("[PASS] lemma-4.2")
        payload = report.to_json_dict()
        assert payload["report"] == "verification"
        assert payload["passed"] is True
        assert "wall_time_seconds" not in payload
        assert "wall_time_seconds" in report.to_json_dict(include_timing=True)


class TestSharedBuilds:
    def test_run_all_builds_each_algebra_once(self, monkeypatch):
        import affsymp.invariants as invariants
        import affsymp.lie_structures as lie_structures
        import affsymp.theorems as theorems
        from affsymp.theorems import VerificationContext

        calls = {"build_g": 0, "build_sp": 0}

        def counted(name):
            original = getattr(lie_structures, name)

            def build(n, *model):
                calls[name] += 1
                return original(n, *model)

            return build

        for name in calls:
            wrapper = counted(name)
            for module in (lie_structures, invariants, theorems):
                monkeypatch.setattr(module, name, wrapper)
        reports = run_all(VerificationContext(), 2)
        assert all(r.passed for r in reports)
        # build_g checks its quotient against the context's build_sp
        assert calls == {"build_g": 1, "build_sp": 1}

    def test_run_all_checks_each_algebra_once_and_no_derived_module(self, monkeypatch):
        """sp_2 and g_2 are the only algebras made, each Jacobi-checked and
        given a wedge table once; no module law is checked, since every
        module of the run is derived from them."""
        import affsymp.chain_complexes as chain_complexes
        from affsymp.lie_structures import LieAlgebra, LieModule
        from affsymp.theorems import VerificationContext

        calls = {"LieAlgebra": 0, "_jacobi": 0, "_wedge_table": 0, "LieModule.validate": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(LieAlgebra, "__init__", counted("LieAlgebra", LieAlgebra.__init__))
        monkeypatch.setattr(LieAlgebra, "_jacobi", counted("_jacobi", LieAlgebra._jacobi))
        monkeypatch.setattr(
            chain_complexes, "_wedge_table", counted("_wedge_table", chain_complexes._wedge_table)
        )
        monkeypatch.setattr(
            LieModule, "validate", counted("LieModule.validate", LieModule.validate)
        )
        assert all(r.passed for r in run_all(VerificationContext(), 2))
        assert calls == {"LieAlgebra": 2, "_jacobi": 2, "_wedge_table": 2, "LieModule.validate": 0}

    def test_standard_modules_build_sp_once(self, monkeypatch):
        import affsymp.invariants as invariants
        import affsymp.lie_structures as lie_structures

        built = []
        original = lie_structures.build_sp

        def build_sp(n):
            built.append(n)
            return original(n)

        monkeypatch.setattr(invariants, "build_sp", build_sp)
        monkeypatch.setattr(lie_structures, "build_sp", build_sp)
        sp, _, _, g_mod, _ = invariants.standard_modules(1)
        assert built == [1] and g_mod.algebra is sp
        assert invariants.invariant_dimension_report(1, 2).passed
        assert built == [1, 1]

    def test_run_all_builds_each_adjoint_module_once(self, monkeypatch):
        """The invariant tables take the context's adjoint modules of sp_2
        and g_2; ``standard_modules(n)`` alone still builds its own."""
        import affsymp.invariants as invariants
        import affsymp.lie_structures as lie_structures
        import affsymp.theorems as theorems
        from affsymp.theorems import VerificationContext

        built = []
        original = lie_structures.adjoint_module

        def adjoint_module(algebra):
            built.append(algebra.dim)
            return original(algebra)

        for module in (lie_structures, invariants, theorems):
            monkeypatch.setattr(module, "adjoint_module", adjoint_module)
        ctx = VerificationContext()
        assert all(r.passed for r in run_all(ctx, 2))
        assert sorted(built) == [10, 14]  # sp_2, then g_2
        sp, _, sp_adjoint, _, _ = ctx._standard(2)
        assert sp_adjoint is ctx.module("adjoint", "sp", 2) and sp is ctx.algebra("sp", 2)
        built.clear()
        invariants.standard_modules(1)
        assert sorted(built) == [3, 5]

    def test_a_huge_g_is_refused_before_its_sp_is_built(self, monkeypatch):
        import affsymp.theorems as theorems
        from affsymp.errors import ResourceLimitError
        from affsymp.theorems import VerificationContext

        def refused(n):
            raise AssertionError(f"sp_{n} was built")

        monkeypatch.setattr(theorems, "build_sp", refused)
        with pytest.raises(ResourceLimitError, match="dimension 275"):
            VerificationContext().algebra("g", 11)


def _derived_modules(n):
    """Every module a context derives at n, by name: both adjoints, g and
    the constants over sp, the constants over g, Lambda^k of the constants
    over sp and over g for k <= 4, and the tensor modules of the invariant
    table, whose k_max at n = 2 is 4."""
    from affsymp.lie_structures import exterior_power_module, tensor_module
    from affsymp.theorems import VerificationContext

    ctx = VerificationContext()
    _, ideal_mod, sp_adjoint, g_mod, split = ctx._standard(n)
    modules = {
        "adjoint(sp)": ctx.module("adjoint", "sp", n),
        "adjoint(g)": ctx.module("adjoint", "g", n),
        "trivial(g)": ctx.module("trivial", "g", n),
        "g over sp": g_mod,
        "I over sp": ideal_mod,
        "I over g": ctx.module("I^1", "g", n),
        "sp adjoint of the table": sp_adjoint,
    }
    for k in range(5):
        for family in ("sp", "g"):
            modules[f"I^{k} over {family}"] = ctx.module(f"I^{k}", family, n)
        lam = exterior_power_module(ideal_mod, k)
        for name, m in (("I", ideal_mod), ("sp", sp_adjoint), ("g", g_mod)):
            modules[f"{name} (x) I^{k}"] = tensor_module(m, lam)
    return modules


DERIVED = {n: _derived_modules(n) for n in (1, 2)}


@pytest.mark.parametrize("n, name", [(n, name) for n in DERIVED for name in DERIVED[n]])
def test_every_derived_module_satisfies_the_law(n, name):
    """The law a derived module inherits holds: checked here, not at
    construction."""
    module = DERIVED[n][name]
    report = module.validate()
    assert report.passed, report.failures[:3]
    assert report.checked == module.algebra.dim * (module.algebra.dim - 1) // 2


# each theory string and the chain_complexes builder it is made by
THEORY_BUILDERS = [
    ("lie", "ce_complex"),
    ("leibniz", "leibniz_complex"),
    ("adjoint", "coeff_complex"),
    ("coeff:I^1", "coeff_complex"),
    ("rel", "rel_complex"),
    ("cr", "cr_complex"),
]


def _record_builds(monkeypatch, builder: str) -> list:
    """Wrap ``theorems.<builder>`` so that every complex it builds is kept."""
    import affsymp.theorems as theorems

    built = []
    original = getattr(theorems, builder)

    def recorded(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(theorems, builder, recorded)
    return built


class TestComplexRegistry:
    @pytest.mark.parametrize("theory, builder", THEORY_BUILDERS)
    def test_builders_are_looked_up_at_call_time(self, monkeypatch, theory, builder):
        # the benchmark's tracer wraps module globals; a builder bound at
        # import would escape it
        from affsymp.theorems import VerificationContext

        built = _record_builds(monkeypatch, builder)
        ctx = VerificationContext()
        complex_ = ctx.complex(theory, "sp", 1, 2)
        assert built == [complex_]
        assert ctx.complex(theory, "sp", 1, 1) is complex_
        assert ctx.complex(theory, "sp", 1, 2) is complex_
        assert len(built) == 1
        assert ctx.complex(theory, "sp", 1, 3).cap == 3
        assert len(built) == 2

    def test_e2_page_complexes_are_shared(self, monkeypatch):
        from affsymp.theorems import VerificationContext

        built = _record_builds(monkeypatch, "coeff_complex")
        ctx = VerificationContext()
        assert run_claim(ctx, "e2-page", 1).passed
        complex_ = ctx.complex("coeff:I^1", "sp", 1, 2)
        assert any(complex_ is c for c in built)
        assert complex_.name == "coeff(sp1,I^1)"
        assert ctx.complex("coeff:I^1", "sp", 1, 1) is complex_
        assert len(built) == 3  # I^0, I^1 and I^2, each built once

    @pytest.mark.parametrize(
        "spec, family",
        [("trivial", "g"), ("adjoint", "g"), ("adjoint", "sp"), ("I^2", "sp"), ("I^1", "g")],
    )
    def test_modules_are_built_once_per_context(self, spec, family):
        from affsymp.theorems import VerificationContext

        ctx = VerificationContext()
        module = ctx.module(spec, family, 1)
        assert ctx.module(spec, family, 1) is module
        assert VerificationContext().module(spec, family, 1) is not module
        assert VerificationContext().module(spec, family, 1).fingerprint() == module.fingerprint()

    @pytest.mark.parametrize(
        "theory, family, message",
        [
            ("weird", "g", "unknown theory 'weird'"),
            ("lie", "q", "unknown family 'q' (expected sp, I or g)"),
            ("coeff:foo", "sp", "unknown module spec 'foo' (trivial, adjoint or I^k)"),
            ("coeff:I^x", "sp", "bad exterior power in module spec 'I^x'"),
            ("coeff:I^01", "g", "bad exterior power in module spec 'I^01'"),
            ("coeff:I^1", "I", "coefficients I^k need the sp or g action"),
        ],
    )
    def test_bad_input_messages(self, theory, family, message):
        from affsymp.theorems import VerificationContext

        with pytest.raises(DomainError) as info:
            VerificationContext().complex(theory, family, 1, 2)
        assert str(info.value) == message
