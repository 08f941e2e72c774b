"""The benchmark's workloads: which claims run, with which parameters.

Claim parameters are pinned here to the values the registry's
``CLAIM_DEFAULT_CAPS`` held when the benchmark was defined, so a later
change of those defaults does not change the work a workload measures.
Claims run in this order through one shared ``VerificationContext``, as
``run_all`` runs them: complexes are memoized across claims, and a complex
first built at a smaller cap is rebuilt when a later claim asks for more.
"""

CLAIMS = {
    1: (
        ("lemma-3.3", {"cap": 5, "adjoint_cap": 4}),
        ("thm-4.3", {"cap": 5}),
        ("lemma-4.2", {"cap": 2}),
        ("rel-homology", {"cap": 2}),
        ("sp-vanishing", {"cap": 5, "adjoint_cap": 4}),
        ("e2-page", {"m_cap": 3, "k_cap": 2}),
        ("exactness", {"cap": 5}),
        ("appendix", {"k_max": 2}),
    ),
    2: (
        ("lemma-3.3", {"cap": 5, "adjoint_cap": 3}),
        ("thm-4.3", {"cap": 3}),
        ("lemma-4.2", {"cap": 2}),
        ("rel-homology", {"cap": 1}),
        ("sp-vanishing", {"cap": 3, "adjoint_cap": 2}),
        ("e2-page", {"m_cap": 2, "k_cap": 4}),
        ("exactness", {"cap": 3}),
        ("appendix", {"k_max": 4}),
    ),
}

# cache: None runs without a disk cache; "empty" starts from an empty cache
# directory; "warm" starts from a copy of a template that a cold run of the
# same claims, by the code under test, filled earlier in the same benchmark
# invocation.  The warm workload uses n=1: at n=2 the template fill alone
# costs a cold n=2 run in every invocation, which leaves no time budget for
# enough repetitions to make the three workloads steady.  It exercises the
# same layers as a warm n=2 run.
WORKLOADS = {
    "verify-n1-cold": {"n": 1, "cache": None},
    "verify-n2-cold": {"n": 2, "cache": "empty"},
    "verify-n1-warm": {"n": 1, "cache": "warm"},
}
