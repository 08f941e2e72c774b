import hashlib
import json

import pytest

from affsymp.chain_complexes import Chain, ce_complex, leibniz_complex, tensor_chain
from affsymp.errors import DegreeRangeError
from affsymp.exact_linalg import QVector, Rational
from affsymp.homology import (
    betti,
    betti_is_exact,
    class_coordinates,
    cobetti,
    homology_report,
    homology_reps,
    is_boundary,
    is_cycle,
    is_homologous,
)
from affsymp.invariants import omega, omega_tilde
from affsymp.lie_structures import build_I
from affsymp.theorems import VerificationContext
from affsymp.words import tensor_index

from full_oracle import full_d


class TestBetti:
    def test_sp1_exterior(self, ctx):
        complex_ = ctx.complex("lie", "sp", 1, 4)
        assert [betti(complex_, k) for k in range(4)] == [1, 0, 0, 1]

    def test_sp1_tensor_vanishing(self, ctx):
        complex_ = ctx.complex("leibniz", "sp", 1, 6)
        assert [betti(complex_, k) for k in range(1, 6)] == [0, 0, 0, 0, 0]

    def test_g1_tensor(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        assert [betti(complex_, k) for k in range(6)] == [1, 0, 1, 0, 0, 0]

    def test_cap_value_is_upper_bound(self, sp1):
        complex_ = ce_complex(sp1, 2)
        assert not betti_is_exact(complex_, 2)
        # dim ker d_2 without subtracting rank d_3
        assert betti(complex_, 2) == complex_.dim(2) - complex_.rank_d(2)

    def test_beyond_cap_raises(self, sp1):
        complex_ = ce_complex(sp1, 2)
        with pytest.raises(DegreeRangeError):
            betti(complex_, 3)

    def test_rank_nullity_bookkeeping(self, ctx):
        complex_ = ctx.complex("lie", "g", 1, 6)
        for k in range(6):
            assert (
                complex_.dim(k)
                == complex_.rank_d(k) + complex_.rank_d(k + 1) + betti(complex_, k)
            )


class TestCobetti:
    def test_matches_betti_sp1(self, ctx):
        complex_ = ctx.complex("lie", "sp", 1, 4)
        for k in range(4):
            assert cobetti(complex_, k) == betti(complex_, k)

    def test_matches_betti_g1_tensor(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        for k in range(5):
            assert cobetti(complex_, k) == betti(complex_, k)

    def test_abelian_degree_one(self):
        complex_ = ce_complex(build_I(1), 2)
        assert cobetti(complex_, 1) == 2


class TestCycleBoundary:
    def test_omega_tilde_is_cycle_not_boundary(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        lift = omega_tilde(1)
        assert is_cycle(complex_, lift)
        assert not is_boundary(complex_, lift)

    def test_degree_one_chains_are_cycles(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        for i in range(5):
            assert is_cycle(complex_, Chain(1, QVector.unit(5, i)))

    def test_mixed_word_is_not_cycle(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        chain = tensor_chain(5, 2, {(0, 2): Rational(1)})  # dx (x) x dy
        assert not is_cycle(complex_, chain)

    def test_zero_chain_is_boundary(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        assert is_boundary(complex_, Chain(2, QVector.zero(25)))

    def test_image_of_d_is_boundary(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        word = tensor_chain(5, 3, {(0, 2, 4): Rational(1)})
        image = Chain(2, full_d(complex_, 3).apply(word.vector))
        assert is_boundary(complex_, image)


class TestRepresentatives:
    def test_empty_when_trivial(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        assert homology_reps(complex_, 1) == []

    def test_reps_are_cycles_not_boundaries(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        for k in (0, 2):
            for rep in homology_reps(complex_, k):
                assert is_cycle(complex_, rep)
                if k + 1 <= complex_.cap:
                    assert not is_boundary(complex_, rep)

    def test_cap_degree_raises(self, g1):
        # at the cap the kernel of d_2 cannot be told from the boundaries:
        # leibniz(g_1) to cap 2 has 20 independent 2-cycles but H_2 = 1
        complex_ = leibniz_complex(g1[0], 2)
        assert betti(complex_, 2) == 20
        with pytest.raises(DegreeRangeError):
            homology_reps(complex_, 2)
        assert len(homology_reps(leibniz_complex(g1[0], 3), 2)) == 1

    def test_normalization(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        for rep in homology_reps(complex_, 2):
            assert rep.vector.entries[0][1] == Rational(1)

    def test_exterior_degree_two_class_is_bivector(self, ctx, g1):
        complex_ = ctx.complex("lie", "g", 1, 6)
        reps = homology_reps(complex_, 2)
        assert len(reps) == 1
        embedded = omega(1, ambient_dim=g1[0].dim)
        coords = class_coordinates(complex_, embedded, reps)
        assert coords is not None and coords[0] != 0

    def test_leibniz_degree_two_class_is_lifted_bivector(self, ctx):
        complex_ = ctx.complex("leibniz", "g", 1, 6)
        reps = homology_reps(complex_, 2)
        assert len(reps) == 1
        lift = omega_tilde(1)
        coords = class_coordinates(complex_, lift, reps)
        assert coords is not None and coords[0] != 0
        assert is_homologous(complex_, lift, reps[0].scale(coords[0]))


class TestReport:
    def test_csv_header_and_rows(self, ctx):
        report = homology_report(ctx.complex("lie", "sp", 1, 4), 3)
        lines = report.to_csv().splitlines()
        assert lines[0] == "degree,dim,rank_d,rank_d_next,betti"
        assert lines[1] == "0,1,0,0,1"
        assert len(lines) == 5

    def test_json_shape(self, ctx):
        report = homology_report(ctx.complex("lie", "sp", 1, 4), 3)
        payload = json.loads(report.to_json())
        assert payload["report"] == "homology"
        assert [row["betti"] for row in payload["rows"]] == [1, 0, 0, 1]
        assert all(row["exact"] for row in payload["rows"])

    def test_emit_cycles(self, ctx):
        report = homology_report(ctx.complex("lie", "sp", 1, 4), 3, emit_cycles=True)
        degree_three = report.rows[3]
        assert degree_three.cycles is not None and len(degree_three.cycles) == 1
        assert degree_three.cycles[0]["degree"] == 3


# SHA-256 of homology_report(..., emit_cycles=True).to_json() for the eight
# homology runs of the warm-rerun step of .github/workflows/tests.yml, for
# lie(g2) and for leibniz(g1): Betti numbers, ranks and the bytes of every
# representative cycle
EMITTED_CYCLES = [
    ("rel", "g", 1, 4, "2e7b00c325521948013becf786c714bf6630f4b41eb83aed33bc1eaa816b721e"),
    ("cr", "g", 1, 4, "e42620d6a972a8cf355bf6842d1e9ee97ed0fb05fa4f469a1deb0d48825e4285"),
    ("rel", "g", 2, 1, "5ae15a9385f6eabc85c9dafb194f8d92c92b65960ac2e3252af5f276bc850717"),
    ("cr", "g", 2, 2, "77883a42873bcf6fa107b5e7b95888ad79066f9ef84c8c8b8ad7d28bf1364534"),
    ("coeff:I^2", "sp", 2, 3, "0c912e20fadaa07aead96cee1c8e99d1f425a9ab42881db3c7b060bedca0a859"),
    ("leibniz", "g", 2, 3, "3eef19b7ff87adb34d498580e109b796ad830cc4026004ee08c828c7d17f443b"),
    ("leibniz", "I", 2, 3, "372d63b82c96f827db273f37f57c78be58cd5c2a51f5582557bef4eb89ceb2ff"),
    ("rel", "I", 1, 3, "25ccbab8d8ae673f6c34ad1af245818d530ec71540d9169a06fb3718528efb0d"),
    ("lie", "g", 2, 4, "44a8078fca142f423ba2c3cc55411866ce47bd8b252d5508808f26de0f201f2f"),
    ("leibniz", "g", 1, 5, "7d05a659abec1394dab80026fcf84826eba95dbc387ad8e2bcd3d0053490ef02"),
]


@pytest.mark.parametrize("theory, family, n, max_degree, digest", EMITTED_CYCLES)
def test_emitted_cycles_keep_their_bytes(theory, family, n, max_degree, digest):
    """The report ``homology --emit-cycles --format json`` prints, built as
    the CLI builds it: one degree past the last row, in a fresh context."""
    complex_ = VerificationContext().complex(theory, family, n, max_degree + 1)
    text = homology_report(complex_, max_degree, emit_cycles=True).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
