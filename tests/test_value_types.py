"""Value semantics of the immutable types, and fresh row lists for the
report records."""

import pytest

from affsymp.chain_complexes import Chain
from affsymp.exact_linalg import QVector, Rational
from affsymp.homology import HomologyReport
from affsymp.invariants import InvariantTable
from affsymp.lie_structures import SubalgebraDecomposition, ValidationReport
from affsymp.theorems import VerificationReport
from affsymp.vector_fields import Monomial

# (type, make(a fresh copy of fields i)), with two different field sets
VALUES = [
    (QVector, lambda i: QVector(3, ((0, Rational(1)), (i, Rational(-1, 2))))),
    (Chain, lambda i: Chain(i, QVector(4, ((i, Rational(2)),)))),
    (Monomial, lambda i: Monomial(((0, 1), (i, 2)))),
    (SubalgebraDecomposition, lambda i: SubalgebraDecomposition(tuple(range(i)), (i, i + 1))),
]
IDS = [kind.__name__ for kind, _ in VALUES]


@pytest.mark.parametrize("kind, make", VALUES, ids=IDS)
def test_equal_fields_make_equal_values(kind, make):
    a, b = make(1), make(1)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert make(1) != make(2)
    assert {a: "x"}[b] == "x"
    assert len({a, b, make(2)}) == 2
    assert repr(a) == repr(b) and repr(a).startswith(kind.__name__ + "(")


@pytest.mark.parametrize("kind, make", VALUES, ids=IDS)
def test_another_type_is_never_equal(kind, make):
    value = make(1)
    for _, other in VALUES:
        if other(1).__class__ is not kind:
            assert value != other(1)
    fields = tuple(getattr(value, name) for name in kind.__slots__)
    assert value != fields and value != fields[0]

    class Sub(kind):
        __slots__ = ()

    assert value != Sub(*fields)


def test_values_have_no_instance_dict():
    for _, make in VALUES:
        with pytest.raises(AttributeError):
            make(1).extra = 0


def test_monomial_defaults_to_the_constant():
    assert Monomial() == Monomial(()) and Monomial().degree == 0


def test_report_records_never_share_a_list():
    reports = [ValidationReport(True, 0), ValidationReport(True, 0)]
    reports[0].failures.append("x")
    assert reports[1].failures == []
    for make in (
        lambda: InvariantTable(1, 2),
        lambda: HomologyReport("c", "lie"),
        lambda: VerificationReport("thm-4.3", {}),
    ):
        a, b = make(), make()
        a.rows.append(None)
        assert b.rows == []
