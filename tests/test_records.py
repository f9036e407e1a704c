"""The record classes compare, hash, print and refuse mutation field by field."""

from collections import Counter

import pytest

from crystal_forge.adhm import ADHMDatum, GradedFlag
from crystal_forge.decompose import Decomposition, SummandInstance
from crystal_forge.dimensions import StratumParams
from crystal_forge.dynkin import dynkin
from crystal_forge.linalg import Mat, full_space, int_mat, mat, span
from crystal_forge.selftest import CriterionResult

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)


def _datum(q_col=(0, 1)):
    return ADHMDatum(
        diagram=A1, d=(2,), v=(1,), x={}, p=(mat([[1, 0]]),), q=(mat([[c] for c in q_col]),)
    )


def _flag(first=(1, 0)):
    return GradedFlag(diagram=A1, d=(2,), steps=((span([first], 2),), (full_space(2),)))


def _params(vt_tuple=None):
    return StratumParams(
        diagram=A2, d=(2, 2), v=(1, 1), d_tuple=((2, 0), (0, 2)),
        v_tuple=((1, 0), (0, 1)), vt_tuple=vt_tuple,
    )


# (one instance, an equal one built apart, one that differs in one field)
FROZEN = {
    "Mat": lambda: (
        Mat(rows=1, cols=2, data=((1, 2),)), int_mat(1, 2, ((1, 2),)), int_mat(1, 2, ((1, 3),))
    ),
    "ADHMDatum": lambda: (_datum(), _datum(), _datum((1, 0))),
    "GradedFlag": lambda: (_flag(), _flag(), _flag((0, 1))),
    "StratumParams": lambda: (_params(), _params(), _params(((0, 0), (0, 0)))),
}
MUTABLE = {
    "SummandInstance": lambda: (
        SummandInstance(hw=(1,), source=0, closure=[0, 1]),
        SummandInstance((1,), 0, [0, 1]),
        SummandInstance((1,), 2, [0, 1]),
    ),
    "Decomposition": lambda: (
        Decomposition(diagram=A1, summands=Counter({(1,): 1})),
        Decomposition(A1, Counter({(1,): 1}), [], {}),
        Decomposition(A1, Counter({(1,): 2})),
    ),
    "CriterionResult": lambda: (
        CriterionResult(cid="c1", name="n", passed=True, seconds=0.5, details=""),
        CriterionResult("c1", "n", True, 0.5, ""),
        CriterionResult("c1", "n", False, 0.5, ""),
    ),
}
ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("build", ALL.values(), ids=ALL)
def test_equality_is_same_class_and_equal_fields(build):
    one, same, other = build()
    assert one == same and not one != same
    assert one != other and not one == other
    # an object of another class with the same field values is not equal
    assert one != tuple(vars(one).values())
    # nor is an instance of a subclass with equal fields
    twin = object.__new__(type("Sub", (type(one),), {}))
    twin.__dict__.update(vars(one))
    assert one != twin and twin != one and not one == twin
    assert all(one != b for name, make in ALL.items() if name != type(one).__name__ for b in make())


@pytest.mark.parametrize("build", FROZEN.values(), ids=FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(build):
    one, _, _ = build()
    field = next(iter(vars(one)))
    before = getattr(one, field)
    with pytest.raises(AttributeError):
        setattr(one, field, None)
    with pytest.raises(AttributeError):
        delattr(one, field)
    with pytest.raises(AttributeError):
        one.extra = 1
    assert getattr(one, field) is before


@pytest.mark.parametrize("build", [FROZEN[k] for k in ("Mat", "GradedFlag", "StratumParams")])
def test_equal_frozen_records_hash_alike(build):
    one, same, _ = build()
    assert one is not same and hash(one) == hash(same)
    assert len({one, same}) == 1


@pytest.mark.parametrize("build", [FROZEN["ADHMDatum"], *MUTABLE.values()])
def test_mutable_records_and_adhm_data_are_unhashable(build):
    one, _, _ = build()
    with pytest.raises(TypeError):
        hash(one)


def test_mutable_records_take_assignment():
    inst = SummandInstance((1,), 0, [0, 1])
    inst.source = 3
    assert inst == SummandInstance((1,), 3, [0, 1])


def test_vt_tuple_defaults_to_none():
    assert _params().vt_tuple is None
    assert StratumParams(A2, (2, 2), (1, 1), ((2, 0), (0, 2)), ((1, 0), (0, 1))) == _params()


def test_each_decomposition_gets_its_own_defaults():
    first = Decomposition(A1)
    first.summands[(1,)] += 1
    first.instances.append(SummandInstance((1,), 0, [0, 1]))
    first.assignment[0] = 0
    fresh = Decomposition(A1)
    assert (fresh.summands, fresh.instances, fresh.assignment) == (Counter(), [], {})


def test_mat_repr_lists_its_fields():
    assert repr(mat([[1, 0], [0, 2]])) == "Mat(rows=2, cols=2, num=((1, 0), (0, 2)), den=1)"
    assert repr(int_mat(1, 1, ((1,),), 2)) == "Mat(rows=1, cols=1, num=((1,),), den=2)"
