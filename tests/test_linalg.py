from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_forge.linalg import (
    Mat,
    column_space,
    contains,
    full_space,
    hstack,
    identity,
    image_of,
    int_mat,
    intersect,
    kernel,
    mat,
    matmul,
    preimage,
    rank,
    rref,
    span,
    subspace_sum,
    zero_space,
    zeros,
)
from oracles import column_space_fractions, kernel_fractions, matmul_fractions, rref_fractions


def test_rref_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = rref(m)
    assert pivots == (0, 1)
    assert rank(m) == 2
    assert rank(identity(4)) == 4
    assert rank(zeros(3, 2)) == 0


def test_kernel_is_null_space():
    m = mat([[1, 2, 3], [2, 4, 6]])
    k = kernel(m)
    assert k.cols == 2
    prod = matmul(m, k)
    assert prod.is_zero()


def test_column_space_is_canonical():
    # two different spanning sets of the same plane in Q^3
    s1 = column_space(mat([[1, 1], [0, 1], [1, 0]]))
    s2 = column_space(mat([[2, 3, 1], [1, 1, 0], [1, 2, 1]]))
    assert s1 == s2
    assert s1.cols == 2


def test_span_and_contains():
    line = span([(1, 2)], 2)
    plane = full_space(2)
    assert contains(plane, line)
    assert not contains(line, plane)
    assert contains(line, zero_space(2))


def test_intersect_and_sum_dims():
    rng = Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        b = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        meet = intersect(a, b)
        join = subspace_sum(a, b)
        assert meet.cols + join.cols == a.cols + b.cols
        assert contains(a, meet) and contains(b, meet)
        assert contains(join, a) and contains(join, b)


def test_preimage_definition():
    m = mat([[1, 0, 0], [0, 0, 0]])  # projection of Q^3 to first coord in Q^2
    target = span([(1, 0)], 2)
    pre = preimage(m, target)
    assert pre.cols == 3  # everything maps into the line
    zero_target = zero_space(2)
    pre0 = preimage(m, zero_target)
    assert pre0.cols == 2  # kernel of m
    img = image_of(m, full_space(3))
    assert img == span([(1, 0)], 2)


def test_fraction_exactness():
    m = mat([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]])
    assert rank(m) == 1
    k = kernel(m)
    assert k.cols == 1
    assert matmul(m, k).is_zero()


def test_shape_errors():
    with pytest.raises(ValueError):
        matmul(zeros(2, 3), zeros(2, 3))
    with pytest.raises(ValueError):
        hstack(zeros(2, 1), zeros(3, 1))
    with pytest.raises(ValueError):
        Mat(2, 2, ((Fraction(0),),))
    with pytest.raises(ValueError):
        mat([[1, 2], [3, 4]], 2, 3)
    with pytest.raises(ValueError):
        mat([[1, 2]], 2, 2)
    with pytest.raises(ValueError):
        mat([], 1, 1)
    # no rows must not let a negative column count through
    for build in (
        lambda: Mat(0, -1, ()),
        lambda: zeros(0, -3),
        lambda: int_mat(0, -2, ()),
        lambda: mat([], rows=0, cols=-1),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: intersect(full_space(2), full_space(3)), "ambient dimension mismatch in intersection"),
        (lambda: preimage(zeros(2, 3), full_space(3)), "ambient dimension mismatch in preimage"),
    ],
    ids=["intersect", "preimage"],
)
def test_subspaces_of_different_ambient_spaces_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_zeros_and_identity_equal_the_checked_constructor():
    for r in range(5):
        checked = Mat(r, r, tuple(tuple(int(i == j) for j in range(r)) for i in range(r)))
        assert identity(r) == checked and hash(identity(r)) == hash(checked)
        for c in range(5):
            checked = Mat(r, c, ((0,) * c,) * r)
            assert zeros(r, c) == checked and hash(zeros(r, c)) == hash(checked)
    with pytest.raises(ValueError):
        zeros(2, -1)
    with pytest.raises(ValueError):
        identity(-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: mat([[0.1, 1]]),
        lambda: mat([[1, 0], [0, 1.0]]),
        lambda: Mat(1, 1, ((0.5,),)),
        lambda: span([(1, 0), (0.25, 1)], 2),
    ],
)
def test_float_entries_are_refused(build):
    with pytest.raises(TypeError, match=r"^matrix entry \(\d, \d\) is the float [\d.]+; ") as err:
        build()
    assert "\n" not in str(err.value)


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)


@st.composite
def rational_matrices(draw, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    """Rational matrices, 0xn and nx0 included, with zero, repeated and multiple rows."""
    r, c = draw(rows), draw(cols)
    data = [[draw(_ENTRIES) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        how = draw(st.sampled_from(("own", "own", "zero", "multiple")))
        if how == "zero":
            data[i] = [0] * c
        elif how == "multiple":
            j = draw(st.integers(0, i - 1))
            f = draw(st.sampled_from((1, -1, 2, Fraction(-3, 4))))
            data[i] = [f * x for x in data[j]]
    return mat(data, r, c)


def _is_exact(m: Mat) -> bool:
    """Fraction entries, read off integer rows over a positive denominator in normal form."""
    entries = [x for row in m.num for x in row]
    return (
        all(type(x) is Fraction for row in m.data for x in row)
        and all(type(x) is int for x in entries)
        and m.den > 0
        and gcd(m.den, *entries) == 1
    )


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
def test_elimination_matches_the_fraction_reference(a):
    red, pivots = rref(a)
    assert (red, pivots) == rref_fractions(a)
    assert _is_exact(red)
    for got, want in ((kernel(a), kernel_fractions(a)), (column_space(a), column_space_fractions(a))):
        assert got == want and _is_exact(got)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_the_fraction_reference(n, k, m, data):
    a = data.draw(rational_matrices(st.just(n), st.just(k)))
    b = data.draw(rational_matrices(st.just(k), st.just(m)))
    prod = matmul(a, b)
    assert prod == matmul_fractions(a, b) and _is_exact(prod)
