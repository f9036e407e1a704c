"""Exact rational matrices and canonical subspaces.

A matrix carries explicit row/column counts so zero-dimensional spaces
are first-class.  Subspaces of Q^n are represented by their reduced
column-echelon spanning matrices: the representation is unique, so
subspace equality is matrix equality.  Pivots are chosen as the first
nonzero entry; there are no numeric thresholds anywhere.

A `Mat` is integer rows `num` over one positive denominator `den`, kept in
normal form: the gcd of `den` and every entry is 1, so equal matrices have
equal fields and equal hashes.  Every operation works on those integers:
`rref` runs fraction-free Gauss-Jordan on `num`, keeping every row
primitive by its gcd, and puts the reduced rows over the lcm of their
pivots; `matmul` takes integer dot products over `a.den * b.den`.  `rref`
is the one elimination: `rank`, `kernel` and `column_space` call it.
`Mat.data` is a read-only view of the entries as `Fraction`s, built on
first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul


class _Record:
    """A record whose fields are the names its class annotates, in order.

    Two records are equal when they have the same class and equal fields,
    read by one `attrgetter`; the repr is `Name(field=value, ...)`.  A
    record is mutable and unhashable unless it is a `_Frozen`.  Written
    out by hand: importing the standard library's record decorator and
    generating methods cost each command-line request 15-20 ms.
    """

    def __init_subclass__(cls):
        # a subclass that annotates nothing keeps its parent's fields
        if fields := tuple(cls.__annotations__):
            cls._fields, cls._key = fields, attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A record that hashes by its fields and refuses assignment and deletion."""

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_shape(rows: int, cols: int, data) -> None:
    if cols < 0 or len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("matrix data does not match declared shape")


class Mat(_Frozen):
    """A rows x cols rational matrix, `num / den` in normal form.

    Frozen: equal shape and entries compare equal and hash alike.
    """

    rows: int
    cols: int
    num: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: int, cols: int, data):
        """The matrix with the given rational entries (ints or Fractions).

        A float is refused: its exact binary value is rarely the number meant.
        """
        _check_shape(rows, cols, data)
        for r, row in enumerate(data):
            for c, x in enumerate(row):
                if isinstance(x, float):
                    raise TypeError(
                        f"matrix entry ({r}, {c}) is the float {x!r}; use an int or a Fraction"
                    )
        pairs = [[x.as_integer_ratio() for x in row] for row in data]
        # over the lcm of the reduced denominators no common factor is left
        den = lcm(*(d for row in pairs for _, d in row))
        num = tuple(tuple(n * (den // d) for n, d in row) for row in pairs)
        self.__dict__.update(rows=rows, cols=cols, num=num, den=den)

    @cached_property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(row[c] for row in self.data)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))


def _mat(rows: int, cols: int, num, den: int) -> Mat:
    """A Mat whose shape and normal form this module guarantees, built without checks."""
    m = object.__new__(Mat)
    m.__dict__.update(rows=rows, cols=cols, num=num, den=den)
    return m


def int_mat(rows: int, cols: int, num, den: int = 1) -> Mat:
    """The matrix num / den from integer rows and a positive denominator."""
    _check_shape(rows, cols, num)
    g = gcd(den, *chain.from_iterable(num)) if den > 1 else 1
    if g > 1:
        num, den = [[x // g for x in row] for row in num], den // g
    return _mat(rows, cols, tuple(map(tuple, num)), den)


def mat(rows_data, rows: int | None = None, cols: int | None = None) -> Mat:
    data = tuple(tuple(row) for row in rows_data)
    r = len(data) if rows is None else rows
    c = (len(data[0]) if data else 0) if cols is None else cols
    if not data and r:
        data = tuple(() for _ in range(r)) if c == 0 else data
    return Mat(r, c, data)


def zeros(rows: int, cols: int) -> Mat:
    return int_mat(rows, cols, ((0,) * cols,) * rows)


def identity(n: int) -> Mat:
    return int_mat(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if not (a.rows and a.cols and b.cols):
        return _mat(a.rows, b.cols, ((0,) * b.cols,) * a.rows, 1)
    cols = tuple(zip(*b.num))
    num = [[sum(map(mul, row, col)) for col in cols] for row in a.num]
    return int_mat(a.rows, b.cols, num, a.den * b.den)


def transpose(a: Mat) -> Mat:
    return _mat(a.cols, a.rows, tuple(zip(*a.num)) if a.rows else ((),) * a.cols, a.den)


def hstack(*blocks: Mat) -> Mat:
    if len({b.rows for b in blocks}) != 1:
        raise ValueError("row mismatch in hstack")
    den = lcm(*(b.den for b in blocks))
    parts = [
        b.num if b.den == den else tuple(tuple(x * (den // b.den) for x in row) for row in b.num)
        for b in blocks
    ]
    num = tuple(sum(rows, ()) for rows in zip(*parts))
    return _mat(blocks[0].rows, sum(b.cols for b in blocks), num, den)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    if not (a.rows and a.cols):
        return a, ()
    m = [[x // g for x in row] if (g := gcd(*row)) > 1 else list(row) for row in a.num]
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        pr = next((k for k in range(r, a.rows) if m[k][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for k, row in enumerate(m):
            f = row[c]
            if f and k != r:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                m[k] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    # a primitive row over its pivot p has reduced denominators with lcm |p|
    den = lcm(*(row[c] for row, c in zip(m, pivots)))
    num = [tuple(x * (den // row[c]) for x in row) for row, c in zip(m, pivots)]
    num += [(0,) * a.cols] * (a.rows - r)
    return _mat(a.rows, a.cols, tuple(num), den), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def kernel(a: Mat) -> Mat:
    """Matrix whose columns form the canonical basis of the null space."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    cols = []
    for fc in free:
        vec = [0] * a.cols
        vec[fc] = red.den
        for r, pc in enumerate(pivots):
            vec[pc] = -red.num[r][fc]
        cols.append(vec)
    return _mat(a.cols, len(cols), tuple(zip(*cols)) if cols else ((),) * a.cols, red.den)


def column_space(a: Mat) -> Mat:
    """Reduced column-echelon spanning matrix of the column space."""
    red, pivots = rref(transpose(a))
    basis = red.num[: len(pivots)]
    return _mat(a.rows, len(pivots), tuple(zip(*basis)) if basis else ((),) * a.rows, red.den)


# -- subspaces (always stored in reduced column-echelon form) ---------------


def span(vectors, dim: int) -> Mat:
    """Canonical subspace spanned by the given coordinate vectors."""
    vectors = list(vectors)
    rows = tuple(tuple(v[r] for v in vectors) for r in range(dim))
    return column_space(Mat(dim, len(vectors), rows))


def zero_space(dim: int) -> Mat:
    return _mat(dim, 0, ((),) * dim, 1)


def full_space(dim: int) -> Mat:
    return identity(dim)


def subspace_sum(a: Mat, b: Mat) -> Mat:
    return column_space(hstack(a, b))


def image_of(m: Mat, s: Mat) -> Mat:
    """Canonical image m(S) of a subspace under a linear map."""
    return column_space(matmul(m, s))


def intersect(a: Mat, b: Mat) -> Mat:
    """Canonical intersection a(a^{-1}(b)) of two subspaces of one ambient space."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch in intersection")
    return image_of(a, preimage(a, b))


def preimage(m: Mat, s: Mat) -> Mat:
    """Canonical preimage {x : m x in S} of a subspace under a linear map."""
    if m.rows != s.rows:
        raise ValueError("ambient dimension mismatch in preimage")
    # (x, y) is in the kernel of [m | s] exactly when m x = s (-y) lies in S;
    # the column space of the x parts does not depend on their scale
    k = kernel(hstack(m, s))
    return column_space(_mat(m.cols, k.cols, k.num[: m.cols], 1))


def contains(outer: Mat, inner: Mat) -> bool:
    """Whether the inner subspace sits inside the outer one."""
    return subspace_sum(outer, inner) == outer
