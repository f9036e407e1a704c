"""Exact rational matrices and canonical subspaces.

A matrix carries explicit row/column counts so zero-dimensional spaces
are first-class.  Subspaces of Q^n are represented by their reduced
column-echelon spanning matrices: the representation is unique, so
subspace equality is matrix equality.  Pivots are chosen as the first
nonzero entry; there are no numeric thresholds anywhere.

Entries are `Fraction`s at the boundary only.  Inside, `rref` and
`matmul` scale each row (or column) by the lcm of its denominators and
work on Python ints: `rref` runs fraction-free Gauss-Jordan, keeping every
row primitive by its gcd, and divides once per nonzero entry at the end;
`matmul` divides each integer dot product once by its two scales.  `rref`
is the one elimination: `rank`, `kernel` and `column_space` call it.
Zero entries of the matrices built here share one `Fraction(0)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__


@dataclass(frozen=True)
class Mat:
    rows: int
    cols: int
    data: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data does not match declared shape")

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(self.data[r][c] for r in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)


def _mat(rows: int, cols: int, data) -> Mat:
    """A Mat whose shape this module guarantees, built without the check."""
    m = _new(Mat)
    m.__dict__.update(rows=rows, cols=cols, data=data)
    return m


def _integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those lcms."""
    out, scales = [], []
    for row in rows:
        pairs = [x.as_integer_ratio() for x in row]
        scale = lcm(*[den for _, den in pairs])
        out.append([num * (scale // den) for num, den in pairs])
        scales.append(scale)
    return out, scales


def _fraction(num: int, den: int) -> Fraction:
    """num/den reduced; every zero is the shared `_ZERO`."""
    if not num:
        return _ZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


def mat(rows_data, rows: int | None = None, cols: int | None = None) -> Mat:
    data = tuple(tuple(Fraction(x) for x in row) for row in rows_data)
    r = len(data) if rows is None else rows
    c = (len(data[0]) if data else 0) if cols is None else cols
    if not data and r:
        data = tuple(() for _ in range(r)) if c == 0 else data
    return Mat(r, c, data)


def zeros(rows: int, cols: int) -> Mat:
    return Mat(rows, cols, ((_ZERO,) * cols,) * rows)


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))


def matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if not (a.rows and a.cols and b.cols):
        return _mat(a.rows, b.cols, ((_ZERO,) * b.cols,) * a.rows)
    left, left_scales = _integer_rows(a.data)
    right, right_scales = _integer_rows(zip(*b.data))
    return _mat(
        a.rows,
        b.cols,
        tuple(
            tuple(
                _fraction(sum(map(mul, row, col)), scale * col_scale)
                for col, col_scale in zip(right, right_scales)
            )
            for row, scale in zip(left, left_scales)
        ),
    )


def matadd(a: Mat, b: Mat) -> Mat:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in matrix sum")
    return _mat(
        a.rows,
        a.cols,
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.data, b.data)),
    )


def matneg(a: Mat) -> Mat:
    return _mat(a.rows, a.cols, tuple(tuple(-x for x in row) for row in a.data))


def transpose(a: Mat) -> Mat:
    return _mat(a.cols, a.rows, tuple(zip(*a.data)) if a.rows else ((),) * a.cols)


def hstack(*blocks: Mat) -> Mat:
    if len({b.rows for b in blocks}) != 1:
        raise ValueError("row mismatch in hstack")
    data = tuple(sum(parts, ()) for parts in zip(*(b.data for b in blocks)))
    return _mat(blocks[0].rows, sum(b.cols for b in blocks), data)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    if not (a.rows and a.cols):
        return a, ()
    m, _ = _integer_rows(a.data)
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
    data = [tuple(_fraction(x, row[c]) for x in row) for row, c in zip(m, pivots)]
    data += [(_ZERO,) * a.cols] * (a.rows - r)
    return _mat(a.rows, a.cols, tuple(data)), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def kernel(a: Mat) -> Mat:
    """Matrix whose columns form the canonical basis of the null space."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    cols = []
    for fc in free:
        vec = [_ZERO] * a.cols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        cols.append(vec)
    return _mat(a.cols, len(cols), tuple(zip(*cols)) if cols else ((),) * a.cols)


def column_space(a: Mat) -> Mat:
    """Reduced column-echelon spanning matrix of the column space."""
    red, pivots = rref(transpose(a))
    basis = red.data[: len(pivots)]
    return _mat(a.rows, len(pivots), tuple(zip(*basis)) if basis else ((),) * a.rows)


# -- subspaces (always stored in reduced column-echelon form) ---------------


def span(vectors, dim: int) -> Mat:
    """Canonical subspace spanned by the given coordinate vectors."""
    vectors = list(vectors)
    m = Mat(
        dim,
        len(vectors),
        tuple(tuple(Fraction(v[r]) for v in vectors) for r in range(dim)),
    )
    return column_space(m)


def zero_space(dim: int) -> Mat:
    return _mat(dim, 0, ((),) * dim)


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
    k = kernel(hstack(m, matneg(s)))
    return column_space(_mat(m.cols, k.cols, k.data[: m.cols]))


def contains(outer: Mat, inner: Mat) -> bool:
    """Whether the inner subspace sits inside the outer one."""
    return subspace_sum(outer, inner) == outer
