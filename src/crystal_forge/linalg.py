"""Exact rational matrices and canonical subspaces.

A matrix carries explicit row/column counts so zero-dimensional spaces
are first-class.  Subspaces of Q^n are represented by their reduced
column-echelon spanning matrices: the representation is unique, so
subspace equality is matrix equality.  Pivots are chosen as the first
nonzero entry; there are no numeric thresholds anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def mat(rows_data, rows: int | None = None, cols: int | None = None) -> Mat:
    data = tuple(tuple(Fraction(x) for x in row) for row in rows_data)
    r = len(data) if rows is None else rows
    c = (len(data[0]) if data else 0) if cols is None else cols
    if not data and r:
        data = tuple(() for _ in range(r)) if c == 0 else data
    return Mat(r, c, data)


def zeros(rows: int, cols: int) -> Mat:
    return Mat(rows, cols, tuple((Fraction(0),) * cols for _ in range(rows)))


def identity(n: int) -> Mat:
    return Mat(
        n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
    )


def matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Mat(
        a.rows,
        b.cols,
        tuple(
            tuple(
                sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), Fraction(0))
                for j in range(b.cols)
            )
            for i in range(a.rows)
        ),
    )


def matadd(a: Mat, b: Mat) -> Mat:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in matrix sum")
    return Mat(
        a.rows,
        a.cols,
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.data, b.data)),
    )


def matneg(a: Mat) -> Mat:
    return Mat(a.rows, a.cols, tuple(tuple(-x for x in row) for row in a.data))


def transpose(a: Mat) -> Mat:
    return Mat(a.cols, a.rows, tuple(a.column(c) for c in range(a.cols)))


def hstack(*blocks: Mat) -> Mat:
    if len({b.rows for b in blocks}) != 1:
        raise ValueError("row mismatch in hstack")
    data = tuple(sum(parts, ()) for parts in zip(*(b.data for b in blocks)))
    return Mat(blocks[0].rows, sum(b.cols for b in blocks), data)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    m = [list(row) for row in a.data]
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        pr = next((k for k in range(r, a.rows) if m[k][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for k in range(a.rows):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return Mat(a.rows, a.cols, tuple(tuple(row) for row in m)), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def kernel(a: Mat) -> Mat:
    """Matrix whose columns form the canonical basis of the null space."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    cols = []
    for fc in free:
        vec = [Fraction(0)] * a.cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        cols.append(vec)
    return Mat(a.cols, len(cols), tuple(tuple(col[r] for col in cols) for r in range(a.cols)))


def column_space(a: Mat) -> Mat:
    """Reduced column-echelon spanning matrix of the column space."""
    red, pivots = rref(transpose(a))
    return Mat(
        a.rows,
        len(pivots),
        tuple(tuple(red.data[k][r] for k in range(len(pivots))) for r in range(a.rows)),
    )


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
    return Mat(dim, 0, tuple(() for _ in range(dim)))


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
    top = Mat(m.cols, k.cols, tuple(k.data[r] for r in range(m.cols)))
    return column_space(top)


def contains(outer: Mat, inner: Mat) -> bool:
    """Whether the inner subspace sits inside the outer one."""
    return subspace_sum(outer, inner) == outer
