"""Exact checks on explicit ADHM data.

An ADHM datum on graded spaces (D, V) is a triple (x, p, q): one rational
matrix per oriented edge (zero where the input gives none), and framing
maps p: D -> V, q: V -> D per vertex.  The moment-map equation, with the
orientation sign fixed by the diagram, reads per vertex i:

    sum over edges h into i of  sign(h) * x_h * x_hbar  =  p_i * q_i.

Everything is rational and exact: stability, nilpotency and stratum
membership are discrete questions and are answered by ranks of exact
matrices, never by thresholds.  The equation is checked on integer rows:
per vertex, one signed sum of the products' integer dot products over a
common denominator, with no matrix built per product.

They are decided by invariant-subspace fixpoints (`closure`, `core`,
`is_nilpotent`) that skip every elimination whose answer is already
known.  Graded subspaces are canonicalised once on entry and every step
returns canonical spaces; a canonical space with as many columns as
rows is the identity, and one with no column is zero.  So a full space
is pushed as the edge map itself, a zero space or a map that kills it
pushes nothing, a vertex that is already full takes no image, a full
target or a map that kills S keeps S meet m^{-1}(T) = S, a full S is
cut to the preimage itself, and a zero S is cut no further.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from random import Random
from types import MappingProxyType

from .dynkin import DynkinDiagram, Weight, parse_diagram
from .linalg import (
    Mat,
    _Frozen,
    column_space,
    contains,
    full_space,
    hstack,
    image_of,
    int_mat,
    intersect,
    kernel,
    mat,
    matmul,
    preimage,
    zero_space,
    zeros,
)

GradedSubspace = tuple[Mat, ...]

# Exact elimination on dense rational data grows fast with the dimension, so
# a JSON datum may declare at most this much in sum(v) and in sum(d).
MAX_TOTAL_DIM = 32


def _space_dims(spaces: GradedSubspace) -> Weight:
    return tuple(s.cols for s in spaces)


def zero_graded(dims) -> GradedSubspace:
    return tuple(zero_space(n) for n in dims)


def full_graded(dims) -> GradedSubspace:
    return tuple(full_space(n) for n in dims)


class ADHMDatum(_Frozen):
    """Explicit rational ADHM datum on graded spaces of dimensions d and v.

    `x` is a read-only view of the datum's own dict, one map per oriented
    edge: those given, in their order, then zero maps for the rest in
    `oriented_edges` order.  `p` and `q` are tuples.  Frozen: data with
    equal fields compare equal, but `x` views a dict, so hashing one
    raises TypeError.
    """

    diagram: DynkinDiagram
    d: Weight
    v: Weight
    x: MappingProxyType[tuple[int, int], Mat]
    p: tuple[Mat, ...]
    q: tuple[Mat, ...]

    def __init__(self, diagram, d, v, x, p, q):
        d, v = diagram.check_weight(d), diagram.check_weight(v)
        oriented = set(diagram.oriented_edges)
        for h, m in x.items():
            if h not in oriented:
                raise ValueError(f"{h} is not an oriented edge of {diagram.label}")
            src, dst = h
            if (m.rows, m.cols) != (v[dst], v[src]):
                raise ValueError(
                    f"x{h} has shape {m.rows}x{m.cols}, expected {v[dst]}x{v[src]}"
                )
        if len(p) != diagram.rank or len(q) != diagram.rank:
            raise ValueError("p and q need one matrix per vertex")
        for i in range(diagram.rank):
            if (p[i].rows, p[i].cols) != (v[i], d[i]):
                raise ValueError(f"p[{i}] has the wrong shape")
            if (q[i].rows, q[i].cols) != (d[i], v[i]):
                raise ValueError(f"q[{i}] has the wrong shape")
        x = dict(x)  # the datum's own copy, completed by zero maps on the edges left out
        for s, t in diagram.oriented_edges:
            if (s, t) not in x:
                x[s, t] = zeros(v[t], v[s])
        x = MappingProxyType(x)  # read-only, so the frozen datum stays as built
        self.__dict__.update(diagram=diagram, d=d, v=v, x=x, p=tuple(p), q=tuple(q))


def _moment_rows(datum: ADHMDatum, i: int) -> tuple[list[list[int]], int]:
    """Integer rows over one denominator of the moment map at vertex i,
    skipping zero-size products and zero rows; no `Mat` is built."""
    diagram, x, n = datum.diagram, datum.x, datum.v[i]
    terms = [(-1, datum.p[i], datum.q[i])] + [
        (diagram.orientation_sign((j, i)), x[j, i], x[i, j]) for j in diagram.neighbors(i)
    ]
    terms = [(s, a, b) for s, a, b in terms if a.cols]
    den = lcm(*(a.den * b.den for _, a, b in terms))
    acc = [[0] * n for _ in range(n)]
    for s, a, b in terms:
        f, cols = s * (den // (a.den * b.den)), tuple(zip(*b.num))
        for out, row in zip(acc, a.num):
            if any(row):
                for c, col in enumerate(cols):
                    out[c] += f * sum(map(mul, row, col))
    return acc, den


def preprojective_residual(datum: ADHMDatum) -> tuple[Mat, ...]:
    """Per-vertex value of the moment-map expression, `_moment_rows` as one
    `Mat` in normal form; zero means satisfied."""
    return tuple(int_mat(n, n, *_moment_rows(datum, i)) for i, n in enumerate(datum.v))


def check_preprojective(datum: ADHMDatum) -> bool:
    """Whether the moment-map equation holds exactly at every vertex: the
    integer rows of `_moment_rows`, read up to the first nonzero vertex."""
    return not any(any(map(any, _moment_rows(datum, i)[0])) for i in range(len(datum.v)))


def _fixpoint(step, start):
    """Apply step from start until it returns its argument."""
    while (nxt := step(start)) != start:
        start = nxt
    return start


def _full(s: Mat) -> bool:
    """Whether a canonical space is all of its ambient space (then it is the identity)."""
    return s.cols == s.rows


def _apply(m: Mat, s: Mat) -> Mat:
    """m S for a canonical spanning matrix S: m itself when S is full."""
    return m if _full(s) else matmul(m, s)


def _canonical(spaces) -> GradedSubspace:
    return tuple(column_space(s) for s in spaces)


def _push(datum: ADHMDatum, cur: GradedSubspace, base: GradedSubspace) -> GradedSubspace:
    """base plus the image of cur under every edge map, vertex by vertex.

    cur and base must be canonical: a full base[i] is returned as it is,
    a zero cur[j] contributes nothing, and with no nonzero image left
    base[i] is returned without an elimination.
    """
    x, diagram = datum.x, datum.diagram
    out = []
    for i in range(diagram.rank):
        b = base[i]
        if not _full(b):
            images = [_apply(x[j, i], cur[j]) for j in diagram.neighbors(i) if cur[j].cols]
            images = [m for m in images if not m.is_zero()]
            if images:
                b = column_space(hstack(b, *images))
        out.append(b)
    return tuple(out)


def closure(datum: ADHMDatum, spaces: GradedSubspace) -> GradedSubspace:
    """Smallest x-invariant graded subspace containing the given spans.

    The spans are canonicalised once on entry, so every step can read a
    full space as the identity and a zero space as nothing to push.
    """
    return _fixpoint(lambda cur: _push(datum, cur, cur), _canonical(spaces))


def core(datum: ADHMDatum, spaces: GradedSubspace) -> GradedSubspace:
    """Largest x-invariant graded subspace contained in the given spans.

    The spans are canonicalised once on entry.  A step then keeps S_i
    against a full target, since S meet m^{-1}(V) is S, and against a map
    that kills it; it takes the preimage itself for a full S_i, and stops
    refining S_i once it is zero.
    """
    x, diagram = datum.x, datum.diagram

    def step(cur):
        out = []
        for src in range(diagram.rank):
            piece = cur[src]
            for dst in diagram.neighbors(src):
                if not piece.cols:
                    break
                if _full(cur[dst]) or (m := _apply(x[src, dst], piece)).is_zero():
                    continue
                # S meet m^{-1}(T) is S (m S)^{-1}(T) for spanning matrices S, T,
                # and the canonical preimage itself when S is the identity
                pre = preimage(m, cur[dst])
                piece = pre if _full(piece) else image_of(piece, pre)
            out.append(piece)
        return tuple(out)

    return _fixpoint(step, _canonical(spaces))


def kernel_of_q(datum: ADHMDatum) -> GradedSubspace:
    """Spanning matrices of ker q at each vertex; `core` canonicalises them."""
    return tuple(kernel(m) for m in datum.q)


def is_stable(datum: ADHMDatum) -> bool:
    """Whether the closure of the image of p is all of V."""
    return _space_dims(closure(datum, datum.p)) == datum.v


def is_ast_stable(datum: ADHMDatum) -> bool:
    """Whether the core of the kernel of q is zero."""
    return all(c == 0 for c in _space_dims(core(datum, kernel_of_q(datum))))


def is_nilpotent(datum: ADHMDatum) -> bool:
    """Whether every edge-matrix product of length |dim V| vanishes.

    Iterates the sum-of-images step from the full space.  The image W_k
    of V under the paths of length k is the step applied to W_(k-1), and
    W_1 sits in W_0 = V, so W_k decreases with k: the fixpoint is reached
    within |dim V| + 1 steps, and it is zero exactly when the datum is
    nilpotent.  Every W_k is canonical, so the first step takes the edge
    maps themselves as images of the full space, and a vertex whose W_k
    is zero pushes nothing further.
    """
    zero = zero_graded(datum.v)
    image = _fixpoint(lambda cur: _push(datum, cur, zero), full_graded(datum.v))
    return all(c == 0 for c in _space_dims(image))


class GradedFlag(_Frozen):
    """Increasing chain of graded subspaces of D, ending at the full space.

    Frozen: flags with equal fields compare equal and hash alike.
    """

    diagram: DynkinDiagram
    d: Weight
    steps: tuple[GradedSubspace, ...]

    def __init__(self, diagram, d, steps):
        d = diagram.check_weight(d)
        steps = tuple(tuple(column_space(s) for s in step) for step in steps)
        if not steps:
            raise ValueError("a flag needs at least one step")
        prev = zero_graded(d)
        for k, step in enumerate(steps):
            if tuple(s.rows for s in step) != d:
                raise ValueError(f"flag step {k} lives in the wrong ambient space")
            for i in range(diagram.rank):
                if not contains(step[i], prev[i]):
                    raise ValueError(f"flag step {k} does not contain step {k - 1}")
            prev = step
        if _space_dims(steps[-1]) != d:
            raise ValueError("the last flag step must be the full space")
        self.__dict__.update(diagram=diagram, d=d, steps=steps)

    @property
    def n(self) -> int:
        return len(self.steps)

    def step_dims(self) -> tuple[Weight, ...]:
        """Graded dimensions of the subquotients of consecutive steps."""
        out = []
        prev = (0,) * len(self.d)
        for step in self.steps:
            cur = _space_dims(step)
            out.append(tuple(a - b for a, b in zip(cur, prev)))
            prev = cur
        return tuple(out)


def stratum_membership(
    datum: ADHMDatum, flag: GradedFlag
) -> tuple[tuple[Weight, ...], tuple[Weight, ...]] | None:
    """Check the submodule chain condition and read off the stratum label.

    For each flag step F_k, the closure C_k of p(F_k) must sit inside the
    core K_k of q^{-1}(F_k).  The steps are read with the zero step F_0 = 0
    in front, whose closure is 0 and whose core is the core of ker q.  When
    every step passes, step k >= 1 contributes dim C_k - dim(C_k meet
    K_(k-1)) to the first tuple of the label and dim(C_k meet K_(k-1)) -
    dim C_(k-1) to the second.  Each distinct step costs one closure and
    one core, however often it repeats.  Requires a stable datum.
    """
    if datum.diagram != flag.diagram or datum.d != flag.d:
        raise ValueError("flag and datum live on different framing spaces")
    p, q, vertices = datum.p, datum.q, range(datum.diagram.rank)
    steps = (zero_graded(flag.d),) + flag.steps
    distinct = dict.fromkeys(steps)
    closures = {s: closure(datum, tuple(matmul(p[i], s[i]) for i in vertices)) for s in distinct}
    # the last flag step is all of D, so its closure is the stability closure
    if _space_dims(closures[steps[-1]]) != datum.v:
        raise ValueError("stratum membership is defined for stable data only")
    cores = {s: core(datum, tuple(preimage(q[i], s[i]) for i in vertices)) for s in distinct}
    if not all(contains(cores[s][i], closures[s][i]) for s in distinct for i in vertices):
        return None
    dims = {s: _space_dims(closures[s]) for s in distinct}
    pairs = tuple(zip(steps, steps[1:]))
    meets = {
        (a, b): _space_dims(tuple(intersect(closures[b][i], cores[a][i]) for i in vertices))
        for a, b in dict.fromkeys(pairs)
    }
    return (
        tuple(tuple(c - m for c, m in zip(dims[b], meets[a, b])) for a, b in pairs),
        tuple(tuple(m - c for m, c in zip(meets[a, b], dims[a])) for a, b in pairs),
    )


# -- random preprojective data -----------------------------------------------


def random_preprojective(
    diagram: DynkinDiagram, v, d, rng: Random | int | None = None
) -> ADHMDatum:
    """Sample a datum satisfying the moment-map equation exactly.

    The matrices on the canonical orientation and q are drawn with small
    integer entries; the reversed-orientation matrices and p then solve a
    linear system, and a random solution is taken: a sampling heuristic,
    not a uniform measure on the variety.  A draw whose x and p are zero
    is retried, up to 20 draws in all; when all are (likely when the
    solution space is small, e.g. v = (2,), d = (1,) on A1), the last is
    returned, with p = 0 and every x zero.  Only the returned draw becomes
    an `ADHMDatum` and is checked: a trivial draw needs no check, since
    with x = 0 and p = 0 each moment-map product is zero, whatever q is.
    """
    if rng is None or isinstance(rng, int):
        rng = Random(rng)
    v = diagram.check_weight(v)
    d = diagram.check_weight(d)
    vertices = range(diagram.rank)
    canonical = [(a, b) for a, b in diagram.oriented_edges if a < b]
    # (rows, cols) of the drawn blocks and of the unknown blocks, in draw
    # and solution order; the unknowns are flattened row-major in turn
    drawn = {("x", (s, t)): (v[t], v[s]) for s, t in canonical}
    drawn |= {("q", i): (d[i], v[i]) for i in vertices}
    unknown = {("x", (t, s)): (v[s], v[t]) for s, t in canonical}
    unknown |= {("p", i): (v[i], d[i]) for i in vertices}
    offset, size = {}, 0
    for key, (rows, cols) in unknown.items():
        offset[key], size = size, size + rows * cols
    # the moment map at vertex i as products sign * A * B, one factor unknown
    terms = [
        [(diagram.orientation_sign((j, i)), ("x", (j, i)), ("x", (i, j)))
         for j in diagram.neighbors(i)] + [(-1, ("p", i), ("q", i))]
        for i in vertices
    ]

    for _ in range(20):
        data = {
            key: [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            for key, (rows, cols) in drawn.items()
        }
        equations = []
        for i in vertices:
            for r, c in product(range(v[i]), repeat=2):
                row = [0] * size
                for sign, a, b in terms[i]:
                    if a in unknown:  # (U K)[r][c]: U[r][k] times K[k][c]
                        at, stride = offset[a] + r * unknown[a][1], 1
                        known = [e[c] for e in data[b]]
                    else:  # (K U)[r][c]: K[r][k] times U[k][c]
                        at, stride = offset[b] + c, unknown[b][1]
                        known = data[a][r]
                    for k, e in enumerate(known):
                        row[at + k * stride] += sign * e
                equations.append(row)
        null = kernel(int_mat(len(equations), size, equations))
        coeffs = [rng.randint(-3, 3) for _ in range(null.cols)]
        # the solution is sol / null.den
        sol = [sum(c * e for c, e in zip(coeffs, row) if c) for row in null.num]
        for key, (rows, cols) in unknown.items():
            at = offset[key]
            data[key] = [sol[at + r * cols : at + (r + 1) * cols] for r in range(rows)]
        if size == 0 or any(any(r) for (kind, _), m in data.items() if kind != "q" for r in m):
            break
    blocks = {key: int_mat(*shape, data[key]) for key, shape in drawn.items()}
    blocks |= {key: int_mat(*shape, data[key], null.den) for key, shape in unknown.items()}
    x = {h: m for (kind, h), m in blocks.items() if kind == "x"}
    p, q = (tuple(blocks[kind, i] for i in vertices) for kind in "pq")
    datum = ADHMDatum(diagram, d, v, x, p, q)
    if not check_preprojective(datum):
        raise AssertionError("solved datum fails the moment-map equation")
    return datum


# -- JSON interchange ---------------------------------------------------------


def _list(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "a list" if length is None else f"a list of {length} entries"
        raise ValueError(f"{where} must be {size}")
    return value


def _fractions(value, where: str, length: int | None = None) -> list[Fraction]:
    """A list of [numerator, denominator] integer pairs as Fractions."""
    out = []
    for k, pair in enumerate(_list(value, where, length)):
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(c) is int for c in pair)):
            raise ValueError(f"{where}[{k}] must be a [numerator, denominator] pair of integers")
        if pair[1] == 0:
            raise ValueError(f"{where}[{k}] has denominator 0")
        out.append(Fraction(*pair))
    return out


def _mat_from_json(rows_data, rows: int, cols: int, where: str) -> Mat:
    entries = [
        _fractions(row, f"{where}[{r}]") for r, row in enumerate(_list(rows_data, where))
    ]
    try:
        return mat(entries, rows=rows, cols=cols)
    except ValueError:
        raise ValueError(f"{where} must be a {rows}x{cols} matrix") from None


def _dims(payload: dict, key: str, diagram: DynkinDiagram) -> Weight:
    value = _list(payload[key], key, diagram.rank)
    if not all(type(c) is int and c >= 0 for c in value):
        raise ValueError(f"{key} must list non-negative integers")
    if sum(value) > MAX_TOTAL_DIM:
        raise ValueError(
            f"{key} sums to {sum(value)}, above the maximum total dimension {MAX_TOTAL_DIM}"
        )
    return tuple(value)


def _edge(key: str, diagram: DynkinDiagram) -> tuple[int, int]:
    src, _, dst = key.partition("->")
    try:
        h = (int(src), int(dst))
    except ValueError:
        h = None
    if h not in diagram.oriented_edges:
        raise ValueError(f"x key {key!r} is not an oriented edge \"src->dst\" of {diagram.label}")
    return h


def datum_from_json(payload: dict) -> tuple[ADHMDatum, GradedFlag | None]:
    """Parse a datum (and optional flag) from the JSON interchange format.

    Matrices are arrays of rows whose entries are [numerator, denominator]
    pairs; edge matrices are keyed "src->dst", and the optional flag is a
    list of steps, each a per-vertex list of spanning vectors in D.  A
    payload of the wrong shape, or with a top-level key outside
    diagram, d, v, x, p, q and flag, raises ValueError naming the key.
    """
    if not isinstance(payload, dict):
        raise ValueError("an ADHM datum must be a JSON object")
    for key in payload:
        if key not in ("diagram", "d", "v", "x", "p", "q", "flag"):
            raise ValueError(
                f"ADHM datum has an unknown {key!r} entry; "
                "expected diagram, d, v, x, p, q and optionally flag"
            )
    for key in ("diagram", "d", "v", "p", "q"):
        if key not in payload:
            raise ValueError(f"ADHM datum has no {key!r} entry")
    if not isinstance(payload["diagram"], str):
        raise ValueError("diagram must be a name such as \"A2\"")
    diagram = parse_diagram(payload["diagram"])
    v = _dims(payload, "v", diagram)
    d = _dims(payload, "d", diagram)
    x_data = payload.get("x", {})
    if not isinstance(x_data, dict):
        raise ValueError("x must be an object keyed \"src->dst\"")
    x = {}
    for key, rows_data in x_data.items():
        h = _edge(key, diagram)
        x[h] = _mat_from_json(rows_data, v[h[1]], v[h[0]], f"x[{key!r}]")
    p_data = _list(payload["p"], "p", diagram.rank)
    q_data = _list(payload["q"], "q", diagram.rank)
    p = tuple(_mat_from_json(p_data[i], v[i], d[i], f"p[{i}]") for i in range(diagram.rank))
    q = tuple(_mat_from_json(q_data[i], d[i], v[i], f"q[{i}]") for i in range(diagram.rank))
    datum = ADHMDatum(diagram, d, v, x, p, q)
    flag = None
    if "flag" in payload:
        flag_data = _list(payload["flag"], "flag")
        # a strictly increasing flag in D has at most sum(d) + 1 steps
        if len(flag_data) > MAX_TOTAL_DIM + 1:
            raise ValueError(
                f"flag has {len(flag_data)} steps, above the maximum {MAX_TOTAL_DIM + 1}"
            )
        steps = []
        for s, step in enumerate(flag_data):
            pieces = []
            for i, piece in enumerate(_list(step, f"flag[{s}]", diagram.rank)):
                where = f"flag[{s}][{i}]"
                vectors = [
                    _fractions(vec, f"{where}[{k}]", d[i])
                    for k, vec in enumerate(_list(piece, where))
                ]
                pieces.append(
                    mat([[vec[r] for vec in vectors] for r in range(d[i])],
                        rows=d[i], cols=len(vectors))
                )
            steps.append(tuple(pieces))
        flag = GradedFlag(diagram, d, tuple(steps))
    return datum, flag


def datum_from_json_file(path: str) -> tuple[ADHMDatum, GradedFlag | None]:
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: the JSON nests too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc}") from None
        except ValueError:  # the one other decode error: int() refused a long integer
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{path}: an integer has more than {limit} digits") from None
    return datum_from_json(document)
