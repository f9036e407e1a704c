"""Independent oracles for the crystal engine.

Weight multiplicities come from Freudenthal's recursion and tensor
decompositions from character peeling, or from Brauer's formula over
Freudenthal characters, which never forms the product's character;
none of them touches the path operators or the graph machinery, so
agreement is a genuine cross-check.  Both solve
the Cartan matrix with their own `Fraction` inverse read off
`rref_fractions`, not with the integer inverse in `dynkin`.  The
positive roots have a reference that reflects every root, negative ones
included, in every simple reflection.  The root operators have a plain
Fraction reference that splits segments at rational points, with no
common denominator.  Weyl dimensions have the formula taken one
positive root at a time as their reference.  Stratum labels have a
per-step reference that recomputes every closure and core, with the
first flag step as a special case, and it reads its closures and cores
from the plain fixpoints: `closure_plain`, `core_plain` and
`is_nilpotent_plain` eliminate at every vertex on every step, with no
full or zero shortcut, and canonicalise nothing on entry beyond what
those eliminations do.  Exact linear algebra has the plain
`Fraction` Gauss-Jordan loop as its reference, which the integer
elimination in `linalg.rref` must reproduce entry by entry, and the
moment-map residual has a term-by-term `Fraction` sum as its reference.
Summand certificates have the lockstep pairing as their reference: a
breadth-first walk of the f maps of both closures side by side that
grows the vertex map one edge at a time and never reads a BFS order.
Built crystals expose their paths to tests through `exported_paths`,
which reads the JSON export back as `Fraction` tuples.  Tensor products
have the per-pair signature rule as their reference: one weight tuple,
one payload and one comparison per vertex pair and color, with no rows.
Built crystals have minuscule crystals as their edge-level reference:
B(omega_k) for a minuscule node k is the Weyl group orbit of omega_k,
read off the Cartan matrix without paths, and `bfs_listing` writes any
component in canonical BFS order, so two crystals compare edge for edge.
Adjoint crystals B(theta), theta the highest root, are a second such
reference, and E8's only one, as E8 has no minuscule node: the roots and
one zero-weight vertex per simple root, again read off the Cartan matrix.
The paper's strata have point counts over F_ell as their geometric
reference: for A1 with v = 1 every subspace of V is 0 or V, so a label is
read off which entries of p and q vanish, and the stable data are walked
one per GL_1 orbit; for A2 with v = d = (1, 1) every graded subspace of V
is a set of vertices, and all data are walked, (ell - 1)^2 per orbit of
GL_1 x GL_1, so the edge maps and <Xv, v> take part.  String lengths
have iteration as their reference: f_i and its inverse applied up to n
times from each vertex, with no walk from string starts.
"""

from collections import Counter, deque
from fractions import Fraction
from itertools import product
from operator import mul, sub

from crystal_forge.adhm import kernel_of_q
from crystal_forge.crystal import CrystalGraph, _graph
from crystal_forge.decompose import DecompositionError, _reference, _rooted_components
from crystal_forge.dynkin import DynkinDiagram, vadd, vsub
from crystal_forge.linalg import (
    Mat,
    column_space,
    contains,
    full_space,
    hstack,
    image_of,
    intersect,
    matmul,
    preimage,
    zero_space,
)


def inverse_cartan_fractions(diagram: DynkinDiagram) -> tuple[tuple[Fraction, ...], ...]:
    """A^{-1} as the right half of `rref_fractions` of [A | I]."""
    n = diagram.rank
    aug = tuple(row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(diagram.cartan))
    red, _ = rref_fractions(Mat(n, 2 * n, aug))
    return tuple(row[n:] for row in red.data)


def solve_cartan_fractions(inv, rhs) -> tuple[Fraction, ...]:
    """The rational solution v of A v = rhs, given inv = A^{-1} in Fractions."""
    return tuple(sum((x * r for x, r in zip(row, rhs)), Fraction(0)) for row in inv)


def positive_roots_bfs(diagram: DynkinDiagram) -> tuple[tuple[int, ...], ...]:
    """Positive roots as the orbit of the simple roots under every simple
    reflection, negative roots included, cut to the positive ones."""
    rank = diagram.rank
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        r = queue.pop()
        fund = diagram.apply_cartan(r)
        for i in range(rank):
            s = list(r)
            s[i] -= fund[i]
            s = tuple(s)
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return tuple(sorted(r for r in seen if all(c >= 0 for c in r)))


def weyl_dimension_per_root(roots, hw) -> int:
    """Weyl's dimension formula one positive root at a time: the product
    of <hw + rho, r> over the product of <rho, r>, for roots r in root
    coordinates and a dominant hw."""
    num, den = 1, 1
    for root in roots:
        num *= sum((c + 1) * r for c, r in zip(hw, root))
        den *= sum(root)
    q, r = divmod(num, den)
    assert r == 0, "Weyl dimension did not come out integral"
    return q


def _form(inv, u, w) -> Fraction:
    """The Weyl-invariant form normalized so roots have square length 2."""
    return sum((Fraction(a) * b for a, b in zip(u, solve_cartan_fractions(inv, w))), Fraction(0))


def freudenthal_character(diagram: DynkinDiagram, hw) -> Counter:
    """Weight multiplicities of the irreducible module with highest weight hw."""
    rank = diagram.rank
    hw = diagram.check_weight(hw)
    rho = (1,) * rank
    # (alpha in fundamental coordinates, alpha in root coordinates r):
    # the pairing (nu, alpha) is then the integer sum of nu_i * r_i
    pos_roots = [(diagram.apply_cartan(r), r) for r in diagram.positive_roots()]
    simple_roots = [diagram.simple_root(i) for i in range(rank)]
    inv = inverse_cartan_fractions(diagram)
    top_norm = _form(inv, vadd(hw, rho), vadd(hw, rho))

    mult: dict[tuple, int] = {hw: 1}
    level = [hw]
    while level:
        candidates = sorted({vsub(mu, a) for mu in level for a in simple_roots})
        level = []
        for mu in candidates:
            if mu in mult:
                continue
            num = 0
            for alpha, r in pos_roots:
                k = 1
                while True:
                    nu = tuple(m + k * a for m, a in zip(mu, alpha))
                    c = mult.get(nu)
                    if c is None:
                        break  # alpha-strings through weights are unbroken
                    num += 2 * c * sum(n * ri for n, ri in zip(nu, r))
                    k += 1
            if num == 0:
                continue
            denom = top_norm - _form(inv, vadd(mu, rho), vadd(mu, rho))
            val = num / denom
            assert val.denominator == 1 and val > 0, (mu, val)
            mult[mu] = int(val)
            level.append(mu)
    return Counter(mult)


def character_product(*chars: Counter) -> Counter:
    """Minkowski product of weight multisets (character of a tensor product)."""
    out = Counter({(): 1}) if not chars else None
    for ch in chars:
        if out is None:
            out = Counter(ch)
            continue
        nxt: Counter = Counter()
        for u, cu in out.items():
            for w, cw in ch.items():
                nxt[vadd(u, w)] += cu * cw
        out = nxt
    return out


def peel_character(diagram: DynkinDiagram, char: Counter) -> Counter:
    """Decompose a character into irreducible highest weights.

    Repeatedly removes the character of the maximal-height weight; the
    maximal weight of what remains must always be dominant.
    """

    # height in root coordinates, once per weight
    inv = inverse_cartan_fractions(diagram)
    height = {mu: sum(solve_cartan_fractions(inv, mu)) for mu in char}
    remaining = Counter(char)
    out: Counter = Counter()
    while True:
        remaining = +remaining
        if not remaining:
            return out
        mu = max(remaining, key=lambda m: (height[m], m))
        assert diagram.is_dominant(mu), f"maximal weight {mu} is not dominant"
        m = remaining[mu]
        out[mu] += m
        for w, c in freudenthal_character(diagram, mu).items():
            remaining[w] -= m * c
            assert remaining[w] >= 0, f"negative multiplicity at {w}"


def brauer_klimyk(diagram: DynkinDiagram, factors) -> Counter:
    """Highest weights of V(lam_1) x ... x V(lam_n) with their multiplicities,
    by Brauer's (Klimyk's, Racah-Speiser's) formula folded left to right:
    V(lam) x V(mu) = sum over weights nu of V(mu), m_mu(nu) times, of
    sign(w) V(w(lam + nu + rho) - rho), where w(lam + nu + rho) is dominant.

    Reads only `freudenthal_character` and the Cartan matrix.  rho is
    (1, ..., 1) in fundamental coordinates; a weight with a negative
    coordinate x_i is reflected to x - x_i alpha_i, alpha_i being column i
    of the Cartan matrix, each reflection flipping the sign, until it is
    dominant.  A term whose dominant conjugate has a zero coordinate lies
    on a wall and adds nothing.
    """
    alphas = [tuple(row[i] for row in diagram.cartan) for i in range(diagram.rank)]
    factors = [tuple(f) for f in factors]
    chars = {mu: freudenthal_character(diagram, mu) for mu in set(factors[1:])}
    tops = Counter({factors[0]: 1})
    for mu in factors[1:]:
        nxt: Counter = Counter()
        for lam, m in tops.items():
            for nu, c in chars[mu].items():
                x = [a + b + 1 for a, b in zip(lam, nu)]
                sign = m * c
                while 0 not in x:  # a wall is kept by every reflection
                    low = min(x)
                    if low > 0:
                        nxt[tuple(a - 1 for a in x)] += sign
                        break
                    alpha = alphas[x.index(low)]
                    x = [a - low * r for a, r in zip(x, alpha)]
                    sign = -sign
        assert min(nxt.values(), default=0) >= 0, "Brauer's formula left a negative multiplicity"
        tops = +nxt  # drop the weights whose terms cancelled
    return tops


def exported_paths(crystal: CrystalGraph) -> list[tuple]:
    """Each vertex's path as tuples of Fractions, read back from the JSON export.

    This reads only what `to_json_dict` writes, so it does not depend on how
    a built crystal stores its payloads.
    """
    return [
        tuple(tuple(Fraction(n, d) for n, d in seg) for seg in entry["payload"]["path"])
        for entry in crystal.to_json_dict()["vertices"]
    ]


def _canonical(segments) -> tuple:
    """Drop zero segments and merge neighbours that point the same way."""
    out: list = []
    for seg in segments:
        if not any(seg):
            continue
        if out:
            last = out[-1]
            parallel = all(a * y == b * x for a, x in zip(last, seg) for b, y in zip(last, seg))
            if parallel and sum(a * x for a, x in zip(last, seg)) > 0:
                out[-1] = tuple(a + x for a, x in zip(last, seg))
                continue
        out.append(tuple(seg))
    return tuple(out)


def root_f(diagram: DynkinDiagram, i: int, path):
    """Littelmann's lowering operator f_i on a path of Fraction segments.

    With h the i-th coordinate along the path and m its minimum (an
    integer), reflect by s_i the piece from the last breakpoint at height m
    to the first point after it at height m + 1; None if the path never
    gets there.
    """
    segs = [tuple(Fraction(c) for c in seg) for seg in path]
    heights = [Fraction(0)]
    for seg in segs:
        heights.append(heights[-1] + seg[i])
    m = min(heights)
    assert m.denominator == 1 and heights[-1].denominator == 1, heights
    if heights[-1] < m + 1:
        return None
    k1 = max(k for k, h in enumerate(heights) if h == m)
    j = k1
    while heights[j + 1] < m + 1:
        j += 1
    t = (m + 1 - heights[j]) / segs[j][i]
    piece = segs[k1:j] + [tuple(t * c for c in segs[j])]
    rest = [tuple((1 - t) * c for c in segs[j])] + segs[j + 1 :]
    alpha = diagram.simple_root(i)
    mid = [tuple(c - seg[i] * a for c, a in zip(seg, alpha)) for seg in piece]
    return _canonical(segs[:k1] + mid + rest)


def _reversed_path(path) -> tuple:
    return tuple(tuple(-c for c in seg) for seg in reversed(path))


def root_e(diagram: DynkinDiagram, i: int, path):
    """Raising operator e_i: f_i conjugated by running the path backwards."""
    up = root_f(diagram, i, _reversed_path(path))
    return None if up is None else _reversed_path(up)


def _matmul(a, b) -> list:
    """Product of Fraction matrices given as lists of rows; b has a row."""
    return [
        [sum((x * b[k][c] for k, x in enumerate(row)), Fraction(0)) for c in range(len(b[0]))]
        for row in a
    ]


def _identity(n: int) -> list:
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def edge_matrix_power_vanishes(v, x) -> bool:
    """Whether the sum(v)-th power of the block edge matrix is zero.

    The block edge matrix acts on V = V_0 + ... + V_(n-1) and has x[(s, t)]
    as its (t, s) block.  A nilpotent datum (every long enough product of
    edge maps vanishes) makes it nilpotent, and an N x N nilpotent matrix
    has zero N-th power.
    """
    offsets = [sum(v[:i]) for i in range(len(v))]
    n = sum(v)
    big = [[Fraction(0)] * n for _ in range(n)]
    for (s, t), rows in x.items():
        for r, row in enumerate(rows):
            for c, val in enumerate(row):
                big[offsets[t] + r][offsets[s] + c] = Fraction(val)
    power = _identity(n)
    for _ in range(n):
        power = _matmul(power, big)
    return not any(map(any, power))


def edge_paths_vanish(v, x) -> bool:
    """Whether every product of edge maps along a path of length sum(v) is zero.

    Walks the paths one edge at a time from every vertex, keeping the
    product so far, and drops a path once its product is zero.
    """
    out_edges: dict[int, list] = {}
    for (s, t), rows in x.items():
        out_edges.setdefault(s, []).append((t, [[Fraction(c) for c in row] for row in rows]))
    level = [(i, _identity(v[i])) for i in range(len(v)) if v[i]]
    for _ in range(sum(v)):
        nxt = []
        for s, acc in level:
            for t, m in out_edges.get(s, ()):
                prod = _matmul(m, acc)
                if any(map(any, prod)):
                    nxt.append((t, prod))
        level = nxt
    return not level


def _fixpoint(step, start):
    while (nxt := step(start)) != start:
        start = nxt
    return start


def _push_plain(datum, cur, base):
    """base plus the image of cur under every edge map, one elimination per vertex."""
    x, diagram = datum.x, datum.diagram
    return tuple(
        column_space(hstack(base[i], *(matmul(x[j, i], cur[j]) for j in diagram.neighbors(i))))
        for i in range(diagram.rank)
    )


def closure_plain(datum, spaces):
    """Smallest x-invariant graded subspace containing the spans, pushed without shortcuts."""
    return _fixpoint(lambda cur: _push_plain(datum, cur, cur), tuple(spaces))


def core_plain(datum, spaces):
    """Largest x-invariant graded subspace inside the spans, cut by every edge on every step."""
    x, diagram = datum.x, datum.diagram

    def step(cur):
        out = []
        for src in range(diagram.rank):
            piece = cur[src]
            for dst in diagram.neighbors(src):
                piece = image_of(piece, preimage(matmul(x[src, dst], piece), cur[dst]))
            out.append(piece)
        return tuple(out)

    # the step canonicalises every vertex with a neighbour; the others once here
    start = tuple(s if diagram.neighbors(i) else column_space(s) for i, s in enumerate(spaces))
    return _fixpoint(step, start)


def is_nilpotent_plain(datum) -> bool:
    """Whether the images of V under ever longer edge paths shrink to zero."""
    zero = tuple(zero_space(n) for n in datum.v)
    full = tuple(full_space(n) for n in datum.v)
    image = _fixpoint(lambda cur: _push_plain(datum, cur, zero), full)
    return not any(s.cols for s in image)


def stratum_label_per_step(datum, flag):
    """Stratum label by one closure and one core per flag step, repeated
    steps included, with the core of ker q below the first step."""
    if datum.diagram != flag.diagram or datum.d != flag.d:
        raise ValueError("flag and datum live on different framing spaces")
    rank = datum.diagram.rank
    closures = [closure_plain(datum, tuple(matmul(datum.p[i], step[i]) for i in range(rank)))
                for step in flag.steps]
    if tuple(s.cols for s in closures[-1]) != datum.v:
        raise ValueError("stratum membership is defined for stable data only")
    cores = [core_plain(datum, tuple(preimage(datum.q[i], step[i]) for i in range(rank)))
             for step in flag.steps]
    for k in range(flag.n):
        for i in range(rank):
            if not contains(cores[k][i], closures[k][i]):
                return None
    kernel_core = core_plain(datum, kernel_of_q(datum))
    v_tuple = []
    vt_tuple = []
    prev_closure_dims = (0,) * rank
    for k in range(flag.n):
        lower = kernel_core if k == 0 else cores[k - 1]
        meet_dims = tuple(intersect(closures[k][i], lower[i]).cols for i in range(rank))
        cl_dims = tuple(s.cols for s in closures[k])
        v_tuple.append(tuple(a - b for a, b in zip(cl_dims, meet_dims)))
        vt_tuple.append(tuple(a - b for a, b in zip(meet_dims, prev_closure_dims)))
        prev_closure_dims = cl_dims
    return tuple(v_tuple), tuple(vt_tuple)


def a1_v1_label(p, q, d1: int):
    """`stratum_membership`'s label of an A1 datum with v = 1 and the flag
    0 < F^(d1) < D, read off the row p: D -> V and the column q: V -> D.

    Entries may be integers (the field Q) or residues mod a prime.  Every
    subspace of V = F^1 is 0 or V, so each is kept as its dimension, and
    A1 has no edges, so a closure is an image and a core a preimage:
    C_1 = p(F^(d1)), K_0 = ker q, K_1 = q^-1(F^(d1)), C_0 = 0 and C_2 = V.
    """
    c1 = int(any(p[:d1]))
    k0 = int(not any(q))
    k1 = int(not any(q[d1:]))
    if c1 > k1:  # C_1 is not inside K_1
        return None
    meet = min(c1, k0)  # dim (C_1 meet K_0); C_2 meet K_1 is K_1
    return ((c1 - meet,), (1 - k1,)), ((meet,), (k1 - c1,))


def a1_v1_label_counts(d1: int, d2: int, ell: int) -> Counter:
    """Points over F_ell of each A1 stratum with v = 1 and d = d1 + d2.

    Stable data have p onto V, i.e. p != 0; scaling p's first nonzero entry
    to 1 picks one datum per GL_1 orbit.  A1 has no edges, so the moment
    map is p q = 0.  Data on no stratum are not counted.
    """
    vectors = list(product(range(ell), repeat=d1 + d2))
    counts = Counter()
    for p in vectors:
        if next(filter(None, p), 0) != 1:
            continue
        for q in vectors:
            if sum(map(mul, p, q)) % ell == 0:
                label = a1_v1_label(p, q, d1)
                if label is not None:
                    counts[label] += 1
    return counts


def _a2_dims(s) -> tuple[int, int]:
    return tuple(int(i in s) for i in (0, 1))


def a2_v11_label(x01, x10, p, q, first: int):
    """`stratum_membership`'s label of a stable A2 datum with v = d = (1, 1)
    and the flag 0 < D_first < D, read off its six scalars: x01: V_0 -> V_1,
    x10: V_1 -> V_0, p = (p_0, p_1) and q = (q_0, q_1).

    Entries may be integers (the field Q) or residues mod a prime.  Every
    graded subspace of V is the set of vertices i where it is all of V_i,
    and so is each flag step of D.  A closure adds the head of a nonzero
    edge map whose tail it holds; a core drops the tail of a nonzero edge
    map whose head it lacks.
    """
    edges = [h for h, m in (((0, 1), x01), ((1, 0), x10)) if m]

    def closure(s):
        while (grown := s | {t for a, t in edges if a in s}) != s:
            s = grown
        return s

    def core(s):
        while (cut := s - {a for a, t in edges if t not in s}) != s:
            s = cut
        return s

    steps = [set(), {first}, {0, 1}]  # F_0 = 0, F_1 = D_first, F_2 = D
    closures = [closure({i for i in step if p[i]}) for step in steps]
    cores = [core({i for i in (0, 1) if i in step or not q[i]}) for step in steps]
    if not all(c <= k for c, k in zip(closures, cores)):
        return None
    meets = [_a2_dims(c & k) for c, k in zip(closures[1:], cores)]  # C_k meet K_(k-1)
    dims = list(map(_a2_dims, closures))
    return (
        tuple(tuple(map(sub, c, m)) for c, m in zip(dims[1:], meets)),
        tuple(tuple(map(sub, m, c)) for m, c in zip(meets, dims)),
    )


def a2_v11_stable(x01, x10, p) -> bool:
    """Whether the closure of p(D) is all of V, for v = d = (1, 1) on A2."""
    return all(p) or bool(p[0] and x01) or bool(p[1] and x10)


def a2_v11_label_counts(first: int, ell: int) -> Counter:
    """Points over F_ell of each A2 stratum with v = d = (1, 1) and the flag
    0 < D_first < D, counted on all stable data, not modulo GL_v.

    The moment map reads -x10 x01 - p_0 q_0 = 0 at vertex 0 and
    x01 x10 - p_1 q_1 = 0 at vertex 1.  Data on no stratum are not counted.
    """
    counts = Counter()
    for x01, x10, p0, p1, q0, q1 in product(range(ell), repeat=6):
        if (x10 * x01 + p0 * q0) % ell or (x01 * x10 - p1 * q1) % ell:
            continue
        if a2_v11_stable(x01, x10, (p0, p1)):
            label = a2_v11_label(x01, x10, (p0, p1), (q0, q1), first)
            if label is not None:
                counts[label] += 1
    return counts


def rref_fractions(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions."""
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


def kernel_fractions(a: Mat) -> Mat:
    """Null-space basis read off `rref_fractions`: one column per free column."""
    red, pivots = rref_fractions(a)
    cols = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        vec = [Fraction(0)] * a.cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        cols.append(vec)
    return Mat(a.cols, len(cols), tuple(tuple(col[r] for col in cols) for r in range(a.cols)))


def column_space_fractions(a: Mat) -> Mat:
    """Column space as the transposed nonzero rows of `rref_fractions` of a^T."""
    at = Mat(a.cols, a.rows, tuple(a.column(c) for c in range(a.cols)))
    red, pivots = rref_fractions(at)
    return Mat(
        a.rows,
        len(pivots),
        tuple(tuple(red.data[k][r] for k in range(len(pivots))) for r in range(a.rows)),
    )


def matmul_fractions(a: Mat, b: Mat) -> Mat:
    """Matrix product summed entry by entry in Fractions."""
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


def _fraction_sum(a: Mat, b: Mat) -> Mat:
    rows = zip(a.data, b.data)
    return Mat(a.rows, a.cols, tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in rows))


def _fraction_neg(a: Mat) -> Mat:
    return Mat(a.rows, a.cols, tuple(tuple(-x for x in row) for row in a.data))


def preprojective_residual_fractions(datum) -> tuple[Mat, ...]:
    """Per-vertex sign * x x sums minus p q, added and negated matrix by matrix in Fractions."""
    diagram = datum.diagram
    out = []
    for i in range(diagram.rank):
        acc = _fraction_neg(matmul_fractions(datum.p[i], datum.q[i]))
        for j in diagram.neighbors(i):
            h = (j, i)
            term = matmul_fractions(datum.x[h], datum.x[i, j])
            if diagram.orientation_sign(h) < 0:
                term = _fraction_neg(term)
            acc = _fraction_sum(acc, term)
        out.append(acc)
    return tuple(out)


def strings_by_iteration(fm: dict, n: int):
    """(eps row, phi row) of one f map on n vertices, or None when two
    vertices share an image.

    eps(v) and phi(v) count how often the inverse of f and f apply to v,
    each applied up to n times; a vertex to which f applies n times lies
    on a cycle, and its entries are None.
    """
    if len(set(fm.values())) < len(fm):
        return None
    inverse = {b: a for a, b in fm.items()}
    rows = ([], [])
    for v in range(n):
        counts = []
        for step in (inverse, fm):
            k, cur = 0, v
            while cur in step and k < n:
                k, cur = k + 1, step[cur]
            counts.append(k)
        on_cycle = counts[1] == n
        for row, k in zip(rows, counts):
            row.append(None if on_cycle else k)
    return rows


def tensor_per_pair(left: CrystalGraph, right: CrystalGraph) -> CrystalGraph:
    """The tensor product by the signature rule, one vertex pair at a time.

    f_i acts on the left factor when phi_i(a) > eps_i(b), else on the right.
    Vertex (a, b) gets id a*|right| + b, and each f map lists its edges by
    increasing source id.
    """
    nr = len(right)
    weights = [vadd(wa, wb) for wa in left.weights for wb in right.weights]
    f_maps = [{} for _ in range(left.diagram.rank)]
    for i, fm in enumerate(f_maps):
        for a in range(len(left)):
            for b in range(nr):
                if left.phi(a, i) > right.epsilon(b, i):
                    fm[a * nr + b] = left.f(i, a) * nr + b
                elif right.f(i, b) is not None:
                    fm[a * nr + b] = a * nr + right.f(i, b)
    payloads = [("pair", a, b) for a in range(len(left)) for b in range(nr)]
    return _graph(left.diagram, weights, f_maps, payloads)


def minuscule_nodes(diagram: DynkinDiagram) -> tuple[int, ...]:
    """The nodes k of a connected diagram whose omega_k is minuscule."""
    family, n = diagram.label[0], diagram.rank
    if family == "A":
        return tuple(range(n))
    if family == "D":
        return (0, n - 2, n - 1)
    return {"E6": (0, 4), "E7": (5,), "E8": ()}[diagram.label]


def minuscule_crystal(diagram: DynkinDiagram, node: int) -> CrystalGraph:
    """B(omega_node) as the Weyl group orbit of omega_node, for a minuscule node.

    Every pairing <mu, alpha_i^v> = mu_i on the orbit is -1, 0 or 1, and
    f_i mu = mu - alpha_i exactly when it is 1.  Vertices are numbered as
    the orbit is reached, colours in order.
    """
    rank = diagram.rank
    top = tuple(int(j == node) for j in range(rank))
    ids = {top: 0}
    weights = [top]
    f_maps: list[dict[int, int]] = [{} for _ in range(rank)]
    for k, mu in enumerate(weights):  # weights grows as the orbit is reached
        assert set(mu) <= {-1, 0, 1}, f"omega_{node} of {diagram.label} is not minuscule"
        for i in range(rank):
            if mu[i] == 1:
                nu = vsub(mu, diagram.simple_root(i))
                if nu not in ids:
                    ids[nu] = len(weights)
                    weights.append(nu)
                f_maps[i][k] = ids[nu]
    return CrystalGraph(diagram, weights, f_maps)


def quasi_minuscule_crystal(diagram: DynkinDiagram, node: int) -> CrystalGraph:
    """B(theta) for the highest root theta = omega_node: the roots and 0_0, ..., 0_(n-1).

    Every pairing <beta, alpha_i^v> = beta_i on a root beta is -2, ..., 2,
    with 2 only at beta = alpha_i.  f_i beta = beta - alpha_i when beta_i
    is 1; f_i alpha_i is the zero-weight vertex 0_i, and f_i 0_i = -alpha_i.
    Vertices are numbered as they are reached, colours in order.
    """
    rank = diagram.rank
    alphas = [diagram.simple_root(i) for i in range(rank)]
    top = tuple(int(j == node) for j in range(rank))
    ids = {top: 0}
    keys = [top]  # a root's weight, or ("zero", i) for 0_i
    f_maps: list[dict[int, int]] = [{} for _ in range(rank)]
    for k, key in enumerate(keys):  # keys grows as vertices are reached
        for i in range(rank):
            if key == ("zero", i):
                nxt = tuple(-a for a in alphas[i])
            elif key == alphas[i]:
                nxt = ("zero", i)
            elif key[0] != "zero" and key[i] == 1:
                nxt = vsub(key, alphas[i])
            else:
                assert key[0] == "zero" or key[i] < 1, f"{key} is not a root below omega_{node}"
                continue
            if nxt not in ids:
                ids[nxt] = len(keys)
                keys.append(nxt)
            f_maps[i][k] = ids[nxt]
    zero = (0,) * rank
    return CrystalGraph(diagram, [zero if key[0] == "zero" else key for key in keys], f_maps)


def bfs_listing(crystal: CrystalGraph, source: int) -> tuple:
    """The f-closure of source in canonical BFS order.

    Vertices are renumbered as first reached from source, colours in
    order.  Each gets the row (weight, targets), where targets holds the
    new number of f_i of it for each colour i, or None.  Two closures are
    isomorphic, source to source, exactly when their listings are equal.
    """
    ids = {source: 0}
    order = [source]
    rows = []
    for v in order:  # order grows as vertices are reached
        targets = []
        for fm in crystal.f_maps:
            t = fm.get(v)
            if t is not None and t not in ids:
                ids[t] = len(order)
                order.append(t)
            targets.append(None if t is None else ids[t])
        rows.append((crystal.weights[v], tuple(targets)))
    return tuple(rows)


def pair_from_sources(a: CrystalGraph, b: CrystalGraph, src_a: int, src_b: int) -> dict | None:
    """Pair the f-closures of two sources by walking the f maps in lockstep.

    Definedness and weights must match throughout, and the pairing must
    stay injective.  Returns the bijection of the closures, or None.
    """
    if a.weights[src_a] != b.weights[src_b]:
        return None
    fwd = {src_a: src_b}
    bwd = {src_b: src_a}
    queue = deque([src_a])
    while queue:
        va = queue.popleft()
        vb = fwd[va]
        for map_a, map_b in zip(a.f_maps, b.f_maps):
            ta = map_a.get(va)
            tb = map_b.get(vb)
            if (ta is None) != (tb is None):
                return None
            if ta is None:
                continue
            known = fwd.get(ta)
            if known is not None:
                if known != tb:
                    return None
                continue
            if tb in bwd:
                return None
            if a.weights[ta] != b.weights[tb]:
                return None
            fwd[ta] = tb
            bwd[tb] = ta
            queue.append(ta)
    return fwd


def is_isomorphic_lockstep(a: CrystalGraph, b: CrystalGraph) -> dict | None:
    """The isomorphism of two direct sums of highest-weight crystals, or None;
    components are matched greedily, each pair by lockstep pairing."""
    if a.diagram != b.diagram or len(a) != len(b):
        return None
    pairs_a = _rooted_components(a)
    pairs_b = _rooted_components(b)
    if len(pairs_a) != len(pairs_b):
        return None
    used = [False] * len(pairs_b)
    total: dict = {}
    for src_a, comp_a in pairs_a:
        for k, (src_b, comp_b) in enumerate(pairs_b):
            if used[k] or len(comp_b) != len(comp_a):
                continue
            m = pair_from_sources(a, b, src_a, src_b)
            if m is not None:
                used[k] = True
                total.update(m)
                break
        else:
            return None
    return total


def decompose_lockstep(crystal: CrystalGraph) -> list[tuple]:
    """(hw, source, iso) per summand as `decompose.decompose` finds them, each
    closure paired with vertex 0 of its reference crystal in lockstep.

    Raises DecompositionError with the messages `decompose` uses.
    """
    diagram = crystal.diagram
    out = []
    for src, comp in _rooted_components(crystal):
        hw = crystal.weights[src]
        if not diagram.is_dominant(hw):
            raise DecompositionError(f"component source {src} has non-dominant weight {hw}")
        iso = None
        if len(comp) == diagram.weyl_dimension(hw):
            iso = pair_from_sources(crystal, _reference(diagram, hw).crystal, src, 0)
        if iso is None:
            raise DecompositionError(
                f"component containing vertex {min(comp)} is not isomorphic to the "
                f"highest-weight crystal of {hw}"
            )
        out.append((hw, src, iso))
    return out
