"""Independent answers the benchmark checks the program against.

Nothing here calls crystal-forge: characters come from Freudenthal's
recursion restricted to dominant weights (then spread over Weyl orbits),
tensor and branching multiplicities from peeling those characters, and
the ADHM checks from plain integer/rational matrix arithmetic.  The only
input taken from the program is the Cartan matrix of a diagram, which is
the shared root data both sides start from.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm


def _inverse(cartan) -> list[list[Fraction]]:
    n = len(cartan)
    aug = [
        [Fraction(cartan[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class RootSystem:
    """Weights, roots and characters of a simply-laced Cartan matrix.

    Weights are integer tuples in fundamental-weight coordinates.  The
    invariant form is kept scaled to integers: `form(u, w)` is `scale`
    times the form in which roots have square length 2.
    """

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(c) for c in row) for row in cartan)
        n = self.rank = len(self.cartan)
        inv = _inverse(self.cartan)
        self.scale = lcm(1, *(x.denominator for row in inv for x in row))
        self.gram = tuple(tuple(int(x * self.scale) for x in row) for row in inv)
        self.alpha = tuple(tuple(self.cartan[j][i] for j in range(n)) for i in range(n))
        self.positive_roots = self._positive_roots()
        self._dominant_chars: dict[tuple, dict] = {}
        self._dominant_of: dict[tuple, tuple] = {}

    def _positive_roots(self) -> tuple[tuple[int, ...], ...]:
        # Simply laced: beta + alpha_j is a root iff <beta, alpha_j> = -1.
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen = set(simple)
        todo = list(simple)
        while todo:
            beta = todo.pop()
            pairing = [sum(self.cartan[j][k] * beta[k] for k in range(n)) for j in range(n)]
            for j in range(n):
                if pairing[j] == -1:
                    nxt = tuple(b + int(k == j) for k, b in enumerate(beta))
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        return tuple(
            tuple(sum(self.cartan[i][k] * beta[k] for k in range(n)) for i in range(n))
            for beta in sorted(seen)
        )

    def form(self, u, w) -> int:
        g = self.gram
        return sum(u[i] * g[i][j] * w[j] for i in range(self.rank) for j in range(self.rank) if u[i] and w[j])

    def height(self, w) -> int:
        """Scaled sum of the root coordinates of w (a linear extension of dominance)."""
        return sum(sum(row[j] * w[j] for j in range(self.rank)) for row in self.gram)

    def dominant(self, w) -> tuple[int, ...]:
        """The dominant Weyl conjugate of w."""
        w = tuple(w)
        hit = self._dominant_of.get(w)
        if hit is not None:
            return hit
        cur = list(w)
        while True:
            i = next((k for k, c in enumerate(cur) if c < 0), None)
            if i is None:
                break
            c = cur[i]
            cur = [x - c * a for x, a in zip(cur, self.alpha[i])]
        out = tuple(cur)
        self._dominant_of[w] = out
        return out

    def orbit(self, mu) -> list[tuple[int, ...]]:
        """Weyl orbit of a dominant weight."""
        mu = tuple(mu)
        seen = {mu}
        todo = [mu]
        while todo:
            w = todo.pop()
            for i, c in enumerate(w):
                if c > 0:
                    nxt = tuple(x - c * a for x, a in zip(w, self.alpha[i]))
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        return list(seen)

    def dominant_character(self, hw) -> dict[tuple[int, ...], int]:
        """Multiplicities of the dominant weights of the irreducible module hw."""
        hw = tuple(hw)
        if any(c < 0 for c in hw):
            raise ValueError(f"{hw} is not dominant")
        hit = self._dominant_chars.get(hw)
        if hit is not None:
            return hit
        # Dominant weights below hw are linked to it by positive-root steps
        # through dominant weights (Stembridge), so a search finds them all.
        seen = {hw}
        todo = [hw]
        while todo:
            mu = todo.pop()
            for a in self.positive_roots:
                nu = tuple(m - x for m, x in zip(mu, a))
                if nu not in seen and all(c >= 0 for c in nu):
                    seen.add(nu)
                    todo.append(nu)
        order = sorted(seen, key=lambda w: (-self.height(w), w))
        rho = (1,) * self.rank
        top = self.form(tuple(c + 1 for c in hw), tuple(c + 1 for c in hw))
        mult = {hw: 1}
        for mu in order[1:]:
            num = 0
            for a in self.positive_roots:
                k = 1
                while True:
                    nu = tuple(m + k * x for m, x in zip(mu, a))
                    c = mult.get(self.dominant(nu))
                    if c is None:
                        break  # alpha-strings through weights are unbroken
                    num += c * self.form(nu, a)
                    k += 1
            shifted = tuple(m + r for m, r in zip(mu, rho))
            den = top - self.form(shifted, shifted)
            q, r = divmod(2 * num, den)
            if r or q <= 0:
                raise AssertionError(f"Freudenthal multiplicity at {mu} is {2 * num}/{den}")
            mult[mu] = q
        self._dominant_chars[hw] = mult
        return mult

    def character(self, hw) -> Counter:
        """Full weight multiset of the irreducible module hw."""
        out: Counter = Counter()
        for mu, m in self.dominant_character(hw).items():
            for w in self.orbit(mu):
                out[w] = m
        return out

    def dimension(self, hw) -> int:
        return sum(m * len(self.orbit(mu)) for mu, m in self.dominant_character(hw).items())

    def peel(self, char) -> Counter:
        """Highest weights (with multiplicity) of a Weyl-invariant character."""
        remaining = {w: c for w, c in char.items() if c and all(x >= 0 for x in w)}
        out: Counter = Counter()
        for nu in sorted(remaining, key=lambda w: (-self.height(w), w)):
            m = remaining[nu]
            if m < 0:
                raise AssertionError(f"negative remainder {m} at {nu}")
            if m == 0:
                continue
            out[nu] = m
            for mu, c in self.dominant_character(nu).items():
                if mu not in remaining:
                    raise AssertionError(f"character has no weight {mu} under {nu}")
                remaining[mu] -= m * c
        return out


def character_product(chars) -> Counter:
    """Character of a tensor product: the Minkowski product of weight multisets."""
    chars = list(chars)
    out = Counter(chars[0])
    for ch in chars[1:]:
        nxt: Counter = Counter()
        for u, cu in out.items():
            for w, cw in ch.items():
                nxt[tuple(a + b for a, b in zip(u, w))] += cu * cw
        out = nxt
    return out


def restrict(char, keep) -> Counter:
    """Character restricted to the Levi subdiagram on the vertices `keep`."""
    keep = sorted(set(keep))
    out: Counter = Counter()
    for w, c in char.items():
        out[tuple(w[j] for j in keep)] += c
    return out


def sub_cartan(cartan, keep):
    keep = sorted(set(keep))
    return [[cartan[i][j] for j in keep] for i in keep]


# -- ADHM -------------------------------------------------------------------


def _matmul(a, b, cols: int):
    """Product of row lists; `cols` keeps the shape when the inner size is 0."""
    if not b:
        return [[Fraction(0)] * cols for _ in a]
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def moment_map_residual(rank, edges, v, d, x, p, q) -> list:
    """Per-vertex sum of sign(h) x_h x_hbar minus p_i q_i.

    `edges` are unordered pairs (a, b); an arrow (s, t) carries sign +1 when
    s < t.  `x` maps arrows to row lists; missing arrows are zero.
    """
    def arrow(s, t):
        m = x.get((s, t))
        return [list(r) for r in m] if m is not None else [[Fraction(0)] * v[s] for _ in range(v[t])]

    out = []
    for i in range(rank):
        acc = [[Fraction(0)] * v[i] for _ in range(v[i])]
        pq = _matmul([list(r) for r in p[i]], [list(r) for r in q[i]], v[i])
        for j in sorted({b for a, b in edges if a == i} | {a for a, b in edges if b == i}):
            term = _matmul(arrow(j, i), arrow(i, j), v[i])
            sign = 1 if j < i else -1
            acc = [[s + sign * t for s, t in zip(ra, rb)] for ra, rb in zip(acc, term)]
        out.append([[s - t for s, t in zip(ra, rb)] for ra, rb in zip(acc, pq)])
    return out


def block_matrix_nilpotent(v, x) -> bool:
    """Whether the matrix assembled from all arrow blocks is nilpotent.

    A nilpotent representation of the doubled quiver makes this matrix
    nilpotent, so a representation reported nilpotent must pass.
    """
    offsets = [sum(v[:i]) for i in range(len(v))]
    n = sum(v)
    if n == 0:
        return True
    big = [[Fraction(0)] * n for _ in range(n)]
    for (s, t), m in x.items():
        for r, row in enumerate(m):
            for c, val in enumerate(row):
                big[offsets[t] + r][offsets[s] + c] = Fraction(val)
    den = lcm(1, *(val.denominator for row in big for val in row))
    ints = [[int(val * den) for val in row] for row in big]
    cols = list(zip(*ints))
    power = ints
    for _ in range(n):
        if not any(any(row) for row in power):
            return True
        power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in power]
    return not any(any(row) for row in power)


def quiver_variety_dim(cartan, d, v) -> int:
    """dim M(v, d) = 2<d, v> - <v, C v> for the Nakajima quiver variety."""
    n = len(v)
    cv = [sum(cartan[i][j] * v[j] for j in range(n)) for i in range(n)]
    return 2 * sum(a * b for a, b in zip(d, v)) - sum(a * b for a, b in zip(v, cv))
