"""Independent oracles for the crystal engine.

Weight multiplicities come from Freudenthal's recursion and tensor
decompositions from character peeling; neither touches the path operators
or the graph machinery, so agreement is a genuine cross-check.
"""

from collections import Counter
from fractions import Fraction

from crystal_forge.dynkin import DynkinDiagram, vadd, vsub


def _form(diagram: DynkinDiagram, u, w) -> Fraction:
    """The Weyl-invariant form normalized so roots have square length 2."""
    sol = diagram.solve_cartan(w)
    return sum((Fraction(a) * b for a, b in zip(u, sol)), Fraction(0))


def freudenthal_character(diagram: DynkinDiagram, hw) -> Counter:
    """Weight multiplicities of the irreducible module with highest weight hw."""
    rank = diagram.rank
    hw = diagram.check_weight(hw)
    rho = (1,) * rank
    # (alpha in fundamental coordinates, alpha in root coordinates r):
    # the pairing (nu, alpha) is then the integer sum of nu_i * r_i
    pos_roots = [(diagram.apply_cartan(r), r) for r in diagram.positive_roots()]
    simple_roots = [diagram.simple_root(i) for i in range(rank)]
    top_norm = _form(diagram, vadd(hw, rho), vadd(hw, rho))

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
            denom = top_norm - _form(diagram, vadd(mu, rho), vadd(mu, rho))
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
    height = {mu: sum(diagram.solve_cartan(mu)) for mu in char}
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
