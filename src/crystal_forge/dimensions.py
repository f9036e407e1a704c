"""Closed-form dimensions and emptiness tests for quiver strata.

Every function here is pure integer arithmetic in the pairing <.,.>, the
matrices A and X = 2*Id - A, and A^{-1} = num / den; halved quantities
are computed on the doubled integer with a parity assertion, and
`v_from_weight` keeps a solution only when `den` divides it.
The weight of a label (d, v) is d - Av = d - 2v + Xv.  It is computed in
one place, `dominance_vector`, and every formula has one entry point,
which checks its weights.
The formulas are evaluated wherever the input vectors make sense, whether
or not the stratum they describe is non-empty, so records carry the
relevant non-emptiness flags separately.
"""

from __future__ import annotations

from operator import mul

from .dynkin import DynkinDiagram, Weight, pairing, vadd, vsub
from .linalg import _Frozen


def _half(n: int) -> int:
    if n % 2:
        raise AssertionError(f"expected an even integer, got {n}")
    return n // 2


def _xvv(diagram: DynkinDiagram, v: Weight) -> int:
    return pairing(diagram.apply_x(v), v)


def _locus(diagram: DynkinDiagram, d: Weight, v: Weight) -> int:
    """<Xv, v> + 2<d, v> - <v, v>, the dimension of the stable ADHM locus."""
    return _xvv(diagram, v) + 2 * pairing(d, v) - pairing(v, v)


def dominance_vector(diagram: DynkinDiagram, d, v) -> Weight:
    """The label weight d - Av = d - 2v + Xv, the one place it is computed;
    coordinatewise non-negativity controls emptiness."""
    return vsub(diagram.check_weight(d), diagram.apply_cartan(diagram.check_weight(v)))


def basic_dims(diagram: DynkinDiagram, d, v, v0=None) -> dict:
    """Dimensions of the basic ADHM loci and quiver varieties.

    Keys:
      dim_preprojective    representations of the preprojective algebra in V
      dim_stable_locus     stable (= costable = bistable) ADHM locus
      dim_bistable_locus   same value, kept as its own field
      dim_quiver_variety       the stable locus modulo the gauge group
      dim_bistable_variety     ditto for the bistable locus (same value)
      dim_graded_variety   the v0-graded stable variety (needs v0)
      bistable_nonempty    whether d - 2v + Xv >= 0 coordinatewise
      dominance_vector     that vector itself
    """
    d = diagram.check_weight(d)
    v = diagram.check_weight(v)
    delta = dominance_vector(diagram, d, v)
    locus = _locus(diagram, d, v)
    variety = locus - pairing(v, v)
    out = {
        "dim_preprojective": _half(_xvv(diagram, v)),
        "dim_stable_locus": locus,
        "dim_bistable_locus": locus,
        "dim_quiver_variety": variety,
        "dim_bistable_variety": variety,
        "bistable_nonempty": all(c >= 0 for c in delta),
        "dominance_vector": delta,
    }
    if v0 is not None:
        v0 = diagram.check_weight(v0)
        mss0 = _locus(diagram, d, v0) - pairing(v0, v0)
        out["dim_graded_variety"] = _half(variety) + _half(mss0)
    return out


class StratumParams(_Frozen):
    """Data of a flag-compatible stratum: framing d, total v, and the
    per-step dimension tuples (with the optional complementary tuple).

    Frozen: equal data compare equal and hash alike.
    """

    diagram: DynkinDiagram
    d: Weight
    v: Weight
    d_tuple: tuple[Weight, ...]
    v_tuple: tuple[Weight, ...]
    vt_tuple: tuple[Weight, ...] | None

    def __init__(self, diagram, d, v, d_tuple, v_tuple, vt_tuple=None):
        check = diagram.check_weight
        d, v = check(d), check(v)
        d_tuple = tuple(map(check, d_tuple))
        v_tuple = tuple(map(check, v_tuple))
        if vt_tuple is not None:
            vt_tuple = tuple(map(check, vt_tuple))
        n = len(d_tuple)
        if n < 1 or len(v_tuple) != n:
            raise ValueError("d_tuple and v_tuple must have the same length n >= 1")
        if tuple(map(sum, zip(*d_tuple, strict=True))) != d:
            raise ValueError("d_tuple entries must sum to d")
        if vt_tuple is not None:
            if len(vt_tuple) != n:
                raise ValueError("vt_tuple must have length n")
            if tuple(map(sum, zip(*v_tuple, *vt_tuple))) != v:
                raise ValueError("v_tuple plus vt_tuple must sum to v")
        self.__dict__.update(
            diagram=diagram, d=d, v=v, d_tuple=d_tuple, v_tuple=v_tuple, vt_tuple=vt_tuple
        )

    @property
    def n(self) -> int:
        return len(self.d_tuple)


def flag_variety_dim(v, pieces) -> int:
    """Dimension of the graded partial flag variety with the given subfactors."""
    doubled = pairing(v, v) - sum(pairing(w, w) for w in pieces)
    return _half(doubled)


def graded_grassmannian_dim(w, v) -> int:
    """Dimension <w, v-w> of the graded Grassmannian of w-subspaces of V."""
    return pairing(w, vsub(tuple(v), tuple(w)))


def strat_dims(params: StratumParams) -> dict:
    """Dimensions of the flag-compatible strata and their quotients.

    Keys (fixed-flag entries are None without vt_tuple):
      dim_stratum_flag     stratum with the V-flag fixed
      dim_stratum_vvt      stratum with both subfactor tuples fixed,
                           computed as dim_stratum_flag + the flag variety
                           dimension; independent of vt_tuple
      dim_stratum          stratum with only the v-tuple fixed
      dim_stratum_bistable its bistable open part (same value)
      dim_tensor_variety   the stratum modulo the gauge group
      dim_mult_variety     ditto for the bistable part (same closed form)
      flag_variety_dim     dimension of the base flag variety
    """
    diagram = params.diagram
    d, v = params.d, params.v
    locus = _locus(diagram, d, v)
    vv = pairing(v, v)
    per_step = sum(
        _locus(diagram, ds, vs) - pairing(vs, vs)
        for ds, vs in zip(params.d_tuple, params.v_tuple)
    )
    dim_stratum = _half(locus + vv + per_step)
    dim_variety = dim_stratum - vv
    out = {
        "dim_stratum": dim_stratum,
        "dim_stratum_bistable": dim_stratum,
        "dim_tensor_variety": dim_variety,
        "dim_mult_variety": dim_variety,
        "dim_stratum_flag": None,
        "dim_stratum_vvt": None,
        "flag_variety_dim": None,
    }
    if params.vt_tuple is not None:
        doubled_flag = locus + sum(
            _locus(diagram, ds, vs) + pairing(vts, vts)
            for ds, vs, vts in zip(params.d_tuple, params.v_tuple, params.vt_tuple)
        )
        fl = flag_variety_dim(v, params.v_tuple + params.vt_tuple)
        out["dim_stratum_flag"] = _half(doubled_flag)
        out["dim_stratum_vvt"] = out["dim_stratum_flag"] + fl
        out["flag_variety_dim"] = fl
    return out


def core_split_fiber_dim(diagram: DynkinDiagram, d, u, t) -> int:
    """Fiber dimension of splitting off the largest submodule inside ker q.

    <d, u> + <Xt, u> - <t, u>, where u is the submodule dimension and
    t = v - u the complementary dimension.
    """
    d = diagram.check_weight(d)
    u = diagram.check_weight(u)
    t = diagram.check_weight(t)
    return pairing(d, u) + pairing(diagram.apply_x(t), u) - pairing(t, u)


def flag_split_fiber_dim(params: StratumParams, k: int) -> int:
    """Fiber dimension of cutting a fixed-flag stratum at step k.

    The top part collects the steps after k; with u and c its V- and
    D-dimensions, the fiber is <Xu, v-u> + <c, v-u> + <d-c, u> - <u, v-u>.
    """
    if params.vt_tuple is None:
        raise ValueError("cutting a stratum needs the complementary tuple")
    if not 0 < k < params.n:
        raise ValueError(f"cut position k must satisfy 0 < k < {params.n}")
    diagram = params.diagram
    u = tuple(map(sum, zip(*params.v_tuple[k:], *params.vt_tuple[k:])))
    c = tuple(map(sum, zip(*params.d_tuple[k:])))
    vu = vsub(params.v, u)
    return (
        pairing(diagram.apply_x(u), vu)
        + pairing(c, vu)
        + pairing(vsub(params.d, c), u)
        - pairing(u, vu)
    )


def bistable_split_fiber_dim(diagram: DynkinDiagram, d1, v1, u, d2, v2) -> int:
    """Fiber dimension of splitting off the two bistable ends of a
    two-step bistable stratum around a middle module of dimension u.

    Derived from the two affine-fibration steps in the splitting: a
    vector-bundle count of the off-diagonal blocks minus the moment-map
    equations they satisfy.  It is half the stable-locus dimension of
    (d1 + d2, v1 + u + v2) minus those of (d1, v1), (0, u) and (d2, v2).
    """
    d1, v1, u, d2, v2 = map(diagram.check_weight, (d1, v1, u, d2, v2))
    v = tuple(map(sum, zip(v1, u, v2)))
    zero = (0,) * diagram.rank
    doubled = (
        _locus(diagram, vadd(d1, d2), v)
        - _locus(diagram, d1, v1)
        - _locus(diagram, zero, u)
        - _locus(diagram, d2, v2)
    )
    return _half(doubled)


# -- weight dictionaries ----------------------------------------------------


def hw_weight(diagram: DynkinDiagram, d, v0) -> Weight:
    """Highest weight d - Av0 of the crystal labelled (d, v0): the public
    name of `dominance_vector` for the weight dictionaries."""
    return dominance_vector(diagram, d, v0)


def v_from_weight(diagram: DynkinDiagram, d, mu) -> Weight | None:
    """Solve d - Av = mu, i.e. Av = d - mu.

    Returns None when the solution is not a non-negative integer vector.
    """
    rhs = vsub(diagram.check_weight(d), diagram.check_weight(mu))
    inv = diagram.inverse_cartan()
    v = []
    for row in inv.num:
        q, r = divmod(sum(map(mul, row, rhs)), inv.den)
        if r or q < 0:
            return None
        v.append(q)
    return tuple(v)


def gprime_weight(diagram: DynkinDiagram, d, v) -> tuple[Weight, Weight]:
    """Weight (d - Av + v, v) = (d - v + Xv, v) for the extended (reductive)
    weight lattice, read off the label weight `dominance_vector`, which
    checks d and then v."""
    delta = dominance_vector(diagram, d, v)
    v = diagram.check_weight(v)
    return (vadd(delta, v), v)


def gprime_integrable(pair) -> bool:
    """Integrability of an extended weight (v, u): u >= 0 and v - u >= 0."""
    v, u = pair
    if len(v) != len(u):
        raise ValueError("extended weight components must have equal length")
    return all(c >= 0 for c in u) and all(a - b >= 0 for a, b in zip(v, u))
