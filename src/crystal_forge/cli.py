"""Command-line front end.

Exit codes: 0 success, 1 domain error (the message on stderr names the
violated precondition) or an exhausted heap, 2 resource-cap abort.
Output is assembled in full before anything is printed: each command
returns its whole text, and stdout is written once, after it returns, so
no partial JSON is ever emitted and an error writes nothing to stdout.  Identical requests
produce byte-identical output (selftest wall-clock fields excepted).

Weights are comma-separated integers in fundamental-weight coordinates
using the documented vertex numbering.  DOT edge colors come from a fixed
palette indexed by the vertex color modulo the palette size:
red, blue, forestgreen, orange, purple, brown, cyan4, magenta3.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .adhm import (
    datum_from_json_file,
    is_ast_stable,
    is_nilpotent,
    is_stable,
    preprojective_residual,
    stratum_membership,
)
from .crystal import SCHEMA, CrystalGraph, tensor_many
from .decompose import (
    Decomposition,
    _check_product,
    branch,
    decompose,
    multiplicity,
    tensor_summands,
)
from .dimensions import (
    StratumParams,
    basic_dims,
    gprime_integrable,
    gprime_weight,
    hw_weight,
    strat_dims,
    v_from_weight,
)
from .dynkin import parse_diagram
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal
from .sl2 import (
    sl2_crystal,
    sl2_mult_range,
    sl2_multiplicity_nonempty,
    sl2_tensor_component,
)


_NEGATIVE_VALUE = re.compile(r"^-\d[\d,-]*$")


class _Help(Exception):
    """-h or --help: its one argument is the help text, the request's stdout."""


class _Parser(argparse.ArgumentParser):
    # argument errors are domain errors: exit 1, not argparse's default 2
    def error(self, message):
        raise ValueError(message)

    # help is output like any other: `main` writes it and returns 0
    def print_help(self, file=None):
        raise _Help(self.format_help())

    def _parse_optional(self, arg_string):
        # "-1,0" is a value, never an option, also among several values
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weight {text!r}; expected e.g. 1,0,2")


def _dimension_vector(text: str) -> tuple[int, ...]:
    parts = _weight(text)
    if any(c < 0 for c in parts):
        raise argparse.ArgumentTypeError(
            f"dimension vector {text!r} has a negative entry; entries must be >= 0"
        )
    return parts


def _triple(text: str) -> tuple[int, ...]:
    parts = _weight(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a d,v0,v triple, got {text!r}")
    return parts


def _pair(text: str) -> tuple[int, ...]:
    parts = _weight(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a d,v0 pair, got {text!r}")
    return parts


def _json(payload: dict) -> str:
    try:
        return json.dumps({**payload, "schema": SCHEMA}, indent=2, sort_keys=True)
    except ValueError:
        # payloads hold ints, strings, lists, bools and None: the one ValueError
        # json raises on them is an int above the int-to-string digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the result holds an integer of more than {limit} digits") from None


def _crystal_text(crystal: CrystalGraph, fmt: str) -> str:
    if fmt == "dot":
        return crystal.to_dot()
    if fmt == "table":
        lines = [f"# {crystal.diagram.label}: {len(crystal)} vertices"]
        for v, w in enumerate(crystal.weights):
            lines.append(f"{v}\twt={w}")
        for i in range(crystal.diagram.rank):
            for a, b in sorted(crystal.f_maps[i].items()):
                lines.append(f"f_{i}: {a} -> {b}")
        return "\n".join(lines)
    return _json(crystal.to_json_dict())


def _decomposition_text(dec: Decomposition, fmt: str) -> str:
    if fmt == "table":
        lines = [f"# decomposition over {dec.diagram.label}"]
        for w, m in sorted(dec.summands.items(), reverse=True):
            lines.append(f"{w}\tx{m}")
        return "\n".join(lines)
    return _json(dec.to_json_dict())


def _product(args) -> CrystalGraph:
    """Tensor product of the --factors crystals, refused above --max-vertices
    before anything is built."""
    return tensor_many(
        build_crystal(args.diagram, f, max_vertices=args.max_vertices)
        for f in _check_product(args.diagram, args.factors, args.max_vertices)
    )


# Command handlers: each returns the request's whole stdout text and its
# exit code; errors are raised and mapped to exit codes by `main`.


def _roots(args) -> tuple[str, int]:
    diagram = args.diagram
    if args.format == "table":
        lines = [f"# {diagram.label} (rank {diagram.rank})"]
        lines.append("edges: " + ", ".join(map(str, diagram.edges)))
        lines.append("cartan:")
        lines.extend("  " + " ".join(f"{c:3d}" for c in row) for row in diagram.cartan)
        return "\n".join(lines), 0
    payload = {
        "diagram": diagram.label,
        "rank": diagram.rank,
        "edges": [list(e) for e in diagram.edges],
        "oriented_edges": [list(h) for h in diagram.oriented_edges],
        "cartan": [list(r) for r in diagram.cartan],
        "x_matrix": [list(r) for r in diagram.x_matrix],
        "simple_roots": [list(diagram.simple_root(i)) for i in range(diagram.rank)],
    }
    return _json(payload), 0


def _crystal(args) -> tuple[str, int]:
    crystal = build_crystal(args.diagram, args.hw, max_vertices=args.max_vertices)
    return _crystal_text(crystal, args.format), 0


def _tensor(args) -> tuple[str, int]:
    return _crystal_text(_product(args), args.format), 0


def _decompose(args) -> tuple[str, int]:
    if args.format == "table":  # the summands alone, counted from the factors
        summands = tensor_summands(args.diagram, args.factors, args.max_vertices)
        dec = Decomposition(args.diagram, summands)
    else:  # the vertex assignment needs the built product
        dec = decompose(_product(args))
    return _decomposition_text(dec, args.format), 0


def _mult(args) -> tuple[str, int]:
    count = multiplicity(args.diagram, args.target, args.factors, max_vertices=args.max_vertices)
    if args.format == "table":
        return str(count), 0
    payload = {
        "diagram": args.diagram.label,
        "target": list(args.target),
        "factors": [list(f) for f in args.factors],
        "multiplicity": count,
    }
    return _json(payload), 0


def _branch(args) -> tuple[str, int]:
    crystal = build_crystal(args.diagram, args.hw, max_vertices=args.max_vertices)
    dec, sub_diagram = branch(crystal, args.keep)
    if args.format == "table":
        return _decomposition_text(dec, "table"), 0
    payload = dec.to_json_dict()
    payload["subdiagram"] = sub_diagram.label
    payload["kept_vertices"] = sorted(set(args.keep))
    return _json(payload), 0


def _dims(args) -> tuple[str, int]:
    if bool(args.d_tuple) != bool(args.v_tuple):
        given, missing = ("--d-tuple", "--v-tuple") if args.d_tuple else ("--v-tuple", "--d-tuple")
        raise ValueError(f"{given} needs {missing}")
    if args.vt_tuple and not args.d_tuple:
        raise ValueError("--vt-tuple needs --d-tuple and --v-tuple")
    diagram = args.diagram
    payload = {
        "diagram": diagram.label,
        "basic": basic_dims(diagram, args.d, args.v, args.v0),
    }
    if args.v0 is not None:
        payload["hw_weight"] = list(hw_weight(diagram, args.d, args.v0))
    gw = gprime_weight(diagram, args.d, args.v)
    payload["gprime_weight"] = [list(gw[0]), list(gw[1])]
    payload["gprime_integrable"] = gprime_integrable(gw)
    vw = v_from_weight(diagram, args.d, args.v)
    payload["v_from_weight_of_v"] = list(vw) if vw is not None else None
    if args.d_tuple:
        params = StratumParams(
            diagram,
            args.d,
            args.v,
            tuple(args.d_tuple),
            tuple(args.v_tuple),
            tuple(args.vt_tuple) if args.vt_tuple else None,
        )
        payload["strata"] = strat_dims(params)
    return _json(payload), 0


def _sl2_crystal(args) -> tuple[str, int]:
    return _crystal_text(sl2_crystal(args.d, args.v0), args.format), 0


def _sl2_component(args) -> tuple[str, int]:
    v0, v = sl2_tensor_component(tuple(args.first), tuple(args.second))
    return _json({"v0": v0, "v": v}), 0


def _sl2_range(args) -> tuple[str, int]:
    return _json({"v0_range": sl2_mult_range(*args.first, *args.second)}), 0


def _sl2_nonempty(args) -> tuple[str, int]:
    nonempty = sl2_multiplicity_nonempty(*args.first, *args.second, args.v)
    return _json({"nonempty": nonempty}), 0


def _adhm_check(args) -> tuple[str, int]:
    datum, _ = datum_from_json_file(args.file)
    residual = preprojective_residual(datum)
    ok = all(m.is_zero() for m in residual)
    payload = {
        "diagram": datum.diagram.label,
        "preprojective": ok,
        "stable": is_stable(datum),
        "ast_stable": is_ast_stable(datum),
        "nilpotent": is_nilpotent(datum),
    }
    if not ok:
        payload["residual"] = [
            [[c.numerator, c.denominator] for c in row]
            for m in residual
            for row in m.data
        ]
    return _json(payload), 0


def _adhm_stratum(args) -> tuple[str, int]:
    datum, flag = datum_from_json_file(args.file)
    if flag is None:
        raise ValueError("stratum membership needs a \"flag\" entry in the JSON file")
    label = stratum_membership(datum, flag)
    payload = {"diagram": datum.diagram.label, "member": label is not None}
    if label is not None:
        v_tuple, vt_tuple = label
        payload["v_tuple"] = [list(w) for w in v_tuple]
        payload["vt_tuple"] = [list(w) for w in vt_tuple]
    return _json(payload), 0


def _selftest(args) -> tuple[str, int]:
    from .selftest import SEED_DEFAULT, report_to_json, run_criteria

    seed = SEED_DEFAULT if args.seed is None else args.seed
    results = run_criteria(seed=seed, only=set(args.only) if args.only else None)
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        return _json(report_to_json(results)), code
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.cid:4s} {r.name:40s} {status}  {r.seconds:7.2f}s  {r.details}")
    lines.append("FAILURES present" if code else "all criteria passed")
    return "\n".join(lines), code


def build_parser() -> _Parser:
    """The command parser; each leaf command binds its handler as `run`."""
    parser = _Parser(prog="crystal-forge", description=__doc__)
    # the dest names only name a missing or unknown command in error messages
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, run, help):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_common(p, cap=True, fmt=("json", "table")):
        p.add_argument("--diagram", required=True, help="diagram name, e.g. A2, D4, E6")
        p.add_argument("--format", choices=fmt, default="json")
        if cap:
            p.add_argument(
                "--max-vertices",
                type=int,
                default=DEFAULT_VERTEX_CAP,
                help="vertex cap for crystal builds (exit 2 when exceeded)",
            )

    p = leaf(sub, "roots", _roots, "print diagram data: Cartan matrix, X, edges")
    add_common(p, cap=False)

    p = leaf(sub, "crystal", _crystal, "build the crystal of a dominant weight")
    add_common(p, fmt=("json", "dot", "table"))
    p.add_argument("--hw", type=_weight, required=True)

    p = leaf(sub, "tensor", _tensor, "tensor product of highest-weight crystals")
    add_common(p, fmt=("json", "dot", "table"))
    p.add_argument("--factors", type=_weight, nargs="+", required=True)

    p = leaf(sub, "decompose", _decompose, "decompose a tensor product of crystals")
    add_common(p)
    p.add_argument("--factors", type=_weight, nargs="+", required=True)

    p = leaf(sub, "mult", _mult, "multiplicity of a highest weight in a product")
    add_common(p)
    p.set_defaults(format="table")  # bare count by default; --format json for the payload
    p.add_argument("--target", type=_weight, required=True)
    p.add_argument("--factors", type=_weight, nargs="+", required=True)

    p = leaf(sub, "branch", _branch, "restrict a crystal to a subdiagram")
    add_common(p)
    p.add_argument("--hw", type=_weight, required=True)
    p.add_argument("--keep", type=_weight, required=True, help="vertices to keep, e.g. 0,2")

    p = leaf(sub, "dims", _dims, "dimension formulas for quiver strata")
    add_common(p, cap=False, fmt=("json",))
    p.add_argument("--d", type=_dimension_vector, required=True)
    p.add_argument("--v", type=_dimension_vector, required=True)
    p.add_argument("--v0", type=_dimension_vector)
    p.add_argument("--d-tuple", type=_dimension_vector, nargs="+")
    p.add_argument("--v-tuple", type=_dimension_vector, nargs="+")
    p.add_argument("--vt-tuple", type=_dimension_vector, nargs="+")

    p = sub.add_parser("sl2", help="the explicit one-vertex chain model")
    sl2_sub = p.add_subparsers(dest="sl2_command", required=True)
    q = leaf(sl2_sub, "crystal", _sl2_crystal, "chain crystal of a (d, v0) label")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--v0", type=int, required=True)
    q.add_argument("--format", choices=("json", "dot", "table"), default="json")
    q = leaf(sl2_sub, "component", _sl2_component, "image component of a vertex pair")
    q.add_argument("--first", type=_triple, required=True, help="d,v0,v")
    q.add_argument("--second", type=_triple, required=True, help="d,v0,v")
    q = leaf(sl2_sub, "range", _sl2_range, "all v0 occurring in a product of chains")
    q.add_argument("--first", type=_pair, required=True, help="d,v0")
    q.add_argument("--second", type=_pair, required=True, help="d,v0")
    q = leaf(sl2_sub, "nonempty", _sl2_nonempty, "two-factor multiplicity label emptiness")
    q.add_argument("--first", type=_pair, required=True, help="d,v0")
    q.add_argument("--second", type=_pair, required=True, help="d,v0")
    q.add_argument("--v", type=int, required=True)

    p = sub.add_parser("adhm", help="exact checks on explicit ADHM data")
    adhm_sub = p.add_subparsers(dest="adhm_command", required=True)
    q = leaf(adhm_sub, "check", _adhm_check, "moment map, stability, nilpotency")
    q.add_argument("file", help="JSON datum; matrices as [num,den] entries")
    q = leaf(adhm_sub, "stratum", _adhm_stratum, "stratum membership for a flag")
    q.add_argument("file", help="JSON datum with a flag")

    p = leaf(sub, "selftest", _selftest, "run the acceptance criteria")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--seed", type=int)
    p.add_argument("--only", nargs="+", help="criterion ids, e.g. c1 c3")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    text = None
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if "diagram" in args:
            args.diagram = parse_diagram(args.diagram)
        text, code = args.run(args)
    except _Help as exc:
        text, code = exc.args[0], 0
    except VertexCapError as exc:
        hint = "; pass a larger --max-vertices to override" if "max_vertices" in args else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # reported below, once the traceback and all the request built are freed
    if text is None:
        print("error: the request ran out of memory", file=sys.stderr)
        return 1
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
