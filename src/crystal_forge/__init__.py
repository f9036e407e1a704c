"""Crystal combinatorics for ADE root systems, with quiver-variety numerics.

The package has three layers:

* root data and crystal graphs (`dynkin`, `crystal`, `paths`): build the
  highest-weight crystal of any dominant weight on any ADE diagram via
  piecewise-linear path operators, tensor crystals, and decompose.
* closed-form numerics (`sl2`, `dimensions`): the explicit one-vertex
  (sl2) model and every dimension / emptiness formula for quiver
  varieties, tensor product varieties and multiplicity varieties.
* an exact-arithmetic laboratory (`linalg`, `adhm`) for checking explicit
  ADHM data against the moment-map equation, stability and stratum
  membership.

The package exports the function `decompose`, which hides the submodule
of the same name: `crystal_forge.decompose` is the function.  Reach the
module with `importlib.import_module("crystal_forge.decompose")`.
"""

from .dynkin import (
    DynkinDiagram,
    dynkin,
    parse_diagram,
    induced_subdiagram,
    pairing,
)
from .crystal import (
    CrystalGraph,
    tensor,
    tensor_many,
    direct_sum,
    trivial_crystal,
    verify_axioms,
)
from .paths import build_crystal, highest_path, path_e, path_f, VertexCapError
from .decompose import (
    Decomposition,
    DecompositionError,
    branch,
    decompose,
    highest_vertices,
    is_isomorphic,
    levi_maps,
    multiplicity,
    tensor_summands,
)
from .sl2 import (
    sl2_crystal,
    sl2_mult_range,
    sl2_multiplicity_nonempty,
    sl2_tensor_component,
)
from .dimensions import (
    StratumParams,
    basic_dims,
    strat_dims,
    core_split_fiber_dim,
    flag_split_fiber_dim,
    bistable_split_fiber_dim,
    graded_grassmannian_dim,
    hw_weight,
    v_from_weight,
    gprime_weight,
    gprime_integrable,
)
from .adhm import (
    ADHMDatum,
    GradedFlag,
    check_preprojective,
    closure,
    core,
    is_ast_stable,
    is_nilpotent,
    is_stable,
    random_preprojective,
    stratum_membership,
)

__version__ = "0.1.0"

__all__ = [
    "ADHMDatum",
    "CrystalGraph",
    "Decomposition",
    "DecompositionError",
    "DynkinDiagram",
    "GradedFlag",
    "StratumParams",
    "VertexCapError",
    "basic_dims",
    "bistable_split_fiber_dim",
    "branch",
    "build_crystal",
    "check_preprojective",
    "closure",
    "core",
    "core_split_fiber_dim",
    "decompose",
    "direct_sum",
    "dynkin",
    "flag_split_fiber_dim",
    "gprime_integrable",
    "gprime_weight",
    "graded_grassmannian_dim",
    "highest_path",
    "highest_vertices",
    "hw_weight",
    "induced_subdiagram",
    "is_ast_stable",
    "is_isomorphic",
    "is_nilpotent",
    "is_stable",
    "levi_maps",
    "multiplicity",
    "pairing",
    "parse_diagram",
    "path_e",
    "path_f",
    "random_preprojective",
    "sl2_crystal",
    "sl2_mult_range",
    "sl2_multiplicity_nonempty",
    "sl2_tensor_component",
    "strat_dims",
    "tensor",
    "tensor_many",
    "tensor_summands",
    "trivial_crystal",
    "v_from_weight",
    "verify_axioms",
]
