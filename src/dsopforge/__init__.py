"""Disjoint sum-of-products covers via cube splitting and weight ordering.

The pieces compose bottom-up: `cubes` is the bit-level cube algebra,
`covers` adds cube lists, containment and tautology checking, `minimize`
rebuilds small SOPs between splitting rounds, `engine` holds the weights,
sort orders and split policies that turn an SOP into a disjoint cover,
`partial` runs the one selection loop (a full DSOP is a partial DSOP
with an empty shared region), `verify` holds the exact cube-level
checker (verify_dsop is verify_partial_dsop on the same empty shared
region), `exact` is the one module that enumerates points (point masks
for small-n oracles and the exact minimum search, whose full-DSOP form
again runs over an empty shared region), and `pla`/`cli` do the file
format and command-line plumbing.
"""

from .covers import (
    Cover,
    FunctionSpec,
    PartialSpec,
    cover_contains_cube,
    cover_intersects_cube,
    is_tautology,
    normalize,
)
from .cubes import (
    ContractViolation,
    Cube,
    DimensionMismatch,
    contains,
    disjoint_sharp,
    intersect,
)
from .engine import (
    SORT_DIMENSION_WEIGHT,
    SORT_POLICIES,
    SORT_WEIGHT_DIMENSION,
    DsopConfig,
    ProgressError,
    WeightedCube,
    dsop,
    sort_cubes,
    weight_all,
)
from .exact import (
    EnumerationCapExceeded,
    chain_family,
    cover_point_mask,
    exact_min_dsop,
    exact_min_partial_dsop,
)
from .minimize import (
    MinimizerBackend,
    MinimizerBackendError,
    build_sop,
    expand_cube,
    irredundant,
)
from .partial import partial_break, partial_dsop
from .pla import (
    PlaFile,
    PlaParseError,
    merged_product_count,
    parse_pla,
    split_outputs,
    write_pla,
)
from .verify import VerificationReport, verify_dsop, verify_partial_dsop

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ContractViolation",
    "Cube",
    "DimensionMismatch",
    "contains",
    "disjoint_sharp",
    "intersect",
    "Cover",
    "FunctionSpec",
    "cover_contains_cube",
    "cover_intersects_cube",
    "is_tautology",
    "normalize",
    "EnumerationCapExceeded",
    "chain_family",
    "cover_point_mask",
    "exact_min_dsop",
    "exact_min_partial_dsop",
    "MinimizerBackend",
    "MinimizerBackendError",
    "build_sop",
    "expand_cube",
    "irredundant",
    "SORT_DIMENSION_WEIGHT",
    "SORT_POLICIES",
    "SORT_WEIGHT_DIMENSION",
    "DsopConfig",
    "ProgressError",
    "WeightedCube",
    "dsop",
    "sort_cubes",
    "weight_all",
    "PartialSpec",
    "partial_break",
    "partial_dsop",
    "VerificationReport",
    "verify_dsop",
    "verify_partial_dsop",
    "PlaFile",
    "PlaParseError",
    "merged_product_count",
    "parse_pla",
    "split_outputs",
    "write_pla",
]
