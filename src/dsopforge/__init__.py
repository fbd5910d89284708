"""Disjoint sum-of-products covers via cube splitting and weight ordering.

The pieces compose bottom-up: `cubes` is the bit-level cube algebra,
`covers` adds cube lists, containment and tautology checking, `minimize`
rebuilds small SOPs between splitting rounds, `engine` holds the weights,
sort orders and split policies that turn an SOP into a disjoint cover,
`partial` runs the one selection loop (a full DSOP is a partial DSOP
with an empty shared region), `verify` holds the exact cube-level
checker (verify_dsop is verify_partial_dsop on the same empty shared
region), and `pla`/`cli` do the file format and command-line plumbing.
"""

from .covers import (
    Cover,
    EnumerationCapExceeded,
    FunctionSpec,
    cover_contains_cube,
    cover_intersects_cube,
    cover_point_mask,
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
from .minimize import (
    MinimizerBackend,
    MinimizerBackendError,
    build_sop,
    expand_cube,
    irredundant,
)
from .partial import PartialSpec, partial_break, partial_dsop
from .pla import (
    PlaFile,
    PlaParseError,
    merged_product_count,
    parse_pla,
    split_outputs,
    write_pla,
)
from .verify import (
    VerificationReport,
    chain_family,
    exact_min_dsop,
    verify_dsop,
    verify_partial_dsop,
)

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
    "EnumerationCapExceeded",
    "FunctionSpec",
    "cover_contains_cube",
    "cover_intersects_cube",
    "cover_point_mask",
    "is_tautology",
    "normalize",
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
    "chain_family",
    "exact_min_dsop",
    "verify_dsop",
    "verify_partial_dsop",
    "PlaFile",
    "PlaParseError",
    "merged_product_count",
    "parse_pla",
    "split_outputs",
    "write_pla",
]
