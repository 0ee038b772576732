"""Max-min rate allocation and relay selection for half-duplex DF networks."""

from .allocator import (
    AllocationResult,
    RejectReason,
    SingularMatrix,
    TimeAllocation,
    allocate,
    verify_equalization,
)
from .montecarlo import (
    InsufficientSamples,
    OutageCurve,
    outage_rate,
    sweep,
)
from .rate_model import (
    LinkCapacityMatrix,
    RateMatrix,
    RelaySubset,
    SnrConfig,
    build_capacity_matrix,
    build_rate_matrix,
    mutual_informations,
)
from .scenario import (
    FadingParams,
    NumberingScheme,
    Topology,
    fading_params,
    grid_topology,
    linear_topology,
    random_topology,
    renumber,
)
from .selector import (
    InverseBlocks,
    NoFeasibleSolution,
    OptimizationOutcome,
    brute_force_select,
    equal_time_select,
    extend_inverse,
    extend_solution,
    op_count,
    recursive_select,
    root_blocks,
    worst_case_ops,
)

__version__ = "0.1.0"
