"""Exact simulation and classical solving of Abelian hidden-subgroup
problems phrased as eigenvalue estimation: order and period finding,
factoring, discrete logarithms, general finite Abelian subgroup recovery,
semiclassical one-control-qubit estimation, and many-to-1 robust variants.
"""

from .amplitudes import CapExceeded, dimension_cap, set_dimension_cap
from .qft import EstimatorDistribution, choose_register_size, estimator_distribution
from .groups import (
    GroupSpec,
    SubgroupGenerators,
    all_subgroups,
    character_kernel,
    character_phase_numerator,
    subgroups_equal,
)
from .oracles import (
    OracleInstance,
    PlantedTruth,
    QueryCounter,
    classical_invariance_subgroup,
    classical_least_period,
    classical_order,
    instance_from_json,
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
    make_stabiliser_instance,
    wrap_many_to_one,
)
from .estimation import (
    PhaseSample,
    SemiclassicalRun,
    SemiclassicalStep,
    control_distribution,
    hsp_sample_batch,
    phase_estimate_semiclassical,
    sample_control,
)
from .postprocess import best_denominator_bounded
from .algorithms import (
    BudgetExhausted,
    DlogResult,
    HspResult,
    OrderResult,
    PromiseViolation,
    SolverParams,
    factor_via_order,
    find_order,
    find_period,
    robust_hsp,
    robust_period,
    solve_dlog,
    solve_hsp_general,
)

__version__ = "0.1.0"
