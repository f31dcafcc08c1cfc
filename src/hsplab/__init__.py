"""Exact simulation and classical solving of Abelian hidden-subgroup
problems phrased as eigenvalue estimation: order and period finding,
factoring, discrete logarithms, general finite Abelian subgroup recovery,
semiclassical one-control-qubit estimation, and many-to-1 robust variants.
"""

from .amplitudes import (
    CapExceeded,
    MeasurementRecord,
    QuantumState,
    RegisterLayout,
    apply_on_register,
    basis_state,
    dimension_cap,
    from_amplitudes,
    l2_distance,
    marginal_distribution,
    measure_register,
    set_dimension_cap,
    uniform_state,
)
from .qft import (
    CLOSEST_LOWER_BOUND,
    EstimatorDistribution,
    apply_fourier,
    choose_register_size,
    circular_distance,
    estimator_distribution,
    fourier,
    inverse_fourier,
)
from .groups import (
    GroupSpec,
    SubgroupGenerators,
    all_subgroups,
    character_kernel,
    character_phase_numerator,
    orthogonality_holds,
    subgroup_enumerate,
    subgroups_equal,
)
from .oracles import (
    OracleInstance,
    PlantedTruth,
    QueryCounter,
    apply_oracle,
    apply_shift,
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
    hsp_control_distribution,
    hsp_sample_batch,
    level_set_law,
    phase_estimate_semiclassical,
    sample_control,
    verify_main_equality,
)
from .postprocess import (
    ConvergentList,
    best_denominator_bounded,
    continued_fractions,
)
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
