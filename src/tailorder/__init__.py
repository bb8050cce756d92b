"""Numerical classification of asymptotic polynomial growth order.

Classifies positive functions on (0, inf) by the limiting behaviour of
log U(x) / log x into finite-order, rapid-decay, rapid-growth and
oscillating classes; estimates the moment index by integral-convergence
probing; extracts and verifies exponent representations and integral-ratio
identities; checks order preservation through the Laplace transform; and
runs extreme-value diagnostics (differentiable sufficient conditions,
domain-of-attraction verdicts, threshold-excess probes, block maxima).
"""

from .algebra import (
    compose,
    convolve,
    product,
    reciprocal,
    scale_add,
)
from .errors import (
    ClassMismatch,
    DivergentTail,
    DomainError,
    ExtrapolationFailure,
    FormatError,
    NonDifferentiable,
    ParamError,
    PositivityViolation,
    PreconditionError,
    QuadratureFailure,
    QuantileError,
    SingularDenominator,
    TailOrderError,
    UndecidedConvergence,
    UnknownName,
    UnresolvedValue,
)
from .evt import (
    DAReport,
    DistributionHandle,
    GPDSpec,
    SimulationResult,
    block_maxima_simulate,
    classify_domain_attraction,
    default_a_family,
    distribution_for,
    excess_family_violation,
    frechet_cdf,
    gpd_ratio_probe,
    normalized_maxima_cdf,
    subsequence_witness,
    von_mises_frechet,
    von_mises_gumbel,
)
from .handles import (
    FunctionHandle,
    KnownTruth,
    catalog_names,
    from_table,
    load_csv,
    make_exp_neg,
    make_exp_pos,
    make_floor_log_tail,
    make_log_perturbed_power,
    make_named,
    make_oset_geometric,
    make_oset_tower,
    make_pareto_tail,
    make_peter_paul,
    make_power_tail,
    make_ramp_power,
    make_remark7_mix,
    make_two_plus_sin,
    make_x_pow_sin_x,
)
from .karamata import (
    CumulativeIntegral,
    InfRepresentation,
    RepresentationTriple,
    cumulative_integral,
    extract_representation,
    extract_representation_inf,
    karamata_theorem_report,
    peter_paul_partial_integral,
    verify_representation,
)
from .labels import ClassLabel
from .order import (
    ConditionReport,
    ConvergenceVerdict,
    GridSpec,
    IndexEstimate,
    Trend,
    check_second_characterization,
    classify,
    estimate_kappa,
    estimate_orders,
    order_samples,
    probe_integral_convergence,
    remark_mix_demo,
    rv_ratio_test,
    windowed_limit,
)
from .report import ReportDocument
from .tauberian import (
    laplace_stieltjes,
    regularize_origin,
    tauberian_check,
    transform_handle,
)

__version__ = "0.1.0"
