"""Best- and worst-case tail risk of a sum of two ordered risks.

Marginals F and G with F below G in the usual stochastic order admit
couplings of (X, Y) with X ~ F, Y ~ G and X <= Y. This package computes
the extremes of VaR, ES, RVaR, essential infimum/supremum and of
P(X+Y <= t) over that family and over all couplings, via the directed
coupling that attains the constrained extremes, plus samplers and
independent oracles for verification. The imports below are the one list
of public names.
"""

from .bounds import (
    BoundReport,
    best_es_constrained,
    best_es_unconstrained,
    best_ess_sup_constrained,
    best_ess_sup_unconstrained,
    best_rvar_constrained,
    best_rvar_unconstrained,
    best_var_constrained,
    best_var_unconstrained,
    bound_report,
    ct_sum_cdf,
    ct_sum_var,
    dl_sum_var,
    du_reduction,
    prob_lower,
    prob_lower_unconstrained,
    prob_upper,
    prob_upper_unconstrained,
    worst_es_constrained,
    worst_ess_inf_constrained,
    worst_ess_inf_unconstrained,
    worst_rvar_constrained,
    worst_rvar_unconstrained,
    worst_var_constrained,
    worst_var_unconstrained,
)
from .coupling import (
    DlPlan,
    SampleBatch,
    TransportEvaluator,
    dl_cdf,
    dl_plan_discrete,
    dl_sum_cdf,
    export_batch_csv,
    export_plan_csv,
    sample_coupling,
    transport_lower,
    transport_upper,
)
from .dist import (
    Dist,
    Empirical,
    Normal,
    OrderCheckReport,
    Pareto,
    QuantileGrid,
    Uniform,
    check_ss,
    check_st,
    empirical_from_samples,
    es_eval,
    isotonic_pair_projection,
    lower_tail,
    negate_dist,
    read_empirical_csv,
    rvar_eval,
    to_grid,
    upper_tail,
)
from .errors import (
    DegenerateSpreadError,
    DomainError,
    OrderViolationError,
    OrdriskError,
    PlanInfeasibleError,
)
from .oracle import (
    StopLossCurve,
    comonotone_es,
    conditional_tail_ss_check,
    grid_convergence,
    ra_unconstrained_var,
    stop_loss_curve,
    write_stop_loss_csv,
)

__version__ = "0.1.0"
