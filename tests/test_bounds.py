"""Best/worst risk measure bounds, probability bounds and reports."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ordrisk import bounds as B
from ordrisk.coupling import TransportEvaluator
from ordrisk.dist import (
    Empirical,
    Normal,
    Pareto,
    QuantileGrid,
    Uniform,
    empirical_from_samples,
    es_eval,
    negate_dist,
    to_grid,
)
from ordrisk.errors import DegenerateSpreadError, DomainError, OrderViolationError

finite = dict(allow_nan=False, allow_infinity=False)

PF = Pareto(1.0, 1.0)
PG = Pareto(2.0, 1.0)
SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# essential bounds


def test_worst_ess_inf_exact():
    assert B.worst_ess_inf_constrained(PF, PG) == 4.0


def test_worst_ess_inf_grid_route():
    got = B.worst_ess_inf_constrained(to_grid(PF, 10_000), to_grid(PG, 10_000))
    assert_allclose(got, 4.0, atol=1e-3)


def test_worst_ess_inf_unconstrained():
    assert_allclose(B.worst_ess_inf_unconstrained(PF, PG), 3.0 + 2.0 * SQ2, atol=1e-6)


def test_best_ess_sup_unconstrained_uniforms():
    # countermonotone: max over u of u + 1.5 (1 - u), attained at u = 0
    got = B.best_ess_sup_unconstrained(Uniform(0, 1), Uniform(0, 1.5))
    assert_allclose(got, 1.5, rtol=1e-9)


def test_ess_inf_comonotone_floor():
    # the comonotone coupling attains the unconstrained best
    assert PF.quantile_left(0.0) + PG.quantile_left(0.0) == 3.0


def test_best_ess_sup_mirror():
    f, g = Uniform(0, 1), Uniform(0.5, 1.5)
    got = B.best_ess_sup_constrained(f, g)
    # any directed coupling must reach at least the top of G
    assert got <= f.support_hi + g.support_hi + 1e-9
    assert got >= g.support_hi - 1e-9


def test_best_ess_sup_infinite_support():
    assert math.isinf(B.best_ess_sup_constrained(PF, PG))


def test_best_ess_sup_unbounded_g_only():
    # X >= 0 and Y unbounded above: the reflected scan must not stop at the
    # truncation level of -Y
    assert B.best_ess_sup_constrained(Uniform(0, 1), PF) == math.inf


def test_ess_inf_open_support():
    # normal marginals have no lower endpoint
    assert B.worst_ess_inf_constrained(Normal(0, 1), Normal(1, 1)) == -math.inf


# ---------------------------------------------------------------------------
# VaR bounds


@pytest.mark.parametrize("p", [0.5, 0.9, 0.95, 0.99])
def test_pareto_var_bounds(p):
    assert_allclose(B.worst_var_constrained(PF, PG, p), 4.0 / (1.0 - p), rtol=1e-3)
    assert_allclose(B.best_var_constrained(PF, PG, p), 1.0 + 2.0 / (1.0 - p), rtol=1e-3)


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_pareto_best_var_exact(p):
    assert_allclose(B.best_var_constrained(PF, PG, p), 1.0 + 2.0 / (1.0 - p), rtol=1e-8)


@pytest.mark.parametrize(
    "f, g",
    [(Normal(0.0, 1.0), Normal(0.5, 1.0)), (Pareto(25.0, 2.0), Pareto(30.0, 2.0))],
    ids=["normal", "pareto"],
)
@settings(max_examples=10, deadline=None)
@given(st.floats(0.5, 0.999, **finite))
@example(0.5)
@example(0.9)
@example(0.99)
@example(0.999)
def test_best_var_above_twice_lower_quantile(f, g, p):
    # X <= Y gives X + Y >= 2 X, so VaR_p(X + Y) >= 2 F^{-1}(p) for every coupling
    assert B.best_var_constrained(f, g, p) >= 2.0 * f.quantile_left(p)


def test_constrained_var_checks_whole_pair():
    # the upper 0.95-tails are ordered, the whole pair is not
    f, g = Uniform(0, 100), Uniform(-10, 120)
    with pytest.raises(OrderViolationError):
        B.worst_var_constrained(f, g, 0.95)
    with pytest.raises(OrderViolationError):
        B.best_var_constrained(f, g, 0.95)
    # the same pair as 1,000 midpoint atoms takes the plan route, whose
    # upper-tail check alone let worst VaR return 213.385
    mid = (np.arange(1000) + 0.5) / 1000
    f = empirical_from_samples(100.0 * mid)
    g = empirical_from_samples(-10.0 + 130.0 * mid)
    with pytest.raises(OrderViolationError):
        B.worst_var_constrained(f, g, 0.95)
    with pytest.raises(OrderViolationError):
        B.best_var_constrained(f, g, 0.95)


def test_best_var_at_least_twice_lower_quantile_below_half():
    # the reflected level 1 - (1 - p) is not p in floating point here
    f, g = Uniform(0, 100), Uniform(0, 120)
    assert B.best_var_constrained(f, g, 0.1) == 20.0


def test_makarov_values():
    assert_allclose(B.worst_var_unconstrained(PF, PG, 0.5), 6.0 + 4.0 * SQ2, rtol=1e-6)
    assert_allclose(B.best_var_unconstrained(PF, PG, 0.5), 5.0, rtol=1e-9)


def test_uniform_var_bounds():
    f, g = Uniform(0, 100), Uniform(0, 120)
    assert_allclose(B.worst_var_constrained(f, g, 0.95), 214.0, rtol=1e-6)
    assert_allclose(B.best_var_constrained(f, g, 0.95), 190.0, rtol=1e-9)
    assert_allclose(B.worst_var_unconstrained(f, g, 0.95), 214.0, rtol=1e-6)
    assert_allclose(B.best_var_unconstrained(f, g, 0.95), 114.0, rtol=1e-6)


def test_var_level_validation():
    with pytest.raises(DomainError):
        B.worst_var_constrained(PF, PG, 0.0)
    with pytest.raises(DomainError):
        B.best_var_constrained(PF, PG, 1.0)


def test_empirical_var_plan_route():
    rng = np.random.default_rng(0)
    f = empirical_from_samples(rng.uniform(0, 1, 800))
    g = empirical_from_samples(rng.uniform(0, 1, 800) + 0.5)
    w = B.worst_var_constrained(f, g, 0.9, grid_n=2000)
    b = B.best_var_constrained(f, g, 0.9, grid_n=2000)
    assert b <= w
    u = B.worst_var_unconstrained(f, g, 0.9)
    l = B.best_var_unconstrained(f, g, 0.9)
    assert l <= b + 1e-6 and w <= u + 1e-6


# ---------------------------------------------------------------------------
# ES and RVaR bounds


def test_worst_es_additive():
    f, g = Uniform(0, 100), Uniform(0, 120)
    assert_allclose(B.worst_es_constrained(f, g, 0.9), es_eval(f, 0.9) + es_eval(g, 0.9))


def test_worst_es_infinite_tail():
    assert math.isinf(B.worst_es_constrained(PF, PG, 0.5))


def test_best_es_orders():
    f, g = Uniform(0, 100), Uniform(0, 120)
    cb = B.best_es_constrained(f, g, 0.9)
    ub = B.best_es_unconstrained(f, g, 0.9)
    cw = B.worst_es_constrained(f, g, 0.9)
    assert ub <= cb + 1e-6
    assert cb <= cw + 1e-6


def test_uniform_rvar_values():
    f, g = Uniform(0, 1), Uniform(0, 1.5)
    assert_allclose(B.worst_rvar_constrained(f, g, 0.0, 0.5), 0.75, atol=2e-3)
    assert_allclose(B.worst_rvar_constrained(f, g, 0.0, 0.9), 1.17222, atol=2e-3)


def test_rvar_limits_bracket_var():
    f, g = Uniform(0, 1), Uniform(0, 1.5)
    w = B.worst_rvar_constrained(f, g, 0.5, 0.95)
    assert B.best_rvar_constrained(f, g, 0.5, 0.95) <= w + 1e-9
    assert w <= B.worst_rvar_unconstrained(f, g, 0.5, 0.95) + 1e-3


def test_rvar_validation():
    with pytest.raises(DomainError):
        B.worst_rvar_constrained(PF, PG, 0.9, 0.5)
    with pytest.raises(DomainError):
        B.best_rvar_constrained(PF, PG, 0.0, 0.5)


# ---------------------------------------------------------------------------
# probability bounds


@pytest.mark.parametrize("t", [5.0, 6.0, 8.0, 16.0])
def test_prob_bounds_pareto_formulas(t):
    assert_allclose(B.prob_lower(PF, PG, t), 1.0 - 4.0 / t if t >= 4 else 0.0, atol=2e-3)
    assert_allclose(B.prob_upper(PF, PG, t), 1.0 - 2.0 / (t - 1.0), atol=2e-3)


def test_prob_bounds_clamp():
    assert B.prob_lower(PF, PG, 1.0) == 0.0
    assert B.prob_upper(PF, PG, 2.9) == 0.0
    assert B.prob_lower(PF, PG, 1e12) > 0.999999


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_prob_duality(p):
    t = B.worst_var_constrained(PF, PG, p)
    assert_allclose(B.prob_lower(PF, PG, t), p, atol=1e-4)


def test_prob_nesting():
    for t in (5.0, 8.0, 12.0):
        m = B.prob_lower_unconstrained(PF, PG, t)
        mo = B.prob_lower(PF, PG, t)
        big_mo = B.prob_upper(PF, PG, t)
        big_m = B.prob_upper_unconstrained(PF, PG, t)
        assert m <= mo + 1e-4
        assert mo <= big_mo + 1e-4
        assert big_mo <= big_m + 1e-4


# ---------------------------------------------------------------------------
# coupling VaR curves


def test_dl_sum_var_reuse():
    from ordrisk.coupling import dl_plan_discrete

    plan = dl_plan_discrete(PF, PG, 2000, 0.0)
    a = B.dl_sum_var(PF, PG, 0.9, plan=plan)
    b = B.dl_sum_var(PF, PG, 0.9, grid_n=2000)
    assert_allclose(a, b, rtol=1e-12)


def test_ct_sum_var_constant():
    # countermonotone sum of identical uniforms is constant
    v = B.ct_sum_var(Uniform(0, 1), Uniform(0, 1), 0.7, grid_n=4000)
    assert_allclose(v, 1.0, atol=1e-3)


def test_coupling_var_between_bounds():
    for p in (0.9, 0.95):
        lo = B.best_var_constrained(PF, PG, p)
        hi = B.worst_var_constrained(PF, PG, p)
        v = B.dl_sum_var(PF, PG, p, grid_n=20_000)
        assert lo - 0.05 <= v <= hi + 0.05


# ---------------------------------------------------------------------------
# spread reduction and reports


def test_du_reduction_arithmetic():
    r_l, r_u, r = B.du_reduction(0.0, 10.0, 3.0, 9.0)
    assert_allclose([r_l, r_u, r], [0.3, 0.1, 0.4])


def test_du_reduction_errors():
    with pytest.raises(DegenerateSpreadError):
        B.du_reduction(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateSpreadError):
        B.du_reduction(0.0, math.inf, 1.0, 2.0)
    with pytest.raises(DomainError):
        B.du_reduction(0.0, 10.0, 9.0, 3.0)
    # the nesting is checked on the extended reals before the spread
    with pytest.raises(DomainError):
        B.du_reduction(248.4, math.inf, 219.7, math.inf)


REPORT_KEYS = {
    "measure",
    "p",
    "q",
    "t",
    "constrained_worst",
    "constrained_best",
    "unconstrained_worst",
    "unconstrained_best",
    "R_L",
    "R_U",
    "R",
    "attaining",
    "grid_n",
    "truncation_m",
}

ATTAINING = {"dl_upper_tail", "dl_lower_tail", "comonotone", "countermonotone_tail"}


def test_report_var():
    rep = B.bound_report(PF, PG, "var", p=0.5)
    d = rep.to_json_dict()
    assert set(d) == REPORT_KEYS
    assert d["attaining"] in ATTAINING
    assert_allclose(d["constrained_worst"], 8.0, rtol=1e-6)
    assert_allclose(d["constrained_best"], 5.0, rtol=1e-3)
    assert_allclose(d["unconstrained_worst"], 6.0 + 4.0 * SQ2, rtol=1e-6)
    assert_allclose(d["unconstrained_best"], 5.0, rtol=1e-3)
    assert_allclose(d["R"], (4.0 * SQ2 - 2.0) / (1.0 + 4.0 * SQ2), atol=1e-3)


def test_report_nesting_all_measures():
    u, v = Uniform(0, 100), Uniform(0, 120)
    for f, g, measure, kw in [
        (u, v, "var", dict(p=0.9)),
        (u, v, "es", dict(p=0.9)),
        (u, v, "rvar", dict(p=0.9, q=0.99)),
        (u, v, "essinf", dict()),
        (u, v, "esssup", dict()),
        (u, v, "prob", dict(t=150.0)),
        # heavy tails that refused to nest when the plan read left cell
        # ends and the countermonotone sum read cell midpoints
        (Pareto(2.897, 1.063), Pareto(4.717, 1.063), "es", dict(p=0.2135)),
        (Pareto(1.947, 0.644), Pareto(4.820, 0.644), "rvar", dict(p=0.613, q=0.999)),
    ]:
        rep = B.bound_report(f, g, measure, grid_n=4000, **kw)
        vals = [
            rep.unconstrained_best,
            rep.constrained_best,
            rep.constrained_worst,
            rep.unconstrained_worst,
        ]
        assert vals == sorted(vals), (measure, vals)
        if rep.r is not None:
            assert 0.0 <= rep.r <= 1.0


def test_report_es_pareto_nesting():
    # X + Y >= X and ES_0.9(X) = inf for Pareto shape 1: every coupling's
    # ES is infinite (point grids gave L = 248.4 > Lo = 219.7 here)
    rep = B.bound_report(PF, PG, "es", p=0.9)
    vals = [
        rep.unconstrained_best,
        rep.constrained_best,
        rep.constrained_worst,
        rep.unconstrained_worst,
    ]
    assert vals == [math.inf] * 4
    assert rep.r is None


@pytest.mark.parametrize(
    "f, g, measure, p, q, expected",
    [
        (
            Pareto(2.897, 1.063),
            Pareto(4.717, 1.063),
            "es",
            0.2135,
            None,
            [159.377, 160.632, 161.037, 161.037],
        ),
        (
            Pareto(1.947, 0.644),
            Pareto(4.820, 0.644),
            "rvar",
            0.613,
            0.999,
            [1371.84, 1386.63, 1517.67, 1994.43],
        ),
    ],
    ids=["es", "rvar"],
)
def test_mean_bounds_nest_without_snap(f, g, measure, p, q, expected):
    # all four values read the cell means of one partition, so the raw
    # values nest and the report returns them unchanged
    if measure == "es":
        raw = [
            B.best_es_unconstrained(f, g, p),
            B.best_es_constrained(f, g, p),
            B.worst_es_constrained(f, g, p),
        ]
        raw.append(raw[-1])
    else:
        raw = [
            B.best_rvar_unconstrained(f, g, p, q),
            B.best_rvar_constrained(f, g, p, q),
            B.worst_rvar_constrained(f, g, p, q),
            B.worst_rvar_unconstrained(f, g, p, q),
        ]
    assert raw == sorted(raw)
    assert_allclose(raw, expected, rtol=1e-5)
    rep = B.bound_report(f, g, measure, p=p, q=q)
    got = [
        rep.unconstrained_best,
        rep.constrained_best,
        rep.constrained_worst,
        rep.unconstrained_worst,
    ]
    assert got == raw


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_countermonotone_scan_infinite_endpoints():
    # the scan endpoints evaluate inf + (-inf) = NaN, which the refinement
    # counts as +inf, so a finite value is returned instead of -inf / +inf
    f, g = Normal(0.0, 1.0), Normal(0.0, 2.0)
    with np.errstate(invalid="ignore"):
        assert B.worst_ess_inf_unconstrained(f, g) == -math.inf
        assert B.best_ess_sup_unconstrained(f, g) == math.inf


def test_transport_route_is_batched(monkeypatch):
    # one batched scan plus a few refinement rounds; scalar evaluation of
    # the transport map took about 29 calls here
    calls = []
    original = TransportEvaluator.upper_many

    def counted(self, xs):
        calls.append(np.size(xs))
        return original(self, xs)

    monkeypatch.setattr(TransportEvaluator, "upper_many", counted)
    got = B.worst_var_constrained(Pareto(25.0, 2.0), Pareto(30.0, 2.0), 0.95)
    assert_allclose(got, 268.3281573, rtol=1e-9)
    assert 1 <= len(calls) <= 8


@pytest.mark.parametrize(
    "f, g",
    [(Pareto(25.0, 2.0), Pareto(30.0, 2.0)), (Normal(0.0, 1.0), Normal(0.5, 1.0))],
    ids=["pareto", "normal"],
)
def test_var_report_builds_no_tail_grid(monkeypatch, f, g):
    # one level-p evaluator per constrained bound and no tabulated tail law;
    # counted rather than timed, so a return to tail grids fails here
    built = {"grid": 0, "evaluator": 0}

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(QuantileGrid, "grid")
    counting(TransportEvaluator, "evaluator")
    B.bound_report(f, g, "var", p=0.95)
    assert built == {"grid": 0, "evaluator": 2}


def test_report_infinity_policy():
    rep = B.bound_report(PF, PG, "esssup")
    d = rep.to_json_dict()
    assert d["constrained_worst"] == "inf"
    assert d["R"] is None
    assert json.dumps(d)


def test_report_alias_and_errors():
    rep = B.bound_report(PF, PG, "essinf")
    assert rep.measure == "ess_inf"
    with pytest.raises(DomainError):
        B.bound_report(PF, PG, "volatility", p=0.5)
    with pytest.raises(DomainError):
        B.bound_report(PF, PG, "rvar", p=0.9)
    for measure in ("var", "es"):
        with pytest.raises(DomainError, match="level p"):
            B.bound_report(PF, PG, measure)
    with pytest.raises(DomainError):
        B.bound_report(PF, PG, "prob")


_U, _V = Uniform(0, 100), Uniform(0, 120)


@pytest.mark.parametrize(
    "call",
    [
        lambda: B.worst_es_constrained(_U, _V, 0.9, gird_n=100),
        lambda: B.best_es_unconstrained(_U, _V, 0.9, gird_n=100),
        lambda: B.worst_rvar_unconstrained(_U, _V, 0.5, 0.9, gird_n=100),
        lambda: B.best_rvar_unconstrained(_U, _V, 0.5, 0.9, gird_n=100),
        lambda: B.best_es_constrained(_U, _V, 0.9, gird_n=100),
        lambda: B.bound_report(_U, _V, "var", p=0.9, scan_n=10),
        lambda: B.prob_lower(_U, _V, 100.0, tol=1e-3),
        lambda: negate_dist(Pareto(1.0, 1.0), grid_n=10),
    ],
    ids=[
        "worst_es_constrained",
        "best_es_unconstrained",
        "worst_rvar_unconstrained",
        "best_rvar_unconstrained",
        "best_es_constrained",
        "bound_report-scan_n",
        "prob_lower-tol",
        "negate_dist-grid_n",
    ],
)
def test_unknown_keyword_rejected(call):
    with pytest.raises(TypeError):
        call()


@settings(max_examples=15, deadline=None)
@given(
    st.floats(0.55, 0.99, **finite),
    st.floats(1.0, 40.0, **finite),
    st.floats(1.05, 2.5, **finite),
)
def test_var_nesting_random_uniform_pairs(p, hi, stretch):
    f, g = Uniform(0.0, hi), Uniform(0.0, hi * stretch)
    cb = B.best_var_constrained(f, g, p, grid_n=2000)
    cw = B.worst_var_constrained(f, g, p, grid_n=2000)
    ub = B.best_var_unconstrained(f, g, p)
    uw = B.worst_var_unconstrained(f, g, p)
    scale = abs(uw) + abs(ub) + 1.0
    assert ub <= cb + 1e-4 * scale
    assert cb <= cw + 1e-4 * scale
    assert cw <= uw + 1e-4 * scale


def test_ra_matches_var_report():
    from ordrisk.oracle import ra_unconstrained_var

    got = ra_unconstrained_var(PF, PG, 0.5, 50_000)
    assert_allclose(got, 6.0 + 4.0 * SQ2, atol=1e-3)
