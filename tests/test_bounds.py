"""Best/worst risk measure bounds, probability bounds and reports."""

import json
import math
import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ordrisk import bounds as B
from ordrisk._search import refine_min
from ordrisk.coupling import TransportEvaluator
from ordrisk.dist import (
    DEFAULT_TRUNC,
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
    # the same pair as 1,000 midpoint atoms; the old plan route's upper-tail
    # check alone let worst VaR return 213.385
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
    w = B.worst_var_constrained(f, g, 0.9)
    b = B.best_var_constrained(f, g, 0.9)
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


_PROB_BOUNDS = (B.prob_lower_unconstrained, B.prob_lower, B.prob_upper, B.prob_upper_unconstrained)


@pytest.mark.parametrize(
    "f, g, ts",
    [(PF, PG, (5.0, 8.0, 12.0, 16.0)), (Uniform(0, 100), Uniform(0, 120), (120.0, 150.0, 180.0))],
    ids=["pareto", "uniform"],
)
def test_prob_bounds_are_one_scan(monkeypatch, f, g, ts):
    # each bound is one scan over the CDFs and one refinement, no VaR solve;
    # the replaced inversion made 5 to 42 VaR solves per bound
    calls = {"var": 0, "refine": 0}

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("worst_var_constrained", "best_var_constrained", "worst_var_unconstrained", "best_var_unconstrained"):
        monkeypatch.setattr(B, name, counted(getattr(B, name), "var"))
    for name in ("refine_min", "refine_max"):
        monkeypatch.setattr(B, name, counted(getattr(B, name), "refine"))
    for t in ts:
        for bound in _PROB_BOUNDS:
            calls.update(var=0, refine=0)
            bound(f, g, t)
            assert calls == {"var": 0, "refine": 1}, (bound.__name__, t)


@pytest.mark.parametrize(
    "call",
    [*_PROB_BOUNDS, lambda f, g, t: B.bound_report(f, g, "prob", t=t)],
    ids=[*(b.__name__ for b in _PROB_BOUNDS), "bound_report"],
)
def test_prob_nan_threshold_raises(call):
    with pytest.raises(DomainError, match="NaN"):
        call(PF, PG, math.nan)


@pytest.mark.parametrize("bound", _PROB_BOUNDS, ids=lambda b: b.__name__)
def test_prob_infinite_thresholds(bound):
    assert bound(PF, PG, -math.inf) == 0.0
    assert bound(PF, PG, math.inf) == 1.0


def test_prob_nesting():
    for t in (5.0, 8.0, 12.0):
        m = B.prob_lower_unconstrained(PF, PG, t)
        mo = B.prob_lower(PF, PG, t)
        big_mo = B.prob_upper(PF, PG, t)
        big_m = B.prob_upper_unconstrained(PF, PG, t)
        assert m <= mo + 1e-4
        assert mo <= big_mo + 1e-4
        assert big_mo <= big_m + 1e-4


def test_prob_report_refuses_inversion_beyond_rounding():
    # the pair passes the 2/2048 order gate, but mo = 0.5 > Mo = 0.4998 at
    # t = 1; a grid-sized snap tolerance used to hide that inversion
    f = Empirical([0.0, 1.0], [0.4998, 0.5002])
    g = Empirical([0.0, 2.0], [0.5, 0.5])
    assert B.prob_lower(f, g, 1.0) - B.prob_upper(f, g, 1.0) > 1e-4
    with pytest.raises(DomainError, match="bounds must nest"):
        B.bound_report(f, g, "prob", t=1.0)


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
    # ES is infinite (point grids gave L = 248.4 > Lo = 219.7 at p = 0.9)
    for p in (0.9, 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = B.bound_report(PF, PG, "es", p=p)
        vals = [
            rep.unconstrained_best,
            rep.constrained_best,
            rep.constrained_worst,
            rep.unconstrained_worst,
        ]
        assert vals == [math.inf] * 4
        assert rep.r is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: B.bound_report(negate_dist(PF), PF, "es", p=0.5),
        lambda: B.best_es_unconstrained(PF, negate_dist(PF), 0.5),
        lambda: B.worst_rvar_constrained(negate_dist(PF), PF, 0.0, 0.5),
        lambda: B.ct_sum_values(negate_dist(PF), PG),
    ],
    ids=["report", "best_es_unconstrained", "worst_rvar_p0", "ct_sum_values"],
)
def test_undefined_sum_mean_raises(call):
    # E X = -inf and E Y = +inf: the -inf and +inf cell means would pair to NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="mean of X \\+ Y undefined"):
            call()


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


def test_constrained_var_is_one_refinement(monkeypatch):
    # one closed-form scan over z and one batched refinement per bound; the
    # nested route bisected the transport map at every refinement point
    calls = []
    original = B.refine_min

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def no_transport(self, xs):
        raise AssertionError("a bound evaluated the transport map")

    monkeypatch.setattr(B, "refine_min", counted)
    monkeypatch.setattr(TransportEvaluator, "upper_many", no_transport)
    f, g = Pareto(25.0, 2.0), Pareto(30.0, 2.0)
    got = B.worst_var_constrained(f, g, 0.95)
    assert_allclose(got, 268.3281573, rtol=1e-9)
    assert len(calls) == 1
    B.best_var_constrained(f, g, 0.95)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "f, g",
    [(Pareto(25.0, 2.0), Pareto(30.0, 2.0)), (Normal(0.0, 1.0), Normal(0.5, 1.0))],
    ids=["pareto", "normal"],
)
def test_var_report_builds_no_tail_grid(monkeypatch, f, g):
    # the constrained bounds are closed-form scans: no transport evaluator
    # and no tabulated tail law; counted rather than timed
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
    assert built == {"grid": 0, "evaluator": 0}


def _nested_route(f, g, p, trunc=DEFAULT_TRUNC):
    """The replaced route: min of x + T_p(x) over [F^{-1}(p), G^{-1}(p)], capped by 2 G^{-1}(p)."""
    b = float(g.quantile_left(p))
    if b == -math.inf:
        return -math.inf
    a = float(f.quantile_left(p))
    if a == -math.inf:
        if g.support_hi < math.inf:
            return -math.inf
        a = float(f.quantile_left(p + (1.0 - p) * (1.0 - trunc)))
    a = min(a, b)
    ev = TransportEvaluator(f, g, p=p, trunc=trunc)
    objective = lambda x: ev.upper_many(x) + x
    xs = np.linspace(a, b, 1025)
    inner = refine_min(objective, xs, objective(xs), tol=1e-8 * max(1.0, b - a))
    return float(min(inner, 2.0 * b))


def _nested_bounds(f, g, p):
    """Worst and best constrained bound of the replaced route: ess-inf/ess-sup at p = 0, else VaR."""
    if p == 0.0:
        return _nested_route(f, g, 0.0), -_nested_route(negate_dist(g), negate_dist(f), 0.0)
    best = -_nested_route(negate_dist(g), negate_dist(f), 1.0 - p)
    return _nested_route(f, g, p), max(best, 2.0 * float(f.quantile_left(p)))


def _closed_form_bounds(f, g, p):
    if p == 0.0:
        return B.worst_ess_inf_constrained(f, g), B.best_ess_sup_constrained(f, g)
    return B.worst_var_constrained(f, g, p), B.best_var_constrained(f, g, p)


_GRID_PAIR = (to_grid(Pareto(1.0, 2.0), 2000), to_grid(Pareto(1.5, 2.0), 2000))
_NEGATED_PAIR = (negate_dist(Pareto(2.0, 2.0)), negate_dist(Pareto(1.0, 2.0)))

_ordered_pairs = st.one_of(
    st.builds(
        lambda s, a, k: (Pareto(s, a), Pareto(s * k, a)),
        st.floats(0.5, 30.0), st.floats(0.3, 4.0), st.floats(1.0, 2.0),
    ),
    st.builds(
        lambda s, a, k, r: (Pareto(s, a), Pareto(s * k, a * r)),
        st.floats(0.5, 30.0), st.floats(0.3, 4.0), st.floats(1.0, 2.0), st.floats(0.3, 1.0),
    ),
    st.builds(
        lambda lo, w, shift, stretch: (Uniform(lo, lo + w), Uniform(lo + shift, lo + shift + w * stretch)),
        st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(0.0, 3.0), st.floats(1.0, 3.0),
    ),
    st.builds(
        lambda m, sd, d: (Normal(m, sd), Normal(m + d, sd)),
        st.floats(-5.0, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 3.0),
    ),
    st.sampled_from([_GRID_PAIR, _NEGATED_PAIR]),
)


@settings(max_examples=60, deadline=None)
@given(_ordered_pairs, st.one_of(st.just(0.0), st.floats(1e-6, 1.0 - 1e-6)))
@example((Pareto(1.0, 3.0), Pareto(1.2, 1.5)), 0.0)
@example((Pareto(1.0, 3.0), Pareto(1.2, 1.5)), 0.99)
@example((Pareto(1.0, 1.0), Pareto(2.0, 1.0)), 0.99)
@example(_GRID_PAIR, 0.9)
@example(_NEGATED_PAIR, 0.5)
@example((Uniform(0.0, 5.0), Uniform(0.001953125, 10.001953125)), 0.0)
@example(_GRID_PAIR, 0.5463146279530213)
def test_closed_form_matches_nested_route(pair, p):
    # the closed-form z scan against the transport-map route it replaced,
    # relative to max(1, |value|) since normal and uniform values cross 0
    f, g = pair
    q = p if p > 0.0 else 1.0
    # the nested route's caps: 2 G^{-1}(p) for worst, 2 F^{-1}(q) for best
    caps = (2.0 * float(g.quantile_left(p)), 2.0 * float(f.quantile_left(q)))
    got, want = _closed_form_bounds(f, g, p), _nested_bounds(f, g, p)
    for sign, v, w, cap in zip((1.0, -1.0), got, want, caps):
        if not math.isfinite(w):
            assert v == w
            continue
        scale = max(1.0, abs(w))
        # never above (worst) or below (best) what the nested scan found
        assert sign * (v - w) <= 1e-7 * scale
        # on the other side the nested refinement can stop short by about
        # 1e-7 on a grid law's kinks (1.16e-7 on the grid pair at
        # p = 0.5463146279530213, where a dense x scan agrees with the closed
        # form to 1e-10); and where it returns its cap it can have missed
        # the x -> F^{-1}(p)+ limit below that cap, because it sees +inf at
        # x = F^{-1}(p) (see test_best_var_at_equal_tail_limit)
        if not math.isclose(w, cap, rel_tol=1e-12, abs_tol=1e-12):
            assert sign * (w - v) <= 1e-6 * scale


@pytest.mark.parametrize(
    "f, g, expected",
    [
        (Normal(0.0, 1.0), Uniform(0.0, 1.0), (-math.inf, math.inf)),
        (Pareto(1.0, 0.5), Pareto(1.5, 0.5), (3.0, math.inf)),
    ],
    ids=["normal-uniform", "pareto-half"],
)
def test_closed_form_infinite_outcomes(f, g, expected):
    # worst ess-inf is -inf for an F unbounded below with a bounded G, and
    # best ess-sup +inf for unbounded G: the same as the nested route
    assert _closed_form_bounds(f, g, 0.0) == _nested_bounds(f, g, 0.0) == expected


@pytest.mark.parametrize("p", [0.5, 0.9, 0.999])
def test_best_var_at_equal_tail_limit(p):
    # the infimum is the limit x -> F^{-1}(p)+ at the upper end where F = G
    # after negation: best VaR = max Y + min X = 0.3 + 1.7 p. The nested
    # x scan saw +inf at that end and returned 2 F^{-1}(p) = 1.998 at 0.999.
    got = B.best_var_constrained(Uniform(0.0, 1.0), Uniform(0.3, 2.0), p)
    assert_allclose(got, 0.3 + 1.7 * p, rtol=1e-12)


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
        lambda: B.prob_upper(_U, _V, 100.0, grid_n=100),
        lambda: negate_dist(Pareto(1.0, 1.0), grid_n=10),
        lambda: B.worst_var_constrained(_U, _V, 0.9, grid_n=100),
        lambda: B.best_var_constrained(_U, _V, 0.9, grid_n=100),
        lambda: B.worst_ess_inf_constrained(_U, _V, grid_n=100),
        lambda: B.best_ess_sup_constrained(_U, _V, grid_n=100),
    ],
    ids=[
        "worst_es_constrained",
        "best_es_unconstrained",
        "worst_rvar_unconstrained",
        "best_rvar_unconstrained",
        "best_es_constrained",
        "bound_report-scan_n",
        "prob_lower-tol",
        "prob_upper-grid_n",
        "negate_dist-grid_n",
        "worst_var_constrained-grid_n",
        "best_var_constrained-grid_n",
        "worst_ess_inf_constrained-grid_n",
        "best_ess_sup_constrained-grid_n",
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
    cb = B.best_var_constrained(f, g, p)
    cw = B.worst_var_constrained(f, g, p)
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


# ---------------------------------------------------------------------------
# probability bounds against independent routes

# an ordered pair whose ranks meet at level 7/14, summed as 0.49999999999999994
_XA = Empirical([3.0, 4.0, 6.0, 9.0, 10.0, 11.0], [2.0, 3.0, 2.0, 2.0, 2.0, 3.0])
_YA = Empirical([6.0, 7.0, 9.0, 11.0, 13.0], [2.0, 5.0, 2.0, 2.0, 3.0])


def _lp_prob(f, g, t, ordered):
    """Min and max of P(X + Y <= t) over joint pmfs of two empirical laws.

    With ``ordered``, cells with x > y carry no mass.
    """
    from scipy.optimize import linprog

    x, y = f.values, g.values
    c = (x[:, None] + y[None, :] <= t).astype(float).ravel()
    a_eq = np.vstack([np.kron(np.eye(x.size), np.ones(y.size)), np.kron(np.ones(x.size), np.eye(y.size))])
    b_eq = np.concatenate([f.weights, g.weights])
    cells = [(0.0, 0.0) if ordered and xi > yj else (0.0, None) for xi in x for yj in y]
    lo = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=cells, method="highs")
    hi = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=cells, method="highs")
    assert lo.status == 0 and hi.status == 0
    return lo.fun, -hi.fun


def _assert_matches_lp(f, g, t):
    m, big_m = _lp_prob(f, g, t, ordered=False)
    mo, big_mo = _lp_prob(f, g, t, ordered=True)
    got = [bound(f, g, t) for bound in _PROB_BOUNDS]
    assert_allclose(got, [m, mo, big_mo, big_m], rtol=0.0, atol=1e-12)


@st.composite
def _ordered_atoms(draw):
    # X on 2-8 integer atoms; Y moves each piece of an X atom up by 0-6,
    # which spans every ordered pair of such laws
    xs = sorted(draw(st.sets(st.integers(0, 20), min_size=2, max_size=8)))
    wx = draw(st.lists(st.integers(1, 5), min_size=len(xs), max_size=len(xs)))
    ys = {}
    for x, w in zip(xs, wx):
        cut = draw(st.integers(0, w - 1))
        for piece in (cut, w - cut):
            if piece:
                y = x + draw(st.integers(0, 6))
                ys[y] = ys.get(y, 0) + piece
    ys = sorted(ys.items())
    f = Empirical([float(x) for x in xs], [float(w) for w in wx])
    g = Empirical([float(y) for y, _ in ys], [float(w) for _, w in ys])
    return f, g


@settings(max_examples=120, deadline=None)
@given(_ordered_atoms(), st.integers(0, 70))
def test_prob_bounds_match_lp_on_atoms(pair, half_t):
    # thresholds on and between the atom sums
    f, g = pair
    _assert_matches_lp(f, g, 0.5 * half_t)


@pytest.mark.parametrize("t", [12.0, 15.5, 17.0, 20.0])
def test_prob_bounds_match_lp_ranks_meet(t):
    # the old plan route raised PlanInfeasibleError on this pair (see below)
    _assert_matches_lp(_XA, _YA, t)


def test_worst_var_at_atom_boundary():
    # the LP gives 13; F and G both reach 1/2 here, but Empirical._cumw sums
    # 7/14 as 0.49999999999999994 for one of them, which made the old plan
    # route raise PlanInfeasibleError; the scan reads that level as 1/2
    assert B.worst_var_constrained(_XA, _YA, 0.5) == 13.0


def _exact_weights(d):
    # the atom pairs here have weights k/W with W <= 40
    return [Fraction(float(w)).limit_denominator(1000) for w in d.weights]


def _lp_constrained(f, g, levels):
    """LP values of the four constrained bounds: ({p: (worst VaR_p, best VaR_p)}, ess-inf, ess-sup).

    VaR_p = min{t : P(X + Y <= t) >= p}, read off the LP mo and Mo at the atom sums.
    """
    table = [(t,) + _lp_prob(f, g, t, ordered=True) for t in np.unique(np.add.outer(f.values, g.values))]
    eps = 1e-9
    var = {
        p: (
            min(t for t, mo, _ in table if mo >= p - eps),
            min(t for t, _, big_mo in table if big_mo >= p - eps),
        )
        for p in levels
    }
    ess_inf = min(t for t, mo, _ in table if mo > eps)
    ess_sup = min(t for t, _, big_mo in table if big_mo >= 1.0 - eps)
    return var, ess_inf, ess_sup


@settings(max_examples=40, deadline=None)
@given(_ordered_atoms())
@example((_XA, _YA))
def test_constrained_bounds_match_lp_on_atoms(pair):
    # levels on and between the cumulative weights of both laws, as exact fractions
    f, g = pair
    cums = {Fraction(0), Fraction(1)}
    for d in (f, g):
        cums.update(accumulate(_exact_weights(d)))
    cums = sorted(cums)
    levels = sorted({float(c) for c in cums[1:-1]} | {float((a + b) / 2) for a, b in zip(cums, cums[1:])})
    var, ess_inf, ess_sup = _lp_constrained(f, g, levels)
    got = [(B.worst_var_constrained(f, g, p), B.best_var_constrained(f, g, p)) for p in levels]
    assert_allclose(got, [var[p] for p in levels], rtol=0.0, atol=1e-9)
    assert_allclose(B.worst_ess_inf_constrained(f, g), ess_inf, rtol=0.0, atol=1e-9)
    assert_allclose(B.best_ess_sup_constrained(f, g), ess_sup, rtol=0.0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the countermonotone scan reads levels on a linspace")
def test_worst_var_unconstrained_on_atoms():
    # m(26) = 6/19 >= p > m(25), so the worst VaR is 26; the level scan
    # through left quantiles misses the atom boundary and returns 31
    f = Empirical([0.0, 3.0, 9.0, 10.0, 11.0, 14.0, 20.0], [3.0, 1.0, 1.0, 4.0, 2.0, 3.0, 5.0])
    g = Empirical([3.0, 5.0, 9.0, 11.0, 12.0, 17.0, 19.0, 25.0], [1.0, 3.0, 1.0, 2.0, 4.0, 2.0, 1.0, 5.0])
    p = 6.0 / 19.0
    assert B.prob_lower_unconstrained(f, g, 26.0) >= p > B.prob_lower_unconstrained(f, g, 25.0)
    assert B.worst_var_unconstrained(f, g, p) == 26.0


def _bisect_prob(var, t):
    """sup{p : var(p) <= t} by plain bisection of a nondecreasing VaR curve, to 1e-9."""
    lo, hi = 1e-9, 1.0 - 1e-9
    if var(lo) > t:
        return 0.0
    if var(hi) <= t:
        return 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if var(mid) <= t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "f, g",
    [
        (Pareto(1.0, 2.0), Pareto(1.5, 2.0)),
        (Pareto(1.0, 3.0), Pareto(1.2, 1.5)),
        (Uniform(0.0, 100.0), Uniform(0.0, 120.0)),
        (Normal(0.0, 1.0), Normal(0.5, 1.0)),
        _GRID_PAIR,
        _NEGATED_PAIR,
    ],
    ids=["pareto-shared", "pareto-unequal", "uniform", "normal", "grid", "negated"],
)
@pytest.mark.parametrize("a", [0.3, 0.9])
def test_prob_bounds_match_var_bisection(f, g, a):
    # continuous pairs: the closed forms against bisected VaR curves
    t = float(f.quantile_left(a)) + float(g.quantile_left(a))
    curves = (B.worst_var_unconstrained, B.worst_var_constrained, B.best_var_constrained, B.best_var_unconstrained)
    want = [_bisect_prob(lambda p, var=var: var(f, g, p), t) for var in curves]
    got = [bound(f, g, t) for bound in _PROB_BOUNDS]
    assert_allclose(got, want, rtol=0.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_ordered_pairs, _ordered_atoms()), st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_prob_bounds_nest_and_rise(pair, a1, a2):
    # raw m <= mo <= Mo <= M, and each bound nondecreasing in t
    f, g = pair
    t1, t2 = sorted(float(f.quantile_left(a)) + float(g.quantile_left(a)) for a in (a1, a2))
    lo = [bound(f, g, t1) for bound in _PROB_BOUNDS]
    hi = [bound(f, g, t2) for bound in _PROB_BOUNDS]
    for vals in (lo, hi):
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), vals
    assert all(a <= b + 1e-12 for a, b in zip(lo, hi)), (lo, hi)
