"""Transport map, DL coupling CDF, discrete plans and samplers."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ordrisk.coupling
import ordrisk.dist
from ordrisk import bounds as B
from ordrisk.coupling import (
    COUPLING_KINDS,
    DlPlan,
    TransportEvaluator,
    _grid_points,
    _match,
    dl_cdf,
    dl_plan_discrete,
    dl_sum_cdf,
    export_batch_csv,
    export_plan_csv,
    sample_coupling,
    transport_lower,
    transport_upper,
)
from ordrisk.dist import (
    DEFAULT_SCAN_N,
    Empirical,
    Normal,
    Pareto,
    Uniform,
    _cell_edges,
    _cell_means,
    empirical_from_samples,
    negate_dist,
    to_grid,
    upper_tail,
)
from ordrisk.errors import DomainError, OrderViolationError, PlanInfeasibleError

finite = dict(allow_nan=False, allow_infinity=False)


def _plan_levels(n, p, q=1.0):
    # a plan's levels: the left cell ends, top cell first
    return _cell_edges(n, p, q)[-2::-1]


PF = Pareto(1.0, 1.0)
PG = Pareto(2.0, 1.0)


# ---------------------------------------------------------------------------
# transport map


def test_transport_pareto_values():
    assert_allclose(transport_upper(PF, PG, 1.5), 3.0, rtol=1e-6)
    assert math.isinf(transport_upper(PF, PG, 1.0))
    assert transport_upper(PF, PG, 1.0) > 0


@settings(max_examples=40, deadline=None)
@given(st.floats(1.02, 1.98, **finite))
def test_transport_pareto_closed_form(x):
    # on the singular region the map sends x to x/(x-1)
    assert_allclose(transport_upper(PF, PG, x), x / (x - 1.0), rtol=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.98, **finite))
def test_transport_uniform_closed_form(x):
    got = transport_upper(Uniform(0, 1), Uniform(0, 1.5), x)
    assert_allclose(got, 1.5 - 0.5 * x, rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.95, **finite))
def test_transport_dominates_identity(x):
    assert transport_upper(Uniform(0, 1), Uniform(0, 1.5), x) >= x


def test_transport_lower_mirror():
    # identical marginals leave nothing strictly below any point
    assert transport_lower(PF, PF, 3.0) == -math.inf
    # F - G is t/3 on [0, 1] and 1 - t/1.5 on [1, 1.5]: below D(x) up to x, then up to 3 - 2x
    f, g = Uniform(0, 1), Uniform(0, 1.5)
    xs = np.linspace(0.05, 1.45, 29)
    got = [transport_lower(f, g, x) for x in xs]
    assert_allclose(got, np.where(xs <= 1.0, xs, 3.0 - 2.0 * xs), rtol=1e-9)
    # D(0) = D(1.5) = 0 and F - G is never negative: nothing lies strictly below
    assert transport_lower(f, g, 0.0) == transport_lower(f, g, 1.5) == -math.inf


def test_transport_lower_pareto_exact():
    # F - G = 1/t above 2 and 1 - 1/t on [1, 2]: below 1/50 only up to 50/49
    assert_allclose(transport_lower(PF, PG, 50.0), 50.0 / 49.0, rtol=1e-12)


def test_level_p_evaluator_is_the_tail_map():
    # T_p on the original axis equals the map of the closed-form upper tails
    p = 0.9
    ev = TransportEvaluator(PF, PG, p=p)
    tails = TransportEvaluator(upper_tail(PF, p), upper_tail(PG, p))
    xs = np.linspace(10.0, 20.0, 11)
    assert_allclose(ev.upper_many(xs), tails.upper_many(xs), rtol=1e-9)
    assert_allclose(ev.upper_many([15.0]), [15.0 / (15.0 * (1.0 - p) - 1.0)], rtol=1e-9)
    with pytest.raises(DomainError):
        TransportEvaluator(PF, PG, p=1.0)


def test_transport_evaluator_matches_scalar():
    ev = TransportEvaluator(PF, PG)
    xs = np.array([1.2, 1.5, 1.8])
    many = ev.upper_many(xs)
    single = [transport_upper(PF, PG, x) for x in xs]
    assert_allclose(many, single, rtol=1e-9)


def _upper_many_loop(ev, xs):
    # per-point scan for the first crossing, then the same joint bisection
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    dx = ev.diff(flat)
    out = np.full(flat.shape, math.inf)
    lo = np.empty(flat.shape)
    hi = np.empty(flat.shape)
    active = np.zeros(flat.shape, dtype=bool)
    for i in range(flat.size):
        x, d0 = flat[i], dx[i]
        if not (d0 > 0.0) or not math.isfinite(x):
            continue
        k0 = int(np.searchsorted(ev.zs, x, side="left"))
        below = ev.dz[k0:] < d0
        if not below.any():
            continue
        j = k0 + int(np.argmax(below))
        lo[i] = x if j == 0 else max(x, ev.zs[j - 1])
        hi[i] = ev.zs[j]
        active[i] = True
    if active.any():
        a = lo[active]
        b = hi[active]
        target = dx[active]
        for _ in range(80):
            width = b - a
            if np.all(width <= 4e-16 * np.maximum(1.0, np.abs(b))):
                break
            mid = 0.5 * (a + b)
            inside = ev.diff(mid) < target
            b = np.where(inside, mid, b)
            a = np.where(inside, a, mid)
        out[active] = b
    return out.reshape(xs.shape)


_EMP_F = Empirical([1.0, 2.0, 2.0, 5.0, 7.0], [1.0, 1.0, 1.0, 1.0, 1.0])
_EMP_G = Empirical([2.0, 3.0, 5.0, 6.0, 9.0], [1.0, 1.0, 1.0, 1.0, 1.0])

EVALUATOR_PAIRS = {
    "uniform": (Uniform(0, 100), Uniform(0, 120)),
    "pareto": (PF, PG),
    "pareto_tail": (upper_tail(Pareto(25, 2), 0.95), upper_tail(Pareto(30, 2), 0.95)),
    "normal": (Normal(0, 1), Normal(1, 1)),
    "quantile_grid": (
        upper_tail(Normal(0, 1), 0.9, grid_n=500),
        upper_tail(Normal(0.5, 1), 0.9, grid_n=500),
    ),
    "grid_uniform": (to_grid(Uniform(0, 1), 300), to_grid(Uniform(0.2, 1.5), 300)),
    "empirical": (_EMP_F, _EMP_G),
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_PAIRS))
def test_upper_many_matches_loop_reference(name):
    ev = TransportEvaluator(*EVALUATOR_PAIRS[name])
    lo, hi = ev.zs[0], ev.zs[-1]
    span = hi - lo
    xs = np.concatenate(
        [
            [lo - span, lo - 1.0, np.nextafter(lo, -np.inf)],
            np.linspace(lo - 0.1 * span, hi + 0.1 * span, 1501),
            ev.zs,
            np.nextafter(ev.zs, np.inf),
            [hi, hi + span, np.inf, -np.inf, np.nan],
        ]
    )
    got = ev.upper_many(xs)
    np.testing.assert_array_equal(got, _upper_many_loop(ev, xs))
    assert np.all(got[xs > hi] == math.inf)
    assert np.all(got[~np.isfinite(xs)] == math.inf)
    np.testing.assert_array_equal(ev.upper_many(xs[:30].reshape(10, 3)), got[:30].reshape(10, 3))


# ---------------------------------------------------------------------------
# joint CDF


def test_dl_cdf_values():
    assert_allclose(dl_cdf(PF, PG, 2.0, 4.0), 0.25, atol=1e-9)
    # y <= x reduces to the G marginal
    assert_allclose(dl_cdf(PF, PG, 5.0, 3.0), PG.cdf(3.0), atol=1e-12)


_PLAN = dl_plan_discrete(PF, PG, 50)


@pytest.mark.parametrize(
    "call",
    [
        lambda: transport_upper(PF, PG, math.nan),
        lambda: transport_lower(PF, PG, math.nan),
        lambda: transport_upper(PF, PG, "2"),
        lambda: dl_cdf(PF, PG, 2.0, math.nan),
        lambda: dl_cdf(PF, PG, math.nan, 3.0),
        lambda: dl_cdf(PF, PG, "2", 3.0),
        lambda: dl_sum_cdf(_PLAN, math.nan),
        lambda: dl_sum_cdf(_PLAN, [4.0, math.nan]),
        lambda: dl_sum_cdf(_PLAN, "4"),
        lambda: dl_sum_cdf(_PLAN, ["4"]),
        lambda: B.ct_sum_cdf(PF, PG, math.nan, grid_n=50),
        lambda: B.ct_sum_cdf(PF, PG, "4", grid_n=50),
        lambda: B.ct_sum_cdf(PF, PG, [4.0], grid_n=50),
    ],
    ids=[
        "upper-nan", "lower-nan", "upper-str", "cdf-y-nan", "cdf-x-nan", "cdf-str",
        "sum-nan", "sum-array-nan", "sum-str", "sum-array-str", "ct-nan", "ct-str", "ct-array",
    ],
)
def test_coupling_points_refused(call):
    # a NaN used to give a number (inf, 0.49988, 1.0, ...) and a string a ValueError
    with pytest.raises(DomainError):
        call()


def test_coupling_infinite_points_keep_their_values():
    inf = math.inf
    assert transport_upper(PF, PG, inf) == inf and transport_lower(PF, PG, -inf) == -inf
    assert dl_cdf(PF, PG, 2.0, inf) == PF.cdf(2.0) and dl_cdf(PF, PG, -inf, inf) == 0.0
    assert_allclose(dl_cdf(PF, PG, inf, 3.0), PG.cdf(3.0), rtol=1e-15)
    assert dl_sum_cdf(_PLAN, -inf) == 0.0 and dl_sum_cdf(_PLAN, np.array(inf)) == 1.0
    np.testing.assert_array_equal(dl_sum_cdf(_PLAN, [-inf, inf]), [0.0, 1.0])
    assert B.ct_sum_cdf(PF, PG, -inf, grid_n=50) == 0.0 and B.ct_sum_cdf(PF, PG, inf, grid_n=50) == 1.0


def test_dl_cdf_refuses_unordered_pair():
    # the y <= x shortcut still checks the order
    with pytest.raises(OrderViolationError):
        dl_cdf(Uniform(0, 1.5), Uniform(0, 1), 0.8, 0.5)


def test_dl_cdf_builds_no_evaluator(monkeypatch):
    # the joint CDF scans the pair's memoised nodes, which are the evaluator's
    # nodes, without building the evaluator and the F - G values on them
    built = {"evaluator": 0}
    original = TransportEvaluator.__init__

    def init(self, *args, **kwargs):
        built["evaluator"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(TransportEvaluator, "__init__", init)
    for x, y in [(2.0, 4.0), (5.0, 3.0), (1.5, 40.0)]:
        dl_cdf(PF, PG, x, y)
    assert built == {"evaluator": 0}
    nodes = ordrisk.dist._per_pair(ordrisk.dist._merged_grid, (PF, PG), DEFAULT_SCAN_N)
    np.testing.assert_array_equal(nodes, TransportEvaluator(PF, PG).zs)


@pytest.fixture
def order_checks(monkeypatch):
    """Pairs handed to ``coupling.check_st``, the one place an order check runs."""
    seen = []
    original = ordrisk.coupling.check_st

    def counting(f, g, *args, **kwargs):
        seen.append((f, g))
        return original(f, g, *args, **kwargs)

    monkeypatch.setattr(ordrisk.coupling, "check_st", counting)
    return seen


def test_unordered_pair_raises_on_every_call(order_checks):
    f, g = Uniform(0, 1.5), Uniform(0, 1)
    calls = [
        lambda: B.worst_var_constrained(f, g, 0.9),
        lambda: B.best_var_constrained(f, g, 0.9),
        lambda: B.worst_ess_inf_constrained(f, g),
        lambda: B.best_ess_sup_constrained(f, g),
        lambda: B.prob_lower(f, g, 1.0),
        lambda: dl_plan_discrete(f, g, 100),
        lambda: dl_cdf(f, g, 0.8, 0.5),
    ]
    for call in calls * 2:
        with pytest.raises(OrderViolationError):
            call()
    assert order_checks == [(f, g)]


def test_best_bounds_check_the_pair_not_its_reflection(order_checks):
    # the best bounds run on the negated pair; the check stays on (f, g)
    f, g = Uniform(0, 100), Uniform(0, 120)
    for p in (0.5, 0.9, 0.99):
        B.best_var_constrained(f, g, p)
        B.worst_var_constrained(f, g, p)
    B.best_ess_sup_constrained(f, g)
    assert order_checks == [(f, g)]


@settings(max_examples=40, deadline=None)
@given(st.floats(1.05, 6.0, **finite), st.floats(2.05, 12.0, **finite))
def test_dl_cdf_frechet_and_range(x, y):
    v = dl_cdf(PF, PG, x, y)
    assert 0.0 <= v <= 1.0
    assert v <= min(PF.cdf(x), PG.cdf(y)) + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1.05, 6.0, **finite),
    st.floats(2.05, 12.0, **finite),
    st.floats(0.01, 1.0, **finite),
)
def test_dl_cdf_monotone(x, y, step):
    v = dl_cdf(PF, PG, x, y)
    assert dl_cdf(PF, PG, x + step, y) >= v - 1e-9
    assert dl_cdf(PF, PG, x, y + step) >= v - 1e-9


# ---------------------------------------------------------------------------
# discrete plans


def test_plan_basic_invariants():
    plan = dl_plan_discrete(PF, PG, 500)
    assert plan.n == 500
    assert np.all(plan.x <= plan.y)
    assert np.array_equal(np.sort(plan.y_index), np.arange(500))
    common = plan.tag == "common"
    assert np.array_equal(common, plan.x == plan.y)


def test_plan_deterministic():
    a = dl_plan_discrete(PF, PG, 300)
    b = dl_plan_discrete(PF, PG, 300)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.y_index, b.y_index)


def test_plan_tail_level():
    p = 0.9
    plan = dl_plan_discrete(PF, PG, 400, p)
    assert plan.p == p
    assert plan.x.min() >= PF.quantile_left(p) - 1e-9
    assert plan.y.min() >= PG.quantile_left(p) - 1e-9


def test_plan_identical_marginals_all_common():
    plan = dl_plan_discrete(Uniform(0, 1), Uniform(0, 1), 200)
    assert np.all(plan.tag == "common")
    assert_allclose(plan.x, plan.y)


def test_plan_infeasible_reversed_pair():
    with pytest.raises((PlanInfeasibleError, OrderViolationError)):
        dl_plan_discrete(Uniform(0, 2), Uniform(0, 1), 100)
    # the matching alone, without the plan's order check first
    levels = _plan_levels(100, 0.0)
    with pytest.raises(PlanInfeasibleError):
        _match(*_grid_points((Uniform(0, 2), Uniform(0, 1)), levels))


def test_plan_validation():
    with pytest.raises(DomainError):
        dl_plan_discrete(PF, PG, 0)
    with pytest.raises(DomainError):
        dl_plan_discrete(PF, PG, 100, 1.0)
    for p, q in [(-0.1, 1.0), (0.5, 0.5), (0.6, 0.5), (0.0, 1.1), (0.0, 0.0)]:
        with pytest.raises(DomainError):
            dl_plan_discrete(PF, PG, 100, p, q=q)


def test_plan_window():
    f, g = Uniform(0, 1), Uniform(0, 1.5)
    plan = dl_plan_discrete(f, g, 400, 0.2, q=0.6)
    assert (plan.p, plan.q) == (0.2, 0.6)
    assert plan.x.min() == 0.2 and plan.x.max() < 0.6
    assert np.all(plan.x <= plan.y)
    # a uniform cell's mean sits half a cell above its left end
    half = 0.5 * 0.4 / 400
    assert_allclose(plan.mean_sums, plan.x + plan.y + 2.5 * half, rtol=1e-12)
    assert_allclose(plan.mean_sums.mean(), 0.4 + 0.6, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 60))
def test_plan_feasibility_tracks_order(n):
    # feasible whenever the stochastic order truly holds; infeasible when
    # it fails by more than one atom of mass (hairline cases may land
    # either way because plan levels sit on atom boundaries)
    rng = np.random.default_rng(n)
    xs = np.sort(rng.uniform(0.0, 1.0, n))
    ys = np.sort(rng.uniform(0.0, 1.2, n))
    f = Empirical(xs, np.full(n, 1.0 / n))
    g = Empirical(ys, np.full(n, 1.0 / n))
    ordered = bool(np.all(ys >= xs))
    violation = float(np.max(np.searchsorted(ys, xs, side="left") - np.arange(n))) / n
    levels = _plan_levels(n, 0.0)
    px, py = _grid_points((f, g), levels)
    try:
        y_idx = _match(px, py)  # the plan's matching, without its order check first
        assert np.all(px <= py[y_idx])
        assert violation <= 2.0 / n
    except PlanInfeasibleError:
        assert not ordered


def _stack_match(xs, ys):
    # the stack loop the plan used before its bracket matching: x runs
    # down, every y >= x is stacked first, and x pops the last stacked y
    n = xs.size
    stack, j, y_idx = [], 0, np.empty(n, dtype=np.int64)
    for i in range(n):
        while j < n and ys[j] >= xs[i]:
            stack.append(j)
            j += 1
        if not stack:
            raise PlanInfeasibleError(f"no available y >= {xs[i]:.6g} for pair {i + 1} of {n}")
        y_idx[i] = stack.pop()
    return y_idx


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
    st.lists(st.integers(0, 7), min_size=1, max_size=12),
    st.integers(1, 40),
    st.sampled_from([(0.0, 1.0), (0.3, 1.0), (0.0, 0.6), (0.2, 0.9)]),
)
def test_plan_matching_matches_stack_loop(xv, yv, n, window):
    # small integer atoms: ties within and across the two grids, and
    # pairs whose order fails by any margin
    f, g = empirical_from_samples(xv), empirical_from_samples(yv)
    p, q = window
    levels = _plan_levels(n, p, q)
    xs, ys = f.quantile_left(levels), g.quantile_left(levels)
    try:
        expected = _stack_match(xs, ys)
    except PlanInfeasibleError as exc:
        with pytest.raises(PlanInfeasibleError, match=re.escape(str(exc))):
            _match(*_grid_points((f, g), levels))
        return
    # the plan's matching on its grid points, without its order check first
    fx, gy = _grid_points((f, g), levels)
    y_idx = _match(fx, gy)
    np.testing.assert_array_equal(y_idx, expected)
    np.testing.assert_array_equal(gy[y_idx], ys[expected])


def _spy_argsort(monkeypatch):
    # the keys of every np.argsort call, as called
    keys, argsort = [], np.argsort

    def spy(a, *args, **kwargs):
        keys.append(np.array(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return keys


@pytest.mark.parametrize(
    "f, g, p, n, deepest_first",
    [
        (PF, PG, 0.0, 3000, False),
        (PF, PG, 0.9, 3000, False),
        # overlapping windows: the x depths never rise
        (Uniform(0, 1), Uniform(0, 1.5), 0.0, 3000, True),
        (Normal(0, 1), Normal(0.5, 1), 0.0, 3000, False),
        (_EMP_F, _EMP_G, 0.0, 3000, False),
        # the default plan size, where the depth counts span thousands of levels
        (Pareto(1.0, 1.1), Pareto(2.0, 1.1), 0.9, 10_000, False),
        (Uniform(0, 1), Uniform(0, 1.5), 0.0, 10_000, True),
    ],
    ids=[
        "pareto",
        "pareto_tail",
        "uniform",
        "normal",
        "empirical",
        "pareto_tail_10k",
        "uniform_10k",
    ],
)
def test_plan_matching_matches_stack_loop_continuous(f, g, p, n, deepest_first, monkeypatch):
    # either group order of the depth sorts gives the stack loop's matching;
    # ``_match`` sorts the deepest group first by negating both depth arrays
    levels = _plan_levels(n, p)
    (ys,) = _grid_points((g,), levels)
    keys = _spy_argsort(monkeypatch)
    plan = dl_plan_discrete(f, g, n, p)
    assert len(keys) == 2
    assert all(np.all(k < 0) if deepest_first else np.all(k > 0) for k in keys)
    np.testing.assert_array_equal(plan.y_index, _stack_match(plan.x, ys))
    np.testing.assert_array_equal(plan.y, ys[plan.y_index])


@pytest.mark.parametrize("draw", ["plan", "sample", "sample_jitter"])
def test_plan_and_dl_draws_refuse_an_undefined_sum_mean(draw):
    # X has mean -inf and Y mean +inf: the plan reads it from its cell means,
    # the draws, which read none, from the two end cells of each law
    def run(f, g):
        if draw == "plan":
            return dl_plan_discrete(f, g, 1000)
        return sample_coupling(f, g, "dl", 100, 3, jitter=draw == "sample_jitter")

    with pytest.raises(DomainError, match=r"mean of X \+ Y undefined"):
        run(negate_dist(Pareto(1, 0.5)), Pareto(1, 0.5))
    # one infinite mean, or two of one sign, leave the mean of X + Y defined
    for f, g in ((Pareto(1, 0.5), Pareto(2, 0.5)), (negate_dist(Pareto(2, 0.5)), Uniform(0, 1))):
        out = run(f, g)
        assert np.all(out.x <= out.y) and np.all(np.isfinite(out.x))


def test_plan_holds_a_clipped_bottom_point_to_the_next_level(monkeypatch):
    # F^{-1}(0) = -inf reads as F^{-1}(1 - DEFAULT_TRUNC); with cells narrower
    # than 1 - DEFAULT_TRUNC (n >= 10^6 at the real truncation) that stand-in lies
    # above the next level's point. The plan holds it there, so both point
    # sequences fall with the level and its matching is the stack loop's.
    monkeypatch.setattr(ordrisk.dist, "DEFAULT_TRUNC", 1.0 - 1e-2)
    f, g, n = Normal(0, 1), Normal(0.5, 1), 3000
    levels = _plan_levels(n, 0.0)
    (xs,) = _grid_points((f,), levels)
    assert xs[-1] > xs[-2]  # the stand-in, out of order as read
    plan = dl_plan_discrete(f, g, n)
    x, ys = plan.x, plan.y[np.argsort(plan.y_index)]  # the y points by level
    assert x[-1] == x[-2] and ys[-1] == ys[-2]
    np.testing.assert_array_equal(x[:-1], xs[:-1])
    assert np.all(x[1:] <= x[:-1]) and np.all(ys[1:] <= ys[:-1]) and np.all(x <= ys)
    np.testing.assert_array_equal(plan.y_index, _stack_match(x, ys))
    assert np.all(plan.x <= plan.y)


def test_window_means_are_shared_and_read_only():
    # one set of cell means per window, read by its plan and its countermonotone sums
    f, g = Uniform(0, 100), Uniform(0, 120)
    plan = dl_plan_discrete(f, g, 200, 0.9)
    memo = ordrisk.dist._per_pair
    fm, gm = memo(ordrisk.coupling._window_means, f, g, 200, 0.9, 1.0)
    assert not fm.flags.writeable and not gm.flags.writeable
    np.testing.assert_array_equal(plan.mean_sums, fm[::-1] + gm[::-1][plan.y_index])
    np.testing.assert_array_equal(B._sum_law(f, g, 200, 0.9, 1.0, False).means, np.sort(fm + gm[::-1]))
    again = memo(ordrisk.coupling._window_means, f, g, 200, 0.9, 1.0)
    assert again[0] is fm and again[1] is gm
    with pytest.raises(ValueError, match="read-only"):
        fm[0] = 0.0


@pytest.mark.parametrize("f, g", [(Uniform(0, 100), Uniform(0, 120)), (Pareto(1, 1.5), Pareto(2, 1.5))])
def test_plan_builds_one_edge_table(monkeypatch, f, g):
    # a plan hands its edge table to its points and, on a memo miss, to its
    # window means, so it builds one table whether the memo is cold or warm
    built = []
    original = ordrisk.coupling._cell_edges

    def edges(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(ordrisk.coupling, "_cell_edges", edges)
    ordrisk.dist._per_pair.cache_clear()
    cold = dl_plan_discrete(f, g, 300, 0.9)
    assert built == [(300, 0.9, 1.0)]
    warm = dl_plan_discrete(f, g, 300, 0.9)
    assert built == 2 * [(300, 0.9, 1.0)]
    fm, gm = ordrisk.coupling._window_means(f, g, 300, 0.9, 1.0)  # its own table
    np.testing.assert_array_equal(cold.mean_sums, fm[::-1] + gm[::-1][cold.y_index])
    np.testing.assert_array_equal(warm.mean_sums, cold.mean_sums)


def _stop_loss(sums, ts):
    # E(S - t)+ for S uniform on the given atoms, at every t
    s = np.sort(sums)
    above = np.concatenate((np.cumsum(s[::-1])[::-1], [0.0]))
    k = np.searchsorted(s, ts, side="right")
    return (above[k] - ts * (s.size - k)) / s.size


@pytest.mark.parametrize(
    "f, g",
    [
        (PF, PG),
        (Pareto(25.0, 2.0), Pareto(30.0, 2.0)),
        (Uniform(0, 100), Uniform(0, 120)),
        (Normal(0, 1), Normal(0.5, 1)),
        (_EMP_F, _EMP_G),
    ],
    ids=["pareto", "pareto_light", "uniform", "normal", "empirical"],
)
def test_plan_sum_between_counter_and_comonotone(f, g):
    # the DL pairing is a coupling of the two grids, so its sum has the
    # comonotone mean and lies between the countermonotone and comonotone
    # sums in convex order; stop-loss curves are piecewise linear with
    # kinks at the atoms, so checking every atom checks every t
    n = 2000
    plan = dl_plan_discrete(f, g, n)
    xs, ys = plan.x, np.sort(plan.y)[::-1]
    cases = [(plan.x + plan.y, xs + ys, xs + ys[::-1])]
    if np.all(np.isfinite(plan.mean_sums)):  # Pareto shape 1 has an infinite top cell
        edges = _cell_edges(n)
        mx, my = (m[::-1] for m in _cell_means((f, g), edges))
        cases.append((plan.mean_sums, mx + my, mx + my[::-1]))
    for dl, como, counter in cases:
        scale = np.abs(como).max()
        assert_allclose(dl.mean(), como.mean(), rtol=1e-12)
        ts = np.concatenate((dl, como, counter))
        stop_dl = _stop_loss(dl, ts)
        assert np.all(stop_dl <= _stop_loss(como, ts) + 1e-12 * scale)
        assert np.all(_stop_loss(counter, ts) <= stop_dl + 1e-12 * scale)


def test_dl_sum_cdf_against_closed_form():
    plan = dl_plan_discrete(PF, PG, 20_000)
    for c in (4.5, 5.0, 6.0, 8.0, 16.0):
        exact = (c + math.sqrt(c * c - 4.0 * c) - 4.0) / (2.0 * c)
        assert_allclose(dl_sum_cdf(plan, c), exact, atol=1e-3)


def test_dl_sum_cdf_uniform_tails():
    plan = dl_plan_discrete(Uniform(0, 1), Uniform(0, 1.5), 10_000)
    assert_allclose(dl_sum_cdf(plan, 1.75), 0.75, atol=1e-3)


def test_dl_sum_cdf_vectorized():
    plan = dl_plan_discrete(PF, PG, 1000)
    ts = np.array([0.0, 4.5, 1e9])
    out = dl_sum_cdf(plan, ts)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[2] == 1.0


def test_plan_repr_counts():
    plan = dl_plan_discrete(Uniform(0, 1), Uniform(0.5, 1.5), 100)
    assert isinstance(plan, DlPlan)
    assert "common" in repr(plan)


# ---------------------------------------------------------------------------
# samplers


def test_sample_comonotone_order():
    b = sample_coupling(Uniform(0, 1), Uniform(0, 1.5), "comonotone", 2000, 1)
    assert b.size == 2000 and b.seed == 1
    assert np.all(b.x <= b.y)


def test_sample_countermonotone_constant_sum():
    b = sample_coupling(Uniform(0, 1), Uniform(0, 1), "countermonotone", 2000, 1)
    assert_allclose(b.x + b.y, np.ones(2000), atol=1e-9)


def test_sample_dl_directional():
    for jitter in (False, True):
        b = sample_coupling(PF, PG, "dl", 5000, 9, jitter=jitter, plan_n=2000)
        assert np.all(b.x <= b.y)
        assert b.coupling_kind == "dl"


def test_sample_deterministic_by_seed():
    a = sample_coupling(PF, PG, "dl", 1000, 5, plan_n=1000)
    b = sample_coupling(PF, PG, "dl", 1000, 5, plan_n=1000)
    c = sample_coupling(PF, PG, "dl", 1000, 6, plan_n=1000)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_sample_marginal_means():
    b = sample_coupling(Uniform(0, 1), Uniform(0, 1.5), "dl", 40_000, 2, jitter=True)
    assert abs(b.x.mean() - 0.5) < 0.01
    assert abs(b.y.mean() - 0.75) < 0.015


def test_sample_unknown_kind():
    with pytest.raises(DomainError):
        sample_coupling(PF, PG, "independent", 10, 0)
    assert set(COUPLING_KINDS) == {"comonotone", "countermonotone", "dl"}


def test_sample_size_validation():
    # 2.5 used to draw 2 silently and "3" to pass; a float or negative seed
    # ended in a numpy TypeError or ValueError; integral floats are refused too
    bad = [(0, 0), (2.5, 0), ("3", 0), (3, 2.5), (3, -1), (3, "1")]
    for size, seed in bad + [(3.0, 0), (3, 1.0), (None, 0), (3, None), (math.nan, 0)]:
        with pytest.raises(DomainError):
            sample_coupling(PF, PG, "dl", size, seed)
    b = sample_coupling(PF, PG, "comonotone", np.int64(3), np.int64(1))
    assert (b.size, b.seed) == (3, 1)


# ---------------------------------------------------------------------------
# exports


def test_export_plan_csv(tmp_path):
    plan = dl_plan_discrete(PF, PG, 50)
    path = tmp_path / "plan.csv"
    export_plan_csv(plan, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,x,y,tag"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[3] in ("common", "singular")


def test_export_batch_csv(tmp_path):
    b = sample_coupling(Uniform(0, 1), Uniform(0, 1.5), "comonotone", 25, 4)
    path = tmp_path / "batch.csv"
    side = tmp_path / "batch.json"
    export_batch_csv(b, path, side)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 26
    meta = json.loads(side.read_text())
    assert meta == {"kind": "comonotone", "seed": 4, "size": 25}


def test_export_batch_csv_default_sidecar(tmp_path):
    b = sample_coupling(Uniform(0, 1), Uniform(0, 1.5), "comonotone", 5, 4)
    path = tmp_path / "batch.csv"
    export_batch_csv(b, path)
    assert (tmp_path / "batch.csv.json").exists()


def test_empirical_plan_roundtrip():
    vals = empirical_from_samples([1.0, 2.0, 4.0, 8.0])
    plan = dl_plan_discrete(vals, vals, 400)
    assert np.all(plan.tag == "common")
    # identity coupling doubles each atom: P(2X <= 4) = P(X <= 2) = 1/2
    assert_allclose(dl_sum_cdf(plan, 4.0), 0.5, atol=1e-2)
