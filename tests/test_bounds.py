"""Best/worst risk measure bounds, probability bounds and reports."""

import copy
import json
import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import ordrisk.coupling
import ordrisk.dist
from ordrisk import bounds as B
from ordrisk._search import refine_min
from ordrisk.coupling import TransportEvaluator, dl_plan_discrete, dl_sum_cdf
from ordrisk.dist import (
    DEFAULT_SCAN_N,
    DEFAULT_TRUNC,
    Empirical,
    Normal,
    Pareto,
    QuantileGrid,
    Uniform,
    empirical_from_samples,
    check_st,
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


# (unconstrained best, constrained best, constrained worst, unconstrained worst) of
# bound_report(f, g, "var", p) as float.hex; the Pareto(1.2345, 2.9348)/Pareto(1.5039, 2.9348)
# pair is the seed-1 shared-shape Pareto pair of the benchmark's var_curves workload
VAR_PIN_PAIRS = {
    "uniform": (Uniform(0.0, 100.0), Uniform(0.0, 120.0)),
    "pareto_table1": (Pareto(25.0, 2.0), Pareto(30.0, 2.0)),
    "pareto_1_2": (Pareto(1.0, 1.0), Pareto(2.0, 1.0)),
    "normal": (Normal(0.0, 1.0), Normal(0.5, 1.0)),
    "pareto_shared": (Pareto(1.2345, 2.9348), Pareto(1.5039, 2.9348)),
}
VAR_PINS = {
    "uniform": {
        0.1: ("0x1.7fffffffffffep+3", "0x1.4000000000000p+4", "0x1.8000000000000p+4", "0x1.c000000000000p+6"),
        0.5: ("0x1.e000000000000p+5", "0x1.9000000000000p+6", "0x1.e000000000000p+6", "0x1.4000000000000p+7"),
        0.9: ("0x1.b000000000000p+6", "0x1.6800000000000p+7", "0x1.a000000000000p+7", "0x1.a000000000000p+7"),
        0.95: ("0x1.c800000000000p+6", "0x1.7c00000000000p+7", "0x1.ac00000000000p+7", "0x1.ac00000000000p+7"),
        0.99: ("0x1.db33333333333p+6", "0x1.8c00000000000p+7", "0x1.b59999999999ap+7", "0x1.b59999999999ap+7"),
        0.995: ("0x1.dd9999999999ap+6", "0x1.8e00000000000p+7", "0x1.b6ccccccccccdp+7", "0x1.b6ccccccccccdp+7"),
    },
    "pareto_table1": {
        0.1: ("0x1.c4fb724c87914p+5", "0x1.c4fb724c87914p+5", "0x1.f9f6e4990f228p+5", "0x1.478108a5a8ffap+6"),
        0.5: ("0x1.0db4a400ba408p+6", "0x1.1ad7bc01366b8p+6", "0x1.536948017480fp+6", "0x1.b7648ced797cep+6"),
        0.9: ("0x1.df792b72cb59ep+6", "0x1.3c3a4edfa9759p+7", "0x1.7b792b72cb59ep+7", "0x1.eb418cf87d7f7p+7"),
        0.95: ("0x1.3e54021de755cp+7", "0x1.bf36ae31d6e43p+7", "0x1.0c54021de755cp+8", "0x1.5b5ed864daf94p+8"),
        0.99: ("0x1.44ffffffffffdp+8", "0x1.f400000000004p+8", "0x1.2bffffffffffep+9", "0x1.845f3c4cb2d7ep+9"),
        0.995: ("0x1.c1439a01d1a10p+8", "0x1.618dab0184068p+9", "0x1.a8439a01d1a10p+9", "0x1.129ed8146bec7p+10"),
    },
    "pareto_1_2": {
        0.1: ("0x1.9c71c71c71c72p+1", "0x1.9c71c71c71c72p+1", "0x1.1c71c71c71c71p+2", "0x1.9e77471d4e854p+2"),
        0.5: ("0x1.4000000000000p+2", "0x1.4000000000000p+2", "0x1.ffffffffffffep+2", "0x1.7504f333f9de6p+3"),
        0.9: ("0x1.5000000000001p+4", "0x1.5000000000001p+4", "0x1.3fffffffffffap+5", "0x1.d2463000f855ep+5"),
        0.95: ("0x1.47ffffffffffbp+5", "0x1.47ffffffffffbp+5", "0x1.3ffffffffffe7p+6", "0x1.d2463000f8550p+6"),
        0.99: ("0x1.91ffffffffffap+7", "0x1.91ffffffffffap+7", "0x1.8ffffffffff76p+8", "0x1.236bde009b33cp+9"),
        0.995: ("0x1.90ffffffffffap+8", "0x1.90ffffffffffap+8", "0x1.8fffffffffeeep+9", "0x1.236bde009b320p+10"),
    },
    "normal": {
        0.1: ("-0x1.6515209676abcp+1", "-0x1.479b420193fc4p+1", "-0x1.902786dc4da66p+0", "0x1.80ad5e3c74966p-1"),
        0.5: ("-0x1.b2ad70ea51491p-1", "-0x0.0p+0", "0x1.0000000000000p+0", "0x1.d956b87528a48p+0"),
        0.9: ("0x1.fd4a870e2da67p-3", "0x1.4813c36e26d33p+1", "0x1.c79b420193fc4p+1", "0x1.e515209676abcp+1"),
        0.95: ("0x1.7f9396bbf88d1p-2", "0x1.a515209676abcp+1", "0x1.10b100bda3469p+2", "0x1.1ae0198f77fc0p+2"),
        0.99: ("0x1.e654da32dc040p-2", "0x1.29c5c4630ff0ep+2", "0x1.6423d12cd60dbp+2", "0x1.69b4c64d6915bp+2"),
        0.995: ("0x1.f32a7d9d7958ap-2", "0x1.49b4c64d69160p+2", "0x1.82c38e98bd612p+2", "0x1.874ce1ece6f22p+2"),
    },
    "pareto_shared": {
        0.1: ("0x1.658d323dcb026p+1", "0x1.658d323dcb026p+1", "0x1.8f123354ac8bep+1", "0x1.cb8d7526234d9p+1"),
        0.5: ("0x1.91cc44ea1a49ap+1", "0x1.91cc44ea1a49ap+1", "0x1.e79058ad4b1a6p+1", "0x1.18ba7bc4e3ecdp+2"),
        0.9: ("0x1.21f00a8eb8059p+2", "0x1.5a4a34d27f15ap+2", "0x1.a5dbfc89fb4ecp+2", "0x1.e5cb62ffd1c69p+2"),
        0.95: ("0x1.5a215ec72f11fp+2", "0x1.b68b0dd5e1595p+2", "0x1.0b1f527d74b3bp+3", "0x1.339b333378458p+3"),
        0.99: ("0x1.0ea0f330ea371p+3", "0x1.7b71d90520c81p+3", "0x1.ce3fda181a0ffp+3", "0x1.0a27289488c73p+4"),
        0.995: ("0x1.4c3393031dc00p+3", "0x1.e087d833f041ep+3", "0x1.24b28cde4090ep+4", "0x1.510eb28504cf8p+4"),
    },
}


@pytest.mark.parametrize("name", sorted(VAR_PINS))
def test_var_reports_are_pinned_to_the_bit(name):
    # the %.12g output pins cannot see the last bits of a VaR bound
    f, g = VAR_PIN_PAIRS[name]
    for p, want in VAR_PINS[name].items():
        r = B.bound_report(f, g, "var", p=p)
        got = (r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst)
        assert tuple(v.hex() for v in got) == want, p


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
    # the four bounds at one threshold are one scan over the CDFs and one
    # joint refinement, no VaR solve; the replaced inversion made 5 to 42 VaR
    # solves per bound
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
    B._ROW_MEMO.clear()
    for t in ts:
        calls.update(var=0, refine=0)
        for bound in _PROB_BOUNDS:
            bound(f, g, t)
        assert calls == {"var": 0, "refine": 1}, t


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
    # F(0) - G(0) = -2e-4: the pair used to pass a 2/2048 order gate for atoms,
    # and then mo = 0.5 > Mo = 0.4998 at t = 1; the one rounding-size gate
    # refuses it before any bound is computed
    f = Empirical([0.0, 1.0], [0.4998, 0.5002])
    g = Empirical([0.0, 2.0], [0.5, 0.5])
    for bound in (B.prob_lower, B.prob_upper):
        with pytest.raises(OrderViolationError):
            bound(f, g, 1.0)
    with pytest.raises(OrderViolationError):
        B.bound_report(f, g, "prob", t=1.0)


def test_prob_report_builds_one_grid_per_pair(monkeypatch):
    # the pair's order check and the four scans share one node grid through
    # the per-pair memo; a second threshold builds nothing
    built = []
    original = ordrisk.dist._merged_grid

    def grid(*args):
        built.append(args)
        return original(*args)

    # one builder object in both modules, as without the patch
    monkeypatch.setattr(B, "_merged_grid", grid)
    monkeypatch.setattr(ordrisk.dist, "_merged_grid", grid)
    memo = ordrisk.dist._per_pair
    memo.cache_clear()
    B.bound_report(PF, PG, "prob", t=8.0)
    assert built == [((PF, PG), DEFAULT_SCAN_N)]
    assert memo.misses == 2  # the node grid and the order check
    B.bound_report(PF, PG, "prob", t=9.0)
    assert len(built) == 1 and memo.misses == 2
    nodes = memo(grid, (PF, PG), DEFAULT_SCAN_N)
    assert not nodes.flags.writeable
    assert_array_equal(nodes, original((PF, PG), DEFAULT_SCAN_N))


def test_step_pair_scans_build_one_grid_per_law_tuple(monkeypatch):
    # on step laws the node grid is the atoms at every level: the VaR and
    # essential scans of a curve read the order check's (f, g) grid, the
    # reflected pair's, and the unordered scans' (g,) and (-f,), once each,
    # which holds only while each law's reflection is built once
    built = []
    original = ordrisk.dist._merged_grid

    def grid(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(B, "_merged_grid", grid)
    monkeypatch.setattr(ordrisk.dist, "_merged_grid", grid)
    ordrisk.dist._per_pair.cache_clear()
    f = Empirical([1.0, 2.0, 4.0, 7.0], [2.0, 3.0, 1.0, 2.0])
    g = Empirical([2.0, 3.0, 5.0, 8.0], [1.0, 3.0, 2.0, 2.0])
    for p in (0.25, 0.6, 0.9):
        B.bound_report(f, g, "var", p=p)
    for measure in ("essinf", "esssup"):
        B.bound_report(f, g, measure)
    nf, ng = negate_dist(f), negate_dist(g)
    n = DEFAULT_SCAN_N
    assert Counter(built) == Counter([((f, g), n), ((ng, nf), n), ((g,), n // 2), ((nf,), n // 2)])


def test_per_pair_memo_builds_each_key_once(monkeypatch):
    # the order check, the probability scans, the plans and the
    # countermonotone sums of a pair: each builder runs once per key, however
    # many bounds and levels read it
    builds = []

    def counting(name, modules):
        original = getattr(modules[0], name)

        def build(*args, **given):  # a plan hands its edge table to its window means on a miss
            builds.append((name, *args))
            return original(*args, **given)

        for module in modules:  # one builder object wherever it is looked up
            monkeypatch.setattr(module, name, build)

    counting("_merged_grid", (B, ordrisk.dist))
    counting("check_st", (ordrisk.coupling,))
    counting("_window_means", (B, ordrisk.coupling))
    counting("_sum_law", (B,))
    ordrisk.dist._per_pair.cache_clear()
    f, g, n = Uniform(0, 100), Uniform(0, 120), 400
    for _ in range(2):
        for t in (110.0, 120.0):
            B.bound_report(f, g, "prob", t=t)
        for p in (0.9, 0.95):
            B.bound_report(f, g, "es", p=p, grid_n=n)
            B.bound_report(f, g, "rvar", p=p, q=0.99, grid_n=n)
            B.dl_sum_var(f, g, p, grid_n=n)
            B.ct_sum_var(f, g, p, grid_n=n)
        B.ct_sum_cdf(f, g, 110.0, grid_n=n)
        dl_plan_discrete(f, g, n)
    expected = [
        ("_merged_grid", (f, g), DEFAULT_SCAN_N),
        ("check_st", f, g),
        ("_window_means", f, g, n, 0.0, 1.0),
        ("_window_means", f, g, n, 0.9, 1.0),
        ("_window_means", f, g, n, 0.95, 1.0),
        ("_window_means", f, g, n, 0.0, 0.99),
        ("_sum_law", f, g, n, 0.0, 1.0, True),
        ("_sum_law", f, g, n, 0.0, 1.0, False),
        ("_sum_law", f, g, n, 0.0, 0.99, True),
        ("_sum_law", f, g, n, 0.0, 0.99, False),
    ]
    # worst RVaR's [p, 1) sum laws are built per call, outside the memo (their
    # cell means are memoised above): both couplings, both levels, both rounds
    for p in (0.9, 0.95):
        expected += 2 * [("_sum_law", f, g, n, p, 1.0, True), ("_sum_law", f, g, n, p, 1.0, False)]
    assert sorted(builds, key=repr) == sorted(expected, key=repr)


def _full_line_scan(f, g, t, objective, half, refine):
    """The whole-line scan the half-line blocks replaced, kept as the reference."""
    if math.isinf(t):
        return float(t > 0)
    nodes = ordrisk.dist._merged_grid((f, g), DEFAULT_SCAN_N)
    zs = np.unique(np.concatenate((nodes, t - nodes, [0.5 * t])))
    zs = np.sort(np.concatenate((zs, 0.5 * (zs[1:] + zs[:-1]))))
    zs = zs[half * (zs - 0.5 * t) >= 0.0]
    return float(refine(objective, zs, objective(zs), tol=1e-10 * max(1.0, abs(t))))


def _joined_window(table, t, scan, half, maximize):
    """The start window of the joined scan (the lower block, then the upper one past t/2), kept as the reference."""
    lower, upper = table
    if half > 0:
        k = int(np.searchsorted(upper.z, 0.5 * t))
        zs, vals = upper.z[k:], scan(upper)[k:]
    elif half < 0:
        zs, vals = lower.z, scan(lower)
    else:  # the upper block repeats the lower one's last three points, or t/2 alone where it is the only one
        k = min(3, lower.z.size)
        zs, vals = np.concatenate((lower.z, upper.z[k:])), np.concatenate((scan(lower), scan(upper)[k:]))
    i = int(np.argmin(np.fmin(-vals if maximize else vals, np.inf)))  # NaN ranks last
    return zs[max(i - 1, 0) : i + 2], vals[max(i - 1, 0) : i + 2]


def _reference_prob_bounds(f, g, t):
    """m, mo, Mo and M from ``_full_line_scan``."""
    fc, gc = (lambda z, d=d: np.asarray(d.cdf(z)) for d in (f, g))
    m = _full_line_scan(f, g, t, lambda u: fc(u) + gc(t - u) - 1.0, 0, B.refine_max)
    mo = _full_line_scan(f, g, t, lambda z: gc(z) - fc(z) + fc(t - z), 1, B.refine_max)
    big_mo = _full_line_scan(f, g, t, lambda z: fc(z) - gc(z) + gc(t - z), -1, B.refine_min)
    big_m = _full_line_scan(f, g, t, lambda u: fc(u) + gc(t - u), 0, B.refine_min)
    return [
        min(max(m, 0.0), 1.0),
        max(float(g.cdf(0.5 * t)), mo),
        min(float(f.cdf(0.5 * t)), big_mo),
        min(max(big_m, 0.0), 1.0),
    ]


def _assert_matches_full_line(f, g, ts):
    for t in ts:
        got = [bound(f, g, t) for bound in _PROB_BOUNDS]
        assert got == _reference_prob_bounds(f, g, float(t)), t


# the atom next below 1 puts a midpoint on t/2 = 1 at t = 2
_SEAM_PAIR = (Empirical([float(np.nextafter(1.0, 0.0)), 3.0], [1.0, 1.0]), Empirical([1.0, 3.0], [1.0, 1.0]))


@pytest.mark.parametrize(
    "f, g",
    [
        (Uniform(0.0, 100.0), Uniform(0.0, 120.0)),
        (Uniform(0.0, 1.0), Uniform(0.3, 2.0)),
        (PF, PG),
        (Pareto(25.0, 2.0), Pareto(30.0, 2.0)),
        (Normal(0.0, 1.0), Normal(0.5, 1.0)),
        (Normal(0.0, 1.0), Normal(0.0, 1.0)),
        (Normal(0.0, 1.0), Pareto(5.0, 1.0)),
        _SEAM_PAIR,
        (Empirical([1.0], [1.0]), Empirical([1.0], [1.0])),  # t/2 is the one scan point at t = 2
    ],
    ids=[
        "uniform",
        "uniform-shift",
        "pareto",
        "pareto-scaled",
        "normal",
        "normal-equal",
        "normal-pareto",
        "seam-atom",
        "one-atom",
    ],
)
def test_half_line_scans_match_full_line(f, g):
    qf, qg = float(f.quantile_left(0.5)), float(g.quantile_left(0.5))
    lo = float(f.quantile_left(0.01)) + float(g.quantile_left(0.01))
    hi = float(f.quantile_left(0.99)) + float(g.quantile_left(0.99))
    ts = [2.0 * qf, 2.0 * qg, qf + qg, -math.inf, math.inf, -1.0, 1.0, 2.0, *np.linspace(lo, hi, 9)]
    _assert_matches_full_line(f, g, ts)


def test_upper_half_keeps_a_midpoint_that_rounds_to_t_half():
    # the whole line holds t/2 twice there, so its half z >= t/2 refines the
    # empty bracket [1, 1] and never sees the spike on (1, 2)
    spike = lambda z: np.where(z == 1.0, 1.0, np.where((z > 1.0) & (z < 2.0), 1.5, 0.0))
    got = _window_refine(*_SEAM_PAIR, 2.0, spike, 1, True)
    assert got == _full_line_scan(*_SEAM_PAIR, 2.0, spike, 1, B.refine_max) == 1.0


def _window_refine(f, g, t, objective, half, maximize):
    """``objective`` refined alone from its start window of ``B._row_window``."""
    if math.isinf(t):
        return float(t > 0)
    table = B._threshold_table(f, g, t)
    zs, vals = B._row_window(table, t, lambda b: objective(b.z), half, maximize)
    refine = B.refine_max if maximize else B.refine_min
    return float(refine(objective, zs, vals, tol=1e-10 * max(1.0, abs(t))))


def _rippled(z):
    # 0 (or NaN) at every multiple of 1/4, where integer atoms and
    # half-integer thresholds put all scan points, and a bump of a different
    # height inside each quarter cell: the best scanned point is a tie, and
    # the bracket it picks decides the refined value
    cell = np.floor(4.0 * np.asarray(z))
    frac = 4.0 * np.asarray(z) - cell
    return np.where((frac == 0.0) & (cell % 5 == 3), np.nan, frac * (1.0 - frac) * (1.0 + cell % 7))


@pytest.mark.parametrize("t, bound", [(1.0, B.prob_lower_unconstrained), (-1.0, B.prob_upper_unconstrained)])
def test_whole_line_scan_refines_across_the_seam(t, bound):
    # for X = Y = N(0, 1), F(u) + F(t - u) is extreme at u = t/2 alone, the
    # last point of the lower block: its right neighbour comes from the upper one
    f = g = Normal(0.0, 1.0)
    row = 0 if t > 0 else 3
    scan, half, maximize = B._PROB_ROWS[row]
    xs, _ = B._row_window(B._threshold_table(f, g, t), t, scan, half, maximize)
    assert xs.size == 3 and xs[1] == 0.5 * t and xs[0] < xs[1] < xs[2]
    assert bound(f, g, t) == _reference_prob_bounds(f, g, t)[row]


def _recording(d, sizes):
    """A copy of ``d`` whose CDF records the size of every evaluation."""
    cls = type(d)

    class Recording(cls):
        def cdf(self, x):
            sizes.append(np.size(x))
            return cls.cdf(self, x)

    rec = copy.copy(d)
    rec.__class__ = Recording
    return rec


@pytest.mark.parametrize("f, g", [(PF, PG), (Normal(0.0, 1.0), Normal(0.5, 1.0))], ids=["pareto", "normal"])
def test_prob_scans_stay_below_malloc_threshold(f, g):
    # 16,384 float64 are 128 KiB, glibc's initial mmap threshold: arrays at
    # or above it come back as fresh pages on every call
    sizes = []
    f, g = _recording(f, sizes), _recording(g, sizes)
    t = float(f.quantile_left(0.7)) + float(g.quantile_left(0.4))  # t - nodes are new points
    for bound in _PROB_BOUNDS:
        bound(f, g, t)
    assert sizes and max(sizes) < 16_384
    assert max(sizes) > 4_000  # the node grid was scanned, not skipped


def test_one_threshold_table_per_row(monkeypatch):
    # the row memo: 3 misses (one table each) and 9 hits for 12 bound calls
    f, g = Pareto(25.0, 2.0), Pareto(30.0, 2.0)
    tables = []
    original = B._threshold_table
    monkeypatch.setattr(B, "_threshold_table", lambda *args: tables.append(args) or original(*args))
    B._ROW_MEMO.clear()
    for t in (70.0, 71.0, 70.0):  # a fresh threshold each time: one entry lives
        for bound in _PROB_BOUNDS:
            bound(f, g, t)
    assert tables == [(f, g, 70.0), (f, g, 71.0), (f, g, 70.0)]
    assert list(B._ROW_MEMO) == [(f, g, 70.0)]
    for bound in _PROB_BOUNDS:  # a bound at the last threshold again builds nothing
        bound(f, g, 70.0)
    assert len(tables) == 3


def test_threshold_table_is_read_only():
    lower, upper = B._threshold_table(PF, PG, 9.0)
    arrays = [a for block in (lower, upper) for a in block if a is not None]
    assert len(arrays) == 9 and lower.ft is None
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert lower.z[-1] == 4.5 == upper.z[np.searchsorted(upper.z, 4.5)]  # t/2 in both blocks


@pytest.mark.parametrize(
    "f, g",
    [
        (PF, PG),
        (Normal(0.0, 1.0), Normal(0.5, 1.0)),
        (Empirical(np.arange(200.0), np.ones(200)), Empirical(np.arange(200.0) + 3.0, np.ones(200))),
    ],
    ids=["pareto", "normal", "atoms"],
)
def test_prob_row_reads_each_cdf_column_once(f, g):
    # the table's columns F, G and G(t - z) on both blocks and F(t - z) on the
    # upper one; everything else is a joint refinement round (at most 4 rows of
    # 33 points) or a CDF at t/2
    sizes = []
    f, g = _recording(f, sizes), _recording(g, sizes)
    B._require_order(f, g)  # the pair's order check, once per pair
    for t in (float(f.quantile_left(0.6)) + float(g.quantile_left(0.3)), 2.0 * float(g.quantile_left(0.5))):
        sizes.clear()
        for bound in _PROB_BOUNDS:
            bound(f, g, t)
        big = [n for n in sizes if n > 4 * 33]
        assert len(big) == 7, t
        assert max(set(sizes) - set(big)) <= 4 * 33


# ---------------------------------------------------------------------------
# level-free sum-law memo


@pytest.mark.parametrize("q", [1.0, 0.99])
def test_level_free_memo_matches_fresh_builds(q):
    f, g, n = Pareto(25.0, 2.0), Pareto(30.0, 2.0), 500
    memo = ordrisk.dist._per_pair
    dl = memo(B._sum_law, f, g, n, 0.0, q, True)
    ct = memo(B._sum_law, f, g, n, 0.0, q, False)
    fresh = dl_plan_discrete(f, g, n, 0.0, q=q)
    fm, gm = ordrisk.coupling._window_means(f, g, n, 0.0, q)
    assert np.array_equal(dl.points, np.sort(fresh.x + fresh.y))
    assert np.array_equal(dl.means, np.sort(fresh.mean_sums))
    assert np.array_equal(ct.points, np.sort(fm + gm[::-1])) and ct.means is ct.points
    for arr in (*dl, *ct):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert memo(B._sum_law, f, g, n, 0.0, q, True) is dl
    assert memo(B._sum_law, f, g, n, 0.0, q, False) is ct


def test_level_free_memo_keys_on_the_objects():
    # equal parameters, other objects: a separate build, never a stale hit
    n, memo = 300, ordrisk.dist._per_pair
    a = memo(B._sum_law, Uniform(0, 100), Uniform(0, 120), n, 0.0, 1.0, False)
    b = memo(B._sum_law, Uniform(0, 100), Uniform(0, 140), n, 0.0, 1.0, False)
    assert not np.array_equal(a.points, b.points)
    f, g = Uniform(0, 100), Uniform(0, 120)
    assert memo(B._sum_law, f, g, n, 0.0, 1.0, False) is not a
    assert np.array_equal(memo(B._sum_law, f, g, n, 0.0, 1.0, False).points, a.points)


def _greedy_dl(xs, ys):
    """(i, j) pairs of the directed plan: x from the largest down takes the least free y >= x."""
    free, pairs = list(range(len(ys))), []
    for i in sorted(range(len(xs)), key=lambda i: -xs[i]):
        j = min((j for j in free if ys[j] >= xs[i]), key=lambda j: ys[j])
        free.remove(j)
        pairs.append((i, j))
    return pairs


def test_sum_laws_match_brute_force():
    # U(0, 1) and U(0, 2) on 8 cells: left cell ends i/8 and 2i/8, cell means
    # (i + 1/2)/8 and 2(i + 1/2)/8, all exact in binary
    f, g, n = Uniform(0.0, 1.0), Uniform(0.0, 2.0), 8
    ends, mids = np.arange(n) / n, (np.arange(n) + 0.5) / n
    pairs = _greedy_dl(ends, 2.0 * ends)
    dl_points = np.array([ends[i] + 2.0 * ends[j] for i, j in pairs])
    dl_means = np.array([mids[i] + 2.0 * mids[j] for i, j in pairs])
    ct_means = mids + 2.0 * mids[::-1]
    for law, points, means in (
        (B._sum_law(f, g, n, 0.0, 1.0, True), dl_points, dl_means),
        (B._sum_law(f, g, n, 0.0, 1.0, False), ct_means, ct_means),
    ):
        assert_array_equal(law.points, np.sort(points))
        assert_array_equal(law.means, np.sort(means))
        for t in np.concatenate((points, points - 0.01, points + 0.01, [-1.0, 9.0])):
            assert law.cdf(t) == np.count_nonzero(points <= t) / n
        for p in (0.01, 0.125, 0.3, 0.5, 0.625, 0.99, 1.0):
            assert law.var(p) == min(s for s in points if np.count_nonzero(points <= s) / n >= p)
        halves = np.sort(np.repeat(means, 2))  # 16 atoms of mass 1/16
        for frac in (1 / 16, 1 / 8, 5 / 16, 3 / 8, 0.5, 13 / 16, 1.0):
            k = int(16 * frac)
            assert_allclose(law.lower_mean(frac), halves[:k].mean(), rtol=1e-14)
            assert_allclose(law.upper_mean(frac), halves[16 - k :].mean(), rtol=1e-14)


def _table_index(n, ps):
    """The index ``_SumLaw.var`` read before: a search of the table of every k/n, clipped to n - 1."""
    return np.minimum(np.searchsorted((np.arange(n) + 1) / n, ps, side="left"), n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10_000, 12_345])
def test_sum_law_var_index_matches_the_level_table(n):
    # at every k/n, its two float neighbours, 0, 1 and seeded random levels
    ks = np.arange(n + 1) / n
    ps = np.concatenate((ks, np.nextafter(ks, -1.0), np.nextafter(ks, 2.0), [0.0, 1.0]))
    ps = np.concatenate((ps[(ps >= 0.0) & (ps <= 1.0)], np.random.default_rng(n).random(500)))
    law = B._SumLaw(np.arange(n, dtype=float), np.arange(n, dtype=float))
    assert_array_equal([law.var(float(p)) for p in ps], _table_index(n, ps))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 50_000), st.floats(0.0, 1.0))
def test_sum_law_var_index_matches_the_level_table_anywhere(n, p):
    law = B._SumLaw(np.arange(n, dtype=float), np.arange(n, dtype=float))
    for u in (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)):
        assert law.var(u) == _table_index(n, u)


def test_sum_law_sorts_each_field_on_first_read():
    # a field stays unsorted until read, then is sorted in place and read-only:
    # reading one field leaves the other unsorted
    f, g, n = Pareto(25.0, 2.0), Pareto(30.0, 2.0), 500
    plan = dl_plan_discrete(f, g, n, 0.9)
    law = B._sum_law(f, g, n, 0.9, 1.0, True)
    assert law._points.flags.writeable and np.any(np.diff(law._points) < 0.0)
    assert_array_equal(law.points, np.sort(plan.x + plan.y))
    assert law._means.flags.writeable
    assert_array_equal(law.means, np.sort(plan.mean_sums))
    fm, gm = ordrisk.coupling._window_means(f, g, n, 0.9, 1.0)
    ct = B._sum_law(f, g, n, 0.9, 1.0, False)
    assert_array_equal(ct.means, np.sort(fm + gm[::-1]))
    assert ct.points is ct.means
    for arr in (*law, *ct):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "f, g",
    [
        (PF, PG),
        (Empirical([1.0, 2.0, 4.0, 7.0], [2.0, 3.0, 1.0, 2.0]), Empirical([2.0, 3.0, 5.0, 8.0], [1.0, 3.0, 2.0, 2.0])),
    ],
    ids=["pareto", "atoms"],
)
def test_dl_law_cdf_is_the_plan_sum_cdf(f, g):
    # at every plan sum and at its two float neighbours
    law, plan = B._sum_law(f, g, 500, 0.0, 1.0, True), dl_plan_discrete(f, g, 500)
    sums = np.unique(plan.x + plan.y)
    for t in np.concatenate((sums, np.nextafter(sums, -np.inf), np.nextafter(sums, np.inf))):
        assert law.cdf(float(t)) == dl_sum_cdf(plan, float(t))


def test_unconstrained_mean_bounds_need_no_order():
    # the memo's countermonotone entry runs no order check
    f, g = Uniform(0, 120), Uniform(0, 100)
    assert B.best_es_unconstrained(f, g, 0.9, grid_n=400) == B.best_es_unconstrained(g, f, 0.9, grid_n=400)
    with pytest.raises(OrderViolationError):
        B.best_es_constrained(f, g, 0.9, grid_n=400)


# ---------------------------------------------------------------------------
# coupling VaR curves


def _atom_quantile(sums, p):
    """Left p-quantile of n equal atoms: the k-th smallest for the least k with k/n >= p (floats)."""
    s = np.sort(sums)
    return float(s[next(k for k in range(1, s.size + 1) if k / s.size >= p) - 1])


def test_dl_sum_var_reuse():
    # the memo's whole-pair sum laws equal fresh builds
    n = 2000
    plan = dl_plan_discrete(PF, PG, n, 0.0)
    fm, gm = ordrisk.coupling._window_means(PF, PG, n, 0.0, 1.0)
    for p in (0.1, 0.5, 0.9, 0.999):
        assert B.dl_sum_var(PF, PG, p, grid_n=n) == _atom_quantile(plan.x + plan.y, p)
        assert B.ct_sum_var(PF, PG, p, grid_n=n) == _atom_quantile(fm + gm[::-1], p)


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
        lambda: B.ct_sum_cdf(negate_dist(PF), PG, 4.0),
    ],
    ids=["report", "best_es_unconstrained", "worst_rvar_p0", "ct_sum_cdf"],
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


@pytest.mark.parametrize(
    "f, g, expected",
    [
        (Normal(0.0, 1.0), Normal(0.0, 2.0), (-math.inf, math.inf)),
        (Normal(0.0, 2.0), Normal(0.0, 1.0), (-math.inf, math.inf)),
        (Normal(0.0, 1.0), Normal(0.5, 1.0), (0.5, 0.5)),
        (Pareto(1.0, 2.0), negate_dist(Pareto(1.0, 2.0)), (0.0, 0.0)),
        (Pareto(2.0, 2.0), negate_dist(Pareto(1.0, 2.0)), (1.0, math.inf)),
        (negate_dist(Pareto(1.0, 2.0)), Normal(0.0, 1.0), (-math.inf, -1.3000057822782914)),
    ],
    ids=["normal-wider-g", "normal-wider-f", "normal-equal-sd", "power-tie", "power-scale", "power-normal"],
)
def test_unconstrained_essential_bounds_at_infinite_ends(f, g, expected):
    # where an infinite upper tail meets an infinite lower tail (inf - inf),
    # the heavier tail decides: the countermonotone sum of normals is
    # mean_F + mean_G + (sd_F - sd_G) Z, that of Pareto(s, a) and -Pareto(s', a)
    # is (s - s') U^(-1/a), and a power tail beats a Gaussian one; an exact
    # tie is the constant sum. The last value is max_v [-v^(-1/2) + Phi^{-1}(1 - v)].
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf - inf reaches numpy
        got = (B.worst_ess_inf_unconstrained(f, g), B.best_ess_sup_unconstrained(f, g))
    assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


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


def _nested_route(f, g, p):
    """The replaced route: min of x + T_p(x) over [F^{-1}(p), G^{-1}(p)], capped by 2 G^{-1}(p)."""
    b = float(g.quantile_left(p))
    if b == -math.inf:
        return -math.inf
    a = float(f.quantile_left(p))
    if a == -math.inf:
        if g.support_hi < math.inf:
            return -math.inf
        a = float(f.quantile_left(p + (1.0 - p) * (1.0 - DEFAULT_TRUNC)))
    a = min(a, b)
    ev = TransportEvaluator(f, g, p=p)
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
        (Normal(0.0, 1.0), Normal(1.0, 1.0), (-math.inf, math.inf)),
        (Pareto(1.0, 0.5), Pareto(1.5, 0.5), (3.0, math.inf)),
    ],
    ids=["normal-shift", "pareto-half"],
)
def test_closed_form_infinite_outcomes(f, g, expected):
    # worst ess-inf is -inf for a G unbounded below, and best ess-sup +inf
    # for an unbounded G: the same as the nested route
    assert _closed_form_bounds(f, g, 0.0) == _nested_bounds(f, g, 0.0) == expected


@pytest.mark.parametrize(
    "scale, shape, expected",
    [(1.0, 0.5, (-math.inf, 0.0)), (1.0, 2.0, (0.0, math.inf)), (1.0, 1.0, (0.0, 0.0)), (2.0, 1.0, (-math.inf, -1.0))],
    ids=["lower-heavier", "upper-heavier", "tie", "lower-wider"],
)
def test_essential_bounds_at_infinite_ends_of_separated_supports(scale, shape, expected):
    # X = -Pareto(scale, shape) <= -1 < 1 <= Y = Pareto(1, 1): every coupling
    # is ordered, so constrained and unconstrained bounds agree; the
    # countermonotone sum is 1/v - scale v^(-1/shape) for v in (0, 1]
    f, g = negate_dist(Pareto(scale, shape)), Pareto(1.0, 1.0)
    got = [
        (B.worst_ess_inf_constrained(f, g), B.best_ess_sup_constrained(f, g)),
        (B.worst_ess_inf_unconstrained(f, g), B.best_ess_sup_unconstrained(f, g)),
    ]
    assert_allclose(got, [expected, expected], rtol=0.0, atol=1e-12)


def test_constrained_essential_bounds_check_the_order_first():
    # the pair is not ordered (F(1) - G(1) = -0.159): the infinite-value
    # shortcuts (-inf, +inf) must not answer before the order gate
    f, g = Normal(0.0, 1.0), Uniform(0.0, 1.0)
    calls = [
        lambda: B.worst_ess_inf_constrained(f, g),
        lambda: B.best_ess_sup_constrained(f, g),
        lambda: B.bound_report(f, g, "essinf"),
        lambda: B.bound_report(f, g, "esssup"),
    ]
    for call in calls:
        with pytest.raises(OrderViolationError):
            call()


@pytest.mark.parametrize("p", [0.5, 0.9, 0.999])
def test_best_var_at_equal_tail_limit(p):
    # the infimum is the limit x -> F^{-1}(p)+ at the upper end where F = G
    # after negation: best VaR = max Y + min X = 0.3 + 1.7 p. The nested
    # x scan saw +inf at that end and returned 2 F^{-1}(p) = 1.998 at 0.999.
    got = B.best_var_constrained(Uniform(0.0, 1.0), Uniform(0.3, 2.0), p)
    assert_allclose(got, 0.3 + 1.7 * p, rtol=1e-12)


@pytest.mark.parametrize("p", [0.99, 0.999, 1.0 - 1e-6])
def test_var_report_nests_far_in_the_tail(p):
    # best VaR is attained far out in F's lower tail (F levels near 1e-5 at
    # p = 0.99 and 1e-13 at 1 - 1e-6), past the scans' last midpoint level:
    # the tail levels 1 - 2^-k reach it
    from scipy.special import ndtr, ndtri

    f, g = Normal(0.0, 1.0), Pareto(5.0, 1.0)
    rep = B.bound_report(f, g, "var", p=p)
    got = [rep.unconstrained_best, rep.constrained_best, rep.constrained_worst, rep.unconstrained_worst]
    assert got == sorted(got)
    # dense Makarov scans in x = F^{-1} of the level, with tail probabilities
    # read through ndtr(-x) so no level cancels: worst = inf_a F^{-1}(p + a)
    # + G^{-1}(1 - a), best = sup_a F^{-1}(a) + G^{-1}(p - a)
    r, x = 1.0 - p, np.linspace(-38.0, 38.0, 400_001)
    a = r - ndtr(-x)
    worst = np.min(x[a > 0] + 5.0 / a[a > 0])
    best = np.max((x + 5.0 / (r + ndtr(x)))[ndtr(x) <= p])
    # F(z) = 1 in double above G^{-1}(p) >= 500 and G = 0 below F^{-1}(p) < 5,
    # so the constrained scans read the same levels there (best has X + Y >= 2X)
    want = [best, max(best, 2.0 * ndtri(p)), worst, worst]
    assert_allclose(got, want, rtol=1e-9)


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


@pytest.mark.parametrize(
    "measure, kw",
    [
        ("var", dict(p=0.9, q=0.99)),
        ("es", dict(p=0.9, q=0.99)),
        ("essinf", dict(q=0.99)),
        ("prob", dict(t=8.0, q=0.99)),
        ("var", dict(p=0.9, t=8.0)),
        ("esssup", dict(t=8.0)),
        ("rvar", dict(p=0.9, q=0.99, t=8.0)),
        ("prob", dict(t=8.0, p=0.5)),
    ],
)
def test_report_refuses_unread_keywords(measure, kw):
    with pytest.raises(DomainError, match="does not take"):
        B.bound_report(PF, PG, measure, **kw)


@pytest.mark.parametrize(
    "measure, kw",
    [
        ("prob", dict(t="5")),
        ("prob", dict(t=[1, 2])),
        ("prob", dict(t=np.array([8.0]))),
        ("prob", dict(t=8.0 + 0j)),
        ("var", dict(p="abc")),
        ("var", dict(p="0.5")),
        ("var", dict(p=[0.5])),
        ("var", dict(p=0.5 + 0j)),
        ("es", dict(p="0.5")),
        ("essinf", dict(p="abc")),
        ("esssup", dict(p=5.0)),
        ("rvar", dict(p=0.9, q="x")),
        ("rvar", dict(p="0.9", q=0.99)),
        ("rvar", dict(p=0.9, q=[0.99])),
        ("rvar", dict(p=0.9 + 0j, q=0.99)),
    ],
)
def test_report_refuses_non_real_levels_and_thresholds(measure, kw):
    with pytest.raises(DomainError, match="level|threshold"):
        B.bound_report(PF, PG, measure, **kw)


def test_report_takes_numpy_real_scalars():
    assert B.bound_report(PF, PG, "prob", t=np.int64(8)) == B.bound_report(PF, PG, "prob", t=8.0)
    p = np.float32(0.9)
    assert B.bound_report(PF, PG, "var", p=p) == B.bound_report(PF, PG, "var", p=float(p))
    rvar = B.bound_report(PF, PG, "rvar", p=np.float64(0.9), q=np.float32(0.99))
    assert rvar == B.bound_report(PF, PG, "rvar", p=0.9, q=float(np.float32(0.99)))


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


_MEAN_ROUTES = {
    "ct_sum_var": lambda n: B.ct_sum_var(PF, PG, 0.9, grid_n=n),
    "ct_sum_cdf": lambda n: B.ct_sum_cdf(PF, PG, 8.0, grid_n=n),
    "dl_sum_var": lambda n: B.dl_sum_var(PF, PG, 0.9, grid_n=n),
    "best_es_constrained": lambda n: B.best_es_constrained(PF, PG, 0.9, grid_n=n),
    "best_es_unconstrained": lambda n: B.best_es_unconstrained(PF, PG, 0.9, grid_n=n),
    "worst_rvar_constrained": lambda n: B.worst_rvar_constrained(PF, PG, 0.5, 0.9, grid_n=n),
    "best_rvar_constrained": lambda n: B.best_rvar_constrained(PF, PG, 0.5, 0.9, grid_n=n),
    "worst_rvar_unconstrained": lambda n: B.worst_rvar_unconstrained(PF, PG, 0.5, 0.9, grid_n=n),
    "best_rvar_unconstrained": lambda n: B.best_rvar_unconstrained(PF, PG, 0.5, 0.9, grid_n=n),
    "report_es": lambda n: B.bound_report(PF, PG, "es", p=0.9, grid_n=n),
    "report_rvar": lambda n: B.bound_report(PF, PG, "rvar", p=0.5, q=0.9, grid_n=n),
    "plan": lambda n: dl_plan_discrete(PF, PG, n),
    "sample_dl": lambda n: ordrisk.coupling.sample_coupling(PF, PG, "dl", 10, 0, plan_n=n),
}


@pytest.mark.parametrize("n", [0, -3, 1.5, math.nan, math.inf, 100.0, "100", None])
@pytest.mark.parametrize("route", sorted(_MEAN_ROUTES))
def test_mean_routes_refuse_a_bad_cell_count(route, n):
    # every route reads its cell means from one builder, which refuses n
    # before any divide, instead of an IndexError or a silent n = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="cell count n must be a positive integer"):
            _MEAN_ROUTES[route](n)


@pytest.mark.parametrize("trunc", [0.5, 1.0, 0.3, 1.5, -0.9, math.nan, math.inf])
@pytest.mark.parametrize("measure, kw", [("var", {"p": 0.9}), ("es", {"p": 0.9}), ("prob", {"t": 8.0})])
def test_report_refuses_a_bad_truncation(measure, kw, trunc):
    # a report takes no truncation level, so every one is refused, never ignored
    with pytest.raises(TypeError, match="trunc"):
        B.bound_report(PF, PG, measure, trunc=trunc, **kw)


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


@settings(max_examples=60, deadline=None)
@given(_ordered_atoms(), st.integers(-2, 70))
def test_half_line_scans_match_full_line_on_atoms(pair, half_t):
    f, g = pair
    _assert_matches_full_line(f, g, [0.5 * half_t, 2.0 * f.quantile_left(0.5), 2.0 * g.quantile_left(0.5)])


@settings(max_examples=80, deadline=None)
@given(_ordered_atoms(), st.integers(-2, 70), st.sampled_from([-1, 0, 1]), st.booleans())
@example(pair=_SEAM_PAIR, half_t=4, half=1, maximize=True)
@example(pair=(_SEAM_PAIR[1], Empirical([float(np.nextafter(1.0, 2.0)), 3.0], [1.0, 1.0])), half_t=4, half=-1, maximize=False)
@example(pair=(_SEAM_PAIR[1], Empirical([float(np.nextafter(1.0, 2.0)), 3.0], [1.0, 1.0])), half_t=4, half=0, maximize=True)
@example(pair=(_SEAM_PAIR[1], Empirical([float(np.nextafter(1.0, 2.0)), 3.0], [1.0, 1.0])), half_t=4, half=0, maximize=False)
def test_scan_window_matches_full_line_for_any_objective(pair, half_t, half, maximize):
    # the refinement starts from the full line's first best point and its
    # neighbours even where ties and features between scan points decide it
    f, g = pair
    t = 0.5 * half_t
    objective, refine = (_rippled, B.refine_max) if maximize else (lambda z: -_rippled(z), B.refine_min)
    got = _window_refine(f, g, t, objective, half, maximize)
    assert got == _full_line_scan(f, g, t, objective, half, refine)


# the four rows, then the rippled objective, maximized and minimized on each half-line
_WINDOW_SCANS = list(B._PROB_ROWS) + [
    (lambda b, sign=sign: sign * _rippled(b.z), half, sign > 0) for half in (-1, 0, 1) for sign in (1.0, -1.0)
]


@settings(max_examples=80, deadline=None)
@given(_ordered_atoms(), st.integers(-2, 70))
@example(_SEAM_PAIR, 4)
@example((_SEAM_PAIR[1], Empirical([float(np.nextafter(1.0, 2.0)), 3.0], [1.0, 1.0])), 4)
@example((Empirical([1.0], [1.0]), Empirical([1.0], [1.0])), 2)  # t/2 is the one scan point
def test_row_window_matches_the_joined_scan(pair, half_t):
    # the whole-line window from one block: the same points and values, to the bit
    f, g = pair
    t = 0.5 * half_t
    table = B._threshold_table(f, g, t)
    for scan, half, maximize in _WINDOW_SCANS:
        got = B._row_window(table, t, scan, half, maximize)
        want = _joined_window(table, t, scan, half, maximize)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (half, maximize)


def test_worst_var_at_atom_boundary():
    # the LP gives 13; F and G both reach 1/2 here, but Empirical._cumw sums
    # 7/14 as 0.49999999999999994 for one of them, which made the old plan
    # route raise PlanInfeasibleError; the scan reads that level as 1/2
    assert B.worst_var_constrained(_XA, _YA, 0.5) == 13.0


def _exact_weights(d):
    # the atom pairs here have weights k/W with W <= 40
    return [Fraction(float(w)).limit_denominator(1000) for w in d.weights]


def _lp_bounds(f, g, levels, ordered):
    """LP values of four VaR and essential bounds: ({p: (worst VaR_p, best VaR_p)}, ess-inf, ess-sup).

    VaR_p = min{t : P(X + Y <= t) >= p}, read off the LP bounds at the atom
    sums: mo and Mo with ``ordered``, else m and M (all couplings).
    """
    table = [(t,) + _lp_prob(f, g, t, ordered) for t in np.unique(np.add.outer(f.values, g.values))]
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


_BINARY = Empirical([0.0, 1.0], [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(_ordered_atoms())
@example((_XA, _YA))
@example((_BINARY, _BINARY))  # the countermonotone sum is 1: both unconstrained essential bounds are 1
def test_constrained_bounds_match_lp_on_atoms(pair):
    # levels on and between the cumulative weights of both laws, as exact fractions;
    # the four constrained bounds, then the four unconstrained ones
    f, g = pair
    cums = {Fraction(0), Fraction(1)}
    for d in (f, g):
        cums.update(accumulate(_exact_weights(d)))
    cums = sorted(cums)
    levels = sorted({float(c) for c in cums[1:-1]} | {float((a + b) / 2) for a, b in zip(cums, cums[1:])})
    families = [
        (True, B.worst_var_constrained, B.best_var_constrained, B.worst_ess_inf_constrained, B.best_ess_sup_constrained),
        (
            False,
            B.worst_var_unconstrained,
            B.best_var_unconstrained,
            B.worst_ess_inf_unconstrained,
            B.best_ess_sup_unconstrained,
        ),
    ]
    for ordered, worst_var, best_var, worst_ess_inf, best_ess_sup in families:
        var, ess_inf, ess_sup = _lp_bounds(f, g, levels, ordered)
        got = [(worst_var(f, g, p), best_var(f, g, p)) for p in levels]
        assert_allclose(got, [var[p] for p in levels], rtol=0.0, atol=1e-9)
        assert_allclose(worst_ess_inf(f, g), ess_inf, rtol=0.0, atol=1e-9)
        assert_allclose(best_ess_sup(f, g), ess_sup, rtol=0.0, atol=1e-9)


def test_worst_var_unconstrained_on_atoms():
    # m(26) = 6/19 >= p > m(25), so the worst VaR is 26; a level scan
    # through left quantiles missed the atom boundary and returned 31
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


@st.composite
def _crossing_atoms(draw, least=0.0, most=2.0 / 2048):
    # an ordered atom pair, then mass of ``least`` to ``most`` moved up between two X
    # atoms: F falls by that much between them, so the CDFs may cross
    f, g = draw(_ordered_atoms())
    i, j = sorted(draw(st.lists(st.integers(0, f.values.size - 1), min_size=2, max_size=2, unique=True)))
    w = f.weights.copy()
    moved = min(draw(st.floats(least, most)), w[i] / 2.0)
    w[i] -= moved
    w[j] += moved
    return Empirical(f.values, w), g


_FOUND_PAIR = (Empirical([0.0, 1.0], [0.4995, 0.5005]), Empirical([0.0, 2.0], [0.5, 0.5]))
# crosses by 1e-10, which the gate admits; read at p = 1/2 within 1e-12 of the
# cumulative weights, best constrained VaR was 2 and worst 0
_NEAR_PAIR = (Empirical([0.0, 1.0], [0.5 - 1e-10, 0.5 + 1e-10]), Empirical([0.0, 1.0], [0.5, 0.5]))


@settings(max_examples=80, deadline=None)
@given(_crossing_atoms(), st.integers(-2, 70), st.floats(0.001, 0.999))
@example(_FOUND_PAIR, 2, 0.5)  # F(0) - G(0) = -5e-4 used to pass a 2/2048 gate for atoms
@example(_NEAR_PAIR, 2, 0.5)
def test_order_gate_admits_only_pairs_whose_bounds_nest(pair, half_t, p):
    # one rounding-size tolerance: an admitted pair gives nested reports, and
    # every constrained bound refuses the rest at the gate
    f, g = pair
    t = half_t / 2.0
    if check_st(f, g).holds:
        for r in (B.bound_report(f, g, "prob", t=t), B.bound_report(f, g, "var", p=p)):
            vals = [r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst]
            assert vals == sorted(vals), vals
    else:
        for bound, x in ((B.prob_lower, t), (B.prob_upper, t), (B.worst_var_constrained, p), (B.best_var_constrained, p)):
            with pytest.raises(OrderViolationError):
                bound(f, g, x)


def test_var_report_nests_on_a_pair_crossing_by_1e_10():
    r = B.bound_report(*_NEAR_PAIR, "var", p=0.5)
    assert [r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst] == [0.0, 0.0, 0.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(_crossing_atoms(1e-13, 9e-10))
@example(_NEAR_PAIR)
def test_var_reports_nest_at_every_cumulative_weight_of_nearly_ordered_pairs(pair):
    # the gate admits these crossings; the atoms' quantiles must read a level
    # within the gate's tolerance of a cumulative weight as that weight
    f, g = pair
    assert check_st(f, g).holds
    for p in np.unique(np.concatenate((f._cumw[:-1], g._cumw[:-1]))):
        r = B.bound_report(f, g, "var", p=float(p))
        vals = [r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst]
        assert vals == sorted(vals), (p, vals)


@settings(max_examples=40, deadline=None)
@given(_crossing_atoms(1e-13, 9e-10), st.integers(0, 20))
@example(_NEAR_PAIR, 0)  # the plan used to find no y >= 1 for pair 5000 of 10000
@example((_XA, _YA), 3)  # p = 1/2, where the ranks meet; the plan found no y >= 9
def test_plan_reports_and_draws_hold_on_admitted_crossing_pairs(pair, k):
    # the plan clamps each y point to the x point of its level, so a pair the
    # gate admits has a plan at a cumulative weight, where the ranks meet
    f, g = pair
    assert check_st(f, g).holds
    levels = np.unique(np.concatenate((f._cumw[:-1], g._cumw[:-1])))
    p = float(levels[k % levels.size])
    for r in (B.bound_report(f, g, "es", p=p), B.bound_report(f, g, "rvar", p=p, q=0.5 + p / 2.0)):
        vals = [r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst]
        assert all(map(math.isfinite, vals)) and vals == sorted(vals), (r.measure, p, vals)
    batch = ordrisk.coupling.sample_coupling(f, g, "dl", 500, 1)
    assert np.all(batch.x <= batch.y)


def test_ranks_meet_pair_best_es_matches_the_lp():
    # the LP gives ES_0.5 = 150/7 under the order constraint
    assert abs(B.bound_report(_XA, _YA, "es", p=0.5).constrained_best - 150.0 / 7.0) <= 1e-3



# ---------------------------------------------------------------------------
# exact scans of step-CDF pairs


def _step_reports(f, g, p, t):
    """The var, prob, ess-inf and ess-sup reports of a pair, as JSON text (signs of zero kept)."""
    B._ROW_MEMO.clear()
    reports = [
        B.bound_report(f, g, "var", p=p),
        B.bound_report(f, g, "prob", t=t),
        B.bound_report(f, g, "ess_inf"),
        B.bound_report(f, g, "ess_sup"),
    ]
    return json.dumps([r.to_json_dict() for r in reports])


@pytest.mark.parametrize("t", [12.0, 15.5, 17.0])
def test_step_cdf_pairs_are_not_refined(monkeypatch, t):
    # the scans over the atoms are exact, so no VaR, essential or probability
    # bound of an atom pair (reflected for the best bounds) evaluates its
    # objective beyond its scan: refine_min runs no round at tolerance inf
    calls, evals = [], []
    original = B.refine_min

    def counted(objective, *args, **kwargs):
        calls.append(kwargs["tol"])

        def each(pts):
            evals.append(1)
            return objective(pts)

        return original(each, *args, **kwargs)

    monkeypatch.setattr(B, "refine_min", counted)
    _step_reports(_XA, _YA, 0.5, t)
    assert calls and all(tol == math.inf for tol in calls) and evals == []
    _step_reports(_XA, Uniform(6.0, 13.0), 0.5, t)  # one step CDF is not enough
    assert evals


@settings(max_examples=80, deadline=None)
@given(_ordered_atoms(), st.floats(0.001, 0.999), st.integers(-2, 70))
@example((_XA, _YA), 0.5, 31)
@example(_SEAM_PAIR, 0.5, 4)
def test_step_cdf_scans_equal_their_refinement(pair, p, half_t):
    # to the bit: the refinement of an exact scan finds nothing lower
    f, g = pair
    fast = _step_reports(f, g, p, 0.5 * half_t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "_steps", lambda f, g: False)
        assert _step_reports(f, g, p, 0.5 * half_t) == fast
