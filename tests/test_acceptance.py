"""Twelve-point acceptance gate for the release.

Each test prints one verdict line (run with ``pytest -s`` to see them all
on a passing suite). Numbers follow the project checklist; tolerances are
part of the contract and must not be loosened.
"""

import math

import numpy as np

from ordrisk.bounds import (
    best_var_constrained,
    bound_report,
    prob_lower,
    prob_upper,
    worst_es_constrained,
    worst_ess_inf_constrained,
    worst_ess_inf_unconstrained,
    worst_rvar_constrained,
    worst_var_constrained,
    worst_var_unconstrained,
)
from ordrisk.coupling import dl_plan_discrete, dl_sum_cdf, sample_coupling
from ordrisk.dist import (
    DEFAULT_TRUNC,
    Pareto,
    Uniform,
    check_ss,
    check_st,
    es_eval,
    to_grid,
    upper_tail,
)
from ordrisk.oracle import (
    comonotone_es,
    conditional_tail_ss_check,
    grid_convergence,
    ra_unconstrained_var,
    stop_loss_curve,
)

PF = Pareto(1.0, 1.0)
PG = Pareto(2.0, 1.0)
SQ2 = math.sqrt(2.0)

UNIFORM_PAIRS = [
    (Uniform(0.0, 100.0), Uniform(0.0, 120.0)),
    (Uniform(0.0, 100.0), Uniform(0.0, 140.0)),
    (Uniform(0.0, 100.0), Uniform(0.0, 160.0)),
]
PARETO_PAIRS = [
    (Pareto(25.0, 2.0), Pareto(30.0, 2.0)),
    (Pareto(25.0, 2.0), Pareto(35.0, 2.0)),
    (Pareto(25.0, 2.0), Pareto(40.0, 2.0)),
]
TABLE_PAIRS = UNIFORM_PAIRS + PARETO_PAIRS


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_c01_dl_sum_cdf_closed_form():
    plan = dl_plan_discrete(PF, PG, 100_000, 0.0)
    errs = []
    for c in (4.5, 5.0, 6.0, 8.0, 16.0):
        exact = (c + math.sqrt(c * c - 4.0 * c) - 4.0) / (2.0 * c)
        errs.append(abs(dl_sum_cdf(plan, c) - exact))
    worst = max(errs)
    _verdict(1, worst <= 5e-3, f"dl sum cdf vs closed form, max abs err {worst:.2e}")


def test_c02_worst_ess_inf():
    closed = worst_ess_inf_constrained(PF, PG)
    grid = worst_ess_inf_constrained(to_grid(PF, 10_000), to_grid(PG, 10_000))
    unc = worst_ess_inf_unconstrained(PF, PG)
    rep = bound_report(PF, PG, "essinf")
    ok = (
        closed == 4.0
        and abs(grid - 4.0) <= 1e-3
        and abs(unc - (3.0 + 2.0 * SQ2)) <= 1e-4
        and rep.constrained_best == 3.0
        and rep.unconstrained_best == 3.0
    )
    _verdict(
        2,
        ok,
        f"ess-inf closed {closed:g}, grid {grid:.6f}, unconstrained {unc:.8f}, "
        f"comonotone floor {rep.constrained_best:g}",
    )


def test_c03_pareto_var_bounds():
    worst_rel = 0.0
    for p in (0.5, 0.9, 0.95, 0.99):
        w = worst_var_constrained(PF, PG, p)
        b = best_var_constrained(PF, PG, p)
        worst_rel = max(
            worst_rel,
            abs(w - 4.0 / (1.0 - p)) / (4.0 / (1.0 - p)),
            abs(b - (1.0 + 2.0 / (1.0 - p))) / (1.0 + 2.0 / (1.0 - p)),
        )
    _verdict(3, worst_rel <= 1e-3, f"var bound curves, max rel err {worst_rel:.2e}")


def test_c04_uniform_rvar():
    f, g = Uniform(0.0, 1.0), Uniform(0.0, 1.5)
    v1 = worst_rvar_constrained(f, g, 0.0, 0.5)
    v2 = worst_rvar_constrained(f, g, 0.0, 0.9)
    ok = abs(v1 - 0.75) <= 2e-3 and abs(v2 - 1.17222) <= 2e-3
    _verdict(4, ok, f"worst rvar {v1:.5f} (target 0.75), {v2:.5f} (target 1.17222)")


def test_c05_probability_bounds():
    # the two 0.5 targets hold in the orientation consistent with the
    # inversion duality below: the lower bound inverts the worst var
    lo8 = prob_lower(PF, PG, 8.0)
    up5 = prob_upper(PF, PG, 5.0)
    dual = 0.0
    for p in (0.5, 0.9, 0.95):
        t = worst_var_constrained(PF, PG, p)
        dual = max(dual, abs(prob_lower(PF, PG, t) - p))
    ok = abs(lo8 - 0.5) <= 1e-3 and abs(up5 - 0.5) <= 1e-3 and dual <= 1e-4
    _verdict(
        5,
        ok,
        f"prob_lower(8) {lo8:.5f}, prob_upper(5) {up5:.5f}, duality err {dual:.1e}",
    )


def test_c06_worst_es_uniforms():
    f, g = Uniform(0.0, 100.0), Uniform(0.0, 120.0)
    p = 0.9
    exact = es_eval(f, p) + es_eval(g, p)
    route1 = worst_es_constrained(f, g, p)
    route2 = comonotone_es(f, g, p)
    gap = abs(route1 - route2)

    batch = sample_coupling(upper_tail(f, p), upper_tail(g, p), "dl", 1_000_000, 701, jitter=True)
    s = batch.x + batch.y
    se = s.std(ddof=1) / math.sqrt(s.size)
    mc_err = abs(s.mean() - exact)
    ok = route1 == exact and gap <= 1e-12 and mc_err <= 3.0 * se
    _verdict(
        6,
        ok,
        f"worst ES routes gap {gap:.1e}, tail MC err {mc_err:.2e} vs 3se {3 * se:.2e}",
    )


def test_c07_stop_loss_sandwich():
    pairs = TABLE_PAIRS + [
        (to_grid(PF, 50_000, trunc=1.0 - 1e-4), to_grid(PG, 50_000, trunc=1.0 - 1e-4))
    ]
    n = 1_000_000
    worst_margin = -math.inf
    worst_mean = 0.0
    ok = True
    for i, (f, g) in enumerate(pairs):
        como = sample_coupling(f, g, "comonotone", n, 800 + i, jitter=True)
        dl = sample_coupling(f, g, "dl", n, 900 + i, jitter=True)
        thresholds = np.quantile(como.x + como.y, np.linspace(0.01, 0.99, 50))
        cc = stop_loss_curve(como, thresholds)
        dc = stop_loss_curve(dl, thresholds)
        sigma = np.hypot(cc.stderr, dc.stderr)
        margin = np.max((dc.values - cc.values) / np.where(sigma > 0, sigma, np.inf))
        worst_margin = max(worst_margin, margin)
        mean_sigma = math.hypot(cc.mean_se, dc.mean_se)
        mean_gap = abs(cc.mean - dc.mean) / mean_sigma
        worst_mean = max(worst_mean, mean_gap)
        ok = ok and margin <= 3.0 and mean_gap <= 3.0
    _verdict(
        7,
        ok,
        f"stop-loss dominance worst z {worst_margin:.2f}, mean gap worst z {worst_mean:.2f}",
    )


def test_c08_ra_oracle_agreement():
    n = 100_000
    ok = True
    worst_frac = 0.0
    for f, g in TABLE_PAIRS:
        for p in (0.9, 0.95):
            ra = ra_unconstrained_var(f, g, p, n)
            scan = worst_var_unconstrained(f, g, p)
            spread = (f.quantile_left(DEFAULT_TRUNC) - f.quantile_left(p)) + (
                g.quantile_left(DEFAULT_TRUNC) - g.quantile_left(p)
            )
            tol = 2.0 * spread / n
            ok = ok and abs(ra - scan) <= tol
            worst_frac = max(worst_frac, abs(ra - scan) / tol)
    val = ra_unconstrained_var(PF, PG, 0.5, n)
    target = 6.0 + 4.0 * SQ2
    ok = ok and abs(val - target) <= 1e-3
    _verdict(
        8,
        ok,
        f"ra vs scan worst err fraction {worst_frac:.3f}, "
        f"heavy-tail value err {abs(val - target):.1e}",
    )


def _max_jump(f, g, step):
    count = int(round((0.995 - 0.900) / step))
    ps = np.linspace(0.900, 0.995, count + 1)
    vals = np.array([worst_var_constrained(f, g, p) for p in ps])
    jumps = np.abs(np.diff(vals))
    pred = np.diff(f.quantile_left(ps)) + np.diff(g.quantile_left(ps))
    return jumps, pred


def test_c09_var_curve_continuity():
    ok = True
    worst_ratio = 0.0
    halving = []
    for f, g in TABLE_PAIRS:
        jumps, pred = _max_jump(f, g, 1e-3)
        ok = ok and np.all(jumps <= 3.0 * pred + 1e-9)
        worst_ratio = max(worst_ratio, float(np.max(jumps / pred)))
        jumps2, _ = _max_jump(f, g, 5e-4)
        ratio = jumps2.max() / jumps.max()
        halving.append(ratio)
        ok = ok and 0.25 <= ratio <= 0.75
    _verdict(
        9,
        ok,
        f"jump vs moduli worst ratio {worst_ratio:.3f} (cap 3), "
        f"halving ratios {min(halving):.3f}..{max(halving):.3f}",
    )


def test_c10_reduction_band():
    ps = np.round(np.arange(0.905, 0.9949, 0.005), 10)
    curves = []
    ok = True
    for f, g in TABLE_PAIRS:
        rs = np.array([bound_report(f, g, "var", p=float(p)).r for p in ps])
        ok = ok and np.all((rs >= 0.25) & (rs <= 0.85))
        curves.append(rs)
    for family in (curves[:3], curves[3:]):
        ok = ok and np.all(family[0] > family[2])
    for rs in curves[:3]:
        ok = ok and rs[-1] > rs[0] and np.all(np.diff(rs) >= -1e-3)
    lo = min(float(r.min()) for r in curves)
    hi = max(float(r.max()) for r in curves)
    _verdict(10, ok, f"reduction R spans {lo:.3f}..{hi:.3f} inside [0.25, 0.85]")


def test_c11_strong_order_suite():
    rng = np.random.default_rng(1105)
    ok = True
    for i in range(100):
        if i % 2:
            shape = rng.uniform(0.5, 3.0)
            a = rng.uniform(0.5, 3.0)
            f, g = Pareto(a, shape), Pareto(a * (1.0 + rng.uniform(0.0, 2.0)), shape)
        else:
            lo = rng.uniform(-2.0, 2.0)
            width = rng.uniform(0.5, 3.0)
            shift = rng.uniform(0.0, 2.0)
            f = Uniform(lo, lo + width)
            g = Uniform(lo + shift, lo + shift + width)
        ok = ok and check_ss(f, g).holds and check_st(f, g).holds

    # any ss pair sharing its left endpoint collapses to equality
    equal_left = 0
    for _ in range(20):
        w1 = rng.uniform(0.5, 3.0)
        w2 = w1 if rng.random() < 0.5 else rng.uniform(0.5, 3.0)
        base = rng.uniform(-1.0, 1.0)
        f, g = Uniform(base, base + w1), Uniform(base, base + w2)
        if check_ss(f, g).holds:
            equal_left += 1
            xs = np.linspace(base, base + max(w1, w2), 512)
            ok = ok and float(np.max(np.abs(f.cdf(xs) - g.cdf(xs)))) <= 1e-9

    samples = PF.quantile_left(rng.uniform(size=100_000))
    k = math.ceil(0.1 * samples.size)
    tail_ok = 0
    for _ in range(100):
        mask = np.zeros(samples.size, dtype=bool)
        mask[rng.choice(samples.size, size=k, replace=False)] = True
        tail_ok += bool(conditional_tail_ss_check(samples, mask, 0.9).holds)
    ok = ok and equal_left >= 5 and tail_ok == 100
    _verdict(
        11,
        ok,
        f"ss=>st on 100 pairs, {equal_left} equal-endpoint collapses, "
        f"{tail_ok}/100 tail masks",
    )


def test_c12_determinism_and_convergence():
    a = dl_plan_discrete(PF, PG, 10_000, 0.0)
    b = dl_plan_discrete(PF, PG, 10_000, 0.0)
    bitwise = (
        a.x.tobytes() == b.x.tobytes()
        and a.y.tobytes() == b.y.tobytes()
        and a.y_index.tobytes() == b.y_index.tobytes()
    )

    invariants = True
    for f, g, p in [
        (PF, PG, 0.0),
        (Uniform(0.0, 100.0), Uniform(0.0, 120.0), 0.0),
        (Pareto(25.0, 2.0), Pareto(30.0, 2.0), 0.9),
    ]:
        plan = dl_plan_discrete(f, g, 5000, p)
        invariants = invariants and bool(np.all(plan.x <= plan.y + 1e-12))
        invariants = invariants and np.array_equal(
            np.sort(plan.y_index), np.arange(plan.n)
        )

    plans = {}

    def fn(level, n):
        if n not in plans:
            plans[n] = dl_plan_discrete(PF, PG, n, 0.0)
        return dl_sum_cdf(plans[n], level)

    levels = np.linspace(4.25, 16.0, 48)
    d1 = grid_convergence(fn, levels, 10_000)
    d2 = grid_convergence(fn, levels, 20_000)
    ratio = d2 / d1
    ok = bitwise and invariants and 0.25 <= ratio <= 0.75
    _verdict(
        12,
        ok,
        f"plans bitwise stable, invariants hold, refinement ratio {ratio:.3f}",
    )
