"""Best- and worst-case tail risk of X + Y with known marginals.

Every bound comes in a constrained flavor (couplings with X <= Y) and
an unconstrained flavor (all couplings). Constrained extremes are
attained by the directed coupling of the relevant tail pair;
unconstrained extremes by countermonotone tail pairing (VaR, RVaR,
ess-inf/ess-sup) or by comonotonicity (worst ES). Values are extended
reals: infinities are returned as proper floats, never saturated.

Every pair of marginals goes through one closed-form body, ``_dl_min``,
reached by the best bounds on the exactly negated pair. With
b = G^{-1}(p), the worst bound at level p is

    min(2b, inf_{z >= b} [z + F^{-1}(p + F(z) - G(z))]).

For x in [F^{-1}(p), b], F - max(G, p) = F - p >= F(x) - p on [x, b], so
the level-p transport map is T_p(x) = inf{z >= b : F(z) - G(z) < F(x) - p}.
The level l = F(x) - p pairs each z >= b with x = F^{-1}(p + F(z) - G(z)),
so inf_x [x + T_p(x)] is one scan over z; points with F(z) = G(z) carry
the l -> 0+ limit. This is the shape of the Makarov / Rueschendorf
countermonotone formula, and no transport map is evaluated. Read with
left quantiles it is inf{t : mo(t) >= p} (mo below), the worst VaR_p; with
right quantiles it is inf{t : mo(t) > p}, which worst ess-inf (p = 0) and
the reflected best bounds need. Step CDFs are constant between atoms, so
the scan over the atoms is exact for marginals with atoms too; continuous
laws have equal left and right quantiles.

The mean functionals (ES, RVaR) all read the exact means of F^{-1} and
G^{-1} over the n equal level cells of the window, paired by the plan
(constrained) or countermonotonically (unconstrained). The cell-mean laws
lie below F and G in convex order, and the countermonotone sum is the
convex-order minimum, so L <= Lo <= Uo <= U holds by construction; only
VaR and probability bounds can still need a snap.

The bounds on P(X + Y <= t) invert these formulas in closed form. With
F, G right-continuous and t finite (t = -inf, +inf give 0, 1; NaN raises):

    m(t)  = clip(sup_u [F(u) + G(t-u) - 1], 0, 1)
    M(t)  = clip(inf_u [F(u) + G(t-u)], 0, 1)
    mo(t) = max(G(t/2), sup_{z >= t/2} [G(z) - F(z) + F(t-z)])
    Mo(t) = min(F(t/2), inf_{z <= t/2} [F(z) - G(z) + G(t-z)])

m and M are the Makarov (1981) / Rueschendorf (1982) bounds. For
mo = sup{p : worst VaR_p <= t}: 2 G^{-1}(p) <= t iff p <= G(t/2); z >=
G^{-1}(p) iff p <= G(z), and z + F^{-1}(p + F(z) - G(z)) <= t iff
p <= G(z) - F(z) + F(t-z); for z <= t/2 the second condition is weaker
than the first. Mo follows by the reflection of best VaR, m and M from
the countermonotone VaR scans. Each is one CDF scan and one refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import refine_max, refine_min
from .coupling import DEFAULT_SCAN_N, _require_order, dl_plan_discrete
from .dist import (
    DEFAULT_GRID_N,
    DEFAULT_TRUNC,
    Dist,
    _cell_mean_pair,
    _merged_grid,
    es_eval,
    lower_tail,  # unused here; perfbench/tracer.py patches this name
    negate_dist,
    upper_tail,  # unused here; perfbench/tracer.py patches this name
)
from .errors import DegenerateSpreadError, DomainError

__all__ = [
    "BoundReport",
    "worst_ess_inf_constrained",
    "best_ess_sup_constrained",
    "worst_ess_inf_unconstrained",
    "best_ess_sup_unconstrained",
    "worst_var_constrained",
    "best_var_constrained",
    "worst_var_unconstrained",
    "best_var_unconstrained",
    "worst_es_constrained",
    "best_es_constrained",
    "best_es_unconstrained",
    "worst_rvar_constrained",
    "best_rvar_constrained",
    "worst_rvar_unconstrained",
    "best_rvar_unconstrained",
    "prob_upper",
    "prob_lower",
    "prob_upper_unconstrained",
    "prob_lower_unconstrained",
    "du_reduction",
    "bound_report",
    "dl_sum_var",
    "ct_sum_var",
    "ct_sum_values",
]

_X_SCAN_N = 1024


def _check_p(p: float | None) -> float:
    if p is None or not 0.0 < float(p) < 1.0:
        raise DomainError("level p must lie in (0, 1)")
    return float(p)


def _check_pq(p: float, q: float, *, allow_p0: bool) -> tuple[float, float]:
    p, q = float(p), float(q)
    lo_ok = p >= 0.0 if allow_p0 else p > 0.0
    if not (lo_ok and p < q < 1.0):
        kind = "0 <= p < q < 1" if allow_p0 else "0 < p < q < 1"
        raise DomainError(f"rvar levels require {kind}")
    return p, q


# ---------------------------------------------------------------------------
# fractional order-statistic means over sorted plan sums


def _lower_frac_mean(sorted_vals: np.ndarray, frac: float) -> float:
    """Mean of the lowest ``frac`` of the mass (uniform atoms, sorted input)."""
    n = sorted_vals.size
    if not 0.0 < frac <= 1.0 + 1e-12:
        raise DomainError("fraction must lie in (0, 1]")
    m = min(frac, 1.0) * n
    k = int(math.floor(m))
    total = float(np.sum(sorted_vals[:k]))
    if k < n and m > k:
        total += (m - k) * float(sorted_vals[k])
    return total / m


def _upper_frac_mean(sorted_vals: np.ndarray, frac: float) -> float:
    return -_lower_frac_mean(-sorted_vals[::-1], frac)


# ---------------------------------------------------------------------------
# essential bounds


def _quantile(d: Dist, u, strict: bool):
    """Left quantile of ``d`` at u, or with ``strict`` the right one.

    A level within ``d._level_tol`` of a cumulative weight reads as that
    weight: the left quantile is read at u - tol and the right one at
    u + tol, which is the same while every atom weighs more than 2 tol.
    """
    if strict:
        return d.quantile_right(np.minimum(np.add(u, d._level_tol), 1.0))
    return d.quantile_left(np.maximum(np.subtract(u, d._level_tol), 0.0))


def _dl_min(f: Dist, g: Dist, p: float, trunc: float, strict: bool = False) -> float:
    """Essential infimum of the directed-coupling sum of the upper p-tails.

    With b = G^{-1}(p): min(2b, inf_{z >= b} [z + F^{-1}(p + F(z) - G(z))]).

    - For x in [F^{-1}(p), b], F - max(G, p) = F - p >= F(x) - p on [x, b].
    - So T_p(x) = inf{z >= b : F(z) - G(z) < F(x) - p}.
    - The level l = F(x) - p pairs each z with x = F^{-1}(p + F(z) - G(z)).

    The quantiles are left ones, giving inf{t : mo(t) >= p}, or with
    ``strict`` right ones, giving inf{t : mo(t) > p}; both read a level
    within ``_level_tol`` of a cumulative weight as that weight (``_quantile``).

    z runs over b and the merged grid nodes above it, then one batched
    refinement; nodes with F(z) = G(z) stay in, as the l -> 0+ limit. The
    nodes hold every atom and step CDFs are constant between atoms, so the
    scan is exact there. Where F^{-1}(p) = -inf the levels start at the
    truncation p + (1 - p)(1 - trunc).
    """
    b = float(_quantile(g, p, strict))
    if b == -math.inf:
        return -math.inf
    lo = p
    if float(f.quantile_left(p)) == -math.inf:
        if g.support_hi < math.inf:
            return -math.inf  # X + Y <= X + sup Y is unbounded below
        lo = p + (1.0 - p) * (1.0 - trunc)
    _require_order(f, g)
    zs = _merged_grid(f, g, DEFAULT_SCAN_N, trunc, p)
    zs = np.concatenate(([b], zs[zs > b]))

    def objective(z):
        level = np.clip(p + np.asarray(f.cdf(z)) - np.asarray(g.cdf(z)), lo, 1.0)
        return z + np.asarray(_quantile(f, level, strict))

    inner = refine_min(objective, zs, objective(zs), tol=1e-10 * max(1.0, abs(b)))
    return float(min(inner, 2.0 * b))


def _dl_max(f: Dist, g: Dist, q: float, trunc: float) -> float:
    """Essential supremum of the directed-coupling sum of the lower q-tails.

    The reflection ``-_dl_min(negate(G), negate(F), 1 - q, strict=True)``:
    the left quantile of X + Y at q is minus the right one of -X - Y at 1 - q.
    """
    return -_dl_min(negate_dist(g), negate_dist(f), 1.0 - q, trunc, strict=True)


def worst_ess_inf_constrained(f: Dist, g: Dist, *, trunc: float = DEFAULT_TRUNC) -> float:
    """Largest essential infimum of X + Y over couplings with X <= Y: strict ``_dl_min`` at level 0."""
    return _dl_min(f, g, 0.0, trunc, strict=True)


def best_ess_sup_constrained(f: Dist, g: Dist, *, trunc: float = DEFAULT_TRUNC) -> float:
    """Smallest essential supremum of X + Y over couplings with X <= Y: ``_dl_max(.., 1)``.

    Mirror of :func:`worst_ess_inf_constrained` through the exact
    reflection best(F, G) = -worst(negate(G), negate(F)).
    """
    return _dl_max(f, g, 1.0, trunc)


def _countermonotone_scan(f: Dist, g: Dist, a: float, c: float, w: float, refine) -> float:
    """Refined extreme of F^{-1}(a + x) + G^{-1}(c - x) over x in [0, w].

    ``refine`` is ``refine_min`` or ``refine_max``; both levels are
    clipped to [0, 1].
    """

    def objective(x):
        u = np.clip(a + x, 0.0, 1.0)
        v = np.clip(c - x, 0.0, 1.0)
        return np.asarray(f.quantile_left(u)) + np.asarray(g.quantile_left(v))

    xs = np.linspace(0.0, w, _X_SCAN_N + 1)
    return float(refine(objective, xs, objective(xs), tol=1e-10))


def worst_ess_inf_unconstrained(f: Dist, g: Dist) -> float:
    """Largest essential infimum over all couplings: countermonotone value."""
    return _countermonotone_scan(f, g, 0.0, 1.0, 1.0, refine_min)


def best_ess_sup_unconstrained(f: Dist, g: Dist) -> float:
    """Smallest essential supremum over all couplings: countermonotone value."""
    return _countermonotone_scan(f, g, 0.0, 1.0, 1.0, refine_max)


# ---------------------------------------------------------------------------
# VaR bounds


def worst_var_constrained(f: Dist, g: Dist, p: float, *, trunc: float = DEFAULT_TRUNC) -> float:
    """Worst-case VaR at level p under the order constraint: ``_dl_min`` at level p."""
    return _dl_min(f, g, _check_p(p), trunc)


def best_var_constrained(f: Dist, g: Dist, p: float, *, trunc: float = DEFAULT_TRUNC) -> float:
    """Best-case VaR at level p under the order constraint.

    The best essential supremum of the lower p-tails, ``_dl_max`` at level
    p, which is inf{t : Mo(t) >= p}. X <= Y gives X + Y >= 2X, so the
    value is raised to 2 F^{-1}(p) where rounding leaves it below.
    """
    p = _check_p(p)
    return max(_dl_max(f, g, p, trunc), 2.0 * float(_quantile(f, p, False)))


def worst_var_unconstrained(f: Dist, g: Dist, p: float) -> float:
    """Worst-case VaR over all couplings: countermonotone upper tails."""
    p = _check_p(p)
    return _countermonotone_scan(f, g, p, 1.0, 1.0 - p, refine_min)


def best_var_unconstrained(f: Dist, g: Dist, p: float) -> float:
    """Best-case VaR over all couplings: countermonotone lower tails."""
    p = _check_p(p)
    return _countermonotone_scan(f, g, 0.0, p, p, refine_max)


# ---------------------------------------------------------------------------
# ES bounds


def worst_es_constrained(f: Dist, g: Dist, p: float) -> float:
    """Worst-case ES at level p: ES_p(F) + ES_p(G).

    The order constraint does not improve the worst case (the tail
    generator of ES is the mean, which is coupling-invariant). Infinite
    tail means propagate as inf.
    """
    p = _check_p(p)
    return es_eval(f, p) + es_eval(g, p)


def best_es_constrained(
    f: Dist,
    g: Dist,
    p: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
) -> float:
    """Best-case ES under the order constraint: ES of the directed-coupling sum."""
    p = _check_p(p)
    plan = dl_plan_discrete(f, g, grid_n, 0.0, trunc=trunc)
    return _upper_frac_mean(np.sort(plan.mean_sums), 1.0 - p)


def best_es_unconstrained(
    f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Best-case ES over all couplings: ES of the countermonotone sum."""
    p = _check_p(p)
    return _upper_frac_mean(np.sort(_ct_cells(f, g, grid_n)), 1.0 - p)


# ---------------------------------------------------------------------------
# RVaR bounds


def worst_rvar_constrained(
    f: Dist,
    g: Dist,
    p: float,
    q: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
) -> float:
    """Worst-case RVaR over [p, q] under the order constraint.

    Mean of the lowest a-fraction of directed-coupling upper-tail sums,
    a = (q-p)/(1-p).
    """
    p, q = _check_pq(p, q, allow_p0=True)
    plan = dl_plan_discrete(f, g, grid_n, p, trunc=trunc)
    return _lower_frac_mean(np.sort(plan.mean_sums), (q - p) / (1.0 - p))


def best_rvar_constrained(
    f: Dist,
    g: Dist,
    p: float,
    q: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
) -> float:
    """Best-case RVaR over [p, q] under the order constraint.

    ES at level p/q of the directed coupling on the level window [0, q).
    """
    p, q = _check_pq(p, q, allow_p0=False)
    plan = dl_plan_discrete(f, g, grid_n, 0.0, q=q, trunc=trunc)
    return _upper_frac_mean(np.sort(plan.mean_sums), 1.0 - p / q)


def worst_rvar_unconstrained(
    f: Dist, g: Dist, p: float, q: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Worst-case RVaR over all couplings: countermonotone upper p-tails."""
    p, q = _check_pq(p, q, allow_p0=True)
    return _lower_frac_mean(np.sort(_ct_cells(f, g, grid_n, p)), (q - p) / (1.0 - p))


def best_rvar_unconstrained(
    f: Dist, g: Dist, p: float, q: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Best-case RVaR over all couplings: countermonotone lower q-tails."""
    p, q = _check_pq(p, q, allow_p0=False)
    return _upper_frac_mean(np.sort(_ct_cells(f, g, grid_n, 0.0, q)), 1.0 - p / q)


# ---------------------------------------------------------------------------
# reference coupling functionals (plot columns, probability bounds)


def _ct_cells(f: Dist, g: Dist, n: int, p: float = 0.0, q: float = 1.0) -> np.ndarray:
    """Countermonotone sums of the cell means of [p, q) that plans use (unsorted)."""
    fm, gm = _cell_mean_pair(f, g, n, p, q)
    return fm + gm[::-1]


def ct_sum_values(f: Dist, g: Dist, *, grid_n: int = DEFAULT_GRID_N) -> np.ndarray:
    """Countermonotone sum on the n level cells of [0, 1): paired cell means (unsorted)."""
    return _ct_cells(f, g, grid_n)


def _sorted_quantile(sorted_vals: np.ndarray, p: float) -> float:
    n = sorted_vals.size
    idx = int(np.searchsorted((np.arange(n) + 1) / n, p, side="left"))
    return float(sorted_vals[min(idx, n - 1)])


def dl_sum_var(
    f: Dist,
    g: Dist,
    p: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
    plan=None,
) -> float:
    """VaR at level p of the directed-coupling sum of the whole marginals."""
    p = _check_p(p)
    if plan is None:
        plan = dl_plan_discrete(f, g, grid_n, 0.0, trunc=trunc)
    return _sorted_quantile(plan.sums_sorted, p)


def ct_sum_var(
    f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N, values=None
) -> float:
    """VaR at level p of the countermonotone sum of the whole marginals."""
    p = _check_p(p)
    if values is None:
        values = np.sort(ct_sum_values(f, g, grid_n=grid_n))
    return _sorted_quantile(values, p)


# ---------------------------------------------------------------------------
# probability bounds (closed-form CDF scans)


def _cdf_scan(f: Dist, g: Dist, t: float, objective, half: int, refine) -> float:
    """``refine`` (``refine_max`` or ``refine_min``) of ``objective`` over the threshold-t scan.

    The scan is the merged grid nodes, t - nodes, t/2 and the midpoints of
    consecutive points, kept on z >= t/2 (``half`` +1), z <= t/2 (-1) or all
    (0). Step CDFs are constant between nodes: for atoms the scan is exact.
    A NaN t raises; t = -inf gives 0 and t = +inf gives 1.
    """
    t = float(t)
    if math.isnan(t):
        raise DomainError("threshold t must not be NaN")
    if math.isinf(t):
        return float(t > 0)
    nodes = _merged_grid(f, g, DEFAULT_SCAN_N)
    zs = np.unique(np.concatenate((nodes, t - nodes, [0.5 * t])))
    zs = np.sort(np.concatenate((zs, 0.5 * (zs[1:] + zs[:-1]))))
    zs = zs[half * (zs - 0.5 * t) >= 0.0]
    return float(refine(objective, zs, objective(zs), tol=1e-10 * max(1.0, abs(t))))


def prob_lower(f: Dist, g: Dist, t: float) -> float:
    """Lower bound on P(X+Y <= t) under the order constraint.

    mo(t) = max(G(t/2), sup_{z >= t/2} [G(z) - F(z) + F(t-z)]) = sup{p : worst VaR_p <= t}.
    """
    _require_order(f, g)
    objective = lambda z: np.asarray(g.cdf(z)) - np.asarray(f.cdf(z)) + np.asarray(f.cdf(t - z))
    return max(float(g.cdf(0.5 * t)), _cdf_scan(f, g, t, objective, 1, refine_max))


def prob_upper(f: Dist, g: Dist, t: float) -> float:
    """Upper bound on P(X+Y <= t) under the order constraint.

    Mo(t) = min(F(t/2), inf_{z <= t/2} [F(z) - G(z) + G(t-z)]) = sup{p : best VaR_p <= t}.
    """
    _require_order(f, g)
    objective = lambda z: np.asarray(f.cdf(z)) - np.asarray(g.cdf(z)) + np.asarray(g.cdf(t - z))
    return min(float(f.cdf(0.5 * t)), _cdf_scan(f, g, t, objective, -1, refine_min))


def prob_lower_unconstrained(f: Dist, g: Dist, t: float) -> float:
    """Lower bound on P(X+Y <= t) over all couplings: clip(sup_u [F(u) + G(t-u) - 1], 0, 1)."""
    objective = lambda u: np.asarray(f.cdf(u)) + np.asarray(g.cdf(t - u)) - 1.0
    return min(max(_cdf_scan(f, g, t, objective, 0, refine_max), 0.0), 1.0)


def prob_upper_unconstrained(f: Dist, g: Dist, t: float) -> float:
    """Upper bound on P(X+Y <= t) over all couplings: clip(inf_u [F(u) + G(t-u)], 0, 1)."""
    objective = lambda u: np.asarray(f.cdf(u)) + np.asarray(g.cdf(t - u))
    return min(max(_cdf_scan(f, g, t, objective, 0, refine_min), 0.0), 1.0)


# ---------------------------------------------------------------------------
# DU-spread reduction and reporting


def du_reduction(l: float, u: float, lo: float, uo: float):
    """Spread reductions (R_L, R_U, R) of [Lo, Uo] inside [L, U].

    Requires the nesting L <= Lo <= Uo <= U on the extended reals, then a
    finite positive spread U - L; otherwise the spread is degenerate.
    """
    if not (l <= lo <= uo <= u):
        raise DomainError("bounds must nest: L <= Lo <= Uo <= U")
    if not all(math.isfinite(v) for v in (l, u, lo, uo)):
        raise DegenerateSpreadError("spread reduction undefined for infinite bounds")
    if u <= l:
        raise DegenerateSpreadError("spread U - L must be positive")
    r_l = (lo - l) / (u - l)
    r_u = (u - uo) / (u - l)
    return r_l, r_u, r_l + r_u


_MEASURE_ALIASES = {
    "var": "var",
    "es": "es",
    "rvar": "rvar",
    "essinf": "ess_inf",
    "ess_inf": "ess_inf",
    "esssup": "ess_sup",
    "ess_sup": "ess_sup",
    "prob": "prob",
}

_ATTAINING = {
    "var": "dl_upper_tail",
    "rvar": "dl_upper_tail",
    "es": "comonotone",
    "ess_inf": "dl_upper_tail",
    "ess_sup": "dl_lower_tail",
    "prob": "dl_upper_tail",
}


def _json_num(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else str(v)  # "inf", "-inf", "nan"


@dataclass(frozen=True)
class BoundReport:
    """Constrained and unconstrained extremes of one measure at one level."""

    measure: str
    p: float | None
    q: float | None
    t: float | None
    constrained_worst: float | None
    constrained_best: float | None
    unconstrained_worst: float | None
    unconstrained_best: float | None
    r_l: float | None
    r_u: float | None
    r: float | None
    attaining: str
    grid_n: int
    truncation_m: float

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "p": self.p,
            "q": self.q,
            "t": self.t,
            "constrained_worst": _json_num(self.constrained_worst),
            "constrained_best": _json_num(self.constrained_best),
            "unconstrained_worst": _json_num(self.unconstrained_worst),
            "unconstrained_best": _json_num(self.unconstrained_best),
            "R_L": _json_num(self.r_l),
            "R_U": _json_num(self.r_u),
            "R": _json_num(self.r),
            "attaining": self.attaining,
            "grid_n": self.grid_n,
            "truncation_m": self.truncation_m,
        }


def bound_report(
    f: Dist,
    g: Dist,
    measure: str,
    *,
    p: float | None = None,
    q: float | None = None,
    t: float | None = None,
    grid_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
) -> BoundReport:
    """All four extremes of one measure plus the spread reduction.

    ES and RVaR nest by construction (one level-cell partition); tiny
    inversions of the VaR and probability bounds, which come from
    independent refinements, are snapped, and genuine violations raise.
    An infinite or degenerate spread leaves the reduction fields unset.
    """
    try:
        measure = _MEASURE_ALIASES[str(measure).lower()]
    except KeyError:
        raise DomainError(f"unknown measure {measure!r}") from None
    kw = dict(grid_n=grid_n, trunc=trunc)
    if measure == "var":
        cw = worst_var_constrained(f, g, p, trunc=trunc)
        cb = best_var_constrained(f, g, p, trunc=trunc)
        uw = worst_var_unconstrained(f, g, p)
        ub = best_var_unconstrained(f, g, p)
    elif measure == "es":
        cw = worst_es_constrained(f, g, p)
        uw = cw
        cb = best_es_constrained(f, g, p, **kw)
        ub = best_es_unconstrained(f, g, p, grid_n=grid_n)
    elif measure == "rvar":
        if p is None or q is None:
            raise DomainError("rvar needs both p and q")
        cw = worst_rvar_constrained(f, g, p, q, **kw)
        cb = best_rvar_constrained(f, g, p, q, **kw)
        uw = worst_rvar_unconstrained(f, g, p, q, grid_n=grid_n)
        ub = best_rvar_unconstrained(f, g, p, q, grid_n=grid_n)
    elif measure == "ess_inf":
        cw = worst_ess_inf_constrained(f, g, trunc=trunc)
        uw = worst_ess_inf_unconstrained(f, g)
        cb = ub = float(f.quantile_left(0.0)) + float(g.quantile_left(0.0))
    elif measure == "ess_sup":
        cb = best_ess_sup_constrained(f, g, trunc=trunc)
        ub = best_ess_sup_unconstrained(f, g)
        cw = uw = float(f.quantile_left(1.0)) + float(g.quantile_left(1.0))
    else:
        if t is None:
            raise DomainError("prob needs a threshold t")
        cb = prob_lower(f, g, t)
        cw = prob_upper(f, g, t)
        ub = prob_lower_unconstrained(f, g, t)
        uw = prob_upper_unconstrained(f, g, t)

    ub, cb, cw, uw = _snap_nesting(ub, cb, cw, uw)
    try:
        r_l, r_u, r = du_reduction(ub, uw, cb, cw)
    except DegenerateSpreadError:
        r_l = r_u = r = None
    return BoundReport(
        measure=measure,
        p=None if p is None else float(p),
        q=None if q is None else float(q),
        t=None if t is None else float(t),
        constrained_worst=cw,
        constrained_best=cb,
        unconstrained_worst=uw,
        unconstrained_best=ub,
        r_l=r_l,
        r_u=r_u,
        r=r,
        attaining=_ATTAINING[measure],
        grid_n=int(grid_n),
        truncation_m=float(trunc),
    )


def _snap_nesting(ub, cb, cw, uw):
    """Snap rounding-size inversions of ub <= cb <= cw <= uw (relative 1e-7)."""
    vals = [ub, cb, cw, uw]
    tol = max([1.0] + [abs(v) for v in vals if math.isfinite(v)]) * 1e-7
    for k in range(1, 4):
        if 0.0 < vals[k - 1] - vals[k] <= tol:  # False when either is infinite
            vals[k] = vals[k - 1]
    return tuple(vals)
