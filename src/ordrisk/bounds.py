"""Best- and worst-case tail risk of X + Y with known marginals.

Every bound comes in a constrained flavor (couplings with X <= Y) and
an unconstrained flavor (all couplings). Constrained extremes are
attained by the directed coupling of the relevant tail pair. Values are
extended reals: infinities are returned as proper floats, never saturated.

All eight VaR and essential bounds go through one closed-form scan,
``_dl_min``, reached by the best bounds on the exactly negated pair. It
has two modes. Ordered (the constrained bounds), with b = G^{-1}(p), the
worst bound at level p is

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
laws have equal left and right quantiles. Unordered (the unconstrained
bounds), the level p + F(z) - G(z) becomes p + 1 - G(z) and 2b becomes
F^{-1}(1) + b: with z = G^{-1}(1 - a) this is the Makarov (1981) /
Rueschendorf (1982) formula inf_{a in [0, 1-p]} [F^{-1}(p + a) + G^{-1}(1 - a)].

The mean functionals (ES, RVaR) and the coupling VaR and CDF read one sum
law per coupling and window, ``_SumLaw``, whose means pair the exact means of
F^{-1} and G^{-1} over the n equal level cells of the window by the plan
(constrained) or countermonotonically (unconstrained). The cell-mean laws
lie below F and G in convex order, and the countermonotone sum is the
convex-order minimum, so L <= Lo <= Uo <= U holds in exact arithmetic.
In floats the closed-form worst ES can sit up to about 1e-12 below a plan's
best ES where the two are equal, so every measure goes through the snap of
``bound_report``, as the VaR and probability bounds do.
Work shared by several bounds or levels is built once, in one memo,
``dist._per_pair``, which holds 16 entries and returns read-only arrays:
the pair's order check and node grid, each level window's cell means
(``coupling._window_means``, from one edge table for both marginals, shared
by the window's directed plan and its countermonotone sums, the per-level
[p, 1) windows of worst RVaR included) and the sum laws no level changes,
``_sum_law`` of the [0, q) windows (q = 1, or the upper level of best RVaR).
A sum law sorts each of its fields when first read, so a window read for one
field (worst RVaR's [p, 1), best RVaR's [0, q)) never sorts the other. The probability scans
read the node grid of the order check. Per threshold they share one table,
``_threshold_table``: the scan points of each half-line around t/2 as one
block, with the CDF columns F(z), G(z), G(t - z) and, above t/2, F(t - z)
that the four bounds read. ``_prob_row`` builds it once per threshold and
computes all four bounds from it; one entry, outside ``_per_pair``, keeps
their four values and the table (about 0.6 MB, read-only) until the next
threshold. The VaR scans build
their nodes per level, from the shared level table of ``dist._merged_grid``.
Where both laws are ``Empirical`` (step CDFs), the VaR, essential and
probability scans are exact: they are refined at tolerance inf (``_steps``),
so ``refine_min`` runs no round and returns the best scanned value.

The bounds on P(X + Y <= t) invert these formulas in closed form. With
F, G right-continuous and t finite (t = -inf, +inf give 0, 1; NaN, or a t that
is not a real number, raises a DomainError):

    m(t)  = clip(sup_u [F(u) + G(t-u) - 1], 0, 1)
    M(t)  = clip(inf_u [F(u) + G(t-u)], 0, 1)
    mo(t) = max(G(t/2), sup_{z >= t/2} [G(z) - F(z) + F(t-z)])
    Mo(t) = min(F(t/2), inf_{z <= t/2} [F(z) - G(z) + G(t-z)])

m and M are the Makarov (1981) / Rueschendorf (1982) bounds. For
mo = sup{p : worst VaR_p <= t}: 2 G^{-1}(p) <= t iff p <= G(t/2); z >=
G^{-1}(p) iff p <= G(z), and z + F^{-1}(p + F(z) - G(z)) <= t iff
p <= G(z) - F(z) + F(t-z); for z <= t/2 the second condition is weaker
than the first; m follows from the unordered scan in the same way, and
Mo and M by the reflection of best VaR. So the VaR scans invert m/M and
mo/Mo exactly. At one t the four are one scan of the threshold table and one
lockstep refinement, whose rounds read F and G once for all four; a single
bound at a new t pays for the whole row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._search import refine_max, refine_min  # refine_max unused here; perfbench/tracer.py patches both
from .coupling import _require_order, _window_means, dl_plan_discrete
from .dist import (
    DEFAULT_GRID_N,
    DEFAULT_SCAN_N,
    DEFAULT_TRUNC,
    Dist,
    Empirical,
    Normal,
    _Negated,
    _check_count,
    _check_level,
    _check_real,
    _merged_grid,
    _per_pair,
    es_eval,
    lower_tail,  # unused here; perfbench/tracer.py patches this name
    negate_dist,
    upper_tail,  # unused here; perfbench/tracer.py patches this name
)
from .errors import DegenerateSpreadError, DomainError


# ---------------------------------------------------------------------------
# sum laws of the reference couplings


class _SumLaw:
    """X + Y under a reference coupling on the n level cells of a window, mass 1/n each.

    ``points``: sorted point sums, for ``cdf`` and ``var``; ``means``: sorted
    sums of the paired cell means, for the fractional means (ES, RVaR). A law
    owns its two arrays (one array for both in the countermonotone law) and keeps
    each unsorted until its first read, which sorts it in place and makes it
    read-only: many windows read one field only. It unpacks to its two fields.
    """

    __slots__ = ("_points", "_means")

    def __init__(self, points: np.ndarray, means: np.ndarray):
        self._points, self._means = points, means

    @property
    def points(self) -> np.ndarray:
        return _sorted_once(self._points)

    @property
    def means(self) -> np.ndarray:
        return _sorted_once(self._means)

    def __iter__(self):
        return iter((self.points, self.means))

    def cdf(self, t: float) -> float:
        """P(X + Y <= t): the share of point sums at or below t."""
        pts = self.points
        return float(np.searchsorted(pts, t, side="right")) / pts.size

    def var(self, p: float) -> float:
        """Left p-quantile of the point sums: the k-th smallest for the least k with k/n >= p.

        The float quotient k/n rises with k, so k is a step or two from ceil(p n).
        """
        pts = self.points
        n = pts.size
        k = max(math.ceil(p * n), 1)
        while k > 1 and (k - 1) / n >= p:
            k -= 1
        while k < n and k / n < p:
            k += 1
        return float(pts[k - 1])

    def lower_mean(self, frac: float) -> float:
        """Mean of the lowest ``frac`` in (0, 1] of the cell-mean sums' mass (levels are checked)."""
        return _lower_mean(self.means, frac)

    def upper_mean(self, frac: float) -> float:
        """Mean of the highest ``frac`` of the mass: minus the lower mean of -(X + Y)."""
        return -_lower_mean(-self.means[::-1], frac)


def _sorted_once(arr: np.ndarray) -> np.ndarray:
    """``arr`` sorted in place on its first read; read-only from then on, which marks it sorted."""
    if arr.flags.writeable:
        arr.sort()
        arr.flags.writeable = False
    return arr


def _lower_mean(vals: np.ndarray, frac: float) -> float:
    """Mean of the lowest ``frac`` of the mass of the ascending ``vals``, 1/n each."""
    m = frac * vals.size
    k = int(m)
    total = float(np.sum(vals[:k]))
    if k < vals.size and m > k:
        total += (m - k) * float(vals[k])
    return total / m


def _sum_law(f: Dist, g: Dist, n: int, p: float, q: float, ordered: bool) -> _SumLaw:
    """The sum law of the n cells of [p, q): directed (``ordered``) or countermonotone.

    Directed: the window's plan (which checks the pair's order) gives both
    fields. Countermonotone: the window's cell means paired in opposite order
    give one array for both, with no order check. Either is sorted when first read.
    """
    if ordered:
        plan = dl_plan_discrete(f, g, n, p, q=q)
        return _SumLaw(plan.x + plan.y, plan.mean_sums)
    fm, gm = _per_pair(_window_means, f, g, n, p, q)
    sums = fm + gm[::-1]
    return _SumLaw(sums, sums)


# ---------------------------------------------------------------------------
# essential bounds


def _quantile(d: Dist, u, strict: bool):
    """Left quantile of ``d`` at u, or with ``strict`` the right one.

    A level within ``d._level_tol`` (``ROUNDING_TOL`` = 1e-9 for atoms) of a
    cumulative weight reads as that weight: the left quantile is read at
    u - tol and the right one at u + tol, which is the same while every atom
    weighs more than 2 tol = 2e-9.
    Every caller passes levels in [0, 1], so they are not validated again.
    """
    if strict:
        return d._qr(np.minimum(np.add(u, d._level_tol), 1.0))
    return d._ql(np.maximum(np.subtract(u, d._level_tol), 0.0))


def _dl_min(
    f: Dist, g: Dist, p: float, strict: bool = False, pair=None, ordered: bool = True
) -> float:
    """Essential infimum of the directed-coupling sum of the upper p-tails.

    With b = G^{-1}(p): min(2b, inf_{z >= b} [z + F^{-1}(p + F(z) - G(z))]).

    - For x in [F^{-1}(p), b], F - max(G, p) = F - p >= F(x) - p on [x, b].
    - So T_p(x) = inf{z >= b : F(z) - G(z) < F(x) - p}.
    - The level l = F(x) - p pairs each z with x = F^{-1}(p + F(z) - G(z)).

    With ``ordered=False`` the scan is the countermonotone (Makarov) one,
    min(F^{-1}(1) + b, inf_{z >= b} [z + F^{-1}(p + 1 - G(z))]): with
    z = G^{-1}(1 - a) it is inf_{a in [0, 1-p]} [F^{-1}(p + a) + G^{-1}(1 - a)],
    the worst VaR over all couplings; it checks no order.

    The quantiles are left ones, giving inf{t : mo(t) >= p} (m(t) unordered),
    or with ``strict`` right ones, giving inf{t : mo(t) > p}; both read a level
    within ``_level_tol`` of a cumulative weight as that weight (``_quantile``).

    z runs over b and the nodes above it, then one batched refinement. The
    nodes are the quantiles, atoms and upper ends of each law whose CDF the
    objective reads (F and G, or G alone unordered) at the levels p and
    p + (1 - p) u of ``_merged_grid`` (half as many unordered) and the tail
    levels p + (1 - p)(1 - 2^-k), k = 1..60, so the scan reaches the far
    tail. Step CDFs are constant between atoms, so where both laws are
    ``Empirical`` the scan is exact and the tolerance is inf (``_steps``):
    the refinement runs no round. Nodes with F(z) = G(z) stay in, as the
    l -> 0+ limit.

    The ends are z = b (value 2b, or F^{-1}(1) + b) and z -> sup G (value
    sup G + F^{-1}(p)); an end of -inf is the answer. Where an infinite upper
    tail meets an infinite lower tail there, the limit rule of ``_end_sum``
    decides; an end it leaves out is left to the interior scan, which stops
    at the one truncation level ``DEFAULT_TRUNC`` = 1 - 1e-6: the nodes'
    midpoint levels lie in [1 - DEFAULT_TRUNC, DEFAULT_TRUNC], and where
    F^{-1}(p) = -inf the levels read start at p + (1 - p)(1 - DEFAULT_TRUNC).
    Ordered, the order of ``pair`` is checked first: (f, g), or the pair
    ``_dl_max`` reflected.
    """
    if ordered:
        _require_order(*(pair or (f, g)))
    b = float(_quantile(g, p, strict))
    a = float(f.quantile_left(p))
    end = 2.0 * b if ordered else _end_sum(f, g, b)
    if min(end, _end_sum(g, f, a)) == -math.inf:
        return -math.inf  # e.g. X + Y <= X + sup Y, unbounded below where a = -inf
    lo = p if a > -math.inf else p + (1.0 - p) * (1.0 - DEFAULT_TRUNC)
    laws, n = ((f, g), DEFAULT_SCAN_N) if ordered else ((g,), DEFAULT_SCAN_N // 2)
    zs = _merged_grid(laws, n, p, tail=True)
    zs = np.concatenate(([b] if b > -math.inf else [], zs[zs > b]))

    def objective(z):
        gz = np.asarray(g.cdf(z))
        level = p + np.asarray(f.cdf(z)) - gz if ordered else p + (1.0 - gz)
        return z + np.asarray(_quantile(f, np.clip(level, lo, 1.0), strict))

    tol = math.inf if _steps(f, g) else 1e-10 * max(1.0, abs(zs[0]))
    return float(min(refine_min(objective, zs, objective(zs), tol=tol), end))


def _steps(f: Dist, g: Dist) -> bool:
    """Both laws have step CDFs (atoms, reflected ones too): the node scans are exact, refined at tolerance inf."""
    return isinstance(f, Empirical) and isinstance(g, Empirical)


def _end_sum(up: Dist, down: Dist, lo: float) -> float:
    """Upper support end of ``up`` plus ``lo``, a quantile of ``down``, with the limit rule.

    Where the infinite upper tail of ``up`` meets the infinite lower tail of
    ``down`` (inf - inf), the heavier tail decides: -inf if ``down``'s is
    heavier, else +inf, which leaves the end to the interior scan; on an exact
    tie the countermonotone sum is constant there and the scan holds it.
    """
    total = up.support_hi + lo
    if math.isnan(total):
        total = -math.inf if _tail_weight(down) > _tail_weight(up) else math.inf
    return total


def _tail_weight(d: Dist) -> tuple:
    """Heaviness of the infinite tail of ``d``: (0, sd) Gaussian, (1, 1/shape, scale) power."""
    if isinstance(d, _Negated):
        d = d.d  # a negated Pareto's lower tail is its Pareto's upper one
    # Pareto is the one other kind with an infinite tail
    return (0.0, d.sd) if isinstance(d, Normal) else (1.0, 1.0 / d.shape, d.scale)


def _dl_max(f: Dist, g: Dist, q: float, ordered: bool = True) -> float:
    """Essential supremum of the directed-coupling sum of the lower q-tails.

    The reflection ``-_dl_min(negate(G), negate(F), 1 - q, strict=True)``:
    the left quantile of X + Y at q is minus the right one of -X - Y at 1 - q.
    """
    ng, nf = negate_dist(g), negate_dist(f)
    return -_dl_min(ng, nf, 1.0 - q, strict=True, pair=(f, g), ordered=ordered)


def worst_ess_inf_constrained(f: Dist, g: Dist) -> float:
    """Largest essential infimum of X + Y over couplings with X <= Y: strict ``_dl_min`` at level 0."""
    return _dl_min(f, g, 0.0, strict=True)


def best_ess_sup_constrained(f: Dist, g: Dist) -> float:
    """Smallest essential supremum of X + Y over couplings with X <= Y: ``_dl_max(.., 1)``.

    Mirror of :func:`worst_ess_inf_constrained` through the exact
    reflection best(F, G) = -worst(negate(G), negate(F)).
    """
    return _dl_max(f, g, 1.0)


def worst_ess_inf_unconstrained(f: Dist, g: Dist) -> float:
    """Largest essential infimum over all couplings: strict unordered ``_dl_min`` at level 0."""
    return _dl_min(f, g, 0.0, strict=True, ordered=False)


def best_ess_sup_unconstrained(f: Dist, g: Dist) -> float:
    """Smallest essential supremum over all couplings: unordered ``_dl_max(.., 1)``."""
    return _dl_max(f, g, 1.0, ordered=False)


# ---------------------------------------------------------------------------
# VaR bounds


def worst_var_constrained(f: Dist, g: Dist, p: float) -> float:
    """Worst-case VaR at level p under the order constraint: ``_dl_min`` at level p."""
    return _dl_min(f, g, _check_level(p))


def best_var_constrained(f: Dist, g: Dist, p: float) -> float:
    """Best-case VaR at level p under the order constraint.

    The best essential supremum of the lower p-tails, ``_dl_max`` at level
    p, which is inf{t : Mo(t) >= p}. X <= Y gives X + Y >= 2X, so the
    value is raised to 2 F^{-1}(p) where rounding leaves it below.
    """
    p = _check_level(p)
    return max(_dl_max(f, g, p), 2.0 * float(_quantile(f, p, False)))


def worst_var_unconstrained(f: Dist, g: Dist, p: float) -> float:
    """Worst-case VaR over all couplings, inf{t : m(t) >= p}: unordered ``_dl_min``."""
    return _dl_min(f, g, _check_level(p), ordered=False)


def best_var_unconstrained(f: Dist, g: Dist, p: float) -> float:
    """Best-case VaR over all couplings, inf{t : M(t) >= p}: unordered ``_dl_max``."""
    return _dl_max(f, g, _check_level(p), ordered=False)


# ---------------------------------------------------------------------------
# ES bounds


def worst_es_constrained(f: Dist, g: Dist, p: float) -> float:
    """Worst-case ES at level p: ES_p(F) + ES_p(G).

    The order constraint does not improve the worst case (the tail
    generator of ES is the mean, which is coupling-invariant). Infinite
    tail means propagate as inf.
    """
    p = _check_level(p)
    return es_eval(f, p) + es_eval(g, p)


def best_es_constrained(
    f: Dist,
    g: Dist,
    p: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
) -> float:
    """Best-case ES under the order constraint: ES of the directed-coupling sum."""
    p = _check_level(p)
    return _per_pair(_sum_law, f, g, grid_n, 0.0, 1.0, True).upper_mean(1.0 - p)


def best_es_unconstrained(
    f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Best-case ES over all couplings: ES of the countermonotone sum."""
    p = _check_level(p)
    return _per_pair(_sum_law, f, g, grid_n, 0.0, 1.0, False).upper_mean(1.0 - p)


# ---------------------------------------------------------------------------
# RVaR bounds


def worst_rvar_constrained(
    f: Dist,
    g: Dist,
    p: float,
    q: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
) -> float:
    """Worst-case RVaR over [p, q] under the order constraint.

    Mean of the lowest a-fraction of directed-coupling upper-tail sums,
    a = (q-p)/(1-p).
    """
    p, q = _check_level(p, q, name="rvar levels", within="[0, 1)")
    return _sum_law(f, g, grid_n, p, 1.0, True).lower_mean((q - p) / (1.0 - p))


def best_rvar_constrained(
    f: Dist,
    g: Dist,
    p: float,
    q: float,
    *,
    grid_n: int = DEFAULT_GRID_N,
) -> float:
    """Best-case RVaR over [p, q] under the order constraint.

    ES at level p/q of the directed coupling on the level window [0, q).
    """
    p, q = _check_level(p, q, name="rvar levels")
    return _per_pair(_sum_law, f, g, grid_n, 0.0, q, True).upper_mean(1.0 - p / q)


def worst_rvar_unconstrained(
    f: Dist, g: Dist, p: float, q: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Worst-case RVaR over all couplings: countermonotone upper p-tails."""
    p, q = _check_level(p, q, name="rvar levels", within="[0, 1)")
    return _sum_law(f, g, grid_n, p, 1.0, False).lower_mean((q - p) / (1.0 - p))


def best_rvar_unconstrained(
    f: Dist, g: Dist, p: float, q: float, *, grid_n: int = DEFAULT_GRID_N
) -> float:
    """Best-case RVaR over all couplings: countermonotone lower q-tails."""
    p, q = _check_level(p, q, name="rvar levels")
    return _per_pair(_sum_law, f, g, grid_n, 0.0, q, False).upper_mean(1.0 - p / q)


# ---------------------------------------------------------------------------
# reference coupling functionals (plot columns, probability bounds)


def dl_sum_var(f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N) -> float:
    """VaR at level p of the directed-coupling sum of the whole marginals."""
    p = _check_level(p)
    return _per_pair(_sum_law, f, g, grid_n, 0.0, 1.0, True).var(p)


def ct_sum_var(f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N) -> float:
    """VaR at level p of the countermonotone sum of the whole marginals."""
    p = _check_level(p)
    return _per_pair(_sum_law, f, g, grid_n, 0.0, 1.0, False).var(p)


def ct_sum_cdf(f: Dist, g: Dist, t: float, *, grid_n: int = DEFAULT_GRID_N) -> float:
    """P(X + Y <= t) under the countermonotone sum of the whole marginals; t must be real."""
    t = _check_real(t, "threshold t")
    return _per_pair(_sum_law, f, g, grid_n, 0.0, 1.0, False).cdf(t)


# ---------------------------------------------------------------------------
# probability bounds (closed-form CDF scans)


# One half-line block of a threshold table: the scan points z, F(z), G(z), G(t - z)
# and F(t - z), which mo alone reads, so only the upper block holds it.
_Block = namedtuple("_Block", "z fz gz gt ft", defaults=[None])


def _threshold_table(f: Dist, g: Dist, t: float) -> tuple[_Block, _Block]:
    """The threshold-t scan points in two half-line blocks, with the CDF columns read there.

    zs0 = the pair's nodes (those of ``check_st``), t - nodes and t/2 = zs0[c]. zs0 is
    symmetric about t/2 (up to rounding), so each half-line is a slice of it
    interleaved with its midpoints: the lower block zs0[:c + 1], the upper block
    zs0[c - 1:] (all of zs0 where c = 0), one point early, which keeps a midpoint
    below t/2 that rounds to t/2. So the upper block starts with the lower one's
    last three points (t/2 alone where c = 0). About 0.6 MB at the default grid,
    read-only; ``_prob_row`` builds it once per threshold and keeps it with the row.
    """
    nodes, h = _per_pair(_merged_grid, (f, g), DEFAULT_SCAN_N), 0.5 * t
    zs0 = np.unique(np.concatenate((nodes, t - nodes, [h])))
    c = int(np.searchsorted(zs0, h))  # zs0[c] == t/2
    blocks = []
    for zs, upper in ((_with_midpoints(zs0[: c + 1]), False), (_with_midpoints(zs0[max(c - 1, 0) :]), True)):
        tz = t - zs
        cols = [zs, f.cdf(zs), g.cdf(zs), g.cdf(tz)] + ([f.cdf(tz)] if upper else [])
        for col in cols:
            col.flags.writeable = False
        blocks.append(_Block(*cols))
    return blocks[0], blocks[1]


def _row_window(table, t: float, scan, half: int, maximize: bool):
    """The start window of one row of the threshold-t scan: three points and their ``scan`` values.

    ``scan`` gives the row's values on a block of ``_threshold_table`` from its
    columns. The scan is kept on z >= t/2 (``half`` +1: the upper block from
    t/2), z <= t/2 (-1: the lower block) or the whole line (0). The window is
    the first best point of the ascending scan (the largest with ``maximize``;
    NaN ranks last, as in ``refine_min``, which reads only this window) and its
    two neighbours. On the whole line it is the lower block's, unless the upper
    block's best is strictly better or the lower block's first best point is
    t/2, whose right neighbour only the upper block holds. Step CDFs are
    constant between nodes: for atoms the scan is exact.
    """
    lower, upper = table
    if half > 0:  # a midpoint below t/2 that rounds to t/2 lies on z >= t/2 too
        k = int(np.searchsorted(upper.z, 0.5 * t))
        blocks = [(upper.z[k:], scan(upper)[k:])]
    else:  # (one above t/2 that rounds to it would only repeat the last point)
        blocks = [(lower.z, scan(lower))] + ([(upper.z, scan(upper))] if half == 0 else [])
    keys = [np.fmin(-v if maximize else v, np.inf) for _, v in blocks]
    ks = [int(np.argmin(key)) for key in keys]
    j = int(len(blocks) == 2 and (keys[1][ks[1]] < keys[0][ks[0]] or ks[0] == keys[0].size - 1))
    (zs, vals), a = blocks[j], max(ks[j] - 1, 0)
    return zs[a : ks[j] + 2], vals[a : ks[j] + 2]


def _with_midpoints(zs: np.ndarray) -> np.ndarray:
    """Ascending ``zs`` with the midpoint of each consecutive pair between them."""
    out = np.empty(2 * zs.size - 1)
    out[::2] = zs
    mids = out[1::2]
    np.add(zs[1:], zs[:-1], out=mids)
    mids *= 0.5
    return out


# The four rows of a threshold: (scan, half-line, maximize) of m, mo, Mo and M,
# each formula written once, over a block of CDF columns.
_PROB_ROWS = (
    (lambda b: b.fz + b.gt - 1.0, 0, True),  # m: sup_u [F(u) + G(t-u) - 1]
    (lambda b: b.gz - b.fz + b.ft, 1, True),  # mo: sup_{z >= t/2} [G(z) - F(z) + F(t-z)]
    (lambda b: b.fz - b.gz + b.gt, -1, False),  # Mo: inf_{z <= t/2} [F(z) - G(z) + G(t-z)]
    (lambda b: b.fz + b.gt, 0, False),  # M: inf_u [F(u) + G(t-u)]
)


# One threshold row: the scans of m, mo, Mo and M before their caps and clips, and
# the threshold table they were read from.
_Row = namedtuple("_Row", "m mo big_mo big_m table")

# The one-entry memo of ``_prob_row``: {(f, g, t): _Row}.
_ROW_MEMO: dict = {}


def _prob_row(f: Dist, g: Dist, t: float) -> _Row:
    """The scans of m, mo, Mo and M at a checked threshold t, before their caps and clips.

    m, mo, Mo and M at one t are asked for back to back, so one entry, keyed on
    f and g (by identity) and t, serves all four. The build reads the threshold
    table once, takes each row's window from its scan and refines the four in
    lockstep (``refine_min``, maxima negated): each round evaluates F(z), G(z),
    G(t - z) and F(t - z) once at the points of every row still refining.
    Where both laws are step CDFs the scan is exact: the tolerance is inf
    (``_steps``), so no round runs and each row is its window's best.
    t = -inf gives 0 and t = +inf 1.

    The entry keeps its table, and a build drops the previous entry only once
    its own table exists, so the build's temporaries reuse the old table's
    space. A table freed with its row, 0.6 MB at the top of the heap, would be
    handed back to the system and faulted in again by the next row (about 170
    pages, a third of a row's time).
    """
    if math.isinf(t):
        return _Row(*(float(t > 0),) * 4, None)
    key = (f, g, t)
    row = _ROW_MEMO.get(key)
    if row is not None:
        return row
    table = _threshold_table(f, g, t)
    _ROW_MEMO.clear()
    xs, vals = [], []
    for scan, half, maximize in _PROB_ROWS:
        zs, v = _row_window(table, t, scan, half, maximize)
        xs.append(zs)
        vals.append(-v if maximize else v)

    def objective(pts):
        z = np.concatenate([p for p in pts if p is not None])
        tz = t - z
        b = _Block(z, f.cdf(z), g.cdf(z), g.cdf(tz), f.cdf(tz))
        out, a = [], 0
        for (scan, _, maximize), p in zip(_PROB_ROWS, pts):
            if p is None:
                out.append(None)
                continue
            v = scan(b)[a : a + p.size]
            out.append(-v if maximize else v)
            a += p.size
        return out

    best = refine_min(objective, xs, vals, tol=math.inf if _steps(f, g) else 1e-10 * max(1.0, abs(t)))
    row = _ROW_MEMO[key] = _Row(*(-v if r[2] else v for v, r in zip(best, _PROB_ROWS)), table)
    return row


def prob_lower(f: Dist, g: Dist, t: float) -> float:
    """Lower bound on P(X+Y <= t) under the order constraint.

    mo(t) = max(G(t/2), sup_{z >= t/2} [G(z) - F(z) + F(t-z)]) = sup{p : worst VaR_p <= t}.
    """
    _require_order(f, g)
    t = _check_real(t, "threshold t")
    return max(float(g.cdf(0.5 * t)), _prob_row(f, g, t).mo)


def prob_upper(f: Dist, g: Dist, t: float) -> float:
    """Upper bound on P(X+Y <= t) under the order constraint.

    Mo(t) = min(F(t/2), inf_{z <= t/2} [F(z) - G(z) + G(t-z)]) = sup{p : best VaR_p <= t}.
    """
    _require_order(f, g)
    t = _check_real(t, "threshold t")
    return min(float(f.cdf(0.5 * t)), _prob_row(f, g, t).big_mo)


def prob_lower_unconstrained(f: Dist, g: Dist, t: float) -> float:
    """Lower bound on P(X+Y <= t) over all couplings: clip(sup_u [F(u) + G(t-u) - 1], 0, 1)."""
    t = _check_real(t, "threshold t")
    return min(max(_prob_row(f, g, t).m, 0.0), 1.0)


def prob_upper_unconstrained(f: Dist, g: Dist, t: float) -> float:
    """Upper bound on P(X+Y <= t) over all couplings: clip(inf_u [F(u) + G(t-u)], 0, 1)."""
    t = _check_real(t, "threshold t")
    return min(max(_prob_row(f, g, t).big_m, 0.0), 1.0)


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
) -> BoundReport:
    """All four extremes of one measure plus the spread reduction.

    ES and RVaR nest in exact arithmetic (one level-cell partition), and
    the VaR and probability bounds up to their independent refinements;
    rounding-size inversions of any measure (worst ES, a closed form, can
    sit about 1e-12 below the plan's best ES) are snapped, and genuine
    violations raise.
    An infinite or degenerate spread leaves the reduction fields unset.
    A level or threshold the measure does not read (``q`` outside rvar,
    ``t`` outside prob, ``p`` with prob) raises instead of being ignored,
    and so does one that is not a real number or lies out of range (the
    ``p`` that ess-inf and ess-sup only report included), or a ``grid_n``
    that is not an integer of at least 1, which every report records.
    """
    try:
        measure = _MEASURE_ALIASES[str(measure).lower()]
    except KeyError:
        raise DomainError(f"unknown measure {measure!r}") from None
    for name, value, unread in (
        ("q", q, measure != "rvar"),
        ("t", t, measure != "prob"),
        ("p", p, measure == "prob"),
    ):
        if unread and value is not None:
            raise DomainError(f"measure {measure} does not take {name}")
    if p is not None:  # ess-inf and ess-sup report a p they do not read: a level too
        p = _check_level(p)
    grid_n = _check_count(grid_n, "cell count n")
    if measure == "var":
        cw = worst_var_constrained(f, g, p)
        cb = best_var_constrained(f, g, p)
        uw = worst_var_unconstrained(f, g, p)
        ub = best_var_unconstrained(f, g, p)
    elif measure == "es":
        cw = worst_es_constrained(f, g, p)
        uw = cw
        cb = best_es_constrained(f, g, p, grid_n=grid_n)
        ub = best_es_unconstrained(f, g, p, grid_n=grid_n)
    elif measure == "rvar":
        if p is None or q is None:
            raise DomainError("rvar needs both levels p and q")
        cw = worst_rvar_constrained(f, g, p, q, grid_n=grid_n)
        cb = best_rvar_constrained(f, g, p, q, grid_n=grid_n)
        uw = worst_rvar_unconstrained(f, g, p, q, grid_n=grid_n)
        ub = best_rvar_unconstrained(f, g, p, q, grid_n=grid_n)
    elif measure == "ess_inf":
        cw = worst_ess_inf_constrained(f, g)
        uw = worst_ess_inf_unconstrained(f, g)
        cb = ub = float(f.quantile_left(0.0)) + float(g.quantile_left(0.0))
    elif measure == "ess_sup":
        cb = best_ess_sup_constrained(f, g)
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
        p=p,
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
        grid_n=grid_n,
        truncation_m=DEFAULT_TRUNC,
    )


def _snap_nesting(ub, cb, cw, uw):
    """Snap rounding-size inversions of ub <= cb <= cw <= uw (relative 1e-7)."""
    vals = [ub, cb, cw, uw]
    tol = max([1.0] + [abs(v) for v in vals if math.isfinite(v)]) * 1e-7
    for k in range(1, 4):
        if 0.0 < vals[k - 1] - vals[k] <= tol:  # False when either is infinite
            vals[k] = vals[k - 1]
    return tuple(vals)
