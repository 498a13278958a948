"""Ordered couplings of two marginals.

Implements the smallest joint CDF among couplings of (X, Y) with
X ~ F, Y ~ G and X <= Y, here called the directed coupling:

* transport maps ``transport_upper`` / ``transport_lower``;
* its closed-form bivariate CDF ``dl_cdf``;
* discrete coupling plans (``dl_plan_discrete``) on the equal level
  cells of a window, matching descending left-endpoint quantiles, and the
  sum CDF over a plan;
* samplers for comonotone, countermonotone and dl dependence, and CSV export.

Every route that needs F <= G reads the pair's one order check, ``_order_report``,
and every level window its cell means, ``_window_means``, both through the
16-entry per-pair memo ``dist._per_pair``. Plans and draws read both laws' levels in
one pair read, ``dist._grid_points`` (an atom law reads a plan's points by one count);
a plan hands its one edge table to its window means on a memo miss.
Plans and dl draws share one point-and-match step, ``_plan_pairs``; draws read no cell means.

The transport map is ``T(x) = inf{z >= x : F(z)-G(z) < F(x)-G(x)}``
(``+inf`` when the set is empty); no bound reads it. ``TransportEvaluator``
finds it by scanning the pair's merged quantile nodes from x for the
first one where F - G falls below the target, then bisecting that cell;
the bisection returns the upper end of its final bracket, so numeric
transport values never undershoot the true infimum. Points (x, y, t)
that are NaN or not real numbers raise a DomainError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._search import refine_min
from .dist import (
    DEFAULT_GRID_N,
    DEFAULT_SCAN_N,
    Dist,
    _cell_edges,
    _cell_means,
    _cell_points,
    _check_count,
    _check_level,
    _check_real,
    _grid_points,
    _merged_grid,
    _per_pair,
    _write_table,
    check_st,
    negate_dist,
    upper_tail,  # unused here; perfbench/tracer.py patches this name
)
from .errors import DomainError, OrderViolationError, PlanInfeasibleError

COUPLING_KINDS = ("comonotone", "countermonotone", "dl")


def _order_report(f: Dist, g: Dist):
    """``check_st(f, g)`` once per pair, from ``_per_pair``: the one place it is looked up."""
    return _per_pair(check_st, f, g)


def _window_means(f: Dist, g: Dist, n: int, p: float, q: float, edges=None):
    """Cell means of F^{-1} and G^{-1} on the n cells of [p, q), one ``_per_pair`` build.

    Both laws read one edge table (a plan's ``edges``, else one built here) in one pair read.
    Read by the window's directed plan and its countermonotone sum law (``bounds._sum_law``).
    DomainError unless n is a positive integer, or if X + Y has no mean.
    """
    n = _check_count(n, "cell count n")
    fm, gm = _cell_means((f, g), _cell_edges(n, p, q) if edges is None else edges)
    _require_sum_mean(fm, gm)
    return fm, gm


def _require_sum_mean(fm, gm) -> None:
    """DomainError if X + Y has no mean, read from the first and last cell means of each law."""
    if min(fm[0], gm[0]) == -np.inf and max(fm[-1], gm[-1]) == np.inf:
        raise DomainError("mean of X + Y undefined: one marginal has mean -inf, the other +inf")


def _require_order(f: Dist, g: Dist) -> None:
    """Raise OrderViolationError unless F <= G, from the pair's memoised report."""
    report = _order_report(f, g)
    if not report.holds:
        raise OrderViolationError(report)


class TransportEvaluator:
    """Evaluation grid for the level-``p`` transport map.

    Serves ``transport_upper``/``transport_lower``; no bound reads T (the
    constrained VaR and essential bounds are a closed form in ``bounds``),
    and with ``p=`` it is the tests' reference for that closed form. The
    order check covers the whole pair. The grid merges both quantile
    functions at the levels ``p + (1 - p) u`` with every atom, so a sign
    change of the target between consecutive nodes is at most one cell
    wide: ``upper_many`` scans the nodes from each x for the first one
    below the target, then bisects that cell.
    """

    def __init__(self, f: Dist, g: Dist, *, p: float = 0.0):
        p = _check_level(p, name="tail level p", within="[0, 1)")
        _require_order(f, g)
        self.f, self.g, self.p = f, g, p
        self.zs = _merged_grid((f, g), DEFAULT_SCAN_N, p)
        self.dz = self.diff(self.zs)

    def diff(self, z):
        """F(z) - max(G(z), p): (1 - p) times the upper p-tails' F - G above F^{-1}(p)."""
        return self.f.cdf(z) - np.maximum(self.g.cdf(z), self.p)

    def upper_many(self, xs) -> np.ndarray:
        """Level-p transport map at each x, +inf where the constraint set is empty.

        The target is F(x) - max(G(x), p), so for x in [F^{-1}(p), G^{-1}(p)]
        this is T_p(x) = inf{z >= x : F(z) - G(z) < F(x) - p}, and T(x) at
        p = 0. A scan of the grid nodes from x, per point, for the first one
        strictly below the target, then a joint bisection over all active
        brackets; the upper bracket end is returned, hence >= the infimum.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        dx = self.diff(flat)
        out = np.full(flat.shape, math.inf)
        idx = np.flatnonzero((dx > 0.0) & np.isfinite(flat))
        start = np.searchsorted(self.zs, flat[idx], side="left")
        # first node at or after x below the target, dz.size if there is none
        j = np.array(
            [k + np.argmax(np.append(self.dz[k:] < d, True)) for k, d in zip(start, dx[idx])],
            dtype=np.int64,
        )
        hit = j < self.dz.size
        idx, j = idx[hit], j[hit]
        if idx.size:
            x = flat[idx]
            a = np.where(j == 0, x, np.maximum(x, self.zs[np.maximum(j - 1, 0)]))
            b = self.zs[j]
            target = dx[idx]
            for _ in range(80):
                width = b - a
                if np.all(width <= 4e-16 * np.maximum(1.0, np.abs(b))):
                    break
                mid = 0.5 * (a + b)
                inside = self.diff(mid) < target
                b = np.where(inside, mid, b)
                a = np.where(inside, a, mid)
            out[idx] = b
        return out.reshape(xs.shape)


def transport_upper(f: Dist, g: Dist, x: float) -> float:
    """T(x) = inf{z >= x : F(z)-G(z) < F(x)-G(x)}; +inf on an empty set.

    Requires F <= G in the usual stochastic order; DomainError for a NaN or non-real x.
    """
    x = _check_real(x, "point x")
    return float(TransportEvaluator(f, g).upper_many(np.array([x]))[0])


def transport_lower(f: Dist, g: Dist, x: float) -> float:
    """sup{t <= x : F(t)-G(t) < F(x)-G(x)}; -inf on an empty set.

    Computed through the exact reflection identity
    ``-transport_upper(negate(G), negate(F), -x)``; no grid law is built.
    """
    return -transport_upper(negate_dist(g), negate_dist(f), -_check_real(x, "point x"))


def dl_cdf(f: Dist, g: Dist, x: float, y: float) -> float:
    """Bivariate CDF of the directed coupling at (x, y).

    Equals G(y) when y <= x, otherwise
    ``F(x) - inf_{z in [x,y]} (F(z) - G(z))``, clamped to [0, 1]: a scan of
    x, the pair's memoised nodes inside [x, y] and y, then one refinement.
    """
    x, y = _check_real(x, "point x"), _check_real(y, "point y")
    _require_order(f, g)
    if y <= x:
        return g.cdf(y)
    zs = _per_pair(_merged_grid, (f, g), DEFAULT_SCAN_N)
    i0, i1 = np.searchsorted(zs, x, side="left"), np.searchsorted(zs, y, side="right")
    ts = np.concatenate(([x], zs[i0:i1], [y]))
    diff = lambda z: f.cdf(z) - g.cdf(z)
    val = f.cdf(x) - refine_min(diff, ts, diff(ts), tol=1e-12 * max(1.0, y - x))
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# discrete plans


@dataclass(frozen=True, eq=False)
class DlPlan:
    """Discrete directed coupling on the n equal level cells of a window [p, q).

    Pair k carries mass 1/n. Its points are left cell-end quantiles, x in
    decreasing order, each matched with the smallest still-available y
    above it, so x <= y exactly. ``mean_sums`` adds the paired cells'
    means of F^{-1} and G^{-1}, which mean functionals (ES, RVaR) read.
    """

    n: int
    p: float
    q: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    y_index: np.ndarray = field(repr=False)
    mean_sums: np.ndarray = field(repr=False)

    @cached_property
    def sums_sorted(self) -> np.ndarray:
        return np.sort(self.x + self.y)

    @cached_property
    def tag(self) -> np.ndarray:
        """``"common"`` where the pair sits on the diagonal, ``"singular"`` otherwise."""
        return np.where(self.x == self.y, "common", "singular")

    def __repr__(self):
        common = int(np.count_nonzero(self.tag == "common"))
        return f"DlPlan(n={self.n}, p={self.p!r}, q={self.q!r}, common={common})"


def _match(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Index of the y each x takes when x runs down and takes the last y stacked.

    Merging the two descending sequences, every y at or above the current
    x is stacked before that x arrives, and the x pops the top of the stack.
    As brackets (a y opens, an x closes), the k-th x that arrives at stack
    depth h takes the k-th y that raised the stack to h. Every bracket
    closes at the depth it opened, so each depth has as many x's as y's,
    and the stable sorts by depth line them up position by position in any
    group order both share: deepest first where the x depths never rise (on
    overlapping windows), so the stable sorts meet long runs, else shallowest first. One
    merge search, one count and two stable argsorts. Once no x meets an
    empty stack, every ``stacked`` count lies in [1, n], so it fits
    ``np.bincount`` with n + 1 bins. An x that meets an empty stack raises
    PlanInfeasibleError. Both sequences must be nonincreasing, as a plan's
    points are: the merge search reads them as they are. Where x <= y at every
    level, as in ``dl_plan_discrete``, every x finds its y: the y's of its level
    and all above it are stacked first.
    """
    n = xs.size
    i = np.arange(n)
    stacked = np.searchsorted(-ys, -xs, side="right")  # y's stacked when x_i arrives
    depth_x = stacked - i
    empty = np.flatnonzero(depth_x <= 0)
    if empty.size:
        k = int(empty[0])
        raise PlanInfeasibleError(f"no available y >= {xs[k]:.6g} for pair {k + 1} of {n}")
    # y_i raises the stack to i + 1 less the x's that arrived before it
    depth_y = i + 1 - np.cumsum(np.bincount(stacked, minlength=n + 1))[:n]
    if np.all(depth_x[1:] <= depth_x[:-1]):
        depth_x, depth_y = -depth_x, -depth_y  # deepest group first
    y_idx = np.empty(n, dtype=np.int64)
    y_idx[np.argsort(depth_x, kind="stable")] = np.argsort(depth_y, kind="stable")
    return y_idx


def _plan_pairs(f: Dist, g: Dist, edges: np.ndarray):
    """The order check, then the x and y points on the cells between ``edges``, top first, and their matching.

    Each y point is clamped to the x point of its level, so a pair the gate admits, whose quantiles
    may cross by a rounding, still has a y >= x at every level and ``_match`` never runs out. The bottom
    point is held to the next one: where F^{-1} is -inf there, ``_grid_points`` reads a stand-in that
    can lie above the next point (at n >= 10^6).
    """
    _require_order(f, g)
    xs, ys = _cell_points((f, g), edges)
    ys = np.maximum(xs, ys)
    xs[-1], ys[-1] = xs[-2:].min(), ys[-2:].min()
    return xs, ys, _match(xs, ys)


def dl_plan_discrete(
    f: Dist,
    g: Dist,
    n: int,
    p: float = 0.0,
    *,
    q: float = 1.0,
) -> DlPlan:
    """Directed coupling plan on the n equal level cells of [p, q).

    The points sit at the left cell ends p + (q-p)(n-i)/n, i = 1..n;
    iteration runs in decreasing x, matching each x_k with
    min{y in S_k : y >= x_k} and removing the match from S_k. The order
    of the whole pair is checked first (OrderViolationError), by ``_plan_pairs``, which
    reads and matches the points; ``mean_sums`` adds the paired cell means.
    """
    p, q = _check_level(p, q, name="plan levels", within="[0, 1]")
    n = _check_count(n, "cell count n")
    edges = _cell_edges(n, p, q)
    xs, ys, y_idx = _plan_pairs(f, g, edges)
    fm, gm = _per_pair(_window_means, f, g, n, p, q, edges=edges)
    means = fm[::-1] + gm[::-1][y_idx]
    return DlPlan(n=n, p=p, q=q, x=xs, y=ys[y_idx], y_index=y_idx, mean_sums=means)


def dl_sum_cdf(plan: DlPlan, t):
    """P(X + Y <= t) under the plan: (1/n) #. {k : x_k + y_k <= t}.

    DomainError for a NaN, bool or non-real t, or an array holding one.
    """
    tt = np.asarray(t)
    if tt.dtype.kind not in "iuf" or np.isnan(tt).any():
        raise DomainError("threshold t must be a real number, or an array of them, not NaN")
    out = np.searchsorted(plan.sums_sorted, tt, side="right") / plan.n
    return float(out) if tt.ndim == 0 else out


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Seeded draw of coupled pairs; x and y are aligned arrays."""

    coupling_kind: str
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    seed: int
    size: int

    def __repr__(self):
        return f"SampleBatch(kind={self.coupling_kind!r}, size={self.size}, seed={self.seed})"


def sample_coupling(
    f: Dist,
    g: Dist,
    kind: str,
    size: int,
    seed: int,
    *,
    jitter: bool = False,
    plan_n: int = DEFAULT_GRID_N,
) -> SampleBatch:
    """Draw coupled pairs under comonotone, countermonotone or dl dependence.

    dl draws resample plan atoms uniformly; with ``jitter`` each draw is
    displaced within its quantile cell (the same cell fraction on both
    sides, clamped to keep x <= y exact). Deterministic given the seed.
    A draw reads the plan's points and matching (``_plan_pairs``), no cell means:
    the plan's DomainError for an undefined mean of X + Y reads the end cells only.
    ``jitter`` must be a bool, and comonotone and countermonotone draws, which
    have no plan cells to jitter in, refuse ``jitter=True`` (DomainError).
    """
    if kind not in COUPLING_KINDS:
        raise DomainError(f"unknown coupling kind {kind!r}")
    if not isinstance(jitter, (bool, np.bool_)):
        raise DomainError(f"jitter must be a bool: {jitter!r}")
    if jitter and kind != "dl":
        raise DomainError(f"jitter is read by dl draws only, not {kind}")
    size, seed = _check_count(size, "sample size"), _check_count(seed, "seed", 0)
    plan_n = _check_count(plan_n, "cell count n")  # read by dl only, checked for every kind
    rng = np.random.default_rng(seed)
    if kind != "dl":
        u = rng.random(size)
        if kind == "comonotone":
            x, y = _grid_points((f, g), u)
        else:
            (x,), (y,) = _grid_points((f,), u), _grid_points((g,), 1.0 - u)
    else:
        edges = _cell_edges(plan_n)
        xs, ys, y_idx = _plan_pairs(f, g, edges)
        first, last = _cell_means((f, g), edges[:2]), _cell_means((f, g), edges[-2:])
        _require_sum_mean(*np.concatenate((first, last), axis=1))  # rows F, G: the two end cells of each
        idx = rng.integers(0, plan_n, size)
        if jitter:
            levels, shift = edges[-2::-1], rng.random(size) * (1.0 / plan_n)  # the plan's levels, top cell first
            (x,), (y,) = _grid_points((f,), levels[idx] + shift), _grid_points((g,), levels[y_idx[idx]] + shift)
            y = np.maximum(x, y)
        else:
            x, y = xs[idx], ys[y_idx[idx]]
    return SampleBatch(coupling_kind=kind, x=x, y=y, seed=seed, size=size)


# ---------------------------------------------------------------------------
# file formats


def export_plan_csv(plan: DlPlan, path):
    """Write plan pairs as CSV with header ``k,x,y,tag``."""
    _write_table(path, ("k", "x", "y", "tag"), (np.arange(1, plan.n + 1), plan.x, plan.y, plan.tag))


def export_batch_csv(batch: SampleBatch, path, sidecar_path=None):
    """Write batch pairs as CSV ``x,y`` plus a JSON sidecar {kind, seed, size}."""
    _write_table(path, ("x", "y"), (batch.x, batch.y))
    if sidecar_path is None:
        sidecar_path = str(path) + ".json"
    meta = {"kind": batch.coupling_kind, "seed": batch.seed, "size": batch.size}
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
