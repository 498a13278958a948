"""Ordered couplings of two marginals.

Implements the smallest joint CDF among couplings of (X, Y) with
X ~ F, Y ~ G and X <= Y, here called the directed coupling:

* transport maps ``transport_upper`` / ``transport_lower``;
* its closed-form bivariate CDF ``dl_cdf``;
* discrete coupling plans (``dl_plan_discrete``) on the equal level
  cells of a window, matching descending left-endpoint quantiles, and the
  sum CDF over a plan;
* samplers for comonotone, countermonotone and dl dependence.

The transport map is ``T(x) = inf{z >= x : F(z)-G(z) < F(x)-G(x)}``
(``+inf`` when the set is empty). All continuous evaluation is a grid
scan refined by bisection; the bisection returns the upper end of its
final bracket, so numeric transport values never undershoot the true
infimum.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._search import refine_min
from .dist import (
    DEFAULT_GRID_N,
    DEFAULT_TRUNC,
    Dist,
    _cell_means,
    _merged_grid,
    check_st,
    negate_dist,
    upper_tail,  # unused here; perfbench/tracer.py patches this name
)
from .errors import DomainError, OrderViolationError, PlanInfeasibleError

__all__ = [
    "DlPlan",
    "SampleBatch",
    "TransportEvaluator",
    "transport_upper",
    "transport_lower",
    "dl_cdf",
    "dl_plan_discrete",
    "dl_sum_cdf",
    "sample_coupling",
    "export_plan_csv",
    "export_batch_csv",
]

DEFAULT_SCAN_N = 2048

COUPLING_KINDS = ("comonotone", "countermonotone", "dl")


def _require_order(f: Dist, g: Dist):
    report = check_st(f, g)
    if not report.holds:
        raise OrderViolationError(report)


def _range_minima(v: np.ndarray) -> list[np.ndarray]:
    """Levels ``mins[l][i] = min(v[i : i + 2**l])`` for every 2**l <= v.size.

    ``fmin`` skips NaN, so a NaN never hides a real value in its block.
    """
    mins = [v]
    while 1 << len(mins) <= v.size:
        prev, half = mins[-1], 1 << (len(mins) - 1)
        mins.append(np.fmin(prev[:-half], prev[half:]))
    return mins


def _first_below(mins: list[np.ndarray], start, target) -> np.ndarray:
    """First index j >= start with v[j] < target, ``v.size`` if there is none.

    ``mins`` is ``_range_minima(v)``. Binary lifting: from the widest level
    down, a block is skipped while its minimum is not below the target.
    """
    n = mins[0].size
    pos = np.array(start, dtype=np.int64)
    for level in range(len(mins) - 1, -1, -1):
        width = 1 << level
        m = mins[level][np.minimum(pos, mins[level].size - 1)]
        pos += np.where((pos + width <= n) & ~(m < target), width, 0)
    return pos


class TransportEvaluator:
    """Shared evaluation grid for the level-``p`` transport map and infimum queries.

    Built once per ordered pair and tail level; the order check covers the
    whole pair. The grid merges both quantile functions at the levels
    ``p + (1 - p) u`` with every atom, so a sign change of the target
    between consecutive nodes is at most one cell wide.
    """

    def __init__(self, f: Dist, g: Dist, *, p: float = 0.0, trunc: float = DEFAULT_TRUNC):
        p = float(p)
        if not 0.0 <= p < 1.0:
            raise DomainError("tail level p must lie in [0, 1)")
        _require_order(f, g)
        self.f, self.g, self.p = f, g, p
        self.zs = _merged_grid(f, g, DEFAULT_SCAN_N, trunc, p)
        self.dz = self.diff(self.zs)
        self._mins = _range_minima(self.dz)

    def diff(self, z):
        """F(z) - max(G(z), p): (1 - p) times the upper p-tails' F - G above F^{-1}(p)."""
        return np.asarray(self.f.cdf(z), dtype=float) - np.maximum(self.g.cdf(z), self.p)

    def upper_many(self, xs) -> np.ndarray:
        """Level-p transport map at each x, +inf where the constraint set is empty.

        The target is F(x) - max(G(x), p), so for x in [F^{-1}(p), G^{-1}(p)]
        this is T_p(x) = inf{z >= x : F(z) - G(z) < F(x) - p}, and T(x) at
        p = 0. Range-minimum lookup of the first grid node at or after x
        strictly below the target, then a joint bisection over all active
        brackets; the upper bracket end is returned, hence >= the infimum.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        dx = self.diff(flat)
        out = np.full(flat.shape, math.inf)
        idx = np.flatnonzero((dx > 0.0) & np.isfinite(flat))
        start = np.searchsorted(self.zs, flat[idx], side="left")
        j = _first_below(self._mins, start, dx[idx])
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

    def upper(self, x: float) -> float:
        return float(self.upper_many(np.array([float(x)]))[0])

    def min_between(self, a: float, b: float) -> float:
        """inf of F - G over [a, b], grid scan plus batched bracket refinement."""
        if not a <= b:
            raise DomainError("min_between requires a <= b")
        i0 = int(np.searchsorted(self.zs, a, side="left"))
        i1 = int(np.searchsorted(self.zs, b, side="right"))
        ts = np.concatenate(([a], self.zs[i0:i1], [b]))
        return refine_min(self.diff, ts, self.diff(ts), tol=1e-12 * max(1.0, b - a))


def transport_upper(f: Dist, g: Dist, x: float, *, trunc: float = DEFAULT_TRUNC) -> float:
    """T(x) = inf{z >= x : F(z)-G(z) < F(x)-G(x)}; +inf on an empty set.

    Requires F <= G in the usual stochastic order.
    """
    return TransportEvaluator(f, g, trunc=trunc).upper(float(x))


def transport_lower(f: Dist, g: Dist, x: float, *, trunc: float = DEFAULT_TRUNC) -> float:
    """sup{t <= x : F(t)-G(t) < F(x)-G(x)}; -inf on an empty set.

    Computed through the exact reflection identity
    ``-transport_upper(negate(G), negate(F), -x)``; no grid law is built.
    """
    return -transport_upper(negate_dist(g), negate_dist(f), -float(x), trunc=trunc)


def dl_cdf(f: Dist, g: Dist, x: float, y: float, *, trunc: float = DEFAULT_TRUNC) -> float:
    """Bivariate CDF of the directed coupling at (x, y).

    Equals G(y) when y <= x, otherwise
    ``F(x) - inf_{z in [x,y]} (F(z) - G(z))``, clamped to [0, 1].
    """
    x, y = float(x), float(y)
    if y <= x:
        _require_order(f, g)
        return float(g.cdf(y))
    val = float(f.cdf(x)) - TransportEvaluator(f, g, trunc=trunc).min_between(x, y)
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


def _plan_levels(n: int, p: float, q: float = 1.0) -> np.ndarray:
    # descending left cell ends: p + (q-p)(n-i)/n for i = 1..n
    return p + (q - p) * (n - np.arange(1, n + 1)) / n


def _grid_points(d: Dist, levels: np.ndarray, trunc: float) -> np.ndarray:
    pts = np.asarray(d.quantile_left(levels), dtype=float)
    bad = ~np.isfinite(pts)
    if bad.any():
        clipped = np.clip(levels[bad], 1.0 - trunc, trunc)
        pts[bad] = d.quantile_left(clipped)
    return pts


def _match(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Index of the y each x takes when x runs down and takes the last y stacked.

    Merging the two descending sequences, every y at or above the current
    x is stacked before that x arrives, and the x pops the top of the stack.
    As brackets (a y opens, an x closes), the k-th x that arrives at stack
    depth h takes the k-th y that raised the stack to h.
    """
    n = xs.size
    i = np.arange(n)
    # y's stacked when x_i arrives: the first y below every x so far stops the merge
    stacked = np.searchsorted(
        -np.minimum.accumulate(ys), -np.minimum.accumulate(xs), side="right"
    )
    depth_x = stacked - i
    empty = np.flatnonzero(depth_x <= 0)
    if empty.size:
        k = int(empty[0])
        raise PlanInfeasibleError(f"no available y >= {xs[k]:.6g} for pair {k + 1} of {n}")
    depth_y = i + 1 - np.searchsorted(stacked, i, side="right")
    ox = np.argsort(depth_x, kind="stable")
    oy = np.argsort(depth_y, kind="stable")
    hx, hy = depth_x[ox], depth_y[oy]
    rank = i - np.searchsorted(hx, hx, side="left")
    y_idx = np.empty(n, dtype=np.int64)
    y_idx[ox] = oy[np.searchsorted(hy, hx, side="left") + rank]
    return y_idx


def dl_plan_discrete(
    f: Dist,
    g: Dist,
    n: int,
    p: float = 0.0,
    *,
    q: float = 1.0,
    trunc: float = DEFAULT_TRUNC,
    check: bool = True,
) -> DlPlan:
    """Directed coupling plan on the n equal level cells of [p, q).

    The points sit at the left cell ends p + (q-p)(n-i)/n, i = 1..n;
    iteration runs in decreasing x, matching each x_k with
    min{y in S_k : y >= x_k} and removing the match from S_k. Raises
    PlanInfeasibleError when no admissible y remains, which signals a
    stochastic-order violation at grid resolution; ``check`` first checks
    the order of the whole pair. ``mean_sums`` adds the paired cell means.
    """
    n = int(n)
    if n < 1:
        raise DomainError("plan size must be at least 1")
    p, q = float(p), float(q)
    if not 0.0 <= p < q <= 1.0:
        raise DomainError("plan level window must satisfy 0 <= p < q <= 1")
    if check:
        _require_order(f, g)
    levels = _plan_levels(n, p, q)
    xs = _grid_points(f, levels, trunc)
    ys = _grid_points(g, levels, trunc)
    y_idx = _match(xs, ys)
    means = _cell_means(f, n, p, q)[::-1] + _cell_means(g, n, p, q)[::-1][y_idx]
    return DlPlan(n=n, p=p, q=q, x=xs, y=ys[y_idx], y_index=y_idx, mean_sums=means)


def dl_sum_cdf(plan: DlPlan, t):
    """P(X + Y <= t) under the plan: (1/n) #. {k : x_k + y_k <= t}."""
    scalar = np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    out = np.searchsorted(plan.sums_sorted, tt, side="right") / plan.n
    return float(out) if scalar else out


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


def _safe_levels(u: np.ndarray) -> np.ndarray:
    # keep quantile arguments strictly inside (0, 1)
    return np.clip(u, 1e-12, 1.0 - 1e-12)


def sample_coupling(
    f: Dist,
    g: Dist,
    kind: str,
    size: int,
    seed: int,
    *,
    jitter: bool = False,
    plan: DlPlan | None = None,
    plan_n: int = DEFAULT_GRID_N,
    trunc: float = DEFAULT_TRUNC,
) -> SampleBatch:
    """Draw coupled pairs under comonotone, countermonotone or dl dependence.

    dl draws resample plan atoms uniformly; with ``jitter`` each draw is
    displaced within its quantile cell (the same cell fraction on both
    sides, clamped to keep x <= y exact). Deterministic given the seed.
    """
    if kind not in COUPLING_KINDS:
        raise DomainError(f"unknown coupling kind {kind!r}")
    size = int(size)
    if size < 1:
        raise DomainError("sample size must be positive")
    rng = np.random.default_rng(seed)
    if kind == "comonotone":
        u = _safe_levels(rng.random(size))
        x = np.asarray(f.quantile_left(u), dtype=float)
        y = np.asarray(g.quantile_left(u), dtype=float)
    elif kind == "countermonotone":
        u = _safe_levels(rng.random(size))
        x = np.asarray(f.quantile_left(u), dtype=float)
        y = np.asarray(g.quantile_left(1.0 - u), dtype=float)
    else:
        if plan is None:
            plan = dl_plan_discrete(f, g, plan_n, 0.0, trunc=trunc)
        idx = rng.integers(0, plan.n, size)
        if jitter:
            frac = rng.random(size)
            w = (plan.q - plan.p) / plan.n
            levels = _plan_levels(plan.n, plan.p, plan.q)
            x_lev = levels[idx]
            y_lev = levels[plan.y_index[idx]]
            x = np.asarray(f.quantile_left(_safe_levels(x_lev + frac * w)), dtype=float)
            y = np.asarray(g.quantile_left(_safe_levels(y_lev + frac * w)), dtype=float)
            y = np.maximum(x, y)
        else:
            x = plan.x[idx].copy()
            y = plan.y[idx].copy()
    return SampleBatch(coupling_kind=kind, x=x, y=y, seed=int(seed), size=size)


# ---------------------------------------------------------------------------
# file formats


def export_plan_csv(plan: DlPlan, path):
    """Write plan pairs as CSV with header ``k,x,y,tag``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "y", "tag"])
        for k in range(plan.n):
            writer.writerow(
                [k + 1, f"{plan.x[k]:.12g}", f"{plan.y[k]:.12g}", str(plan.tag[k])]
            )


def export_batch_csv(batch: SampleBatch, path, sidecar_path=None):
    """Write batch pairs as CSV ``x,y`` plus a JSON sidecar {kind, seed, size}."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for xv, yv in zip(batch.x, batch.y):
            writer.writerow([f"{xv:.12g}", f"{yv:.12g}"])
    if sidecar_path is None:
        sidecar_path = str(path) + ".json"
    meta = {"kind": batch.coupling_kind, "seed": batch.seed, "size": batch.size}
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
