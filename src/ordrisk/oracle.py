"""Independent verification tools.

Everything here recomputes a bound by a second route: the two-column
rearrangement value for unconstrained VaR, stop-loss curves for
convex-order dominance checks, grid-refinement diagnostics, and the
conditional-tail order check. Test suites compare these against the
closed forms in :mod:`ordrisk.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import SampleBatch
from .dist import (
    DEFAULT_GRID_N,
    DEFAULT_SCAN_N,
    Dist,
    OrderCheckReport,
    _check_count,
    _check_level,
    _midpoints,
    _write_table,
    check_ss,
    empirical_from_samples,
    upper_tail,
)
from .errors import DomainError


def ra_unconstrained_var(f: Dist, g: Dist, p: float, n: int) -> float:
    """Rearrangement value of the worst-case unconstrained VaR at level p.

    For two marginals the rearrangement fixed point is the anti-monotone
    arrangement of the upper-tail quantile columns, so no iteration is
    needed: the value is the minimal row sum of the F-tail column paired
    with the reversed G-tail column on an n-point grid.
    """
    p = _check_level(p)
    us = p + (1.0 - p) * _midpoints(_check_count(n, "grid size", 2))
    rows = np.asarray(f.quantile_left(us)) + np.asarray(g.quantile_left(us))[::-1]
    return float(rows.min())


@dataclass(frozen=True, eq=False)
class StopLossCurve:
    """Empirical stop-loss transform d -> E[(S - d)_+] with standard errors."""

    thresholds: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    mean: float
    mean_se: float

    def __repr__(self):
        return (
            f"StopLossCurve(points={self.thresholds.size}, "
            f"mean={self.mean:.6g} +- {self.mean_se:.2g})"
        )


def stop_loss_curve(batch: SampleBatch, thresholds) -> StopLossCurve:
    """Empirical means of (x + y - d)_+ over the batch, per threshold."""
    s = np.asarray(batch.x, dtype=float) + np.asarray(batch.y, dtype=float)
    n = s.size
    if n == 0:
        raise DomainError("empty batch")
    thresholds = np.asarray(thresholds, dtype=float)
    values = np.empty(thresholds.shape)
    stderr = np.empty(thresholds.shape)
    root_n = math.sqrt(n)
    for i, d in enumerate(thresholds):
        v = np.maximum(s - d, 0.0)
        values[i] = v.mean()
        stderr[i] = v.std(ddof=1) / root_n if n > 1 else math.inf
    mean_se = s.std(ddof=1) / root_n if n > 1 else math.inf
    return StopLossCurve(
        thresholds=thresholds,
        values=values,
        stderr=stderr,
        mean=float(s.mean()),
        mean_se=float(mean_se),
    )


def write_stop_loss_csv(curve: StopLossCurve, path):
    """Write the curve as CSV with header ``d,value,stderr``."""
    _write_table(path, ("d", "value", "stderr"), (curve.thresholds, curve.values, curve.stderr))


def grid_convergence(fn, levels, n: int) -> float:
    """Largest |fn(level, n) - fn(level, 2n)| over the level grid."""
    n = _check_count(n, "grid size n")
    worst = 0.0
    for level in levels:
        worst = max(worst, abs(fn(level, n) - fn(level, 2 * n)))
    return worst


def conditional_tail_ss_check(
    samples, event_mask, p: float, *, grid_size: int = DEFAULT_SCAN_N, tol=None
) -> OrderCheckReport:
    """Check that the law of the sample on the event is below the p-tail law.

    ``event_mask`` must select exactly ceil((1-p) * size) elements, the
    mass of a probability-(1-p) event in the empirical population. The
    comparison runs the strong-order check of the conditional empirical
    CDF against the empirical upper p-tail. Both laws are sampled, so the
    default tolerance is the statistical ``2/grid_size``, not ``check_ss``'s
    rounding-size one.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    mask = np.asarray(event_mask, dtype=bool).ravel()
    if mask.shape != samples.shape:
        raise DomainError("event mask must match samples")
    p = _check_level(p)
    required = math.ceil((1.0 - p) * samples.size)
    if int(mask.sum()) != required:
        raise DomainError(
            f"event mask selects {int(mask.sum())} elements, needs exactly {required}"
        )
    if tol is None:
        tol = 2.0 / _check_count(grid_size, "grid size", 2)
    conditional = empirical_from_samples(samples[mask])
    tail = upper_tail(empirical_from_samples(samples), p)
    return check_ss(conditional, tail, grid_size, tol)


def comonotone_es(f: Dist, g: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N) -> float:
    """ES at level p of the comonotone sum, by midpoint quadrature on the tail.

    Exact-summation cross-check for the marginal-additivity route.
    """
    p, grid_n = _check_level(p), _check_count(grid_n, "grid size", 2)
    us = p + (1.0 - p) * _midpoints(grid_n)
    vals = np.asarray(f.quantile_left(us)) + np.asarray(g.quantile_left(us))
    return math.fsum(vals.tolist()) / grid_n
