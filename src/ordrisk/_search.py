"""Scan-and-refine search for the closed-form bounds.

Each VaR, essential or probability bound scans its objective once and
refines the best scanned point once; no curve is inverted.

Minimisation objectives take an array of points; each refinement round
evaluates ``_K + 1`` evenly spaced points of the current bracket in one call.
"""

import numpy as np

_K = 32
_MAX_ROUNDS = 64
_STEPS = np.arange(_K + 1) / _K  # exact: _K is a power of two


def refine_min(f, xs, vals, *, tol=1e-10):
    """Minimum of pre-scanned ``vals`` improved by batched bracket refinement.

    Starts from the two scan cells around the best scanned value; each round
    narrows to the two cells around the best new point. Stops once the
    bracket is at most ``tol`` wide or no longer shrinks at float resolution.
    NaN counts as ``+inf``; the result is never above the best scanned value.
    """
    vals = np.fmin(vals, np.inf)  # NaN -> +inf
    k = int(np.argmin(vals))
    best = float(vals[k])
    lo = float(xs[max(k - 1, 0)])
    hi = float(xs[min(k + 1, len(xs) - 1)])
    if not np.isfinite([best, lo, hi]).all():
        return best
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        if width <= tol:
            break
        ts = lo + width * _STEPS  # np.linspace(lo, hi, _K + 1) to the bit, without its overhead
        ts[-1] = hi
        v = np.fmin(f(ts), np.inf)
        i = int(np.argmin(v))
        best = min(best, float(v[i]))
        lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, _K)])
        if hi - lo >= width:
            break
    return best


def refine_max(f, xs, vals, *, tol=1e-10):
    """Maximum counterpart of :func:`refine_min`."""
    return -refine_min(lambda x: -f(x), xs, -np.asarray(vals, dtype=float), tol=tol)
