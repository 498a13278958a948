"""Search helpers for the bound formulas: scan-and-refine minimisation and curve inversion.

Minimisation objectives take an array of points; each refinement round
evaluates ``_K + 1`` evenly spaced points of the current bracket in one call.
"""

import numpy as np

_K = 32
_MAX_ROUNDS = 64


def invert_nondecreasing(fn, t):
    """sup{p : fn(p) <= t} for a nondecreasing ``fn`` on (0, 1), to within 5e-7.

    0.0 when fn(1e-9) > t, 1.0 when fn(1 - 1e-9) <= t. Otherwise keeps a
    bracket lo < hi with fn(lo) <= t < fn(hi), so a flat run at t resolves to
    its right end, and returns its midpoint once it is at most 1e-6 wide.
    Interpolated points stay 2.5e-7 inside the bracket; the step after one
    that fails to halve it bisects, so at most 2 + 2 * 20 evaluations.
    """
    lo, hi = 1e-9, 1.0 - 1e-9
    if (ylo := float(fn(lo))) > t:
        return 0.0
    if (yhi := float(fn(hi))) <= t:
        return 1.0
    glo, ghi, bisect = ylo - t, yhi - t, False
    pts = [(lo, glo), (lo, glo), (hi, ghi)]  # the repeat rules out a quadratic at first
    while hi - lo > 1e-6:
        width, x = hi - lo, np.nan
        (a, fa), (b, fb), (c, fc) = pts
        den = (fa - fb) * (fb - fc) * (fc - fa)
        if not bisect and den != 0.0:  # inverse quadratic through the last three evaluations
            x = -(a * fb * fc * (fb - fc) + b * fa * fc * (fc - fa) + c * fa * fb * (fa - fb)) / den
        elif not bisect:  # secant on the bracket
            x = lo - glo * (hi - lo) / (ghi - glo)
        if not lo <= x <= hi:  # not finite or outside: midpoint
            x, bisect = 0.5 * (lo + hi), True
        x = min(max(x, lo + 2.5e-7), hi - 2.5e-7)
        if (y := float(fn(x))) <= t:
            lo, glo = x, y - t
        else:
            hi, ghi = x, y - t
        pts = pts[1:] + [(x, y - t)]
        bisect = not bisect and hi - lo > 0.5 * width
    return 0.5 * (lo + hi)


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
        ts = np.linspace(lo, hi, _K + 1)
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
