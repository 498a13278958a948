"""Scan-and-refine search for the closed-form bounds.

Each VaR, essential or probability bound scans its objective once and
refines the best scanned point once; no curve is inverted.

Minimisation objectives take an array of points; each refinement round
evaluates ``_K + 1`` evenly spaced points of the current bracket in one call.
Several rows (the four probability bounds at one threshold) refine in
lockstep: each round hands the objective the points of every row still
refining at once, so the rows share their CDF calls, while each row keeps
its own bracket and goes through the rounds, points and minimum it would
go through alone.
"""

import math

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

    One row: ``xs`` and ``vals`` are arrays, ``f`` maps ``_K + 1`` points to
    their values, and the minimum is returned. k rows: ``xs`` and ``vals`` are
    lists of k arrays, ``f`` maps a list of k point arrays (None for a row no
    longer refining) to a list of k value arrays (read only where points were
    given), and the list of the k minima is returned.
    """
    one = not isinstance(xs, list)
    if one:
        f, xs, vals = (lambda pts, f=f: (f(pts[0]),)), [xs], [vals]
    best, lo, hi, live = [], [], [], []  # per row: Python floats, as a row alone
    for i, (x, v) in enumerate(zip(xs, vals)):
        v = np.fmin(v, np.inf)  # NaN -> +inf
        k = int(v.argmin())
        best.append(v.item(k))
        lo.append(float(x[max(k - 1, 0)]))
        hi.append(float(x[min(k + 1, len(x) - 1)]))
        if math.isfinite(best[i]) and math.isfinite(lo[i]) and math.isfinite(hi[i]):
            live.append(i)
    pts = [None] * len(best)
    for _ in range(_MAX_ROUNDS):
        rows = []
        for i in live:
            a, b = lo[i], hi[i]
            if not b - a <= tol:
                ts = a + (b - a) * _STEPS  # np.linspace(lo, hi, _K + 1) to the bit, without its overhead
                ts[-1] = b
                pts[i] = ts
                rows.append(i)
        if not rows:
            break
        out = f(pts)
        live = []
        for i in rows:
            ts, pts[i] = pts[i], None
            v = np.fmin(out[i], np.inf)
            j = int(v.argmin())
            if v.item(j) < best[i]:
                best[i] = v.item(j)
            a, b = ts.item(max(j - 1, 0)), ts.item(min(j + 1, _K))
            if not b - a >= hi[i] - lo[i]:  # still shrinks
                live.append(i)
            lo[i], hi[i] = a, b
    return best[0] if one else best


def refine_max(f, xs, vals, *, tol=1e-10):
    """Maximum counterpart of :func:`refine_min`, one row."""
    return -refine_min(lambda x: -f(x), xs, -np.asarray(vals, dtype=float), tol=tol)
