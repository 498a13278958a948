"""One-dimensional distribution toolkit.

Distributions expose a CDF, generalized inverses (left and right
quantiles), support endpoints, tail conditioning, negation,
stochastic-order checks and tail risk measures (ES, RVaR). Five
representations are supported:

* ``Pareto(scale, shape)``: ``F(x) = 1 - (scale/x)**shape`` on ``x >= scale``;
* ``Uniform(lo, hi)``;
* ``Normal(mean, sd)``;
* ``Empirical``: weighted atoms with a step CDF;
* ``QuantileGrid``: piecewise-linear quantile function tabulated at
  levels in (0, 1), the numeric fallback for everything without a
  closed form.

Conventions. ``quantile_left(u) = inf{t : F(t) >= u}`` and
``quantile_right(u) = inf{t : F(t) > u}``; by convention the left
quantile at 0 and the right quantile at 1 return the support endpoints
(possibly infinite). Infinite values are returned as ``inf`` floats,
never as large finite surrogates. The one truncation level is
``DEFAULT_TRUNC`` = 1 - 1e-6, which bound reports carry as ``truncation_m``.
Plans, draws and tail grids read levels through one grid read,
``_grid_points``: the exact left quantile, with the level clipped to
``[1 - DEFAULT_TRUNC, DEFAULT_TRUNC]`` only where that quantile is
infinite. ``to_grid(trunc=)`` is the one explicit truncation.
A closed-form quantile is an affine map of a level-only kernel, ``_affine(_kernel(u))`` to
the bit; ``_key`` names the kernel: ``(1-u)**(-1/shape)`` (Pareto laws of one shape), ``u``
(uniforms), ``ndtri(u)`` (normals), a reflected law's kernel at ``1 - u``. The pair reads
``_grid_points``, ``_cell_means`` and ``_quantiles`` take a tuple of laws and read each distinct
kernel and cell-mean piece once per level array, unvalidated: the library built the levels.
The scan levels ascend, so each law's quantiles in a node grid (``_merged_grid``) are one
ascending run, merged by a stable sort. Every ``cdf`` opens with one point entry, ``_points``:
a float64 array passes as it is, and a point numpy does not read as real is a ``DomainError``.

``scipy.special`` (the normal CDF ``ndtr`` and quantile ``ndtri``) is bound
once, by ``_special`` on first use by a normal law, not imported per call;
its import costs more than the rest of the library, and no other kind needs
it.

Work shared by the bounds of a pair is built once, in one memo of 16
entries, ``_per_pair``; every array it returns is read-only. An empirical
law holds its reflection (``negate_dist``), built on first use.

Every CSV table is written by one column writer, ``_write_table``: float
columns are formatted to ``%.12g`` in blocks of rows by one numpy kernel,
``_g12.format_g12``, which leaves to Python's ``'%.12g' % v`` only the cells
whose digits it cannot prove (zeros, inf, nan, exponent notation,
near-ties and carries), so the bytes equal one Python call per float. The
kernel's module is imported by the first float column written, so runs
that write none never load it.
"""

from __future__ import annotations

import csv
import importlib
import math
import numbers
from collections import OrderedDict
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError

DEFAULT_GRID_N = 10_000
DEFAULT_TRUNC = 1.0 - 1e-6
DEFAULT_SCAN_N = 2048  # midpoint levels of the merged node grid of order checks and scans
ROUNDING_TOL = 1e-9  # the order gate's default tolerance and the atoms' level tolerance


def _validate_levels(u):
    arr = np.asarray(u)  # integer, unsigned or float: no bool, string or object levels
    if arr.dtype.kind not in "iuf" or (arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0)):
        raise DomainError("quantile level must be a real number in [0, 1]")
    return arr.astype(float, copy=False)


def _points(x):
    """``(points, scalar)``, every ``cdf``'s entry: a float64 array of ndim >= 1 as it is, else ``_real_array``."""
    if type(x) is np.ndarray and x.dtype == float and x.ndim:
        return x, False
    x = _real_array(x, "CDF points")
    return x, x.ndim == 0


def _as_output(arr, scalar):
    return float(arr) if scalar else arr


class Dist:
    """Common distribution interface. Instances are immutable value objects; each
    constructor stores the support ends, ``support_lo`` and ``support_hi`` (possibly infinite)."""

    kind: str = "abstract"
    _level_tol = 0.0  # levels this close to a cumulative weight read as it
    _key = None  # a closed form's kernel key: laws of one key share ``_kernel`` (module docstring)

    def cdf(self, x):
        raise NotImplementedError

    def _ql(self, u):  # a closed form defines its level-only ``_kernel`` and its own ``_affine`` map
        return self._affine(self._kernel(u))

    def _qr(self, u):
        return self._ql(u)

    def quantile_left(self, u):
        scalar = np.ndim(u) == 0
        arr = _validate_levels(u)
        return _as_output(self._ql(arr), scalar)

    def quantile_right(self, u):
        scalar = np.ndim(u) == 0
        arr = _validate_levels(u)
        return _as_output(self._qr(arr), scalar)


class Pareto(Dist):
    """Pareto distribution, ``F(x) = 1 - (scale/x)**shape`` for ``x >= scale``."""

    kind = "pareto"

    def __init__(self, scale: float, shape: float):
        scale, shape = _check_real(scale, "pareto scale"), _check_real(shape, "pareto shape")
        if not (scale > 0 and math.isfinite(scale)):
            raise DomainError("pareto scale must be positive and finite")
        if not (shape > 0 and math.isfinite(shape)):
            raise DomainError("pareto shape must be positive and finite")
        self.scale, self.shape = scale, shape
        self.support_lo, self.support_hi, self._key = self.scale, math.inf, ("pareto", shape)

    def __repr__(self):
        return f"Pareto(scale={self.scale!r}, shape={self.shape!r})"

    def cdf(self, x):
        x, scalar = _points(x)
        out = 1.0 - (self.scale / np.maximum(x, self.scale)) ** self.shape
        return _as_output(out, scalar)

    def _kernel(self, u):
        b = 1.0 - u
        if np.count_nonzero(b) == np.size(b):  # no level 1: skip errstate, dearer than a short power
            return b ** (-1.0 / self.shape)
        with np.errstate(divide="ignore"):  # level 1 reads inf
            return b ** (-1.0 / self.shape)

    def _affine(self, k):
        return self.scale * k


class Uniform(Dist):
    """Continuous uniform distribution on ``[lo, hi]``."""

    kind = "uniform"
    _key = ("uniform",)

    def __init__(self, lo: float, hi: float):
        lo, hi = _check_real(lo, "uniform lo"), _check_real(hi, "uniform hi")
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise DomainError("uniform requires finite lo < hi")
        self.lo, self.hi = lo, hi
        self.support_lo, self.support_hi = self.lo, self.hi

    def __repr__(self):
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"

    def cdf(self, x):
        x, scalar = _points(x)
        out = np.minimum(np.maximum(0.0, (x - self.lo) / (self.hi - self.lo)), 1.0)  # np.clip to the bit
        return _as_output(out, scalar)

    def _kernel(self, u):
        return u

    def _affine(self, k):
        return self.lo + k * (self.hi - self.lo)


class Normal(Dist):
    """Gaussian distribution with the given mean and standard deviation."""

    kind = "normal"
    _key = ("normal",)

    def __init__(self, mean: float, sd: float):
        mean, sd = _check_real(mean, "normal mean"), _check_real(sd, "normal sd")
        if not (math.isfinite(mean) and sd > 0 and math.isfinite(sd)):
            raise DomainError("normal requires finite mean and positive sd")
        self.mean, self.sd = mean, sd
        self.support_lo, self.support_hi = -math.inf, math.inf

    def __repr__(self):
        return f"Normal(mean={self.mean!r}, sd={self.sd!r})"

    def cdf(self, x):
        x, scalar = _points(x)
        return _as_output(_special().ndtr((x - self.mean) / self.sd), scalar)

    def _kernel(self, u):
        return _special().ndtri(u)  # +-inf at 0 and 1, without a warning

    def _affine(self, k):
        return self.mean + self.sd * k


@lru_cache(maxsize=1)
def _special():  # scipy.special, imported by the first normal law that reads it (module docstring)
    return importlib.import_module("scipy.special")


class Empirical(Dist):
    """Weighted atoms with a right-continuous step CDF.

    ``values`` must be nondecreasing; ``weights`` positive. Use
    :func:`empirical_from_samples` to build one from raw draws. ``values``
    and the cumulative weights are views of tables that end in a NaN node, so
    the CDF's one search reads a NaN point as NaN. The reflected law of
    ``negate_dist`` is built on first use and held by the law.
    """

    kind = "empirical"
    _level_tol = ROUNDING_TOL  # ``_cumw`` is a float sum, and the order gate admits this much
    _reflection = None

    def __init__(self, values, weights):
        values = _real_array(values, "empirical values")
        weights = _real_array(weights, "empirical weights")
        if values.ndim != 1 or values.size == 0 or values.shape != weights.shape:
            raise DomainError("empirical requires matching 1-d values and weights")
        if np.any(np.diff(values) < 0):
            raise DomainError("empirical values must be nondecreasing")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise DomainError("empirical weights must be positive and finite")
        if not np.all(np.isfinite(values)):
            raise DomainError("empirical values must be finite")
        self._nodes = np.append(values, np.nan)  # NaN sorts last, past every atom
        self.values = self._nodes[:-1]
        self.weights = weights / weights.sum()
        self._levels = np.concatenate(([0.0], np.cumsum(self.weights), [np.nan]))
        self._levels[-2] = 1.0
        self._cumw0 = self._levels[:-1]  # F below each atom, then 1
        self._cumw = self._levels[1:-1]
        self.support_lo, self.support_hi = float(values[0]), float(values[-1])

    def __repr__(self):
        return f"Empirical(n={self.values.size})"

    def cdf(self, x):
        x, scalar = _points(x)
        idx = np.searchsorted(self._nodes, x, side="right")  # past the NaN node only for NaN
        return _as_output(self._levels[idx], scalar)

    def _ql(self, u):
        idx = np.searchsorted(self._cumw, u, side="left")
        idx = np.minimum(idx, self.values.size - 1)
        return self.values[idx]

    def _qr(self, u):
        idx = np.searchsorted(self._cumw, u, side="right")
        idx = np.minimum(idx, self.values.size - 1)
        return self.values[idx]


class QuantileGrid(Dist):
    """Piecewise-linear quantile function through ``(us[i], xs[i])``.

    ``us`` must be strictly increasing inside (0, 1); ``xs``
    nondecreasing. The quantile function is held constant outside
    ``[us[0], us[-1]]``, so the endpoints carry atoms of mass ``us[0]``
    and ``1 - us[-1]``. The CDF is the generalized inverse, linear in
    ``x`` between table nodes. ``xs`` is a view of a table that ends in a NaN
    node, so the CDF's one search reads a NaN point as NaN.
    """

    kind = "grid"

    def __init__(self, us, xs):
        us = _real_array(us, "grid levels")
        xs = _real_array(xs, "grid values")
        if us.ndim != 1 or us.size == 0 or us.shape != xs.shape:
            raise DomainError("grid requires matching 1-d level and value tables")
        if np.any(us <= 0.0) or np.any(us >= 1.0) or np.any(np.diff(us) <= 0):
            raise DomainError("grid levels must be strictly increasing inside (0, 1)")
        if np.any(np.diff(xs) < 0) or not np.all(np.isfinite(xs)):
            raise DomainError("grid values must be finite and nondecreasing")
        self.us = us
        self._nodes = np.append(xs, np.nan)  # NaN sorts last, past every node
        self.xs = self._nodes[:-1]
        self._ends = np.zeros(xs.size + 2)  # F by search index: 0 below, 1 at or above the top, NaN
        self._ends[-2:] = 1.0, np.nan
        self.support_lo, self.support_hi = float(xs[0]), float(xs[-1])

    def __repr__(self):
        return f"QuantileGrid(n={self.us.size})"

    def cdf(self, x):
        x, scalar = _points(x)
        xs, us = self.xs, self.us
        r = np.searchsorted(self._nodes, x, side="right")
        out = np.asarray(self._ends[r])  # the nodes between are interpolated
        mid = (r > 0) & (r < xs.size)
        if np.any(mid):
            rm = r[mid]
            xl, xr = xs[rm - 1], xs[rm]
            ul, ur = us[rm - 1], us[rm]
            out[mid] = ul + (ur - ul) * (x[mid] - xl) / (xr - xl)  # xl <= x < xr
        return _as_output(out, scalar)

    def _ql(self, u):
        return np.interp(u, self.us, self.xs)


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _check_real(x, name: str) -> float:
    """``x`` as a float; DomainError unless it is a real number other than NaN or a bool (+-inf pass)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or math.isnan(x):
        raise DomainError(f"{name} must be a real number, not NaN: {x!r}")
    return float(x)


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array; DomainError unless numpy reads it as integers or floats (no str, bool, object)."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind in "iuf":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):  # ragged nesting
        pass
    raise DomainError(f"{name} must be real numbers: {x!r}")


def _check_level(*levels, name: str = "level p", within: str = "(0, 1)"):
    """A level p, or a window p, q, as floats: the one level check.

    DomainError unless each is a real number (numpy's too, no bool) inside ``within``, one of
    "(0, 1)", "[0, 1)", "(0, 1]" and "[0, 1]", and a window has p < q.
    """
    lo, hi, one = levels[0], levels[-1], len(levels) == 1
    ok = all(isinstance(u, numbers.Real) and not isinstance(u, bool) for u in levels) and (one or lo < hi)
    ok = ok and (0.0 <= lo if within[0] == "[" else 0.0 < lo)
    if not (ok and (hi <= 1.0 if within[-1] == "]" else hi < 1.0)):  # NaN fails too
        rule, value = (within, lo) if one else (f"{within} with p < q", levels)
        raise DomainError(f"{name} must lie in {rule}: {value!r}")
    return float(lo) if one else (float(lo), float(hi))


def _check_count(n, name: str, least: int = 1) -> int:
    """``n`` as an int: the one count check (grid and cell sizes, sample size, seed).

    DomainError unless it is an integer (numpy's too, no bool) of at least ``least``; 100.0 and True fail.
    """
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= least):
        rule = "a positive integer" if least == 1 else f"at least {least} and an integer"
        raise DomainError(f"{name} must be {rule}: {n!r}")
    return int(n)


def to_grid(d: Dist, n: int = DEFAULT_GRID_N, trunc: float = DEFAULT_TRUNC) -> QuantileGrid:
    """Quantile-grid approximation of ``d`` at midpoint levels ``(i - 1/2)/n``.

    Levels are clipped to ``[1 - trunc, trunc]`` so unbounded supports
    come out finite: the one explicit truncation, where ``_grid_points``
    clips a level only where its quantile is infinite.
    """
    n = _check_count(n, "grid size", 2)
    if not (isinstance(trunc, numbers.Real) and 0.5 < trunc < 1.0):  # NaN fails too
        raise DomainError("truncation level must lie in (0.5, 1)")
    us = _midpoints(n)
    xs = d.quantile_left(np.clip(us, 1.0 - trunc, trunc))
    return QuantileGrid(us, xs)


def _quantiles(laws, levels) -> list:
    """Each law's ``_ql`` at levels the library built in [0, 1] (no validation), each distinct kernel read once."""
    kernels = {key: d._kernel(levels) for key, d in {d._key: d for d in laws if d._key}.items()}
    return [d._affine(kernels[d._key]) if d._key else d._ql(levels) for d in laws]


def _grid_points(laws, levels: np.ndarray) -> list:
    """``F^{-1}`` of each law at each level: the one grid read of plans, draws and tail grids.

    The exact left quantile, read at the level clipped to ``[1 - DEFAULT_TRUNC, DEFAULT_TRUNC]``
    only where that quantile is infinite (an unbounded support's end), for all laws in one read.
    """
    pts = _quantiles(laws, levels)
    bad = [~np.isfinite(x) for x in pts]
    if any(b.any() for b in bad):
        anybad = reduce(np.logical_or, bad)
        fixed = _quantiles(laws, np.clip(levels[anybad], 1.0 - DEFAULT_TRUNC, DEFAULT_TRUNC))
        for x, b, y in zip(pts, bad, fixed):
            x[b] = y[b[anybad]]
    return pts


def _window_law(d: Dist, lo: float, hi: float, grid_n: int) -> Dist:
    """Law of ``F^{-1}(U)`` with ``U`` uniform on the level window ``[lo, hi]``, [p, 1] or [0, p].

    A Pareto upper tail, a uniform and atoms map to closed forms; any other kind is
    tabulated through ``_grid_points`` at the ``grid_n`` midpoints of the window, plus a
    node 1e-9 inside each end that lies inside (0, 1), where ``F^{-1}`` is finite, so the
    grid does not overshoot that end. Where a level rounds to 0 or 1 and its quantile is
    infinite, the clipped read may fall outside the window; the running maximum keeps the
    table nondecreasing. The node next to the window's inner end (p) may read past
    ``F^{-1}(p)`` by a rounding (a reflected law reads ``F^{-1}`` at 1 - u, and an array
    read can differ from a scalar one in the last bit), so the table is held to that end.
    """
    if isinstance(d, Pareto) and hi == 1.0:
        return Pareto(d._ql(lo), d.shape)
    if isinstance(d, Uniform):
        return Uniform(d._ql(lo), d.hi if hi == 1.0 else d._ql(hi))
    if isinstance(d, Empirical):
        w = np.clip(d._cumw, lo, hi) - np.clip(d._cumw0[:-1], lo, hi)
        keep = w > 0
        return Empirical(d.values[keep], w[keep] / (hi - lo))
    us = np.concatenate(([1e-9] if lo else [], _midpoints(grid_n), [1.0 - 1e-9] if hi < 1.0 else []))
    xs = np.maximum.accumulate(_grid_points((d,), lo + (hi - lo) * us)[0])
    end = float(d.quantile_left(lo or hi))  # F^{-1} at the inner end, p
    if math.isfinite(end):
        xs = np.maximum(xs, end) if lo else np.minimum(xs, end)
    return QuantileGrid(us, xs)


def upper_tail(d: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N) -> Dist:
    """Distribution of ``d`` conditioned above its ``p`` quantile.

    The result has CDF ``(F(x) - p)_+ / (1 - p)``, the law of
    ``F^{-1}(U)`` with ``U`` uniform on ``[p, 1]`` (``_window_law``). Pareto,
    uniform and empirical inputs map to exact closed forms; other kinds are
    tabulated on a quantile grid of size ``grid_n``. ``p = 0`` returns ``d``.
    """
    p = _check_level(p, name="tail level p", within="[0, 1)")
    grid_n = _check_count(grid_n, "grid size", 2)
    return d if p == 0.0 else _window_law(d, p, 1.0, grid_n)


def lower_tail(d: Dist, p: float, *, grid_n: int = DEFAULT_GRID_N) -> Dist:
    """Distribution of ``d`` conditioned below its ``p`` quantile.

    The result has CDF ``min(F(x), p) / p``, the law of ``F^{-1}(U)`` with
    ``U`` uniform on ``[0, p]``; ``p = 1`` returns ``d`` unchanged.
    """
    p = _check_level(p, name="tail level p", within="(0, 1]")
    grid_n = _check_count(grid_n, "grid size", 2)
    return d if p == 1.0 else _window_law(d, 0.0, p, grid_n)


class _Negated(Dist):
    """Law of ``-X`` for a continuous ``X ~ d``: CDF ``1 - F(-x)``, quantile ``-F^{-1}(1 - u)``."""

    def __init__(self, d: Dist):
        self.d = d
        self.support_lo, self.support_hi = -d.support_hi, -d.support_lo
        self._key = d._key and ("reflected", d._key)  # a reflected family shares its kernel

    def __repr__(self):
        return f"negate_dist({self.d!r})"

    def cdf(self, x):
        x, scalar = _points(x)
        return _as_output(1.0 - self.d.cdf(np.negative(x)), scalar)

    def _kernel(self, u):
        return self.d._kernel(1.0 - u)

    def _affine(self, k):
        return -self.d._affine(k)


def negate_dist(d: Dist) -> Dist:
    """Distribution of ``-X`` for ``X ~ d``, i.e. CDF ``1 - F(-t-)``.

    Exact for every kind. Normal, empirical and grid kinds map to their
    own closed forms; any other kind maps to its reflected law, whose
    left quantile at ``1 - u`` is ``-F^{-1}(u)`` to the last bit for
    ``u >= 1/2`` (a negated uniform's closed form is one rounding off).
    Negating a reflected law returns ``d``. An empirical law's reflection is
    built once and held by the law, so every call returns the one object
    and the reflected scans of ``bounds`` find its node grid in ``_per_pair``.
    DomainError unless ``d`` is a Dist.
    """
    if not isinstance(d, Dist):
        raise DomainError(f"negate_dist expects a Dist, not {d!r}")
    if isinstance(d, Normal):
        return Normal(-d.mean, d.sd)
    if isinstance(d, Empirical):
        if d._reflection is None:
            nd = Empirical(-d.values[::-1], d.weights[::-1])
            for arr in vars(nd).values():
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False  # shared by every caller
            d._reflection = nd
        return d._reflection
    if isinstance(d, QuantileGrid):
        return QuantileGrid(1.0 - d.us[::-1], -d.xs[::-1])
    if isinstance(d, _Negated):
        return d.d
    return _Negated(d)


def empirical_from_samples(values, weights=None) -> Empirical:
    """Build an :class:`Empirical` from raw draws, merging duplicate atoms (-0.0 and 0.0 into 0.0)."""
    values = _real_array(values, "samples").ravel()
    if values.size == 0:
        raise DomainError("no samples given")
    if not np.all(np.isfinite(values)):
        raise DomainError("samples must be finite")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = _real_array(weights, "weights").ravel()
        if weights.shape != values.shape:
            raise DomainError("weights must match samples")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise DomainError("weights must be positive and finite")
    uniq, inverse = np.unique(values + 0.0, return_inverse=True)  # -0.0 reads 0.0, whatever the order
    merged = np.bincount(inverse, weights=weights, minlength=uniq.size)
    return Empirical(uniq, merged)


# ---------------------------------------------------------------------------
# stochastic-order checks


class OrderCheckReport:
    """Outcome of a stochastic-order check on a merged evaluation grid."""

    __slots__ = ("holds", "max_violation", "witness", "grid_size")

    def __init__(self, holds, max_violation, witness, grid_size):
        self.holds = bool(holds)
        self.max_violation = float(max_violation)
        self.witness = float(witness)
        self.grid_size = int(grid_size)

    def __repr__(self):
        return (
            f"OrderCheckReport(holds={self.holds}, max_violation={self.max_violation:.3g}, "
            f"witness={self.witness:.6g}, grid_size={self.grid_size})"
        )


def _atom_points(d: Dist) -> np.ndarray:
    if isinstance(d, Empirical):
        return d.values
    if isinstance(d, QuantileGrid):
        return d.xs
    return np.empty(0)


_TAIL_LEVELS = 1.0 - 0.5 ** np.arange(1, 61)


@lru_cache(maxsize=8, typed=True)
def _scan_levels(grid_size: int, tail: bool) -> np.ndarray:
    """Ascending levels u of ``_merged_grid`` (tail levels among the midpoints), read-only, built once per key."""
    us = _midpoints(_check_count(grid_size, "grid size", 2))
    if tail:
        us = np.sort(np.concatenate((us, _TAIL_LEVELS)))
    us.flags.writeable = False
    return us


def _merged_grid(laws, grid_size: int, p: float = 0.0, tail: bool = False) -> np.ndarray:
    """Finite quantiles of each law at levels p and p + (1 - p) u, its atoms and upper end.

    ``u`` are the midpoints, which stay inside ``[1 - DEFAULT_TRUNC, DEFAULT_TRUNC]`` up to
    500,000 nodes, and, with ``tail``, the levels 1 - 2^-k, k = 1..60, which reach the
    tail's far end. The levels lie in [0, 1], so the quantiles are read without validation.
    An ``Empirical`` law's quantiles are its atoms, so it adds only its atoms and upper
    end, and the grid of step laws is the same array for every p, size and tail flag.
    The array is ``np.unique`` of its reads, to the bit, with -0.0 read as 0.0: the sign is
    cleared in place first, so equal nodes are equal bytes. The levels ascend, so the reads are
    a few ascending runs, which a stable sort merges; a neighbour mask drops the repeats.
    """
    levels = _scan_levels(grid_size, tail)  # checks the grid size for every kind
    reads = [d for d in laws if not isinstance(d, Empirical)]
    us = np.concatenate(([p], p + (1.0 - p) * levels)) if reads else None
    ts = np.concatenate(_quantiles(reads, us) + [_atom_points(d) for d in laws] + [[d.support_hi for d in laws]])
    np.add(ts, 0.0, out=ts)  # -0.0 + 0.0 is 0.0; every other value stays
    ts.sort(kind="stable")  # infinities at the ends
    ts = ts[np.searchsorted(ts, -np.inf, "right") : np.searchsorted(ts, np.inf, "left")]
    keep = np.ones(ts.size, dtype=bool)
    np.not_equal(ts[1:], ts[:-1], out=keep[1:])
    return ts[keep]


class _PairMemo(OrderedDict):
    """``build(*args)`` once per key, the one memo of per-pair work (16 entries, LRU).

    Builders: the node grid ``_merged_grid`` (the order check's, and on a step pair
    the VaR and essential scans' grid of each law tuple, which no level changes), the
    order check ``check_st``, a window's ``coupling._window_means`` and a [0, q) window's
    ``bounds._sum_law``. Dist objects are immutable and hashed by identity, so the key holds
    the objects, not their parameters.
    The memo is typed: 100.0 is not the key 100, so it meets the count check of its build.
    Keyword arguments (a plan's edge table) go to the build on a miss, not into the key.
    Every array of a result is shared, so it is made read-only, a tuple's items too;
    a sum law makes each of its fields read-only when it sorts it, on first read.
    """

    maxsize, misses = 16, 0

    def __call__(self, build, *args, **given):
        key = (build, *args, *map(type, args))
        if key in self:
            self.move_to_end(key)
            return self[key]
        self.misses += 1
        out = self[key] = build(*args, **given)
        for arr in out if isinstance(out, tuple) else (out,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return out

    def cache_clear(self):
        self.clear()
        self.misses = 0


_per_pair = _PairMemo()


def _order_tol(tol) -> float:
    """``tol`` as a float; DomainError unless it is a finite real number >= 0 (no bool); None gives ROUNDING_TOL."""
    if tol is None:
        return ROUNDING_TOL
    # NaN fails the range test too
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise DomainError(f"tolerance tol must be a finite real number of at least 0: {tol!r}")
    return float(tol)


def check_st(
    f: Dist, g: Dist, grid_size: int = DEFAULT_SCAN_N, tol: float | None = None
) -> OrderCheckReport:
    """Check usual stochastic order ``F <= G`` (i.e. ``F(t) >= G(t)`` for all t).

    Evaluated on the union of both quantile grids and all atoms, the pair's
    node grid from ``_per_pair`` (at the default size, the nodes of the
    probability scans). The default tolerance is ``ROUNDING_TOL`` = 1e-9 for
    every kind: a rounding error, since step CDFs are exact at the atoms on the
    grid. The bounds read a level within it of an atom's cumulative weight as
    that weight, so an admitted pair's bounds nest.
    """
    ts = _per_pair(_merged_grid, (f, g), grid_size)
    tol = _order_tol(tol)
    d = f.cdf(ts) - g.cdf(ts)
    i = int(np.argmin(d))
    mv = max(0.0, float(-d[i]))
    return OrderCheckReport(mv <= tol, mv, ts[i], ts.size)


def check_ss(f: Dist, g: Dist, grid_size: int = DEFAULT_SCAN_N, tol: float | None = None) -> OrderCheckReport:
    """Check strong stochastic order: ``F - G`` nonincreasing above ``G``'s lower endpoint.

    Equivalent to ``G(y) - G(x) >= F(y) - F(x)`` for all
    ``y >= x >= G^{-1}(0)``. The reported violation is the largest
    positive increase of ``F - G`` along the merged grid; the default
    tolerance is ``1e-9`` for every kind, as in ``check_st``.
    """
    ts = _merged_grid((f, g), grid_size)
    tol = _order_tol(tol)
    lo = g.support_lo
    if math.isfinite(lo):
        ts = ts[ts >= lo]
        if ts.size == 0 or ts[0] > lo:
            ts = np.concatenate(([lo], ts))
    d = f.cdf(ts) - g.cdf(ts)
    inc = d - np.minimum.accumulate(d)
    j = int(np.argmax(inc))
    mv = max(0.0, float(inc[j]))
    return OrderCheckReport(mv <= tol, mv, ts[j], ts.size)


def isotonic_pair_projection(f_hat: Dist, g_hat: Dist, w_f: float = 1.0, w_g: float = 1.0):
    """Repair a CDF pair so that ``F(t) >= G(t)`` at every merged atom ``t``.

    At each atom where the estimates already satisfy ``F(t) >= G(t)``
    they are left untouched. At each atom where they cross, both are
    replaced by their weighted average ``(w_f F + w_g G) / (w_f + w_g)``,
    pooled at that point on its own. A running max then makes both
    curves nondecreasing again, and they are returned as a pair of
    empirical distributions on the merged atom grid. The result lies in
    the order cone, but it is not the weighted least-squares projection
    onto it, which would pool across neighbouring atoms as well.
    """
    w_f, w_g = _check_real(w_f, "weight w_f"), _check_real(w_g, "weight w_g")
    if not (0.0 < w_f < math.inf and 0.0 < w_g < math.inf):
        raise DomainError("projection weights must be positive and finite")
    if f_hat.kind not in ("empirical", "grid") or g_hat.kind not in ("empirical", "grid"):
        raise DomainError("projection expects empirical or grid inputs")
    ts = np.unique(np.concatenate([_atom_points(f_hat), _atom_points(g_hat)]) + 0.0)  # -0.0 reads 0.0
    fv, gv = f_hat.cdf(ts), g_hat.cdf(ts)
    pooled = (w_f * fv + w_g * gv) / (w_f + w_g)
    cross = fv < gv
    fs = np.where(cross, pooled, fv)
    gs = np.where(cross, pooled, gv)
    fs = np.clip(np.maximum.accumulate(fs), 0.0, 1.0)
    gs = np.clip(np.maximum.accumulate(gs), 0.0, 1.0)
    fs[-1] = 1.0
    gs[-1] = 1.0
    return _empirical_from_cdf(ts, fs), _empirical_from_cdf(ts, gs)


def _empirical_from_cdf(ts, cdf_vals):
    w = np.diff(np.concatenate(([0.0], cdf_vals)))
    keep = w > 0
    return Empirical(ts[keep], w[keep])


# ---------------------------------------------------------------------------
# tail risk measures


def _piecewise_anti(breaks, ql, qr):
    """Antiderivative of a quantile linear from ``ql[k]`` to ``qr[k]`` on level segment k."""
    width = np.diff(breaks)  # ends are halved before they are added: exact, and no overflow
    cum = np.concatenate(([0.0], np.cumsum((0.5 * ql + 0.5 * qr) * width)))
    safe = np.where(width > 0.0, width, 1.0)

    def anti(u):
        k = np.clip(np.searchsorted(breaks, u, side="right") - 1, 0, width.size - 1)
        t = u - breaks[k]
        qu = ql[k] + (qr[k] - ql[k]) * (t / safe[k])
        return cum[k] + (0.5 * ql[k] + 0.5 * qu) * t

    return anti


def _difference(a, b, pa, pb):
    return pb - pa


def _atom_index(d: Empirical, levels, strict: bool) -> np.ndarray:
    """Per ascending level, how many inner cumulative weights lie below it (``strict``, ``_ql``'s index) or
    at or below it (its level cell's): one search of the weights into the levels, then a count."""
    flat = np.reshape(levels, -1)
    pos = np.searchsorted(flat, d._cumw[:-1], side="right" if strict else "left")
    return np.cumsum(np.bincount(pos, minlength=flat.size + 1)[: flat.size]).reshape(np.shape(levels))


def _integral_parts(d: Dist):
    """``(piece, combine)`` with ``\\int_a^b F^{-1} = combine(a, b, piece(a), piece(b))``.

    The piece is the per-level part of each closed form, a function of its ``_key`` alone, so a
    partition evaluates it once per edge and key (``_cell_means``); it reads one level or ascending ones.
    An ``Empirical`` piece is cum[k] + v[k] (u - b[k]) on atom k's level cell, k by ``_atom_index``:
    the zero-slope ``_piecewise_anti`` to the bit (``v + 0.0`` reads -0.0 as its (v + qu) / 2 does).
    """
    if isinstance(d, Uniform):
        return (lambda u: u), (
            lambda a, b, pa, pb: (b - a) * (d.lo + 0.5 * (d.hi - d.lo) * (a + b))
        )
    if isinstance(d, Normal):
        ndtri = _special().ndtri
        return (lambda u: np.exp(-0.5 * ndtri(u) ** 2) / math.sqrt(2.0 * math.pi)), (
            lambda a, b, pa, pb: d.mean * (b - a) + d.sd * (pa - pb)
        )
    if isinstance(d, Pareto):
        if d.shape == 1.0:
            return (lambda u: 1.0 - u), (lambda a, b, pa, pb: d.scale * np.log(pa / pb))
        e = 1.0 - 1.0 / d.shape
        return (lambda u: (1.0 - u) ** e), (lambda a, b, pa, pb: d.scale * (pa - pb) / e)
    if isinstance(d, _Negated):
        piece, combine = _integral_parts(d.d)
        return (lambda u: piece(1.0 - u)), (
            lambda a, b, pa, pb: -combine(1.0 - b, 1.0 - a, pb, pa)
        )
    if isinstance(d, Empirical):
        b, v = d._cumw0, d.values
        cum, vz = np.concatenate(([0.0], np.cumsum(v * np.diff(b)))), v + 0.0
        at = lambda u, k: cum[k] + vz[k] * (u - b[k])
        return (lambda u: at(u, _atom_index(d, u, strict=False))), _difference
    if isinstance(d, QuantileGrid):
        # flat below us[0], linear between nodes, flat above us[-1]
        breaks = np.concatenate(([0.0], d.us, [1.0]))
        ql = np.concatenate(([d.xs[0]], d.xs))
        qr = np.concatenate(([d.xs[0]], d.xs[1:], [d.xs[-1]]))
        return _piecewise_anti(breaks, ql, qr), _difference
    raise DomainError(f"unsupported kind {d.kind!r}")


def _quantile_integral(d: Dist, a, b):
    """Exact ``\\int_a^b F^{-1}(u) du`` over the quantile representation, elementwise.

    ``inf`` where the integral diverges (a Pareto tail of shape <= 1 at
    ``b = 1``).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    piece, combine = _integral_parts(d)
    with np.errstate(divide="ignore"):
        return combine(a, b, piece(a), piece(b))


def _cell_edges(n: int, p: float = 0.0, q: float = 1.0) -> np.ndarray:
    """The n + 1 edges of the n equal level cells of [p, q): the one cell partition of means and plans."""
    edges = p + (q - p) * np.arange(n + 1) / n
    edges[-1] = q
    return edges


def _cell_means(laws, edges: np.ndarray) -> list:
    """Means of each law's ``F^{-1}`` over the level cells between consecutive ``edges``, ascending.

    The edges are those of ``_cell_edges``, built once per window for both laws;
    a diverging cell mean is ``inf``; an atom law finds each edge's cell by one count.
    The cell-mean law lies below ``F`` in convex order. The piece of
    ``_integral_parts`` is evaluated once on the edges for all laws of one kernel key, and
    neighbouring edges are combined, with the same bytes as
    ``_quantile_integral`` on the cell ends: numpy ufuncs on arrays round
    each element alike. ``es_eval`` and ``rvar_eval`` keep 0-d arrays,
    because ``power`` and ``exp`` on a 0-d array can differ in the last bit
    from the array loop, which would move the worst-ES digits.
    """
    parts, width = [(d._key or d, *_integral_parts(d)) for d in laws], np.diff(edges)
    with np.errstate(divide="ignore"):  # one piece read per kernel key, and per law without one
        pes = {key: piece(edges) for key, piece, _ in {part[0]: part for part in parts}.values()}
        return [combine(edges[:-1], edges[1:], pes[key][:-1], pes[key][1:]) / width for key, _, combine in parts]


def _cell_points(laws, edges: np.ndarray) -> list:
    """``_grid_points`` of each law at the cells' left ends between ``edges``, top cell first; atoms by one count."""
    reads = iter(_grid_points([d for d in laws if not isinstance(d, Empirical)], edges[-2::-1]))
    steps = lambda d: d.values[_atom_index(d, edges[:-1], strict=True)[::-1]]
    return [steps(d) if isinstance(d, Empirical) else next(reads) for d in laws]


def es_eval(d: Dist, p: float) -> float:
    """Expected shortfall at level ``p``: the mean of the upper ``p`` tail.

    Returns ``inf`` explicitly when the tail mean diverges.
    """
    p = _check_level(p)
    return float(_quantile_integral(d, p, 1.0)) / (1.0 - p)


def rvar_eval(d: Dist, p: float, q: float) -> float:
    """Range value-at-risk: the average of the quantile over ``[p, q]``."""
    p, q = _check_level(p, q, name="rvar levels", within="[0, 1)")
    return float(_quantile_integral(d, p, q)) / (q - p)


# ---------------------------------------------------------------------------
# file formats


def read_empirical_csv(path) -> Empirical:
    """Read observations from a CSV with header ``value`` or ``value,weight``; DomainError on a bad row."""
    values, weights = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip().lower() != "value":
            raise DomainError(f"{path}: expected header 'value[,weight]'")
        has_w = len(header) > 1 and header[1].strip().lower() == "weight"
        for row in reader:
            if not row:
                continue
            try:
                values.append(float(row[0]))
                weights.append(float(row[1]) if has_w else 1.0)
            except (ValueError, IndexError):
                raise DomainError(f"{path}, line {reader.line_num}: bad row {row!r}") from None
    return empirical_from_samples(np.asarray(values), np.asarray(weights))


_WORD = np.dtype("<u8")  # tables are built from fixed-width cells of 8-byte words, NUL-padded
_BLOCK_ROWS = 4096


def _write_table(path, header, columns) -> None:
    """Write a CSV: the ``header`` cells, then row k of each of the equal-length ``columns``.

    Columns of str cells only, such as the CLI's tables of a few rows, are
    joined as they are: building their words costs more than the cells. Else
    a float array's cells are ``'%.12g' % x``, from ``_g12.format_g12``, and
    any other column is cast to numpy bytes cells (str as it is, integers as
    ``%d``); rows are built ``_BLOCK_ROWS`` at a time as NUL-padded words,
    one ``write`` per block. The bytes are ``csv.writer``'s (``\\r\\n`` line
    ends): no output cell needs quoting, as cells are numbers, ``inf``/``nan``,
    empty or plain tags.
    """
    head = ",".join(header).encode() + b"\r\n"
    if not any(isinstance(col, np.ndarray) for col in columns):
        with open(path, "wb") as fh:
            fh.write(head + "".join(",".join(row) + "\r\n" for row in zip(*columns)).encode())
        return
    cols, spans = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            cols.append(col.astype(float, copy=False))
            spans.append(3)
        else:
            cells = np.array(col, dtype="S")
            span = (cells.itemsize + 9) // 8  # two bytes left for the separator
            cols.append(cells.astype(f"S{8 * span}").view(_WORD).reshape(-1, span))
            spans.append(span)
    ends = np.cumsum(spans)
    sep = np.zeros(ends[-1], _WORD)
    sep[ends - 1] = ord(",") << 56
    sep[-1] = (ord("\r") << 48) | (ord("\n") << 56)
    rows = len(cols[0])
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            block = np.empty((stop - start, ends[-1]), _WORD)
            for col, end, span in zip(cols, ends, spans):
                if col.ndim == 1:
                    from ._g12 import format_g12  # imported by the first float column only

                    format_g12(col[start:stop], block[:, end - span : end])
                else:
                    block[:, end - span : end] = col[start:stop]
            block |= sep
            fh.write(block.tobytes().translate(None, b"\0"))
