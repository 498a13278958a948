"""Batched scan-and-refine minimisation and the bracketed curve inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordrisk._search import invert_nondecreasing, refine_max, refine_min

finite = dict(allow_nan=False, allow_infinity=False)


def _scan(f, a, b, n=64):
    xs = np.linspace(a, b, n + 1)
    return xs, f(xs)


@pytest.mark.parametrize("c", [0.123456789, 0.5, 0.9999, math.pi / 4])
def test_kinked_minimum_within_tol(c):
    f = lambda x: np.abs(x - c)
    xs, vals = _scan(f, 0.0, 1.0)
    tol = 1e-10
    got = refine_min(f, xs, vals, tol=tol)
    assert 0.0 <= got <= tol
    assert got <= vals.min()


def test_all_inf_scan_returns_inf():
    f = lambda x: np.full(np.shape(x), np.inf)
    xs = np.linspace(0.0, 1.0, 9)
    assert refine_min(f, xs, f(xs)) == math.inf
    assert refine_max(lambda x: -f(x), xs, -f(xs)) == -math.inf


def test_nan_counts_as_inf():
    # NaN left of 0.3: the minimum is taken over the rest
    f = lambda x: np.where(x < 0.3, np.nan, (x - 0.6) ** 2)
    xs, vals = _scan(f, 0.0, 1.0)
    got = refine_min(f, xs, vals, tol=1e-12)
    assert not math.isnan(got)
    assert got <= 1e-20
    only_nan = lambda x: np.full(np.shape(x), np.nan)
    assert refine_min(only_nan, xs, only_nan(xs)) == math.inf


def test_infinite_bracket_end_returns_scanned_best():
    calls = []

    def f(x):
        calls.append(x)
        return np.zeros(np.shape(x))

    xs = np.array([-np.inf, 0.0, 1.0])
    vals = np.array([-1.0, 0.0, 0.0])
    assert refine_min(f, xs, vals) == -1.0
    assert not calls


def test_zero_tol_terminates():
    f = lambda x: (x - 1.0 / 3.0) ** 2
    xs, vals = _scan(f, 0.0, 1.0)
    got = refine_min(f, xs, vals, tol=0.0)
    assert 0.0 <= got <= 1e-30


def test_never_above_scanned_best():
    # the scan hits a spike that no refinement point lands on
    f = lambda x: np.where(x == 0.1, -1.0, np.abs(x - 0.25))
    xs = np.array([0.0, 0.1, 1.0])
    assert refine_min(f, xs, f(xs)) == -1.0


@pytest.mark.parametrize("c", [0.2, 0.77])
def test_refine_max_mirrors_refine_min(c):
    f = lambda x: np.abs(x - c)
    xs, vals = _scan(f, 0.0, 1.0)
    lo = refine_min(f, xs, vals, tol=1e-9)
    hi = refine_max(lambda x: -f(x), xs, -vals, tol=1e-9)
    assert hi == -lo


# ---------------------------------------------------------------------------
# inversion of a nondecreasing curve on (0, 1)


@st.composite
def _step_curves(draw):
    # flats and jumps; t is one of the flat values or falls in a jump
    breaks = sorted(draw(st.lists(st.floats(1e-9, 1.0 - 1e-9, **finite), min_size=1, max_size=6)))
    values = np.cumsum(draw(st.lists(st.floats(0.0, 10.0, **finite), min_size=len(breaks) + 1, max_size=len(breaks) + 1)))
    side = draw(st.sampled_from(["left", "right"]))
    fn = lambda p: float(values[np.searchsorted(breaks, p, side=side)])
    t = draw(st.one_of(st.sampled_from(list(values)), st.floats(-1.0, float(values[-1]) + 1.0, **finite)))
    return fn, t


@st.composite
def _heavy_tails(draw):
    # c / (1 - p)^a, optionally +inf from some level on
    c, a = draw(st.floats(1e-3, 1e3, **finite)), draw(st.floats(0.1, 3.0, **finite))
    top = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0 - 1e-9, **finite)))
    fn = lambda p: math.inf if p >= top else c / (1.0 - p) ** a
    t = c * draw(st.floats(0.5, 1e9, **finite))
    return fn, t


@st.composite
def _log_odds(draw):
    # scale log(p / (1 - p)) with t near 0, so the crossing sits near p = 1/2
    scale = draw(st.floats(1e-8, 1e3, **finite))
    fn = lambda p: scale * math.log(p / (1.0 - p))
    return fn, scale * draw(st.floats(-3.0, 3.0, **finite))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_step_curves(), _heavy_tails(), _log_odds()))
def test_invert_nondecreasing_brackets_crossing(curve):
    fn, t = curve
    calls = []
    r = invert_nondecreasing(lambda p: calls.append(p) or fn(p), t)
    assert len(calls) <= 2 + 2 * 20
    assert (r == 0.0) == (fn(1e-9) > t)
    assert (r == 1.0) == (fn(1e-9) <= t and fn(1.0 - 1e-9) <= t)
    if 5e-7 < r < 1.0 - 5e-7:
        assert fn(r - 5e-7) <= t < fn(r + 5e-7)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
def test_invert_nondecreasing_first_step_is_bracket_secant(t):
    # exact on a line: the first evaluation inside the bracket is the crossing
    calls = []
    r = invert_nondecreasing(lambda p: calls.append(p) or 2.0 * p - 1.0, 2.0 * t - 1.0)
    assert calls[2] == pytest.approx(t, abs=1e-12)
    assert abs(r - t) <= 5e-7
