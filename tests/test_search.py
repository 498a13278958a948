"""Batched scan-and-refine minimisation."""

import math

import numpy as np
import pytest

from ordrisk._search import refine_max, refine_min


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


def test_refinement_points_are_linspace_to_the_bit():
    # each round evaluates lo + width * k/32 with the last point set to hi;
    # dividing by 32 is exact, so these are np.linspace(lo, hi, 33) bit for bit
    rng = np.random.default_rng(11)
    for _ in range(200):
        centre = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-6, 7)
        half = 10.0 ** rng.uniform(-9, 4) * max(1.0, abs(centre))  # resolvable at float precision
        c = centre + rng.uniform(-half, half)
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.abs(x - c)

        xs = np.linspace(centre - half, centre + half, 9)
        refine_min(f, xs, f(xs), tol=1e-9 * half)
        rounds = seen[1:]
        assert rounds
        for ts in rounds:
            assert ts.shape == (33,)
            assert np.array_equal(ts, np.linspace(ts[0], ts[-1], 33))
