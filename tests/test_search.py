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


def _random_row(rng):
    """A kinked objective on a scan resolvable at float precision, with its scan and tol."""
    centre = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-6, 7)
    half = 10.0 ** rng.uniform(-9, 4) * max(1.0, abs(centre))
    c = centre + rng.uniform(-half, half)
    xs = np.linspace(centre - half, centre + half, 9)
    return (lambda x: np.abs(x - c)), xs, 1e-9 * half


def _assert_linspace(ts):
    assert ts.shape == (33,)
    assert np.array_equal(ts, np.linspace(ts[0], ts[-1], 33))


def test_refinement_points_are_linspace_to_the_bit():
    # each round evaluates lo + width * k/32 with the last point set to hi;
    # dividing by 32 is exact, so these are np.linspace(lo, hi, 33) bit for bit
    rng = np.random.default_rng(11)
    for _ in range(200):
        fn, xs, tol = _random_row(rng)
        seen = []

        def f(x):
            seen.append(np.array(x))
            return fn(x)

        refine_min(f, xs, fn(xs), tol=tol)
        assert seen
        for ts in seen:
            _assert_linspace(ts)


def test_lockstep_points_are_linspace_to_the_bit():
    # a k-row call hands each row still refining its own 33 points, linspace to the bit
    rng = np.random.default_rng(12)
    for _ in range(50):
        rows = [_random_row(rng) for _ in range(3)]
        seen = []

        def f(pts):
            seen.append([None if p is None else np.array(p) for p in pts])
            return [None if p is None else fn(p) for (fn, _, _), p in zip(rows, pts)]

        refine_min(f, [xs for _, xs, _ in rows], [fn(xs) for fn, xs, _ in rows], tol=min(tol for *_, tol in rows))
        assert seen
        for pts in seen:
            assert len(pts) == 3
            for ts in pts:
                if ts is not None:
                    _assert_linspace(ts)


def _ulps(x, k):
    """k + 1 consecutive floats from x upwards."""
    out = [x]
    for _ in range(k):
        out.append(float(np.nextafter(out[-1], math.inf)))
    return np.array(out)


# (objective, scan points): rows for the lockstep tests, each refined alone and together
_LOCKSTEP_ROWS = {
    "kink": (lambda x: np.abs(x - 0.123456789), np.linspace(0.0, 1.0, 65)),
    "narrow": (lambda x: (x - 3e-10) ** 2, np.linspace(0.0, 1e-9, 5)),  # done in a round or two
    "infinite-start": (lambda x: np.zeros(np.shape(x)), np.array([-np.inf, 0.0, 1.0])),
    # a bracket two floats wide: 33 points cannot narrow it, so it stops after one round
    "no-shrink": (lambda x: np.abs(x - 1e6), _ulps(1e6, 2)),
    "nan-left": (lambda x: np.where(x < 0.3, np.nan, (x - 0.6) ** 2), np.linspace(0.0, 1.0, 65)),
    "all-nan": (lambda x: np.full(np.shape(x), np.nan), np.linspace(0.0, 1.0, 9)),
    "spike": (lambda x: np.where(x == 0.1, -1.0, np.abs(x - 0.25)), np.array([0.0, 0.1, 1.0])),
}
_START = {"infinite-start": np.array([-1.0, 0.0, 0.0])}  # scanned values where they are not f(xs)


def _traced_rows(names):
    """Per-row objectives that record the points each round hands them."""
    seen = {name: [] for name in names}

    def call(name, x):
        seen[name].append(np.array(x))
        return _LOCKSTEP_ROWS[name][0](x)

    return seen, call


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_lockstep_rows_match_one_row_calls_to_the_bit(tol):
    names = sorted(_LOCKSTEP_ROWS)
    xs = [_LOCKSTEP_ROWS[name][1] for name in names]
    vals = [_START.get(name, _LOCKSTEP_ROWS[name][0](x)) for name, x in zip(names, xs)]
    alone_seen, alone_call = _traced_rows(names)
    alone = [refine_min(lambda x, n=n: alone_call(n, x), x, v, tol=tol) for n, x, v in zip(names, xs, vals)]
    seen, call = _traced_rows(names)
    rounds = []

    def f(pts):
        rounds.append([p is not None for p in pts])
        return [None if p is None else call(n, p) for n, p in zip(names, pts)]

    together = refine_min(f, xs, vals, tol=tol)
    assert [v.hex() for v in together] == [v.hex() for v in alone]
    for name in names:  # the same rounds and points as alone
        assert len(seen[name]) == len(alone_seen[name]), name
        for got, want in zip(seen[name], alone_seen[name]):
            assert np.array_equal(got, want), name
    per_row = dict(zip(names, map(sum, zip(*rounds))))
    assert per_row["infinite-start"] == per_row["all-nan"] == 0  # never refined
    assert per_row["no-shrink"] == 1
    assert together[names.index("infinite-start")] == -1.0
    assert together[names.index("all-nan")] == math.inf
    assert together[names.index("spike")] == -1.0
    assert len(set(per_row.values()) - {0}) >= 3  # rows finish in different rounds
    assert max(per_row.values()) == len(rounds)
