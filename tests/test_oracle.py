"""Second-route verification oracles."""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrisk.bounds import worst_es_constrained, worst_var_unconstrained
from ordrisk.coupling import SampleBatch, sample_coupling
from ordrisk.dist import Pareto, Uniform
from ordrisk.errors import DomainError
from ordrisk.oracle import (
    comonotone_es,
    conditional_tail_ss_check,
    grid_convergence,
    ra_unconstrained_var,
    stop_loss_curve,
    write_stop_loss_csv,
)

PF = Pareto(1.0, 1.0)
PG = Pareto(2.0, 1.0)


def test_ra_pareto_closed_form():
    got = ra_unconstrained_var(PF, PG, 0.5, 20_000)
    assert_allclose(got, 6.0 + 4.0 * math.sqrt(2.0), atol=3e-3)


def test_ra_matches_scan_route_uniforms():
    f, g = Uniform(0, 100), Uniform(0, 160)
    n = 20_000
    for p in (0.9, 0.95):
        ra = ra_unconstrained_var(f, g, p, n)
        scan = worst_var_unconstrained(f, g, p)
        spread = (f.quantile_left(1.0 - 1e-9) - f.quantile_left(p)) + (
            g.quantile_left(1.0 - 1e-9) - g.quantile_left(p)
        )
        assert abs(ra - scan) <= 2.0 * spread / n


def test_ra_validation():
    with pytest.raises(DomainError):
        ra_unconstrained_var(PF, PG, 1.0, 100)
    with pytest.raises(DomainError):
        ra_unconstrained_var(PF, PG, 0.5, 1)


def test_stop_loss_hand_values():
    batch = SampleBatch(
        coupling_kind="comonotone",
        x=np.array([0.0, 1.0]),
        y=np.array([1.0, 2.0]),
        seed=0,
        size=2,
    )
    curve = stop_loss_curve(batch, [0.0, 2.0])
    # sums are 1 and 3
    assert_allclose(curve.values, [2.0, 0.5])
    assert_allclose(curve.stderr[1], 0.5)
    assert_allclose(curve.mean, 2.0)
    assert_allclose(curve.mean_se, 1.0)
    assert "points=2" in repr(curve)


def test_stop_loss_empty_batch():
    batch = SampleBatch(
        coupling_kind="dl", x=np.array([]), y=np.array([]), seed=0, size=0
    )
    with pytest.raises(DomainError, match="empty batch"):
        stop_loss_curve(batch, [0.0])


def test_stop_loss_csv(tmp_path):
    batch = sample_coupling(Uniform(0, 1), Uniform(0, 2), "comonotone", 500, 7)
    curve = stop_loss_curve(batch, np.linspace(0.0, 3.0, 5))
    path = tmp_path / "sl.csv"
    write_stop_loss_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "value", "stderr"]
    assert len(rows) == 6
    assert_allclose(float(rows[1][1]), curve.values[0], rtol=1e-10)


def test_stop_loss_monotone_decreasing():
    batch = sample_coupling(PF, PG, "dl", 2000, 11)
    curve = stop_loss_curve(batch, np.linspace(3.0, 30.0, 10))
    assert np.all(np.diff(curve.values) <= 1e-12)
    assert np.all(curve.stderr >= 0.0)


def test_grid_convergence_arithmetic():
    # fn(level, n) = level / n gives differences level / (2 n)
    fn = lambda level, n: level / n
    assert_allclose(grid_convergence(fn, [1.0, 2.0, 4.0], 8), 0.25)


def test_grid_convergence_halves_for_linear_error():
    fn = lambda level, n: level + 1.0 / n
    d1 = grid_convergence(fn, [0.0], 100)
    d2 = grid_convergence(fn, [0.0], 200)
    assert_allclose(d2 / d1, 0.5)


def test_conditional_tail_check_passes_on_true_tail():
    rng = np.random.default_rng(5)
    samples = PF.quantile_left(rng.uniform(size=10_000))
    k = math.ceil(0.1 * samples.size)
    mask = np.zeros(samples.size, dtype=bool)
    mask[np.argsort(samples)[-k:]] = True
    report = conditional_tail_ss_check(samples, mask, 0.9)
    assert report.holds


def test_conditional_tail_check_random_masks_hold():
    rng = np.random.default_rng(6)
    samples = PF.quantile_left(rng.uniform(size=5000))
    k = math.ceil(0.1 * samples.size)
    for _ in range(5):
        mask = np.zeros(samples.size, dtype=bool)
        mask[rng.choice(samples.size, size=k, replace=False)] = True
        report = conditional_tail_ss_check(samples, mask, 0.9)
        assert report.holds, report


def test_conditional_tail_check_mask_size():
    samples = np.arange(100, dtype=float)
    mask = np.zeros(100, dtype=bool)
    mask[:9] = True
    with pytest.raises(DomainError, match="needs exactly 10"):
        conditional_tail_ss_check(samples, mask, 0.9)
    with pytest.raises(DomainError, match="match samples"):
        conditional_tail_ss_check(samples, mask[:50], 0.9)


def test_comonotone_es_uniforms_exact():
    f, g = Uniform(0, 100), Uniform(0, 120)
    got = comonotone_es(f, g, 0.9)
    assert_allclose(got, worst_es_constrained(f, g, 0.9), rtol=1e-12)


def test_comonotone_es_pareto_quadrature():
    f, g = Pareto(25.0, 2.0), Pareto(30.0, 2.0)
    got = comonotone_es(f, g, 0.9, grid_n=200_000)
    exact = worst_es_constrained(f, g, 0.9)
    assert_allclose(got, exact, rtol=5e-3)


def test_comonotone_es_validation():
    with pytest.raises(DomainError):
        comonotone_es(PF, PG, 0.0)
