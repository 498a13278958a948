"""Distribution kinds, tails, order checks and integral evaluators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtri

from ordrisk.dist import (
    DEFAULT_TRUNC,
    Empirical,
    Normal,
    Pareto,
    QuantileGrid,
    Uniform,
    _cell_means,
    check_ss,
    check_st,
    empirical_from_samples,
    es_eval,
    isotonic_pair_projection,
    lower_tail,
    negate_dist,
    read_empirical_csv,
    rvar_eval,
    to_grid,
    upper_tail,
    write_grid_csv,
)
from ordrisk.errors import DomainError

finite = dict(allow_nan=False, allow_infinity=False)

scales = st.floats(0.1, 50.0, **finite)
shapes = st.floats(0.3, 6.0, **finite)
levels_open = st.floats(1e-6, 1.0 - 1e-6, **finite)


# ---------------------------------------------------------------------------
# parametric kinds


@given(scales, shapes, levels_open)
def test_pareto_quantile_roundtrip(scale, shape, u):
    d = Pareto(scale, shape)
    x = d.quantile_left(u)
    assert_allclose(d.cdf(x), u, rtol=1e-9, atol=1e-12)


def test_pareto_cdf_values():
    d = Pareto(2.0, 3.0)
    assert d.cdf(1.0) == 0.0
    assert d.cdf(2.0) == 0.0
    assert_allclose(d.cdf(4.0), 0.875)
    assert_allclose(d.quantile_left(0.875), 4.0)
    assert math.isinf(d.quantile_left(1.0))
    assert d.support_lo == 2.0


def test_pareto_validation():
    with pytest.raises(DomainError):
        Pareto(0.0, 1.0)
    with pytest.raises(DomainError):
        Pareto(1.0, -2.0)


@given(st.floats(-20, 20, **finite), st.floats(0.1, 30, **finite), levels_open)
def test_uniform_quantile_roundtrip(lo, width, u):
    d = Uniform(lo, lo + width)
    assert_allclose(d.cdf(d.quantile_left(u)), u, atol=1e-9)


def test_uniform_validation():
    with pytest.raises(DomainError):
        Uniform(1.0, 1.0)


def test_normal_matches_ndtri():
    d = Normal(1.0, 2.0)
    for u in (0.01, 0.3, 0.5, 0.9, 0.999):
        assert_allclose(d.quantile_left(u), 1.0 + 2.0 * ndtri(u), rtol=1e-12)
    assert math.isinf(d.quantile_left(0.0))
    assert d.quantile_left(0.0) < 0


def test_quantile_level_validation():
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile_left(1.5)
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile_left(-0.1)


# ---------------------------------------------------------------------------
# empirical and grid kinds


def test_empirical_step_semantics():
    d = Empirical([1.0, 2.0, 5.0], [0.5, 0.25, 0.25])
    assert d.cdf(0.999) == 0.0
    assert d.cdf(1.0) == 0.5
    assert d.cdf(1.99) == 0.5
    assert d.cdf(2.0) == 0.75
    assert d.cdf(5.0) == 1.0
    assert d.quantile_left(0.5) == 1.0
    assert d.quantile_right(0.5) == 2.0
    assert d.quantile_left(0.75) == 2.0
    assert d.quantile_right(0.75) == 5.0
    assert d.quantile_left(0.0) == 1.0
    assert d.quantile_right(1.0) == 5.0


def test_empirical_from_samples_merges():
    d = empirical_from_samples([3.0, 1.0, 3.0, 1.0, 1.0])
    assert_allclose(d.values, [1.0, 3.0])
    assert_allclose(d.weights, [0.6, 0.4])
    assert_allclose(d.weights.sum(), 1.0)


def test_empirical_validation():
    with pytest.raises(DomainError):
        Empirical([2.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        Empirical([1.0, 2.0], [0.5, -0.5])
    with pytest.raises(DomainError):
        empirical_from_samples([])


def test_quantile_grid_atom():
    g = QuantileGrid(np.array([0.2, 0.5, 0.8]), np.array([0.0, 1.0, 1.0]))
    # linear in x between the first two nodes
    assert_allclose(g.cdf(0.5), 0.35)
    # flat quantile segment is an atom: all its mass sits at x = 1
    assert g.cdf(1.0) == 1.0
    assert g.cdf(0.9999) < 0.8
    assert g.quantile_left(0.6) == 1.0
    assert g.support_lo == 0.0 and g.support_hi == 1.0


def test_quantile_grid_validation():
    with pytest.raises(DomainError):
        QuantileGrid(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        QuantileGrid(np.array([0.2, 0.8]), np.array([1.0, 0.0]))


@given(st.integers(200, 2000))
def test_to_grid_matches_source_quantiles(n):
    d = Uniform(-1.0, 3.0)
    g = to_grid(d, n)
    us = (np.arange(n) + 0.5) / n
    assert_allclose(g.quantile_left(us), d.quantile_left(us), atol=1e-9)


def test_to_grid_validation():
    with pytest.raises(DomainError):
        to_grid(Uniform(0, 1), 1)
    with pytest.raises(DomainError):
        to_grid(Uniform(0, 1), 100, trunc=0.4)


# ---------------------------------------------------------------------------
# tails


@given(levels_open, st.floats(0.25, 60.0, **finite))
def test_upper_tail_cdf_identity_pareto(p, x):
    d = Pareto(1.0, 1.5)
    t = upper_tail(d, p)
    expect = max(d.cdf(x) - p, 0.0) / (1.0 - p)
    assert_allclose(t.cdf(x), expect, atol=1e-12)


@given(levels_open, st.floats(-0.5, 2.0, **finite))
def test_upper_tail_cdf_identity_uniform(p, x):
    d = Uniform(0.0, 1.5)
    t = upper_tail(d, p)
    expect = max(d.cdf(x) - p, 0.0) / (1.0 - p)
    assert_allclose(t.cdf(x), expect, atol=1e-12)


@given(levels_open, st.floats(-0.5, 2.0, **finite))
def test_lower_tail_cdf_identity_uniform(p, x):
    d = Uniform(0.0, 1.5)
    t = lower_tail(d, p)
    expect = min(d.cdf(x), p) / p
    assert_allclose(t.cdf(x), expect, atol=1e-12)


def test_upper_tail_pareto_is_pareto():
    t = upper_tail(Pareto(1.0, 1.0), 0.5)
    assert isinstance(t, Pareto)
    assert_allclose(t.scale, 2.0)


def test_tail_grid_route_pins_endpoints():
    # normal has no closed tail; the grid must still start at F^{-1}(p)
    d = Normal(0.0, 1.0)
    p = 0.9
    t = upper_tail(d, p)
    assert_allclose(t.quantile_left(0.0), d.quantile_left(p), atol=1e-6)
    lt = lower_tail(Pareto(1.0, 1.0), p)
    assert_allclose(lt.support_hi, 1.0 / (1.0 - p), rtol=1e-6)


def test_tail_identity_levels():
    assert upper_tail(Uniform(0, 1), 0.0) is not None
    assert upper_tail(Uniform(0, 1), 0.0).cdf(0.5) == 0.5
    assert lower_tail(Uniform(0, 1), 1.0).cdf(0.5) == 0.5
    with pytest.raises(DomainError):
        upper_tail(Uniform(0, 1), 1.0)
    with pytest.raises(DomainError):
        lower_tail(Uniform(0, 1), 0.0)


def test_empirical_tail_reweights_boundary_atom():
    d = Empirical([1.0, 2.0, 3.0, 4.0], [0.25, 0.25, 0.25, 0.25])
    t = upper_tail(d, 0.375)
    # the atom at 2 straddles the cut: keeps half of its mass
    assert_allclose(t.values, [2.0, 3.0, 4.0])
    assert_allclose(t.weights, [0.2, 0.4, 0.4])


# ---------------------------------------------------------------------------
# negation


@given(levels_open)
def test_negate_involution_uniform(u):
    d = Uniform(-2.0, 5.0)
    dd = negate_dist(negate_dist(d))
    assert_allclose(dd.quantile_left(u), d.quantile_left(u), atol=1e-12)


@given(levels_open)
def test_negate_reflects_quantiles(u):
    for d in (Normal(1.0, 0.5), Pareto(1.0, 2.0)):
        nd = negate_dist(d)
        assert_allclose(nd.quantile_left(u), -d.quantile_right(1.0 - u), atol=1e-12)


def test_negate_empirical():
    d = Empirical([1.0, 3.0], [0.25, 0.75])
    nd = negate_dist(d)
    assert_allclose(nd.values, [-3.0, -1.0])
    assert_allclose(nd.weights, [0.75, 0.25])


def test_negate_pareto_cdf():
    d = Pareto(1.0, 1.0)
    nd = negate_dist(d)
    for t in (-8.0, -2.0, -1.25):
        assert_allclose(nd.cdf(t), 1.0 - d.cdf(-t), atol=1e-6)


def test_negate_pareto_exact():
    d = Pareto(1.0, 2.0)
    nd = negate_dist(d)
    assert (nd.support_lo, nd.support_hi) == (-math.inf, -1.0)
    assert negate_dist(nd) is d
    # the integral evaluators reflect exactly, with no grid detour
    assert_allclose(rvar_eval(nd, 0.2, 0.6), -rvar_eval(d, 0.4, 0.8), rtol=1e-12)
    assert_allclose(es_eval(nd, 0.5), -rvar_eval(d, 0.0, 0.5), rtol=1e-12)


# ---------------------------------------------------------------------------
# integral evaluators


def test_es_closed_forms():
    assert_allclose(es_eval(Uniform(2, 6), 0.75), 5.5)
    assert_allclose(es_eval(Pareto(2.0, 3.0), 0.875), 6.0)
    assert math.isinf(es_eval(Pareto(1.0, 1.0), 0.5))
    assert math.isinf(es_eval(Pareto(1.0, 0.7), 0.9))
    z = ndtri(0.95)
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    assert_allclose(es_eval(Normal(1.0, 2.0), 0.95), 1.0 + 2.0 * phi / 0.05, rtol=1e-10)


@given(st.floats(0.05, 0.9, **finite))
def test_es_matches_quadrature(p):
    d = Normal(0.0, 1.0)
    us = np.linspace(p, 1.0 - 1e-7, 20001)
    ref = np.trapezoid(d.quantile_left(us), us) / (1.0 - p)
    assert_allclose(es_eval(d, p), ref, rtol=1e-3)


def test_rvar_values():
    assert_allclose(rvar_eval(Uniform(0, 1), 0.25, 0.75), 0.5)
    assert_allclose(rvar_eval(Uniform(2, 6), 0.25, 0.75), 4.0)
    with pytest.raises(DomainError):
        rvar_eval(Uniform(0, 1), 0.75, 0.25)
    with pytest.raises(DomainError):
        rvar_eval(Uniform(0, 1), 0.5, 1.0)


def test_es_on_grid_kind():
    g = to_grid(Uniform(0.0, 1.0), 2000)
    assert_allclose(es_eval(g, 0.75), 0.875, atol=1e-3)


CELL_LAWS = {
    "uniform": Uniform(2, 6),
    "normal": Normal(1, 2),
    "pareto": Pareto(25, 2),
    "pareto_negated": negate_dist(Pareto(25, 2)),
    "empirical": Empirical([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.2, 0.3]),
    "grid": QuantileGrid([0.2, 0.5, 0.8], [0.0, 1.0, 1.5]),
}


@pytest.mark.parametrize("window", [(0.0, 1.0), (0.3, 0.9)], ids=["whole", "window"])
@pytest.mark.parametrize("name", sorted(CELL_LAWS))
def test_cell_means_match_quadrature(name, window):
    # each cell's mean of F^{-1}, by adaptive quadrature that is told
    # where the atoms and grid nodes are
    d, (p, q), n = CELL_LAWS[name], window, 7
    breaks = getattr(d, "_cumw", getattr(d, "us", []))
    edges = np.linspace(p, q, n + 1)
    ref = []
    for a, b in zip(edges[:-1], edges[1:]):
        pts = [u for u in breaks if a < u < b]
        val, _ = quad(lambda u: float(d.quantile_left(u)), a, b, points=pts or None, limit=200)
        ref.append(val / (b - a))
    assert_allclose(_cell_means(d, n, p, q), ref, rtol=1e-9, atol=1e-12)


def test_cell_means_heavy_tail():
    # shape <= 1: only the top cell of the whole range has an infinite mean
    for d in (Pareto(1.0, 1.0), Pareto(2.0, 0.7)):
        means = _cell_means(d, 1000)
        assert means[-1] == math.inf
        assert np.all(np.isfinite(means[:-1])) and np.all(np.diff(means) > 0)
        assert np.all(np.isfinite(_cell_means(d, 1000, 0.0, 0.999)))


# ---------------------------------------------------------------------------
# stochastic order checks


def test_check_st_known_pairs():
    assert check_st(Uniform(0, 1), Uniform(0, 1.5)).holds
    rep = check_st(Uniform(0, 1.5), Uniform(0, 1))
    assert not rep.holds
    assert rep.max_violation > 0.2
    assert rep.witness is not None


def test_check_ss_known_pairs():
    assert check_ss(Pareto(25.0, 2.0), Pareto(30.0, 2.0)).holds
    assert check_ss(Uniform(0.0, 1.0), Uniform(0.5, 1.5)).holds
    assert not check_ss(Uniform(0, 1), Uniform(0, 1.5)).holds


@settings(max_examples=50, deadline=None)
@given(st.floats(0.5, 5.0, **finite), st.floats(1.01, 3.0, **finite), shapes)
def test_ss_implies_st_pareto(scale, ratio, shape):
    f, g = Pareto(scale, shape), Pareto(scale * ratio, shape)
    assert check_ss(f, g).holds
    assert check_st(f, g).holds


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-5, 5, **finite),
    st.floats(0.2, 4.0, **finite),
    st.floats(0.0, 3.0, **finite),
)
def test_ss_implies_st_shifted_uniform(lo, width, shift):
    f, g = Uniform(lo, lo + width), Uniform(lo + shift, lo + shift + width)
    assert check_ss(f, g).holds
    assert check_st(f, g).holds


def test_order_report_fields():
    rep = check_st(Uniform(0, 1), Uniform(0, 2))
    assert rep.holds
    assert rep.max_violation <= 0.0 or rep.max_violation < 1e-12
    assert rep.grid_size > 0


# ---------------------------------------------------------------------------
# isotonic repair


def test_isotonic_projection_repairs():
    rng = np.random.default_rng(11)
    f = empirical_from_samples(rng.normal(0.1, 1.0, 400))
    g = empirical_from_samples(rng.normal(0.0, 1.0, 400))
    assert not check_st(f, g).holds
    f2, g2 = isotonic_pair_projection(f, g)
    rep = check_st(f2, g2, tol=0.0)
    assert rep.holds


def test_isotonic_projection_identity_when_ordered():
    f = empirical_from_samples([0.0, 1.0, 2.0])
    g = empirical_from_samples([1.0, 2.0, 3.0])
    f2, g2 = isotonic_pair_projection(f, g)
    ts = np.linspace(-1.0, 4.0, 101)
    assert_allclose([f2.cdf(t) for t in ts], [f.cdf(t) for t in ts], atol=1e-12)
    assert_allclose([g2.cdf(t) for t in ts], [g.cdf(t) for t in ts], atol=1e-12)


def test_isotonic_projection_rejects_parametric():
    with pytest.raises(DomainError):
        isotonic_pair_projection(Pareto(1, 1), Pareto(2, 1))


def test_isotonic_projection_weights():
    f = empirical_from_samples([1.0, 1.0, 3.0])
    g = empirical_from_samples([0.0, 2.0, 2.0])
    # all weight on g pins the pooled cdf at g where they disagree
    f2, g2 = isotonic_pair_projection(f, g, w_f=1e-9, w_g=1.0)
    assert check_st(f2, g2, tol=0.0).holds
    ts = np.linspace(-0.5, 3.5, 41)
    gap = max(abs(g2.cdf(t) - g.cdf(t)) for t in ts)
    assert gap < 1e-6


# ---------------------------------------------------------------------------
# file formats


def test_read_empirical_csv(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("value,weight\n1.0,2\n3.0,1\n1.0,1\n")
    d = read_empirical_csv(path)
    assert_allclose(d.values, [1.0, 3.0])
    assert_allclose(d.weights, [0.75, 0.25])


def test_read_empirical_csv_value_only(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("value\n2.5\n2.5\n4.0\n")
    d = read_empirical_csv(path)
    assert_allclose(d.values, [2.5, 4.0])


def test_read_empirical_csv_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("x\n1.0\n")
    with pytest.raises(DomainError):
        read_empirical_csv(path)


def test_write_grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(to_grid(Uniform(0, 1), 100), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,x"
    assert len(lines) == 101


def test_default_trunc_in_range():
    assert 0.5 < DEFAULT_TRUNC < 1.0
