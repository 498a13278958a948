"""Distribution kinds, tails, order checks and integral evaluators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import ndtri

import ordrisk.dist
from ordrisk.dist import (
    DEFAULT_TRUNC,
    Empirical,
    Normal,
    Pareto,
    QuantileGrid,
    Uniform,
    _cell_edges,
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


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, -math.inf, math.inf, -1e-300])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("side", ["quantile_left", "quantile_right"])
def test_bad_levels_raise(bad, as_array, side):
    u = np.array([0.25, bad, 0.75]) if as_array else bad
    for d in (Uniform(0, 1), Empirical([1.0, 2.0], [1.0, 1.0])):
        with pytest.raises(DomainError, match="quantile level"):
            getattr(d, side)(u)


@pytest.mark.parametrize(
    "bad", ["0.5", True, False, np.array([True, False]), np.array(["0.5"]), [0.5, None], 0.5 + 0j]
)
@pytest.mark.parametrize("side", ["quantile_left", "quantile_right"])
def test_non_real_levels_raise(bad, side):
    # "0.5" read as 0.5 and True as level 1 (inf for a Pareto)
    for d in (Pareto(1.0, 1.0), Uniform(0, 1), Empirical([1.0, 2.0], [1.0, 1.0])):
        with pytest.raises(DomainError, match="quantile level"):
            getattr(d, side)(bad)


def test_integer_levels_pass():
    d = Uniform(2.0, 4.0)
    assert d.quantile_left(0) == 2.0 and d.quantile_right(1) == 4.0
    assert_array_equal(d.quantile_left(np.array([0, 1], dtype=np.uint8)), [2.0, 4.0])
    assert Pareto(1.0, 1.0).quantile_left(np.int64(0)) == 1.0


def test_levels_at_the_ends_and_empty_pass():
    d = Uniform(2.0, 4.0)
    assert d.quantile_left(0.0) == 2.0
    assert d.quantile_right(1.0) == 4.0
    assert_allclose(d.quantile_left(np.array([0.0, 0.5, 1.0])), [2.0, 3.0, 4.0])
    assert d.quantile_left(np.array([])).shape == (0,)


def test_scipy_special_loads_only_for_normal_laws():
    # a fresh interpreter: this test module itself imports scipy.special
    code = """
import sys
import numpy as np
import ordrisk.cli
from ordrisk import Normal, Pareto, Uniform, bound_report, es_eval
assert "scipy.special" not in sys.modules, "imported by ordrisk.cli"
bound_report(Pareto(1.0, 1.0), Pareto(2.0, 1.0), "var", p=0.9)
bound_report(Uniform(0.0, 100.0), Uniform(0.0, 120.0), "es", p=0.9, grid_n=200)
assert "scipy.special" not in sys.modules, "imported by a Pareto or uniform bound"
d = Normal(1.0, 2.0)
x = np.array([-3.0, 0.5, 1.0, 4.0])
u = np.array([0.01, 0.3, 0.5, 0.999])
cdf, q, es = d.cdf(x), d.quantile_left(u), es_eval(d, 0.9)
from scipy.special import ndtr, ndtri
assert np.array_equal(cdf, ndtr((x - 1.0) / 2.0))
assert np.array_equal(q, 1.0 + 2.0 * ndtri(u))
z = ndtri(0.9)
exact = 1.0 + 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) / 0.1
assert abs(es - exact) <= 1e-12 * abs(exact), (es, exact)
print("ok")
"""
    assert _run_fresh(code) == "ok"


def _run_fresh(code, *argv):
    """Run ``code`` in a fresh interpreter that imports this tree's ordrisk; its stdout, stripped."""
    src = str(Path(ordrisk.dist.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_column_kernel_loads_only_for_float_tables(tmp_path):
    # a fresh interpreter: the CLI's tables are str cells, so the float kernel
    # of _write_table loads with the first float column, here a sample export
    code = """
import sys
import ordrisk.cli
from ordrisk import Pareto, bound_report, export_batch_csv, sample_coupling
out = sys.argv[1]
assert "ordrisk._g12" not in sys.modules, "imported by ordrisk.cli"
bound_report(Pareto(1.0, 1.0), Pareto(2.0, 1.0), "var", p=0.9)
rc = ordrisk.cli.entry(["bounds", "--margF", "pareto:1,1", "--margG", "pareto:2,1", "--out", out + "/b"])
assert rc == 0
assert "ordrisk._g12" not in sys.modules, "imported by a bound report or the CLI's str tables"
export_batch_csv(sample_coupling(Pareto(1.0, 1.0), Pareto(2.0, 1.0), "dl", 10, 1), out + "/s.csv")
assert "ordrisk._g12" in sys.modules, "not imported by a float table"
print("ok")
"""
    assert _run_fresh(code, tmp_path).splitlines()[-1] == "ok"
    assert (tmp_path / "b" / "curve.csv").exists() and (tmp_path / "s.csv").exists()


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
    # one grid-size check in every Dist-to-grid conversion, closed-form tails
    # included; to_grid's truncation is the one explicit one, and the tails refuse it
    bad = [(n, DEFAULT_TRUNC, "grid size must be at least 2") for n in (1, 0, -3, 2.5, math.nan)]
    bad += [(100, trunc, "truncation level must lie in") for trunc in (0.4, 0.3, 1.0, math.nan, "0.9")]
    for n, trunc, match in bad:
        for d in (Normal(0, 1), Pareto(1.0, 1.0)):
            with pytest.raises(DomainError, match=match):
                to_grid(d, n, trunc)
            for tail in (upper_tail, lower_tail):
                if trunc == DEFAULT_TRUNC:
                    with pytest.raises(DomainError, match=match):
                        tail(d, 0.5, grid_n=n)
                with pytest.raises(TypeError, match="trunc"):
                    tail(d, 0.5, trunc=trunc)


@pytest.mark.parametrize("grid_size", [1, 0, -5, np.nan])
@pytest.mark.parametrize("check", [check_st, check_ss])
@pytest.mark.parametrize("kinds", ["parametric", "empirical"])
def test_order_checks_refuse_a_grid_below_two(check, grid_size, kinds):
    # a 2-point grid used to report holds=True; an empirical pair divided by it
    if kinds == "parametric":
        f, g = Uniform(0.0, 1.5), Uniform(0.0, 1.0)  # out of order
    else:
        f, g = empirical_from_samples([1.0, 2.0]), empirical_from_samples([0.0, 1.0])
    with pytest.raises(DomainError, match="grid size must be at least 2"):
        check(f, g, grid_size=grid_size)


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


def test_tail_grids_lie_in_their_windows_beyond_the_truncation_level():
    # the tails used to clip every level to [1e-6, 1 - 1e-6]: a point mass at 1.000001
    # above the window end 1.0000001, and the point 4.75342 below the start 5.19934
    d = Pareto(1.0, 1.0)
    t = lower_tail(d, 1e-7)
    assert 1.0 <= t.support_lo and t.support_hi <= d.quantile_left(1e-7)
    n = Normal(0.0, 1.0)
    assert abs(upper_tail(n, 1.0 - 1e-7).quantile_left(0.0) - n.quantile_left(1.0 - 1e-7)) <= 1e-6
    # the top levels round to 1, where F^{-1} = inf; the table still rises inside the window
    t = upper_tail(n, 1.0 - 1e-12)
    assert n.quantile_left(1.0 - 1e-12) <= t.support_lo < t.support_hi <= 8.3


def _old_tail(d, p, grid_n, upper, trunc=DEFAULT_TRUNC):
    """The mirrored bodies of upper_tail and lower_tail before the one window law.

    Returns the law and whether the truncation clip moved a level.
    """
    if upper and isinstance(d, Pareto):
        return Pareto(d.scale * (1.0 - p) ** (-1.0 / d.shape), d.shape), False
    if isinstance(d, Uniform):
        if upper:
            return Uniform(d.lo + p * (d.hi - d.lo), d.hi), False
        return Uniform(d.lo, d.lo + p * (d.hi - d.lo)), False
    if isinstance(d, Empirical):
        if upper:
            hi = np.minimum(d._cumw, 1.0)
            lo = d._cumw0[:-1]
            w = np.maximum(hi, p) - np.maximum(lo, p)
            keep = w > 0
            return Empirical(d.values[keep], w[keep] / (1.0 - p)), False
        hi = np.minimum(d._cumw, p)
        lo = np.minimum(d._cumw0[:-1], p)
        w = hi - lo
        keep = w > 0
        return Empirical(d.values[keep], w[keep] / p), False
    mids = (np.arange(grid_n) + 0.5) / grid_n
    if upper:
        us = np.concatenate(([1e-9], mids))
        raw = p + (1.0 - p) * us
    else:
        us = np.concatenate((mids, [1.0 - 1e-9]))
        raw = p * us
    levels = np.clip(raw, 1.0 - trunc, trunc)
    return QuantileGrid(us, d.quantile_left(levels)), bool(np.any(levels != raw))


_TAIL_LAWS = [
    Pareto(1.0, 1.0),
    Pareto(25.0, 2.0),
    Uniform(-1.0, 3.0),
    Normal(0.5, 2.0),
    negate_dist(Pareto(2.0, 1.5)),
    negate_dist(Uniform(0.0, 1.0)),
    Empirical([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 2.0]),
    empirical_from_samples(np.arange(14.0)),
    to_grid(Normal(0.0, 1.0), 50),
]
tail_levels = st.one_of(
    levels_open, st.floats(1e-12, 1e-5, **finite), st.floats(1.0 - 1e-5, 1.0 - 1e-12, **finite)
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_TAIL_LAWS))), tail_levels, st.integers(2, 50), st.booleans())
@example(0, 1e-7, 50, False)
@example(3, 1.0 - 1e-7, 50, True)
@example(4, 1e-10, 2, False)  # the reflected Pareto's top node read past F^{-1}(p) by a rounding
def test_window_law_matches_the_mirrored_tails(i, p, grid_n, upper):
    # bit for bit wherever the old level clip moved nothing; where it moved a
    # level, the grid now lies inside its window [F^{-1}(p), sup] or [inf, F^{-1}(p)]
    d = _TAIL_LAWS[i]
    got = (upper_tail if upper else lower_tail)(d, p, grid_n=grid_n)
    want, clipped = _old_tail(d, p, grid_n, upper)
    assert type(got) is type(want)
    if not clipped:
        assert vars(got).keys() == vars(want).keys()
        for key, value in vars(want).items():
            assert np.asarray(vars(got)[key]).tobytes() == np.asarray(value).tobytes(), key
    elif upper:
        assert d.quantile_left(p) <= got.support_lo and got.support_hi <= d.support_hi
    else:
        assert d.support_lo <= got.support_lo and got.support_hi <= d.quantile_left(p)


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
    assert_allclose(_cell_means(d, _cell_edges(n, p, q)), ref, rtol=1e-9, atol=1e-12)


def _two_sided_integral(d, a, b):
    # the closed forms with the per-level piece evaluated at a and at b
    # separately: the one-pass kernel must reproduce these bytes
    if isinstance(d, Uniform):
        return (b - a) * (d.lo + 0.5 * (d.hi - d.lo) * (a + b))
    if isinstance(d, Normal):
        pdf = lambda u: np.exp(-0.5 * ndtri(u) ** 2) / math.sqrt(2.0 * math.pi)
        return d.mean * (b - a) + d.sd * (pdf(a) - pdf(b))
    if isinstance(d, Pareto):
        with np.errstate(divide="ignore"):
            if d.shape == 1.0:
                return d.scale * np.log((1.0 - a) / (1.0 - b))
            e = 1.0 - 1.0 / d.shape
            return d.scale * ((1.0 - a) ** e - (1.0 - b) ** e) / e
    if isinstance(d, Empirical):
        breaks, ql, qr = np.concatenate(([0.0], d._cumw)), d.values, d.values
    elif isinstance(d, QuantileGrid):
        breaks = np.concatenate(([0.0], d.us, [1.0]))
        ql = np.concatenate(([d.xs[0]], d.xs))
        qr = np.concatenate(([d.xs[0]], d.xs[1:], [d.xs[-1]]))
    else:  # the negated law
        return -_two_sided_integral(d.d, 1.0 - b, 1.0 - a)
    width = np.diff(breaks)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (ql + qr) * width)))
    safe = np.where(width > 0.0, width, 1.0)

    def anti(u):
        k = np.clip(np.searchsorted(breaks, u, side="right") - 1, 0, width.size - 1)
        t = u - breaks[k]
        qu = ql[k] + (qr[k] - ql[k]) * (t / safe[k])
        return cum[k] + 0.5 * (ql[k] + qu) * t

    return anti(b) - anti(a)


ONE_PASS_LAWS = {
    **CELL_LAWS,
    "pareto_1": Pareto(1, 1),
    "pareto_0.8": Pareto(2, 0.8),  # the top cell of [0.9, 1) and [0, 1) is infinite
}


@pytest.mark.parametrize("n", [7, 1000])
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.9, 1.0), (0.0, 0.6), (0.3, 0.9)])
@pytest.mark.parametrize("name", sorted(ONE_PASS_LAWS))
def test_cell_means_equal_two_sided_evaluation(name, window, n):
    d, (p, q) = ONE_PASS_LAWS[name], window
    edges = p + (q - p) * np.arange(n + 1) / n
    edges[-1] = q
    ref = _two_sided_integral(d, edges[:-1], edges[1:]) / np.diff(edges)
    np.testing.assert_array_equal(_cell_edges(n, p, q), edges)
    np.testing.assert_array_equal(_cell_means(d, edges), ref)


def test_cell_means_heavy_tail():
    # shape <= 1: only the top cell of the whole range has an infinite mean
    for d in (Pareto(1.0, 1.0), Pareto(2.0, 0.7)):
        means = _cell_means(d, _cell_edges(1000))
        assert means[-1] == math.inf
        assert np.all(np.isfinite(means[:-1])) and np.all(np.diff(means) > 0)
        assert np.all(np.isfinite(_cell_means(d, _cell_edges(1000, 0.0, 0.999))))


# ---------------------------------------------------------------------------
# stochastic order checks


@pytest.mark.parametrize("tail", [False, True])
def test_merged_grid_matches_validated_quantiles(tail):
    # the level table is shared and the quantiles are read unvalidated; the
    # nodes are those of the validated per-call construction
    pairs = [
        (Pareto(1.0, 2.0), Normal(0.0, 1.0)),
        (Empirical([1.0, 2.0, 4.0], [1.0, 2.0, 1.0]), to_grid(Uniform(0.0, 3.0), 300)),
        (negate_dist(Pareto(1.0, 2.0)), Uniform(-1.0, 5.0)),
    ]
    for laws in pairs:
        for p in (0.0, 0.3, 0.99):
            us = np.clip((np.arange(512) + 0.5) / 512, 1.0 - DEFAULT_TRUNC, DEFAULT_TRUNC)
            if tail:
                us = np.concatenate((us, 1.0 - 0.5 ** np.arange(1, 61)))
            us = np.concatenate(([p], p + (1.0 - p) * us))
            ts = np.concatenate(
                [d.quantile_left(us) for d in laws]
                + [ordrisk.dist._atom_points(d) for d in laws]
                + [[d.support_hi for d in laws]]
            )
            ref = np.unique(ts[np.isfinite(ts)])
            assert_array_equal(ordrisk.dist._merged_grid(laws, 512, p, tail), ref)
    assert not ordrisk.dist._scan_levels(512, tail).flags.writeable


def test_default_order_check_reads_the_pair_nodes():
    f, g = Uniform(0.0, 1.0), Uniform(0.0, 1.5)
    memo = ordrisk.dist._per_pair
    memo.cache_clear()
    rep = check_st(f, g)
    assert memo.cache_info().misses == 1
    nodes = memo(ordrisk.dist._merged_grid, (f, g), ordrisk.dist.DEFAULT_SCAN_N)
    assert memo.cache_info().misses == 1 and rep.grid_size == nodes.size
    assert check_st(f, g, grid_size=512).grid_size < rep.grid_size


def test_per_pair_memo_evicts_past_its_bound():
    memo, grid = ordrisk.dist._per_pair, ordrisk.dist._merged_grid
    memo.cache_clear()
    bound = memo.cache_info().maxsize
    assert bound == 16
    pairs = [(Uniform(0.0, 1.0), Uniform(0.0, 1.0 + k)) for k in range(bound + 1)]
    held = [memo(grid, pair, 64) for pair in pairs[:bound]]
    assert all(memo(grid, pair, 64) is arr for pair, arr in zip(pairs, held))
    assert memo.cache_info().misses == bound
    memo(grid, pairs[bound], 64)  # one past the bound: the least recently used goes
    assert memo(grid, pairs[0], 64) is not held[0]
    assert np.array_equal(memo(grid, pairs[0], 64), held[0])
    assert memo(grid, pairs[bound - 1], 64) is held[bound - 1]


def test_per_pair_memo_results_are_read_only():
    # every array of a shared result: a bare array, tuple items, both sum laws' fields
    from ordrisk import bounds, coupling

    memo = ordrisk.dist._per_pair
    f, g = Uniform(0.0, 1.0), Uniform(0.0, 1.5)
    arrays = [*memo(bounds._sum_law, f, g, 100, 0.0, 1.0, True)]
    arrays += [*memo(bounds._sum_law, f, g, 100, 0.0, 1.0, False)]
    arrays += list(memo(coupling._window_means, f, g, 100, 0.5, 1.0))
    arrays.append(memo(ordrisk.dist._merged_grid, (f, g), 64))
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


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




def test_default_trunc_in_range():
    assert 0.5 < DEFAULT_TRUNC < 1.0
