"""Distribution kinds, tails, order checks and integral evaluators."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import ndtri

import ordrisk.dist
from ordrisk import bound_report
from ordrisk.coupling import dl_plan_discrete
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


NORMAL_ENDS = {
    "quantile-scalar": lambda d: [d.quantile_left(0.0), d.quantile_left(1.0)],
    "quantile-array": lambda d: d.quantile_left([0.0, 1.0]).tolist(),
    "cdf-scalar": lambda d: [d.cdf(-math.inf), d.cdf(math.inf)],
    "cdf-array": lambda d: d.cdf([-math.inf, math.inf]).tolist(),
}


@pytest.mark.parametrize("name", sorted(NORMAL_ENDS))
def test_normal_ends_raise_no_warning(name):
    # ndtri reads +-inf at 0 and 1 with no numpy warning, so no errstate guards it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = NORMAL_ENDS[name](Normal(1.0, 2.0))
    assert ends == ([-math.inf, math.inf] if name.startswith("quantile") else [0.0, 1.0])


def test_normal_pair_var_report_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.001, 0.5, 0.9, 0.999):
            rep = bound_report(Normal(0.0, 1.0), Normal(0.5, 1.0), "var", p=p)
            assert rep.unconstrained_best <= rep.constrained_best <= rep.constrained_worst
            assert rep.constrained_worst <= rep.unconstrained_worst


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


def test_empirical_from_samples_reads_a_zero_atom_as_0_whatever_the_order():
    # np.unique keeps whichever of -0.0 and 0.0 its sort puts first, so the
    # zero atom's sign followed the order of the samples; it reads 0.0 now
    sample = np.array([-0.0, 0.0, 1.0, -0.0, 2.0, 0.0, -1.0, 0.0])
    ref = empirical_from_samples(sample)
    assert ref.values.tolist() == [-1.0, 0.0, 1.0, 2.0] and not np.signbit(ref.values[1])
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = empirical_from_samples(rng.permutation(sample))
        assert_array_equal(d.values.view(np.int64), ref.values.view(np.int64))
        assert_array_equal(d.weights, ref.weights)
    assert not np.signbit(empirical_from_samples([-0.0, -0.0]).values).any()
    assert np.signbit(sample).sum() == 3  # the caller's samples keep their signs


def test_isotonic_projection_reads_a_zero_atom_as_0():
    for pair in ((Empirical([-0.0, 1.0], [1, 1]), Empirical([0.0, 2.0], [1, 1])),
                 (Empirical([0.0, 1.0], [1, 1]), Empirical([-0.0, 2.0], [1, 1]))):
        for f2, g2 in (isotonic_pair_projection(*pair), isotonic_pair_projection(*pair[::-1])):
            for d in (f2, g2):
                assert 0.0 in d.values and not np.signbit(d.values).any()


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


# one law of each kind; the grid's flat top segment is an atom at 1
CDF_KINDS = {
    "pareto": Pareto(1.0, 2.0),
    "uniform": Uniform(0.0, 1.0),
    "normal": Normal(0.0, 1.0),
    "empirical": Empirical([0.0, 1.0, 3.0], [1.0, 2.0, 1.0]),
    "grid": QuantileGrid([0.2, 0.5, 0.8], [0.0, 1.0, 1.0]),
    "negated": negate_dist(Pareto(1.0, 2.0)),
    "negated-uniform": negate_dist(Uniform(-1.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CDF_KINDS))
def test_cdf_reads_a_nan_point_as_nan(name):
    # the step and grid CDFs used to read NaN as 1.0, past the last node
    d = CDF_KINDS[name]
    assert math.isnan(d.cdf(math.nan))
    pts = np.array([math.nan, -math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf, math.nan])
    got = d.cdf(pts)
    assert_array_equal(np.isnan(got), np.isnan(pts))
    assert_array_equal(got, [d.cdf(float(x)) for x in pts])
    assert_array_equal(d.cdf(pts.reshape(2, 5)), got.reshape(2, 5))


NON_REAL_POINTS = {
    "none": None,
    "bool": True,
    "numpy-bool": np.True_,
    "bool-array": np.array([True, False]),
    "str": "x",
    "numeric-str-array": np.array(["1"]),
    "mixed-list": [1, "a"],
    "object": object(),
    "object-array": np.array([1.0, 2.0], dtype=object),
    "complex": 1 + 2j,
    "complex-array": np.array([1.0 + 0j]),
}


@pytest.mark.parametrize("point", sorted(NON_REAL_POINTS))
@pytest.mark.parametrize("name", sorted(CDF_KINDS))
def test_cdf_refuses_non_real_points(name, point):
    # None read NaN, bools and numeric strings read values, other strings raised ValueError and
    # objects TypeError; a reflected law raised UFuncTypeError, or read 1+2j as 1.0 with a warning
    d = CDF_KINDS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="CDF points must be real numbers"):
            d.cdf(NON_REAL_POINTS[point])


@pytest.mark.parametrize("name", sorted(CDF_KINDS))
def test_cdf_reads_ints_and_lists_as_floats(name):
    d = CDF_KINDS[name]
    floats = d.cdf(np.array([-1.0, 0.0, 1.0, 2.0, 3.0]))
    reads = [d.cdf([-1, 0, 1, 2, 3]), d.cdf(np.arange(-1, 4)), d.cdf([-1.0, 0, 1, 2, 3])]
    assert _bits(reads) == _bits([floats] * 3)
    assert [d.cdf(k) for k in range(-1, 4)] == floats.tolist()
    assert all(type(d.cdf(k)) is float for k in (0, np.int64(1), np.float32(2.0), np.array(3)))


_ENDS = np.array([0.0, 1.0, -1.0, 2.0, 3.0])  # the support ends of CDF_KINDS
CDF_POINTS = np.concatenate(
    (
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 0.3, 1.7, 2.5],
        _ENDS,
        np.nextafter(_ENDS, np.inf),
        np.nextafter(_ENDS, -np.inf),
    )
)
# sha256 of every read of _cdf_reads before the CDFs shared one point entry
CDF_DIGESTS = {
    "pareto": "3edf36f91d99ff82",
    "uniform": "61fd519090fe2f7d",
    "normal": "7b19f4134540a24d",
    "empirical": "c4244b7bc6cedae7",
    "grid": "b49eb44eaecde067",
    "negated": "ad9acb36a885056a",
    "negated-uniform": "f4a26ab1cef99e17",
}


def _cdf_reads(d):
    """Reads of arrays, 0-d arrays, Python and numpy floats and ints; each with its type."""
    yield d.cdf(CDF_POINTS)
    yield d.cdf(CDF_POINTS.reshape(3, -1))
    for x in CDF_POINTS:
        yield from (d.cdf(float(x)), d.cdf(np.array(x)), d.cdf(np.float64(x)))
    for k in (-1, 0, 1, 2, 3):
        yield d.cdf(k)
    yield d.cdf([-1, 0, 1, 2, 3])


@pytest.mark.parametrize("name", sorted(CDF_KINDS))
def test_cdf_keeps_its_bytes_and_types(name):
    h = hashlib.sha256()
    for read in _cdf_reads(CDF_KINDS[name]):
        h.update(type(read).__name__.encode() + np.asarray(read).tobytes())
    assert h.hexdigest()[:16] == CDF_DIGESTS[name]


def test_cdf_passes_a_float_array_as_it_is():
    pts = np.linspace(-1.0, 4.0, 9)
    assert ordrisk.dist._points(pts)[0] is pts
    for x in (pts[:1].reshape(()), np.float32([1.0]), pts.astype(">f8"), [1.0], 1.0, 1):
        got, scalar = ordrisk.dist._points(x)
        assert got.dtype == np.float64 and got.dtype.isnative and scalar == (np.ndim(x) == 0)


NON_REAL_PARAMETERS = {
    "pareto-scale-str": lambda: Pareto("a", 1),
    "pareto-shape-none": lambda: Pareto(1.0, None),
    "uniform-lo-str": lambda: Uniform("a", 1),
    "uniform-hi-bool": lambda: Uniform(0.0, True),
    "normal-mean-str": lambda: Normal("a", 1),
    "normal-mean-bool": lambda: Normal(True, 1),
    "normal-sd-bool": lambda: Normal(0.0, True),
    "empirical-values-str": lambda: Empirical(["a"], [1]),
    "empirical-weights-str": lambda: Empirical([1.0], ["a"]),
    "empirical-values-object": lambda: Empirical([object()], [1]),
    "grid-levels-str": lambda: QuantileGrid(["a"], [1]),
    "grid-values-str": lambda: QuantileGrid([0.5], ["a"]),
    "samples-str": lambda: empirical_from_samples(["a"]),
    "samples-weights-str": lambda: empirical_from_samples([1.0], ["a"]),
    "negate-str": lambda: negate_dist("x"),
    "negate-none": lambda: negate_dist(None),
    # numpy parses these as numbers: Empirical(["1.5", "2"], [1, "3"]) had weights 0.25/0.75
    "empirical-values-numeric-str": lambda: Empirical(["1.5", "2"], [1, 3]),
    "empirical-weights-numeric-str": lambda: Empirical([1.5, 2.0], [1, "3"]),
    "empirical-values-bytes": lambda: Empirical([b"1.5", b"2"], [1, 3]),
    "empirical-values-bool": lambda: Empirical([False, True], [1, 3]),
    "empirical-weights-bool": lambda: Empirical([1.5, 2.0], [True, True]),
    "empirical-values-object-floats": lambda: Empirical(np.array([1.0, 2.0], dtype=object), [1, 3]),
    "grid-levels-numeric-str": lambda: QuantileGrid(["0.25", "0.75"], [1.0, 2.0]),
    "grid-values-bytes": lambda: QuantileGrid([0.25, 0.75], [b"1", b"2"]),
    "grid-values-bool": lambda: QuantileGrid([0.25, 0.75], [False, True]),
    "grid-values-object-floats": lambda: QuantileGrid([0.25, 0.75], np.array([1.0, 2.0], dtype=object)),
    "samples-numeric-str": lambda: empirical_from_samples(["1.5", "2"]),
    "samples-bytes": lambda: empirical_from_samples([b"1.5"]),
    "samples-bool": lambda: empirical_from_samples([False, True]),
    "samples-object-floats": lambda: empirical_from_samples(np.array([1.0, 2.0], dtype=object)),
    "samples-weights-numeric-str": lambda: empirical_from_samples([1.0, 2.0], ["1", "3"]),
    "samples-weights-bool": lambda: empirical_from_samples([1.0, 2.0], [True, True]),
}


@pytest.mark.parametrize("name", sorted(NON_REAL_PARAMETERS))
def test_non_real_parameters_raise_domain_error(name):
    # these used to raise TypeError, ValueError or AttributeError, or (a bool, a numeric string) pass
    with pytest.raises(DomainError):
        NON_REAL_PARAMETERS[name]()


def test_numpy_and_integer_parameters_pass():
    assert vars(Pareto(np.float64(1.0), np.int64(2))) == vars(Pareto(1.0, 2.0))
    assert vars(Normal(np.float32(0.5), 1)) == vars(Normal(0.5, 1.0))
    assert type(Uniform(0, 1).lo) is float
    d = Empirical(np.array([1, 2], dtype=np.int8), np.array([1, 3], dtype=np.uint16))
    assert d.values.dtype == np.float64 and d.weights.tolist() == [0.25, 0.75]
    assert QuantileGrid(np.float32([0.25, 0.75]), [1, 2]).xs.tolist() == [1.0, 2.0]


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


def _fields(d):
    """A law's fields, arrays as dtype, shape and bytes."""
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for k, v in vars(d).items()}


def test_negate_empirical_builds_one_reflection():
    d = Empirical([1.0, 2.0, 2.5, 7.0], [0.1, 0.3, 0.2, 0.7])
    nd = negate_dist(d)
    assert negate_dist(d) is nd
    assert _fields(nd) == _fields(Empirical(-d.values[::-1], d.weights[::-1]))
    with pytest.raises(ValueError, match="read-only"):
        nd.values[0] = 0.0
    assert math.isnan(nd.cdf(math.nan)) and nd.cdf(-2.5) == d.cdf(-2.5) + 1.0 - d.cdf(2.0)
    # the reflection's own reflection is built by the same rule, once
    back = negate_dist(nd)
    assert negate_dist(nd) is back
    assert _fields(back) == _fields(Empirical(-nd.values[::-1], nd.weights[::-1]))


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
    assert_allclose(_cell_means((d,), _cell_edges(n, p, q))[0], ref, rtol=1e-9, atol=1e-12)


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
    np.testing.assert_array_equal(_cell_means((d,), edges)[0], ref)


def _zero_slope_anti(breaks, v):
    # the step law's antiderivative as it was read before the atom-side read:
    # ``_piecewise_anti`` with ql = qr = v, one search per level
    width = np.diff(breaks)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v + v) * width)))
    safe = np.where(width > 0.0, width, 1.0)

    def anti(u):
        k = np.clip(np.searchsorted(breaks, u, side="right") - 1, 0, width.size - 1)
        t = u - breaks[k]
        qu = v[k] + (v[k] - v[k]) * (t / safe[k])
        return cum[k] + 0.5 * (v[k] + qu) * t

    return anti


STEP_ATOMS = [-7.25, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e-300, 6.5]


@st.composite
def step_laws(draw):
    # ties, both zeros and negative atoms; with a total weight of a power of two
    # (padded by a tie at the top) the cumulative weights are dyadic and land
    # exactly on levels of the dyadic windows below
    vals = sorted(draw(st.lists(st.sampled_from(STEP_ATOMS), min_size=1, max_size=12)))
    w = draw(st.lists(st.integers(1, 6), min_size=len(vals), max_size=len(vals)))
    pad = (1 << (sum(w) - 1).bit_length()) - sum(w)
    if pad and draw(st.booleans()):
        vals, w = vals + vals[-1:], w + [pad]
    return Empirical(vals, w)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(step_laws(), step_laws()),
    st.sampled_from([(0.0, 1.0), (0.5, 1.0), (0.3, 1.0), (0.0, 0.75), (0.0, 0.9)]),
    st.sampled_from([1, 7, 1000, 10_000]),
)
@example((Empirical([-0.0, 0.0, 1.0], [1, 1, 2]), Empirical([-1.0, -0.0], [3, 1])), (0.0, 1.0), 1000)
@example((Empirical([-0.0, -0.0], [1, 3]), Empirical([-0.0, 2.0], [1, 1])), (0.0, 1.0), 7)
def test_step_law_cell_means_and_points_read_at_atom_cost(pair, window, n):
    # the cell means of the atom-side read equal the one-search-per-level read to
    # the bit, signed zeros included, and a plan's points equal ``_grid_points``
    (p, q), laws = window, [*pair, *(negate_dist(d) for d in pair)]
    edges = _cell_edges(n, p, q)
    levels = edges[-2::-1]  # the plan's levels, top cell first
    for d in laws:
        pe = _zero_slope_anti(d._cumw0, d.values)(edges)
        ref = (pe[1:] - pe[:-1]) / np.diff(edges)
        assert_array_equal(_cell_means((d,), edges)[0].view(np.int64), ref.view(np.int64))
        (pts,) = ordrisk.dist._cell_points((d,), edges)
        assert_array_equal(pts.view(np.int64), ordrisk.dist._grid_points((d,), levels)[0].view(np.int64))


def test_step_law_means_of_atoms_near_the_float_limit():
    # the zero-slope trapezoid summed v + v, which overflows above half the
    # float limit and read NaN cell means and a NaN ES; the atom-side read does not
    d = Empirical([1.0, 1e308], [1, 1])
    assert es_eval(d, 0.5) == 1e308 and rvar_eval(d, 0.0, 0.5) == 1.0
    assert_array_equal(_cell_means((d,), _cell_edges(4))[0], [1.0, 1.0, 1e308, 1e308])


def test_cell_means_heavy_tail():
    # shape <= 1: only the top cell of the whole range has an infinite mean
    for d in (Pareto(1.0, 1.0), Pareto(2.0, 0.7)):
        (means,) = _cell_means((d,), _cell_edges(1000))
        assert means[-1] == math.inf
        assert np.all(np.isfinite(means[:-1])) and np.all(np.diff(means) > 0)
        assert np.all(np.isfinite(_cell_means((d,), _cell_edges(1000, 0.0, 0.999))[0]))


def test_grid_law_means_above_half_the_float_limit():
    # the trapezoids of a grid law halve their ends before adding them, so a
    # node above half the float limit reads finite means, without a warning
    d = QuantileGrid([0.25, 0.75], [1.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_allclose(es_eval(d, 0.5), 8.75e307, rtol=1e-15)
        assert_allclose(_cell_means((d,), _cell_edges(4))[0], [1.0, 2.5e307, 7.5e307, 1e308], rtol=1e-15)


# ---------------------------------------------------------------------------
# kernels and pair reads


def _pre_split_ql(d, u):
    """The closed-form quantiles as they were written before the kernel split."""
    if isinstance(d, Pareto):
        with np.errstate(divide="ignore"):
            return d.scale * (1.0 - u) ** (-1.0 / d.shape)
    if isinstance(d, Uniform):
        return d.lo + u * (d.hi - d.lo)
    if isinstance(d, Normal):
        return d.mean + d.sd * ndtri(u)
    if isinstance(d, ordrisk.dist._Negated):
        return -_pre_split_ql(d.d, 1.0 - u)
    return d._ql(u)


def _per_law_points(d, levels):
    """``_grid_points`` of one law as it read before the pair read: the closed form, then the clip rule."""
    pts = np.asarray(_pre_split_ql(d, levels), dtype=float)
    bad = ~np.isfinite(pts)
    if bad.any():
        pts[bad] = _pre_split_ql(d, np.clip(levels[bad], 1.0 - DEFAULT_TRUNC, DEFAULT_TRUNC))
    return pts


_GRID_BESIDE = to_grid(Normal(0.0, 1.0), 300)
_ATOMS_BESIDE = Empirical([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.2, 0.3])
PAIR_READS = {
    "pareto-one-shape": (Pareto(2.0, 2.5), Pareto(3.0, 2.5)),
    "pareto-shape-1": (Pareto(1.0, 1.0), Pareto(2.0, 1.0)),
    "pareto-two-shapes": (Pareto(1.0, 1.5), Pareto(2.0, 1.2)),
    "pareto-shape-1-and-2": (Pareto(1.0, 1.0), Pareto(2.0, 2.0)),
    "normal": (Normal(0.0, 1.0), Normal(0.5, 2.0)),
    "uniform": (Uniform(0.0, 100.0), Uniform(-3.0, 120.0)),
    "mixed": (Pareto(1.0, 2.0), Normal(3.0, 1.0)),
    "mixed-uniform": (Uniform(0.0, 3.0), negate_dist(Pareto(1.0, 2.0))),
    "atoms-beside": (_ATOMS_BESIDE, Pareto(1.0, 2.0)),
    "grid-beside": (_GRID_BESIDE, Normal(0.0, 1.0)),
}
for _name, (_f, _g) in list(PAIR_READS.items()):
    PAIR_READS[_name + "-reflected"] = (negate_dist(_g), negate_dist(_f))


def _bits(arrays):
    return [np.asarray(a, dtype=float).view(np.int64).tolist() for a in arrays]


LEVELS = [np.array([0.0, 1e-300, 0.25, 0.5, 0.9, 1.0 - 1e-12, 1.0]), np.float64(0.3), np.array(0.7)]


@pytest.mark.parametrize("u", LEVELS, ids=["array", "scalar", "0-d"])
@pytest.mark.parametrize("name", sorted(PAIR_READS))
def test_closed_form_quantile_is_its_affine_map_of_its_kernel(name, u):
    # ``_ql`` keeps every bit of the closed forms, on arrays, numpy scalars and 0-d arrays alike
    for d in PAIR_READS[name]:
        assert _bits([d._ql(u)]) == _bits([_pre_split_ql(d, u)])
        if d._key:
            assert _bits([d._affine(d._kernel(u))]) == _bits([d._ql(u)])


@pytest.mark.parametrize("n", [1, 2, 7, 10_000])
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.9, 1.0), (0.0, 0.99)], ids=["whole", "upper", "lower"])
@pytest.mark.parametrize("name", sorted(PAIR_READS))
def test_pair_reads_equal_per_law_reads(name, window, n):
    # the pair read of points, plan points, cell means and node grids equals
    # each law's own read to the bit, and the points the closed form of each law
    laws, (p, q) = PAIR_READS[name], window
    edges = _cell_edges(n, p, q)
    levels = edges[-2::-1]  # a plan's levels, top cell first: the clip rule reads level 0
    pts = ordrisk.dist._grid_points(laws, levels)
    assert _bits(pts) == _bits([ordrisk.dist._grid_points((d,), levels)[0] for d in laws])
    assert _bits(pts) == _bits([_per_law_points(d, levels) for d in laws])
    cells = ordrisk.dist._cell_points(laws, edges)
    assert _bits(cells) == _bits([ordrisk.dist._cell_points((d,), edges)[0] for d in laws])
    means = _cell_means(laws, edges)
    assert _bits(means) == _bits([_cell_means((d,), edges)[0] for d in laws])
    grid = ordrisk.dist._merged_grid(laws, max(n, 2), p, True)
    alone = [ordrisk.dist._merged_grid((d,), max(n, 2), p, True) for d in laws]
    assert _bits([grid]) == _bits([np.unique(np.concatenate(alone))])


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("shapes, reads", [((2.5, 2.5), 1), ((2.5, 1.5), 2)], ids=["one-kernel", "two-kernels"])
def test_pair_read_evaluates_each_kernel_once(monkeypatch, shapes, reads):
    # one kernel read per level array for laws of one key, one per key otherwise;
    # the cell means read each distinct piece once the same way
    f, g = Pareto(2.0, shapes[0]), Pareto(3.0, shapes[1])
    kernels = _counting(monkeypatch, Pareto, "_kernel")
    pieces = []
    original = ordrisk.dist._integral_parts

    def parts(d):
        piece, combine = original(d)
        return (lambda u: pieces.append(d) or piece(u)), combine

    monkeypatch.setattr(ordrisk.dist, "_integral_parts", parts)
    edges = _cell_edges(1000, 0.9, 1.0)
    ordrisk.dist._grid_points((f, g), edges[-2::-1])
    assert len(kernels) == reads
    ordrisk.dist._merged_grid((f, g), 2048, 0.9, True)
    assert len(kernels) == 2 * reads
    _cell_means((f, g), edges)
    assert len(pieces) == reads
    # a plan with a cold memo reads each kernel once for the order check's node
    # grid and once for its points, and each piece once for its means
    del kernels[:], pieces[:]
    ordrisk.dist._per_pair.cache_clear()
    dl_plan_discrete(f, g, 1000, 0.9)
    assert len(kernels) == 2 * reads and len(pieces) == reads


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


def _grid_with_reads(laws, n, p, tail):
    """The node grid with every law's quantiles read at the scan levels, atom laws' too; -0.0 read as 0.0."""
    levels = ordrisk.dist._scan_levels(n, tail)
    us = np.concatenate(([p], p + (1.0 - p) * levels))
    ts = np.concatenate(
        [d._ql(us) for d in laws]
        + [ordrisk.dist._atom_points(d) for d in laws]
        + [[d.support_hi for d in laws]]
    )
    return np.unique(ts[np.isfinite(ts)] + 0.0)


_TIES = Empirical([1.0, 2.0, 4.0, 7.0], [2.0, 3.0, 1.0, 2.0])
_SHARED = Empirical([2.0, 3.0, 4.0, 7.0, 8.0], [1.0, 3.0, 1e-6, 2.0, 2.0])  # 2, 4, 7 shared
_TOTALS = empirical_from_samples(np.random.default_rng(29).integers(0, 40, 300).astype(float))
STEP_GRID_LAWS = {
    "ties": (_TIES, _SHARED),
    "unequal-weights": (Empirical([0.5, 0.75, 9.0], [1e-8, 1.0, 3.0]), _TOTALS),
    "one-atom": (Empirical([3.0], [1.0]), _TIES),
    "one-atom-alone": (Empirical([-1.5], [2.0]),),
    "negated": (negate_dist(_SHARED), negate_dist(_TIES)),
    "negated-alone": (negate_dist(_TOTALS),),
    "mixed-normal": (_TIES, Normal(3.0, 2.0)),
    "mixed-pareto": (Pareto(1.0, 2.0), _SHARED),
    "mixed-grid": (to_grid(Uniform(0.0, 9.0), 300), _TOTALS),
    "mixed-negated": (negate_dist(Pareto(1.0, 2.0)), negate_dist(_TIES)),
}


@pytest.mark.parametrize("name", sorted(STEP_GRID_LAWS))
def test_merged_grid_of_step_laws_equals_the_grid_with_their_reads(name):
    # an atom law's quantile reads are atoms the grid holds: leaving them out
    # gives the same array to the bit, and on step laws alone one array for all
    laws = STEP_GRID_LAWS[name]
    steps = all(isinstance(d, Empirical) for d in laws)
    first = ordrisk.dist._merged_grid(laws, 2048)
    for p in (0.0, 0.3, 0.95):
        for tail in (False, True):
            for n in (2, 7, 1024, 2048):
                got = ordrisk.dist._merged_grid(laws, n, p, tail)
                assert got.tobytes() == _grid_with_reads(laws, n, p, tail).tobytes()
                if steps:
                    assert got.tobytes() == first.tobytes()


SIGNED_ZERO_LAWS = {
    "two-atoms": (Empirical([-0.0, 1.0], [1.0, 1.0]), Empirical([0.0, 2.0], [1.0, 1.0])),
    "totals-and-reflection": (_TOTALS, negate_dist(_TOTALS)),
    "reflection-and-uniform": (negate_dist(_TOTALS), Uniform(0.0, 8.0)),
}


@pytest.mark.parametrize("name", sorted(SIGNED_ZERO_LAWS))
@pytest.mark.parametrize("order", ["as-given", "swapped"])
def test_merged_grid_zero_is_positive_in_either_order(name, order):
    # np.unique kept whichever of -0.0 and 0.0 its sort put first, so the grid's
    # zero had its sign bit set in one order of the laws and clear in the other
    laws = SIGNED_ZERO_LAWS[name]
    laws = laws if order == "as-given" else laws[::-1]
    for p, tail in ((0.0, False), (0.3, True)):
        grid = ordrisk.dist._merged_grid(laws, 64, p, tail)
        zero = grid[grid == 0.0]
        assert zero.size == 1 and not np.signbit(zero[0])
        assert grid.tobytes() == ordrisk.dist._merged_grid(laws[::-1], 64, p, tail).tobytes()


def _unique_of_reads(laws, n, p, tail):
    """The node grid as it was built before the sorted merge: every law's quantiles at the midpoints,
    then at the tail levels, with its atoms and upper end, through ``np.unique``; -0.0 read as 0.0."""
    us = (np.arange(n) + 0.5) / n
    if tail:
        us = np.concatenate((us, 1.0 - 0.5 ** np.arange(1, 61)))
    us = np.concatenate(([p], p + (1.0 - p) * us))
    ts = np.concatenate(
        [_pre_split_ql(d, us) for d in laws]
        + [ordrisk.dist._atom_points(d) for d in laws]
        + [[d.support_hi for d in laws]]
    )
    return np.unique(ts[np.isfinite(ts)] + 0.0)


_ZERO_ATOMS = (Empirical([-0.0, 1.0], [1.0, 1.0]), Empirical([0.0, 2.0], [1.0, 1.0]))
MERGE_LAWS = {
    "pareto": (Pareto(25.0, 2.0), Pareto(30.0, 2.0)),
    "pareto-shape-1": (Pareto(1.0, 1.0), Pareto(2.0, 1.0)),
    "uniform": (Uniform(0.0, 100.0), Uniform(0.0, 140.0)),
    "normal": (Normal(0.0, 1.0), Normal(0.5, 2.0)),
    "atoms": (_TIES, _SHARED),
    "grid": (to_grid(Normal(0.0, 1.0), 300), QuantileGrid([0.2, 0.5, 0.8], [0.0, 1.0, 1.0])),
    "mixed": (_TOTALS, Pareto(1.0, 2.0), to_grid(Uniform(0.0, 9.0), 300)),
    "zero-atoms": _ZERO_ATOMS,
    "zero-atoms-and-uniform": (*_ZERO_ATOMS, Uniform(-1.0, 1.0)),
    "one-law": (Pareto(2.0, 3.0),),
}
for _name, _laws in list(MERGE_LAWS.items()):
    MERGE_LAWS[_name + "-reflected"] = tuple(negate_dist(d) for d in _laws[::-1])


@pytest.mark.parametrize("n", [2, 7, 2048])
@pytest.mark.parametrize("name", sorted(MERGE_LAWS))
def test_merged_grid_equals_unique_of_its_reads(name, n):
    # sorted levels and a stable sort with a neighbour mask give np.unique's array to the bit
    laws = MERGE_LAWS[name]
    for p in (0.0, 0.5, 1.0 - 1e-12):
        for tail in (False, True):
            got = ordrisk.dist._merged_grid(laws, n, p, tail)
            assert got.tobytes() == _unique_of_reads(laws, n, p, tail).tobytes(), (p, tail)


@pytest.mark.parametrize("n", [2, 7, 2048])
def test_scan_levels_ascend(n):
    # the tail levels sit among the midpoints, so each law's quantiles are one ascending run
    for tail in (False, True):
        levels = ordrisk.dist._scan_levels(n, tail)
        assert np.all(levels[1:] >= levels[:-1]) and levels.size == n + 60 * tail
        assert not levels.flags.writeable
    laws = MERGE_LAWS["pareto"] + MERGE_LAWS["pareto-reflected"] + MERGE_LAWS["normal"]
    for x in ordrisk.dist._quantiles(laws, 0.9 + 0.1 * levels):
        assert np.all(x[1:] >= x[:-1])


def test_pareto_kernel_keeps_its_bits_without_a_warning():
    # 200k levels from 0 to 1, the smallest subnormal and the last level below 1
    u = np.linspace(0.0, 1.0, 199_996, endpoint=False)
    u = np.concatenate((u, [5e-324, np.nextafter(1.0, 0.0), 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in (0.3, 1.0, 2.0, 2.5):
            d = Pareto(1.0, shape)
            with np.errstate(divide="ignore"):
                want = [(1.0 - x) ** (-1.0 / shape) for x in (u, u[:-1], u[:0], np.array(1.0), np.float64(0.5))]
            got = [d._kernel(x) for x in (u, u[:-1], u[:0], np.array(1.0), np.float64(0.5))]
            assert _bits(got) == _bits(want)
            assert [type(x) for x in got] == [type(x) for x in want]
            assert got[0][-1] == got[3] == math.inf and math.isfinite(got[1].max())


def test_pareto_kernel_enters_no_errstate_without_level_one(monkeypatch):
    # errstate costs more than the power of a 33-point refinement round; only a level of 1 needs it
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    d = Pareto(1.0, 2.0)
    d._kernel(np.linspace(0.0, 0.99, 33))
    d._kernel(np.array(0.5))
    d.quantile_left(np.linspace(0.9, 0.999, 33))
    negate_dist(d).quantile_left(np.linspace(0.001, 1.0, 33))  # its kernel reads 1 - u
    assert entered == []
    assert d._kernel(np.array([0.5, 1.0]))[-1] == math.inf
    assert entered == [{"divide": "ignore"}]


def test_default_order_check_reads_the_pair_nodes():
    f, g = Uniform(0.0, 1.0), Uniform(0.0, 1.5)
    memo = ordrisk.dist._per_pair
    memo.cache_clear()
    rep = check_st(f, g)
    assert memo.misses == 1
    nodes = memo(ordrisk.dist._merged_grid, (f, g), ordrisk.dist.DEFAULT_SCAN_N)
    assert memo.misses == 1 and rep.grid_size == nodes.size
    assert check_st(f, g, grid_size=512).grid_size < rep.grid_size


def test_per_pair_memo_evicts_past_its_bound():
    memo, grid = ordrisk.dist._per_pair, ordrisk.dist._merged_grid
    memo.cache_clear()
    bound = memo.maxsize
    assert bound == 16
    pairs = [(Uniform(0.0, 1.0), Uniform(0.0, 1.0 + k)) for k in range(bound + 1)]
    held = [memo(grid, pair, 64) for pair in pairs[:bound]]
    assert all(memo(grid, pair, 64) is arr for pair, arr in zip(pairs, held))
    assert memo.misses == bound
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
