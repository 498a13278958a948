"""One table of every public entry point that takes a level, a level window or a count.

Levels are real numbers (numpy's included) inside the entry's interval, and a
window has p < q; counts are integers (numpy's included) of at least the
entry's minimum, so an integral float such as 100.0 is refused too, and so is a
bool, which Python counts as the integer 0 or 1. Anything else raises a
DomainError, and a numpy level or count gives the same result as the plain float
or int.
"""

import math

import numpy as np
import pytest

from ordrisk import bounds as B
from ordrisk.cli import entry
from ordrisk.coupling import TransportEvaluator, dl_plan_discrete, dl_sum_cdf, sample_coupling
from ordrisk.dist import (
    Normal,
    Pareto,
    Uniform,
    check_ss,
    check_st,
    empirical_from_samples,
    es_eval,
    isotonic_pair_projection,
    lower_tail,
    rvar_eval,
    to_grid,
    upper_tail,
)
from ordrisk.errors import DomainError
from ordrisk.oracle import (
    comonotone_es,
    conditional_tail_ss_check,
    grid_convergence,
    ra_unconstrained_var,
)

PF, PG = Pareto(1.0, 1.0), Pareto(2.0, 1.0)
N01 = Normal(0.0, 1.0)
_SAMPLES = np.arange(10, dtype=float)
_TOP_HALF = _SAMPLES >= 5.0  # the 5 = ceil((1 - 0.5) * 10) largest samples
_E = empirical_from_samples([1.0, 2.0])


def _plain(x):
    """A result as nested lists and dicts of Python values, for ``==``.

    An array is its dtype, shape and bytes, so two results are equal only bit for
    bit (-0.0 is not 0.0), and a table that ends in a NaN node equals its copy.
    """
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    fields = getattr(x, "__slots__", None) or getattr(x, "__dict__", None)
    if fields is not None:
        return {k: _plain(getattr(x, k)) for k in fields}
    return x


# entry -> call at level p; every interval holds 0.5
LEVELS = {
    "worst_var_constrained": lambda p: B.worst_var_constrained(PF, PG, p),
    "best_var_constrained": lambda p: B.best_var_constrained(PF, PG, p),
    "worst_var_unconstrained": lambda p: B.worst_var_unconstrained(PF, PG, p),
    "best_var_unconstrained": lambda p: B.best_var_unconstrained(PF, PG, p),
    "worst_es_constrained": lambda p: B.worst_es_constrained(PF, PG, p),
    "best_es_constrained": lambda p: B.best_es_constrained(PF, PG, p, grid_n=100),
    "best_es_unconstrained": lambda p: B.best_es_unconstrained(PF, PG, p, grid_n=100),
    "dl_sum_var": lambda p: B.dl_sum_var(PF, PG, p, grid_n=100),
    "ct_sum_var": lambda p: B.ct_sum_var(PF, PG, p, grid_n=100),
    "report_var": lambda p: B.bound_report(PF, PG, "var", p=p),
    "report_es": lambda p: B.bound_report(PF, PG, "es", p=p, grid_n=100),
    "es_eval": lambda p: es_eval(PF, p),
    "upper_tail": lambda p: upper_tail(N01, p, grid_n=100),
    "lower_tail": lambda p: lower_tail(N01, p, grid_n=100),
    "TransportEvaluator": lambda p: TransportEvaluator(PF, PG, p=p).p,
    "ra_unconstrained_var": lambda p: ra_unconstrained_var(PF, PG, p, 100),
    "comonotone_es": lambda p: comonotone_es(PF, PG, p, grid_n=100),
    "conditional_tail_ss_check": lambda p: conditional_tail_ss_check(_SAMPLES, _TOP_HALF, p),
}

# entry -> call on the window (p, q); every interval holds (0.5, 0.9)
WINDOWS = {
    "worst_rvar_constrained": lambda p, q: B.worst_rvar_constrained(PF, PG, p, q, grid_n=100),
    "best_rvar_constrained": lambda p, q: B.best_rvar_constrained(PF, PG, p, q, grid_n=100),
    "worst_rvar_unconstrained": lambda p, q: B.worst_rvar_unconstrained(PF, PG, p, q, grid_n=100),
    "best_rvar_unconstrained": lambda p, q: B.best_rvar_unconstrained(PF, PG, p, q, grid_n=100),
    "report_rvar": lambda p, q: B.bound_report(PF, PG, "rvar", p=p, q=q, grid_n=100),
    "rvar_eval": lambda p, q: rvar_eval(PF, p, q),
    "dl_plan_discrete": lambda p, q: dl_plan_discrete(PF, PG, 100, p, q=q),
}

# entry -> (call at count n, least count); the valid count is 100, for a seed 7
COUNTS = {
    "to_grid": (lambda n: to_grid(N01, n), 2),
    "upper_tail": (lambda n: upper_tail(N01, 0.5, grid_n=n), 2),
    "lower_tail": (lambda n: lower_tail(N01, 0.5, grid_n=n), 2),
    "check_st": (lambda n: check_st(PF, PG, grid_size=n), 2),
    "check_ss": (lambda n: check_ss(PF, PG, grid_size=n), 2),
    "conditional_tail_ss_check": (
        lambda n: conditional_tail_ss_check(_SAMPLES, _TOP_HALF, 0.5, grid_size=n),
        2,
    ),
    "best_es_constrained": (lambda n: B.best_es_constrained(PF, PG, 0.9, grid_n=n), 1),
    "best_es_unconstrained": (lambda n: B.best_es_unconstrained(PF, PG, 0.9, grid_n=n), 1),
    "worst_rvar_constrained": (lambda n: B.worst_rvar_constrained(PF, PG, 0.5, 0.9, grid_n=n), 1),
    "best_rvar_constrained": (lambda n: B.best_rvar_constrained(PF, PG, 0.5, 0.9, grid_n=n), 1),
    "worst_rvar_unconstrained": (
        lambda n: B.worst_rvar_unconstrained(PF, PG, 0.5, 0.9, grid_n=n),
        1,
    ),
    "best_rvar_unconstrained": (
        lambda n: B.best_rvar_unconstrained(PF, PG, 0.5, 0.9, grid_n=n),
        1,
    ),
    "dl_sum_var": (lambda n: B.dl_sum_var(PF, PG, 0.9, grid_n=n), 1),
    "ct_sum_var": (lambda n: B.ct_sum_var(PF, PG, 0.9, grid_n=n), 1),
    "ct_sum_cdf": (lambda n: B.ct_sum_cdf(PF, PG, 8.0, grid_n=n), 1),
    "report_var": (lambda n: B.bound_report(PF, PG, "var", p=0.9, grid_n=n), 1),
    "report_prob": (lambda n: B.bound_report(PF, PG, "prob", t=8.0, grid_n=n), 1),
    "report_essinf": (lambda n: B.bound_report(PF, PG, "essinf", grid_n=n), 1),
    "report_es": (lambda n: B.bound_report(PF, PG, "es", p=0.9, grid_n=n), 1),
    "dl_plan_discrete": (lambda n: dl_plan_discrete(PF, PG, n), 1),
    "sample_size": (lambda n: sample_coupling(PF, PG, "dl", n, 7, plan_n=100), 1),
    "sample_seed": (lambda n: sample_coupling(PF, PG, "dl", 10, n, plan_n=100), 0),
    "sample_plan_n": (lambda n: sample_coupling(PF, PG, "comonotone", 10, 7, plan_n=n), 1),
    "ra_unconstrained_var": (lambda n: ra_unconstrained_var(PF, PG, 0.9, n), 2),
    "comonotone_es": (lambda n: comonotone_es(PF, PG, 0.9, grid_n=n), 2),
    "grid_convergence": (lambda n: grid_convergence(lambda u, m: u / m, [0.5, 0.9], n), 1),
}

# entry -> a call with a bool where a threshold, level or count goes; each returned a value
BOOLS = {
    "prob_lower_t": lambda: B.prob_lower(PF, PG, True),
    "report_prob_t": lambda: B.bound_report(PF, PG, "prob", t=True),
    "best_es_constrained_grid_n": lambda: B.best_es_constrained(PF, PG, 0.9, grid_n=True),
    "sample_size_seed": lambda: sample_coupling(PF, PG, "dl", True, False, plan_n=100),
    "dl_plan_discrete_window": lambda: dl_plan_discrete(PF, PG, 10, False, q=True),
    "dl_sum_cdf_array": lambda: dl_sum_cdf(dl_plan_discrete(PF, PG, 10), np.array([True])),
    # tol=True read as 1 passed a pair whose violation is 1/3
    "check_st_tol": lambda: check_st(Uniform(0.0, 1.5), Uniform(0.0, 1.0), tol=True),
    "check_ss_tol": lambda: check_ss(Uniform(0.0, 1.5), Uniform(0.0, 1.0), tol=True),
    "conditional_tail_ss_check_tol": lambda: conditional_tail_ss_check(_SAMPLES, _TOP_HALF, 0.5, tol=True),
}

BAD_LEVELS = ["0.5", None, math.nan, 1.5, -0.5, [0.5], np.array(0.5), 0.5 + 0j]


@pytest.mark.parametrize("p", BAD_LEVELS, ids=repr)
@pytest.mark.parametrize("entry", sorted(LEVELS))
def test_levels_refused(entry, p):
    with pytest.raises(DomainError, match="level"):
        LEVELS[entry](p)


@pytest.mark.parametrize("entry", sorted(LEVELS))
def test_numpy_levels_taken(entry):
    assert _plain(LEVELS[entry](np.float64(0.5))) == _plain(LEVELS[entry](0.5))


@pytest.mark.parametrize(
    "p, q",
    [(p, 0.9) for p in BAD_LEVELS] + [(0.5, q) for q in BAD_LEVELS] + [(0.9, 0.5), (0.5, 0.5)],
    ids=repr,
)
@pytest.mark.parametrize("entry", sorted(WINDOWS))
def test_windows_refused(entry, p, q):
    with pytest.raises(DomainError, match="level"):
        WINDOWS[entry](p, q)


@pytest.mark.parametrize("entry", sorted(WINDOWS))
def test_numpy_windows_taken(entry):
    got = WINDOWS[entry](np.float64(0.5), np.float64(0.9))
    assert _plain(got) == _plain(WINDOWS[entry](0.5, 0.9))


@pytest.mark.parametrize("n", ["100", 2.5, 100.0, None, math.nan, math.inf, "least - 1"], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_counts_refused(entry, n):
    call, least = COUNTS[entry]
    with pytest.raises(DomainError, match="integer"):
        call(least - 1 if n == "least - 1" else n)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_numpy_counts_taken(entry):
    call, least = COUNTS[entry]
    n = 7 if least == 0 else 100
    assert _plain(call(np.int64(n))) == _plain(call(n))


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_integral_float_refused_after_its_int(entry):
    # the memos are typed, so 100.0 is not served the entry that 100 built
    call, least = COUNTS[entry]
    n = 7 if least == 0 else 100
    call(n)
    with pytest.raises(DomainError, match="integer"):
        call(float(n))


@pytest.mark.parametrize("entry", sorted(BOOLS))
def test_bools_refused(entry):
    with pytest.raises(DomainError, match="real number|integer|level"):
        BOOLS[entry]()


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_st(PF, PG, tol="x"),
        lambda: check_ss(PF, PG, tol="1e-9"),
        lambda: check_st(PF, PG, tol=math.nan),
        # an infinite tolerance passed every pair
        lambda: check_st(Uniform(0.0, 1.5), Uniform(0.0, 1.0), tol=math.inf),
        lambda: check_ss(Uniform(0.0, 1.5), Uniform(0.0, 1.0), tol=np.inf),
        lambda: conditional_tail_ss_check(_SAMPLES, _TOP_HALF, 0.5, tol=math.inf),
        lambda: isotonic_pair_projection(_E, _E, w_f="1"),
        lambda: isotonic_pair_projection(_E, _E, w_g=None),
    ],
    ids=[
        "check_st-str",
        "check_ss-str",
        "check_st-nan",
        "check_st-inf",
        "check_ss-inf",
        "conditional_tail_ss_check-inf",
        "projection-w_f",
        "projection-w_g",
    ],
)
def test_non_real_tolerances_and_weights_refused(call):
    with pytest.raises(DomainError, match="real number"):
        call()


@pytest.mark.parametrize("tol", [-1.0, -1e-300, -np.inf, np.float64(-0.5)], ids=repr)
@pytest.mark.parametrize("check", [check_st, check_ss])
def test_negative_tolerances_refused(check, tol):
    # tol = -1 used to fail every pair with a violation of 0
    with pytest.raises(DomainError, match="at least 0"):
        check(PF, PG, tol=tol)
    assert check(PF, PG, tol=0.0).holds


def test_tolerance_none_is_the_default():
    for check in (check_st, check_ss):
        assert _plain(check(PF, PG, tol=None)) == _plain(check(PF, PG, tol=1e-9))


@pytest.mark.parametrize("jitter", ["no", 1, None], ids=repr)
def test_non_bool_jitter_refused(jitter):
    # jitter="no" turned jittering on
    with pytest.raises(DomainError, match="bool"):
        sample_coupling(PF, PG, "dl", 10, 7, jitter=jitter, plan_n=100)


@pytest.mark.parametrize("kind", ["comonotone", "countermonotone"])
def test_jitter_refused_outside_dl_in_the_library(kind):
    # these draws have no plan cells to jitter in, and jitter=True was ignored
    with pytest.raises(DomainError, match="jitter"):
        sample_coupling(PF, PG, kind, 10, 7, jitter=True)
    assert sample_coupling(PF, PG, kind, 10, 7, jitter=False).size == 10


@pytest.mark.parametrize("kind", ["comonotone", "countermonotone"])
def test_jitter_flag_refused_outside_dl(kind, tmp_path, capsys):
    # those draws never read it, and the run exited 0
    out = tmp_path / "out"
    marg = ["--margF", "uniform:0,1", "--margG", "uniform:0,1.5"]
    assert entry(["sample", *marg, "--kind", kind, "--size", "10", "--jitter", "--out", str(out)]) == 2
    assert "--jitter is read by --kind dl only" in capsys.readouterr().err
    assert not out.exists()
