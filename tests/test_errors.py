"""Input errors and the public surface.

Every input outside its domain, and every workload over its budget,
raises OutOfRange, which is both a RelayRegionsError and a ValueError.
SingularSubmatrix is the one other error type: a determinant the oracle
needs vanished.
"""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import relayregions
from relayregions import (
    AuxJoint,
    ChannelParams,
    DmcSpec,
    GdpcParams,
    GridSpec,
    OutOfRange,
    RelayRegionsError,
    SingularSubmatrix,
    binary_pipes_spec,
    cap_c,
    dmc_maximize,
    eval_informed_both,
    frontier,
    gdpc_rates,
    nostate_terms,
    rho_upper_bound,
    sweep_snr,
)
from relayregions import cli, dmc, gaussian, model, optimize, rates
from relayregions.dmc import AXES
from relayregions.gaussian import CovarianceSystem
from relayregions.optimize import DEFAULT_GRID

_TWO_STATES = dict(sizes=(2, 1, 1, 1, 1, 1, 1), channel=np.ones((2, 1, 1, 1, 1)))
# powers that span 2**1993, where gamma*p1/n1 overflows at any gamma
# above about 1e-292 in the powers as given
_HUGE_SNR = (1e300, 1.0, 1.0, 1e-300, 2e-300)
_SPAN = "the nonzero powers may span at most 2**500 (about 1505 dB), got"

# one row per domain or budget check, with the message it raises
REJECTIONS = [
    ("p1", lambda: ChannelParams(0.0, 1.0, 1.0, 0.1, 1.0), "p1 must be > 0, got 0.0"),
    ("n1", lambda: ChannelParams(1.0, 1.0, 1.0, 0.0, 1.0), "n1 must be > 0, got 0.0"),
    ("n2", lambda: ChannelParams(1.0, 1.0, 1.0, 0.1, -1.0), "n2 must be > 0, got -1.0"),
    ("p2", lambda: ChannelParams(1.0, -1.0, 1.0, 0.1, 1.0), "p2 must be >= 0, got -1.0"),
    ("q", lambda: ChannelParams(1.0, 1.0, -2.0, 0.1, 1.0), "q must be >= 0, got -2.0"),
    (
        "n1<n2",
        lambda: ChannelParams(1.0, 1.0, 1.0, 1.0, 0.5),
        "need n1 < n2 (far branch noisier), got n1=1.0, n2=0.5",
    ),
    ("span", lambda: ChannelParams(1.0, 0.0, 0.0, 2.0**-500, 2.0), f"{_SPAN} 3.054936363499605e-151 to 2.0"),
    ("cap_c", lambda: cap_c(-1e-9), "cap_c argument must be >= 0, got -1e-09"),
    ("cap_c-inf", lambda: cap_c(math.inf), "cap_c argument must be finite, got inf"),
    # min(1.0, nan) is 1.0, so an unchecked nan gamma read as a full bound
    *(
        (
            f"rho_upper_bound-{gamma}",
            lambda gamma=gamma: rho_upper_bound(ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0), gamma),
            f"gamma must lie in [0, 1], got {gamma}",
        )
        for gamma in (math.nan, -1.0, 2.0, math.inf)
    ),
    # nan fails every comparison, so an x < 0 test would let it through
    ("cap_c-nan", lambda: cap_c(float("nan")), "cap_c argument must be >= 0, got nan"),
    # the four channels below span more than 2**500, and their closed
    # forms leave the float range in the powers as given
    (
        "nostate_terms",
        lambda: nostate_terms(ChannelParams(1e308, 1e308, 1.0, 0.25, 1.5e308), 0.0, 0.5),
        f"{_SPAN} 0.25 to 1.5e+308",
    ),
    (
        "nostate_terms-nan",
        lambda: nostate_terms(ChannelParams(1.7e308, 1.7e308, 1.0, 5e-324, 1.7e308), 0.5, 0.5),
        f"{_SPAN} 5e-324 to 1.7e+308",
    ),
    (
        "gdpc_rates-private",
        lambda: gdpc_rates(ChannelParams(*_HUGE_SNR), GdpcParams(1.0, 0.0, 0.0, 0.0)),
        f"{_SPAN} 1e-300 to 1e+300",
    ),
    (
        "frontier-private",
        lambda: frontier(ChannelParams(*_HUGE_SNR), "dpc", [1.0]),
        f"{_SPAN} 1e-300 to 1e+300",
    ),
    ("p_s-sum", lambda: DmcSpec((1,) * 7, [0.9], [[[[[1.0]]]]]), "p_s must sum to 1 within 1e-12"),
    ("p_s-sign", lambda: DmcSpec(p_s=[1.5, -0.5], **_TWO_STATES), "p_s has negative entries"),
    (
        "state-law",
        lambda: eval_informed_both(
            DmcSpec(p_s=[0.5, 0.5], **_TWO_STATES), AuxJoint(np.reshape([0.9, 0.1], (2, 1, 1, 1, 1)))
        ),
        "aux joint marginal over s must equal p_s",
    ),
    (
        "budget",
        lambda: dmc_maximize(DmcSpec((2, 4, 4, 4, 4, 1, 1), [0.5, 0.5], np.ones((2, 4, 4, 1, 1)))),
        "259947629107353817789888594944 candidate strategies of 512 joint cells each exceed "
        "the budget of 67108864 joint cells",
    ),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS])
def test_rejection_is_out_of_range(call, message):
    with pytest.raises(OutOfRange) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, RelayRegionsError)


_EXAMPLE = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
_SMALL_GRID = GridSpec(steps_rho=5, steps_beta=5, refine_iters=1)
# each choice argument, called on a value, and two of its choices
_CHOICES = {
    "frontier-scheme": (lambda x: frontier(_EXAMPLE, x, [0.5], _SMALL_GRID), ("gdpc", "dpc")),
    "sweep_snr-scheme": (lambda x: sweep_snr(_EXAMPLE, [10.0], x, _SMALL_GRID), ("gdpc", "dpc")),
    "dmc_maximize-objective": (
        lambda x: dmc_maximize(binary_pipes_spec(), denominator=4, objective=x),
        ("r1", "r02"),
    ),
    "dmc_maximize-bounds": (
        lambda x: dmc_maximize(binary_pipes_spec(), bounds=x, denominator=4),
        ("informed-both", "informed-source"),
    ),
}


@pytest.mark.parametrize("size", [2, 1])
@pytest.mark.parametrize("name", list(_CHOICES))
def test_choice_given_as_an_array_is_out_of_range(name, size):
    """An array compares elementwise, so ``in`` reads a 1-element array of
    a choice as that choice; it is no choice. A numpy string is one."""
    call, choices = _CHOICES[name]
    value = np.array(choices[:size])
    with pytest.raises(OutOfRange, match=re.escape(repr(value))):
        call(value)
    call(np.str_(choices[0]))


@pytest.mark.parametrize("name", list(_CHOICES))
def test_choice_given_as_a_numpy_string_is_kept_as_str(name):
    # the result holds the choice as a plain str, so it reads as the same
    # call made with one (a np.str_ keeps its own repr)
    call, choices = _CHOICES[name]
    assert repr(call(np.str_(choices[0]))) == repr(call(choices[0]))


def test_gdpc_rates_answers_where_products_leave_the_float_range():
    # a = b = c = d = 1e600 in the caller's scale read +inf; the rates are
    # those of the channel scaled to k = 0, bit for bit
    c, g = ChannelParams(1e300, 1e300, 1e300, 1e300, 2e300), GdpcParams(0.5, 0.0, 0.5, 0.5)
    powers, k = model._scaled(c)
    got, want = gdpc_rates(c, g), gdpc_rates(ChannelParams(*powers), g)
    assert repr(got[:3]) == repr(want[:3])
    assert got[3:] == (math.inf, math.inf, math.inf, math.inf, math.ldexp(want.qprime, -k))


def test_three_error_types():
    defined = {
        cls
        for module in (cli, dmc, gaussian, model, optimize, rates)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    }
    assert defined == {RelayRegionsError, OutOfRange, SingularSubmatrix}


def _named(node) -> set:
    """Every name a node reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_src_holds_only_what_the_package_runs():
    # a top-level function or class is exported, or named somewhere in
    # src/ outside its own definition; a helper only tests call belongs
    # with the tests
    tops = [
        (path.stem, node)
        for path in sorted(Path(relayregions.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{module}.{node.name}"
        for module, node in tops
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in relayregions.__all__
        and not any(node.name in _named(other) for _, other in tops if other is not node)
    ]
    assert unused == []


def test_public_surface():
    assert set(relayregions.__all__) == {
        "AuxJoint",
        "ChannelParams",
        "DmcSpec",
        "Frontier",
        "FrontierPoint",
        "GdpcParams",
        "GridSpec",
        "InformedBothParams",
        "OptResult",
        "OutOfRange",
        "RatePoint",
        "RelayRegionsError",
        "SCHEMES",
        "SingularSubmatrix",
        "TermCheck",
        "VerifyReport",
        "binary_pipes_spec",
        "build_cov_informed_both",
        "build_cov_informed_source",
        "cap_c",
        "discrete_cmi",
        "dmc_maximize",
        "eval_informed_both",
        "eval_informed_source",
        "frontier",
        "gaussian_cmi",
        "gdpc_rates",
        "max_beta_nostate",
        "max_r02_gdpc",
        "nostate_terms",
        "rho_upper_bound",
        "sample_mi_estimate",
        "sweep_snr",
        "validate_gdpc",
        "verify_gdpc",
        "verify_informed_both",
        "verify_relay_identity",
        "__version__",
    }
    # names only tests use stay importable from their modules (above)
    dropped = {
        "AXES": AXES,
        "CovarianceSystem": CovarianceSystem,
        "DEFAULT_GRID": DEFAULT_GRID,
    }
    assert not [name for name in dropped if hasattr(relayregions, name)]
