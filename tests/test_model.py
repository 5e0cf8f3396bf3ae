import copy
import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from relayregions import (
    ChannelParams,
    Frontier,
    FrontierPoint,
    GdpcParams,
    GridSpec,
    InformedBothParams,
    OutOfRange,
    RatePoint,
    RelayRegionsError,
    SCHEMES,
    binary_pipes_spec,
    dmc_maximize,
    frontier,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    rho_upper_bound,
    sweep_snr,
    validate_gdpc,
    verify_gdpc,
)
from relayregions import dmc, gaussian, model, optimize
from relayregions.model import _scaled


def test_channel_params_roundtrip():
    c = ChannelParams(p1=2.0, p2=0.5, q=1.5, n1=0.2, n2=0.9)
    assert c.p1 == 2.0
    assert c.n2 == 0.9
    assert dataclasses.replace(c) == c


def test_channel_params_rejects_bad_powers():
    with pytest.raises(OutOfRange, match="p1 must be > 0"):
        ChannelParams(0.0, 1.0, 1.0, 0.1, 1.0)
    with pytest.raises(OutOfRange, match="n1 must be > 0"):
        ChannelParams(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(OutOfRange, match="n2 must be > 0"):
        ChannelParams(1.0, 1.0, 1.0, 0.1, 0.0)
    with pytest.raises(OutOfRange):
        ChannelParams(1.0, 1.0, 1.0, 0.1, float("nan"))
    with pytest.raises(OutOfRange, match="p2 must be >= 0"):
        ChannelParams(1.0, -0.1, 1.0, 0.1, 1.0)
    with pytest.raises(OutOfRange, match="q must be >= 0"):
        ChannelParams(1.0, 1.0, -2.0, 0.1, 1.0)


def test_channel_params_requires_noise_ordering():
    # the relay branch must be the cleaner one
    with pytest.raises(OutOfRange, match="need n1 < n2"):
        ChannelParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(OutOfRange, match="need n1 < n2"):
        ChannelParams(1.0, 1.0, 1.0, 2.0, 1.0)


SPAN = r"the nonzero powers may span at most 2\*\*500 \(about 1505 dB\), got "


@pytest.mark.parametrize(
    "powers, lo, hi",
    [
        # binary exponents -498 and 2 are 500 apart, -499 and 2 are 501
        ((1.0, 0.0, 0.0, 2.0**-499, 2.0), None, None),
        ((1.0, 0.0, 0.0, 2.0**-500, 2.0), 2.0**-500, 2.0),
        # a zero p2 or q is no power; a nonzero one counts, subnormal too
        ((1.0, 5e-324, 1.0, 0.1, 1.0), 5e-324, 1.0),
        ((1.0, 1.0, 2.0**600, 0.1, 1.0), 0.1, 2.0**600),
        ((2.0**-1074, 0.0, 0.0, 2.0**-1000, 2.0**-575), None, None),
    ],
)
def test_channel_powers_span_at_most_2_to_the_500(powers, lo, hi):
    if lo is None:
        ChannelParams(*powers)
    else:
        with pytest.raises(OutOfRange, match=SPAN + re.escape(f"{lo} to {hi}")):
            ChannelParams(*powers)


@pytest.mark.parametrize("k", [-1000, -2, 0, 2, 1000])
def test_scaled_powers_are_centred_by_an_even_power_of_two(k):
    c = ChannelParams(*(math.ldexp(v, k) for v in (1.0, 0.0, 3.0, 0.1, 1.0)))
    powers, shift = _scaled(c)
    assert shift % 2 == 0
    assert powers == tuple(math.ldexp(v, shift) for v in dataclasses.astuple(c))
    # the example channel itself needs no shift, and every multiple of it
    # by an even power of two lands on the same powers
    assert powers == (1.0, 0.0, 3.0, 0.1, 1.0) and shift == -k


def _fresh_scaling(c):
    """``_scaled(c)`` computed from c's fields as they are now."""
    fields = dataclasses.astuple(c)
    nonzero = [v for v in fields if v > 0.0]
    k = -(math.frexp(min(nonzero))[1] + math.frexp(max(nonzero))[1]) // 4 * 2
    return tuple(math.ldexp(v, k) for v in fields), k


def test_scaled_powers_are_never_stale():
    """A channel stores its scaled powers when built: every copy, a pickle
    round trip and a replace must read those of its own fields."""
    c = ChannelParams(3.0e-200, 0.0, 5.0e-190, 1.0e-201, 2.0e-199)
    copies = [
        copy.copy(c),
        copy.deepcopy(c),
        pickle.loads(pickle.dumps(c)),
        dataclasses.replace(c),
        dataclasses.replace(c, p1=7.0e-150),
        dataclasses.replace(c, p2=1.0e-195, n2=1.0e-170),
    ]
    assert _scaled(c)[1] != _scaled(copies[-1])[1]
    for other in (c, *copies):
        assert _scaled(other) == _fresh_scaling(other)


def test_errors_are_both_semantic_and_builtin():
    assert issubclass(OutOfRange, RelayRegionsError)
    assert issubclass(OutOfRange, ValueError)


def test_channel_params_frozen():
    c = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.p1 = 3.0


def test_rho_upper_bound():
    c = ChannelParams(1.0, 1.0, 2.0, 0.1, 1.0)
    assert rho_upper_bound(c, 0.0) == 1.0
    c = ChannelParams(1.0, 1.0, 0.4, 0.1, 1.0)
    assert rho_upper_bound(c, 0.2) == pytest.approx(0.5)
    assert rho_upper_bound(c, 1.0) == 0.0
    c0 = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    assert rho_upper_bound(c0, 0.3) == 0.0


@pytest.mark.parametrize("field", range(4))
def test_gdpc_params_unit_interval(field):
    vals = [0.5, 0.0, 0.5, 0.5]
    vals[field] = 1.2
    with pytest.raises(OutOfRange):
        GdpcParams(*vals)
    vals[field] = -0.01
    with pytest.raises(OutOfRange):
        GdpcParams(*vals)


def test_validate_gdpc_caps_rho():
    c = ChannelParams(1.0, 1.0, 0.4, 0.1, 1.0)
    validate_gdpc(c, GdpcParams(0.2, 0.5, 0.3, 0.3))
    with pytest.raises(OutOfRange):
        validate_gdpc(c, GdpcParams(0.2, 0.51, 0.3, 0.3))
    # a zero bound (gamma = 1, or q = 0) forces rho = 0, down to the
    # smallest positive float
    no_q = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    for chan, gamma in ((c, 1.0), (no_q, 0.2), (no_q, 1.0)):
        g = GdpcParams(gamma, 0.0, 0.3, 0.3)
        assert validate_gdpc(chan, g) is g
        for rho in (5e-324, 0.1):
            with pytest.raises(OutOfRange, match=r"rho must be <= 0\.0 for this channel"):
                validate_gdpc(chan, GdpcParams(gamma, rho, 0.3, 0.3))


def test_informed_both_params_bounds():
    InformedBothParams(0.0, 1.0)
    with pytest.raises(OutOfRange):
        InformedBothParams(-0.1, 0.5)
    with pytest.raises(OutOfRange):
        InformedBothParams(0.5, 1.5)


def test_rate_point_rejects_bad_values():
    with pytest.raises(OutOfRange):
        RatePoint(-0.01, 0.5)
    with pytest.raises(OutOfRange):
        RatePoint(0.5, float("nan"))
    with pytest.raises(OutOfRange):
        RatePoint(float("inf"), 0.0)


def test_rate_point_clamped():
    p = RatePoint.clamped(float("nan"), -3.0)
    assert p.r1 == 0.0 and p.r02 == 0.0
    p = RatePoint.clamped(0.25, 1.5)
    assert p.r1 == 0.25 and p.r02 == 1.5


def test_schemes_tuple():
    assert SCHEMES == ("gdpc", "dpc", "informed-both", "nostate-outer")


def _pt(gamma, r1, r02):
    return FrontierPoint(gamma, 0.0, 0.0, 0.0, RatePoint(r1, r02))


def test_frontier_valid():
    f = Frontier(
        "gdpc",
        (_pt(0.0, 0.0, 1.0), _pt(0.5, 0.4, 0.7), _pt(1.0, 0.9, 0.7)),
    )
    assert len(f.points) == 3


def test_frontier_rejects_unknown_scheme():
    with pytest.raises(OutOfRange):
        Frontier("magic", (_pt(0.0, 0.0, 1.0),))


def test_frontier_rejects_non_monotone():
    with pytest.raises(OutOfRange):
        Frontier("gdpc", (_pt(0.0, 0.5, 1.0), _pt(0.5, 0.5, 0.9)))
    with pytest.raises(OutOfRange):
        Frontier("gdpc", (_pt(0.0, 0.1, 0.5), _pt(0.5, 0.2, 0.6)))


def test_nan_gamma_rejected():
    with pytest.raises(OutOfRange):
        GdpcParams(math.nan, 0.0, 0.0, 0.0)


_C = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
# every entry that takes a bare knob in [0, 1], with the knob at v
_UNIT_KNOBS = {
    "GdpcParams.gamma": lambda v: GdpcParams(v, 0.0, 0.5, 0.5),
    "GdpcParams.rho": lambda v: GdpcParams(0.5, v, 0.5, 0.5),
    "GdpcParams.beta": lambda v: GdpcParams(0.5, 0.0, v, 0.5),
    "GdpcParams.alpha2": lambda v: GdpcParams(0.5, 0.0, 0.5, v),
    "InformedBothParams.gamma": lambda v: InformedBothParams(v, 0.5),
    "InformedBothParams.beta": lambda v: InformedBothParams(0.5, v),
    "nostate_terms.gamma": lambda v: nostate_terms(_C, v, 0.5),
    "nostate_terms.beta3": lambda v: nostate_terms(_C, 0.5, v),
    "max_beta_nostate": lambda v: max_beta_nostate(_C, v),
    "max_r02_gdpc": lambda v: max_r02_gdpc(_C, v),
    "frontier": lambda v: frontier(_C, "gdpc", [v]),
    # the residual interference power, read off the gdpc products
    "qprime.gamma": lambda v: gdpc_rates(_C, GdpcParams(v, 0.0, 0.0, 0.0)).qprime,
    "qprime.rho": lambda v: gdpc_rates(_C, GdpcParams(0.2, v, 0.0, 0.0)).qprime,
}


@pytest.mark.parametrize("entry", sorted(_UNIT_KNOBS))
@pytest.mark.parametrize("v", [-0.1, 1.1, math.nan, math.inf, -math.inf])
def test_unit_knob_out_of_range(entry, v):
    """One range check, one message, whichever entry the knob comes in by."""
    with pytest.raises(OutOfRange, match=r"must lie in \[0, 1\]"):
        _UNIT_KNOBS[entry](v)


@pytest.mark.parametrize("entry", sorted(_UNIT_KNOBS))
@pytest.mark.parametrize("v", [0.0, 1.0])
def test_unit_knob_edges_accepted(entry, v):
    _UNIT_KNOBS[entry](v)


_TINY = GridSpec(5, 5, 1, 0.5)
# each public computation that reads a channel and knobs
_ENTRIES = {
    "gdpc_rates": lambda c, g: gdpc_rates(c, g),
    "max_beta_nostate": lambda c, g: max_beta_nostate(c, g.gamma),
    "max_r02_gdpc": lambda c, g: max_r02_gdpc(c, g.gamma, _TINY),
    "frontier": lambda c, g: frontier(c, "gdpc", [g.gamma], _TINY),
}


@pytest.mark.parametrize(
    "kind, channel, knobs",
    [
        (np.float32, (1.3, 0.7, 2.1, 0.1, 1.0), (0.3, 0.2, 0.4, 0.5)),
        (np.float64, (1.3, 0.7, 2.1, 0.1, 1.0), (0.3, 0.2, 0.4, 0.5)),
        (int, (3, 1, 2, 1, 4), (0, 0, 1, 1)),
    ],
    ids=["float32", "float64", "int"],
)
def test_params_store_python_floats(kind, channel, knobs):
    """A channel and knobs built from numpy scalars or ints compute as the
    plain floats of the same values: a float32 field kept as float32
    computed in single precision."""
    c = ChannelParams(*map(kind, channel))
    g = GdpcParams(*map(kind, knobs))
    p = InformedBothParams(kind(knobs[0]), kind(knobs[2]))
    for params in (c, g, p):
        assert all(type(getattr(params, f.name)) is float for f in dataclasses.fields(params))
    plain_c = ChannelParams(*(float(kind(v)) for v in channel))
    plain_g = GdpcParams(*(float(kind(v)) for v in knobs))
    assert repr(c) == repr(plain_c) and repr(g) == repr(plain_g)
    for name, entry in _ENTRIES.items():
        assert repr(entry(c, g)) == repr(entry(plain_c, plain_g)), name


def test_float64_channel_at_extreme_powers_warns_nothing():
    # the channel spans 2^1993, so it is the typed error; numpy float64
    # fields warn nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match=SPAN):
            ChannelParams(*map(np.float64, (1e-300, 1.0, 1e300, 0.1, 1.0)))
        c = ChannelParams(*map(np.float64, (1e-75, 1.0, 1e75, 0.1, 1.0)))
        assert rho_upper_bound(c, 0.5) == 1.0


def _value_types():
    """One value of each slotted type, built by the calls that return them."""
    c = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
    g = GdpcParams(0.2, 0.3, 0.4, 0.5)
    front = frontier(c, "dpc", [0.0, 0.5])
    report = verify_gdpc(c, g)
    found = dmc_maximize(binary_pipes_spec(), denominator=4)
    return [
        g,
        InformedBothParams(0.3, 0.6),
        front.points[0].rate,
        front.points[0],
        front,
        GridSpec(steps_rho=5, steps_beta=7),
        max_r02_gdpc(c, 0.3, GridSpec(steps_rho=5, steps_beta=5, refine_iters=1)),
        sweep_snr(c, [10.0], "dpc")[0],
        report.details[0],
        report,
        binary_pipes_spec(),
        found.best,
        found,
        gaussian.build_cov_informed_both(c, InformedBothParams(0.3, 0.6)),
    ]


_VALUES = _value_types()


def _same(a, b) -> bool:
    """a and b hold the same fields, arrays compared by value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


# the eq=False types compare by identity, and a DmcOptResult holds one
_BY_IDENTITY = {"DmcSpec", "AuxJoint", "DmcOptResult", "CovarianceSystem"}


def _arrays(x):
    """Every array a value holds, through its nested values."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _arrays(getattr(x, f.name))
    elif isinstance(x, tuple):
        for y in x:
            yield from _arrays(y)
    elif isinstance(x, np.ndarray):
        yield x


# the routes that restore a value as it was, and replace, which builds it again
_COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}
_DUPLICATES = pytest.mark.parametrize(
    "duplicate", [*_COPIES.values(), dataclasses.replace], ids=[*_COPIES, "replace"]
)


def test_every_dataclass_but_one_is_a_slotted_value_type():
    """The one that stores prepared state beside its fields keeps a dict."""
    defined = {
        obj
        for module in (model, gaussian, optimize, dmc)
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    }
    slotted = {cls for cls in defined if "__slots__" in vars(cls)}
    assert slotted == {type(v) for v in _VALUES}
    assert defined - slotted == {ChannelParams}


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
class TestValueTypes:
    """Every value type but ``ChannelParams`` keeps its fields in slots and
    stays a frozen value: no instance dict, no assignment, and a copy of
    any kind holds the same fields."""

    def test_has_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == tuple(f.name for f in dataclasses.fields(value))

    def test_fields_cannot_be_assigned(self, value):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))

    @_DUPLICATES
    def test_copies_hold_the_same_value(self, value, duplicate):
        other = duplicate(value)
        assert _same(other, value)
        if type(value).__name__ not in _BY_IDENTITY:
            assert other == value and hash(other) == hash(value)

    @_DUPLICATES
    def test_copies_keep_their_arrays_read_only(self, value, duplicate):
        assert not any(x.flags.writeable for x in _arrays(duplicate(value)))


@pytest.mark.parametrize("duplicate", _COPIES.values(), ids=list(_COPIES))
def test_copied_spec_keeps_its_normalised_p_s_bits(duplicate):
    """A copy restores p_s as stored; ``replace`` builds a new spec, which
    divides by the sum again."""
    p_s = [0.4325152177214142, 0.5637771777263074, 0.0037076045522782953]
    d = dmc.DmcSpec((3, 1, 1, 1, 1, 1, 1), p_s, np.ones((3, 1, 1, 1, 1)))
    # the stored p_s, divided by its sum once more, moves a bit
    assert (d.p_s / d.p_s.sum()).tobytes() != d.p_s.tobytes()
    other = duplicate(d)
    assert other.p_s.tobytes() == d.p_s.tobytes()


@_DUPLICATES
@pytest.mark.parametrize(
    "cov",
    [
        gaussian.build_cov_informed_both(
            ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0), InformedBothParams(0.3, 0.6)
        ),
        gaussian.CovarianceSystem(("A", "B"), np.array([[1.0, 0.25], [0.25, 1.0]])),
    ],
    ids=["assembled", "checked"],
)
def test_copied_covariance_is_read_only_and_prepared_from_its_sigma(cov, duplicate):
    """A copy's sigma is read-only, and its terms read its own sigma."""
    other = duplicate(cov)
    assert other.labels == cov.labels and np.array_equal(other.sigma, cov.sigma)
    assert not other.sigma.flags.writeable
    a, b = cov.labels[-1], cov.labels[0]
    assert gaussian.gaussian_cmi(other, [a], [b]) == gaussian.gaussian_cmi(cov, [a], [b])


def test_replace_checks_the_new_value():
    # replace builds through __init__, so __post_init__ checks the result
    with pytest.raises(OutOfRange, match="rho must lie in"):
        dataclasses.replace(GdpcParams(0.2, 0.3, 0.4, 0.5), rho=1.5)
