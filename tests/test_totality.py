"""Totality over the domain: on every legal channel, every computing
entry returns finite, non-negative rates or raises a RelayRegionsError,
without a numpy warning. Gaussian rows are raw floats, so building the
channel is part of the property: half of them hold the five powers within
two decades of one scale in 1e-300..1e300, inside the span bound, and the
other half draw each power on its own over that range, where most spread
past it. Inside the bound an entry must answer: the only error left is a
``sweep_snr`` row whose n1 leaves the domain, and ``gdpc_rates`` reports
a product past the float range in the caller's scale as +inf. This
is what guards the float-range checks the closed forms no longer make.
Discrete specs have alphabets of 1 to 3 symbols, p_s entries of 0 or the
smallest subnormal, and channel rows that hold zeros.

The type axis calls each public float argument, and one entry of each
public array argument, with values of other types: a real number that is
not a float (a numpy scalar or a Fraction) answers as float(value) does,
and every other value (a bool, text, None, a complex, an integer past
float range, a list) raises OutOfRange. A list entry makes an array
ragged, which is OutOfRange too. Valid arrays are stored as the same
float array whether they come as nested lists or as ndarrays."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayregions import (
    SCHEMES,
    AuxJoint,
    ChannelParams,
    DmcSpec,
    GdpcParams,
    GridSpec,
    InformedBothParams,
    OutOfRange,
    RatePoint,
    RelayRegionsError,
    TermCheck,
    VerifyReport,
    cap_c,
    discrete_cmi,
    dmc_maximize,
    frontier,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    rho_upper_bound,
    sweep_snr,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)

from relayregions.gaussian import CovarianceSystem

from references import PROPERTY

# three 5 x 5 gdpc rows share one pass, so a pass closes several rows
SMALL = GridSpec(5, 5, 2, 0.25)
SPAN = "the nonzero powers may span at most 2**500"


@st.composite
def extreme_rows(draw):
    """Raw channel powers (p1, p2, q, n1, n2) and four knobs in [0, 1].
    The continuous fields come from a generator seeded by one draw, so
    they are generic rather than the bounds that derandomized float draws
    favour; the scale's shape, the edge values of p2 and q (0, and on
    wide rows 5e-324) and the knob edges 0, 5e-324, 1 - 2^-53 and 1 are
    explicit branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if near := draw(st.booleans()):
        exponents = rng.uniform(-298.0, 298.0) + rng.uniform(-2.0, 2.0, 4)
    else:
        exponents = rng.uniform(-300.0, 300.0, 4)
    p1, p2, q, n1 = (10.0**exponents).tolist()
    # a subnormal p2 or q would take most near-scale rows past the bound
    p2 = draw(st.sampled_from([0.0, p2] if near else [0.0, 5e-324, p2]))
    q = draw(st.sampled_from([0.0, q] if near else [0.0, 5e-324, q]))
    n2 = n1 * (1.0 + 10.0 ** rng.uniform(-12.0, 8.0))
    knobs = [draw(st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53, 1.0, u])) for u in rng.uniform(size=4)]
    return (p1, p2, q, n1, n2), knobs


def _assert_rates(values):
    for v in values:
        assert math.isfinite(v) and v >= 0.0, values


def _total(call, inside=False, allowed=()):
    """Run ``call`` under warnings-as-errors. A RelayRegionsError is an
    answer, except inside the span bound, where only an error whose
    message starts with one of ``allowed`` is; any other exception fails
    the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except RelayRegionsError as e:
            assert not inside or str(e).startswith(allowed), e
            return None


def _channel(powers):
    """The channel of ``powers``, or None where it spans more than 2^500,
    the one way a drawn row leaves the domain."""
    return _total(lambda: ChannelParams(*powers), inside=True, allowed=SPAN)


@settings(PROPERTY, max_examples=400)
@given(extreme_rows())
def test_search_entries_answer_or_raise_typed(row):
    powers, (gamma, *_) = row
    c = _channel(powers)
    if c is None:
        return
    for scheme in SCHEMES:
        f = _total(lambda: frontier(c, scheme, [0.0, gamma, 1.0], SMALL), inside=True)
        _assert_rates([v for p in f.points for v in (p.rate.r1, p.rate.r02)])
    res = _total(lambda: max_r02_gdpc(c, gamma, SMALL), inside=True)
    _assert_rates([res.value, *(entry[3] for entry in res.trace)])


@settings(PROPERTY, max_examples=400)
@given(extreme_rows())
def test_closed_forms_answer_or_raise_typed(row):
    powers, (gamma, rho, beta, alpha2) = row
    c = _channel(powers)
    if c is None:
        return
    g = GdpcParams(gamma, rho * rho_upper_bound(c, gamma), beta, alpha2)
    r = _total(lambda: gdpc_rates(c, g), inside=True)
    _assert_rates(r[:3])
    # a product past the float range in the caller's scale reads +inf
    assert all(v >= 0.0 for v in r[3:]), r
    _assert_rates(_total(lambda: nostate_terms(c, gamma, beta), inside=True))
    split, value = _total(lambda: max_beta_nostate(c, gamma), inside=True)
    assert 0.0 <= split <= 1.0
    _assert_rates([value])


@settings(PROPERTY, max_examples=100)
@given(extreme_rows(), st.floats(-3000.0, 3000.0))
def test_sweep_snr_answers_or_raises_typed(row, snr):
    powers, _ = row
    c = _channel(powers)
    if c is None:
        return
    for scheme in SCHEMES:
        rows = _total(
            lambda: sweep_snr(c, [snr], scheme, SMALL), inside=True, allowed=(SPAN, "snr_db ")
        )
        if rows is not None:
            _assert_rates([r.rate for r in rows if not r.skipped])


@st.composite
def small_dmc_specs(draw):
    """A spec with at most 2,000 strategies at denominator 4. The sizes,
    p_s and the channel come from a generator seeded by one draw; whether
    p_s holds a 0 or a subnormal and whether channel rows hold zeros are
    explicit branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        sizes = rng.integers(1, 4, size=7).tolist()
        if math.comb(math.prod(sizes[1:5]) + 3, 4) ** sizes[0] <= 2000:
            break
    ns, _, _, nx1, nx2, ny1, ny2 = sizes
    p_s = rng.dirichlet(np.ones(ns))
    if ns > 1:
        p_s[0] = draw(st.sampled_from([0.0, 5e-324, p_s[0]]))
        p_s[1:] *= (1.0 - p_s[0]) / p_s[1:].sum()
    rows = rng.dirichlet(np.ones(ny1 * ny2), size=(ns, nx1, nx2))
    if draw(st.booleans()):
        # zero a random half of each row, never its largest entry
        keep = (rng.uniform(size=rows.shape) < 0.5) | (rows == rows.max(axis=-1, keepdims=True))
        rows = np.where(keep, rows, 0.0)
        rows /= rows.sum(axis=-1, keepdims=True)
    return DmcSpec(sizes=tuple(sizes), p_s=p_s, channel=rows.reshape(ns, nx1, nx2, ny1, ny2))


@settings(PROPERTY, max_examples=150)
@given(small_dmc_specs())
def test_dmc_maximize_answers_or_raises_typed(d):
    for bounds in ("informed-source", "informed-both"):
        for objective in ("r02", "r1"):
            res = _total(lambda: dmc_maximize(d, bounds, 4, objective))
            if res is not None:
                _assert_rates([res.value.r1, res.value.r02])


def _slots(cls, base):
    """One entry per field of cls: the value in that field, base elsewhere."""
    return {
        f"{cls.__qualname__}.{i}": lambda x, i=i: cls(*base[:i], x, *base[i + 1:])
        for i in range(len(base))
    }


_C = ChannelParams(1.0, 1.0, 1.0, 0.1, 2.0)
_G = GdpcParams(0.2, 0.3, 0.4, 0.5)
_P = InformedBothParams(0.5, 0.5)
# every public float argument, as a call of the one value it varies
TYPE_ENTRIES = {
    **_slots(ChannelParams, (1.0, 1.0, 1.0, 0.1, 2.0)),
    **_slots(GdpcParams, (0.5, 0.0, 0.5, 0.5)),
    **_slots(InformedBothParams, (0.5, 0.5)),
    **_slots(RatePoint, (0.5, 0.5)),
    **_slots(RatePoint.clamped, (0.5, 0.5)),
    "GridSpec.refine_shrink": lambda x: GridSpec(5, 5, 2, x),
    "cap_c": cap_c,
    "rho_upper_bound": lambda x: rho_upper_bound(_C, x),
    "nostate_terms.gamma": lambda x: nostate_terms(_C, x, 0.5),
    "nostate_terms.beta3": lambda x: nostate_terms(_C, 0.5, x),
    "max_beta_nostate": lambda x: max_beta_nostate(_C, x),
    "max_r02_gdpc": lambda x: max_r02_gdpc(_C, x, SMALL),
    "frontier": lambda x: frontier(_C, "gdpc", [x], SMALL),
    "sweep_snr": lambda x: sweep_snr(_C, [x], "dpc", SMALL),
    "verify_gdpc": lambda x: verify_gdpc(_C, _G, x),
    "verify_informed_both": lambda x: verify_informed_both(_C, _P, x),
    "verify_relay_identity": lambda x: verify_relay_identity(_C, _P, x),
    "VerifyReport": lambda x: VerifyReport("t", x, (TermCheck("t", 0.5, 0.5),)),
}


def _stored(x):
    """What an array entry stores or returns, as exact Python floats."""
    return x.tolist() if isinstance(x, np.ndarray) else x


_SIZES = (2, 1, 1, 1, 1, 1, 2)
# every public array argument: (a call of the array it varies, what that
# call stores or returns; a valid array of fractions; one of integers)
ARRAYS = {
    "DmcSpec.p_s": (lambda a: DmcSpec(_SIZES, a, [[[[[1, 0]]]]] * 2).p_s,
                    [0.5, 0.5], [1, 0]),
    "DmcSpec.channel": (lambda a: DmcSpec(_SIZES, [0.5, 0.5], a).channel,
                        [[[[[0.5, 0.5]]]], [[[[0.25, 0.75]]]]], [[[[[1, 0]]]], [[[[0, 1]]]]]),
    "AuxJoint.pmf": (lambda a: AuxJoint(a).pmf,
                     [[[[[0.5]]]], [[[[0.5]]]]], [[[[[1]]]], [[[[0]]]]]),
    "discrete_cmi": (lambda a: discrete_cmi(a, ("a", "b"), ("a",), ("b",)),
                     [[0.5, 0.25], [0.0, 0.25]], [[1, 0], [0, 0]]),
    "CovarianceSystem.sigma": (lambda a: CovarianceSystem(("a", "b"), a).sigma,
                               [[0.5, 0.25], [0.25, 1.0]], [[2, 1], [1, 2]]),
}


def _first_entry(nested, x):
    """nested lists with their first entry replaced by x"""
    return [_first_entry(nested[0], x), *nested[1:]] if isinstance(nested, list) else x


# the first entry of each array argument, as a call of the one value it varies
ARRAY_ENTRIES = {
    name: lambda x, call=call, base=base: _stored(call(_first_entry(base, x)))
    for name, (call, base, _) in ARRAYS.items()
}
TYPE_ENTRIES.update(ARRAY_ENTRIES)
REALS = [np.float32(0.5), np.int64(1), Fraction(1, 2)]
NOT_REALS = [True, np.True_, "1", None, 1 + 0j, 10**400, [1.0]]


def _outcome(call, value):
    """repr of what call(value) returns, or the OutOfRange it raises; any
    other exception fails the test."""
    try:
        return repr(call(value))
    except OutOfRange as e:
        return f"OutOfRange: {e}"


@pytest.mark.parametrize("value", REALS, ids=["float32", "int64", "fraction"])
@pytest.mark.parametrize("entry", TYPE_ENTRIES)
def test_a_real_number_answers_as_its_float(entry, value):
    call = TYPE_ENTRIES[entry]
    assert _outcome(call, value) == _outcome(call, float(value))


@pytest.mark.parametrize(
    "value", NOT_REALS, ids=["bool", "np-bool", "str", "none", "complex", "huge-int", "list"]
)
@pytest.mark.parametrize("entry", TYPE_ENTRIES)
def test_a_value_that_is_no_float_is_out_of_range(entry, value):
    with pytest.raises(OutOfRange) as info:
        TYPE_ENTRIES[entry](value)
    # a list where an array holds a number makes the array ragged, which
    # its own message says
    if not (entry in ARRAY_ENTRIES and isinstance(value, list)):
        assert str(info.value).endswith(f"got {value!r}")


def _same(got, want) -> bool:
    """Equal bit for bit: floats with the same bits, arrays with the same
    shape, dtype and bytes."""
    if isinstance(want, np.ndarray):
        return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("entry", ARRAYS)
def test_a_valid_array_is_stored_the_same_whatever_its_form(entry):
    call, fractions, integers = ARRAYS[entry]
    for base in (fractions, integers):
        # the float array numpy reads, and what the call makes of it
        want = call(np.array(base, dtype=float))
        forms = [base, np.array(base), np.array(base, dtype=np.float32),
                 [np.array(row) for row in base], tuple(base)]
        for form in forms:
            assert _same(call(form), want), form
    for form in (np.array(integers), np.array(integers, dtype=np.uint8)):
        assert _same(call(form), call(integers))
    # a new array: the caller's stays as it was, writeable
    source = np.array(fractions, dtype=float)
    if isinstance(stored := call(source), np.ndarray):
        assert not np.shares_memory(stored, source) and source.flags.writeable


@pytest.mark.parametrize("entry", ["DmcSpec.p_s", "DmcSpec.channel", "AuxJoint.pmf"])
def test_a_negative_zero_entry_is_stored_as_zero(entry):
    call, _, integers = ARRAYS[entry]
    negated = np.where(np.array(integers) == 0, -0.0, np.array(integers, dtype=float))
    assert np.signbit(negated).any()
    for form in (negated, negated.tolist()):
        stored = call(form)
        assert not np.signbit(stored).any()
        assert (stored == negated).all()


@pytest.mark.parametrize(
    "value,message",
    [
        (np.array([True, False]), "got True"),
        (np.array([1 + 0j, 0j]), "got (1+0j)"),
        (np.array(["1", "0"]), "got '1'"),
        (np.array(True), "got True"),
        (np.array([1.0, 0.0], dtype=object), None),
        ([[1.0], [0.0, 0.0]], "ragged"),
        ([[1.0], 0.0], "ragged"),
        (_first_entry([[[1.0]]] * 2, [[0.5]]), "ragged"),
    ],
    ids=["bool-array", "complex-array", "str-array", "0-d-bool-array", "object-array",
         "ragged-rows", "list-and-number", "deeper-entry"],
)
def test_an_array_of_no_numbers_is_out_of_range(value, message):
    call = ARRAYS["DmcSpec.p_s"][0]
    if message is None:  # an object array of floats is read entry by entry
        assert call(value).tolist() == [1.0, 0.0]
        return
    with pytest.raises(OutOfRange, match=re.escape(message)):
        call(value)


def _nest(depth: int) -> list:
    value = [1.0]
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("depth", [33, 600, 100_000])
def test_a_nesting_too_deep_to_read_is_out_of_range(depth):
    for call, _, _ in ARRAYS.values():
        with pytest.raises(OutOfRange, match="nests too deeply to read"):
            call(_nest(depth))


def test_32_levels_are_read():
    # numpy 1's limit: the array is read, and only the shape check fails
    with pytest.raises(OutOfRange, match=re.escape("p_s must have shape (2,), got (1, 1,")):
        ARRAYS["DmcSpec.p_s"][0](_nest(32))
