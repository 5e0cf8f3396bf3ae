"""Totality of the search entries: on every legal channel, ``frontier``
(gdpc and dpc) and ``max_r02_gdpc`` return finite, non-negative rates or
raise a RelayRegionsError, without a numpy warning. Channels have powers
log-uniform over 1e-300..1e300, where terms overflow, underflow and
lose every digit, and p2 and q each 0, the smallest subnormal or a
random power."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from relayregions import ChannelParams, GridSpec, RelayRegionsError, frontier, max_r02_gdpc

from references import PROPERTY

# three 5 x 5 gdpc rows share one pass, so a pass closes several rows
SMALL = GridSpec(5, 5, 2, 0.25)


@st.composite
def extreme_rows(draw):
    """A (channel, gamma) row. The continuous fields come from a generator
    seeded by one draw, so they are generic rather than the bounds that
    derandomized float draws favour; the edge values of p2 and q are
    explicit branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p1, p2, q, n1 = (10.0 ** rng.uniform(-300.0, 300.0, 4)).tolist()
    p2 = draw(st.sampled_from([0.0, 5e-324, p2]))
    q = draw(st.sampled_from([0.0, 5e-324, q]))
    n2 = n1 * (1.0 + 10.0 ** rng.uniform(-12.0, 8.0))
    return ChannelParams(p1, p2, q, n1, n2), float(rng.uniform())


def _assert_rates(values):
    for v in values:
        assert math.isfinite(v) and v >= 0.0, values


def _total(call):
    """Run ``call`` under warnings-as-errors; a RelayRegionsError is an
    answer, any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except RelayRegionsError:
            return None


@settings(PROPERTY, max_examples=400)
@given(extreme_rows())
def test_search_entries_answer_or_raise_typed(row):
    c, gamma = row
    for scheme in ("gdpc", "dpc"):
        f = _total(lambda: frontier(c, scheme, [0.0, gamma, 1.0], SMALL))
        if f is not None:
            _assert_rates([v for p in f.points for v in (p.rate.r1, p.rate.r02)])
    res = _total(lambda: max_r02_gdpc(c, gamma, SMALL))
    if res is not None:
        _assert_rates([res.value, *(entry[3] for entry in res.trace)])
