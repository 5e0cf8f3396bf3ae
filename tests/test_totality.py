"""Totality of the search entries: on every legal channel, ``frontier``
(gdpc and dpc), ``max_r02_gdpc`` and ``dmc_maximize`` return finite,
non-negative rates or raise a RelayRegionsError, without a numpy
warning. Gaussian channels have powers log-uniform over 1e-300..1e300,
where terms overflow, underflow and lose every digit, and p2 and q each
0, the smallest subnormal or a random power. Discrete specs have
alphabets of 1 to 3 symbols, p_s entries of 0 or the smallest subnormal,
and channel rows that hold zeros."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from relayregions import (
    ChannelParams,
    DmcSpec,
    GridSpec,
    RelayRegionsError,
    dmc_maximize,
    frontier,
    max_r02_gdpc,
)

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
