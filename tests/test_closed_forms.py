"""Property tests for the closed-form knobs: the exact binning inflation
alpha2 inside max_r02_gdpc and the cooperative split beta3 of
max_beta_nostate. Channels are drawn from the acceptance-test ranges."""

import math

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from relayregions import (
    ChannelParams,
    GdpcParams,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
)

from references import PROPERTY


# Each field comes from a numpy generator seeded by one draw: derandomized
# hypothesis float draws favour their bounds, so most examples would
# repeat a few boundary channels.
seeds = st.integers(0, 2**32 - 1)


def _uniform(lo, hi):
    """Uniform over [lo, hi) from a generator seeded by one draw: a float
    for float bounds, an array for lists of bounds."""
    return seeds.map(lambda seed: np.random.default_rng(seed).uniform(lo, hi))


@st.composite
def channels(draw, q_min=0.1):
    fields = draw(_uniform([0.2, 0.0, q_min, 0.05, 1.5], [4.0, 4.0, 4.0, 1.0, 8.0]))
    p1, p2, q, n1, ratio = fields.tolist()
    return ChannelParams(p1, p2, q, n1, n1 * ratio)


gammas = _uniform(0.0, 0.97)
scales = _uniform(-12.0, 8.0).map(lambda e: 10.0**e)


# every example sweeps 20,001 points, so a failure is reported unshrunk
@settings(PROPERTY, max_examples=8, phases=(Phase.explicit, Phase.generate))
@given(channels(), gammas, st.booleans())
def test_no_alpha2_beats_the_exact_one(c, gamma, freeze_rho):
    res = max_r02_gdpc(c, gamma, freeze_rho=freeze_rho)
    b = res.best
    best_swept = -math.inf
    for alpha2 in np.linspace(0.0, 1.0, 20001):
        r = gdpc_rates(c, GdpcParams(gamma, b.rho, b.beta, float(alpha2)))
        best_swept = max(best_swept, min(r.r1_sum, r.r2_sum))
    assert best_swept <= res.value + 1e-12, (best_swept, res.value)


@settings(PROPERTY, max_examples=200)
@given(channels(q_min=0.0), gammas)
def test_beta3_balances_the_terms_or_saturates(c, gamma):
    beta, value = max_beta_nostate(c, gamma)
    g = (1.0 - gamma) * c.p1
    d1 = gamma * c.p1 + c.n1
    d2 = gamma * c.p1 + c.n2
    assert (beta == 1.0) == ((g + c.p2) * d1 >= g * d2)
    t1, t2 = nostate_terms(c, gamma, beta)
    if beta < 1.0:
        assert abs(t1 - t2) <= 1e-12, (t1, t2)
    assert value == min(t1, t2)
    for b3 in np.linspace(0.0, 1.0, 201):
        assert min(nostate_terms(c, gamma, float(b3))) <= value + 1e-12


@settings(PROPERTY, max_examples=40)
@given(channels(), gammas, scales)
def test_optimizers_are_scale_invariant(c, gamma, k):
    ck = ChannelParams(c.p1 * k, c.p2 * k, c.q * k, c.n1 * k, c.n2 * k)
    assert math.isclose(
        max_r02_gdpc(ck, gamma).value, max_r02_gdpc(c, gamma).value, rel_tol=1e-12
    )
    for got, want in zip(max_beta_nostate(ck, gamma), max_beta_nostate(c, gamma)):
        assert math.isclose(got, want, rel_tol=1e-12)
