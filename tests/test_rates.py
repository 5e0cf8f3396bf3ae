import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayregions import (
    ChannelParams,
    GdpcParams,
    OutOfRange,
    cap_c,
    gdpc_rates,
    max_beta_nostate,
    nostate_terms,
)
from relayregions.rates import _best_alpha2

from references import PROPERTY, _reference_best_alpha2

EXAMPLE = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
KNOBS = GdpcParams(0.2, 0.3, 0.4, 0.5)


def test_cap_c_values():
    assert cap_c(0.0) == 0.0
    assert cap_c(1.0) == pytest.approx(0.5, abs=1e-15)
    assert cap_c(3.0) == pytest.approx(1.0, abs=1e-15)
    assert cap_c(15.0) == pytest.approx(2.0, abs=1e-15)


def test_cap_c_rejects_negative():
    with pytest.raises(OutOfRange, match="cap_c argument must be >= 0, got -1e-09"):
        cap_c(-1e-9)


def qprime(c, gamma, rho):
    return gdpc_rates(c, GdpcParams(gamma, rho, 0.0, 0.0)).qprime


def test_qprime_frozen_value():
    # (sqrt(q) - sqrt(rho * (1-gamma) * p1))^2 at the worked point
    assert qprime(EXAMPLE, 0.2, 0.3) == pytest.approx(0.260204102886728, abs=1e-14)


def test_qprime_edges():
    assert qprime(EXAMPLE, 0.2, 0.0) == pytest.approx(EXAMPLE.q, abs=1e-15)
    # full presubtraction: residual state power hits zero when
    # rho * (1-gamma) * p1 == q
    c = ChannelParams(1.0, 1.0, 0.8, 0.1, 1.0)
    assert qprime(c, 0.0, 0.8) == pytest.approx(0.0, abs=1e-15)


def test_qprime_validates():
    c = ChannelParams(1.0, 1.0, 0.4, 0.1, 1.0)
    with pytest.raises(OutOfRange):
        qprime(c, 0.2, 0.6)


def test_gdpc_coeffs_frozen():
    co = gdpc_rates(EXAMPLE, KNOBS)
    assert co.a == pytest.approx(0.48479616999791714, abs=1e-14)
    assert co.b == pytest.approx(0.19123531021598397, abs=1e-14)
    assert co.c == pytest.approx(1.702316111556071, abs=1e-14)
    assert co.d == pytest.approx(0.6731412333654978, abs=1e-14)
    assert co.qprime == pytest.approx(0.260204102886728, abs=1e-14)


def test_gdpc_rates_frozen():
    r = gdpc_rates(EXAMPLE, KNOBS)
    assert r.r1_sum == pytest.approx(0.6710146850591334, abs=1e-14)
    assert r.r2_sum == pytest.approx(0.6692589130686944, abs=1e-14)
    assert r.r_private == pytest.approx(cap_c(2.0), abs=1e-15)


def test_gdpc_rates_match_coeff_ratios():
    co = gdpc_rates(EXAMPLE, KNOBS)
    r = gdpc_rates(EXAMPLE, KNOBS)
    assert r.r1_sum == pytest.approx(0.5 * math.log2(co.a / co.b), abs=1e-15)
    assert r.r2_sum == pytest.approx(0.5 * math.log2(co.c / co.d), abs=1e-15)


def test_gdpc_rates_clamp_negative_ratio():
    # strong correlation with a weak relay plus a strong residual state
    # can drive the second ratio below one; the reported rate clamps at zero
    c = ChannelParams(1.0, 0.01, 4.0, 0.1, 1.0)
    g = GdpcParams(0.0, 0.0, 0.9, 0.5)
    co = gdpc_rates(c, g)
    assert co.c < co.d
    r = gdpc_rates(c, g)
    assert r.r2_sum == 0.0
    assert r.r1_sum > 0.0


def test_gdpc_rates_degenerate_knobs_clamp_to_zero():
    # beta = 1 removes the uncorrelated slice entirely (a = b = 0)
    r = gdpc_rates(EXAMPLE, GdpcParams(0.2, 0.3, 1.0, 0.5))
    assert r.r1_sum == 0.0
    # gamma = 1 leaves no common power at all
    r = gdpc_rates(EXAMPLE, GdpcParams(1.0, 0.0, 0.4, 0.5))
    assert r.r1_sum == 0.0 and r.r2_sum == 0.0
    assert r.r_private == pytest.approx(cap_c(10.0), abs=1e-15)


def test_nostate_terms_monotone_in_beta3():
    c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    grid = np.linspace(0.0, 1.0, 11)
    t1 = np.array([nostate_terms(c, 0.2, b)[0] for b in grid])
    t2 = np.array([nostate_terms(c, 0.2, b)[1] for b in grid])
    assert np.all(np.diff(t1) > 0)
    assert np.all(np.diff(t2) < 0)
    assert t1[0] == 0.0


def test_nostate_terms_endpoints():
    c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    t1, t2 = nostate_terms(c, 0.0, 1.0)
    assert t1 == pytest.approx(cap_c(10.0), abs=1e-15)
    assert t2 == pytest.approx(cap_c(2.0), abs=1e-15)
    _, t2_full = nostate_terms(c, 0.0, 0.0)
    assert t2_full == pytest.approx(cap_c(4.0), abs=1e-15)


def test_nostate_forms_keep_their_bits_under_power_of_two_scaling():
    # they run on the powers times one power of two chosen from their
    # exponents, so scaling the channel by another one changes no bit
    rng = np.random.default_rng(0)
    for _ in range(300):
        p1, p2, n1 = (10.0 ** rng.uniform(-60.0, 60.0, 3)).tolist()
        n2 = n1 * (1.0 + 10.0 ** rng.uniform(-12.0, 8.0))
        c = ChannelParams(p1, p2 * (rng.uniform() > 0.2), 1.0, n1, n2)
        k = 2.0 ** int(rng.integers(-700, 700))
        scaled = ChannelParams(c.p1 * k, c.p2 * k, c.q, c.n1 * k, c.n2 * k)
        gamma, beta3 = rng.uniform(size=2).tolist()
        assert repr(nostate_terms(scaled, gamma, beta3)) == repr(nostate_terms(c, gamma, beta3))
        assert repr(max_beta_nostate(scaled, gamma)) == repr(max_beta_nostate(c, gamma))


def test_relay_rate_informed_both_anchor():
    # the relay channel's rate (gamma = 0) when every node knows the state
    c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    assert max_beta_nostate(c, 0.0)[1] == pytest.approx(0.5 * math.log2(4.6), abs=1e-9)
    # interference power is irrelevant when every node knows the state
    c_q = ChannelParams(1.0, 1.0, 7.0, 0.1, 1.0)
    assert max_beta_nostate(c_q, 0.0)[1] == pytest.approx(
        max_beta_nostate(c, 0.0)[1], abs=1e-12
    )


def test_gdpc_alpha2_inert_without_state():
    c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
    base = gdpc_rates(c, GdpcParams(0.3, 0.0, 0.6, 0.0))
    for a2 in (0.2, 0.7, 1.0):
        r = gdpc_rates(c, GdpcParams(0.3, 0.0, 0.6, a2))
        assert r.r1_sum == pytest.approx(base.r1_sum, abs=1e-15)
        assert r.r2_sum == pytest.approx(base.r2_sum, abs=1e-15)


# ---------------------------------------------------------------------------
# Powers near the float range. a = pwt*(pwt + ...) overflows on OVERFLOW;
# on UNDERFLOW b = pwt*(qprime + n1) underflows to 0 while a does not.

OVERFLOW = ChannelParams(1e300, 1.0, 1.0, 1e-300, 2e-300)
UNDERFLOW = ChannelParams(1e-160, 0.0, 0.0, 1e-300, 2e-300)


@pytest.mark.parametrize("c", [OVERFLOW, UNDERFLOW], ids=["overflow", "underflow"])
def test_gdpc_rates_out_of_float_range_is_an_error(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a typed error, not a RuntimeWarning
        with pytest.raises(OutOfRange, match="float range"):
            gdpc_rates(c, GdpcParams(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("c", [OVERFLOW, UNDERFLOW], ids=["overflow", "underflow"])
def test_gdpc_coeffs_out_of_float_range_is_an_error(c):
    # the products go through the same checked evaluation as the rates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="float range"):
            gdpc_rates(c, GdpcParams(0.0, 0.0, 0.0, 0.0)).a


@st.composite
def kernel_rows(draw):
    """One channel at scales 1e-300..1e300 (p2 and q possibly 0), a gamma
    (0 and 1 included), and ascending rho and beta axes shaped as the
    search passes them, rho within its bound.

    Everything but the edge branches comes from a numpy generator seeded
    by one draw: derandomized hypothesis float draws favour their bounds.
    Each branch list holds fresh generator values, so hypothesis does not
    rerun a seed with only the branches copied between draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p1, n1, n2, p2, q = (10.0 ** rng.uniform(-300.0, 300.0, 5)).tolist()
    p2, q = draw(st.sampled_from([0.0, p2])), draw(st.sampled_from([0.0, q]))

    def unit():
        return draw(st.sampled_from([0.0, 1.0, *rng.uniform(size=2).tolist()]))

    gamma = unit()
    gbar_p1 = (1.0 - gamma) * p1
    rho_hi = min(1.0, q / gbar_p1) if gbar_p1 > 0.0 and q > 0.0 else 0.0
    rho = sorted(rho_hi * unit() for _ in range(rng.integers(1, 5)))
    beta = sorted(unit() for _ in range(rng.integers(1, 5)))
    return (p1, p2, q, n1, n2, gamma), rho, beta


@settings(PROPERTY, max_examples=300)
@given(kernel_rows())
@example(((*astuple(OVERFLOW), 0.0), [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
@example(((*astuple(UNDERFLOW), 0.0), [0.0], [0.0, 1.0]))
def test_single_clamp_matches_per_term_clamp(row):
    knobs, rho, beta = row
    axes = np.array(rho)[:, np.newaxis], np.array(beta)[np.newaxis, :]
    got = _best_alpha2(*knobs, *axes)
    want = _reference_best_alpha2(*knobs, *axes)
    for x, y in zip(got, want):
        # bitwise, through int64, so the sign of a zero counts
        assert np.array_equal(x.view(np.int64), y.view(np.int64))

