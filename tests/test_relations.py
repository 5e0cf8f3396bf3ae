"""Metamorphic relations: properties that tie two runs together and need
no reference value.

Power-of-two scale. Every rate depends on ratios of powers only, so a
channel and the same channel times 2^k must give the same bits from every
public entry, for every even k in -1000..1000 at which each nonzero power
stays a normal float. k is even because the search takes sqrt(q), and an
odd power of two moves the rounding of a square root: the helper that
scales each channel (``model._scaled``) uses even powers for that reason.
The verify reports keep their bits too: the oracle builds its covariances
on the scaled powers. Channels span at most 2^500; half of them hold the
five powers within two decades of one scale, the others draw each power
on its own over a window of 140 decades. Knobs take the edge values 0,
5e-324, 1 - 2^-53 and 1, and rho its bound."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayregions import (
    SCHEMES,
    ChannelParams,
    GdpcParams,
    GridSpec,
    InformedBothParams,
    RelayRegionsError,
    cap_c,
    frontier,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    rho_upper_bound,
    sweep_snr,
    validate_gdpc,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)
from relayregions.model import _scaled
from relayregions.optimize import _solve_all

from references import PROPERTY

SMALL = GridSpec(5, 5, 2, 0.25)


@st.composite
def scaled_rows(draw, informed=False):
    """A channel, four knobs, two SNRs in dB within 10 dB of the
    channel's own, and the even shifts k to compare it at: the lowest
    and the highest in -1000..1000 at which every nonzero power, the
    sweep's n1 included, stays normal, +-300 where allowed, and one
    more between them. ``informed`` keeps the powers within two decades,
    the channels on which the oracle passes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if informed or draw(st.booleans()):
        exponents = rng.uniform(-280.0, 280.0) + rng.uniform(-2.0, 2.0, 4)
    else:
        exponents = rng.uniform(-220.0, 220.0) + rng.uniform(-70.0, 70.0, 4)
    p1, p2, q, n1 = (10.0**exponents).tolist()
    p2 = draw(st.sampled_from([0.0, p2]))
    q = draw(st.sampled_from([0.0, q]))
    n2 = n1 * (1.0 + 10.0 ** rng.uniform(-12.0, 8.0))
    c = ChannelParams(p1, p2, q, n1, n2)
    knobs = [draw(st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53, 1.0, u])) for u in rng.uniform(size=4)]
    snrs = (10.0 * math.log10(p1 / n1) + rng.uniform(-10.0, 10.0, 2)).tolist()
    # the binary exponents every shift must keep in the normal range
    used = [v for v in (*astuple(c), *(p1 / 10.0 ** (s / 10.0) for s in snrs)) if v > 0.0]
    lo = max(-1000, -1021 - min(math.frexp(v)[1] for v in used))
    hi = min(1000, 1024 - max(math.frexp(v)[1] for v in used))
    lo, hi = lo + lo % 2, hi - hi % 2
    shifts = {lo, hi, lo + 2 * int(rng.integers(0, (hi - lo) // 2 + 1))}
    shifts |= {k for k in (-300, 300) if lo <= k <= hi}
    return c, knobs, snrs, sorted(shifts - {0})


def _times(c, k):
    return ChannelParams(*(math.ldexp(v, k) for v in astuple(c)))


def _report(verify, c, params):
    """A verify report as its dict, or the type of its error: a
    SingularSubmatrix message names the channel."""
    try:
        return verify(c, params).to_dict()
    except RelayRegionsError as e:
        return type(e)


def _verify_runs(c, knobs):
    """repr of each verify report on c at the knobs, and the gdpc point."""
    gamma, rho, beta, alpha2 = knobs
    g = GdpcParams(gamma, rho * rho_upper_bound(c, gamma), beta, alpha2)
    p = InformedBothParams(gamma, beta)
    out = {
        "verify_gdpc": _report(verify_gdpc, c, g),
        "verify_informed_both": _report(verify_informed_both, c, p),
        "verify_relay_identity": _report(verify_relay_identity, c, p),
    }
    return {name: repr(v) for name, v in out.items()}, g


def _runs(c, knobs, snrs):
    """repr of every entry's answer on c, with the sweep's n1 column read
    in the scale of ``c`` itself (it is a power, so it scales)."""
    gamma, _, beta, _ = knobs
    reports, g = _verify_runs(c, knobs)
    out = {
        "frontier": [frontier(c, s, [0.0, gamma, 0.5, 1.0], SMALL) for s in SCHEMES],
        "sweep_snr": [
            [(r.snr_db, r.rate) for r in sweep_snr(c, snrs, s, SMALL)] for s in SCHEMES
        ],
        "max_r02_gdpc": [max_r02_gdpc(c, gamma, SMALL, freeze_rho=f) for f in (False, True)],
        "max_beta_nostate": max_beta_nostate(c, gamma),
        "nostate_terms": nostate_terms(c, gamma, beta),
        "gdpc_rates": gdpc_rates(c, g)[:3],
    }
    return {name: repr(v) for name, v in out.items()} | reports, g


@settings(PROPERTY, max_examples=60)
@given(scaled_rows())
@example((ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0), [0.5, 0.5, 0.5, 0.5], [10.0, 20.0], [-600, 600]))
def test_every_entry_keeps_its_bits_under_power_of_two_scale(row):
    c, knobs, snrs, shifts = row
    want, g = _runs(c, knobs, snrs)
    for k in shifts:
        scaled = _times(c, k)
        got, g_scaled = _runs(scaled, knobs, snrs)
        assert g_scaled == g, k
        assert got == want, k


@settings(PROPERTY, max_examples=80)
@given(scaled_rows(informed=True))
def test_verify_reports_keep_their_bits_under_power_of_two_scale(row):
    """The draws above reach a passing report on few channels: a
    140-decade spread leaves the oracle's range."""
    c, knobs, _, shifts = row
    want, _ = _verify_runs(c, knobs)
    for k in shifts:
        got, _ = _verify_runs(_times(c, k), knobs)
        assert got == want, k


# Decimal scale. A decimal factor moves the rounding of every power, so
# the bits may change, but the optima of the three regions may not move by
# more than the tie width.

DECIMAL_FACTORS = (1e-12, 1e-3, 7.0, 1e8)


@settings(PROPERTY, max_examples=180)
@given(scaled_rows())
def test_optima_keep_their_values_under_decimal_scale(row):
    c, knobs, _, _ = row
    channels = [c] + [ChannelParams(*(v * f for v in astuple(c))) for f in DECIMAL_FACTORS]
    problems = [(ch, knobs[0]) for ch in channels]
    for scheme in ("gdpc", "dpc", "nostate-outer"):
        want, *got = [value for *_, value in _solve_all(scheme, problems, None)]
        for f, value in zip(DECIMAL_FACTORS, got):
            assert abs(value - want) <= 1e-12, (c, knobs[0], scheme, f, value, want)


# With p2 = 0 there is no relay, and dirty-paper coding loses nothing to
# the interference (Costa, "Writing on dirty paper", 1983), so cancelling
# part of it can only waste power: the dpc, gdpc and nostate-outer
# frontiers read the same r02 at every gamma, to 1e-9 bits. The drawn
# gamma takes the edge values across the draws.


def _no_relay_r02(row, scheme):
    """The r02 of each point of a scheme's frontier, before dominated
    points are dropped, on the drawn channel without relay power at
    gamma 0, 0.5, 1 and the drawn one."""
    c, knobs, _, _ = row
    c = replace(c, p2=0.0)
    problems = [(c, gamma) for gamma in sorted({0.0, 0.5, 1.0, knobs[0]})]
    return [value for *_, value in _solve_all(scheme, problems, None)], problems


@settings(PROPERTY, max_examples=300)
@given(scaled_rows())
def test_without_relay_power_gdpc_is_dpc(row):
    dpc, problems = _no_relay_r02(row, "dpc")
    gdpc, _ = _no_relay_r02(row, "gdpc")
    for (c, gamma), x, y in zip(problems, gdpc, dpc):
        assert abs(x - y) <= 1e-9, (c, gamma, x, y)


@settings(PROPERTY, max_examples=300)
@given(scaled_rows())
def test_without_relay_power_the_outer_bound_is_dpc(row):
    dpc, problems = _no_relay_r02(row, "dpc")
    outer, _ = _no_relay_r02(row, "nostate-outer")
    for (c, gamma), x, y in zip(problems, outer, dpc):
        assert abs(x - y) <= 1e-9, (c, gamma, x, y)


@pytest.mark.parametrize(
    "c",
    [
        # a draw of scaled_rows at n2/n1 = 6e7, where s nears 1 and the
        # split 1 - s*s cancels in floats
        ChannelParams(6.340108270985311e-46, 0.0, 0.0, 1.6119854340435192e-90, 9.764494214339755e-83),
        # past n2/n1 = 1e16, s*s rounds to 1
        ChannelParams(1.0, 0.0, 0.0, 1e-20, 1.0),
    ],
    ids=["n2/n1=6e7", "n2/n1=1e20"],
)
def test_without_relay_power_the_outer_bound_is_dpc_where_n1_is_far_below_n2(c):
    dpc = max_r02_gdpc(c, 0.0, freeze_rho=True).value
    outer = max_beta_nostate(c, 0.0)[1]
    assert abs(outer - dpc) <= 1e-9, (outer, dpc)


# Ordering: nostate-outer is the region where the relay knows the
# interference too and both cancel it, so neither inner bound can pass
# it, however far n1 lies below p1 and n2 above n1; and dpc is gdpc with
# rho held at 0, so it cannot pass gdpc.


@st.composite
def wide_rows(draw):
    """A channel at a scale in 1e+-100, n1 = p1 * 10^U(-40, 1), n2/n1 up
    to 1e40, p2 and q each 0 a share of the time, and a gamma."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, e2, eq, en, er, gamma = rng.uniform(
        [-100.0, -3.0, -3.0, -40.0, -3.0, 0.0], [100.0, 3.0, 3.0, 1.0, 40.0, 1.0]
    ).tolist()
    p1 = 10.0**scale
    p2, q, n1 = (p1 * 10.0**e for e in (e2, eq, en))
    p2 = draw(st.sampled_from([0.0, p2]))
    q = draw(st.sampled_from([0.0, q]))
    return ChannelParams(p1, p2, q, n1, n1 * (1.0 + 10.0**er)), gamma


@settings(PROPERTY, max_examples=300)
@given(wide_rows())
def test_the_outer_bound_dominates_both_inner_bounds(row):
    c, drawn = row
    problems = [(c, gamma) for gamma in sorted({0.0, 0.5, drawn})]
    dpc = [value for *_, value in _solve_all("dpc", problems, None)]
    gdpc = [value for *_, value in _solve_all("gdpc", problems, None)]
    for (_, gamma), x, y in zip(problems, dpc, gdpc):
        outer = max_beta_nostate(c, gamma)[1]
        assert outer >= max(x, y) - 1e-9, (c, gamma, outer, x, y)
        assert x <= y + 1e-9, (c, gamma, x, y)


# Monotone in the channel: more relay power, or a far branch less noisy
# (n2 lowered toward n1, n1 < n2 kept), enlarges what every scheme can
# reach, so no optimum may drop by more than the search's resolution,
# 2.31e-7 bits until the search resolves ties to 1e-12 (ROADMAP item 6).

SEARCH_RESOLUTION = 2.31e-7


def test_optima_are_monotone_in_the_channel():
    rng = np.random.default_rng(39)
    problems = []
    for _ in range(150):
        scale = 10.0 ** rng.uniform(-12.0, 8.0)
        p1, p2, q, n1 = (scale * 10.0 ** rng.uniform([-1.0, -2.0, -2.0, -2.0], 1.0)).tolist()
        p2, q = (0.0 if rng.random() < 0.25 else v for v in (p2, q))
        n2 = n1 * (1.0 + 10.0 ** rng.uniform(-3.0, 2.0))
        c = ChannelParams(p1, p2, q, n1, n2)
        more_p2 = replace(c, p2=p2 + scale * 10.0 ** rng.uniform(-2.0, 1.0))
        less_n2 = replace(c, n2=n1 + (n2 - n1) * rng.uniform(0.05, 0.95))
        gamma = (0.0, 0.3, rng.uniform())[rng.integers(3)]
        problems += [(c, gamma), (more_p2, gamma), (less_n2, gamma)]
    for scheme in ("gdpc", "dpc", "nostate-outer"):
        values = [value for *_, value in _solve_all(scheme, problems, None)]
        for i in range(0, len(problems), 3):
            base, *moved = values[i : i + 3]
            for (chan, _), value in zip(problems[i + 1 : i + 3], moved):
                assert value >= base - SEARCH_RESOLUTION, (scheme, problems[i], chan, value, base)


def test_rho_bound_keeps_its_bits_on_subnormal_powers():
    # at 2^-1060 every power is subnormal, and (1-gamma)*p1 underflows to
    # 0 in the powers as given
    gamma = 1.0 - 2.0**-40
    g = GdpcParams(gamma, 0.5, 0.5, 0.5)
    runs = []
    for k in (-1060, 0, 600):
        c = _times(ChannelParams(1.0, 1.0, 0.5, 2.0**-4, 1.0), k)
        try:
            verdict = validate_gdpc(c, g)
        except RelayRegionsError as e:
            verdict = type(e)
        runs.append((rho_upper_bound(c, gamma), verdict, max_r02_gdpc(c, gamma)))
    assert runs[0] == runs[1] == runs[2]
    assert runs[1][:2] == (1.0, g)


# Concavity: time sharing between two points of a region is achievable, so
# a traced frontier that dips below the chord of two of its points prints a
# region smaller than the one it achieves.


def _worst_dip(points) -> float:
    """How far the frontier's most sunken point lies below the chord of
    two others, with r02 read over r1 (0 for a concave frontier)."""
    r1 = np.array([p.rate.r1 for p in points])
    r02 = np.array([p.rate.r02 for p in points])
    i, j, k = np.meshgrid(*[np.arange(len(points))] * 3, indexing="ij")
    between = (r1[i] < r1[j]) & (r1[j] < r1[k])
    i, j, k = i[between], j[between], k[between]
    chord = r02[i] + (r02[k] - r02[i]) * (r1[j] - r1[i]) / (r1[k] - r1[i])
    return float(np.max(chord - r02[j], initial=0.0))


@pytest.mark.parametrize("scheme", ["gdpc", "dpc", "nostate-outer"])
def test_frontiers_are_concave(scheme):
    # twelve channels over the benchmark's ranges: p1 .2-4, p2 0-4, q .1-4,
    # n1 .05-1, n2/n1 1.5-8
    rng = np.random.default_rng(12)
    gammas = np.linspace(0.0, 1.0, 41).tolist()
    for p1, p2, q, n1, ratio in rng.uniform([0.2, 0.0, 0.1, 0.05, 1.5], [4, 4, 4, 1, 8], (12, 5)):
        c = ChannelParams(p1, p2, q, n1, n1 * ratio)
        assert _worst_dip(frontier(c, scheme, gammas).points) <= 1e-9, c


# Cut-sets: everything either user decodes leaves the source through Y1, so
# r1 + r02 <= cap_c(p1/n1), and the far user's rate crosses to Y2 from
# source and relay together, at best coherently: r02 <= cap_c((sqrt(p1) +
# sqrt(p2))^2/n2). Both on the scaled powers, to 1e-12 bits.


def test_frontier_points_respect_the_cut_sets():
    # 32 channels at scales 10^U(-100, 100), each power within three
    # decades of its scale, p2 = 0 and q = 0 on a quarter each
    rng = np.random.default_rng(12)
    gammas = np.linspace(0.0, 1.0, 21).tolist()
    for _ in range(32):
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        p1, p2, q, n1 = (scale * 10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()
        p2, q = (0.0 if rng.random() < 0.25 else v for v in (p2, q))
        c = ChannelParams(p1, p2, q, n1, n1 * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0)))
        sp1, sp2, _, sn1, sn2 = _scaled(c)[0]
        broadcast = cap_c(sp1 / sn1)
        relay = cap_c((math.sqrt(sp1) + math.sqrt(sp2)) ** 2 / sn2)
        for scheme in ("gdpc", "dpc", "nostate-outer"):
            for point in frontier(c, scheme, gammas).points:
                r1, r02 = point.rate.r1, point.rate.r02
                assert r1 + r02 <= broadcast + 1e-12, (c, scheme, point)
                assert r02 <= relay + 1e-12, (c, scheme, point)


# Interference without bound: as q grows at fixed gamma, gdpc and dpc fall
# to cap_c((1-gamma)*p1/(gamma*p1 + n2)), the far user's rate with no help
# from the relay, whatever p2 is. This limit is derived here from the
# closed forms of ``rates``, not read from the paper. With m2 = n2 +
# gamma*p1, the far bound's denominator is d = qprime*f(alpha2) +
# m2*pwt, where f(x) = (1-x)^2*pwt + m2*x^2 is least at the Costa point
# A2 = pwt/(pwt + m2), f(A2) = pwt*m2/(pwt + m2). Writing S = pw + p2 +
# 2*beta*sqrt(pw*p2) for the far user's signal power, c = pwt*(S + qprime +
# m2), so for every knob
#
#     r2_sum <= cap_c(pwt/m2) + 0.5*log2(1 + (S - pwt)/(qprime + pwt + m2)),
#
# with equality at alpha2 = A2. p2 lives only in S, where the binning
# against qprime swamps it: the relay's and the correlated signal's share
# S - pwt = (sqrt(p2) + beta*sqrt(pw))^2 adds only O(1/q) bits. With pwt
# <= (1-gamma)*p1, S - pwt <= (sqrt((1-gamma)*p1) + sqrt(p2))^2 and
# qprime >= (sqrt(q) - sqrt((1-gamma)*p1))^2, the search's value exceeds the
# limit by at most ``_remainder`` below, which decays as 1/q: 2^10 times
# the interference leaves about a thousandth of the gap. And it is not
# below the limit, where q is large enough that the near bound does not
# bind at A2: rho = beta = 0 and alpha2 = A2 reach the limit plus p2's
# share. On the example channel the gap reads 7.0e-4, 6.9e-7, 6.7e-10 and
# 6.6e-13 bits at q = 2^10, 2^20, 2^30 and 2^40 times p1, for gdpc and
# dpc alike.


def _q_limit(c, gamma):
    p1, _, _, _, n2 = _scaled(c)[0]
    return cap_c((1.0 - gamma) * p1 / (gamma * p1 + n2))


def _remainder(c, gamma):
    """The derived bound on gdpc's or dpc's excess over ``_q_limit``."""
    p1, p2, q, _, n2 = _scaled(c)[0]
    gp1 = (1.0 - gamma) * p1
    if q <= gp1:
        return math.inf
    spread = (math.sqrt(q) - math.sqrt(gp1)) ** 2 + gamma * p1 + n2
    return (math.sqrt(gp1) + math.sqrt(p2)) ** 2 / (2.0 * math.log(2.0) * spread)


def test_gdpc_and_dpc_fall_to_the_unhelped_rate_as_interference_grows():
    # 40 channels at scales 10^U(-100, 100), each power within three
    # decades of its scale, p2 = 0 on a quarter; q climbs from p1/2^8 by
    # factors of 2^4 up to the first 2^k * p1 whose remainder is below
    # 1e-10 at every gamma
    rng = np.random.default_rng(26)
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        p1, p2, n1 = (scale * 10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()
        p2 = 0.0 if rng.random() < 0.25 else p2
        c = ChannelParams(p1, p2, p1, n1, n1 * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0)))
        gammas = (0.0, float(rng.uniform()), 1.0 - 2.0**-20)
        k = next(
            k for k in range(-8, 200, 4)
            if all(_remainder(replace(c, q=math.ldexp(p1, k)), g) < 1e-10 for g in gammas)
        )
        ladder = [replace(c, q=math.ldexp(p1, j)) for j in range(-8, k + 1, 4)]
        problems = [(chan, g) for chan in ladder for g in gammas]
        for scheme in ("gdpc", "dpc"):
            values = np.array([v for *_, v in _solve_all(scheme, problems, None)])
            rungs = values.reshape(len(ladder), len(gammas))
            rise = np.max(rungs[1:] - rungs[:-1], initial=0.0)
            assert rise <= SEARCH_RESOLUTION, (scheme, c, rise)
            for g, v in zip(gammas, rungs[-1]):
                assert abs(v - _q_limit(ladder[-1], g)) <= 1e-9, (scheme, ladder[-1], g, v)
