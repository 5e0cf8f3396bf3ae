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
    rho_upper_bound,
)
from relayregions.model import _TIE_TOL, _scaled
from relayregions.rates import _best_alpha2, _binned_pair, _cell_terms, _log_ratios, _row_terms

from references import PROPERTY, _clamp_array, _reference_best_alpha2, _scaled_row
from references import _stacked_best_alpha2

EXAMPLE = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
KNOBS = GdpcParams(0.2, 0.3, 0.4, 0.5)


def test_cap_c_values():
    assert cap_c(0.0) == 0.0
    assert cap_c(1.0) == pytest.approx(0.5, abs=1e-15)
    assert cap_c(3.0) == pytest.approx(1.0, abs=1e-15)
    assert cap_c(15.0) == pytest.approx(2.0, abs=1e-15)


def test_cap_c_rejects_negative():
    with pytest.raises(OutOfRange, match=r"^cap_c argument must lie in \[0, inf\), got -1e-09$"):
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


def test_gdpc_products_frozen():
    # qprime at this point is pinned by test_qprime_frozen_value
    r = gdpc_rates(EXAMPLE, KNOBS)
    assert r.a == pytest.approx(0.48479616999791714, abs=1e-14)
    assert r.b == pytest.approx(0.19123531021598397, abs=1e-14)
    assert r.c == pytest.approx(1.702316111556071, abs=1e-14)
    assert r.d == pytest.approx(0.6731412333654978, abs=1e-14)
    assert r.qprime == qprime(EXAMPLE, KNOBS.gamma, KNOBS.rho)


def test_gdpc_rates_frozen():
    r = gdpc_rates(EXAMPLE, KNOBS)
    assert r.r1_sum == pytest.approx(0.6710146850591334, abs=1e-14)
    assert r.r2_sum == pytest.approx(0.6692589130686944, abs=1e-14)
    assert r.r_private == pytest.approx(cap_c(2.0), abs=1e-15)


def test_gdpc_rates_match_coeff_ratios():
    r = gdpc_rates(EXAMPLE, KNOBS)
    assert r.r1_sum == pytest.approx(0.5 * math.log2(r.a / r.b), abs=1e-15)
    assert r.r2_sum == pytest.approx(0.5 * math.log2(r.c / r.d), abs=1e-15)


def test_gdpc_rates_clamp_negative_ratio():
    # strong correlation with a weak relay plus a strong residual state
    # can drive the second ratio below one; the reported rate clamps at zero
    c = ChannelParams(1.0, 0.01, 4.0, 0.1, 1.0)
    g = GdpcParams(0.0, 0.0, 0.9, 0.5)
    r = gdpc_rates(c, g)
    assert r.c < r.d
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
        # q scales too: the channel's span bound counts it
        scaled = ChannelParams(*(k * v for v in astuple(c)))
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
# Powers near the float range. OVERFLOW spans 2^1993, past the channel
# domain; a = pwt*(pwt + ...) overflows there. UNDERFLOW lies inside it:
# in the powers as given, b = pwt*(qprime + n1) underflows to 0 while a
# does not.

OVERFLOW = (1e300, 1.0, 1.0, 1e-300, 2e-300)
UNDERFLOW = (1e-160, 0.0, 0.0, 1e-300, 2e-300)


@pytest.mark.parametrize(
    "c", [OVERFLOW, (1.0, 5e-324, 1.0, 0.1, 1.0)], ids=["overflow", "subnormal-p2"]
)
def test_gdpc_rates_out_of_float_range_is_an_error(c):
    # a channel that spans more than 2^500 is the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a typed error, not a RuntimeWarning
        with pytest.raises(OutOfRange, match=r"the nonzero powers may span at most 2\*\*500"):
            gdpc_rates(ChannelParams(*c), GdpcParams(0.0, 0.0, 0.0, 0.0))


def test_gdpc_rates_where_products_underflow():
    # the rates are those of the channel scaled to k = 0, bit for bit; the
    # products come back in the caller's scale, where b and d underflow
    c, g = ChannelParams(*UNDERFLOW), GdpcParams(0.0, 0.0, 0.0, 0.0)
    powers, k = _scaled(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = gdpc_rates(c, g), gdpc_rates(ChannelParams(*powers), g)
    assert _scaled(ChannelParams(*powers))[1] == 0
    assert repr(got[:3]) == repr(want[:3])
    assert got.r1_sum > 200.0
    products = [math.ldexp(x, -2 * k) for x in want[3:7]] + [math.ldexp(want.qprime, -k)]
    assert repr(got[3:]) == repr(tuple(products))
    assert got.b == got.d == 0.0 < got.a


def _in_domain_row(rng, pick, steps=4, near_scale=False):
    """``_scaled_row`` of a channel inside the span bound, the only row the
    search and ``_gdpc_point`` hand the kernel: its five powers within two
    decades of one scale, or (unless ``near_scale``) each on its own within
    75 decades of one (10^150 < 2^500), with p2 and q possibly 0; a gamma,
    and ascending rho (within its bound) and beta axes of 1 to ``steps``
    points, each knob 0, 5e-324, 1 - 2^-53, 1 or random.

    Everything but the edge branches comes from the numpy generator
    ``rng``: derandomized hypothesis float draws favour their bounds.
    ``pick`` chooses each edge branch from a list that holds fresh
    generator values, so hypothesis does not rerun a seed with only the
    branches copied between draws."""
    spread = 2.0 if near_scale else pick([2.0, 75.0])
    exponents = rng.uniform(-225.0 + spread, 225.0 - spread) + rng.uniform(-spread, spread, 5)
    p1, p2, q, n1, n2 = (10.0**exponents).tolist()
    p2, q = pick([0.0, p2]), pick([0.0, q])
    c = ChannelParams(p1, p2, q, *sorted((n1, n2)))

    def unit():
        return pick([0.0, 5e-324, 1.0 - 2.0**-53, 1.0, rng.uniform()])

    gamma = unit()
    rho_hi = rho_upper_bound(c, gamma)
    rho = sorted(rho_hi * unit() for _ in range(rng.integers(1, steps + 1)))
    return _scaled_row(c, gamma, rho, sorted(unit() for _ in range(rng.integers(1, steps + 1))))


@st.composite
def scaled_kernel_rows(draw, near_scale=False):
    """``_in_domain_row`` with hypothesis choosing the edge branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _in_domain_row(rng, lambda options: draw(st.sampled_from(options)), near_scale=near_scale)


def seeded_scaled_rows(count, steps=16, near_scale=False):
    """``count`` rows of ``_in_domain_row`` from seeds 0, 1, ..., with the
    generator also choosing the edge branches."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        yield _in_domain_row(
            rng, lambda options: options[rng.integers(len(options))], steps, near_scale
        )


@settings(PROPERTY, max_examples=300)
@given(scaled_kernel_rows())
# unscaled, b underflowed to 0 on this channel and a/b read +inf
@example(_scaled_row(ChannelParams(*UNDERFLOW), 0.0, [0.0], [0.0, 1.0]))
def test_single_clamp_matches_per_term_clamp(row):
    knobs, rho, beta = row
    alpha2, value = _best_alpha2(_row_terms(*knobs), rho, beta)
    # the one clamp after the min reads as a clamp of each term, in every cell
    with np.errstate(all="ignore"):
        pwt, qp, a, c, m1, m2 = _cell_terms(_row_terms(*knobs), rho, beta)
        b, d = _binned_pair(pwt, qp, m1, m2, alpha2)
        r1, r2 = _log_ratios(a, b, c, d)
    assert _bitwise_equal(value, np.minimum(_clamp_array(r1), _clamp_array(r2)))


@settings(PROPERTY, max_examples=300)
@given(scaled_kernel_rows())
# the kernel lies above the reference in three cells
@example(
    _scaled_row(
        ChannelParams(
            1.833123553124296e22, 4.407879603597833e56, 7.384156619776222e55,
            1.511967036307221e-69, 4.700031097548437e26,
        ),
        0.0, [0.0, 5e-324, 0.3870594437057515], [0.204853154653174],
    )
)
def test_kernel_never_below_reference_on_scaled_rows(row):
    # the six-candidate reference takes the crossing from an unscaled
    # discriminant, which leaves the normal range on some channels inside
    # the span bound and loses the root there; the kernel never does
    # worse, and picks +0.0 or an alpha2 between the Costa points
    knobs, rho, beta = row
    alpha2, value = _best_alpha2(_row_terms(*knobs), rho, beta)
    _, want = _reference_best_alpha2(*knobs, rho, beta)
    with np.errstate(all="ignore"):
        pwt, _, _, _, m1, m2 = _cell_terms(_row_terms(*knobs), rho, beta)
        a2, a1 = pwt / (pwt + m2), pwt / (pwt + m1)
    zero = alpha2.view(np.int64) == 0  # +0.0, not -0.0
    assert (zero | ((alpha2 >= a2) & (alpha2 <= a1))).all()
    assert (value >= want - _TIE_TOL).all()


@settings(PROPERTY, max_examples=300)
@given(scaled_kernel_rows(near_scale=True))
def test_single_clamp_matches_per_term_clamp_near_one_scale(row):
    # with the powers each on its own the bounds rarely cross inside
    # [0, 1] and the crossing root seldom decides a cell; near one scale
    # it does, and the reference's discriminant stays in range
    knobs, rho, beta = row
    got = _best_alpha2(_row_terms(*knobs), rho, beta)
    for x, y in zip(got, _reference_best_alpha2(*knobs, rho, beta)):
        assert _bitwise_equal(x, y)


# ---------------------------------------------------------------------------
# The kernel evaluates four alpha2 candidates (0, the Costa points A2 and
# A1, and the crossing root between them) where the reference evaluates
# six. The two it drops are never the maximizer: the other root of the
# quadratic lies outside [A2, A1], and the linear root is a root only
# where k2 = 0, where the kept root is that root. On the scaled rows of a
# channel inside the span bound no ratio overflows, so the objective in
# floats is the min of two bounds that each rise and then fall.


def _bitwise_equal(x, y):
    # through int64, so the sign of a zero counts
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


def test_four_candidates_lose_nothing_against_six():
    picked_root = above = 0
    for knobs, rho, beta in seeded_scaled_rows(2000):
        alpha2, value = _best_alpha2(_row_terms(*knobs), rho, beta)
        _, want = _reference_best_alpha2(*knobs, rho, beta)
        with np.errstate(all="ignore"):
            pwt, _, _, _, m1, m2 = _cell_terms(_row_terms(*knobs), rho, beta)
            a2, a1 = pwt / (pwt + m2), pwt / (pwt + m1)
        zero = alpha2.view(np.int64) == 0  # +0.0, not -0.0
        assert (zero | ((alpha2 >= a2) & (alpha2 <= a1))).all()
        assert (value >= want - _TIE_TOL).all()
        picked_root += int((~zero & (alpha2 != a2) & (alpha2 != a1)).sum())
        above += int((value > want + _TIE_TOL).sum())
    # the crossing root wins cells, and the scaled coefficients find it
    # where the reference's discriminant left the float range
    assert picked_root > 100
    assert above > 0


def test_float_knobs_match_array_knobs():
    # the search hands the kernel (n, 1, 1) columns, and _gdpc_point hands
    # the same terms (_row_terms, _cell_terms, _binned_pair) Python floats: the
    # value at a search's answer is the value it ranked only if both round
    # alike
    for knobs, rho, beta in seeded_scaled_rows(2000):
        got = _best_alpha2(_row_terms(*knobs), rho, beta)
        want = _best_alpha2(_row_terms(*(np.full((1, 1), k) for k in knobs)), rho, beta)
        for x, y in zip(got, want):
            assert _bitwise_equal(x, y)


def test_power_of_two_scale_changes_no_bit():
    # every product and ratio of the kernel scales exactly by a power of
    # two. Unscaled, the discriminant of the crossing quadratic (eighth
    # powers of the channel) left the float range past about 2**+-128,
    # as it does inside the span bound on a centred row of a wide channel
    for knobs, rho, beta in seeded_scaled_rows(300, steps=8, near_scale=True):
        want = _best_alpha2(_row_terms(*knobs), rho, beta)
        for t in (-200, -130, 130, 200):
            scaled = _row_terms(*(math.ldexp(v, t) for v in knobs[:5]), knobs[5])
            got = _best_alpha2(scaled, rho, beta)
            for x, y in zip(got, want):
                assert _bitwise_equal(x, y)


# ---------------------------------------------------------------------------
# The kernel stacks three candidates and computes +0.0's b and d on their
# own layer; the four-layer kernel before it stacked all four. The golden
# outputs and the region-trace pins were made with that kernel, so the two
# agree to the bit, ties included, on the calls a pass makes.

# (rows, rho points, beta points): one gdpc row, a full gdpc pass, and a
# dpc frontier's 21 rows, whose rho axis is the single point 0
PASS_SHAPES = [(1, 33, 33), (5, 33, 33), (21, 1, 33)]


def _ridge(knobs, rho):
    """Four adjacent betas about the one where the two bounds meet at A2,
    found by bisection, or none. There the crossing root sits an ulp or
    so from A2, and the two candidates tie with different alpha2."""

    def r1_above(beta):
        with np.errstate(all="ignore"):
            pwt, qp, a, c, m1, m2 = _cell_terms(_row_terms(*knobs), rho, beta)
            b, d = _binned_pair(pwt, qp, m1, m2, pwt / (pwt + m2))
            return bool(a / b > c / d)

    grid = np.linspace(0.0, 1.0, 17)[:-1].tolist()
    sides = [r1_above(beta) for beta in grid]
    starts = [i for i in range(15) if sides[i] != sides[i + 1]]
    if not starts:
        return []
    lo, hi = grid[starts[0]], grid[starts[0] + 1]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if r1_above(mid) == sides[starts[0]] else (lo, mid)
    return [math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, 1.0)]


def _pass_call(rng, shape):
    """The kernel call of one pass of ``shape``: (knobs, rho, beta) with
    the knobs as (rows, 1, 1) columns. Each row is a scaled channel as
    ``_in_domain_row`` draws it, with its own ascending axes. Half the
    knobs sit on an edge: p2 = 0, q = 0, gamma = 1, rho at its bound and
    beta = 1, where every candidate ties (pwt = 0 or qprime = 0), or
    5e-324 and 1 - 2^-53, which leave the candidates a hair apart. Half
    the beta axes hold the ``_ridge`` of one of their row's rho points."""

    def pick(options):
        return options[rng.integers(len(options))]

    def unit():
        return pick([0.0, 5e-324, 1.0 - 2.0**-53, 1.0, *rng.uniform(size=4)])

    n, n_rho, n_beta = shape
    knobs, rhos, betas = [], [], []
    for _ in range(n):
        spread = pick([2.0, 75.0])
        exponents = rng.uniform(-225.0 + spread, 225.0 - spread) + rng.uniform(-spread, spread, 5)
        p1, p2, q, n1, n2 = (10.0**exponents).tolist()
        c = ChannelParams(p1, pick([0.0, p2]), pick([0.0, q]), *sorted((n1, n2)))
        gamma = unit()
        rho_hi = rho_upper_bound(c, gamma) if n_rho > 1 else 0.0
        knobs.append((*_scaled(c)[0], gamma))
        rhos.append(sorted(rho_hi * unit() for _ in range(n_rho)))
        ridge = _ridge(knobs[-1], pick(rhos[-1])) if rng.uniform() < 0.5 else []
        betas.append(sorted([*ridge, *(unit() for _ in range(n_beta - len(ridge)))]))
    columns = np.array(knobs).T[:, :, np.newaxis, np.newaxis]
    return tuple(columns), np.array(rhos)[:, :, np.newaxis], np.array(betas)[:, np.newaxis, :]


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(PASS_SHAPES), st.integers(0, 2**32 - 1))
def test_three_layers_match_the_stacked_kernel(shape, seed):
    knobs, rho, beta = _pass_call(np.random.default_rng(seed), shape)
    got = _best_alpha2(_row_terms(*knobs), rho, beta)
    want = _stacked_best_alpha2(*knobs, rho, beta)
    for x, y in zip(got, want):
        assert _bitwise_equal(x, y)


def test_pass_calls_reach_every_tie():
    # the draws above reach the cells where +0.0 wins because every
    # candidate ties (pwt = 0 or qprime = 0), and cells where it wins with
    # pwt and qprime both positive, where its value is m*pwt + pwt*qprime
    # rounded in that order
    tied = apart = 0
    for seed in range(60):
        knobs, rho, beta = _pass_call(np.random.default_rng(seed), PASS_SHAPES[seed % 3])
        row = _row_terms(*knobs)
        alpha2, _ = _best_alpha2(row, rho, beta)
        with np.errstate(all="ignore"):
            pwt, qp = _cell_terms(row, rho, beta)[:2]
        zero = alpha2.view(np.int64) == 0
        tied += int((zero & ((pwt == 0.0) | (qp == 0.0))).sum())
        apart += int((zero & (pwt > 0.0) & (qp > 0.0)).sum())
    assert tied > 10_000
    assert apart > 1_000
