import math
from dataclasses import astuple
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayregions import (
    ChannelParams,
    GdpcParams,
    GridSpec,
    OutOfRange,
    cap_c,
    frontier,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    rho_upper_bound,
    sweep_snr,
    validate_gdpc,
)
from relayregions import optimize
from relayregions.model import _scaled
from relayregions.optimize import DEFAULT_GRID
from relayregions.rates import _best_alpha2, _row_terms

import references
from references import PROPERTY, _reference_best_alpha2, _reference_max_r02_gdpc
from references import _reference_box_search, _reference_max_beta_nostate, _reference_products
from references import _scaled_row

ANCHOR = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
STATEFUL = ChannelParams(1.0, 1.0, 2.0, 0.1, 1.0)
SPAN = r"the nonzero powers may span at most 2\*\*500"


def _float_rows(rows):
    """(channel, gamma) rows as a pass takes them: (p1, p2, q, n1, n2,
    gamma) on each channel's scaled powers."""
    return [(*_scaled(c)[0], gamma) for c, gamma in rows]


def test_grid_spec_defaults():
    g = GridSpec()
    assert (g.steps_rho, g.steps_beta) == (33, 33)
    assert g.refine_iters == 4
    assert g.refine_shrink == 0.25
    assert DEFAULT_GRID == g


def test_grid_spec_validation():
    with pytest.raises(OutOfRange):
        GridSpec(steps_rho=1)
    with pytest.raises(OutOfRange):
        GridSpec(refine_iters=-1)
    with pytest.raises(OutOfRange):
        GridSpec(refine_shrink=1.0)
    with pytest.raises(OutOfRange):
        GridSpec(steps_beta=2.5)
    for flag in (False, True):
        with pytest.raises(OutOfRange, match=f"refine_iters must be an integer >= 0, got {flag}"):
            GridSpec(5, 5, flag)


def test_grid_spec_stores_python_numbers():
    # a float32 shrink ran every box after the first round in float32
    c = ChannelParams(1.3, 2.1, 0.7, 0.4, 1.5)
    grid = GridSpec(33, 33, 4, np.float32(0.3))
    assert type(grid.refine_shrink) is float
    want = max_r02_gdpc(c, 0.2, GridSpec(33, 33, 4, float(np.float32(0.3))))
    assert max_r02_gdpc(c, 0.2, grid) == want


def test_grid_spec_takes_numpy_integers():
    g = GridSpec(np.int64(5), np.int32(7), np.uint8(2), 0.5)
    assert [(v, type(v)) for v in astuple(g)[:3]] == [(5, int), (7, int), (2, int)]
    # 2**62 * 4 wraps to 0 in int64
    with pytest.raises(OutOfRange, match="steps_rho \\* steps_beta"):
        GridSpec(np.int64(2**62), np.int64(4))


def test_grid_spec_cell_limit():
    assert GridSpec(1000, 1000).steps_rho == 1000
    for steps in ((1001, 1000), (10**29, 5), (5, 10**400)):
        with pytest.raises(OutOfRange, match="steps_rho \\* steps_beta"):
            GridSpec(*steps)


def test_grid_spec_round_limit():
    # each round fits, but 10**8 + 1 of them would run for hours
    with pytest.raises(OutOfRange, match="\\(refine_iters \\+ 1\\) must be <= 10000000"):
        GridSpec(2, 2, 10**8, 0.5)
    for spec in ((1000, 1000, 10), (2, 2, 10**400)):
        with pytest.raises(OutOfRange, match="refine_iters"):
            GridSpec(*spec)
    # the dense reference grid, the largest round and the limit itself
    for spec in ((500, 500, 8, 0.25), (1000, 1000), (1000, 1000, 9), (2, 5, 10**6 - 1)):
        assert GridSpec(*spec).steps_rho == spec[0]


@st.composite
def nostate_rows(draw):
    """A channel and a gamma, from a generator seeded by one draw (see
    ``_rng``): p1 within three decades of a scale in 1e+-100, n1 up to
    40 decades below the scale and n2/n1 up to 1e40, with p2 and gamma on
    an edge value a share of the time."""
    rng = _rng(draw)
    scale, e1, e2, en, er, gamma = rng.uniform(
        [-100.0, -3.0, -3.0, -40.0, 0.01, 0.0], [100.0, 3.0, 3.0, 0.0, 40.0, 1.0]
    ).tolist()
    p1, p2, n1 = (10.0 ** (scale + e) for e in (e1, e2, en))
    p2 = draw(st.sampled_from([0.0, p2]))
    gamma = draw(st.sampled_from([0.0, 1.0, gamma]))
    return ChannelParams(p1, p2, 0.0, n1, n1 * 10.0**er), gamma


class TestMaxBetaNostate:
    def test_anchor_point(self):
        beta, value = max_beta_nostate(ANCHOR, 0.0)
        assert beta == pytest.approx(0.36, abs=1e-9)
        assert value == pytest.approx(0.5 * math.log2(4.6), abs=1e-9)

    def test_crossing_balances_terms(self):
        beta, value = max_beta_nostate(ANCHOR, 0.0)
        t1, t2 = nostate_terms(ANCHOR, 0.0, beta)
        assert t1 == pytest.approx(t2, abs=1e-9)
        assert value == pytest.approx(min(t1, t2), abs=1e-12)

    def test_saturated_when_relay_hop_dominates(self):
        # with a strong relay hop the first term never catches up
        c = ChannelParams(1.0, 5.0, 0.0, 0.9, 1.0)
        beta, value = max_beta_nostate(c, 0.0)
        assert beta == 1.0
        t1, t2 = nostate_terms(c, 0.0, 1.0)
        assert t1 <= t2
        assert value == pytest.approx(t1, abs=1e-12)

    def test_no_common_power(self):
        beta, value = max_beta_nostate(ANCHOR, 1.0)
        assert (beta, value) == (0.0, 0.0)

    def test_gamma_out_of_range(self):
        with pytest.raises(OutOfRange):
            max_beta_nostate(ANCHOR, 1.5)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize(
        "c",
        [
            # in the powers as given both terms are +inf at gamma = 0, and C
            # is inf - inf at 0.5
            (1e300, 1.0, 1.0, 1e-300, 2e-300),
            (1e200, 1e200, 1.0, 1e-200, 2e-200),
            # the far user's ratio p2/n2 overflows at every gamma
            (1e-200, 1e200, 1.0, 1e-200, 2e-200),
        ],
    )
    def test_out_of_float_range_is_an_error(self, c, gamma):
        # each channel spans more than 2^500, so it is the error
        with pytest.raises(OutOfRange, match=SPAN):
            max_beta_nostate(ChannelParams(*c), gamma)

    def test_root_without_relay_power_where_4ac_underflows(self):
        # p2 = 0 makes B = 0, and 4AC underflows to 0 on the scaled powers:
        # q centres the scale, which puts p1 and the noises near 2^-252,
        # and g is 2^-53 p1. B*s is 0 there, so the split is g*D1 / (g*D2)
        # and needs no root
        c = ChannelParams(1.0, 0.0, 2.0**499, 1.0, 2.0)
        gamma = 1.0 - 2.0**-53
        p1, _, _, n1, n2 = _scaled(c)[0]
        g, d1, d2 = (1.0 - gamma) * p1, gamma * p1 + n1, gamma * p1 + n2
        cc = g * d1 - g * d2
        assert cc < 0.0 and 4.0 * (g * d2) * cc == 0.0
        beta, value = max_beta_nostate(c, gamma)
        assert beta == (g * d1) / (g * d2)
        assert value == min(nostate_terms(c, gamma, beta))
        # the terms balance there, as at the crossing of any channel
        assert value == pytest.approx(max(nostate_terms(c, gamma, beta)), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize(
        "c, beta0",
        [
            (ChannelParams(1e200, 1e200, 1e200, 1e99, 1e100), 0.36),
            # B^2 overflows in the powers as given
            (ChannelParams(1e200, 1e200, 1e200, 1e100, 3e100), 8.0 / 9.0),
        ],
    )
    def test_products_past_the_float_range_answer(self, c, beta0, gamma):
        # sqrt(g*p2) and (g + p2)*D1 overflow, but every ratio of the
        # region is representable: the answer is that of the same
        # channel scaled down, where no product overflows
        got = max_beta_nostate(c, gamma)
        k = 2.0**-400
        want = max_beta_nostate(ChannelParams(*(k * v for v in astuple(c))), gamma)
        assert got == pytest.approx(want, rel=1e-12)
        assert got[0] == pytest.approx(beta0 if gamma == 0.0 else 1.0, rel=1e-12)

    @settings(PROPERTY, max_examples=300)
    @given(nostate_rows())
    def test_matches_60_digit_reference(self, row):
        # n2/n1 up to 1e40 puts s near 1, where 1 - s*s cancels in floats
        c, gamma = row
        beta, value = max_beta_nostate(c, gamma)
        want_beta, want_value = _reference_max_beta_nostate(c, gamma)
        assert abs(Decimal(beta) - want_beta) <= Decimal(1e-15) * want_beta, (c, gamma, beta)
        assert abs(Decimal(value) - want_value) <= Decimal(1e-13), (c, gamma, value)


class TestMaxR02Gdpc:
    def test_matches_bisection_without_state(self):
        fine = GridSpec(33, 33, 9, 0.25)
        for gamma in (0.0, 0.3, 0.7):
            res = max_r02_gdpc(ANCHOR, gamma, fine)
            _, want = max_beta_nostate(ANCHOR, gamma)
            assert res.value == pytest.approx(want, abs=1e-6)

    def test_ties_prefer_smallest_knobs(self):
        # without state both rho and alpha2 are inert, so the reported
        # optimum must sit at their smallest values
        res = max_r02_gdpc(ANCHOR, 0.2, GridSpec(5, 9, 1, 0.5))
        assert res.best.rho == 0.0
        assert res.best.alpha2 == 0.0

    def test_value_is_recomputed_at_best(self):
        res = max_r02_gdpc(STATEFUL, 0.3, GridSpec(9, 9, 2, 0.25))
        r = gdpc_rates(STATEFUL, res.best)
        assert res.value == pytest.approx(min(r.r1_sum, r.r2_sum), abs=1e-15)

    def test_refinement_never_regresses(self):
        res = max_r02_gdpc(STATEFUL, 0.2, GridSpec(7, 7, 5, 0.3))
        values = [v for *_, v in res.trace]
        assert len(values) == 6
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_freeze_rho(self):
        res = max_r02_gdpc(STATEFUL, 0.0, GridSpec(9, 9, 2, 0.25), freeze_rho=True)
        assert res.best.rho == 0.0
        free = max_r02_gdpc(STATEFUL, 0.0, GridSpec(9, 9, 2, 0.25))
        assert res.value <= free.value + 1e-12

    def test_evaluation_count(self):
        res = max_r02_gdpc(STATEFUL, 0.3, GridSpec(5, 6, 2, 0.25))
        assert res.evaluations == 5 * 6 * 3

    def test_trace_is_float_rounds(self):
        grid = GridSpec(7, 7, 3, 0.3)
        res = max_r02_gdpc(STATEFUL, 0.2, grid)
        assert len(res.trace) == grid.refine_iters + 1
        assert all(len(row) == 4 for row in res.trace)
        assert all(type(x) is float for row in res.trace for x in row)
        rho, beta, alpha2, _ = res.trace[-1]
        assert res.best == GdpcParams(0.2, rho, beta, alpha2)


def _interference_free_rows():
    """120 seeded channels with q = 0, each at gammas 0, 0.3, a drawn one
    and 1: p1, p2 and n1 within three decades of a scale in 1e+-100,
    n2/n1 up to 1e6, and p2 = 0 on every third channel."""
    rng = np.random.default_rng(28)
    rows = []
    for i in range(120):
        scale, e1, e2, en, er, gamma = rng.uniform(
            [-100.0, -3.0, -3.0, -3.0, 0.01, 0.0], [100.0, 3.0, 3.0, 3.0, 6.0, 1.0]
        ).tolist()
        p1, p2, n1 = (10.0 ** (scale + e) for e in (e1, e2, en))
        c = ChannelParams(p1, 0.0 if i % 3 == 0 else p2, 0.0, n1, n1 * 10.0**er)
        rows += [(c, g) for g in (0.0, 0.3, gamma, 1.0)]
    return rows


class TestInterferenceFree:
    # with q = 0 nothing is left to bin against, so a gdpc or dpc row is
    # the exact region's split at beta3 = 1 - beta^2, in closed form

    def test_rows_are_the_closed_form_split(self):
        rows = _interference_free_rows()
        batched = zip(optimize._search(rows, None, False), optimize._search(rows, None, True))
        for (c, gamma), (gdpc, dpc) in zip(rows, batched, strict=True):
            res = max_r02_gdpc(c, gamma)
            assert max_r02_gdpc(c, gamma, freeze_rho=True) == res
            assert _row(res) == gdpc == dpc
            best, value = res.best, res.value
            assert repr(value) == repr(min(gdpc_rates(c, best)[:2]))
            assert res.evaluations == 1
            assert repr(res.trace) == repr(((0.0, best.beta, 0.0, value),))
            beta3, want = _reference_max_beta_nostate(c, gamma)
            # 4e-16 at worst; without the step down from the bare root, six
            # rows read over 1e-14 low, by up to 2.7e-13
            assert abs(Decimal(value) - want) <= Decimal(1e-14), (c, gamma)
            if c.p2 == 0.0 or gamma == 1.0:
                # every beta ties, and the smallest is taken
                assert repr(best.beta) == "0.0"
            elif beta3 < 1:
                # the root s, to 1e-12 relative, and to the 1e-15/s that C's
                # own rounding allows as the crossing nears beta3 = 1
                s = (1 - beta3).sqrt()
                assert abs(Decimal(best.beta) - s) <= Decimal(1e-12) * s + Decimal(1e-15) / s
            # never below the grid search on the same row
            [(inc, _, _)] = optimize._search_pass([(*_scaled(c)[0], gamma)], [0.0], 1, DEFAULT_GRID)
            assert value >= inc[3], (c, gamma)

    def test_high_snr_split_keeps_beta3(self):
        # p1/n1 and n2/n1 near 3e5: the kernel's 1 - beta^2 is a multiple of
        # 2^-53 there, and at the bare root it fell below beta3 and read
        # r1_sum 1.6e-11 bits low
        c = ChannelParams(5.86463328240541e-86, 1.2077994957131236e-86, 0.0,
                          1.8701083312705223e-91, 7.274643570685296e-86)
        res = max_r02_gdpc(c, 0.0)
        _, want = _reference_max_beta_nostate(c, 0.0)
        assert abs(Decimal(res.value) - want) <= Decimal(1e-15)
        assert 1.0 - res.best.beta * res.best.beta >= max_beta_nostate(c, 0.0)[0]


class TestFrontier:
    def test_monotone_and_tagged(self):
        f = frontier(STATEFUL, "gdpc", np.linspace(0, 1, 9), GridSpec(9, 9, 2, 0.25))
        assert f.scheme == "gdpc"
        r1 = [p.rate.r1 for p in f.points]
        r02 = [p.rate.r02 for p in f.points]
        assert all(b > a for a, b in zip(r1, r1[1:]))
        assert all(b <= a for a, b in zip(r02, r02[1:]))

    def test_duplicate_gammas_collapse(self):
        f = frontier(STATEFUL, "gdpc", [0.2, 0.2, 0.6], GridSpec(5, 5, 1, 0.5))
        assert len(f.points) <= 2
        assert len({p.gamma for p in f.points}) == len(f.points)

    def test_outer_scheme_uses_single_knob(self):
        f = frontier(ANCHOR, "nostate-outer", [0.0, 0.5], GridSpec(5, 5, 1, 0.5))
        for p in f.points:
            assert p.rho == 0.0 and p.alpha2 == 0.0
        assert f.points[0].rate.r02 == pytest.approx(0.5 * math.log2(4.6), abs=1e-9)

    def test_gammas_with_equal_private_rate_collapse(self):
        # a subnormal gamma leaves r1 = cap_c(gamma*p1/n1) at exactly 0
        c = ChannelParams(1.0, 0.0, 0.0, 1.0, 2.0)
        for scheme in ("dpc", "nostate-outer"):
            f = frontier(c, scheme, [0.0, 5e-324, 0.5], GridSpec(5, 5, 1, 0.5))
            assert [p.gamma for p in f.points] == [0.0, 0.5]

    def test_dpc_never_beats_gdpc(self):
        grid = GridSpec(9, 9, 2, 0.25)
        for gamma in (0.0, 0.4):
            dpc = max_r02_gdpc(STATEFUL, gamma, grid, freeze_rho=True).value
            gd = max_r02_gdpc(STATEFUL, gamma, grid).value
            assert dpc <= gd + 1e-9

    def test_unknown_scheme(self):
        with pytest.raises(OutOfRange):
            frontier(STATEFUL, "bogus", [0.0, 0.5])

    @pytest.mark.parametrize("scheme", ["gdpc", "dpc"])
    def test_out_of_float_range_is_an_error(self, scheme):
        # the terms overflow in the powers as given; the channel spans 2^1993
        with pytest.raises(OutOfRange, match=SPAN):
            frontier(ChannelParams(1e300, 1.0, 1.0, 1e-300, 2e-300), scheme, [0.0])

    def test_r1_is_private_capacity(self):
        f = frontier(STATEFUL, "gdpc", [0.0, 0.5], GridSpec(5, 5, 1, 0.5))
        for p in f.points:
            assert p.rate.r1 == pytest.approx(
                cap_c(p.gamma * STATEFUL.p1 / STATEFUL.n1), abs=1e-12
            )


class TestSweepSnr:
    def test_rows_follow_input_order(self):
        rows = sweep_snr(STATEFUL, [20.0, 10.0, 30.0], "gdpc", GridSpec(5, 5, 1, 0.5))
        assert [r.snr_db for r in rows] == [20.0, 10.0, 30.0]
        for r in rows:
            assert r.n1 == pytest.approx(STATEFUL.p1 / 10 ** (r.snr_db / 10), abs=1e-15)
            assert not r.skipped

    def test_low_snr_rows_are_skipped(self):
        rows = sweep_snr(STATEFUL, [-10.0, 10.0], "gdpc", GridSpec(5, 5, 1, 0.5))
        assert rows[0].skipped and rows[0].rate is None
        assert not rows[1].skipped and rows[1].rate > 0

    def test_skip_boundary_is_noise_ordering(self):
        # n1 == n2 exactly is not a valid channel, so the row is skipped
        snr_edge = 10 * math.log10(STATEFUL.p1 / STATEFUL.n2)
        rows = sweep_snr(STATEFUL, [snr_edge], "gdpc", GridSpec(5, 5, 1, 0.5))
        assert rows[0].skipped

    def test_outer_scheme_value(self):
        rows = sweep_snr(ANCHOR, [10.0], "nostate-outer")
        assert rows[0].rate == pytest.approx(0.5 * math.log2(4.6), abs=1e-9)

    def test_rejects_unrepresentable_snr(self):
        # 10**(snr/10) overflows (4000), underflows to 0 (-4000, -inf), or
        # p1 over it overflows (-3100); nan is no SNR at all. At 1510 dB n1
        # lies 2^502 below p1, past the span bound
        for snr in (4000.0, -4000.0, -3100.0, -math.inf, math.inf, math.nan, 1510.0):
            with pytest.raises(OutOfRange):
                sweep_snr(STATEFUL, [10.0, snr], "gdpc", GridSpec(5, 5, 1, 0.5))

    def test_out_of_float_range_is_an_error(self):
        # n1 = p1 at 0 dB, where a = pwt*(pwt + ...) overflows in the
        # powers as given; the base channel spans 2^1997, so it is the error
        with pytest.raises(OutOfRange, match=SPAN):
            sweep_snr(ChannelParams(1e300, 1.0, 1.0, 1e-300, 1e301), [0.0], "gdpc")

    def test_empty_lists_are_rejected(self):
        with pytest.raises(OutOfRange):
            sweep_snr(STATEFUL, [], "gdpc")
        with pytest.raises(OutOfRange):
            frontier(STATEFUL, "gdpc", [])


# ---------------------------------------------------------------------------
# The batched box search against the single-row reference search, one
# (channel, gamma) at a time on meshgridded axes with the two-log alpha2
# kernel: each batched row must reproduce every field of its OptResult
# bit for bit.


def _row(res):
    """An OptResult as the batched search returns a row: its incumbent
    (rho, beta, alpha2, value), its cell count and its trace."""
    return (res.best.rho, res.best.beta, res.best.alpha2, res.value), res.evaluations, res.trace


def _assert_same_results(got, want):
    """Batched rows against reference OptResults."""
    want = [_row(w) for w in want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        # == treats -0.0 and 0.0 alike; the CSV writer does not
        assert repr(g) == repr(w)


def _assert_in_bounds(rows, got):
    """The pass runs no validate_gdpc: every incumbent is in bounds."""
    for (c, gamma), (inc, _, _) in zip(rows, got, strict=True):
        knobs = GdpcParams(gamma, *inc[:3])
        assert validate_gdpc(c, knobs) is knobs


def _rng(draw):
    """A numpy generator seeded by one draw. The continuous fields, the
    counts and the sizes come from it: derandomized hypothesis float draws
    favour their bounds, and repeated integer or list draws let hypothesis
    rerun an example's seed with only its small choices changed. Edge
    values stay explicit ``sampled_from`` branches; each branch list holds
    fresh generator values, so no two branches look alike to hypothesis."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def search_rows(draw):
    """Rows of (channel, gamma) over a pool of up to three channels at
    scales 1e-12..1e8, gammas with duplicates, 0 and 1."""
    rng = _rng(draw)
    pool = []
    for _ in range(rng.integers(1, 4)):
        k = 10.0 ** rng.uniform(-12.0, 8.0)
        n1 = rng.uniform(0.05, 1.0)
        # a q far below p1 moves the value by less than the tie tolerance
        # over alpha2, so tied candidates differ
        q = draw(st.sampled_from([0.0, rng.uniform(0.1, 4.0), 10.0 ** rng.uniform(-15.0, -10.0)]))
        p2 = draw(st.sampled_from([0.0, rng.uniform(0.0, 4.0)]))
        p1, n2 = rng.uniform(0.2, 4.0), n1 * rng.uniform(1.5, 8.0)
        pool.append(ChannelParams(p1 * k, p2 * k, q * k, n1 * k, n2 * k))
    rows = []
    for _ in range(rng.integers(1, 13)):
        gamma = draw(st.sampled_from([0.0, 1.0, 0.5, *rng.uniform(size=3).tolist()]))
        rows.append((pool[rng.integers(len(pool))], gamma))
    return rows + rows[: rng.integers(0, 3)]


@st.composite
def small_grids(draw):
    rng = _rng(draw)
    # the tiny factors shrink a box to a single point within a round
    shrink = draw(st.sampled_from([1e-17, 1e-300, *rng.uniform(0.05, 0.95, 2).tolist()]))
    steps = rng.integers(2, 10, 2).tolist()
    return GridSpec(*steps, int(rng.integers(0, 5)), shrink)


class TestBatchedSearch:
    @settings(PROPERTY, max_examples=100)
    @given(search_rows(), st.integers(0, 2**32 - 1))
    def test_kernel_matches_meshgrid_kernel(self, rows, seed):
        # random ascending axes, one row per (channel, gamma)
        rng = np.random.default_rng(seed)
        n_rho, n_beta = rng.integers(1, 7, 2)
        rho = np.sort([rng.uniform(0, rho_upper_bound(c, g), n_rho) for c, g in rows])
        shape = (len(rows), n_beta)
        beta = np.sort(np.where(rng.uniform(size=shape) < 0.5, 1.0, rng.uniform(size=shape)))
        knobs = np.array([(c.p1, c.p2, c.q, c.n1, c.n2, g) for c, g in rows])
        terms = _row_terms(*knobs.T[:, :, np.newaxis, np.newaxis])
        got = _best_alpha2(terms, rho[:, :, np.newaxis], beta[:, np.newaxis, :])
        for i, (c, g) in enumerate(rows):
            rr, bb = np.meshgrid(rho[i], beta[i], indexing="ij")
            want = _reference_best_alpha2(c.p1, c.p2, c.q, c.n1, c.n2, g, rr, bb)
            for x, y in zip(got, want):
                assert x[i].tobytes() == y.tobytes()

    @settings(PROPERTY, max_examples=150)
    @given(
        search_rows(),
        small_grids(),
        st.booleans(),
        st.sampled_from([1, 40, 200, 2048, optimize._PASS_CELLS]),
    )
    def test_matches_per_gamma_search(self, rows, grid, freeze_rho, pass_cells):
        want = [_reference_max_r02_gdpc(c, g, grid, freeze_rho=freeze_rho) for c, g in rows]
        with mock.patch.object(optimize, "_PASS_CELLS", pass_cells):
            got = optimize._search(rows, grid, freeze_rho)
        _assert_same_results(got, want)
        _assert_in_bounds(rows, got)

    @settings(PROPERTY, max_examples=60)
    @given(search_rows(), small_grids(), st.booleans())
    def test_value_is_the_scalar_rate_at_best(self, rows, grid, freeze_rho):
        for c, gamma in rows[:3]:
            res = max_r02_gdpc(c, gamma, grid, freeze_rho=freeze_rho)
            want = min(gdpc_rates(c, res.best)[:2])
            assert repr(res.value) == repr(want)

    def test_kernel_stacks_stay_under_the_mmap_threshold(self):
        # a full pass's three-candidate float64 stack stays under glibc's
        # default 128 KiB mmap threshold, so no kernel call maps and
        # faults in fresh pages
        assert 3 * optimize._PASS_CELLS * 8 < 128 * 1024

    def test_dpc_frontier_over_several_passes(self):
        gammas = [float(g) for g in np.linspace(0.0, 1.0, 201)]
        assert 201 * DEFAULT_GRID.steps_beta > optimize._PASS_CELLS
        got = optimize._search([(STATEFUL, g) for g in gammas], None, True)
        want = [_reference_max_r02_gdpc(STATEFUL, g, freeze_rho=True) for g in gammas]
        _assert_same_results(got, want)

    def test_gdpc_rows_at_default_grid(self):
        gammas = [0.0, 0.35, 0.97]
        got = optimize._search([(STATEFUL, g) for g in gammas], None, False)
        want = [_reference_max_r02_gdpc(STATEFUL, g) for g in gammas]
        _assert_same_results(got, want)

    def test_lone_rows_are_max_r02_gdpc_calls(self):
        # the 20 gdpc rows of a default frontier with a rho bound above 0
        # run as four passes of five 33 x 33 rows; the gamma = 1 row (rho
        # bound 0) is left over and solved by the per-point search, whose
        # own pass holds that row alone. The 21 dpc rows share one pass
        gammas = [float(g) for g in np.linspace(0.0, 1.0, 21)]
        passes = mock.patch.object(optimize, "_search_pass", wraps=optimize._search_pass)
        lone = mock.patch.object(optimize, "max_r02_gdpc", wraps=optimize.max_r02_gdpc)
        with passes as pass_spy, lone as lone_spy:
            optimize.frontier(STATEFUL, "gdpc", gammas)
            assert [len(c.args[0]) for c in pass_spy.call_args_list] == [5] * 4 + [1]
            assert [c.args[:2] for c in lone_spy.call_args_list] == [(STATEFUL, 1.0)]
            pass_spy.reset_mock()
            lone_spy.reset_mock()
            optimize.frontier(STATEFUL, "dpc", gammas)
            assert [len(c.args[0]) for c in pass_spy.call_args_list] == [21]
            assert lone_spy.call_count == 0

    def test_zero_rho_bound_row_shares_a_pass(self):
        # at gamma = 1 nothing is left to cancel with, so that row's rho
        # axis has one point while its pass mates have five
        grid = GridSpec(5, 5, 2, 0.25)
        rows = [(STATEFUL, 0.3), (STATEFUL, 1.0), (STATEFUL, 0.6)]
        assert len(rows) * 5 * 5 <= optimize._PASS_CELLS
        got = optimize._search(rows, grid, False)
        assert got[1][1] == (grid.refine_iters + 1) * grid.steps_beta
        assert got[0][1] == (grid.refine_iters + 1) * 5 * 5
        _assert_same_results(got, [_reference_max_r02_gdpc(c, g, grid) for c, g in rows])

    def test_axes_match_linspace(self):
        lo = np.array([0.0, 0.25, 0.5, 1e-310, 0.0, 0.3])
        hi = np.array([1.0, 0.75, 0.5, 2e-310, 5e-324, 0.3 + 2**-50])
        for n in (2, 5, 33):
            # the pass hands each box's ends over as a tuple of floats
            got = optimize._axes(tuple(lo.tolist()), tuple(hi.tolist()), n)
            for row, (a, b) in zip(got, zip(lo, hi)):
                assert row.tobytes() == np.linspace(a, b, n).tobytes()
                # no point lies past its box end, so an incumbent keeps its box's bound
                assert a <= row.min() and row.max() <= b


# ---------------------------------------------------------------------------
# The pass keeps each row's box, incumbent, trace and cell count in plain
# floats, and reports each row's incumbent value as its value.
# Each row must equal, in == and in repr, the fields of the single-row
# reference search of that row: the threshold, the tie rule, the shrink
# and the clip are the same IEEE operations on the same floats.


def _reference_pass(rows, rho_hi, grid):
    """The reference search of each row of a pass, in order; a row whose
    rho bound is 0 searches rho = 0 alone, as the pass does."""
    return [
        _reference_box_search(c, gamma, grid, freeze_rho=hi == 0.0)
        for (c, gamma), hi in zip(rows, rho_hi)
    ]


def _draw_pass(rng):
    """A pass as ``_search`` forms one: rows over a pool of up to three
    channels at scales 1e-12..1e8, where q = 0 gives a row a rho bound of
    0 next to rows with a bound above 0; gammas with 0 (the rho bound
    clips) and 1 (every cell ties at 0); rho frozen one time in four; and
    a small grid whose shrink of 1e-17 or 1e-300 collapses the boxes."""
    pool = []
    for _ in range(rng.integers(1, 4)):
        k = 10.0 ** rng.uniform(-12.0, 8.0)
        p1, p2, q, n1, ratio = rng.uniform([0.2, 0.0, 0.1, 0.05, 1.5], [4.0, 4.0, 4.0, 1.0, 8.0])
        p2 = rng.choice([0.0, p2])
        q = rng.choice([0.0, q, 10.0 ** rng.uniform(-15.0, -10.0)])
        pool.append(ChannelParams(p1 * k, p2 * k, q * k, n1 * k, n1 * ratio * k))
    rows = [
        (pool[rng.integers(len(pool))], float(rng.choice([0.0, 1.0, rng.uniform()])))
        for _ in range(rng.integers(1, 9))
    ]
    shrink = float(rng.choice([1e-17, 1e-300, rng.uniform(0.05, 0.95)]))
    grid = GridSpec(*rng.integers(2, 8, 2).tolist(), int(rng.integers(0, 5)), shrink)
    frozen = rng.uniform() < 0.25
    rho_hi = [0.0 if frozen else rho_upper_bound(c, g) for c, g in rows]
    return rows, rho_hi, grid.steps_rho if max(rho_hi) > 0.0 else 1, grid


def _pass_edges(rows, rho_hi, grid, results):
    """The edges a pass reaches: rho bounds of 0 and above 0 together, an
    incumbent on the lower or the upper end of an axis with a later round
    to clip, a box collapsed to a point, and exact ties at value 0."""
    edges = set()
    if min(rho_hi) == 0.0 < max(rho_hi):
        edges.add("mixed bounds")
    full = (grid.refine_iters + 1) * grid.steps_beta
    for hi, ((*_, value), cells, trace) in zip(rho_hi, results):
        for rho, beta, _, _ in trace[:-1]:
            if rho == 0.0 < hi or beta == 0.0:
                edges.add("clip at 0")
            if rho == hi > 0.0 or beta == 1.0:
                edges.add("clip at bound")
        if cells < full * (grid.steps_rho if hi > 0.0 else 1):
            edges.add(f"collapse at {grid.refine_shrink:g}")
        if value == 0.0:
            edges.add("ties")
    return edges


class TestPassBookkeeping:
    @settings(PROPERTY, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_pass(self, seed):
        rows, rho_hi, n_rho, grid = _draw_pass(np.random.default_rng(seed))
        got = optimize._search_pass(_float_rows(rows), rho_hi, n_rho, grid)
        _assert_same_results(got, _reference_pass(rows, rho_hi, grid))
        _assert_in_bounds(rows, got)

    def test_seeded_passes_reach_every_edge(self):
        edges = set()
        for seed in range(60):
            rows, rho_hi, n_rho, grid = _draw_pass(np.random.default_rng(seed))
            got = optimize._search_pass(_float_rows(rows), rho_hi, n_rho, grid)
            _assert_same_results(got, _reference_pass(rows, rho_hi, grid))
            edges |= _pass_edges(rows, rho_hi, grid, got)
        assert edges == {
            "mixed bounds", "clip at 0", "clip at bound",
            "collapse at 1e-17", "collapse at 1e-300", "ties",
        }

    def test_exact_tie_at_a_positive_value(self):
        # the second round's beta axis holds 0.5 one ulp low at the same
        # value as 0.5, and the tie rule moves the incumbent there; the
        # q = 0 row has a rho bound of 0 in the same pass
        c = ChannelParams(3.1, 3.8, 3.8, 1.0, 2.75)
        rows = [(c, 0.0), (c, 0.5), (ANCHOR, 0.0)]
        rho_hi = [rho_upper_bound(ch, g) for ch, g in rows]
        grid = GridSpec(3, 3, 1, 0.9)
        got = optimize._search_pass(_float_rows(rows), rho_hi, 3, grid)
        trace = got[0][2]
        assert [beta for _, beta, _, _ in trace] == [0.5, 0.49999999999999994]
        assert trace[0][3] == trace[1][3]
        _assert_same_results(got, _reference_pass(rows, rho_hi, grid))

    def test_threshold_holds_the_incumbent_value(self):
        # a synthetic kernel over beta alone: round 1 (axis step 1/8)
        # peaks at beta = 0.5; round 2 (step 1/16) adds 0.3125 within the
        # tie tolerance below that value and 0.4375 at it. The threshold
        # is the incumbent's value, so the first cell at it is 0.4375,
        # which ties and moves the incumbent to the smaller knob. The
        # search hands it (row terms, rho, beta), the reference the six
        # knobs, rho and beta.
        def kernel(*knobs_rho_beta):
            rho, beta = knobs_rho_beta[-2:]
            beta = beta + 0.0 * rho  # the full (row, rho, beta) shape
            v = np.select([beta == 0.5, beta == 0.4375, beta == 0.3125], [1.0, 1.0, 1.0 - 0.5e-12])
            return np.zeros_like(v), v

        rows = [(ANCHOR, 0.0), (ANCHOR, 0.5)]
        grid = GridSpec(2, 9, 1, 0.5)
        with mock.patch.object(optimize, "_best_alpha2", kernel):
            got = optimize._search_pass(_float_rows(rows), [0.0, 0.0], 1, grid)
        with mock.patch.object(references, "_reference_best_alpha2", kernel):
            want = _reference_pass(rows, [0.0, 0.0], grid)
        assert [beta for _, beta, _, _ in got[0][2]] == [0.5, 0.4375]
        # the reference's value is the real gdpc_rates at its best point,
        # which the synthetic values cannot match: the value is the last
        # value the synthetic kernel ranked
        for (inc, cells, trace), w in zip(got, want, strict=True):
            want_inc, want_cells, want_trace = _row(w)
            assert repr((inc[:3], cells, trace)) == repr((want_inc[:3], want_cells, want_trace))
            assert inc[3].hex() == trace[-1][3].hex()


# ---------------------------------------------------------------------------
# A row's value, the value its last grid round ranked at its best point,
# is min(r1_sum, r2_sum) of one scalar gdpc_rates call there: the scalar
# path and the grid kernel square, divide and take logs by the same float
# operations.


@st.composite
def frontier_channels(draw):
    """A channel drawn as region-trace draws them, at scale 1e-12..1e8,
    with p2 and q each 0 one time in five. The fields come from a seeded
    generator, so a draw is a generic channel rather than one of the
    boundary values hypothesis favours."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = 10.0 ** rng.uniform(-12.0, 8.0)
    p1, p2, q, n1, ratio = rng.uniform([0.2, 0.0, 0.1, 0.05, 1.5], [4.0, 4.0, 4.0, 1.0, 8.0])
    p2, q = (0.0 if rng.random() < 0.2 else v for v in (p2, q))
    return ChannelParams(p1 * k, p2 * k, q * k, n1 * k, n1 * ratio * k)


def _assert_value_is_scalar_rate(rows, results):
    for (c, gamma), (inc, _, trace) in zip(rows, results, strict=True):
        # float.hex tells -0.0 from 0.0
        assert inc[3].hex() == trace[-1][3].hex(), inc
        assert inc[3].hex() == min(gdpc_rates(c, GdpcParams(gamma, *inc[:3]))[:2]).hex(), inc


class TestValueIsScalarRate:
    @settings(PROPERTY, max_examples=60)
    @given(frontier_channels())
    @example(ChannelParams(1.3, 0.0, 0.7, 0.4, 1.5))
    @example(ChannelParams(1.3, 2.1, 0.0, 0.4, 1.5))
    def test_frontier_rows(self, c):
        # 21-gamma gdpc and dpc frontiers, and a 301-gamma dpc frontier:
        # squaring by C pow missed on about 1 row in 2,500, and dpc rows
        # are cheap
        for n, freeze_rho in ((21, False), (21, True), (301, True)):
            rows = [(c, float(g)) for g in np.linspace(0.0, 1.0, n)]
            _assert_value_is_scalar_rate(rows, optimize._search(rows, None, freeze_rho))

    def test_dpc_row_where_pow_and_product_differ(self):
        # squaring with C pow on the scalar path only read one ulp above
        # the grid value at gamma = 0.13
        c = ChannelParams(1.0, 1.0, 2.0, 0.1, 1.0)
        gammas = [float(g) for g in np.linspace(0.0, 1.0, 101)]
        rows = [(c, g) for g in gammas]
        results = optimize._search(rows, None, True)
        assert gammas[13] == 0.13
        assert results[13][0][3] == 0.6545741087580708
        _assert_value_is_scalar_rate(rows, results)


# ---------------------------------------------------------------------------
# The kernel takes one log per candidate, 0.5*log2(min(a/b, c/d)), where
# the reference takes the log of each ratio and then the min. The two
# agree bit for bit only because np.log2 never decreases. The cells below
# hold ratios that are equal or a few ulps apart, where a log that dipped
# would show, ratios of nan (0/0), and ratios near the widest that a
# channel inside the span bound gives.

# at gamma = 0.5 the rho bound is 1; four cells tie exactly, one by 1-4
# ulps, and beta = 1 gives pwt = 0, so a/b = 0/0 at alpha2 = 0
STATEFUL_CELLS = ((*astuple(STATEFUL), 0.5), [0.0, 0.25, 0.5], [0.0, 0.5, 1.0])
# a/b near 2^465 on the scaled powers; as given, b underflowed to 0 while
# a did not, and a/b read +inf, a row the search never passes the kernel
UNDERFLOW_CELLS = _scaled_row(
    ChannelParams(1e-160, 0.0, 0.0, 1e-300, 2e-300), 0.0, [0.0], [0.0, 0.5, 1.0]
)


def _axes(rho, beta):
    """A rho column and a beta row, from lists or from axes so shaped."""
    return np.reshape(rho, (-1, 1)), np.reshape(beta, (1, -1))


def _ratios(knobs, rho, beta):
    axes = _axes(rho, beta)
    with np.errstate(all="ignore"):
        _, a, b, c, d = _reference_products(*knobs, *axes)
        return a / b, c / d


def _ulps_apart(x, y):
    """How many floats apart x and y are where both are finite and
    positive, -1 elsewhere."""
    both = np.isfinite(x) & np.isfinite(y) & (x > 0.0) & (y > 0.0)
    return np.where(both, np.abs(x.view(np.int64) - y.view(np.int64)), -1)


def _has_near_tie(row):
    ulps = _ulps_apart(*_ratios(*row))
    return bool(((ulps >= 0) & (ulps <= 4)).any())


@st.composite
def tie_cells(draw):
    """Knobs of a channel at scale 1e-12..1e8 with interference (the
    crossing candidates need it), a gamma, a rho axis within its bound
    and a beta axis that holds 1 (so a/b = 0/0 in those cells)."""
    rng = _rng(draw)
    k = 10.0 ** rng.uniform(-12.0, 8.0)
    q = draw(st.sampled_from([rng.uniform(0.1, 4.0), 10.0 ** rng.uniform(-15.0, -10.0)]))
    p2 = draw(st.sampled_from([0.0, rng.uniform(0.0, 4.0)]))
    p1, n1, ratio = rng.uniform(0.2, 4.0), rng.uniform(0.05, 1.0), rng.uniform(1.5, 8.0)
    c = ChannelParams(p1 * k, p2 * k, q * k, n1 * k, n1 * ratio * k)
    gamma = draw(st.sampled_from([0.0, 0.5, *rng.uniform(size=2).tolist()]))
    rho = sorted((rho_upper_bound(c, gamma) * rng.uniform(size=rng.integers(2, 6))).tolist())
    beta = sorted([*rng.uniform(size=rng.integers(2, 5)).tolist(), 1.0])
    return (*astuple(c), gamma), rho, beta


class TestOneLog:
    def test_examples_hold_ties_nan_and_wide_ratios(self):
        r1, r2 = _ratios(*STATEFUL_CELLS)
        ulps = _ulps_apart(r1, r2)
        assert (ulps == 0).any()
        assert ((ulps > 0) & (ulps <= 4)).any()
        assert np.isnan(r1).any()
        r1, _ = _ratios(*UNDERFLOW_CELLS)
        assert np.isfinite(r1).all() and r1.max() > 2.0**460

    @settings(PROPERTY, max_examples=150)
    @given(tie_cells().filter(_has_near_tie))
    @example(STATEFUL_CELLS)
    @example(UNDERFLOW_CELLS)
    def test_matches_two_log_reference_at_ties(self, row):
        knobs, rho, beta = row
        axes = _axes(rho, beta)
        got = _best_alpha2(_row_terms(*knobs), *axes)
        with np.errstate(all="ignore"):
            want = _reference_best_alpha2(*knobs, *axes)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()

    def test_log2_never_decreases_across_neighbours(self):
        rng = np.random.default_rng(0)
        start = np.concatenate(
            [
                10.0 ** rng.uniform(-300.0, 300.0, 100_000),
                # near 1, where log2 crosses 0, and at powers of two,
                # where it is exact
                1.0 + rng.uniform(-1e-6, 1e-6, 10_000),
                2.0 ** np.arange(-996.0, 997.0),
            ]
        )
        for _ in range(4):
            start = np.nextafter(start, 0.0)
        run = [start]
        for _ in range(8):
            run.append(np.nextafter(run[-1], np.inf))
        logs = np.log2(np.array(run))
        assert (np.diff(logs, axis=0) >= 0.0).all()


class TestSchemeOrdering:
    @settings(PROPERTY, max_examples=25)
    @given(search_rows())
    def test_dpc_below_gdpc_below_outer(self, rows):
        c = rows[0][0]
        gammas = sorted({g for _, g in rows} | {0.0, 0.25, 0.5, 0.75, 1.0})
        values = {
            scheme: [v for *_, v in optimize._solve_all(scheme, [(c, g) for g in gammas], None)]
            for scheme in ("dpc", "gdpc", "nostate-outer")
        }
        for gamma, dpc, gdpc, outer in zip(gammas, *values.values()):
            assert dpc <= gdpc + 1e-9, (gamma, dpc, gdpc)
            assert gdpc <= outer + 1e-9, (gamma, gdpc, outer)
        for scheme in values:
            f = frontier(c, scheme, gammas)
            r1 = [p.rate.r1 for p in f.points]
            r02 = [p.rate.r02 for p in f.points]
            assert all(b > a for a, b in zip(r1, r1[1:]))
            assert all(b <= a for a, b in zip(r02, r02[1:]))
