import math

import numpy as np
import pytest

from relayregions import (
    ChannelParams,
    DEFAULT_GRID,
    GdpcParams,
    GridSpec,
    OutOfRange,
    cap_c,
    frontier,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    sweep_snr,
)

ANCHOR = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
STATEFUL = ChannelParams(1.0, 1.0, 2.0, 0.1, 1.0)


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
        values = [v for _, v in res.trace]
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

    def test_dpc_never_beats_gdpc(self):
        grid = GridSpec(9, 9, 2, 0.25)
        for gamma in (0.0, 0.4):
            dpc = max_r02_gdpc(STATEFUL, gamma, grid, freeze_rho=True).value
            gd = max_r02_gdpc(STATEFUL, gamma, grid).value
            assert dpc <= gd + 1e-9

    def test_unknown_scheme(self):
        with pytest.raises(OutOfRange):
            frontier(STATEFUL, "bogus", [0.0, 0.5])

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
