import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayregions import (
    AuxJoint,
    DmcSpec,
    OutOfRange,
    RatePoint,
    binary_pipes_spec,
    discrete_cmi,
    dmc_maximize,
    eval_informed_both,
    eval_informed_source,
)
from relayregions import cli, dmc
from relayregions.dmc import AXES
from relayregions.model import _TIE_TOL

from references import (
    PROPERTY, _per_term_evaluate, _product_compositions, _reference_maximize, compose_full,
)

DATA = Path(__file__).parent / "data"
BOUNDS = {"informed-source": eval_informed_source, "informed-both": eval_informed_both}


def _random_spec(rng, sizes):
    ns, _, _, nx1, nx2, ny1, ny2 = sizes
    p_s = rng.dirichlet(np.ones(ns))
    channel = rng.dirichlet(np.ones(ny1 * ny2), size=(ns, nx1, nx2)).reshape(
        ns, nx1, nx2, ny1, ny2
    )
    return DmcSpec(sizes=sizes, p_s=p_s, channel=channel)


def _flat_spec():
    """Outputs independent of inputs: every rate is 0 up to rounding."""
    sizes = (1, 1, 2, 2, 2, 2, 2)
    return DmcSpec(sizes=sizes, p_s=np.ones(1), channel=np.full((1, 2, 2, 2, 2), 0.25))


def _subnormal_state_spec():
    """A flat channel whose state-0 rows round to zero or to p_s[0]."""
    sizes = (2, 1, 2, 2, 1, 2, 2)
    return DmcSpec(sizes=sizes, p_s=[5e-324, 1.0], channel=np.full((2, 2, 1, 2, 2), 0.25))


def _random_aux(rng, d):
    shape = d.sizes[:5]
    cells = int(np.prod(shape[1:]))
    cond = rng.dirichlet(np.ones(cells), size=shape[0])
    return AuxJoint((np.asarray(d.p_s)[:, None] * cond).reshape(shape))


def test_axes_order():
    assert AXES == ("s", "u1", "u2", "x1", "x2", "y1", "y2")


class TestSpecValidation:
    def test_alphabet_cap(self):
        with pytest.raises(OutOfRange):
            DmcSpec(
                sizes=(5, 1, 2, 2, 2, 2, 2),
                p_s=np.ones(5) / 5,
                channel=np.ones((5, 2, 2, 2, 2)) / 4,
            )

    @pytest.mark.parametrize("size", [True, 2.0, 0], ids=["bool", "float", "zero"])
    def test_alphabet_size_is_a_count(self, size):
        """A bool is an int to Python but not a count: True once built a
        spec with |s| = 1."""
        with pytest.raises(OutOfRange, match=re.escape("|s| must be an integer >= 1")):
            DmcSpec(sizes=(size, 2, 2, 2, 2, 2, 2), p_s=np.ones(1), channel=np.full((1, 2, 2, 2, 2), 0.25))

    def test_p_s_must_normalize(self):
        with pytest.raises(OutOfRange, match="p_s must sum to 1 within 1e-12"):
            DmcSpec(
                sizes=(2, 1, 2, 2, 2, 2, 2),
                p_s=np.array([0.6, 0.6]),
                channel=np.ones((2, 2, 2, 2, 2)) / 4,
            )

    def test_p_s_is_stored_normalized(self):
        # a p_s inside the 1e-12 band is divided by its sum; one that sums
        # to exactly 1 keeps its bits
        ch = np.full((2, 2, 2, 2, 2), 0.25)
        near = DmcSpec(sizes=(2, 1, 2, 2, 2, 2, 2), p_s=[0.75 - 0.9e-12, 0.25], channel=ch)
        assert abs(near.p_s.sum() - 1.0) <= 2**-52
        exact = DmcSpec(sizes=(2, 1, 2, 2, 2, 2, 2), p_s=[0.1, 0.9], channel=ch)
        assert exact.p_s.tolist() == [0.1, 0.9]

    def test_channel_rows_must_normalize(self):
        bad = np.ones((1, 2, 2, 2, 2)) / 4
        bad[0, 0, 0] *= 0.9
        with pytest.raises(OutOfRange, match="channel rows must sum to 1 within 1e-12"):
            DmcSpec(sizes=(1, 1, 2, 2, 2, 2, 2), p_s=np.ones(1), channel=bad)

    def test_aux_joint_must_normalize(self):
        with pytest.raises(OutOfRange, match="aux joint must sum to 1 within 1e-12"):
            AuxJoint(np.full((1, 1, 2, 2, 2), 0.2))

    def test_sizes_must_list_seven_axes(self):
        with pytest.raises(OutOfRange, match="sizes must list 7"):
            DmcSpec(sizes=(1, 1, 2, 2, 2, 2), p_s=np.ones(1), channel=np.ones((1, 2, 2, 2, 2)) / 4)

    def test_p_s_shape(self):
        with pytest.raises(OutOfRange, match="p_s must have shape"):
            DmcSpec(
                sizes=(2, 1, 2, 2, 2, 2, 2),
                p_s=np.ones(3) / 3,
                channel=np.ones((2, 2, 2, 2, 2)) / 4,
            )

    def test_channel_shape(self):
        with pytest.raises(OutOfRange, match="channel must be indexed"):
            DmcSpec(sizes=(1, 1, 2, 2, 2, 2, 2), p_s=np.ones(1), channel=np.ones((1, 2, 2, 4)) / 4)

    def test_aux_joint_must_be_five_dimensional(self):
        with pytest.raises(OutOfRange, match="5-dimensional"):
            AuxJoint(np.full((1, 2, 2, 2), 1 / 8))


class TestCompose:
    def test_shape_mismatch(self):
        d = binary_pipes_spec()
        message = "aux joint shape (1, 2, 2, 2, 2) does not match spec sizes (1, 1, 2, 2, 2)"
        with pytest.raises(OutOfRange, match=re.escape(message)):
            eval_informed_both(d, AuxJoint(np.full((1, 2, 2, 2, 2), 1 / 16)))

    def test_marginal_must_match_state_law(self):
        rng = np.random.default_rng(0)
        d = _random_spec(rng, (2, 1, 2, 2, 2, 2, 2))
        cells = 8
        cond = rng.dirichlet(np.ones(cells), size=2)
        wrong = AuxJoint((np.array([[0.9], [0.1]]) * cond).reshape(2, 1, 2, 2, 2))
        with pytest.raises(OutOfRange, match="aux joint marginal over s must equal p_s"):
            eval_informed_source(d, wrong)

    def test_joint_normalizes_and_factors(self):
        rng = np.random.default_rng(1)
        d = _random_spec(rng, (2, 2, 2, 2, 2, 2, 2))
        a = _random_aux(rng, d)
        joint = compose_full(d, a)
        assert joint.shape == d.sizes
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        # p(y1,y2 | s,x1,x2) reproduces the channel wherever defined
        p_front = joint.sum(axis=(5, 6))
        for idx in np.ndindex(2, 2, 2, 2, 2):
            s, _, _, x1, x2 = idx
            mass = p_front[idx]
            if mass < 1e-12:
                continue
            got = joint[idx] / mass
            np.testing.assert_allclose(got, d.channel[s, x1, x2], atol=1e-12)


class TestDiscreteCmi:
    def test_one_name_per_axis(self):
        joint = np.full((2,) * 7, 1 / 2**7)
        with pytest.raises(OutOfRange, match="7 axes but 6 names"):
            discrete_cmi(joint, AXES[:6], ["s"], ["u1"])

    def test_axis_names_unique(self):
        # two axes named "a" would read as one variable: I(a,c;b) of the
        # same joint with distinct names, not an error
        joint = np.random.default_rng(3).dirichlet(np.ones(8)).reshape(2, 2, 2)
        with pytest.raises(OutOfRange, match="axis names must be unique"):
            discrete_cmi(joint, ("a", "a", "b"), ["a"], ["b"])

    def test_disjointness_required(self):
        joint = np.full((1, 1, 2, 2, 2, 2, 2), 1 / 32)
        with pytest.raises(OutOfRange):
            discrete_cmi(joint, AXES, ["x1"], ["x1"])

    def test_unknown_axis(self):
        joint = np.full((1, 1, 2, 2, 2, 2, 2), 1 / 32)
        with pytest.raises(OutOfRange):
            discrete_cmi(joint, AXES, ["x9"], ["y1"])

    def test_doubled_coin(self):
        # y1 copies x1 under the pipes spec, one bit on a uniform input
        d = binary_pipes_spec()
        aux = AuxJoint(np.full((1, 1, 2, 2, 2), 1 / 8))
        joint = compose_full(d, aux)
        assert discrete_cmi(joint, AXES, ["x1"], ["y1"]) == pytest.approx(
            1.0, abs=1e-12
        )
        assert discrete_cmi(joint, AXES, ["x1"], ["y2"]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_binary_entropy_formula(self):
        # mixture that correlates u2 with x1: I = 1 - H(eps)
        eps = 0.2
        d = binary_pipes_spec()
        pmf = np.zeros((1, 1, 2, 2, 2))
        for u2 in range(2):
            for x1 in range(2):
                w = (1 - eps) if u2 == x1 else eps
                pmf[0, 0, u2, x1, :] = 0.5 * w / 2
        joint = compose_full(d, AuxJoint(pmf))
        h = -(eps * np.log2(eps) + (1 - eps) * np.log2(1 - eps))
        assert discrete_cmi(joint, AXES, ["u2"], ["y1"]) == pytest.approx(
            1.0 - h, abs=1e-12
        )

    def test_markov_identity_random_joints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sizes = tuple(rng.integers(1, 4, size=7))
            d = _random_spec(rng, sizes)
            joint = compose_full(d, _random_aux(rng, d))
            leak = discrete_cmi(
                joint, AXES, ["u1", "u2"], ["y1", "y2"], ["x1", "x2", "s"]
            )
            assert leak <= 1e-10


class TestEvaluators:
    def test_pipes_relay_forwarding(self):
        # u2 mirrors x1, x2 independent: one clean bit on both hops
        d = binary_pipes_spec()
        pmf = np.zeros((1, 1, 2, 2, 2))
        pmf[0, 0, 0, 0, :] = 0.25
        pmf[0, 0, 1, 1, :] = 0.25
        pt = eval_informed_source(d, AuxJoint(pmf))
        assert pt.r02 == pytest.approx(1.0, abs=1e-12)

    def test_both_informed_no_state_penalty(self):
        rng = np.random.default_rng(9)
        d = _random_spec(rng, (1, 2, 2, 2, 2, 2, 2))
        a = _random_aux(rng, d)
        joint = compose_full(d, a)
        pt = eval_informed_both(d, a)
        want_r1 = discrete_cmi(joint, AXES, ["x1"], ["y1"], ["s", "u1", "x2"])
        assert pt.r1 == pytest.approx(want_r1, abs=1e-12)

    def test_rates_are_clamped(self):
        rng = np.random.default_rng(13)
        d = _random_spec(rng, (2, 2, 2, 2, 2, 2, 2))
        for _ in range(10):
            pt = eval_informed_source(d, _random_aux(rng, d))
            assert pt.r1 >= 0.0 and pt.r02 >= 0.0

    @pytest.mark.parametrize("bounds", sorted(BOUNDS))
    def test_evaluators_accept_the_search_answer(self, bounds):
        # every channel row passes the 1e-12 check but misses 1 by 0.9e-12,
        # and so does p_s before the spec divides it by its sum: the
        # evaluators must still give back the value the search reports for
        # its best strategy
        ch = np.zeros((2, 2, 1, 2, 2))
        for s, x1, y1, y2 in itertools.product(range(2), repeat=4):
            ch[s, x1, 0, y1, y2] = (0.9 if y1 == x1 ^ s else 0.1) * (0.8 if y2 == y1 else 0.2)
        ch *= 1 - 0.9e-12
        d = DmcSpec(sizes=(2, 1, 2, 2, 1, 2, 2), p_s=(0.75 - 0.9e-12, 0.25), channel=ch)
        r = dmc_maximize(d, bounds, 4)
        assert repr(BOUNDS[bounds](d, r.best)) == repr(r.value)


class TestChainRuleZero:
    """A term whose A or B has only one-symbol axes outside C is exactly
    +0.0: u1 has one symbol in this spec, so both r1 terms of the
    informed-source bound vanish, and r1 is 0.0 rather than the residue
    (h1 + h2) - h1 - h2 of their entropies."""

    SPEC = DATA / "dmc_residue.json"

    def _spec(self):
        config = json.loads(self.SPEC.read_text())["dmc"]
        return DmcSpec(tuple(config["sizes"]), config["p_s"], config["channel"])

    def test_search_and_evaluator(self):
        d = self._spec()
        res = dmc_maximize(d, "informed-source", 4)
        assert res.value.r1 == 0.0
        assert eval_informed_source(d, res.best).r1 == 0.0
        joint = compose_full(d, res.best)
        assert discrete_cmi(joint, AXES, ["u1"], ["y1"], ["u2", "x2"]) == 0.0

    def test_cli(self, tmp_path):
        out = tmp_path / "residue.json"
        assert cli.main(["dmc", "--config", str(self.SPEC), "--out", str(out)]) == 0
        value = json.loads(out.read_text())["value"]
        assert value["r1"] == 0.0 and value["r02"] > 0.0


class TestMaximize:
    def test_pipes_reach_one_bit(self):
        res = dmc_maximize(binary_pipes_spec(), bounds="informed-source", denominator=4)
        assert res.value.r02 == 1.0
        assert res.evaluations == 330

    def test_finer_denominator_never_hurts(self):
        # each denominator refines the one before, so the optima are nested.
        # Under r1 every candidate's r1 is 0 up to rounding (u1 is a
        # singleton), so all tie and the best r02 decides: rounding noise
        # in r1 must not pick the answer
        d = binary_pipes_spec()
        for objective in ("r02", "r1"):
            res = {
                den: dmc_maximize(d, "informed-source", den, objective) for den in (4, 8, 16)
            }
            best = {den: getattr(r.value, objective) for den, r in res.items()}
            assert best[8] >= best[4] - 1e-12
            assert best[16] >= best[8] - 1e-12
            assert res[16].evaluations == 245_157
            assert res[8].value == res[16].value == RatePoint(0.0, 1.0)

    def test_r1_objective(self):
        res = dmc_maximize(binary_pipes_spec(), bounds="informed-both",
                           denominator=4, objective="r1")
        assert res.value.r1 == 1.0

    def test_candidate_cap(self):
        rng = np.random.default_rng(2)
        d = _random_spec(rng, (4, 4, 4, 4, 4, 2, 2))
        with pytest.raises(OutOfRange, match="exceed the budget of 67108864 joint cells"):
            dmc_maximize(d, denominator=16)

    @pytest.mark.parametrize(
        "sizes,denominator,message",
        [
            # few enough candidates for a count alone, but each needs 192
            # cells of the composition table: 89.7 GB in all
            ((1, 4, 4, 4, 3, 1, 1), 4, "58409520 candidate strategies of 192 joint cells each"),
            ((2, 1, 2, 2, 2, 4, 4), 8, "41409225 candidate strategies of 256 joint cells each"),
        ],
    )
    def test_joint_cell_cap_is_checked_before_building(self, sizes, denominator, message):
        rng = np.random.default_rng(3)
        d = _random_spec(rng, sizes)
        with mock.patch.object(dmc, "_compositions", side_effect=AssertionError("built")):
            with pytest.raises(OutOfRange, match=message):
                dmc_maximize(d, denominator=denominator)

    def test_bad_arguments(self):
        d = binary_pipes_spec()
        with pytest.raises(OutOfRange):
            dmc_maximize(d, bounds="mystery")
        with pytest.raises(OutOfRange):
            dmc_maximize(d, denominator=5)
        with pytest.raises(OutOfRange):
            dmc_maximize(d, objective="r3")
        with pytest.raises(OutOfRange):
            dmc_maximize(d, denominator=8.0)
        with pytest.raises(OutOfRange):
            dmc_maximize(d, bounds=["x"])

    def test_deterministic(self):
        d = binary_pipes_spec()
        r1 = dmc_maximize(d, bounds="informed-source", denominator=4)
        r2 = dmc_maximize(d, bounds="informed-source", denominator=4)
        assert np.array_equal(r1.best.pmf, r2.best.pmf)
        assert r1.value == r2.value


class TestEdgeSpecs:
    """A p_s that misses 1 by nearly 1e-12 is legal, and every strategy
    the search builds from it must be too: the search checks none of them."""

    @pytest.mark.parametrize(
        "bounds, want", [("informed-source", (0.0, 0.0)), ("informed-both", (1.0, 0.0))]
    )
    def test_noiseless_spec_at_the_band_edge(self, bounds, want):
        # p_s sums to 1 - 9.99978e-13; y1 = x1 and y2 is a constant
        ch = np.zeros((2, 2, 1, 2, 1))
        for s, x1 in itertools.product(range(2), repeat=2):
            ch[s, x1, 0, x1, 0] = 1.0
        d = DmcSpec(
            sizes=(2, 1, 2, 2, 1, 2, 1), p_s=(0.6232655185893089, 0.3767344814096911), channel=ch
        )
        r = dmc_maximize(d, bounds, 16)
        assert (r.value.r1, r.value.r02) == want
        assert repr(BOUNDS[bounds](d, r.best)) == repr(r.value)

    def test_random_specs_at_the_band_edge(self):
        rng = np.random.default_rng(5)
        sizes = (2, 1, 2, 2, 1, 2, 2)
        for _ in range(16):
            a = rng.uniform(0.05, 0.95)
            b = 1.0 - a - 1e-12
            while abs(a + b - 1.0) > dmc._PMF_TOL:  # raise b by ulps until p_s is legal
                b = np.nextafter(b, 1.0)
            ch = rng.dirichlet(np.full(4, 0.3), size=(2, 2, 1)).reshape(2, 2, 1, 2, 2)
            d = DmcSpec(sizes=sizes, p_s=(a, b), channel=ch)
            for bounds in sorted(BOUNDS):
                r = dmc_maximize(d, bounds, 8)
                assert repr(BOUNDS[bounds](d, r.best)) == repr(r.value)


def _stateful_spec(b: float, useless: bool) -> DmcSpec:
    """|s| = |u2| = |x1| = |y1| = |y2| = 2, |u1| = |x2| = 1, y2 = y1 and
    p_s = (1 - b, b). At s = 0, y1 = x1; at s = 1, y1 is stuck at 1 (a
    defect), or uniform whatever x1 is (a useless state)."""
    channel = np.zeros((2, 2, 1, 2, 2))
    for x1 in range(2):
        channel[0, x1, 0, x1, x1] = 1.0
        if useless:
            channel[1, x1, 0, 0, 0] = channel[1, x1, 0, 1, 1] = 0.5
        else:
            channel[1, x1, 0, 1, 1] = 1.0
    return DmcSpec(sizes=(2, 1, 2, 2, 1, 2, 2), p_s=(1.0 - b, b), channel=channel)


class TestStatefulAnchors:
    """Textbook capacities with a real state. A stuck-at defect known at
    the encoder costs only the stuck share: capacity 1 - b (Kuznetsov &
    Tsybakov 1974; Heegard & El Gamal 1983). A state that makes y1 uniform
    cannot help: capacity is that of a BSC(b/2), 1 - h(b/2)."""

    @pytest.mark.parametrize("bounds", list(BOUNDS))
    @pytest.mark.parametrize("denominator", [4, 8])
    @pytest.mark.parametrize("b", [0.25, 0.5])
    @pytest.mark.parametrize("useless", [False, True], ids=["defect", "useless-state"])
    def test_r02_reaches_capacity(self, useless, b, denominator, bounds):
        p = b / 2
        want = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p) if useless else 1.0 - b
        res = dmc_maximize(_stateful_spec(b, useless), bounds, denominator)
        assert abs(res.value.r02 - want) <= _TIE_TOL


def _assert_matches_reference(d, bounds, denominator, objective):
    res = dmc_maximize(d, bounds=bounds, denominator=denominator, objective=objective)
    pmf, value, evaluations = _reference_maximize(d, bounds, denominator, objective)
    assert np.array_equal(res.best.pmf, pmf)
    assert repr(res.value) == repr(BOUNDS[bounds](d, res.best))
    assert abs(res.value.r1 - value.r1) <= 1e-12
    assert abs(res.value.r02 - value.r02) <= 1e-12
    assert res.evaluations == evaluations


class TestBatchedSearch:
    """dmc_maximize screens candidates in numpy batches and keeps the tied
    ones in a pool; it must pick the plain loop's pmf, and report what
    the evaluators give for it, within 1e-12 bits of the loop's value."""

    @pytest.mark.parametrize("bounds", sorted(BOUNDS))
    @pytest.mark.parametrize("objective", ["r02", "r1"])
    def test_pipes_match_reference(self, bounds, objective):
        _assert_matches_reference(binary_pipes_spec(), bounds, 4, objective)

    @pytest.mark.parametrize(
        "seed,sizes,bounds,objective",
        [
            (0, (2, 1, 2, 2, 1, 2, 2), "informed-source", "r02"),
            (1, (2, 2, 1, 2, 1, 2, 2), "informed-both", "r02"),
            (2, (1, 2, 2, 2, 1, 2, 3), "informed-source", "r1"),
            (3, (3, 1, 1, 2, 1, 3, 2), "informed-both", "r1"),
        ],
    )
    def test_random_specs_match_reference(self, seed, sizes, bounds, objective):
        d = _random_spec(np.random.default_rng(seed), sizes)
        _assert_matches_reference(d, bounds, 4, objective)

    def test_several_chunks_match_reference(self):
        d = binary_pipes_spec()
        assert 6435 * int(np.prod(d.sizes)) > 2 * dmc._CHUNK_CELLS
        _assert_matches_reference(d, "informed-source", 8, "r02")

    def test_tiny_chunks_match_reference(self, monkeypatch):
        # seven candidates per chunk: the running screen maximum rises
        # across many chunk boundaries
        d = _random_spec(np.random.default_rng(7), (1, 1, 2, 2, 2, 2, 2))
        monkeypatch.setattr(dmc, "_CHUNK_CELLS", 7 * int(np.prod(d.sizes)))
        for bounds in sorted(BOUNDS):
            _assert_matches_reference(d, bounds, 4, "r02")

    def test_flat_channel_every_key_ties(self):
        # every rate is 0 up to rounding, so the pmf tie-break alone picks
        # the answer
        d = _flat_spec()
        res = dmc_maximize(d, bounds="informed-source", denominator=4)
        assert (res.value.r1, res.value.r02) == (0.0, 0.0)
        _assert_matches_reference(d, "informed-source", 4, "r02")

    @pytest.mark.parametrize(
        "spec,bounds,objective",
        [
            (_flat_spec, "informed-source", "r02"),
            (_flat_spec, "informed-both", "r1"),
            (binary_pipes_spec, "informed-source", "r1"),
            (binary_pipes_spec, "informed-both", "r02"),
            (_subnormal_state_spec, "informed-source", "r1"),
        ],
        ids=["flat-r02", "flat-r1", "pipes-r1", "pipes-r02", "subnormal-r1"],
    )
    def test_tiny_chunks_on_plateaus_match_reference(self, monkeypatch, spec, bounds, objective):
        # three candidates per chunk: the pool of candidates tied on the
        # primary key outgrows a chunk, and is cut to one per key, over
        # and over
        d = spec()
        monkeypatch.setattr(dmc, "_CHUNK_CELLS", 3 * int(np.prod(d.sizes)))
        _assert_matches_reference(d, bounds, 4, objective)

    def test_tie_pool_is_bounded_by_distinct_keys(self, monkeypatch):
        # 245,157 candidates whose keys take 8 distinct values: the memory
        # held from one chunk to the next must not grow with the candidates
        # (keeping each one's keys and index would take 24 bytes apiece)
        held = []
        screen = dmc._screen

        def probe(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return screen(*args)

        monkeypatch.setattr(dmc, "_screen", probe)
        tracemalloc.start()
        try:
            res = dmc_maximize(_flat_spec(), "informed-source", 16)
        finally:
            tracemalloc.stop()
        assert res.evaluations == 245_157 and len(held) > 100
        assert max(held) - held[0] < 4 * 245_157

    @pytest.mark.parametrize("bounds", sorted(BOUNDS))
    def test_screen_builds_no_joint(self, bounds):
        # one full chunk of the pipes search at denominator 8: its 2,048
        # joints would take 2**16 floats, 512 KiB, but the screen forms
        # each marginal as a product of the plan's matrix and the strategies
        d = binary_pipes_spec()
        step = dmc._CHUNK_CELLS // int(np.prod(d.sizes))
        pmfs = (dmc._compositions(8, 8)[:step] / 8.0).reshape(step, *d.sizes[:5])
        plan = dmc._plan(d, dmc._PROGRAMS[bounds])
        tracemalloc.start()
        try:
            r1, r02 = dmc._screen(plan, pmfs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step == 2048 and r02.max() == pytest.approx(1.0, abs=1e-12)
        assert peak < 8 * dmc._CHUNK_CELLS

    @pytest.mark.parametrize("bounds", sorted(BOUNDS))
    @pytest.mark.parametrize("objective", ["r02", "r1"])
    def test_subnormal_state_ties_follow_pmf_order(self, bounds, objective):
        # every key ties, and the state-0 rows round to zero or to p_s[0]:
        # enumeration order is not the order of the flattened pmfs, so the
        # tie-break must compare pmfs rather than keep the first candidate
        d = _subnormal_state_spec()
        _assert_matches_reference(d, bounds, 4, objective)
        best = dmc_maximize(d, bounds=bounds, denominator=4, objective=objective).best
        assert not best.pmf[0].any()


@pytest.mark.parametrize("shape", [(1, 1, 2, 1), (2, 2, 2, 2), (4, 2, 4, 2), (4, 4, 4, 4)])
def test_candidate_state_marginals_match_p_s(shape):
    """dmc_maximize checks no candidate's state marginal: it is a sum of
    fl(k/den * p) whose k/den sum to 1 exactly, so it lies within about
    cells * 2**-53 * p of p, 6e-14 at most, far inside the 1e-12 that
    the evaluators check for a caller's joint. The candidates are composed
    and summed as the search does, with p_s entries as states."""
    cells = int(np.prod(shape))
    rng = np.random.default_rng(cells)
    p_s = np.concatenate([rng.uniform(size=20), [1.0, 0.1, 1 / 3, 1 - 2**-53, 5e-324, 1e-310]])
    for den in (4, 8, 16):
        k = rng.multinomial(den, rng.dirichlet(np.full(cells, 0.3)), size=(200, len(p_s)))
        pmf = (k / float(den) * p_s[:, None]).reshape(-1, len(p_s), *shape)
        assert np.abs(pmf.sum(axis=(2, 3, 4, 5)) - p_s).max() <= 6e-14


def _random_strategies(rng, d, count):
    """Aux joints mixing exact zeros (rational grid points) with
    Dirichlet draws."""
    ns = d.sizes[0]
    cells = int(np.prod(d.sizes[1:5]))
    pmfs = []
    for k in range(count):
        if k % 2:
            cond = rng.multinomial(4, np.ones(cells) / cells, size=ns) / 4.0
        else:
            cond = rng.dirichlet(np.full(cells, 0.5), size=ns)
        pmfs.append((d.p_s[:, None] * cond).reshape(d.sizes[:5]))
    return np.stack(pmfs)


@settings(PROPERTY, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(*[st.integers(1, 3)] * 7),
    bounds=st.sampled_from(sorted(BOUNDS)),
)
def test_screen_matches_scalar_evaluators(seed, sizes, bounds):
    """The screen of a batch of eight gives, for each strategy, the rates
    the evaluators give for it alone up to rounding."""
    rng = np.random.default_rng(seed)
    d = _random_spec(rng, sizes)
    pmfs = _random_strategies(rng, d, 8)
    r1, r02 = dmc._screen(dmc._plan(d, dmc._PROGRAMS[bounds]), pmfs)
    for i, pmf in enumerate(pmfs):
        want = BOUNDS[bounds](d, AuxJoint(pmf))
        assert abs(r1[i] - want.r1) <= 1e-12
        assert abs(r02[i] - want.r02) <= 1e-12


@settings(PROPERTY, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(*[st.integers(1, 3)] * 7),
    bounds=st.sampled_from(sorted(BOUNDS)),
)
def test_evaluators_match_per_term_route(seed, sizes, bounds):
    """The evaluators' screen of a batch of one gives the rates of one
    public discrete_cmi call per term up to rounding."""
    rng = np.random.default_rng(seed)
    d = _random_spec(rng, sizes)
    for pmf in _random_strategies(rng, d, 6):
        a = AuxJoint(pmf)
        got = BOUNDS[bounds](d, a)
        want = _per_term_evaluate(d, a, bounds)
        assert abs(got.r1 - want.r1) <= 1e-12
        assert abs(got.r02 - want.r02) <= 1e-12


# (|s|, |u1|, |u2|, |x1|, |x2|) with an input of two symbols or more to
# relabel and at most 8 strategy cells a state, or 6 with two states, so
# that a search at denominator 4 screens at most 15,876 candidates
_RELABELLED = [
    (ns, *c)
    for ns in (1, 2)
    for c in itertools.product(range(1, 5), repeat=4)
    if c[2] * c[3] > 1 and math.prod(c) <= (8 if ns == 1 else 6)
]


def _moved(rng, n):
    """A random permutation of n symbols, one that moves some where n > 1."""
    p = rng.permutation(n)
    return np.roll(p, 1) if n > 1 and (p == np.arange(n)).all() else p


@settings(PROPERTY, max_examples=24)
@given(
    seed=st.integers(0, 2**32 - 1),
    head=st.sampled_from(_RELABELLED),
    ny=st.tuples(st.integers(2, 3), st.integers(2, 3)),
)
def test_the_optimum_is_invariant_under_relabelling(seed, head, ny):
    """Relabelling the symbols of s, x1, x2, y1 and y2, with p_s and the
    channel permuted to match, keeps the optimum's primary rate within
    1e-12 bits under both bounds and both objectives: neither the search
    nor a rule on which strategies it plays may read symbol order."""
    rng = np.random.default_rng(seed)
    d = _random_spec(rng, (*head, *ny))
    perms = [_moved(rng, d.sizes[axis]) for axis in (0, 3, 4, 5, 6)]
    relabelled = DmcSpec(d.sizes, d.p_s[perms[0]], d.channel[np.ix_(*perms)])
    for bounds, objective in itertools.product(sorted(BOUNDS), ("r02", "r1")):
        got, want = (
            getattr(dmc_maximize(spec, bounds, 4, objective).value, objective)
            for spec in (relabelled, d)
        )
        assert abs(got - want) <= 1e-12


def _allclose_check(p, axis=None):
    """_check_pmf as it stood: negative entries first, then np.allclose."""
    if (p < 0).any():
        return False
    sums = p.sum() if axis is None else p.sum(axis=axis)
    return bool(np.allclose(sums, 1.0, rtol=0.0, atol=1e-12))


def _rows(shape, axis, last):
    """Uniform rows over the axes summed, with the very last entry set to
    last: one row's sum moves, the others stay exactly 1."""
    p = np.ones(shape) / np.prod([shape[i] for i in axis])
    p.flat[-1] = last
    return p


_EDGE = [1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2e-12, 1.0 - 2e-12]
_PMF_TABLE = [
    *[(f"sum={x!r}", np.array([x]), None) for x in _EDGE],
    # the float neighbours of 1 +- 1e-12 decide which side the bound falls
    *[
        (f"sum=1{sign}1e-12{step:+d}ulp", np.array([x]), None)
        for sign, edge in (("+", 1.0 + 1e-12), ("-", 1.0 - 1e-12))
        for step, x in (
            (-1, np.nextafter(edge, 0.0)),
            (+1, np.nextafter(edge, 2.0)),
        )
    ],
    ("sum=1", np.array([0.25, 0.75]), None),
    ("nan", np.array([0.5, np.nan]), None),
    ("+inf", np.array([0.5, np.inf]), None),
    ("-inf", np.array([0.5, -np.inf]), None),
    ("negative-entry", np.array([1.5, -0.5]), None),
    ("negative-zero", np.array([1.0, -0.0]), None),
    *[
        (f"channel-rows-last={x!r}", _rows((2, 2, 2, 2, 2), (3, 4), x - 0.75), (3, 4))
        for x in [1.0, *_EDGE, np.nan]
    ],
    *[
        (f"chunk-last={x!r}", _rows((3, 2, 1, 2, 2, 1), (1, 2, 3, 4, 5), x - 0.875), (1, 2, 3, 4, 5))
        for x in [1.0, *_EDGE, np.inf]
    ],
]


@pytest.mark.parametrize(
    "p,axis", [case[1:] for case in _PMF_TABLE], ids=[case[0] for case in _PMF_TABLE]
)
def test_check_pmf_matches_allclose(p, axis):
    if _allclose_check(p, axis):
        dmc._check_pmf("p", p, axis=axis)
    else:
        want = "p has negative entries" if (p < 0).any() else "p must sum to 1 within 1e-12"
        with pytest.raises(OutOfRange, match=re.escape(want)):
            dmc._check_pmf("p", p, axis=axis)


class TestCompositions:
    @pytest.mark.parametrize("total,cells", [(4, 1), (4, 2), (0, 3), (4, 4), (8, 3), (3, 6)])
    def test_lexicographic_order(self, total, cells):
        want = _product_compositions(total, cells)
        assert dmc._compositions(total, cells).tolist() == [list(c) for c in want]

    @pytest.mark.parametrize("total,cells", [(8, 8), (16, 8)])
    def test_large_tables(self, total, cells):
        got = dmc._compositions(total, cells)
        assert got.dtype == np.float64
        assert got.shape == (math.comb(total + cells - 1, cells - 1), cells)
        assert (got.sum(axis=1) == total).all()
        # rows strictly increase in lexicographic order: at the first
        # column where two neighbours differ, the later one is larger
        step = np.diff(got, axis=0)
        first = (step != 0).argmax(axis=1)
        assert (step.any(axis=1) & (step[np.arange(len(step)), first] > 0)).all()

    def test_build_peaks_near_the_table(self):
        # 245,157 x 8 floats: the build holds a few index vectors besides
        # the table, not copies of it
        tracemalloc.start()
        try:
            table = dmc._compositions(16, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.nbytes


class TestFactories:
    def test_pipes_spec_shape(self):
        d = binary_pipes_spec()
        assert d.sizes == (1, 1, 2, 2, 2, 2, 2)
        # y1 copies x1 and y2 copies x2, deterministically
        for x1 in range(2):
            for x2 in range(2):
                assert d.channel[0, x1, x2, x1, x2] == 1.0
