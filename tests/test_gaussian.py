import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relayregions import (
    ChannelParams,
    CovarianceSystem,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    SingularSubmatrix,
    TermCheck,
    VerifyReport,
    ZeroStatePower,
    build_cov_informed_both,
    build_cov_informed_source,
    gaussian_cmi,
    informed_both_coeffs,
    rho_upper_bound,
    sample_mi_estimate,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)
from relayregions.gaussian import (
    _LOGDET_FLOOR,
    _RANK_TOL,
    _cmi_from_sigma,
    _sample_covariance,
)

EXAMPLE = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=300)


def _pair(r):
    """Two unit-variance coordinates with correlation r."""
    return CovarianceSystem(("A", "B"), np.array([[1.0, r], [r, 1.0]]))


class TestCovarianceSystem:
    def test_accessors(self):
        cov = _pair(0.25)
        assert cov.index("B") == 1
        assert cov.var("A") == 1.0
        assert cov.cov("A", "B") == 0.25

    def test_unknown_label(self):
        with pytest.raises(OutOfRange):
            _pair(0.0).index("C")

    def test_rejects_non_square(self):
        with pytest.raises(OutOfRange):
            CovarianceSystem(("A",), np.zeros((1, 2)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(OutOfRange):
            CovarianceSystem(("A", "B", "C"), np.eye(2))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(OutOfRange):
            CovarianceSystem(("A", "A"), np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(OutOfRange):
            CovarianceSystem(("A", "B"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(OutOfRange, match="finite"):
            CovarianceSystem(("A", "B"), np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(OutOfRange):
            _pair(1.5)

    def test_matrix_is_immutable(self):
        cov = _pair(0.1)
        with pytest.raises((ValueError, RuntimeError)):
            cov.sigma[0, 0] = 9.0


class TestGaussianCmi:
    def test_independent_is_zero(self):
        assert gaussian_cmi(_pair(0.0), ["A"], ["B"]) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, -0.7])
    def test_correlated_pair(self, r):
        want = -0.5 * math.log2(1.0 - r * r)
        assert gaussian_cmi(_pair(r), ["A"], ["B"]) == pytest.approx(want, abs=1e-12)

    def test_additive_noise_channel(self):
        # Y = X + Z with snr p/n gives the usual half-log
        p, n = 2.0, 0.5
        cov = CovarianceSystem(
            ("X", "Y"), np.array([[p, p], [p, p + n]])
        )
        assert gaussian_cmi(cov, ["X"], ["Y"]) == pytest.approx(
            0.5 * math.log2(1 + p / n), abs=1e-12
        )

    def test_conditioning_on_member_of_a(self):
        # A already known: nothing left to learn
        cov = CovarianceSystem(
            ("A", "B"), np.array([[1.0, 0.6], [0.6, 1.0]])
        )
        assert gaussian_cmi(cov, ["A"], ["B"], ["A"]) == 0.0

    def test_self_information_is_singular(self):
        with pytest.raises(SingularSubmatrix):
            gaussian_cmi(_pair(0.3), ["A"], ["A"])

    def test_deterministic_relation_is_singular(self):
        # B = A + C exactly, so I(A;B|C) has no finite value
        m = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        sigma = m @ m.T
        cov = CovarianceSystem(("A", "B", "C"), sigma)
        with pytest.raises(SingularSubmatrix):
            gaussian_cmi(cov, ["A"], ["B"], ["C"])

    def test_redundant_conditioning_is_dropped(self):
        # duplicating a conditioning coordinate must not change the value
        m = np.array(
            [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        cov = CovarianceSystem(("A", "B", "C", "C2"), m @ m.T)
        v1 = gaussian_cmi(cov, ["A"], ["B"], ["C"])
        v2 = gaussian_cmi(cov, ["A"], ["B"], ["C", "C2"])
        assert v1 > 0.1
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_empty_a_or_b(self):
        assert gaussian_cmi(_pair(0.5), [], ["B"]) == 0.0
        assert gaussian_cmi(_pair(0.5), ["A"], []) == 0.0


# Reference: the four-determinant formula on subsets reduced with
# np.linalg.solve and evaluated with np.linalg.slogdet, an independent
# route to the value the residual-variance pass computes.
def _ref_residual_variance(sigma, kept, j):
    if not kept:
        return float(sigma[j, j])
    m = sigma[np.ix_(kept, kept)]
    v = sigma[kept, j]
    try:
        sol = np.linalg.solve(m, v)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(m, v, rcond=None)[0]
    return float(sigma[j, j] - v @ sol)


def _ref_reduce(sigma, base, cand):
    kept = list(base)
    out = []
    for j in cand:
        if _ref_residual_variance(sigma, kept, j) > _RANK_TOL:
            out.append(j)
            kept.append(j)
    return out


def _ref_logdet(sigma, rows):
    if not rows:
        return 0.0
    sign, val = np.linalg.slogdet(sigma[np.ix_(rows, rows)])
    if sign <= 0.0 or val <= _LOGDET_FLOOR:
        raise SingularSubmatrix("singular covariance submatrix")
    return float(val)


def _ref_cmi(sigma, a_idx, b_idx, c_idx):
    c_kept = _ref_reduce(sigma, [], c_idx)
    a_kept = _ref_reduce(sigma, c_kept, a_idx)
    b_kept = _ref_reduce(sigma, c_kept, b_idx)
    if not a_kept or not b_kept:
        return 0.0
    if set(a_kept) & set(b_kept):
        raise SingularSubmatrix("a label sits in both sets")
    val = (
        _ref_logdet(sigma, a_kept + c_kept)
        + _ref_logdet(sigma, b_kept + c_kept)
        - _ref_logdet(sigma, c_kept)
        - _ref_logdet(sigma, a_kept + b_kept + c_kept)
    ) / (2.0 * math.log(2.0))
    if val < 0.0:
        if val < -1e-9:
            raise SingularSubmatrix(f"mutual information evaluated to {val}")
        return 0.0
    return val


@st.composite
def low_rank_mixes(draw):
    """Labels = mix @ basis over fewer independent components than labels,
    with small integer mixing weights, so many labels are exact linear
    functions of others; and disjoint A, B, C in a drawn order."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    mix = np.array(
        draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                      min_size=n, max_size=n)),
        dtype=float,
    )
    var = draw(st.lists(st.floats(0.25, 2.0), min_size=r, max_size=r))
    roles = draw(st.lists(st.sampled_from("ABC-"), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    sets = [[i for i in order if roles[i] == role] for role in "ABC"]
    return mix, (mix * np.array(var)) @ mix.T, sets


def _rank(mix, rows):
    return int(np.linalg.matrix_rank(mix[rows])) if rows else 0


def _finite(mix, a, b, c):
    """I(A;B|C) is finite iff span(A,C) and span(B,C) meet only in span(C)."""
    return _rank(mix, a + c) + _rank(mix, b + c) - _rank(mix, a + b + c) == _rank(mix, c)


def _well_conditioned(sigma, a, b, c):
    # both routes lose about eps*cond bits on the kept block; at
    # cond < 1e5 that stays far below 1e-11
    c_kept = _ref_reduce(sigma, [], c)
    kept = _ref_reduce(sigma, c_kept, a) + _ref_reduce(sigma, c_kept, b) + c_kept
    return not kept or np.linalg.cond(sigma[np.ix_(kept, kept)]) < 1e5


class TestResidualRoute:
    @PROPERTY
    @given(low_rank_mixes(), st.booleans())
    def test_matches_solve_and_slogdet_route(self, drawn, shared):
        mix, sigma, (a, b, c) = drawn
        if shared:
            # one label put first in both A and B: if C does not
            # determine it, both routes must raise, else it drops out
            extra = [i for i in range(len(mix)) if i not in a + b + c]
            assume(extra)
            a, b = [extra[0]] + a, [extra[0]] + b
            if _rank(mix, c + extra[:1]) > _rank(mix, c):
                with pytest.raises(SingularSubmatrix):
                    _ref_cmi(sigma, a, b, c)
                with pytest.raises(SingularSubmatrix):
                    _cmi_from_sigma(sigma, a, b, c)
                return
        # an infinite information has no value to match: both routes
        # return rounding noise or raise there
        assume(_finite(mix, a, b, c) and _well_conditioned(sigma, a, b, c))
        want = _ref_cmi(sigma, a, b, c)
        got = _cmi_from_sigma(sigma, a, b, c)
        assert got == pytest.approx(want, abs=1e-11)

    @PROPERTY
    @given(low_rank_mixes(), st.randoms(use_true_random=False))
    def test_label_order_does_not_matter(self, drawn, rnd):
        mix, sigma, (a, b, c) = drawn
        assume(_finite(mix, a, b, c) and _well_conditioned(sigma, a, b, c))
        cov = CovarianceSystem(tuple(f"L{i}" for i in range(len(mix))), sigma)
        names = [[cov.labels[i] for i in s] for s in (a, b, c)]
        want = gaussian_cmi(cov, *names)
        shuffled = [rnd.sample(s, len(s)) for s in names]
        assert gaussian_cmi(cov, *shuffled) == pytest.approx(want, abs=1e-11)
        assert gaussian_cmi(cov, names[1], names[0], names[2]) == pytest.approx(
            want, abs=1e-11
        )


class TestInformedBothCov:
    def test_power_constraints_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c = ChannelParams(
                rng.uniform(0.2, 4), rng.uniform(0, 4), rng.uniform(0, 4),
                0.1, 1.0,
            )
            p = InformedBothParams(rng.uniform(0, 1), rng.uniform(0, 1))
            cov = build_cov_informed_both(c, p)
            assert cov.var("X1") == pytest.approx(c.p1, abs=1e-12)
            assert cov.var("X2") == pytest.approx(c.p2, abs=1e-12)

    def test_coherent_cross_term(self):
        c = ChannelParams(2.0, 1.5, 1.0, 0.1, 1.0)
        p = InformedBothParams(0.3, 0.4)
        cov = build_cov_informed_both(c, p)
        want = math.sqrt((1 - p.beta) * (1 - p.gamma) * c.p1 * c.p2)
        assert cov.cov("X1", "X2") == pytest.approx(want, abs=1e-12)

    def test_received_powers(self):
        cov = build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        # X1 carries no state component, so the received powers separate
        assert cov.cov("X1", "S") == pytest.approx(0.0, abs=1e-12)
        assert cov.var("Y1") == pytest.approx(
            EXAMPLE.p1 + EXAMPLE.q + EXAMPLE.n1, abs=1e-12
        )
        want_y2 = (
            EXAMPLE.p1 + EXAMPLE.p2 + 2 * cov.cov("X1", "X2")
            + EXAMPLE.q + EXAMPLE.n2
        )
        assert cov.var("Y2") == pytest.approx(want_y2, abs=1e-12)

    def test_coeffs_consistent(self):
        c = ChannelParams(1.0, 2.0, 1.0, 0.1, 1.0)
        p = InformedBothParams(0.25, 0.6)
        k = informed_both_coeffs(c, p)
        gbar_p1 = (1 - p.gamma) * c.p1
        assert k.p_coop == pytest.approx(
            (math.sqrt((1 - p.beta) * gbar_p1) + math.sqrt(c.p2)) ** 2, abs=1e-12
        )
        assert k.p_fresh == pytest.approx(p.beta * gbar_p1, abs=1e-12)
        assert k.lam**2 * k.p_coop == pytest.approx((1 - p.beta) * gbar_p1, abs=1e-12)

    def test_power_check_is_relative_above_unit_budget(self):
        # at this scale X2's variance exceeds p2 by 1.9e-9 from rounding
        c = ChannelParams(
            13484212.383636696, 5665736.390140798, 36386011.51134933,
            6187322.527706158, 28690876.355495475,
        )
        p = InformedBothParams(0.6299332015096252, 0.19640741415922677)
        cov = build_cov_informed_both(c, p)
        assert cov.var("X2") == pytest.approx(c.p2, rel=1e-12)
        assert verify_informed_both(c, p).passed

    def test_verify_passes(self):
        rep = verify_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        assert rep.passed
        assert rep.max_abs_diff < 1e-12
        assert len(rep.details) == 4

    def test_rows_do_not_depend_on_state_power(self):
        p = InformedBothParams(0.35, 0.7)
        rows = []
        for q in (0.1, 1.0, 10.0):
            c = ChannelParams(1.0, 1.0, q, 0.1, 1.0)
            rep = verify_informed_both(c, p)
            assert rep.passed
            rows.append([t.oracle for t in rep.details])
        spread = np.ptp(np.array(rows), axis=0)
        assert np.max(spread) < 1e-12


class TestInformedSourceCov:
    def test_zero_state_power_rejected(self):
        c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
        with pytest.raises(ZeroStatePower):
            build_cov_informed_source(c, GdpcParams(0.2, 0.0, 0.4, 0.5))

    def test_power_constraints_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = ChannelParams(
                rng.uniform(0.2, 4), rng.uniform(0, 4), rng.uniform(0.1, 4),
                0.1, 1.0,
            )
            gamma = rng.uniform(0, 0.95)
            rho = rng.uniform(0, 1) * rho_upper_bound(c, gamma)
            g = GdpcParams(gamma, rho, rng.uniform(0, 0.95), rng.uniform(0, 1))
            cov = build_cov_informed_source(c, g)
            assert cov.var("X1") == pytest.approx(c.p1, abs=1e-12)
            assert cov.var("X2") == pytest.approx(c.p2, abs=1e-12)

    def test_relay_observation_decomposition(self):
        g = GdpcParams(0.2, 0.3, 0.4, 0.5)
        cov = build_cov_informed_source(EXAMPLE, g)
        # Y1 = X1 + S + Z1 as covariances
        assert cov.var("Y1") == pytest.approx(
            cov.var("X1") + EXAMPLE.q + EXAMPLE.n1 + 2 * cov.cov("X1", "S"),
            abs=1e-12,
        )
        # presubtraction leaves exactly the residual state in Y1
        assert cov.cov("Y1", "Sprime") == pytest.approx(
            cov.var("Sprime"), abs=1e-12
        )

    def test_full_presubtraction_branch(self):
        # rho at its cap makes the residual carrier power vanish
        c = ChannelParams(1.0, 1.5, 3.0, 0.1, 1.0)
        g = GdpcParams(0.2, 1.0, 0.5, 0.5)
        cov = build_cov_informed_source(c, g)
        assert cov.var("X1") == pytest.approx(c.p1, abs=1e-12)
        assert cov.var("X2") == pytest.approx(c.p2, abs=1e-12)
        assert cov.var("Uw") == pytest.approx(0.0, abs=1e-12)

    def test_verify_passes(self):
        rep = verify_gdpc(EXAMPLE, GdpcParams(0.2, 0.3, 0.4, 0.5))
        assert rep.passed
        assert rep.max_abs_diff < 1e-12
        assert len(rep.details) == 3


    @pytest.mark.parametrize(
        "g",
        [
            GdpcParams(0.2, 0.3, 1.0, 0.5),
            GdpcParams(0.0, rho_upper_bound(EXAMPLE, 0.0), 0.4, 0.5),
        ],
        ids=["beta=1", "gamma=0,rho=bound"],
    )
    def test_degenerate_closed_form_is_typed(self, g):
        with pytest.raises(SingularSubmatrix):
            verify_gdpc(EXAMPLE, g)


class TestRelayIdentity:
    def test_holds_with_relay_power(self):
        rep = verify_relay_identity(EXAMPLE, InformedBothParams(0.0, 0.36))
        assert rep.passed

    def test_without_relay_power_only_the_edges_survive(self):
        c = ChannelParams(1.0, 0.0, 1.0, 0.1, 1.0)
        for beta in (0.0, 1.0):
            assert verify_relay_identity(c, InformedBothParams(0.2, beta)).passed
        rep = verify_relay_identity(c, InformedBothParams(0.2, 0.5))
        assert not rep.passed
        assert rep.max_abs_diff > 1e-6


class TestSampleEstimate:
    def test_rejects_tiny_sample(self):
        with pytest.raises(OutOfRange):
            sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], 999, 0)

    @pytest.mark.parametrize("n", [0, -5, 1e6, 2000.0, True, "5000", None], ids=repr)
    def test_rejects_non_integer_sample(self, n):
        with pytest.raises(OutOfRange):
            sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], n, 0)

    def test_needs_more_samples_than_labels(self):
        labels = tuple(f"L{i}" for i in range(1000))
        cov = CovarianceSystem(labels, np.eye(1000))
        with pytest.raises(OutOfRange):
            sample_mi_estimate(cov, ["L0"], ["L1"], [], 1000, 0)

    @pytest.mark.parametrize(
        "n",
        [1000, np.int64(5000), 10**12, 10**30, 10**400],
        ids=["1e3", "int64", "1e12", "1e30", "1e400"],
    )
    def test_any_integer_count_is_finite(self, n):
        cov = build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        est = sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], n, 3)
        assert math.isfinite(est)
        if n >= 10**12:
            exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
            assert est == pytest.approx(exact, abs=1e-4)

    def test_reproducible(self):
        v1 = sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], 5000, 42)
        v2 = sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], 5000, 42)
        assert v1 == v2

    def test_tracks_exact_value(self):
        cov = build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
        est = sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], 200_000, 7)
        assert est == pytest.approx(exact, abs=0.02)


LAW_DRAWS = 2000
LAW_N = 1000
# Each statistic below is a mean over LAW_DRAWS independent draws, so it
# is close to normal. 4.5 standard errors leave a two-sided chance of
# about 7e-6 per entry, or about 1e-3 over the 216 entry statistics.
LAW_Z = 4.5


@pytest.fixture(
    scope="module",
    params=[
        (EXAMPLE, InformedBothParams(0.5, 0.5)),
        (ChannelParams(1.0, 0.0, 1.0, 0.1, 1.0), InformedBothParams(0.5, 0.5)),
        (EXAMPLE, InformedBothParams(0.5, 1.0)),
    ],
    ids=["example", "p2=0", "beta=1"],
)
def wishart_draws(request):
    """Sample covariances of LAW_N vectors, one per seed, next to sigma."""
    sigma = build_cov_informed_both(*request.param).sigma
    draws = np.array([_sample_covariance(sigma, LAW_N, s) for s in range(LAW_DRAWS)])
    return sigma, draws


class TestSampleCovarianceLaw:
    """The drawn matrix follows the law of the divisor-(n-1) sample
    covariance of n vectors, Wishart(n-1, sigma/(n-1)): mean sigma and
    entry variances (sigma_ij^2 + sigma_ii sigma_jj)/(n-1)."""

    @staticmethod
    def _entry_var(sigma):
        d = np.diag(sigma)
        return (sigma**2 + np.outer(d, d)) / (LAW_N - 1)

    def test_mean_is_sigma(self, wishart_draws):
        sigma, draws = wishart_draws
        var = self._entry_var(sigma)
        live = var > 0.0  # a label with zero variance is checked as a null direction
        z = (draws.mean(axis=0) - sigma)[live] / np.sqrt(var[live] / LAW_DRAWS)
        assert np.abs(z).max() <= LAW_Z

    def test_entry_variance_matches_wishart(self, wishart_draws):
        sigma, draws = wishart_draws
        var = self._entry_var(sigma)
        live = var > 0.0
        # each entry is near-normal at n = 1000 (excess kurtosis O(1/n)), so
        # its sample variance has standard error var * sqrt(2/(K-1))
        se = var[live] * math.sqrt(2.0 / (LAW_DRAWS - 1))
        z = (draws.var(axis=0, ddof=1)[live] - var[live]) / se
        assert np.abs(z).max() <= LAW_Z

    def test_keeps_the_null_space(self, wishart_draws):
        sigma, draws = wishart_draws
        w, vecs = np.linalg.eigh(sigma)
        null = vecs[:, w <= 1e-12 * w.max()]
        assert null.shape[1] >= 2  # 8 labels built from 6 independent components
        spread = np.abs(np.einsum("ki,nkl,lj->nij", null, draws, null)).max()
        assert spread <= 64 * np.finfo(float).eps * w.max()


class TestReports:
    def test_term_check(self):
        t = TermCheck("x", 1.0, 1.0 + 1e-12)
        assert t.abs_diff == pytest.approx(1e-12, rel=1e-3)
        assert set(t.to_dict()) == {"term", "oracle", "closed", "abs_diff"}

    def test_from_terms_sets_outcome(self):
        good = TermCheck("g", 0.5, 0.5)
        bad = TermCheck("b", 0.5, 0.6)
        rep = VerifyReport.from_terms("demo", 1e-3, (good, bad))
        assert not rep.passed
        assert rep.max_abs_diff == pytest.approx(0.1)
        d = rep.to_dict()
        assert d["pass"] is False
        assert len(d["details"]) == 2
