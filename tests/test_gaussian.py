import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relayregions import (
    ChannelParams,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    RelayRegionsError,
    SingularSubmatrix,
    TermCheck,
    VerifyReport,
    build_cov_informed_both,
    build_cov_informed_source,
    gaussian_cmi,
    gdpc_rates,
    max_r02_gdpc,
    rho_upper_bound,
    sample_mi_estimate,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)
from relayregions import gaussian
from relayregions.gaussian import (
    CovarianceSystem,
    _GDPC_ROWS,
    _INFORMED_BOTH_ROWS,
    _RANK_TOL,
    _RELAY_ROWS,
    _cmi_from_sigma,
    _row_values,
    _sample_covariance,
)
from relayregions.model import _expression, _scaled
from relayregions.rates import _gdpc_point

from references import PROPERTY, _reference_cov_informed_both, _reference_cov_informed_source

EXAMPLE = ChannelParams(1.0, 1.0, 1.0, 0.1, 1.0)
IB = InformedBothParams(0.3, 0.6)


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
        # at any scale: the check reads the unit-diagonal form
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(OutOfRange, match="symmetric"):
                CovarianceSystem(("A", "B"), scale * np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(OutOfRange, match="finite"):
            CovarianceSystem(("A", "B"), np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(OutOfRange, match="not positive semidefinite"):
                CovarianceSystem(("A", "B"), scale * np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_matrix_is_immutable(self):
        cov = _pair(0.1)
        with pytest.raises((ValueError, RuntimeError)):
            cov.sigma[0, 0] = 9.0

    def test_checks_are_relative_to_the_variances(self):
        # a rank-6 covariance of 8 labels times 2^k: the checks read its
        # unit-diagonal form, which 2^k does not move; absolute checks
        # rejected the large k
        base = build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        want = gaussian_cmi(base, ["U1", "U2"], ["Y2"])
        for k in range(-400, 401):
            cov = CovarianceSystem(base.labels, base.sigma * 2.0**k)
            got = gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
            assert got == pytest.approx(want, abs=1e-12), k

    def test_zero_variance_label_needs_a_zero_row(self):
        cov = CovarianceSystem(("A", "B"), np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert cov.var("A") == 0.0
        for sigma in ([[0.0, 1e-300], [1e-300, 1.0]], [[-1e-300, 0.0], [0.0, 1.0]]):
            with pytest.raises(OutOfRange, match="sigma is not positive semidefinite"):
                CovarianceSystem(("A", "B"), np.array(sigma))

    def test_entry_past_its_variances_is_indefinite_without_warning(self):
        # 1e300 / sqrt(1e-300 * 1) overflows the unit-diagonal form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="sigma is not positive semidefinite"):
                CovarianceSystem(("A", "B"), np.array([[1e-300, 1e300], [1e300, 1.0]]))


# Two draws of sigma = F F^T, F block lower triangular over labels
# C..., A..., B... with no B-A block, so I(A;B|C) = 0 exactly. Rounding
# reads the first at -7.8e-11 bits (cond 5e11), within the -1e-9
# allowance, and the second at -4.2e-9 bits (cond 8e13), past it.
NEGATIVE_WITHIN = (
    ("C0", "C1", "A0", "A1", "B0", "B1"),
    [
        [216.3604516752651, 341.0159164844136, -185.0768932521253, 235.72139846964566, 21.34785610694038, -44.90320978084048],
        [341.0159164844136, 537.4912854798839, -291.7070228636065, 371.53285468622835, 33.64586519086034, -70.77449554996815],
        [-185.0768932521253, -291.7070228636065, 170.45086157539072, -203.86302818074705, -18.4879860971273, 38.345863464804104],
        [235.72139846964566, 371.53285468622835, -203.86302818074705, 257.4681902897723, 23.058004774197034, -48.978535143874794],
        [21.34785610694038, 33.64586519086034, -18.4879860971273, 23.058004774197034, 270.8230066921592, 109.34514433242083],
        [-44.90320978084048, -70.77449554996815, 38.345863464804104, -48.978535143874794, 109.34514433242083, 57.49694509930432],
    ],
)
NEGATIVE_PAST = (
    ("C0", "C1", "C2", "A0", "A1", "B0", "B1"),
    [
        [13021.631484094345, -8172.228439218269, 2783.271752307702, -7750.071614997627, 2119.0504345254512, -19463.239875116928, 1451.9538855957762],
        [-8172.228439218269, 5128.799134588171, -1746.7531969351865, 4863.830908817482, -1329.8943253630628, 12214.924430269357, -911.2255435257532],
        [2783.271752307702, -1746.7531969351865, 594.9126438184156, -1656.4390289168286, 452.9372065449963, -4160.161096084647, 310.3310906788692],
        [-7750.071614997627, 4863.830908817482, -1656.4390289168286, 4613.618656461291, -1261.5238597774603, 11583.446777666313, -864.2824066529861],
        [2119.0504345254512, -1329.8943253630628, 452.9372065449963, -1261.5238597774603, 345.4868325518731, -3167.351799465952, 236.2706988436859],
        [-19463.239875116928, 12214.924430269357, -4160.161096084647, 11583.446777666313, -3167.351799465952, 29092.405681984867, -2169.417315808898],
        [1451.9538855957762, -911.2255435257532, 310.3310906788692, -864.2824066529861, 236.2706988436859, -2169.417315808898, 162.66865160077037],
    ],
)


def _split_cmi(drawn):
    """I(A;B|C) of a NEGATIVE_* draw, its labels grouped by first letter."""
    labels, sigma = drawn
    cov = CovarianceSystem(labels, np.array(sigma))
    return gaussian_cmi(cov, *([x for x in labels if x[0] == k] for k in "ABC"))


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

    def test_prepared_rows_and_index_are_a_fresh_evaluation(self):
        """A covariance, by either route, holds its labels and a read-only
        sigma and nothing else; every call reads them and must give the
        same bits, and a label that is not one of them is unknown."""
        cov = CovarianceSystem(
            ("X", "Y", "Z"), [[2.0, 0.3, 0.1], [0.3, 1.0, 0.4], [0.1, 0.4, 3.0]]
        )
        for built in (cov, build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))):
            assert not hasattr(built, "__dict__")
            assert not built.sigma.flags.writeable
        want = _cmi_from_sigma(cov.sigma.tolist(), [0, 2], [1], [])
        for _ in range(2):
            assert gaussian_cmi(cov, ["X", "Z"], ["Y"]) == want
            # an array of one label compares equal to it elementwise
            for label in ("W", ["X"], np.array(["X"])):
                message = f"unknown label {label!r}, have ('X', 'Y', 'Z')"
                with pytest.raises(OutOfRange, match=re.escape(message)):
                    gaussian_cmi(cov, [label], ["Y"])
        assert want > 0.0

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
        # sets that elimination empties: A = 2C is determined by C, and
        # Z has zero variance
        m = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 1.0], [0.0, 0.0]])
        cov = CovarianceSystem(("C", "A", "B", "Z"), m @ m.T)
        for v in (gaussian_cmi(cov, ["A"], ["B"], ["C"]), gaussian_cmi(cov, ["B"], ["Z"], ["C"])):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_negative_information_within_the_allowance_reads_zero(self):
        assert _split_cmi(NEGATIVE_WITHIN) == 0.0

    def test_negative_information_past_the_allowance_is_singular(self):
        with pytest.raises(SingularSubmatrix, match="too ill-conditioned"):
            _split_cmi(NEGATIVE_PAST)


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
        if _ref_residual_variance(sigma, kept, j) > _RANK_TOL * sigma[j, j]:
            out.append(j)
            kept.append(j)
    return out


def _ref_logdet(sigma, rows):
    if not rows:
        return 0.0
    sign, val = np.linalg.slogdet(sigma[np.ix_(rows, rows)])
    if sign <= 0.0:
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
    functions of others; each label then rescaled by 10^u, u in [-6, 6],
    which moves no information; and disjoint A, B, C in a drawn order."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    mix = np.array(
        draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                      min_size=n, max_size=n)),
        dtype=float,
    )
    # variances and scales from a seeded generator: hypothesis favours
    # float bounds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    var = rng.uniform(0.25, 2.0, r)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
    roles = draw(st.lists(st.sampled_from("ABC-"), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    sets = [[i for i in order if roles[i] == role] for role in "ABC"]
    scaled = mix * scale[:, None]
    return mix, (scaled * var) @ scaled.T, sets


def _rank(mix, rows):
    return int(np.linalg.matrix_rank(mix[rows])) if rows else 0


def _finite(mix, a, b, c):
    """I(A;B|C) is finite iff span(A,C) and span(B,C) meet only in span(C)."""
    return _rank(mix, a + c) + _rank(mix, b + c) - _rank(mix, a + b + c) == _rank(mix, c)


def _well_conditioned(sigma, a, b, c):
    # both routes lose about eps*cond bits on the kept block; at
    # cond < 1e5 of its unit-diagonal form that stays far below 1e-11
    c_kept = _ref_reduce(sigma, [], c)
    kept = _ref_reduce(sigma, c_kept, a) + _ref_reduce(sigma, c_kept, b) + c_kept
    d = np.sqrt(np.diag(sigma)[kept])
    return not kept or np.linalg.cond(sigma[np.ix_(kept, kept)] / np.outer(d, d)) < 1e5


class TestResidualRoute:
    @settings(PROPERTY, max_examples=300)
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
                    _cmi_from_sigma(sigma.tolist(), a, b, c)
                return
        if not _finite(mix, a, b, c):
            # an infinite information has no value to match: it raises
            with pytest.raises(SingularSubmatrix):
                _cmi_from_sigma(sigma.tolist(), a, b, c)
            return
        assume(_well_conditioned(sigma, a, b, c))
        want = _ref_cmi(sigma, a, b, c)
        got = _cmi_from_sigma(sigma.tolist(), a, b, c)
        assert got == pytest.approx(want, abs=1e-11)

    @staticmethod
    def _two_label_b(mix, scale):
        """sigma of labels C, A, B0, B1 = mix @ basis, each rescaled."""
        scaled = np.array(mix, dtype=float) * np.array(scale)[:, None]
        return scaled @ scaled.T

    def test_first_label_of_b_determined_by_c_drops_out(self):
        # B0 = 2C: given C it drops out of B, and I(A;B0,B1|C) = I(A;B1|C)
        mix = [[1, 0, 0], [0, 1, 0], [2, 0, 0], [1, 1, 1]]
        sigma = self._two_label_b(mix, [3.0, 1e-3, 0.5, 1e4])
        want = _ref_cmi(sigma, [1], [3], [0])
        assert want > 0.1
        got = _cmi_from_sigma(sigma.tolist(), [1], [2, 3], [0])
        assert got == pytest.approx(want, abs=1e-11)
        assert got == pytest.approx(_ref_cmi(sigma, [1], [2, 3], [0]), abs=1e-11)

    def test_later_label_of_b_determined_by_a_and_c_diverges(self):
        # B1 = A + C is kept given C and B0, and dropped once A is added
        mix = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]
        a, b, c = [1], [2, 3], [0]
        assert not _finite(np.array(mix, dtype=float), a, b, c)
        sigma = self._two_label_b(mix, [3.0, 1e-3, 0.5, 1e4])
        with pytest.raises(SingularSubmatrix, match="diverges"):
            _cmi_from_sigma(sigma.tolist(), a, b, c)

    @settings(PROPERTY, max_examples=300)
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


@st.composite
def builder_inputs(draw):
    """A channel whose powers p1, p2, q and n1 are log-uniform in a 2^488
    window, with n2/n1 from 1 + 2^-40 to 1 + 2^10 (n2 at least the float
    after n1), so they span less than 2^500; the window's bottom is
    log-uniform over 2^-1074..2^523, the whole float range, and p2 is 0
    on 15% of draws. Six knobs, each 0, 1 or uniform: gamma, rho's
    fraction of its bound, beta and alpha2, then gamma and beta of the
    informed-both construction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bottom = rng.uniform(-1074.0, 523.0)
    p1, p2, q, n1 = np.exp2(bottom + 488.0 * rng.uniform(size=4))
    p2 *= rng.uniform() >= 0.15
    # a subnormal n1 times 1 + 2^-40 can round back to n1
    n2 = max(n1 * (1.0 + 2.0 ** rng.uniform(-40.0, 10.0)), np.nextafter(n1, np.inf))
    c = ChannelParams(*(float(x) for x in (p1, p2, q, n1, n2)))
    gamma, frac, beta, alpha2, gamma3, beta3 = (
        float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(6)
    )
    g = GdpcParams(gamma, frac * rho_upper_bound(c, gamma), beta, alpha2)
    return c, g, InformedBothParams(gamma3, beta3)


# a channel near the bottom of the float range: as given, a label's
# variance underflowed to 0 while its covariances did not
TINY = ChannelParams(
    9.723977378296256e-295, 6.322689017782477e-229, 1.5590704924958133e-296,
    3.180502204840219e-253, 1.0295929872014387e-252,
)


NO_RELAY = ChannelParams(1.0, 0.0, 1.0, 0.1, 1.0)


class TestBuildersByConstruction:
    """The builders check nothing: on the channel's scaled powers the
    Gram product sigma = L L^T of L = M diag(sqrt(v)), v >= 0, is finite
    and PSD, exactly symmetric because numpy forms a product with its own
    transpose as one symmetric update, and each input keeps its budget up
    to rounding. The public checks must agree."""

    @settings(PROPERTY, max_examples=1000)
    @given(builder_inputs())
    @example((TINY, GdpcParams(0.0, rho_upper_bound(TINY, 0.0), 1.0, 1.0), InformedBothParams(0.0, 1.0)))
    def test_symmetric_and_accepted_by_the_public_checks(self, drawn):
        c, g, p = drawn
        p1, p2, *_ = _scaled(c)[0]
        for build, params in ((build_cov_informed_source, g), (build_cov_informed_both, p)):
            cov = build(c, params)
            assert (cov.sigma == cov.sigma.T).all()
            CovarianceSystem(cov.labels, cov.sigma)
            assert cov.var("X1") <= p1 * (1.0 + 1e-14)
            assert cov.var("X2") <= p2 * (1.0 + 1e-14)
            assert p2 > 0.0 or cov.var("X2") == 0.0

    @settings(PROPERTY, max_examples=300)
    @given(builder_inputs())
    @example((TINY, GdpcParams(0.0, rho_upper_bound(TINY, 0.0), 1.0, 1.0), InformedBothParams(0.0, 1.0)))
    @example((NO_RELAY, GdpcParams(1.0, 0.0, 1.0, 0.0), InformedBothParams(1.0, 1.0)))
    @example((NO_RELAY, GdpcParams(0.0, 1.0, 0.5, 0.5), InformedBothParams(0.0, 0.0)))
    def test_equal_to_the_docstring_tables_bit_for_bit(self, drawn):
        """Each builder sets the channel's entries of a constant mix; the
        reference writes out the docstring's whole table, so an entry in
        the wrong place moves a bit."""
        c, g, p = drawn
        for build, reference, params in (
            (build_cov_informed_source, _reference_cov_informed_source, g),
            (build_cov_informed_both, _reference_cov_informed_both, p),
        ):
            cov = build(c, params)
            labels, sigma = reference(c, params)
            assert cov.labels == labels
            assert np.array_equal(cov.sigma, sigma)
            assert cov.sigma.tobytes() == sigma.tobytes()  # -0.0 too


def _outcome(evaluate):
    """repr of each value evaluate() returns, or the type and message of
    the error it raises."""
    try:
        return [repr(value) for value in evaluate()]
    except RelayRegionsError as e:
        return [f"{type(e).__name__}: {e}"]


class TestSharedChains:
    """A compiled region table walks each chain once for all its rows.
    Each row must read, bit for bit, what ``_expression`` over one
    ``gaussian_cmi`` call per distinct term, in id order, reads; where a
    term raises, both routes raise the same error, the first in id order."""

    @settings(PROPERTY, max_examples=300)
    @given(builder_inputs())
    @example((TINY, GdpcParams(0.0, rho_upper_bound(TINY, 0.0), 1.0, 1.0), InformedBothParams(0.0, 1.0)))
    @example((NO_RELAY, GdpcParams(1.0, 0.0, 1.0, 0.0), InformedBothParams(1.0, 1.0)))
    @example((NO_RELAY, GdpcParams(0.0, 1.0, 0.5, 0.5), InformedBothParams(0.0, 0.5)))
    @example((ChannelParams(1.0, 0.0, 0.0, 0.1, 1.0), GdpcParams(0.2, 0.0, 0.4, 0.5), InformedBothParams(0.2, 0.5)))
    def test_table_rows_equal_one_term_calls(self, drawn):
        c, g, p = drawn
        both = build_cov_informed_both(c, p)
        for cov, table in (
            (build_cov_informed_source(c, g), _GDPC_ROWS),
            (both, _INFORMED_BOTH_ROWS),
            (both, _RELAY_ROWS),
        ):

            def per_term(cov=cov, table=table):
                rows, terms, _ = table
                values = [
                    gaussian_cmi(cov, *([cov.labels[k] for k in x] for x in term))
                    for term in terms
                ]
                return [_expression(expr, values) for _, expr in rows]

            got = _outcome(lambda: _row_values(cov, table))
            assert got == _outcome(per_term), (c, g, p, table)

    @pytest.mark.parametrize(
        "report, table, calls",
        [
            (lambda: verify_gdpc(EXAMPLE, GdpcParams(0.2, 0.3, 0.4, 0.5)), _GDPC_ROWS, 5),
            (lambda: verify_informed_both(EXAMPLE, IB), _INFORMED_BOTH_ROWS, 5),
            (lambda: verify_relay_identity(EXAMPLE, IB), _RELAY_ROWS, 2),
        ],
        ids=["gdpc", "informed-both", "relay"],
    )
    def test_each_distinct_term_once_in_first_use_order(self, monkeypatch, report, table, calls):
        """A report calls ``_term`` once per distinct term of its table,
        in id order, and ids follow first use, never set or hash order."""
        seen, term = [], gaussian._term

        def counted(s, walked, sub):
            seen.append(sub)
            return term(s, walked, sub)

        monkeypatch.setattr(gaussian, "_term", counted)
        report()
        rows, terms, (_, subterms) = table
        first_use = list(dict.fromkeys(terms[i] for _, expr in rows for _, i in expr))
        assert len(seen) == len(terms) == calls
        assert list(terms) == first_use
        assert seen == list(subterms)


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
        cov = build_cov_informed_both(c, p)
        gbar_p1 = (1 - p.gamma) * c.p1
        # U1 = alpha1*S + V1, X1 = lam*V1 + V2 + X1p and X2 = (1-lam)*V1
        p_coop = cov.cov("U1", "X1") + cov.cov("U1", "X2")
        assert p_coop == pytest.approx(
            (math.sqrt((1 - p.beta) * gbar_p1) + math.sqrt(c.p2)) ** 2, abs=1e-12
        )
        # U2 = alpha2*S + V2: its covariance with X1 is p_fresh
        assert cov.cov("U2", "X1") == pytest.approx(p.beta * gbar_p1, abs=1e-12)
        # lam^2 * p_coop, from cov(U1, X1) = lam * p_coop
        lam_sq_p_coop = cov.cov("U1", "X1") ** 2 / p_coop
        assert lam_sq_p_coop == pytest.approx((1 - p.beta) * gbar_p1, abs=1e-12)

    def test_verify_passes_at_scale_1e7(self):
        c = ChannelParams(
            13484212.383636696, 5665736.390140798, 36386011.51134933,
            6187322.527706158, 28690876.355495475,
        )
        p = InformedBothParams(0.6299332015096252, 0.19640741415922677)
        cov = build_cov_informed_both(c, p)
        assert cov.var("X2") == pytest.approx(_scaled(c)[0][1], rel=1e-12, abs=0.0)
        assert verify_informed_both(c, p).passed

    def test_relay_share_keeps_its_budget_when_p2_is_tiny(self):
        # p2/p1 = 1e-18: the relay's share sqrt(p2)/root formed as 1 - lam
        # cancelled, and X2's variance read 1.0000002297711811 p2
        c = ChannelParams(1e19, 10.0, 1.0, 0.1, 1.0)
        cov = build_cov_informed_both(c, InformedBothParams(0.0, 0.509))
        assert cov.var("X2") == pytest.approx(_scaled(c)[0][1], rel=1e-15, abs=0.0)
        CovarianceSystem(cov.labels, cov.sigma)

    def test_verify_passes(self):
        rep = verify_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        assert rep.passed
        assert rep.max_abs_diff < 1e-12
        assert len(rep.details) == 3

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
    def test_search_optima_without_interference_are_certified(self):
        # q = 0 forces rho = 0: S and Sprime carry no power, and the
        # oracle reads each printed optimum's two sum-rate rows. Channels
        # in the traced-frontier ranges at scales 1e-12..1e8, p2 = 0 on
        # every fourth
        rng = np.random.default_rng(18)
        for i in range(100):
            scale = 10.0 ** rng.uniform(-12.0, 8.0)
            p1, p2, n1 = 10.0 ** rng.uniform([-0.7, -1.0, -1.5], [0.6, 0.6, 0.0])
            n2 = n1 * 10.0 ** rng.uniform(0.2, 1.0)
            if i % 4 == 0:
                p2 = 0.0
            c = ChannelParams(*(scale * x for x in (p1, p2, 0.0, n1, n2)))
            for gamma in (0.0, 0.3, 0.6, 0.9):
                res = max_r02_gdpc(c, gamma)
                rep = verify_gdpc(c, res.best)
                assert rep.passed, (c, gamma, rep.to_dict())
                oracle = max(0.0, min(t.oracle for t in rep.details[1:]))
                assert oracle == pytest.approx(res.value, rel=0.0, abs=1e-9), (c, gamma)

    def test_rho_past_its_bound_rejected(self, monkeypatch):
        # the builder's check and verify_gdpc's are one check of rho, made
        # once per call, with the same whole message; the closed forms it
        # compares against check nothing
        for q, bound in ((0.4, 0.5), (0.0, 0.0)):
            c = ChannelParams(1.0, 1.0, q, 0.1, 1.0)
            message = f"rho must be <= {bound} for this channel, got 0.6"
            for check in (build_cov_informed_source, verify_gdpc):
                with pytest.raises(OutOfRange, match="^" + re.escape(message) + "$"):
                    check(c, GdpcParams(0.2, 0.6, 0.4, 0.5))
        calls = []
        monkeypatch.setattr(gaussian, "validate_gdpc", lambda c, g: calls.append(g) or g)
        for check in (build_cov_informed_source, verify_gdpc):
            calls.clear()
            check(EXAMPLE, GdpcParams(0.2, 0.3, 0.4, 0.5))
            assert len(calls) == 1, check

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


    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_verify_passes_without_relay_power(self, beta):
        # X2 = 0 reveals none of the binning codeword: all of pw is unknown
        c = ChannelParams(1.0, 0.0, 1.0, 0.1, 1.0)
        rep = verify_gdpc(c, GdpcParams(0.2, 0.3, beta, 0.5))
        assert rep.passed
        assert rep.max_abs_diff < 1e-12

    def test_underflowed_denominator_is_singular(self):
        # n1 is 1e-140 of Y1's variance, below double resolution: the
        # oracle sees Y1 as a function of the layers and raises
        c = ChannelParams(1e-160, 1e-160, 1e-200, 1e-300, 2e-300)
        g = GdpcParams(0.0, 0.0, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSubmatrix, match="diverges"):
                verify_gdpc(c, g)
        # b = pwt*(qprime + n1) underflows to 0 in the powers as given,
        # while a does not; the closed forms run on the scaled powers and
        # read those of the channel scaled to k = 0, bit for bit
        _, _, r1, r2, private = _gdpc_point(c, g)
        want = gdpc_rates(ChannelParams(*_scaled(c)[0]), g)
        assert [private, r1, r2] == [want.r_private, want.r1_sum, want.r2_sum]

    @pytest.mark.parametrize("scale", [1e-8, 1.0])
    def test_copied_binning_layer_is_singular(self, scale):
        # at beta = 1 the relay input is a copy of the binning layer, so
        # I(U2;Sprime|X2) diverges; at 1e-8 it read 24.58 bits of rounding
        c = ChannelParams(*(scale * x for x in (1.0, 1.0, 1.0, 0.1, 1.0)))
        cov = build_cov_informed_source(c, GdpcParams(0.2, 0.3, 1.0, 0.5))
        with pytest.raises(SingularSubmatrix):
            gaussian_cmi(cov, ["U2"], ["Sprime"], ["X2"])

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
        assert sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], 5000, np.int64(42)) == v1

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, "7"], ids=repr)
    def test_rejects_a_seed_that_is_not_a_count(self, seed):
        # None drew fresh entropy, so the estimate changed run to run
        with pytest.raises(OutOfRange, match="seed must be an integer >= 0"):
            sample_mi_estimate(_pair(0.5), ["A"], ["B"], [], 5000, seed)

    def test_tracks_exact_value(self):
        cov = build_cov_informed_both(EXAMPLE, InformedBothParams(0.5, 0.5))
        exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
        est = sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], 200_000, 7)
        assert est == pytest.approx(exact, abs=0.02)

    def test_tracks_exact_value_at_scale_1e6(self):
        # oracle-verify seed 7's draw mc3: the absolute PSD check rejected
        # its covariance, so that cross-check never ran
        c = ChannelParams(1045239.1, 1165647.5, 1231959.4, 170763.4, 1179614.8)
        cov = build_cov_informed_both(c, InformedBothParams(0.7978, 0.8153))
        exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
        est = sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], 200_000, 7003)
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

    def test_every_draw_is_exactly_symmetric(self, wishart_draws):
        _, draws = wishart_draws
        assert (draws == draws.transpose(0, 2, 1)).all()

    def test_keeps_the_null_space(self, wishart_draws):
        sigma, draws = wishart_draws
        w, vecs = np.linalg.eigh(sigma)
        null = vecs[:, w <= 1e-12 * w.max()]
        assert null.shape[1] >= 2  # 8 labels built from 6 independent components
        spread = np.abs(np.einsum("ki,nkl,lj->nij", null, draws, null)).max()
        assert spread <= 64 * np.finfo(float).eps * w.max()


def _report(verify, c, params):
    """repr of a verify entry's report as a dict, or the type of its
    error: a SingularSubmatrix message names the channel."""
    try:
        return repr(verify(c, params).to_dict())
    except RelayRegionsError as e:
        return type(e)


def _times(c, k):
    return ChannelParams(*(math.ldexp(v, k) for v in (c.p1, c.p2, c.q, c.n1, c.n2)))


def test_top_of_the_float_range_reports_as_scaled_down_without_warning():
    """The covariance is built on the scaled powers, so a channel at the
    top of the float range gets the report of the same channel times an
    even 2^-k; as given, sigma's product overflowed to nan."""
    g = GdpcParams(0.2997118905373848, 0.12428327649956394, 0.42268722119765845, 0.028319671145462966)
    p = InformedBothParams(0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # this channel spans 2^1990
        with pytest.raises(OutOfRange, match=SPAN):
            ChannelParams(
                4.396429386339809e-299, 2.770549746612979e214, 1.4169195198104736e-280,
                6.212520831057459e137, 1.7046449361437926e300,
            )
        c = ChannelParams(1.7e308, 1.7e308, 1.7e308, 1e300, 1.7e308)
        for verify, params in ((verify_gdpc, g), (verify_informed_both, p), (verify_relay_identity, p)):
            assert _report(verify, c, params) == _report(verify, _times(c, -1000), params)


def _oracle_verify_draws(n, seed):
    """Channels and gdpc knobs over the oracle-verify benchmark ranges:
    one factor log-uniform in 1e-12..1e8 scales every power and noise."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = 10.0 ** rng.uniform(-12.0, 8.0)
        n1 = rng.uniform(0.05, 1.0)
        c = ChannelParams(
            rng.uniform(0.2, 4.0) * k, rng.uniform(0.0, 4.0) * k,
            rng.uniform(0.1, 4.0) * k, n1 * k, n1 * rng.uniform(1.5, 8.0) * k,
        )
        gamma = rng.uniform(0.0, 0.97)
        rho = rng.uniform(0.0, 1.0) * rho_upper_bound(c, gamma)
        yield c, GdpcParams(gamma, rho, rng.uniform(0.0, 0.98), rng.uniform(0.0, 1.0))


# math.log2 and np.log2 of a/b differ by one ulp on this point
ULP_EXAMPLE = (
    ChannelParams(
        9.121006056631554e-05, 3.7142381297886255e-05, 8.320527743925754e-05,
        5.463695831077184e-06, 8.765029248455559e-06,
    ),
    GdpcParams(
        0.13535117755947312, 0.7773748719903223, 0.4616405549049589,
        0.7702831136082241,
    ),
)


def _closed_misses(c, g):
    """The gdpc report's a/b and c/d closed values that differ, as bits,
    from the checked evaluation's unclamped log ratios, or where positive
    from ``gdpc_rates``; () if verify_gdpc raises a typed error."""
    try:
        rep = verify_gdpc(c, g)
    except RelayRegionsError:
        return ()
    _, _, r1, r2, _ = _gdpc_point(c, g)
    rates = gdpc_rates(c, g)
    return tuple(
        (term.term, term.closed, float(ratio), clamped)
        for term, ratio, clamped in zip(rep.details[1:], (r1, r2), rates[:2])
        if term.closed.hex() != float(ratio).hex()
        or (ratio > 0.0 and term.closed.hex() != clamped.hex())
    )


class TestVerifyCertifiesLibraryFloats:
    def test_ulp_example(self):
        c, g = ULP_EXAMPLE
        assert verify_gdpc(c, g).passed
        assert _closed_misses(c, g) == ()

    def test_oracle_verify_draws(self):
        misses = [
            (c, g, miss)
            for c, g in _oracle_verify_draws(2000, 0)
            for miss in _closed_misses(c, g)
        ]
        assert misses == []

def _extreme_draws(n, seed, near_scale=False):
    """The powers (p1, p2, q, n1, n2) of channels with p1, p2, q and n1
    log-uniform over 1e-300..1e300, or with ``near_scale`` within two
    decades of one scale there (p2 = 0 on 15% of draws, q = 0 on 10%),
    and n2/n1 from 1 + 1e-12 to 1e8; with six knobs from {0, 1, uniform}:
    gamma, rho's fraction of its bound, beta and alpha2, then gamma and
    beta of the informed-both construction. Most wide draws span more
    than 2^500."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        if near_scale:
            p1, p2, q, n1 = 10.0 ** (rng.uniform(-298.0, 298.0) + rng.uniform(-2.0, 2.0, 4))
        else:
            p1, p2, q, n1 = 10.0 ** rng.uniform(-300.0, 300.0, 4)
        p2 *= rng.uniform() >= 0.15
        q *= rng.uniform() >= 0.10
        n2 = n1 * (1.0 + 10.0 ** rng.uniform(-12.0, 8.0))
        knobs = [float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(6)]
        yield [float(v) for v in (p1, p2, q, n1, n2)], knobs


# channels whose closed forms leave the float range in the powers as
# given: rows 1-2 read cap_c(inf) in (a), the cross term of nostate_terms
# overflows and so does the far user's ratio in (b), and only row 2's
# argument overflows in (c). Each spans more than 2^500.
FLOAT_RANGE_CASES = [
    (
        (
            1.912876620639354e+249, 3.3531497959108084e-126, 6.292669901169704e+290,
            6.227326762591902e-98, 7.922947683685271e-97,
        ),
        InformedBothParams(0.19026780185398773, 0.0),
    ),
    ((1e200, 1e200, 1.0, 1e-200, 2e-200), InformedBothParams(0.0, 0.0)),
    ((1.5e308, 1.0, 1.0, 0.5, 1.0), InformedBothParams(0.5, 1.0)),
]
SPAN = r"the nonzero powers may span at most 2\*\*500"


def _assert_total(verify, c, params):
    """A verify entry returns a report of finite values that is strict
    JSON, or raises a RelayRegionsError."""
    try:
        rep = verify(c, params)
    except RelayRegionsError:
        return
    for t in rep.details:
        assert all(map(math.isfinite, (t.oracle, t.closed, t.abs_diff))), (c, params, t)
    json.dumps(rep.to_dict(), allow_nan=False)


class TestVerifyTotality:
    @pytest.mark.parametrize(
        "c, p", FLOAT_RANGE_CASES, ids=["cap_c(inf)", "cross-term", "partial-rate"]
    )
    def test_informed_both_out_of_float_range(self, c, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=SPAN):
                verify_informed_both(ChannelParams(*c), p)

    def test_informed_both_cooperative_power_overflow(self):
        # the cooperative power (sqrt((1-beta)(1-gamma)p1) + sqrt(p2))^2
        # overflows in the caller's scale, not on the scaled powers the
        # covariance is built on: the report is the scaled-down channel's
        c = ChannelParams(1.7e308, 1.7e308, 1e300, 1e300, 1.7e308)
        p = InformedBothParams(0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _report(verify_informed_both, c, p)
        assert got == _report(verify_informed_both, _times(c, -1000), p)

    def test_informed_both_products_past_the_float_range(self):
        # the cross term sqrt(p1*p2) overflows in the powers as given; the
        # channel spans 2^1002. Inside the bound every closed form runs on
        # the scaled powers
        with pytest.raises(OutOfRange, match=SPAN):
            ChannelParams(
                1.7117031358579987e+107, 7.437269015303797e+266, 2.9683479802586536e-33,
                1.978944940775071e+264, 6.318926681740827e+268,
            )

    def test_extreme_draws(self):
        draws = [*_extreme_draws(5000, 0), *_extreme_draws(1000, 1, near_scale=True)]
        built = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for powers, (gamma, frac, beta, alpha2, gamma3, beta3) in draws:
                try:
                    c = ChannelParams(*powers)
                except OutOfRange as e:
                    # a channel past the span bound is the typed error
                    assert re.match(SPAN, str(e)), powers
                    continue
                built += 1
                g = GdpcParams(gamma, frac * rho_upper_bound(c, gamma), beta, alpha2)
                p = InformedBothParams(gamma3, beta3)
                _assert_total(verify_gdpc, c, g)
                _assert_total(verify_informed_both, c, p)
                _assert_total(verify_relay_identity, c, p)
        assert built > 1000

class TestReports:
    def test_region_rows(self):
        # the region rows come from one table: every label, in order
        p = InformedBothParams(0.5, 0.5)

        def terms(rep):
            return [t.term for t in rep.details]

        assert terms(verify_informed_both(EXAMPLE, p)) == [
            "I(X1;Y1|S,X2)-I(U1,U2;Y1|S,X2)",
            "I(U2;Y1|S,U1)",
            "I(U1,U2;Y2)-I(U1,U2;S)",
        ]
        assert terms(verify_gdpc(EXAMPLE, GdpcParams(0.2, 0.3, 0.4, 0.5))) == [
            "I(U1;Y1|U2,X2)-I(U1;Sprime|U2,X2)",
            "I(U2;Y1|X2)-I(U2;Sprime|X2)",
            "I(U2,X2;Y2)-I(U2;Sprime|X2)",
        ]
        assert terms(verify_relay_identity(EXAMPLE, p)) == ["I(U2;Y1|S,X2) vs I(U2;Y1|S,U1)"]

    def test_term_check(self):
        t = TermCheck("x", 1.0, 1.0 + 1e-12)
        assert t.abs_diff == pytest.approx(1e-12, rel=1e-3, abs=0.0)
        assert set(t.to_dict()) == {"term", "oracle", "closed", "abs_diff"}

    def test_outcome_follows_details(self):
        good = TermCheck("g", 0.5, 0.5)
        bad = TermCheck("b", 0.5, 0.6)
        rep = VerifyReport("demo", 1e-3, (good, bad))
        assert not rep.passed
        assert rep.max_abs_diff == pytest.approx(0.1)
        assert VerifyReport("demo", 0.2, (good, bad)).passed
        d = rep.to_dict()
        assert list(d) == ["name", "tol", "max_abs_diff", "pass", "details"]
        assert d["pass"] is False
        assert len(d["details"]) == 2

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, "1e-9", [1e-9], None, True])
    def test_unusable_tol_is_out_of_range(self, tol):
        # the whole message, for a float outside (0, inf) or a value that is
        # no real number
        rule = "tol must lie in (0, inf)"
        if not isinstance(tol, float):
            rule = "tol must be a real number in float range"
        message = "^" + re.escape(f"{rule}, got {tol!r}") + "$"
        with pytest.raises(OutOfRange, match=message):
            VerifyReport("demo", tol, (TermCheck("t", 0.5, 0.5),))
        p = InformedBothParams(0.5, 0.5)
        for verify, params in (
            (verify_informed_both, p),
            (verify_gdpc, GdpcParams(0.2, 0.3, 0.4, 0.5)),
            (verify_relay_identity, p),
        ):
            with pytest.raises(OutOfRange, match=message):
                verify(EXAMPLE, params, tol)

    def test_a_nan_row_fails_in_any_order(self):
        rows = (TermCheck("u", 0.0, 0.0), TermCheck("t", math.nan, 0.0))
        for details in (rows, rows[::-1]):
            rep = VerifyReport("x", 1e-9, details)
            assert math.isnan(rep.max_abs_diff)
            assert rep.to_dict()["pass"] is rep.passed is False

    def test_a_report_needs_a_row(self):
        with pytest.raises(OutOfRange, match="at least one term row"):
            VerifyReport("demo", 1e-9, ())
