"""The reference implementations the tests compare the library against,
one per computation, and the hypothesis settings the property tests
share: the alpha2 kernel with a log of each ratio and each term clamped
(``_reference_best_alpha2``) and the library's former four-layer kernel
(``_stacked_best_alpha2``), the box search one row at a time on
meshgridded axes (``_reference_box_search``, which
``_reference_max_r02_gdpc`` is at q > 0), the cooperative split in
60-digit decimal (``_reference_max_beta_nostate``), the DMC search as a
loop over every candidate with one public ``discrete_cmi`` call per term
(``_reference_maximize``) on joints that ``compose_full`` builds, and
each covariance builder as the nested row table of its docstring
(``_reference_cov_informed_both`` and ``_reference_cov_informed_source``).

``_scaled_row`` hands the kernel a channel's row as the search does.

A change that makes one of these computations faster points the tests of
its existing reference at the new code. It does not freeze the code it
replaces as a second reference: the tests would then guard two
references of one computation that must be kept equal. The stacked
kernel is the one exception: it is not a reference the library is
checked against for its math but the float operations the pinned
outputs were made with, which the three-layer kernel reproduces by IEEE
identities at alpha2 = +0.0 and by an ordered tie pick.
"""

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np
from hypothesis import settings

from relayregions import (
    AuxJoint,
    GdpcParams,
    OptResult,
    RatePoint,
    discrete_cmi,
    gdpc_rates,
    max_r02_gdpc,
    rho_upper_bound,
)
from relayregions import dmc
from relayregions.dmc import AXES
from relayregions.optimize import DEFAULT_GRID
from relayregions.model import _TIE_TOL, _scaled
from relayregions.rates import _binned_pair, _log_ratios

# derandomized: a property draws the same examples on every run, seeded
# from its source, so a change to its body draws new ones
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def _clamp_array(r):
    """Map negative, nan and -inf entries to 0.0 (clamping convention),
    elementwise: each sum-rate term clamped on its own, the mapping that
    the single clamps of ``_best_alpha2`` and ``gdpc_rates`` reproduce."""
    return np.where(np.isfinite(r) & (r > 0.0), r, 0.0)


def _scaled_row(c, gamma, rho, beta):
    """The kernel row of channel ``c`` as the search hands it over: its
    ``_scaled`` powers and gamma, a rho column and a beta row."""
    return (*_scaled(c)[0], gamma), np.array(rho)[:, np.newaxis], np.array(beta)[np.newaxis, :]


def _alpha2_free_terms(p1, p2, q, n1, n2, gamma, rho, beta):
    """(pwt, qprime, a, c, n1 + gamma*p1, n2 + gamma*p1) of every cell, in
    one function, by the float operations of ``rates._row_terms`` and
    ``rates._cell_terms``."""
    gbar = 1.0 - gamma
    pw = (1.0 - rho) * gbar * p1
    # with no relay power X2 = 0 reveals nothing: all of pw stays unknown
    pwt = (1.0 - beta * beta * (p2 > 0.0)) * pw
    qs = np.sqrt(q) - np.sqrt(rho * gbar * p1)
    qp = qs * qs
    gp1 = gamma * p1
    a = pwt * (pwt + qp + gp1 + n1)
    c = pwt * (pw + p2 + qp + 2.0 * beta * np.sqrt(pw * p2) + gp1 + n2)
    return pwt, qp, a, c, n1 + gp1, n2 + gp1


def _stacked_best_alpha2(p1, p2, q, n1, n2, gamma, rho, beta):
    """``rates._best_alpha2`` as it was when it stacked all four alpha2
    candidates, +0.0 included, on one axis and picked among them with
    where, min, == and max, kept as it was with its free terms
    (``_alpha2_free_terms``). The kernel must return its bytes: the
    golden outputs and the region-trace pins were made with it."""
    with np.errstate(all="ignore"):
        pwt, qp, a, c, m1, m2 = _alpha2_free_terms(p1, p2, q, n1, n2, gamma, rho, beta)
        s1 = pwt + m1
        s2 = pwt + m2
        # c*b(x) - a*d(x) = k2*x^2 - 2*kh*x + k0; k2 and k0 share a
        # buffer, which then holds the two roots
        x = s1 * c
        x -= s2 * a
        kk = np.empty((2,) + x.shape)
        np.multiply(qp, x, out=kk[0])
        x = (qp + m1) * c
        x -= (qp + m2) * a
        np.multiply(pwt, x, out=kk[1])
        kh = pwt * qp
        kh *= c - a
        # |kh| into [0.5, 1), and k2 and k0 by the same power of two: the
        # roots keep every bit, and the discriminant stays in range
        # wherever the coefficients are
        kh, e = np.frexp(kh)
        np.ldexp(kk, -e, out=kk)
        h = kh * kh
        h -= kk[0] * kk[1]
        np.sqrt(h, out=h)
        np.copysign(h, kh, out=h)
        h += kh
        np.divide(h, kk[0], out=kk[0])
        np.divide(kk[1], h, out=kk[1])
        cand = np.zeros((4,) + h.shape)
        a2 = np.divide(pwt, s2, out=cand[1])
        a1 = np.divide(pwt, s1, out=cand[3])
        inside = kk >= a2
        inside &= kk <= a1
        # a root outside [A2, A1], or nan, becomes nan, which fmin skips
        root = np.fmin(*np.where(inside, kk, np.nan))
        # nan fails the comparison, so it and zeros of either sign leave
        # the +0.0 in place; A2 and A1 are +0.0 or positive already
        np.copyto(cand[2], root, where=root > 0.0)
        b, d = _binned_pair(pwt, qp, m1, m2, cand)
        r1 = np.divide(a, b, out=b)
        r2 = np.divide(c, d, out=d)
        v = np.minimum(r1, r2)
        np.log2(v, out=v)
        v *= 0.5
        # fmax reads nan (0/0), -inf (log 0) and negative values as +0.0
        np.fmax(v, 0.0, out=v)
    tied = v >= v.max(axis=0) - _TIE_TOL
    # candidates equal to the pick share its value: the same operations
    # computed both
    alpha2 = np.where(tied, cand, np.inf).min(axis=0)
    return alpha2, np.where(cand == alpha2, v, -np.inf).max(axis=0)


def _reference_products(p1, p2, q, n1, n2, gamma, rho, beta):
    """The six alpha2 candidates of every cell, and a, b, c, d at each."""

    def binned(pwt, qp, noise, alpha2):
        return (1.0 - alpha2) ** 2 * pwt * qp + noise * (pwt + alpha2**2 * qp)

    pwt, qp, a, c, m1, m2 = _alpha2_free_terms(p1, p2, q, n1, n2, gamma, rho, beta)
    k2 = qp * ((pwt + m1) * c - (pwt + m2) * a)
    k1 = -2.0 * pwt * qp * (c - a)
    k0 = pwt * ((qp + m1) * c - (qp + m2) * a)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (k1 + np.copysign(np.sqrt(k1 * k1 - 4.0 * k2 * k0), k1))
        cand = np.stack(
            np.broadcast_arrays(
                0.0, pwt / (pwt + m1), pwt / (pwt + m2), h / k2, k0 / h, -k0 / k1
            )
        )
    cand = np.where(np.isfinite(cand) & (cand >= 0.0) & (cand <= 1.0), cand, 0.0)
    return cand, a, binned(pwt, qp, m1, cand), c, binned(pwt, qp, m2, cand)


def _reference_best_alpha2(p1, p2, q, n1, n2, gamma, rho, beta):
    """The kernel with a log of each ratio, then the min and the clamp.
    Overflow, 0/0 and log 0 are silent, as in the kernel."""
    with np.errstate(all="ignore"):
        cand, a, b, c, d = _reference_products(p1, p2, q, n1, n2, gamma, rho, beta)
        r1, r2 = _log_ratios(a, b, c, d)
    v = np.minimum(_clamp_array(r1), _clamp_array(r2))
    tied = v >= v.max(axis=0) - _TIE_TOL
    pick = np.argmin(np.where(tied, cand, np.inf), axis=0)[np.newaxis]
    return np.take_along_axis(cand, pick, 0)[0], np.take_along_axis(v, pick, 0)[0]


def _reference_axis(lo, hi, steps):
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _reference_max_r02_gdpc(c, gamma, grid=None, *, freeze_rho=False):
    """``max_r02_gdpc`` of one row: the box search of a row with q > 0,
    and the package's own ``max_r02_gdpc(c, gamma)`` of a row with q = 0.
    The library answers a q = 0 row by the exact region's closed-form
    split, not the grid, so a test of the batched search against this
    reference checks that both entry points reach that one rule bit for
    bit. The split's math is checked against the 60-digit
    ``_reference_max_beta_nostate``
    (``test_optimize.TestInterferenceFree``)."""
    if c.q == 0.0:
        return max_r02_gdpc(c, gamma)
    return _reference_box_search(c, gamma, grid, freeze_rho=freeze_rho)


def _reference_box_search(c, gamma, grid=None, *, freeze_rho=False):
    """The grid-and-shrink search of one row, q = 0 included, as one pass
    runs it: each round evaluates the meshgridded box through
    ``_reference_best_alpha2``, keeps the first cell within the tie
    tolerance of the round's best and not below the incumbent, and takes
    it on a clear gain or on a tie at smaller knobs; the box then shrinks
    around the incumbent, clipped to the bounds."""
    grid = grid if grid is not None else DEFAULT_GRID
    rho_hi = 0.0 if freeze_rho else rho_upper_bound(c, gamma)
    bounds = ((0.0, rho_hi), (0.0, 1.0))
    steps = (grid.steps_rho, grid.steps_beta)
    boxes = list(bounds)
    best = None
    best_v = -math.inf
    evaluations = 0
    trace = []
    for _ in range(grid.refine_iters + 1):
        axes = [_reference_axis(lo, hi, n) for (lo, hi), n in zip(boxes, steps)]
        rr, bb = np.meshgrid(*axes, indexing="ij")
        aa, v = _reference_best_alpha2(c.p1, c.p2, c.q, c.n1, c.n2, gamma, rr, bb)
        v = v.ravel()
        evaluations += v.size
        vmax = float(v.max())
        threshold = max(vmax - _TIE_TOL, best_v)
        eligible = v >= threshold
        if eligible.any():
            flat = int(np.argmax(eligible))
            cand = (
                float(rr.ravel()[flat]),
                float(bb.ravel()[flat]),
                float(aa.ravel()[flat]),
            )
            cand_v = float(v[flat])
            if (
                best is None
                or cand_v > best_v + _TIE_TOL
                or (cand_v >= best_v and cand < best)
            ):
                best, best_v = cand, cand_v
        trace.append((*best, best_v))
        new_boxes = []
        for (lo0, hi0), (lo, hi), center in zip(bounds, boxes, best[:2]):
            half = 0.5 * (hi - lo) * grid.refine_shrink
            new_boxes.append((max(lo0, center - half), min(hi0, center + half)))
        boxes = new_boxes
    g = GdpcParams(gamma=gamma, rho=best[0], beta=best[1], alpha2=best[2])
    r = gdpc_rates(c, g)
    return OptResult(
        best=g, value=min(r.r1_sum, r.r2_sum), evaluations=evaluations, trace=tuple(trace)
    )


def _reference_max_beta_nostate(c, gamma):
    """``max_beta_nostate`` in 60-digit decimal on the channel's scaled
    powers, as Decimals (beta3, value in bits): the crossing's root s of
    A s^2 + B s + C = 0 and beta3 = 1 - s^2 by their definitions. s is
    the root in the form without cancellation, and 1 - s^2 >= n1/n2
    keeps at least 20 digits while n2/n1 <= 1e40."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p1, p2, _, n1, n2 = (Decimal(v) for v in _scaled(c)[0])
        gamma = Decimal(gamma)
        g = (1 - gamma) * p1
        if g == 0:
            return Decimal(0), Decimal(0)
        d1, d2 = gamma * p1 + n1, gamma * p1 + n2
        aa, bb, cc = g * d2, 2 * (g * p2).sqrt() * d1, (g + p2) * d1 - g * d2
        beta = Decimal(1)
        if cc < 0:
            beta -= (-2 * cc / (bb + (bb * bb - 4 * aa * cc).sqrt())) ** 2
        x1 = beta * g / d1
        x2 = (g + p2 + 2 * ((1 - beta) * g * p2).sqrt()) / d2
        return beta, min((1 + x).ln() for x in (x1, x2)) / (2 * Decimal(2).ln())


def _reference_sigma(rows, variances):
    """L L^T for L = M diag(sqrt(v)), M the nested row table, by the
    builders' float operations."""
    factor = np.array(rows, dtype=float) * np.sqrt(np.array(variances, dtype=float))
    return factor @ factor.T


def _reference_cov_informed_both(c, p):
    """Labels and sigma of ``build_cov_informed_both`` from its docstring:
    basis (S, V1, V2, X1p, Z1, Z2p) of variances (q, p_coop, p_fresh,
    gamma*p1, n1, n2 - n1) on the channel's scaled powers."""
    p1, p2, q, n1, n2 = _scaled(c)[0]
    gbar_p1 = (1.0 - p.gamma) * p1
    src, relay = math.sqrt((1.0 - p.beta) * gbar_p1), math.sqrt(p2)
    root = src + relay
    p_coop, p_fresh = root * root, p.beta * gbar_p1
    lam, mu = (src / root, relay / root) if root > 0.0 else (0.0, 0.0)
    den = p_coop + p_fresh + p.gamma * p1 + n2
    alpha1, alpha2 = p_coop / den, p_fresh / den
    rows = [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S
        [alpha1, 1.0, 0.0, 0.0, 0.0, 0.0],  # U1 = alpha1*S + V1
        [alpha2, 0.0, 1.0, 0.0, 0.0, 0.0],  # U2 = alpha2*S + V2
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # X1p
        [0.0, lam, 1.0, 1.0, 0.0, 0.0],  # X1 = lam*V1 + V2 + X1p
        [0.0, mu, 0.0, 0.0, 0.0, 0.0],  # X2 = mu*V1
        [1.0, lam, 1.0, 1.0, 1.0, 0.0],  # Y1 = X1 + S + Z1
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # Y2 = Y1 + X2 + Z2p
    ]
    variances = (q, p_coop, p_fresh, p.gamma * p1, n1, n2 - n1)
    return ("S", "U1", "U2", "X1p", "X1", "X2", "Y1", "Y2"), _reference_sigma(rows, variances)


def _reference_cov_informed_source(c, g):
    """Labels and sigma of ``build_cov_informed_source`` from its
    docstring: basis (S, X1p, Uw, E2, Z1, Z2p), where X2 = c_uw*Uw + E2
    carries E[Uw*X2] = beta*sqrt(pw*p2), on the channel's scaled powers."""
    p1, p2, q, n1, n2 = _scaled(c)[0]
    gbar = 1.0 - g.gamma
    pw = (1.0 - g.rho) * gbar * p1
    s_coef = math.sqrt(g.rho * gbar * p1 / q)
    kappa = 1.0 - s_coef
    alpha1 = g.gamma * p1 / (g.gamma * p1 + n1)
    c_uw = g.beta * math.sqrt(p2 / pw) if pw > 0.0 else 0.0
    e2_var = (1.0 - g.beta**2) * p2 if pw > 0.0 else p2
    rows = [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S
        [kappa, 0.0, 0.0, 0.0, 0.0, 0.0],  # Sprime = kappa*S
        [alpha1 * (1.0 - g.alpha2) * kappa, 1.0, 0.0, 0.0, 0.0, 0.0],  # U1
        [g.alpha2 * kappa, 0.0, 1.0, 0.0, 0.0, 0.0],  # U2 = alpha2*Sprime + Uw
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # Uw
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # X1p
        [-s_coef, 1.0, 1.0, 0.0, 0.0, 0.0],  # X1
        [0.0, 0.0, c_uw, 1.0, 0.0, 0.0],  # X2
        [kappa, 1.0, 1.0, 0.0, 1.0, 0.0],  # Y1 = X1p + Uw + Sprime + Z1
        [kappa, 1.0, 1.0 + c_uw, 1.0, 1.0, 1.0],  # Y2 = Y1 + X2 + Z2p
    ]
    variances = (q, g.gamma * p1, pw, e2_var, n1, n2 - n1)
    labels = ("S", "Sprime", "U1", "U2", "Uw", "X1p", "X1", "X2", "Y1", "Y2")
    return labels, _reference_sigma(rows, variances)


def _product_compositions(total, cells):
    """The tuples of ``cells`` non-negative integers that sum to ``total``,
    in lexicographic order: ``itertools.product`` of all entries but the
    last, filtered by their sum, with the last taking what they leave."""
    heads = itertools.product(range(total + 1), repeat=cells - 1)
    return [(*head, total - sum(head)) for head in heads if sum(head) <= total]


def compose_full(d, a):
    """The full joint p(s,u1,u2,x1,x2,y1,y2) = aux * channel of an aux
    joint that fits the spec, as the evaluators check it."""
    dmc._check_aux(d, a)
    return a.pmf[..., None, None] * d.channel[:, None, None]


def _per_term_evaluate(d, a, bounds):
    """The rates of one strategy from its composed joint, with one public
    ``discrete_cmi`` call per distinct term of the bound."""
    full = compose_full(d, a)
    return RatePoint.clamped(
        *dmc._combine(dmc._PROGRAMS[bounds], lambda *t: discrete_cmi(full, AXES, *t))
    )


def _reference_maximize(d, bounds, denominator, objective):
    """The search as a plain loop: every candidate through AuxJoint and
    ``_per_term_evaluate``, in itertools.product order. Of the candidates
    whose primary rate lies within ``_TIE_TOL`` of the best one, those
    whose other rate lies within ``_TIE_TOL`` of the best among them tie,
    and of these the lexicographically smallest flattened pmf wins."""
    ns, nu1, nu2, nx1, nx2 = d.sizes[:5]
    cells = nu1 * nu2 * nx1 * nx2
    cond = np.array(_product_compositions(denominator, cells), dtype=float) / float(denominator)
    found = []
    for combo in itertools.product(range(len(cond)), repeat=ns):
        pmf = (cond[list(combo)] * d.p_s[:, None]).reshape(ns, nu1, nu2, nx1, nx2)
        rate = _per_term_evaluate(d, AuxJoint(pmf), bounds)
        key = (rate.r02, rate.r1) if objective == "r02" else (rate.r1, rate.r02)
        found.append((key, tuple(pmf.ravel()), pmf, rate))
    top = max(key[0] for key, *_ in found)
    near = [f for f in found if f[0][0] >= top - _TIE_TOL]
    second = max(key[1] for key, *_ in near)
    best = min((f for f in near if f[0][1] >= second - _TIE_TOL), key=lambda f: f[1])
    return best[2], best[3], len(found)
