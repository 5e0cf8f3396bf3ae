"""Closed-form achievable rates for the relay broadcast channel with
additive Gaussian interference.

Private layer: a fraction gamma of the source power rides under the
common layers and is decoded only by the nearby user, contributing
cap_c(gamma*p1/n1) regardless of the interference (binning against the
residual interference absorbs it).

Common layers, interference known at the source only: the remaining
power (1-gamma)*p1 splits again, a fraction rho spent subtracting a
scaled copy of the interference and the rest, pw = (1-rho)(1-gamma)*p1,
spent on a binned codeword correlated (coefficient beta) with the relay
input. With pwt = (1-beta^2)*pw the part of that codeword independent
of the relay input (pwt = pw when p2 = 0: a relay input of 0 reveals
none of it), and

    qprime = (sqrt(q) - sqrt(rho*(1-gamma)*p1))^2

the leftover interference power, the two sum-rate bounds are
0.5*log2(a/b) and 0.5*log2(c/d) where

    a = pwt*(pwt + qprime + gamma*p1 + n1)
    b = (1-alpha2)^2*pwt*qprime + (n1 + gamma*p1)*(pwt + alpha2^2*qprime)
    c = pwt*(pw + p2 + qprime + 2*beta*sqrt(pw*p2) + gamma*p1 + n2)
    d = (1-alpha2)^2*pwt*qprime + (n2 + gamma*p1)*(pwt + alpha2^2*qprime)

and alpha2 is the inflation factor of the common binning layer.

a and c do not depend on alpha2, while b and d are convex quadratics in
it, minimized at the Costa points A1 = pwt/(pwt + n1 + gamma*p1) and
A2 = pwt/(pwt + n2 + gamma*p1) (Costa, "Writing on dirty paper", 1983).
So a/b rises up to A1 and falls after it, c/d does the same about A2,
and A2 <= A1 because n1 < n2. Below A2 both bounds rise and above A1
both fall, so min(r1_sum, r2_sum) peaks over alpha2 in [0, 1] at A2, at
A1, or where the bounds cross in the bracket [A2, A1]: at a root of the
quadratic c*b(alpha2) = a*d(alpha2), whose other root lies outside the
bracket. The optimizer evaluates those three candidates and alpha2 = 0
instead of searching alpha2: the three in one stacked pass, and 0 on its
own, where b and d reduce to m*pwt + pwt*qprime. 0 is kept for the tie
rule: where pwt = 0 or qprime = 0 every alpha2 gives the same value, and
the smallest tied candidate is the one returned.

Interference known everywhere (or absent): the capacity region is the
no-interference one. With power split gamma and cooperative split beta3,

    r1  = cap_c(gamma*p1/n1)
    r02 = min( cap_c(beta3*(1-gamma)*p1/(gamma*p1+n1)),
               cap_c(((1-gamma)*p1 + p2
                      + 2*sqrt((1-beta3)*(1-gamma)*p1*p2))/(gamma*p1+n2)) ).

beta3 is deliberately a different symbol from the binning beta above:
the two agree only through the mapping beta3 = 1 - beta**2, which the
test suite checks on the q = 0 reduction.

Negative or 0/0-indeterminate expressions clamp to exactly 0 (they mark
useless parameter choices, not invalid inputs). Every form runs on the
channel's scaled powers (``model._scaled``), where no term leaves the
float range, so none is checked. One point's gdpc terms come from one
evaluation (``_gdpc_point``) by the grid kernel's float operations, so
its clamped min(r1_sum, r2_sum) is the value the box search ranked
there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import (
    ChannelParams,
    GdpcParams,
    OutOfRange,
    _TIE_TOL,
    _clamp_rate,
    _require_real,
    _require_unit,
    _scaled,
    validate_gdpc,
)

_LN2 = math.log(2.0)


def cap_c(x: float) -> float:
    """Gaussian capacity function 0.5*log2(1+x) in bits, of a finite x >= 0."""
    if not (x := _require_real("cap_c argument", x)) >= 0:  # nan too
        raise OutOfRange(f"cap_c argument must be >= 0, got {x}")
    if x == math.inf:
        raise OutOfRange(f"cap_c argument must be finite, got {x}")
    return 0.5 * math.log1p(x) / _LN2


def _private_rate(p1, n1, gamma):
    """cap_c(gamma*p1/n1), the private layer's rate, on scaled powers."""
    return cap_c(gamma * p1 / n1)


def _row_terms(p1, p2, q, n1, n2, gamma):
    """The terms of a row that rho and beta do not touch, which a search
    computes once a pass: (p1, p2, n1, n2, 1 - gamma, gamma*p1, p2 > 0,
    sqrt(q), n1 + gamma*p1, n2 + gamma*p1)."""
    gp1 = gamma * p1
    return p1, p2, n1, n2, 1.0 - gamma, gp1, p2 > 0.0, np.sqrt(q), n1 + gp1, n2 + gp1


def _cell_terms(row, rho, beta):
    """The parts of the sum-rate bounds that alpha2 does not touch, at a
    ``_row_terms`` row, elementwise: (pwt, qprime, a, c, n1 + gamma*p1,
    n2 + gamma*p1)."""
    p1, p2, n1, n2, gbar, gp1, relay, sq, m1, m2 = row
    pw = (1.0 - rho) * gbar * p1
    # with no relay power X2 = 0 reveals nothing: all of pw stays unknown
    pwt = (1.0 - beta * beta * relay) * pw
    qs = sq - np.sqrt(rho * gbar * p1)
    qp = qs * qs
    a = pwt * (pwt + qp + gp1 + n1)
    c = pwt * (pw + p2 + qp + 2.0 * beta * np.sqrt(pw * p2) + gp1 + n2)
    return pwt, qp, a, c, m1, m2


def _binned_pair(pwt, qp, m1, m2, alpha2):
    """b and d at alpha2 (m1 = n1 + gamma*p1, m2 = n2 + gamma*p1). They
    share (1-alpha2)^2*pwt*qprime and pwt + alpha2^2*qprime. An array
    alpha2 must have the full broadcast shape: the products are formed in
    place in arrays of its shape. The scalar rates pass a float and
    ``_best_alpha2`` its stack of three candidates. Squares are products,
    as numpy forms them on arrays, so a float rounds as a grid cell does."""
    shared = 1.0 - alpha2
    shared *= shared
    shared *= pwt
    shared *= qp
    inner = alpha2 * alpha2
    inner *= qp
    inner += pwt
    b = m1 * inner
    b += shared
    d = m2 * inner
    d += shared
    return b, d


def _log_ratios(a, b, c, d):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * np.log2(a / b), 0.5 * np.log2(c / d)


def _clamped_value(a, b, c, d):
    """0.5*log2(min(a/b, c/d)), with nan, -inf and negative values read
    as +0.0, elementwise and in b's buffer."""
    np.divide(a, b, out=b)
    np.divide(c, d, out=d)
    v = np.minimum(b, d, out=b)
    np.log2(v, out=v)
    v *= 0.5
    # fmax reads nan (0/0), -inf (log 0) and negative values as +0.0
    return np.fmax(v, 0.0, out=v)


def _best_alpha2(row, rho, beta):
    """Exact maximizer of min(r1_sum, r2_sum) over alpha2 in [0, 1],
    elementwise at a ``_row_terms`` row whose terms broadcast against rho
    and beta: a grid passes its axes as rho of shape (..., n_rho, 1) and
    beta of shape (..., 1, n_beta) rather than meshgridded copies, so the
    terms that depend on rho alone are computed once per rho.

    Returns (alpha2, value) with the value clamped. The candidates are
    +0.0, the far user's Costa point A2, the smaller root of c*b - a*d = 0
    that lies in the bracket [A2, A1] (+0.0 when neither root does) and
    the near user's Costa point A1; the module docstring says why they
    suffice for n1 < n2. The last three are evaluated in one stacked
    pass. At +0.0, b and d are m1*pwt + pwt*qprime and m2*pwt +
    pwt*qprime, the values ``_binned_pair`` rounds to there (1*x = x,
    0*qprime = +0.0 and +0.0 + pwt = pwt), so every candidate's value is
    computed by the same float operations. The roots are h/k2 and k0/h of
    k2*x^2 - 2*kh*x + k0 with h = kh + sign(kh)*sqrt(kh^2 - k2*k0), and
    where the quadratic degenerates to a linear equation (k2 = 0) k0/h is
    the linear root. The three coefficients are first scaled by the power
    of two that brings |kh| into [0.5, 1): the roots keep every bit, and
    the discriminant stays in range wherever the coefficients are.
    Unscaled, it over- or underflowed at channel powers beyond about
    1e+-38 and lost the crossing. A root that is not positive (nan, or a
    zero of either sign) becomes +0.0; no candidate exceeds 1, since
    pwt/(pwt + m) <= 1 for m > 0. Of the candidates within _TIE_TOL of
    the best value the smallest wins, and its own value is returned, not
    the best one: where pwt = 0 or qprime = 0 every candidate ties and
    +0.0 wins. As +0.0 <= A2 <= root <= A1, and a root that fell back to
    +0.0 has the value of +0.0, the smallest is the first tied candidate
    in that order.

    The log and the clamp each run once per candidate, after the min. The
    value is 0.5*log2(min(a/b, c/d)): np.log2 never decreases and halving
    is exact, so it is min(r1_sum, r2_sum) bit for bit, and np.minimum
    passes a nan ratio through to a nan value. It is kept where it is
    positive, and +0.0 where either term is nan or <= 0, exactly as if
    each term were clamped first. The row is a channel's scaled row
    inside the span bound (``model._scaled``), the only row the search
    passes, on which no ratio overflows. 0/0 and log 0 are silent here.
    """
    with np.errstate(all="ignore"):
        pwt, qp, a, c, m1, m2 = _cell_terms(row, rho, beta)
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
        pq = pwt * qp
        kh = pq * (c - a)
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
        cand = np.zeros((3,) + h.shape)
        a2 = np.divide(pwt, s2, out=cand[0])
        a1 = np.divide(pwt, s1, out=cand[2])
        inside = kk >= a2
        inside &= kk <= a1
        # a root outside [A2, A1], or nan, becomes nan, which fmin skips
        root = np.fmin(*np.where(inside, kk, np.nan))
        # nan fails the comparison, so it and zeros of either sign leave
        # the +0.0 in place; A2 and A1 are +0.0 or positive already
        np.copyto(cand[1], root, where=root > 0.0)
        b, d = _binned_pair(pwt, qp, m1, m2, cand)
        v = _clamped_value(a, b, c, d)
        # +0.0 on its own layer, by _binned_pair's rounding there
        b0 = m1 * pwt
        b0 += pq
        d0 = m2 * pwt
        d0 += pq
        v0 = _clamped_value(a, b0, c, d0)
    top = np.maximum(v.max(axis=0), v0)
    top -= _TIE_TOL
    # scan from A1 down to +0.0: the last tied candidate written is the
    # first tied one in ascending order
    alpha2, value = cand[2], v[2]
    for x, vx in ((cand[1], v[1]), (cand[0], v[0]), (0.0, v0)):
        tied = vx >= top
        np.copyto(alpha2, x, where=tied)
        np.copyto(value, vx, where=tied)
    return alpha2, value


class GdpcRates(NamedTuple):
    """The clamped sum-rate bounds and the private rate, with the products
    a, b, c, d whose log ratios the bounds are, and qprime."""

    r1_sum: float
    r2_sum: float
    r_private: float
    a: float
    b: float
    c: float
    d: float
    qprime: float


def _gdpc_point(c: ChannelParams, g: GdpcParams):
    """The gdpc terms at one point of a channel, on its scaled powers
    (``model._scaled``), by the grid kernel's float operations
    (``_row_terms``, then ``_cell_terms`` and ``_binned_pair``): the
    products (a, b, c, d, qprime), the scale exponent k, the unclamped
    0.5*log2(a/b) and 0.5*log2(c/d), and the private rate. Callers hold
    the point's rho bound already."""
    (p1, p2, q, n1, n2), k = _scaled(c)
    row = _row_terms(p1, p2, q, n1, n2, g.gamma)
    pwt, qp, a, cc, m1, m2 = _cell_terms(row, g.rho, g.beta)
    b, d = _binned_pair(pwt, qp, m1, m2, g.alpha2)
    return (a, b, cc, d, qp), k, *_log_ratios(a, b, cc, d), _private_rate(p1, n1, g.gamma)


def gdpc_rates(c: ChannelParams, g: GdpcParams) -> GdpcRates:
    """Clamped sum-rate bounds and the private rate at one point.

    The achievable sum rate of the scheme is min(r1_sum, r2_sum); the
    private rate cap_c(gamma*p1/n1) comes on top of it. The products a,
    b, c, d and qprime come back exactly in the caller's scale, where one
    past the float range reads +inf.
    """
    validate_gdpc(c, g)
    (a, b, cc, d, qp), k, r1, r2, r_private = _gdpc_point(c, g)
    # a, b, c and d have degree 2 in the powers, qprime degree 1
    with np.errstate(over="ignore"):
        products = np.ldexp((a, b, cc, d, qp), (-2 * k,) * 4 + (-k,)).tolist()
    return GdpcRates(_clamp_rate(r1), _clamp_rate(r2), r_private, *products)


def nostate_terms(c: ChannelParams, gamma: float, beta3: float) -> tuple[float, float]:
    """The two competing sum-rate terms of the no-interference region.

    The first (relay decoding) term increases with beta3, the second
    (far-user combining) term decreases; their min is what the region
    maximizes over beta3. They run on the channel's scaled powers.
    """
    gamma, beta3 = _require_unit("gamma", gamma), _require_unit("beta3", beta3)
    return _nostate_terms(*_scaled(c)[0], gamma, beta3)


def _nostate_terms(p1, p2, q, n1, n2, gamma, beta3):
    """``nostate_terms`` on a channel's scaled powers (q unused), at a
    gamma and a beta3 already checked."""
    gbar_p1 = (1.0 - gamma) * p1
    cross = 2.0 * math.sqrt((1.0 - beta3) * gbar_p1 * p2)
    x1 = beta3 * gbar_p1 / (gamma * p1 + n1)
    return cap_c(x1), cap_c((gbar_p1 + p2 + cross) / (gamma * p1 + n2))
