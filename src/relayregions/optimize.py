"""Deterministic maximization of the achievable sum rates.

Two optimization problems appear:

* the no-interference region maximizes the min of two terms over the
  cooperative split beta3. The first term strictly increases with beta3
  and the second strictly decreases, so the max sits at their unique
  crossing, or at beta3 = 1 when they never meet. With s = sqrt(1-beta3)
  the crossing is the positive root of a quadratic in s, solved in
  closed form;

* the encoder-informed inner bound maximizes min(r1_sum, r2_sum) over
  (rho, beta, alpha2). The optimal alpha2 has a closed form at every
  (rho, beta) (see ``rates``), which leaves a search over the box
  (rho, beta). The min of two smooth surfaces has a ridge where the
  active term switches, which rules out plain gradient methods; instead
  a full grid is evaluated (vectorized), then the box is repeatedly
  shrunk around the incumbent. Everything is pure and reproducible: no
  randomness, and ties within 1e-12 of the round's best value resolve
  to the lexicographically smallest (rho, beta), each with its smallest
  tied alpha2. The incumbent always stays in the candidate set, so the
  value never decreases across refinement rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelParams,
    Frontier,
    FrontierPoint,
    GdpcParams,
    OutOfRange,
    RatePoint,
    SCHEMES,
    rho_upper_bound,
    validate_channel,
)
from .rates import _TIE_TOL, _best_alpha2, cap_c, gdpc_rates, nostate_terms


@dataclass(frozen=True)
class GridSpec:
    """Grid-then-shrink search schedule. refine_shrink is the factor the
    box width contracts by per refinement round."""

    steps_rho: int = 33
    steps_beta: int = 33
    refine_iters: int = 4
    refine_shrink: float = 0.25

    def __post_init__(self) -> None:
        for name in ("steps_rho", "steps_beta"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 2:
                raise OutOfRange(f"{name} must be an integer >= 2, got {v!r}")
        if not isinstance(self.refine_iters, int) or self.refine_iters < 0:
            raise OutOfRange(f"refine_iters must be an integer >= 0, got {self.refine_iters!r}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise OutOfRange(f"refine_shrink must lie in (0, 1), got {self.refine_shrink}")


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class OptResult:
    """Search outcome. ``value`` is recomputed at ``best`` through the
    scalar rate path, never copied from a grid cell. ``evaluations``
    counts the (rho, beta) cells searched. ``trace`` holds the incumbent
    after each round."""

    best: GdpcParams
    value: float
    evaluations: int
    trace: tuple[tuple[GdpcParams, float], ...] = ()


def _check_gamma(gamma: float) -> float:
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"gamma must lie in [0, 1], got {gamma}")
    return float(gamma)


def max_beta_nostate(c: ChannelParams, gamma: float) -> tuple[float, float]:
    """Best cooperative split of the no-interference region at a fixed
    power split gamma: returns (beta3_star, value in bits).

    With g = (1-gamma)*p1, D1 = gamma*p1 + n1 and D2 = gamma*p1 + n2, the
    two terms meet where s = sqrt(1 - beta3) solves A s^2 + B s + C = 0
    for A = g*D2, B = 2*sqrt(g*p2)*D1 and C = (g + p2)*D1 - g*D2. When
    C >= 0 the increasing term never overtakes the decreasing one and the
    optimum is the endpoint beta3 = 1.
    """
    validate_channel(c)
    _check_gamma(gamma)
    g = (1.0 - gamma) * c.p1
    if g <= 0.0:
        # no common power at all: both terms vanish
        return 0.0, 0.0
    d1 = gamma * c.p1 + c.n1
    d2 = gamma * c.p1 + c.n2
    cc = (g + c.p2) * d1 - g * d2
    if cc >= 0.0:
        beta = 1.0
    else:
        aa = g * d2
        bb = 2.0 * math.sqrt(g * c.p2) * d1
        # the positive root, in the form that avoids cancellation
        s = -2.0 * cc / (bb + math.sqrt(bb * bb - 4.0 * aa * cc))
        beta = 1.0 - s * s
    return beta, min(nostate_terms(c, gamma, beta))


def _axis(lo: float, hi: float, steps: int) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def max_r02_gdpc(
    c: ChannelParams,
    gamma: float,
    grid: GridSpec | None = None,
    *,
    freeze_rho: bool = False,
) -> OptResult:
    """Maximize min(r1_sum, r2_sum) at fixed gamma: vectorized grid search
    plus box shrinking over (rho, beta), with the exact alpha2 at every
    cell.

    ``freeze_rho`` pins rho = 0, which is the plain-binning baseline
    without interference cancellation.
    """
    validate_channel(c)
    _check_gamma(gamma)
    grid = grid if grid is not None else DEFAULT_GRID
    rho_hi = 0.0 if freeze_rho else rho_upper_bound(c, gamma)
    bounds = ((0.0, rho_hi), (0.0, 1.0))
    steps = (grid.steps_rho, grid.steps_beta)
    boxes = list(bounds)
    best: tuple[float, float, float] | None = None
    best_v = -math.inf
    evaluations = 0
    trace: list[tuple[GdpcParams, float]] = []
    for _ in range(grid.refine_iters + 1):
        axes = [_axis(lo, hi, n) for (lo, hi), n in zip(boxes, steps)]
        rr, bb = np.meshgrid(*axes, indexing="ij")
        aa, v = _best_alpha2(c.p1, c.p2, c.q, c.n1, c.n2, gamma, rr, bb)
        v = v.ravel()
        evaluations += v.size
        vmax = float(v.max())
        threshold = max(vmax - _TIE_TOL, best_v)
        eligible = v >= threshold
        if eligible.any():
            # first hit in C order is the lexicographically smallest
            # (rho, beta), because both axes are ascending
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
        params = GdpcParams(gamma=gamma, rho=best[0], beta=best[1], alpha2=best[2])
        trace.append((params, best_v))
        # shrink the (rho, beta) box around the incumbent, clipped to the
        # full bounds
        new_boxes = []
        for (lo0, hi0), (lo, hi), center in zip(bounds, boxes, best[:2]):
            half = 0.5 * (hi - lo) * grid.refine_shrink
            new_boxes.append((max(lo0, center - half), min(hi0, center + half)))
        boxes = new_boxes
    g = GdpcParams(gamma=gamma, rho=best[0], beta=best[1], alpha2=best[2])
    r = gdpc_rates(c, g)
    return OptResult(
        best=g,
        value=min(r.r1_sum, r.r2_sum),
        evaluations=evaluations,
        trace=tuple(trace),
    )


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise OutOfRange(f"unknown scheme {scheme!r}, want one of {SCHEMES}")
    return scheme


def _solve(
    c: ChannelParams, scheme: str, gamma: float, grid: GridSpec | None
) -> tuple[float, float, float, float]:
    """(rho, beta, alpha2, value) of one scheme at one gamma. For the
    exact region beta is the cooperative split beta3 and rho = alpha2 = 0."""
    if scheme in ("gdpc", "dpc"):
        res = max_r02_gdpc(c, gamma, grid, freeze_rho=scheme == "dpc")
        return res.best.rho, res.best.beta, res.best.alpha2, res.value
    beta, value = max_beta_nostate(c, gamma)
    return 0.0, beta, 0.0, value


def frontier(
    c: ChannelParams,
    scheme: str,
    gamma_grid,
    grid: GridSpec | None = None,
) -> Frontier:
    """Trace the (r1, r02) boundary of one scheme over a gamma grid.

    gdpc and dpc dispatch to the box search (dpc with rho frozen at 0);
    informed-both and nostate-outer coincide and use the closed-form
    cooperative split. The gamma grid is sorted and deduplicated, and
    points that a later point strictly dominates (grid jitter can make
    r02 wiggle upward) are dropped so the result is a monotone staircase.
    """
    validate_channel(c)
    _check_scheme(scheme)
    gammas = sorted({_check_gamma(float(g)) for g in gamma_grid})
    pts: list[FrontierPoint] = []
    for gamma in gammas:
        r1 = cap_c(gamma * c.p1 / c.n1)
        rho, beta, alpha2, value = _solve(c, scheme, gamma, grid)
        pts.append(FrontierPoint(gamma, rho, beta, alpha2, RatePoint.clamped(r1, value)))
    kept: list[FrontierPoint] = []
    best_later = -math.inf
    for p in reversed(pts):
        if p.rate.r02 >= best_later:
            kept.append(p)
            best_later = p.rate.r02
    kept.reverse()
    return Frontier(scheme=scheme, points=tuple(kept))


@dataclass(frozen=True)
class SweepRow:
    """One SNR sample: n1 implied by the SNR, the relay-channel sum rate
    (None when the point violates degradedness and was skipped)."""

    snr_db: float
    n1: float
    rate: float | None
    skipped: bool


def sweep_snr(
    base: ChannelParams,
    snr_db_list,
    scheme: str,
    grid: GridSpec | None = None,
) -> tuple[SweepRow, ...]:
    """Relay-channel rate (gamma = 0) of one scheme across source SNRs.

    Each SNR point replaces n1 with p1 / 10**(snr_db/10), keeping the
    other parameters of ``base``. Points where that n1 reaches n2 cannot
    be represented (the far branch must be noisier) and are emitted as
    skipped rows rather than silently dropped. Rows keep input order.
    """
    validate_channel(base)
    _check_scheme(scheme)
    rows: list[SweepRow] = []
    for snr in snr_db_list:
        snr = float(snr)
        n1 = base.p1 / 10.0 ** (snr / 10.0)
        if n1 >= base.n2:
            rows.append(SweepRow(snr_db=snr, n1=n1, rate=None, skipped=True))
            continue
        ch = ChannelParams(p1=base.p1, p2=base.p2, q=base.q, n1=n1, n2=base.n2)
        rate = _solve(ch, scheme, 0.0, grid)[3]
        rows.append(SweepRow(snr_db=snr, n1=n1, rate=rate, skipped=False))
    return tuple(rows)
