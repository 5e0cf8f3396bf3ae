"""Deterministic maximization of the achievable sum rates.

Two optimization problems appear:

* the no-interference region maximizes the min of two terms over the
  cooperative split beta3. The first term strictly increases with beta3
  and the second strictly decreases, so the max sits at their unique
  crossing, or at beta3 = 1 when they never meet. With s = sqrt(1-beta3)
  the crossing is the positive root of a quadratic in s, and beta3 a
  sum of non-negative terms, so it cannot cancel as s nears 1;

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

A frontier or an SNR sweep solves the second problem at many (channel,
gamma) rows, and a dpc row (rho frozen at 0) is only 33 cells a round,
so one solve at a time would be mostly numpy call overhead. The search
therefore carries a leading row axis through the cell arrays of every
round, and all rows of a pass go through one kernel call per round.
Numpy holds only those arrays: the axes, the kernel's values, each row's
max, its first cell at the threshold and that cell's knobs. Each row's
box, incumbent, tie-break, evaluation count and trace are plain Python
floats and ints, since a handful of numpy calls on row-sized arrays
would cost more than the arithmetic they do. Rows run in order, in
passes of at most ``_PASS_CELLS`` grid cells, so the 21 rows of a
default dpc frontier share one pass and 33 x 33 gdpc rows run five to a
pass. ``max_r02_gdpc`` is the pass of one row, and a row left alone in a
pass (a leftover after the full passes, or a row on a grid above the
budget) is solved by calling it. A row is the floats (p1, p2, q, n1, n2,
gamma) on its channel's scaled powers (``model._scaled``), and a pass
returns it as its incumbent ``(rho, beta, alpha2, value)``, its cell
count and its trace, the incumbent after each round, all plain floats
and ints; only ``max_r02_gdpc`` wraps a row into an ``OptResult``. The
value is the last round's grid value at the incumbent, the value the
search ranked. ``gdpc_rates`` there runs the same float operations
(``rates._gdpc_point``), so its min(r1_sum, r2_sum) is that value bit
for bit.

A row's result is bit-identical to searching it alone. Every cell value
is computed elementwise by the same float operations in the same order,
whatever its neighbours; the axes are built by ``np.linspace``'s own
arithmetic; and every selection (threshold, first eligible cell, tie
rule, box shrink and clip) reads only that row, by the same IEEE
operations whether numpy or Python does them. A pass evaluates all its
rows on its widest rho axis, so a row whose box is a single point along
an axis holds that point repeatedly; the repeats give the same values,
the first eligible cell is unchanged, and the evaluation count counts
the point once.

Validity is held by the types: a ``ChannelParams``, ``GdpcParams`` or
``GridSpec`` checks itself when built, so no function here re-checks
one, and on the scaled powers no term leaves the float range. Only bare
floats are checked where they enter: a gamma must lie in [0, 1]
(``model._require_unit``). An incumbent needs no ``validate_gdpc``: its
rho lies in [0, ``rho_upper_bound``], since the box is clipped to that
bound and no axis point lies past its box end.
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
    _TIE_TOL,
    _check_scheme,
    _require_count,
    _require_real,
    _require_unit,
    _scaled,
    rho_upper_bound,
)
from .rates import _best_alpha2, _nostate_terms, _private_rate, _row_terms


_MAX_GRID_CELLS = 10**6
_MAX_SEARCH_CELLS = 10**7


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Grid-then-shrink search schedule. refine_shrink is the factor the
    box width contracts by per refinement round. A round evaluates
    steps_rho * steps_beta cells, at most ``_MAX_GRID_CELLS`` = 10**6:
    at the limit one round's temporaries take about 0.4 GB. A search of
    one row runs refine_iters + 1 rounds, at most ``_MAX_SEARCH_CELLS`` =
    10**7 cells in all: a few seconds, where an unbounded round count
    would run for hours and grow the trace by a tuple a round."""

    steps_rho: int = 33
    steps_beta: int = 33
    refine_iters: int = 4
    refine_shrink: float = 0.25

    def __post_init__(self) -> None:
        # stored as Python numbers: a numpy field would carry numpy's
        # integer overflow or float32 arithmetic into the limits and boxes
        for name, floor in (("steps_rho", 2), ("steps_beta", 2), ("refine_iters", 0)):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), floor))
        if self.steps_rho * self.steps_beta > _MAX_GRID_CELLS:
            raise OutOfRange(
                f"steps_rho * steps_beta must be <= {_MAX_GRID_CELLS}, "
                f"got {self.steps_rho} * {self.steps_beta}"
            )
        if self.steps_rho * self.steps_beta * (self.refine_iters + 1) > _MAX_SEARCH_CELLS:
            raise OutOfRange(
                f"steps_rho * steps_beta * (refine_iters + 1) must be <= {_MAX_SEARCH_CELLS}, "
                f"got {self.steps_rho} * {self.steps_beta} * {self.refine_iters + 1}"
            )
        if not 0.0 < (shrink := _require_real("refine_shrink", self.refine_shrink)) < 1.0:
            raise OutOfRange(f"refine_shrink must lie in (0, 1), got {shrink}")
        object.__setattr__(self, "refine_shrink", shrink)


DEFAULT_GRID = GridSpec()

# Most (rho, beta) cells one pass of the batched search evaluates: five
# default gdpc rows. A kernel call costs about 75 us of numpy dispatch
# whatever its size, and the rows of a pass share it, yet larger passes
# measured slower: in a loop that calibrates as the benchmark worker
# does, passes of 7, 10 and 21 rows took 9.1-9.5 ms per 21-gamma gdpc
# frontier against 8.5 ms at five, and 1,332-2,047 minor faults against
# none, once the kernel's temporaries outgrew glibc's trim threshold. The
# 33-cell rows of a dpc frontier share one pass.
_PASS_CELLS = 5 * DEFAULT_GRID.steps_rho * DEFAULT_GRID.steps_beta


@dataclass(frozen=True, slots=True)
class OptResult:
    """Outcome of one ``max_r02_gdpc`` search. ``value`` is the last
    round's grid value at ``best``, the value the search ranked, so it is
    the last trace value; ``gdpc_rates`` at ``best`` runs the grid's float
    operations, so min(r1_sum, r2_sum) there equals it bit for bit.
    ``evaluations`` counts the (rho, beta) cells searched. ``trace`` holds
    the incumbent after each round as a plain ``(rho, beta, alpha2,
    value)`` float tuple; gamma is ``best.gamma``."""

    best: GdpcParams
    value: float
    evaluations: int
    trace: tuple[tuple[float, float, float, float], ...] = ()


def max_beta_nostate(c: ChannelParams, gamma: float) -> tuple[float, float]:
    """Best cooperative split of the no-interference region at a fixed
    power split gamma: returns (beta3_star, value in bits).

    With g = (1-gamma)*p1, D1 = gamma*p1 + n1 and D2 = gamma*p1 + n2, the
    two terms meet where s = sqrt(1 - beta3) solves A s^2 + B s + C = 0
    for A = g*D2, B = 2*sqrt(g*p2)*D1 and C = (g + p2)*D1 - g*D2. When
    C >= 0 the increasing term never overtakes the decreasing one and the
    optimum is the endpoint beta3 = 1. Otherwise A + C = (g + p2)*D1 gives
    beta3 = 1 - s^2 = ((g + p2)*D1 + B*s) / A, a sum of non-negative
    terms that cannot cancel as s nears 1 (n1 far below n2), clipped at 1
    against rounding. The root and both terms use the scaled powers.
    """
    gamma = _require_unit("gamma", gamma)
    p1, p2, q, n1, n2 = _scaled(c)[0]
    g = (1.0 - gamma) * p1
    if g <= 0.0:
        # no common power at all: both terms vanish
        return 0.0, 0.0
    d1 = gamma * p1 + n1
    d2 = gamma * p1 + n2
    cc = (g + p2) * d1 - g * d2
    if cc >= 0.0:
        beta = 1.0
    else:
        aa, bb = g * d2, 2.0 * math.sqrt(g * p2) * d1
        # B*s, s the positive root in the form that avoids cancellation
        bs = bb * (-2.0 * cc / (bb + math.sqrt(bb * bb - 4.0 * aa * cc))) if bb > 0.0 else 0.0
        beta = min(1.0, ((g + p2) * d1 + bs) / aa)
    return beta, min(_nostate_terms(p1, p2, q, n1, n2, gamma, beta))


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
    gamma = _require_unit("gamma", gamma)
    grid = grid if grid is not None else DEFAULT_GRID
    hi = 0.0 if freeze_rho else rho_upper_bound(c, gamma)
    row = (*_scaled(c)[0], gamma)
    [(inc, cells, trace)] = _search_pass([row], [hi], grid.steps_rho if hi > 0.0 else 1, grid)
    return OptResult(GdpcParams(gamma, *inc[:3]), inc[3], cells, trace)


def _search(problems, grid: GridSpec | None, freeze_rho: bool) -> list[tuple]:
    """The ``_search_pass`` row of every (channel, gamma) problem, at once.

    Rows run in order, in passes of at most _PASS_CELLS grid cells. A
    row's rho axis has one point when its rho bound is 0 (dpc, gamma = 1
    or q = 0) and steps_rho points otherwise; a pass evaluates its rows on
    the widest of them. A row left alone in a pass (a leftover, such as a
    gdpc frontier's gamma = 1 row after its full passes, or a row whose
    grid is above the budget) is a plain ``max_r02_gdpc`` call, so each
    lone solve is one call of the per-point search, and its cost and
    cells stay attributed to it. Callers check each gamma.
    """
    grid = grid if grid is not None else DEFAULT_GRID
    rows = [(*_scaled(c)[0], gamma) for c, gamma in problems]
    rho_hi = [0.0 if freeze_rho else rho_upper_bound(c, gamma) for c, gamma in problems]
    widths = [grid.steps_rho if hi > 0.0 else 1 for hi in rho_hi]
    results = []
    start = 0
    while start < len(problems):
        stop, n_rho = start + 1, widths[start]
        while stop < len(problems) and (
            (stop + 1 - start) * max(n_rho, widths[stop]) * grid.steps_beta <= _PASS_CELLS
        ):
            n_rho = max(n_rho, widths[stop])
            stop += 1
        if stop - start == 1:
            c, gamma = problems[start]
            res = max_r02_gdpc(c, gamma, grid, freeze_rho=freeze_rho)
            results.append((res.trace[-1], res.evaluations, res.trace))
        else:
            results += _search_pass(rows[start:stop], rho_hi[start:stop], n_rho, grid)
        start = stop
    return results


def _search_pass(rows, rho_hi, n_rho: int, grid: GridSpec) -> list[tuple]:
    """Grid-then-shrink over the (rho, beta) boxes of one pass's rows; see
    the module docstring for why each row's result equals a search of
    that row alone. Each row's box, incumbent, trace and cell count are
    plain floats and ints, numpy holds only the cell arrays, and each row
    is returned as (incumbent, cell count, trace)."""
    n = len(rows)
    every = np.arange(n)
    # the terms of the six knobs that no cell moves, each as an (n, 1, 1)
    # column
    terms = _row_terms(*np.array(rows, dtype=float).T[:, :, np.newaxis, np.newaxis])
    steps_rho, n_beta, shrink = grid.steps_rho, grid.steps_beta, grid.refine_shrink
    # each row's (rho, beta) box with its cell count so far, and its
    # incumbent (rho, beta, alpha2, value); an infinite start loses every
    # comparison
    boxes = [(0.0, hi, 0.0, 1.0, 0) for hi in rho_hi]
    best = [(math.inf, math.inf, math.inf, -math.inf)] * n
    history = []
    for _ in range(grid.refine_iters + 1):
        rlo, rhi, blo, bhi, _ = zip(*boxes)
        rho = _axes(rlo, rhi, n_rho)
        beta = _axes(blo, bhi, n_beta)
        aa, v = _best_alpha2(terms, rho[:, :, np.newaxis], beta[:, np.newaxis, :])
        aa, v = aa.reshape(n, -1), v.reshape(n, -1)
        threshold = [
            t if t >= inc[3] else inc[3]
            for t, inc in zip((v.max(axis=1) - _TIE_TOL).tolist(), best)
        ]
        # first hit in C order is the lexicographically smallest
        # (rho, beta), because both axes are ascending
        flat = (v >= np.array(threshold)[:, np.newaxis]).argmax(axis=1)
        i_rho, i_beta = np.divmod(flat, n_beta)
        cands = zip(
            rho[every, i_rho].tolist(),
            beta[every, i_beta].tolist(),
            aa[every, flat].tolist(),
            v[every, flat].tolist(),
        )
        rounds = zip(cands, best, boxes, rho_hi)
        best, boxes = [], []
        for cand, inc, (rlo, rhi, blo, bhi, k), top in rounds:
            # a row with no cell at its threshold has cv < bv and keeps its
            # incumbent. Tuple order is the tie rule: a cand that matches
            # inc in (rho, beta, alpha2) has cv >= bv here, so is not smaller
            cv, bv = cand[3], inc[3]
            if cv > bv + _TIE_TOL or (cv >= bv and cand < inc):
                inc = cand
            best.append(inc)
            # an axis whose box has shrunk to a point counts once
            k += (steps_rho if rhi > rlo else 1) * (n_beta if bhi > blo else 1)
            # shrink the box around the incumbent, clipped to the full bounds
            half = 0.5 * (rhi - rlo) * shrink
            rlo, rhi = inc[0] - half, inc[0] + half
            half = 0.5 * (bhi - blo) * shrink
            blo, bhi = inc[1] - half, inc[1] + half
            boxes.append(
                (rlo if rlo > 0.0 else 0.0, rhi if rhi < top else top,
                 blo if blo > 0.0 else 0.0, bhi if bhi < 1.0 else 1.0, k)
            )
        history.append(best)
    return list(zip(best, [box[4] for box in boxes], zip(*history)))


def _axes(lo, hi, n: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], n) for every row i of the float sequences
    lo and hi, bit for bit, by linspace's own arithmetic. A row with
    hi == lo holds lo n times; a search of that row alone would evaluate
    it once."""
    if n == 1:
        return np.array(lo)[:, np.newaxis]
    step = [(b - a) / (n - 1) for a, b in zip(lo, hi)]
    # lo and step as (rows, 1) columns, converted in one call
    lo_step = np.array((lo, step))[:, :, np.newaxis]
    pos = np.arange(n, dtype=float)
    y = pos * lo_step[1]
    if 0.0 in step:
        # linspace divides first when the step is 0 or underflows
        zero = lo_step[1, :, 0] == 0.0
        delta = np.array([b - a for a, b in zip(lo, hi)])
        y[zero] = pos / (n - 1) * delta[zero, np.newaxis]
    y += lo_step[0]
    y[:, -1] = hi
    return y


def _solve_all(
    scheme: str, problems, grid: GridSpec | None
) -> list[tuple[float, float, float, float]]:
    """(rho, beta, alpha2, value) of one scheme for every (channel, gamma)
    problem. gdpc and dpc run one batched box search; for the exact region
    beta is the cooperative split beta3 and rho = alpha2 = 0."""
    if scheme in ("gdpc", "dpc"):
        return [inc for inc, _, _ in _search(problems, grid, scheme == "dpc")]
    splits = [max_beta_nostate(c, gamma) for c, gamma in problems]
    return [(0.0, beta, 0.0, value) for beta, value in splits]


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
    Of points with equal r1 and r02 the smallest gamma is kept.
    """
    _check_scheme(scheme)
    gammas = sorted({_require_unit("gamma", g) for g in gamma_grid})
    if not gammas:
        raise OutOfRange("gamma_grid must hold at least one gamma")
    solved = _solve_all(scheme, [(c, gamma) for gamma in gammas], grid)
    p1, _, _, n1, _ = _scaled(c)[0]
    # r02 needs no clamp: it is a clamped grid value or a cap_c value
    pts = [
        FrontierPoint(g, rho, beta, alpha2, RatePoint(_private_rate(p1, n1, g), r02))
        for g, (rho, beta, alpha2, r02) in zip(gammas, solved)
    ]
    kept: list[FrontierPoint] = []
    best_later = -math.inf
    for p in reversed(pts):
        if p.rate.r02 >= best_later:
            if kept and kept[-1].rate.r1 == p.rate.r1:
                # gammas too close to move r1 (a subnormal gamma next to
                # 0): the smaller gamma reaches at least the same r02
                kept.pop()
            kept.append(p)
            best_later = p.rate.r02
    kept.reverse()
    return Frontier(scheme=scheme, points=tuple(kept))


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One SNR sample: n1 implied by the SNR, the relay-channel sum rate
    (None when the point violates degradedness and was skipped)."""

    snr_db: float
    n1: float
    rate: float | None

    @property
    def skipped(self) -> bool:
        return self.rate is None


def _snr_n1(p1: float, snr: float) -> float:
    """The n1 = p1/10**(snr/10) an SNR in dB sets, which must be a
    positive finite power."""
    try:
        n1 = p1 / 10.0 ** (snr / 10.0)
    except ArithmeticError:  # 10**(snr/10) overflows, or underflows to 0
        n1 = math.nan
    if not 0.0 < n1 < math.inf:
        raise OutOfRange(
            f"snr_db {snr} gives n1 = p1/10**(snr_db/10) = {n1}, not a positive finite power"
        )
    return n1


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
    _check_scheme(scheme)
    points: list[tuple[float, float, ChannelParams | None]] = []
    for snr in snr_db_list:
        snr = _require_real("snr_db", snr)
        n1 = _snr_n1(base.p1, snr)
        # n1 reaching n2 is not a valid channel: the row is skipped
        ch = ChannelParams(base.p1, base.p2, base.q, n1, base.n2) if n1 < base.n2 else None
        points.append((snr, n1, ch))
    if not points:
        raise OutOfRange("snr_db_list must hold at least one SNR")
    kept = [(ch, 0.0) for _, _, ch in points if ch is not None]
    rates = iter([value for *_, value in _solve_all(scheme, kept, grid)])
    return tuple(
        SweepRow(snr_db=snr, n1=n1, rate=None if ch is None else next(rates))
        for snr, n1, ch in points
    )
