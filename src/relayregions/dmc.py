"""Brute-force evaluation of the achievable regions on tiny discrete
alphabets.

The Gaussian modules check the closed forms against a covariance oracle;
this module checks the region formulas themselves, with no Gaussian
structure anywhere. A channel is a conditional pmf p(y1,y2|x1,x2,s) on
alphabets of size at most 4, an input strategy is a joint pmf over
(s,u1,u2,x1,x2), and every information term is evaluated by exhaustive
summation. dmc_maximize enumerates all strategies whose conditional
probabilities are multiples of 1/denominator, which is crude but exact:
an oracle, not a solver.

Each bound is written once, as signed conditional mutual informations,
in ``model._TERMS``, which the Gaussian oracle reads too, and compiled
once into _PROGRAMS: its distinct terms and its rows by term id
(``model._program``). A joint is linear in its strategy, so _plan
compiles each marginal a program reads on a spec, once one-symbol axes
are dropped, into a matrix, and a term that the chain rule makes 0
(_vanishes) into +0.0. One evaluator reads a plan: _screen forms each
marginal of a stack of strategies as one matrix product, without
building their joints, and takes one entropy per marginal. The
evaluators run it on a batch of one, and dmc_maximize on chunks drawn
from a composition table built in numpy, with a tie pool of at most
twice the distinct keys near the best plus a chunk. Rates agree with
discrete_cmi's up to rounding only. Rates within
``model._TIE_TOL`` (1e-12 bits) of each other tie, and ties go to the
lexicographically smallest flattened pmf, so rounding noise does not
pick the answer. discrete_cmi evaluates one term of a joint the caller
builds.

Axis order everywhere: (s, u1, u2, x1, x2, y1, y2); the channel tensor
is indexed [s][x1][x2][y1][y2].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _TERMS, _TIE_TOL, OutOfRange, RatePoint, _expression, _program, _require_count,
    _require_reals, _unchecked,
)

AXES = ("s", "u1", "u2", "x1", "x2", "y1", "y2")
_PMF_TOL = 1e-12
_MAX_ALPHABET = 4
# joint cells (candidates x |s,u1,u2,x1,x2,y1,y2|) one search may screen,
# though no joint is built: this bounds its work, its composition table
# (per_state x cells <= it) and its _plan, whose unit strategies times
# joint cells are at most 20,736 (36 x 576, at sizes (1,1,3,3,4,4,4))
_MAX_CELLS = 2**26
# joint cells (candidates x |s,u1,u2,x1,x2,y1,y2|) screened at once. A
# chunk holds its strategies, its entropies and one marginal with its
# p log p at a time, each no larger than the chunk's joints would be: a
# pipes chunk at denominator 8 peaks near 400 KB, not the 512 KiB of its
# joints
_CHUNK_CELLS = 2**16


def _check_pmf(name: str, p: np.ndarray, axis=None) -> None:
    if (p < 0).any():
        raise OutOfRange(f"{name} has negative entries")
    sums = p.sum() if axis is None else p.sum(axis=axis)
    # np.allclose(sums, 1.0, rtol=0.0, atol=_PMF_TOL) without its overhead:
    # nan and +-inf fail the comparison
    if not (np.abs(sums - 1.0) <= _PMF_TOL).all():
        raise OutOfRange(f"{name} must sum to 1 within {_PMF_TOL}")


@dataclass(frozen=True, slots=True, eq=False)
class DmcSpec:
    """A discrete channel: alphabet sizes for (s,u1,u2,x1,x2,y1,y2), the
    interference pmf p_s, stored divided by its sum once checked unless
    that sum lies within 2**-51 of 1 (so a sum of exactly 1, or a stored
    p_s, keeps its bits), and the channel law p(y1,y2|x1,x2,s). Each
    entry of p_s and channel meets the number rule (``_require_reals``):
    a bool, text or complex entry, or a ragged nesting, is OutOfRange."""

    sizes: tuple[int, ...]
    p_s: np.ndarray
    channel: np.ndarray

    def __post_init__(self) -> None:
        if len(self.sizes) != len(AXES):
            raise OutOfRange(f"sizes must list {len(AXES)} cardinalities {AXES}")
        for name, n in zip(AXES, self.sizes):
            if _require_count(f"|{name}|", n, 1) > _MAX_ALPHABET:
                raise OutOfRange(f"|{name}| must be at most {_MAX_ALPHABET}, got {n!r}")
        ns, nu1, nu2, nx1, nx2, ny1, ny2 = self.sizes
        p_s = _require_reals("p_s", self.p_s)
        channel = _require_reals("channel", self.channel)
        if p_s.shape != (ns,):
            raise OutOfRange(f"p_s must have shape ({ns},), got {p_s.shape}")
        if channel.shape != (ns, nx1, nx2, ny1, ny2):
            raise OutOfRange(
                "channel must be indexed [s][x1][x2][y1][y2] with shape "
                f"{(ns, nx1, nx2, ny1, ny2)}, got {channel.shape}"
            )
        _check_pmf("p_s", p_s)
        _check_pmf("channel rows", channel, axis=(3, 4))
        # one division lands within 2**-51 of 1, so a stored p_s is a fixed
        # point: ``dataclasses.replace`` of a spec keeps its bits
        if abs((total := p_s.sum()) - 1.0) > 2.0**-51:
            p_s /= total
        p_s.flags.writeable = False
        channel.flags.writeable = False
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "p_s", p_s)
        object.__setattr__(self, "channel", channel)

    def __reduce__(self):  # copy, deepcopy and pickle
        # restored as stored: arrays read-only, checks not run again
        return _unchecked, (type(self), self.sizes, self.p_s, self.channel)


@dataclass(frozen=True, slots=True, eq=False)
class AuxJoint:
    """A joint strategy pmf over (s,u1,u2,x1,x2).

    Build a strategy for a spec from ``spec.p_s``, which is stored
    normalised, as ``spec.p_s[:, None] * cond`` with cond's rows summing
    to 1: a caller's own p_s at the edge of the 1e-12 band can make the
    product miss this sum check. Its entries meet the number rule
    (``_require_reals``), as a spec's do."""

    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = _require_reals("aux joint", self.pmf)
        if pmf.ndim != 5:
            raise OutOfRange(f"aux joint must be 5-dimensional, got shape {pmf.shape}")
        _check_pmf("aux joint", pmf)
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def __reduce__(self):  # copy, deepcopy and pickle
        return _unchecked, (type(self), self.pmf)


def _check_aux(d: DmcSpec, a: AuxJoint) -> None:
    """The aux joint must fit the spec's alphabets, and its interference
    marginal must reproduce d.p_s: the encoder chooses inputs given s, it
    does not choose s."""
    if a.pmf.shape != tuple(d.sizes[:5]):
        raise OutOfRange(f"aux joint shape {a.pmf.shape} does not match spec sizes {d.sizes[:5]}")
    if np.abs(a.pmf.sum(axis=(1, 2, 3, 4)) - d.p_s).max() > _PMF_TOL:
        raise OutOfRange("aux joint marginal over s must equal p_s")


def discrete_cmi(joint: np.ndarray, axes, set_a, set_b, set_c=()) -> float:
    """I(A;B|C) in bits on a joint pmf with one unique name per axis,
    with 0 log 0 := 0, clamped at 0 against rounding noise, and exactly
    +0.0 where the chain rule makes it 0 (_vanishes). The joint's entries
    meet the number rule (``_require_reals``). A spec d's full joint under
    a strategy a is ``a.pmf[..., None, None] * d.channel[:, None, None]``,
    indexed [s][u1][u2][x1][x2][y1][y2] (AXES)."""
    joint = _require_reals("joint", joint)
    axes = tuple(axes)
    if joint.ndim != len(axes):
        raise OutOfRange(f"joint has {joint.ndim} axes but {len(axes)} names given")
    if len(set(axes)) != len(axes):
        raise OutOfRange(f"axis names must be unique, got {axes}")
    _check_pmf("joint", joint)
    set_a, set_b, set_c = tuple(set_a), tuple(set_b), tuple(set_c)
    for name in (*set_a, *set_b, *set_c):
        if name not in axes:
            raise OutOfRange(f"unknown axis {name!r}, have {axes}")
    groups = (set(set_a), set(set_b), set(set_c))
    if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
        raise OutOfRange("the three axis sets must be disjoint")

    def h(keep: set) -> float:
        drop = tuple(i for i, name in enumerate(axes) if name not in keep)
        p = joint.sum(axis=drop).ravel()
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    wide = {name for name, k in zip(axes, joint.shape) if k > 1}
    if _vanishes(*(group & wide for group in groups)):
        return 0.0
    a, b, c = groups
    return max(0.0, h(a | c) + h(b | c) - h(c) - h(a | b | c))


# each bound of _TERMS compiled once (model._program), with its count of r1 rows
_PROGRAMS = {
    bounds: (_program(rates["r1"] + rates["r02"]), len(rates["r1"]))
    for bounds, rates in _TERMS.items()
}


def _combine(program: tuple, cmi) -> tuple:
    """(r1, r02) of one _PROGRAMS entry before the rate clamp; cmi(a, b, c)
    is called once per distinct term, in first-use order."""
    (terms, rows), n_r1 = program
    values = [cmi(*term) for term in terms]
    rates = [_expression(e, values) for e in rows]
    return functools.reduce(np.minimum, rates[:n_r1]), functools.reduce(np.minimum, rates[n_r1:])


def _vanishes(a, b, c) -> bool:
    """The chain rule: I(A;B|C) is exactly 0 where A or B, once its
    one-symbol axes are dropped, lies inside C, so such a term is +0.0,
    not the rounding residue of its four entropies."""
    return a <= c or b <= c


def _rates(plan: tuple, pmf: np.ndarray) -> RatePoint:
    """The (r1, r02) of a _plan on one aux joint, screened as a batch of
    one. The joint is not checked: the factors' rounding can compound
    past the tolerance each one passed."""
    r1, r02 = _screen(plan, pmf[None])
    return RatePoint.clamped(r1[0], r02[0])


def eval_informed_both(d: DmcSpec, a: AuxJoint) -> RatePoint:
    """Achievable pair when source and relay both know the interference:
    every bound conditions on s, and no binning penalty appears."""
    _check_aux(d, a)
    return _rates(_plan(d, _PROGRAMS["informed-both"]), a.pmf)


def eval_informed_source(d: DmcSpec, a: AuxJoint) -> RatePoint:
    """Achievable pair when only the source knows the interference: each
    mutual information pays the binning penalty I(aux; s | ...)."""
    _check_aux(d, a)
    return _rates(_plan(d, _PROGRAMS["informed-source"]), a.pmf)


def _plan(d: DmcSpec, program: tuple) -> tuple:
    """A _PROGRAMS entry compiled for d's screen, as (matrices, terms,
    program). A joint is linear in its strategy, so each marginal the
    program reads, keyed by its kept axes of more than one symbol, is a
    matrix whose column j is that marginal of the j-th unit strategy (by
    flattened (s,u1,u2,x1,x2) index), made by the joint reduction of
    the identity batch. terms maps each term of the program to the keys
    of its four entropies, or to None where it _vanishes."""
    m = math.prod(d.sizes[:5])
    # the joints of the m unit strategies, indexed [s][u1]...[y2][strategy]
    joint = np.eye(m).reshape(*d.sizes[:5], 1, 1, m) * d.channel[:, None, None, ..., None]
    wide = frozenset(name for name, k in zip(AXES, d.sizes) if k > 1)
    matrices, terms = {}, {}
    for term in program[0][0]:
        a, b, c = (frozenset(axes) & wide for axes in term)
        terms[term] = None if _vanishes(a, b, c) else (a | c, b | c, c, a | b | c)
        for keep in terms[term] or ():
            if keep not in matrices:
                drop = tuple(i for i, name in enumerate(AXES) if name not in keep)
                matrices[keep] = joint.sum(axis=drop).reshape(-1, m)
    return matrices, terms, program


def _screen(plan: tuple, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (r1, r02) of a _plan on aux joints stacked on a leading
    axis, each term and each rate clamped at 0. Each marginal is one
    matrix product of the batch's flattened strategies, so no joint is
    built. Sums run in another order than in discrete_cmi, and a
    candidate's products in a batch of one may run in another order than
    in a larger batch, so rates agree up to rounding only."""
    matrices, terms, program = plan
    flat = pmf.reshape(len(pmf), -1).T

    def entropy(marg: np.ndarray) -> np.ndarray:
        # marg indexed [cell][candidate], so the sum adds contiguous rows;
        # p log2 p in place, with 0 log 0 := 0 (a masked log2 runs 2x slower)
        logs = np.where(marg > 0.0, marg, 1.0)
        marg *= np.log2(logs, out=logs)
        return -marg.sum(axis=0)

    entropies = {keep: entropy(matrix @ flat) for keep, matrix in matrices.items()}

    def cmi(*term):
        if terms[term] is None:
            return np.zeros(len(pmf))
        ac, bc, c, abc = (entropies[keep] for keep in terms[term])
        return np.maximum(ac + bc - c - abc, 0.0)

    r1, r02 = _combine(program, cmi)
    return np.maximum(r1, 0.0), np.maximum(r02, 0.0)


def _compositions(total: int, cells: int) -> np.ndarray:
    """All nonneg integer vectors of length cells summing to total, in
    lexicographic order, as floats, built column by column in place: a
    prefix with r units left is followed by 0, 1, ..., r. A large table
    peaks at about 1.45 times its own size (tracemalloc: 16 over 8
    cells, the 245,157 rows of pipes at denominator 16)."""
    out = np.empty((math.comb(total + cells - 1, cells - 1), cells))
    ramp = np.arange(total + 1)
    left = ramp[-1:]  # units left after each distinct prefix
    for col in range(cells - 1):
        parent, value = (left[:, None] >= ramp).nonzero()
        for j in range(col):  # the earlier columns follow their prefix
            out[: parent.size, j] = out[:, j][parent]
        out[: parent.size, col] = value
        left = left[parent]
        left -= value
    out[:, -1] = left
    return out


@dataclass(frozen=True, slots=True)
class DmcOptResult:
    """Outcome of ``dmc_maximize``: ``best`` is the winning strategy,
    ``value`` its rates as ``eval_informed_both`` or
    ``eval_informed_source`` return them, ``evaluations`` the number of
    candidate strategies screened, and ``bounds`` the region searched
    ("informed-both" or "informed-source")."""

    best: AuxJoint
    value: RatePoint
    evaluations: int
    bounds: str


def dmc_maximize(
    d: DmcSpec, bounds: str = "informed-source", denominator: int = 8, objective: str = "r02"
) -> DmcOptResult:
    """Exhaustively search strategies whose per-state conditional pmfs
    have entries in multiples of 1/denominator.

    Maximizes the chosen coordinate (r02 by default). Rates within
    model._TIE_TOL (1e-12 bits) of each other tie, so rounding noise
    does not pick the answer: of the candidates whose primary rate lies
    within that width of the best one, those whose other rate lies within
    it of the best among them tie, and of these the lexicographically
    smallest flattened pmf wins. The answer is independent of
    enumeration order.

    A search of more than _MAX_CELLS joint cells (candidates times the
    cells of a joint) raises OutOfRange before anything is built.
    Candidates are enumerated in chunks of at most _CHUNK_CELLS joint
    cells from the _compositions table, and _screen computes a chunk's
    rates at once through the search's _plan, built once after the
    budget check. No candidate is checked: its state marginal is a sum of
    fl(k/denominator * p_s[s]) whose k/denominator sum to 1 exactly, so it
    lies within about 6e-14 of p_s[s], and the spec's p_s sums to 1 up to
    rounding, so each candidate is a valid AuxJoint by construction. A pool
    keeps the keys and indices of the candidates within the tie width of
    the best primary rate so far. Once it holds more than a chunk and
    twice its size at its last compaction, it keeps one candidate per
    exact key pair, the smallest flattened pmf: candidates with equal keys
    tie or drop out together, so no other one can win. So between chunks
    the pool holds at most twice the distinct keys near the best, plus a
    chunk. value is the winner's rates screened alone, as eval_informed_*
    return them. evaluations counts the candidates screened.
    """
    if not isinstance(bounds, str) or bounds not in _TERMS:
        raise OutOfRange(f"bounds must be one of {tuple(_TERMS)}, got {bounds!r}")
    if not isinstance(denominator, (int, np.integer)) or denominator not in (4, 8, 16):
        raise OutOfRange(f"denominator must be the integer 4, 8 or 16, got {denominator!r}")
    if not isinstance(objective, str) or objective not in ("r02", "r1"):
        raise OutOfRange(f"objective must be 'r02' or 'r1', got {objective!r}")
    program = _PROGRAMS[bounds]
    # a np.str_ would keep its repr in the result
    bounds, denominator = str(bounds), int(denominator)
    ns, nu1, nu2, nx1, nx2 = d.sizes[:5]
    cells = nu1 * nu2 * nx1 * nx2
    per_state = math.comb(denominator + cells - 1, cells - 1)
    total = per_state**ns
    if total * math.prod(d.sizes) > _MAX_CELLS:
        raise OutOfRange(
            f"{total} candidate strategies of {math.prod(d.sizes)} joint cells each "
            f"exceed the budget of {_MAX_CELLS} joint cells"
        )
    plan = _plan(d, program)
    cond = _compositions(denominator, cells)
    cond /= denominator

    def strategies(index: np.ndarray) -> np.ndarray:
        # itertools.product order over the per-state composition indices
        combos = np.stack(np.unravel_index(index, (per_state,) * ns), axis=1)
        return (cond[combos] * d.p_s[:, None]).reshape(-1, ns, nu1, nu2, nx1, nx2)

    step = max(1, _CHUNK_CELLS // math.prod(d.sizes))
    top = -math.inf
    # the pool: one column of (primary, secondary) rates per candidate index
    keys, ids = np.empty((2, 0)), np.empty(0, dtype=np.int64)
    kept = 0  # the pool's size after its last compaction
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        rates = _screen(plan, strategies(index))
        chunk = np.stack(rates[::-1] if objective == "r02" else rates)
        top = max(top, float(chunk[0].max()))
        keys, ids = np.hstack([keys, chunk]), np.concatenate([ids, index])
        near = keys[0] >= top - _TIE_TOL
        keys, ids = keys[:, near], ids[near]
        if ids.size > max(step, 2 * kept):
            flat = strategies(ids).reshape(ids.size, -1)
            order = np.lexsort((*flat.T[::-1], keys[1], keys[0]))
            keys, ids = keys[:, order], ids[order]
            first = np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]
            keys, ids = keys[:, first], ids[first]
            kept = ids.size
    tied = strategies(ids[keys[1] >= keys[1].max() - _TIE_TOL])
    best = tied[np.lexsort(tied.reshape(len(tied), -1).T[::-1])[0]]
    return DmcOptResult(AuxJoint(best), _rates(plan, best), total, bounds)


def binary_pipes_spec() -> DmcSpec:
    """Noiseless binary test channel: y1 copies x1, y2 copies x2, a
    single interference symbol and a singleton u1 alphabet."""
    eye = np.eye(2)
    # p(y1,y2|x1,x2) = [x1 == y1] * [x2 == y2]
    channel = (eye[:, None, :, None] * eye[None, :, None, :])[None]
    return DmcSpec(sizes=(1, 1, 2, 2, 2, 2, 2), p_s=np.array([1.0]), channel=channel)
