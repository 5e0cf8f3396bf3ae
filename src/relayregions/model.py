"""Domain types and validation for the degraded Gaussian relay broadcast
channel with additive interference known at the encoder.

Geometry: a source (power budget p1) transmits to a nearby user and a far
user. The nearby user also acts as a relay with power budget p2, helping
only the far user. The relay branch sees Gaussian noise of power n1, the
far branch sees the relay's observation plus independent extra noise, for
a total of n2 > n1. An i.i.d. Gaussian interference of power q rides on
top of the source input.

Conventions shared by every module:

* powers and noise variances are linear, never dB;
* rates are bits per channel use, log base 2;
* an analytic rate expression that comes out negative, or lands on a
  0/0 boundary (vanishing signal layers), is exposed as exactly 0.0;
* rates depend on ratios of powers only: a channel's nonzero powers span
  at most 2**500 (``ChannelParams``), and every computation runs on them
  times the even power of two that centres them (``_scaled``), where no
  term leaves the float range. A channel scales them once, when built.

All types are frozen dataclasses that check their invariants when they
are built, so a value of one is valid and safe to share between workers.
The package's value types keep their fields in slots (``slots=True``),
so a caller who keeps many reports or frontier points pays no dict per
object. Only ``ChannelParams`` keeps a ``__dict__``, as it stores its
scaled powers beside its fields and ``slots=True`` makes a slot of each
field only (a private field would join ``fields``, ``astuple`` and
``replace``). A copied or unpickled value with arrays, and a covariance
that a builder or the Monte-Carlo draw assembles, is built by
``_unchecked``: its fields set, its arrays read-only, nothing checked.
Every public float argument is read by one rule (``_require_real``), so
a field is stored as a Python float, -0.0 as +0.0, and a float32 passed
in computes as a float. Every entry of a public array argument is read
by the same rule (``_require_reals``), which stores the array as a new
float array. The one condition
no type can hold, the channel-coupled bound on rho, is checked by
``validate_gdpc``.

``_TERMS`` states both achievable regions once. ``_program`` compiles a
bound or a region table, at import, into its distinct terms and its rows
of (sign, term id) pairs, and ``_expression`` is the one evaluator of
such a row, in ``dmc`` and in ``gaussian``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class RelayRegionsError(Exception):
    """Base class for every error raised by this package."""


class OutOfRange(RelayRegionsError, ValueError):
    """An input lies outside its domain, or a workload exceeds its budget."""


class SingularSubmatrix(RelayRegionsError, ArithmeticError):
    """A determinant needed by the mutual-information formula vanished
    even after redundant labels were eliminated."""


def _require_real(name: str, value) -> float:
    """``value`` as a Python float (-0.0 as +0.0) if it is a ``numbers.Real``
    in float range and no bool: a numpy scalar is one (``np.bool_`` is not),
    text is not. A float passes on one isinstance call."""
    if isinstance(value, float) or not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value) + 0.0  # exact for every float but -0.0
        except OverflowError:  # an integer past float range
            pass
    raise OutOfRange(f"{name} must be a real number in float range, got {value!r}")


def _require_reals(name: str, value, read=lambda v: v) -> np.ndarray:
    """``value`` as a new float array. A float or integer ndarray passes by
    value (-0.0 as +0.0). Any other value is walked through its lists,
    tuples and ndarrays, and ``_require_real`` reads each entry after
    ``read`` (the CLI's text step): a bool, text, None or complex entry is
    OutOfRange, and so is a ragged nesting or one more than 32 levels deep
    (numpy 1's limit), which numpy or Python would raise as a ValueError
    or a RecursionError."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return np.add(value, 0.0, dtype=float)  # exact for every float but -0.0

    def walk(v, depth: int):
        if isinstance(v, np.ndarray):  # of another dtype, or inside a list
            v = v.tolist()
        if not isinstance(v, (list, tuple)):
            return _require_real(name, read(v))
        if depth == 32:
            raise OutOfRange(f"{name} nests too deeply to read")
        return [walk(x, depth + 1) for x in v]

    nested = walk(value, 0)
    try:
        return np.array(nested, dtype=float)
    except ValueError:  # numpy's error for a ragged nesting
        raise OutOfRange(f"{name} must nest as a regular array, got a ragged one") from None


def _require_finite(name: str, value) -> float:
    if not math.isfinite(x := _require_real(name, value)):
        raise OutOfRange(f"{name} must be finite, got {x!r}")
    return x


def _require_unit(name: str, value) -> float:
    """A real number in [0, 1]; nan and +-inf fail the comparison."""
    if not 0.0 <= (x := _require_real(name, value)) <= 1.0:
        raise OutOfRange(f"{name} must lie in [0, 1], got {x}")
    return x


def _require_tol(value) -> float:
    """An oracle report's pass tolerance: a finite real number > 0."""
    if not 0.0 < (tol := _require_real("tol", value)) < math.inf:
        raise OutOfRange(f"tol must be finite and > 0, got {tol!r}")
    return tol


def _require_count(name: str, value: int, floor: int) -> int:
    """``value`` as an int if it is an integer (a numpy one included, a
    bool not) of at least ``floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        raise OutOfRange(f"{name} must be an integer >= {floor}, got {value!r}")
    return int(value)


def _unchecked(cls, *values):
    """A cls, a value type whose ``__slots__`` are its fields, holding
    values as its fields, in order, each array made read-only, and nothing
    checked: a copy of a value whose checks held when it was built, or one
    that holds them by construction."""
    value = object.__new__(cls)
    for name, x in zip(cls.__slots__, values):
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
        object.__setattr__(value, name, x)
    return value


@dataclass(frozen=True)
class ChannelParams:
    """Channel-side constants: powers p1, p2, interference power q and
    noise powers n1 < n2."""

    p1: float
    p2: float
    q: float
    n1: float
    n2: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "q", "n1", "n2"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("p1", "n1", "n2"):
            if (v := getattr(self, name)) <= 0:
                raise OutOfRange(f"{name} must be > 0, got {v}")
        for name in ("p2", "q"):
            if (v := getattr(self, name)) < 0:
                raise OutOfRange(f"{name} must be >= 0, got {v}")
        if self.n1 >= self.n2:
            raise OutOfRange(
                f"need n1 < n2 (far branch noisier), got n1={self.n1}, n2={self.n2}"
            )
        # the smallest nonzero and the largest of the five powers
        lo = min(self.p1, self.n1, self.p2 or self.p1, self.q or self.p1)
        hi = max(self.p1, self.p2, self.q, self.n2)
        e_lo, e_hi = math.frexp(lo)[1], math.frexp(hi)[1]
        if e_hi - e_lo > _MAX_SPAN:
            raise OutOfRange(
                f"the nonzero powers may span at most 2**{_MAX_SPAN} (about 1505 dB), "
                f"got {lo} to {hi}"
            )
        # the scaled powers, read by every computation (``_scaled``); not a
        # field, so eq, hash and repr stay the five powers
        k = -(e_lo + e_hi) // 4 * 2
        powers = tuple(math.ldexp(x, k) for x in (self.p1, self.p2, self.q, self.n1, self.n2))
        object.__setattr__(self, "_scaling", (powers, k))


# The widest span of binary exponents of a channel's nonzero powers,
# about 1505 dB. Centred, they lie in [2**-252, 2**250), so the widest
# product of the closed forms (degree 4, B^2 - 4AC) stays below 2**1011.
_MAX_SPAN = 500


def _scaled(c: ChannelParams) -> tuple[tuple[float, float, float, float, float], int]:
    """(p1, p2, q, n1, n2) times 2**k, and k: the even k that centres the
    binary exponents of the smallest nonzero and the largest power, found
    once when c was built. In the normal range an even power of two keeps
    every bit, sqrt included."""
    return c._scaling


def rho_upper_bound(c: ChannelParams, gamma: float) -> float:
    """Largest admissible interference-cancellation fraction rho for a
    given private-power split gamma: min(1, q / ((1-gamma) p1)), and 0
    when the denominator or q vanishes. Found on the scaled powers, where
    (1-gamma) p1 cannot underflow."""
    p1, _, q, _, _ = _scaled(c)[0]
    gbar_p1 = (1.0 - _require_unit("gamma", gamma)) * p1
    if gbar_p1 <= 0.0:
        return 0.0
    return min(1.0, q / gbar_p1)


@dataclass(frozen=True, slots=True)
class GdpcParams:
    """Coding knobs of the inner bound when only the source knows the
    interference.

    gamma   fraction of p1 spent on the private layer
    rho     fraction of the remaining power spent cancelling interference
    beta    correlation between the binning codeword and the relay input
    alpha2  inflation factor of the common binning layer
    """

    gamma: float
    rho: float
    beta: float
    alpha2: float

    def __post_init__(self) -> None:
        for name in ("gamma", "rho", "beta", "alpha2"):
            object.__setattr__(self, name, _require_unit(name, getattr(self, name)))


def validate_gdpc(c: ChannelParams, g: GdpcParams) -> GdpcParams:
    """Check the channel-coupled bound on rho and return ``g``.

    rho may not exceed min(1, q/((1-gamma) p1)), which is 0 when
    (1-gamma) p1 = 0 or q = 0: there is nothing to cancel, and as
    GdpcParams holds rho >= 0, rho must then be exactly 0. Every other
    condition is held by the types: a ChannelParams or GdpcParams is
    valid because it was constructed. It runs once where a caller's pair
    enters: in ``gdpc_rates``, ``build_cov_informed_source`` and
    ``verify_gdpc``.
    """
    if g.rho > (bound := rho_upper_bound(c, g.gamma)):
        raise OutOfRange(f"rho must be <= {bound} for this channel, got {g.rho}")
    return g


@dataclass(frozen=True, slots=True)
class InformedBothParams:
    """Power-split knobs of the construction where source and relay both
    know the interference: gamma for the private layer, beta for the
    fresh-versus-cooperative split of the common power."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("gamma", "beta"):
            object.__setattr__(self, name, _require_unit(name, getattr(self, name)))


@dataclass(frozen=True, slots=True)
class RatePoint:
    """An achievable pair: private rate r1 to the nearby user and sum
    rate r02 (common plus far-user rate), both in bits per channel use."""

    r1: float
    r02: float

    def __post_init__(self) -> None:
        for name in ("r1", "r02"):
            if not 0.0 <= (v := _require_real(name, getattr(self, name))) < math.inf:
                raise OutOfRange(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    @classmethod
    def clamped(cls, r1: float, r02: float) -> "RatePoint":
        """Build a RatePoint applying the negative-to-zero convention.

        NaN (a 0/0 boundary of the analytic expressions) also maps to 0.
        """
        return cls(_clamp_rate(r1), _clamp_rate(r02))


# rates within this many bits of the best count as ties, in every search:
# the alpha2 kernel, the box search and the DMC search
_TIE_TOL = 1e-12


def _clamp_rate(x: float) -> float:
    """The rate clamp of a real number: nan, a negative and -0.0 read +0.0."""
    return x if (x := _require_real("a rate", x)) > 0.0 else 0.0


SCHEMES = ("gdpc", "dpc", "informed-both", "nostate-outer")


def _check_scheme(scheme: str) -> str:
    """The scheme as a plain ``str`` (a ``np.str_`` would keep its repr)."""
    if not isinstance(scheme, str) or scheme not in SCHEMES:
        raise OutOfRange(f"unknown scheme {scheme!r}, want one of {SCHEMES}")
    return str(scheme)


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One frontier sample: the power split gamma, the optimizing knobs
    (rho and alpha2 are 0 for schemes that do not use them) and the rates."""

    gamma: float
    rho: float
    beta: float
    alpha2: float
    rate: RatePoint


@dataclass(frozen=True, slots=True)
class Frontier:
    """A rate-region boundary traced over gamma for one scheme.

    Points run with r1 strictly increasing and r02 non-increasing; the
    optimizer discards dominated points before construction.
    """

    scheme: str
    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", _check_scheme(self.scheme))
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.rate.r1 <= prev.rate.r1:
                raise OutOfRange("frontier r1 coordinates must strictly increase")
            if cur.rate.r02 > prev.rate.r02:
                raise OutOfRange("frontier r02 coordinates must be non-increasing")


# Both achievable regions, stated once on the axes (s, u1, u2, x1, x2, y1,
# y2) of the discrete channel: ``dmc`` sums them out, ``gaussian`` reads
# them off each construction's covariance. Each bound is its two rates. A
# rate is the min over its expressions; an expression is its first term
# I(a; b | c) plus (+1) or minus (-1) the others, in order.
_TERMS = {
    "informed-both": {
        "r1": (((+1, ("x1",), ("y1",), ("s", "u1", "x2")),),),
        "r02": (
            ((+1, ("u2",), ("y1",), ("s", "u1")),),
            ((+1, ("u1", "u2"), ("y2",), ()), (-1, ("u1", "u2"), ("s",), ())),
        ),
    },
    "informed-source": {
        "r1": (
            ((+1, ("u1",), ("y1",), ("u2", "x2")), (-1, ("u1",), ("s",), ("u2", "x2"))),
        ),
        "r02": (
            ((+1, ("u2",), ("y1",), ("x2",)), (-1, ("u2",), ("s",), ("x2",))),
            ((+1, ("u2", "x2"), ("y2",), ()), (-1, ("u2",), ("s",), ("x2",))),
        ),
    },
}


def _program(exprs) -> tuple:
    """Compile expressions of ``_TERMS``' form: their distinct terms
    (a, b, c) in first-use order, and each expression as ((sign, id), ...),
    id the term's place in that order."""
    ids: dict = {}
    rows = tuple(
        tuple((sign, ids.setdefault((a, b, c), len(ids))) for sign, a, b, c in expr)
        for expr in exprs
    )
    return tuple(ids), rows


def _expression(expr, values):
    """The value of one compiled expression (``_program``), where values[i]
    is the value of term i: its first term plus or minus the others."""
    total = None
    for sign, i in expr:
        v = values[i]
        total = v if total is None else (total + v if sign > 0 else total - v)
    return total
