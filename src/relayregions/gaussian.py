"""Covariance-based verification of the closed-form rates.

Every rate expression in this package is a combination of mutual
informations between jointly Gaussian variables. This module rebuilds
those variables explicitly: it assembles the joint covariance matrix
implied by each coding construction and evaluates

    I(A; B | C) = 0.5*log2( det S_AC * det S_BC / (det S_C * det S_ABC) )

directly from labeled submatrices, without touching the closed forms.
Agreement between the two routes is what the verify_* reports certify.

The constructions deliberately contain deterministic linear relations
(the relay input is a scaled copy of a layer the source also sends), so
the naive four-determinant formula would hit singular submatrices.
Instead, one sequential Cholesky pass in label order gives each label's
residual variance r given the labels kept before it. A label with r at
most _RANK_TOL is almost surely a linear function of those and is
dropped, which leaves the mutual information unchanged. The log-det of
a kept block is the sum of its log r, so with C reduced first and A and
B each reduced on top of it, the formula collapses to

    I(A; B | C) = sum over kept b in B of
                  ( log r(b | C, earlier b) - log r(b | C, A, earlier b) ) / (2 ln 2)

that is, one extra pass of B's kept labels on top of C and A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, NamedTuple

import numpy as np

from .model import (
    ChannelParams,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    RelayRegionsError,
    validate_channel,
    validate_gdpc,
)
from .rates import cap_c, gdpc_coeffs

_LN2 = math.log(2.0)
_RANK_TOL = 1e-10
_PSD_TOL = -1e-10
_LOGDET_FLOOR = math.log(1e-300)


class SingularSubmatrix(RelayRegionsError, ArithmeticError):
    """A determinant needed by the mutual-information formula vanished
    even after redundant labels were eliminated."""


class ZeroStatePower(RelayRegionsError, ValueError):
    """The encoder-informed construction needs interference power q > 0."""


@dataclass(frozen=True, eq=False)
class CovarianceSystem:
    """A labeled joint Gaussian covariance over named scalar variables."""

    labels: tuple[str, ...]
    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise OutOfRange(f"sigma must be square, got shape {sigma.shape}")
        if len(self.labels) != sigma.shape[0]:
            raise OutOfRange(
                f"{len(self.labels)} labels for a {sigma.shape[0]}-dim sigma"
            )
        if len(set(self.labels)) != len(self.labels):
            raise OutOfRange("labels must be unique")
        if not np.isfinite(sigma).all():
            raise OutOfRange("sigma must be finite")
        if not (np.abs(sigma - sigma.T) <= 1e-9).all():
            raise OutOfRange("sigma must be symmetric")
        if float(np.linalg.eigvalsh(sigma).min(initial=0.0)) < _PSD_TOL:
            raise OutOfRange("sigma is not positive semidefinite")
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "labels", tuple(self.labels))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise OutOfRange(f"unknown label {label!r}, have {self.labels}") from None

    def var(self, label: str) -> float:
        i = self.index(label)
        return float(self.sigma[i, i])

    def cov(self, a: str, b: str) -> float:
        return float(self.sigma[self.index(a), self.index(b)])


def _extend(
    s: list[list[float]], factor: list, cand: list[int], tol: float = _RANK_TOL
) -> tuple[list, list[float]]:
    """Extend a Cholesky factor by the labels of cand, in order.

    factor is a list of (index, row) pairs: row holds that label's entries
    of the lower-triangular factor of the covariance of the labels before
    it, its last entry the square root of its residual variance. A
    candidate is kept iff its residual variance given every label kept
    before it exceeds tol. Returns the extended factor (a new list) and
    the log residual variance of each kept candidate; the log-det of a
    kept block is the sum of those logs over its labels.
    """
    factor = list(factor)
    logs = []
    for j in cand:
        s_j = s[j]  # sigma is symmetric: row j is column j
        ell: list[float] = []
        for k, row in factor:
            ell.append((s_j[k] - sum(map(mul, row, ell))) / row[-1])
        r = s_j[j] - sum(map(mul, ell, ell))
        if r > tol:
            ell.append(math.sqrt(r))
            factor.append((j, ell))
            logs.append(math.log(r))
    return factor, logs


def _unique_indices(cov: CovarianceSystem, labels: Iterable[str]) -> list[int]:
    out: list[int] = []
    for lab in labels:
        i = cov.index(lab)
        if i not in out:
            out.append(i)
    return out


def gaussian_cmi(
    cov: CovarianceSystem,
    set_a: Iterable[str],
    set_b: Iterable[str],
    set_c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    Labels appearing in C (or determined by C, or redundant within their
    own set) are eliminated by the residual-variance pass, so the
    deterministic relations of the constructions are handled exactly.
    An empty A or B after elimination gives 0. If a label survives in
    both A and B the information diverges and SingularSubmatrix is raised.
    """
    a_idx = _unique_indices(cov, set_a)
    b_idx = _unique_indices(cov, set_b)
    c_idx = _unique_indices(cov, set_c)
    return _cmi_from_sigma(cov.sigma, a_idx, b_idx, c_idx)


def _cmi_from_sigma(
    sigma: np.ndarray, a_idx: list[int], b_idx: list[int], c_idx: list[int]
) -> float:
    s = sigma.tolist()
    c_fac, c_logs = _extend(s, [], c_idx)
    a_fac, a_logs = _extend(s, c_fac, a_idx)
    b_fac, b_logs = _extend(s, c_fac, b_idx)
    if not a_logs or not b_logs:
        return 0.0
    b_kept = [j for j, _ in b_fac[len(c_fac):]]
    if any(j in b_kept for j, _ in a_fac[len(c_fac):]):
        raise SingularSubmatrix(
            "a non-degenerate label sits in both sets; mutual information diverges"
        )
    # B again, now after C and A: every pivot must stay positive
    _, ab_logs = _extend(s, a_fac, b_kept, tol=0.0)
    lc, la, lb, lab = sum(c_logs), sum(a_logs), sum(b_logs), sum(ab_logs)
    # the log-dets of C, A+C, B+C and A+B+C
    logdet_min = min(lc, lc + la, lc + lb, lc + la + lab)
    if len(ab_logs) < len(b_kept) or logdet_min <= _LOGDET_FLOOR:
        raise SingularSubmatrix(
            "singular covariance submatrix; eliminate dependent labels first"
        )
    val = (lb - lab) / (2.0 * _LN2)
    if val < 0.0:
        if val < -1e-9:
            raise SingularSubmatrix(
                f"mutual information evaluated to {val}; matrix too ill-conditioned"
            )
        return 0.0
    return val


def _assemble(labels: tuple[str, ...], mix: np.ndarray, variances) -> CovarianceSystem:
    """Covariance of labels = mix @ basis, basis independent with the
    given variances: sigma = mix diag(variances) mix^T (exactly PSD)."""
    sigma = (mix * np.asarray(variances, dtype=float)) @ mix.T
    return CovarianceSystem(tuple(labels), sigma)


def _check_powers(cov: CovarianceSystem, c: ChannelParams) -> CovarianceSystem:
    """Both inputs within their power budgets, up to rounding relative to
    the budget once it exceeds 1."""
    for label, power in (("X1", c.p1), ("X2", c.p2)):
        if cov.var(label) > power + 1e-9 * max(1.0, power):
            raise OutOfRange(
                f"{label} power {cov.var(label)} exceeds its budget {power}"
            )
    return cov


class InformedBothCoeffs(NamedTuple):
    """Derived constants of the both-informed construction."""

    p_coop: float
    p_fresh: float
    lam: float
    alpha1: float
    alpha2: float


def informed_both_coeffs(
    c: ChannelParams, p: InformedBothParams
) -> InformedBothCoeffs:
    """Layer powers and inflation factors of the both-informed scheme.

    The common power (1-gamma)*p1 splits into a fresh part beta*(1-gamma)*p1
    carried alone by the source and a cooperative part sent coherently with
    the relay, whose combined power is p_coop = (sqrt((1-beta)(1-gamma)p1)
    + sqrt(p2))^2. lam is the source's share of the cooperative codeword.
    """
    validate_channel(c)
    gbar_p1 = (1.0 - p.gamma) * c.p1
    p_coop = (math.sqrt((1.0 - p.beta) * gbar_p1) + math.sqrt(c.p2)) ** 2
    p_fresh = p.beta * gbar_p1
    lam = math.sqrt((1.0 - p.beta) * gbar_p1 / p_coop) if p_coop > 0.0 else 0.0
    den = p_coop + p_fresh + p.gamma * c.p1 + c.n2
    return InformedBothCoeffs(
        p_coop=p_coop,
        p_fresh=p_fresh,
        lam=lam,
        alpha1=p_coop / den,
        alpha2=p_fresh / den,
    )


def build_cov_informed_both(
    c: ChannelParams, p: InformedBothParams
) -> CovarianceSystem:
    """Joint covariance of the construction with the interference known
    at source and relay.

    Independent basis components: the interference S (power q), the
    cooperative innovation V1 (p_coop), the fresh innovation V2 (p_fresh),
    the private signal X1p (gamma*p1) and the two noises. Then

        U1 = alpha1*S + V1          (cooperative auxiliary)
        U2 = alpha2*S + V2          (fresh auxiliary)
        X2 = (1-lam)*V1             (relay input)
        X1 = lam*V1 + V2 + X1p      (source input)
        Y1 = X1 + S + Z1
        Y2 = Y1 + X2 + Z2p

    Both power constraints hold with equality by construction.
    """
    k = informed_both_coeffs(c, p)
    variances = (c.q, k.p_coop, k.p_fresh, p.gamma * c.p1, c.n1, c.n2 - c.n1)
    labels = ("S", "U1", "U2", "X1p", "X1", "X2", "Y1", "Y2")
    #          S         V1     V2   X1p  Z1   Z2p
    mix = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S
            [k.alpha1, 1.0, 0.0, 0.0, 0.0, 0.0],  # U1
            [k.alpha2, 0.0, 1.0, 0.0, 0.0, 0.0],  # U2
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # X1p
            [0.0, k.lam, 1.0, 1.0, 0.0, 0.0],  # X1
            [0.0, 1.0 - k.lam, 0.0, 0.0, 0.0, 0.0],  # X2
            [1.0, k.lam, 1.0, 1.0, 1.0, 0.0],  # Y1
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # Y2
        ]
    )
    return _check_powers(_assemble(labels, mix, variances), c)


def build_cov_informed_source(c: ChannelParams, g: GdpcParams) -> CovarianceSystem:
    """Joint covariance of the construction with the interference known
    at the source only.

    A fraction rho of the common power is spent sending -sqrt(rho*(1-gamma)
    *p1/q)*S, which shrinks the interference seen by both receivers to
    Sprime with power qprime. The rest, Uw with power pw = (1-rho)(1-gamma)
    *p1, is the binning codeword, correlated with the relay input X2 so
    that E[Uw*X2] = beta*sqrt(pw*p2). The auxiliaries are

        U2 = alpha2*Sprime + Uw                       (common layer)
        U1 = alpha1*(1-alpha2)*Sprime + X1p           (private layer)

    with alpha1 = gamma*p1/(gamma*p1 + n1), and the channel outputs obey
    Y1 = X1p + Uw + Sprime + Z1 exactly as linear relations.
    """
    validate_gdpc(c, g)
    if c.q <= 0.0:
        raise ZeroStatePower(
            "interference power q must be > 0 for the encoder-informed "
            "construction; with q = 0 use the no-interference region"
        )
    gbar = 1.0 - g.gamma
    pw = (1.0 - g.rho) * gbar * c.p1
    s_coef = math.sqrt(g.rho * gbar * c.p1 / c.q)
    kappa = 1.0 - s_coef
    alpha1 = g.gamma * c.p1 / (g.gamma * c.p1 + c.n1)
    if pw > 0.0:
        c_uw = g.beta * math.sqrt(c.p2 / pw)
        e2_var = (1.0 - g.beta**2) * c.p2
    else:
        # no binning power: the relay input carries its full power alone
        c_uw = 0.0
        e2_var = c.p2
    variances = (c.q, g.gamma * c.p1, pw, e2_var, c.n1, c.n2 - c.n1)
    labels = ("S", "Sprime", "U1", "U2", "Uw", "X1p", "X1", "X2", "Y1", "Y2")
    #          S                X1p  Uw   E2   Z1   Z2p
    mix = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S
            [kappa, 0.0, 0.0, 0.0, 0.0, 0.0],  # Sprime
            [alpha1 * (1.0 - g.alpha2) * kappa, 1.0, 0.0, 0.0, 0.0, 0.0],  # U1
            [g.alpha2 * kappa, 0.0, 1.0, 0.0, 0.0, 0.0],  # U2
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # Uw
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # X1p
            [-s_coef, 1.0, 1.0, 0.0, 0.0, 0.0],  # X1
            [0.0, 0.0, c_uw, 1.0, 0.0, 0.0],  # X2
            [kappa, 1.0, 1.0, 0.0, 1.0, 0.0],  # Y1
            [kappa, 1.0, 1.0 + c_uw, 1.0, 1.0, 1.0],  # Y2
        ]
    )
    return _check_powers(_assemble(labels, mix, variances), c)


@dataclass(frozen=True)
class TermCheck:
    """One compared quantity: the oracle value against the closed form."""

    term: str
    oracle: float
    closed: float

    @property
    def abs_diff(self) -> float:
        return abs(self.oracle - self.closed)

    def to_dict(self) -> dict:
        return {
            "term": self.term,
            "oracle": self.oracle,
            "closed": self.closed,
            "abs_diff": self.abs_diff,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification: passed iff max_abs_diff <= tol."""

    name: str
    tol: float
    max_abs_diff: float
    passed: bool
    details: tuple[TermCheck, ...]

    @classmethod
    def from_terms(
        cls, name: str, tol: float, details: tuple[TermCheck, ...]
    ) -> "VerifyReport":
        worst = max(t.abs_diff for t in details)
        return cls(
            name=name,
            tol=tol,
            max_abs_diff=worst,
            passed=worst <= tol,
            details=details,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tol": self.tol,
            "max_abs_diff": self.max_abs_diff,
            "pass": self.passed,
            "details": [t.to_dict() for t in self.details],
        }


def verify_informed_both(
    c: ChannelParams, p: InformedBothParams, tol: float = 1e-9
) -> VerifyReport:
    """Check that the both-informed construction achieves the
    no-interference region, term by term.

    The gated private-rate row conditions the oracle on everything the
    nearby user has decoded (S, U1, U2, X2), which is what the decoder
    actually does and what matches cap_c(gamma*p1/n1). The row that
    conditions on the cooperative layer only is reported as well, against
    its own closed form cap_c((gamma + beta*(1-gamma))*p1/n1): leaving the
    fresh layer undecoded folds its power into the private signal.

    Every compared value is free of q, which is the claimed interference
    independence of the capacity region.
    """
    cov = build_cov_informed_both(c, p)
    gbar_p1 = (1.0 - p.gamma) * c.p1
    gp1 = p.gamma * c.p1
    cross = 2.0 * math.sqrt((1.0 - p.beta) * gbar_p1 * c.p2)
    details = (
        TermCheck(
            term="I(X1;Y1|S,U1,U2,X2)",
            oracle=gaussian_cmi(cov, ["X1"], ["Y1"], ["S", "U1", "U2", "X2"]),
            closed=cap_c(gp1 / c.n1),
        ),
        TermCheck(
            term="I(X1;Y1|S,U1,X2)",
            oracle=gaussian_cmi(cov, ["X1"], ["Y1"], ["S", "U1", "X2"]),
            closed=cap_c((gp1 + p.beta * gbar_p1) / c.n1),
        ),
        TermCheck(
            term="I(U2;Y1|S,U1)",
            oracle=gaussian_cmi(cov, ["U2"], ["Y1"], ["S", "U1"]),
            closed=cap_c(p.beta * gbar_p1 / (gp1 + c.n1)),
        ),
        TermCheck(
            term="I(U1,U2;Y2)-I(U1,U2;S)",
            oracle=gaussian_cmi(cov, ["U1", "U2"], ["Y2"])
            - gaussian_cmi(cov, ["U1", "U2"], ["S"]),
            closed=cap_c((gbar_p1 + c.p2 + cross) / (gp1 + c.n2)),
        ),
    )
    return VerifyReport.from_terms("informed-both-capacity", tol, details)


def _half_log2_ratio(name: str, num: float, den: float) -> float:
    """0.5*log2(num/den) of a closed-form ratio; a log 0 or 0/0 limit
    (the binning power vanishes) raises SingularSubmatrix."""
    if not (num > 0.0 and den > 0.0):
        raise SingularSubmatrix(
            f"closed-form ratio {name} = {num}/{den} has no finite log"
        )
    return 0.5 * math.log2(num / den)


def verify_gdpc(c: ChannelParams, g: GdpcParams, tol: float = 1e-9) -> VerifyReport:
    """Check the closed-form a/b, c/d log ratios and the private rate
    against the covariance oracle for the encoder-informed construction.

    The closed forms are compared unclamped, so agreement is meaningful
    even where a parameter choice drives a bound negative.
    """
    cov = build_cov_informed_source(c, g)
    k = gdpc_coeffs(c, g)
    gp_common = gaussian_cmi(cov, ["U2"], ["Sprime"], ["X2"])
    details = (
        TermCheck(
            term="I(U1;Y1|U2,X2)-I(U1;Sprime|U2,X2)",
            oracle=gaussian_cmi(cov, ["U1"], ["Y1"], ["U2", "X2"])
            - gaussian_cmi(cov, ["U1"], ["Sprime"], ["U2", "X2"]),
            closed=cap_c(g.gamma * c.p1 / c.n1),
        ),
        TermCheck(
            term="I(U2;Y1|X2)-I(U2;Sprime|X2)",
            oracle=gaussian_cmi(cov, ["U2"], ["Y1"], ["X2"]) - gp_common,
            closed=_half_log2_ratio("a/b", k.a, k.b),
        ),
        TermCheck(
            term="I(U2,X2;Y2)-I(U2;Sprime|X2)",
            oracle=gaussian_cmi(cov, ["U2", "X2"], ["Y2"]) - gp_common,
            closed=_half_log2_ratio("c/d", k.c, k.d),
        ),
    )
    return VerifyReport.from_terms("gdpc-closed-forms", tol, details)


def verify_relay_identity(
    c: ChannelParams, p: InformedBothParams, tol: float = 1e-9
) -> VerifyReport:
    """Check that conditioning the fresh layer's rate on the relay input
    or on the cooperative auxiliary gives the same value.

    Under the both-informed construction X2 is an invertible function of
    U1 given S whenever p2 > 0, so I(U2;Y1|S,X2) = I(U2;Y1|S,U1). With
    p2 = 0 the relay input is identically zero and the identity only
    survives at beta = 0 or beta = 1, where the cooperative auxiliary
    carries no innovation either.
    """
    cov = build_cov_informed_both(c, p)
    lhs = gaussian_cmi(cov, ["U2"], ["Y1"], ["S", "X2"])
    rhs = gaussian_cmi(cov, ["U2"], ["Y1"], ["S", "U1"])
    details = (TermCheck(term="I(U2;Y1|S,X2) vs I(U2;Y1|S,U1)", oracle=lhs, closed=rhs),)
    return VerifyReport.from_terms("relay-rate-identity", tol, details)


def sample_mi_estimate(
    cov: CovarianceSystem,
    set_a: Iterable[str],
    set_b: Iterable[str],
    set_c: Iterable[str],
    n_samples: int,
    seed: int,
) -> float:
    """Monte-Carlo replica of gaussian_cmi: draw the sample covariance
    (divisor n-1) of n_samples joint Gaussian vectors and evaluate the
    same residual-variance route on it.

    The sample covariance is not formed from n_samples vectors. With
    sigma = F F^T (F the symmetric eigendecomposition factor, which also
    covers a rank-deficient sigma), the centred sample covariance of n
    draws is Wishart with n-1 degrees of freedom and scale sigma/(n-1),
    i.e. F W F^T / (n-1) with W ~ Wishart(n-1, I). By the Bartlett
    decomposition W = A A^T, where A is lower triangular with
    A[i,i]^2 ~ chi^2(n-1-i) and A[i,j] ~ N(0,1) below the diagonal, all
    independent. Drawing A takes d(d+1)/2 variates for d labels, so the
    cost does not grow with n_samples, and the result has exactly the
    law of the n-vector sample covariance.

    n_samples must be an integer of at least 1000 and above the label
    count. Sampling uses numpy's default PCG64 generator seeded with
    ``seed``, so results are reproducible run to run.
    """
    floor = max(1000, len(cov.labels) + 1)
    if (
        isinstance(n_samples, bool)
        or not isinstance(n_samples, (int, np.integer))
        or n_samples < floor
    ):
        raise OutOfRange(f"n_samples must be an integer >= {floor}, got {n_samples!r}")
    sample_sigma = _sample_covariance(cov.sigma, n_samples, seed)
    a_idx = _unique_indices(cov, set_a)
    b_idx = _unique_indices(cov, set_b)
    c_idx = _unique_indices(cov, set_c)
    return _cmi_from_sigma(sample_sigma, a_idx, b_idx, c_idx)


def _sample_covariance(sigma: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """One Bartlett draw of the divisor-(n-1) sample covariance of
    n_samples vectors with covariance sigma (n_samples > dim of sigma)."""
    d = sigma.shape[0]
    # Past ~1e32 degrees of freedom the draw's relative spread is below
    # double resolution, so the cap only keeps float(n-1) finite.
    dof = float(min(n_samples - 1, 10**300))
    w, vecs = np.linalg.eigh(sigma)
    factor = vecs * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    bartlett = np.diag(np.sqrt(rng.chisquare(dof - np.arange(d))))
    bartlett[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    root = factor @ (bartlett / math.sqrt(dof))
    sample_sigma = root @ root.T
    return 0.5 * (sample_sigma + sample_sigma.T)
