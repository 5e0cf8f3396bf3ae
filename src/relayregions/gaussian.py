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
Instead, one sequential Cholesky pass along a chain of labels gives each
label's residual variance r given the labels kept before it. A label
with r at most _RANK_TOL times its own variance is almost surely a
linear function of those and is dropped, which leaves the mutual
information unchanged. The rule is relative, so rescaling a label moves
no decision, and it is the one rule of every chain. The log-det of a
kept block is the sum of its log r, so by the chain rule, with P = C and
the labels of B before b,

    I(A; B | C) = sum over b in B kept given P of
                  ( log r(b | P) - log r(b | P, A) ) / (2 ln 2)

where r(b | P, A) is read at the end of the chain C, A, B's earlier
labels. A b kept given P but dropped given P and A makes I(A;B|C)
diverge. Terms compile into a trie of these chains (``_plan``), which
share their common prefixes, and ``_term_values`` walks the trie once
and evaluates every term in id order, so a region table's report builds
each factor row once. One row of B's first label against the factor of
C + A gives both its residuals: r(b | C) sums the squares of its first
kept(C) entries, r(b | C, A) those of the whole row. A region table is a
term-id program too (``model._program``): its report evaluates each
distinct term once, in first-use order, and reads each row through
``model._expression``. A covariance is its labels and its read-only
sigma, nothing more: a term reads sigma's rows as nested lists when it
is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable

import numpy as np

from .model import (
    _TERMS,
    ChannelParams,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    SingularSubmatrix,
    _expression,
    _program,
    _require_count,
    _require_tol,
    _scaled,
    _unchecked,
    validate_gdpc,
)
from .rates import _gdpc_point, _private_rate, cap_c, nostate_terms

_LN2 = math.log(2.0)
_RANK_TOL = 1e-10
_PSD_TOL = -1e-10


@dataclass(frozen=True, slots=True, eq=False)
class CovarianceSystem:
    """A labeled joint Gaussian covariance over named scalar variables.

    sigma must be finite, and symmetric and positive semidefinite relative
    to its own variances: its unit-diagonal form D^-1/2 sigma D^-1/2 (D
    the diagonal) is symmetric within 1e-9 and has no eigenvalue below
    _PSD_TOL. A label of zero variance must have an exactly zero row and
    column, and no variance may be negative. Rescaling a label therefore
    moves no check, as it moves no information. sigma is stored read-only.
    The builders' covariances hold these by construction and skip them
    (``_assemble``), and a copy or an unpickled covariance held them when
    it was built (``model._unchecked``).
    """

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
        var = np.diag(sigma)
        null = var == 0.0
        if (var < 0.0).any() or sigma[null].any() or sigma[:, null].any():
            raise OutOfRange("sigma is not positive semidefinite")
        root = np.sqrt(np.where(null, 1.0, var))
        with np.errstate(over="ignore"):
            # an entry far past the root of its two variances reads inf,
            # which no PSD matrix holds
            unit = sigma / root[:, None] / root
        if not np.isfinite(unit).all():
            raise OutOfRange("sigma is not positive semidefinite")
        if not (np.abs(unit - unit.T) <= 1e-9).all():
            raise OutOfRange("sigma must be symmetric")
        if float(np.linalg.eigvalsh(unit).min(initial=0.0)) < _PSD_TOL:
            raise OutOfRange("sigma is not positive semidefinite")
        sigma.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "sigma", sigma)

    def __reduce__(self):  # copy, deepcopy and pickle
        return _unchecked, (type(self), self.labels, self.sigma)

    def index(self, label: str) -> int:
        try:
            # labels are hashable, so an unhashable label (an array, whose
            # == is elementwise) is no label
            hash(label)
            return self.labels.index(label)
        except (TypeError, ValueError):
            raise OutOfRange(f"unknown label {label!r}, have {self.labels}") from None

    def var(self, label: str) -> float:
        i = self.index(label)
        return float(self.sigma[i, i])

    def cov(self, a: str, b: str) -> float:
        return float(self.sigma[self.index(a), self.index(b)])


def _plan(terms) -> tuple:
    """Compile terms (a, b, c), each set a tuple of label indices, into
    the trie of the chains that ``_term`` reads: (parent node, label,
    whether the node has children) per node in build order, node 0 the
    empty chain; and per term, in order, per label b of B, (b, the node
    that gives r(b | P), P's node, the node that gives r(b | P, A))."""
    children: dict = {}  # (parent node, label) -> node, in build order

    def chain(node: int, labels) -> int:
        for j in labels:
            node = children.setdefault((node, j), len(children) + 1)
        return node

    subterms = []
    for a, b, c in terms:
        p, sub = chain(0, c), []
        pa = chain(p, a)
        for i, j in enumerate(b):
            if i:  # B's previous label joins both chains
                p, pa = chain(p, b[i - 1:i]), chain(pa, b[i - 1:i])
            node_pa = chain(pa, (j,))
            # b_0's row against C + A begins with its row against C
            sub.append((j, chain(p, (j,)) if i else node_pa, p, node_pa))
        subterms.append(tuple(sub))
    parents = {parent for parent, _ in children}
    nodes = tuple((parent, j, node in parents) for (parent, j), node in children.items())
    return nodes, tuple(subterms)


def _walk(s: list[list[float]], nodes: tuple) -> tuple[list, list, list]:
    """Per node of a plan, on the rows s of sigma (``ndarray.tolist``):
    the factor of its chain, its label's entries against its parent's
    factor, and its residual variance r. A factor is a list of (index,
    entries, root) triples: a kept label's entries against the labels
    kept before it and the square root of its r. A label of a node with
    children joins the factor iff its r exceeds _RANK_TOL times its own
    variance."""
    factors: list = [[]]
    ells: list = [[]]
    rs: list = [0.0]
    for parent, j, grows in nodes:
        factor, s_j = factors[parent], s[j]
        ell: list[float] = []
        for k, row, root in factor:
            # the first entry has nothing to subtract: s_j[k] - 0 is s_j[k]
            ell.append((s_j[k] - sum(map(mul, row, ell))) / root if ell else s_j[k] / root)
        r = s_j[j] - sum(map(mul, ell, ell))
        if grows and r > _RANK_TOL * s_j[j]:
            factor = [*factor, (j, ell, math.sqrt(r))]
        factors.append(factor)
        ells.append(ell)
        rs.append(r)
    return factors, ells, rs


def _term(s: list[list[float]], walked: tuple, subterms: tuple) -> float:
    """I(A;B|C) in bits of a term, from its subterms and the walked plan:
    a label's entries against a chain's factor begin with its entries
    against the factor of each prefix of the chain."""
    factors, ells, rs = walked
    b_logs, ab_logs = [], []
    for j, node_p, p, node_pa in subterms:
        var, head = s[j][j], ells[node_p][:len(factors[p])]
        r = var - sum(map(mul, head, head))
        if r > _RANK_TOL * var:
            b_logs.append(math.log(r))
            # a b that A and C determine (one kept in A too, say) diverges;
            # if A emptied, both residuals are one sum and I reads +0.0
            if not rs[node_pa] > _RANK_TOL * var:
                raise SingularSubmatrix(
                    f"I(A;B|C) diverges: a label of B is, within {_RANK_TOL:g} of its "
                    "variance, a linear function of A and C"
                )
            ab_logs.append(math.log(rs[node_pa]))
    val = (sum(b_logs) - sum(ab_logs)) / (2.0 * _LN2)
    if val < 0.0:
        if val < -1e-9:
            raise SingularSubmatrix(
                f"mutual information evaluated to {val}; matrix too ill-conditioned"
            )
        return 0.0
    return val


def _term_values(s: list[list[float]], plan: tuple) -> list[float]:
    """Every term of a plan (``_plan``) on the rows s of sigma
    (``ndarray.tolist``), in id order: the chains are walked once, and
    the first term that raises raises."""
    nodes, subterms = plan
    walked = _walk(s, nodes)
    return [_term(s, walked, sub) for sub in subterms]


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
    An empty A or B after elimination gives 0. If A and C determine a
    kept label of B (a label kept in both A and B, say) the information
    diverges and SingularSubmatrix is raised.
    """
    a, b, c = (tuple(dict.fromkeys(map(cov.index, x))) for x in (set_a, set_b, set_c))
    return _cmi_from_sigma(cov.sigma.tolist(), a, b, c)


def _cmi_from_sigma(s: list[list[float]], a_idx, b_idx, c_idx) -> float:
    """I(A;B|C) in bits from the rows of sigma as nested lists
    (``ndarray.tolist``): the one term of its own plan."""
    return _term_values(s, _plan([(a_idx, b_idx, c_idx)]))[0]


def _assemble(labels: tuple[str, ...], mix: np.ndarray, variances) -> CovarianceSystem:
    """Covariance of labels = mix @ basis, basis independent with the
    given variances >= 0: the Gram product L L^T of L = mix diag(sqrt(v)),
    so PSD, and exactly symmetric because numpy forms a product with its
    own transpose as one symmetric update. Each builder's inputs spend
    the power budgets p1 and p2 exactly, so they hold up to rounding.
    Built without CovarianceSystem's checks, which hold by construction:
    the labels are the builders' literal, unique tuples, and on a
    channel's scaled powers (``model._scaled``) no entry leaves the float
    range."""
    factor = mix * np.sqrt(variances)
    return _unchecked(CovarianceSystem, labels, factor @ factor.T)


# Each builder's mix with its fixed 0/1 entries, read-only: the builder
# copies it and sets the entries that the channel and knobs decide, 0 here
_BOTH_LABELS = ("S", "U1", "U2", "X1p", "X1", "X2", "Y1", "Y2")
_BOTH_MIX = np.array(
    #  S  V1 V2 X1p Z1 Z2p
    [
        [1, 0, 0, 0, 0, 0],  # S
        [0, 1, 0, 0, 0, 0],  # U1 = alpha1*S + V1
        [0, 0, 1, 0, 0, 0],  # U2 = alpha2*S + V2
        [0, 0, 0, 1, 0, 0],  # X1p
        [0, 0, 1, 1, 0, 0],  # X1 = lam*V1 + V2 + X1p
        [0, 0, 0, 0, 0, 0],  # X2 = mu*V1
        [1, 0, 1, 1, 1, 0],  # Y1 = S + lam*V1 + V2 + X1p + Z1
        [1, 1, 1, 1, 1, 1],  # Y2
    ],
    dtype=float,
)
_SOURCE_LABELS = ("S", "Sprime", "U1", "U2", "Uw", "X1p", "X1", "X2", "Y1", "Y2")
_SOURCE_MIX = np.array(
    #  S X1p Uw E2 Z1 Z2p
    [
        [1, 0, 0, 0, 0, 0],  # S
        [0, 0, 0, 0, 0, 0],  # Sprime = kappa*S
        [0, 1, 0, 0, 0, 0],  # U1 = alpha1*(1-alpha2)*kappa*S + X1p
        [0, 0, 1, 0, 0, 0],  # U2 = alpha2*kappa*S + Uw
        [0, 0, 1, 0, 0, 0],  # Uw
        [0, 1, 0, 0, 0, 0],  # X1p
        [0, 1, 1, 0, 0, 0],  # X1 = -s_coef*S + X1p + Uw
        [0, 0, 0, 1, 0, 0],  # X2 = c_uw*Uw + E2
        [0, 1, 1, 0, 1, 0],  # Y1 = kappa*S + X1p + Uw + Z1
        [0, 1, 1, 1, 1, 1],  # Y2 = kappa*S + X1p + (1+c_uw)*Uw + E2 + Z1 + Z2p
    ],
    dtype=float,
)
_BOTH_MIX.flags.writeable = _SOURCE_MIX.flags.writeable = False


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
        X2 = mu*V1                  (relay input)
        X1 = lam*V1 + V2 + X1p      (source input)
        Y1 = X1 + S + Z1
        Y2 = Y1 + X2 + Z2p

    The source alone sends the fresh power p_fresh = beta*(1-gamma)*p1.
    The cooperative codeword, sent coherently with the relay, has power
    p_coop = root^2, root = sqrt((1-beta)(1-gamma)p1) + sqrt(p2), of which
    the source sends the share lam = sqrt((1-beta)(1-gamma)p1)/root and
    the relay mu = sqrt(p2)/root (both 0 at root = 0); mu is not formed as
    1 - lam, which cancels. Both power constraints hold with equality.

    sigma is built on the channel's scaled powers (``model._scaled``): every
    information is unchanged, and ``cov.var("X1")`` reads p1 * 2**k.
    """
    p1, p2, q, n1, n2 = _scaled(c)[0]
    gbar_p1 = (1.0 - p.gamma) * p1
    src, relay = math.sqrt((1.0 - p.beta) * gbar_p1), math.sqrt(p2)
    root = src + relay
    p_coop = root * root
    p_fresh = p.beta * gbar_p1
    lam, mu = (src / root, relay / root) if root > 0.0 else (0.0, 0.0)
    den = p_coop + p_fresh + p.gamma * p1 + n2
    alpha1, alpha2 = p_coop / den, p_fresh / den
    variances = (q, p_coop, p_fresh, p.gamma * p1, n1, n2 - n1)
    mix = _BOTH_MIX.copy()
    mix[1, 0], mix[2, 0] = alpha1, alpha2
    mix[4, 1] = mix[6, 1] = lam
    mix[5, 1] = mu
    return _assemble(_BOTH_LABELS, mix, variances)


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
    Y1 = X1p + Uw + Sprime + Z1 exactly as linear relations. With q = 0,
    S and Sprime carry no power, rho is 0 (``validate_gdpc``), and the
    binning layer bins against nothing.

    sigma is built on the channel's scaled powers (``model._scaled``): every
    information is unchanged, and ``cov.var("X1")`` reads p1 * 2**k.
    """
    return _cov_informed_source(c, validate_gdpc(c, g))


def _cov_informed_source(c: ChannelParams, g: GdpcParams) -> CovarianceSystem:
    """``build_cov_informed_source`` of knobs whose rho bound is checked."""
    p1, p2, q, n1, n2 = _scaled(c)[0]
    gbar = 1.0 - g.gamma
    pw = (1.0 - g.rho) * gbar * p1
    # rho > 0 only where q > 0 (validate_gdpc), so q = 0 never divides
    s_coef = math.sqrt(g.rho * gbar * p1 / q) if g.rho > 0.0 else 0.0
    kappa = 1.0 - s_coef
    alpha1 = g.gamma * p1 / (g.gamma * p1 + n1)
    if pw > 0.0:
        c_uw = g.beta * math.sqrt(p2 / pw)
        e2_var = (1.0 - g.beta**2) * p2
    else:
        # no binning power: the relay input carries its full power alone
        c_uw = 0.0
        e2_var = p2
    variances = (q, g.gamma * p1, pw, e2_var, n1, n2 - n1)
    mix = _SOURCE_MIX.copy()
    mix[1, 0] = mix[8, 0] = mix[9, 0] = kappa
    mix[2, 0] = alpha1 * (1.0 - g.alpha2) * kappa
    mix[3, 0] = g.alpha2 * kappa
    mix[6, 0] = -s_coef
    mix[7, 2] = c_uw
    mix[9, 2] = 1.0 + c_uw
    return _assemble(_SOURCE_LABELS, mix, variances)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of one verification: passed iff every row's abs_diff <= tol.
    max_abs_diff is nan if any row's is, whatever the row order."""

    name: str
    tol: float
    details: tuple[TermCheck, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", _require_tol(self.tol))
        if not self.details:
            raise OutOfRange("a report needs at least one term row")

    @property
    def max_abs_diff(self) -> float:
        diffs = [t.abs_diff for t in self.details]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs)

    @property
    def passed(self) -> bool:
        return all(t.abs_diff <= self.tol for t in self.details)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tol": self.tol,
            "max_abs_diff": self.max_abs_diff,
            "pass": self.passed,
            "details": [t.to_dict() for t in self.details],
        }


def _region_table(exprs, labels: tuple[str, ...], s: str) -> tuple:
    """A region table, compiled from expressions in ``model._TERMS``' form,
    where axis s reads as the label s and every other axis as its
    upper-case name: per expression, (its label, its ``model._program``
    row); the program's distinct terms, each set a tuple of indices in
    labels; and their ``_plan``."""
    names, indexed = [], []
    for expr in exprs:
        expr = tuple(
            (sign, *(tuple(s if x == "s" else x.upper() for x in axes) for axes in term))
            for sign, *term in expr
        )
        label = "".join(
            f"{'-' if sign < 0 else '+' if i else ''}I({','.join(a)};{','.join(b)}"
            f"{'|' if c else ''}{','.join(c)})"
            for i, (sign, a, b, c) in enumerate(expr)
        )
        names.append(label)
        indexed.append(
            tuple((sign, *(tuple(map(labels.index, x)) for x in t)) for sign, *t in expr)
        )
    terms, program = _program(indexed)
    return tuple(zip(names, program)), terms, _plan(terms)


_BOTH_TERMS, _SOURCE_TERMS = _TERMS["informed-both"], _TERMS["informed-source"]
_INFORMED_BOTH_ROWS = _region_table(  # the gated private-rate row first
    (((+1, ("x1",), ("y1",), ("s", "u1", "u2", "x2")),), *_BOTH_TERMS["r1"], *_BOTH_TERMS["r02"]),
    _BOTH_LABELS, "S",
)
_GDPC_ROWS = _region_table(_SOURCE_TERMS["r1"] + _SOURCE_TERMS["r02"], _SOURCE_LABELS, "Sprime")
# the fresh layer's rate given the relay input, then given the cooperative layer
_RELAY_ROWS = _region_table(
    [((+1, ("u2",), ("y1",), ("s", x)),) for x in ("x2", "u1")], _BOTH_LABELS, "S"
)


def _row_values(cov: CovarianceSystem, table: tuple) -> list:
    """The value of each row of a compiled region table on cov, in row
    order, read from its distinct terms, each evaluated once
    (``_term_values``)."""
    rows, _, plan = table
    values = _term_values(cov.sigma.tolist(), plan)
    return [_expression(expr, values) for _, expr in rows]


def _region_checks(cov: CovarianceSystem, table: tuple, closed: tuple) -> tuple:
    """A TermCheck per row of table against its closed form."""
    return tuple(
        TermCheck(label, oracle, x)
        for (label, _), oracle, x in zip(table[0], _row_values(cov, table), closed)
    )


def verify_informed_both(
    c: ChannelParams, p: InformedBothParams, tol: float = 1e-9
) -> VerifyReport:
    """Check that the both-informed construction achieves the
    no-interference region, term by term.

    Every row, the gated private-rate row first, is read from the region
    table. The gated row conditions on everything the nearby user has
    decoded (S, U1, U2, X2), which is what the decoder does and what
    matches cap_c(gamma*p1/n1). The region's own r1 row conditions on the
    cooperative layer only, against cap_c((gamma + beta*(1-gamma))*p1/n1):
    leaving the fresh layer undecoded folds its power into the private signal.

    Every compared value is free of q, which is the claimed interference
    independence of the capacity region. The two sum-rate rows compare
    against ``rates.nostate_terms``, the closed form the region uses. The
    closed forms and the covariance both run on the channel's scaled
    powers.
    """
    p1, _, _, n1, _ = _scaled(c)[0]
    private = _private_rate(p1, n1, p.gamma)
    partial = cap_c((p.gamma * p1 + p.beta * ((1.0 - p.gamma) * p1)) / n1)
    relay, combine = nostate_terms(c, p.gamma, p.beta)
    cov = build_cov_informed_both(c, p)
    details = _region_checks(cov, _INFORMED_BOTH_ROWS, (private, partial, relay, combine))
    return VerifyReport("informed-both-capacity", tol, details)


def verify_gdpc(c: ChannelParams, g: GdpcParams, tol: float = 1e-9) -> VerifyReport:
    """Check the closed-form a/b, c/d log ratios and the private rate
    against the covariance oracle for the encoder-informed construction.

    The closed forms are the unclamped log ratios of ``rates``' one
    evaluation of the gdpc terms, on the channel's scaled powers, so
    agreement is meaningful even where a bound is negative. A ratio with
    no finite log (log 0, or a 0/0 limit where the binning power
    vanishes) raises SingularSubmatrix.
    """
    # the closed forms first: a ratio with no finite log needs no covariance
    _, _, r1, r2, private = _gdpc_point(c, validate_gdpc(c, g))
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise SingularSubmatrix(f"a closed-form ratio has no finite log at {g} on {c}")
    cov = _cov_informed_source(c, g)
    closed = (private, float(r1), float(r2))
    return VerifyReport("gdpc-closed-forms", tol, _region_checks(cov, _GDPC_ROWS, closed))


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
    lhs, rhs = _row_values(build_cov_informed_both(c, p), _RELAY_ROWS)
    details = (TermCheck("I(U2;Y1|S,X2) vs I(U2;Y1|S,U1)", lhs, rhs),)
    return VerifyReport("relay-rate-identity", tol, details)


def sample_mi_estimate(
    cov: CovarianceSystem,
    set_a: Iterable[str],
    set_b: Iterable[str],
    set_c: Iterable[str],
    n_samples: int,
    seed: int,
) -> float:
    """Monte-Carlo replica of gaussian_cmi: draw the sample covariance
    (divisor n-1) of n_samples joint Gaussian vectors and evaluate
    gaussian_cmi on it, under cov's labels.

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
    count, and seed an integer >= 0. Sampling uses numpy's default PCG64
    generator seeded with ``seed``, so results are reproducible run to
    run.
    """
    n_samples = _require_count("n_samples", n_samples, max(1000, len(cov.labels) + 1))
    seed = _require_count("seed", seed, 0)
    # the draw is a Gram product: built without the checks, as _assemble
    # builds one
    draw = _sample_covariance(cov.sigma, n_samples, seed)
    return gaussian_cmi(_unchecked(CovarianceSystem, cov.labels, draw), set_a, set_b, set_c)


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
    return root @ root.T
