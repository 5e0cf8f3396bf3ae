"""Seeded job lists and output checks for the three benchmark workloads.

Each workload turns ``--seed`` into a fixed list of jobs that call the
package through its public surface only: ``relayregions.cli.main(argv)``
and the public functions of ``gaussian``. Module attributes are looked up
at call time, so the tracer's wrappers see every call. The benchmark's
own reference values (outer bounds, exact mutual informations, DMC
re-evaluations) are computed in ``check``, which runs outside every timed
and traced stretch.

Draw ranges (also printed with every result):

* region-trace: channels from a Latin hypercube over the acceptance-test
  ranges p1 in [0.2, 4], p2 in [0, 4], q in [0.1, 4], n1 in [0.05, 1],
  n2/n1 in [1.5, 8]. Stratifying keeps the per-seed mean of the rates
  steady while every channel still has the acceptance-test marginals.
* oracle-verify: a Latin hypercube over the same ranges, the knobs, and
  one factor log-uniform in [1e-12, 1e8] that multiplies every power and
  noise. Every fourth draw
  puts knobs on an edge, cycling through beta = 1, rho at its bound, and
  gamma = 0 with rho at its bound.
* dmc-search: the built-in pipes spec at denominators 4 and 8, then one
  noisy two-state spec under informed-source and informed-both bounds. Its
  state pmf is a multiple of 1/16, so the returned pmfs survive 12-digit
  rounding exactly, and its channel rows mix a state-dependent binary
  symmetric channel with a Dirichlet draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import relayregions
from relayregions import cli, dmc, gaussian
from relayregions import (
    AuxJoint,
    ChannelParams,
    DmcSpec,
    GdpcParams,
    InformedBothParams,
    binary_pipes_spec,
    cap_c,
    max_beta_nostate,
    rho_upper_bound,
)

# acceptance-test ranges: p1, p2, q, n1 and the ratio n2/n1
CHANNEL_LO = np.array([0.2, 0.0, 0.1, 0.05, 1.5])
CHANNEL_HI = np.array([4.0, 4.0, 4.0, 1.0, 8.0])
SCALE_LOG10 = (-12.0, 8.0)
EDGE_EVERY = 4
SAMPLE_TOL_BITS = 0.02
OUTER_SLACK = 1e-9
# what a truncated or malformed output file raises while being checked
UNREADABLE = (OSError, ValueError, IndexError, KeyError, TypeError)

SIZES = {
    "full": {"channels": 6, "draws": 1200, "mc_calls": 4, "mc_samples": 200_000, "pipes_fine": 8},
    "smoke": {"channels": 1, "draws": 12, "mc_calls": 1, "mc_samples": 20_000, "pipes_fine": 4},
}

DRAWS = {
    "region-trace": {
        "channel_design": "latin-hypercube",
        "p1": [0.2, 4.0], "p2": [0.0, 4.0], "q": [0.1, 4.0], "n1": [0.05, 1.0], "n2_over_n1": [1.5, 8.0],
        "gamma_grid": "0:1:21 (gdpc, dpc, nostate-outer), 0:1:101 (nostate-outer)", "snr_db": "0:30:5",
    },
    "oracle-verify": {
        "channel_design": "latin-hypercube",
        "p1": [0.2, 4.0], "p2": [0.0, 4.0], "q": [0.1, 4.0], "n1": [0.05, 1.0], "n2_over_n1": [1.5, 8.0],
        "scale": [1e-12, 1e8], "scale_law": "log-uniform",
        "gamma": [0.0, 0.97], "rho_over_bound": [0.0, 1.0], "beta_gdpc": [0.0, 0.98], "alpha2": [0.0, 1.0],
        "beta_informed_both": [0.0, 1.0], "edge_share": 1.0 / EDGE_EVERY,
        "edge_kinds": ["beta=1", "rho=bound", "gamma=0,rho=bound"],
        "mc_draws": "non-edge draws at evenly spaced scale quantiles", "sample_tol_bits": SAMPLE_TOL_BITS,
    },
    "dmc-search": {
        "pipes_denominator": 8, "pipes_reference_denominator": 4,
        "dense_sizes": [2, 1, 2, 2, 1, 2, 2], "dense_denominator": 4,
        "dense_bounds": ["informed-source", "informed-both"], "p_s": "multiples of 1/16 in [1/4, 3/4]",
        "bsc_crossover": [0.05, 0.25], "dirichlet_weight": [0.05, 0.3],
    },
}


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    timed: bool = True  # a job for the latency metrics (CLI call or verify draw)


@dataclass
class CheckResult:
    failed: dict[str, str] = field(default_factory=dict)  # operation label -> reason
    invariant_broken: bool = False
    quality_num: float = 0.0
    quality_den: float = 0.0
    details: dict = field(default_factory=dict)

    def fail(self, label: str, reason: str, invariant: bool = True) -> None:
        self.failed.setdefault(label, reason)
        self.invariant_broken |= invariant


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _cli_job(label: str, argv: list[str]) -> Job:
    return Job(label, lambda: cli.main(argv))


def _cli_payload(value, error, out: Path) -> bytes:
    head = f"exit={value!r} error={error!r}\n".encode()
    return head + (out.read_bytes() if out.exists() else b"")


class Workload:
    """A fixed job list plus the knowledge needed to check its outputs."""

    name = ""
    round_s = 1.0  # one round of the full job list on the reference machine (see README)

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.sizes = SIZES[size]
        self.jobs: list[Job] = []
        self.work_units = 0

    @property
    def operations(self) -> int:
        """Operations per round that fail_frac counts: one per job here."""
        return len(self.jobs)

    def payload(self, index: int, value, error) -> bytes:
        raise NotImplementedError

    def check(self, outcomes: list[tuple[object, BaseException | None]]) -> CheckResult:
        raise NotImplementedError


def _latin(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of a Latin hypercube in [0, 1)^dims: every coordinate has
    exactly one point in each of its n strata, so sample means barely
    depend on the seed while each point keeps uniform marginals."""
    strata = np.argsort(rng.random((dims, n)), axis=1).T
    return (strata + rng.random((n, dims))) / n


def _channel(u: np.ndarray, scale: float = 1.0) -> ChannelParams:
    p1, p2, q, n1, ratio = CHANNEL_LO + u * (CHANNEL_HI - CHANNEL_LO)
    return ChannelParams(p1 * scale, p2 * scale, q * scale, n1 * scale, n1 * ratio * scale)


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class RegionTrace(Workload):
    """Five CLI jobs per channel: gdpc, dpc and nostate-outer frontiers
    over 21 gammas, the nostate-outer frontier over 101, and a gdpc SNR
    sweep. With five job kinds the median job falls inside one kind (the
    dpc frontier) instead of on the boundary between two."""

    name = "region-trace"
    round_s = 1.7
    GAMMA_FRONTIER = "0:1:21"
    GAMMA_OUTER = "0:1:101"
    SNR = "0:30:5"
    SNR_POINTS = [0.0 + 5.0 * i for i in range(7)]  # the CLI's reading of 0:30:5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 1])
        self.channels = [_channel(u) for u in _latin(rng, self.sizes["channels"], 5)]
        self.outs: list[Path] = []
        self.meta: list[tuple[ChannelParams, str, str | None]] = []  # channel, kind, gamma grid
        for ci, c in enumerate(self.channels):
            chan = ",".join(repr(float(v)) for v in (c.p1, c.p2, c.q, c.n1, c.n2))
            jobs = [
                ("gdpc", ["frontier", "--scheme", "gdpc", "--gamma-grid", self.GAMMA_FRONTIER]),
                ("dpc", ["frontier", "--scheme", "dpc", "--gamma-grid", self.GAMMA_FRONTIER]),
                ("outer", ["frontier", "--scheme", "nostate-outer", "--gamma-grid", self.GAMMA_FRONTIER]),
                ("outer", ["frontier", "--scheme", "nostate-outer", "--gamma-grid", self.GAMMA_OUTER]),
                ("sweep", ["sweep-snr", "--scheme", "gdpc", "--snr-db", self.SNR]),
            ]
            for j, (kind, argv) in enumerate(jobs):
                out = workdir / f"c{ci}-{j}-{kind}.csv"
                self.jobs.append(_cli_job(f"c{ci}-{j}-{kind}", argv + ["--channel", chan, "--out", str(out)]))
                self.outs.append(out)
                self.meta.append((c, kind, argv[4] if kind != "sweep" else None))
            solved_snr = sum(1 for s in self.SNR_POINTS if not self._skipped(c, s))
            self.work_units += 4 * 21 + 101 + solved_snr

    @staticmethod
    def _n1(c: ChannelParams, snr: float) -> float:
        return c.p1 / 10.0 ** (snr / 10.0)

    def _skipped(self, c: ChannelParams, snr: float) -> bool:
        return self._n1(c, snr) >= c.n2

    def payload(self, index, value, error):
        return _cli_payload(value, error, self.outs[index])

    def check(self, outcomes):
        res = CheckResult()
        rates: list[float] = []
        outer_cache: dict[tuple, float] = {}

        def outer(c: ChannelParams, gamma: float) -> float:
            key = (c, gamma)
            if key not in outer_cache:
                outer_cache[key] = max_beta_nostate(c, gamma)[1]
            return outer_cache[key]

        for job, out, (value, error), (c, kind, grid) in zip(self.jobs, self.outs, outcomes, self.meta):
            if error is not None or value != 0:
                res.fail(job.label, f"exit={value!r} error={error!r}")
                continue
            try:
                header, rows = _read_csv(out.read_text())
                if kind == "sweep":
                    self._check_sweep(job.label, c, header, rows, res, rates, outer)
                else:
                    self._check_frontier(job.label, c, kind, grid, header, rows, res, rates, outer)
            except UNREADABLE as e:
                res.fail(job.label, f"unreadable output: {e!r}")
        res.details["inner_bound_bits"] = sum(rates) / len(rates) if rates else 0.0
        res.details["inner_points"] = len(rates)
        return res

    def _check_frontier(self, label, c, kind, grid, header, rows, res, rates, outer):
        if header != ["scheme", "gamma", "rho", "beta", "alpha2", "r1", "r02"] or not rows:
            res.fail(label, "bad frontier header or no rows")
            return
        gammas = {_fmt(g): float(g) for g in np.linspace(0.0, 1.0, int(grid.split(":")[2]))}
        prev = None
        for row in rows:
            gamma = gammas.get(row[1])
            if gamma is None:
                res.fail(label, f"gamma {row[1]} is not on the grid")
                return
            r1, r02 = float(row[5]), float(row[6])
            if row[5] != _fmt(cap_c(gamma * c.p1 / c.n1)):
                res.fail(label, f"r1 {row[5]} != cap_c(gamma*p1/n1) at gamma {row[1]}")
            if prev is not None and not (r1 > prev[0] and r02 <= prev[1]):
                res.fail(label, f"staircase not monotone at gamma {row[1]}")
            prev = (r1, r02)
            bound = outer(c, gamma)
            if kind == "outer":
                if row[6] != _fmt(bound):
                    res.fail(label, f"r02 {row[6]} != max_beta_nostate value {bound!r} at gamma {row[1]}")
            else:
                if r02 > bound + OUTER_SLACK:
                    res.fail(label, f"r02 {row[6]} above nostate-outer {bound!r} at gamma {row[1]}")
                rates.append(r02)
                res.quality_num += r02
                res.quality_den += bound

    def _check_sweep(self, label, c, header, rows, res, rates, outer):
        if header != ["scheme", "snr_db", "n1", "rate", "skipped"] or len(rows) != len(self.SNR_POINTS):
            res.fail(label, "bad sweep header or row count")
            return
        for snr, row in zip(self.SNR_POINTS, rows):
            skipped = self._skipped(c, snr)
            if row[4] != str(int(skipped)) or (row[3] == "") != skipped:
                want = f"want skipped={int(skipped)}"
                res.fail(label, f"row at {snr} dB: skipped={row[4]} rate={row[3]!r}, {want}")
                continue
            if skipped:
                continue
            rate = float(row[3])
            bound = outer(ChannelParams(c.p1, c.p2, c.q, self._n1(c, snr), c.n2), 0.0)
            if rate > bound + OUTER_SLACK:
                res.fail(label, f"rate {row[3]} above nostate-outer {bound!r} at {snr} dB")
            rates.append(rate)
            res.quality_num += rate
            res.quality_den += bound


class OracleVerify(Workload):
    """Seeded draws of a scaled channel and knobs. One job is one draw:
    ``verify_gdpc``, ``verify_informed_both`` and ``verify_relay_identity``
    on it, as the verify subcommand runs them together. A few Monte-Carlo
    cross-checks of one log-det term run alongside, untimed as jobs."""

    name = "oracle-verify"
    round_s = 1.75
    VERIFY = ("verify_gdpc", "verify_informed_both", "verify_relay_identity")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 2])
        self.draws = []
        lo, hi = SCALE_LOG10
        for d, u in enumerate(_latin(rng, self.sizes["draws"], 12)):
            k = 10.0 ** (lo + u[5] * (hi - lo))
            c = _channel(u[:5], k)
            gamma, ib_gamma = 0.97 * u[6], 0.97 * u[7]
            rho = u[8] * rho_upper_bound(c, gamma)
            beta, alpha2, ib_beta = 0.98 * u[9], u[10], u[11]
            edge = None
            if d % EDGE_EVERY == EDGE_EVERY - 1:
                edge = DRAWS[self.name]["edge_kinds"][(d // EDGE_EVERY) % 3]
                if edge == "beta=1":
                    beta = ib_beta = 1.0
                elif edge == "rho=bound":
                    rho = rho_upper_bound(c, gamma)
                else:
                    gamma = ib_gamma = 0.0
                    rho = rho_upper_bound(c, gamma)
            g = GdpcParams(gamma, rho, beta, alpha2)
            p = InformedBothParams(ib_gamma, ib_beta)
            self.draws.append((c, k, g, p, edge))
            self.jobs.append(Job(f"d{d}", self._verify(c, (g, p, p))))
        # the Monte-Carlo cross-checks take the non-edge draws at evenly
        # spaced quantiles of the scale, so every seed samples the same
        # part of the scale range
        plain = sorted((k, d) for d, (_, k, _, _, edge) in enumerate(self.draws) if edge is None)
        n_mc = self.sizes["mc_calls"]
        self.mc = []
        for m in range(n_mc):
            c, _, _, p, _ = self.draws[plain[(2 * m + 1) * len(plain) // (2 * n_mc)][1]]
            self.mc.append((c, p))
            self.jobs.append(Job(f"mc{m}", self._sample(c, p, seed * 1000 + m), timed=False))

    @property
    def operations(self) -> int:
        return len(self.draws) * len(self.VERIFY) + len(self.mc)

    def _verify(self, c, params):
        def run():
            out = []
            for fn, param in zip(self.VERIFY, params):
                try:
                    out.append(getattr(gaussian, fn)(c, param))
                except Exception as e:  # a failed verify call, counted by check()
                    out.append(e)
            return out

        return run

    def _sample(self, c, p, sample_seed: int):
        n = self.sizes["mc_samples"]

        def run():
            cov = gaussian.build_cov_informed_both(c, p)
            return gaussian.sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], n, sample_seed)

        return run

    @staticmethod
    def _describe(value) -> str:
        if isinstance(value, BaseException):
            return f"{type(value).__module__}.{type(value).__qualname__}: {value}"
        if isinstance(value, float):
            return repr(value)
        return json.dumps(value.to_dict(), sort_keys=True)

    def payload(self, index, value, error):
        parts = [error] if error is not None else value if isinstance(value, list) else [value]
        return "\n".join(self._describe(v) for v in parts).encode()

    def check(self, outcomes):
        res = CheckResult()
        reasons: dict[str, int] = {}

        def count(label: str, reason: str) -> None:
            res.fail(label, reason, invariant=False)
            reasons[reason] = reasons.get(reason, 0) + 1

        def failure(kind: str, error: BaseException) -> str:
            tag = "typed" if isinstance(error, relayregions.RelayRegionsError) else "untyped"
            return f"{kind}: {tag} {type(error).__name__}"

        self.work_units = 0  # verify reports returned, pass or fail
        for d, (c, _, g, _, _) in enumerate(self.draws):
            reports, _ = outcomes[d]
            for kind, report in zip(self.VERIFY, reports):
                if isinstance(report, BaseException):
                    count(f"d{d}-{kind}", failure(kind, report))
                    continue
                self.work_units += 1
                if not report.passed:
                    count(f"d{d}-{kind}", f"{kind}: FAIL report")
            # share of the drawn gdpc inner-bound points the oracle certifies
            gdpc = reports[0]
            res.quality_num += not isinstance(gdpc, BaseException) and gdpc.passed
            res.quality_den += 1.0
        for m, (c, p) in enumerate(self.mc):
            value, error = outcomes[len(self.draws) + m]
            if error is not None:
                count(f"mc{m}", failure("sample_mi_estimate", error))
                continue
            exact = gaussian.gaussian_cmi(gaussian.build_cov_informed_both(c, p), ["U1", "U2"], ["Y2"], [])
            if not abs(value - exact) <= SAMPLE_TOL_BITS:
                count(f"mc{m}", f"sample_mi_estimate: off by more than {SAMPLE_TOL_BITS} bits")
        res.details["fail_reasons"] = dict(sorted(reasons.items()))
        res.details["edge_draws"] = sum(1 for draw in self.draws if draw[4] is not None)
        res.details["scale_log10_span"] = [
            min(math.log10(draw[1]) for draw in self.draws),
            max(math.log10(draw[1]) for draw in self.draws),
        ]
        return res


def _dense_spec(rng: np.random.Generator) -> dict:
    """Two-state, four-cell noisy spec as a --config 'dmc' object."""
    ns, nu1, nu2, nx1, nx2, ny1, ny2 = DRAWS["dmc-search"]["dense_sizes"]
    k = int(rng.integers(4, 13))
    p_s = [k / 16.0, 1.0 - k / 16.0]
    eps1, eps2 = rng.uniform(0.05, 0.25, size=2)
    weight = rng.uniform(0.05, 0.3)
    channel = np.zeros((ns, nx1, nx2, ny1, ny2))
    for s in range(ns):
        for x1 in range(nx1):
            for y1 in range(ny1):
                p_y1 = 1.0 - eps1 if y1 == x1 ^ s else eps1
                for y2 in range(ny2):
                    channel[s, x1, 0, y1, y2] = p_y1 * (1.0 - eps2 if y2 == y1 else eps2)
    noise = rng.dirichlet(np.ones(ny1 * ny2), size=(ns, nx1, nx2)).reshape(channel.shape)
    channel = (1.0 - weight) * channel + weight * noise
    channel /= channel.sum(axis=(3, 4), keepdims=True)
    return {"sizes": [ns, nu1, nu2, nx1, nx2, ny1, ny2], "p_s": p_s, "channel": channel.tolist()}


class DmcSearch(Workload):
    """The pipes spec at denominator 8 and one dense noisy spec at 4 under
    both bounds, all through the dmc subcommand. The denominator-4 pipes
    optimum that the denominator-8 one must not fall below is computed in
    ``check``, so the timed job list has three kinds of job and its median
    falls inside one of them."""

    name = "dmc-search"
    round_s = 3.9
    COARSE = 4

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 3])
        dense = _dense_spec(rng)
        config = workdir / "dense.json"
        config.write_text(json.dumps({"dmc": dense}))
        self.dense_spec = DmcSpec(sizes=tuple(dense["sizes"]), p_s=dense["p_s"], channel=dense["channel"])
        self.pipes_spec = binary_pipes_spec()
        fine = self.sizes["pipes_fine"]
        dense_argv = ["--config", str(config), "--denominator", str(self.COARSE), "--bounds"]
        plan = [
            ("pipes", ["--pipes", "--denominator", str(fine)], self.pipes_spec, "informed-source", fine),
            ("dense-is", dense_argv + ["informed-source"], self.dense_spec, "informed-source", self.COARSE),
            ("dense-ib", dense_argv + ["informed-both"], self.dense_spec, "informed-both", self.COARSE),
        ]
        self.specs = []  # (spec, bounds, denominator) per job
        self.outs: list[Path] = []
        for label, argv, spec, bounds, den in plan:
            out = workdir / f"{label}.json"
            self.jobs.append(_cli_job(label, ["dmc", *argv, "--out", str(out)]))
            self.outs.append(out)
            self.specs.append((spec, bounds, den))
            self.work_units += self._candidates(spec, den)

    @staticmethod
    def _candidates(spec: DmcSpec, den: int) -> int:
        ns, nu1, nu2, nx1, nx2 = spec.sizes[:5]
        cells = nu1 * nu2 * nx1 * nx2
        return math.comb(den + cells - 1, cells - 1) ** ns

    def payload(self, index, value, error):
        return _cli_payload(value, error, self.outs[index])

    def check(self, outcomes):
        res = CheckResult()
        values = {}
        for i, ((value, error), (spec, bounds, den)) in enumerate(zip(outcomes, self.specs)):
            if error is not None or value != 0:
                res.fail(self.jobs[i].label, f"exit={value!r} error={error!r}")
                continue
            try:
                values[i] = self._check_one(i, spec, bounds, den, res)
            except UNREADABLE as e:
                res.fail(self.jobs[i].label, f"unreadable output: {e!r}")
        pipes, dense_is, dense_ib = range(3)
        if pipes in values:
            coarse = dmc.dmc_maximize(self.pipes_spec, "informed-source", self.COARSE).value
            got = values[pipes]
            if (got["r02"], got["r1"]) < (coarse.r02, coarse.r1):
                fine = self.specs[pipes][2]
                res.fail(self.jobs[pipes].label, f"denominator {fine} optimum below the denominator-4 one")
            res.quality_num += got["r02"]
        # pipes against the 1-bit capacity of that noiseless binary channel,
        # dense informed-source against informed-both: the discrete twin of
        # gdpc against nostate-outer
        res.quality_den += 1.0
        if dense_is in values and dense_ib in values:
            reference = values[dense_ib]["r02"]
            res.quality_num += values[dense_is]["r02"] / reference if reference > 0 else 1.0
        res.quality_den += 1.0
        res.details["optima"] = {self.jobs[i].label: v for i, v in values.items()}
        return res

    def _check_one(self, i, spec, bounds, den, res) -> dict:
        got = json.loads(self.outs[i].read_text())
        want = self._candidates(spec, den)
        if got["evaluations"] != want:
            res.fail(self.jobs[i].label, f"{got['evaluations']} candidates, want {want}")
        evaluate = dmc.eval_informed_source if bounds == "informed-source" else dmc.eval_informed_both
        again = evaluate(spec, AuxJoint(np.array(got["best_pmf"])))
        for key, x in (("r1", again.r1), ("r02", again.r02)):
            if float(_fmt(x)) != got["value"][key]:
                res.fail(self.jobs[i].label, f"re-evaluated {key} {x!r} != reported {got['value'][key]!r}")
        if spec is self.pipes_spec and got["value"]["r02"] != 1.0:
            res.fail(self.jobs[i].label, f"pipes r02 {got['value']['r02']!r} != 1")
        return got["value"]


WORKLOADS = {w.name: w for w in (RegionTrace, OracleVerify, DmcSearch)}
