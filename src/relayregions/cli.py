"""Command-line front end.

Commands:

* ``frontier``   trace a rate-region boundary over gamma, emit CSV
* ``sweep-snr``  relay-channel rate versus source SNR in dB, emit CSV
* ``verify``     run the covariance-oracle checks, emit a JSON report
* ``dmc``        brute-force a small discrete channel, emit JSON
* ``point``      evaluate one parameter tuple and print every
                 intermediate quantity

Configuration can come from a JSON file (``--config``) and from flags;
flags win field by field. Powers are linear everywhere except the
``--snr-db`` axis of sweep-snr, which is the one deliberate dB boundary.
Every number in CSV or JSON output is rendered with 12 significant
digits and files are written atomically (write to a temp file in the
same directory, then rename), so identical configs produce byte
identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .dmc import DmcSpec, binary_pipes_spec, dmc_maximize
from .gaussian import (
    build_cov_informed_both,
    gaussian_cmi,
    sample_mi_estimate,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
    TermCheck,
    VerifyReport,
)
from .model import (
    ChannelParams,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    RelayRegionsError,
    SCHEMES,
    rho_upper_bound,
)
from .optimize import GridSpec, frontier, sweep_snr
from .rates import gdpc_coeffs, gdpc_rates

EXAMPLE_CHANNEL = ChannelParams(p1=1.0, p2=1.0, q=1.0, n1=0.1, n2=1.0)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    """Recursively snap floats to 12 significant digits for JSON."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relayregions-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _floats(values, what: str) -> list[float]:
    """Entries of a flag or config list as floats; a non-number, or an
    integer too large for a float, is an input error."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise OutOfRange(f"{what} has an entry that is not a float: {values!r}") from None


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise OutOfRange(f"{what} expects {n} comma-separated numbers, got {text!r}")
    return _floats(parts, what)


def _parse_channel(value) -> ChannelParams:
    if isinstance(value, ChannelParams):
        return value
    if isinstance(value, dict):
        try:
            return ChannelParams(**dict(zip(value, _floats(value.values(), "channel config"))))
        except TypeError as e:
            raise OutOfRange(f"channel config: {e}") from None
    vals = _parse_floats(value, 5, "--channel") if isinstance(value, str) else _floats(
        value, "channel"
    )
    if len(vals) != 5:
        raise OutOfRange("channel expects p1,p2,q,n1,n2")
    return ChannelParams(*vals)


def _parse_range(value, what: str) -> list[float]:
    """Either 'a:b:n' (n evenly spaced points) or a comma/JSON list."""
    if isinstance(value, str) and ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise OutOfRange(f"{what} range must be a:b:n, got {value!r}")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise OutOfRange(f"{what} range has a bad entry: {value!r}") from None
        if n < 1:
            raise OutOfRange(f"{what} needs at least one point, got n={n}")
        return [float(v) for v in np.linspace(a, b, n)]
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    return _floats(value, what)


def _parse_snr(value, what: str = "--snr-db") -> list[float]:
    """Either 'a:b:step' (inclusive arithmetic ladder) or a list."""
    if isinstance(value, str) and ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise OutOfRange(f"{what} range must be a:b:step, got {value!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise OutOfRange(f"{what} range has a bad entry: {value!r}") from None
        if step <= 0:
            raise OutOfRange(f"{what} step must be > 0, got {step}")
        count = int(np.floor((b - a) / step + 1e-9)) + 1
        if count < 1:
            raise OutOfRange(f"{what} range {value!r} contains no points")
        return [a + i * step for i in range(count)]
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    return _floats(value, what)


_GRID_FORM = "r,b[,refines,shrink]"


def _parse_grid(value) -> GridSpec:
    if isinstance(value, GridSpec):
        return value
    if isinstance(value, dict):
        try:
            return GridSpec(**value)
        except TypeError as e:
            raise OutOfRange(f"grid config: {e}; the grid is {_GRID_FORM}") from None
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    else:
        parts = list(value)
    if len(parts) not in (2, 4):
        raise OutOfRange(f"--grid expects {_GRID_FORM} (2 or 4 fields), got {value!r}")
    try:
        steps = [int(p) for p in parts[:2]]
        schedule = [int(parts[2]), float(parts[3])] if len(parts) == 4 else []
    except ValueError:
        raise OutOfRange(f"--grid has a bad entry: {value!r}") from None
    return GridSpec(*steps, *schedule)


def _parse_params(value) -> GdpcParams:
    if isinstance(value, dict):
        try:
            return GdpcParams(**dict(zip(value, _floats(value.values(), "params config"))))
        except TypeError as e:
            raise OutOfRange(f"params config: {e}") from None
    vals = _parse_floats(value, 4, "--params") if isinstance(value, str) else _floats(
        value, "params"
    )
    if len(vals) != 4:
        raise OutOfRange("params expects gamma,rho,beta,alpha2")
    return GdpcParams(*vals)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r") as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise OutOfRange("config file must hold a JSON object")
    return cfg


def _pick(flag, cfg: dict, key: str, default=None):
    """Flag beats config beats default."""
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _as_int(name: str, value) -> int:
    """An integer-valued config field: 4.9 is rejected, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # exact, even past float range
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, bool) or not number.is_integer():
        raise OutOfRange(f"{name} must be an integer, got {value!r}")
    return int(number)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayregions",
        description="Rate regions of the relay broadcast channel with "
        "additive interference known at the encoder(s).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, grid: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--channel", help="p1,p2,q,n1,n2 (linear powers)")
        p.add_argument("--out", help="output path (default: stdout)")
        if grid:
            p.add_argument("--grid", help=f"search grid {_GRID_FORM}")

    p = sub.add_parser("frontier", help="trace a rate-region boundary over gamma")
    common(p)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--gamma-grid", help="a:b:n or explicit comma list")

    p = sub.add_parser("sweep-snr", help="relay-channel rate versus SNR (dB)")
    common(p)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--snr-db", help="a:b:step or explicit comma list")

    p = sub.add_parser("verify", help="cross-check closed forms against the oracle")
    common(p, grid=False)
    p.add_argument("--tol", type=float, help="pass tolerance in bits (default 1e-9)")
    p.add_argument("--seed", type=int, help="seed for draws and sampling (default 0)")
    p.add_argument(
        "--mc-samples", type=int, help="Monte-Carlo sample count (default 1000000)"
    )

    p = sub.add_parser("dmc", help="brute-force a small discrete channel")
    common(p, grid=False)
    p.add_argument("--pipes", action="store_true", help="use the built-in noiseless binary spec")
    p.add_argument("--bounds", choices=("informed-source", "informed-both"))
    p.add_argument("--denominator", type=int, choices=(4, 8, 16))
    p.add_argument("--objective", choices=("r02", "r1"))

    p = sub.add_parser("point", help="evaluate one (gamma,rho,beta,alpha2) tuple")
    common(p, grid=False)
    p.add_argument("--params", help="gamma,rho,beta,alpha2")
    return parser


def _get_channel(args, cfg: dict) -> tuple[ChannelParams, bool]:
    raw = _pick(args.channel, cfg, "channel")
    if raw is None:
        return EXAMPLE_CHANNEL, True
    return _parse_channel(raw), False


def _cmd_frontier(args, cfg: dict) -> int:
    channel, _ = _get_channel(args, cfg)
    scheme = _pick(args.scheme, cfg, "scheme", "gdpc")
    gammas = _parse_range(_pick(args.gamma_grid, cfg, "gamma_grid", "0:1:21"), "--gamma-grid")
    grid = _parse_grid(_pick(args.grid, cfg, "grid", GridSpec()))
    front = frontier(channel, scheme, gammas, grid)
    lines = ["scheme,gamma,rho,beta,alpha2,r1,r02"]
    for pt in front.points:
        lines.append(
            ",".join(
                (
                    front.scheme,
                    _fmt(pt.gamma),
                    _fmt(pt.rho),
                    _fmt(pt.beta),
                    _fmt(pt.alpha2),
                    _fmt(pt.rate.r1),
                    _fmt(pt.rate.r02),
                )
            )
        )
    _write_output(_pick(args.out, cfg, "out"), "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args, cfg: dict) -> int:
    channel, _ = _get_channel(args, cfg)
    scheme = _pick(args.scheme, cfg, "scheme", "gdpc")
    raw_snr = _pick(args.snr_db, cfg, "snr_db")
    if raw_snr is None:
        raise OutOfRange("sweep-snr needs --snr-db (or snr_db in the config)")
    snrs = _parse_snr(raw_snr)
    grid = _parse_grid(_pick(args.grid, cfg, "grid", GridSpec()))
    rows = sweep_snr(channel, snrs, scheme, grid)
    lines = ["scheme,snr_db,n1,rate,skipped"]
    for row in rows:
        rate = "" if row.rate is None else _fmt(row.rate)
        lines.append(
            f"{scheme},{_fmt(row.snr_db)},{_fmt(row.n1)},{rate},{int(row.skipped)}"
        )
    _write_output(_pick(args.out, cfg, "out"), "\n".join(lines) + "\n")
    return 0


def _verify_reports(
    channel: ChannelParams, tol: float, seed: int, mc_samples: int
) -> list[VerifyReport]:
    rng = np.random.default_rng(seed)
    reports: list[VerifyReport] = []

    both_points = [(0.5, 0.5)]
    both_points += [(rng.uniform(0, 0.95), rng.uniform(0, 1)) for _ in range(3)]
    for gamma, beta in both_points:
        reports.append(
            verify_informed_both(channel, InformedBothParams(gamma, beta), tol)
        )

    if channel.q > 0:
        source_points = [(0.2, 0.3, 0.4, 0.5)]
        for _ in range(3):
            gamma = rng.uniform(0, 0.95)
            frac = rng.uniform(0, 1)
            source_points.append(
                (gamma, frac * rho_upper_bound(channel, gamma), rng.uniform(0, 0.98), rng.uniform(0, 1))
            )
        for gamma, rho, beta, alpha2 in source_points:
            rho = min(rho, rho_upper_bound(channel, gamma))
            reports.append(
                verify_gdpc(channel, GdpcParams(gamma, rho, beta, alpha2), tol)
            )

    if channel.p2 > 0:
        relay_points = [(0.0, 0.36), (rng.uniform(0, 0.95), rng.uniform(0, 1))]
    else:
        # with no relay power the identity only survives at the beta edges
        relay_points = [(0.0, 0.0), (0.0, 1.0)]
    for gamma, beta in relay_points:
        reports.append(
            verify_relay_identity(channel, InformedBothParams(gamma, beta), tol)
        )

    cov = build_cov_informed_both(channel, InformedBothParams(0.5, 0.5))
    estimate = sample_mi_estimate(cov, ["U1", "U2"], ["Y2"], [], mc_samples, seed)
    exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"], [])
    reports.append(
        VerifyReport.from_terms(
            "monte-carlo-crosscheck",
            0.01,
            (
                TermCheck(
                    term=f"sampled I(U1,U2;Y2), n={mc_samples}",
                    oracle=estimate,
                    closed=exact,
                ),
            ),
        )
    )
    return reports


def _cmd_verify(args, cfg: dict) -> int:
    channel, defaulted = _get_channel(args, cfg)
    tol = float(_pick(args.tol, cfg, "tol", 1e-9))
    if tol <= 0:
        raise OutOfRange(f"tol must be > 0, got {tol}")
    seed = _as_int("seed", _pick(args.seed, cfg, "seed", 0))
    mc_samples = _as_int("mc_samples", _pick(args.mc_samples, cfg, "mc_samples", 10**6))
    if defaulted:
        print(
            "note: no channel given; using the example channel "
            "p1=1 p2=1 q=1 n1=0.1 n2=1 (noise powers ordered n1 < n2: "
            "the relay branch is the cleaner one by construction)"
        )
    reports = _verify_reports(channel, tol, seed, mc_samples)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} max_abs_diff={_fmt(rep.max_abs_diff)} tol={_fmt(rep.tol)}")
    out = _pick(args.out, cfg, "out")
    if out is not None:
        payload = _round12([rep.to_dict() for rep in reports])
        _write_output(out, json.dumps(payload, indent=2) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _parse_dmc_spec(cfg: dict, use_pipes: bool) -> DmcSpec:
    if use_pipes:
        return binary_pipes_spec()
    raw = cfg.get("dmc")
    if raw is None:
        raise OutOfRange("dmc needs --pipes or a 'dmc' object in the config")
    try:
        sizes = tuple(int(v) for v in raw["sizes"])
        p_s = np.array(raw["p_s"], dtype=float)
        channel = np.array(raw["channel"], dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise OutOfRange(f"dmc config needs sizes, p_s and channel arrays: {e}") from None
    return DmcSpec(sizes=sizes, p_s=p_s, channel=channel)


def _cmd_dmc(args, cfg: dict) -> int:
    dmc_cfg = cfg.get("dmc", {}) if isinstance(cfg.get("dmc"), dict) else {}
    spec = _parse_dmc_spec(cfg, args.pipes)
    bounds = _pick(args.bounds, dmc_cfg, "bounds", "informed-source")
    denominator = _as_int("denominator", _pick(args.denominator, dmc_cfg, "denominator", 8))
    objective = _pick(args.objective, dmc_cfg, "objective", "r02")
    result = dmc_maximize(spec, bounds=bounds, denominator=denominator, objective=objective)
    payload = _round12(
        {
            "bounds": result.bounds,
            "denominator": denominator,
            "objective": objective,
            "evaluations": result.evaluations,
            "value": {"r1": result.value.r1, "r02": result.value.r02},
            "best_pmf": result.best.pmf.tolist(),
            "axis_order": ["s", "u1", "u2", "x1", "x2"],
        }
    )
    _write_output(_pick(args.out, cfg, "out"), json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_point(args, cfg: dict) -> int:
    channel, _ = _get_channel(args, cfg)
    raw = _pick(args.params, cfg, "params")
    if raw is None:
        raise OutOfRange("point needs --params gamma,rho,beta,alpha2 (or params in the config)")
    params = _parse_params(raw)
    coeffs = gdpc_coeffs(channel, params)
    r = gdpc_rates(channel, params)
    values = {
        "qprime": coeffs.qprime,
        "a": coeffs.a,
        "b": coeffs.b,
        "c": coeffs.c,
        "d": coeffs.d,
        "r1_sum": r.r1_sum,
        "r2_sum": r.r2_sum,
        "r_private": r.r_private,
    }
    for name, value in values.items():
        print(f"{name} {_fmt(value)}")
    out = _pick(args.out, cfg, "out")
    if out is not None:
        _write_output(out, json.dumps(_round12(values), indent=2) + "\n")
    return 0


_COMMANDS = {
    "frontier": _cmd_frontier,
    "sweep-snr": _cmd_sweep,
    "verify": _cmd_verify,
    "dmc": _cmd_dmc,
    "point": _cmd_point,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except RelayRegionsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
