"""Command-line front end.

Commands:

* ``frontier``   trace a rate-region boundary over gamma, emit CSV
* ``sweep-snr``  relay-channel rate versus source SNR in dB, emit CSV
* ``verify``     run the covariance-oracle checks, emit a JSON report
* ``dmc``        brute-force a small discrete channel, emit JSON
* ``point``      evaluate one parameter tuple and print every
                 intermediate quantity

Configuration can come from a JSON file (``--config``) and from flags;
flags win field by field. ``_OPTIONS`` is the whole option surface: one
row per config key holds its default, parser and help, and each
``_COMMANDS`` row names the keys its subcommand takes. argparse only maps
a flag (the key with ``-`` for ``_``) to its key as a plain string, so a
flag and a config value go through the same parser, and a choice is
checked only by the function that takes it. Powers are linear
everywhere except the ``--snr-db`` axis of sweep-snr, which is the one
deliberate dB boundary.
Every number in CSV or JSON output is rendered with 12 significant
digits and files are written atomically (write to a temp file in the
same directory, then rename), so identical configs produce byte
identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

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
    _require_count,
    _require_real,
    _require_tol,
    _require_unit,
    rho_upper_bound,
)
from .optimize import DEFAULT_GRID, GridSpec, _snr_n1, frontier, sweep_snr
from .rates import gdpc_rates

EXAMPLE_CHANNEL = ChannelParams(p1=1.0, p2=1.0, q=1.0, n1=0.1, n2=1.0)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    """Recursively snap floats to 12 significant digits for JSON."""
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


def _float(value):
    """Text as the float it spells; any other value for the model to check."""
    if not isinstance(value, str):
        return value
    try:
        return float(value)
    except ValueError:
        raise OutOfRange(f"expects a number, got {value!r}") from None


def _floats(values) -> list[float]:
    try:
        return [_float(v) for v in values]
    except TypeError:
        raise OutOfRange(f"expects a list of numbers, got {values!r}") from None


def _as_int(value) -> int:
    """An integer field: 4.9 and true are rejected, not truncated; an
    integer, or a string that spells one, is read exactly, even past
    float range."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not number.is_integer():
        raise OutOfRange(f"must be an integer, got {value!r}")
    return int(number)


def _text(value) -> str:
    if not isinstance(value, str):
        raise OutOfRange(f"expects a string, got {value!r}")
    return value


def _record(cls):
    """A parser for the dataclass cls from its float fields as a comma
    string, a list, or an object keyed by field name."""
    names = [f.name for f in fields(cls)]

    def parse(value):
        if isinstance(value, dict):
            if set(value) != set(names):
                raise OutOfRange(f"needs exactly the keys {names}, got {list(value)}")
            value = [value[name] for name in names]
        elif isinstance(value, str):
            value = value.split(",")
        numbers = _floats(value)
        if len(numbers) != len(names):
            raise OutOfRange(f"expects {','.join(names)}, got {value!r}")
        return cls(*numbers)

    return parse


# Most points an a:b:x range expands to, checked before it is built: a
# gdpc row on the default grid takes about 1.5 ms, so the longest range
# runs in about three minutes
_MAX_AXIS_POINTS = 10**5


def _check_points(count: int) -> int:
    if count > _MAX_AXIS_POINTS:
        raise OutOfRange(f"a range must hold at most {_MAX_AXIS_POINTS} points, got {count}")
    return count


def _linspace(a: float, b: float, n: float) -> list[float]:
    """a:b:n, n evenly spaced points."""
    n = _check_points(_require_count("n", _as_int(n), 1))
    return [float(v) for v in np.linspace(a, b, n)]


def _ladder(a: float, b: float, step: float) -> list[float]:
    """a:b:step, the inclusive arithmetic ladder."""
    if not step > 0:
        raise OutOfRange(f"step must be > 0, got {step}")
    span = (b - a) / step + 1e-9
    if not 0 <= span < math.inf:
        raise OutOfRange(f"range {a}:{b}:{step} has no points or no end")
    return [a + i * step for i in range(_check_points(math.floor(span) + 1))]


def _axis(expand, name: str, check):
    """A parser for 'a:b:x', expanded by expand(a, b, x), or a comma or
    JSON list of numbers; each value, called name, must pass check."""

    def parse(value) -> list[float]:
        if isinstance(value, str) and ":" in value:
            ends = value.split(":")
            if len(ends) != 3:
                raise OutOfRange(f"a range has three fields a:b:x, got {value!r}")
            return [check(name, v) for v in expand(*_floats(ends))]
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        return [check(name, v) for v in _floats(value)]

    return parse


_GRID_FORM = "r,b[,refines,shrink]"


def _grid(value) -> GridSpec:
    """r,b[,refines,shrink] as a comma string or a list, or an object of
    GridSpec fields."""
    if isinstance(value, str):
        value = value.split(",")
    if isinstance(value, list) and len(value) in (2, 4):
        value = dict(zip([f.name for f in fields(GridSpec)], value))
    if not isinstance(value, dict):
        raise OutOfRange(f"expects {_GRID_FORM} (2 or 4 fields), got {value!r}")
    try:
        return GridSpec(
            **{k: _float(v) if k == "refine_shrink" else _as_int(v) for k, v in value.items()}
        )
    except TypeError as e:
        raise OutOfRange(f"{e}; the grid is {_GRID_FORM}") from None


_PIPES = object()  # what --pipes stores as the dmc spec; no JSON value is it


def _nested_floats(name: str, value):
    """Nested lists of numbers: a bool is rejected, not read as 1.0 by numpy."""
    if isinstance(value, list):
        return [_nested_floats(name, v) for v in value]
    return _require_real(name, _float(value))


def _dmc_spec(value) -> DmcSpec:
    if value is _PIPES:
        return binary_pipes_spec()
    try:
        sizes = tuple(_as_int(v) for v in value["sizes"])
        p_s = np.array(_nested_floats("p_s", value["p_s"]), dtype=float)
        channel = np.array(_nested_floats("channel", value["channel"]), dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise OutOfRange(f"needs sizes, p_s and channel arrays: {e}") from None
    except RecursionError:
        raise OutOfRange("p_s or channel nests too deeply to read") from None
    return DmcSpec(sizes=sizes, p_s=p_s, channel=channel)


class _Required(str):
    """The default of a field that must be given: the flag to name if it is not."""


# One row per option: config key (also the flag's dest): (default, parser,
# help). Defaults are stated parsed; the parser takes a flag string or a
# JSON value. scheme, bounds, denominator and objective are checked against
# their choices by the function that takes them, which names the field.
_OPTIONS = {
    "channel": (EXAMPLE_CHANNEL, _record(ChannelParams), "p1,p2,q,n1,n2 (linear powers)"),
    "out": (None, _text, "output path (default: stdout)"),
    "grid": (DEFAULT_GRID, _grid, f"search grid {_GRID_FORM}"),
    "scheme": ("gdpc", _text, f"one of {', '.join(SCHEMES)}"),
    "gamma_grid": (_linspace(0, 1, 21), _axis(_linspace, "gamma", _require_unit),
                   "a:b:n or explicit comma list"),
    "snr_db": (_Required("--snr-db"), _axis(_ladder, "snr_db", _require_real),
               "a:b:step or explicit comma list"),
    "params": (
        _Required("--params gamma,rho,beta,alpha2"), _record(GdpcParams), "gamma,rho,beta,alpha2"
    ),
    "tol": (1e-9, lambda v: _require_tol(_float(v)), "pass tolerance in bits"),
    "seed": (0, lambda v: _require_count("seed", _as_int(v), 0), "seed for draws and sampling"),
    "mc_samples": (10**6, _as_int, "Monte-Carlo sample count"),
    "dmc": (_Required("--pipes"), _dmc_spec, "use the built-in noiseless binary spec"),
    "bounds": ("informed-source", _text, "informed-source or informed-both"),
    "denominator": (8, _as_int, "4, 8 or 16"),
    "objective": ("r02", _text, "r02 or r1"),
}
_DMC_KEYS = ("bounds", "denominator", "objective")  # read from the config's dmc object
_SPEC_KEYS = ("sizes", "p_s", "channel")  # the spec itself, read by _dmc_spec


def _options(args: argparse.Namespace, cfg: dict) -> argparse.Namespace:
    """Each table field the subcommand defines, from its flag, else its
    config key, else its default, parsed in table order. A JSON null
    counts as absent."""
    given = vars(args)
    dmc_cfg = cfg["dmc"] if isinstance(cfg.get("dmc"), dict) else {}
    opts = argparse.Namespace()
    for key, (default, parse, _) in _OPTIONS.items():
        if key not in given:
            continue
        raw = given[key]
        if raw is None:
            raw = (dmc_cfg if key in _DMC_KEYS else cfg).get(key)
        if raw is None and isinstance(default, _Required):
            raise OutOfRange(f"{args.command} needs {default} (or {key} in the config)")
        setattr(opts, key, default if raw is None else _keyed(key, parse, raw))
    return opts


def _keyed(key: str, check, *args):
    """check(*args), with a RelayRegionsError's message led by the key it concerns."""
    try:
        return check(*args)
    except RelayRegionsError as e:
        raise type(e)(f"{key}: {e}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r") as handle:
        try:
            cfg = json.load(handle)
        except RecursionError:
            raise OutOfRange("config file nests too deeply to read") from None
    if not isinstance(cfg, dict):
        raise OutOfRange("config file must hold a JSON object")
    # a key that nothing reads is a typo, not a value to drop silently
    for key in cfg:
        if key in _DMC_KEYS:
            raise OutOfRange(f"config key {key!r} belongs in the dmc object")
        if key not in _OPTIONS:
            raise OutOfRange(f"unknown config key {key!r}")
    if isinstance(cfg.get("dmc"), dict):
        for key in cfg["dmc"]:
            if key not in _SPEC_KEYS + _DMC_KEYS:
                raise OutOfRange(f"unknown key {key!r} in the config's dmc object")
    return cfg


@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_COMMANDS`` row and one string flag per key it
    takes; ``--pipes``, which stores the built-in spec as ``dmc``, is the
    one flag that holds no string."""
    parser = argparse.ArgumentParser(
        prog="relayregions",
        description="Rate regions of the relay broadcast channel with "
        "additive interference known at the encoder(s).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in keys:
            default, _, text = _OPTIONS[key]
            if isinstance(default, (str, int, float)) and not isinstance(default, _Required):
                text = f"{text} (default {default})"
            if key == "dmc":
                p.add_argument("--pipes", dest=key, action="store_const", const=_PIPES, help=text)
            else:
                p.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def _cmd_frontier(o: argparse.Namespace) -> int:
    front = frontier(o.channel, o.scheme, o.gamma_grid, o.grid)
    lines = ["scheme,gamma,rho,beta,alpha2,r1,r02"]
    # every field is a Python float, so each reads as _fmt writes it
    lines += (
        f"{front.scheme},{pt.gamma:.12g},{pt.rho:.12g},{pt.beta:.12g},{pt.alpha2:.12g},"
        f"{pt.rate.r1:.12g},{pt.rate.r02:.12g}"
        for pt in front.points
    )
    _write_output(o.out, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(o: argparse.Namespace) -> int:
    for snr in o.snr_db:  # n1 needs the channel, so no option parser can check it
        _keyed("snr_db", _snr_n1, o.channel.p1, snr)
    rows = sweep_snr(o.channel, o.snr_db, o.scheme, o.grid)
    lines = ["scheme,snr_db,n1,rate,skipped"]
    for row in rows:
        rate = "" if row.rate is None else _fmt(row.rate)
        lines.append(
            f"{o.scheme},{_fmt(row.snr_db)},{_fmt(row.n1)},{rate},{int(row.skipped)}"
        )
    _write_output(o.out, "\n".join(lines) + "\n")
    return 0


def _verify_reports(
    channel: ChannelParams, tol: float, seed: int, mc_samples: int
) -> list[VerifyReport]:
    # the sample count is checked where it is used: draw first, so a bad
    # count fails before the other reports run; its report comes last
    cov = build_cov_informed_both(channel, InformedBothParams(0.5, 0.5))
    estimate = _keyed(
        "mc_samples", sample_mi_estimate, cov, ["U1", "U2"], ["Y2"], [], mc_samples, seed
    )
    rng = np.random.default_rng(seed)
    reports: list[VerifyReport] = []

    both_points = [(0.5, 0.5)]
    both_points += [(rng.uniform(0, 0.95), rng.uniform(0, 1)) for _ in range(3)]
    for gamma, beta in both_points:
        reports.append(
            verify_informed_both(channel, InformedBothParams(gamma, beta), tol)
        )

    source_points = [(0.2, 0.3, 0.4, 0.5)]
    for _ in range(3):
        gamma = rng.uniform(0, 0.95)
        frac = rng.uniform(0, 1)
        source_points.append(
            (gamma, frac * rho_upper_bound(channel, gamma), rng.uniform(0, 0.98), rng.uniform(0, 1))
        )
    for gamma, rho, beta, alpha2 in source_points:
        rho = min(rho, rho_upper_bound(channel, gamma))
        reports.append(verify_gdpc(channel, GdpcParams(gamma, rho, beta, alpha2), tol))

    if channel.p2 > 0:
        relay_points = [(0.0, 0.36), (rng.uniform(0, 0.95), rng.uniform(0, 1))]
    else:
        # with no relay power the identity only survives at the beta edges
        relay_points = [(0.0, 0.0), (0.0, 1.0)]
    for gamma, beta in relay_points:
        reports.append(
            verify_relay_identity(channel, InformedBothParams(gamma, beta), tol)
        )

    exact = gaussian_cmi(cov, ["U1", "U2"], ["Y2"], [])
    reports.append(
        VerifyReport(
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


def _cmd_verify(o: argparse.Namespace) -> int:
    reports = _verify_reports(o.channel, o.tol, o.seed, o.mc_samples)
    if o.channel is EXAMPLE_CHANNEL:  # parsing always builds a new one
        print(
            "note: no channel given; using the example channel "
            "p1=1 p2=1 q=1 n1=0.1 n2=1 (noise powers ordered n1 < n2: "
            "the relay branch is the cleaner one by construction)"
        )
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} max_abs_diff={_fmt(rep.max_abs_diff)} tol={_fmt(rep.tol)}")
    if o.out is not None:
        payload = _round12([rep.to_dict() for rep in reports])
        _write_output(o.out, json.dumps(payload, indent=2) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_dmc(o: argparse.Namespace) -> int:
    result = dmc_maximize(o.dmc, bounds=o.bounds, denominator=o.denominator, objective=o.objective)
    payload = _round12(
        {
            "bounds": result.bounds,
            "denominator": o.denominator,
            "objective": o.objective,
            "evaluations": result.evaluations,
            "value": {"r1": result.value.r1, "r02": result.value.r02},
            "best_pmf": result.best.pmf.tolist(),
            "axis_order": ["s", "u1", "u2", "x1", "x2"],
        }
    )
    _write_output(o.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_point(o: argparse.Namespace) -> int:
    r = _keyed("params", gdpc_rates, o.channel, o.params)  # rho's bound depends on the channel
    if math.inf in r[3:]:  # a product that cannot be printed
        raise OutOfRange(
            f"the products a, b, c, d and qprime leave the float range at {o.params} on {o.channel}"
        )
    values = {
        "qprime": r.qprime,
        "a": r.a,
        "b": r.b,
        "c": r.c,
        "d": r.d,
        "r1_sum": r.r1_sum,
        "r2_sum": r.r2_sum,
        "r_private": r.r_private,
    }
    for name, value in values.items():
        print(f"{name} {_fmt(value)}")
    if o.out is not None:
        _write_output(o.out, json.dumps(_round12(values), indent=2) + "\n")
    return 0


# One row per subcommand: handler, help, and the _OPTIONS keys it takes
# in the order its help lists them.
_COMMANDS = {
    "frontier": (_cmd_frontier, "trace a rate-region boundary over gamma",
                 ("channel", "out", "grid", "scheme", "gamma_grid")),
    "sweep-snr": (_cmd_sweep, "relay-channel rate versus SNR (dB)",
                  ("channel", "out", "grid", "scheme", "snr_db")),
    "verify": (_cmd_verify, "cross-check closed forms against the oracle",
               ("channel", "out", "tol", "seed", "mc_samples")),
    "dmc": (_cmd_dmc, "brute-force a small discrete channel",
            ("out", "dmc", "bounds", "denominator", "objective")),
    "point": (_cmd_point, "evaluate one (gamma,rho,beta,alpha2) tuple",
              ("channel", "out", "params")),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_options(args, _load_config(args.config)))
    except (RelayRegionsError, OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
