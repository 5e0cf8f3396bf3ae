"""Per-layer spans recorded from the benchmark's side of each call.

``Tracer.install`` replaces every instrumented relayregions function, in
each module namespace that binds it, with a wrapper that times the call.
Rebinding every namespace matters because the package calls across
modules through names imported at load time: ``cli`` calls its own
``frontier`` binding, ``optimize`` calls its own ``gdpc_rates`` binding,
and so on. ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as per-name aggregates (calls, total time, self
time, failures) plus parent-to-child call counts, which is the shape the
per-layer metrics need. Self time is the span's duration minus the time
covered by its traced children.
"""

from __future__ import annotations

import importlib
import time

MODULES = ("cli", "optimize", "rates", "gaussian", "dmc", "model")

# span name -> the functions it covers, as (module, attribute). A missing
# attribute is skipped, so a later refactor that removes one shows as a
# zero count instead of breaking the run.
SPANS = {
    "cli.main": [("cli", "main")],
    "optimize.frontier": [("optimize", "frontier")],
    "optimize.sweep_snr": [("optimize", "sweep_snr")],
    "optimize.max_r02_gdpc": [("optimize", "max_r02_gdpc")],
    "optimize.max_beta_nostate": [("optimize", "max_beta_nostate")],
    "rates.gdpc_rates": [("rates", "gdpc_rates")],
    "rates.nostate_terms": [("rates", "nostate_terms")],
    "gaussian.build_cov": [
        ("gaussian", "build_cov_informed_both"),
        ("gaussian", "build_cov_informed_source"),
    ],
    "gaussian.gaussian_cmi": [("gaussian", "gaussian_cmi")],
    "gaussian.verify": [
        ("gaussian", "verify_gdpc"),
        ("gaussian", "verify_informed_both"),
        ("gaussian", "verify_relay_identity"),
    ],
    "gaussian.sample_mi_estimate": [("gaussian", "sample_mi_estimate")],
    "dmc.dmc_maximize": [("dmc", "dmc_maximize")],
    "dmc.compose_full": [("dmc", "compose_full")],
    "dmc.discrete_cmi": [("dmc", "discrete_cmi")],
    # re-validation of inputs the callee already holds validated: the
    # channel and knob validators, and the pmf checks the discrete search
    # repeats for every candidate
    "model.validate": [
        ("model", "validate_channel"),
        ("model", "validate_gdpc"),
        ("dmc", "_check_pmf"),
    ],
}


def _grid_cells(counters, args, kwargs, out):
    counters["optimize.max_r02_gdpc.grid_cells"] += out.evaluations


def _candidates(counters, args, kwargs, out):
    counters["dmc.dmc_maximize.candidates"] += out.evaluations


def _verify_failed(counters, args, kwargs, out):
    counters["gaussian.verify.failed"] += 0 if out.passed else 1


def _samples(counters, args, kwargs, out):
    n = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
    counters["gaussian.sample_mi_estimate.samples"] += n


# work counters read off a span's arguments or result
ON_RESULT = {
    "optimize.max_r02_gdpc": _grid_cells,
    "dmc.dmc_maximize": _candidates,
    "gaussian.verify": _verify_failed,
    "gaussian.sample_mi_estimate": _samples,
}
# spans whose raised exceptions count as failed operations
FAIL_ON_RAISE = {"gaussian.verify": "gaussian.verify.failed"}

COUNTERS = (
    "optimize.max_r02_gdpc.grid_cells",
    "dmc.dmc_maximize.candidates",
    "gaussian.verify.failed",
    "gaussian.sample_mi_estimate.samples",
)


class Tracer:
    """Span aggregates for one stretch of traced work."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.edges: dict[tuple[str, str], int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []

    def _wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        fail_counter = FAIL_ON_RAISE.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else "-"
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if fail_counter:
                    self.counters[fail_counter] += 1
                raise
            finally:
                elapsed = perf() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if on_result is not None:
                on_result(self.counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module("relayregions")]
        modules += [importlib.import_module(f"relayregions.{m}") for m in MODULES]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                home = importlib.import_module(f"relayregions.{mod_name}")
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates gathered since ``reset``."""
        return {
            "spans": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
            "counters": dict(self.counters),
        }


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metric values of one traced round."""
    spans, counters = snap["spans"], snap["counters"]
    out: dict[str, float] = {}
    for name, s in spans.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    out.update(counters)
    gdpc_self = spans["optimize.max_r02_gdpc"]["self_s"]
    cells = counters["optimize.max_r02_gdpc.grid_cells"]
    out["optimize.max_r02_gdpc.cells_per_s"] = cells / gdpc_self if gdpc_self > 0 else 0.0
    dmc_total = spans["dmc.dmc_maximize"]["total_s"]
    cands = counters["dmc.dmc_maximize.candidates"]
    out["dmc.dmc_maximize.per_candidate_us"] = 1e6 * dmc_total / cands if cands else 0.0
    out["cli.self_s"] = spans["cli.main"]["self_s"]
    return out
