"""One workload in one fresh interpreter; started by run.py.

``--probe`` only imports ``relayregions.cli`` and prints ``ready``, which
is what run.py times as set-up. Otherwise the worker builds the seeded
job list and runs it in rounds for about ``--seconds`` (see ``_rounds``).
It checks the first round's outputs, requires every later round to
reproduce them byte for byte, and writes its measurements as JSON to
``--result``.

With ``--trace 1`` the first half of the rounds runs untraced and the
second half traced, so the tracing overhead is measured in one process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2
MAX_STRETCH = 4  # times --seconds after which a slow machine stops adding rounds
# ten jobs beyond the tail percentile, and enough that it is never below the median
MIN_TIMED_JOBS = 22


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--workdir", type=Path)
    p.add_argument("--result", type=Path)
    return p.parse_args(argv)


def _run_round(jobs):
    latencies, outcomes = [], []
    perf = time.perf_counter
    for job in jobs:
        t0 = perf()
        try:
            value, error = job.run(), None
        except (Exception, SystemExit) as e:  # a failed operation, counted by check()
            value, error = None, e
        latencies.append(perf() - t0)
        outcomes.append((value, error))
    return latencies, outcomes


def _environment() -> dict:
    import numpy as np
    import relayregions

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")
        }
    except (KeyError, TypeError, AttributeError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relayregions").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas": blas,
        "relayregions": relayregions.__version__,
        "src_sha256": src.hexdigest(),
    }


def _static_counts() -> dict:
    import relayregions

    counts = {}
    for path in sorted((ROOT / "src" / "relayregions").glob("*.py")):
        counts[f"static.loc.{path.stem}"] = len(path.read_text().splitlines())
    counts["static.loc.total"] = sum(counts.values())
    counts["static.exports"] = len(relayregions.__all__)
    return counts


def _calibration_kernel() -> float:
    """Fixed work in the package's mix of interpreted arithmetic, small
    numpy calls with tiny linear algebra, and vectorized passes. It runs
    no relayregions code, so only the machine moves its time."""
    import numpy as np

    acc = 0.0
    for i in range(80_000):
        acc += math.log1p(i * 1e-3) * 0.5
    m = np.eye(6) + 0.1
    v = np.linspace(0.1, 1.0, 16)
    for i in range(1_200):
        acc += float(np.log2(v * (i + 1)).sum()) + np.linalg.slogdet(m)[1]
    x = np.linspace(0.0, 1.0, 100_000)
    for i in range(4):
        acc += float(np.sqrt(x * x + i).sum())
    return acc


def _calibrate() -> float:
    start = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - start


class _Timings:
    """Per-job latencies of every round of one stretch of the run, and the
    calibration kernel's time before each round and after the last."""

    def __init__(self, jobs) -> None:
        self.timed = [job.timed for job in jobs]
        self.rounds: list[list[float]] = []
        self.calibration_s: list[float] = []

    def job_medians(self) -> list[float]:
        """Each job's median time over the rounds, so that a burst of load
        from outside moves one sample of one job, not the estimate."""
        return [statistics.median(col) for col in zip(*self.rounds)]

    def job_list_s(self) -> float:
        return sum(self.job_medians())

    def timed_latencies(self) -> list[float]:
        """Latency samples for the percentiles: each timed job's median,
        once per round, so the percentile ranks count every round."""
        rounds = len(self.rounds)
        return [t for t, timed in zip(self.job_medians(), self.timed) if timed for _ in range(rounds)]


def _rounds(workload, seconds: float, min_timed: int = 0) -> int:
    """A fixed number of rounds, so that every run of one --seconds value
    samples the same jobs and its percentiles sit at the same ranks."""
    per_round = sum(job.timed for job in workload.jobs)
    return max(MIN_ROUNDS, -(-min_timed // per_round), round(seconds / workload.round_s))


def _measure(jobs, rounds: int, after_round, seconds: float) -> _Timings:
    """Run the job list ``rounds`` times; ``after_round`` sees each
    round's outcomes outside the timed stretch. On a machine so slow that
    the rounds would overrun the run's time limit, stop early."""
    timings = _Timings(jobs)
    give_up = time.perf_counter() + MAX_STRETCH * max(seconds, 10.0)
    for _ in range(rounds):
        if len(timings.rounds) >= MIN_ROUNDS and time.perf_counter() > give_up:
            break
        timings.calibration_s.append(_calibrate())
        latencies, outcomes = _run_round(jobs)
        timings.rounds.append(latencies)
        after_round(outcomes)
    timings.calibration_s.append(_calibrate())
    return timings


class _Outputs:
    """Checks the first round's outputs and compares later rounds to it."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.check = None
        self.rounds = 0
        self.nondeterministic: set[str] = set()

    def __call__(self, outcomes) -> None:
        payloads = [self.workload.payload(i, v, e) for i, (v, e) in enumerate(outcomes)]
        if self.first is None:
            self.first = payloads
            self.check = self.workload.check(outcomes)
        for job, a, b in zip(self.workload.jobs, self.first, payloads):
            if a != b:
                self.nondeterministic.add(job.label)
        self.rounds += 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.probe:
        import relayregions.cli  # noqa: F401  (the import is what is timed)

        print("ready", flush=True)
        return 0

    import relayregions

    pkg = Path(relayregions.__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        print(f"relayregions imported from {pkg}, not from this checkout", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    outputs = _Outputs(workload)
    result = {"environment": _environment(), "draws": workloads.DRAWS[args.workload]}
    if args.trace:
        half = max(1, _rounds(workload, args.seconds) // 2)
        plain = _measure(workload.jobs, half, outputs, args.seconds / 2.0)
        tracer = tracing.Tracer()
        per_round, spans = [], []

        def after_traced_round(outcomes):
            snap = tracer.snapshot()
            tracer.reset()
            per_round.append(tracing.layer_metrics(snap))
            spans.append(snap)
            outputs(outcomes)

        tracer.install()
        try:
            traced = _measure(workload.jobs, half, after_traced_round, args.seconds / 2.0)
        finally:
            tracer.uninstall()
        layer = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        layer["trace.overhead_s"] = traced.job_list_s() - plain.job_list_s()
        layer.update(_static_counts())
        result.update(layer=layer, spans_one_round=spans[0], traced_rounds=len(traced.rounds))
        timings = plain
        timings.calibration_s += traced.calibration_s
    else:
        rounds = _rounds(workload, args.seconds, MIN_TIMED_JOBS)
        timings = _measure(workload.jobs, rounds, outputs, args.seconds)
        result.update(
            latencies_s=timings.timed_latencies(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    check = outputs.check
    result.update(
        job_list_s=timings.job_list_s(),
        calibration_s=timings.calibration_s,
        round_walls_s=[sum(row) for row in timings.rounds],
        jobs_per_round=len(workload.jobs),
        work_units_per_round=workload.work_units,
        attempted=workload.operations * outputs.rounds,
        failed=len(check.failed) * outputs.rounds,
        invariant_broken=check.invariant_broken,
        nondeterministic=sorted(outputs.nondeterministic),
        failed_operations=check.failed,
        quality=[check.quality_num, check.quality_den],
        details=check.details,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
