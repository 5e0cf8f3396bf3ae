"""relayregions benchmark: one command, three seeded workloads.

    python3 benchmarks/run.py --workload region-trace --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The driver pins BLAS and OpenMP to one
thread, times set-up as fresh interpreters that import
``relayregions.cli``, then runs the workload in one more fresh
interpreter (worker.py) and prints two lines: a JSON record of the
environment, draws and per-workload details, then the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1``
the ``per_layer`` list.

``--size smoke`` shrinks every job list for the smoke test; the default
``full`` is what the workloads in BENCHMARK.json describe.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROBES = {"full": 7, "smoke": 1}
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140
TAIL_CAP = 0.90
MAX_LISTED = 50  # failed operations listed by name in the record line
# Median time of worker.py's calibration kernel on the reference machine.
# Every time is scaled by this over the kernel's median in the same run, so
# that the load other tenants put on a shared machine cancels out.
REFERENCE_CALIBRATION_S = 0.020
TIME_UNITS = {"s", "ms", "us"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a child; on timeout or interruption kill it and reap it."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{proc.args[2:4]} exceeded {timeout} s") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _setup_time(env: dict[str, str]) -> float:
    """Seconds from launching a fresh interpreter until relayregions.cli
    is imported and the child says so."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _wait(proc, PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _run_worker(args, env: dict[str, str], workdir: Path) -> dict:
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir), "--result", str(result_path),
    ]
    # the worker's stdout goes to our stderr: our stdout carries only results
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr) as proc:
        _wait(proc, WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, capped at
    p90: above that, the few slowest oracle draws react to other tenants'
    cache pressure more than the calibration kernel does. Returns
    (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} jobs are too few for a tail percentile")
    beyond = max(10, math.ceil(n * (1.0 - TAIL_CAP)))
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def _at_reference_speed(value: float, unit: str, speed: float) -> float:
    """Scale a time, or a rate per second, to the reference machine's speed."""
    if unit in TIME_UNITS:
        return value * speed
    if unit.startswith("1/"):
        return value / speed
    return value


def _git_revision() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    wall = res["job_list_s"]
    lat = res["latencies_s"]
    pct, tail = _tail(lat)
    num, den = res["quality"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": res["work_units_per_round"] / wall,
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
        "inner_bound_share": num / den if den > 0 else 0.0,
    }
    extra = {"tail_percentile": pct, "jobs_timed": len(lat), "setup_samples_s": setup}
    return values, extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_PROBES), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "relayregions" / "__init__.py").is_file():
        print(f"error: no relayregions sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated driver unwinds, so its children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = _child_env()
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _setup_time(env)  # warm-up: byte-compiles the package once
        setup = [_setup_time(env) for _ in range(SETUP_PROBES[args.size])]
        res = _run_worker(args, env, workdir)
        if args.trace:
            values, extra = res["layer"], {"spans_one_round": res["spans_one_round"]}
            wanted = spec["per_layer"]
        else:
            values, extra = _end_to_end(res, setup)
            wanted = spec["end_to_end"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    speed = REFERENCE_CALIBRATION_S / statistics.median(res["calibration_s"])
    reported = {m["name"]: _at_reference_speed(values[m["name"]], m["unit"], speed) for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "environment": {
            "git_revision": _git_revision(),
            **res["environment"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "pinned_threads": {v: env[v] for v in THREAD_VARS},
        },
        "draws": res["draws"],
        "rounds": len(res["round_walls_s"]),
        "round_walls_s": res["round_walls_s"],
        "jobs_per_round": res["jobs_per_round"],
        "work_units_per_round": res["work_units_per_round"],
        "fail_frac": res["failed"] / res["attempted"],
        "failed_operations": dict(itertools.islice(res["failed_operations"].items(), MAX_LISTED)),
        "nondeterministic_jobs": res["nondeterministic"],
        "details": res["details"],
        "speed": {
            "calibration_s": res["calibration_s"],
            "reference_s": REFERENCE_CALIBRATION_S,
            "factor": speed,
        },
        "measured": {m["name"]: values[m["name"]] for m in wanted},
        **extra,
    }
    print(json.dumps(record))
    correct = not res["invariant_broken"] and not res["nondeterministic"]
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
