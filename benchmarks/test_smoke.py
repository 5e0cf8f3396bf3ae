"""Smoke test of the benchmark at minimal sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload once untraced and once traced with ``--size smoke``
and checks the output contract: metric names, every named metric present,
spans from all six layers, and each layer loaded only where intended.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
LAYERS = ("cli", "optimize", "rates", "gaussian", "dmc", "model")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            assert len(lines) == 2, proc.stdout
            out[workload, trace] = (json.loads(lines[0]), json.loads(lines[1]))
    return out


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present(runs, trace, key):
    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in WORKLOADS:
        _, result = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(NAME.fullmatch(k) for k in result["metrics"])


def test_end_to_end_metrics_are_nonzero(runs):
    for workload in WORKLOADS:
        _, result = runs[workload, 0]
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_traced_runs_cover_all_six_layers(runs):
    seen = set()
    for workload in WORKLOADS:
        record, _ = runs[workload, 1]
        seen |= {name.split(".")[0] for name, s in record["spans_one_round"]["spans"].items() if s["calls"]}
    assert seen == set(LAYERS)


def test_layers_load_only_where_intended(runs):
    def calls(workload, name):
        return runs[workload, 1][1]["metrics"][f"{name}.calls"]["value"]

    for workload in ("oracle-verify", "dmc-search"):
        assert calls(workload, "optimize.max_r02_gdpc") == 0
    for workload in ("region-trace", "oracle-verify"):
        assert calls(workload, "dmc.dmc_maximize") == 0
    for workload in ("region-trace", "dmc-search"):
        assert calls(workload, "gaussian.gaussian_cmi") == 0
    assert calls("region-trace", "optimize.max_r02_gdpc") > 0
    assert calls("dmc-search", "dmc.dmc_maximize") > 0
    assert calls("oracle-verify", "gaussian.gaussian_cmi") > 0


def test_oracle_failures_are_measured(runs):
    record, result = runs["oracle-verify", 0]
    assert result["failed"] > 0
    assert record["fail_frac"] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("region-trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
