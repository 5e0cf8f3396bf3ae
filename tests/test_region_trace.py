"""The region-trace benchmark's CSV outputs, pinned by sha256.

``tests/data/region_trace.sha256`` holds the digest of each of the 90
CSVs that ``RegionTrace(seed, "full")`` writes for seeds 1, 3 and 7:
six channels per seed, each with a gdpc, a dpc and two nostate-outer
frontiers and a gdpc SNR sweep. The test runs the same CLI jobs into a
temporary directory and compares every digest, so a change to the
search or its alpha2 kernel that moves one printed digit fails here.
``benchmarks/workloads.py`` supplies the channels and the argv; it is
only read. A change that moves these outputs on purpose rewrites the
file from ``region_trace_digests``, in ``sha256sum`` format, and lists
the moved lines in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).parent / "data" / "region_trace.sha256"
SEEDS = (1, 3, 7)


def _workloads():
    """benchmarks/workloads.py as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(
        "_region_trace_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]
    return module


def region_trace_digests(workdir: Path) -> dict[str, str]:
    """Run the full region-trace job list of every seed through
    ``cli.main`` and return {"seed<S>/<file>.csv": sha256 hex}."""
    workloads = _workloads()
    digests = {}
    for seed in SEEDS:
        out = workdir / f"seed{seed}"
        out.mkdir()
        trace = workloads.RegionTrace(seed, "full", out)
        for job, path in zip(trace.jobs, trace.outs):
            assert job.run() == 0, job.label
            digests[f"seed{seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_region_trace_csvs_match_their_pins(tmp_path):
    want = dict(reversed(line.split("  ")) for line in PINS.read_text().splitlines())
    assert len(want) == 90
    assert region_trace_digests(tmp_path) == want
