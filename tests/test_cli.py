import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from relayregions import (
    SCHEMES, ChannelParams, GdpcParams, OutOfRange, RelayRegionsError, gdpc_rates,
)
from relayregions import rates
from relayregions.cli import (
    _COMMANDS,
    _DMC_KEYS,
    _MAX_AXIS_POINTS,
    _OPTIONS,
    _build_parser,
    _ladder,
    _linspace,
    _options,
    main,
)

from references import PROPERTY

CHANNEL = "1,1,2,0.1,1"
TINY_GRID = "5,5,1,0.5"
DATA = Path(__file__).parent / "data"
# The Monte-Carlo cross-check passes within 0.01 bits. Its estimator's sd
# is about 0.008 bits at 20,000 samples, so that count passed only on
# lucky draws; at 320,000 the sd is about 0.002 bits.
MC_SAMPLES = "320000"
HUGE_INT = 10**400  # a JSON integer with no float value
# the example channel 1,1,1,0.1,1 times 2^-600 and 2^600, as float reprs
SCALED_EXAMPLES = [
    "2.409919865102884e-181,2.409919865102884e-181,2.409919865102884e-181,"
    "2.4099198651028843e-182,2.409919865102884e-181",
    "4.149515568880993e+180,4.149515568880993e+180,4.149515568880993e+180,"
    "4.149515568880993e+179,4.149515568880993e+180",
]
# input errors the CLI reports with their message and exit code 2, the
# config paths relative to the repository root
ERROR_RUNS = [
    "point --channel 0,1,1,0.1,1 --params 0,0,0,0",
    "point --channel 1,-1,1,0.1,1 --params 0,0,0,0",
    "point --channel 1,1,1,1,0.5 --params 0,0,0,0",
    "dmc --config tests/data/dmc_p_s.json",
    "dmc --config tests/data/dmc_too_large.json",
    "dmc --config tests/data/dmc_many_cells.json",
    "frontier --config tests/data/frontier_misspelt_key.json",
    "dmc --pipes --config tests/data/dmc_top_level_key.json",
    "frontier --gamma-grid 0:1:1e14",
    "sweep-snr --snr-db 0:1e14:1",
    "frontier --gamma-grid 0,2",
    "frontier --gamma-grid 0:2:3",
    "point --channel 1,1,0.1,0.1,1 --params 0.2,0.99,0.4,0.5",
    "point --channel 1,1,0,0.1,1 --params 0.2,0.3,0.4,0.5",
    "sweep-snr --snr-db 0,nan",
    "verify --mc-samples 5",
    "verify --tol 0",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFrontierCommand:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--channel", CHANNEL,
            "--gamma-grid", "0:1:5", "--grid", TINY_GRID,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "scheme,gamma,rho,beta,alpha2,r1,r02"
        assert all(line.startswith("gdpc,") for line in lines[1:])
        assert len(lines[1].split(",")) == 7

    def test_deterministic_output_files(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "frontier", "--channel", CHANNEL, "--gamma-grid", "0:1:5",
            "--grid", TINY_GRID,
        ]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert not list(tmp_path.glob(".relayregions-*"))

    @pytest.mark.parametrize("before,after", [(None, 0o644), (0o640, 0o640), (0o666, 0o666)],
                             ids=["new", "replaced-0640", "replaced-0666"])
    def test_out_has_the_mode_a_plain_write_gives(self, capsys, tmp_path, before, after):
        # under umask 022, open(path, "w") makes a new file 0o644 and keeps
        # a replaced file's bits, even those the umask would clear
        out = tmp_path / "front.csv"
        if before is not None:
            out.write_text("old\n")
            out.chmod(before)
        mask = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "frontier", "--gamma-grid", "0,1", "--grid", TINY_GRID,
                             "--out", str(out))
        finally:
            os.umask(mask)
        assert (code, out.stat().st_mode & 0o777) == (0, after)
        assert out.read_text().startswith("scheme,")
        assert not list(tmp_path.glob(".relayregions-*"))

    def test_scheme_flag(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--channel", CHANNEL, "--scheme", "nostate-outer",
            "--gamma-grid", "0:0.5:2", "--grid", TINY_GRID,
        )
        assert code == 0
        assert out.startswith("scheme,")
        assert "nostate-outer," in out

    def test_rejects_unknown_scheme(self, capsys):
        # checked by frontier, the function that takes the scheme
        code, out, err = run(capsys, "frontier", "--scheme", "bogus")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown scheme 'bogus', want one of")

    def test_bad_channel_is_input_error(self, capsys):
        code, _, err = run(capsys, "frontier", "--channel", "1,1,1,2,1")
        assert code == 2
        assert "error:" in err

    def test_empty_gamma_list_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "frontier", "--channel", CHANNEL, "--gamma-grid", ",")
        assert code == 2 and "gamma" in err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": CHANNEL, "gamma_grid": []}))
        code, _, err = run(capsys, "frontier", "--config", str(cfg))
        assert code == 2 and "gamma" in err


class TestGoldenOutputs:
    """Default-grid CSVs of the example channel, written before the box
    search was batched over gamma, and dmc JSON; the output must not move
    by a byte. The nostate frontier and the point report were written
    before the range checks moved into the model types, and the 101-gamma
    gdpc frontier while each gdpc row ran a pass of the search alone."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("frontier_gdpc.csv", ["frontier", "--scheme", "gdpc", "--gamma-grid", "0:1:21"]),
            ("frontier_dpc.csv", ["frontier", "--scheme", "dpc", "--gamma-grid", "0:1:21"]),
            ("sweep_gdpc.csv", ["sweep-snr", "--scheme", "gdpc", "--snr-db", "0:30:5"]),
            (
                "frontier_nostate.csv",
                ["frontier", "--scheme", "nostate-outer", "--gamma-grid", "0:1:101"],
            ),
            ("point.out", ["point", "--params", "0.2,0.3,0.4,0.5"]),
            # 100 gdpc rows over many full passes of the batched search,
            # and the gamma = 1 row left over
            (
                "frontier_gdpc_101.csv",
                ["frontier", "--scheme", "gdpc", "--gamma-grid", "0:1:101"],
            ),
        ],
    )
    def test_byte_identical(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv, "--channel", "1,1,1,0.1,1")
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("channel", SCALED_EXAMPLES, ids=["2^-600", "2^600"])
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("frontier_dpc.csv", ["--scheme", "dpc", "--gamma-grid", "0:1:21"]),
            ("frontier_gdpc.csv", ["--scheme", "gdpc", "--gamma-grid", "0:1:21"]),
            ("frontier_nostate.csv", ["--scheme", "nostate-outer", "--gamma-grid", "0:1:101"]),
        ],
        ids=["dpc", "gdpc", "nostate"],
    )
    def test_scaled_channel_byte_identical(self, capsys, name, argv, channel):
        """The example channel times 2^-600 and 2^600 traces the example's
        frontiers byte for byte: rates depend on ratios of powers only."""
        code, out, _ = run(capsys, "frontier", *argv, "--channel", channel)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    @pytest.mark.parametrize(
        "name,command",
        [
            ("frontier_gdpc", "frontier"),
            ("frontier_dpc", "frontier"),
            ("sweep_gdpc", "sweep-snr"),
        ],
    )
    def test_config_file_twin(self, capsys, name, command):
        """The same runs given as a --config JSON (channel as an object, a
        list and a string; SNRs and grid as lists) instead of flags."""
        code, out, _ = run(capsys, command, "--config", str(DATA / f"{name}.json"))
        assert code == 0
        assert out.encode() == (DATA / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("dmc_pipes_d8.out.json", ["dmc", "--pipes", "--denominator", "8"]),
            # a two-state noisy spec, p_s in sixteenths, informed-both at
            # denominator 4 (both set in the config)
            ("dmc_two_state.out.json", ["dmc", "--config", str(DATA / "dmc_two_state.json")]),
            # a plateau: every candidate's r1 is 0 up to rounding
            (
                "dmc_pipes_d8_r1.out.json",
                ["dmc", "--pipes", "--denominator", "8", "--objective", "r1"],
            ),
            ("dmc_pipes_d16.out.json", ["dmc", "--pipes", "--denominator", "16"]),
            # a stuck-at defect at s = 1 with p_s = (3/4, 1/4): r02 reaches
            # its capacity 1 - 1/4
            (
                "dmc_defect_d16.out.json",
                ["dmc", "--config", str(DATA / "dmc_defect.json"), "--denominator", "16"],
            ),
            # the one golden whose distinct tied keys outnumber a chunk, so
            # the pool waits to double before each compaction
            (
                "dmc_pipes_d16_r1.out.json",
                ["dmc", "--pipes", "--denominator", "16", "--objective", "r1"],
            ),
            # the two-state spec under the informed-source bound
            (
                "dmc_two_state_is.out.json",
                ["dmc", "--config", str(DATA / "dmc_two_state.json"), "--bounds", "informed-source"],
            ),
            # the defect spec under informed-both: (r1, r02) = (0.75, 0.75)
            (
                "dmc_defect_d16_ib.out.json",
                [
                    "dmc", "--config", str(DATA / "dmc_defect.json"), "--denominator", "16",
                    "--bounds", "informed-both",
                ],
            ),
        ],
        ids=[
            "pipes", "two-state", "pipes-r1", "pipes-d16", "defect-d16", "pipes-d16-r1",
            "two-state-is", "defect-d16-ib",
        ],
    )
    def test_dmc_byte_identical(self, capsys, name, argv):
        """dmc JSON of the search that ties rates within 1e-12 bits and
        breaks ties by the smallest pmf."""
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    @staticmethod
    def _verify_values(capsys, tmp_path, channel):
        """verify's oracle and closed-form values on a channel, as CI
        compares them: without abs_diff and max_abs_diff, rounding noise
        near 1e-16, and the Monte-Carlo report, whose sample depends on
        LAPACK's eigenvectors."""
        path = tmp_path / "verify.json"
        assert run(capsys, "verify", "--channel", channel, "--out", str(path))[0] == 0
        reports = [r for r in json.loads(path.read_text()) if r["name"] != "monte-carlo-crosscheck"]
        for r in reports:
            del r["max_abs_diff"]
            for t in r["details"]:
                del t["abs_diff"]
        return json.dumps(reports, indent=2) + "\n"

    def test_verify_values_byte_identical(self, capsys, tmp_path):
        got = self._verify_values(capsys, tmp_path, "1,1,1,0.1,1")
        assert got == (DATA / "verify_example.json").read_text()

    @pytest.mark.parametrize(
        "name,channel",
        [
            ("verify_no_relay.json", "1,0,1,0.1,1"),
            ("verify_no_interference.json", "1,1,0,0.1,1"),
            ("verify_no_relay_no_interference.json", "1,0,0,0.1,1"),
        ],
        ids=["p2=0", "q=0", "p2=0,q=0"],
    )
    def test_zero_variance_verify_values_byte_identical(self, capsys, tmp_path, name, channel):
        """p2 = 0 makes X2 identically 0, and q = 0 makes S and Sprime so:
        labels the oracle drops by its rule's edge, a zero variance."""
        assert self._verify_values(capsys, tmp_path, channel) == (DATA / name).read_text()

    def test_errors_byte_identical(self, capsys, monkeypatch):
        """stderr and exit code of each input error, written while each
        check still raised its own exception type."""
        monkeypatch.chdir(DATA.parent.parent)
        lines = []
        for args in ERROR_RUNS:
            code, out, err = run(capsys, *args.split())
            assert out == ""
            lines += [f"$ relayregions {args}\n", err, f"exit {code}\n"]
        assert "".join(lines).encode() == (DATA / "errors.out").read_bytes()

    def test_parser_reused_across_calls(self, capsys):
        """The argparse tree is built once per process; a failed parse and
        the other subcommands leave it able to give the golden bytes."""
        _build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--no-such-flag"])
        assert exc.value.code == 2
        assert run(capsys, "verify", "--mc-samples", MC_SAMPLES)[0] == 0
        assert run(capsys, "dmc", "--pipes")[0] == 0
        code, out, _ = run(
            capsys, "frontier", "--scheme", "gdpc", "--gamma-grid", "0:1:21",
            "--channel", "1,1,1,0.1,1",
        )
        assert code == 0
        assert out.encode() == (DATA / "frontier_gdpc.csv").read_bytes()
        assert _build_parser.cache_info().misses == 1

    def test_parser_is_not_built_at_import(self):
        probe = (
            "import relayregions.cli as cli; "
            "assert cli._build_parser.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", probe], check=True)


class TestGridFlag:
    @pytest.mark.parametrize("grid", ["5,5", "5,5,1,0.5"])
    def test_two_or_four_fields_run(self, capsys, grid):
        code, out, _ = run(
            capsys, "frontier", "--channel", CHANNEL, "--gamma-grid", "0:1:3",
            "--grid", grid,
        )
        assert code == 0
        assert len(out.strip().split("\n")) > 1

    @pytest.mark.parametrize("grid", ["5,5,5", "5,5,5,1,0.5"])
    def test_old_alpha2_field_is_rejected(self, capsys, grid):
        code, _, err = run(
            capsys, "frontier", "--channel", CHANNEL, "--gamma-grid", "0:1:3",
            "--grid", grid,
        )
        assert code == 2
        assert "r,b[,refines,shrink]" in err

    @pytest.mark.parametrize("steps", [HUGE_INT, 10**29], ids=["huge", "1e29"])
    def test_oversized_grid_is_input_error(self, capsys, tmp_path, steps):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": CHANNEL, "grid": [steps, 5]}))
        code, _, err = run(capsys, "frontier", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: grid: steps_rho * steps_beta must be <= 1000000")

    def test_unbounded_refine_rounds_are_input_error(self):
        # each round is 4 cells, but 10**8 + 1 rounds would run for hours
        argv = [
            "frontier", "--scheme", "dpc", "--gamma-grid", "0",
            "--channel", "1,1,1,0.1,1", "--grid", "2,2,100000000,0.5",
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "relayregions.cli", *argv],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "error: grid: steps_rho * steps_beta * (refine_iters + 1) must be <= 10000000"
        )

    def test_config_alpha2_steps_are_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": CHANNEL, "grid": {"steps_alpha2": 5}}))
        code, _, err = run(capsys, "frontier", "--config", str(cfg))
        assert code == 2
        assert "r,b[,refines,shrink]" in err


class TestSweepCommand:
    def test_csv_with_skipped_row(self, capsys):
        code, out, _ = run(
            capsys, "sweep-snr", "--channel", CHANNEL,
            "--snr-db=-10,10", "--grid", TINY_GRID,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "scheme,snr_db,n1,rate,skipped"
        first = lines[1].split(",")
        assert first[1] == "-10" and first[3] == "" and first[4] == "1"
        second = lines[2].split(",")
        assert second[4] == "0" and float(second[3]) > 0

    def test_ladder_syntax(self, capsys):
        code, out, _ = run(
            capsys, "sweep-snr", "--channel", CHANNEL,
            "--snr-db", "10:20:5", "--grid", TINY_GRID,
        )
        assert code == 0
        snrs = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert snrs == ["10", "15", "20"]

    def test_missing_snr_axis(self, capsys):
        code, _, err = run(capsys, "sweep-snr", "--channel", CHANNEL)
        assert code == 2
        assert "snr" in err

    def test_scheme_error_gains_no_snr_key(self, capsys):
        # an SNR with no n1 names snr_db (ERROR_RUNS); the scheme's error is not keyed
        code, out, err = run(
            capsys, "sweep-snr", "--scheme", "bogus", "--snr-db", "0", "--grid", TINY_GRID
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown scheme 'bogus'")

    @pytest.mark.parametrize("snr", ["4000", "-4000", "-inf", ","])
    def test_unusable_snr_list_rejected(self, capsys, snr):
        code, _, err = run(
            capsys, "sweep-snr", "--channel", "1,1,1,0.1,1", f"--snr-db={snr}",
            "--grid", TINY_GRID,
        )
        assert code == 2
        assert "snr" in err


class TestFloatRange:
    """A channel whose nonzero powers span more than 2^500 is an input
    error, not a silent rate of 0 with RuntimeWarnings. These channels
    span 2^1993 or more, and in the powers as given their rate terms leave
    the float range."""

    RULE = "the nonzero powers may span at most 2**500 (about 1505 dB), got "
    SPAN = "error: channel: " + RULE

    @pytest.mark.parametrize(
        "argv",
        [
            ["frontier", "--scheme", "gdpc", "--gamma-grid", "0",
             "--channel", "1e300,1,1,1e-300,2e-300"],
            ["sweep-snr", "--snr-db", "0", "--channel", "1e300,1,1,1e-300,1e301"],
        ],
        ids=["frontier", "sweep-snr"],
    )
    def test_overflow_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--grid", TINY_GRID)
        assert code == 2
        assert out == ""
        assert err.startswith(self.SPAN + "1e-300 to ")
        assert "Warning" not in err

    def test_point_overflow_is_input_error(self):
        # the coefficients printed by point made numpy warn before the
        # typed error; a warning made an error is a traceback and exit 1
        proc = subprocess.run(
            [sys.executable, "-m", "relayregions.cli", "point",
             "--channel", "1e300,1,1,1e-300,1", "--params", "0,0,0,0"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == self.SPAN + "1e-300 to 1e+300\n"

    def test_point_private_rate_overflow_is_input_error(self, capsys):
        # gamma*p1/n1 overflows in the powers as given
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "point", "--channel", "1e300,1,1,1e-300,2e-300", "--params", "1,0,0,0"
            )
        assert (code, out) == (2, "")
        assert err == self.SPAN + "1e-300 to 1e+300\n"

    def test_nostate_overflow_is_input_error(self, capsys):
        # in the powers as given the relay term's argument overflows at
        # gamma = 0, and the crossing's C is inf - inf at gamma = 0.5
        code, out, err = run(
            capsys, "frontier", "--scheme", "nostate-outer", "--gamma-grid", "0,0.5",
            "--channel", "1e300,1,1,1e-300,2e-300",
        )
        assert (code, out, err) == (2, "", self.SPAN + "1e-300 to 1e+300\n")

    def test_nostate_without_relay_power(self, capsys):
        # p2 = 0 makes B = 0, and 4AC underflows in the powers as given;
        # the channel spans 2^665. tests/test_optimize.py reaches that
        # branch inside the domain
        code, out, err = run(
            capsys, "frontier", "--scheme", "nostate-outer", "--gamma-grid", "0",
            "--channel", "1,0,1,1e-200,2e-200",
        )
        assert (code, out, err) == (2, "", self.SPAN + "1e-200 to 1.0\n")

    def test_point_products_past_the_float_range(self, capsys):
        # the rates answer, but a = b = c = d = 1e600 in the caller's scale
        code, out, err = run(
            capsys, "point", "--channel", "1e300,1e300,1e300,1e300,2e300",
            "--params", "0.5,0,0.5,0.5",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: the products a, b, c, d and qprime leave the float range")

    def test_snr_past_the_span_is_input_error(self, capsys):
        # 1600 dB sets n1 = 1e-160, 2^532 below p1 = 1: that row's channel
        # is the error
        code, out, err = run(
            capsys, "sweep-snr", "--snr-db", "10,1600", "--channel", "1,1,1,0.1,1",
            "--grid", TINY_GRID,
        )
        assert (code, out, err) == (2, "", "error: " + self.RULE + "1e-160 to 1.0\n")


class TestWithoutRelayPower:
    """At p2 = 0 the binning correlation beta does nothing, and the search
    keeps beta = 0: the rows are the ones the search printed when beta
    still shrank the unknown power."""

    FRONTIER_ROWS = [
        "0,0,0,0.5,0,0.5",
        "0.2,0,0,0.4,0.792481250361,0.368482797083",
        "0.4,0,0,0.3,1.16096404744,0.257286586415",
        "0.6,0,0,0.2,1.40367746103,0.160964047444",
        "0.8,0,0,0.1,1.58496250072,0.0760015467225",
        "1,0,0,0,1.72971580932,0",
    ]

    @pytest.mark.parametrize("scheme", ["gdpc", "dpc"])
    def test_frontier(self, capsys, scheme):
        code, out, _ = run(
            capsys, "frontier", "--scheme", scheme, "--gamma-grid", "0:1:6",
            "--channel", "1,0,1,0.1,1",
        )
        assert code == 0
        assert out.splitlines() == [
            "scheme,gamma,rho,beta,alpha2,r1,r02",
            *(f"{scheme},{row}" for row in self.FRONTIER_ROWS),
        ]

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep-snr", "--snr-db", "0:30:10", "--channel", "1,0,1,0.1,1",
        )
        assert code == 0
        assert out.splitlines() == [
            "scheme,snr_db,n1,rate,skipped",
            "gdpc,0,1,,1",
            "gdpc,10,0.1,0.5,0",
            "gdpc,20,0.01,0.5,0",
            "gdpc,30,0.001,0.5,0",
        ]


class TestVerifyCommand:
    def test_default_channel_note_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--mc-samples", MC_SAMPLES, "--out", str(out_path)
        )
        assert code == 0
        assert out.splitlines()[0].startswith("note:")
        assert "informed-both-capacity: PASS" in out
        assert "gdpc-closed-forms: PASS" in out
        assert "relay-rate-identity: PASS" in out
        assert "monte-carlo-crosscheck: PASS" in out
        reports = json.loads(out_path.read_text())
        assert isinstance(reports, list)
        assert {r["name"] for r in reports} >= {
            "informed-both-capacity", "gdpc-closed-forms",
            "relay-rate-identity", "monte-carlo-crosscheck",
        }
        for r in reports:
            assert set(r) == {"name", "tol", "max_abs_diff", "pass", "details"}
            assert r["pass"] is True

    def test_explicit_channel_has_no_note(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--channel", CHANNEL, "--mc-samples", MC_SAMPLES
        )
        assert code == 0
        assert not out.startswith("note:")

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    @pytest.mark.parametrize("channel", ["1,0,1,0.1,1", "2,0,3,0.2,0.9", "4,0,4,1,8"])
    def test_channel_without_relay_power(self, capsys, channel, seed):
        # with p2 = 0 the relay input is 0 and reveals none of the binning
        # codeword: the gdpc closed forms failed by up to 0.56 bits
        code, out, _ = run(capsys, "verify", "--channel", channel, "--seed", seed)
        assert code == 0
        assert out.count("gdpc-closed-forms: PASS") == 4
        assert "FAIL" not in out

    def test_channel_without_interference(self, capsys):
        # q = 0 forces rho = 0, and the gdpc construction bins against
        # nothing: its reports are checked as on any other channel
        code, out, _ = run(capsys, "verify", "--channel", "1,1,0,0.1,1")
        assert code == 0
        assert out.count("gdpc-closed-forms: PASS") == 4
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "channel",
        [SCALED_EXAMPLES[0], "1e-9,1e-9,1e-9,1e-10,1e-9", SCALED_EXAMPLES[1]],
        ids=["2^-600", "1e-9", "2^600"],
    )
    def test_scaled_channel_passes(self, capsys, channel):
        # the oracle's dependence rule and its covariance checks are
        # relative to each label's variance: an absolute rule failed the
        # two small channels by up to 1.7 bits, and absolute checks
        # rejected 2^600's covariance as not positive semidefinite
        code, out, _ = run(
            capsys, "verify", "--channel", channel, "--mc-samples", MC_SAMPLES
        )
        assert code == 0
        assert out.count(": PASS") == 11
        assert "FAIL" not in out

    def test_sample_count_past_float_range_runs(self, capsys, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"mc_samples": HUGE_INT}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "monte-carlo-crosscheck: PASS" in out

    def test_bad_sample_count_fails_before_any_report(self, capsys, monkeypatch):
        for name in ("verify_informed_both", "verify_gdpc", "verify_relay_identity"):
            monkeypatch.setattr(f"relayregions.cli.{name}", mock.Mock(side_effect=AssertionError))
        code, out, err = run(capsys, "verify", "--mc-samples", "5")
        assert (code, out) == (2, "")
        assert err == "error: mc_samples: n_samples must be an integer >= 1000, got 5\n"

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert err == "error: seed: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"seed": 1.9, "mc_samples": 20000.7}, "seed"),
            ({"seed": 1, "mc_samples": 20000.7}, "mc_samples"),
        ],
    )
    def test_fractional_integer_fields_rejected(self, capsys, tmp_path, fields, name):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps(fields))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert name in err


class TestDmcCommand:
    def test_pipes_json(self, capsys):
        code, out, _ = run(capsys, "dmc", "--pipes", "--denominator", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["r02"] == 1.0
        assert doc["evaluations"] == 330
        assert doc["axis_order"] == ["s", "u1", "u2", "x1", "x2"]

    def test_needs_a_spec(self, capsys):
        code, _, err = run(capsys, "dmc")
        assert code == 2
        assert "pipes" in err

    def test_config_spec(self, capsys, tmp_path):
        cfg = tmp_path / "dmc.json"
        channel = [[[[ [1.0 if (y1 == x1 and y2 == x2) else 0.0 for y2 in range(2)]
                       for y1 in range(2)] for x2 in range(2)] for x1 in range(2)]]
        cfg.write_text(json.dumps({
            "dmc": {
                "sizes": [1, 1, 2, 2, 2, 2, 2],
                "p_s": [1.0],
                "channel": channel,
                "denominator": 4,
            }
        }))
        code, out, _ = run(capsys, "dmc", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["value"]["r02"] == 1.0

    @pytest.mark.parametrize("key", ["p_s", "channel"])
    def test_bool_entry_rejected(self, capsys, tmp_path, key):
        # a one-state spec whose outputs copy the inputs
        spec = {
            "sizes": [1, 1, 2, 2, 2, 2, 2],
            "p_s": [1.0],
            "channel": [[[[[1.0 if (y1, y2) == (x1, x2) else 0.0 for y2 in range(2)]
                           for y1 in range(2)] for x2 in range(2)] for x1 in range(2)]],
        }
        if key == "p_s":
            spec["p_s"] = [True]
        else:
            spec["channel"][0][0][0][0][0] = True
        cfg = tmp_path / "dmc.json"
        cfg.write_text(json.dumps({"dmc": {**spec, "denominator": 4}}))
        code, _, err = run(capsys, "dmc", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: dmc:") and "got True" in err

    def test_has_no_channel_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--pipes", "--channel", "1,2"])
        assert exc.value.code == 2

    def test_fractional_size_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "dmc.json"
        cfg.write_text(json.dumps({
            "dmc": {"sizes": [1, 1, 2.9, 2, 2, 2, 2], "p_s": [1.0], "channel": [0.0]}
        }))
        code, _, err = run(capsys, "dmc", "--config", str(cfg))
        assert code == 2
        assert "must be an integer, got 2.9" in err


class TestPointCommand:
    def test_prints_intermediate_quantities(self, capsys):
        code, out, _ = run(
            capsys, "point", "--channel", "1,1,1,0.1,1", "--params", "0.2,0.3,0.4,0.5"
        )
        assert code == 0
        got = dict(line.split() for line in out.strip().split("\n"))
        assert set(got) == {
            "qprime", "a", "b", "c", "d", "r1_sum", "r2_sum", "r_private"
        }
        want = gdpc_rates(
            ChannelParams(1, 1, 1, 0.1, 1), GdpcParams(0.2, 0.3, 0.4, 0.5)
        )
        assert float(got["r1_sum"]) == pytest.approx(want.r1_sum, abs=1e-11)
        assert got["qprime"] == "0.260204102887"

    def test_one_checked_evaluation(self, capsys):
        # the products and the rates come from one evaluation
        with mock.patch.object(rates, "_gdpc_point", wraps=rates._gdpc_point) as spy:
            code, _, _ = run(capsys, "point", "--params", "0.2,0.3,0.4,0.5")
        assert code == 0
        assert spy.call_count == 1

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "point", "--channel", CHANNEL)
        assert code == 2
        assert "params" in err

    def test_invalid_rho_for_channel(self, capsys):
        code, _, err = run(
            capsys, "point", "--channel", "1,1,0.1,0.1,1", "--params", "0.2,0.9,0.4,0.5"
        )
        assert code == 2
        assert "rho" in err


class TestNegativeZero:
    """A knob of -0 reads 0: no output carries the sign of a zero input."""

    def test_gamma_grid(self, capsys):
        want = run(capsys, "frontier", "--scheme", "dpc", "--gamma-grid", "0,1")
        assert want[0] == 0
        for grid in ("-0,0,1", "0,-0,1", "-0,1"):
            assert run(capsys, "frontier", "--scheme", "dpc", f"--gamma-grid={grid}") == want

    def test_point_params(self, capsys):
        want = run(capsys, "point", "--params", "0,0,0,0")
        assert want[0] == 0
        assert run(capsys, "point", "--params=-0,-0,-0,-0") == want


class TestInputRejections:
    """Each rejection branch of the option parsers exits 2 with an error
    line and prints nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["frontier", "--channel", "1,2,3"], "channel"),
            (["frontier", "--channel", CHANNEL, "--gamma-grid", "0:1:0"], "gamma_grid"),
            (["frontier", "--channel", CHANNEL, "--gamma-grid", "0:1"], "gamma_grid"),
            (["sweep-snr", "--channel", CHANNEL, "--snr-db", "0:10:0"], "snr_db"),
            # gammas past [0, 1] and rho past its bound are in ERROR_RUNS
            (["frontier", "--gamma-grid", "0,nan"], "gamma_grid"),
        ],
        ids=["channel-fields", "no-points", "two-fields", "zero-step", "gamma-nan"],
    )
    def test_flag(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}:")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("frontier", '{"channel": {"p1": 1}}', "error: channel: needs exactly the keys"),
            ("frontier", "[1, 2]", "error: config file must hold a JSON object"),
            ("frontier", '{"gamma_grid": [0.5, 1.5]}',
             "error: gamma_grid: gamma must lie in [0, 1], got 1.5"),
            # json.load recurses once per level
            ("frontier", '{"channel": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "error: config file nests too deeply to read\n"),
            # 600 levels load, and the array reader stops at 32
            ("dmc", '{"dmc": {"sizes": [1, 1, 1, 1, 1, 1, 1], "p_s": '
             + "[" * 600 + "1" + "]" * 600 + ', "channel": [1]}}',
             "error: dmc: needs sizes, p_s and channel arrays: p_s nests too deeply to read\n"),
        ],
        ids=["channel-keys", "not-an-object", "gamma-past-one", "deep-json", "deep-dmc-spec"],
    )
    def test_config(self, capsys, tmp_path, command, text, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(message)

    def test_out_naming_a_directory(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        code, out, err = run(
            capsys, "frontier", "--channel", CHANNEL, "--gamma-grid", "0:1:2",
            "--grid", TINY_GRID, "--out", str(taken),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        # the temporary file the output was written to is gone
        assert not list(tmp_path.glob(".relayregions-*"))
        assert not list(taken.iterdir())

    @pytest.mark.parametrize("where", ["missing-dir", "empty", "directory"])
    def test_out_error_names_the_path_given(self, capsys, tmp_path, monkeypatch, where):
        # the message open(path, "w") gives, not one naming the temp file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        path = {"missing-dir": str(tmp_path / "missing" / "x.csv"), "empty": "",
                "directory": str(tmp_path / "taken")}[where]
        with pytest.raises(OSError) as info:
            open(path, "w")
        code, out, err = run(capsys, "frontier", "--gamma-grid", "0,1", "--grid", TINY_GRID,
                             "--out", path)
        assert (code, out, err) == (2, "", f"error: {info.value}\n")
        assert path in err and ".relayregions-" not in err
        assert not list(tmp_path.glob(".relayregions-*"))


class TestConfigKeys:
    """A config key that nothing reads is an input error naming the key;
    a key another subcommand reads stays legal."""

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            ("frontier", {"gama_grid": "0:1:3"}, "error: unknown config key 'gama_grid'"),
            ("point", {"config": "other.json"}, "error: unknown config key 'config'"),
            *[
                ("dmc", {key: value}, f"error: config key {key!r} belongs in the dmc object")
                for key, value in (("bounds", "informed-both"), ("denominator", 4),
                                   ("objective", "r1"))
            ],
            ("frontier", {"dmc": {"denominator": 4, "sizes ": [1]}},
             "error: unknown key 'sizes ' in the config's dmc object"),
        ],
        ids=["misspelt", "config", "bounds", "denominator", "objective", "dmc-object"],
    )
    def test_unread_key_is_input_error(self, capsys, tmp_path, command, cfg, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        extra = ["--pipes"] if command == "dmc" else []
        code, out, err = run(capsys, command, *extra, "--config", str(path))
        assert (code, out, err) == (2, "", message + "\n")

    def test_keys_of_other_subcommands_stay_legal(self, capsys, tmp_path):
        cfg = {key: value for base in BASE_CONFIG.values() for key, value in base.items()}
        cfg["dmc"] = {"sizes": [1], "p_s": [1], "channel": [1], "bounds": "informed-both",
                      "denominator": 4, "objective": "r1"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run(capsys, "frontier", "--config", str(path))[0] == 0
        assert run(capsys, "dmc", "--pipes", "--config", str(path))[0] == 0


class TestAxisBound:
    """An a:b:x range holds at most _MAX_AXIS_POINTS points, counted from
    a, b and x before any point is built."""

    def test_bound_is_legal(self):
        assert len(_linspace(0.0, 1.0, _MAX_AXIS_POINTS)) == _MAX_AXIS_POINTS
        assert len(_ladder(1.0, _MAX_AXIS_POINTS, 1.0)) == _MAX_AXIS_POINTS

    @pytest.mark.parametrize(
        "expand, ends",
        [(_linspace, (0.0, 1.0, _MAX_AXIS_POINTS + 1)), (_ladder, (0.0, _MAX_AXIS_POINTS, 1.0)),
         (_linspace, (0.0, 1.0, 1e300)), (_ladder, (0.0, 1e300, 1.0))],
        ids=["linspace-one-over", "ladder-one-over", "linspace-huge", "ladder-huge"],
    )
    def test_past_the_bound_is_input_error(self, expand, ends):
        with pytest.raises(OutOfRange, match=f"a range must hold at most {_MAX_AXIS_POINTS} points"):
            expand(*ends)


class TestConfigMerge:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "channel": CHANNEL,
            "scheme": "dpc",
            "gamma_grid": "0:0.5:2",
            "grid": TINY_GRID,
        }))
        code, out, _ = run(capsys, "frontier", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[1].startswith("dpc,")
        code, out, _ = run(
            capsys, "frontier", "--config", str(cfg), "--scheme", "gdpc"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("gdpc,")

    def test_channel_as_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "channel": {"p1": 1, "p2": 1, "q": 2, "n1": 0.1, "n2": 1},
            "params": [0.2, 0.1, 0.4, 0.5],
        }))
        code, out, _ = run(capsys, "point", "--config", str(cfg))
        assert code == 0
        assert "r_private" in out

    @pytest.mark.parametrize(
        "command, fields, name",
        [
            ("frontier", {"gamma_grid": [0.5, HUGE_INT]}, "gamma"),
            ("sweep-snr", {"snr_db": [10, HUGE_INT]}, "snr"),
            ("point", {"params": [0.2, 0.1, 0.4, HUGE_INT]}, "params"),
            ("point", {"params": [0.2, 0.1, 0.4, 0.5], "channel": {
                "p1": 1, "p2": 1, "q": 2, "n1": 0.1, "n2": HUGE_INT}}, "channel"),
            ("frontier", {"gamma_grid": [0.5, None]}, "gamma"),
            ("frontier", {"gamma_grid": 5}, "gamma"),
        ],
        ids=["gamma_grid", "snr_db", "params", "channel", "null-entry", "not-a-list"],
    )
    def test_entry_that_is_not_a_float_is_input_error(
        self, capsys, tmp_path, command, fields, name
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": CHANNEL, "grid": TINY_GRID, **fields}))
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert name in err

    @pytest.mark.parametrize(
        "command, fields, name",
        [
            ("frontier", {"grid": [5.9, 5]}, "grid"),
            ("frontier", {"grid": [5, 5, True, 0.5]}, "grid"),
            ("sweep-snr", {"snr_db": "10", "grid": 5}, "grid"),
            ("point", {"params": [0.2, 0.1, 0.4, 0.5], "channel": {
                "p1": True, "p2": 1, "q": 2, "n1": 0.1, "n2": 1}}, "channel"),
            ("verify", {"tol": True}, "tol"),
        ],
        ids=["fractional-grid", "bool-refines", "grid-not-a-list", "bool-channel", "bool-tol"],
    )
    def test_no_silent_coercion(self, capsys, tmp_path, command, fields, name):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": CHANNEL, "grid": TINY_GRID, **fields}))
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert f"error: {name}:" in err

    def test_integral_grid_object_runs(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "channel": CHANNEL, "gamma_grid": "0:1:2", "grid": {"steps_rho": 5.0, "steps_beta": 5}
        }))
        code, out, _ = run(capsys, "frontier", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("argv, name", [
        (["verify", "--tol", "nan"], "tol"),
        (["verify", "--tol", "inf"], "tol"),
        (["sweep-snr", "--snr-db=0:inf:1", "--grid", TINY_GRID], "snr_db"),
    ])
    def test_unusable_flag_values_rejected(self, capsys, argv, name):
        code, _, err = run(capsys, *argv, "--channel", CHANNEL)
        assert code == 2
        assert f"error: {name}:" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "point", "--config", "/no/such/file.json")
        assert code == 2

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json {")
        code, _, err = run(capsys, "point", "--config", str(cfg))
        assert code == 2


def _table_fields():
    """Every (subcommand, config field) pair the option table defines."""
    return [
        (command, key)
        for command in _COMMANDS
        for key in _OPTIONS
        if key in vars(_build_parser().parse_args([command]))
    ]


# a valid config for each subcommand, small enough to run in milliseconds
BASE_CONFIG = {
    "frontier": {"channel": CHANNEL, "grid": TINY_GRID, "gamma_grid": "0:1:2"},
    "sweep-snr": {"channel": CHANNEL, "grid": TINY_GRID, "snr_db": "10"},
    "verify": {"mc_samples": int(MC_SAMPLES)},
    "dmc": {"dmc": {"denominator": 4}},
    "point": {"params": [0.2, 0.1, 0.4, 0.5]},
}


class TestOptionTable:
    """Each field of each subcommand, given an unusable config value, is
    an input error that names the field; it never raises out of main."""

    def test_every_subcommand_and_field_is_covered(self):
        pairs = _table_fields()
        assert {command for command, _ in pairs} == set(BASE_CONFIG)
        assert ("dmc", "channel") not in pairs
        assert ("dmc", "denominator") in pairs and ("verify", "seed") in pairs

    @pytest.mark.parametrize("command, key", _table_fields())
    @pytest.mark.parametrize(
        "value", [HUGE_INT, float("nan"), True, [[1]]], ids=["huge", "nan", "true", "nested"]
    )
    def test_bad_value(self, capsys, tmp_path, command, key, value):
        cfg = json.loads(json.dumps(BASE_CONFIG[command]))
        (cfg["dmc"] if key in _DMC_KEYS else cfg)[key] = value
        argv = [command, "--config", str(tmp_path / "run.json")]
        if command == "dmc" and key != "dmc":
            argv.append("--pipes")
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        code, _, err = run(capsys, *argv)
        if key in ("seed", "mc_samples") and value is HUGE_INT:
            assert code == 0  # an exact integer, even past float range
        else:
            assert code == 2
            assert key in err


# Good and bad values of each option key, each spelled as a flag string
# and as the config entry that holds the same value. dmc has no string flag
# (--pipes stores the built-in spec), so it has no twin.
TWINS = {
    "channel": [("1,1,2,0.1,1", {"p1": 1, "p2": 1, "q": 2, "n1": 0.1, "n2": 1}),
                ("1,1,1,2,1", [1, 1, 1, 2, 1])],
    "out": [("run.out", "run.out"), ("no-such-dir/run.out", "no-such-dir/run.out")],
    "grid": [("5.0,5", [5.0, 5]), ("5,0", [5, 0])],
    "scheme": [("dpc", "dpc"), ("bogus", "bogus")],
    "gamma_grid": [("0:1:3.0", "0:1:3.0"), ("0,x", [0, "x"])],
    "snr_db": [("10:20:5", [10, 15, 20]), ("0:inf:1", "0:inf:1")],
    "params": [("0.2,0.1,0.4,0.5", [0.2, 0.1, 0.4, 0.5]), ("0.2,0.1,0.4,2", [0.2, 0.1, 0.4, 2])],
    "tol": [("1e-6", 1e-6), ("0", 0)],
    "seed": [("5.0", 5.0), ("9007199254740993", 9007199254740993), (str(HUGE_INT), HUGE_INT),
             ("-1", -1), ("1.5", 1.5)],
    "mc_samples": [("2e4", 20000), ("4.9", 4.9)],
    "bounds": [("informed-both", "informed-both"), ("bogus", "bogus")],
    "denominator": [("8.0", 8.0), ("5", 5), ("4.9", 4.9)],
    "objective": [("r1", "r1"), ("bogus", "bogus")],
}
# the verify report need not pass here, only match between the two routes
TWIN_BASE = {**BASE_CONFIG, "verify": {"mc_samples": 20000}}


def _resolve(argv, cfg):
    """The options main would run with, or the message it would print."""
    try:
        return vars(_options(_build_parser().parse_args(argv), cfg))
    except RelayRegionsError as e:
        return f"error: {e}"


class TestFlagConfigTwin:
    """A value means the same whether a flag or the config gives it: one
    parser per option, and each choice is checked by the function that
    takes it."""

    def test_every_flag_has_twins(self):
        keys = {key for _, key in _table_fields()} - {"dmc"}
        assert keys == set(TWINS)
        assert all(len(values) >= 2 for values in TWINS.values())

    @pytest.mark.parametrize(
        "command, key, flag, entry",
        [
            pytest.param(command, key, flag, entry, id=f"{command}-{key}-{flag[:24]}")
            for command, key in _table_fields()
            for flag, entry in TWINS.get(key, ())
        ],
    )
    def test_flag_and_config_agree(self, capsys, tmp_path, monkeypatch, command, key, flag, entry):
        monkeypatch.chdir(tmp_path)
        base = json.loads(json.dumps(TWIN_BASE[command]))
        cfg = json.loads(json.dumps(base))
        (cfg["dmc"] if key in _DMC_KEYS else cfg)[key] = entry
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "twin.json").write_text(json.dumps(cfg))
        extra = ["--pipes"] if command == "dmc" else []
        by_flag = [command, *extra, "--config", "base.json", "--" + key.replace("_", "-"), flag]
        by_config = [command, *extra, "--config", "twin.json"]

        got_flag, got_config = _resolve(by_flag, base), _resolve(by_config, cfg)
        if isinstance(got_flag, str) or isinstance(got_config, str):
            # the message may echo the value as it was spelled
            for argv in (by_flag, by_config):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, "") and err.startswith(f"error: {key}:")
            return
        # DmcSpec compares by identity; both routes take --pipes
        got_flag.pop("dmc", None), got_config.pop("dmc", None)
        assert got_flag == got_config
        # an output path that cannot be written is named as given
        assert run(capsys, *by_flag) == run(capsys, *by_config)

    @pytest.mark.parametrize("text", ["9007199254740993", str(HUGE_INT)], ids=["2**53+1", "401-digit"])
    def test_integer_flag_is_read_exactly(self, text):
        assert _resolve(["verify", "--seed", text], {})["seed"] == int(text)

    def test_verify_report_from_float_spellings(self, capsys):
        assert run(capsys, "verify", "--seed", "1.0", "--mc-samples", "2e4") == run(
            capsys, "verify", "--seed", "1", "--mc-samples", "20000"
        )


# every option whose value is one of a few, with those values
CHOICES = {
    "scheme": SCHEMES,
    "bounds": ("informed-source", "informed-both"),
    "denominator": ("4", "8", "16"),
    "objective": ("r02", "r1"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_names_every_flag_and_choice(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps at hyphens: informed-|source
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = {}  # each flag's help entry, on one line
    for line in capsys.readouterr().out.split("options:")[1].splitlines()[1:]:
        if line.lstrip().startswith("-"):
            flag = line.split()[0]
            lines[flag] = line
        else:
            lines[flag] += line
    keys = _COMMANDS[command][2]
    flags = ["--pipes" if key == "dmc" else "--" + key.replace("_", "-") for key in keys]
    assert set(lines) == {"-h,", "--config", *flags}
    for key, flag in zip(keys, flags):
        assert all(choice in lines[flag] for choice in CHOICES.get(key, ()))


# Generated command lines: a subcommand (or a word that is none), a random
# subset of its flags in random order, each spelled well or, a quarter of
# the time, badly, and maybe a --config file holding other keys, with any
# JSON value. Every value keeps a run to milliseconds: a range holds at
# most a few dozen points, a JSON integer is at most 12, and no draw asks
# for denominator 16. "{tmp}" stands for the run's own directory.
FLAG_VALUES = {  # key: (good spellings, bad ones)
    "channel": ([CHANNEL, "1,0,0,0.1,1", "1e-200,1e-200,1e-190,1e-201,2e-200"],
                ["1,1,1,2,1", "1e300,1,1,1e-300,1", "1,1,1", "1,1,1,0.1,nan", "x", ""]),
    "out": (["{tmp}/run.out"], ["{tmp}/no-such-dir/run.out", "{tmp}"]),
    "grid": ([TINY_GRID, "5,5", "2,2,0,0.5"], ["5,0", "5,5,1,1", "1e9,1e9", "x"]),
    "scheme": (list(SCHEMES), ["bogus", ""]),
    "gamma_grid": (["0:1:3", "0,0.5,1", "1:0:2"], ["0:1:1e14", "0,2", "0,x", "0:1:0", "0:1", ""]),
    "snr_db": (["10", "0:30:10", "-5,5"], ["0:1e14:1", "0,nan", "0:inf:1", "5:0:1", "x"]),
    "params": (["0.2,0.1,0.4,0.5", "0,0,0,0", "1,0,1,1"],
               ["0.2,0.99,0.4,0.5", "0.2,0.1,0.4,2", "x"]),
    "tol": (["1e-9", "1e-300", "1"], ["0", "-1", "nan", "inf", "x"]),
    "seed": (["0", "5", "5.0", str(HUGE_INT)], ["-1", "1.5", "x"]),
    "mc_samples": (["2e4", "20000"], ["5", "4.9", "-1", "nan", "x"]),
    "bounds": (["informed-source", "informed-both"], ["bogus"]),
    "denominator": (["4", "8", "8.0"], ["5", "4.9", "x"]),
    "objective": (["r02", "r1"], ["bogus"]),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
FLOATS_TEXT = st.lists(st.floats().map(repr), min_size=3, max_size=6).map(",".join)
TWO_STATE = json.loads((DATA / "dmc_two_state.json").read_text())["dmc"]


def _rare(draw, odds: int) -> bool:
    """True once in odds draws; hypothesis starts from 0, the common case."""
    return draw(st.integers(0, odds - 1)) == odds - 1


def _flag_text(draw, key: str) -> str:
    good, bad = FLAG_VALUES[key]
    if not _rare(draw, 4):
        return draw(st.sampled_from(good))
    if key in ("channel", "params") and draw(st.booleans()):
        return draw(FLOATS_TEXT)
    return draw(st.sampled_from(bad))


def _config_value(draw, key: str):
    if _rare(draw, 4):
        return draw(JSON_VALUES)
    if key != "dmc":
        return _flag_text(draw, key)
    # the two-state spec with some of its options redrawn
    spec = dict(TWO_STATE)
    for option in _DMC_KEYS:
        if draw(st.booleans()):
            spec[option] = _config_value(draw, option)
    return spec


@st.composite
def command_lines(draw):
    """argv and the --config object it names (None for no --config)."""
    command = "bogus" if _rare(draw, 20) else draw(st.sampled_from(list(_COMMANDS)))
    keys = _COMMANDS[command][2] if command in _COMMANDS else ("channel",)
    argv = [command]
    for key in draw(st.permutations(keys)):
        if not draw(st.booleans()):
            continue
        if key == "dmc":
            argv.append("--pipes")
        else:
            argv += ["--" + key.replace("_", "-"), _flag_text(draw, key)]
    cfg = None
    if draw(st.booleans()):
        cfg = {key: _config_value(draw, key) for key in keys if draw(st.booleans())}
        if _rare(draw, 10):
            cfg["bogus"] = 1
        argv += ["--config", "{tmp}/run.json"]
    if _rare(draw, 20):
        junk = draw(st.sampled_from(["--bogus", "-x", "--help", ""]))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv, cfg


def _run_in_process(argv):
    """(exit code, stdout, stderr) of main(argv), an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(PROPERTY, max_examples=300)
@given(command_lines())
def test_generated_command_lines_exit_cleanly_and_repeat(line):
    """ROADMAP item 12's CLI twin: any command line exits 0, 1 or 2, raises
    nothing out of main, and prints the same stdout when run again."""
    argv, cfg = line
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        if cfg is not None:
            Path(tmp, "run.json").write_text(json.dumps(cfg).replace("{tmp}", tmp))
        code, out, err = _run_in_process(argv)
        assert code in (0, 1, 2), (argv, cfg, code, err)
        assert "Traceback" not in out + err, (argv, cfg)
        again = _run_in_process(argv)
        assert again[:2] == (code, out), (argv, cfg)
