import json
from pathlib import Path

import pytest

from relayregions import ChannelParams, GdpcParams, gdpc_rates
from relayregions.cli import main

CHANNEL = "1,1,2,0.1,1"
TINY_GRID = "5,5,1,0.5"
DATA = Path(__file__).parent / "data"
# The Monte-Carlo cross-check passes within 0.01 bits. Its estimator's sd
# is about 0.008 bits at 20,000 samples, so that count passed only on
# lucky draws; at 320,000 the sd is about 0.002 bits.
MC_SAMPLES = "320000"
HUGE_INT = 10**400  # a JSON integer with no float value


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

    def test_scheme_flag(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--channel", CHANNEL, "--scheme", "nostate-outer",
            "--gamma-grid", "0:0.5:2", "--grid", TINY_GRID,
        )
        assert code == 0
        assert out.startswith("scheme,")
        assert "nostate-outer," in out

    def test_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--scheme", "bogus"])
        assert exc.value.code == 2

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
    search was batched over gamma; the output must not move by a byte."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("frontier_gdpc.csv", ["frontier", "--scheme", "gdpc", "--gamma-grid", "0:1:21"]),
            ("frontier_dpc.csv", ["frontier", "--scheme", "dpc", "--gamma-grid", "0:1:21"]),
            ("sweep_gdpc.csv", ["sweep-snr", "--scheme", "gdpc", "--snr-db", "0:30:5"]),
        ],
    )
    def test_byte_identical(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv, "--channel", "1,1,1,0.1,1")
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()


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

    @pytest.mark.parametrize("snr", ["4000", "-4000", "-inf", ","])
    def test_unusable_snr_list_rejected(self, capsys, snr):
        code, _, err = run(
            capsys, "sweep-snr", "--channel", "1,1,1,0.1,1", f"--snr-db={snr}",
            "--grid", TINY_GRID,
        )
        assert code == 2
        assert "snr" in err


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

    def test_sample_count_past_float_range_runs(self, capsys, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"mc_samples": HUGE_INT}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "monte-carlo-crosscheck: PASS" in out

    def test_zero_tol_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--tol", "0")
        assert code == 2
        assert "tol" in err

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

    def test_fractional_denominator_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "dmc.json"
        cfg.write_text(json.dumps({"dmc": {"denominator": 4.9}}))
        code, _, err = run(capsys, "dmc", "--pipes", "--config", str(cfg))
        assert code == 2
        assert "denominator" in err


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

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "point", "--config", "/no/such/file.json")
        assert code == 2

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json {")
        code, _, err = run(capsys, "point", "--config", str(cfg))
        assert code == 2
