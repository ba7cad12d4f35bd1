"""CLI surface: parsing, output formats, determinism, exit codes."""

import json
import math

import pytest

import isirate.cli
from isirate.cli import main, parse_channel, parse_snr_grid
from isirate.errors import DomainError
from isirate.montecarlo import RateEstimate
from isirate.scalar import mutual_info, parse_input_spec
from isirate.channel import spectral_summary

LOG2 = math.log(2.0)


class TestParsing:
    def test_channel_presets(self):
        assert parse_channel("channel_b").taps == (0.408, 0.817, 0.408)
        assert len(parse_channel("jeong_spaced").taps) == 15

    def test_channel_json_and_normalize(self):
        ch = parse_channel("[3, 4]", normalize=True)
        assert ch.energy() == pytest.approx(1.0, abs=1e-15)

    def test_channel_file(self, tmp_path):
        p = tmp_path / "taps.json"
        p.write_text("[0.6, 0.8]")
        assert parse_channel(str(p)).taps == (0.6, 0.8)

    def test_unknown_channel(self):
        with pytest.raises(DomainError):
            parse_channel("nonsense")

    def test_snr_grid(self):
        assert parse_snr_grid("0:10:2.5") == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert parse_snr_grid("-3,0,3") == [-3.0, 0.0, 3.0]
        assert parse_snr_grid("1.5") == [1.5]
        with pytest.raises(DomainError):
            parse_snr_grid("3,1")
        with pytest.raises(DomainError):
            parse_snr_grid("0:10:-1")


class TestSubcommands:
    def test_analyze(self, capsys):
        assert main(["analyze", "--channel", "channel_b", "--snr-db", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        ss = spectral_summary(parse_channel("channel_b"), 1.0)
        assert out["snr_dfe"] == pytest.approx(ss.snr_dfe, rel=1e-15)
        assert out["gaussian_rate_bits"] == pytest.approx(
            ss.gaussian_rate / LOG2, rel=1e-15
        )

    def test_dfe_with_taps(self, capsys, tmp_path):
        taps = tmp_path / "alpha.csv"
        code = main(
            [
                "dfe",
                "--channel",
                "channel_b",
                "--input",
                "bpsk",
                "--snr-db",
                "0",
                "--taps",
                str(taps),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta0_sq"] == pytest.approx(1.0 + out["beta1_sq"], rel=1e-12)
        lines = taps.read_text().strip().splitlines()
        assert lines[0] == "k,alpha"
        assert len(lines) == out["n_residual"] + 1

    def test_dfe_high_snr(self, capsys):
        code = main(["dfe", "--channel", "jeong", "--input", "bpsk", "--snr-db", "45"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "ff_half_len" not in out
        ss = spectral_summary(parse_channel("jeong"), 10**4.5)
        assert out["snr_unbiased"] == pytest.approx(math.expm1(ss.gaussian_rate), rel=1e-9)

    def test_dfe_has_no_length_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dfe", "--channel", "jeong", "--input", "bpsk", "--snr-db", "0", "--ff-half-len", "32"])
        assert exc.value.code == 2

    def test_bounds_csv_and_units(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(
            [
                "bounds",
                "--channel",
                "[0.8, 0.6]",
                "--input",
                "bpsk",
                "--snr-db",
                "0:3:3",
                "--i-mmse",
                "none",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        cols = header.split(",")
        first = rows[0].split(",")
        i_sl_bits = float(first[cols.index("i_sl_bits")])
        ch = parse_channel("[0.8, 0.6]")
        x = parse_input_spec("bpsk")
        nats = mutual_info(x, math.expm1(spectral_summary(ch, 1.0).gaussian_rate))
        assert i_sl_bits == pytest.approx(nats / LOG2, abs=1e-12)

    def test_bounds_deterministic_across_threads(self, tmp_path, monkeypatch):
        args = [
            "bounds",
            "--channel",
            "[0.8, 0.6]",
            "--input",
            "bpsk",
            "--snr-db=-3:3:3",
            "--i-mmse",
            "mc",
            "--n-samples",
            "20000",
            "--seed",
            "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        monkeypatch.setenv("ISIRATE_THREADS", "4")
        assert main(args + ["--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_bounds_stdout_negative_grid(self, capsys):
        code = main(
            ["bounds", "--channel", "channel_b", "--input", "bpsk", "--snr-db=-10:0:10", "--i-mmse", "none"]
        )
        assert code == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("snr_db,rho,")
        assert [float(r.split(",")[0]) for r in rows] == [-10.0, 0.0]

    @pytest.mark.parametrize("command", ["bounds", "highsnr-probe"])
    def test_snr_grid_help_shows_equals_form(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--snr-db=-10:0:10" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--i-mmse", "auto"]], ids=["missing", "auto"])
    def test_bounds_needs_an_i_mmse_route(self, extra, capsys):
        args = ["bounds", "--channel", "channel_b", "--input", "bpsk", "--snr-db", "0"]
        with pytest.raises(SystemExit) as exc:
            main(args + extra)
        assert exc.value.code == 2
        assert "--i-mmse" in capsys.readouterr().err

    def test_bounds_exact_over_budget_exits_3(self, capsys):
        args = ["bounds", "--channel", "jeong", "--input", "bpsk", "--snr-db", "10", "--i-mmse", "exact"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "components" in captured.err

    def test_simulate(self, capsys, tmp_path):
        per_seed = tmp_path / "seeds.csv"
        code = main(
            [
                "simulate",
                "--channel",
                "[1.0]",
                "--input",
                "bpsk",
                "--snr-db",
                "0",
                "--n-symbols",
                "20000",
                "--n-seeds",
                "3",
                "--seed",
                "1",
                "--per-seed",
                str(per_seed),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        ref_bits = mutual_info(parse_input_spec("bpsk"), 1.0) / LOG2
        assert abs(out["value_bits"] - ref_bits) <= 3 * out["stderr_bits"]
        assert len(per_seed.read_text().strip().splitlines()) == 4

    def test_dmin(self, capsys):
        code = main(["dmin", "--channel", "channel_b", "--input", "bpsk"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certified"] is True
        assert out["strict"] is True
        assert out["delta_min_sq"] > out["g_zf_dfe"]

    def test_highsnr_probe(self, capsys):
        code = main(
            [
                "highsnr-probe",
                "--channel",
                "[0.866025403784439, 0.5]",
                "--input",
                "bpsk",
                "--snr-db",
                "7:18:5.5",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["rows"]) == 3

    def test_figure_unknown_name(self, capsys):
        assert main(["figure", "nope", "--out-dir", "/tmp/isirate-nope"]) == 2

    def test_figure_fig1b(self, tmp_path, capsys):
        code = main(["figure", "fig1b", "--out-dir", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "fig1b.csv").read_text().strip().splitlines()
        assert csv[0] == "snr_db,eps0,gap_exact_bits,gap_series_bits"
        assert len(csv) == 7
        manifest = json.loads((tmp_path / "fig1b.manifest.json").read_text())
        assert manifest["figure"] == "fig1b"
        # every gap on this low-SNR grid is negative
        gaps = [float(r.split(",")[2]) for r in csv[1:]]
        assert all(g < 0 for g in gaps)

    @pytest.mark.parametrize("name,method", [("fig2a", "mc"), ("fig2b", "exact")])
    def test_figure_fig2_route(self, name, method, tmp_path, monkeypatch, capsys):
        # the route is fixed per figure and recorded; the simulation and the
        # I_MMSE evaluation are stubbed, only the wiring is under test
        routes = []
        report = isirate.cli.bound_report

        def fake_report(ch, x, rho, i_mmse_method, **kwargs):
            routes.append(i_mmse_method)
            return report(ch, x, rho, i_mmse_method="none")

        def fake_rate(*args):
            return RateEstimate(value=0.0, std_error=0.0, n_samples=1, n_seeds=1, seeds=((0, 0),))

        monkeypatch.setattr(isirate.cli, "bound_report", fake_report)
        monkeypatch.setattr(isirate.cli, "estimate_rate", fake_rate)
        assert main(["figure", name, "--out-dir", str(tmp_path)]) == 0
        assert routes and set(routes) == {method}
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["i_mmse_method"] == method

    def test_exit_code_config_error(self, capsys):
        assert main(["analyze", "--channel", "[0, 0]", "--snr-db", "0"]) == 2
