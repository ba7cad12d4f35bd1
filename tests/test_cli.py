"""CLI surface: parsing, output formats, determinism, exit codes."""

import json
import math

import pytest

import isirate.bounds
import isirate.cli
import isirate.highsnr
from isirate.bounds import ImmseExact
from isirate.channel import ChannelResponse
from isirate.cli import main, parse_channel, parse_snr_grid
from isirate.errors import DomainError
from isirate.highsnr import exponent_gap
from isirate.montecarlo import RateEstimate
from isirate.scalar import mutual_info, parse_input_spec
from isirate.channel import spectral_summary

LOG2 = math.log(2.0)
BOUND_HEADER = (
    "snr_db,rho,gaussian_rate_bits,i_sow_bits,i_sl_bits,ie_simple_bits,ie_opt_bits,"
    "gamma1_opt,gamma2_opt,ie_conj_bits,i_mmse_bits,i_mmse_method,i_mmse_err_bound_bits,"
    "gap_series_bits,eps0"
)


def _column(lines: list[str], name: str) -> list[str]:
    """The cells of column name in the data rows of a CSV's lines."""
    k = lines[0].split(",").index(name)
    return [line.split(",")[k] for line in lines[1:]]


def _rerun_as_bounds(manifest: dict, out) -> int:
    """isirate bounds with the options a figure manifest records."""
    return main(
        [
            "bounds",
            "--channel", manifest["channel"],
            "--input", manifest["input"],
            f"--snr-db={manifest['snr_db']}",
            "--i-mmse", manifest["i_mmse_method"],
            "--out", str(out),
        ]
    )


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
        for spec in ("nan", "0,inf", "0:inf:1", "-inf:0:1", "0:10:nan"):
            with pytest.raises(DomainError, match="finite"):
                parse_snr_grid(spec)


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
        exact = ["bounds", "--channel", "[0.8, 0.6]", "--input", "bpsk", "--snr-db=-3:3:3", "--i-mmse", "exact"]
        # 18 points on one fresh channel: with 4 threads they race on the
        # first access to its cached SNR-free quantities
        sweep = ["bounds", "--channel", "jeong", "--input", "bpsk", "--snr-db=-40:45:5", "--i-mmse", "none"]
        for i, args in enumerate((exact, sweep)):
            a = tmp_path / f"a{i}.csv"
            b = tmp_path / f"b{i}.csv"
            c = tmp_path / f"c{i}.csv"
            monkeypatch.delenv("ISIRATE_THREADS", raising=False)
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            monkeypatch.setenv("ISIRATE_THREADS", "4")
            assert main(args + ["--out", str(c)]) == 0
            assert a.read_bytes() == b.read_bytes()
            assert a.read_bytes() == c.read_bytes()

    def test_bounds_exact_rows_have_no_std_error(self, tmp_path):
        # an exact value is not a sampled estimate, and the CLI samples
        # nothing else: there is no standard-error column
        out = tmp_path / "bounds.csv"
        args = ["bounds", "--channel", "[0.8, 0.6]", "--input", "skewed_binary(0.1)"]
        assert main(args + ["--snr-db=-10:0:10", "--i-mmse", "exact", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == BOUND_HEADER
        assert _column(lines, "i_mmse_method") == ["exact", "exact"]
        assert all(float(v) > 0.0 for v in _column(lines, "i_mmse_err_bound_bits"))

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
        # the refined density grid needs 2^23 points at 100 dB
        args = ["bounds", "--channel", "channel_b", "--input", "bpsk", "--snr-db", "100", "--i-mmse", "exact"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid" in captured.err

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

    def test_simulate_one_seed_writes_null_stderr(self, capsys):
        # one seed has no across-seed error; NaN would not be valid JSON
        args = ["simulate", "--channel", "channel_b", "--input", "bpsk", "--snr-db", "0"]
        assert main(args + ["--n-symbols", "10000", "--n-seeds", "1"]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["stderr_bits"] is None
        assert 0.0 < out["value_bits"] <= 1.0

    @pytest.mark.parametrize("command", ["dfe", "simulate"])
    @pytest.mark.parametrize(
        "spec",
        ['{"atoms": [NaN, 1.0], "probs": [0.5, 0.5]}', '{"atoms": [-1.0, 1.0], "probs": [NaN, 0.5]}'],
        ids=["nan_atom", "nan_prob"],
    )
    def test_non_finite_input_exits_2(self, command, spec, capsys):
        args = [command, "--channel", "channel_b", "--input", spec, "--snr-db", "0"]
        assert main(args + (["--n-symbols", "10000"] if command == "simulate" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_dmin(self, capsys):
        code = main(["dmin", "--channel", "channel_b", "--input", "bpsk"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"delta_min_sq", "witness", "nodes_explored", "g_zf_dfe", "strict", "min_phase_taps"}
        assert out["strict"] is True
        assert out["delta_min_sq"] > out["g_zf_dfe"]
        # the search runs to its goal on a finite graph: no length cap
        with pytest.raises(SystemExit) as exc:
            main(["dmin", "--channel", "channel_b", "--input", "bpsk", "--max-len", "5"])
        assert exc.value.code == 2

    def test_dmin_runs_one_search(self, capsys, monkeypatch):
        # a non-minimum-phase channel: the one search runs on its
        # minimum-phase form and finds the same distance
        calls = []
        real = isirate.highsnr.delta_min_sq
        monkeypatch.setattr(
            isirate.highsnr, "delta_min_sq", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        assert main(["dmin", "--channel", "[0.3, 1.0]", "--input", "bpsk"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert calls[0][0].taps == pytest.approx(out["min_phase_taps"], abs=1e-15)
        ch = parse_channel("[0.3, 1.0]", normalize=True)
        assert out["delta_min_sq"] == pytest.approx(real(ch, parse_input_spec("bpsk")).delta_min_sq, rel=1e-12)

    def test_dmin_matches_library_on_raw_taps(self, capsys):
        # the CLI passes the channel as parsed; normalising [0.3, 1.0] twice
        # would move delta_min_sq from 0.9999999999999998 to 1.0
        assert main(["dmin", "--channel", "[0.3, 1.0]", "--input", "bpsk"]) == 0
        out = json.loads(capsys.readouterr().out)
        gap = exponent_gap(ChannelResponse((0.3, 1.0)), parse_input_spec("bpsk"))
        assert out["delta_min_sq"] == gap.delta_min_sq
        assert out["g_zf_dfe"] == gap.g_zf_dfe
        assert out["witness"] == list(gap.witness)

    @pytest.mark.parametrize(
        "command",
        [
            ["dmin", "--channel", "[0.3, 1.0]", "--input", "bpsk"],
            ["highsnr-probe", "--channel", "[0.3, 1.0]", "--input", "bpsk", "--snr-db", "20"],
        ],
        ids=lambda c: c[0],
    )
    def test_normalized_form_commands_take_no_normalize(self, command, capsys):
        # both read the channel's normalized form, so the flag would be ignored
        with pytest.raises(SystemExit) as exc:
            main(command + ["--normalize"])
        assert exc.value.code == 2
        assert "--normalize" in capsys.readouterr().err

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

    def test_highsnr_probe_low_snr_rows_carry_values(self, capsys):
        args = ["highsnr-probe", "--channel", "channel_b", "--input", "bpsk", "--snr-db", "0:30:2"]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 16
        assert all(math.isfinite(r["log_upper"]) and math.isfinite(r["log_lower"]) for r in rows)

    def test_highsnr_probe_past_the_factorisation_exits_3(self, capsys):
        # jeong's spectral factor misses its check from about 125 dB
        args = ["highsnr-probe", "--channel", "jeong", "--input", "bpsk", "--snr-db", "130"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral factor" in captured.err

    def test_figure_unknown_name(self, capsys):
        assert main(["figure", "nope", "--out-dir", "/tmp/isirate-nope"]) == 2

    def test_figure_fig1b(self, tmp_path, capsys):
        code = main(["figure", "fig1b", "--out-dir", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "fig1b.csv").read_text().strip().splitlines()
        assert csv[0] == BOUND_HEADER
        assert len(csv) == 7
        manifest = json.loads((tmp_path / "fig1b.manifest.json").read_text())
        assert manifest["figure"] == "fig1b"
        # every gap on this low-SNR grid is negative
        i_mmse, i_sl = (map(float, _column(csv, c)) for c in ("i_mmse_bits", "i_sl_bits"))
        assert all(a - b < 0 for a, b in zip(i_mmse, i_sl))
        # the figure is the bounds sweep its manifest names, byte for byte
        out = tmp_path / "bounds.csv"
        assert _rerun_as_bounds(manifest, out) == 0
        assert out.read_bytes() == (tmp_path / "fig1b.csv").read_bytes()

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4"])
    def test_figure_route(self, name, tmp_path, monkeypatch, capsys):
        # every figure takes the exact route and records it, and a simulated
        # one seed 0 by default; the simulation and the I_MMSE evaluation
        # are stubbed, only the wiring is under test
        routes = []
        seeds = []
        report = isirate.cli.bound_report

        def fake_report(ch, x, rho, i_mmse_method, **kwargs):
            routes.append(i_mmse_method)
            return report(ch, x, rho, i_mmse_method="none")

        def fake_rate(*args):
            seeds.append(args[-1])
            return RateEstimate(value=0.0, std_error=0.0, n_samples=1, n_seeds=1, seeds=((0, 0),))

        monkeypatch.setattr(isirate.cli, "bound_report", fake_report)
        monkeypatch.setattr(isirate.cli, "estimate_rate", fake_rate)
        assert main(["figure", name, "--out-dir", str(tmp_path)]) == 0
        assert routes and set(routes) == {"exact"}
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["i_mmse_method"] == "exact"
        simulated = name in ("fig2a", "fig2b")
        assert manifest["seed"] == (0 if simulated else None)
        assert seeds == ([0] * len(routes) if simulated else [])

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4"])
    def test_figure_is_its_bounds_sweep(self, name, tmp_path, monkeypatch, capsys):
        # the I_MMSE route and the simulation are stubbed, only the wiring
        # is under test: each figure is the bounds sweep of its manifest,
        # plus the two rate columns where it simulates with the seed given
        seeds = []

        def fake_exact(design, x):
            return ImmseExact(0.1, 1e-13, (1, 1), 512)

        def fake_rate(ch, x, rho, n_symbols, n_seeds, seed):
            seeds.append(seed)
            return RateEstimate(value=0.2, std_error=1e-4, n_samples=1, n_seeds=1, seeds=((0, 0),))

        monkeypatch.setattr(isirate.bounds, "i_mmse_exact", fake_exact)
        monkeypatch.setattr(isirate.cli, "estimate_rate", fake_rate)
        simulated = name in ("fig2a", "fig2b")
        seed = ["--seed", "5"] if simulated else []
        assert main(["figure", name, "--out-dir", str(tmp_path)] + seed) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        out = tmp_path / "bounds.csv"
        assert _rerun_as_bounds(manifest, out) == 0
        bounds = out.read_text().splitlines()
        figure = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert manifest["n_symbols"] == (10**7 if simulated else None)
        assert manifest["n_seeds"] == (10 if simulated else None)
        assert manifest["seed"] == (5 if simulated else None)
        assert seeds == [5] * (len(figure) - 1 if simulated else 0)
        rate = ",rate_bits,rate_stderr_bits" if simulated else ""
        assert figure[0] == BOUND_HEADER + rate
        n = len(bounds[0].split(","))
        assert [",".join(line.split(",")[:n]) for line in figure] == bounds

    def test_figure_seed_refused_where_nothing_is_simulated(self, tmp_path, capsys):
        # fig1a, fig1b, fig3 and fig4 simulate nothing, so a seed or the
        # paper-scale profile would be ignored: exit 2, no file
        out_dir = tmp_path / "out"
        for name in ("fig1a", "fig1b", "fig3", "fig4"):
            for option in (["--seed", "5"], ["--full"]):
                assert main(["figure", name, "--out-dir", str(out_dir)] + option) == 2
                assert option[0] in capsys.readouterr().err
        assert not out_dir.exists()

    def test_figures_3_and_4_resolve_the_sign_of_the_gap(self, tmp_path, capsys):
        # the paper's claim on BPSK: I_MMSE - I_SL < 0 from -12 to 3 dB and
        # > 0 from 6 to 15 dB, each point by more than its error bound
        for name in ("fig3", "fig4"):
            assert main(["figure", name, "--out-dir", str(tmp_path)]) == 0
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            snr_db, i_mmse, i_sl, err = (
                [float(v) for v in _column(lines, c)]
                for c in ("snr_db", "i_mmse_bits", "i_sl_bits", "i_mmse_err_bound_bits")
            )
            assert snr_db == [-12.0 + 3.0 * k for k in range(10)]
            for db, a, b, e in zip(snr_db, i_mmse, i_sl, err):
                assert 0.0 < e <= 1e-11, (name, db)
                assert (a - b < -e) if db <= 3.0 else (a - b > e), (name, db, a - b, e)

    def test_exit_code_config_error(self, capsys):
        assert main(["analyze", "--channel", "[0, 0]", "--snr-db", "0"]) == 2

    # 4000 dB overflows rho = 10^(dB/10) and -4000 dB underflows it to 0
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "4000", "-4000"])
    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--channel", "channel_b"],
            ["dfe", "--channel", "channel_b", "--input", "bpsk"],
            ["bounds", "--channel", "channel_b", "--input", "bpsk", "--i-mmse", "none"],
            ["simulate", "--channel", "channel_b", "--input", "bpsk", "--n-symbols", "10000"],
            ["highsnr-probe", "--channel", "channel_b", "--input", "bpsk"],
        ],
        ids=lambda c: c[0],
    )
    def test_non_finite_snr_exits_2(self, command, value, capsys):
        assert main(command + [f"--snr-db={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

