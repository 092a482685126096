import dataclasses
import json
import math

import numpy as np
import pytest

from wiretap_lsl import cli, experiment
from wiretap_lsl.channel import ArraySpec
from wiretap_lsl.cli import main as cli_main
from wiretap_lsl.errors import ParseError, QuadratureFailure, RankDeficient, UnknownPreset, ValidationError
from wiretap_lsl.experiment import (
    ExperimentConfig,
    figure_preset,
    parse_config,
    run_sweep,
    write_csv,
)
from wiretap_lsl.precoders import Strategy


def write_config(path, **overrides):
    raw = {
        "m": 2,
        "n_main": 3,
        "n_eave": 4,
        "sweep": "snr",
        "sweep_grid": [0.0, 10.0],
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return str(path)


class TestPresets:
    def test_fig2(self):
        cfg = figure_preset("fig2")
        assert (cfg.m, cfg.n_main, cfg.n_eave) == (6, 6, 2)
        assert cfg.sweep == "snr"
        assert cfg.sweep_grid[0] == -5.0 and cfg.sweep_grid[-1] == 20.0

    def test_fig3_caption_values(self):
        cfg = figure_preset("fig3")
        assert (cfg.m, cfg.n_main, cfg.n_eave) == (2, 3, 4)
        assert cfg.array_main.mean_angle_deg == 40.0
        assert cfg.array_eave.mean_angle_deg == -10.0
        assert cfg.array_main.angle_spread_deg == 5.0
        assert cfg.array_main.spacing_wavelengths == 1.0

    def test_fig4(self):
        cfg = figure_preset("fig4")
        assert (cfg.m, cfg.n_main) == (4, 4)
        assert cfg.sweep == "ne"
        assert cfg.snr_main_db == 0.0 and cfg.snr_eave_db == 0.0
        assert cfg.sweep_grid == tuple(float(v) for v in range(1, 13))

    def test_fig5(self):
        cfg = figure_preset("fig5")
        assert cfg.sweep == "spacing"
        assert cfg.snr_main_db == 0.0
        assert cfg.sweep_grid[0] == pytest.approx(0.2)
        assert cfg.sweep_grid[-1] == pytest.approx(3.0)

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            figure_preset("fig9")


class TestParseConfig:
    def test_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.json"))
        assert cfg.mc_realizations == 10_000
        assert cfg.array_main.mean_angle_deg == 40.0
        assert cfg.array_eave.mean_angle_deg == -10.0
        assert cfg.array_main.angle_spread_deg == 5.0
        assert cfg.array_main.spacing_wavelengths == 1.0
        assert cfg.strategies == (Strategy.ISOTROPIC, Strategy.WATER_FILLING, Strategy.GSVD_BEAMFORMING)

    def test_zero_antennas_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", n_main=0)
        with pytest.raises(ValidationError):
            parse_config(path)

    @pytest.mark.parametrize("link", ["array_main", "array_eave"])
    def test_array_antennas_must_match_m(self, link):
        # Caught here, not as a shape error from the first sweep point.
        with pytest.raises(ValidationError, match="m antennas"):
            ExperimentConfig(m=4, n_main=4, n_eave=2, sweep="snr", sweep_grid=(0.0,), **{link: ArraySpec(6)})

    def test_spacing_sweep_grid(self, tmp_path):
        grid = [round(0.2 + 0.1 * i, 10) for i in range(29)]
        path = write_config(tmp_path / "c.json", sweep="spacing", sweep_grid=grid)
        cfg = parse_config(path)
        assert len(cfg.sweep_grid) == 29

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(path))

    def test_unknown_field(self, tmp_path):
        path = write_config(tmp_path / "c.json", bogus=1)
        with pytest.raises(ParseError):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_config("/nonexistent/config.json")

    def test_descending_grid_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", sweep_grid=[10.0, 0.0])
        with pytest.raises(ValidationError):
            parse_config(path)

    @pytest.mark.parametrize(
        "sweep, grid",
        [("snr", [0.0, float("nan")]), ("ne", [0.4, 2.0]), ("spacing", [-0.1, 1.0])],
    )
    def test_grid_outside_sweep_domain_rejected(self, tmp_path, sweep, grid):
        path = write_config(tmp_path / "c.json", sweep=sweep, sweep_grid=grid)
        with pytest.raises(ValidationError):
            parse_config(path)

    def test_values_coerced_to_field_types(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", m="2", n_main=3.0, sweep_grid=[0, 10], strategies=["gsvd"], seed="5"
        )
        cfg = parse_config(path)
        assert (cfg.m, cfg.n_main, cfg.seed) == (2, 3, 5)
        assert cfg.sweep_grid == (0.0, 10.0)
        assert cfg.strategies == (Strategy.GSVD_BEAMFORMING,)
        assert cfg.snr_main_db == ExperimentConfig.snr_main_db
        assert cfg.output_path == ExperimentConfig.output_path

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"m": 2, "n_main": 3, "n_eave": 4, "sweep": "snr"}))
        with pytest.raises(ParseError, match="sweep_grid"):
            parse_config(str(path))


class TestRunSweep:
    def test_row_count_and_units(self):
        cfg = ExperimentConfig(
            m=2,
            n_main=3,
            n_eave=4,
            sweep="snr",
            sweep_grid=(0.0, 10.0),
            mc_realizations=200,
            seed=7,
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 2 * 3
        assert result.num_failed == 0
        for row in result.rows:
            assert row.rs_lsl_total_bits == pytest.approx(row.rs_lsl_per_antenna_bits * 2, abs=1e-12)

    def test_single_point_grid(self):
        cfg = ExperimentConfig(
            m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(5.0,), strategies=("iso",)
        )
        result = run_sweep(cfg, include_mc=False)
        assert len(result.rows) == 1
        assert result.rows[0].rs_mc_per_antenna_bits is None

    def test_deterministic_csv(self, tmp_path):
        cfg = ExperimentConfig(
            m=2,
            n_main=3,
            n_eave=2,
            sweep="snr",
            sweep_grid=(0.0, 5.0),
            mc_realizations=100,
            seed=3,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), str(p1), timestamp=False)
        write_csv(run_sweep(cfg), str(p2), timestamp=False)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == (
            "sweep_var,sweep_value,strategy,rs_lsl_per_antenna_bits,rs_lsl_total_bits,"
            "rs_mc_per_antenna_bits,rs_mc_std_error,outer_iterations,error"
        )

    def test_ne_sweep(self):
        cfg = ExperimentConfig(
            m=2,
            n_main=2,
            n_eave=2,
            sweep="ne",
            sweep_grid=(1.0, 2.0, 3.0),
            strategies=("gsvd",),
            snr_main_db=0.0,
            snr_eave_db=0.0,
        )
        result = run_sweep(cfg, include_mc=False)
        assert len(result.rows) == 3
        assert result.num_failed == 0

    def test_numerical_failure_becomes_error_row(self, monkeypatch):
        def failing(strategy, stats_m, stats_e):
            raise RankDeficient("stacked matrix condition 1e12")

        monkeypatch.setattr(experiment, "optimize", failing)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0,), strategies=("gsvd",))
        (row,) = run_sweep(cfg, include_mc=False).rows
        assert row.error == "stacked matrix condition 1e12"
        assert row.rs_lsl_per_antenna_bits is None

    def test_statistics_failure_fails_every_strategy(self, monkeypatch):
        def failing(spec):
            raise QuadratureFailure("row did not settle")

        monkeypatch.setattr(experiment, "gen_correlation", failing)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0, 5.0))
        rows = run_sweep(cfg, include_mc=False).rows
        assert len(rows) == 6
        assert all(row.error == "row did not settle" for row in rows)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(strategy, stats_m, stats_e):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(experiment, "optimize", broken)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0,), strategies=("gsvd",))
        with pytest.raises(TypeError):
            run_sweep(cfg, include_mc=False)


class TestCli:
    def test_run_with_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", mc_realizations=50, output_path=str(tmp_path / "out.csv"))
        code = cli_main(["run", "--config", cfg_path, "--no-timestamp"])
        assert code == 0
        out = (tmp_path / "out.csv").read_text()
        assert out.startswith("sweep_var,")
        assert len(out.splitlines()) == 1 + 2 * 3

    def test_missing_config_and_preset(self):
        assert cli_main(["run"]) == 1

    def test_config_and_preset_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", output_path=str(tmp_path / "out.csv"))
        assert cli_main(["run", "--config", cfg_path, "--preset", "fig3", "--no-mc"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bad_config_path(self):
        assert cli_main(["run", "--config", "/does/not/exist.json"]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -5},
            {"sweep_grid": [0.0, 4000.0]},
            {"sweep": "ne", "sweep_grid": [1.0, 2.0], "snr_main_db": float("nan")},
            {"strategies": []},
        ],
        ids=["negative-seed", "snr-overflow", "nan-snr", "no-strategies"],
    )
    def test_config_rejected_before_the_sweep(self, tmp_path, capsys, overrides):
        out = tmp_path / "out.csv"
        cfg_path = write_config(tmp_path / "c.json", output_path=str(out), **overrides)
        assert cli_main(["run", "--config", cfg_path, "--no-mc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--preset", "fig3", "--no-mc", "--seed", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_array_antenna_mismatch_rejected(self, tmp_path, capsys, monkeypatch):
        # A preset with m changed but its arrays kept fails at load time.
        monkeypatch.setattr(cli, "figure_preset", lambda name: dataclasses.replace(figure_preset(name), m=3))
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--preset", "fig3", "--no-mc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "m antennas" in err
        assert not out.exists()

    def test_preset_no_mc(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = cli_main(
            ["run", "--preset", "fig3", "--out", str(out), "--no-mc", "--no-timestamp", "--seed", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        cfg = figure_preset("fig3")
        assert len(lines) == 1 + len(cfg.sweep_grid) * 3

    def test_bits_are_nats_over_ln2(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json",
            sweep_grid=[10.0],
            strategies=["gsvd"],
            output_path=str(tmp_path / "o.csv"),
        )
        code = cli_main(["run", "--config", cfg_path, "--no-mc", "--no-timestamp"])
        assert code == 0
        import csv as csv_mod

        with open(tmp_path / "o.csv") as fh:
            row = next(csv_mod.DictReader(fh))
        per_antenna_bits = float(row["rs_lsl_per_antenna_bits"])
        total_bits = float(row["rs_lsl_total_bits"])
        assert total_bits == pytest.approx(per_antenna_bits * 2, abs=1e-9)
        assert per_antenna_bits > 0
