import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import isotropic_start
from wiretap_lsl import cli, detequiv, experiment, montecarlo, precoders
from wiretap_lsl.channel import ArraySpec, Transmit, gen_correlation
from wiretap_lsl.cli import main as cli_main
from wiretap_lsl.errors import (
    BisectionFailure,
    NoConvergence,
    ParseError,
    QuadratureFailure,
    RankDeficient,
    UnknownPreset,
    ValidationError,
)
from wiretap_lsl.experiment import (
    ExperimentConfig,
    build_statistics,
    figure_preset,
    parse_config,
    point_config,
    run_sweep,
    write_csv,
)
from wiretap_lsl.montecarlo import McEstimate
from wiretap_lsl.precoders import Strategy, optimize


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

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_no_mc_csv_matches_golden(self, tmp_path, name):
        # The deterministic columns alone, byte for byte: the MC goldens
        # hold them too, but are regenerated whenever the RNG stream or
        # the estimator changes, and would take a deterministic move along.
        out = tmp_path / f"{name}.csv"
        assert cli_main(["run", "--preset", name, "--no-mc", "--no-timestamp", "--out", str(out)]) == 0
        golden = Path(__file__).resolve().parent / "data" / f"{name}-nomc.csv"
        assert out.read_bytes() == golden.read_bytes()


class TestParseConfig:
    def test_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.json"))
        assert cfg.mc_realizations == 16_384
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

    def test_values_converted_from_their_json_forms(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            n_main=3.0,
            sweep_grid=[0, 10],
            strategies=["gsvd"],
            mc_realizations=1e4,
            spacing_wavelengths=2,
        )
        cfg = parse_config(path)
        assert (cfg.m, cfg.n_main, cfg.mc_realizations) == (2, 3, 10_000)
        assert type(cfg.n_main) is int and type(cfg.mc_realizations) is int
        assert cfg.sweep_grid == (0.0, 10.0) and all(type(v) is float for v in cfg.sweep_grid)
        assert cfg.array_main.spacing_wavelengths == 2.0
        assert cfg.strategies == (Strategy.GSVD_BEAMFORMING,)
        assert cfg.snr_main_db == ExperimentConfig.snr_main_db
        assert cfg.output_path == ExperimentConfig.output_path

    @pytest.mark.parametrize(
        "field, value, form",
        [
            ("m", "2", "number"),
            ("seed", "5", "number"),
            ("snr_main_db", True, "number"),
            ("sweep_grid", ["0.0", 10.0], "number"),
            ("sweep_grid", [0.0, True], "number"),
            ("spacing_wavelengths", "1", "number"),
            ("theta_eave_deg", None, "number"),
            ("output_path", None, "string"),
            ("sweep", 1, "string"),
            ("strategies", ["iso", 1], "string"),
            ("sweep_grid", "159", "list"),
            ("strategies", {"iso": 1}, "list"),
        ],
        ids=[
            "string-m",
            "string-seed",
            "boolean-snr",
            "string-grid-value",
            "boolean-grid-value",
            "string-spacing",
            "null-angle",
            "null-output-path",
            "number-sweep",
            "number-strategy",
            "string-grid",
            "object-strategies",
        ],
    )
    def test_value_not_in_its_json_form_rejected(self, tmp_path, field, value, form):
        # A string for a list would iterate as characters, an object as
        # its keys.
        path = write_config(tmp_path / "c.json", **{field: value})
        with pytest.raises(ValidationError, match=f"is not a {form}"):
            parse_config(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"m": 2, "n_main": 3, "n_eave": 4, "sweep": "snr"}))
        with pytest.raises(ParseError, match="sweep_grid"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "value",
        [2.5, 2.0, True, np.True_, np.float64(2.0), "2"],
        ids=["fraction", "integral-float", "bool", "numpy-bool", "numpy-float", "string"],
    )
    @pytest.mark.parametrize("field", ["m", "n_main", "n_eave", "mc_realizations", "seed", "num_antennas"])
    def test_non_integer_count_rejected(self, field, value):
        # Through the Python API, not only through JSON: a count that is
        # not an int or a NumPy integer, or is a bool, fails at
        # construction, not as an IndexError or TypeError mid-sweep.
        counts = {"m": 2, "n_main": 3, "n_eave": 4, "mc_realizations": 64, "seed": 1}
        if field == "num_antennas":
            assert ArraySpec(np.int64(2)).num_antennas == 2
            with pytest.raises(ValueError, match="num_antennas must be an integer"):
                ArraySpec(value)
            return
        assert ExperimentConfig(**{**counts, field: np.int64(counts[field])}, sweep="snr", sweep_grid=(0.0,))
        with pytest.raises(ValidationError, match="must be integers"):
            ExperimentConfig(**{**counts, field: value}, sweep="snr", sweep_grid=(0.0,))

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ("wf", "not one string"),
            (Strategy.WATER_FILLING, "not one string"),
            (("xx",), "not a valid Strategy"),
            (("wf", 1), "not a valid Strategy"),
            (("wf", "wf"), "must not repeat"),
            (("iso", Strategy.ISOTROPIC), "must not repeat"),
            ((), "nonempty"),
        ],
        ids=["bare-string", "bare-member", "unknown", "number", "repeated", "repeated-as-member", "empty"],
    )
    def test_invalid_strategies_rejected(self, strategies, message):
        # Through the Python API: "wf" would iterate as "w", "f", and a
        # repeated name would write its rows twice.
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(m=2, n_main=3, n_eave=4, sweep="snr", sweep_grid=(0.0,), strategies=strategies)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sweep_grid", "159", "not one string or number"),
            ("sweep_grid", 5.0, "not one string or number"),
            ("sweep_grid", (True, 2.0), "must be real numbers"),
            ("sweep_grid", ("a",), "must be real numbers"),
            ("snr_main_db", "3", "must be real numbers"),
            ("snr_main_db", None, "must be real numbers"),
        ],
        ids=["string-grid", "number-grid", "boolean-grid-value", "string-grid-value", "string-snr", "none-snr"],
    )
    def test_invalid_grid_or_snr_rejected(self, field, value, message):
        # Through the Python API: "159" would iterate as the grid
        # (1.0, 5.0, 9.0), and True as 1.0.
        values = {"sweep_grid": (0.0,), field: value}
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", **values)

    def test_repeated_strategy_rejected_from_json(self, tmp_path):
        path = write_config(tmp_path / "c.json", strategies=["gsvd", "iso", "gsvd"])
        with pytest.raises(ValidationError, match="must not repeat"):
            parse_config(path)


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

    def test_point_configs_are_one_value_sweeps(self, monkeypatch):
        # Each point's config validates its own value alone, so building
        # the point configs costs the same per point whatever the grid's
        # length.
        config = ExperimentConfig(m=2, n_main=3, n_eave=4, sweep="snr", sweep_grid=tuple(np.linspace(-10, 20, 50)))
        grids = []
        original = ExperimentConfig.__post_init__

        def recording(self):
            original(self)
            grids.append(self.sweep_grid)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", recording)
        assert len(run_sweep(config, include_mc=False).rows) == 150
        assert len(grids) >= 50 and all(len(grid) == 1 for grid in grids)

    @pytest.mark.parametrize("preset", experiment.PRESETS)
    def test_point_config_gives_the_sweeps_rows_at_its_value(self, preset):
        config = figure_preset(preset)
        rows = run_sweep(config, include_mc=False).rows
        for value in config.sweep_grid:
            alone = run_sweep(point_config(config, value), include_mc=False).rows
            assert alone == tuple(row for row in rows if row.sweep_value == value)

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

    def test_snr_range_edges_run(self):
        # The accepted SNR range is closed at +-1000 dB. At -1000 dB gsvd's
        # fixed mu range cannot bracket the power budget (a typed
        # BisectionFailure row); every other row runs to a rate.
        cfg = ExperimentConfig(
            m=4, n_main=4, n_eave=2, sweep="snr", sweep_grid=(-1000.0, 1000.0), mc_realizations=64
        )
        rows = run_sweep(cfg).rows
        assert [(row.sweep_value, row.strategy) for row in rows if row.error] == [(-1000.0, "gsvd")]
        assert all(math.isfinite(row.rs_mc_per_antenna_bits) for row in rows if not row.error)
        with pytest.raises(BisectionFailure):
            optimize(Strategy.GSVD_BEAMFORMING, isotropic_start(*build_statistics(point_config(cfg, -1000.0))))

    def test_mc_once_per_chunk_seeded_by_seed(self, monkeypatch):
        # One call per lockstep chunk for the rates of all its points,
        # seeded by the sweep's seed alone, with W as tall as the sweep's
        # tallest receiver: N_E = 6, though the first chunk's is 5.
        calls = []

        def recording(rates, n, seed, rows):
            calls.append((len(rates), n, seed, rows))
            return [McEstimate(mean=0.0, std_error=0.0, num_realizations=n)] * len(rates)

        monkeypatch.setattr(experiment, "mc_secrecy_rate", recording)
        monkeypatch.setattr(experiment, "_LOCKSTEP_POINTS", 2)
        config = dataclasses.replace(figure_preset("fig4"), sweep_grid=(2.0, 5.0, 6.0), seed=7)
        result = run_sweep(config)
        assert calls == [(6, config.mc_realizations, 7, 6), (3, config.mc_realizations, 7, 6)]
        assert len(result.rows) == 9 and result.num_failed == 0

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    def test_mc_rows_are_each_points_rates_alone(self, preset):
        # Every MC row is, bit for bit, what mc_secrecy_rate gives its
        # point's rates alone at the sweep's seed and height of W, at the
        # default target: fig2's rates pass the pilot, fig4's points
        # differ in N_E.
        config = dataclasses.replace(figure_preset(preset), seed=3)
        tallest = max(config.n_main, point_config(config, config.sweep_grid[-1]).n_eave)
        rows = iter(run_sweep(config).rows)
        for value in config.sweep_grid:
            start = isotropic_start(*build_statistics(point_config(config, value)))
            rates = [optimize(strategy, start)[1] for strategy in config.strategies]
            for estimate in experiment.mc_secrecy_rate(rates, config.mc_realizations, config.seed, tallest):
                row = next(rows)
                assert row.rs_mc_per_antenna_bits == estimate.mean / math.log(2.0)
                assert row.rs_mc_std_error == estimate.std_error / math.log(2.0)

    @pytest.mark.parametrize(
        "preset, grid",
        [("fig2", (20.0,)), ("fig4", (3.0, 4.0))],
        ids=["unequal-n", "equal-n"],
    )
    def test_row_mc_independent_of_other_strategies(self, preset, grid):
        # Every rate at a point shares the draws, and each keeps its own
        # regression: the wf row is the same, bit for bit, whether or not
        # the other strategies' links share its kernel stacks. fig4 at
        # N_E = 4 stacks all six links of a point together.
        config = dataclasses.replace(figure_preset(preset), sweep_grid=grid, mc_realizations=600)
        together = run_sweep(config).rows
        alone = run_sweep(dataclasses.replace(config, strategies=("wf",))).rows
        assert alone == tuple(row for row in together if row.strategy == "wf")
        assert all(row.rs_mc_std_error > 0 for row in alone)

    @staticmethod
    def failing_gsvd(monkeypatch):
        # Every GSVD design of a stack fails, each as its own value.
        def gsvd_precoders(items):
            return [BisectionFailure("no multiplier meets the budget") for _ in items]

        monkeypatch.setattr(precoders, "gsvd_precoders", gsvd_precoders)

    def test_failed_strategy_leaves_other_rows_unchanged(self, monkeypatch):
        config = dataclasses.replace(figure_preset("fig3"), sweep_grid=(0.0, 10.0), mc_realizations=600)
        without = run_sweep(dataclasses.replace(config, strategies=("iso", "wf"))).rows
        self.failing_gsvd(monkeypatch)
        rows = run_sweep(config).rows
        assert [row.error for row in rows if row.strategy == "gsvd"] == ["no multiplier meets the budget"] * 2
        assert tuple(row for row in rows if row.strategy != "gsvd") == without

    def test_mc_failure_fails_exactly_its_rows(self, monkeypatch):
        # An estimate returned as a failure fails its row alone.
        original = experiment.mc_secrecy_rate

        def failing_at_point_1(rates, n, seed, rows):
            estimates = original(rates, n, seed, rows)
            at_point_1 = [rate.fp_main.stats.snr == experiment.db_to_linear(5.0) for rate in rates]
            failure = np.linalg.LinAlgError("SVD did not converge")
            return [failure if bad else estimate for bad, estimate in zip(at_point_1, estimates)]

        self.failing_gsvd(monkeypatch)
        monkeypatch.setattr(experiment, "mc_secrecy_rate", failing_at_point_1)
        config = dataclasses.replace(figure_preset("fig3"), sweep_grid=(0.0, 5.0, 10.0), mc_realizations=300)
        rows = run_sweep(config).rows
        errors = [(row.sweep_value, row.strategy, row.error) for row in rows if row.error]
        assert errors == [
            (0.0, "gsvd", "no multiplier meets the budget"),
            (5.0, "iso", "SVD did not converge"),
            (5.0, "wf", "SVD did not converge"),
            (5.0, "gsvd", "no multiplier meets the budget"),
            (10.0, "gsvd", "no multiplier meets the budget"),
        ]
        numbers = ["rs_lsl_per_antenna_bits", "rs_lsl_total_bits", "rs_mc_per_antenna_bits", "rs_mc_std_error"]
        for row in rows:
            values = [getattr(row, field) for field in numbers + ["outer_iterations"]]
            if row.error:
                assert values == [None] * len(values)
            else:
                assert all(math.isfinite(v) for v in values)

    def test_failed_fit_fails_its_row_alone(self, monkeypatch):
        # A rate whose realizations are not finite has sums that are not
        # finite, and a NonFiniteSample in place of its fit: the rate fed
        # a NaN, wf at the second point, gets its own error row, and every
        # other row of the chunk is unchanged.
        config = dataclasses.replace(figure_preset("fig2"), sweep_grid=(0.0, 5.0, 10.0), seed=2)
        firsts, original = [], montecarlo._fold_sums

        def recording(sample, shift):
            firsts.extend(sample[:, 0, 0, 0].tolist())
            return original(sample, shift)

        monkeypatch.setattr(montecarlo, "_fold_sums", recording)
        expected = run_sweep(config).rows
        poison = firsts[4]

        def poisoned(sample, shift):
            sample = sample.copy()
            sample[sample[:, 0, 0, 0] == poison, 0, 0, -1] = np.nan
            return original(sample, shift)

        monkeypatch.setattr(montecarlo, "_fold_sums", poisoned)
        rows = run_sweep(config).rows
        assert [(row.sweep_value, row.strategy, row.error) for row in rows if row.error] == [
            (5.0, "wf", "Monte Carlo realizations are not finite")
        ]
        kept = [row for row in expected if (row.sweep_value, row.strategy) != (5.0, "wf")]
        assert [row for row in rows if not row.error] == kept

    def test_mc_changes_no_other_column_or_row_order(self):
        # At -1000 dB gsvd's mu range cannot bracket the budget: an error
        # row with and without MC alike.
        config = ExperimentConfig(
            m=4, n_main=4, n_eave=2, sweep="snr", sweep_grid=(-1000.0, 0.0, 10.0), mc_realizations=300
        )
        with_mc = run_sweep(config, include_mc=True).rows
        without_mc = run_sweep(config, include_mc=False).rows
        assert any(row.error for row in with_mc)
        assert all(row.rs_mc_per_antenna_bits is not None for row in with_mc if not row.error)
        blank = {"rs_mc_per_antenna_bits": None, "rs_mc_std_error": None}
        assert [dataclasses.replace(row, **blank) for row in with_mc] == list(without_mc)

    def test_numerical_failure_becomes_error_row(self, monkeypatch):
        def failing(jobs):
            return [RankDeficient("stacked matrix condition 1e12") for _ in jobs]

        monkeypatch.setattr(experiment, "optimize_many", failing)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0,), strategies=("gsvd",))
        (row,) = run_sweep(cfg, include_mc=False).rows
        assert row.error == "stacked matrix condition 1e12"
        assert row.rs_lsl_per_antenna_bits is None

    def test_isotropic_start_failure_fails_every_strategy(self, monkeypatch):
        original = detequiv.solve_fixed_points

        def failing_at_identity(pairs, starts=None, spectra=None):
            return [
                NoConvergence("fixed point residual 1.000e-03 after 10000 iterations")
                if np.array_equal(p, np.eye(stats.num_tx))
                else fp
                for (stats, p), fp in zip(pairs, original(pairs, starts, spectra))
            ]

        monkeypatch.setattr(detequiv, "solve_fixed_points", failing_at_identity)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0, 5.0))
        rows = run_sweep(cfg, include_mc=False).rows
        assert len(rows) == 6
        assert all(row.error == "fixed point residual 1.000e-03 after 10000 iterations" for row in rows)

    def test_one_isotropic_solve_per_point(self, monkeypatch):
        # Both links once at P = I for every strategy, then once per link
        # and outer iteration of wf and gsvd; iso adds no solve. The
        # starts are one batch, and so is each lockstep outer iteration.
        batches = []
        original = detequiv.solve_fixed_points

        def counting(pairs, starts=None, spectra=None):
            batches.append([stats for stats, _ in pairs])
            return original(pairs, starts, spectra)

        monkeypatch.setattr(detequiv, "solve_fixed_points", counting)
        config = dataclasses.replace(figure_preset("fig5"), sweep_grid=(1.0, 2.0))
        rows = run_sweep(config, include_mc=False).rows
        iterations = {(row.sweep_value, row.strategy): row.outer_iterations for row in rows}
        for value in (1.0, 2.0):
            assert iterations[value, "iso"] == 1 and iterations[value, "wf"] > 1 and iterations[value, "gsvd"] > 1
        loops = [n for (_, strategy), n in iterations.items() if strategy != "iso"]
        assert len(batches[0]) == 4  # both links of both points at P = I
        assert len(batches) == 1 + max(loops)
        assert sum(map(len, batches)) == 4 + 2 * sum(loops)

    def test_factorizations_per_point(self, monkeypatch):
        # Cold, one eigendecomposition of each ArraySpec's T, its
        # Transmit's, which every link of the spec shares. Then one stack per batched solve that
        # holds a K to factor: only the water-filling eavesdropper's, one
        # per wf outer iteration, since every other K's spectrum comes
        # from its design and R = I is never factored. Warm, only those
        # stacks.
        eighs, batches = [], []
        original_eigh, original_solve = np.linalg.eigh, detequiv.solve_fixed_points

        def counting_eigh(a, *args, **kwargs):
            eighs.append(len(a))
            return original_eigh(a, *args, **kwargs)

        def counting_solve(pairs, starts=None, spectra=None):
            batches.append(len(pairs))
            return original_solve(pairs, starts, spectra)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(detequiv, "solve_fixed_points", counting_solve)
        config = dataclasses.replace(figure_preset("fig3"), sweep_grid=(10.0,))
        for cold in (True, False):
            eighs.clear(), batches.clear()
            rows = run_sweep(config, include_mc=False).rows
            iterations = {row.strategy: row.outer_iterations for row in rows}
            assert eighs == [1] * (2 * cold + iterations["wf"])
            assert len(batches) == 1 + max(iterations.values()) and sum(batches) == 8

    def test_statistics_failure_fails_every_strategy(self, monkeypatch):
        def failing(spec):
            raise QuadratureFailure("row did not settle")

        monkeypatch.setattr(experiment, "gen_correlation", failing)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0, 5.0))
        rows = run_sweep(cfg, include_mc=False).rows
        assert len(rows) == 6
        assert all(row.error == "row did not settle" for row in rows)

    def test_links_of_one_spec_share_t(self):
        # Both points of an SNR sweep hold one Transmit per link from the
        # bounded per-ArraySpec cache, factored as a Transmit of their own
        # is, all read-only.
        config = figure_preset("fig2")
        first, second = (build_statistics(point_config(config, value)) for value in (0.0, 5.0))
        for a, b, spec in zip(first, second, (config.array_main, config.array_eave)):
            assert a.transmit is b.transmit
            shared, own = a.transmit, Transmit(gen_correlation(spec))
            assert [x.tobytes() for x in (shared.t_corr, *shared.t_eigh, shared.t_sqrt)] == [
                x.tobytes() for x in (own.t_corr, *own.t_eigh, own.t_sqrt)
            ]
            assert not any(x.flags.writeable for x in (shared.t_corr, *shared.t_eigh, shared.t_sqrt))
        assert experiment._transmit.cache_info()[:4] == (2, 2, 256, 2)

    def test_statistics_failure_is_not_cached(self, monkeypatch):
        # The first point's main link fails its quadrature; the second
        # point builds that spec afresh and runs.
        specs = []

        def failing_once(spec):
            specs.append(spec)
            if len(specs) == 1:
                raise QuadratureFailure("row did not settle")
            return gen_correlation(spec)

        monkeypatch.setattr(experiment, "gen_correlation", failing_once)
        cfg = ExperimentConfig(m=2, n_main=2, n_eave=2, sweep="snr", sweep_grid=(0.0, 5.0))
        rows = run_sweep(cfg, include_mc=False).rows
        assert [row.error for row in rows] == ["row did not settle"] * 3 + [""] * 3
        assert specs == [cfg.array_main, cfg.array_main, cfg.array_eave]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(jobs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(experiment, "optimize_many", broken)
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
            {"sweep_grid": [-3230.0]},
            {"sweep_grid": [2000.0]},
            {"sweep": "ne", "sweep_grid": [1.0, 2.0], "snr_eave_db": -1000.5},
            {"spacing_wavelengths": float("nan")},
            {"theta_main_deg": float("inf")},
            {"strategies": []},
            {"m": 2.7},
            {"n_eave": 3.9},
            {"seed": 1.5},
            {"mc_realizations": 2.5},
            {"m": True},
            {"seed": float("inf")},
            {"sweep_grid": "159"},
            {"strategies": {"iso": 1}},
            {"m": "2"},
            {"snr_main_db": True},
            {"sweep_grid": ["0.0", True]},
            {"spacing_wavelengths": "1"},
            {"snr_eave_db": 10**400},
        ],
        ids=[
            "negative-seed",
            "snr-overflow",
            "nan-snr",
            "snr-underflow",
            "snr-2000-db",
            "snr-just-below-range",
            "nan-spacing",
            "inf-mean-angle",
            "no-strategies",
            "fractional-m",
            "fractional-n-eave",
            "fractional-seed",
            "fractional-mc-realizations",
            "boolean-m",
            "infinite-seed",
            "string-grid",
            "object-strategies",
            "string-m",
            "boolean-snr",
            "string-and-boolean-grid",
            "string-spacing",
            "integer-too-large-for-a-float",
        ],
    )
    def test_config_rejected_before_the_sweep(self, tmp_path, capsys, overrides):
        out = tmp_path / "out.csv"
        cfg_path = write_config(tmp_path / "c.json", output_path=str(out), **overrides)
        assert cli_main(["run", "--config", cfg_path, "--no-mc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_preset_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--preset", "fig9", "--no-mc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "fig2, fig3, fig4, fig5" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [True, False], ids=["out-flag", "output-path"])
    @pytest.mark.parametrize("target", ["missing/out.csv", ".", ""], ids=["missing-directory", "directory", "empty"])
    def test_unwritable_output_path_rejected_before_the_sweep(self, tmp_path, capsys, monkeypatch, flag, target):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = str(tmp_path / target) if target else target
        if flag:
            args = ["run", "--preset", "fig3", "--no-mc", "--out", out]
        else:
            args = ["run", "--config", write_config(tmp_path / "c.json", output_path=out), "--no-mc"]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if flag else ["c.json"])

    def test_null_output_path_rejected(self, tmp_path, capsys, monkeypatch):
        # Cast with str(), null once named the CSV "None" in the working
        # directory.
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path / "c.json", output_path=None)
        assert cli_main(["run", "--config", cfg_path, "--no-mc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "is not a string" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

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
