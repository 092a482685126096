"""Experiment driver: configs, figure presets, parameter sweeps and CSV
output. Rates are computed internally in nats per transmit antenna and
reported in bits (per antenna and total).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .channel import ArraySpec, ChannelStatistics, gen_correlation
from .detequiv import lsl_secrecy_rate
from .errors import ParseError, UnknownPreset, ValidationError, WiretapError
from .montecarlo import mc_secrecy_rate
from .precoders import Strategy, isotropic_precoder, optimize

SWEEP_KINDS = ("snr", "ne", "spacing")

# ArraySpec's defaults are the main link's caption values; the
# eavesdropper shares all of them but its mean angle.
DEFAULT_THETA_EAVE = -10.0
DEFAULT_MC_REALIZATIONS = 3_000
# Accepted SNRs in dB, NaN excluded. Near -3000 dB rho underflows and the
# eigensolvers fail; near +2000 dB the fixed point runs to its cap.
SNR_DB_LIMIT = 1000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment."""

    m: int
    n_main: int
    n_eave: int
    sweep: str
    sweep_grid: tuple[float, ...]
    snr_main_db: float = 10.0
    snr_eave_db: float = 10.0
    array_main: ArraySpec | None = None
    array_eave: ArraySpec | None = None
    strategies: tuple[Strategy, ...] = (Strategy.ISOTROPIC, Strategy.WATER_FILLING, Strategy.GSVD_BEAMFORMING)
    mc_realizations: int = DEFAULT_MC_REALIZATIONS
    seed: int = 0
    output_path: str = "sweep.csv"

    def __post_init__(self):
        if min(self.m, self.n_main, self.n_eave) < 1:
            raise ValidationError("antenna counts must be >= 1")
        if self.sweep not in SWEEP_KINDS:
            raise ValidationError(f"sweep must be one of {SWEEP_KINDS}")
        grid = tuple(float(v) for v in self.sweep_grid)
        if not grid:
            raise ValidationError("sweep_grid must be nonempty")
        if not all(math.isfinite(v) for v in grid):
            raise ValidationError("sweep_grid values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("sweep_grid must be strictly ascending")
        # Grid values become antenna counts or spacings at each point.
        if self.sweep == "ne" and round(grid[0]) < 1:
            raise ValidationError("ne sweep values must round to >= 1")
        if self.sweep == "spacing" and grid[0] < 0:
            raise ValidationError("spacing sweep values must be >= 0")
        object.__setattr__(self, "sweep_grid", grid)
        snrs_db = (self.snr_main_db, self.snr_eave_db, *(grid if self.sweep == "snr" else ()))
        if not all(abs(v) <= SNR_DB_LIMIT for v in snrs_db):
            raise ValidationError(f"SNRs must be within +-{SNR_DB_LIMIT:g} dB")
        if self.mc_realizations < 1:
            raise ValidationError("mc_realizations must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not self.strategies:
            raise ValidationError("strategies must be nonempty")
        if self.array_main is None:
            object.__setattr__(self, "array_main", ArraySpec(self.m))
        if self.array_eave is None:
            object.__setattr__(self, "array_eave", ArraySpec(self.m, mean_angle_deg=DEFAULT_THETA_EAVE))
        if self.array_main.num_antennas != self.m or self.array_eave.num_antennas != self.m:
            raise ValidationError("array_main and array_eave must have m antennas")
        object.__setattr__(self, "strategies", tuple(Strategy(s) for s in self.strategies))


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    sweep_value: float
    strategy: str
    rs_lsl_per_antenna_bits: float | None
    rs_lsl_total_bits: float | None
    rs_mc_per_antenna_bits: float | None
    rs_mc_std_error: float | None
    outer_iterations: int | None
    error: str = ""


CSV_COLUMNS = [f.name for f in dataclasses.fields(SweepRow)]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    @property
    def num_failed(self) -> int:
        return sum(1 for row in self.rows if row.error)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


_SNR_GRID = tuple(np.arange(-5.0, 20.0 + 1e-9, 2.5))
_FIG45 = dict(m=4, n_main=4, n_eave=2, snr_main_db=0.0, snr_eave_db=0.0)

# The four published figures, by name.
PRESETS = {
    "fig2": ExperimentConfig(m=6, n_main=6, n_eave=2, sweep="snr", sweep_grid=_SNR_GRID),
    "fig3": ExperimentConfig(m=2, n_main=3, n_eave=4, sweep="snr", sweep_grid=_SNR_GRID),
    "fig4": ExperimentConfig(**_FIG45, sweep="ne", sweep_grid=tuple(float(v) for v in range(1, 13))),
    "fig5": ExperimentConfig(
        **_FIG45, sweep="spacing", sweep_grid=tuple(np.round(np.arange(0.2, 3.0 + 1e-9, 0.1), 10))
    ),
}


def figure_preset(name: str) -> ExperimentConfig:
    """Experiment configuration matching one of the published figures."""
    if name not in PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    return PRESETS[name]


def parse_config(path: str) -> ExperimentConfig:
    """Load an experiment config from a flat JSON file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    return config_from_dict(raw, source=path)


# Flat config keys that build the two ArraySpecs, with their defaults;
# every other accepted key is an ExperimentConfig field of the same name.
_ARRAY_KEYS = {
    "spacing_wavelengths": ArraySpec.spacing_wavelengths,
    "theta_main_deg": ArraySpec.mean_angle_deg,
    "theta_eave_deg": DEFAULT_THETA_EAVE,
    "angle_spread_deg": ArraySpec.angle_spread_deg,
}

_CONFIG_FIELDS = [f for f in dataclasses.fields(ExperimentConfig) if f.name not in ("array_main", "array_eave")]
CONFIG_KEYS = frozenset(f.name for f in _CONFIG_FIELDS) | frozenset(_ARRAY_KEYS)


def _coerce(hint, value):
    """Convert one JSON value to its field type, tuples elementwise from a
    JSON list only (a string or object would iterate as characters or
    keys); an int field rejects a boolean or a non-integral number instead
    of truncating it."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        return tuple(typing.get_args(hint)[0](v) for v in value)
    if hint is int and (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{value!r} is not an integer")
    return hint(value)


def config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ParseError(f"{source}: unknown fields {sorted(unknown)}")
    missing = {f.name for f in _CONFIG_FIELDS if f.default is dataclasses.MISSING} - set(raw)
    if missing:
        raise ParseError(f"{source}: missing fields {sorted(missing)}")

    hints = typing.get_type_hints(ExperimentConfig)
    try:
        values = {f.name: _coerce(hints[f.name], raw[f.name]) for f in _CONFIG_FIELDS if f.name in raw}
        array = {key: float(raw.get(key, default)) for key, default in _ARRAY_KEYS.items()}
        m, spacing, spread = values["m"], array["spacing_wavelengths"], array["angle_spread_deg"]
        return ExperimentConfig(
            **values,
            array_main=ArraySpec(m, spacing, array["theta_main_deg"], spread),
            array_eave=ArraySpec(m, spacing, array["theta_eave_deg"], spread),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def point_config(config: ExperimentConfig, value: float) -> ExperimentConfig:
    """The config of one sweep point: the grid value in the swept field."""
    if config.sweep == "snr":
        return replace(config, snr_main_db=value, snr_eave_db=value)
    if config.sweep == "ne":
        return replace(config, n_eave=int(round(value)))
    return replace(
        config,
        array_main=replace(config.array_main, spacing_wavelengths=value),
        array_eave=replace(config.array_eave, spacing_wavelengths=value),
    )


def build_statistics(config: ExperimentConfig) -> tuple[ChannelStatistics, ChannelStatistics]:
    """Materialize both links' statistical CSI for a config."""

    def link(snr_db: float, num_rx: int, array: ArraySpec) -> ChannelStatistics:
        snr, t = db_to_linear(snr_db), gen_correlation(array)
        return ChannelStatistics(snr=snr, num_rx=num_rx, num_tx=config.m, t_corr=t, r_corr=np.eye(num_rx))

    main = link(config.snr_main_db, config.n_main, config.array_main)
    return main, link(config.snr_eave_db, config.n_eave, config.array_eave)


# Numerical failures of one sweep point, reported as error rows; any
# other exception is a fault in the program and propagates.
_POINT_FAILURES = (WiretapError, np.linalg.LinAlgError)


def _error_row(config: ExperimentConfig, value: float, strategy: Strategy, exc: Exception) -> SweepRow:
    return SweepRow(config.sweep, value, strategy.value, None, None, None, None, None, error=str(exc))


def run_sweep(config: ExperimentConfig, include_mc: bool = True) -> SweepResult:
    """Run every (grid point, strategy) pair; a point or strategy that
    fails with a package error or a LinAlgError becomes error rows.

    At each grid point both links are solved once at P = I, the start
    that every strategy's optimize shares; if that solve fails, so does
    every row of the point. Then every strategy is optimized, and one
    Monte Carlo call, seeded by (seed, grid index), estimates the rates
    of all that succeeded on shared draws; if it fails, so do their rows.
    """
    ln2 = math.log(2.0)
    rows = []
    for gi, value in enumerate(config.sweep_grid):
        try:
            stats_m, stats_e = build_statistics(point_config(config, value))
            start = lsl_secrecy_rate(stats_m, stats_e, isotropic_precoder(config.m))
        except _POINT_FAILURES as exc:
            rows.extend(_error_row(config, value, strategy, exc) for strategy in config.strategies)
            continue
        # Per strategy: [rate, outer iterations, MC estimate], or the exception.
        outcomes = []
        for strategy in config.strategies:
            try:
                _, rate, iterations = optimize(strategy, start)
                outcomes.append([rate, iterations, None])
            except _POINT_FAILURES as exc:
                outcomes.append(exc)
        solved = [outcome for outcome in outcomes if not isinstance(outcome, Exception)]
        if include_mc and solved:
            try:
                estimates = mc_secrecy_rate([o[0] for o in solved], config.mc_realizations, (config.seed, gi))
            except _POINT_FAILURES as exc:
                outcomes = [o if isinstance(o, Exception) else exc for o in outcomes]
            else:
                for outcome, mc in zip(solved, estimates):
                    outcome[2] = mc
        for strategy, outcome in zip(config.strategies, outcomes):
            if isinstance(outcome, Exception):
                rows.append(_error_row(config, value, strategy, outcome))
                continue
            rate, iterations, mc = outcome
            rows.append(
                SweepRow(
                    sweep_var=config.sweep,
                    sweep_value=value,
                    strategy=strategy.value,
                    rs_lsl_per_antenna_bits=rate.rs / ln2,
                    rs_lsl_total_bits=rate.rs * config.m / ln2,
                    rs_mc_per_antenna_bits=None if mc is None else mc.mean / ln2,
                    rs_mc_std_error=None if mc is None else mc.std_error / ln2,
                    outer_iterations=iterations,
                )
            )
    return SweepResult(rows=tuple(rows))


def write_csv(result: SweepResult, path: str, timestamp: bool = True) -> None:
    """Write the sweep table; rerunning with the same seed and
    timestamp=False yields a byte-identical file."""
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([_fmt(getattr(row, column)) for column in CSV_COLUMNS])


def _fmt(value) -> str:
    """One CSV cell: floats to 12 significant digits, None as empty."""
    if value is None:
        return ""
    return format(value, ".12g") if isinstance(value, float) else str(value)
