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
from functools import lru_cache
from itertools import product

import numpy as np

from .channel import ArraySpec, ChannelStatistics, Transmit, gen_correlation, is_integer, is_real
from .detequiv import lsl_secrecy_rates
from .errors import NUMERICAL_FAILURES, ParseError, UnknownPreset, ValidationError, as_value
from .montecarlo import mc_secrecy_rate
from .precoders import Strategy, isotropic_precoder, optimize_many

SWEEP_KINDS = ("snr", "ne", "spacing")

# ArraySpec's defaults are the main link's caption values; the
# eavesdropper shares all of them but its mean angle.
DEFAULT_THETA_EAVE = -10.0
DEFAULT_MC_REALIZATIONS = 16_384
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
        if not all(is_integer(v) for v in (self.m, self.n_main, self.n_eave, self.mc_realizations, self.seed)):
            raise ValidationError("m, n_main, n_eave, mc_realizations and seed must be integers")
        if min(self.m, self.n_main, self.n_eave) < 1:
            raise ValidationError("antenna counts must be >= 1")
        if self.sweep not in SWEEP_KINDS:
            raise ValidationError(f"sweep must be one of {SWEEP_KINDS}")
        if isinstance(self.sweep_grid, (str, bytes)) or not np.iterable(self.sweep_grid):
            raise ValidationError("sweep_grid must be a sequence of numbers, not one string or number")
        values = (*self.sweep_grid, self.snr_main_db, self.snr_eave_db)
        if not all(is_real(v) for v in values):
            raise ValidationError("sweep_grid values, snr_main_db and snr_eave_db must be real numbers, not booleans")
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
        if isinstance(self.strategies, str):
            raise ValidationError("strategies must be a sequence of names, not one string")
        try:
            strategies = tuple(Strategy(s) for s in self.strategies)
        except (TypeError, ValueError) as exc:
            raise ValidationError(str(exc)) from exc
        if not strategies or len(set(strategies)) < len(strategies):
            raise ValidationError("strategies must be nonempty and must not repeat")
        if self.array_main is None:
            object.__setattr__(self, "array_main", ArraySpec(self.m))
        if self.array_eave is None:
            object.__setattr__(self, "array_eave", ArraySpec(self.m, mean_angle_deg=DEFAULT_THETA_EAVE))
        if self.array_main.num_antennas != self.m or self.array_eave.num_antennas != self.m:
            raise ValidationError("array_main and array_eave must have m antennas")
        object.__setattr__(self, "strategies", strategies)


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
    """Convert one JSON value to its field type, accepting only that
    type's JSON form: a list for a tuple, converted elementwise (a string
    or object would iterate as characters or keys); a number, never a
    boolean, for an int or a float, and an integral one for an int; a
    string for anything else."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        return tuple(_coerce(typing.get_args(hint)[0], v) for v in value)
    if hint in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{value!r} is not a number")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
    elif not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
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
        array = {key: _coerce(float, raw.get(key, default)) for key, default in _ARRAY_KEYS.items()}
        m, spacing, spread = values["m"], array["spacing_wavelengths"], array["angle_spread_deg"]
        return ExperimentConfig(
            **values,
            array_main=ArraySpec(m, spacing, array["theta_main_deg"], spread),
            array_eave=ArraySpec(m, spacing, array["theta_eave_deg"], spread),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def point_config(config: ExperimentConfig, value: float) -> ExperimentConfig:
    """The config of one sweep point: a one-value sweep, grid (value,),
    with the value in the swept field. Building it validates that value
    alone, so a point costs the same whatever the grid's length. Without
    Monte Carlo, run_sweep of it gives the sweep's rows at that value;
    with it, W is only as tall as the point's own tallest receiver."""
    if config.sweep == "snr":
        swept = dict(snr_main_db=value, snr_eave_db=value)
    elif config.sweep == "ne":
        swept = dict(n_eave=int(round(value)))
    else:
        swept = dict(
            array_main=replace(config.array_main, spacing_wavelengths=value),
            array_eave=replace(config.array_eave, spacing_wavelengths=value),
        )
    return replace(config, sweep_grid=(value,), **swept)


@lru_cache(maxsize=256)
def _transmit(spec: ArraySpec) -> Transmit:
    """Transmit(gen_correlation(spec)): T and its factorization, which
    every link of that spec shares. This is the one cache keyed by
    ArraySpec: gen_correlation runs and T is factored once per distinct
    spec, so an SNR or N_E sweep, which keeps T at every point, factors
    it once per sweep. A failure (QuadratureFailure, NotPsd, or a
    LinAlgError from LAPACK) is raised and not cached."""
    return Transmit(gen_correlation(spec))


def build_statistics(config: ExperimentConfig) -> tuple[ChannelStatistics, ChannelStatistics]:
    """Materialize both links' statistical CSI for a config; every
    receiver is uncorrelated, R = I. Each link holds its ArraySpec's
    Transmit from the bounded per-ArraySpec cache (_transmit)."""
    main = ChannelStatistics(db_to_linear(config.snr_main_db), _transmit(config.array_main), config.n_main)
    return main, ChannelStatistics(db_to_linear(config.snr_eave_db), _transmit(config.array_eave), config.n_eave)


def _error_row(config: ExperimentConfig, value: float, strategy: Strategy, exc: Exception) -> SweepRow:
    return SweepRow(config.sweep, value, strategy.value, None, None, None, None, None, error=str(exc))


# Grid points whose outer loops run in lockstep at a time. Each point of
# a chunk keeps its links, start and loops alive until the chunk is done,
# so this bounds what a sweep holds at once, whatever its grid length;
# every preset grid, fig5's 29 points the longest, runs as one chunk.
_LOCKSTEP_POINTS = 32


def run_sweep(config: ExperimentConfig, include_mc: bool = True) -> SweepResult:
    """Run every (grid point, strategy) pair; a point or strategy that
    fails with a package error or a LinAlgError becomes error rows, and
    any other exception, a fault in the program, propagates.

    The grid runs in chunks of _LOCKSTEP_POINTS points. In each, every
    point's links are built first, and both links of every point are
    solved at P = I in one batch, K's spectrum being T's: the start that
    every strategy's outer loop at the point shares. If either step
    fails at a point, so does every row of the point. Then the outer
    loops of all (point, strategy) pairs of the chunk run in lockstep
    (optimize_many), and last one Monte Carlo call estimates the rates
    of every pair that succeeded, on shared draws: seeded by the sweep's
    seed alone, with W as tall as the sweep's tallest receiver. A row
    whose estimate fails fails alone. Every row is what optimizing each
    pair on its own gives, and its estimate, bit for bit, what
    mc_secrecy_rate gives its point's rates alone at that seed and
    height of W, whatever the grid index or the chunk; rows come in grid
    order, then strategy order.
    """
    rows = []
    tallest = max(config.n_main, point_config(config, config.sweep_grid[-1]).n_eave)
    for first in range(0, len(config.sweep_grid), _LOCKSTEP_POINTS):
        rows.extend(_sweep_chunk(config, first, include_mc, tallest))
    return SweepResult(rows=tuple(rows))


def _sweep_chunk(config: ExperimentConfig, first: int, include_mc: bool, tallest: int) -> list[SweepRow]:
    """The rows of the _LOCKSTEP_POINTS grid points from index first;
    Monte Carlo draws W with tallest rows. Each (point, strategy) row has
    one outcome, in row order: optimize_many's tuple, or the exception
    that fails the row (its point's, or its loop's). The solved outcomes
    take their Monte Carlo estimates in that order, and an estimate that
    failed fails its row."""
    values = config.sweep_grid[first : first + _LOCKSTEP_POINTS]
    # Per grid point: its links, then its start rate, or the exception
    # that fails the point.
    points = []
    for value in values:
        try:
            points.append(build_statistics(point_config(config, value)))
        except NUMERICAL_FAILURES as exc:
            points.append(as_value(exc))
    built = [i for i, point in enumerate(points) if not isinstance(point, Exception)]
    identity = isotropic_precoder(config.m)
    spectra = [(main.transmit.t_eigh[0], eave.transmit.t_eigh[0]) for main, eave in (points[i] for i in built)]
    for i, start in zip(built, lsl_secrecy_rates([(*points[i], identity) for i in built], spectra=spectra)):
        points[i] = start
    started = [point for point in points if not isinstance(point, Exception)]
    optimized = iter(optimize_many([(strategy, start) for start in started for strategy in config.strategies]))
    outcomes = [p if isinstance(p, Exception) else next(optimized) for p in points for _ in config.strategies]
    rates = [o[1] for o in outcomes if not isinstance(o, Exception)]
    if include_mc and rates:
        estimates = iter(mc_secrecy_rate(rates, config.mc_realizations, config.seed, tallest))
    else:
        estimates = iter([None] * len(rates))

    ln2 = math.log(2.0)
    rows = []
    for (value, strategy), outcome in zip(product(values, config.strategies), outcomes):
        mc = None if isinstance(outcome, Exception) else next(estimates)
        failure = mc if isinstance(mc, Exception) else outcome
        if isinstance(failure, Exception):
            rows.append(_error_row(config, value, strategy, failure))
            continue
        _, rate, iterations = outcome
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
    return rows


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
