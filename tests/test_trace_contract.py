"""The benchmark's trace contract with the package. perfbench/run.py
reports a per-layer metric as null when the function it names is gone
or renamed, or when a count cannot be read from the function's return
value; these tests catch either before the benchmark runs."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
from wiretap_lsl import detequiv, experiment, montecarlo, precoders  # noqa: E402
from wiretap_lsl.channel import ArraySpec  # noqa: E402


@pytest.mark.parametrize("name", list(run.LAYER_FIELDS))
def test_layer_field_names_a_module_level_callable(name):
    module, func, _ = tracer.TRACED[name]
    assert name == f"{module}.{func}"
    obj = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), func)
    assert callable(obj)
    assert (obj.__module__, obj.__qualname__) == (f"{tracer.PACKAGE}.{module}", func)


def test_every_extractor_reads_a_real_return_value(tmp_path):
    # One small MC sweep over every strategy reaches every traced function
    # but those it batches: mc_ergodic_mi, solve_fixed_point,
    # lsl_secrecy_rate and optimize, which are called here directly.
    config = experiment.ExperimentConfig(
        m=3,
        n_main=3,
        n_eave=2,
        sweep="snr",
        sweep_grid=(5.0,),
        array_main=ArraySpec(3, 0.5, 40.0, 10.0),
        array_eave=ArraySpec(3, 0.5, -10.0, 10.0),
        mc_realizations=64,
    )
    with tracer.Tracer() as traced:
        result = experiment.run_sweep(config)
        experiment.write_csv(result, str(tmp_path / "out.csv"))
        stats_m, stats_e = experiment.build_statistics(config)
        start = detequiv.lsl_secrecy_rate(stats_m, stats_e, np.eye(3))
        precoders.optimize(precoders.Strategy.GSVD_BEAMFORMING, start)
        montecarlo.mc_ergodic_mi(detequiv.solve_fixed_point(stats_m, np.eye(3)), 64, seed=0)
    assert result.num_failed == 0
    for name, (_, _, extract) in tracer.TRACED.items():
        if extract is None or not traced.present(name):
            continue
        stat = traced.stats[name]
        assert stat.calls > 0 and not stat.broken, name
        assert stat.counts and all(isinstance(v, int) for v in stat.counts.values()), name
    for name, keys in run.LAYER_FIELDS.items():
        for key in keys:
            value = run.layer_field(traced, name, key, 1)
            assert value is not None and math.isfinite(value), f"{name}.{key}"
    assert all(isinstance(v, int) for v in traced.counters().values())
