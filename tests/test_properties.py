"""Property tests over the configs that ExperimentConfig accepts: every
strategy returns a valid covariance and rate, or raises a typed error."""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import isotropic_start
from wiretap_lsl.channel import ArraySpec
from wiretap_lsl.errors import OuterLoopNoConvergence, WiretapError
from wiretap_lsl.experiment import DEFAULT_THETA_EAVE, ExperimentConfig, build_statistics
from wiretap_lsl.precoders import _OUTER_MAX_ITER, Strategy, optimize


@st.composite
def configs(draw):
    m = draw(st.integers(1, 16))
    spacing, spread = draw(st.floats(0.0, 3.0)), draw(st.floats(0.5, 60.0))
    snr_db = st.floats(-40.0, 60.0)
    # build_statistics reads the config's own SNRs, not its sweep grid.
    return ExperimentConfig(
        m=m,
        n_main=draw(st.integers(1, 24)),
        n_eave=draw(st.integers(1, 24)),
        sweep="snr",
        sweep_grid=(0.0,),
        snr_main_db=draw(snr_db),
        snr_eave_db=draw(snr_db),
        array_main=ArraySpec(m, spacing, angle_spread_deg=spread),
        array_eave=ArraySpec(m, spacing, DEFAULT_THETA_EAVE, spread),
    )


def tiny_spacing_config():
    """At spacing 4.55e-278, T has an eigenvalue of 1.36e-309, a gain
    whose reciprocal overflows in water-filling."""
    spacing = 4.550709719544675e-278
    return ExperimentConfig(
        m=5,
        n_main=1,
        n_eave=1,
        sweep="snr",
        sweep_grid=(0.0,),
        snr_main_db=0.0,
        snr_eave_db=0.0,
        array_main=ArraySpec(5, spacing, angle_spread_deg=0.5),
        array_eave=ArraySpec(5, spacing, DEFAULT_THETA_EAVE, 0.5),
    )


@settings(max_examples=100)
@given(configs())
@example(tiny_spacing_config())
def test_every_strategy_returns_a_valid_covariance_or_a_typed_error(config):
    try:
        start = isotropic_start(*build_statistics(config))
    except WiretapError:
        return
    for strategy in Strategy:
        with warnings.catch_warnings(record=True) as caught:
            # Only the outer cap is recorded; every other filter holds.
            warnings.filterwarnings("always", category=OuterLoopNoConvergence)
            try:
                p, rate, iterations = optimize(strategy, start)
            except WiretapError:
                continue
        # A capped loop warns, reports the cap, and still returns a valid state.
        assert [w.category for w in caught] in ([], [OuterLoopNoConvergence]), strategy
        assert 1 <= iterations <= _OUTER_MAX_ITER
        assert not caught or iterations == _OUTER_MAX_ITER
        assert np.array_equal(p, p.conj().T), strategy
        assert np.linalg.eigvalsh(p)[0] >= -1e-12, strategy
        assert np.trace(p).real <= config.m + 1e-6, strategy
        assert math.isfinite(rate.rs) and rate.rs >= 0.0, strategy
