"""The batched solves and the lockstep sweep against their one-at-a-time
oracles: every element of a batched fixed-point solve is the solve of its
pair alone, and run_sweep gives the rows of optimizing each (grid point,
strategy) pair on its own, bit for bit, error texts included."""

import dataclasses
import gc
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_run_sweep, reference_solve_fixed_point
from wiretap_lsl import detequiv, experiment, precoders
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, Transmit, gen_correlation
from wiretap_lsl.detequiv import solve_fixed_point, solve_fixed_points
from wiretap_lsl.errors import BisectionFailure, NoConvergence, NotPsd, WiretapError
from wiretap_lsl.experiment import ExperimentConfig, figure_preset, run_sweep
from wiretap_lsl.linalg import hermitianize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import stress_configs  # noqa: E402

PRESETS = ("fig2", "fig3", "fig4", "fig5")


def fields(fp):
    return fp.e, fp.delta, fp.iterations, fp.residual, fp.mi, fp.k_eigs.tobytes(), fp.stats


def solve(stats, p, start=None, k_eigs=None):
    """solve_fixed_points of the one pair, from start and with K's
    spectrum k_eigs if given; its error is raised."""
    (result,) = solve_fixed_points([(stats, p)], [start], [k_eigs])
    if isinstance(result, Exception):
        raise result
    return result


def outcome(solve, stats, p, start=None, k_eigs=None):
    """A solve's fields, or its error's type and message; k_eigs is
    passed on only if given."""
    try:
        return fields(solve(stats, p, start) if k_eigs is None else solve(stats, p, start, k_eigs))
    except WiretapError as err:
        return type(err), str(err)


def batch_outcome(result):
    return (type(result), str(result)) if isinstance(result, Exception) else fields(result)


def recorded_solves(sweeps):
    """Every (link, P, start, K's spectrum or None) that the calls in
    sweeps, run after one another, hand solve_fixed_points."""
    pairs = []
    original = detequiv.solve_fixed_points

    def recording(batch, starts=None, spectra=None):
        starts, spectra = starts or [None] * len(batch), spectra or [None] * len(batch)
        pairs.extend((stats, p, start, k) for (stats, p), start, k in zip(batch, starts, spectra))
        return original(batch, starts, spectra)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detequiv, "solve_fixed_points", recording)
        for sweep in sweeps:
            sweep()
    return pairs


@pytest.fixture(scope="module")
def preset_pairs():
    """Every (link, P, start, spectrum) that one no-MC fig2-fig5 pass
    solves."""
    return recorded_solves([lambda name=name: run_sweep(figure_preset(name), include_mc=False) for name in PRESETS])


def random_pair(rng):
    """A link of M = 1 to 32 antennas, N = 1 to 4M, -40 to +60 dB and
    spacing 0 to 3 wavelengths, and a random precoder of trace M."""
    m = int(rng.integers(1, 33))
    n = int(rng.integers(1, 4 * m + 1))
    spec = ArraySpec(m, float(rng.uniform(0.0, 3.0)), float(rng.uniform(-90.0, 90.0)), float(rng.uniform(0.5, 60.0)))
    stats = ChannelStatistics(10.0 ** (rng.uniform(-40.0, 60.0) / 10.0), Transmit(gen_correlation(spec)), n)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p = g @ g.conj().T
    return stats, m * p / np.trace(p).real


def factored_spectrum(stats, p):
    """The ascending eigenvalues of T^(1/2) P T^(1/2), clipped at 0."""
    return np.clip(np.linalg.eigvalsh(hermitianize(stats.transmit.t_sqrt @ p @ stats.transmit.t_sqrt)), 0.0, None)


def random_start(rng, stats, p):
    """None, a point inside the bracket (0, hi) of the solve of (stats,
    p), one above hi, 0 or NaN, with those odds."""
    hi = stats.snr / stats.num_tx * np.trace(stats.transmit.t_sqrt @ p @ stats.transmit.t_sqrt).real
    return [None, hi * rng.uniform(0.0, 1.0), hi * rng.uniform(1.0, 2.0) + 1e-300, 0.0, np.nan][
        rng.choice(5, p=[0.2, 0.5, 0.1, 0.1, 0.1])
    ]


def in_random_batches(rng, pairs):
    """solve_fixed_points of the (stats, p, start, spectrum) of pairs over
    a random partition into batches of 1 to 32, in random order; the
    results in the order of pairs."""
    order = rng.permutation(len(pairs))
    results = [None] * len(pairs)
    first = 0
    while first < len(order):
        chunk = order[first : first + int(rng.integers(1, 33))]
        first += len(chunk)
        batch = [pairs[i] for i in chunk]
        solved = solve_fixed_points([pair[:2] for pair in batch], [pair[2] for pair in batch], [pair[3] for pair in batch])
        for i, result in zip(chunk, solved):
            results[i] = result
    return results


class TestBatchedSolve:
    def test_preset_pass_matches_single_solves(self, preset_pairs):
        # Only the water-filling eavesdropper's K is factored: the other
        # links of the 301 wf solves, of the 169 gsvd solves and of the
        # 63 isotropic starts take their designs' spectra.
        assert len(preset_pairs) == 1066
        assert sum(start is None for _, _, start, _ in preset_pairs) == 2 * 63  # the isotropic starts
        assert sum(k is None for *_, k in preset_pairs) == 301
        results = in_random_batches(np.random.default_rng(20), preset_pairs)
        for pair, result in zip(preset_pairs, results):
            expected = fields(reference_solve_fixed_point(*pair))
            assert fields(solve(*pair)) == expected
            assert fields(result) == expected

    def test_warm_starts_keep_the_root(self, preset_pairs):
        # A warm solve stops at the tolerance like a cold one, and the MI,
        # stationary in (e, delta), moves far less than the root.
        for stats, p, start, k in preset_pairs:
            if start is not None:
                warm, cold = solve(stats, p, start, k), solve(stats, p, None, k)
                assert warm.residual <= 1e-12
                assert abs(warm.mi - cold.mi) <= 1e-12 * abs(cold.mi)

    def test_random_links_match_single_solves(self):
        # Mixed N in every batch, in one Newton stack per M, each link from
        # its own start; half of them with K's spectrum given.
        rng = np.random.default_rng(21)
        pairs = []
        for stats, p in (random_pair(rng) for _ in range(1000)):
            start = random_start(rng, stats, p)
            pairs.append((stats, p, start, factored_spectrum(stats, p) if rng.random() < 0.5 else None))
        results = in_random_batches(rng, pairs)
        for pair, result in zip(pairs, results):
            expected = outcome(reference_solve_fixed_point, *pair)
            assert outcome(solve, *pair) == expected
            assert batch_outcome(result) == expected

    def test_one_stack_per_m(self, monkeypatch):
        # At R = I every N shares the Newton stack of its M. Every element
        # is its pair alone.
        rng = np.random.default_rng(24)
        t = gen_correlation(ArraySpec(4, 0.5, 20.0, 10.0))
        pairs = []
        for n in (7, 12, 1, 8, 3, 7, 1):
            stats = ChannelStatistics(10.0 ** rng.uniform(-1.0, 3.0), Transmit(t), n)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            pairs.append((stats, 4.0 * (g @ g.conj().T) / np.trace(g @ g.conj().T).real))
        starts = [None, 0.3, 0.01, None, 2.0, None, 0.5]
        stacks = []
        original = detequiv._newton

        def recording(stats, k_eigs, starts, slots, results):
            stacks.append(sorted(s.num_rx for s in stats))
            return original(stats, k_eigs, starts, slots, results)

        monkeypatch.setattr(detequiv, "_newton", recording)
        results = solve_fixed_points(pairs, starts)
        assert stacks == [[1, 1, 3, 7, 7, 8, 12]]
        for (stats, p), start, result in zip(pairs, starts, results):
            assert fields(result) == fields(reference_solve_fixed_point(stats, p, start))

    def test_start_outside_the_bracket_is_cold(self):
        rng = np.random.default_rng(25)
        for stats, p in (random_pair(rng) for _ in range(20)):
            cold = solve_fixed_point(stats, p)
            hi = stats.snr / stats.num_tx * float(np.sum(cold.k_eigs))
            for start in (hi, 2.0 * hi, np.inf, 0.0, -1.0, np.nan, -np.inf):
                assert fields(solve_fixed_point(stats, p, start)) == fields(cold)

    def test_failures_stay_with_their_pairs(self, monkeypatch):
        rng = np.random.default_rng(22)
        pairs = [random_pair(rng) for _ in range(12)]
        m = pairs[3][0].num_tx
        pairs[3] = pairs[3][0], np.diag(np.r_[-1e-6, np.ones(m - 1)]).astype(complex)
        # Four iterations are too few for some pairs, not for all.
        monkeypatch.setattr(detequiv, "_FP_MAX_ITER", 4)
        expected = [outcome(reference_solve_fixed_point, stats, p) for stats, p in pairs]
        kinds = [e[0] if isinstance(e[0], type) else "solved" for e in expected]
        assert kinds[3] is NotPsd and set(kinds) == {NotPsd, NoConvergence, "solved"}
        assert [batch_outcome(r) for r in solve_fixed_points(pairs)] == expected
        assert [outcome(solve_fixed_point, stats, p) for stats, p in pairs] == expected

    def test_nan_residual_hides_no_other_pair(self, monkeypatch):
        # An infinite SNR gives e = inf * 0, so that link's residual is NaN
        # at every iteration; the links after it in the batch, in the
        # same Newton stack, still stop when their own residuals are small.
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        pairs = [(ChannelStatistics(snr, Transmit(t), 2), np.eye(3)) for snr in (np.inf, 1.0, 10.0)]
        monkeypatch.setattr(detequiv, "_FP_MAX_ITER", 50)
        with np.errstate(invalid="ignore"):
            expected = [outcome(reference_solve_fixed_point, stats, p) for stats, p in pairs]
            results = solve_fixed_points(pairs)
        assert expected[0] == (NoConvergence, "fixed point residual nan after 50 iterations")
        assert all(not isinstance(e[0], type) for e in expected[1:])
        assert [batch_outcome(r) for r in results] == expected

    def test_stacks_split_and_lapack_failure_stays_with_its_pair(self, monkeypatch):
        # When LAPACK fails on a stack, its matrices are factored one at a
        # time, and only the one it fails on gets the error.
        rng = np.random.default_rng(23)
        pairs = [random_pair(rng) for _ in range(40)]
        sizes = [stats.num_tx for stats, _ in pairs]
        bad = next(i for i, m in enumerate(sizes) if sizes.count(m) > 1)
        stats, p = pairs[bad]
        k_bad = stats.transmit.t_sqrt @ p @ stats.transmit.t_sqrt
        expected = [outcome(reference_solve_fixed_point, stats, p) for stats, p in pairs]
        failed = []
        original = detequiv.psd_eigh_stack

        def flaky(ks):
            if any(np.array_equal(k, k_bad) for k in ks):
                failed.append(len(ks))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(ks)

        monkeypatch.setattr(detequiv, "psd_eigh_stack", flaky)
        results = solve_fixed_points(pairs)
        assert failed[0] > 1 and failed[1:] == [1]
        assert isinstance(results[bad], np.linalg.LinAlgError) and str(results[bad]) == "Eigenvalues did not converge"
        assert [batch_outcome(r) for i, r in enumerate(results) if i != bad] == expected[:bad] + expected[bad + 1 :]

    def test_empty_batch(self):
        assert solve_fixed_points([]) == [] and detequiv.lsl_secrecy_rates([]) == []
        assert precoders.optimize_many([]) == []


class TestDesignSpectra:
    """Each K spectrum a design hands the solve is the ascending eigvalsh
    of the K it stands for, clipped at 0, within 1e-12 of its largest
    eigenvalue. Where K is small beside T and P the bound is the
    roundoff of forming P and K, 1e-15 of lam_max(T) lam_max(P): 17 of
    the 1,840 spectra of these tests and of stress passes 0-2 need it,
    with errors up to 3.9e-17 of it. There a 40-digit eigensolve of the
    formed K sides with the factored spectrum or falls between the two:
    the design's spectrum is that of P before its entries were
    rounded."""

    @staticmethod
    def assert_match_factored(pairs):
        given = [(stats, p, k) for stats, p, _, k in pairs if k is not None]
        for stats, p, k in given:
            expected = factored_spectrum(stats, p)
            scale = np.linalg.eigvalsh(stats.transmit.t_corr)[-1] * np.linalg.eigvalsh(p)[-1]
            assert (np.diff(k) >= 0.0).all() and k[0] >= 0.0
            assert np.abs(k - expected).max() <= 1e-12 * expected[-1] + 1e-15 * scale
        return given

    def test_preset_points(self, preset_pairs):
        assert len(self.assert_match_factored(preset_pairs)) == 1066 - 301

    def test_stress_edges(self):
        # -40 and +60 dB and spacing 0, every strategy, and an
        # eavesdropper so strong that gsvd favors no subchannel and
        # designs the zero covariance, whose spectra are zeros.
        configs = [
            ExperimentConfig(m=4, n_main=3, n_eave=5, sweep="snr", sweep_grid=(-40.0, 60.0)),
            ExperimentConfig(m=6, n_main=8, n_eave=2, sweep="spacing", sweep_grid=(0.0, 0.01, 0.05)),
            ExperimentConfig(m=4, n_main=2, n_eave=8, sweep="snr", sweep_grid=(0.0,), snr_eave_db=30.0),
            *(config for _, config in stress_configs(1, 0, False)),
        ]
        pairs = recorded_solves([lambda config=config: run_sweep(config, include_mc=False) for config in configs])
        given = self.assert_match_factored(pairs)
        zero = [k for _, p, k in given if not p.any()]
        assert zero and not any(k.any() for k in zero)
        snrs_db = {round(10.0 * np.log10(stats.snr)) for stats, _, _ in given if stats.snr > 0}
        assert {-40, 60} <= snrs_db

    def test_caller_precoder_is_factored(self):
        # A caller's own P has no known spectrum: its K is factored, and
        # one that is not PSD raises NotPsd.
        stats = experiment.build_statistics(figure_preset("fig2"))[0]
        with pytest.raises(NotPsd):
            solve_fixed_point(stats, np.diag(np.r_[-1e-6, np.ones(5)]).astype(complex))
        p = np.diag(np.linspace(0.0, 2.0, 6)).astype(complex)
        assert solve_fixed_point(stats, p).k_eigs.tobytes() == reference_solve_fixed_point(stats, p).k_eigs.tobytes()


def sweep_rows(config, include_mc, sweep):
    """The rows of sweep(config) and the messages of every warning it
    raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep(config, include_mc=include_mc).rows
    return rows, [str(w.message) for w in caught]


def assert_same_sweep(config, include_mc=False):
    """run_sweep's rows are the oracle's, repr for repr, with the same
    warnings."""
    rows, caught = sweep_rows(config, include_mc, run_sweep)
    expected, expected_caught = sweep_rows(config, include_mc, reference_run_sweep)
    assert [repr(dataclasses.astuple(row)) for row in rows] == [repr(dataclasses.astuple(row)) for row in expected]
    assert caught == expected_caught
    return rows, caught


# The two wf outer loops that settle on a period-2 cycle; the second point
# caps gsvd too.
WF_CYCLES = [(6, 1, 10, 30.66, 26.50, 0.494, 2.226), (4, 2, 11, 39.1, -8.9, 2.24, 1.5)]


class TestLockstepSweep:
    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("include_mc", [False, True], ids=["no-mc", "mc"])
    def test_presets(self, name, include_mc):
        config = dataclasses.replace(figure_preset(name), mc_realizations=64)
        rows, caught = assert_same_sweep(config, include_mc)
        assert not caught and not any(row.error for row in rows)

    def test_grid_longer_than_one_lockstep(self, monkeypatch):
        # The 11 points of fig2 run in chunks of 4, one lockstep and one
        # MC call each, and every point's rows are still its own.
        jobs = []
        original = experiment.optimize_many

        def counting(batch):
            jobs.append(len(batch))
            return original(batch)

        monkeypatch.setattr(experiment, "_LOCKSTEP_POINTS", 4)
        monkeypatch.setattr(experiment, "optimize_many", counting)
        assert_same_sweep(dataclasses.replace(figure_preset("fig2"), mc_realizations=64), include_mc=True)
        assert jobs == [12, 12, 9]

    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_csv_independent_of_lockstep_points(self, monkeypatch, tmp_path, name):
        # At the default MC target, chunks of 4 points give the CSV bytes
        # of one chunk of 32. fig4 is an N_E sweep: every chunk's W is as
        # tall as N_E = 12, the tallest of the whole grid.
        paths = []
        for points in (4, 32):
            monkeypatch.setattr(experiment, "_LOCKSTEP_POINTS", points)
            paths.append(tmp_path / f"{points}.csv")
            experiment.write_csv(run_sweep(figure_preset(name)), str(paths[-1]), timestamp=False)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("index", range(3))
    def test_stress_pass(self, index):
        configs = stress_configs(1, index, False)
        rows = [row for _, config in configs for row in assert_same_sweep(config)[0]]
        assert any(row.error for row in rows)

    def test_failures_leave_no_reference_cycles(self):
        # A failure kept as a row's value holds no traceback, whose frames
        # would hold it in turn, with every loop and link of its lockstep.
        configs = stress_configs(1, 0, False)

        def sweep():
            return [row for _, config in configs for row in run_sweep(config, include_mc=False).rows]

        sweep()  # loads the quadrature table, whose parsing makes cycles
        gc.collect()
        gc.disable()
        try:
            rows = sweep()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert any(row.error for row in rows) and unreachable == 0

    @pytest.mark.parametrize("point", WF_CYCLES)
    def test_capped_loops_warn_once_each(self, point):
        m, n_main, n_eave, snr_main_db, snr_eave_db, spacing, spread = point
        config = ExperimentConfig(
            m=m,
            n_main=n_main,
            n_eave=n_eave,
            sweep="spacing",
            sweep_grid=(spacing,),
            snr_main_db=snr_main_db,
            snr_eave_db=snr_eave_db,
            array_main=ArraySpec(m, spacing, 40.0, spread),
            array_eave=ArraySpec(m, spacing, -10.0, spread),
        )
        rows, caught = assert_same_sweep(config)
        capped = [row.strategy for row in rows if row.outer_iterations == precoders._OUTER_MAX_ITER]
        assert "wf" in capped and len(caught) == len(capped)

    def test_design_failing_mid_loop(self, monkeypatch):
        # The third gsvd design at 5 dB fails, two outer iterations into
        # a loop of four, while wf there runs on for seven: that row alone
        # fails. The designs of a step come as one stack; the failure is
        # its element's value.
        original = precoders.gsvd_precoders
        designs = {}

        def failing(items):
            results = original(items)
            for i, (stats_m, _, _, _) in enumerate(items):
                count = designs[stats_m.snr] = designs.get(stats_m.snr, 0) + 1
                if stats_m.snr == experiment.db_to_linear(5.0) and count == 3:
                    results[i] = BisectionFailure("no multiplier meets the budget")
            return results

        monkeypatch.setattr(precoders, "gsvd_precoders", failing)
        config = dataclasses.replace(figure_preset("fig2"), sweep_grid=(0.0, 5.0, 10.0), mc_realizations=64)
        rows = run_sweep(config).rows
        designs.clear()
        assert rows == reference_run_sweep(config).rows
        assert [(row.sweep_value, row.strategy, row.error) for row in rows if row.error] == [
            (5.0, "gsvd", "no multiplier meets the budget")
        ]
        assert designs[experiment.db_to_linear(5.0)] == 3


class TestWorkGuard:
    def test_preset_pass_work(self, monkeypatch):
        # One no-MC fig2-fig5 pass makes the element solves, fixed-point
        # iterations and outer iterations of optimizing each (point,
        # strategy) pair on its own, in far fewer eigendecompositions:
        # 1,318 when every K was factored alone. Cold, each of the 62
        # distinct ArraySpecs factors its T once, its Transmit's, and 64
        # of the 126 links reuse a cached Transmit; warm, all 126 do. So
        # gen_correlation runs once per distinct spec cold and never warm,
        # and factors nothing. Every K's spectrum comes from its design
        # but the water-filling eavesdropper's: one stack in each of the
        # 40 lockstep steps that run wf loops. The 1,066 solves run as 44
        # Newton stacks, one per M and batch, and each outer iteration's
        # solves start from the deltas before them: 3,178 iterations,
        # against 4,944 from the top of every bracket.
        eighs, batches, iterations, groups, specs = [], [], [], [], []
        original_eigh, original_solve = np.linalg.eigh, detequiv.solve_fixed_points
        original_newton, original_correlation = detequiv._newton, experiment.gen_correlation

        def counting_eigh(a, *args, **kwargs):
            eighs.append(a)
            return original_eigh(a, *args, **kwargs)

        def counting_solve(pairs, starts=None, spectra=None):
            results = original_solve(pairs, starts, spectra)
            batches.append(len(pairs))
            iterations.extend(fp.iterations for fp in results)
            return results

        def counting_newton(stats, k_eigs, starts, slots, results):
            groups.append(len(slots))
            return original_newton(stats, k_eigs, starts, slots, results)

        def counting_correlation(spec):
            specs.append(spec)
            return original_correlation(spec)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(detequiv, "solve_fixed_points", counting_solve)
        monkeypatch.setattr(detequiv, "_newton", counting_newton)
        monkeypatch.setattr(experiment, "gen_correlation", counting_correlation)
        for cold in (True, False):
            eighs.clear(), batches.clear(), iterations.clear(), groups.clear(), specs.clear()
            rows = [row for name in PRESETS for row in run_sweep(figure_preset(name), include_mc=False).rows]
            assert (sum(batches), sum(iterations), sum(row.outer_iterations for row in rows)) == (1066, 3178, 533)
            assert (len(batches), len(eighs)) == (44, 40 + (62 if cold else 0))
            assert (len(specs), len(set(specs))) == ((62, 62) if cold else (0, 0))
            assert (len(groups), sum(groups)) == (44, 1066)
        assert experiment._transmit.cache_info()[:2] == (64 + 126, 62)
