"""End-to-end benchmark of the wiretap-lsl sweep pipeline.

Usage, from the root of a checkout (the package is imported from its
``src/`` directory; nothing needs installing):

    python3 perfbench/run.py --workload lsl_presets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run of one workload does, in order:

1. Set-up: three fresh Python processes each import ``wiretap_lsl`` and
   build the workload's first correlation matrix; ``setup_s`` is the
   median wall time of a process, start to exit.
2. Warm-up: sweep pass 0 without Monte Carlo (MC) under a counting
   tracer. This fills lazy caches (quadrature nodes, and for the presets
   the correlation matrices) and counts the deterministic work.
3. Measurement, a closed loop: one sweep (``run_sweep`` plus
   ``write_csv``) after another, passes 1, 2, ... until ``--seconds``
   have passed; every started pass finishes. With ``--trace 1`` every
   sweep runs twice, traced and untraced in alternating order, and the
   two must give identical rows.
4. Pass 0 again under the counting tracer; its counters must equal the
   warm-up's exactly.

``rows_per_s`` is the rows of the timed passes over their summed wall
time, ``ok_frac`` the share of checked rows that are neither error rows
nor wrong, and ``peak_rss_mb`` the ``ru_maxrss`` of this process.

Every row of every pass is checked. A row with an ``error`` is the
package's typed report that it could not solve that input; it is counted
in ``ok_frac`` but is not a wrong output. A row is *wrong* when it breaks
an invariant (non-finite value, negative rate, total != M * per-antenna,
outer iterations outside [1, cap]) or differs from the committed
reference (``reference.json``): ``rs_lsl_*`` by more than
``REF_REL_TOL`` relative, or the MC estimate by more than ``MC_SIGMAS``
combined standard errors. Wrong rows, rows missing against the
reference, unequal traced/untraced rows and counters that do not repeat
make ``correct`` false; ``failed`` counts the wrong and missing rows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON object with the details: environment,
counters, per-pass times, error rows by exception class and, on MC
workloads, the share of rows where the deterministic equivalent and MC
disagree.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from tracer import OUTER_ITERATION_CAP, TRACED, Tracer  # noqa: E402

PRESETS = ("fig2", "fig3", "fig4", "fig5")
STRESS_M = (1, 2, 4, 8, 16, 32)
EDGE_SPACINGS = (0.0, 0.01, 0.05)
FULL_MAX_M = 8
FULL_SNR_MAX_DB = 20.0
SETUP_REPEATS = 3
TINY_MC_REALIZATIONS = 64
# rs_lsl_* must match the reference to this relative tolerance (absolute
# below 1 bit); the acceptance suite's tightest tolerance is 1e-9.
REF_REL_TOL = 1e-9
# MC estimates at any seed must lie within this many combined standard
# errors of the reference estimate (seed 0); a changed random stream
# still passes, a biased estimator does not.
MC_SIGMAS = 5.0
INVARIANT_REL_TOL = 1e-12

SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wiretap_lsl
t1 = time.perf_counter()
if not wiretap_lsl.__file__.startswith(sys.argv[1]):
    sys.exit("wiretap_lsl imported from " + wiretap_lsl.__file__)
from wiretap_lsl.channel import ArraySpec, gen_correlation
gen_correlation(ArraySpec(**json.loads(sys.argv[2])))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "gen_correlation_s": t2 - t1}))
"""


EXPERIMENT = None  # wiretap_lsl.experiment, set by import_package()


def import_package():
    """Import wiretap_lsl from this checkout's src/, never from elsewhere."""
    global EXPERIMENT
    if not (SRC / "wiretap_lsl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'wiretap_lsl'}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("wiretap_lsl")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: wiretap_lsl imported from {package.__file__}, not {SRC}")
    EXPERIMENT = importlib.import_module("wiretap_lsl.experiment")


# --------------------------------------------------------------- workloads


def preset_configs(seed: int, index: int, tiny: bool):
    """The paper's four figure presets, the same in every pass; MC draws
    use the workload seed."""
    configs = []
    for name in PRESETS:
        config = dataclasses.replace(EXPERIMENT.figure_preset(name), seed=seed)
        if tiny:
            config = dataclasses.replace(
                config, sweep_grid=config.sweep_grid[:1], mc_realizations=TINY_MC_REALIZATIONS
            )
        configs.append((name, config))
    return configs


def _kronecker_steps(count: int) -> np.ndarray:
    """Fractional parts of sqrt(p) for the first `count` primes: steps of
    a Kronecker low-discrepancy sequence, one per coordinate."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return np.sqrt(np.array(primes, dtype=float)) % 1.0


STRESS_DIMS = 256
STRESS_STEPS = _kronecker_steps(STRESS_DIMS)


def stress_configs(seed: int, index: int, tiny: bool):
    """Configs drawn from the input space ExperimentConfig accepts.

    Every pass holds the same kinds of sweep; the values inside are
    point `index` of a Kronecker sequence shifted by a random offset
    drawn from the seed. Consecutive passes thus spread evenly over the
    input space instead of clustering, so the cost of a run of passes
    varies little from seed to seed. Each grid holds the edges of its
    range plus interior points (SNR -40 dB and the top SNR, N_E 1 and 4M,
    spacing 0, 0.01 and 0.05 wavelengths), so the known failure regions
    recur in every pass.

    For M <= FULL_MAX_M there is an SNR, an N_E and a spacing sweep with
    all three strategies up to FULL_SNR_MAX_DB. For every M there is an
    isotropic SNR sweep up to 60 dB, where the fixed point is
    iteration-bound. The strategies with an outer loop are left out
    above FULL_SNR_MAX_DB and above FULL_MAX_M: there one row can hit
    the 100-iteration outer cap with fixed points of thousands of steps
    or eigendecompositions of 128 x 128 matrices, taking 2 to 60 s,
    which no run length here would average out.
    """
    from wiretap_lsl.channel import ArraySpec
    from wiretap_lsl.experiment import ExperimentConfig

    point = (np.random.default_rng(seed).random(STRESS_DIMS) + index * STRESS_STEPS) % 1.0
    coords = iter(point)
    configs = []

    def uniform(low, high):
        return low + (high - low) * float(next(coords))

    def integer(low, high):  # inclusive
        return min(high, low + int((high - low + 1) * next(coords)))

    def draw(m, sweep, snr_max, strategies):
        spread = uniform(0.5, 60.0)
        spacing = uniform(0.0, 3.0)
        if sweep == "snr":
            mid = (snr_max - 40.0) / 2.0
            grid = [-40.0, uniform(-39.0, mid), uniform(mid, snr_max - 1.0), snr_max]
        elif sweep == "ne":
            grid = sorted({1, 4 * m, integer(2, 4 * m - 1), integer(2, 4 * m - 1)}) if m > 1 else [1, 2, 3, 4]
        else:
            grid = [*EDGE_SPACINGS, uniform(0.1, 3.0)]
        config = ExperimentConfig(
            m=m,
            n_main=integer(1, 4 * m),
            n_eave=integer(1, 4 * m),
            sweep=sweep,
            sweep_grid=tuple(float(v) for v in (grid[:1] if tiny else grid)),
            snr_main_db=uniform(-40.0, snr_max),
            snr_eave_db=uniform(-40.0, snr_max),
            array_main=ArraySpec(m, spacing, 40.0, spread),
            array_eave=ArraySpec(m, spacing, -10.0, spread),
            strategies=strategies,
            seed=seed,
        )
        configs.append((f"stress-m{m}-{sweep}-{'-'.join(strategies)}", config))

    for m in STRESS_M:
        if m <= FULL_MAX_M:
            for sweep in ("snr", "ne", "spacing"):
                draw(m, sweep, FULL_SNR_MAX_DB, ("iso", "wf", "gsvd"))
        draw(m, "snr", 60.0, ("iso",))
    return configs


@dataclasses.dataclass(frozen=True)
class Workload:
    include_mc: bool
    configs: Callable  # (seed, pass index, tiny) -> [(label, ExperimentConfig)]


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "lsl_presets": Workload(False, preset_configs),
    "mc_presets": Workload(True, preset_configs),
    "stress": Workload(False, stress_configs),
}


# ---------------------------------------------------------------- checking


def load_reference():
    with open(HERE / "reference.json") as fh:
        raw = json.load(fh)
    return {
        name: {(_key(r["sweep_value"]), r["strategy"]): r for r in rows} for name, rows in raw["presets"].items()
    }


def _key(value: float) -> str:
    return format(value, ".12g")


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _close(value, ref, rel) -> bool:
    return value is not None and abs(value - ref) <= rel * max(1.0, abs(ref))


class Checker:
    """Checks rows against the invariants and the reference; tallies them."""

    def __init__(self, reference):
        self.reference = reference
        self.rows = 0
        self.error_rows = 0
        self.wrong = 0
        self.examples = []
        self.mc_rows = 0
        self.mc_disagree = 0

    def _flag(self, what, why):
        self.wrong += 1
        if len(self.examples) < 10:
            self.examples.append(f"{what}: {why}")

    def check(self, label, config, result, mc: bool):
        ref = self.reference.get(label)
        seen = set()
        for row in result.rows:
            self.rows += 1
            key = (_key(row.sweep_value), row.strategy)
            seen.add(key)
            if row.error:
                self.error_rows += 1
                if ref is not None:
                    self._flag(f"{label} {key}", f"error row where the reference has a value: {row.error}")
                continue
            why = self._invariant(config, row, mc)
            if why is None and ref is not None:
                why = self._against_reference(ref.get(key), row, mc)
            if why is not None:
                self._flag(f"{label} {key}", why)
                continue
            if mc:
                self.mc_rows += 1
                lsl, est, se = row.rs_lsl_per_antenna_bits, row.rs_mc_per_antenna_bits, row.rs_mc_std_error
                if abs(lsl - est) > max(3.0 * se, 0.02 * est):
                    self.mc_disagree += 1
        if ref is not None:
            grid = {_key(v) for v in config.sweep_grid}
            for key in ref:
                if key[0] in grid and key not in seen:
                    self._flag(f"{label} {key}", "row missing")

    def _invariant(self, config, row, mc):
        per, total = row.rs_lsl_per_antenna_bits, row.rs_lsl_total_bits
        if not _finite(per, total):
            return "non-finite rs_lsl"
        if per < 0 or total < 0:
            return "negative rs_lsl"
        if abs(total - config.m * per) > INVARIANT_REL_TOL * max(1.0, abs(total)):
            return f"rs_lsl_total {total!r} != M * per-antenna {config.m * per!r}"
        if not isinstance(row.outer_iterations, int) or not 1 <= row.outer_iterations <= OUTER_ITERATION_CAP:
            return f"outer iterations {row.outer_iterations!r} outside [1, {OUTER_ITERATION_CAP}]"
        if mc:
            if not _finite(row.rs_mc_per_antenna_bits, row.rs_mc_std_error):
                return "non-finite MC estimate"
            if row.rs_mc_per_antenna_bits < 0 or row.rs_mc_std_error < 0:
                return "negative MC estimate"
        return None

    def _against_reference(self, ref, row, mc):
        if ref is None:
            return "row absent from the reference"
        for column in ("rs_lsl_per_antenna_bits", "rs_lsl_total_bits"):
            if not _close(getattr(row, column), ref[column], REF_REL_TOL):
                return f"{column} {getattr(row, column)!r} != reference {ref[column]!r}"
        if mc:
            tol = MC_SIGMAS * math.hypot(row.rs_mc_std_error, ref["rs_mc_std_error"]) + 1e-12
            if abs(row.rs_mc_per_antenna_bits - ref["rs_mc_per_antenna_bits"]) > tol:
                return (
                    f"MC {row.rs_mc_per_antenna_bits!r} more than {MC_SIGMAS} SE from reference "
                    f"{ref['rs_mc_per_antenna_bits']!r}"
                )
        return None


# ----------------------------------------------------------------- running


def run_pass(configs, include_mc: bool):
    """One closed-loop pass: sweep each config, then write its CSV."""
    results = []
    for i, (_, config) in enumerate(configs):
        result = EXPERIMENT.run_sweep(config, include_mc=include_mc)
        EXPERIMENT.write_csv(result, str(OUT_DIR / f"sweep-{i}.csv"), timestamp=False)
        results.append(result)
    return results


def timed_pass(configs, include_mc: bool):
    t0 = time.perf_counter()
    results = run_pass(configs, include_mc)
    return results, time.perf_counter() - t0


def paired_pass(configs, include_mc: bool, tracer: Tracer, index: int):
    """Each sweep traced and untraced back to back, so that both sides see
    the same machine speed. Which side runs first alternates, so that
    neither always finds the correlation cache filled by the other.
    Returns (traced results, untraced results, traced s, untraced s)."""
    traced_results, untraced_results = [], []
    traced_time = untraced_time = 0.0
    for i, item in enumerate(configs):
        for traced in (True, False) if (index + i) % 2 else (False, True):
            if traced:
                with tracer:
                    (result,), elapsed = timed_pass([item], include_mc)
                traced_results.append(result)
                traced_time += elapsed
            else:
                (result,), elapsed = timed_pass([item], include_mc)
                untraced_results.append(result)
                untraced_time += elapsed
    return traced_results, untraced_results, traced_time, untraced_time


def counting_pass(workload, seed, tiny):
    """Pass 0 without MC under a counting tracer."""
    configs = workload.configs(seed, 0, tiny)
    with Tracer() as tracer:
        results = run_pass(configs, include_mc=False)
    return tracer, configs, results


def measure_setup(spec: dict, repeats: int):
    walls, parts = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed: {proc.stderr.strip()}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "wall_s": walls,
        "import_s": [p["import_s"] for p in parts],
        "gen_correlation_s": [p["gen_correlation_s"] for p in parts],
    }


def rows_key(results):
    return [repr(dataclasses.astuple(row)) for result in results for row in result.rows]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result line dict, detail dict)."""
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    checker = Checker(load_reference())

    first = workload.configs(seed, 1, tiny)[0][1].array_main
    setup = measure_setup(dataclasses.asdict(first), 1 if tiny else SETUP_REPEATS)

    counted_first, configs0, results0 = counting_pass(workload, seed, tiny)
    for (label, config), result in zip(configs0, results0):
        checker.check(label, config, result, mc=False)

    pass_times, traced_times, untraced_times = [], [], []
    timed_rows = 0
    rows_mismatch = 0
    layers = Tracer(record_spans=True)
    start = time.perf_counter()
    index = 1
    while True:
        configs = workload.configs(seed, index, tiny)
        if trace:
            results, untraced_results, traced_time, untraced_time = paired_pass(
                configs, workload.include_mc, layers, index
            )
            layers.record_spans = False  # keep the spans of the first traced pass only
            traced_times.append(traced_time)
            untraced_times.append(untraced_time)
            if rows_key(results) != rows_key(untraced_results):
                rows_mismatch += 1
            for (label, config), result in zip(configs, untraced_results):
                checker.check(label, config, result, workload.include_mc)
        else:
            results, elapsed = timed_pass(configs, workload.include_mc)
            pass_times.append(elapsed)
        timed_rows += sum(len(r.rows) for r in results)
        for (label, config), result in zip(configs, results):
            checker.check(label, config, result, workload.include_mc)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    passes = index - 1

    counted_last, _, results_last = counting_pass(workload, seed, tiny)
    counters = counted_first.counters()
    counters_repeat = counters == counted_last.counters() and rows_key(results0) == rows_key(results_last)

    attempted = checker.rows
    correct = checker.wrong == 0 and counters_repeat and rows_mismatch == 0
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "counters": counters,
        "counters_repeat": counters_repeat,
        "row_errors_by_class": dict(sorted(counted_first.row_errors().items())),
        "calls": {k: st.calls for k, st in counted_first.stats.items()},
        "absent_functions": [k for k in TRACED if not counted_first.present(k)],
        "rows_checked": attempted,
        "error_rows": checker.error_rows,
        "wrong_rows": checker.wrong,
        "wrong_examples": checker.examples,
        "failed_frac": (checker.error_rows + checker.wrong) / attempted,
        "setup": setup,
        "passes": passes,
    }
    if workload.include_mc:
        detail["mc_rows"] = checker.mc_rows
        detail["mc_disagree_frac"] = checker.mc_disagree / max(1, checker.mc_rows)

    if trace:
        detail["traced_rows_equal_untraced"] = rows_mismatch == 0
        detail["pass_s_traced"] = traced_times
        detail["pass_s_untraced"] = untraced_times
        metrics = layer_metrics(layers, passes, timed_rows / passes, setup, sum(traced_times) / sum(untraced_times) - 1.0)
        layers.write_spans(str(OUT_DIR / f"spans-{name}.jsonl"))
    else:
        q1, q2, q3 = quartiles(pass_times)
        detail["pass_s"] = {"p25": q1, "p50": q2, "p75": q3, "passes": passes}
        detail["timed_rows"] = timed_rows
        metrics = {
            "setup_s": (statistics.median(setup["wall_s"]), "s"),
            "rows_per_s": (timed_rows / sum(pass_times), "rows/s"),
            "ok_frac": ((attempted - checker.error_rows - checker.wrong) / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": checker.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, detail


# Per-layer metrics of the traced run: traced function -> its fields.
LAYER_FIELDS = {
    "channel.gen_correlation": ("calls", "self_s"),
    "channel.sample_channel_block": ("realizations", "self_s", "ns_per_realization"),
    "linalg.gsvd": ("calls", "self_s", "errors"),
    "detequiv.solve_fixed_point": ("calls", "iterations", "iterations_max", "self_s", "ms_p50", "ms_p99", "errors"),
    "detequiv.lsl_secrecy_rate": ("calls", "self_s"),
    "precoders.optimize": ("calls", "outer_iterations", "cap_hits", "self_s", "ms_p50", "ms_p99"),
    "precoders.gsvd_precoder": ("calls", "self_s", "errors"),
    "precoders.gsvd_power_allocation": ("calls",),
    "precoders.waterfill_precoder": ("calls", "self_s"),
    "montecarlo.mc_ergodic_mi": ("calls", "realizations", "self_s", "ns_per_realization"),
    "experiment.run_sweep": ("self_s",),
    "experiment.build_statistics": ("self_s",),
    "experiment.write_csv": ("s", "bytes"),
}
UNITS = {"self_s": "s", "s": "s", "ms_p50": "ms", "ms_p99": "ms", "ns_per_realization": "ns", "bytes": "B"}
# Row failures are also reported by exception class; classes not listed
# here are summed under errors.other.
ERROR_CLASSES = ("RankDeficient", "BisectionFailure", "NoConvergence")


def layer_field(tracer: Tracer, name: str, key: str, passes: int):
    """One per-layer value, per traced pass. None marks an absent function
    or a return value the count could not be read from; a ratio or
    percentile with nothing to divide or rank reads 0."""
    st = tracer.stats.get(name)
    if st is None:
        return None
    if key == "calls":
        return st.calls / passes
    if key == "errors":
        return sum(st.errors.values()) / passes
    if key == "self_s":
        return st.self_ns / 1e9 / passes
    if key == "s":
        return st.total_ns / 1e9 / passes
    if key.startswith("ms_p"):
        return float(np.percentile(st.durations_ns, int(key[4:]))) / 1e6 if st.durations_ns else 0.0
    if key == "iterations_max":
        return None if st.broken else st.maxima.get("iterations", 0)
    if key == "ns_per_realization":
        realizations = tracer.count(name, "realizations")
        return None if realizations is None else (st.self_ns / realizations if realizations else 0.0)
    total = tracer.count(name, key)
    return None if total is None else total / passes


def layer_metrics(tracer: Tracer, passes: int, rows_per_pass: int, setup, overhead: float):
    out = {}
    for name, keys in LAYER_FIELDS.items():
        for key in keys:
            out[f"{name}.{key}"] = (layer_field(tracer, name, key, passes), UNITS.get(key, "count"))

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    out["channel.gen_correlation.cold_s"] = (statistics.median(setup["gen_correlation_s"]), "s")
    out["setup.import_s"] = (statistics.median(setup["import_s"]), "s")
    out["detequiv.solves_per_row"] = (ratio(out["detequiv.solve_fixed_point.calls"][0], rows_per_pass), "solves/row")
    out["precoders.power_evals_per_gsvd_precoder"] = (
        ratio(out["precoders.gsvd_power_allocation.calls"][0], out["precoders.gsvd_precoder.calls"][0]),
        "evals/call",
    )
    row_errors = tracer.row_errors()
    for cls in ERROR_CLASSES:
        out[f"errors.{cls}"] = (row_errors.get(cls, 0) / passes, "count")
    out["errors.other"] = (sum(v for k, v in row_errors.items() if k not in ERROR_CLASSES) / passes, "count")
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out


# ------------------------------------------------------------- environment


def environment():
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "blas": None,
        "blas_threads": None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "commit": git_commit(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    env["blas_threads"] = blas_threads()
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return env


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "numpy" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -------------------------------------------------------------------- main


def print_result(line, detail):
    for key, metric in line["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{detail['workload']:12s} {key:52s} {shown:>14s} {metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps(line))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, each in its own process; 1 if any is not correct."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for ln in lines[:-2]:
            print(ln)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        print(f"{name:12s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import_package()
    line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(line, detail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
