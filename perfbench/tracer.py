"""Span and counter tracing of wiretap_lsl's layers, from outside the package.

Each traced function is named by the module that defines it and its
name there, e.g. ``wiretap_lsl.detequiv.solve_fixed_point``. While a
``Tracer`` is active, every module of the package that holds that
function object under some name (its import sites, such as
``wiretap_lsl.precoders.solve_fixed_point`` and the defining module
itself) gets a wrapper in its place; leaving the ``with`` block puts the
originals back. A function that no longer exists under its name is
reported as absent: its metrics read ``None`` and nothing is wrapped.

A span is (id, parent id, name, start ns, end ns). A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "wiretap_lsl"

# Outer-loop iteration cap of precoders.optimize; a row reporting this
# many iterations stopped at the cap instead of converging.
OUTER_ITERATION_CAP = 100


def _fixed_point(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _optimize(args, kwargs, result):
    outer = int(result[2])
    return {"outer_iterations": outer, "cap_hits": int(outer >= OUTER_ITERATION_CAP)}


def _mc_realizations(args, kwargs, result):
    return {"realizations": int(result.num_realizations)}


def _block_realizations(args, kwargs, result):
    return {"realizations": int(result.shape[0])}


def _csv_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# metric prefix -> (defining module, function name, extractor of counts
# from a call's arguments and result). _spectra, lsl_objective and
# validate_lsl have no per-layer metric; their call counts go to the
# detail line, and they are slated for removal, when they turn absent.
TRACED = {
    "channel.gen_correlation": ("channel", "gen_correlation", None),
    "channel.sample_channel_block": ("channel", "sample_channel_block", _block_realizations),
    "linalg.gsvd": ("linalg", "gsvd", None),
    "detequiv.solve_fixed_point": ("detequiv", "solve_fixed_point", _fixed_point),
    "detequiv.lsl_secrecy_rate": ("detequiv", "lsl_secrecy_rate", None),
    "detequiv._spectra": ("detequiv", "_spectra", None),
    "detequiv.lsl_objective": ("detequiv", "lsl_objective", None),
    "precoders.optimize": ("precoders", "optimize", _optimize),
    "precoders.gsvd_precoder": ("precoders", "gsvd_precoder", None),
    "precoders.gsvd_power_allocation": ("precoders", "gsvd_power_allocation", None),
    "precoders.waterfill_precoder": ("precoders", "waterfill_precoder", None),
    "montecarlo.mc_secrecy_rate": ("montecarlo", "mc_secrecy_rate", None),
    "montecarlo.mc_ergodic_mi": ("montecarlo", "mc_ergodic_mi", _mc_realizations),
    "montecarlo.validate_lsl": ("montecarlo", "validate_lsl", None),
    "experiment.run_sweep": ("experiment", "run_sweep", None),
    "experiment.build_statistics": ("experiment", "build_statistics", None),
    "experiment.write_csv": ("experiment", "write_csv", _csv_bytes),
}

# The calls run_sweep isolates per row: an exception escaping one of
# them becomes an error row, so their exceptions are the row failures.
ROW_LEVEL = ("precoders.optimize", "montecarlo.mc_secrecy_rate", "experiment.build_statistics")


class Stat:
    """Aggregate of every call of one traced function."""

    def __init__(self):
        self.calls = 0
        self.errors = Counter()
        self.total_ns = 0
        self.self_ns = 0
        self.durations_ns = []
        self.counts = Counter()
        self.maxima = {}
        # Set when the extractor failed (the return value no longer has
        # the expected shape); the counts then read None.
        self.broken = False


class Tracer:
    """Context manager that wraps the TRACED functions while active."""

    def __init__(self, record_spans: bool = False):
        self.record_spans = record_spans
        self.stats = {}
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patched = []

    def __enter__(self):
        targets = []
        for name, (module, func, extract) in TRACED.items():
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            except (ImportError, AttributeError):
                continue
            if callable(original):
                targets.append((name, original, extract))
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, original, extract in targets:
            self.stats.setdefault(name, Stat())
            wrapper = self._wrap(name, original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, original, extract):
        stat = self.stats[name]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]  # [id, ns covered by direct children]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[1]
                stat.durations_ns.append(dur)
                if parent is not None:
                    parent[1] += dur
                if self.record_spans:
                    self.spans.append((span_id, None if parent is None else parent[0], name, t0, t1))
            if extract is not None:
                try:
                    counts = extract(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                    stat.broken = True
                else:
                    for key, value in counts.items():
                        stat.counts[key] += value
                        stat.maxima[key] = max(stat.maxima.get(key, value), value)
            return result

        return wrapper

    def present(self, name: str) -> bool:
        return name in self.stats

    def count(self, name: str, key: str):
        """Summed count `key` over calls of `name`; None when unavailable."""
        stat = self.stats.get(name)
        if stat is None or stat.broken:
            return None
        return stat.counts.get(key, 0)

    def row_errors(self) -> Counter:
        """Exceptions that became error rows, by exception class name."""
        total = Counter()
        for name in ROW_LEVEL:
            if name in self.stats:
                total.update(self.stats[name].errors)
        return total

    def counters(self) -> dict:
        """The deterministic work counters that must repeat exactly."""
        fp = self.stats.get("detequiv.solve_fixed_point")
        power = self.stats.get("precoders.gsvd_power_allocation")
        return {
            "fixed_point_solves": None if fp is None else fp.calls,
            "fixed_point_iterations": self.count("detequiv.solve_fixed_point", "iterations"),
            "outer_iterations": self.count("precoders.optimize", "outer_iterations"),
            "power_allocation_evals": None if power is None else power.calls,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")
