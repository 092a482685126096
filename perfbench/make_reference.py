"""Regenerate reference.json: every row of the four figure presets, with
10,000 MC realizations at seed 0.

    python3 perfbench/make_reference.py

The committed file was generated at commit
f97f1d2ec04e1304f9cdd0e52e6d47a38f28084f. Regenerating it changes what
the benchmark accepts as correct; do so only for a change that is meant
to alter the presets' results.
"""

from __future__ import annotations

import json

import run

COLUMNS = (
    "sweep_value",
    "strategy",
    "rs_lsl_per_antenna_bits",
    "rs_lsl_total_bits",
    "rs_mc_per_antenna_bits",
    "rs_mc_std_error",
    "outer_iterations",
)


def main() -> None:
    run.import_package()
    presets = {}
    for name, config in run.preset_configs(seed=0, index=0, tiny=False):
        result = run.EXPERIMENT.run_sweep(config, include_mc=True)
        if result.num_failed:
            raise SystemExit(f"{name}: {result.num_failed} rows failed")
        presets[name] = [{c: getattr(row, c) for c in COLUMNS} for row in result.rows]
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump({"mc_seed": 0, "mc_realizations": 10_000, "presets": presets}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
