"""Held-out angle gate of the benchmark's noise-scaled solver stop.

Each bench solve stops at relative tolerance max(1e-5, 1e-3 sqrt(P) / ||z||)
(`harness._noise_stop`). On the bench-desk scene and set-up model of
perfbench/workloads.py, and on plan seeds that were not used to choose the
constant 1e-3, every (method, SNR) cell's worst angle deviation from a
tolerance-1e-9 solve of the same problem must be at most 2% of the cell's
CRB, or at most 1.25 times the deviation of the flat 1e-5 stop where that
is already larger. The noise-scaled stop must also save iterations.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from risdoa import harness
from risdoa.config import PlanConfig, SourceSpec, TrainSettings, desk_scenario

# the bench workloads' scene, schedule length, scenario seed and set-up model
SCENE = SourceSpec(count=2, elevations=(45.4, 72.8), azimuths=(-22.3, 18.9))
MODEL = TrainSettings(dataset_size=500, epochs=60, hidden_widths=(64, 64, 64, 64), seed=77)
SNRS = (10.0, 20.0, 30.0)
HELD_OUT = (951, 952)


def _deviation(a, b) -> float:
    """Largest angle difference of two (elevations, azimuths) estimates, degrees."""
    return max(float(np.max(np.abs(np.subtract(x, y)))) for x, y in zip(a, b))


def gate_cells(out_dir, seeds, trials, methods=("dnn-danm", "anm-denoise")) -> dict:
    """Per (method, snr): worst deviations of the harness's stop and of the flat
    1e-5 stop from a tolerance-1e-9 solve, their iterations, and the cell's
    RMS bound."""
    scenario = desk_scenario(seed=4242, num_samples=96, sources=SCENE)
    model_path, _ = harness.run_train(scenario, MODEL, out_dir / "model")
    original = harness._estimate
    cells = {}

    # wraps the harness's per-method call; snr is that of the run_bench call in progress below
    def estimate(method, *args):
        result, iterations = original(method, *args)
        if iterations is None:
            return result, iterations
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_NOISE_STOP", 0.0)
            flat, flat_iterations = original(method, *args)
            for name in ("_DANM_CONFIG", "_FULL_CONFIG"):
                exact = dataclasses.replace(getattr(harness, name), tolerance=1e-9)
                patch.setattr(harness, name, exact)
            reference, _ = original(method, *args)
        cell = cells[method, snr]
        cell["stop"] = max(cell["stop"], _deviation(result, reference))
        cell["flat"] = max(cell["flat"], _deviation(flat, reference))
        cell["iterations"] += iterations
        cell["flat_iterations"] += flat_iterations
        return result, iterations

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_estimate", estimate)
        for snr in SNRS:
            bounds = []
            for method in methods:
                cells[method, snr] = dict(stop=0.0, flat=0.0, iterations=0, flat_iterations=0)
            for seed in seeds:
                plan = PlanConfig(
                    methods=(*methods, "crb"), snr_list=(snr,), trials=trials, seed=seed
                )
                paths = harness.run_bench(
                    scenario, plan, out_dir / f"{seed}-{snr:g}", model_path=model_path
                )
                with open(paths.trials, newline="") as fh:
                    for row in csv.DictReader(fh):
                        assert not row["error"], row
                        if row["method"] == "crb":
                            bounds.append(float(row["rmse_deg"]))
            crb = math.sqrt(float(np.mean(np.square(bounds))))
            for method in methods:
                cells[method, snr]["crb"] = crb
    return cells


@pytest.mark.slow
def test_noise_stop_keeps_angles_within_the_bound_on_held_out_seeds(tmp_path):
    cells = gate_cells(tmp_path, HELD_OUT, trials=2)
    for (method, snr), cell in sorted(cells.items()):
        share = cell["stop"] / cell["crb"]
        print(
            f"{method} {snr:g} dB: deviation {cell['stop']:.2e} deg ({share:.2%} of CRB),"
            f" flat 1e-5 {cell['flat']:.2e} deg; iterations"
            f" {cell['flat_iterations']} -> {cell['iterations']}"
        )
        assert cell["stop"] <= max(0.02 * cell["crb"], 1.25 * cell["flat"]), (method, snr, cell)
    for method in ("dnn-danm", "anm-denoise"):
        stop = sum(c["iterations"] for (m, _), c in cells.items() if m == method)
        flat = sum(c["flat_iterations"] for (m, _), c in cells.items() if m == method)
        assert stop < flat, (method, stop, flat)
