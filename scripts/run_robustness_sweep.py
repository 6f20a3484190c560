#!/usr/bin/env python3
"""Hardware-robustness sweep: rerun the desk benchmark with each
impairment family widened in turn and tabulate the degradation.

Reuses the model from a previous desk run_pipeline.py run when present
(same output directory layout); otherwise trains one first. One model
serves all conditions so the per-trial draws stay paired and the
columns are directly comparable.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from risdoa.config import ImpairmentSpec, PlanConfig, TrainSettings, desk_scenario
from risdoa.harness import run_bench, run_train
from run_pipeline import PRESETS, SCENE  # the sibling script; its directory is on sys.path

NUM_SAMPLES = PRESETS["desk"][1]

CONDITIONS = {
    "nominal": ImpairmentSpec(),
    "wide-amplitude": ImpairmentSpec(mismatch_amp_range=(0.5, 3.0)),
    "wide-phase": ImpairmentSpec(mismatch_phase_range=(-math.pi / 3, math.pi / 3)),
    "wide-coupling": ImpairmentSpec(coupling_amp_range=(0.1, 0.8)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/robustness"))
    parser.add_argument("--model", type=Path, default=None,
                        help="reuse a trained model (e.g. results/desk/model.bin)")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--snr", type=float, default=20.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args()

    model_path = args.model
    if model_path is None or not model_path.exists():
        train_scenario = desk_scenario(seed=args.seed, num_samples=NUM_SAMPLES)
        settings = TrainSettings(
            dataset_size=12000, hidden_widths=(64, 64, 64, 64), seed=77
        )
        model_path, _ = run_train(train_scenario, settings, args.out)
        print(f"trained model -> {model_path}")
    else:
        print(f"reusing {model_path}")

    table: dict[str, dict[str, float]] = {}
    for name, impairments in CONDITIONS.items():
        scenario = desk_scenario(
            seed=args.seed,
            num_samples=NUM_SAMPLES,
            sources=SCENE,
            impairments=impairments,
        )
        plan = PlanConfig(
            snr_list=(args.snr,), trials=args.trials, seed=31, workers=args.workers
        )
        paths = run_bench(scenario, plan, args.out / name, model_path=model_path)
        with open(paths.summary) as fh:
            table[name] = {
                row["method"]: float(row["rmse_deg"])
                for row in csv.DictReader(fh)
                if row["rmse_deg"]
            }
        print(f"{name:15s} -> {paths.summary}")

    methods = list(table["nominal"])
    print(f"\n{'method':<13}" + "".join(f"{c:>16}" for c in CONDITIONS))
    for method in methods:
        cells = "".join(f"{table[c][method]:>16.4f}" for c in CONDITIONS)
        print(f"{method:<13}" + cells)
    for name in list(CONDITIONS)[1:]:
        regressed = [m for m in methods if table[name][m] <= table["nominal"][m]]
        best = min(methods, key=lambda m: table[name][m])
        note = "all methods degrade" if not regressed else f"unchanged: {', '.join(regressed)}"
        print(f"{name}: best={best}, {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
