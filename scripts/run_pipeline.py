#!/usr/bin/env python3
"""End-to-end pipeline: train the reconstruction network, sweep the
benchmark over SNR, and print the per-SNR ranking.

The network trains on snapshots with random source placements so one
model serves any evaluation scene; the benchmark then pins a fixed,
well-separated scene and randomizes amplitude phases, hardware, and
noise per trial. Pass --skip-train to reuse a model from a previous run
in the same output directory.

--scale picks the preset:
  desk   8x8 surface, 96 samples per snapshot; runs in minutes on a
         laptop and includes the full-size semidefinite baseline
         (anm-denoise).
  large  16x16 surface, 192 samples per snapshot. Training and the
         structured solver scale fine; the full-size baseline does not
         (its PSD block has side 257), so anm-denoise only joins the
         sweep with --include-full, and expect roughly a minute per
         trial for it.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from risdoa.config import PlanConfig, SourceSpec, TrainSettings, desk_scenario, large_scenario
from risdoa.harness import compare_line, run_bench, run_compare, run_train

# Per scale: the scenario factory, samples per snapshot (comfortably more
# than the surface elements, the same 3:2 ratio at both scales, so energy
# outside the range of the code matrix reveals how much disturbance
# survives reconstruction), the default seed, and whether the full program
# runs without --include-full.
PRESETS = {
    "desk": (desk_scenario, 96, 4242, True),
    "large": (large_scenario, 192, 2626, False),
}

# fixed evaluation scene, well separated on both axes so every method has
# a fair shot at the desk-scale aperture
SCENE = SourceSpec(count=2, elevations=(45.4, 72.8), azimuths=(-22.3, 18.9))

# the network every preset trains; --dataset-size and --epochs override
# its dataset size and epoch count
TRAINING = TrainSettings(dataset_size=12000, hidden_widths=(64, 64, 64, 64), seed=77)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scale", choices=sorted(PRESETS), default="desk")
    parser.add_argument("--out", type=Path, default=None, help="default: results/<scale>")
    parser.add_argument("--epochs", type=int, default=TRAINING.epochs)
    parser.add_argument("--dataset-size", type=int, default=TRAINING.dataset_size)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--snr", default="0,5,10,15,20,25,30")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None, help="default: 4242 desk, 2626 large")
    parser.add_argument("--skip-train", action="store_true")
    parser.add_argument(
        "--include-full",
        action="store_true",
        help="add the full-size semidefinite baseline (always on at desk scale; slow at large)",
    )
    args = parser.parse_args(argv)
    make_scenario, samples, default_seed, full_by_default = PRESETS[args.scale]
    out = args.out or Path("results") / args.scale
    seed = default_seed if args.seed is None else args.seed

    train_scenario = make_scenario(seed=seed, num_samples=samples)
    bench_scenario = make_scenario(seed=seed, num_samples=samples, sources=SCENE)
    model_path = out / "model.bin"
    if args.skip_train and model_path.exists():
        print(f"reusing {model_path}")
    else:
        settings = dataclasses.replace(TRAINING, dataset_size=args.dataset_size, epochs=args.epochs)
        model_path, loss_path = run_train(train_scenario, settings, out)
        print(f"trained model -> {model_path}")
        print(f"loss history  -> {loss_path}")

    full = ("anm-denoise",) if args.include_full or full_by_default else ()
    plan = PlanConfig(
        methods=("fft", "omp", "fft-denoise", "omp-denoise") + full + ("dnn-danm", "crb"),
        snr_list=tuple(float(v) for v in args.snr.split(",")),
        trials=args.trials,
        seed=31,
        workers=args.workers,
    )
    paths = run_bench(bench_scenario, plan, out, model_path=model_path)
    print(f"benchmark     -> {paths.summary}")
    for row in run_compare(paths.summary, out_path=out / "compare.csv"):
        print(f"  snr {row['snr_db']:>5g}  {compare_line(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
