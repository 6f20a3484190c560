"""Command-line front end: simulate, train, bench, compare."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (
    PlanConfig,
    TrainSettings,
    desk_scenario,
    load_plan,
    load_scenario,
    load_train_settings,
    large_scenario,
    override,
)
from .errors import RisDoaError
from .harness import METHOD_NAMES, compare_line, run_bench, run_compare, run_simulate, run_train


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario file (INI or JSON)")
    parser.add_argument(
        "--scale",
        choices=("desk", "large"),
        default="desk",
        help="preset when no config file is given (default: desk)",
    )
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def _resolve_scenario(args):
    if args.config is not None:
        scenario = load_scenario(args.config)
    elif args.scale == "large":
        scenario = large_scenario()
    else:
        scenario = desk_scenario()
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risdoa",
        description="Two-dimensional DOA estimation through a practical "
        "reflecting surface with a single-channel receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write one snapshot as CSV")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--out", type=Path, default=Path("results"))
    p_sim.add_argument("--ideal", action="store_true", help="disable hardware impairments")

    p_train = sub.add_parser("train", help="train the reconstruction network")
    _add_scenario_args(p_train)
    p_train.add_argument("--out", type=Path, default=Path("results"))
    p_train.add_argument("--resume", type=Path, help="continue from a saved model")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--dataset-size", type=int)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--learning-rate", type=float)
    p_train.add_argument("--train-seed", type=int)

    p_bench = sub.add_parser("bench", help="run the method comparison sweep")
    _add_scenario_args(p_bench)
    p_bench.add_argument("--out", type=Path, default=Path("results"))
    p_bench.add_argument("--model", type=Path, help="trained model for the denoise methods")
    p_bench.add_argument("--methods", help=f"comma list from: {', '.join(METHOD_NAMES)}")
    p_bench.add_argument("--snr", help="comma list of SNR values in dB")
    p_bench.add_argument("--trials", type=int)
    p_bench.add_argument("--workers", type=int)
    p_bench.add_argument("--bench-seed", type=int)

    p_cmp = sub.add_parser("compare", help="rank methods from a summary file")
    p_cmp.add_argument("results", type=Path, help="results directory or summary.csv")
    p_cmp.add_argument("--out", type=Path, help="write the ranking as CSV")

    return parser


def _cmd_simulate(args) -> int:
    path = run_simulate(_resolve_scenario(args), args.out, ideal=args.ideal)
    print(f"wrote {path}")
    return 0


# command-line flag -> the field it replaces; values are cast like a config file's
_TRAIN_FLAGS = dict(epochs="epochs", dataset_size="dataset_size", batch_size="batch_size",
                    learning_rate="learning_rate", train_seed="seed")
_BENCH_FLAGS = dict(methods="methods", snr="snr_list", trials="trials", workers="workers",
                    bench_seed="seed")


def _with_flags(base, args, flags: dict):
    given = ((field, getattr(args, flag)) for flag, field in flags.items())
    return override(base, {field: v for field, v in given if v is not None}, "options")


def _cmd_train(args) -> int:
    scenario = _resolve_scenario(args)
    settings = load_train_settings(args.config) if args.config else TrainSettings()
    settings = _with_flags(settings, args, _TRAIN_FLAGS)
    model_path, loss_path = run_train(scenario, settings, args.out, resume=args.resume)
    print(f"wrote {model_path}")
    print(f"wrote {loss_path}")
    return 0


def _cmd_bench(args) -> int:
    scenario = _resolve_scenario(args)
    plan = load_plan(args.config) if args.config else PlanConfig()
    plan = _with_flags(plan, args, _BENCH_FLAGS)
    paths = run_bench(scenario, plan, args.out, model_path=args.model)
    for path in (paths.estimates, paths.trials, paths.summary):
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    rows = run_compare(args.results, out_path=args.out)
    current = None
    for row in rows:
        if row["snr_db"] != current:
            current = row["snr_db"]
            print(f"SNR {current:g} dB")
        print(f"  {compare_line(row)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RisDoaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
