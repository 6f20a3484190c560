"""The benchmark's workloads and the checks on their outputs.

Every workload drives the public entry points ``risdoa.harness.run_train``
and ``risdoa.harness.run_bench``, looked up through the module at call time
so that the traced run can wrap them.

- train-desk: run_train on the desk scenario with random source angles. The
  dataset builder (model layer) and backprop/Adam (network layer) split the
  time about evenly; the solvers do no work. Between training runs, five
  seeded fft-denoise sweeps score the trained model, which checks the
  training output and gives this workload its cells_per_s and rmse_deg.
- bench-desk: run_bench with the grid baselines, the reconstructing
  variants, the decoupled solver (dnn-danm) and the bound, on the pinned
  scene of the desk pipeline script. The noise-ball DANM solve dominates.
- bench-full: run_bench with anm-denoise only: the full regularized program
  with a PSD block of side 65. It never calls the ball projection, and the
  eigen-decomposition is larger, so DANM-only changes predict no change here.
  It runs at 10 dB, where a cell takes about half a second, so that 30
  trials fit a run and their pooled RMSE is steady from seed to seed.

The bench workloads train their model in set-up, from a fixed seed, on the
pinned scene they are scored on. A scene-calibrated model trains to a low
loss in about a second; a scene-agnostic model of that size leaves dnn-danm
failing on some trials and its error dominated by the model.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from risdoa import harness
from risdoa.config import PlanConfig, SourceSpec, TrainSettings, desk_scenario
from risdoa.errors import RisDoaError

# the scene and schedule length of scripts/run_desk_pipeline.py
SCENE = SourceSpec(count=2, elevations=(45.4, 72.8), azimuths=(-22.3, 18.9))
NUM_SAMPLES = 96
SCENARIO_SEED = 4242
HIDDEN = (64, 64, 64, 64)
SNRS = (10.0, 20.0, 30.0)
BENCH_MODEL = dict(dataset_size=500, epochs=60, hidden_widths=HIDDEN, seed=77)

BENCH_FILES = ("estimates.csv", "summary.csv")
TRAIN_FILES = ("model.bin", "loss.csv")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def final_loss(loss_path) -> float:
    with open(loss_path) as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["mean_loss"])


@dataclass
class Prepared:
    """What set-up leaves for the operations."""

    scenario: object
    model_path: Path | None = None
    train_seconds: float = 0.0
    final_loss: float = math.nan
    fingerprint: dict = field(default_factory=dict)


@dataclass
class OpResult:
    """One call of a harness entry point and what its outputs show."""

    seconds: float
    fingerprint: dict  # output file -> sha256
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    head_errors: list = field(default_factory=list)  # per-trial RMSE of the headline method
    final_loss: float = math.nan
    problems: list = field(default_factory=list)
    model_path: Path | None = None


def run_bench_op(scenario, plan: PlanConfig, out_dir: Path, model_path, head: str) -> OpResult:
    """Call run_bench once and read back its deterministic outputs."""
    start = time.perf_counter()
    paths = harness.run_bench(scenario, plan, out_dir, model_path=model_path)
    seconds = time.perf_counter() - start
    result = OpResult(
        seconds=seconds,
        fingerprint={name: sha256(out_dir / name) for name in BENCH_FILES},
        cells=len(plan.snr_list) * plan.trials,
    )
    with open(paths.trials) as fh:
        for row in csv.DictReader(fh):
            result.attempted += 1
            if row["error"]:
                result.failed += 1
            elif row["method"] == head:
                result.head_errors.append(float(row["rmse_deg"]))
    with open(paths.summary) as fh:
        for row in csv.DictReader(fh):
            value = float(row["rmse_deg"]) if row["rmse_deg"] else math.nan
            if not math.isfinite(value):
                result.problems.append(
                    f"non-finite RMSE for {row['method']} at {row['snr_db']} dB (seed {plan.seed})"
                )
    return result


def run_train_op(scenario, settings: TrainSettings, out_dir: Path) -> OpResult:
    """Call run_train once; a diverged training counts as a failed operation."""
    start = time.perf_counter()
    try:
        model_path, loss_path = harness.run_train(scenario, settings, out_dir)
    except RisDoaError as err:
        return OpResult(
            seconds=time.perf_counter() - start, fingerprint={}, attempted=1, failed=1,
            problems=[f"training failed: {type(err).__name__}: {err}"],
        )
    seconds = time.perf_counter() - start
    loss = final_loss(loss_path)
    result = OpResult(
        seconds=seconds,
        fingerprint={name: sha256(out_dir / name) for name in TRAIN_FILES},
        attempted=1,
        final_loss=loss,
        model_path=model_path,
    )
    if not math.isfinite(loss):
        result.problems.append("non-finite final training loss")
    return result


@dataclass(frozen=True)
class Sweep:
    """Seeded run_bench plans: distinct trial sets scored on one headline method."""

    methods: tuple
    head: str
    plans: int  # distinct trial sets per run
    trials: int  # trials per SNR in each plan
    snr_list: tuple = SNRS

    def inputs(self, seed: int) -> list:
        plan_seeds = np.random.SeedSequence(seed).generate_state(self.plans)
        return [
            PlanConfig(methods=self.methods, snr_list=self.snr_list, trials=self.trials, seed=int(s))
            for s in plan_seeds
        ]

    def run(self, prepared: Prepared, plan, out_dir: Path) -> OpResult:
        return run_bench_op(prepared.scenario, plan, out_dir, prepared.model_path, self.head)


class TrainDesk:
    name = "train-desk"
    # 500 examples x 100 epochs keeps data generation and training about even
    dataset_size = 500
    epochs = 100
    # scores the freshly trained model; 1500 trials keep its pooled RMSE steady
    evaluation = Sweep(methods=("fft-denoise",), head="fft-denoise", plans=5, trials=100)

    def prepare(self, work_dir: Path) -> Prepared:
        scenario = desk_scenario(seed=SCENARIO_SEED, num_samples=NUM_SAMPLES)
        scenario.schedule()
        return Prepared(scenario=scenario)

    def inputs(self, seed: int) -> list:
        return [
            TrainSettings(
                dataset_size=self.dataset_size, epochs=self.epochs, hidden_widths=HIDDEN, seed=seed
            )
        ]

    def run(self, prepared: Prepared, settings, out_dir: Path) -> OpResult:
        return run_train_op(prepared.scenario, settings, out_dir)


class BenchWorkload:
    """run_bench sweeps on the pinned scene with a model trained in set-up."""

    evaluation = None

    def __init__(self, name: str, sweep: Sweep):
        self.name = name
        self.sweep = sweep

    def prepare(self, work_dir: Path) -> Prepared:
        scenario = desk_scenario(seed=SCENARIO_SEED, num_samples=NUM_SAMPLES, sources=SCENE)
        scenario.schedule()
        op = run_train_op(scenario, TrainSettings(**BENCH_MODEL), work_dir)
        if op.failed:
            raise RuntimeError(op.problems[0])
        return Prepared(
            scenario=scenario,
            model_path=op.model_path,
            train_seconds=op.seconds,
            final_loss=op.final_loss,
            fingerprint=op.fingerprint,
        )

    def inputs(self, seed: int) -> list:
        return self.sweep.inputs(seed)

    def run(self, prepared: Prepared, plan, out_dir: Path) -> OpResult:
        return self.sweep.run(prepared, plan, out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        TrainDesk(),
        BenchWorkload(
            "bench-desk",
            Sweep(
                methods=("fft", "omp", "fft-denoise", "omp-denoise", "dnn-danm", "crb"),
                head="dnn-danm",
                plans=20,
                trials=4,
            ),
        ),
        BenchWorkload(
            "bench-full",
            Sweep(methods=("anm-denoise",), head="anm-denoise", plans=15, trials=2, snr_list=(10.0,)),
        ),
    )
}
