"""Golden outputs: a tiny seeded run compared byte for byte.

The files under tests/golden/ come from a one-epoch model trained on the
desk scenario and a three-trial benchmark of every method except the slow
full program, at two SNRs. A refactor that changes any number in the
deterministic result files fails here, unlike the determinism checks that
only compare a rerun against the same build.

A change that moves numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its change log which rows moved, by how much and why.

The bench is checked in this process under the default OpenBLAS thread
count, and in fresh processes under OPENBLAS_NUM_THREADS=1 and =2: the
files must come out the same bits under each.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from risdoa.config import PlanConfig, SourceSpec, TrainSettings, desk_scenario
from risdoa.harness import run_bench, run_train

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TRAIN_FILES = ("model.bin", "loss.csv")
BENCH_FILES = ("estimates.csv", "summary.csv")

SCENARIO = desk_scenario(
    seed=4242,
    num_samples=96,
    sources=SourceSpec(count=2, elevations=(45.4, 72.8), azimuths=(-22.3, 18.9)),
)
# one epoch over 2000 examples of the pinned scene at a raised step size is
# enough for dnn-danm to succeed on every trial, so its rows are compared too
SETTINGS = TrainSettings(
    dataset_size=2000,
    epochs=1,
    batch_size=32,
    learning_rate=3e-3,
    hidden_widths=(16, 16, 16, 16),
    seed=11,
)
PLAN = PlanConfig(
    methods=("fft", "omp", "fft-denoise", "omp-denoise", "dnn-danm", "crb"),
    snr_list=(10.0, 30.0),
    trials=3,
    seed=2024,
)


def test_training_matches_golden(tmp_path):
    run_train(SCENARIO, SETTINGS, tmp_path)
    for name in TRAIN_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_bench_matches_golden(tmp_path):
    run_bench(SCENARIO, PLAN, tmp_path, model_path=GOLDEN / "model.bin")
    for name in BENCH_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_matches_golden_under_set_blas_threads(tmp_path, threads):
    # OpenBLAS reads the variable when numpy loads it, so the bench runs in a
    # new process started with the variable set
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    bench = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import test_golden as g; "
        "g.run_bench(g.SCENARIO, g.PLAN, sys.argv[1], model_path=g.GOLDEN / 'model.bin')"
    )
    subprocess.run([sys.executable, "-c", bench, str(tmp_path)], env=env, check=True)
    for name in BENCH_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def regenerate(out_dir: Path = GOLDEN) -> None:
    """Write the golden model and result files (training first, then the bench)."""
    run_train(SCENARIO, SETTINGS, out_dir)
    with tempfile.TemporaryDirectory() as work:
        run_bench(SCENARIO, PLAN, work, model_path=out_dir / "model.bin")
        for name in BENCH_FILES:
            (out_dir / name).write_bytes((Path(work) / name).read_bytes())


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
