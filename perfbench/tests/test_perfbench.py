"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests

They check that tracing leaves the library as it found it, that a traced
bench writes the same bytes as an untraced one, and that every metric a run
prints is declared in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec[kind]]


def _run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_wrappers_restore_names_even_after_an_error():
    originals = [
        (tracing._resolve(t.owner), t.attr, vars(tracing._resolve(t.owner))[t.attr])
        for t in tracing.TARGETS
    ]
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original
            1 / 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_traced_bench_writes_identical_estimates(tmp_path):
    from risdoa import harness
    from risdoa.config import PlanConfig, TrainSettings, desk_scenario
    from workloads import NUM_SAMPLES, SCENARIO_SEED, SCENE

    scenario = desk_scenario(seed=SCENARIO_SEED, num_samples=NUM_SAMPLES, sources=SCENE)
    settings = TrainSettings(dataset_size=40, epochs=2, hidden_widths=(16, 16, 16, 16), seed=5)
    model_path, _ = harness.run_train(scenario, settings, tmp_path / "model")
    plan = PlanConfig(methods=("fft", "omp-denoise", "dnn-danm", "crb"), snr_list=(20.0,), trials=2, seed=3)

    harness.run_bench(scenario, plan, tmp_path / "plain", model_path=model_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        harness.run_bench(scenario, plan, tmp_path / "traced", model_path=model_path)

    for name in ("estimates.csv", "summary.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert tracer.calls["anm.solve_danm"] == 2
    assert tracer.calls["harness.run_bench"] == 1
    assert tracer.values["anm.solve_danm.psd_side"] == 16
    assert all(parent < index for index, (_, _, _, parent) in enumerate(tracer.spans))
    assert all(tracer.self_seconds[n] <= tracer.seconds[n] for n in tracer.seconds)


def test_layer_flop_hand_count():
    # layers 2 -> 3 -> 4: forward 2*(6+12), weight gradients the same, error
    # propagation 2*12 into the hidden layer only
    assert tracing.layer_flop([2, 3, 4]) == 36 + 36 + 24


def test_code_declares_the_metrics_of_benchmark_json():
    assert list(END_TO_END) == _declared("end_to_end")
    assert list(tracing.PER_LAYER) == _declared("per_layer")


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_appear_in_benchmark_json(trace, kind):
    proc = _run_benchmark(ROOT, "--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {name for name, _, _ in _declared(kind)}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert result["correct"] is True
    assert set(result["metrics"]) == declared
    assert printed == declared


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "bench-desk", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
