"""Smoke test of the end-to-end driver in scripts/ at a tiny desk size."""

import csv
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
SWEEP = SCRIPT.with_name("run_robustness_sweep.py")


def _load_driver():
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_desk_pipeline_summarizes_every_method(tmp_path):
    driver = _load_driver()
    tiny = ["--epochs", "1", "--dataset-size", "200", "--trials", "2", "--snr", "30"]
    assert driver.main(["--scale", "desk", "--out", str(tmp_path), *tiny]) == 0
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the desk preset runs the full program by default
    desk_methods = ["fft", "omp", "fft-denoise", "omp-denoise", "anm-denoise", "dnn-danm", "crb"]
    assert [row["method"] for row in rows] == desk_methods
    assert all(row["snr_db"] == "30.0" and row["trials"] == "2" for row in rows)


def _load_sweep(monkeypatch):
    # the sweep imports its sibling run_pipeline, as it does when run from scripts/
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("run_robustness_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failed_in", ["nominal", "wide-phase"])
def test_sweep_tabulates_a_method_without_surviving_trials(tmp_path, monkeypatch, capsys, failed_in):
    sweep = _load_sweep(monkeypatch)
    rmse = {"nominal": {"fft": 2.0, "dnn-danm": 1.0}, "wide-phase": {"fft": 2.5, "dnn-danm": 0.5}}

    def fake_bench(scenario, plan, out, model_path):
        out.mkdir(parents=True)
        values = rmse.get(out.name, {"fft": 3.0, "dnn-danm": 1.5})
        lines = ["method,rmse_deg"] + [
            f"{m},{'' if (out.name, m) == (failed_in, 'dnn-danm') else v}" for m, v in values.items()
        ]
        (out / "summary.csv").write_text("\n".join(lines) + "\n")
        return SimpleNamespace(summary=out / "summary.csv")

    monkeypatch.setattr(sweep, "run_bench", fake_bench)
    model = tmp_path / "model.bin"
    model.write_bytes(b"")
    assert sweep.main(["--out", str(tmp_path / "out"), "--model", str(model)]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(line.split() for line in lines if line.startswith("dnn-danm"))
    assert row[1 + list(sweep.CONDITIONS).index(failed_in)] == "n/a"
    assert len(row) == 1 + len(sweep.CONDITIONS)
    # without an RMSE in a condition a method is neither best there nor unchanged
    # from nominal; fft degrades and dnn-danm would otherwise be both
    best = "fft" if failed_in == "wide-phase" else "dnn-danm"
    assert f"wide-phase: best={best}, all methods degrade" in lines
