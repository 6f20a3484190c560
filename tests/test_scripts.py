"""Smoke test of the end-to-end driver in scripts/ at a tiny desk size."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"


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
