"""End-to-end command tests plus benchmark determinism checks.

The tiny scenario here (3x3 surface, 16 samples, one source) keeps solver
work negligible while still driving every command path.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from risdoa.cli import main
from risdoa.config import (
    ImpairmentSpec,
    PlanConfig,
    ScenarioConfig,
    SourceSpec,
    TrainSettings,
)
from risdoa.errors import ConfigError
from risdoa.harness import run_bench, run_compare, run_train
from risdoa.model import RisGeometry
from risdoa.network import load_model

TINY_INI = """
[geometry]
rows = 3
cols = 3

[sources]
count = 1
min_separation_deg = 0

[snapshot]
num_samples = 16
snr_db = 20

[run]
seed = 70

[train]
dataset_size = 24
epochs = 3
batch_size = 8
learning_rate = 0.001
seed = 5

[bench]
methods = fft omp crb
snr_list = 20
trials = 2
seed = 17
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return path


def tiny_scenario():
    return ScenarioConfig(
        geometry=RisGeometry(3, 3),
        sources=SourceSpec(count=1, min_separation_deg=0.0),
        num_samples=16,
        seed=70,
    )


class TestSimulate:
    def test_deterministic_output(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out_b)]) == 0
        assert (out_a / "snapshot.csv").read_bytes() == (out_b / "snapshot.csv").read_bytes()

    def test_seed_changes_snapshot(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(tiny_config), "--out", str(out_a)])
        main(["simulate", "--config", str(tiny_config), "--seed", "71", "--out", str(out_b)])
        assert (out_a / "snapshot.csv").read_bytes() != (out_b / "snapshot.csv").read_bytes()

    def test_ideal_flag(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_config), "--ideal", "--out", str(out)]) == 0
        assert (out / "snapshot_ideal.csv").exists()
        assert (out / "snapshot_ideal.json").exists()

    def test_malformed_config_exits_with_an_error(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_INI + "\n[impairments]\nneighbors = 0;1\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: impairments.neighbors" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_invalid_scenario_exits_with_an_error(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_INI.replace("num_samples = 16", "num_samples = 0"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: snapshot: num_samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sources",
        [
            "count = 2\nelevations = 200 10\nazimuths = 0 0",  # pinned outside [0, 180]
            "count = 4\nmin_separation_deg = 500",  # no draw can be this far apart
            "count = 1\nelevation_range = -10 250",  # a box outside [0, 180]
        ],
    )
    def test_out_of_domain_sources_exit_with_an_error(self, tmp_path, capsys, sources):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_INI.replace("count = 1\nmin_separation_deg = 0", sources))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

class TestTrain:
    def test_smoke_and_metadata(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        params, meta = load_model(out / "model.bin")
        assert meta["epochs"] == 3
        assert meta["dataset_size"] == 24
        assert "final_loss" in meta
        lines = (out / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4

    def test_resume_accumulates_epochs(self, tiny_config, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        main(["train", "--config", str(tiny_config), "--out", str(first)])
        code = main(
            [
                "train", "--config", str(tiny_config), "--out", str(second),
                "--resume", str(first / "model.bin"),
            ]
        )
        assert code == 0
        _, meta = load_model(second / "model.bin")
        assert meta["epochs"] == 6

    def test_invalid_settings_exit_with_an_error(self, tmp_path, capsys):
        config = tmp_path / "zero_batch.ini"
        config.write_text(TINY_INI.replace("batch_size = 8", "batch_size = 0"))
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.bin").exists()

    def test_empty_hidden_widths_exit_with_an_error(self, tmp_path, capsys):
        config = tmp_path / "no_widths.ini"
        config.write_text(TINY_INI.replace("batch_size = 8", "batch_size = 8\nhidden_widths ="))
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "hidden widths" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.bin").exists()

    def test_unknown_key_exits_with_an_error(self, tmp_path, capsys):
        config = tmp_path / "typo.ini"
        config.write_text(TINY_INI.replace("epochs = 3", "epoch = 3"))
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key train.epoch" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.bin").exists()

    def test_cli_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--out", str(out), "--epochs", "2"])
        _, meta = load_model(out / "model.bin")
        assert meta["epochs"] == 2


class TestBench:
    def test_files_and_columns(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["bench", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        est = (out / "estimates.csv").read_text().splitlines()
        assert est[0] == "method,snr_db,trial,k,theta_true,phi_true,theta_est,phi_est"
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == "method,snr_db,trial,rmse_deg,seconds,iterations,error"
        # fft and omp rows for 2 trials each; crb contributes no estimates
        assert len(est) == 1 + 2 * 2
        assert len(trials) == 1 + 3 * 2
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,snr_db,rmse_deg,trials,failures"
        assert len(summary) == 1 + 3
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[0] == "method,snr_db,mean_seconds,total_seconds"

    def test_iterations_are_filled_for_solver_methods_only(self, tmp_path):
        settings = TrainSettings(
            dataset_size=24, epochs=1, batch_size=8, hidden_widths=(8, 8, 8, 8), seed=5
        )
        model_path, _ = run_train(tiny_scenario(), settings, tmp_path / "train")
        plan = PlanConfig(
            methods=("fft", "omp-denoise", "dnn-danm", "anm-denoise", "crb"),
            snr_list=(20.0,), trials=2, seed=17,
        )
        paths = run_bench(tiny_scenario(), plan, tmp_path / "bench", model_path=model_path)
        with open(paths.trials, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 2
        for row in rows:
            if row["method"] in ("dnn-danm", "anm-denoise"):
                assert not row["error"] and int(row["iterations"]) >= 1, row
            else:
                assert row["iterations"] == "", row

    def test_result_files_are_deterministic(self, tmp_path):
        plan = PlanConfig(methods=("fft", "omp", "crb"), snr_list=(10.0, 20.0), trials=3, seed=17)
        a = run_bench(tiny_scenario(), plan, tmp_path / "a")
        b = run_bench(tiny_scenario(), plan, tmp_path / "b")
        assert a.estimates.read_bytes() == b.estimates.read_bytes()
        assert a.summary.read_bytes() == b.summary.read_bytes()

    def test_trial_draws_stable_under_trial_count(self, tmp_path):
        # adding trials must not change earlier trials' data
        short = run_bench(
            tiny_scenario(), PlanConfig(methods=("fft",), snr_list=(20.0,), trials=1, seed=17),
            tmp_path / "short",
        )
        long = run_bench(
            tiny_scenario(), PlanConfig(methods=("fft",), snr_list=(20.0,), trials=3, seed=17),
            tmp_path / "long",
        )
        short_rows = short.estimates.read_text().splitlines()[1:]
        long_rows = long.estimates.read_text().splitlines()[1 : 1 + len(short_rows)]
        assert short_rows == long_rows

    def test_worker_pool_matches_serial(self, tmp_path):
        plan = PlanConfig(methods=("fft", "crb"), snr_list=(20.0,), trials=2, seed=17)
        serial = run_bench(tiny_scenario(), plan, tmp_path / "serial")
        import dataclasses

        parallel = run_bench(
            tiny_scenario(), dataclasses.replace(plan, workers=2), tmp_path / "par"
        )
        assert serial.estimates.read_bytes() == parallel.estimates.read_bytes()
        assert serial.summary.read_bytes() == parallel.summary.read_bytes()

    def test_run_builds_its_invariants_once(self, tmp_path, monkeypatch):
        from risdoa import harness

        schedules = []
        original = ScenarioConfig.schedule
        monkeypatch.setattr(
            ScenarioConfig, "schedule", lambda self: schedules.append(1) or original(self)
        )
        plan = PlanConfig(methods=("fft", "crb"), snr_list=(10.0, 20.0), trials=3, seed=17)
        run_bench(tiny_scenario(), plan, tmp_path / "grid")
        assert len(schedules) == 1

        def no_dictionary(*args):
            raise AssertionError("a plan without grid methods built a dictionary")

        monkeypatch.setattr(harness, "build_dictionary", no_dictionary)
        plan = PlanConfig(methods=("crb",), snr_list=(20.0,), trials=2, seed=17)
        assert run_bench(tiny_scenario(), plan, tmp_path / "bound").summary.exists()

    def test_repeated_runs_reuse_the_dictionary(self, tmp_path, monkeypatch):
        import dataclasses

        from risdoa import harness

        builds = []
        original = harness.build_dictionary
        monkeypatch.setattr(
            harness, "build_dictionary", lambda *a: builds.append(1) or original(*a)
        )
        monkeypatch.setattr(harness, "_CTX", {})
        plan = PlanConfig(methods=("fft", "omp", "crb"), snr_list=(20.0,), trials=2, seed=17)
        a = run_bench(tiny_scenario(), plan, tmp_path / "a")
        b = run_bench(tiny_scenario(), dataclasses.replace(plan, seed=18), tmp_path / "b")
        c = run_bench(tiny_scenario(), plan, tmp_path / "c")
        assert len(builds) == 1
        assert a.estimates.read_bytes() == c.estimates.read_bytes()
        assert a.summary.read_bytes() == c.summary.read_bytes()
        assert a.estimates.read_bytes() != b.estimates.read_bytes()

        other_schedule = dataclasses.replace(tiny_scenario(), seed=71)
        run_bench(other_schedule, plan, tmp_path / "d")
        assert len(builds) == 2
        run_bench(other_schedule, dataclasses.replace(plan, grid_step_deg=2.0), tmp_path / "e")
        assert len(builds) == 3

        # a fresh build after a different key gives the bytes of the first run
        fresh = run_bench(tiny_scenario(), plan, tmp_path / "f")
        assert len(builds) == 4
        assert fresh.estimates.read_bytes() == a.estimates.read_bytes()
        wide = dataclasses.replace(
            tiny_scenario(), sources=SourceSpec(count=1, min_separation_deg=0.0,
                                                elevation_range=(10.0, 80.0))
        )
        run_bench(wide, plan, tmp_path / "g")
        assert len(builds) == 5

    def test_model_methods_need_model(self, tmp_path):
        plan = PlanConfig(methods=("dnn-danm",), snr_list=(20.0,), trials=1)
        with pytest.raises(ConfigError, match="model"):
            run_bench(tiny_scenario(), plan, tmp_path / "out")

    def test_unknown_method_rejected(self, tmp_path):
        plan = PlanConfig(methods=("music",), snr_list=(20.0,), trials=1)
        with pytest.raises(ConfigError, match="unknown"):
            run_bench(tiny_scenario(), plan, tmp_path / "out")

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_bench(tiny_scenario(), PlanConfig(methods=(), trials=1), tmp_path / "out")

    def test_cli_error_exit_code(self, tiny_config, tmp_path):
        code = main(
            [
                "bench", "--config", str(tiny_config), "--out", str(tmp_path / "out"),
                "--methods", "dnn-danm",
            ]
        )
        assert code == 2

    def test_bad_snr_flag_exits_with_an_error(self, tiny_config, tmp_path, capsys):
        code = main(
            ["bench", "--config", str(tiny_config), "--out", str(tmp_path / "out"), "--snr", "10,x"]
        )
        assert code == 2
        assert "snr_list" in capsys.readouterr().err

    def test_repeated_method_flag_exits_with_an_error(self, tiny_config, tmp_path, capsys):
        code = main(
            ["bench", "--config", str(tiny_config), "--out", str(tmp_path / "out"),
             "--methods", "fft,fft"]
        )
        assert code == 2
        assert "error: options: methods must not repeat" in capsys.readouterr().err

    def test_truncated_model_exits_with_an_error(self, tiny_config, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes((Path(__file__).parent / "golden" / "model.bin").read_bytes()[:40])
        code = main(
            [
                "bench", "--config", str(tiny_config), "--out", str(tmp_path / "out"),
                "--methods", "fft-denoise", "--model", str(cut),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_model_backed_methods_run(self, tmp_path):
        # impairments off makes the reconstruction target the identity map,
        # which a small network learns quickly, so every model-backed
        # method gets sane input and has to produce an estimate
        scenario = ScenarioConfig(
            geometry=RisGeometry(3, 3),
            sources=SourceSpec(count=1, min_separation_deg=0.0),
            impairments=ImpairmentSpec(enabled=False),
            num_samples=16,
            seed=70,
        )
        settings = TrainSettings(
            dataset_size=192, epochs=200, batch_size=32, learning_rate=1e-3,
            hidden_widths=(24, 24, 24, 24), seed=5,
        )
        model_path, _ = run_train(scenario, settings, tmp_path / "train")
        plan = PlanConfig(
            methods=("fft-denoise", "omp-denoise", "dnn-danm", "anm-denoise"),
            snr_list=(30.0,), trials=2, seed=17,
        )
        paths = run_bench(scenario, plan, tmp_path / "bench", model_path=model_path)
        summary = paths.summary.read_text().splitlines()
        assert len(summary) == 5
        for line in summary[1:]:
            method, snr, rmse, trials, failures = line.split(",")
            assert failures == "0", line
            assert 0.0 <= float(rmse) < 5.0, line


class TestCompare:
    def write_summary(self, tmp_path, rows):
        path = tmp_path / "summary.csv"
        text = "method,snr_db,rmse_deg,trials,failures\n"
        for row in rows:
            text += ",".join(str(v) for v in row) + "\n"
        path.write_text(text)
        return path

    def test_ranking_known_order(self, tmp_path):
        path = self.write_summary(
            tmp_path,
            [
                ("fft", 20.0, 3.0, 5, 0),
                ("omp", 20.0, 1.5, 5, 0),
                ("dnn-danm", 20.0, 0.5, 5, 0),
                ("crb", 20.0, 0.1, 5, 0),
            ],
        )
        rows = run_compare(path)
        ranked = [(r["rank"], r["method"]) for r in rows]
        assert ranked == [("1", "dnn-danm"), ("2", "omp"), ("3", "fft"), ("bound", "crb")]

    def test_single_method_gets_rank_one(self, tmp_path):
        path = self.write_summary(tmp_path, [("fft", 10.0, 2.0, 3, 0)])
        rows = run_compare(path)
        assert rows[0]["rank"] == "1" and rows[0]["method"] == "fft"

    def test_method_with_no_surviving_trial_is_listed_as_failed(self, tmp_path, capsys):
        path = self.write_summary(
            tmp_path,
            [("fft", 30.0, 0.5, 2, 0), ("dnn-danm", 30.0, "", 2, 2), ("crb", 30.0, 0.1, 2, 0)],
        )
        out = tmp_path / "compare.csv"
        assert main(["compare", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "30.0,1,fft,0.5,2,0",
            "30.0,failed,dnn-danm,,2,2",
            "30.0,bound,crb,0.1,2,0",
        ]
        assert "failed  dnn-danm     n/a          2/2 failed" in capsys.readouterr().out
        rows = run_compare(path)
        assert [(r["rank"], r["method"], r["rmse_deg"]) for r in rows] == [
            ("1", "fft", 0.5),
            ("failed", "dnn-danm", None),
            ("bound", "crb", 0.1),
        ]

    def test_partial_failures_are_shown_beside_the_ranking(self, tmp_path, capsys):
        # omp ranks first on its surviving trials; its failures stay in view
        path = self.write_summary(
            tmp_path,
            [("fft", 20.0, 0.9, 5, 0), ("omp", 20.0, 0.4, 5, 3), ("crb", 20.0, 0.1, 5, 0)],
        )
        out = tmp_path / "compare.csv"
        assert main(["compare", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "snr_db,rank,method,rmse_deg,trials,failures",
            "20.0,1,omp,0.4,5,3",
            "20.0,2,fft,0.9,5,0",
            "20.0,bound,crb,0.1,5,0",
        ]
        printed = capsys.readouterr().out
        assert "     1  omp          0.4000 deg   3/5 failed" in printed
        assert "     2  fft          0.9000 deg   0/5 failed" in printed
        rows = run_compare(path)
        assert [(r["method"], r["trials"], r["failures"]) for r in rows] == [
            ("omp", 5, 3),
            ("fft", 5, 0),
            ("crb", 5, 0),
        ]

    def test_bound_only_rejected(self, tmp_path):
        path = self.write_summary(tmp_path, [("crb", 10.0, 0.1, 3, 0)])
        with pytest.raises(ConfigError, match="estimator"):
            run_compare(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="columns"):
            run_compare(path)
        # the counts shown beside the ranking are required too
        path.write_text("method,snr_db,rmse_deg\nfft,10.0,2.0\n")
        with pytest.raises(ConfigError, match="columns"):
            run_compare(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = self.write_summary(tmp_path, [("fft", "ten", 2.0, 3, 0)])
        with pytest.raises(ConfigError, match="malformed"):
            run_compare(path)
        path = self.write_summary(tmp_path, [("fft", 10.0, 2.0, 3, "none")])
        with pytest.raises(ConfigError, match="malformed"):
            run_compare(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            run_compare(tmp_path)

    def test_cli_writes_output(self, tmp_path, capsys):
        path = self.write_summary(
            tmp_path, [("fft", 20.0, 3.0, 5, 0), ("omp", 20.0, 1.5, 5, 0)]
        )
        out = tmp_path / "compare.csv"
        code = main(["compare", str(tmp_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,rank,method,rmse_deg,trials,failures"
        assert lines[1] == "20.0,1,omp,1.5,5,0"
        printed = capsys.readouterr().out
        assert "SNR 20 dB" in printed

    def test_per_trial_failures_are_recorded_not_raised(self, tmp_path):
        # a two-source scenario on a 1x2 surface cannot separate anything,
        # the full solver cap is another reliable failure trigger
        scenario = ScenarioConfig(
            geometry=RisGeometry(2, 2),
            sources=SourceSpec(count=1, min_separation_deg=0.0),
            num_samples=8,
            seed=3,
        )
        plan = PlanConfig(methods=("anm-denoise", "fft"), snr_list=(20.0,), trials=1,
                          seed=17, full_solver_cap=2)
        settings = TrainSettings(
            dataset_size=8, epochs=1, batch_size=8, hidden_widths=(8, 8, 8, 8), seed=5
        )
        model_path, _ = run_train(scenario, settings, tmp_path / "train")
        paths = run_bench(scenario, plan, tmp_path / "bench", model_path=model_path)
        trials = paths.trials.read_text().splitlines()
        failed = [l for l in trials[1:] if l.startswith("anm-denoise")]
        assert len(failed) == 1 and "SizeCapError" in failed[0]
        summary = [l for l in paths.summary.read_text().splitlines() if l.startswith("anm-denoise")]
        assert summary[0].endswith(",1,1")  # one trial, one failure
        good = [l for l in paths.summary.read_text().splitlines() if l.startswith("fft")]
        assert good[0].endswith(",1,0")
