#!/usr/bin/env python3
"""Seeded benchmark of the risdoa pipeline.

    python3 perfbench/run.py --workload bench-desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. The run sets up its workload five times (set-up time is the
median), and repeats the workload's operations for ``--seconds`` in all and
until every input has run at least once and one has run twice.
Outputs must repeat byte for byte and every pooled RMSE must be finite;
otherwise the run prints ``"correct": false`` and exits with code 1.
Untraced timings are reported at the speed of the machine the benchmark was
defined on: each is scaled by how fast a fixed reference burst ran during
the same run (see ``Reference``); the measured figures are printed too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the run spends half its time
untraced and half with every layer wrapped, checks that the traced outputs
equal the untraced ones, and reports the per-layer metrics and the tracing
overhead instead. Intermediate files go to ``.perfbench/`` in the checkout.
BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import COMPUTED, PER_LAYER, Tracer, installed, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# median seconds of one Reference.burst on the machine the benchmark was
# defined on (2-vCPU Xeon, OpenBLAS on one thread)
REFERENCE_S = 0.004

# (name, unit, better); every name printed by an untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("rmse_deg", "deg", "lower"),
    ("final_loss", "mse", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# which end-to-end metric each traced layer should move, printed with its share
EXPECTED_EFFECT = {
    "anm.solve_danm": "cells_per_s on bench-desk",
    "anm.brentq": "cells_per_s on bench-desk; nothing on bench-full",
    "anm.project_psd": "cells_per_s on bench-full, less on bench-desk",
    "anm.solve_full_anm": "cells_per_s on bench-full",
    "model.sample_impairments": "train_s on train-desk",
    "model.sample_sources": "train_s on train-desk",
    "model.synthesize_impaired": "train_s on train-desk",
    "model.synthesize_ideal": "train_s on train-desk",
    "network.generate_dataset": "train_s on train-desk",
    "network.backward": "train_s on train-desk, setup_s on bench workloads",
    "network.adam_step": "train_s on train-desk, setup_s on bench workloads",
    "network.train": "train_s on train-desk, setup_s on bench workloads",
    "network.reconstruct": "cells_per_s",
    "extraction.estimate_doa": "cells_per_s on bench-desk",
    "extraction.estimate_from_full": "cells_per_s on bench-full",
    "baselines.grid_estimate": "cells_per_s on bench-desk",
    "baselines.omp_estimate": "cells_per_s on bench-desk",
    "baselines.crb_numeric": "cells_per_s on bench-desk",
    "baselines.matched_squared_error": "cells_per_s on bench-desk",
    "baselines.build_dictionary": "cells_per_s (built once per run_bench call)",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-desk", "bench-desk", "bench-full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
    }


class Reference:
    """A fixed mix of interpreter, small-array and LAPACK work, timed in bursts.

    On a shared host the speed of one core drifts by tens of percent over
    minutes, and it moves every timing of a run alike. The untraced run times
    a burst before each operation and scales its timings by REFERENCE_S over
    the median burst, which reports them at the speed of the machine the
    benchmark was defined on. The burst is the benchmark's own code, so no
    change to the package moves it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        small = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        large = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
        self.small, self.large = small + small.conj().T, large + large.conj().T
        self.batch, self.weights = rng.standard_normal((64, 192)), rng.standard_normal((64, 192))
        self.vector = rng.standard_normal(96)
        self.seconds = []

    def burst(self) -> None:
        np = self.np
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(self.small)
            self.batch @ self.weights.T
            np.maximum(np.abs(self.vector) ** 2, 0.5).sum()
            total = 0
            for i in range(300):
                total += i * i % 7
        np.linalg.eigh(self.large)
        self.seconds.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.seconds)


class Measurement:
    """Operations run so far: first result and wall times per input index.

    Repeating an input must reproduce its outputs byte for byte; a
    difference is recorded as a problem. With a reference, a burst of it is
    timed before every operation.
    """

    def __init__(self, reference: Reference | None = None):
        self.first, self.times, self.problems = {}, {}, []
        self.done = 0
        self.reference = reference

    def run(self, workload, prepared, inputs, out_dir, seconds, min_ops=1):
        """Run inputs in order, cycling on from the last call, for seconds
        and until min_ops operations have run in total."""
        start = time.perf_counter()
        while self.done < min_ops or time.perf_counter() - start < seconds:
            k = self.done % len(inputs)
            if self.reference is not None:
                self.reference.burst()
            result = workload.run(prepared, inputs[k], out_dir)
            self.times.setdefault(k, []).append(result.seconds)
            if k in self.first:
                if result.fingerprint != self.first[k].fingerprint:
                    self.problems.append(f"outputs of input {k} differ between runs")
            else:
                self.first[k] = result
                self.problems.extend(result.problems)
            self.done += 1
        return self


def pooled_rmse(errors) -> float:
    return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan


def sweep_figures(sweeps: Measurement):
    """Cells per second and pooled headline RMSE of measured run_bench calls.

    Each plan's wall time is its median over repetitions; the RMSE pools the
    first run of every plan.
    """
    results = list(sweeps.first.values())
    seconds = sum(statistics.median(v) for v in sweeps.times.values())
    return sum(r.cells for r in results) / seconds, pooled_rmse([e for r in results for e in r.head_errors])


def untraced(workload, args, import_s, work):
    """End-to-end metrics.

    The window is cut into SETUP_REPEATS segments. Each segment starts with
    one set-up, timed, and on train-desk ends with one evaluation sweep of
    the trained model, so every timed sample set spans the whole window.
    Timings are scaled to the reference speed (see Reference); the raw
    figures and the scale are printed with them.
    """
    from workloads import Prepared

    inputs = workload.inputs(args.seed)
    evaluation = workload.evaluation
    eval_inputs = evaluation.inputs(args.seed) if evaluation else []
    reference = Reference()
    ops, evals = Measurement(reference), Measurement(reference)
    setups, durations = [], []
    for segment in range(SETUP_REPEATS):
        start = time.perf_counter()
        setups.append(workload.prepare(work / f"setup{segment}"))
        durations.append(time.perf_counter() - start)
        ops.run(workload, setups[0], inputs, work / "ops", args.seconds / SETUP_REPEATS)
        if evaluation and ops.first[0].model_path is not None:
            trained = Prepared(scenario=setups[0].scenario, model_path=ops.first[0].model_path)
            evals.run(evaluation, trained, eval_inputs, work / "eval", 0.0, min_ops=evals.done + 1)
    ops.run(workload, setups[0], inputs, work / "ops", 0.0, min_ops=len(inputs) + 1)
    if evals.done:
        evals.run(evaluation, trained, eval_inputs, work / "eval", 0.0, min_ops=len(eval_inputs) + 1)

    prepared = setups[0]
    problems = ops.problems + evals.problems
    if any(s.fingerprint != prepared.fingerprint for s in setups):
        problems.append("set-up models differ between repetitions")
    if evaluation:
        train_s, loss = statistics.median(ops.times[0]), ops.first[0].final_loss
        swept = evals
    else:
        train_s, loss = statistics.median(s.train_seconds for s in setups), prepared.final_loss
        swept = ops
    cells_per_s, rmse = sweep_figures(swept) if swept.done else (0.0, math.nan)
    counted = list(ops.first.values()) + list(evals.first.values())
    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    if not math.isfinite(rmse):
        problems.append("pooled RMSE of the headline method is not finite")
    if not math.isfinite(loss):
        problems.append("final training loss is not finite")
    setup_s = import_s + statistics.median(durations)
    scale = reference.scale()
    metrics = {
        "setup_s": setup_s * scale,
        "train_s": train_s * scale,
        "cells_per_s": cells_per_s / scale,
        "success_rate": 1.0 - failed / attempted,
        "rmse_deg": rmse if math.isfinite(rmse) else 0.0,
        "final_loss": loss if math.isfinite(loss) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "measured": {"setup_s": setup_s, "train_s": train_s, "cells_per_s": cells_per_s},
        "reference_scale": scale,
        "reference_bursts": len(reference.seconds),
        "setup_repeats": SETUP_REPEATS,
        "setup_seconds": durations,
        "import_seconds": import_s,
        "operations": {f"input{k}": len(v) for k, v in sorted(ops.times.items())},
        "fingerprints": {
            **{f"input{k}": r.fingerprint for k, r in sorted(ops.first.items())},
            **{f"eval{k}": r.fingerprint for k, r in sorted(evals.first.items())},
        },
    }
    return metrics, END_TO_END, attempted, failed, problems, info


def traced(workload, args, work):
    """Per-layer metrics: one traced set-up, then the same inputs untraced
    for half the window and traced for the other half."""
    setup_tracer = Tracer()
    with installed(setup_tracer):
        prepared = workload.prepare(work / "setup0")
    inputs = workload.inputs(args.seed)
    half = args.seconds / 2.0
    plain = Measurement().run(workload, prepared, inputs, work / "ops", half)
    op_tracer = Tracer()
    with installed(op_tracer):
        wrapped = Measurement().run(workload, prepared, inputs[: len(plain.first)], work / "ops", half)
    problems = plain.problems + wrapped.problems
    for k, result in wrapped.first.items():
        if result.fingerprint != plain.first[k].fingerprint:
            problems.append(f"traced outputs of input {k} differ from untraced outputs")
    n_ops = wrapped.done
    plain_s = sum(statistics.median(plain.times[k]) for k in wrapped.times)
    wrapped_s = sum(statistics.median(v) for v in wrapped.times.values())
    metrics = layer_metrics(setup_tracer, op_tracer, n_ops, 100.0 * (wrapped_s / plain_s - 1.0))
    write_spans(work / "spans.csv", [("setup", setup_tracer), ("ops", op_tracer)])

    root = "harness.run_bench" if op_tracer.calls["harness.run_bench"] else "harness.run_train"
    shares = []
    for span, effect in EXPECTED_EFFECT.items():
        if op_tracer.calls[span]:
            share = op_tracer.seconds[span] / op_tracer.seconds[root]
            note = "; under 2% of an operation, no change of it alone can show" if share < 0.02 else ""
            shares.append(f"{span}: {100 * share:.1f}% of {root}, should move {effect}{note}")
    info = {
        "fingerprints": {f"input{k}": r.fingerprint for k, r in sorted(plain.first.items())},
        "spans": len(setup_tracer.spans) + len(op_tracer.spans),
        "spans_file": str((work / "spans.csv").relative_to(ROOT)),
        "layer_shares": shares,
    }
    attempted = sum(r.attempted for r in plain.first.values())
    failed = sum(r.failed for r in plain.first.values())
    return metrics, PER_LAYER, attempted, failed, problems, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "risdoa" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'risdoa'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import risdoa
    import workloads

    import_s = time.perf_counter() - start
    if ROOT / "src" not in Path(risdoa.__file__).resolve().parents:
        print(f"perfbench: risdoa imported from {risdoa.__file__}, not from src/", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, specs, attempted, failed, problems, info = traced(workload, args, work)
    else:
        metrics, specs, attempted, failed, problems, info = untraced(workload, args, import_s, work)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for key, value in info.items():
        if isinstance(value, list) and value and isinstance(value[0], str):
            for line in value:
                print(f"{key}: {line}")
        else:
            print(f"{key} " + json.dumps(value, sort_keys=True))
    for name, unit, _ in specs:
        label = " (computed)" if name in COMPUTED else ""
        print(f"metric {name} = {metrics[name]!r} {unit}{label}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
