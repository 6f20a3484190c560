"""Per-layer tracing of risdoa, applied from outside the library.

Each target names an attribute that a caller looks up at call time, such as
``risdoa.harness.solve_danm`` (the harness's reference to the solver) or
``risdoa.anm.project_psd`` (looked up by the splitting loop on every
iteration). Installing the targets replaces those attributes with wrappers
that record spans; leaving the ``installed`` block puts every original
object back and checks that it is back.

A span has a name, a start, an end and the index of its parent span. Spans
stay in memory in a ``Tracer`` and are written out by ``write_spans`` when
the run ends. Self time is a span's duration minus the durations of the
wrapped spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Spans, call counts and observed counters of one traced phase."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.self_seconds: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)  # summed quantities read off results
        self.values: dict = {}  # quantities that are the same on every call
        self._stack: list = []  # [span index, seconds of direct children]


@dataclass(frozen=True)
class Target:
    """One looked-up name to wrap.

    owner is a module path, or ``module:Class`` for a method. A target that
    is not timed only counts calls; its time stays with the caller. observe,
    when given, is called as observe(tracer, args, kwargs, result).
    """

    owner: str
    attr: str
    span: str
    timed: bool = True
    observe: Callable | None = None


def layer_flop(layer_sizes) -> int:
    """Matmul FLOPs of one training example through forward and backward passes.

    Forward and the weight gradient each cost 2 * fan_in * fan_out per
    layer; propagating the error costs the same again for every layer but
    the first. Bias, activation and optimizer work is not counted.
    """
    pairs = [a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    return 6 * sum(pairs) - 2 * pairs[0]


def _observe_solve(tracer, args, kwargs, result):
    diag = result.diagnostics
    tracer.counters["anm.iterations"] += diag.iterations
    if hasattr(result, "T_x"):
        tracer.values["anm.solve_danm.psd_side"] = result.T_x.shape[0] + result.T_y.shape[0]
    else:
        tracer.values["anm.solve_full_anm.psd_side"] = result.T.shape[0] + 1


def _observe_dataset(tracer, args, kwargs, result):
    tracer.counters["network.examples"] += result.inputs.shape[0]


def _observe_train(tracer, args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    params, history = result
    flop = layer_flop(params.layer_sizes) * dataset.inputs.shape[0] * len(history)
    tracer.counters["network.train_flop"] += flop


TARGETS = (
    # model: looked up by the scenario's draws, the dataset builder and the cell loop
    Target("risdoa.config", "sample_impairments", "model.sample_impairments"),
    Target("risdoa.config", "sample_sources", "model.sample_sources"),
    Target("risdoa.network", "synthesize_impaired", "model.synthesize_impaired"),
    Target("risdoa.harness", "synthesize_impaired", "model.synthesize_impaired"),
    Target("risdoa.network", "synthesize_ideal", "model.synthesize_ideal"),
    # network
    Target("risdoa.harness", "generate_dataset", "network.generate_dataset", observe=_observe_dataset),
    Target("risdoa.harness", "train", "network.train", observe=_observe_train),
    Target("risdoa.network", "backward", "network.backward"),
    Target("risdoa.network", "adam_step", "network.adam_step"),
    Target("risdoa.harness", "reconstruct", "network.reconstruct"),
    # anm: the two solvers as the harness sees them, and the two inner steps
    Target("risdoa.harness", "solve_danm", "anm.solve_danm", observe=_observe_solve),
    Target("risdoa.harness", "solve_full_anm", "anm.solve_full_anm", observe=_observe_solve),
    Target("risdoa.anm", "project_psd", "anm.project_psd"),
    Target("risdoa.anm", "brentq", "anm.brentq"),
    # extraction
    Target("risdoa.harness", "estimate_doa", "extraction.estimate_doa"),
    Target("risdoa.harness", "estimate_from_full", "extraction.estimate_from_full"),
    # baselines
    Target("risdoa.harness", "grid_estimate", "baselines.grid_estimate"),
    Target("risdoa.harness", "omp_estimate", "baselines.omp_estimate"),
    Target("risdoa.harness", "crb_numeric", "baselines.crb_numeric"),
    Target("risdoa.harness", "matched_squared_error", "baselines.matched_squared_error"),
    Target("risdoa.harness", "build_dictionary", "baselines.build_dictionary"),
    # harness entry points; the benchmark calls them through the module
    Target("risdoa.harness", "run_train", "harness.run_train"),
    Target("risdoa.harness", "run_bench", "harness.run_bench"),
    # counted only: schedule construction and seeding time stays with the caller
    Target("risdoa.config:ScenarioConfig", "schedule", "config.schedule", timed=False),
    Target("risdoa.config", "child_seed", "seeding.child_seed", timed=False),
    Target("risdoa.network", "child_seed", "seeding.child_seed", timed=False),
    Target("risdoa.harness", "child_seed", "seeding.child_seed", timed=False),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(original, target: Target, tracer: Tracer):
    name = target.span
    if not target.timed:

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return original(*args, **kwargs)

        return counted

    clock = time.perf_counter

    @functools.wraps(original)
    def traced(*args, **kwargs):
        stack = tracer._stack
        index = len(tracer.spans)
        parent = stack[-1][0] if stack else -1
        tracer.spans.append(None)  # reserve the slot so parents precede children
        frame = [index, 0.0]
        stack.append(frame)
        start = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            tracer.spans[index] = (name, start, end, parent)
            tracer.calls[name] += 1
            tracer.seconds[name] += duration
            tracer.self_seconds[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
        if target.observe is not None:
            target.observe(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            original = vars(owner)[target.attr]
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, _wrap(original, target, tracer))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        stale = [f"{owner.__name__}.{attr}" for owner, attr, original in saved
                 if vars(owner)[attr] is not original]
        if stale:
            raise RuntimeError(f"wrapped names not restored: {', '.join(stale)}")


def write_spans(path, phases) -> None:
    """Write spans as CSV rows: phase, index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("phase,index,name,start,end,parent\n")
        for phase, tracer in phases:
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(f"{phase},{i},{name},{start!r},{end!r},{parent}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better); every name printed by a traced run, in print order
PER_LAYER = (
    ("anm.solve_danm.calls", "count", "lower"),
    ("anm.solve_danm.s", "s", "lower"),
    ("anm.solve_danm.self_s", "s", "lower"),
    ("anm.solve_danm.psd_side", "rows", "lower"),
    ("anm.solve_full_anm.calls", "count", "lower"),
    ("anm.solve_full_anm.s", "s", "lower"),
    ("anm.solve_full_anm.self_s", "s", "lower"),
    ("anm.solve_full_anm.psd_side", "rows", "lower"),
    ("anm.brentq.calls", "count", "lower"),
    ("anm.brentq.s", "s", "lower"),
    ("anm.project_psd.calls", "count", "lower"),
    ("anm.project_psd.s", "s", "lower"),
    ("anm.iterations", "count", "lower"),
    ("anm.iterations_per_solve", "count", "lower"),
    ("anm.ms_per_iteration", "ms", "lower"),
    ("model.sample_impairments.calls", "count", "lower"),
    ("model.sample_impairments.s", "s", "lower"),
    ("model.sample_sources.s", "s", "lower"),
    ("model.synthesize_impaired.calls", "count", "lower"),
    ("model.synthesize_impaired.s", "s", "lower"),
    ("model.synthesize_ideal.calls", "count", "lower"),
    ("model.synthesize_ideal.s", "s", "lower"),
    ("network.generate_dataset.s", "s", "lower"),
    ("network.generate_dataset.ms_per_example", "ms", "lower"),
    ("network.backward.calls", "count", "lower"),
    ("network.backward.s", "s", "lower"),
    ("network.adam_step.calls", "count", "lower"),
    ("network.adam_step.s", "s", "lower"),
    ("network.train.s", "s", "lower"),
    ("network.train_gflop", "GFLOP", "lower"),
    ("network.train_gflops_per_s", "GFLOP/s", "higher"),
    ("network.reconstruct.calls", "count", "lower"),
    ("network.reconstruct.s", "s", "lower"),
    ("extraction.estimate_doa.calls", "count", "lower"),
    ("extraction.estimate_doa.s", "s", "lower"),
    ("extraction.estimate_from_full.calls", "count", "lower"),
    ("extraction.estimate_from_full.s", "s", "lower"),
    ("baselines.grid_estimate.calls", "count", "lower"),
    ("baselines.grid_estimate.s", "s", "lower"),
    ("baselines.omp_estimate.calls", "count", "lower"),
    ("baselines.omp_estimate.s", "s", "lower"),
    ("baselines.crb_numeric.calls", "count", "lower"),
    ("baselines.crb_numeric.s", "s", "lower"),
    ("baselines.matched_squared_error.s", "s", "lower"),
    ("baselines.build_dictionary.s", "s", "lower"),
    ("harness.run_bench.s", "s", "lower"),
    ("harness.run_train.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("config.schedule.calls", "count", "lower"),
    ("seeding.child_seed.calls", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# computed from sizes and returned diagnostics rather than timed
COMPUTED = frozenset({
    "anm.solve_danm.psd_side",
    "anm.solve_full_anm.psd_side",
    "anm.iterations",
    "anm.iterations_per_solve",
    "network.train_gflop",
})


def layer_metrics(setup: Tracer, ops: Tracer, n_ops: int, overhead_pct: float) -> dict:
    """Per-layer values for one set-up plus one operation.

    Operation figures are averaged over the n_ops traced operations; set-up
    figures (the model training of the bench workloads) are added once.
    """

    def total(table: str, key: str) -> float:
        return getattr(setup, table)[key] + getattr(ops, table)[key] / n_ops

    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = total("calls", span)
        elif field == "s":
            out[name] = total("seconds", span)
        elif field == "self_s":
            out[name] = total("self_seconds", span)
    for key in ("anm.solve_danm.psd_side", "anm.solve_full_anm.psd_side"):
        out[key] = ops.values.get(key, setup.values.get(key, 0))
    iterations = total("counters", "anm.iterations")
    solves = out["anm.solve_danm.calls"] + out["anm.solve_full_anm.calls"]
    solve_s = out["anm.solve_danm.s"] + out["anm.solve_full_anm.s"]
    out["anm.iterations"] = iterations
    out["anm.iterations_per_solve"] = iterations / solves if solves else 0.0
    out["anm.ms_per_iteration"] = 1e3 * solve_s / iterations if iterations else 0.0
    examples = total("counters", "network.examples")
    out["network.generate_dataset.ms_per_example"] = (
        1e3 * out["network.generate_dataset.s"] / examples if examples else 0.0
    )
    gflop = total("counters", "network.train_flop") / 1e9
    out["network.train_gflop"] = gflop
    out["network.train_gflops_per_s"] = gflop / out["network.train.s"] if gflop else 0.0
    out["harness.self_s"] = total("self_seconds", "harness.run_bench") + total(
        "self_seconds", "harness.run_train"
    )
    out["trace.ops"] = n_ops
    out["trace.overhead_pct"] = overhead_pct
    return out
