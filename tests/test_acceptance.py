"""Whole-system acceptance battery.

Ten checks covering exact recovery, solver equivalences, gradient and
bound sanity, training convergence, benchmark orderings, robustness
monotonicity, the decoupled-vs-full runtime gap, and byte-level
determinism of the result files. Each test prints one summary line so a
plain ``pytest -v tests/test_acceptance.py -s`` doubles as the report.

The two slow fixtures (network training and the four benchmark runs)
are module scoped and shared; the whole module takes several minutes.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from risdoa.anm import (
    SolverConfig,
    solve_danm,
    solve_full_anm,
    toeplitz_from_atoms,
    unit_vec_atom,
    vandermonde_decompose,
)
from risdoa.baselines import _steering_derivatives, crb_numeric
from risdoa.config import (
    ImpairmentSpec,
    PlanConfig,
    SourceSpec,
    TrainSettings,
    desk_scenario,
)
from risdoa.extraction import estimate_doa
from risdoa.harness import run_bench, run_train
from risdoa.model import (
    RisGeometry,
    SourceSet,
    build_code_schedule,
    sample_sources,
    steering_vector,
    synthesize_ideal,
)
from risdoa.network import backward, forward, generate_dataset, init_mlp, mse_loss, train

# deselect with -m "not slow" for the quick test loop
pytestmark = pytest.mark.slow

# fixed evaluation scene for the benchmark checks, well separated on both
# axes and off the search grid; amplitudes, hardware, and noise stay
# random per trial
SCENE = SourceSpec(count=2, elevations=(45.4, 72.8), azimuths=(-22.3, 18.9))
# two random sources 15 degrees apart in the default angle box
RANDOM_PAIR = SourceSpec(2, (20.0, 80.0), (-30.0, 30.0), min_separation_deg=15.0)

# widened-impairment conditions for the robustness checks
SWEEPS = {
    "amplitude": ImpairmentSpec(mismatch_amp_range=(0.5, 3.0)),
    "phase": ImpairmentSpec(mismatch_phase_range=(-math.pi / 3, math.pi / 3)),
    "coupling": ImpairmentSpec(coupling_amp_range=(0.1, 0.8)),
}

BENCH_SAMPLES = 96
BENCH_PLAN = PlanConfig(snr_list=(20.0,), trials=100, seed=31)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _paired_max_err(est, src) -> float:
    """Worst absolute angle error under the best target assignment."""
    best = math.inf
    k = len(src.elevations_deg)
    for perm in itertools.permutations(range(k)):
        err = max(
            max(abs(est.elevations_deg[i] - src.elevations_deg[p]) for i, p in enumerate(perm)),
            max(abs(est.azimuths_deg[i] - src.azimuths_deg[p]) for i, p in enumerate(perm)),
        )
        best = min(best, err)
    return best


def _exact_recovery_run(csv_path) -> float:
    """50 noiseless two-source recoveries; returns the worst angle error.

    Writes every estimate to csv_path so reruns can be compared
    byte for byte.
    """
    geom = RisGeometry(8, 8)
    sched = build_code_schedule(64, geom.n_elements, seed=5)
    codes = sched.codes.astype(complex)
    config = SolverConfig(mode="noise-ball", tolerance=1e-6)
    worst = 0.0
    with open(csv_path, "w") as fh:
        fh.write("trial,k,theta_true,phi_true,theta_est,phi_est\n")
        for trial in range(50):
            src = sample_sources(RANDOM_PAIR, seed=1000 + trial)
            snap = synthesize_ideal(geom, sched, src, snr_db=math.inf, seed=0)
            vars = solve_danm(snap.samples, codes, geom, config, noise_power=0.0)
            est = estimate_doa(vars, geom, 2)
            worst = max(worst, _paired_max_err(est, src))
            for k in range(2):
                fh.write(
                    f"{trial},{k},{src.elevations_deg[k]!r},{src.azimuths_deg[k]!r},"
                    f"{est.elevations_deg[k]!r},{est.azimuths_deg[k]!r}\n"
                )
    return worst


def _summary_rmse(paths) -> dict:
    with open(paths.summary) as fh:
        return {
            row["method"]: float(row["rmse_deg"])
            for row in csv.DictReader(fh)
            if row["rmse_deg"]
        }


@pytest.fixture(scope="module")
def bench_model(tmp_path_factory):
    """One scene-agnostic reconstruction model shared by every benchmark."""
    scenario = desk_scenario(seed=4242, num_samples=BENCH_SAMPLES)
    settings = TrainSettings(dataset_size=12000, hidden_widths=(64, 64, 64, 64), seed=77)
    model_path, _ = run_train(scenario, settings, tmp_path_factory.mktemp("bench_model"))
    return model_path


@pytest.fixture(scope="module")
def bench_runs(bench_model, tmp_path_factory):
    """Benchmark under nominal impairments plus the three widened conditions."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for name, impairments in {"nominal": ImpairmentSpec(), **SWEEPS}.items():
        scenario = desk_scenario(
            seed=4242, num_samples=BENCH_SAMPLES, sources=SCENE, impairments=impairments
        )
        runs[name] = run_bench(scenario, BENCH_PLAN, out / name, model_path=bench_model)
    return runs


def test_01_noiseless_exact_recovery(tmp_path):
    start = time.perf_counter()
    worst = _exact_recovery_run(tmp_path / "recovery.csv")
    elapsed = time.perf_counter() - start
    ok = worst <= 0.1 and elapsed <= 120.0
    _report(1, ok, f"worst error {worst:.2e} deg over 50/50 trials in {elapsed:.1f}s")
    assert worst <= 0.1
    assert elapsed <= 120.0


def test_02_objective_equivalence():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst_target = 0.0
    worst_between = 0.0
    for _ in range(20):
        M = int(rng.integers(3, 5))
        N = int(rng.integers(3, 5))
        K = int(rng.integers(1, 3))
        geom = RisGeometry(M, N, 0.4, 0.4)

        def draw_freqs(L):
            # atoms must stay identifiable at these tiny apertures
            while True:
                f = rng.uniform(-1, 1, size=K)
                if K == 1 or np.min(np.abs(f[:, None] - f[None, :])[np.triu_indices(K, 1)]) > 1.2 / L:
                    return f

        fr, fc = draw_freqs(M), draw_freqs(N)
        c = rng.uniform(0.5, 2.0, size=K)
        x = sum(c[q] * unit_vec_atom(geom, fr[q], fc[q]) for q in range(K))
        cfg = SolverConfig(mode="noise-ball", tolerance=1e-7, max_iterations=50000)
        dec = solve_danm(x, np.eye(M * N, dtype=complex), geom, cfg, noise_power=0.0)
        full = solve_full_anm(geom, cfg, x=x)
        target = c.sum()
        dec_obj = dec.diagnostics.trace_objective
        full_obj = full.diagnostics.trace_objective
        worst_target = max(
            worst_target, abs(dec_obj - target) / target, abs(full_obj - target) / target
        )
        worst_between = max(worst_between, abs(dec_obj - full_obj) / target)
    elapsed = time.perf_counter() - start
    ok = worst_target <= 0.02 and worst_between <= 0.02 and elapsed <= 300.0
    _report(
        2,
        ok,
        f"worst vs target {worst_target:.2e}, between solvers {worst_between:.2e}, "
        f"20 cases in {elapsed:.1f}s",
    )
    assert worst_target <= 0.02
    assert worst_between <= 0.02
    assert elapsed <= 300.0


def test_03_vandermonde_round_trip():
    rng = np.random.default_rng(314159)
    worst_res = 0.0
    worst_freq = 0.0
    for _ in range(10):
        dim = int(rng.integers(6, 12))
        k = int(rng.integers(1, 4))
        while True:
            f = np.sort(rng.uniform(-1, 1, size=k))
            if k == 1 or np.min(np.diff(f)) > 1.5 / dim:
                break
        c = rng.uniform(0.5, 3.0, size=k)
        T = toeplitz_from_atoms(f, c, dim, spacing=0.5)
        dec = vandermonde_decompose(T, k, spacing=0.5)
        rebuilt = toeplitz_from_atoms(dec.frequencies, dec.weights, dim, spacing=0.5)
        worst_res = max(worst_res, np.linalg.norm(rebuilt - T) / np.linalg.norm(T))
        worst_freq = max(worst_freq, float(np.max(np.abs(dec.frequencies - f))))
    ok = worst_res < 1e-6 and worst_freq < 1e-6
    _report(3, ok, f"worst residual {worst_res:.2e}, worst frequency error {worst_freq:.2e}")
    assert worst_res < 1e-6
    assert worst_freq < 1e-6


def test_04_gradient_check():
    rng = np.random.default_rng(2718281)
    params = init_mlp([6, 9, 8, 7, 6, 4], seed=2718)
    x = rng.standard_normal((5, 6))
    t = rng.standard_normal((5, 4))
    grads, _ = backward(params, x, t)
    worst = 0.0
    for _ in range(100):
        layer = int(rng.integers(0, len(params.weights)))
        use_weight = rng.random() < 0.8
        arr = params.weights[layer] if use_weight else params.biases[layer]
        grad = grads.weights[layer] if use_weight else grads.biases[layer]
        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
        h = 1e-5
        orig = arr[idx]
        arr[idx] = orig + h
        plus = mse_loss(forward(params, x), t)
        arr[idx] = orig - h
        minus = mse_loss(forward(params, x), t)
        arr[idx] = orig
        numeric = (plus - minus) / (2 * h)
        analytic = grad[idx]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6))
    ok = worst < 1e-4
    _report(4, ok, f"worst relative error {worst:.2e} over 100 coordinates")
    assert worst < 1e-4


def test_05_training_curve():
    scenario = desk_scenario(seed=4242, sources=SCENE)  # 8x8, 64 samples
    start = time.perf_counter()
    dataset = generate_dataset(
        scenario, TrainSettings(dataset_size=2000, snr_range=(20.0, 50.0), seed=99)
    )
    settings = TrainSettings(hidden_widths=(64, 64, 64, 64), seed=77)
    _, history = train(settings, dataset)
    elapsed = time.perf_counter() - start
    ratio = history[-1] / history[0]
    ok = ratio <= 0.01 and elapsed <= 900.0
    _report(
        5,
        ok,
        f"epoch-1000 loss / epoch-1 loss = {ratio:.5f} "
        f"({history[0]:.4f} -> {history[-1]:.6f}) in {elapsed:.0f}s",
    )
    assert ratio <= 0.01
    assert elapsed <= 900.0


def test_06_method_ordering(bench_runs):
    rmse = _summary_rmse(bench_runs["nominal"])
    ok = (
        rmse["dnn-danm"] < rmse["omp-denoise"] < rmse["omp"]
        and rmse["fft-denoise"] < rmse["fft"]
    )
    _report(
        6,
        ok,
        "dnn-danm {dnn-danm:.3f} < omp-denoise {omp-denoise:.3f} < omp {omp:.3f}, "
        "fft-denoise {fft-denoise:.3f} < fft {fft:.3f}".format(**rmse),
    )
    assert rmse["dnn-danm"] < rmse["omp-denoise"] < rmse["omp"]
    assert rmse["fft-denoise"] < rmse["fft"]


def test_07_complexity_gap():
    geom = RisGeometry(16, 16)
    sched = build_code_schedule(128, geom.n_elements, seed=5)
    codes = sched.codes.astype(complex)
    src = sample_sources(RANDOM_PAIR, seed=7)
    snap = synthesize_ideal(geom, sched, src, snr_db=20.0, seed=3)
    budget = snap.noise_power * snap.samples.size
    config = SolverConfig(mode="noise-ball", tolerance=1e-5, max_iterations=20000)

    dec_times = []
    for _ in range(3):
        start = time.perf_counter()
        solve_danm(snap.samples, codes, geom, config, noise_power=budget)
        dec_times.append(time.perf_counter() - start)
    full_config = SolverConfig(
        mode="noise-ball", tolerance=1e-5, max_iterations=20000, size_cap=1024
    )
    start = time.perf_counter()
    solve_full_anm(geom, full_config, z=snap.samples, G=codes, noise_power=budget)
    full_time = time.perf_counter() - start

    mean_dec = float(np.mean(dec_times))
    ratio = full_time / mean_dec
    ok = ratio >= 10.0
    _report(7, ok, f"decoupled mean {mean_dec:.2f}s vs full {full_time:.2f}s, {ratio:.0f}x")
    assert ratio >= 10.0


def test_08_bound_sanity():
    geom = RisGeometry(8, 8)
    sched = build_code_schedule(64, geom.n_elements, seed=5)

    worst = 0.0
    for el, az in [(45.4, -22.3), (72.8, 18.9), (47.3, -12.6), (55.0, 10.0)]:
        d_th, d_ph = _steering_derivatives(geom, el, az)
        step = 1e-6  # radians
        sd = math.degrees(step)
        num_th = (steering_vector(geom, el + sd, az) - steering_vector(geom, el - sd, az)) / (2 * step)
        num_ph = (steering_vector(geom, el, az + sd) - steering_vector(geom, el, az - sd)) / (2 * step)
        worst = max(
            worst,
            float(np.max(np.abs(d_th - num_th)) / np.max(np.abs(num_th))),
            float(np.max(np.abs(d_ph - num_ph)) / np.max(np.abs(num_ph))),
        )

    sources = SourceSet([45.4, 72.8], [-22.3, 18.9], [1.0 + 0.0j, 1.0 + 0.0j])
    base_power = synthesize_ideal(geom, sched, sources, snr_db=0.0, seed=11).noise_power
    bounds = [
        crb_numeric(geom, sched, sources, base_power * 10.0 ** (-snr / 10.0))
        for snr in range(0, 35, 5)
    ]
    decreasing = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    ok = worst < 1e-6 and decreasing
    _report(
        8,
        ok,
        f"derivative FD error {worst:.2e}, bound {bounds[0]:.3f} -> {bounds[-1]:.4f} deg "
        f"{'strictly decreasing' if decreasing else 'NOT monotone'}",
    )
    assert worst < 1e-6
    assert decreasing


def test_09_degradation_monotonicity(bench_runs):
    nominal = _summary_rmse(bench_runs["nominal"])
    failures = []
    details = []
    for name in SWEEPS:
        widened = _summary_rmse(bench_runs[name])
        for method, base_value in nominal.items():
            if widened[method] <= base_value:
                failures.append(f"{name}:{method} {base_value:.3f}->{widened[method]:.3f}")
        best = min(widened, key=widened.get)
        if best != "dnn-danm":
            failures.append(f"{name}: minimum is {best}")
        details.append(f"{name} dnn-danm {nominal['dnn-danm']:.3f}->{widened['dnn-danm']:.3f}")
    ok = not failures
    _report(9, ok, "; ".join(details) if ok else "; ".join(failures))
    assert not failures


def test_10_determinism(bench_model, bench_runs, tmp_path):
    first = _exact_recovery_run(tmp_path / "recovery_a.csv")
    second = _exact_recovery_run(tmp_path / "recovery_b.csv")
    recovery_same = (
        (tmp_path / "recovery_a.csv").read_bytes() == (tmp_path / "recovery_b.csv").read_bytes()
    )
    assert first == second

    mismatches = []
    for name, paths in bench_runs.items():
        scenario = desk_scenario(
            seed=4242,
            num_samples=BENCH_SAMPLES,
            sources=SCENE,
            impairments=ImpairmentSpec() if name == "nominal" else SWEEPS[name],
        )
        rerun = run_bench(scenario, BENCH_PLAN, tmp_path / name, model_path=bench_model)
        for field in ("estimates", "summary"):
            if getattr(paths, field).read_bytes() != getattr(rerun, field).read_bytes():
                mismatches.append(f"{name}/{field}")
    ok = recovery_same and not mismatches
    _report(
        10,
        ok,
        "recovery and all benchmark result files byte-identical on rerun"
        if ok
        else f"mismatch: recovery={recovery_same}, bench={mismatches}",
    )
    assert recovery_same
    assert not mismatches
