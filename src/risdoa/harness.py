"""Experiment drivers: snapshot generation, reconstruction training, the
benchmark sweep, and result comparison.

The benchmark's unit of work is the trial: it draws its sources and
hardware and their clean signal once, and each of its SNR cells adds its
own noise and feeds that snapshot to every requested method, so
per-method differences are purely algorithmic. Workers split the trials,
so a plan with fewer trials than workers runs partly serial. Wall-clock
timing is kept out of the deterministic result files.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .anm import SolverConfig, code_svd, solve_danm, solve_full_anm
from .baselines import (
    AngleGrid,
    build_dictionary,
    crb_numeric,
    grid_estimate,
    matched_squared_error,
    omp_estimate,
    rmse_deg,
)
from .config import (
    STREAM_IMPAIRMENTS,
    STREAM_NOISE,
    STREAM_SOURCES,
    PlanConfig,
    ScenarioConfig,
    TrainSettings,
    scenario_hash,
    snr_index,
)
from .errors import ConfigError, RisDoaError
from .extraction import estimate_doa, estimate_from_full
from .model import clean_impaired, received, synthesize_impaired, write_snapshot
from .network import (
    generate_dataset,
    load_model,
    reconstruct,
    save_model,
    train,
    write_loss_history,
)
from .seeding import child_seed

METHOD_NAMES = ("fft", "omp", "fft-denoise", "omp-denoise", "anm-denoise", "dnn-danm", "crb")
_MODEL_METHODS = frozenset({"fft-denoise", "omp-denoise", "anm-denoise", "dnn-danm"})
_GRID_METHODS = frozenset({"fft", "omp", "fft-denoise", "omp-denoise"})

# the paper compares every method under one set-up, so its grid and solver settings are fixed.
# A solve fixes the angles only well below its noise, so it stops at max(tolerance,
# _NOISE_STOP * sqrt(P) / ||z||), P being its noise budget and z its data (_noise_stop).
_GRID_STEP_DEG = 1.0
_DANM_CONFIG = SolverConfig(mode="noise-ball", tolerance=1e-5, max_iterations=20_000)
_FULL_CONFIG = SolverConfig(mode="regularized", tolerance=1e-5, max_iterations=20_000)
_NOISE_STOP = 1e-3


# ---------------------------------------------------------------------------
# simulate / train


def run_simulate(scenario: ScenarioConfig, out_dir, ideal: bool = False) -> Path:
    """Write one snapshot of the scenario as CSV plus a JSON sidecar.

    ideal simulates the scenario with its impairments disabled, as
    [impairments] enabled = false does; the sidecar's hash names the
    scenario that was simulated.
    """
    if ideal:
        scenario = replace(scenario, impairments=replace(scenario.impairments, enabled=False))
    sources = scenario.draw_sources(child_seed(scenario.seed, STREAM_SOURCES, 0))
    impairments = scenario.draw_impairments(child_seed(scenario.seed, STREAM_IMPAIRMENTS, 0))
    noise_seed = child_seed(scenario.seed, STREAM_NOISE, 0)
    snap = synthesize_impaired(
        scenario.geometry, scenario.schedule(), impairments, sources, scenario.snr_db, noise_seed
    )
    # the directory is made only once every draw has succeeded
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("snapshot_ideal.csv" if ideal else "snapshot.csv")
    write_snapshot(snap, path, scenario_hash=scenario_hash(scenario))
    return path


def run_train(
    scenario: ScenarioConfig,
    settings: TrainSettings,
    out_dir,
    resume=None,
):
    """Train the reconstruction network for the scenario.

    Writes model.bin and loss.csv under out_dir and returns their paths.
    Passing resume (a model path) continues training from its parameters;
    the epoch count in the metadata accumulates.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(scenario, settings)
    initial = None
    prior_epochs = 0
    if resume is not None:
        initial, prior_meta = load_model(resume)
        prior_epochs = int(prior_meta.get("epochs", 0))
    params, history = train(settings, dataset, initial=initial)
    model_path = out_dir / "model.bin"
    loss_path = out_dir / "loss.csv"
    save_model(
        params,
        model_path,
        metadata={
            "scenario": scenario_hash(scenario),
            "epochs": prior_epochs + settings.epochs,
            "dataset_size": settings.dataset_size,
            "batch_size": settings.batch_size,
            "learning_rate": settings.learning_rate,
            "final_loss": history[-1],
        },
    )
    write_loss_history(history, loss_path)
    return model_path, loss_path


# ---------------------------------------------------------------------------
# benchmark sweep


@dataclass
class TrialRecord:
    method: str
    snr_db: float
    trial: int
    true_el: tuple
    true_az: tuple
    est_el: tuple
    est_az: tuple
    squared_error: float | None  # matched total squared error (deg^2), None on failure
    seconds: float
    error: str = ""
    iterations: int | None = None  # splitting iterations of a solver method's solve


@dataclass(frozen=True)
class BenchPaths:
    estimates: Path
    trials: Path
    summary: Path


_CTX: dict = {}


def _init_worker(scenario: ScenarioConfig, plan: PlanConfig, params) -> None:
    schedule = scenario.schedule()
    spec = scenario.sources
    # everything the dictionary is built from
    key = (
        scenario.geometry,
        schedule.bits.shape,
        schedule.bits.tobytes(),
        tuple(spec.elevation_range),
        tuple(spec.azimuth_range),
    )
    dictionary = _CTX.get("dictionary") if _CTX.get("key") == key else None
    _CTX.clear()  # frees the previous run's dictionary before a new one is built
    if dictionary is None and _GRID_METHODS.intersection(plan.methods):
        grid = AngleGrid.from_ranges(spec.elevation_range, spec.azimuth_range, _GRID_STEP_DEG)
        dictionary = build_dictionary(scenario.geometry, schedule, grid)
    _CTX.update(
        key=key,
        scenario=scenario,
        plan=plan,
        params=params,
        schedule=schedule,
        dictionary=dictionary,
    )


def _reconstruction_budget(recon, nominal: float, codes: np.ndarray) -> float:
    """Residual-ball budget for the structured solver on reconstructed data.

    The reconstruction can carry disturbance beyond the receiver noise, so
    the budget self-calibrates: energy outside the range of the code matrix
    is pure disturbance, and scaling it by the dimension ratio estimates the
    total. The nominal receiver-noise budget is the floor, so a clean
    reconstruction keeps the intended constraint.
    """
    U, *_, rank = code_svd(codes)
    total = recon.size
    if rank >= total:
        return nominal
    basis = U[:, :rank]
    outside = recon - basis @ (basis.conj().T @ recon)
    estimate = float(np.vdot(outside, outside).real) * total / (total - rank)
    return max(nominal, estimate * (1.0 + 1e-9))


def _noise_stop(config: SolverConfig, budget: float, z: np.ndarray) -> SolverConfig:
    """config, its tolerance raised to _NOISE_STOP * sqrt(budget) / ||z|| where that is
    larger; a zero budget (a noiseless cell) or a zero z keeps the config's tolerance."""
    norm = float(np.linalg.norm(z))
    if budget <= 0.0 or norm == 0.0:
        return config
    return replace(config, tolerance=max(config.tolerance, _NOISE_STOP * math.sqrt(budget) / norm))


def _estimate(method: str, snap, recon, sources):
    """Run one estimator; returns its result and the solve's iteration count.

    The result is (elevations, azimuths) sorted by elevation, or the bound
    value for crb. The count is that of the dnn-danm or anm-denoise solve,
    and None for every other method.
    """
    ctx = _CTX
    scenario = ctx["scenario"]
    geom = scenario.geometry
    count = sources.count
    total_noise = snap.noise_power * snap.samples.size
    data = recon if method in _MODEL_METHODS else snap.samples
    if method in ("fft", "fft-denoise"):
        return grid_estimate(data, ctx["dictionary"], count, refine=True), None
    if method in ("omp", "omp-denoise"):
        return omp_estimate(data, ctx["dictionary"], count), None
    if method == "dnn-danm":
        codes = ctx["schedule"].codes
        budget = _reconstruction_budget(recon, total_noise, codes)
        config = _noise_stop(_DANM_CONFIG, budget, recon)
        vars = solve_danm(recon, codes, geom, config, noise_power=budget)
        return estimate_doa(vars, geom, count), vars.diagnostics.iterations
    if method == "anm-denoise":
        config = _noise_stop(_FULL_CONFIG, total_noise, recon)
        vars = solve_full_anm(
            geom, config, z=recon, G=ctx["schedule"].codes, noise_power=total_noise
        )
        return estimate_from_full(vars, geom, count), vars.diagnostics.iterations
    if method == "crb":
        return crb_numeric(geom, ctx["schedule"], sources, snap.noise_power), None
    raise ConfigError(f"unknown method {method!r}")


def _run_trial(trial):
    """All methods on every SNR cell of one trial, whose scene and clean signal are drawn once."""
    ctx = _CTX
    scenario: ScenarioConfig = ctx["scenario"]
    plan: PlanConfig = ctx["plan"]
    trial_seed = child_seed(plan.seed, 0, trial)
    sources = scenario.draw_sources(child_seed(trial_seed, STREAM_SOURCES))
    impairments = scenario.draw_impairments(child_seed(trial_seed, STREAM_IMPAIRMENTS))
    clean = clean_impaired(scenario.geometry, ctx["schedule"], impairments, sources)
    clean.flags.writeable = False  # a noiseless cell's samples are this array
    true_el = tuple(float(v) for v in sources.elevations_deg)
    true_az = tuple(float(v) for v in sources.azimuths_deg)
    records = []
    for snr_db in plan.snr_list:
        snap = received(clean, snr_db, child_seed(plan.seed, 1, snr_index(snr_db), trial))
        recon = None if ctx["params"] is None else reconstruct(ctx["params"], snap.samples)
        for method in plan.methods:
            els, azs, sq, error, iterations = (), (), None, "", None
            start = time.perf_counter()
            try:
                result, iterations = _estimate(method, snap, recon, sources)
            except (RisDoaError, ValueError, np.linalg.LinAlgError) as err:
                error = f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - start
            if not error and method == "crb":
                # store so that pooling with the common formula gives the RMS bound
                sq = 2.0 * sources.count * float(result) ** 2
            elif not error:
                sq = matched_squared_error(*result, true_el, true_az)
                els, azs = (tuple(float(v) for v in a) for a in result)
            records.append(
                TrialRecord(method, snr_db, trial, true_el, true_az, els, azs, sq, seconds, error, iterations)
            )
    return records


def run_bench(
    scenario: ScenarioConfig,
    plan: PlanConfig,
    out_dir,
    model_path=None,
) -> BenchPaths:
    """Run the benchmark sweep and write the three result files.

    estimates.csv and summary.csv depend only on the configuration and
    seeds; trials.csv also holds each estimate's wall-clock seconds. Per
    trial failures are recorded, not raised. The grid step and the solver
    settings are the module's constants.
    """
    unknown = [m for m in plan.methods if m not in METHOD_NAMES]
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(unknown)}")
    params = None
    if any(m in _MODEL_METHODS for m in plan.methods):
        if model_path is None:
            raise ConfigError("the requested methods need a trained model")
        params, _ = load_model(model_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if plan.workers > 1:
        with ProcessPoolExecutor(
            max_workers=plan.workers,
            initializer=_init_worker,
            initargs=(scenario, plan, params),
        ) as pool:
            chunks = list(pool.map(_run_trial, range(plan.trials)))
    else:
        _init_worker(scenario, plan, params)
        chunks = [_run_trial(trial) for trial in range(plan.trials)]

    records = [record for chunk in chunks for record in chunk]
    method_rank = {name: i for i, name in enumerate(plan.methods)}
    records.sort(key=lambda r: (method_rank[r.method], r.snr_db, r.trial))

    paths = BenchPaths(
        estimates=out_dir / "estimates.csv",
        trials=out_dir / "trials.csv",
        summary=out_dir / "summary.csv",
    )
    estimates = [
        (r.method, r.snr_db, r.trial, k, r.true_el[k], r.true_az[k], r.est_el[k], r.est_az[k])
        for r in records
        for k in range(len(r.est_el))
    ]
    trials = [
        (r.method, r.snr_db, r.trial, _trial_rmse(r), r.seconds, r.iterations, r.error) for r in records
    ]
    _write_csv(paths.estimates, "method,snr_db,trial,k,theta_true,phi_true,theta_est,phi_est", estimates)
    _write_csv(paths.trials, "method,snr_db,trial,rmse_deg,seconds,iterations,error", trials)
    _write_csv(paths.summary, "method,snr_db,rmse_deg,trials,failures", _summary_rows(records, plan))
    return paths


def _write_csv(path, header: str, rows) -> None:
    """A result file: csv.writer writes floats by repr and None as an empty
    field, and quotes the commas of solver messages."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def _trial_rmse(r: TrialRecord):
    return None if r.squared_error is None else rmse_deg([r.squared_error], len(r.true_el))


def _summary_rows(records, plan: PlanConfig):
    """One row per (method, SNR) cell: its RMSE over the surviving trials, or None."""
    for method in plan.methods:
        for snr in plan.snr_list:
            cell = [r for r in records if r.method == method and r.snr_db == snr]
            good = [r.squared_error for r in cell if r.squared_error is not None]
            rmse = rmse_deg(good, len(cell[0].true_el)) if good else None
            yield [method, snr, rmse, len(cell), len(cell) - len(good)]


# ---------------------------------------------------------------------------
# comparison report


def run_compare(summary_path, out_path=None):
    """Rank estimators per SNR from a summary.csv, with the bound alongside.

    Returns a list of row dicts (snr_db, rank, method, rmse_deg, trials,
    failures); the ranking is by RMSE over the surviving trials, and each
    row carries its trial and failure counts beside it. A method with no
    surviving trial (empty RMSE) follows the ranked ones with rank "failed"
    and rmse_deg None; the bound comes last with rank "bound". Raises
    ConfigError when the file is missing columns or contains no estimator
    rows.
    """
    summary_path = Path(summary_path)
    if summary_path.is_dir():
        summary_path = summary_path / "summary.csv"
    if not summary_path.exists():
        raise ConfigError(f"summary file not found: {summary_path}")
    with open(summary_path) as fh:
        reader = csv.DictReader(fh)
        required = {"method", "snr_db", "rmse_deg", "trials", "failures"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError("summary file is missing required columns")
        rows = list(reader)
    parsed = []
    for row in rows:
        try:
            snr = float(row["snr_db"])
            rmse = float(row["rmse_deg"]) if row["rmse_deg"] else None
            counts = int(row["trials"]), int(row["failures"])
        except ValueError as err:
            raise ConfigError(f"malformed summary row {row!r}") from err
        parsed.append((row["method"], snr, rmse, *counts))
    estimators = [p for p in parsed if p[0] != "crb"]
    if not estimators:
        raise ConfigError("summary contains no estimator rows")
    out_rows = []
    for snr in sorted({p[1] for p in parsed}):
        cell = [p for p in estimators if p[1] == snr]
        ranked = sorted((p for p in cell if p[2] is not None), key=lambda p: p[2])
        failed = [p for p in cell if p[2] is None]
        bound = [p for p in parsed if p[0] == "crb" and p[1] == snr]
        ranks = [str(r) for r in range(1, len(ranked) + 1)] + ["failed"] * len(failed)
        for rank, (method, _, rmse, trials, failures) in zip(
            ranks + ["bound"] * len(bound), ranked + failed + bound
        ):
            out_rows.append(
                {"snr_db": snr, "rank": rank, "method": method, "rmse_deg": rmse,
                 "trials": trials, "failures": failures}
            )
    if out_path is not None:
        _write_csv(out_path, "snr_db,rank,method,rmse_deg,trials,failures", (r.values() for r in out_rows))
    return out_rows


def compare_line(row: dict) -> str:
    """One printed ranking row: rank, method, RMSE and the failed share of its trials."""
    rmse = "n/a" if row["rmse_deg"] is None else f"{row['rmse_deg']:.4f} deg"
    return f"{row['rank']:>6}  {row['method']:<12} {rmse:<12} {row['failures']}/{row['trials']} failed"
