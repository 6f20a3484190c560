"""Dense reconstruction network mapping impaired snapshots toward ideal ones.

Everything is plain numpy: explicit forward and backward passes, a
hand-rolled Adam optimizer, and a small binary on-disk format for trained
parameters. The network operates on real vectors; complex snapshots are
stacked as [Re; Im]. Inputs and targets are normalized by a shared
per-feature scale that is stored with the parameters, so a saved model can
be applied to raw snapshots directly.

Adam keeps its two moments as one flat buffer each, in the order the model
file stores the parameters: every layer's weights (row-major), then every
layer's biases. A step gathers the gradients into that layout, updates the
moments in place and writes the new parameters into one fresh vector; the
returned weight and bias arrays are views of it. The arithmetic per element
is the same as updating each array on its own, so the layout changes no bit
of a trained model.

A model file holds, in order: the magic b"RDNM", the format version and
layer count, each layer's (out, in) weight shape, the parameters as one
little-endian float64 block in that flat order, the feature scale, and the
JSON metadata. _flatten and _unflatten are the only code that knows the order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import (
    STREAM_IMPAIRMENTS,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_SHUFFLE,
    STREAM_SNR,
    STREAM_SOURCES,
    ScenarioConfig,
    TrainSettings,
)
from .errors import ConfigError, TrainingDivergedError
from .model import synthesize_ideal, synthesize_impaired
from .seeding import child_seed

_MAGIC = b"RDNM"
_VERSION = 1
# Adam moment decays and denominator guard at the defaults of Kingma & Ba (2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def stack_complex(z: np.ndarray) -> np.ndarray:
    """Complex vector (or batch) to real features [Re; Im] along the last axis."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=-1)


def unstack_complex(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    half = v.shape[-1] // 2
    if v.shape[-1] != 2 * half:
        raise ValueError("stacked feature length must be even")
    return v[..., :half] + 1j * v[..., half:]


@dataclass
class MlpParams:
    """Affine layer stack plus the per-feature normalization it was fit under."""

    weights: list
    biases: list
    feature_scale: np.ndarray

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class Gradients:
    weights: list
    biases: list


def init_mlp(layer_sizes, seed: int, feature_scale=None) -> MlpParams:
    """Uniform init bounded by +-sqrt(1/fan_in) for weights and biases."""
    if len(layer_sizes) < 2:
        raise ConfigError("need at least one affine layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = math.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    if feature_scale is None:
        feature_scale = np.ones(layer_sizes[0])
    return MlpParams(weights=weights, biases=biases, feature_scale=np.asarray(feature_scale, float))


def _forward_trace(params: MlpParams, x2d: np.ndarray):
    """Return (activations per layer incl. input, pre-activations per layer)."""
    last = len(params.weights) - 1
    acts = [x2d]
    pres = []
    h = x2d
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w.T + b
        pres.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
        acts.append(h)
    return acts, pres


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one feature vector or a batch (rows)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    acts, _ = _forward_trace(params, np.atleast_2d(x))
    out = acts[-1]
    return out[0] if single else out


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every entry (batch and features alike)."""
    prediction = np.asarray(prediction, float)
    target = np.asarray(target, float)
    return float(np.mean((prediction - target) ** 2))


def backward(params: MlpParams, x: np.ndarray, target: np.ndarray):
    """Loss gradients for a batch. Returns (Gradients, batch loss)."""
    x2 = np.atleast_2d(np.asarray(x, float))
    t2 = np.atleast_2d(np.asarray(target, float))
    acts, pres = _forward_trace(params, x2)
    out = acts[-1]
    loss = mse_loss(out, t2)
    # d(mean sq err)/d(out); the mean runs over batch rows and features
    delta = 2.0 * (out - t2) / out.size
    num = len(params.weights)
    grad_w = [None] * num
    grad_b = [None] * num
    for i in reversed(range(num)):
        grad_w[i] = delta.T @ acts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * (pres[i - 1] > 0.0)
    return Gradients(weights=grad_w, biases=grad_b), loss


@dataclass
class AdamState:
    """Adam learning rate, step count and the two moments as flat buffers."""

    learning_rate: float
    step: int
    m: np.ndarray
    v: np.ndarray


def _flatten(layers) -> np.ndarray:
    """Weights (row-major) then biases of MlpParams or Gradients, as one new vector."""
    return np.concatenate([w.reshape(-1) for w in layers.weights] + list(layers.biases))


def _unflatten(flat: np.ndarray, shapes, feature_scale) -> MlpParams:
    """Parameters with (out, in) weight shapes `shapes` whose arrays are views of flat."""
    parts, offset = [], 0
    for shape in [*shapes, *((out_dim,) for out_dim, _ in shapes)]:
        size = math.prod(shape)
        parts.append(flat[offset : offset + size].reshape(shape))
        offset += size
    num = len(shapes)
    return MlpParams(weights=parts[:num], biases=parts[num:], feature_scale=feature_scale)


def adam_init(params: MlpParams, learning_rate: float) -> AdamState:
    size = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
    return AdamState(learning_rate=learning_rate, step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: MlpParams, grads: Gradients) -> MlpParams:
    """One optimizer step with bias correction. Mutates state, returns new params.

    The returned arrays are views of one new flat parameter vector; params
    itself is left unchanged. Every element goes through the operations of
    value - lr * (m / c1) / (sqrt(v / c2) + eps) in that order, so the
    result does not depend on the flat layout.
    """
    state.step += 1
    c1 = 1.0 - _BETA1**state.step
    c2 = 1.0 - _BETA2**state.step
    m, v = state.m, state.v
    g = _flatten(grads)
    work = np.multiply(g, 1.0 - _BETA1)
    m *= _BETA1
    m += work
    np.multiply(g, 1.0 - _BETA2, out=work)
    work *= g
    v *= _BETA2
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += _EPSILON
    step = np.divide(m, c1, out=g)
    step *= state.learning_rate
    step /= work
    value = _flatten(params)
    value -= step
    return _unflatten(value, [w.shape for w in params.weights], params.feature_scale)


@dataclass
class TrainingSet:
    inputs: np.ndarray
    targets: np.ndarray


def generate_dataset(scenario: ScenarioConfig, settings: TrainSettings) -> TrainingSet:
    """Build (impaired, ideal) snapshot pairs for one fixed code schedule.

    Per example: fresh sources (pinned scenario angles keep the network
    calibrated to its operating scene, ranges give an angle-generic model),
    fresh hardware draws, and an SNR uniform over snr_range. Input and
    target share the same unit noise draw, so the pair isolates the
    hardware distortion rather than the receiver noise.
    """
    size, seed = settings.dataset_size, settings.seed
    schedule = scenario.schedule()
    geom = scenario.geometry
    width = 2 * scenario.num_samples
    inputs = np.empty((size, width))
    targets = np.empty((size, width))
    for i in range(size):
        sources = scenario.draw_sources(child_seed(seed, STREAM_SOURCES, i))
        impairments = scenario.draw_impairments(child_seed(seed, STREAM_IMPAIRMENTS, i))
        snr_rng = np.random.default_rng(child_seed(seed, STREAM_SNR, i))
        snr_db = float(snr_rng.uniform(*settings.snr_range))
        noise_seed = child_seed(seed, STREAM_NOISE, i)
        impaired = synthesize_impaired(geom, schedule, impairments, sources, snr_db, noise_seed)
        ideal = synthesize_ideal(geom, schedule, sources, snr_db, noise_seed)
        inputs[i] = stack_complex(impaired.samples)
        targets[i] = stack_complex(ideal.samples)
    return TrainingSet(inputs=inputs, targets=targets)


def train(
    settings: TrainSettings,
    dataset: TrainingSet,
    initial: MlpParams | None = None,
):
    """Run minibatch Adam over the dataset. Returns (params, epoch loss history).

    History entries are the per-example mean loss across each epoch, measured
    on the normalized data (losses are comparable across scenarios). Passing
    initial params resumes training under their stored feature scale.
    """
    inputs = np.asarray(dataset.inputs, float)
    targets = np.asarray(dataset.targets, float)
    if inputs.shape != targets.shape or inputs.ndim != 2:
        raise ConfigError("dataset inputs and targets must be matching 2-D arrays")
    count, dim = inputs.shape

    if initial is not None:
        params = initial
        scale = np.asarray(initial.feature_scale, float)
        if params.weights[0].shape[1] != dim:
            raise ConfigError("resume parameters do not match the dataset width")
    else:
        scale = np.sqrt(np.mean(0.5 * (inputs**2 + targets**2), axis=0))
        scale = np.maximum(scale, 1e-12)
        init_seed = child_seed(settings.seed, STREAM_INIT)
        params = init_mlp([dim, *settings.hidden_widths, dim], init_seed, scale)

    x = inputs / scale
    y = targets / scale
    shuffle_rng = np.random.default_rng(child_seed(settings.seed, STREAM_SHUFFLE))
    state = adam_init(params, learning_rate=settings.learning_rate)
    history = []
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(count)
        total = 0.0
        for start in range(0, count, settings.batch_size):
            idx = order[start : start + settings.batch_size]
            grads, loss = backward(params, x[idx], y[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch + 1}", epoch=epoch + 1
                )
            total += loss * idx.size
            params = adam_step(state, params, grads)
        history.append(total / count)
    return params, history


def reconstruct(params: MlpParams, samples: np.ndarray) -> np.ndarray:
    """Map a raw complex snapshot (or batch) through the trained network."""
    stacked = stack_complex(np.asarray(samples))
    if stacked.shape[-1] != params.weights[0].shape[1]:
        raise ValueError("snapshot length does not match the trained input width")
    out = forward(params, stacked / params.feature_scale) * params.feature_scale
    return unstack_complex(out)


def write_loss_history(history, path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss\n")
        for i, value in enumerate(history, start=1):
            fh.write(f"{i},{value!r}\n")


# ---------------------------------------------------------------------------
# on-disk format (see the module docstring)


def save_model(params: MlpParams, path, metadata: dict | None = None) -> None:
    meta = json.dumps(metadata or {}, sort_keys=True).encode()
    shapes = np.asarray([w.shape for w in params.weights], dtype="<u4")
    scale = np.ascontiguousarray(params.feature_scale, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", _VERSION, len(shapes)) + shapes.tobytes())
        fh.write(_flatten(params).astype("<f8").tobytes())
        fh.write(struct.pack("<I", scale.size) + scale.tobytes())
        fh.write(struct.pack("<Q", len(meta)) + meta)


def load_model(path):
    """Read a saved model. Returns (params, metadata dict).

    Raises ConfigError naming the file when it cannot be read, is not a
    model file, or is truncated or corrupt.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read model file {path}: {err}") from err
    try:
        return _parse_model(blob)
    except (struct.error, ValueError) as err:
        raise ConfigError(f"corrupt or truncated model file {path}: {err}") from err


def _parse_model(blob: bytes):
    if blob[:4] != _MAGIC:
        raise ValueError("not a reconstruction model file")
    version, num_layers = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported model version {version}")
    dims = struct.unpack_from(f"<{2 * num_layers}I", blob, 12)
    shapes = list(zip(dims[::2], dims[1::2]))
    if num_layers == 0 or any(b[1] != a[0] for a, b in zip(shapes, shapes[1:])):
        raise ValueError(f"layer shapes {shapes} do not chain")
    offset = 12 + 8 * num_layers
    size = sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)
    if offset + 8 * size > len(blob):
        raise ValueError(f"{size} parameters do not fit in {len(blob)} bytes")
    flat = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).copy()
    offset += 8 * size
    (scale_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if scale_len != shapes[0][1]:
        raise ValueError(f"feature scale has {scale_len} entries for input width {shapes[0][1]}")
    scale = np.frombuffer(blob, dtype="<f8", count=scale_len, offset=offset).copy()
    offset += 8 * scale_len
    (meta_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if offset + meta_len != len(blob):
        raise ValueError(f"metadata runs to byte {offset + meta_len} of {len(blob)}")
    metadata = json.loads(blob[offset:].decode()) if meta_len else {}
    if not isinstance(metadata, dict):
        raise ValueError("metadata is not a JSON object")
    return _unflatten(flat, shapes, scale), metadata
