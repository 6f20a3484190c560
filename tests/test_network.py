"""Network tests: hand-worked oracles for the forward pass, gradients
computed by central differences, scalar Adam recursions, and the on-disk
format round trip."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from risdoa.config import ImpairmentSpec, ScenarioConfig, SourceSpec, TrainSettings
from risdoa.errors import ConfigError
from risdoa.model import RisGeometry
from risdoa.network import (
    AdamState,
    Gradients,
    MlpParams,
    TrainingSet,
    adam_init,
    adam_step,
    backward,
    forward,
    generate_dataset,
    init_mlp,
    load_model,
    mse_loss,
    reconstruct,
    save_model,
    stack_complex,
    train,
    unstack_complex,
    write_loss_history,
)


def tiny_params():
    w1 = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, 1.0]])
    b1 = np.array([0.1, -0.2, 0.0])
    w2 = np.array([[1.0, -1.0, 2.0], [0.5, 1.0, -0.5]])
    b2 = np.array([0.0, 0.3])
    return MlpParams(weights=[w1, w2], biases=[b1, b2], feature_scale=np.ones(2))


class TestForward:
    def test_matches_neuron_by_neuron_evaluation(self):
        # independent reference: explicit sums per neuron, ReLU on the
        # hidden layer, none on the output
        params = tiny_params()
        x = np.array([1.0, -1.0])
        hidden = []
        for row, bias in zip(params.weights[0], params.biases[0]):
            pre = sum(row[j] * x[j] for j in range(2)) + bias
            hidden.append(max(pre, 0.0))
        expected = []
        for row, bias in zip(params.weights[1], params.biases[1]):
            expected.append(sum(row[j] * hidden[j] for j in range(3)) + bias)
        got = forward(params, x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_frozen_values(self):
        # hidden pre-acts: (1*1+2*-1)+0.1=-0.9 -> 0; (-1*1+0.5*-1)-0.2=-1.7 -> 0;
        # (0*1+1*-1)+0=-1 -> 0; so output is just the second bias stack
        params = tiny_params()
        np.testing.assert_allclose(forward(params, [1.0, -1.0]), [0.0, 0.3], atol=1e-15)

    def test_positive_path(self):
        # x=[1,1]: hidden pre = [3.1, -0.7, 1.0] -> [3.1, 0, 1.0]
        # out = [3.1 - 0 + 2.0, 1.55 + 0 - 0.5 + 0.3] = [5.1, 1.35]
        params = tiny_params()
        np.testing.assert_allclose(forward(params, [1.0, 1.0]), [5.1, 1.35], atol=1e-12)

    def test_batch_rows_match_single_calls(self):
        params = init_mlp([4, 8, 8, 8, 8, 4], seed=3)
        xs = np.random.default_rng(5).normal(size=(6, 4))
        batch = forward(params, xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward(params, xs[i]), atol=1e-12)

    def test_no_relu_on_output(self):
        params = MlpParams(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([0.0]), np.array([-5.0])],
            feature_scale=np.ones(1),
        )
        assert forward(params, np.array([2.0]))[0] == pytest.approx(-3.0)


class TestStacking:
    def test_round_trip(self):
        z = np.array([1 + 2j, -3 + 0.5j, 0 - 1j])
        np.testing.assert_array_equal(unstack_complex(stack_complex(z)), z)

    def test_layout_real_then_imag(self):
        v = stack_complex(np.array([1 + 2j, 3 + 4j]))
        np.testing.assert_array_equal(v, [1.0, 3.0, 2.0, 4.0])

    def test_batch_axis_preserved(self):
        z = np.arange(6).reshape(2, 3) + 1j
        assert stack_complex(z).shape == (2, 6)
        np.testing.assert_array_equal(unstack_complex(stack_complex(z)), z)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            unstack_complex(np.ones(5))


def _flatten(params):
    return np.concatenate(
        [w.ravel() for w in params.weights] + [b.ravel() for b in params.biases]
    )


def _perturbed(params, flat):
    weights, biases = [], []
    pos = 0
    for w in params.weights:
        weights.append(flat[pos : pos + w.size].reshape(w.shape))
        pos += w.size
    for b in params.biases:
        biases.append(flat[pos : pos + b.size].reshape(b.shape))
        pos += b.size
    return MlpParams(weights=weights, biases=biases, feature_scale=params.feature_scale)


class TestGradients:
    def test_central_difference_agreement(self):
        params = init_mlp([3, 7, 6, 5, 4, 3], seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))
        grads, _ = backward(params, x, target)
        analytic = _flatten(
            MlpParams(weights=grads.weights, biases=grads.biases, feature_scale=params.feature_scale)
        )
        flat = _flatten(params)
        step = 1e-5
        check = rng.choice(flat.size, size=60, replace=False)
        for k in check:
            plus = flat.copy()
            plus[k] += step
            minus = flat.copy()
            minus[k] -= step
            f_plus = mse_loss(forward(_perturbed(params, plus), x), target)
            f_minus = mse_loss(forward(_perturbed(params, minus), x), target)
            numeric = (f_plus - f_minus) / (2 * step)
            rel = abs(analytic[k] - numeric) / max(abs(analytic[k]) + abs(numeric), 1e-6)
            assert rel < 1e-4, f"param {k}: analytic {analytic[k]}, numeric {numeric}"

    def test_loss_value_matches_definition(self):
        pred = np.array([[1.0, 2.0], [3.0, 5.0]])
        target = np.array([[0.0, 2.0], [4.0, 3.0]])
        # squared errors 1, 0, 1, 4 over 4 entries
        assert mse_loss(pred, target) == pytest.approx(1.5)

    def test_backward_reports_batch_loss(self):
        params = init_mlp([2, 4, 4, 4, 4, 2], seed=0)
        x = np.random.default_rng(1).normal(size=(3, 2))
        t = np.random.default_rng(2).normal(size=(3, 2))
        _, loss = backward(params, x, t)
        assert loss == pytest.approx(mse_loss(forward(params, x), t))

    def test_zero_residual_gives_zero_gradient(self):
        params = tiny_params()
        x = np.array([[1.0, 1.0]])
        target = forward(params, x)
        grads, loss = backward(params, x, target)
        assert loss == 0.0
        assert all(np.allclose(g, 0.0) for g in grads.weights)
        assert all(np.allclose(g, 0.0) for g in grads.biases)


def _scalar_params(value):
    return MlpParams(
        weights=[np.array([[value]])], biases=[np.array([0.0])], feature_scale=np.ones(1)
    )


def _scalar_grads(g_w, g_b=0.0):
    return Gradients(weights=[np.array([[g_w]])], biases=[np.array([g_b])])


def _reference_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-array Adam update: one moment pair per weight and bias array."""
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    for step, grads in enumerate(grad_steps, start=1):
        c1 = 1.0 - b1**step
        c2 = 1.0 - b2**step

        def update(value, grad, m, v):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            return value - lr * (m / c1) / (np.sqrt(v / c2) + eps)

        weights = [update(*a) for a in zip(weights, grads.weights, m_w, v_w)]
        biases = [update(*a) for a in zip(biases, grads.biases, m_b, v_b)]
    return weights, biases


class TestAdam:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=2, max_size=6),
        steps=st.integers(1, 6),
        lr=st.floats(1e-6, 1.0),
        scale_exp=st.integers(-12, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_update_matches_the_per_array_update(self, sizes, steps, lr, scale_exp, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp(sizes, seed=seed)
        before = [a.copy() for a in params.weights + params.biases]

        def draw(a):  # gradients of one magnitude, about a fifth of them exactly zero
            return rng.standard_normal(a.shape) * 10.0**scale_exp * (rng.random(a.shape) < 0.8)

        grad_steps = [
            Gradients(
                weights=[draw(w) for w in params.weights],
                biases=[draw(b) for b in params.biases],
            )
            for _ in range(steps)
        ]
        ref_w, ref_b = _reference_adam(params, grad_steps, lr)
        state = adam_init(params, learning_rate=lr)
        out = params
        for grads in grad_steps:
            out = adam_step(state, out, grads)
        for got, ref in zip(out.weights + out.biases, ref_w + ref_b):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        # the caller's parameters are left as they were
        for a, b in zip(params.weights + params.biases, before):
            assert a.tobytes() == b.tobytes()
        assert out.feature_scale is params.feature_scale and state.step == steps

    def test_step_returns_views_of_one_flat_vector(self):
        params = init_mlp([3, 4, 2], seed=1)
        state = adam_init(params, learning_rate=0.1)
        grads = Gradients(
            weights=[np.ones_like(w) for w in params.weights],
            biases=[np.ones_like(b) for b in params.biases],
        )
        out = adam_step(state, params, grads)
        base = out.weights[0].base
        assert base is not None and base.shape == (3 * 4 + 4 * 2 + 4 + 2,)
        assert all(a.base is base for a in out.weights + out.biases)
        assert state.m.shape == state.v.shape == base.shape

    def test_one_step_matches_scalar_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 0.5
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        expected = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        params = _scalar_params(1.0)
        state = adam_init(params, learning_rate=lr)
        out = adam_step(state, params, _scalar_grads(g))
        assert out.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9, abs=1e-7)

    def test_two_steps_match_scalar_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [0.5, 0.25]
        w, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = _scalar_params(1.0)
        state = adam_init(params, learning_rate=lr)
        params = adam_step(state, params, _scalar_grads(grads[0]))
        params = adam_step(state, params, _scalar_grads(grads[1]))
        assert params.weights[0][0, 0] == pytest.approx(w, abs=1e-15)
        assert state.step == 2

    def test_zero_gradient_fresh_state_is_identity(self):
        params = init_mlp([2, 4, 4, 4, 4, 2], seed=9)
        state = adam_init(params, learning_rate=0.1)
        zero = Gradients(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        out = adam_step(state, params, zero)
        for a, b in zip(out.weights, params.weights):
            np.testing.assert_array_equal(a, b)

    def test_bias_updates_too(self):
        params = _scalar_params(0.0)
        state = adam_init(params, learning_rate=0.5)
        out = adam_step(state, params, _scalar_grads(0.0, g_b=1.0))
        assert out.biases[0][0] == pytest.approx(-0.5, abs=1e-6)


def small_scenario(**kw):
    base = dict(
        geometry=RisGeometry(3, 3),
        sources=SourceSpec(count=1, min_separation_deg=0.0),
        num_samples=8,
        seed=101,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestDataset:
    def test_shapes_and_determinism(self):
        scenario = small_scenario()
        a = generate_dataset(scenario, TrainSettings(dataset_size=5, seed=7))
        b = generate_dataset(scenario, TrainSettings(dataset_size=5, seed=7))
        assert a.inputs.shape == (5, 16) and a.targets.shape == (5, 16)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_seed_changes_data(self):
        scenario = small_scenario()
        a = generate_dataset(scenario, TrainSettings(dataset_size=4, seed=7))
        b = generate_dataset(scenario, TrainSettings(dataset_size=4, seed=8))
        assert not np.allclose(a.inputs, b.inputs)

    def test_disabled_impairments_make_pairs_identical(self):
        scenario = small_scenario(impairments=ImpairmentSpec(enabled=False))
        data = generate_dataset(scenario, TrainSettings(dataset_size=4, seed=3))
        np.testing.assert_array_equal(data.inputs, data.targets)

    def test_impairments_separate_pairs(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=4, seed=3))
        assert not np.allclose(data.inputs, data.targets)

    def test_examples_differ_from_each_other(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=3, seed=1))
        assert not np.allclose(data.inputs[0], data.inputs[1])


class TestTraining:
    def test_loss_drops_and_reconstruction_beats_identity(self):
        scenario = ScenarioConfig(
            geometry=RisGeometry(4, 4),
            sources=SourceSpec(count=1, min_separation_deg=0.0),
            num_samples=16,
            seed=55,
        )
        data = generate_dataset(scenario, TrainSettings(dataset_size=256, seed=9))
        settings = TrainSettings(
            dataset_size=256,
            epochs=150,
            batch_size=64,
            learning_rate=1e-3,
            hidden_widths=(32, 32, 32, 32),
            seed=21,
        )
        params, history = train(settings, data)
        assert len(history) == 150
        assert history[-1] < 0.5 * history[0]
        raw = unstack_complex(data.inputs)
        ideal = unstack_complex(data.targets)
        fixed = reconstruct(params, raw)
        err_fixed = np.mean(np.abs(fixed - ideal) ** 2)
        err_raw = np.mean(np.abs(raw - ideal) ** 2)
        assert err_fixed < err_raw

    def test_history_is_deterministic(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=32, seed=2))
        settings = TrainSettings(
            epochs=3, batch_size=16, hidden_widths=(8, 8, 8, 8), seed=5
        )
        _, h1 = train(settings, data)
        _, h2 = train(settings, data)
        assert h1 == h2

    def test_resume_continues_from_given_params(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=32, seed=2))
        settings = TrainSettings(
            epochs=2, batch_size=16, hidden_widths=(8, 8, 8, 8), seed=5
        )
        params, _ = train(settings, data)
        resumed, history = train(settings, data, initial=params)
        assert len(history) == 2
        np.testing.assert_array_equal(resumed.feature_scale, params.feature_scale)

    def test_depth_is_enforced(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=8, seed=2))
        with pytest.raises(ConfigError):
            train(TrainSettings(epochs=1, hidden_widths=(8, 8)), data)

    def test_bad_batch_rejected(self):
        data = generate_dataset(small_scenario(), TrainSettings(dataset_size=8, seed=2))
        with pytest.raises(ConfigError):
            train(TrainSettings(epochs=1, batch_size=0, hidden_widths=(8, 8, 8, 8)), data)

    def test_loss_history_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_history([0.5, 0.25], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.25"


class TestReconstruct:
    def test_wrong_width_rejected(self):
        params = init_mlp([8, 4, 4, 4, 4, 8], seed=0)
        with pytest.raises(ValueError):
            reconstruct(params, np.ones(3, dtype=complex))

    def test_scale_round_trip_on_identity_network(self):
        # hand-built identity stack: ReLU(x) - ReLU(-x) = x for the hidden
        # layers would take width doubling, so use positive inputs instead
        dim = 4
        eye = np.eye(dim)
        params = MlpParams(
            weights=[eye.copy() for _ in range(5)],
            biases=[np.zeros(dim) for _ in range(5)],
            feature_scale=np.array([2.0, 3.0, 4.0, 5.0]),
        )
        z = np.array([1 + 2j, 3 + 1j])
        out = reconstruct(params, z)
        np.testing.assert_allclose(out, z, atol=1e-12)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        params = init_mlp([6, 9, 8, 7, 9, 6], seed=42, feature_scale=np.linspace(0.5, 2.0, 6))
        meta = {"scenario": "abc123", "epochs": 10, "final_loss": 0.125}
        path = tmp_path / "model.bin"
        save_model(params, path, meta)
        loaded, got_meta = load_model(path)
        assert got_meta == meta
        assert len(loaded.weights) == 5
        for a, b in zip(loaded.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, params.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.feature_scale, params.feature_scale)

    def test_empty_metadata(self, tmp_path):
        params = init_mlp([2, 3, 3, 3, 3, 2], seed=1)
        path = tmp_path / "model.bin"
        save_model(params, path)
        _, meta = load_model(path)
        assert meta == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="model file"):
            load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        params = init_mlp([2, 3, 3, 3, 3, 2], seed=1)
        path = tmp_path / "model.bin"
        save_model(params, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        params = init_mlp([4, 8, 8, 8, 8, 4], seed=7, feature_scale=np.full(4, 1.5))
        path = tmp_path / "model.bin"
        save_model(params, path)
        loaded, _ = load_model(path)
        z = np.array([1 + 1j, 2 - 1j], dtype=complex)
        np.testing.assert_array_equal(reconstruct(params, z), reconstruct(loaded, z))


GOLDEN_MODEL = (Path(__file__).parent / "golden" / "model.bin").read_bytes()


class TestCorruptModelFiles:
    @pytest.mark.parametrize("length", [0, 10, 40, len(GOLDEN_MODEL) // 2, len(GOLDEN_MODEL) - 1])
    def test_truncated_file_names_the_file(self, tmp_path, length):
        path = tmp_path / "cut.bin"
        path.write_bytes(GOLDEN_MODEL[:length])
        with pytest.raises(ConfigError, match="cut.bin"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(GOLDEN_MODEL + b"\0")
        with pytest.raises(ConfigError, match="long.bin"):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="absent.bin"):
            load_model(tmp_path / "absent.bin")

    def test_layer_shapes_must_chain(self, tmp_path):
        params = init_mlp([2, 3, 3, 3, 3, 2], seed=1)
        path = tmp_path / "model.bin"
        save_model(params, path)
        blob = bytearray(path.read_bytes())
        blob[12 + 8 + 4] = 4  # second layer's input width 3 -> 4
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="chain"):
            load_model(path)

    # every example rewrites the same file, so sharing tmp_path is safe
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        length=st.integers(0, len(GOLDEN_MODEL)),
        flips=st.lists(
            st.tuples(st.integers(0, len(GOLDEN_MODEL) - 1), st.integers(1, 255)), max_size=4
        ),
    )
    def test_damaged_golden_model_loads_or_raises_config_error(self, tmp_path, length, flips):
        blob = bytearray(GOLDEN_MODEL)
        for offset, mask in flips:
            blob[offset] ^= mask
        path = tmp_path / "damaged.bin"
        path.write_bytes(bytes(blob[:length]))
        try:
            params, meta = load_model(path)
        except ConfigError as err:
            assert "damaged.bin" in str(err)
            return
        sizes = params.layer_sizes
        assert params.feature_scale.size == sizes[0]
        assert [b.size for b in params.biases] == sizes[1:]
        assert isinstance(meta, dict)
