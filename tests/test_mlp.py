import json

import numpy as np
import pytest

from deepsolve.dataio import DataError
from deepsolve.mlp import (
    ADAM_EPS,
    MlpError,
    StaleTraceError,
    adam_step,
    backward,
    forward,
    init_adam,
    init_model,
    load_model,
    save_model,
)


def test_layer_sizes_case30_shape():
    model = init_model([60, 64, 32, 11], seed=0)
    assert model.layer_sizes == [60, 64, 32, 11]
    assert model.weights[0].shape == (60, 64)
    assert model.weights[-1].shape == (32, 11)
    assert all(np.all(b == 0) for b in model.biases)


def test_layer_sizes_case118_shape():
    model = init_model([236, 256, 128, 107], seed=0)
    assert model.layer_sizes == [236, 256, 128, 107]


def test_init_deterministic():
    a = init_model([8, 6, 3], seed=42)
    b = init_model([8, 6, 3], seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_model([8, 6, 3], seed=43)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_zero_parameters_gives_half():
    model = init_model([4, 3, 2], seed=0)
    for w in model.weights:
        w[:] = 0.0
    out, _ = forward(model, np.zeros((5, 4)))
    assert np.allclose(out, 0.5)


def test_forward_single_weight_sigmoid():
    model = init_model([1, 1], seed=0)
    model.weights[0][:] = 1.0
    model.biases[0][:] = 0.0
    out, _ = forward(model, np.array([[2.0]]))
    expected = 1.0 / (1.0 + np.exp(-2.0))  # ~0.880797
    assert out[0, 0] == pytest.approx(expected, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.880797, abs=1e-6)


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    model = init_model([7, 16, 5], seed=1)
    out, _ = forward(model, rng.normal(scale=50.0, size=(64, 7)))
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


def test_input_dimension_mismatch():
    model = init_model([4, 2], seed=0)
    with pytest.raises(MlpError, match="dimension"):
        forward(model, np.zeros((1, 5)))


def test_zero_output_gradient_gives_zero_parameter_gradients():
    model = init_model([5, 8, 3], seed=2)
    x = np.random.default_rng(3).normal(size=(6, 5))
    out, trace = forward(model, x)
    grads = backward(model, trace, np.zeros_like(out))
    for dw, db in grads:
        assert np.all(dw == 0)
        assert np.all(db == 0)


def _loss_and_grad(model, x, target):
    out, trace = forward(model, x)
    loss = 0.5 * np.sum((out - target) ** 2)
    grads = backward(model, trace, out - target)
    return loss, grads


def test_backward_matches_central_differences():
    rng = np.random.default_rng(7)
    for trial in range(20):
        sizes = [rng.integers(2, 6), rng.integers(2, 8), rng.integers(1, 5)]
        model = init_model(sizes, seed=100 + trial)
        # jitter inputs away from exact rectifier kinks
        x = rng.normal(size=(4, sizes[0])) + 0.01 * rng.random((4, sizes[0]))
        target = rng.uniform(0.2, 0.8, size=(4, sizes[-1]))
        _, grads = _loss_and_grad(model, x, target)
        h = 1e-6
        for layer in range(len(model.weights)):
            w = model.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + h
                lp, _ = _loss_and_grad(model, x, target)
                w[idx] = orig - h
                lm, _ = _loss_and_grad(model, x, target)
                w[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[layer][0][idx]
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_backward_linear_region_equals_matrix_chain():
    # hidden layers only: positive pre-activations make the net affine,
    # and a linear readout bypasses the sigmoid nonlinearity check
    model = init_model([2, 2, 2], seed=0)
    model.weights[0][:] = np.array([[0.5, 0.2], [0.1, 0.4]])
    model.biases[0][:] = np.array([1.0, 1.0])  # keeps pre-activations positive
    model.weights[1][:] = np.array([[0.3, 0.7], [0.6, 0.2]])
    model.biases[1][:] = 0.0
    x = np.array([[0.2, 0.3]])
    out, trace = forward(model, x)
    dl_ds = np.array([[1.0, -1.0]])
    grads = backward(model, trace, dl_ds)
    sig = out * (1 - out)
    delta2 = dl_ds * sig
    h1 = trace.activations[0]
    assert np.allclose(grads[1][0], h1.T @ delta2, atol=1e-14)
    delta1 = delta2 @ model.weights[1].T  # all pre-activations positive
    assert np.allclose(grads[0][0], x.T @ delta1, atol=1e-14)


def test_stale_trace_rejected():
    model = init_model([3, 2], seed=0)
    out, trace = forward(model, np.zeros((1, 3)))
    state = init_adam(model, 1e-3)
    adam_step(model, state, backward(model, trace, np.ones_like(out)))
    with pytest.raises(StaleTraceError):
        backward(model, trace, np.ones_like(out))


def test_adam_zero_gradient_keeps_parameters():
    model = init_model([3, 2], seed=1)
    before = [w.copy() for w in model.weights]
    state = init_adam(model, 1e-3)
    grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
    adam_step(model, state, grads)
    for w, w0 in zip(model.weights, before):
        assert np.array_equal(w, w0)


def test_adam_constant_gradient_step_approaches_learning_rate():
    model = init_model([1, 1], seed=0)
    model.weights[0][:] = 0.0
    state = init_adam(model, learning_rate=1e-3)
    g = 0.37
    prev = 0.0
    for _ in range(500):
        prev = model.weights[0][0, 0]
        adam_step(model, state, [(np.array([[g]]), np.array([0.0]))])
    step = prev - model.weights[0][0, 0]
    assert step == pytest.approx(1e-3, rel=1e-3)
    assert model.weights[0][0, 0] < 0  # moved opposite the gradient sign


def test_adam_first_step_is_sign_scaled():
    """Bias correction makes the first step lr * g / (|g| + eps) at any
    betas, for a weight and a bias alike."""
    model = init_model([1, 1], seed=0)
    model.weights[0][:] = 1.0
    state = init_adam(model, learning_rate=0.1)
    g, gb = -2.0, 0.5
    adam_step(model, state, [(np.array([[g]]), np.array([gb]))])
    expected = 1.0 - 0.1 * g / (abs(g) + ADAM_EPS)
    assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert model.biases[0][0] == pytest.approx(-0.1 * gb / (abs(gb) + ADAM_EPS), rel=1e-12)


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = init_model([6, 5, 4], seed=9)
    x = np.random.default_rng(1).normal(size=(3, 6))
    out_before, _ = forward(model, x)
    path = tmp_path / "model.ckpt"
    save_model(model, path, meta={"case_id": "case30", "note": "test"})
    loaded, meta = load_model(path)
    assert meta["case_id"] == "case30"
    out_after, _ = forward(loaded, x)
    assert np.array_equal(out_before, out_after)
    for w, lw in zip(model.weights, loaded.weights):
        assert np.array_equal(w, lw)


def _drop_last_line(lines):
    return lines[:-1]


def _extra_weight(lines):
    return [lines[0], lines[1] + ",0.5", *lines[2:]]


def _duplicate_last_record(lines):
    return [*lines, lines[-1]]


def _junk_last_record(lines):
    return [*lines, "0.5,0.5"]


def _nan_bias(lines):
    return [*lines[:2], "nan" + lines[2][lines[2].index(",") :], *lines[3:]]


def _drop_header_key(lines, key):
    header = json.loads(lines[0])
    del header[key]
    return [json.dumps(header), *lines[1:]]


def _no_layer_sizes(lines):
    return _drop_header_key(lines, "layer_sizes")


def _no_hidden_activation(lines):
    return _drop_header_key(lines, "hidden_activation")


def _no_output_activation(lines):
    return _drop_header_key(lines, "output_activation")


def _cut_header(lines):
    return [lines[0][: len(lines[0]) // 2], *lines[1:]]


def _tanh_hidden_activation(lines):
    header = json.loads(lines[0])
    header["hidden_activation"] = "tanh"
    return [json.dumps(header), *lines[1:]]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_last_line, "truncated"),
        (_duplicate_last_record, "overlong checkpoint, 4 parameter records expected, found 5"),
        (_junk_last_record, "overlong checkpoint, 4 parameter records expected, found 5"),
        (_extra_weight, "expected 30 values, found 31"),
        (_nan_bias, "non-finite"),
        (_no_layer_sizes, "no 'layer_sizes'"),
        (_no_hidden_activation, "no 'hidden_activation'"),
        (_no_output_activation, "no 'output_activation'"),
        (_tanh_hidden_activation, "'hidden_activation' is 'tanh', only 'relu'"),
        (_cut_header, "1: checkpoint header is not valid JSON"),
    ],
)
def test_corrupt_checkpoint_raises_mlp_error(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_model(init_model([6, 5, 4], seed=9), path)
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)
