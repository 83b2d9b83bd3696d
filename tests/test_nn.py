import numpy as np
import pytest

from atmarl.nn import (
    DenseLayer,
    GruCell,
    OptimizerState,
    adam_step,
    dense_backward,
    dense_forward,
    gru_forward,
    gru_sequence_backward,
    gru_sequence_forward,
    log_softmax,
    softmax,
    softmax_sample,
)

FD_H = 1e-5


def finite_difference(fn, arr, h=FD_H):
    """Central-difference gradient of scalar fn with respect to arr, in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        plus = fn()
        arr[idx] = orig - h
        minus = fn()
        arr[idx] = orig
        grad[idx] = (plus - minus) / (2 * h)
        it.iternext()
    return grad


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


# ---------------------------------------------------------------------------
# dense layers


def test_dense_identity_passthrough():
    layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
    x = np.array([0.3, -0.7, 2.0])
    out, _ = dense_forward(layer, x)
    np.testing.assert_allclose(out, x)


def test_dense_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(0)
    layer = DenseLayer.create(rng, 3, 4)
    out, cache = dense_forward(layer, rng.normal(size=3))
    grads, dx = dense_backward(layer, cache, np.zeros_like(out))
    assert not grads["W"].any()
    assert not grads["b"].any()
    assert not dx.any()


def test_dense_shape_mismatch_raises():
    layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
    with pytest.raises(ValueError):
        dense_forward(layer, np.zeros(5))


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("trial", range(4))
def test_dense_gradients_match_finite_differences(activation, trial):
    rng = np.random.default_rng(100 + trial)
    layer = DenseLayer.create(rng, 3, 4, activation)
    layer.bias += 0.3
    x = rng.normal(size=3)
    target = rng.normal(size=4)

    def loss():
        out, _ = dense_forward(layer, x)
        return float(((out - target) ** 2).sum())

    out, cache = dense_forward(layer, x)
    grads, dx = dense_backward(layer, cache, 2.0 * (out - target))
    assert rel_error(grads["W"], finite_difference(loss, layer.weights)) < 1e-4
    assert rel_error(grads["b"], finite_difference(loss, layer.bias)) < 1e-4
    assert rel_error(dx, finite_difference(loss, x)) < 1e-4


def _copy_reference(layer, x, dout):
    """One tanh copy run alone with the 2-D formulas: (out, dW, db, dx)."""
    out = np.tanh(layer.weights @ x + layer.bias)
    dpre = dout * (1.0 - out * out)
    return out, np.outer(dpre, x), dpre, layer.weights.T @ dpre


@pytest.mark.parametrize("shared_input", [False, True])
def test_stacked_dense_equals_copies_bit_for_bit(shared_input):
    # the sums must run in the same order as each copy's matrix-vector
    # product, so that stacking keeps checkpoints and traces byte-identical
    rng = np.random.default_rng(11)
    copies = [DenseLayer.create(rng, 48, 16) for _ in range(6)]
    for layer in copies:
        layer.bias += rng.normal(size=16)
    stacked = DenseLayer.stack(copies)
    x = rng.normal(size=48) if shared_input else rng.normal(size=(6, 48))
    dout = rng.normal(size=(6, 16))

    out, cache = dense_forward(stacked, x)
    grads, dx = dense_backward(stacked, cache, dout)
    for i, layer in enumerate(copies):
        ref_out, ref_dw, ref_db, ref_dx = _copy_reference(layer, x if shared_input else x[i], dout[i])
        assert np.array_equal(out[i], ref_out)
        assert np.array_equal(grads["W"][i], ref_dw)
        assert np.array_equal(grads["b"][i], ref_db)
        assert np.array_equal(dx[i], ref_dx)


def test_stacked_dense_shape_mismatch_raises():
    rng = np.random.default_rng(12)
    stacked = DenseLayer.stack([DenseLayer.create(rng, 3, 4) for _ in range(2)])
    with pytest.raises(ValueError):
        dense_forward(stacked, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        dense_forward(stacked, np.zeros(5))


# ---------------------------------------------------------------------------
# GRU


def test_gru_zero_parameters_halve_hidden():
    cell = GruCell(
        Wz=np.zeros((3, 5)),
        Wr=np.zeros((3, 5)),
        Wn=np.zeros((3, 5)),
        bz=np.zeros(3),
        br=np.zeros(3),
        bn=np.zeros(3),
    )
    h = np.array([0.4, -0.8, 0.2])
    h_new, _ = gru_forward(cell, np.ones(2), h)
    # z = r = sigmoid(0) = 1/2, candidate = tanh(0) = 0, so h' = h/2
    np.testing.assert_allclose(h_new, h / 2.0)
    h_zero, _ = gru_forward(cell, np.ones(2), np.zeros(3))
    np.testing.assert_allclose(h_zero, np.zeros(3))


def test_gru_hidden_stays_in_open_unit_interval():
    rng = np.random.default_rng(3)
    cell = GruCell.create(rng, 4, 6)
    h = np.zeros(6)
    for _ in range(50):
        h, _ = gru_forward(cell, rng.normal(size=4) * 3, h)
        assert (np.abs(h) < 1.0).all()


def test_gru_length_one_bptt_equals_single_step():
    rng = np.random.default_rng(11)
    cell = GruCell.create(rng, 3, 4)
    x = rng.normal(size=3)
    h0 = rng.normal(size=4) * 0.1
    hs, caches = gru_sequence_forward(cell, [x], h0)
    dh = rng.normal(size=4)
    seq_grads, dxs, dh0 = gru_sequence_backward(cell, caches, [dh])
    from atmarl.nn import gru_backward

    step_grads, dx_single, dh_single = gru_backward(cell, caches[0], dh)
    for key in seq_grads:
        np.testing.assert_allclose(seq_grads[key], step_grads[key])
    np.testing.assert_allclose(dxs[0], dx_single)
    np.testing.assert_allclose(dh0, dh_single)


@pytest.mark.parametrize("trial", range(3))
def test_gru_bptt_matches_finite_differences(trial):
    rng = np.random.default_rng(200 + trial)
    cell = GruCell.create(rng, 3, 4)
    xs = [rng.normal(size=3) for _ in range(5)]
    h0 = np.zeros(4)
    targets = [rng.normal(size=4) for _ in range(5)]

    def loss():
        hs, _ = gru_sequence_forward(cell, xs, h0)
        return float(sum(((h - t) ** 2).sum() for h, t in zip(hs, targets)))

    hs, caches = gru_sequence_forward(cell, xs, h0)
    dhs = [2.0 * (h - t) for h, t in zip(hs, targets)]
    grads, _, _ = gru_sequence_backward(cell, caches, dhs)
    for name, param in cell.params().items():
        fd = finite_difference(loss, param)
        assert rel_error(grads[name], fd) < 1e-4, f"{name} gradient mismatch"


# ---------------------------------------------------------------------------
# softmax and Adam


def test_softmax_uniform_on_equal_logits():
    probs = softmax(np.zeros(4))
    np.testing.assert_allclose(probs, np.full(4, 0.25))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_softmax_saturation():
    logits = np.array([0.0, 1e6, 0.0])
    idx, logp = softmax_sample(logits, np.random.default_rng(0))
    assert idx == 1
    assert logp == pytest.approx(0.0, abs=1e-9)


def test_softmax_sample_reproducible():
    logits = np.array([0.1, 0.4, -0.2, 0.0])
    rng = np.random.default_rng(7)
    draws_a = [softmax_sample(logits, rng)[0] for _ in range(5)]
    rng = np.random.default_rng(7)
    draws_b = [softmax_sample(logits, rng)[0] for _ in range(5)]
    assert draws_a == draws_b


def test_softmax_log_prob_is_log_of_probability():
    logits = np.array([0.3, -1.2, 0.8])
    probs = softmax(logits)
    for _ in range(10):
        idx, logp = softmax_sample(logits, np.random.default_rng(_))
        assert logp == pytest.approx(np.log(probs[idx]))


def test_softmax_rejects_nan():
    with pytest.raises(FloatingPointError):
        softmax_sample(np.array([np.nan, 0.0]), np.random.default_rng(0))


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(3, 3))}
    before = params["w"].copy()
    state = OptimizerState(lr=0.01)
    adam_step(params, {"w": np.zeros((3, 3))}, state)
    np.testing.assert_allclose(params["w"], before)


def test_adam_descends_quadratic():
    params = {"w": np.array([5.0])}
    state = OptimizerState(lr=0.1)
    for _ in range(200):
        adam_step(params, {"w": 2.0 * params["w"]}, state)
    assert abs(params["w"][0]) < 1.0


def test_adam_rejects_unknown_key():
    with pytest.raises(KeyError):
        adam_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, OptimizerState())
