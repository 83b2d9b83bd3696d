import copy

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
    log_softmax,
    softmax,
    softmax_sample,
    stack_steps,
)
from oracles import (
    assert_reordered_sum,
    dense_step_backward,
    gru_sequence_forward,
    per_key_adam,
    per_step_gru_sequence_backward,
    two_pass_softmax_sample,
    unfused_gru_forward,
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


def zero_grads(part):
    return {k: np.zeros_like(v) for k, v in part.params().items()}


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def one_step_backward(layer, cache, dout, grads):
    """``dense_backward`` over a stack of one step; returns that step's dx."""
    return dense_backward(layer, stack_steps([cache]), dout[None], grads)[0]


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
    grads = zero_grads(layer)
    dx = one_step_backward(layer, cache, np.zeros_like(out), grads)
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
    grads = zero_grads(layer)
    dx = one_step_backward(layer, cache, 2.0 * (out - target), grads)
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
    grads = zero_grads(stacked)
    dx = one_step_backward(stacked, cache, dout, grads)
    for i, layer in enumerate(copies):
        ref_out, ref_dw, ref_db, ref_dx = _copy_reference(layer, x if shared_input else x[i], dout[i])
        assert np.array_equal(out[i], ref_out)
        assert np.array_equal(grads["W"][i], ref_dw)
        assert np.array_equal(grads["b"][i], ref_db)
        assert np.array_equal(dx[i], ref_dx)


@pytest.mark.parametrize(
    "copies, out_dim, shared_input",
    [(None, 5, False), (None, 1, False), (4, 6, False), (4, 6, True)],
    ids=["plain", "scalar-output", "stacked", "stacked-shared-input"],
)
@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_dense_backward_over_steps_equals_per_step_calls(copies, out_dim, shared_input, activation):
    # one call over a leading step axis against one step at a time: dx bit
    # for bit; W and b, which sum the steps in one matmul or sum, within the
    # bound of a reordered 40-term sum
    rng = np.random.default_rng(21)
    steps, in_dim = 40, 7
    if copies is None:
        layer = DenseLayer.create(rng, in_dim, out_dim, activation)
        xs = rng.normal(size=(steps, in_dim))
    else:
        layer = DenseLayer.stack([DenseLayer.create(rng, in_dim, out_dim, activation) for _ in range(copies)])
        xs = rng.normal(size=(steps, in_dim) if shared_input else (steps, copies, in_dim))
    layer.bias += rng.normal(size=layer.bias.shape)
    per_step = [dense_forward(layer, x)[1] for x in xs]
    douts = rng.normal(size=(steps, *layer.bias.shape))

    folded, magnitude = zero_grads(layer), zero_grads(layer)
    dxs = []
    for cache, dout in zip(per_step, douts):
        dw, db, dx_t = dense_step_backward(layer, cache, dout)
        dxs.append(dx_t)
        for key, term in (("W", dw), ("b", db)):
            folded[key] += term
            magnitude[key] += np.abs(term)

    grads = zero_grads(layer)
    dx = dense_backward(layer, stack_steps(per_step), douts, grads)
    for key in ("W", "b"):
        assert_reordered_sum(grads[key], folded[key], magnitude[key], steps, key)
    assert dx.tobytes() == np.stack(dxs).tobytes()


def test_dense_backward_without_step_axis_raises():
    rng = np.random.default_rng(13)
    stacked = DenseLayer.stack([DenseLayer.create(rng, 3, 4) for _ in range(2)])
    out, cache = dense_forward(stacked, rng.normal(size=(2, 3)))
    with pytest.raises(ValueError):
        dense_backward(stacked, cache, np.ones_like(out), zero_grads(stacked))


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
    # one step leaves no sum to reorder: every gradient has the oracle's bits
    rng = np.random.default_rng(11)
    cell = GruCell.create(rng, 3, 4)
    x = rng.normal(size=3)
    h0 = rng.normal(size=4) * 0.1
    _, caches = gru_sequence_forward(cell, [x], h0)
    dh = rng.normal(size=4)
    seq_grads = cell.zeros_like()
    dxs, dh0 = gru_sequence_backward(cell, caches, [dh], seq_grads)
    ref_grads, _, ref_dxs, ref_dh0 = per_step_gru_sequence_backward(cell, [unfused_gru_forward(cell, x, h0)[1]], [dh])
    for key, grad in seq_grads.params().items():
        assert grad.tobytes() == ref_grads[key].tobytes(), key
    assert dxs[0].tobytes() == ref_dxs[0].tobytes()
    assert dh0.tobytes() == ref_dh0.tobytes()


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
    grads = cell.zeros_like()
    gru_sequence_backward(cell, caches, dhs, grads)
    for name, param in cell.params().items():
        fd = finite_difference(loss, param)
        assert rel_error(grads.params()[name], fd) < 1e-4, f"{name} gradient mismatch"


@pytest.mark.parametrize("in_dim, hidden", [(64, 64), (5, 1)])
@pytest.mark.parametrize("steps", [1, 12, 40])
def test_gru_bptt_equals_per_step_oracle(in_dim, hidden, steps):
    # the fused z/r gates against each gate alone, forward and backward: the
    # hidden states, input grads and dh0 bit for bit, each parameter grad
    # (one matmul or sum over the steps) within the bound of a reordered sum
    rng = np.random.default_rng(300 + steps)
    cell = GruCell.create(rng, in_dim, hidden)
    for bias in (cell.bz, cell.br, cell.bn):
        bias += rng.normal(size=hidden) * 0.1
    xs, h = rng.normal(size=(steps, in_dim)), rng.normal(size=hidden) * 0.1
    hs, caches = gru_sequence_forward(cell, list(xs), h)
    ref_caches = []
    for x, h_new in zip(xs, hs):
        h, cache = unfused_gru_forward(cell, x, h)
        assert h_new.tobytes() == h.tobytes()
        ref_caches.append(cache)
    dhs = rng.normal(size=(steps, hidden))

    grads = cell.zeros_like()
    dxs, dh0 = gru_sequence_backward(cell, caches, dhs, grads)
    ref_grads, ref_abs, ref_dxs, ref_dh0 = per_step_gru_sequence_backward(cell, ref_caches, dhs)
    for key, grad in grads.params().items():
        assert_reordered_sum(grad, ref_grads[key], ref_abs[key], steps, key)
    assert dxs.tobytes() == np.stack(ref_dxs).tobytes()
    assert dh0.tobytes() == ref_dh0.tobytes()


def test_gru_gate_views_alias_the_fused_arrays():
    rng = np.random.default_rng(17)
    cell = GruCell.create(rng, 3, 4)
    for copied in (cell, copy.deepcopy(cell)):
        for name in ("Wz", "Wr", "bz", "br"):
            view = copied.params()[name]
            fused = copied.Wzr if name.startswith("W") else copied.bzr
            assert np.shares_memory(view, fused), name
    x, h = rng.normal(size=3), rng.normal(size=4)
    before, _ = gru_forward(cell, x, h)
    cell.params()["Wr"][...] += 0.5
    after, _ = gru_forward(cell, x, h)
    assert not np.array_equal(before, after)


# ---------------------------------------------------------------------------
# softmax and Adam


@pytest.mark.parametrize("shape", [(6, 8), (40, 6, 8), (5, 3), (4, 17)])
def test_softmax_rows_equal_one_dimensional_calls(shape):
    logits = np.random.default_rng(len(shape) * 10 + shape[-1]).normal(size=shape) * 3.0
    probs, logp = softmax(logits), log_softmax(logits)
    for index in np.ndindex(shape[:-1]):
        assert probs[index].tobytes() == softmax(logits[index]).tobytes()
        assert logp[index].tobytes() == log_softmax(logits[index]).tobytes()


def test_softmax_uniform_on_equal_logits():
    probs = softmax(np.zeros(4))
    np.testing.assert_allclose(probs, np.full(4, 0.25))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_softmax_saturation():
    logits = np.array([0.0, 1e6, 0.0])
    assert softmax_sample(logits, np.random.default_rng(0)) == 1


def test_softmax_sample_reproducible():
    logits = np.array([0.1, 0.4, -0.2, 0.0])
    rng = np.random.default_rng(7)
    draws_a = [int(softmax_sample(logits, rng)) for _ in range(5)]
    rng = np.random.default_rng(7)
    draws_b = [int(softmax_sample(logits, rng)) for _ in range(5)]
    assert draws_a == draws_b


def test_softmax_sample_frequencies_follow_probabilities():
    # 4000 rows of the same logits, each row one draw: every category's share
    # lies within four standard errors of its probability
    logits = np.array([0.3, -1.2, 0.8, 0.0])
    probs = softmax(logits)
    idx = softmax_sample(np.tile(logits, (4000, 1)), np.random.default_rng(5))
    share = np.bincount(idx, minlength=len(logits)) / len(idx)
    assert np.all(np.abs(share - probs) < 4 * np.sqrt(probs * (1 - probs) / len(idx)))


def test_softmax_rejects_nan():
    with pytest.raises(FloatingPointError):
        softmax_sample(np.array([np.nan, 0.0]), np.random.default_rng(0))


def _sampling_cases():
    rng = np.random.default_rng(31)
    yield rng.normal(size=(6, 8)) * 3.0
    yield rng.normal(size=(40, 6, 8))
    yield rng.normal(size=8)
    ties = np.zeros((6, 8))
    ties[:, [1, 3, 4, 6]] = 1.0  # four-way ties at the top
    yield ties
    yield np.zeros((3, 8))
    yield rng.normal(size=(6, 8)) * 1e300  # every probability but the top one underflows to 0
    yield np.array([[1e308, -1e307, 0.0], [-1e308, -1e308, 1e307], [1e308, 1e308, -1e307], [5e-324, 0.0, -5e-324]])
    yield rng.normal(size=(6, 8)) * 1e-12 + 7e5


@pytest.mark.parametrize("case", range(8))
def test_softmax_sample_equals_two_pass_oracle(case):
    logits = list(_sampling_cases())[case]
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = softmax_sample(logits, rng)
        ref_idx = two_pass_softmax_sample(logits, ref_rng)
        assert np.asarray(idx).tobytes() == np.asarray(ref_idx).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_sample_rejects_any_non_finite_logit(bad):
    logits = np.zeros((6, 8))
    logits[4, 2] = bad
    with pytest.raises(FloatingPointError):
        softmax_sample(logits, np.random.default_rng(0))


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


def test_adam_equals_per_key_oracle():
    # the scratch-array update runs the same operations in the same order
    rng = np.random.default_rng(41)
    shapes = {"w": (6, 32, 8), "b": (6, 32), "v": (64, 195), "s": (1,)}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    ref_params = {k: p.copy() for k, p in params.items()}
    state, ref_m, ref_v = OptimizerState(lr=1e-3), {}, {}
    for t in range(1, 8):
        grads = {k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for k, shape in shapes.items()}
        if t == 3:
            grads["w"][...] = 0.0
        adam_step(params, grads, state)
        per_key_adam(ref_params, grads, ref_m, ref_v, t, 1e-3)
        for key in shapes:
            assert params[key].tobytes() == ref_params[key].tobytes(), (t, key)
            assert state.m[key].tobytes() == ref_m[key].tobytes(), (t, key)
            assert state.v[key].tobytes() == ref_v[key].tobytes(), (t, key)


def test_adam_rejects_unknown_key():
    with pytest.raises(KeyError):
        adam_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, OptimizerState())
