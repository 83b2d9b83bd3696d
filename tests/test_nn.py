import copy

import numpy as np
import pytest

from atmarl.nn import (
    DenseLayer,
    GruBackward,
    GruCell,
    SoftmaxSampler,
    OptimizerState,
    adam_step,
    dense_backward,
    dense_forward,
    gru_caches,
    gru_forward,
    gru_sequence_backward,
    log_softmax,
    softmax,
    stack_caches,
    stack_forward,
)
from oracles import (
    assert_reordered_sum,
    dense_step,
    dense_step_backward,
    gru_sequence_forward,
    per_key_adam,
    per_key_scratch_adam,
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


def forward(layer, x):
    """``dense_forward`` into a fresh buffer; returns (output, the (x, out) cache)."""
    out = np.empty(np.broadcast_shapes(layer.weights.shape[:-2], x.shape[:-1]) + layer.weights.shape[-2:-1])
    dense_forward(layer, x, out)
    return out, (x, out)


def one_step_backward(layer, cache, dout, grads):
    """``dense_backward`` over a stack of one step; returns that step's dx."""
    return dense_backward(layer, tuple(part[None] for part in cache), dout[None], grads)[0]


# ---------------------------------------------------------------------------
# dense layers


def test_dense_identity_passthrough():
    layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
    x = np.array([0.3, -0.7, 2.0])
    out, _ = forward(layer, x)
    np.testing.assert_allclose(out, x)


def test_dense_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(0)
    layer = DenseLayer.create(rng, 3, 4)
    out, cache = forward(layer, rng.normal(size=3))
    grads = zero_grads(layer)
    dx = one_step_backward(layer, cache, np.zeros_like(out), grads)
    assert not grads["W"].any()
    assert not grads["b"].any()
    assert not dx.any()


def test_identity_backward_passes_the_upstream_gradient_through():
    # the pre-activation grad of an identity layer is dout itself: one step's
    # bias grad has dout's bits, its weight grad is dout's outer product with
    # x and dx is W^T dout, each bit for bit
    rng = np.random.default_rng(14)
    layer = DenseLayer.create(rng, 3, 4, "identity")
    x = rng.normal(size=3)
    _, cache = forward(layer, x)
    dout = np.array([1e300, -3e-7, 0.75, -2.5])
    grads = zero_grads(layer)
    dx = one_step_backward(layer, cache, dout, grads)
    assert grads["b"].tobytes() == dout.tobytes()
    assert grads["W"].tobytes() == np.outer(dout, x).tobytes()
    assert dx.tobytes() == (layer.weights.T @ dout).tobytes()


def test_dense_shape_mismatch_raises():
    layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
    with pytest.raises(ValueError):
        forward(layer, np.zeros(5))


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("trial", range(4))
def test_dense_gradients_match_finite_differences(activation, trial):
    rng = np.random.default_rng(100 + trial)
    layer = DenseLayer.create(rng, 3, 4, activation)
    layer.bias += 0.3
    x = rng.normal(size=3)
    target = rng.normal(size=4)

    def loss():
        out, _ = forward(layer, x)
        return float(((out - target) ** 2).sum())

    out, cache = forward(layer, x)
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

    out, cache = forward(stacked, x)
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
    # the forward into step rows against fresh arrays per step, bit for bit;
    # one backward over those rows against one step at a time: dx bit for
    # bit, W and b, which sum the steps in one matmul or sum, within the
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
    (rows,) = stack_caches([layer], xs)
    for t in range(steps):
        stack_forward([layer], [rows], t)
    per_step = [dense_step(layer, x) for x in xs]
    for t, (_, out) in enumerate(per_step):
        assert rows[1][t].tobytes() == out.tobytes(), t
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
    dx = dense_backward(layer, rows, douts, grads)
    for key in ("W", "b"):
        assert_reordered_sum(grads[key], folded[key], magnitude[key], steps, key)
    assert dx.tobytes() == np.stack(dxs).tobytes()


def test_dense_backward_without_step_axis_raises():
    rng = np.random.default_rng(13)
    stacked = DenseLayer.stack([DenseLayer.create(rng, 3, 4) for _ in range(2)])
    out, cache = forward(stacked, rng.normal(size=(2, 3)))
    with pytest.raises(ValueError):
        dense_backward(stacked, cache, np.ones_like(out), zero_grads(stacked))


def test_stacked_dense_shape_mismatch_raises():
    rng = np.random.default_rng(12)
    stacked = DenseLayer.stack([DenseLayer.create(rng, 3, 4) for _ in range(2)])
    with pytest.raises(ValueError):
        forward(stacked, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        forward(stacked, np.zeros(5))


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
    hs, _ = gru_sequence_forward(cell, [np.ones(2)], h)
    # z = r = sigmoid(0) = 1/2, candidate = tanh(0) = 0, so h' = h/2
    np.testing.assert_allclose(hs[0], h / 2.0)
    hs, _ = gru_sequence_forward(cell, [np.ones(2)], np.zeros(3))
    np.testing.assert_allclose(hs[0], np.zeros(3))


def test_gru_hidden_stays_in_open_unit_interval():
    rng = np.random.default_rng(3)
    cell = GruCell.create(rng, 4, 6)
    hs, _ = gru_sequence_forward(cell, rng.normal(size=(50, 4)) * 3, np.zeros(6))
    assert (np.abs(hs) < 1.0).all()


def test_gru_length_one_bptt_equals_single_step():
    # one step leaves no sum to reorder: every gradient has the oracle's bits
    rng = np.random.default_rng(11)
    cell = GruCell.create(rng, 3, 4)
    x = rng.normal(size=3)
    h0 = rng.normal(size=4) * 0.1
    _, caches = gru_sequence_forward(cell, [x], h0)
    dh = rng.normal(size=4)
    seq_grads = cell.zeros_like()
    dxs, dh0 = gru_sequence_backward(GruBackward(cell, caches), 1, [dh], seq_grads)
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
    gru_sequence_backward(GruBackward(cell, caches), len(xs), dhs, grads)
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
    dxs, dh0 = gru_sequence_backward(GruBackward(cell, caches), steps, dhs, grads)
    ref_grads, ref_abs, ref_dxs, ref_dh0 = per_step_gru_sequence_backward(cell, ref_caches, dhs)
    for key, grad in grads.params().items():
        assert_reordered_sum(grad, ref_grads[key], ref_abs[key], steps, key)
    assert dxs.tobytes() == np.stack(ref_dxs).tobytes()
    assert dh0.tobytes() == ref_dh0.tobytes()


@pytest.mark.parametrize("steps", [1, 12, 40])
def test_prebuilt_gru_backward_equals_per_step_oracle(steps):
    # one GruBackward built on 40-row buffers and run twice on their first
    # `steps` rows: input grads and dh0 bit for bit against the oracle both
    # times, each parameter grad within the bound of a reordered sum
    rng = np.random.default_rng(320 + steps)
    cell = GruCell.create(rng, 64, 64)
    for bias in (cell.bz, cell.br, cell.bn):
        bias += rng.normal(size=64) * 0.1
    xs, h = rng.normal(size=(steps, 64)), rng.normal(size=64) * 0.1
    a, zr, a_n, n = gru_caches(cell, 40)
    a[0, 64:] = h
    ref_caches = []
    for t, x in enumerate(xs):
        a[t, :64] = x
        gru_forward(cell, a[t], zr[t], a_n[t], n[t], a[t + 1, 64:])
        h, cache = unfused_gru_forward(cell, x, h)
        ref_caches.append(cache)
    dhs = rng.normal(size=(steps, 64))
    ref_grads, ref_abs, ref_dxs, ref_dh0 = per_step_gru_sequence_backward(cell, ref_caches, dhs)
    program = GruBackward(cell, (a, zr, a_n, n))
    for _ in range(2):
        grads = cell.zeros_like()
        dxs, dh0 = gru_sequence_backward(program, steps, dhs, grads)
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
    before, _ = gru_sequence_forward(cell, [x], h)
    cell.params()["Wr"][...] += 0.5
    after, _ = gru_sequence_forward(cell, [x], h)
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
    assert SoftmaxSampler([logits]).sample(0, np.random.default_rng(0)) == 1


def test_softmax_sample_reproducible():
    logits = np.array([0.1, 0.4, -0.2, 0.0])
    rng = np.random.default_rng(7)
    draws_a = [int(SoftmaxSampler([logits]).sample(0, rng)) for _ in range(5)]
    rng = np.random.default_rng(7)
    draws_b = [int(SoftmaxSampler([logits]).sample(0, rng)) for _ in range(5)]
    assert draws_a == draws_b


def test_softmax_sample_frequencies_follow_probabilities():
    # 4000 rows of the same logits, each row one draw: every category's share
    # lies within four standard errors of its probability
    logits = np.array([0.3, -1.2, 0.8, 0.0])
    probs = softmax(logits)
    idx = SoftmaxSampler([np.tile(logits, (4000, 1))]).sample(0, np.random.default_rng(5))
    share = np.bincount(idx, minlength=len(logits)) / len(idx)
    assert np.all(np.abs(share - probs) < 4 * np.sqrt(probs * (1 - probs) / len(idx)))


def test_softmax_rejects_nan():
    with pytest.raises(FloatingPointError):
        SoftmaxSampler([np.array([np.nan, 0.0])]).sample(0, np.random.default_rng(0))


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
        idx = SoftmaxSampler([logits]).sample(0, rng)
        ref_idx = two_pass_softmax_sample(logits, ref_rng)
        assert np.asarray(idx).tobytes() == np.asarray(ref_idx).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampler_over_tape_rows_equals_two_pass_oracle():
    # one sampler over the step rows of a [steps, heads, levels] buffer, as a
    # tape holds it, rows rewritten between calls: each draw bit for bit and
    # the generator left in the oracle's state, each greedy pick the first maximum
    rng = np.random.default_rng(33)
    rows = np.empty((5, 6, 8))
    sampler = SoftmaxSampler(list(rows))
    cases = [case for case in _sampling_cases() if case.shape == (6, 8)]
    draw, ref = np.random.default_rng(8), np.random.default_rng(8)
    for k in range(20):
        for t in range(len(rows)):
            rows[t] = cases[(k + t) % len(cases)] if k % 2 else rng.normal(size=(6, 8)) * 4.0
            idx = sampler.sample(t, draw)
            assert idx.tobytes() == two_pass_softmax_sample(rows[t], ref).tobytes(), (k, t)
            assert draw.bit_generator.state == ref.bit_generator.state
            assert sampler.greedy(t).tolist() == rows[t].argmax(axis=1).tolist()
    rows[2, 1, 3] = np.nan
    with pytest.raises(FloatingPointError):
        sampler.greedy(2)
    with pytest.raises(FloatingPointError):
        sampler.sample(2, draw)
    assert draw.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_sample_rejects_any_non_finite_logit(bad):
    logits = np.zeros((6, 8))
    logits[4, 2] = bad
    with pytest.raises(FloatingPointError):
        SoftmaxSampler([logits]).sample(0, np.random.default_rng(0))


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


def test_adam_shared_scratch_equals_per_key_scratch_oracle():
    # each key is larger than the ones before it, so the shared pair grows
    # three times; a key that appears late grows it once more
    rng = np.random.default_rng(43)
    shapes = {"s": (1,), "b": (6, 32), "w": (6, 32, 8), "v": (64, 195)}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    params["late"] = rng.normal(size=(90, 200))
    ref_params = {k: p.copy() for k, p in params.items()}
    state, ref_m, ref_v, ref_scratch = OptimizerState(lr=1e-3), {}, {}, {}
    for t in range(1, 6):
        keys = list(shapes) + (["late"] if t >= 4 else [])
        grads = {k: rng.normal(size=params[k].shape) * 10.0 ** rng.integers(-6, 3) for k in keys}
        adam_step(params, grads, state)
        per_key_scratch_adam(ref_params, grads, ref_m, ref_v, ref_scratch, t, 1e-3)
        for key in keys:
            assert params[key].tobytes() == ref_params[key].tobytes(), (t, key)
            assert state.m[key].tobytes() == ref_m[key].tobytes(), (t, key)
            assert state.v[key].tobytes() == ref_v[key].tobytes(), (t, key)
        largest = max(params[k].size for k in keys)
        assert [a.size for a in state.scratch] == [largest, largest], t


def test_adam_rejects_unknown_key():
    with pytest.raises(KeyError):
        adam_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, OptimizerState(lr=1e-3))
