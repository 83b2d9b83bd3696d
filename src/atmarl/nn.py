"""Minimal dense/GRU substrate with hand-written gradients.

Everything operates on float64 vectors; parameters live in small dataclasses
so training code can walk them generically. A dense layer may stack copies
along a leading axis, and its backward may run all steps of an episode at
once along another. Backward passes add exact analytic gradients into the
accumulators they are given and are verified against central finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")


def init_matrix(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


# ---------------------------------------------------------------------------
# dense layers


@dataclass
class DenseLayer:
    weights: np.ndarray  # [out, in], or [copies, out, in] when stacked
    bias: np.ndarray  # [out], or [copies, out]
    activation: str = "tanh"  # tanh | identity

    @classmethod
    def create(cls, rng: np.random.Generator, in_dim: int, out_dim: int, activation="tanh"):
        return cls(weights=init_matrix(rng, out_dim, in_dim), bias=np.zeros(out_dim), activation=activation)

    @classmethod
    def stack(cls, layers: list[DenseLayer]) -> DenseLayer:
        """One layer holding same-shaped layers, of one activation, as copies along a new first axis."""
        return cls(
            weights=np.stack([layer.weights for layer in layers]),
            bias=np.stack([layer.bias for layer in layers]),
            activation=layers[0].activation,
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.weights, "b": self.bias}


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(pre)
    if kind == "identity":
        return pre
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(pre: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - out * out
    if kind == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {kind!r}")


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Affine map plus activation; returns (output, cache).

    ``x`` is [in], or [copies, in] for a stacked layer, which shares an [in]
    input among its copies. np.matmul runs each copy as its own matrix-vector
    product, bit-equal to the copy alone; np.einsum sums in another order.
    """
    if x.shape[-1] != layer.weights.shape[-1]:
        raise ValueError(
            f"dense input size {x.shape[-1]} does not match weights {layer.weights.shape}"
        )
    pre = (layer.weights @ x[..., None])[..., 0] + layer.bias
    out = _activate(pre, layer.activation)
    return out, (x, pre, out)


def dense_backward(layer: DenseLayer, cache, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Adds the parameter gradients into ``grads`` (shaped like ``params()``); returns dx.

    The cache and ``dout`` carry a leading step axis (``stack_steps`` builds
    the cache; a single step is a stack of one), and dx keeps it. A shared
    input gets one dx per copy. The steps are folded into ``grads`` one by
    one in step order, so the sums equal those of one step at a time. A
    stack of per-step products summed along the step axis would not: numpy
    sums a contiguous axis pairwise.
    """
    x, pre, out = cache
    if dout.shape != out.shape:
        raise ValueError(f"upstream grad shape {dout.shape} != output shape {out.shape}")
    if dout.ndim != layer.bias.ndim + 1:
        raise ValueError(f"upstream grad shape {dout.shape} lacks a step axis before bias shape {layer.bias.shape}")
    dpre = dout * _activate_grad(pre, out, layer.activation)
    for x_t, dpre_t in zip(x, dpre):
        grads["W"] += dpre_t[..., :, None] * x_t[..., None, :]
        grads["b"] += dpre_t
    return (np.swapaxes(layer.weights, -1, -2) @ dpre[..., None])[..., 0]


def stack_forward(layers: list[DenseLayer], x: np.ndarray):
    """Run ``x`` through a sequence of layers; returns (output, per-layer caches)."""
    caches = []
    for layer in layers:
        x, cache = dense_forward(layer, x)
        caches.append(cache)
    return x, caches


def stack_backward(layers: list[DenseLayer], caches, dout: np.ndarray, grads: list[dict[str, np.ndarray]]) -> np.ndarray:
    """Backward through ``stack_forward`` over step-stacked caches, adding into per-layer ``grads``; returns dx."""
    for j in range(len(layers) - 1, -1, -1):
        dout = dense_backward(layers[j], caches[j], dout, grads[j])
    return dout


def stack_steps(caches: list):
    """Per-step caches of one layer, or of a layer stack, stacked along a new leading step axis."""
    if isinstance(caches[0], list):
        return [stack_steps(list(layer)) for layer in zip(*caches)]
    return tuple(np.stack(parts) for parts in zip(*caches))


# ---------------------------------------------------------------------------
# GRU cell


@dataclass
class GruCell:
    """Single GRU cell; gate weights act on concat(input, hidden)."""

    Wz: np.ndarray
    Wr: np.ndarray
    Wn: np.ndarray
    bz: np.ndarray
    br: np.ndarray
    bn: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.Wz.shape[0]

    @classmethod
    def create(cls, rng: np.random.Generator, in_dim: int, hidden: int):
        cat = in_dim + hidden
        return cls(
            Wz=init_matrix(rng, hidden, cat),
            Wr=init_matrix(rng, hidden, cat),
            Wn=init_matrix(rng, hidden, cat),
            bz=np.zeros(hidden),
            br=np.zeros(hidden),
            bn=np.zeros(hidden),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"Wz": self.Wz, "Wr": self.Wr, "Wn": self.Wn, "bz": self.bz, "br": self.br, "bn": self.bn}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gru_forward(cell: GruCell, x: np.ndarray, h: np.ndarray):
    """One recurrence step: h' = (1-z)*h + z*tanh-candidate. Returns (h', cache)."""
    if h.shape[0] != cell.hidden_size:
        raise ValueError(f"hidden size {h.shape[0]} != cell size {cell.hidden_size}")
    if x.shape[0] + h.shape[0] != cell.Wz.shape[1]:
        raise ValueError(f"input size {x.shape[0]} incompatible with gate shape {cell.Wz.shape}")
    a = np.concatenate([x, h])
    z = _sigmoid(cell.Wz @ a + cell.bz)
    r = _sigmoid(cell.Wr @ a + cell.br)
    a_n = np.concatenate([x, r * h])
    n = np.tanh(cell.Wn @ a_n + cell.bn)
    h_new = (1.0 - z) * h + z * n
    cache = (x, h, a, z, r, a_n, n)
    return h_new, cache


def gru_backward(cell: GruCell, cache, dh_new: np.ndarray, grads: dict[str, np.ndarray]):
    """Backward through one step, adding the parameter gradients into ``grads``. Returns (dx, dh)."""
    x, h, a, z, r, a_n, n = cache
    in_dim = x.shape[0]

    dz = dh_new * (n - h)
    dn = dh_new * z
    dh = dh_new * (1.0 - z)

    dn_pre = dn * (1.0 - n * n)
    grads["Wn"] += dn_pre[:, None] * a_n
    grads["bn"] += dn_pre
    da_n = cell.Wn.T @ dn_pre
    drh = da_n[in_dim:]
    dr = drh * h
    dh += drh * r

    dz_pre = dz * z * (1.0 - z)
    grads["Wz"] += dz_pre[:, None] * a
    grads["bz"] += dz_pre
    da = cell.Wz.T @ dz_pre

    dr_pre = dr * r * (1.0 - r)
    grads["Wr"] += dr_pre[:, None] * a
    grads["br"] += dr_pre
    da += cell.Wr.T @ dr_pre

    dx = da_n[:in_dim] + da[:in_dim]
    dh += da[in_dim:]
    return dx, dh


def gru_sequence_forward(cell: GruCell, xs: list[np.ndarray], h0: np.ndarray):
    """Run a whole sequence; returns (hidden states list, caches list)."""
    h = h0
    hs, caches = [], []
    for x in xs:
        h, cache = gru_forward(cell, x, h)
        hs.append(h)
        caches.append(cache)
    return hs, caches


def gru_sequence_backward(cell: GruCell, caches, dhs: np.ndarray, grads: dict[str, np.ndarray]):
    """BPTT over a sequence given per-step upstream grads on each hidden state.

    Adds the parameter gradients into ``grads``, latest step first. Returns
    ([steps, in] input grads, dh0).
    """
    dxs = np.empty((len(caches), cell.Wz.shape[1] - cell.hidden_size))
    carry = np.zeros(cell.hidden_size)
    for t in range(len(caches) - 1, -1, -1):
        dxs[t], carry = gru_backward(cell, caches[t], dhs[t] + carry, grads)
    return dxs, carry


# ---------------------------------------------------------------------------
# softmax head and optimizer


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; each row equals the 1-D call on that row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis; each row equals the 1-D call on that row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one category per row by inverse CDF; returns (indices, exact log-probabilities).

    Rows draw their uniforms in row order, from one ``rng.random`` call, as
    one ``rng.random()`` per row would. A row's index is the count of its
    cumulative probabilities at or below its uniform, which is
    ``searchsorted(side="right")`` on that nondecreasing sum, capped at the
    last category.
    """
    _check_finite("logits", logits)
    u = rng.random(logits.shape[:-1])
    below = np.cumsum(softmax(logits), axis=-1) <= u[..., None]
    idx = np.minimum(below.sum(axis=-1), logits.shape[-1] - 1)
    return idx, np.take_along_axis(log_softmax(logits), idx[..., None], axis=-1)[..., 0]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators over a named parameter collection."""

    lr: float = 3e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: OptimizerState):
    """In-place Adam update; the caller checks the gradients are finite, and unknown keys are a contract violation."""
    state.step += 1
    t = state.step
    for key, g in grads.items():
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        if key not in state.m:
            state.m[key] = np.zeros_like(params[key])
            state.v[key] = np.zeros_like(params[key])
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * (g * g)
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        params[key] -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
