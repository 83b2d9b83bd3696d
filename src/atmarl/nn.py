"""Minimal dense/GRU substrate with hand-written gradients.

Everything operates on float64 vectors; parameters live in small dataclasses
so training code can walk them generically. A dense layer may stack copies
along a leading axis. Backward passes return exact analytic gradients and are
verified against central finite differences in the test suite.
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


def dense_backward(layer: DenseLayer, cache, dout: np.ndarray):
    """Returns ({'W': dW, 'b': db}, dx); a shared input gets one dx per copy."""
    x, pre, out = cache
    if dout.shape != out.shape:
        raise ValueError(f"upstream grad shape {dout.shape} != output shape {out.shape}")
    dpre = dout * _activate_grad(pre, out, layer.activation)
    grads = {"W": dpre[..., :, None] * x[..., None, :], "b": dpre.copy()}
    dx = (np.swapaxes(layer.weights, -1, -2) @ dpre[..., None])[..., 0]
    return grads, dx


def stack_forward(layers: list[DenseLayer], x: np.ndarray):
    """Run ``x`` through a sequence of layers; returns (output, per-layer caches)."""
    caches = []
    for layer in layers:
        x, cache = dense_forward(layer, x)
        caches.append(cache)
    return x, caches


def stack_backward(layers: list[DenseLayer], caches, dout: np.ndarray):
    """Backward through ``stack_forward``; returns (per-layer grads, dx)."""
    grads = [None] * len(layers)
    for j in range(len(layers) - 1, -1, -1):
        grads[j], dout = dense_backward(layers[j], caches[j], dout)
    return grads, dout


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


def gru_backward(cell: GruCell, cache, dh_new: np.ndarray):
    """Backward through one step. Returns (param grads, dx, dh)."""
    x, h, a, z, r, a_n, n = cache
    in_dim = x.shape[0]

    dz = dh_new * (n - h)
    dn = dh_new * z
    dh = dh_new * (1.0 - z)

    dn_pre = dn * (1.0 - n * n)
    dWn = np.outer(dn_pre, a_n)
    dbn = dn_pre.copy()
    da_n = cell.Wn.T @ dn_pre
    dx = da_n[:in_dim].copy()
    drh = da_n[in_dim:]
    dr = drh * h
    dh += drh * r

    dz_pre = dz * z * (1.0 - z)
    dWz = np.outer(dz_pre, a)
    dbz = dz_pre.copy()
    da = cell.Wz.T @ dz_pre

    dr_pre = dr * r * (1.0 - r)
    dWr = np.outer(dr_pre, a)
    dbr = dr_pre.copy()
    da += cell.Wr.T @ dr_pre

    dx += da[:in_dim]
    dh += da[in_dim:]
    grads = {"Wz": dWz, "Wr": dWr, "Wn": dWn, "bz": dbz, "br": dbr, "bn": dbn}
    return grads, dx, dh


def gru_sequence_forward(cell: GruCell, xs: list[np.ndarray], h0: np.ndarray):
    """Run a whole sequence; returns (hidden states list, caches list)."""
    h = h0
    hs, caches = [], []
    for x in xs:
        h, cache = gru_forward(cell, x, h)
        hs.append(h)
        caches.append(cache)
    return hs, caches


def gru_sequence_backward(cell: GruCell, caches, dhs: list[np.ndarray]):
    """BPTT over a sequence given per-step upstream grads on each hidden state.

    Returns (accumulated param grads, per-step input grads, dh0).
    """
    grads = {k: np.zeros_like(v) for k, v in cell.params().items()}
    dxs = [None] * len(caches)
    carry = np.zeros(cell.hidden_size)
    for t in range(len(caches) - 1, -1, -1):
        step_grads, dx, carry_prev = gru_backward(cell, caches[t], dhs[t] + carry)
        for k in grads:
            grads[k] += step_grads[k]
        dxs[t] = dx
        carry = carry_prev
    return grads, dxs, carry


# ---------------------------------------------------------------------------
# softmax head and optimizer


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def softmax_sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Draw a category by inverse CDF; returns (index, exact log-probability)."""
    _check_finite("logits", logits)
    probs = softmax(logits)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, len(probs) - 1)
    return idx, float(log_softmax(logits)[idx])


@dataclass
class OptimizerState:
    """Adam moment accumulators over a named parameter collection."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: OptimizerState):
    """In-place Adam update; unknown gradient keys are a contract violation."""
    state.step += 1
    t = state.step
    for key, g in grads.items():
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        _check_finite(f"grad[{key}]", g)
        if key not in state.m:
            state.m[key] = np.zeros_like(params[key])
            state.v[key] = np.zeros_like(params[key])
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * (g * g)
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        params[key] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
