"""Minimal dense/GRU substrate with hand-written gradients.

Everything operates on float64 vectors; parameters live in small dataclasses
so training code can walk them generically. A dense layer may stack copies
along a leading axis, and its backward runs all steps of an episode at once
along another. Backward passes add exact analytic gradients into the
accumulators they are given and are verified against central finite
differences in the test suite.

Numerics of a backward over T steps: every activation and input gradient
has the bits of running the steps one at a time, while each parameter
gradient is one matrix product (or sum) over the step axis. That sums the
T per-step terms in BLAS order, so it is within 2*gamma_T*sum_t|p_t| of the
step-ordered sum, gamma_T = T*u/(1-T*u) with u = 2**-53, element by element.
A product large enough for the BLAS to split across its threads can round
differently under another thread count; the supervisor's products at its
40-step training episodes are not that large.
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

    def zeros_like(self) -> DenseLayer:
        """A layer of the same shape and activation with every parameter zero, e.g. a gradient accumulator."""
        return DenseLayer(weights=np.zeros_like(self.weights), bias=np.zeros_like(self.bias), activation=self.activation)

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
    input gets one dx per copy. dx has the bits of one step at a time. The
    weight gradient is one matmul over the step axis, per copy for a stacked
    layer (on each copy's input, or on the input the copies share), and the
    bias gradient one sum along it: each within the module's bound of the
    step-ordered sums.
    """
    x, pre, out = cache
    if dout.shape != out.shape:
        raise ValueError(f"upstream grad shape {dout.shape} != output shape {out.shape}")
    if dout.ndim != layer.bias.ndim + 1:
        raise ValueError(f"upstream grad shape {dout.shape} lacks a step axis before bias shape {layer.bias.shape}")
    dpre = dout * _activate_grad(pre, out, layer.activation)
    # [..., out, steps] @ [..., steps, in]; a shared [steps, in] input broadcasts over the copies
    grads["W"] += np.moveaxis(dpre, 0, -1) @ np.moveaxis(x, 0, -2)
    grads["b"] += dpre.sum(axis=0)
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


class GruCell:
    """Single GRU cell; gate weights act on concat(input, hidden).

    The update (z) and reset (r) gates share one [2, hidden, in+hidden]
    weight and one [2, hidden] bias, z first, so one call computes both.
    ``Wz``, ``Wr``, ``bz`` and ``br`` are views of them, and a deep copy
    keeps them so.
    """

    def __init__(self, Wz: np.ndarray, Wr: np.ndarray, Wn: np.ndarray, bz: np.ndarray, br: np.ndarray, bn: np.ndarray):
        self.Wzr = np.stack([Wz, Wr])
        self.bzr = np.stack([bz, br])
        self.Wn = Wn
        self.bn = bn

    Wz = property(lambda self: self.Wzr[0])
    Wr = property(lambda self: self.Wzr[1])
    bz = property(lambda self: self.bzr[0])
    br = property(lambda self: self.bzr[1])

    @property
    def hidden_size(self) -> int:
        return self.Wn.shape[0]

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

    def zeros_like(self) -> GruCell:
        """A cell of the same shape with every parameter zero, e.g. a gradient accumulator."""
        return GruCell(**{name: np.zeros_like(arr) for name, arr in self.params().items()})

    def params(self) -> dict[str, np.ndarray]:
        """Every parameter by name, one array per gate."""
        return {"Wz": self.Wz, "Wr": self.Wr, "Wn": self.Wn, "bz": self.bz, "br": self.br, "bn": self.bn}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gru_forward(cell: GruCell, x: np.ndarray, h: np.ndarray):
    """One recurrence step: h' = (1-z)*h + z*tanh-candidate. Returns (h', cache).

    Both gates run as one stacked matmul, each gate its own matrix-vector
    product: a flat [2*hidden, in] matvec sums in another order unless
    hidden is a multiple of the BLAS kernel's row block.
    """
    if h.shape[0] != cell.hidden_size:
        raise ValueError(f"hidden size {h.shape[0]} != cell size {cell.hidden_size}")
    if x.shape[0] + h.shape[0] != cell.Wn.shape[1]:
        raise ValueError(f"input size {x.shape[0]} incompatible with gate shape {cell.Wn.shape}")
    a = np.concatenate([x, h])
    zr = _sigmoid((cell.Wzr @ a[:, None])[..., 0] + cell.bzr)
    z, r = zr
    a_n = np.concatenate([x, r * h])
    n = np.tanh(cell.Wn @ a_n + cell.bn)
    h_new = (1.0 - z) * h + z * n
    cache = (x, h, a, zr, a_n, n)
    return h_new, cache


def gru_sequence_backward(cell: GruCell, caches, dhs: np.ndarray, grads: GruCell):
    """BPTT over a sequence given per-step upstream grads on each hidden state.

    Returns ([steps, in] input grads, dh0), which have the bits of one step
    at a time, latest step first. The loop keeps only the recurrence: it
    stores each step's pre-activation grads, and after it each parameter
    of the accumulator cell ``grads`` gets one matmul (or sum) over the
    steps, within the module's bound of the step-ordered sums.
    """
    steps, hidden = len(caches), cell.hidden_size
    in_dim = cell.Wn.shape[1] - hidden
    dxs = np.empty((steps, in_dim))
    dn_pres = np.empty((steps, hidden))
    dzr_pres = np.empty((steps, 2, hidden))
    carry = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        _, h, _, zr, _, n = caches[t]
        z, r = zr
        dh_new = dhs[t] + carry

        dn = dh_new * z
        dh = dh_new * (1.0 - z)
        dn_pre = dn * (1.0 - n * n)
        dn_pres[t] = dn_pre
        da_n = cell.Wn.T @ dn_pre
        drh = da_n[in_dim:]
        dh += drh * r

        dzr_pre = np.empty_like(zr)
        np.multiply(dh_new, n - h, out=dzr_pre[0])
        np.multiply(drh, h, out=dzr_pre[1])
        dzr_pre *= zr
        dzr_pre *= 1.0 - zr
        dzr_pres[t] = dzr_pre
        # two matvecs: one over both gates would sum the 2*hidden terms in another order
        da = cell.Wz.T @ dzr_pre[0]
        da += cell.Wr.T @ dzr_pre[1]

        dxs[t] = da_n[:in_dim] + da[:in_dim]
        dh += da[in_dim:]
        carry = dh

    # [hidden, steps] @ [steps, in+hidden] for the candidate, and one such product per gate for z and r
    grads.Wn += dn_pres.T @ np.stack([a_n for *_, a_n, _ in caches])
    grads.bn += dn_pres.sum(axis=0)
    grads.Wzr += np.moveaxis(dzr_pres, 0, -1) @ np.stack([a for _, _, a, *_ in caches])
    grads.bzr += dzr_pres.sum(axis=0)
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


def softmax_sample(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one category per row by inverse CDF; returns the indices.

    Rows draw their uniforms in row order, from one ``rng.random`` call, as
    one ``rng.random()`` per row would. A row's index is the count of its
    cumulative probabilities at or below its uniform, which is
    ``searchsorted(side="right")`` on that nondecreasing sum, capped at the
    last category. The probabilities have the bits of ``softmax``.
    """
    _check_finite("logits", logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    u = rng.random(logits.shape[:-1])
    below = np.cumsum(e / e.sum(axis=-1, keepdims=True), axis=-1) <= u[..., None]
    return np.minimum(below.sum(axis=-1), logits.shape[-1] - 1)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators over a named parameter collection, with two scratch arrays per parameter."""

    lr: float = 3e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: OptimizerState):
    """In-place Adam update; the caller checks the gradients are finite, and unknown keys are a contract violation.

    Per parameter it computes m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps), each operation
    in that order, into scratch arrays kept between steps.
    """
    state.step += 1
    t = state.step
    m_scale = 1 - ADAM_BETA1**t
    v_scale = 1 - ADAM_BETA2**t
    for key, g in grads.items():
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        if key not in state.m:
            state.m[key] = np.zeros_like(params[key])
            state.v[key] = np.zeros_like(params[key])
            state.scratch[key] = (np.empty_like(params[key]), np.empty_like(params[key]))
        m = state.m[key]
        v = state.v[key]
        step, denom = state.scratch[key]
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, g, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        v += np.multiply(1 - ADAM_BETA2, step, out=step)
        np.divide(m, m_scale, out=step)
        np.multiply(state.lr, step, out=step)
        np.divide(v, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        params[key] -= np.divide(step, denom, out=step)
