"""Minimal dense/GRU substrate with hand-written gradients.

Everything operates on float64 arrays; parameters live in small dataclasses
so training code can walk them generically. A dense layer may stack copies
along a leading axis. Forwards write into preallocated step buffers, a tape
with a leading step axis: ``stack_caches`` and ``gru_caches`` allocate them,
and ``dense_forward`` and ``gru_forward`` fill the rows they are given.
Backward passes read every step of an episode at once from slices of those
buffers, add exact analytic gradients into the accumulators they are given,
and are verified against central finite differences in the test suite.

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


def _activate(pre: np.ndarray, kind: str, out: np.ndarray):
    if kind == "tanh":
        np.tanh(pre, out=out)
    elif kind == "identity":
        if out is not pre:
            np.copyto(out, pre)
    else:
        raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(pre: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - out * out
    if kind == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {kind!r}")


def dense_forward(layer: DenseLayer, x: np.ndarray, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Affine map of ``x`` into ``pre``, then the activation into ``out``; returns ``out``.

    ``x`` is [in], or [copies, in] for a stacked layer, which shares an [in]
    input among its copies; ``pre`` and ``out`` are shaped like the bias.
    An unstacked layer also takes [steps, in] rows at once. An identity
    layer may be given ``pre`` as ``out``. np.matmul runs each copy (and
    step) as its own matrix-vector product, bit-equal to the copy alone;
    np.einsum sums in another order.
    """
    if x.shape[-1] != layer.weights.shape[-1]:
        raise ValueError(
            f"dense input size {x.shape[-1]} does not match weights {layer.weights.shape}"
        )
    np.matmul(layer.weights, x[..., None], out=pre[..., None])
    pre += layer.bias
    _activate(pre, layer.activation, out)
    return out


def dense_backward(layer: DenseLayer, cache, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Adds the parameter gradients into ``grads`` (shaped like ``params()``); returns dx.

    The cache, (x, pre, out), and ``dout`` carry a leading step axis (the
    step rows of a tape; a single step is a stack of one), and dx keeps it.
    A shared input gets one dx per copy. dx has the bits of one step at a
    time. The weight gradient is one matmul over the step axis, per copy for
    a stacked layer (on each copy's input, or on the input the copies
    share), and the bias gradient one sum along it: each within the
    module's bound of the step-ordered sums.
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


def stack_caches(layers: list[DenseLayer], x: np.ndarray, out: np.ndarray | None = None) -> list[tuple]:
    """Step buffers (x, pre, out) of a layer stack over ``x``'s leading step axis.

    Each layer's output buffer is the next layer's input; the last layer
    writes into ``out`` when given (e.g. a view into the input of what
    follows), else into a buffer of its own. An identity layer other than
    the last outputs its pre-activation.
    """
    caches = []
    for j, layer in enumerate(layers):
        pre = np.empty((len(x), *layer.bias.shape))
        if j == len(layers) - 1 and out is not None:
            y = out
        else:
            y = pre if layer.activation == "identity" else np.empty_like(pre)
        caches.append((x, pre, y))
        x = y
    return caches


def stack_forward(layers: list[DenseLayer], caches: list[tuple], index=...):
    """Run row ``index`` (all rows by default) of ``stack_caches`` buffers through the layers; returns the last output."""
    for layer, (x, pre, out) in zip(layers, caches):
        y = dense_forward(layer, x[index], pre[index], out[index])
    return y


def stack_backward(layers: list[DenseLayer], caches, dout: np.ndarray, grads: list[dict[str, np.ndarray]]) -> np.ndarray:
    """Backward through a layer stack over step-stacked caches, adding into per-layer ``grads``; returns dx."""
    for j in range(len(layers) - 1, -1, -1):
        dout = dense_backward(layers[j], caches[j], dout, grads[j])
    return dout


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


def gru_caches(cell: GruCell, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step buffers (a, zr, a_n, n) of one cell over ``steps`` steps; ``a`` has one row more.

    Row t of ``a`` is step t's input followed by the hidden state it starts
    from, and step t writes its new hidden state into the hidden half of row
    t+1, so the last row ends with the final state. ``zr`` holds both gates,
    ``a_n`` the candidate's input (input, r*h) and ``n`` the candidate.
    """
    hidden, width = cell.hidden_size, cell.Wn.shape[1]
    return np.empty((steps + 1, width)), np.empty((steps, 2, hidden)), np.empty((steps, width)), np.empty((steps, hidden))


def gru_forward(cell: GruCell, a: np.ndarray, zr: np.ndarray, a_n: np.ndarray, n: np.ndarray, h_new: np.ndarray) -> np.ndarray:
    """One recurrence step h' = (1-z)*h + z*tanh-candidate into the rows it is given; returns ``h_new``.

    ``a`` is one row of ``gru_caches``' (input, h); the step fills the rows
    ``zr``, ``a_n`` and ``n`` and writes h' into ``h_new``. Both gates run as
    one stacked matmul, each gate its own matrix-vector product: a flat
    [2*hidden, in] matvec sums in another order unless hidden is a multiple
    of the BLAS kernel's row block.
    """
    if a.shape[-1] != cell.Wn.shape[1]:
        raise ValueError(f"input and hidden size {a.shape[-1]} incompatible with gate shape {cell.Wn.shape}")
    in_dim = a.shape[-1] - cell.hidden_size
    h = a[in_dim:]
    np.matmul(cell.Wzr, a[:, None], out=zr[..., None])
    zr += cell.bzr
    # the sigmoid 1 / (1 + exp(-x)), in place
    np.negative(zr, out=zr)
    np.exp(zr, out=zr)
    zr += 1.0
    np.divide(1.0, zr, out=zr)
    z, r = zr
    a_n[:in_dim] = a[:in_dim]
    np.multiply(r, h, out=a_n[in_dim:])
    np.matmul(cell.Wn, a_n, out=n)
    n += cell.bn
    np.tanh(n, out=n)
    np.subtract(1.0, z, out=h_new)
    h_new *= h
    h_new += z * n
    return h_new


def gru_sequence_backward(cell: GruCell, caches, dhs: np.ndarray, grads: GruCell):
    """BPTT over a sequence given per-step upstream grads on each hidden state.

    ``caches`` are the step rows (a, zr, a_n, n) of ``gru_caches``, ``a``
    cut to the steps. Returns ([steps, in] input grads, dh0), which have the
    bits of one step at a time, latest step first. The factors that do not
    depend on the carry are computed for all steps before the loop, which
    keeps only the recurrence: it stores each step's pre-activation grads and
    the two halves of its input grad, added after it. Then each parameter of
    the accumulator cell ``grads`` gets one matmul (or sum) over the steps,
    within the module's bound of the step-ordered sums.
    """
    a, zr, a_n, n = caches
    steps, hidden = len(zr), cell.hidden_size
    in_dim = a.shape[1] - hidden
    h = a[:, in_dim:]
    z, r = zr[:, 0], zr[:, 1]
    one_minus_z = 1.0 - z
    one_minus_nn = 1.0 - n * n
    n_minus_h = n - h
    one_minus_zr = 1.0 - zr
    Wn_T, Wz_T, Wr_T = cell.Wn.T, cell.Wz.T, cell.Wr.T
    dn_pres = np.empty((steps, hidden))
    dzr_pres = np.empty((steps, 2, hidden))
    da_ns = np.empty((steps, in_dim + hidden))
    das = np.empty((steps, in_dim + hidden))
    dh_new = np.empty(hidden)
    carry = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        np.add(dhs[t], carry, out=dh_new)

        dn_pre = np.multiply(dh_new, z[t], out=dn_pres[t])
        dn_pre *= one_minus_nn[t]
        drh = np.matmul(Wn_T, dn_pre, out=da_ns[t])[in_dim:]

        dzr_pre = dzr_pres[t]
        np.multiply(dh_new, n_minus_h[t], out=dzr_pre[0])
        np.multiply(drh, h[t], out=dzr_pre[1])
        dzr_pre *= zr[t]
        dzr_pre *= one_minus_zr[t]
        # two matvecs: one over both gates would sum the 2*hidden terms in another order
        da = np.matmul(Wz_T, dzr_pre[0], out=das[t])
        da += Wr_T @ dzr_pre[1]

        np.multiply(dh_new, one_minus_z[t], out=carry)
        carry += drh * r[t]
        carry += da[in_dim:]
    dxs = da_ns[:, :in_dim] + das[:, :in_dim]

    # [hidden, steps] @ [steps, in+hidden] for the candidate, and one such product per gate for z and r
    grads.Wn += dn_pres.T @ a_n
    grads.bn += dn_pres.sum(axis=0)
    grads.Wzr += np.moveaxis(dzr_pres, 0, -1) @ a
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
    last category. The probabilities have the bits of ``softmax``; they are
    exponentiated, normalised and summed in one scratch array. The
    reductions call the ufuncs that ``ndarray.all``, ``max``, ``sum`` and
    ``np.cumsum`` call, without those wrappers, so the bits are theirs.
    """
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise FloatingPointError("non-finite values in logits")
    cdf = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(cdf, out=cdf)
    cdf /= np.add.reduce(cdf, axis=-1, keepdims=True)
    np.add.accumulate(cdf, axis=-1, out=cdf)
    u = rng.random(logits.shape[:-1])
    return np.minimum(np.add.reduce(cdf <= u[..., None], axis=-1), logits.shape[-1] - 1)


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
