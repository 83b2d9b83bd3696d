"""Minimal dense/GRU substrate with hand-written gradients.

Everything operates on float64 arrays; parameters live in small dataclasses
so training code can walk them generically. A dense layer may stack copies
along a leading axis. Forwards write into preallocated step buffers, a tape
with a leading step axis: ``stack_caches`` and ``gru_caches`` allocate them,
and ``dense_forward`` and ``gru_forward`` fill the rows they are given. A
dense layer keeps only its input and output rows: it applies its bias and
activation in place in its output, and its backward reads ``out``.
Each forward is a short list of numpy calls, each a (function, arguments)
pair with its argument views already sliced: ``dense_calls`` and
``gru_calls`` build them, and ``run`` makes them. A caller that runs the
same rows many times, such as an episode tape, builds a program once: a
plain list holding one such call list per row. ``GruBackward`` and
``SoftmaxSampler`` hold programs for the recurrence of the GRU backward and
for softmax sampling: a ``GruBackward`` holds its cell and rows, and
``gru_sequence_backward`` runs it over their first steps.
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
40-step training episodes are not that large. A matrix-vector product of a
2-D weight (or its transpose) runs as ``np.dot``, the same BLAS call as
``np.matmul`` with the same bits.
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


def run(calls) -> None:
    """Make each (function, arguments) call of ``calls`` in order: one row of a prebuilt program, or a list built for one use."""
    for f, args in calls:
        f(*args)


def dense_calls(layer: DenseLayer, x: np.ndarray, out: np.ndarray) -> list[tuple]:
    """The numpy calls of ``dense_forward`` on these buffers, as ``run`` takes them.

    A 2-D layer on one [in] row is one ``np.dot``; a stacked layer, or an
    unstacked one on [steps, in] rows, is one ``np.matmul`` that runs each
    copy (and step) as its own matrix-vector product, bit-equal to the copy
    alone; np.einsum sums in another order. The bias is added and a tanh
    applied in place in ``out``; an identity layer needs no call for it.
    """
    if x.shape[-1] != layer.weights.shape[-1]:
        raise ValueError(
            f"dense input size {x.shape[-1]} does not match weights {layer.weights.shape}"
        )
    if layer.weights.ndim == 2 and x.ndim == 1:
        calls = [(np.dot, (layer.weights, x, out))]
    else:
        calls = [(np.matmul, (layer.weights, x[..., None], out[..., None]))]
    calls.append((np.add, (out, layer.bias, out)))
    if layer.activation == "tanh":
        calls.append((np.tanh, (out, out)))
    elif layer.activation != "identity":
        raise ValueError(f"unknown activation {layer.activation!r}")
    return calls


def dense_forward(layer: DenseLayer, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Affine map of ``x``, then the activation, into ``out``; returns ``out``.

    ``x`` is [in], or [copies, in] for a stacked layer, which shares an [in]
    input among its copies; ``out`` is shaped like the bias. An unstacked
    layer also takes [steps, in] rows at once. It builds ``dense_calls``
    and runs them.
    """
    run(dense_calls(layer, x, out))
    return out


def dense_backward(layer: DenseLayer, cache, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Adds the parameter gradients into ``grads`` (shaped like ``params()``); returns dx.

    The cache, (x, out), and ``dout`` carry a leading step axis (the step
    rows of a tape; a single step is a stack of one), and dx keeps it. The
    pre-activation grad is ``dout * (1 - out * out)`` for a tanh layer and
    ``dout`` itself for an identity one. A shared input gets one dx per
    copy. dx has the bits of one step at a time. The weight gradient is one
    matmul over the step axis, per copy for a stacked layer (on each copy's
    input, or on the input the copies share), and the bias gradient one sum
    along it: each within the module's bound of the step-ordered sums.
    """
    x, out = cache
    if dout.shape != out.shape:
        raise ValueError(f"upstream grad shape {dout.shape} != output shape {out.shape}")
    if dout.ndim != layer.bias.ndim + 1:
        raise ValueError(f"upstream grad shape {dout.shape} lacks a step axis before bias shape {layer.bias.shape}")
    dpre = dout * (1.0 - out * out) if layer.activation == "tanh" else dout
    # [..., out, steps] @ [..., steps, in]; a shared [steps, in] input broadcasts over the copies
    grads["W"] += np.moveaxis(dpre, 0, -1) @ np.moveaxis(x, 0, -2)
    grads["b"] += dpre.sum(axis=0)
    return (np.swapaxes(layer.weights, -1, -2) @ dpre[..., None])[..., 0]


def stack_caches(layers: list[DenseLayer], x: np.ndarray, out: np.ndarray | None = None) -> list[tuple]:
    """Step buffers (x, out) of a layer stack over ``x``'s leading step axis.

    Each layer's output buffer is the next layer's input; the last layer
    writes into ``out`` when given (e.g. a view into the input of what
    follows), else into a buffer of its own.
    """
    caches = []
    for j, layer in enumerate(layers):
        y = out if j == len(layers) - 1 and out is not None else np.empty((len(x), *layer.bias.shape))
        caches.append((x, y))
        x = y
    return caches


def stack_calls(layers: list[DenseLayer], caches: list[tuple], index, out: np.ndarray | None = None) -> list[tuple]:
    """The ``dense_calls`` of row ``index`` of ``stack_caches`` buffers, layer after layer.

    A layer's output row is the next layer's input row, one view serving
    both. ``out`` may be given as a view of the last layer's output row
    that the caller already holds.
    """
    calls = []
    x = caches[0][0][index]
    for j, (layer, (_, out_rows)) in enumerate(zip(layers, caches)):
        y = out if j == len(layers) - 1 and out is not None else out_rows[index]
        calls += dense_calls(layer, x, y)
        x = y
    return calls


def stack_forward(layers: list[DenseLayer], caches: list[tuple], index=...):
    """Run row ``index`` (all rows by default) of ``stack_caches`` buffers through the layers; returns the last output."""
    for layer, (x, out) in zip(layers, caches):
        y = dense_forward(layer, x[index], out[index])
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


def gru_calls(
    cell: GruCell,
    a: np.ndarray,
    zr: np.ndarray,
    a_n: np.ndarray,
    n: np.ndarray,
    h_new: np.ndarray,
    scratch: np.ndarray,
    x: np.ndarray | None = None,
    h: np.ndarray | None = None,
) -> list[tuple]:
    """The numpy calls of ``gru_forward`` on these rows, as ``run`` takes them; ``scratch`` is a [hidden] buffer for z*n.

    ``x`` and ``h`` may be given as views of ``a``'s input and hidden parts
    that the caller already holds. Both gates run as one stacked matmul,
    each gate its own matrix-vector product: a flat [2*hidden, in] matvec
    sums in another order unless hidden is a multiple of the BLAS kernel's
    row block.
    """
    if a.shape[-1] != cell.Wn.shape[1]:
        raise ValueError(f"input and hidden size {a.shape[-1]} incompatible with gate shape {cell.Wn.shape}")
    in_dim = a.shape[-1] - cell.hidden_size
    x = a[:in_dim] if x is None else x
    h = a[in_dim:] if h is None else h
    z, r = zr
    return [
        (np.matmul, (cell.Wzr, a[:, None], zr[..., None])),
        (np.add, (zr, cell.bzr, zr)),
        # the sigmoid 1 / (1 + exp(-x)), in place
        (np.negative, (zr, zr)),
        (np.exp, (zr, zr)),
        (np.add, (zr, 1.0, zr)),
        (np.divide, (1.0, zr, zr)),
        (np.copyto, (a_n[:in_dim], x)),
        (np.multiply, (r, h, a_n[in_dim:])),
        (np.dot, (cell.Wn, a_n, n)),
        (np.add, (n, cell.bn, n)),
        (np.tanh, (n, n)),
        (np.subtract, (1.0, z, h_new)),
        (np.multiply, (h_new, h, h_new)),
        (np.multiply, (z, n, scratch)),
        (np.add, (h_new, scratch, h_new)),
    ]


def gru_forward(cell: GruCell, a: np.ndarray, zr: np.ndarray, a_n: np.ndarray, n: np.ndarray, h_new: np.ndarray) -> np.ndarray:
    """One recurrence step h' = (1-z)*h + z*tanh-candidate into the rows it is given; returns ``h_new``.

    ``a`` is one row of ``gru_caches``' (input, h); the step fills the rows
    ``zr``, ``a_n`` and ``n`` and writes h' into ``h_new``. It builds
    ``gru_calls`` and runs them.
    """
    run(gru_calls(cell, a, zr, a_n, n, h_new, np.empty(cell.hidden_size)))
    return h_new


class GruBackward:
    """One cell's ``gru_caches`` rows and the buffers and per-step numpy calls of ``gru_sequence_backward`` over them.

    Built once for rows that run many episodes, it holds the cell and its
    uncut rows (``caches``), and leaves the recurrence a flat list of calls
    per step, ``rows[t]`` for step t, with no slicing or temporaries. The
    calls hold the cell's gate weights (transposed views), so an update must
    write them in place, as ``adam_step`` does. Row t's calls read the carry
    and the step's upstream grad and factors, and write its pre-activation
    grads, the two halves of its input grad and the carry it hands step t-1.
    Its working buffers are those of ``share`` when that is a program over
    rows of the same shape, for cells whose backwards run one after the
    other.
    """

    def __init__(self, cell: GruCell, caches, share: GruBackward | None = None):
        a, zr, a_n, n = caches
        steps, hidden = len(zr), cell.hidden_size
        width = a.shape[1]
        in_dim = width - hidden
        self.cell, self.caches = cell, caches
        self.shape = (steps, hidden, width)
        if share is not None and share.shape == self.shape:
            self.buffers = share.buffers
        else:
            self.buffers = _GruBackwardBuffers(steps, hidden, width)
        b = self.buffers
        Wn_T, Wz_T, Wr_T = cell.Wn.T, cell.Wz.T, cell.Wr.T
        carry, dh_new, narrow, wide = b.carry, b.dh_new, b.narrow, b.wide
        rows = []
        for t in range(steps):
            dn_pre, da_n, dzr, da = b.dn_pres[t], b.da_ns[t], b.dzr_pres[t], b.das[t]
            drh = da_n[in_dim:]
            dz, dr = dzr
            rows.append([
                (np.add, (b.dhs[t], carry, dh_new)),
                (np.multiply, (dh_new, zr[t, 0], dn_pre)),
                (np.multiply, (dn_pre, b.one_minus_nn[t], dn_pre)),
                (np.dot, (Wn_T, dn_pre, da_n)),
                (np.multiply, (dh_new, b.n_minus_h[t], dz)),
                (np.multiply, (drh, a[t, in_dim:], dr)),
                (np.multiply, (dzr, zr[t], dzr)),
                (np.multiply, (dzr, b.one_minus_zr[t], dzr)),
                # two matvecs: one over both gates would sum the 2*hidden terms in another order
                (np.dot, (Wz_T, dz, da)),
                (np.dot, (Wr_T, dr, wide)),
                (np.add, (da, wide, da)),
                (np.multiply, (dh_new, b.one_minus_z[t], carry)),
                (np.multiply, (drh, zr[t, 1], narrow)),
                (np.add, (carry, narrow, carry)),
                (np.add, (carry, da[in_dim:], carry)),
            ])
        self.rows = rows


class _GruBackwardBuffers:
    """Working buffers of one ``GruBackward`` over ``steps`` rows."""

    def __init__(self, steps: int, hidden: int, width: int):
        # the upstream grads and the factors that do not depend on the carry, set per episode
        self.one_minus_z, self.one_minus_nn, self.n_minus_h, self.dhs = np.empty((4, steps, hidden))
        self.one_minus_zr = np.empty((steps, 2, hidden))
        # what each step writes
        self.dn_pres = np.empty((steps, hidden))
        self.dzr_pres = np.empty((steps, 2, hidden))
        self.da_ns = np.empty((steps, width))
        self.das = np.empty((steps, width))
        self.carry, self.dh_new, self.narrow = np.empty((3, hidden))
        self.wide = np.empty(width)


def gru_sequence_backward(program: GruBackward, steps: int, dhs: np.ndarray, grads: GruCell):
    """BPTT over the first ``steps`` rows of a ``GruBackward``'s cell and rows, given per-step upstream grads on each hidden state.

    Returns ([steps, in] input grads, dh0), which have the bits of one step
    at a time, latest step first. The factors that do not depend on the
    carry are computed for all steps before the loop, which keeps only the
    recurrence, the program's calls. Then each parameter of the accumulator
    cell ``grads`` gets one matmul (or sum) over the steps, within the
    module's bound of the step-ordered sums.
    """
    a, zr, a_n, n = (arr[:steps] for arr in program.caches)
    b = program.buffers
    in_dim = a.shape[1] - program.cell.hidden_size
    np.subtract(1.0, zr[:, 0], out=b.one_minus_z[:steps])
    one_minus_nn = np.multiply(n, n, out=b.one_minus_nn[:steps])
    np.subtract(1.0, one_minus_nn, out=one_minus_nn)
    np.subtract(n, a[:, in_dim:], out=b.n_minus_h[:steps])
    np.subtract(1.0, zr, out=b.one_minus_zr[:steps])
    b.dhs[:steps] = dhs
    b.carry.fill(0.0)
    rows = program.rows
    for t in range(steps - 1, -1, -1):
        run(rows[t])
    dxs = b.da_ns[:steps, :in_dim] + b.das[:steps, :in_dim]

    # [hidden, steps] @ [steps, in+hidden] for the candidate, and one such product per gate for z and r
    dn_pres, dzr_pres = b.dn_pres[:steps], b.dzr_pres[:steps]
    grads.Wn += dn_pres.T @ a_n
    grads.bn += dn_pres.sum(axis=0)
    grads.Wzr += np.moveaxis(dzr_pres, 0, -1) @ a
    grads.bzr += dzr_pres.sum(axis=0)
    return dxs, b.carry.copy()


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


class SoftmaxSampler:
    """Softmax sampling over logits rows of one shape, [..., categories], each row's pick kept, and its numpy call lists per row, built once.

    ``sample(i, rng)`` draws one category per row of ``rows[i]`` (the rows
    of its leading axes), and ``greedy(i)`` takes each one's first maximum;
    both refuse a non-finite logit with ``FloatingPointError`` before they
    draw. Each writes its picks into row i of ``idx``, [len(rows), ...],
    and returns that row, which keeps them until the next call on i, also
    where several of ``rows`` share their memory.

    A row's index is the count of its cumulative probabilities at or below
    its uniform, which is ``searchsorted(side="right")`` on that
    nondecreasing sum, capped at the last category. The rows draw their
    uniforms in row order, from one ``rng.random`` call, as one
    ``rng.random()`` per row would. The probabilities have the bits of
    ``softmax``; they are exponentiated, normalised and summed in one
    scratch array. The reductions call the ufuncs that ``ndarray.all``,
    ``max``, ``sum`` and ``np.cumsum`` call, without those wrappers, so the
    bits are theirs. Each of its four programs (the finiteness check, the
    cumulative sum, the pick and the greedy pick) holds one call list per
    row, which ``run`` makes.
    """

    def __init__(self, rows):
        shape = rows[0].shape
        lead = shape[:-1]
        finite, self.finite = np.empty(shape, dtype=bool), np.empty((), dtype=bool)
        top, total = np.empty((*lead, 1)), np.empty((*lead, 1))
        cdf, below = np.empty(shape), np.empty(shape, dtype=bool)
        count = np.empty(lead, dtype=np.intp)
        self.u, self.idx = np.empty(lead), np.empty((len(rows), *lead), dtype=np.intp)
        # one view per row, an array even where the row picks one category
        self._picks = [self.idx[i, ...] for i in range(len(rows))]
        normalise = (
            (np.exp, (cdf, cdf)),
            (np.add.reduce, (cdf, -1, None, total, True)),
            (np.divide, (cdf, total, cdf)),
            (np.add.accumulate, (cdf, -1, None, cdf)),
        )
        pick = ((np.less_equal, (cdf, self.u[..., None], below)), (np.add.reduce, (below, -1, None, count)))
        self._check = [[(np.isfinite, (row, finite)), (np.logical_and.reduce, (finite, None, None, self.finite))] for row in rows]
        self._cdf = [[(np.maximum.reduce, (row, -1, None, top, True)), (np.subtract, (row, top, cdf)), *normalise] for row in rows]
        self._greedy = [[(np.argmax, (row, -1, out))] for row, out in zip(rows, self._picks)]
        # fmin is minimum on integers, and takes its output positionally
        self._pick = [[*pick, (np.fmin, (count, shape[-1] - 1, out))] for out in self._picks]

    def _refuse_non_finite(self, i: int):
        run(self._check[i])
        if not self.finite:
            raise FloatingPointError("non-finite values in logits")

    def sample(self, i: int, rng: np.random.Generator) -> np.ndarray:
        self._refuse_non_finite(i)
        run(self._cdf[i])
        rng.random(out=self.u)
        run(self._pick[i])
        return self._picks[i]

    def greedy(self, i: int) -> np.ndarray:
        self._refuse_non_finite(i)
        run(self._greedy[i])
        return self._picks[i]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators over a named parameter collection, with one scratch pair sized to the largest parameter."""

    lr: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: tuple[np.ndarray, np.ndarray] = field(default_factory=lambda: (np.empty(0), np.empty(0)))


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: OptimizerState):
    """In-place Adam update; the caller checks the gradients are finite, and unknown keys are a contract violation.

    Per parameter it computes m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps), each operation
    in that order, into views of the state's scratch pair, which every
    parameter shares and which grows to the largest parameter seen.
    """
    state.step += 1
    t = state.step
    m_scale = 1 - ADAM_BETA1**t
    v_scale = 1 - ADAM_BETA2**t
    for key, g in grads.items():
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        p = params[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
            if p.size > state.scratch[0].size:
                state.scratch = (np.empty(p.size), np.empty(p.size))
        m = state.m[key]
        v = state.v[key]
        step = state.scratch[0][: p.size].reshape(p.shape)
        denom = state.scratch[1][: p.size].reshape(p.shape)
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
        p -= np.divide(step, denom, out=step)
