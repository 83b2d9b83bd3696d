"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production code paths they check.
"""

from __future__ import annotations

import copy
import csv
import zlib
from pathlib import Path

import numpy as np

from atmarl.agents import CONGESTION_MAX, OBS_BINS, AgentObservation, SystemKind, normalize_kpi
from atmarl.errors import ScenarioError
from atmarl.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, gru_caches, gru_forward
from atmarl.slice_sim import MBR_LEVELS, N_GNODEBS, PL_RANGE, QOE_RANGE, KpiKind, KpiReport
from atmarl.supervisor import CRITIC_COEF, ENTROPY_COEF


def compute_qoe(served: float, demand: float) -> float:
    """One lane's affine throughput-satisfaction score on [1, 5]."""
    if demand <= 0:
        raise ScenarioError("QoE undefined for a service with no demand")
    return float(np.clip(1.0 + 4.0 * (served / demand), *QOE_RANGE))


def compute_packet_loss(offered: float, served: float) -> float:
    """One lane's percentage of offered traffic not delivered; zero when idle."""
    if offered <= 0:
        return 0.0
    return float(np.clip(100.0 * (offered - served) / offered, *PL_RANGE))


def packet_scheduling_oracle(
    offered,
    priorities,
    mbrs,
    bandwidth: float,
    rng: np.random.Generator,
    n_packets: int = 10_000,
    repetitions: int = 100,
) -> np.ndarray:
    """Expected served rates from discrete priority-weighted random scheduling.

    The offered pool (after MBR clipping) is split into ~``n_packets`` equal
    packets. A scheduler repeatedly picks one backlogged service at random
    with probability proportional to priority x enqueued backlog and transmits
    one packet, until the bandwidth budget is spent. Averaging over
    ``repetitions`` independent runs estimates the expected served rates.
    """
    offered = np.asarray(offered, dtype=np.float64)
    demand = np.minimum(offered, np.asarray(mbrs, dtype=np.float64))
    total_demand = demand.sum()
    if total_demand <= 0:
        return np.zeros_like(demand)
    packet_size = total_demand / n_packets
    queue0 = np.round(demand / packet_size).astype(np.int64)
    budget_total = int(round(bandwidth / packet_size))
    base_weights = np.asarray(priorities, dtype=np.float64) * queue0

    served_acc = np.zeros_like(demand)
    for _ in range(repetitions):
        queues = queue0.copy()
        budget = budget_total
        served = np.zeros_like(demand)
        while budget > 0 and queues.sum() > 0:
            active = queues > 0
            weights = np.where(active, base_weights, 0.0)
            probs = weights / weights.sum()
            # draw a chunk well below the smallest active queue to keep the
            # exhaust-and-renormalize boundary sharp
            smallest = queues[active].min()
            chunk = int(min(budget, max(1, smallest // 2)))
            draws = rng.multinomial(chunk, probs)
            draws = np.minimum(draws, queues)
            queues -= draws
            served += draws
            budget -= int(draws.sum())
        served_acc += served * packet_size
    return served_acc / repetitions


def scalar_allocate_capacity(offered, priorities, mbrs, bandwidth: float) -> np.ndarray:
    """One gNodeB's water-filling as a scalar loop over the unsaturated services.

    ``allocate_capacity`` must equal it bit for bit on every gNodeB column.
    """
    offered = np.asarray(offered, dtype=np.float64)
    demand = np.minimum(offered, mbrs)
    served = np.zeros_like(demand)
    weights = priorities.astype(np.float64) * demand
    unsat = demand > 0
    budget = float(bandwidth)
    while unsat.any() and budget > 1e-12:
        total_w = weights[unsat].sum()
        if total_w <= 0:
            break
        shares = np.zeros_like(demand)
        shares[unsat] = budget * weights[unsat] / total_w
        full = unsat & (demand <= shares + 1e-12)
        if not full.any():
            served[unsat] = shares[unsat]
            budget = 0.0
            break
        served[full] = demand[full]
        budget -= demand[full].sum()
        unsat &= ~full
    return served


def scalar_kpis(state, offered) -> tuple[np.ndarray, np.ndarray]:
    """Served rates and per-service KPIs, one gNodeB and one service at a time.

    Allocation runs ``scalar_allocate_capacity`` per gNodeB, the KPIs run the
    scalar ``compute_qoe``/``compute_packet_loss`` per lane, and each
    service's readings are aggregated by UE share with one row-times-weights
    product. ``evaluate_kpis`` must equal it bit for bit.
    """
    served = np.zeros_like(offered)
    for g in range(N_GNODEBS):
        served[:, g] = scalar_allocate_capacity(
            offered[:, g], np.asarray(state.priority), np.asarray(state.mbr), state.scenario.bandwidth_mbps
        )
    weights = np.asarray(state.distribution.weights)
    services = state.scenario.services
    kpi = np.zeros(len(services))
    for i, svc in enumerate(services):
        if svc.kpi_kind is KpiKind.QOE:
            per_gnb = np.array(
                [
                    compute_qoe(served[i, g], offered[i, g]) if offered[i, g] > 0 else QOE_RANGE[1]
                    for g in range(N_GNODEBS)
                ]
            )
        else:
            per_gnb = np.array([compute_packet_loss(offered[i, g], served[i, g]) for g in range(N_GNODEBS)])
        kpi[i] = float(per_gnb @ weights)
    return served, kpi


def numpy_offered_loads(state, rng: np.random.Generator | None) -> np.ndarray:
    """Offered loads as whole-array numpy expressions.

    ``offered_loads`` must equal it bit for bit and leave ``rng`` in the same
    state.
    """
    weights = np.asarray(state.distribution.weights)
    base = np.array([s.total_demand for s in state.scenario.services])[:, None] * weights[None, :]
    noise_pct = state.scenario.noise_pct
    if rng is None or noise_pct <= 0:
        return base
    eps = rng.uniform(-noise_pct / 100.0, noise_pct / 100.0, size=base.shape)
    return base * (1.0 + eps)


def reference_step(state, rng: np.random.Generator) -> KpiReport:
    """The simulator step as it ran before the raw-uniform draw and the vecdot product.

    The loads are ``numpy_offered_loads``'s (one ``rng.uniform`` draw of
    shape [services, gNodeBs]), each gNodeB column is filled by
    ``scalar_allocate_capacity`` through ``scalar_kpis`` (so the reference
    shares no code with the package's water-filling), the lanes are scored
    on lists, and each
    service's KPI is the stacked [1, gNodeBs] @ [gNodeBs, 1] matmul of its
    lanes and the UE weights. ``slice_sim.step`` must equal it bit for bit
    and leave ``rng`` in the same state.
    """
    loads = numpy_offered_loads(state, rng)
    bandwidth = state.scenario.bandwidth_mbps
    offered, served = loads.tolist(), scalar_kpis(state, loads)[0].tolist()
    lanes = []
    total = 0.0
    for svc, row, got in zip(state.scenario.services, offered, served):
        row_total = 0.0
        for o, s in zip(row, got):
            row_total += o
            if svc.kpi_kind is KpiKind.QOE:
                x = 1.0 + 4.0 * (s / o) if o > 0 else QOE_RANGE[1]
                lanes.append(QOE_RANGE[0] if x < QOE_RANGE[0] else QOE_RANGE[1] if x > QOE_RANGE[1] else x)
            else:
                x = 100.0 * (o - s) / o if o > 0 else 0.0
                lanes.append(PL_RANGE[0] if x < PL_RANGE[0] else PL_RANGE[1] if x > PL_RANGE[1] else x)
        total += row_total
    column = np.asarray(state.distribution.weights)[:, None]
    kpi = (np.array(lanes).reshape(len(offered), 1, -1) @ column).flatten()
    return KpiReport(kpi=kpi, congestion=total / (bandwidth * N_GNODEBS))


def numpy_congestion(state, offered: np.ndarray) -> float:
    """Slice offered load over slice bandwidth, summed per service by numpy; ``evaluate_kpis`` must equal it bit for bit."""
    return float(offered.sum(axis=1).sum() / (state.scenario.bandwidth_mbps * N_GNODEBS))


# ---------------------------------------------------------------------------
# agents and evaluation traces


def bin_unit(x: float) -> int:
    """One observation field's bin: clamped to [0, 1] by ``np.clip``, scaled by ``OBS_BINS``, capped at the last bin.

    ``agents.discretize`` must equal it on every field; a NaN raises ``ValueError``.
    """
    return min(int(float(np.clip(x, 0.0, 1.0)) * OBS_BINS), OBS_BINS - 1)


def per_field_discretize(obs) -> tuple[int, int, int, int]:
    """The table index of an observation, one ``bin_unit`` call per field."""
    return (bin_unit(obs.kpi), bin_unit(obs.knob), bin_unit(obs.goal), bin_unit(obs.congestion / CONGESTION_MAX))


def normalize_knob(agent, state) -> float:
    """One agent's knob on the observation's scale: a Priority level as ``(level - 1) / 4``, an MBR cap as its rung over the top rung.

    A cap off the ladder counts as its nearest rung, the lower of two at a
    tie (``min`` keeps the first of equal distances).
    """
    k = agent.intent_index
    if agent.system is SystemKind.PRIORITY:
        return (state.priority[k] - 1.0) / 4.0
    rung = min(range(len(MBR_LEVELS)), key=lambda j: abs(MBR_LEVELS[j] - state.mbr[k]))
    return rung / (len(MBR_LEVELS) - 1)


def per_agent_observe(state, report, agent, goal_kpi: float):
    """One agent's observation made on its own, as the engine once made each: its KPI read as a numpy scalar.

    The KPI and the goal go through ``normalize_kpi``, the knob through
    ``normalize_knob`` and the congestion through ``min`` with
    ``CONGESTION_MAX``; ``agents.observe`` must give every roster agent
    these bits.
    """
    kind = state.scenario.services[agent.intent_index].kpi_kind
    return AgentObservation(
        kpi=normalize_kpi(kind, float(report.kpi[agent.intent_index])),
        knob=normalize_knob(agent, state),
        goal=normalize_kpi(kind, goal_kpi),
        congestion=min(report.congestion, CONGESTION_MAX),
    )


def changed_goal_index(obs, kind, goal_kpi: float) -> tuple[int, int, int, int]:
    """The table index an agent acts on when assigned ``goal_kpi``: its observation with the goal field replaced, binned."""
    return per_field_discretize(obs._replace(goal=normalize_kpi(kind, goal_kpi)))


def csv_writer_trace(trace, path):
    """A trace file as ``csv.writer`` writes it, each value formatted on its own: floats ``.8g``, the rest ``str``.

    ``EpisodeTrace.to_csv`` must write the same bytes.
    """

    def fmt(value) -> str:
        return f"{value:.8g}" if isinstance(value, float) else str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        for row in trace.rows:
            writer.writerow([fmt(v) for v in row])


def write_pretrain_log(logs: list[dict], path) -> None:
    """``pretrain_log.csv`` as ``csv.DictWriter`` writes the pre-training log dicts.

    ``stage_pretrain`` must write the same bytes.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["agent_system", "intent_index", "goal_level", "achieved", "episode", "steps_taken"],
        )
        writer.writeheader()
        writer.writerows(logs)


def train_stats_csv(stats, path) -> None:
    """``train_log_<approach>.csv``: one row per episode of ``TrainStats``, each float as its shortest round-trip ``repr``.

    ``stage_train_supervisor`` must write the same bytes.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "reward", "grad_norm", "actor_loss", "critic_loss", "entropy"])
        writer.writerows(
            zip(
                range(len(stats.episode_rewards)),
                stats.episode_rewards,
                stats.grad_norms,
                stats.actor_losses,
                stats.critic_losses,
                stats.entropies,
            )
        )


# ---------------------------------------------------------------------------
# supervisor training, one step and one head at a time


def _softmax_1d(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax_1d(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def per_head_act(logits: np.ndarray, rng: np.random.Generator, explore: bool) -> list[int]:
    """Goal levels of ``[heads, levels]`` logits, head by head.

    Exploring, each head checks its logits, draws one ``rng.random()`` and
    takes ``searchsorted(side="right")`` on its cumulative probabilities;
    greedy, it takes the first maximum. ``supervisor.act`` must equal it bit
    for bit, and leave ``rng`` in the same state.
    """
    levels = []
    for row in logits:
        if not np.all(np.isfinite(row)):
            raise FloatingPointError("non-finite logits")
        if explore:
            probs = _softmax_1d(row)
            idx = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(probs) - 1)
        else:
            idx = int(np.argmax(row))
        levels.append(idx + 1)
    return levels


def dense_step(layer, x: np.ndarray) -> tuple:
    """One (possibly stacked) dense layer on fresh arrays: its (x, pre, out) cache."""
    pre = (layer.weights @ x[..., None])[..., 0] + layer.bias
    return x, pre, np.tanh(pre) if layer.activation == "tanh" else pre


def per_step_forward(policy, gammas: np.ndarray, tuples: np.ndarray, targets: np.ndarray, h1: np.ndarray, h2: np.ndarray):
    """One decision's actor forward on fresh arrays, its inputs concatenated, each GRU gate its own matvec.

    Returns (logits, h1', h2', caches). ``caches`` holds the (x, pre, out)
    of each dense layer by part ("enc", "fus" as per-layer lists; "mrg",
    "head") and ``unfused_gru_forward``'s (x, h, a, z, r, a_n, n) of each
    cell ("gru", a list). ``supervisor.forward_step``, which writes every
    value into its tape rows, must equal it bit for bit.
    """
    caches = {"enc": [], "fus": [], "gru": []}
    x = gammas
    for layer in policy.encoders:
        caches["enc"].append(dense_step(layer, x))
        x = caches["enc"][-1][2]
    caches["mrg"] = dense_step(policy.merger, np.concatenate([x, tuples], axis=1))
    x = np.concatenate([caches["mrg"][2].ravel(), targets])
    for layer in policy.fusion:
        caches["fus"].append(dense_step(layer, x))
        x = caches["fus"][-1][2]
    h1, cache = unfused_gru_forward(policy.gru[0], x, h1)
    caches["gru"].append(cache)
    h2, cache = unfused_gru_forward(policy.gru[1], h1, h2)
    caches["gru"].append(cache)
    caches["head"] = dense_step(policy.heads, h2)
    return caches["head"][2], h1, h2, caches


def replay_episode(policy, tape, steps):
    """``per_step_forward`` over the leaf inputs of the tape's first ``steps`` rows, from zero hidden states; yields each step's caches."""
    h1 = h2 = np.zeros(policy.dims.gru)
    for t in range(steps):
        _, h1, h2, caches = per_step_forward(policy, tape.gammas[t], tape.tuples[t], tape.targets[t], h1, h2)
        yield caches


def critic_step(policy, context: np.ndarray) -> tuple[float, list]:
    """The critic on one step's [fusion] context, each layer one ``W @ x`` matrix-vector product.

    Returns (value, per-layer (x, pre, out) caches). ``supervisor.score_contexts``,
    which scores every step in one call, must equal it step by step, bit for bit.
    """
    x, caches = context, []
    for layer in policy.critic:
        pre = layer.weights @ x + layer.bias
        out = np.tanh(pre) if layer.activation == "tanh" else pre
        caches.append((x, pre, out))
        x = out
    return float(x[0]), caches


def episode_loss(policy, tape, steps, advantages, returns) -> float:
    """The scalar A2C loss of the tape's first ``steps`` steps recomputed from their leaf inputs: the finite-difference target.

    Each step reruns the actor forward with ``per_step_forward``, scores the
    step's context (the fusion output) with ``critic_step`` and adds every
    head's actor and entropy terms, for the rungs in the step's sampler
    row, and the critic's squared error.
    """
    total = 0.0
    for t, caches in enumerate(replay_episode(policy, tape, steps)):
        logits = caches["head"][2]
        for i in range(policy.n_heads):
            logp = _log_softmax_1d(logits[i])
            probs = _softmax_1d(logits[i])
            entropy = float(-(probs * logp).sum())
            chosen = int(tape.sampler.idx[t, i])
            total += -advantages[t] * float(logp[chosen]) - ENTROPY_COEF * entropy
        err = critic_step(policy, caches["fus"][-1][2])[0] - returns[t]
        total += CRITIC_COEF * err * err
    return float(total)


UNIT_ROUNDOFF = 2.0**-53


def gamma(n: int) -> float:
    """Higham's gamma_n = n*u/(1 - n*u), with u the float64 unit roundoff.

    A float64 sum of n terms, or a dot product of length n, computed in any
    order lies within gamma_n * sum|terms| of the exact value (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    """
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def assert_reordered_sum(got: np.ndarray, ref: np.ndarray, abs_sum: np.ndarray, terms: int, label: str = ""):
    """Element by element, ``got`` and ``ref`` are sums of the same ``terms`` float64 terms in two orders.

    Each lies within gamma_terms * sum_t|p_t| of the exact sum, so the two
    lie within twice that of each other; ``abs_sum`` is sum_t|p_t|.
    """
    assert got.shape == ref.shape == abs_sum.shape, label
    excess = np.abs(got - ref) - 2.0 * gamma(terms) * abs_sum
    assert np.all(excess <= 0.0), (
        f"{label}: {np.count_nonzero(~(excess <= 0.0))} entries beyond 2*gamma_{terms}*sum|p_t|, worst by {np.nanmax(excess):.3g}"
    )


def dense_step_backward(layer, cache, dout: np.ndarray):
    """One step of one (possibly stacked) dense layer, whole-array formulas: (dW, db, dx)."""
    x, pre, out = cache
    dpre = dout * (1.0 - out * out if layer.activation == "tanh" else np.ones_like(pre))
    dx = (np.swapaxes(layer.weights, -1, -2) @ dpre[..., None])[..., 0]
    return dpre[..., :, None] * x[..., None, :], dpre.copy(), dx


def _stack_step_backward(layers, acc_layers, abs_layers, caches, dout: np.ndarray) -> np.ndarray:
    """One step back through a layer stack, adding each layer's terms into ``acc_layers`` and their magnitudes into ``abs_layers``."""
    for j in range(len(layers) - 1, -1, -1):
        dw, db, dout = dense_step_backward(layers[j], caches[j], dout)
        acc_layers[j].weights += dw
        acc_layers[j].bias += db
        abs_layers[j].weights += np.abs(dw)
        abs_layers[j].bias += np.abs(db)
    return dout


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gru_sequence_forward(cell, xs, h0: np.ndarray):
    """``nn.gru_forward`` over a whole sequence on ``nn.gru_caches`` buffers.

    Returns ([steps, hidden] hidden states, the step rows (a, zr, a_n, n)
    that an ``nn.GruBackward`` is built on).
    """
    steps, in_dim = len(xs), cell.Wn.shape[1] - cell.hidden_size
    a, zr, a_n, n = gru_caches(cell, steps)
    a[0, in_dim:] = h0
    for t, x in enumerate(xs):
        a[t, :in_dim] = x
        gru_forward(cell, a[t], zr[t], a_n[t], n[t], a[t + 1, in_dim:])
    return a[1:, in_dim:], (a[:steps], zr, a_n, n)


def unfused_gru_forward(cell, x: np.ndarray, h: np.ndarray):
    """One GRU step with each gate's own weight copy and matrix-vector product.

    Returns (h', cache). ``nn.gru_forward``, which runs both gates in one
    call, must equal it bit for bit.
    """
    Wz, Wr = np.array(cell.Wz), np.array(cell.Wr)
    a = np.concatenate([x, h])
    z = _sigmoid(Wz @ a + np.array(cell.bz))
    r = _sigmoid(Wr @ a + np.array(cell.br))
    a_n = np.concatenate([x, r * h])
    n = np.tanh(cell.Wn @ a_n + cell.bn)
    return (1.0 - z) * h + z * n, (x, h, a, z, r, a_n, n)


def per_step_gru_sequence_backward(cell, caches, dhs):
    """BPTT one step and one gate at a time, each step's gradients built whole and then added in step order.

    ``caches`` are those of ``unfused_gru_forward``. Returns (param grads by
    ``cell.params()`` name, their sum_t|p_t| by the same names, per-step
    input grads, dh0). ``nn.gru_sequence_backward`` must equal the input
    grads and dh0 bit for bit, and each param grad within
    ``assert_reordered_sum``'s bound.
    """
    Wz, Wr = np.array(cell.Wz), np.array(cell.Wr)
    grads = {k: np.zeros_like(v) for k, v in cell.params().items()}
    abs_sums = {k: np.zeros_like(v) for k, v in cell.params().items()}
    dxs = [None] * len(caches)
    carry = np.zeros(cell.hidden_size)
    for t in range(len(caches) - 1, -1, -1):
        x, h, a, z, r, a_n, n = caches[t]
        in_dim = x.shape[0]
        dh_new = dhs[t] + carry
        dz = dh_new * (n - h)
        dn = dh_new * z
        dh = dh_new * (1.0 - z)
        dn_pre = dn * (1.0 - n * n)
        step = {"Wn": np.outer(dn_pre, a_n), "bn": dn_pre.copy()}
        da_n = cell.Wn.T @ dn_pre
        dx = da_n[:in_dim].copy()
        drh = da_n[in_dim:]
        dr = drh * h
        dh += drh * r
        dz_pre = dz * z * (1.0 - z)
        step["Wz"], step["bz"] = np.outer(dz_pre, a), dz_pre.copy()
        da = Wz.T @ dz_pre
        dr_pre = dr * r * (1.0 - r)
        step["Wr"], step["br"] = np.outer(dr_pre, a), dr_pre.copy()
        da += Wr.T @ dr_pre
        dx += da[:in_dim]
        dh += da[in_dim:]
        for k in grads:
            grads[k] += step[k]
            abs_sums[k] += np.abs(step[k])
        dxs[t] = dx
        carry = dh
    return grads, abs_sums, dxs, carry


def _zeroed(policy):
    """A deep copy of ``policy`` with every parameter zero, and its parameters by checkpoint name."""
    acc = copy.deepcopy(policy)
    named = acc.named_params()
    for g in named.values():
        g[...] = 0.0
    return acc, named


def per_step_episode_gradients(policy, tape, steps, advantages, returns):
    """The A2C gradients of the tape's first ``steps`` steps one step and one head at a time, from their leaf inputs.

    Each step is replayed by ``per_step_forward``; the production caches
    are never read, only the leaf inputs and the rungs in the sampler's
    rows. Per step: each head's softmax, entropy and loss terms, the critic
    run on the step's context by ``critic_step``, then every dense layer's
    gradients built whole and added into its accumulator, the GRU through
    ``per_step_gru_sequence_backward``. Returns (gradients by
    checkpoint name, their sum_t|p_t| by the same names, loss terms).
    ``supervisor.episode_gradients``, which reads the tape rows and the
    critic ``score_contexts`` ran over all steps at once, must equal the
    loss terms bit for bit, and each gradient within
    ``assert_reordered_sum``'s bound.
    """
    acc, grads = _zeroed(policy)
    abs_acc, abs_sums = _zeroed(policy)
    replayed = list(replay_episode(policy, tape, steps))
    dh2, dc_direct = [], []
    actor_loss = entropy_total = critic_loss = 0.0
    for t, caches in enumerate(replayed):
        logits_t = caches["head"][2]
        dlogits = np.empty_like(logits_t)
        for i, logits in enumerate(logits_t):
            probs = _softmax_1d(logits)
            logp = _log_softmax_1d(logits)
            chosen = int(tape.sampler.idx[t, i])
            onehot = np.zeros_like(probs)
            onehot[chosen] = 1.0
            entropy = float(-(probs * logp).sum())
            actor_loss += -advantages[t] * float(logp[chosen]) - ENTROPY_COEF * entropy
            entropy_total += entropy
            dlogits[i] = advantages[t] * (probs - onehot)
            dlogits[i] += ENTROPY_COEF * probs * (logp + entropy)
        dh = _stack_step_backward([policy.heads], [acc.heads], [abs_acc.heads], [caches["head"]], dlogits)
        dh2.append(dh.sum(axis=0))
        value, crit_caches = critic_step(policy, caches["fus"][-1][2])
        err = value - returns[t]
        critic_loss += CRITIC_COEF * err * err
        dc_direct.append(
            _stack_step_backward(policy.critic, acc.critic, abs_acc.critic, crit_caches, np.array([2.0 * CRITIC_COEF * err]))
        )

    dcontext = dh2
    for j in (1, 0):
        gru_steps = [caches["gru"][j] for caches in replayed]
        cell_grads, cell_abs, dcontext, _ = per_step_gru_sequence_backward(policy.gru[j], gru_steps, dcontext)
        for name, g in cell_grads.items():
            grads[f"gru_l{j}.{name}"] += g
            abs_sums[f"gru_l{j}.{name}"] += cell_abs[name]

    n_agents, width = len(policy.agents), policy.dims.merger
    for t, caches in enumerate(replayed):
        dx = _stack_step_backward(policy.fusion, acc.fusion, abs_acc.fusion, caches["fus"], dc_direct[t] + dcontext[t])
        dm = dx[: n_agents * width].reshape(n_agents, width)
        dmx = _stack_step_backward([policy.merger], [acc.merger], [abs_acc.merger], [caches["mrg"]], dm)
        _stack_step_backward(policy.encoders, acc.encoders, abs_acc.encoders, caches["enc"], dmx[:, : policy.dims.encoder])
    losses = {"actor": float(actor_loss), "critic": float(critic_loss), "entropy": float(entropy_total)}
    return grads, abs_sums, losses


def two_pass_softmax_sample(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling per row: the uniforms first, then the probabilities as ``softmax`` computes them.

    ``nn.SoftmaxSampler.sample``, which exponentiates, normalises and sums
    in one scratch array before it draws, must equal its indices bit for
    bit and leave ``rng`` in the same state.
    """
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    u = rng.random(logits.shape[:-1])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    return np.minimum((np.cumsum(probs, axis=-1) <= u[..., None]).sum(axis=-1), logits.shape[-1] - 1)


def per_view_gradient_norm(grads) -> float:
    """Global L2 norm of a gradient policy, each per-agent or per-head view's squares summed on their own.

    The views are sliced here out of the stacked arrays and added in this
    order: per agent its encoder layers, per agent its merger, the fusion
    layers, the GRU cells' gates, per head its layer, the critic layers.
    ``supervisor.gradient_norm`` must equal it bit for bit.
    """
    named = grads.named_params()

    def layer(prefix, index=None):
        return [named[f"{prefix}.{n}"] if index is None else named[f"{prefix}.{n}"][index] for n in ("W", "b")]

    views = []
    for i in range(len(grads.agents)):
        for j in range(len(grads.encoders)):
            views += layer(f"enc_l{j}", i)
    for i in range(len(grads.agents)):
        views += layer("mrg", i)
    for j in range(len(grads.fusion)):
        views += layer(f"fus_l{j}")
    views += [named[f"gru_l{j}.{n}"] for j in range(len(grads.gru)) for n in ("Wz", "Wr", "Wn", "bz", "br", "bn")]
    for i in range(grads.n_heads):
        views += layer("head", i)
    for j in range(len(grads.critic)):
        views += layer(f"crit_l{j}")
    assert sum(v.size for v in views) == sum(g.size for g in named.values())
    return np.sqrt(sum(float((g * g).sum()) for g in views))


def per_key_adam(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float):
    """One Adam step per key with whole-expression temporaries; ``nn.adam_step`` must equal it bit for bit."""
    for key, g in grads.items():
        m.setdefault(key, np.zeros_like(params[key]))
        v.setdefault(key, np.zeros_like(params[key]))
        m[key] *= ADAM_BETA1
        m[key] += (1 - ADAM_BETA1) * g
        v[key] *= ADAM_BETA2
        v[key] += (1 - ADAM_BETA2) * (g * g)
        m_hat = m[key] / (1 - ADAM_BETA1**t)
        v_hat = v[key] / (1 - ADAM_BETA2**t)
        params[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def per_key_scratch_adam(params: dict, grads: dict, m: dict, v: dict, scratch: dict, t: int, lr: float):
    """One Adam step with two scratch arrays per key, as ``nn.adam_step`` ran before its scratch pair was shared."""
    m_scale = 1 - ADAM_BETA1**t
    v_scale = 1 - ADAM_BETA2**t
    for key, g in grads.items():
        if key not in m:
            m[key] = np.zeros_like(params[key])
            v[key] = np.zeros_like(params[key])
            scratch[key] = (np.empty_like(params[key]), np.empty_like(params[key]))
        step, denom = scratch[key]
        m[key] *= ADAM_BETA1
        m[key] += np.multiply(1 - ADAM_BETA1, g, out=step)
        v[key] *= ADAM_BETA2
        np.multiply(g, g, out=step)
        v[key] += np.multiply(1 - ADAM_BETA2, step, out=step)
        np.divide(m[key], m_scale, out=step)
        np.multiply(lr, step, out=step)
        np.divide(v[key], v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        params[key] -= np.divide(step, denom, out=step)


def whole_file_checkpoint(path, arrays: dict, meta: dict | None = None):
    """Write a v2 checkpoint as one joined byte string, as ``save_checkpoint`` did before it streamed.

    Names are not checked; the streamed writer must give the same bytes.
    """
    meta = meta or {}
    parts = [b"ATMARL-CKPT v2\n"]
    for key in sorted(meta):
        parts.append(f"meta {key} {meta[key]}\n".encode())
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8")
        raw = arr.tobytes()
        dims = "".join(f" {d}" for d in arr.shape)
        parts.append(f"block {name} {arr.ndim}{dims} {zlib.crc32(raw):08x}\n".encode())
        parts.append(raw + b"\n")
    Path(path).write_bytes(b"".join(parts))
