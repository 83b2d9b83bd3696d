"""Goal-issuing supervisor: capability encoders, context fusion, recurrent actor-critic.

Per agent, a private 2-layer encoder projects the capability vector and a
1-layer merger folds in the agent's current (state, action, goal) tuple. A
shared 3-layer fusion block combines all embeddings with the normalized
global targets into a context vector; a 2-layer GRU actor with one softmax
head per goal slot emits goal rungs, and a 2-layer dense critic scores the
context. The per-agent encoder and merger weights and the per-slot head
weights are each stacked into one layer, [copies, out, in], so all agents
or heads run in one call. Training is episodic advantage actor-critic with
backpropagation through the whole episode. The critic is only the update's
baseline: acting never runs it, and training scores an episode's contexts
in one call once the episode is over. One preallocated ``EpisodeTape``
owns every buffer of an episode and is the one handle on it: the forward
writes step t into row t, the tape's sampler keeps step t's rungs in its
row t, the backward reads the rows of all steps at once, and only a
training tape holds the critic's rows and the GRU backward's programs,
built with it; evaluation acts on a tape of two rows used as a ring. Each
dense layer keeps an input and an output row per step, no pre-activation.
A step encodes its row's capabilities exactly when the episode has not
used that row yet: every step of a training tape, and the ring's first
two; later ring steps reuse the latents their row holds. The tape builds the numpy calls of each row's
forward, of its sampling and of the GRU recurrence's backward once, each
program a plain list of per-row call lists, so a step runs flat lists of
calls with ``nn.run``. The capability vectors stay the caller's: a step
copies their values into its row, and nothing rebinds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import slice_sim
from .agents import (
    ACHIEVEMENT_HORIZON,
    BOTH_PLANES,
    AgentId,
    CapabilityVector,
    GOAL_LEVELS,
    QTable,
    agent_roster,
    goal_achieved,
    goal_ladder,
    normalize_kpi,
    roster_members,
    run_episode,
)
from .config import ScenarioConfig
from .errors import TrainingDivergence
from .nn import (
    DenseLayer,
    GruBackward,
    GruCell,
    OptimizerState,
    SoftmaxSampler,
    adam_step,
    dense_backward,
    dense_calls,
    gru_caches,
    gru_calls,
    gru_sequence_backward,
    log_softmax,
    run,
    softmax,
    stack_backward,
    stack_caches,
    stack_calls,
    stack_forward,
)
from .slice_sim import KpiKind, ServiceSpec

N_ACTION_ONEHOT = 3
TUPLE_DIM = 4 + N_ACTION_ONEHOT + 1  # observation, one-hot action, normalized goal
_ONEHOT = tuple(tuple(float(i == j) for j in range(N_ACTION_ONEHOT)) for i in range(N_ACTION_ONEHOT))


class GoalMode(str, Enum):
    AGENT_LEVEL = "agent"  # one head per agent (2K heads)
    SERVICE_LEVEL = "service"  # one head per intent, broadcast to both planes


# members read on every step, bound once: on Python 3.11 reading an enum
# member off its class costs about 180 ns
_QOE = KpiKind.QOE


@dataclass
class PolicyDims:
    encoder: int = 32
    merger: int = 32
    fusion: int = 64
    gru: int = 64


@dataclass
class SupervisorPolicy:
    mode: GoalMode
    agents: list[AgentId]
    dims: PolicyDims
    encoders: list[DenseLayer]  # 2 layers, each stacked over agents
    merger: DenseLayer  # stacked over agents
    fusion: list[DenseLayer]  # shared, 3 layers
    gru: list[GruCell]  # 2 stacked cells
    heads: DenseLayer  # one linear head per goal slot, stacked
    critic: list[DenseLayer]  # 2 layers to a scalar

    @property
    def n_heads(self) -> int:
        return len(self.heads.weights)

    def named_params(self) -> dict[str, np.ndarray]:
        """Every parameter array once, by checkpoint name: a stacked layer is one array over its copies.

        So ``enc_l0.W`` is [agents, out, in] and ``head.b`` [heads, levels];
        a GRU cell has one array per gate. The names run encoders, merger,
        fusion, GRU cells, heads, critic.
        """
        parts = [(f"enc_l{j}", layer) for j, layer in enumerate(self.encoders)]
        parts += [("mrg", self.merger)]
        parts += [(f"fus_l{j}", layer) for j, layer in enumerate(self.fusion)]
        parts += [(f"gru_l{j}", cell) for j, cell in enumerate(self.gru)]
        parts += [("head", self.heads)]
        parts += [(f"crit_l{j}", layer) for j, layer in enumerate(self.critic)]
        return {f"{prefix}.{name}": arr for prefix, part in parts for name, arr in part.params().items()}

    def zeros_like(self) -> SupervisorPolicy:
        """A policy of the same layout, and the same roster, with every parameter zero: a gradient accumulator."""
        return replace(
            self,
            encoders=[layer.zeros_like() for layer in self.encoders],
            merger=self.merger.zeros_like(),
            fusion=[layer.zeros_like() for layer in self.fusion],
            gru=[cell.zeros_like() for cell in self.gru],
            heads=self.heads.zeros_like(),
            critic=[layer.zeros_like() for layer in self.critic],
        )


def create_policy(
    rng: np.random.Generator,
    config: ScenarioConfig,
    mode: GoalMode = GoalMode.AGENT_LEVEL,
    dims: PolicyDims | None = None,
) -> SupervisorPolicy:
    dims = dims or PolicyDims()
    agents = agent_roster(config)
    k = config.intent_count
    n_heads = len(agents) if mode is GoalMode.AGENT_LEVEL else k
    fusion_in = len(agents) * dims.merger + k
    # drawn agent by agent, then stacked, so the initial weights keep their draw order
    per_agent = [
        [
            DenseLayer.create(rng, GOAL_LEVELS, dims.encoder, "tanh"),
            DenseLayer.create(rng, dims.encoder, dims.encoder, "tanh"),
        ]
        for _ in agents
    ]
    encoders = [DenseLayer.stack(list(layers)) for layers in zip(*per_agent)]
    merger = DenseLayer.stack([DenseLayer.create(rng, dims.encoder + TUPLE_DIM, dims.merger, "tanh") for _ in agents])
    fusion = [
        DenseLayer.create(rng, fusion_in, dims.fusion, "tanh"),
        DenseLayer.create(rng, dims.fusion, dims.fusion, "tanh"),
        DenseLayer.create(rng, dims.fusion, dims.fusion, "tanh"),
    ]
    gru = [GruCell.create(rng, dims.fusion, dims.gru), GruCell.create(rng, dims.gru, dims.gru)]
    heads = DenseLayer.stack([DenseLayer.create(rng, dims.gru, GOAL_LEVELS, "identity") for _ in range(n_heads)])
    critic = [
        DenseLayer.create(rng, dims.fusion, dims.fusion, "tanh"),
        DenseLayer.create(rng, dims.fusion, 1, "identity"),
    ]
    return SupervisorPolicy(
        mode=mode,
        agents=agents,
        dims=dims,
        encoders=encoders,
        merger=merger,
        fusion=fusion,
        gru=gru,
        heads=heads,
        critic=critic,
    )


# ---------------------------------------------------------------------------
# the episode tape and the forward


class EpisodeTape:
    """Preallocated float64 rows of one policy's actor over up to ``steps`` decisions, and the numpy calls that fill them.

    A training tape has one row per step, [steps, …] (``rows`` is
    ``steps``): step t reads and writes row t, and the backward reads the
    rows of all steps. An ``acting`` tape, evaluation's, keeps only two
    rows used as a ring: step t runs on row t % 2, and each cell hands its
    new state to the other row. Its step lists (``logit_rows``,
    ``gamma_rows``, ``tuple_rows`` and ``step_calls``) alias those two
    rows, so a step indexes either tape by t. Training refuses it.

    Each dense part has (x, out) buffers from ``nn.stack_caches``:
    ``enc`` (two layers), ``mrg``, ``fus`` (three layers) and ``head``; each
    GRU cell has (a, zr, a_n, n) from ``nn.gru_caches`` in ``gru``. A part's
    output rows are views into the input of the next, so nothing is
    concatenated: the encoders write the first columns of the merger input,
    whose other columns are the step's tuples; the merger writes the fusion
    input, whose last columns are the targets; the fusion output is the
    first cell's input; each cell writes its new hidden state into its own
    next row, and the first cell's is copied into the second cell's input;
    the heads read the second cell's new state.

    The leaf inputs are written into a step's ``gamma_rows`` and
    ``tuple_rows``, and ``start`` sets the targets of every row. The named
    arrays are views of those buffers. A tape is reused across episodes:
    ``start`` begins one, and an episode of T steps on a training tape
    reads and writes only rows below T.

    The tape carries its ``policy``, and is the one handle on an episode of
    it: ``forward_step``, ``act``, ``PolicyGoals``, ``rollout_episode``,
    ``score_contexts`` and ``episode_gradients`` take the tape, and each
    reads the policy from here. Each row has two prebuilt call lists, made
    of the ``nn.dense_calls`` and ``nn.gru_calls`` of its parts with their
    row views, which hold the policy's parameter arrays, so an update must
    write them in place (Adam and ``load_policy`` do): ``encode_calls[t]``
    runs the encoders, only on a step below ``rows``, and ``step_calls[t]``
    the rest of the actor, each run by ``nn.run``. ``sampler`` samples or
    picks each step's logits and keeps step t's rungs, 0-based, in row t of
    its [steps, heads] ``idx`` on either tape: the one record of an
    episode's rungs. A training tape also holds what only training reads,
    built with it: ``crit``, the critic's (x, out) rows over ``contexts``,
    and ``gru_backward``, each cell's ``nn.GruBackward``. The cells'
    backwards run top cell first, one after the other, so the first cell's
    program shares the top one's buffers where shapes agree. An acting tape
    holds ``None`` for both.
    """

    def __init__(self, policy: SupervisorPolicy, steps: int, acting: bool = False):
        n_agents, dims = len(policy.agents), policy.dims
        embedded = n_agents * dims.merger
        self.policy = policy
        self.length = steps
        self.acting = acting
        self.rows = rows = 2 if acting else steps
        self.gru = [gru_caches(cell, rows) for cell in policy.gru]
        if acting:
            # a ring: each cell writes its new state into the other row
            self.gru = [(a[:2], zr, a_n, n) for a, zr, a_n, n in self.gru]
        # row r's new state of the second cell, which the heads read
        top = self.gru[1][0][::-1] if acting else self.gru[1][0][1:]
        mrg_x = np.empty((rows, n_agents, dims.encoder + TUPLE_DIM))
        fus_x = np.empty((rows, policy.fusion[0].weights.shape[1]))
        self.enc = stack_caches(policy.encoders, np.empty((rows, n_agents, GOAL_LEVELS)), mrg_x[..., : dims.encoder])
        (self.mrg,) = stack_caches([policy.merger], mrg_x, fus_x[:, :embedded].reshape(rows, n_agents, dims.merger))
        self.fus = stack_caches(policy.fusion, fus_x, self.gru[0][0][:rows, : dims.fusion])
        (self.head,) = stack_caches([policy.heads], top[:, dims.gru :])
        self.gammas = self.enc[0][0]  # [rows, agents, levels]
        self.latents = mrg_x[..., : dims.encoder]  # [rows, agents, encoder]
        self.tuples = mrg_x[..., dims.encoder :]  # [rows, agents, TUPLE_DIM]
        self.targets = fus_x[:, embedded:]  # [rows, intents]
        self.contexts = self.fus[-1][1]  # [rows, fusion]
        self.logits = self.head[1]  # [rows, heads, levels]
        self.crit: list[tuple] | None = None
        self.gru_backward: tuple[GruBackward, ...] | None = None
        if not acting:
            self.crit = stack_caches(policy.critic, self.contexts)
            upper = GruBackward(policy.gru[1], self.gru[1])
            self.gru_backward = (GruBackward(policy.gru[0], self.gru[0], upper), upper)

        cell1, cell2 = policy.gru
        scratch1, scratch2 = np.empty(dims.gru), np.empty(dims.gru)
        (a1, zr1, a_n1, n1), (a2, zr2, a_n2, n2) = self.gru
        # one view per row of each buffer, made at once; a view serves every
        # call on its memory, so the hidden state a step writes is the view
        # the next step reads
        views = [list(arr) for arr in (*self.mrg, a1, zr1, a_n1, n1, a2, zr2, a_n2, n2, self.logits)]
        x, out, a1, zr1, a_n1, n1, a2, zr2, a_n2, n2, logits = views
        x1, h1 = list(self.gru[0][0][:, : dims.fusion]), list(self.gru[0][0][:, dims.fusion :])
        x2, h2 = list(self.gru[1][0][:, : dims.gru]), list(self.gru[1][0][:, dims.gru :])
        encode, rest = [], []
        for r in range(rows):
            after = (r + 1) % len(h1)  # the next row of a cell's steps + 1 rows, or the ring's other row
            # the fusion output is the first cell's input
            calls = dense_calls(policy.merger, x[r], out[r]) + stack_calls(policy.fusion, self.fus, r, x1[r])
            calls += gru_calls(cell1, a1[r], zr1[r], a_n1[r], n1[r], h1[after], scratch1, x1[r], h1[r])
            calls.append((np.copyto, (x2[r], h1[after])))
            calls += gru_calls(cell2, a2[r], zr2[r], a_n2[r], n2[r], h2[after], scratch2, x2[r], h2[r])
            calls += dense_calls(policy.heads, h2[after], logits[r])
            encode.append(stack_calls(policy.encoders, self.enc, r))
            rest.append(calls)
        # step t runs on row t % rows, so a ring's step lists alias its two rows
        ring = [t % rows for t in range(steps)]
        gammas, tuples = list(self.gammas), list(self.tuples)
        self.logit_rows = [logits[r] for r in ring]
        self.gamma_rows = [gammas[r] for r in ring]
        self.tuple_rows = [tuples[r] for r in ring]
        self.sampler = SoftmaxSampler(self.logit_rows)
        self.encode_calls = encode  # step t < rows runs on row t
        self.step_calls = [rest[r] for r in ring]

    def start(self, targets: np.ndarray) -> None:
        """Begin an episode: the normalized targets in every row, and zero hidden states before step 0."""
        self.targets[...] = targets
        for h in self.hidden(0):
            h[...] = 0.0

    def hidden(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of both cells' hidden states before step ``t``, which are those step t-1 left."""
        return tuple(a[t % len(a), a.shape[1] - n.shape[1] :] for a, _, _, n in self.gru)


def forward_step(tape: EpisodeTape, t: int) -> np.ndarray:
    """Step ``t``'s forward of the tape's actor, from the leaf inputs in row t; returns the [heads, levels] logits row.

    On an acting tape, row t is row t % 2. The step encodes its row's
    capabilities when the episode has not used that row yet (``t <
    tape.rows``); a later step of the ring reuses the latents its row
    already holds, so it reads no capability row.
    """
    if t < tape.rows:
        run(tape.encode_calls[t])
    run(tape.step_calls[t])
    return tape.logit_rows[t]


def act(tape: EpisodeTape, t: int, rng: np.random.Generator, explore: bool) -> list[int]:
    """One supervisor decision, ``forward_step`` on row ``t``: each head's goal rung, sampled or greedy."""
    forward_step(tape, t)
    idx = tape.sampler.sample(t, rng) if explore else tape.sampler.greedy(t)
    return [i + 1 for i in idx.tolist()]


def supervisor_reward(kpis: list[float], services: list[ServiceSpec]) -> float:
    """Shortfall-only deviation penalty plus a bonus when every intent is met; ``kpis`` in service order."""
    total_dev = 0.0
    for kpi, svc in zip(kpis, services):
        target = svc.kpi_target
        dev = (target - kpi) / target if svc.kpi_kind is _QOE else (kpi - target) / target
        # only a shortfall counts: a NaN, 0.0 or -0.0 deviation adds nothing, as max(0.0, dev) adds 0.0
        if dev > 0.0:
            total_dev += dev
    return -total_dev + (1.0 if total_dev == 0.0 else 0.0)


# ---------------------------------------------------------------------------
# capability bookkeeping during supervisor training


class CapabilityTracker:
    """Online EMA of goal-achievement per agent while assignments run."""

    def __init__(self, capabilities: dict[str, CapabilityVector], config: ScenarioConfig):
        self.capabilities = capabilities
        # per roster agent: key, intent index, KPI kind and goal ladder
        self._roster = [(key, k, kind, goal_ladder(kind)) for _, key, k, kind, _ in roster_members(config)]
        self._active: dict[str, tuple[int, int, bool]] = {}  # key -> (level, steps, achieved)

    def observe_step(self, levels: list[int], kpis: list[float]):
        """Count one step of each roster agent's assigned rung, ``levels`` in roster order, against the report's ``kpis``."""
        for (key, k, kind, ladder), level in zip(self._roster, levels):
            active = self._active.get(key)
            if active is None or active[0] != level:
                if active is not None:
                    self.capabilities[key].ema_update(active[0], active[2])
                active = (level, 0, False)
            lvl, steps, achieved = active
            steps += 1
            if not achieved and steps <= ACHIEVEMENT_HORIZON and goal_achieved(kpis[k], ladder[lvl - 1], kind):
                achieved = True
            if steps >= ACHIEVEMENT_HORIZON:
                self.capabilities[key].ema_update(lvl, achieved)
                steps, achieved = 0, False
            self._active[key] = (lvl, steps, achieved)

    def flush(self):
        for key, (lvl, steps, achieved) in self._active.items():
            if steps > 0:
                self.capabilities[key].ema_update(lvl, achieved)
        self._active.clear()


# ---------------------------------------------------------------------------
# episodic A2C training


DISCOUNT = 0.95
ENTROPY_COEF = 0.01
LEARNING_RATE = 1e-3
CRITIC_COEF = 0.5
GRAD_CLIP = 5.0
# fraction of training episodes that start from randomized knob settings,
# so the goal policy learns recovery behavior beyond the canonical
# default-start transient
EXPLORING_STARTS = 0.5


@dataclass
class TrainConfig:
    episodes: int = 500  # the canonical campaign's budget, experiments.SUPERVISOR_EPISODES
    episode_length: int = 40


def _refuse_acting(tape: EpisodeTape) -> None:
    if tape.acting:
        raise ValueError("an acting tape keeps two rows, not an episode's rows to train on")


def score_contexts(tape: EpisodeTape, steps: int) -> np.ndarray:
    """Run the critic once over the first ``steps`` [fusion] context rows, into the tape's critic rows; returns the [steps] values.

    The values are a view of the critic's last rows, which the next episode
    on the tape overwrites. Each step's row is its own matrix-vector product
    in the stacked matmul, bit-equal to scoring that step's context alone.
    An acting tape keeps no episode's contexts, and is refused with
    ``ValueError``.
    """
    _refuse_acting(tape)
    return stack_forward(tape.policy.critic, tape.crit, slice(steps))[:, 0]


def discounted_returns(rewards: list[float], gamma: float) -> np.ndarray:
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def episode_gradients(
    tape: EpisodeTape,
    advantages: np.ndarray,
    returns: np.ndarray,
    acc: SupervisorPolicy,
) -> tuple[SupervisorPolicy, dict[str, float]]:
    """Backpropagate the A2C loss of the tape's policy through its episode of ``len(returns)`` steps.

    The episode's rows are those its steps left on the tape: the actor's,
    the rungs its sampler picked, and the critic's, which ``score_contexts``
    has filled. Advantages are treated as constants. Every layer but the
    GRU runs its backward once over the tape rows of all steps; only the
    recurrence loops over time. Returns (gradients, loss terms), the
    gradients in ``acc``, a policy of the same layout, zeroed and refilled.
    """
    steps = len(returns)
    policy = tape.policy
    for g in acc.named_params().values():
        g.fill(0.0)

    def cut(cache):
        return tuple(arr[:steps] for arr in cache)

    # actor heads over [steps, heads, levels]; the loss totals sum in (step, head) order
    logits = tape.logits[:steps]
    probs = softmax(logits)
    logp = log_softmax(logits)
    entropy = -(probs * logp).sum(axis=-1)
    chosen = tape.sampler.idx[:steps, :, None]
    chosen_logp = np.take_along_axis(logp, chosen, axis=-1)[..., 0]
    actor_loss = 0.0
    entropy_total = 0.0
    for adv, logp_t, entropy_t in zip(advantages.tolist(), chosen_logp.tolist(), entropy.tolist()):
        for lp, ent in zip(logp_t, entropy_t):
            actor_loss += -adv * lp - ENTROPY_COEF * ent
            entropy_total += ent
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, chosen, 1.0, axis=-1)
    dlogits = advantages[:, None, None] * (probs - onehot)
    dlogits += ENTROPY_COEF * probs * (logp + entropy[..., None])
    dh = dense_backward(policy.heads, cut(tape.head), dlogits, acc.heads.params())
    dh2 = dh.sum(axis=1)  # [steps, gru]: each step's heads summed in head order

    # critic: 0.5-weighted squared error on the context value
    err = tape.crit[-1][1][:steps, 0] - returns
    critic_loss = 0.0
    for e in err.tolist():
        critic_loss += CRITIC_COEF * e * e
    dc_direct = stack_backward(
        policy.critic,
        [cut(cache) for cache in tape.crit],
        (2.0 * CRITIC_COEF * err)[:, None],
        [layer.params() for layer in acc.critic],
    )

    # BPTT through the two stacked GRU cells, top cell first, down to the context
    dcontext = dh2
    for j in (1, 0):
        dcontext, _ = gru_sequence_backward(tape.gru_backward[j], steps, dcontext, acc.gru[j])

    # fusion, then all agents' mergers and encoders
    dx = stack_backward(
        policy.fusion,
        [cut(cache) for cache in tape.fus],
        dc_direct + dcontext,
        [layer.params() for layer in acc.fusion],
    )
    n_agents = len(policy.agents)
    dm = dx[:, : n_agents * policy.dims.merger].reshape(steps, n_agents, policy.dims.merger)
    dmx = dense_backward(policy.merger, cut(tape.mrg), dm, acc.merger.params())
    stack_backward(
        policy.encoders,
        [cut(cache) for cache in tape.enc],
        dmx[..., : policy.dims.encoder],
        [layer.params() for layer in acc.encoders],
    )

    losses = {
        "actor": float(actor_loss),
        "critic": float(critic_loss),
        "entropy": float(entropy_total),
    }
    return acc, losses


def gradient_norm(grads: SupervisorPolicy) -> float:
    """The global L2 norm of a gradient policy, summed per agent or head copy.

    Each stacked array's squares are summed per copy (a contiguous row sum,
    bit-equal to that copy's own ``.sum()``), every other array's whole. The
    totals are added copy-major within the encoders, the merger and the
    heads (agent 0's ``l0.W, l0.b, l1.W, l1.b``, then agent 1's), in this
    order: encoders, merger, fusion, GRU cells, heads, critic.
    """
    params = grads.named_params()

    def copy_major(prefix: str) -> list[float]:
        squares = [g * g for key, g in params.items() if key.startswith(prefix)]
        per_array = [sq.reshape(len(sq), -1).sum(axis=1).tolist() for sq in squares]
        return [total for copy in zip(*per_array) for total in copy]

    def whole(*prefixes: str) -> list[float]:
        return [float((g * g).sum()) for key, g in params.items() if key.startswith(prefixes)]

    return np.sqrt(sum(copy_major("enc_") + copy_major("mrg.") + whole("fus_", "gru_") + copy_major("head.") + whole("crit_")))


@dataclass
class TrainStats:
    """Per-episode training telemetry in episode order.

    Each episode's summed reward, its gradient norm before clipping, and the
    loss terms of ``episode_gradients``: the actor loss (entropy bonus
    included), the critic loss and the policy entropy, each summed over the
    episode's steps (and heads).
    """

    episode_rewards: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    actor_losses: list[float] = field(default_factory=list)
    critic_losses: list[float] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)

    @property
    def final_mean_reward(self) -> float:
        tail = self.episode_rewards[-max(len(self.episode_rewards) // 5, 1):]
        return float(np.mean(tail))


class PolicyGoals:
    """Goal source for ``run_episode``: the supervisor assigns fresh goals every step.

    Head i drives agent i, or in service mode the intent's head drives both
    of its agents; each agent's goal is its head's rung on that agent's goal
    ladder. Step t's decision, an ``act`` of ``tape``'s policy, writes its
    leaf inputs into row t of ``tape`` (whose ``start`` it calls): each
    agent's tuple of the engine's observation, written from one flat list,
    which before the first assignment is made against the global targets,
    and the ``rho`` of the roster's capability vectors, copied in one
    assignment at each step that encodes them (see ``forward_step``):
    every step of a training tape, so a tracker's in-place updates reach
    the next step, and the first two of an acting tape, whose capabilities
    stay fixed. The source keeps the vectors and never rebinds them. An
    exploring source samples its rungs, a greedy one takes each head's
    first maximum. The latest decision's rung of each head (``levels``)
    and of each agent in roster order (``agent_levels``) stay readable
    until the next step.
    """

    def __init__(
        self,
        tape: EpisodeTape,
        config: ScenarioConfig,
        capabilities: dict[str, CapabilityVector],
        rng: np.random.Generator,
        explore: bool,
    ):
        policy = tape.policy
        self.rng = rng
        self.explore = explore
        self.tape = tape
        tape.start(np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in config.services]))
        per_agent = policy.mode is GoalMode.AGENT_LEVEL
        self._keys = [a.key for a in policy.agents]
        self._vectors = [capabilities[key] for key in self._keys]
        self._heads = [i if per_agent else a.intent_index for i, a in enumerate(policy.agents)]
        self._ladders = [goal_ladder(config.services[a.intent_index].kpi_kind) for a in policy.agents]
        self.levels: list[int] = []
        self.agent_levels: list[int] = []

    def __call__(self, t, seen, last_action):
        keys = self._keys
        tape = self.tape
        if t < tape.rows:
            # read at every step that encodes: capability tracking updates each rho in place during training
            tape.gamma_rows[t][...] = [vec.rho for vec in self._vectors]
        # per agent: observation, one-hot last action, normalized goal (the
        # observation's own goal field)
        flat = []
        for key in keys:
            obs = seen[key]
            flat += obs
            flat += _ONEHOT[last_action[key]]
            flat.append(obs.goal)
        tape.tuple_rows[t].flat = flat
        self.levels = act(tape, t, self.rng, self.explore)
        self.agent_levels = [self.levels[head] for head in self._heads]
        goals = {key: ladder[level - 1] for key, ladder, level in zip(keys, self._ladders, self.agent_levels)}
        return goals, BOTH_PLANES


def rollout_episode(
    tape: EpisodeTape,
    config: ScenarioConfig,
    qtables: dict[str, QTable],
    tracker: CapabilityTracker,
    rng: np.random.Generator,
) -> tuple[list[float], np.ndarray]:
    """Run one exploring training episode of ``tape.length`` steps on the tape, the frozen agents in the loop; returns (rewards, values).

    An acting tape is refused with ``ValueError`` before anything is drawn
    or tracked. The rollout's first draw picks an exploring start
    (``EXPLORING_STARTS``): random priorities and MBR caps instead of the
    scenario's defaults. The supervisor samples its goals from
    ``tracker.capabilities``, the tracker counts every step's rungs against
    its KPIs, and it is flushed at the end.
    Then ``score_contexts`` scores the episode: the values are its view of
    the critic's rows. The episode stays on the tape, its sampled rungs in
    the sampler's rows, for ``episode_gradients``.
    """
    _refuse_acting(tape)
    state = slice_sim.init_scenario(config)
    if rng.random() < EXPLORING_STARTS:
        n = config.intent_count
        state.priority = rng.integers(1, 6, size=n).tolist()
        state.mbr = [slice_sim.MBR_LEVELS[i] for i in rng.integers(2, 7, size=n)]
    goals = PolicyGoals(tape, config, tracker.capabilities, rng, explore=True)
    rewards = []

    def record(t, state, kpis, current, active, taken, seen):
        tracker.observe_step(goals.agent_levels, kpis)
        rewards.append(supervisor_reward(kpis, config.services))

    run_episode(state, qtables, goals, rng, tape.length, record)
    tracker.flush()
    return rewards, score_contexts(tape, len(rewards))


def train_supervisor(
    policy: SupervisorPolicy,
    config: ScenarioConfig,
    qtables: dict[str, QTable],
    capabilities: dict[str, CapabilityVector],
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> TrainStats:
    """Episodic A2C over the frozen MARL systems; mutates the policy in place.

    One episode tape, one capability tracker and one gradient accumulator
    serve every episode: ``rollout_episode`` leaves an episode on the tape
    and returns its rewards and critic values, and ``episode_gradients``
    reads its rows there.
    """
    opt = OptimizerState(lr=LEARNING_RATE)
    params = policy.named_params()
    tracker = CapabilityTracker(capabilities, config)
    tape = EpisodeTape(policy, cfg.episode_length)
    acc = policy.zeros_like()
    stats = TrainStats()
    for episode in range(cfg.episodes):
        rewards, values = rollout_episode(tape, config, qtables, tracker, rng)
        returns = discounted_returns(rewards, DISCOUNT)
        advantages = returns - values
        if len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        acc, losses = episode_gradients(tape, advantages, returns, acc)
        # the one finiteness check per update: a non-finite gradient, or one
        # whose square overflows, makes the norm non-finite
        norm = gradient_norm(acc)
        if not np.isfinite(norm):
            raise TrainingDivergence(
                "non-finite gradients during supervisor training",
                diagnostics={"episode": episode, "losses": losses},
            )
        grads = acc.named_params()
        if norm > GRAD_CLIP:
            scale = GRAD_CLIP / norm
            for g in grads.values():
                g *= scale
        adam_step(params, grads, opt)
        episode_reward = float(np.sum(rewards))
        if not np.isfinite(episode_reward):
            raise TrainingDivergence(
                "non-finite episode reward", diagnostics={"episode": episode}
            )
        stats.episode_rewards.append(episode_reward)
        stats.grad_norms.append(float(norm))
        stats.actor_losses.append(losses["actor"])
        stats.critic_losses.append(losses["critic"])
        stats.entropies.append(losses["entropy"])
    return stats
