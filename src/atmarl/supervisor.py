"""Goal-issuing supervisor: capability encoders, context fusion, recurrent actor-critic.

Per agent, a private 2-layer encoder projects the capability vector and a
1-layer merger folds in the agent's current (state, action, goal) tuple. A
shared 3-layer fusion block combines all embeddings with the normalized
global targets into a context vector; a 2-layer GRU actor with one softmax
head per goal slot emits goal rungs, and a 2-layer dense critic scores the
context. The per-agent encoder and merger weights and the per-slot head
weights are each stacked into one layer, [copies, out, in], so all agents or
heads run in one call. Training is episodic advantage actor-critic with
backpropagation through the whole episode. The critic is only the update's
baseline: acting never runs it, and training scores an episode's contexts
in one call once the episode is over. Every actor value of an episode lives
on one preallocated ``EpisodeTape``: the forward writes step t into row t,
and the backward reads the rows of all steps at once.
"""

from __future__ import annotations

import csv
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
    goal_value,
    normalize_kpi,
    run_episode,
)
from .config import ScenarioConfig
from .errors import TrainingDivergence
from .nn import (
    DenseLayer,
    GruCell,
    OptimizerState,
    adam_step,
    dense_backward,
    dense_forward,
    gru_caches,
    gru_forward,
    gru_sequence_backward,
    log_softmax,
    softmax,
    softmax_sample,
    stack_backward,
    stack_caches,
    stack_forward,
)
from .slice_sim import KpiKind, KpiReport, ServiceSpec

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
    """Preallocated float64 [steps, …] rows of one policy's actor over up to ``steps`` decisions.

    Each dense part has (x, pre, out) buffers from ``nn.stack_caches``:
    ``enc`` (two layers), ``mrg``, ``fus`` (three layers) and ``head``; each
    GRU cell has (a, zr, a_n, n) from ``nn.gru_caches`` in ``gru``. Step t
    reads and writes row t. A part's output rows are views into the input of
    the next, so nothing is concatenated: the encoders write the first
    columns of the merger input, whose other columns are the step's tuples;
    the merger writes the fusion input, whose last columns are the targets;
    the fusion output is the first cell's input; each cell writes its new
    hidden state into its own next row, and the first cell's is copied into
    the second cell's input; the heads read the second cell's new state.

    The leaf inputs are written into ``gammas`` and ``tuples`` row by row,
    and ``start`` sets the targets of every row. The named arrays are views
    of those buffers. A tape is reused across episodes: ``start`` begins
    one, and an episode of T steps reads and writes only rows below T.
    """

    def __init__(self, policy: SupervisorPolicy, steps: int):
        n_agents, dims = len(policy.agents), policy.dims
        embedded = n_agents * dims.merger
        self.gru = [gru_caches(cell, steps) for cell in policy.gru]
        mrg_x = np.empty((steps, n_agents, dims.encoder + TUPLE_DIM))
        fus_x = np.empty((steps, policy.fusion[0].weights.shape[1]))
        self.enc = stack_caches(policy.encoders, np.empty((steps, n_agents, GOAL_LEVELS)), mrg_x[..., : dims.encoder])
        (self.mrg,) = stack_caches([policy.merger], mrg_x, fus_x[:, :embedded].reshape(steps, n_agents, dims.merger))
        self.fus = stack_caches(policy.fusion, fus_x, self.gru[0][0][:steps, : dims.fusion])
        (self.head,) = stack_caches([policy.heads], self.gru[1][0][1:, dims.gru :])
        self.gammas = self.enc[0][0]  # [steps, agents, levels]
        self.latents = mrg_x[..., : dims.encoder]  # [steps, agents, encoder]
        self.tuples = mrg_x[..., dims.encoder :]  # [steps, agents, TUPLE_DIM]
        self.targets = fus_x[:, embedded:]  # [steps, intents]
        self.contexts = self.fus[-1][2]  # [steps, fusion]
        self.logits = self.head[1]  # [steps, heads, levels]

    def start(self, targets: np.ndarray) -> None:
        """Begin an episode: the normalized targets in every row, and zero hidden states before step 0."""
        self.targets[...] = targets
        for h in self.hidden(0):
            h[...] = 0.0

    def hidden(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of both cells' hidden states before step ``t``, which are those step t-1 left."""
        return tuple(a[t, a.shape[1] - n.shape[1] :] for a, _, _, n in self.gru)


def forward_step(policy: SupervisorPolicy, tape: EpisodeTape, t: int, encode: bool = True) -> np.ndarray:
    """Step ``t``'s actor forward on the tape, from the leaf inputs in row t; returns the [heads, levels] logits row.

    Without ``encode`` the step reuses step t-1's capability latents, for
    capabilities that did not change; its encoder rows stay unwritten, so
    that tape is for acting only, not for a backward.
    """
    if encode:
        stack_forward(policy.encoders, tape.enc, t)
    else:
        tape.latents[t] = tape.latents[t - 1]
    x, pre, out = tape.mrg
    dense_forward(policy.merger, x[t], pre[t], out[t])
    stack_forward(policy.fusion, tape.fus, t)
    (a1, zr1, a_n1, n1), (a2, zr2, a_n2, n2) = tape.gru
    fusion, gru = policy.dims.fusion, policy.dims.gru
    a2[t, :gru] = gru_forward(policy.gru[0], a1[t], zr1[t], a_n1[t], n1[t], a1[t + 1, fusion:])
    h2 = gru_forward(policy.gru[1], a2[t], zr2[t], a_n2[t], n2[t], a2[t + 1, gru:])
    logits = tape.logits[t]
    return dense_forward(policy.heads, h2, logits, logits)


def act(
    policy: SupervisorPolicy,
    tape: EpisodeTape,
    t: int,
    rng: np.random.Generator,
    explore: bool,
    encode: bool = True,
) -> list[int]:
    """One supervisor decision, ``forward_step`` on row ``t``: each head's goal rung, sampled or greedy."""
    logits = forward_step(policy, tape, t, encode)
    if explore:
        idx = softmax_sample(logits, rng)
    else:
        if not np.isfinite(logits).all():
            raise FloatingPointError("non-finite actor logits")
        idx = logits.argmax(axis=1)
    return (idx + 1).tolist()


def supervisor_reward(report: KpiReport, services: list[ServiceSpec]) -> float:
    """Shortfall-only deviation penalty plus a bonus when every intent is met."""
    total_dev = 0.0
    for k, svc in enumerate(services):
        kpi = float(report.kpi[k])
        if svc.kpi_kind is _QOE:
            dev = max(0.0, (svc.kpi_target - kpi) / svc.kpi_target)
        else:
            dev = max(0.0, (kpi - svc.kpi_target) / svc.kpi_target)
        total_dev += dev
    return -total_dev + (1.0 if total_dev == 0.0 else 0.0)


# ---------------------------------------------------------------------------
# capability bookkeeping during supervisor training


class CapabilityTracker:
    """Online EMA of goal-achievement per agent while assignments run."""

    def __init__(self, capabilities: dict[str, CapabilityVector], config: ScenarioConfig):
        self.capabilities = capabilities
        self.config = config
        self._active: dict[str, tuple[int, int, bool]] = {}  # key -> (level, steps, achieved)

    def observe_step(self, levels: list[int], report: KpiReport, roster: list[AgentId]):
        """Count one step of each roster agent's assigned rung, ``levels`` in roster order."""
        for agent, level in zip(roster, levels):
            key = agent.key
            svc = self.config.services[agent.intent_index]
            kpi = float(report.kpi[agent.intent_index])
            active = self._active.get(key)
            if active is None or active[0] != level:
                if active is not None:
                    self.capabilities[key].ema_update(active[0], active[2])
                active = (level, 0, False)
            lvl, steps, achieved = active
            steps += 1
            if steps <= ACHIEVEMENT_HORIZON and goal_achieved(kpi, goal_value(svc.kpi_kind, lvl), svc.kpi_kind):
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


@dataclass
class EpisodeTrajectory:
    """One rollout's outcomes; rows below ``len(self)`` of its tape hold its leaf inputs and every actor value.

    The next episode run on the same tape overwrites those rows.
    """

    tape: EpisodeTape
    sampled_levels: list[list[int]] = field(default_factory=list)  # [t][head]
    rewards: list[float] = field(default_factory=list)
    values: np.ndarray | None = None  # [t], set by score_contexts
    crit_caches: list | None = None  # the critic's step-stacked caches

    def __len__(self) -> int:
        return len(self.rewards)


def score_contexts(policy: SupervisorPolicy, traj: EpisodeTrajectory) -> None:
    """Run the critic once over the episode's [steps, fusion] context rows; sets ``traj.values`` and ``traj.crit_caches``.

    Each step's row is its own matrix-vector product in the stacked matmul,
    bit-equal to scoring that step's context alone.
    """
    traj.crit_caches = stack_caches(policy.critic, traj.tape.contexts[: len(traj)])
    traj.values = stack_forward(policy.critic, traj.crit_caches)[:, 0]


def discounted_returns(rewards: list[float], gamma: float) -> np.ndarray:
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def episode_gradients(
    policy: SupervisorPolicy,
    traj: EpisodeTrajectory,
    advantages: np.ndarray,
    returns: np.ndarray,
    acc: SupervisorPolicy | None = None,
) -> tuple[SupervisorPolicy, dict[str, float]]:
    """Backpropagate the A2C loss through the episode, whose contexts ``score_contexts`` has scored.

    Advantages are treated as constants. Every layer but the GRU runs its
    backward once over the tape rows of all steps; only the recurrence loops
    over time. Returns (gradients, loss terms), the gradients as a policy of
    the same layout whose parameters hold them: ``acc`` zeroed and refilled
    when given, else a new one.
    """
    if acc is None:
        acc = policy.zeros_like()
    else:
        for g in acc.named_params().values():
            g.fill(0.0)
    steps = len(traj)
    tape = traj.tape

    def cut(cache):
        return tuple(arr[:steps] for arr in cache)

    # actor heads over [steps, heads, levels]; the loss totals sum in (step, head) order
    logits = tape.logits[:steps]
    probs = softmax(logits)
    logp = log_softmax(logits)
    entropy = -(probs * logp).sum(axis=-1)
    chosen = np.array(traj.sampled_levels)[..., None] - 1
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
    err = traj.values - returns
    critic_loss = 0.0
    for e in err.tolist():
        critic_loss += CRITIC_COEF * e * e
    dc_direct = stack_backward(
        policy.critic,
        traj.crit_caches,
        (2.0 * CRITIC_COEF * err)[:, None],
        [layer.params() for layer in acc.critic],
    )

    # BPTT through the two stacked GRU cells, top cell first, down to the context
    dcontext = dh2
    for j in (1, 0):
        dcontext, _ = gru_sequence_backward(policy.gru[j], cut(tape.gru[j]), dcontext, acc.gru[j])

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

    def to_csv(self, path) -> None:
        """One row per episode, each float as its shortest round-trip ``repr``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "reward", "grad_norm", "actor_loss", "critic_loss", "entropy"])
            writer.writerows(
                zip(
                    range(len(self.episode_rewards)),
                    self.episode_rewards,
                    self.grad_norms,
                    self.actor_losses,
                    self.critic_losses,
                    self.entropies,
                )
            )


class PolicyGoals:
    """Goal source for ``run_episode``: the supervisor assigns fresh goals every step.

    Head i drives agent i, or in service mode the intent's head drives both
    of its agents; each agent's goal is its head's rung on that agent's goal
    ladder. Step t's decision writes its leaf inputs into row t of ``tape``
    (whose ``start`` it calls): each agent's capability vector, copied, and
    its tuple of the engine's observation, which before the first assignment
    is made against the global targets. With ``encode_once``, for
    capabilities that stay fixed through the episode, only step 0 copies and
    encodes them. The latest decision's rung of each head (``levels``) and of
    each agent in roster order (``agent_levels``) stay readable until the
    next step.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        config: ScenarioConfig,
        capabilities: dict[str, CapabilityVector],
        rng: np.random.Generator,
        explore: bool,
        tape: EpisodeTape,
        encode_once: bool = False,
    ):
        self.policy = policy
        self.capabilities = capabilities
        self.rng = rng
        self.explore = explore
        self.tape = tape
        self.encode_once = encode_once
        tape.start(np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in config.services]))
        per_agent = policy.mode is GoalMode.AGENT_LEVEL
        self._heads = [i if per_agent else a.intent_index for i, a in enumerate(policy.agents)]
        self._ladders = [
            [goal_value(config.services[a.intent_index].kpi_kind, level) for level in range(1, GOAL_LEVELS + 1)]
            for a in policy.agents
        ]
        self.levels: list[int] = []
        self.agent_levels: list[int] = []

    def __call__(self, t, seen, last_action):
        roster = self.policy.agents
        tape = self.tape
        encode = t == 0 or not self.encode_once
        if encode:
            # a copy: capability tracking updates rho in place during training
            tape.gammas[t] = [self.capabilities[a.key].rho for a in roster]
        # per agent: observation, one-hot last action, normalized goal (the
        # observation's own goal field)
        tape.tuples[t] = [(*seen[a.key], *_ONEHOT[last_action[a.key]], seen[a.key].goal) for a in roster]
        self.levels = act(self.policy, tape, t, self.rng, self.explore, encode)
        self.agent_levels = [self.levels[head] for head in self._heads]
        goals = {a.key: ladder[level - 1] for a, ladder, level in zip(roster, self._ladders, self.agent_levels)}
        return goals, BOTH_PLANES


def rollout_episode(
    policy: SupervisorPolicy,
    config: ScenarioConfig,
    qtables: dict[str, QTable],
    capabilities: dict[str, CapabilityVector],
    rng: np.random.Generator,
    episode_length: int,
    explore: bool,
    tracker: CapabilityTracker | None = None,
    randomize_start: bool = False,
    tape: EpisodeTape | None = None,
) -> EpisodeTrajectory:
    """Run one closed-loop episode with the frozen agents in the loop, then score its contexts.

    The episode is written on ``tape`` when given (one of at least
    ``episode_length`` steps), else on a new one.
    """
    state = slice_sim.init_scenario(config)
    if randomize_start:
        n = config.intent_count
        state.priority = rng.integers(1, 6, size=n).tolist()
        state.mbr = [slice_sim.MBR_LEVELS[i] for i in rng.integers(2, 7, size=n)]
    if tape is None:
        tape = EpisodeTape(policy, episode_length)
    goals = PolicyGoals(policy, config, capabilities, rng, explore, tape)
    traj = EpisodeTrajectory(tape=tape)

    def record(t, state, report, current, active, taken, seen):
        if tracker is not None:
            tracker.observe_step(goals.agent_levels, report, policy.agents)
        traj.sampled_levels.append(goals.levels)
        traj.rewards.append(supervisor_reward(report, config.services))

    run_episode(state, qtables, goals, rng, episode_length, record)
    score_contexts(policy, traj)
    return traj


def train_supervisor(
    policy: SupervisorPolicy,
    config: ScenarioConfig,
    qtables: dict[str, QTable],
    capabilities: dict[str, CapabilityVector],
    rng: np.random.Generator,
    cfg: TrainConfig | None = None,
) -> TrainStats:
    """Episodic A2C over the frozen MARL systems; mutates the policy in place.

    One episode tape and one gradient accumulator serve every episode.
    """
    cfg = cfg or TrainConfig()
    opt = OptimizerState(lr=LEARNING_RATE)
    params = policy.named_params()
    tracker = CapabilityTracker(capabilities, config)
    tape = EpisodeTape(policy, cfg.episode_length)
    acc = policy.zeros_like()
    stats = TrainStats()
    for episode in range(cfg.episodes):
        traj = rollout_episode(
            policy,
            config,
            qtables,
            capabilities,
            rng,
            cfg.episode_length,
            explore=True,
            tracker=tracker,
            randomize_start=bool(rng.random() < EXPLORING_STARTS),
            tape=tape,
        )
        tracker.flush()
        returns = discounted_returns(traj.rewards, DISCOUNT)
        advantages = returns - traj.values
        if len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        acc, losses = episode_gradients(policy, traj, advantages, returns, acc)
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
        episode_reward = float(np.sum(traj.rewards))
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
