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
in one call once the episode is over.
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
    gru_forward,
    gru_sequence_backward,
    log_softmax,
    softmax,
    softmax_sample,
    stack_backward,
    stack_forward,
    stack_steps,
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
class ActorHidden:
    h1: np.ndarray
    h2: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "ActorHidden":
        return cls(h1=np.zeros(size), h2=np.zeros(size))


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

    def layer_params(self) -> dict[str, np.ndarray]:
        """Every parameter array once, by layer; a stacked layer is one array over its copies."""
        out: dict[str, np.ndarray] = {}
        parts = [(f"enc_l{j}", layer) for j, layer in enumerate(self.encoders)]
        parts += [("mrg", self.merger)]
        parts += [(f"fus_l{j}", layer) for j, layer in enumerate(self.fusion)]
        parts += [(f"gru_l{j}", cell) for j, cell in enumerate(self.gru)]
        parts += [("head", self.heads)]
        parts += [(f"crit_l{j}", layer) for j, layer in enumerate(self.critic)]
        for prefix, part in parts:
            for name, arr in part.params().items():
                out[f"{prefix}.{name}"] = arr
        return out

    def view_keys(self) -> list[tuple[str, str, int | None]]:
        """Each checkpoint name, in checkpoint order, with the ``layer_params`` key and the copy index it views."""
        out = []

        def put(prefix: str, layer_key: str, part: DenseLayer | GruCell, index: int | None = None):
            out.extend((f"{prefix}.{name}", f"{layer_key}.{name}", index) for name in part.params())

        for i in range(len(self.agents)):
            for j, layer in enumerate(self.encoders):
                put(f"enc{i}_l{j}", f"enc_l{j}", layer, i)
        for i in range(len(self.agents)):
            put(f"mrg{i}", "mrg", self.merger, i)
        for j, layer in enumerate(self.fusion):
            put(f"fus_l{j}", f"fus_l{j}", layer)
        for j, cell in enumerate(self.gru):
            put(f"gru_l{j}", f"gru_l{j}", cell)
        for i in range(self.n_heads):
            put(f"head{i}", "head", self.heads, i)
        for j, layer in enumerate(self.critic):
            put(f"crit_l{j}", f"crit_l{j}", layer)
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        """Every parameter by checkpoint name; stacked copies appear as views, one per agent or head."""
        layers = self.layer_params()
        return {name: layers[key] if index is None else layers[key][index] for name, key, index in self.view_keys()}

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
# forward pieces


def encode_capabilities(policy: SupervisorPolicy, gammas: np.ndarray):
    """Project each agent's capability vector, [agents, levels], through its private encoder."""
    return stack_forward(policy.encoders, gammas)


def merge(policy: SupervisorPolicy, latents: np.ndarray, tuples: np.ndarray):
    """Fold each agent's (state, action, goal) tuple into its capability latent."""
    return dense_forward(policy.merger, np.concatenate([latents, tuples], axis=1))


def fuse(policy: SupervisorPolicy, embeddings: np.ndarray, targets_norm: np.ndarray):
    """Concatenate all agent embeddings, [agents, merger] in roster order, with the targets."""
    if len(embeddings) != len(policy.agents):
        raise ValueError(f"expected {len(policy.agents)} embeddings, got {len(embeddings)}")
    return stack_forward(policy.fusion, np.concatenate([embeddings.ravel(), targets_norm]))


@dataclass
class StepForward:
    """All intermediate values of one supervisor forward step; the context is ``fus_caches[-1]``'s output."""

    logits: np.ndarray  # [heads, levels]
    hidden: ActorHidden
    enc_caches: list
    mrg_cache: tuple
    fus_caches: list
    gru_caches: tuple
    head_cache: tuple


def forward_step(
    policy: SupervisorPolicy,
    gammas: np.ndarray,
    tuples: np.ndarray,
    targets_norm: np.ndarray,
    hidden: ActorHidden,
) -> StepForward:
    """One decision's actor forward pass from [agents, levels] capabilities and [agents, TUPLE_DIM] tuples."""
    latents, enc_caches = encode_capabilities(policy, gammas)
    embeddings, mrg_cache = merge(policy, latents, tuples)
    context, fus_caches = fuse(policy, embeddings, targets_norm)
    h1, cache1 = gru_forward(policy.gru[0], context, hidden.h1)
    h2, cache2 = gru_forward(policy.gru[1], h1, hidden.h2)
    logits, head_cache = dense_forward(policy.heads, h2)
    return StepForward(
        logits=logits,
        hidden=ActorHidden(h1=h1, h2=h2),
        enc_caches=enc_caches,
        mrg_cache=mrg_cache,
        fus_caches=fus_caches,
        gru_caches=(cache1, cache2),
        head_cache=head_cache,
    )


def act(
    policy: SupervisorPolicy,
    gammas: np.ndarray,
    tuples: np.ndarray,
    targets_norm: np.ndarray,
    hidden: ActorHidden,
    rng: np.random.Generator,
    explore: bool,
) -> tuple[list[int], StepForward]:
    """One supervisor decision: each head's goal rung, sampled or greedy, and the forward, whose ``hidden`` is the new state."""
    fwd = forward_step(policy, gammas, tuples, targets_norm, hidden)
    if explore:
        idx = softmax_sample(fwd.logits, rng)
    else:
        if not np.all(np.isfinite(fwd.logits)):
            raise FloatingPointError("non-finite actor logits")
        idx = fwd.logits.argmax(axis=1)
    return (idx + 1).tolist(), fwd


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
    """Leaf inputs and outcomes of one rollout, enough to replay the forward."""

    gammas: list[np.ndarray] = field(default_factory=list)  # [t] -> [agents, levels]
    tuples: list[np.ndarray] = field(default_factory=list)  # [t] -> [agents, TUPLE_DIM]
    targets: np.ndarray | None = None
    sampled_levels: list[list[int]] = field(default_factory=list)  # [t][head]
    rewards: list[float] = field(default_factory=list)
    forwards: list[StepForward] = field(default_factory=list)
    values: np.ndarray | None = None  # [t], set by score_contexts
    crit_caches: list | None = None  # the critic's caches, step-stacked

    def __len__(self) -> int:
        return len(self.rewards)


def score_contexts(policy: SupervisorPolicy, traj: EpisodeTrajectory) -> None:
    """Run the critic once over the episode's [steps, fusion] contexts; sets ``traj.values`` and ``traj.crit_caches``.

    Each step's row is its own matrix-vector product in the stacked matmul,
    bit-equal to scoring that step's context alone.
    """
    contexts = np.stack([fwd.fus_caches[-1][2] for fwd in traj.forwards])
    v, traj.crit_caches = stack_forward(policy.critic, contexts)
    traj.values = v[:, 0]


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
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Backpropagate the A2C loss through the episode, whose contexts ``score_contexts`` has scored.

    Advantages are treated as constants. Every layer but the GRU runs its
    backward once over all steps; only the recurrence loops over time.
    Returns (gradients, loss terms), the gradients as a policy of the same
    layout whose parameters hold them.
    """
    acc = policy.zeros_like()
    forwards = traj.forwards

    # actor heads over [steps, heads, levels]; the loss totals sum in (step, head) order
    logits = np.stack([fwd.logits for fwd in forwards])
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
    dh = dense_backward(policy.heads, stack_steps([fwd.head_cache for fwd in forwards]), dlogits, acc.heads.params())
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
        caches = [fwd.gru_caches[j] for fwd in forwards]
        dcontext, _ = gru_sequence_backward(policy.gru[j], caches, dcontext, acc.gru[j])

    # fusion, then all agents' mergers and encoders
    dx = stack_backward(
        policy.fusion,
        stack_steps([fwd.fus_caches for fwd in forwards]),
        dc_direct + dcontext,
        [layer.params() for layer in acc.fusion],
    )
    n_agents = len(policy.agents)
    dm = dx[:, : n_agents * policy.dims.merger].reshape(len(forwards), n_agents, policy.dims.merger)
    dmx = dense_backward(policy.merger, stack_steps([fwd.mrg_cache for fwd in forwards]), dm, acc.merger.params())
    stack_backward(
        policy.encoders,
        stack_steps([fwd.enc_caches for fwd in forwards]),
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
    """The global L2 norm of a gradient policy, summed per checkpoint view.

    Each stacked array's squares are summed per agent or head copy (a
    contiguous row sum, bit-equal to that copy's own ``.sum()``), and the
    totals are added in checkpoint order, as over ``named_params``.
    """
    layers = grads.layer_params()
    keys = grads.view_keys()
    stacked = {key for _, key, index in keys if index is not None}
    totals = {}
    for key, g in layers.items():
        sq = g * g
        totals[key] = sq.reshape(len(sq), -1).sum(axis=1).tolist() if key in stacked else float(sq.sum())
    return np.sqrt(sum(totals[key] if index is None else totals[key][index] for _, key, index in keys))


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
    ladder. Each decision reads the engine's observations, which before the
    first assignment are made against the global targets. The latest
    decision stays readable until the next step, nothing older: its leaf
    inputs ``gammas`` and ``tuples``, its ``forward``, the rung of each head
    (``levels``) and of each agent in roster order (``agent_levels``).
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        config: ScenarioConfig,
        capabilities: dict[str, CapabilityVector],
        rng: np.random.Generator,
        explore: bool,
    ):
        self.policy = policy
        self.capabilities = capabilities
        self.rng = rng
        self.explore = explore
        self.targets = np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in config.services])
        self.hidden = ActorHidden.zeros(policy.dims.gru)
        per_agent = policy.mode is GoalMode.AGENT_LEVEL
        self._heads = [i if per_agent else a.intent_index for i, a in enumerate(policy.agents)]
        self._ladders = [
            [goal_value(config.services[a.intent_index].kpi_kind, level) for level in range(1, GOAL_LEVELS + 1)]
            for a in policy.agents
        ]
        self.gammas = np.zeros((0, GOAL_LEVELS))
        self.tuples = np.zeros((0, TUPLE_DIM))
        self.forward: StepForward | None = None
        self.levels: list[int] = []
        self.agent_levels: list[int] = []

    def __call__(self, t, seen, last_action):
        roster = self.policy.agents
        # a copy: capability tracking updates rho in place during training
        self.gammas = np.array([self.capabilities[a.key].rho for a in roster])
        # per agent: observation, one-hot last action, normalized goal (the
        # observation's own goal field)
        self.tuples = np.array(
            [(*seen[a.key], *_ONEHOT[last_action[a.key]], seen[a.key].goal) for a in roster], dtype=np.float64
        )
        self.levels, self.forward = act(
            self.policy, self.gammas, self.tuples, self.targets, self.hidden, self.rng, self.explore
        )
        self.hidden = self.forward.hidden
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
) -> EpisodeTrajectory:
    """Run one closed-loop episode with the frozen agents in the loop, then score its contexts."""
    state = slice_sim.init_scenario(config)
    if randomize_start:
        n = config.intent_count
        state.priority = rng.integers(1, 6, size=n).tolist()
        state.mbr = [slice_sim.MBR_LEVELS[i] for i in rng.integers(2, 7, size=n)]
    goals = PolicyGoals(policy, config, capabilities, rng, explore)
    traj = EpisodeTrajectory(targets=goals.targets)

    def record(t, state, report, current, active, taken, seen):
        if tracker is not None:
            tracker.observe_step(goals.agent_levels, report, policy.agents)
        traj.gammas.append(goals.gammas)
        traj.tuples.append(goals.tuples)
        traj.sampled_levels.append(goals.levels)
        traj.rewards.append(supervisor_reward(report, config.services))
        traj.forwards.append(goals.forward)

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
    """Episodic A2C over the frozen MARL systems; mutates the policy in place."""
    cfg = cfg or TrainConfig()
    opt = OptimizerState(lr=LEARNING_RATE)
    params = policy.layer_params()
    tracker = CapabilityTracker(capabilities, config)
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
        )
        tracker.flush()
        returns = discounted_returns(traj.rewards, DISCOUNT)
        advantages = returns - traj.values
        if len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        acc, losses = episode_gradients(policy, traj, advantages, returns)
        # the one finiteness check per update: a non-finite gradient, or one
        # whose square overflows, makes the norm non-finite. The scaling and
        # Adam are elementwise, so they run on the stacked arrays
        norm = gradient_norm(acc)
        if not np.isfinite(norm):
            raise TrainingDivergence(
                "non-finite gradients during supervisor training",
                diagnostics={"episode": episode, "losses": losses},
            )
        grads = acc.layer_params()
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
