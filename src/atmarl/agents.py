"""Goal-conditioned tabular agents for the Priority and MBR control planes.

Each service intent gets one agent per control plane; an agent sees only its
own KPI, its own knob, its assigned goal and a global congestion scalar, and
nudges its knob one rung per step. The two planes are pre-trained separately
(the other plane frozen at defaults) and stay frozen afterwards; capability
vectors summarize, per goal rung, how often an agent reached it.
``run_episode`` is the one closed loop that pre-training, supervisor training
and evaluation all run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig
from .errors import ScenarioError
from . import slice_sim
from .slice_sim import (
    KpiKind,
    MBR_LEVELS,
    NetworkState,
    PRIORITY_LEVELS,
    init_scenario,
    step as sim_step,
)

GOAL_LEVELS = 8
ACHIEVEMENT_HORIZON = 5
CAPABILITY_EMA = 0.05  # weight of the newest outcome in an online capability update

# Observation scales. QoE maps [1,5] onto [0,1]; packet loss uses an
# operational 8-percent window so that one table bin spans 1% (the full
# [0,100] range would collapse every relevant reading into a single bin).
PL_SCALE = 8.0
QOE_BIN = 0.5  # KPI width of one quantization bin / goal rung
OBS_BINS = 8
CONGESTION_MAX = 1.5

N_ACTIONS = 3  # decrement, hold, increment
ACTION_HOLD = 1


class SystemKind(str, Enum):
    PRIORITY = "Priority"
    MBR = "MBR"


class KnobAction(int, Enum):
    DECREMENT = 0
    HOLD = 1
    INCREMENT = 2


# members read on every agent-step, bound once: on Python 3.11 reading an
# enum member off its class costs about 180 ns
_QOE = KpiKind.QOE
_PRIORITY = SystemKind.PRIORITY
_HOLD = KnobAction.HOLD
_ACTIONS = tuple(KnobAction)  # by value


@dataclass(frozen=True)
class AgentId:
    system: SystemKind
    intent_index: int
    # set once as the id is made: every episode's roster makes fresh ids, and
    # on Python 3.11 the first read of a cached_property takes a lock
    key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", f"{self.system.value.lower()}_{self.intent_index}")


class AgentObservation(NamedTuple):
    kpi: float  # own KPI, normalized
    knob: float  # own knob level, normalized
    goal: float  # assigned goal, normalized
    congestion: float  # slice offered / slice bandwidth


# builds an AgentObservation from a 4-tuple without the Python frame of its
# generated __new__, which is about half the cost of building one
_new_tuple = tuple.__new__


@dataclass
class QTable:
    """Dense state-action values over the binned observation space.

    Pre-training writes the values; once it is over the table is frozen
    (``freeze``), and a frozen table acts greedily from ``greedy_actions``.
    """

    values: np.ndarray  # [OBS_BINS]*4 + [N_ACTIONS]
    # (the read-only values it was built from, the greedy action table)
    _greedy: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(cls) -> "QTable":
        return cls(values=np.zeros((OBS_BINS,) * 4 + (N_ACTIONS,)))

    @property
    def frozen(self) -> bool:
        return not self.values.flags.writeable

    def freeze(self) -> None:
        """Make ``values`` read-only: a view of the array, itself made read-only, so neither can be made writeable again."""
        self.values.flags.writeable = False
        self.values = self.values.view()

    def greedy_actions(self) -> list:
        """The greedy action of every state of a frozen table, as nested lists indexed ``[kpi][knob][goal][congestion]``.

        Each is the action ``select_action(self, index, 0.0, rng)`` picks: an
        exact tie goes to HOLD, then the first maximum wins; a state whose
        row holds a NaN is decided by ``select_action`` itself. Built on
        first use and kept beside the read-only array it was built from,
        which cannot change; a new ``values`` array gets a new table.
        """
        values = self.values
        if values.flags.writeable:
            raise ValueError("only a frozen Q-table has a greedy action table")
        if self._greedy is None or self._greedy[0] is not values:
            # by columns, as reductions over rows of three are slow; without a NaN
            # HOLD holds a maximum, else DECREMENT does unless INCREMENT is larger
            down, hold, up = (values[..., a] for a in range(N_ACTIONS))
            codes = np.where((hold >= down) & (hold >= up), ACTION_HOLD, np.where(down >= up, 0, 2))
            actions = np.array(_ACTIONS, dtype=object)[codes]
            # each state holding a NaN once; np.unique would import numpy.ma
            for flat in dict.fromkeys((np.flatnonzero(np.isnan(values)) // N_ACTIONS).tolist()):
                index = tuple(int(i) for i in np.unravel_index(flat, actions.shape))
                actions[index] = select_action(self, index, 0.0, None)
            self._greedy = (values, actions.tolist())
        return self._greedy[1]


@dataclass
class CapabilityVector:
    """Per-goal-rung achievement probabilities for one agent."""

    rho: np.ndarray  # [GOAL_LEVELS]
    from_data: np.ndarray  # bool mask; False where the 0.5 prior was used

    @classmethod
    def prior(cls) -> "CapabilityVector":
        return cls(rho=np.full(GOAL_LEVELS, 0.5), from_data=np.zeros(GOAL_LEVELS, dtype=bool))

    def ema_update(self, level: int, achieved: bool):
        i = level - 1
        self.rho[i] = (1.0 - CAPABILITY_EMA) * self.rho.item(i) + CAPABILITY_EMA * (1.0 if achieved else 0.0)
        self.from_data[i] = True


def capability_matrix(capabilities: dict[str, CapabilityVector], keys: list[str]) -> np.ndarray:
    """The [agents, GOAL_LEVELS] array whose rows are the ``rho`` of ``keys``' vectors, in that order.

    Vectors that are not yet the rows of one such array move into a new
    one: each ``rho`` becomes a row view holding its own values, so an EMA
    update of a vector lands in the array, and ``rho`` reads as before.
    """
    vectors = [capabilities[key] for key in keys]
    base = vectors[0].rho.base
    if isinstance(base, np.ndarray) and base.shape == (len(vectors), GOAL_LEVELS):
        if all(v.rho.__array_interface__ == row.__array_interface__ for v, row in zip(vectors, base)):
            return base
    matrix = np.array([v.rho for v in vectors], dtype=np.float64)
    for vec, row in zip(vectors, matrix):
        vec.rho = row
    return matrix


def agent_roster(config: ScenarioConfig) -> list[AgentId]:
    """Fixed agent ordering: all Priority agents by intent, then all MBR."""
    ids = [AgentId(SystemKind.PRIORITY, k) for k in range(config.intent_count)]
    ids += [AgentId(SystemKind.MBR, k) for k in range(config.intent_count)]
    return ids


def goal_value(kpi_kind: KpiKind, level: int) -> float:
    """Map a goal rung in {1..8} to KPI space."""
    if not 1 <= level <= GOAL_LEVELS:
        raise ValueError(f"goal level {level} outside 1..{GOAL_LEVELS}")
    if kpi_kind is _QOE:
        return 1.0 + QOE_BIN * level
    return float(level)


def goal_ladder(kpi_kind: KpiKind) -> list[float]:
    """The KPI-space goal of every rung, rung 1 first."""
    return [goal_value(kpi_kind, level) for level in range(1, GOAL_LEVELS + 1)]


def _clamp(x, lo, hi):
    """``np.clip`` for one scalar, without the numpy call; NaN passes through."""
    return lo if x < lo else hi if x > hi else x


def normalize_kpi(kpi_kind: KpiKind, value: float) -> float:
    """A KPI reading or a goal in KPI space, on the observation's scale."""
    if kpi_kind is _QOE:
        return (value - 1.0) / 4.0
    return min(value / PL_SCALE, CONGESTION_MAX)


_MBR_INDEX = {lvl: i for i, lvl in enumerate(MBR_LEVELS)}
# an MBR cap's knob on the observation's scale: its rung over the top rung
_MBR_KNOB = {lvl: i / (len(MBR_LEVELS) - 1) for lvl, i in _MBR_INDEX.items()}


def _mbr_index(value: float) -> int:
    """Ladder index of the MBR rung nearest ``value``; a tie goes to the lower rung."""
    i = _MBR_INDEX.get(value)
    if i is None:
        i = min(range(len(MBR_LEVELS)), key=lambda j: abs(MBR_LEVELS[j] - value))
    return i


class Member(NamedTuple):
    """One agent as the engine's per-step roster pass reads it, resolved once per episode."""

    agent: AgentId
    key: str
    intent: int  # the agent's intent index, its KPI's position in a report
    kpi_kind: KpiKind
    table: QTable | None

    @classmethod
    def of(cls, agent: AgentId, config: ScenarioConfig, table: QTable | None = None) -> "Member":
        if not 0 <= agent.intent_index < config.intent_count:
            raise ScenarioError(f"agent {agent} references a missing intent")
        return cls(agent, agent.key, agent.intent_index, config.services[agent.intent_index].kpi_kind, table)


def roster_members(config: ScenarioConfig, qtables: dict[str, QTable] | None = None) -> list[Member]:
    """The roster's agents in roster order, each with its Q-table; given ``qtables``, only the agents it holds."""
    if qtables is None:
        return [Member.of(a, config) for a in agent_roster(config)]
    return [Member.of(a, config, qtables[a.key]) for a in agent_roster(config) if a.key in qtables]


def observe(
    state: NetworkState,
    kpis: list[float],
    congestion: float,
    members: list[Member],
    goals: dict[str, float],
) -> dict[str, AgentObservation]:
    """Every member's normalized observation of one KPI report, by agent key.

    ``kpis`` are the report's readings as floats (``report.kpi.tolist()``)
    and ``congestion`` its congestion; each agent sees its own KPI, its own
    knob, its goal in ``goals`` (KPI space) and the congestion, never the
    other plane's knobs. The KPI and the goal are normalized inline by
    ``normalize_kpi``'s formulas (``min(x, CONGESTION_MAX)`` written as the
    comparison ``min`` makes); a Priority knob is ``(level - 1) / 4`` and an
    MBR cap's is its rung over the top rung, the nearest rung for a cap off
    the ladder.
    """
    congestion = CONGESTION_MAX if CONGESTION_MAX < congestion else congestion
    priority = state.priority
    mbr = state.mbr
    seen = {}
    for agent, key, k, kind, _ in members:
        kpi = kpis[k]
        goal = goals[key]
        if kind is _QOE:
            kpi = (kpi - 1.0) / 4.0
            goal = (goal - 1.0) / 4.0
        else:
            kpi = kpi / PL_SCALE
            if CONGESTION_MAX < kpi:
                kpi = CONGESTION_MAX
            goal = goal / PL_SCALE
            if CONGESTION_MAX < goal:
                goal = CONGESTION_MAX
        if agent.system is _PRIORITY:
            knob = (priority[k] - 1.0) / 4.0
        else:
            knob = _MBR_KNOB.get(mbr[k])
            if knob is None:
                knob = _mbr_index(mbr[k]) / (len(MBR_LEVELS) - 1)
        seen[key] = _new_tuple(AgentObservation, (kpi, knob, goal, congestion))
    return seen


_LAST_BIN = OBS_BINS - 1


def discretize(obs: AgentObservation) -> tuple[int, int, int, int]:
    """Table index of an observation; a NaN field raises ValueError.

    Each field (the congestion over ``CONGESTION_MAX``) is clamped to [0, 1]
    and cut into ``OBS_BINS`` equal bins, 1 falling into the last. The four
    are binned inline, without a call per field. ``OBS_BINS`` is a power of
    two, so ``x * OBS_BINS`` is exact and below ``OBS_BINS`` for every x
    below 1; a NaN fails both comparisons and ``int`` raises on it.
    """
    kpi, knob, goal, congestion = obs
    congestion = congestion / CONGESTION_MAX
    return (
        0 if kpi < 0.0 else _LAST_BIN if kpi >= 1.0 else int(kpi * OBS_BINS),
        0 if knob < 0.0 else _LAST_BIN if knob >= 1.0 else int(knob * OBS_BINS),
        0 if goal < 0.0 else _LAST_BIN if goal >= 1.0 else int(goal * OBS_BINS),
        0 if congestion < 0.0 else _LAST_BIN if congestion >= 1.0 else int(congestion * OBS_BINS),
    )


def select_action(table: QTable, index: tuple[int, int, int, int], epsilon: float, rng: np.random.Generator) -> KnobAction:
    """Epsilon-greedy over the table row at ``index``; exact ties break toward HOLD.

    At ``epsilon == 0`` nothing is drawn from ``rng``. Otherwise each call
    draws ``rng.random()``, then ``rng.integers(3)`` only when it explores.
    """
    if epsilon > 0 and rng.random() < epsilon:
        return _ACTIONS[int(rng.integers(N_ACTIONS))]
    q = table.values[index].tolist()
    best = max(q)
    if q[ACTION_HOLD] == best:
        return _HOLD
    return _ACTIONS[q.index(best)]


def apply_action(state: NetworkState, agent: AgentId, action: KnobAction):
    """Move the agent's knob one rung, saturating at the ladder ends."""
    k = agent.intent_index
    delta = action - 1  # DECREMENT, HOLD, INCREMENT move the knob -1, 0, +1 rung
    if agent.system is _PRIORITY:
        state.priority[k] = _clamp(state.priority[k] + delta, PRIORITY_LEVELS[0], PRIORITY_LEVELS[-1])
    else:
        state.mbr[k] = MBR_LEVELS[_clamp(_mbr_index(state.mbr[k]) + delta, 0, len(MBR_LEVELS) - 1)]


def agent_reward(kpi: float, goal_kpi: float, kpi_kind: KpiKind) -> float:
    """Distance-to-goal penalty; packet loss counts only the excess above goal."""
    if kpi_kind is _QOE:
        return -abs(kpi - goal_kpi) / 4.0
    if kpi <= goal_kpi:
        return 0.0
    return -(kpi - goal_kpi) / PL_SCALE


def goal_achieved(kpi: float, goal_kpi: float, kpi_kind: KpiKind) -> bool:
    if kpi_kind is _QOE:
        return abs(kpi - goal_kpi) <= QOE_BIN
    return kpi <= goal_kpi


BOTH_PLANES = frozenset(SystemKind)


def run_episode(
    state: NetworkState,
    qtables: dict[str, QTable],
    goals: Callable,
    rng: np.random.Generator,
    episode_length: int,
    on_step: Callable,
    shift_schedule: Iterable[tuple[int, slice_sim.DistributionSpec]] = (),
    epsilon: float = 0.0,
) -> None:
    """The closed loop shared by pre-training, supervisor training and evaluation.

    The scenario is ``state.scenario``; the agents are those of its roster
    that have a Q-table, resolved once into ``roster_members``. The engine is
    the only caller of ``observe``: it reads each report's KPIs once, as the
    floats ``kpis``, and observes every agent in one ``observe`` pass into
    ``seen`` (agent key to observation). The noise-free opening report
    (``slice_sim.nominal_report``) is observed against each intent's target; every later report against the
    goal the agent was last assigned. Each step applies the UE redistribution
    scheduled for it, asks ``goals(t, seen, last_action)`` for this step's
    goals (agent key to KPI-space goal) and active planes, and lets every
    agent of an active plane act on its observation, with the goal field
    replaced where its assigned goal changed, and move its knob; the acting
    members are resolved once per distinct set of active planes. Each acting
    agent bins that observation once and picks its action epsilon-greedily
    with probability ``epsilon`` of a uniform random action (0 acts greedily
    and draws nothing), in roster order; at ``epsilon`` 0 an agent whose
    table is frozen reads the action ``select_action`` would pick off the
    table's ``greedy_actions``, without reading its Q-row. It then steps
    the network, observes the new report and hands the outcome to
    ``on_step(t, state, kpis, current, active, taken, seen)``, where
    ``current`` is this step's goals and ``taken`` maps agent key to the
    (table index, action) acted on.
    ``on_step`` may return the table indices it computed for observations in
    ``seen`` (agent key to index); next step an agent whose goal is unchanged
    acts on that index instead of binning its observation again.
    """
    config = state.scenario
    members = roster_members(config, qtables)
    shifts = dict(shift_schedule)
    report = slice_sim.nominal_report(state)
    aimed = {key: config.services[k].kpi_target for _, key, k, _, _ in members}
    seen = observe(state, report.kpi.tolist(), report.congestion, members, aimed)
    last_action = {key: _HOLD for key in aimed}
    binned = {}
    # select_action acts greedily unless epsilon > 0
    greedy = {} if epsilon > 0 else {m.key: m.table.greedy_actions() for m in members if m.table.frozen}
    # per distinct active set, its members' (agent, key, KPI kind, table, greedy action table or None)
    acting_by_planes: dict[frozenset, list[tuple]] = {}
    for t in range(episode_length):
        if t in shifts:
            state = slice_sim.set_distribution(state, shifts[t])
        current, active = goals(t, seen, last_action)
        planes = frozenset(active)
        acting = acting_by_planes.get(planes)
        if acting is None:
            acting = acting_by_planes[planes] = [
                (m.agent, m.key, m.kpi_kind, m.table, greedy.get(m.key)) for m in members if m.agent.system in planes
            ]
        taken = {}
        for agent, key, kind, table, actions in acting:
            goal = current[key]
            if goal != aimed[key]:
                kpi, knob, _, congestion = seen[key]
                index = discretize((kpi, knob, normalize_kpi(kind, goal), congestion))
            else:
                index = binned.get(key)
                if index is None:
                    index = discretize(seen[key])
            if actions is None:
                action = select_action(table, index, epsilon, rng)
            else:
                kpi_bin, knob_bin, goal_bin, congestion_bin = index
                action = actions[kpi_bin][knob_bin][goal_bin][congestion_bin]
            apply_action(state, agent, action)
            last_action[key] = action
            taken[key] = (index, action)
        state, report = sim_step(state, rng)
        aimed = current
        kpis = report.kpi.tolist()
        seen = observe(state, kpis, report.congestion, members, aimed)
        binned = on_step(t, state, kpis, current, active, taken, seen) or {}


PRETRAIN_LEARNING_RATE = 0.1
PRETRAIN_DISCOUNT = 0.9
EPSILON_START = 1.0
EPSILON_END = 0.05
PRETRAIN_REWARD_FLOOR = -0.5  # mean final-phase reward below this flags non-convergence


@dataclass
class PretrainConfig:
    episodes: int = 600
    episode_length: int = 20


@dataclass
class PretrainResult:
    qtables: dict[str, QTable]
    logs: list[dict]
    converged: bool
    mean_recent_reward: float


def pretrain_system(
    system: SystemKind,
    config: ScenarioConfig,
    rng: np.random.Generator,
    params: PretrainConfig,
) -> PretrainResult:
    """Independently Q-train all agents of one plane against random goals.

    The other plane's knobs stay at scenario defaults throughout. Each
    episode starts from a fresh default state and a fresh random goal rung
    per agent; the log records whether each agent reached its rung within
    the achievement horizon. The tables are returned frozen, after their
    last update.
    """
    agents = [AgentId(system, k) for k in range(config.intent_count)]
    tables = {a.key: QTable.create() for a in agents}
    members = roster_members(config, tables)
    logs: list[dict] = []
    recent_rewards: list[float] = []
    anneal = params.episodes * 0.7
    # UE spreads sampled per episode; agents arrive robust to the radio
    # environment, so the generalization experiments probe the supervisor
    spreads = [slice_sim.DistributionSpec.of(kind) for kind in slice_sim.DistributionKind]
    planes = frozenset({system})
    for episode in range(params.episodes):
        eps = max(
            EPSILON_END,
            EPSILON_START + (EPSILON_END - EPSILON_START) * episode / max(anneal, 1),
        )
        state = init_scenario(config)
        spread = spreads[int(rng.integers(len(spreads)))]
        if spread.kind is not config.distribution.kind:
            state = slice_sim.set_distribution(state, spread)
        levels = {a.key: int(rng.integers(1, GOAL_LEVELS + 1)) for a in agents}
        goals = {key: goal_value(kpi_kind, levels[key]) for _, key, _, kpi_kind, _ in members}
        hit_step = {a.key: None for a in agents}
        episode_reward = 0.0

        def learn(t, state, kpis, current, active, taken, seen):
            nonlocal episode_reward
            binned = {}  # the goal is fixed, so the engine acts on these indices next step
            for _, key, k, kpi_kind, table in members:
                goal_kpi = current[key]
                kpi = kpis[k]
                r = agent_reward(kpi, goal_kpi, kpi_kind)
                episode_reward += r
                index, action = taken[key]
                values = table.values
                sa = index + (int(action),)
                binned[key] = after = discretize(seen[key])
                q = values.item(sa)
                values[sa] = q + PRETRAIN_LEARNING_RATE * (r + PRETRAIN_DISCOUNT * max(values[after].tolist()) - q)
                if hit_step[key] is None and goal_achieved(kpi, goal_kpi, kpi_kind):
                    hit_step[key] = t + 1
            return binned

        run_episode(state, tables, lambda *_: (goals, planes), rng, params.episode_length, learn, epsilon=eps)
        for a in agents:
            steps = hit_step[a.key]
            logs.append(
                {
                    "agent_system": system.value,
                    "intent_index": a.intent_index,
                    "goal_level": levels[a.key],
                    "achieved": int(steps is not None and steps <= ACHIEVEMENT_HORIZON),
                    "episode": episode,
                    "steps_taken": steps if steps is not None else params.episode_length,
                }
            )
        recent_rewards.append(episode_reward / (params.episode_length * len(agents)))
    for table in tables.values():
        table.freeze()
    tail = recent_rewards[-max(len(recent_rewards) // 5, 1):]
    mean_recent = float(np.mean(tail))
    converged = mean_recent >= PRETRAIN_REWARD_FLOOR
    if not converged:
        import warnings

        warnings.warn(
            f"{system.value} pretraining mean reward {mean_recent:.3f} below "
            f"{PRETRAIN_REWARD_FLOOR}; agents may be undertrained",
            stacklevel=2,
        )
    return PretrainResult(qtables=tables, logs=logs, converged=converged, mean_recent_reward=mean_recent)


def estimate_capabilities(logs: list[dict], config: ScenarioConfig) -> dict[str, CapabilityVector]:
    """Success-frequency capability vectors from pre-training logs.

    A success is a logged ``achieved`` flag: the rung was reached within
    ``ACHIEVEMENT_HORIZON`` steps. Missing (agent, rung) pairs fall back to a
    0.5 prior and are flagged via ``from_data``.
    """
    vectors = {a.key: CapabilityVector.prior() for a in agent_roster(config)}
    attempts = {key: np.zeros(GOAL_LEVELS) for key in vectors}
    successes = {key: np.zeros(GOAL_LEVELS) for key in vectors}
    for row in logs:
        key = AgentId(SystemKind(row["agent_system"]), int(row["intent_index"])).key
        if key not in vectors:
            continue
        lvl = int(row["goal_level"]) - 1
        attempts[key][lvl] += 1
        successes[key][lvl] += int(row["achieved"]) == 1
    for key, vec in vectors.items():
        seen = attempts[key] > 0
        vec.rho[seen] = successes[key][seen] / attempts[key][seen]
        vec.from_data[:] = seen
    return vectors
