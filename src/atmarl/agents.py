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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig
from .errors import ScenarioError
from . import slice_sim
from .slice_sim import (
    KpiKind,
    MBR_LEVELS,
    NetworkState,
    KpiReport,
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

    @cached_property
    def key(self) -> str:
        return f"{self.system.value.lower()}_{self.intent_index}"


class AgentObservation(NamedTuple):
    kpi: float  # own KPI, normalized
    knob: float  # own knob level, normalized
    goal: float  # assigned goal, normalized
    congestion: float  # slice offered / slice bandwidth


@dataclass
class QTable:
    """Dense state-action values over the binned observation space."""

    values: np.ndarray  # [OBS_BINS]*4 + [N_ACTIONS]

    @classmethod
    def create(cls) -> "QTable":
        return cls(values=np.zeros((OBS_BINS,) * 4 + (N_ACTIONS,)))


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
        self.rho[i] = (1.0 - CAPABILITY_EMA) * self.rho[i] + CAPABILITY_EMA * (1.0 if achieved else 0.0)
        self.from_data[i] = True


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


def _clamp(x, lo, hi):
    """``np.clip`` for one scalar, without the numpy call; NaN passes through."""
    return lo if x < lo else hi if x > hi else x


def nearest_goal_level(kpi_kind: KpiKind, value: float) -> int:
    if kpi_kind is _QOE:
        level = round((value - 1.0) / QOE_BIN)
    else:
        level = round(value)
    return int(_clamp(level, 1, GOAL_LEVELS))


def normalize_kpi(kpi_kind: KpiKind, value: float) -> float:
    """A KPI reading or a goal in KPI space, on the observation's scale."""
    if kpi_kind is _QOE:
        return (value - 1.0) / 4.0
    return min(value / PL_SCALE, CONGESTION_MAX)


def normalize_knob(agent: AgentId, state: NetworkState) -> float:
    k = agent.intent_index
    if agent.system is _PRIORITY:
        return (float(state.controls.priority[k]) - 1.0) / 4.0
    return _mbr_index(state.controls.mbr[k]) / (len(MBR_LEVELS) - 1)


_MBR_INDEX = {lvl: i for i, lvl in enumerate(MBR_LEVELS)}


def _mbr_index(value: float) -> int:
    """Ladder index of the MBR rung nearest ``value``; a tie goes to the lower rung."""
    i = _MBR_INDEX.get(value)
    if i is None:
        i = min(range(len(MBR_LEVELS)), key=lambda j: abs(MBR_LEVELS[j] - value))
    return i


def observe(state: NetworkState, report: KpiReport, agent: AgentId, goal_kpi: float) -> AgentObservation:
    """Build one agent's normalized observation; excludes the other plane's knobs."""
    if agent.intent_index >= len(state.services):
        raise ScenarioError(f"agent {agent} references a missing intent")
    svc = state.services[agent.intent_index]
    return AgentObservation(
        kpi=normalize_kpi(svc.kpi_kind, float(report.kpi[agent.intent_index])),
        knob=normalize_knob(agent, state),
        goal=normalize_kpi(svc.kpi_kind, goal_kpi),
        congestion=min(report.congestion, CONGESTION_MAX),
    )


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
        level = int(state.controls.priority[k]) + delta
        state.controls.priority[k] = _clamp(level, PRIORITY_LEVELS[0], PRIORITY_LEVELS[-1])
    else:
        idx = _clamp(_mbr_index(state.controls.mbr[k]) + delta, 0, len(MBR_LEVELS) - 1)
        state.controls.mbr[k] = MBR_LEVELS[idx]


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


@dataclass
class GoalAssignment:
    """Per-agent goal, as a ladder rung where applicable plus its KPI value."""

    levels: dict[str, int]
    values: dict[str, float]

    def __len__(self) -> int:
        return len(self.values)


BOTH_PLANES = frozenset(SystemKind)


def run_episode(
    state: NetworkState,
    config: ScenarioConfig,
    qtables: dict[str, QTable],
    goals: Callable,
    rng: np.random.Generator,
    episode_length: int,
    on_step: Callable,
    shift_schedule: Iterable[tuple[int, slice_sim.DistributionSpec]] = (),
    epsilon: float = 0.0,
) -> None:
    """The closed loop shared by pre-training, supervisor training and evaluation.

    The agents are those of the roster that have a Q-table. The engine is the
    only caller of ``observe``: it observes every agent once per report, into
    ``seen`` (agent key to observation). The noise-free opening report is
    observed against each intent's target; every later report against the
    goal the agent was last assigned. Each step applies the UE redistribution
    scheduled for it, asks ``goals(t, seen, last_action)`` for this step's
    assignment and active planes, and lets every agent of an active plane act
    on its observation, with the goal field replaced where its assigned goal
    changed, and move its knob. Each acting agent bins that observation once
    and picks its action epsilon-greedily with probability ``epsilon`` of a
    uniform random action (0 acts greedily and draws nothing). It then steps
    the network, observes the new report and hands the outcome to
    ``on_step(t, state, report, current, active, taken, seen)``, where
    ``taken`` maps agent key to the (table index, action) acted on.
    ``on_step`` may return the table indices it computed for observations
    in ``seen`` (agent key to index); next step an agent whose goal is
    unchanged acts on that index instead of binning its observation again.
    """
    roster = [a for a in agent_roster(config) if a.key in qtables]
    shifts = dict(shift_schedule)
    report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, None))
    aimed = {a.key: config.services[a.intent_index].kpi_target for a in roster}
    seen = {a.key: observe(state, report, a, aimed[a.key]) for a in roster}
    last_action = {a.key: _HOLD for a in roster}
    binned = {}
    for t in range(episode_length):
        if t in shifts:
            state = slice_sim.set_distribution(state, shifts[t])
        current, active = goals(t, seen, last_action)
        taken = {}
        for a in roster:
            if a.system not in active:
                continue
            goal = current.values[a.key]
            if goal != aimed[a.key]:
                index = discretize(seen[a.key]._replace(goal=normalize_kpi(config.services[a.intent_index].kpi_kind, goal)))
            elif a.key in binned:
                index = binned[a.key]
            else:
                index = discretize(seen[a.key])
            action = select_action(qtables[a.key], index, epsilon, rng)
            apply_action(state, a, action)
            last_action[a.key] = action
            taken[a.key] = (index, action)
        state, report = sim_step(state, rng)
        aimed = current.values
        seen = {a.key: observe(state, report, a, aimed[a.key]) for a in roster}
        binned = on_step(t, state, report, current, active, taken, seen) or {}


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
    params: PretrainConfig | None = None,
) -> PretrainResult:
    """Independently Q-train all agents of one plane against random goals.

    The other plane's knobs stay at scenario defaults throughout. Each
    episode starts from a fresh default state and a fresh random goal rung
    per agent; the log records whether each agent reached its rung within
    the achievement horizon.
    """
    params = params or PretrainConfig()
    agents = [AgentId(system, k) for k in range(config.intent_count)]
    tables = {a.key: QTable.create() for a in agents}
    logs: list[dict] = []
    recent_rewards: list[float] = []
    anneal = params.episodes * 0.7
    # UE spreads sampled per episode; agents arrive robust to the radio
    # environment, so the generalization experiments probe the supervisor
    spreads = list(slice_sim.DistributionKind)
    planes = {system}
    for episode in range(params.episodes):
        eps = max(
            EPSILON_END,
            EPSILON_START + (EPSILON_END - EPSILON_START) * episode / max(anneal, 1),
        )
        state = init_scenario(config)
        kind = spreads[int(rng.integers(len(spreads)))]
        if kind is not config.distribution.kind:
            state = slice_sim.set_distribution(state, slice_sim.DistributionSpec.of(kind))
        levels = {a.key: int(rng.integers(1, GOAL_LEVELS + 1)) for a in agents}
        goals = GoalAssignment(
            levels=levels,
            values={a.key: goal_value(config.services[a.intent_index].kpi_kind, levels[a.key]) for a in agents},
        )
        hit_step = {a.key: None for a in agents}
        episode_reward = 0.0

        def learn(t, state, report, current, active, taken, seen):
            nonlocal episode_reward
            binned = {}  # the goal is fixed, so the engine acts on these indices next step
            for a in agents:
                svc = config.services[a.intent_index]
                goal_kpi = current.values[a.key]
                kpi = float(report.kpi[a.intent_index])
                r = agent_reward(kpi, goal_kpi, svc.kpi_kind)
                episode_reward += r
                index, action = taken[a.key]
                values = tables[a.key].values
                sa = index + (int(action),)
                binned[a.key] = discretize(seen[a.key])
                td = r + PRETRAIN_DISCOUNT * max(values[binned[a.key]].tolist()) - values[sa]
                values[sa] += PRETRAIN_LEARNING_RATE * td
                if hit_step[a.key] is None and goal_achieved(kpi, goal_kpi, svc.kpi_kind):
                    hit_step[a.key] = t + 1
            return binned

        run_episode(
            state, config, tables, lambda *_: (goals, planes), rng, params.episode_length, learn, epsilon=eps
        )
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


def write_pretrain_log(logs: list[dict], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["agent_system", "intent_index", "goal_level", "achieved", "episode", "steps_taken"],
        )
        writer.writeheader()
        writer.writerows(logs)


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
