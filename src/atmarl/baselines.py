"""Comparison controllers: rule-based switching, naive parallel, goal halving."""

from __future__ import annotations

from .agents import GoalAssignment, SystemKind, agent_roster, nearest_goal_level
from .config import ScenarioConfig

DEFAULT_SWITCH_PERIOD = 5


def rule_based_select(t: int, period: int = DEFAULT_SWITCH_PERIOD) -> SystemKind:
    """Alternate control planes every ``period`` steps, Priority first."""
    if t < 0:
        raise ValueError(f"timestep must be nonnegative, got {t}")
    if period < 1:
        raise ValueError(f"switch period must be >= 1, got {period}")
    return SystemKind.PRIORITY if (t // period) % 2 == 0 else SystemKind.MBR


def naive_parallel_goals(config: ScenarioConfig) -> GoalAssignment:
    """Broadcast every intent's global target to both of its agents, unchanged."""
    levels = {}
    values = {}
    for agent in agent_roster(config):
        svc = config.services[agent.intent_index]
        levels[agent.key] = nearest_goal_level(svc.kpi_kind, svc.kpi_target)
        values[agent.key] = svc.kpi_target
    return GoalAssignment(levels=levels, values=values)


def goal_halving(intermediate: GoalAssignment, config: ScenarioConfig) -> GoalAssignment:
    """Split each intent's intermediate goal equally between the two planes.

    The halved values are generally off the goal ladder, so only KPI-space
    values are produced; the halving rule applies verbatim to packet-loss
    goals as well.
    """
    values = {}
    for agent in agent_roster(config):
        source = intermediate.values[agent.key]
        values[agent.key] = source / 2.0
    return GoalAssignment(levels={}, values=values)
