"""Comparison controllers: rule-based switching, naive parallel, goal halving."""

from __future__ import annotations

from .agents import SystemKind, agent_roster
from .config import ScenarioConfig

SWITCH_PERIOD = 5


def rule_based_select(t: int) -> SystemKind:
    """Alternate control planes every ``SWITCH_PERIOD`` steps, Priority first."""
    if t < 0:
        raise ValueError(f"timestep must be nonnegative, got {t}")
    return SystemKind.PRIORITY if (t // SWITCH_PERIOD) % 2 == 0 else SystemKind.MBR


def naive_parallel_goals(config: ScenarioConfig) -> dict[str, float]:
    """Broadcast every intent's global target to both of its agents, unchanged."""
    return {agent.key: config.services[agent.intent_index].kpi_target for agent in agent_roster(config)}


# a memo of the roster's agent keys by intent count, which alone fixes the roster
_ROSTER_KEYS: dict[int, tuple[str, ...]] = {}


def goal_halving(intermediate: dict[str, float], config: ScenarioConfig) -> dict[str, float]:
    """Split each intent's intermediate goal equally between the two planes.

    The halved goals are generally off the goal ladder; the halving rule
    applies verbatim to packet-loss goals as well. It runs every evaluation
    step, so the roster's keys are built once per intent count.
    """
    keys = _ROSTER_KEYS.get(config.intent_count)
    if keys is None:
        keys = _ROSTER_KEYS[config.intent_count] = tuple(a.key for a in agent_roster(config))
    return {key: intermediate[key] / 2.0 for key in keys}
