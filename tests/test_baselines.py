import numpy as np
import pytest

from atmarl.agents import GOAL_LEVELS, SystemKind, agent_roster
from atmarl.baselines import goal_halving, naive_parallel_goals, rule_based_select
from atmarl.config import default_scenario
from atmarl.supervisor import GoalAssignment, GoalMode, PolicyDims, assignment_from_levels, create_policy


def test_rule_based_first_window_is_priority():
    for t in range(5):
        assert rule_based_select(t) is SystemKind.PRIORITY


def test_rule_based_second_window_is_mbr():
    assert rule_based_select(7) is SystemKind.MBR


def test_rule_based_rejects_bad_args():
    with pytest.raises(ValueError):
        rule_based_select(-1)


def test_naive_parallel_broadcasts_targets():
    cfg = default_scenario()
    assignment = naive_parallel_goals(cfg)
    assert assignment.values["priority_0"] == 4.0
    assert assignment.values["mbr_0"] == 4.0
    assert len(assignment) == 6
    for agent in agent_roster(cfg):
        target = cfg.services[agent.intent_index].kpi_target
        assert assignment.values[agent.key] == target


def test_naive_parallel_constant_over_time():
    cfg = default_scenario()
    a = naive_parallel_goals(cfg)
    b = naive_parallel_goals(cfg)
    assert a.values == b.values


def test_goal_halving_splits_equally():
    cfg = default_scenario()
    intermediate = GoalAssignment(
        levels={},
        values={a.key: 3.0 if a.intent_index == 0 else 2.0 for a in agent_roster(cfg)},
    )
    halved = goal_halving(intermediate, cfg)
    assert halved.values["priority_0"] == 1.5
    assert halved.values["mbr_0"] == 1.5
    assert halved.values["priority_1"] == 1.0
    assert halved.values["mbr_1"] == 1.0


def test_goal_halving_zero_goal():
    cfg = default_scenario()
    intermediate = GoalAssignment(levels={}, values={a.key: 0.0 for a in agent_roster(cfg)})
    halved = goal_halving(intermediate, cfg)
    assert all(v == 0.0 for v in halved.values.values())


def test_goal_halving_pair_sums_to_intermediate():
    cfg = default_scenario()
    intermediate = GoalAssignment(
        levels={}, values={a.key: 4.4 if a.intent_index == 0 else 1.8 for a in agent_roster(cfg)}
    )
    halved = goal_halving(intermediate, cfg)
    for k in range(cfg.intent_count):
        pri = halved.values[f"priority_{k}"]
        mbr = halved.values[f"mbr_{k}"]
        assert pri == mbr
        assert pri + mbr == pytest.approx(intermediate.values[f"priority_{k}"])


def roster_goal_halving(intermediate, config):
    """Goal halving that walks a freshly built roster; ``goal_halving`` must give the same values, keys in the same order."""
    return {agent.key: intermediate.values[agent.key] / 2.0 for agent in agent_roster(config)}


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("five", [False, True])
def test_goal_halving_equals_roster_reference(mode, five):
    # the supervisor's assignments in either goal mode, as evaluation halves them
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(31)
    policy = create_policy(rng, cfg, mode=mode, dims=PolicyDims(encoder=2, merger=2, fusion=2, gru=2))
    for _ in range(20):
        levels = rng.integers(1, GOAL_LEVELS + 1, policy.n_heads).tolist()
        intermediate = assignment_from_levels(policy, cfg, levels)
        halved = goal_halving(intermediate, cfg)
        expected = roster_goal_halving(intermediate, cfg)
        assert list(halved.values.items()) == list(expected.items())
        assert halved.levels == {}


def test_goal_halving_follows_the_intent_count():
    # keys are kept per intent count: a 3-intent call does not fix the keys of a 5-intent one
    three, five = default_scenario(), default_scenario(five_intents=True)
    for cfg in (three, five, three):
        intermediate = GoalAssignment(levels={}, values={a.key: 3.0 for a in agent_roster(cfg)})
        assert list(goal_halving(intermediate, cfg).values) == [a.key for a in agent_roster(cfg)]
    with pytest.raises(KeyError):
        goal_halving(GoalAssignment(levels={}, values={a.key: 3.0 for a in agent_roster(three)}), five)
