"""Canonical experiment plans for the desk-scale evaluation campaign.

These fix the training budgets and shift schedules used by the acceptance
suite and the demos (seeds and pre-training config are ``ExperimentPlan``'s
defaults), so results are reproducible byte-for-byte per package version.
"""

from __future__ import annotations

from .config import default_scenario
from .harness import Approach, ExperimentPlan
from .slice_sim import DistributionKind, DistributionSpec
from .supervisor import TrainConfig

SUPERVISOR_EPISODES = TrainConfig.episodes


def uniform_comparison_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """All four approaches on the stock 3-intent scenario under uniform UEs."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(
            Approach.ATMARL,
            Approach.GOAL_HALVING,
            Approach.RULE_BASED,
            Approach.NAIVE_PARALLEL,
        ),
        train_cfg=TrainConfig(episodes=episodes),
    )


def generalization_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Train on uniform UEs, evaluate on Gaussian; Oracle retrains on Gaussian."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL, Approach.RULE_BASED, Approach.ORACLE),
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
        train_cfg=TrainConfig(episodes=episodes),
    )


def shift_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Mid-episode UE redistribution at steps 20 (Gaussian) and 30 (Gamma)."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL,),
        episode_length=48,
        shift_schedule=(
            (20, DistributionSpec.of(DistributionKind.GAUSSIAN)),
            (30, DistributionSpec.of(DistributionKind.GAMMA)),
        ),
        train_cfg=TrainConfig(episodes=episodes),
    )


def five_intent_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Scalability check: 1 CV + 2 URLLC + 2 mIoT intents, ten goals per step."""
    return ExperimentPlan(
        scenario=default_scenario(five_intents=True),
        approaches=(Approach.ATMARL,),
        seeds=(1, 2, 3),
        train_cfg=TrainConfig(episodes=episodes),
    )
