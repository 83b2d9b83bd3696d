"""Canonical experiment plans for the desk-scale evaluation campaign.

These fix the approaches, evaluation distributions and shift schedules used
by the acceptance suite and the demos (seeds, the pre-training config and the
training budget are ``ExperimentPlan``'s defaults), so results are
reproducible byte-for-byte per package version.
"""

from __future__ import annotations

from .config import default_scenario
from .harness import Approach, ExperimentPlan
from .slice_sim import DistributionKind, DistributionSpec
from .supervisor import TrainConfig

SUPERVISOR_EPISODES = TrainConfig.episodes


def uniform_comparison_plan() -> ExperimentPlan:
    """All four approaches on the stock 3-intent scenario under uniform UEs."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(
            Approach.ATMARL,
            Approach.GOAL_HALVING,
            Approach.RULE_BASED,
            Approach.NAIVE_PARALLEL,
        ),
    )


def generalization_plan() -> ExperimentPlan:
    """Train on uniform UEs, evaluate on Gaussian; Oracle retrains on Gaussian."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL, Approach.RULE_BASED, Approach.ORACLE),
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
    )


def shift_plan() -> ExperimentPlan:
    """Mid-episode UE redistribution at steps 20 (Gaussian) and 30 (Gamma)."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL,),
        episode_length=48,
        shift_schedule=(
            (20, DistributionSpec.of(DistributionKind.GAUSSIAN)),
            (30, DistributionSpec.of(DistributionKind.GAMMA)),
        ),
    )


def five_intent_plan() -> ExperimentPlan:
    """Scalability check: 1 CV + 2 URLLC + 2 mIoT intents, ten goals per step."""
    return ExperimentPlan(
        scenario=default_scenario(five_intents=True),
        approaches=(Approach.ATMARL,),
        seeds=(1, 2, 3),
    )
