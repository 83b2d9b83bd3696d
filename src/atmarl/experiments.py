"""Canonical experiment plans for the desk-scale evaluation campaign.

These fix the seeds, training budgets and shift schedules used by the
acceptance suite and the demo scripts, so results are reproducible
byte-for-byte given the same package version.
"""

from __future__ import annotations

from .agents import PretrainConfig
from .config import default_scenario
from .harness import Approach, ExperimentPlan
from .slice_sim import DistributionKind, DistributionSpec
from .supervisor import TrainConfig

EVAL_SEEDS = (1, 2, 3, 4, 5)
TRAIN_SEED = 1001
SUPERVISOR_EPISODES = 500


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
        seeds=EVAL_SEEDS,
        train_seed=TRAIN_SEED,
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=episodes),
    )


def generalization_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Train on uniform UEs, evaluate on Gaussian; Oracle retrains on Gaussian."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL, Approach.RULE_BASED, Approach.ORACLE),
        seeds=EVAL_SEEDS,
        train_seed=TRAIN_SEED,
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=episodes),
    )


def shift_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Mid-episode UE redistribution at steps 20 (Gaussian) and 30 (Gamma)."""
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL,),
        seeds=EVAL_SEEDS,
        train_seed=TRAIN_SEED,
        episode_length=48,
        shift_schedule=(
            (20, DistributionSpec.of(DistributionKind.GAUSSIAN)),
            (30, DistributionSpec.of(DistributionKind.GAMMA)),
        ),
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=episodes),
    )


def five_intent_plan(episodes: int = SUPERVISOR_EPISODES) -> ExperimentPlan:
    """Scalability check: 1 CV + 2 URLLC + 2 mIoT intents, ten goals per step."""
    return ExperimentPlan(
        scenario=default_scenario(five_intents=True),
        approaches=(Approach.ATMARL,),
        seeds=(1, 2, 3),
        train_seed=TRAIN_SEED,
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=episodes),
    )
