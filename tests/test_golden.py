"""Cross-commit byte-identity pin.

A tiny plan runs every stage of the pipeline, and the sha256 of what it
writes is compared against a pinned value. A change that is meant to leave
the numerics alone must leave this hash alone; a change that alters them on
purpose updates ``PINNED`` and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from atmarl.agents import PretrainConfig
from atmarl.config import default_scenario
from atmarl.harness import Approach, ExperimentPlan, run_pipeline
from atmarl.slice_sim import DistributionKind, DistributionSpec
from atmarl.supervisor import TrainConfig

PINNED = "8f4c8519beefd11fa1a71bbab3425ab42e186ecead2d91beb52919eb1f680b31"
PINNED_NUMPY = "2.4.6"


def golden_plan() -> ExperimentPlan:
    return ExperimentPlan(
        scenario=default_scenario(),
        approaches=(Approach.ATMARL, Approach.GOAL_HALVING, Approach.RULE_BASED, Approach.NAIVE_PARALLEL),
        seeds=(1, 2),
        episode_length=12,
        shift_schedule=((5, DistributionSpec.of(DistributionKind.GAMMA)),),
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
        pretrain_cfg=PretrainConfig(episodes=40, episode_length=10),
        train_cfg=TrainConfig(episodes=4, episode_length=12),
    )


def run_digest(out) -> str:
    """sha256 over the checkpoints, pre-training log, traces and summary, by file name."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix == ".ckpt" or path.name in ("pretrain_log.csv", "summary.csv") or path.name.startswith("trace_"):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def test_tiny_plan_outputs_match_pinned_hash(tmp_path):
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        run_pipeline(golden_plan(), tmp_path, reuse=False)
    written = sorted(p.name for p in tmp_path.iterdir() if p.suffix in (".ckpt", ".csv"))
    assert len(written) == 3 + 8 + 2, written  # 3 checkpoints, 4 approaches x 2 seeds, log and summary
    got = run_digest(tmp_path)
    assert got == PINNED, (
        f"outputs changed: sha256 {got}, pinned {PINNED} under numpy {PINNED_NUMPY} "
        f"(running numpy {np.__version__}); a deliberate change of numerics updates PINNED"
    )
