"""Cross-commit byte-identity pin.

A tiny plan runs every stage of the pipeline, and the sha256 of what it
writes is compared against a pinned value. A change that is meant to leave
the numerics alone must leave this hash alone; a change that alters them on
purpose updates ``PINNED`` and says why in CHANGES.md. ``PINNED_OUTPUTS``
hashes everything but the checkpoints, so a change of checkpoint layout
alone moves ``PINNED`` and leaves it.
"""

import hashlib

import numpy as np
import pytest

from atmarl.agents import PretrainConfig
from atmarl.config import default_scenario
from atmarl.harness import Approach, ExperimentPlan, run_pipeline
from atmarl.slice_sim import DistributionKind, DistributionSpec
from atmarl.supervisor import TrainConfig

PINNED = "61af9386b316b4a4c4185db4000d21a6c036642677d474eaea2e4dc48aac2d0b"
PINNED_OUTPUTS = "0393c47a2fee32441e7458399bb7ed8e70eb4368d1c3a301b487d94c37303b52"
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


def run_digest(out, checkpoints: bool = True) -> str:
    """sha256 over the pre-training and training logs, traces and summary, and the checkpoints unless left out, by file name."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if (
            (checkpoints and path.suffix == ".ckpt")
            or path.name in ("pretrain_log.csv", "summary.csv")
            or path.name.startswith(("trace_", "train_log_"))
        ):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def test_tiny_plan_outputs_match_pinned_hash(tmp_path):
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        run_pipeline(golden_plan(), tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir() if p.suffix in (".ckpt", ".csv"))
    # 3 checkpoints, 2 training logs, 4 approaches x 2 seeds, the pre-training log and the summary
    assert len(written) == 3 + 2 + 8 + 2, written
    outputs = run_digest(tmp_path, checkpoints=False)
    assert outputs == PINNED_OUTPUTS, (
        f"training or evaluation outputs changed: sha256 {outputs}, pinned {PINNED_OUTPUTS} under numpy {PINNED_NUMPY} "
        f"(running numpy {np.__version__}); a deliberate change of numerics updates both pins"
    )
    got = run_digest(tmp_path)
    assert got == PINNED, (
        f"outputs changed: sha256 {got}, pinned {PINNED} under numpy {PINNED_NUMPY} "
        f"(running numpy {np.__version__}); a deliberate change of numerics or of the checkpoint layout updates PINNED"
    )
