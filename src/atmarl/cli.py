"""Command-line entry points: pretrain, train-supervisor, evaluate, full.

Exit codes: 0 on success, 2 for configuration errors, 3 for stage failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_scenario
from .errors import CheckpointError, ScenarioError, StageFailure, TrainingDivergence
from .harness import (
    Approach,
    ExperimentPlan,
    emit_report,
    evaluate_episode,
    load_policy,
    load_pretrain,
    run_pipeline,
    stage_pretrain,
    stage_train_supervisor,
    _POLICY_FILES,
)
from .slice_sim import DistributionKind, DistributionSpec
from .supervisor import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _parse_shift(raw: str):
    out = []
    for token in raw.split(","):
        t, kind = token.split(":")
        out.append((int(t), DistributionSpec.of(DistributionKind(kind.strip().capitalize()))))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atmarl", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("pretrain", "train-supervisor", "evaluate", "full"):
        p = sub.add_parser(verb)
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--approach", default="ATMARL", help="approach name")
        p.add_argument("--seed", type=int, action="append", help="evaluation seed (repeatable)")
        p.add_argument("--episodes", type=int, default=None, help="supervisor training episodes")
        p.add_argument("--checkpoint", default=None, help="checkpoint directory override")
        p.add_argument("--shift", default=None, help="distribution shifts, e.g. 20:gaussian,30:gamma")
        p.add_argument("--episode-length", type=int, default=None, help="evaluation episode length")
        p.add_argument("--eval-distribution", default=None, help="evaluate under this distribution")
    return parser


def _plan_from_args(args) -> ExperimentPlan:
    scenario = load_scenario(args.scenario)
    try:
        approach = Approach(args.approach)
    except ValueError:
        raise ScenarioError(f"unknown approach {args.approach!r}") from None
    # unset options keep ExperimentPlan's defaults, which the canonical plans share
    given = {}
    if args.episode_length is not None:
        given["episode_length"] = args.episode_length
    if args.seed:
        given["seeds"] = tuple(args.seed)
    if args.episodes is not None:
        given["train_cfg"] = TrainConfig(episodes=args.episodes)
    return ExperimentPlan(
        scenario=scenario,
        approaches=(approach,),
        shift_schedule=_parse_shift(args.shift) if args.shift else (),
        eval_distribution=(
            DistributionSpec.of(DistributionKind(args.eval_distribution.capitalize()))
            if args.eval_distribution
            else None
        ),
        **given,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan = _plan_from_args(args)
    except (ScenarioError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = Path(args.checkpoint) if args.checkpoint else out_dir
    try:
        if args.verb == "pretrain":
            stage_pretrain(plan, out_dir)
        elif args.verb == "train-supervisor":
            artifacts = load_pretrain(plan, ckpt_dir)
            approach = plan.approaches[0]
            if approach not in _POLICY_FILES:
                raise ScenarioError(f"approach {approach.value} has no trainable supervisor")
            stage_train_supervisor(plan, artifacts, approach, out_dir)
        elif args.verb == "evaluate":
            artifacts = load_pretrain(plan, ckpt_dir)
            approach = plan.approaches[0]
            if approach in _POLICY_FILES:
                load_policy(plan, artifacts, approach, ckpt_dir)
            traces = [evaluate_episode(plan, artifacts, approach, seed) for seed in plan.seeds]
            emit_report(plan, traces, out_dir)
        elif args.verb == "full":
            approaches = (Approach.ATMARL, Approach.RULE_BASED, Approach.NAIVE_PARALLEL, Approach.GOAL_HALVING)
            run_pipeline(replace(plan, approaches=approaches), out_dir)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageFailure, CheckpointError, TrainingDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
