"""Command-line entry points: pretrain, train-supervisor, evaluate, full.

Exit codes: 0 on success, 2 for configuration errors, 3 for stage failures.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .config import load_scenario, parse_distribution
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
    _TRAINED,
)
from .supervisor import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _parse_shift(raw: str):
    out = []
    for token in raw.split(","):
        match = re.fullmatch(r"\s*(-?\d+)\s*:(.*)", token)
        if match is None:
            raise ScenarioError(f"malformed --shift token {token!r}, expected STEP:DISTRIBUTION")
        out.append((int(match[1]), parse_distribution(match[2])))
    return tuple(out)


# every option but --scenario and --out, which all verbs take
_OPTIONS = {
    "--approach": dict(default="ATMARL", help="approach name"),
    "--seed": dict(type=int, action="append", help="evaluation seed (repeatable)"),
    "--episodes": dict(type=int, help="supervisor training episodes"),
    "--checkpoint": dict(help="directory to read checkpoints from (default: --out)"),
    "--shift": dict(help="distribution shifts, e.g. 20:gaussian,30:gamma"),
    "--episode-length": dict(type=int, help="evaluation episode length"),
    "--eval-distribution": dict(help="evaluate under this distribution"),
}
# the options each verb reads; argparse refuses any other (exit 2)
_VERB_OPTIONS = {
    "pretrain": (),
    # the Oracle trains on the evaluation distribution
    "train-supervisor": ("--approach", "--episodes", "--checkpoint", "--eval-distribution"),
    "evaluate": ("--approach", "--seed", "--checkpoint", "--shift", "--episode-length", "--eval-distribution"),
    "full": ("--seed", "--episodes", "--shift", "--episode-length", "--eval-distribution"),
}
_FULL_APPROACHES = (Approach.ATMARL, Approach.RULE_BASED, Approach.NAIVE_PARALLEL, Approach.GOAL_HALVING)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atmarl", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, options in _VERB_OPTIONS.items():
        p = sub.add_parser(verb)
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--out", required=True, help="output directory")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _plan_from_args(args) -> ExperimentPlan:
    """The plan of the parsed options; an option the verb does not take is absent from ``args``."""
    opts = vars(args)
    scenario = load_scenario(opts["scenario"])
    # unset options keep ExperimentPlan's defaults, which the canonical plans share
    given = {}
    if opts["verb"] == "full":
        given["approaches"] = _FULL_APPROACHES
    elif "approach" in opts:
        try:
            approach = Approach(opts["approach"])
        except ValueError:
            raise ScenarioError(f"unknown approach {opts['approach']!r}") from None
        if opts["verb"] == "train-supervisor":
            if approach not in _TRAINED:
                raise ScenarioError(f"approach {approach.value} has no trainable supervisor")
            if opts["eval_distribution"] and _TRAINED[approach].scenario == "scenario":
                raise ScenarioError(
                    f"--eval-distribution does not apply: {approach.value} trains on the scenario's distribution"
                )
        given["approaches"] = (approach,)
    if opts.get("episode_length") is not None:
        given["episode_length"] = opts["episode_length"]
    if opts.get("seed"):
        given["seeds"] = tuple(opts["seed"])
    if opts.get("episodes") is not None:
        given["train_cfg"] = TrainConfig(episodes=opts["episodes"])
    if opts.get("shift"):
        given["shift_schedule"] = _parse_shift(opts["shift"])
    if opts.get("eval_distribution"):
        given["eval_distribution"] = parse_distribution(opts["eval_distribution"])
    return ExperimentPlan(scenario=scenario, **given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan = _plan_from_args(args)
    except (ScenarioError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        print(f"config error: cannot make output directory {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    ckpt_dir = Path(vars(args).get("checkpoint") or out_dir)
    try:
        if args.verb == "pretrain":
            stage_pretrain(plan, out_dir)
        elif args.verb == "train-supervisor":
            stage_train_supervisor(plan, load_pretrain(plan, ckpt_dir), plan.approaches[0], out_dir)
        elif args.verb == "evaluate":
            artifacts = load_pretrain(plan, ckpt_dir)
            approach = plan.approaches[0]
            if approach in _TRAINED:
                load_policy(plan, artifacts, approach, ckpt_dir)
            traces = [evaluate_episode(plan, artifacts, approach, seed) for seed in plan.seeds]
            emit_report(plan, traces, out_dir)
        elif args.verb == "full":
            run_pipeline(plan, out_dir)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageFailure, CheckpointError, TrainingDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
