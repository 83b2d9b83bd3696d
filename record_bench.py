"""Record a ``BENCH_<label>.json``: perfbench runs plus untraced supervisor, agent, simulator and checkpoint microbenchmarks.

Run from the repository root::

    python3 record_bench.py --label baseline --tree /path/to/parent/checkout
    python3 record_bench.py --label batched_backward
    python3 record_bench.py --label frozen_agents --parent /path/to/parent/checkout --parent-label before_frozen_agents

``--tree`` names the checkout whose code is measured (default: this one);
its own ``perfbench/run.py`` runs every workload timed (``--trace 0``) once
and traced (``--trace 1``) ``TRACED_RUNS`` times, and its ``src`` supplies
the package for the microbenchmarks. ``--parent`` names a second checkout
to record in the same invocation, as ``BENCH_<parent-label>.json``: the
two trees' perfbench runs then alternate workload by workload, each timed
and each traced run of one tree beside the same run of the other, the
first of each pair alternating too (``perfbench_records``), so a host that
slows during the recording moves both records alike. The traced runs are merged into one
entry with the keys of one run: the median of each layer metric, and every
run's ``digest sha256:`` line, with a mismatch between them written into
the entry. One traced run per side cannot show a per-layer change of about
10%: layers a change does not touch move that much between two runs. Each
run keeps its digest line, so two records of trees meant to be
byte-identical show whether their outputs are. The file lands at the root
of this checkout. Every record uses the same seed, run length, sample
count, reference runs and traced runs per side (``SEED``, ``SECONDS``,
``REPEATS``, ``REFERENCE_RUNS``, ``TRACED_RUNS``, stored under
``settings``), so two records made on one host share their keys and
compare field by field.

The microbenchmarks call the package's current signatures: ``observe`` as
one pass over a list of roster members and the report's KPIs as floats,
``act`` and ``forward_step`` on a row of an ``EpisodeTape`` that carries
its policy (``act`` returning each head's rung), ``rollout_episode`` on a
given tape with a ``CapabilityTracker``, drawing its exploring start and
scoring its contexts itself as ``train_supervisor`` runs it, and returning
the rewards and critic values; ``episode_gradients`` on the tape that
episode left, refilling one accumulator as training does; and the
simulator state's knobs as the two plain lists ``state.priority`` and
``state.mbr`` beside its ``state.scenario``. So ``--tree`` must be a
checkout from the change that removed ``EpisodeTrajectory`` onwards; older
trees fail. Measure an older tree with that tree's own
``record_bench.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from statistics import median, quantiles

import numpy as np

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("pretrain", "train", "evaluate")
SEED = 101
SECONDS = 30.0  # length of each perfbench run
REPEATS = 40  # samples per microbenchmark
REFERENCE_RUNS = 5  # host-reference kernel runs whose median gauges the host on each side of a sample
TRACED_RUNS = 3  # traced perfbench runs per workload, merged by their median
MIXED_STATES = 64  # knob states in the cycle of the mixed simulator-step microbenchmark


def perfbench(tree: Path, workload: str, trace: int) -> dict:
    """The JSON object on the last line of one perfbench run, with the run's output digest line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return parse_perfbench(done.stdout)


def parse_perfbench(stdout: str) -> dict:
    """The last line's JSON object, plus the ``digest sha256:`` line under ``digest``."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["digest"] = next(line for line in lines if line.startswith("digest sha256:"))
    return run


def merge_traced(runs: list[dict]) -> dict:
    """One entry for several traced runs of a workload, with the keys of one run.

    Each metric is the median of its values over the runs, in its unit;
    ``correct`` holds if it holds for every run, and ``attempted`` and
    ``failed`` are the runs' totals. ``digests`` lists every run's digest
    line. ``digest`` is that line when all runs agree, and otherwise starts
    with ``digest mismatch:`` and lists the distinct lines, so a record
    never hides runs of one tree that wrote different outputs.
    """
    names = set(runs[0]["metrics"])
    for run in runs[1:]:
        if set(run["metrics"]) != names:
            raise ValueError(f"traced runs disagree on their metrics: {sorted(names ^ set(run['metrics']))}")
    digests = [run["digest"] for run in runs]
    distinct = list(dict.fromkeys(digests))
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            name: {"unit": runs[0]["metrics"][name]["unit"], "value": median(run["metrics"][name]["value"] for run in runs)}
            for name in sorted(names)
        },
        "digest": distinct[0] if len(distinct) == 1 else "digest mismatch: " + " | ".join(distinct),
        "digests": digests,
    }


def perfbench_records(trees: list[Path]) -> list[dict]:
    """Each tree's ``perfbench`` entry: per workload its timed run and its ``TRACED_RUNS`` traced runs merged.

    The trees take turns workload by workload: the timed runs of every tree,
    then each round of traced runs, and every other round runs the trees in
    reverse order, so that no tree always goes first.
    """
    records = [{} for _ in trees]
    for workload in WORKLOADS:
        runs = [{"timed": None, "traced": []} for _ in trees]
        for round_ in range(1 + TRACED_RUNS):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for k in order:
                if round_ == 0:
                    runs[k]["timed"] = perfbench(trees[k], workload, 0)
                else:
                    runs[k]["traced"].append(perfbench(trees[k], workload, 1))
        for record, run in zip(records, runs):
            record[workload] = {"timed": run["timed"], "traced": merge_traced(run["traced"])}
    return records


def quartiles(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(samples)}


def microbenchmarks(tree: Path) -> dict:
    """Untraced ms per 40-step rollout and per ``episode_gradients``, and µs per ``act``, per
    ``forward_step``, per agent step (the ``observe`` roster pass over one
    agent, then its discretize, greedy select_action and apply_action), per
    ``slice_sim.step`` at the opening state (``sim_step``) and over a fixed
    cycle of ``MIXED_STATES`` knob states, each with random priorities, MBR
    rungs and one of the three UE spreads, drawn once from ``SEED``
    (``sim_step_mixed``), and per
    ``allocate_capacity`` call; ms per ``save_checkpoint`` and per
    ``load_checkpoint`` of the blocks ``stage_train_supervisor`` writes for a
    default-dims policy; ms per ``evaluate_episode``, one greedy ATMARL
    episode of perfbench's shift plan (48 steps) on the checkpoints of
    perfbench's ``evaluate`` set-up, loaded as the ``evaluate`` verb loads
    them, its tape kept from one episode to the next as for a policy's seeds.

    Each sample is also given over the perfbench host-reference kernel's
    time around it (``*_ref``), as perfbench gates its timings: the mean of
    the medians of ``REFERENCE_RUNS`` kernel runs just before and just after
    the sample, since one ~1 ms kernel run jitters as much as a sample does.
    Run it in a fresh process: it imports the package from ``tree``.
    """
    sys.path.insert(0, str(tree / "perfbench"))
    import run as bench  # the measured tree's perfbench/run.py; puts its src on sys.path

    from atmarl import slice_sim
    from atmarl.agents import (
        Member, PretrainConfig, SystemKind, agent_roster, apply_action, discretize, estimate_capabilities, observe,
        pretrain_system, select_action,
    )
    from atmarl.checkpoint import load_checkpoint, save_checkpoint
    from atmarl.config import default_scenario
    from atmarl.harness import (
        Approach, _capability_blocks, evaluate_episode, load_policy, load_pretrain, stage_pretrain, stage_train_supervisor,
    )
    from atmarl.supervisor import (
        DISCOUNT, CapabilityTracker, EpisodeTape, TrainConfig, act, create_policy, discounted_returns,
        episode_gradients, forward_step, rollout_episode,
    )

    cfg = default_scenario()
    rng = np.random.default_rng(SEED)
    quick = PretrainConfig(episodes=20, episode_length=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the quick pre-training misses its floor
        planes = [pretrain_system(kind, cfg, rng, quick) for kind in (SystemKind.PRIORITY, SystemKind.MBR)]
    qtables = {k: v for plane in planes for k, v in plane.qtables.items()}
    caps = estimate_capabilities(planes[0].logs + planes[1].logs, cfg)
    policy = create_policy(rng, cfg)
    train = TrainConfig()

    def timed(fn, calls: int = 1) -> tuple[list[float], list[float]]:
        ms, ref = [], []
        before = bench.reference_s(REFERENCE_RUNS)
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed = (time.perf_counter() - start) / calls
            after = bench.reference_s(REFERENCE_RUNS)
            ms.append(elapsed * 1e3)
            ref.append(elapsed / (0.5 * (before + after)))
            before = after
        return ms, ref

    # as training runs: one tracker, one tape for the timed rollouts, another
    # kept for the episode the other supervisor microbenchmarks read, and one
    # accumulator
    tracker = CapabilityTracker(caps, cfg)
    rollout_tape = EpisodeTape(policy, train.episode_length)
    acc = policy.zeros_like()

    def rollout():
        return rollout_episode(rollout_tape, cfg, qtables, tracker, rng)

    tape = EpisodeTape(policy, train.episode_length)
    rewards, values = rollout_episode(tape, cfg, qtables, tracker, rng)
    returns = discounted_returns(rewards, DISCOUNT)
    advantages = returns - values
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    # rerunning a middle step rewrites its own actor rows with the same bits;
    # act's draws rewrite that step's sampled rungs, but only after episode_gradients is timed
    step = len(rewards) // 2
    # the opening state of every episode: neutral knobs on the contended default slice
    state = slice_sim.init_scenario(cfg)
    # a fixed cycle of random knob states drawn once from SEED: at the opening
    # state every gNodeB's fill ends in its first round with every service
    # short, while most of the closed loop's fills do not
    knobs = np.random.default_rng(SEED)
    spreads = [slice_sim.DistributionSpec.of(kind) for kind in slice_sim.DistributionKind]
    mixed_states = []
    for _ in range(MIXED_STATES):
        mixed = slice_sim.init_scenario(cfg)
        mixed.priority = [int(p) for p in knobs.choice(slice_sim.PRIORITY_LEVELS, cfg.intent_count)]
        mixed.mbr = [float(m) for m in knobs.choice(slice_sim.MBR_LEVELS, cfg.intent_count)]
        mixed_states.append(slice_sim.set_distribution(mixed, spreads[knobs.integers(len(spreads))]))
    mixed_cycle = itertools.cycle(mixed_states)
    offered = slice_sim.offered_loads(state, rng)
    # one priority agent on its own opening state, its knob put back after each step
    agent = agent_roster(cfg)[0]
    agent_state = slice_sim.init_scenario(cfg)
    report = slice_sim.evaluate_kpis(agent_state, offered)
    members = [Member.of(agent, cfg, qtables[agent.key])]
    goal = {agent.key: cfg.services[agent.intent_index].kpi_target}
    knob = agent_state.priority[agent.intent_index]

    def agent_step():
        seen = observe(agent_state, report.kpi.tolist(), report.congestion, members, goal)
        index = discretize(seen[agent.key])
        apply_action(agent_state, agent, select_action(qtables[agent.key], index, 0.0, rng))
        agent_state.priority[agent.intent_index] = knob

    # what stage_train_supervisor saves: the policy's parameters and its capability vectors
    blocks = {f"policy.{k}": v for k, v in policy.named_params().items()}
    blocks.update(_capability_blocks(caps))
    tmp = tempfile.TemporaryDirectory()
    ckpt = Path(tmp.name) / "supervisor_atmarl.ckpt"

    def save():
        save_checkpoint(ckpt, blocks, meta={"mode": "agent", "intents": str(cfg.intent_count)})

    save()
    # the checkpoints of perfbench's evaluate set-up, from this seed, reloaded
    plan = bench.make_plan(SEED, bench.SIZES, bench.SIZES.setup_pretrain_episodes, bench.SIZES.setup_train_episodes)
    run_dir = Path(tmp.name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the set-up's short pre-training misses its floor
        stage_train_supervisor(plan, stage_pretrain(plan, run_dir), Approach.ATMARL, run_dir)
    artifacts = load_pretrain(plan, run_dir)
    load_policy(plan, artifacts, Approach.ATMARL, run_dir)
    out = {}
    for name, fn, calls, scale in (
        ("rollout_episode_ms", rollout, 1, 1.0),
        ("episode_gradients_ms", lambda: episode_gradients(tape, advantages, returns, acc), 1, 1.0),
        ("act_us", lambda: act(tape, step, rng, True), 200, 1e3),
        ("forward_step_us", lambda: forward_step(tape, step), 200, 1e3),
        ("agent_step_us", agent_step, 200, 1e3),
        ("sim_step_us", lambda: slice_sim.step(state, rng), 200, 1e3),
        # each sample runs the whole cycle three times
        ("sim_step_mixed_us", lambda: slice_sim.step(next(mixed_cycle), rng), 3 * MIXED_STATES, 1e3),
        ("allocate_capacity_us",
         lambda: slice_sim.allocate_capacity(offered, state.priority, state.mbr, state.scenario.bandwidth_mbps), 200, 1e3),
        ("save_checkpoint_ms", save, 1, 1.0),
        ("load_checkpoint_ms", lambda: load_checkpoint(ckpt), 1, 1.0),
        ("evaluate_episode_ms", lambda: evaluate_episode(plan, artifacts, Approach.ATMARL, plan.seeds[0]), 1, 1.0),
    ):
        ms, ref = timed(fn, calls)
        out[name] = quartiles([x * scale for x in ms])
        out[name.rsplit("_", 1)[0] + "_ref"] = quartiles(ref)
    tmp.cleanup()
    return out


def microbenchmarks_of(tree: Path) -> dict:
    """``microbenchmarks(tree)`` run in a fresh process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT)!r}); import record_bench; "
            f"print(json.dumps(record_bench.microbenchmarks(record_bench.Path({str(tree)!r}))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code is measured")
    parser.add_argument("--parent", type=Path, help="a second checkout, recorded alongside with its runs alternating")
    parser.add_argument("--parent-label", help="names the second checkout's output, BENCH_<parent-label>.json")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.parent_label is None):
        parser.error("--parent and --parent-label go together")
    labels, trees = [args.label], [args.tree.resolve()]
    if args.parent is not None:
        labels.insert(0, args.parent_label)
        trees.insert(0, args.parent.resolve())

    micro = [microbenchmarks_of(tree) for tree in trees]
    for label, entry, micro_entry in zip(labels, perfbench_records(trees), micro):
        record = {
            "label": label,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            },
            "settings": {
                "seed": SEED,
                "seconds": SECONDS,
                "repeats": REPEATS,
                "reference_runs": REFERENCE_RUNS,
                "traced_runs": TRACED_RUNS,
            },
            "perfbench": entry,
            "micro": micro_entry,
        }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
