"""Record a ``BENCH_<label>.json``: perfbench runs plus untraced supervisor, agent, simulator and checkpoint microbenchmarks.

Run from the repository root::

    python3 record_bench.py --label baseline --tree /path/to/parent/checkout
    python3 record_bench.py --label batched_backward

``--tree`` names the checkout whose code is measured (default: this one);
its own ``perfbench/run.py`` runs every workload timed (``--trace 0``) and
traced (``--trace 1``), and its ``src`` supplies the package for the
microbenchmarks. Each run keeps its ``digest sha256:`` line, so two records
of trees meant to be byte-identical show whether their outputs are. The
file lands at the root of this checkout. Every record
uses the same seed, run length, sample count and reference runs per side
(``SEED``, ``SECONDS``, ``REPEATS``, ``REFERENCE_RUNS``, stored under
``settings``), so two records made on one host share their keys and
compare field by field.

The microbenchmarks call the package's current signatures: ``observe`` as
one pass over a list of roster members and the report's KPIs as floats,
``act`` and ``forward_step`` on a row of an ``EpisodeTape`` (``act``
returning each head's rung), trajectories that keep their leaf inputs on
that tape, ``episode_gradients`` refilling one accumulator as training
does, the critic values read off the trajectory, and the simulator state's
knobs as the two plain lists ``state.priority`` and ``state.mbr`` beside
its ``state.scenario``. So ``--tree`` must be a checkout from the change
that made ``observe`` that roster pass onwards; older trees fail. Measure an
older tree with that tree's own ``record_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from statistics import quantiles

import numpy as np

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("pretrain", "train", "evaluate")
SEED = 101
SECONDS = 30.0  # length of each perfbench run
REPEATS = 40  # samples per microbenchmark
REFERENCE_RUNS = 5  # host-reference kernel runs whose median gauges the host on each side of a sample


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


def quartiles(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(samples)}


def microbenchmarks(tree: Path) -> dict:
    """Untraced ms per 40-step rollout and per ``episode_gradients``, and µs per ``act``, per
    ``forward_step``, per agent step (the ``observe`` roster pass over one
    agent, then its discretize, greedy select_action and apply_action), per
    ``slice_sim.step`` and per
    ``allocate_capacity`` call; ms per ``save_checkpoint`` and per
    ``load_checkpoint`` of the blocks ``stage_train_supervisor`` writes for a
    default-dims policy.

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
    from atmarl.harness import _capability_blocks
    from atmarl.supervisor import (
        DISCOUNT, EpisodeTape, TrainConfig, act, create_policy, discounted_returns, episode_gradients,
        forward_step, rollout_episode,
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

    # as training runs: one tape for the timed rollouts, another kept for the
    # trajectory the other supervisor microbenchmarks read, and one accumulator
    rollout_tape = EpisodeTape(policy, train.episode_length)
    acc = policy.zeros_like()

    def rollout():
        return rollout_episode(policy, cfg, qtables, caps, rng, train.episode_length, explore=True, tape=rollout_tape)

    traj = rollout_episode(policy, cfg, qtables, caps, rng, train.episode_length, explore=True)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = returns - traj.values
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    # rerunning a middle step rewrites its own rows with the same bits
    step = len(traj) // 2
    # the opening state of every episode: neutral knobs on the contended default slice
    state = slice_sim.init_scenario(cfg)
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
    out = {}
    for name, fn, calls, scale in (
        ("rollout_episode_ms", rollout, 1, 1.0),
        ("episode_gradients_ms", lambda: episode_gradients(policy, traj, advantages, returns, acc), 1, 1.0),
        ("act_us", lambda: act(policy, traj.tape, step, rng, True), 200, 1e3),
        ("forward_step_us", lambda: forward_step(policy, traj.tape, step), 200, 1e3),
        ("agent_step_us", agent_step, 200, 1e3),
        ("sim_step_us", lambda: slice_sim.step(state, rng), 200, 1e3),
        ("allocate_capacity_us",
         lambda: slice_sim.allocate_capacity(offered, state.priority, state.mbr, state.scenario.bandwidth_mbps), 200, 1e3),
        ("save_checkpoint_ms", save, 1, 1.0),
        ("load_checkpoint_ms", lambda: load_checkpoint(ckpt), 1, 1.0),
    ):
        ms, ref = timed(fn, calls)
        out[name] = quartiles([x * scale for x in ms])
        out[name.rsplit("_", 1)[0] + "_ref"] = quartiles(ref)
    tmp.cleanup()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code is measured")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT)!r}); import record_bench; "
            f"print(json.dumps(record_bench.microbenchmarks(record_bench.Path({str(tree)!r}))))")
    micro = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    record = {
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "settings": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS, "reference_runs": REFERENCE_RUNS},
        "perfbench": {
            w: {mode: perfbench(tree, w, trace) for mode, trace in (("timed", 0), ("traced", 1))}
            for w in WORKLOADS
        },
        "micro": json.loads(micro.stdout.strip().splitlines()[-1]),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
