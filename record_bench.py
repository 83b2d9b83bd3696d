"""Record a ``BENCH_<label>.json``: perfbench runs plus untraced supervisor and simulator microbenchmarks.

Run from the repository root::

    python3 record_bench.py --label baseline --tree /path/to/parent/checkout
    python3 record_bench.py --label batched_backward

``--tree`` names the checkout whose code is measured (default: this one);
its own ``perfbench/run.py`` runs every workload timed (``--trace 0``) and
traced (``--trace 1``), and its ``src`` supplies the package for the
microbenchmarks. The file lands at the root of this checkout. Every record
uses the same seed, run length and sample count (``SEED``, ``SECONDS``,
``REPEATS``, stored under ``settings``), so two records made on one host
share their keys and compare field by field.

The microbenchmarks call the package's current signatures
(``episode_gradients`` without a training config, the discount read from
``supervisor.DISCOUNT``), so ``--tree`` must be a checkout from the change
that made the learning settings module constants onwards; older trees fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
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


def perfbench(tree: Path, workload: str, trace: int) -> dict:
    """The JSON object on the last line of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(samples)}


def microbenchmarks(tree: Path) -> dict:
    """Untraced ms per 40-step rollout and per ``episode_gradients``, and µs per ``act``,
    per ``slice_sim.step`` and per ``allocate_capacity`` call.

    Each sample is also given over the perfbench host-reference kernel's
    time around it (``*_ref``), as perfbench gates its timings. Run it in a
    fresh process: it imports the package from ``tree``.
    """
    sys.path.insert(0, str(tree / "perfbench"))
    import run as bench  # the measured tree's perfbench/run.py; puts its src on sys.path

    from atmarl import slice_sim
    from atmarl.agents import PretrainConfig, SystemKind, estimate_capabilities, pretrain_system
    from atmarl.config import default_scenario
    from atmarl.supervisor import (
        DISCOUNT, TrainConfig, act, create_policy, discounted_returns, episode_gradients, rollout_episode,
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
        before = bench.reference_s(1)
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed = (time.perf_counter() - start) / calls
            after = bench.reference_s(1)
            ms.append(elapsed * 1e3)
            ref.append(elapsed / (0.5 * (before + after)))
            before = after
        return ms, ref

    def rollout():
        return rollout_episode(policy, cfg, qtables, caps, rng, train.episode_length, explore=True)

    traj = rollout()
    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = returns - np.array([f.value for f in traj.forwards])
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    step = len(traj) // 2
    hidden = traj.forwards[step - 1].hidden
    # the opening state of every episode: neutral knobs on the contended default slice
    state = slice_sim.init_scenario(cfg)
    offered = slice_sim.offered_loads(state, rng)
    controls = state.controls

    out = {}
    for name, fn, calls, scale in (
        ("rollout_episode_ms", rollout, 1, 1.0),
        ("episode_gradients_ms", lambda: episode_gradients(policy, traj, advantages, returns), 1, 1.0),
        ("act_us", lambda: act(policy, cfg, traj.gammas[step], traj.tuples[step], traj.targets, hidden, rng, True), 200, 1e3),
        ("sim_step_us", lambda: slice_sim.step(state, rng), 200, 1e3),
        ("allocate_capacity_us",
         lambda: slice_sim.allocate_capacity(offered, controls.priority, controls.mbr, state.airlink_bandwidth), 200, 1e3),
    ):
        ms, ref = timed(fn, calls)
        out[name] = quartiles([x * scale for x in ms])
        out[name.rsplit("_", 1)[0] + "_ref"] = quartiles(ref)
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
        "settings": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS},
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
