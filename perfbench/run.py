"""atmarl benchmark: one command for the pretrain, train and evaluate workloads.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run and prints the end-to-end metrics;
``--trace 1`` is the traced run and prints the per-layer metrics. The last
line of standard output is one JSON object; the lines before it repeat every
number by name and unit, with the environment, the output digest and the
output checks. See perfbench/README.md.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# numpy here links a 64-thread OpenBLAS; the workloads are single-threaded
# closed loops, so pin every BLAS/OpenMP pool before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".runs"

if not (SRC / "atmarl").is_dir():
    sys.exit(f"perfbench: atmarl sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import atmarl.harness as harness  # noqa: E402
from atmarl import experiments  # noqa: E402
from atmarl.agents import PretrainConfig  # noqa: E402
from atmarl.checkpoint import load_checkpoint  # noqa: E402
from atmarl.harness import Approach, ExperimentPlan  # noqa: E402
from atmarl.slice_sim import PL_RANGE, QOE_RANGE, KpiKind  # noqa: E402

import spans  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_T0

EVAL_APPROACHES = (Approach.ATMARL, Approach.GOAL_HALVING, Approach.RULE_BASED, Approach.NAIVE_PARALLEL)
SUPERVISED = (Approach.ATMARL, Approach.GOAL_HALVING)
ORIGINALS = {f"{m}.{f}": getattr(sys.modules[f"atmarl.{m}"], f) for m, fns in spans.LAYERS.items() for f in fns}


@dataclass(frozen=True)
class Sizes:
    """Fixed work of one batch and of one set-up; a run repeats batches."""

    pretrain_episodes: int = 60  # per plane, one `pretrain` batch
    train_episodes: int = 20  # one `train` batch
    eval_seeds: int = 12  # per approach, one `evaluate` batch
    setup_pretrain_episodes: int = 20  # per plane, set-up of `train` and `evaluate`
    setup_train_episodes: int = 3  # per policy, set-up of `evaluate`
    setup_repeats: int = 3


SIZES = Sizes()


def make_plan(seed: int, sizes: Sizes, pretrain_episodes: int, train_episodes: int) -> ExperimentPlan:
    """The canonical shift plan with seed-derived seeds and reduced episode counts.

    3 intents, 48-step evaluation episodes with Gaussian UEs from step 20 and
    Gamma from step 30, canonical pre-training and A2C configs (20- and
    40-step episodes, exploring starts) apart from the episode counts.
    """
    pretrain_seed, train_seed, *eval_seeds = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(2 + sizes.eval_seeds)
    )
    base = experiments.shift_plan()
    return replace(
        base,
        approaches=EVAL_APPROACHES,
        seeds=tuple(eval_seeds),
        pretrain_seed=pretrain_seed,
        train_seed=train_seed,
        pretrain_cfg=replace(base.pretrain_cfg, episodes=pretrain_episodes),
        train_cfg=replace(base.train_cfg, episodes=train_episodes),
    )


# ---------------------------------------------------------------------------
# output checks


def kpi_failures(kpi: np.ndarray, plan: ExperimentPlan) -> int:
    """Rows of a [steps, services] KPI array that are non-finite or out of range.

    QoE must lie in [1, 5] and packet loss in [0, 100].
    """
    if not len(kpi):
        return 0
    qoe = np.array([svc.kpi_kind is KpiKind.QOE for svc in plan.scenario.services])
    low = np.where(qoe, QOE_RANGE[0], PL_RANGE[0])
    high = np.where(qoe, QOE_RANGE[1], PL_RANGE[1])
    bad = ~np.isfinite(kpi) | (kpi < low) | (kpi > high)
    return int(bad.any(axis=1).sum())


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def capability_blocks(capabilities) -> dict:
    out = {}
    for key, vec in capabilities.items():
        out[f"capability.{key}"] = vec.rho
        out[f"capability_mask.{key}"] = vec.from_data.astype(np.float64)
    return out


def pretrain_blocks(artifacts) -> dict:
    out = {f"qtable.{k}": t.values for k, t in artifacts.qtables.items()}
    out.update(capability_blocks(artifacts.capabilities))
    return out


def policy_blocks(artifacts, approach: Approach) -> dict:
    out = {f"policy.{k}": v for k, v in artifacts.policies[approach.value].named_params().items()}
    out.update(capability_blocks(artifacts.policy_capabilities[approach.value]))
    return out


def reload_failures(path: Path, expected: dict) -> list[str]:
    """A checkpoint must reload through load_checkpoint bit-exactly."""
    _, arrays = load_checkpoint(path)
    if set(arrays) != set(expected):
        return [f"{path.name}: blocks differ from what was saved"]
    return [f"{path.name}: block {k} does not reload bit-exactly" for k in expected if not same_bits(arrays[k], expected[k])]


DIGESTED = ("pretrain_log.csv", "summary.csv")


def digest(out: Path) -> str:
    """sha256 over the checkpoints, pretrain log, traces and summary in ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix == ".ckpt" or path.name in DIGESTED or path.name.startswith("trace_"):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def clear(out: Path, patterns: tuple[str, ...]):
    for pattern in patterns:
        for path in out.glob(pattern):
            path.unlink()


# ---------------------------------------------------------------------------
# workloads


class Pretrain:
    """Tabular Q-learning of both planes through ``harness.stage_pretrain``."""

    name = "pretrain"
    population = "pre-training episodes of both planes"
    quality_unit = "share"
    quality_note = "goal-achievement share of the returned capability vectors"
    writes = ("pretrain.ckpt", "pretrain_log.csv")

    def __init__(self, seed: int, sizes: Sizes):
        self.plan = make_plan(seed, sizes, sizes.pretrain_episodes, sizes.train_episodes)
        self.episode_length = self.plan.pretrain_cfg.episode_length
        self.episodes = 2 * sizes.pretrain_episodes
        self.steps = self.episodes * self.episode_length
        self.forward_steps = 0

    def setup(self, out: Path):
        return None

    def check_setup(self, ctx, out: Path) -> list[str]:
        return []

    def batch(self, ctx, out: Path, steps: spans.StepLog):
        return harness.stage_pretrain(self.plan, out), None

    def check(self, ctx, out: Path, artifacts, returns) -> tuple[float, list[str]]:
        failures = reload_failures(out / "pretrain.ckpt", pretrain_blocks(artifacts))
        results = returns["agents.pretrain_system"].values
        if len(results) != 2 or not all(np.isfinite(r.mean_recent_reward) for r in results):
            failures.append("pre-training reward missing or non-finite")
        rho = np.concatenate([v.rho[v.from_data] for v in artifacts.capabilities.values()])
        return float(rho.mean()), failures

    def projection(self, episode_ms_p50: float) -> str:
        plans = len(CANONICAL_PLANS)
        episodes = plans * 2 * PretrainConfig().episodes
        return f"{plans} pre-trainings x {episodes // plans} episodes x p50 = {episodes * episode_ms_p50 / 1e3:.1f} s"


class Train:
    """A2C training of the agent-level ATMARL supervisor through ``harness.stage_train_supervisor``."""

    name = "train"
    population = "supervisor-training episodes (rollout + gradient step)"
    quality_unit = "reward"
    quality_note = "mean episode reward from the TrainStats train_supervisor returns"
    writes = ("supervisor_atmarl.ckpt",)

    def __init__(self, seed: int, sizes: Sizes):
        self.plan = make_plan(seed, sizes, sizes.setup_pretrain_episodes, sizes.train_episodes)
        self.episode_length = self.plan.train_cfg.episode_length
        self.episodes = sizes.train_episodes
        self.steps = self.episodes * self.episode_length
        self.forward_steps = self.steps

    def setup(self, out: Path):
        return harness.stage_pretrain(self.plan, out)

    def check_setup(self, artifacts, out: Path) -> list[str]:
        return reload_failures(out / "pretrain.ckpt", pretrain_blocks(artifacts))

    def batch(self, artifacts, out: Path, steps: spans.StepLog):
        harness.stage_train_supervisor(self.plan, artifacts, Approach.ATMARL, out)
        return None, None

    def check(self, artifacts, out: Path, _, returns) -> tuple[float, list[str]]:
        failures = reload_failures(out / "supervisor_atmarl.ckpt", policy_blocks(artifacts, Approach.ATMARL))
        stats = returns["supervisor.train_supervisor"].values
        rewards = stats[0].episode_rewards if len(stats) == 1 else []
        if len(rewards) != self.episodes or not np.all(np.isfinite(rewards)):
            failures.append("TrainStats rewards missing or non-finite")
        return (float(np.mean(rewards)) if rewards else float("nan")), failures

    def projection(self, episode_ms_p50: float) -> str:
        trainings = sum(len([a for a in p.approaches if a in harness._POLICY_FILES]) for p in CANONICAL_PLANS)
        episodes = trainings * experiments.SUPERVISOR_EPISODES
        return f"{trainings} trainings x {experiments.SUPERVISOR_EPISODES} episodes x p50 = {episodes * episode_ms_p50 / 1e3:.1f} s"


class Evaluate:
    """Greedy evaluation of four approaches over many seeds, then ``emit_report``.

    Mirrors the CLI ``evaluate`` verb: checkpoints are loaded, every
    (approach, seed) episode is run, and the report is written.
    """

    name = "evaluate"
    population = "supervisor-driven evaluation episodes (ATMARL and GoalHalving)"
    quality_unit = "reward"
    quality_note = "mean per-step reward over all traces"
    writes = ("trace_*.csv", "summary.csv", "plot_kpis.py")

    def __init__(self, seed: int, sizes: Sizes):
        self.plan = make_plan(seed, sizes, sizes.setup_pretrain_episodes, sizes.setup_train_episodes)
        self.episode_length = self.plan.episode_length
        self.episodes = len(EVAL_APPROACHES) * len(self.plan.seeds)
        self.steps = self.episodes * self.episode_length
        self.forward_steps = len(SUPERVISED) * len(self.plan.seeds) * self.episode_length

    def setup(self, out: Path):
        artifacts = harness.stage_pretrain(self.plan, out)
        for approach in SUPERVISED:
            harness.stage_train_supervisor(self.plan, artifacts, approach, out)
        return artifacts

    def check_setup(self, artifacts, out: Path) -> list[str]:
        failures = reload_failures(out / "pretrain.ckpt", pretrain_blocks(artifacts))
        for approach in SUPERVISED:
            failures += reload_failures(out / harness._POLICY_FILES[approach], policy_blocks(artifacts, approach))
        return failures

    def batch(self, trained, out: Path, steps: spans.StepLog):
        clock = steps.clock
        artifacts = harness.load_pretrain(self.plan, out)
        for approach in SUPERVISED:
            harness.load_policy(self.plan, artifacts, approach, out)
        traces, episodes = [], []
        for approach in self.plan.approaches:
            for seed in self.plan.seeds:
                t0 = clock()
                traces.append(harness.evaluate_episode(self.plan, artifacts, approach, seed))
                if approach in SUPERVISED:
                    episodes.append(((clock() - t0) * 1e3, len(steps.stamps) // self.episode_length - 1))
        harness.emit_report(self.plan, traces, out)
        return (artifacts, traces), episodes

    def check(self, trained, out: Path, outputs, returns) -> tuple[float, list[str]]:
        artifacts, traces = outputs
        failures = []
        expected = pretrain_blocks(trained)
        for approach in SUPERVISED:
            expected.update({f"{approach.value}:{k}": v for k, v in policy_blocks(trained, approach).items()})
        loaded = pretrain_blocks(artifacts)
        for approach in SUPERVISED:
            loaded.update({f"{approach.value}:{k}": v for k, v in policy_blocks(artifacts, approach).items()})
        if set(loaded) != set(expected) or not all(same_bits(loaded[k], expected[k]) for k in expected):
            failures.append("checkpoints loaded for evaluation differ from the trained artifacts")
        rewards = []
        for trace in traces:
            path = out / f"trace_{trace.approach.value}_seed{trace.seed}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.episode_length or len(trace.rows) != self.episode_length:
                failures.append(f"{path.name}: {len(rows)} rows, expected {self.episode_length}")
            kpis = [[float(row[f"kpi_{svc.name}"]) for svc in self.plan.scenario.services] for row in rows]
            bad = kpi_failures(np.array(kpis), self.plan)
            if bad:
                failures.append(f"{path.name}: {bad} rows with KPIs out of range")
            column = trace.columns.index("reward")
            rewards += [row[column] for row in trace.rows]
        if not np.all(np.isfinite(rewards)):
            failures.append("non-finite reward in a trace")
        with open(out / "summary.csv", newline="") as fh:
            summary_rows = len(list(csv.reader(fh))) - 1
        expected_rows = len(self.plan.approaches) * len(self.plan.scenario.services)
        if summary_rows != expected_rows:
            failures.append(f"summary.csv has {summary_rows} rows, expected {expected_rows}")
        return float(np.mean(rewards)), failures

    def projection(self, episode_ms_p50: float) -> str:
        episodes = sum(len(p.approaches) * len(p.seeds) for p in CANONICAL_PLANS)
        return f"{episodes} evaluation episodes x p50 = {episodes * episode_ms_p50 / 1e3:.1f} s (upper estimate)"


WORKLOADS = {w.name: w for w in (Pretrain, Train, Evaluate)}
CANONICAL_PLANS = (
    experiments.uniform_comparison_plan(),
    experiments.generalization_plan(),
    experiments.shift_plan(),
    experiments.five_intent_plan(),
)


# ---------------------------------------------------------------------------
# one batch, timed or traced


@dataclass
class Batch:
    wall_s: float
    episode_ms: list[float]
    episode_ref: list[float]  # episode_ms over the reference kernel's time around it; timed batches only
    ref_s: float  # mean duration of the reference kernel in this batch; nan in traced batches
    quality: float
    failures: list[str]
    digest: str
    layer_stats: dict | None


_REF_A = np.linspace(0.0, 1.0, 64).reshape(8, 8) / 8.0
_REF_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 64.0


def host_reference() -> float:
    """A fixed kernel, about 1 ms, that gauges how fast the host runs right now.

    The host's speed moves by up to 1.8x within seconds (perfbench/README.md,
    "Noise and bounds"). Timed batches run this kernel before the first
    episode and after each one, outside the timed span, and the gated
    metrics express program time in units of the kernel's time around it.
    It calls no atmarl code, so a change to the package cannot move it. Its
    mix echoes the program's: numpy calls on 8-vectors, plain Python float,
    list and dict work, and 64 x 64 matrix products.
    """
    v, acc, table, xs = np.ones(8), 0.0, {}, [0.1 * k for k in range(8)]
    for _ in range(50):
        v = np.clip(_REF_A @ v + 0.01, 0.0, 1.0)
        acc += float(v.sum())
    for i in range(200):
        acc += min(1.0, sum(x * 0.5 for x in xs) / (max(xs) + 1.0))
        table[i & 31] = acc
        xs[i & 7] = acc % 1.0
    h = np.full((64, 16), 0.1)
    for _ in range(20):
        h = np.tanh(_REF_W @ h) + 0.1
    return acc + float(h.sum())


# set-up time is reported in seconds of a host on which one ref takes 1 ms
NOMINAL_REF_S = 1e-3


def reference_s(repeats: int = 5) -> float:
    """Median duration of ``repeats`` back-to-back runs of ``host_reference``."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        host_reference()
        durations.append(time.perf_counter() - start)
    return median(durations)


def run_batch(workload, ctx, out: Path, span_file=None, index: int = 0) -> Batch:
    """Run one batch with the step log installed, and the tracer too when ``span_file`` is given.

    Only untraced batches run the reference kernel, so that it never lands
    inside a span. Outputs are checked after the wrappers are removed, so
    checks never count as work.
    """
    clear(out, workload.writes)
    steps = spans.StepLog(workload.episode_length, None if span_file else host_reference)
    returns = {name: spans.Returns() for name in ("agents.pretrain_system", "supervisor.train_supervisor")}
    tracer = spans.Tracer(steps, workload.episode_length) if span_file else None
    replacements = {}
    for name, fn in ORIGINALS.items():
        wrapped = tracer.wrap(name, fn) if tracer else fn
        if name == "slice_sim.step":
            wrapped = steps.wrap(wrapped)
        elif name in returns:
            wrapped = returns[name].wrap(wrapped)
        if wrapped is not fn:
            replacements[fn] = wrapped
    restore = spans.rebind(replacements)
    try:
        steps.calibrate()
        start = steps.clock()
        outputs, episodes = workload.batch(ctx, out, steps)
        wall = steps.clock() - start
    finally:
        restore()

    quality, failures = workload.check(ctx, out, outputs, returns)
    layer_stats = tracer.flush(span_file, index) if tracer else None
    if len(steps.stamps) != workload.steps:
        failures.append(f"coverage: {len(steps.stamps)} simulator steps logged, expected {workload.steps}")
    if layer_stats is not None:
        for name, expected in (("slice_sim.step", workload.steps), ("supervisor.forward_step", workload.forward_steps)):
            calls = layer_stats.get(name, {}).get("calls", 0)
            if calls != expected:
                failures.append(f"coverage: {name} traced {calls} calls, expected {expected}")
    bad = kpi_failures(np.array([r.kpi for r in steps.reports]), workload.plan)
    if bad:
        failures.append(f"{bad} simulator steps with KPIs out of range")

    if episodes is None:
        ends = steps.stamps[workload.episode_length - 1 :: workload.episode_length]
        episodes = [((end - prev) * 1e3, i) for i, (prev, end) in enumerate(zip([start] + ends[:-1], ends))]
    episode_ms = [ms for ms, _ in episodes]
    # refs[i] ran just before episode i, refs[i + 1] just after it
    refs = steps.refs
    episode_ref = [ms * 1e-3 / (0.5 * (refs[i] + refs[i + 1])) for ms, i in episodes] if refs else []
    ref_s = float(np.mean(refs)) if refs else float("nan")
    return Batch(wall, episode_ms, episode_ref, ref_s, quality, failures, digest(out), layer_stats)


# ---------------------------------------------------------------------------
# a run


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} [{' '.join(blas.get('openblas configuration', '').split())}]"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = SIZES, out_root: Path = OUT) -> dict:
    """Set up, repeat batches for ``seconds``, check outputs, and return the report."""
    workload = WORKLOADS[name](seed, sizes)
    out_dir = out_root / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    failures: list[str] = []

    # Set-up is timed in refs too: each set-up over the mean reference time
    # just before and just after it, and the import over the median of all
    # of them, so that one host hiccup cannot skew it.
    setup_s, setup_ref, setup_digests = [], [], []
    ref = reference_s()
    refs = [ref]
    for k in range(sizes.setup_repeats):
        work = out_dir / f"setup{k}"
        work.mkdir()
        t0 = time.perf_counter()
        ctx = workload.setup(work)
        setup_s.append(time.perf_counter() - t0)
        after = reference_s()
        setup_ref.append(setup_s[-1] / (0.5 * (ref + after)))
        ref = after
        refs.append(ref)
        setup_digests.append(digest(work))
    failures += workload.check_setup(ctx, work)
    if len(set(setup_digests)) != 1:
        failures.append("determinism: set-up outputs differ between repeats")

    timed: list[Batch] = []
    traced: list[Batch] = []
    span_file = open(out_dir / "spans.csv", "w") if trace else None
    try:
        if span_file:
            span_file.write(spans.SPAN_HEADER)
        start = time.perf_counter()
        while True:  # at least one batch (one timed, one traced) however short the run
            timed.append(run_batch(workload, ctx, work))
            if trace:
                traced.append(run_batch(workload, ctx, work, span_file, len(traced)))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if span_file:
            span_file.close()

    batches = timed + traced
    for b in batches:
        failures += b.failures
    digests = {b.digest for b in batches}
    if len(digests) != 1:
        failures.append(f"determinism: {len(digests)} different output digests across batches")
    qualities = {b.quality for b in batches}
    if len(qualities) != 1:
        failures.append("determinism: quality differs across batches")

    if not all(b.episode_ms for b in timed):
        raise SystemExit("perfbench: no episode was timed: " + "; ".join(failures))
    # The host's speed moves between discrete states that last from under a
    # second to minutes, so a whole run can land in a slow one. The gated
    # timings are therefore in units of the reference kernel run around
    # each episode. Every batch does the same work, so episode k of one
    # batch repeats episode k of every other: its time is the median over
    # batches, which drops a host hiccup that hit one batch, and the
    # percentiles run over the episodes of a batch. The wall-clock figures
    # printed beside them take each statistic per batch and report the
    # median over batches, i.e. the host state most of the run saw.
    def per_batch(stat):
        return float(median(stat(b) for b in timed))

    episode_ref = np.median([b.episode_ref for b in timed], axis=0)

    p50 = per_batch(lambda b: np.percentile(b.episode_ms, 50))
    episodes = sum(len(b.episode_ms) for b in timed)
    attempted = workload.episodes * len(batches)
    report = {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "population": f"{episodes} {workload.population} in {len(timed)} timed batches",
        "digest": next(iter(digests)) if len(digests) == 1 else "mismatch",
        "setup_digest": setup_digests[0],
        "quality": (batches[0].quality, workload.quality_unit, workload.quality_note),
        "failures": failures,
        "attempted": attempted,
        "projection": workload.projection(p50),
    }
    if trace:
        metrics = spans.layer_metrics([b.layer_stats for b in traced])
        overhead = median(b.wall_s for b in traced) / median(b.wall_s for b in timed) - 1.0
        metrics["tracing.overhead_pct"] = (overhead * 100.0, "%")
        metrics["checkpoint.save_checkpoint.bytes"] = (
            float(sum((work / f).stat().st_size for f in workload.writes if f.endswith(".ckpt"))),
            "bytes",
        )
    else:
        metrics = {
            "setup_s": ((IMPORT_S / median(refs) + median(setup_ref)) * NOMINAL_REF_S, "s"),
            "env_steps_per_ref": (per_batch(lambda b: workload.steps * b.ref_s / b.wall_s), "1/ref"),
            "episode_ref_p50": (float(np.percentile(episode_ref, 50)), "ref"),
            "episode_ref_p90": (float(np.percentile(episode_ref, 90)), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["wall_clock"] = {
            "setup_wall_s": (IMPORT_S + median(setup_s), "s"),
            "env_steps_per_s": (per_batch(lambda b: workload.steps / b.wall_s), "1/s"),
            "episode_ms_p50": (p50, "ms"),
            "episode_ms_p90": (per_batch(lambda b: np.percentile(b.episode_ms, 90)), "ms"),
            "reference_ms": (per_batch(lambda b: b.ref_s * 1e3), "ms"),
        }
    report["metrics"] = metrics
    return report


NOTES = {
    "setup_s": "import + median of set-ups, in refs, at 1 ms per ref",
    "env_steps_per_ref": "steps per reference-kernel time; median over timed batches",
    "episode_ref_p50": "episode time over the reference kernel's; p50 over a batch's episodes, each the median over batches",
    "episode_ref_p90": "episode time over the reference kernel's; p90 over a batch's episodes, each the median over batches",
    "peak_rss_mb": "whole process",
    "env_steps_per_s": "wall clock, not gated; median over timed batches",
    "episode_ms_p50": "wall clock, not gated; median over timed batches of each batch's p50",
    "episode_ms_p90": "wall clock, not gated; median over timed batches of each batch's p90",
    "reference_ms": "mean reference-kernel time per batch; median over timed batches",
    "setup_wall_s": "wall clock, not gated; import + median of set-ups",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat batches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with warnings.catch_warnings():
        # reduced pre-training budgets trip the undertrained-agent warning
        warnings.simplefilter("ignore", UserWarning)
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"perfbench workload={report['workload']} seed={report['seed']} trace={args.trace}")
    for key, value in report["environment"].items():
        print(f"env {key}: {value}")
    print(f"population: {report['population']}")
    for key, (value, unit) in (report["metrics"] | report.get("wall_clock", {})).items():
        print(f"{key:<48} {value:>14.6g} {unit:<6} {NOTES.get(key, '')}".rstrip())
    quality, unit, note = report["quality"]
    print(f"{'quality':<48} {quality:>14.6g} {unit:<6} {note}")
    failed = len(report["failures"])
    print(f"{'failed_share':<48} {failed / report['attempted']:>14.6g} {'share':<6} {failed} failed checks / {report['attempted']} episodes attempted")
    if not args.trace:
        print(f"projection (computed from episode_ms_p50, canonical campaign): {report['projection']}")
    print(f"digest sha256:{report['digest']} (set-up sha256:{report['setup_digest']})")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": report["attempted"],
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
