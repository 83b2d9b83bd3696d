"""End-to-end pipeline: pre-train agents, train supervisors, evaluate, report.

Stage outputs land in one output directory:

* ``pretrain.ckpt`` + ``pretrain_log.csv`` -- frozen Q-tables and capability
  vectors for both control planes.
* ``supervisor_atmarl.ckpt`` / ``supervisor_case1.ckpt`` /
  ``supervisor_oracle.ckpt`` -- trained goal policies (case1 is the
  service-level variant that feeds goal halving; oracle is retrained on the
  evaluation distribution with the agents fixed), each beside its
  ``train_log_<approach>.csv``, one row of ``TrainStats`` per episode.
* ``trace_<approach>_seed<n>.csv`` -- one row per timestep.
* ``summary.csv`` + ``plot_kpis.py`` -- aggregated metrics and a standalone
  plotting script over the trace files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import slice_sim
from .agents import (
    BOTH_PLANES,
    CapabilityVector,
    GOAL_LEVELS,
    N_ACTIONS,
    OBS_BINS,
    PretrainConfig,
    QTable,
    SystemKind,
    agent_roster,
    estimate_capabilities,
    pretrain_system,
    run_episode,
    write_pretrain_log,
)
from .baselines import (
    goal_halving,
    naive_parallel_goals,
    rule_based_select,
)
from .checkpoint import load_checkpoint, save_checkpoint, take_block
from .config import ScenarioConfig
from .errors import CheckpointError, ScenarioError, StageFailure
from .metrics import Direction, KpiSeries, convergence_time, iae, oscillation_amplitude
from .slice_sim import DistributionSpec, KpiKind
from .supervisor import (
    EpisodeTape,
    GoalMode,
    PolicyGoals,
    SupervisorPolicy,
    TrainConfig,
    create_policy,
    supervisor_reward,
    train_supervisor,
)


class Approach(str, Enum):
    ATMARL = "ATMARL"
    RULE_BASED = "RuleBased"
    NAIVE_PARALLEL = "NaiveParallel"
    GOAL_HALVING = "GoalHalving"
    ORACLE = "Oracle"


DEFAULT_APPROACHES = (Approach.ATMARL, Approach.GOAL_HALVING, Approach.RULE_BASED)


@dataclass
class ExperimentPlan:
    scenario: ScenarioConfig
    approaches: tuple[Approach, ...] = DEFAULT_APPROACHES
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    episode_length: int = 40
    shift_schedule: tuple[tuple[int, DistributionSpec], ...] = ()
    eval_distribution: DistributionSpec | None = None
    train_seed: int = 1001
    pretrain_seed: int = 11
    pretrain_cfg: PretrainConfig = field(default_factory=PretrainConfig)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ScenarioError("plan needs at least one seed")
        # numpy seeds its generators from non-negative integers only
        seeds = {"evaluation seed": min(self.seeds), "train_seed": self.train_seed, "pretrain_seed": self.pretrain_seed}
        for name, seed in seeds.items():
            if seed < 0:
                raise ScenarioError(f"{name} must be non-negative, got {seed}")
        if self.episode_length < 1:
            raise ScenarioError(f"evaluation episode length must be positive, got {self.episode_length}")
        for stage, cfg in (("pre-training", self.pretrain_cfg), ("supervisor training", self.train_cfg)):
            if cfg.episodes < 1 or cfg.episode_length < 1:
                raise ScenarioError(
                    f"{stage} needs a positive episode count and length, got {cfg.episodes} and {cfg.episode_length}"
                )
        times = [t for t, _ in self.shift_schedule]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("shift timesteps must be strictly increasing")
        if any(not 0 <= t < self.episode_length for t in times):
            raise ScenarioError(f"shift timesteps must fall inside the episode [0, {self.episode_length}), got {times}")

    @property
    def eval_scenario(self) -> ScenarioConfig:
        if self.eval_distribution is None:
            return self.scenario
        return replace(self.scenario, distribution=self.eval_distribution)


@dataclass
class EpisodeTrace:
    columns: list[str]
    rows: list[list]
    approach: Approach
    seed: int

    def kpi_series(self, config: ScenarioConfig) -> dict[str, KpiSeries]:
        out = {}
        for k, svc in enumerate(config.services):
            col = self.columns.index(f"kpi_{svc.name}")
            values = np.array([row[col] for row in self.rows], dtype=np.float64)
            direction = Direction.MAXIMIZE if svc.kpi_kind is KpiKind.QOE else Direction.MINIMIZE
            out[svc.name] = KpiSeries(values=values, target=svc.kpi_target, direction=direction)
        return out

    def to_csv(self, path: str | Path):
        """The header, then one line per row: floats as ``%.8g``, anything else as ``str``.

        Every row is built alike, so the first row's types fix one
        ``%``-template for the trace. The lines end in ``\r\n``, as
        ``csv.writer`` ends them; no value of a trace needs quoting.
        """
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(self.columns)
            if self.rows:
                line = ",".join("%.8g" if isinstance(v, float) else "%s" for v in self.rows[0]) + "\r\n"
                fh.write("".join(line % tuple(row) for row in self.rows))


@dataclass
class Artifacts:
    """Everything the evaluation stage needs, keyed by approach."""

    qtables: dict[str, QTable]
    capabilities: dict[str, CapabilityVector]
    policies: dict[str, SupervisorPolicy] = field(default_factory=dict)
    policy_capabilities: dict[str, dict[str, CapabilityVector]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stages


def _capability_blocks(capabilities: dict[str, CapabilityVector]) -> dict[str, np.ndarray]:
    """Checkpoint blocks of capability vectors: ``capability.<key>`` and ``capability_mask.<key>``."""
    arrays = {}
    for key, vec in capabilities.items():
        arrays[f"capability.{key}"] = vec.rho
        arrays[f"capability_mask.{key}"] = vec.from_data.astype(np.float64)
    return arrays


def _read_capabilities(arrays: dict[str, np.ndarray], config: ScenarioConfig) -> dict[str, CapabilityVector]:
    """The capability vectors of ``config``'s roster from blocks written by ``_capability_blocks``."""
    return {
        a.key: CapabilityVector(
            rho=take_block(arrays, f"capability.{a.key}", (GOAL_LEVELS,)),
            from_data=take_block(arrays, f"capability_mask.{a.key}", (GOAL_LEVELS,)) > 0.5,
        )
        for a in agent_roster(config)
    }


def stage_pretrain(plan: ExperimentPlan, out_dir: Path) -> Artifacts:
    rng = np.random.default_rng(plan.pretrain_seed)
    results = {}
    logs = []
    for system in (SystemKind.PRIORITY, SystemKind.MBR):
        res = pretrain_system(system, plan.scenario, rng, plan.pretrain_cfg)
        results[system] = res
        logs.extend(res.logs)
    qtables = {**results[SystemKind.PRIORITY].qtables, **results[SystemKind.MBR].qtables}
    capabilities = estimate_capabilities(logs, plan.scenario)
    write_pretrain_log(logs, out_dir / "pretrain_log.csv")
    arrays = {f"qtable.{key}": table.values for key, table in qtables.items()}
    arrays.update(_capability_blocks(capabilities))
    save_checkpoint(out_dir / "pretrain.ckpt", arrays, meta={"intents": str(plan.scenario.intent_count)})
    return Artifacts(qtables=qtables, capabilities=capabilities)


def _check_meta(path: Path, meta: dict[str, str], scenario: ScenarioConfig, mode: GoalMode | None = None):
    """Refuse a checkpoint made for another intent count, or a policy of another goal mode when ``mode`` is given.

    Its blocks would belong to another roster, or to another set of heads.
    """
    made = meta.get("intents")
    if made != str(scenario.intent_count):
        raise CheckpointError(
            f"{path.name} was made for {made or 'an unrecorded number of'} intents, "
            f"the plan's scenario has {scenario.intent_count}"
        )
    if mode is not None and meta.get("mode") != mode.value:
        raise CheckpointError(
            f"{path.name} holds a policy of goal mode {meta.get('mode', 'unrecorded')!r}, the approach needs {mode.value!r}"
        )


def load_pretrain(plan: ExperimentPlan, out_dir: Path) -> Artifacts:
    path = out_dir / "pretrain.ckpt"
    meta, arrays = load_checkpoint(path)
    _check_meta(path, meta, plan.scenario)
    table_shape = (OBS_BINS,) * 4 + (N_ACTIONS,)
    qtables = {
        a.key: QTable(values=take_block(arrays, f"qtable.{a.key}", table_shape)) for a in agent_roster(plan.scenario)
    }
    return Artifacts(qtables=qtables, capabilities=_read_capabilities(arrays, plan.scenario))


_POLICY_FILES = {
    Approach.ATMARL: "supervisor_atmarl.ckpt",
    Approach.GOAL_HALVING: "supervisor_case1.ckpt",
    Approach.ORACLE: "supervisor_oracle.ckpt",
}


def _policy_scenario(plan: ExperimentPlan, approach: Approach) -> ScenarioConfig:
    if approach is Approach.ORACLE:
        return plan.eval_scenario
    return plan.scenario


def _policy_mode(approach: Approach) -> GoalMode:
    return GoalMode.SERVICE_LEVEL if approach is Approach.GOAL_HALVING else GoalMode.AGENT_LEVEL


def stage_train_supervisor(plan: ExperimentPlan, artifacts: Artifacts, approach: Approach, out_dir: Path):
    """Train (and checkpoint) the goal policy needed by ``approach``."""
    scenario = _policy_scenario(plan, approach)
    mode = _policy_mode(approach)
    rng = np.random.default_rng(plan.train_seed + {"ATMARL": 0, "GoalHalving": 1, "Oracle": 2}[approach.value])
    policy = create_policy(rng, scenario, mode=mode)
    capabilities = {k: CapabilityVector(rho=v.rho.copy(), from_data=v.from_data.copy()) for k, v in artifacts.capabilities.items()}
    stats = train_supervisor(policy, scenario, artifacts.qtables, capabilities, rng, plan.train_cfg)
    stats.to_csv(out_dir / f"train_log_{approach.value}.csv")
    arrays = {f"policy.{k}": v for k, v in policy.named_params().items()}
    arrays.update(_capability_blocks(capabilities))
    save_checkpoint(
        out_dir / _POLICY_FILES[approach],
        arrays,
        meta={"mode": mode.value, "intents": str(scenario.intent_count)},
    )
    artifacts.policies[approach.value] = policy
    artifacts.policy_capabilities[approach.value] = capabilities


def load_policy(plan: ExperimentPlan, artifacts: Artifacts, approach: Approach, out_dir: Path):
    path = out_dir / _POLICY_FILES[approach]
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path} for evaluate-only mode")
    meta, arrays = load_checkpoint(path)
    scenario = _policy_scenario(plan, approach)
    mode = _policy_mode(approach)
    _check_meta(path, meta, scenario, mode)
    policy = create_policy(np.random.default_rng(0), scenario, mode=mode)
    for key, param in policy.named_params().items():
        param[...] = take_block(arrays, f"policy.{key}", param.shape)
    artifacts.policies[approach.value] = policy
    artifacts.policy_capabilities[approach.value] = _read_capabilities(arrays, scenario)


# ---------------------------------------------------------------------------
# evaluation


def _goal_source(plan: ExperimentPlan, artifacts: Artifacts, approach: Approach, rng: np.random.Generator):
    """The ``run_episode`` goal source that drives ``approach`` greedily."""
    config = plan.eval_scenario
    targets = naive_parallel_goals(config)
    if approach is Approach.RULE_BASED:
        return lambda t, *_: (targets, {rule_based_select(t)})
    if approach is Approach.NAIVE_PARALLEL:
        return lambda *_: (targets, BOTH_PLANES)
    supervisor = artifacts.policies[approach.value]
    # evaluation never updates the capabilities, so they are encoded once per episode
    policy = PolicyGoals(
        supervisor,
        config,
        artifacts.policy_capabilities[approach.value],
        rng,
        explore=False,
        tape=EpisodeTape(supervisor, plan.episode_length),
        encode_once=True,
    )
    if approach is Approach.GOAL_HALVING:
        return lambda *step: (goal_halving(policy(*step)[0]), BOTH_PLANES)
    return policy


def evaluate_episode(
    plan: ExperimentPlan,
    artifacts: Artifacts,
    approach: Approach,
    seed: int,
) -> EpisodeTrace:
    """Run one greedy evaluation episode and record the full trace."""
    config = plan.eval_scenario
    roster = agent_roster(config)
    rng = np.random.default_rng(seed)
    columns = (
        ["t"]
        + [f"kpi_{svc.name}" for svc in config.services]
        + [f"goal_{a.key}" for a in roster]
        + [f"knob_{a.key}" for a in roster]
        + ["reward", "active_priority", "active_mbr", "dist_kind"]
    )
    rows = []

    def record(t, state, report, current, active, taken, seen):
        rows.append(
            [t]
            + report.kpi.tolist()
            + [float(current[a.key]) for a in roster]
            + [
                float(state.priority[a.intent_index]) if a.system is SystemKind.PRIORITY else state.mbr[a.intent_index]
                for a in roster
            ]
            + [
                supervisor_reward(report, config.services),
                int(SystemKind.PRIORITY in active),
                int(SystemKind.MBR in active),
                state.distribution.kind.value,
            ]
        )

    goals = _goal_source(plan, artifacts, approach, rng)
    state = slice_sim.init_scenario(config)
    run_episode(state, artifacts.qtables, goals, rng, plan.episode_length, record, plan.shift_schedule)
    return EpisodeTrace(columns=columns, rows=rows, approach=approach, seed=seed)


# ---------------------------------------------------------------------------
# reporting


@dataclass
class SummaryRow:
    approach: str
    kpi: str
    iae_mean: float | None
    iae_std: float | None
    conv_time_mean: float
    oscillation_mean: float


def summarize(plan: ExperimentPlan, traces: list[EpisodeTrace]) -> list[SummaryRow]:
    """Aggregate per-KPI metrics over seeds for each approach.

    Convergence markers count as the full episode length; IAE means skip
    seeds that never reached the band (``nyr`` when none did). Oscillation is
    measured over the second half of each episode.
    """
    config = plan.eval_scenario
    rows = []
    by_approach: dict[str, list[EpisodeTrace]] = {}
    for trace in traces:
        by_approach.setdefault(trace.approach.value, []).append(trace)
    for approach, group in by_approach.items():
        per_kpi: dict[str, dict[str, list]] = {}
        for trace in group:
            for name, series in trace.kpi_series(config).items():
                slot = per_kpi.setdefault(name, {"iae": [], "conv": [], "osc": []})
                slot["iae"].append(iae(series))
                conv = convergence_time(series)
                slot["conv"].append(conv if conv is not None else plan.episode_length)
                slot["osc"].append(oscillation_amplitude(series, len(series.values) // 2))
        for name in sorted(per_kpi):
            slot = per_kpi[name]
            reached = [v for v in slot["iae"] if v is not None]
            rows.append(
                SummaryRow(
                    approach=approach,
                    kpi=name,
                    iae_mean=float(np.mean(reached)) if reached else None,
                    iae_std=float(np.std(reached)) if reached else None,
                    conv_time_mean=float(np.mean(slot["conv"])),
                    oscillation_mean=float(np.mean(slot["osc"])),
                )
            )
    rows.sort(key=lambda r: (r.kpi, r.approach))
    return rows


def emit_report(plan: ExperimentPlan, traces: list[EpisodeTrace], out_dir: Path) -> list[SummaryRow]:
    if not traces:
        raise StageFailure("report", "no completed traces to report on")
    for trace in traces:
        trace.to_csv(out_dir / f"trace_{trace.approach.value}_seed{trace.seed}.csv")
    rows = summarize(plan, traces)
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["approach", "kpi", "iae_mean", "iae_std", "conv_time_mean", "oscillation_mean"])
        for row in rows:
            writer.writerow(
                [
                    row.approach,
                    row.kpi,
                    "nyr" if row.iae_mean is None else f"{row.iae_mean:.6g}",
                    "nyr" if row.iae_std is None else f"{row.iae_std:.6g}",
                    f"{row.conv_time_mean:.6g}",
                    f"{row.oscillation_mean:.6g}",
                ]
            )
    _write_plot_script(plan, traces, out_dir)
    return rows


def _write_plot_script(plan: ExperimentPlan, traces: list[EpisodeTrace], out_dir: Path):
    kpi_names = [svc.name for svc in plan.eval_scenario.services]
    targets = {svc.name: svc.kpi_target for svc in plan.eval_scenario.services}
    files = sorted({f"trace_{t.approach.value}_seed{t.seed}.csv" for t in traces})
    script = f'''"""KPI-vs-timestep plots over the emitted trace CSVs (auto-generated)."""

import csv
from collections import defaultdict
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).parent
TRACES = {files!r}
KPIS = {kpi_names!r}
TARGETS = {targets!r}


def load(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def main():
    by_approach = defaultdict(list)
    for name in TRACES:
        approach = name.split("_")[1]
        by_approach[approach].append(load(HERE / name))
    fig, axes = plt.subplots(1, len(KPIS), figsize=(5 * len(KPIS), 4))
    if len(KPIS) == 1:
        axes = [axes]
    for ax, kpi in zip(axes, KPIS):
        for approach, runs in sorted(by_approach.items()):
            rows = runs[0]
            ts = [int(r["t"]) for r in rows]
            vals = [float(r["kpi_" + kpi]) for r in rows]
            ax.plot(ts, vals, label=approach)
        ax.axhline(TARGETS[kpi], color="k", linestyle="--", linewidth=0.8, label="target")
        ax.set_title(kpi)
        ax.set_xlabel("timestep")
        ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(HERE / "kpi_comparison.png", dpi=150)
    print("wrote", HERE / "kpi_comparison.png")


if __name__ == "__main__":
    main()
'''
    (out_dir / "plot_kpis.py").write_text(script)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PipelineResult:
    out_dir: Path
    traces: list[EpisodeTrace]
    summary: list[SummaryRow]


def run_pipeline(plan: ExperimentPlan, out_dir: str | Path) -> PipelineResult:
    """Execute pretrain -> supervisor training -> evaluation -> report.

    Every stage runs and writes its files, whatever ``out_dir`` already
    holds; the staged CLI verbs are the way to reuse checkpoints.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = stage_pretrain(plan, out_dir)
    for approach in sorted({a for a in plan.approaches if a in _POLICY_FILES}, key=lambda a: a.value):
        stage_train_supervisor(plan, artifacts, approach, out_dir)
    traces = [evaluate_episode(plan, artifacts, approach, seed) for approach in plan.approaches for seed in plan.seeds]
    summary = emit_report(plan, traces, out_dir)
    return PipelineResult(out_dir=out_dir, traces=traces, summary=summary)
