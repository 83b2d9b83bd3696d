"""Check generalization (criterion 4), shift recovery (6), and 5-intent scaling (5)."""

import sys
import time
from pathlib import Path

import numpy as np

from atmarl.agents import PretrainConfig
from atmarl.config import default_scenario
from atmarl.harness import Approach, ExperimentPlan, run_pipeline
from atmarl.metrics import Direction, KpiSeries, iae, onset_index
from atmarl.slice_sim import DistributionKind, DistributionSpec
from atmarl.supervisor import TrainConfig

OUT = Path(sys.argv[1] if len(sys.argv) > 1 else "/tmp/gen1")
EPISODES = int(sys.argv[2]) if len(sys.argv) > 2 else 350


def banner(s):
    print(f"\n===== {s}")


def main():
    t0 = time.time()
    cfg = default_scenario()

    banner("criterion 4: train uniform, evaluate gaussian (+oracle)")
    plan = ExperimentPlan(
        scenario=cfg,
        approaches=(Approach.ATMARL, Approach.RULE_BASED, Approach.ORACLE),
        seeds=(1, 2, 3, 4, 5),
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=EPISODES),
    )
    res = run_pipeline(plan, OUT / "gauss")
    tab = {(r.approach, r.kpi): r for r in res.summary}
    for kpi in ("cv0", "urllc0", "miot0"):
        a = tab[("ATMARL", kpi)].iae_mean
        r = tab[("RuleBased", kpi)].iae_mean
        o = tab[("Oracle", kpi)].iae_mean
        fmt = lambda v: "nyr" if v is None else f"{v:.3f}"
        ratio = "inf" if (a is None or o in (None, 0)) else f"{a / o:.2f}"
        print(f"  {kpi}: ATM {fmt(a)} vs RB {fmt(r)} (need <) | oracle {fmt(o)} ratio {ratio} (need <=1.5)")

    banner("criterion 6: shifts at 20 (gaussian) and 30 (gamma), band re-entry <= 8")
    plan6 = ExperimentPlan(
        scenario=cfg,
        approaches=(Approach.ATMARL,),
        seeds=(1, 2, 3, 4, 5),
        episode_length=48,
        shift_schedule=(
            (20, DistributionSpec.of(DistributionKind.GAUSSIAN)),
            (30, DistributionSpec.of(DistributionKind.GAMMA)),
        ),
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=EPISODES),
    )
    res6 = run_pipeline(plan6, OUT / "shift")
    for trace in res6.traces:
        series = trace.kpi_series(cfg)
        recov = []
        for name, s in series.items():
            for shift_t in (20, 30):
                sub = KpiSeries(values=s.values[shift_t:], target=s.target, direction=s.direction)
                first = onset_index(sub)
                recov.append((name, shift_t, first))
        bad = [r for r in recov if r[2] is None or r[2] > 8]
        print(f"  seed {trace.seed}: worst re-entry {max((r[2] for r in recov if r[2] is not None), default=None)} bad={bad}")

    banner("criterion 5: 5-intent scenario trains and converges")
    cfg5 = default_scenario(five_intents=True)
    plan5 = ExperimentPlan(
        scenario=cfg5,
        approaches=(Approach.ATMARL,),
        seeds=(1, 2, 3),
        pretrain_cfg=PretrainConfig(),
        train_cfg=TrainConfig(episodes=EPISODES),
    )
    res5 = run_pipeline(plan5, OUT / "five")
    for trace in res5.traces:
        goals_cols = [c for c in trace.columns if c.startswith("goal_")]
        assert len(goals_cols) == 10, goals_cols
        series = trace.kpi_series(cfg5)
        vals = {n: iae(s) for n, s in series.items()}
        ok = all(v is not None for v in vals.values())
        print(f"  seed {trace.seed}: 10 goals/step ok; IAE finite={ok} {dict((k, None if v is None else round(v,3)) for k,v in vals.items())}")

    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
