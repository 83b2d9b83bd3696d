"""Scorecard for the uniform-scenario acceptance orderings (criteria 1-3)."""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from atmarl.agents import PretrainConfig
from atmarl.config import ScenarioConfig, default_scenario
from atmarl.harness import Approach, ExperimentPlan, run_pipeline
from atmarl.slice_sim import ServiceKind, ServiceSpec, DistributionSpec, DistributionKind
from atmarl.supervisor import TrainConfig


def scenario_variant(c, u, m):
    services = (
        ServiceSpec(ServiceKind.CV, 0, c / 13.0, 52, 4.0),
        ServiceSpec(ServiceKind.URLLC, 0, u / 17.0, 68, 2.0),
        ServiceSpec(ServiceKind.MIOT, 0, m / 26.0, 104, 2.0),
    )
    return replace(default_scenario(), services=services)


def score(out_dir, cfg, episodes=350, pre_episodes=800, seeds=(1, 2, 3, 4, 5)):
    plan = ExperimentPlan(
        scenario=cfg,
        approaches=(Approach.ATMARL, Approach.RULE_BASED, Approach.NAIVE_PARALLEL, Approach.GOAL_HALVING),
        seeds=seeds,
        episode_length=40,
        pretrain_cfg=PretrainConfig(episodes=pre_episodes),
        train_cfg=TrainConfig(episodes=episodes),
    )
    t0 = time.time()
    result = run_pipeline(plan, out_dir)
    elapsed = time.time() - t0
    tab = {}
    for row in result.summary:
        tab[(row.approach, row.kpi)] = row
    kpis = [s.name for s in cfg.services]

    print(f"== {out_dir}  ({elapsed:.0f}s)")
    for kpi in kpis:
        line = f"  {kpi:<8}"
        for app in ("ATMARL", "GoalHalving", "RuleBased", "NaiveParallel"):
            r = tab[(app, kpi)]
            iae = "nyr " if r.iae_mean is None else f"{r.iae_mean:.3f}"
            line += f" {app[:5]}:{iae}/c{r.conv_time_mean:04.1f}/o{r.oscillation_mean:.2f}"
        print(line)

    # criterion checks
    def iae_of(app, kpi):
        v = tab[(app, kpi)].iae_mean
        return float("inf") if v is None else v

    chains = sum(
        1 for kpi in kpis
        if iae_of("ATMARL", kpi) < iae_of("GoalHalving", kpi) < iae_of("RuleBased", kpi)
        and np.isfinite(iae_of("RuleBased", kpi))
    )
    inversions = [k for k in kpis if iae_of("ATMARL", k) > iae_of("RuleBased", k)]
    conv_atm = np.mean([tab[("ATMARL", k)].conv_time_mean for k in kpis])
    conv_rb = np.mean([tab[("RuleBased", k)].conv_time_mean for k in kpis])
    naive_osc = max(tab[("NaiveParallel", k)].oscillation_mean for k in kpis)
    naive_nyr = any(tab[("NaiveParallel", k)].iae_mean is None for k in kpis)
    atm_osc = max(tab[("ATMARL", k)].oscillation_mean for k in kpis)
    print(f"  C1: chains={chains}/3 (need>=2), inversions={inversions or 'none'}")
    print(f"  C2: conv ATM {conv_atm:.2f} vs RB {conv_rb:.2f} -> ratio {conv_atm / max(conv_rb, 1e-9):.2f} (need<=0.85)")
    print(f"  C3: naive osc {naive_osc:.3f} or nyr={naive_nyr} (need >0.15 or nyr); ATM osc {atm_osc:.3f} (need <0.10)")
    return result


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "/tmp/score"
    variant = sys.argv[2] if len(sys.argv) > 2 else "a"
    episodes = int(sys.argv[3]) if len(sys.argv) > 3 else 350
    variants = {
        "a": (5.2, 3.4, 2.6),
        "b": (5.2, 2.0, 3.0),
        "c": (4.8, 3.0, 3.0),
        "d": (5.6, 3.0, 2.4),
    }
    cfg = scenario_variant(*variants[variant])
    score(Path(out) / variant, cfg, episodes=episodes)
