#!/usr/bin/env python3
"""Tour of the fluid-flow slice simulator.

Shows the control conflict at the heart of the problem: raising CV's packet
priority improves its QoE while degrading URLLC/mIoT packet loss, and MBR
caps shed CV traffic to protect the loss-sensitive services.
"""

import numpy as np

from atmarl.config import default_scenario
from atmarl.slice_sim import evaluate_kpis, init_scenario, offered_loads, step


def main():
    cfg = default_scenario()
    state = init_scenario(cfg)
    print("Scenario: 3 intents on 4 gNodeBs, 10 Mbps airlink each")
    for svc in cfg.services:
        print(f"  {svc.name:<8} {svc.kind.value:<6} demand {svc.total_demand:5.1f} Mbps "
              f"target {svc.kpi_target} ({svc.kpi_kind.value})")

    report = evaluate_kpis(state, offered_loads(state, None))
    print("\nAt neutral controls (priority 3, MBR 10) the slice is overloaded:")
    print(f"  KPIs: QoE {report.kpi[0]:.2f}, PL {report.kpi[1]:.1f}% / {report.kpi[2]:.1f}%")

    # under the uniform spread every gNodeB is offered the same loads, so the
    # slice's KPIs are those of any one contended gNodeB
    offered = offered_loads(state, None)

    def sweep_kpis(priorities, mbrs):
        state.priority = priorities
        state.mbr = mbrs
        return evaluate_kpis(state, offered).kpi

    print("\nPriority sweep for CV (others fixed), one contended gNodeB:")
    for p_cv in range(1, 6):
        kpi = sweep_kpis([p_cv, 3, 3], [10.0] * 3)
        print(f"  priority {p_cv}: QoE(CV) {kpi[0]:.2f}  PL(URLLC) {kpi[1]:5.2f}%")

    print("\nMBR sweep for CV (priorities equal): shedding CV protects the others:")
    for cap in (10.0, 8.0, 6.0, 4.0, 2.0):
        kpi = sweep_kpis([3] * 3, [cap, 10.0, 10.0])
        print(f"  mbr {cap:4.1f}: QoE(CV) {kpi[0]:.2f}  PL(URLLC) {kpi[1]:5.2f}%")

    print("\nTen noisy steps at a protective configuration (priorities 2/5/5):")
    state = init_scenario(cfg)
    state.priority = [2, 5, 5]
    rng = np.random.default_rng(7)
    for t in range(10):
        state, report = step(state, rng)
        print(f"  t={t}: QoE {report.kpi[0]:.2f}  PL {report.kpi[1]:.2f}% / {report.kpi[2]:.2f}%")


if __name__ == "__main__":
    main()
