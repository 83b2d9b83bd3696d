"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production code paths they check.
"""

from __future__ import annotations

import numpy as np

from atmarl.slice_sim import N_GNODEBS, QOE_RANGE, KpiKind, compute_packet_loss, compute_qoe


def packet_scheduling_oracle(
    offered,
    priorities,
    mbrs,
    bandwidth: float,
    rng: np.random.Generator,
    n_packets: int = 10_000,
    repetitions: int = 100,
) -> np.ndarray:
    """Expected served rates from discrete priority-weighted random scheduling.

    The offered pool (after MBR clipping) is split into ~``n_packets`` equal
    packets. A scheduler repeatedly picks one backlogged service at random
    with probability proportional to priority x enqueued backlog and transmits
    one packet, until the bandwidth budget is spent. Averaging over
    ``repetitions`` independent runs estimates the expected served rates.
    """
    offered = np.asarray(offered, dtype=np.float64)
    demand = np.minimum(offered, np.asarray(mbrs, dtype=np.float64))
    total_demand = demand.sum()
    if total_demand <= 0:
        return np.zeros_like(demand)
    packet_size = total_demand / n_packets
    queue0 = np.round(demand / packet_size).astype(np.int64)
    budget_total = int(round(bandwidth / packet_size))
    base_weights = np.asarray(priorities, dtype=np.float64) * queue0

    served_acc = np.zeros_like(demand)
    for _ in range(repetitions):
        queues = queue0.copy()
        budget = budget_total
        served = np.zeros_like(demand)
        while budget > 0 and queues.sum() > 0:
            active = queues > 0
            weights = np.where(active, base_weights, 0.0)
            probs = weights / weights.sum()
            # draw a chunk well below the smallest active queue to keep the
            # exhaust-and-renormalize boundary sharp
            smallest = queues[active].min()
            chunk = int(min(budget, max(1, smallest // 2)))
            draws = rng.multinomial(chunk, probs)
            draws = np.minimum(draws, queues)
            queues -= draws
            served += draws
            budget -= int(draws.sum())
        served_acc += served * packet_size
    return served_acc / repetitions


def scalar_allocate_capacity(offered, priorities, mbrs, bandwidth: float) -> np.ndarray:
    """One gNodeB's water-filling as a scalar loop over the unsaturated services.

    ``allocate_capacity`` must equal it bit for bit on every gNodeB column.
    """
    offered = np.asarray(offered, dtype=np.float64)
    demand = np.minimum(offered, mbrs)
    served = np.zeros_like(demand)
    weights = priorities.astype(np.float64) * demand
    unsat = demand > 0
    budget = float(bandwidth)
    while unsat.any() and budget > 1e-12:
        total_w = weights[unsat].sum()
        if total_w <= 0:
            break
        shares = np.zeros_like(demand)
        shares[unsat] = budget * weights[unsat] / total_w
        full = unsat & (demand <= shares + 1e-12)
        if not full.any():
            served[unsat] = shares[unsat]
            budget = 0.0
            break
        served[full] = demand[full]
        budget -= demand[full].sum()
        unsat &= ~full
    return served


def scalar_kpis(state, offered) -> tuple[np.ndarray, np.ndarray]:
    """Served rates and per-service KPIs, one gNodeB and one service at a time.

    Allocation runs ``scalar_allocate_capacity`` per gNodeB, the KPIs run the
    scalar ``compute_qoe``/``compute_packet_loss`` per lane, and each
    service's readings are aggregated by UE share with one row-times-weights
    product. ``evaluate_kpis`` must equal it bit for bit.
    """
    served = np.zeros_like(offered)
    for g in range(N_GNODEBS):
        served[:, g] = scalar_allocate_capacity(
            offered[:, g], state.controls.priority, state.controls.mbr, state.airlink_bandwidth
        )
    weights = np.asarray(state.distribution.weights)
    kpi = np.zeros(len(state.services))
    for i, svc in enumerate(state.services):
        if svc.kpi_kind is KpiKind.QOE:
            per_gnb = np.array(
                [
                    compute_qoe(served[i, g], offered[i, g]) if offered[i, g] > 0 else QOE_RANGE[1]
                    for g in range(N_GNODEBS)
                ]
            )
        else:
            per_gnb = np.array([compute_packet_loss(offered[i, g], served[i, g]) for g in range(N_GNODEBS)])
        kpi[i] = float(per_gnb @ weights)
    return served, kpi
