"""Fluid-flow simulator of one radio slice shared by CV, URLLC and mIoT traffic.

The slice spans four gNodeBs. Each service offers load proportional to its
UE population and the current UE distribution across gNodeBs. Per gNodeB,
offered traffic is first clipped to the service's MBR cap and the airlink
bandwidth is then shared in proportion to priority-weighted demand, with
surplus from satisfied services redistributed until a fixed point. CV quality
is scored as QoE on [1, 5]; URLLC/mIoT are scored as packet-loss percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ScenarioError

N_GNODEBS = 4
DEFAULT_BANDWIDTH_MBPS = 10.0
DEFAULT_PRIORITY = 3
DEFAULT_MBR = 10.0

PRIORITY_LEVELS = (1, 2, 3, 4, 5)
MBR_LEVELS = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)

QOE_RANGE = (1.0, 5.0)
PL_RANGE = (0.0, 100.0)


class ServiceKind(str, Enum):
    CV = "CV"
    URLLC = "URLLC"
    MIOT = "mIoT"


class KpiKind(str, Enum):
    QOE = "QoE"
    PACKET_LOSS = "PacketLoss"


class DistributionKind(str, Enum):
    UNIFORM = "Uniform"
    GAUSSIAN = "Gaussian"
    GAMMA = "Gamma"


# Fixed 4-bin discretizations of the UE spread shapes used by the
# generalization experiments; overridable through scenario config.
DISTRIBUTION_WEIGHTS = {
    DistributionKind.UNIFORM: (0.25, 0.25, 0.25, 0.25),
    DistributionKind.GAUSSIAN: (0.20, 0.30, 0.30, 0.20),
    DistributionKind.GAMMA: (0.32, 0.28, 0.21, 0.19),
}


@dataclass(frozen=True)
class ServiceSpec:
    """One service instance carried by the slice."""

    kind: ServiceKind
    instance_id: int
    demand_per_ue: float
    ue_count: int
    kpi_target: float

    def __post_init__(self):
        if self.demand_per_ue <= 0:
            raise ScenarioError(f"demand_per_ue must be positive, got {self.demand_per_ue}")
        if self.ue_count < 0:
            raise ScenarioError(f"ue_count must be nonnegative, got {self.ue_count}")

    @property
    def kpi_kind(self) -> KpiKind:
        return KpiKind.QOE if self.kind is ServiceKind.CV else KpiKind.PACKET_LOSS

    @property
    def name(self) -> str:
        return f"{self.kind.value.lower()}{self.instance_id}"

    @property
    def total_demand(self) -> float:
        return self.demand_per_ue * self.ue_count


@dataclass(frozen=True)
class DistributionSpec:
    """UE spread across the four gNodeBs."""

    kind: DistributionKind
    weights: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.weights) != N_GNODEBS:
            raise ScenarioError(f"expected {N_GNODEBS} distribution weights, got {len(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ScenarioError(f"distribution weights must be nonnegative: {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ScenarioError(f"distribution weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def of(cls, kind: DistributionKind, weights=None) -> "DistributionSpec":
        if weights is None:
            weights = DISTRIBUTION_WEIGHTS[kind]
        return cls(kind=kind, weights=tuple(float(w) for w in weights))


@dataclass
class ControlVector:
    """Per-service packet priority and MBR cap, the two control knobs."""

    priority: np.ndarray  # int levels in {1..5}, one per service
    mbr: np.ndarray  # Mbps caps from MBR_LEVELS, one per service


@dataclass
class NetworkState:
    """Full simulator state for one scenario instance."""

    services: list[ServiceSpec]
    distribution: DistributionSpec
    controls: ControlVector
    airlink_bandwidth: float
    noise_pct: float
    timestep: int


@dataclass
class KpiReport:
    """Per-service KPI readings plus the per-gNodeB rates behind them."""

    kpi: np.ndarray  # QoE on [1,5] or PL percent, per service
    offered_per_gnb: np.ndarray  # [services, gnodebs]
    served_per_gnb: np.ndarray  # [services, gnodebs]
    congestion: float  # slice offered / slice bandwidth


def init_scenario(config) -> NetworkState:
    """Build the timestep-0 state with neutral controls.

    ``config`` is a ScenarioConfig (see :mod:`atmarl.config`). All priorities
    start at 3 and all MBR caps at 10 Mbps.
    """
    if not config.services:
        raise ScenarioError("scenario has no services")
    if config.bandwidth_mbps <= 0:
        raise ScenarioError(f"bandwidth must be positive, got {config.bandwidth_mbps}")
    n = len(config.services)
    controls = ControlVector(
        priority=np.full(n, DEFAULT_PRIORITY, dtype=np.int64),
        mbr=np.full(n, DEFAULT_MBR, dtype=np.float64),
    )
    return NetworkState(
        services=list(config.services),
        distribution=config.distribution,
        controls=controls,
        airlink_bandwidth=float(config.bandwidth_mbps),
        noise_pct=float(config.noise_pct),
        timestep=0,
    )


def allocate_capacity(
    offered: np.ndarray,
    priorities: np.ndarray,
    mbrs: np.ndarray,
    bandwidth: float,
) -> np.ndarray:
    """Share each gNodeB's bandwidth across services.

    ``offered`` is ``[services]`` for one gNodeB or ``[services, gNodeBs]``
    for several; ``priorities`` and ``mbrs`` are ``[services]`` and apply to
    every gNodeB, and the result has the shape of ``offered``. Per gNodeB,
    each service's demand is its offered load clipped to its MBR cap. The
    bandwidth is split proportionally to priority-weighted demand; services
    whose demand falls below their share are served in full and their surplus
    is redistributed among the rest by the same weights, repeated to a fixed
    point. All gNodeBs are filled together, one masked pass per round; each
    round either serves a service in full or settles the gNodeB, so at most
    one pass per service is needed. The result never exceeds demand and sums
    to at most ``bandwidth`` per gNodeB.
    """
    offered = np.asarray(offered, dtype=np.float64)
    demand = np.minimum(offered.reshape(len(offered), -1), np.asarray(mbrs, dtype=np.float64)[:, None])
    served = np.zeros(offered.shape)
    columns = served.reshape(demand.shape)  # a view: writes land in served
    weights = np.asarray(priorities, dtype=np.float64)[:, None] * demand
    unsat = demand > 0
    budget = np.full(demand.shape[1], float(bandwidth))
    for _ in range(len(demand)):
        unsat &= budget > 1e-12
        if not unsat.any():
            break
        # masked lanes add +0.0, so each sum equals that over the unsaturated lanes alone
        total_w = np.where(unsat, weights, 0.0).sum(axis=0)
        dead = total_w <= 0
        unsat &= ~dead
        shares = budget * weights / np.where(dead, 1.0, total_w)
        full = unsat & (demand <= shares + 1e-12)
        # a gNodeB where no service saturates hands out its shares and is done
        spill = unsat & ~full.any(axis=0)
        np.copyto(columns, shares, where=spill)
        np.copyto(columns, demand, where=full)
        budget = budget - np.where(full, demand, 0.0).sum(axis=0)
        unsat &= ~(spill | full)
    return served


def compute_qoe(served: float, demand: float) -> float:
    """Affine throughput-satisfaction score on [1, 5]."""
    if demand <= 0:
        raise ScenarioError("QoE undefined for a service with no demand")
    return float(np.clip(1.0 + 4.0 * (served / demand), *QOE_RANGE))


def compute_packet_loss(offered: float, served: float) -> float:
    """Percentage of offered traffic not delivered; zero when idle."""
    if offered <= 0:
        return 0.0
    return float(np.clip(100.0 * (offered - served) / offered, *PL_RANGE))


def offered_loads(state: NetworkState, rng: np.random.Generator | None) -> np.ndarray:
    """Offered Mbps per [service, gNodeB], with multiplicative load noise.

    Passing ``rng=None`` gives the noise-free nominal loads (used to seed the
    first observation of an episode).
    """
    weights = np.asarray(state.distribution.weights)
    base = np.array([s.total_demand for s in state.services])[:, None] * weights[None, :]
    if rng is None or state.noise_pct <= 0:
        return base
    eps = rng.uniform(-state.noise_pct / 100.0, state.noise_pct / 100.0, size=base.shape)
    return base * (1.0 + eps)


def evaluate_kpis(state: NetworkState, offered: np.ndarray) -> KpiReport:
    """Run the allocator on every gNodeB and aggregate KPIs by UE share."""
    served = allocate_capacity(
        offered, state.controls.priority, state.controls.mbr, state.airlink_bandwidth
    )
    # compute_qoe and compute_packet_loss on every [service, gNodeB] lane; an
    # idle lane scores full QoE and no loss, and divides by a stand-in 1.0
    busy = offered > 0
    load = np.where(busy, offered, 1.0)
    qoe = np.where(busy, np.clip(1.0 + 4.0 * (served / load), *QOE_RANGE), QOE_RANGE[1])
    loss = np.where(busy, np.clip(100.0 * (offered - served) / load, *PL_RANGE), 0.0)
    is_qoe = np.array([svc.kpi_kind is KpiKind.QOE for svc in state.services])
    per_gnb = np.where(is_qoe[:, None], qoe, loss)
    weights = np.asarray(state.distribution.weights)
    # one row-times-weights product per service: a plain [services, gNodeBs]
    # @ [gNodeBs] product sums in another order and changes the last bits
    kpi = (per_gnb[:, None, :] @ weights[:, None]).flatten()
    return KpiReport(
        kpi=kpi,
        offered_per_gnb=offered,
        served_per_gnb=served,
        congestion=float(offered.sum(axis=1).sum() / (state.airlink_bandwidth * N_GNODEBS)),
    )


def step(state: NetworkState, rng: np.random.Generator) -> tuple[NetworkState, KpiReport]:
    """Advance the slice one control interval and report KPIs."""
    offered = offered_loads(state, rng)
    report = evaluate_kpis(state, offered)
    next_state = replace(state, timestep=state.timestep + 1)
    return next_state, report


def set_distribution(state: NetworkState, spec: DistributionSpec) -> NetworkState:
    """Swap the UE distribution mid-episode, leaving everything else alone."""
    return replace(state, distribution=spec)
