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
from functools import cached_property

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

    @cached_property
    def kpi_kind(self) -> KpiKind:
        return KpiKind.QOE if self.kind is ServiceKind.CV else KpiKind.PACKET_LOSS

    @property
    def name(self) -> str:
        return f"{self.kind.value.lower()}{self.instance_id}"

    @cached_property
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
    point. Each round either serves a service in full or settles the gNodeB,
    so at most one round per service is needed. The result never exceeds
    demand and sums to at most ``bandwidth`` per gNodeB.

    The water-filling runs on Python floats, one gNodeB at a time, since on a
    handful of services numpy's per-call cost outweighs the arithmetic. Its
    sums run left to right over the services in roster order.
    """
    offered = np.asarray(offered, dtype=np.float64)
    rows = offered.reshape(len(offered), -1).tolist()
    priority_of = np.asarray(priorities).tolist()
    caps = np.asarray(mbrs).tolist()
    n = len(rows)
    served = [[0.0] * len(row) for row in rows]
    for g, column in enumerate(zip(*rows)):
        demand = []
        weights = []
        unsat = []
        for i in range(n):
            o = column[i]
            m = caps[i]
            d = o if o < m or o != o else m  # np.minimum: a NaN load or cap gives a NaN demand
            demand.append(d)
            weights.append(priority_of[i] * d)
            if d > 0:
                unsat.append(i)
        budget = bandwidth
        for _ in range(n):
            if not unsat or not budget > 1e-12:
                break
            total = 0.0
            for i in unsat:
                total += weights[i]
            if total <= 0:
                break
            spent = 0.0
            short = []  # (service, share) of each service its share does not fill
            for i in unsat:
                share = budget * weights[i] / total
                if demand[i] <= share + 1e-12:
                    served[i][g] = demand[i]
                    spent += demand[i]
                else:
                    short.append((i, share))
            if len(short) == len(unsat):
                # no service saturates: the gNodeB hands out its shares and is done
                for i, share in short:
                    served[i][g] = share
                break
            budget = budget - spent
            unsat = [i for i, _ in short]
    return np.array(served).reshape(offered.shape)


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
    first observation of an episode). The noise is one ``rng.uniform`` draw
    of shape ``[services, gNodeBs]``.
    """
    weights = state.distribution.weights
    services = state.services
    if rng is None or state.noise_pct <= 0:
        return np.array([[svc.total_demand * w for w in weights] for svc in services])
    noise = rng.uniform(-state.noise_pct / 100.0, state.noise_pct / 100.0, size=(len(services), len(weights)))
    loads = []
    for svc, eps in zip(services, noise.tolist()):
        demand = svc.total_demand
        for w, e in zip(weights, eps):
            loads.append(demand * w * (1.0 + e))
    return np.array(loads).reshape(noise.shape)


def evaluate_kpis(state: NetworkState, offered: np.ndarray) -> KpiReport:
    """Run the allocator on every gNodeB and aggregate KPIs by UE share."""
    served = allocate_capacity(
        offered, state.controls.priority, state.controls.mbr, state.airlink_bandwidth
    )
    # compute_qoe and compute_packet_loss on every [service, gNodeB] lane,
    # clipped as np.clip clips; an idle lane scores full QoE and no loss
    qoe_lo, qoe_hi = QOE_RANGE
    pl_lo, pl_hi = PL_RANGE
    lanes = []
    total = 0.0  # slice offered load: left to right per service, then over services
    for svc, row, got in zip(state.services, offered.tolist(), served.tolist()):
        row_total = 0.0
        if svc.kpi_kind is KpiKind.QOE:
            for o, s in zip(row, got):
                row_total += o
                if o > 0:
                    x = 1.0 + 4.0 * (s / o)
                    lanes.append(qoe_lo if x < qoe_lo else qoe_hi if x > qoe_hi else x)
                else:
                    lanes.append(qoe_hi)
        else:
            for o, s in zip(row, got):
                row_total += o
                if o > 0:
                    x = 100.0 * (o - s) / o
                    lanes.append(pl_lo if x < pl_lo else pl_hi if x > pl_hi else x)
                else:
                    lanes.append(0.0)
        total += row_total
    weights = np.asarray(state.distribution.weights)
    # one row-times-weights product per service: a plain [services, gNodeBs]
    # @ [gNodeBs] product, or a dot over Python floats, sums in another order
    # and changes the last bits
    kpi = (np.array(lanes).reshape(len(offered), 1, -1) @ weights[:, None]).flatten()
    return KpiReport(
        kpi=kpi,
        offered_per_gnb=offered,
        served_per_gnb=served,
        congestion=total / (state.airlink_bandwidth * N_GNODEBS),
    )


def step(state: NetworkState, rng: np.random.Generator) -> tuple[NetworkState, KpiReport]:
    """Advance the slice one control interval and report KPIs."""
    offered = offered_loads(state, rng)
    report = evaluate_kpis(state, offered)
    next_state = NetworkState(
        services=state.services,
        distribution=state.distribution,
        controls=state.controls,
        airlink_bandwidth=state.airlink_bandwidth,
        noise_pct=state.noise_pct,
        timestep=state.timestep + 1,
    )  # dataclasses.replace costs about 2 µs, some 5% of the step
    return next_state, report


def set_distribution(state: NetworkState, spec: DistributionSpec) -> NetworkState:
    """Swap the UE distribution mid-episode, leaving everything else alone."""
    return replace(state, distribution=spec)
