"""Fluid-flow simulator of one radio slice shared by CV, URLLC and mIoT traffic.

The slice spans four gNodeBs. Each service offers load proportional to its
UE population and the current UE distribution across gNodeBs. Per gNodeB,
offered traffic is first clipped to the service's MBR cap and the airlink
bandwidth is then shared in proportion to priority-weighted demand, with
surplus from satisfied services redistributed until a fixed point. CV quality
is scored as QoE on [1, 5]; URLLC/mIoT are scored as packet-loss percentages.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ScenarioError

if TYPE_CHECKING:  # config imports this module
    from .config import ScenarioConfig

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


# read for every service of every step, bound once: on Python 3.11 reading an
# enum member off its class costs about 180 ns
_QOE = KpiKind.QOE

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
        if not 0 < self.demand_per_ue < math.inf:
            raise ScenarioError(f"demand_per_ue must be finite and positive, got {self.demand_per_ue}")
        if self.ue_count < 0:
            raise ScenarioError(f"ue_count must be nonnegative, got {self.ue_count}")
        if not 0 < self.kpi_target < math.inf:
            raise ScenarioError(f"kpi_target must be finite and positive, got {self.kpi_target}")

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
        if not all(w >= 0 for w in self.weights):
            raise ScenarioError(f"distribution weights must be nonnegative: {self.weights}")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
            raise ScenarioError(f"distribution weights must sum to 1, got {sum(self.weights)}")

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """The weights as one [gNodeBs] array, the right operand of the KPI product."""
        return np.asarray(self.weights)

    @classmethod
    def of(cls, kind: DistributionKind, weights=None) -> "DistributionSpec":
        if weights is None:
            weights = DISTRIBUTION_WEIGHTS[kind]
        return cls(kind=kind, weights=tuple(float(w) for w in weights))


@dataclass
class NetworkState:
    """The scenario being run, its current UE spread and the two control knobs.

    The services, bandwidth and noise are read off ``scenario``; only the
    distribution moves mid-episode (a scheduled shift), so it is kept apart.
    """

    scenario: ScenarioConfig
    distribution: DistributionSpec
    priority: list[int]  # levels in {1..5}, one per service
    mbr: list[float]  # Mbps caps from MBR_LEVELS, one per service


@dataclass(slots=True)
class KpiReport:
    """Per-service KPI readings and the slice's congestion, all a step reports.

    The per-gNodeB rates behind them are ``offered_loads`` and
    ``allocate_capacity`` of the same inputs; no reader needs them kept.
    """

    kpi: np.ndarray  # QoE on [1,5] or PL percent, per service
    congestion: float  # slice offered / slice bandwidth


def init_scenario(config: ScenarioConfig) -> NetworkState:
    """The opening state of ``config``: every priority at 3, every MBR cap at 10 Mbps."""
    n = config.intent_count
    return NetworkState(config, config.distribution, [DEFAULT_PRIORITY] * n, [DEFAULT_MBR] * n)


def allocate_capacity(
    offered: np.ndarray,
    priorities: Sequence[int],
    mbrs: Sequence[float],
    bandwidth: float,
) -> np.ndarray:
    """Share each gNodeB's bandwidth across services.

    ``offered`` is ``[services]`` for one gNodeB or ``[services, gNodeBs]``
    for several; ``priorities`` and ``mbrs`` are ``[services]`` sequences
    (the simulator passes its state's lists; arrays give the same bits) and
    apply to every gNodeB, and the result has the shape of ``offered``. Per gNodeB,
    each service's demand is its offered load clipped to its MBR cap. The
    bandwidth is split proportionally to priority-weighted demand; services
    whose demand falls below their share are served in full and their surplus
    is redistributed among the rest by the same weights, repeated to a fixed
    point. Each round either serves a service in full or settles the gNodeB,
    so at most one round per service is needed. The result never exceeds
    demand and sums to at most ``bandwidth`` per gNodeB.

    The water-filling, ``_water_fill``, runs on Python floats, one gNodeB at
    a time, since on a handful of services numpy's per-call cost outweighs
    the arithmetic. Its sums run left to right over the services in roster
    order.
    """
    offered = np.asarray(offered, dtype=np.float64)
    served = _water_fill(offered.reshape(len(offered), -1).tolist(), priorities, mbrs, bandwidth)
    return np.array(served).reshape(offered.shape)


def _water_fill(rows: list[list[float]], priorities: Sequence[int], mbrs: Sequence[float], bandwidth: float) -> list[list[float]]:
    """``allocate_capacity`` on [services][gNodeBs] rows of Python floats; returns the served rows alike."""
    n = len(rows)
    served = [[0.0] * len(row) for row in rows]
    for g, column in enumerate(zip(*rows)):
        demand = []
        weights = []
        unsat = []
        for i in range(n):
            o = column[i]
            m = mbrs[i]
            d = o if o < m or o != o else m  # np.minimum: a NaN load or cap gives a NaN demand
            demand.append(d)
            weights.append(priorities[i] * d)
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
    return served


def offered_loads(state: NetworkState, rng: np.random.Generator | None) -> np.ndarray:
    """Offered Mbps per [service, gNodeB], with multiplicative load noise.

    Passing ``rng=None`` gives the noise-free nominal loads (used to seed the
    first observation of an episode). The noise is one ``rng.random`` draw of
    services × gNodeBs doubles, each mapped to [-noise, noise) as
    ``rng.uniform`` maps it, so the loads and the generator's state are those
    of one ``rng.uniform`` draw of shape ``[services, gNodeBs]``.
    """
    return np.array(_load_rows(state, rng))


def _load_rows(state: NetworkState, rng: np.random.Generator | None) -> list[list[float]]:
    """``offered_loads`` as [services][gNodeBs] rows of Python floats, from the same draw.

    ``Generator.uniform(lo, hi)`` returns ``lo + (hi - lo) * x`` for each
    double ``x`` that ``Generator.random`` returns; the map runs here on the
    raw doubles, in row-major order, without the wrapper's argument handling.
    """
    weights = state.distribution.weights
    services = state.scenario.services
    noise_pct = state.scenario.noise_pct
    if rng is None or noise_pct <= 0:
        return [[svc.total_demand * w for w in weights] for svc in services]
    lo = -noise_pct / 100.0
    scale = noise_pct / 100.0 - lo
    draws = iter(rng.random(len(services) * len(weights)).tolist())
    rows = []
    for svc in services:
        demand = svc.total_demand
        # zip stops on the weights before it takes a draw past the row
        rows.append([demand * w * (1.0 + (lo + scale * x)) for w, x in zip(weights, draws)])
    return rows


def evaluate_kpis(state: NetworkState, offered: np.ndarray) -> KpiReport:
    """Run the allocator on every gNodeB and aggregate KPIs by UE share."""
    return _kpi_report(state, np.asarray(offered, dtype=np.float64).tolist())


def _kpi_report(state: NetworkState, offered: list[list[float]]) -> KpiReport:
    """``evaluate_kpis`` on [services][gNodeBs] rows of Python floats: one water-filling and one KPI pass over lists.

    Only the per-service product of the lane KPIs and the UE weights runs in
    numpy, as one ``np.vecdot`` call.
    """
    bandwidth = state.scenario.bandwidth_mbps
    served = _water_fill(offered, state.priority, state.mbr, bandwidth)
    # per [service, gNodeB] lane: QoE 1 + 4 * served / offered, or packet
    # loss 100 * (offered - served) / offered percent, clipped to QOE_RANGE or
    # PL_RANGE as np.clip clips; an idle lane scores full QoE and no loss
    qoe_lo, qoe_hi = QOE_RANGE
    pl_lo, pl_hi = PL_RANGE
    lanes = []
    total = 0.0  # slice offered load: left to right per service, then over services
    for svc, row, got in zip(state.scenario.services, offered, served):
        row_total = 0.0
        if svc.kpi_kind is _QOE:
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
    # one row-times-weights dot per service: vecdot runs each row through the
    # same double dot (cblas_ddot) as a stacked [1, gNodeBs] @ [gNodeBs, 1]
    # matmul, so the bits are that product's. The 2-D [services, gNodeBs] @
    # [gNodeBs] product runs one gemv, which sums in another order and changes
    # the last bits of most reports, as a dot over Python floats does.
    kpi = np.vecdot(np.array(lanes).reshape(len(offered), -1), state.distribution.weight_vector)
    return KpiReport(kpi=kpi, congestion=total / (bandwidth * N_GNODEBS))


def step(state: NetworkState, rng: np.random.Generator) -> tuple[NetworkState, KpiReport]:
    """Advance the slice one control interval and report KPIs.

    It draws the loads (one ``rng.random`` call, mapped as ``rng.uniform``
    maps it), fills and scores on Python lists, as
    ``evaluate_kpis(state, offered_loads(state, rng))`` does, with no array
    in between; the one numpy product left is the KPIs' ``np.vecdot``. The
    step changes no state: it returns the very ``state`` it was given beside
    the report. The pair stays because perfbench's ``StepLog`` wraps this
    function and reads the report as its second item.
    """
    return state, _kpi_report(state, _load_rows(state, rng))


def set_distribution(state: NetworkState, spec: DistributionSpec) -> NetworkState:
    """Swap the UE distribution mid-episode, leaving everything else alone."""
    return replace(state, distribution=spec)
