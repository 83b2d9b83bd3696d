"""Scenario and experiment-plan configuration.

Scenario files are INI-style text: one ``[scenario]`` section for slice-wide
settings and one ``[service:<name>]`` section per carried service, e.g.::

    [scenario]
    bandwidth_mbps = 10.0
    distribution = uniform
    noise_pct = 5.0

    [service:cv0]
    kind = CV
    demand_mbps = 0.8
    ue_count = 32
    kpi_target = 4.0
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import ScenarioError
from .slice_sim import (
    DEFAULT_BANDWIDTH_MBPS,
    DistributionKind,
    DistributionSpec,
    ServiceKind,
    ServiceSpec,
)

DEFAULT_QOE_TARGET = 4.0
DEFAULT_PL_TARGET = 2.0

_KIND_ALIASES = {
    "cv": ServiceKind.CV,
    "urllc": ServiceKind.URLLC,
    "miot": ServiceKind.MIOT,
}


@dataclass(frozen=True)
class ScenarioConfig:
    services: tuple[ServiceSpec, ...]  # any sequence given is stored as a tuple
    distribution: DistributionSpec
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS
    noise_pct: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        if not self.services:
            raise ScenarioError("scenario must declare at least one service")
        if not 0 < self.bandwidth_mbps < math.inf:
            raise ScenarioError(f"bandwidth_mbps must be finite and positive, got {self.bandwidth_mbps}")
        # at most 100%: the multiplicative load noise 1 + e keeps every offered load nonnegative
        if not 0 <= self.noise_pct <= 100:
            raise ScenarioError(f"noise_pct must lie in [0, 100], got {self.noise_pct}")

    @property
    def intent_count(self) -> int:
        return len(self.services)


def _parse_kind(raw: str) -> ServiceKind:
    try:
        return _KIND_ALIASES[raw.strip().lower()]
    except KeyError:
        raise ScenarioError(f"unknown service kind {raw!r}") from None


def parse_distribution(raw_kind: str, raw_weights: str | None = None) -> DistributionSpec:
    """The spec of a distribution name in any case (``gaussian``), with its optional weights."""
    try:
        kind = DistributionKind(raw_kind.strip().capitalize())
    except ValueError:
        raise ScenarioError(f"unknown distribution {raw_kind!r}") from None
    weights = None
    if raw_weights:
        try:
            weights = [float(tok) for tok in raw_weights.replace(",", " ").split()]
        except ValueError:
            raise ScenarioError(f"distribution weights {raw_weights!r} are not all numbers") from None
    return DistributionSpec.of(kind, weights)


def _number(section: configparser.SectionProxy, key: str, kind: type, default=None):
    """``section[key]`` as ``kind`` (int or float), or ``default`` when absent; a malformed value names the key."""
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ScenarioError(f"{key} = {raw!r} is not {'an integer' if kind is int else 'a number'}") from None


@contextmanager
def _reading(path, section: str):
    """Prefix a ``ScenarioError`` raised inside with the file and the section being read."""
    try:
        yield
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: [{section}] {exc}") from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, its values as written (no ``%`` interpolation); every error names the file and section.

    The specs and the scenario validate themselves as they are built.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        # a missing section header, a repeated section or key, a line without
        # "=": configparser's messages span lines, so they are joined into one
        raise ScenarioError(f"{path}: malformed scenario file: {' '.join(str(exc).split())}") from None
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    if "scenario" not in parser:
        raise ScenarioError(f"{path}: missing [scenario] section")
    sc = parser["scenario"]
    with _reading(path, "scenario"):
        raw_kind, raw_weights = sc.get("distribution", "uniform"), sc.get("dist_weights", None)
        try:
            distribution = parse_distribution(raw_kind, raw_weights)
        except ScenarioError as exc:
            keys = f"distribution = {raw_kind!r}" + ("" if raw_weights is None else f", dist_weights = {raw_weights!r}")
            raise ScenarioError(f"{keys}: {exc}") from None
        bandwidth = _number(sc, "bandwidth_mbps", float, DEFAULT_BANDWIDTH_MBPS)
        noise_pct = _number(sc, "noise_pct", float, 5.0)
    services = []
    instance_counters: dict[ServiceKind, int] = {}
    for section in parser.sections():
        if not section.startswith("service:"):
            continue
        svc = parser[section]
        with _reading(path, section):
            missing = [key for key in ("demand_mbps", "ue_count") if key not in svc]
            if missing:
                raise ScenarioError(f"is missing {', '.join(missing)}")
            kind = _parse_kind(svc.get("kind", section.split(":", 1)[1]))
            idx = instance_counters.get(kind, 0)
            instance_counters[kind] = idx + 1
            default_target = DEFAULT_QOE_TARGET if kind is ServiceKind.CV else DEFAULT_PL_TARGET
            demand, ue_count = _number(svc, "demand_mbps", float), _number(svc, "ue_count", int)
            target = _number(svc, "kpi_target", float, default_target)
            services.append(ServiceSpec(kind, idx, demand, ue_count, target))
    with _reading(path, "scenario"):
        return ScenarioConfig(services=services, distribution=distribution, bandwidth_mbps=bandwidth, noise_pct=noise_pct)


def default_scenario(
    distribution: DistributionKind = DistributionKind.UNIFORM,
    five_intents: bool = False,
) -> ScenarioConfig:
    """The stock 3-intent scenario (or the 5-intent scaling variant).

    Under the uniform UE spread each of the four gNodeBs is offered a quarter
    of every service's demand. For three intents that is (5.2, 3.4, 2.6) Mbps
    for CV, URLLC and mIoT: 11.2 Mbps against the 10 Mbps airlink, so the
    slice is contended at neutral controls. For five intents it is
    4.8 + 2 x 0.85 + 2 x 0.65 = 7.8 Mbps, which fits the airlink.
    """
    if five_intents:
        services = (
            ServiceSpec(ServiceKind.CV, 0, 0.4, 48, DEFAULT_QOE_TARGET),
            ServiceSpec(ServiceKind.URLLC, 0, 0.2, 17, DEFAULT_PL_TARGET),
            ServiceSpec(ServiceKind.URLLC, 1, 0.2, 17, DEFAULT_PL_TARGET),
            ServiceSpec(ServiceKind.MIOT, 0, 0.1, 26, DEFAULT_PL_TARGET),
            ServiceSpec(ServiceKind.MIOT, 1, 0.1, 26, DEFAULT_PL_TARGET),
        )
    else:
        services = (
            ServiceSpec(ServiceKind.CV, 0, 0.4, 52, DEFAULT_QOE_TARGET),
            ServiceSpec(ServiceKind.URLLC, 0, 0.2, 68, DEFAULT_PL_TARGET),
            ServiceSpec(ServiceKind.MIOT, 0, 0.1, 104, DEFAULT_PL_TARGET),
        )
    return ScenarioConfig(services=services, distribution=DistributionSpec.of(distribution))


def write_scenario(config: ScenarioConfig, path: str | Path):
    """Serialize a scenario back to the INI format (used by demos/tests)."""
    parser = configparser.ConfigParser()
    parser["scenario"] = {
        "bandwidth_mbps": repr(config.bandwidth_mbps),
        "distribution": config.distribution.kind.value.lower(),
        "dist_weights": " ".join(repr(w) for w in config.distribution.weights),
        "noise_pct": repr(config.noise_pct),
    }
    for svc in config.services:
        parser[f"service:{svc.name}"] = {
            "kind": svc.kind.value,
            "demand_mbps": repr(svc.demand_per_ue),
            "ue_count": str(svc.ue_count),
            "kpi_target": repr(svc.kpi_target),
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
