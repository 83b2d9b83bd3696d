"""Goal-driven orchestration of pre-trained MARL systems on a simulated 5G slice."""

from .agents import (
    AgentId,
    AgentObservation,
    CapabilityVector,
    KnobAction,
    QTable,
    SystemKind,
    agent_reward,
    estimate_capabilities,
    observe,
    pretrain_system,
    select_action,
)
from .baselines import goal_halving, naive_parallel_goals, rule_based_select
from .config import ScenarioConfig, default_scenario, load_scenario, write_scenario
from .harness import Approach, ExperimentPlan, evaluate_episode, run_pipeline
from .metrics import Direction, KpiSeries, convergence_time, iae, oscillation_amplitude
from .slice_sim import (
    DistributionKind,
    DistributionSpec,
    KpiKind,
    KpiReport,
    NetworkState,
    ServiceKind,
    ServiceSpec,
    allocate_capacity,
    init_scenario,
    set_distribution,
    step,
)
from .supervisor import (
    GoalMode,
    SupervisorPolicy,
    create_policy,
    supervisor_reward,
    train_supervisor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
