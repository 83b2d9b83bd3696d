from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmarl.config import default_scenario
from atmarl.errors import ScenarioError
from atmarl.slice_sim import (
    MBR_LEVELS,
    N_GNODEBS,
    PRIORITY_LEVELS,
    DistributionKind,
    DistributionSpec,
    KpiKind,
    ServiceKind,
    ServiceSpec,
    allocate_capacity,
    evaluate_kpis,
    init_scenario,
    offered_loads,
    set_distribution,
    step,
)

from oracles import (
    compute_packet_loss,
    compute_qoe,
    numpy_congestion,
    numpy_offered_loads,
    packet_scheduling_oracle,
    reference_step,
    scalar_allocate_capacity,
    scalar_kpis,
)


def make_state(distribution=DistributionKind.UNIFORM):
    return init_scenario(default_scenario(distribution=distribution))


# ---------------------------------------------------------------------------
# init_scenario


def test_uniform_weights():
    state = make_state()
    assert state.distribution.weights == (0.25, 0.25, 0.25, 0.25)


def test_default_bandwidth_is_ten():
    state = make_state()
    assert state.scenario.bandwidth_mbps == 10.0


def test_five_intents_give_five_kpi_slots():
    state = init_scenario(default_scenario(five_intents=True))
    report = evaluate_kpis(state, offered_loads(state, None))
    assert report.kpi.shape == (5,)
    kinds = [s.kind for s in state.scenario.services]
    assert kinds.count(ServiceKind.CV) == 1
    assert kinds.count(ServiceKind.URLLC) == 2
    assert kinds.count(ServiceKind.MIOT) == 2


def test_default_controls():
    state = make_state()
    assert state.priority == [3, 3, 3]
    assert state.mbr == [10.0, 10.0, 10.0]


def test_state_shares_its_scenario():
    cfg = default_scenario()
    state = init_scenario(cfg)
    assert state.scenario is cfg
    assert state.distribution is cfg.distribution


def test_scenario_stores_services_as_tuple():
    services = list(default_scenario().services)
    cfg = replace(default_scenario(), services=services)
    assert type(cfg.services) is tuple
    assert cfg.services == tuple(services)
    services.clear()  # the caller's list no longer reaches the scenario
    assert cfg.intent_count == 3
    with pytest.raises(AttributeError):  # nor can the scenario's own be emptied
        cfg.services.clear()


def test_scenario_is_hashable():
    assert hash(default_scenario()) == hash(default_scenario())
    assert len({default_scenario(), default_scenario(five_intents=True)}) == 2


def test_rejects_empty_service_list():
    # the scenario checks itself as it is built, before any state exists
    with pytest.raises(ScenarioError, match="at least one service"):
        replace(default_scenario(), services=[])


def test_rejects_negative_bandwidth():
    with pytest.raises(ScenarioError, match="bandwidth_mbps"):
        replace(default_scenario(), bandwidth_mbps=-1.0)


# ---------------------------------------------------------------------------
# allocate_capacity


def test_allocate_no_contention_serves_offered():
    served = allocate_capacity(
        np.array([4.0, 3.0, 2.0]), np.array([3, 3, 3]), np.array([10.0, 10.0, 10.0]), 10.0
    )
    np.testing.assert_allclose(served, [4.0, 3.0, 2.0])


def test_allocate_contended_equal_priorities():
    # weighted water-filling at equal priorities shares in proportion to demand
    served = allocate_capacity(
        np.array([8.0, 4.0, 4.0]), np.array([3, 3, 3]), np.array([10.0, 10.0, 10.0]), 10.0
    )
    np.testing.assert_allclose(served, [5.0, 2.5, 2.5])


def test_allocate_mbr_clips_before_sharing():
    served = allocate_capacity(
        np.array([8.0, 4.0]), np.array([3, 3]), np.array([2.0, 10.0]), 10.0
    )
    np.testing.assert_allclose(served, [2.0, 4.0])


def test_allocate_matches_packet_oracle_on_random_contended_instances():
    rng = np.random.default_rng(20240613)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        offered = rng.uniform(2.0, 8.0, size=n)
        priorities = rng.integers(2, 6, size=n)
        mbrs = np.array([float(rng.choice([4.0, 6.0, 8.0, 10.0])) for _ in range(n)])
        # force contention
        while np.minimum(offered, mbrs).sum() < 1.3 * 10.0:
            offered = offered * 1.3
            offered = np.minimum(offered, 8.0)
            mbrs = np.full(n, 10.0)
        served = allocate_capacity(offered, priorities, mbrs, 10.0)
        expected = packet_scheduling_oracle(offered, priorities, mbrs, 10.0, rng)
        rel = np.abs(served - expected) / np.maximum(expected, 1e-9)
        worst = max(worst, float(rel.max()))
    assert worst < 0.02, f"worst relative served-rate error {worst:.4f} vs packet oracle"


@given(
    offered=st.lists(st.floats(0.5, 9.0), min_size=2, max_size=5),
    priorities=st.lists(st.integers(1, 5), min_size=5, max_size=5),
    mbr_idx=st.lists(st.integers(0, 6), min_size=5, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_allocate_conservation(offered, priorities, mbr_idx):
    n = len(offered)
    offered = np.array(offered)
    pri = np.array(priorities[:n])
    mbrs = np.array([MBR_LEVELS[i] for i in mbr_idx[:n]])
    served = allocate_capacity(offered, pri, mbrs, 10.0)
    assert_same_bits(allocate_capacity(offered, pri.tolist(), mbrs.tolist(), 10.0), served)
    assert served.sum() <= 10.0 + 1e-9
    assert (served <= np.minimum(offered, mbrs) + 1e-9).all()
    assert (served >= -1e-12).all()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_priority_monotonicity(data):
    # raising one service's own priority, or its own MBR cap, never lowers
    # its served rate and never raises another service's, on every gNodeB
    n = data.draw(st.integers(2, 5), label="services")
    loads = st.lists(st.floats(0.0, 8.0), min_size=n * N_GNODEBS, max_size=n * N_GNODEBS)
    offered = np.array(data.draw(loads, label="offered")).reshape(n, N_GNODEBS)
    priorities = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="priorities")
    rungs = data.draw(st.lists(st.integers(0, len(MBR_LEVELS) - 1), min_size=n, max_size=n), label="rungs")
    i = data.draw(st.integers(0, n - 1), label="raised service")
    mbrs = [MBR_LEVELS[r] for r in rungs]
    served = allocate_capacity(offered, priorities, mbrs, 10.0)

    higher_priority = list(priorities)
    higher_priority[i] = data.draw(st.integers(priorities[i], 5), label="raised priority")
    higher_cap = list(mbrs)
    higher_cap[i] = MBR_LEVELS[data.draw(st.integers(rungs[i], len(MBR_LEVELS) - 1), label="raised rung")]
    others = np.arange(n) != i
    for raised in (
        allocate_capacity(offered, higher_priority, mbrs, 10.0),
        allocate_capacity(offered, priorities, higher_cap, 10.0),
    ):
        assert (raised[i] >= served[i] - 1e-9).all()
        assert (raised[others] <= served[others] + 1e-9).all()


def test_priority_conflict_pair():
    # raising CV priority under contention helps CV QoE and hurts URLLC loss
    offered = np.array([6.0, 3.0, 3.0])
    mbrs = np.full(3, 10.0)
    for p_cv in range(1, 5):
        lo = allocate_capacity(offered, np.array([p_cv, 3, 3]), mbrs, 10.0)
        hi = allocate_capacity(offered, np.array([p_cv + 1, 3, 3]), mbrs, 10.0)
        qoe_lo = compute_qoe(lo[0], offered[0])
        qoe_hi = compute_qoe(hi[0], offered[0])
        pl_lo = compute_packet_loss(offered[1], lo[1])
        pl_hi = compute_packet_loss(offered[1], hi[1])
        assert qoe_hi >= qoe_lo - 1e-9
        assert pl_hi >= pl_lo - 1e-9


@st.composite
def allocation_inputs(draw):
    """3 or 5 services x 4 gNodeBs, each gNodeB drawn from one load regime.

    Regimes: free loads with idle lanes; light loads under which every
    service is served in full; heavy loads that exhaust the budget; and
    water-filling edges: a demand within about 1e-12 of its share, alone on
    the gNodeB or paired with a service of no lower priority, or a service
    served in full that leaves a budget near the 1e-12 cut-off.
    """
    n = draw(st.sampled_from([3, 5]))
    bandwidth = draw(st.sampled_from([10.0, 4.0]) | st.floats(0.5, 10.0))
    priorities = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    mbrs = np.array([MBR_LEVELS[i] for i in draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))])
    regime = st.sampled_from(["free", "light", "heavy", "alone", "pair", "leftover"])
    regimes = draw(st.lists(regime, min_size=N_GNODEBS, max_size=N_GNODEBS))
    edges = {}
    for g, regime in enumerate(regimes):
        if regime in ("alone", "pair", "leftover"):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            mbrs[[i, j]] = MBR_LEVELS[-1]  # the edges are on demand, so no cap may cut them
            if regime == "leftover":
                priorities[[i, j]] = 5, 1
            edges[g] = (i, j)
    offered = np.zeros((n, N_GNODEBS))
    idle_or = lambda lo, hi: st.just(0.0) | st.floats(lo, hi)  # noqa: E731
    for g, regime in enumerate(regimes):
        delta = draw(st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]))
        if regime == "free":
            offered[:, g] = draw(st.lists(idle_or(1e-3, 12.0), min_size=n, max_size=n))
        elif regime == "light":
            offered[:, g] = draw(st.lists(idle_or(1e-3, bandwidth / n), min_size=n, max_size=n))
        elif regime == "heavy":
            offered[:, g] = draw(st.lists(st.floats(bandwidth / n, 12.0), min_size=n, max_size=n))
        elif regime == "alone":
            offered[edges[g][0], g] = bandwidth + delta
        elif regime == "pair":
            i, j = sorted(edges[g], key=lambda k: priorities[k])
            # share_i = B p_i d_i / (p_i d_i + p_j d_j) = d_i when p_j d_j = p_i (B - d_i)
            offered[i, g] = draw(st.floats(0.1 * bandwidth, 0.9 * bandwidth))
            offered[j, g] = priorities[i] * (bandwidth - offered[i, g]) / priorities[j] + delta
        else:
            # i (priority 5) is served in full and leaves a budget at the
            # 1e-12 cut-off, below what j (priority 1) still wants
            i, j = edges[g]
            left = draw(st.sampled_from([5e-13, 8e-13, 1e-12, 1.5e-12]))
            offered[i, g] = bandwidth - left
            offered[j, g] = 4.0 * left
    return offered, priorities, mbrs, bandwidth


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), f"{actual!r} != {expected!r}"


@given(case=allocation_inputs())
@settings(max_examples=300, deadline=None)
def test_allocate_all_gnodebs_equals_scalar_per_gnodeb(case):
    offered, priorities, mbrs, bandwidth = case
    expected = np.stack(
        [scalar_allocate_capacity(offered[:, g], priorities, mbrs, bandwidth) for g in range(N_GNODEBS)], axis=1
    )
    # the knobs as arrays, and as the plain lists the simulator state holds
    for knobs in ((priorities, mbrs), (priorities.tolist(), mbrs.tolist())):
        assert_same_bits(allocate_capacity(offered, *knobs, bandwidth), expected)
        for g in range(N_GNODEBS):
            assert_same_bits(allocate_capacity(offered[:, g], *knobs, bandwidth), expected[:, g])


@given(case=allocation_inputs(), spread=st.lists(st.integers(0, 20), min_size=N_GNODEBS, max_size=N_GNODEBS))
@settings(max_examples=300, deadline=None)
def test_evaluate_kpis_equals_scalar_per_lane(case, spread):
    offered, priorities, mbrs, bandwidth = case
    state = init_scenario(replace(default_scenario(five_intents=len(offered) == 5), bandwidth_mbps=bandwidth))
    state.priority = priorities.tolist()
    state.mbr = mbrs.tolist()
    if sum(spread) > 0:
        weights = tuple(w / sum(spread) for w in spread)
        state = set_distribution(state, DistributionSpec(DistributionKind.UNIFORM, weights))
    served, kpi = scalar_kpis(state, offered)
    report = evaluate_kpis(state, offered)
    assert_same_bits(allocate_capacity(offered, state.priority, state.mbr, bandwidth), served)
    assert_same_bits(report.kpi, kpi)
    assert_same_bits(np.float64(report.congestion), np.float64(numpy_congestion(state, offered)))


def test_allocate_nan_load_is_never_served():
    # a NaN load or cap gives a NaN demand, which no pass serves and no sum
    # sees; pinned to the values the masked numpy passes gave
    nan = float("nan")
    offered = np.array([[nan, 8.0, 8.0, 9.0], [6.0, nan, 6.0, 5.0], [5.0, 5.0, nan, 12.0]])
    priorities, mbrs = np.array([3, 5, 1]), np.array([10.0, 10.0, 6.0])
    expected = np.array(
        [
            [0.0, 8.0, 4.444444444444445, 4.655172413793103],
            [6.0, 0.0, 5.555555555555555, 4.310344827586207],
            [4.0, 2.0, 0.0, 1.0344827586206897],
        ]
    )
    assert_same_bits(allocate_capacity(offered, priorities, mbrs, 10.0), expected)
    assert_same_bits(allocate_capacity(offered[:, 1], priorities, mbrs, 10.0), expected[:, 1])
    capped = allocate_capacity(np.array([8.0, 6.0, 5.0]), priorities, np.array([10.0, nan, 6.0]), 10.0)
    assert_same_bits(capped, np.array([8.0, 0.0, 2.0]))


@st.composite
def load_states(draw):
    """3 or 5 services under any stock or drawn UE spread, with or without noise."""
    five = draw(st.booleans())
    kind = draw(st.sampled_from(list(DistributionKind)))
    spread = draw(st.none() | st.lists(st.integers(0, 20), min_size=N_GNODEBS, max_size=N_GNODEBS).filter(any))
    cfg = replace(
        default_scenario(distribution=kind, five_intents=five),
        # at 100 the noise reaches -1, where a lane's load 1 + e can be 0
        noise_pct=draw(st.sampled_from([0.0, 5.0, 100.0]) | st.floats(0.0, 100.0)),
        bandwidth_mbps=draw(st.sampled_from([10.0, 4.0]) | st.floats(0.5, 40.0)),
    )
    state = init_scenario(cfg)
    if spread is not None:
        state = set_distribution(state, DistributionSpec(kind, tuple(w / sum(spread) for w in spread)))
    return state


@given(state=load_states(), seed=st.integers(0, 2**32 - 1), nominal=st.booleans())
@settings(max_examples=300, deadline=None)
def test_offered_loads_and_congestion_equal_numpy_oracle(state, seed, nominal):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    offered = offered_loads(state, None if nominal else rng)
    assert_same_bits(offered, numpy_offered_loads(state, None if nominal else oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    report = evaluate_kpis(state, offered)
    assert_same_bits(np.float64(report.congestion), np.float64(numpy_congestion(state, offered)))


# ---------------------------------------------------------------------------
# KPI formulas


def test_qoe_full_satisfaction():
    assert compute_qoe(4.0, 4.0) == 5.0


def test_qoe_floor():
    assert compute_qoe(0.0, 4.0) == 1.0


def test_qoe_affine_point():
    assert compute_qoe(3.0, 4.0) == pytest.approx(4.0)


def test_qoe_rejects_zero_demand():
    with pytest.raises(ScenarioError):
        compute_qoe(1.0, 0.0)


def test_packet_loss_no_loss():
    assert compute_packet_loss(4.0, 4.0) == 0.0


def test_packet_loss_ratio():
    assert compute_packet_loss(4.0, 3.0) == pytest.approx(25.0)


def test_packet_loss_idle():
    assert compute_packet_loss(0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# step


def test_step_under_load_perfect_kpis():
    cfg = default_scenario()
    light = [
        ServiceSpec(s.kind, s.instance_id, s.demand_per_ue / 4.0, s.ue_count, s.kpi_target)
        for s in cfg.services
    ]
    state = init_scenario(replace(cfg, services=light))
    report = evaluate_kpis(state, offered_loads(state, None))
    assert report.kpi[0] == pytest.approx(5.0)
    assert report.kpi[1] == pytest.approx(0.0)
    assert report.kpi[2] == pytest.approx(0.0)


def test_step_same_seed_identical():
    state_a = make_state()
    state_b = make_state()
    _, rep_a = step(state_a, np.random.default_rng(42))
    _, rep_b = step(state_b, np.random.default_rng(42))
    assert rep_a.kpi.tobytes() == rep_b.kpi.tobytes()
    served_a, served_b = (
        allocate_capacity(offered_loads(s, np.random.default_rng(42)), s.priority, s.mbr, s.scenario.bandwidth_mbps)
        for s in (state_a, state_b)
    )
    assert served_a.tobytes() == served_b.tobytes()


def test_step_contended_matches_hand_allocation():
    # uniform split of the default scenario offers (5.2, 3.4, 2.6) per gNodeB
    # (52 x 0.4, 68 x 0.2, 104 x 0.1 Mbps over four gNodeBs), 11.2 against 10;
    # equal priorities share 10 in proportion to demand: x10/11.2 each
    state = make_state()
    offered = offered_loads(state, None)
    per_gnb = np.repeat(np.array([[5.2], [3.4], [2.6]]), 4, axis=1)
    np.testing.assert_allclose(offered, per_gnb, rtol=1e-9)
    report = evaluate_kpis(state, offered)
    scale = 10.0 / 11.2
    served = allocate_capacity(offered, state.priority, state.mbr, state.scenario.bandwidth_mbps)
    np.testing.assert_allclose(served, per_gnb * scale, rtol=1e-9)
    expected_qoe = 1.0 + 4.0 * scale
    expected_pl = 100.0 * (1.0 - scale)
    assert report.kpi[0] == pytest.approx(expected_qoe, rel=1e-9)
    assert report.kpi[1] == pytest.approx(expected_pl, rel=1e-9)
    assert report.kpi[2] == pytest.approx(expected_pl, rel=1e-9)


def test_step_returns_the_state_it_was_given():
    state = make_state()
    state.priority[1] = 5
    state.mbr[2] = 4.0
    priority, mbr = state.priority, state.mbr
    nxt, _ = step(state, np.random.default_rng(0))
    assert nxt is state
    assert nxt.priority is priority and nxt.priority == [3, 5, 3]
    assert nxt.mbr is mbr and nxt.mbr == [10.0, 10.0, 4.0]


def test_step_conservation_over_episode():
    state = make_state()
    rng = np.random.default_rng(5)
    twin = np.random.default_rng(5)  # draws the loads each step draws
    for _ in range(40):
        state, report = step(state, rng)
        offered = offered_loads(state, twin)
        assert report.kpi.tobytes() == evaluate_kpis(state, offered).kpi.tobytes()
        per_gnb = allocate_capacity(offered, state.priority, state.mbr, state.scenario.bandwidth_mbps)
        assert (per_gnb.sum(axis=0) <= state.scenario.bandwidth_mbps + 1e-9).all()
        clipped = np.minimum(offered, np.array(state.mbr)[:, None])
        assert (per_gnb <= clipped + 1e-9).all()


# ---------------------------------------------------------------------------
# set_distribution


def test_set_distribution_gaussian_weights():
    state = make_state()
    spec = DistributionSpec(DistributionKind.GAUSSIAN, (0.15, 0.35, 0.35, 0.15))
    shifted = set_distribution(state, spec)
    assert shifted.distribution.weights == (0.15, 0.35, 0.35, 0.15)
    assert sum(shifted.distribution.weights) == pytest.approx(1.0)
    assert shifted.priority == state.priority and shifted.mbr == state.mbr
    assert shifted.scenario is state.scenario


def test_set_distribution_gamma_weights():
    state = make_state()
    spec = DistributionSpec(DistributionKind.GAMMA, (0.45, 0.30, 0.15, 0.10))
    shifted = set_distribution(state, spec)
    assert shifted.distribution.weights == (0.45, 0.30, 0.15, 0.10)
    assert sum(shifted.distribution.weights) == pytest.approx(1.0)


def test_set_distribution_identity_keeps_dynamics():
    state = make_state()
    same = set_distribution(state, state.distribution)
    _, rep_a = step(state, np.random.default_rng(9))
    _, rep_b = step(same, np.random.default_rng(9))
    assert rep_a.kpi.tobytes() == rep_b.kpi.tobytes()


def test_set_distribution_rejects_unnormalized():
    with pytest.raises(ScenarioError):
        DistributionSpec(DistributionKind.GAUSSIAN, (0.5, 0.5, 0.5, 0.5))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_step_equals_evaluate_kpis_of_offered_loads(data):
    # step fills and scores on lists without the arrays in between: its report,
    # bit for bit, and its draw are those of the array path on a twin generator
    five = data.draw(st.booleans(), label="five intents")
    kind = data.draw(st.sampled_from(list(DistributionKind)), label="spread")
    noise = data.draw(st.sampled_from([0.0, 5.0, 100.0]) | st.floats(0.0, 100.0), label="noise_pct")
    config = replace(default_scenario(distribution=kind, five_intents=five), noise_pct=noise)
    n = config.intent_count
    state = init_scenario(config)
    state.priority = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="priorities")
    state.mbr = [MBR_LEVELS[i] for i in data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="rungs")]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        _, report = step(state, rng)
        expected = evaluate_kpis(state, offered_loads(state, twin))
        assert report.kpi.tobytes() == expected.kpi.tobytes()
        assert np.float64(report.congestion).tobytes() == np.float64(expected.congestion).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


@given(state=load_states(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_step_equals_the_reference_step(state, data):
    # the raw-uniform draw and the vecdot product keep every bit of the
    # rng.uniform draw and the stacked matmul, and the generator's state
    n = state.scenario.intent_count
    state.priority = data.draw(st.lists(st.sampled_from(PRIORITY_LEVELS), min_size=n, max_size=n), label="priorities")
    state.mbr = data.draw(st.lists(st.sampled_from(MBR_LEVELS), min_size=n, max_size=n), label="mbrs")
    shift = data.draw(st.lists(st.integers(0, 20), min_size=N_GNODEBS, max_size=N_GNODEBS).filter(any), label="shift")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(4):
        if t == 2:
            spec = DistributionSpec(state.distribution.kind, tuple(w / sum(shift) for w in shift))
            state = set_distribution(state, spec)
        _, report = step(state, rng)
        expected = reference_step(state, twin)
        assert_same_bits(report.kpi, expected.kpi)
        assert_same_bits(np.float64(report.congestion), np.float64(expected.congestion))
        assert rng.bit_generator.state == twin.bit_generator.state
