"""Scenario validation: every field is checked once, where its spec is built."""

from dataclasses import replace

import numpy as np
import pytest

from atmarl import cli
from atmarl.config import ScenarioConfig, default_scenario, load_scenario, write_scenario
from atmarl.errors import ScenarioError
from atmarl.slice_sim import DistributionKind, DistributionSpec, ServiceSpec, init_scenario, offered_loads

NAN, INF = float("nan"), float("inf")


def scenario_text(bandwidth="10.0", noise="5.0", kpi_target="4.0", demand="0.4", weights="0.25 0.25 0.25 0.25"):
    return (
        "[scenario]\n"
        f"bandwidth_mbps = {bandwidth}\n"
        "distribution = uniform\n"
        f"dist_weights = {weights}\n"
        f"noise_pct = {noise}\n"
        "\n"
        "[service:cv0]\n"
        "kind = CV\n"
        f"demand_mbps = {demand}\n"
        "ue_count = 52\n"
        f"kpi_target = {kpi_target}\n"
    )


def load_text(tmp_path, **fields):
    path = tmp_path / "scenario.ini"
    path.write_text(scenario_text(**fields))
    return load_scenario(path)


def test_the_stock_scenarios_and_the_file_defaults_are_valid(tmp_path):
    for five in (False, True):
        default_scenario(five_intents=five)
    assert load_text(tmp_path).noise_pct == 5.0


def test_rejects_no_services():
    with pytest.raises(ScenarioError, match="at least one service"):
        ScenarioConfig(services=[], distribution=default_scenario().distribution)


def test_load_rejects_a_file_without_services(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario]\nbandwidth_mbps = 10.0\n")
    with pytest.raises(ScenarioError, match="at least one service"):
        load_scenario(path)


@pytest.mark.parametrize("key", ["demand_mbps", "ue_count"])
def test_rejects_a_service_without_its_demand_or_ue_count(tmp_path, key):
    path = tmp_path / "scenario.ini"
    path.write_text("\n".join(line for line in scenario_text().splitlines() if not line.startswith(key)))
    with pytest.raises(ScenarioError, match=f"missing {key}"):
        load_scenario(path)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, NAN, INF])
def test_rejects_a_bandwidth_that_is_not_finite_and_positive(tmp_path, bandwidth):
    with pytest.raises(ScenarioError, match="bandwidth_mbps"):
        replace(default_scenario(), bandwidth_mbps=bandwidth)
    with pytest.raises(ScenarioError, match="bandwidth_mbps"):
        load_text(tmp_path, bandwidth=repr(bandwidth))


@pytest.mark.parametrize("noise", [-5.0, -1e-9, 100.5, 150.0, NAN, INF])
def test_rejects_noise_outside_0_to_100_percent(tmp_path, noise):
    with pytest.raises(ScenarioError, match="noise_pct"):
        replace(default_scenario(), noise_pct=noise)
    with pytest.raises(ScenarioError, match="noise_pct"):
        load_text(tmp_path, noise=repr(noise))


@pytest.mark.parametrize("noise", [0.0, 100.0])
def test_accepts_the_noise_bounds(tmp_path, noise):
    assert replace(default_scenario(), noise_pct=noise).noise_pct == noise
    assert load_text(tmp_path, noise=repr(noise)).noise_pct == noise


def test_full_noise_keeps_every_offered_load_nonnegative():
    state = init_scenario(replace(default_scenario(), noise_pct=100.0))
    rng = np.random.default_rng(3)
    loads = np.array([offered_loads(state, rng) for _ in range(200)])
    assert (loads >= 0).all()


@pytest.mark.parametrize("target", [0.0, -2.0, NAN, INF])
def test_rejects_a_kpi_target_that_is_not_finite_and_positive(tmp_path, target):
    svc = default_scenario().services[0]
    with pytest.raises(ScenarioError, match="kpi_target"):
        replace(svc, kpi_target=target)
    with pytest.raises(ScenarioError, match="kpi_target"):
        load_text(tmp_path, kpi_target=repr(target))


@pytest.mark.parametrize("demand", [0.0, -0.4, NAN, INF])
def test_rejects_a_demand_that_is_not_finite_and_positive(tmp_path, demand):
    svc = default_scenario().services[0]
    with pytest.raises(ScenarioError, match="demand_per_ue"):
        ServiceSpec(svc.kind, svc.instance_id, demand, svc.ue_count, svc.kpi_target)
    with pytest.raises(ScenarioError, match="demand_per_ue"):
        load_text(tmp_path, demand=repr(demand))


@pytest.mark.parametrize("weights", [(NAN, 0.25, 0.25, 0.25), (0.25, 0.25, 0.25, NAN), (-0.25, 0.5, 0.5, 0.25)])
def test_rejects_distribution_weights_that_are_negative_or_nan(tmp_path, weights):
    with pytest.raises(ScenarioError, match="distribution weights"):
        DistributionSpec.of(DistributionKind.UNIFORM, weights)
    with pytest.raises(ScenarioError, match="distribution weights"):
        load_text(tmp_path, weights=" ".join(repr(w) for w in weights))


@pytest.mark.parametrize(
    "edit, named",
    [(("noise_pct = 5.0", "noise_pct = 150.0"), "noise_pct"), (("demand_mbps = 0.4\n", ""), "demand_mbps")],
    ids=["150-percent-noise", "no-demand"],
)
def test_cli_exits_with_the_config_code_on_a_bad_scenario_file(tmp_path, capsys, edit, named):
    path = tmp_path / "bad.ini"
    write_scenario(default_scenario(), path)
    text = path.read_text()
    assert edit[0] in text
    path.write_text(text.replace(edit[0], edit[1], 1))
    rc = cli.main(["pretrain", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and named in err[0], err


@pytest.mark.parametrize(
    "edit, section, key",
    [
        (("ue_count = 52", "ue_count = many"), "[service:cv0]", "ue_count"),
        (("dist_weights = 0.25 0.25 0.25 0.25", "dist_weights = 0.2 x 0.3 0.3"), "[scenario]", "dist_weights"),
        (("bandwidth_mbps = 10.0", "bandwidth_mbps = fast"), "[scenario]", "bandwidth_mbps"),
    ],
    ids=["ue-count", "dist-weights", "bandwidth"],
)
def test_a_malformed_number_names_the_file_section_and_key(tmp_path, capsys, edit, section, key):
    path = tmp_path / "bad.ini"
    text = scenario_text()
    assert edit[0] in text
    path.write_text(text.replace(edit[0], edit[1], 1))
    with pytest.raises(ScenarioError) as raised:
        load_scenario(path)
    for named in (str(path), section, key):
        assert named in str(raised.value), (named, str(raised.value))
    rc = cli.main(["pretrain", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"config error: {raised.value}", err
    assert not (tmp_path / "out").exists()
