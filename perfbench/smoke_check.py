"""Smoke test of the benchmark at tiny size (a few seconds).

Run from the repository root::

    python3 -m pytest -q perfbench/smoke_check.py

It is named so that the package's own test run does not collect it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load_run()
TINY = run.Sizes(
    pretrain_episodes=2,
    train_episodes=2,
    eval_seeds=1,
    setup_pretrain_episodes=2,
    setup_train_episodes=1,
    setup_repeats=2,
)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload, trace):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run.run(workload, seed=3, seconds=0, trace=trace, sizes=TINY, out_root=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit_and_checks_pass(tmp_path, workload, trace):
    report = bench(tmp_path, workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in report["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v, (int, float)) for v, _ in report["metrics"].values())
    assert report["failures"] == []
    assert report["attempted"] >= 1
    assert len(report["digest"]) == 64


def test_same_seed_gives_the_same_digest(tmp_path):
    first = bench(tmp_path / "a", "train", False)
    second = bench(tmp_path / "b", "train", False)
    assert first["digest"] == second["digest"]
    assert first["quality"] == second["quality"]


def bypass(monkeypatch, module, name):
    """Rebind as the benchmark does, then route ``module.name`` around its wrapper."""
    import atmarl

    namespace = vars(getattr(atmarl, module))
    unwrapped = namespace[name]
    rebind = run.spans.rebind

    def rebind_then_bypass(replacements):
        restore = rebind(replacements)
        namespace[name] = unwrapped
        return restore

    monkeypatch.setattr(run.spans, "rebind", rebind_then_bypass)


def test_coverage_fails_a_timed_run_whose_steps_bypass_the_wrapper(tmp_path, monkeypatch):
    """A refactor that calls the simulator around the wrappers must fail, not read as a speed-up."""
    bypass(monkeypatch, "agents", "sim_step")
    with pytest.raises(SystemExit, match="coverage: 0 simulator steps logged"):
        bench(tmp_path, "pretrain", False)


def test_coverage_fails_a_traced_run_whose_forward_steps_bypass_the_wrapper(tmp_path, monkeypatch):
    bypass(monkeypatch, "supervisor", "forward_step")
    report = bench(tmp_path, "train", True)
    # seconds=0 runs one timed and one traced batch; only the traced one counts forward steps
    assert report["failures"] == ["coverage: supervisor.forward_step traced 0 calls, expected 80"]
