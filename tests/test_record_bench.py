import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import record_bench  # noqa: E402


def test_microbenchmarks_run_on_this_checkout():
    # a signature change the tool does not follow fails here, not at the next recording
    code = (
        "import json; from pathlib import Path; import record_bench; record_bench.REPEATS = 2; "
        f"print(json.dumps(record_bench.microbenchmarks(Path({str(ROOT)!r}))))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    micro = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(micro) == {
        "rollout_episode_ms",
        "rollout_episode_ref",
        "episode_gradients_ms",
        "episode_gradients_ref",
        "act_us",
        "act_ref",
        "forward_step_us",
        "forward_step_ref",
        "agent_step_us",
        "agent_step_ref",
        "sim_step_us",
        "sim_step_ref",
        "sim_step_mixed_us",
        "sim_step_mixed_ref",
        "allocate_capacity_us",
        "allocate_capacity_ref",
        "save_checkpoint_ms",
        "save_checkpoint_ref",
        "load_checkpoint_ms",
        "load_checkpoint_ref",
    }
    assert all(stats["n"] == 2 for stats in micro.values())


def test_perfbench_record_keeps_the_digest_line():
    stdout = "\n".join([
        "perfbench workload=train seed=101 trace=0",
        "digest sha256:ab12 (set-up sha256:cd34)",
        json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {}}),
    ])
    run = record_bench.parse_perfbench(stdout + "\n")
    assert run == {"correct": True, "attempted": 2, "failed": 0, "metrics": {}, "digest": "digest sha256:ab12 (set-up sha256:cd34)"}


def canned_traced_run(digest: str, step_us: float, observe_ms: float, failed: int = 0) -> dict:
    """A traced perfbench run's output as ``parse_perfbench`` reads it."""
    stdout = "\n".join([
        "perfbench workload=pretrain seed=101 trace=1",
        f"digest sha256:{digest} (set-up sha256:e3b0)",
        json.dumps({
            "correct": failed == 0,
            "attempted": 2400,
            "failed": failed,
            "metrics": {
                "slice_sim.step.us_p50": {"unit": "us", "value": step_us},
                "agents.observe.self_ms": {"unit": "ms", "value": observe_ms},
                "slice_sim.step.calls": {"unit": "count", "value": 2400},
            },
        }),
    ])
    return record_bench.parse_perfbench(stdout + "\n")


def test_traced_runs_merge_into_the_median_of_each_metric():
    runs = [canned_traced_run("ab12", 31.0, 9.0), canned_traced_run("ab12", 28.0, 12.5), canned_traced_run("ab12", 40.0, 10.0)]
    merged = record_bench.merge_traced(runs)
    assert set(merged) == set(runs[0]) | {"digests"}
    assert set(merged["metrics"]) == set(runs[0]["metrics"])
    assert merged["metrics"]["slice_sim.step.us_p50"] == {"unit": "us", "value": 31.0}
    assert merged["metrics"]["agents.observe.self_ms"] == {"unit": "ms", "value": 10.0}
    assert merged["metrics"]["slice_sim.step.calls"] == {"unit": "count", "value": 2400}
    assert merged["digest"] == "digest sha256:ab12 (set-up sha256:e3b0)"
    assert merged["digests"] == [merged["digest"]] * 3
    assert merged["correct"] and merged["failed"] == 0 and merged["attempted"] == 7200


def test_traced_runs_that_disagree_are_written_into_the_record():
    runs = [canned_traced_run("ab12", 31.0, 9.0), canned_traced_run("ff00", 28.0, 12.5, failed=1), canned_traced_run("ab12", 40.0, 10.0)]
    merged = record_bench.merge_traced(runs)
    assert merged["digest"] == (
        "digest mismatch: digest sha256:ab12 (set-up sha256:e3b0) | digest sha256:ff00 (set-up sha256:e3b0)"
    )
    assert [line.split()[1] for line in merged["digests"]] == ["sha256:ab12", "sha256:ff00", "sha256:ab12"]
    assert not merged["correct"] and merged["failed"] == 1
    del runs[1]["metrics"]["agents.observe.self_ms"]
    with pytest.raises(ValueError, match="agents.observe.self_ms"):
        record_bench.merge_traced(runs)
