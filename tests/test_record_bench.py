import json
import os
import subprocess
import sys
from pathlib import Path

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
