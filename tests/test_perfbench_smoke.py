"""The benchmark's own smoke check passes on this checkout, and its copy of a checkpoint format agrees with the package.

The package's test run does not collect ``perfbench/``, yet the benchmark
looks up every layer it times by name when it is imported, so a renamed or
re-signed function would otherwise show only as a failed benchmark run. It
also writes out the harness's capability blocks itself to check reloads, so
a format change on one side would otherwise show only as a failed reload
check of a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_check_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/smoke_check.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# builds the harness's and perfbench's capability blocks for drawn vectors,
# each rho first made a row view of one matrix as training makes it, and
# prints the names of the blocks whose name, dtype, shape or bytes differ
_CAPABILITY_BLOCKS = """
import json, sys
import numpy as np
sys.path.insert(0, "perfbench")
import run as bench
from atmarl import harness
from atmarl.agents import GOAL_LEVELS, CapabilityVector, agent_roster, capability_matrix
from atmarl.config import default_scenario

rng = np.random.default_rng(71)
differing, count = [], 0
for scenario in (default_scenario(), default_scenario(five_intents=True)):
    roster = agent_roster(scenario)
    caps = {a.key: CapabilityVector(rng.uniform(0.0, 1.0, GOAL_LEVELS), rng.random(GOAL_LEVELS) < 0.5) for a in roster}
    caps[roster[0].key] = CapabilityVector.prior()
    capability_matrix(caps, [a.key for a in roster])
    ours, theirs = harness._capability_blocks(caps), bench.capability_blocks(caps)
    assert any(not v.from_data.all() and v.from_data.any() for v in caps.values())
    count += len(ours)
    for name in sorted(set(ours) | set(theirs)):
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None or (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
            differing.append(name)
    if list(ours) != list(theirs):
        differing.append("block order")
print(json.dumps({"differing": differing, "count": count}))
"""


def test_perfbench_capability_blocks_equal_the_harness_blocks():
    # perfbench repeats the harness's capability block format to check reloads;
    # importing its runner pins BLAS variables and edits sys.path, so it runs apart
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CAPABILITY_BLOCKS], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["count"] == 2 * (6 + 10)
    assert report["differing"] == [], f"capability blocks differ: {report['differing']}"
