"""Wrappers that observe atmarl's public functions from outside the package.

The package is never edited. Instead, every module-level binding of a public
function (``agents`` binds ``slice_sim.step`` as ``sim_step``, ``supervisor``
binds the ``nn`` functions and the agent functions, ``harness`` binds the
stage functions and the checkpoint functions) is pointed at a wrapper for the
duration of one batch and restored afterwards.

Two kinds of wrapper exist:

* ``StepLog`` -- one timestamp and one KPI report per simulator step, and a
  run of the host reference kernel after every episode. This is all the
  timed (untraced) run installs, plus ``Returns`` captures.
* ``Tracer`` -- one span per call of every function in ``LAYERS``: name,
  start, end, parent span and episode, with self time (span minus child
  spans) computed as spans close.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections.abc import Callable
from statistics import median

# module -> public functions timed as layers; metric names are
# "<module>.<function>.<stat>"
LAYERS = {
    "slice_sim": ("step", "allocate_capacity"),
    "agents": ("observe", "select_action", "apply_action", "pretrain_system"),
    "supervisor": ("forward_step", "rollout_episode", "episode_gradients", "train_supervisor"),
    "nn": ("dense_forward", "dense_backward", "gru_forward", "gru_sequence_backward", "adam_step"),
    "harness": (
        "stage_pretrain",
        "stage_train_supervisor",
        "load_pretrain",
        "load_policy",
        "evaluate_episode",
        "emit_report",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}


def rebind(replacements: dict) -> Callable[[], None]:
    """Point every binding of each original function inside atmarl at its wrapper.

    ``replacements`` maps original function -> wrapper. Returns a callable
    that restores the originals.
    """
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "atmarl" or name.startswith("atmarl.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
                undo.append((namespace, attr, value))

    def restore():
        for namespace, attr, value in undo:
            namespace[attr] = value

    return restore


class StepLog:
    """One timestamp and one KPI report per simulator step.

    Given a ``reference`` kernel, the log also runs it once per
    ``calibrate`` call and after every ``episode_length`` steps, and keeps
    its durations in ``refs``. ``clock`` and the stamps leave the kernel's
    time out, so they time the program alone.
    """

    def __init__(self, episode_length: int, reference: Callable[[], object] | None):
        self.stamps: list[float] = []
        self.reports: list = []
        self.refs: list[float] = []
        self._episode_length = episode_length
        self._reference = reference
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def calibrate(self):
        if self._reference is None:
            return
        start = time.perf_counter()
        self._reference()
        duration = time.perf_counter() - start
        self.refs.append(duration)
        self._paused += duration

    def wrap(self, step):
        stamps, reports, clock, length = self.stamps, self.reports, self.clock, self._episode_length

        def logged_step(*args, **kwargs):
            out = step(*args, **kwargs)
            stamps.append(clock())
            reports.append(out[1])
            if len(stamps) % length == 0:
                self.calibrate()
            return out

        return logged_step


class Returns:
    """Keeps what a wrapped function returned, e.g. the TrainStats the harness drops."""

    def __init__(self):
        self.values: list = []

    def wrap(self, fn):
        values = self.values

        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            values.append(out)
            return out

        return captured


class Tracer:
    """Records one span per call; spans stay in memory until ``flush``.

    A span is ``(span_id, name_id, start, end, self_s, parent_id, episode)``.
    The episode is the number of simulator steps logged before the span
    opened, divided by the episode length.
    """

    def __init__(self, steps: StepLog, episode_length: int):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._steps = steps.stamps
        self._episode_length = episode_length

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, ids, stamps = self.spans, self._stack, self._ids, self._steps
        length = self._episode_length
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            episode = len(stamps) // length
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name_id, start, end, duration - frame[1], parent, episode))

        return traced

    def flush(self, fh, batch: int) -> dict[str, dict]:
        """Write the spans out, then return per-name call counts, self time and durations."""
        stats: dict[str, dict] = {}
        for span_id, name_id, start, end, self_s, parent, episode in sorted(self.spans):
            name = self.names[name_id]
            fh.write(f"{batch},{span_id},{name},{start:.9f},{end:.9f},{self_s:.9f},{parent},{episode}\n")
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["durations"].append(end - start)
        self.spans.clear()
        return stats


SPAN_HEADER = "batch,span,name,start_s,end_s,self_s,parent,episode\n"


UNITS = {
    "calls": "count",
    "self_ms": "ms",
    "us_p50": "us",
    "ms_p50": "ms",
    "ms": "ms",
    "calls_per_step": "ratio",
    "calls_per_forward_step": "ratio",
}


def layer_metrics(batches: list[dict[str, dict]]) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) over traced batches of identical work.

    Call counts are per batch, self times the median over batches of the
    per-batch total, and duration percentiles are over every call.
    """

    def calls(name):
        return batches[0].get(name, {}).get("calls", 0)

    def self_ms(name):
        return median(b.get(name, {}).get("self_s", 0.0) for b in batches) * 1e3

    def p50(name, scale):
        durations = [d for b in batches for d in b.get(name, {}).get("durations", ())]
        return median(durations) * scale if durations else 0.0

    def per(numerator, denominator):
        return calls(numerator) / calls(denominator) if calls(denominator) else 0.0

    out = {}
    for name, stats in (
        ("slice_sim.step", ("calls", "self_ms", "us_p50")),
        ("slice_sim.allocate_capacity", ("calls", "self_ms", "us_p50")),
        ("agents.observe", ("calls", "self_ms")),
        ("agents.select_action", ("calls", "self_ms", "us_p50")),
        ("agents.apply_action", ("calls", "self_ms")),
        ("agents.pretrain_system", ("self_ms",)),
        ("supervisor.forward_step", ("calls", "self_ms", "us_p50")),
        ("nn.dense_forward", ("calls", "self_ms")),
        ("nn.gru_forward", ("self_ms",)),
        ("supervisor.episode_gradients", ("calls", "self_ms", "ms_p50")),
        ("supervisor.rollout_episode", ("self_ms",)),
        ("supervisor.train_supervisor", ("self_ms",)),
        ("nn.dense_backward", ("calls", "self_ms")),
        ("nn.gru_sequence_backward", ("self_ms",)),
        ("nn.adam_step", ("self_ms",)),
        ("harness.evaluate_episode", ("self_ms", "ms_p50")),
        ("harness.emit_report", ("ms",)),
        ("checkpoint.save_checkpoint", ("ms",)),
        ("checkpoint.load_checkpoint", ("ms",)),
    ):
        for stat in stats:
            if stat == "calls":
                value = calls(name)
            elif stat == "self_ms":
                value = self_ms(name)
            elif stat == "us_p50":
                value = p50(name, 1e6)
            else:  # ms_p50, ms: median call duration
                value = p50(name, 1e3)
            out[f"{name}.{stat}"] = (value, UNITS[stat])
    out["slice_sim.allocate_capacity.calls_per_step"] = (
        per("slice_sim.allocate_capacity", "slice_sim.step"),
        UNITS["calls_per_step"],
    )
    out["nn.dense_forward.calls_per_forward_step"] = (
        per("nn.dense_forward", "supervisor.forward_step"),
        UNITS["calls_per_forward_step"],
    )
    return out
