"""Spans around lotrain's layers, installed from the benchmark's own files.

The trial kernels in ``lotrain.experiments`` look their collaborators up as
module globals at call time, so rebinding those names to timing wrappers
traces every layer a trial touches without changing the package. Each wrapped
call also keeps its arguments and result, which the replay hands to the
correctness checks after the timed region.

``traced_trial`` is module level so that ``pool_map`` can pickle it into
spawn workers; it installs the wrappers in whichever process runs it.
"""

import math
import time

import lotrain.experiments as experiments

# name looked up by the trial kernels -> metric prefix (module.function)
WRAPPED = {
    "generate_layout": "geometry.generate_layout",
    "sparsify": "association.sparsify",
    "refine": "association.refine",
    "build_conflict_graph": "graphs.build_conflict_graph",
    "build_proximity_graph": "graphs.build_proximity_graph",
    "dsatur": "coloring.dsatur",
    "build_pilot_book": "pilots.build_pilot_book",
    "generate_channel": "channel.generate_channel",
    "mmse_estimate": "channel.mmse_estimate",
    "throughput_lower_bound": "channel.throughput_lower_bound",
    "baseline_random_pilots": "experiments.baseline_random_pilots",
    "baseline_global_orthogonal": "experiments.baseline_global_orthogonal",
}


class Recorder:
    """Spans and captured calls of the trial running in this process.

    A span is (label, start, end, depth); depth 0 marks a direct child of the
    trial, so the trial's self time is its duration minus those spans. A
    captured call is (name, args, kwargs, result).
    """

    def __init__(self):
        self.spans: list = []
        self.calls: list = []
        self.depth = 0
        self.refined = None

    def reset(self) -> None:
        self.spans, self.calls, self.refined = [], [], None

    def scheme(self, book, assoc) -> str:
        """Which scheme an mmse_estimate call serves, from its inputs alone."""
        if math.isinf(assoc.threshold):
            return "global-orthogonal"
        if book.color_of is None:
            return "random-pilot"
        return "refined" if assoc is self.refined else "proposed"

    def wrap(self, name: str, fn):
        label = WRAPPED[name]

        def traced(*args, **kwargs):
            self.depth += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.depth -= 1
            tag = label
            if name == "mmse_estimate":
                tag = f"{label}.{self.scheme(args[1], args[2])}"
            elif name == "refine":
                self.refined = out
            self.spans.append((tag, start, end, self.depth))
            self.calls.append((tag, args, kwargs, out))
            return out

        return traced


_RECORDER = None  # one per process: the wrappers installed in this interpreter


def install() -> Recorder:
    """Rebind the kernels' collaborators to traced wrappers, once per process."""
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder()
        for name in WRAPPED:
            setattr(experiments, name, _RECORDER.wrap(name, getattr(experiments, name)))
    return _RECORDER


def traced_trial(item) -> dict:
    """Run one trial kernel under the wrappers; returns its result, its wall
    span, the layer spans inside it and the captured calls."""
    kernel, payload = item
    rec = install()
    rec.reset()
    start = time.perf_counter()
    result = getattr(experiments, kernel)(payload)
    end = time.perf_counter()
    return {"result": result, "start": start, "end": end, "spans": rec.spans, "calls": rec.calls}


class Replay:
    """Stands in for ``experiments.pool_map``: maps ``traced_trial`` over the
    runner's payloads with the real pool_map and keeps every trial's record."""

    def __init__(self, pool_map):
        self.real_pool_map = pool_map
        self.trials: list = []
        self.pool_map_s = 0.0
        self.workers = 1

    def pool_map(self, fn, payloads, workers: int = 1) -> list:
        items = [(fn.__name__, p) for p in payloads]
        start = time.perf_counter()
        out = self.real_pool_map(traced_trial, items, workers)
        self.pool_map_s += time.perf_counter() - start
        self.workers = workers
        self.trials.extend(out)
        return [t["result"] for t in out]
