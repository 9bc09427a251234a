"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` wraps the public
entry points of each ``repro`` module while it is installed and puts the
originals back when it is removed.  Each call becomes a span with a name,
its layer, start and end (``time.perf_counter``), the span that caused it
and the id of the grid in flight.  Counts are taken in the same wrappers.
Spans stay in memory until :meth:`Tracer.write` at exit.

Calls of a *leaf* layer (``DelayModel.delay``, ~200k per cold grid) are
folded into one span per calling span, holding the call count and the
summed time, so tracing them costs two clock reads per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

class _Frame:
    __slots__ = ("span_id", "name", "layer", "parent", "start", "child",
                 "outer", "leaves")

    def __init__(self, span_id, name, layer, parent, outer):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.outer = outer
        self.start = 0.0
        self.child = 0.0
        self.leaves: Dict[str, list] = {}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``(id, name, layer, start, end, parent, grid, busy_s, self_s,
        #: calls, outer)``.  ``busy_s`` is ``end - start``, or the summed
        #: call time of a folded leaf span; ``outer`` is False when an
        #: enclosing span of the same layer already counts this time.
        self.spans: List[Tuple] = []
        self.counts: Dict[Tuple[object, str], float] = defaultdict(float)
        self.grid: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._class_patches: List[Tuple[type, str, object]] = []
        self._function_patches: Dict[int, Tuple[object, object]] = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` of the grid in flight."""
        self.counts[(self.grid, name)] += value

    def wrap(self, fn: Callable, name: str, layer: str,
             leaf: bool = False) -> Callable:
        """``fn`` recording one span per call (folded per caller if leaf)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if leaf and parent is not None:
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    parent.child += end - start
                    folded = parent.leaves.get(name)
                    if folded is None:
                        parent.leaves[name] = [layer, 1, end - start,
                                               start, end]
                    else:
                        folded[1] += 1
                        folded[2] += end - start
                        folded[4] = end
            frame = _Frame(
                next(tracer._ids), name, layer,
                None if parent is None else parent.span_id,
                all(f.layer != layer for f in stack),
            )
            stack.append(frame)
            frame.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += end - frame.start
                tracer._close(frame, end)

        return traced

    def _close(self, frame: _Frame, end: float) -> None:
        busy = end - frame.start
        self.spans.append((
            frame.span_id, frame.name, frame.layer, frame.start, end,
            frame.parent, self.grid, busy, busy - frame.child, 1,
            frame.outer,
        ))
        for name, (layer, calls, busy, first, last) in frame.leaves.items():
            self.spans.append((
                next(self._ids), name, layer, first, last, frame.span_id,
                self.grid, busy, busy, calls, layer != frame.layer,
            ))

    # -- patching -------------------------------------------------------
    def patch_function(self, module, attr: str, layer: str) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module bound it."""
        original = getattr(module, attr)
        name = f"{layer}.{attr}"
        replacement = self.wrap(original, name, layer)
        self._function_patches[id(replacement)] = (replacement, original)
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def patch_method(self, cls: type, attr: str, layer: str,
                     leaf: bool = False, wrapper=None) -> None:
        """Wrap ``attr`` on ``cls`` and every loaded subclass defining it."""
        for klass in _class_tree(cls):
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            name = f"{layer}.{klass.__name__}.{attr}"
            if isinstance(original, property):
                replacement = property(self.wrap(original.fget, name, layer))
            elif wrapper is not None:
                replacement = wrapper(self, self.wrap(original, name, layer))
            else:
                replacement = self.wrap(original, name, layer, leaf=leaf)
            setattr(klass, attr, replacement)
            self._class_patches.append((klass, attr, original))

    def uninstall(self) -> None:
        """Put every original back (also where a lazy import copied one)."""
        for klass, attr, original in reversed(self._class_patches):
            setattr(klass, attr, original)
        self._class_patches.clear()
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                patched = self._function_patches.get(id(value))
                if patched is not None and patched[0] is value:
                    setattr(mod, key, patched[1])
        self._function_patches.clear()

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        fields = ("id", "name", "layer", "start", "end", "parent", "grid",
                  "busy_s", "self_s", "calls", "outer")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _class_tree(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _batch_run_wrapper(tracer: Tracer, spanned: Callable) -> Callable:
    """``BatchRunner.run``: shard events, compaction counts, IPC bytes.

    The shard events are the ``on_shard`` events the runner already
    emits, timed as they arrive.  ``batch.ipc_bytes`` is *computed*: the
    pickled size of each process shard's trials plus its results, which
    is what crossed the pipe; it is not measured on the pipe.
    """

    @functools.wraps(spanned)
    def run(self, trials, on_shard=None):
        plan: Dict = {}
        shard_ends: List[float] = []

        def observe(event):
            if event.get("event") == "plan":
                plan.update(event)
            elif event.get("event") == "shard":
                shard_ends.append(perf_counter())
                tracer.count(f"batch.shards_{event['status']}")
            if on_shard is not None:
                on_shard(event)

        batch = spanned(self, trials, on_shard=observe)
        tracer.count("batch.shards", plan.get("shards", 0))
        if shard_ends:
            tracer.count("batch.shard_spread_s",
                         max(shard_ends) - min(shard_ends))
        for stats in batch.compaction_stats:
            for key in ("fallback_cells", "fallback_batches",
                        "active_row_steps", "padded_row_steps",
                        "active_lane_steps", "padded_lane_steps"):
                tracer.count(f"core.{key}", stats.get(key, 0))
        if self.executor == "process" and plan.get("shards", 1) > 1:
            trials = list(trials)
            offset = 0
            for size in plan["sizes"]:
                chunk = slice(offset, offset + size)
                tracer.count("batch.ipc_bytes", len(pickle.dumps(
                    (trials[chunk], batch.results[chunk]), protocol=4)))
                offset += size
        return batch

    return run


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.clocks import drift
    from repro.core import layer0
    from repro.core.fast import FastSimulation
    from repro.core.fast_batch import TrialStack
    from repro.delays.models import DelayModel
    from repro.experiments import common
    from repro.experiments.batch import BatchResult, BatchRunner
    from repro.service import client, jobs, store
    from repro.topology.base_graph import BaseGraph

    tracer.patch_function(jobs, "build_trials", "experiments")
    tracer.patch_function(common, "standard_config", "experiments")
    tracer.patch_method(BaseGraph, "diameter", "topology")
    tracer.patch_function(drift, "uniform_random_rates", "clocks")
    tracer.patch_method(DelayModel, "delay", "delays", leaf=True)
    tracer.patch_function(layer0, "stacked_pulse_times", "layer0")
    tracer.patch_function(layer0, "stacked_pulse_row", "layer0")
    tracer.patch_method(layer0.Layer0Schedule, "pulse_times_array", "layer0")
    tracer.patch_method(TrialStack, "run", "core")
    tracer.patch_method(FastSimulation, "run", "core")
    for stat in ("local_skews", "max_local_skews", "inter_layer_skews",
                 "max_inter_layer_skews", "overall_skews", "global_skews",
                 "correction_stats", "num_faults"):
        tracer.patch_method(BatchResult, stat, "analysis")
    tracer.patch_function(jobs, "batch_payload", "analysis")
    tracer.patch_method(BatchRunner, "run", "batch",
                        wrapper=_batch_run_wrapper)
    tracer.patch_function(store, "grid_key", "service")
    tracer.patch_method(jobs.JobRunner, "submit", "service")
    for call in ("submit", "events", "result"):
        tracer.patch_method(client.ServiceClient, call, "service")
