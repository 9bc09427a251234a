"""Per-layer metrics of a traced run, computed from the tracer's spans.

Times and counts are per traced grid (the mean over the traced grids
that passed their check), except the ``service`` hit/miss counts, which
are totals.  A layer's ``_s`` is the time in its outermost spans; its
``self_s`` subtracts the part of each span covered by wrapped child
calls.  ``topology``, ``clocks`` and ``delays`` call no other wrapped
layer, so their time is already self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

#: Per-layer metric -> (unit, better, the end-to-end metric and workload
#: it should move).  Written down before measuring (see perfbench/README).
_BUILD = "grid_s_p50/node_pulses_per_s on sweep_cold and hit latency on " \
         "service_mix; near zero per grid on faults_warm (run by hand)"
_KERNEL = "grid_s_p50 on faults_warm (run by hand); no change on sweep_cold"
_SERVICE = "service_mix only"
MOVES: Dict[str, tuple] = {
    "experiments.build_s": ("s/grid", "lower", _BUILD),
    "experiments.self_s": ("s/grid", "lower", _BUILD),
    "topology.diameter_s": ("s/grid", "lower", _BUILD),
    "topology.diameter_calls": ("count/grid", "lower", _BUILD),
    "clocks.rates_s": ("s/grid", "lower", _BUILD),
    "delays.s": ("s/grid", "lower", _BUILD),
    "delays.calls": ("count/grid", "lower", _BUILD),
    "layer0.s": ("s/grid", "lower", _KERNEL),
    "layer0.self_s": ("s/grid", "lower", _KERNEL),
    "core.stack_s": ("s/grid", "lower", _KERNEL),
    "core.stack_self_s": ("s/grid", "lower", _KERNEL),
    "core.fallback_cells": ("count/grid", "lower", _KERNEL),
    "core.fallback_batches": ("count/grid", "lower", _KERNEL),
    "core.active_row_ratio": ("ratio", "higher", _KERNEL),
    "core.active_lane_ratio": ("ratio", "higher", _KERNEL),
    "analysis.reduce_s": ("s/grid", "lower",
                          "grid_s_p50 on sweep_cold (materialized); "
                          "peak_rss_mb of sweep_cold vs faults_warm"),
    "analysis.self_s": ("s/grid", "lower", "grid_s_p50 on sweep_cold"),
    "batch.run_s": ("s/grid", "lower", "grid_s_p50 on every workload"),
    "batch.self_s": ("s/grid", "lower", _SERVICE),
    "batch.shards": ("count/grid", "lower", _SERVICE),
    "batch.shards_lost": ("count/grid", "lower", _SERVICE),
    "batch.shards_retried": ("count/grid", "lower", _SERVICE),
    "batch.shard_spread_s": ("s/grid", "lower", _SERVICE),
    "batch.ipc_bytes": ("B_computed/grid", "lower", _SERVICE),
    "service.submit_s": ("s/grid", "lower", _SERVICE),
    "service.grid_key_s": ("s/grid", "lower", _SERVICE),
    "service.queue_wait_s": ("s/grid", "lower", _SERVICE),
    "service.execute_s": ("s/grid", "lower", _SERVICE),
    "service.result_s": ("s/grid", "lower", _SERVICE),
    "service.result_bytes": ("B_computed/grid", "lower", _SERVICE),
    "service.self_s": ("s/grid", "lower", _SERVICE),
    "service.hits": ("count", "higher", _SERVICE),
    "service.misses": ("count", "lower", _SERVICE),
    "service.hit_ratio": ("ratio", "higher", _SERVICE),
    "service.hit_s_p50": ("s", "lower", _SERVICE),
    "service.miss_s_p50": ("s", "lower", _SERVICE),
    "service.polls_per_job": ("count/grid", "lower", _SERVICE),
    "trace.grids": ("count", "higher", "sample count of this traced run"),
    "trace.untraced_node_pulses_per_s": ("1/s", "higher",
                                         "node_pulses_per_s, tracing off"),
    "trace.traced_node_pulses_per_s": ("1/s", "higher",
                                       "node_pulses_per_s, tracing on"),
    "trace.overhead_ratio": ("ratio", "lower",
                             "untraced / traced node-pulse rate - 1"),
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(outcomes) -> float:
    busy = sum(o.seconds for o in outcomes)
    return sum(o.node_pulses for o in outcomes) / busy if busy else 0.0


def per_layer(tracer, outcomes) -> Dict[str, tuple]:
    """Every metric of :data:`MOVES` as ``(value, unit, extra)``."""
    traced = [o for o in outcomes if o.info["traced"]]
    untraced = [o for o in outcomes if not o.info["traced"]]
    grids = {o.index for o in traced}
    per = max(len(traced), 1)

    busy = defaultdict(float)        # outermost time per layer
    self_s = defaultdict(float)      # self time per layer
    by_name = defaultdict(float)     # busy time per span name
    calls = defaultdict(float)       # calls per span name and per layer
    for (_, name, layer, _start, _end, _parent, grid, span_busy, span_self,
         span_calls, outer) in tracer.spans:
        if grid not in grids:
            continue
        if outer:
            busy[layer] += span_busy
        self_s[layer] += span_self
        by_name[name] += span_busy
        calls[name] += span_calls
        calls[layer] += span_calls
    counts = defaultdict(float)
    for (grid, name), value in tracer.counts.items():
        if grid in grids:
            counts[name] += value

    hits = [o for o in traced if o.info.get("cache_hit") is True]
    misses = [o for o in traced if o.info.get("cache_hit") is False]
    service = [o for o in traced if "cache_hit" in o.info]

    def info_mean(key):
        return sum(o.info[key] for o in service) / per

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    untraced_rate, traced_rate = _rate(untraced), _rate(traced)
    values = {
        "experiments.build_s": busy["experiments"] / per,
        "experiments.self_s": self_s["experiments"] / per,
        "topology.diameter_s": by_name["topology.BaseGraph.diameter"] / per,
        "topology.diameter_calls":
            calls["topology.BaseGraph.diameter"] / per,
        "clocks.rates_s": busy["clocks"] / per,
        "delays.s": busy["delays"] / per,
        "delays.calls": calls["delays"] / per,
        "layer0.s": busy["layer0"] / per,
        "layer0.self_s": self_s["layer0"] / per,
        "core.stack_s": by_name["core.TrialStack.run"] / per,
        "core.stack_self_s": self_s["core"] / per,
        "core.fallback_cells": counts["core.fallback_cells"] / per,
        "core.fallback_batches": counts["core.fallback_batches"] / per,
        "core.active_row_ratio":
            ratio("core.active_row_steps", "core.padded_row_steps"),
        "core.active_lane_ratio":
            ratio("core.active_lane_steps", "core.padded_lane_steps"),
        "analysis.reduce_s": busy["analysis"] / per,
        "analysis.self_s": self_s["analysis"] / per,
        "batch.run_s": busy["batch"] / per,
        "batch.self_s": self_s["batch"] / per,
        "batch.shards": counts["batch.shards"] / per,
        "batch.shards_lost": counts["batch.shards_lost"] / per,
        "batch.shards_retried": counts["batch.shards_retried"] / per,
        "batch.shard_spread_s": counts["batch.shard_spread_s"] / per,
        "batch.ipc_bytes": counts["batch.ipc_bytes"] / per,
        "service.submit_s": by_name["service.ServiceClient.submit"] / per,
        "service.grid_key_s": by_name["service.grid_key"] / per,
        "service.queue_wait_s": info_mean("queue_wait_s"),
        "service.execute_s": info_mean("execute_s"),
        "service.result_s": by_name["service.ServiceClient.result"] / per,
        "service.result_bytes": info_mean("result_bytes"),
        "service.self_s": self_s["service"] / per,
        "service.hits": float(len(hits)),
        "service.misses": float(len(misses)),
        "service.hit_ratio": len(hits) / len(service) if service else 0.0,
        "service.hit_s_p50": _median([o.seconds for o in hits]),
        "service.miss_s_p50": _median([o.seconds for o in misses]),
        "service.polls_per_job":
            calls["service.ServiceClient.events"] / per,
        "trace.grids": float(len(traced)),
        "trace.untraced_node_pulses_per_s": untraced_rate,
        "trace.traced_node_pulses_per_s": traced_rate,
        "trace.overhead_ratio":
            untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
    }
    return {
        name: (values[name], unit, {"samples": len(traced), "better": better,
                                    "moves": moves})
        for name, (unit, better, moves) in MOVES.items()
    }
