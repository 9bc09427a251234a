"""Distance-``delta`` ``k``-faulty classification (Definitions 4.32-4.33).

A node is distance-``delta`` ``k``-faulty for the minimal ``k`` such that at
most ``k`` faults lie among its distance-``(k+1)*delta`` ancestors.
Observation 4.34: with independent failure probability ``p in o(n^{-1/2})``
and ``delta <= n^{1/12}``, all nodes are ``k``-faulty for ``k <= 2`` with
probability ``1 - o(1)`` -- the hinge of Theorem 1.3's improved analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.topology.layered import LayeredGraph, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.faults.injection import FaultPlan

__all__ = ["distance_delta_k_faulty", "max_k_faulty_over_layer"]


def _count_faulty_ancestors(
    graph: LayeredGraph, plan: "FaultPlan", node: NodeId, distance: int
) -> int:
    """Number of faulty distance-``distance`` ancestors of ``node``.

    Uses the DAG structure (every hop advances one layer): ``(w, l-j)`` is an
    ancestor iff ``1 <= j <= distance`` and ``d_H(w, v) <= j``, so it
    suffices to scan the faulty set instead of enumerating all ancestors.
    """
    v, layer = node
    count = 0
    for (w, wl) in plan.faulty_nodes():
        j = layer - wl
        if 1 <= j <= distance and graph.base.distance(w, v) <= j:
            count += 1
    return count


def distance_delta_k_faulty(
    graph: LayeredGraph,
    plan: "FaultPlan",
    node: NodeId,
    delta: int,
) -> int:
    """Return the minimal ``k`` with at most ``k`` faults among the
    distance-``(k+1)*delta`` ancestors of ``node`` (Definition 4.33).

    The minimum always exists and is at most ``len(plan)``: no ancestor
    set holds more faults than the plan has, so the search ends there.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    k = 0
    while _count_faulty_ancestors(graph, plan, node, (k + 1) * delta) > k:
        k += 1
    return k


def max_k_faulty_over_layer(
    graph: LayeredGraph,
    plan: "FaultPlan",
    layer: int,
    delta: int,
) -> int:
    """Maximum ``k`` over all nodes of ``layer`` (audit for Observation 4.34)."""
    return max(
        distance_delta_k_faulty(graph, plan, (v, layer), delta)
        for v in graph.base.nodes()
    )
