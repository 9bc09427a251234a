"""Output checks for every timed grid, and the checks of those checks.

A grid passes when all of its served statistics are finite inside each
trial's own window (shorter trials are NaN-padded past their depth),
every fault-free trial keeps ``max_local_skew`` within the Theorem 1.1
bound ``params.local_skew_bound(D)``, and, where the grid was computed
before, the payload is bitwise equal to that first computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Per-trial scalar statistics of a ``batch_payload``.
TRIAL_STATS = ("max_local_skews", "max_inter_layer_skews", "overall_skews",
               "global_skews")
#: Skew statistics compared against the scalar reference.
SKEW_STATS = TRIAL_STATS + ("local_skews", "inter_layer_skews")
#: Agreement required between the vectorized path and the scalar reference.
REFERENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Cell:
    """What the checks need to know about one trial of a grid."""

    diameter: int
    num_layers: int
    nodes: int
    bound: float

    @classmethod
    def of(cls, config) -> "Cell":
        return cls(
            diameter=config.diameter,
            num_layers=config.num_layers,
            nodes=config.num_grid_nodes,
            bound=config.params.local_skew_bound(config.diameter),
        )


def jsonable(payload) -> Dict:
    """``payload`` as JSON builtins, the form the service serves."""
    from repro.service.jobs import to_jsonable

    return to_jsonable(payload)


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form; equal iff bitwise equal.

    JSON floats round-trip ``float.__repr__`` exactly (``-0.0`` and
    ``NaN`` included), so two payloads share a digest exactly when every
    statistic is bitwise equal.
    """
    text = json.dumps(jsonable(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_payload(payload, cells: Sequence[Cell],
                  expected_digest: Optional[str] = None) -> List[str]:
    """Every way ``payload`` fails the output check (empty when it passes)."""
    problems: List[str] = []
    count = len(cells)
    if payload.get("num_trials") != count:
        return [f"num_trials {payload.get('num_trials')} != {count}"]
    for key in TRIAL_STATS:
        values = np.asarray(payload[key], dtype=float)
        if values.shape != (count,) or not np.isfinite(values).all():
            problems.append(f"{key} not finite over {count} trials")
    local = np.asarray(payload["local_skews"], dtype=float)
    inter = np.asarray(payload["inter_layer_skews"], dtype=float)
    for s, cell in enumerate(cells):
        if not np.isfinite(local[s, :cell.num_layers]).all():
            problems.append(f"local_skews[{s}] not finite")
        if not np.isfinite(inter[s, :cell.num_layers - 1]).all():
            problems.append(f"inter_layer_skews[{s}] not finite")
    for key, values in payload["correction_stats"].items():
        if not np.isfinite(np.asarray(values, dtype=float)).all():
            problems.append(f"correction_stats[{key}] not finite")
    skews = np.asarray(payload["max_local_skews"], dtype=float)
    faults = np.asarray(payload["num_faults"])
    for s, cell in enumerate(cells):
        if faults[s] == 0 and not skews[s] <= cell.bound:
            problems.append(
                f"fault-free trial {s}: max_local_skew {skews[s]!r} > "
                f"Theorem 1.1 bound {cell.bound!r} (D={cell.diameter})"
            )
    if expected_digest is not None and digest(payload) != expected_digest:
        problems.append("not bitwise equal to the first computation")
    return problems


def compare_reference(served, reference, rows: int = 2) -> List[str]:
    """Skew statistics of ``served[:rows]`` vs the scalar ``reference``."""
    problems = []
    for key in SKEW_STATS:
        ref = np.asarray(reference[key], dtype=float)
        got = np.asarray(served[key], dtype=float)[:rows]
        if ref.ndim == 2:
            got = got[:, :ref.shape[1]]
        if got.shape != ref.shape or not np.allclose(
            got, ref, rtol=0.0, atol=REFERENCE_TOLERANCE, equal_nan=True
        ):
            gap = np.nanmax(np.abs(got - ref)) if got.shape == ref.shape \
                else "shape"
            problems.append(f"{key}: vectorized vs scalar reference off by "
                            f"{gap}")
    return problems


def self_test(payload, cells: Sequence[Cell]) -> List[str]:
    """Corrupt one statistic three ways; the check must reject each.

    Returns the corruptions the check failed to reject (empty: the check
    works on this very payload).
    """
    first = digest(payload)
    fault_free = [
        s for s, f in enumerate(np.asarray(payload["num_faults"])) if f == 0
    ]

    def corrupted(edit):
        copy = json.loads(json.dumps(jsonable(payload)))
        edit(copy)
        return copy

    def set_nan(p):
        p["global_skews"][0] = float("nan")

    def over_bound(p):
        s = fault_free[0]
        p["max_local_skews"][s] = 2.0 * cells[s].bound

    def one_ulp(p):
        p["overall_skews"][0] = float(np.nextafter(p["overall_skews"][0],
                                                   np.inf))

    # Only the bitwise corruption is checked against the digest, so the
    # other two must be caught by the finiteness and bound checks alone.
    missed = []
    for name, edit, expected in (("nan", set_nan, None),
                                 ("over_bound", over_bound, None),
                                 ("one_ulp", one_ulp, first)):
        if name == "over_bound" and not fault_free:
            continue
        if not check_payload(corrupted(edit), cells, expected):
            missed.append(name)
    return missed
