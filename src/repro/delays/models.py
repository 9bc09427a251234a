"""Delay model implementations.

A delay model answers "what is the delay of edge ``e`` for pulse ``k``?".
Edges are pairs of :data:`~repro.topology.layered.NodeId`.  All models are
deterministic functions of their seed and the edge identity -- the sampled
delay never depends on query order, so the event-driven and fast simulators
see identical executions.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.topology.layered import NodeId

__all__ = [
    "DelayModel",
    "UniformDelayModel",
    "StaticDelayModel",
    "AdversarialSplitDelays",
    "VaryingDelayModel",
]

Edge = Tuple[NodeId, NodeId]


def _entropy_word(value) -> int:
    """Stable non-negative 32-bit word from an int or string node part."""
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    return zlib.crc32(repr(value).encode())


def _edge_rng(seed: int, edge: Edge) -> np.random.Generator:
    """Deterministic per-edge generator, independent of query order."""
    (v1, l1), (v2, l2) = edge
    entropy = [seed & 0xFFFFFFFF] + [
        _entropy_word(part) for part in (v1, l1, v2, l2)
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class DelayModel(ABC):
    """Maps ``(edge, pulse_index)`` to an end-to-end delay.

    ``pulse_invariant`` declares that ``delay(edge, k)`` does not depend on
    ``k``; the vectorized fast-simulator sweep then caches per-layer delay
    arrays across pulses.  It defaults to False so custom subclasses stay
    correct without opting in.

    Because models are deterministic functions of their seed and the edge
    identity (and the pulse, unless ``pulse_invariant``), the vectorized
    kernel caches the delay *blocks* it gathers on the model itself
    (``_edge_array_cache``), keyed by the querying graph's edge
    structure -- so repeated runs and freshly constructed simulations over
    the same model skip the per-edge Python loop.  Replace the model
    rather than mutating its state to get different delays.

    Memo caches (:attr:`_memo_attrs`) are left out of the pickled state
    and come back empty, so a model pickles to the same bytes before and
    after it has been run -- the service's grid key depends on that.
    """

    pulse_invariant = False
    #: Attributes that only memoize values derivable from the parameters.
    _memo_attrs: Tuple[str, ...] = ("_edge_array_cache",)

    def __init__(self, d: float, u: float) -> None:
        if d <= 0:
            raise ValueError(f"d must be positive, got {d}")
        if not 0 <= u <= d:
            raise ValueError(f"u must lie in [0, d], got {u}")
        self.d = d
        self.u = u
        #: per-edge-structure cache of gathered delay blocks; see class
        #: docstring and :mod:`repro.core.fast_batch`.
        self._edge_array_cache: Dict[object, Dict] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._memo_attrs:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._memo_attrs:
            setattr(self, name, {})

    @abstractmethod
    def delay(self, edge: Edge, pulse: int = 0) -> float:
        """Delay applied to pulse ``pulse`` on ``edge``; in ``[d - u, d]``."""

    def _clip(self, value: float) -> float:
        return min(max(value, self.d - self.u), self.d)


class UniformDelayModel(DelayModel):
    """Every edge has the same fixed delay (default: the midpoint)."""

    pulse_invariant = True

    def __init__(self, d: float, u: float, value: float | None = None) -> None:
        super().__init__(d, u)
        if value is None:
            value = d - u / 2.0
        if not d - u <= value <= d:
            raise ValueError(f"value {value} outside [d-u, d]=[{d - u}, {d}]")
        self.value = value

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        return self.value


class StaticDelayModel(DelayModel):
    """Independent per-edge delays, uniform in ``[d - u, d]``, fixed forever.

    This is the paper's baseline communication model: "each edge has an
    unknown, but fixed associated delay".
    """

    pulse_invariant = True
    _memo_attrs = DelayModel._memo_attrs + ("_cache",)

    def __init__(self, d: float, u: float, seed: int = 0) -> None:
        super().__init__(d, u)
        self.seed = seed
        self._cache: Dict[Edge, float] = {}

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        cached = self._cache.get(edge)
        if cached is None:
            rng = _edge_rng(self.seed, edge)
            cached = float(rng.uniform(self.d - self.u, self.d))
            self._cache[edge] = cached
        return cached


class AdversarialSplitDelays(DelayModel):
    """Delays chosen by a classifier: ``d`` on "slow" edges, ``d - u`` else.

    Reproduces the worst-case assignment of Figure 1 (left), where one flank
    of the grid runs at maximum delay and the other at minimum, piling up
    ``Theta(u * D)`` of skew under naive TRIX forwarding.
    """

    pulse_invariant = True

    def __init__(
        self,
        d: float,
        u: float,
        slow_edge: Callable[[Edge], bool],
    ) -> None:
        super().__init__(d, u)
        self._slow_edge = slow_edge

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        return self.d if self._slow_edge(edge) else self.d - self.u


class VaryingDelayModel(DelayModel):
    """Static base delays plus a bounded per-pulse random walk.

    Models Corollary 1.5(ii): link delays varying by up to
    ``max_step`` between consecutive pulses, always clipped to
    ``[d - u, d]``.  The walk for each edge is generated lazily but
    deterministically from ``seed`` and the edge identity.
    """

    _memo_attrs = DelayModel._memo_attrs + ("_walks", "_rngs")

    def __init__(
        self, d: float, u: float, max_step: float, seed: int = 0
    ) -> None:
        super().__init__(d, u)
        if max_step < 0:
            raise ValueError(f"max_step must be >= 0, got {max_step}")
        self.max_step = max_step
        self.seed = seed
        self._walks: Dict[Edge, List[float]] = {}
        self._rngs: Dict[Edge, np.random.Generator] = {}

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        walk = self._walks.get(edge)
        if walk is None:
            rng = _edge_rng(self.seed, edge)
            walk = [float(rng.uniform(self.d - self.u, self.d))]
            self._walks[edge] = walk
            self._rngs[edge] = rng
        rng = self._rngs[edge]
        while len(walk) <= pulse:
            step = float(rng.uniform(-self.max_step, self.max_step))
            walk.append(self._clip(walk[-1] + step))
        return walk[pulse]
