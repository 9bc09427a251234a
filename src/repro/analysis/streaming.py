"""Streaming reducers: fold statistics online, layer plane by layer plane.

The kernels of :mod:`repro.core.fast` / :mod:`repro.core.fast_batch`
advance one ``(S, W)`` layer plane at a time, but until now every trial's
full ``(K, L, W)`` pulse-time block stayed in memory so the array
reducers of :mod:`repro.analysis.skew` / :mod:`repro.analysis.potentials`
could run afterwards -- stacked, an ``(S, K, L_max, W_max)`` array that
caps sweep size long before the kernel does.  This module is the
incremental counterpart (the incremental-POD template of Fareed &
Singler): a :class:`StreamingReducer` consumes each plane *as the kernel
writes it* and folds it into O(S, L) accumulators.  Every
:class:`~repro.experiments.batch.BatchResult` statistic is served from
these folds, and a sweep with ``store_times=False`` never allocates the
pulse-time block at all.

Design constraints, all load-bearing:

* **Bitwise parity.**  Every skew/potential accumulator is a pure
  ``max``-fold.  Max is associative and exact in floating point, so a
  streamed statistic is *bitwise identical* to the corresponding array
  reducer applied to the materialized block (the differential suite pins
  this).  The one non-max statistic -- the correction mean -- folds
  per-plane partial sums in a fixed ``(pulse, layer)`` order, and
  :func:`fold_correction_planes` applies the *same* order to materialized
  blocks so both paths agree bitwise there too.
* **NaN semantics.**  NaN is the simulator's "never pulsed / faulty /
  padding" marker; reducers mask it exactly like
  :func:`repro.analysis.skew.masked_max` (explicit validity masks, no
  warnings suppressed).  Padding cells of a heterogeneous stack are NaN
  and therefore invisible here, as everywhere else.
* **Compaction-aware.**  ``update`` takes the stack's ``active_rows``
  index; accumulators gather/scatter through it like every other
  row-indexed tensor of the compacted kernel.  A fully skipped layer
  step still *must* call ``update`` with an empty ``rows`` array so the
  inter-layer reducer can retire its previous-pulse plane.
* **Picklable + mergeable.**  Accumulators survive the process executor
  (:meth:`StreamedStats.merge` concatenates shards along the trial
  axis), so ``executor="process"`` sweeps stream too.

The inter-layer skew compares pulse ``k+1`` on layer ``l`` against pulse
``k`` on layer ``l+1`` -- a *cross-pulse* comparison -- so its reducer
keeps one ``(S, L, W)`` previous-pulse buffer, the O(S, W)-per-layer
memory floor of the statistic itself; ``finalize`` releases it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.layered import LayeredGraph

__all__ = [
    "StreamGroup",
    "StreamLayout",
    "StreamingReducer",
    "LocalSkewStream",
    "InterLayerSkewStream",
    "GlobalSkewStream",
    "CorrectionStatsStream",
    "PotentialStream",
    "StreamedStats",
    "default_reducers",
    "fold_correction_planes",
]


class StreamGroup:
    """One geometry group of a streamed batch: a graph plus trial rows.

    Mirrors :meth:`BatchResult._geometry_groups`: reducers gather along
    base-graph edges, so trials only share a sweep when they share the
    ``(num_layers, adjacency)`` geometry.
    """

    __slots__ = ("graph", "indices")

    def __init__(self, graph: LayeredGraph, indices: np.ndarray) -> None:
        self.graph = graph
        self.indices = np.asarray(indices, dtype=np.int64)

    @property
    def depth(self) -> int:
        return self.graph.num_layers

    @property
    def width(self) -> int:
        return self.graph.width

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Base-graph edge endpoints (cached on the base graph)."""
        return self.graph.base.edge_index_arrays()

    def active(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Group rows intersected with the kernel's active-row mask."""
        if mask is None:
            return self.indices
        return self.indices[mask[self.indices]]

    def active_positions(
        self, mask: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions-within-group, global rows)`` of the active trials."""
        if mask is None:
            return np.arange(self.indices.size), self.indices
        positions = np.flatnonzero(mask[self.indices])
        return positions, self.indices[positions]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs base distances ``d(v, w)``; shape ``(W, W)``."""
        base = self.graph.base
        n = base.num_nodes
        dist = np.empty((n, n))
        for v in range(n):
            dist[v, :] = base.distances_from(v)
        return dist

    # __slots__ classes pickle their slot dict via protocol 2+, but the
    # process executor must not choke on older default reducers either.
    def __getstate__(self):
        return {"graph": self.graph, "indices": self.indices}

    def __setstate__(self, state):
        self.graph = state["graph"]
        self.indices = state["indices"]


class StreamLayout:
    """Shapes and geometry grouping shared by all reducers of one run."""

    def __init__(
        self,
        graphs: Sequence[LayeredGraph],
        kappas: Sequence[float],
        num_pulses: int,
    ) -> None:
        self.graphs = list(graphs)
        if not self.graphs:
            raise ValueError("need at least one trial graph")
        self.kappas = np.asarray(kappas, dtype=float)
        if self.kappas.shape != (len(self.graphs),):
            raise ValueError("need one kappa per trial graph")
        self.num_pulses = int(num_pulses)
        self.num_trials = len(self.graphs)
        self.depths = np.array(
            [g.num_layers for g in self.graphs], dtype=np.int64
        )
        self.widths = np.array([g.width for g in self.graphs], dtype=np.int64)
        self.num_layers = int(self.depths.max())
        self.width = int(self.widths.max())
        grouped: Dict[Tuple, List[int]] = {}
        group_graphs: Dict[Tuple, LayeredGraph] = {}
        for i, graph in enumerate(self.graphs):
            key = (graph.num_layers, graph.base.adjacency)
            grouped.setdefault(key, []).append(i)
            group_graphs.setdefault(key, graph)
        self.groups = [
            StreamGroup(group_graphs[key], indices)
            for key, indices in grouped.items()
        ]

    @classmethod
    def from_sims(cls, sims, num_pulses: int) -> "StreamLayout":
        """Layout of a :class:`FastSimulation` list (one trial each)."""
        return cls(
            [sim.graph for sim in sims],
            [sim.params.kappa for sim in sims],
            num_pulses,
        )


def _rows_mask(
    rows: Optional[np.ndarray], num_trials: int
) -> Optional[np.ndarray]:
    if rows is None:
        return None
    mask = np.zeros(num_trials, dtype=bool)
    mask[rows] = True
    return mask


def _masked_plane_max(diffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Last-axis max of ``diffs`` under NaN masking: ``(values, any_valid)``.

    Same −inf-fill construction as :func:`repro.analysis.skew.masked_max`,
    so folding these per-plane maxima reproduces the array reducer's
    joint max bit for bit.
    """
    valid = ~np.isnan(diffs)
    values = np.where(valid, diffs, -np.inf).max(axis=-1, initial=-np.inf)
    return values, valid.any(axis=-1)


class StreamingReducer:
    """Protocol for online statistics folded one layer plane at a time.

    Lifecycle: :meth:`bind` once with the run's :class:`StreamLayout`,
    then :meth:`update` for **every** ``(pulse, layer)`` cell in pulse-
    major order -- including layer 0 and layer steps the compacted kernel
    skipped outright (``rows`` is an empty index array there) -- then
    :meth:`finalize` once the run ends.  ``times``/``corrections`` are
    the kernel's live ``(S, W)`` planes; treat them as read-only views.
    """

    name: str = "reducer"

    def bind(self, layout: StreamLayout) -> None:
        raise NotImplementedError

    def update(
        self,
        pulse: int,
        layer: int,
        times: np.ndarray,
        corrections: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        """Release per-run scratch state (buffers, caches)."""

    def merged(
        self, other: "StreamingReducer", layout: StreamLayout
    ) -> "StreamingReducer":
        """Shard merge: ``self``'s trials followed by ``other``'s."""
        raise NotImplementedError


class _PerLayerMaxStream(StreamingReducer):
    """Shared machinery for (S, columns) running-max accumulators."""

    def _alloc(self, layout: StreamLayout, columns: int) -> None:
        self.layout = layout
        self._acc = np.full((layout.num_trials, columns), -np.inf)
        self._valid = np.zeros((layout.num_trials, columns), dtype=bool)

    def _fold(self, idx: np.ndarray, column: int, diffs: np.ndarray) -> None:
        values, any_valid = _masked_plane_max(diffs)
        self._acc[idx, column] = np.maximum(self._acc[idx, column], values)
        self._valid[idx, column] |= any_valid

    def _trial_columns(self, row: int) -> int:
        raise NotImplementedError

    def trial_values(self, row: int, empty: float = 0.0) -> np.ndarray:
        """One trial's per-layer statistic over its *own* layer count."""
        columns = self._trial_columns(row)
        return np.where(
            self._valid[row, :columns], self._acc[row, :columns], empty
        )

    def merged(self, other, layout):
        out = self._spawn()
        out.bind(layout)
        first = self.layout.num_trials
        out._acc[:first, : self._acc.shape[1]] = self._acc
        out._acc[first:, : other._acc.shape[1]] = other._acc
        out._valid[:first, : self._valid.shape[1]] = self._valid
        out._valid[first:, : other._valid.shape[1]] = other._valid
        out.finalize()
        return out

    def _spawn(self) -> "StreamingReducer":
        return type(self)()


class LocalSkewStream(_PerLayerMaxStream):
    """Intra-layer local skew ``L_l``, streamed.

    Folds ``max_{edges} |t_v - t_w|`` of each plane into an ``(S, L)``
    running max; bitwise equal to
    :func:`repro.analysis.skew.local_skew_layers`.
    """

    name = "local"

    def bind(self, layout):
        self._alloc(layout, layout.num_layers)

    def update(self, pulse, layer, times, corrections, rows=None):
        mask = _rows_mask(rows, self.layout.num_trials)
        for group in self.layout.groups:
            if layer >= group.depth:
                continue
            idx = group.active(mask)
            if idx.size == 0:
                continue
            left, right = group.edges()
            plane = times[idx]
            self._fold(idx, layer, np.abs(plane[:, left] - plane[:, right]))

    def _trial_columns(self, row):
        return int(self.layout.depths[row])


class InterLayerSkewStream(_PerLayerMaxStream):
    """Inter-layer local skew ``L_{l,l+1}``, streamed.

    The statistic compares pulse ``k+1`` on layer ``l`` against pulse
    ``k`` on layer ``l+1`` along own-copy and neighbor-copy edges, so the
    reducer carries one ``(S, L, W)`` previous-pulse buffer -- refreshed
    through ``active_rows`` at every update (a skipped layer writes NaN,
    keeping dead rows inert) and dropped by :meth:`finalize`.  Bitwise
    equal to :func:`repro.analysis.skew.inter_layer_skew_layers`.
    """

    name = "inter_layer"

    def bind(self, layout):
        self._alloc(layout, max(layout.num_layers - 1, 0))
        self._prev = np.full(
            (layout.num_trials, layout.num_layers, layout.width), np.nan
        )

    def update(self, pulse, layer, times, corrections, rows=None):
        mask = _rows_mask(rows, self.layout.num_trials)
        if pulse >= 1 and self._acc.shape[1]:
            for group in self.layout.groups:
                if layer > group.depth - 2:
                    continue
                idx = group.active(mask)
                if idx.size == 0:
                    continue
                left, right = group.edges()
                width = group.width
                upper = times[idx][:, :width]  # pulse k,   layer l
                lower = self._prev[idx, layer + 1, :width]  # k-1, l+1
                self._fold(
                    idx,
                    layer,
                    np.concatenate(
                        [
                            np.abs(upper - lower),
                            np.abs(upper[:, left] - lower[:, right]),
                            np.abs(upper[:, right] - lower[:, left]),
                        ],
                        axis=-1,
                    ),
                )
        if self._prev is not None:
            if rows is None:
                self._prev[:, layer, :] = times
            else:
                self._prev[:, layer, :] = np.nan
                self._prev[rows, layer, :] = times[rows]

    def finalize(self):
        self._prev = None

    def _trial_columns(self, row):
        return max(int(self.layout.depths[row]) - 1, 0)


class GlobalSkewStream(_PerLayerMaxStream):
    """Per-layer global skew (largest same-pulse spread), streamed.

    Geometry-agnostic like :func:`repro.analysis.skew.global_skew_layers`:
    the spread masks NaN cells, so padded lanes never contribute.
    """

    name = "global"

    def bind(self, layout):
        self._alloc(layout, layout.num_layers)

    def update(self, pulse, layer, times, corrections, rows=None):
        idx = np.arange(self.layout.num_trials) if rows is None else rows
        if idx.size == 0:
            return
        plane = times[idx]
        valid = ~np.isnan(plane)
        any_valid = valid.any(axis=-1)
        maxs = np.where(valid, plane, -np.inf).max(axis=-1, initial=-np.inf)
        mins = np.where(valid, plane, np.inf).min(axis=-1, initial=np.inf)
        spread = np.where(any_valid, maxs - mins, -np.inf)
        self._acc[idx, layer] = np.maximum(self._acc[idx, layer], spread)
        self._valid[idx, layer] |= any_valid

    def _trial_columns(self, row):
        return int(self.layout.depths[row])


class CorrectionStatsStream(StreamingReducer):
    """Correction summary (count / mean ``|C|`` / max ``|C|``), streamed.

    The count and max are exact under any fold order; the mean's partial
    sums accumulate in plane order, which is why
    :meth:`BatchResult.correction_stats` reduces materialized blocks
    through :func:`fold_correction_planes` -- the identical op sequence
    -- rather than one flat sum.
    """

    name = "corrections"

    def bind(self, layout):
        self.layout = layout
        trials = layout.num_trials
        self._counts = np.zeros(trials, dtype=np.int64)
        self._totals = np.zeros(trials)
        self._max_abs = np.zeros(trials)

    def update(self, pulse, layer, times, corrections, rows=None):
        mask = _rows_mask(rows, self.layout.num_trials)
        for group in self.layout.groups:
            if layer >= group.depth:
                continue
            idx = group.active(mask)
            if idx.size == 0:
                continue
            # Slice to the group's true width: summing a padded W_max row
            # changes numpy's pairwise-sum association, so the mean would
            # drift ULPs away from a per-trial fold of the same data.
            plane = corrections[idx][:, : group.width]
            finite = np.isfinite(plane)
            abs_vals = np.where(finite, np.abs(plane), 0.0)
            self._counts[idx] += finite.sum(axis=-1)
            self._totals[idx] = self._totals[idx] + abs_vals.sum(axis=-1)
            self._max_abs[idx] = np.maximum(
                self._max_abs[idx], abs_vals.max(axis=-1, initial=0.0)
            )

    def trial_stats(self, row: int) -> Dict[str, float]:
        count = int(self._counts[row])
        mean = self._totals[row] / max(count, 1) if count > 0 else 0.0
        return {
            "max_abs": float(self._max_abs[row]),
            "mean_abs": float(mean),
            "num_corrections": count,
        }

    def stats(self) -> Dict[str, np.ndarray]:
        """All-trials summary in the :meth:`correction_stats` layout."""
        return {
            "max_abs": self._max_abs.copy(),
            "mean_abs": np.where(
                self._counts > 0,
                self._totals / np.maximum(self._counts, 1),
                0.0,
            ),
            "num_corrections": self._counts.copy(),
        }

    def merged(self, other, layout):
        out = CorrectionStatsStream()
        out.bind(layout)
        first = self.layout.num_trials
        out._counts[:first] = self._counts
        out._counts[first:] = other._counts
        out._totals[:first] = self._totals
        out._totals[first:] = other._totals
        out._max_abs[:first] = self._max_abs
        out._max_abs[first:] = other._max_abs
        return out


class PotentialStream(_PerLayerMaxStream):
    """Definition 4.1 potential ``Psi^s(l)``, streamed.

    Folds ``max_{v,w} (t_v - t_w - 4 s kappa d(v, w))`` per plane -- the
    all-pairs weight matrices are cached per geometry group at bind time
    (O(S W^2) once, instead of an (S, K, L, W, W) diff tensor).  Bitwise
    equal to :func:`repro.analysis.potentials.potential_layers` with
    ``coefficient = 4 s kappa``.
    """

    def __init__(self, s: int) -> None:
        self.s = int(s)
        self.name = f"potential_s{self.s}"

    def bind(self, layout):
        self._alloc(layout, layout.num_layers)
        self._weights = []
        for group in layout.groups:
            dist = group.distance_matrix()
            coefficients = 4.0 * self.s * layout.kappas[group.indices]
            self._weights.append(
                coefficients[:, None, None] * dist[None, :, :]
            )

    def update(self, pulse, layer, times, corrections, rows=None):
        mask = _rows_mask(rows, self.layout.num_trials)
        for gi, group in enumerate(self.layout.groups):
            if layer >= group.depth:
                continue
            positions, idx = group.active_positions(mask)
            if idx.size == 0:
                continue
            plane = times[idx][:, : group.width]
            diffs = (
                (plane[:, :, None] - plane[:, None, :])
                - self._weights[gi][positions]
            )
            self._fold(idx, layer, diffs.reshape(idx.size, -1))

    def finalize(self):
        self._weights = None

    def _trial_columns(self, row):
        return int(self.layout.depths[row])

    def trial_values(self, row: int, empty: float = np.nan) -> np.ndarray:
        # Layers with no correct pair have an *undefined* potential (the
        # scalar ``Psi`` reports NaN), hence the NaN default.
        return super().trial_values(row, empty=empty)

    def _spawn(self):
        return PotentialStream(self.s)


class StreamedStats:
    """Bound reducer set of one streamed run (one stack group / trial).

    Attached to every participating :class:`~repro.core.fast.FastResult`
    as ``result.streamed`` with the trial's row in ``result.streamed_row``
    -- one shared object per stack group, which pickling deduplicates
    within a shard payload, so the process executor carries it at no
    per-trial cost (unlike the stripped ``_StackBlock``).
    """

    def __init__(
        self, layout: StreamLayout, reducers: Iterable[StreamingReducer]
    ) -> None:
        self.layout = layout
        # Position of this stream's first trial in the parent batch.
        # BatchRunner stamps it after reassembly; merge() orders shards
        # by it so ``a.merge(b)`` and ``b.merge(a)`` concatenate the
        # trial axis identically (shard futures may resolve out of
        # order).  Standalone streams keep 0 (self-first, the historical
        # behavior).
        self.trial_offset = 0
        self._reducers = list(reducers)
        names = [r.name for r in self._reducers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate reducer names: {names}")
        self._by_name = {r.name: r for r in self._reducers}
        for reducer in self._reducers:
            reducer.bind(layout)

    def update(
        self,
        pulse: int,
        layer: int,
        times: np.ndarray,
        corrections: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        for reducer in self._reducers:
            reducer.update(pulse, layer, times, corrections, rows)

    def finalize(self) -> None:
        for reducer in self._reducers:
            reducer.finalize()

    def names(self) -> List[str]:
        return [r.name for r in self._reducers]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> StreamingReducer:
        return self._by_name[name]

    def get(self, name: str) -> Optional[StreamingReducer]:
        return self._by_name.get(name)

    def merge(self, other: "StreamedStats") -> "StreamedStats":
        """Concatenate two shards' accumulators along the trial axis.

        The pair is ordered by :attr:`trial_offset` (lowest first, self
        on ties), not by argument position, so the merged trial axis
        matches the batch's trial order no matter which shard future
        resolved first.
        """
        if self.layout.num_pulses != other.layout.num_pulses:
            raise ValueError("cannot merge streams over different pulses")
        if self.names() != other.names():
            raise ValueError(
                f"reducer sets differ: {self.names()} vs {other.names()}"
            )
        self_offset = getattr(self, "trial_offset", 0)
        other_offset = getattr(other, "trial_offset", 0)
        first, second = (
            (self, other) if self_offset <= other_offset else (other, self)
        )
        layout = StreamLayout(
            first.layout.graphs + second.layout.graphs,
            np.concatenate([first.layout.kappas, second.layout.kappas]),
            first.layout.num_pulses,
        )
        merged = StreamedStats.__new__(StreamedStats)
        merged.layout = layout
        merged.trial_offset = min(self_offset, other_offset)
        merged._reducers = [
            first[reducer.name].merged(second[reducer.name], layout)
            for reducer in first._reducers
        ]
        merged._by_name = {r.name: r for r in merged._reducers}
        return merged


def default_reducers(
    potential_levels: Sequence[int] = (),
) -> List[StreamingReducer]:
    """The reducer set backing :class:`BatchResult`'s streamed accessors.

    Local / inter-layer / global skew and correction stats always;
    ``potential_levels`` adds one ``Psi^s`` stream per level.

    Example
    -------
    >>> from repro.analysis.streaming import default_reducers
    >>> [r.name for r in default_reducers(potential_levels=(1,))]
    ['local', 'inter_layer', 'global', 'corrections', 'potential_s1']
    """
    reducers: List[StreamingReducer] = [
        LocalSkewStream(),
        InterLayerSkewStream(),
        GlobalSkewStream(),
        CorrectionStatsStream(),
    ]
    reducers.extend(PotentialStream(s) for s in potential_levels)
    return reducers


def fold_correction_planes(corrections: np.ndarray) -> Dict[str, np.ndarray]:
    """Correction stats of an ``(S, K, L, W)`` block, in *stream order*.

    Reduces plane by plane exactly like :class:`CorrectionStatsStream`
    (same partial-sum association), so materialized and streamed
    correction means agree bitwise -- a flat ``.sum()`` over the block
    would not, since float addition is order-sensitive.
    """
    corrections = np.asarray(corrections, dtype=float)
    trials, pulses, layers, _ = corrections.shape
    counts = np.zeros(trials, dtype=np.int64)
    totals = np.zeros(trials)
    max_abs = np.zeros(trials)
    for pulse in range(pulses):
        for layer in range(layers):
            plane = corrections[:, pulse, layer, :]
            finite = np.isfinite(plane)
            abs_vals = np.where(finite, np.abs(plane), 0.0)
            counts += finite.sum(axis=-1)
            totals = totals + abs_vals.sum(axis=-1)
            max_abs = np.maximum(max_abs, abs_vals.max(axis=-1, initial=0.0))
    return {
        "max_abs": max_abs,
        "mean_abs": np.where(
            counts > 0, totals / np.maximum(counts, 1), 0.0
        ),
        "num_corrections": counts,
    }
