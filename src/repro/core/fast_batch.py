"""Trial-stacked ``(S, W)`` kernel: the fast simulator's vectorized path.

The recurrence of Lemma B.1 has no cross-trial coupling -- trial ``s``'s
pulse ``k`` of layer ``l`` depends only on trial ``s``'s pulse ``k`` of
layer ``l - 1`` -- so ``S`` compatible trials can advance through it in
lock-step, with every per-layer array op widened from shape ``(W,)`` to
``(S, W)``.  That is what :class:`TrialStack` does: reception times,
do-until exit test, correction, and pulse time are computed for the whole
``(S, W)`` plane at once, so the Python-loop overhead per layer step is
paid once per *batch* instead of once per *trial*.  It is also the only
vectorized path: :meth:`FastSimulation.run(vectorize=True)
<repro.core.fast.FastSimulation.run>` runs as a stack of one.

Heterogeneous geometries (padded stacking)
------------------------------------------
Trials do **not** need the same node count, adjacency structure, layer
count, timing parameters, or correction strength to stack.  The stack
pads every per-trial plane to ``(S, W_max)`` (``W_max`` = widest trial)
and marks cells past a trial's width or depth *inert*: their state is
NaN, their gather lanes are masked invalid, their eligibility is
statically False, and the scalar fallback skips them -- so an inert cell
can never influence a real one, and NaN (the simulator's own marker for
"never pulsed") keeps them out of every downstream reducer.  Per-trial
neighbor gathers run through padded ``(S, W_max, max_deg)`` index/valid
tensors built from each base graph's cached
:meth:`~repro.topology.base_graph.BaseGraph.neighbor_index_arrays`;
numeric parameters (``kappa``/``vartheta``/``Lambda``/``d``) and the
policy's ``jump_slack`` broadcast as per-trial ``(S, 1)`` columns.  The
layer-0 schedules of the whole stack are gathered as one
``(S, P, W_max)`` block by :func:`~repro.core.layer0.stacked_pulse_times`
and written plane by plane.  Delays and clock rates are gathered as
``(S, L_max, W_max)`` planes once per run (again each pulse for
pulse-varying models and callable rate providers), so a layer step reads
views instead of re-stacking per-trial arrays.

Compaction (dropping finished rows and unused lanes)
----------------------------------------------------
Padding makes mixed-geometry stacks *correct*; compaction keeps them
cheap.  A trial's row leaves the working plane as soon as the trial has
nothing left to compute:

* **depth exhausted** -- ``layer >= num_layers_s``: the trial's window
  simply has no such layer, or
* **gone dead** -- no node of the trial's previous layer produced a
  pulse for the current iteration (possible only with faults, e.g. a
  fully crashed layer), so no message will ever reach this or any deeper
  layer of this pulse.

On padded stacks each step additionally gathers only the
``active_lanes`` -- the union, over the active rows, of lanes some trial
still needs.  A lane is needed by trial ``s`` when it is inside the
trial's real width and, under a chaos campaign, the vertex is present in
at least one epoch of the remaining horizon: a vertex absent from the
current epoch through the end of the run can never pulse, receive, or
send again, so its lane is freed at the epoch boundary.

The surviving trials and lanes are re-gathered into a compact
``(S_active, C)`` plane (neighbor tables re-indexed into the compact
column space; cached per distinct row/lane set), the kernel runs on it,
and the results scatter back to the original slots.  Dropped cells keep
their initial padding, which is exactly what running them would write
(padding is never eligible, and a silent or horizon-absent cell's scalar
replay records NaN/"none" and no fault sends).  A depth-skewed batch
therefore pays for the layer steps its trials actually run
(``sum_s L_s``) instead of ``S * L_max``; :attr:`TrialStack.compaction_stats`
records the padded vs executed row- and lane-step counts of each run.

CSR neighbor backend (sparse/skewed graphs)
-------------------------------------------
Uniform-adjacency stacks may run the neighbor reduction over the base
graph's CSR arrays (:meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr`)
instead of the padded ``(W, max_deg)`` tensors: per-step cost becomes
``O(S * nnz)`` rather than ``O(S * W * max_deg)``, which is what lets a
hub-skewed or million-node sparse layer through the fast path -- see
:func:`repro.core.fast._layer_step_kernel_csr`.  The backend is chosen
per stack by the density heuristic (``neighbor_backend="auto"``) or
forced (``"dense"``/``"csr"``); mixed-adjacency and campaign stacks fall
back to the dense padded path (recorded in
``compaction_stats["backend_fallback"]``).

Stacking requirements (checked by :func:`stack_compatibility`)
--------------------------------------------------------------
All stacked simulations must share

* the algorithm semantics -- either all ``"full"`` (Algorithm 3) or all
  ``"simplified"`` (Algorithm 1) -- with the vectorized kernel enabled
  (the two algorithms differ only in the eligibility mask of the shared
  :func:`~repro.core.fast._layer_step_kernel`, so both stack), and
* the *structural* correction-policy switches ``discretize`` and
  ``stick_to_median``, which select Python-level branches of the kernel
  (``jump_slack``, a numeric knob, may differ per trial).

Everything else -- geometry, timing parameters, delay models, clock
rates, layer-0 schedules, fault plans -- may differ per trial; those
inputs become the padded leading-axis ``(S, ...)`` arrays the kernel
consumes.

Exactness
---------
The kernel is the shape-generic :func:`~repro.core.fast._layer_step_kernel`,
which mirrors the scalar replay operation-for-operation; per-trial
parameter columns broadcast elementwise and change no operation, so a
cell computes the same floats whatever it is stacked with.  Cells the
kernel cannot decide -- fault-adjacent, via-``H_max``, early-exit, and
missing-message cells -- are replayed through the exact batched fallback
(:meth:`FastSimulation._run_fallback_batch`) of their own simulation.
The test suite asserts bitwise equality against the scalar reference
(``vectorize=False``) and 1e-9 agreement with the event engine, for both
algorithms, over randomized mixed-geometry stacks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.backend import resolve_kernel_ops
from repro.core.fast import (
    BRANCH_CODES,
    NEIGHBOR_BACKENDS,
    FastResult,
    FastSimulation,
    _layer_step_kernel,
    _layer_step_kernel_csr,
    _resolve_backend,
)
from repro.core.layer0 import stacked_pulse_row, stacked_pulse_times
from repro.delays.models import UniformDelayModel

__all__ = ["TrialStack", "stack_compatibility"]

#: Rows hint for layer steps the compacted loop skipped outright: the
#: streaming reducers still need the update (the inter-layer reducer
#: retires its previous-pulse plane), just with no active trial.
_NO_ROWS = np.zeros(0, dtype=np.int64)


class _StackBlock:
    """The shared padded matrices one :meth:`TrialStack.run` writes.

    Handed to every returned :class:`FastResult` (``stack_block`` /
    ``stack_row``) so :class:`~repro.experiments.batch.BatchResult` can
    adopt the block directly instead of re-stacking ``S`` window copies
    -- the single-stack no-copy construction.  All arrays are frozen
    (``writeable=False``) before the results are returned, so neither a
    per-trial result nor a batch adopting the block can corrupt the
    other's view of the shared memory.
    """

    __slots__ = ("times", "corrections", "effective_corrections", "faulty")

    def __init__(
        self,
        times: np.ndarray,
        corrections: np.ndarray,
        effective_corrections: np.ndarray,
        faulty: np.ndarray,
    ) -> None:
        self.times = times
        self.corrections = corrections
        self.effective_corrections = effective_corrections
        self.faulty = faulty


def stack_compatibility(sims: Sequence[FastSimulation]) -> Optional[str]:
    """Why ``sims`` cannot run stacked, or None when they can.

    The returned string names the first violated requirement; callers that
    want an exception can raise on it (``TrialStack`` does).  Geometry,
    parameters, delay models, clock rates, layer-0 schedules, fault plans,
    and the numeric ``jump_slack`` policy knob never disqualify a stack --
    mixed-geometry trials run through the padded kernel (see the module
    docstring).
    """
    if not sims:
        return "need at least one simulation"
    first = sims[0]
    if not first.vectorize:
        return "vectorize=False forces the per-trial scalar path"
    structure = (first.policy.discretize, first.policy.stick_to_median)
    for i, sim in enumerate(sims[1:], start=1):
        if sim.algorithm != first.algorithm:
            return (
                f"trial {i}: algorithm {sim.algorithm!r} differs from "
                f"trial 0's {first.algorithm!r}"
            )
        if not sim.vectorize:
            return f"trial {i}: vectorize=False forces the per-trial path"
        if (sim.policy.discretize, sim.policy.stick_to_median) != structure:
            return (
                f"trial {i}: correction-policy structure "
                "(discretize/stick_to_median) differs from trial 0"
            )
    return None


class _StackedParams:
    """Per-trial ``(S, 1)`` numeric parameter columns for the kernel.

    Stands in for a shared :class:`~repro.params.Parameters` when the
    stacked trials' parameters differ: every kernel use of ``kappa``/
    ``vartheta``/``Lambda``/``d`` is elementwise, so broadcasting a
    column of per-trial values computes bit-identical floats to a scalar
    call with each trial's own value.
    """

    __slots__ = ("kappa", "vartheta", "Lambda", "d")

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        for name in self.__slots__:
            column = np.array([getattr(sim.params, name) for sim in sims])
            setattr(self, name, column[:, None])

    def take(self, rows: np.ndarray) -> "_StackedParams":
        """The columns of the compacted row subset (same broadcast shape)."""
        taken = object.__new__(type(self))
        for name in self.__slots__:
            setattr(taken, name, getattr(self, name)[rows])
        return taken


class _StackedPolicy:
    """Per-trial policy for the kernel: structural bools + numeric column."""

    __slots__ = ("discretize", "stick_to_median", "jump_slack")

    def __init__(self, sims: Sequence[FastSimulation]) -> None:
        self.discretize = sims[0].policy.discretize
        self.stick_to_median = sims[0].policy.stick_to_median
        self.jump_slack = np.array(
            [sim.policy.jump_slack for sim in sims]
        )[:, None]

    def take(self, rows: np.ndarray) -> "_StackedPolicy":
        """The policy restricted to the compacted row subset."""
        taken = object.__new__(type(self))
        taken.discretize = self.discretize
        taken.stick_to_median = self.stick_to_median
        taken.jump_slack = self.jump_slack[rows]
        return taken


class _TrialSweep:
    """One trial's gather/eligibility structures and input blocks.

    Built per run (the fault plan may change between runs) and per
    campaign epoch state.  Delay blocks are cached on the *delay model*
    (keyed by edge structure, depth, backend, and -- unless the model is
    pulse-invariant -- the pulse), so they survive simulation
    reconstruction and are gathered edge by edge once per model.  Edge
    tuples are built from plain ``int`` vertices so delay models keyed or
    seeded by edge identity see exactly the scalar path's edges.
    """

    def __init__(self, sim: FastSimulation, backend: str) -> None:
        self.sim = sim
        graph = sim.graph
        base = graph.base
        width = base.num_nodes
        self.width = width
        self.num_layers = graph.num_layers
        self.backend = backend
        self.nb_lists = [tuple(base.neighbors(v)) for v in base.nodes()]
        # Identifies the edge set the delay gathers cover: two graphs with
        # equal width and adjacency query exactly the same edge tuples, so
        # they may share a delay model's block cache.
        self.edge_signature = (width, tuple(self.nb_lists))
        self.max_deg = base.max_degree() if width else 0
        if backend == "csr":
            # CSR mode never materializes the O(W * max_deg) padded
            # tensors -- that allocation is exactly what it exists to
            # avoid on hub-skewed graphs.
            indptr, indices, _ = base.neighbor_csr()
            self.indptr = indptr
            self.indices = indices
            degrees = np.diff(indptr)
            self.owner = np.repeat(np.arange(width, dtype=np.int64), degrees)
            self.nb_idx = None
            self.nb_valid = None
            self.has_neighbors = degrees > 0
        else:
            # Padded gather indices come from the graph's own cache
            # (adjacency is immutable), shared across trials and runs.
            self.nb_idx, self.nb_valid = base.neighbor_index_arrays()
            self.has_neighbors = self.nb_valid.any(axis=1)
        faulty = sim.fault_plan.faulty_mask(graph)
        self.faulty = faulty
        # has_faulty_pred[l - 1] flags nodes of layer ``l`` with a faulty
        # own-copy or neighbor-copy predecessor on layer ``l - 1``.
        prev = faulty[:-1]
        if not faulty.any():
            nb_faulty = np.zeros_like(prev)
        elif backend == "csr":
            nnz = self.indices.shape[0]
            if nnz == 0:
                nb_faulty = np.zeros_like(prev)
            else:
                vals = prev[:, self.indices].astype(np.uint8)
                starts = np.minimum(self.indptr[:-1], nnz - 1)
                seg = np.maximum.reduceat(vals, starts, axis=-1)
                seg[:, ~self.has_neighbors] = 0
                nb_faulty = seg.astype(bool)
        else:
            nb_faulty = (
                prev[:, self.nb_idx] & self.nb_valid[None, :, :]
            ).any(axis=2)
        self.static_eligible = self.has_neighbors[None, :] & ~(prev | nb_faulty)

    def delay_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Own ``(L, W)`` and neighbor-copy delays of every layer, pulse ``k``.

        Neighbor delays are ``(L, W, max(max_deg, 1))`` padded in dense
        mode and ``(L, nnz)`` in CSR segment order in ``csr`` mode; row
        ``l`` holds the delays of the edges *into* layer ``l`` (row 0 is
        unused).  Cached on the delay model; models not subclassing
        :class:`~repro.delays.models.DelayModel` are gathered uncached.
        """
        model = self.sim.delay_model
        key: Tuple = ("block", self.num_layers, self.backend)
        if not getattr(model, "pulse_invariant", False):
            key += (k,)
        model_cache = getattr(model, "_edge_array_cache", None)
        cache = (
            None
            if model_cache is None
            else model_cache.setdefault(self.edge_signature, {})
        )
        cached = None if cache is None else cache.get(key)
        if cached is None:
            cached = self._gather_delays(model, k)
            if cache is not None:
                cache[key] = cached
        return cached

    def _gather_delays(self, model, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The per-edge Python gather behind :meth:`delay_block`."""
        csr = self.backend == "csr"
        num_layers, width = self.num_layers, self.width
        own = np.zeros((num_layers, width))
        if csr:
            nb = np.zeros((num_layers, self.indices.shape[0]))
        else:
            nb = np.zeros((num_layers, width, max(self.max_deg, 1)))
        if type(model) is UniformDelayModel:
            # A uniform model returns the same constant for every edge;
            # the bulk fill is bitwise-identical to the per-edge queries
            # and makes million-edge layers gather in O(1) Python calls.
            own[1:] = model.value
            if csr:
                nb[1:] = model.value
            else:
                nb[1:, self.nb_valid] = model.value
            return own, nb
        delay = model.delay
        for layer in range(1, num_layers):
            pos = 0
            for v, nbs in enumerate(self.nb_lists):
                own[layer, v] = delay(((v, layer - 1), (v, layer)), k)
                for j, w in enumerate(nbs):
                    value = delay(((w, layer - 1), (v, layer)), k)
                    if csr:
                        nb[layer, pos] = value
                        pos += 1
                    else:
                        nb[layer, v, j] = value
        return own, nb

    def rate_block(self, k: int) -> np.ndarray:
        """Hardware clock rates of every node during pulse ``k``: ``(L, W)``.

        Rebuilt every run, so in-place edits of a rates dict between runs
        are honored.  Row 0 (layer 0 never runs the kernel) is 1.
        """
        rates = self.sim._rates
        num_layers, width = self.num_layers, self.width
        block = np.ones((num_layers, width))
        if rates is None or num_layers < 2:
            return block
        if callable(rates):
            values = [
                rates((v, layer), k)
                for layer in range(1, num_layers)
                for v in range(width)
            ]
        else:
            get = rates.get
            values = [
                get((v, layer), 1.0)
                for layer in range(1, num_layers)
                for v in range(width)
            ]
        block[1:] = np.array(values, dtype=float).reshape(num_layers - 1, width)
        return block


class TrialStack:
    """Advance ``S`` compatible simulations through the recurrence together.

    Parameters
    ----------
    sims:
        The per-trial :class:`FastSimulation` objects.  They must satisfy
        :func:`stack_compatibility` (same algorithm, vectorized, same
        structural policy switches); a :class:`ValueError` names the first
        violation otherwise.  Geometries may differ -- narrower/shallower
        trials are padded with inert cells, and compaction drops finished
        rows and unused lanes (see the module docstring).
    neighbor_backend:
        ``"auto"`` (default), ``"dense"``, or ``"csr"``: the neighbor
        representation of the stacked kernel.  ``"auto"`` picks CSR for
        uniform stacks over large sparse/skewed base graphs (see
        :func:`repro.core.fast._prefer_csr`) and the dense padded
        tensors otherwise; mixed-adjacency and campaign stacks always run
        dense (``compaction_stats["backend_fallback"]`` says why).
    kernel_backend:
        ``"auto"`` (default), ``"numpy"``, or ``"numba"``: the array-op
        implementation behind the stacked layer-step kernels (see
        :mod:`repro.core.backend`).  ``"auto"`` picks numba when the
        optional extra is installed and NumPy otherwise; backends are
        bitwise identical, so the knob is purely a speed choice.  The
        resolved name lands in ``compaction_stats["kernel_backend"]``.

    Notes
    -----
    :meth:`run` returns ordinary per-trial :class:`FastResult` objects
    whose matrices are views into one shared ``(S, K, L_max, W_max)``
    block (each trial seeing its own ``(K, L_s, W_s)`` window), so
    downstream code (skew reducers, ``fault_sends`` drill-in, the scalar
    fallback itself) sees exactly the per-trial layout while the kernel
    reads and writes whole ``(S, W_max)`` planes without gathering.  The
    block is attached to each result (``stack_block``/``stack_row``) and
    frozen once the run completes: stacked results are immutable
    snapshots, so no caller can corrupt the memory every trial of the
    stack shares (``BatchResult`` adopts the block without copying).

    After :meth:`run`, :attr:`compaction_stats` holds the padded vs
    executed row- and lane-step accounting of the last run.

    Example
    -------
    >>> from repro.core.fast import FastSimulation
    >>> from repro.core.fast_batch import TrialStack
    >>> from repro.params import Parameters
    >>> from repro.topology.base_graph import cycle_graph
    >>> from repro.topology.layered import LayeredGraph
    >>> params = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)
    >>> sims = [
    ...     FastSimulation(LayeredGraph(cycle_graph(4 + i), 3), params)
    ...     for i in range(2)
    ... ]
    >>> results = TrialStack(sims).run(num_pulses=2)
    >>> [r.times.shape for r in results]
    [(2, 3, 4), (2, 3, 5)]
    """

    def __init__(
        self,
        sims: Sequence[FastSimulation],
        neighbor_backend: str = "auto",
        kernel_backend: str = "auto",
    ) -> None:
        reason = stack_compatibility(sims)
        if reason is not None:
            raise ValueError(f"trials cannot be stacked: {reason}")
        if neighbor_backend not in NEIGHBOR_BACKENDS:
            raise ValueError(
                f"neighbor_backend must be one of {NEIGHBOR_BACKENDS}, "
                f"got {neighbor_backend!r}"
            )
        self.sims: List[FastSimulation] = list(sims)
        self.neighbor_backend = neighbor_backend
        # Eager resolution, mirroring FastSimulation: validates the name
        # and raises the install hint for an explicit "numba" without
        # the package before any trial starts.
        self.kernel_backend = kernel_backend
        self._kernel_ops = resolve_kernel_ops(kernel_backend)
        #: Row/lane-step accounting of the last :meth:`run`; see the
        #: module docstring.  ``None`` until the first run completes.
        self.compaction_stats: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        num_pulses: int,
        reducers: Optional[list] = None,
        store_times: bool = True,
    ) -> List[FastResult]:
        """Simulate ``num_pulses`` pulses for every trial; per-trial results.

        ``reducers`` (a list of
        :class:`~repro.analysis.streaming.StreamingReducer`) folds
        statistics online as the kernel writes each ``(S, W)`` plane.
        With ``store_times=False`` the shared matrices shrink to a
        rolling *one-pulse* window -- memory O(S, L, W) instead of
        O(S, K, L, W), and the layer-0 schedule is gathered one
        ``(S, W)`` row per pulse instead of the whole ``(S, K, W)``
        block -- and the returned results carry only the streamed
        accumulators (``result.streamed`` / ``streamed_row``; the
        matrices are ``None``).  Streamed statistics are bitwise
        identical to the materialized reducers (see
        :mod:`repro.analysis.streaming`).  Materialized results are
        frozen windows of the shared block (see the class notes).
        """
        results = self._run(num_pulses, reducers, store_times)
        if not store_times:
            return results
        # Freeze the shared block and hand it to every result: a write
        # through any window would silently corrupt its siblings and any
        # adopting BatchResult, and the attached block is what lets a
        # single-stack BatchResult skip re-materializing
        # (S, K, L_max, W_max) copies.
        times, protocol_times, corrections, effective, branches, faulty = (
            self._block
        )
        block = _StackBlock(times, corrections, effective, faulty)
        for array in self._block:
            array.flags.writeable = False
        for s, result in enumerate(results):
            for attr in ("times", "protocol_times", "corrections",
                         "effective_corrections", "branches"):
                getattr(result, attr).flags.writeable = False
            result.stack_block = block
            result.stack_row = s
        return results

    def _run(
        self,
        num_pulses: int,
        reducers: Optional[list],
        store_times: bool,
    ) -> List[FastResult]:
        """:meth:`run` without the freeze: results own writable windows.

        :meth:`FastSimulation.run` takes this entry for its stack of one,
        so a single simulation's result matrices stay writable as they
        always were.
        """
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        sims = self.sims
        num_trials = len(sims)
        widths = [sim.graph.width for sim in sims]
        depths = [sim.graph.num_layers for sim in sims]
        width = max(widths)
        num_layers = max(depths)
        self._width = width
        self._depths = depths
        # Chaos campaigns compile to per-epoch adjacency + fault state up
        # front; trials under a campaign swap their rows of the stacked
        # tensors at epoch boundaries (see _enter_stack_epochs), which
        # needs the per-trial 3-D gather tables of the padded path.
        schedules = [
            None
            if sim.campaign is None
            else sim.campaign.compile(num_pulses, base_plan=sim.fault_plan)
            for sim in sims
        ]
        has_campaign = any(s is not None for s in schedules)
        adjacency0 = sims[0].graph.base.adjacency
        uniform = not has_campaign and all(
            depth == num_layers and sim.graph.base.adjacency == adjacency0
            for depth, sim in zip(depths, sims)
        )

        stream = None
        if reducers is not None or not store_times:
            from repro.analysis.streaming import (
                StreamLayout,
                StreamedStats,
                default_reducers,
            )

            if reducers is None:
                reducers = default_reducers()
            stream = StreamedStats(
                StreamLayout.from_sims(sims, num_pulses), reducers
            )

        if store_times:
            # One (S, P, W_max) layer-0 gather for the whole stack; each
            # trial's _begin_run receives its own (P, W_s) window as a view.
            layer0_block = stacked_pulse_times(
                [sim.layer0 for sim in sims],
                [sim.graph.base for sim in sims],
                num_pulses,
            )
            results = [
                sim._begin_run(
                    num_pulses,
                    layer0_times=layer0_block[s, :, : widths[s]],
                    allocate=False,
                )
                for s, sim in enumerate(sims)
            ]
            self._layer0_block = layer0_block
            self._l0_row_buffer = None
        else:
            # Streaming: no (S, P, W_max) block -- one reusable (S, W_max)
            # row refilled per pulse by stacked_pulse_row (bit-identical
            # entries; see layer0.py).
            results = [
                sim._begin_run(
                    num_pulses, allocate=False, gather_layer0=False
                )
                for sim in sims
            ]
            self._layer0_block = None
            self._l0_row_buffer = np.full((num_trials, width), np.nan)
            self._l0_schedules = [sim.layer0 for sim in sims]
            self._l0_bases = [sim.graph.base for sim in sims]
        store_pulses = num_pulses if store_times else 1
        shape = (num_trials, store_pulses, num_layers, width)

        # One shared block per matrix; each FastResult holds the trial-s
        # window view, so scalar fallbacks and analysis code read/write
        # through it.  Cells outside a trial's window stay NaN (padding
        # never turns eligible).
        times = np.full(shape, np.nan)
        protocol_times = np.full(shape, np.nan)
        corrections = np.full(shape, np.nan)
        effective = np.full(shape, np.nan)
        branches = np.full(shape, BRANCH_CODES["none"], dtype=np.int8)
        for s, result in enumerate(results):
            window = (s, slice(None), slice(depths[s]), slice(widths[s]))
            result.times = times[window]
            result.protocol_times = protocol_times[window]
            result.corrections = corrections[window]
            result.effective_corrections = effective[window]
            result.branches = branches[window]

        # Resolve the neighbor backend for the whole stack.  CSR needs one
        # shared adjacency (the segment structure is per-graph), so only
        # uniform stacks qualify; an explicit "csr" request on a padded
        # stack falls back to dense and says so in compaction_stats.
        backend_fallback: Optional[str] = None
        if uniform:
            backend = _resolve_backend(sims[0].graph.base, self.neighbor_backend)
        else:
            backend = "dense"
            if self.neighbor_backend == "csr":
                backend_fallback = (
                    "csr requires a uniform-adjacency static stack; "
                    "ran dense padded instead"
                )
        sweeps = [_TrialSweep(sim, backend) for sim in sims]

        # Padded (S, ...) fault/eligibility structure.  ``active`` marks the
        # real (non-padding) cells; None on uniform stacks (all real).
        if uniform:
            sweep0 = sweeps[0]
            nb_idx = sweep0.nb_idx
            nb_valid = sweep0.nb_valid
            if backend == "csr":
                self._csr = (
                    sweep0.indptr,
                    sweep0.indices,
                    sweep0.owner,
                    sweep0.has_neighbors,
                )
            else:
                self._csr = None
            static_eligible = np.stack([sw.static_eligible for sw in sweeps])
            faulty = np.stack([sw.faulty for sw in sweeps])
            active = None
        else:
            self._csr = None
            max_deg = max(sweep.nb_idx.shape[1] for sweep in sweeps)
            nb_idx = np.zeros((num_trials, width, max_deg), dtype=np.int64)
            nb_valid = np.zeros((num_trials, width, max_deg), dtype=bool)
            static_eligible = np.zeros(
                (num_trials, num_layers - 1, width), dtype=bool
            )
            faulty = np.zeros((num_trials, num_layers, width), dtype=bool)
            for s, sweep in enumerate(sweeps):
                w, cols = sweep.nb_idx.shape
                nb_idx[s, :w, :cols] = sweep.nb_idx
                nb_valid[s, :w, :cols] = sweep.nb_valid
                static_eligible[s, : depths[s] - 1, :w] = sweep.static_eligible
                faulty[s, : depths[s], :w] = sweep.faulty
            active = (
                (np.arange(num_layers)[None, :, None] < np.array(depths)[:, None, None])
                & (np.arange(width)[None, None, :] < np.array(widths)[:, None, None])
            )
        layer_has_fault = faulty.any(axis=(0, 2))
        self._structs = (nb_idx, nb_valid, static_eligible, faulty, active)

        # Per-trial parameter/policy columns when trials disagree; the
        # shared objects otherwise (scalar broadcasting).
        params0, policy0 = sims[0].params, sims[0].policy
        self._params = (
            params0
            if all(sim.params == params0 for sim in sims)
            else _StackedParams(sims)
        )
        self._policy = (
            policy0
            if all(sim.policy == policy0 for sim in sims)
            else _StackedPolicy(sims)
        )

        # Delay and rate planes, (re)filled per trial at pulse 0, at each
        # pulse for pulse-varying delay models / callable rate providers,
        # and at campaign epoch boundaries (delays only: rates are keyed
        # by node id and the vertex set never changes).
        self._own_delay = np.full((num_trials, num_layers, width), np.nan)
        if self._csr is not None:
            self._nb_delay = np.zeros(
                (num_trials, num_layers, self._csr[1].shape[0])
            )
        else:
            self._nb_delay = np.zeros(
                (num_trials, num_layers, width, nb_idx.shape[-1])
            )
        self._rate = np.ones((num_trials, num_layers, width))
        delays_vary = [
            not getattr(sim.delay_model, "pulse_invariant", False)
            for sim in sims
        ]
        rates_vary = [callable(sim._rates) for sim in sims]

        # Stacked layer-0 plane writes (see _run_layer0_stacked);
        # self._layer0_block / self._l0_row_buffer were set above.
        self._l0_faulty = faulty[:, 0, :]
        self._l0_fault_trials = [
            s for s in range(num_trials) if bool(self._l0_faulty[s].any())
        ]
        width_mask = np.arange(width)[None, :] < np.array(widths)[:, None]
        self._l0_branch_row = np.where(
            width_mask, BRANCH_CODES["layer0"], BRANCH_CODES["none"]
        ).astype(np.int8)

        # Width compaction bookkeeping: lane_needed[s, v] is True while
        # trial s can still use lane v.  Statically that is the trial's
        # width mask; campaign epoch entries clear lanes whose vertex is
        # absent for the whole remaining horizon (see _enter_stack_epochs).
        # Uniform stacks have no width padding, so the lane pass is
        # skipped there outright.
        self._widths = widths
        self._lane_needed = None if uniform else width_mask

        # Depth compaction bookkeeping (see the module docstring): at
        # layer ``l`` only trials with ``depth > l`` that have not gone
        # dead this iteration keep a row in the working plane.  The
        # depth-driven row sets are static, so they are computed once;
        # ``dead`` can only ever trigger with faults -- a fault-free
        # trial's layers always pulse -- so the all-NaN probe is skipped
        # entirely on fault-free stacks.
        depths_arr = np.array(depths)
        depth_masks = [depths_arr > layer for layer in range(num_layers)]
        depth_rows = [
            None if mask.all() else np.flatnonzero(mask)
            for mask in depth_masks
        ]
        any_fault = bool(faulty.any())
        dead = np.zeros(num_trials, dtype=bool)
        self._row_cache: Dict[object, Dict[str, object]] = {}
        self._lane_cache: Dict[bytes, Optional[np.ndarray]] = {}
        self._input_cache: Dict[Tuple, Tuple] = {}
        padded_row_steps = num_pulses * max(num_layers - 1, 0) * num_trials
        active_row_steps = 0
        # Lane-step (cell) accounting: padded cost is every row step times
        # the full padded width; the active count sums rows x lanes over
        # the steps actually executed.
        padded_lane_steps = padded_row_steps * width
        active_lane_steps = 0

        # Campaign bookkeeping: per-trial epoch cursor and per-trial sweep
        # cache keyed by epoch state (a topology that returns to an earlier
        # state reuses its gather tensors).  Seed graph/plan are restored
        # after the run even on error.
        epoch_cursor = [-1] * num_trials
        sweep_caches: List[Dict[Tuple, _TrialSweep]] = [{} for _ in sims]
        seed_states = [
            (sim.graph, sim.fault_plan, sim._layer0_has_fault) for sim in sims
        ]

        try:
            for k in range(num_pulses):
                changed: Set[int] = set()
                if has_campaign:
                    changed = self._enter_stack_epochs(
                        k, schedules, epoch_cursor, sweep_caches, sweeps
                    )
                if changed:
                    # Rows of the stacked tensors changed in place: refresh
                    # every structure derived from them.
                    layer_has_fault = faulty.any(axis=(0, 2))
                    any_fault = bool(faulty.any())
                    self._row_cache = {}
                    self._lane_cache = {}
                    self._l0_fault_trials = [
                        s
                        for s in range(num_trials)
                        if bool(self._l0_faulty[s].any())
                    ]
                refill = False
                for s, sweep in enumerate(sweeps):
                    if k == 0 or delays_vary[s] or s in changed:
                        self._fill_delays(s, sweep.delay_block(k))
                        refill = True
                    if k == 0 or rates_vary[s]:
                        self._rate[s, : depths[s], : widths[s]] = (
                            sweep.rate_block(k)
                        )
                        refill = True
                if refill:
                    self._input_cache = {}
                rk = k if store_times else 0
                if not store_times and k > 0:
                    # Recycle the rolling one-pulse window for this iteration.
                    times[:, 0] = np.nan
                    protocol_times[:, 0] = np.nan
                    corrections[:, 0] = np.nan
                    effective[:, 0] = np.nan
                    branches[:, 0] = BRANCH_CODES["none"]
                self._run_layer0_stacked(
                    results, times, protocol_times, branches, k, rk
                )
                if stream is not None:
                    stream.update(
                        k, 0, times[:, rk, 0, :], corrections[:, rk, 0, :]
                    )
                if any_fault:
                    dead[:] = False
                for layer in range(1, num_layers):
                    rows = depth_rows[layer]
                    if any_fault:
                        # A trial goes dead for the rest of this iteration
                        # when *no* node of its previous layer produced a
                        # pulse (protocol row all-NaN): correct nodes sent
                        # nothing and faulty nodes recorded no sends, so no
                        # message can reach this or any deeper layer.
                        live = depth_masks[layer] & ~dead
                        candidates = np.flatnonzero(live)
                        if candidates.size:
                            silent = np.isnan(
                                protocol_times[candidates, rk, layer - 1, :]
                            ).all(axis=1)
                            if silent.any():
                                dead[candidates[silent]] = True
                                live &= ~dead
                        if not live.all():
                            rows = np.flatnonzero(live)
                    lanes = None
                    if self._lane_needed is not None and (
                        rows is None or rows.size
                    ):
                        lanes = self._active_lanes(rows)
                        if lanes is not None and rows is None:
                            rows = np.arange(num_trials, dtype=np.int64)
                    skipped = (rows is not None and not rows.size) or (
                        lanes is not None and not lanes.size
                    )
                    if not skipped:
                        row_count = num_trials if rows is None else rows.size
                        active_row_steps += row_count
                        active_lane_steps += row_count * (
                            width if lanes is None else lanes.size
                        )
                        self._run_layer_stacked(
                            results,
                            times,
                            protocol_times,
                            corrections,
                            effective,
                            branches,
                            bool(layer_has_fault[layer]),
                            k,
                            layer,
                            rows,
                            rk,
                            lanes,
                        )
                    if stream is not None:
                        # Skipped steps still update with an empty rows hint so
                        # the inter-layer reducer retires its buffer plane.
                        stream.update(
                            k,
                            layer,
                            times[:, rk, layer, :],
                            corrections[:, rk, layer, :],
                            _NO_ROWS if skipped else rows,
                        )
        finally:
            if has_campaign:
                for sim, state in zip(sims, seed_states):
                    sim.graph, sim.fault_plan, sim._layer0_has_fault = state

        for s, schedule in enumerate(schedules):
            if schedule is not None:
                results[s].campaign = sims[s].campaign
                results[s].churn_stats = schedule.summary()

        self.compaction_stats = {
            "trials": num_trials,
            "num_layers": num_layers,
            "min_depth": int(min(depths)),
            "max_depth": int(max(depths)),
            "padded_row_steps": padded_row_steps,
            "active_row_steps": int(active_row_steps),
            "dropped_fraction": (
                1.0 - active_row_steps / padded_row_steps
                if padded_row_steps
                else 0.0
            ),
            # Which axes this run compacted along: depth always, width on
            # padded stacks (uniform stacks have no width padding).
            "axes": ["depth"] if uniform else ["depth", "width"],
            "min_width": int(min(widths)),
            "max_width": int(max(widths)),
            "padded_lane_steps": padded_lane_steps,
            "active_lane_steps": int(active_lane_steps),
            "lane_dropped_fraction": (
                1.0 - active_lane_steps / padded_lane_steps
                if padded_lane_steps
                else 0.0
            ),
            "neighbor_backend": backend,
            "backend_fallback": backend_fallback,
            "kernel_backend": self._kernel_ops.name,
            # Batched-fallback accounting: total kernel-rejected cells
            # resolved by the masked replay, and in how many batched
            # passes.  Zero on fault-free stacks.
            "fallback_cells": sum(r.fallback_cells for r in results),
            "fallback_batches": sum(r.fallback_batches for r in results),
        }
        # The per-run planes and caches are dead weight between runs.
        self._own_delay = self._nb_delay = self._rate = None
        self._structs = None
        self._row_cache, self._lane_cache, self._input_cache = {}, {}, {}

        if stream is not None:
            stream.finalize()
            for s, result in enumerate(results):
                result.streamed = stream
                result.streamed_row = s
        if not store_times:
            # The rolling window holds only the last pulse -- meaningless
            # as a result matrix.  Drop every matrix reference so the
            # memory goes with it; the statistics live in ``streamed``.
            for result in results:
                result.times = None
                result.protocol_times = None
                result.corrections = None
                result.effective_corrections = None
                result.branches = None
            self._l0_row_buffer = None
            self._block = None
            return results
        self._block = (
            times, protocol_times, corrections, effective, branches, faulty
        )
        return results

    def _fill_delays(
        self, s: int, block: Tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Write trial ``s``'s delay block into the stacked planes."""
        own, nb = block
        depth, width = own.shape
        self._own_delay[s, :depth, :width] = own
        if self._csr is not None:
            self._nb_delay[s] = nb
        else:
            # An epoch graph's max degree can shrink: clear stale lanes.
            self._nb_delay[s] = 0.0
            self._nb_delay[s, :depth, :width, : nb.shape[-1]] = nb

    def _active_lanes(self, rows: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Lanes some active row still needs; None when that is every lane.

        Cached per row set (lane needs change only at campaign epoch
        boundaries, which clear the cache).
        """
        key = b"" if rows is None else rows.tobytes()
        if key in self._lane_cache:
            return self._lane_cache[key]
        need = self._lane_needed if rows is None else self._lane_needed[rows]
        used = need.any(axis=0)
        lanes = None if used.all() else np.flatnonzero(used)
        self._lane_cache[key] = lanes
        return lanes

    def _enter_stack_epochs(
        self,
        k: int,
        schedules: Sequence[Optional[object]],
        epoch_cursor: List[int],
        sweep_caches: List[Dict[Tuple, _TrialSweep]],
        sweeps: List[_TrialSweep],
    ) -> Set[int]:
        """Advance campaign trials into pulse ``k``'s epoch; the moved trials.

        For each trial whose compiled schedule crosses an epoch boundary at
        ``k``, swaps the simulation's graph/plan
        (:meth:`FastSimulation._enter_epoch`), replaces its sweep (cached
        per epoch state, so revisited topologies rebuild nothing), and
        rewrites the trial's *rows* of the stacked gather/eligibility/fault
        tensors in place -- zeroing stale lanes first, since an epoch
        graph's max degree can shrink.  Unchanged trials (and unchanged
        pulses) cost one integer comparison each, which is what makes
        quiet epochs free.  The caller refreshes the derived aggregates
        (``layer_has_fault``, the delay rows, the row caches) for the
        returned trials.
        """
        nb_idx, nb_valid, static_eligible, faulty, _ = self._structs
        changed: Set[int] = set()
        for s, schedule in enumerate(schedules):
            if schedule is None:
                continue
            index = schedule.epoch_index(k)
            if index == epoch_cursor[s]:
                continue
            epoch_cursor[s] = index
            epoch = schedule.epochs[index]
            sim = self.sims[s]
            sim._enter_epoch(epoch)
            sweep = sweep_caches[s].get(epoch.state_key)
            if sweep is None:
                # Campaign stacks are padded (never uniform), so epoch
                # sweeps must carry the dense gather tables the stacked
                # 3-D tensors are rebuilt from.
                sweep = _TrialSweep(sim, "dense")
                sweep_caches[s][epoch.state_key] = sweep
            sweeps[s] = sweep
            # A vertex absent from this epoch through the end of the
            # horizon can never act again: free its lane.  Absence only
            # accumulates toward the horizon tail, so freed lanes stay
            # freed at later boundaries.
            lane_row = np.arange(self._lane_needed.shape[1]) < self._widths[s]
            gone = frozenset.intersection(
                *(ep.absent for ep in schedule.epochs[index:])
            )
            if gone:
                lane_row[np.fromiter(gone, dtype=np.int64)] = False
            self._lane_needed[s] = lane_row
            w, cols = sweep.nb_idx.shape
            depth = self._depths[s]
            nb_idx[s] = 0
            nb_valid[s] = False
            nb_idx[s, :w, :cols] = sweep.nb_idx
            nb_valid[s, :w, :cols] = sweep.nb_valid
            static_eligible[s] = False
            static_eligible[s, : depth - 1, :w] = sweep.static_eligible
            faulty[s] = False
            faulty[s, :depth, :w] = sweep.faulty
            changed.add(s)
        return changed

    def _run_layer0_stacked(
        self,
        results: List[FastResult],
        times: np.ndarray,
        protocol_times: np.ndarray,
        branches: np.ndarray,
        k: int,
        rk: int,
    ) -> None:
        """Write layer 0's pulse-``k`` plane for every trial at once.

        Mirrors :meth:`FastSimulation._run_layer0` with a leading trial
        axis over the stacked ``(S, P, W_max)`` schedule block -- or, on
        streamed runs, over one reusable ``(S, W_max)`` row refilled per
        pulse by :func:`~repro.core.layer0.stacked_pulse_row`
        (bit-identical entries).  ``rk`` is the block's storage row for
        pulse ``k`` (``k`` itself, or 0 on the rolling window).  Only
        trials with layer-0 faults drop to a per-vertex loop (their
        ``fault_sends`` bookkeeping is inherently per-edge).
        """
        if self._layer0_block is not None:
            row = self._layer0_block[:, k, :]  # (S, W), NaN on padding
        else:
            row = stacked_pulse_row(
                self._l0_schedules,
                self._l0_bases,
                k,
                out=self._l0_row_buffer,
            )
        protocol_times[:, rk, 0, :] = row
        branches[:, rk, 0, :] = self._l0_branch_row
        if self._l0_fault_trials:
            times[:, rk, 0, :] = np.where(self._l0_faulty, np.nan, row)
        else:
            times[:, rk, 0, :] = row
        for s in self._l0_fault_trials:
            for v in np.nonzero(self._l0_faulty[s])[0]:
                self.sims[s]._record_fault_sends(
                    results[s], (int(v), 0), k, float(row[s, v])
                )

    def _row_structs(
        self, rows: Optional[np.ndarray], lanes: Optional[np.ndarray]
    ) -> Dict[str, object]:
        """Kernel gather/eligibility inputs of one row/lane set (cached).

        ``rows=None`` is the whole stack.  Depth-driven active sets are
        nested (they only shrink as the layer index grows), so at most
        one entry per distinct depth is ever built; dead-trial sets add
        at most a handful more, and lane sets one entry per distinct
        (row set, lane set) pair.  Shared 2-D gather tables (uniform
        stacks) are row-independent and pass through untouched; CSR
        stacks carry no padded tables at all (``nb_idx``/``nb_valid``
        are None and the kernel reads the stack's shared CSR arrays).
        With ``lanes``, the padded tables are additionally re-indexed
        into the compact column space: ``lane_pos`` maps original vertex
        ids to compacted columns, and entries pointing at dropped lanes
        (only ever behind an invalid mask -- no valid entry of an active
        trial references a dropped lane) collapse to column 0 harmlessly.
        """
        key = (
            None
            if rows is None
            else (rows.tobytes(), None if lanes is None else lanes.tobytes())
        )
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        nb_idx, nb_valid, static_eligible, faulty, active = self._structs
        params, policy = self._params, self._policy
        if rows is not None:
            if nb_idx is not None and nb_idx.ndim == 3:
                nb_idx = nb_idx[rows]
                nb_valid = nb_valid[rows]
            static_eligible = static_eligible[rows]
            faulty = faulty[rows]
            active = None if active is None else active[rows]
            if isinstance(params, _StackedParams):
                params = params.take(rows)
            if isinstance(policy, _StackedPolicy):
                policy = policy.take(rows)
        if lanes is not None:
            lane_pos = np.zeros(self._width, dtype=np.int64)
            lane_pos[lanes] = np.arange(lanes.size, dtype=np.int64)
            nb_idx = lane_pos[nb_idx[:, lanes, :]]
            nb_valid = nb_valid[:, lanes, :]
            static_eligible = static_eligible[:, :, lanes]
            faulty = faulty[:, :, lanes]
            active = active[:, :, lanes]
        cached = {
            "nb_idx": nb_idx,
            "nb_valid": nb_valid,
            "static_eligible": static_eligible,
            "faulty": faulty,
            "active": active,
            "params": params,
            "policy": policy,
        }
        self._row_cache[key] = cached
        return cached

    def _step_inputs(
        self,
        layer: int,
        rows: Optional[np.ndarray],
        lanes: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Own delays, neighbor delays, and rates of one layer step.

        Whole-stack steps read views of the stacked planes; compacted
        steps gather the active rows (and lanes), cached until the planes
        are next refilled.
        """
        if rows is None:
            return (
                self._own_delay[:, layer],
                self._nb_delay[:, layer],
                self._rate[:, layer],
            )
        key = (layer, rows.tobytes(), None if lanes is None else lanes.tobytes())
        cached = self._input_cache.get(key)
        if cached is None:
            own = self._own_delay[rows, layer]
            nb = self._nb_delay[rows, layer]
            rate = self._rate[rows, layer]
            if lanes is not None:
                own = own[:, lanes]
                nb = nb[:, lanes]
                rate = rate[:, lanes]
            cached = (own, nb, rate)
            self._input_cache[key] = cached
        return cached

    def _run_layer_stacked(
        self,
        results: List[FastResult],
        times: np.ndarray,
        protocol_times: np.ndarray,
        corrections: np.ndarray,
        effective: np.ndarray,
        branches_out: np.ndarray,
        layer_faulty: bool,
        k: int,
        layer: int,
        rows: Optional[np.ndarray],
        rk: int,
        lanes: Optional[np.ndarray],
    ) -> None:
        """Advance pulse ``k`` of ``layer`` for the active plane at once.

        Evaluates the shape-generic
        :func:`~repro.core.fast._layer_step_kernel` (or its CSR twin on
        ``csr``-backend stacks) on the ``(S, W)`` plane -- or, with
        ``rows`` (and ``lanes``), on the compacted ``(S_active, C)``
        plane -- and scatters the eligible cells back; see the module
        docstring for the exactness argument.  Padding (``active`` is
        None on uniform stacks) is never eligible, never written, and
        never replayed by the scalar fallback.  ``rk`` is the storage row
        of pulse ``k`` in the shared block (``k`` itself on materialized
        runs, 0 on the rolling window).
        """
        sims = self.sims
        structs = self._row_structs(rows, lanes)
        if rows is None:
            ri, ci = slice(None), slice(None)
        elif lanes is None:
            ri, ci = rows, slice(None)
        else:
            ri, ci = rows[:, None], lanes[None, :]
        prev = times[ri, rk, layer - 1, ci]  # send times, NaN = missing
        own_delay, nb_delay, rate = self._step_inputs(layer, rows, lanes)
        simplified = sims[0].algorithm == "simplified"
        if self._csr is not None:
            indptr, indices, owner, has_neighbors = self._csr
            eligible, correction, branches, pulse_time, eff = (
                _layer_step_kernel_csr(
                    prev,
                    own_delay,
                    nb_delay,
                    rate,
                    indptr,
                    indices,
                    owner,
                    has_neighbors,
                    structs["static_eligible"][:, layer - 1, :],
                    structs["params"],
                    structs["policy"],
                    simplified,
                    ops=self._kernel_ops,
                )
            )
        else:
            eligible, correction, branches, pulse_time, eff = (
                _layer_step_kernel(
                    prev,
                    own_delay,
                    nb_delay,
                    rate,
                    structs["nb_idx"],
                    structs["nb_valid"],
                    structs["static_eligible"][:, layer - 1, :],
                    structs["params"],
                    structs["policy"],
                    simplified,
                    ops=self._kernel_ops,
                )
            )

        active = structs["active"]
        fallback = (
            ~eligible if active is None else active[:, layer, :] & ~eligible
        )
        any_fallback = fallback.any()
        if active is None and not layer_faulty and not any_fallback:
            # Common case (uniform stack, no fault on this layer, every
            # cell on the fast path): plain assignments, no masking.
            corrections[ri, rk, layer, ci] = correction
            branches_out[ri, rk, layer, ci] = branches
            effective[ri, rk, layer, ci] = eff
            protocol_times[ri, rk, layer, ci] = pulse_time
            times[ri, rk, layer, ci] = pulse_time
            return
        # Ineligible cells get their initial padding values (NaN/"none");
        # the batched fallback below overwrites the real ones.
        corrections[ri, rk, layer, ci] = np.where(eligible, correction, np.nan)
        branches_out[ri, rk, layer, ci] = np.where(
            eligible, branches, BRANCH_CODES["none"]
        )
        effective[ri, rk, layer, ci] = np.where(eligible, eff, np.nan)
        protocol_times[ri, rk, layer, ci] = np.where(
            eligible, pulse_time, np.nan
        )
        if not layer_faulty:
            times[ri, rk, layer, ci] = np.where(eligible, pulse_time, np.nan)
        else:
            faulty_here = structs["faulty"][:, layer, :]
            times[ri, rk, layer, ci] = np.where(
                eligible & ~faulty_here, pulse_time, np.nan
            )
            for si, vi in zip(*np.nonzero(eligible & faulty_here)):
                s = int(si) if rows is None else int(rows[si])
                v = int(vi) if lanes is None else int(lanes[vi])
                sims[s]._record_fault_sends(
                    results[s], (v, layer), k, float(pulse_time[si, vi])
                )
        if any_fallback:
            # One batched resolver call per trial row with rejected
            # cells (vertex ids mapped back through the lane set).
            for si in np.nonzero(fallback.any(axis=1))[0]:
                s = int(si) if rows is None else int(rows[si])
                vi = np.nonzero(fallback[si])[0]
                sims[s]._run_fallback_batch(
                    results[s], k, layer,
                    vi if lanes is None else lanes[vi], rk,
                )
