"""Streaming reducers: memory contract, shard merging, pickling.

The bitwise agreement of streamed statistics with the materialized array
reducers across every execution path lives in ``test_differential.py``;
this module pins everything else the streaming pipeline promises:

* ``store_times=False`` never allocates the ``(S, K, L, W)`` pulse-time
  block (asserted with :mod:`tracemalloc`, not by inspection),
* streamed accumulators survive process-executor pickling, shard merges
  reproduce the serial run bitwise, and one stack group's results share
  one :class:`StreamedStats` even after a pickle round-trip, and
* the failure modes raise instead of silently serving garbage (mixed
  streamed/materialized batches, missing reducers, block-less results
  without accumulators).
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.analysis.skew import local_skew_layers
from repro.analysis.streaming import StreamedStats
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.faults.injection import FaultPlan

NUM_PULSES = 4


def _trials(n=6, seed0=0, faults=True):
    """A mixed-geometry, mixed-fault trial list (exercises every path)."""
    trials = []
    for s in range(n):
        diameter = [6, 8, 10][s % 3]
        config = standard_config(diameter, seed=seed0 + s)
        plan = (
            FaultPlan.random(config.graph, 0.08, rng_or_seed=seed0 + s)
            if faults and s % 2
            else None
        )
        trials.append(BatchTrial(config=config, fault_plan=plan))
    return trials


def _simulation(diameter=6, seed=0):
    config = standard_config(diameter, seed=seed)
    return FastSimulation(
        config.graph,
        config.params,
        delay_model=config.delay_model,
        clock_rates=config.clock_rates,
    )


# ----------------------------------------------------------------------
# Memory contract
# ----------------------------------------------------------------------
class TestMemoryContract:
    def test_streaming_never_allocates_the_block(self):
        """Peak streamed allocation stays under ONE (S, K, L, W) matrix.

        The materialized run keeps five such matrices; if the streaming
        path ever materialized even one, its traced peak would exceed
        the single-block budget this asserts against.
        """
        num_pulses = 48
        trials = [
            BatchTrial(config=standard_config(8, seed=s)) for s in range(24)
        ]
        graph = trials[0].config.graph
        block_bytes = (
            len(trials) * num_pulses * graph.num_layers * graph.width * 8
        )
        # Warm the per-edge delay/rate caches (they live on the configs'
        # delay models and scale with S*L*W, independent of the pulse
        # count) so the traced peaks below isolate the result matrices.
        BatchRunner(num_pulses=2, store_times=False).run(trials)

        tracemalloc.start()
        tracemalloc.reset_peak()
        streamed = BatchRunner(
            num_pulses=num_pulses, store_times=False
        ).run(trials)
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert streamed.streaming
        assert stream_peak < block_bytes, (
            f"streaming peak {stream_peak} exceeds one pulse-time block "
            f"({block_bytes} bytes) -- the (S, K, L, W) block leaked back"
        )

        tracemalloc.start()
        tracemalloc.reset_peak()
        materialized = BatchRunner(num_pulses=num_pulses).run(trials)
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Sanity: the materialized run really pays for the block(s), so
        # the streamed bound above is a real constraint, not a tautology.
        assert full_peak > 2 * block_bytes
        np.testing.assert_array_equal(
            streamed.max_local_skews(), materialized.max_local_skews()
        )

    def test_streamed_results_hold_no_matrices(self):
        batch = BatchRunner(num_pulses=3, store_times=False).run(_trials())
        assert batch.times is None
        assert batch.corrections is None
        assert batch.effective_corrections is None
        for result in batch.results:
            assert result.times is None
            assert result.protocol_times is None
            assert result.corrections is None
            assert result.effective_corrections is None
            assert result.branches is None
            assert result.streamed is not None


# ----------------------------------------------------------------------
# Process shards and pickling
# ----------------------------------------------------------------------
class TestShardsAndPickling:
    def test_process_shard_merge_matches_serial_bitwise(self):
        """Satellite regression: accumulators cross the process boundary.

        ``FastResult.__getstate__`` must keep ``streamed`` (it strips the
        stacked pulse-time block); a silent drop here would make every
        process-sharded streaming sweep raise on first accessor use.
        """
        serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        sharded = BatchRunner(
            num_pulses=NUM_PULSES,
            store_times=False,
            executor="process",
            shards=3,
        ).run(_trials(8))
        assert sharded.streaming
        for name in (
            "local_skews",
            "inter_layer_skews",
            "max_local_skews",
            "max_inter_layer_skews",
            "overall_skews",
            "global_skews",
        ):
            np.testing.assert_array_equal(
                getattr(serial, name)(),
                getattr(sharded, name)(),
                err_msg=name,
            )
        want, got = serial.correction_stats(), sharded.correction_stats()
        for key in want:
            np.testing.assert_array_equal(want[key], got[key], err_msg=key)
        np.testing.assert_array_equal(
            serial.faulty_masks, sharded.faulty_masks
        )

    def test_pickle_round_trip_preserves_accessors(self):
        result = _simulation().run(NUM_PULSES, store_times=False)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.times is None
        assert clone.max_local_skew() == result.max_local_skew()
        assert clone.global_skew() == result.global_skew()
        np.testing.assert_array_equal(
            clone.streamed["local"].trial_values(clone.streamed_row),
            result.streamed["local"].trial_values(result.streamed_row),
        )

    def test_stack_group_shares_one_stream_through_pickle(self):
        """Pickle memoization dedupes the group's shared accumulators."""
        sims = [_simulation(seed=s) for s in range(3)]
        results = TrialStack(sims).run(NUM_PULSES, store_times=False)
        assert all(r.streamed is results[0].streamed for r in results)
        clones = pickle.loads(pickle.dumps(results))
        assert all(c.streamed is clones[0].streamed for c in clones)
        for clone, result in zip(clones, results):
            assert clone.streamed_row == result.streamed_row
            assert clone.max_local_skew() == result.max_local_skew()

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_every_shard_count_matches_serial_bitwise(self, shards):
        """Shard-count regression: 1, 2, and 3 shards all reassemble to
        the serial trial order (uneven splits included -- 8 trials over
        3 shards)."""
        serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False).run(
            _trials(8)
        )
        sharded = BatchRunner(
            num_pulses=NUM_PULSES,
            store_times=False,
            executor="process",
            shards=shards,
        ).run(_trials(8))
        np.testing.assert_array_equal(
            serial.max_local_skews(), sharded.max_local_skews()
        )
        np.testing.assert_array_equal(
            serial.global_skews(), sharded.global_skews()
        )

    def test_merge_orders_shards_by_trial_offset(self):
        """Satellite regression: ``merge`` follows batch position, not
        argument order.

        Shard futures can resolve in any order; a consumer folding
        ``later.merge(earlier)`` used to concatenate the trial axis
        backwards, silently misattributing every per-trial statistic.
        """
        batch = BatchRunner(
            num_pulses=NUM_PULSES,
            store_times=False,
            executor="process",
            shards=2,
        ).run(_trials(6))
        streams = []
        for result in batch.results:
            if not any(result.streamed is s for s in streams):
                streams.append(result.streamed)
        assert len(streams) >= 2
        offsets = [s.trial_offset for s in streams]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(
            offsets
        )
        a, b = streams[0], streams[1]
        forward = a.merge(b)
        backward = b.merge(a)
        assert forward.trial_offset == backward.trial_offset == min(
            a.trial_offset, b.trial_offset
        )
        for row in range(forward.layout.num_trials):
            np.testing.assert_array_equal(
                forward["local"].trial_values(row),
                backward["local"].trial_values(row),
            )
            assert forward["corrections"].trial_stats(row) == backward[
                "corrections"
            ].trial_stats(row)
        # Row 0 of the merged stream is the batch's first trial either
        # way (the lower-offset shard leads).
        np.testing.assert_array_equal(
            backward["local"].trial_values(0),
            a["local"].trial_values(0),
        )

    def test_streamed_stats_merge_concatenates_trials(self):
        a = _simulation(6, seed=0).run(NUM_PULSES, store_times=False)
        b = _simulation(8, seed=1).run(NUM_PULSES, store_times=False)
        merged = a.streamed.merge(b.streamed)
        assert merged.layout.num_trials == 2
        np.testing.assert_array_equal(
            merged["local"].trial_values(0),
            a.streamed["local"].trial_values(a.streamed_row),
        )
        np.testing.assert_array_equal(
            merged["local"].trial_values(1),
            b.streamed["local"].trial_values(b.streamed_row),
        )
        for row, source in ((0, a), (1, b)):
            assert (
                merged["corrections"].trial_stats(row)
                == source.streamed["corrections"].trial_stats(
                    source.streamed_row
                )
            )


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------
class TestFailureModes:
    def test_mixed_streamed_and_materialized_batch_rejected(self):
        from repro.experiments.batch import BatchResult

        streamed = _simulation(seed=0).run(NUM_PULSES, store_times=False)
        materialized = _simulation(seed=1).run(NUM_PULSES)
        with pytest.raises(ValueError, match="mix"):
            BatchResult(_trials(2), [streamed, materialized])

    def test_missing_reducer_raises_on_access(self):
        batch = BatchRunner(num_pulses=3, store_times=False).run(_trials(2))
        with pytest.raises(ValueError, match="potential_s2"):
            batch.potentials(2)

    def test_blockless_result_without_stream_raises(self):
        result = _simulation().run(NUM_PULSES, store_times=False)
        result.streamed = None
        with pytest.raises(ValueError, match="store_times=True"):
            result.max_local_skew()

    def test_streamed_accessors_match_materialized_reference(self):
        streamed = _simulation(seed=3).run(NUM_PULSES, store_times=False)
        materialized = _simulation(seed=3).run(NUM_PULSES)
        np.testing.assert_array_equal(
            streamed.streamed["local"].trial_values(streamed.streamed_row),
            local_skew_layers(materialized.times, materialized.graph),
        )
        assert streamed.max_local_skew() == materialized.max_local_skew()
        assert streamed.global_skew() == materialized.global_skew()
