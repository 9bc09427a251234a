"""Chaos-campaign unit tests and churn edge cases.

The differential harness (``tests/test_differential.py``) pins campaign
runs against the event engine and across the fast family; this module
covers the campaign layer itself -- event validation, epoch compilation,
merging, accounting -- and the churn corners called out in the issue:

* a vertex *rejoining* while its trial's rows are compaction-silenced in
  a stacked run (the epoch rewrite must respect the active-row schedule),
* an edge flapping *within a single pulse window* (a one-pulse epoch,
  with every other pulse bitwise untouched), and
* a campaign whose final epoch *restores the seed topology* (the quiet
  tail must be bit-identical to the plain static run).
"""

import pickle

import numpy as np
import pytest

from repro.clocks import uniform_random_rates
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import JitteredLayer0, PerfectLayer0
from repro.delays.models import StaticDelayModel
from repro.faults.campaign import (
    CampaignSchedule,
    ChaosCampaign,
    EdgeDown,
    EdgeFlap,
    EdgeUp,
    NodeCrash,
    NodeJoin,
    NodeLeave,
    NodeRecover,
    RegionalOutage,
)
from repro.faults.injection import FaultPlan
from repro.faults.model import CrashFault, FixedOffsetFault
from repro.params import Parameters
from repro.topology.base_graph import cycle_graph, replicated_line
from repro.topology.layered import LayeredGraph

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)


def make_sim(base, num_layers, campaign=None, seed=0, fault_plan=None,
             vectorize=True, layer0=None):
    graph = LayeredGraph(base, num_layers)
    clocks = uniform_random_rates(
        list(graph.nodes()), PARAMS.vartheta, rng_or_seed=seed
    )
    return FastSimulation(
        graph,
        PARAMS,
        delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed + 1),
        clock_rates={node: clock.rate for node, clock in clocks.items()},
        fault_plan=fault_plan,
        layer0=layer0 or PerfectLayer0(PARAMS.Lambda),
        campaign=campaign,
        vectorize=vectorize,
    )


class TestEventValidation:
    def test_negative_pulse_rejected(self):
        with pytest.raises(ValueError, match="pulse"):
            NodeLeave(pulse=-1, vertex=0)

    def test_non_seed_edge_rejected(self):
        base = cycle_graph(5)
        with pytest.raises(ValueError, match="not a seed edge"):
            ChaosCampaign(base, 2, [EdgeDown(pulse=0, edge=(0, 2))])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ChaosCampaign(cycle_graph(4), 2, [NodeLeave(pulse=0, vertex=4)])

    def test_grid_node_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ChaosCampaign(
                cycle_graph(4), 2, [NodeCrash(pulse=0, node=(0, 2))]
            )

    def test_flap_needs_positive_duration(self):
        with pytest.raises(ValueError, match="down_pulses"):
            EdgeFlap(pulse=0, edge=(0, 1), down_pulses=0)

    def test_outage_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            RegionalOutage(pulse=0, center=0, kind="explode")


class TestCompilation:
    def test_quiet_campaign_is_one_seed_epoch(self):
        campaign = ChaosCampaign(cycle_graph(4), 2)
        schedule = campaign.compile(6)
        assert len(schedule) == 1
        epoch = schedule.epochs[0]
        assert (epoch.start, epoch.end) == (0, 6)
        assert epoch.state_key == campaign.seed_state_key
        assert schedule.last_event_pulse is None
        assert schedule.summary()["actions"] == 0

    def test_epochs_tile_the_horizon(self):
        base = cycle_graph(6)
        campaign = ChaosCampaign(
            base, 3,
            [NodeLeave(pulse=1, vertex=0), NodeJoin(pulse=3, vertex=0),
             EdgeFlap(pulse=4, edge=(2, 3))],
        )
        schedule = campaign.compile(7)
        spans = [(e.start, e.end) for e in schedule.epochs]
        assert spans[0][0] == 0 and spans[-1][1] == 7
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        for pulse in range(7):
            epoch = schedule.epoch_at(pulse)
            assert epoch.start <= pulse < epoch.end

    def test_cancelling_actions_extend_the_epoch(self):
        base = cycle_graph(5)
        # Down and straight back up in the same pulse: no state change.
        campaign = ChaosCampaign(
            base, 2,
            [EdgeDown(pulse=2, edge=(0, 1)), EdgeUp(pulse=2, edge=(0, 1))],
        )
        schedule = campaign.compile(4)
        assert len(schedule) == 1
        # ...but the actions still count and stamp last_event_pulse.
        assert schedule.num_actions == 2
        assert schedule.last_event_pulse == 2

    def test_repeated_state_shares_graph_object(self):
        base = cycle_graph(6)
        campaign = ChaosCampaign(
            base, 2,
            [EdgeFlap(pulse=1, edge=(0, 1)), EdgeFlap(pulse=3, edge=(0, 1))],
        )
        schedule = campaign.compile(6)
        down = [e for e in schedule.epochs if e.down_edges]
        assert len(down) == 2
        assert down[0].graph is down[1].graph
        assert down[0].state_key == down[1].state_key

    def test_absent_vertex_crashes_every_layer(self):
        campaign = ChaosCampaign(cycle_graph(4), 3, [NodeLeave(pulse=0, vertex=2)])
        epoch = campaign.compile(2).epochs[0]
        for layer in range(3):
            assert isinstance(epoch.fault_plan.behavior((2, layer)), CrashFault)
        assert not any(epoch.graph.base.neighbors(2))

    def test_base_plan_merges_and_campaign_shadows(self):
        base = cycle_graph(4)
        static = FaultPlan.from_nodes({(0, 1): FixedOffsetFault(0.1)})
        campaign = ChaosCampaign(
            base, 2, [NodeCrash(pulse=0, node=(0, 1))]
        )
        epoch = campaign.compile(1, base_plan=static).epochs[0]
        assert isinstance(epoch.fault_plan.behavior((0, 1)), CrashFault)

    def test_outage_hits_the_seed_ball(self):
        base = replicated_line(6)
        campaign = ChaosCampaign(
            base, 3,
            [RegionalOutage(pulse=1, center=3, radius=1, duration=2)],
        )
        epoch = campaign.compile(3).epoch_at(1)
        region = base.ball(3, 1)
        for v in region:
            assert isinstance(epoch.fault_plan.behavior((v, 1)), CrashFault)
            # Layer 0 is the clock source: outages never crash it.
            assert epoch.fault_plan.behavior((v, 0)) is None
        assert campaign.compile(4).epoch_at(3).state_key == campaign.seed_state_key

    def test_epoch_index_bounds_checked(self):
        schedule = ChaosCampaign(cycle_graph(4), 2).compile(3)
        with pytest.raises(IndexError):
            schedule.epoch_index(3)
        with pytest.raises(IndexError):
            schedule.epoch_index(-1)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one epoch"):
            CampaignSchedule([], 0, None)

    def test_campaign_pickles(self):
        campaign = ChaosCampaign.random(
            cycle_graph(6), 3, churn_pulses=4, rng_or_seed=7
        )
        clone = pickle.loads(pickle.dumps(campaign))
        assert clone.events == campaign.events
        a = clone.compile(6).summary()
        b = campaign.compile(6).summary()
        assert a == b

    def test_random_campaign_restores_by_window_end(self):
        for seed in range(6):
            campaign = ChaosCampaign.random(
                cycle_graph(8), 4, churn_pulses=5, rng_or_seed=seed,
                event_rate=1.0,
            )
            schedule = campaign.compile(8)
            assert schedule.epochs[-1].state_key == campaign.seed_state_key
            assert schedule.epochs[-1].end == 8


class TestChurnEdgeCases:
    """The issue's three named corners, each pinned bitwise."""

    def test_rejoin_while_row_compaction_silenced(self):
        """A vertex rejoins inside a compacted stack's silenced rows.

        The campaign trial is much shallower than its stack mate, so
        depth compaction silences its upper rows on every pulse; the
        epoch rewrite at the join boundary must edit only the trial's
        live rows and leave the compaction schedule intact.
        """
        base = cycle_graph(6)
        campaign = ChaosCampaign(
            base, 2,
            [NodeLeave(pulse=1, vertex=3), NodeJoin(pulse=3, vertex=3)],
        )
        solo = make_sim(base, 2, campaign=campaign, seed=5).run(5)
        deep_mate = make_sim(cycle_graph(8), 6, seed=6)
        stack = TrialStack(
            [make_sim(base, 2, campaign=campaign, seed=5), deep_mate],
        )
        stacked, _ = stack.run(5)
        stats = stack.compaction_stats
        assert stats["active_row_steps"] < stats["padded_row_steps"]
        np.testing.assert_array_equal(stacked.times, solo.times)
        np.testing.assert_array_equal(stacked.corrections, solo.corrections)
        # The rejoined column is NaN while absent and live again after.
        assert np.isnan(solo.times[1:3, 1:, 3]).all()
        assert np.isfinite(solo.times[3:, :, 3]).all()

    def test_edge_flap_within_single_pulse_window(self):
        """A one-pulse flap perturbs exactly its own pulse, nothing else.

        Lemma B.1: no cross-pulse coupling, so the down-pulse is the
        only row allowed to differ from the static run -- and it must
        differ, or the flap never engaged the kernel at all.
        """
        base = replicated_line(4)
        campaign = ChaosCampaign(
            base, 3, [EdgeFlap(pulse=2, edge=(0, 4), down_pulses=1)]
        )
        schedule = campaign.compile(5)
        flapped = [e for e in schedule.epochs if e.down_edges]
        assert len(flapped) == 1
        assert (flapped[0].start, flapped[0].end) == (2, 3)

        # A jittered layer 0 keeps the dropped predecessor pivotal in the
        # fold; under PerfectLayer0 the flap can be output-invisible.
        layer0 = JitteredLayer0(
            PARAMS.Lambda, base.num_nodes, PARAMS.kappa / 2, seed=2
        )
        churn = make_sim(base, 3, campaign=campaign, seed=0,
                         layer0=layer0).run(5)
        static = make_sim(base, 3, seed=0, layer0=layer0).run(5)
        np.testing.assert_array_equal(churn.times[:2], static.times[:2])
        np.testing.assert_array_equal(churn.times[3:], static.times[3:])
        assert not np.array_equal(churn.times[2], static.times[2])

    def test_final_epoch_restores_seed_bitwise(self):
        """After the last disruption reverts, pulses == the static run.

        Stronger than 'recovers eventually': the restored epoch reuses
        the seed topology's gather structures, so its pulses must be
        *bit-identical* to a run that never churned, on every path.
        """
        base = cycle_graph(7)
        campaign = ChaosCampaign.random(
            base, 3, churn_pulses=4, rng_or_seed=11, event_rate=1.0
        )
        assert campaign.events  # the sampler actually drew churn
        schedule = campaign.compile(7)
        assert schedule.epochs[-1].state_key == campaign.seed_state_key
        tail = schedule.epochs[-1].start

        static = make_sim(base, 3, seed=4).run(7)
        for label, sim in (
            ("vectorized", make_sim(base, 3, campaign=campaign, seed=4)),
            ("scalar", make_sim(base, 3, campaign=campaign, seed=4,
                                vectorize=False)),
        ):
            churn = sim.run(7)
            np.testing.assert_array_equal(
                churn.times[tail:], static.times[tail:],
                err_msg=f"{label}: restored tail differs from static",
            )
            assert not np.array_equal(churn.times[:tail], static.times[:tail])

        stacked, _ = TrialStack(
            [make_sim(base, 3, campaign=campaign, seed=4),
             make_sim(base, 3, seed=4)],
        ).run(7)
        np.testing.assert_array_equal(stacked.times[tail:], static.times[tail:])


class TestResultAccounting:
    def test_churn_stats_ride_on_the_result(self):
        base = cycle_graph(5)
        campaign = ChaosCampaign(
            base, 2, [EdgeFlap(pulse=1, edge=(0, 1), down_pulses=2)]
        )
        result = make_sim(base, 2, campaign=campaign).run(5)
        assert result.campaign is campaign
        stats = result.churn_stats
        assert stats["actions"] == 2
        assert stats["last_event_pulse"] == 3
        assert stats["epochs"] == 3
        assert stats["max_down_edges"] == 1

    def test_static_run_has_no_churn_stats(self):
        result = make_sim(cycle_graph(5), 2).run(3)
        assert result.campaign is None
        assert result.churn_stats is None

    def test_sim_state_restored_after_campaign_run(self):
        """Back-to-back runs of one sim see the same seed state."""
        base = cycle_graph(6)
        campaign = ChaosCampaign(
            base, 2, [NodeLeave(pulse=1, vertex=0)]  # never rejoins
        )
        sim = make_sim(base, 2, campaign=campaign, seed=3)
        first = sim.run(4)
        assert sim.graph.base is base
        assert sim.fault_plan.behavior((0, 0)) is None
        second = sim.run(4)
        np.testing.assert_array_equal(first.times, second.times)
