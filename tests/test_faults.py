"""Tests for repro.faults: behaviours, plans, and locality classification."""
import pytest

from repro.faults import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    ByzantineRandomFault,
    CrashFault,
    FaultContext,
    FaultPlan,
    FixedOffsetFault,
    MutableFault,
    PerSuccessorOffsetFault,
    SilentFromFault,
    distance_delta_k_faulty,
    max_k_faulty_over_layer,
)
from repro.topology import LayeredGraph, cycle_graph, replicated_line

CTX = FaultContext(node=(2, 3), pulse=1, correct_time=10.0, kappa=0.02)
SUCC = (2, 4)


class TestBehaviors:
    def test_crash_is_silent(self):
        assert CrashFault().send_time(CTX, SUCC) is None
        assert CrashFault().is_static()

    def test_silent_from(self):
        f = SilentFromFault(start_pulse=2)
        before = FaultContext((0, 1), 1, 5.0, 0.02)
        after = FaultContext((0, 1), 2, 5.0, 0.02)
        assert f.send_time(before, SUCC) == 5.0
        assert f.send_time(after, SUCC) is None

    def test_silent_from_rejects_negative(self):
        with pytest.raises(ValueError):
            SilentFromFault(-1)

    def test_fixed_offset(self):
        assert FixedOffsetFault(0.5).send_time(CTX, SUCC) == pytest.approx(10.5)
        assert FixedOffsetFault(-0.5).send_time(CTX, SUCC) == pytest.approx(9.5)
        assert FixedOffsetFault(0.5).is_static()

    def test_per_successor_offsets(self):
        f = PerSuccessorOffsetFault({SUCC: 0.3, (3, 4): None})
        assert f.send_time(CTX, SUCC) == pytest.approx(10.3)
        assert f.send_time(CTX, (3, 4)) is None
        assert f.send_time(CTX, (1, 4)) == pytest.approx(10.0)  # default 0

    def test_adversarial_early_late(self):
        early = AdversarialEarlyFault(5.0)
        late = AdversarialLateFault(5.0)
        assert early.send_time(CTX, SUCC) == pytest.approx(10.0 - 0.1)
        assert late.send_time(CTX, SUCC) == pytest.approx(10.0 + 0.1)

    def test_adversarial_rejects_negative(self):
        with pytest.raises(ValueError):
            AdversarialEarlyFault(-1.0)
        with pytest.raises(ValueError):
            AdversarialLateFault(-1.0)

    def test_byzantine_random_bounded_and_deterministic(self):
        f = ByzantineRandomFault(span=0.5, seed=7)
        t1 = f.send_time(CTX, SUCC)
        t2 = f.send_time(CTX, SUCC)
        assert t1 == t2  # deterministic per (node, successor, pulse)
        assert abs(t1 - 10.0) <= 0.5
        other_pulse = FaultContext((2, 3), 2, 10.0, 0.02)
        assert f.send_time(other_pulse, SUCC) != t1

    def test_byzantine_not_static(self):
        assert not ByzantineRandomFault(0.1).is_static()

    def test_mutable_phases(self):
        f = MutableFault([(0, CrashFault()), (3, FixedOffsetFault(1.0))])
        early = FaultContext((0, 1), 2, 5.0, 0.02)
        late = FaultContext((0, 1), 3, 5.0, 0.02)
        assert f.send_time(early, SUCC) is None
        assert f.send_time(late, SUCC) == pytest.approx(6.0)

    def test_mutable_changes_at(self):
        f = MutableFault([(0, CrashFault()), (3, FixedOffsetFault(1.0))])
        assert f.changes_at(3)
        assert not f.changes_at(2)
        assert not f.changes_at(0)

    def test_mutable_validation(self):
        with pytest.raises(ValueError):
            MutableFault([])
        with pytest.raises(ValueError):
            MutableFault([(1, CrashFault())])  # must start at 0
        with pytest.raises(ValueError):
            MutableFault([(0, CrashFault()), (0, CrashFault())])


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan.none()
        assert len(plan) == 0
        assert not plan.is_faulty((0, 0))
        assert plan.behavior((0, 0)) is None

    def test_from_nodes(self):
        plan = FaultPlan.from_nodes({(1, 2): CrashFault()})
        assert plan.is_faulty((1, 2))
        assert isinstance(plan.behavior((1, 2)), CrashFault)
        assert plan.faulty_nodes() == [(1, 2)]

    def test_with_fault(self):
        plan = FaultPlan.none().with_fault((0, 1), CrashFault())
        assert plan.is_faulty((0, 1))
        assert len(FaultPlan.none()) == 0  # original untouched

    def test_faults_in_layer(self):
        plan = FaultPlan.from_nodes(
            {(0, 1): CrashFault(), (3, 1): CrashFault(), (0, 2): CrashFault()}
        )
        assert plan.faults_in_layer(1) == [(0, 1), (3, 1)]

    def test_one_locality_holds_for_spread_faults(self):
        graph = LayeredGraph(replicated_line(6), 5)
        plan = FaultPlan.from_nodes(
            {(0, 1): CrashFault(), (4, 1): CrashFault(), (0, 3): CrashFault()}
        )
        assert plan.is_one_local(graph)

    def test_one_locality_violated_by_adjacent_faults(self):
        graph = LayeredGraph(replicated_line(6), 5)
        plan = FaultPlan.from_nodes(
            {(2, 1): CrashFault(), (3, 1): CrashFault()}
        )
        assert not plan.is_one_local(graph)
        violations = plan.one_locality_violations(graph)
        assert violations
        # The reported neighborhood contains both faults.
        _, hits = violations[0]
        assert set(hits) == {(2, 1), (3, 1)}

    def test_same_column_different_layers_is_one_local(self):
        graph = LayeredGraph(replicated_line(6), 5)
        plan = FaultPlan.from_nodes(
            {(2, 1): CrashFault(), (2, 2): CrashFault()}
        )
        assert plan.is_one_local(graph)

    def test_random_protects_layer0(self):
        graph = LayeredGraph(replicated_line(6), 6)
        plan = FaultPlan.random(graph, probability=0.3, rng_or_seed=0)
        assert not plan.faults_in_layer(0)

    def test_random_can_include_layer0(self):
        graph = LayeredGraph(replicated_line(6), 6)
        plan = FaultPlan.random(
            graph, probability=0.5, rng_or_seed=0, protect_layer0=False
        )
        assert plan.faults_in_layer(0)

    def test_random_deterministic(self):
        graph = LayeredGraph(replicated_line(6), 6)
        a = FaultPlan.random(graph, 0.1, rng_or_seed=4)
        b = FaultPlan.random(graph, 0.1, rng_or_seed=4)
        assert a.faulty_nodes() == b.faulty_nodes()

    def test_random_enforce_one_local(self):
        graph = LayeredGraph(replicated_line(8), 8)
        plan = FaultPlan.random(
            graph, 0.05, rng_or_seed=1, enforce_one_local=True
        )
        assert plan.is_one_local(graph)

    def test_random_enforce_gives_up_when_too_dense(self):
        graph = LayeredGraph(replicated_line(6), 6)
        with pytest.raises(RuntimeError):
            FaultPlan.random(
                graph, 0.9, rng_or_seed=0, enforce_one_local=True,
                max_resamples=5,
            )

    def test_random_rejects_bad_probability(self):
        graph = LayeredGraph(replicated_line(6), 6)
        with pytest.raises(ValueError):
            FaultPlan.random(graph, 1.5)

    def test_column_stack_positions(self):
        graph = LayeredGraph(replicated_line(6), 10)
        plan = FaultPlan.column_stack(
            graph, 3, base_vertex=2, first_layer=1, layer_spacing=2,
            behavior_factory=lambda node: CrashFault(),
        )
        assert plan.faulty_nodes() == [(2, 1), (2, 3), (2, 5)]

    def test_column_stack_rejects_overflow(self):
        graph = LayeredGraph(replicated_line(6), 4)
        with pytest.raises(ValueError):
            FaultPlan.column_stack(
                graph, 5, 2, 1, 2, lambda node: CrashFault()
            )

    def test_column_stack_rejects_layer0(self):
        graph = LayeredGraph(replicated_line(6), 4)
        with pytest.raises(ValueError):
            FaultPlan.column_stack(graph, 1, 2, 0, 1, lambda n: CrashFault())

    def test_count_behavior_changes(self):
        plan = FaultPlan.from_nodes(
            {
                (0, 1): MutableFault(
                    [(0, CrashFault()), (2, FixedOffsetFault(1.0))]
                ),
                (4, 2): CrashFault(),
            }
        )
        assert plan.count_behavior_changes(2) == 1
        assert plan.count_behavior_changes(1) == 0


class TestLocality:
    def test_no_faults_is_zero_faulty(self):
        graph = LayeredGraph(cycle_graph(8), 8)
        plan = FaultPlan.none()
        assert distance_delta_k_faulty(graph, plan, (0, 7), delta=2) == 0

    def test_single_nearby_fault_is_one_faulty(self):
        graph = LayeredGraph(cycle_graph(8), 8)
        plan = FaultPlan.from_nodes({(0, 6): CrashFault()})
        assert distance_delta_k_faulty(graph, plan, (0, 7), delta=2) == 1

    def test_distant_fault_does_not_count(self):
        graph = LayeredGraph(cycle_graph(16), 16)
        plan = FaultPlan.from_nodes({(8, 1): CrashFault()})
        # (0, 15): the fault is 14 layers up but 8 hops away in H, so it is
        # an ancestor; with delta = 1 and k = 1 the window (k+1)*delta = 2
        # misses it only if distance > 2.  Use a node whose ancestry at
        # small distance excludes the fault.
        assert distance_delta_k_faulty(graph, plan, (0, 3), delta=1) == 0

    def test_matches_definition_brute_force(self):
        graph = LayeredGraph(cycle_graph(8), 10)
        plan = FaultPlan.from_nodes(
            {(0, 5): CrashFault(), (3, 7): CrashFault(), (6, 2): CrashFault()}
        )
        node = (1, 9)
        delta = 2
        k = distance_delta_k_faulty(graph, plan, node, delta)
        # Definition 4.33: k minimal with <= k faults among the
        # distance-((k+1)*delta) ancestors.
        for candidate in range(k + 1):
            ancestors = graph.ancestors_within(node, (candidate + 1) * delta)
            count = sum(1 for a in ancestors if plan.is_faulty(a))
            if candidate < k:
                assert count > candidate
            else:
                assert count <= candidate

    def test_max_over_layer(self):
        graph = LayeredGraph(cycle_graph(8), 8)
        plan = FaultPlan.from_nodes({(0, 6): CrashFault()})
        assert max_k_faulty_over_layer(graph, plan, 7, delta=2) >= 1

    def test_rejects_bad_delta(self):
        graph = LayeredGraph(cycle_graph(8), 8)
        with pytest.raises(ValueError):
            distance_delta_k_faulty(graph, FaultPlan.none(), (0, 1), delta=0)

    def test_dense_plan_has_a_minimal_k_beyond_sixteen(self):
        # Definition 4.33's minimal k is bounded only by the fault count:
        # this thm13 plan (20 faults) needs k = 17 at delta 2.
        from repro.experiments.thm13_random_faults import thm13_trials

        trials, k_faulties = thm13_trials(32, [108])
        assert k_faulties == [17]
        assert trials[1].num_faults == 20
