"""The three benchmark workloads, each a closed loop with one caller.

One caller in one process sends the next grid only after the statistics
of the previous one are in hand.  Every input comes from the workload
seed; the program sees only the generated grid specs, which the run
report records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from checks import Cell, check_payload, compare_reference, digest

#: A grid still running after this long counts as failed (timed out).
GRID_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One timed grid: its latency and what the checks need."""

    index: int
    seconds: float
    payload: Dict
    cells: List[Cell] = field(default_factory=list)
    pulses: int = 0
    expected_digest: Optional[str] = None
    info: Dict = field(default_factory=dict)
    #: Problems the workload's accounting found (e.g. a missed dedup hit).
    faults: List[str] = field(default_factory=list)

    @property
    def node_pulses(self) -> int:
        return sum(cell.nodes for cell in self.cells) * self.pulses

    def problems(self) -> List[str]:
        found = check_payload(self.payload, self.cells, self.expected_digest)
        found += self.faults
        if self.seconds > GRID_TIMEOUT_S:
            found.append(f"timed out: {self.seconds:.1f} s > {GRID_TIMEOUT_S} s")
        return found


def _fresh_seeds(rng: random.Random, used: set, count: int) -> List[int]:
    seeds = []
    while len(seeds) < count:
        seed = rng.randrange(1 << 31)
        if seed not in used:
            used.add(seed)
            seeds.append(seed)
    return seeds


class Workload:
    """Set-up, one timed grid, the untimed accounting, the reference run."""

    name = ""
    why = ""
    #: Grids per tracing block: a traced run alternates untraced and
    #: traced blocks, so a block must hold whole periods of the schedule.
    period = 1
    #: ``BatchRunner`` knobs of the grid, reused for the reference slice.
    runner_knobs: Dict = {}
    #: Peak RSS is sampled once this many grids are done, so that it does
    #: not depend on how many grids fit in the run.
    rss_grids = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.used: set = set()
        self.specs: List[Dict] = []
        self.first: Optional[Outcome] = None

    def setup(self) -> None:
        from repro.experiments.batch import BatchRunner
        from repro.service import jobs

        self.jobs = jobs
        self.BatchRunner = BatchRunner

    def spec(self, index: int) -> Dict:
        while len(self.specs) <= index:
            self.specs.append(self.next_spec())
        return self.specs[index]

    def next_spec(self) -> Dict:
        raise NotImplementedError

    def grid(self, index: int) -> Outcome:
        raise NotImplementedError

    def account(self, outcome: Outcome) -> None:
        """Fill in cells and the expected digest, outside the timing."""
        if self.first is None:
            self.first = outcome

    def reference_trials(self) -> list:
        """Fresh copies of the first two trials of the first grid."""
        raise NotImplementedError

    def cross_check(self) -> Dict:
        """Re-run a 2-trial slice with the scalar reference path.

        Also runs the slice vectorized in-process, to record which kernel
        and neighbor backends the library resolved on this machine.
        """
        trials = self.reference_trials()
        knobs = dict(self.runner_knobs, executor="serial")
        vectorized = self.BatchRunner(**knobs).run(trials)
        scalar = self.BatchRunner(**dict(knobs, vectorize=False)).run(trials)
        reference = self.jobs.batch_payload(scalar)
        return {
            "trials": len(trials),
            "problems": compare_reference(self.first.payload, reference,
                                          rows=len(trials)),
            "kernel_backend": sorted({
                c["kernel_backend"] for c in vectorized.compaction_stats}),
            "neighbor_backend": sorted({
                c["neighbor_backend"] for c in vectorized.compaction_stats}),
        }

    def close(self) -> None:
        pass


class SweepCold(Workload):
    """The ROADMAP bench grid, rebuilt from its spec for every grid."""

    name = "sweep_cold"
    why = ("ROADMAP bench grid rebuilt from its spec per grid: scenario "
           "construction dominates, the kernel is ~2%")
    diameter, seeds_per_grid, pulses = 32, 64, 4
    runner_knobs = {"num_pulses": 4}

    def next_spec(self) -> Dict:
        return {
            "kind": "seed_sweep",
            "diameter": self.diameter,
            "seeds": _fresh_seeds(self.rng, self.used, self.seeds_per_grid),
            "num_pulses": self.pulses,
        }

    def grid(self, index: int) -> Outcome:
        spec = self.spec(index)
        start = perf_counter()
        trials = self.jobs.build_trials(spec)
        batch = self.BatchRunner(**self.runner_knobs).run(trials)
        payload = self.jobs.batch_payload(batch)
        seconds = perf_counter() - start
        return Outcome(index, seconds, payload,
                       cells=[Cell.of(t.config) for t in trials],
                       pulses=self.pulses)

    def reference_trials(self) -> list:
        spec = self.specs[self.first.index]
        return self.jobs.build_trials(dict(spec, seeds=spec["seeds"][:2]))


class FaultsWarm(Workload):
    """The thm13 fault grid, built once and re-run on warm caches."""

    name = "faults_warm"
    why = ("thm13 fault grid re-run on warm delay caches: kernel, batched "
           "fault fallback and streaming folds")
    diameter, plans, pulses = 32, 32, 3
    runner_knobs = {"num_pulses": 3, "store_times": False}

    def next_spec(self) -> Dict:
        return {
            "kind": "thm13",
            "diameter": self.diameter,
            "seeds": _fresh_seeds(self.rng, self.used, self.plans),
            "num_pulses": self.pulses,
        }

    def setup(self) -> None:
        super().setup()
        self.trials = self.jobs.build_trials(self.spec(0))
        self.runner = self.BatchRunner(**self.runner_knobs)
        warm = self.jobs.batch_payload(self.runner.run(self.trials))
        self.cells = [Cell.of(t.config) for t in self.trials]
        self.warm_digest = digest(warm)

    def grid(self, index: int) -> Outcome:
        start = perf_counter()
        batch = self.runner.run(self.trials)
        payload = self.jobs.batch_payload(batch)
        seconds = perf_counter() - start
        return Outcome(index, seconds, payload, cells=self.cells,
                       pulses=self.pulses, expected_digest=self.warm_digest)

    def reference_trials(self) -> list:
        """The fault-free reference and the first plan."""
        spec = self.specs[0]
        return self.jobs.build_trials(dict(spec, seeds=spec["seeds"][:1]))


class ServiceMix(Workload):
    """thm11 grids through the HTTP service; every 4th one a repeat."""

    name = "service_mix"
    why = ("thm11 grids over HTTP to the process executor, 1 in 4 an exact "
           "repeat: dedup-store hits beside misses")
    diameters, seeds_per_grid, pulses = [8, 16, 24], 4, 4
    repeat_every = 4
    period = repeat_every
    #: The service keeps every job's trials, so its memory grows with the
    #: grids served.  8 periods of the schedule take about 15 s on 2 cores.
    rss_grids = 8 * repeat_every
    runner_knobs = {"num_pulses": 4, "store_times": False}
    #: Pinned so the workload does not change with the machine's cores.
    submit_runner = {"shards": 2}

    def next_spec(self) -> Dict:
        index = len(self.specs)
        if index % self.repeat_every == self.repeat_every - 1:
            fresh = [i for i, s in enumerate(self.specs)
                     if "repeat_of" not in s]
            original = self.rng.choice(fresh)
            return dict(self.specs[original], repeat_of=original)
        return {
            "kind": "thm11",
            "diameters": list(self.diameters),
            "seeds": _fresh_seeds(self.rng, self.used, self.seeds_per_grid),
            "num_pulses": self.pulses,
        }

    def setup(self) -> None:
        super().setup()
        from repro.experiments.common import standard_config
        from repro.service import ServiceClient, ServiceServer

        self.standard_config = standard_config
        self.server = ServiceServer().start()
        self.client = ServiceClient(self.server.url, timeout=GRID_TIMEOUT_S)
        self.client.health()
        self.digests: Dict[int, str] = {}
        self._cells: Dict[int, Cell] = {}

    def grid(self, index: int) -> Outcome:
        spec = self.spec(index)
        grid = {k: v for k, v in spec.items() if k != "repeat_of"}
        start = perf_counter()
        view = self.client.submit(grid, num_pulses=self.pulses,
                                  runner=self.submit_runner)
        job = self.client.wait(view["id"], timeout=GRID_TIMEOUT_S)
        if job["status"] != "done":
            raise RuntimeError(f"job {view['id']} {job['status']}: "
                               f"{job['error']}")
        payload = self.client.result(view["id"])
        seconds = perf_counter() - start
        return Outcome(index, seconds, payload, pulses=self.pulses, info={
            "cache_hit": bool(job["cache_hit"]),
            "queue_wait_s": job["started"] - job["created"],
            "execute_s": job["finished"] - job["started"],
        })

    def account(self, outcome: Outcome) -> None:
        super().account(outcome)
        spec = self.specs[outcome.index]
        outcome.cells = [self._cell(d) for d in spec["diameters"]
                         for _ in spec["seeds"]]
        outcome.info["result_bytes"] = len(json.dumps(outcome.payload))
        hit = outcome.info["cache_hit"]
        if "repeat_of" in spec:
            original = spec["repeat_of"]
            outcome.expected_digest = self.digests.get(original)
            if outcome.expected_digest is not None and not hit:
                outcome.faults.append(
                    f"repeat of grid {original} recomputed, not served "
                    "from the dedup store")
        else:
            self.digests[outcome.index] = digest(outcome.payload)
            if hit:
                outcome.faults.append(
                    "fresh grid served as a dedup-store hit")

    def _cell(self, diameter: int) -> Cell:
        if diameter not in self._cells:
            self._cells[diameter] = Cell.of(self.standard_config(diameter))
        return self._cells[diameter]

    def reference_trials(self) -> list:
        spec = self.specs[self.first.index]
        return self.jobs.build_trials({
            "kind": "thm11", "diameters": spec["diameters"][:1],
            "seeds": spec["seeds"][:2], "num_pulses": self.pulses})

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


WORKLOADS = {w.name: w for w in (SweepCold, FaultsWarm, ServiceMix)}
