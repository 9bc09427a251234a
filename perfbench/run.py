"""Spec-to-statistics benchmark of the Gradient TRIX reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced blocks of grids and reports
the per-layer metrics of the traced grids, plus the tracing overhead
(traced vs untraced node-pulses per second).  Every timed grid is checked
(see ``checks.py``); once per run a 2-trial slice is re-run on the scalar
reference path.  The full run report (environment, specs, samples,
failures) goes to ``.bench_out/``; the last line of standard output is
the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: Set-up time counts from here: imports of the program, server boot and
#: workload set-up all come after.
LAUNCH = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: Extra set-ups, each in a fresh interpreter, beside the run's own one.
SETUP_PROBES = 4
#: Grids that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def percentile_tail(values):
    """``(value, percentile)``: the highest percentile with 10 grids beyond.

    With fewer than 11 grids no percentile has 10 beyond it; the maximum
    is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(after_grids: int) -> dict:
    """Peak RSS so far of this process and of its largest reaped child.

    Forked workers share the parent's pages, so the two are kept apart
    rather than added; the metric is the larger of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"value": max(own, child), "parent_mb": own,
            "largest_child_mb": child, "after_grids": after_grids}


def timed_loop(workload, seconds, tracer, trace):
    """Closed loop: the next grid starts after the last one's statistics.

    The loop runs for ``seconds``, and on until the peak-RSS sample after
    ``workload.rss_grids`` grids is taken, but never past twice
    ``seconds``.  Returns the grids attempted, the passing outcomes, the
    failures and the RSS sample.
    """
    from tracer import install

    outcomes, failures = [], []
    rss = None
    start = perf_counter()
    index = 0
    while (perf_counter() - start < seconds
           or rss is None and perf_counter() - start < 2 * seconds):
        traced = trace and (index // workload.period) % 2 == 1
        if traced:
            tracer.grid = index
            install(tracer)
        try:
            outcome = workload.grid(index)
        except Exception:
            failures.append({"grid": index,
                             "problems": [traceback.format_exc(limit=3)]})
            outcome = None
        finally:
            if traced:
                tracer.uninstall()
                tracer.grid = None
        if outcome is not None:
            outcome.info["traced"] = traced
            workload.account(outcome)
            problems = outcome.problems()
            if problems:
                failures.append({"grid": index, "problems": problems})
            else:
                outcomes.append(outcome)
        index += 1
        if index == workload.rss_grids:
            rss = peak_rss_mb(index)
    return index, outcomes, failures, rss or peak_rss_mb(index)


def probe_setups(args):
    """Set-up times of fresh interpreters running only the set-up."""
    samples, problems = [], []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(args.seed), "--probe-setup"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            problems.append("setup probe timed out after 30 s")
            continue
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-400:]}")
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples, problems


def end_to_end(attempted, outcomes, failures, setup_samples, rss):
    """The user-visible metrics, each with its unit and sample count."""
    grid_s = [o.seconds for o in outcomes]
    tail, pct = percentile_tail(grid_s)
    busy = sum(grid_s)
    return {
        "setup_s": (statistics.median(setup_samples), "s",
                    {"samples": len(setup_samples),
                     "values": setup_samples}),
        "grid_s_p50": (statistics.median(grid_s), "s",
                       {"samples": len(grid_s)}),
        "grid_s_tail": (tail, "s", {"samples": len(grid_s),
                                    "percentile": pct}),
        "node_pulses_per_s": (
            sum(o.node_pulses for o in outcomes) / busy, "1/s",
            {"samples": len(grid_s), "busy_s": busy,
             "note": "completed grids' node-pulses over their summed "
                     "spec-to-statistics time (loop wall time minus the "
                     "untimed checks)"}),
        "peak_rss_mb": (rss.pop("value"), "MB", {
            "samples": 1, **rss,
            "note": "max of this process and its largest reaped child, "
                    "sampled after a fixed number of grids"}),
        "ok_fraction": ((attempted - len(failures)) / attempted, "ratio",
                        {"samples": attempted,
                         "failed_fraction": len(failures) / attempted}),
    }


def main(argv=None) -> int:
    """Run one workload and print its metrics; 2 when it cannot start."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="run the set-up only and print its time")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = perf_counter() - LAUNCH
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import layers
        from checks import self_test
        from tracer import Tracer

        tracer = Tracer()
        attempted, outcomes, failures, rss = timed_loop(
            workload, args.seconds, tracer, bool(args.trace))
        cross = workload.cross_check() if workload.first else {
            "problems": ["no grid completed"]}
        missed = self_test(workload.first.payload, workload.first.cells) \
            if workload.first else []
    finally:
        workload.close()

    problems = list(cross["problems"]) + [
        f"output check accepted a corrupted payload ({name})"
        for name in missed
    ]
    setup_samples = [setup_s]
    if not args.trace:
        probed, probe_problems = probe_setups(args)
        setup_samples += probed
        problems += probe_problems
    untraced = [o for o in outcomes if not o.info["traced"]]
    if args.trace:
        metrics = layers.per_layer(tracer, outcomes)
    elif untraced:
        metrics = end_to_end(attempted, untraced, failures, setup_samples,
                             rss)
    else:
        metrics = {}
    correct = not failures and not problems and bool(metrics)

    import numpy

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{tag}.spans.jsonl"
    if args.trace:
        tracer.write(spans_path)
    report = {
        "returncode": 0,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "metrics": {
            name: {"value": value, "unit": unit, **extra}
            for name, (value, unit, extra) in metrics.items()
        },
        "grids": [
            {"grid": o.index, "seconds": o.seconds,
             "node_pulses": o.node_pulses, **o.info}
            for o in outcomes
        ],
        "cross_check": cross,
        "checker_self_test": {"corruptions": ["nan", "over_bound", "one_ulp"],
                              "missed": missed},
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "kernel_backend": cross.get("kernel_backend"),
            "neighbor_backend": cross.get("neighbor_backend"),
        },
        "workload": {
            "name": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, 1 caller",
            "specs": workload.specs[:attempted],
        },
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))

    for name, entry in report["metrics"].items():
        samples = entry.get("samples", "")
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']:16s} "
              f"n={samples}")
    for failure in failures:
        print(f"grid {failure['grid']} FAILED: {failure['problems']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"report: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
