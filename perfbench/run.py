"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload session-hot --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits ``--seconds`` into an untraced and a traced half and
reports the per-layer metrics (see ``perfbench/layers.json`` for which
end-to-end metric each one should move, on which workload).  Human-readable
lines come first; the last line of standard output is the JSON result.
The benchmark runs the code under ``src/`` of the checkout it sits in and
writes only below ``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """End the shared-memory tracker process the pool started, and reap it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Result:
    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, str]] = {}
        self.problems: List[str] = []
        #: Counts that are 0 in every fault-free run: printed and checked,
        #: not reported as metrics.
        self.must_be_zero: Dict[str, int] = {}
        #: Further named figures printed beside the metrics.
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)


def consistency(result: Result, phases, modelled) -> None:
    """Modelled accounting must agree between the pool and the Session, and
    a fault-free run must show no hazards, retries, respawns or fallbacks."""
    from workloads import FAULT_COUNTERS

    result.must_be_zero["serpens.hazard_violations"] = modelled["hazard_violations"]
    rounds = [r for phase in phases for r in phase.rounds]
    for name in FAULT_COUNTERS if rounds else ():
        result.must_be_zero[f"parallel.{name}"] = sum(r.faults[name] for r in rounds)
    for name, value in result.must_be_zero.items():
        if value:
            result.problems.append(f"{name} = {value}, must be 0")
    for one in rounds:
        if int(one.engine_cycles) != modelled["cycles"]:
            result.problems.append(
                f"pool counted {one.engine_cycles} cycles per trace pass, "
                f"Session {modelled['cycles']}"
            )
            return


def end_to_end(workload, args, result: Result):
    from measure import Tally, samples_beyond
    from workloads import (
        PASS_TAIL_PERCENTILE,
        SETUP_REPEATS,
        OutputCheck,
        timed_setup,
        x_vectors,
    )

    trace = workload.make_trace(args.seed)
    xs = x_vectors(trace)
    held, seconds = timed_setup(workload, trace)
    setups = [seconds]

    def one_more_setup() -> None:
        if len(setups) < SETUP_REPEATS:
            extra, took = timed_setup(workload, trace)
            workload.close(extra)
            setups.append(took)

    tally = Tally()
    try:
        check = OutputCheck(trace, xs)
        phase = workload.drive(
            held, trace, xs, args.seconds, "run", check, tally, between=one_more_setup
        )
    finally:
        workload.close(held)
    while len(setups) < SETUP_REPEATS:
        one_more_setup()
    modelled = check.modelled()
    consistency(result, [phase], modelled)

    latencies = phase.latencies_ms
    n = len(latencies)
    result.add("throughput_rps", phase.throughput_rps, "req/s", f"n={n}")
    result.add("latency_p50_ms", np.percentile(latencies, 50), "ms", f"n={n}")
    per_pass = len(trace.requests)
    result.add(
        f"latency_p{PASS_TAIL_PERCENTILE:g}_ms", np.median(phase.tails_ms), "ms",
        f"median over {len(phase.tails_ms)} passes of each pass's p{PASS_TAIL_PERCENTILE:g} "
        f"(n={per_pass} per pass, {samples_beyond(per_pass, PASS_TAIL_PERCENTILE)} beyond)",
    )
    result.add("setup_s", np.median(setups), "s", f"median of n={len(setups)}")
    result.add(
        "modelled_mteps", modelled["mteps"], "MTEPS",
        f"exact, n={len(trace.requests)} requests",
    )
    result.add("peak_rss_mb", peak_rss_mb(), "MB", "this process + largest worker")
    result.notes.append(
        f"pooled latency_p99_ms = {np.percentile(latencies, 99):.6g} ms "
        f"(n={n}, {samples_beyond(n, 99)} beyond; printed, not a metric: "
        "on session-hot it follows host stalls, not the program)"
    )
    return tally


def per_layer(workload, args, result: Result):
    from measure import Tally, unattributed_fraction
    from spans import SpanRecorder
    from workloads import (
        LAYER_PASS_SECONDS,
        PINGS_PER_WORKER,
        WORKERS,
        OutputCheck,
        PoolMixed,
        SessionHot,
        fresh_dir,
        modelled_service,
        pool_breakdown,
        timed_setup,
        x_vectors,
    )

    half = args.seconds / 2.0
    trace = workload.make_trace(args.seed)
    xs = x_vectors(trace)
    check = OutputCheck(trace, xs)
    tally = Tally()
    held, _ = timed_setup(workload, trace)
    try:
        untraced = workload.drive(held, trace, xs, half, "untraced", check, tally)
    finally:
        workload.close(held)

    recorder = SpanRecorder()
    in_process = isinstance(workload, SessionHot)
    # The pool layer is off session-hot's path: probe it on the same trace
    # with the pool-mixed configuration, outside the timed phase.
    pool_workload = PoolMixed() if in_process else workload
    events = fresh_dir(OUT / f"events-{workload.name}-seed{args.seed}") / "run"

    def traced_pool_phase(tag: str, seconds: float):
        with recorder.traced():
            pool, _ = timed_setup(pool_workload, trace, events_path=str(events))
        try:
            with recorder.traced():
                for _ in range(PINGS_PER_WORKER):
                    for worker in range(WORKERS):
                        pool.ping(worker)
                phase = pool_workload.drive(pool, trace, xs, seconds, tag, check, tally)
        finally:
            pool_workload.close(pool)
        return phase, pool.event_shard_paths()

    if in_process:
        with recorder.traced():
            held, _ = timed_setup(workload, trace)
            traced = workload.drive(held, trace, xs, half, "traced", check, tally)
        pool_phase, shards = traced_pool_phase("probe", 0.0)
        phases = [untraced, traced, pool_phase]
    else:
        traced, shards = traced_pool_phase("traced", half)
        pool_phase = traced
        # The Serpens and backends layers run inside the workers here: time
        # an in-process registration of the same trace, and launches of it
        # on the check's warm Session, as on session-hot.  Launches after the
        # pool's teardown read slow for a few seconds on the 2-vCPU host
        # this was tuned on, so the pass runs for several seconds.
        with recorder.traced():
            SessionHot().setup(trace)
            SessionHot().drive(
                check.resource, trace, xs, LAYER_PASS_SECONDS, "layers", check, tally
            )
        phases = [untraced, traced]
    recorder.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")

    modelled = check.modelled()
    consistency(result, phases, modelled)
    breakdown = pool_breakdown(shards, len(pool_phase.rounds))
    service = modelled_service(workload, trace)
    first_round = pool_phase.rounds[0]
    d = recorder.durations
    builds = [
        (end - start, attrs["nnz"])
        for (name, start, end, _), attrs in zip(recorder.spans, recorder.attrs)
        if name == "preprocess.build"
    ]
    busy = sum(breakdown["execute"]) / (
        WORKERS * sum(r.makespan_seconds for r in pool_phase.rounds)
    )
    add = result.add
    add("serpens.sim_init_ms_p50", np.median(d("serpens.sim_init")) * 1e3, "ms")
    add("serpens.sim_run_ms_p50", np.median(d("serpens.sim_run")) * 1e3, "ms")
    add("serpens.accel_run_ms_p50", np.median(d("serpens.accel_run")) * 1e3, "ms")
    add("backends.launch_ms_p50", np.median(d("backends.launch")) * 1e3, "ms")
    add("serpens.cycles_total", modelled["cycles"], "cycles", "exact")
    add("serpens.bytes_moved_total", modelled["bytes_moved"], "bytes", "exact, computed")
    add("preprocess.build_ms_p50", np.median([s for s, _ in builds]) * 1e3, "ms")
    add(
        "preprocess.build_mnnz_per_s",
        sum(n for _, n in builds) / sum(s for s, _ in builds) / 1e6, "Mnnz/s",
    )
    add("backends.register_ms_p50", np.median(d("backends.register")) * 1e3, "ms")
    add(
        "parallel.register_ms_p50",
        np.median(d("parallel.register", top_level_only=True)) * 1e3, "ms",
    )
    add("serve.cache_hits", service["cache_hits"], "count", "exact")
    add("serve.cache_misses", service["cache_misses"], "count", "exact")
    add("parallel.batches", first_round.batches, "count", "exact, per trace pass")
    add(
        "parallel.mean_batch_size",
        first_round.completed / first_round.batches, "requests", "exact",
    )
    add("serve.modelled_mean_batch_size", service["mean_batch_size"], "requests", "exact")
    add("serve.modelled_latency_p95_ms", service["latency_p95_ms"], "ms-modelled", "exact")
    add("parallel.ping_us_p50", np.median(d("parallel.ping")) * 1e6, "us")
    add("parallel.transport_ms_p50", np.median(breakdown["transport"]) * 1e3, "ms")
    add("parallel.queue_wait_ms_p50", np.median(breakdown["queue_wait"]) * 1e3, "ms")
    add("parallel.worker_queue_ms_p50", np.median(breakdown["worker_queue"]) * 1e3, "ms")
    add("parallel.worker_execute_ms_p50", np.median(breakdown["execute"]) * 1e3, "ms")
    add("parallel.worker_busy_frac", busy, "frac")
    add("parallel.start_s", np.median(d("parallel.start", top_level_only=True)), "s")
    ratio = traced.throughput_rps / untraced.throughput_rps
    add(
        "obs.traced_throughput_ratio", ratio, "ratio",
        f"untraced {untraced.throughput_rps:.2f} req/s, "
        f"traced {traced.throughput_rps:.2f} req/s",
    )
    add(
        "obs.unattributed_frac",
        unattributed_fraction(recorder.spans, recorder.windows), "frac",
    )
    result.notes.append(
        f"obs.trace_overhead_frac = 1 - obs.traced_throughput_ratio = {1.0 - ratio:.4f}"
        " (can be 0 or negative, so printed, not a metric)"
    )
    budget = recorder.self_time_budget()
    wall = sum(end - start for start, end in recorder.windows)
    print("  self time per layer span (share of traced wall time):")
    for name, seconds in sorted(budget.items(), key=lambda kv: -kv[1]):
        print(f"    {name:28s} {seconds:9.3f} s  {seconds / wall:6.1%}")
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result = Result()
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    try:
        measure = per_layer if args.trace else end_to_end
        tally = measure(workload, args, result)
    finally:
        stop_resource_tracker()
    counts = tally.summary()
    details = " ".join(
        f"{k}={v}" for k, v in counts.items() if k not in ("attempted", "succeeded", "failed")
    )
    print(
        f"  requests: attempted={counts['attempted']} succeeded={counts['succeeded']} "
        f"failed={counts['failed']} failed_frac={counts['failed'] / counts['attempted']:g}"
        f" ({details})"
    )
    print("  must be 0: " + " ".join(f"{k}={v}" for k, v in result.must_be_zero.items()))
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit, note) in result.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:8s} {note}")
    for note in result.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": counts["failed"] == 0 and not result.problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
