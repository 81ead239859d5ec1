"""The workloads, their output check and their layer breakdown.

* ``session-hot`` — one in-process ``Session`` launches the ``mixed``
  trace back to back (closed loop, one outstanding request).
* ``pool-mixed`` — a 2-worker ``WorkerPool`` (``max_batch=32``) serves the
  ``mixed`` trace at saturation, round after round.

Inputs come from ``generate_trace`` with the benchmark's seed; the program
under test only ever sees the generated matrices and vectors.  Answers are
checked a trace pass (session) or a round (pool) at a time, outside the
timed interval, and then dropped: only their tally and latencies are kept,
so the benchmark's own memory does not grow with the requests served.
"""

from __future__ import annotations

import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from measure import Tally, fp32_error_bound, tail_percentile

ENGINE = "serpens-a16"
WORKERS = 2
MAX_INFLIGHT = 2
#: Requests in the ``mixed`` trace that ``session-hot`` cycles through and
#: ``pool-mixed`` serves per round.
MIXED_REQUESTS = 240
#: The tail reported per trace pass or round: the highest percentile with
#: ``measure.TAIL_SAMPLES_BEYOND`` of its requests beyond it (p95 of 240).
PASS_TAIL_PERCENTILE = tail_percentile(MIXED_REQUESTS)
#: Releases every request of a saturation round at the round's start, so
#: the pool times latency from when the request was due.
SATURATION_SCALE = 1e-12
#: Set-ups per run; ``setup_s`` is their median.  One precedes the timed
#: phase and the rest run between its passes or rounds, so they sample the
#: host over most of the run rather than over one short window.
SETUP_REPEATS = 15
#: Explicit heartbeats per worker in a traced pool phase.
PINGS_PER_WORKER = 20
#: In-process launches that time the Serpens layers on pool-mixed.
LAYER_PASS_SECONDS = 6.0
#: ``WallClockReport`` counters that are 0 in every fault-free round.
FAULT_COUNTERS = ("retries", "respawns", "degraded_batches", "inline_requests")

#: (request id, trace index, y, reason the pool gave it up or None)
Answer = Tuple[Any, int, Optional[np.ndarray], Optional[str]]


@dataclass
class Round:
    """One pool round's counters, kept after its answers were dropped."""

    completed: int
    batches: int
    engine_cycles: float
    makespan_seconds: float
    faults: Dict[str, int]


@dataclass
class Phase:
    """What one timed phase took: latencies, pass rates and pool rounds."""

    latencies_ms: array = field(default_factory=lambda: array("d"))
    #: Throughput of each complete trace pass (session) or round (pool).
    rates: List[float] = field(default_factory=list)
    #: ``PASS_TAIL_PERCENTILE`` latency of each complete pass or round.
    tails_ms: List[float] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Median pass rate: a short stall of the host moves one pass only."""
        return float(np.median(self.rates))


def x_vectors(trace) -> List[np.ndarray]:
    return [
        trace.x_vector(r, trace.matrices[r.matrix_id].matrix.num_cols)
        for r in trace.requests
    ]


def first_requests(trace) -> Dict[int, int]:
    """Matrix id -> trace index of the first request for it."""
    first: Dict[int, int] = {}
    for index, request in enumerate(trace.requests):
        first.setdefault(request.matrix_id, index)
    return first


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
class OutputCheck:
    """Checks every ``y`` against the golden kernel, and one request per
    matrix bitwise against an in-process ``Session`` launch.

    The golden bound is :func:`measure.fp32_error_bound`, per output row.
    The check's own ``Session`` (:attr:`resource`, shaped like
    ``session-hot``'s) has launched every matrix once when it is built.
    """

    def __init__(self, trace, xs: List[np.ndarray]) -> None:
        self.trace = trace
        self.xs = xs
        self._golden: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: matrix id -> (trace index of its sample request, Session y, report)
        self.samples: Dict[int, Tuple[int, np.ndarray, Any]] = {}
        self.resource = SessionHot().setup(trace)
        session, handles = self.resource
        for matrix_id, index in sorted(first_requests(trace).items()):
            y, report = session.launch(handles[matrix_id], xs[index])
            self.samples[matrix_id] = (index, y, report)

    def _reference(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._golden.get(index)
        if cached is None:
            from repro.spmv import spmv

            matrix = self.trace.matrices[self.trace.requests[index].matrix_id].matrix
            x = self.xs[index]
            terms = np.bincount(matrix.rows, minlength=matrix.num_rows)
            abs_sum = np.bincount(
                matrix.rows,
                weights=np.abs(matrix.values * x[matrix.cols]),
                minlength=matrix.num_rows,
            )
            cached = (spmv(matrix, x), fp32_error_bound(terms, abs_sum))
            self._golden[index] = cached
        return cached

    def problem(self, index: int, y: Optional[np.ndarray]) -> Optional[str]:
        """Why ``y`` is not an acceptable answer to trace request ``index``."""
        if y is None:
            return "no_y"
        golden, bound = self._reference(index)
        if y.shape != golden.shape or not np.all(np.abs(y - golden) <= bound):
            return "wrong_y"
        sample = self.samples[self.trace.requests[index].matrix_id]
        if sample[0] == index and not (
            y.dtype == sample[1].dtype and np.array_equal(y, sample[1])
        ):
            return "not_bitwise"
        return None

    def settle(self, tally: Tally, sent: Sequence[Any], answers: List[Answer]) -> None:
        """Check a group of answers into ``tally``; the caller then drops them."""
        bad = {}
        for request_id, index, y, reason in answers:
            reason = reason or self.problem(index, y)
            if reason is not None:
                bad[request_id] = reason
        tally.settle(sent, [a[0] for a in answers], bad)

    def modelled(self) -> Dict[str, float]:
        """Exact modelled totals over one pass of the trace."""
        cycles = bytes_moved = hazards = edges = 0
        frequency = 0.0
        for request in self.trace.requests:
            _, _, report = self.samples[request.matrix_id]
            cycles += int(report.cycles)
            bytes_moved += int(report.bytes_moved)
            hazards += int(report.extra.get("hazard_violations", 0))
            edges += int(report.nnz)
            frequency = report.frequency_mhz
        return {
            "cycles": cycles,
            "bytes_moved": bytes_moved,
            "hazard_violations": hazards,
            # edges / (cycles / f) in millions of edges per second.
            "mteps": edges * frequency / cycles,
        }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common shape: a trace from the seed, a set-up, a timed drive.

    ``max_batch`` and ``devices`` also configure the virtual-time reference
    run (:func:`modelled_service`) on the same trace.
    """

    name = ""
    max_batch = 1
    devices = 1

    def make_trace(self, seed: int):
        from repro.serve.loadgen import generate_trace

        return generate_trace("mixed", MIXED_REQUESTS, seed=seed)


class SessionHot(Workload):
    name = "session-hot"

    def setup(self, trace, events_path=None):
        from repro.backends import Session

        session = Session(ENGINE)
        handles = [session.register(w.matrix, w.name) for w in trace.matrices]
        return session, handles

    def close(self, resource) -> None:
        pass

    def drive(self, resource, trace, xs, seconds, tag, check, tally, between=None) -> Phase:
        """Launch the trace back to back for ``seconds``, at least one pass;
        ``between()`` runs after each pass, outside the timed interval."""
        session, handles = resource
        # A hot session has launched every matrix before: the first launch
        # of a matrix pays one-off lazy set-up, which is not timed here.
        for matrix_id, index in first_requests(trace).items():
            session.launch(handles[matrix_id], xs[index])
        phase = Phase()
        count = len(trace.requests)
        answers: List[Answer] = []

        def settle() -> None:
            check.settle(tally, [a[0] for a in answers], answers)
            answers.clear()

        started = pass_started = now = time.perf_counter()
        deadline = started + seconds
        ordinal = 0
        while now < deadline or ordinal < count:
            index = ordinal % count
            request = trace.requests[index]
            launched_at = time.perf_counter()
            y, _ = session.launch(handles[request.matrix_id], xs[index])
            now = time.perf_counter()
            phase.latencies_ms.append((now - launched_at) * 1e3)
            answers.append(((tag, ordinal), index, y, None))
            ordinal += 1
            if ordinal % count == 0:
                phase.rates.append(count / (now - pass_started))
                phase.tails_ms.append(
                    float(np.percentile(phase.latencies_ms[-count:], PASS_TAIL_PERCENTILE))
                )
                settle()
                if between is not None:
                    between()
                pass_started = now = time.perf_counter()
        settle()
        return phase


class PoolMixed(Workload):
    name = "pool-mixed"
    max_batch = 32
    devices = WORKERS

    def setup(self, trace, events_path=None):
        from repro.parallel import WorkerPool

        pool = WorkerPool(
            num_workers=WORKERS,
            engines=ENGINE,
            compute="simulate",
            max_batch=self.max_batch,
            max_inflight=MAX_INFLIGHT,
            scenario=self.name,
            events_path=events_path,
        )
        try:
            pool.start()
            for workload in trace.matrices:
                pool.register(workload.matrix, workload.name)
        except BaseException:
            pool.shutdown()
            raise
        return pool

    def close(self, pool) -> None:
        pool.shutdown()

    def _round(self, pool, trace, tag, check, tally, phase: Phase) -> None:
        report = pool.run_trace(trace, open_loop=True, arrival_scale=SATURATION_SCALE)
        answers: List[Answer] = []
        latencies_ms = []
        for result in report.results:
            reason = "shed" if result.shed else ("inline" if result.worker_id < 0 else None)
            answers.append(((tag, result.request_id), result.request_id, result.y, reason))
            if not result.shed:
                latencies_ms.append(result.latency_seconds * 1e3)
        check.settle(tally, [(tag, i) for i in range(len(trace.requests))], answers)
        completed = len(report.completed)
        phase.latencies_ms.extend(latencies_ms)
        phase.rates.append(completed / report.makespan_seconds)
        phase.tails_ms.append(float(np.percentile(latencies_ms, PASS_TAIL_PERCENTILE)))
        phase.rounds.append(Round(
            completed=completed,
            batches=report.batches,
            engine_cycles=report.engine_cycles,
            makespan_seconds=report.makespan_seconds,
            faults={name: int(getattr(report, name)) for name in FAULT_COUNTERS},
        ))

    def drive(self, pool, trace, xs, seconds, tag, check, tally, between=None) -> Phase:
        """Saturation rounds for ``seconds``, at least one; ``between()``
        runs after each round, outside the timed interval."""
        # One untimed round first: each worker's first launch of a matrix
        # pays one-off lazy set-up, as in session-hot.
        self._round(pool, trace, (tag, "warm-up"), check, tally, Phase())
        phase = Phase()
        started = time.perf_counter()
        while not phase.rounds or time.perf_counter() - started < seconds:
            self._round(pool, trace, (tag, len(phase.rounds)), check, tally, phase)
            if between is not None:
                between()
        return phase


WORKLOADS = {cls.name: cls for cls in (SessionHot, PoolMixed)}


def timed_setup(workload, trace, events_path=None) -> Tuple[Any, float]:
    """Set the workload up once; seconds from construction to registered."""
    started = time.perf_counter()
    resource = workload.setup(trace, events_path)
    return resource, time.perf_counter() - started


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Layer breakdown from the pool's event shards
# ----------------------------------------------------------------------
def pool_breakdown(shard_paths, rounds_kept: int) -> Dict[str, List[float]]:
    """Per-batch transport, worker queue and execute times, and per-request
    queue wait, in seconds.

    ``transport`` is the ``reply`` event's dispatch-to-reply latency minus
    the worker's ``execute`` span; ``worker_queue`` is the part of it before
    the worker picked the batch up (the start of its ``batch`` span).

    A round starts at the pool's ``enqueue`` burst (batch 0 first); its
    last ``enqueue`` is stamped just before the pool starts the clock, when
    every request of the round is due, so a request's queue wait is its
    batch's dispatch time minus that stamp.
    """
    from repro.obs import MergedEvents

    merged = MergedEvents.load(shard_paths)
    pool_records = sorted(
        (r for r in merged.records if r.get("source") == "pool"),
        key=lambda r: r["seq"],
    )
    rounds: List[Dict[str, Any]] = []
    for record in pool_records:
        kind = record["kind"]
        if kind == "enqueue":
            if record["batch"] == 0:
                rounds.append(
                    {"enqueue": [], "dispatch": {}, "reply": {}, "execute": {}, "batch": {}}
                )
            rounds[-1]["enqueue"].append(record)
        elif kind == "dispatch":
            rounds[-1]["dispatch"].setdefault(record["batch"], record["wall"])
        elif kind == "reply":
            rounds[-1]["reply"].setdefault(record["batch"], record)
    starts = [r["enqueue"][-1]["wall"] for r in rounds]
    for record in merged.spans():
        name = record.get("name")
        if name not in ("execute", "batch") or not record["source"].startswith("worker"):
            continue
        which = max(i for i, start in enumerate(starts) if start <= record["wall"])
        rounds[which][name].setdefault(record["batch"], record)

    # Earlier rounds in the shards are warm-up rounds of the same pool.
    starts, rounds = starts[-rounds_kept:], rounds[-rounds_kept:]
    out: Dict[str, List[float]] = {
        "transport": [], "worker_queue": [], "execute": [], "queue_wait": []
    }
    for start, one in zip(starts, rounds):
        for record in one["enqueue"]:
            batch = record["batch"]
            dispatched = one["dispatch"][batch]
            execute = one["execute"][batch]["dur"]
            picked_up = one["batch"][batch]["wall"] - one["batch"][batch]["dur"]
            out["queue_wait"] += [dispatched - start] * record["requests"]
            out["execute"].append(execute)
            out["transport"].append(one["reply"][batch]["latency_s"] - execute)
            out["worker_queue"].append(picked_up - dispatched)
    return out


def modelled_service(workload, trace) -> Dict[str, float]:
    """Reference values from the virtual-time service on the same trace."""
    from repro.serve import SpMVService

    service = SpMVService(
        num_devices=workload.devices,
        config=ENGINE,
        compute="none",
        max_batch=workload.max_batch,
    )
    report = service.run_trace(trace)
    return {
        "mean_batch_size": report.scheduler_stats["mean_batch_size"],
        "latency_p95_ms": report.telemetry.snapshot()["latency_p95_ms"],
        "cache_hits": report.cache_stats["hits"],
        "cache_misses": report.cache_stats["misses"],
    }
