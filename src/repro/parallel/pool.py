"""Wall-clock concurrent serving over a pool of engine worker processes.

Where :class:`~repro.serve.SpMVService` answers *modelled* capacity questions
in virtual time, :class:`WorkerPool` measures the real thing: it fans a load
trace out to N :mod:`repro.parallel.worker` processes, ships matrices and
prebuilt programs over shared memory (:mod:`repro.parallel.shm`), and reports
measured wall-clock latency percentiles and aggregate throughput next to the
modelled numbers.

Batches are formed by *release-step batching*: every step of the run loop
releases the requests that have come due and groups them by matrix, oldest
first, in chunks of ``max_batch``, through the same FIFO
:class:`~repro.serve.Scheduler` the virtual-time service batches with.  A
resident matrix is then streamed once for as many vectors as are waiting
for it, and no request is ever served before it is due.

Wall-clock mode drives load two ways.  The default is a *saturation*
benchmark: arrival gaps are not replayed — every request is due at the
first step, batches are dispatched as worker inflight slots free, and a
request's latency is measured from its batch's dispatch to its result
arriving back, so makespan and throughput measure the pool at full load,
the regime the paper's bandwidth argument is about.
``run_trace(..., open_loop=True)`` instead makes each request due at its
recorded arrival time (stretchable via ``arrival_scale``) and measures its
latency from that due time, so queueing, deadlines and shedding reflect the
trace's arrival process.

The control plane keeps vectors out of messages, as Serpens keeps x and y
on their own HBM channels apart from the instruction stream.  Each worker
slot holds one duplex :class:`~multiprocessing.connection.Connection`, and
the run loop waits on every live worker's connection and process sentinel
at once (:func:`multiprocessing.connection.wait`), so a reply and a death
both wake it and nothing polls.  Each run shares one vector arena
(:func:`~repro.parallel.shm.share_vectors`): a request's x is copied in
when it is released, the worker writes its y in place, and the y is copied
out when its batch completes; the arena is unlinked when the run ends.  A
message therefore carries ids and shm descriptors only — a few hundred
bytes, written in one ``write`` — so neither end can block half-way through
one, and two ends sending at once cannot deadlock.

Robustness, because real processes die:

* each worker is health-checked (a ping heartbeat on spawn and respawn, its
  pipe's EOF and its process sentinel) and every inflight batch carries a
  deadline,
* a dead or wedged worker is respawned, its matrices re-registered, and its
  lost batches re-dispatched under a configurable
  :class:`~repro.resilience.RetryPolicy` (attempt cap, backoff + jitter,
  retry budget, optional hedging of stragglers),
* repeated failures trip a per-worker
  :class:`~repro.resilience.CircuitBreaker` (closed/open/half-open with
  probe re-admission) consulted at dispatch, so the pool routes around sick
  workers instead of feeding them,
* a batch that exhausts its attempts — or the whole pool failing to start —
  degrades to inline execution in the parent, so no request is ever lost,
* duplicate results (a worker that replied and *then* died mid-batch, or a
  hedge racing its original) are deduplicated by batch id, and every batch
  carries the pool's run counter, so a late reply from an earlier run is
  dropped rather than taken for this run's batch of the same id; no
  request is ever double-counted or answered with another's ``y``,
* requests whose deadline (``run_trace(..., deadline_s=...)``) has already
  expired at dispatch time are shed explicitly rather than served late.

Fault injection is declarative: pass a
:class:`~repro.resilience.FaultPlan` (``fault_plan=``) and each worker gets
its resolved share of the plan's crash/hang/slow/attach-failure/reply-drop
specs.  All resilience types are reached lazily (function-scoped imports),
keeping the layer DAG acyclic.

Per-worker shard :class:`~repro.obs.ResultsStore` databases are merged into
one store on shutdown via :meth:`~repro.obs.ResultsStore.merge`.
"""

from __future__ import annotations

import multiprocessing
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..backends import DEFAULT_ENGINE, PreparedMatrix, SpMVEngine, resolve
from ..formats import COOMatrix
from ..preprocess import SerpensProgram
from ..serve.cache import matrix_fingerprint
from ..serve.loadgen import LoadTrace
from ..serve.scheduler import Request, Scheduler
from ..spmv import spmv
from .shm import (
    ShmBlock,
    ShmDescriptor,
    share_coo,
    share_program,
    share_vectors,
    vector_slot,
)
from .worker import BatchResult, WorkBatch, WorkerConfig, worker_main

__all__ = ["WallClockReport", "WallClockResult", "WorkerPool", "install_monitor"]

#: Optional concurrency monitor (duck-typed: ``wait_started``/``wait_finished``
#: and ``section``).  The sanitizer in repro.analysis installs itself here;
#: this module never imports analysis.
_MONITOR = None


def install_monitor(monitor) -> None:
    """Install (or with ``None`` remove) the pool concurrency monitor."""
    global _MONITOR
    _MONITOR = monitor


class _NullSection:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL_SECTION = _NullSection()


def _mon_section(name: str):
    return _NULL_SECTION if _MONITOR is None else _MONITOR.section(name)


def _mon_wait_start(kind: str, timeout: float):
    return None if _MONITOR is None else _MONITOR.wait_started(kind, timeout)


def _mon_wait_end(token) -> None:
    if token is not None and _MONITOR is not None:
        _MONITOR.wait_finished(token)


@dataclass
class WallClockResult:
    """One request's measured outcome."""

    request_id: int
    matrix_name: str
    tenant: str
    worker_id: int  # -1 when executed inline in the parent
    y: Optional[np.ndarray]
    latency_seconds: float
    batch_size: int
    #: Shed (deadline expired before dispatch): ``y`` is None and the
    #: latency is the age at the shed decision, not a service time.
    shed: bool = False
    shed_reason: str = ""


@dataclass
class WallClockReport:
    """Everything one wall-clock run measured."""

    scenario: str
    num_workers: int
    compute: str
    engine: str
    results: List[WallClockResult]
    makespan_seconds: float
    engine_cycles: float
    traversed_edges: float
    batches: int
    retries: int
    respawns: int
    inline_requests: int
    prepare_count: int
    #: Batches that fell back to inline execution in the parent (retry
    #: attempts exhausted, worker error, or breaker starvation guard).
    degraded_batches: int = 0
    #: Requests shed because their deadline expired before dispatch.
    deadline_misses: int = 0
    shed_requests: int = 0
    #: Straggler batches duplicated onto a second worker.
    hedges: int = 0
    #: Fault specs in the installed plan (0 = fault-free run).
    faults_planned: int = 0
    #: Batches of this run shed whole (deadline expired before dispatch).
    shed_batches: int = 0

    def latencies(self) -> List[float]:
        return [r.latency_seconds for r in self.results if not r.shed]

    @property
    def completed(self) -> List[WallClockResult]:
        return [r for r in self.results if not r.shed]

    def snapshot(self) -> Dict[str, float]:
        """Measured metrics under the telemetry snapshot's names.

        Mirrors :meth:`repro.serve.ServiceTelemetry.snapshot` keys where the
        quantities correspond, so modelled and measured runs land in the same
        columns of a results store.
        """
        completed = self.completed
        latencies_ms = sorted(r.latency_seconds * 1e3 for r in completed)
        span = max(self.makespan_seconds, 1e-12)
        served_batches = self.batches - self.shed_batches

        def percentile(fraction: float) -> float:
            if not latencies_ms:
                return 0.0
            return float(np.percentile(latencies_ms, fraction))

        return {
            "completed": float(len(completed)),
            "latency_p50_ms": percentile(50),
            "latency_p95_ms": percentile(95),
            "latency_p99_ms": percentile(99),
            "throughput_rps": len(completed) / span,
            "aggregate_mteps": self.traversed_edges / span / 1e6,
            "makespan_seconds": self.makespan_seconds,
            # Served requests over served batches: shed batches serve none.
            "mean_batch_size": (
                len(completed) / served_batches if served_batches else 0.0
            ),
            "engine_cycles_total": self.engine_cycles,
            "workers": float(self.num_workers),
            "retries": float(self.retries),
            "respawns": float(self.respawns),
            "inline_requests": float(self.inline_requests),
            "prepare_count": float(self.prepare_count),
            "degraded_batches": float(self.degraded_batches),
            "deadline_misses": float(self.deadline_misses),
            "shed_requests": float(self.shed_requests),
            "hedges": float(self.hedges),
            "faults_planned": float(self.faults_planned),
        }


@dataclass
class _Registered:
    """Parent-side record of one matrix shared with the workers."""

    key: str
    name: str
    matrix: COOMatrix
    home: int
    coo_block: ShmBlock
    #: engine name -> shared prebuilt program (Serpens engines only).
    program_blocks: Dict[str, ShmBlock] = field(default_factory=dict)
    #: engine name -> parent-side payload for inline fallback execution.
    payloads: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Slot:
    """One worker slot; the process in it may be respawned."""

    worker_id: int
    engine: str
    process: Optional[multiprocessing.Process] = None
    #: The pool's end of the duplex pipe to the process.
    conn: Any = None
    #: Set when the process is found dead (its pipe closed or its sentinel
    #: fired); cleared by a respawn.
    dead: bool = False
    placed_nnz: int = 0
    respawns: int = 0


@dataclass
class _BatchState:
    """Lifecycle of one dispatched batch."""

    batch: WorkBatch
    worker_id: int
    #: (request_id, tenant, due time as an absolute ``perf_counter``)
    requests: List[Tuple[int, str, float]]
    matrix: _Registered
    #: The requests' x vectors (the inline path computes from these).
    xs: Tuple[np.ndarray, ...] = ()
    enqueued_at: float = 0.0
    #: Dispatches so far (the RetryPolicy's attempt counter).
    attempts: int = 0
    #: Retry backoff: not dispatchable before this ``perf_counter`` time.
    not_before: float = 0.0
    #: Absolute deadline; past it the batch is shed instead of dispatched.
    deadline_at: Optional[float] = None
    hedged: bool = False
    shed: bool = False


class _Releaser:
    """Release-step batching for one :meth:`WorkerPool.run_trace`.

    Each request carries its due time as an offset from the run's start in
    ``Request.arrival_time`` (0 in saturation mode).  :meth:`release` admits
    every request due by ``now`` into a FIFO
    :class:`~repro.serve.Scheduler` and drains it, so the requests released
    in one step are grouped by matrix, oldest first, in chunks of
    ``max_batch``; each formed batch gets the next id (0..B-1 per run),
    the pool's ``run`` counter, the run's vector ``arena`` and an
    ``enqueue`` event.
    """

    def __init__(
        self,
        requests: List[Request],
        entries: Mapping[str, _Registered],
        max_batch: int,
        deadline_s: Optional[float],
        emit,
        run: int,
        arena: Optional[ShmDescriptor],
    ) -> None:
        # Stable sort: requests due together keep their trace order.
        self._requests = sorted(requests, key=lambda r: r.arrival_time)
        self._entries = entries
        self._scheduler = Scheduler(policy="fifo", max_batch=max_batch)
        self._deadline_s = deadline_s
        self._emit = emit
        self._run = run
        self._arena = arena
        self._cursor = 0
        self.started = 0.0
        self.batches: List[_BatchState] = []

    def next_due(self) -> Optional[float]:
        """Due time of the next unreleased request, ``None`` when none."""
        if self._cursor == len(self._requests):
            return None
        return self.started + self._requests[self._cursor].arrival_time

    def release(self, now: float) -> List[_BatchState]:
        """Batch every request due by ``now`` that is not yet released."""
        requests = self._requests
        while (
            self._cursor < len(requests)
            and self.started + requests[self._cursor].arrival_time <= now
        ):
            self._scheduler.admit(requests[self._cursor])
            self._cursor += 1
        formed: List[_BatchState] = []
        while True:
            members = self._scheduler.next_batch()
            if not members:
                return formed
            entry = self._entries[members[0].fingerprint]
            state = _BatchState(
                batch=WorkBatch(
                    batch_id=len(self.batches),
                    matrix_key=entry.key,
                    request_ids=tuple(r.request_id for r in members),
                    run=self._run,
                    arena=self._arena,
                ),
                worker_id=entry.home,
                requests=[
                    (r.request_id, r.tenant, self.started + r.arrival_time)
                    for r in members
                ],
                matrix=entry,
                xs=tuple(r.x for r in members),
            )
            if self._deadline_s is not None:
                # The budget runs from the oldest member's due time.
                state.deadline_at = state.requests[0][2] + self._deadline_s
            self.batches.append(state)
            formed.append(state)
            self._emit(
                "enqueue",
                batch=state.batch.batch_id,
                matrix=entry.name,
                requests=len(members),
                home=entry.home,
            )


def _batch_results(
    state: _BatchState,
    ys: Sequence[Optional[np.ndarray]],
    worker_id: int,
    now: float,
    open_loop: bool,
    shed_reason: str = "",
) -> List[WallClockResult]:
    """One result per request of a resolved batch.

    Open-loop latency runs from each request's own due time; saturation
    latency from the batch's (last) dispatch.
    """
    return [
        WallClockResult(
            request_id=request_id,
            matrix_name=state.matrix.name,
            tenant=tenant,
            worker_id=worker_id,
            y=y,
            latency_seconds=max(
                0.0, now - (due_at if open_loop else state.enqueued_at or now)
            ),
            batch_size=len(state.requests),
            shed=bool(shed_reason),
            shed_reason=shed_reason,
        )
        for (request_id, tenant, due_at), y in zip(state.requests, ys)
    ]


class WorkerPool:
    """Shards SpMV requests across engine worker processes.

    Parameters
    ----------
    num_workers:
        Worker process count; ``0`` serves everything inline in the parent
        (the degraded mode the pool also falls back to on repeated failure).
    engines:
        One engine registry name for the whole pool, or one per worker
        (cycled when shorter than ``num_workers``).
    compute:
        ``"simulate"`` (engine datapath, default), ``"reference"`` (golden
        numpy kernel) or ``"none"``; the same modes the virtual-time service
        takes, so measured and modelled runs compute identical numerics.
    max_batch / max_inflight:
        Largest same-matrix batch, and the bound on batches queued per
        worker at once (backpressure, so a slow worker does not hoard work).
    batch_timeout:
        Seconds after which an unanswered batch declares its worker wedged.
        A ``fault_plan`` carrying its own ``batch_timeout`` hint tightens
        this (the plan pins the experiment, not every invocation).
    results_path:
        Merged results database; per-worker shards are written next to it as
        ``<path>.shard<N>`` and folded in on :meth:`shutdown`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; each worker receives
        its resolved share of the plan's specs.
    retry_policy:
        ``"default"`` builds a :class:`~repro.resilience.RetryPolicy` with
        the historical behaviour (one retry, no backoff); pass a policy to
        customise attempts/backoff/budget/hedging.
    breaker:
        ``"default"`` gives every worker a
        :class:`~repro.resilience.CircuitBreaker`; ``None`` disables
        breaking; a mapping ``{worker_id: CircuitBreaker}`` installs custom
        ones.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` (duck-typed); each
        :meth:`run_trace` publishes its snapshot (``wallclock_*``) plus
        per-worker ``breaker_state`` gauges into it.
    events_path:
        Prefix for the run's event shards (see :mod:`repro.obs.events`).
        The pool writes ``<prefix>.pool.jsonl``; each worker incarnation
        writes ``<prefix>.worker<N>.g<G>.jsonl`` beside it.  Every batch
        lifecycle step and resilience decision (retry/hedge/breaker
        transition/shed/respawn/injected fault) becomes a structured
        event; :class:`repro.obs.MergedEvents` aligns the shards into one
        timeline afterwards.  ``None`` (default) disables event logging —
        the obs layer is then never imported from here.
    """

    def __init__(
        self,
        num_workers: int = 2,
        engines: Optional[Sequence[str]] = None,
        compute: str = "simulate",
        max_batch: int = 8,
        max_inflight: int = 2,
        batch_timeout: float = 120.0,
        spawn_timeout: float = 60.0,
        results_path: Optional[str] = None,
        scenario: str = "adhoc",
        start_method: Optional[str] = None,
        fault_plan=None,
        retry_policy="default",
        breaker="default",
        metrics=None,
        events_path: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if compute not in ("simulate", "reference", "none"):
            raise ValueError(f"unknown compute mode {compute!r}")
        if isinstance(engines, str):
            engines = [engines]
        names = list(engines) if engines else [DEFAULT_ENGINE]
        # Function-scoped import: the parallel layer reaches resilience only
        # through this lazy edge (see analysis/layers.toml).
        from ..resilience.policy import CircuitBreaker, RetryPolicy

        self._plan = fault_plan
        if fault_plan is not None and fault_plan.batch_timeout is not None:
            batch_timeout = min(batch_timeout, fault_plan.batch_timeout)
        self.num_workers = num_workers
        self.compute = compute
        self.max_batch = max(1, max_batch)
        self.max_inflight = max(1, max_inflight)
        self.batch_timeout = batch_timeout
        self.spawn_timeout = spawn_timeout
        self.results_path = results_path
        self.scenario = scenario
        self.retry_policy = (
            RetryPolicy() if retry_policy == "default" or retry_policy is None
            else retry_policy
        )
        if breaker == "default":
            self._breakers = {
                i: CircuitBreaker(
                    failure_threshold=3, cooldown_seconds=2.0, name=f"worker-{i}"
                )
                for i in range(num_workers)
            }
        else:
            self._breakers = dict(breaker or {})
        self._metrics = metrics
        self.events_path = events_path
        self._events = None
        # Breaker transitions become first-class events via the breakers'
        # duck-typed observer hook (resilience never imports obs for this).
        for worker_id, brk in self._breakers.items():
            if getattr(brk, "observer", None) is None:
                brk.observer = self._breaker_observer(worker_id)
        self._ctx = multiprocessing.get_context(
            start_method
            or ("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        )
        self._slots = [
            _Slot(worker_id=i, engine=names[i % len(names)])
            for i in range(num_workers)
        ]
        self._registered: Dict[str, _Registered] = {}
        self._inline_engines: Dict[str, SpMVEngine] = {}
        self._started = False
        #: Runs so far; stamped on every batch and echoed in its reply.
        self._runs = 0
        self._closed = False
        self.retries = 0
        self.respawns = 0
        self.inline_requests = 0
        self.degraded_batches = 0
        self.deadline_misses = 0
        self.shed_requests = 0
        self.hedges = 0

    # ------------------------------------------------------------------
    # Event logging (lazy obs edge)
    # ------------------------------------------------------------------
    def _open_events(self) -> None:
        if self._events is not None or self.events_path is None:
            return
        # Function-scoped import: obs is only reached when event logging
        # was actually requested (see analysis/layers.toml).
        from ..obs.events import EventLog

        self._events = EventLog(
            f"{self.events_path}.pool.jsonl",
            source="pool",
            meta={
                "scenario": self.scenario,
                "workers": self.num_workers,
                "compute": self.compute,
            },
        )

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)

    def _breaker_observer(self, worker_id: int):
        kinds = {"open": "breaker_open", "half-open": "breaker_half_open",
                 "closed": "breaker_close"}

        def observe(breaker, old_state: str, new_state: str) -> None:
            self._emit(
                kinds.get(new_state, "breaker_open"),
                worker=worker_id,
                old_state=old_state,
                consecutive_failures=breaker.consecutive_failures,
                trips=breaker.trips,
            )

        return observe

    def _worker_events_path(self, worker_id: int, generation: int) -> Optional[str]:
        """Shard path for one worker incarnation.

        The generation is part of the name so a respawned worker never
        truncates its dead predecessor's shard — the pre-crash records are
        evidence the merged timeline must keep.
        """
        if self.events_path is None:
            return None
        return f"{self.events_path}.worker{worker_id}.g{generation}.jsonl"

    def event_shard_paths(self) -> List[Path]:
        """Every event shard this run has written so far (pool + workers)."""
        if self.events_path is None:
            return []
        prefix = Path(self.events_path)
        return sorted(prefix.parent.glob(f"{prefix.name}.*.jsonl"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn and health-check every worker (idempotent)."""
        self._open_events()
        if self._started or not self.num_workers:
            self._started = True
            return
        # The resource tracker must exist BEFORE the first fork: children
        # then inherit the parent's tracker instead of lazily starting their
        # own on first shm attach.  A worker-private tracker is a time bomb —
        # when that worker dies, its tracker treats every segment the worker
        # ever attached as leaked and unlinks them out from under the pool.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - private API drift
            pass
        for slot in self._slots:
            self._spawn(slot)
        self._started = True

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _shard_path(self, worker_id: int) -> Optional[str]:
        if self.results_path is None:
            return None
        return f"{self.results_path}.shard{worker_id}"

    def _spawn(self, slot: _Slot) -> None:
        """Start (or restart) the process in a slot and wait until healthy."""
        faults: Tuple[Any, ...] = ()
        if self._plan is not None:
            faults = self._plan.faults_for_worker(slot.worker_id, self.num_workers)
        config = WorkerConfig(
            worker_id=slot.worker_id,
            engine=slot.engine,
            compute=self.compute,
            results_path=self._shard_path(slot.worker_id),
            scenario=self.scenario,
            faults=faults,
            generation=slot.respawns,
            events_path=self._worker_events_path(slot.worker_id, slot.respawns),
        )
        slot.conn, child_end = self._ctx.Pipe()
        slot.process = self._ctx.Process(
            target=worker_main,
            args=(config, child_end),
            daemon=True,
            name=f"repro-worker-{slot.worker_id}",
        )
        slot.process.start()
        # The worker now holds the only other end: its death reads as EOF.
        child_end.close()
        slot.dead = False
        self._await(slot, ("ready",), self.spawn_timeout)
        self.ping(slot.worker_id)

    def ping(self, worker_id: int, timeout: Optional[float] = None) -> bool:
        """Heartbeat one worker; raises ``TimeoutError`` when it is gone."""
        slot = self._slots[worker_id]
        token = uuid.uuid4().hex
        if not self._send(slot, ("ping", token)):
            raise TimeoutError(f"worker {worker_id} is gone")
        self._await(
            slot,
            ("pong",),
            timeout if timeout is not None else self.spawn_timeout,
            lambda msg: msg[2] == token,
        )
        return True

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop workers, merge shard result stores, release shared memory."""
        if self._closed:
            return
        self._closed = True
        shard_paths: List[str] = []
        if self._started and self.num_workers:
            waiting = [
                slot
                for slot in self._slots
                if not slot.dead and self._send(slot, ("stop",))
            ]
            deadline = time.monotonic() + timeout
            for slot in waiting:
                try:
                    msg = self._await(
                        slot, ("stopped",), max(0.1, deadline - time.monotonic())
                    )
                    if msg[2]:
                        shard_paths.append(msg[2])
                except TimeoutError:
                    pass
            for slot in self._slots:
                if slot.process is not None:
                    # Joins share the caller's overall deadline: shutdown of
                    # a pool of N hung workers must cost ~`timeout`, not 5*N.
                    slot.process.join(
                        timeout=min(5.0, max(0.1, deadline - time.monotonic()))
                    )
                    if slot.process.exitcode is None:  # pragma: no cover - stragglers
                        slot.process.terminate()
                        slot.process.join(
                            timeout=min(5.0, max(0.1, deadline - time.monotonic()))
                        )
                if slot.conn is not None:
                    slot.conn.close()
        self._merge_shards(shard_paths)
        if self._events is not None:
            self._events.close()
        for entry in self._registered.values():
            entry.coo_block.unlink()
            for block in entry.program_blocks.values():
                block.unlink()
        self._registered.clear()

    def _merge_shards(self, shard_paths: List[str]) -> None:
        if self.results_path is None:
            return
        from ..obs.results import ResultsStore

        with ResultsStore(self.results_path) as store:
            for shard in sorted(shard_paths):
                if Path(shard).exists():
                    store.merge(shard)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        matrix: COOMatrix,
        name: str,
        hint: Optional[Sequence[str]] = None,
    ) -> str:
        """Share a matrix (and prebuilt programs) with every worker.

        ``hint`` is a router-style preference list of engine names: the home
        worker — the one the matrix's batches are dispatched to — is the
        least-loaded (by placed nnz) worker whose engine matches a hinted
        name, falling back to every worker when none matches (a hint is
        advice, not a constraint, same as the virtual pool's placement).
        Returns the matrix key used by :meth:`run_trace` internals.
        """
        self.start()
        key = matrix_fingerprint(matrix)
        if key in self._registered:
            return key
        prepare_started = time.perf_counter()
        entry = _Registered(
            key=key,
            name=name,
            matrix=matrix,
            home=self._place(matrix, hint),
            coo_block=share_coo(matrix),
        )
        if self.compute == "simulate":
            for engine_name in {slot.engine for slot in self._slots} or {""}:
                if not engine_name:
                    continue
                payload = self._inline_engine(engine_name).build_payload(matrix)
                entry.payloads[engine_name] = payload
                if isinstance(payload, SerpensProgram):
                    entry.program_blocks[engine_name] = share_program(payload)
        self._registered[key] = entry
        for slot in self._slots:
            self._register_with_worker(slot, entry)
        if self._events is not None:
            # Pool-side prepare: sharing the matrix + building the parent
            # payloads + fanning registration out to every worker.
            self._events.span(
                "prepare",
                time.perf_counter() - prepare_started,
                matrix=name,
                key=key,
                home=entry.home,
            )
        return key

    def _place(self, matrix: COOMatrix, hint: Optional[Sequence[str]]) -> int:
        if not self._slots:
            return -1
        candidates = self._slots
        if hint:
            wanted = {name.strip().lower() for name in hint}
            hinted = [s for s in candidates if s.engine.lower() in wanted]
            if hinted:
                candidates = hinted
        home = min(candidates, key=lambda s: (s.placed_nnz, s.worker_id))
        home.placed_nnz += matrix.nnz
        return home.worker_id

    def _register_with_worker(self, slot: _Slot, entry: _Registered) -> bool:
        """Register one matrix with one worker; retry once on a reported error.

        A registration error (e.g. an shm attach failure on a respawned
        worker) is retried once — transient attach failures usually clear —
        and a second failure marks the worker sick on its breaker so
        placement routes around it.  Returns whether the worker holds the
        matrix.
        """
        program_block = entry.program_blocks.get(slot.engine)
        task = (
            "register",
            entry.key,
            entry.name,
            entry.coo_block.descriptor,
            None if program_block is None else program_block.descriptor,
        )
        for _attempt in range(2):
            if not self._send(slot, task):
                break
            try:
                msg = self._await(
                    slot,
                    ("registered", "error"),
                    self.spawn_timeout,
                    lambda m: (
                        m[2] == entry.key if m[0] == "registered" else m[2] is None
                    ),
                )
            except TimeoutError:
                # Crashed (or wedged) during prepare: no reply will ever
                # come.  Mark it sick and move on — the run loop's health
                # pass respawns the worker and re-registers everything.
                break
            if msg[0] == "registered":
                return True
        self._record_worker_failure(slot.worker_id)
        return False

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _record_worker_failure(self, worker_id: int) -> None:
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.record_failure(time.monotonic())

    def _record_worker_success(self, worker_id: int) -> None:
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.record_success()

    def breaker_state(self, worker_id: int) -> Optional[str]:
        """The breaker state of one worker (``None`` when breaking is off)."""
        breaker = self._breakers.get(worker_id)
        return None if breaker is None else breaker.state

    # ------------------------------------------------------------------
    # Control-plane message routing
    # ------------------------------------------------------------------
    def _send(self, slot: _Slot, task: Tuple[Any, ...]) -> bool:
        """Send one task down a slot's pipe; a broken pipe marks it dead."""
        try:
            with _mon_section("tasks"):
                slot.conn.send(task)
        except OSError:  # the worker has exited and closed its end
            slot.dead = True
            return False
        return True

    @staticmethod
    def _recv(slot: _Slot, timeout: float) -> Optional[Tuple[Any, ...]]:
        """One reply from a slot within ``timeout`` seconds, else ``None``;
        EOF (the worker has exited) marks the slot dead."""
        try:
            if slot.conn.poll(max(0.0, timeout)):
                return slot.conn.recv()
        except (EOFError, OSError):
            slot.dead = True
        return None

    def _await(
        self, slot: _Slot, kinds: Tuple[str, ...], timeout: float, match=None
    ) -> Tuple[Any, ...]:
        """The next reply of one of ``kinds`` (and ``match``) from one slot.

        Handshakes read the slot's own pipe, which nothing else is waiting
        on, so a reply ahead of the awaited one (a result of a batch already
        settled, a pong of an abandoned ping) is simply dropped.  Raises
        ``TimeoutError`` when the worker dies or ``timeout`` passes first.
        """
        deadline = time.monotonic() + timeout
        token = _mon_wait_start("/".join(kinds), timeout)
        try:
            while True:
                msg = self._recv(slot, deadline - time.monotonic())
                if msg is None:
                    state = "exited" if slot.dead else f"was silent for {timeout:g}s"
                    raise TimeoutError(
                        f"worker {slot.worker_id} {state} awaiting {'/'.join(kinds)!r}"
                    )
                if msg[0] in kinds and (match is None or match(msg)):
                    return msg
        finally:
            _mon_wait_end(token)

    def _wait_replies(self, timeout: float, settle) -> bool:
        """Block until a live worker replies or dies, or ``timeout`` passes.

        One :func:`multiprocessing.connection.wait` covers every live slot's
        pipe and process sentinel: a ready pipe yields one reply to
        ``settle``, and EOF or a ready sentinel marks the slot dead.
        Returns whether anything woke the wait.
        """
        owners: Dict[Any, _Slot] = {}
        for slot in self._slots:
            if not slot.dead:
                owners[slot.conn] = owners[slot.process.sentinel] = slot
        token = _mon_wait_start("reply", timeout)
        try:
            woke = mp_connection.wait(list(owners), timeout)
        finally:
            _mon_wait_end(token)
        for ready in woke:
            slot = owners[ready]
            if ready is not slot.conn:
                slot.dead = True
                continue
            msg = self._recv(slot, 0.0)
            if msg is not None:
                settle(msg)
        return bool(woke)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: LoadTrace,
        hints: Optional[Mapping[str, Sequence[str]]] = None,
        *,
        open_loop: bool = False,
        arrival_scale: float = 1.0,
        deadline_s: Optional[float] = None,
    ) -> WallClockReport:
        """Serve a load trace and measure it on the wall clock.

        ``hints`` optionally maps workload names to router engine-name
        preference lists (see :meth:`register`).

        Batches come from release-step batching: each step of the run loop
        releases every request that has come due and groups the released
        requests by matrix, oldest first, in chunks of ``max_batch``
        (:class:`~repro.serve.Scheduler` with the FIFO policy); only then
        does it dispatch.  In the default saturation drive every request
        is due at the first step, and latency is measured from dispatch.
        ``open_loop=True`` makes each request due at its recorded arrival
        time (stretched by ``arrival_scale``) and measures its latency from
        that due time.  ``deadline_s`` gives every request that budget from
        its due time; a batch whose oldest member's deadline has expired at
        dispatch time is shed (``y=None``, ``shed_reason="deadline"``)
        instead of served late.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if arrival_scale <= 0:
            raise ValueError("arrival_scale must be positive")
        pooled = bool(self.num_workers)
        if pooled:
            try:
                self.start()
            except (TimeoutError, OSError):  # pragma: no cover - spawn failure
                pooled = False
        keys: List[str] = []
        if pooled:
            for workload in trace.matrices:
                keys.append(
                    self.register(
                        workload.matrix,
                        workload.name,
                        hint=(hints or {}).get(workload.name),
                    )
                )
        else:
            keys = [matrix_fingerprint(w.matrix) for w in trace.matrices]
        entries: Dict[str, _Registered] = {}
        for workload, key in zip(trace.matrices, keys):
            if key not in entries:
                entries[key] = self._registered.get(key) or _Registered(
                    key=key,
                    name=workload.name,
                    matrix=workload.matrix,
                    home=-1,
                    coo_block=None,  # inline-only: nothing is shared
                )
        # The x vectors are derived before the clock starts; a request's due
        # time is its offset from the run's start (0 at saturation).
        scale = arrival_scale if open_loop else 0.0
        requests = [
            Request(
                request_id=index,
                tenant=request.tenant,
                fingerprint=keys[request.matrix_id],
                x=trace.x_vector(
                    request, trace.matrices[request.matrix_id].matrix.num_cols
                ),
                arrival_time=request.arrival_time * scale,
            )
            for index, request in enumerate(trace.requests)
        ]
        # One shared block carries this run's x and y vectors to and from
        # the workers; the messages carry only its descriptor.
        arena = None
        if pooled and self.compute != "none":
            arena = share_vectors(
                [len(r.x) for r in requests],
                [entries[r.fingerprint].matrix.num_rows for r in requests],
            )
        vectors = {} if arena is None else arena.arrays()
        self._runs += 1
        releaser = _Releaser(
            requests, entries, self.max_batch, deadline_s, self._emit,
            run=self._runs,
            arena=None if arena is None else arena.descriptor,
        )
        run_started = releaser.started = time.perf_counter()
        try:
            if pooled:
                results, cycles, edges = self._run_pooled(
                    releaser, len(requests), open_loop, vectors
                )
            else:
                results, cycles, edges = self._run_inline(releaser, open_loop)
            makespan = time.perf_counter() - run_started
        finally:
            if arena is not None:
                # Drop every view first: a mapping cannot close under one.
                vectors.clear()
                arena.unlink()
        batches = releaser.batches
        results.sort(key=lambda r: r.request_id)
        report = WallClockReport(
            scenario=trace.scenario,
            num_workers=self.num_workers,
            compute=self.compute,
            engine="+".join(sorted({s.engine for s in self._slots}))
            or next(iter(self._inline_engines), "inline"),
            results=results,
            makespan_seconds=makespan,
            engine_cycles=cycles,
            traversed_edges=edges,
            batches=len(batches),
            retries=self.retries,
            respawns=self.respawns,
            inline_requests=self.inline_requests,
            prepare_count=sum(
                max(1, len(e.payloads)) for e in self._registered.values()
            )
            if self._registered
            else len(set(keys)),
            degraded_batches=self.degraded_batches,
            deadline_misses=self.deadline_misses,
            shed_requests=self.shed_requests,
            hedges=self.hedges,
            faults_planned=len(self._plan.faults) if self._plan is not None else 0,
            shed_batches=sum(1 for state in batches if state.shed),
        )
        if self._metrics is not None:
            self._publish_metrics(report)
        if self._events is not None:
            self._events.metrics(report.snapshot(), on="run_end")
        return report

    def _publish_metrics(self, report: WallClockReport) -> None:
        """Publish the run snapshot plus breaker states (duck-typed registry)."""
        registry = self._metrics
        registry.set_gauges(report.snapshot(), prefix="wallclock_")
        if self._breakers:
            state = registry.gauge(
                "breaker_state", "0=closed 1=half-open 2=open, per worker"
            )
            trips = registry.gauge("breaker_trips", "lifetime breaker trips")
            for worker_id, breaker in sorted(self._breakers.items()):
                state.set(float(breaker.state_code), worker=worker_id)
                trips.set(float(breaker.trips), worker=worker_id)

    def _run_pooled(
        self,
        releaser: _Releaser,
        total_requests: int,
        open_loop: bool,
        vectors: Mapping[str, np.ndarray],
    ) -> Tuple[List[WallClockResult], float, float]:
        """Serve one run on the workers; ``vectors`` are the run's arena views
        (empty when nothing is computed)."""
        run = self._runs
        ready: Dict[int, Deque[_BatchState]] = {
            slot.worker_id: deque() for slot in self._slots
        }
        states_by_id: Dict[int, _BatchState] = {}
        inflight: Dict[int, _BatchState] = {}
        completed: Set[int] = set()
        results: List[WallClockResult] = []
        batch_latencies: List[float] = []
        cycles = 0.0
        edges = 0.0

        def pop_eligible(
            queue: Deque[_BatchState], now: float, newest: bool = False
        ) -> Optional[_BatchState]:
            for state in reversed(queue) if newest else queue:
                if state.not_before <= now:
                    queue.remove(state)
                    return state
            return None

        def next_batch_for(slot: _Slot, now: float) -> Optional[_BatchState]:
            state = pop_eligible(ready[slot.worker_id], now)
            if state is not None:
                return state
            # Work stealing: every worker has every matrix registered, so an
            # idle worker takes from the deepest backlog — without this a
            # single-matrix trace would serialise onto one home worker.
            victim = max(ready.values(), key=len)
            return pop_eligible(victim, now, newest=True)

        def shed(state: _BatchState, reason: str, now: float) -> None:
            if state.batch.batch_id in completed:
                return
            completed.add(state.batch.batch_id)
            inflight.pop(state.batch.batch_id, None)
            state.shed = True
            self.shed_requests += len(state.requests)
            if reason == "deadline":
                self.deadline_misses += len(state.requests)
            self._emit(
                "deadline_shed" if reason == "deadline" else "overload_shed",
                batch=state.batch.batch_id,
                requests=len(state.requests),
                reason=reason,
            )
            results.extend(
                _batch_results(
                    state, [None] * len(state.requests), -1, now, open_loop,
                    shed_reason=reason,
                )
            )

        def dispatch() -> None:
            now = time.perf_counter()
            for slot in self._slots:
                if slot.dead:
                    continue
                breaker = self._breakers.get(slot.worker_id)
                while (
                    sum(
                        1 for s in inflight.values() if s.worker_id == slot.worker_id
                    )
                    < self.max_inflight
                ):
                    state = next_batch_for(slot, now)
                    if state is None:
                        break
                    if state.deadline_at is not None and now > state.deadline_at:
                        # Already doomed: shedding beats serving it late.
                        shed(state, "deadline", now)
                        continue
                    if (
                        breaker is not None and not breaker.allow(time.monotonic())
                    ) or not self._send(slot, ("execute", state.batch)):
                        # Sick or dead worker: hand the batch back for
                        # someone else.
                        ready[slot.worker_id].appendleft(state)
                        break
                    state.worker_id = slot.worker_id
                    state.attempts += 1
                    state.enqueued_at = now
                    inflight[state.batch.batch_id] = state
                    self._emit(
                        "dispatch",
                        batch=state.batch.batch_id,
                        worker=slot.worker_id,
                        attempt=state.attempts,
                        requests=len(state.requests),
                    )

        def complete(
            state: _BatchState,
            ys: Sequence[Optional[np.ndarray]],
            engine_cycles: float,
            worker_id: int,
        ) -> None:
            nonlocal cycles, edges
            if state.batch.batch_id in completed:
                return  # duplicate (late original racing a hedge, or a
                # worker that replied and was declared dead anyway)
            completed.add(state.batch.batch_id)
            inflight.pop(state.batch.batch_id, None)
            now = time.perf_counter()
            if worker_id >= 0:
                self._record_worker_success(worker_id)
            if state.enqueued_at:
                batch_latencies.append(now - state.enqueued_at)
            self._emit(
                "reply",
                batch=state.batch.batch_id,
                worker=worker_id,
                requests=len(state.requests),
                latency_s=(now - state.enqueued_at) if state.enqueued_at else 0.0,
            )
            cycles += engine_cycles
            edges += float(len(state.requests)) * state.matrix.matrix.nnz
            results.extend(_batch_results(state, ys, worker_id, now, open_loop))

        def degrade(state: _BatchState) -> None:
            """Serve a batch inline in the parent (the last resort)."""
            self.degraded_batches += 1
            complete(state, *self._execute_inline(state), worker_id=-1)

        def settle(msg: Tuple[Any, ...]) -> None:
            """Act on one worker reply; replies from another run are dropped."""
            if msg[0] == "result":
                result: BatchResult = msg[2]
                state = states_by_id.get(result.batch_id) if result.run == run else None
                if state is None or state.batch.batch_id in completed:
                    return
                ys: List[Optional[np.ndarray]] = [None] * len(state.requests)
                if vectors:
                    ys = [
                        vector_slot(vectors, "y", request_id).copy()
                        for request_id in state.batch.request_ids
                    ]
                complete(state, ys, result.engine_cycles, msg[1])
            elif msg[0] == "error":
                self._record_worker_failure(msg[1])
                batch: Optional[WorkBatch] = msg[2]
                if batch is None or batch.run != run:
                    return
                state = states_by_id.get(batch.batch_id)
                if state is not None and batch.batch_id not in completed:
                    inflight.pop(batch.batch_id, None)
                    degrade(state)

        def hedge_stragglers(now: float) -> None:
            """Duplicate over-age inflight batches onto a second worker.

            Dedup-by-batch-id makes the race safe: the first reply wins and
            the loser is dropped in :func:`complete`.  The hedge goes to a
            worker of the same engine, so both write the same bytes into
            the batch's y slots.
            """
            policy = self.retry_policy
            if policy.hedge_after_p95 is None or not batch_latencies:
                return
            threshold = policy.hedge_deadline(
                float(np.percentile(batch_latencies, 95))
            )
            if threshold is None:
                return
            for state in list(inflight.values()):
                if state.hedged or now - state.enqueued_at < threshold:
                    continue
                engine = self._slots[state.worker_id].engine
                for slot in self._slots:
                    if (
                        slot.worker_id == state.worker_id
                        or slot.dead
                        or slot.engine != engine
                    ):
                        continue
                    breaker = self._breakers.get(slot.worker_id)
                    if breaker is not None and not breaker.allow(time.monotonic()):
                        continue
                    if not self._send(slot, ("execute", state.batch)):
                        continue
                    state.hedged = True
                    self.hedges += 1
                    self._emit(
                        "hedge_fired",
                        batch=state.batch.batch_id,
                        original_worker=state.worker_id,
                        hedge_worker=slot.worker_id,
                        age_s=now - state.enqueued_at,
                    )
                    break

        def degrade_if_starved(now: float) -> None:
            """Guarantee progress when every breaker refuses traffic.

            With work ready, nothing inflight, and no worker admissible, the
            oldest ready batch runs inline — waiting out a cooldown must
            never deadlock the run.
            """
            if inflight:
                return
            if any(
                not slot.dead
                and (
                    self._breakers.get(slot.worker_id) is None
                    or self._breakers[slot.worker_id].would_allow(time.monotonic())
                )
                for slot in self._slots
            ):
                return
            for queue in ready.values():
                state = pop_eligible(queue, now)
                if state is not None:
                    degrade(state)
                    return

        def wait_timeout(now: float) -> float:
            # Until the next request is due or the oldest inflight batch
            # times out (once it has, the health pass takes over), <= 0.25 s.
            timeout = 0.25
            due = releaser.next_due()
            if due is not None:
                timeout = min(timeout, due - now)
            if inflight:
                oldest = min(state.enqueued_at for state in inflight.values())
                expiry = oldest + self.batch_timeout
                if expiry > now:
                    timeout = min(timeout, expiry - now)
            return max(0.0, timeout)

        # Health passes must not be starved by a steady reply stream from
        # healthy workers: a wedged worker's batch would otherwise wait for
        # total silence before the timeout could fire.
        health_interval = min(1.0, max(0.05, self.batch_timeout / 4.0))
        last_health = time.perf_counter()
        # One result per request, shed or served: the run is over when
        # every request is resolved.
        while len(results) < total_requests:
            for state in releaser.release(time.perf_counter()):
                states_by_id[state.batch.batch_id] = state
                ready[state.worker_id].append(state)
                if vectors:
                    for request_id, x in zip(state.batch.request_ids, state.xs):
                        vector_slot(vectors, "x", request_id)[...] = x
            dispatch()
            woke = self._wait_replies(wait_timeout(time.perf_counter()), settle)
            now = time.perf_counter()
            if (
                woke
                and now - last_health < health_interval
                and not any(slot.dead for slot in self._slots)
            ):
                continue
            last_health = now
            hedge_stragglers(now)
            self._recover_dead_workers(
                inflight, ready, settle, degrade, len(states_by_id)
            )
            degrade_if_starved(time.perf_counter())
        return results, cycles, edges

    def _recover_dead_workers(
        self,
        inflight: Dict[int, _BatchState],
        ready: Dict[int, Deque[_BatchState]],
        settle,
        degrade,
        total_batches: int = 0,
    ) -> None:
        """Respawn dead/wedged workers; re-dispatch their batches under the
        retry policy (attempt cap + budget + backoff), then degrade inline."""
        now = time.perf_counter()
        for slot in self._slots:
            owned = [
                state
                for state in inflight.values()
                if state.worker_id == slot.worker_id
            ]
            wedged = any(
                now - state.enqueued_at > self.batch_timeout for state in owned
            )
            if not slot.dead and not wedged:
                continue
            if not slot.dead:  # pragma: no cover - wedged but alive
                slot.process.terminate()
            slot.process.join(timeout=5.0)  # also reaps a dead one
            # Settle the replies the worker sent before dying so finished
            # batches are not needlessly retried; EOF ends the drain.
            while True:
                msg = self._recv(slot, 0.0)
                if msg is None:
                    break
                settle(msg)
            slot.conn.close()
            lost = [
                state
                for state in inflight.values()
                if state.worker_id == slot.worker_id
            ]
            for state in lost:
                inflight.pop(state.batch.batch_id, None)
            self.respawns += 1
            slot.respawns += 1
            self._record_worker_failure(slot.worker_id)
            # An injected fault does not re-fire after recovery: the
            # replacement worker's injector filters specs by generation.
            respawned = True
            try:
                self._spawn(slot)
                for entry in self._registered.values():
                    self._register_with_worker(slot, entry)
            except TimeoutError:  # pragma: no cover - respawn failure
                respawned = False
            self._emit(
                "respawn",
                worker=slot.worker_id,
                generation=slot.respawns,
                lost_batches=len(lost),
                ok=respawned,
            )
            for state in lost:
                if respawned and self.retry_policy.should_retry(
                    state.attempts, self.retries, total_batches
                ):
                    self.retries += 1
                    state.not_before = time.perf_counter() + (
                        self.retry_policy.retry_delay(
                            state.attempts, state.batch.batch_id
                        )
                    )
                    ready[slot.worker_id].append(state)
                    self._emit(
                        "retry",
                        batch=state.batch.batch_id,
                        worker=slot.worker_id,
                        attempt=state.attempts,
                        delay_s=max(0.0, state.not_before - time.perf_counter()),
                    )
                else:
                    degrade(state)

    # ------------------------------------------------------------------
    # Inline (degraded) execution
    # ------------------------------------------------------------------
    def _inline_engine(self, name: str) -> SpMVEngine:
        engine = self._inline_engines.get(name)
        if engine is None:
            engine = resolve(name)
            self._inline_engines[name] = engine
        return engine

    def _execute_inline(
        self, state: _BatchState
    ) -> Tuple[List[Optional[np.ndarray]], float]:
        """Execute one batch in the parent process (last-resort path):
        its ys and engine cycles."""
        self.inline_requests += len(state.requests)
        entry = state.matrix
        engine_name = (
            self._slots[state.worker_id].engine
            if 0 <= state.worker_id < len(self._slots)
            else (self._slots[0].engine if self._slots else DEFAULT_ENGINE)
        )
        ys: List[Optional[np.ndarray]] = []
        cycles = 0.0
        if self.compute == "simulate":
            engine = self._inline_engine(engine_name)
            payload = entry.payloads.get(engine_name)
            if payload is None:
                payload = engine.build_payload(entry.matrix)
                entry.payloads[engine_name] = payload
            prepared = PreparedMatrix(
                engine=engine.name,
                matrix=entry.matrix,
                name=entry.name,
                fingerprint=entry.key,
                payload=payload,
            )
            for x in state.xs:
                result = engine.execute(prepared, x)
                ys.append(result.y)
                cycles += float(result.report.cycles)
        elif self.compute == "reference":
            ys = [spmv(entry.matrix, x) for x in state.xs]
        else:
            ys = [None] * len(state.xs)
        return ys, cycles

    def _run_inline(
        self, releaser: _Releaser, open_loop: bool
    ) -> Tuple[List[WallClockResult], float, float]:
        """Serve the whole trace in the parent (num_workers=0 / pool down)."""
        results: List[WallClockResult] = []
        cycles = 0.0
        edges = 0.0
        while True:
            for state in releaser.release(time.perf_counter()):
                state.enqueued_at = time.perf_counter()
                ys, batch_cycles = self._execute_inline(state)
                cycles += batch_cycles
                edges += float(len(state.requests)) * state.matrix.matrix.nnz
                results.extend(
                    _batch_results(state, ys, -1, time.perf_counter(), open_loop)
                )
            due = releaser.next_due()
            if due is None:
                return results, cycles, edges
            time.sleep(max(0.0, due - time.perf_counter()))
