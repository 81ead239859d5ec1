"""Request queue and dispatch policies for the serving layer.

The scheduler owns everything between ``submit`` and a device picking work
up: admission control (bounded queue depth, load-shedding beyond it),
per-matrix FIFO queues, and the batching decision.  Batching matters for
the same reason it does on real cards: switching the resident sparse-matrix
program costs a stream-buffer reload over the host link, so launching k
same-matrix SpMVs back-to-back pays that cost once instead of k times.

Two policies are provided:

* ``"fifo"`` — dispatch in arrival order; the batch coalesces the queued
  requests that target the same matrix as the oldest request,
* ``"sjf"`` — shortest-job-first across matrices: dispatch the queued
  matrix with the smallest estimated per-launch time (classic latency
  optimisation for mixed workloads; needs a cost oracle from the service).

``max_batch=1`` degenerates either policy into naive one-request dispatch,
which is the baseline the benchmarks compare against.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

import numpy as np

__all__ = ["Request", "Scheduler", "SCHEDULING_POLICIES"]

SCHEDULING_POLICIES = ("fifo", "sjf")


@dataclass
class Request:
    """One queued SpMV launch request."""

    request_id: int
    tenant: str
    fingerprint: str
    x: np.ndarray
    arrival_time: float = 0.0
    y: Optional[np.ndarray] = None
    alpha: float = 1.0
    beta: float = 0.0
    seq: int = field(default=0, compare=False)
    #: Absolute virtual-time deadline; ``None`` = no latency budget.
    deadline: Optional[float] = None
    #: Tenant priority (higher = more important) for tiered shedding.
    priority: int = 0


class Scheduler:
    """Bounded request queue with same-matrix batching.

    Parameters
    ----------
    policy:
        ``"fifo"`` or ``"sjf"``.
    max_batch:
        Most requests coalesced into one dispatch (1 = no batching).
    max_queue_depth:
        Admission limit; ``None`` admits everything.  A request arriving
        at a full queue is shed, the way an overloaded service returns 429
        instead of letting latency grow without bound.
    tracer:
        Optional :class:`repro.obs.Tracer` (duck-typed).  When attached,
        every admission decision emits an instant marker (``admit`` /
        ``shed``) on the ``scheduler`` track at the request's arrival time;
        shed instants carry the shed reason.
    overload:
        Optional :class:`~repro.resilience.OverloadController` (duck-typed:
        ``admit(tenant, depth, now=, deadline=, estimated_cost=)`` returning
        a decision with ``admitted``/``reason``/``tier``).  When installed it
        replaces the bare depth check with tiered admission — queue-full,
        deadline-infeasibility and low-priority shedding, each counted per
        reason in :meth:`stats`.
    """

    def __init__(
        self,
        policy: str = "fifo",
        max_batch: int = 32,
        max_queue_depth: Optional[int] = None,
        tracer=None,
        overload=None,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; use one of {SCHEDULING_POLICIES}"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        self.policy = policy
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.tracer = tracer
        self.overload = overload
        self._queues: "OrderedDict[str, Deque[Request]]" = OrderedDict()
        #: Requests queued across every matrix (kept as a running count).
        self._depth = 0
        self._cost_fn: Optional[Callable[[str], float]] = None
        self._seq = 0
        self._sjf_fallback_warned = False
        self.admitted = 0
        self.rejected = 0
        self.dispatched = 0
        self.batches = 0
        self.peak_depth = 0
        self.sjf_fallbacks = 0
        #: Sheds by reason (``queue_full`` / ``deadline_infeasible`` /
        #: ``deadline_expired`` / ``low_priority``).
        self.shed_reasons: Dict[str, int] = {}
        #: Reason of the most recent shed — lets the caller of
        #: :meth:`admit` attribute a rejection without re-deriving it.
        self.last_shed_reason = ""
        #: Whether any admitted request carried a deadline (gates the
        #: per-event-loop-step expiry scan).
        self._has_deadlines = False
        #: Requests dispatched per matrix fingerprint — the routing-decision
        #: record telemetry joins against per-engine dispatch counts.
        self.dispatch_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued."""
        return self._depth

    def admit(self, request: Request, estimated_cost: float = 0.0) -> bool:
        """Queue a request; returns ``False`` when it is shed.

        With an overload controller installed, admission is tiered (queue
        depth, deadline feasibility given ``estimated_cost``, tenant
        priority); otherwise only the bare ``max_queue_depth`` cap applies.
        The shed reason lands in :attr:`shed_reasons` and on the trace
        instant either way.
        """
        if self.overload is not None:
            decision = self.overload.admit(
                request.tenant,
                self.depth,
                now=request.arrival_time,
                deadline=request.deadline,
                estimated_cost=estimated_cost,
            )
            if not decision.admitted:
                return self._shed(request, decision.reason or "overload")
        elif self.max_queue_depth is not None and self.depth >= self.max_queue_depth:
            return self._shed(request, "queue_full")
        request.seq = self._seq
        self._seq += 1
        if request.deadline is not None:
            self._has_deadlines = True
        self._queues.setdefault(request.fingerprint, deque()).append(request)
        self._depth += 1
        self.admitted += 1
        self.peak_depth = max(self.peak_depth, self.depth)
        self._trace_admission("admit", request)
        return True

    def _shed(self, request: Request, reason: str) -> bool:
        self.last_shed_reason = reason
        self.rejected += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        self._trace_admission("shed", request, reason=reason)
        return False

    def expire(self, now: float) -> List[Request]:
        """Pop and return queued requests whose deadline has passed.

        Called by the service's event loop before dispatch so doomed
        requests stop occupying queue slots; each is counted as a
        ``deadline_expired`` shed.  Cheap when no admitted request ever
        carried a deadline.
        """
        if not self._has_deadlines:
            return []
        expired: List[Request] = []
        for fingerprint in list(self._queues):
            queue = self._queues[fingerprint]
            keep = deque(
                r for r in queue if r.deadline is None or r.deadline > now
            )
            if len(keep) != len(queue):
                expired.extend(
                    r for r in queue if r.deadline is not None and r.deadline <= now
                )
                if keep:
                    self._queues[fingerprint] = keep
                else:
                    del self._queues[fingerprint]
        self._depth -= len(expired)
        for request in expired:
            self.rejected += 1
            self.shed_reasons["deadline_expired"] = (
                self.shed_reasons.get("deadline_expired", 0) + 1
            )
            self._trace_admission("shed", request, reason="deadline_expired")
        return expired

    def next_deadline(self) -> Optional[float]:
        """Earliest deadline among queued requests, ``None`` when none.

        The service's event loop adds this to its next-wakeup candidates so
        a doomed request expires at its deadline instead of waiting for the
        next arrival or completion to advance the clock.
        """
        if not self._has_deadlines:
            return None
        deadlines = [
            r.deadline
            for queue in self._queues.values()
            for r in queue
            if r.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def _trace_admission(
        self, outcome: str, request: Request, reason: Optional[str] = None
    ) -> None:
        if self.tracer is not None:
            extra = {} if reason is None else {"reason": reason}
            self.tracer.instant(
                outcome,
                request.arrival_time,
                track="scheduler",
                category="scheduler",
                request_id=request.request_id,
                tenant=request.tenant,
                matrix=request.fingerprint[:8],
                depth=self.depth,
                **extra,
            )

    def set_cost_fn(self, cost_fn: Callable[[str], float]) -> None:
        """Install the per-launch cost oracle the SJF policy ranks by."""
        self._cost_fn = cost_fn

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def queued_fingerprints(self) -> List[str]:
        """Fingerprints with at least one queued request."""
        return [fp for fp, q in self._queues.items() if q]

    def next_batch(
        self, runnable: Optional[Set[str]] = None
    ) -> List[Request]:
        """Pop the next batch of same-matrix requests.

        ``runnable`` restricts the choice to matrices resident on the
        device asking for work; ``None`` considers every queued matrix.
        Returns an empty list when nothing dispatchable is queued.
        """
        fingerprint = self._pick_fingerprint(runnable)
        if fingerprint is None:
            return []
        queue = self._queues[fingerprint]
        batch = [queue.popleft() for __ in range(min(self.max_batch, len(queue)))]
        if not queue:
            del self._queues[fingerprint]
        self._depth -= len(batch)
        self.dispatched += len(batch)
        self.batches += 1
        self.dispatch_counts[fingerprint] = (
            self.dispatch_counts.get(fingerprint, 0) + len(batch)
        )
        return batch

    def _pick_fingerprint(self, runnable: Optional[Set[str]]) -> Optional[str]:
        candidates = [
            (fp, queue[0])
            for fp, queue in self._queues.items()
            if queue and (runnable is None or fp in runnable)
        ]
        if not candidates:
            return None
        if self.policy == "sjf":
            if self._cost_fn is not None:
                # Shortest estimated launch first; oldest request breaks ties.
                return min(
                    candidates, key=lambda item: (self._cost_fn(item[0]), item[1].seq)
                )[0]
            # No cost oracle installed: the policy cannot rank jobs, so make
            # the FIFO fallback loud (once) and visible in stats() instead of
            # silently degrading into arrival-order dispatch.
            self.sjf_fallbacks += 1
            if not self._sjf_fallback_warned:
                self._sjf_fallback_warned = True
                warnings.warn(
                    "Scheduler(policy='sjf') is dispatching without a cost "
                    "oracle and falls back to FIFO order; install one with "
                    "set_cost_fn() to get shortest-job-first behaviour",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return min(candidates, key=lambda item: item[1].seq)[0]

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for telemetry."""
        stats = {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "dispatched": float(self.dispatched),
            "batches": float(self.batches),
            "mean_batch_size": (
                self.dispatched / self.batches if self.batches else 0.0
            ),
            "peak_depth": float(self.peak_depth),
            "depth": float(self.depth),
            "sjf_fallbacks": float(self.sjf_fallbacks),
            "distinct_matrices": float(len(self.dispatch_counts)),
            "has_cost_oracle": 1.0 if self._cost_fn is not None else 0.0,
        }
        for reason, count in sorted(self.shed_reasons.items()):
            stats[f"sheds_{reason}"] = float(count)
        stats["deadline_misses"] = float(
            self.shed_reasons.get("deadline_expired", 0)
            + self.shed_reasons.get("deadline_infeasible", 0)
        )
        return stats
