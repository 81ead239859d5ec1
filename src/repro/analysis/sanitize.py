"""Runtime concurrency/lifecycle sanitizers for :mod:`repro.parallel`.

Static rules cannot see a leaked shared-memory segment or a control-plane
wait that never returns — those are runtime properties.  This module
provides two sanitizers that hook into ``repro.parallel`` through the
duck-typed install points the package exposes (``shm.install_auditor`` /
``pool.install_monitor``), the same inversion PR 6 used so ``serve`` never
imports ``obs``: **parallel never imports analysis**; the test or CLI that
wants auditing installs the hook.

* :class:`ShmAuditor` (RPR301) — records every segment create / attach /
  close / unlink observed in this process and asserts the
  owner-unlinks/attacher-closes protocol balanced at shutdown.  Because a
  created-but-never-unlinked segment is exactly what a worker kill leaves
  behind, this catches leaks through the kill + respawn + retry paths, and a
  final ``/dev/shm`` existence probe confirms the kernel agrees.
* :class:`PoolMonitor` (RPR302) — bounded-wait and lock-order assertions for
  :class:`~repro.parallel.pool.WorkerPool`: every blocking wait on a
  worker's pipe must finish within its declared timeout (plus slack), and
  named critical sections must nest in the declared order.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .findings import Finding

__all__ = ["PoolMonitor", "ShmAuditor", "ShmLifecycleError", "SanitizerError"]


class SanitizerError(AssertionError):
    """A sanitizer invariant failed; carries the findings that broke it."""

    def __init__(self, findings: List[Finding]) -> None:
        self.findings = findings
        super().__init__(
            "\n".join(f.render() for f in findings) or "sanitizer violation"
        )


class ShmLifecycleError(SanitizerError):
    """Unbalanced shared-memory lifecycles at auditor shutdown."""


def _call_site(skip_substrings: Tuple[str, ...]) -> Tuple[str, int]:
    """(file, line) of the nearest caller outside the audited machinery."""
    for frame in reversed(traceback.extract_stack()[:-1]):
        if not any(token in frame.filename for token in skip_substrings):
            return frame.filename, int(frame.lineno or 0)
    return "<unknown>", 0


@dataclass
class _SegmentRecord:
    name: str
    created: bool = False
    nbytes: int = 0
    opens: int = 0  # create + attach mappings in this process
    closes: int = 0
    unlinked: bool = False
    site: Tuple[str, int] = ("<unknown>", 0)


class ShmAuditor:
    """Balanced-lifecycle auditing of shared-memory segments (RPR301).

    Install with :func:`repro.parallel.shm.install_auditor`; the transport
    then reports every ``create`` / ``attach`` / ``close`` / ``unlink`` it
    performs in this process.  :meth:`assert_balanced` (typically at pool
    shutdown or test teardown) raises :class:`ShmLifecycleError` when any
    segment broke the owner-unlinks/attacher-closes protocol.
    """

    _SKIP = ("parallel/shm", "analysis/sanitize", os.sep.join(("parallel", "shm")))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, _SegmentRecord] = {}

    # -- event sink (duck-typed; called from repro.parallel.shm) -------
    def record(self, event: str, name: str, owner: bool = False, nbytes: int = 0) -> None:
        with self._lock:
            entry = self._segments.setdefault(name, _SegmentRecord(name=name))
            if event == "create":
                entry.created = True
                entry.nbytes = nbytes
                entry.opens += 1
                entry.site = _call_site(self._SKIP)
            elif event == "attach":
                entry.opens += 1
                if not entry.created and entry.site == ("<unknown>", 0):
                    entry.site = _call_site(self._SKIP)
            elif event == "close":
                entry.closes += 1
            elif event == "unlink":
                entry.unlinked = True

    # -- verdicts -------------------------------------------------------
    def findings(self) -> List[Finding]:
        """RPR301 findings for every unbalanced segment seen so far."""
        out: List[Finding] = []
        with self._lock:
            for entry in self._segments.values():
                problems = []
                if entry.created and not entry.unlinked:
                    problems.append(
                        "created here but never unlinked (the owner must "
                        "unlink; a dead owner leaks the segment)"
                    )
                elif entry.opens > entry.closes:
                    # Subsumed by the never-unlinked finding above when the
                    # owner leaked; reported on its own for attacher leaks.
                    problems.append(
                        f"{entry.opens} mapping(s) opened but only "
                        f"{entry.closes} closed in this process"
                    )
                if not entry.created and entry.unlinked:
                    problems.append(
                        "unlinked by a non-owner (attachers must only close)"
                    )
                if entry.created and entry.unlinked and self._kernel_still_has(entry.name):
                    problems.append(
                        "unlink was recorded but /dev/shm still holds the "
                        "segment"
                    )
                for problem in problems:
                    out.append(
                        Finding(
                            code="RPR301",
                            path=entry.site[0],
                            line=entry.site[1],
                            message=f"shm segment {entry.name!r}: {problem}",
                            source="runtime",
                        )
                    )
        return out

    @staticmethod
    def _kernel_still_has(name: str) -> bool:
        if not sys.platform.startswith("linux"):
            return False
        return os.path.exists(os.path.join("/dev/shm", name))

    def assert_balanced(self) -> None:
        findings = self.findings()
        if findings:
            raise ShmLifecycleError(findings)

    @property
    def tracked(self) -> int:
        with self._lock:
            return len(self._segments)


@dataclass
class _Wait:
    kind: str
    timeout: float
    started: float
    thread: int


class PoolMonitor:
    """Bounded-wait and lock-order assertions for the worker pool (RPR302).

    Install with :func:`repro.parallel.pool.install_monitor`.  The pool then
    reports two event families:

    * ``wait_started(kind, timeout)`` / ``wait_finished(token)`` around every
      blocking ``connection.wait``/``poll`` on the worker pipes — finishing
      later than ``timeout + slack`` (or never) is a violation,
    * ``section(name)`` context entry/exit around named critical regions —
      entering a section out of the declared order or re-entering a held
      section is a violation.
    """

    def __init__(
        self, slack: float = 1.0, order: Tuple[str, ...] = ("tasks", "replies")
    ) -> None:
        self.slack = slack
        self.order = tuple(order)
        self._lock = threading.Lock()
        self._waits: Dict[int, _Wait] = {}
        self._next_token = 0
        self._held: Dict[int, List[str]] = {}
        self._violations: List[Finding] = []
        self.waits_completed = 0

    # -- helpers --------------------------------------------------------
    def _violate(self, message: str) -> None:
        path, line = _call_site(("parallel/pool", "analysis/sanitize"))
        self._violations.append(
            Finding(
                code="RPR302", path=path, line=line, message=message, source="runtime"
            )
        )

    # -- bounded waits --------------------------------------------------
    def wait_started(self, kind: str, timeout: float) -> int:
        thread = threading.get_ident()
        with self._lock:
            token = self._next_token
            self._next_token += 1
            if any(w.thread == thread for w in self._waits.values()):
                self._violate(
                    f"nested blocking wait for {kind!r}: the thread is "
                    "already inside another bounded wait"
                )
            self._waits[token] = _Wait(
                kind=kind, timeout=timeout, started=time.monotonic(), thread=thread
            )
        return token

    def wait_finished(self, token: int) -> None:
        with self._lock:
            wait = self._waits.pop(token, None)
            if wait is None:
                return
            elapsed = time.monotonic() - wait.started
            self.waits_completed += 1
            if elapsed > wait.timeout + self.slack:
                self._violate(
                    f"wait for {wait.kind!r} blocked {elapsed:.2f}s, beyond "
                    f"its declared bound {wait.timeout:.2f}s (+{self.slack}s "
                    "slack)"
                )

    # -- lock order -----------------------------------------------------
    def section(self, name: str):
        """Context manager marking one named critical region."""
        monitor = self

        class _Section:
            def __enter__(self):
                monitor._enter(name)
                return self

            def __exit__(self, *exc_info):
                monitor._exit(name)

        return _Section()

    def _enter(self, name: str) -> None:
        thread = threading.get_ident()
        with self._lock:
            held = self._held.setdefault(thread, [])
            if name in held:
                self._violate(f"section {name!r} re-entered while already held")
            elif held and name in self.order:
                rank = self.order.index(name)
                blockers = [
                    h for h in held if h in self.order and self.order.index(h) > rank
                ]
                if blockers:
                    self._violate(
                        f"section {name!r} entered while holding "
                        f"{blockers[-1]!r}; declared order is "
                        f"{' -> '.join(self.order)}"
                    )
            held.append(name)

    def _exit(self, name: str) -> None:
        thread = threading.get_ident()
        with self._lock:
            held = self._held.get(thread, [])
            if name in held:
                held.remove(name)

    # -- verdicts --------------------------------------------------------
    def findings(self) -> List[Finding]:
        with self._lock:
            out = list(self._violations)
            now = time.monotonic()
            for wait in self._waits.values():
                elapsed = now - wait.started
                if elapsed > wait.timeout + self.slack:
                    out.append(
                        Finding(
                            code="RPR302",
                            path="<runtime>",
                            line=0,
                            message=(
                                f"wait for {wait.kind!r} still blocked after "
                                f"{elapsed:.2f}s (bound {wait.timeout:.2f}s)"
                            ),
                            source="runtime",
                        )
                    )
        return out

    def assert_clean(self) -> None:
        findings = self.findings()
        if findings:
            raise SanitizerError(findings)
