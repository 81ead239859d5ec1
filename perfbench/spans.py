"""In-memory layer spans recorded around the public calls into each layer.

The recorder patches the calls listed by :func:`layer_calls` for the
duration of a traced phase and restores them afterwards; no code under
``src/`` knows it is being traced.  Spans hold name, start, end and the
index of the enclosing span, and are written out once, at the end of a run.
Worker processes inherit the patches through ``fork`` but record nothing:
their ``execute`` spans come from the pool's own event shards instead.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import self_times


def _nnz_of_first_arg(args, kwargs) -> Dict[str, Any]:
    matrix = args[0] if args else kwargs.get("matrix")
    return {"nnz": int(getattr(matrix, "nnz", 0))}


def layer_calls() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, attrs) for every traced layer call."""
    import repro.serpens.accelerator as accelerator
    from repro.backends import Session
    from repro.parallel import WorkerPool
    from repro.serpens import SerpensAccelerator
    from repro.serpens.simulator import SerpensSimulator
    from repro.serve import ProgramCache

    return [
        (Session, "register", "backends.register", None),
        (Session, "launch", "backends.launch", None),
        (SerpensAccelerator, "run", "serpens.accel_run", None),
        (SerpensSimulator, "__init__", "serpens.sim_init", None),
        (SerpensSimulator, "run", "serpens.sim_run", None),
        # The accelerator calls build_program through its own module namespace.
        (accelerator, "build_program", "preprocess.build", _nnz_of_first_arg),
        (ProgramCache, "get_or_build", "serve.cache_get_or_build", None),
        (WorkerPool, "start", "parallel.start", None),
        (WorkerPool, "register", "parallel.register", None),
        (WorkerPool, "ping", "parallel.ping", None),
        (WorkerPool, "run_trace", "parallel.run_trace", None),
    ]


class SpanRecorder:
    """Collects spans from the patched layer calls of this process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self.attrs: List[Dict[str, Any]] = []
        self.windows: List[Tuple[float, float]] = []
        self._stack: List[int] = []
        self._pid = os.getpid()

    def _wrap(self, original: Callable, name: str, attrs_fn) -> Callable:
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            recorder.spans.append((name, time.perf_counter(), 0.0, parent))
            recorder.attrs.append(attrs_fn(args, kwargs) if attrs_fn else {})
            recorder._stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._stack.pop()
                name_, start, _, parent_ = recorder.spans[index]
                recorder.spans[index] = (name_, start, time.perf_counter(), parent_)

        return traced

    @contextmanager
    def traced(self):
        """Patch every layer call, record the window, restore on exit."""
        patched = []
        started = time.perf_counter()
        try:
            for owner, attribute, name, attrs_fn in layer_calls():
                original = getattr(owner, attribute)
                setattr(owner, attribute, self._wrap(original, name, attrs_fn))
                patched.append((owner, attribute, original))
            yield self
        finally:
            self.windows.append((started, time.perf_counter()))
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    def durations(self, name: str, top_level_only: bool = False) -> List[float]:
        return [
            end - start
            for span_name, start, end, parent in self.spans
            if span_name == name and not (top_level_only and parent is not None)
        ]

    def self_time_budget(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        budget: Dict[str, float] = {}
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            budget[name] = budget.get(name, 0.0) + own
        return budget

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "windows": self.windows,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, **attrs}
                for (n, s, e, p), attrs in zip(self.spans, self.attrs)
            ],
            "self_seconds": self.self_time_budget(),
        }
        path.write_text(json.dumps(payload))
