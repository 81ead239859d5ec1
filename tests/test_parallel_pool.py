"""Tests for repro.parallel.pool: the wall-clock worker pool.

These spawn real worker processes, so traces are kept deliberately small.
Everything asserted here is timing-independent — numerics, accounting and
fault recovery — because CI hosts (often single-core) make wall-clock
*speed* assertions meaningless.
"""

import multiprocessing
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.obs import ResultsStore
from repro.parallel import WallClockReport, WallClockResult, WorkerPool
from repro.parallel import pool as pool_module
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, crash_plan
from repro.serve import (
    Request,
    Scheduler,
    SpMVService,
    generate_trace,
    matrix_fingerprint,
)
from repro.spmv import spmv

SCENARIO = "solver-burst"
REQUESTS = 24
SEED = 7


def small_trace():
    return generate_trace(SCENARIO, REQUESTS, seed=SEED)


def golden_ys(trace):
    """Reference spmv answers, indexed like the pool's request ids."""
    ys = []
    for request in trace.requests:
        workload = trace.matrices[request.matrix_id]
        x = trace.x_vector(request, workload.matrix.num_cols)
        ys.append(spmv(workload.matrix, x))
    return ys


class TestWallClockParity:
    def test_pool_matches_virtual_time_service_bitwise(self):
        """Measured and modelled paths compute the same numerics.

        Both run compute="simulate" on the same engine/build, so the engine
        datapath output must be bitwise identical request by request.
        """
        trace = small_trace()
        service = SpMVService(num_devices=1, compute="simulate")
        modelled = service.run_trace(trace)
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            report = pool.run_trace(trace)
        assert len(report.results) == trace.num_requests
        assert [r.request_id for r in report.results] == list(
            range(trace.num_requests)
        )
        for result in report.results:
            np.testing.assert_array_equal(
                result.y, modelled.results[result.request_id].y
            )
        assert report.respawns == 0
        assert report.retries == 0
        assert report.inline_requests == 0
        snapshot = report.snapshot()
        assert snapshot["completed"] == float(trace.num_requests)
        assert snapshot["workers"] == 2.0
        assert snapshot["makespan_seconds"] > 0.0
        assert snapshot["latency_p50_ms"] <= snapshot["latency_p99_ms"]

    def test_inline_degrade_matches_reference(self):
        """num_workers=0 serves in-process and still answers correctly."""
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=0, compute="simulate") as pool:
            report = pool.run_trace(trace)
        assert len(report.results) == trace.num_requests
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )
            assert result.worker_id == -1


class TestFaultInjection:
    def test_worker_death_loses_and_duplicates_nothing(self):
        """A worker killed mid-batch is respawned and its work retried once.

        The injection fires *after* the batch is computed but *before* the
        reply is sent — the exact window where a crash would silently lose
        work without the retry protocol.
        """
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(
            num_workers=2,
            compute="simulate",
            fault_plan=crash_plan({0: 0}),
            batch_timeout=15.0,
        ) as pool:
            report = pool.run_trace(trace)
        ids = [r.request_id for r in report.results]
        assert ids == sorted(ids)
        assert ids == list(range(trace.num_requests))  # nothing lost, no dups
        assert report.respawns >= 1
        assert report.retries >= 1
        for result in report.results:
            np.testing.assert_allclose(
                result.y, golden[result.request_id], rtol=1e-4, atol=1e-5
            )

    def test_reference_compute_mode(self):
        """compute="reference" runs the golden kernel inside the workers."""
        trace = small_trace()
        golden = golden_ys(trace)
        with WorkerPool(num_workers=1, compute="reference") as pool:
            report = pool.run_trace(trace)
        for result in report.results:
            np.testing.assert_array_equal(result.y, golden[result.request_id])


def wrong_answers(report, trace):
    """Request ids whose y is missing, misshapen or off the reference."""
    golden = golden_ys(trace)
    return [
        r.request_id
        for r in report.results
        if r.y is None
        or r.y.shape != golden[r.request_id].shape
        or not np.allclose(r.y, golden[r.request_id], rtol=1e-4, atol=1e-5)
    ]


@pytest.fixture
def liveness_polls_raise(monkeypatch):
    """Make ``Process.is_alive`` raise until the returned undo is called."""

    def polled(self):
        raise AssertionError("the pool polled Process.is_alive()")

    def install():
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "is_alive", polled)

    install.undo = monkeypatch.undo
    return install


class TestControlPlane:
    def test_late_reply_from_an_earlier_run_is_dropped(self):
        """A slow worker's replies to a finished run never answer the next.

        Worker 1 is slowed by ~0.5 s a batch, so hedges on worker 0 win the
        first run and worker 1's originals reply after it has ended.  Batch
        ids restart at 0 every run: a reply matched by id alone would hand
        the second run those stale ys.
        """
        plan = FaultPlan(
            faults=(FaultSpec(kind="slow", worker=1, at_batch=0, factor=500.0),)
        )
        with WorkerPool(
            num_workers=2,
            compute="simulate",
            max_batch=4,
            batch_timeout=60.0,
            fault_plan=plan,
            retry_policy=RetryPolicy(hedge_after_p95=1.0, hedge_min_seconds=0.2),
        ) as pool:
            first = pool.run_trace(small_trace())
            assert first.hedges >= 1
            time.sleep(1.5)  # the stale replies are sent meanwhile
            trace = generate_trace("mixed", 24, seed=3)
            report = pool.run_trace(trace)
        assert wrong_answers(first, small_trace()) == []
        assert [r.request_id for r in report.results] == list(range(24))
        assert wrong_answers(report, trace) == []

    def test_control_messages_are_small(self, tmp_path, monkeypatch):
        """Execute tasks and result replies carry ids, never vectors.

        Below 16 KiB a pipe message is written in one ``write``, so a woken
        reader never blocks on half a message and two senders cannot
        deadlock.  Every pickled ``execute``/``result`` of a max_batch=32
        mixed run is logged — workers are forked, so theirs too — and
        checked; rmat-2k, the largest mixed matrix, fills batches of 32.
        """
        log = tmp_path / "messages.txt"
        dumps = ForkingPickler.__dict__["dumps"].__func__

        def recording(cls, obj, protocol=None):
            data = dumps(cls, obj, protocol)
            if isinstance(obj, tuple) and obj and obj[0] in ("execute", "result"):
                batch = obj[1] if obj[0] == "execute" else obj[2]
                with open(log, "a") as out:
                    out.write(f"{obj[0]} {len(batch.request_ids)} {len(data)}\n")
            return data

        monkeypatch.setattr(ForkingPickler, "dumps", classmethod(recording))
        trace = generate_trace("mixed", 240, seed=1)
        with WorkerPool(num_workers=2, compute="simulate", max_batch=32) as pool:
            report = pool.run_trace(trace)
        assert wrong_answers(report, trace) == []
        sizes = {"execute": [], "result": []}
        for line in log.read_text().splitlines():
            kind, requests, nbytes = line.split()
            sizes[kind].append((int(requests), int(nbytes)))
        for kind, seen in sizes.items():
            assert max(requests for requests, _ in seen) == 32, kind
            assert max(nbytes for _, nbytes in seen) < 16 * 1024, kind

    def test_fault_free_run_never_polls_liveness(self, liveness_polls_raise):
        trace = small_trace()
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            pool.start()
            liveness_polls_raise()
            try:
                report = pool.run_trace(trace)
            finally:
                liveness_polls_raise.undo()
        assert wrong_answers(report, trace) == []
        assert report.respawns == report.retries == report.inline_requests == 0

    def test_crash_is_found_without_polling(self, liveness_polls_raise):
        """The crashed worker's sentinel, not a poll, triggers its respawn."""
        trace = small_trace()
        with WorkerPool(
            num_workers=2,
            compute="simulate",
            fault_plan=crash_plan({0: 0}),
            batch_timeout=15.0,
        ) as pool:
            pool.start()
            liveness_polls_raise()
            try:
                report = pool.run_trace(trace)
            finally:
                liveness_polls_raise.undo()
        assert [r.request_id for r in report.results] == list(range(REQUESTS))
        assert report.respawns >= 1
        assert report.retries >= 1
        assert wrong_answers(report, trace) == []


def fifo_batches(trace, max_batch):
    """Request ids per batch, as a FIFO Scheduler batches the whole trace."""
    scheduler = Scheduler(policy="fifo", max_batch=max_batch)
    for index, request in enumerate(trace.requests):
        matrix = trace.matrices[request.matrix_id].matrix
        scheduler.admit(
            Request(
                request_id=index,
                tenant=request.tenant,
                fingerprint=matrix_fingerprint(matrix),
                x=np.zeros(0),
            )
        )
    batches = []
    while True:
        batch = scheduler.next_batch()
        if not batch:
            return batches
        batches.append(tuple(r.request_id for r in batch))


@pytest.fixture
def releasers(monkeypatch):
    """Every release-step batcher a run builds, kept for inspection."""
    built = []

    class Recording(pool_module._Releaser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(pool_module, "_Releaser", Recording)
    return built


class TestReleaseStepBatching:
    """Requests due in the same step are batched by matrix, not adjacency."""

    @pytest.mark.parametrize(
        "drive",
        [{}, {"open_loop": True, "arrival_scale": 1e-12}],
        ids=["saturation", "open-loop-all-due"],
    )
    def test_batches_match_the_fifo_scheduler(self, releasers, drive):
        trace = generate_trace("mixed", 60, seed=1)
        expected = fifo_batches(trace, max_batch=8)
        with WorkerPool(num_workers=2, compute="none", max_batch=8) as pool:
            report = pool.run_trace(trace, **drive)
        (releaser,) = releasers
        formed = [state.batch.request_ids for state in releaser.batches]
        assert formed == expected
        assert [state.batch.batch_id for state in releaser.batches] == list(
            range(len(expected))
        )
        assert report.batches == len(expected)
        assert report.snapshot()["mean_batch_size"] == 60 / len(expected)
        sizes = {rid: len(batch) for batch in expected for rid in batch}
        assert [r.batch_size for r in report.results] == [
            sizes[r.request_id] for r in report.results
        ]

    def test_open_loop_never_dispatches_before_due(self, releasers):
        trace = small_trace()
        scale = 100.0
        with WorkerPool(num_workers=2, compute="simulate") as pool:
            report = pool.run_trace(trace, open_loop=True, arrival_scale=scale)
        assert report.retries == 0
        (releaser,) = releasers
        assert sum(len(s.requests) for s in releaser.batches) == REQUESTS
        for state in releaser.batches:
            for request_id, __, due_at in state.requests:
                arrival = trace.requests[request_id].arrival_time
                assert due_at == releaser.started + arrival * scale
                assert state.enqueued_at >= due_at
        # Latency is timed from each request's own due time.
        assert all(r.latency_seconds > 0.0 for r in report.results)

    def test_large_batches_stay_bitwise_equal_to_the_service(self):
        trace = generate_trace("mixed", 64, seed=1)
        modelled = SpMVService(num_devices=1, compute="simulate").run_trace(trace)
        with WorkerPool(num_workers=2, compute="simulate", max_batch=32) as pool:
            report = pool.run_trace(trace)
        assert report.snapshot()["mean_batch_size"] > 4.0
        assert [r.request_id for r in report.results] == list(range(64))
        for result in report.results:
            expected = modelled.results[result.request_id].y
            assert result.y.dtype == expected.dtype
            np.testing.assert_array_equal(result.y, expected)


class TestWallClockSnapshot:
    def test_mean_batch_size_counts_served_batches_only(self):
        """A run that sheds half its batches keeps its served batch size."""

        def result(request_id, shed):
            return WallClockResult(
                request_id=request_id,
                matrix_name="m",
                tenant="t",
                worker_id=-1 if shed else 0,
                y=None if shed else np.zeros(1, dtype=np.float32),
                latency_seconds=0.001,
                batch_size=4,
                shed=shed,
                shed_reason="deadline" if shed else "",
            )

        report = WallClockReport(
            scenario="adhoc",
            num_workers=1,
            compute="simulate",
            engine="serpens-a16",
            results=[result(i, shed=i >= 8) for i in range(16)],
            makespan_seconds=1.0,
            engine_cycles=0.0,
            traversed_edges=0.0,
            batches=4,
            retries=0,
            respawns=0,
            inline_requests=0,
            prepare_count=1,
            shed_requests=8,
            shed_batches=2,
        )
        snapshot = report.snapshot()
        assert snapshot["completed"] == 8.0
        assert snapshot["mean_batch_size"] == 4.0

    def test_fully_shed_run_has_no_batch_size(self):
        trace = small_trace()
        with WorkerPool(num_workers=1, compute="simulate") as pool:
            report = pool.run_trace(trace, deadline_s=0.0)
        assert report.shed_batches == report.batches > 0
        assert report.snapshot()["mean_batch_size"] == 0.0


class TestShardResults:
    def test_shards_are_merged_into_one_store(self, tmp_path):
        """Each worker writes its own shard DB; shutdown folds them in."""
        path = str(tmp_path / "wallclock.db")
        trace = small_trace()
        with WorkerPool(
            num_workers=2, compute="simulate", results_path=path, scenario=SCENARIO
        ) as pool:
            pool.run_trace(trace)
        with ResultsStore(path) as store:
            shards = store.list_runs(topic="serve-wallclock-shard")
        assert len(shards) == 2
        assert {r.config["worker_id"] for r in shards} == {0, 1}
        assert sum(r.metrics["requests"] for r in shards) == float(
            trace.num_requests
        )
        assert all(r.scenario == SCENARIO for r in shards)


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=-1)

    def test_unknown_compute_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(compute="quantum")

    def test_run_after_shutdown_rejected(self):
        pool = WorkerPool(num_workers=0)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_trace(small_trace())
