"""Tests for the runtime sanitizers: ShmAuditor (RPR301), PoolMonitor (RPR302)."""

import time

import numpy as np
import pytest

from repro.analysis import PoolMonitor, SanitizerError, ShmAuditor, ShmLifecycleError
from repro.parallel import WorkerPool, install_auditor, install_monitor, share_arrays
from repro.parallel import shm as parallel_shm
from repro.serve import generate_trace


class TestShmAuditor:
    def test_balanced_lifecycle_is_clean(self):
        auditor = ShmAuditor()
        install_auditor(auditor)
        try:
            block = share_arrays({"a": np.arange(16)})
            attached = block.descriptor.attach()
            attached.close()
            block.unlink()
        finally:
            install_auditor(None)
        assert auditor.tracked == 1
        auditor.assert_balanced()

    def test_leaked_segment_fires_rpr301_with_creation_site(self):
        auditor = ShmAuditor()
        install_auditor(auditor)
        try:
            block = share_arrays({"a": np.arange(16)})
            leak_line = _line_of_previous_statement()
            findings = auditor.findings()
            assert [f.code for f in findings] == ["RPR301"]
            assert "never unlinked" in findings[0].message
            assert findings[0].path.endswith("test_analysis_sanitize.py")
            assert findings[0].line == leak_line
            assert findings[0].source == "runtime"
            with pytest.raises(ShmLifecycleError):
                auditor.assert_balanced()
        finally:
            install_auditor(None)
            block.unlink()

    def test_attach_without_close_is_reported(self):
        auditor = ShmAuditor()
        block = share_arrays({"a": np.arange(4)})
        try:
            install_auditor(auditor)
            attached = block.descriptor.attach()
            findings = auditor.findings()
            assert any("opened but only 0 closed" in f.message for f in findings)
            attached.close()
            auditor.assert_balanced()
        finally:
            install_auditor(None)
            block.unlink()

    def test_simulated_worker_kill_leaves_the_leak_visible(self):
        # A killed worker never acks "stop": the owner-side blocks it was
        # registered with survive unless shutdown unlinks them.  Model the
        # event stream the auditor would see in that history.
        auditor = ShmAuditor()
        auditor.record("create", "repro-coo-dead", owner=True, nbytes=1024)
        auditor.record("close", "repro-coo-dead")
        # kill + respawn + re-register creates a second segment...
        auditor.record("create", "repro-coo-retry", owner=True, nbytes=1024)
        auditor.record("close", "repro-coo-retry")
        auditor.record("unlink", "repro-coo-retry")
        # ...but nothing ever unlinked the first one.
        findings = auditor.findings()
        assert [f.code for f in findings] == ["RPR301"]
        assert "repro-coo-dead" in findings[0].message

    def test_non_owner_unlink_is_reported(self):
        auditor = ShmAuditor()
        auditor.record("attach", "repro-prog-x")
        auditor.record("close", "repro-prog-x")
        auditor.record("unlink", "repro-prog-x")
        findings = auditor.findings()
        assert [f.code for f in findings] == ["RPR301"]
        assert "non-owner" in findings[0].message


def _line_of_previous_statement():
    import inspect

    return inspect.currentframe().f_back.f_lineno - 1


class TestPoolMonitor:
    def test_bounded_wait_within_timeout_is_clean(self):
        monitor = PoolMonitor(slack=0.5)
        token = monitor.wait_started("pong", timeout=1.0)
        monitor.wait_finished(token)
        monitor.assert_clean()
        assert monitor.waits_completed == 1

    def test_overdue_wait_is_a_violation(self):
        monitor = PoolMonitor(slack=0.0)
        token = monitor.wait_started("pong", timeout=0.01)
        time.sleep(0.05)
        monitor.wait_finished(token)
        findings = monitor.findings()
        assert [f.code for f in findings] == ["RPR302"]
        assert "beyond its declared bound" in findings[0].message
        with pytest.raises(SanitizerError):
            monitor.assert_clean()

    def test_still_blocked_wait_is_reported_without_finishing(self):
        monitor = PoolMonitor(slack=0.0)
        monitor.wait_started("stopped", timeout=0.01)
        time.sleep(0.05)
        findings = monitor.findings()
        assert any("still blocked" in f.message for f in findings)

    def test_section_order_violation(self):
        monitor = PoolMonitor(order=("tasks", "replies"))
        with monitor.section("replies"):
            with monitor.section("tasks"):
                pass
        findings = monitor.findings()
        assert [f.code for f in findings] == ["RPR302"]
        assert "declared order" in findings[0].message

    def test_declared_order_is_clean_and_reentry_is_not(self):
        monitor = PoolMonitor(order=("tasks", "replies"))
        with monitor.section("tasks"):
            with monitor.section("replies"):
                pass
        monitor.assert_clean()
        with monitor.section("tasks"):
            with monitor.section("tasks"):
                pass
        assert any("re-entered" in f.message for f in monitor.findings())


class TestPoolIntegration:
    def test_worker_pool_run_is_clean_under_both_sanitizers(self):
        auditor = ShmAuditor()
        monitor = PoolMonitor(slack=30.0)
        install_auditor(auditor)
        install_monitor(monitor)
        try:
            trace = generate_trace("solver-burst", 24, seed=3)
            with WorkerPool(num_workers=1, compute="none") as pool:
                report = pool.run_trace(trace)
            assert len(report.results) == trace.num_requests
            assert auditor.tracked >= 1
            assert monitor.waits_completed > 0
            auditor.assert_balanced()
            monitor.assert_clean()
        finally:
            install_auditor(None)
            install_monitor(None)

    def test_autouse_fixture_guards_this_module(self, shm_leak_sanitizer):
        # tests/conftest.py installs an auditor for every test_parallel_*
        # module; this module is not one, so the fixture must be inert here.
        assert shm_leak_sanitizer is None
        assert parallel_shm._AUDITOR is None
