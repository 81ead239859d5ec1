"""The fast engine's warm launch: what it builds, what it caches, and that
the cache never changes an answer.

A warm fast launch reuses a plan cached on the columnar program per build —
each element's output row and x column plus the x-independent accounting —
and runs one fp32 kernel.  These tests pin the structure (no PE models, no
accumulator larger than the output) and prove the cached launches are
bit-identical to the reference oracle on the first launch and every later
one, including cross-config replays and hazardful streams.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import Session
from repro.formats import COOMatrix
from repro.generators import random_uniform, rmat_adjacency
from repro.preprocess import build_program
from repro.serpens import SERPENS_A16, SerpensConfig, SerpensSimulator
from repro.serpens.pe import ProcessingEngine


def small_config(**overrides):
    defaults = dict(
        name="Serpens-launch-cache",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=128,
        segment_width=64,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


def assert_same_run(fast, reference):
    assert np.array_equal(fast.y, reference.y)
    assert fast.cycles == reference.cycles
    assert fast.bytes_moved == reference.bytes_moved
    assert fast.traffic_by_role == reference.traffic_by_role
    assert fast.pe_utilisation == reference.pe_utilisation
    assert fast.busy_pe_utilisation == reference.busy_pe_utilisation
    assert fast.hazard_violations == reference.hazard_violations


@pytest.fixture
def pe_constructions(monkeypatch):
    """Count every ProcessingEngine built while the fixture is active."""
    built = []
    original = ProcessingEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ProcessingEngine, "__init__", counting_init)
    return built


@pytest.fixture
def array_allocations(monkeypatch):
    """Record the size of every array made by a NumPy allocation routine."""
    sizes = []

    def recording(name):
        original = getattr(np, name)

        def allocate(*args, **kwargs):
            array = original(*args, **kwargs)
            sizes.append(array.size)
            return array

        monkeypatch.setattr(np, name, allocate)

    for name in ("zeros", "empty", "ones", "full", "zeros_like", "empty_like", "full_like"):
        recording(name)
    return sizes


class TestWarmLaunchStructure:
    def test_warm_session_launch_builds_no_pes_and_no_big_arrays(
        self, pe_constructions, array_allocations
    ):
        matrix = rmat_adjacency(2048, 6.0, seed=3)
        session = Session("serpens-a16")
        handle = session.register(matrix, "rmat-2k")
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        session.launch(handle, x)  # first launch plans and caches
        pe_constructions.clear()
        array_allocations.clear()

        y, report = session.launch(handle, x)

        assert pe_constructions == []
        assert array_allocations, "the launch must allocate its accumulator"
        assert max(array_allocations) <= matrix.num_rows
        assert report.cycles > 0 and y.shape == (matrix.num_rows,)

    def test_reference_run_builds_every_pe(self, pe_constructions):
        config = small_config()
        matrix = random_uniform(100, 100, 900, seed=1)
        x = np.ones(matrix.num_cols)
        reference = SerpensSimulator(config, mode="reference")
        reference.run(matrix, x)
        assert len(pe_constructions) == config.total_pes
        assert len(reference.pes) == config.total_pes
        assert reference.memory.total_bytes > 0

    def test_hardware_state_stays_readable_after_a_fast_run(self, pe_constructions):
        config = small_config()
        matrix = random_uniform(100, 100, 900, seed=2)
        fast = SerpensSimulator(config)
        fast.run(matrix, np.ones(matrix.num_cols))
        assert pe_constructions == []
        assert [pe.pe_id for pe in fast.pes] == list(range(config.total_pes))
        assert fast.memory.allocation_table()["sparse_A"] == config.num_sparse_channels


def replay_both(program, config, x, launches=2, **sim):
    """Run ``launches`` fast launches and one reference run of ``program``."""
    fast = [
        SerpensSimulator(config, mode="fast", **sim).run(program, x)
        for __ in range(launches)
    ]
    reference = SerpensSimulator(config, mode="reference", **sim).run(program, x)
    return fast, reference


class TestCachedLaunchesMatchTheOracle:
    def test_replay_on_a_larger_build(self):
        # More channels, same stride: rows of the program's PEs land on the
        # larger build's rows, some past the matrix, which are dropped.
        matrix = random_uniform(200, 200, 2500, seed=4)
        program = build_program(matrix, small_config().to_partition_params())
        x = np.random.default_rng(4).uniform(-1, 1, matrix.num_cols)
        fast, reference = replay_both(program, small_config(num_sparse_channels=4), x)
        for launch in fast:
            assert_same_run(launch, reference)

    def test_replay_on_a_smaller_build(self):
        # A 16-PE program (2 channels x 8 lanes) on a 12-PE build (3 x 4):
        # only rows owned by program PEs 0-3 are non-zero, so no lanes
        # collapse, but every row past the first URAM entry moves.
        wide = small_config(pes_per_channel=8)
        narrow = small_config(num_sparse_channels=3, pes_per_channel=4)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 400, 3000)
        rows = rows[(rows // 2) % wide.total_pes < 4]
        cols = rng.integers(0, 150, rows.size)
        matrix = COOMatrix(400, 150, rows, cols, rng.uniform(-1, 1, rows.size))
        program = build_program(matrix, wide.to_partition_params())
        x = rng.uniform(-1, 1, matrix.num_cols)
        fast, reference = replay_both(program, narrow, x)
        assert reference.hazard_violations == 0
        for launch in fast:
            assert_same_run(launch, reference)
        assert narrow.to_partition_params() in program.columnar().launch_cache

    def test_hazardful_stream_never_caches_its_accounting(self):
        config = small_config()
        matrix = random_uniform(200, 200, 3000, seed=9)
        loose = replace(config.to_partition_params(), dsp_latency=1)
        program = build_program(matrix, loose)
        x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
        fast, reference = replay_both(program, config, x, strict_hazard_check=False)
        assert reference.hazard_violations > 0
        for launch in fast:
            assert_same_run(launch, reference)
        assert program.columnar().launch_cache == {}

    def test_program_wider_than_the_build_is_rejected_by_both_engines(self):
        matrix = random_uniform(100, 100, 900, seed=12)
        program = build_program(
            matrix, small_config(num_sparse_channels=4).to_partition_params()
        )
        x = np.ones(matrix.num_cols)
        for mode in ("fast", "reference"):
            with pytest.raises(IndexError):
                SerpensSimulator(small_config(), mode=mode).run(program, x)
        assert program.columnar().launch_cache == {}

    def test_paper_configuration_first_and_warm_launch(self):
        matrix = rmat_adjacency(1500, 8.0, seed=6)
        program = build_program(matrix, SERPENS_A16.to_partition_params())
        rng = np.random.default_rng(6)
        for __ in range(2):
            x = rng.uniform(-1, 1, matrix.num_cols)
            fast, reference = replay_both(program, SERPENS_A16, x, launches=1)
            assert_same_run(fast[0], reference)


class TestResultsAreIndependentObjects:
    def test_mutating_traffic_does_not_leak_into_the_next_launch(self):
        config = small_config()
        matrix = random_uniform(120, 120, 1200, seed=7)
        program = build_program(matrix, config.to_partition_params())
        x = np.ones(matrix.num_cols)
        first = SerpensSimulator(config).run(program, x)
        expected = dict(first.traffic_by_role)
        first.traffic_by_role["sparse_A"] = -1
        first.traffic_by_role["bogus"] = 1
        second = SerpensSimulator(config).run(program, x)
        assert second.traffic_by_role == expected
        assert second.bytes_moved == sum(expected.values())

    def test_mutating_report_extra_does_not_leak_into_the_next_launch(self):
        matrix = random_uniform(300, 300, 2400, seed=8)
        session = Session("serpens-a16")
        handle = session.register(matrix, "m")
        x = np.ones(matrix.num_cols)
        __, first = session.launch(handle, x)
        expected = dict(first.extra)
        first.extra["compute_cycles"] = -1.0
        first.extra["bogus"] = 1.0
        __, second = session.launch(handle, x)
        assert second.extra == expected
