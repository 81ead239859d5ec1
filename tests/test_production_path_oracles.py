"""The production path equals the two per-element oracles composed.

Production code never selects an engine: a :class:`~repro.backends.Session`
builds with the vectorised builder and runs the columnar simulator.  The
oracles — ``build_program(..., build_mode="reference")`` and
``SerpensSimulator(..., mode="reference")`` — are test-only entry points, and
this module pins the session's answer to theirs, bit for bit, in ``y``,
cycles and bytes moved.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import Session
from repro.generators import (
    banded_matrix,
    block_sparse_matrix,
    laplacian_2d,
    random_uniform,
    random_with_dense_rows,
    rmat_graph,
)
from repro.preprocess import build_program
from repro.serpens import AccumulationHazardError, SerpensConfig, SerpensSimulator


def small_config(**overrides):
    defaults = dict(
        name="Serpens-oracle-parity",
        num_sparse_channels=2,
        pes_per_channel=4,
        urams_per_pe=2,
        uram_depth=256,
        segment_width=128,
        dsp_latency=4,
    )
    defaults.update(overrides)
    return SerpensConfig(**defaults)


def oracle_run(matrix, config, x, y=None, alpha=1.0, beta=0.0, params=None, **sim):
    """Reference builder feeding the reference simulator."""
    program = build_program(
        matrix, params or config.to_partition_params(), build_mode="reference"
    )
    return SerpensSimulator(config, mode="reference", **sim).run(
        program, x, y, alpha, beta
    )


def assert_bitwise(y, cycles, bytes_moved, oracle):
    assert y.dtype == oracle.y.dtype
    assert y.tobytes() == oracle.y.tobytes()
    assert cycles == oracle.total_cycles
    assert bytes_moved == oracle.bytes_moved


#: (label, builder) for every generator family of the suite.
GENERATOR_SUITE = [
    ("random", lambda seed: random_uniform(240, 200, 2500, seed=seed)),
    ("random-hot-rows", lambda seed: random_with_dense_rows(
        180, 180, 2600, dense_row_share=0.6, seed=seed
    )),
    ("rmat", lambda seed: rmat_graph(300, 3200, seed=seed)),
    ("banded", lambda seed: banded_matrix(220, bandwidth=5, seed=seed)),
    ("block", lambda seed: block_sparse_matrix(
        20, 20, block_size=10, block_density=0.02, seed=seed
    )),
    ("laplacian", lambda seed: laplacian_2d(15, 14)),
]


@pytest.mark.parametrize("label,builder", GENERATOR_SUITE, ids=[g[0] for g in GENERATOR_SUITE])
@pytest.mark.parametrize("seed", [1, 7])
def test_session_launch_equals_composed_oracles(label, builder, seed):
    config = small_config()
    matrix = builder(seed)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, matrix.num_cols)
    y_in = rng.uniform(-1, 1, matrix.num_rows)

    session = Session(config)
    handle = session.register(matrix, name=label)
    y, report = session.launch(handle, x, y_in, 1.5, -0.5)

    oracle = oracle_run(matrix, config, x, y_in, 1.5, -0.5)
    assert_bitwise(y, report.cycles, report.bytes_moved, oracle)


def test_non_strict_hazardful_stream_equals_composed_oracles():
    # Reorder with a window of 1 (no constraint), then run on the real
    # window: the stream violates the accumulation hazard window.
    config = small_config()
    matrix = random_uniform(200, 200, 3000, seed=9)
    loose = replace(config.to_partition_params(), dsp_latency=1)
    x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)

    program = build_program(matrix, loose)
    # The production engine refuses the stream, exactly like the oracle ...
    with pytest.raises(AccumulationHazardError):
        SerpensSimulator(config).run(program, x)
    with pytest.raises(AccumulationHazardError):
        oracle_run(matrix, config, x, params=loose)
    # ... and without the strict check it emulates the broken hardware
    # (through its internal reference fallback) bit for bit.
    production = SerpensSimulator(config, strict_hazard_check=False).run(program, x)
    oracle = oracle_run(matrix, config, x, params=loose, strict_hazard_check=False)
    assert production.hazard_violations == oracle.hazard_violations > 0
    assert_bitwise(production.y, production.total_cycles, production.bytes_moved, oracle)
