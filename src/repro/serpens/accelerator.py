"""Top-level Serpens accelerator API.

:class:`SerpensAccelerator` is the public entry point a downstream user works
with: construct it from a :class:`SerpensConfig`, hand it a sparse matrix,
and ask it either to *simulate* the SpMV (cycle-accurate, numerically
verified, for matrices up to a few million non-zeros) or to *estimate*
performance with the detailed or analytic model (for the huge evaluation
matrices).  Every entry point returns the computed vector (when available)
together with an :class:`~repro.metrics.ExecutionReport` carrying the metrics
the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..formats import COOMatrix, CSRMatrix
from ..metrics import SERPENS_POWER, ExecutionReport
from ..preprocess import SerpensProgram, build_program
from ..spmv import spmv
from .config import SERPENS_A16, SerpensConfig
from .cycle_model import analytic_cycles, detailed_cycles
from .resources import ResourceUsage, estimate_resources
from .simulator import SerpensSimulator, SimulationResult

__all__ = ["SerpensAccelerator"]


@dataclass
class SerpensAccelerator:
    """A configured Serpens instance.

    Parameters
    ----------
    config:
        Architecture configuration; defaults to the paper's Serpens-A16.

    Programs come from the vectorised builder and run on the columnar
    simulator engine.  The per-element oracles behind both (in
    :func:`~repro.preprocess.build_program` and :class:`SerpensSimulator`)
    are bit-identical; only the equivalence tests and benchmarks select them.
    """

    config: SerpensConfig = SERPENS_A16

    # ------------------------------------------------------------------
    # Capability queries
    # ------------------------------------------------------------------
    def supports(self, matrix: COOMatrix) -> bool:
        """Whether the matrix's output vector fits the on-chip buffers (Eq. 3)."""
        return self.supports_rows(matrix.num_rows)

    def supports_rows(self, num_rows: int) -> bool:
        """Row-capacity answer from the shape alone (Eq. 3)."""
        return num_rows <= self.config.max_rows

    def resources(self) -> ResourceUsage:
        """Estimated FPGA resource usage of this configuration."""
        return estimate_resources(self.config)

    # ------------------------------------------------------------------
    # Preprocessing
    # ------------------------------------------------------------------
    def preprocess(self, matrix: COOMatrix) -> SerpensProgram:
        """Run the host-side preprocessing once, for reuse across many runs."""
        if isinstance(matrix, CSRMatrix):
            matrix = matrix.to_coo()
        return build_program(matrix, self.config.to_partition_params())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        matrix: COOMatrix,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        program: Optional[SerpensProgram] = None,
        matrix_name: str = "matrix",
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Cycle-accurately simulate ``alpha * A @ x + beta * y``.

        Returns the output vector and the execution report.  The report's
        timing comes from the simulated cycle count at the configuration's
        clock frequency.
        """
        if isinstance(matrix, CSRMatrix):
            matrix = matrix.to_coo()
        if program is None:
            program = self.preprocess(matrix)
        simulator = SerpensSimulator(self.config)
        result: SimulationResult = simulator.run(program, x, y, alpha, beta)
        report = self._report(
            matrix_name,
            matrix.num_rows,
            matrix.num_cols,
            matrix.nnz,
            cycles=result.total_cycles,
            bytes_moved=result.bytes_moved,
            extra={
                "pe_utilisation": result.pe_utilisation,
                "busy_pe_utilisation": result.busy_pe_utilisation,
                "x_stream_cycles": float(result.cycles.x_stream_cycles),
                "y_stream_cycles": float(result.cycles.y_stream_cycles),
                "compute_cycles": float(result.cycles.compute_cycles),
                "hazard_violations": float(result.hazard_violations),
            },
        )
        return result.y, report

    def estimate(
        self,
        matrix: COOMatrix,
        matrix_name: str = "matrix",
        model: str = "detailed",
    ) -> ExecutionReport:
        """Estimate performance without simulating the datapath.

        Parameters
        ----------
        model:
            ``"analytic"`` for the paper's Eq. (4) lower bound, ``"detailed"``
            (default) for the model with load imbalance and hazard padding.
        """
        if isinstance(matrix, CSRMatrix):
            matrix = matrix.to_coo()
        if model == "analytic":
            breakdown = analytic_cycles(
                matrix.num_rows, matrix.num_cols, matrix.nnz, self.config
            )
        elif model == "detailed":
            breakdown = detailed_cycles(matrix, self.config)
        else:
            raise ValueError(f"unknown model {model!r}; use 'analytic' or 'detailed'")

        bytes_moved = 8 * matrix.nnz + 4 * (matrix.num_cols + 2 * matrix.num_rows)
        return self._report(
            matrix_name,
            matrix.num_rows,
            matrix.num_cols,
            matrix.nnz,
            cycles=breakdown.total,
            bytes_moved=bytes_moved,
            extra={
                "x_stream_cycles": float(breakdown.x_stream_cycles),
                "y_stream_cycles": float(breakdown.y_stream_cycles),
                "compute_cycles": float(breakdown.compute_cycles),
                "model_analytic": 1.0 if model == "analytic" else 0.0,
            },
        )

    def estimate_from_shape(
        self,
        num_rows: int,
        num_cols: int,
        nnz: int,
        matrix_name: str = "matrix",
    ) -> ExecutionReport:
        """Analytic estimate from shape statistics alone (no matrix needed).

        Used by the SuiteSparse-scale sweeps where materialising every matrix
        would be wasteful; only Eq. (4) quantities are required.
        """
        breakdown = analytic_cycles(num_rows, num_cols, nnz, self.config)
        bytes_moved = 8 * nnz + 4 * (num_cols + 2 * num_rows)
        return self._report(
            matrix_name,
            num_rows,
            num_cols,
            nnz,
            cycles=breakdown.total,
            bytes_moved=bytes_moved,
            extra={"model_analytic": 1.0},
        )

    def verify(self, matrix: COOMatrix, seed: int = 0, rtol: float = 1e-4) -> bool:
        """Simulate a random SpMV on ``matrix`` and compare to the golden kernel."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=matrix.num_cols)
        y_in = rng.uniform(-1.0, 1.0, size=matrix.num_rows)
        alpha, beta = 1.5, -0.5
        y_sim, __ = self.run(matrix, x, y_in, alpha, beta)
        y_ref = spmv(matrix, x, y_in, alpha, beta)
        return bool(np.allclose(y_sim, y_ref, rtol=rtol, atol=1e-5))

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _report(
        self,
        matrix_name: str,
        num_rows: int,
        num_cols: int,
        nnz: int,
        cycles: int,
        bytes_moved: int,
        extra: Optional[dict] = None,
    ) -> ExecutionReport:
        return ExecutionReport(
            accelerator=self.config.name,
            matrix_name=matrix_name,
            num_rows=num_rows,
            num_cols=num_cols,
            nnz=nnz,
            cycles=cycles,
            frequency_mhz=self.config.frequency_mhz,
            bandwidth_gbps=self.config.utilized_bandwidth_gbps,
            power_watts=SERPENS_POWER.measured(),
            bytes_moved=bytes_moved,
            extra=extra or {},
        )
