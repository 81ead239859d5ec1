"""Cycle-accurate simulator of the Serpens accelerator.

The simulator replays a preprocessed :class:`~repro.preprocess.SerpensProgram`
module by module, mirroring Figure 1 of the paper:

* ``RdX`` streams the current x segment from its HBM channel into the BRAM
  copies shared by the PEs (16 floats per cycle),
* each ``RdA`` channel streams 8 encoded sparse elements per cycle, one to
  each of its 8 PEs, which multiply against the resident x segment and
  accumulate into their private URAM buffers,
* after the last segment, ``RdY`` streams the input y vector while ``CompY``
  applies the ``alpha`` / ``beta`` scaling to the drained accumulator values
  and ``WrY`` writes the result back, 16 floats per cycle.

The simulator is functional *and* timed: it produces the numerical result
(which tests compare against the golden SpMV) and a cycle count with a phase
breakdown (which the performance evaluation uses), and it verifies along the
way that the preprocessed stream never violates the accumulation hazard
window or touches off-chip memory randomly.

Two execution modes produce that result:

* ``mode="fast"`` (default) runs the columnar engine.  Each segment's lane
  streams are decoded once into packed NumPy arrays
  (:meth:`~repro.preprocess.SerpensProgram.columnar`).  The first launch of
  a program on a build validates it (a sorted per-URAM-entry issue-cycle
  scan for the hazard window, plus address checks) and plans it: every
  element's global output row and x column, and the x-independent
  accounting (cycle breakdown, traffic by role, utilisation), all cached on
  the columnar program per build.  A warm launch is then one fp32 kernel —
  gather x, multiply, ``np.add.at`` into a ``num_rows`` accumulator — plus
  the ``alpha`` / ``beta`` scaling.  ``np.add.at`` applies each row's
  products in array order, which is the per-element model's accumulation
  order, so the numerics are bit-identical to it.
* ``mode="reference"`` replays every encoded element through the
  :class:`~repro.serpens.pe.ProcessingEngine` datapath model and streams its
  traffic through the board's :class:`~repro.hbm.BoardMemorySystem`.  It is
  orders of magnitude slower and exists as the verification oracle the fast
  path is proven against (and as the only engine that can *emulate* broken
  hardware: with ``strict_hazard_check=False`` a hazardful stream needs
  element-by-element stale-read modelling, so the fast path delegates that
  case to it on every launch).

The PEs and the memory system are built on first access, so only the
reference engine pays for them; the fast engine never touches either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..formats import COOMatrix
from ..hbm import BoardMemorySystem, FLOATS_PER_WORD
from ..preprocess import (
    ColumnarProgram,
    ColumnarSegment,
    PartitionParams,
    SerpensProgram,
    build_program,
    local_to_global_row,
)
from .config import SerpensConfig
from .cycle_model import CycleBreakdown
from .pe import AccumulationHazardError, ProcessingEngine

__all__ = ["EXECUTION_MODES", "SimulationResult", "SerpensSimulator"]

#: Execution modes of :class:`SerpensSimulator`.
EXECUTION_MODES = ("fast", "reference")


@dataclass
class SimulationResult:
    """Outcome of one simulated SpMV run.

    Attributes
    ----------
    y:
        The computed output vector ``alpha * A @ x + beta * y_in``.
    cycles:
        Phase-level cycle breakdown.
    pe_utilisation:
        Mean fraction of PE issue slots carrying real elements, averaged
        over *every* PE of the array — a PE idled by load imbalance counts
        as 0, so whole idle channels drag the mean down the way they drag
        real throughput down.
    bytes_moved:
        Total off-chip traffic of the run.
    traffic_by_role:
        Bytes moved per channel role (sparse_A, dense_x, dense_y_in, ...).
    busy_pe_utilisation:
        The historical utilisation number: the mean over only the PEs that
        received at least one issue slot.
    hazard_violations:
        Accumulation-hazard violations observed in the stream (always 0 for
        a correctly reordered program; non-zero only with
        ``strict_hazard_check=False`` on ablation streams).
    """

    y: np.ndarray
    cycles: CycleBreakdown
    pe_utilisation: float
    bytes_moved: int
    traffic_by_role: Dict[str, int] = field(default_factory=dict)
    busy_pe_utilisation: float = 0.0
    hazard_violations: int = 0

    @property
    def total_cycles(self) -> int:
        """Total cycles of the run."""
        return self.cycles.total


@dataclass(frozen=True)
class _Accounting:
    """The x-independent part of a run: cycles, traffic, utilisation, hazards."""

    x_stream_cycles: int
    y_stream_cycles: int
    compute_cycles: int
    pe_utilisation: float
    busy_pe_utilisation: float
    traffic_by_role: Dict[str, int]
    hazard_violations: int

    def result(self, y: np.ndarray) -> SimulationResult:
        """A run's result; every mutable part is a fresh object per call."""
        return SimulationResult(
            y=y,
            cycles=CycleBreakdown(
                x_stream_cycles=self.x_stream_cycles,
                y_stream_cycles=self.y_stream_cycles,
                compute_cycles=self.compute_cycles,
                overhead_cycles=0,
            ),
            pe_utilisation=self.pe_utilisation,
            bytes_moved=sum(self.traffic_by_role.values()),
            traffic_by_role=dict(self.traffic_by_role),
            busy_pe_utilisation=self.busy_pe_utilisation,
            hazard_violations=self.hazard_violations,
        )


@dataclass(frozen=True)
class _FastPlan:
    """What a warm fast launch reuses, cached per build on the columnar program.

    ``columns``, ``values`` and ``targets`` are parallel over every element
    that lands in the output (all segments, in segment order, each in its
    lane-major slot order): the global x column it multiplies, its fp32
    value, and the global row it accumulates into.
    """

    columns: np.ndarray
    values: np.ndarray
    targets: np.ndarray
    accounting: _Accounting


class SerpensSimulator:
    """Replay a preprocessed program on a module-level model of Serpens.

    Parameters
    ----------
    config:
        The Serpens build to model.
    strict_hazard_check:
        When True (default) a stream violating the accumulation hazard
        window raises; when False the violation is counted and the broken
        hardware behaviour is emulated (the ablation configuration).
    mode:
        ``"fast"`` (default) runs the vectorised columnar engine,
        ``"reference"`` the per-element datapath model.  Both produce
        bit-identical fp32 results, cycle breakdowns and traffic.
    """

    def __init__(
        self,
        config: SerpensConfig,
        strict_hazard_check: bool = True,
        mode: str = "fast",
    ):
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; use one of {EXECUTION_MODES}"
            )
        self.config = config
        self.params: PartitionParams = config.to_partition_params()
        self.strict_hazard_check = strict_hazard_check
        self.mode = mode
        self._memory: Optional[BoardMemorySystem] = None
        self._pes: Optional[List[ProcessingEngine]] = None

    # ------------------------------------------------------------------
    # Hardware state, built on first access (only the reference engine)
    # ------------------------------------------------------------------
    @property
    def memory(self) -> BoardMemorySystem:
        """The board's channel allocation; the reference engine's traffic."""
        if self._memory is None:
            memory = BoardMemorySystem()
            memory.allocate("sparse_A", self.config.num_sparse_channels, kind="hbm")
            memory.allocate("dense_x", 1, kind="hbm")
            memory.allocate("dense_y_in", 1, kind="hbm")
            memory.allocate("dense_y_out", 1, kind="hbm")
            self._memory = memory
        return self._memory

    @property
    def pes(self) -> List[ProcessingEngine]:
        """One datapath model per PE, each with its URAM accumulation buffer."""
        if self._pes is None:
            entries = self.params.urams_per_pe * self.params.uram_depth
            self._pes = [
                ProcessingEngine(
                    pe_id=pe,
                    num_entries=entries,
                    rows_per_entry=self.params.rows_per_uram_entry,
                    dsp_latency=self.params.dsp_latency,
                    strict_hazard_check=self.strict_hazard_check,
                )
                for pe in range(self.params.total_pes)
            ]
        return self._pes

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        program_or_matrix,
        x: np.ndarray,
        y_in: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``y = alpha * A @ x + beta * y_in``.

        ``program_or_matrix`` may be an already preprocessed
        :class:`SerpensProgram` (preferred when the same matrix is reused
        across runs, matching how the real accelerator amortises
        preprocessing) or a raw :class:`COOMatrix`, which is preprocessed on
        the fly.
        """
        if isinstance(program_or_matrix, COOMatrix):
            program = build_program(program_or_matrix, self.params)
        elif isinstance(program_or_matrix, SerpensProgram):
            program = program_or_matrix
        else:
            raise TypeError(
                "run() expects a SerpensProgram or a COOMatrix, got "
                f"{type(program_or_matrix).__name__}"
            )

        x = np.asarray(x, dtype=np.float64)
        if x.shape != (program.num_cols,):
            raise ValueError(f"x must have length {program.num_cols}, got {x.shape}")
        if y_in is None:
            y_in = np.zeros(program.num_rows, dtype=np.float64)
        else:
            y_in = np.asarray(y_in, dtype=np.float64)
            if y_in.shape != (program.num_rows,):
                raise ValueError(f"y must have length {program.num_rows}, got {y_in.shape}")

        plan = self._fast_plan(program) if self.mode == "fast" else None
        if plan is None:
            accumulated, accounting = self._run_reference(program, x)
        else:
            accumulated, accounting = _fast_kernel(plan, program.num_rows, x), plan.accounting
        # CompY: drain the accumulators, scale and write y.
        return accounting.result(alpha * accumulated + beta * y_in)

    # ------------------------------------------------------------------
    # Reference engine: one ProcessingEngine.process call per issue slot
    # ------------------------------------------------------------------
    def _run_reference(
        self, program: SerpensProgram, x: np.ndarray
    ) -> Tuple[np.ndarray, _Accounting]:
        memory = self.memory
        memory.reset_traffic()
        for pe in self.pes:
            pe.reset_accumulator()
        x_channel = memory.allocation("dense_x")[0]
        sparse_channels = memory.allocation("sparse_A")

        # Phase 1: per-segment x streaming and sparse computation.
        x_stream_cycles = 0
        compute_cycles = 0
        global_cycle = 0
        for segment in program.segments:
            segment_x = x[segment.col_start : segment.col_end]
            x_channel.stream_read(4 * len(segment_x))
            x_load_cycles = -(-len(segment_x) // FLOATS_PER_WORD)
            x_stream_cycles += x_load_cycles
            global_cycle += x_load_cycles

            segment_slots = 0
            for channel_segment in segment.channels:
                channel = sparse_channels[channel_segment.channel]
                # Every issue slot of every lane is stored as an 8-byte
                # element in HBM; the channel streams 8 of them per cycle.
                stored_elements = (
                    channel_segment.num_slots * self.params.pes_per_channel
                )
                channel.stream_read(8 * stored_elements)
                segment_slots = max(segment_slots, channel_segment.num_slots)

                for lane_stream in channel_segment.lanes:
                    pe_index = (
                        channel_segment.channel * self.params.pes_per_channel
                        + lane_stream.lane
                    )
                    pe = self.pes[pe_index]
                    for slot, element in enumerate(lane_stream.elements):
                        pe.process(element, segment_x, global_cycle + slot)

            compute_cycles += segment_slots
            # The accumulator pipeline drains before the next x segment is
            # swapped in, so consecutive segments can never violate the
            # hazard window across the boundary.
            global_cycle += segment_slots + self.params.dsp_latency

        # Phase 2: RdY streams y_in while WrY writes the result back.
        memory.allocation("dense_y_in")[0].stream_read(4 * program.num_rows)
        memory.allocation("dense_y_out")[0].stream_write(4 * program.num_rows)

        mean_utilisation, busy_utilisation = _utilisation_summary(
            np.array([pe.cycles_busy for pe in self.pes], dtype=np.int64),
            np.array([pe.elements_processed for pe in self.pes], dtype=np.int64),
        )
        accounting = _Accounting(
            x_stream_cycles=x_stream_cycles,
            y_stream_cycles=_y_stream_cycles(program.num_rows),
            compute_cycles=compute_cycles,
            pe_utilisation=mean_utilisation,
            busy_pe_utilisation=busy_utilisation,
            traffic_by_role=memory.traffic_by_role(),
            hazard_violations=sum(pe.hazard_violations for pe in self.pes),
        )
        return self._gather_output(program.num_rows), accounting

    def _gather_output(self, num_rows: int) -> np.ndarray:
        """Drain every PE's accumulator back into a global row vector."""
        y = np.zeros(num_rows, dtype=np.float64)
        rows_per_pe_buffer = (
            self.params.urams_per_pe
            * self.params.uram_depth
            * self.params.rows_per_uram_entry
        )
        local_rows = np.arange(rows_per_pe_buffer, dtype=np.int64)
        for pe in self.pes:
            buffer = pe.accumulator()
            global_rows = local_to_global_row(
                np.full(rows_per_pe_buffer, pe.pe_id, dtype=np.int64),
                local_rows,
                self.params,
            )
            valid = global_rows < num_rows
            y[global_rows[valid]] = buffer[valid]
        return y

    # ------------------------------------------------------------------
    # Fast engine: vectorised columnar execution
    # ------------------------------------------------------------------
    def _remap_program_pes(self, program_params: PartitionParams) -> Optional[np.ndarray]:
        """Program-PE → simulator-PE translation for cross-config replay.

        A program carries PE ids computed with *its own* lanes-per-channel
        stride; the reference engine re-derives the PE from (channel, lane)
        with the simulator's stride, so replaying a program on a different
        build lands elements on the PEs that build would feed.  Returns the
        per-program-PE id table, or ``None`` when the layouts match and ids
        pass through unchanged.
        """
        if (
            program_params.pes_per_channel == self.params.pes_per_channel
            and program_params.total_pes == self.params.total_pes
        ):
            return None
        program_pe = np.arange(program_params.total_pes, dtype=np.int64)
        channel = program_pe // program_params.pes_per_channel
        lane = program_pe % program_params.pes_per_channel
        return channel * self.params.pes_per_channel + lane

    def _fast_plan(self, program: SerpensProgram) -> Optional[_FastPlan]:
        """This build's cached plan for ``program``, made on its first launch.

        Returns ``None`` for a hazardful stream under
        ``strict_hazard_check=False``: broken-hardware numerics depend on
        element-by-element stale reads, so every such launch runs the
        reference engine, and nothing about it is cached but the verdict.
        """
        columnar = program.columnar()
        params = self.params
        plan = columnar.launch_cache.get(params)
        if plan is not None:
            return plan
        pe_remap = self._remap_program_pes(program.params)

        # Vectorised hazard scan plus address validation over every segment,
        # before anything is planned.  The verdict is a pure function of
        # (program, simulator params), so it is cached on the columnar view.
        # A violating stream either raises (strict mode) or goes to the
        # reference engine, which models the stale reads.
        violations = columnar.validation_cache.get(params)
        if violations is None:
            violations = 0
            for segment in columnar.segments:
                if segment.value.size:
                    self._check_addresses(segment, params.rows_per_pe)
                violations += self._scan_hazards(segment, pe_remap, False)
            columnar.validation_cache[params] = violations
        if violations:
            if self.strict_hazard_check:
                for segment in columnar.segments:  # cold path: re-find the
                    self._scan_hazards(segment, pe_remap, True)  # first pair
            return None

        plan = self._plan(columnar, pe_remap)
        columnar.launch_cache[params] = plan
        return plan

    def _plan(
        self, columnar: ColumnarProgram, pe_remap: Optional[np.ndarray]
    ) -> _FastPlan:
        """Gather indices and accounting of a validated program on this build."""
        params = self.params
        num_rows = columnar.num_rows
        x_stream_cycles = 0
        compute_cycles = 0
        sparse_bytes = 0
        x_bytes = 0
        lane_slots = np.zeros(params.total_pes, dtype=np.int64)
        lane_real = np.zeros(params.total_pes, dtype=np.int64)
        columns: List[np.ndarray] = []
        values: List[np.ndarray] = []
        targets: List[np.ndarray] = []

        for segment in columnar.segments:
            segment_length = segment.segment_length
            x_bytes += 4 * segment_length
            x_stream_cycles += -(-segment_length // FLOATS_PER_WORD)
            if segment.channel_slots.size > params.num_channels:
                raise IndexError(
                    f"program streams {segment.channel_slots.size} sparse channels "
                    f"but this build has {params.num_channels}"
                )
            # Every issue slot of every lane is an 8-byte element in HBM.
            sparse_bytes += 8 * int(segment.channel_slots.sum()) * params.pes_per_channel
            compute_cycles += segment.compute_slots
            if pe_remap is None:
                lane_slots += segment.lane_slots
                lane_real += segment.lane_real
            else:
                np.add.at(lane_slots, pe_remap, segment.lane_slots)
                np.add.at(lane_real, pe_remap, segment.lane_real)

            if segment.value.size == 0:
                continue
            pe = segment.pe.astype(np.int64)
            if pe_remap is not None:
                pe = pe_remap[pe]
            # (PE, local row) -> global row is a bijection on this build, so
            # each row keeps exactly its own elements in their lane slot
            # order.  A cross-config replay can land elements on rows past
            # the matrix; those never reach y and are dropped.
            rows = local_to_global_row(pe, segment.local_row, params)
            keep = rows < num_rows
            segment_columns = segment.col_start + segment.column_offset.astype(np.intp)
            segment_values = segment.value
            if not keep.all():
                rows = rows[keep]
                segment_columns = segment_columns[keep]
                segment_values = segment_values[keep]
            columns.append(segment_columns)
            values.append(segment_values)
            targets.append(rows.astype(np.intp, copy=False))

        mean_utilisation, busy_utilisation = _utilisation_summary(lane_slots, lane_real)
        accounting = _Accounting(
            x_stream_cycles=x_stream_cycles,
            y_stream_cycles=_y_stream_cycles(num_rows),
            compute_cycles=compute_cycles,
            pe_utilisation=mean_utilisation,
            busy_pe_utilisation=busy_utilisation,
            traffic_by_role={
                "sparse_A": sparse_bytes,
                "dense_x": x_bytes,
                "dense_y_in": 4 * num_rows,
                "dense_y_out": 4 * num_rows,
            },
            hazard_violations=0,
        )
        return _FastPlan(
            columns=_concatenate(columns, np.intp),
            values=_concatenate(values, np.float32),
            targets=_concatenate(targets, np.intp),
            accounting=accounting,
        )

    def _check_addresses(self, segment: ColumnarSegment, rows_per_pe: int) -> None:
        """Reject elements outside this build's URAM or segment ranges.

        The columnar build already validates against the *program's* own
        parameters; this re-checks against the simulator's build, which may
        be smaller when a program is replayed on a different configuration.
        """
        worst_row = int(segment.local_row.max())
        if worst_row >= rows_per_pe:
            raise IndexError(
                f"local row {worst_row} maps beyond the {rows_per_pe} rows one "
                f"PE's accumulation buffer holds in this configuration"
            )
        worst_col = int(segment.column_offset.max())
        if worst_col >= segment.segment_length:
            raise IndexError(
                f"column offset {worst_col} outside the "
                f"{segment.segment_length}-element x segment"
            )

    def _scan_hazards(
        self,
        segment: ColumnarSegment,
        pe_remap: Optional[np.ndarray],
        raise_on_violation: bool,
    ) -> int:
        """Count hazard-window violations in one segment, vectorised.

        Elements are keyed by their URAM entry (per PE) and grouped with a
        *stable* sort, so within one entry they stay in the per-element
        model's processing order (lane-major, slot-ascending); consecutive
        issue-slot differences are then compared against the DSP latency —
        including the negative differences that arise when a cross-config
        replay collapses two program lanes onto one PE and a later-processed
        lane revisits an entry at an earlier cycle, exactly the pairs the
        reference model's last-issue tracking flags.  Segment boundaries need
        no special casing: the pipeline drain between segments always exceeds
        the hazard window.
        """
        window = self.params.dsp_latency
        if segment.local_row.size < 2:
            return 0
        if window <= 1 and pe_remap is None:
            # Within one lane, consecutive issues to an entry are always >= 1
            # slot apart, so a window of 1 cannot be violated.  Under a lane-
            # collapsing remap that shortcut is unsound: a later-processed
            # lane can revisit an entry at an *earlier or equal* cycle
            # (diff <= 0 < window), so the scan must run.
            return 0
        entries_per_pe = self.params.urams_per_pe * self.params.uram_depth
        entry = segment.local_row // self.params.rows_per_uram_entry
        pe = segment.pe.astype(np.int64)
        if pe_remap is not None:
            pe = pe_remap[pe]
        entry_code = pe * entries_per_pe + entry
        order = np.argsort(entry_code, kind="stable")
        sorted_code = entry_code[order]
        sorted_slot = segment.issue_slot[order].astype(np.int64)
        same_entry = sorted_code[1:] == sorted_code[:-1]
        too_close = (sorted_slot[1:] - sorted_slot[:-1]) < window
        violating = same_entry & too_close
        count = int(np.count_nonzero(violating))
        if count and raise_on_violation:
            first = int(np.argmax(violating))
            code = int(sorted_code[first])
            raise AccumulationHazardError(
                f"PE {code // entries_per_pe}: URAM entry {code % entries_per_pe} "
                f"accessed at segment-{segment.segment_index} slots "
                f"{int(sorted_slot[first])} and {int(sorted_slot[first + 1])}, "
                f"closer than the DSP latency {window}"
            )
        return count


def _fast_kernel(plan: _FastPlan, num_rows: int, x: np.ndarray) -> np.ndarray:
    """One warm fast launch: fp32 gather-multiply, then ordered accumulate."""
    accumulator = np.zeros(num_rows, dtype=np.float32)
    # np.add.at applies repeated indices in array order, which is each row's
    # lane slot order — exactly the reference model's fp32 sequence.
    np.add.at(accumulator, plan.targets, plan.values * x.astype(np.float32)[plan.columns])
    # repro: ignore[RPR201] fp32 accumulation is already complete; the
    # widening here is the float64 output ABI shared with the oracle.
    return accumulator.astype(np.float64)


def _concatenate(parts: List[np.ndarray], dtype) -> np.ndarray:
    """One flat array from per-segment parts, without copying a lone part."""
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _y_stream_cycles(num_rows: int) -> int:
    """RdY and WrY stream y in parallel, 16 floats per cycle."""
    return -(-num_rows // FLOATS_PER_WORD)


def _utilisation_summary(
    lane_slots: np.ndarray, lane_real: np.ndarray
) -> Tuple[float, float]:
    """Per-PE utilisation ratios reduced to (all-PE mean, busy-PE mean)."""
    slots = np.asarray(lane_slots, dtype=np.float64)
    real = np.asarray(lane_real, dtype=np.float64)
    busy = slots > 0
    ratios = np.divide(real, slots, out=np.zeros_like(real), where=busy)
    mean_all = float(np.mean(ratios)) if ratios.size else 0.0
    mean_busy = float(np.mean(ratios[busy])) if busy.any() else 0.0
    return mean_all, mean_busy
