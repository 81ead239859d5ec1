"""Persistent results store, ``BENCH_*.json`` snapshots, regression gating.

Every number this repo produces — paper tables, `serve-bench` percentiles,
`tune` reports — used to be printed once and forgotten.  The
:class:`ResultsStore` is the institutional memory: a single-file SQLite
database of runs keyed by *(git rev, engine, scenario, config fingerprint)*,
each carrying the flat metrics payload the run's ``--json`` mode emits.  On
top of it sit:

* :func:`compare_runs` — metric-by-metric deltas between any two recorded
  runs, classified against per-metric *noise bands* so a 0.3% wiggle on a
  5%-noisy metric reads as "within noise", not as a regression,
* :func:`emit_bench_snapshot` / :func:`load_bench_snapshot` — the
  ``BENCH_<topic>.json`` files that seed the repository's perf trajectory,
* :func:`regression_gate` — the CI check: re-run a pinned scenario, compare
  against the committed baseline snapshot, fail on any watched metric
  regressing beyond its noise band.

Directionality is encoded per metric: latency regresses *up*, throughput
regresses *down*; metrics the gate has no direction for are reported but
never fail the gate.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..eval.reporting import format_float, format_table

__all__ = [
    "ComparedMetric",
    "Comparison",
    "GateResult",
    "ResultsStore",
    "RunRecord",
    "compare_runs",
    "config_fingerprint",
    "current_git_rev",
    "emit_bench_snapshot",
    "load_bench_snapshot",
    "regression_gate",
    "DEFAULT_NOISE_BANDS",
    "LOWER_IS_BETTER",
    "HIGHER_IS_BETTER",
]

#: Relative noise band per watched metric: deltas within the band are
#: classified as noise.  Virtual-time metrics are deterministic given a
#: seed, so these bands mostly absorb float-accumulation and platform
#: differences; host wall-clock metrics get a much wider band.
DEFAULT_NOISE_BANDS: Dict[str, float] = {
    "latency_p50_ms": 0.05,
    "latency_p95_ms": 0.05,
    "latency_p99_ms": 0.05,
    "throughput_rps": 0.05,
    "aggregate_mteps": 0.05,
    "cache_hit_rate": 0.02,
    "mean_queue_depth": 0.10,
    "prepare_seconds": 0.50,
    # A pure count wherever it is gated (modelled variants, and the measured
    # pool at saturation), so any drop is a real change in batching.
    "mean_batch_size": 0.0,
}

#: Metrics that regress when they go up / down.
LOWER_IS_BETTER = ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms", "prepare_seconds")
HIGHER_IS_BETTER = ("throughput_rps", "aggregate_mteps", "cache_hit_rate", "mean_batch_size")


def current_git_rev(repo_root: Optional[Union[str, Path]] = None) -> str:
    """Short git revision of the repo, or ``"unknown"`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """A short stable hash of a run configuration (order-independent)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _utcnow_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class RunRecord:
    """One recorded run: its identity key plus the metrics payload."""

    run_id: int
    recorded_at: str
    git_rev: str
    topic: str
    scenario: str
    engine: str
    config_fingerprint: str
    config: Dict[str, Any]
    metrics: Dict[str, float]

    def key(self) -> tuple:
        return (self.git_rev, self.engine, self.scenario, self.config_fingerprint)


class ResultsStore:
    """SQLite-backed store of benchmark/tuning runs.

    Parameters
    ----------
    path:
        Database file; ``":memory:"`` builds an ephemeral store (handy in
        tests).  The schema is created on first use.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS runs (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        recorded_at TEXT NOT NULL,
        git_rev TEXT NOT NULL,
        topic TEXT NOT NULL,
        scenario TEXT NOT NULL,
        engine TEXT NOT NULL,
        config_fingerprint TEXT NOT NULL,
        config_json TEXT NOT NULL,
        metrics_json TEXT NOT NULL
    );
    CREATE INDEX IF NOT EXISTS runs_key
        ON runs (topic, scenario, engine, config_fingerprint, git_rev);
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(
        self,
        topic: str,
        scenario: str,
        engine: str,
        config: Mapping[str, Any],
        metrics: Mapping[str, float],
        git_rev: Optional[str] = None,
        recorded_at: Optional[str] = None,
    ) -> RunRecord:
        """Insert one run and return its stored record (with its id)."""
        config = dict(config)
        record = RunRecord(
            run_id=-1,
            recorded_at=recorded_at or _utcnow_iso(),
            git_rev=git_rev or current_git_rev(),
            topic=topic,
            scenario=scenario,
            engine=engine,
            config_fingerprint=config_fingerprint(config),
            config=config,
            metrics={k: float(v) for k, v in metrics.items()},
        )
        cursor = self._conn.execute(
            "INSERT INTO runs (recorded_at, git_rev, topic, scenario, engine,"
            " config_fingerprint, config_json, metrics_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.recorded_at,
                record.git_rev,
                record.topic,
                record.scenario,
                record.engine,
                record.config_fingerprint,
                json.dumps(record.config, sort_keys=True, default=str),
                json.dumps(record.metrics, sort_keys=True),
            ),
        )
        self._conn.commit()
        return RunRecord(**{**record.__dict__, "run_id": int(cursor.lastrowid)})

    def merge(self, other: Union["ResultsStore", str, Path]) -> int:
        """Fold every run of ``other`` into this store; returns the count.

        Rows keep their recorded timestamps, git revisions and payloads but
        receive fresh autoincrement ids in this store, so merging N shard
        databases (the wall-clock worker pool records one store per worker)
        never collides run ids.  A path argument is opened read-only for the
        duration of the merge.
        """
        opened = None
        if not isinstance(other, ResultsStore):
            opened = other = ResultsStore(other)
        try:
            rows = other._conn.execute(
                f"SELECT {self._COLUMNS} FROM runs ORDER BY id"
            ).fetchall()
            self._conn.executemany(
                "INSERT INTO runs (recorded_at, git_rev, topic, scenario, engine,"
                " config_fingerprint, config_json, metrics_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [row[1:] for row in rows],
            )
            self._conn.commit()
            return len(rows)
        finally:
            if opened is not None:
                opened.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def _row_to_record(row) -> RunRecord:
        return RunRecord(
            run_id=int(row[0]),
            recorded_at=row[1],
            git_rev=row[2],
            topic=row[3],
            scenario=row[4],
            engine=row[5],
            config_fingerprint=row[6],
            config=json.loads(row[7]),
            metrics=json.loads(row[8]),
        )

    _COLUMNS = (
        "id, recorded_at, git_rev, topic, scenario, engine,"
        " config_fingerprint, config_json, metrics_json"
    )

    def get(self, run_id: int) -> RunRecord:
        row = self._conn.execute(
            f"SELECT {self._COLUMNS} FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run with id {run_id} in {self.path}")
        return self._row_to_record(row)

    def list_runs(
        self,
        topic: Optional[str] = None,
        scenario: Optional[str] = None,
        engine: Optional[str] = None,
        git_rev: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Runs matching every given filter, newest first."""
        clauses, params = [], []
        for column, value in (
            ("topic", topic),
            ("scenario", scenario),
            ("engine", engine),
            ("git_rev", git_rev),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        query = f"SELECT {self._COLUMNS} FROM runs"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        return [self._row_to_record(row) for row in self._conn.execute(query, params)]

    def latest(self, **filters) -> Optional[RunRecord]:
        """The most recent run matching the filters, or ``None``."""
        runs = self.list_runs(limit=1, **filters)
        return runs[0] if runs else None


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparedMetric:
    """One metric's baseline/candidate values and its classification."""

    name: str
    baseline: float
    candidate: float
    delta: float
    relative_delta: Optional[float]  # None when the baseline is 0
    noise_band: float
    #: "within-noise", "improved", "regressed", or "changed" (no direction).
    classification: str


@dataclass
class Comparison:
    """Metric-by-metric comparison of two runs (or two metric payloads)."""

    baseline_label: str
    candidate_label: str
    metrics: List[ComparedMetric] = field(default_factory=list)

    @property
    def regressions(self) -> List[ComparedMetric]:
        return [m for m in self.metrics if m.classification == "regressed"]

    @property
    def improvements(self) -> List[ComparedMetric]:
        return [m for m in self.metrics if m.classification == "improved"]

    def render(self) -> str:
        rows = []
        for m in self.metrics:
            rows.append(
                [
                    m.name,
                    m.baseline,
                    m.candidate,
                    (
                        f"{100 * m.relative_delta:+.2f}%"
                        if m.relative_delta is not None
                        else format_float(m.delta)
                    ),
                    f"±{100 * m.noise_band:.0f}%",
                    m.classification,
                ]
            )
        table = format_table(
            ["metric", "baseline", "candidate", "delta", "noise band", "verdict"],
            rows,
            title=f"Results comparison — {self.baseline_label} → {self.candidate_label}",
        )
        summary = (
            f"{len(self.regressions)} regressed, {len(self.improvements)} improved, "
            f"{sum(1 for m in self.metrics if m.classification == 'within-noise')} "
            f"within noise"
        )
        return table + "\n" + summary


def _classify(
    name: str, baseline: float, candidate: float, band: float
) -> ComparedMetric:
    delta = candidate - baseline
    relative = delta / abs(baseline) if baseline != 0 else None
    within = (
        abs(relative) <= band
        if relative is not None
        else abs(delta) <= band  # zero baseline: band acts as an absolute floor
    )
    if within:
        classification = "within-noise"
    elif name in LOWER_IS_BETTER:
        classification = "regressed" if delta > 0 else "improved"
    elif name in HIGHER_IS_BETTER:
        classification = "regressed" if delta < 0 else "improved"
    else:
        classification = "changed"
    return ComparedMetric(
        name=name,
        baseline=baseline,
        candidate=candidate,
        delta=delta,
        relative_delta=relative,
        noise_band=band,
        classification=classification,
    )


def compare_runs(
    baseline: Union[RunRecord, Mapping[str, float]],
    candidate: Union[RunRecord, Mapping[str, float]],
    metrics: Optional[Sequence[str]] = None,
    noise_bands: Optional[Mapping[str, float]] = None,
    default_band: float = 0.05,
) -> Comparison:
    """Noise-band-aware metric deltas between two runs.

    ``metrics`` restricts the comparison (default: every metric present in
    both payloads).  ``noise_bands`` overrides/extends
    :data:`DEFAULT_NOISE_BANDS`; metrics in neither get ``default_band``.
    """
    bands = dict(DEFAULT_NOISE_BANDS)
    if noise_bands:
        bands.update(noise_bands)

    def payload(run) -> Dict[str, float]:
        return dict(run.metrics) if isinstance(run, RunRecord) else dict(run)

    def label(run, fallback: str) -> str:
        if isinstance(run, RunRecord):
            return f"run {run.run_id} ({run.git_rev})"
        return fallback

    base, cand = payload(baseline), payload(candidate)
    names = list(metrics) if metrics is not None else sorted(set(base) & set(cand))
    comparison = Comparison(
        baseline_label=label(baseline, "baseline"),
        candidate_label=label(candidate, "candidate"),
    )
    for name in names:
        if name not in base or name not in cand:
            continue
        comparison.metrics.append(
            _classify(name, base[name], cand[name], bands.get(name, default_band))
        )
    return comparison


# ----------------------------------------------------------------------
# BENCH_*.json snapshots and the CI gate
# ----------------------------------------------------------------------
def emit_bench_snapshot(
    path: Union[str, Path],
    topic: str,
    scenario: str,
    config: Mapping[str, Any],
    variants: Mapping[str, Mapping[str, float]],
    noise_bands: Optional[Mapping[str, float]] = None,
    gate_metrics: Sequence[str] = ("latency_p95_ms", "throughput_rps"),
    git_rev: Optional[str] = None,
    variant_noise_bands: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> Path:
    """Write one ``BENCH_<topic>.json`` perf-trajectory snapshot.

    ``variants`` maps a variant label (e.g. scheduler policy) to its flat
    metrics payload; the stored noise bands and gate metrics make the file
    self-describing, so the CI gate needs no out-of-band configuration.
    ``variant_noise_bands`` optionally widens (or tightens) the bands for
    specific variants — measured wall-clock variants are far noisier than
    modelled ones, and one global band would either mask modelled
    regressions or flap on measured ones.
    """
    path = Path(path)
    snapshot = {
        "schema": "repro.obs/bench-v1",
        "topic": topic,
        "git_rev": git_rev or current_git_rev(),
        "recorded_at": _utcnow_iso(),
        "scenario": scenario,
        "config": dict(config),
        "config_fingerprint": config_fingerprint(config),
        "gate_metrics": list(gate_metrics),
        "noise_bands": {
            name: (noise_bands or DEFAULT_NOISE_BANDS).get(
                name, DEFAULT_NOISE_BANDS.get(name, 0.05)
            )
            for name in gate_metrics
        },
        "variants": {
            label: {k: float(v) for k, v in payload.items()}
            for label, payload in variants.items()
        },
    }
    if variant_noise_bands:
        snapshot["variant_noise_bands"] = {
            label: {name: float(band) for name, band in bands.items()}
            for label, bands in variant_noise_bands.items()
        }
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True, default=str) + "\n")
    return path


def load_bench_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a ``BENCH_*.json`` snapshot, validating its schema marker."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != "repro.obs/bench-v1":
        raise ValueError(
            f"{path} is not a repro.obs bench snapshot "
            f"(schema={payload.get('schema')!r})"
        )
    return payload


@dataclass
class GateResult:
    """Outcome of one regression-gate evaluation."""

    passed: bool
    comparisons: Dict[str, Comparison]
    failures: List[str]

    def render(self) -> str:
        parts = [comparison.render() for __, comparison in sorted(self.comparisons.items())]
        verdict = (
            "regression gate PASSED"
            if self.passed
            else "regression gate FAILED:\n  - " + "\n  - ".join(self.failures)
        )
        return "\n\n".join(parts + [verdict])


def regression_gate(
    baseline: Mapping[str, Any],
    current_variants: Mapping[str, Mapping[str, float]],
) -> GateResult:
    """Judge fresh variant payloads against a committed bench snapshot.

    Only the snapshot's ``gate_metrics`` can fail the gate, and only in
    their regressing direction beyond their stored noise band.  A variant
    present in the baseline but missing from the fresh run fails the gate
    (a silently dropped configuration is itself a regression).  Per-variant
    ``variant_noise_bands`` entries override the global bands for that
    variant (how measured wall-clock variants get wider tolerances than
    the deterministic modelled ones).
    """
    gate_metrics = baseline.get("gate_metrics", ["latency_p95_ms", "throughput_rps"])
    noise_bands = baseline.get("noise_bands", {})
    per_variant = baseline.get("variant_noise_bands", {})
    comparisons: Dict[str, Comparison] = {}
    failures: List[str] = []
    for label, base_payload in baseline.get("variants", {}).items():
        if label not in current_variants:
            failures.append(f"variant {label!r} missing from the current run")
            continue
        bands = dict(noise_bands)
        bands.update(per_variant.get(label, {}))
        comparison = compare_runs(
            base_payload,
            current_variants[label],
            metrics=gate_metrics,
            noise_bands=bands,
        )
        comparison.baseline_label = f"baseline[{label}]"
        comparison.candidate_label = f"current[{label}]"
        comparisons[label] = comparison
        for metric in comparison.regressions:
            failures.append(
                f"{label}: {metric.name} regressed "
                f"{metric.baseline:.6g} → {metric.candidate:.6g} "
                f"(band ±{100 * metric.noise_band:.0f}%)"
            )
    return GateResult(passed=not failures, comparisons=comparisons, failures=failures)
