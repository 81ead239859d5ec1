"""CLI observability: --json/--trace/--results-db and the results command."""

import json
from pathlib import Path

import pytest

from repro.cli import _gate_args_from_config, main
from repro.obs import (
    ResultsStore,
    emit_bench_snapshot,
    load_bench_snapshot,
    regression_gate,
)

COMMITTED_BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_serve.json"

BENCH = [
    "serve-bench",
    "--requests", "60",
    "--devices", "2",
    "--scenario", "mixed",
    "--seed", "7",
]


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestServeBenchJson:
    def test_json_output_parses_and_has_variants(self, capsys):
        code, out = run_cli(BENCH + ["--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "serve-bench"
        assert set(payload["variants"]) == {
            "naive-fifo", "batched-fifo", "batched-sjf",
        }
        for metrics in payload["variants"].values():
            assert metrics["completed"] == 60.0
            assert "latency_p95_ms" in metrics
            assert "cache_hit_rate" in metrics

    def test_tune_json_output_parses(self, capsys):
        code, out = run_cli(
            ["tune", "--tune-matrices", "2", "--channels", "8,16", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "tune"
        assert 0.0 <= payload["metrics"]["fraction_within_10pct"] <= 1.0
        assert len(payload["matrices"]) == 2


class TestServeBenchTraceAndStore:
    def test_trace_results_db_and_bench_snapshot(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        db_path = tmp_path / "runs.sqlite"
        bench_path = tmp_path / "BENCH_serve.json"
        code, out = run_cli(
            BENCH
            + [
                "--trace", str(trace_path),
                "--results-db", str(db_path),
                "--emit-bench", str(bench_path),
            ],
            capsys,
        )
        assert code == 0

        # (a) a Chrome trace whose spans match the request lifecycle
        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len([s for s in spans if s["name"] == "request"]) == 60
        assert {s["name"] for s in spans} >= {"request", "queued", "service", "batch"}

        # (b) results-store rows, one per variant
        with ResultsStore(db_path) as store:
            runs = store.list_runs(topic="serve-bench")
            assert len(runs) == 3
            assert {r.config["variant"] for r in runs} == {
                "naive-fifo", "batched-fifo", "batched-sjf",
            }

        # (c) a BENCH_serve.json snapshot
        snapshot = load_bench_snapshot(bench_path)
        assert snapshot["scenario"] == "mixed"
        assert set(snapshot["variants"]) == {r.config["variant"] for r in runs}

    def test_trace_covers_only_the_final_variant(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, __ = run_cli(BENCH + ["--trace", str(trace_path)], capsys)
        assert code == 0
        trace = json.loads(trace_path.read_text())
        requests = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "request"
        ]
        # one span per request of ONE variant, not one per variant run
        assert len(requests) == 60


class TestResultsCommand:
    def seeded_db(self, tmp_path, capsys):
        db_path = tmp_path / "runs.sqlite"
        for __ in range(2):
            code, __out = run_cli(BENCH + ["--results-db", str(db_path)], capsys)
            assert code == 0
        return db_path

    def test_list(self, capsys, tmp_path):
        db_path = self.seeded_db(tmp_path, capsys)
        code, out = run_cli(["results", "list", "--results-db", str(db_path)], capsys)
        assert code == 0
        assert "batched-sjf" in out
        assert "serve-bench" in out

    def test_show_latest_and_specific(self, capsys, tmp_path):
        db_path = self.seeded_db(tmp_path, capsys)
        code, out = run_cli(["results", "show", "--results-db", str(db_path)], capsys)
        assert code == 0
        assert "run 6" in out
        code, out = run_cli(
            ["results", "show", "--results-db", str(db_path), "--run", "1"], capsys
        )
        assert code == 0
        assert "run 1" in out
        assert "latency_p95_ms" in out

    def test_compare_finds_matching_earlier_run(self, capsys, tmp_path):
        db_path = self.seeded_db(tmp_path, capsys)
        code, out = run_cli(
            ["results", "compare", "--results-db", str(db_path)], capsys
        )
        assert code == 0
        # identical config + seed → every metric within noise
        assert "0 regressed" in out
        assert "within-noise" in out

    def test_requires_results_db(self, capsys):
        code, out = run_cli(["results", "list"], capsys)
        assert code == 2
        assert "--results-db" in out

    def test_unknown_subcommand(self, capsys):
        code, out = run_cli(["results", "frobnicate"], capsys)
        assert code == 2


class TestResultsGate:
    def make_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_serve.json"
        code, out = run_cli(
            ["results", "gate", "--update-baseline", "--baseline", str(baseline)]
            + BENCH[1:],
            capsys,
        )
        assert code == 0
        return baseline

    def test_gate_passes_against_fresh_baseline(self, capsys, tmp_path):
        baseline = self.make_baseline(tmp_path, capsys)
        code, out = run_cli(["results", "gate", "--baseline", str(baseline)], capsys)
        assert code == 0
        assert "PASSED" in out

    def test_gate_fails_on_doctored_baseline(self, capsys, tmp_path):
        baseline = self.make_baseline(tmp_path, capsys)
        snapshot = load_bench_snapshot(baseline)
        # pretend the past was 2x faster: the fresh run must look regressed
        for metrics in snapshot["variants"].values():
            metrics["latency_p95_ms"] *= 0.5
            metrics["throughput_rps"] *= 2.0
        emit_bench_snapshot(
            baseline,
            topic=snapshot["topic"],
            scenario=snapshot["scenario"],
            config=snapshot["config"],
            variants=snapshot["variants"],
        )
        code, out = run_cli(["results", "gate", "--baseline", str(baseline)], capsys)
        assert code == 1
        assert "FAILED" in out

    def test_gate_replays_the_baseline_config(self, capsys, tmp_path):
        # baseline recorded with a non-default pool shape; the gate must
        # reproduce it (identical virtual-time metrics) without being told.
        baseline = tmp_path / "BENCH_serve.json"
        argv = [
            "results", "gate", "--update-baseline", "--baseline", str(baseline),
            "--requests", "40", "--devices", "3", "--seed", "11",
        ]
        code, __ = run_cli(argv, capsys)
        assert code == 0
        assert load_bench_snapshot(baseline)["config"]["devices"] == 3
        code, out = run_cli(["results", "gate", "--baseline", str(baseline)], capsys)
        assert code == 0
        assert "PASSED" in out


    def test_committed_gate_holds_batch_size_exactly(self):
        # mean_batch_size is a pure count at saturation: a wall-clock run
        # that batches any worse fails the committed gate, however fast.
        baseline = load_bench_snapshot(COMMITTED_BASELINE)
        assert "mean_batch_size" in baseline["gate_metrics"]
        assert baseline["noise_bands"]["mean_batch_size"] == 0.0
        variants = {k: dict(v) for k, v in baseline["variants"].items()}
        assert regression_gate(baseline, variants).passed
        wallclock = variants["wallclock-w2"]
        wallclock["mean_batch_size"] -= 0.01
        wallclock["throughput_rps"] *= 2.0
        result = regression_gate(baseline, variants)
        assert not result.passed
        assert result.failures == [
            f"wallclock-w2: mean_batch_size regressed "
            f"{baseline['variants']['wallclock-w2']['mean_batch_size']:.6g} → "
            f"{wallclock['mean_batch_size']:.6g} (band ±0%)"
        ]

    def test_gate_args_replay_the_committed_config(self):
        # The committed baseline predates the removal of the engine-selector
        # flags and still stores sim_mode/build_mode; it must replay as is.
        config = load_bench_snapshot(COMMITTED_BASELINE)["config"]
        assert {"sim_mode", "build_mode"} <= set(config)
        args = _gate_args_from_config(config)
        assert args.experiment == "serve-bench"
        assert args.scenario == config["scenario"]
        assert args.requests == config["requests"]
        assert args.seed == config["seed"]
        assert args.max_batch == config["max_batch"]
        assert args.devices == config["devices"]
        assert args.wall_clock == config["wall_clock"]
        assert args.workers == config["workers"]


class TestExistingCliStillWorks:
    def test_unknown_experiment_still_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-experiment"])

    def test_plain_serve_bench_unchanged(self, capsys):
        code, out = run_cli(BENCH, capsys)
        assert code == 0
        assert "### serve-bench" in out
        assert "Serving benchmark" in out


class TestResultsMerge:
    def test_merge_folds_shard_databases(self, capsys, tmp_path):
        shard_a = tmp_path / "a.sqlite"
        shard_b = tmp_path / "b.sqlite"
        for path in (shard_a, shard_b):
            code, __ = run_cli(BENCH + ["--results-db", str(path)], capsys)
            assert code == 0
        merged = tmp_path / "merged.sqlite"
        code, out = run_cli(
            [
                "results", "merge",
                "--results-db", str(merged),
                "--source", str(shard_a),
                "--source", str(shard_b),
            ],
            capsys,
        )
        assert code == 0
        assert str(shard_a) in out and str(shard_b) in out
        with ResultsStore(merged) as store:
            runs = store.list_runs()
        # Both shards' serve-bench variants, with fresh non-colliding ids.
        assert len(runs) == 6
        assert len({r.run_id for r in runs}) == 6

    def test_merge_requires_sources(self, capsys, tmp_path):
        code, out = run_cli(
            ["results", "merge", "--results-db", str(tmp_path / "x.sqlite")],
            capsys,
        )
        assert code == 2
        assert "--source" in out

    def test_merge_rejects_missing_source(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "results", "merge",
                "--results-db", str(tmp_path / "x.sqlite"),
                "--source", str(tmp_path / "absent.sqlite"),
            ],
            capsys,
        )
        assert code == 2
        assert "absent.sqlite" in out


class TestWallClockServeBench:
    ARGS = [
        "serve-bench",
        "--requests", "16",
        "--devices", "1",
        "--scenario", "solver-burst",
        "--seed", "3",
        "--wall-clock",
        "--workers", "1",
    ]

    def test_wall_clock_variant_reported_and_recorded(self, capsys, tmp_path):
        db_path = tmp_path / "wallclock.sqlite"
        code, out = run_cli(self.ARGS + ["--results-db", str(db_path)], capsys)
        assert code == 0
        assert "Wall-clock serving (measured)" in out
        with ResultsStore(db_path) as store:
            bench = store.list_runs(topic="serve-bench")
            shards = store.list_runs(topic="serve-wallclock-shard")
        variants = {r.config["variant"] for r in bench}
        assert "wallclock-w1" in variants
        wallclock = next(r for r in bench if r.config["variant"] == "wallclock-w1")
        assert wallclock.metrics["completed"] == 16.0
        assert wallclock.metrics["latency_p95_ms"] > 0.0
        assert wallclock.config["wall_clock"] is True
        assert wallclock.config["workers"] == 1
        # The pool's own per-worker shard, folded into the same database.
        assert len(shards) == 1

    def test_wall_clock_json_payload(self, capsys):
        code, out = run_cli(self.ARGS + ["--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "wallclock-w1" in payload["variants"]
        snapshot = payload["variants"]["wallclock-w1"]
        assert snapshot["completed"] == 16.0
        assert snapshot["workers"] == 1.0
        assert payload["config"]["wall_clock"] is True
