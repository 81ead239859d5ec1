"""Run the benchmark over several seeds, in repeated sets, and check its
figures against the bounds in ``BENCHMARK.json``.

    python3 perfbench/prove.py --seeds 1 2 3 4 5 --workloads pool-mixed
    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2

Each set runs every seed once per workload, each run a fresh process exactly
as ``BENCHMARK.json`` names it; the sets run one after the other.  For every
workload and end-to-end metric it prints, per set, the median over the seeds
and the quartile spread ``(Q3 - Q1) / median`` (quartiles as
``statistics.quantiles(n=4)``), and how far each later set's median is from
the first set's, signed so that positive is worse.  The script exits with
code 1 when a spread reaches its metric's bound, when a later set's median is
worse than the first's by more than the bound, or when a metric that
``layers.json`` marks exact differs between sets for the same seed.  A spread
at or above a third of its bound is flagged but not failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def run_once(spec, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        print(done.stdout + done.stderr, file=sys.stderr)
        raise SystemExit(done.returncode)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]) + f"\n  wall {wall:.1f} s", flush=True)
    if not result["correct"] or result["failed"]:
        print(f"  INCORRECT RUN: {lines[-1]}", flush=True)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    exact = {
        name for section in ("end_to_end", "per_layer")
        for name, entry in layers[section].items() if entry["exact"]
    }
    # values[workload][set][metric] -> one value per seed
    values = {w: [] for w in args.workloads}
    incorrect = 0
    for _ in range(args.sets):
        for workload in args.workloads:
            one_set = {m["name"]: [] for m in wanted}
            for seed in args.seeds:
                result = run_once(spec, workload, seed, args.seconds, args.trace)
                incorrect += not result["correct"] or result["failed"] > 0
                for name in one_set:
                    one_set[name].append(result["metrics"][name]["value"])
            values[workload].append(one_set)

    failures = incorrect
    for workload in args.workloads:
        sets = values[workload]
        print(f"{workload}: seeds {args.seeds}, {len(sets)} set(s)")
        for metric in wanted:
            name = metric["name"]
            series = [one[name] for one in sets]
            medians = [statistics.median(s) for s in series]
            line = f"  {name:32s} {metric['unit']:8s} median " + " / ".join(
                f"{m:.6g}" for m in medians
            )
            marks = []
            if name in exact and any(s != series[0] for s in series[1:]):
                marks.append("EXACT VALUE DIFFERS")
                failures += 1
            bound = metric.get("bound")
            if bound is not None and len(args.seeds) >= 2:
                spreads = [quartile_spread(s) for s in series]
                line += "  spread " + " / ".join(f"{s:.1%}" for s in spreads)
                if max(spreads) >= bound:
                    marks.append("SPREAD OVER BOUND")
                    failures += 1
                elif max(spreads) >= bound / 3:
                    marks.append("spread >= bound/3")
            if bound is not None and len(sets) >= 2:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                drifts = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
                line += "  worse by " + " / ".join(f"{d:+.1%}" for d in drifts)
                if max(drifts) > bound:
                    marks.append("MEDIAN WORSE THAN BOUND")
                    failures += 1
            if bound is not None:
                line += f"  (bound {bound:.0%})"
            print(line + "".join(f"  <-- {m}" for m in marks))
            for s in series:
                print("      " + " ".join(f"{v:.4g}" for v in s))
    if incorrect:
        print(f"{incorrect} run(s) were not correct")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
