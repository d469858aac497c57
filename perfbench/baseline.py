"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py [--workload NAME ...] [--seeds 1-10] [--trace] [--write]

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (quartile distance over the median, as
`statistics.quantiles(values, n=4)` gives them) against the metric's bound
in BENCHMARK.json. A metric whose spread exceeds its bound is marked
unresolved. With --trace it adds one traced run per workload; with --write
it records everything, with the machine facts, in perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the result file run.py wrote."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, check=True,
    )
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or names:
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in args.seeds]
        lines = [r["result"] for r in runs]
        entry = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "end_to_end": {},
            "pooled": {},
        }
        report["machine"] = {k: v for k, v in runs[0]["machine"].items() if k != "seed"}
        print(f"{workload}: {entry['attempted']} iterations, {entry['failed']} failed")
        for metric in bench["end_to_end"]:
            values = [line["metrics"][metric["name"]]["value"] for line in lines]
            stats = spread(values)
            stats.update(unit=metric["unit"], bound=metric["bound"], values=values,
                         unresolved=stats["spread"] > metric["bound"])
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:18} median {stats['median']:12.6g} {metric['unit']:6}"
                  f" spread {stats['spread']:.4f} (bound {metric['bound']})"
                  + ("  UNRESOLVED" if stats["unresolved"] else ""))
        for name, (unit, better, _) in runs[0]["samples"].items():
            pooled = [v for r in runs for v in r["samples"][name][2]]
            pct = tail(pooled, better)
            entry["pooled"][name] = {"unit": unit, "median": statistics.median(pooled), "n": len(pooled),
                                     "tail": None if pct is None else {"percentile": pct[0], "value": pct[1]}}
        if args.trace:
            traced = run(workload, args.seeds[0], bench["run_seconds"], 1)["result"]
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
