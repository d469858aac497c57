"""stagemix benchmark: the manifest and analyze paths, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the benchmark imports stagemix
from the checkout's `src/`. It generates the workload's inputs from the seed
(outside the clock), then runs the workload in a worker process for S
seconds and checks every output; the first iteration is an untimed
warm-up. Between iterations, outside their clock,
the worker times fresh interpreters importing stagemix and building the CLI
parser (setup_s). Workloads are closed loops with one caller,
one process and one thread; BLAS and OpenMP pools are pinned to one thread.

With --trace 0 it reports the end-to-end metrics; with --trace 1, plain
iterations alternate with iterations traced by spans around stagemix's
public functions, then one iteration runs under tracemalloc, and it reports
the per-layer metrics with the tracing overhead. Metric names, units and
directions come from BENCHMARK.json. Every line but the last is for people:
each metric with unit, median, tail percentile and sample count, plus the
machine facts. The last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Raw samples, facts and spans go to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

from workloads import WORKLOADS, prepare  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# name -> (unit, better)
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}

WORKER_TIMEOUT_S = 150

# Operation -> (its throughput metric, unit). Each workload runs one main
# operation, its heavy stagemix command (MAIN), then others; every workload
# reports main_rec_per_s and iter_s, the time of all its timed operations.
# The per-operation metrics are printed on the workloads that run them.
OPERATIONS = {
    "manifest_write": ("manifest_write_rec_per_s", "events/s"),
    "manifest_read": ("manifest_read_rec_per_s", "events/s"),
    "resume": ("resume_events_per_s", "events/s"),
    "analyze": ("analyze_rec_per_s", "rec/s"),
    "simulate": ("simulate_rec_per_s", "rec/s"),
    "stream_push": ("stream_push_per_s", "push/s"),
}
MAIN = ("manifest_write", "analyze")

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(values: list[float], better: str):
    """(percentile, value) of the highest percentile with ten samples beyond
    it, on the bad side; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=better == "higher")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(values):
    return statistics.median(values) if values else 0.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def machine_facts(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def end_to_end(result: dict, probes) -> tuple[dict, dict]:
    """Gated metrics (medians) and every printed metric as (unit, better, samples)."""
    records = result["records"]
    good = [it["times"] for it in result["iterations"] if it["pass"] == "plain" and not it["errors"]]
    if result["input_errors"]:
        good = []
    samples = {"setup_s": (*END_TO_END["setup_s"], [p[1] for p in probes])}
    main = next(op for op in MAIN if op in records)
    samples["main_rec_per_s"] = (*END_TO_END["main_rec_per_s"], [records[main] / t[main] for t in good])
    samples["iter_s"] = (*END_TO_END["iter_s"], [sum(t.values()) for t in good])
    for op in records:
        metric, unit = OPERATIONS[op]
        samples[metric] = (unit, "higher", [records[op] / t[op] for t in good])
    samples["peak_rss_mb"] = (*END_TO_END["peak_rss_mb"], [result["peak_rss_mb"]])
    gated = {name: median(samples[name][2]) for name in END_TO_END}
    return gated, samples


def per_layer(result: dict, probes) -> tuple[dict, dict]:
    layers = result["layers"]
    samples = {name: (*PER_LAYER[name], [row[name] for row in layers]) for name in layers[0]}
    for name, value in result["peaks"].items():
        samples[name] = (*PER_LAYER[name], [value])
    samples["cli.import_s"] = (*PER_LAYER["cli.import_s"], [p[0] for p in probes])
    # After the warm-up, iterations 2k + 1 and 2k + 2 are one plain and one traced: pair them.
    totals = {((it["iteration"] - 1) // 2, it["pass"]): sum(it["times"].values())
              for it in result["iterations"] if not it["errors"]}
    overhead = [t - totals[k, "plain"] for (k, side), t in totals.items()
                if side == "traced" and (k, "plain") in totals]
    samples["trace.overhead_s"] = (*PER_LAYER["trace.overhead_s"], overhead)
    values = {name: median(samples[name][2]) if name in samples else 0.0 for name in PER_LAYER}
    return values, samples


def print_table(samples: dict) -> None:
    print(f"{'metric':36} {'unit':9} {'median':>14} {'tail':>22} {'n':>4}")
    for name, (unit, better, values) in samples.items():
        t = tail(values, better)
        shown = "n/a (n < 11)" if t is None else f"p{t[0]:.1f} {t[1]:.6g}"
        print(f"{name:36} {unit:9} {median(values):14.6g} {shown:>22} {len(values):4d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = prepare(WORKLOADS[args.workload], workdir, args.seed)
        plan.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        raw = stem.with_suffix(".raw.json")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(raw)],
            env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
        )
        result = json.loads(raw.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = result["iterations"]
    failed = len(iterations) if result["input_errors"] else sum(1 for it in iterations if it["errors"])
    table = PER_LAYER if args.trace else END_TO_END
    values, samples = (per_layer if args.trace else end_to_end)(result, result["probes"])
    samples["failed_frac"] = ("1", "lower", [failed / len(iterations)])

    facts = machine_facts(args.seed)
    print(f"stagemix benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"checks: {json.dumps(result['facts'])}")
    for problem in result["input_errors"] + [e for it in iterations for e in it["errors"]][:5]:
        print(f"FAILED CHECK: {problem}")
    print_table(samples)
    line = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    stem.with_suffix(".json").write_text(
        json.dumps({"machine": facts, "result": line, "samples": samples, "checks": result["facts"]}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if not (SRC / "stagemix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stagemix source at {SRC}; run from a stagemix checkout")
    sys.exit(main())
