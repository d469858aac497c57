"""The measured process: runs one workload's iterations and writes raw samples.

Started by run.py with the workload's inputs and check references already on
disk. Besides the workload, this process holds only the per-iteration
checks: digests, the small references in the plan, and transient arrays a
few MB in size, so its peak RSS is nearly all the workload's.

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import spans  # noqa: E402
import stagemix.cli  # noqa: E402, F401  (imports every layer, so no iteration pays for it)
import workloads  # noqa: E402


# Setup probes per run, taken a few at a time between iterations: on a
# shared machine the CPU speed shifts from one stretch of seconds to the
# next, so probes spread over the whole run see the run's mix of speeds
# where one block of them would see one. Three per gap spread 25 probes
# over the 7 to 9 gaps of a 40 s run of either workload.
SETUP_PROBES = 25
PROBES_PER_GAP = 3

PROBE = """\
import time
t0 = time.perf_counter()
import stagemix.cli as cli
t1 = time.perf_counter()
cli.build_parser()
t2 = time.perf_counter()
print(cli.__file__, t1 - t0, t2 - t0)
"""


def setup_probes(count: int) -> list[tuple[float, float]]:
    """(import_s, setup_s) of fresh interpreters importing stagemix.cli and building its parser."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=SRC.parent, capture_output=True, text=True, timeout=60, check=True
        )
        path, import_s, setup_s = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"stagemix was imported from {path}, not from {SRC}")
        out.append((float(import_s), float(setup_s)))
    return out


def iterate(runner, index: int, label: str, tracer=None) -> dict:
    """One iteration; with a tracer, stagemix is instrumented for it alone."""
    restore = None
    if tracer is not None:
        tracer.iteration = index
        restore = spans.instrument(tracer)
    try:
        times, errors = runner.iteration()
    except Exception:  # an iteration that raises is a failed iteration; keep going
        times, errors = {}, [traceback.format_exc(limit=3)]
    finally:
        if restore is not None:
            restore()
    return {"iteration": index, "times": times, "errors": errors, "pass": label}


def run_iterations(runner, seconds: float, tracer=None, probes=None) -> list[dict]:
    """Iterate until `seconds` of iteration time have passed.

    The first iteration is a warm-up: it is checked, but its times are no
    samples, because it pays for first-use costs (heap growth, cold caches)
    the later ones do not. At least one measured round follows it. With a
    tracer, iterations come in pairs of one plain and one traced, in
    alternating order, so both halves of a pair share the machine's speed at
    that moment and their difference is the cost of tracing. With a `probes`
    list, setup probes are added to it between rounds, outside their time.
    """
    out = []
    elapsed = 0.0
    while True:
        if not out:
            order = ("warmup",)
        elif tracer is None:
            order = ("plain",)
        else:
            order = ("plain", "traced") if len(out) % 4 == 1 else ("traced", "plain")
        start = perf_counter()
        for label in order:
            out.append(iterate(runner, len(out), label, tracer if label == "traced" else None))
        elapsed += perf_counter() - start
        if elapsed >= seconds and len(out) > 1:
            return out
        if probes is not None and len(probes) < SETUP_PROBES:
            probes += setup_probes(min(PROBES_PER_GAP, SETUP_PROBES - len(probes)))


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    config = workloads.WORKLOADS[plan["workload"]]
    runner = workloads.runner(config, plan, Path(plan_path).parent)
    probes = []
    result = {"input_errors": plan["input_errors"], "records": runner.records, "facts": plan["facts"],
              "probes": probes}
    if not plan["trace"]:
        result["iterations"] = run_iterations(runner, plan["seconds"], probes=probes)
    else:
        tracer = spans.Tracer()
        timed = run_iterations(runner, plan["seconds"], tracer, probes)
        tracer.write(Path(result_path).with_suffix(".spans.jsonl"))
        # One more iteration under tracemalloc for the per-layer peaks, apart
        # from the timed spans so the allocation tracing does not slow them.
        memory = spans.Tracer(memory=True)
        tracemalloc.start()
        try:
            peak_pass = iterate(runner, len(timed), "memory", memory)
        finally:
            tracemalloc.stop()
        result["iterations"] = timed + [peak_pass]
        by_iteration = {}
        for s in tracer.spans:
            by_iteration.setdefault(s.iteration, []).append(s)
        result["layers"] = [spans.layer_metrics(group) for group in by_iteration.values()]
        result["peaks"] = spans.peak_metrics(memory.peaks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += setup_probes(SETUP_PROBES - len(probes))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
