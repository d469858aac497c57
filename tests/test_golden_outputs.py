"""Byte-exact CLI outputs of the report commands, pinned as golden files.

Each case runs one command on small deterministic inputs written below and
compares what it writes (stdout, or the CSV file) with tests/golden/NAME.
The loss log has logging gaps, three stages and a 2->3 boundary whose prior
loss is 0, so its ratio is undefined (null in the data form).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from stagemix.cli import run

GOLDEN = Path(__file__).parent / "golden"

# (step, stage, loss): spacing 1, then 3 and 2 (gaps); a spike at step 20; stage 2 ends at loss 0
LOSS_RECORDS = (
    [(s, 1, 4.0 - 0.25 * s) for s in range(8)]
    + [(10, 1, 2.5), (11, 1, 2.375)]
    + [(14, 2, 2.5), (16, 2, 2.25), (18, 2, 2.125), (20, 2, 9.0), (22, 2, 1.875), (24, 2, 0.0)]
    + [(25, 3, 1.5), (26, 3, 1.25), (27, 3, 1.125), (28, 3, 1.0), (29, 3, 0.875)]
)

# step -> task -> score as written in the eval log (a JSON number or string)
EVALS = {
    100: {"General-Val": "1e1", "AI2D": 50.5, "ChartQA": 49.6, "TextVQA": 0.0, "DocVQA": 100.0},
    200: {"General-Val": 61.3, "AI2D": 64.1, "ChartQA": 66.0, "TextVQA": 58.2, "DocVQA": 59.9},
    300: {"General-Val": 72.1, "AI2D": 74.0, "ChartQA": 72.0, "TextVQA": 70.8, "DocVQA": 71.4},
}

# condition -> final scores; B2 ties B in every column
RUNS = {
    "A": {"General-Val": 72.1, "AI2D": 74.0, "ChartQA": 72.0, "TextVQA": 70.8, "DocVQA": 71.4},
    "B": {"General-Val": 73.4, "AI2D": 76.0, "ChartQA": 74.6, "TextVQA": 71.8, "DocVQA": 72.9},
    "C": {"General-Val": 71.7, "AI2D": 73.3, "ChartQA": 72.9, "TextVQA": 72.6, "DocVQA": 73.5},
    "B2": {"General-Val": 73.4, "AI2D": 76.0, "ChartQA": 74.6, "TextVQA": 71.8, "DocVQA": 72.9},
}

# golden file -> (argv with {placeholders}, what is compared: "stdout" or "csv")
CASES = {
    "analyze.txt": (["analyze", "--trace", "{loss}", "--window", "4", "--spike-window", "6"], "stdout"),
    "analyze.json": (
        ["analyze", "--trace", "{loss}", "--window", "4", "--spike-window", "6", "--format", "data"],
        "stdout",
    ),
    "metrics_aggregate.json": (["metrics", "aggregate", "--evals", "{evals}", "--step", "100", "--format", "data"], "stdout"),
    "metrics_trajectory.json": (["metrics", "trajectory", "--evals", "{evals}", "--format", "data"], "stdout"),
    "metrics_trajectory.txt": (["metrics", "trajectory", "--evals", "{evals}"], "stdout"),
    "metrics_trajectory.csv": (["metrics", "trajectory", "--evals", "{evals}", "--csv", "{csv}"], "csv"),
    "metrics_compare.json": (["metrics", "compare", "{runs}", "--format", "data"], "stdout"),
    "metrics_convergence.json": (
        ["metrics", "convergence", "--evals", "{evals}", "--fraction", "0.85", "--format", "data"],
        "stdout",
    ),
    "exposure.json": (
        ["exposure", "--condition", "A", "--condition", "B", "--condition", "D", "--steps", "7,333,1001",
         "--format", "data"],
        "stdout",
    ),
}


def _eval_lines(snapshots) -> str:
    return "".join(
        json.dumps({"step": step, "task": task, "score": score}, separators=(",", ":")) + "\n"
        for step, scores in snapshots.items()
        for task, score in scores.items()
    )


def write_inputs(directory: Path) -> dict:
    """Write the input files into directory; return the argv placeholders."""
    loss = directory / "loss.jsonl"
    loss.write_text("".join(f'{{"step":{s},"stage":{g},"loss":{v!r}}}\n' for s, g, v in LOSS_RECORDS))
    evals = directory / "evals.jsonl"
    evals.write_text(_eval_lines(EVALS))
    runs = []
    for name, scores in RUNS.items():
        path = directory / f"run_{name}.jsonl"
        path.write_text(_eval_lines({500: scores}))
        runs.append(f"{name}={path}")
    return {"{loss}": str(loss), "{evals}": str(evals), "{csv}": str(directory / "out.csv"), "{runs}": runs}


def produce(name: str, directory: Path) -> str:
    """The output of one case, run on inputs written into directory."""
    argv, compared = CASES[name]
    places = write_inputs(directory)
    expanded = []
    for arg in argv:
        value = places.get(arg, arg)
        expanded.extend(value if isinstance(value, list) else [value])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(expanded)
    assert code == 0
    if compared == "csv":
        return Path(places["{csv}"]).read_bytes().decode("utf-8")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert produce(name, tmp_path) == expected
