"""File formats: schedules, registries, manifests, loss logs, eval logs, CSV exports.

Conventions shared by every writer here:

* Output is bytewise deterministic. No timestamps, no environment details,
  no dict-iteration nondeterminism; rewriting the same object yields the
  same bytes.
* JSON documents use two-space indentation and end with a newline. Line
  formats (JSONL) put one object per line with compact separators; manifests
  put their header object on the first line.
* Parse problems (not JSON, missing key, wrong type) raise FormatError;
  well-formed files whose contents break a documented rule raise the
  matching validation error instead.

Probabilities and losses travel as JSON numbers, i.e. as binary float64;
values needing more than float64's ~15-16 significant digits do not
round-trip and are unsupported. Scores are the exception: they are written as
exact decimal strings (JSON numbers with one decimal) and parsed into
decimal.Decimal, so score CSV/JSONL round trips are bit-exact.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal
from pathlib import Path

import numpy as np

from .dynamics import LossTrace
from .errors import EvalDataError, FormatError, TraceError
from .metrics import COMPARISON_COLUMNS, ComparisonTable, EvalSnapshot, TrajectoryPoint, to_score
from .sampling import MANIFEST_FORMAT, Manifest
from .schedule import (
    DatasetSource,
    ScheduleCondition,
    condition_as_dict,
    condition_from_dict,
    registry_as_list,
    registry_from_list,
)
from .simulate import CapabilityModelSpec, Injection, LossTraceSpec, SimStage

SCHEDULE_FORMAT = "stagemix-schedule/v1"


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from None


def save_json(obj, path) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _jsonl_objects(path) -> list:
    """Parse one JSON object per line in a single json.loads call."""
    lines = [line for line in _read_text(path).splitlines() if line.strip()]
    if not lines:
        return []
    try:
        return json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: not valid JSON lines ({err})") from None


# -- schedules and registries -------------------------------------------------


def load_conditions(path) -> list[ScheduleCondition]:
    """Read a schedule file: either one condition object or {"conditions": [...]}."""
    data = load_json(path)
    if isinstance(data, dict) and "conditions" in data:
        raw = data["conditions"]
        if not isinstance(raw, list):
            raise FormatError(f"{path}: 'conditions' must be a list")
    elif isinstance(data, dict) and "stages" in data:
        raw = [data]
    else:
        raise FormatError(f"{path}: expected a condition object or a 'conditions' list")
    return [condition_from_dict(item) for item in raw]


def save_conditions(conds, path) -> None:
    save_json(
        {"format": SCHEDULE_FORMAT, "conditions": [condition_as_dict(c) for c in conds]},
        path,
    )


def load_registry(path) -> tuple[DatasetSource, ...]:
    """Read a dataset registry: either a bare list or {"datasets": [...]}."""
    data = load_json(path)
    if isinstance(data, dict) and "datasets" in data:
        data = data["datasets"]
    return registry_from_list(data)


def save_registry(registry, path) -> None:
    save_json({"datasets": registry_as_list(registry)}, path)


# -- manifests ----------------------------------------------------------------


def write_manifest(manifest: Manifest, path) -> None:
    """One header line, then one compact event object per step."""
    header = json.dumps(manifest.header(), separators=(",", ":"))
    quoted = [json.dumps(name) for name in manifest.dataset_names]
    template = '{"step":%d,"stage":%d,"dataset":%s,"instance":%d}'
    steps = manifest.steps.tolist()
    stages = manifest.stages.tolist()
    ids = manifest.dataset_ids.tolist()
    instances = manifest.instances.tolist()
    lines = [header]
    append = lines.append
    for i in range(len(steps)):
        append(template % (steps[i], stages[i], quoted[ids[i]], instances[i]))
    _write_text(path, "\n".join(lines) + "\n")


def read_manifest_header(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: manifest header is not valid JSON ({err})") from None
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise FormatError(
            f"{path}: first line must be a manifest header with format {MANIFEST_FORMAT!r}"
        )
    return header


def read_manifest(path) -> Manifest:
    objects = _jsonl_objects(path)
    if not objects:
        raise FormatError(f"{path}: empty file, expected a manifest header line")
    header = objects[0]
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise FormatError(
            f"{path}: first line must be a manifest header with format {MANIFEST_FORMAT!r}"
        )
    for key in ("condition", "seed", "registry_digest", "generator", "stage_steps"):
        if key not in header:
            raise FormatError(f"{path}: manifest header is missing {key!r}")
    try:
        stage_steps = {int(k): v for k, v in header["stage_steps"].items()}
    except (AttributeError, ValueError, TypeError):
        raise FormatError(f"{path}: manifest header stage_steps must map stage index to steps") from None
    events = objects[1:]
    try:
        steps = [e["step"] for e in events]
        stages = [e["stage"] for e in events]
        datasets = [e["dataset"] for e in events]
        instances = [e["instance"] for e in events]
    except (KeyError, TypeError) as err:
        raise FormatError(f"{path}: manifest event lines need step/stage/dataset/instance ({err})") from None
    names = tuple(sorted(set(datasets)))
    name_to_id = {name: i for i, name in enumerate(names)}
    return Manifest(
        condition_id=header["condition"],
        seed=header["seed"],
        registry_digest=header["registry_digest"],
        generator=header["generator"],
        stage_steps=stage_steps,
        dataset_names=names,
        steps=np.array(steps, dtype=np.int64),
        stages=np.array(stages, dtype=np.int64),
        dataset_ids=np.array([name_to_id[d] for d in datasets], dtype=np.int64),
        instances=np.array(instances, dtype=np.int64),
    )


# -- loss traces ----------------------------------------------------------------


def save_loss_trace(trace: LossTrace, path) -> None:
    steps = trace.steps.tolist()
    stages = trace.stages.tolist()
    losses = trace.losses.tolist()
    lines = [
        '{"step":%d,"stage":%d,"loss":%s}' % (steps[i], stages[i], repr(losses[i]))
        for i in range(len(steps))
    ]
    _write_text(path, "\n".join(lines) + "\n")


def _stage_sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".stages.json")


def _stages_from_boundaries(steps: np.ndarray, boundaries, origin: str) -> np.ndarray:
    if not isinstance(boundaries, list) or not boundaries:
        raise FormatError(f"{origin}: 'boundaries' must be a non-empty list")
    parsed = []
    for pos, raw in enumerate(boundaries, start=1):
        if not isinstance(raw, dict) or "stage" not in raw or "start_step" not in raw:
            raise FormatError(f"{origin}: boundary {pos} needs 'stage' and 'start_step'")
        parsed.append((raw["start_step"], raw["stage"]))
    starts = [p[0] for p in parsed]
    if starts != sorted(starts):
        raise TraceError(f"{origin}: stage boundaries must be sorted by start_step")
    stages = np.empty(len(steps), dtype=np.int64)
    for i, (start, stage) in enumerate(parsed):
        end = parsed[i + 1][0] if i + 1 < len(parsed) else None
        mask = steps >= start if end is None else (steps >= start) & (steps < end)
        if not mask.any():
            raise TraceError(f"{origin}: declared stage {stage} contains no logged records")
        stages[mask] = stage
    if (steps < parsed[0][0]).any():
        raise TraceError(f"{origin}: records exist before the first declared stage")
    return stages


def load_loss_trace(path) -> LossTrace:
    """Read a loss log: JSONL records, or CSV (step,loss) with a stage sidecar.

    The CSV form carries no per-record stage, so it needs a sidecar named
    like the CSV with extension `.stages.json`, holding {"boundaries":
    [{"stage": s, "start_step": t}, ...]}.
    """
    if str(path).endswith(".csv"):
        return _load_loss_csv(path)
    records = _jsonl_objects(path)
    try:
        steps = np.array([r["step"] for r in records], dtype=np.int64)
        stages = np.array([r["stage"] for r in records], dtype=np.int64)
        losses = np.array([r["loss"] for r in records], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: loss records need step/stage/loss ({err})") from None
    if not (steps.ndim == stages.ndim == losses.ndim == 1):
        raise FormatError(f"{path}: loss record step/stage/loss must be single numbers")
    trace = LossTrace(steps=steps, stages=stages, losses=losses)
    trace.validate()
    return trace


def _load_loss_csv(path) -> LossTrace:
    sidecar = _stage_sidecar_path(path)
    if not sidecar.exists():
        raise FormatError(f"{path}: CSV loss logs need a stage sidecar at {sidecar}")
    boundaries = load_json(sidecar)
    if not isinstance(boundaries, dict) or "boundaries" not in boundaries:
        raise FormatError(f"{sidecar}: expected an object with 'boundaries'")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["step", "loss"]:
            raise FormatError(f"{path}: CSV loss logs need a 'step,loss' header")
        rows = list(reader)
    try:
        steps = np.array([int(row[0]) for row in rows], dtype=np.int64)
        losses = np.array([float(row[1]) for row in rows], dtype=np.float64)
    except (IndexError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: CSV rows must be 'step,loss' numbers ({err})") from None
    stages = _stages_from_boundaries(steps, boundaries["boundaries"], str(sidecar))
    trace = LossTrace(steps=steps, stages=stages, losses=losses)
    trace.validate()
    return trace


# -- eval logs ------------------------------------------------------------------


def load_eval_log(path) -> list[EvalSnapshot]:
    """Read per-task scores and group them into per-step snapshots."""
    records = _jsonl_objects(path)
    by_step: dict[int, dict[str, Decimal]] = {}
    for pos, record in enumerate(records, start=1):
        if not isinstance(record, dict) or not {"step", "task", "score"} <= record.keys():
            raise FormatError(f"{path}: line {pos} needs step/task/score")
        step = record["step"]
        task = record["task"]
        if not isinstance(step, int) or isinstance(step, bool):
            raise FormatError(f"{path}: line {pos} step must be an integer")
        if not isinstance(task, str):
            raise FormatError(f"{path}: line {pos} task must be a string")
        scores = by_step.setdefault(step, {})
        if task in scores:
            raise EvalDataError(f"{path}: duplicate score for task {task!r} at step {step}")
        scores[task] = to_score(record["score"])
    return [EvalSnapshot(step=step, scores=by_step[step]) for step in sorted(by_step)]


def save_eval_log(snapshots, path) -> None:
    lines = []
    for snap in sorted(snapshots, key=lambda s: s.step):
        for task in sorted(snap.scores):
            lines.append('{"step":%d,"task":%s,"score":%s}' % (snap.step, json.dumps(task), snap.scores[task]))
    _write_text(path, "\n".join(lines) + "\n")


# -- CSV exports ------------------------------------------------------------------


def write_comparison_csv(table: ComparisonTable, path) -> None:
    """Exact unrounded values, one row per condition, 9 columns."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("condition",) + table.columns)
        for cond, row in zip(table.conditions, table.rows):
            writer.writerow([cond] + [str(row[col]) for col in table.columns])


def read_comparison_csv(path) -> list[tuple[str, dict[str, Decimal]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["condition", *COMPARISON_COLUMNS]:
            raise FormatError(f"{path}: unexpected comparison CSV header {header!r}")
        out = []
        for row in reader:
            if len(row) != len(header):
                raise FormatError(f"{path}: row has {len(row)} fields, expected {len(header)}")
            out.append((row[0], {col: Decimal(v) for col, v in zip(COMPARISON_COLUMNS, row[1:])}))
    return out


TRAJECTORY_COLUMNS = ("step", "general", "reasoning", "detail", "overall")


def write_trajectory_csv(points, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_COLUMNS)
        for point in points:
            s = point.scores
            writer.writerow([point.step, str(s.general), str(s.reasoning), str(s.detail), str(s.overall)])


def read_trajectory_csv(path) -> list[TrajectoryPoint]:
    from .metrics import AggregateScores

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(TRAJECTORY_COLUMNS):
            raise FormatError(f"{path}: unexpected trajectory CSV header {header!r}")
        out = []
        for row in reader:
            if len(row) != 5:
                raise FormatError(f"{path}: row has {len(row)} fields, expected 5")
            out.append(
                TrajectoryPoint(
                    step=int(row[0]),
                    scores=AggregateScores(
                        general=Decimal(row[1]),
                        reasoning=Decimal(row[2]),
                        detail=Decimal(row[3]),
                        overall=Decimal(row[4]),
                    ),
                )
            )
    return out


# -- simulation specs --------------------------------------------------------------


def load_loss_spec(path) -> LossTraceSpec:
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("stages"), list):
        raise FormatError(f"{path}: expected an object with a 'stages' list")
    stages = []
    for pos, raw in enumerate(data["stages"], start=1):
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: stage {pos} must be an object")
        try:
            stages.append(
                SimStage(
                    index=int(raw.get("index", pos)),
                    steps=int(raw["steps"]),
                    amplitude=float(raw["amplitude"]),
                    tau=float(raw["tau"]),
                    noise=float(raw.get("noise", 0.0)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise FormatError(f"{path}: stage {pos} needs steps/amplitude/tau numbers ({err})") from None
    injections = []
    for pos, raw in enumerate(data.get("injections", []), start=1):
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: injection {pos} must be an object")
        try:
            injections.append(Injection(step=int(raw["step"]), multiplier=float(raw["multiplier"])))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise FormatError(f"{path}: injection {pos} needs step/multiplier numbers ({err})") from None
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise FormatError(f"{path}: seed must be an integer")
    interval = data.get("log_interval", 1)
    if not isinstance(interval, int) or isinstance(interval, bool):
        raise FormatError(f"{path}: log_interval must be an integer")
    return LossTraceSpec(
        stages=tuple(stages), log_interval=interval, injections=tuple(injections), seed=seed
    )


def load_capability_spec(path) -> tuple[CapabilityModelSpec, int | None]:
    """Read a capability sim spec; returns (model, seed or None)."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    raw = data.get("model", {})
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: 'model' must be an object")
    defaults = CapabilityModelSpec()
    weights = raw.get("weights", defaults.weights)
    if not isinstance(weights, dict):
        raise FormatError(f"{path}: model weights must be an object")
    try:
        model = CapabilityModelSpec(
            baseline=float(raw.get("baseline", defaults.baseline)),
            ceiling=float(raw.get("ceiling", defaults.ceiling)),
            scale=float(raw.get("scale", defaults.scale)),
            noise=float(raw.get("noise", defaults.noise)),
            eval_interval=int(raw.get("eval_interval", defaults.eval_interval)),
            weights={
                str(group): {str(k): float(v) for k, v in alphas.items()}
                for group, alphas in weights.items()
            },
        )
    except (TypeError, ValueError, OverflowError, AttributeError) as err:
        raise FormatError(f"{path}: model fields must be numbers ({err})") from None
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise FormatError(f"{path}: seed must be an integer")
    return model, seed
