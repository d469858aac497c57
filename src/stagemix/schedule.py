"""Multi-stage data-mixture schedules: dataset registry, conditions, exposure accounting.

A schedule condition is an ordered list of stages. Each stage runs for a fixed
number of training steps under one categorical sampling distribution over
dataset names. Stage 1 is the alignment stage and may only draw from
``D0-alignment`` datasets; stages 2+ are the post-alignment stages that carry
the actual mixture strategy.

Four built-in conditions ship with the toolkit:

    A  direct mixture      same mixed distribution in both post-alignment stages
    B  curriculum          general/reasoning first, OCR-heavy supervision later
    C  balanced sampling   every post-alignment source at equal probability
    D  reverse curriculum  B with its post-alignment stages swapped

Expected exposure of a dataset is the budget-weighted probability mass it
receives across post-alignment stages: ``E(d) = sum over stages s >= 2 of
T_s * pi_s(d)``, measured in expected sampling steps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from . import fields
from .errors import FormatError, InvalidScheduleError, UsageError

GROUPS = ("D0-alignment", "D1-general", "D2-reasoning", "D3-ocr")
ALIGNMENT_GROUP = "D0-alignment"

# Absolute tolerance on per-stage probability sums. The built-in rows sum to
# exactly 1.00 in decimal, so presets need no slack.
PROB_SUM_TOL = 1e-9

BUILTIN_CONDITION_IDS = ("A", "B", "C", "D")

# The alignment pool ships 558k image-text pairs; the other pools have no
# single published count, so the built-in registry uses a nominal size that
# callers override via a registry file when exact pool sizes matter.
ALIGNMENT_POOL_SIZE = 558_000
NOMINAL_POOL_SIZE = 100_000

_MIXED = {"ShareGPT4V": 0.50, "AI2D": 0.13, "ChartQA": 0.13, "TextVQA": 0.12, "DocVQA": 0.12}
_GENERAL_FIRST = {"ShareGPT4V": 0.70, "AI2D": 0.15, "ChartQA": 0.15}
_OCR_HEAVY = {"ShareGPT4V": 0.20, "AI2D": 0.10, "ChartQA": 0.10, "TextVQA": 0.30, "DocVQA": 0.30}
_BALANCED = {"ShareGPT4V": 0.20, "AI2D": 0.20, "ChartQA": 0.20, "TextVQA": 0.20, "DocVQA": 0.20}

# (stage-2 distribution, stage-3 distribution) per built-in id.
_BUILTIN_POST_STAGES = {
    "A": (_MIXED, _MIXED),
    "B": (_GENERAL_FIRST, _OCR_HEAVY),
    "C": (_BALANCED, _BALANCED),
    "D": (_OCR_HEAVY, _GENERAL_FIRST),
}

_ALIGNMENT_STAGE = {"LLaVA-Pretrain": 1.0}


@dataclass(frozen=True)
class DatasetSource:
    """One named sample pool: unique name, capability group, instance count."""

    name: str
    group: str
    size: int


@dataclass(frozen=True)
class StagePlan:
    """One stage: 1-based index, step budget, sampling distribution."""

    index: int
    steps: int
    distribution: dict[str, float]


@dataclass(frozen=True)
class ScheduleCondition:
    """A named multi-stage sampling plan."""

    id: str
    stages: tuple[StagePlan, ...]

    def total_steps(self) -> int:
        return sum(stage.steps for stage in self.stages)

    def post_alignment_steps(self) -> int:
        return sum(stage.steps for stage in self.stages if stage.index >= 2)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_condition: violations are data, not exceptions."""

    ok: bool
    violations: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def builtin_registry() -> tuple[DatasetSource, ...]:
    """The six-dataset registry required by the built-in conditions."""
    return (
        DatasetSource("LLaVA-Pretrain", "D0-alignment", ALIGNMENT_POOL_SIZE),
        DatasetSource("ShareGPT4V", "D1-general", NOMINAL_POOL_SIZE),
        DatasetSource("AI2D", "D2-reasoning", NOMINAL_POOL_SIZE),
        DatasetSource("ChartQA", "D2-reasoning", NOMINAL_POOL_SIZE),
        DatasetSource("TextVQA", "D3-ocr", NOMINAL_POOL_SIZE),
        DatasetSource("DocVQA", "D3-ocr", NOMINAL_POOL_SIZE),
    )


def builtin_condition(cond_id: str, steps) -> ScheduleCondition:
    """Build condition A/B/C/D with the given (stage1, stage2, stage3) step budgets.

    The step budgets are required inputs: the strategy tables fix only the
    distributions, never the budgets.
    """
    if cond_id not in BUILTIN_CONDITION_IDS:
        raise UsageError(
            f"unknown built-in condition {cond_id!r}; expected one of {', '.join(BUILTIN_CONDITION_IDS)}"
        )
    steps = tuple(steps)
    if len(steps) != 3:
        raise UsageError(f"built-in conditions take exactly 3 stage step counts, got {len(steps)}")
    steps = tuple(fields.check(value, "stage step count", low=0) for value in steps)
    stage2, stage3 = _BUILTIN_POST_STAGES[cond_id]
    return ScheduleCondition(
        id=cond_id,
        stages=(
            StagePlan(1, steps[0], dict(_ALIGNMENT_STAGE)),
            StagePlan(2, steps[1], dict(stage2)),
            StagePlan(3, steps[2], dict(stage3)),
        ),
    )


def registry_digest(registry) -> str:
    """Content digest binding a registry, as written into manifest headers."""
    entries = registry_as_list(sorted(registry, key=lambda src: src.name))
    canonical = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def registry_violations(registry) -> list[str]:
    """Registry-level rule violations (sizes, duplicate names)."""
    found = []
    seen = set()
    for src in registry:
        if src.name in seen:
            found.append(f"registry: duplicate dataset name {src.name!r}")
        seen.add(src.name)
        if src.group not in GROUPS:
            found.append(
                f"registry: dataset {src.name!r} has unknown group {src.group!r};"
                f" expected one of {', '.join(GROUPS)}"
            )
        found.append(fields.problem(src.size, f"registry: dataset {src.name!r} size", low=1))
    return [message for message in found if message]


def _structural_violations(cond: ScheduleCondition) -> list[str]:
    """Condition rules that need no registry: stage order, budgets, probability sums."""
    found = []
    if len(cond.stages) < 2:
        found.append(f"condition {cond.id!r}: needs at least two stages, got {len(cond.stages)}")
    for position, stage in enumerate(cond.stages, start=1):
        if stage.index != position:
            found.append(
                f"condition {cond.id!r}: stage indices must be consecutive from 1;"
                f" position {position} has index {stage.index}"
            )
    for stage in cond.stages:
        found.append(fields.problem(stage.steps, f"stage {stage.index}: step count", low=0))
        total = 0.0
        for name, prob in stage.distribution.items():
            message = fields.problem(prob, f"stage {stage.index}: probability of {name!r}", float)
            if message:
                found.append(message)
                continue
            if not 0.0 <= prob <= 1.0:
                found.append(f"stage {stage.index}: probability of {name!r} is {prob!r}, outside [0, 1]")
            total += float(prob)
        if not abs(total - 1.0) <= PROB_SUM_TOL:  # a nan sum differs too
            found.append(f"stage {stage.index}: probability sum {total!r} differs from 1 by more than {PROB_SUM_TOL}")
    return [message for message in found if message]


def validate_condition(cond: ScheduleCondition, registry) -> ValidationResult:
    """Check every documented rule; never raises, violations come back as data."""
    found = registry_violations(registry)
    found.extend(_structural_violations(cond))
    by_name = {src.name: src for src in registry}
    for stage in cond.stages:
        for name in stage.distribution:
            if name not in by_name:
                found.append(f"stage {stage.index}: references dataset {name!r} absent from the registry")
        if stage.index == 1:
            for name, prob in stage.distribution.items():
                src = by_name.get(name)
                if src is not None and prob > 0.0 and src.group != ALIGNMENT_GROUP:
                    found.append(
                        f"stage 1: support must be {ALIGNMENT_GROUP} only;"
                        f" {name!r} belongs to group {src.group!r}"
                    )
    if cond.id in BUILTIN_CONDITION_IDS:
        expected = {src.name: src.group for src in builtin_registry()}
        actual = {src.name: src.group for src in registry}
        if actual != expected:
            found.append(
                f"condition {cond.id!r}: built-in conditions require exactly the six standard"
                f" datasets with their standard groups; registry has {sorted(actual)!r}"
            )
    return ValidationResult(ok=not found, violations=tuple(found))


@dataclass(frozen=True)
class ExposureRow:
    """Exposure of every dataset under one condition."""

    condition: str
    post_steps: int
    per_dataset: dict[str, float]
    per_group: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExposureReport:
    """Per-dataset (and, with a registry, per-group) exposure plus cross-condition deviation."""

    rows: tuple[ExposureRow, ...]
    datasets: tuple[str, ...]
    deviation: dict[str, float]
    group_deviation: dict[str, float]
    warn_threshold: float
    flagged: tuple[str, ...]
    flagged_groups: tuple[str, ...]

    def budgets_match(self) -> bool:
        return len({row.post_steps for row in self.rows}) <= 1

    def as_dict(self) -> dict:
        return {
            "rows": [
                {
                    "condition": row.condition,
                    "post_alignment_steps": row.post_steps,
                    "per_dataset": row.per_dataset,
                    "per_group": row.per_group,
                }
                for row in self.rows
            ],
            "datasets": list(self.datasets),
            "max_relative_deviation": self.deviation,
            "group_max_relative_deviation": self.group_deviation,
            "warn_threshold": self.warn_threshold,
            "flagged_datasets": list(self.flagged),
            "flagged_groups": list(self.flagged_groups),
            "budgets_match": self.budgets_match(),
        }


def _require_valid(cond: ScheduleCondition, registry) -> None:
    if registry is None:
        found = _structural_violations(cond)
    else:
        found = list(validate_condition(cond, registry).violations)
    if found:
        raise InvalidScheduleError(found)


def _exposure_row(cond: ScheduleCondition, registry, datasets, done: int | None = None) -> ExposureRow:
    """Exposure after the first `done` training steps (all of them by default): per
    dataset summed over stages in order, then per group over `datasets` in their order."""
    done = cond.total_steps() if done is None else done
    per_dataset = {name: 0.0 for name in datasets}
    start = 0
    for stage in cond.stages:
        steps = min(max(done - start, 0), stage.steps)
        start += stage.steps
        if stage.index < 2:
            continue
        for name, prob in stage.distribution.items():
            per_dataset[name] = per_dataset.get(name, 0.0) + steps * prob
    per_group: dict[str, float] = {}
    if registry is not None:
        group_of = {src.name: src.group for src in registry}
        per_group = {group: 0.0 for group in GROUPS}
        for name, exposure in per_dataset.items():
            per_group[group_of[name]] += exposure
    return ExposureRow(
        condition=cond.id,
        post_steps=cond.post_alignment_steps(),
        per_dataset=per_dataset,
        per_group=per_group,
    )


def _relative_deviation(values) -> float:
    top = max(values)
    if top == 0.0:
        return 0.0
    return (top - min(values)) / top


def compare_exposure(conds, registry=None, warn_threshold: float = 0.10) -> ExposureReport:
    """Expected-exposure report across conditions; mismatches warn, never fail.

    Deviation per dataset is (max - min) / max over the compared conditions,
    with 0/0 treated as 0. Datasets (or groups) whose deviation exceeds
    `warn_threshold` are flagged. Without a registry only structural
    validation runs and the per-group breakdown is omitted.
    """
    conds = list(conds)
    if not conds:
        raise UsageError("compare_exposure needs at least one condition")
    warn_threshold = fields.check(warn_threshold, "warn threshold", float, non_negative=True)
    for cond in conds:
        _require_valid(cond, registry)
    if registry is not None:
        datasets = sorted(src.name for src in registry)
    else:
        names = set()
        for cond in conds:
            for stage in cond.stages:
                names.update(stage.distribution)
        datasets = sorted(names)
    rows = tuple(_exposure_row(cond, registry, datasets) for cond in conds)
    deviation = {
        name: _relative_deviation([row.per_dataset[name] for row in rows]) for name in datasets
    }
    group_deviation = {}
    if registry is not None:
        group_deviation = {
            group: _relative_deviation([row.per_group[group] for row in rows]) for group in GROUPS
        }
    flagged = tuple(name for name in datasets if deviation[name] > warn_threshold)
    flagged_groups = tuple(group for group in group_deviation if group_deviation[group] > warn_threshold)
    return ExposureReport(
        rows=rows,
        datasets=tuple(datasets),
        deviation=deviation,
        group_deviation=group_deviation,
        warn_threshold=warn_threshold,
        flagged=flagged,
        flagged_groups=flagged_groups,
    )


def compute_exposure(cond: ScheduleCondition, registry=None, warn_threshold: float = 0.10) -> ExposureReport:
    """Single-condition exposure report (deviations are all zero by construction)."""
    return compare_exposure([cond], registry=registry, warn_threshold=warn_threshold)


def condition_as_dict(cond: ScheduleCondition) -> dict:
    return {"id": cond.id, "stages": [asdict(stage) for stage in cond.stages]}


def condition_from_dict(data) -> ScheduleCondition:
    """Parse one condition object; shape problems raise FormatError."""
    cond = fields.read(data, "condition", {"id": str, "stages": list})
    cond_id = fields.check(cond["id"], "condition id", str, FormatError, empty=False)
    stages = []
    for pos, raw in enumerate(cond["stages"], start=1):
        where = f"condition {cond_id!r}: stage at position {pos}"
        plan = fields.read(raw, where, {"index": int, "steps": int, "distribution": dict}, index=pos)
        plan["distribution"] = {
            name: fields.check(prob, f"{where} probability of {name!r}", float, FormatError)
            for name, prob in plan["distribution"].items()
        }
        stages.append(StagePlan(**plan))
    return ScheduleCondition(id=cond_id, stages=tuple(stages))


def registry_as_list(registry) -> list[dict]:
    return [asdict(src) for src in registry]


def registry_from_list(data) -> tuple[DatasetSource, ...]:
    """Parse a dataset list; shape problems raise FormatError."""
    sources = []
    for pos, raw in enumerate(fields.check(data, "registry datasets", list, FormatError), start=1):
        entry = fields.read(raw, f"registry entry {pos}", {"name": str, "group": str, "size": int})
        fields.check(entry["name"], f"registry entry {pos} name", str, FormatError, empty=False)
        sources.append(DatasetSource(**entry))
    return tuple(sources)
