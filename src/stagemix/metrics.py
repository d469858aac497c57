"""Capability score aggregation over benchmark evaluations.

Scores arrive with one decimal place (the precision benchmark harnesses
report). All arithmetic runs on decimal.Decimal so composite means are exact
scaled integers, never float approximations: averaging 72.1 and 74.0 yields
exactly 73.05, and whether that renders as 73.0 or 73.1 is decided once, at
rendering time, by half-away-from-zero rounding. Best-of-column markers
compare the unrounded values, so a 73.05 beats a 73.04 even though both
render as 73.0; ties mark every row that achieves the maximum.

Aggregates per snapshot: the general score is the General-Val benchmark
itself, reasoning averages AI2D and ChartQA, detail (OCR) averages TextVQA
and DocVQA, and overall averages all five tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from decimal import Decimal, InvalidOperation

from . import fields
from .errors import EvalDataError, UsageError

# The task -> composite partition: each composite averages its tasks.
COMPOSITE_TASKS = {
    "general": ("General-Val",),
    "reasoning": ("AI2D", "ChartQA"),
    "detail": ("TextVQA", "DocVQA"),
}
TASKS = tuple(task for tasks in COMPOSITE_TASKS.values() for task in tasks)

COMPARISON_COLUMNS = (
    "General-Val",
    "AI2D",
    "ChartQA",
    "Reasoning",
    "TextVQA",
    "DocVQA",
    "OCR",
    "Overall",
)

_TENTH = Decimal("0.1")


def to_score(value) -> Decimal:
    """Validate one benchmark score: a number in [0, 100] with at most one decimal."""
    if not isinstance(value, (Decimal, str)):
        fields.check(value, "score", float, EvalDataError)
    try:
        score = value if isinstance(value, Decimal) else Decimal(str(value))
    except InvalidOperation:
        raise EvalDataError(f"score {value!r} is not a number") from None
    if not score.is_finite():
        raise EvalDataError(f"score {value!r} is not finite")
    if score < 0 or score > 100:
        raise EvalDataError(f"score {score} is outside [0, 100]")
    if score != score.quantize(_TENTH):
        raise EvalDataError(f"score {score} has more than one decimal place")
    return score


@dataclass(frozen=True)
class EvalSnapshot:
    """All task scores measured at one training step."""

    step: int
    scores: dict[str, Decimal]


@dataclass(frozen=True)
class AggregateScores:
    """Exact composite scores; render with one decimal for display."""

    general: Decimal
    reasoning: Decimal
    detail: Decimal
    overall: Decimal

    def as_dict(self) -> dict:
        return {name: str(score) for name, score in vars(self).items()}  # fields in declaration order


# The trajectory table's columns, in its text and CSV forms: the step, then the composites.
TRAJECTORY_COLUMNS = ("step", *(f.name for f in dataclass_fields(AggregateScores)))


def _checked_scores(scores) -> dict[str, Decimal]:
    checked = {}
    for task, value in scores.items():
        if task not in TASKS:
            raise EvalDataError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
        checked[task] = to_score(value)
    missing = [task for task in TASKS if task not in checked]
    if missing:
        raise EvalDataError(
            f"snapshot is missing {', '.join(missing)}; partial snapshots cannot be aggregated"
        )
    return checked


def aggregate(scores) -> AggregateScores:
    """Composite scores for one complete snapshot (a task -> score mapping)."""
    checked = _checked_scores(scores)
    composites = {name: _mean(checked, tasks) for name, tasks in COMPOSITE_TASKS.items()}
    return AggregateScores(**composites, overall=_mean(checked, TASKS))


def _mean(checked: dict[str, Decimal], tasks) -> Decimal:
    """The exact mean of some tasks' scores; one task's mean is its score, as written."""
    if len(tasks) == 1:
        return checked[tasks[0]]
    return sum(checked[t] for t in tasks) / len(tasks)


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    scores: AggregateScores


def trajectory(snapshots) -> list[TrajectoryPoint]:
    """Aggregate a snapshot sequence into per-step composite scores."""
    snapshots = sorted(snapshots, key=lambda s: s.step)
    if not snapshots:
        raise EvalDataError("no snapshots to aggregate")
    steps = [s.step for s in snapshots]
    if len(set(steps)) != len(steps):
        dup = next(s for i, s in enumerate(steps) if s in steps[:i])
        raise EvalDataError(f"duplicate snapshot at step {dup}")
    return [TrajectoryPoint(step=s.step, scores=aggregate(s.scores)) for s in snapshots]


def convergence_step(snapshots, fraction) -> int:
    """Earliest logged step whose overall score reaches fraction * final overall."""
    try:
        frac = Decimal(str(fraction))
    except InvalidOperation:
        raise UsageError(f"fraction {fraction!r} is not a number") from None
    if not frac.is_finite() or frac <= 0 or frac > 1:
        raise UsageError(f"fraction must be in (0, 1], got {fraction!r}")
    points = trajectory(snapshots)
    threshold = frac * points[-1].scores.overall
    for point in points:
        if point.scores.overall >= threshold:
            return point.step
    return points[-1].step


@dataclass(frozen=True)
class ComparisonTable:
    """Per-condition composite scores with best-of-column markers.

    Rows keep input order; duplicate condition ids stay separate rows. `best`
    maps each column to the row indices achieving its maximum (all of them,
    on ties), decided on unrounded values.
    """

    columns: tuple[str, ...]
    conditions: tuple[str, ...]
    rows: tuple[dict[str, Decimal], ...]
    best: dict[str, tuple[int, ...]]

    def is_best(self, row: int, column: str) -> bool:
        return row in self.best[column]

    def as_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [
                {
                    "condition": cond,
                    "scores": {col: str(row[col]) for col in self.columns},
                }
                for cond, row in zip(self.conditions, self.rows)
            ],
            "best": {col: list(self.best[col]) for col in self.columns},
        }


def comparison(named_snapshots) -> ComparisonTable:
    """Build the cross-condition table from (condition id, scores mapping) pairs."""
    named_snapshots = list(named_snapshots)
    if not named_snapshots:
        raise EvalDataError("no conditions to compare")
    conditions = []
    rows = []
    for cond_id, scores in named_snapshots:
        checked = _checked_scores(scores)
        composite = aggregate(checked)
        row = dict(checked)
        row["Reasoning"] = composite.reasoning
        row["OCR"] = composite.detail
        row["Overall"] = composite.overall
        conditions.append(str(cond_id))
        rows.append(row)
    best = {}
    for col in COMPARISON_COLUMNS:
        top = max(row[col] for row in rows)
        best[col] = tuple(i for i, row in enumerate(rows) if row[col] == top)
    return ComparisonTable(
        columns=COMPARISON_COLUMNS,
        conditions=tuple(conditions),
        rows=tuple(rows),
        best=best,
    )
