"""Plain-text renderers for the toolkit's reports.

Every renderer returns a string whose bytes depend only on the report
contents, so written reports diff cleanly across runs. Headline numbers use
the fixed display precisions of the report tables (scores one decimal,
fluctuation three, spike frequency as a two-decimal percentage, transition
stability two); exact values stay available through each report's as_dict.
"""

from __future__ import annotations

from .dynamics import StabilitySummary
from .metrics import TRAJECTORY_COLUMNS, ComparisonTable, TrajectoryPoint
from .rounding import fmt_fixed, fmt_percent
from .schedule import ExposureReport, ValidationResult


def _table(headers, rows) -> str:
    """Fixed-width columns: first left-aligned, the rest right-aligned."""
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for n, row in enumerate(cells):
        padded = [
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        ]
        lines.append("  ".join(padded).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _num(value: float) -> str:
    """Trim float noise for counts that are morally integers."""
    if value == int(value):
        return str(int(value))
    return format(value, ".6g")


def render_validation(cond_id: str, result: ValidationResult) -> str:
    if result.ok:
        return f"condition {cond_id}: OK (violations: none)"
    lines = [f"condition {cond_id}: {len(result.violations)} violation(s)"]
    lines.extend(f"  - {v}" for v in result.violations)
    return "\n".join(lines)


def render_exposure(report: ExposureReport) -> str:
    conds = [row.condition for row in report.rows]
    headers = ["dataset"] + conds + ["max rel dev", ""]
    rows = []
    for name in report.datasets:
        dev = report.deviation[name]
        rows.append(
            [name]
            + [_num(row.per_dataset[name]) for row in report.rows]
            + [fmt_fixed(dev, 4), "!" if name in report.flagged else ""]
        )
    blocks = ["expected exposure per dataset (post-alignment steps)", _table(headers, rows)]
    if report.group_deviation:
        group_rows = []
        for group in sorted(report.group_deviation):
            dev = report.group_deviation[group]
            group_rows.append(
                [group]
                + [_num(row.per_group[group]) for row in report.rows]
                + [fmt_fixed(dev, 4), "!" if group in report.flagged_groups else ""]
            )
        blocks.append("")
        blocks.append("expected exposure per capability group")
        blocks.append(_table(["group"] + conds + ["max rel dev", ""], group_rows))
    blocks.append("")
    blocks.append(
        "post-alignment budgets: "
        + ", ".join(f"{row.condition}={row.post_steps}" for row in report.rows)
        + (" (match)" if report.budgets_match() else " (MISMATCH)")
    )
    blocks.append(f"warn threshold: {_num(report.warn_threshold)}")
    flagged = ", ".join(report.flagged) if report.flagged else "none"
    blocks.append(f"flagged datasets: {flagged}")
    return "\n".join(blocks)


def render_comparison(table: ComparisonTable) -> str:
    """Score table, one decimal, best value per column marked with *."""
    rows = []
    for i, (cond, row) in enumerate(zip(table.conditions, table.rows)):
        rendered = [cond]
        for col in table.columns:
            mark = "*" if table.is_best(i, col) else ""
            rendered.append(fmt_fixed(row[col], 1) + mark)
        rows.append(rendered)
    legend = "* best in column (decided on unrounded values; ties all marked)"
    return _table(["Condition", *table.columns], rows) + "\n" + legend


def render_stability_row(condition: str, summary: StabilitySummary) -> list[str]:
    if summary.transition_stability is not None:
        stab = fmt_fixed(summary.transition_stability, 2)
    else:
        stab = "undefined" if summary.transitions else "n/a"
    return [
        condition,
        fmt_fixed(summary.loss_std, 3),
        fmt_percent(summary.spike_frequency),
        stab,
    ]


def render_stability_table(rows) -> str:
    """Rows of (condition, StabilitySummary) in the stability-table layout."""
    headers = ["Condition", "Loss Std", "Spike Freq.", "Stage Tran Stab."]
    return _table(headers, [render_stability_row(c, s) for c, s in rows])


def render_stability_summary(summary: StabilitySummary) -> str:
    lines = [
        f"records analyzed: {summary.n_windows + summary.spike_window - 1}",
        f"fluctuation window: {summary.window}",
        f"spike window: {summary.spike_window}",
        f"loss std: {fmt_fixed(summary.loss_std, 3)} (mean windowed; global {fmt_fixed(summary.global_loss_std, 3)})",
        f"spike frequency: {fmt_percent(summary.spike_frequency)} ({summary.n_spikes} of {summary.n_windows} windows)",
    ]
    if not summary.transitions:
        lines.append("transition stability: n/a (single stage)")
    else:
        stability = summary.transition_stability
        stab = "undefined (every boundary has loss 0 before it)" if stability is None else fmt_fixed(stability, 2)
        lines.append(f"transition stability: {stab}")
        for t in summary.transitions:
            ratio = "undefined (loss 0 before the boundary)" if t.ratio is None else format(t.ratio, "+.4f")
            lines.append(
                f"  stage {t.from_stage}->{t.to_stage}: steps {t.step_before}->{t.step_after},"
                f" loss {format(t.loss_before, '.6g')}->{format(t.loss_after, '.6g')},"
                f" ratio {ratio}"
            )
    gaps = summary.gaps
    if gaps.regular:
        lines.append(f"logging: regular (spacing {gaps.modal_spacing})")
    else:
        lines.append(
            f"logging: irregular ({gaps.irregular_count} gaps differ from modal spacing"
            f" {gaps.modal_spacing}; widest {gaps.max_spacing}); windows slide over logged records"
        )
    return "\n".join(lines)


def render_aggregate(step: int, scores) -> str:
    return "\n".join(
        [
            f"step: {step}",
            f"general: {fmt_fixed(scores.general, 1)}",
            f"reasoning: {fmt_fixed(scores.reasoning, 1)}",
            f"detail (OCR): {fmt_fixed(scores.detail, 1)}",
            f"overall: {fmt_fixed(scores.overall, 1)}",
        ]
    )


def render_trajectory(points: list[TrajectoryPoint]) -> str:
    rows = [[str(p.step), *(fmt_fixed(score, 1) for score in vars(p.scores).values())] for p in points]
    return _table(TRAJECTORY_COLUMNS, rows)
