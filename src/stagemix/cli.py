"""Command-line interface.

Subcommands cover the full toolkit: `validate` and `exposure` for schedule
conditions, `manifest` for deterministic sample manifests, `analyze` for
loss-curve stability, `metrics` for score aggregation, and `simulate` for
synthetic runs with known ground truth.

Exit codes, each carried by its error family (errors.py): 0 success, 1 rule
violations in well-formed input, 2 usage errors (bad flags, window larger than
the trace), 3 unreadable or unparseable files; 70 a toolkit bug, out of memory
included: one `internal error:` line naming the innermost stagemix line it
passed through, never a traceback. Output is deterministic: the same invocation on the same inputs
writes the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fields, formats, reports
from .dynamics import DEFAULT_WINDOW, stability_summary
from .errors import StagemixError, UsageError
from .metrics import aggregate, comparison, convergence_step, trajectory
from .sampling import generate_manifest
from .schedule import (
    BUILTIN_CONDITION_IDS,
    builtin_condition,
    builtin_registry,
    compare_exposure,
    validate_condition,
)
from .simulate import CapabilityModelSpec, synth_capability, synth_loss

_PACKAGE = Path(__file__).parent  # an internal error names the innermost line of code in here


def _flag_value(kind):
    """An argparse type: a flag's text read as JSON and held to the rule of every JSON input (fields), an
    integer for kind int and a number for kind float, as a plain int or float. `1_0` and digits of
    other scripts, which int() and float() take, are refused; ranges are checked where values are used."""

    def parse(text: str):
        value = formats.json_value(text)
        if not (fields.is_integer(value) if kind is int else fields.is_number(value)):
            raise argparse.ArgumentTypeError(f"expected {fields.NOUNS[kind]}, got {text!r}")
        return kind(value)

    return parse


_INTEGER, _NUMBER = _flag_value(int), _flag_value(float)


def _parse_steps(text: str):
    steps = [formats.json_value(part) for part in text.split(",")]
    if not all(map(fields.is_integer, steps)):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return tuple(steps)


def _add_condition_args(parser) -> None:
    parser.add_argument(
        "--schedule",
        metavar="FILE",
        help="schedule JSON file with the condition(s) to use",
    )
    parser.add_argument(
        "--condition",
        action="append",
        metavar="ID",
        help=(
            "condition id; with --schedule selects from the file, otherwise one of "
            + "/".join(BUILTIN_CONDITION_IDS)
            + " built from --steps (repeatable)"
        ),
    )
    parser.add_argument(
        "--steps",
        type=_parse_steps,
        metavar="T1,T2,T3",
        help="per-stage step budgets for built-in conditions (no default)",
    )
    parser.add_argument(
        "--registry",
        metavar="FILE",
        help="dataset registry JSON (default: the built-in six-dataset registry)",
    )


def _add_output_args(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "data"),
        default="text",
        help="output form: human-readable text or JSON data (default: text)",
    )
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _resolve_conditions(args):
    registry = formats.load_registry(args.registry) if args.registry else builtin_registry()
    wanted = args.condition
    if args.schedule:
        conds = formats.load_conditions(args.schedule)
        missing = [w for w in wanted or () if all(c.id != w for c in conds)]
        if missing:
            raise UsageError(f"schedule file has no condition {missing[0]!r}")
        return ([c for w in wanted for c in conds if c.id == w] if wanted else conds), registry
    if not wanted:
        raise UsageError("need --schedule FILE, or --condition with --steps")
    if not args.steps:
        raise UsageError("--condition without --schedule needs --steps T1,T2,T3")
    return [builtin_condition(w, args.steps) for w in wanted], registry


def _one_condition(args, task: str):
    conds, registry = _resolve_conditions(args)
    if len(conds) != 1:
        raise UsageError(f"{task} needs exactly one condition, got {len(conds)}; pick one with --condition")
    return conds[0], registry


def _emit(args, text: str, data) -> None:
    if getattr(args, "format", "text") == "data":
        payload = json.dumps(data, indent=2, allow_nan=False) + "\n"
    else:
        payload = text + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _cmd_validate(args) -> int:
    conds, registry = _resolve_conditions(args)
    if not conds:
        raise UsageError("no conditions to validate")
    failed = False
    for cond in conds:
        result = validate_condition(cond, registry)
        print(reports.render_validation(cond.id, result))
        failed = failed or not result.ok
    return 1 if failed else 0


def _cmd_exposure(args) -> int:
    conds, registry = _resolve_conditions(args)
    report = compare_exposure(conds, registry=registry, warn_threshold=args.warn_threshold)
    _emit(args, reports.render_exposure(report), report.as_dict())
    return 0


def _cmd_manifest(args) -> int:
    cond, registry = _one_condition(args, "manifest generation")
    manifest = generate_manifest(cond, registry, args.seed)
    formats.write_manifest(manifest, args.out)
    print(f"wrote {len(manifest)} events to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    trace = formats.load_loss_trace(args.trace)
    summary = stability_summary(trace, window=args.window, spike_window=args.spike_window)
    _emit(args, reports.render_stability_summary(summary), summary.as_dict())
    return 0


def _final_snapshot(snapshots, step=None):
    if not snapshots:
        raise UsageError("eval log has no snapshots")
    if step is None:
        return snapshots[-1]
    for snap in snapshots:
        if snap.step == step:
            return snap
    raise UsageError(f"eval log has no snapshot at step {step}")


def _cmd_metrics_aggregate(args) -> int:
    snapshots = formats.load_eval_log(args.evals)
    snap = _final_snapshot(snapshots, args.step)
    scores = aggregate(snap.scores)
    _emit(args, reports.render_aggregate(snap.step, scores), {"step": snap.step, **scores.as_dict()})
    return 0


def _parse_run(pair: str):
    name, sep, path = pair.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=EVALS_FILE, got {pair!r}")
    return name, path


def _cmd_metrics_compare(args) -> int:
    named = []
    for name, path in args.runs:
        named.append((name, _final_snapshot(formats.load_eval_log(path)).scores))
    table = comparison(named)
    if args.csv:
        formats.write_comparison_csv(table, args.csv)
    _emit(args, reports.render_comparison(table), table.as_dict())
    return 0


def _cmd_metrics_trajectory(args) -> int:
    snapshots = formats.load_eval_log(args.evals)
    points = trajectory(snapshots)
    if args.csv:
        formats.write_trajectory_csv(points, args.csv)
    _emit(
        args,
        reports.render_trajectory(points),
        [{"step": p.step, **p.scores.as_dict()} for p in points],
    )
    return 0


def _cmd_metrics_convergence(args) -> int:
    snapshots = formats.load_eval_log(args.evals)
    step = convergence_step(snapshots, args.fraction)
    final = trajectory(snapshots)[-1]
    _emit(
        args,
        f"convergence step: {step} (first overall >= {args.fraction} * final overall {final.scores.overall})",
        {"step": step, "fraction": str(args.fraction), "final_overall": str(final.scores.overall)},
    )
    return 0


def _cmd_simulate_loss(args) -> int:
    spec = formats.load_loss_spec(args.spec)
    result = synth_loss(spec, seed=args.seed)
    formats.save_loss_trace(result.trace, args.out)
    if args.truth:
        formats.save_json(
            {
                "injected_steps": list(result.injected_steps),
                "true_transitions": [
                    {
                        "from_stage": t.from_stage,
                        "to_stage": t.to_stage,
                        "ratio": t.ratio,
                    }
                    for t in result.true_transitions
                ],
            },
            args.truth,
        )
    print(f"wrote {len(result.trace)} loss records to {args.out}")
    return 0


def _cmd_simulate_capability(args) -> int:
    cond, registry = _one_condition(args, "capability simulation")
    if args.spec:
        model, file_seed = formats.load_capability_spec(args.spec)
    else:
        model, file_seed = CapabilityModelSpec(), None
    seed = args.seed if args.seed is not None else file_seed
    result = synth_capability(cond, model, registry=registry, seed=seed)
    formats.save_eval_log(result.snapshots, args.out)
    if args.truth:
        formats.save_json(
            {
                "final_scores": {task: str(score) for task, score in result.final_truth.items()},
                "final_group_exposure": result.final_exposure,
            },
            args.truth,
        )
    print(f"wrote {len(result.snapshots)} snapshots to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagemix",
        description="Multi-stage data-mixture schedules: manifests, stability analytics, score aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", help="check schedule conditions against the documented rules")
    _add_condition_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("exposure", help="expected-exposure table and cross-condition deviations")
    _add_condition_args(p)
    p.add_argument(
        "--warn-threshold",
        type=_NUMBER,
        default=0.10,
        metavar="F",
        help="flag datasets whose relative exposure deviation exceeds this (default: 0.10)",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_exposure)

    p = sub.add_parser("manifest", help="write the deterministic sample manifest for one condition")
    _add_condition_args(p)
    p.add_argument(
        "--seed",
        type=_INTEGER,
        required=True,
        metavar="N",
        help="manifest seed, an integer in [0, 2**64) (required; runs never seed themselves)",
    )
    p.add_argument("--out", required=True, metavar="FILE", help="manifest JSONL path")
    p.set_defaults(func=_cmd_manifest)

    p = sub.add_parser("analyze", help="loss-curve stability report for one training log")
    p.add_argument("--trace", required=True, metavar="FILE", help="loss log (JSONL, or CSV with stage sidecar)")
    p.add_argument(
        "--window",
        type=_INTEGER,
        default=DEFAULT_WINDOW,
        metavar="N",
        help=f"fluctuation window size in logged records (default: {DEFAULT_WINDOW})",
    )
    p.add_argument(
        "--spike-window",
        type=_INTEGER,
        default=None,
        metavar="N",
        help=f"spike-detection window size (default: the --window value, i.e. {DEFAULT_WINDOW})",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_analyze)

    metrics = sub.add_parser("metrics", help="score aggregation over evaluation logs")
    msub = metrics.add_subparsers(dest="metrics_command", required=True, metavar="VERB")

    p = msub.add_parser("aggregate", help="composite scores for one snapshot")
    p.add_argument("--evals", required=True, metavar="FILE", help="eval log JSONL")
    p.add_argument("--step", type=_INTEGER, default=None, metavar="N", help="snapshot step (default: last)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_metrics_aggregate)

    p = msub.add_parser("compare", help="cross-condition score table from final snapshots")
    p.add_argument(
        "runs",
        nargs="+",
        type=_parse_run,
        metavar="NAME=EVALS_FILE",
        help="one labeled eval log per condition",
    )
    p.add_argument("--csv", metavar="FILE", help="also write the table as CSV (exact values)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_metrics_compare)

    p = msub.add_parser("trajectory", help="composite scores at every evaluated step")
    p.add_argument("--evals", required=True, metavar="FILE", help="eval log JSONL")
    p.add_argument("--csv", metavar="FILE", help="also write the trajectory as CSV (exact values)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_metrics_trajectory)

    p = msub.add_parser("convergence", help="earliest step reaching a fraction of the final overall score")
    p.add_argument("--evals", required=True, metavar="FILE", help="eval log JSONL")
    p.add_argument(
        "--fraction",
        type=_NUMBER,
        default=0.9,
        metavar="F",
        help="fraction of the final overall score, in (0, 1] (default: 0.9)",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_metrics_convergence)

    simulate = sub.add_parser("simulate", help="synthetic runs with known ground truth")
    ssub = simulate.add_subparsers(dest="simulate_command", required=True, metavar="KIND")

    p = ssub.add_parser("loss", help="simulate a loss log from a stage-curve spec")
    p.add_argument("--spec", required=True, metavar="FILE", help="loss simulation spec JSON")
    p.add_argument(
        "--seed",
        type=_INTEGER,
        default=None,
        metavar="N",
        help="noise seed; overrides the spec's seed (required somewhere when noise > 0)",
    )
    p.add_argument("--out", required=True, metavar="FILE", help="loss log JSONL path")
    p.add_argument("--truth", metavar="FILE", help="also write ground truth (injections, ratios) as JSON")
    p.set_defaults(func=_cmd_simulate_loss)

    p = ssub.add_parser("capability", help="simulate an eval log for one condition")
    _add_condition_args(p)
    p.add_argument("--spec", metavar="FILE", help="capability model spec JSON (default: built-in model)")
    p.add_argument(
        "--seed",
        type=_INTEGER,
        default=None,
        metavar="N",
        help="noise seed; overrides the spec's seed (required somewhere when noise > 0)",
    )
    p.add_argument("--out", required=True, metavar="FILE", help="eval log JSONL path")
    p.add_argument("--truth", metavar="FILE", help="also write the exact noiseless finals as JSON")
    p.set_defaults(func=_cmd_simulate_capability)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StagemixError as err:
        message, code = f"error: {err}", err.exit_code
    except OSError as err:
        message, code = f"error: {err}", 3
    except Exception as err:  # a toolkit bug, MemoryError included: one line naming where, never a traceback
        frames, tb = [], err.__traceback__
        while tb:
            frames.append(tb)
            tb = tb.tb_next
        ours = [tb for tb in frames if Path(tb.tb_frame.f_code.co_filename).parent == _PACKAGE]
        tb = (ours or frames)[-1]  # where the toolkit went wrong, not the library it called
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        text = f"{type(err).__name__}: {err}" if str(err) else type(err).__name__
        message, code = f"internal error: {text} at {where}", 70  # sysexits EX_SOFTWARE
    print(message.replace("\n", " "), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
