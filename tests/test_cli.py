import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import stagemix
from stagemix import (
    DatasetSource,
    EvalSnapshot,
    ScheduleCondition,
    StagePlan,
    builtin_condition,
    save_conditions,
    save_eval_log,
    save_registry,
)
from stagemix.cli import _emit, run
from fixtures_data import FINAL_SCORES

LOSS_SPEC = {
    "stages": [
        {"steps": 300, "amplitude": 4.0, "tau": 500.0},
        {"steps": 300, "amplitude": 2.5, "tau": 700.0},
    ]
}

NOISY_SPEC = {
    "stages": [{"steps": 400, "amplitude": 3.0, "tau": 1e6, "noise": 0.02}],
    "injections": [{"step": 200, "multiplier": 5.0}],
}


def stagemix_process(*argv, module="stagemix"):
    """Run the CLI in a fresh interpreter, as `python -m MODULE ARGV...`."""
    env = dict(os.environ, PYTHONPATH=str(Path(stagemix.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def schedule_file(tmp_path):
    path = tmp_path / "schedule.json"
    save_conditions([builtin_condition(i, (100, 450, 450)) for i in "AB"], path)
    return str(path)


@pytest.fixture
def eval_log(tmp_path):
    def make(cond_id, steps=(500,)):
        path = tmp_path / f"evals_{cond_id}.jsonl"
        snaps = [
            EvalSnapshot(step=s, scores={t: Decimal(v) for t, v in FINAL_SCORES[cond_id].items()})
            for s in steps
        ]
        save_eval_log(snaps, path)
        return str(path)

    return make


@pytest.fixture
def loss_log(tmp_path, capsys):
    spec_path = tmp_path / "loss_spec.json"
    spec_path.write_text(json.dumps(LOSS_SPEC))
    out = tmp_path / "loss.jsonl"
    assert run(["simulate", "loss", "--spec", str(spec_path), "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out)


class TestValidate:
    def test_builtin_conditions_pass(self, capsys):
        code, out, _ = cli(
            capsys, "validate", "--condition", "A", "--condition", "B", "--steps", "100,450,450"
        )
        assert code == 0
        assert "condition A: OK" in out
        assert "condition B: OK" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = ScheduleCondition(
            id="bad",
            stages=(StagePlan(1, 10, {"ShareGPT4V": 1.0}), StagePlan(2, 10, {"ShareGPT4V": 1.0})),
        )
        path = tmp_path / "bad.json"
        save_conditions([bad], path)
        code, out, _ = cli(capsys, "validate", "--schedule", str(path))
        assert code == 1
        assert "violation" in out

    def test_condition_without_steps(self, capsys):
        code, _, err = cli(capsys, "validate", "--condition", "A")
        assert code == 2
        assert "--steps" in err

    def test_unknown_builtin_id(self, capsys):
        code, _, err = cli(capsys, "validate", "--condition", "Z", "--steps", "1,1,1")
        assert code == 2
        assert "Z" in err


class TestExposure:
    ARGS = ("--condition", "A", "--condition", "B", "--steps", "100,450,450")

    def test_text_report(self, capsys):
        code, out, _ = cli(capsys, "exposure", *self.ARGS)
        assert code == 0
        assert "DocVQA" in out and "ShareGPT4V" in out
        assert "flagged" in out

    def test_data_report(self, capsys):
        code, out, _ = cli(capsys, "exposure", *self.ARGS, "--format", "data")
        assert code == 0
        payload = json.loads(out)
        assert payload["flagged_datasets"] == ["DocVQA", "TextVQA"]
        assert payload["warn_threshold"] == 0.10
        assert {row["condition"] for row in payload["rows"]} == {"A", "B"}

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "exposure.json"
        code, out, _ = cli(capsys, "exposure", *self.ARGS, "--format", "data", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["budgets_match"] is True

    def test_schedule_selection(self, schedule_file, capsys):
        code, out, _ = cli(capsys, "exposure", "--schedule", schedule_file, "--condition", "A")
        assert code == 0
        assert "post-alignment budgets: A=900" in out
        assert " B" not in out.splitlines()[1]

    def test_missing_condition_in_file(self, schedule_file, capsys):
        code, _, err = cli(capsys, "exposure", "--schedule", schedule_file, "--condition", "Q")
        assert code == 2
        assert "Q" in err


class TestManifest:
    def registry_file(self, tmp_path):
        path = tmp_path / "registry.json"
        save_registry(
            (
                DatasetSource("alpha", "D0-alignment", 5),
                DatasetSource("beta", "D1-general", 4),
            ),
            path,
        )
        return str(path)

    def schedule(self, tmp_path):
        cond = ScheduleCondition(
            id="toy",
            stages=(StagePlan(1, 4, {"alpha": 1.0}), StagePlan(2, 8, {"beta": 1.0})),
        )
        path = tmp_path / "toy.json"
        save_conditions([cond], path)
        return str(path)

    def test_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        code, stdout, _ = cli(
            capsys,
            "manifest",
            "--schedule", self.schedule(tmp_path),
            "--registry", self.registry_file(tmp_path),
            "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "wrote 12 events" in stdout
        assert len(out.read_text().splitlines()) == 13

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        schedule = self.schedule(tmp_path)
        registry = self.registry_file(tmp_path)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for dest in (first, second):
            assert (
                run(
                    ["manifest", "--schedule", schedule, "--registry", registry,
                     "--seed", "3", "--out", str(dest)]
                )
                == 0
            )
        assert first.read_bytes() == second.read_bytes()

    def test_seed_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["manifest", "--schedule", self.schedule(tmp_path), "--out", str(tmp_path / "m.jsonl")])
        assert exc.value.code == 2

    def test_needs_exactly_one_condition(self, schedule_file, tmp_path, capsys):
        code, _, err = cli(
            capsys, "manifest", "--schedule", schedule_file, "--seed", "1",
            "--out", str(tmp_path / "m.jsonl"),
        )
        assert code == 2
        assert "exactly one condition" in err


class TestAnalyze:
    def test_stability_report(self, loss_log, capsys):
        code, out, _ = cli(capsys, "analyze", "--trace", loss_log)
        assert code == 0
        assert "spike frequency" in out
        assert "stage 1->2" in out

    def test_data_format(self, loss_log, capsys):
        code, out, _ = cli(capsys, "analyze", "--trace", loss_log, "--format", "data")
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == 50
        assert payload["windows_tested"] == 551
        assert payload["transition_stability"] is not None
        assert payload["transitions"][0]["from_stage"] == 1

    def test_window_larger_than_trace(self, loss_log, capsys):
        code, _, err = cli(capsys, "analyze", "--trace", loss_log, "--window", "10000")
        assert code == 2
        assert "exceeds the trace length" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = cli(capsys, "analyze", "--trace", str(tmp_path / "nope.jsonl"))
        assert code == 3
        assert "error" in err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        code, _, err = cli(capsys, "analyze", "--trace", str(path))
        assert code == 3

    def test_invalid_trace_content(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step":5,"stage":1,"loss":1.0}\n{"step":5,"stage":1,"loss":0.9}\n')
        code, _, err = cli(capsys, "analyze", "--trace", str(path), "--window", "2")
        assert code == 1


class TestMetrics:
    def test_aggregate_last_snapshot(self, eval_log, capsys):
        code, out, _ = cli(
            capsys, "metrics", "aggregate", "--evals", eval_log("A"), "--format", "data"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "step": 500,
            "general": "72.1",
            "reasoning": "73.0",
            "detail": "71.1",
            "overall": "72.06",
        }

    def test_aggregate_unknown_step(self, eval_log, capsys):
        code, _, err = cli(
            capsys, "metrics", "aggregate", "--evals", eval_log("A"), "--step", "123"
        )
        assert code == 2
        assert "123" in err

    def test_aggregate_partial_snapshot(self, tmp_path, capsys):
        path = tmp_path / "partial.jsonl"
        path.write_text('{"step":1,"task":"AI2D","score":50.0}\n')
        code, _, err = cli(capsys, "metrics", "aggregate", "--evals", str(path))
        assert code == 1
        assert "partial" in err

    def test_compare_table_and_csv(self, eval_log, tmp_path, capsys):
        csv_path = tmp_path / "cmp.csv"
        code, out, _ = cli(
            capsys,
            "metrics", "compare",
            *[f"{cid}={eval_log(cid)}" for cid in "ABCD"],
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "best in column" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("condition,General-Val")
        assert len(lines) == 5

    def test_compare_bad_run_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["metrics", "compare", "just-a-path.jsonl"])
        assert exc.value.code == 2

    def test_trajectory(self, eval_log, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        code, out, _ = cli(
            capsys,
            "metrics", "trajectory",
            "--evals", eval_log("B", steps=(100, 200, 300)),
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,general,reasoning,detail,overall"
        assert len(lines) == 4

    def test_convergence(self, eval_log, capsys):
        code, out, _ = cli(
            capsys, "metrics", "convergence", "--evals", eval_log("C", steps=(100, 200))
        )
        assert code == 0
        assert out.startswith("convergence step: 100")

    def test_convergence_fraction_domain(self, eval_log, capsys):
        code, _, err = cli(
            capsys, "metrics", "convergence", "--evals", eval_log("C"), "--fraction", "0"
        )
        assert code == 2
        assert "fraction" in err


class TestSimulate:
    def test_loss_requires_seed_for_noise(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(NOISY_SPEC))
        code, _, err = cli(
            capsys, "simulate", "loss", "--spec", str(spec), "--out", str(tmp_path / "l.jsonl")
        )
        assert code == 2
        assert "seed" in err

    def test_loss_with_truth(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(NOISY_SPEC))
        out = tmp_path / "loss.jsonl"
        truth = tmp_path / "truth.json"
        code, stdout, _ = cli(
            capsys,
            "simulate", "loss", "--spec", str(spec), "--seed", "9",
            "--out", str(out), "--truth", str(truth),
        )
        assert code == 0
        assert "wrote 400 loss records" in stdout
        assert json.loads(truth.read_text())["injected_steps"] == [200]

    def test_loss_rerun_is_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(NOISY_SPEC))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for dest in (first, second):
            assert (
                run(["simulate", "loss", "--spec", str(spec), "--seed", "4", "--out", str(dest)]) == 0
            )
        assert first.read_bytes() == second.read_bytes()

    def test_capability_noiseless(self, tmp_path, capsys):
        out = tmp_path / "evals.jsonl"
        truth = tmp_path / "truth.json"
        code, stdout, _ = cli(
            capsys,
            "simulate", "capability",
            "--condition", "B", "--steps", "10,100,100",
            "--out", str(out), "--truth", str(truth),
        )
        assert code == 0
        assert out.exists()
        finals = json.loads(truth.read_text())["final_scores"]
        last = [json.loads(line) for line in out.read_text().splitlines()][-5:]
        assert {r["task"]: str(Decimal(str(r["score"])).quantize(Decimal("0.1"))) for r in last} == finals

    def test_capability_rerun_is_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "cap.json"
        spec.write_text(json.dumps({"model": {"noise": 0.5}, "seed": 12}))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for dest in (first, second):
            assert (
                run(
                    ["simulate", "capability", "--condition", "C", "--steps", "10,50,50",
                     "--spec", str(spec), "--out", str(dest)]
                )
                == 0
            )
        assert first.read_bytes() == second.read_bytes()

    def test_capability_requires_seed_for_noise(self, tmp_path, capsys):
        spec = tmp_path / "cap.json"
        spec.write_text(json.dumps({"model": {"noise": 0.5}}))
        code, _, err = cli(
            capsys,
            "simulate", "capability", "--condition", "C", "--steps", "10,50,50",
            "--spec", str(spec), "--out", str(tmp_path / "e.jsonl"),
        )
        assert code == 2
        assert "seed" in err


class TestHelp:
    def help_text(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_top_level_lists_commands(self, capsys):
        out = self.help_text(capsys)
        for command in ("validate", "exposure", "manifest", "analyze", "metrics", "simulate"):
            assert command in out

    def test_analyze_documents_default_window(self, capsys):
        # argparse may wrap between "(default:" and the value
        flat = " ".join(self.help_text(capsys, "analyze").split())
        assert "(default: 50)" in flat

    def test_exposure_documents_default_threshold(self, capsys):
        flat = " ".join(self.help_text(capsys, "exposure").split())
        assert "(default: 0.10)" in flat


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["stagemix", "stagemix.cli"])
    def test_module_runs_the_cli(self, module):
        result = stagemix_process(module=module)
        assert result.returncode == 2
        assert result.stderr.startswith("usage: stagemix")
        assert result.stdout == ""


class TestHostileInput:
    """Out-of-range and wrongly shaped numbers are parse errors: exit 3, no traceback."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("log.jsonl", '{"step":1e30,"stage":1,"loss":1.0}\n'),
            ("log.jsonl", '{"step":1,"stage":1,"loss":[1,2]}\n{"step":2,"stage":1,"loss":[3,4]}\n'),
            ("log.csv", "step,loss\n1" + "0" * 30 + ",1.0\n"),
        ],
    )
    def test_loss_log(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        (tmp_path / "log.stages.json").write_text('{"boundaries": [{"stage": 1, "start_step": 0}]}')
        result = stagemix_process("analyze", "--trace", str(path), "--window", "1")
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {path}")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("field", ["step", "loss"])
    @pytest.mark.parametrize(
        "token", [b"01", b"1.", b".5", b"+1", b"1e", b"-", b"true", b'"3.5"', b"1\xff"]
    )
    def test_hostile_token_in_canonical_position(self, tmp_path, field, token):
        record = {"step": b"1", "stage": b"1", "loss": b"2.5"}
        record[field] = token
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"step":0,"stage":1,"loss":3.0}\n{"step":%s,"stage":%s,"loss":%s}\n' % tuple(record.values()))
        result = stagemix_process("analyze", "--trace", str(path), "--window", "1")
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {path}")
        assert "Traceback" not in result.stderr

    def test_nan_loss_is_a_rule_violation(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"step":0,"stage":1,"loss":3.0}\n{"step":1,"stage":1,"loss":NaN}\n')
        result = stagemix_process("analyze", "--trace", str(path), "--window", "1")
        assert result.returncode == 1
        assert "not finite" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("fmt", ["text", "data"])
    def test_losses_past_the_default_decimal_precision(self, tmp_path, capsys, fmt):
        path = tmp_path / "log.jsonl"
        path.write_text("".join('{"step":%d,"stage":1,"loss":%r}\n' % (i, (1e25, 3e25)[i % 2]) for i in range(100)))
        code, out, err = cli(capsys, "analyze", "--trace", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "text":
            assert "loss std: 1" + "0" * 25 + ".000" in out
        else:
            assert json.loads(out, parse_constant=pytest.fail)["loss_std"] == 1e25

    @pytest.mark.parametrize("fmt", ["text", "data"])
    def test_losses_too_large_to_summarize(self, tmp_path, fmt):
        path = tmp_path / "log.jsonl"
        path.write_text("".join('{"step":%d,"stage":1,"loss":%r}\n' % (i, (1e308, 1.7e308)[i % 2]) for i in range(100)))
        result = stagemix_process("analyze", "--trace", str(path), "--window", "10", "--format", fmt)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: losses are too large to summarize: a loss statistic overflows float64\n"

    def test_data_reports_are_strict_json(self, tmp_path):
        out = tmp_path / "report.json"
        args = type("Args", (), {"format": "data", "out": str(out)})
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit(args, "", {"loss_std": float("nan")})
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["loss"], '{"stages": [{"steps": 1e400, "amplitude": 3.0, "tau": 100.0}]}'),
            (
                ["loss"],
                '{"stages": [{"steps": 10, "amplitude": 3.0, "tau": 100.0}],'
                ' "injections": [{"step": 1e400, "multiplier": 2.0}]}',
            ),
            (["capability", "--condition", "C", "--steps", "10,50,50"], '{"model": {"eval_interval": 1e400}}'),
            (["loss"], '{"stages": [{"steps": 10.7, "amplitude": 3.0, "tau": 100.0}]}'),
            (["loss"], '{"stages": [{"steps": 10, "amplitude": 3.0, "tau": 100.0}], "seed": -3}'),
            (["loss"], '{"stages": [{"steps": 9223372036854775808, "amplitude": 3.0, "tau": 100.0}]}'),
            (["capability", "--condition", "C", "--steps", "10,50,50"], '{"model": {"eval_interval": true}}'),
            (["capability", "--condition", "C", "--steps", "10,50,50"], '{"model": {"noise": 0.5}, "seed": -3}'),
            (["loss"], '{"stages": [{"steps": 10, "amplitude": 3.0, "tau": 100.0}], "injections": 5}'),
        ],
    )
    def test_simulation_spec(self, tmp_path, argv, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        result = stagemix_process(
            "simulate", *argv, "--spec", str(path), "--seed", "1", "--out", str(tmp_path / "out.jsonl")
        )
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {path}")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [["validate"], ["exposure"], ["simulate", "capability", "--out", "out.jsonl"]])
    @pytest.mark.parametrize(
        "steps, probability",
        [("1" + "0" * 400, "1.0"), ("10", "1" + "0" * 400), ("10.5", "1.0"), ("true", "1.0"), ("10", '"1"')],
        ids=["steps-10**400", "probability-10**400", "steps-10.5", "steps-true", "probability-string"],
    )
    def test_schedule_file(self, tmp_path, command, steps, probability):
        path = tmp_path / "schedule.json"
        path.write_text(
            '{"id": "X", "stages": [{"steps": 10, "distribution": {"LLaVA-Pretrain": 1.0}},'
            ' {"steps": %s, "distribution": {"ShareGPT4V": %s}}]}' % (steps, probability)
        )
        command = [str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in command]
        result = stagemix_process(*command, "--schedule", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {path}: condition 'X': stage at position 2")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("size", ["true", "5.0", '"5"', "1" + "0" * 30])
    def test_registry_file(self, tmp_path, size):
        path = tmp_path / "registry.json"
        path.write_text('{"datasets": [{"name": "LLaVA-Pretrain", "group": "D0-alignment", "size": %s}]}' % size)
        result = stagemix_process("validate", "--condition", "A", "--steps", "1,1,1", "--registry", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {path}: registry entry 1 size must be an integer")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_warn_threshold_must_be_finite(self, threshold):
        result = stagemix_process("exposure", "--condition", "A", "--steps", "1,1,1", "--warn-threshold", threshold)
        assert result.returncode == 2
        assert result.stderr == f"error: warn threshold must be a finite non-negative number, got {float(threshold)!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [["loss", "--spec", "spec.json"], ["capability", "--condition", "A", "--steps", "10,50,50"]],
        ids=["loss", "capability"],
    )
    def test_negative_seed_flag(self, tmp_path, argv):
        (tmp_path / "spec.json").write_text('{"stages": [{"steps": 10, "amplitude": 3.0, "tau": 100.0, "noise": 0.1}]}')
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        result = stagemix_process("simulate", *argv, "--seed", "-2", "--out", str(tmp_path / "out.jsonl"))
        assert result.returncode == 2
        assert result.stderr == "error: seed must be a non-negative integer, got -2\n"
