import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagemix
from stagemix import (
    CapabilityModelSpec,
    DatasetSource,
    EvalSnapshot,
    LossTrace,
    ScheduleCondition,
    StagemixError,
    StagePlan,
    UsageError,
    builtin_condition,
    builtin_registry,
    load_loss_spec,
    save_conditions,
    save_eval_log,
    save_loss_trace,
    save_registry,
    synth_loss,
)
from stagemix import cli as cli_module
from stagemix import formats
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


# Flag texts that int() or float() takes and the JSON rule refuses, and JSON values of other types.
INTEGER_TEXTS = ["1_0", "\u0663", "\uff15", "5.0", "1e3", "true", '"3"']
NUMBER_TEXTS = ["1_0.5", "\u0663.5", "nan", "inf", ".5", "5.", "true", '"0.5"', "1" + "0" * 400]


def stagemix_process(*argv, module="stagemix", preexec_fn=None):
    """Run the CLI in a fresh interpreter, as `python -m MODULE ARGV...`."""
    env = dict(os.environ, PYTHONPATH=str(Path(stagemix.__file__).resolve().parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # BLAS buffers per thread would fill a capped child
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn,
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=_refuse_constant)


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

    def test_a_duplicate_id_in_a_schedule_file_takes_every_condition_of_it(self, tmp_path, capsys):
        """`--condition A` picks each of the file's conditions with id A, in file order, none dropped."""
        broken = ScheduleCondition(
            id="A",
            stages=(StagePlan(1, 10, {"ShareGPT4V": 1.0}), StagePlan(2, 10, {"ShareGPT4V": 1.0})),
        )
        two_valid, one_broken = tmp_path / "two_valid.json", tmp_path / "one_broken.json"
        save_conditions([builtin_condition("A", (100, 450, 450)), builtin_condition("A", (0, 20, 20))], two_valid)
        save_conditions([builtin_condition("A", (100, 450, 450)), broken], one_broken)
        code, out, _ = cli(capsys, "validate", "--schedule", str(one_broken), "--condition", "A")
        assert code == 1
        assert out.startswith("condition A: OK (violations: none)\ncondition A: ")
        code, out, _ = cli(capsys, "exposure", "--schedule", str(two_valid), "--condition", "A", "--format", "data")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(row["condition"], row["post_alignment_steps"]) for row in rows] == [("A", 900), ("A", 40)]
        manifest = tmp_path / "m.jsonl"
        code, out, err = cli(
            capsys, "manifest", "--schedule", str(two_valid), "--condition", "A", "--seed", "1", "--out", str(manifest)
        )
        assert (code, out) == (2, "")
        assert err == "error: manifest generation needs exactly one condition, got 2; pick one with --condition\n"
        assert not manifest.exists()

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

    @pytest.mark.parametrize("ids", [("B", "A"), ("A", "A")])
    def test_schedule_selection_follows_the_flags(self, schedule_file, capsys, ids):
        """With --schedule as without it: conditions in flag order, repeats kept."""
        flags = [arg for cond_id in ids for arg in ("--condition", cond_id)]
        code, from_file, _ = cli(capsys, "exposure", "--schedule", schedule_file, *flags, "--format", "data")
        assert code == 0
        assert [row["condition"] for row in json.loads(from_file)["rows"]] == list(ids)
        assert cli(capsys, "exposure", *flags, "--steps", "100,450,450", "--format", "data") == (0, from_file, "")

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

    @pytest.mark.parametrize("ids", [("A", "B"), ("A", "A")], ids=["A-B", "A-A"])
    @pytest.mark.parametrize("with_schedule", [False, True], ids=["builtin", "schedule"])
    def test_a_repeated_condition_is_refused(self, schedule_file, tmp_path, capsys, with_schedule, ids):
        out = tmp_path / "m.jsonl"
        source = ["--schedule", schedule_file] if with_schedule else ["--steps", "100,450,450"]
        code, stdout, err = cli(
            capsys, "manifest", *source, "--condition", ids[0], "--condition", ids[1], "--seed", "1",
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == "error: manifest generation needs exactly one condition, got 2; pick one with --condition\n"
        assert not out.exists()


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

    def test_simulated_zero_loss_at_a_boundary(self, tmp_path, capsys):
        # noise clips the loss to 0 at step 1999, the last step of stage 1
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "stages": [
                {"steps": 2000, "amplitude": 1.0, "tau": 300.0, "noise": 0.02},
                {"steps": 3000, "amplitude": 0.5, "tau": 500.0, "noise": 0.02},
            ],
            "injections": [{"step": 2500, "multiplier": 3.0}],
        }))
        log = tmp_path / "loss.jsonl"
        assert run(["simulate", "loss", "--spec", str(spec), "--seed", "4", "--out", str(log)]) == 0
        assert '{"step":1999,"stage":1,"loss":0.0}' in log.read_text()
        code, out, err = cli(capsys, "analyze", "--trace", str(log), "--window", "50")
        assert (code, err) == (0, "")
        assert "transition stability: undefined (every boundary has loss 0 before it)" in out
        assert "stage 1->2: steps 1999->2000, loss 0->" in out and "ratio undefined (loss 0 before the boundary)" in out
        assert "spike frequency: " in out
        code, out, err = cli(capsys, "analyze", "--trace", str(log), "--window", "50", "--format", "data")
        payload = json.loads(out)
        assert (code, payload["transition_stability"], payload["transitions"][0]["ratio"]) == (0, None, None)
        assert payload["windows_tested"] == 5000 - 50 + 1


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

    def test_loss_clamped_to_zero_prints_as_repr(self, tmp_path, capsys):
        # noise ten times the curve drives about half the losses below 0, where they are clamped to 0.0
        stage = {"steps": 40_000, "amplitude": 0.1, "tau": 1000.0, "noise": 1.0}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [stage, stage]}))
        out = tmp_path / "loss.jsonl"
        code, stdout, err = cli(capsys, "simulate", "loss", "--spec", str(spec), "--seed", "5", "--out", str(out))
        assert (code, stdout, err) == (0, f"wrote 80000 loss records to {out}\n", "")
        trace = synth_loss(load_loss_spec(spec), seed=5).trace
        assert (trace.losses == 0.0).sum() > 30_000
        records = zip(trace.steps.tolist(), trace.stages.tolist(), trace.losses.tolist())
        template = "".join('{"step":%d,"stage":%d,"loss":%r}\n' % record for record in records)
        assert out.read_bytes() == template.encode()

    def test_loss_truth_ratio_is_null_where_analyze_reports_none(self, tmp_path, capsys):
        # the noiseless curve of stage 1 decays to exactly 0 before the boundary
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [
            {"index": 1, "steps": 2000, "amplitude": 1.0, "tau": 1.0},
            {"index": 2, "steps": 100, "amplitude": 1.0, "tau": 50.0},
        ]}))
        log, truth = tmp_path / "loss.jsonl", tmp_path / "truth.json"
        code, _, err = cli(capsys, "simulate", "loss", "--spec", str(spec), "--out", str(log), "--truth", str(truth))
        assert (code, err) == (0, "")
        true = strict_json(truth.read_text())["true_transitions"]
        assert true == [{"from_stage": 1, "to_stage": 2, "ratio": None}]
        code, out, err = cli(capsys, "analyze", "--trace", str(log), "--format", "data")
        assert (code, err) == (0, "")
        measured = json.loads(out)["transitions"]
        assert [{key: t[key] for key in ("from_stage", "to_stage", "ratio")} for t in measured] == true

    def test_loss_refuses_a_truth_ratio_that_overflows(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [
            {"index": 1, "steps": 1, "amplitude": 5e-324, "tau": 1.0},
            {"index": 2, "steps": 3, "amplitude": 1.0, "tau": 1.0},
        ]}))
        out, truth = tmp_path / "loss.jsonl", tmp_path / "truth.json"
        code, stdout, err = cli(capsys, "simulate", "loss", "--spec", str(spec), "--out", str(out), "--truth", str(truth))
        assert (code, stdout, err) == (1, "", "error: the stage 1->2 transition ratio overflows float64\n")
        assert sorted(tmp_path.iterdir()) == [spec]

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

    def test_capability_refuses_a_repeated_condition(self, tmp_path, capsys):
        out = tmp_path / "evals.jsonl"
        code, stdout, err = cli(
            capsys, "simulate", "capability", "--condition", "A", "--condition", "B", "--steps", "100,450,450",
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == "error: capability simulation needs exactly one condition, got 2; pick one with --condition\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("fmt", ["text", "data"])
    def test_overflowed_window_is_not_read_as_flat(self, tmp_path, fmt):
        path = tmp_path / "log.jsonl"
        losses = [-8.26e153] + [0.0] * 7 + [1.0] * 4
        path.write_text("".join('{"step":%d,"stage":1,"loss":%r}\n' % (i, loss) for i, loss in enumerate(losses)))
        result = stagemix_process("analyze", "--trace", str(path), "--window", "8", "--format", fmt)
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

    @pytest.mark.parametrize("threshold", ["NaN", "1e400"])
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

    @pytest.mark.parametrize(
        "flag, argv, values",
        [
            ("--seed", ["manifest", "--condition", "A", "--steps", "1,1,1", "--out", "m.jsonl"], INTEGER_TEXTS),
            ("--seed", ["simulate", "loss", "--spec", "spec.json", "--out", "m.jsonl"], INTEGER_TEXTS),
            ("--seed", ["simulate", "capability", "--condition", "A", "--steps", "1,1,1", "--out", "e.jsonl"],
             INTEGER_TEXTS),
            ("--steps", ["validate", "--condition", "A"], [f"1,{text},1" for text in INTEGER_TEXTS]),
            ("--window", ["analyze", "--trace", "loss.jsonl"], INTEGER_TEXTS),
            ("--spike-window", ["analyze", "--trace", "loss.jsonl"], INTEGER_TEXTS),
            ("--step", ["metrics", "aggregate", "--evals", "evals.jsonl"], INTEGER_TEXTS),
            ("--warn-threshold", ["exposure", "--condition", "A", "--steps", "1,1,1"], NUMBER_TEXTS),
            ("--fraction", ["metrics", "convergence", "--evals", "evals.jsonl"], NUMBER_TEXTS),
        ],
        ids=["manifest-seed", "loss-seed", "capability-seed", "steps", "window", "spike-window", "step",
             "warn-threshold", "fraction"],
    )
    def test_flag_values_follow_the_json_rule(self, tmp_path, capsys, flag, argv, values):
        # text that int() or float() would take, but that is not a JSON integer or number: a usage error
        argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]
        for text in values:
            with pytest.raises(SystemExit) as exc:
                run([*argv, flag, text])
            assert exc.value.code == 2
            assert f"argument {flag}: expected " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestJsonInput:
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (["validate", "--schedule"], "schedule.json", '{"conditions": %s}' % DEEP),
            (["analyze", "--trace"], "loss.jsonl", DEEP + "\n"),
            (["metrics", "aggregate", "--evals"], "evals.jsonl", DEEP + "\n"),
        ],
        ids=["validate", "analyze", "aggregate"],
    )
    def test_nesting_too_deep_to_parse_exits_three(self, tmp_path, argv, name, text):
        path = tmp_path / name
        path.write_text(text)
        result = stagemix_process(*argv, str(path))
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith(f"error: {path}: ") and result.stderr.count("\n") == 1
        assert "maximum recursion depth" in result.stderr

    def test_a_transition_ratio_that_overflows_is_named(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('{"step":0,"stage":1,"loss":5e-324}\n{"step":1,"stage":2,"loss":1.0}\n')
        code, out, err = cli(capsys, "analyze", "--trace", str(path), "--window", "1")
        assert (code, out, err) == (1, "", "error: the stage 1->2 transition ratio overflows float64\n")

    def test_a_tiny_tau_simulates_without_warnings(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"stages": [{"steps": 3, "amplitude": 2.0, "tau": 1e-320}]}')
        out = tmp_path / "loss.jsonl"
        result = stagemix_process("simulate", "loss", "--spec", str(spec), "--out", str(out))
        assert (result.returncode, result.stderr) == (0, "")
        assert [json.loads(line)["loss"] for line in out.read_text().splitlines()] == [2.0, 0.0, 0.0]


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _cap_address_space():
    """Limit a child process to 1 GiB of address space, so that a huge allocation fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def source_line(function, text: str) -> int:
    """The number of the first line of function's source that holds text."""
    lines, first = inspect.getsourcelines(function)
    return first + next(i for i, line in enumerate(lines) if text in line)


class TestExitCodes:
    """Each error family carries its exit code; anything else is a toolkit bug: exit 70, one line."""

    def test_usage_error_is_a_value_error_and_a_toolkit_error(self):
        assert "UsageError" in stagemix.__all__
        assert issubclass(UsageError, ValueError) and issubclass(UsageError, StagemixError)
        families = (stagemix.ValidationError, UsageError, stagemix.FormatError, StagemixError)
        assert [family.exit_code for family in families] == [1, 2, 3, 70]

    @pytest.mark.parametrize(
        "error, line",
        [
            (ValueError("boom"), "internal error: ValueError: boom at cli.py:{}\n"),
            (KeyError("x"), "internal error: KeyError: 'x' at cli.py:{}\n"),
            (MemoryError(), "internal error: MemoryError at cli.py:{}\n"),
        ],
        ids=["ValueError", "KeyError", "empty message"],
    )
    def test_any_other_exception_is_an_internal_error(self, monkeypatch, capsys, error, line):
        def fail(args):
            raise error

        monkeypatch.setattr(cli_module, "_cmd_validate", fail)
        line = line.format(source_line(run, "args.func(args)"))  # the last toolkit line: the call of fail
        assert cli(capsys, "validate", "--condition", "A", "--steps", "1,1,1") == (70, "", line)

    def test_an_internal_error_names_the_toolkit_line_not_the_library_line(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("{}")
        monkeypatch.setattr(formats, "_read_text", lambda path: None)  # so that formats calls json.loads(None)
        line = source_line(formats._parse, "return json.loads(text)")
        message = "the JSON object must be str, bytes or bytearray, not NoneType"
        want = f"internal error: TypeError: {message} at formats.py:{line}\n"
        assert cli(capsys, "validate", "--schedule", str(path)) == (70, "", want)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["manifest", "--condition", "B", "--steps", "1,100000000000,1", "--seed", "1", "--out", "m.jsonl"],
                "100000000002 manifest steps need about 2980.2 GiB of memory",
            ),
            (
                ["simulate", "capability", "--condition", "B", "--steps", "1,9000000000000000000,1", "--out", "e.jsonl"],
                "90000000000000001 evaluation snapshots need about 85830688476.6 GiB of memory",
            ),
            (
                ["simulate", "loss", "--spec", "spec.json", "--out", "loss.jsonl"],
                "10000000000000 simulated loss steps need about 372529.0 GiB of memory",
            ),
        ],
        ids=["manifest", "capability", "loss"],
    )
    def test_an_impossible_budget_is_a_usage_error(self, tmp_path, argv, message):
        """A budget whose arrays cannot fit in the machine is refused before anything is allocated.
        Never run these without the cap: should the check fail, they would fill the machine."""
        (tmp_path / "spec.json").write_text('{"stages": [{"steps": 10000000000000, "amplitude": 1.0, "tau": 10.0}]}')
        argv = [str(tmp_path / arg) if arg.endswith((".json", ".jsonl")) else arg for arg in argv]
        result = stagemix_process(*argv, preexec_fn=_cap_address_space)
        assert (result.returncode, result.stdout) == (2, "")
        assert re.fullmatch(f"error: {message}, more than this machine's [0-9.]+ GiB\n", result.stderr)
        assert not any(tmp_path.glob("*.jsonl"))

    @pytest.mark.skipif(_physical_memory() < 6 << 30, reason="a budget that fits the machine fits the cap too")
    @pytest.mark.parametrize(
        "argv",
        [
            ["manifest", "--condition", "B", "--steps", "1,{steps},1", "--seed", "1", "--out", "m.jsonl"],
            ["simulate", "loss", "--spec", "spec.json", "--out", "loss.jsonl"],
        ],
        ids=["manifest", "loss"],
    )
    def test_an_oversized_budget_is_one_internal_error_line(self, tmp_path, argv):
        """Out of memory is no user error: a budget that fits the machine, at 32 or 40 bytes a step, but not the
        process's 1 GiB. Never run these without the cap: they would fill the machine."""
        steps = _physical_memory() // 64
        (tmp_path / "spec.json").write_text('{"stages": [{"steps": %d, "amplitude": 1.0, "tau": 10.0}]}' % steps)
        argv = [str(tmp_path / arg) if arg.endswith((".json", ".jsonl")) else arg.format(steps=steps) for arg in argv]
        result = stagemix_process(*argv, preexec_fn=_cap_address_space)
        assert (result.returncode, result.stdout) == (70, "")
        assert re.fullmatch(r"internal error: \w*MemoryError(: [^\n]+)? at \w+\.py:\d+\n", result.stderr)


def _fuzz_documents(tmp_path):
    """A small valid file of each kind the CLI reads, and the commands that read it."""
    log = tmp_path / "log.jsonl"
    stages = np.repeat([1, 2], 6)
    losses = 3.0 - np.arange(12) / 8 + (stages == 2) * 0.5
    save_loss_trace(LossTrace(np.arange(12), stages, losses), log)
    csv_log, sidecar = tmp_path / "log.csv", tmp_path / "log.stages.json"
    csv_log.write_text("step,loss\n" + "".join(f"{step},{loss!r}\n" for step, loss in enumerate(losses.tolist())))
    sidecar.write_text(json.dumps({"boundaries": [{"stage": 1, "start_step": 0}, {"stage": 2, "start_step": 6}]}))
    evals = tmp_path / "evals.jsonl"
    scores = {task: Decimal(value) for task, value in FINAL_SCORES["B"].items()}
    save_eval_log([EvalSnapshot(step=step, scores=scores) for step in (10, 20)], evals)
    spec = tmp_path / "spec.json"
    stage = {"steps": 10, "amplitude": 2.5, "tau": 20.0, "noise": 0.1}
    spec.write_text(json.dumps({"stages": [stage, stage], "injections": [{"step": 5, "multiplier": 2.0}]}))
    capability = tmp_path / "capability.json"
    model = CapabilityModelSpec(scale=50.0, noise=0.5, eval_interval=5)
    capability.write_text(json.dumps({"model": dataclasses.asdict(model), "seed": 3}, indent=2))
    schedule = tmp_path / "schedule.json"
    save_conditions([builtin_condition("B", (10, 20, 20))], schedule)
    registry = tmp_path / "registry.json"
    save_registry(builtin_registry(), registry)
    out = str(tmp_path / "out.jsonl")
    data = ("--format", "data")
    builtin = ("--condition", "A", "--steps", "1,1,1", "--registry", str(registry))
    return {
        log: [("analyze", "--trace", str(log), "--window", "2", *data)],
        csv_log: [("analyze", "--trace", str(csv_log), "--window", "2", *data)],
        sidecar: [("analyze", "--trace", str(csv_log), "--window", "2", *data)],
        evals: [
            ("metrics", "aggregate", "--evals", str(evals), *data),
            ("metrics", "trajectory", "--evals", str(evals), *data),
            ("metrics", "convergence", "--evals", str(evals), *data),
            ("metrics", "compare", f"B={evals}", *data),
        ],
        spec: [("simulate", "loss", "--spec", str(spec), "--seed", "1", "--out", out)],
        capability: [("simulate", "capability", "--condition", "B", "--steps", "10,20,20", "--spec", str(capability),
                      "--out", out)],
        schedule: [
            ("validate", "--schedule", str(schedule)),
            ("exposure", "--schedule", str(schedule), *data),
            ("manifest", "--schedule", str(schedule), "--seed", "1", "--out", out),
            ("simulate", "capability", "--schedule", str(schedule), "--seed", "1", "--out", out),
        ],
        registry: [("validate", *builtin), ("exposure", *builtin, *data)],
    }


# Each edit puts a token or one random byte at a position, in place of as many bytes or of a
# whole number, or deletes that many bytes. Three edits add at most three digits to a step
# budget of 10, so no run is large.
_TOKENS = [b"1e400", b"-0.0", b"5e-324", b"\xff", b"\r", b"0", b"-1", b"1e308"]
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 1 << 16),
        st.sampled_from(["insert", "replace", "delete", "number"]),
        st.one_of(st.sampled_from(_TOKENS), st.binary(min_size=1, max_size=1)),
    ),
    min_size=1,
    max_size=3,
)
_NUMBER = re.compile(rb"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _mutate(text: bytes, edits) -> bytes:
    for at, kind, token in edits:
        numbers = list(_NUMBER.finditer(text))
        if kind == "number" and numbers:
            start, end = numbers[at % len(numbers)].span()
        else:
            start = at % (len(text) + 1)
            end = start if kind == "insert" else start + len(token)
        text = text[:start] + (b"" if kind == "delete" else token) + text[end:]
    return text


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_mutated_input_file_exits_with_a_documented_code(tmp_path_factory, data):
    """Mutated loss logs (JSONL, and CSV with their stage sidecar), eval logs, loss and capability
    specs, schedules and registries: exit 0-3, at most one stderr line and no warning, and a data
    report that is strict JSON."""
    documents = _fuzz_documents(tmp_path_factory.mktemp("fuzz"))
    path = data.draw(st.sampled_from(sorted(documents)), label="file")
    argv = data.draw(st.sampled_from(documents[path]), label="argv")
    path.write_bytes(_mutate(path.read_bytes(), data.draw(_EDITS, label="edits")))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(stderr):
            code = run(list(argv))
    assert code in (0, 1, 2, 3), stderr.getvalue()
    assert stderr.getvalue().count("\n") <= 1 and "Traceback" not in stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0 and "data" in argv:
        strict_json(stdout.getvalue())
