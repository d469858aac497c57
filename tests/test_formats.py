import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagemix import (
    EvalDataError,
    EvalSnapshot,
    FormatError,
    LossTrace,
    Manifest,
    StagemixError,
    TraceError,
    builtin_condition,
    builtin_registry,
    comparison,
    generate_manifest,
    load_capability_spec,
    load_conditions,
    load_eval_log,
    load_loss_spec,
    load_loss_trace,
    load_registry,
    read_comparison_csv,
    read_manifest,
    read_manifest_header,
    read_trajectory_csv,
    save_conditions,
    save_eval_log,
    save_loss_trace,
    save_registry,
    trajectory,
    write_comparison_csv,
    write_manifest,
    write_trajectory_csv,
)
from stagemix import DatasetSource, ScheduleCondition, StagePlan, formats, threads
from stagemix.formats import (
    _BLOCK_ROWS,
    EVENT_COLUMNS,
    LOSS_COLUMNS,
    _decode,
    _jsonl_block,
    _jsonl_columns,
    _jsonl_objects,
    _lines,
    _object_columns,
)
from fixtures_data import FINAL_SCORES

# small registry keeps manifest fixtures fast
SMALL_REGISTRY = (
    DatasetSource("alpha", "D0-alignment", 5),
    DatasetSource("beta", "D1-general", 4),
    DatasetSource("gamma", "D2-reasoning", 3),
)
SMALL_CONDITION = ScheduleCondition(
    id="toy",
    stages=(
        StagePlan(1, 4, {"alpha": 1.0}),
        StagePlan(2, 8, {"beta": 0.75, "gamma": 0.25}),
    ),
)


def make_trace(losses, stages=None):
    n = len(losses)
    return LossTrace(
        steps=np.arange(n, dtype=np.int64),
        stages=np.array(stages if stages is not None else [1] * n, dtype=np.int64),
        losses=np.array(losses, dtype=np.float64),
    )


class TestScheduleFiles:
    def test_condition_list_round_trip(self, tmp_path):
        conds = [builtin_condition(i, (100, 450, 450)) for i in "ABCD"]
        path = tmp_path / "schedule.json"
        save_conditions(conds, path)
        assert load_conditions(path) == conds

    def test_single_condition_object_accepted(self, tmp_path):
        cond = builtin_condition("B", (10, 20, 30))
        path = tmp_path / "one.json"
        save_conditions([cond], path)
        inner = json.loads(path.read_text())["conditions"][0]
        path.write_text(json.dumps(inner))
        assert load_conditions(path) == [cond]

    def test_rewrite_is_byte_identical(self, tmp_path):
        conds = [builtin_condition("A", (1, 2, 3))]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_conditions(conds, first)
        save_conditions(conds, second)
        assert first.read_bytes() == second.read_bytes()

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_conditions(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(FormatError, match="conditions"):
            load_conditions(path)

    def test_registry_round_trip(self, tmp_path):
        path = tmp_path / "registry.json"
        save_registry(builtin_registry(), path)
        assert load_registry(path) == builtin_registry()

    def test_registry_bare_list_accepted(self, tmp_path):
        path = tmp_path / "registry.json"
        save_registry(SMALL_REGISTRY, path)
        bare = json.loads(path.read_text())["datasets"]
        path.write_text(json.dumps(bare))
        assert load_registry(path) == SMALL_REGISTRY


class TestManifestFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=7)
        first = tmp_path / "run.jsonl"
        write_manifest(manifest, first)
        second = tmp_path / "again.jsonl"
        write_manifest(read_manifest(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_survives_round_trip(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=9)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        header = read_manifest_header(path)
        assert header["condition"] == "toy"
        assert header["seed"] == 9
        assert header["stage_steps"] == {"1": 4, "2": 8}
        loaded = read_manifest(path)
        assert loaded.registry_digest == manifest.registry_digest
        assert loaded.generator == manifest.generator

    def test_events_survive_round_trip(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        assert list(read_manifest(path).events()) == list(manifest.events())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(FormatError, match="empty file"):
            read_manifest(path)

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"step":0,"stage":1,"dataset":"alpha","instance":0}\n')
        with pytest.raises(FormatError, match="header"):
            read_manifest(path)

    def test_missing_header_field(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["registry_digest"]
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="registry_digest"):
            read_manifest(path)

    def test_malformed_event_line(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        lines = path.read_text().splitlines()
        lines[1] = '{"step":0}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="step/stage/dataset/instance"):
            read_manifest(path)


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", "x", "seed must be a non-negative integer, got 'x'"),
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("seed", 2**64, "seed must be a non-negative integer below 2\\*\\*64"),
            ("seed", True, "seed must be a non-negative integer, got True"),
            ("stage_steps", {"1": 4, "2": "three"}, "stage_steps 2 must be a non-negative integer, got 'three'"),
            ("stage_steps", {"1": -4}, "stage_steps 1 must be a non-negative integer, got -4"),
            ("stage_steps", {"1": 4.0}, "stage_steps 1 must be a non-negative integer, got 4.0"),
            ("stage_steps", {"x": 4}, "stage_steps key 'x' is not a stage index"),
            ("stage_steps", {"0": 4}, "stage_steps key '0' is not a stage index"),
            ("stage_steps", {"01": 4}, "stage_steps key '01' is not a stage index"),
            ("stage_steps", {"-1": 4}, "stage_steps key '-1' is not a stage index"),
            ("stage_steps", {"١": 4}, "stage_steps key '١' is not a stage index"),
            ("stage_steps", [4, 8], "stage_steps must be an object"),
        ],
    )
    @pytest.mark.parametrize("read", [read_manifest, read_manifest_header])
    def test_header_fields_are_checked(self, tmp_path, read, field, value, message):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^{path}: manifest header {message}"):
            read(path)


class TestLossTraceFiles:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = make_trace(rng.uniform(0.5, 4.0, size=200), stages=[1] * 120 + [2] * 80)
        path = tmp_path / "loss.jsonl"
        save_loss_trace(trace, path)
        loaded = load_loss_trace(path)
        assert np.array_equal(loaded.losses, trace.losses)
        assert np.array_equal(loaded.steps, trace.steps)
        assert np.array_equal(loaded.stages, trace.stages)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_loss_is_refused_before_writing(self, tmp_path, bad):
        trace = make_trace([1.0, bad, 0.5])
        path = tmp_path / "loss.jsonl"
        with pytest.raises(TraceError, match="not finite"):
            save_loss_trace(trace, path)
        assert not path.exists()

    def test_jsonl_content_is_validated(self, tmp_path):
        path = tmp_path / "loss.jsonl"
        path.write_text(
            '{"step":5,"stage":1,"loss":1.0}\n{"step":5,"stage":1,"loss":0.9}\n'
        )
        with pytest.raises(TraceError, match="increas"):
            load_loss_trace(path)

    def test_jsonl_missing_field(self, tmp_path):
        path = tmp_path / "loss.jsonl"
        path.write_text('{"step":0,"loss":1.0}\n')
        with pytest.raises(FormatError, match="step/stage/loss"):
            load_loss_trace(path)

    def write_csv(self, tmp_path, rows, boundaries, header="step,loss"):
        csv_path = tmp_path / "loss.csv"
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        if boundaries is not None:
            sidecar = tmp_path / "loss.stages.json"
            sidecar.write_text(json.dumps({"boundaries": boundaries}))
        return csv_path

    def test_csv_with_sidecar(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            ["0,2.0", "10,1.8", "20,1.5", "30,1.2"],
            [{"stage": 1, "start_step": 0}, {"stage": 2, "start_step": 20}],
        )
        trace = load_loss_trace(path)
        assert trace.stages.tolist() == [1, 1, 2, 2]
        assert trace.losses.tolist() == [2.0, 1.8, 1.5, 1.2]

    def test_csv_missing_sidecar(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,2.0"], None)
        with pytest.raises(FormatError, match="sidecar"):
            load_loss_trace(path)

    def test_csv_stage_with_no_records(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            ["0,2.0", "10,1.8"],
            [{"stage": 1, "start_step": 0}, {"stage": 2, "start_step": 50}],
        )
        with pytest.raises(TraceError, match="no logged records"):
            load_loss_trace(path)

    def test_csv_records_before_first_stage(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            ["0,2.0", "10,1.8", "20,1.5"],
            [{"stage": 1, "start_step": 10}],
        )
        with pytest.raises(TraceError, match="before the first declared stage"):
            load_loss_trace(path)

    def test_csv_unsorted_boundaries(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            ["0,2.0", "10,1.8"],
            [{"stage": 2, "start_step": 10}, {"stage": 1, "start_step": 0}],
        )
        with pytest.raises(TraceError, match="sorted"):
            load_loss_trace(path)

    def test_csv_bad_header(self, tmp_path):
        path = self.write_csv(
            tmp_path, ["0,2.0"], [{"stage": 1, "start_step": 0}], header="time,value"
        )
        with pytest.raises(FormatError, match="step,loss"):
            load_loss_trace(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1_0,3.5", "row 3 step must be an integer, got '1_0'"),
            ("20,3_5", "row 3 loss must be a number, got '3_5'"),
            ("\u0663\u0663,  2.5", "row 3 step must be an integer, got '\u0663\u0663'"),
        ],
        ids=["underscore-step", "underscore-loss", "arabic-indic-step"],
    )
    def test_csv_cells_follow_the_number_rule(self, tmp_path, row, message):
        # int() and float() would read these as 10, 35.0 and 33
        path = self.write_csv(tmp_path, ["0,2.0", row], [{"stage": 1, "start_step": 0}])
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_loss_trace(path)

    def test_csv_nan_loss_is_a_rule_violation_as_in_jsonl(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,2.0", "10,NaN"], [{"stage": 1, "start_step": 0}])
        with pytest.raises(TraceError, match="not finite"):
            load_loss_trace(path)

    def test_csv_cells_may_have_spaces_around(self, tmp_path):
        rows = [" 0 , 2.5", "10,  1e0 ", "20,3"]
        path = self.write_csv(tmp_path, rows, [{"stage": 1, "start_step": 0}], header=" step , loss ")
        trace = load_loss_trace(path)
        assert (trace.steps.tolist(), trace.losses.tolist()) == ([0, 10, 20], [2.5, 1.0, 3.0])

    def big_csv(self, tmp_path, odd: dict):
        """A CSV of 40,000 rows, over one block of the column parsers, with the rows `odd` replaced."""
        rows = [f"{step},{3 - step / 1e5!r}" for step in range(40_000)]
        for i, row in odd.items():
            rows[i] = row
        return self.write_csv(tmp_path, rows, [{"stage": 1, "start_step": -5}])

    def test_csv_cells_the_column_parsers_leave_are_read_one_by_one(self, tmp_path):
        odd = {
            0: "-5,2.5",  # a negative step
            1: "-4, 2.75\u3000",  # a non-ASCII space around
            36_000: "36000,1234567890123456789012345",  # a 25-digit loss
            39_999: "1000000000000000000, 1.5",  # a 19-digit step
        }
        trace = load_loss_trace(self.big_csv(tmp_path, odd))
        for i, row in odd.items():
            step, loss = (json.loads(cell.strip()) for cell in row.split(","))
            assert (trace.steps[i], trace.losses[i]) == (step, loss)
        assert trace.losses[2:36_000].tolist() == [3 - step / 1e5 for step in range(2, 36_000)]

    def test_csv_names_the_row_of_a_bad_cell_past_the_first_block(self, tmp_path):
        path = self.big_csv(tmp_path, {35_000: "35_000,2.0"})
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: ')}row 35002 step must be an integer"):
            load_loss_trace(path)


def refused_blocks(monkeypatch) -> list:
    """Patches _jsonl_block to note, for each block it is given, whether it refused it."""
    refused = []

    def block(buf, columns):
        part = _jsonl_block(buf, columns)
        refused.append(part is None)
        return part

    monkeypatch.setattr(formats, "_jsonl_block", block)
    return refused


def jsonl_columns(data: bytes, columns, start=0):
    """The columns as _jsonl_columns reads them from data[start:], an open file positioned at start, if
    _jsonl_block accepted every block; None if it refused any, which the general rules then read."""
    handle = io.BytesIO(data)
    handle.seek(start)
    with pytest.MonkeyPatch.context() as patch:
        refused = refused_blocks(patch)
        try:
            got = _jsonl_columns("log.jsonl", handle, columns, data[:start].count(b"\n"))
        except FormatError:
            assert any(refused)  # only the general rules raise, on a block _jsonl_block refused
    return None if any(refused) else got


def general_columns(data: bytes, columns, header=False):
    """The columns as the general rules read the whole text, after its first non-blank line if `header`."""
    lines = _lines(_decode("log.jsonl", data))
    before = next(number for number, line in enumerate(lines, 1) if line.strip()) if header else 0
    lines = lines[before:]
    return _object_columns("log.jsonl", lines, _jsonl_objects("log.jsonl", lines, before), columns, before)


def assert_same_columns(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], tuple):
            assert got[key][0] == want[key][0]
            got_array, want_array = got[key][1], want[key][1]
        else:
            got_array, want_array = got[key], want[key]
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()


# the values every layout below encodes
LAYOUT_STEPS, LAYOUT_STAGES, LAYOUT_LOSSES = [0, 7], [1, 2], [3.5, 0.125]

MUTATED_LOG = b'{"step":0,"stage":1,"loss":3.5}\n{"step":17,"stage":2,"loss":-1e-05}\n{"step":180,"stage":2,"loss":2}\n'
MUTATED_EVENTS = (
    b'{"step":0,"stage":1,"dataset":"a\\u00e9","instance":40}\n'
    b'{"step":1,"stage":1,"dataset":"b","instance":0}\n{"step":2,"stage":2,"dataset":"a\\u00e9","instance":7}\n'
)
MUTATION_BYTES = [bytes([b]) for b in b'0123456789-+.eE ,:"{}[]\n\r\t\\u\x00\x0b\x1c'] + [b"\xff", b"\xc3\xa9", b"NaN", b"true"]

EDGE_FLOATS = [5e-324, 1e-05, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
EDGE_INTS = [0, 10**17, 10**18 - 1, 10**18, 2**63 - 1, -1, -(2**63)]


class TestColumnReader:
    """_jsonl_columns reads the writers' layout; every other layout goes the general way."""

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1)),
                st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, 20)),
                st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_general_path_on_round_tripped_traces(self, records):
        steps, stages, losses = (list(column) for column in zip(*records))
        trace = LossTrace(
            steps=np.array(steps, dtype=np.int64),
            stages=np.array(stages, dtype=np.int64),
            losses=np.array(losses, dtype=np.float64),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "loss.jsonl"
            save_loss_trace(trace, path)
            data = path.read_bytes()
        general = general_columns(data, LOSS_COLUMNS)
        assert_same_columns(general, {"step": trace.steps, "stage": trace.stages, "loss": trace.losses})
        fast = jsonl_columns(data, LOSS_COLUMNS)
        # the column reader takes integers of up to 18 digits without a sign
        assert (fast is not None) == all(0 <= v < 10**18 for v in steps + stages)
        if fast is not None:
            assert_same_columns(fast, general)

    @given(
        st.sampled_from([(LOSS_COLUMNS, MUTATED_LOG), (EVENT_COLUMNS, MUTATED_EVENTS)]),
        st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from(["replace", "insert", "delete"]), st.sampled_from(MUTATION_BYTES)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_whatever_it_accepts_the_general_path_reads_the_same(self, case, edits):
        columns, text = case
        data = bytearray(text)
        for at, how, byte in edits:
            at %= len(data)
            if how == "replace":
                data[at : at + 1] = byte
            elif how == "insert":
                data[at:at] = byte
            else:
                del data[at]
        fast = jsonl_columns(bytes(data), columns)
        if fast is not None:
            assert_same_columns(fast, general_columns(bytes(data), columns))

    @pytest.mark.parametrize(
        "columns, data",
        [
            (LOSS_COLUMNS, b'{"step":0,"stage":1,"loss":3.5]\n'),
            (LOSS_COLUMNS, b'{"step":,"stage":1,"loss":3.5}\n'),
            (LOSS_COLUMNS, b'{"step":0,"stage":1,"loss":3.5}\n3'),
            (EVENT_COLUMNS, b'{"step":0,"stage":1,"dataset":"a"\x00,"instance":0}\n'),
            (EVENT_COLUMNS, b'{"step":0,"stage":1,"dataset":"\xed\xa0\x80","instance":0}\n'),
            (EVENT_COLUMNS, b'{"step":0,"stage":1,"dataset":"a\\","instance":0}\n'),
        ],
        ids=["bracket", "empty-value", "trailing-value", "nul-after-string", "encoded-surrogate", "open-string"],
    )
    def test_near_misses_go_the_general_way(self, columns, data):
        assert jsonl_columns(data, columns) is None
        with pytest.raises(FormatError):
            general_columns(data, columns)

    @pytest.mark.parametrize(
        "text",
        [
            '{"stage":1,"step":0,"loss":3.5}\n{"loss":0.125,"step":7,"stage":2}\n',
            '{"step": 0, "stage": 1, "loss": 3.5}\n{"step":7,"stage":2,"loss":0.125}\n',
            '{"step":0,"stage":1,"loss":3.5}\r\n{"step":7,"stage":2,"loss":0.125}\r\n',
            '{"step":0,"stage":1,"loss":3.5}\r{"step":7,"stage":2,"loss":0.125}\r',
            '\n{"step":0,"stage":1,"loss":3.5}\n\n{"step":7,"stage":2,"loss":0.125}\n\n',
            '{"step":0,"stage":1,"loss":3.5,"lr":0.1}\n{"step":7,"stage":2,"loss":0.125,"lr":0.1}\n',
            '{"step":0,"stage":1,"loss":3.5}\n{"step":7,"stage":2,"loss":0.125}',
            '{"step":0,"stage":1,"loss":35e-1}\n{"step":7,"stage":2,"loss":0.125 }\n',
            '{"step":-0,"stage":1,"loss":3.5}\n{"step":7,"stage":2,"loss":0.125}\n',
        ],
        ids=["reordered", "spaces", "crlf", "cr", "blank-lines", "extra-key", "no-final-newline", "exponent-space", "minus-zero"],
    )
    def test_other_layouts_load_the_same_values(self, tmp_path, text):
        assert jsonl_columns(text.encode(), LOSS_COLUMNS) is None
        path = tmp_path / "loss.jsonl"
        path.write_bytes(text.encode())
        loaded = load_loss_trace(path)
        assert_same_columns(
            {"step": loaded.steps, "stage": loaded.stages, "loss": loaded.losses},
            {
                "step": np.array(LAYOUT_STEPS, dtype=np.int64),
                "stage": np.array(LAYOUT_STAGES, dtype=np.int64),
                "loss": np.array(LAYOUT_LOSSES, dtype=np.float64),
            },
        )

    @pytest.mark.parametrize(
        "columns, line, long_line",
        [
            (LOSS_COLUMNS, '{"step":%d,"stage":1,"loss":0.5}', '{"step":%d,"stage":1,"loss":0.' + "0" * 1000 + "5}"),
            (
                EVENT_COLUMNS,
                '{"step":%d,"stage":1,"dataset":"a","instance":3}',
                '{"step":%d,"stage":1,"dataset":"' + "b" * 1000 + '","instance":3}',
            ),
        ],
        ids=["loss", "dataset"],
    )
    def test_one_long_token_goes_the_general_way(self, columns, line, long_line):
        # an (n, width) token matrix would cost n times the long token's width
        lines = [line % i for i in range(2000)]
        lines[7] = long_line % 7
        data = ("\n".join(lines) + "\n").encode()
        assert jsonl_columns(data, columns) is None
        short = ("\n".join(lines[:7] + lines[8:]) + "\n").encode()
        assert jsonl_columns(short, columns) is not None
        general = general_columns(data, columns)
        assert general["step"].tolist() == list(range(2000))

    def test_a_long_loss_sends_its_block_the_general_way(self, tmp_path):
        # 25 digits are more than the parser's lanes hold: the block that holds the token is refused whole
        lines = ['{"step":%d,"stage":1,"loss":%r}' % (i, 0.5 + i / 7) for i in range(200)]
        lines[7] = '{"step":7,"stage":1,"loss":1234567890123456789012345}'
        data = ("\n".join(lines) + "\n").encode()
        assert jsonl_columns(data, LOSS_COLUMNS) is None
        path = tmp_path / "loss.jsonl"
        path.write_bytes(data)
        got = loaded_columns(load_loss_trace, path)
        assert got["loss"][7:8].tobytes() == np.array([float(json.loads("1234567890123456789012345"))]).tobytes()
        assert_same_columns(got, general_columns(data, LOSS_COLUMNS))

    def test_a_log_of_long_losses_reads_json_values(self, tmp_path):
        # 21 significant digits in 26 or 27 bytes: no token fits the parser's lanes, so the general rules read the log
        rng = np.random.default_rng(5)
        tokens = [b"%.20e" % v for v in rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)]
        data = b"".join(b'{"step":%d,"stage":1,"loss":%s}\n' % (i, token) for i, token in enumerate(tokens))
        assert jsonl_columns(data, LOSS_COLUMNS) is None
        path = tmp_path / "loss.jsonl"
        path.write_bytes(data)
        got = loaded_columns(load_loss_trace, path)
        assert got["loss"].tobytes() == np.array([json.loads(token) for token in tokens]).tobytes()
        assert_same_columns(got, general_columns(data, LOSS_COLUMNS))

    @pytest.mark.parametrize(
        "text",
        [
            '{"step":-5,"stage":1,"loss":3.5}\n',
            '{"step":1000000000000000000,"stage":1,"loss":3.5}\n',
            '{"step":0,"stage":1,"loss":NaN}\n',
            '{"step":0,"stage":1,"loss":Infinity}\n',
        ],
        ids=["negative", "19-digits", "nan", "infinity"],
    )
    def test_other_values_go_the_general_way(self, text):
        data = text.encode()
        assert jsonl_columns(data, LOSS_COLUMNS) is None
        general = general_columns(data, LOSS_COLUMNS)
        want = json.loads(text)
        assert general["step"].tolist() == [want["step"]]
        assert general["loss"].tobytes() == np.array([want["loss"]]).tobytes()

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"step":1.5,"stage":1,"loss":1.0}', "line 3 step must be an integer"),
            ('{"step":2,"stage":true,"loss":1.0}', "line 3 stage must be an integer"),
            ('{"step":2,"stage":1,"loss":"3.5"}', "line 3 loss must be a number"),
            ('{"step":2,"stage":1,"loss":[1, 2]}', "line 3 loss must be a number"),
            ('{"step":2,"stage":1}', "line 3 needs step/stage/loss"),
            ('{"step":2,"stage":1,"loss":01}', "line 3 is not valid JSON"),
            ('{"step":99999999999999999999,"stage":1,"loss":1.0}', "line 3 step is out of range"),
        ],
    )
    def test_wrong_values_name_the_file_line(self, tmp_path, record, message):
        path = tmp_path / "loss.jsonl"
        path.write_text('{"step":0,"stage":1,"loss":1.0}\n\n' + record + "\n")
        with pytest.raises(FormatError, match=f"^{path}: {message}"):
            load_loss_trace(path)

    @pytest.mark.parametrize(
        "load, name, content",
        [
            (load_loss_trace, "loss.jsonl", b'{"step":0,"stage":1,"loss":1.0\xff}\n'),
            (load_loss_trace, "loss.csv", b"step,loss\n0,1.0\xff\n"),
            (read_manifest, "run.jsonl", b'{"format":"stagemix-manifest/v1\xff"}\n'),
            (read_manifest_header, "run.jsonl", b'{"format":"stagemix-manifest/v1\xff"}\n'),
            (read_comparison_csv, "cmp.csv", b"condition\xff\n"),
            (read_trajectory_csv, "traj.csv", b"step\xff\n"),
            (load_conditions, "schedule.json", b'{"stages": "\xff"}'),
        ],
    )
    def test_non_utf8_input_names_the_file(self, tmp_path, load, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        (tmp_path / "loss.stages.json").write_text('{"boundaries": [{"stage": 1, "start_step": 0}]}')
        with pytest.raises(FormatError, match=f"^{path}: not UTF-8"):
            load(path)

    @pytest.mark.parametrize("names", [("caf\u00e9", 'quo"te'), ("caf\u00e9", "com,ma")])
    def test_manifest_round_trip_with_escaped_names(self, tmp_path, names):
        registry = (DatasetSource(names[0], "D0-alignment", 5), DatasetSource(names[1], "D1-general", 3))
        condition = ScheduleCondition(
            id="toy", stages=(StagePlan(1, 4, {names[0]: 1.0}), StagePlan(2, 9, {names[0]: 0.5, names[1]: 0.5}))
        )
        manifest = generate_manifest(condition, registry, seed=5)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        data = path.read_bytes()
        assert b"\\u00e9" in data
        start = data.find(b"\n") + 1
        general = general_columns(data, EVENT_COLUMNS, header=True)
        fast = jsonl_columns(data, EVENT_COLUMNS, start)
        # a comma inside a name sends the file the general way
        assert (fast is None) == ("com,ma" in names)
        if fast is not None:
            assert_same_columns(fast, general)
        loaded = read_manifest(path)
        assert loaded.dataset_names == tuple(sorted(names))
        assert list(loaded.events()) == list(manifest.events())

    def test_manifest_event_types_are_checked(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"instance":', '"instance":0.5,"x":')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^{path}: line 3 instance must be an integer"):
            read_manifest(path)


# names drawn only from stage 2 sort before the stage-1 name, so the first blocks of a manifest miss them
LATE_REGISTRY = (
    DatasetSource("zulu", "D0-alignment", 5),
    DatasetSource("alpha", "D1-general", 4),
    DatasetSource("mike", "D2-reasoning", 3),
)
LATE_CONDITION = ScheduleCondition(
    id="late",
    stages=(StagePlan(1, 40, {"zulu": 1.0}), StagePlan(2, 400, {"alpha": 0.75, "mike": 0.25})),
)


def random_trace(seed: int, records: int) -> LossTrace:
    rng = np.random.default_rng(seed)
    return LossTrace(
        steps=np.cumsum(rng.integers(1, 1000, records)),
        stages=np.sort(rng.integers(1, 4, records)),
        losses=rng.standard_normal(records) * 10.0 ** rng.integers(-8, 8, records),
    )


def block_files(tmp_path):
    """A loss log and a manifest as the writers lay them out: (columns, path, data, start, has a header) each."""
    trace_path, manifest_path = tmp_path / "loss.jsonl", tmp_path / "run.jsonl"
    save_loss_trace(random_trace(3, 300), trace_path)
    write_manifest(generate_manifest(LATE_CONDITION, LATE_REGISTRY, seed=11), manifest_path)
    manifest = manifest_path.read_bytes()
    return [
        (LOSS_COLUMNS, trace_path, trace_path.read_bytes(), 0, False),
        (EVENT_COLUMNS, manifest_path, manifest, manifest.find(b"\n") + 1, True),
    ]


class TestBlockReader:
    """_jsonl_columns parses blocks of whole lines apart; joined, they give the whole file's columns."""

    @pytest.fixture(params=[64, 200])
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", request.param)
        return request.param

    def test_columns_match_general_path(self, block_bytes, tmp_path):
        for columns, _, data, start, header in block_files(tmp_path):
            assert len(data) > 50 * block_bytes
            fast = jsonl_columns(data, columns, start)
            assert fast is not None
            assert_same_columns(fast, general_columns(data, columns, header))

    def test_names_first_seen_in_later_blocks_get_sorted_codes(self, block_bytes, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest = generate_manifest(LATE_CONDITION, LATE_REGISTRY, seed=11)
        write_manifest(manifest, path)
        data = path.read_bytes()
        start = data.find(b"\n") + 1
        first_block = data[start : data.rfind(b"\n", start, start + block_bytes) + 1]
        padded = np.frombuffer(first_block + bytes(formats._PAD), dtype=np.uint8)
        assert _jsonl_block(padded, EVENT_COLUMNS)["dataset"][0] == ("zulu",)
        names, codes = jsonl_columns(data, EVENT_COLUMNS, start)["dataset"]
        assert names == ("alpha", "mike", "zulu")
        assert [names[i] for i in codes.tolist()] == [manifest.dataset_names[i] for i in manifest.dataset_ids.tolist()]
        assert list(read_manifest(path).events()) == list(manifest.events())

    def test_lines_longer_than_a_block(self, monkeypatch, tmp_path):
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 16)  # every line is a block of its own
        for columns, _, data, start, header in block_files(tmp_path):
            assert_same_columns(jsonl_columns(data, columns, start), general_columns(data, columns, header))

    def test_long_token_is_bounded_by_its_own_block(self, block_bytes):
        # the long line is a block of its own, so its width does not widen the other blocks' matrices
        lines = ['{"step":%d,"stage":1,"dataset":"a","instance":3}' % i for i in range(200)]
        lines[7] = '{"step":7,"stage":1,"dataset":"' + "b" * 1000 + '","instance":3}'
        data = ("\n".join(lines) + "\n").encode()
        fast = jsonl_columns(data, EVENT_COLUMNS)
        assert fast is not None
        assert_same_columns(fast, general_columns(data, EVENT_COLUMNS))

    def test_defect_in_the_last_block_names_its_line(self, block_bytes, tmp_path):
        for columns, path, data, start, _ in block_files(tmp_path):
            lines = data.splitlines(keepends=True)
            assert jsonl_columns(b"".join(lines[:-1]), columns, start) is not None
            lines[-1] = lines[-1].replace(b'"stage":', b'"stage":true,"x":')
            data = b"".join(lines)
            assert jsonl_columns(data, columns, start) is None
            path.write_bytes(data)
            load = load_loss_trace if columns is LOSS_COLUMNS else read_manifest
            with pytest.raises(FormatError, match=f"^{path}: line {len(lines)} stage must be an integer"):
                load(path)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_worker_count_does_not_change_the_columns(self, block_bytes, monkeypatch, tmp_path, cpus):
        files = block_files(tmp_path)
        want = [jsonl_columns(data, columns, start) for columns, _, data, start, _ in files]
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        for (columns, _, data, start, _), columns_before in zip(files, want):
            assert_same_columns(jsonl_columns(data, columns, start), columns_before)

    def test_hash_collision_goes_the_general_way(self, monkeypatch, tmp_path):
        # with a zero multiplier the row hash is a token's last word, which these two names share
        monkeypatch.setattr(formats, "_ROW_HASH", np.uint64(0))
        registry = (DatasetSource("aaaaaaa-tail", "D0-alignment", 5), DatasetSource("bbbbbbb-tail", "D1-general", 4))
        condition = ScheduleCondition(
            id="toy", stages=(StagePlan(1, 10, {"aaaaaaa-tail": 1.0}), StagePlan(2, 30, {"bbbbbbb-tail": 1.0}))
        )
        manifest = generate_manifest(condition, registry, seed=2)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        data = path.read_bytes()
        assert jsonl_columns(data, EVENT_COLUMNS, data.find(b"\n") + 1) is None
        assert list(read_manifest(path).events()) == list(manifest.events())

    @pytest.mark.parametrize(
        "odd",
        [
            lambda line: line[:-1] + b"\r\n",
            lambda line: line[:-1],
            lambda line: line.replace(b'"dataset":"', b'"dataset":"caf\xc3\xa9-').replace(b'"loss":', b'"note":"caf\xc3\xa9","loss":'),
            lambda line: line.replace(b"}", b"\xff}"),
            lambda line: line.replace(b'"step":', b'"step":01'),
        ],
        ids=["crlf", "no-final-newline", "non-ascii", "not-utf8", "leading-zero"],
    )
    def test_an_odd_last_line_reads_as_the_general_path_reads_it(self, block_bytes, monkeypatch, tmp_path, odd):
        # the column reader reads every block but the last, which the general rules read alone
        def outcome(load, path):
            try:
                got = load(path)
            except FormatError as err:
                return str(err)
            if isinstance(got, LossTrace):
                return got.steps.tobytes(), got.stages.tobytes(), got.losses.tobytes()
            return got.dataset_names, list(got.events())

        for columns, path, data, start, _ in block_files(tmp_path):
            lines = data.splitlines(keepends=True)
            lines[-1] = odd(lines[-1])
            data = b"".join(lines)
            assert jsonl_columns(data, columns, start) is None
            path.write_bytes(data)
            load = load_loss_trace if columns is LOSS_COLUMNS else read_manifest
            got = outcome(load, path)
            with monkeypatch.context() as general_only:
                general_only.setattr(formats, "_jsonl_block", lambda buf, columns: None)
                assert got == outcome(load, path)


def loaded_columns(load, path) -> dict:
    """A loader's result as the columns _jsonl_columns gives."""
    got = load(path)
    if isinstance(got, LossTrace):
        return {"step": got.steps, "stage": got.stages, "loss": got.losses}
    return {"step": got.steps, "stage": got.stages, "dataset": (got.dataset_names, got.dataset_ids), "instance": got.instances}


# Other layouts of a line, without its end: the line, then what follows it up to the next line.
ODD_LINES = {
    "spaced": lambda line: json.dumps(json.loads(line)) + "\n",
    "crlf": lambda line: line + "\r\n",
    "cr": lambda line: line + "\r",
    "blank-lines": lambda line: line + "\n\n \n",
}


class TestBlockFallback:
    """A block that _jsonl_block refuses is read by the general rules alone, its lines numbered on from
    the file lines ahead of it, while the blocks around it stay on the column reader."""

    @pytest.mark.parametrize("odd", list(ODD_LINES.values()), ids=list(ODD_LINES))
    def test_an_odd_middle_reads_as_the_whole_text_reads(self, monkeypatch, tmp_path, odd):
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 256)
        for columns, path, data, _, header in block_files(tmp_path):
            lines = data.decode().split("\n")[:-1]
            middle = range(len(lines) // 3, len(lines) // 2)
            # a blank line first, so that the line numbers count a line that holds no record
            pieces = ["\n"] + [odd(line) if i in middle else line + "\n" for i, line in enumerate(lines)]
            data = "".join(pieces).encode()
            path.write_bytes(data)
            load = load_loss_trace if columns is LOSS_COLUMNS else read_manifest
            refused = refused_blocks(monkeypatch)
            assert_same_columns(loaded_columns(load, path), general_columns(data, columns, header))
            assert True in refused and refused.count(False) > 10

            at = len(pieces) * 3 // 4  # a fault in a later block, on the column reader's side of the odd lines
            for fault in ('"stage":true,"x":', '"stage":01,"x":'):
                broken = pieces[:at] + [pieces[at].replace('"stage":', fault)] + pieces[at + 1 :]
                data = "".join(broken).encode()
                path.write_bytes(data)
                number = len(_lines("".join(broken[: at + 1])))
                with pytest.raises(FormatError, match=f"^log.jsonl: line {number} ") as want:
                    general_columns(data, columns, header)
                with pytest.raises(FormatError) as got:
                    load(path)
                assert str(got.value) == f"{path}: {str(want.value).removeprefix('log.jsonl: ')}"

    def test_a_long_loss_refuses_only_its_own_block(self, monkeypatch, tmp_path):
        # a loss of 25 digits, more than the parser's lanes hold, in one line of the middle; a manifest holds no loss
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 256)
        (_, path, data, _, _), _ = block_files(tmp_path)
        lines = data.splitlines(keepends=True)
        at = len(lines) // 2
        lines[at] = re.sub(rb'"loss":[^}]*', b'"loss":1234567890123456789012345', lines[at])
        data = b"".join(lines)
        path.write_bytes(data)
        refused = refused_blocks(monkeypatch)
        got = loaded_columns(load_loss_trace, path)
        assert refused.count(True) == 1 and refused.count(False) > 10
        assert got["loss"][at] == 1.2345678901234568e24
        assert_same_columns(got, general_columns(data, LOSS_COLUMNS))

    def test_of_two_faults_the_first_in_block_order_is_reported(self, monkeypatch, tmp_path):
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 256)
        (_, log, data, _, _), (_, manifest, events, _, _) = block_files(tmp_path)
        lines = data.splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"loss":', b'"loss":"x","y":')
        lines[-1] = lines[-1].replace(b"}", b"\xff}")  # not UTF-8, in the last block
        log.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=f"^{re.escape(str(log))}: line 1 loss must be a number"):
            load_loss_trace(log)
        lines = events.splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"seed":11', b'"seed":-1')
        lines[-1] = b'{"step":0,\n'  # not JSON
        manifest.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=f"^{re.escape(str(manifest))}: manifest header seed"):
            read_manifest(manifest)


class TestStreamedReader:
    """The readers hold a few blocks of the file at a time, never the whole file."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_threaded_takes_at_most_two_items_more_than_its_workers(self, monkeypatch, cpus):
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        taken = 0

        def items():
            nonlocal taken
            for item in range(40):
                taken += 1
                yield item

        results, held = [], []
        for result in threads._threaded(lambda item: item * 2, items()):
            results.append(result)
            held.append(taken - len(results) + 1)  # taken and not yet done with, this one included
        assert results == [item * 2 for item in range(40)]
        assert max(held) <= cpus + 2

    @pytest.mark.parametrize("items", [[], [7]])
    def test_threaded_runs_fewer_than_two_items_inline(self, items):
        idents = []
        results = list(threads._threaded(lambda item: idents.append(threading.get_ident()) or item, iter(items)))
        assert results == items
        assert idents == [threading.get_ident()] * len(items)

    @pytest.mark.parametrize("layout", ["compact", "spaced", "cr"])
    @pytest.mark.parametrize("load", [read_manifest, load_loss_trace])
    def test_reading_holds_less_than_the_file(self, monkeypatch, tmp_path, load, layout):
        # about 4 MB in blocks of 64 KB on two threads: what stays is the columns and a few blocks, read by
        # the column reader, or, in json.dumps's default layout or with lines that end in \r alone, by the
        # general rules a block at a time
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", 1 << 16)
        monkeypatch.setattr(threads, "_usable_cpus", lambda: 2)
        path = tmp_path / "file.jsonl"
        if load is read_manifest:
            registry = tuple(DatasetSource(source.name, source.group, 50_000) for source in SMALL_REGISTRY)
            condition = ScheduleCondition(
                id="big", stages=(StagePlan(1, 20_000, {"alpha": 1.0}), StagePlan(2, 50_000, {"beta": 0.75, "gamma": 0.25}))
            )
            write_manifest(generate_manifest(condition, registry, seed=3), path)
        else:
            save_loss_trace(random_trace(3, 80_000), path)
        if layout == "spaced":
            path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in path.read_text().splitlines()))
        elif layout == "cr":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        load(path)  # tables built on first use stay out of the measure
        tracemalloc.start()
        try:
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 60 * (1 << 16)
        assert peak < size



def load_outcome(load, path):
    """What a loader makes of a file: its columns' bytes, or its error's type and message."""
    try:
        got = load(path)
    except StagemixError as err:
        return type(err).__name__, str(err)
    if isinstance(got, LossTrace):
        return got.steps.tobytes(), got.stages.tobytes(), got.losses.tobytes()
    return got.dataset_names, list(got.events())


def general_outcome(monkeypatch, load, path):
    """load_outcome with _jsonl_block refusing every block, so that the general rules read every block."""
    with monkeypatch.context() as general_only:
        general_only.setattr(formats, "_jsonl_block", lambda buf, columns: None)
        return load_outcome(load, path)


# Integer tokens of each width around the reader's words of 8 bytes, and the int64 edges.
WIDE_INTS = [str(int("9" * d)) for d in (1, 8, 9, 16, 17, 18, 19)] + [str(10 ** (d - 1)) for d in (2, 8, 9, 16, 17, 18, 19)]
INT64_EDGES = [str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1)]
# Tokens the column reader refuses, at each word: a leading zero before 1, 2 and 3 words of
# digits, and a non-digit byte at each end of each word of an 18-digit integer.
BROKEN_INTS = ["01", "0" + "1" * 8, "0" + "1" * 16] + [
    "123456789012345678"[:at] + byte + "123456789012345678"[at + 1 :]
    for at in (0, 7, 8, 15, 16, 17)
    for byte in "/:a.e"
]


class TestWordBoundaries:
    """The column reader reads tokens and tags in words of 8 bytes, some of them past a token's end:
    wherever a token ends, in a block or in the file, it reads what the general path reads."""

    @pytest.fixture(params=[64, 1 << 20], ids=["line-blocks", "one-block"])
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(formats, "_READ_BLOCK_BYTES", request.param)
        return request.param

    def manifest_with_instances(self, path, token: str) -> bytes:
        """A manifest whose instance tokens, the last of each line, are all `token`."""
        write_manifest(generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1:] = [line[: line.rindex(b":") + 1] + token.encode() + b"}\n" for line in lines[1:]]
        path.write_bytes(b"".join(lines))
        return path.read_bytes()

    @pytest.mark.parametrize("token", WIDE_INTS + INT64_EDGES + BROKEN_INTS)
    def test_integer_tokens_read_as_the_general_path_reads_them(self, block_bytes, monkeypatch, tmp_path, token):
        path = tmp_path / "run.jsonl"
        data = self.manifest_with_instances(path, token)
        start = data.find(b"\n") + 1
        fast = jsonl_columns(data, EVENT_COLUMNS, start)
        digits = token.isdigit() and len(token) <= 18 and (token == "0" or token[0] != "0")
        assert (fast is not None) == digits
        if fast is not None:
            assert_same_columns(fast, general_columns(data, EVENT_COLUMNS, header=True))
            assert fast["instance"].tolist() == [int(token)] * 12
        assert load_outcome(read_manifest, path) == general_outcome(monkeypatch, read_manifest, path)
        log = tmp_path / "loss.jsonl"  # the token as the first step of a loss log, then as its first line's stage
        for line in (b'{"step":%s,"stage":1,"loss":0.5}\n', b'{"step":0,"stage":%s,"loss":0.5}\n'):
            log.write_bytes(line % token.encode() + b"".join(b'{"step":%d,"stage":9,"loss":1.5}\n' % (10**19 + i) for i in range(3)))
            assert load_outcome(load_loss_trace, log) == general_outcome(monkeypatch, load_loss_trace, log)

    @pytest.mark.parametrize("token", WIDE_INTS + INT64_EDGES + BROKEN_INTS)
    def test_integer_cells_of_a_csv_log_follow_the_same_rule(self, tmp_path, token):
        # the cell is the last of the buffer that the step column parser reads
        path = tmp_path / "loss.csv"
        path.write_text(f"step,loss\n{token},0.5\n")
        (tmp_path / "loss.stages.json").write_text('{"boundaries": [{"stage": 1, "start_step": -9223372036854775808}]}')
        value = formats.json_value(token)
        message = formats.fields.problem(value, "step")
        if message is None:
            assert load_loss_trace(path).steps.tolist() == [value]
        else:
            with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: row 2 {message}')}$"):
                load_loss_trace(path)

    @pytest.mark.parametrize("length", [6, 7, 14, 15, 22, 23, 30, 38])
    def test_dataset_names_of_each_width(self, block_bytes, tmp_path, length):
        # quoted, these names are 8 to 40 bytes long, and each pair shares all but its last word
        names = ["n" * (length - 1) + "a", "n" * (length - 1) + "b", "m" + "n" * (length - 1)]
        registry = tuple(DatasetSource(name, group, 4) for name, group in zip(names, ["D0-alignment", "D1-general", "D2-reasoning"]))
        condition = ScheduleCondition(
            id="wide", stages=(StagePlan(1, 5, {names[0]: 1.0}), StagePlan(2, 20, {names[1]: 0.5, names[2]: 0.5}))
        )
        manifest = generate_manifest(condition, registry, seed=4)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, path)
        data = path.read_bytes()
        fast = jsonl_columns(data, EVENT_COLUMNS, data.find(b"\n") + 1)
        assert fast is not None
        assert_same_columns(fast, general_columns(data, EVENT_COLUMNS, header=True))
        assert list(read_manifest(path).events()) == list(manifest.events())


# Bytes that break a manifest in many ways: structure, numbers, strings, encodings and line ends.
MANIFEST_TOKENS = [b'"', b",", b":", b"{", b"}", b"\n", b"\r", b"\r\n", b" ", b"0", b"-1", b"1e400", b"1.5", b"true",
                   b"99999999999999999999", b'"format"', b"\\u00e9", b"\\ud800", b"\xff", b"\xc3\xa9", b"\x00"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 1 << 16),
            st.sampled_from(["insert", "replace", "delete"]),
            st.one_of(st.sampled_from(MANIFEST_TOKENS), st.binary(min_size=1, max_size=1)),
        ),
        min_size=1,
        max_size=3,
    ),
    block_bytes=st.sampled_from([64, 1 << 20]),
)
def test_a_mutated_manifest_raises_only_toolkit_errors(tmp_path_factory, edits, block_bytes):
    """read_manifest and read_manifest_header on the writer's bytes with up to three edits: a
    manifest or its header, or a StagemixError, never another exception."""
    path = tmp_path_factory.mktemp("fuzz") / "run.jsonl"
    write_manifest(generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3), path)
    data = path.read_bytes()
    for at, how, token in edits:
        at %= len(data) + 1
        data = data[:at] + (b"" if how == "delete" else token) + data[at + (0 if how == "insert" else len(token)) :]
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_READ_BLOCK_BYTES", block_bytes)
        for read in (read_manifest, read_manifest_header):
            try:
                read(path)
            except StagemixError:
                pass


def test_importing_the_cli_loads_no_thread_pool():
    # the start-up a command pays: the thread pool behind threads._threaded is imported on first use
    code = "import sys, stagemix.cli; stagemix.cli.build_parser(); print(*map(sys.modules.__contains__, sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", code, "stagemix.threads", "concurrent.futures"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stdout) == (0, "True False\n")


def template_write_manifest(manifest, path):
    """The per-line %-template manifest writer that the column codec replaced: the reference."""
    header = json.dumps(manifest.header(), separators=(",", ":"))
    quoted = [json.dumps(name) for name in manifest.dataset_names]
    template = '{"step":%d,"stage":%d,"dataset":%s,"instance":%d}'
    steps, stages = manifest.steps.tolist(), manifest.stages.tolist()
    ids, instances = manifest.dataset_ids.tolist(), manifest.instances.tolist()
    lines = [header] + [template % (steps[i], stages[i], quoted[ids[i]], instances[i]) for i in range(len(steps))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def template_save_loss_trace(trace, path):
    """The per-line %-template loss writer that the column codec replaced: the reference."""
    steps, stages, losses = trace.steps.tolist(), trace.stages.tolist(), trace.losses.tolist()
    lines = ['{"step":%d,"stage":%d,"loss":%s}' % (steps[i], stages[i], repr(losses[i])) for i in range(len(steps))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


WRITER_INTS = [0, 1, -1, 9, 10, -10, 10**18 - 1, 2**63 - 1, -(2**63) + 1, -(2**63)]
WRITER_NAMES = ['q"t', "b\\s", "\t\n\x1f", "\x00", "café", "\U0001f600", "", "com,ma"]
WRITER_FLOATS = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16, 0.1]
# around the block edges of the writer, and the empty file
WRITER_ROWS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
writer_ints = st.one_of(st.sampled_from(WRITER_INTS), st.integers(-(2**63), 2**63 - 1), st.integers(0, 10**6))
# names stay short, so that no token is wider than a line and the fast reader takes every valid file
writer_names = st.one_of(st.sampled_from(WRITER_NAMES), st.text(max_size=3))


def tiled(values, rows, dtype=np.int64):
    return np.resize(np.array(values, dtype=dtype), rows)


def fast_or_general(data: bytes, columns, start: int, fast_expected: bool):
    """The columns as _jsonl_columns reads them, which it must when `fast_expected`, else the general path's."""
    fast = jsonl_columns(data, columns, start)
    assert fast_expected <= (fast is not None)
    return fast if fast is not None else general_columns(data, columns, header=bool(start))


def writer_records(*kinds):
    """Lists of tuples of `kinds`; in half of them every integer is in the fast reader's range, [0, 10**18)."""
    records = st.lists(st.tuples(*kinds), min_size=1, max_size=9)
    unsigned = records.map(lambda rs: [tuple(abs(v) % 10**18 if type(v) is int else v for v in r) for r in rs])
    return st.one_of(records, unsigned)


def in_fast_range(values) -> bool:
    return all(0 <= v < 10**18 for v in values)


class TestColumnWriter:
    """write_manifest and save_loss_trace give the bytes of the per-line template writers."""

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    @settings(max_examples=3)
    @given(
        records=writer_records(writer_ints, writer_ints, writer_ints, st.integers(0, 99)),
        names=st.lists(writer_names, min_size=1, max_size=5, unique=True),
    )
    def test_manifest(self, rows, records, names):
        columns = np.resize(np.array([r[:3] for r in records], dtype=np.int64), (rows, 3)).T
        ids = tiled([r[3] % len(names) for r in records], rows)
        manifest = Manifest("toy", 2**64 - 1, "d" * 64, "gen", {1: 4, 2: 0}, tuple(names),
                            columns[0], columns[1], ids, columns[2])
        with tempfile.TemporaryDirectory() as tmp:
            write_manifest(manifest, Path(tmp) / "new.jsonl")
            template_write_manifest(manifest, Path(tmp) / "old.jsonl")
            data = (Path(tmp) / "new.jsonl").read_bytes()
            assert data == (Path(tmp) / "old.jsonl").read_bytes()
        start = data.find(b"\n") + 1
        if not rows:
            assert data[start:] == b""
            return
        fast = in_fast_range(columns.ravel().tolist()) and not any("," in names[i] for i in set(ids.tolist()))
        got = fast_or_general(data, EVENT_COLUMNS, start, fast)
        for key, column in zip(("step", "stage", "instance"), columns):
            assert np.array_equal(got[key], column)
        got_names, got_ids = got["dataset"]
        assert [got_names[i] for i in got_ids.tolist()] == [names[i] for i in ids.tolist()]

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    @settings(max_examples=3)
    @given(
        records=writer_records(
            writer_ints,
            writer_ints,
            st.one_of(st.sampled_from(WRITER_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
        )
    )
    def test_loss_trace(self, rows, records):
        trace = LossTrace(
            steps=tiled([r[0] for r in records], rows),
            stages=tiled([r[1] for r in records], rows),
            losses=tiled([r[2] for r in records], rows, dtype=np.float64),
        )
        with tempfile.TemporaryDirectory() as tmp:
            save_loss_trace(trace, Path(tmp) / "new.jsonl")
            template_save_loss_trace(trace, Path(tmp) / "old.jsonl")
            data = (Path(tmp) / "new.jsonl").read_bytes()
            assert data == (Path(tmp) / "old.jsonl").read_bytes()
        if not rows:
            assert data == b"\n"
            return
        fast = in_fast_range([v for r in records for v in r[:2]])
        got = fast_or_general(data, LOSS_COLUMNS, 0, fast)
        assert np.array_equal(got["step"], trace.steps) and np.array_equal(got["stage"], trace.stages)
        assert got["loss"].tobytes() == trace.losses.tobytes()

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_thread_count_does_not_change_the_bytes(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(cpus)
        names = tuple(WRITER_NAMES)
        for rows in WRITER_ROWS:
            ints = rng.integers(-(2**63), 2**63, size=(3, rows), dtype=np.int64)
            ids = rng.integers(0, len(names), size=rows)
            manifest = Manifest("toy", 7, "d" * 64, "gen", {1: rows}, names, ints[0], ints[1], ids, ints[2])
            losses = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, size=rows)
            losses[: len(WRITER_FLOATS)] = WRITER_FLOATS[:rows]
            trace = LossTrace(steps=ints[0], stages=ints[1], losses=losses)
            pairs = [(write_manifest, template_write_manifest, manifest), (save_loss_trace, template_save_loss_trace, trace)]
            for write, template, obj in pairs:
                write(obj, tmp_path / "new.jsonl")
                template(obj, tmp_path / "old.jsonl")
                assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes(), (rows, write)

    def test_empty_manifest_is_its_header_line(self, tmp_path):
        empty = np.zeros(0, dtype=np.int64)
        manifest = Manifest("toy", 3, "d" * 64, "gen", {1: 0}, (), empty, empty, empty, empty)
        write_manifest(manifest, tmp_path / "run.jsonl")
        header = json.dumps(manifest.header(), separators=(",", ":"))
        assert (tmp_path / "run.jsonl").read_text() == header + "\n"

    @pytest.mark.parametrize(
        "ids, steps, error", [([0, 3], 2, IndexError), ([-1, 0], 2, IndexError), ([0, 1], 3, ValueError)]
    )
    def test_inconsistent_manifest_writes_nothing(self, tmp_path, ids, steps, error):
        two = np.ones(2, dtype=np.int64)
        names = ("a", "b", "c")
        manifest = Manifest("toy", 3, "d" * 64, "gen", {1: 2}, names, np.arange(steps), two, np.array(ids), two)
        path = tmp_path / "run.jsonl"
        with pytest.raises(error):
            write_manifest(manifest, path)
        assert not path.exists()

    def test_non_finite_loss_in_a_late_block_writes_nothing(self, tmp_path):
        losses = np.ones(2 * _BLOCK_ROWS + 1)
        losses[-1] = np.nan
        path = tmp_path / "loss.jsonl"
        with pytest.raises(TraceError, match="not finite"):
            save_loss_trace(make_trace(losses), path)
        assert not path.exists()


class TestEvalLogFiles:
    def snapshots(self):
        return [
            EvalSnapshot(step=s, scores={t: Decimal(v) for t, v in FINAL_SCORES["A"].items()})
            for s in (100, 200)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        save_eval_log(self.snapshots(), path)
        assert load_eval_log(path) == self.snapshots()

    def test_scores_written_as_plain_numbers(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        save_eval_log(self.snapshots()[:1], path)
        first = json.loads(path.read_text().splitlines()[0])
        assert isinstance(first["score"], float)

    def test_duplicate_task_rejected(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text(
            '{"step":1,"task":"AI2D","score":50.0}\n{"step":1,"task":"AI2D","score":51.0}\n'
        )
        with pytest.raises(EvalDataError, match="duplicate"):
            load_eval_log(path)

    def test_errors_name_the_file_line(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text('{"step":1,"task":"AI2D","score":50.0}\n\n{"step":1,"task":7,"score":50.0}\n')
        with pytest.raises(FormatError, match=f"^{path}: line 3 task must be a string"):
            load_eval_log(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text('{"step":1,"task":"AI2D"}\n')
        with pytest.raises(FormatError, match="step/task/score"):
            load_eval_log(path)

    def test_two_decimal_score_rejected(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text('{"step":1,"task":"AI2D","score":50.25}\n')
        with pytest.raises(EvalDataError, match="decimal"):
            load_eval_log(path)


class TestComparisonCsv:
    def table(self):
        return comparison([(cid, FINAL_SCORES[cid]) for cid in "ABCD"])

    def test_header_and_exact_values(self, tmp_path):
        path = tmp_path / "cmp.csv"
        write_comparison_csv(self.table(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "condition,General-Val,AI2D,ChartQA,Reasoning,TextVQA,DocVQA,OCR,Overall"
        b = FINAL_SCORES["B"]
        assert lines[2] == "B,{},{},{},75.3,{},{},72.35,73.74".format(
            b["General-Val"], b["AI2D"], b["ChartQA"], b["TextVQA"], b["DocVQA"]
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "cmp.csv"
        table = self.table()
        write_comparison_csv(table, path)
        loaded = read_comparison_csv(path)
        assert [name for name, _ in loaded] == list(table.conditions)
        for (_, values), row in zip(loaded, table.rows):
            assert values == row

    def test_non_numeric_cell_names_file_and_row(self, tmp_path):
        path = tmp_path / "cmp.csv"
        write_comparison_csv(self.table(), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"cmp\.csv: row 4 holds a value that is not a number"):
            read_comparison_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "cmp.csv"
        path.write_text("condition,foo\nA,1\n")
        with pytest.raises(FormatError, match="header"):
            read_comparison_csv(path)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        snaps = [
            EvalSnapshot(step=s, scores={t: Decimal(v) for t, v in FINAL_SCORES[c].items()})
            for s, c in ((100, "D"), (200, "C"), (300, "B"))
        ]
        points = trajectory(snaps)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(points, path)
        assert read_trajectory_csv(path) == points

    @pytest.mark.parametrize("row", ["x,70.0,71.0,72.0,71.0", "200,70.0,high,72.0,71.0"])
    def test_non_numeric_cell_names_file_and_row(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text("step,general,reasoning,detail,overall\n100,70.0,71.0,72.0,71.0\n" + row + "\n")
        with pytest.raises(FormatError, match=r"traj\.csv: row 3 holds a value that is not a number"):
            read_trajectory_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError, match="header"):
            read_trajectory_csv(path)


class TestSimSpecFiles:
    def test_loss_spec_full(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "stages": [
                        {"steps": 100, "amplitude": 4.0, "tau": 500.0, "noise": 0.05},
                        {"index": 2, "steps": 50, "amplitude": 2.0, "tau": 300.0},
                    ],
                    "injections": [{"step": 40, "multiplier": 5.0}],
                    "log_interval": 2,
                    "seed": 11,
                }
            )
        )
        spec = load_loss_spec(path)
        assert [s.index for s in spec.stages] == [1, 2]
        assert spec.stages[0].noise == 0.05
        assert spec.stages[1].noise == 0.0
        assert spec.injections[0].step == 40
        assert spec.log_interval == 2
        assert spec.seed == 11

    def test_loss_spec_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"stages": [{"steps": 10, "amplitude": 1.0, "tau": 5.0}]}))
        spec = load_loss_spec(path)
        assert spec.log_interval == 1
        assert spec.injections == ()
        assert spec.seed is None

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"stages": "nope"}, "'stages' list"),
            ({"stages": [{"steps": 10}]}, "steps/amplitude/tau"),
            ({"stages": [{"steps": 1, "amplitude": 1, "tau": 1}], "seed": "x"}, "seed"),
            ({"stages": [{"steps": 1, "amplitude": 1, "tau": 1}], "log_interval": 1.5}, "log_interval"),
            ({"stages": [{"steps": 1, "amplitude": 1, "tau": 1}], "injections": [{"step": 0}]}, "multiplier"),
        ],
    )
    def test_loss_spec_errors(self, tmp_path, payload, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=message):
            load_loss_spec(path)

    def test_capability_spec(self, tmp_path):
        path = tmp_path / "cap.json"
        path.write_text(
            json.dumps(
                {
                    "model": {"baseline": 30.0, "ceiling": 90.0, "noise": 0.5, "eval_interval": 250},
                    "seed": 4,
                }
            )
        )
        model, seed = load_capability_spec(path)
        assert model.baseline == 30.0
        assert model.ceiling == 90.0
        assert model.eval_interval == 250
        assert seed == 4
        assert "reasoning" in model.weights

    def test_capability_spec_defaults(self, tmp_path):
        path = tmp_path / "cap.json"
        path.write_text("{}")
        model, seed = load_capability_spec(path)
        assert model.baseline == 40.0
        assert seed is None

    def test_capability_spec_errors(self, tmp_path):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"model": {"baseline": "high"}}))
        with pytest.raises(FormatError, match="numbers"):
            load_capability_spec(path)


class TestManifestIntegrity:
    """Events must match the header: steps 0..N-1, each stage's stage_steps of them in index order."""

    def manifest_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_manifest(generate_manifest(builtin_condition("A", (2, 3, 3)), builtin_registry(), seed=5), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["column-reader", "general-reader"])
    def test_a_truncated_manifest_is_a_parse_error(self, tmp_path, end):
        path, lines = self.manifest_lines(tmp_path)
        assert len(read_manifest(path)) == 8
        path.write_text(end.join(lines[:4]) + end, newline="")
        with pytest.raises(FormatError, match=f"^{path}: manifest has 3 events, its header declares 8$"):
            read_manifest(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["column-reader", "general-reader"])
    def test_events_out_of_stage_order_are_a_parse_error(self, tmp_path, end):
        path, lines = self.manifest_lines(tmp_path)
        lines[2], lines[3] = lines[3], lines[2]  # step 1 of stage 1 and step 2 of stage 2
        path.write_text(end.join(lines) + end, newline="")
        with pytest.raises(FormatError, match=f"^{path}: manifest events 0..1 are not all of stage 1$"):
            read_manifest(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["column-reader", "general-reader"])
    def test_steps_other_than_0_to_n_are_a_parse_error(self, tmp_path, end):
        path, lines = self.manifest_lines(tmp_path)
        assert lines[5].startswith('{"step":4,"stage":2,')
        lines[5] = lines[5].replace('"step":4,', '"step":9,')
        path.write_text(end.join(lines) + end, newline="")
        with pytest.raises(FormatError, match=f"^{path}: manifest event steps are not 0..7 in order$"):
            read_manifest(path)

    def test_steps_are_checked_past_the_first_block(self, tmp_path):
        manifest = generate_manifest(SMALL_CONDITION, SMALL_REGISTRY, seed=3)
        steps = np.arange(_BLOCK_ROWS + 12)
        steps[_BLOCK_ROWS + 5] += 1
        long = Manifest(
            condition_id="toy", seed=3, registry_digest=manifest.registry_digest, generator=manifest.generator,
            stage_steps={1: 4, 2: _BLOCK_ROWS + 8}, dataset_names=manifest.dataset_names,
            steps=steps, stages=np.where(steps < 4, 1, 2), dataset_ids=np.zeros(len(steps), dtype=np.int64),
            instances=np.zeros(len(steps), dtype=np.int64),
        )
        path = tmp_path / "run.jsonl"
        write_manifest(long, path)
        with pytest.raises(FormatError, match=f"manifest event steps are not 0..{_BLOCK_ROWS + 11} in order$"):
            read_manifest(path)
