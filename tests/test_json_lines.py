"""One JSON reader: every file stagemix reads splits into lines at \\n, \\r\\n or \\r only,
holds one JSON value per line, and every parse failure is a FormatError naming the file."""

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stagemix import (
    DatasetSource,
    FormatError,
    ScheduleCondition,
    StagePlan,
    formats,
    generate_manifest,
    load_capability_spec,
    load_conditions,
    load_eval_log,
    load_loss_spec,
    load_loss_trace,
    load_registry,
    read_manifest,
    read_manifest_header,
)
from stagemix.formats import _jsonl_objects, _lines

PACKAGE = Path(formats.__file__).parent

# Python's str.splitlines() ends a line at each of these; JSON allows them raw inside strings.
UNICODE_SEPARATORS = ["\u2028", "\u2029", "\x85"]
# ...and at each of these, which JSON does not allow raw anywhere in a string.
CONTROL_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e"]

DEEP = "[" * 100_000 + "]" * 100_000


def spaced_manifest(tmp_path, separator):
    """A manifest with the separator in a dataset name and the condition id, in json.dumps's spaced layout."""
    names = (f"LLaVA{separator}Pretrain", f"General{separator}Val")
    registry = (DatasetSource(names[0], "D0-alignment", 5), DatasetSource(names[1], "D1-general", 3))
    condition = ScheduleCondition(
        id=f"toy{separator}", stages=(StagePlan(1, 4, {names[0]: 1.0}), StagePlan(2, 6, {names[0]: 0.5, names[1]: 0.5}))
    )
    manifest = generate_manifest(condition, registry, seed=5)
    lines = [json.dumps(manifest.header(), ensure_ascii=False)]
    for step, stage, dataset, instance in manifest.events():
        record = {"step": step, "stage": stage, "dataset": dataset, "instance": instance}
        lines.append(json.dumps(record, ensure_ascii=False))
    path = tmp_path / "run.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, path


class TestLineRule:
    def test_lines_end_at_newline_carriage_return_or_both_only(self):
        text = "a\nb\r\nc\rd\u2028e\u2029f\x85g\vh\fi\x1cj\x1dk\x1el\n\n"
        assert _lines(text) == ["a", "b", "c", "d\u2028e\u2029f\x85g\vh\fi\x1cj\x1dk\x1el", ""]
        assert _lines("") == [] and _lines("x") == ["x"] and _lines("\r") == [""]

    @pytest.mark.parametrize("separator", UNICODE_SEPARATORS)
    def test_manifest_names_holding_unicode_line_separators_read_back(self, tmp_path, separator):
        manifest, path = spaced_manifest(tmp_path, separator)
        loaded = read_manifest(path)
        assert loaded.dataset_names == manifest.dataset_names
        assert list(loaded.events()) == list(manifest.events())
        assert read_manifest_header(path) == manifest.header() == loaded.header()

    @pytest.mark.parametrize("separator", UNICODE_SEPARATORS)
    def test_eval_tasks_holding_unicode_line_separators_read_back(self, tmp_path, separator):
        path = tmp_path / "eval.jsonl"
        task = f"General{separator}Val"
        path.write_text(json.dumps({"step": 1, "task": task, "score": 1.0}, ensure_ascii=False) + "\n", encoding="utf-8")
        assert list(load_eval_log(path)[0].scores) == [task]

    @pytest.mark.parametrize("separator", CONTROL_SEPARATORS)
    def test_raw_control_characters_in_a_string_are_a_parse_error(self, tmp_path, separator):
        path = tmp_path / "eval.jsonl"
        path.write_text('{"step":0,"task":"A","score":1.0}\n{"step":1,"task":"General%sVal","score":1.0}\n' % separator)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2 is not valid JSON"):
            load_eval_log(path)

    def test_a_record_split_over_two_lines_is_a_parse_error(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text('{"step":0,"task":"A","score":1.0}\n{"step":1,"task":"General\n-Val","score":1.0}\n')
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2 is not valid JSON"):
            load_eval_log(path)

    def test_a_split_string_is_a_parse_error_even_where_the_count_of_values_holds(self, tmp_path):
        # two records on line 1 make up for the record split over lines 2-3, but no string may hold a newline
        path = tmp_path / "eval.jsonl"
        path.write_text(
            '{"step":1,"task":"A","score":1.0}, {"step":1,"task":"B","score":2.0}\n'
            '{"step":1,"task":"General\n-Val","score":3.0}\n'
        )
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 1 is not valid JSON"):
            load_eval_log(path)

    def test_an_array_split_over_two_lines_is_a_parse_error(self, tmp_path):
        # joined with the next line it is one valid value, so only the count of values catches it
        path = tmp_path / "loss.jsonl"
        path.write_text('{"step": 0, "stage": 1, "loss": 1.5}\n\n[{"step": 1, "stage": 1, "loss": 2.5}\n{"step": 2, "stage": 1, "loss": 2.5}]\n')
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3 is not valid JSON"):
            load_loss_trace(path)

    def test_two_records_on_one_line_are_a_parse_error(self, tmp_path):
        path = tmp_path / "loss.jsonl"
        path.write_text(
            '{"step": 0, "stage": 1, "loss": 1.5}, {"step": 1, "stage": 1, "loss": 2.5}\n'
            '{"step": 2, "stage": 1, "loss": 2.5}\n{"step": 3, "stage": 1, "loss": true}\n'
        )
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 1 is not valid JSON"):
            load_loss_trace(path)

    def test_an_integer_longer_than_int_accepts_names_its_line(self, tmp_path):
        path = tmp_path / "loss.jsonl"
        path.write_text('{"step": 0, "stage": 1, "loss": 1.5}\n\n{"step": %s, "stage": 1, "loss": 2.5}\n' % ("1" * 5000))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3 is not valid JSON"):
            load_loss_trace(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_the_manifest_header_is_the_first_non_blank_line(self, tmp_path, end):
        manifest, path = spaced_manifest(tmp_path, "-")
        formats.write_manifest(manifest, path)
        path.write_bytes(end.encode() + path.read_bytes().replace(b"\n", end.encode()))
        assert read_manifest_header(path) == read_manifest(path).header() == manifest.header()
        path.write_bytes((end + " " + end).encode())
        for read in (read_manifest, read_manifest_header):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: empty file, expected a manifest header line$"):
                read(path)

    def test_the_manifest_header_of_a_carriage_return_file_is_read_alone(self, tmp_path):
        # a byte that is not UTF-8, 2 MB past the header and with no \n before it, is never read
        manifest, path = spaced_manifest(tmp_path, "-")
        formats.write_manifest(manifest, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r") + b" " * 2_000_000 + b"\xff\r")
        assert read_manifest_header(path) == manifest.header()
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_manifest(path)

    def test_a_manifest_header_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"\r\r" + b" " * 100_000 + b"\xff\r")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_manifest_header(path)

    def test_a_header_line_holding_a_carriage_return_is_two_lines(self, tmp_path):
        manifest, path = spaced_manifest(tmp_path, "-")
        formats.write_manifest(manifest, path)
        assert read_manifest(path).header() == manifest.header()
        path.write_bytes(path.read_bytes().replace(b',"seed"', b',\r"seed"', 1))
        for read in (read_manifest, read_manifest_header):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 1 is not valid JSON"):
                read(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("at", [100, 20_000])
    def test_a_bad_header_is_reported_before_a_byte_of_the_events_that_is_not_utf8(self, tmp_path, at, end):
        # only the header line is decoded before it is checked, wherever the bad byte sits after it
        stages = (StagePlan(1, 400, {"alpha": 1.0}), StagePlan(2, 0, {"alpha": 1.0}))
        manifest = generate_manifest(ScheduleCondition("solo", stages), (DatasetSource("alpha", "D0-alignment", 7),), 5)
        path = tmp_path / "run.jsonl"
        formats.write_manifest(manifest, path)
        header, events = path.read_bytes().split(b"\n", 1)
        assert len(events) > 20_000
        header = re.sub(rb'"seed":\d+', b'"seed":-1', header)
        path.write_bytes(end.encode() + (header + b"\n" + events[:at] + b"\xff" + events[at + 1 :]).replace(b"\n", end.encode()))
        for read in (read_manifest, read_manifest_header):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: manifest header seed"):
                read(path)
        path.write_bytes(path.read_bytes().replace(b'"seed":-1', b'"seed":5'))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_manifest(path)
        assert read_manifest_header(path) == manifest.header()


# (loader, file name, file text, the line its error names); the sidecar is read through loss.csv.
DEEP_FILES = {
    "conditions": (load_conditions, "schedule.json", '{"conditions": %s}' % DEEP, ""),
    "registry": (load_registry, "registry.json", '{"datasets": %s}' % DEEP, ""),
    "loss spec": (load_loss_spec, "spec.json", '{"stages": %s}' % DEEP, ""),
    "capability spec": (load_capability_spec, "spec.json", '{"model": %s}' % DEEP, ""),
    "sidecar": (load_loss_trace, "loss.stages.json", '{"boundaries": %s}' % DEEP, ""),
    "loss log": (load_loss_trace, "loss.jsonl", DEEP + "\n", "line 1 is "),
    "manifest": (read_manifest, "run.jsonl", DEEP + "\n", "line 1 is "),
    "manifest header": (read_manifest_header, "run.jsonl", DEEP + "\n", "line 1 is "),
    "eval log": (load_eval_log, "eval.jsonl", '{"step":1,"task":"A","score":1.0}\n' + DEEP + "\n", "line 2 is "),
}


@pytest.mark.parametrize("case", list(DEEP_FILES))
def test_nesting_too_deep_to_parse_is_a_parse_error(tmp_path, case):
    load, name, text, where = DEEP_FILES[case]
    path = tmp_path / name
    path.write_text(text)
    (tmp_path / "loss.csv").write_text("step,loss\n0,1.0\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {where}not valid JSON \\(maximum recursion"):
        load(tmp_path / "loss.csv" if case == "sidecar" else path)


# Any Unicode text but surrogates, with Python's extra line breaks drawn often.
TEXT = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(UNICODE_SEPARATORS + ["\n", "\r"]), max_size=8)
RECORDS = st.lists(
    st.dictionaries(TEXT, TEXT | st.integers() | st.floats(allow_nan=False, allow_infinity=False), max_size=3),
    min_size=1,
    max_size=12,
)
BROKEN = ['{"a": 1', '{"a": 1}, {"b": 2}', '{"a": 1} {"b": 2}', '"a\u2028', "[1,", "}", ","]


@given(
    RECORDS,
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=40, max_size=40),
    st.lists(st.sampled_from([None, " ", "\t", "\u2028"]), min_size=40, max_size=40),
    st.booleans(),
    st.data(),
)
def test_general_path_round_trip(tmp_path_factory, records, ends, blanks, last_end, data):
    # one line per record, a blank line (never empty, so a \r end cannot pair with the next \n) before some
    lines, numbers = [], []
    for record, blank in zip(records, blanks):
        if blank is not None:
            lines.append(blank)
        lines.append(json.dumps(record, ensure_ascii=False))
        numbers.append(len(lines))
    text = "".join(line + end for line, end in zip(lines, ends))
    if not last_end:
        text = text[: -len(ends[len(lines) - 1])]
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _jsonl_objects(path, _lines(formats._read_text(path))) == records

    at = data.draw(st.integers(0, len(records) - 1))
    lines[numbers[at] - 1] = data.draw(st.sampled_from(BROKEN))
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {numbers[at]} is not valid JSON"):
        _jsonl_objects(path, _lines(formats._read_text(path)))


def _json_parse_calls(tree):
    """Lines that call json.load or json.loads, or import them by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("load", "loads"):
            if getattr(node.func.value, "id", None) == "json":
                yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("load", "loads") for alias in node.names):
                yield node.lineno


def test_only_the_formats_module_parses_json():
    """One reader: no other module parses JSON, or splits text into lines, its own way."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: list(_json_parse_calls(ast.parse(source))) for name, source in sources.items()}
    assert found.pop("formats.py"), "the detector no longer finds the reader it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert [name for name, source in sources.items() if "splitlines" in source] == []


def _called_names(function):
    """The names that a function's calls call: f of f(...) and m of x.m(...)."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            yield getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def test_the_column_loaders_have_no_whole_file_read():
    """read_manifest, read_manifest_header and load_loss_trace read a file in blocks and nothing else:
    none calls _read_text, read_bytes or read_text, so no whole-file path can come back."""
    tree = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    whole_file = {"_read_text", "read_bytes", "read_text"}
    assert whole_file & set(_called_names(functions["load_json"])), "the detector no longer finds a whole-file read"
    for name in ("read_manifest", "read_manifest_header", "load_loss_trace"):
        assert whole_file.isdisjoint(_called_names(functions[name])), name


def test_only_the_threads_module_builds_a_thread_pool():
    """One pool: threads._threaded. No other module starts threads its own way, so the file formats, the
    window kernel and the sampler share it and its one thread per usable CPU."""
    builders = {"ThreadPoolExecutor", "Thread"}
    found = {
        path.name: builders & set(_called_names(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("threads.py"), "the detector no longer finds the pool it guards"
    assert {name: calls for name, calls in found.items() if calls} == {}
