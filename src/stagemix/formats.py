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
import io
import itertools
import json
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import fields, floattext
from .dynamics import LossTrace
from .errors import EvalDataError, FormatError, TraceError
from .metrics import (
    COMPARISON_COLUMNS,
    TRAJECTORY_COLUMNS,
    AggregateScores,
    ComparisonTable,
    EvalSnapshot,
    TrajectoryPoint,
    to_score,
)
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
from .threads import _threaded

SCHEDULE_FORMAT = "stagemix-schedule/v1"


def _not_utf8(path, err: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 text ({err.reason})")


def _decode(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None


def _read_text(path) -> str:
    return _decode(path, Path(path).read_bytes())


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def load_json(path):
    return _parse(path, _read_text(path))


def save_json(obj, path) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _lines(text: str) -> list[str]:
    """The lines of text, split where a line ends: at \\n, \\r\\n or \\r, and nowhere else."""
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line, or of an empty text
    return lines


def _parse(path, text: str, line: int | None = None):
    """json.loads(text) for path, or for one line of it: every failure (not JSON, an integer
    longer than int() accepts, nesting too deep) becomes a FormatError naming both."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        if line and isinstance(err, json.JSONDecodeError):
            err = f"column {err.colno}: {err.msg}"
        raise FormatError(f"{path}: {f'line {line} is not' if line else 'not'} valid JSON ({err})") from None


def _jsonl_objects(path, lines: list[str], before: int = 0) -> list:
    """The JSON value on each non-blank line of a file split by _lines, `before` lines into it: exactly one per line.

    One json.loads of the lines joined with ",\\n" parses them, twice as fast as
    a call per line: no JSON string holds a raw newline, so none runs on into the
    next line, and any other count of values than of lines means a line holds
    none or several. On any failure each line is parsed alone, to name the first
    that is not one value.
    """
    records = [line for line in lines if line.strip()]
    if len(records) == len(lines):
        records = lines  # no blank line: free the copy before the parse
    try:
        values = json.loads("[" + ",\n".join(records) + "]")
        if len(values) == len(records):
            return values
    except (ValueError, RecursionError):
        pass
    return [_parse(path, line, number) for number, line in enumerate(lines, before + 1) if line.strip()]


def _line_number(lines: list[str], index: int, before: int = 0) -> int:
    """The file line of the index-th non-blank line, as _jsonl_objects numbers them."""
    numbers = (number for number, line in enumerate(lines, before + 1) if line.strip())
    return next(itertools.islice(numbers, index, None))


# JSONL columns: each key of a record layout maps to the kind of its values, as
# fields.JSON_TYPES defines them. Integer columns load as int64 arrays, float
# columns as float64 arrays, and string columns as a pair (sorted distinct
# names, int64 index of each record's name).
LOSS_COLUMNS = {"step": int, "stage": int, "loss": float}
EVENT_COLUMNS = {"step": int, "stage": int, "dataset": str, "instance": int}


def _object_columns(path, lines: list[str], records: list, columns: dict, before: int = 0) -> dict:
    """Columns from the JSONL values _jsonl_objects(path, lines, before) gives, checking every record's
    fields; errors name the file line a record sits on."""
    out = {}
    for key, kind in columns.items():
        try:
            values = [record[key] for record in records]
        except (KeyError, TypeError):
            at = next(i for i, r in enumerate(records) if not isinstance(r, dict) or key not in r)
            raise FormatError(f"{path}: line {_line_number(lines, at, before)} needs {'/'.join(columns)}") from None
        allowed = fields.JSON_TYPES[kind]
        if not set(map(type, values)) <= allowed:
            at = next(i for i, v in enumerate(values) if type(v) not in allowed)
            raise FormatError(f"{path}: line {_line_number(lines, at, before)} {fields.problem(values[at], key, kind)}")
        if kind is str:
            out[key] = _factorize(values)
            continue
        dtype = np.int64 if kind is int else np.float64
        try:
            out[key] = np.array(values, dtype=dtype)
        except OverflowError:
            at = next(i for i, v in enumerate(values) if fields.problem(v, key, kind))
            raise FormatError(f"{path}: line {_line_number(lines, at, before)} {key} is out of range") from None
    return out


# Bytes per block of _jsonl_columns: about this many bytes of whole lines.
_READ_BLOCK_BYTES = 1 << 20
_PAD = 8  # bytes after each buffer the token parsers read, so that a word at any offset of it is in memory


def _line_blocks(handle, before: int = 0):
    """The rest of a binary file, `before` lines into it, as (uint8 block of whole lines in a fresh buffer,
    then _PAD bytes; the count of file lines ahead of the block).

    A block holds the lines that end within _READ_BLOCK_BYTES of its start, or,
    when none does, the one line that begins it, however long. The partial line
    after a block begins the next one. An unterminated last line is yielded as it
    is, so the block that holds it does not end in a newline. Blocks end at a
    \\n, or at a \\r that is not the last byte read, so that a file whose lines
    end in \\r alone is read in blocks too, and none splits a \\r\\n or a UTF-8
    character.
    """
    tail = b""
    while True:
        buf = bytearray(_READ_BLOCK_BYTES + _PAD)
        buf[: len(tail)] = tail
        filled = len(tail) + handle.readinto(memoryview(buf)[len(tail) : _READ_BLOCK_BYTES])
        end = max(buf.rfind(b"\n", 0, filled), buf.rfind(b"\r", 0, filled - 1)) + 1
        if end:
            tail = buf[end:filled]
        elif filled == len(tail):  # the end of the file
            if not filled:
                return
            end, tail = filled, b""
        else:  # a line longer than a block: read on to its end
            buf = b"".join([memoryview(buf)[:filled], handle.readline(), bytes(_PAD)])
            end, tail = len(buf) - _PAD, b""
        yield np.frombuffer(buf, dtype=np.uint8, count=end + _PAD), before
        before += _line_count(buf, end)


def _line_count(buf, end: int) -> int:
    """The line ends in buf[:end], a block of _line_blocks, as _lines finds them. Only the file's last
    block can end in a line without one, and no block follows it."""
    count = int(np.count_nonzero(np.frombuffer(buf, dtype=np.uint8, count=end) == ord("\n")))
    if b"\r" in buf:  # a \r ends a line, unless a \n follows it
        count += buf.count(b"\r", 0, end) - buf.count(b"\r\n", 0, end)
    return count


def _jsonl_columns(path, handle, columns: dict, before: int = 0) -> dict:
    """Columns of the JSONL lines in the rest of a binary file, `before` lines into it.

    The file is read in blocks of whole lines (_line_blocks), parsed by _threaded
    as they are read, so that only a few blocks per thread are held at once. A
    block in the writers' layout is read by _jsonl_block without a dict per line:
    every line exactly `{"k1":v1,...,"km":vm}\\n` with the keys of `columns` in
    order, integers of at most 18 digits without a leading zero, numbers that
    floattext.parse's lanes hold (every float repr prints), strings in ASCII,
    and no token wider than the block's mean line, so that the words gathered
    for a column stay within the block's size. A block is taken whole or not at
    all: any other block, valid or not, is read by the general rules alone
    (_lines, _jsonl_objects and _object_columns), its lines numbered on from the
    file lines ahead of it; they report its errors, and the first block that
    holds one raises. Both give the same columns for every block _jsonl_block
    accepts.
    """

    def parse(item):
        block, before = item
        part = _jsonl_block(block, columns)
        if part is None:
            lines = _lines(_decode(path, block[:-_PAD].tobytes()))
            part = _object_columns(path, lines, _jsonl_objects(path, lines, before), columns, before)
        return part

    parts = list(_threaded(parse, _line_blocks(handle, before)))
    out = {}
    for key, kind in columns.items():
        if kind is str:  # the sorted union of the blocks' names; each block's codes remapped into it
            names = tuple(sorted(set().union(*(part[key][0] for part in parts))))
            index = {name: i for i, name in enumerate(names)}
            for part in parts:
                block_names, ids = part[key]
                part[key] = np.array([index[name] for name in block_names], dtype=np.int64)[ids]
        column = np.empty(sum(len(part[key]) for part in parts), dtype=np.float64 if kind is float else np.int64)
        at = 0
        for part in parts:  # each block's piece is freed once copied
            piece = part.pop(key)
            column[at : at + len(piece)] = piece
            at += len(piece)
        out[key] = (names, column) if kind is str else column
    return out


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 at each byte offset of a uint8 buffer at which 8 bytes remain."""
    return np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))


_FIRST = floattext._BELOW[0]  # _FIRST[c]: the mask of a word's first c <= 8 bytes
_SHIFTS = 64 - 8 * np.arange(9, dtype=np.uint64)  # _SHIFTS[c]: moves a word's first c bytes to its end


def _jsonl_block(buf: np.ndarray, columns: dict) -> dict | None:
    """Columns of a block of whole lines and _PAD bytes, as _line_blocks yields it, in _jsonl_columns's
    layout, or None."""
    size = len(buf) - _PAD
    if buf[size - 1] != ord("\n"):  # the file's last line is unterminated
        return None
    ends = np.flatnonzero(buf[:size] == ord("\n"))
    n = len(ends)
    begins = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(buf[:size] == ord(","))
    if len(commas) != n * (len(columns) - 1):
        return None
    commas = commas.reshape(n, len(columns) - 1)  # a comma in another line than its row's leaves a field short
    if (buf[ends - 1] != ord("}")).any():
        return None
    field_begins = [begins] + [commas[:, k] + 1 for k in range(len(columns) - 1)]
    field_ends = [commas[:, k] for k in range(len(columns) - 1)] + [ends - 1]
    words = _words(buf)
    out = {}
    for k, (key, kind) in enumerate(columns.items()):
        tag = (("{" if k == 0 else "") + json.dumps(key) + ":").encode()
        token_begins = field_begins[k] + len(tag)
        lengths = field_ends[k] - token_begins
        if lengths.min() < 1:
            return None
        if (lengths.max() + 1) * n > size:  # one long token would make every row as wide
            return None
        for at in range(0, len(tag), 8):  # 8 bytes at a time, in words that end before the token's
            piece = tag[at : at + 8]
            if ((words[field_begins[k] + at] & _FIRST[len(piece)]) != int.from_bytes(piece, "little")).any():
                return None
        if kind is str:
            column = _str_tokens(buf, token_begins, lengths)
            if column is None:
                return None
        else:
            column, left = (_int_words if kind is int else floattext.parse)(buf, token_begins, lengths)
            if len(left):
                return None
        out[key] = column
    return out


def _int_words(buf, begins, lengths) -> tuple[np.ndarray, np.ndarray]:
    """(values, left): each token's int64, except at the indices `left`, whose tokens are not 1 to 18
    ASCII digits without a leading zero. Each of a token's words, flipped with 0x30 bytes and moved
    to the word's end, holds digit values, if adding 0x76 sets no byte's high bit (SWAR)."""
    values = np.zeros(len(begins), dtype=np.uint64)
    left = (lengths < 1) | (lengths > 18)
    words, ends = _words(buf), begins + lengths
    for at in range(0, min(int(lengths.max(initial=0)), 24), 8):
        count = np.clip(lengths - at, 0, 8)
        word = words[np.minimum(begins + at, ends)]  # past the token: read at its end, then shifted out
        if not at:
            left |= ((word & 0xFF) == ord("0")) & (lengths > 1)  # a leading zero
        digits = (word ^ floattext._ZEROS) << _SHIFTS[count]
        left |= (((digits + 0x7676_7676_7676_7676) | digits) & 0x8080_8080_8080_8080) != 0
        values = values * floattext._POW10[count] + floattext._unswar8(digits)
    return values.view(np.int64), np.flatnonzero(left)


# Odd multiplier of _str_tokens's row hash: 2**64 over the golden ratio.
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)


def _str_tokens(buf, begins, lengths):
    if ((buf[begins] != ord('"')) | (buf[begins + lengths - 1] != ord('"'))).any():
        return None
    # Factorize the tokens by their words, zero past each token's end: a multiply-add hash per row,
    # then an exact check of every row against the row its hash picks.
    words, ends = _words(buf), begins + lengths
    rows = [
        words[np.minimum(begins + at, ends)] & _FIRST[np.clip(lengths - at, 0, 8)] for at in range(0, lengths.max(), 8)
    ]
    hashes = rows[0]
    for row in rows[1:]:
        hashes = hashes * _ROW_HASH + row
    _, inverse = np.unique(hashes, return_inverse=True)
    picked = np.empty(inverse.max() + 1, dtype=np.int64)
    picked[inverse] = np.arange(len(inverse))  # a row of each hash
    picks = [row[picked] for row in rows]
    if not all((pick[inverse] == row).all() for pick, row in zip(picks, rows)):
        return None  # two distinct tokens share a hash
    values = []
    # A token ends in its closing quote, so the NUL padding that S strips is never part of it.
    for token in np.stack(picks, axis=1).view(f"S{8 * len(rows)}").ravel().tolist():
        if not token.isascii():  # json.loads would let encoded surrogates through
            return None
        try:
            values.append(json.loads(token))
        except ValueError:
            return None
    names, codes = _factorize(values)
    return names, codes[inverse]


def _factorize(values: list) -> tuple[tuple, np.ndarray]:
    """(sorted distinct values, int64 index of each value among them)."""
    names = tuple(sorted(set(values)))
    index = {name: i for i, name in enumerate(names)}
    return names, np.array([index[v] for v in values], dtype=np.int64)


# Rows per block of _write_jsonl_columns: a few MB of matrix per thread whatever the row count.
_BLOCK_ROWS = 32_768


def _write_jsonl_columns(path, head: bytes, columns: dict, values: dict) -> None:
    """Write `head`, then one `{"k1":v1,...,"km":vm}\\n` line per row: the layout _jsonl_columns reads.

    values maps each key to an int or float array, or to (names, each row's
    index in names). Integers print as %d, floats as repr (floattext). Every
    block of rows is one (rows, width) uint8 matrix of broadcast key literals
    and zero-padded values, built by _threaded. No token holds a NUL byte
    (json.dumps escapes U+0000; digits and repr have none), so dropping the
    zero bytes leaves exactly the lines. Every check runs before the file is opened.
    """
    literals, cells = [], []  # per key: its literal, and (column, block of column -> cell matrix)
    for k, (key, kind) in enumerate(columns.items()):
        literals.append(np.frombuffer((("{" if k == 0 else ",") + json.dumps(key) + ":").encode(), dtype=np.uint8))
        if kind is str:
            names, ids = values[key]
            if len(ids) and not 0 <= ids.min() <= ids.max() < len(names):
                raise IndexError(f"{key} ids must lie in [0, {len(names)})")
            table = np.array([json.dumps(name).encode() for name in names], dtype="S")
            cells.append((ids, table.view(np.uint8).reshape(len(table), table.itemsize).__getitem__))
        else:
            cells.append((values[key], _int_matrix if kind is int else floattext.cells))
    line_end = np.frombuffer(b"}\n", dtype=np.uint8)
    rows = len(cells[0][0])
    if any(len(column) != rows for column, _ in cells):
        raise ValueError(f"columns {'/'.join(columns)} differ in length")

    def block(start: int) -> np.ndarray:  # the bytes of rows [start, start + _BLOCK_ROWS)
        n = min(_BLOCK_ROWS, rows - start)
        parts = []
        for literal, (column, cell_matrix) in zip(literals, cells):
            parts += [np.broadcast_to(literal, (n, len(literal))), cell_matrix(column[start : start + n])]
        matrix = np.concatenate(parts + [np.broadcast_to(line_end, (n, 2))], axis=1).ravel()
        return matrix[matrix != 0]

    with open(path, "wb") as handle:
        handle.write(head)
        for data in _threaded(block, range(0, rows, _BLOCK_ROWS)):
            handle.write(data)


def _int_matrix(values: np.ndarray) -> np.ndarray:
    """Each integer as the bytes of %d, right-aligned, after a sign column when any is negative."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude[negative] = -magnitude[negative]  # uint64 negation is exact for -2**63 too
    width = len(str(int(magnitude.max())))
    matrix = np.zeros((len(values), width + bool(negative.any())), dtype=np.uint8)
    for c in range(1, width + 1):
        quotient = magnitude // 10
        digit = (magnitude - quotient * 10).astype(np.uint8) + ord("0")
        matrix[:, -c] = np.where((magnitude > 0) | (c == 1), digit, 0)
        magnitude = quotient
    matrix[negative, 0] = ord("-")
    return matrix


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
    try:
        return [condition_from_dict(item) for item in raw]
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


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
    try:
        return registry_from_list(data)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


def save_registry(registry, path) -> None:
    save_json({"datasets": registry_as_list(registry)}, path)


# -- manifests ----------------------------------------------------------------


def write_manifest(manifest: Manifest, path) -> None:
    """One header line, then one compact event object per step."""
    header = json.dumps(manifest.header(), separators=(",", ":")) + "\n"
    names = (manifest.dataset_names, manifest.dataset_ids)
    events = {"step": manifest.steps, "stage": manifest.stages, "dataset": names, "instance": manifest.instances}
    _write_jsonl_columns(path, header.encode(), EVENT_COLUMNS, events)


def _check_manifest_header(path, header) -> dict[int, int]:
    """Check a manifest's header line and return its stage_steps as {stage index: steps}."""
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise FormatError(
            f"{path}: first line must be a manifest header with format {MANIFEST_FORMAT!r}"
        )
    where = f"{path}: manifest header"
    kinds = {"condition": str, "registry_digest": str, "generator": str, "stage_steps": dict}
    declared = fields.read(header, where, kinds)["stage_steps"]
    fields.check(header.get("seed"), f"{where} seed", int, FormatError, low=0, high=2**64)
    stage_steps = {}
    for key, steps in declared.items():
        if not (key.isascii() and key.isdigit() and key[0] != "0"):
            raise FormatError(f"{where} stage_steps key {key!r} is not a stage index")
        stage_steps[int(key)] = fields.check(steps, f"{where} stage_steps {key}", int, FormatError, low=0)
    return stage_steps


def _manifest_header(path, handle) -> tuple:
    """(header, its stage_steps, count of file lines up to it) of a manifest open in binary, whose header is
    its first non-blank line. Lines end at \\n, \\r\\n or \\r, as in _lines. Only the lines up to the header are
    decoded, so a fault in the header is reported before any in the events; the handle is left at its end."""
    buf = bytearray()
    at = number = 0  # the offset in buf of the line, and its number
    while True:
        cut = min((i for i in (buf.find(b"\r", at), buf.find(b"\n", at)) if i >= 0), default=len(buf))
        if cut >= len(buf) - 1:  # no line end yet, or a \r that may begin a \r\n
            more = handle.read(max(io.DEFAULT_BUFFER_SIZE, len(buf)))
            if more:
                buf += more
                continue
            if at == len(buf):
                raise FormatError(f"{path}: empty file, expected a manifest header line")
        number += 1
        line = _decode(path, buf[at:cut])
        at = cut + (1 + (buf[cut : cut + 2] == b"\r\n") if cut < len(buf) else 0)
        if line.strip():
            handle.seek(at)
            header = _parse(path, line, number)
            return header, _check_manifest_header(path, header), number


def read_manifest_header(path) -> dict:
    """The header of a manifest, as read_manifest takes it, read without the events after it."""
    with open(path, "rb") as handle:
        return _manifest_header(path, handle)[0]


def _check_manifest_events(path, stage_steps: dict[int, int], steps: np.ndarray, stages: np.ndarray) -> None:
    """Refuse events that break the header: steps 0..N-1, each stage's stage_steps of them in
    index order. Checked in slices, so no temporary is as long as the file."""
    total = sum(stage_steps.values())
    if len(steps) != total:
        raise FormatError(f"{path}: manifest has {len(steps)} events, its header declares {total}")
    start = 0
    for stage, count in sorted(stage_steps.items()):
        if not (stages[start : start + count] == stage).all():
            raise FormatError(f"{path}: manifest events {start}..{start + count - 1} are not all of stage {stage}")
        start += count
    for start in range(0, total, _BLOCK_ROWS):
        block = steps[start : start + _BLOCK_ROWS]
        if not (block == np.arange(start, start + len(block))).all():
            raise FormatError(f"{path}: manifest event steps are not 0..{total - 1} in order")


def read_manifest(path) -> Manifest:
    with open(path, "rb") as handle:
        header, stage_steps, before = _manifest_header(path, handle)
        columns = _jsonl_columns(path, handle, EVENT_COLUMNS, before)
    _check_manifest_events(path, stage_steps, columns["step"], columns["stage"])
    names, dataset_ids = columns["dataset"]
    return Manifest(
        condition_id=header["condition"],
        seed=header["seed"],
        registry_digest=header["registry_digest"],
        generator=header["generator"],
        stage_steps=stage_steps,
        dataset_names=names,
        steps=columns["step"],
        stages=columns["stage"],
        dataset_ids=dataset_ids,
        instances=columns["instance"],
    )


# -- loss traces ----------------------------------------------------------------


def save_loss_trace(trace: LossTrace, path) -> None:
    if not np.isfinite(trace.losses).all():  # repr of inf or nan is not JSON: refuse, write nothing
        trace.validate()
    records = {"step": trace.steps, "stage": trace.stages, "loss": trace.losses}
    _write_jsonl_columns(path, b"" if len(trace) else b"\n", LOSS_COLUMNS, records)  # empty: one newline, as ever


def _stage_sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".stages.json")


def _stages_from_boundaries(steps: np.ndarray, boundaries, origin: str) -> np.ndarray:
    boundaries = fields.check(boundaries, f"{origin}: boundaries", list, FormatError, empty=False)
    parsed = [
        tuple(fields.read(raw, f"{origin}: boundary {pos}", {"start_step": int, "stage": int}).values())
        for pos, raw in enumerate(boundaries, start=1)
    ]
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
    with open(path, "rb") as handle:
        columns = _jsonl_columns(path, handle, LOSS_COLUMNS)
    trace = LossTrace(steps=columns["step"], stages=columns["stage"], losses=columns["loss"])
    trace.validate()
    return trace


def _load_loss_csv(path) -> LossTrace:
    sidecar = _stage_sidecar_path(path)
    if not sidecar.exists():
        raise FormatError(f"{path}: CSV loss logs need a stage sidecar at {sidecar}")
    boundaries = fields.read(load_json(sidecar), f"{sidecar}:", {"boundaries": list})["boundaries"]
    rows = _csv_rows(path)
    if not rows or [h.strip() for h in rows[0][:2]] != ["step", "loss"]:
        raise FormatError(f"{path}: CSV loss logs need a 'step,loss' header")
    steps, losses = _csv_loss_columns(path, rows[1:])
    stages = _stages_from_boundaries(steps, boundaries, str(sidecar))
    trace = LossTrace(steps=steps, stages=stages, losses=losses)
    trace.validate()
    return trace


def _csv_loss_columns(path, rows) -> tuple[np.ndarray, np.ndarray]:
    """The step and loss columns of CSV rows. Each cell is read as JSON, with spaces around it, so that
    a step follows the integer rule and a loss the number rule, as in JSONL: by the column reader's
    token parsers, and the rows of the cells they leave one by one, where a cell that breaks its rule
    is a FormatError naming its row."""
    try:
        step_cells, loss_cells = [row[0].strip() for row in rows], [row[1].strip() for row in rows]
    except IndexError:
        number = next(number for number, row in enumerate(rows, start=2) if len(row) < 2)
        raise FormatError(f"{path}: row {number} needs step,loss") from None
    steps, odd_steps = _csv_column(step_cells, _int_words, np.int64)
    losses, odd_losses = _csv_column(loss_cells, floattext.parse, np.float64)
    for i in np.union1d(odd_steps, odd_losses).tolist():
        step, loss = json_value(step_cells[i]), json_value(loss_cells[i])
        message = fields.problem(step, "step") or fields.problem(loss, "loss", float)
        if message:
            raise FormatError(f"{path}: row {i + 2} {message}")
        steps[i], losses[i] = step, loss
    return steps, losses


def _csv_column(cells: list[str], parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(values, left) of `parse`, a token parser, on the cells as the tokens of one uint8 buffer, in
    blocks on the reader's threads. A non-ASCII character is a byte '?', which no token parser takes."""
    lengths = np.array([len(cell) for cell in cells], dtype=np.int64)
    buf = np.frombuffer((",".join(cells) + "," + "\0" * _PAD).encode("ascii", "replace"), dtype=np.uint8)
    begins = np.cumsum(lengths + 1) - lengths - 1

    def block(start: int):
        values, left = parse(buf, begins[start : start + _BLOCK_ROWS], lengths[start : start + _BLOCK_ROWS])
        return values, left + start

    blocks = list(_threaded(block, range(0, len(cells), _BLOCK_ROWS))) or [(np.zeros(0, dtype), np.zeros(0, int))]
    values, left = zip(*blocks)
    return np.concatenate(values), np.concatenate(left)


def json_value(text: str):
    """The JSON value that text spells, or else the text: how a CSV loss log's cells and the command
    line's values are read, before fields' rules check them. JSON's digits are ASCII."""
    if text.isascii():
        try:
            return json.loads(text)
        except (ValueError, RecursionError):
            pass
    return text


# -- eval logs ------------------------------------------------------------------


def load_eval_log(path) -> list[EvalSnapshot]:
    """Read per-task scores and group them into per-step snapshots."""
    lines = _lines(_read_text(path))
    records = _jsonl_objects(path, lines)
    by_step: dict[int, dict[str, Decimal]] = {}
    for index, record in enumerate(records):
        if not isinstance(record, dict) or not {"step", "task", "score"} <= record.keys():
            message = "needs step/task/score"
        else:
            message = fields.problem(record["step"], "step") or fields.problem(record["task"], "task", str)
        if message:
            raise FormatError(f"{path}: line {_line_number(lines, index)} {message}")
        step, task = record["step"], record["task"]
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


def _csv_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None


def _csv_table(path, kind: str, columns, parse_row) -> list:
    """`parse_row` of every row after the header `columns`; a bad number is a FormatError."""
    rows = _csv_rows(path)
    header = rows[0] if rows else None
    if header != list(columns):
        raise FormatError(f"{path}: unexpected {kind} CSV header {header!r}")
    out = []
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {number} has {len(row)} fields, expected {len(header)}")
        try:
            out.append(parse_row(row))
        except (ValueError, ArithmeticError):  # int() and Decimal() of a non-number
            raise FormatError(f"{path}: row {number} holds a value that is not a number") from None
    return out


def read_comparison_csv(path) -> list[tuple[str, dict[str, Decimal]]]:
    def parse_row(row):
        return row[0], {col: Decimal(v) for col, v in zip(COMPARISON_COLUMNS, row[1:])}

    return _csv_table(path, "comparison", ("condition", *COMPARISON_COLUMNS), parse_row)


def write_trajectory_csv(points, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_COLUMNS)
        writer.writerows([point.step, *point.scores.as_dict().values()] for point in points)


def read_trajectory_csv(path) -> list[TrajectoryPoint]:
    def parse_row(row):
        scores = AggregateScores(**{col: Decimal(v) for col, v in zip(TRAJECTORY_COLUMNS[1:], row[1:])})
        return TrajectoryPoint(step=int(row[0]), scores=scores)

    return _csv_table(path, "trajectory", TRAJECTORY_COLUMNS, parse_row)


# -- simulation specs --------------------------------------------------------------


def _sim_seed(data: dict, path) -> int | None:
    seed = data.get("seed")
    return None if seed is None else fields.check(seed, f"{path}: seed", int, FormatError, low=0, high=None)


def load_loss_spec(path) -> LossTraceSpec:
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("stages"), list):
        raise FormatError(f"{path}: expected an object with a 'stages' list")
    spec = fields.read(data, f"{path}:", {"injections": list, "log_interval": int}, injections=[], log_interval=1)
    stage_kinds = {"index": int, "steps": int, "amplitude": float, "tau": float, "noise": float}
    stages = tuple(
        SimStage(**fields.read(raw, f"{path}: stage {pos}", stage_kinds, index=pos, noise=0.0))
        for pos, raw in enumerate(data["stages"], start=1)
    )
    injections = tuple(
        Injection(**fields.read(raw, f"{path}: injection {pos}", {"step": int, "multiplier": float}))
        for pos, raw in enumerate(spec["injections"], start=1)
    )
    return LossTraceSpec(stages, spec["log_interval"], injections, _sim_seed(data, path))


def load_capability_spec(path) -> tuple[CapabilityModelSpec, int | None]:
    """Read a capability sim spec; returns (model, seed or None)."""
    data = load_json(path)
    raw = fields.read(data, f"{path}:", {"model": dict}, model={})["model"]
    defaults = CapabilityModelSpec()
    kinds = {"baseline": float, "ceiling": float, "scale": float, "noise": float}
    kinds.update(eval_interval=int, weights=dict)
    try:
        model = fields.read(raw, "model", kinds, **{key: getattr(defaults, key) for key in kinds})
        model["weights"] = {
            group: {
                name: fields.check(alpha, f"model weights {group} {name}", float, FormatError)
                for name, alpha in fields.check(alphas, f"model weights {group}", dict, FormatError).items()
            }
            for group, alphas in model["weights"].items()
        }
    except FormatError as err:
        raise FormatError(f"{path}: model fields must be numbers ({err})") from None
    return CapabilityModelSpec(**model), _sim_seed(data, path)
