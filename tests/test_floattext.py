"""floattext.cells prints every float64 with exactly the bytes of repr; floattext.parse reads every
token repr writes, and every other JSON number token its lanes hold, to exactly json.loads's float64.
It leaves the rest, so that the column reader refuses their block, which the general rules then read."""

import io
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stagemix import StagemixError, load_loss_trace
from stagemix.floattext import cells, parse
from stagemix.formats import _jsonl_columns

MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min
# JSON's number grammar; its digits are ASCII.
NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def reprs(values) -> list[bytes]:
    return [repr(v).encode() for v in values]


def printed(values) -> list[bytes]:
    return [row.tobytes().rstrip(b"\0") for row in cells(np.array(values, dtype=np.float64))]


def with_neighbours(values) -> list[float]:
    """Each value, one ulp below and one above, and all of them negated."""
    x = np.array(values, dtype=np.float64)
    near = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([near, -near]).tolist()


def assert_repr(values):
    want = reprs(values)
    got = printed(values)
    wrong = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert wrong == [], f"{len(wrong)} of {len(values)} differ, first {wrong[:3]}"


def test_powers_of_two():
    assert_repr(with_neighbours([2.0**e for e in range(-1074, 1024)]))


def test_powers_of_ten():
    assert_repr(with_neighbours([float(f"1e{n}") for n in range(-323, 309)]))


def test_subnormal_normal_boundary():
    below = np.nextafter(MIN_NORMAL, 0.0)
    assert_repr(with_neighbours([MIN_NORMAL, below, 2 * MIN_NORMAL, MIN_NORMAL + below]))


def test_integers_near_two_to_the_53():
    assert_repr(with_neighbours([float(2**53 + i) for i in range(-64, 65)] + [float(2**54 + 4 * i) for i in range(9)]))


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, b"0.0"),
        (-0.0, b"-0.0"),
        (5e-324, b"5e-324"),
        (MAX, b"1.7976931348623157e+308"),
        (-MAX, b"-1.7976931348623157e+308"),
        (1e-4, b"0.0001"),
        (9.999999999999999e-05, b"9.999999999999999e-05"),
        (1e16, b"1e+16"),
        (9999999999999998.0, b"9999999999999998.0"),
        (123.0, b"123.0"),
        (0.001234, b"0.001234"),
        (1.5e300, b"1.5e+300"),
        (float("inf"), b"inf"),
        (float("-inf"), b"-inf"),
        (float("nan"), b"nan"),
    ],
)
def test_edges_and_layout_switches(value, text):
    assert printed([value]) == [text] == reprs([value])


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64).tolist())


def test_rows_are_nul_padded_to_the_longest():
    matrix = cells(np.array([1.0, -2.5e-300, 0.5]))
    assert matrix.dtype == np.uint8 and matrix.shape == (3, len("-2.5e-300"))
    assert matrix[0].tobytes() == b"1.0" + b"\0" * 6
    assert cells(np.zeros(0)).shape[0] == 0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_hypothesis_floats(values):
    assert_repr(values)


def parsed(tokens: list[bytes], key: bytes = b'{"stage":-1.5e+5,"loss":') -> tuple[np.ndarray, np.ndarray]:
    """floattext.parse's (values, left) of the tokens, each after `key` on a line of its own, as the
    column reader meets them in a loss log. The key holds every byte class a number does."""
    lines = [key + token + b"}\n" for token in tokens]
    begins = np.cumsum([0] + [len(line) for line in lines[:-1]]) + len(key)
    buf = np.frombuffer(b"".join(lines), dtype=np.uint8)
    return parse(buf, begins, np.array([len(token) for token in tokens]))


def loaded(tokens: list[bytes]) -> np.ndarray:
    """The float column the reader loads from a log of the tokens, one per line."""
    data = b"".join(b'{"loss":%s}\n' % token for token in tokens)
    return _jsonl_columns("log.jsonl", io.BytesIO(data), {"loss": float})["loss"]


def assert_bits(tokens: list[bytes], got: np.ndarray, want: np.ndarray):
    pairs = zip(tokens, got.view(np.uint64).tolist(), want.view(np.uint64).tolist())
    wrong = [(t, g, w) for t, g, w in pairs if g != w]
    assert wrong == [], f"{len(wrong)} of {len(tokens)} differ, first {wrong[:3]}"


def assert_json(tokens: list[bytes]) -> list[bytes]:
    """The lanes give json.loads's float64 for every token they do not leave, bit for bit, and the
    reader, which refuses a block holding a token they leave, gives it for every token. Returns the
    tokens the lanes leave."""
    want = np.array([float(json.loads(token)) for token in tokens])
    values, left = parsed(tokens)
    taken = np.ones(len(tokens), dtype=bool)
    taken[left] = False
    assert_bits([t for t, keep in zip(tokens, taken) if keep], values[taken], want[taken])
    if len(left):
        assert_bits(tokens, loaded(tokens), want)
    return [tokens[i] for i in left.tolist()]


# The lanes leave no token that repr writes: a log that the writer wrote is read by columns whole.


def test_parse_powers_of_two_and_ten():
    values = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{n}") for n in range(-323, 309)]
    assert assert_json(reprs(with_neighbours(values))) == []


def test_parse_subnormal_normal_boundary():
    below = np.nextafter(MIN_NORMAL, 0.0)
    assert assert_json(reprs(with_neighbours([MIN_NORMAL, below, 2 * MIN_NORMAL, MIN_NORMAL + below]))) == []
    assert_json([b"2.2250738585072011e-308", b"2.2250738585072012e-308"])
    assert_json([b"4.9406564584124654e-324", b"2.4703282292062328e-324", b"2.4703282292062327e-324"])


def test_parse_random_bit_patterns():
    bits = np.random.default_rng(20211).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert assert_json(reprs(values[np.isfinite(values)].tolist())) == []


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_parse_hypothesis_floats(values):
    assert assert_json(reprs(values)) == []


def test_parse_leaves_only_what_its_lanes_cannot_hold():
    # over 24 bytes, over 19 digits, an exponent part of over 6 bytes, or not a JSON number
    values = np.random.default_rng(5).standard_normal(5000) * 10.0 ** np.arange(-320, 300, 0.124)[:5000]
    held = reprs(values.tolist()) + [b"0", b"-0", b"0.0", b"1e5", b"-2.5E-7", b"1234567890123456789e-342"]
    beyond = [b"1" * 20, b"1.5e0000001", b"0." + b"0" * 22 + b"1", b"01", b"NaN", b"1e"]
    tokens = held + beyond
    lengths = np.array([len(token) for token in tokens])
    begins = np.cumsum(lengths + 1) - lengths - 1
    values, left = parse(np.frombuffer(b",".join(tokens), dtype=np.uint8), begins, lengths)
    assert left.tolist() == list(range(len(held), len(tokens)))
    assert values[: len(held)].tobytes() == np.array([float(json.loads(t)) for t in held]).tobytes()


@given(st.lists(st.text(alphabet="019.eE+-x", min_size=1, max_size=26), min_size=1, max_size=40))
def test_parse_decides_only_json_numbers(texts):
    # every lane that parse does not leave holds a JSON number, read as json.loads reads it
    tokens = [text.encode() for text in texts]
    lengths = np.array([len(token) for token in tokens])
    begins = np.cumsum(lengths + 1) - lengths - 1
    values, left = parse(np.frombuffer(b",".join(tokens), dtype=np.uint8), begins, lengths)
    for i in sorted(set(range(len(tokens))) - set(left.tolist())):
        assert NUMBER.fullmatch(texts[i]), texts[i]
        assert values[i : i + 1].tobytes() == np.array([float(json.loads(texts[i]))]).tobytes(), texts[i]


def long_tokens(seed: int, count: int) -> list[bytes]:
    """Tokens of 17 to 19 significant digits in every layout JSON allows, none of them repr's."""
    rng = np.random.default_rng(seed)
    out = []
    for digits, q in zip(rng.integers(17, 20, count).tolist(), rng.integers(-330, 300, count).tolist()):
        w = str(int(rng.integers(10 ** (digits - 1), 10**digits, dtype=np.uint64)))
        point = int(rng.integers(1, digits))
        fraction = f"{w[:point]}.{w[point:]}E+{q:03d}" if q >= 0 else f"-{w[:point]}.{w[point:]}e{q}"
        out += [f"{w}e{q}", fraction, f"0.{w}"]
    return [token.encode() for token in out]


def test_parse_tokens_that_are_not_shortest():
    assert_json(long_tokens(7, 3000))
    assert_json([b"1E5", b"1e+05", b"1e-05", b"1e5", b"0e0", b"0E-0", b"-0e7", b"100"])
    assert_json([b"1.50000", b"2.000000000000000000000", b"0.10000000000000000555"])
    assert_json([b"9007199254740993", b"9007199254740993.0", b"18446744073709551615", b"123456789012345678.9e-3"])


@pytest.mark.parametrize(
    "token, value, lanes",
    [
        (b"-0", 0.0, True),  # json reads the integer -0 as 0
        (b"-0.0", -0.0, True),
        (b"1e400", float("inf"), True),
        (b"-1e-400", -0.0, True),
        (b"1234567890123456789012345", 1.2345678901234568e24, False),  # 25 digits: more than the lanes hold
        (b"0.0000000000000000000000001234", 1.234e-25, False),  # 30 bytes
        (b" 1", 1.0, False),  # spaces JSON allows around a value
        (b"1 ", 1.0, False),
    ],
)
def test_parse_edges(token, value, lanes):
    want = np.array([value]).tobytes()
    assert np.array([float(json.loads(token))]).tobytes() == want
    for tokens in ([token], [b"3.5126547790869873", token]):  # alone, and after a token of 17 significant digits
        values, left = parsed(tokens)
        assert left.tolist() == ([] if lanes else [len(tokens) - 1])
        if lanes:
            assert values[-1:].tobytes() == want
        assert loaded(tokens)[-1:].tobytes() == want


def test_parse_short_decimals_and_the_first_bytes_of_a_buffer():
    tokens = [b"2.5", b"-3.25", b"0.1", b"7", b"-0", b"0.0", b"1e-5", b"22e22"]
    assert assert_json(tokens) == []
    values, left = parsed(tokens, key=b"")
    assert left.tolist() == []
    assert values.tobytes() == np.array([float(json.loads(t)) for t in tokens]).tobytes()


@pytest.mark.parametrize(
    "token",
    [b"01", b"1.", b".5", b"+1", b"1e", b"-", b"1e+", b"-01", b"1.e5", b"1.5.5", b"1e5e5", b"1-2", b"1+",
     b"NaN", b"Infinity", b"-Infinity", b"true", b'"3.5"', b"1\xff", b"\xd9\xa3", b"1" + b"0" * 400],
)
def test_reader_refuses_what_is_not_a_json_number(tmp_path, token):
    # a token json.loads does not read as a number, or reads as one beyond float64: the lanes leave it, the
    # column reader refuses its block, and the general rules refuse the log
    tokens = [b"1.5", token, b"2.5"]
    assert parsed(tokens)[1].tolist() == [1]
    path = tmp_path / "loss.jsonl"
    path.write_bytes(b"".join(b'{"step":%d,"stage":1,"loss":%s}\n' % (step, t) for step, t in enumerate(tokens)))
    with pytest.raises(StagemixError):
        load_loss_trace(path)
