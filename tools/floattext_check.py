"""Check floattext against Python on seeded random float64 bit patterns.

    python tools/floattext_check.py --patterns 10000000 --seed 1

For each pattern x (all 2**64 are equally likely, so about 0.05% are NaN or
infinite) it checks, bit for bit or byte for byte:

* cells(x) against repr(x), for every pattern;
* parse against json.loads, for every finite x, on two tokens: repr(x), and
  |x| printed with 17 to 19 significant digits as an integer and an exponent
  (not the shortest text, so that parse's 64-bit significands hold up to 19 digits);
* parse(cells(x)) == x, for every finite x.

A lane that parse leaves to its caller (the column reader, which then reads
the token's whole block by the general JSON rules) counts as a mismatch, since
none of these tokens is beyond its lanes. It prints one
line per check and exits 1 if any check found a mismatch.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagemix.floattext import cells, parse  # noqa: E402

CHUNK = 1_000_000


def parse_tokens(tokens: list[bytes]) -> np.ndarray:
    """parse's values of the tokens, NaN where it left one."""
    lengths = np.array([len(token) for token in tokens])
    begins = np.cumsum(lengths + 1) - lengths - 1
    values, left = parse(np.frombuffer(b",".join(tokens), dtype=np.uint8), begins, lengths)
    values[left] = np.nan
    return values


def _integer_form(text: bytes, places: int) -> bytes:
    """1.25e+03 as 125e1: at most 24 bytes for 19 digits, the width parse's lanes hold."""
    significand, exponent = text.split(b"e")
    return significand.replace(b".", b"") + b"e%d" % (int(exponent) - places)


def bit_mismatches(got: np.ndarray, want) -> int:
    return int(np.count_nonzero(got.view(np.uint64) != np.asarray(want, dtype=np.float64).view(np.uint64)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--patterns", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    names = ("cells vs repr", "parse vs json.loads, repr", "parse vs json.loads, 17-19 digits", "parse(cells(x)) == x")
    counts = {name: [0, 0] for name in names}
    for start in range(0, args.patterns, CHUNK):
        x = rng.integers(0, 2**64, min(CHUNK, args.patterns - start), dtype=np.uint64, endpoint=False).view(np.float64)
        text = cells(x)
        printed = [row.tobytes().rstrip(b"\0") for row in text]
        counts["cells vs repr"][0] += len(x)
        counts["cells vs repr"][1] += sum(p != repr(v).encode() for p, v in zip(printed, x.tolist()))
        finite = np.isfinite(x)
        shortest = [p for p, f in zip(printed, finite.tolist()) if f]
        digits = rng.integers(16, 19, len(shortest)).tolist()
        long = [_integer_form(b"%.*e" % (d, v), d) for d, v in zip(digits, np.abs(x[finite]).tolist())]
        for name, tokens in (("parse vs json.loads, repr", shortest), ("parse vs json.loads, 17-19 digits", long)):
            counts[name][0] += len(tokens)
            counts[name][1] += bit_mismatches(parse_tokens(tokens), [json.loads(t) for t in tokens])
        counts["parse(cells(x)) == x"][0] += len(shortest)
        counts["parse(cells(x)) == x"][1] += bit_mismatches(parse_tokens(shortest), x[finite])
    for name, (checked, wrong) in counts.items():
        print(f"seed {args.seed}: {name}: {wrong} mismatches in {checked}")
    return 1 if any(wrong for _, wrong in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
