"""Sweep the array float-text kernel against repr on random bit patterns.

    PYTHONPATH=src python tests/float_text_sweep.py [--count N] [--seed S]

Draws N uniform uint64 bit patterns (default 10**7) in chunks, formats
them with float_text.shortest_texts and with float.__repr__, compares the
kernel's bytes with the UTF-8 bytes of repr's text, and exits 1 on the
first chunk with a mismatch, printing a few of them.  The first
SEP_PATTERNS of each chunk are also formatted with each CSV separator,
shortest_texts(bits, sep) against (repr + sep).encode().  Zeros, infinities and NaNs
go through repr on both sides.  pytest does not collect this file; CI
runs it as its own step on every numpy it tests.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from forensic_bias.float_text import shortest_texts

CHUNK = 10**6
SEP_PATTERNS = 10**5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7, help="bit patterns to check")
    parser.add_argument("--seed", type=int, default=2020, help="seed of the bit patterns")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    for done in range(0, args.count, CHUNK):
        bits = rng.integers(0, 2**64, min(CHUNK, args.count - done), dtype=np.uint64)
        want = list(map(float.__repr__, bits.view(np.float64).tolist()))
        checks = [(bits, "", [w.encode() for w in want])]
        checks += [
            (bits[:SEP_PATTERNS], sep, [(w + sep).encode() for w in want[:SEP_PATTERNS]]) for sep in (",", "\r\n")
        ]
        for patterns, sep, expected in checks:
            got = shortest_texts(patterns, sep).tolist()
            if got != expected:
                bad = [(hex(b), g, w) for b, g, w in zip(patterns.tolist(), got, expected) if g != w]
                print(
                    f"{len(bad)} mismatches with sep {sep!r} in patterns {done}..{done + patterns.size - 1}:",
                    file=sys.stderr,
                )
                for pattern, g, w in bad[:10]:
                    print(f"  {pattern}: kernel {g!r}, repr + sep {w!r}", file=sys.stderr)
                return 1
    elapsed = time.perf_counter() - started
    print(
        f"{args.count} bit patterns (seed {args.seed}) match repr, and repr + sep on the first "
        f"{SEP_PATTERNS} of each chunk of {CHUNK}; numpy {np.__version__}, {elapsed:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
