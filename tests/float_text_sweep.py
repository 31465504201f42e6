"""Sweep the array float-text kernel against repr on random bit patterns.

    PYTHONPATH=src python tests/float_text_sweep.py [--count N] [--seed S]

Draws N uniform uint64 bit patterns (default 10**7) in chunks, formats
them with float_text.shortest_texts and with float.__repr__, and exits 1
on the first chunk with a mismatch, printing a few of them.  Zeros,
infinities and NaNs go through repr on both sides.  pytest does not
collect this file; CI runs it as its own step on every numpy it tests.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from forensic_bias.float_text import shortest_texts

CHUNK = 10**6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7, help="bit patterns to check")
    parser.add_argument("--seed", type=int, default=2020, help="seed of the bit patterns")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    for done in range(0, args.count, CHUNK):
        bits = rng.integers(0, 2**64, min(CHUNK, args.count - done), dtype=np.uint64)
        got = shortest_texts(bits).tolist()
        want = list(map(float.__repr__, bits.view(np.float64).tolist()))
        if got != want:
            bad = [(hex(b), g, w) for b, g, w in zip(bits.tolist(), got, want) if g != w]
            print(f"{len(bad)} mismatches in patterns {done}..{done + bits.size - 1}:", file=sys.stderr)
            for pattern, g, w in bad[:10]:
                print(f"  {pattern}: kernel {g!r}, repr {w!r}", file=sys.stderr)
            return 1
    elapsed = time.perf_counter() - started
    print(f"{args.count} bit patterns (seed {args.seed}) match repr; numpy {np.__version__}, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
