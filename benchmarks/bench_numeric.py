"""Benchmark the zeta-evaluation kernel, `numeric._dp_numpy`.

Run:  python3 benchmarks/bench_numeric.py [--terms 200000] [--repeat 3]
(with the package importable, e.g. PYTHONPATH=src)

The workload evaluates every admissible zeta index of weight <= 7 at the
given truncation; the checksum is the sum of the values.
"""

from __future__ import annotations

import argparse
import itertools
import time

import numpy as np

from mzvshuffle.numeric import _dp_numpy


def admissible_indices(max_weight: int):
    for weight in range(2, max_weight + 1):
        for depth in range(1, weight):
            for rest in itertools.product(range(1, weight), repeat=depth - 1):
                k1 = weight - sum(rest)
                if k1 >= 2:
                    yield (k1,) + rest


def run(indices, terms: int) -> float:
    total = 0.0
    for ks in indices:
        value, _ = _dp_numpy(np.asarray(ks, dtype=np.int64), terms)
        total += value
    return total


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--terms", type=int, default=200_000)
    parser.add_argument("--max-weight", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    indices = list(admissible_indices(args.max_weight))
    print(f"workload: {len(indices)} zeta indices of weight <= {args.max_weight}, "
          f"{args.terms} terms each")

    best = float("inf")
    checksum = 0.0
    for _ in range(args.repeat):
        start = time.perf_counter()
        checksum = run(indices, args.terms)
        best = min(best, time.perf_counter() - start)
    print(f" numpy: {best:8.3f} s (best of {args.repeat}), checksum {checksum:.12f}")


if __name__ == "__main__":
    main()
