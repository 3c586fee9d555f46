#!/usr/bin/env python3
"""Time and memory of the block-telescoping decompositions on fixed inputs.

Runs ``summation_by_parts_1d`` at (n, j) = (96, 6) and (512, 8) and
``summation_by_parts_2d`` at (side, j) = (8, 3), (16, 4) and (32, 5), each on
the embedding of one random complex matrix (seed 0) on a centred window of n
or side x side points: the 1-d calls with the catalog symbol
``smooth_homogeneous``, the 2-d calls with a callback symbol. Prints, per
size, the median wall time of ``--repeat`` calls and the tracemalloc peak of
one more call, traced on its own so tracing does not slow the timed calls:

    OPENBLAS_NUM_THREADS=1 python3 tools/sbp_cost.py --repeat 5
    OPENBLAS_NUM_THREADS=1 python3 tools/sbp_cost.py --src ../parent/src

``--src`` picks the package to import (default: this checkout's ``src/``), so
one copy of the script measures two checkouts alike.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = (("summation_by_parts_1d", 1, 96, 6), ("summation_by_parts_1d", 1, 512, 8),
         ("summation_by_parts_2d", 2, 8, 3), ("summation_by_parts_2d", 2, 16, 4),
         ("summation_by_parts_2d", 2, 32, 5))


def _callback_2d(s, t):
    return np.cos(0.4 * s[:, 0] - 0.9 * t[:, 1]) / (1.0 + ((s - t) ** 2).sum(axis=1))


def inputs(sk, d: int, n: int):
    """The symbol and the embedded random matrix on the centred window of n
    points per axis."""
    window = sk.Box.cube(-(n // 2), n - n // 2, d)
    size = window.npoints
    rng = np.random.default_rng(0)
    A = sk.LabeledMatrix(window, window, rng.standard_normal((size, size))
                         + 1j * rng.standard_normal((size, size)))
    m = (sk.catalog("smooth_homogeneous") if d == 1
         else sk.DiscreteSymbol.callback(_callback_2d, d=2))
    return m, sk.pi_embed(A)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per size")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the schurkit package to measure")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    sys.path.insert(0, str(args.src.resolve()))
    import schurkit as sk

    print(f"# schurkit from {Path(sk.__file__).parent}; median of {args.repeat} calls")
    print("call, d, n, j, median_ms, traced_peak_mib, residual")
    for name, d, n, j in SIZES:
        m, f = inputs(sk, d, n)
        call = getattr(sk, name)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            parts = call(m, f, j)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            call(m, f, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        residual = parts.residual / max(parts.direct.max_abs(), 1.0)
        print(f"{name}, {d}, {n}, {j}, {statistics.median(times) * 1e3:.3f}, "
              f"{peak / 2**20:.1f}, {residual:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
