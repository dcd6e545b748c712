"""Measure where the array PA wave triple starts beating the scalar one.

For each network size, prepare one PA setup on the array engine
(``sqrt(n)``-sized BFS-ball parts), then time one SUM solve — the wave
broadcast, reversal and replay — with the wave pass forced onto the
array kernels and forced onto the scalar programs, alternating, and
report min-of-k array time over scalar time.  The solver rng is reset
before every solve, so both sides run the same delays and ledgers.
``ARRAY_WAVE_MIN_N`` in ``repro.core.array_wave`` is set from this
table: the smallest size from which the ratio stays below 1.

Not a ``bench_*`` file, so the headless runner does not collect it::

    PYTHONPATH=src python benchmarks/wave_crossover.py
    PYTHONPATH=src python benchmarks/wave_crossover.py --graphs grid --repeats 5
"""

from __future__ import annotations

import argparse
import math
import platform
import random
import time

import numpy as np

from repro.core import SUM
from repro.core import array_wave
from repro.core.pa import PASolver
from repro.graphs import bfs_ball_partition, grid_2d, random_regular

SIZES = (288, 384, 512, 640, 768, 960, 1152, 1536, 2048)


def _grid(n: int):
    rows = max(1, int(math.sqrt(n / 2)))
    return grid_2d(rows, n // rows)


def _regular(n: int):
    return random_regular(n, 3, seed=7)


GRAPHS = {"grid": _grid, "regular": _regular}


def _solve_seconds(solver, setup, values, crossover: int) -> float:
    saved = array_wave.ARRAY_WAVE_MIN_N
    array_wave.ARRAY_WAVE_MIN_N = crossover
    solver.rng = random.Random(solver.seed)
    try:
        start = time.perf_counter()
        solver.solve(setup, values, SUM)
        return time.perf_counter() - start
    finally:
        array_wave.ARRAY_WAVE_MIN_N = saved


def measure(kind: str, n: int, repeats: int) -> float:
    """min array solve time / min scalar solve time at this size."""
    net = GRAPHS[kind](n)
    solver = PASolver(net, seed=3)
    setup = solver.prepare(
        bfs_ball_partition(net, max(2, int(math.sqrt(net.n))), seed=5)
    )
    values = [(v * 7 + 3) % 101 for v in range(net.n)]
    array_s, scalar_s = [], []
    for _ in range(repeats):
        array_s.append(_solve_seconds(solver, setup, values, 0))
        scalar_s.append(_solve_seconds(solver, setup, values, net.n + 1))
    return min(array_s) / min(scalar_s)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", default="grid,regular")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    print(
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"{platform.machine()}, min of {args.repeats}"
    )
    print("| graph | " + " | ".join(map(str, sizes)) + " |")
    print("|---" * (len(sizes) + 1) + "|")
    for kind in args.graphs.split(","):
        ratios = [measure(kind, n, args.repeats) for n in sizes]
        print(f"| {kind} | " + " | ".join(f"{r:.2f}" for r in ratios) + " |")


if __name__ == "__main__":
    main()
