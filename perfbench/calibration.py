"""A fixed calibration kernel that measures how fast the host runs at the moment.

On a shared host other tenants slow a process down by 20-40% for stretches
of seconds to minutes, while its CPU time stays equal to its wall time.  The
kernel does a fixed amount of work of the same kind as a sweep trial
(small numpy draws and masks, Python lists, a bounded backtracking
search, and small complex inverses replayed row by row) and shares no code with helpercache, so a change to the program
cannot change it.  Timed right beside an operation, it slows down with the
operation when the host does; the benchmark reports times scaled by
REFERENCE_S over the kernel's time, that is, at the host speed at which the
kernel takes REFERENCE_S.

Run it alone to see its time on a host:

    python3 perfbench/calibration.py
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on a quiet 2-core x86-64 host (Python 3.11, numpy 2.4);
# a fixed constant, so scaled times compare across runs and commits.
REFERENCE_S = 0.006

_SEED = 20250123
_GRAPHS = 36
_NODES = 16
_SEARCH_LIMIT = 300
_SIZE = 4


def kernel() -> int:
    """Fixed work of about REFERENCE_S on a quiet host; returns a checksum."""
    rng = np.random.default_rng(_SEED)
    total = 0
    for _ in range(_GRAPHS):
        points = rng.random((_NODES, 2)) * 4.0
        gaps = points[:, None, :] - points[None, :, :]
        near = np.hypot(gaps[..., 0], gaps[..., 1]) < 1.3
        neighbours = [np.flatnonzero(row).tolist() for row in near]
        total += _search(neighbours) + int(near.sum()) + _invert(rng)
    return total


def _invert(rng: np.random.Generator) -> int:
    """Invert a small complex matrix and replay it row by row, as a decode check does."""
    shape = (_SIZE, _SIZE)
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if np.linalg.cond(matrix) > 1e8:
        return 0
    signal = np.linalg.inv(matrix) @ rng.standard_normal(_SIZE)
    return sum(abs(row @ signal) < 2.0 for row in matrix)


def _search(neighbours: list[list[int]]) -> int:
    """Nodes visited by a backtracking search that gives each node one of its
    neighbours, at most two nodes per neighbour, stopping after _SEARCH_LIMIT."""
    load = [0] * len(neighbours)
    visited = 0

    def place(node: int) -> None:
        nonlocal visited
        visited += 1
        if node == len(neighbours) or visited >= _SEARCH_LIMIT:
            return
        for target in neighbours[node]:
            if load[target] < 2:
                load[target] += 1
                place(node + 1)
                load[target] -= 1

    place(0)
    return visited


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    kernel()
    samples = sorted(kernel_seconds() for _ in range(50))
    print(f"kernel: fastest {samples[0] * 1e3:.2f} ms, median {samples[25] * 1e3:.2f} ms "
          f"(REFERENCE_S {REFERENCE_S * 1e3:.2f} ms)")
