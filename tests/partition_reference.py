"""Exhaustive reference for the minimum partition count, kept out of the library.

The library answers "fewest partitions of a profile" with Hall's formula
(`min_partition_counts`) and a certified matching (`optimal_partitions`);
the paper's branch and bound `bb_assign` is checked against both.  This
module is the oracle independent of all three: it tries every helper
choice of the multi-homed users and keeps the smallest bottleneck load.
Its cost is the product of the users' degrees, so it refuses instances
above a guard.
"""

from __future__ import annotations

import math
from itertools import islice, product

import numpy as np

from helpercache.partitioner import ProfileSubnetwork, build_tables


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the size guard."""


def brute_force_min_partitions(subnet: ProfileSubnetwork, guard: int = 10**7) -> int:
    """Exhaustive oracle: try every helper choice for the multi-homed users."""
    tables = build_tables(subnet)
    base = np.array(tables.base_loads, dtype=np.int64)
    if not tables.multi:
        return int(base.max())
    sizes = [len(cand) for _, cand in tables.multi]
    total = math.prod(sizes)
    if total > guard:
        raise InstanceTooLargeError(f"{total} assignments exceed the guard of {guard}")
    cand_lists = [cand for _, cand in tables.multi]
    best = np.iinfo(np.int64).max
    assignments = product(*cand_lists)
    while True:
        chunk = list(islice(assignments, 65536))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.int64)
        loads = np.empty((arr.shape[0], tables.num_helpers), dtype=np.int64)
        for h in range(tables.num_helpers):
            loads[:, h] = base[h] + (arr == h).sum(axis=1)
        best = min(best, int(loads.max(axis=1).min()))
    return int(best)
