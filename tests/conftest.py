import numpy as np
import pytest

from helpercache.partitioner import ProfileSubnetwork, hall_witnesses

# Four helpers, twelve users; greedy needs four sets, the optimum three.
_REFERENCE_CANDIDATES = {
    1: (0,),
    2: (0, 1),
    3: (0, 1),
    4: (1,),
    5: (1,),
    6: (0, 1, 2),
    7: (2,),
    8: (2,),
    9: (1, 3),
    10: (1, 3),
    11: (3,),
    12: (3,),
}

# The same instance in the `partition --instance` file format (1-based helper labels).
REFERENCE_INSTANCE = """helpers: 4
1: 1
2: 1,2
3: 1,2
4: 2
5: 2
6: 1,2,3
7: 3
8: 3
9: 2,4
10: 2,4
11: 4
12: 4
"""


@pytest.fixture
def reference_subnet() -> ProfileSubnetwork:
    users = tuple(range(1, 13))
    return ProfileSubnetwork(
        profile=1,
        users=users,
        candidates=tuple(_REFERENCE_CANDIDATES[u] for u in users),
        num_helpers=4,
    )


@pytest.fixture
def make_random_subnet():
    """Factory for random instances small enough for exhaustive checking."""

    def factory(rng: np.random.Generator, max_helpers: int = 4, max_users: int = 12,
                enumeration_cap: int = 200_000) -> ProfileSubnetwork:
        while True:
            num_helpers = int(rng.integers(2, max_helpers + 1))
            num_users = int(rng.integers(1, max_users + 1))
            cands = []
            size = 1
            for _ in range(num_users):
                degree = int(rng.integers(1, num_helpers + 1))
                cands.append(tuple(sorted(rng.choice(num_helpers, size=degree, replace=False).tolist())))
                if degree > 1:
                    size *= degree
            if size <= enumeration_cap:
                return ProfileSubnetwork(
                    profile=1,
                    users=tuple(range(1, num_users + 1)),
                    candidates=tuple(cands),
                    num_helpers=num_helpers,
                )

    return factory


@pytest.fixture(scope="session")
def hall_count():
    """Hall's-formula count of one instance, its users forming a single profile."""

    def count(subnet: ProfileSubnetwork) -> int:
        adjacency = np.zeros((subnet.num_helpers, subnet.num_users), dtype=bool)
        for column, cand in enumerate(subnet.candidates):
            adjacency[list(cand), column] = True
        profile_of = np.ones(subnet.num_users, dtype=np.int64)
        return int(hall_witnesses(adjacency, profile_of, 1)[0][0])

    return count
