"""Shared fixtures: the bundled network, its training data, cached solves;
the ``fresh`` hypothesis profile."""

import numpy as np
import pytest
from hypothesis import settings

from msdro_opf import MultiDataset, bundled_network, solve_msdro_opf
from msdro_opf.evaluation import derive_seed, training_matrix

GAMMA = 0.05
SEED = 1

#: ``--hypothesis-profile fresh``: draw only from ``--hypothesis-seed``,
#: neither replaying nor saving examples, so a sweep over seeds sees each
#: seed's own failures. Not the default profile.
settings.register_profile("fresh", database=None)


@pytest.fixture(scope="session")
def case5():
    return bundled_network()


@pytest.fixture(scope="session")
def train20(case5):
    return training_matrix(case5, 20, derive_seed(SEED, "train"))


@pytest.fixture(scope="session")
def solve_cell(case5, train20):
    """Solve (and cache) the bundled network at one budget cell."""
    cache = {}

    def inner(*eps):
        key = tuple(float(e) for e in eps)
        if key not in cache:
            data = MultiDataset.from_matrix(train20, np.array(key))
            cache[key] = solve_msdro_opf(case5, data, GAMMA)
        return cache[key]

    return inner


@pytest.fixture(scope="session")
def robust_sol(solve_cell):
    return solve_cell(1.0, 1.0)
