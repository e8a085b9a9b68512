# cqbounds first: it pins OPENBLAS_NUM_THREADS (and the MKL/OpenMP
# equivalents) to 1, which only takes effect if set before numpy loads BLAS
from cqbounds import CQSource, random_density  # isort: skip

import numpy as np
import pytest


@pytest.fixture
def binary_qubit_source():
    s0 = random_density(2, 84, min_eig_floor=0.02)
    s1 = random_density(2, 85, min_eig_floor=0.02)
    return CQSource(["0", "1"], [0.5, 0.5], [s0, s1])


def random_sub_distribution(rng, k, mass_low=0.3):
    return rng.dirichlet(np.ones(k)) * float(rng.uniform(mass_low, 1.0))
