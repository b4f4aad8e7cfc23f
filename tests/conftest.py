from math import comb

import numpy as np
import pytest

from maplab import fixtures
from maplab.chain_core import StochasticKernel
from maplab.increments import deterministic, gaussian, mixture
from maplab.map_model import MapSpec


@pytest.fixture
def two_state():
    return fixtures.two_state()


@pytest.fixture
def ct_two_state():
    return fixtures.ct_two_state()


def random_kernel(rng, n_states):
    """Strictly positive random row-stochastic matrix (irreducible)."""
    P = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    return P / P.sum(axis=1, keepdims=True)


def random_mixed_spec(seed, d=None):
    """Random spec whose edges mix deterministic, Gaussian and mixture laws.

    S is 1..5 and d is 1 or 2 unless given.
    """
    rng = np.random.default_rng(seed)
    S = int(rng.integers(1, 6))
    d = int(rng.integers(1, 3)) if d is None else d
    kernel = StochasticKernel(states=tuple(range(S)), P=random_kernel(rng, S))
    incs = {}
    for i in range(S):
        for j in range(S):
            kind = rng.integers(3)
            if kind == 0:
                incs[(i, j)] = deterministic(rng.normal(size=d))
            elif kind == 1:
                A = rng.normal(size=(d, d))
                incs[(i, j)] = gaussian(rng.normal(size=d), A @ A.T)
            else:
                p = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
                incs[(i, j)] = mixture([(q, rng.normal(size=d)) for q in p])
    return MapSpec(kernel=kernel, increments=incs, d=d)


def step_moments(spec, n, k):
    """E[Y_n^k] under pi by n explicit steps of the moment transfer.

    Test oracle for map_model.exact_moments: m_j(x) = E[Y_t^j 1{X_t = x}]
    moves by m_j <- sum_r C(j, r) m_r (P o E[Z^(j-r)]), one step at a time.
    """
    S, P = spec.n_states, spec.P
    D = [np.array(P)] + [np.zeros((S, S)) for _ in range(k)]
    for (i, j), law in spec.increments.items():
        for r in range(1, k + 1):
            D[r][i, j] = P[i, j] * law.moment(r)
    m = np.zeros((k + 1, S))
    m[0] = spec.pi
    for _ in range(n):
        m = np.array([sum(comb(j, r) * (m[r] @ D[j - r]) for r in range(j + 1))
                      for j in range(k + 1)])
    return float(m[k].sum())


def edge_loop_fourier(spec, zeta):
    """S_1(zeta) entry by entry, P[i, j] * law.cf(zeta) (test oracle)."""
    M = np.zeros((spec.n_states, spec.n_states), dtype=complex)
    for (i, j), law in spec.increments.items():
        M[i, j] = spec.P[i, j] * law.cf(zeta)
    return M
