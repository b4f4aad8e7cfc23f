"""Built-in test models with recorded oracle values.

Each fixture is constructed on demand; recorded oracle values (asymptotic
variance, third cumulant rate, mixing bounds) live in ORACLES and were frozen
from the exact transfer-recursion and geometric-series computations in this
package (see tests for the cross-checks that keep them honest).
"""

from __future__ import annotations

import numpy as np

from .chain_core import StochasticKernel
from .increments import deterministic, gaussian
from .map_model import CtMapSpec, MapSpec

TWO_STATE_P = np.array([[0.7, 0.3], [0.2, 0.8]])


def two_state() -> MapSpec:
    """2-state chain with centered occupation-of-state-1 increments.

    pi = (0.4, 0.6); sigma^2 = 0.72 from the geometric correlation series.
    """
    kernel = StochasticKernel(states=("a", "b"), P=TWO_STATE_P)
    incs = {(i, j): deterministic([1.0 if j == 1 else 0.0])
            for i in range(2) for j in range(2)}
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=True)


def _iid_pm1() -> MapSpec:
    # rows identical: the chain is i.i.d. uniform on two states
    kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
    incs = {(i, j): deterministic([1.0 if j == 0 else -1.0])
            for i in range(2) for j in range(2)}
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=False)


def iid_rademacher() -> MapSpec:
    """i.i.d. +-1 increments via an i.i.d. two-state chain; sigma^2 = 1."""
    return _iid_pm1()


def lattice_pm1() -> MapSpec:
    """Lattice negative control: +-1 increments, span 2, shift 1."""
    return _iid_pm1()


def skewed_mixture() -> MapSpec:
    """i.i.d. skewed nonlattice increments: N(-1,1) or +1 with prob 1/2.

    Centered by construction; sigma^2 = 1.5, mu_3 = -1.5.
    """
    kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
    incs = {}
    for i in range(2):
        incs[(i, 0)] = gaussian([-1.0], [[1.0]])
        incs[(i, 1)] = deterministic([1.0])
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=False)


def gaussian_iid() -> MapSpec:
    """i.i.d. standard Gaussian increments (LLT positive control)."""
    kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
    incs = {(0, 0): gaussian([0.0], [[1.0]])}
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=False)


def birth_death_5() -> MapSpec:
    """5-state reversible birth-death chain with centered state rewards.

    Rewards are the states rescaled to [0, 1] so that all cumulant rates are
    of order one.
    """
    S = 5
    P = np.zeros((S, S))
    up, down = 0.3, 0.2
    for x in range(S):
        if x + 1 < S:
            P[x, x + 1] = up
        if x - 1 >= 0:
            P[x, x - 1] = down
        P[x, x] = 1.0 - P[x].sum()
    kernel = StochasticKernel(states=tuple(range(S)), P=P)
    incs = {(i, j): deterministic([j / (S - 1.0)])
            for i in range(S) for j in range(S) if P[i, j] > 0}
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=True)


CT_TWO_STATE_G = np.array([[-1.0, 1.0], [2.0, -2.0]])


def ct_two_state(centered: bool = True) -> CtMapSpec:
    """2-state continuous-time fixture: G = [[-1,1],[2,-2]], reward (0,1)."""
    return CtMapSpec(generator=CT_TWO_STATE_G, reward=np.array([0.0, 1.0]),
                     centered=centered)


MEAN_CONTRAST_THETAS = (0.6, 0.8, 1.0, 1.2, 1.4)


def mean_contrast_kernel(theta: float) -> StochasticKernel:
    """P_theta = [[1-0.3t, 0.3t], [0.2t, 1-0.2t]]; pi = (0.4, 0.6) for all t."""
    P = np.array([[1.0 - 0.3 * theta, 0.3 * theta],
                  [0.2 * theta, 1.0 - 0.2 * theta]])
    return StochasticKernel(states=("a", "b"), P=P)


def mean_contrast_problem():
    """Certified occupation-mean estimation problem over a 5-point theta grid.

    Contrast (1{y=b} - alpha)^2, so alpha0 = pi(b) = 0.6 for every theta and
    the estimator is exactly the occupation frequency of state b.
    """
    from .mestim import build_problem, mean_contrast_family
    xi = np.array([[0.0, 1.0], [0.0, 1.0]])
    kernels = {t: mean_contrast_kernel(t) for t in MEAN_CONTRAST_THETAS}
    return build_problem(mean_contrast_family(xi), kernels)


# each fixture is built by the module-level function of the same name
REGISTRY = ("two_state", "iid_rademacher", "lattice_pm1", "skewed_mixture",
            "gaussian_iid", "birth_death_5", "ct_two_state",
            "mean_contrast_problem")

# frozen oracle values; provenance: exact transfer recursion / geometric
# series / hand computation, cross-checked in the test suite
ORACLES = {
    "two_state": {
        "sigma2": 0.72,
        "second_eigenvalue": 0.5,
        "mixing_bounds": [1.0] + [0.5 ** k for k in range(6)],
        "provenance": "geometric series pi(xi^2)(1 + 2 sum 0.5^l) = 0.24 * 3",
    },
    "iid_rademacher": {
        "sigma2": 1.0,
        "mu3": 0.0,
        "provenance": "i.i.d. symmetric +-1",
    },
    "lattice_pm1": {
        "span": 2.0,
        "shift": 1.0,
        "provenance": "Y_n = n - 2 * (#minus steps)",
    },
    "skewed_mixture": {
        "sigma2": 1.5,
        "mu3": -1.5,
        "provenance": "mixture moments 0.5(m^3+3m s^2) + 0.5 = -1.5",
    },
    "gaussian_iid": {
        "sigma2": 1.0,
        "mu3": 0.0,
        "provenance": "standard normal increments",
    },
    "ct_two_state": {
        "pi": [2.0 / 3.0, 1.0 / 3.0],
        "mean_rate": 1.0 / 3.0,
        "provenance": "pi G = 0 for G = [[-1,1],[2,-2]]",
    },
    "mean_contrast_problem": {
        "alpha0": 0.6,
        "m": 2.0,
        "provenance": "alpha0 = pi(b) = 0.3t / (0.3t + 0.2t); F2 = 2",
    },
}


def get_fixture(name: str):
    # looked up by name at call time, so a rebound function is the one called
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(REGISTRY)}")
    return globals()[name]()


def fixture_names():
    return sorted(REGISTRY)
