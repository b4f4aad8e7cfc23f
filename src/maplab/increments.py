"""Per-edge increment laws with closed-form characteristic functions.

Four kinds are supported: deterministic point masses, Gaussians, finite
mixtures of point masses, and characteristic-function-only laws (produced by
skeleton extraction from continuous time). The first three are sampleable and
have closed-form moments; the last exposes moments through Richardson-
extrapolated numerical differentiation of its characteristic function.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import MomentUndefined

# larger steps for higher orders: roundoff in a k-th difference grows like
# eps / h^k, so h must grow with k to keep 1e-6 absolute accuracy
_CF_DIFF_STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 2e-2}

# central-difference stencils for d^k/dz^k at 0, nodes -3h..3h, O(h^2) at
# least; combined pairwise with Richardson below
_STENCILS = {
    1: (np.array([-1, 1]), np.array([-0.5, 0.5]), 1),
    2: (np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0]), 2),
    3: (np.array([-2, -1, 1, 2]), np.array([-0.5, 1.0, -1.0, 0.5]), 3),
    4: (np.array([-2, -1, 0, 1, 2]), np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 4),
}


def _cf_derivative(cf, order: int, h: float = None) -> complex:
    """k-th derivative of a characteristic function at 0 (two-level Richardson)."""
    if h is None:
        h = _CF_DIFF_STEPS[order]
    nodes, weights, power = _STENCILS[order]

    def diff(step):
        return sum(w * cf(float(n * step)) for n, w in zip(nodes, weights)) / step ** power

    d1, d2 = diff(h), diff(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


@dataclass(frozen=True)
class IncrementLaw:
    """Distribution of the additive increment attached to one edge.

    kind is one of "deterministic", "gaussian", "mixture", "cf". Fields are
    interpreted per kind; d is the dimension of the additive component.
    """

    kind: str
    d: int = 1
    value: np.ndarray = None            # deterministic
    mean_vec: np.ndarray = None         # gaussian
    cov: np.ndarray = None              # gaussian
    atoms: tuple = None                 # mixture: ((prob, vector), ...)
    cf_callable: object = None          # cf: zeta (d-vector) -> complex

    def __post_init__(self):
        def freeze(name, arr):
            a = np.array(arr, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
            return a

        if self.kind == "deterministic":
            freeze("value", np.atleast_1d(self.value))
        elif self.kind == "gaussian":
            m = freeze("mean_vec", np.atleast_1d(self.mean_vec))
            c = freeze("cov", np.atleast_2d(self.cov))
            if np.max(np.abs(c - c.T)) > 1e-12:
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(c).min() < -1e-12:
                raise ValueError("covariance must be PSD")
            if c.shape[0] != m.shape[0]:
                raise ValueError("mean/covariance dimension mismatch")
        elif self.kind == "mixture":
            atoms = tuple((float(p), np.atleast_1d(np.array(v, dtype=float)))
                          for p, v in self.atoms)
            probs = np.array([p for p, _ in atoms])
            if abs(probs.sum() - 1.0) > 1e-12 or (probs < 0).any():
                raise ValueError("mixture probabilities must be nonnegative and sum to 1")
            for _, v in atoms:
                v.setflags(write=False)
            object.__setattr__(self, "atoms", atoms)
        elif self.kind == "cf":
            if self.cf_callable is None:
                raise ValueError("cf kind requires a callable")
        else:
            raise ValueError(f"unknown increment kind {self.kind!r}")

    # -- characteristic function ------------------------------------------

    def cf(self, zeta) -> complex:
        """E[exp(i <zeta, Z>)] in closed form."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        if self.kind == "deterministic":
            return complex(np.exp(1j * zeta @ self.value))
        if self.kind == "gaussian":
            return complex(np.exp(1j * zeta @ self.mean_vec
                                  - 0.5 * zeta @ self.cov @ zeta))
        if self.kind == "mixture":
            return complex(sum(p * np.exp(1j * zeta @ v) for p, v in self.atoms))
        return complex(self.cf_callable(zeta))

    # -- moments (d = 1 for k >= 2) ---------------------------------------

    def mean(self) -> np.ndarray:
        if self.kind == "deterministic":
            return self.value.copy()
        if self.kind == "gaussian":
            return self.mean_vec.copy()
        if self.kind == "mixture":
            return sum(p * v for p, v in self.atoms)
        return np.atleast_1d(np.real(_cf_derivative(self._cf1, 1) / 1j))

    def _cf1(self, z: float) -> complex:
        # scalar characteristic function (d = 1 access path for cf kind)
        return self.cf(np.array([z]) if self.d == 1 else z)

    def moment(self, k: int) -> float:
        """Raw moment E[Z^k], k <= 4, d = 1."""
        if self.d != 1:
            raise MomentUndefined("scalar moments require d = 1")
        if k == 0:
            return 1.0
        if k > 4:
            raise MomentUndefined(f"moment order {k} not supported")
        if self.kind == "deterministic":
            return float(self.value[0] ** k)
        if self.kind == "gaussian":
            m, s2 = float(self.mean_vec[0]), float(self.cov[0, 0])
            if k == 1:
                return m
            if k == 2:
                return m * m + s2
            if k == 3:
                return m ** 3 + 3 * m * s2
            return m ** 4 + 6 * m * m * s2 + 3 * s2 * s2
        if self.kind == "mixture":
            return float(sum(p * v[0] ** k for p, v in self.atoms))
        deriv = _cf_derivative(self._cf1, k)
        return float(np.real(deriv / (1j ** k)))

    # -- structure --------------------------------------------------------

    def has_density_component(self) -> bool:
        return self.kind in ("gaussian", "cf")

    def shifted(self, delta: np.ndarray) -> "IncrementLaw":
        """Law of Z + delta (used for centering).

        A shift keeps the covariance and the atom probabilities, so the copy
        skips the validation in __post_init__.
        """
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if self.kind == "cf":
            base = self.cf_callable
            return IncrementLaw(
                "cf", d=self.d,
                cf_callable=lambda zeta, _b=base, _s=delta:
                    _b(zeta) * np.exp(1j * np.atleast_1d(zeta) @ _s))
        law = copy.copy(self)
        if self.kind == "mixture":
            atoms = tuple((p, v + delta) for p, v in self.atoms)
            for _, v in atoms:
                v.setflags(write=False)
            object.__setattr__(law, "atoms", atoms)
        else:
            name = "value" if self.kind == "deterministic" else "mean_vec"
            moved = getattr(self, name) + delta
            moved.setflags(write=False)
            object.__setattr__(law, name, moved)
        return law


def deterministic(value) -> IncrementLaw:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return IncrementLaw("deterministic", d=len(v), value=v)


def gaussian(mean, cov) -> IncrementLaw:
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    return IncrementLaw("gaussian", d=len(m), mean_vec=m, cov=c)


def mixture(atoms) -> IncrementLaw:
    atoms = tuple((p, np.atleast_1d(np.asarray(v, dtype=float))) for p, v in atoms)
    return IncrementLaw("mixture", d=len(atoms[0][1]), atoms=atoms)


def from_cf(cf_callable, d: int = 1) -> IncrementLaw:
    return IncrementLaw("cf", d=d, cf_callable=cf_callable)
