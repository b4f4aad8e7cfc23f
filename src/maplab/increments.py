"""Per-edge increment laws, each one run of Gaussian atoms.

Three kinds are supported: deterministic point masses, Gaussians and finite
mixtures of point masses. Every law is one run of Gaussian atoms (prob,
mean, cov): a Gaussian is one atom, a point mass one atom with cov = 0, a
mixture one zero-cov atom per point. A MapSpec holds the runs of all its
edges in one flat atom table (MapSpec.edge_table), and check_atoms validates
such runs in whole-array operations, for a spec's table and for a single
IncrementLaw alike. An IncrementLaw gives the characteristic function and
the moments of one law as one formula over its run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MomentUndefined

KINDS = ("deterministic", "gaussian", "mixture")    # the table's kind codes
DETERMINISTIC, GAUSSIAN, MIXTURE = range(3)


def check_atoms(kind, edge, prob, mean, cov):
    """Validate runs of atoms, ValueError otherwise.

    kind[e] is run e's code into KINDS; per atom, edge[a] is its run (the
    atoms of a run are contiguous), prob its probability, mean (n, d) and
    cov (n, d, d) its moments. Every field must be finite, every Gaussian
    covariance symmetric and PSD, and the probabilities of each run
    nonnegative with sum 1 (so no run is empty).
    """
    if not (np.isfinite(prob).all() and np.isfinite(mean).all()
            and np.isfinite(cov).all()):
        raise ValueError("increment fields must be finite numbers")
    c = cov[np.asarray(kind)[edge] == GAUSSIAN]
    if len(c) and c.shape[1] > 1:
        if np.abs(c - c.transpose(0, 2, 1)).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        c = np.linalg.eigvalsh(c)
    if len(c) and c.min() < -1e-12:         # for d = 1, the variances
        raise ValueError("covariance must be PSD")
    total = np.bincount(edge, weights=prob, minlength=len(kind))
    if (prob < 0).any() or np.abs(total - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("mixture probabilities must be nonnegative and sum to 1")


def _normal_moment(m, s2, k: int):
    """E[N(m, s2)^k] for k = 1..4."""
    if k == 1:
        return m
    if k == 2:
        return m * m + s2
    if k == 3:
        return m ** 3 + 3 * m * s2
    return m ** 4 + 6 * m * m * s2 + 3 * s2 * s2


@dataclass(frozen=True)
class IncrementLaw:
    """Distribution of the additive increment attached to one edge.

    kind is one of "deterministic", "gaussian", "mixture". Fields are
    interpreted per kind; d is the dimension of the additive component.
    """

    kind: str
    d: int = 1
    value: np.ndarray = None            # deterministic
    mean_vec: np.ndarray = None         # gaussian
    cov: np.ndarray = None              # gaussian
    atoms: tuple = None                 # mixture: ((prob, vector), ...)

    def __post_init__(self):
        def freeze(name, arr):
            a = np.array(arr, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

        if self.kind == "deterministic":
            freeze("value", np.atleast_1d(self.value))
        elif self.kind == "gaussian":
            freeze("mean_vec", np.atleast_1d(self.mean_vec))
            freeze("cov", np.atleast_2d(self.cov))
        elif self.kind == "mixture":
            atoms = tuple((float(p), np.atleast_1d(np.array(v, dtype=float)))
                          for p, v in self.atoms)
            for _, v in atoms:
                v.setflags(write=False)
            object.__setattr__(self, "atoms", atoms)
        else:
            raise ValueError(f"unknown increment kind {self.kind!r}")
        run = self.gaussian_atoms
        prob, mean, cov = (np.array([a[k] for a in run]) for k in range(3))
        if mean.shape[1:] != (self.d,) or cov.shape[1:] != (self.d,) * 2:
            raise ValueError("mean/covariance dimension mismatch")
        check_atoms([KINDS.index(self.kind)], np.zeros(len(run), dtype=int),
                    prob, mean, cov)

    @cached_property
    def gaussian_atoms(self) -> tuple:
        """The law as a run of Gaussian atoms ((prob, mean, cov), ...)."""
        if self.kind == "gaussian":
            return ((1.0, self.mean_vec, self.cov),)
        zero = np.zeros((self.d, self.d))
        zero.setflags(write=False)
        if self.kind == "deterministic":
            return ((1.0, self.value, zero),)
        return tuple((p, v, zero) for p, v in self.atoms)

    def cf(self, zeta) -> complex:
        """E[exp(i <zeta, Z>)] = sum_a p_a exp(i zeta.m_a - zeta.C_a.zeta/2)."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        return complex(sum(p * np.exp(1j * zeta @ m - 0.5 * zeta @ c @ zeta)
                           for p, m, c in self.gaussian_atoms))

    def mean(self) -> np.ndarray:
        return sum(p * m for p, m, _ in self.gaussian_atoms)

    def moment(self, k: int) -> float:
        """Raw moment E[Z^k] = sum_a p_a E[N(m_a, c_a)^k], k <= 4, d = 1."""
        if self.d != 1:
            raise MomentUndefined("scalar moments require d = 1")
        if k == 0:
            return 1.0
        if k > 4:
            raise MomentUndefined(f"moment order {k} not supported")
        return float(sum(p * _normal_moment(m.item(0), c.item(0), k)
                         for p, m, c in self.gaussian_atoms))


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
