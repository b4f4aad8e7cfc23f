"""Per-edge increment laws, each one run of Gaussian atoms.

Three kinds are supported: deterministic point masses, Gaussians and finite
mixtures of point masses. Every law is read through one view, a run of
Gaussian atoms (prob, mean, cov): a Gaussian is one atom, a point mass one
atom with cov = 0, a mixture one zero-cov atom per point. The
characteristic function and the moments are one formula over that run, and
MapSpec.edge_table compiles the runs of all edges into flat arrays.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MomentUndefined


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
        else:
            raise ValueError(f"unknown increment kind {self.kind!r}")

    @cached_property
    def gaussian_atoms(self) -> tuple:
        """The law as a run of Gaussian atoms ((prob, mean, cov), ...).

        Built once per law; shifted() drops the copy's run so that it is
        rebuilt from the moved values.
        """
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

    def shifted(self, delta: np.ndarray) -> "IncrementLaw":
        """Law of Z + delta (used for centering).

        A shift keeps the covariance and the atom probabilities, so the copy
        skips the validation in __post_init__.
        """
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        law = copy.copy(self)
        law.__dict__.pop("gaussian_atoms", None)
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
