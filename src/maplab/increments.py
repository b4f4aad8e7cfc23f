"""Per-edge increment laws, each one run of Gaussian atoms.

Three kinds are supported: deterministic point masses, Gaussians and finite
mixtures of point masses. Every law is one run of Gaussian atoms (prob,
mean, cov): a Gaussian is one atom, a point mass one atom with cov = 0, a
mixture one zero-cov atom per point. A MapSpec holds the runs of all its
edges in one flat atom table (MapSpec.edge_table); an IncrementLaw is one
run, with its characteristic function and moments as one formula over it.
check_atoms validates runs in whole-array operations, for a spec's table
and for a single law alike.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def atom_moments(mean, cov) -> np.ndarray:
    """(n, 4) table of E[N(m, s2)^k], k = 1..4, for n scalar atoms, mean
    (n, 1) and cov (n, 1, 1); m ** 3 and m ** 4 are taken on Python floats."""
    m, s2 = mean[:, 0], cov[:, 0, 0]
    cube, fourth = (np.array([v ** k for v in m.tolist()]) for k in (3, 4))
    return np.stack([m, m * m + s2, cube + 3 * m * s2,
                     fourth + 6 * m * m * s2 + 3 * s2 * s2], axis=1)


@dataclass(frozen=True, eq=False)
class IncrementLaw:
    """Distribution of the additive increment attached to one edge.

    kind is one of KINDS; prob (m,), mean (m, d) and cov (m, d, d) are its
    read-only run of atoms, d is the dimension of the additive component.
    Built, and checked, by deterministic, gaussian and mixture, or a view of
    a spec's atom table (MapSpec.increments). Laws compare and hash by
    identity (their fields are arrays).
    """

    kind: str
    prob: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @property
    def d(self) -> int:
        return self.mean.shape[1]

    def cf(self, zeta) -> complex:
        """E[exp(i <zeta, Z>)] = sum_a p_a exp(i zeta.m_a - zeta.C_a.zeta/2)."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        return complex(sum(p * np.exp(1j * zeta @ m - 0.5 * zeta @ c @ zeta)
                           for p, m, c in zip(self.prob.tolist(), self.mean,
                                              self.cov)))

    def moment(self, k: int) -> float:
        """Raw moment E[Z^k] = sum_a p_a E[N(m_a, c_a)^k], k <= 4, d = 1."""
        if self.d != 1:
            raise MomentUndefined("scalar moments require d = 1")
        if k == 0:
            return 1.0
        if not 0 < k <= 4:
            raise MomentUndefined(f"moment order {k} not supported")
        column = atom_moments(self.mean, self.cov)[:, k - 1].tolist()
        return float(sum(p * a for p, a in zip(self.prob.tolist(), column)))


def _run(kind, prob, mean, cov=None) -> IncrementLaw:
    """The checked, read-only law of one run; cov is 0 when not given."""
    prob, mean = np.array(prob, dtype=float), np.array(mean, dtype=float)
    cov = (np.zeros(mean.shape + mean.shape[1:]) if cov is None
           else np.array(cov, dtype=float))
    if mean.ndim != 2 or cov.shape != mean.shape + mean.shape[1:]:
        raise ValueError("mean/covariance dimension mismatch")
    check_atoms([KINDS.index(kind)], np.zeros(len(prob), dtype=int), prob,
                mean, cov)
    for a in (prob, mean, cov):
        a.setflags(write=False)
    return IncrementLaw(kind, prob, mean, cov)


def deterministic(value) -> IncrementLaw:
    return _run("deterministic", [1.0], [np.atleast_1d(value)])


def gaussian(mean, cov) -> IncrementLaw:
    return _run("gaussian", [1.0], [np.atleast_1d(mean)], [np.atleast_2d(cov)])


def mixture(atoms) -> IncrementLaw:
    prob, values = zip(*atoms)
    return _run("mixture", prob, [np.atleast_1d(v) for v in values])
