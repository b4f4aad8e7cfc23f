"""Exception hierarchy shared across the package."""


class MaplabError(Exception):
    """Base class for all maplab errors."""


class NotStochastic(MaplabError):
    """A transition-matrix row fails the row-sum or nonnegativity test."""


class NonIrreducible(MaplabError):
    """The kernel has more than one closed communicating class."""


class ZeroMassState(MaplabError):
    """An operator acts nontrivially on a state with zero stationary mass."""


class GapAbsent(MaplabError):
    """No L2 contraction was found; geometric series may diverge."""


class MomentUndefined(MaplabError):
    """An increment law lacks the requested moment order."""


class BranchCollision(MaplabError):
    """Dominant-eigenvalue branch lost spectral separation on the grid."""


class NonFiniteOperator(MaplabError):
    """A Fourier operator has a non-finite entry (the frequency overflows it)."""


class DegenerateVariance(MaplabError):
    """Asymptotic variance is (numerically) zero; Gaussian comparison undefined."""


class LatticeSpec(MaplabError):
    """Operation requires a nonlattice spec but the spec is lattice."""


class UnsupportedInitial(MaplabError):
    """Initial distribution puts mass outside the support of pi."""


class NotCentered(MaplabError, ValueError):
    """A check of a centered limit law got a spec with a nonzero mean rate."""


class NotScalar(MaplabError, ValueError):
    """The operation is defined for scalar (d = 1) specs only."""


class TooFewPaths(MaplabError, ValueError):
    """A statistic over paths has too few of them: a standard error needs
    two, a distance from a limit law one."""


class ConditionViolated(MaplabError):
    """A certification condition of an M-estimation problem fails.

    ``condition`` names the failed condition (e.g. "V1"), ``theta`` the
    offending parameter value when applicable.
    """

    def __init__(self, condition, theta=None, detail=""):
        self.condition = condition
        self.theta = theta
        msg = f"condition {condition} violated"
        if theta is not None:
            msg += f" at theta={theta}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
