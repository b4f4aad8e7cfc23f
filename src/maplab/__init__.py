"""Spectral analysis and limit-theorem verification for Markov additive
processes with finite driving chains."""

from .chain_core import (MixingBoundTable, StochasticKernel, l2_operator_norm,
                         solve_stationary, spectral_gap_report)
from .errors import (BranchCollision, ConditionViolated, DegenerateVariance,
                     GapAbsent, LatticeSpec, MaplabError, MomentUndefined,
                     NonFiniteOperator, NonIrreducible, NotCentered,
                     NotScalar, NotStochastic, UnsupportedInitial,
                     ZeroMassState)
from .fourier import (SpectralSummary, derivatives_at_zero, lambda_branch,
                      nonlattice_certificate, nonlattice_scan)
from .increments import IncrementLaw, deterministic, gaussian, mixture
from .limit_checks import (CheckResult, GaussianComparison, LltRecord,
                           RhoMixReport, asymptotic_bias, berry_esseen_check,
                           clt_check, ct_limit_check, ecdf_se, edgeworth_cdf,
                           edgeworth_check, kolmogorov_distance, llt_check,
                           rho_mixing_check, triangular_bump)
from .map_model import (CtMapSpec, LatticeReport, MapSpec, ct_sample_skeleton,
                        cumulant_rates, detect_lattice, exact_mean,
                        exact_moments, third_cumulant_rate, variance_series)
from .mestim import (ContrastFamily, MEstimationProblem, build_problem,
                     estimator_be_check, mean_contrast_family)
from .montecarlo import (TrajectoryBatch, increment_panel, simulate_ct,
                         simulate_discrete, spec_content_hash)

__version__ = "1.0.0"
