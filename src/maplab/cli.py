"""Command-line front end: analysis, simulation and verification subcommands.

Every subcommand emits a deterministic JSON report (atomic write, sorted keys,
no timestamps) embedding the model content hash and the effective numeric
configuration, so an identical invocation reproduces the file byte for byte.
Exit codes: 0 pass-verdict, 1 fail-verdict, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import fixtures as fixture_registry
from .chain_core import StochasticKernel, spectral_gap_report
from .errors import MaplabError
from .fourier import derivatives_at_zero, lambda_branch, nonlattice_scan
from .io import (FormatError, _jsonable, load_spec, write_csv, write_report,
                 write_samples)
from .limit_checks import (berry_esseen_check, clt_check, ct_limit_check,
                           edgeworth_check, llt_check, rho_mixing_check)
from .map_model import CtMapSpec, MapSpec
from .mestim import estimator_be_check
from .montecarlo import simulate_ct, simulate_discrete, spec_content_hash


class UsageError(Exception):
    pass


def _load_model(args, accepts=(MapSpec, CtMapSpec)):
    """The --fixture or --spec model, if it is an instance of accepts."""
    if getattr(args, "fixture", None):
        try:
            model = fixture_registry.get_fixture(args.fixture)
        except KeyError as exc:
            raise UsageError(str(exc))
    elif getattr(args, "spec", None):
        if not os.path.exists(args.spec):
            raise UsageError(f"spec file not found: {args.spec}")
        model = load_spec(args.spec)
    else:
        raise UsageError("one of --fixture or --spec is required")
    if not isinstance(model, accepts):
        raise UsageError(f"{args.subcommand} accepts " + " or ".join(
            t.__name__ for t in accepts) + f", got {type(model).__name__}")
    return model


def _model_hash(model) -> str:
    if isinstance(model, StochasticKernel):
        import hashlib
        return hashlib.sha256(model.P.round(15).tobytes()).hexdigest()
    return spec_content_hash(model)


def _positive_list(text: str, kind):
    """Comma-separated finite positive values of type kind (int or float)."""
    try:
        values = [kind(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values or not all(0 < v < float("inf") for v in values):
        raise UsageError(f"expected comma-separated positive "
                         f"{kind.__name__}s, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}")
    return int(text)


def _emit(args, report: dict, csv_spec=None) -> None:
    if getattr(args, "out", None):
        write_report(args.out, report)
    else:
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    if csv_spec is not None and getattr(args, "csv", None):
        header, rows = csv_spec
        write_csv(args.csv, header, rows)


def _records_rows(records, fields):
    return [tuple(getattr(r, f) for f in fields) for r in records]


# -- subcommand implementations -------------------------------------------

def cmd_fixtures(args):
    if args.action == "list":
        print("\n".join(fixture_registry.fixture_names()))
    else:
        print(json.dumps(_jsonable(fixture_registry.ORACLES), sort_keys=True,
                         indent=2))
    return 0


def _branch(model, args):
    """lambda_branch on the symmetric --zeta-max grid, with 0 added if absent."""
    grid = np.linspace(-args.zeta_max, args.zeta_max, args.grid_points)
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    return lambda_branch(model, grid)


def cmd_analyze(args):
    model = _load_model(args)
    summary = _branch(model, args)
    grad, hess, third = derivatives_at_zero(model)
    report = {
        "subcommand": "analyze",
        "spec_hash": _model_hash(model),
        "config": {"zeta_max": args.zeta_max, "grid_points": args.grid_points,
                   "fixture": args.fixture, "spec": args.spec},
        "grid": summary.grid,
        "lambda_re": np.real(summary.lam),
        "lambda_im": np.imag(summary.lam),
        "kappa_hat": summary.kappa_hat,
        "separation": summary.separation,
        "mean_rate": np.imag(grad).tolist(),
        "sigma2": float(np.real(-hess[0, 0])),
        "mu3": float(np.real(1j * third)) if third is not None else None,
        "verdict": "pass",
    }
    _emit(args, report)
    return 0


def cmd_scan_lambda(args):
    model = _load_model(args)
    summary = _branch(model, args)
    sep = np.abs(summary.lam) - summary.kappa_hat
    rows = [(float(z), float(l.real), float(l.imag), float(abs(l)),
             summary.kappa_hat, float(s))
            for z, l, s in zip(summary.grid, summary.lam, sep)]
    if not args.out:
        raise UsageError("scan-lambda requires --out CSV path")
    write_csv(args.out, ["zeta", "re_lambda", "im_lambda", "abs_lambda",
                         "kappa_hat", "separation"], rows)
    return 0


def cmd_simulate(args):
    model = _load_model(args)
    mu = None
    if args.init:
        mu = np.asarray(json.loads(args.init), dtype=float)
    if isinstance(model, CtMapSpec):
        if args.t is None:
            raise UsageError("continuous-time spec requires --t")
        batch = simulate_ct(model, args.t, args.paths, args.seed, mu=mu)
    else:
        if args.n is None:
            raise UsageError("discrete spec requires --n")
        batch = simulate_discrete(model, args.n, args.paths, args.seed, mu=mu)
    if not args.out:
        raise UsageError("simulate requires --out")
    sidecar = {
        "subcommand": "simulate",
        "spec_hash": batch.spec_id,
        "config": {"n": args.n, "t": args.t, "paths": args.paths,
                   "seed": args.seed, "init": args.init,
                   "fixture": args.fixture, "spec": args.spec},
        "horizon": batch.horizon,
        "n_paths": batch.n_paths,
        "d": batch.terminal_Y.shape[1],
    }
    write_samples(args.out, batch.terminal_Y, sidecar)
    return 0


def _gaussian_report(name, args, records, verdict, extra=None):
    report = {
        "subcommand": name,
        "config": {"n_list": args.n_list, "paths": args.paths,
                   "seed": args.seed, "fixture": args.fixture,
                   "spec": args.spec},
        "records": [vars(r) for r in records],
        "verdict": "pass" if verdict else "fail",
        "note": ("statistical falsification test with DKW slack, "
                 "not a proof-grade certificate"),
    }
    if extra:
        report.update(extra)
    return report


_GAUSS_FIELDS = ["n", "n_samples", "sigma_used", "kolmogorov", "be_constant",
                 "edgeworth_residual", "bias_term_used", "se"]


def cmd_verify_clt(args):
    model = _load_model(args)
    n_list = _positive_list(args.n_list, int)
    if isinstance(model, CtMapSpec):
        records, _ = ct_limit_check(model, [float(n) for n in n_list],
                                    args.paths, args.seed)
    else:
        records = clt_check(model, n_list, args.paths, args.seed)
    last = records[-1]
    verdict = last.kolmogorov <= 0.03 + 2.0 * last.se
    report = _gaussian_report("verify-clt", args, records, verdict,
                              {"spec_hash": _model_hash(model)})
    _emit(args, report, (_GAUSS_FIELDS, _records_rows(records, _GAUSS_FIELDS)))
    return 0 if verdict else 1


def cmd_verify_be(args):
    model = _load_model(args)
    B_hat, records, flat = berry_esseen_check(
        model, _positive_list(args.n_list, int), args.paths, args.seed)
    report = _gaussian_report("verify-be", args, records, flat,
                              {"B_hat": B_hat,
                               "spec_hash": _model_hash(model)})
    _emit(args, report, (_GAUSS_FIELDS, _records_rows(records, _GAUSS_FIELDS)))
    return 0 if flat else 1


def cmd_verify_edgeworth(args):
    model = _load_model(args)
    mu = np.asarray(json.loads(args.init), dtype=float) if args.init else None
    records = edgeworth_check(model, _positive_list(args.n_list, int),
                              args.paths, args.seed, mu=mu,
                              allow_lattice=args.allow_lattice)
    improves = all(r.edgeworth_residual <= r.kolmogorov + 1e-15
                   for r in records)
    report = _gaussian_report("verify-edgeworth", args, records, improves,
                              {"spec_hash": _model_hash(model),
                               "init": args.init})
    _emit(args, report, (_GAUSS_FIELDS, _records_rows(records, _GAUSS_FIELDS)))
    return 0 if improves else 1


def cmd_verify_llt(args):
    model = _load_model(args)
    records = llt_check(model, _positive_list(args.n_list, int), args.paths,
                        args.seed, allow_lattice=args.allow_lattice)
    verdict = all(abs(r.ratio - 1.0) <= 4.0 * r.mc_se for r in records)
    fields = ["n", "center", "width", "estimate", "target", "ratio", "mc_se"]
    report = {
        "subcommand": "verify-llt",
        "spec_hash": _model_hash(model),
        "config": {"n_list": args.n_list, "paths": args.paths,
                   "seed": args.seed, "fixture": args.fixture,
                   "spec": args.spec},
        "records": [vars(r) for r in records],
        "verdict": "pass" if verdict else "fail",
    }
    _emit(args, report, (fields, _records_rows(records, fields)))
    return 0 if verdict else 1


def cmd_verify_ct(args):
    model = _load_model(args, (CtMapSpec,))
    t_list = _positive_list(args.t_list, float)
    records, fractional_ok = ct_limit_check(model, t_list, args.paths,
                                            args.seed)
    last = records[-1]
    verdict = fractional_ok and last.kolmogorov <= 0.03 + 2.0 * last.se
    report = {
        "subcommand": "verify-ct",
        "spec_hash": _model_hash(model),
        "config": {"t_list": args.t_list, "paths": args.paths,
                   "seed": args.seed, "fixture": args.fixture,
                   "spec": args.spec},
        "records": [vars(r) for r in records],
        "fractional_part_negligible": fractional_ok,
        "verdict": "pass" if verdict else "fail",
    }
    _emit(args, report, (_GAUSS_FIELDS, _records_rows(records, _GAUSS_FIELDS)))
    return 0 if verdict else 1


def cmd_mixing_bound(args):
    model = _load_model(args, (StochasticKernel, MapSpec, CtMapSpec))
    lags = _positive_list(args.lags, int)
    if isinstance(model, StochasticKernel):
        table = spectral_gap_report(model, max(lags))
        rows = [(int(t), table.bound(int(t))) for t in lags]
        report = {
            "subcommand": "mixing-bound",
            "spec_hash": _model_hash(model),
            "config": {"lags": args.lags, "fixture": args.fixture,
                       "spec": args.spec},
            "bounds": {str(t): table.bound(int(t)) for t in lags},
            "fitted_C": table.C, "fitted_eps": table.eps,
            "gap_present": table.gap_present,
            "verdict": "pass" if table.gap_present else "fail",
        }
        _emit(args, report, (["lag", "bound"], rows))
        return 0 if table.gap_present else 1
    records = rho_mixing_check(model, lags, args.paths, args.seed)
    ok = all(r.vacuous or r.empirical_max <= r.bound + 4.0 * r.se
             for r in records)
    fields = ["lag", "empirical_max", "bound", "se", "degenerate_pairs",
              "vacuous"]
    report = {
        "subcommand": "mixing-bound",
        "spec_hash": _model_hash(model),
        "config": {"lags": args.lags, "paths": args.paths, "seed": args.seed,
                   "fixture": args.fixture, "spec": args.spec},
        "records": [vars(r) for r in records],
        "verdict": "pass" if ok else "fail",
    }
    _emit(args, report, (fields, _records_rows(records, fields)))
    return 0 if ok else 1


def cmd_nonlattice(args):
    model = _load_model(args)
    K = np.linspace(args.k_min, args.k_max, args.k_points)
    K = K[K != 0]
    if not len(K):
        raise UsageError("the k grid has no nonzero point")
    rho_hat, worst = nonlattice_scan(model, K)
    verdict = rho_hat < 1.0 - 1e-8
    report = {
        "subcommand": "nonlattice-scan",
        "spec_hash": _model_hash(model),
        "config": {"k_min": args.k_min, "k_max": args.k_max,
                   "k_points": args.k_points, "fixture": args.fixture,
                   "spec": args.spec},
        "rho_hat": rho_hat, "worst_zeta": worst,
        "verdict": "pass" if verdict else "fail",
    }
    _emit(args, report)
    return 0 if verdict else 1


def cmd_mestimate(args):
    if args.fixture:
        if args.fixture != "mean_contrast_problem":
            raise UsageError("mestimate supports the mean_contrast_problem "
                             "fixture or a --problem file")
        problem = fixture_registry.mean_contrast_problem()
        problem_desc = {"fixture": "mean_contrast_problem"}
    elif args.problem:
        problem, problem_desc = _problem_from_file(args.problem)
    else:
        raise UsageError("one of --fixture or --problem is required")
    n_list = _positive_list(args.n_list, int)
    records, verdict = estimator_be_check(problem, n_list, args.reps,
                                          args.seed)
    gamma = max(r.gamma_hat for r in records if r.n == max(n_list))
    c_hat = max(r.sqrt_n_kolmogorov / (1.0 + np.sqrt(r.n) * r.gamma_hat)
                for r in records)
    fields = ["theta", "n", "reps", "kolmogorov", "sqrt_n_kolmogorov",
              "gamma_hat", "excluded"]
    report = {
        "subcommand": "mestimate",
        "config": {"n_list": args.n_list, "reps": args.reps,
                   "seed": args.seed, "problem": problem_desc},
        "alpha0": {str(t): problem.alpha0[t] for t in problem.thetas},
        "tau": {str(t): problem.tau[t] for t in problem.thetas},
        "d_ball": problem.d_ball,
        "records": [vars(r) for r in records],
        "C_hat_empirical": float(c_hat),
        "gamma_hat_final": float(gamma),
        "verdict": "pass" if verdict else "fail",
        "note": ("C_hat_empirical is the observed max of sqrt(n) * distance "
                 "/ (1 + sqrt(n) * gamma_hat); it does not bound the "
                 "theoretical constant"),
    }
    _emit(args, report, (fields, _records_rows(records, fields)))
    return 0 if verdict else 1


def _problem_from_file(path):
    from .io import kernel_from_dict
    from .mestim import build_problem, mean_contrast_family
    if not os.path.exists(path):
        raise UsageError(f"problem file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("family") != "mean_contrast":
        raise UsageError("only the mean_contrast family is file-loadable")
    xi = np.asarray(doc["xi"], dtype=float)
    kernels = {float(t): kernel_from_dict(k)
               for t, k in doc["kernels"].items()}
    return build_problem(mean_contrast_family(xi), kernels), doc


# -- argument parsing ------------------------------------------------------

def _subcommand(sub, name, func, help=None):
    p = sub.add_parser(name, help=help)
    p.add_argument("--fixture", help="built-in fixture name")
    p.add_argument("--spec", help="kernel / MAP / continuous-time spec file")
    p.add_argument("--out", help="report output path")
    p.add_argument("--csv", help="per-record CSV output path")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maplab",
        description="Spectral analysis and limit-theorem verification for "
                    "Markov additive processes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fixtures", help="list built-in fixtures")
    p.add_argument("action", choices=["list", "oracles"])
    p.set_defaults(func=cmd_fixtures)

    for name, func, help in [
            ("analyze", cmd_analyze, "dominant-eigenvalue branch summary"),
            ("scan-lambda", cmd_scan_lambda, "CSV table of the branch")]:
        p = _subcommand(sub, name, func, help)
        p.add_argument("--zeta-max", type=float, default=0.5)
        p.add_argument("--grid-points", type=_positive_int, default=41)

    p = _subcommand(sub, "simulate", cmd_simulate, "dump terminal samples")
    p.add_argument("--n", type=int, help="discrete horizon")
    p.add_argument("--t", type=float, help="continuous horizon")
    p.add_argument("--paths", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--init", help="initial distribution as a JSON vector")

    for name, func in [("verify-clt", cmd_verify_clt),
                       ("verify-be", cmd_verify_be),
                       ("verify-edgeworth", cmd_verify_edgeworth),
                       ("verify-llt", cmd_verify_llt),
                       ("verify-ct", cmd_verify_ct)]:
        p = _subcommand(sub, name, func)
        p.add_argument("--t-list" if name == "verify-ct" else "--n-list",
                       required=True)
        p.add_argument("--paths", type=_positive_int, required=True)
        p.add_argument("--seed", type=int, required=True)
        if name == "verify-edgeworth":
            p.add_argument("--init",
                           help="initial distribution as a JSON vector")
        if name in ("verify-edgeworth", "verify-llt"):
            p.add_argument("--allow-lattice", action="store_true")

    p = _subcommand(sub, "mixing-bound", cmd_mixing_bound)
    p.add_argument("--lags", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--paths", type=_positive_int, default=100000)
    p.add_argument("--seed", type=int, required=True)

    p = _subcommand(sub, "nonlattice-scan", cmd_nonlattice)
    p.add_argument("--k-min", type=float, default=0.1)
    p.add_argument("--k-max", type=float, default=10.0)
    p.add_argument("--k-points", type=_positive_int, default=200)

    p = _subcommand(sub, "mestimate", cmd_mestimate)
    p.add_argument("--problem", help="problem description file")
    p.add_argument("--n-list", required=True)
    p.add_argument("--reps", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        error, message = "usage", str(exc)
    except (FormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        error, message = "config", str(exc)
    except MaplabError as exc:
        error, message = type(exc).__name__, str(exc)
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
