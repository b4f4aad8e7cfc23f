"""Command-line front end: analysis, simulation and verification subcommands.

Every subcommand emits a deterministic JSON report (atomic write, sorted keys,
no timestamps) embedding the model content hash and the effective numeric
configuration, so an identical invocation reproduces the file byte for byte.
Exit codes: 0 pass-verdict, 1 fail-verdict, 2 usage or configuration error.

COMMANDS is the one table of subcommands: each row declares its options, the
config keys its report echoes, the model types it accepts and its handler. A
handler only parses its options and calls a check (or a spectral routine);
every gate lives in its check. _run turns every CheckResult into the report,
its files and the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import fixtures as fixture_registry
from .chain_core import StochasticKernel
from .errors import MaplabError, NotScalar
from .fourier import NONLATTICE_GRID, lambda_branch, nonlattice_certificate
from .io import (FormatError, _jsonable, load_problem, load_spec, write_csv,
                 write_report, write_samples)
from .limit_checks import (CheckResult, berry_esseen_check, clt_check,
                           ct_limit_check, edgeworth_check, llt_check,
                           rho_mixing_check)
from .map_model import CtMapSpec, MapSpec, cumulant_rates
from .mestim import MEstimationProblem, estimator_be_check
from .montecarlo import simulate_ct, simulate_discrete


class UsageError(Exception):
    pass


# the rows of the scan-lambda CSV table
BranchPoint = dataclasses.make_dataclass("BranchPoint", [
    "zeta", "re_lambda", "im_lambda", "abs_lambda", "kappa_hat", "separation"])


def _number(kind, positive=True):
    """argparse type: a finite value of kind, and > 0 if positive."""
    def parse(text: str):
        value = kind(text)      # a ValueError is argparse's usage error too
        if not (0 if positive else -math.inf) < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite{' positive' if positive else ''} "
                f"{kind.__name__}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # named in argparse's "invalid int value"
    return parse


def _positive_list(text: str, kind):
    """Comma-separated finite positive values of type kind (int or float)."""
    try:
        values = [_number(kind)(x) for x in text.split(",") if x]
    except (ValueError, argparse.ArgumentTypeError):
        values = []
    if not values:
        raise UsageError(f"expected comma-separated positive "
                         f"{kind.__name__}s, got {text!r}")
    return values


def _json_vector(text: str) -> str:
    """--init: a JSON list of finite numbers, kept as text for the report."""
    try:
        mu = np.asarray(json.loads(text), dtype=float)
    except (ValueError, TypeError):
        mu = None
    if mu is None or mu.ndim != 1 or not mu.size or not np.isfinite(mu).all():
        raise argparse.ArgumentTypeError(f"expected a JSON list of finite "
                                         f"numbers, got {text!r}")
    return text


def _init(args):
    """The --init distribution as an array, or None when it is not given."""
    return None if args.init is None else np.asarray(json.loads(args.init),
                                                     dtype=float)


def _load_model(args, accepts):
    """(model, its config entries) from --fixture, --spec or --problem."""
    kind = "problem" if "problem" in vars(args) else "spec"
    path = vars(args)[kind]
    if args.fixture:
        try:
            model = fixture_registry.get_fixture(args.fixture)
        except KeyError as exc:
            raise UsageError(str(exc))
        doc = {"fixture": args.fixture}
    elif not path:
        raise UsageError(f"one of --fixture or --{kind} is required")
    elif not os.path.exists(path):
        raise UsageError(f"{kind} file not found: {path}")
    else:
        model, doc = load_problem(path) if kind == "problem" else (
            load_spec(path), None)
    if not isinstance(model, accepts):
        raise UsageError(f"{args.subcommand} accepts " + " or ".join(
            t.__name__ for t in accepts) + f", got {type(model).__name__}")
    return model, ({"problem": doc} if kind == "problem" else
                   {"fixture": args.fixture, "spec": args.spec})


def cmd_fixtures(args):
    if args.action == "list":
        print("\n".join(fixture_registry.fixture_names()))
    else:
        print(json.dumps(_jsonable(fixture_registry.ORACLES), sort_keys=True,
                         indent=2))
    return 0


def _linspace(start, stop, num, options):
    """np.linspace, or a UsageError naming options if stop - start is inf."""
    if not math.isfinite(stop - start):
        raise UsageError(f"{options}: the grid span {stop} - {start} is inf")
    return np.linspace(start, stop, num)


def _branch(model, args):
    """lambda_branch on the --zeta-max grid, with 0 added if absent, made
    exactly symmetric: an odd grid's middle entry is 0, and each negative
    entry whose mirror entry is positive becomes its negation, so
    lambda_branch decomposes each |zeta| once."""
    grid = _linspace(-args.zeta_max, args.zeta_max, args.grid_points,
                     "--zeta-max")
    if args.grid_points % 2 and args.grid_points > 1:
        grid[args.grid_points // 2] = 0.0   # linspace may leave 2e-16 there
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    mirror = grid[::-1]
    return lambda_branch(model, np.where((grid < 0) & (mirror > 0), -mirror,
                                         grid))


def cmd_analyze(args, model):
    summary = _branch(model, args)
    mean, sigma2, mu3 = cumulant_rates(model)
    return CheckResult(passed=True, extras={
        "grid": summary.grid,
        "lambda_re": np.real(summary.lam),
        "lambda_im": np.imag(summary.lam),
        "kappa_hat": summary.kappa_hat,
        "separation": summary.separation,
        "mean_rate": [mean],
        "sigma2": sigma2,
        "mu3": mu3,
    })


def cmd_scan_lambda(args, model):
    summary = _branch(model, args)
    sep = np.abs(summary.lam) - summary.kappa_hat
    return CheckResult([BranchPoint(float(z), float(l.real), float(l.imag),
                                    float(abs(l)), summary.kappa_hat, float(s))
                        for z, l, s in zip(summary.grid, summary.lam, sep)])


def cmd_simulate(args, model):
    ct = isinstance(model, CtMapSpec)
    if (args.t if ct else args.n) is None:
        raise UsageError("continuous-time spec requires --t" if ct else
                         "discrete spec requires --n")
    batch = (simulate_ct(model, args.t, args.paths, args.seed, mu=_init(args))
             if ct else simulate_discrete(model, args.n, args.paths,
                                          args.seed, mu=_init(args)))
    return CheckResult(batch.terminal_Y, extras={
        "spec_hash": batch.spec_id, "horizon": batch.horizon,
        "n_paths": batch.n_paths, "d": batch.terminal_Y.shape[1]})


def cmd_verify_clt(args, model):
    return clt_check(model, _positive_list(args.n_list, int), args.paths,
                     args.seed)


def cmd_verify_be(args, model):
    return berry_esseen_check(model, _positive_list(args.n_list, int),
                              args.paths, args.seed)


def cmd_verify_edgeworth(args, model):
    result = edgeworth_check(model, _positive_list(args.n_list, int),
                             args.paths, args.seed, mu=_init(args),
                             allow_lattice=args.allow_lattice)
    return result._replace(extras={**result.extras, "init": args.init})


def cmd_verify_llt(args, model):
    return llt_check(model, _positive_list(args.n_list, int), args.paths,
                     args.seed, allow_lattice=args.allow_lattice)


def cmd_verify_ct(args, model):
    return ct_limit_check(model, _positive_list(args.t_list, float),
                          args.paths, args.seed)


def cmd_mixing_bound(args, model):
    # a bare kernel draws nothing, so only a spec needs --seed
    if args.seed is None and not isinstance(model, StochasticKernel):
        raise UsageError("mixing-bound on a spec requires --seed")
    return rho_mixing_check(model, _positive_list(args.lags, int), args.paths,
                            args.seed)


def cmd_nonlattice(args, model):
    K = _linspace(args.k_min, args.k_max, args.k_points, "--k-min/--k-max")
    K = K[K != 0]
    if not len(K):
        raise UsageError("the k grid has no nonzero point")
    return CheckResult(None, *nonlattice_certificate(model, K))


def cmd_mestimate(args, problem):
    return estimator_be_check(problem, _positive_list(args.n_list, int),
                              args.reps, args.seed)


def _csv_table(records):
    """Header and rows of a CSV table, one column per dataclass field."""
    fields = [f.name for f in dataclasses.fields(records[0])]
    return fields, [[getattr(r, f) for f in fields] for r in records]


def _write_report(args, report, result):
    """The JSON report to --out or stdout, and the table to --csv if asked."""
    if result.records is not None:
        report["records"] = [vars(r) for r in result.records]
    if args.out:
        write_report(args.out, report)
    else:
        try:
            print(json.dumps(_jsonable(report), sort_keys=True, indent=2),
                  flush=True)
        except BrokenPipeError:
            # the reader has gone: the verdict stands, and the flush at
            # exit writes what is left to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    if getattr(args, "csv", None):
        write_csv(args.csv, *_csv_table(result.table or result.records))


SPECS = (MapSpec, CtMapSpec)


class Command(NamedTuple):
    handler: object
    help: str
    options: list               # (flag, argparse keywords)
    config: tuple = ()          # option dests the report echoes in config
    accepts: tuple = SPECS      # model types; None: no model and no report
    write: object = _write_report   # None: the records are a CSV at --out
    scalar: bool = False        # d = 1 specs only


_FIXTURE = ("--fixture", {"help": "built-in fixture name"})
_SOURCE = [_FIXTURE,
           ("--spec", {"help": "kernel / MAP / continuous-time spec file"})]
_OUT = ("--out", {"help": "report output path (default: stdout)"})
_CSV = ("--csv", {"help": "per-record CSV output path"})
_PATHS = ("--paths", {"type": _number(int), "required": True})
_SEED = ("--seed", {"type": int, "required": True})
_N_LIST = ("--n-list", {"required": True})
_INIT = ("--init", {"type": _json_vector,
                    "help": "initial distribution as a JSON vector"})
_LATTICE = ("--allow-lattice", {"action": "store_true"})
_BRANCH = [("--zeta-max", {"type": _number(float, False), "default": 0.5}),
           ("--grid-points", {"type": _number(int), "default": 41})]
_K_MIN, _K_MAX, _K_POINTS = NONLATTICE_GRID
_VERIFY = [*_SOURCE, _OUT, _CSV, _N_LIST, _PATHS, _SEED]
_MC = ("n_list", "paths", "seed")

COMMANDS = {
    "fixtures": Command(cmd_fixtures, "list built-in fixtures", [
        ("action", {"choices": ["list", "oracles"]})], accepts=None),
    "analyze": Command(cmd_analyze, "dominant-eigenvalue branch summary",
                       [*_SOURCE, _OUT, *_BRANCH], ("zeta_max", "grid_points"),
                       scalar=True),
    "scan-lambda": Command(cmd_scan_lambda, "CSV table of the branch", [
        *_SOURCE, ("--out", {"required": True, "help": "CSV output path"}),
        *_BRANCH], write=None, scalar=True),
    "simulate": Command(cmd_simulate, "dump terminal samples", [
        *_SOURCE, ("--out", {"required": True, "help": "sample output path"}),
        ("--n", {"type": _number(int), "help": "discrete horizon"}),
        ("--t", {"type": _number(float), "help": "continuous horizon"}),
        _PATHS, _SEED, _INIT], ("n", "t", "paths", "seed", "init"),
        write=lambda args, report, result: write_samples(
            args.out, result.records, report)),
    "verify-clt": Command(cmd_verify_clt, "central limit theorem", _VERIFY,
                          _MC, scalar=True),
    "verify-be": Command(cmd_verify_be, "Berry-Esseen flatness", _VERIFY, _MC,
                         (MapSpec,), scalar=True),
    "verify-edgeworth": Command(cmd_verify_edgeworth, "Edgeworth expansion", [
        *_VERIFY, _INIT, _LATTICE], _MC + ("allow_lattice",), (MapSpec,),
        scalar=True),
    "verify-llt": Command(cmd_verify_llt, "local limit theorem", [
        *_VERIFY, _LATTICE], _MC + ("allow_lattice",), (MapSpec,),
        scalar=True),
    "verify-ct": Command(cmd_verify_ct, "continuous-time central limit", [
        *_SOURCE, _OUT, _CSV, ("--t-list", {"required": True}), _PATHS,
        _SEED], ("t_list", "paths", "seed"), (CtMapSpec,)),
    "mixing-bound": Command(cmd_mixing_bound, "rho-mixing bounds", [
        *_SOURCE, _OUT, _CSV, ("--lags", {"default": "1,2,3,4,5,6,7,8,9,10"}),
        ("--paths", {"type": _number(int), "default": 100000}),
        ("--seed", {"type": int})],
        ("lags",), (StochasticKernel, *SPECS)),
    "nonlattice-scan": Command(cmd_nonlattice, "spectral radius off zero", [
        *_SOURCE, _OUT,
        ("--k-min", {"type": _number(float, False), "default": _K_MIN}),
        ("--k-max", {"type": _number(float, False), "default": _K_MAX}),
        ("--k-points", {"type": _number(int), "default": _K_POINTS})],
        ("k_min", "k_max", "k_points"), scalar=True),
    "mestimate": Command(cmd_mestimate, "M-estimator Berry-Esseen", [
        _FIXTURE, ("--problem", {"help": "problem description file"}),
        _OUT, _CSV, _N_LIST,
        ("--reps", {"type": _number(int), "required": True}), _SEED],
        ("n_list", "reps", "seed"), (MEstimationProblem,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maplab",
        description="Spectral analysis and limit-theorem verification for "
                    "Markov additive processes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def _run(args) -> int:
    """The one report path: load, compute, write; the verdict's exit code."""
    command = COMMANDS[args.subcommand]
    if command.accepts is None:
        return command.handler(args)
    model, source = _load_model(args, command.accepts)
    if command.scalar and getattr(model, "d", 1) != 1:
        raise NotScalar(f"{args.subcommand} requires a d = 1 spec, "
                        f"got d = {model.d}")
    result = command.handler(args, model)
    if command.write is None:
        write_csv(args.out, *_csv_table(result.records))
        return 0
    report = {"subcommand": args.subcommand, **result.extras, "config": {
        **{key: getattr(args, key) for key in command.config}, **source,
        **result.extras.get("config", {})}}
    if "spec_hash" not in report and not isinstance(model,
                                                    MEstimationProblem):
        report["spec_hash"] = model.content_hash
    if result.passed is not None:
        report["verdict"] = "pass" if result.passed else "fail"
    command.write(args, report, result)
    return 0 if result.passed is None or result.passed else 1


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except UsageError as exc:
        error, message = "usage", str(exc)
    except (FormatError, OSError) as exc:
        error, message = "config", str(exc)
    except MaplabError as exc:
        error, message = type(exc).__name__, str(exc)
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
