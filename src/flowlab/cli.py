"""Command-line interface: sampling, norms, integrals, solves, and experiment campaigns.

Exit codes: 0 success / all criteria passed, 1 criterion failure,
2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import fbm
from .coefficients import parse_field
from .errors import BlowUpError, EmbeddingError, RegularityError
from .experiments import ExperimentConfig, default_config, run_experiment
from .fraccalc import lambda_alpha_report
from .paths import GridPath
from .reporting import iter_series, load_result, save_result, verify_result
from .sde import SolverConfig, solve_forward
from .young import rs_integral, young_bound_check, zahle_integral


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowlab", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    p_fbm = top.add_parser("fbm", help="fractional Brownian motion sampling and rate experiments")
    fbm_sub = p_fbm.add_subparsers(dest="command", required=True)
    p_sample = fbm_sub.add_parser("sample", help="sample one path to CSV")
    p_sample.add_argument("--hurst", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--m", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--horizon", type=float, default=1.0)
    p_sample.add_argument("--method", choices=("circulant", "cholesky"), default="circulant")
    p_sample.add_argument("--out", required=True)
    p_rate = fbm_sub.add_parser("rate", help="polygonal convergence-rate experiment")
    p_rate.add_argument("--hurst", type=float, default=0.75)
    p_rate.add_argument("--theta", type=float, default=0.55)
    p_rate.add_argument("--alpha", type=float, default=0.3)
    p_rate.add_argument("--fine", type=int, default=2**13)
    p_rate.add_argument("--coarse", default="16,32,64,128,256,512", help="comma-separated ladder")
    p_rate.add_argument("--seeds", type=int, default=50, help="number of seeds (0..k-1)")
    p_rate.add_argument("--out", required=True, help="summary CSV: coarse_n,median_error,q25,q75")
    p_rate.add_argument("--result-dir", default=None, help="optionally persist the full result")

    p_frac = top.add_parser("fraccalc", help="fractional-calculus functionals")
    frac_sub = p_frac.add_subparsers(dest="command", required=True)
    p_lambda = frac_sub.add_parser("lambda", help="driver-strength functional of a path")
    p_lambda.add_argument("--alpha", type=float, required=True)
    p_lambda.add_argument("--in", dest="path", required=True)
    p_lambda.add_argument("--exact", action="store_true", help="use every grid time as right endpoint")

    p_young = top.add_parser("young", help="Young integrals and the fundamental bound")
    young_sub = p_young.add_subparsers(dest="command", required=True)
    p_int = young_sub.add_parser("integrate", help="integrate f against g")
    p_int.add_argument("--f", required=True)
    p_int.add_argument("--g", required=True)
    p_int.add_argument("--method", choices=("rs", "zahle"), default="rs")
    p_int.add_argument("--alpha", type=float, default=None)
    p_bound = young_sub.add_parser("check-bound", help="evaluate |integral| <= Lambda * norm")
    p_bound.add_argument("--alpha", type=float, required=True)
    p_bound.add_argument("--f", required=True)
    p_bound.add_argument("--g", required=True)

    p_sde = top.add_parser("sde", help="pathwise differential-equation solver")
    sde_sub = p_sde.add_subparsers(dest="command", required=True)
    p_solve = sde_sub.add_parser("solve", help="solve a driven equation along one sampled path")
    p_solve.add_argument("--coeffs", default="builtin:geometric", help="builtin:<name>[:params] or file:<path>")
    p_solve.add_argument("--sigma0", type=float, default=None,
                         help="scale of builtin:geometric, builtin:additive or builtin:linear-drift without params")
    p_solve.add_argument("--x0", default="1.0", help="comma-separated initial point")
    p_solve.add_argument("--hurst", type=float, default=0.75)
    p_solve.add_argument("--alpha", type=float, default=0.3)
    p_solve.add_argument("--n", type=int, default=1024)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--horizon", type=float, default=1.0)
    p_solve.add_argument("--out", required=True)

    p_run = top.add_parser("run", help="run an experiment campaign from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--outdir", default=None, help="override the config's output directory")

    p_verify = top.add_parser("verify", help="recompute a persisted result's summary from its records")
    p_verify.add_argument("--result", required=True)

    p_report = top.add_parser("report", help="emit persisted records")
    p_report.add_argument("--result", required=True)
    p_report.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def _cmd_fbm_sample(args) -> int:
    spec = fbm.FbmSpec(args.hurst, args.m, args.horizon, args.n, args.seed)
    sampler = fbm.sample_circulant if args.method == "circulant" else fbm.sample_cholesky
    sampler(spec).path.to_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_fbm_rate(args) -> int:
    ladder = tuple(int(v) for v in args.coarse.split(","))
    config = default_config(
        "rate",
        hurst=args.hurst,
        theta=args.theta,
        alpha=args.alpha,
        fine_n=args.fine,
        ladder=ladder,
        seeds=tuple(range(args.seeds)),
    )
    result = run_experiment(config)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coarse_n", "median_error", "q25", "q75"])
        writer.writerows(dict(iter_series("rate", result.summary))["holder_error"])
    if args.result_dir:
        save_result(result, args.result_dir)
    print(f"wrote {args.out}; slope = {result.summary['fitted_slope']:.4f} "
          f"(target {result.summary['target_slope']:.2f})")
    return 0 if result.passed else 1


def _cmd_fraccalc_lambda(args) -> int:
    path = GridPath.read_csv(args.path)
    report = lambda_alpha_report(path, args.alpha, endpoints="all" if args.exact else "decimated")
    print(json.dumps({
        "lambda_alpha": report.value,
        "upper_bound": report.upper_bound,
        "endpoint_mode": report.endpoint_mode,
        "attained_s": report.attained_s,
        "attained_t": report.attained_t,
    }, indent=2))
    return 0


def _cmd_young_integrate(args) -> int:
    f = GridPath.read_csv(args.f)
    g = GridPath.read_csv(args.g)
    if args.method == "rs":
        value = rs_integral(f, g)
    else:
        value = zahle_integral(f, g, args.alpha)
    print(json.dumps({"method": args.method, "value": [float(v) for v in value]}))
    return 0


def _cmd_young_bound(args) -> int:
    f = GridPath.read_csv(args.f)
    g = GridPath.read_csv(args.g)
    report = young_bound_check(f, g, args.alpha)
    print(json.dumps({"lhs": report.lhs, "rhs": report.rhs, "slack": report.slack, "ok": report.ok}))
    return 0 if report.ok else 1


def _cmd_sde_solve(args) -> int:
    field = parse_field(args.coeffs, sigma0=args.sigma0)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    spec = fbm.FbmSpec(args.hurst, field.noise_dim, args.horizon, args.n, args.seed)
    driver = fbm.sample_circulant(spec).path
    cfg = SolverConfig(args.alpha, args.n, args.hurst)
    solution = solve_forward(x0, 0.0, field, driver, cfg)
    solution.to_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    config = ExperimentConfig.from_dict(doc)
    if args.outdir:
        config.outdir = args.outdir
    result = run_experiment(config)
    outdir = config.outdir or f"out-{config.kind}"
    save_result(result, outdir)
    for name, ok in sorted(result.checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"result written to {outdir} (wall time {result.wall_time:.1f}s)")
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    report = verify_result(args.result)
    print(report)
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    _, records, _ = load_result(args.result)
    if args.format == "jsonl":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        columns = sorted({k for rec in records for k in rec})
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([rec.get(c, "") for c in columns])
    return 0


_DISPATCH = {
    ("fbm", "sample"): _cmd_fbm_sample,
    ("fbm", "rate"): _cmd_fbm_rate,
    ("fraccalc", "lambda"): _cmd_fraccalc_lambda,
    ("young", "integrate"): _cmd_young_integrate,
    ("young", "check-bound"): _cmd_young_bound,
    ("sde", "solve"): _cmd_sde_solve,
    ("run", None): _cmd_run,
    ("verify", None): _cmd_verify,
    ("report", None): _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _DISPATCH[(args.group, getattr(args, "command", None))]
    try:
        return handler(args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly per unix convention
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ValueError, OSError, KeyError, BlowUpError, EmbeddingError, RegularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
