"""Command-line driver: reproducible experiments with machine-readable output.

Every run echoes its fully resolved configuration (defaults included) as
'#'-prefixed header lines, so any emitted file can be replayed bit-for-bit.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys

from .codes import (
    classical_code,
    full_space_code,
    shell_analytics,
    shell_code,
    typeclass_code,
)
from .errors import BucketingError
from .information import (
    InfoQuery,
    conjecture_scan,
    direct_lower_bound,
    info_numeric,
    is_subconjugate,
    work_lower_bound,
)
from .probmodel import bernoulli_matrix, matrix_from_json
from .simharness import (
    baseline_exponents,
    cauchy_baseline,
    result_row,
    run_experiment,
    write_csv,
)

# most points a lo:hi:step grid may hold, so that a tiny step fails at once
# instead of filling memory
GRID_MAX_POINTS = 10**6


def _parse_grid(text: str) -> list:
    """Parse lo:hi:step into an inclusive float grid; a bare number is a
    singleton grid."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not lo:hi:step")
    lo, hi, step = (float(x) for x in parts)
    # written so that nan fails; a grid with a non-finite bound or step
    # would never end
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)
            and step > 0 and hi >= lo):
        raise ValueError(
            f"grid {text!r} must be finite with step > 0 and hi >= lo")
    if (hi - lo) / step > GRID_MAX_POINTS:
        raise ValueError(
            f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9:
            break
        out.append(round(v, 12))
        k += 1
    return out


def _load_matrix(args, parser):
    if getattr(args, "matrix", None):
        with open(args.matrix) as fh:
            return matrix_from_json(fh.read())
    if getattr(args, "p", None) is not None:
        return bernoulli_matrix(args.p)
    parser.error("one of --p or --matrix is required")


def _config_header(args) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    for k, v in cfg.items():
        if v == math.inf:
            cfg[k] = "inf"
    return "# config " + json.dumps(cfg, sort_keys=True) + "\n"


def _emit(args, text: str) -> None:
    """Write the header and `text` to stdout, or over the --out file.

    An existing --out file is rewritten in place and then cut at the end of
    the payload, since truncating it to zero first can cost tens of
    milliseconds where freed blocks are discarded.  Only a regular file is
    cut, so devices such as /dev/stdout and /dev/null work as targets.
    """
    payload = _config_header(args) + text
    if getattr(args, "out", None):
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666),
                  "wb") as fh:
            fh.write(payload.encode())
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(payload)


def _cmd_info(args, parser):
    p = _load_matrix(args, parser)
    res = info_numeric(
        p, InfoQuery(args.lambda0, args.lambda1, float(args.mu)),
        n_starts=args.starts, seed=args.seed,
    )
    _emit(args, f"{res.value:.7f}\n# method {res.method}\n")


def _cmd_subconj(args, parser):
    p = _load_matrix(args, parser)
    flag, witness, value = is_subconjugate(
        p, args.lambda0, args.lambda1, n_starts=args.starts
    )
    _emit(args, "\n".join([
        f"subconjugate {'true' if flag else 'false'}",
        f"residual {value!r}",
        "witness " + json.dumps(witness.tolist()),
    ]) + "\n")


def _cmd_bound(args, parser):
    p = _load_matrix(args, parser)
    # first, so that an empty block list fails before any frontier solve
    wb = work_lower_bound([p] * args.blocks, args.n0, args.n1, args.S,
                          n_starts=args.starts)
    direct = direct_lower_bound(p, args.n0, args.n1, args.S,
                                n_directions=args.directions,
                                n_starts=args.starts)
    _emit(args, "\n".join([
        f"direct_work_bound {direct!r}",
        f"ln_work_bound {wb.ln_w!r}",
        f"at_lambda0 {wb.lambda0!r}",
        f"at_lambda1 {wb.lambda1!r}",
        f"at_mu {'inf' if wb.mu == math.inf else repr(wb.mu)}",
    ]) + "\n")


def _cmd_conjecture(args, parser):
    report = conjecture_scan(_parse_grid(args.p_grid), args.resolution,
                             tol=args.tol)
    _emit(args, "\n".join([
        f"violations: {report.violations}",
        f"grid {report.grid}",
        f"worst_margin {report.worst_margin!r}",
    ]) + "\n")


def _build_code(args, parser, p):
    kind = args.code
    if kind == "shell":
        if args.d0 is None:
            parser.error("--d0 is required for --code shell")
        t_count = args.T
        if t_count is None:
            if args.p is None:
                parser.error("shell repeat count needs --T or --p with --eps")
            t_count = shell_analytics(args.d, args.d0, args.p, args.eps).T
        return shell_code(args.d, args.d0, t_count, seed=args.seed)
    if kind == "classical":
        if args.k is None:
            parser.error("--k is required for --code classical")
        draws = 1 if args.T is None else args.T
        return classical_code(args.d, args.k, draws, seed=args.seed)
    if kind == "typeclass":
        if args.matrix is None:
            parser.error("--code typeclass requires --matrix (blocks = P)")
        return typeclass_code(p, args.d, [p.entries], seed=args.seed,
                              T=args.T)
    if kind == "full":
        return full_space_code(args.d)
    parser.error(f"unknown code kind {kind!r}")


def _cmd_simulate(args, parser):
    p = _load_matrix(args, parser)
    code = _build_code(args, parser, p)
    n0 = args.n0
    n1 = args.n1
    if n0 is None or n1 is None:
        default = max(1, int(1.0 / code.bucket_probs()[0][1]))
        n0 = default if n0 is None else n0
        n1 = default if n1 is None else n1
    result = run_experiment(code, p, args.d, n0, n1, args.trials, args.seed)
    row = result_row("cli-simulate", code, args.p if args.p is not None
                     else "matrix", n0, n1, result)
    _emit(args, write_csv([row]))


def _cmd_sweep(args, parser):
    p = _load_matrix(args, parser)
    lines = ["lambda0,lambda1,mu,value,method"]
    l0_grid = _parse_grid(args.lambda0_grid)
    l1_grid = _parse_grid(args.lambda1_grid)
    mu_grid = [mu for part in args.mu_grid.split(",")
               for mu in _parse_grid(part)]
    for l0 in l0_grid:
        for l1 in l1_grid:
            for mu in mu_grid:
                res = info_numeric(p, InfoQuery(l0, l1, mu),
                                   n_starts=args.starts, seed=args.seed)
                mu_str = "inf" if mu == math.inf else repr(mu)
                lines.append(
                    f"{l0!r},{l1!r},{mu_str},{res.value!r},{res.method}"
                )
    _emit(args, "\n".join(lines) + "\n")


def _cmd_baseline(args, parser):
    if not 0.5 < args.p < 1.0:
        parser.error(f"--p {args.p} must lie strictly inside (1/2, 1)")
    record = baseline_exponents(args.p)
    lines = [f"{k} {v!r}" for k, v in sorted(record.items())]
    if args.cauchy_samples:
        freq = cauchy_baseline(args.cauchy_samples, args.seed)
        lines.append(f"cauchy_sign_agreement {freq!r}")
    _emit(args, "\n".join(lines) + "\n")


def _add_starts_flag(sp, default):
    sp.add_argument("--starts", type=int, default=default,
                    help="minimum optimizer starts per I evaluation; at "
                         "least 4 per support cell of P run for mu <= 1, "
                         "4*b0*b1 for 1 < mu < inf and 2 at mu = inf, so "
                         "values below 16 change nothing at finite mu on a "
                         "full 2x2 matrix")


def _add_matrix_flags(sp):
    sp.add_argument("--p", type=float, default=None,
                    help="bernoulli agreement probability in [1/2, 1]")
    sp.add_argument("--matrix", default=None,
                    help="path to a JSON matrix {rows, cols, entries}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bucketing",
        description="Bucketing codes: information bounds, constructions, "
                    "and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="bucketing information I(P,l0,l1,mu)")
    _add_matrix_flags(sp)
    sp.add_argument("--lambda0", type=float, default=1.0)
    sp.add_argument("--lambda1", type=float, default=1.0)
    sp.add_argument("--mu", default="inf", help="float or 'inf'")
    _add_starts_flag(sp, 32)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_info)

    sp = sub.add_parser("subconj", help="sub-conjugacy certificate")
    _add_matrix_flags(sp)
    sp.add_argument("--lambda0", type=float, required=True)
    sp.add_argument("--lambda1", type=float, required=True)
    _add_starts_flag(sp, 32)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_subconj)

    sp = sub.add_parser("bound", help="work lower bounds")
    _add_matrix_flags(sp)
    sp.add_argument("--n0", type=float, required=True)
    sp.add_argument("--n1", type=float, required=True)
    sp.add_argument("--S", type=float, default=0.5)
    sp.add_argument("--blocks", type=int, default=1,
                    help="number of i.i.d. coordinate blocks (at least 1)")
    sp.add_argument("--directions", type=int, default=64)
    _add_starts_flag(sp, 16)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("conjecture", help="scan the two-divergence bound")
    sp.add_argument("--p-grid", dest="p_grid", default="0.55:0.95:0.1")
    sp.add_argument("--resolution", type=int, default=60)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_conjecture)

    sp = sub.add_parser("simulate", help="Monte Carlo planted-pair runs")
    _add_matrix_flags(sp)
    sp.add_argument("--code", required=True,
                    choices=["shell", "classical", "typeclass", "full"])
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--d0", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--n0", type=int, default=None)
    sp.add_argument("--n1", type=int, default=None)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sweep", help="grid sweep of I over (l0, l1, mu)")
    _add_matrix_flags(sp)
    sp.add_argument("--lambda0-grid", dest="lambda0_grid", default="1")
    sp.add_argument("--lambda1-grid", dest="lambda1_grid", default="1")
    sp.add_argument("--mu-grid", dest="mu_grid", default="0:4:0.5,inf",
                    help="comma-separated lo:hi:step grids; 'inf' allowed")
    _add_starts_flag(sp, 32)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("baseline", help="known work exponents at p")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--cauchy-samples", dest="cauchy_samples", type=int,
                    default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_baseline)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except (ValueError, BucketingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
