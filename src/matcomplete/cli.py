"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import os
import sys

from .bench import METHODS, OUT_DIR_ENV, TOLERANCE_BUNDLES, run_beta_sweep, run_movielens, run_synth, run_trace


def _items(text: str, what: str) -> list[str]:
    """The nonblank items of a comma list; a list with none is an error."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"at least one {what} required")
    return items


def _methods_list(text: str) -> list[str]:
    methods = _items(text, "method")
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    return methods


def _float_list(text: str) -> list[float]:
    return [float(t) for t in _items(text, "value")]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in _items(text, "value")]


def _add_out_dir(parser):
    parser.add_argument("--out-dir", default=os.environ.get(OUT_DIR_ENV, "bench-out"),
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./bench-out)")


def _add_solver_options(parser, bundle: str):
    """The options of the commands that run the solvers with a tolerance bundle."""
    parser.add_argument("--tol-bundle", choices=sorted(TOLERANCE_BUNDLES), default=bundle,
                        help=f"named tolerance bundle (default: {bundle})")
    parser.add_argument("--w", type=int, default=500, help="warm-start iteration budget")
    parser.add_argument("--it-max", type=int, default=500, help="main iteration budget")
    parser.add_argument("--beta", type=float, default=2.0, help="momentum parameter")
    _add_out_dir(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcomplete-bench",
        description="Matrix-completion benchmarks: synthetic sweeps, momentum tuning, "
                    "MovieLens holdout runs and per-iteration traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run solvers on seeded synthetic instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="deleted fraction in [0, 1)")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (0..seeds-1)")
    p.add_argument("--methods", type=_methods_list, default=list(METHODS))
    p.add_argument("--threads", type=int, default=1, help="parallel worker processes")
    _add_solver_options(p, "paper-synth")

    p = sub.add_parser("beta-sweep", help="warm-start iterations across a momentum grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-rho", type=float, default=1e-8)
    p.add_argument("--w", type=int, default=1000, help="warm-start iteration budget")
    p.add_argument("--beta", type=_float_list, default=[float(b) for b in range(2, 31)],
                   help="comma list of momentum parameters (default: 2, 3, ..., 30)")
    _add_out_dir(p)

    p = sub.add_parser("movielens", help="holdout benchmark on a MovieLens ratings file")
    p.add_argument("--dataset", required=True, help="path to the ratings file")
    p.add_argument("--format", choices=("ml100k", "ml1m"), default="ml100k")
    p.add_argument("--r", type=_int_list, default=[130], help="target rank (comma list sweeps)")
    p.add_argument("--methods", type=_methods_list, default=list(METHODS))
    p.add_argument("--holdout", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_options(p, "paper-ml")

    p = sub.add_parser("trace", help="per-iteration trace of one solve")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--r", type=int, default=10)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", default=None, help="trace on a ratings file instead of synthetic data")
    p.add_argument("--format", choices=("ml100k", "ml1m"), default="ml100k")
    p.add_argument("--ground-truth", action="store_true",
                   help="record the fejer slack column (synthetic instances only)")
    _add_solver_options(p, "paper-synth")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return run_synth(
                args.out_dir, args.n, args.r, args.p, seeds=args.seeds, methods=args.methods,
                beta=args.beta, w=args.w, it_max=args.it_max, bundle=args.tol_bundle,
                threads=args.threads,
            )
        if args.command == "beta-sweep":
            return run_beta_sweep(args.out_dir, args.n, args.r, args.p, args.beta, w=args.w,
                                  eps_rho=args.eps_rho, seed=args.seed)
        if args.command == "movielens":
            return run_movielens(
                args.out_dir, args.dataset, args.format, methods=args.methods, ranks=args.r,
                beta=args.beta, w=args.w, it_max=args.it_max, bundle=args.tol_bundle,
                holdout=args.holdout, seed=args.seed,
            )
        if args.command == "trace":
            return run_trace(
                args.out_dir, args.method, n=args.n, r=args.r, p=args.p, seed=args.seed,
                dataset=args.dataset, fmt=args.format, ground_truth=args.ground_truth,
                beta=args.beta, w=args.w, it_max=args.it_max, bundle=args.tol_bundle,
            )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
