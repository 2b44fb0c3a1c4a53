"""Command-line entry point for the benchmark harness.

Each subcommand calls one ``matcomplete.bench.run_*`` function: every
option's ``dest`` is a parameter of that function, and every default but
``--out-dir``'s is the function's own.
"""

from __future__ import annotations

import argparse
import inspect
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


def _command(sub, name: str, run, summary: str):
    """The parser of subcommand ``name``, which calls ``run`` with its options
    as keywords; an option added to it takes ``run``'s default for its dest."""
    parser = sub.add_parser(name, help=summary)
    defaults = {
        param.name: param.default
        for param in inspect.signature(run).parameters.values()
        if param.default is not param.empty
    }
    parser.set_defaults(run=run, **defaults)
    parser.add_argument("--out-dir", default=os.environ.get(OUT_DIR_ENV, "bench-out"),
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./bench-out)")
    return parser


def _add_solver_options(parser):
    """The options of the commands that run the solvers with a tolerance bundle."""
    parser.add_argument("--tol-bundle", dest="bundle", choices=sorted(TOLERANCE_BUNDLES),
                        help="named tolerance bundle (default: %(default)s)")
    parser.add_argument("--w", type=int, help="warm-start iteration budget (default: %(default)s)")
    parser.add_argument("--it-max", type=int, help="main iteration budget (default: %(default)s)")
    parser.add_argument("--beta", type=float, help="momentum parameter (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcomplete-bench",
        description="Matrix-completion benchmarks: synthetic sweeps, momentum tuning, "
                    "MovieLens holdout runs and per-iteration traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", run_synth, "run solvers on seeded synthetic instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="deleted fraction in [0, 1)")
    p.add_argument("--seeds", type=int, help="number of seeds, 0..seeds-1 (default: %(default)s)")
    p.add_argument("--methods", type=_methods_list)
    p.add_argument("--threads", type=int, help="parallel worker processes (default: %(default)s)")
    _add_solver_options(p)

    p = _command(sub, "beta-sweep", run_beta_sweep, "warm-start iterations across a momentum grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps-rho", type=float)
    p.add_argument("--w", type=int, help="warm-start iteration budget (default: %(default)s)")
    p.add_argument("--beta", dest="betas", type=_float_list,
                   help="comma list of momentum parameters (default: %(default)s)")

    p = _command(sub, "movielens", run_movielens, "holdout benchmark on a MovieLens ratings file")
    p.add_argument("--dataset", required=True, help="path to the ratings file")
    p.add_argument("--format", dest="fmt", choices=("ml100k", "ml1m"))
    p.add_argument("--r", dest="ranks", type=_int_list,
                   help="target rank, a comma list sweeps (default: %(default)s)")
    p.add_argument("--methods", type=_methods_list)
    p.add_argument("--holdout", type=float)
    p.add_argument("--seed", type=int)
    _add_solver_options(p)

    p = _command(sub, "trace", run_trace, "per-iteration trace of one solve")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset", help="trace on a ratings file instead of synthetic data")
    p.add_argument("--format", dest="fmt", choices=("ml100k", "ml1m"))
    p.add_argument("--ground-truth", action="store_true",
                   help="record the fejer slack column (synthetic instances only)")
    _add_solver_options(p)

    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    del options["command"]
    run = options.pop("run")
    try:
        return run(**options)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
