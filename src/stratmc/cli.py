"""Command-line front end.

Subcommands: `directions` (print or export direction vectors and their
pairwise angles), `price` (one estimator cell), `experiment` (full result
table), `selftest` (the built-in acceptance checks).  Exit codes: 0 on
success, 2 for configuration errors, 3 for numeric, memory or I/O
failures and failed self-tests.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import acceptance
from .errors import ConfigInvalid, StratMcError
from .experiment import direction_sets, format_rows, load_config, run_experiment
from .directions import angle_degrees, export_directions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratmc",
        description="Stratified Monte Carlo option pricing along chosen "
                    "projection directions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output file path")

    p_dir = sub.add_parser(
        "directions",
        help="print direction vectors and pairwise angles for the "
             "configured methods")
    add_common(p_dir)

    p_price = sub.add_parser(
        "price",
        help="price one cell: first payoff, first method (or plain MC), "
             "first allocation from the config")
    add_common(p_price)

    p_exp = sub.add_parser(
        "experiment", help="run the full method/allocation/payoff table")
    add_common(p_exp)
    for p in (p_price, p_exp):
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output table format")

    p_self = sub.add_parser(
        "selftest", help="run the built-in acceptance checks")
    p_self.add_argument("--only", type=int, action="append", default=None,
                        metavar="N", help="run only criterion N (repeatable)")
    return parser


def _load(args):
    config = load_config(args.config)
    overrides = {name: getattr(args, name) for name in ("seed", "out", "format")
                 if getattr(args, name, None) is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_directions(args) -> int:
    config = _load(args)
    sets = direction_sets(config)
    if not sets:
        raise ConfigInvalid("run.methods: no direction-based method selected")
    for name, ds in sets.items():
        print(f"[{name}]  {ds.count} direction(s), dim {ds.dim}")
        for j in range(ds.count):
            comps = " ".join(f"{v:.6g}" for v in ds.columns[:8, j])
            tail = " ..." if ds.dim > 8 else ""
            print(f"  col {j + 1}: {comps}{tail}")
        for j in range(1, ds.count):
            ang = angle_degrees(ds.columns[:, 0], ds.columns[:, j])
            print(f"  angle(col 1, col {j + 1}) = {ang:.4f} deg")
    names = list(sets)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ang = angle_degrees(sets[a].columns[:, 0], sets[b].columns[:, 0])
            print(f"angle({a}, {b}) = {ang:.4f} deg")
    if args.out:
        stacked = np.column_stack([sets[m].columns for m in names])
        export_directions(stacked, args.out)
        print(f"wrote {stacked.shape[1]} column(s) to {args.out}")
    return 0


def _cmd_price(args) -> int:
    config = _load(args)
    config = dataclasses.replace(
        config, payoffs=config.payoffs[:1], allocs=config.allocs[:1],
        methods=[m for m in config.methods if m != "mc"][:1])
    rows = run_experiment(config)
    row = rows[-1]  # the requested cell; rows[0] is the MC baseline
    se = np.sqrt(row.variance / row.n_samples)
    print(f"{row.method}/{row.alloc}  {row.payoff} K={row.strike:g}"
          + (f" B={row.barrier:g}" if row.barrier is not None else ""))
    print(f"price = {row.price:.6f}  (std error {se:.6f})")
    print(f"single-draw variance = {row.variance:.6g}   "
          f"n = {row.n_samples}   strata = {row.strata}")
    if config.out:
        _write(rows, config)
    return 0


def _write(rows, config) -> None:
    text = format_rows(rows, config.format)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} row(s) to {config.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_experiment(args) -> int:
    config = _load(args)
    rows = run_experiment(config)
    _write(rows, config)
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(args.only)
    if not results:
        print("no matching criteria", file=sys.stderr)
        return 2
    failed = 0
    for crit, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {crit.number:2d} {crit.slug}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 3


_COMMANDS = {
    "directions": _cmd_directions,
    "price": _cmd_price,
    "experiment": _cmd_experiment,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StratMcError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
