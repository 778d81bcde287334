"""Batch command-line front end.

Subcommands::

    rule      print a rule's coefficients, identity residuals, and penalties
    sweep     evaluate the MSE-difference grid -> delta CSV (+ raw counts)
    boundary  locate per-budget crossings in sweep's delta CSV -> crossing CSV
    fit       regressions + constant checks + bootstrap -> JSON report
    validate  run the self-contained validation battery
    plan      regime/boundary verdict from declared constants

Every stage writes or reads its tables on the configuration's grid table,
``cfg.grids``.  ``boundary`` and ``fit`` only read what the earlier stages
wrote: a missing table, or one that is not the table their configuration
fixes, is a configuration error that names the stage to rerun.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 domain error.  The bootstrap runs on threads, one per usable core (run
under ``taskset`` for fewer), and results do not depend on the count.
Monte Carlo counts are drawn in-process, the same bytes as
``mse.cell_stream``'s draws.
Everything else comes from the configuration file and ``--set`` overrides.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .boundary import budget_bracket, classify_regime, crossing_estimates, leading_bias_gain
from .config import load_config
from .errors import (
    AllocationError,
    ConfigError,
    DomainError,
    FitError,
    ModelError,
    RegimeError,
    RuleError,
    ZneBoundaryError,
)
from .mse import CountTable
from .pipeline import (
    build_report,
    read_crossings_csv,
    read_delta_csv,
    run_sweep,
    write_crossings_csv,
    write_delta_csv,
    write_variance_csv,
)
from .rules import build_rule, small_noise_allocation, variance_penalty
from .validate import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _parse_floats(name: str, text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"cannot parse {name} {text!r}: {err}") from err


def _rule_from_args(args):
    scales = _parse_floats("scales", args.scales)
    alloc = args.alloc
    if alloc not in ("uniform", "optimal"):
        alloc = _parse_floats("alloc", alloc)
    return build_rule(scales, alloc)


def cmd_rule(args) -> int:
    rule = _rule_from_args(args)
    print(f"scales:       {list(rule.scales)}")
    print(f"coefficients: {list(rule.coeffs)}")
    print(f"allocation:   {list(rule.alloc)}" + (" (optimal varies with eps)"
                                                 if rule.optimal else ""))
    residuals = rule.identity_residuals()
    print(f"identity residuals (m = 0..{rule.order}): "
          + ", ".join(f"{r:.2e}" for r in residuals))
    print(f"sum |c|:      {sum(abs(c) for c in rule.coeffs):.12g}")
    for q in args.q or [0.0, 1.0]:
        pen = variance_penalty(rule, q, args.nu)
        print(f"q = {q:g}, nu = {args.nu:g}:  K_fixed = {pen.k_fixed:.12g}, "
              f"K_opt = {pen.k_opt:.12g}")
    return EXIT_OK


def _sweep_paths(cfg):
    return {
        "delta": cfg.out_path("delta.csv"),
        "counts_csv": cfg.out_path("counts.csv"),
        "counts_json": cfg.out_path("counts.json"),
        "variance": cfg.out_path("variance.csv"),
        "crossings": cfg.out_path("crossings.csv"),
        "report": cfg.out_path("report.json"),
    }


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    paths = _sweep_paths(cfg)
    Path(cfg.output["dir"]).mkdir(parents=True, exist_ok=True)
    delta, std_err, counts = run_sweep(cfg)
    write_delta_csv(paths["delta"], cfg, delta, std_err)
    print(f"wrote {paths['delta']}")
    if counts is not None:
        counts.write(paths["counts_csv"], paths["counts_json"])
        print(f"wrote {paths['counts_csv']} and {paths['counts_json']}")
    if write_variance_csv(paths["variance"], cfg):
        print(f"wrote {paths['variance']}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    cfg = load_config(args.config, args.set)
    paths = _sweep_paths(cfg)
    if not paths["delta"].exists():
        raise ConfigError(f"missing delta table {paths['delta']}; run `zneboundary sweep` first")
    delta, _ = read_delta_csv(paths["delta"], cfg)
    print(f"read {paths['delta']}")
    crossings = crossing_estimates(cfg.grids, delta, cfg.budgets)
    write_crossings_csv(paths["crossings"], crossings, cfg)
    crossed = sum(c.crossed for c in crossings)
    print(f"wrote {paths['crossings']} ({crossed}/{len(crossings)} budgets crossed)")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = load_config(args.config, args.set)
    paths = _sweep_paths(cfg)
    if not paths["crossings"].exists():
        raise ConfigError(
            f"missing crossing table {paths['crossings']}; run `zneboundary boundary` first"
        )
    crossings = read_crossings_csv(paths["crossings"], cfg)
    counts = None
    if cfg.is_monte_carlo:
        if not (paths["counts_csv"].exists() and paths["counts_json"].exists()):
            raise ConfigError(
                f"missing raw counts {paths['counts_csv']}; run `zneboundary sweep` first"
            )
        counts = CountTable.read(paths["counts_csv"], paths["counts_json"], cfg.model(),
                                 cfg.rule(), cfg.budgets, cfg.grids, cfg.replicates, cfg.seed)
    report = build_report(cfg, crossings, counts)
    paths["report"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {paths['report']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_battery(args.only or None)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}  "
              f"[{res.seconds:.1f}s]  {res.detail}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json.dumps([r.as_dict() for r in results], indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_plan(args) -> int:
    # out-of-range or NaN constants are refused; D_p <= 0 and |rho_p| >= 1 are verdicts
    for flag, value, floor in (("--p", args.p, 1), ("--q", args.q, 0)):
        if not value >= floor:
            raise ConfigError(f"{flag} must be >= {floor}, got {value:g}")
    for flag, value in (("--budget", args.budget), ("--eps", args.eps), ("--k-q", args.k_q)):
        if value is not None and not value > 0:
            raise ConfigError(f"{flag} must be positive, got {value:g}")
    for flag, value in (("--alpha", args.alpha), ("--kappa", args.kappa), ("--d-p", args.d_p)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value:g}")
    if args.alpha is not None and args.kappa is not None:
        raise ConfigError("plan takes one of --alpha and --kappa, not both")
    amp = args.alpha if args.alpha is not None else args.kappa
    if args.d_p is None and amp is None:
        raise ConfigError("plan needs one of --alpha, --kappa, or --d-p")

    if args.k_q is None and (args.scales is None or args.nu is None):
        raise ConfigError("plan needs --k-q, or --scales and --nu to derive it")
    rule = None if args.scales is None else _rule_from_args(args)
    if args.k_q is not None:
        k_q = args.k_q
    else:
        k_q = variance_penalty(rule, args.q, args.nu).k
        print(f"variance penalty: K = {k_q:.6g} "
              f"({'optimal' if rule.optimal else 'fixed'} allocation)")

    try:  # the rule's D_p, unless --d-p gives it
        if args.d_p is not None:
            d_p = args.d_p
        else:
            d_p = amp**2 if rule is None else leading_bias_gain(rule, args.p, amp)
        regime = classify_regime(args.p, args.q, d_p, k_q)
    except RegimeError as err:
        print(f"verdict: {err}")
        return EXIT_OK

    if rule is not None:
        print("optimal allocation fractions (small-noise limit): "
              + ", ".join(f"{p:.6g}" for p in small_noise_allocation(rule, args.q)))

    if regime.regime == "critical":
        print(f"verdict: budget threshold B* = {regime.b_star:.6g}; "
              f"helps for B > B* at small eps, harms below")
        if args.budget is not None:
            side = "helps" if args.budget > regime.b_star else "harms"
            print(f"at B = {args.budget:g}: ZNE {side} for sufficiently small eps")
        return EXIT_OK
    if regime.regime == "supercritical":
        print("verdict: no leading-order shrinking lower boundary "
              f"(q = {args.q:g} > 2p = {2 * args.p:g}); ZNE helps at small eps")
        return EXIT_OK

    print(f"regime:   subcritical (q = {args.q:g} < 2p = {2 * args.p:g})")
    print(f"constant: C = {regime.c_pq:.6g}")
    print(f"exponent: {regime.exponent:.6g}")
    if args.budget is not None:
        eps_star = regime.predicted_eps_star(args.budget)
        print(f"predicted boundary at B = {args.budget:g}: eps* ~ {eps_star:.6g}")
        if args.eps is not None:
            side = "helps" if args.eps > eps_star else "harms"
            print(f"verdict: at eps = {args.eps:g}, ZNE {side} "
                  f"(local leading-order comparison)")
    if args.rho is not None:
        if None in (args.l_b, args.l_v, args.delta_b, args.delta_v, args.eps0):
            raise ConfigError(
                "bracketing needs --l-b, --l-v, --delta-b, --delta-v, and --eps0"
            )
        bracket = budget_bracket(regime, args.rho, args.l_b, args.l_v,
                                 args.delta_b, args.delta_v, args.eps0)
        print(f"bracket:  B0({args.rho:g}) = {bracket.b0:.6g}, margin {bracket.m_rho:.6g}")
        if args.budget is not None:
            lo, hi = bracket.eps_lo(args.budget), bracket.eps_hi(args.budget)
            ok = "certified" if args.budget >= bracket.b0 else "NOT certified (B < B0)"
            print(f"at B = {args.budget:g}: eps* in [{lo:.6g}, {hi:.6g}] {ok}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zneboundary",
        description="Finite-shot help-harm boundary laboratory for fixed Richardson ZNE",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("rule", help="print rule coefficients and penalties")
    p_rule.add_argument("--scales", required=True, help="comma-separated, e.g. 1,3,5")
    p_rule.add_argument("--alloc", default="uniform",
                        help="uniform | optimal | comma-separated weights")
    p_rule.add_argument("--q", type=float, action="append",
                        help="variance exponent(s) for the penalty (repeatable)")
    p_rule.add_argument("--nu", type=float, default=1.0, help="variance level")
    p_rule.set_defaults(func=cmd_rule)

    for name, func, help_text in [
        ("sweep", cmd_sweep, "evaluate the MSE-difference grid"),
        ("boundary", cmd_boundary, "locate per-budget crossings"),
        ("fit", cmd_fit, "fit slopes/exponents/constants into the JSON report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML/JSON experiment file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration entry (repeatable)")
        p.set_defaults(func=func)

    p_val = sub.add_parser("validate", help="run the validation battery")
    p_val.add_argument("--json", help="also write machine-readable results here")
    p_val.add_argument("--only", action="append", metavar="NAME",
                       help="run only the named check (repeatable)")
    p_val.set_defaults(func=cmd_validate)

    p_plan = sub.add_parser("plan", help="regime and boundary verdict from constants")
    p_plan.add_argument("--q", type=float, required=True, help="variance exponent")
    p_plan.add_argument("--p", type=float, default=1.0, help="leading bias order")
    p_plan.add_argument("--alpha", type=float, help="linear bias coefficient")
    p_plan.add_argument("--kappa", type=float, help="leakage rate (deterministic limit)")
    p_plan.add_argument("--d-p", type=float, dest="d_p",
                        help="squared-bias improvement constant, overrides --alpha/--kappa")
    p_plan.add_argument("--k-q", type=float, dest="k_q",
                        help="variance penalty constant, overrides the rule computation")
    p_plan.add_argument("--nu", type=float, help="variance level for the penalty")
    p_plan.add_argument("--scales", help="rule scale factors, e.g. 1,3")
    p_plan.add_argument("--alloc", default="uniform",
                        help="uniform | optimal | comma-separated weights")
    p_plan.add_argument("--budget", type=float, help="shot budget B")
    p_plan.add_argument("--eps", type=float, help="noise strength for a help/harm verdict")
    p_plan.add_argument("--rho", type=float, help="bracket half-width fraction in (0,1)")
    p_plan.add_argument("--l-b", type=float, dest="l_b", help="bias remainder amplitude")
    p_plan.add_argument("--l-v", type=float, dest="l_v", help="variance remainder amplitude")
    p_plan.add_argument("--delta-b", type=float, dest="delta_b", help="bias remainder exponent")
    p_plan.add_argument("--delta-v", type=float, dest="delta_v",
                        help="variance remainder exponent")
    p_plan.add_argument("--eps0", type=float, help="perturbative domain bound")
    p_plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RuleError, FitError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ModelError, AllocationError, RegimeError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except ZneBoundaryError as err:  # pragma: no cover - safety net
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
