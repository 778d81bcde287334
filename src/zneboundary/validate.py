"""Self-contained validation battery behind ``zneboundary validate``.

Each check is one acceptance criterion of the laboratory: rule identities,
penalty closed forms, the subcritical root law, the critical budget
threshold, exact analytic crossings, the variance-exponent-to-slope chain,
allocation invariance of the exponent, local optimality and finite-budget
bracketing, the remainder-driven convergence rate, and Monte Carlo /
bootstrap soundness.  Every tolerance is fixed here; a check either passes
or raises with the measured numbers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .boundary import (
    STATUS_NO_CROSSING,
    STATUS_NO_NEGATIVE,
    auto_windows,
    budget_bracket,
    check_crossing_grid,
    crossing_estimates,
    local_optimality_check,
    theoretical_boundary,
)
from .errors import ConfigError
from .fits import fit_boundary, fit_loglog, fit_variance_exponent, predict_slope
from .models import (
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    ProductContractionString,
)
from .mse import exact_delta_curve, mc_delta, sample_count_table
from .resample import bootstrap_pipeline
from .rules import build_rule, variance_penalty

__all__ = ["CheckResult", "CHECKS", "run_battery"]

# Unbiasedness t-test of check_mc_bootstrap_soundness: UNBIASED_RUNS independent
# Monte Carlo deltas, tested against T_CRIT_99, the two-sided 1% Student-t
# critical value at UNBIASED_RUNS - 1 = 199 degrees of freedom: the exact double
# that SciPy's Student-t quantile t.ppf(0.995, 199) returns.
UNBIASED_RUNS = 200
T_CRIT_99 = 2.600760216058516


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def as_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _crossings(model, rule, budgets, grids=None):
    """Crossings of a ladder on the path ``sweep`` and ``boundary`` run.

    ``grids`` is the ladder's ``(n_budgets, n_eps)`` table, by default its auto windows.
    """
    budgets = [float(b) for b in budgets]
    grids = auto_windows(model, rule, budgets) if grids is None else grids
    delta = exact_delta_curve(model, rule, grids, np.array(budgets)[:, None])
    check_crossing_grid(grids, delta)
    return crossing_estimates(grids, delta, budgets)


def check_rule_identities() -> str:
    """Coefficient identities and nontriviality for the reference scale sets."""
    worst = 0.0
    for scales in [(1, 2), (1, 3), (1, 5), (1, 3, 5), (1, 2, 3, 4)]:
        rule = build_rule(scales)
        residual = max(rule.identity_residuals())
        worst = max(worst, residual)
        if residual > 1e-12:
            raise AssertionError(f"scales {scales}: identity residual {residual:.3e} > 1e-12")
        magnitude = sum(abs(c) for c in rule.coeffs)
        if not magnitude > 1:
            raise AssertionError(f"scales {scales}: sum |c| = {magnitude} not > 1")
    return f"5 rules, worst identity residual {worst:.2e}, all sum|c| > 1"


def check_penalty_closed_form() -> str:
    """K = nu (7/2 + 3^q/2) for the (1,3) uniform rule; optimal <= fixed."""
    rule = build_rule([1, 3])
    for q in (0.0, 0.5, 1.0, 2.0):
        for nu in (0.5, 1.0, 2.0):
            expected = nu * (3.5 + 0.5 * 3.0**q)
            got = variance_penalty(rule, q, nu).k_fixed
            if abs(got - expected) > 1e-12:
                raise AssertionError(
                    f"closed form violated at q={q}, nu={nu}: {got!r} vs {expected!r}"
                )
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        k = int(rng.integers(1, 4))
        scales = np.concatenate(([1.0], np.cumsum(rng.uniform(0.5, 2.0, size=k)) + 1.0))
        alloc = rng.uniform(0.1, 1.0, size=k + 1)
        pen = variance_penalty(build_rule(scales, alloc=alloc), float(rng.uniform(0, 2)), 1.0)
        if pen.k_opt > pen.k_fixed * (1 + 1e-12) + 1e-12:
            raise AssertionError(
                f"trial {trial}: optimal penalty {pen.k_opt} exceeds fixed {pen.k_fixed}"
            )
    return "closed form exact at q in {0, 0.5, 1, 2}; K_opt <= K_fixed on 100 random rules"


def check_subcritical_root_law() -> str:
    """Fitted slopes -1/(2p-q) within 0.01 and constants within 1%."""
    details = []
    budgets = np.geomspace(1e3, 1e6, 10)
    for p, q in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        model = MonomialBalanceModel(p=p, q=q, d_p=2.0, k_q=3.0)
        fit = fit_boundary(_crossings(model, None, budgets))
        target = -1.0 / (2 * p - q)
        c_pq = (3.0 / 2.0) ** (1.0 / (2 * p - q))
        if abs(fit.slope - target) > 0.01:
            raise AssertionError(f"(p={p}, q={q}): slope {fit.slope:.5f} vs {target:.5f}")
        if abs(fit.c_fit / c_pq - 1.0) > 0.01:
            raise AssertionError(f"(p={p}, q={q}): constant {fit.c_fit:.5f} vs {c_pq:.5f}")
        details.append(f"(p={p},q={q}): s={fit.slope:.4f}")
    return "; ".join(details) + " (targets -0.5, -1, -0.25, -1/3)"


def check_critical_threshold() -> str:
    """Sign flips exactly at B* = 20000 for q = 2p; q > 2p censors."""
    model = MonomialBalanceModel(p=1, q=2, d_p=1.0, k_q=20000.0)
    grid = np.geomspace(1e-6, 1e-3, 60)
    eps = np.array([1e-5, 1e-4, 1e-3])
    below, at, above = exact_delta_curve(model, None, np.tile(eps, (3, 1)),
                                         np.array([[19999.0], [20000.0], [20001.0]]))
    if (bad := ~((below < 0) & (0 < above) & (at == 0.0))).any():
        i = bad.argmax()
        raise AssertionError(
            f"threshold violated at eps={eps[i]}: {below[i]}, {at[i]}, {above[i]}"
        )
    lo, hi = _crossings(model, None, [10_000.0, 30_000.0], np.tile(grid, (2, 1)))
    if lo.status != STATUS_NO_CROSSING or hi.status != STATUS_NO_NEGATIVE:
        raise AssertionError(f"critical statuses: below={lo.status}, above={hi.status}")
    superc = MonomialBalanceModel(p=1, q=3, d_p=1.0, k_q=1.0)
    for est in _crossings(superc, None, [1e3, 1e6, 1e9], np.tile(grid, (3, 1))):
        if est.status != STATUS_NO_NEGATIVE:
            raise AssertionError(f"supercritical budget {est.budget:g} not censored: {est.status}")
    return "flip at B* = 20000 exact; q = 3 censored at all tested budgets"


def check_exact_analytic_crossings() -> str:
    """Crossing finder against closed-form roots of the two analytic classes."""
    dlb = DeterministicLimitBinary(kappa=1.0)
    rule = build_rule([1, 3])
    budgets = np.geomspace(1e3, 1e7, 13)
    crossings = _crossings(dlb, rule, budgets)
    ratio = 10.0 ** (1.0 / 40.0) - 1.0  # one grid cell, relative
    for est in crossings:
        root = 10.0 / (est.budget + 8.0)
        rel = abs(est.eps_star - root) / root
        if rel > ratio:
            raise AssertionError(
                f"B={est.budget:g}: crossing {est.eps_star:.6e} vs root {root:.6e} "
                f"(rel {rel:.2e} > one cell {ratio:.2e})"
            )
    slope_dlb = fit_boundary(crossings).slope
    if not -1.02 <= slope_dlb <= -0.98:
        raise AssertionError(f"deterministic-limit slope {slope_dlb:.4f} outside [-1.02, -0.98]")

    lbb = LinearBiasBinary(mu0=0.5, alpha=1.0)
    fit = fit_boundary(_crossings(lbb, rule, np.geomspace(1e4, 1e7, 10)))
    if not -0.52 <= fit.slope <= -0.48:
        raise AssertionError(f"linear-bias slope {fit.slope:.4f} outside [-0.52, -0.48]")
    c_rel = abs(fit.c_fit - np.sqrt(3.0)) / np.sqrt(3.0)
    if c_rel > 0.10:
        raise AssertionError(f"linear-bias constant {fit.c_fit:.4f} off sqrt(3) by {c_rel:.3f}")
    return (
        f"crossings track 10/(B+8) within one cell; slopes {slope_dlb:.4f} / "
        f"{fit.slope:.4f}; C_fit {fit.c_fit:.4f} vs sqrt(3) ({c_rel:.3f} rel)"
    )


def check_qhat_slope_chain() -> str:
    """Independent q_hat predicts the observed slope within 0.03."""
    rule = build_rule([1, 3])
    window = (1e-4, 1e-3)
    grid = np.geomspace(*window, 40)
    pcs = ProductContractionString(gamma=0.1, ell=5)
    q_pcs = fit_variance_exponent(grid, pcs.variance(grid), window).q_hat
    if not 0.98 <= q_pcs <= 1.00:
        raise AssertionError(f"contraction-string q_hat {q_pcs:.4f} outside [0.98, 1.00]")
    s_pcs = fit_boundary(_crossings(pcs, rule, np.geomspace(1e4, 1e7, 10))).slope
    if abs(s_pcs - predict_slope(q_pcs)) > 0.03:
        raise AssertionError(
            f"contraction-string chain: s_obs {s_pcs:.4f} vs pred {predict_slope(q_pcs):.4f}"
        )

    lbb = LinearBiasBinary(mu0=0.5, alpha=1.0)
    q_lbb = fit_variance_exponent(grid, lbb.variance(grid), window).q_hat
    if abs(q_lbb) > 0.01:
        raise AssertionError(f"linear-bias q_hat {q_lbb:.5f} outside [-0.01, 0.01]")
    s_lbb = fit_boundary(_crossings(lbb, rule, np.geomspace(1e4, 1e7, 10))).slope
    if abs(s_lbb - predict_slope(q_lbb)) > 0.03:
        raise AssertionError(
            f"linear-bias chain: s_obs {s_lbb:.4f} vs pred {predict_slope(q_lbb):.4f}"
        )
    return (
        f"q_hat {q_pcs:.4f} -> pred {predict_slope(q_pcs):.4f} vs s_obs {s_pcs:.4f}; "
        f"q_hat {q_lbb:.5f} -> pred {predict_slope(q_lbb):.4f} vs s_obs {s_lbb:.4f}"
    )


def check_allocation_invariance() -> str:
    """Optimal vs uniform allocation: same exponent, smaller constant."""
    rule, optimal = build_rule([1, 3]), build_rule([1, 3], "optimal")
    details = []
    for model, budgets in [
        (DeterministicLimitBinary(kappa=1.0), np.geomspace(1e4, 1e7, 10)),
        (LinearBiasBinary(mu0=0.5, alpha=1.0), np.geomspace(1e4, 1e7, 10)),
    ]:
        fit_uni = fit_boundary(_crossings(model, rule, budgets))
        fit_opt = fit_boundary(_crossings(model, optimal, budgets))
        name = type(model).__name__
        if abs(fit_uni.slope - fit_opt.slope) > 0.02:
            raise AssertionError(
                f"{name}: slopes {fit_uni.slope:.4f} vs {fit_opt.slope:.4f} differ > 0.02"
            )
        if not fit_opt.c_fit < fit_uni.c_fit:
            raise AssertionError(
                f"{name}: optimal constant {fit_opt.c_fit:.4f} not below "
                f"uniform {fit_uni.c_fit:.4f} (K_opt < K_fixed)"
            )
        details.append(f"{name}: {fit_uni.slope:.4f}/{fit_opt.slope:.4f}")
    return "; ".join(details) + " (constants shifted down under optimal allocation)"


def check_local_optimality_and_bracketing() -> str:
    """Faster-shrinking schedules always harm; bracket signs certified."""
    rule = build_rule([1, 3])
    cases = [
        (DeterministicLimitBinary(kappa=1.0), rule),
        (LinearBiasBinary(mu0=0.5, alpha=1.0), rule),
        (ProductContractionString(gamma=0.1, ell=5), rule),
    ]
    budgets = np.geomspace(1e3, 1e9, 13)
    for model, r in cases:
        regime = theoretical_boundary(model, r)
        s_prime = -regime.exponent + 0.1
        result = local_optimality_check(model, r, regime, s_prime, budgets)
        if not (result.passed and result.onset_budget == result.budgets[0]):
            raise AssertionError(
                f"{type(model).__name__}: schedule B^-{s_prime} not uniformly harmful "
                f"from B >= 1e3 (deltas {result.deltas[:3]}...)"
            )
    model = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0, l_b=1.0, l_v=1.0)
    regime = theoretical_boundary(model, None)
    bracket = budget_bracket(regime, rho=0.5, l_b=1.0, l_v=1.0, delta_b=1.0,
                             delta_v=1.0, eps0=1.0)
    budgets = np.geomspace(bracket.b0, 1e9, 14)
    eps = np.array([[bracket.eps_lo(b), bracket.eps_hi(b)] for b in budgets])
    lo, hi = exact_delta_curve(model, None, eps, budgets[:, None]).T
    if (bad := ~((lo < 0) & (0 < hi))).any():
        i = bad.argmax()
        raise AssertionError(f"bracket signs fail at B={budgets[i]:.3g}: {lo[i]}, {hi[i]}")
    return (
        f"3 analytic schedules uniformly harmful from B = 1e3; bracket certified "
        f"for B >= B0 = {bracket.b0:.1f} (rho = 0.5)"
    )


def check_rate_law() -> str:
    """Relative boundary error decays at eta = 1/2 (within 15%)."""
    model = MonomialBalanceModel(
        p=1, q=0, d_p=1.0, k_q=1.0, l_b=1.0, l_v=1.0, delta_b=1.0, delta_v=1.0
    )
    budgets = np.geomspace(1e3, 1e9, 13)
    asymptote = np.array([budget**-0.5 for budget in budgets])  # C_pq = 1
    grids = np.geomspace(0.3 * asymptote, 3.0 * asymptote, 800, axis=1)
    eps_star = np.array([est.eps_star for est in _crossings(model, None, budgets, grids)])
    rel_errors = np.abs(eps_star / asymptote - 1.0)
    slope = np.polyfit(np.log(budgets), np.log(rel_errors), 1)[0]
    if not 0.425 <= -slope <= 0.575:
        raise AssertionError(
            f"rate-law exponent {-slope:.4f} outside 15% of eta = 0.5"
        )
    return f"relative error fits B^-{-slope:.4f} over 1e3..1e9 (eta = 0.5 +- 15%)"


def _mc_dataset(seed: int, replicates: int = 64):
    """One synthetic finite-shot dataset for the q = 1 analytic model."""
    model = DeterministicLimitBinary(kappa=1.0)
    rule = build_rule([1, 3])
    budgets = [1000, 3162, 10000, 31623, 100000, 316228, 1000000]
    grids = auto_windows(model, rule, budgets, span=(0.2, 5.0), points_per_decade=12)
    return sample_count_table(model, rule, budgets, grids, replicates, seed)


def check_mc_bootstrap_soundness() -> str:
    """Unbiasedness, determinism, CI coverage, and the 12-interval overlap."""
    model = DeterministicLimitBinary(kappa=1.0)
    rule = build_rule([1, 3])

    # unbiased Monte Carlo MSE difference: t-test over UNBIASED_RUNS independent runs
    eps, budget = 0.05, 2000
    exact = exact_delta_curve(model, rule, eps, float(budget))
    errors = []
    for i in range(UNBIASED_RUNS):
        point, _ = mc_delta(model, rule, eps, budget, 16, master_seed=3000 + i)
        errors.append(point.delta - exact)
    errors = np.asarray(errors)
    t_stat = errors.mean() / (errors.std(ddof=1) / np.sqrt(errors.size))
    if abs(t_stat) > T_CRIT_99:
        raise AssertionError(f"unbiasedness t-test fails: |t| = {abs(t_stat):.3f} "
                             f"> {T_CRIT_99:.3f}")

    # bootstrap determinism
    table = _mc_dataset(seed=77, replicates=16)
    kw = dict(statistics=["s_obs"], n_replicates=120, seed=5)
    if bootstrap_pipeline(table, **kw) != bootstrap_pipeline(table, **kw):
        raise AssertionError("bootstrap results differ across identically seeded runs")

    # coverage: the 95% CI for s_obs contains -1 in >= 85 of 100 datasets
    covered = 0
    for i in range(100):
        data = _mc_dataset(seed=10_000 + 17 * i)
        res = bootstrap_pipeline(data, ["s_obs"], 200, seed=i, level=0.95)[0]
        if res.ci_lo is not None and res.ci_lo <= -1.0 <= res.ci_hi:
            covered += 1
    if covered < 85:
        raise AssertionError(f"coverage {covered}/100 below 85/100")

    # 12 independent repetitions of the full pipeline: intervals all overlap
    lows, highs = [], []
    for i in range(12):
        data = _mc_dataset(seed=50_000 + 23 * i)
        res = bootstrap_pipeline(data, ["s_obs"], 200, seed=900 + i, level=0.95)[0]
        if res.ci_lo is None:
            raise AssertionError(f"spot-check repetition {i} produced no interval")
        lows.append(res.ci_lo)
        highs.append(res.ci_hi)
    if max(lows) > min(highs):
        raise AssertionError(
            f"12-interval overlap fails: max lo {max(lows):.4f} > min hi {min(highs):.4f}"
        )
    return (
        f"t = {t_stat:.3f} (crit {T_CRIT_99:.3f}); bootstrap deterministic; "
        f"coverage {covered}/100; 12 intervals overlap on "
        f"[{max(lows):.3f}, {min(highs):.3f}]"
    )


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("rule_identities", check_rule_identities),
    ("penalty_closed_form", check_penalty_closed_form),
    ("subcritical_root_law", check_subcritical_root_law),
    ("critical_threshold", check_critical_threshold),
    ("exact_analytic_crossings", check_exact_analytic_crossings),
    ("qhat_slope_chain", check_qhat_slope_chain),
    ("allocation_invariance", check_allocation_invariance),
    ("local_optimality_and_bracketing", check_local_optimality_and_bracketing),
    ("rate_law", check_rate_law),
    ("mc_bootstrap_soundness", check_mc_bootstrap_soundness),
]


def run_battery(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named validation checks (all by default; an unknown name is a ConfigError)."""
    if unknown := sorted(set(names or ()) - {name for name, _ in CHECKS}):
        raise ConfigError(f"unknown checks {unknown}; known: {', '.join(n for n, _ in CHECKS)}")
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    results = []
    for name, check in selected:
        start = time.perf_counter()
        try:
            detail = check()
            passed = True
        except AssertionError as err:
            detail = str(err)
            passed = False
        results.append(CheckResult(
            name=name, passed=passed, detail=detail,
            seconds=time.perf_counter() - start,
        ))
    return results
