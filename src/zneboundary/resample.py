"""Raw-count bootstrap for crossings, slopes, exponents, and constants.

Resampling happens at the raw-count level: every cell of the persisted
count table is redrawn as ``Binomial(shots, observed plus/shots)`` with all
(budget, eps, arm, replicate) labels preserved, which for binary outcomes is
exactly resampling the per-cell +/-1 shots with replacement.  Each bootstrap
replicate then reruns the entire estimation pipeline - noisy and
extrapolated estimates, MSE differences, crossings, the variance-exponent
and bias regressions, and the fitted boundary constants - and percentile
intervals are taken over the replicate statistics.

Replicates are embarrassingly parallel: each derives its own counter-based
stream from the bootstrap seed and the replicate index, and the percentile
reduction is order-independent, so results do not depend on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import check_crossing_grid, first_crossings
from .errors import ConfigError, FitError
from .fits import (
    fit_bias_from_samples,
    fit_loglog,
    fit_variance_exponent_from_samples,
    plugin_constant,
)
from .models import model_from_spec
from .mse import CountTable, _splitmix64, _squared_error_diffs
from .rules import build_rule, penalty_constants

__all__ = ["BootstrapResult", "bootstrap_pipeline", "count_pipeline", "KNOWN_STATISTICS"]

KNOWN_STATISTICS = ("eps_star", "s_obs", "c_fit", "q_hat", "alpha_hat", "c_plugin")

THREADS_ENV_VAR = "ZNEBOUNDARY_THREADS"


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile interval for one pipeline statistic."""

    statistic: str
    point: float | None
    ci_lo: float | None
    ci_hi: float | None
    n_replicates: int
    level: float
    missing_fraction: float

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic, "point": self.point,
            "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
            "n_replicates": self.n_replicates, "level": self.level,
            "missing_fraction": self.missing_fraction,
        }


def count_pipeline(
    table: CountTable,
    *,
    variance_window: tuple[float, float] | None = None,
    bias_window: tuple[float, float] | None = None,
    plus: np.ndarray | None = None,
    allocation: str = "fixed",
) -> dict[str, float]:
    """Full estimation pipeline over one (possibly resampled) count table.

    Returns a flat mapping of statistic name to value, with NaN marking
    statistics a table cannot support (fewer than three crossed budgets, too
    few usable points in a regression window).  ``plus`` substitutes
    resampled counts without copying the table.  ``allocation`` (``"fixed"``
    or ``"optimal"``) picks the penalty behind ``c_plugin``, which the table
    cannot tell: it stores only the base fractions.

    The empirical variance curve uses the unmitigated-arm cells only: counts
    are pooled over replicates per (budget, eps), and cells whose pooled
    outcome is deterministic (empirical variance zero) cannot enter the
    log-log fit and are dropped.
    """
    estimate = _TableEstimator(table, variance_window, bias_window, allocation)
    return estimate(table.plus if plus is None else plus)


class _TableEstimator:
    """:func:`count_pipeline` for one table, built once and applied to plus counts.

    Holds what every replicate shares: the model's ideal value, the rule,
    the checked eps grids and the pooled unmitigated-arm shots.  Nothing in
    it changes after construction, so threads may share one instance.
    """

    def __init__(self, table: CountTable, variance_window, bias_window, allocation: str):
        self.rule = build_rule(table.rule_spec["scales"], table.rule_spec["alloc"])
        self.mu0 = model_from_spec(table.model_spec).mean(0.0)
        self.coeffs = np.asarray(self.rule.coeffs)
        self.eps = np.asarray(table.eps_grids, dtype=float)
        for grid in self.eps:
            check_crossing_grid(grid, grid.size)
        self.shots = table.shots
        self.budgets = [float(b) for b in table.budgets]
        self.eps_star_names = [f"eps_star[{b:g}]" for b in table.budgets]
        self.pooled_shots = table.shots[:, :, 0, :].sum(axis=2)
        self.variance_window = variance_window
        self.bias_window = bias_window
        self.allocation = allocation

    def __call__(self, plus: np.ndarray) -> dict[str, float]:
        if plus.shape != self.shots.shape:
            raise ValueError(f"plus counts have shape {plus.shape}, "
                             f"expected the table's {self.shots.shape}")
        if np.any(plus < 0) or np.any(plus > self.shots):
            raise ValueError("plus counts must lie in [0, shots]")
        delta = _squared_error_diffs(plus, self.shots, self.coeffs, self.mu0).mean(axis=2)
        lower, eps_star = first_crossings(self.eps, delta)
        eps_star = eps_star.tolist()
        stats: dict[str, float] = dict(zip(self.eps_star_names, eps_star))
        crossed = [(b, e) for b, e, i in zip(self.budgets, eps_star, lower) if i >= 0]

        if len(crossed) >= 3:
            fit = fit_loglog(crossed)
            stats["s_obs"] = fit.slope
            stats["c_fit"] = fit.c_fit
        else:
            stats["s_obs"] = float("nan")
            stats["c_fit"] = float("nan")

        q_hat = alpha_hat = float("nan")
        variance_window, bias_window = self.variance_window, self.bias_window
        if variance_window is not None or bias_window is not None:
            # pooled unmitigated-arm estimates per (budget, eps) grid point
            pooled_plus = plus[:, :, 0, :].sum(axis=2)
            mu_flat = (2.0 * pooled_plus / self.pooled_shots - 1.0).ravel()
            eps_flat = self.eps.ravel()
        if variance_window is not None:
            v_hat = 1.0 - mu_flat**2
            usable = v_hat > 0
            try:
                qfit = fit_variance_exponent_from_samples(
                    eps_flat[usable], v_hat[usable], variance_window
                )
                q_hat = qfit.q_hat
                stats["nu_hat"] = qfit.nu_hat
            except FitError:
                stats["nu_hat"] = float("nan")
            stats["q_hat"] = q_hat
        if bias_window is not None:
            try:
                bfit = fit_bias_from_samples(eps_flat, mu_flat - self.mu0, bias_window)
                alpha_hat = bfit.alpha_hat
            except FitError:
                pass
            stats["alpha_hat"] = alpha_hat

        if variance_window is not None and bias_window is not None:
            stats["c_plugin"] = _plugin_constant(self.rule, stats.get("nu_hat", float("nan")),
                                                 q_hat, alpha_hat, self.allocation)
        return stats


def _plugin_constant(rule, nu_hat: float, q_hat: float, alpha_hat: float,
                     allocation: str) -> float:
    if not np.isfinite(nu_hat) or not np.isfinite(q_hat) or not np.isfinite(alpha_hat):
        return float("nan")
    if q_hat >= 2 or alpha_hat == 0:
        return float("nan")
    k_hat = penalty_constants(rule, q_hat, nu_hat).k(allocation)
    if k_hat <= 0:
        return float("nan")
    return plugin_constant(k_hat, alpha_hat, q_hat)


def _replicate_stream(seed: int, rep_idx: int) -> np.random.Generator:
    h = _splitmix64((seed & ((1 << 64) - 1)) ^ _splitmix64(rep_idx + 0x9E37))
    key = np.array([h, _splitmix64(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def bootstrap_pipeline(
    table: CountTable,
    statistics: Sequence[str],
    n_replicates: int,
    seed: int,
    *,
    level: float = 0.95,
    variance_window: tuple[float, float] | None = None,
    bias_window: tuple[float, float] | None = None,
    allocation: str = "fixed",
) -> list[BootstrapResult]:
    """Percentile bootstrap over the raw counts for the requested statistics.

    ``statistics`` draws from ``eps_star`` (one result per budget),
    ``s_obs``, ``c_fit``, ``q_hat``, ``alpha_hat``, and ``c_plugin``; the
    regression statistics require their pre-registered windows, and
    ``allocation`` is as in :func:`count_pipeline`, whose estimator is
    built once and applied to the table and to every replicate.  Replicates
    whose statistic is unavailable (e.g. every budget censored) are counted
    in ``missing_fraction`` and excluded from the interval, never silently
    dropped from the report.

    The number of worker threads comes from the ``ZNEBOUNDARY_THREADS``
    environment variable (default 1); results are independent of it.
    """
    unknown = set(statistics) - set(KNOWN_STATISTICS)
    if unknown:
        raise ConfigError(
            f"unknown bootstrap statistics {sorted(unknown)}; known: {KNOWN_STATISTICS}"
        )
    if n_replicates < 100:
        raise ConfigError(f"need at least 100 bootstrap replicates, got {n_replicates}")
    if not 0 < level < 1:
        raise ConfigError(f"confidence level must lie in (0, 1), got {level}")
    needs_var = "q_hat" in statistics or "c_plugin" in statistics
    needs_bias = "alpha_hat" in statistics or "c_plugin" in statistics
    if needs_var and variance_window is None:
        raise ConfigError("q_hat/c_plugin need a pre-registered variance window")
    if needs_bias and bias_window is None:
        raise ConfigError("alpha_hat/c_plugin need a pre-registered bias window")
    var_win = variance_window if needs_var else None
    bias_win = bias_window if needs_bias else None

    names: list[str] = []
    for stat in statistics:
        if stat == "eps_star":
            names.extend(f"eps_star[{b:g}]" for b in table.budgets)
        else:
            names.append(stat)

    estimate = _TableEstimator(table, var_win, bias_win, allocation)
    point = estimate(table.plus)
    p_hat = table.plus / table.shots

    def one_replicate(rep_idx: int) -> dict[str, float]:
        rng = _replicate_stream(seed, rep_idx)
        return estimate(rng.binomial(table.shots, p_hat))

    n_threads = max(1, int(os.environ.get(THREADS_ENV_VAR, "1")))
    if n_threads == 1:
        replicate_stats = [one_replicate(i) for i in range(n_replicates)]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            replicate_stats = list(pool.map(one_replicate, range(n_replicates)))

    results = []
    alpha = 100.0 * (1.0 - level) / 2.0
    for name in names:
        values = np.asarray([rep.get(name, float("nan")) for rep in replicate_stats])
        good = values[np.isfinite(values)]
        missing = 1.0 - good.size / n_replicates
        pt = point.get(name, float("nan"))
        if good.size == 0:
            results.append(BootstrapResult(
                statistic=name, point=None if not np.isfinite(pt) else float(pt),
                ci_lo=None, ci_hi=None, n_replicates=n_replicates, level=level,
                missing_fraction=missing,
            ))
            continue
        lo, hi = np.percentile(good, [alpha, 100.0 - alpha])
        results.append(BootstrapResult(
            statistic=name,
            point=None if not np.isfinite(pt) else float(pt),
            ci_lo=float(lo), ci_hi=float(hi),
            n_replicates=n_replicates, level=level, missing_fraction=missing,
        ))
    return results
