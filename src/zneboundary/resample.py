"""Raw-count bootstrap for crossings, slopes, exponents, and constants.

Resampling happens at the raw-count level: every cell of the persisted
count table is redrawn as ``Binomial(shots, observed plus/shots)`` with all
(budget, eps, arm, replicate) labels preserved, which for binary outcomes is
exactly resampling the per-cell +/-1 shots with replacement.  Each bootstrap
replicate then reruns the entire estimation pipeline - noisy and
extrapolated estimates, MSE differences, crossings, the variance-exponent
and bias regressions, and the fitted boundary constants - and percentile
intervals are taken over the replicate statistics.  A redrawn count lies in
[0, shots] by construction, so only the table's own counts are checked,
once, when the table is built or read.

What the intervals are today: each replicate redraws every cell's shots,
but its squared errors are still measured against the model's true
``mu(0)``.  The redrawn estimates scatter around the observed ones, which
already carry one draw's sampling error, so the sampling variance enters a
replicate's MSE twice: its delta is about ``D eps^(2p) - 2 K eps^q / B``.
The ``eps_star`` and ``c_fit`` intervals therefore sit above their point
estimates, while ``s_obs``, a slope, barely moves.

Replicates are embarrassingly parallel: each derives its own counter-based
stream from the bootstrap seed and the replicate index, and the percentile
reduction is order-independent, so results do not depend on scheduling
or on the number of workers.  Replicates run on threads, because the
redraw and the estimator spend their time in numpy, one thread per core
the process may run on (``taskset`` narrows them).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .boundary import check_crossing_grid, first_crossings
from .errors import ConfigError, FitError
from .fits import fit_bias, fit_loglog, fit_variance_exponent, plugin_constant
from .mse import CountTable, _block_estimates, _splitmix64

__all__ = ["BootstrapResult", "bootstrap_pipeline", "check_bootstrap", "count_pipeline",
           "KNOWN_STATISTICS"]

KNOWN_STATISTICS = ("eps_star", "s_obs", "c_fit", "q_hat", "alpha_hat", "c_plugin")


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
        return asdict(self)


def count_pipeline(
    table: CountTable,
    *,
    variance_window: tuple[float, float] | None = None,
    bias_window: tuple[float, float] | None = None,
) -> dict[str, float]:
    """Full estimation pipeline over one count table.

    Returns a flat mapping of statistic name to value, with NaN marking
    statistics a table cannot support (fewer than three crossed budgets, too
    few usable points in a regression window).  ``c_plugin`` uses the
    penalty of the rule in the table's header.

    The empirical variance curve uses the unmitigated-arm cells only: counts
    are pooled over replicates per (budget, eps), and cells whose pooled
    outcome is deterministic (empirical variance zero) cannot enter the
    log-log fit and are dropped.
    """
    return _TableEstimator(table, variance_window, bias_window)(lambda rows: table.plus[rows])


class _TableEstimator:
    """:func:`count_pipeline` for one table, built once and applied to plus counts.

    Holds what every replicate shares: the model's ideal value, the rule,
    the checked eps grids and the pooled unmitigated-arm shots.  Nothing in
    it changes after construction, so threads may share one instance.  A
    call takes the counts block by block, through :func:`mse._block_estimates`,
    so its float temporaries are a block's size, not the table's.
    """

    def __init__(self, table: CountTable, variance_window, bias_window):
        self.rule = table.rule
        self.mu0 = table.model.mean(0.0)
        self.coeffs = np.asarray(self.rule.coeffs)
        self.eps = np.asarray(table.eps_grids, dtype=float)
        check_crossing_grid(self.eps)
        self.shots = table.shots
        self.budgets = [float(b) for b in table.budgets]
        self.eps_star_names = [f"eps_star[{b:g}]" for b in table.budgets]
        self.pooled_shots = table.shots[:, :, 0, :].sum(axis=2)
        self.variance_window = variance_window
        self.bias_window = bias_window
        self.pooled = variance_window is not None or bias_window is not None

    def __call__(self, counts) -> dict[str, float]:
        """The statistics of the plus counts ``counts(rows)`` returns per block of budget rows."""
        # with a window, the pooled unmitigated-arm counts per (budget, eps) grid point
        delta, _, pooled_plus = _block_estimates(self.shots, self.coeffs, self.mu0, counts,
                                                 pooled=self.pooled)
        lower, eps_star = first_crossings(self.eps, delta)
        eps_star = eps_star.tolist()
        stats: dict[str, float] = dict(zip(self.eps_star_names, eps_star))
        crossed = [(b, e) for b, e, i in zip(self.budgets, eps_star, lower) if i >= 0]

        stats["s_obs"] = stats["c_fit"] = float("nan")
        if len(crossed) >= 3:
            fit = fit_loglog(crossed)
            stats["s_obs"], stats["c_fit"] = fit.slope, fit.c_fit

        q_hat = nu_hat = alpha_hat = float("nan")
        variance_window, bias_window = self.variance_window, self.bias_window
        if self.pooled:
            mu_flat = (2.0 * pooled_plus / self.pooled_shots - 1.0).ravel()
            eps_flat = self.eps.ravel()
        if variance_window is not None:
            v_hat = 1.0 - mu_flat**2
            usable = v_hat > 0
            try:
                qfit = fit_variance_exponent(eps_flat[usable], v_hat[usable], variance_window)
                q_hat, nu_hat = qfit.q_hat, qfit.nu_hat
            except FitError:
                pass
            stats["nu_hat"], stats["q_hat"] = nu_hat, q_hat
        if bias_window is not None:
            try:
                alpha_hat = fit_bias(eps_flat, mu_flat - self.mu0, bias_window).alpha_hat
            except FitError:
                pass
            stats["alpha_hat"] = alpha_hat
        if variance_window is not None and bias_window is not None:
            try:
                _, stats["c_plugin"] = plugin_constant(self.rule, q_hat, nu_hat, alpha_hat)
            except FitError:
                stats["c_plugin"] = float("nan")
        return stats


def _replicate_stream(seed: int, rep_idx: int) -> np.random.Generator:
    h = _splitmix64((seed & ((1 << 64) - 1)) ^ _splitmix64(rep_idx + 0x9E37))
    key = np.array([h, _splitmix64(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_bootstrap(
    statistics: Sequence[str],
    n_replicates: int,
    level: float,
    variance_window: tuple[float, float] | None,
    bias_window: tuple[float, float] | None,
) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
    """Refuse, with a :class:`ConfigError`, a bootstrap the pipeline cannot run.

    Returns the variance and bias windows the statistics use (None if unused).
    """
    if not all(isinstance(stat, str) for stat in statistics):
        raise ConfigError(f"bootstrap statistics must be names, got {statistics!r}")
    if not statistics or len(set(statistics)) < len(statistics):
        raise ConfigError(f"need one or more distinct bootstrap statistics, got {statistics}")
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
    return (variance_window if needs_var else None, bias_window if needs_bias else None)


def bootstrap_pipeline(
    table: CountTable,
    statistics: Sequence[str],
    n_replicates: int,
    seed: int,
    *,
    level: float = 0.95,
    variance_window: tuple[float, float] | None = None,
    bias_window: tuple[float, float] | None = None,
) -> list[BootstrapResult]:
    """Percentile bootstrap over the raw counts for the requested statistics.

    ``statistics`` draws from ``eps_star`` (one result per budget),
    ``s_obs``, ``c_fit``, ``q_hat``, ``alpha_hat``, and ``c_plugin``; the
    regression statistics require their pre-registered windows.  The
    estimator of :func:`count_pipeline` is built once and applied to the
    table and to every replicate.  Replicates whose statistic is unavailable
    (e.g. every budget censored) are counted in ``missing_fraction`` and
    excluded from the interval, never silently dropped from the report.

    Replicates run on one thread per usable core, at most one per replicate.
    Each replicate draws from its own stream, so results are bit for bit
    independent of the count.  A replicate is redrawn block by block, one
    ``Binomial(shots, p_hat)`` call per block of budget rows on its stream,
    and each block is reduced before the next is drawn: the uniforms are
    those of one table-wide call, and a replicate's temporaries are a
    block's size.  The table's ``p_hat`` is the one table-sized array.
    """
    var_win, bias_win = check_bootstrap(statistics, n_replicates, level,
                                        variance_window, bias_window)
    estimate = _TableEstimator(table, var_win, bias_win)
    names: list[str] = []
    for stat in statistics:
        names.extend(estimate.eps_star_names if stat == "eps_star" else [stat])
    point = estimate(lambda rows: table.plus[rows])
    p_hat = table.plus / table.shots

    def one_replicate(rep_idx: int) -> dict[str, float]:
        rng = _replicate_stream(seed, rep_idx)
        return estimate(lambda rows: rng.binomial(table.shots[rows], p_hat[rows]))

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(cores, n_replicates)) as pool:
        replicate_stats = list(pool.map(one_replicate, range(n_replicates)))

    results = []
    alpha = 100.0 * (1.0 - level) / 2.0
    for name in names:
        values = np.asarray([rep.get(name, float("nan")) for rep in replicate_stats])
        good = values[np.isfinite(values)]
        pt = point.get(name, float("nan"))
        ci_lo, ci_hi = (np.percentile(good, [alpha, 100.0 - alpha]).tolist() if good.size
                        else (None, None))
        results.append(BootstrapResult(
            statistic=name, point=float(pt) if np.isfinite(pt) else None,
            ci_lo=ci_lo, ci_hi=ci_hi, n_replicates=n_replicates, level=level,
            missing_fraction=1.0 - good.size / n_replicates,
        ))
    return results
