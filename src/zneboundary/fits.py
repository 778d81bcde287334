"""Diagnostic regressions: boundary slope, variance exponent, bias, constants.

All regressions are plain unweighted least squares, matching the displayed
estimation protocol; uncertainty is the bootstrap's job.  The strongest
consistency check is the chain

    q_hat  (log v on log eps)   ->   s_pred = -1 / (2 - q_hat)

compared against the observed boundary slope s_obs from the log-log fit of
the crossings, plus the constant-level comparison of exp(intercept) with
both the declared-theory constant and the plug-in estimate
``C_hat = (K_hat / alpha_hat^2)^(1/(2 - q_hat))``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import FitError
from .boundary import CrossingEstimate
from .rules import RichardsonRule, penalty_constants

__all__ = [
    "BoundaryFit",
    "VarianceExponentFit",
    "BiasFit",
    "ConstantCheck",
    "fit_loglog",
    "fit_boundary",
    "fit_variance_exponent",
    "fit_bias",
    "predict_slope",
    "plugin_constant",
    "constant_check",
]


@dataclass(frozen=True)
class BoundaryFit:
    """OLS fit of log eps* on log B over the crossed budgets."""

    slope: float
    intercept: float  # natural log of the fitted constant
    r_squared: float
    n_points: int
    censored_budgets: tuple[float, ...] = ()

    @property
    def c_fit(self) -> float:
        return math.exp(self.intercept)

    def as_dict(self) -> dict:
        return {**asdict(self), "c_fit": self.c_fit}


@dataclass(frozen=True)
class VarianceExponentFit:
    """OLS fit of log v on log eps inside a pre-registered window."""

    q_hat: float
    log_nu_hat: float
    window: tuple[float, float]
    r_squared: float

    @property
    def nu_hat(self) -> float:
        return math.exp(self.log_nu_hat)

    def as_dict(self) -> dict:
        return {**asdict(self), "nu_hat": self.nu_hat}


@dataclass(frozen=True)
class BiasFit:
    """No-intercept fit of mu(eps) - mu0 on (eps, eps^2)."""

    alpha_hat: float
    beta_hat: float
    window: tuple[float, float]
    alpha_se: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConstantCheck:
    """Fitted vs declared-theory vs plug-in boundary constants."""

    c_theory: float
    c_fit: float
    rel_error: float
    k_hat: float
    c_hat_plugin: float

    def as_dict(self) -> dict:
        return asdict(self)


def _ols_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_loglog(
    points: Sequence[tuple[float, float]],
    censored_budgets: Sequence[float] = (),
) -> BoundaryFit:
    """Fit log eps* = log C + s log B over (budget, eps*) pairs."""
    points = [(float(b), float(e)) for b, e in points]
    if len(points) < 3:
        raise FitError(
            f"need at least 3 crossed budgets, got {len(points)}"
            + (f"; censored: {sorted(censored_budgets)}" if censored_budgets else "")
        )
    b = np.asarray([p[0] for p in points])
    e = np.asarray([p[1] for p in points])
    if np.any(e <= 0) or np.any(b <= 0):
        raise FitError("budgets and crossings must be positive for a log-log fit")
    slope, intercept, r2 = _ols_loglog(b, e)
    return BoundaryFit(
        slope=slope, intercept=intercept, r_squared=r2, n_points=len(points),
        censored_budgets=tuple(float(c) for c in censored_budgets),
    )


def fit_boundary(crossings: Sequence[CrossingEstimate]) -> BoundaryFit:
    """Fit the crossed budgets of a crossing table, recording the censored ones."""
    crossed = [(c.budget, c.eps_star) for c in crossings if c.crossed]
    censored = [c.budget for c in crossings if not c.crossed]
    return fit_loglog(crossed, censored)


def fit_variance_exponent(
    eps: Sequence[float],
    variances: Sequence[float],
    window: tuple[float, float],
) -> VarianceExponentFit:
    """OLS of log v on log eps using the samples inside the window."""
    eps = np.asarray(eps, dtype=float)
    v = np.asarray(variances, dtype=float)
    lo, hi = window
    if not 0 < lo < hi:
        raise FitError(f"window must satisfy 0 < lo < hi, got {window}")
    mask = (eps >= lo) & (eps <= hi)
    x = eps[mask]
    if x.size < 2 or x.min() == x.max():
        raise FitError(f"fewer than 2 distinct variance strengths inside window {window}")
    if np.any(v[mask] <= 0):
        raise FitError(f"nonpositive variance inside window {window}")
    slope, intercept, r2 = _ols_loglog(x, v[mask])
    return VarianceExponentFit(
        q_hat=slope, log_nu_hat=intercept, window=(float(lo), float(hi)), r_squared=r2,
    )


def fit_bias(
    eps: Sequence[float],
    mean_shift: Sequence[float],
    window: tuple[float, float],
) -> BiasFit:
    """No-intercept OLS of mu(eps) - mu0 on the design (eps, eps^2)."""
    eps = np.asarray(eps, dtype=float)
    y = np.asarray(mean_shift, dtype=float)
    lo, hi = window
    mask = (eps >= lo) & (eps <= hi)
    if int(mask.sum()) < 3:
        raise FitError(f"fewer than 3 bias samples inside window {window}")
    x = eps[mask]
    if x.min() == x.max():
        raise FitError(f"fewer than 2 distinct bias strengths inside window {window}")
    design = np.column_stack([x, x * x])
    coef, *_ = np.linalg.lstsq(design, y[mask], rcond=None)
    fitted = design @ coef
    dof = max(x.size - 2, 1)
    sigma_sq = float(np.sum((y[mask] - fitted) ** 2)) / dof
    cov = sigma_sq * np.linalg.inv(design.T @ design)
    return BiasFit(
        alpha_hat=float(coef[0]), beta_hat=float(coef[1]),
        window=(float(lo), float(hi)), alpha_se=float(np.sqrt(cov[0, 0])),
    )


def predict_slope(q_hat: float) -> float:
    """Predicted boundary slope -1/(2 - q_hat) for linear leading bias."""
    if q_hat >= 2:
        raise FitError(
            f"q_hat = {q_hat} >= 2: critical or supercritical; slope prediction undefined"
        )
    return -1.0 / (2.0 - q_hat)


def plugin_constant(
    rule: RichardsonRule, q_hat: float, nu_hat: float, alpha_hat: float
) -> tuple[float, float]:
    """``(K_hat, C_hat)``: the rule's penalty at the fitted ``(q_hat, nu_hat)`` and
    ``C_hat = (K_hat / alpha_hat^2)^(1/(2 - q_hat))``, or a :class:`FitError` where
    undefined (``q_hat >= 2``, a NaN estimate, ``alpha_hat == 0``, ``K_hat <= 0``).
    """
    if q_hat >= 2:
        raise FitError(f"q_hat = {q_hat} >= 2: plug-in constant undefined")
    if not np.all(np.isfinite([q_hat, nu_hat, alpha_hat])):
        raise FitError(f"plug-in constant undefined for q_hat = {q_hat}, "
                       f"nu_hat = {nu_hat}, alpha_hat = {alpha_hat}")
    if alpha_hat == 0:
        raise FitError("alpha_hat = 0: plug-in constant undefined")
    k_hat = penalty_constants(rule, q_hat, nu_hat).k
    if k_hat <= 0:
        raise FitError(f"K_hat = {k_hat} <= 0: plug-in constant undefined")
    return k_hat, (k_hat / alpha_hat**2) ** (1.0 / (2.0 - q_hat))


def constant_check(
    boundary_fit: BoundaryFit,
    variance_fit: VarianceExponentFit,
    bias_fit: BiasFit,
    rule: RichardsonRule,
    c_theory: float,
) -> ConstantCheck:
    """Compare the fitted boundary constant against theory and plug-in values.

    The plug-in route recomputes the variance penalty from the fitted
    (q_hat, nu_hat) through the rule and divides by the fitted squared bias
    coefficient, exactly as the fitted boundary would be predicted from the
    diagnostics alone.
    """
    if abs(bias_fit.alpha_hat) <= bias_fit.alpha_se:
        raise FitError(
            "no leading bias; constant undefined "
            f"(alpha_hat = {bias_fit.alpha_hat:.3e} within one standard error "
            f"{bias_fit.alpha_se:.3e} of zero)"
        )
    k_hat, c_hat = plugin_constant(rule, variance_fit.q_hat, variance_fit.nu_hat,
                                   bias_fit.alpha_hat)
    c_fit = boundary_fit.c_fit
    return ConstantCheck(
        c_theory=float(c_theory),
        c_fit=c_fit,
        rel_error=abs(c_fit - c_theory) / abs(c_theory),
        k_hat=k_hat,
        c_hat_plugin=c_hat,
    )
