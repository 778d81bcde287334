"""Locating and classifying the lower help-harm crossing.

The MSE difference of a fixed rule against the unmitigated estimator has the
local balance ``delta(eps, B) = D_p eps^(2p) - K_q eps^q / B + remainders``.
Three regimes follow from the exponents alone:

    q < 2p   subcritical: shrinking boundary eps*(B) ~ C_pq B^(-1/(2p-q)),
             C_pq = (K_q / D_p)^(1/(2p-q));
    q = 2p   critical: a budget threshold B* = K_q / D_p, no shrinking law;
    q > 2p   supercritical: no leading-order shrinking lower boundary.

Crossings are estimated on a pre-specified grid as the first sign change
from strictly negative to positive, interpolated linearly in eps; budgets
without a qualifying sign change are reported as censored, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import RegimeError
from .models import scaled_domain_max
from .mse import exact_delta_curve, grid_table
from .rules import RichardsonRule, variance_penalty

__all__ = [
    "CrossingEstimate",
    "RegimeReport",
    "BudgetBracket",
    "LocalOptimalityResult",
    "check_crossing_grid",
    "first_crossings",
    "crossing_estimates",
    "find_crossing_arrays",
    "classify_regime",
    "leading_bias_gain",
    "theoretical_boundary",
    "budget_bracket",
    "local_optimality_check",
    "auto_window",
    "auto_windows",
]

STATUS_CROSSED = "crossed"
STATUS_NO_NEGATIVE = "no_negative_region"
STATUS_NO_CROSSING = "no_crossing_in_window"

# an auto window's span, as multiples of the boundary guess, and density
DEFAULT_SPAN = (0.1, 10.0)
DEFAULT_POINTS_PER_DECADE = 40


@dataclass(frozen=True)
class CrossingEstimate:
    """Lower crossing at one budget, or the censoring status if none."""

    budget: float
    eps_star: float | None
    status: str
    bracket_lo: float | None = None
    bracket_hi: float | None = None

    @property
    def crossed(self) -> bool:
        return self.status == STATUS_CROSSED


@dataclass(frozen=True)
class RegimeReport:
    """(p, q) regime classification with the theory constants it implies."""

    p: float
    q: float
    regime: str  # "subcritical" | "critical" | "supercritical"
    d_p: float
    k_q: float
    c_pq: float | None = None
    exponent: float | None = None  # -1/(2p - q), subcritical only
    b_star: float | None = None    # K_q / D_p, critical only
    eta: float | None = None       # min(delta_b, delta_v)/(2p - q) if declared

    def predicted_eps_star(self, budget: float) -> float:
        if self.regime != "subcritical":
            raise RegimeError(f"no shrinking boundary in the {self.regime} regime")
        return self.c_pq * budget**self.exponent

    def as_dict(self) -> dict:
        return asdict(self)


def check_crossing_grid(eps: np.ndarray, delta: np.ndarray | None = None) -> None:
    """Raise ValueError unless every row of ``eps`` is a crossing grid.

    ``eps`` is one grid or an ``(n_budgets, n_eps)`` table of them, checked
    in one pass; with ``delta``, its values must match ``eps`` in shape.
    """
    if delta is not None and eps.shape != delta.shape:
        raise ValueError("eps and delta must have equal length")
    if eps.shape[-1] < 3:
        raise ValueError(f"need at least 3 grid points, got {eps.shape[-1]}")
    if np.any(np.diff(eps, axis=-1) <= 0):
        raise ValueError("eps grid must be strictly increasing")


def first_crossings(eps: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First harm-to-help sign change on every row of an ``(n_budgets, n_eps)`` table.

    Row ``b`` of ``eps`` is the grid of row ``b`` of ``delta``, already
    checked by :func:`check_crossing_grid`.  A crossing is the first ``i``
    with ``delta[i] < 0 <= delta[i+1]``, interpolated linearly in eps; an
    exact zero at ``i+1`` is the crossing itself, and one rounded past
    ``eps[i+1]`` is clamped to it.  Returns ``(lower, eps_star)``: the lower
    bracket index, -1 in rows without a crossing, and the crossing, NaN in
    those rows.
    """
    sign_change = (delta[:, :-1] < 0) & (delta[:, 1:] >= 0)
    lower = np.where(sign_change.any(axis=1), sign_change.argmax(axis=1), -1)
    eps_star = np.full(len(delta), np.nan)
    rows = np.flatnonzero(lower >= 0)
    i = lower[rows]
    e_lo, e_hi = eps[rows, i], eps[rows, i + 1]
    lo, hi = delta[rows, i], delta[rows, i + 1]
    inside = np.minimum(e_lo + (e_hi - e_lo) * (-lo) / (hi - lo), e_hi)
    eps_star[rows] = np.where(hi == 0.0, e_hi, inside)
    return lower, eps_star


def crossing_estimates(eps: np.ndarray, delta: np.ndarray,
                       budgets: Sequence[float]) -> list[CrossingEstimate]:
    """One :class:`CrossingEstimate` per row of a checked table, from :func:`first_crossings`.

    A row without a crossing is censored: ``no_crossing_in_window`` if it
    has a negative value, else ``no_negative_region``.
    """
    lower, eps_star = first_crossings(eps, delta)
    negative = (delta < 0).any(axis=1)
    out = []
    for b, (budget, i) in enumerate(zip(budgets, lower.tolist())):
        if i >= 0:
            out.append(CrossingEstimate(
                budget=float(budget), eps_star=float(eps_star[b]), status=STATUS_CROSSED,
                bracket_lo=float(eps[b, i]), bracket_hi=float(eps[b, i + 1]),
            ))
        else:
            status = STATUS_NO_CROSSING if negative[b] else STATUS_NO_NEGATIVE
            out.append(CrossingEstimate(budget=float(budget), eps_star=None, status=status))
    return out


def find_crossing_arrays(
    eps: np.ndarray, delta: np.ndarray, budget: float
) -> CrossingEstimate:
    """First harm-to-help sign change on a delta curve at fixed budget.

    Requires at least one strictly negative value before the crossing (a
    zero at the origin of zero-variance models is not a boundary).  An exact
    zero at the upper bracket point is treated as the crossing itself.  The
    one-row form of :func:`crossing_estimates`.
    """
    eps = np.asarray(eps, dtype=float)
    delta = np.asarray(delta, dtype=float)
    check_crossing_grid(eps, delta)
    return crossing_estimates(eps[None, :], delta[None, :], [budget])[0]


def classify_regime(
    p: float,
    q: float,
    d_p: float,
    k_q: float,
    delta_b: float | None = None,
    delta_v: float | None = None,
) -> RegimeReport:
    """Classify the local regime from the leading-balance constants.

    Criticality compares q against 2p exactly; callers working from fitted
    exponents should round to the intended rational values first.
    """
    if not p >= 1:
        raise RegimeError(f"bias exponent p must be >= 1, got {p}")
    if not q >= 0:
        raise RegimeError(f"variance exponent q must be >= 0, got {q}")
    if not k_q > 0:
        raise RegimeError(f"variance penalty K must be positive, got {k_q}")
    if not d_p > 0:
        raise RegimeError(
            f"no leading bias improvement (D_p = {d_p:.6g} <= 0); "
            "the boundary may disappear or reverse at this order"
        )
    eta = None
    if delta_b is not None and delta_v is not None and q < 2 * p:
        eta = min(delta_b, delta_v) / (2 * p - q)
    if q < 2 * p:
        r = 1.0 / (2 * p - q)
        return RegimeReport(
            p=p, q=q, regime="subcritical", d_p=d_p, k_q=k_q,
            c_pq=(k_q / d_p) ** r, exponent=-r, eta=eta,
        )
    if q == 2 * p:
        return RegimeReport(
            p=p, q=q, regime="critical", d_p=d_p, k_q=k_q, b_star=k_q / d_p,
        )
    return RegimeReport(p=p, q=q, regime="supercritical", d_p=d_p, k_q=k_q)


def leading_bias_gain(rule: RichardsonRule, p: float, amplitude: float) -> float:
    """Leading squared-bias improvement ``D_p = A^2 (1 - rho_p^2)`` of ``rule``.

    ``rho_p = sum_j c_j lam_j^p`` is zero whenever p <= rule order.  At
    ``|rho_p| >= 1`` the rule does not shrink the leading bias, so no lower
    boundary shrinks with the budget: RegimeError.
    """
    rho_p = float(np.asarray(rule.coeffs) @ np.asarray(rule.scales) ** p)
    if abs(rho_p) >= 1.0:
        raise RegimeError(f"no shrinking lower boundary at this order: "
                          f"|rho_p| = {abs(rho_p):.6g} >= 1 for p = {p}")
    return amplitude * amplitude * (1.0 - rho_p * rho_p)


def theoretical_boundary(model, rule: RichardsonRule | None) -> RegimeReport:
    """Regime report predicted from a model's declared constants and a rule.

    For sampled models the leading squared-bias improvement is
    :func:`leading_bias_gain` of the declared (p, A), and the variance penalty
    is the one the rule pays at the declared (q, nu): ``K_opt`` if it
    reallocates, else ``K_fixed``.
    """
    if not model.sampled:
        return classify_regime(
            model.p, model.q, model.d_p, model.k_q,
            delta_b=model.delta_b if model.l_b else None,
            delta_v=model.delta_v if model.l_v else None,
        )
    if rule is None:
        raise RegimeError("a rule is required for sampled models")
    c = model.declared()
    d_p = leading_bias_gain(rule, c["p"], c["bias_amplitude"])
    return classify_regime(c["p"], c["q"], d_p, variance_penalty(rule, c["q"], c["nu"]).k)


@dataclass(frozen=True)
class BudgetBracket:
    """Finite-budget bracket around the subcritical boundary.

    For budgets at or above ``b0`` the exact MSE difference is negative at
    ``eps_lo(B) = (1-rho) C B^(-r)`` and positive at
    ``eps_hi(B) = (1+rho) C B^(-r)``, so a crossing is certified in between.
    """

    rho: float
    r: float
    x_minus: float
    x_plus: float
    m_rho: float
    b0: float

    def eps_lo(self, budget: float) -> float:
        return self.x_minus * budget ** (-self.r)

    def eps_hi(self, budget: float) -> float:
        return self.x_plus * budget ** (-self.r)


def budget_bracket(
    regime: RegimeReport,
    rho: float,
    l_b: float,
    l_v: float,
    delta_b: float,
    delta_v: float,
    eps0: float,
) -> BudgetBracket:
    """Certified bracket from remainder bounds |R| <= l_b eps^(2p+db) + l_v eps^(q+dv)/B."""
    if regime.regime != "subcritical":
        raise RegimeError(f"bracketing requires the subcritical regime, got {regime.regime}")
    if not 0 < rho < 1:
        raise RegimeError(f"rho must lie in (0, 1), got {rho}")
    if l_b < 0 or l_v < 0:
        raise RegimeError("remainder amplitudes must be >= 0")
    if delta_b <= 0 or delta_v <= 0:
        raise RegimeError("remainder exponents must be positive")
    if eps0 <= 0:
        raise RegimeError(f"domain bound eps0 must be positive, got {eps0}")
    p, q, d, k, c = regime.p, regime.q, regime.d_p, regime.k_q, regime.c_pq
    r = -regime.exponent
    x_minus = (1 - rho) * c
    x_plus = (1 + rho) * c
    m_rho = min(
        k * x_minus**q - d * x_minus ** (2 * p),
        d * x_plus ** (2 * p) - k * x_plus**q,
    )
    if m_rho <= 0:
        raise RegimeError(
            f"sign margin is not positive (m_rho = {m_rho:.3e}); increase rho"
        )
    terms = [(x_plus / eps0) ** (1.0 / r)]
    if l_b > 0:
        terms.append((4 * l_b * x_plus ** (2 * p + delta_b) / m_rho) ** (1.0 / (r * delta_b)))
    if l_v > 0:
        terms.append((4 * l_v * x_plus ** (q + delta_v) / m_rho) ** (1.0 / (r * delta_v)))
    return BudgetBracket(
        rho=rho, r=r, x_minus=x_minus, x_plus=x_plus, m_rho=m_rho, b0=max(terms),
    )


@dataclass(frozen=True)
class LocalOptimalityResult:
    """Sign check of the MSE difference along a faster-shrinking schedule."""

    s_prime: float
    passed: bool
    onset_budget: float | None
    budgets: tuple[float, ...]
    deltas: tuple[float, ...]


def local_optimality_check(
    model,
    rule: RichardsonRule | None,
    regime: RegimeReport,
    s_prime: float,
    budgets: Sequence[float],
) -> LocalOptimalityResult:
    """Check that eps_B = B^(-s') stays in the harm region for large budgets.

    A schedule shrinking strictly faster than the boundary scale (s' > r)
    must give a negative exact MSE difference for every budget past some
    onset; the result reports that onset, the budget after the last
    non-negative delta, and the deltas, evaluated as one table.
    """
    if regime.regime != "subcritical":
        raise RegimeError(f"check requires the subcritical regime, got {regime.regime}")
    r = -regime.exponent
    if not s_prime > r:
        raise RegimeError(f"schedule exponent s'={s_prime} must exceed r={r}")
    if not len(budgets):
        raise RegimeError("the schedule check needs at least one budget")
    budgets = sorted(float(b) for b in budgets)
    schedule = np.array([[b ** (-s_prime)] for b in budgets])
    deltas = exact_delta_curve(model, rule, schedule, np.array(budgets)[:, None])[:, 0]
    not_harmful = np.flatnonzero(~(deltas < 0))
    start = not_harmful[-1] + 1 if not_harmful.size else 0
    onset = budgets[start] if start < len(budgets) else None
    return LocalOptimalityResult(
        s_prime=s_prime, passed=onset is not None, onset_budget=onset,
        budgets=tuple(budgets), deltas=tuple(deltas.tolist()),
    )


def auto_windows(
    model,
    rule: RichardsonRule | None,
    budgets: Sequence[float],
    *,
    span: tuple[float, float] = DEFAULT_SPAN,
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
) -> np.ndarray:
    """Per-budget grids centered on the coarse theoretical boundary guess, as one table.

    Budget ``B``'s window is ``[span[0] * C B^(-r), span[1] * C B^(-r)]``,
    fixed by the declared model constants before any data is seen, and
    truncated to keep every scaled level inside the model's domain.  ``C``
    is the base split's (``K_fixed``) constant, so an optimal-allocation
    rule gets its base split's window.  The configuration alone fixes the
    point count: every window gets
    ``n = max(3, round(points_per_decade * log10(span[1] / span[0])))``
    points, so crossings resolve with equal relative resolution across the
    ladder, and a window the domain cuts short keeps its ``n`` points on the
    shorter span: finer than configured, never coarser.  A ladder is thus
    always one :func:`mse.grid_table`, built with one ``geomspace`` call.
    """
    if not 0 < span[0] < span[1]:
        raise ValueError(f"auto window span needs 0 < lo < hi, got {list(span)}")
    base = None if rule is None else replace(rule, optimal=False)
    regime = theoretical_boundary(model, base)
    if regime.regime != "subcritical":
        raise RegimeError(
            f"auto window needs a shrinking boundary; regime is {regime.regime}"
        )
    scales = rule.scales if rule is not None else (1.0,)
    guess = np.array([regime.predicted_eps_star(b) for b in budgets])
    lo = span[0] * guess
    hi = np.minimum(span[1] * guess, scaled_domain_max(model, scales) * (1 - 1e-9))
    if not (open_windows := lo < hi).all():
        i = open_windows.argmin()  # the first collapsed window
        raise RegimeError(f"auto window [{lo[i]:.3e}, {hi[i]:.3e}] at B={budgets[i]:g} "
                          "collapsed under the domain bound")
    n = max(3, int(round(points_per_decade * math.log10(span[1] / span[0]))))
    return grid_table(budgets, np.geomspace(lo, hi, n, axis=1))


def auto_window(
    model,
    rule: RichardsonRule | None,
    budget: float,
    *,
    span: tuple[float, float] = DEFAULT_SPAN,
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
) -> np.ndarray:
    """One budget's grid: the one-row form of :func:`auto_windows`."""
    return auto_windows(model, rule, [budget], span=span, points_per_decade=points_per_decade)[0]
