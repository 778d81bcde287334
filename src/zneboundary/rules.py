"""Fixed Richardson extrapolation rules and their variance penalties.

A rule of order ``k`` combines estimates taken at noise-scale factors
``1 = lam_0 < lam_1 < ... < lam_k`` with coefficients ``c_j``, the Lagrange
basis polynomials of the nodes evaluated at zero,

    c_j = prod_{m != j} lam_m / (lam_m - lam_j),

computed exactly in rationals and rounded to float once.  They satisfy

    sum_j c_j = 1        and        sum_j c_j lam_j^m = 0   for m = 1..k,

which cancels the first ``k`` powers of the bias expansion.  Shots are split
across the levels by allocation fractions ``pi_j > 0`` summing to one.  The
rule owns its allocation policy: a fixed split (uniform or explicit
weights), or per-strength optimal reallocation around uniform base
fractions, which every engine, fit and report reads from the rule.  The
coefficient magnitudes always satisfy ``sum_j |c_j| > 1`` for ``k >= 1``, so
a nontrivial rule pays a strictly positive variance penalty: if the
single-shot variance scales like ``nu * eps^q``, the leading excess variance
of the extrapolated estimator over the unmitigated one is ``K * eps^q / B``
with

    K_fixed = nu * [ sum_j c_j^2 lam_j^q / pi_j - 1 ]          (given pi)
    K_opt   = nu * [ ( sum_j |c_j| lam_j^(q/2) )^2 - 1 ]        (best pi)

``K_opt <= K_fixed`` for every allocation (Cauchy-Schwarz).  A fixed split
pays ``K_fixed``, an optimal-allocation rule ``K_opt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import AllocationError, RuleError

__all__ = [
    "RichardsonRule",
    "PenaltyConstants",
    "build_rule",
    "variance_penalty",
    "penalty_constants",
    "small_noise_allocation",
    "optimal_allocation",
    "optimal_split",
]

MAX_ORDER = 6
IDENTITY_TOL = 1e-12

# Levels whose variance vanishes at the evaluation point get this floor
# before renormalizing; the exact-MSE engine is insensitive to it at
# leading order.
MIN_ALLOC_FRACTION = 1e-6


@dataclass(frozen=True)
class RichardsonRule:
    """An immutable fixed extrapolation rule: scales, coefficients, allocation.

    ``alloc`` is the fixed split; with ``optimal`` set it is only the base
    split, and the engines reallocate per noise strength.
    """

    scales: tuple[float, ...]
    coeffs: tuple[float, ...]
    alloc: tuple[float, ...]
    optimal: bool = False

    @property
    def order(self) -> int:
        return len(self.scales) - 1

    def identity_residuals(self) -> tuple[float, ...]:
        """Residuals of the defining identities, one per power m = 0..k.

        Evaluated in exact rational arithmetic so the result is the true
        defect of the stored float coefficients, not accumulation noise.
        """
        return tuple(float(abs(r)) for r in _exact_residuals(self.scales, self.coeffs))

    def spec(self) -> dict:
        """``{"scales", "alloc"}`` that :func:`build_rule` turns back into this rule."""
        return {"scales": list(self.scales),
                "alloc": "optimal" if self.optimal else list(self.alloc)}


@dataclass(frozen=True)
class PenaltyConstants:
    """Leading variance-penalty constants of a rule at exponent ``q``.

    ``k_fixed`` uses the rule's own allocation, ``k_opt`` the variance-optimal
    one; both are strictly positive for nontrivial rules whenever ``nu > 0``.
    """

    q: float
    nu: float
    k_fixed: float
    k_opt: float
    optimal: bool = False

    @property
    def k(self) -> float:
        """The penalty the rule pays: ``k_opt`` if it reallocates, else ``k_fixed``."""
        return self.k_opt if self.optimal else self.k_fixed


def build_rule(scales: Sequence[float], alloc="uniform") -> RichardsonRule:
    """Construct a rule from its scale factors and an allocation spec.

    ``alloc`` is ``"uniform"``, ``"optimal"``, or an explicit sequence of
    positive weights (normalized to fractions).  ``"optimal"`` gives an
    ``optimal`` rule with uniform base fractions, which the engines
    reallocate per noise strength.

    Each coefficient is the Lagrange basis polynomial of its node at zero,
    evaluated in exact rationals on the float scales and rounded once, so it
    is the nearest float to the exact value.  A scale set whose rounded
    coefficients miss the defining identities by more than ``IDENTITY_TOL``
    (evaluated exactly) is too ill-conditioned for float64 and is rejected.
    """
    lam = np.asarray([float(s) for s in scales], dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise RuleError("need at least two scale factors")
    if lam.size - 1 > MAX_ORDER:
        raise RuleError(
            f"order {lam.size - 1} exceeds cap {MAX_ORDER}; "
            "the scale-power system becomes too ill-conditioned"
        )
    if lam[0] != 1.0:
        raise RuleError(f"first scale factor must be exactly 1, got {lam[0]}")
    if not (np.all(np.diff(lam) > 0) and np.isfinite(lam[-1])):
        raise RuleError(f"scale factors must be finite and strictly increasing, got {lam.tolist()}")

    k = lam.size - 1
    exact = [Fraction(x) for x in lam]
    c = [float(math.prod(m / (m - j) for m in exact if m != j)) for j in exact]

    residual = max(abs(r) for r in _exact_residuals(lam, c))
    if residual > IDENTITY_TOL:
        raise RuleError(
            f"coefficient identities not met to {IDENTITY_TOL:g} "
            f"(residual {float(residual):.3e}) for scales {lam.tolist()}; "
            "the scale set is too ill-conditioned for float64 coefficients"
        )
    if not float(np.abs(c).sum()) > 1.0:
        raise RuleError("degenerate rule: sum |c_j| must exceed 1 for order >= 1")

    # isinstance first: an ndarray ``alloc == "optimal"`` compares elementwise
    optimal = isinstance(alloc, str) and alloc == "optimal"
    if isinstance(alloc, str):
        if alloc not in ("uniform", "optimal"):
            raise RuleError(f"unknown allocation spec {alloc!r}")
        fractions = tuple([1.0 / (k + 1)] * (k + 1))
    else:
        fractions = _validate_alloc(alloc, k + 1)
    return RichardsonRule(tuple(float(x) for x in lam), tuple(c), fractions, optimal)


def _exact_residuals(scales, coeffs) -> list[Fraction]:
    """Identity residuals of float coefficients, in exact rationals.

    Entry m is ``sum_j c_j lam_j^m - [m == 0]`` for m = 0..k.
    """
    lam = [Fraction(float(s)) for s in scales]
    c = [Fraction(float(x)) for x in coeffs]
    out = []
    for m in range(len(lam)):
        total = sum(cj * lj**m for cj, lj in zip(c, lam))
        out.append(total - (1 if m == 0 else 0))
    return out


def _validate_alloc(alloc: Sequence[float], n: int) -> tuple[float, ...]:
    """Positive weights as fractions; fractions already normalized are kept as given.

    Normalizing them again could move each an ulp, and a rule's spec must
    build back its ``alloc`` bit for bit.
    """
    w = np.asarray([float(a) for a in alloc], dtype=float)
    if w.size != n:
        raise RuleError(f"allocation needs {n} entries, got {w.size}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise RuleError("allocation weights must all be positive and finite")
    if abs(math.fsum(w) - 1.0) > n * np.finfo(float).eps:
        w = w / w.sum()
    return tuple(float(x) for x in w)


def variance_penalty(rule: RichardsonRule, q: float, nu: float) -> PenaltyConstants:
    """Penalty constants of ``rule`` for a declared variance curve ``nu * eps^q``."""
    if not nu >= 0:
        raise RuleError(f"variance level nu must be >= 0, got {nu}")
    if not q >= 0:
        raise RuleError(f"variance exponent q must be >= 0, got {q}")
    return penalty_constants(rule, q, nu)


def penalty_constants(rule: RichardsonRule, q: float, nu: float) -> PenaltyConstants:
    """Penalty constants with no domain check, for fitted ``(q_hat, nu_hat)``.

    A ``q = 0`` model legitimately fits a slightly negative ``q_hat``.
    """
    lam = np.asarray(rule.scales)
    c = np.asarray(rule.coeffs)
    pi = np.asarray(rule.alloc)
    k_fixed = nu * (float(np.sum(c**2 * lam**q / pi)) - 1.0)
    k_opt = nu * (float(np.sum(_small_noise_weights(rule, q))) ** 2 - 1.0)
    return PenaltyConstants(q=q, nu=nu, k_fixed=k_fixed, k_opt=k_opt, optimal=rule.optimal)


def _small_noise_weights(rule: RichardsonRule, q: float) -> np.ndarray:
    return np.abs(np.asarray(rule.coeffs)) * np.asarray(rule.scales) ** (q / 2.0)


def small_noise_allocation(rule: RichardsonRule, q: float) -> tuple[float, ...]:
    """Small-noise optimal split ``|c_j| lam_j^(q/2) / sum``, which attains ``K_opt``."""
    w = _small_noise_weights(rule, q)
    return tuple(float(x) for x in w / w.sum())


def optimal_allocation(rule: RichardsonRule, model, eps):
    """Variance-optimal shot fractions at noise strength ``eps``.

    :func:`optimal_split` of the model's variances at the scaled strengths
    ``lam_j eps``.  For an array of strengths the fractions run along a new
    last axis, of length ``k+1``; for a single strength they are a tuple.
    """
    strengths = np.asarray(eps, dtype=float)[..., None] * np.asarray(rule.scales)
    pi = optimal_split(rule, np.broadcast_to(model.variance(strengths), strengths.shape))
    return pi if np.ndim(eps) else tuple(float(x) for x in pi)


def optimal_split(rule: RichardsonRule, variances: np.ndarray) -> np.ndarray:
    """Variance-optimal shot fractions from the level variances ``v(lam_j eps)``.

    ``variances`` holds one value per level along its last axis.  The
    Lagrange optimum weights each level by ``|c_j| * sqrt(v_j)``.  Levels
    with exactly zero variance are degenerate in the optimum and get the
    floor fraction before renormalization; if every level has zero variance
    the allocation is undefined, and a negative variance is refused.
    """
    negative = np.any(variances < 0, axis=-1)
    if negative.any():
        first = np.reshape(variances, (-1, variances.shape[-1]))[np.argmax(negative)]
        raise AllocationError(f"negative variance among level variances {first.tolist()}")
    w = np.sqrt(variances) * np.abs(rule.coeffs)
    if np.any(np.all(w == 0, axis=-1)):
        raise AllocationError("degenerate variance, allocation undefined")
    pi = w / w.sum(axis=-1, keepdims=True)
    pi[~(w > 0)] = MIN_ALLOC_FRACTION
    pi /= pi.sum(axis=-1, keepdims=True)
    return pi
