"""Exactly solvable noise-observable models.

Each sampled model exposes the true mean curve ``mu(eps)``, the true
single-shot variance ``v(eps)``, and a finite-shot sampler.  The curves take
one strength or a numpy array of them, elementwise.  All sampled
models are binary (+/-1 outcomes), so ``v = 1 - mu^2`` holds exactly and a
measurement cell reduces to a single plus-count drawn from
``Binomial(shots, (1 + mu)/2)``.  ``mean_and_variance`` is the one place
that identity is written: it returns both curves from one mean
evaluation, which is how the exact engine reads them.

For boundary-theory predictions every sampled model declares its leading small-noise
behavior: the bias exponent ``p`` and signed amplitude ``A`` of
``mu(eps) - mu(0) = A eps^p + ...`` and the variance exponent ``q`` and level
``nu`` of ``v(eps) = nu eps^q + ...``.

Domains are enforced, never clamped: evaluating outside the valid range
raises :class:`~zneboundary.errors.DomainError` naming the violated bound,
since silent clamping would corrupt slope fits downstream.

Every model keeps one contract: a ``sampled`` flag, the domain check over
``[0, eps_max]``, ``spec`` (the registry name ``kind`` and the dataclass
fields, for every model) and ``declared``.  The sampled models derive from
:class:`NoiseObservableModel`.  :class:`MonomialBalanceModel` is the one
model with ``sampled = False``: it has no mean curve or sampler and writes
the paper's local expansion ``delta = D_p eps^(2p) - K_q eps^q / B``, plus
tunable remainders, down as a closed form, elementwise like the mean
curves.  The exact engine evaluates that closed form and the stages that
need curves or counts read ``sampled``, so the crossing/fit stack can be
tested against exactly known boundaries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import ConfigError, DomainError, ModelError

__all__ = [
    "NoiseObservableModel",
    "LinearBiasBinary",
    "DeterministicLimitBinary",
    "ProductContractionString",
    "PowerLeakageBinary",
    "MonomialBalanceModel",
    "model_from_spec",
]


def _libm_pow(base, exponent):
    """``base ** exponent``, raising arrays element by element with libm ``pow``.

    numpy's vectorized power loop rounds differently from ``pow`` on a few
    percent of inputs, and the exact engine's golden outputs are pinned to
    the scalar ``pow`` rounding.  Arrays go through Python floats 4,096 at a
    time, so a whole sweep's table never holds them all at once.
    """
    if isinstance(base, np.ndarray):
        flat, out = base.ravel(), np.empty(base.size)
        for i in range(0, flat.size, 4096):
            out[i:i + 4096] = [b ** exponent for b in flat[i:i + 4096].tolist()]
        return out.reshape(base.shape)
    return base ** exponent


class _Model:
    """The domain check and spec every model shares; subclasses set ``sampled`` and ``kind``."""

    #: the model's name in the registry and the ``type`` of its spec; each model
    #: sets it unannotated, so it is a class attribute, not a dataclass field
    kind: str
    #: whether the model has mean and variance curves and a sampler; the exact
    #: engine evaluates a model without them through its ``delta_mse``
    sampled: bool
    #: largest admissible noise strength (inclusive unless noted by the model);
    #: cached, since the domain check reads it on every evaluation
    eps_max: float

    def inside_domain(self, eps):
        """True where ``eps`` (a strength or an array of them) is in the domain."""
        return (0.0 <= eps) & (eps <= self.eps_max)

    def spec(self) -> dict:
        """``{"type": kind, **fields}``, which :func:`model_from_spec` builds back."""
        return {"type": self.kind, **asdict(self)}

    def _domain_message(self, eps: float) -> str:
        return (f"{type(self).__name__}: eps={eps!r} outside valid domain "
                f"[0, {self.eps_max!r}]")

    def check_eps(self, eps) -> None:
        """Raise DomainError naming the first strength of ``eps`` out of domain."""
        inside = self.inside_domain(eps)
        if inside is True or np.all(inside):  # ``is True``: one float, no numpy call
            return
        if np.ndim(eps):
            eps = np.ravel(eps)[np.argmin(inside)].item()
        raise DomainError(self._domain_message(eps), eps=eps)


class NoiseObservableModel(_Model, ABC):
    """Base of the sampled models: +/-1 observables with the exact variance
    identity ``v = 1 - mu^2`` and a binomial sampler."""

    sampled = True

    @abstractmethod
    def mean(self, eps):
        """True expectation of the observable at noise strength ``eps``."""

    def variance(self, eps):
        """True single-shot variance ``1 - mu^2`` at noise strength ``eps``."""
        return self.mean_and_variance(eps)[1]

    def mean_and_variance(self, eps):
        """``(mu, 1 - mu^2)`` at ``eps`` from one :meth:`mean` evaluation."""
        mu = self.mean(eps)
        return mu, 1.0 - mu * mu

    def plus_probability(self, eps):
        """Single-shot probability ``(1 + mu)/2`` of a +1 outcome, elementwise.

        Clipped to [0, 1] to guard roundoff at the deterministic endpoints.
        """
        return np.clip(0.5 * (1.0 + self.mean(eps)), 0.0, 1.0)

    def sample_counts(self, eps: float, shots: int, rng: np.random.Generator) -> int:
        """Draw the number of +1 outcomes among ``shots`` single-shot samples."""
        if shots < 1 or shots != int(shots):
            raise ModelError(f"shots must be a positive integer, got {shots!r}")
        return int(rng.binomial(int(shots), float(self.plus_probability(eps))))

    # declared leading-order behavior, used by theory predictions
    @property
    @abstractmethod
    def bias_exponent(self) -> float:
        """Leading power p of mu(eps) - mu(0)."""

    @property
    @abstractmethod
    def bias_amplitude(self) -> float:
        """Signed coefficient A of the leading bias term A * eps^p."""

    @property
    @abstractmethod
    def variance_exponent(self) -> float:
        """Leading power q of v(eps)."""

    @property
    @abstractmethod
    def variance_level(self) -> float:
        """Coefficient nu of the leading variance term nu * eps^q."""

    def declared(self) -> dict:
        """Declared leading-order constants, echoed into run reports."""
        return {
            "p": self.bias_exponent,
            "bias_amplitude": self.bias_amplitude,
            "q": self.variance_exponent,
            "nu": self.variance_level,
        }


@dataclass(frozen=True)
class LinearBiasBinary(NoiseObservableModel):
    """Binary observable with exactly linear mean ``mu0 + alpha * eps``.

    Nonzero ideal variance (q = 0, nu = 1 - mu0^2); the stand-in for
    variational-energy style protocols.
    """

    kind = "linear_bias_binary"
    mu0: float
    alpha: float

    def __post_init__(self):
        if not -1.0 < self.mu0 < 1.0:
            raise ConfigError(f"mu0 must lie in (-1, 1), got {self.mu0}")
        if self.alpha == 0.0:
            raise ConfigError("alpha must be nonzero")

    @cached_property
    def eps_max(self) -> float:
        if self.alpha > 0:
            return (1.0 - self.mu0) / self.alpha
        return (-1.0 - self.mu0) / self.alpha

    def mean(self, eps):
        self.check_eps(eps)
        return self.mu0 + self.alpha * eps

    def inside_domain(self, eps):
        return (eps >= 0) & (abs(self.mu0 + self.alpha * eps) <= 1.0)

    def _domain_message(self, eps: float) -> str:
        return f"LinearBiasBinary: |mu0 + alpha*eps| <= 1 violated at eps={eps!r}"

    bias_exponent = property(lambda self: 1.0)
    bias_amplitude = property(lambda self: self.alpha)
    variance_exponent = property(lambda self: 0.0)
    variance_level = property(lambda self: 1.0 - self.mu0**2)


@dataclass(frozen=True)
class DeterministicLimitBinary(NoiseObservableModel):
    """Binary observable with ``mu(eps) = 1 - kappa * eps`` exactly.

    Deterministic ideal limit, so v(0) = 0 and v(eps) = 2 kappa eps -
    kappa^2 eps^2 gives q = 1 (stabilizer-measurement class).
    """

    kind = "deterministic_limit_binary"
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")

    @cached_property
    def eps_max(self) -> float:
        return 2.0 / self.kappa  # mean reaches -1

    def mean(self, eps):
        self.check_eps(eps)
        return 1.0 - self.kappa * eps

    bias_exponent = property(lambda self: 1.0)
    bias_amplitude = property(lambda self: -self.kappa)
    variance_exponent = property(lambda self: 1.0)
    variance_level = property(lambda self: 2.0 * self.kappa)


@dataclass(frozen=True)
class ProductContractionString(NoiseObservableModel):
    """Pauli-string observable under per-location contraction.

    ``ell`` active locations each attenuate the measured string by
    ``1 - gamma * eps``, giving ``mu(eps) = (1 - gamma*eps)^ell`` on the
    domain ``gamma * eps < 1``.  Leading leakage rate kappa = gamma * ell,
    so q = 1 with nu = 2 * gamma * ell.
    """

    kind = "product_contraction_string"
    gamma: float
    ell: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.ell < 1 or self.ell != int(self.ell):
            raise ConfigError(f"ell must be a positive integer, got {self.ell}")

    @cached_property
    def eps_max(self) -> float:
        return 1.0 / self.gamma  # exclusive: the contraction must stay positive

    def inside_domain(self, eps):
        return (eps >= 0) & (self.gamma * eps < 1.0)

    def _domain_message(self, eps: float) -> str:
        return (f"ProductContractionString: gamma*eps < 1 violated at eps={eps!r} "
                f"(gamma={self.gamma})")

    def mean(self, eps):
        self.check_eps(eps)
        return _libm_pow(1.0 - self.gamma * eps, self.ell)

    bias_exponent = property(lambda self: 1.0)
    bias_amplitude = property(lambda self: -self.gamma * self.ell)
    variance_exponent = property(lambda self: 1.0)
    variance_level = property(lambda self: 2.0 * self.gamma * self.ell)


@dataclass(frozen=True)
class PowerLeakageBinary(NoiseObservableModel):
    """Binary observable with power-law leakage ``mu = sigma (1 - kappa eps^r)``.

    Generalizes the deterministic-limit case to leading bias order r, giving
    q = r; with r above the rule order it exercises the uncancelled
    higher-order-bias regime.
    """

    kind = "power_leakage_binary"
    sigma: int
    kappa: float
    r: float

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ConfigError(f"sigma must be +1 or -1, got {self.sigma}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if self.r <= 0:
            raise ConfigError(f"r must be positive, got {self.r}")

    @cached_property
    def eps_max(self) -> float:
        return (2.0 / self.kappa) ** (1.0 / self.r)  # |mean| reaches 1 again

    def mean(self, eps):
        self.check_eps(eps)
        return self.sigma * (1.0 - self.kappa * _libm_pow(eps, self.r))

    bias_exponent = property(lambda self: self.r)
    bias_amplitude = property(lambda self: -self.sigma * self.kappa)
    variance_exponent = property(lambda self: self.r)
    variance_level = property(lambda self: 2.0 * self.kappa)


@dataclass(frozen=True)
class MonomialBalanceModel(_Model):
    """Direct monomial MSE-balance model with tunable remainders.

    Bypasses estimators entirely and defines

        delta_mse(eps, B) = d_p eps^(2p) - k_q eps^q / B
                            + l_b eps^(2p + delta_b) + l_v eps^(q + delta_v) / B

    so crossings, regimes, brackets, and convergence rates are exactly
    known.  It has no mean curve and no sampler (``sampled`` is False).
    """

    kind = "monomial_balance"
    p: int
    q: float
    d_p: float
    k_q: float
    l_b: float = 0.0
    l_v: float = 0.0
    delta_b: float = 1.0
    delta_v: float = 1.0

    def __post_init__(self):
        if self.p < 1 or self.p != int(self.p):
            raise ConfigError(f"p must be a positive integer, got {self.p}")
        if self.q < 0:
            raise ConfigError(f"q must be >= 0, got {self.q}")
        if self.d_p <= 0 or self.k_q <= 0:
            raise ConfigError("d_p and k_q must be positive")
        if self.l_b < 0 or self.l_v < 0:
            raise ConfigError("remainder amplitudes l_b, l_v must be >= 0")
        if self.delta_b <= 0 or self.delta_v <= 0:
            raise ConfigError("remainder exponents delta_b, delta_v must be positive")

    sampled = False  # class attributes, not constructor fields
    eps_max = float("inf")

    def delta_mse(self, eps, budget: float):
        """Closed-form MSE difference (noisy minus extrapolated), elementwise.

        ``eps`` is one strength or a numpy array of them; a negative one
        raises DomainError naming the first.
        """
        self.check_eps(eps)
        bias_part = self.d_p * _libm_pow(eps, 2 * self.p)
        var_part = self.k_q * _libm_pow(eps, self.q) / budget
        rem = (
            self.l_b * _libm_pow(eps, 2 * self.p + self.delta_b)
            + self.l_v * _libm_pow(eps, self.q + self.delta_v) / budget
        )
        return bias_part - var_part + rem

    def mean(self, eps: float) -> float:
        raise ModelError("MonomialBalanceModel has no mean curve")

    def variance(self, eps: float) -> float:
        raise ModelError("MonomialBalanceModel has no variance curve")

    def sample_counts(self, eps: float, shots: int, rng) -> int:
        raise ModelError("model has no sampler")

    def crossing(self, budget: float) -> float:
        """Exact leading-balance crossing ``(k_q / (d_p B))^(1/(2p-q))``.

        Only the zero-remainder closed form; with remainders present use the
        crossing finder on the exact curve.
        """
        if self.l_b or self.l_v:
            raise ModelError("closed-form crossing requires zero remainders")
        if self.q >= 2 * self.p:
            raise ModelError("no shrinking crossing for q >= 2p")
        return (self.k_q / (self.d_p * budget)) ** (1.0 / (2 * self.p - self.q))

    def declared(self) -> dict:
        return asdict(self)


_REGISTRY = {cls.kind: cls for cls in (LinearBiasBinary, DeterministicLimitBinary,
                                        ProductContractionString, PowerLeakageBinary,
                                        MonomialBalanceModel)}


def model_from_spec(spec: dict):
    """Instantiate a model from its configuration spec."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"model spec must be a mapping with a 'type' key, got {spec!r}")
    kind = spec["type"]
    if kind not in _REGISTRY:
        raise ConfigError(
            f"unknown model type {kind!r}; known: {sorted(_REGISTRY)}"
        )
    cls = _REGISTRY[kind]
    given = {k: v for k, v in spec.items() if k != "type"}
    params = fields(cls)  # the constructor's parameters; those with defaults are optional
    unknown = set(given) - {f.name for f in params}
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)} for model {kind!r}")
    missing = {f.name for f in params if f.default is MISSING} - set(given)
    if missing:
        raise ConfigError(f"missing parameters {sorted(missing)} for model {kind!r}")
    integers = {f.name for f in params if f.type == "int"}
    for name, value in given.items():
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ConfigError(f"parameter {name} of model {kind!r} must be a finite "
                              f"number, got {value!r}")
        if name in integers and isinstance(value, float) and value.is_integer():
            given[name] = int(value)  # YAML's 2.0; the constructor refuses 2.5
    return cls(**given)


def scaled_domain_max(model, scales) -> float:
    """Largest base eps whose scaled levels all stay in the model's domain."""
    lam_max = max(scales) if scales else 1.0
    return model.eps_max / lam_max


def check_scaled_eps(model, eps: float, scales) -> None:
    """Reject eps if any scaled level lies outside the model's domain."""
    for lam in scales:
        try:
            model.check_eps(lam * eps)
        except DomainError as err:
            raise DomainError(
                f"scaled strength lambda*eps out of domain at (eps={eps!r}, "
                f"lambda={lam!r}): {err}",
                eps=eps,
                scale=lam,
            ) from err
