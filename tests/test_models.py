"""Model curves, domains, declared constants, and sampler behavior."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zneboundary.boundary import theoretical_boundary
from zneboundary.errors import ConfigError, DomainError, ModelError
from zneboundary.models import (
    _REGISTRY,
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    PowerLeakageBinary,
    ProductContractionString,
    check_scaled_eps,
    model_from_spec,
)
from zneboundary.mse import CountTable, exact_delta
from zneboundary.rules import build_rule

ALL_BINARY = [
    LinearBiasBinary(mu0=0.5, alpha=1.0),
    LinearBiasBinary(mu0=-0.2, alpha=-0.6),
    DeterministicLimitBinary(kappa=1.0),
    ProductContractionString(gamma=0.1, ell=5),
    PowerLeakageBinary(sigma=1, kappa=0.8, r=2.0),
]


class TestCurves:
    def test_linear_bias_values(self):
        m = LinearBiasBinary(mu0=0.5, alpha=1.0)
        assert m.mean(0.1) == pytest.approx(0.6)
        assert m.variance(0.1) == pytest.approx(0.64)

    def test_deterministic_limit_values(self):
        m = DeterministicLimitBinary(kappa=1.0)
        assert m.variance(0.01) == pytest.approx(0.0199, abs=1e-16)

    def test_product_contraction_ideal_limit(self):
        m = ProductContractionString(gamma=0.1, ell=5)
        assert m.mean(0.0) == 1.0
        assert m.variance(0.0) == 0.0
        assert m.mean(0.2) == pytest.approx((1 - 0.02) ** 5)

    def test_power_leakage_values(self):
        m = PowerLeakageBinary(sigma=-1, kappa=0.5, r=2.0)
        assert m.mean(0.1) == pytest.approx(-(1 - 0.5 * 0.01))
        assert m.variance(0.1) == pytest.approx(2 * 0.5 * 0.01 - 0.25 * 0.0001)

    @pytest.mark.parametrize("model", ALL_BINARY)
    def test_binary_identity_on_grid(self, model):
        grid = np.linspace(0.0, model.eps_max * 0.98, 41)
        for eps in grid:
            mu = model.mean(float(eps))
            assert abs(mu) <= 1.0 + 1e-15
            assert model.variance(float(eps)) == 1.0 - mu * mu  # exact, by construction

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_binary_identity_property(self, frac):
        for model in ALL_BINARY:
            eps = frac * model.eps_max * 0.999
            mu = model.mean(eps)
            assert model.variance(eps) == pytest.approx(1.0 - mu * mu, abs=1e-15)


class TestDomains:
    def test_linear_bias_domain(self):
        m = LinearBiasBinary(mu0=0.5, alpha=1.0)
        assert m.eps_max == pytest.approx(0.5)
        m.mean(0.5)  # boundary included
        with pytest.raises(DomainError, match=r"\|mu0 \+ alpha\*eps\| <= 1"):
            m.mean(0.5000001)
        with pytest.raises(DomainError):
            m.mean(-0.01)

    def test_contraction_domain_is_open(self):
        m = ProductContractionString(gamma=0.1, ell=3)
        with pytest.raises(DomainError, match="gamma\\*eps < 1"):
            m.mean(10.0)
        m.mean(9.999)

    def test_deterministic_limit_domain(self):
        m = DeterministicLimitBinary(kappa=2.0)
        m.mean(1.0)
        with pytest.raises(DomainError):
            m.mean(1.01)

    @pytest.mark.parametrize("model", ALL_BINARY, ids=lambda m: type(m).__name__)
    def test_nan_is_out_of_domain(self, model):
        with pytest.raises(DomainError):
            model.mean(float("nan"))

    @pytest.mark.parametrize("model", ALL_BINARY, ids=lambda m: type(m).__name__)
    def test_array_curves_match_scalar_curves(self, model):
        grid = np.linspace(0.0, model.eps_max * 0.999, 7)
        assert model.mean(grid).tolist() == [model.mean(float(e)) for e in grid]
        assert model.variance(grid).tolist() == [model.variance(float(e)) for e in grid]
        with pytest.raises(DomainError) as err:
            model.mean(np.append(grid, [2 * model.eps_max, 3 * model.eps_max]))
        assert err.value.eps == 2 * model.eps_max
        assert f"eps={2 * model.eps_max!r}" in str(err.value)

    def test_scaled_check_names_pair(self):
        m = DeterministicLimitBinary(kappa=1.0)
        with pytest.raises(DomainError, match="lambda=5") as err:
            check_scaled_eps(m, 0.5, (1.0, 5.0))
        assert err.value.scale == 5.0
        assert err.value.eps == 0.5

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            LinearBiasBinary(mu0=1.5, alpha=1.0)
        with pytest.raises(ConfigError):
            LinearBiasBinary(mu0=0.5, alpha=0.0)
        with pytest.raises(ConfigError):
            DeterministicLimitBinary(kappa=-1.0)
        with pytest.raises(ConfigError):
            ProductContractionString(gamma=0.1, ell=0)
        with pytest.raises(ConfigError):
            PowerLeakageBinary(sigma=2, kappa=1.0, r=1.0)


class TestDeclaredConstants:
    def test_q_recovered_from_exact_curves(self):
        # log-log slope over a small-eps window recovers the declared q
        window = np.geomspace(1e-4, 1e-3, 30)

        def fitted_q(model):
            v = [model.variance(float(e)) for e in window]
            return np.polyfit(np.log(window), np.log(v), 1)[0]

        assert abs(fitted_q(ProductContractionString(gamma=0.1, ell=5)) - 1.0) <= 0.02
        assert abs(fitted_q(DeterministicLimitBinary(kappa=1.0)) - 1.0) <= 0.02
        assert abs(fitted_q(LinearBiasBinary(mu0=0.5, alpha=1.0))) <= 0.02

    def test_declared_values(self):
        m = ProductContractionString(gamma=0.1, ell=5)
        assert m.declared() == {
            "p": 1.0, "bias_amplitude": -0.5, "q": 1.0, "nu": 1.0,
        }
        assert LinearBiasBinary(mu0=0.5, alpha=2.0).declared() == {
            "p": 1.0, "bias_amplitude": 2.0, "q": 0.0, "nu": 0.75,
        }
        assert DeterministicLimitBinary(kappa=0.5).declared() == {
            "p": 1.0, "bias_amplitude": -0.5, "q": 1.0, "nu": 1.0,
        }
        assert PowerLeakageBinary(sigma=-1, kappa=0.8, r=2.5).declared() == {
            "p": 2.5, "bias_amplitude": 0.8, "q": 2.5, "nu": 1.6,
        }
        # declared() is the one statement: no model restates it as attributes
        for m in ALL_BINARY + [MonomialBalanceModel(p=1, q=1, d_p=1.0, k_q=2.0)]:
            for name in ("bias_exponent", "bias_amplitude", "variance_exponent",
                         "variance_level"):
                assert not hasattr(m, name)


class TestSampler:
    def test_degenerate_distribution(self):
        m = DeterministicLimitBinary(kappa=1.0)
        rng = np.random.default_rng(0)
        assert m.sample_counts(0.0, 1000, rng) == 1000  # mu = 1 exactly

    def test_symmetric_coin(self):
        m = LinearBiasBinary(mu0=1e-12, alpha=1.0)
        rng = np.random.default_rng(1)
        shots = 200_000
        plus = m.sample_counts(0.0, shots, rng)
        assert abs(plus / shots - 0.5) < 0.005

    def test_empirical_mean_tracks_exact_mean(self):
        # |mean_hat - mean| <= 5 sqrt(v/n) must hold in >= 99% of repetitions
        m = DeterministicLimitBinary(kappa=1.0)
        eps, shots, reps = 0.05, 10**6, 300
        mu, v = m.mean(eps), m.variance(eps)
        bound = 5.0 * np.sqrt(v / shots)
        rng = np.random.default_rng(123)
        hits = 0
        for _ in range(reps):
            mu_hat = 2.0 * m.sample_counts(eps, shots, rng) / shots - 1.0
            hits += abs(mu_hat - mu) <= bound
        assert hits >= int(0.99 * reps)

    def test_binomial_law_chi_square(self):
        # goodness of fit of plus counts against Binomial(shots, p) at the
        # 0.001 level over 1000 draws
        m = LinearBiasBinary(mu0=0.2, alpha=1.0)
        eps, shots, draws = 0.1, 40, 1000
        p_plus = 0.5 * (1.0 + m.mean(eps))
        rng = np.random.default_rng(2024)
        counts = np.array([m.sample_counts(eps, shots, rng) for _ in range(draws)])
        # bin the support so every expected count is >= 5
        pmf = stats.binom.pmf(np.arange(shots + 1), shots, p_plus)
        edges, acc = [], 0.0
        for k in range(shots + 1):
            acc += pmf[k]
            if acc * draws >= 5 and k < shots:
                edges.append(k)
                acc = 0.0
        bins = [-0.5] + [e + 0.5 for e in edges] + [shots + 0.5]
        observed, _ = np.histogram(counts, bins=bins)
        probs = np.diff([stats.binom.cdf(b, shots, p_plus) for b in bins])
        expected = probs * draws
        stat, pvalue = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue > 0.001

    def test_sampler_determinism(self):
        m = ProductContractionString(gamma=0.05, ell=4)
        a = m.sample_counts(0.3, 5000, np.random.default_rng(99))
        b = m.sample_counts(0.3, 5000, np.random.default_rng(99))
        assert a == b

    def test_rejects_bad_shots(self):
        with pytest.raises(ModelError):
            DeterministicLimitBinary(kappa=1.0).sample_counts(0.1, 0, np.random.default_rng(0))


class TestMonomialBalance:
    def test_delta_closed_form(self):
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        assert m.delta_mse(1.0, 1.0) == 0.0  # balanced point
        assert m.delta_mse(0.01, 10**4) == pytest.approx(0.0, abs=1e-18)

    def test_remainders_enter_with_declared_signs(self):
        m = MonomialBalanceModel(
            p=1, q=0, d_p=1.0, k_q=1.0, l_b=2.0, l_v=3.0, delta_b=1.0, delta_v=1.0
        )
        eps, budget = 0.1, 100.0
        expected = eps**2 - 1.0 / budget + 2.0 * eps**3 + 3.0 * eps / budget
        assert m.delta_mse(eps, budget) == pytest.approx(expected, rel=1e-15)

    def test_array_matches_scalar_bits(self):
        m = MonomialBalanceModel(p=2, q=0.5, d_p=1.5, k_q=2.0, l_b=0.3, l_v=0.7, delta_v=0.5)
        eps = np.geomspace(1e-4, 3.0, 50)
        curve = m.delta_mse(eps, 1234.5)
        points = np.array([m.delta_mse(float(e), 1234.5) for e in eps])
        assert np.array_equal(curve.view(np.uint64), points.view(np.uint64))

    @pytest.mark.parametrize("eps, first", [(-0.1, -0.1), (np.array([0.1, -0.2, -0.3]), -0.2)],
                             ids=["scalar", "array"])
    def test_negative_eps_rejected(self, eps, first):
        m = MonomialBalanceModel(p=1, q=0.5, d_p=1.0, k_q=1.0)
        with pytest.raises(DomainError, match=f"eps={first!r} outside valid domain") as err:
            m.delta_mse(eps, 100.0)
        assert err.value.eps == first
        with pytest.raises(DomainError):
            exact_delta(m, None, first, 100.0)

    def test_has_no_sampler_or_curves(self):
        m = MonomialBalanceModel(p=1, q=1, d_p=1.0, k_q=2.0)
        assert not m.sampled
        for name in ("mean", "variance", "sample_counts", "crossing"):
            assert not hasattr(m, name)
        with pytest.raises(ModelError, match="model has no sampler"):
            CountTable((100,), [[0.1]], np.zeros((1, 1, 3, 2), dtype=np.int64), 0, m,
                       build_rule([1, 3]))

    def test_closed_form_crossing(self):
        # the zero-remainder crossing (k_q / (d_p B))^(1/(2p-q)) is the subcritical law
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        assert theoretical_boundary(m, None).predicted_eps_star(10**4) == pytest.approx(0.01)
        m2 = MonomialBalanceModel(p=2, q=1, d_p=4.0, k_q=8.0)
        assert theoretical_boundary(m2, None).predicted_eps_star(100.0) == pytest.approx(
            (8.0 / 400.0) ** (1 / 3))


positive = st.floats(1e-3, 1e3)
IN_DOMAIN = {
    "linear_bias_binary": st.builds(LinearBiasBinary, mu0=st.floats(-0.999, 0.999),
                                    alpha=positive | st.floats(-1e3, -1e-3)),
    "deterministic_limit_binary": st.builds(DeterministicLimitBinary, kappa=positive),
    "product_contraction_string": st.builds(ProductContractionString, gamma=positive,
                                            ell=st.integers(1, 10**6)),
    "power_leakage_binary": st.builds(PowerLeakageBinary, sigma=st.sampled_from([-1, 1]),
                                      kappa=positive, r=st.floats(1e-2, 10.0)),
    "monomial_balance": st.builds(MonomialBalanceModel, p=st.integers(1, 6),
                                  q=st.floats(0.0, 12.0), d_p=positive, k_q=positive,
                                  l_b=st.floats(0.0, 1e3), l_v=st.floats(0.0, 1e3),
                                  delta_b=positive, delta_v=positive),
}


def test_every_registered_model_has_a_strategy():
    assert set(IN_DOMAIN) == set(_REGISTRY)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(IN_DOMAIN)).flatmap(IN_DOMAIN.__getitem__))
def test_spec_is_the_kind_and_the_fields_property(model):
    spec = model.spec()
    assert model_from_spec(spec) == model
    assert spec["type"] == model.kind
    assert _REGISTRY[model.kind] is type(model)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "model",
        ALL_BINARY + [MonomialBalanceModel(p=2, q=1, d_p=0.5, k_q=3.0, l_b=1.0)],
    )
    def test_round_trip(self, model):
        clone = model_from_spec(model.spec())
        assert clone == model

    @pytest.mark.parametrize("model, spec", [
        (LinearBiasBinary(mu0=0.5, alpha=1.0),
         {"type": "linear_bias_binary", "mu0": 0.5, "alpha": 1.0}),
        (DeterministicLimitBinary(kappa=1.0),
         {"type": "deterministic_limit_binary", "kappa": 1.0}),
        (ProductContractionString(gamma=0.1, ell=5),
         {"type": "product_contraction_string", "gamma": 0.1, "ell": 5}),
        (PowerLeakageBinary(sigma=1, kappa=0.8, r=2.0),
         {"type": "power_leakage_binary", "sigma": 1, "kappa": 0.8, "r": 2.0}),
        (MonomialBalanceModel(p=2, q=1, d_p=0.5, k_q=3.0),
         {"type": "monomial_balance", "p": 2, "q": 1, "d_p": 0.5, "k_q": 3.0, "l_b": 0.0,
          "l_v": 0.0, "delta_b": 1.0, "delta_v": 1.0}),
    ])
    def test_spec_keys_in_header_order(self, model, spec):
        # the counts header serializes these dicts: keys, order and number types pinned
        assert json.dumps(model.spec()) == json.dumps(spec)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown model type"):
            model_from_spec({"type": "qaoa_circuit"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            model_from_spec({"type": "deterministic_limit_binary", "kappa": 1.0, "x": 2})

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError, match="missing parameters"):
            model_from_spec({"type": "linear_bias_binary", "mu0": 0.5})

    @pytest.mark.parametrize("spec, message", [
        ({"type": "product_contraction_string", "gamma": 0.1, "ell": 2.5},
         "ell must be a positive integer, got 2.5"),
        ({"type": "power_leakage_binary", "sigma": 0.7, "kappa": 1.0, "r": 2.0},
         "sigma must be +1 or -1, got 0.7"),
        ({"type": "monomial_balance", "p": 1.5, "q": 1.0, "d_p": 1.0, "k_q": 1.0},
         "p must be a positive integer, got 1.5"),
    ])
    def test_fractional_integer_parameter_refused(self, spec, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            model_from_spec(spec)

    @pytest.mark.parametrize("value", ["abc", None, True, float("nan"), float("inf"), [2]])
    def test_parameter_that_is_not_a_finite_number_named(self, value):
        with pytest.raises(ConfigError, match=f"parameter ell of model 'product_contraction_"
                                              f"string' must be a finite number, got "
                                              f"{re.escape(repr(value))}"):
            model_from_spec({"type": "product_contraction_string", "gamma": 0.1, "ell": value})

    def test_integral_float_builds_the_integer_parameter(self):
        model = model_from_spec({"type": "power_leakage_binary", "sigma": -1.0,
                                 "kappa": 1.0, "r": 2.0})
        assert model.sigma == -1 and type(model.sigma) is int
        assert model.spec()["sigma"] == -1
