"""Boundary, variance-exponent, and bias regressions plus constant checks."""

import re

import numpy as np
import pytest

from zneboundary.boundary import (
    CrossingEstimate,
    auto_window,
    find_crossing_arrays,
    theoretical_boundary,
)
from zneboundary.errors import FitError
from zneboundary.fits import (
    VarianceExponentFit,
    constant_check,
    fit_bias,
    fit_boundary,
    fit_loglog,
    fit_variance_exponent,
    plugin_constant,
    predict_slope,
)
from zneboundary.models import (
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    ProductContractionString,
)
from zneboundary.mse import exact_delta_curve
from zneboundary.rules import RichardsonRule, build_rule

RULE13 = build_rule([1, 3])


def exact_variance_fit(model, window):
    # the report's form: the model's exact curve on 40 points across the window
    grid = np.geomspace(*window, 40)
    return fit_variance_exponent(grid, model.variance(grid), window)


def exact_bias_fit(model, window):
    grid = np.geomspace(*window, 40)
    return fit_bias(grid, model.mean(grid) - model.mean(0.0), window)


def crossings_for(model, rule, budgets, **window_kw):
    out = []
    for budget in budgets:
        grid = auto_window(model, rule, budget, **window_kw)
        out.append(find_crossing_arrays(grid, exact_delta_curve(model, rule, grid, budget),
                                        budget))
    return out


class TestFitLoglog:
    def test_noiseless_power_law_recovered_exactly(self):
        points = [(b, 2.0 * b**-0.5) for b in (1e2, 1e3, 1e4)]
        fit = fit_loglog(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.c_fit == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_pipeline_identity_on_monomial_data(self):
        # slopes -1/(2p-q) and constants C_pq to 1e-6 on pure power laws
        for p, q in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            model = MonomialBalanceModel(p=p, q=q, d_p=2.0, k_q=3.0)
            budgets = np.geomspace(1e3, 1e6, 10)
            regime = theoretical_boundary(model, None)
            points = [(b, regime.predicted_eps_star(b)) for b in budgets]
            fit = fit_loglog(points)
            assert fit.slope == pytest.approx(-1.0 / (2 * p - q), abs=1e-6)
            c_pq = (3.0 / 2.0) ** (1.0 / (2 * p - q))
            assert fit.c_fit == pytest.approx(c_pq, rel=1e-6)

    def test_requires_three_points_and_lists_censored(self):
        with pytest.raises(FitError, match="censored: \\[100.0, 200.0\\]"):
            fit_loglog([(1e3, 0.01), (1e4, 0.003)], censored_budgets=[100.0, 200.0])

    @pytest.mark.parametrize("points, match", [
        ([(1e3, 0.1), (1e4, np.nan), (1e5, 0.01)], r"non-finite crossing nan at B=10000\.0"),
        ([(1e3, 0.1), (1e4, 0.03), (1e5, np.inf)], r"non-finite crossing inf at B=100000\.0"),
        ([(1e3, 0.1), (np.inf, 0.03), (1e5, 0.01)], r"non-finite budget inf at eps\*=0\.03"),
    ], ids=["nan-crossing", "inf-crossing", "inf-budget"])
    def test_non_finite_point_refused(self, points, match):
        # unchecked, each fits to a slope, intercept and r_squared all NaN
        with pytest.raises(FitError, match=match):
            fit_loglog(points)

    def test_fit_boundary_separates_censored(self):
        crossings = [
            CrossingEstimate(budget=1e2, eps_star=None, status="no_negative_region"),
            CrossingEstimate(budget=1e3, eps_star=0.063, status="crossed"),
            CrossingEstimate(budget=1e4, eps_star=0.020, status="crossed"),
            CrossingEstimate(budget=1e5, eps_star=0.0063, status="crossed"),
        ]
        fit = fit_boundary(crossings)
        assert fit.n_points == 3
        assert fit.censored_budgets == (1e2,)
        assert fit.slope == pytest.approx(-0.5, abs=0.01)


class TestVarianceExponentFit:
    def test_exact_power_law(self):
        eps = np.geomspace(1e-4, 1e-2, 20)
        fit = fit_variance_exponent(eps, eps.copy(), (1e-4, 1e-2))
        assert fit.q_hat == pytest.approx(1.0, abs=1e-12)
        assert fit.nu_hat == pytest.approx(1.0, rel=1e-12)

    def test_contraction_string_window(self):
        model = ProductContractionString(gamma=0.1, ell=5)
        fit = exact_variance_fit(model, (1e-4, 1e-3))
        assert 0.98 <= fit.q_hat <= 1.0
        assert fit.r_squared > 0.999

    def test_linear_bias_window(self):
        model = LinearBiasBinary(mu0=0.5, alpha=1.0)
        fit = exact_variance_fit(model, (1e-4, 1e-3))
        assert abs(fit.q_hat) <= 0.01

    def test_window_is_recorded(self):
        model = DeterministicLimitBinary(kappa=1.0)
        fit = exact_variance_fit(model, (1e-5, 1e-4))
        assert fit.window == (1e-5, 1e-4)

    def test_nonpositive_variance_rejected(self):
        eps = np.array([1e-3, 2e-3, 4e-3])
        with pytest.raises(FitError, match="nonpositive variance"):
            fit_variance_exponent(eps, np.array([1e-3, 0.0, 1e-3]), (1e-3, 4e-3))

    def test_non_finite_variance_in_window_refused(self):
        eps = np.array([1e-3, 2e-3, 4e-3, 0.5])
        v = np.array([1e-3, np.nan, 4e-3, np.nan])  # the NaN at 0.5 is outside the window
        with pytest.raises(FitError, match=r"non-finite variance nan at eps=0\.002"):
            fit_variance_exponent(eps, v, (1e-3, 4e-3))
        assert fit_variance_exponent(eps[[0, 2, 3]], v[[0, 2, 3]], (1e-3, 4e-3)).q_hat == (
            pytest.approx(1.0))

    def test_empty_window_rejected(self):
        eps = np.geomspace(1e-4, 1e-3, 10)
        with pytest.raises(FitError, match="fewer than 2"):
            fit_variance_exponent(eps, eps, (0.1, 0.2))

    def test_one_distinct_strength_rejected(self):
        # a grid shared by several budgets repeats each strength once per budget
        with pytest.raises(FitError, match="fewer than 2 distinct"):
            fit_variance_exponent([0.01] * 3, [0.020, 0.021, 0.019], (0.005, 0.02))


class TestPredictSlope:
    def test_reference_values(self):
        assert predict_slope(0.0) == pytest.approx(-0.5)
        assert predict_slope(1.0) == pytest.approx(-1.0)
        assert predict_slope(0.990831) == pytest.approx(-0.990914, abs=1e-6)

    def test_critical_and_above_rejected(self):
        with pytest.raises(FitError, match="undefined"):
            predict_slope(2.0)
        with pytest.raises(FitError):
            predict_slope(2.5)


class TestBiasFit:
    def test_recovers_linear_coefficient(self):
        model = LinearBiasBinary(mu0=0.5, alpha=1.0)
        fit = exact_bias_fit(model, (1e-4, 1e-2))
        assert fit.alpha_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.beta_hat == pytest.approx(0.0, abs=1e-6)

    def test_recovers_curvature(self):
        model = ProductContractionString(gamma=0.1, ell=5)
        # mu(eps) - 1 = -0.5 eps + C(5,2) 0.01 eps^2 - ...
        fit = exact_bias_fit(model, (1e-4, 1e-3))
        assert fit.alpha_hat == pytest.approx(-0.5, rel=1e-4)
        assert fit.beta_hat == pytest.approx(0.1, rel=0.05)

    def test_no_intercept_design(self):
        # a pure quadratic must load on beta only, with alpha -> 0
        eps = np.geomspace(1e-3, 1e-2, 30)
        fit = fit_bias(eps, 3.0 * eps**2, (1e-3, 1e-2))
        assert fit.alpha_hat == pytest.approx(0.0, abs=1e-10)
        assert fit.beta_hat == pytest.approx(3.0, rel=1e-10)

    def test_one_distinct_strength_rejected(self):
        with pytest.raises(FitError, match="fewer than 2 distinct"):
            fit_bias([0.01] * 3, [-0.010, -0.011, -0.009], (0.005, 0.02))

    def test_non_finite_mean_shift_in_window_refused(self):
        eps = np.array([0.01, 0.02, 0.03, 0.04])
        with pytest.raises(FitError, match=r"non-finite mean shift -inf at eps=0\.03"):
            fit_bias(eps, [-0.01, -0.02, -np.inf, -0.04], (0.005, 0.05))


class TestPluginConstant:
    def test_closed_form(self):
        # (1,3) uniform at q = 1, nu = 1: K = 7/2 + 3/2 = 5, so C = (5 / 1)^(1/1)
        k_hat, c_hat = plugin_constant(RULE13, 1.0, 1.0, -1.0)
        assert k_hat == pytest.approx(5.0)
        assert c_hat == pytest.approx(5.0)

    @pytest.mark.parametrize("rule, q_hat, alpha_hat, match", [
        (RULE13, 2.0, -1.0, "q_hat = 2.0 >= 2: plug-in constant undefined"),
        (RULE13, 2.5, -1.0, "q_hat = 2.5 >= 2"),
        (RULE13, 1.0, 0.0, "alpha_hat = 0"),
        (RULE13, float("nan"), -1.0, "undefined for q_hat = nan"),
        # a one-level "rule" pays no penalty
        (RichardsonRule(scales=(1.0,), coeffs=(1.0,), alloc=(1.0,)), 1.0, -1.0,
         "K_hat = 0.0 <= 0"),
    ], ids=["q_hat=2", "q_hat>2", "alpha_hat=0", "nan", "K_hat=0"])
    def test_undefined_cases_raise(self, rule, q_hat, alpha_hat, match):
        with pytest.raises(FitError, match=re.escape(match)):
            plugin_constant(rule, q_hat, 1.0, alpha_hat)

    def test_constant_check_keeps_its_q_hat_message(self):
        model = DeterministicLimitBinary(kappa=1.0)
        boundary_fit = fit_boundary(crossings_for(model, RULE13, np.geomspace(1e4, 1e6, 6)))
        var_fit = VarianceExponentFit(q_hat=2.0, log_nu_hat=0.0, window=(1e-4, 1e-3),
                                      r_squared=1.0)
        bias_fit = exact_bias_fit(model, (1e-4, 1e-3))
        with pytest.raises(FitError, match="^q_hat = 2.0 >= 2: plug-in constant undefined$"):
            constant_check(boundary_fit, var_fit, bias_fit, RULE13, 10.0)


class TestConstantCheck:
    def fit_stack(self, model, rule, budgets, windows=(1e-4, 1e-3)):
        crossings = crossings_for(model, rule, budgets)
        boundary_fit = fit_boundary(crossings)
        var_fit = exact_variance_fit(model, windows)
        bias_fit = exact_bias_fit(model, windows)
        c_theory = theoretical_boundary(model, rule).c_pq
        return boundary_fit, var_fit, bias_fit, c_theory

    def test_deterministic_limit_constant(self):
        model = DeterministicLimitBinary(kappa=1.0)
        boundary_fit, var_fit, bias_fit, c_theory = self.fit_stack(
            model, RULE13, np.geomspace(1e4, 1e7, 10)
        )
        assert c_theory == pytest.approx(10.0)
        check = constant_check(boundary_fit, var_fit, bias_fit, RULE13, c_theory)
        assert check.rel_error <= 0.10
        assert check.c_hat_plugin == pytest.approx(c_theory, rel=0.05)

    def test_linear_bias_constant(self):
        model = LinearBiasBinary(mu0=0.5, alpha=1.0)
        boundary_fit, var_fit, bias_fit, c_theory = self.fit_stack(
            model, RULE13, np.geomspace(1e4, 1e7, 10)
        )
        assert c_theory == pytest.approx(np.sqrt(3.0))
        check = constant_check(boundary_fit, var_fit, bias_fit, RULE13, c_theory)
        assert check.rel_error <= 0.10
        assert check.c_hat_plugin == pytest.approx(c_theory, rel=0.05)

    def test_rel_error_zero_when_equal(self):
        model = DeterministicLimitBinary(kappa=1.0)
        boundary_fit, var_fit, bias_fit, _ = self.fit_stack(
            model, RULE13, np.geomspace(1e4, 1e6, 6)
        )
        check = constant_check(boundary_fit, var_fit, bias_fit, RULE13,
                               c_theory=boundary_fit.c_fit)
        assert check.rel_error == 0.0

    def test_vanishing_alpha_rejected(self):
        eps = np.geomspace(1e-3, 1e-2, 30)
        rng = np.random.default_rng(0)
        noisy = rng.normal(scale=1e-6, size=eps.size)
        bias_fit = fit_bias(eps, noisy, (1e-3, 1e-2))
        model = DeterministicLimitBinary(kappa=1.0)
        boundary_fit, var_fit, _, c_theory = self.fit_stack(
            model, RULE13, np.geomspace(1e4, 1e6, 6)
        )
        with pytest.raises(FitError, match="no leading bias"):
            constant_check(boundary_fit, var_fit, bias_fit, RULE13, c_theory)


class TestConsistencyChain:
    def test_q_hat_to_slope_matches_observed(self):
        # |s_obs - (-1/(2 - q_hat))| <= 0.03 for the two analytic classes
        cases = [
            (ProductContractionString(gamma=0.1, ell=5), (0.98, 1.0)),
            (LinearBiasBinary(mu0=0.5, alpha=1.0), (-0.01, 0.01)),
        ]
        for model, q_range in cases:
            crossings = crossings_for(model, RULE13, np.geomspace(1e4, 1e7, 10))
            s_obs = fit_boundary(crossings).slope
            q_hat = exact_variance_fit(model, (1e-4, 1e-3)).q_hat
            assert q_range[0] <= q_hat <= q_range[1]
            assert abs(s_obs - predict_slope(q_hat)) <= 0.03

    def test_allocation_changes_constant_not_slope(self):
        model = DeterministicLimitBinary(kappa=1.0)
        budgets = np.geomspace(1e4, 1e7, 10)
        fixed, optimal = [], []
        for budget in budgets:
            grid = auto_window(model, RULE13, budget)
            for rule, out in ((RULE13, fixed), (build_rule([1, 3], "optimal"), optimal)):
                curve = exact_delta_curve(model, rule, grid, budget)
                out.append(find_crossing_arrays(grid, curve, budget))
        fit_fixed = fit_boundary(fixed)
        fit_opt = fit_boundary(optimal)
        assert abs(fit_fixed.slope - fit_opt.slope) <= 0.02
        assert fit_opt.c_fit < fit_fixed.c_fit  # K_opt < K_fixed
