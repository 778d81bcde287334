"""Crossing finder, regime classification, brackets, and optimality checks."""

import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zneboundary.boundary import (
    STATUS_CROSSED,
    STATUS_NO_CROSSING,
    STATUS_NO_NEGATIVE,
    auto_window,
    auto_windows,
    budget_bracket,
    classify_regime,
    CrossingEstimate,
    crossing_estimates,
    find_crossing_arrays,
    first_crossings,
    local_optimality_check,
    theoretical_boundary,
)
from zneboundary.config import parse_config
from zneboundary.errors import RegimeError
from zneboundary.models import (
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    PowerLeakageBinary,
    ProductContractionString,
    scaled_domain_max,
)
from zneboundary.mse import exact_delta, exact_delta_curve
from zneboundary.pipeline import read_crossings_csv, write_crossings_csv
from zneboundary.rules import build_rule

RULE13 = build_rule([1, 3])
DLB = DeterministicLimitBinary(kappa=1.0)
LBB = LinearBiasBinary(mu0=0.5, alpha=1.0)
# subcritical (model, rule) pairs with finite and infinite domains
LADDER_CASES = [
    (DLB, RULE13),
    (LBB, build_rule([1, 3, 5])),
    (LBB, build_rule([1, 3], "optimal")),
    (ProductContractionString(gamma=0.1, ell=5), RULE13),
    (PowerLeakageBinary(sigma=1, kappa=1.0, r=2.0), build_rule([1, 3, 5])),
    (MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0), None),
]


def crossing(model, rule, grid, budget):
    return find_crossing_arrays(grid, exact_delta_curve(model, rule, grid, budget), budget)


class TestFindCrossing:
    def test_linear_interpolation_midpoint(self):
        est = find_crossing_arrays(
            np.array([0.01, 0.02, 0.03]), np.array([-1.0, -0.5, 0.5]), budget=10.0
        )
        assert est.status == STATUS_CROSSED
        assert est.eps_star == pytest.approx(0.025)
        assert (est.bracket_lo, est.bracket_hi) == (0.02, 0.03)

    def test_all_positive_censors(self):
        est = find_crossing_arrays(
            np.array([0.01, 0.02, 0.03]), np.array([0.1, 0.2, 0.3]), budget=1.0
        )
        assert est.status == STATUS_NO_NEGATIVE
        assert est.eps_star is None

    def test_all_negative_censors(self):
        est = find_crossing_arrays(
            np.array([0.01, 0.02, 0.03]), np.array([-0.1, -0.2, -0.3]), budget=1.0
        )
        assert est.status == STATUS_NO_CROSSING

    def test_leading_zero_is_not_a_crossing(self):
        # a zero at the origin of a zero-variance model is trivial; a strictly
        # negative point must come first
        est = find_crossing_arrays(
            np.array([0.01, 0.02, 0.03]), np.array([0.0, 0.1, 0.2]), budget=1.0
        )
        assert est.status == STATUS_NO_NEGATIVE

    def test_zero_on_grid_is_the_crossing(self):
        est = find_crossing_arrays(
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([-1.0, 0.0, 1.0, 2.0]), budget=1.0
        )
        assert est.status == STATUS_CROSSED
        assert est.eps_star == 2.0

    def test_first_sign_change_wins(self):
        est = find_crossing_arrays(
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            np.array([-1.0, 1.0, -1.0, 1.0, 1.0]),
            budget=1.0,
        )
        assert est.eps_star == pytest.approx(1.5)

    def test_monomial_root_on_dense_grid(self):
        model = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        grid = np.geomspace(1e-3, 1e-1, 400)
        est = crossing(model, None, grid, 10**4)
        spacing = grid[1] / grid[0] - 1.0
        assert est.eps_star == pytest.approx(0.01, rel=spacing)

    def test_requires_sorted_grid_and_three_points(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            find_crossing_arrays(np.array([1.0, 1.0, 2.0]), np.zeros(3), budget=1.0)
        with pytest.raises(ValueError, match="at least 3"):
            find_crossing_arrays(np.array([1.0, 2.0]), np.zeros(2), budget=1.0)

    @pytest.mark.parametrize("eps, delta, match", [
        ([0.1, np.nan, 0.3], [-1.0, 0.5, 1.0], "eps grid must be finite, got nan"),
        ([0.1, 0.2, np.inf], [-1.0, 0.5, 1.0], "eps grid must be finite, got inf"),
        ([0.1, 0.2, 0.3], [-1.0, np.nan, 1.0], "delta must be finite, got nan"),
        ([0.1, 0.2, 0.3], [-np.inf, 0.5, 1.0], "delta must be finite, got -inf"),
    ], ids=["nan-eps", "inf-eps", "nan-delta", "inf-delta"])
    def test_non_finite_grid_or_delta_refused(self, eps, delta, match):
        # a NaN compares false, so it passed the increasing check and "crossed" at NaN
        with pytest.raises(ValueError, match=match):
            find_crossing_arrays(eps, delta, 1e3)

    def test_crossing_never_overshoots_its_bracket(self):
        # the fraction rounds to 1 and the bracket spans more than a factor of 2,
        # so the unclamped interpolation lands one ulp above 14.0
        est = find_crossing_arrays([0.67, 14.0, 28.0], [-5.0, 1e-16, 1.0], 1000.0)
        assert est.bracket_hi == 14.0
        assert est.eps_star == 14.0

    def test_invariant_bracket_contains_root(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            grid = np.sort(rng.uniform(0.01, 1.0, size=12))
            grid = np.unique(grid)
            if grid.size < 3:
                continue
            delta = rng.normal(size=grid.size)
            est = find_crossing_arrays(grid, delta, budget=1.0)
            if est.status == STATUS_CROSSED:
                assert est.bracket_lo < est.eps_star <= est.bracket_hi
                i = list(grid).index(est.bracket_lo)
                assert delta[i] < 0 <= delta[i + 1]


def reference_crossing(eps, delta, budget):
    """The point-by-point scan ``find_crossing_arrays`` used before the batched form."""
    negative = np.nonzero(delta < 0)[0]
    if negative.size == 0:
        return CrossingEstimate(budget=budget, eps_star=None, status=STATUS_NO_NEGATIVE)
    for i in range(int(negative[0]), eps.size - 1):
        lo, hi = delta[i], delta[i + 1]
        if lo < 0 <= hi:
            if hi == 0.0:
                eps_star = float(eps[i + 1])
            else:
                eps_star = min(float(eps[i] + (eps[i + 1] - eps[i]) * (-lo) / (hi - lo)),
                               float(eps[i + 1]))
            return CrossingEstimate(
                budget=budget, eps_star=eps_star, status=STATUS_CROSSED,
                bracket_lo=float(eps[i]), bracket_hi=float(eps[i + 1]),
            )
    return CrossingEstimate(budget=budget, eps_star=None, status=STATUS_NO_CROSSING)


@st.composite
def delta_tables(draw):
    """(eps, delta): one strictly increasing grid per row, values with exact zeros."""
    n_rows, n_eps = draw(st.integers(1, 4)), draw(st.integers(3, 9))
    steps = st.lists(st.floats(1e-6, 1.0), min_size=n_eps, max_size=n_eps)
    eps = np.cumsum([draw(steps) for _ in range(n_rows)], axis=1)
    value = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-10.0, 10.0, allow_nan=False)
    delta = np.array([draw(st.lists(value, min_size=n_eps, max_size=n_eps))
                      for _ in range(n_rows)])
    return eps, delta


GRID5 = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
OVERSHOOT = (np.array([[0.67, 14.0, 28.0]]), np.array([[-5.0, 1e-16, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(delta_tables())
@example((GRID5, np.array([[-1.0, -0.5, 0.0, 2.0, 3.0]])))   # exact zero at upper bracket
@example((GRID5, np.array([[-1.0, -2.0, -0.5, -0.1, -3.0]])))  # all negative
@example((GRID5, np.array([[0.0, 1.0, 0.0, 2.0, 0.5]])))    # no negatives
@example((GRID5, np.array([[0.0, 0.0, -1.0, -1.0, 1.0]])))  # zeros before the first negative
@example((np.vstack([GRID5[0], GRID5[0] * 2]),
          np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [-1.0, -1.0, -1.0, -1.0, -1.0]])))
@example(OVERSHOOT)
def test_batched_crossings_match_one_row_form(table):
    eps, delta = table
    lower, eps_star = first_crossings(eps, delta)
    budgets = [float(b + 1) for b in range(len(delta))]
    assert crossing_estimates(eps, delta, budgets) == [
        reference_crossing(eps[b], delta[b], budgets[b]) for b in range(len(delta))]
    for b in range(len(delta)):
        est = find_crossing_arrays(eps[b], delta[b], budget=float(b + 1))
        assert est == reference_crossing(eps[b], delta[b], float(b + 1))
        if est.crossed:
            assert np.float64(est.eps_star).view(np.uint64) == eps_star[b].view(np.uint64)
            assert (est.bracket_lo, est.bracket_hi) == (eps[b, lower[b]], eps[b, lower[b] + 1])
        else:
            assert lower[b] == -1 and np.isnan(eps_star[b])


@settings(max_examples=100, deadline=None)
@given(delta_tables())
@example(OVERSHOOT)
def test_crossing_estimates_read_back_equal(table):
    # the table's first grid is every budget's, as in an explicit grid section
    eps, delta = table
    budgets = [10.0 ** b for b in range(len(delta))]
    cfg = parse_config({"model": {"type": "monomial_balance", "p": 1, "q": 0, "d_p": 1.0,
                                  "k_q": 1.0},
                        "grid": {"mode": "explicit", "eps": eps[0].tolist()},
                        "budgets": {"values": budgets}})
    crossings = crossing_estimates(cfg.grids, delta, budgets)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cross.csv")
        write_crossings_csv(path, crossings, cfg)
        assert read_crossings_csv(path, cfg) == crossings


class TestClassifyRegime:
    def test_subcritical_example(self):
        rep = classify_regime(p=1, q=0, d_p=1.0, k_q=4.0)
        assert rep.regime == "subcritical"
        assert rep.c_pq == pytest.approx(2.0)
        assert rep.exponent == pytest.approx(-0.5)
        assert rep.b_star is None

    def test_critical_threshold(self):
        rep = classify_regime(p=1, q=2, d_p=1.0, k_q=20000.0)
        assert rep.regime == "critical"
        assert rep.b_star == pytest.approx(20000.0)
        assert rep.c_pq is None and rep.exponent is None

    def test_supercritical(self):
        rep = classify_regime(p=1, q=3, d_p=1.0, k_q=1.0)
        assert rep.regime == "supercritical"
        assert rep.c_pq is None and rep.b_star is None and rep.eta is None

    def test_rate_exponent(self):
        rep = classify_regime(p=1, q=0, d_p=1.0, k_q=1.0, delta_b=1.0, delta_v=2.0)
        assert rep.eta == pytest.approx(0.5)

    def test_no_bias_improvement_rejected(self):
        with pytest.raises(RegimeError, match="no leading bias improvement"):
            classify_regime(p=1, q=0, d_p=0.0, k_q=1.0)
        with pytest.raises(RegimeError, match="no leading bias improvement"):
            classify_regime(p=1, q=0, d_p=-0.5, k_q=1.0)

    @pytest.mark.parametrize("arg", ["p", "q", "d_p", "k_q"])
    def test_nan_constant_rejected(self, arg):
        constants = {"p": 1.0, "q": 1.0, "d_p": 1.0, "k_q": 1.0, arg: float("nan")}
        with pytest.raises(RegimeError, match="nan"):
            classify_regime(**constants)


class TestTheoreticalBoundary:
    def test_contraction_string_constant(self):
        # kappa = 0.5: C = (2/kappa) [sum c^2 lam / pi - 1] = 4 * 5 = 20
        model = ProductContractionString(gamma=0.1, ell=5)
        rep = theoretical_boundary(model, RULE13)
        assert rep.regime == "subcritical"
        assert rep.c_pq == pytest.approx(20.0, rel=1e-12)
        assert rep.exponent == pytest.approx(-1.0)

    def test_deterministic_limit_matches_exact_crossings(self):
        rep = theoretical_boundary(DLB, RULE13)
        assert rep.c_pq == pytest.approx(10.0, rel=1e-12)
        # the exact finite-budget crossing 10/(B+8) approaches C * B^-1
        for budget in (10**5, 10**6, 10**7):
            grid = auto_window(DLB, RULE13, budget)
            est = crossing(DLB, RULE13, grid, budget)
            exact_root = 10.0 / (budget + 8.0)
            assert est.eps_star == pytest.approx(exact_root, rel=2e-3)
            assert est.eps_star / rep.predicted_eps_star(budget) == pytest.approx(
                1.0, rel=1e-2
            )

    def test_linear_bias_constant(self):
        rep = theoretical_boundary(LBB, RULE13)
        assert rep.c_pq == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert rep.exponent == pytest.approx(-0.5)

    def test_higher_order_bias_uncancelled_rejected(self):
        # quadratic leakage under a first-order rule: rho_2 = -3, no boundary
        model = PowerLeakageBinary(sigma=1, kappa=1.0, r=2.0)
        with pytest.raises(RegimeError, match="no shrinking lower boundary"):
            theoretical_boundary(model, RULE13)

    def test_higher_order_bias_cancelled_by_higher_rule(self):
        model = PowerLeakageBinary(sigma=1, kappa=1.0, r=2.0)
        rule = build_rule([1, 3, 5])
        rep = theoretical_boundary(model, rule)
        assert rep.regime == "subcritical"  # p = 2, q = 2 < 2p
        assert rep.exponent == pytest.approx(-0.5)
        assert rep.d_p == pytest.approx(1.0, rel=1e-12)

    def test_higher_order_bias_partially_cancelled(self):
        # rho in (0, 1): boundary exists with reduced bias improvement
        model = PowerLeakageBinary(sigma=1, kappa=1.0, r=1.5)
        rule = build_rule([1, 2])
        rho = 2.0 - 2.0**1.5
        rep = theoretical_boundary(model, rule)
        assert rep.d_p == pytest.approx(1.0 - rho**2, rel=1e-12)

    def test_optimal_allocation_lowers_constant(self):
        fixed = theoretical_boundary(DLB, RULE13)
        optimal = theoretical_boundary(DLB, build_rule([1, 3], "optimal"))
        assert optimal.k_q < fixed.k_q
        assert optimal.c_pq < fixed.c_pq
        assert optimal.exponent == fixed.exponent

    def test_auto_window_centres_on_the_base_split(self):
        # the window is fixed before any data, from the K_fixed boundary guess
        optimal = build_rule([1, 3, 5], "optimal")
        for budget in (1e3, 1e6):
            assert np.array_equal(auto_window(DLB, optimal, budget),
                                  auto_window(DLB, build_rule([1, 3, 5]), budget))

    def test_monomial_passthrough(self):
        m = MonomialBalanceModel(p=2, q=1, d_p=4.0, k_q=8.0)
        rep = theoretical_boundary(m, None)
        assert rep.regime == "subcritical"
        assert rep.c_pq == pytest.approx(2.0 ** (1 / 3))
        assert rep.exponent == pytest.approx(-1.0 / 3.0)


class TestSignStructure:
    def test_harm_below_help_above(self):
        # exact delta at x * B^r is negative for x = 0.5 C, positive at 2 C
        cases = [
            (MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0), None),
            (MonomialBalanceModel(p=2, q=1, d_p=1.0, k_q=2.0), None),
            (DLB, RULE13),
            (LBB, RULE13),
        ]
        for model, rule in cases:
            rep = theoretical_boundary(model, rule)
            for budget in (10**5, 10**7):
                lo = 0.5 * rep.predicted_eps_star(budget)
                hi = 2.0 * rep.predicted_eps_star(budget)
                assert exact_delta(model, rule, lo, budget).delta < 0
                assert exact_delta(model, rule, hi, budget).delta > 0

    def test_critical_statuses_split_at_threshold(self):
        m = MonomialBalanceModel(p=1, q=2, d_p=1.0, k_q=20000.0)
        grid = np.geomspace(1e-6, 1e-3, 50)
        above = crossing(m, None, grid, 30000.0)
        below = crossing(m, None, grid, 10000.0)
        assert above.status == STATUS_NO_NEGATIVE
        assert below.status == STATUS_NO_CROSSING

    def test_supercritical_censors(self):
        m = MonomialBalanceModel(p=1, q=3, d_p=1.0, k_q=1.0)
        grid = np.geomspace(1e-6, 1e-2, 50)
        for budget in (10**3, 10**6, 10**9):
            est = crossing(m, None, grid, budget)
            assert est.status == STATUS_NO_NEGATIVE


class TestBudgetBracket:
    def regime(self, **kw):
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0, **kw)
        return m, theoretical_boundary(m, None)

    def test_monomial_bracket_certified(self):
        m, rep = self.regime(l_b=1.0, l_v=1.0, delta_b=1.0, delta_v=1.0)
        bracket = budget_bracket(rep, rho=0.5, l_b=1.0, l_v=1.0, delta_b=1.0,
                                 delta_v=1.0, eps0=1.0)
        assert bracket.m_rho == pytest.approx(0.75)
        assert bracket.b0 == pytest.approx(324.0)
        for budget in np.geomspace(bracket.b0, 1e9, 12):
            lo = exact_delta(m, None, bracket.eps_lo(budget), budget).delta
            hi = exact_delta(m, None, bracket.eps_hi(budget), budget).delta
            assert lo < 0 < hi

    def test_zero_remainders_leave_domain_constraint(self):
        _, rep = self.regime()
        bracket = budget_bracket(rep, rho=0.5, l_b=0.0, l_v=0.0, delta_b=1.0,
                                 delta_v=1.0, eps0=0.25)
        assert bracket.b0 == pytest.approx((bracket.x_plus / 0.25) ** 2)

    def test_widening_rho_grows_bracket_and_relaxes_b0(self):
        # the bracket widens monotonically with rho; the admissible-budget
        # threshold b0 falls while the sign margin dominates (small rho) but
        # rises again as rho -> 1 through the x_plus powers, so monotone
        # decrease only holds on the remainder-dominated branch
        m, rep = self.regime(l_b=1.0, l_v=1.0)
        b0s, widths = [], []
        for rho in [0.1, 0.2, 0.3, 0.4]:
            br = budget_bracket(rep, rho=rho, l_b=1.0, l_v=1.0, delta_b=1.0,
                                delta_v=1.0, eps0=1.0)
            b0s.append(br.b0)
            widths.append(br.x_plus - br.x_minus)
        assert all(b > a for a, b in zip(widths, widths[1:]))
        assert all(a > b for a, b in zip(b0s, b0s[1:]))
        # every rho still certifies its own bracket
        for rho in [0.1, 0.5, 0.8]:
            br = budget_bracket(rep, rho=rho, l_b=1.0, l_v=1.0, delta_b=1.0,
                                delta_v=1.0, eps0=1.0)
            for budget in np.geomspace(br.b0, 1e8, 6):
                assert exact_delta(m, None, br.eps_lo(budget), budget).delta < 0
                assert exact_delta(m, None, br.eps_hi(budget), budget).delta > 0

    def test_degenerate_margin_rejected(self):
        _, rep = self.regime()
        with pytest.raises(RegimeError, match="margin"):
            budget_bracket(rep, rho=1e-18, l_b=0.0, l_v=0.0, delta_b=1.0,
                           delta_v=1.0, eps0=1.0)

    def test_requires_subcritical(self):
        rep = classify_regime(p=1, q=2, d_p=1.0, k_q=1.0)
        with pytest.raises(RegimeError, match="subcritical"):
            budget_bracket(rep, rho=0.5, l_b=0.0, l_v=0.0, delta_b=1.0,
                           delta_v=1.0, eps0=1.0)


class TestLocalOptimality:
    def test_monomial_schedule_always_harms(self):
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        rep = theoretical_boundary(m, None)
        res = local_optimality_check(m, None, rep, s_prime=0.6,
                                     budgets=np.geomspace(10, 1e9, 9))
        assert res.passed
        assert res.onset_budget == res.budgets[0]
        assert all(d < 0 for d in res.deltas)

    def test_deterministic_limit_schedule(self):
        rep = theoretical_boundary(DLB, RULE13)
        res = local_optimality_check(DLB, RULE13, rep, s_prime=1.1,
                                     budgets=np.geomspace(1e3, 1e7, 9))
        assert res.passed
        assert all(d < 0 for d in res.deltas)

    def test_deltas_are_the_per_point_exact_deltas(self):
        # the schedule is evaluated as one table, bit for bit the per-point deltas
        cases = [(DLB, RULE13), (LBB, build_rule([1, 3], "optimal")),
                 (MonomialBalanceModel(p=2, q=1, d_p=1.0, k_q=2.0, l_b=1.0), None)]
        for model, rule in cases:
            rep = theoretical_boundary(model, rule)
            s_prime = -rep.exponent + 0.1
            res = local_optimality_check(model, rule, rep, s_prime,
                                         np.geomspace(1e3, 1e9, 13))
            expected = [exact_delta(model, rule, b ** -s_prime, b).delta for b in res.budgets]
            assert np.array_equal(np.array(res.deltas).view(np.uint64),
                                  np.array(expected).view(np.uint64))

    def test_onset_follows_the_last_non_negative_delta(self):
        # remainders make the s' = 0.6 schedule help at small budgets only
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0, l_b=50.0)
        rep = theoretical_boundary(m, None)
        res = local_optimality_check(m, None, rep, 0.6, np.geomspace(10, 1e9, 9))
        last = max(i for i, d in enumerate(res.deltas) if d >= 0)
        assert res.passed and res.onset_budget == res.budgets[last + 1]

    def test_empty_schedule_rejected(self):
        rep = theoretical_boundary(DLB, RULE13)
        with pytest.raises(RegimeError, match="at least one budget"):
            local_optimality_check(DLB, RULE13, rep, s_prime=1.1, budgets=[])

    def test_schedule_at_boundary_rate_rejected(self):
        rep = theoretical_boundary(DLB, RULE13)
        with pytest.raises(RegimeError, match="must exceed"):
            local_optimality_check(DLB, RULE13, rep, s_prime=1.0, budgets=[1e3])


class TestAutoWindow:
    def test_contains_true_crossing(self):
        for budget in (1e3, 1e5, 1e7):
            grid = auto_window(DLB, RULE13, budget)
            root = 10.0 / (budget + 8.0)
            assert grid[0] < root < grid[-1]

    def test_respects_model_domain(self):
        grid = auto_window(DLB, RULE13, 10.0)  # guess 10/10 = 1, above domain/3
        assert grid[-1] * 3.0 <= DLB.eps_max

    def test_equal_relative_resolution(self):
        g1 = auto_window(DLB, RULE13, 1e4)
        g2 = auto_window(DLB, RULE13, 1e6)
        assert g1.size == g2.size
        assert g1[1] / g1[0] == pytest.approx(g2[1] / g2[0], rel=1e-9)

    def test_collapsed_window_named(self):
        # guesses 10/B: the B=1 and B=1.2 windows start above the domain's 2/3
        with pytest.raises(RegimeError, match=re.escape(
                "auto window [1.000e+00, 6.667e-01] at B=1 collapsed under the domain bound")):
            auto_windows(DLB, RULE13, [1.0, 1.2, 100.0])

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(LADDER_CASES), low=st.floats(0.0, 8.0),
           decades=st.floats(0.0, 4.0), count=st.integers(1, 6),
           span_lo=st.floats(0.02, 0.9), span_ratio=st.floats(1.2, 1000.0),
           ppd=st.integers(1, 60))
    @example(case=LADDER_CASES[1], low=3.0, decades=1.0, count=2, span_lo=0.1,
             span_ratio=100.0, ppd=200)  # both windows cut short by the domain
    def test_ladder_is_one_table(self, case, low, decades, count, span_lo, span_ratio, ppd):
        model, rule = case
        budgets = np.geomspace(10.0**low, 10.0**(low + decades), count)
        span = (span_lo, span_lo * span_ratio)
        kw = dict(span=span, points_per_decade=ppd)
        regime = theoretical_boundary(model, None if rule is None else replace(rule, optimal=False))
        scales = rule.scales if rule else (1.0,)
        top = scaled_domain_max(model, scales) * (1 - 1e-9)
        lows = [span[0] * regime.predicted_eps_star(b) for b in budgets]
        if collapsed := [b for b, lo in zip(budgets, lows) if not lo < top]:
            with pytest.raises(RegimeError, match=re.escape(f"at B={collapsed[0]:g} collapsed")):
                auto_windows(model, rule, budgets, **kw)
            return
        table = auto_windows(model, rule, budgets, **kw)
        n = max(3, round(ppd * math.log10(span[1] / span[0])))
        assert table.shape == (count, n)
        assert np.all(np.diff(table, axis=1) > 0)
        assert np.all(table[:, -1] <= top)
        assert all(model.inside_domain(lam * table).all() for lam in scales)
        for budget, row in zip(budgets, table):
            assert np.array_equal(row.view(np.uint64),
                                  auto_window(model, rule, budget, **kw).view(np.uint64))
