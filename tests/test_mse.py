"""Exact and Monte Carlo MSE engines, count tables, and integerization."""

import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zneboundary import mse as mse_module
from zneboundary.config import load_config
from zneboundary.errors import AllocationError, ConfigError, DomainError, ModelError
from zneboundary.models import (
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    PowerLeakageBinary,
    ProductContractionString,
    check_scaled_eps,
    scaled_domain_max,
)
from zneboundary.mse import (
    CountTable,
    cell_stream,
    deltas_from_counts,
    exact_delta,
    exact_delta_curve,
    integerize_allocation,
    mc_delta,
    sample_count_table,
)
from zneboundary.rules import build_rule, optimal_allocation
from zneboundary.validate import _mc_dataset

DLB = DeterministicLimitBinary(kappa=1.0)


def drawn_with(table):
    """The :func:`sample_count_table` arguments that give ``table``'s layout."""
    return (table.model, table.rule, table.budgets, table.eps_grids, table.n_replicates,
            table.master_seed)

LBB = LinearBiasBinary(mu0=0.5, alpha=1.0)
RULE13 = build_rule([1, 3])
POLICIES = {"fixed": "uniform", "optimal": "optimal"}  # policy -> build_rule alloc spec


def mse_terms(model, rule, eps, budget):
    """``(bias, variance)`` at one point: the extrapolated estimator's with a rule."""
    noisy, zne = mse_module._mse_terms(model, rule, [eps], budget)
    return tuple(float(term[0]) for term in (noisy if zne is None else zne))


class TestExactMse:
    def test_breakdown_identity(self):
        # delta is the noisy MSE minus the extrapolated one, bias^2 + variance each
        for eps in (0.001, 0.01, 0.1):
            nb, nv = mse_terms(DLB, None, eps, 500.0)
            zb, zv = mse_terms(DLB, RULE13, eps, 500.0)
            delta = exact_delta(DLB, RULE13, eps, 500.0).delta
            assert delta == pytest.approx((nb**2 + nv) - (zb**2 + zv), abs=1e-12)

    def test_noisy_breakdown(self):
        bias, variance = mse_terms(DLB, None, 0.01, 1000.0)
        assert bias == pytest.approx(-0.01)
        assert variance == pytest.approx(0.0199 / 1000.0)

    def test_linear_mean_is_annihilated(self):
        # first-order rule cancels an exactly linear mean at every strength
        for eps in np.linspace(1e-4, 0.3, 20):
            bias, _ = mse_terms(DLB, RULE13, float(eps), 100.0)
            assert abs(bias) <= 1e-12

    def test_polynomial_mean_cancelled_up_to_order(self):
        # degree-2 mean under a second-order rule: bias 0 to machine precision
        model = ProductContractionString(gamma=0.05, ell=2)
        rule = build_rule([1, 3, 5])
        for eps in (0.01, 0.1, 0.5):
            assert abs(mse_terms(model, rule, eps, 10.0)[0]) <= 1e-12

    def test_uncancelled_degree_above_order(self):
        model = ProductContractionString(gamma=0.05, ell=3)
        assert abs(mse_terms(model, RULE13, 0.5, 10.0)[0]) > 1e-9

    def test_zne_variance_formula(self):
        # (1/B) sum c_j^2 v(lam_j eps) / pi_j
        eps, budget = 0.02, 2000.0
        _, variance = mse_terms(DLB, RULE13, eps, budget)
        expected = (2.25 * DLB.variance(eps) / 0.5 + 0.25 * DLB.variance(3 * eps) / 0.5)
        assert variance == pytest.approx(expected / budget, rel=1e-14)

    def test_excess_variance_matches_penalty_constant(self):
        # A(eps)/eps -> K_{1,k} with O(eps) error for the q = 1 models
        from zneboundary.rules import variance_penalty

        for model in (DLB, ProductContractionString(gamma=0.1, ell=5)):
            k1 = variance_penalty(RULE13, 1.0, model.declared()["nu"]).k_fixed
            errs = []
            for eps in (1e-3, 1e-4, 1e-5):
                budget = 100.0
                a = (
                    mse_terms(model, RULE13, eps, budget)[1]
                    - mse_terms(model, None, eps, budget)[1]
                ) * budget
                errs.append(abs(a / eps - k1))
            assert errs[0] < 1.0
            # error shrinks linearly with eps
            assert errs[2] < errs[0] * 1e-1


class TestExactDelta:
    def test_deterministic_limit_sign_change(self):
        # delta = eps^2 - (10 eps - 8 eps^2)/B: positive at 0.01, negative at
        # 0.005 for B = 1000, bracketing eps* = 10/1008
        hi = exact_delta(DLB, RULE13, 0.01, 1000.0)
        lo = exact_delta(DLB, RULE13, 0.005, 1000.0)
        assert hi.delta == pytest.approx(8.0e-7, rel=1e-12)
        assert lo.delta == pytest.approx(-2.48e-5, rel=1e-12)
        assert lo.delta < 0 < hi.delta
        root = 10.0 / 1008.0
        assert exact_delta(DLB, RULE13, root, 1000.0).delta == pytest.approx(0.0, abs=1e-18)

    def test_linear_bias_quadratic_root(self):
        # closed-form crossing of eps^2 (1 + 8/B) + 5 eps / B - 3/B = 0
        budget = 1e4
        root = 0.01706558582965741
        assert exact_delta(LBB, RULE13, root, budget).delta == pytest.approx(0.0, abs=1e-16)
        assert exact_delta(LBB, RULE13, root * 0.9, budget).delta < 0
        assert exact_delta(LBB, RULE13, root * 1.1, budget).delta > 0

    def test_monomial_balance_bypass(self):
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        assert exact_delta(m, None, 1.0, 1.0).delta == 0.0

    def test_critical_threshold_flip(self):
        m = MonomialBalanceModel(p=1, q=2, d_p=1.0, k_q=20000.0)
        for eps in (1e-4, 1e-3, 1e-2):
            assert exact_delta(m, None, eps, 20001.0).delta > 0
            assert exact_delta(m, None, eps, 19999.0).delta < 0
            assert exact_delta(m, None, eps, 20000.0).delta == 0.0

    def test_rule_none_is_self_comparison(self):
        assert exact_delta(DLB, None, 0.05, 100.0).delta == 0.0

    def test_reproducible_bit_identical(self):
        a = exact_delta(LBB, RULE13, 0.0123, 4567.0).delta
        b = exact_delta(LBB, RULE13, 0.0123, 4567.0).delta
        assert a == b

    def test_curve_matches_pointwise(self):
        grid = np.geomspace(1e-3, 0.05, 10)
        curve = exact_delta_curve(DLB, RULE13, grid, 500.0)
        assert isinstance(curve, np.ndarray) and curve.shape == grid.shape
        for value, eps in zip(curve, grid):
            assert value == exact_delta(DLB, RULE13, float(eps), 500.0).delta

    @pytest.mark.parametrize("eps, budget", [(np.empty(0), 500.0),
                                             (np.empty((0, 3)), np.empty((0, 1)))],
                             ids=["grid", "table"])
    def test_empty_grid_or_table_is_an_empty_curve(self, eps, budget):
        for rule in (RULE13, build_rule([1, 3], "optimal"), None):
            curve = exact_delta_curve(DLB, rule, eps, budget)
            assert curve.shape == eps.shape

    def test_non_positive_budget_named(self):
        with pytest.raises(ValueError, match="budget must be positive, got -5.0"):
            exact_delta_curve(DLB, RULE13, [[0.01, 0.02]] * 3, np.array([[100.0], [-5.0], [0.0]]))

    def test_nan_budget_refused(self):
        with pytest.raises(ValueError, match="budget must be positive, got nan"):
            exact_delta_curve(DLB, RULE13, [0.01], float("nan"))


def reference_optimal_allocation(rule, model, eps):
    """Point-by-point optimal split, as computed before the array kernel."""
    lam = np.asarray(rule.scales)
    c = np.asarray(rule.coeffs)
    v = np.asarray([float(model.variance(l * eps)) for l in lam])
    w = np.abs(c) * np.sqrt(v)
    pi = np.where(w > 0, w / w.sum(), 1e-6)
    return pi / pi.sum()


def reference_mse(model, rule, eps, budget):
    """Point-by-point exact MSE, as computed before the array kernel."""
    mu0 = model.mean(0.0)
    if rule is None:
        bias = model.mean(eps) - mu0
        variance = model.variance(eps) / budget
    else:
        check_scaled_eps(model, eps, rule.scales)
        pi = (reference_optimal_allocation(rule, model, eps) if rule.optimal
              else np.asarray(rule.alloc))
        c = np.asarray(rule.coeffs)
        lam = np.asarray(rule.scales)
        means = np.asarray([model.mean(l * eps) for l in lam])
        variances = np.asarray([model.variance(l * eps) for l in lam])
        bias = float(c @ means) - mu0
        variance = float(np.sum(c**2 * variances / pi)) / budget
    return bias * bias + variance


def reference_delta(model, rule, eps, budget):
    if isinstance(model, MonomialBalanceModel):
        return model.delta_mse(eps, budget)
    return reference_mse(model, None, eps, budget) - reference_mse(model, rule, eps, budget)


KERNEL_MODELS = {
    "lbb": LBB,
    "dlb": DLB,
    "pcs": ProductContractionString(gamma=0.1, ell=5),
    "plb": PowerLeakageBinary(sigma=-1, kappa=0.5, r=1.5),
    "monomial": MonomialBalanceModel(p=1, q=1.0, d_p=1.0, k_q=2.0, l_b=0.5, l_v=0.3),
}


class TestExactKernelMatchesPointwiseReference:
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("scales", [[1, 3], [1, 3, 5], [1, 2, 4, 8]], ids=str)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_curve_bit_identical(self, name, scales, policy):
        model, rule = KERNEL_MODELS[name], build_rule(scales, POLICIES[policy])
        top = min(scaled_domain_max(model, rule.scales), 1.0) * (1 - 1e-9)
        grid = np.geomspace(top * 1e-6, top, 150)
        for budget in (1e3, 3.7e6):
            curve = exact_delta_curve(model, rule, grid, budget)
            ref = np.array([reference_delta(model, rule, float(e), budget) for e in grid])
            assert np.array_equal(curve.view(np.uint64), ref.view(np.uint64))
            for i in (0, 77, 149):
                point = exact_delta(model, rule, float(grid[i]), budget)
                assert point.delta == curve[i]
        # a grid table over three blocks of whole rows, the last one partial;
        # each row equals its own 1-D curve, which equals the reference above
        rows = 2 * (mse_module.EXACT_BLOCK_POINTS // grid.size) + 5
        budgets = np.geomspace(1e3, 3.7e6, rows)
        table = grid * np.linspace(0.5, 1.0, rows)[:, None]
        curves = exact_delta_curve(model, rule, table, budgets[:, None])
        rows_1d = [exact_delta_curve(model, rule, row, b) for row, b in zip(table, budgets)]
        assert np.array_equal(curves.view(np.uint64), np.array(rows_1d).view(np.uint64))

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_mse_terms_bit_identical(self, policy):
        rule = build_rule([1, 3, 5], POLICIES[policy])
        for model in (LBB, KERNEL_MODELS["pcs"], KERNEL_MODELS["plb"]):
            for eps in (1e-4, 0.01, 0.05):
                for r in (None, rule):
                    bias, variance = mse_terms(model, r, eps, 900.0)
                    assert bias * bias + variance == reference_mse(model, r, eps, 900.0)

    def test_out_of_domain_point_in_a_later_block_raises_before_any_block(self):
        # the domain check covers the whole table before the first block runs
        calls = []

        class CountingDLB(DeterministicLimitBinary):
            def mean(self, eps):
                calls.append(np.size(eps))
                return super().mean(eps)

        model, rule = CountingDLB(kappa=1.0), build_rule([1, 3, 5], "optimal")
        rows = 3 * (mse_module.EXACT_BLOCK_POINTS // 100)
        table = np.tile(np.geomspace(1e-4, 0.3, 100), (rows, 1))
        first, later = (rows - 5, 40), (rows - 2, 10)  # both in the last block
        table[first] = 0.5   # its level 5 * 0.5 leaves the domain [0, 2]
        table[later] = -1.0  # out of domain itself, but later in row-major order
        with pytest.raises(DomainError) as ref:
            reference_delta(model, rule, 0.5, 100.0)
        calls.clear()
        with pytest.raises(DomainError) as got:
            exact_delta_curve(model, rule, table, np.full((rows, 1), 100.0))
        assert str(got.value) == str(ref.value)
        assert (got.value.eps, got.value.scale) == (ref.value.eps, ref.value.scale) == (0.5, 5.0)
        assert calls == []

    def test_table_sweep_memory_is_bounded_by_the_block(self):
        # exact_ladder config b: 121 budgets x 400 points, three-level optimal split
        model, rule = ProductContractionString(gamma=0.1, ell=5), build_rule([1, 3, 5], "optimal")
        budgets = np.geomspace(1e3, 1e9, 121)[:, None]
        table = np.geomspace(1e-6, 0.1, 400) * np.geomspace(1.0, 1e-3, 121)[:, None]
        tracemalloc.start()
        try:
            exact_delta_curve(model, rule, table, budgets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.parametrize("model,grid", [
        (DLB, [0.1, 0.8, 2.5]),      # a scaled level leaves the domain first
        (DLB, [0.1, 2.5, 0.8]),      # the strength itself leaves it first
        (DLB, [-0.01, 0.1]),
        (LBB, [0.01, 0.2, 0.3]),
        (ProductContractionString(gamma=0.1, ell=5), [0.5, 2.5, 12.0]),
        # grid tables: the first point out of domain in row-major order
        (DLB, [[0.1, 0.2], [0.1, 0.8], [2.5, 0.1]]),
        (DLB, [[0.1, 0.2], [2.5, 0.1], [0.1, 0.8]]),
        (LBB, [[0.01, 0.02, 0.03], [0.3, 0.01, 0.2]]),
        (KERNEL_MODELS["monomial"], [[0.1, 0.2], [0.3, -0.01], [-0.5, 0.1]]),
    ])
    def test_out_of_domain_grid_raises_the_pointwise_error(self, model, grid):
        rule = build_rule([1, 3])
        with pytest.raises(DomainError) as ref:
            for eps in np.ravel(grid).tolist():
                reference_delta(model, rule, eps, 100.0)
        budget = 100.0 if np.ndim(grid) == 1 else np.full((len(grid), 1), 100.0)
        with pytest.raises(DomainError) as got:
            exact_delta_curve(model, rule, np.asarray(grid), budget)
        assert str(got.value) == str(ref.value)
        assert (got.value.eps, got.value.scale) == (ref.value.eps, ref.value.scale)


@st.composite
def grid_tables(draw, top):
    """A ``(n_budgets, n_eps)`` table of strengths in ``(0, top]`` and its budget column."""
    n_budgets, n_eps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    fractions = st.lists(st.floats(1e-6, 1.0), min_size=n_eps, max_size=n_eps)
    grids = np.array([draw(fractions) for _ in range(n_budgets)]) * top
    budgets = st.lists(st.floats(1.0, 1e8), min_size=n_budgets, max_size=n_budgets)
    return grids, np.array(draw(budgets))[:, None]


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("scales", [[1, 3], [1, 3, 5]], ids=str)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_grid_table_matches_row_calls(name, scales, policy, data):
    """One table-wide call equals the 1-D call on each row, bit for bit."""
    model, rule = KERNEL_MODELS[name], build_rule(scales, POLICIES[policy])
    top = min(scaled_domain_max(model, rule.scales), 1.0) * (1 - 1e-9)
    grids, budgets = data.draw(grid_tables(top))
    table = exact_delta_curve(model, rule, grids, budgets)
    rows = np.array([exact_delta_curve(model, rule, grid, budget)
                     for grid, budget in zip(grids, budgets[:, 0].tolist())])
    assert table.shape == grids.shape
    assert np.array_equal(table.view(np.uint64), rows.view(np.uint64))


class TestIntegerize:
    def test_sums_and_minimum(self):
        shots = integerize_allocation((0.5, 0.5), 101)
        assert shots.sum() == 101 and shots.min() >= 1
        shots = integerize_allocation((0.619, 0.381), 1000)
        assert shots.sum() == 1000
        assert abs(shots[0] - 619) <= 1

    def test_tiny_fraction_still_gets_one(self):
        shots = integerize_allocation((0.999, 1e-6), 50)
        assert shots.tolist() == [49, 1]

    def test_too_small_budget_rejected(self):
        with pytest.raises(AllocationError, match="too small"):
            integerize_allocation((0.5, 0.3, 0.2), 2)

    @pytest.mark.parametrize("alloc", [(float("nan"), 0.5), (float("inf"), 0.5), (1.5, -0.5)])
    def test_non_finite_or_negative_fractions_rejected(self, alloc):
        with pytest.raises(AllocationError, match="finite and non-negative"):
            integerize_allocation(alloc, 100)

    def test_fractions_summing_past_one_rejected(self):
        with pytest.raises(AllocationError, match="cannot split budget 100"):
            integerize_allocation((0.9, 0.9), 100)

    def test_largest_remainder_accuracy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            pi = rng.dirichlet(np.ones(n) * 2.0)
            budget = int(rng.integers(n, 10**6))
            shots = integerize_allocation(pi, budget)
            assert shots.sum() == budget
            assert shots.min() >= 1
            # largest-remainder stays within one shot unless the >=1 floor bites
            if (pi * budget).min() >= 1:
                assert np.max(np.abs(shots - pi * budget)) < 1.0 + 1e-9

    def test_rounding_effect_vanishes_quadratically(self):
        # |delta(real alloc) - delta(integer alloc)| = O(eps^q / B^2); with
        # alloc (2/3, 1/3) and budgets = 1 mod 3 the rounding perturbation is
        # exactly +-1/3 shot at every budget, so the decay is cleanly B^-2
        rule = build_rule([1, 3], alloc=[2.0, 1.0])
        eps = 0.004
        diffs, budgets = [], [10**3, 10**4, 10**5, 10**6]
        for budget in budgets:
            shots = integerize_allocation(rule.alloc, budget)
            rounded = build_rule(rule.scales, shots)
            d_real = exact_delta(DLB, rule, eps, float(budget)).delta
            d_int = exact_delta(DLB, rounded, eps, float(budget)).delta
            diffs.append(abs(d_real - d_int))
        assert diffs[0] > 0
        assert diffs[-1] <= diffs[0] * 1e-5  # at least quadratic decay over 3 decades
        scaled = [d * b**2 for d, b in zip(diffs, budgets)]
        assert max(scaled) <= 2 * min(scaled)  # B^2-scaled effect is flat


class TestCellStreams:
    def test_distinct_cells_give_distinct_streams(self):
        draws = {
            (b, e, s, r): cell_stream(7, b, e, s, r).integers(0, 2**63)
            for b in range(3) for e in range(3) for s in range(3) for r in range(3)
        }
        assert len(set(draws.values())) == len(draws)

    def test_same_key_same_stream(self):
        a = cell_stream(123, 1, 2, 0, 3).random(5)
        b = cell_stream(123, 1, 2, 0, 3).random(5)
        assert np.array_equal(a, b)

    def test_master_seed_changes_everything(self):
        a = cell_stream(1, 0, 0, 0, 0).random()
        b = cell_stream(2, 0, 0, 0, 0).random()
        assert a != b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 40),
           st.tuples(*(st.integers(1, 3),) * 4))
    @example(2**64 - 1, 0, (1, 1, 1, 1))
    def test_budget_keys_are_the_cell_stream_keys(self, seed, first_budget, shape):
        k0, k1 = mse_module._budget_keys(seed, first_budget, shape)
        assert k0.shape == k1.shape == shape
        for (b, e, arm, rep), word in np.ndenumerate(k0):
            state = cell_stream(seed, first_budget + b, e, arm, rep).bit_generator.state
            assert [word, k1[b, e, arm, rep]] == state["state"]["key"].tolist()


def reference_table(model, rule, budgets, eps_grids, replicates, seed):
    """Cell-by-cell sampling through the documented single-cell stream."""
    shape = (len(budgets), len(eps_grids[0]), len(rule.scales) + 1, replicates)
    shots = np.zeros(shape, dtype=np.int64)
    plus = np.zeros(shape, dtype=np.int64)
    for b, budget in enumerate(budgets):
        for e, eps in enumerate(eps_grids[b]):
            alloc = optimal_allocation(rule, model, eps) if rule.optimal else rule.alloc
            arm_shots = [budget, *integerize_allocation(alloc, budget)]
            strengths = [eps, *(lam * eps for lam in rule.scales)]
            for arm in range(shape[2]):
                for rep in range(replicates):
                    shots[b, e, arm, rep] = arm_shots[arm]
                    plus[b, e, arm, rep] = model.sample_counts(
                        strengths[arm], int(arm_shots[arm]),
                        cell_stream(seed, b, e, arm, rep),
                    )
    return shots, plus


class TestTableSamplerMatchesCellStreams:
    """The table sampler against a ``cell_stream`` + ``sample_counts`` loop."""

    MODELS = {
        "dlb": DLB,
        "pcs": ProductContractionString(gamma=0.1, ell=5),
        "lbb": LinearBiasBinary(mu0=0.2, alpha=-0.5),
        "plb": PowerLeakageBinary(sigma=-1, kappa=0.5, r=2.0),
    }
    RULES = {"13": [1, 3], "135": [1, 3, 5]}
    CASES = ["dlb13", "dlb135", "lbb13", "lbb135", "pcs13", "pcs135", "plb13", "plb135"]
    GRIDS = [[0.01, 0.05, 0.2], [0.02, 0.1, 0.3]]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [0, 77, 2**63 + 5, -1])
    def test_cell_for_cell(self, case, policy, seed):
        model, budgets = self.MODELS[case[:3]], [300, 3000]
        rule = build_rule(self.RULES[case[3:]], POLICIES[policy])
        table = sample_count_table(model, rule, budgets, self.GRIDS, 3, seed)
        shots, plus = reference_table(model, rule, budgets, self.GRIDS, 3, seed)
        assert np.array_equal(table.shots, shots)
        assert np.array_equal(table.plus, plus)

    # messages, eps and scale of the DomainError the per-cell sampler raised
    OUT_OF_DOMAIN = {
        "dlb": ([1, 3], [[0.1, 0.7]], 0.7, 3.0,
                "scaled strength lambda*eps out of domain at (eps=0.7, lambda=3.0): "
                "DeterministicLimitBinary: eps=2.0999999999999996 outside valid domain "
                "[0, 2.0]"),
        "pcs": ([1, 3, 5], [[0.5, 2.0]], 2.0, 5.0,
                "scaled strength lambda*eps out of domain at (eps=2.0, lambda=5.0): "
                "ProductContractionString: gamma*eps < 1 violated at eps=10.0 (gamma=0.1)"),
        "lbb": ([1, 3], [[0.1, 0.2], [0.3, 0.6]], 0.6, 3.0,
                "scaled strength lambda*eps out of domain at (eps=0.6, lambda=3.0): "
                "LinearBiasBinary: |mu0 + alpha*eps| <= 1 violated at eps=1.7999999999999998"),
        "plb": ([1, 3, 5], [[0.01, 0.5]], 0.5, 5.0,
                "scaled strength lambda*eps out of domain at (eps=0.5, lambda=5.0): "
                "PowerLeakageBinary: eps=2.5 outside valid domain [0, 2.0]"),
    }

    @pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_out_of_domain_scaled_strength(self, name, policy):
        model = {"lbb": LinearBiasBinary(mu0=0.2, alpha=0.5)}.get(name, self.MODELS[name])
        scales, grids, eps, scale, message = self.OUT_OF_DOMAIN[name]
        with pytest.raises(DomainError) as err:
            sample_count_table(model, build_rule(scales, POLICIES[policy]),
                               [100] * len(grids), grids, 2, 3)
        assert str(err.value) == message
        assert (err.value.eps, err.value.scale) == (eps, scale)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_domain_error_before_allocation_error(self, policy):
        # the whole table's domain is checked before any shots are split; a
        # budget of 3 cannot feed 4 levels
        rule = build_rule([1, 2, 3, 4], POLICIES[policy])
        for grids in ([[0.7, 0.01]], [[0.01, 0.7]]):
            with pytest.raises(DomainError, match="eps=0.7, lambda=3.0"):
                sample_count_table(DLB, rule, [3], grids, 2, 0)
        with pytest.raises(AllocationError, match="budget 3 too small"):
            sample_count_table(DLB, rule, [3], [[0.01, 0.02]], 2, 0)
        with pytest.raises(DomainError, match="eps=0.7, lambda=3.0"):
            sample_count_table(DLB, rule, [3, 300], [[0.01, 0.02], [0.01, 0.7]], 2, 0)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_table_domain_checked_in_one_pass(self, policy, monkeypatch):
        # the first eps out of domain, row by row, not the largest one, gets
        # check_scaled_eps's own error from its one call
        calls = []
        monkeypatch.setattr(mse_module, "check_scaled_eps",
                            lambda *args: calls.append(args) or check_scaled_eps(*args))
        rule = build_rule([1, 3], POLICIES[policy])
        sample_count_table(DLB, rule, [300, 3000], self.GRIDS, 2, 5)
        assert calls == []
        with pytest.raises(DomainError) as err:
            sample_count_table(DLB, rule, [300, 3000], [[0.1, 0.7], [0.01, 0.8]], 2, 5)
        assert str(err.value) == (
            "scaled strength lambda*eps out of domain at (eps=0.7, lambda=3.0): "
            "DeterministicLimitBinary: eps=2.0999999999999996 outside valid domain [0, 2.0]")
        assert calls == [(DLB, 0.7, rule.scales)]

    @pytest.mark.parametrize("policy,calls", [("fixed", 2), ("optimal", 6)])
    def test_fixed_split_integerized_once_per_budget(self, policy, calls, monkeypatch):
        seen = []
        real = mse_module.integerize_allocation
        monkeypatch.setattr(mse_module, "integerize_allocation",
                            lambda pi, budget: seen.append(budget) or real(pi, budget))
        sample_count_table(DLB, build_rule([1, 3], POLICIES[policy]), [300, 3000],
                           self.GRIDS, 2, 5)
        assert len(seen) == calls

    def test_counts_csv_bytes_pinned(self, tmp_path):
        # stream-version tripwire: a different digest means the random
        # streams or the file format changed, which needs a version bump
        table = sample_count_table(
            DLB, RULE13, budgets=[500, 2000], eps_grids=[[0.01, 0.02], [0.005, 0.01]],
            replicates=6, master_seed=77,
        )
        table.write(tmp_path / "counts.csv", tmp_path / "counts.json")
        digest = hashlib.sha256((tmp_path / "counts.csv").read_bytes()).hexdigest()
        assert digest == "f4ce3f71bad3dc60a02c73e4c09945f41a8c491bdf793a852c7f293bd761f361"


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSamplingWorkers:
    """The table is drawn in this process, starting no child process."""

    BUDGETS = [300, 1000, 3000]
    GRIDS = [[0.01, 0.05, 0.2], [0.02, 0.1, 0.3], [0.005, 0.05, 0.4]]

    @pytest.fixture
    def no_children(self, monkeypatch):
        """Fail the test on any attempt to start a child process."""
        def refuse(*args, **kwargs):
            raise AssertionError("started a child process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

    def draw_and_check(self, rule):
        table = sample_count_table(DLB, rule, self.BUDGETS, self.GRIDS, 4, 77)
        shots, plus = reference_table(DLB, rule, self.BUDGETS, self.GRIDS, 4, 77)
        assert np.array_equal(table.shots, shots)
        assert np.array_equal(table.plus, plus)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_same_table_cell_by_cell_and_by_kernel(self, policy, no_children, monkeypatch):
        rule = build_rule([1, 3], POLICIES[policy])
        self.draw_and_check(rule)  # 108 cells: cell by cell
        monkeypatch.setattr(mse_module, "MIN_KERNEL_CELLS", 1)
        self.draw_and_check(rule)

    def test_small_table_draws_in_process(self, no_children, monkeypatch):
        # 3 budgets x 3 eps x 3 arms x 4 replicates: below the kernel's floor,
        # so drawn cell by cell
        def refuse(*args):
            raise AssertionError("ran the vectorized kernel")

        monkeypatch.setattr(mse_module, "_draw_kernel", refuse)
        self.draw_and_check(RULE13)

    @pytest.mark.parametrize("block_cells", [1, 80, 108])
    def test_blocks_of_whole_budget_rows(self, block_cells, monkeypatch):
        # 36 cells per budget row: one row per block, two rows then one, all three
        monkeypatch.setattr(mse_module, "MIN_KERNEL_CELLS", 1)
        monkeypatch.setattr(mse_module, "DRAW_BLOCK_CELLS", block_cells)
        blocks = []
        real = mse_module._draw_kernel
        monkeypatch.setattr(mse_module, "_draw_kernel",
                            lambda k0, *rest: blocks.append(len(k0)) or real(k0, *rest))
        self.draw_and_check(build_rule([1, 3], "optimal"))
        assert blocks == {1: [1, 1, 1], 80: [2, 1], 108: [3]}[block_cells]

    def test_search_chunks_of_groups(self, monkeypatch):
        # one budget row of 400 eps x 3 arms: 1,200 runs of replicates in one
        # block, more than one lattice search's SEARCH_GROUPS
        groups = []
        real = mse_module._draw_kernel
        monkeypatch.setattr(mse_module, "_draw_kernel",
                            lambda k0, k1, n, p: groups.append(n.size) or real(k0, k1, n, p))
        grids = [np.geomspace(0.001, 0.6, 400).tolist()]
        table = sample_count_table(DLB, RULE13, [40], grids, 2, 31)
        shots, plus = reference_table(DLB, RULE13, [40], grids, 2, 31)
        assert groups == [1200] and groups[0] > mse_module.SEARCH_GROUPS
        assert np.array_equal(table.shots, shots)
        assert np.array_equal(table.plus, plus)

    def test_battery_table_draws_in_process(self, no_children, monkeypatch):
        # the bootstrap-soundness check's 22,848-cell tables run the kernel
        calls = []
        real = mse_module._draw_kernel
        monkeypatch.setattr(mse_module, "_draw_kernel",
                            lambda *args: calls.append(1) or real(*args))
        assert _mc_dataset(seed=77).shots.size == 22_848
        assert calls

    def test_draw_memory_bounded(self):
        # the 13 x 17 x 3 x 256 table of bench/configs/mc_sweep.yaml holds
        # 2.59 MB of shots and counts; the draw adds its block temporaries
        cfg = load_config(Path(__file__).resolve().parent.parent / "bench" / "configs"
                          / "mc_sweep.yaml")
        grids = cfg.grids
        sample_count_table(cfg.model(), cfg.rule(), cfg.budgets[:1], grids[:1], 2, 1)  # warm-up
        tracemalloc.start()
        try:
            table = sample_count_table(cfg.model(), cfg.rule(), cfg.budgets, grids, 256, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shots.shape == (13, 17, 3, 256)
        assert peak < 5.5 * 2**20


def numpy_binomial(word, n, p) -> tuple[int, bool]:
    """numpy's own ``binomial(n, p)`` reading ``word`` first, and whether it read another word.

    The word leads the output buffer of a Philox whose counter is 0, zeros
    after it, so a word past the fourth would be the first block of its key.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    count = int(np.random.Generator(bitgen).binomial(n, p))
    state = bitgen.state
    return count, state["buffer_pos"] > 1 or bool(state["state"]["counter"][0])


# uniforms within 2**-28 of 1, where numpy's loop reaches far into the tail and
# the point probabilities' rounding decides whether it reads another word
TOP_WORDS = st.integers(0, 2**25).map(lambda k: 2**64 - 1 - (k << 11))
WORDS = st.one_of(st.integers(0, 2**64 - 1), TOP_WORDS)


@st.composite
def cell_groups(draw):
    """Keys, shots and plus probabilities of 1-4 runs of 1-5 replicates."""
    n = draw(st.lists(st.one_of(st.integers(1, 100), st.integers(1, 10**9)),
                      min_size=1, max_size=4))
    p = [draw(st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 31.0).map(lambda m, n_g=n_g: min(1.0, m / n_g)),  # inversion
        st.floats(0.0, 31.0).map(lambda m, n_g=n_g: max(0.0, 1.0 - m / n_g)),
    )) for n_g in n]
    reps = draw(st.integers(1, 5))
    keys = draw(st.lists(st.integers(0, 2**64 - 1), min_size=2 * len(n) * reps,
                         max_size=2 * len(n) * reps))
    k0, k1 = np.array(keys, dtype=np.uint64).reshape(2, len(n), reps)
    return k0, k1, np.array(n, dtype=np.int64), np.array(p)


def cell_draws(k0, k1, n, p) -> np.ndarray:
    """The scalar path on every cell of :func:`cell_groups`' runs."""
    return mse_module._draw_cells(k0, k1, n[:, None], p[:, None])


def kernel_draws(k0, k1, n, p) -> np.ndarray:
    """The vectorized kernel on every cell of :func:`cell_groups`' runs."""
    return mse_module._draw_kernel(k0, k1, n[:, None], p[:, None])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDrawKernel:
    """The vectorized kernel against numpy's Philox and its scalar binomial."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=8))
    @example([(0, 0), (2**64 - 1, 2**64 - 1), (2**63 + 5, 7)])
    def test_philox_block_matches_numpy(self, keys):
        k0, k1 = np.array(keys, dtype=np.uint64).T
        words = mse_module._philox_block(k0, k1)
        assert words.shape == k0.shape
        for i, key in enumerate(keys):
            want = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(4)[0]
            assert words[i] == want

    def test_regime_edges(self):
        # the float products the examples below rely on
        assert 60 * 0.5 == 100 * 0.3 == 30.0
        assert 100 * np.nextafter(0.3, 1.0) == np.nextafter(30.0, 31.0)
        assert 100 * (1.0 - 0.7) > 30.0  # 1 - 0.7 rounds up: BTPE

    @settings(max_examples=80, deadline=None)
    @given(cell_groups())
    @example((np.arange(6, dtype=np.uint64).reshape(2, 3), np.ones((2, 3), dtype=np.uint64),
              np.array([1, 10**9]), np.array([0.0, 1.0])))
    @example((np.arange(8, dtype=np.uint64).reshape(4, 2), np.full((4, 2), 9, dtype=np.uint64),
              np.array([60, 100, 100, 100]),
              np.array([0.5, 0.3, np.nextafter(0.3, 1.0), 0.7])))
    @example((np.arange(2, dtype=np.uint64).reshape(2, 1), np.zeros((2, 1), dtype=np.uint64),
              np.array([1, 10**9]), np.array([0.5, 3e-8])))
    def test_kernel_matches_cell_draws(self, cells):
        assert np.array_equal(kernel_draws(*cells), cell_draws(*cells))

    @staticmethod
    def check_on_words(k0, k1, n, p, words):
        """The kernel on cells whose first Philox word is ``words``, of ``k0``'s shape.

        numpy's own sampler reads the same word first.  A spy on
        :func:`mse._draw_cells` marks each count the kernel redraws by its
        bitwise complement.  Every cell the kernel does not redraw must be
        numpy's draw on its word; every BTPE cell, and every cell where numpy
        reads a second word, must be redrawn, and a redrawn cell must be its
        own stream's draw.  Returns numpy's ``(count, read another word,
        redrawn)`` per cell.
        """
        real = mse_module._philox_block, mse_module._draw_cells
        mse_module._philox_block = lambda *keys: words
        mse_module._draw_cells = lambda *cells: ~real[1](*cells)
        try:
            got = kernel_draws(k0, k1, n, p)
        finally:
            mse_module._philox_block, mse_module._draw_cells = real
        streams = cell_draws(k0, k1, n, p)
        seen = {}
        for (g, r), count in np.ndenumerate(got):
            want, more = numpy_binomial(int(words[g, r]), int(n[g]), float(p[g]))
            redrawn = count < 0
            seen[g, r] = want, more, redrawn
            where = (n[g], p[g], words[g, r])
            if more or min(p[g], 1.0 - p[g]) * n[g] > 30.0:
                assert redrawn, where
            assert count == (~streams[g, r] if redrawn else want), where
        return seen

    @settings(max_examples=80, deadline=None)
    @given(cell_groups(), st.data())
    def test_kernel_on_chosen_words(self, cells, data):
        size = cells[0].size
        words = data.draw(st.lists(WORDS, min_size=size, max_size=size))
        self.check_on_words(*cells, np.array(words, dtype=np.uint64).reshape(cells[0].shape))

    @pytest.mark.parametrize("n, p, word, counts", [
        # between the thresholds of X = 10 of an exp(n log1p(-p)) setup, numpy
        # 2.4's, and an exp(n log(1 - p)) one: numpy draws 9 or 10
        (20, 0.3, 8575196888842150 << 11, (9, 10)),
        # under either setup the uniform passes bound: numpy reads a second word
        (3, 0.35, 2**64 - 1, None),
        (3, 0.65, 2**64 - 1, None),
        # the tail past bound = 22 is about 1,860 lattice steps, so this
        # uniform lies past the running sum at bound by far more than rounding
        (10**6, 3e-6, 2**64 - 1, None),
        (10**6, 1.0 - 3e-6, 2**64 - 1, None),
    ])
    def test_kernel_on_edge_words(self, n, p, word, counts):
        keys = np.array([[12345]], dtype=np.uint64)
        (draw, more, redrawn), = self.check_on_words(
            keys, keys + np.uint64(1), np.array([n]), np.array([p]),
            np.array([[word]], dtype=np.uint64)).values()
        assert more and redrawn if counts is None else draw in counts and not more

    @pytest.mark.parametrize("n, p", [(1, 0.06), (1, 0.064), (7, 0.05)])
    def test_log_q_is_numpys_form(self, n, p):
        # q**n by log1p (numpy 2.4's form) and by log differ by one lattice
        # step here; the upper one as a uniform gives X = 0 only under the
        # setup that rounds up
        forms = math.exp(n * math.log1p(-p)), math.exp(n * math.log(1.0 - p))
        low, high = sorted(forms)
        assert low >= 0.5 and high == np.nextafter(low, 1.0)
        draw, _ = numpy_binomial(int(high * 2.0**53) << 11, n, p)
        assert math.exp(n * mse_module._log_q()(p)) == (high if draw == 0 else low)

    @staticmethod
    def lattice_thresholds(n, p) -> list[int]:
        """``floor(cum[X] 2**53)`` for ``X = 0..bound`` of numpy's inversion at ``(n, p)``.

        ``cum`` is the running sum of numpy's point probabilities, one
        rounded addition at a time.
        """
        low = min(p, 1.0 - p)
        (qn,), (bound,) = mse_module._inversion_setup(np.array([n]), np.array([low]))
        px = [float(qn)]
        for x in range(1, int(bound) + 1):
            px.append((n - x + 1) * low * px[-1] / (x * (1.0 - low)))
        return [math.floor(c * 2.0**53) for c in itertools.accumulate(px)]

    @pytest.mark.parametrize("n, p", [
        (40, 0.9),  # flipped: X(0.1) drawn, n - X returned
        (50, 0.5),
        (100, 0.3),  # min(p, 1 - p) n = 30.0, the last inversion case
        (1000, 0.0299),
        (3, 0.35),  # past the last running sum numpy reads a second word
    ])
    def test_kernel_on_threshold_words(self, n, p):
        # the uniforms one lattice step below, at and above every running sum
        # of the point probabilities, where the search is not sure of numpy's X
        cums = self.lattice_thresholds(n, p)
        lattice = sorted({m + d for m in cums for d in (-1, 0, 1) if 0 <= m + d < 2**53})
        words = np.array(lattice, dtype=np.uint64)[None] << np.uint64(11)
        keys = np.arange(len(lattice), dtype=np.uint64)[None]
        seen = self.check_on_words(keys, keys + np.uint64(7), np.array([n]), np.array([p]),
                                   words)
        assert len(seen) == len(lattice)
        assert any(redrawn for _, _, redrawn in seen.values())

    def test_mc_sweep_table_redraws_only_btpe_cells(self, monkeypatch):
        cfg = load_config(Path(__file__).resolve().parent.parent / "bench" / "configs"
                          / "mc_sweep.yaml")
        redrawn = []
        real = mse_module._draw_cells
        monkeypatch.setattr(mse_module, "_draw_cells",
                            lambda k0, *rest: redrawn.extend(k0.tolist()) or real(k0, *rest))
        grids = cfg.grids
        model, rule = cfg.model(), cfg.rule()
        table = sample_count_table(model, rule, cfg.budgets, grids, 256, 12345)
        assert table.plus.size == 169_728
        p = model.plus_probability(grids[..., None] * np.r_[1.0, rule.scales])[..., None]
        btpe = np.where(p > 0.5, 1.0 - p, p) * table.shots > 30.0
        k0, _ = mse_module._budget_keys(12345, 0, table.shots.shape)
        assert btpe.sum() == len(redrawn) == 6_656
        assert sorted(redrawn) == sorted(k0[btpe].tolist())


class TestMonteCarlo:
    def test_paired_seed_bit_identical(self):
        p1, t1 = mc_delta(DLB, RULE13, 0.02, 1000, 20, master_seed=55)
        p2, t2 = mc_delta(DLB, RULE13, 0.02, 1000, 20, master_seed=55)
        assert p1 == p2
        assert np.array_equal(t1.plus, t2.plus)
        assert np.array_equal(t1.shots, t2.shots)

    def test_zero_noise_zero_delta(self):
        point, table = mc_delta(DLB, RULE13, 0.0, 400, 10, master_seed=9)
        assert point.delta == 0.0
        assert np.all(table.plus == table.shots)  # every draw lands on +1

    def test_shot_accounting(self):
        _, table = mc_delta(DLB, RULE13, 0.02, 1001, 5, master_seed=1)
        level_shots = table.shots[0, 0, 1:, :]
        assert np.all(level_shots.sum(axis=0) == 1001)
        assert np.all(table.shots[0, 0, 0, :] == 1001)

    def test_consistency_with_exact(self):
        # |mc - exact| <= 4 std_err in >= 95% of cells on a reference grid
        grid = np.geomspace(2e-3, 2e-2, 8)
        budgets = [1000, 4000]
        hits = total = 0
        for b_idx, budget in enumerate(budgets):
            for e_idx, eps in enumerate(grid):
                point, _ = mc_delta(
                    DLB, RULE13, float(eps), budget, 400, master_seed=100 + 13 * b_idx + e_idx
                )
                exact = exact_delta(DLB, RULE13, float(eps), float(budget)).delta
                hits += abs(point.delta - exact) <= 4.0 * point.std_err
                total += 1
        assert hits >= int(0.95 * total)

    def test_monomial_has_no_sampler(self):
        m = MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)
        with pytest.raises(ModelError, match="no sampler"):
            mc_delta(m, RULE13, 0.01, 100, 10, master_seed=0)

    def test_budget_too_small_for_allocation(self):
        rule = build_rule([1, 2, 3, 4])
        with pytest.raises(AllocationError):
            mc_delta(DLB, rule, 0.01, 3, 5, master_seed=0)

    def test_budget_not_whole_refused(self):
        # a fractional budget is refused, not truncated; an integral float is a budget
        with pytest.raises(AllocationError, match="budget 1000.7 is not a whole number of shots"):
            sample_count_table(DLB, RULE13, [1000.7], [[0.01, 0.02]], 2, 1)
        assert sample_count_table(DLB, RULE13, [1000.0], [[0.01, 0.02]], 2, 1).budgets == (1000,)


class TestCountTable:
    def test_unequal_grid_lengths_named(self):
        budgets = [1000, 3162, 10000, 31623, 100000]
        grids = [np.geomspace(0.01, 0.1, 14)] + [np.geomspace(0.001, 0.01, 17)] * 4
        with pytest.raises(ConfigError, match="got 14 points at B=1000, 17 points at B=3162, "
                           "17 points at B=10000, 17 points at B=31623, 17 points at B=100000"):
            sample_count_table(LBB, RULE13, budgets, grids, replicates=4, master_seed=1)

    def make_table(self):
        return sample_count_table(
            DLB, RULE13, budgets=[500, 2000], eps_grids=[[0.01, 0.02], [0.005, 0.01]],
            replicates=6, master_seed=77,
        )

    def test_round_trip_csv(self, tmp_path):
        table = self.make_table()
        table.write(tmp_path / "counts.csv", tmp_path / "counts.json")
        back = CountTable.read(tmp_path / "counts.csv", tmp_path / "counts.json",
                               *drawn_with(table))
        assert np.array_equal(back.shots, table.shots)
        assert np.array_equal(back.plus, table.plus)
        assert back.budgets == table.budgets
        assert np.array_equal(back.eps_grids, table.eps_grids)
        assert back.model == table.model
        assert back.rule == table.rule
        assert back.master_seed == table.master_seed

    def test_csv_rows_are_the_csv_writer_bytes(self, tmp_path):
        table = self.make_table()
        table.write(tmp_path / "counts.csv", tmp_path / "counts.json")
        rows = io.StringIO()
        writer = csv.writer(rows)
        writer.writerow(mse_module._COUNT_COLUMNS)
        for (b, e, s, r), n in np.ndenumerate(table.shots):
            writer.writerow([b, e, s - 1, r, n, table.plus[b, e, s, r]])
        text = (tmp_path / "counts.csv").read_bytes().decode()
        assert text[text.index("budget_idx"):] == rows.getvalue()

    def test_deltas_from_counts_hand_check(self):
        plus = np.zeros((1, 1, 3, 2), dtype=np.int64)
        plus[0, 0, 0, :] = [8, 4]   # noisy arm, 8 shots: mu_hat = 1.0, 0.0
        plus[0, 0, 1, :] = [4, 4]   # level 1, 4 shots: mu_hat = 1.0, 1.0
        plus[0, 0, 2, :] = [2, 4]   # level 2, 4 shots: mu_hat = 0.0, 1.0
        table = CountTable(budgets=(8,), eps_grids=((0.1,),), plus=plus, master_seed=0,
                           model=DLB, rule=RULE13)
        assert table.shots[0, 0, :, 0].tolist() == [8, 4, 4]
        assert RULE13.coeffs == (1.5, -0.5) and DLB.mean(0.0) == 1.0
        delta, std_err = deltas_from_counts(table)
        # rep 1: noisy err 0, zne = 1.5 -> err 0.25; diff -0.25
        # rep 2: noisy err 1, zne = 1.0 -> err 0;    diff +1
        assert delta[0, 0] == pytest.approx((1.0 - 0.25) / 2)
        assert std_err[0, 0] == pytest.approx(np.std([-0.25, 1.0], ddof=1) / np.sqrt(2))

    def test_sampling_builds_no_model_or_rule(self, monkeypatch):
        # the count table's module cannot build one: it takes the model and rule it is given
        assert not hasattr(mse_module, "build_rule")
        assert not hasattr(mse_module, "model_from_spec")
        calls = []
        for module, name in [("zneboundary.rules", "build_rule"),
                             ("zneboundary.models", "model_from_spec")]:
            monkeypatch.setattr(f"{module}.{name}",
                                lambda *args, _name=name, **kwargs: calls.append(_name))
        rule = build_rule([1, 3, 5], "optimal")
        table = sample_count_table(DLB, rule, [300, 3001], [[0.01, 0.02], [0.01, 0.03]], 4, 7)
        point, one = mc_delta(DLB, rule, 0.01, 3001, 4, 7)
        assert math.isfinite(point.delta)
        assert calls == []
        assert table.rule is rule and one.rule is rule
        assert table.model is DLB and one.model is DLB

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_shots_follow_from_the_allocation(self, policy):
        rule = build_rule([1, 3, 5], POLICIES[policy])
        grids = TestTableSamplerMatchesCellStreams.GRIDS
        table = sample_count_table(DLB, rule, [300, 3001], grids, 4, 7)
        runs = mse_module.count_shots(DLB, rule, table.budgets, table.eps_grids)
        assert runs.shape == (2, 3, 4) and (runs[..., 0] == [[300], [3001]]).all()
        assert (runs[..., 1:].sum(axis=-1) == runs[..., 0]).all()
        assert np.array_equal(table.shots, np.broadcast_to(runs[..., None], table.plus.shape))
        assert table.shots.size == table.plus.size == 96
        assert not table.shots.flags.writeable
        assert table.rule == rule and table.model == DLB

    def test_rejects_counts_off_the_allocation(self):
        plus = np.zeros((1, 1, 3, 2), dtype=np.int64)
        kwargs = dict(budgets=(8,), eps_grids=((0.1,),), master_seed=0, model=DLB, rule=RULE13)
        plus[0, 0, 1, 0] = 5  # level 1 has 4 shots
        with pytest.raises(ValueError, match=r"\[0, shots\]"):
            CountTable(plus=plus, **kwargs)
        with pytest.raises(ValueError, match=r"shape \(1, 1, 2, 2\), not \(1, 1, 3\)"):
            CountTable(plus=plus[:, :, 1:], **kwargs)
        with pytest.raises(AllocationError, match="budget 2 too small"):
            CountTable(plus=np.zeros((1, 1, 4, 2), dtype=np.int64), **{
                **kwargs, "budgets": (2,), "rule": build_rule([1, 2, 3])})


def _without(key):
    return lambda header: json.dumps({k: v for k, v in header.items() if k != key})


class TestCountTableRowValidation:
    """Each corruption of a written table is rejected with the file and row named."""

    def corrupt(self, tmp_path, edit, edit_header=None):
        """Apply ``edit`` to the CSV lines, ``edit_header`` (parsed JSON -> text) to the header."""
        table = TestCountTable().make_table()
        csv_path, header_path = tmp_path / "counts.csv", tmp_path / "counts.json"
        table.write(csv_path, header_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        edit(lines)  # lines[0] is the schema comment, lines[1] the header
        csv_path.write_text("".join(lines))
        if edit_header is not None:
            header_path.write_text(edit_header(json.loads(header_path.read_text())))
        with pytest.raises(ConfigError) as err:
            CountTable.read(csv_path, header_path, *drawn_with(table))
        assert str(header_path if edit_header else csv_path) in str(err.value)
        return str(err.value)

    def test_header_eps_grid_out_of_order(self, tmp_path):
        def edit_header(header):
            header["eps_grids"][1].reverse()
            return json.dumps(header)
        msg = self.corrupt(tmp_path, lambda lines: None, edit_header)
        assert ("eps_grids of budget 2000 [0.01, 0.005], not the configuration's "
                "[0.005, 0.01]; rerun `zneboundary sweep`") in msg

    def test_missing_row(self, tmp_path):
        msg = self.corrupt(tmp_path, lambda lines: lines.pop(8))
        assert "no row for cell (budget_idx=0, eps_idx=0, scale_idx=0, rep_idx=0)" in msg

    def test_duplicate_row(self, tmp_path):
        def edit(lines):
            lines[6] = lines[5]
        msg = self.corrupt(tmp_path, edit)
        assert "data row 5 " in msg and "duplicate cell" in msg

    def test_rows_out_of_writer_order(self, tmp_path):
        def edit(lines):
            lines[2:] = lines[:1:-1]
        msg = self.corrupt(tmp_path, edit)
        assert "data row 1 (budget_idx=1, eps_idx=1, scale_idx=1, rep_idx=5, " in msg
        assert "no row for cell (budget_idx=0, eps_idx=0, scale_idx=-1, rep_idx=0)" in msg

    def test_duplicate_across_budget_blocks(self, tmp_path):
        def edit(lines):
            lines[-1] = lines[2]
        msg = self.corrupt(tmp_path, edit)
        assert f"data row {TestCountTable().make_table().shots.size} " in msg
        assert "duplicate cell" in msg

    def test_out_of_range_index(self, tmp_path):
        def edit(lines):
            lines[4] = "0,9,-1,2,500,497\n"
        msg = self.corrupt(tmp_path, edit)
        assert "data row 3 (budget_idx=0, eps_idx=9" in msg and "out of range" in msg

    def test_extra_trailing_rows(self, tmp_path):
        msg = self.corrupt(tmp_path, lambda lines: lines.append("0,0,-1,0,500,497\r\n"))
        n_cells = TestCountTable().make_table().shots.size
        assert f"data row {n_cells + 1} " in msg and "extra row" in msg

    # the uniform split of B=500 gives each level 250 shots; data rows 7 and
    # 13 are the two level rows of (B=500, eps 0, rep 0)
    @pytest.mark.parametrize("rows, named, problem", [
        ({3: "0,0,-1,2,500,501"}, 3, "plus count outside [0, shots]"),
        ({3: "0,0,-1,2,500,-1"}, 3, "plus count outside [0, shots]"),
        ({3: "0,0,-1,2,0,0"}, 3, "shots 0, not the 500 of the rule's allocation"),
        ({7: "0,0,0,0,0,0"}, 7, "shots 0, not the 250 of the rule's allocation"),
        ({3: "0,0,-1,2,750,497"}, 3, "shots 750, not the 500 of the rule's allocation"),
        ({13: "0,0,1,0,300,100"}, 13, "shots 300, not the 250 of the rule's allocation"),
        ({60: "1,1,-1,5,2001,1"}, 60, "shots 2001, not the 2000 of the rule's allocation"),
        # shots moved between the levels of one run still sum to the budget
        ({7: "0,0,0,0,270,200", 13: "0,0,1,0,230,200"}, 7,
         "shots 270, not the 250 of the rule's allocation"),
        ({7: "0,0,0,0,249,200", 13: "0,0,1,0,251,200"}, 7,
         "shots 249, not the 250 of the rule's allocation"),
        # the same move in the second budget's block, a later replicate
        ({48: "1,0,0,5,980,900", 54: "1,0,1,5,1020,900"}, 48,
         "shots 980, not the 1000 of the rule's allocation"),
    ])
    def test_counts_off_the_writers_layout(self, tmp_path, rows, named, problem):
        def edit(lines):  # data row r is lines[r + 1]
            for row, line in rows.items():
                lines[row + 1] = line + "\r\n"
        msg = self.corrupt(tmp_path, edit)
        assert f"data row {named} (" in msg and msg.endswith(problem)

    def test_counts_of_another_split(self, tmp_path):
        # uniform counts read as a 3:1 split: the header names the rule they were drawn with
        table = TestCountTable().make_table()
        csv_path, header_path = tmp_path / "counts.csv", tmp_path / "counts.json"
        table.write(csv_path, header_path)
        model, _, *layout = drawn_with(table)
        with pytest.raises(ConfigError) as err:
            CountTable.read(csv_path, header_path, model, build_rule([1, 3], [0.75, 0.25]),
                            *layout)
        assert str(err.value) == (
            f"count header {header_path}: rule {{'alloc': [0.5, 0.5], 'scales': [1.0, 3.0]}}, "
            "not the configuration's {'scales': [1.0, 3.0], 'alloc': [0.75, 0.25]}; "
            "rerun `zneboundary sweep`")

    @pytest.mark.parametrize("change, error", [
        ({"replicates": 1}, "need at least 2 replicates, got 1"),
        ({"budgets": (500.7, 2000)}, "budget 500.7 is not a whole number of shots"),
        ({"budgets": (500, 1)}, "budget 1 too small to give each of 2 levels a shot"),
        ({"eps_grids": [[0.01, 0.02], [0.005, 0.9]]},
         r"scaled strength lambda\*eps out of domain at \(eps=0.9, lambda=3.0\)"),
        ({"eps_grids": [[0.01, 0.02], [0.005]]}, "per-budget eps grids must have equal length"),
        ({"model": MonomialBalanceModel(p=1, q=0, d_p=1.0, k_q=1.0)}, "model has no sampler"),
    ], ids=["replicates", "budget-not-whole", "budget-below-levels", "grid-out-of-domain",
            "grid-lengths", "model-not-sampled"])
    def test_reader_arguments_checked_as_the_samplers(self, tmp_path, change, error):
        # the reader builds its table as the sampler does, so it refuses the same arguments
        table = TestCountTable().make_table()
        table.write(tmp_path / "counts.csv", tmp_path / "counts.json")
        names = ("model", "rule", "budgets", "eps_grids", "replicates", "master_seed")
        args = {**dict(zip(names, drawn_with(table))), **change}
        with pytest.raises(Exception, match=error) as sampled:
            sample_count_table(*args.values())
        with pytest.raises(sampled.type, match=error):
            CountTable.read(tmp_path / "counts.csv", tmp_path / "counts.json", *args.values())

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_blank_lines_skipped_without_a_warning(self, tmp_path):
        # numpy warns of each blank line loadtxt skips inside a block
        table = TestCountTable().make_table()
        csv_path, header_path = tmp_path / "counts.csv", tmp_path / "counts.json"
        table.write(csv_path, header_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[10:10] = ["\r\n"]  # inside the first budget's block
        lines[45:45] = ["\n", "\n"]  # inside the second's
        csv_path.write_text("".join(lines))
        back = CountTable.read(csv_path, header_path, *drawn_with(table))
        assert np.array_equal(back.plus, table.plus)

    def test_wrong_column_header(self, tmp_path):
        def edit(lines):
            lines[1] = lines[1].replace("plus_count", "plus")
        msg = self.corrupt(tmp_path, edit)
        assert "column header" in msg

    def test_malformed_row(self, tmp_path):
        def edit(lines):
            lines[3] = "0,0,-1,1,500\n"
        msg = self.corrupt(tmp_path, edit)
        assert "data row 2 '0,0,-1,1,500': 5 fields, expected 6" in msg

    def test_malformed_number_names_absolute_row(self, tmp_path):
        # data row 40 lies in the second budget's block of 36 rows
        def edit(lines):
            lines[41] = "1,x0,0,1,1000,997\n"
        msg = self.corrupt(tmp_path, edit)
        assert "data row 40 '1,x0,0,1,1000,997': eps_idx not a 64-bit integer" in msg

    def test_overflowing_number_names_absolute_row(self, tmp_path):
        def edit(lines):
            lines[40] = "1,0,0,0,99999999999999999999,997\n"
        msg = self.corrupt(tmp_path, edit)
        assert "data row 39 " in msg and "shots not a 64-bit integer" in msg

    def test_other_schema_version(self, tmp_path):
        def edit(lines):
            lines[0] = "# zneboundary-schema=9\n"
        msg = self.corrupt(tmp_path, edit)
        assert "carries schema version 9, expected 1" in msg

    def test_header_other_schema_version(self, tmp_path):
        def edit_header(header):
            return json.dumps({**header, "schema_version": 7})
        msg = self.corrupt(tmp_path, lambda lines: None, edit_header)
        assert "schema_version 7, not the configuration's 1" in msg

    @pytest.mark.parametrize("edit_header, expected", [
        (lambda header: json.dumps(header)[:-1], "Expecting"),
        (lambda header: "[]", "not a JSON object"),
        *[(_without(key), f"no '{key}' field")
          for key in ("budgets", "eps_grids", "scales", "replicates", "master_seed", "model",
                      "rule")],
        (lambda header: json.dumps({**header, "budgets": [], "eps_grids": []}),
         "budgets [], not the configuration's [500, 2000]"),
        (lambda header: json.dumps({**header, "eps_grids": header["eps_grids"][:1]}),
         "eps_grids [[0.01, 0.02]], not the configuration's [[0.01, 0.02], [0.005, 0.01]]"),
        (lambda header: json.dumps({**header, "eps_grids": [[0.01, 0.02], [0.005]]}),
         "eps_grids of budget 2000 [0.005], not the configuration's [0.005, 0.01]"),
        (lambda header: json.dumps({**header, "eps_grids": [[[0.01], [0.02]]] * 2}),
         "eps_grids of budget 500 [[0.01], [0.02]], not the configuration's [0.01, 0.02]"),
        (lambda header: json.dumps({**header, "replicates": -1}),
         "replicates -1, not the configuration's 6"),
        (lambda header: json.dumps({**header, "replicates": 0}),
         "replicates 0, not the configuration's 6"),
        (lambda header: json.dumps({**header, "scales": [1.0, 5.0]}),
         "scales [1.0, 5.0], not the configuration's [1.0, 3.0]"),
        (lambda header: json.dumps({**header, "rule": {"scales": [1.0, 3.0], "alloc": "best"}}),
         "rule {'scales': [1.0, 3.0], 'alloc': 'best'}, not the configuration's "
         "{'scales': [1.0, 3.0], 'alloc': [0.5, 0.5]}"),
        (lambda header: json.dumps({**header, "model": {"type": "dlb"}}),
         "model {'type': 'dlb'}, not the configuration's "
         "{'type': 'deterministic_limit_binary', 'kappa': 1.0}"),
        (lambda header: json.dumps({**header, "model": {"type": "monomial_balance", "p": 1,
                                                        "q": 0, "d_p": 1.0, "k_q": 1.0}}),
         "model {'type': 'monomial_balance', 'p': 1, 'q': 0, 'd_p': 1.0, 'k_q': 1.0}, "
         "not the configuration's"),
        (lambda header: json.dumps({**header, "eps_grids": [[0.01, 0.02], [0.005, 0.9]]}),
         "eps_grids of budget 2000 [0.005, 0.9], not the configuration's [0.005, 0.01]"),
        (lambda header: json.dumps({**header, "budgets": [500, 1]}),
         "budgets [500, 1], not the configuration's [500, 2000]"),
        (lambda header: json.dumps({**header, "budgets": [500.7, 2000]}),
         "budgets [500.7, 2000], not the configuration's [500, 2000]"),
        (lambda header: json.dumps({**header, "stream": 2}), "unknown field 'stream'"),
    ], ids=["not_json", "not_an_object", "no_budgets", "no_eps_grids", "no_scales",
            "no_replicates", "no_master_seed", "no_model", "no_rule", "no_budgets_listed",
            "grid_count", "grid_lengths", "grid_nested", "replicates_negative",
            "replicates_zero", "scales_not_the_rules", "rule_unknown_alloc", "model_unknown",
            "model_not_sampled", "grid_out_of_domain", "budget_below_levels",
            "budget_not_whole", "unknown_field"])
    def test_malformed_header(self, tmp_path, edit_header, expected):
        assert expected in self.corrupt(tmp_path, lambda lines: None, edit_header)


@st.composite
def count_tables(draw):
    """Tables in the writer's layout: a sampled model, a rule (uniform, explicit
    weights or optimal), in-domain grids, and plus counts up to each cell's
    :func:`count_shots`."""
    model = draw(st.sampled_from([DLB, LinearBiasBinary(mu0=0.2, alpha=-0.5),
                                  ProductContractionString(gamma=0.1, ell=5),
                                  PowerLeakageBinary(sigma=-1, kappa=0.5, r=2.0)]))
    scales = [1.0, *sorted(draw(st.sets(st.sampled_from([1.5, 2.0, 3.0, 5.0]),
                                        min_size=1, max_size=3)))]
    weights = st.lists(st.floats(1e-3, 1e3), min_size=len(scales), max_size=len(scales))
    rule = build_rule(scales, draw(st.sampled_from(["uniform", "optimal"]) | weights))
    n_budgets, n_eps, n_reps = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(
        st.integers(2, 4))
    budgets = draw(st.lists(st.integers(len(scales), 10**12), min_size=n_budgets,
                            max_size=n_budgets))
    eps = st.floats(1e-6, 0.9 * scaled_domain_max(model, rule.scales))
    grids = [sorted(draw(st.lists(eps, min_size=n_eps, max_size=n_eps, unique=True)))
             for _ in range(n_budgets)]
    shots = mse_module.count_shots(model, rule, budgets, grids)[..., None]
    frac = draw(st.lists(st.floats(0, 1), min_size=shots.size * n_reps,
                         max_size=shots.size * n_reps))
    plus = np.floor(np.reshape(frac, (*shots.shape[:3], n_reps)) * shots).astype(np.int64)
    return CountTable(tuple(budgets), grids, plus, draw(st.integers(-(2**63), 2**64 - 1)),
                      model, rule)


@settings(max_examples=60, deadline=None)
@given(count_tables())
@example(CountTable(budgets=(7,), eps_grids=((0.1,),), plus=np.ones((1, 1, 3, 2), dtype=np.int64),
                    master_seed=-1, model=DLB, rule=RULE13))
def test_count_table_round_trip_property(table):
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "a.csv"), Path(tmp, "a.json")
        table.write(*paths)
        back = CountTable.read(*paths, *drawn_with(table))
        assert np.array_equal(back.shots, table.shots)
        assert np.array_equal(back.plus, table.plus)
        assert back.header() == table.header()
        assert back.budgets == table.budgets and np.array_equal(back.eps_grids, table.eps_grids)
        assert back.model == table.model and back.rule == table.rule
        again = Path(tmp, "b.csv"), Path(tmp, "b.json")
        back.write(*again)
        assert again[0].read_bytes() == paths[0].read_bytes()
        assert again[1].read_bytes() == paths[1].read_bytes()
