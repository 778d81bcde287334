"""Rule construction, identities, penalties, and allocations."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zneboundary.errors import AllocationError, RuleError
from zneboundary.models import DeterministicLimitBinary, ProductContractionString
from zneboundary.rules import (
    PenaltyConstants,
    build_rule,
    optimal_allocation,
    optimal_split,
    penalty_constants,
    small_noise_allocation,
    variance_penalty,
)


def exact_coeffs(scales):
    """Independent oracle: Lagrange basis values at zero, in exact rationals.

    c_j = prod_{i != j} lam_i / (lam_i - lam_j).
    """
    out = []
    for j, lj in enumerate(scales):
        prod = Fraction(1)
        for i, li in enumerate(scales):
            if i != j:
                prod *= Fraction(li) / (Fraction(li) - Fraction(lj))
        out.append(prod)
    return out


def zne_variance(model, rule, eps, budget, alloc=None):
    pi = np.asarray(alloc if alloc is not None else rule.alloc)
    c = np.asarray(rule.coeffs)
    v = np.asarray([model.variance(l * eps) for l in rule.scales])
    return float(np.sum(c**2 * v / pi)) / budget


class TestBuildRule:
    def test_two_point_scale_three(self):
        # c_0 = a/(a-1), c_1 = -1/(a-1) at a = 3
        rule = build_rule([1, 3])
        assert rule.coeffs == pytest.approx((1.5, -0.5), abs=1e-14)
        assert rule.alloc == pytest.approx((0.5, 0.5))

    def test_two_point_scale_two(self):
        rule = build_rule([1, 2])
        assert rule.coeffs == pytest.approx((2.0, -1.0), abs=1e-14)

    def test_large_second_scale_limits(self):
        # c_0 -> 1 and c_1 -> 0 as the second scale grows
        prev_c1 = 1.0
        for a in (5.0, 50.0, 500.0):
            rule = build_rule([1, a])
            assert rule.coeffs[0] == pytest.approx(a / (a - 1), rel=1e-12)
            assert abs(rule.coeffs[1]) < prev_c1
            prev_c1 = abs(rule.coeffs[1])

    def test_three_point_oracle(self):
        # exact-fraction solve of the 3x3 scale-power system gives
        # (15/8, -5/4, 3/8); confirmed against the Lagrange-product route
        oracle = exact_coeffs([1, 3, 5])
        assert oracle == [Fraction(15, 8), Fraction(-5, 4), Fraction(3, 8)]
        rule = build_rule([1, 3, 5])
        assert rule.coeffs == pytest.approx([float(c) for c in oracle], abs=1e-13)
        for m in range(1, 3):
            assert abs(sum(c * l**m for c, l in zip(rule.coeffs, rule.scales))) <= 1e-12

    @pytest.mark.parametrize("scales", [(1, 2), (1, 3), (1, 5), (1, 3, 5), (1, 2, 3, 4)])
    def test_identities_and_nontriviality(self, scales):
        rule = build_rule(scales)
        residuals = rule.identity_residuals()
        assert max(residuals) <= 1e-12
        assert rule.coeffs == pytest.approx([float(c) for c in exact_coeffs(scales)], abs=1e-12)
        assert sum(abs(c) for c in rule.coeffs) > 1

    def test_explicit_alloc_normalized(self):
        rule = build_rule([1, 3], alloc=[3, 1])
        assert rule.alloc == pytest.approx((0.75, 0.25))

    def test_optimal_spec_carries_uniform_base_fractions(self):
        # the engines reallocate per strength around the rule's base split,
        # and the rule, not its callers, knows that it does
        optimal, uniform = build_rule([1, 3, 5], "optimal"), build_rule([1, 3, 5])
        assert optimal.optimal and not uniform.optimal
        assert optimal.alloc == uniform.alloc == pytest.approx((1 / 3,) * 3)
        assert optimal != uniform
        assert optimal.spec() == {"scales": [1.0, 3.0, 5.0], "alloc": "optimal"}
        assert build_rule(**optimal.spec()) == optimal
        assert build_rule(**uniform.spec()) == uniform
        # an array spec is weights, never compared elementwise with "optimal"
        assert not build_rule([1, 3], np.array([1.0, 1.0])).optimal
        with pytest.raises(RuleError, match="unknown allocation spec"):
            build_rule([1, 3], "optimal-ish")

    @pytest.mark.parametrize(
        "scales,message",
        [
            ([1, 1, 3], "strictly increasing"),
            ([1, 3, 2], "strictly increasing"),
            ([2, 3], "must be exactly 1"),
            ([1], "at least two"),
            ([1, 2, 3, 4, 5, 6, 7, 8], "exceeds cap"),
        ],
    )
    def test_rejects_bad_scales(self, scales, message):
        with pytest.raises(RuleError, match=message):
            build_rule(scales)

    def test_rejects_bad_alloc(self):
        with pytest.raises(RuleError):
            build_rule([1, 3], alloc=[1.0, 0.0])
        with pytest.raises(RuleError):
            build_rule([1, 3], alloc=[1.0, -1.0])
        with pytest.raises(RuleError):
            build_rule([1, 3], alloc=[1.0, 1.0, 1.0])

    @given(
        st.lists(st.floats(min_value=0.3, max_value=2.0), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_identities_hold_for_random_scale_sets(self, gaps):
        scales = [1.0]
        for g in gaps:
            scales.append(scales[-1] + g)
        try:
            rule = build_rule(scales)
        except RuleError:
            return  # ill-conditioned sets are legitimately rejected
        assert max(rule.identity_residuals()) <= 1e-12
        assert sum(abs(c) for c in rule.coeffs) > 1

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_explicit_weights_spec_round_trips_bit_for_bit(self, weights):
        # a count table's shots follow from its stored rule spec, so the spec
        # must build back the very fractions the table was drawn with
        rule = build_rule([1.0 + j for j in range(len(weights))], weights)
        again = build_rule(**rule.spec())
        assert again.alloc == rule.alloc
        assert again == rule
        assert sum(rule.alloc) == pytest.approx(1.0, abs=1e-15)


class TestVariancePenalty:
    def test_closed_form_two_point_uniform(self):
        # K = nu * (7/2 + 3^q / 2) for scales (1,3) with uniform allocation
        rule = build_rule([1, 3])
        assert variance_penalty(rule, q=0.0, nu=1.0).k_fixed == pytest.approx(4.0, abs=1e-12)
        assert variance_penalty(rule, q=1.0, nu=2.0).k_fixed == pytest.approx(10.0, abs=1e-12)
        for q in (0.0, 0.5, 1.0, 2.0):
            expected = 3.5 + 0.5 * 3.0**q
            assert variance_penalty(rule, q=q, nu=1.0).k_fixed == pytest.approx(
                expected, abs=1e-12
            )

    def test_optimal_penalty_two_point(self):
        # (3/2 + sqrt(3)/2)^2 - 1, evaluated to 50 digits independently
        rule = build_rule([1, 3])
        pen = variance_penalty(rule, q=1.0, nu=1.0)
        assert pen.k_opt == pytest.approx(4.5980762113533159, abs=1e-12)
        # the penalty a rule pays follows its allocation policy
        assert pen.k == pen.k_fixed
        optimal = variance_penalty(build_rule([1, 3], "optimal"), q=1.0, nu=1.0)
        assert (optimal.k, optimal.k_fixed, optimal.k_opt) == (pen.k_opt, pen.k_fixed, pen.k_opt)

    @pytest.mark.parametrize("scales", [(1, 3), (1, 3, 5), (1, 2, 4, 8)])
    def test_small_noise_allocation_attains_k_opt(self, scales):
        base = build_rule(scales)
        for q in (0.0, 0.7, 1.0):
            split = build_rule(scales, small_noise_allocation(base, q))
            pen = variance_penalty(base, q=q, nu=1.3)
            assert variance_penalty(split, q=q, nu=1.3).k_fixed == pytest.approx(
                pen.k_opt, rel=1e-12
            )

    def test_fitted_penalty_accepts_negative_q(self):
        # a q = 0 model fits q_hat slightly below zero; only declared inputs
        # are range-checked
        rule = build_rule([1, 3])
        pen = penalty_constants(rule, q=-1e-3, nu=1.0)
        assert pen.k_fixed == pytest.approx(3.5 + 0.5 * 3.0**-1e-3, rel=1e-12)

    def test_positive_for_nontrivial_rules(self):
        for scales in [(1, 2), (1, 3, 5), (1, 2, 4, 8)]:
            pen = variance_penalty(build_rule(scales), q=0.7, nu=0.3)
            assert pen.k_fixed > 0
            assert pen.k_opt > 0

    def test_nondecreasing_in_q(self):
        rule = build_rule([1, 3, 5])
        qs = np.linspace(0, 2, 9)
        ks = [variance_penalty(rule, q=q, nu=1.0).k_fixed for q in qs]
        assert all(b > a for a, b in zip(ks, ks[1:]))  # strict: some lam > 1 with c != 0

    def test_opt_never_exceeds_fixed(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            scales = np.concatenate(([1.0], np.cumsum(rng.uniform(0.5, 2.0, size=k)) + 1.0))
            alloc = rng.uniform(0.1, 1.0, size=k + 1)
            rule = build_rule(scales, alloc=alloc)
            q = float(rng.uniform(0, 2))
            pen = variance_penalty(rule, q=q, nu=1.0)
            assert pen.k_opt <= pen.k_fixed + 1e-12 * max(1.0, pen.k_fixed)

    def test_rejects_negative_inputs(self):
        rule = build_rule([1, 3])
        with pytest.raises(RuleError):
            variance_penalty(rule, q=-0.1, nu=1.0)
        with pytest.raises(RuleError):
            variance_penalty(rule, q=0.0, nu=-1.0)

    def test_returns_dataclass(self):
        pen = variance_penalty(build_rule([1, 3]), q=1.0, nu=2.0)
        assert isinstance(pen, PenaltyConstants)
        assert (pen.q, pen.nu) == (1.0, 2.0)


class TestOptimalAllocation:
    def test_constant_variance_reduces_to_coeff_magnitudes(self):
        class FlatVariance:
            def variance(self, eps):
                return 1.0

        rule = build_rule([1, 3])
        pi = optimal_allocation(rule, FlatVariance(), 0.05)
        assert pi == pytest.approx((0.75, 0.25))

    def test_equal_variance_at_levels(self):
        class EqualAtLevels:
            def variance(self, eps):
                return 0.4

        rule = build_rule([1, 2, 4])
        pi = optimal_allocation(rule, EqualAtLevels(), 0.01)
        mags = np.abs(rule.coeffs)
        assert pi == pytest.approx(tuple(mags / mags.sum()))

    def test_deterministic_limit_example(self):
        # v(eps) = 2*eps - eps^2 at kappa=1: weights (1.5*sqrt(0.0199), 0.5*sqrt(0.0591))
        model = DeterministicLimitBinary(kappa=1.0)
        rule = build_rule([1, 3])
        pi = optimal_allocation(rule, model, 0.01)
        w = np.array([1.5 * np.sqrt(0.0199), 0.5 * np.sqrt(0.0591)])
        assert pi == pytest.approx(tuple(w / w.sum()), rel=1e-12)
        v_opt = zne_variance(model, rule, 0.01, 1000.0, alloc=pi)
        v_uni = zne_variance(model, rule, 0.01, 1000.0)
        assert v_opt <= v_uni

    def test_beats_random_explicit_allocations(self):
        model = DeterministicLimitBinary(kappa=0.7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            scales = np.concatenate(([1.0], np.cumsum(rng.uniform(0.5, 2.0, size=k)) + 1.0))
            rule = build_rule(scales)
            eps = float(rng.uniform(1e-4, 0.05))
            pi_opt = optimal_allocation(rule, model, eps)
            pi_rand = rng.uniform(0.05, 1.0, size=k + 1)
            pi_rand /= pi_rand.sum()
            assert zne_variance(model, rule, eps, 100.0, alloc=pi_opt) <= zne_variance(
                model, rule, eps, 100.0, alloc=pi_rand
            ) * (1 + 1e-12)

    def test_zero_variance_level_gets_floor(self):
        # at eps = 0 the base level of a deterministic-limit model has v = 0
        model = DeterministicLimitBinary(kappa=1.0)
        rule = build_rule([1, 3])

        class ShiftedZero:
            def variance(self, eps):  # elementwise, like the package's models
                return np.where(eps > 0.015, model.variance(eps), 0.0)

        pi = optimal_allocation(rule, ShiftedZero(), 0.01)
        assert pi[0] == pytest.approx(1e-6 / (1 + 1e-6) , rel=1e-6)
        assert sum(pi) == pytest.approx(1.0, abs=1e-15)

    def test_equals_the_split_of_the_level_variances(self):
        model = ProductContractionString(gamma=0.1, ell=5)
        rule = build_rule([1, 3, 5], "optimal")
        eps = np.geomspace(1e-5, 0.15, 50).reshape(5, 10)
        split = optimal_split(rule, model.variance(eps[..., None] * np.asarray(rule.scales)))
        pi = optimal_allocation(rule, model, eps)
        assert pi.shape == (5, 10, 3)
        assert np.array_equal(pi.view(np.uint64), split.view(np.uint64))
        assert optimal_allocation(rule, model, 0.01) == tuple(
            optimal_split(rule, model.variance(0.01 * np.asarray(rule.scales))).tolist())

    def test_negative_variance_rejected(self):
        with pytest.raises(AllocationError, match="negative variance"):
            optimal_split(build_rule([1, 3]), np.array([[0.1, 0.2], [0.1, -1e-3]]))

    def test_all_zero_variance_rejected(self):
        class Degenerate:
            def variance(self, eps):
                return 0.0

        with pytest.raises(AllocationError, match="allocation undefined"):
            optimal_allocation(build_rule([1, 3]), Degenerate(), 0.01)


def _package_callables():
    """Every function, class and method the package's modules define."""
    import zneboundary

    for info in pkgutil.iter_modules(zneboundary.__path__):
        module = importlib.import_module(f"zneboundary.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):  # its signature is that of its __init__
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_callable_takes_an_allocation_policy_argument():
    # the rule owns its allocation policy; no caller re-supplies it
    checked = []
    for qualname, obj in _package_callables():
        params = inspect.signature(obj).parameters
        assert not {"realloc", "allocation"} & set(params), qualname
        checked.append(qualname)
    assert {"mse.sample_count_table", "resample._TableEstimator.__init__",
            "boundary.theoretical_boundary", "fits.constant_check"} <= set(checked)
