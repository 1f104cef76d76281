"""Closed-form bounds, feasibility condition, tables, density chain."""

import math
from fractions import Fraction
from math import comb

import pytest

from sparsecolour.bounds import (
    OURS_LINEAR,
    OURS_THREEHALF,
    BoundDomainError,
    alpha_eps_table,
    approx_eps,
    condition_check,
    core_edge_bound,
    core_edge_bound_alpha0,
    core_edge_bound_argmax,
    core_edge_bound_max,
    core_edge_bound_sub,
    critical_sparsity,
    epsilon_for_alpha,
    neighbourhood_deficiency,
    savings_rate,
    strong_edge_constants,
    table_to_csv,
)

# Regression constant for the savings rate at the strong-edge parameters,
# frozen from a 40-digit evaluation: 0.04775829956947482386...
SAVINGS_AT_STRONG_EDGE_PARAMS = 0.047758299569474824


class TestSavingsRate:
    def test_zero_sparsity_gives_zero(self):
        assert savings_rate(0.1, 0.0) == 0.0

    def test_frozen_regression_value(self):
        assert savings_rate(0.0825, 0.345) == pytest.approx(
            SAVINGS_AT_STRONG_EDGE_PARAMS, abs=1e-16
        )

    def test_increasing_in_delta(self):
        # Monotonicity in delta holds throughout the feasible regime (the
        # feasibility condition caps eps below ~0.18); for eps beyond ~0.38
        # the rate peaks before delta=1, so the grid stays at eps <= 0.35.
        for eps in (0.05, 0.15, 0.25, 0.35):
            values = [savings_rate(eps, d / 100) for d in range(0, 101)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_increasing_in_delta_on_feasible_pairs(self):
        from sparsecolour.bounds import condition_check

        for e in range(1, 18):
            eps = e / 100
            feasible = [
                d / 40
                for d in range(1, 41)
                if condition_check(eps, d / 40).satisfied
            ]
            values = [savings_rate(eps, d) for d in feasible]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_eps(self):
        for delta in (0.1, 0.5, 0.9):
            values = [savings_rate(e / 100, delta) for e in range(1, 51)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            savings_rate(1.0, 0.5)

    @pytest.mark.parametrize("delta", [-1.0, -1e-12, 1.0 + 1e-12, 7.0, math.nan, math.inf])
    def test_delta_outside_unit_interval_refused(self, delta):
        with pytest.raises(BoundDomainError, match=rf"delta={delta} outside \[0, 1\]"):
            savings_rate(0.1, delta)

    def test_negative_eps_accepted(self):
        # The last rows of an iteration schedule have eps < 0.
        assert savings_rate(-1.0, 0.5) == pytest.approx(0.0663, abs=1e-4)
        assert savings_rate(0.1, 0.0) == 0.0 and savings_rate(0.1, 1.0) > 0


class TestConditionCheck:
    def test_tiny_eps_passes(self):
        assert condition_check(1e-6, 0.9).satisfied

    def test_large_eps_small_delta_fails(self):
        report = condition_check(0.4, 0.01)
        assert not report.satisfied
        assert report.margin < -0.3

    def test_boundary_pair_is_within_tolerance(self):
        report = condition_check(0.0825, 0.345)
        assert abs(report.margin) < 5e-4
        assert len(report.margin_str.replace("-0.", "").lstrip("0")) >= 25
        assert report.margin == pytest.approx(report.margin_float64, abs=1e-12)

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            condition_check(0.5, 0.5)
        with pytest.raises(BoundDomainError):
            condition_check(0.0, 0.5)

    @pytest.mark.parametrize("delta", [-1.0, 1.5, math.nan])
    def test_delta_domain(self, delta):
        # A negative delta used to give a complex margin and a TypeError.
        with pytest.raises(BoundDomainError, match=rf"delta={delta} outside \[0, 1\]"):
            condition_check(0.05, delta)

    def test_eps_checked_before_delta(self):
        with pytest.raises(BoundDomainError, match="eps=0.6 outside"):
            condition_check(0.6, -1.0)


class TestApproxEps:
    def test_single_round_value_at_024(self):
        assert approx_eps(0.24, "bruhn_joos") == pytest.approx(0.0347, abs=5e-4)

    def test_sqrt_e_relation_between_variants(self):
        root_e = math.sqrt(math.e)
        assert abs(0.3012 - root_e * 0.1827) < 5e-4
        assert abs(0.1283 - root_e * 0.0778) < 5e-4

    def test_zero(self):
        assert approx_eps(0.0, "ours") == 0.0

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            approx_eps(0.91, "ours")
        with pytest.raises(BoundDomainError):
            approx_eps(0.5, "nope")


class TestCriticalSparsity:
    def test_alpha_third_at_zero_eps(self):
        assert critical_sparsity(Fraction(1, 3), Fraction(0)) == Fraction(1, 18)

    def test_boundary_rejected(self):
        with pytest.raises(BoundDomainError):
            critical_sparsity(0.3, 0.15)

    def test_eightfold_improvement(self):
        for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(3, 20)):
            ours = critical_sparsity(Fraction(1, 3), eps)
            previous = Fraction(1, 4) * (Fraction(1, 6) - eps) ** 2
            assert ours / previous == 8


class TestNeighbourhoodDeficiency:
    def test_truncates_at_zero(self):
        assert neighbourhood_deficiency(3, 10, 5) == 0
        assert neighbourhood_deficiency(5, 5, 5) == 0  # span 1 -> C(1,2)=0

    def test_exact_rational(self):
        # span 6: half of C(6,2) = 15/2, equal to sum_{j=1..5} j / 2
        assert neighbourhood_deficiency(10, 10, 5) == Fraction(15, 2)
        assert neighbourhood_deficiency(10, 10, 5) == sum(
            Fraction(j, 2) for j in range(1, 6)
        )

    @pytest.mark.parametrize("max_degree", [50, 100, 500])
    @pytest.mark.parametrize("alpha", [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)])
    def test_dominates_density_guarantee(self, max_degree, alpha):
        # mirrors the derivation: k = ceil((1-eps)(D+1)), omega the integer
        # clique bound, the count must dominate the sparsity guarantee
        for j in range(10):
            eps = alpha * j / 20
            if 2 * eps >= alpha:
                continue
            k = -((-(1 - eps) * (max_degree + 1)) // 1)
            k = int(k)
            omega = int((1 - alpha) * (max_degree + 1))
            count = neighbourhood_deficiency(k, max_degree, omega)
            target = critical_sparsity(alpha, eps) * comb(max_degree, 2)
            assert count >= target


class TestCliqueRatioTable:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.30, 0.0356), (0.90, 0.0752), (0.02, 0.0029), (0.44, 0.0477)],
    )
    def test_reference_entries(self, alpha, expected):
        assert epsilon_for_alpha(alpha) == pytest.approx(expected, abs=1e-9)

    def test_grid_too_fine_for_its_step_count(self):
        # 0.5 / 1e-320 overflows to inf; 1e-308 still gives a finite count.
        with pytest.raises(BoundDomainError) as err:
            epsilon_for_alpha(0.3, 1e-320)
        assert str(err.value) == "grid=1e-320 too fine: 0.5 / grid overflows"
        assert epsilon_for_alpha(0.3, 1e-308) == pytest.approx(0.0356, abs=1e-4)

    @pytest.mark.parametrize("grid", [1e-4, 3e-5, 1e-3, 0.01, 0.05])
    def test_bisection_matches_descending_scan(self, grid):
        for i in range(1, 46):
            alpha = i / 50.0
            a2 = OURS_LINEAR * alpha / 2.0
            a3 = OURS_THREEHALF * alpha * alpha / (2.0 * math.sqrt(2.0))
            scanned = 0.0
            for j in range(int(round(0.5 / grid)) - 1, -1, -1):
                t = 1.0 - 2.0 * j * grid
                if j * grid <= a2 * t * t - a3 * t * t * t:
                    scanned = j * grid
                    break
            assert epsilon_for_alpha(alpha, grid) == scanned

    def test_alpha_domain(self):
        with pytest.raises(BoundDomainError, match=r"alpha=0 outside \(0, 1\]"):
            epsilon_for_alpha(0)

    def test_table_shape_and_monotonicity(self):
        rows = alpha_eps_table()
        assert len(rows) == 45
        eps = [e for _, e in rows]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_csv_format(self):
        csv = table_to_csv(alpha_eps_table())
        lines = csv.strip().splitlines()
        assert lines[0] == "alpha,eps"
        assert lines[1] == "0.02,0.0029"
        assert len(lines) == 46


class TestCoreEdgeBoundChain:
    @pytest.mark.parametrize(
        "bound, message",
        [
            (lambda: core_edge_bound(1.0, 1.0, 0.0, 0.1), r"alpha \+ beta must be < 2"),
            (lambda: core_edge_bound_sub(1.5, 0.5, 0.1, 0.0), r"alpha \+ beta must be < 2"),
            (lambda: core_edge_bound_alpha0(2.0, 0.1, 0.0), "beta must be < 2"),
        ],
        ids=["bound", "sub", "alpha0"],
    )
    def test_domain(self, bound, message):
        with pytest.raises(BoundDomainError, match=message):
            bound()

    def test_substitution_identity(self):
        # the x = beta + gamma/2 substitution is exact
        import random

        rng = random.Random(4)
        for _ in range(500):
            eta = rng.uniform(0, 0.3)
            beta = rng.uniform(0, eta)
            alpha = rng.uniform(0, eta - beta)
            gamma = rng.uniform(0, 2)
            direct = core_edge_bound(alpha, beta, gamma, eta)
            subbed = core_edge_bound_sub(alpha, beta, eta, beta + gamma / 2)
            assert direct == pytest.approx(subbed, abs=1e-12)

    def test_reference_value_below_1309(self):
        value = core_edge_bound_max(0.164, 0.164)
        assert value == pytest.approx(1.3083215010517459, abs=1e-12)
        assert value < 1.309

    def test_chain_domination_on_grid(self):
        steps = 12
        for bi in range(steps + 1):
            eta = 0.3
            beta = eta * bi / steps
            for ai in range(steps + 1):
                alpha = (eta - beta) * ai / steps
                for gi in range(steps + 1):
                    gamma = 2.0 * gi / steps
                    x = beta + gamma / 2
                    f = core_edge_bound(alpha, beta, gamma, eta)
                    f1 = core_edge_bound_alpha0(beta, eta, x)
                    f2 = core_edge_bound_max(beta, eta)
                    f2_max = core_edge_bound_max(eta, eta)
                    assert f <= f1 + 1e-9
                    assert f1 <= f2 + 1e-9
                    assert f2 <= f2_max + 1e-9

    def test_alpha0_maximizer_stationary_and_concave(self):
        h = 1e-5
        for bi in range(7):
            beta = 0.3 * bi / 6
            x_star = core_edge_bound_argmax(beta)
            up = core_edge_bound_alpha0(beta, 0.2, x_star + h)
            down = core_edge_bound_alpha0(beta, 0.2, x_star - h)
            mid = core_edge_bound_alpha0(beta, 0.2, x_star)
            derivative = (up - down) / (2 * h)
            second = (up - 2 * mid + down) / (h * h)
            assert abs(derivative) < 1e-8
            assert second < 0

    def test_max_increasing_in_beta(self):
        for eta in (0.05, 0.164, 0.3):
            values = [core_edge_bound_max(eta * i / 40, eta) for i in range(41)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_gamma_map_monotone(self):
        values = [
            x / 100 * math.exp(-1 / (2 * (1 - x / 100))) for x in range(0, 51)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestStrongEdgeConstants:
    def test_report(self):
        report = strong_edge_constants()
        assert report.coefficient == 1.835
        assert report.coefficient_exact == Fraction(367, 200)
        assert report.core_bound < 1.309
        assert report.derived_delta == pytest.approx(0.3458, abs=5e-4)
        assert abs(report.condition.margin) < 5e-4
