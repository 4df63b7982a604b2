"""Tests for the two-group closed forms and their brute-force oracles.

The numeric minimizer is the ground truth here: closed forms are trusted only
where they agree with it.  The two inner-step sign conventions are exercised
explicitly because the closed forms for the adaptive optimum are only
consistent with the expansion algebra, while the lemma verdicts are defined
under the descent rule actually used by the learners.
"""

import numpy as np
import pytest

from metarec.errors import ConfigError
from metarec.lemma_oracle import (
    BoundReport,
    TwoGroupSpec,
    adapted_group_losses,
    alpha2_equalizing,
    bound_check,
    minimize_adapted_loss,
    theta_star_adaptive,
    theta_star_fixed,
    verify_lemmas,
)


def random_spec(rng, equalized=False):
    p1 = rng.uniform(0.5, 0.99)
    gap = rng.uniform(0.1, 5.0)
    x1 = rng.uniform(-3.0, 3.0)
    a1 = rng.uniform(0.0, 0.2)
    a2 = alpha2_equalizing(a1, p1, 1.0 - p1) if equalized else None
    return TwoGroupSpec(p1=p1, p2=1.0 - p1, x1=x1, x2=x1 + gap, alpha1=a1, alpha2=a2)


class TestSpecValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            TwoGroupSpec(p1=0.7, p2=0.2, x1=0.0, x2=1.0, alpha1=0.1)

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ConfigError):
            TwoGroupSpec(p1=1.0, p2=0.0, x1=0.0, x2=1.0, alpha1=0.1)

    @pytest.mark.parametrize("field", ["x1", "x2", "alpha1", "alpha2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_preferences_and_rates_rejected(self, field, value):
        values = dict(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1, alpha2=0.2)
        values[field] = value
        with pytest.raises(ConfigError, match="must be finite"):
            TwoGroupSpec(**values)

    def test_rates_default_to_shared_alpha1(self):
        spec = TwoGroupSpec(p1=0.6, p2=0.4, x1=0.0, x2=1.0, alpha1=0.2)
        assert spec.rates() == (0.2, 0.2)


class TestThetaStarFixed:
    def test_symmetric_groups_sit_at_zero(self):
        spec = TwoGroupSpec(p1=0.5, p2=0.5, x1=-1.0, x2=1.0, alpha1=0.1)
        assert theta_star_fixed(spec) == 0.0

    def test_single_group_limit(self):
        spec = TwoGroupSpec(p1=1.0 - 1e-12, p2=1e-12, x1=2.0, x2=5.0, alpha1=0.1)
        assert theta_star_fixed(spec) == pytest.approx(2.0, abs=1e-10)

    def test_weighted_mean_value(self):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        assert theta_star_fixed(spec) == pytest.approx(0.3, abs=1e-12)

    def test_matches_numeric_minimizer(self):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        theta, _ = minimize_adapted_loss(spec, fixed=True, convention="descent")
        assert abs(theta_star_fixed(spec) - theta) < 1e-8


class TestThetaStarAdaptive:
    def test_equal_rates_reduce_to_fixed(self):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1, alpha2=0.1)
        assert theta_star_adaptive(spec) == pytest.approx(theta_star_fixed(spec), abs=1e-14)

    def test_symmetry_sits_at_zero(self):
        spec = TwoGroupSpec(p1=0.5, p2=0.5, x1=-1.0, x2=1.0, alpha1=0.3, alpha2=0.3)
        assert theta_star_adaptive(spec) == pytest.approx(0.0, abs=1e-14)

    def test_worked_example_value(self):
        spec = TwoGroupSpec(p1=0.8, p2=0.2, x1=0.0, x2=1.0, alpha1=0.1, alpha2=0.7)
        assert theta_star_adaptive(spec) == pytest.approx(0.5, abs=1e-12)

    def test_worked_example_matches_expansion_oracle(self):
        spec = TwoGroupSpec(p1=0.8, p2=0.2, x1=0.0, x2=1.0, alpha1=0.1, alpha2=0.7)
        theta, _ = minimize_adapted_loss(spec, fixed=False, convention="expansion")
        assert abs(theta_star_adaptive(spec) - theta) < 1e-8


class TestAlpha2Equalizing:
    def test_zero_rate_symmetric_groups(self):
        assert alpha2_equalizing(0.0, 0.5, 0.5) == 0.0

    def test_hand_arithmetic_small(self):
        assert alpha2_equalizing(0.1, 0.8, 0.2) == pytest.approx(0.7, abs=1e-12)

    def test_hand_arithmetic_large(self):
        assert alpha2_equalizing(0.25, 0.9, 0.1) == pytest.approx(1.75, abs=1e-12)

    def test_equalizes_adapted_group_losses_under_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = random_spec(rng, equalized=True)
            theta = theta_star_adaptive(spec)
            l1, l2 = adapted_group_losses(theta, spec, fixed=False, convention="expansion")
            # population-weighted square residuals coincide at the optimum
            assert spec.p1 * l1 == pytest.approx(spec.p2 * l2, rel=1e-8, abs=1e-12)


class TestMinimizer:
    def test_closed_form_agreement_fixed(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            spec = random_spec(rng)
            theta, _ = minimize_adapted_loss(spec, fixed=True, convention="descent")
            worst = max(worst, abs(theta - theta_star_fixed(spec)))
        assert worst < 1e-8

    def test_closed_form_agreement_adaptive(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            spec = random_spec(rng, equalized=True)
            theta, _ = minimize_adapted_loss(spec, fixed=False, convention="expansion")
            worst = max(worst, abs(theta - theta_star_adaptive(spec)))
        assert worst < 1e-8

    def test_returned_loss_is_the_minimum_nearby(self):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        theta, loss = minimize_adapted_loss(spec, fixed=True, convention="descent")
        for delta in (-1e-3, 1e-3, -0.1, 0.1):
            l1, l2 = adapted_group_losses(theta + delta, spec, fixed=True, convention="descent")
            assert spec.p1 * l1 + spec.p2 * l2 >= loss - 1e-15

    def test_unknown_convention_rejected(self):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        with pytest.raises(ConfigError):
            minimize_adapted_loss(spec, fixed=True, convention="midpoint")


class TestVerifyLemmas:
    def test_worked_example_both_lemmas_hold(self):
        a2 = alpha2_equalizing(0.1, 0.7, 0.3)
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1, alpha2=a2)
        report = verify_lemmas(spec)
        assert report.lemma1_holds
        assert report.lemma2_holds

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        spec = TwoGroupSpec(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        with pytest.raises(ConfigError, match="tol must be finite"):
            verify_lemmas(spec, tol=tol)

    def test_symmetric_groups_hold_with_equality(self):
        a2 = alpha2_equalizing(0.1, 0.5, 0.5)
        spec = TwoGroupSpec(p1=0.5, p2=0.5, x1=0.0, x2=1.0, alpha1=0.1, alpha2=a2)
        report = verify_lemmas(spec)
        l1, l2 = report.group_losses_fixed
        assert l1 == pytest.approx(l2, abs=1e-10)
        assert report.lemma1_holds
        assert report.lemma2_holds
        assert report.L_star_prime == pytest.approx(report.L_star, abs=1e-10)

    def test_lemma2_holds_when_equalized_step_is_contractive(self):
        # alpha2 = 0.7 <= 1 - alpha1: |1 - 1.4| = 0.4 <= |1 - 0.2| = 0.8
        a2 = alpha2_equalizing(0.1, 0.8, 0.2)
        spec = TwoGroupSpec(p1=0.8, p2=0.2, x1=0.0, x2=1.0, alpha1=0.1, alpha2=a2)
        report = verify_lemmas(spec)
        assert report.lemma2_holds
        # r = 0.25, so L*'/L* = r / (p1 + p2*r) = 0.25 / 0.85
        assert report.L_star_prime / report.L_star == pytest.approx(0.25 / 0.85, rel=1e-8)

    def test_lemma2_fails_when_equalized_step_overshoots(self):
        # alpha2 = 1.75 > 1 - alpha1: |1 - 3.5| = 2.5 > |1 - 0.5| = 0.5
        a2 = alpha2_equalizing(0.25, 0.9, 0.1)
        spec = TwoGroupSpec(p1=0.9, p2=0.1, x1=0.0, x2=1.0, alpha1=0.25, alpha2=a2)
        report = verify_lemmas(spec)
        assert not report.lemma2_holds
        # r = 25, so L*'/L* = 25 / (0.9 + 2.5)
        assert report.L_star_prime / report.L_star == pytest.approx(25.0 / 3.4, rel=1e-8)

    def test_lemma1_across_population_sweep(self):
        for p1 in (0.55, 0.65, 0.75, 0.85, 0.95):
            spec = TwoGroupSpec(p1=p1, p2=1.0 - p1, x1=0.0, x2=1.0, alpha1=0.1)
            report = verify_lemmas(spec)
            assert report.lemma1_holds, f"major/minor ordering failed at p1={p1}"

    def test_lemma1_on_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            spec = random_spec(rng)
            assert verify_lemmas(spec).lemma1_holds

    def test_reports_are_finite_and_ordered(self):
        spec = TwoGroupSpec(p1=0.8, p2=0.2, x1=0.0, x2=2.0, alpha1=0.05, alpha2=0.4)
        report = verify_lemmas(spec)
        for value in (report.theta_star, report.theta_star_prime, report.L_star, report.L_star_prime):
            assert np.isfinite(value)
        assert report.L_star >= 0.0
        assert report.L_star_prime >= 0.0

    @pytest.mark.parametrize("field, value", [("alpha1", 1e200), ("x2", 1e200)])
    def test_losses_that_overflow_are_rejected(self, recwarn, field, value):
        # the squared residuals overflow to inf, and inf - inf would feed NaN
        # verdicts that compare as passes
        fields = dict(p1=0.7, p2=0.3, x1=0.0, x2=1.0, alpha1=0.1)
        fields[field] = value
        with pytest.raises(ConfigError, match="adapted losses overflowed.*L_star"):
            verify_lemmas(TwoGroupSpec(**fields))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestBoundCheck:
    def test_equal_losses_give_zero_lhs(self):
        report = bound_check(
            losses=[2.0, 2.0, 2.0],
            grads=[1.0, 1.0, 1.0],
            alphas=[0.1, 0.1, 0.1],
            embeddings=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        )
        assert report.lhs == 0.0
        assert report.lhs <= report.first_order_rhs
        assert report.holds_first_order

    def test_zero_rates_leave_only_embedding_term(self):
        report = bound_check(
            losses=[1.5, 1.5],
            grads=[3.0, 4.0],
            alphas=[0.0, 0.0],
            embeddings=[[3.0, 4.0], [0.0, 1.0]],
        )
        assert report.lhs == 0.0
        assert report.first_order_rhs == report.embedding_term
        assert report.embedding_term == pytest.approx(2 * 1 * 5.0)

    def test_eight_users_on_scalar_quadratic(self):
        rng = np.random.default_rng(9)
        theta = rng.normal()
        targets = rng.normal(size=8)
        alphas = rng.uniform(0.0, 0.3, size=8)
        losses, grad_norms, embeddings = [], [], []
        for x, a in zip(targets, alphas):
            g = 2.0 * (theta - x)
            adapted = theta - a * g
            losses.append((adapted - x) ** 2)
            grad_norms.append(abs(g))
            embeddings.append([x])
        report = bound_check(losses, grad_norms, alphas, embeddings)
        assert report.holds_first_order  # all 28 pairs

    def test_vector_gradients_match_norm_inputs(self):
        grads_vec = [[3.0, 4.0], [1.0, 0.0]]
        grads_norm = [5.0, 1.0]
        kwargs = dict(losses=[1.0, 2.0], alphas=[0.2, 0.3], embeddings=[[1.0], [2.0]])
        a = bound_check(grads=grads_vec, **kwargs)
        b = bound_check(grads=grads_norm, **kwargs)
        assert a.first_order_rhs == pytest.approx(b.first_order_rhs, rel=1e-12)

    def test_needs_two_users(self):
        with pytest.raises(ConfigError):
            bound_check([1.0], [1.0], [0.1], [[1.0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            bound_check([1.0, 2.0], [1.0], [0.1, 0.2], [[1.0], [2.0]])

    @pytest.mark.parametrize("kwargs, term", [
        # a scalar gradient norm whose square overflows: x ** 2 used to raise
        (dict(losses=[0.0, 1.0], grads=[1e200, 1.0]), "bound_first_order_rhs"),
        (dict(losses=[0.0, np.inf], grads=[1.0, 1.0]), "bound_lhs"),
        (dict(losses=[-1e308, 1e308], grads=[1.0, 1.0]), "bound_lhs"),
    ])
    def test_terms_that_overflow_are_rejected(self, recwarn, kwargs, term):
        with pytest.raises(ConfigError, match=f"bound overflowed.*{term}"):
            bound_check(alphas=[0.1, 0.1], embeddings=[[0.0], [1.0]], **kwargs)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_triangle_inequality_on_random_batches(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = rng.integers(2, 12)
            report = bound_check(
                losses=rng.normal(size=n) ** 2,
                grads=list(np.abs(rng.normal(size=n))),
                alphas=list(rng.uniform(-0.5, 0.5, size=n)),
                embeddings=[rng.normal(size=3) for _ in range(n)],
            )
            assert isinstance(report, BoundReport)
            assert report.holds_first_order
