"""Numeric oracle for the two-group adapted-loss analysis.

The scalar setting: tasks come from two groups with probabilities p1 >= p2;
group-g tasks have target x_g and task loss (theta - x_g)^2.  One inner
gradient step with rate alpha_g turns the residual (theta - x_g) into
(1 - 2*alpha_g) * (theta - x_g) under the implemented descent convention
``theta_i = theta - alpha * dL/dtheta``.

The closed-form results this module cross-checks were derived with the
opposite step sign, which yields (1 + 2*alpha_g) residual factors instead, so
every numeric routine takes a ``convention`` argument: "descent" (the trainer
convention, default) or "expansion" (matching the derivation's algebra).
Closed forms are validated against the numeric minimizer rather than trusted
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "TwoGroupSpec",
    "theta_star_fixed",
    "theta_star_adaptive",
    "alpha2_equalizing",
    "adapted_group_losses",
    "minimize_adapted_loss",
    "verify_lemmas",
    "lemma2_condition",
    "LemmaReport",
    "bound_check",
    "BoundReport",
]

CONVENTIONS = ("descent", "expansion")


@dataclass(frozen=True)
class TwoGroupSpec:
    """Two-group task population with per-group inner rates."""

    p1: float
    p2: float
    x1: float
    x2: float
    alpha1: float
    alpha2: Optional[float] = None  # None means: both groups use alpha1

    def __post_init__(self):
        if not (self.p1 > 0.0 and self.p2 > 0.0):
            raise ConfigError("group probabilities must be positive")
        if abs(self.p1 + self.p2 - 1.0) > 1e-12:
            raise ConfigError("group probabilities must sum to 1")
        if not np.all(np.isfinite((self.x1, self.x2) + self.rates())):
            raise ConfigError("x1, x2, alpha1 and alpha2 must be finite")

    def rates(self):
        a2 = self.alpha1 if self.alpha2 is None else self.alpha2
        return float(self.alpha1), float(a2)


def _require_finite(what: str, values: dict) -> None:
    """Reject inputs whose ``what`` overflowed: a verdict drawn from inf or
    NaN would be meaningless (NaN compares as a pass)."""
    bad = [name for name, value in values.items() if not np.all(np.isfinite(value))]
    if bad:
        raise ConfigError(f"{what} overflowed at these inputs: {', '.join(bad)} not finite")


def _residual_factor(alpha: float, convention: str) -> float:
    if convention == "descent":
        return 1.0 - 2.0 * alpha
    if convention == "expansion":
        return 1.0 + 2.0 * alpha
    raise ConfigError(f"unknown convention '{convention}' (use one of {CONVENTIONS})")


# ---------------------------------------------------------------------------
# closed forms


def theta_star_fixed(spec: TwoGroupSpec) -> float:
    """Optimal meta-parameter under one shared inner rate: the weighted mean."""
    return (spec.x2 * spec.p2 + spec.x1 * spec.p1) / (spec.p2 + spec.p1)


def theta_star_adaptive(spec: TwoGroupSpec) -> float:
    """Optimal meta-parameter with per-group rates, in the derivation algebra.

    Weights carry (2*alpha + 1)^2 factors, i.e. the "expansion" convention;
    the numeric cross-check must simulate that same convention.
    """
    a1, a2 = spec.rates()
    w1 = (2.0 * a1 + 1.0) ** 2 * spec.p1
    w2 = (2.0 * a2 + 1.0) ** 2 * spec.p2
    return (w1 * spec.x1 + w2 * spec.x2) / (w1 + w2)


def alpha2_equalizing(alpha1: float, p1: float, p2: float) -> float:
    """Minor-group rate paired with alpha1 in the group-balance argument.

    Reads the derivation's undefined q1/q2 ratio as p1/p2.  The formula comes
    from the "expansion" algebra; under the descent step the returned rate
    is at least as contractive as alpha1 (|1 - 2*alpha2| <= |1 - 2*alpha1|)
    only while alpha2 <= 1 - alpha1, i.e. while
    (2*alpha1 + 1) * sqrt(p1/p2) <= 3 - 2*alpha1 (for p1 >= p2 and
    alpha1 < 1/2).  Past that point it overshoots and the minor group's step
    expands its residual.
    """
    if p1 <= 0 or p2 <= 0:
        raise ConfigError("group probabilities must be positive")
    return ((2.0 * alpha1 + 1.0) * np.sqrt(p1 / p2) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# numeric simulation


def _simulated_loss(theta: float, spec: TwoGroupSpec, fixed: bool, convention: str) -> float:
    """Population adapted loss at theta, simulating one true inner step."""
    a1, a2 = spec.rates()
    if fixed:
        a2 = a1
    total = 0.0
    for p, x, a in ((spec.p1, spec.x1, a1), (spec.p2, spec.x2, a2)):
        # task loss (theta - x)^2 has gradient 2 (theta - x)
        g = 2.0 * (theta - x)
        adapted = theta - a * g if convention == "descent" else theta + a * g
        total += p * (adapted - x) ** 2
    return total


def adapted_group_losses(theta: float, spec: TwoGroupSpec, fixed: bool, convention: str):
    """Per-group squared residuals after the inner step, at meta-parameter theta."""
    a1, a2 = spec.rates()
    if fixed:
        a2 = a1
    out = []
    for x, a in ((spec.x1, a1), (spec.x2, a2)):
        g = 2.0 * (theta - x)
        adapted = theta - a * g if convention == "descent" else theta + a * g
        out.append((adapted - x) ** 2)
    return tuple(out)


def minimize_adapted_loss(spec: TwoGroupSpec, fixed: bool, convention: str = "descent"):
    """Brute-force scalar minimization: golden section plus parabolic polish.

    Returns (theta, loss).  Tolerance 1e-10 on theta; the objective is exactly
    quadratic so one three-point parabola fit after bracketing is exact to
    machine precision.
    """
    _residual_factor(0.0, convention)  # validates the convention string
    span = abs(spec.x2 - spec.x1) + 1.0
    lo = min(spec.x1, spec.x2) - 2.0 * span
    hi = max(spec.x1, spec.x2) + 2.0 * span

    def f(t):
        return _simulated_loss(t, spec, fixed, convention)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-10 * span:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)

    # gradient refinement: finite-difference Newton steps with wide spacing.
    # Near the bottom the golden-section comparisons drown in roundoff, so the
    # refinement accepts any step that does not climb by more than noise.
    h = 0.5 * span
    for _ in range(3):
        f0, f1, f2 = f(mid - h), f(mid), f(mid + h)
        curv = (f0 - 2.0 * f1 + f2) / (h * h)
        slope = (f2 - f0) / (2.0 * h)
        if curv <= 0.0:
            break
        step = slope / curv
        candidate = mid - step
        if f(candidate) <= f1 + 1e-9 * (abs(f1) + 1.0):
            mid = candidate
        if abs(step) < 1e-13 * span:
            break
    return mid, f(mid)


@dataclass(frozen=True)
class LemmaReport:
    theta_star: float
    theta_star_prime: float
    L_star: float
    L_star_prime: float
    group_losses_fixed: tuple
    group_losses_adaptive: tuple
    lemma1_holds: bool
    lemma2_holds: bool


def verify_lemmas(spec: TwoGroupSpec, convention: str = "descent", tol: float = 1e-10) -> LemmaReport:
    """Numeric verdicts for the two-group claims, oracle-grade.

    lemma1: at the fixed-rate optimum the major group's adapted loss does not
    exceed the minor group's.  lemma2: with the per-group rates of ``spec``
    (typically alpha2 from alpha2_equalizing), the adaptive optimum does not
    increase total loss, and the minor group's adapted loss does not increase
    either.  All quantities come from numeric minimization.

    Inputs whose losses overflow are a ConfigError.

    Under the descent convention with p1 >= p2, lemma2 is equivalent to
    |1 - 2*alpha2| <= |1 - 2*alpha1|: with r = (1-2*alpha2)^2 / (1-2*alpha1)^2
    the adaptive/fixed total-loss ratio is r / (p1 + p2*r), which is at most
    1 exactly when r <= 1, and the minor group's ratio r / (p1 + p2*r)^2 is
    then at most 1 as well.
    """
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tol must be finite and >= 0, got {tol}")
    with np.errstate(over="ignore", invalid="ignore"):
        theta_f, l_star = minimize_adapted_loss(spec, fixed=True, convention=convention)
        theta_a, l_star_prime = minimize_adapted_loss(spec, fixed=False, convention=convention)
        fixed_groups = adapted_group_losses(theta_f, spec, fixed=True, convention=convention)
        adaptive_groups = adapted_group_losses(theta_a, spec, fixed=False, convention=convention)
    _require_finite("the adapted losses", {
        "theta_star": theta_f, "theta_star_prime": theta_a, "L_star": l_star,
        "L_star_prime": l_star_prime, "group_losses_fixed": fixed_groups,
        "group_losses_adaptive": adaptive_groups})

    major_first = spec.p1 >= spec.p2
    if major_first:
        lemma1 = fixed_groups[0] <= fixed_groups[1] + tol
    else:
        lemma1 = fixed_groups[1] <= fixed_groups[0] + tol
    lemma2 = (l_star_prime <= l_star + tol) and (adaptive_groups[1] <= fixed_groups[1] + tol)
    return LemmaReport(
        theta_star=theta_f,
        theta_star_prime=theta_a,
        L_star=l_star,
        L_star_prime=l_star_prime,
        group_losses_fixed=fixed_groups,
        group_losses_adaptive=adaptive_groups,
        lemma1_holds=bool(lemma1),
        lemma2_holds=bool(lemma2),
    )


def lemma2_condition(alpha1: float, alpha2: float) -> bool:
    """Lemma 2's exact condition ``|1-2*alpha2| <= |1-2*alpha1|``; it is
    equivalent to ``verify_lemmas(...).lemma2_holds`` under the descent
    convention with p1 >= p2."""
    return abs(1.0 - 2.0 * alpha2) <= abs(1.0 - 2.0 * alpha1)


# ---------------------------------------------------------------------------
# loss-gap bound bookkeeping


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    first_order_rhs: float  # includes the embedding term
    embedding_term: float
    holds_first_order: bool  # pairwise triangle inequality on first-order terms
    holds_full: bool  # informational: lhs <= first_order_rhs


def _grad_sq_norm(g) -> float:
    arr = np.asarray(g, dtype=np.float64)
    if arr.ndim == 0:
        # caller passed the gradient norm directly; x * x overflows to inf, x ** 2 raises
        norm = float(arr)
        return norm * norm
    return float(np.dot(arr.ravel(), arr.ravel()))


def bound_check(
    losses: Sequence[float],
    grads: Sequence,
    alphas: Sequence[float],
    embeddings: Sequence,
) -> BoundReport:
    """Loss-gap accounting over a batch of users.

    lhs sums |L_i - L_j| over unordered pairs.  first_order_rhs is
    sum_i (n-1) * ||grad_i||^2 * |alpha_i| plus the embedding term, which is
    n*(n-1) times the largest user-embedding norm (also reported on its own).
    ``grads`` entries may be gradient vectors or plain gradient norms
    (scalars).  ``holds_first_order`` checks, for every pair,
    | s_i - s_j | <= s_i + s_j with s_i = ||grad_i||^2 |alpha_i|, which is the
    triangle inequality and must always come back true.  Inputs that make
    any bound term overflow are a ConfigError.
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    if n < 2:
        raise ConfigError("bound_check needs at least two users")
    if not (len(grads) == n == len(alphas) == len(embeddings)):
        raise ConfigError("losses, grads, alphas, embeddings must have equal length")

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.array([_grad_sq_norm(g) * abs(a) for g, a in zip(grads, alphas)])
        lhs = 0.0
        pairwise_ok = True
        for i in range(n):
            for j in range(i + 1, n):
                lhs += abs(losses[i] - losses[j])
                if abs(s[i] - s[j]) > s[i] + s[j] + 1e-12:
                    pairwise_ok = False
        h_max = max(float(np.linalg.norm(np.asarray(h, dtype=np.float64))) for h in embeddings)
        emb_term = float(n * (n - 1) * h_max)
        first_order = float((n - 1) * s.sum()) + emb_term
    _require_finite("the loss-gap bound", {
        "bound_lhs": lhs, "bound_first_order_rhs": first_order,
        "bound_embedding_term": emb_term})
    return BoundReport(
        lhs=float(lhs),
        first_order_rhs=first_order,
        embedding_term=emb_term,
        holds_first_order=bool(pairwise_ok),
        holds_full=bool(lhs <= first_order),
    )
