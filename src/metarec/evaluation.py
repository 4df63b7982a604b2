"""Metric suite and statistics: MSE, nDCG@K, AUC, weighted NEL, t-test.

Per-user metrics are aggregated user-first (each user contributes one value,
query-set sizes never weight the mean).  The two-sample test is the classic
equal-variance Student's t with a two-tailed p-value computed through the
regularized incomplete beta function, so the core carries no statistics
dependency; reference implementations are only consulted in the tests.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, NumericError

NEL_CLAMP = 1e-12
NEL_CLICK_WEIGHT = 0.9
NEL_NOCLICK_WEIGHT = 0.1


def mse(residuals_by_user: Mapping) -> Tuple[Dict, float]:
    """Per-user mean squared residual and the unweighted mean over users."""
    per_user: Dict = {}
    for user, residuals in residuals_by_user.items():
        arr = np.asarray(residuals, dtype=np.float64)
        if arr.size == 0:
            warnings.warn(f"user {user!r} has an empty query set; skipped in MSE")
            continue
        per_user[user] = float(np.mean(arr ** 2))
    if not per_user:
        raise DataError("MSE over zero users")
    return per_user, float(np.mean(list(per_user.values())))


def dcg_at_k(gains: np.ndarray, k: int) -> float:
    gains = np.asarray(gains, dtype=np.float64)[:k]
    ranks = np.arange(1, gains.size + 1, dtype=np.float64)
    return float(np.sum((np.exp2(gains) - 1.0) / np.log2(1.0 + ranks)))


def ndcg_at_k(true_ratings, predicted_scores, k: int) -> float:
    """Normalized discounted cumulative gain of the predicted ranking.

    Items are ranked by predicted score descending; equal scores keep their
    input order, so item position doubles as the tie-break id.  A zero ideal
    DCG (all gains zero) returns 1 by convention.
    """
    ratings = np.asarray(true_ratings, dtype=np.float64)
    scores = np.asarray(predicted_scores, dtype=np.float64)
    if ratings.shape != scores.shape or ratings.ndim != 1 or ratings.size == 0:
        raise ConfigError("ratings and scores must be equal-length non-empty vectors")
    if k < 1:
        raise ConfigError("K must be >= 1")
    k = min(k, ratings.size)
    order = np.argsort(-scores, kind="stable")
    ideal = np.sort(ratings)[::-1]
    idcg = dcg_at_k(ideal, k)
    if idcg == 0.0:
        return 1.0
    return dcg_at_k(ratings[order], k) / idcg


def auc(labels, scores) -> float:
    """Mann-Whitney AUC with ties counting one half."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ConfigError("labels and scores must be equal-length vectors")
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise DataError("AUC undefined: both classes must be present")
    # average ranks over the pooled sample
    pooled = np.concatenate([pos, neg])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size, dtype=np.float64)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = ranks[:pos.size].sum()
    u = rank_sum_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def weighted_nel(labels_by_user: Mapping, probs_by_user: Mapping) -> Tuple[Dict, float]:
    """Per-user weighted negative entropy loss and its mean over users.

    Each item contributes -w * y * log(p_click) with w = 0.9 for clicked and
    0.1 for non-clicked items; since y is the click indicator, non-clicked
    items contribute zero.  Probabilities are clamped at 1e-12.
    """
    if set(labels_by_user) != set(probs_by_user):
        raise ConfigError("label and probability mappings must cover the same users")
    per_user: Dict = {}
    for user in labels_by_user:
        y = np.asarray(labels_by_user[user], dtype=np.float64)
        p = np.clip(np.asarray(probs_by_user[user], dtype=np.float64), NEL_CLAMP, None)
        if y.shape != p.shape or y.size == 0:
            raise ConfigError(f"user {user!r} labels and probabilities must match and be non-empty")
        w = np.where(y == 1.0, NEL_CLICK_WEIGHT, NEL_NOCLICK_WEIGHT)
        per_user[user] = float(np.mean(-w * y * np.log(p)))
    return per_user, float(np.mean(list(per_user.values())))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz iteration for the incomplete beta continued fraction
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_test_two_sample(sample_a, sample_b) -> Tuple[float, float]:
    """Equal-variance two-sample Student's t with a two-tailed p-value."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DataError("t-test needs at least two observations per sample")
    na, nb = a.size, b.size
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    df = na + nb - 2
    pooled = ((na - 1) * va + (nb - 1) * vb) / df
    if pooled <= 0.0:
        raise DataError("t-test undefined: pooled variance is zero")
    t = float((a.mean() - b.mean()) / math.sqrt(pooled * (1.0 / na + 1.0 / nb)))
    x = df / (df + t * t)
    p = regularized_incomplete_beta(0.5 * df, 0.5, x)
    return t, float(min(max(p, 0.0), 1.0))


@dataclass(frozen=True)
class MetricsReport:
    """Trial-aggregated view of one metric with a major/minor breakdown."""

    n_trials: int
    mean: float
    sd: float
    major_mean: Optional[float]
    major_sd: Optional[float]
    minor_mean: Optional[float]
    minor_sd: Optional[float]
    p_value: Optional[float]
    per_user: Tuple[Dict, ...]  # one user -> value mapping per trial


def _sd_over_trials(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))


def build_report(per_user_by_trial: Sequence[Mapping], is_major: Mapping) -> MetricsReport:
    """Aggregate per-user metric values over trials with sub-population stats.

    ``per_user_by_trial`` holds one user -> value mapping per trial.
    ``is_major`` maps each user to True (major) or False (minor) and must
    cover every user appearing in any trial.
    """
    trials = [dict(t) for t in per_user_by_trial]
    if not trials:
        raise ConfigError("build_report needs at least one per-trial mapping")
    for t in trials:
        missing = [u for u in t if u not in is_major]
        if missing:
            raise ConfigError(f"major/minor labels missing for users {missing[:5]}")
        if not t:
            raise DataError("a trial carries no per-user values")

    trial_means = [float(np.mean(list(t.values()))) for t in trials]
    majors_by_trial = [[v for u, v in t.items() if is_major[u]] for t in trials]
    minors_by_trial = [[v for u, v in t.items() if not is_major[u]] for t in trials]

    def sub_stats(groups, name):
        if any(len(g) == 0 for g in groups):
            warnings.warn(f"{name} users absent in at least one trial; {name} fields omitted")
            return None, None
        means = [float(np.mean(g)) for g in groups]
        return float(np.mean(means)), _sd_over_trials(means)

    major_mean, major_sd = sub_stats(majors_by_trial, "major")
    minor_mean, minor_sd = sub_stats(minors_by_trial, "minor")

    p_value: Optional[float] = None
    minor_pool = [v for g in minors_by_trial for v in g]
    major_pool = [v for g in majors_by_trial for v in g]
    if major_mean is not None and minor_mean is not None:
        try:
            _, p_value = t_test_two_sample(minor_pool, major_pool)
        except DataError as exc:
            warnings.warn(f"p-value omitted: {exc}")

    return MetricsReport(
        n_trials=len(trials),
        mean=float(np.mean(trial_means)),
        sd=_sd_over_trials(trial_means),
        major_mean=major_mean,
        major_sd=major_sd,
        minor_mean=minor_mean,
        minor_sd=minor_sd,
        p_value=p_value,
        per_user=tuple(trials),
    )
