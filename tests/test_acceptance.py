"""Acceptance gate: one numbered check per release criterion.

Each test prints exactly one line, `criterion N: PASS (...)` or
`criterion N: FAIL (...)`, and then asserts the same verdict, so the
suite's exit status reflects the gate.  Run with

    python3 -m pytest tests/test_acceptance.py -s

to see every line as it prints; without -s pytest still shows the lines
for failing criteria.

Criterion 1's third clause checks lemma 2 against its exact condition.
Under the descent step theta_i = theta - alpha * dL/dtheta, let
c = (1-2*alpha1)^2, r = (1-2*alpha2)^2 / c and D = x2 - x1.  Then
L* = c*p1*p2*D^2 and L*' = c*p1*p2 * r/(p1 + p2*r) * D^2, so L*' <= L*
exactly when r <= 1; for p1 >= p2 the minor group's loss ratio
r/(p1 + p2*r)^2 is then at most 1 as well.  Lemma 2 therefore holds exactly
when |1-2*alpha2| <= |1-2*alpha1|, i.e. when the equalized minor step is at
least as contractive as the shared one; for the equalizing rate that is
alpha2 <= 1 - alpha1, or (2*alpha1+1)*sqrt(p1/p2) <= 3 - 2*alpha1.  The
sampled domain (p1 in [0.5, 0.99], alpha1 in [0, 0.2]) reaches past that
boundary, so the clause asserts that the oracle's verdict matches the
condition on every draw: lemma 2 holds on all contractive draws and fails on
all others.
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy import stats

from metarec.config import ExperimentConfig, MovielensConfig, SyntheticConfig
from metarec.datagen import generate_corpus
from metarec.evaluation import auc, mse, ndcg_at_k, t_test_two_sample, weighted_nel
from metarec.lemma_oracle import (
    TwoGroupSpec,
    alpha2_equalizing,
    bound_check,
    minimize_adapted_loss,
    theta_star_adaptive,
    theta_star_fixed,
    verify_lemmas,
)
from metarec.memory_tree import TreeMemory
from metarec.meta_learners import LrHead, MetaTrainer, TrainerConfig, train
from metarec.model import forward, grad, loss, user_embedding
from metarec.params import ParamSet, axpy_update
from metarec.runner import run_experiment
from metarec.tasks import PreprocessConfig, synthetic_splits


def verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def read_report(path):
    """Aggregate report rows keyed by metric name, values as floats."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    header, out = rows[0], {}
    for row in rows[1:]:
        rec = dict(zip(header, row))
        metric = rec.pop("metric")
        out[metric] = {k: float(v) if v else None for k, v in rec.items()}
    return out


# ---------------------------------------------------------------------------
# criterion 1: two-group lemma oracle over 1000 random populations


def test_criterion_1_lemma_oracle_suite():
    rng = np.random.default_rng(7)
    t0 = time.time()
    n = 1000
    worst_gap = 0.0
    lemma1_count = lemma2_count = contractive_count = agree_count = 0
    for _ in range(n):
        p1 = rng.uniform(0.5, 0.99)
        gap = rng.uniform(0.1, 5.0)
        x1 = rng.uniform(-3.0, 3.0)
        a1 = rng.uniform(0.0, 0.2)
        a2 = alpha2_equalizing(a1, p1, 1.0 - p1)
        spec = TwoGroupSpec(p1=p1, p2=1.0 - p1, x1=x1, x2=x1 + gap,
                            alpha1=a1, alpha2=a2)
        theta_f, _ = minimize_adapted_loss(spec, fixed=True, convention="descent")
        worst_gap = max(worst_gap, abs(theta_f - theta_star_fixed(spec)))
        theta_a, _ = minimize_adapted_loss(spec, fixed=False, convention="expansion")
        worst_gap = max(worst_gap, abs(theta_a - theta_star_adaptive(spec)))
        report = verify_lemmas(spec)
        contractive = abs(1.0 - 2.0 * a2) <= abs(1.0 - 2.0 * a1)
        lemma1_count += report.lemma1_holds
        lemma2_count += report.lemma2_holds
        contractive_count += contractive
        agree_count += report.lemma2_holds == contractive
    elapsed = time.time() - t0
    ok = (worst_gap < 1e-8 and lemma1_count == n and agree_count == n
          and elapsed < 10.0)
    line = verdict(1, ok, f"closed-form max gap {worst_gap:.1e}; "
                          f"lemma1 ordering {lemma1_count}/{n}; "
                          f"equalized L*' <= L* + 1e-10 in {lemma2_count}/{n}; "
                          f"|1-2a2| <= |1-2a1| in {contractive_count}/{n}; "
                          f"lemma2 agrees with it in {agree_count}/{n}; "
                          f"{elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: outer gradients equal finite differences of the full objective


def joint_fd(objective, paramsets, eps=1e-6):
    """Central finite differences of a scalar function of several ParamSets."""
    out = []
    for which, ps in enumerate(paramsets):
        flat = ps.flat
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            args_up = list(paramsets)
            args_up[which] = ParamSet.wrap(ps.layout, up)
            args_down = list(paramsets)
            args_down[which] = ParamSet.wrap(ps.layout, down)
            fd[i] = (objective(*args_up) - objective(*args_down)) / (2.0 * eps)
        out.append(fd)
    return out


def test_criterion_2_meta_gradient_exactness():
    t0 = time.time()
    worst = 0.0
    n_params = 0
    for draw in range(50):
        algorithm = "reg-paml" if draw % 2 else "paml"
        cfg = TrainerConfig(algorithm=algorithm, epochs=1, batch_size=8,
                            embedding_dim=2, decision_dims=(3, 1),
                            lr_hidden_dims=(3, 2), seed=draw)
        splits = synthetic_splits(0.7, 0.3, 0.0, 1.0, 12, 0.1, seed=draw)
        trainer = MetaTrainer(splits, cfg)
        batch = trainer.train_episodes[:3]
        frozen = [user_embedding(trainer.theta, trainer.spec, ep.user_ids)
                  for ep in batch]
        gamma = cfg.effective_gamma()

        def objective(theta, psi):
            head = LrHead(trainer.spec.user_width, cfg.lr_hidden_dims,
                          cfg.lr_scale, psi=psi)
            value = 0.0
            for ep, h in zip(batch, frozen):
                g_s = grad(theta, trainer.spec, ep.support)
                alpha = head.alpha(h)
                theta_i = axpy_update(theta, g_s, alpha)
                predictions, _ = forward(theta_i, trainer.spec,
                                         ep.query[0], ep.query[1])
                value += loss(predictions, ep.query[2])
                if gamma:
                    value += gamma * g_s.dot(g_s) * abs(alpha)
            return value

        n_params = trainer.theta.flat.size + trainer.head.psi.flat.size
        gradients = trainer.outer_gradients(batch)
        fds = joint_fd(objective, [trainer.theta, trainer.head.psi])
        implemented = np.concatenate([gradients.theta_grad.flat, gradients.psi_grad.flat])
        fd = np.concatenate(fds)
        rel = float(np.linalg.norm(implemented - fd)
                    / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = n_params <= 50 and worst < 1e-4 and elapsed < 60.0
    line = verdict(2, ok, f"{n_params}-parameter model; max relative error "
                          f"{worst:.1e} over 50 draws; {elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: tree search against a linear-scan oracle


def brute_force(points, ids, query, k):
    d2 = ((np.asarray(points) - np.asarray(query)) ** 2).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (d2[i], ids[i]))
    return [(ids[i], float(np.sqrt(d2[i]))) for i in order[:k]]


def test_criterion_3_knn_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 300))
        d = int(rng.integers(2, 33))
        k = int(rng.integers(1, 21))
        points = rng.normal(size=(n, d))
        tree = TreeMemory(dim=d)
        ids = [tree.store_node(p, 1e-3) for p in points]
        query = rng.normal(size=d)
        expected = brute_force(points, ids, query, min(k, n))
        hits = tree.search(query, k=k, touch=False)
        if list(zip(hits.ids.tolist(), hits.distances.tolist())) != expected:
            mismatches += 1

    points = np.random.default_rng(42).normal(size=(500, 8))
    tree = TreeMemory(dim=8)
    ids = [tree.store_node(p, 1e-3) for p in points]
    qrng = np.random.default_rng(43)
    found = total = 0
    for _ in range(100):
        for k in (5, 20):
            query = qrng.normal(size=8)
            true_ids = {nid for nid, _ in brute_force(points, ids, query, k)}
            got = set(tree.search(query, k=k, touch=False).ids.tolist())
            found += len(true_ids & got)
            total += k
    recall = found / total
    elapsed = time.time() - t0
    ok = mismatches == 0 and recall >= 0.9 and elapsed < 30.0
    line = verdict(3, ok, f"search {200 - mismatches}/200 equal to brute "
                          f"force; recall@K {recall:.3f} on 500x8; "
                          f"{elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 4 and 8: imbalanced synthetic experiment, run through the full
# pipeline so the determinism check has report files to compare


IMBALANCE_ALGORITHMS = ("reg-paml", "paml", "maml-fixed")


def imbalance_config(algorithm, output_dir):
    trainer = TrainerConfig(algorithm=algorithm, epochs=1, batch_size=32,
                            embedding_dim=4, decision_dims=(8, 1),
                            lr_hidden_dims=(8, 4), outer_lr=0.02,
                            lr_scale=0.1, fixed_inner_lr=1e-3)
    return ExperimentConfig(
        output_dir=output_dir, trainer=trainer, dataset_kind="synthetic",
        synthetic=SyntheticConfig(p1=0.8, p2=0.2, x1=0.0, x2=1.0,
                                  n_tasks=2000, noise_sd=0.1),
        trials=3, seeds=(0, 1, 2))


@pytest.fixture(scope="module")
def imbalance_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imbalance")
    t0 = time.time()
    runs = {}
    for algorithm in IMBALANCE_ALGORITHMS:
        config = imbalance_config(algorithm, str(root / algorithm))
        runs[algorithm] = (config, run_experiment(config))
    return runs, time.time() - t0


def test_criterion_4_synthetic_imbalance(imbalance_runs):
    runs, elapsed = imbalance_runs
    metrics = {alg: read_report(result.report_path)["query_mse"]
               for alg, (config, result) in runs.items()}
    reg, pam, fix = (metrics[a] for a in IMBALANCE_ALGORITHMS)
    minor_ok = (reg["minor_mean"] < fix["minor_mean"]
                and pam["minor_mean"] < fix["minor_mean"])
    total_ok = (reg["mean"] <= 1.05 * fix["mean"]
                and pam["mean"] <= 1.05 * fix["mean"])
    ok = minor_ok and total_ok and elapsed < 600.0
    line = verdict(4, ok, f"minor MSE reg {reg['minor_mean']:.4f} / paml "
                          f"{pam['minor_mean']:.4f} vs fixed "
                          f"{fix['minor_mean']:.4f}; total {reg['mean']:.4f} / "
                          f"{pam['mean']:.4f} vs {fix['mean']:.4f}; "
                          f"{elapsed:.0f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: metric golden values and the reference t-test


def test_criterion_5_metric_goldens():
    gaps = []

    _, agg = mse({"u": [1.0, -1.0]})
    gaps.append(abs(agg - 1.0))
    _, agg = mse({"a": [1.0], "b": [np.sqrt(3.0)] * 17})
    gaps.append(abs(agg - 2.0))

    expected = (1.0 + 31.0 / np.log2(3.0)) / (31.0 + 1.0 / np.log2(3.0))
    gaps.append(abs(ndcg_at_k([1.0, 5.0], [0.9, 0.1], k=2) - expected))
    gaps.append(abs(ndcg_at_k([3.0, 2.0, 1.0], [0.9, 0.5, 0.1], k=3) - 1.0))

    gaps.append(abs(auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) - 0.75))

    _, agg = weighted_nel({"u": [1.0]}, {"u": [np.exp(-1.0)]})
    gaps.append(abs(agg - 0.9))

    t, p = t_test_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    gaps.append(abs(t))
    gaps.append(abs(p - 1.0))
    a, b = [1.0, 2.0, 3.0, 4.0], [10.0, 11.0, 12.0, 13.0]
    _, p = t_test_two_sample(a, b)
    gaps.append(abs(p - stats.ttest_ind(a, b, equal_var=True).pvalue))
    separated_ok = p < 1e-3

    rng = np.random.default_rng(12)
    p_gap = 0.0
    for _ in range(20):
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        a = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=na)
        b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=nb)
        _, p = t_test_two_sample(a, b)
        reference = stats.ttest_ind(a, b, equal_var=True).pvalue
        p_gap = max(p_gap, abs(p - reference))

    golden_gap = max(gaps)
    ok = golden_gap < 1e-6 and separated_ok and p_gap < 1e-6
    line = verdict(5, ok, f"max golden error {golden_gap:.1e}; max p-value gap "
                          f"vs reference {p_gap:.1e} over 20 pairs")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: generated-corpus cold-start direction check


def test_criterion_6_desk_scale_direction(tmp_path_factory):
    t0 = time.time()
    root = tmp_path_factory.mktemp("corpus")
    paths = generate_corpus(str(root / "data"), n_users=500, n_movies=300,
                            seed=0, minor_taste_scale=2.5, min_items=15,
                            max_items=40)
    metrics = {}
    for algorithm in ("reg-paml", "maml-fixed"):
        trainer = TrainerConfig(algorithm=algorithm, epochs=20, batch_size=16,
                                embedding_dim=16, decision_dims=(64, 32, 1),
                                lr_hidden_dims=(32, 16), outer_lr=0.05,
                                lr_scale=0.1, fixed_inner_lr=1e-5)
        config = ExperimentConfig(
            output_dir=str(root / algorithm), trainer=trainer,
            dataset_kind="movielens",
            movielens=MovielensConfig(ratings=paths["ratings"],
                                      users=paths["users"],
                                      movies=paths["movies"],
                                      preprocess=PreprocessConfig()),
            trials=3, seeds=(0, 1, 2))
        result = run_experiment(config)
        metrics[algorithm] = read_report(result.report_path)["query_mse"]
    elapsed = time.time() - t0
    reg, fix = metrics["reg-paml"], metrics["maml-fixed"]
    reg_gap = reg["minor_mean"] - reg["major_mean"]
    fix_gap = fix["minor_mean"] - fix["major_mean"]
    ok = (reg["mean"] <= fix["mean"] and reg_gap <= fix_gap
          and elapsed < 2700.0)
    line = verdict(6, ok, f"mean MSE reg {reg['mean']:.3f} vs fixed "
                          f"{fix['mean']:.3f}; minor-major gap {reg_gap:+.3f} "
                          f"vs {fix_gap:+.3f}; {elapsed:.0f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: penalty accounting and the pairwise loss-gap bound


def test_criterion_7_regularizer_accounting():
    splits = synthetic_splits(0.8, 0.2, 0.0, 1.0, 120, 0.1, seed=3)
    cfg = TrainerConfig(algorithm="reg-paml", epochs=2, batch_size=8,
                        embedding_dim=2, decision_dims=(4, 1),
                        lr_hidden_dims=(4, 2), gamma=1e-3, outer_lr=1e-3,
                        lr_scale=0.1, seed=3)
    model = train(splits, cfg)
    worst_gap = 0.0
    bound_failures = 0
    batches_checked = 0
    for step in model.step_logs:
        expected = (sum(ep.query_loss for ep in step.episode_logs)
                    + cfg.gamma * sum(ep.reg_value for ep in step.episode_logs))
        worst_gap = max(worst_gap, abs(step.total_loss - expected))
        if len(step.episode_logs) >= 2:
            batches_checked += 1
            report = bound_check(
                [ep.query_loss for ep in step.episode_logs],
                [np.sqrt(ep.support_grad_sq) for ep in step.episode_logs],
                [ep.alpha for ep in step.episode_logs],
                [ep.embedding_norm for ep in step.episode_logs])
            if not report.holds_first_order:
                bound_failures += 1
    ok = (len(model.step_logs) >= 20 and worst_gap <= 1e-10
          and batches_checked >= 20 and bound_failures == 0)
    line = verdict(7, ok, f"{len(model.step_logs)} steps, worst accounting gap "
                          f"{worst_gap:.1e}; pairwise bound held in "
                          f"{batches_checked - bound_failures}/{batches_checked} "
                          f"batches")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reports across repeated runs


def tsv_files(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".tsv"):
                full = os.path.join(dirpath, name)
                out[os.path.relpath(full, root)] = full
    return out


def test_criterion_8_determinism(imbalance_runs, tmp_path_factory):
    runs, _ = imbalance_runs
    root = tmp_path_factory.mktemp("rerun")
    compared = 0
    identical = True
    for algorithm, (config, first) in runs.items():
        rerun_config = dataclasses.replace(config,
                                           output_dir=str(root / algorithm))
        second = run_experiment(rerun_config)
        first_files = tsv_files(first.output_dir)
        second_files = tsv_files(second.output_dir)
        if set(first_files) != set(second_files):
            identical = False
            continue
        for rel, path in first_files.items():
            compared += 1
            with open(path, "rb") as fa, open(second_files[rel], "rb") as fb:
                if fa.read() != fb.read():
                    identical = False
    ok = identical and compared > 0
    line = verdict(8, ok, f"{compared} report files byte-identical across "
                          f"reruns of the imbalance experiment")
    assert ok, line
