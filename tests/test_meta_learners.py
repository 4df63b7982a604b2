"""Tests for the meta-learning trainers.

The load-bearing oracle is central finite differences of the full outer
objective (query loss after one inner step, plus the gradient-norm penalty
when enabled) with respect to theta, the rate-head parameters, the per
parameter rate vector, and stored tree rates, all jointly.  The user
embeddings feeding the rate head are held fixed at the base theta, matching
the trainer's treatment of them as inputs.  Everything else is pinned
examples and invariants: one rate resolver for training and inference,
reduction to the multitask gradient at rate zero, determinism, warm-up
storage accounting, and checkpoint round trips.
"""

import copy
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from metarec.errors import ConfigError, DataError, NumericError
from metarec.memory_tree import TreeMemory
from metarec.meta_learners import (
    LrHead,
    MetaTrainer,
    TrainedModel,
    TrainerConfig,
    _clamp_nonnegative,
    _distinct_rates,
    _encode_split,
    _evaluate_encoded,
    _pooled_loss,
    adapt_with_gradient,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    tree_sidecar,
)
from metarec import meta_learners
from metarec import model as model_module
from metarec.model import (ModelSpec, forward, grad, init_params, loss, predict,
                           user_embedding)
from metarec.params import Layout, ParamSet, axpy_update
from metarec.tasks import InteractionColumns, synthetic_splits


def tiny_config(**overrides):
    """Small widths so finite differences stay cheap (27 theta parameters)."""
    base = dict(algorithm="paml", epochs=1, batch_size=8, embedding_dim=2,
                decision_dims=(3, 1), lr_hidden_dims=(3, 2), seed=5)
    base.update(overrides)
    return TrainerConfig(**base)


def tiny_splits(seed=5, n_tasks=12, noise_sd=0.1):
    return synthetic_splits(0.7, 0.3, 0.0, 1.0, n_tasks, noise_sd, seed=seed)


def scalar_model():
    """One user id, one item id, all-zero parameters.

    The prediction is the single output bias, so with one support item of
    target t the support loss is (b0 - t)^2 and its gradient lives entirely
    in the dec_b0 coordinate.
    """
    spec = ModelSpec(user_vocab_sizes=(1,), item_vocab_sizes=(1,),
                     embedding_dim=1, decision_dims=(1,))
    theta = init_params(spec, 0).zeros_like()
    episode = (np.array([0]), np.array([[0]]), np.array([1.0]))
    return spec, theta, episode


def views(ps):
    """Entry name -> view of a ParamSet's flat vector; writes go through."""
    return ps.layout.views(ps.flat)


def assert_same_params(a, b):
    """``a`` and ``b`` have one layout and equal values."""
    assert a.layout.key == b.layout.key
    assert np.array_equal(a.flat, b.flat)


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


def relative_error(implemented, reference):
    implemented = np.asarray(implemented)
    reference = np.asarray(reference)
    return float(np.linalg.norm(implemented - reference)
                 / max(np.linalg.norm(reference), 1e-12))


class TestLrHead:
    def test_zero_psi_gives_half_scale(self):
        head = LrHead(4, hidden_dims=(3,), scale=1e-3)
        head.psi = head.psi.zeros_like()
        assert head.alpha(np.ones(4)) == pytest.approx(5e-4, rel=1e-15)

    def test_output_always_inside_open_interval(self):
        rng = np.random.default_rng(0)
        head = LrHead(6, hidden_dims=(4, 3), scale=1e-3, seed=1)
        for _ in range(200):
            a = head.alpha(rng.normal(scale=3.0, size=6))
            assert 0.0 < a < 1e-3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = LrHead(3, hidden_dims=(3, 2), scale=1e-3, seed=3)
        for _ in range(5):
            h = rng.normal(size=3)
            value, g = head.alpha_and_grad(h)
            assert value == pytest.approx(head.alpha(h), rel=1e-15)

            def objective(psi):
                return LrHead(3, (3, 2), 1e-3, psi=psi).alpha(h)

            (fd,) = joint_fd(objective, [head.psi], eps=1e-7)
            assert relative_error(g.flat, fd) < 1e-6

    def test_copy_is_independent(self):
        head = LrHead(3, hidden_dims=(2,), seed=0)
        clone = head.copy()
        views(clone.psi)["lr_b1"][...] += 1.0
        assert head.alpha(np.zeros(3)) != clone.alpha(np.zeros(3))

    def test_bad_shapes_are_rejected(self):
        head = LrHead(3, hidden_dims=(2,))
        with pytest.raises(ConfigError):
            head.alpha(np.zeros(4))
        with pytest.raises(ConfigError):
            LrHead(0)
        with pytest.raises(ConfigError):
            LrHead(3, scale=0.0)
        # the entry names of LrHead(3, (2,)), with a (2, 2) first weight
        psi = ParamSet({"lr_W0": np.zeros((2, 2)), "lr_b0": np.zeros(2),
                        "lr_W1": np.zeros((1, 2)), "lr_b1": np.zeros(1)})
        with pytest.raises(ConfigError, match="rate-head layout"):
            LrHead(3, hidden_dims=(2,), psi=psi)


def inference_rate(model, h):
    """The rate `_distinct_rates` gives one user embedding at inference."""
    [(alpha, _, _)], _ = _distinct_rates(model.config, model.lr_head, model.meta_sgd_alpha,
                                         model.tree, h[None])
    return alpha


def with_feedback(episode, feedback):
    """The `TaskEpisode` ``episode`` with new support columns whose targets
    are ``feedback``."""
    part = episode.support
    return dataclasses.replace(episode, support=InteractionColumns(
        part.item_ids, part.items, np.asarray(feedback, dtype=np.float64), part.timestamps))


class TestInnerAdapt:
    def test_zero_rate_returns_theta(self):
        spec, theta, episode = scalar_model()
        theta_i = adapt_with_gradient(theta, spec, 0.0, episode)[0]
        assert_same_params(theta_i, theta)

    def test_zero_support_gradient_returns_theta(self):
        cfg = tiny_config()
        splits = tiny_splits()
        trainer = MetaTrainer(splits, cfg)
        ep = trainer.train_episodes[0]
        predictions, _ = forward(trainer.theta, trainer.spec, ep.support[0], ep.support[1])
        flat_episode = (ep.support[0], ep.support[1], predictions)
        theta_i = adapt_with_gradient(trainer.theta, trainer.spec, 0.5, flat_episode)[0]
        assert_same_params(theta_i, trainer.theta)

    def test_single_coordinate_quadratic_step(self):
        # L(b0) = (b0 - 1)^2 at b0 = 0: gradient -2, so a 0.1 step lands at 0.2
        spec, theta, episode = scalar_model()
        theta_i = adapt_with_gradient(theta, spec, 0.1, episode)[0]
        assert views(theta_i)["dec_b0"][0] == pytest.approx(0.2, rel=1e-15)
        assert np.array_equal(views(theta_i)["dec_W0"], views(theta)["dec_W0"])

    def test_negative_rate_rejected(self):
        spec, theta, episode = scalar_model()
        with pytest.raises(ConfigError):
            adapt_with_gradient(theta, spec, -1e-3, episode)[0]

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_rate_is_a_numeric_error(self, rate):
        # a diverging run, not a bad setting: the trainer drops the episode
        spec, theta, episode = scalar_model()
        with pytest.raises(NumericError, match="inner rate must be finite"):
            adapt_with_gradient(theta, spec, rate, episode)[0]

    def test_non_finite_gradient_aborts(self):
        spec, theta, episode = scalar_model()
        poisoned = (episode[0], episode[1], np.array([np.nan]))
        with pytest.raises(NumericError):
            adapt_with_gradient(theta, spec, 1e-3, poisoned)[0]

    def test_negative_rate_vector_names_its_entry(self):
        spec, theta, episode = scalar_model()
        rates = ParamSet.wrap(theta.layout, np.full(theta.layout.size, 1e-3))
        views(rates)["dec_b0"][0] = -1e-3
        with pytest.raises(ConfigError, match="entry 'dec_b0' has negative values"):
            adapt_with_gradient(theta, spec, rates, episode)[0]


class TestSharedRateChecks:
    """A rate that every episode shares is checked once per batch."""

    @pytest.mark.parametrize("algorithm, shared", [("meta-sgd", True), ("maml-fixed", True),
                                                   ("paml", False)])
    def test_checks_per_batch(self, monkeypatch, algorithm, shared):
        trainer = MetaTrainer(tiny_splits(), tiny_config(algorithm=algorithm))
        calls = []
        check = meta_learners._check_inner_rate
        monkeypatch.setattr(meta_learners, "_check_inner_rate",
                            lambda alpha: calls.append(alpha) or check(alpha))

        def n_rates(episodes):
            """Distinct rate objects: one per distinct user embedding for a head."""
            h = user_embedding(trainer.theta, trainer.spec,
                               np.array([ep.user_ids for ep in episodes]))
            return 1 if shared else len({row.tobytes() for row in h})

        batch = trainer.train_episodes[:4]
        assert n_rates(batch) < len(batch)  # users share profiles
        trainer.outer_gradients(batch)
        assert len(calls) == n_rates(batch)
        calls.clear()
        trainer._validation_loss()
        assert len(calls) == n_rates(trainer.val_episodes)

    def test_a_failing_shared_rate_fails_every_episode(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config(algorithm="meta-sgd"))
        batch = trainer.train_episodes[:4]
        views(trainer.msgd_alpha)["dec_b0"][0] = np.nan
        with pytest.warns(UserWarning, match="dropping episode") as caught:
            with pytest.raises(NumericError, match="every episode in the batch failed"):
                trainer.outer_gradients(batch)
        assert len([w for w in caught if "dropping episode" in str(w.message)]) == len(batch)
        views(trainer.msgd_alpha)["dec_b0"][0] = -1e-3
        with pytest.raises(ConfigError, match="entry 'dec_b0' has negative values"):
            trainer.outer_gradients(batch)


class TestEncodedEpisodes:
    def test_trainer_episodes_are_read_only(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config())
        for ep in [*trainer.train_episodes, *trainer.val_episodes]:
            for part in (ep.support, ep.query):
                for arr in part:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[...] = 0

    def test_plain_tuple_out_of_vocabulary_still_rejected(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config())
        user_ids, items, targets = trainer.train_episodes[0].support
        bad = items.copy()
        bad[0, 0] = trainer.spec.item_vocab_sizes[0]
        with pytest.raises(DataError):
            grad(trainer.theta, trainer.spec, (user_ids, bad, targets))
        with pytest.raises(DataError):
            forward(trainer.theta, trainer.spec, user_ids, bad)
        with pytest.raises(DataError):
            predict(trainer.theta, trainer.spec, (user_ids, bad, targets))

    def test_evaluation_does_not_check_encoded_episodes_again(self, monkeypatch):
        trainer = MetaTrainer(tiny_splits(), tiny_config())
        checks = []
        original = model_module._check_episode
        monkeypatch.setattr(model_module, "_check_episode",
                            lambda *args: checks.append(args) or original(*args))
        records = _evaluate_encoded(trainer.theta, trainer.spec, trainer.config, trainer.head,
                                    None, None, trainer.val_episodes)
        assert len(records) == len(trainer.val_episodes) > 0
        assert checks == []
        for ep in trainer.val_episodes:
            expected, _ = forward(trainer.theta, trainer.spec, ep.query[0], ep.query[1])
            assert np.array_equal(predict(trainer.theta, trainer.spec, ep.query), expected)

    def test_episodes_encoded_for_another_spec_are_rejected(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config())
        spec = trainer.spec
        wide = dataclasses.replace(spec, item_vocab_sizes=(spec.item_vocab_sizes[0] + 1,))
        episodes = _encode_split(trainer.splits, trainer.splits.train, wide)
        with pytest.raises(DataError, match="encoded for another model spec"):
            trainer.outer_gradients(episodes)
        with pytest.raises(DataError, match="encoded for another model spec"):
            _evaluate_encoded(trainer.theta, spec, trainer.config, trainer.head, None, None,
                              episodes)

    def test_pooled_loss_does_not_check_encoded_episodes_again(self, monkeypatch):
        trainer = MetaTrainer(tiny_splits(), tiny_config())
        pooled = trainer.train_episodes.support
        expected = sum(loss(forward(trainer.theta, trainer.spec, ids, items)[0], targets)
                       * items.shape[0] for ids, items, targets in pooled)
        expected /= sum(items.shape[0] for _, items, _ in pooled)
        checks = []
        original = model_module._check_episode
        monkeypatch.setattr(model_module, "_check_episode",
                            lambda *args: checks.append(args) or original(*args))
        assert _pooled_loss(trainer.theta, trainer.spec, pooled, 3) == expected
        assert checks == []

    def test_clamp_keeps_layout_and_zeroes_only_negatives(self):
        ps = ParamSet({"a": np.array([[-1.0, 2.0]]), "b": np.array([0.5, 0.0, -3.0])})
        out = _clamp_nonnegative(ps)
        assert out.layout is ps.layout
        np.testing.assert_array_equal(out.flat, [0.0, 2.0, 0.5, 0.0, 0.0])
        np.testing.assert_array_equal(ps.flat, [-1.0, 2.0, 0.5, 0.0, -3.0])


class TestComputeAlphaAndRegTerm:
    """Rates come from the one resolver; the reg-paml term is read off EpisodeLog."""

    def test_zero_logit_head_rate(self):
        head = LrHead(2, hidden_dims=(2,), scale=1e-3)
        head.psi = head.psi.zeros_like()
        cfg = TrainerConfig(algorithm="paml", lr_scale=1e-3)
        [(alpha, _, _)], _ = _distinct_rates(cfg, head, None, None, np.zeros((1, 2)))
        assert alpha == 5e-4
        trainer = MetaTrainer(tiny_splits(), tiny_config(lr_scale=1e-3))
        trainer.head.psi = trainer.head.psi.zeros_like()
        logs = trainer.outer_gradients(trainer.train_episodes[:4]).episode_logs
        assert [log.alpha for log in logs] == [5e-4] * 4

    def test_tree_contribution_is_added(self):
        head = LrHead(2, hidden_dims=(2,), scale=1e-3)
        head.psi = head.psi.zeros_like()
        cfg = TrainerConfig(algorithm="at-paml", tree_neighbors_train=1,
                            tree_neighbors_infer=1)
        tree = TreeMemory(dim=2, capacity=4, delta=cfg.tree_delta, sigma=cfg.tree_sigma)
        tree.store_node(np.array([0.1, 0.0]), 2e-3)
        h = np.zeros(2)
        blended = tree.blended_lr(h, 1, touch=False)[0]
        s_k = math.exp(-cfg.tree_delta * 0.01)
        assert blended == pytest.approx(2e-3 * s_k / (s_k + cfg.tree_sigma), rel=1e-12)
        recency = tree.node(0).recency
        [(value, _, _)], _ = _distinct_rates(cfg, head, None, tree, h[None])
        assert value == 5e-4 + blended
        assert tree.node(0).recency == recency  # evaluation leaves the tree as it was
        [(value, _, neighbors)], _ = _distinct_rates(cfg, head, None, tree, h[None], train=True)
        assert value == 5e-4 + blended
        assert neighbors.ids.tolist() == [0]
        assert tree.node(0).recency > recency  # training touches what it blends

    def test_no_tree_contribution_means_head_only(self):
        head = LrHead(2, hidden_dims=(2,), scale=1e-3, seed=4)
        h = np.array([0.3, -0.2])
        for algorithm in ("paml", "reg-paml", "at-paml"):
            cfg = TrainerConfig(algorithm=algorithm)
            [(alpha, _, _)], _ = _distinct_rates(cfg, head, None, None, h[None])
            assert alpha == head.alpha(h)
            [(alpha, dalpha_dpsi, neighbors)], _ = _distinct_rates(cfg, head, None, None, h[None],
                                                                   train=True)
            assert neighbors is None
            expected, expected_grad = head.alpha_and_grad(h)
            assert alpha == expected
            assert np.array_equal(dalpha_dpsi, expected_grad.flat)

    def test_reg_term_pinned_values(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config(algorithm="reg-paml", gamma=1e-3))
        batch = trainer.train_episodes[:5]
        logs = trainer.outer_gradients(batch).episode_logs
        for ep, log in zip(batch, logs):
            g_s = grad(trainer.theta, trainer.spec, ep.support)
            assert log.support_grad_sq == g_s.dot(g_s)
            assert log.support_grad_sq > 0.0
            assert log.reg_value == log.support_grad_sq * log.alpha

    def test_reg_term_zero_gradient(self):
        trainer = MetaTrainer(tiny_splits(), tiny_config(algorithm="reg-paml", gamma=1e-3))
        ep = trainer.train_episodes[0]
        predictions, _ = forward(trainer.theta, trainer.spec, ep.support[0], ep.support[1])
        exact = with_feedback(trainer.splits.train[0], predictions)
        batch = _encode_split(trainer.splits, [exact], trainer.spec)
        log = trainer.outer_gradients(batch).episode_logs[0]
        assert log.support_grad_sq == 0.0
        assert log.reg_value == 0.0


@pytest.mark.parametrize("algorithm", ["paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd"])
def test_training_rate_matches_inference_rate(algorithm):
    """With equal neighbor counts, training logs the rate inference would use."""
    cfg = tiny_config(algorithm=algorithm, epochs=1, warmup_epochs=1,
                      tree_neighbors_train=3, tree_neighbors_infer=3)
    trainer = MetaTrainer(tiny_splits(n_tasks=20), cfg)
    trainer.train()  # leaves a stepped state, and a filled tree for at-paml
    if algorithm == "at-paml":
        assert len(trainer.tree) > 0
    batch = trainer.train_episodes[:6]
    logs = trainer.outer_gradients(batch).episode_logs
    model = TrainedModel(algorithm, trainer.spec, cfg, trainer.theta, trainer.head,
                         trainer.msgd_alpha, trainer.tree, [], [], None)
    for ep, log in zip(batch, logs):
        h = user_embedding(trainer.theta, trainer.spec, ep.user_ids)
        rate = inference_rate(model, h)
        expected = float(np.mean(rate.flat)) if isinstance(rate, ParamSet) else rate
        assert log.alpha == expected


def fd_check_trainer(trainer, batch, objective, paramsets, implemented, eps=1e-6):
    fds = joint_fd(objective, paramsets, eps=eps)
    impl = np.concatenate([g.flat for g in implemented])
    fd = np.concatenate(fds)
    return relative_error(impl, fd)


class TestOuterGradients:
    def test_paml_matches_finite_differences(self):
        for seed in (1, 5, 9):
            cfg = tiny_config(seed=seed)
            trainer = MetaTrainer(tiny_splits(seed=seed), cfg)
            batch = trainer.train_episodes[:3]
            frozen = [user_embedding(trainer.theta, trainer.spec, ep.user_ids)
                      for ep in batch]

            def objective(theta, psi):
                head = LrHead(trainer.spec.user_width, cfg.lr_hidden_dims,
                              cfg.lr_scale, psi=psi)
                value = 0.0
                for ep, h in zip(batch, frozen):
                    g_s = grad(theta, trainer.spec, ep.support)
                    theta_i = axpy_update(theta, g_s, head.alpha(h))
                    predictions, _ = forward(theta_i, trainer.spec, ep.query[0], ep.query[1])
                    value += loss(predictions, ep.query[2])
                return value

            gradients = trainer.outer_gradients(batch)
            rel = fd_check_trainer(trainer, batch, objective,
                                   [trainer.theta, trainer.head.psi],
                                   [gradients.theta_grad, gradients.psi_grad])
            assert rel < 1e-4

    def test_reg_paml_matches_finite_differences(self):
        cfg = tiny_config(algorithm="reg-paml", gamma=1e-3)
        trainer = MetaTrainer(tiny_splits(), cfg)
        batch = trainer.train_episodes[:3]
        frozen = [user_embedding(trainer.theta, trainer.spec, ep.user_ids) for ep in batch]

        def objective(theta, psi):
            head = LrHead(trainer.spec.user_width, cfg.lr_hidden_dims, cfg.lr_scale, psi=psi)
            value = 0.0
            for ep, h in zip(batch, frozen):
                g_s = grad(theta, trainer.spec, ep.support)
                alpha = head.alpha(h)
                theta_i = axpy_update(theta, g_s, alpha)
                predictions, _ = forward(theta_i, trainer.spec, ep.query[0], ep.query[1])
                value += loss(predictions, ep.query[2])
                value += cfg.gamma * g_s.dot(g_s) * abs(alpha)
            return value

        gradients = trainer.outer_gradients(batch)
        rel = fd_check_trainer(trainer, batch, objective,
                               [trainer.theta, trainer.head.psi],
                               [gradients.theta_grad, gradients.psi_grad])
        assert rel < 1e-4

    def test_maml_fixed_matches_finite_differences(self):
        cfg = tiny_config(algorithm="maml-fixed", fixed_inner_lr=1e-3)
        trainer = MetaTrainer(tiny_splits(), cfg)
        batch = trainer.train_episodes[:3]

        def objective(theta):
            value = 0.0
            for ep in batch:
                g_s = grad(theta, trainer.spec, ep.support)
                theta_i = axpy_update(theta, g_s, cfg.fixed_inner_lr)
                predictions, _ = forward(theta_i, trainer.spec, ep.query[0], ep.query[1])
                value += loss(predictions, ep.query[2])
            return value

        gradients = trainer.outer_gradients(batch)
        assert gradients.psi_grad is None
        rel = fd_check_trainer(trainer, batch, objective, [trainer.theta],
                               [gradients.theta_grad])
        assert rel < 1e-4

    def test_meta_sgd_matches_finite_differences(self):
        cfg = tiny_config(algorithm="meta-sgd", meta_sgd_init=1e-3)
        trainer = MetaTrainer(tiny_splits(), cfg)
        batch = trainer.train_episodes[:3]

        def objective(theta, rates):
            value = 0.0
            for ep in batch:
                g_s = grad(theta, trainer.spec, ep.support)
                theta_i = axpy_update(theta, g_s, rates)
                predictions, _ = forward(theta_i, trainer.spec, ep.query[0], ep.query[1])
                value += loss(predictions, ep.query[2])
            return value

        gradients = trainer.outer_gradients(batch)
        rel = fd_check_trainer(trainer, batch, objective,
                               [trainer.theta, trainer.msgd_alpha],
                               [gradients.theta_grad, gradients.msgd_grad])
        assert rel < 1e-4

    def test_at_paml_matches_finite_differences_including_tree(self):
        cfg = tiny_config(algorithm="at-paml", warmup_epochs=0, tree_neighbors_train=3)
        trainer = MetaTrainer(tiny_splits(), cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            trainer.tree.store_node(rng.normal(size=trainer.spec.user_width) * 0.05,
                                    rng.uniform(0.0, 1e-3))
        batch = trainer.train_episodes[:3]
        frozen = [user_embedding(trainer.theta, trainer.spec, ep.user_ids) for ep in batch]

        def objective(theta, psi):
            head = LrHead(trainer.spec.user_width, cfg.lr_hidden_dims, cfg.lr_scale, psi=psi)
            value = 0.0
            for ep, h in zip(batch, frozen):
                g_s = grad(theta, trainer.spec, ep.support)
                blended, _ = trainer.tree.blended_lr(h, cfg.tree_neighbors_train, touch=False)
                theta_i = axpy_update(theta, g_s, head.alpha(h) + blended)
                predictions, _ = forward(theta_i, trainer.spec, ep.query[0], ep.query[1])
                value += loss(predictions, ep.query[2])
            return value

        gradients = trainer.outer_gradients(batch)
        rel = fd_check_trainer(trainer, batch, objective,
                               [trainer.theta, trainer.head.psi],
                               [gradients.theta_grad, gradients.psi_grad])
        assert rel < 1e-4

        # stored rates get exact gradients too
        assert len(gradients.tree_node_ids)
        for node_id, implemented in zip(gradients.tree_node_ids.tolist(),
                                        gradients.tree_lr_grads):
            node = trainer.tree.node(node_id)
            keep = node.lr
            eps = 1e-6
            node.lr = keep + eps
            up = objective(trainer.theta, trainer.head.psi)
            node.lr = keep - eps
            down = objective(trainer.theta, trainer.head.psi)
            node.lr = keep
            fd = (up - down) / (2.0 * eps)
            assert implemented == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_zero_rate_reduces_to_multitask_gradient(self):
        cfg = tiny_config()
        trainer = MetaTrainer(tiny_splits(), cfg)
        # a -1e4 output bias underflows the sigmoid: the head gives exactly 0.0
        last = trainer.head.n_layers() - 1
        views(trainer.head.psi)[f"lr_b{last}"][...] = -1e4
        batch = trainer.train_episodes[:4]
        gradients = trainer.outer_gradients(batch)
        assert [log.alpha for log in gradients.episode_logs] == [0.0] * 4
        assert not gradients.psi_grad.flat.any()
        expected = trainer.theta.zeros_like()
        for ep in batch:
            expected = expected.add(grad(trainer.theta, trainer.spec, ep.query))
        assert_same_params(gradients.theta_grad, expected)

    def test_total_loss_matches_episode_logs(self):
        cfg = tiny_config(algorithm="reg-paml", gamma=1e-3)
        trainer = MetaTrainer(tiny_splits(), cfg)
        gradients = trainer.outer_gradients(trainer.train_episodes[:5])
        recomputed = sum(log.query_loss + cfg.gamma * log.reg_value
                         for log in gradients.episode_logs)
        assert gradients.total_loss == pytest.approx(recomputed, abs=1e-12)

    def test_poisoned_episode_is_skipped_with_warning(self):
        cfg = tiny_config()
        trainer = MetaTrainer(tiny_splits(), cfg)
        good = trainer.splits.train[0]
        # split columns are read-only, so poison an episode on new columns
        ep = trainer.splits.train[1]
        bad = with_feedback(ep, np.full(len(ep.support), np.nan))
        with pytest.warns(UserWarning, match="dropping episode"):
            gradients = trainer.outer_gradients(
                _encode_split(trainer.splits, [bad, good], trainer.spec))
        assert gradients.n_skipped == 1
        assert len(gradients.episode_logs) == 1
        assert gradients.episode_logs[0].user_key == good.user.user_id
        with pytest.warns(UserWarning):
            with pytest.raises(NumericError):
                trainer.outer_gradients(_encode_split(trainer.splits, [bad], trainer.spec))


class TestOuterStep:
    def test_zero_outer_lr_changes_nothing(self):
        cfg = tiny_config(outer_lr=0.0)
        trainer = MetaTrainer(tiny_splits(), cfg)
        theta_before = trainer.theta.copy()
        psi_before = trainer.head.psi.copy()
        trainer.outer_step(trainer.train_episodes[:2])
        assert_same_params(trainer.theta, theta_before)
        assert_same_params(trainer.head.psi, psi_before)

    def test_gradient_clipping_bounds_the_step(self):
        cfg = tiny_config(grad_clip=1e-6, outer_lr=1.0)
        trainer = MetaTrainer(tiny_splits(), cfg)
        theta_before = trainer.theta.copy()
        trainer.outer_step(trainer.train_episodes[:3])
        moved = trainer.theta.sub(theta_before).norm()
        assert moved <= 1e-6 * (1.0 + 1e-9)

    def test_non_finite_update_raises_with_diagnostics(self):
        cfg = tiny_config()
        trainer = MetaTrainer(tiny_splits(), cfg)
        views(trainer.theta)["dec_b0"][...] = np.nan
        with pytest.warns(UserWarning):
            with pytest.raises(NumericError):
                trainer.outer_step(trainer.train_episodes[:2])


class TestTrain:
    def test_zero_epochs_returns_initial_theta(self):
        cfg = tiny_config(epochs=0)
        splits = tiny_splits()
        model = train(splits, cfg)
        fresh = MetaTrainer(splits, cfg)
        assert model.history == []
        assert_same_params(model.theta, fresh.theta)

    def test_history_has_one_record_per_epoch(self):
        model = train(tiny_splits(), tiny_config(epochs=3))
        assert [record["epoch"] for record in model.history] == [0, 1, 2]

    def test_same_seed_same_model(self):
        cfg = tiny_config(epochs=2)
        a = train(tiny_splits(), cfg)
        b = train(tiny_splits(), cfg)
        assert a.history == b.history
        assert_same_params(a.theta, b.theta)
        assert_same_params(a.lr_head.psi, b.lr_head.psi)

    def test_different_seed_changes_the_model(self):
        a = train(tiny_splits(), tiny_config(epochs=1, seed=5))
        b = train(tiny_splits(), tiny_config(epochs=1, seed=6))
        assert a.theta.layout.key == b.theta.layout.key
        assert not np.array_equal(a.theta.flat, b.theta.flat)

    def test_best_validation_epoch_is_retained(self):
        splits = tiny_splits(n_tasks=30)
        model = train(splits, tiny_config(epochs=3, outer_lr=1e-2))
        values = [record["val_loss"] for record in model.history]
        assert model.best_epoch == int(np.argmin(values))
        records = evaluate(model, splits.validation, splits)
        reproduced = float(np.mean([r.query_loss for r in records]))
        assert reproduced == pytest.approx(min(values), abs=1e-12)

    def test_at_paml_warmup_stores_every_user(self):
        splits = tiny_splits(n_tasks=30)  # 21 train users
        cfg = tiny_config(algorithm="at-paml", epochs=1, warmup_epochs=1)
        model = train(splits, cfg)
        assert len(model.tree) == len(splits.train)
        assert all(record["warmup"] for record in model.history)

    def test_at_paml_stores_again_after_warmup(self):
        splits = tiny_splits(n_tasks=30)
        cfg = tiny_config(algorithm="at-paml", epochs=2, warmup_epochs=1)
        model = train(splits, cfg)
        assert len(model.tree) == 2 * len(splits.train)

    def test_warmup_epoch_uses_the_warmup_rate(self):
        splits = tiny_splits(n_tasks=20)
        cfg = tiny_config(algorithm="at-paml", epochs=1, warmup_epochs=1,
                          warmup_inner_lr=5e-4)
        model = train(splits, cfg)
        for log in model.step_logs:
            for episode_log in log.episode_logs:
                assert episode_log.alpha == 5e-4

    def test_computed_rates_stay_in_range(self):
        splits = tiny_splits(n_tasks=20)
        for algorithm in ("paml", "reg-paml", "at-paml"):
            model = train(splits, tiny_config(algorithm=algorithm, epochs=2))
            ceiling = model.config.lr_scale + 1.0  # stored tree rates are clamped to 1
            for log in model.step_logs:
                for episode_log in log.episode_logs:
                    assert 0.0 < episode_log.alpha <= ceiling

    def test_empty_train_split_is_rejected(self):
        splits = tiny_splits()
        empty = type(splits)(train=(), validation=splits.validation, test=splits.test,
                             user_vocabs=splits.user_vocabs, item_vocabs=splits.item_vocabs,
                             is_major=splits.is_major)
        with pytest.raises(DataError):
            train(empty, tiny_config())


class TestTransfer:
    def test_single_user_pool_is_plain_sgd(self):
        splits = tiny_splits(n_tasks=2)  # one train episode
        assert len(splits.train) == 1
        cfg = tiny_config(algorithm="transfer", epochs=3, outer_lr=1e-2, batch_size=4)
        model = train(splits, cfg)

        episode = splits.train[0]
        user_ids, s_items, s_targets = splits.encode(episode.user, episode.support)
        _, q_items, q_targets = splits.encode(episode.user, episode.query)
        pooled = (user_ids, np.concatenate([s_items, q_items]),
                  np.concatenate([s_targets, q_targets]))
        spec = model.spec
        theta = init_params(spec, (cfg.seed, 0))
        for _ in range(3):
            g = grad(theta, spec, pooled)
            theta = axpy_update(theta, g, 1e-2)
        assert_same_params(model.theta, theta)

    def test_pooled_loss_decreases(self):
        splits = tiny_splits(n_tasks=30)
        cfg = tiny_config(algorithm="transfer", epochs=5, outer_lr=1e-2)
        model = train(splits, cfg)
        losses = [record["train_loss"] for record in model.history]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert violations <= 1

    def test_finetune_zero_gradient_keeps_model(self):
        splits = tiny_splits(n_tasks=10)
        cfg = tiny_config(algorithm="transfer", epochs=1)
        model = train(splits, cfg)
        episode = splits.test[0]
        user_ids, items, _ = splits.encode(episode.user, episode.support)
        predictions, h = forward(model.theta, model.spec, user_ids, items)
        adapted = adapt_with_gradient(model.theta, model.spec, inference_rate(model, h),
                                      (user_ids, items, predictions))[0]
        assert_same_params(adapted, model.theta)

    def test_finetune_takes_one_fixed_rate_step(self):
        splits = tiny_splits(n_tasks=10)
        cfg = tiny_config(algorithm="transfer", epochs=1, fixed_inner_lr=1e-3)
        model = train(splits, cfg)
        episode = splits.test[0]
        support = splits.encode(episode.user, episode.support)
        h = user_embedding(model.theta, model.spec, support[0])
        adapted = adapt_with_gradient(model.theta, model.spec, inference_rate(model, h),
                                      support)[0]
        g = grad(model.theta, model.spec, support)
        expected = axpy_update(model.theta, g, 1e-3)
        assert_same_params(adapted, expected)


    def test_steps_are_pooled_batches_without_episode_logs(self):
        splits = tiny_splits(n_tasks=30)  # 21 train users: 6 steps of 4
        trainer = MetaTrainer(splits, tiny_config(algorithm="transfer", epochs=2,
                                                  batch_size=4))
        assert [len(targets) for _, _, targets in trainer.train_episodes] == [
            len(ep.support) + len(ep.query) for ep in splits.train]
        model = trainer.train()
        assert [(log.epoch, log.step) for log in model.step_logs] == [
            (epoch, step) for epoch in range(2) for step in range(6)]
        assert all(log.episode_logs == () and log.n_skipped == 0 for log in model.step_logs)

    def test_numeric_error_aborts_only_that_epoch(self, monkeypatch):
        splits = tiny_splits(n_tasks=30)
        cfg = tiny_config(algorithm="transfer", epochs=2, outer_lr=1e-2, batch_size=4)
        calls = []
        original = meta_learners.grad

        def grad_failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the pooled gradient of epoch 0, step 1
                raise NumericError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(meta_learners, "grad", grad_failing_once)
        with pytest.warns(UserWarning, match="epoch 0 aborted at step 1"):
            model = train(splits, cfg)
        assert [row["aborted"] for row in model.history] == [True, False]
        assert len(model.step_logs) == 1 + 6
        assert np.all(np.isfinite(model.theta.flat))


class TestEvaluate:
    def test_evaluation_is_deterministic(self):
        splits = tiny_splits(n_tasks=20)
        model = train(splits, tiny_config(epochs=1))
        first = evaluate(model, splits.test, splits)
        second = evaluate(model, splits.test, splits)
        for a, b in zip(first, second):
            assert a.query_loss == b.query_loss
            assert np.array_equal(a.predictions, b.predictions)

    def test_fixed_rate_evaluation_uses_the_configured_rate(self):
        splits = tiny_splits(n_tasks=20)
        model = train(splits, tiny_config(algorithm="maml-fixed", epochs=1,
                                          fixed_inner_lr=1e-5))
        for record in evaluate(model, splits.test, splits):
            assert record.alpha == 1e-5

    def test_meta_sgd_applies_per_parameter_rates(self):
        splits = tiny_splits(n_tasks=20)
        model = train(splits, tiny_config(algorithm="meta-sgd", epochs=1))
        episode = splits.test[0]
        record = evaluate(model, [episode], splits)[0]
        support = splits.encode(episode.user, episode.support)
        theta_u = axpy_update(model.theta,
                              grad(model.theta, model.spec, support),
                              model.meta_sgd_alpha)
        user_ids, q_items, _ = splits.encode(episode.user, episode.query)
        predictions, _ = forward(theta_u, model.spec, user_ids, q_items)
        assert np.array_equal(record.predictions, predictions)

    def test_at_paml_evaluation_reads_but_never_writes(self):
        splits = tiny_splits(n_tasks=30)
        cfg = tiny_config(algorithm="at-paml", epochs=2, tree_neighbors_infer=2)
        model = train(splits, cfg)
        state_before = {node_id: (model.tree.node(node_id).recency,
                                  model.tree.node(node_id).freq)
                        for node_id in model.tree.node_ids()}
        size_before = len(model.tree)
        records = evaluate(model, splits.test, splits)
        assert len(records) == len(splits.test)
        assert len(model.tree) == size_before
        for node_id, snapshot in state_before.items():
            node = model.tree.node(node_id)
            assert (node.recency, node.freq) == snapshot

    def test_at_paml_evaluation_blends_the_inference_neighbors(self):
        splits = tiny_splits(n_tasks=30)
        cfg = tiny_config(algorithm="at-paml", epochs=2, tree_neighbors_infer=2)
        model = train(splits, cfg)
        episode = splits.test[0]
        record = evaluate(model, [episode], splits)[0]
        user_ids, _, _ = splits.encode(episode.user, episode.support)
        h = user_embedding(model.theta, model.spec, user_ids)
        expected = model.lr_head.alpha(h) + model.tree.blended_lr(h, 2, touch=False)[0]
        assert record.alpha == pytest.approx(expected, rel=1e-15)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        splits = tiny_splits(n_tasks=20)
        model = train(splits, tiny_config(epochs=1))
        path = save_checkpoint(model, tmp_path / "model")
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.history == model.history
        assert loaded.best_epoch == model.best_epoch
        assert_same_params(loaded.theta, model.theta)
        assert_same_params(loaded.lr_head.psi, model.lr_head.psi)

    def test_meta_sgd_rates_round_trip(self, tmp_path):
        splits = tiny_splits(n_tasks=10)
        model = train(splits, tiny_config(algorithm="meta-sgd", epochs=1))
        path = save_checkpoint(model, tmp_path / "model.npz")
        loaded = load_checkpoint(path)
        assert_same_params(loaded.meta_sgd_alpha, model.meta_sgd_alpha)

    def test_tree_round_trips_through_the_sidecar(self, tmp_path):
        splits = tiny_splits(n_tasks=20)
        model = train(splits, tiny_config(algorithm="at-paml", epochs=2))
        path = save_checkpoint(model, tmp_path / "model")
        loaded = load_checkpoint(path)
        assert len(loaded.tree) == len(model.tree)
        probe = np.zeros(model.spec.user_width)
        original = model.tree.search(probe, k=3, touch=False)
        restored = loaded.tree.search(probe, k=3, touch=False)
        assert original.ids.tolist() == restored.ids.tolist()
        # the loaded model evaluates identically
        a = evaluate(model, splits.test, splits)
        b = evaluate(loaded, splits.test, splits)
        for x, y in zip(a, b):
            assert x.query_loss == y.query_loss

    def test_sidecar_of_another_width_is_a_data_error(self, tmp_path):
        model = train(tiny_splits(n_tasks=20), tiny_config(algorithm="at-paml", epochs=2))
        path = save_checkpoint(model, tmp_path / "model")
        wide = TreeMemory(dim=model.spec.user_width + 1)
        wide.store_node(np.zeros(model.spec.user_width + 1), 1e-3)
        sidecar = tree_sidecar(path)
        wide.dump(sidecar)
        with pytest.raises(DataError, match=f"tree sidecar {sidecar} holds "
                                            f"{model.spec.user_width + 1}-wide"):
            load_checkpoint(path)

    def test_missing_sidecar_is_a_data_error(self, tmp_path):
        model = train(tiny_splits(n_tasks=20), tiny_config(algorithm="at-paml", epochs=2))
        path = save_checkpoint(model, tmp_path / "model")
        sidecar = tree_sidecar(path)
        os.remove(sidecar)
        with pytest.raises(DataError, match=f"cannot read tree dump {sidecar}"):
            load_checkpoint(path)

    def test_tampered_config_is_rejected(self, tmp_path):
        splits = tiny_splits(n_tasks=10)
        model = train(splits, tiny_config(epochs=1))
        path = save_checkpoint(model, tmp_path / "model")
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["config_json"] = np.array(arrays["config_json"][()].replace('"seed": 5',
                                                                           '"seed": 6'))
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("algorithm, key", [
        ("paml", "psi.lr_W0"), ("meta-sgd", "msgd.dec_W0"), ("paml", "theta.dec_b0"),
        ("paml", "psi.lr_b1"), ("paml", "psi.*"), ("meta-sgd", "msgd.*")])
    def test_mis_shaped_or_missing_entry_is_a_data_error(self, tmp_path, algorithm, key):
        model = train(tiny_splits(n_tasks=10), tiny_config(algorithm=algorithm, epochs=1))
        path = save_checkpoint(model, tmp_path / "model")
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        if key.endswith("*"):  # every entry of one parameter set
            prefix = key[:-1]
            arrays = {name: arr for name, arr in arrays.items() if not name.startswith(prefix)}
            message = f"checkpoint has no entry '{prefix}"
        elif key == "psi.lr_b1":
            del arrays[key]
            message = f"checkpoint has no entry '{key}'"
        else:
            arrays[key] = arrays[key][..., :-1]
            message = f"checkpoint entry '{key}' has shape"
        np.savez(path, **arrays)
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.npz")

    @pytest.mark.parametrize("retired, error", [
        # checkpoints from the kd-tree memory stored four search settings
        (dict(tree_search_mode="approximate", tree_leaf_size=8,
              tree_num_random_trees=4, tree_checks_budget=64), None),
        # checkpoints from before the paml rate could no longer be pinned
        (dict(freeze_alpha=None), None),
        (dict(freeze_alpha=1e-5), "maml-fixed"),
        # checkpoints from before the model was rating-only
        (dict(output_kind="rating-regression"), None),
        (dict(output_kind="ctr-softmax"), "rating-regression only"),
        # checkpoints from before the rate head trained on the exact gradient only
        (dict(psi_update_rule="exact"), None),
        (dict(psi_update_rule="ascent"), "exact outer gradient only"),
    ], ids=["tree-search-keys", "freeze-alpha-unset", "freeze-alpha-set",
            "output-kind-rating", "output-kind-ctr", "psi-rule-exact", "psi-rule-ascent"])
    def test_retired_checkpoint_keys(self, tmp_path, retired, error):
        splits = tiny_splits(n_tasks=10)
        model = train(splits, tiny_config(epochs=1))
        path = save_checkpoint(model, tmp_path / "model")
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        assert "spec_output_kind" not in arrays
        # every older checkpoint also stored the spec's output kind as an array
        arrays["spec_output_kind"] = np.array(retired.get("output_kind", "rating-regression"))
        stored = json.loads(str(arrays["config_json"][()]))
        stored.update(retired)
        text = json.dumps(stored, sort_keys=True)
        arrays["config_json"] = np.array(text)
        arrays["config_digest"] = np.array(hashlib.sha256(text.encode("utf-8")).hexdigest())
        np.savez(path, **arrays)
        if error is None:
            loaded = load_checkpoint(path)
            assert loaded.config == model.config and loaded.spec == model.spec
            for x, y in zip(evaluate(model, splits.test, splits),
                            evaluate(loaded, splits.test, splits)):
                assert x.query_loss == y.query_loss
                assert np.array_equal(x.predictions, y.predictions)
        else:
            with pytest.raises(ConfigError, match=error):
                load_checkpoint(path)


class TestTrainerConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            TrainerConfig(algorithm="sgd")

    def test_outer_lr_defaults_by_algorithm(self):
        assert TrainerConfig(algorithm="paml").resolved_outer_lr == 5e-6
        assert TrainerConfig(algorithm="reg-paml").resolved_outer_lr == 5e-5
        assert TrainerConfig(algorithm="at-paml").resolved_outer_lr == 5e-5
        assert TrainerConfig(algorithm="paml", outer_lr=1e-2).resolved_outer_lr == 1e-2

    def test_gamma_only_active_for_reg_paml(self):
        assert TrainerConfig(algorithm="reg-paml", gamma=1e-3).effective_gamma() == 1e-3
        assert TrainerConfig(algorithm="paml", gamma=1e-3).effective_gamma() == 0.0

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainerConfig(fixed_inner_lr=0.0)
        with pytest.raises(ConfigError):
            TrainerConfig(warmup_inner_lr=-1e-3)
        with pytest.raises(ConfigError):
            TrainerConfig(outer_lr=-1.0)


class TestNoNamedViewsOnTheHotPath:
    """A steady-state outer step reads every ParamSet by flat offset: it never
    builds the name -> view dict of a Layout."""

    @pytest.mark.parametrize("algorithm", ["paml", "at-paml"])
    def test_outer_step_builds_no_layout_views(self, monkeypatch, algorithm):
        trainer = MetaTrainer(tiny_splits(n_tasks=40), tiny_config(algorithm=algorithm))
        batch = trainer.train_episodes[:8]
        trainer.outer_step(batch, warmup=algorithm == "at-paml")
        trainer.outer_step(batch)
        assert algorithm == "paml" or len(trainer.tree) > 0
        calls = []
        original = Layout.views
        monkeypatch.setattr(Layout, "views",
                            lambda self, flat: calls.append(self) or original(self, flat))
        log = trainer.outer_step(batch)
        trainer._validation_loss()
        assert len(log.episode_logs) == len(batch)
        assert calls == []
