"""The stacked trainer and evaluation passes against a one-episode reference.

`MetaTrainer.outer_gradients` and `_evaluate_encoded` run every shape group
of a batch (episodes with equal support and query row counts) as one 3-D
stack.  The reference here rebuilds both one episode at a time from the
single-episode `grad`, `hvp` and `predict` calls, the way the trainer ran
before it stacked anything, and every output must match it bit for bit.
Both sides run in one process on one BLAS kernel, so unlike the pinned
digests these checks hold on any host.
"""

import copy
import math
import warnings

import numpy as np
import pytest

from metarec.errors import NumericError
from metarec.memory_tree import blend_gradients
from metarec.meta_learners import (MetaTrainer, TrainerConfig, _evaluate_encoded, _resolve_rate,
                                   _sum_tree_gradients, adapt_with_gradient, logged_rate)
from metarec.model import (check_episode, grad, grad_stack, hvp, loss, predict, stack_episodes,
                           user_embedding)
from metarec.params import ParamSet
from metarec.tasks import synthetic_splits

ALGORITHMS = ("paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd")
HEAD_ALGORITHMS = ("paml", "at-paml", "reg-paml")
# (kind, algorithm) pairs; only a rate head can be made to give exact zeros
CASES = [(kind, algorithm)
         for kind in ("equal", "mixed", "poisoned", "query-overflow", "all-failed", "zero-rate")
         for algorithm in (HEAD_ALGORITHMS if kind == "zero-rate" else ALGORITHMS)]
# episodes each kind's batch drops
DROPPED = {"poisoned": 2, "query-overflow": 1, "all-failed": 2}


def trained(algorithm):
    """A trainer two epochs in, so at-paml is past warm-up with a filled tree."""
    config = TrainerConfig(algorithm=algorithm, epochs=2, warmup_epochs=1, batch_size=3,
                           embedding_dim=8, decision_dims=(32, 16, 1), lr_hidden_dims=(8, 4),
                           outer_lr=0.02, lr_scale=0.1, fixed_inner_lr=1e-3, gamma=1e-2,
                           tree_neighbors_train=4, tree_neighbors_infer=2, seed=3)
    splits = synthetic_splits(0.7, 0.3, 0.0, 1.0, 60, 0.1, seed=4)
    trainer = MetaTrainer(splits, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trainer.train()
    if algorithm == "at-paml":
        assert len(trainer.tree) > 0
    return trainer


def reshaped(trainer, ep, n_support=None, n_query=None, support_target=None,
             query_target=None):
    """``ep`` with its support and query sets cut to the given row counts, and
    the first target of either set replaced."""
    def part(episode, n_rows, target):
        user_ids, items, targets = episode
        n_rows = len(targets) if n_rows is None else n_rows
        targets = np.array(targets[:n_rows])
        if target is not None:
            targets[0] = target
        return check_episode(trainer.spec, user_ids, items[:n_rows], targets)
    return ep._replace(support=part(ep.support, n_support, support_target),
                       query=part(ep.query, n_query, query_target))


def batches(trainer):
    """All one shape; one group of three plus singletons; NaN targets inside a
    group; a support target so large that the support pass stays finite and
    the query forward pass overflows; a group of two where one episode fails
    at the support stage and the other at the query stage; and the mixed
    batch again, for `zero_rates`."""
    eps = trainer.train_episodes
    equal = list(eps[:6])
    mixed = [eps[0], reshaped(trainer, eps[1], n_support=3), eps[2],
             reshaped(trainer, eps[3], n_query=2), eps[4], reshaped(trainer, eps[5], 2, 4)]
    poisoned = [eps[0], reshaped(trainer, eps[1], support_target=np.nan), eps[2],
                reshaped(trainer, eps[3], query_target=np.nan), eps[4],
                reshaped(trainer, eps[5], n_support=3)]
    query_overflow = [eps[0], reshaped(trainer, eps[1], support_target=1e150), eps[2], eps[3]]
    all_failed = [eps[0], reshaped(trainer, eps[1], n_support=3, support_target=np.nan), eps[2],
                  reshaped(trainer, eps[3], n_support=3, query_target=np.nan)]
    return {"equal": equal, "mixed": mixed, "poisoned": poisoned,
            "query-overflow": query_overflow, "all-failed": all_failed, "zero-rate": mixed}


def zero_rates(trainer):
    """Make every inner rate exactly 0.0: the head's last bias drives its
    sigmoid to underflow, and the tree's stored rates blend to zero."""
    psi = trainer.head.psi
    flat = psi.flat.copy()
    flat[psi.layout.slices[-1]] = -1e4
    trainer.head.psi = psi.from_flat(flat)
    if trainer.tree is not None:
        for node_id in trainer.tree.node_ids():
            trainer.tree.node(node_id).lr = 0.0


def case(kind, algorithm):
    """The trainer and batch of one (kind, algorithm) case."""
    trainer = trained(algorithm)
    if kind == "zero-rate":
        zero_rates(trainer)
    return trainer, batches(trainer)[kind]


def reference_outer_gradients(trainer, batch, tree):
    """The outer gradients of ``batch``, one episode at a time."""
    cfg, spec, theta = trainer.config, trainer.spec, trainer.theta
    gamma = cfg.effective_gamma()
    theta_grad = theta.zeros_like()
    psi_grad = trainer.head.psi.zeros_like() if trainer.head is not None else None
    msgd_grad = theta.zeros_like() if trainer.msgd_alpha is not None else None
    tree_parts, pending, logs, messages = [], [], [], []
    total_loss = 0.0
    for ep in batch:
        h = user_embedding(theta, spec, ep.user_ids)
        alpha, dalpha_dpsi, neighbors = _resolve_rate(cfg, trainer.head, trainer.msgd_alpha,
                                                      tree, h, train=True)
        try:
            theta_i, g_s = adapt_with_gradient(theta, spec, alpha, ep.support)
            g_q = grad(theta_i, spec, ep.query)
            if not math.isfinite(g_q.loss):
                raise NumericError("query loss is not finite")
            g_q.check_finite("query gradient")
        except NumericError as exc:
            messages.append(f"dropping episode for user {ep.user_key!r}: {exc}")
            continue
        grad_sq = g_s.dot(g_s)
        reg_value = 0.0
        if isinstance(alpha, ParamSet):
            ep_theta = g_q.sub(hvp(theta, spec, ep.support, alpha.mul(g_q), at=g_s))
            msgd_grad = msgd_grad.add(g_s.mul(g_q).scale(-1.0))
        else:
            reg_value = grad_sq * abs(alpha)
            v = g_s.scale(2.0 * gamma * alpha).sub(g_q.scale(alpha))
            ep_theta = g_q.add(hvp(theta, spec, ep.support, v, at=g_s))
        upstream = gamma * grad_sq - g_s.dot(g_q)
        if dalpha_dpsi is not None:
            psi_grad = psi_grad.add(dalpha_dpsi.scale(upstream))
        if neighbors is not None:
            tree_parts.append((neighbors.ids,) + blend_gradients(
                h, neighbors, upstream, cfg.tree_delta, cfg.tree_sigma))
        if tree is not None:
            pending.append((h, alpha))
        theta_grad = theta_grad.add(ep_theta)
        logs.append((ep.user_key, logged_rate(alpha), g_s.loss, g_q.loss, reg_value, grad_sq,
                     float(np.linalg.norm(h))))
        total_loss += g_q.loss + gamma * reg_value
    return dict(theta=theta_grad, psi=psi_grad, msgd=msgd_grad,
                tree=_sum_tree_gradients(tree_parts), pending=pending, logs=logs,
                total_loss=total_loss, messages=messages)


def bits(ps):
    return None if ps is None else ps.flat.tobytes()


def tree_state(tree):
    if tree is None:
        return None
    return [(i, tree.node(i).recency, tree.node(i).freq, tree.node(i).lr)
            for i in tree.node_ids()]


@pytest.mark.parametrize("kind, algorithm", CASES)
def test_outer_gradients_match_one_episode_reference(kind, algorithm):
    trainer, batch = case(kind, algorithm)
    tree = copy.deepcopy(trainer.tree)
    expected = reference_outer_gradients(trainer, batch, tree)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = trainer.outer_gradients(batch)
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [str(w.message) for w in caught] == expected["messages"]
    assert got.n_skipped == len(expected["messages"]) == DROPPED.get(kind, 0)
    if kind == "zero-rate":
        assert {log.alpha for log in got.episode_logs} == {0.0}
    assert bits(got.theta_grad) == bits(expected["theta"])
    assert bits(got.psi_grad) == bits(expected["psi"])
    assert bits(got.msgd_grad) == bits(expected["msgd"])
    for got_part, expected_part in zip((got.tree_node_ids, got.tree_emb_grads,
                                        got.tree_lr_grads), expected["tree"]):
        assert got_part.tobytes() == expected_part.tobytes()
    assert repr([(log.user_key, log.alpha, log.support_loss, log.query_loss, log.reg_value,
                  log.support_grad_sq, log.embedding_norm) for log in got.episode_logs]) \
        == repr(expected["logs"])
    assert [(h.tobytes(), repr(lr)) for h, lr in got.pending_stores] \
        == [(h.tobytes(), repr(lr)) for h, lr in expected["pending"]]
    assert repr(got.total_loss) == repr(expected["total_loss"])
    assert tree_state(trainer.tree) == tree_state(tree)


def reference_records(trainer, episodes):
    """Evaluation records of ``episodes``, one user at a time."""
    cfg, spec, theta = trainer.config, trainer.spec, trainer.theta
    records = []
    for ep in episodes:
        h = user_embedding(theta, spec, ep.user_ids)
        alpha = _resolve_rate(cfg, trainer.head, trainer.msgd_alpha, trainer.tree, h)[0]
        theta_u, _ = adapt_with_gradient(theta, spec, alpha, ep.support)
        predictions = predict(theta_u, spec, ep.query)
        records.append((ep.user_key, repr(logged_rate(alpha)), predictions.tobytes(),
                        ep.query[2].tobytes(), repr(loss(predictions, ep.query[2]))))
    return records


@pytest.mark.parametrize("kind, algorithm", CASES)
def test_evaluation_matches_one_episode_reference(kind, algorithm):
    trainer, episodes = case(kind, algorithm)
    args = (trainer.theta, trainer.spec, trainer.config, trainer.head, trainer.msgd_alpha,
            trainer.tree, episodes)
    before = tree_state(trainer.tree)
    first_error = {"poisoned": "support loss is not finite",
                   "query-overflow": "non-finite values in decision layer 1",
                   "all-failed": "support loss is not finite"}
    if kind in first_error:
        with pytest.raises(NumericError) as expected:
            reference_records(trainer, episodes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as got:
                _evaluate_encoded(*args)
        assert caught == []
        assert str(got.value) == str(expected.value) == first_error[kind]
        return
    got = [(r.user_key, repr(r.alpha), r.predictions.tobytes(), r.targets.tobytes(),
            repr(r.query_loss)) for r in _evaluate_encoded(*args)]
    assert got == reference_records(trainer, episodes)
    assert tree_state(trainer.tree) == before


def test_a_non_finite_slice_fails_alone_and_silently():
    """One row of a per-slice parameter stack has an infinite first-layer
    bias: that slice stays in the stack and fails with the one-episode error
    and no numpy warning, and the others keep the bits of their own passes."""
    trainer = trained("paml")
    spec, theta = trainer.spec, trainer.theta
    episodes = [ep.query for ep in trainer.train_episodes[:4]]
    flats = np.stack([theta.flat + 1e-3 * k for k in range(4)])
    flats[2, spec.plan.layers[0][2]] = np.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = grad_stack(flats, spec, stack_episodes(spec, episodes))
    assert caught == []
    assert len(got.rows) == len(got.losses) == 4 and list(got.failed) == [2]
    with pytest.raises(NumericError) as expected:
        grad(theta.from_flat(flats[2]), spec, episodes[2])
    assert str(got.failed[2]) == str(expected.value) == "non-finite values in decision layer 0"
    for k in (0, 1, 3):
        alone = grad(theta.from_flat(flats[k]), spec, episodes[k])
        assert got.rows[k].tobytes() == alone.flat.tobytes()
        assert repr(float(got.losses[k])) == repr(alone.loss)
