"""The padded trainer and evaluation passes against a per-episode reference.

`MetaTrainer.outer_gradients` orders a batch by shape, cuts it into passes
of at most `EVAL_STACK_BYTES` of parameter rows, and runs each pass's
support and query sets as padded blocks: every episode padded to the
pass's longest, each dense layer one 3-D matmul with one BLAS call per
episode.  `_evaluate_encoded` orders and cuts a split the same way, into
passes of at least ``batch_size`` users, each one support `grad_stack`, one
inner step and one forward pass over its padded query stack.  An
episode's bits depend only on its own rows and its pass's padded length,
so the reference here rebuilds both one episode at a time, each in a
two-episode stack beside its pass's longest support and query episodes,
through `grad_stack`, the stacked `hvp` and `predict_stack`; every output
must match it bit for bit, at a small model and at the criterion-6 model
shape.  A lone, unpadded pass differs from a padded one only in rounding,
which one test bounds.  Both sides run in one process on one BLAS kernel,
so unlike the pinned digests these checks hold on any host.
"""

import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from metarec import meta_learners
from metarec import model as model_module
from metarec.datagen import generate_corpus
from metarec.errors import NumericError
from metarec.memory_tree import blend_gradients
from metarec.meta_learners import (MetaTrainer, TrainerConfig, _check_inner_rate,
                                   _distinct_rates, _encode_split, _evaluate_encoded,
                                   _sum_tree_gradients, logged_rate)
from metarec.model import (check_episodes, grad, grad_stack, hvp, loss, predict_stack,
                           user_embedding)
from metarec.params import ParamSet, axpy_update
from metarec.tasks import (InteractionColumns, PreprocessConfig, load_movielens, preprocess,
                           synthetic_splits)

ALGORITHMS = ("paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd")
HEAD_ALGORITHMS = ("paml", "at-paml", "reg-paml")
# (kind, algorithm) pairs; a rate head or the meta-sgd vector can be made to
# give exact zeros, a fixed rate cannot
CASES = [(kind, algorithm)
         for kind in ("equal", "mixed", "poisoned", "query-overflow", "all-failed", "zero-rate")
         for algorithm in (HEAD_ALGORITHMS + ("meta-sgd",) if kind == "zero-rate"
                           else ALGORITHMS)]
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


def reshaped(ep, n_support=None, n_query=None, support_target=None, query_target=None):
    """The `TaskEpisode` ``ep`` on new columns: its support and query sets
    cut to the given row counts, and the first target of either set replaced."""
    def part(columns, n_rows, target):
        n_rows = len(columns) if n_rows is None else n_rows
        feedback = np.array(columns.feedback[:n_rows])
        if target is not None:
            feedback[0] = target
        return InteractionColumns(columns.item_ids[:n_rows], columns.items[:n_rows], feedback,
                                  columns.timestamps[:n_rows])
    return dataclasses.replace(ep, support=part(ep.support, n_support, support_target),
                               query=part(ep.query, n_query, query_target))


def batches(trainer):
    """All one shape; one group of three plus singletons; NaN targets inside a
    group; a support target so large that the support pass stays finite and
    the query forward pass overflows; a group of two where one episode fails
    at the support stage and the other at the query stage; and the mixed
    batch again, for `zero_rates`.  Each batch with an edited episode is
    encoded from its `TaskEpisode`s, as the trainer encodes a split."""
    eps = list(trainer.splits.train)

    def encoded(episodes):
        return _encode_split(trainer.splits, episodes, trainer.spec)

    equal = trainer.train_episodes[:6]
    mixed = encoded([eps[0], reshaped(eps[1], n_support=3), eps[2], reshaped(eps[3], n_query=2),
                     eps[4], reshaped(eps[5], 2, 4)])
    poisoned = encoded([eps[0], reshaped(eps[1], support_target=np.nan), eps[2],
                        reshaped(eps[3], query_target=np.nan), eps[4],
                        reshaped(eps[5], n_support=3)])
    query_overflow = encoded([eps[0], reshaped(eps[1], support_target=1e150), eps[2], eps[3]])
    all_failed = encoded([eps[0], reshaped(eps[1], n_support=3, support_target=np.nan), eps[2],
                          reshaped(eps[3], n_support=3, query_target=np.nan)])
    return {"equal": equal, "mixed": mixed, "poisoned": poisoned,
            "query-overflow": query_overflow, "all-failed": all_failed, "zero-rate": mixed}


def zero_rates(trainer):
    """Make every inner rate exactly 0.0: the head's last bias drives its
    sigmoid to underflow, and the tree's stored rates blend to zero.  For
    meta-sgd, make every other entry of the rate vector exactly 0.0."""
    if trainer.msgd_alpha is not None:
        flat = trainer.msgd_alpha.flat.copy()
        flat[::2] = 0.0
        trainer.msgd_alpha = ParamSet.wrap(trainer.msgd_alpha.layout, flat)
        return
    psi = trainer.head.psi
    flat = psi.flat.copy()
    flat[psi.layout.slices[-1]] = -1e4
    trainer.head.psi = ParamSet.wrap(psi.layout, flat)
    if trainer.tree is not None:
        for node_id in trainer.tree.node_ids():
            trainer.tree.node(node_id).lr = 0.0


def case(kind, algorithm):
    """The trainer and batch of one (kind, algorithm) case."""
    trainer = trained(algorithm)
    if kind == "zero-rate":
        zero_rates(trainer)
    return trainer, batches(trainer)[kind]


def cut(batch, limit):
    """The batch positions of each pass's episodes, ordered by (query rows,
    support rows) and cut every ``limit`` episodes, as the trainer and
    evaluation cut them."""
    order = np.lexsort((batch.support.lengths, batch.query.lengths)).tolist()
    return [order[start:start + limit] for start in range(0, len(order), limit)]


def train_limit(trainer):
    """Episodes per training pass."""
    return meta_learners.EVAL_STACK_BYTES // trainer.theta.flat.nbytes


def eval_limit(trainer, config):
    """Users per evaluation pass at ``config``."""
    return max(config.batch_size, train_limit(trainer))


def passes(trainer, batch):
    """The batch positions of each pass's episodes, as the trainer cuts them."""
    return cut(batch, train_limit(trainer))


def longest(batch, limit):
    """Each episode's pass partners: the pass's episode with the most
    support rows and the one with the most query rows."""
    partners = {}
    for positions in cut(batch, limit):
        support = max(positions, key=lambda i: batch.support.lengths[i])
        query = max(positions, key=lambda i: batch.query.lengths[i])
        partners.update((i, (support, query)) for i in positions)
    return partners


def beside(spec, part, partner):
    """The episode ``part`` and its pass's longest ``partner`` as one stack:
    ``part`` is slice 0, padded to the pass's length."""
    return check_episodes(spec, [part, partner])


def slice_zero(theta, g, name):
    """Slice 0's row of a two-episode `grad_stack` as a ParamSet like
    ``theta``, or the first error a lone pass raises: the forward pass's,
    then the ``name`` loss's, then the ``name`` gradient's."""
    if 0 in g.failed:
        raise g.failed[0]
    if not math.isfinite(g.losses[0]):
        raise NumericError(f"{name} loss is not finite")
    row = ParamSet.wrap(theta.layout, g.rows[0].copy())
    row.check_finite(f"{name} gradient")
    return row


def adapt_beside(theta, spec, alpha, support):
    """One inner step on slice 0 of ``support``: (theta_i, g_s, the support
    StackGradient)."""
    _check_inner_rate(alpha)
    s = grad_stack(theta.flat, spec, support.stack(spec.plan))
    g_s = slice_zero(theta, s, "support")
    return axpy_update(theta, g_s, alpha), g_s, s


def reference_outer_gradients(trainer, batch, tree):
    """The outer gradients of ``batch``, one episode at a time, each beside
    its pass's longest episodes."""
    cfg, spec, theta = trainer.config, trainer.spec, trainer.theta
    gamma = cfg.effective_gamma()
    theta_grad = theta.zeros_like()
    psi_grad = trainer.head.psi.zeros_like() if trainer.head is not None else None
    msgd_grad = theta.zeros_like() if trainer.msgd_alpha is not None else None
    tree_parts, pending, logs, messages = [], [], [], []
    total_loss = 0.0
    partners = longest(batch, train_limit(trainer))
    for i, ep in enumerate(batch):
        h = user_embedding(theta, spec, ep.user_ids)
        [(alpha, dalpha_dpsi, neighbors)], _ = _distinct_rates(
            cfg, trainer.head, trainer.msgd_alpha, tree, h[None], train=True)
        support_partner, query_partner = (batch[k] for k in partners[i])
        support = beside(spec, ep.support, support_partner.support)
        try:
            theta_i, g_s, s = adapt_beside(theta, spec, alpha, support)
            q = grad_stack(np.stack([theta_i.flat] * 2), spec,
                           beside(spec, ep.query, query_partner.query).stack(spec.plan))
            g_q = slice_zero(theta, q, "query")
        except NumericError as exc:
            messages.append(f"dropping episode for user {ep.user_key!r}: {exc}")
            continue

        def hvp_beside(x):
            return ParamSet.wrap(theta.layout,
                                 hvp(theta, spec, support, np.stack([x.flat] * 2), at=s)[0])

        grad_sq = g_s.dot(g_s)
        reg_value = 0.0
        if isinstance(alpha, ParamSet):
            ep_theta = g_q.sub(hvp_beside(alpha.mul(g_q)))
            msgd_grad = msgd_grad.add(g_s.mul(g_q).scale(-1.0))
        else:
            reg_value = grad_sq * abs(alpha)
            v = g_s.scale(2.0 * gamma * alpha).sub(g_q.scale(alpha))
            ep_theta = g_q.add(hvp_beside(v))
        upstream = gamma * grad_sq - g_s.dot(g_q)
        if dalpha_dpsi is not None:
            psi_grad = psi_grad.add(ParamSet.wrap(psi_grad.layout, dalpha_dpsi).scale(upstream))
        if neighbors is not None:
            tree_parts.append((neighbors.ids,) + blend_gradients(
                h, neighbors, upstream, cfg.tree_delta, cfg.tree_sigma))
        if tree is not None:
            pending.append((h, alpha))
        theta_grad = theta_grad.add(ep_theta)
        s_loss, q_loss = float(s.losses[0]), float(q.losses[0])
        logs.append((ep.user_key, logged_rate(alpha), s_loss, q_loss, reg_value, grad_sq,
                     float(np.linalg.norm(h))))
        total_loss += q_loss + gamma * reg_value
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
    if kind == "zero-rate" and algorithm != "meta-sgd":
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


def reference_records(trainer, episodes, config=None):
    """Evaluation records of ``episodes``, one user at a time, each beside
    its pass's longest users, in the passes evaluation cuts at ``config``
    (the trainer's by default)."""
    cfg = trainer.config if config is None else config
    spec, theta = trainer.spec, trainer.theta
    partners = longest(episodes, eval_limit(trainer, cfg))
    records = []
    for i, ep in enumerate(episodes):
        h = user_embedding(theta, spec, ep.user_ids)
        [(alpha, _, _)], _ = _distinct_rates(cfg, trainer.head, trainer.msgd_alpha, trainer.tree,
                                             h[None])
        support_partner, query_partner = (episodes[k] for k in partners[i])
        theta_u, _, _ = adapt_beside(theta, spec, alpha,
                                     beside(spec, ep.support, support_partner.support))
        rows, failed = predict_stack(np.stack([theta_u.flat] * 2), spec,
                                     beside(spec, ep.query, query_partner.query).stack(spec.plan))
        if 0 in failed:
            raise failed[0]
        predictions = rows[0, :len(ep.query[2])]
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


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("budget", ["byte-cap", "one-user"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_evaluation_stacks_cut_by_bytes_match_one_episode_reference(monkeypatch, algorithm,
                                                                    budget, poisoned):
    """More equal-shape users than ``batch_size`` and than the byte budget
    holds: the budget, not ``batch_size``, cuts the stacks, or, shrunk to
    nothing with ``batch_size`` 1, puts one user in each.  Either way every
    record, or the first error, is the one-user reference's.  Poisoned, an
    early user's query pass overflows and a later one's support loss is NaN,
    in different stacks."""
    trainer = trained(algorithm)
    episodes = [*trainer.splits.train, *trainer.splits.validation] * 2
    config = trainer.config
    cap = meta_learners.EVAL_STACK_BYTES // trainer.theta.flat.nbytes
    assert config.batch_size < cap
    if budget == "one-user":
        monkeypatch.setattr(meta_learners, "EVAL_STACK_BYTES", 1)
        config, cap = dataclasses.replace(config, batch_size=1), 1
    assert config.batch_size <= cap < len(episodes)
    if poisoned:
        episodes[12] = reshaped(episodes[12], support_target=1e150)
        episodes[-5] = reshaped(episodes[-5], support_target=np.nan)
    episodes = _encode_split(trainer.splits, episodes, trainer.spec)
    sizes = []
    predict_stack = meta_learners.predict_stack

    def spy(flat, spec, stack):
        sizes.append(len(stack.lengths))
        return predict_stack(flat, spec, stack)

    monkeypatch.setattr(meta_learners, "predict_stack", spy)
    args = (trainer.theta, trainer.spec, config, trainer.head, trainer.msgd_alpha, trainer.tree,
            episodes)
    if poisoned:
        with pytest.raises(NumericError) as expected:
            reference_records(trainer, episodes, config)
        with pytest.raises(NumericError) as got:
            _evaluate_encoded(*args)
        assert str(got.value) == str(expected.value) == "non-finite values in decision layer 1"
    else:
        got = [(r.user_key, repr(r.alpha), r.predictions.tobytes(), r.targets.tobytes(),
                repr(r.query_loss)) for r in _evaluate_encoded(*args)]
        assert got == reference_records(trainer, episodes, config)
    n_full, rest = divmod(len(episodes), cap)
    assert sizes == [cap] * n_full + [rest] * (rest > 0)


def test_a_non_finite_slice_fails_alone_and_silently():
    """One row of a per-slice parameter stack has an infinite first-layer
    bias: that slice stays in the stack and fails with the one-episode error
    and no numpy warning, and the others keep the bits of their own passes."""
    trainer = trained("paml")
    spec, theta = trainer.spec, trainer.theta
    episodes = trainer.train_episodes[:4].query
    flats = np.stack([theta.flat + 1e-3 * k for k in range(4)])
    flats[2, spec.plan.layers[0][2]] = np.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = grad_stack(flats, spec, episodes.stack(spec.plan))
    assert caught == []
    assert len(got.rows) == len(got.losses) == 4 and list(got.failed) == [2]
    with pytest.raises(NumericError) as expected:
        grad(ParamSet.wrap(theta.layout, flats[2].copy()), spec, episodes[2])
    assert str(got.failed[2]) == str(expected.value) == "non-finite values in decision layer 0"
    for k in (0, 1, 3):
        alone = grad(ParamSet.wrap(theta.layout, flats[k].copy()), spec, episodes[k])
        assert got.rows[k].tobytes() == alone.flat.tobytes()
        assert repr(float(got.losses[k])) == repr(alone.loss)


# ---------------------------------------------------------------------------
# the paper's model shape: ragged blocks cut into passes by bytes


PAPER_SHAPE = dict(batch_size=16, embedding_dim=16, decision_dims=(64, 32, 1),
                   lr_hidden_dims=(32, 16), outer_lr=0.05, lr_scale=0.1, fixed_inner_lr=1e-5,
                   gamma=1e-2, tree_neighbors_train=4, tree_neighbors_infer=2, seed=2)


@pytest.fixture(scope="module")
def paper_splits(tmp_path_factory):
    """A small generated corpus: 4 user features and many episode lengths."""
    root = tmp_path_factory.mktemp("paper-corpus")
    paths = generate_corpus(str(root), n_users=60, n_movies=60, seed=1, minor_taste_scale=2.5,
                            min_items=15, max_items=40)
    return preprocess(load_movielens(paths["ratings"], paths["users"], paths["movies"]),
                      PreprocessConfig(seed=0))


def paper_trainer(splits, algorithm):
    """A trainer two epochs in at the criterion-6 model shape."""
    trainer = MetaTrainer(splits, TrainerConfig(algorithm=algorithm, epochs=2, **PAPER_SHAPE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trainer.train()
    assert len(trainer.spec.user_vocab_sizes) == 4
    return trainer


def paper_batch(trainer):
    """16 episodes, most of one length each, and one length twice: one of
    that pair has a NaN support target, the other stays finite, and both sit
    in one block of one pass.  A third episode's support target is so large
    that its query pass overflows."""
    eps = list(trainer.splits.train)
    shapes = [(len(ep.support), len(ep.query)) for ep in eps]
    pair = next((i, j) for i in range(len(eps)) for j in range(i + 1, len(eps))
                if shapes[i] == shapes[j])
    chosen, seen = list(pair), {shapes[pair[0]]}
    for i, shape in enumerate(shapes):
        if len(chosen) < 16 and shape not in seen:
            chosen.append(i)
            seen.add(shape)
    chosen = chosen[2:9] + [chosen[0]] + chosen[9:] + [chosen[1]]
    episodes = [eps[i] for i in chosen]
    episodes[7] = reshaped(episodes[7], support_target=np.nan)
    episodes[3] = reshaped(episodes[3], support_target=1e150)
    return _encode_split(trainer.splits, episodes, trainer.spec)


def test_paper_batch_is_ragged_and_cut_into_passes(paper_splits):
    trainer = paper_trainer(paper_splits, "paml")
    batch = paper_batch(trainer)
    shapes = list(zip(batch.support.lengths.tolist(), batch.query.lengths.tolist()))
    assert len(shapes) == 16 and len(set(shapes)) == 15 and shapes[7] == shapes[15]
    cut = passes(trainer, batch)
    assert len(cut) > 1
    assert any(7 in positions and 15 in positions for positions in cut)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paper_shape_outer_gradients_match_one_episode_reference(paper_splits, algorithm):
    trainer = paper_trainer(paper_splits, algorithm)
    batch = paper_batch(trainer)
    tree = copy.deepcopy(trainer.tree)
    expected = reference_outer_gradients(trainer, batch, tree)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = trainer.outer_gradients(batch)
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [str(w.message) for w in caught] == expected["messages"]
    assert [message.split(": ", 1)[1] for message in expected["messages"]] == \
        ["non-finite values in decision layer 1", "support loss is not finite"]
    assert got.n_skipped == 2
    assert bits(got.theta_grad) == bits(expected["theta"])
    assert bits(got.psi_grad) == bits(expected["psi"])
    assert bits(got.msgd_grad) == bits(expected["msgd"])
    for got_part, expected_part in zip((got.tree_node_ids, got.tree_emb_grads,
                                        got.tree_lr_grads), expected["tree"]):
        assert got_part.tobytes() == expected_part.tobytes()
    assert repr([tuple(log)[:7] for log in got.episode_logs]) == repr(expected["logs"])
    assert [(h.tobytes(), repr(lr)) for h, lr in got.pending_stores] \
        == [(h.tobytes(), repr(lr)) for h, lr in expected["pending"]]
    assert repr(got.total_loss) == repr(expected["total_loss"])
    assert tree_state(trainer.tree) == tree_state(tree)


def pooled_reference(theta, spec, split, v):
    """The pooled grad, loss and hvp of ``split``, each episode through a pass
    of its own beside the split's longest episode, every term of its real
    rows added onto zeros in episode order."""
    plan = spec.plan
    total = int(split.lengths.sum())
    start = plan.layers[0][0].start
    partner = int(np.argmax(split.lengths))
    g, hv, loss_value = np.zeros(theta.layout.size), np.zeros(theta.layout.size), 0.0
    for i in range(len(split)):
        stack = split.take([i, partner]).stack(plan)
        n = stack.lengths[0]
        rows = np.empty((2, theta.layout.size))
        failed, losses, user_values, item_values, tape = model_module._grad_pass(
            theta.flat, plan, stack, total, rows)
        assert not failed
        loss_value = loss_value + losses[0]
        hv_rows = np.empty_like(rows)
        hv_terms = model_module._hvp_pass(tape, v.flat, plan, hv_rows)
        for out, (pass_rows, users, items) in ((g, (rows, user_values, item_values)),
                                               (hv, (hv_rows,) + hv_terms)):
            out[start:] += pass_rows[0, start:]
            np.add.at(out, stack.user_index[0], users[0])
            np.add.at(out, stack.item_index[0, :n].ravel(), items[0, :n].ravel())
    return g, float(loss_value), hv


def test_paper_shape_pooled_grad_and_hvp_match_one_episode_reference(paper_splits):
    trainer = paper_trainer(paper_splits, "transfer")
    spec, theta = trainer.spec, trainer.theta
    pooled = _encode_split(trainer.splits, list(trainer.splits.train)[:16], spec).pooled()
    lengths = pooled.lengths.tolist()
    assert len(set(lengths)) > 8 and len(set(lengths)) < len(lengths)
    v = ParamSet.wrap(theta.layout, np.random.default_rng(5).normal(size=theta.layout.size))
    g = grad(theta, spec, pooled)
    expected_g, expected_loss, expected_hv = pooled_reference(theta, spec, pooled, v)
    assert g.flat.tobytes() == expected_g.tobytes()
    assert repr(g.loss) == repr(expected_loss)
    assert hvp(theta, spec, pooled, v, at=g).flat.tobytes() == expected_hv.tobytes()


@pytest.mark.parametrize("batch_size", [16, 1])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paper_shape_evaluation_matches_one_episode_reference(paper_splits, algorithm,
                                                              batch_size):
    """Unpoisoned, every record is the one-user reference's; poisoned, the
    first error in batch order is raised, and no numpy warning escapes.  At
    ``batch_size`` 16 the 16 users run as one pass; at 1 the byte budget
    cuts them into several, and the NaN-poisoned user still shares a block
    with a finite user of its shape."""
    trainer = paper_trainer(paper_splits, algorithm)
    config = dataclasses.replace(trainer.config, batch_size=batch_size)
    args = (trainer.theta, trainer.spec, config, trainer.head, trainer.msgd_alpha,
            trainer.tree)
    batch, clean = paper_batch(trainer), trainer.train_episodes[:16]
    if batch_size == 1:  # evaluation's limit is then the trainer's
        assert len(passes(trainer, batch)) > 1 and len(passes(trainer, clean)) > 1
        assert any(7 in positions and 15 in positions for positions in passes(trainer, batch))
    with pytest.raises(NumericError) as expected:
        reference_records(trainer, batch, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as got:
            _evaluate_encoded(*args, batch)
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert str(got.value) == str(expected.value) == "non-finite values in decision layer 1"
    got = [(r.user_key, repr(r.alpha), r.predictions.tobytes(), r.targets.tobytes(),
            repr(r.query_loss)) for r in _evaluate_encoded(*args, clean)]
    assert got == reference_records(trainer, clean, config)


@pytest.mark.parametrize("rate", [1e200, 1e100])
def test_evaluation_raises_before_it_squares_a_residual(paper_splits, rate):
    """A huge fixed rate: some users' forward passes go non-finite, and others'
    predictions stay finite but square past the float range.  Evaluation
    across several passes raises the reference's first error without
    squaring any residual, so no overflow warning escapes."""
    trainer = paper_trainer(paper_splits, "maml-fixed")
    config = dataclasses.replace(trainer.config, batch_size=1, fixed_inner_lr=rate)
    trainer.config = config
    episodes = trainer.train_episodes
    assert len(passes(trainer, episodes)) > 1
    with pytest.raises(NumericError) as expected:
        reference_records(trainer, episodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as got:
            _evaluate_encoded(trainer.theta, trainer.spec, config, None, None, None, episodes)
    assert [str(w.message) for w in caught] == []
    assert str(got.value) == str(expected.value)


def test_validation_runs_one_support_pass_per_budget_not_per_shape(paper_splits, monkeypatch):
    """The validation split makes ceil(n / limit) support passes, fewer than
    its shapes, and writes them into the trainer's reused theta rows."""
    trainer = paper_trainer(paper_splits, "at-paml")
    episodes = trainer.val_episodes
    limit = max(trainer.config.batch_size,
                meta_learners.EVAL_STACK_BYTES // trainer.theta.flat.nbytes)
    shapes = set(zip(episodes.support.lengths.tolist(), episodes.query.lengths.tolist()))
    outs = []
    grad_stack_ = meta_learners.grad_stack

    def spy(flat, spec, stack, out=None):
        outs.append(out)
        return grad_stack_(flat, spec, stack, out)

    monkeypatch.setattr(meta_learners, "grad_stack", spy)
    trainer._validation_loss()
    assert len(outs) == math.ceil(len(episodes) / limit) < len(shapes)
    assert all(out.base is trainer._workspace["theta"] for out in outs)


# ---------------------------------------------------------------------------
# the padded pass itself: what an episode's bits depend on


def pass_outputs(theta, spec, split, flats, v):
    """Each episode's gradient row, loss, Hessian-vector row (at the shared
    theta only) and padded predictions, from one stack of ``split``."""
    stack = split.stack(spec.plan)
    g = grad_stack(flats, spec, stack)
    hv = hvp(theta, spec, split, v, at=g) if flats.ndim == 1 else None
    predictions, failed = predict_stack(flats, spec, stack)
    assert not g.failed and not failed
    return [[g.rows[e], g.losses[e:e + 1], predictions[e]] + ([] if hv is None else [hv[e]])
            for e in range(len(split))]


def ragged_support(trainer):
    """The support sets of six training episodes of five lengths, the
    longest of which two other episodes share: (pass, those two)."""
    split = trainer.train_episodes.support
    lengths = split.lengths
    values, counts = np.unique(lengths, return_counts=True)
    top = int(values[counts >= 3].max())
    with_top = np.flatnonzero(lengths == top)
    shorter = [int(np.flatnonzero(lengths == n)[0]) for n in values[values < top][-4:]]
    chosen = shorter[:2] + [int(with_top[0])] + shorter[2:] + [shorter[0]]
    return split.take(np.array(chosen)), split.take(with_top[1:3])


@pytest.mark.parametrize("per_episode", [False, True])
def test_permuting_a_pass_permutes_its_rows_bit_for_bit(paper_splits, per_episode):
    """Reordered, a ragged pass gives each episode the same bytes: gradient
    row, loss, Hessian-vector row and padded predictions."""
    trainer = paper_trainer(paper_splits, "paml")
    spec, theta = trainer.spec, trainer.theta
    split, _ = ragged_support(trainer)
    assert len(set(split.lengths.tolist())) == 5
    rng = np.random.default_rng(11)
    flats = np.stack([theta.flat + 1e-3 * k for k in range(len(split))]) if per_episode \
        else theta.flat
    v = rng.normal(size=(len(split), theta.layout.size))
    expected = pass_outputs(theta, spec, split, flats, v)
    for order in (np.arange(len(split))[::-1], rng.permutation(len(split))):
        got = pass_outputs(theta, spec, split.take(order),
                           flats[order] if per_episode else flats, v[order])
        for k, e in enumerate(order.tolist()):
            assert [a.tobytes() for a in got[k]] == [a.tobytes() for a in expected[e]]


def test_an_episode_keeps_its_bits_beside_any_partner_of_its_pass_length(paper_splits):
    """Each episode's row in a ragged pass equals its row in a two-episode
    pass beside the pass's longest, or beside either of two other episodes
    of that length, through `grad_stack`, `hvp` and `predict_stack`."""
    trainer = paper_trainer(paper_splits, "paml")
    spec, theta = trainer.spec, trainer.theta
    split, others = ragged_support(trainer)
    longest_position = int(np.argmax(split.lengths))
    assert (others.lengths == split.lengths[longest_position]).all()
    v = np.random.default_rng(12).normal(size=(len(split), theta.layout.size))
    expected = pass_outputs(theta, spec, split, theta.flat, v)
    for e in range(len(split)):
        for pair in (split.take([e, longest_position]), check_episodes(spec, [split[e], others[0]]),
                     check_episodes(spec, [split[e], others[1]])):
            got = pass_outputs(theta, spec, pair, theta.flat, v[[e, e]])[0]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected[e]]


def test_padding_adds_nothing_to_a_short_episode(paper_splits):
    """The shortest episode of a ragged pass matches its lone, unpadded pass
    to 1e-14 relative: padding changes how its sums round, not what they
    sum."""
    trainer = paper_trainer(paper_splits, "paml")
    spec, theta = trainer.spec, trainer.theta
    split, _ = ragged_support(trainer)
    short = int(np.argmin(split.lengths))
    n = int(split.lengths[short])
    assert n < split.lengths.max()
    v = np.random.default_rng(13).normal(size=(len(split), theta.layout.size))
    padded = pass_outputs(theta, spec, split, theta.flat, v)[short]
    alone = pass_outputs(theta, spec, split.take([short]), theta.flat, v[[short]])[0]
    padded[2], alone[2] = padded[2][:n], alone[2][:n]
    for got, expected in zip(padded, alone):
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# the trainer's reused row buffers


def test_a_repeated_step_allocates_no_row_stack(paper_splits, monkeypatch):
    """After one step has sized the trainer's buffers, another step at the
    same batch keeps them, and no block it allocates reaches the bytes of
    one pass buffer: every (episodes, parameters) stack is a reused view."""
    trainer = paper_trainer(paper_splits, "at-paml")
    batch = trainer.train_episodes[:16]
    trainer.outer_gradients(batch)
    buffers = dict(trainer._workspace)
    pass_bytes = buffers["support"].nbytes
    assert len(buffers["support"]) < len(batch)
    largest = []

    def watched(name):
        call = getattr(meta_learners, name)

        def wrapped(*args, **kwargs):
            result = call(*args, **kwargs)
            largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
            return result
        monkeypatch.setattr(meta_learners, name, wrapped)

    for name in ("grad_stack", "hvp", "row_dots"):
        watched(name)
    tracemalloc.start()
    try:
        trainer.outer_gradients(batch)
    finally:
        tracemalloc.stop()
    assert len(largest) == 5 * len(passes(trainer, batch))  # 2 grad_stack, 2 row_dots, 1 hvp
    assert trainer._workspace.keys() == buffers.keys()
    assert all(trainer._workspace[name] is buffer for name, buffer in buffers.items())
    assert max(largest) < pass_bytes


@pytest.mark.parametrize("algorithm", ("at-paml", "meta-sgd", "reg-paml"))
def test_a_returned_gradient_pass_outlives_the_next_step(paper_splits, algorithm):
    trainer = paper_trainer(paper_splits, algorithm)
    first, second = trainer.train_episodes[:16], trainer.train_episodes[16:32]

    def snapshot(g):
        arrays = [g.theta_grad.flat, g.tree_node_ids, g.tree_emb_grads, g.tree_lr_grads]
        arrays += [part.flat for part in (g.psi_grad, g.msgd_grad) if part is not None]
        arrays += [h for h, _ in g.pending_stores]
        return [a.tobytes() for a in arrays], repr((g.episode_logs, g.total_loss))

    got = trainer.outer_gradients(first)
    before = snapshot(got)
    trainer.outer_step(second)
    trainer.outer_gradients(first)
    assert snapshot(got) == before
