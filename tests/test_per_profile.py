"""Inner rates resolved once per distinct user profile.

A user's rate depends on its embedding only, so `_resolve_rates` runs the
rate head once over the distinct embedding rows and at-paml searches the
tree once per distinct row, then touches each user's hits in batch order.
The references here resolve one user at a time, with `_resolve_rate`, the
way every user was resolved before, and the batched path must match them
bit for bit: rates, head gradients, hits, and the tree's recency and
frequency columns.
"""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from metarec.memory_tree import TreeMemory
from metarec.meta_learners import (LrHead, MetaTrainer, TrainerConfig, _evaluate_encoded,
                                   _resolve_rate, _resolve_rates)
from metarec.model import loss, user_embedding
from metarec.tasks import synthetic_splits


def three_profile_splits():
    """Two-group synthetic splits where every third user gets a third profile."""
    splits = synthetic_splits(0.7, 0.3, 0.0, 1.0, 60, 0.1, seed=4)

    def relabel(episodes):
        return tuple(dataclasses.replace(ep, user=dataclasses.replace(ep.user, features=(3,)))
                     if ep.user.user_id % 3 == 0 else ep for ep in episodes)

    return dataclasses.replace(splits, train=relabel(splits.train),
                               validation=relabel(splits.validation),
                               test=relabel(splits.test), user_vocabs=({1: 0, 2: 1, 3: 2},))


@pytest.fixture(scope="module")
def trainer():
    """An at-paml trainer two epochs in, past warm-up with a filled tree."""
    config = TrainerConfig(algorithm="at-paml", epochs=2, warmup_epochs=1, batch_size=3,
                           embedding_dim=4, decision_dims=(8, 1), lr_hidden_dims=(4, 2),
                           outer_lr=0.02, lr_scale=0.1, tree_neighbors_train=4,
                           tree_neighbors_infer=2, seed=3)
    trainer = MetaTrainer(three_profile_splits(), config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trainer.train()
    assert len(trainer.tree) > config.tree_neighbors_train
    return trainer


def profile_batch(trainer, order="ABACB"):
    """Train episodes whose profiles follow ``order``, each a different user."""
    by_profile = {}
    for ep in trainer.train_episodes:
        by_profile.setdefault(int(ep.user_ids[0]), []).append(ep)
    letters = sorted(set(order))
    assert len(by_profile) == len(letters)
    pools = {letter: list(eps) for letter, eps in zip(letters, by_profile.values())}
    return [pools[letter].pop() for letter in order]


def embeddings(trainer, batch):
    return user_embedding(trainer.theta, trainer.spec, np.array([ep.user_ids for ep in batch]))


def tree_state(tree):
    n = len(tree)
    return tree._ids[:n].tolist(), tree._recency[:n].tolist(), tree._freq[:n].tolist()


class Counts:
    """How often the head runs, over how many rows, and the tree searches."""

    def __init__(self, monkeypatch):
        self.head_rows = []
        self.searches = 0
        for name in ("alphas", "alphas_and_grads"):
            original = getattr(LrHead, name)
            monkeypatch.setattr(LrHead, name, self._counted_head(original))
        search = TreeMemory.search

        def counted_search(tree, *args, **kwargs):
            self.searches += 1
            return search(tree, *args, **kwargs)

        monkeypatch.setattr(TreeMemory, "search", counted_search)

    def _counted_head(self, original):
        def counted(head, h):
            self.head_rows.append(len(h))
            return original(head, h)
        return counted


def test_training_resolves_once_per_profile(trainer, monkeypatch):
    batch = profile_batch(trainer)
    counts = Counts(monkeypatch)
    copy.deepcopy(trainer).outer_gradients(batch)
    assert counts.head_rows == [3]
    assert counts.searches == 3


def test_evaluation_resolves_once_per_profile(trainer, monkeypatch):
    batch = profile_batch(trainer)
    before = tree_state(trainer.tree)
    counts = Counts(monkeypatch)
    _evaluate_encoded(trainer.theta, trainer.spec, trainer.config, trainer.head, None,
                      trainer.tree, batch)
    assert counts.head_rows == [3]
    assert counts.searches == 3
    assert tree_state(trainer.tree) == before


@pytest.mark.parametrize("train", [True, False])
def test_batched_rates_match_one_user_at_a_time(trainer, train):
    cfg = trainer.config
    batch = profile_batch(trainer)
    h = embeddings(trainer, batch)
    tree, ref_tree = copy.deepcopy(trainer.tree), copy.deepcopy(trainer.tree)
    got = _resolve_rates(cfg, trainer.head, None, tree, h, train=train)
    for (alpha, dalpha, neighbors), h_i in zip(got, h):
        ref_alpha, ref_dalpha, ref_neighbors = _resolve_rate(cfg, trainer.head, None, ref_tree,
                                                             h_i, train=train)
        assert alpha == ref_alpha
        if train:
            assert np.array_equal(dalpha, ref_dalpha.flat)
        else:
            assert dalpha is None and ref_dalpha is None
        for field, ref_field in zip(neighbors, ref_neighbors):
            assert np.array_equal(field, ref_field)
    assert tree_state(tree) == tree_state(ref_tree)
    assert tree._counter == ref_tree._counter
    # users who share a profile share one rate object, and only they do
    assert got[0][0] is got[2][0] and got[1][0] is got[4][0]
    assert len({id(rate[0]) for rate in got}) == 3


def test_rows_that_differ_only_in_their_bytes_stay_apart(trainer):
    """-0.0 and 0.0 compare equal but are different keys, so each gets its own rate."""
    cfg = trainer.config
    h = np.zeros((3, trainer.spec.user_width))
    h[1, 0] = -0.0
    rates = _resolve_rates(cfg, trainer.head, None, trainer.tree, h)
    assert rates[0][0] is rates[2][0]
    assert rates[1][0] is not rates[0][0]


def test_stacked_query_mse_is_the_loss_of_each_record(trainer):
    records = _evaluate_encoded(trainer.theta, trainer.spec, trainer.config, trainer.head, None,
                                trainer.tree, trainer.val_episodes + trainer.train_episodes)
    for record in records:
        assert record.query_loss == loss(record.predictions, record.targets)
    # records keep views of their stack's rows, not copies
    assert records[0].predictions.base is records[1].predictions.base
