"""Inner rates resolved once per distinct user profile.

A user's rate depends on its embedding only, so `_distinct_rates` runs the
rate head once over the distinct embedding rows and at-paml searches the
tree once for them, each distinct row in one stacked search, then touches
each user's hits in batch order;
it returns one rate per distinct row and each user's position among them.
The references here resolve one user at a time, with `_distinct_rates` on
a one-row stack, the way every user was resolved before, and the batched
path must match them bit for bit: rates, head gradients, hits, and the
tree's recency and frequency columns.
"""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from metarec.memory_tree import TreeMemory
from metarec.meta_learners import (LrHead, MetaTrainer, TrainerConfig, _distinct_rates,
                                   _encode_split, _evaluate_encoded)
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
    """A take of the train episodes whose profiles follow ``order``, each a
    different user."""
    by_profile = {}
    for i, ep in enumerate(trainer.train_episodes):
        by_profile.setdefault(int(ep.user_ids[0]), []).append(i)
    letters = sorted(set(order))
    assert len(by_profile) == len(letters)
    pools = {letter: list(eps) for letter, eps in zip(letters, by_profile.values())}
    return trainer.train_episodes.take([pools[letter].pop() for letter in order])


def embeddings(trainer, batch):
    return user_embedding(trainer.theta, trainer.spec, np.array([ep.user_ids for ep in batch]))


def tree_state(tree):
    n = len(tree)
    return tree._ids[:n].tolist(), tree._recency[:n].tolist(), tree._freq[:n].tolist()


class Counts:
    """How often the head runs, over how many rows, and the query rows the
    tree searches, each row's bytes once per time it is searched."""

    def __init__(self, monkeypatch):
        self.head_rows = []
        self.searched = []
        for name in ("alphas", "alphas_and_grads"):
            original = getattr(LrHead, name)
            monkeypatch.setattr(LrHead, name, self._counted_head(original))
        search = TreeMemory.search

        def counted_search(tree, h, *args, **kwargs):
            self.searched += [row.tobytes() for row in np.reshape(h, (-1, tree.dim))]
            return search(tree, h, *args, **kwargs)

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
    assert len(counts.searched) == len(set(counts.searched)) == 3


def test_evaluation_resolves_once_per_profile(trainer, monkeypatch):
    batch = profile_batch(trainer)
    before = tree_state(trainer.tree)
    counts = Counts(monkeypatch)
    _evaluate_encoded(trainer.theta, trainer.spec, trainer.config, trainer.head, None,
                      trainer.tree, batch)
    assert counts.head_rows == [3]
    assert len(counts.searched) == len(set(counts.searched)) == 3
    assert tree_state(trainer.tree) == before


@pytest.mark.parametrize("train", [True, False])
def test_batched_rates_match_one_user_at_a_time(trainer, train):
    cfg = trainer.config
    batch = profile_batch(trainer)
    h = embeddings(trainer, batch)
    tree, ref_tree = copy.deepcopy(trainer.tree), copy.deepcopy(trainer.tree)
    rates, index = _distinct_rates(cfg, trainer.head, None, tree, h, train=train)
    for j, h_i in zip(index, h):
        alpha, dalpha, neighbors = rates[j]
        [(ref_alpha, ref_dalpha, ref_neighbors)], _ = _distinct_rates(
            cfg, trainer.head, None, ref_tree, h_i[None], train=train)
        assert alpha == ref_alpha
        if train:
            assert np.array_equal(dalpha, ref_dalpha)
        else:
            assert dalpha is None and ref_dalpha is None
        for field, ref_field in zip(neighbors, ref_neighbors):
            assert np.array_equal(field, ref_field)
    assert tree_state(tree) == tree_state(ref_tree)
    assert tree._counter == ref_tree._counter
    # users who share a profile share one rate, and only they do
    assert index[0] == index[2] and index[1] == index[4]
    assert len(rates) == len(set(index)) == 3


def test_rows_that_differ_only_in_their_bytes_stay_apart(trainer):
    """-0.0 and 0.0 compare equal but are different keys, so each gets its own rate."""
    cfg = trainer.config
    h = np.zeros((3, trainer.spec.user_width))
    h[1, 0] = -0.0
    rates, index = _distinct_rates(cfg, trainer.head, None, trainer.tree, h)
    assert index[0] == index[2] != index[1]
    assert len(rates) == 2


def test_stacked_query_mse_is_the_loss_of_each_record(trainer):
    splits = trainer.splits
    episodes = _encode_split(splits, [*splits.validation, *splits.train], trainer.spec)
    records = _evaluate_encoded(trainer.theta, trainer.spec, trainer.config, trainer.head, None,
                                trainer.tree, episodes)
    for record in records:
        assert record.query_loss == loss(record.predictions, record.targets)
    # records keep views of their stack's rows, not copies
    assert records[0].predictions.base is records[1].predictions.base
