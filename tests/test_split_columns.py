"""Splits encoded once into columns, and stacks gathered by index.

`_encode_split` looks each user profile up once.  A `SplitView` is checked
and wrapped on its own columns; any other episodes have every support set,
then its query set, copied into one set of read-only columns.  Records are
built only when a split is indexed, and every stack is gathered from the
columns by index arithmetic.  The references here rebuild what the encoder
replaced, one episode at a time from `DatasetSplits.encode`: the error of
the first bad episode, and stacks laid out with ``np.array`` over each
episode's own arrays.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from metarec import model as model_module
from metarec.datagen import generate_corpus
from metarec.meta_learners import (MetaTrainer, TrainerConfig, _EncodedSplit, _encode_split,
                                   _model_spec, evaluate)
from metarec.model import CheckedSplit
from metarec.runner import embedding_rows
from metarec.tasks import (DatasetSplits, InteractionColumns, PreprocessConfig, SplitView,
                           TaskEpisode, load_movielens, preprocess, synthetic_splits)

CONFIG = dict(epochs=1, batch_size=4, embedding_dim=2, decision_dims=(3, 1),
              lr_hidden_dims=(3, 2), seed=5)


def synthetic():
    return synthetic_splits(0.7, 0.3, 0.0, 1.0, 40, 0.1, seed=4)


@pytest.fixture(scope="module")
def corpus_splits(tmp_path_factory):
    """A generated corpus: ragged support and query sizes, many profiles."""
    root = tmp_path_factory.mktemp("corpus")
    paths = generate_corpus(str(root), n_users=60, n_movies=30, seed=3, min_items=4,
                            max_items=12)
    raw = load_movielens(paths["ratings"], paths["users"], paths["movies"])
    return preprocess(raw, PreprocessConfig(seed=0, min_items=3))


def spec_of(splits):
    return _model_spec(splits, TrainerConfig(**CONFIG))


# ---------------------------------------------------------------------------
# errors


def with_part(part, items=None, feedback=None):
    return InteractionColumns(part.item_ids, part.items if items is None else items,
                              part.feedback if feedback is None else feedback, part.timestamps)


def faulty(episode, fault):
    """``episode`` with one fault put into it."""
    support, query = episode.support, episode.query
    if fault == "unknown-user-feature":
        return dataclasses.replace(episode, user=dataclasses.replace(episode.user,
                                                                     features=(7,)))
    if fault == "item-width":
        support = with_part(support, items=np.zeros((len(support), 2), dtype=np.int64))
    elif fault == "empty-support":
        support = support.rows(0, 0)
    elif fault == "empty-query":
        query = query.rows(0, 0)
    elif fault == "target-length":
        query = with_part(query, feedback=query.feedback[:-1])
    elif fault == "item-out-of-vocabulary":
        items = query.items.copy()
        items[-1, 0] = 1  # the synthetic item feature has one value
        query = with_part(query, items=items)
    return dataclasses.replace(episode, support=support, query=query)


def per_episode_error(splits, spec, episodes):
    """The error of the per-episode path: every part's user lookup and shape
    check in split order, then the id ranges of the whole split."""
    try:
        parts = [model_module._check_episode(spec, *splits.encode(episode.user, part))
                 for episode in episodes for part in (episode.support, episode.query)]
        model_module._check_ids(np.array([part[0] for part in parts]), spec.plan.user_vocab,
                                "user")
        model_module._check_ids(np.concatenate([part[1] for part in parts]),
                                spec.plan.item_vocab, "item")
    except Exception as exc:  # noqa: BLE001 - the reference's error, whatever it is
        return exc
    return None


FAULTS = ("unknown-user-feature", "item-width", "empty-support", "empty-query",
          "target-length", "item-out-of-vocabulary")


@pytest.mark.parametrize("faults", [
    *[{position: fault} for fault in FAULTS for position in (0, 5, 13)],
    {2: "item-out-of-vocabulary", 6: "item-width"},
    {1: "empty-query", 3: "unknown-user-feature"},
    {3: "unknown-user-feature", 6: "target-length"},
], ids=lambda faults: "+".join(f"{fault}@{position}" for position, fault in faults.items()))
def test_encoder_raises_the_first_bad_episodes_error(faults):
    splits = synthetic()
    spec = spec_of(splits)
    episodes = [faulty(episode, faults[i]) if i in faults else episode
                for i, episode in enumerate(splits.train)]
    expected = per_episode_error(splits, spec, episodes)
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        _encode_split(splits, episodes, spec)
    assert str(got.value) == str(expected)


# ---------------------------------------------------------------------------
# stacks gathered by index


def array_stack(spec, episodes):
    """The stack of equal-length episodes laid out with ``np.array`` over their own arrays."""
    plan = spec.plan
    users = np.array([episode[0] for episode in episodes])
    items = np.array([episode[1] for episode in episodes])
    return (plan.positions[users + plan.user_rows].reshape(len(episodes), -1),
            plan.positions[items + plan.item_rows].reshape(items.shape[:-1] + (-1,)),
            np.array([episode[2] for episode in episodes]))


def encoded_parts(splits, episode):
    """Support, query and pooled ``(user_ids, items, targets)`` from `DatasetSplits.encode`."""
    support = splits.encode(episode.user, episode.support)
    query = splits.encode(episode.user, episode.query)
    pooled = (support[0], np.concatenate([support[1], query[1]]),
              np.concatenate([support[2], query[2]]))
    return support, query, pooled


@pytest.mark.parametrize("source", ["corpus", "synthetic"])
def test_index_stacks_equal_array_stacks(source, corpus_splits):
    splits = corpus_splits if source == "corpus" else synthetic()
    spec = spec_of(splits)
    encoded = _encode_split(splits, splits.train, spec)
    pooled = encoded.pooled()
    reference = [encoded_parts(splits, episode) for episode in splits.train]
    shapes = list(zip(encoded.support.lengths.tolist(), encoded.query.lengths.tolist()))
    assert (len(set(shapes)) > 1) == (source == "corpus")  # only the corpus is ragged
    groups = {}
    for position, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(position)
    for group in groups.values():
        part = encoded.take(group)
        for k, split in enumerate((part.support, part.query, pooled.take(group))):
            stack = split.stack(spec.plan)
            expected = array_stack(spec, [reference[i][k] for i in group])
            assert stack.real.all()
            got = (stack.user_index, stack.item_index, stack.targets)
            for got_field, expected_field in zip(got, expected):
                assert got_field.dtype == expected_field.dtype
                assert got_field.shape == expected_field.shape
                assert np.array_equal(got_field, expected_field)


def test_a_ragged_stack_pads_each_episode_to_the_longest(corpus_splits):
    """Episodes of several lengths stack as one block, one slice per episode
    in order: its own rows first, then its last row repeated up to the
    longest episode's length, marked padded in ``real``."""
    spec = spec_of(corpus_splits)
    split = _encode_split(corpus_splits, corpus_splits.train, spec).support
    split = split.take(np.argsort(split.lengths, kind="stable")[::3])
    stack = split.stack(spec.plan)
    lengths = split.lengths.tolist()
    n = max(lengths)
    assert 1 < len(set(lengths)) < len(lengths)
    assert stack.item_index.shape[:2] == stack.targets.shape == stack.real.shape == \
        (len(lengths), n)
    assert stack.real.sum(axis=1).tolist() == lengths
    for e, episode in enumerate(split):
        user_index, item_index, targets = array_stack(spec, [episode])
        rows = np.minimum(np.arange(n), lengths[e] - 1)
        assert stack.real[e].tolist() == [j < lengths[e] for j in range(n)]
        assert np.array_equal(stack.user_index[e], user_index[0])
        assert np.array_equal(stack.item_index[e], item_index[0][rows])
        assert np.array_equal(stack.targets[e], targets[0][rows])


# ---------------------------------------------------------------------------
# records built on demand, and one lookup per profile


@pytest.mark.parametrize("algorithm", ["paml", "transfer"])
def test_records_built_on_demand_are_read_only(algorithm):
    trainer = MetaTrainer(synthetic(), TrainerConfig(algorithm=algorithm, **CONFIG))
    split = trainer.train_episodes
    records = list(split) + list(split.take(np.array([3, 0, 3])))
    if algorithm == "transfer":  # one pooled episode per user
        arrays = [arr for record in records for arr in record]
        assert [len(record[2]) for record in split] == [
            len(ep.support) + len(ep.query) for ep in trainer.splits.train]
    else:
        arrays = [arr for record in records for arr in (record.user_ids,) + record.support
                  + record.query]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def encode_calls(monkeypatch):
    """The user profile of every `DatasetSplits.encode` call, in order."""
    calls = []
    original = DatasetSplits.encode

    def counting(self, user, part):
        calls.append(user.features)
        return original(self, user, part)

    monkeypatch.setattr(DatasetSplits, "encode", counting)
    return calls


def profiles(episodes):
    """One count per distinct profile among ``episodes``."""
    return Counter({episode.user.features for episode in episodes})


@pytest.mark.parametrize("source", ["corpus", "synthetic"])
def test_each_profile_is_looked_up_once_per_split(source, corpus_splits, monkeypatch):
    splits = corpus_splits if source == "corpus" else synthetic()
    calls = encode_calls(monkeypatch)
    trainer = MetaTrainer(splits, TrainerConfig(**CONFIG))
    assert Counter(calls) == profiles(splits.train) + profiles(splits.validation)
    assert len(calls) < len(splits.train) + len(splits.validation)
    calls.clear()
    model = trainer.train()
    evaluate(model, splits.test, splits)
    assert Counter(calls) == profiles(splits.test)
    calls.clear()
    embedding_rows(model, splits, ("train", "test"))
    assert Counter(calls) == profiles(splits.train) + profiles(splits.test)


# ---------------------------------------------------------------------------
# split views wrapped without copying


def episode_rows(split):
    """Each episode's ``(user_ids, items, targets)`` read off a `CheckedSplit`."""
    return [(split.users[i], split.items[start:start + n], split.targets[start:start + n])
            for i, (start, n) in enumerate(zip(split.starts.tolist(), split.lengths.tolist()))]


@pytest.mark.parametrize("source", ["corpus", "synthetic"])
def test_view_encodes_as_its_episodes_do(source, corpus_splits):
    splits = corpus_splits if source == "corpus" else synthetic()
    spec = spec_of(splits)
    for view in (splits.train, splits.validation, splits.test):
        assert isinstance(view, SplitView)
        got, expected = _encode_split(splits, view, spec), _encode_split(splits, list(view), spec)
        assert got.keys == expected.keys
        assert all(type(key) is int for key in got.keys)
        for part in ("support", "query"):
            got_part, expected_part = getattr(got, part), getattr(expected, part)
            assert np.array_equal(got_part.users, expected_part.users)
            assert np.array_equal(got_part.lengths, expected_part.lengths)
            for got_rows, expected_rows in zip(episode_rows(got_part),
                                               episode_rows(expected_part)):
                for got_field, expected_field in zip(got_rows, expected_rows):
                    assert got_field.dtype == expected_field.dtype
                    assert np.array_equal(got_field, expected_field)
            if source == "corpus":  # a corpus split's columns hold its own rows, in order
                for field in ("items", "targets", "starts"):
                    assert np.array_equal(getattr(got_part, field),
                                          getattr(expected_part, field))
            assert np.shares_memory(got_part.items, view.columns.items)
            assert np.shares_memory(got_part.targets, view.columns.feedback)
            for column in (got_part.users, got_part.items, got_part.targets):
                assert not column.flags.writeable


def split_of_kind(kind):
    """The synthetic train split as a ``kind``, and the columns it reads."""
    splits = synthetic()
    view = splits.train
    if kind is SplitView:
        return view, lambda split: (split.columns.items, split.columns.feedback)
    encoded = _encode_split(splits, view, spec_of(splits))
    if kind is _EncodedSplit:
        return encoded, lambda split: (split.support.items, split.support.targets,
                                       split.query.items, split.query.targets)
    return encoded.support, lambda split: (split.items, split.targets)


def leaves(episode):
    """The keys and arrays an episode of any split kind is built from, in order."""
    if isinstance(episode, TaskEpisode):
        episode = (episode.user, episode.support, episode.query)
    elif isinstance(episode, InteractionColumns):
        episode = (episode.items, episode.feedback)
    if isinstance(episode, tuple):  # `_Encoded` and `CheckedEpisode` are tuples
        return [leaf for part in episode for leaf in leaves(part)]
    return [episode]


def same_episodes(got, expected) -> bool:
    got, expected = [leaves(ep) for ep in got], [leaves(ep) for ep in expected]
    return len(got) == len(expected) and all(
        len(a) == len(b) and all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                                 for x, y in zip(a, b))
        for a, b in zip(got, expected))


@pytest.mark.parametrize("kind", [SplitView, _EncodedSplit, CheckedSplit],
                         ids=lambda kind: kind.__name__)
def test_view_slices_and_takes_select_its_episodes(kind):
    """A slice is a `take` of the same positions: the same type, the same
    episodes, on the same columns."""
    split, columns = split_of_kind(kind)
    episodes = list(split)
    for got, expected in ((split[2:9:3], episodes[2:9:3]),
                          (split.take([4, 0, 4]), [episodes[4], episodes[0], episodes[4]])):
        assert type(got) is kind
        assert same_episodes(got, expected)
        for got_column, column in zip(columns(got), columns(split)):
            assert np.shares_memory(got_column, column)
    assert same_episodes(split[2:9:3], split.take([2, 5, 8]))
    assert same_episodes(split[::-1], reversed(episodes))
    assert len(split[len(split):]) == len(split.take([])) == 0


@pytest.mark.parametrize("fault", ["unknown-profile", "negative-start"])
def test_a_view_that_fails_a_check_raises_its_first_bad_episodes_error(fault):
    splits = synthetic()
    spec = spec_of(splits)
    view = splits.train
    profiles, starts = view.profiles, view.starts
    if fault == "unknown-profile":
        profiles = ((1,), (7,))
    else:  # episode 0 starts 5 rows before the columns' first row
        starts = starts - starts[0] - 5
    bad = SplitView(view.columns, starts, view.support_lengths, view.query_lengths,
                    view.user_ids, profiles, view.profile_rows)
    expected = per_episode_error(splits, spec, list(bad))
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        _encode_split(splits, bad, spec)
    assert str(got.value) == str(expected)


@pytest.mark.parametrize("algorithm", ["paml", "at-paml", "transfer"])
def test_training_and_evaluating_a_view_builds_no_episode(algorithm, monkeypatch):
    built = []
    original = TaskEpisode.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TaskEpisode, "__init__", counting)
    splits = synthetic()
    model = MetaTrainer(splits, TrainerConfig(algorithm=algorithm, **CONFIG)).train()
    assert len(evaluate(model, splits.test, splits)) == len(splits.test)
    assert built == []
    splits.test[0]
    assert len(built) == 1  # the count sees an episode built by indexing
