"""Tests for ingestion, preprocessing, labeling, and synthetic episodes.

Small corpora are written into tmp_path in the `::` format so every pipeline
stage can be exercised against hand-countable expectations.
"""

import hashlib
import os
from array import array

import numpy as np
import pytest

from metarec import tasks
from metarec.datagen import generate_corpus
from metarec.errors import ConfigError, DataError
from metarec.tasks import (
    INT64_RANGE,
    RATING_RANGE,
    DatasetSplits,
    PreprocessConfig,
    UserProfile,
    check_split,
    classify_major_minor,
    load_movielens,
    preprocess,
    synth_two_group,
    synthetic_splits,
)


def write(path, lines):
    with open(path, "w", encoding="latin-1") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def corpus_paths(tmp_path, users, movies, ratings):
    up, mp, rp = tmp_path / "users.dat", tmp_path / "movies.dat", tmp_path / "ratings.dat"
    write(up, users)
    write(mp, movies)
    write(rp, ratings)
    return str(rp), str(up), str(mp)


def all_episodes(splits):
    return [*splits.train, *splits.validation, *splits.test]


def assert_same_episodes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.user == y.user
        for part_x, part_y in ((x.support, y.support), (x.query, y.query)):
            for column in ("item_ids", "items", "feedback", "timestamps"):
                assert np.array_equal(getattr(part_x, column), getattr(part_y, column))


def simple_corpus(tmp_path, n_users=12, items_per_user=6, n_movies=8):
    users = [f"{u}::{'M' if u % 2 else 'F'}::{25 + u}::{u % 5}::{10000 + u}"
             for u in range(1, n_users + 1)]
    movies = [f"{m}::Feature {m} (1990)::Drama|Comedy" for m in range(1, n_movies + 1)]
    ratings = []
    stamp = 978300000
    for u in range(1, n_users + 1):
        for j in range(items_per_user):
            m = (u + j) % n_movies + 1
            ratings.append(f"{u}::{m}::{(u + j) % 5 + 1}::{stamp + u * 100 + j}")
    return corpus_paths(tmp_path, users, movies, ratings)


class TestLoader:
    def test_user_line_fields(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            users=["1::F::1::10::48067"],
            movies=["1::Feature 1 (1995)::Animation|Comedy"],
            ratings=["1::1::5::978300760", "1::1::4::978300761"],
        )
        raw = load_movielens(*paths)
        assert raw.users[1] == {"gender": "F", "age": 1, "occupation": 10, "zipcode": "48067"}
        assert raw.movies[1] == ("Animation|Comedy",)
        assert raw.ratings.uid.tolist() == [1, 1]
        assert raw.ratings.mid.tolist() == [1, 1]
        assert raw.ratings.feedback.tolist() == [5.0, 4.0]
        assert raw.ratings.timestamp.tolist() == [978300760, 978300761]
        assert [raw.ratings.uid.dtype, raw.ratings.mid.dtype, raw.ratings.feedback.dtype,
                raw.ratings.timestamp.dtype] == [np.int64, np.int64, np.float64, np.int64]

    def test_empty_ratings_file_rejected(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            users=["1::F::25::10::48067"],
            movies=["1::Feature 1 (1995)::Drama"],
            ratings=[],
        )
        with pytest.raises(DataError):
            load_movielens(*paths)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_movielens(str(tmp_path / "nope.dat"), str(tmp_path / "nope2.dat"),
                           str(tmp_path / "nope3.dat"))

    def test_malformed_lines_skipped_within_budget(self, tmp_path):
        ratings = [f"1::1::5::{978300000 + i}" for i in range(200)]
        ratings.append("garbage line")
        paths = corpus_paths(
            tmp_path,
            users=["1::F::25::10::48067"],
            movies=["1::Feature 1 (1995)::Drama"],
            ratings=ratings,
        )
        with pytest.warns(UserWarning, match="skipped"):
            raw = load_movielens(*paths)
        assert raw.skipped_lines == 1
        assert len(raw.ratings) == 200

    def test_too_many_malformed_lines_rejected(self, tmp_path):
        ratings = [f"1::1::5::{978300000 + i}" for i in range(50)]
        ratings.extend(["junk"] * 5)
        paths = corpus_paths(
            tmp_path,
            users=["1::F::25::10::48067"],
            movies=["1::Feature 1 (1995)::Drama"],
            ratings=ratings,
        )
        with pytest.raises(DataError, match="1%"):
            load_movielens(*paths)

    def test_dangling_references_count_as_skipped(self, tmp_path):
        ratings = [f"1::1::5::{978300000 + i}" for i in range(300)]
        ratings.append("9::1::5::978300999")   # unknown user
        ratings.append("1::9::5::978300998")   # unknown movie
        paths = corpus_paths(
            tmp_path,
            users=["1::F::25::10::48067"],
            movies=["1::Feature 1 (1995)::Drama"],
            ratings=ratings,
        )
        with pytest.warns(UserWarning):
            raw = load_movielens(*paths)
        assert raw.skipped_lines == 2

    def test_out_of_range_rating_skipped(self, tmp_path):
        ratings = [f"1::1::3::{978300000 + i}" for i in range(300)] + ["1::1::9::978301000"]
        paths = corpus_paths(
            tmp_path,
            users=["1::F::25::10::48067"],
            movies=["1::Feature 1 (1995)::Drama"],
            ratings=ratings,
        )
        with pytest.warns(UserWarning):
            raw = load_movielens(*paths)
        assert len(raw.ratings) == 300

    def test_values_outside_int64_skipped(self, tmp_path):
        big = 2 ** 63
        ratings = [f"1::1::3::{978300000 + i}" for i in range(300)]
        ratings += [f"1::1::3::{big}", f"{big}::1::3::978300000", f"1::{big}::3::978300000"]
        paths = corpus_paths(
            tmp_path,
            users=[f"{u}::F::25::10::48067" for u in list(range(1, 200)) + [big]],
            movies=[f"{m}::Feature {m} (1995)::Drama" for m in list(range(1, 200)) + [big]],
            ratings=ratings,
        )
        with pytest.warns(UserWarning, match="users=1 movies=1 ratings=3"):
            raw = load_movielens(*paths)
        assert len(raw.ratings) == 300

    def test_header_file_skip_rules(self, tmp_path):
        big = 2 ** 63
        users = [f"{u}::F::25::10::48067" for u in range(10, 610)]
        users[3:3] = ["", "1::M::30::3::12345", "1::F::25::10", "1::F::25::10::48067::x",
                      "x::F::25::10::48067", "2::F::a::10::48067", "3::F::25::b::48067",
                      f"{big}::F::25::10::48067", "", "1::F::40::7::99999", ""]
        movies = [f"{m}::Feature {m} (1995)::Drama" for m in range(10, 410)]
        movies[5:5] = ["1::Old (1990)::Comedy", "", "2::Drama", "3::A::B (1995)::Drama",
                       "x::Feature (1995)::Drama", f"{big}::Feature (1995)::Drama",
                       "1::New (1995)::Horror|War", ""]
        paths = corpus_paths(tmp_path, users, movies, ratings=["1::1::5::978300000"])
        # wrong field count (2 + 2), a non-integer uid, age, occupation or
        # movie id (3 + 1) and an id of 2**63 (1 + 1); blank lines not counted
        with pytest.warns(UserWarning, match="users=6 movies=4 ratings=0"):
            raw = load_movielens(*paths)
        assert raw.skipped_lines == 10
        assert raw.total_lines == 608 + 406 + 1
        assert sorted(raw.users) == [1] + list(range(10, 610))
        assert sorted(raw.movies) == [1] + list(range(10, 410))
        # a repeated id keeps its later line
        assert raw.users[1] == {"gender": "F", "age": 40, "occupation": 7, "zipcode": "99999"}
        assert raw.movies[1] == ("Horror|War",)

    @pytest.mark.parametrize("missing", ["users", "movies"])
    def test_missing_header_file_names_its_kind(self, tmp_path, missing):
        paths = dict(zip(("ratings", "users", "movies"), simple_corpus(tmp_path)))
        paths[missing] = str(tmp_path / "nope.dat")
        with pytest.raises(DataError, match=f"cannot open {missing} file"):
            load_movielens(paths["ratings"], paths["users"], paths["movies"])


class TestPreprocess:
    def test_cold_start_keeps_least_active_users(self, tmp_path):
        # log counts 3..12: the cold-start stage keeps the eight users with
        # the fewest logs and drops the two most active ones
        users = [f"{u}::M::30::1::55{u:03d}" for u in range(1, 11)]
        movies = [f"{m}::Feature {m} (1990)::Drama" for m in range(1, 13)]
        ratings = []
        for u in range(1, 11):
            for j in range(u + 2):
                ratings.append(f"{u}::{j + 1}::4::{978300000 + u * 50 + j}")
        raw = load_movielens(*corpus_paths(tmp_path, users, movies, ratings))
        splits = preprocess(raw, PreprocessConfig(seed=0))
        kept = {ep.user.user_id for ep in all_episodes(splits)}
        assert kept == set(range(1, 9))

    def test_young_users_removed(self, tmp_path):
        users = ["1::M::5::1::55001", "2::M::30::1::55002", "3::M::25::1::55003",
                 "4::F::28::2::55004", "5::F::40::2::55005"]
        movies = ["1::Feature 1 (1990)::Drama", "2::Feature 2 (1991)::Comedy"]
        ratings = [f"{u}::{m}::4::{978300000 + u * 10 + m}"
                   for u in range(1, 6) for m in (1, 2)]
        raw = load_movielens(*corpus_paths(tmp_path, users, movies, ratings))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        kept = {ep.user.user_id for ep in all_episodes(splits)}
        assert 1 not in kept
        assert kept == {2, 3, 4, 5}

    def test_garbled_profiles_removed(self, tmp_path):
        users = ["1::M::30::1::5500a", "2::X::30::1::55002", "3::M::30::1::55003",
                 "4::M::101::1::55004", "5::F::35::2::55005"]
        movies = ["1::Feature 1 (1990)::Drama", "2::Feature 2 (1991)::Comedy"]
        ratings = [f"{u}::{m}::4::{978300000 + u * 10 + m}"
                   for u in range(1, 6) for m in (1, 2)]
        raw = load_movielens(*corpus_paths(tmp_path, users, movies, ratings))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        kept = {ep.user.user_id for ep in all_episodes(splits)}
        assert kept == {3, 5}

    def test_users_with_too_few_items_removed(self, tmp_path):
        users = [f"{u}::M::30::1::55{u:03d}" for u in (1, 2, 3)]
        movies = ["1::Feature 1 (1990)::Drama", "2::Feature 2 (1991)::Comedy"]
        ratings = ["1::1::4::978300001",
                   "2::1::4::978300002", "2::2::3::978300003",
                   "3::1::5::978300004", "3::2::2::978300005"]
        raw = load_movielens(*corpus_paths(tmp_path, users, movies, ratings))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        kept = {ep.user.user_id for ep in all_episodes(splits)}
        assert kept == {2, 3}

    def test_ten_users_split_seven_one_two(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path, n_users=10))
        splits = preprocess(raw, PreprocessConfig(seed=3, cold_start_fraction=1.0))
        assert (len(splits.train), len(splits.validation), len(splits.test)) == (7, 1, 2)

    def test_splits_are_user_disjoint(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path, n_users=12))
        splits = preprocess(raw, PreprocessConfig(seed=1, cold_start_fraction=1.0))
        train = {ep.user.user_id for ep in splits.train}
        val = {ep.user.user_id for ep in splits.validation}
        test = {ep.user.user_id for ep in splits.test}
        assert not (train & val) and not (train & test) and not (val & test)

    def test_support_query_split_sizes(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path, n_users=10, items_per_user=5))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        for ep in all_episodes(splits):
            assert len(ep.support) == 4
            assert len(ep.query) == 1

    def test_two_item_users_keep_one_query_item(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path, n_users=8, items_per_user=2))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        for ep in all_episodes(splits):
            assert len(ep.support) == 1
            assert len(ep.query) == 1

    def test_support_and_query_disjoint(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path))
        splits = preprocess(raw, PreprocessConfig(seed=2, cold_start_fraction=1.0))
        for ep in all_episodes(splits):
            support_keys = set(zip(ep.support.item_ids.tolist(), ep.support.timestamps.tolist()))
            query_keys = set(zip(ep.query.item_ids.tolist(), ep.query.timestamps.tolist()))
            assert not (support_keys & query_keys)
            assert len(ep.support) and len(ep.query)

    def test_same_seed_reproduces_splits_exactly(self, tmp_path):
        paths = simple_corpus(tmp_path)
        a = preprocess(load_movielens(*paths), PreprocessConfig(seed=9))
        b = preprocess(load_movielens(*paths), PreprocessConfig(seed=9))
        for name in ("train", "validation", "test"):
            assert_same_episodes(getattr(a, name), getattr(b, name))
        assert (a.user_vocabs, a.item_vocabs, a.is_major) == (b.user_vocabs, b.item_vocabs,
                                                              b.is_major)

    def test_different_seeds_shuffle_users(self, tmp_path):
        paths = simple_corpus(tmp_path, n_users=20)
        a = preprocess(load_movielens(*paths), PreprocessConfig(seed=0, cold_start_fraction=1.0))
        b = preprocess(load_movielens(*paths), PreprocessConfig(seed=1, cold_start_fraction=1.0))
        assert [ep.user.user_id for ep in a.train] != [ep.user.user_id for ep in b.train]

    def test_everything_filtered_is_an_error(self, tmp_path):
        users = ["1::M::5::1::55001"]
        movies = ["1::Feature 1 (1990)::Drama"]
        ratings = ["1::1::4::978300001", "1::1::3::978300002"]
        raw = load_movielens(*corpus_paths(tmp_path, users, movies, ratings))
        with pytest.raises(DataError):
            preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))

    def test_encode_round_trip(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        ep = splits.train[0]
        user_ids, items, targets = splits.encode(ep.user, ep.support)
        assert user_ids.shape == (4,)
        assert items.shape == (len(ep.support), 1)
        assert np.all(targets == ep.support.feedback)
        for pos, vocab in enumerate(splits.user_vocabs):
            assert user_ids[pos] == vocab[ep.user.features[pos]]
        for row, item_id in enumerate(ep.support.item_ids.tolist()):
            assert items[row, 0] == splits.item_vocabs[0][raw.movies[item_id][0]]
        # each rating keeps its own feedback and timestamp through the split
        lines = {(u, m, t): f for u, m, f, t in zip(
            raw.ratings.uid.tolist(), raw.ratings.mid.tolist(),
            raw.ratings.feedback.tolist(), raw.ratings.timestamp.tolist())}
        for item_id, stamp, value in zip(ep.support.item_ids.tolist(),
                                         ep.support.timestamps.tolist(), targets.tolist()):
            assert lines[(ep.user.user_id, item_id, stamp)] == value

    def test_episode_columns_are_read_only_views_of_their_split(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        for group in (splits.train, splits.validation, splits.test):
            base = group[0].support.feedback.base
            for ep in group:
                for part in (ep.support, ep.query):
                    assert part.feedback.base is base
                    for column in (part.item_ids, part.items, part.feedback, part.timestamps):
                        assert not column.flags.writeable

    def test_min_items_below_two_rejected(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(min_items=1)


class TestMajorMinor:
    def make_profiles(self):
        # feature layout: (gender, age, occupation, zip_prefix)
        profiles = [
            UserProfile("head1", ("M", 25, 0, "5")),
            UserProfile("head2", ("M", 25, 0, "5")),
            UserProfile("head3", ("M", 25, 0, "5")),
            UserProfile("three_of_four", ("M", 25, 0, "9")),
            UserProfile("two_of_four", ("M", 25, 7, "9")),
            UserProfile("zero_of_four", ("F", 50, 7, "9")),
        ]
        vocabs = (
            {"M": 0, "F": 1},
            {25: 0, 50: 1},
            {0: 0, 7: 1},
            {"5": 0, "9": 1},
        )
        return profiles, vocabs

    def test_three_of_four_is_major(self):
        profiles, vocabs = self.make_profiles()
        labels = classify_major_minor(profiles, {p.user_id for p in profiles}, vocabs)
        assert labels["three_of_four"] is True

    def test_exactly_two_is_minor(self):
        profiles, vocabs = self.make_profiles()
        labels = classify_major_minor(profiles, {p.user_id for p in profiles}, vocabs)
        assert labels["two_of_four"] is False

    def test_zero_hits_is_minor(self):
        profiles, vocabs = self.make_profiles()
        labels = classify_major_minor(profiles, {p.user_id for p in profiles}, vocabs)
        assert labels["zero_of_four"] is False

    def test_counts_come_from_training_population_only(self):
        profiles, vocabs = self.make_profiles()
        # with only zero_of_four in training, its values become the head
        labels = classify_major_minor(profiles, {"zero_of_four"}, vocabs)
        assert labels["zero_of_four"] is True
        assert labels["head1"] is False

    def test_partition_covers_every_user(self, tmp_path):
        raw = load_movielens(*simple_corpus(tmp_path))
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        users = {ep.user.user_id for ep in all_episodes(splits)}
        assert set(splits.is_major) == users


class TestSynthTwoGroup:
    def test_degenerate_population_is_all_group_one(self):
        episodes = synth_two_group(1.0, 0.0, 0.0, 1.0, n_tasks=50, noise_sd=0.1, seed=0)
        assert all(ep.user.features == (1,) for ep in episodes)

    def test_group_fraction_concentrates(self):
        episodes = synth_two_group(0.7, 0.3, 0.0, 1.0, n_tasks=10_000, noise_sd=0.1, seed=4)
        fraction = np.mean([ep.user.features[0] == 1 for ep in episodes])
        assert abs(fraction - 0.7) < 0.02

    def test_zero_noise_hits_group_centers(self):
        episodes = synth_two_group(0.6, 0.4, -1.5, 2.5, n_tasks=100, noise_sd=0.0, seed=1)
        for ep in episodes:
            center = -1.5 if ep.user.features[0] == 1 else 2.5
            assert np.all(ep.support.feedback == center)
            assert np.all(ep.query.feedback == center)

    def test_support_query_sizes(self):
        episodes = synth_two_group(0.8, 0.2, 0.0, 1.0, n_tasks=10, noise_sd=0.1, seed=2,
                                   support_size=7, query_size=3)
        for ep in episodes:
            assert len(ep.support) == 7
            assert len(ep.query) == 3

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            synth_two_group(0.6, 0.6, 0.0, 1.0, n_tasks=5, noise_sd=0.1, seed=0)
        with pytest.raises(ConfigError):
            synth_two_group(0.3, 0.7, 0.0, 1.0, n_tasks=5, noise_sd=0.1, seed=0)

    def test_splits_package(self):
        splits = synthetic_splits(0.8, 0.2, 0.0, 1.0, n_tasks=100, noise_sd=0.1, seed=3)
        assert isinstance(splits, DatasetSplits)
        assert (len(splits.train), len(splits.validation), len(splits.test)) == (70, 10, 20)
        for ep in splits.train:
            assert splits.is_major[ep.user.user_id] == (ep.user.features[0] == 1)
        user_ids, items, targets = splits.encode(splits.train[0].user, splits.train[0].query)
        assert items.shape[1] == 1

    def test_deterministic_given_seed(self):
        a = synth_two_group(0.8, 0.2, 0.0, 1.0, n_tasks=20, noise_sd=0.2, seed=11)
        b = synth_two_group(0.8, 0.2, 0.0, 1.0, n_tasks=20, noise_sd=0.2, seed=11)
        assert_same_episodes(a, b)

    def test_targets_follow_one_draw_per_task(self):
        # one uniform, then one standard normal vector per task, in task order
        rng = np.random.default_rng(6)
        episodes = synth_two_group(0.7, 0.3, -1.0, 2.0, n_tasks=30, noise_sd=0.5, seed=6,
                                   support_size=3, query_size=2)
        for ep in episodes:
            group = 1 if rng.uniform() < 0.7 else 2
            targets = (-1.0 if group == 1 else 2.0) + 0.5 * rng.standard_normal(5)
            assert ep.user.features == (group,)
            assert np.array_equal(np.concatenate([ep.support.feedback, ep.query.feedback]),
                                  targets)
            assert ep.support.item_ids.tolist() == [0, 1, 2]
            assert ep.query.item_ids.tolist() == [3, 4]


class TestSplitShares:
    @pytest.mark.parametrize("split", [(-1, 5, 5), (7, 3, 0), (0, 1, 1), (1, 1), (7, 1, 2, 1),
                                       (0.7, 0.1, 0.2), (True, 1, 1)])
    def test_bad_split_rejected(self, split):
        with pytest.raises(ConfigError, match="dataset.split"):
            check_split(split)
        with pytest.raises(ConfigError, match="dataset.split"):
            PreprocessConfig(split=split)
        with pytest.raises(ConfigError, match="dataset.split"):
            synthetic_splits(0.8, 0.2, 0.0, 1.0, n_tasks=40, noise_sd=0.1, seed=0, split=split)

    def test_zero_validation_share_is_legal(self):
        check_split((4, 0, 1))
        splits = synthetic_splits(0.8, 0.2, 0.0, 1.0, n_tasks=10, noise_sd=0.1, seed=0,
                                  split=(4, 0, 1))
        assert (len(splits.train), len(splits.validation), len(splits.test)) == (8, 0, 2)

    @pytest.mark.parametrize("n_tasks,split", [(1, (7, 1, 2)), (3, (1, 5, 1)), (4, (1, 1, 3))])
    def test_too_few_tasks_for_a_train_user_rejected(self, n_tasks, split):
        # a positive test share always yields a test user; train can round to 0
        with pytest.raises(ConfigError, match="empty"):
            check_split(split, n_tasks)
        with pytest.raises(ConfigError, match="empty"):
            synthetic_splits(0.8, 0.2, 0.0, 1.0, n_tasks=n_tasks, noise_sd=0.1, seed=0,
                             split=split)

    @pytest.mark.parametrize("split", [(7, 1, 2), (1, 0, 1), (1, 5, 1), (9, 0, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_user_sets_never_overlap(self, tmp_path, split, seed):
        synth = synthetic_splits(0.8, 0.2, 0.0, 1.0, n_tasks=50, noise_sd=0.1, seed=seed,
                                 split=split)
        raw = load_movielens(*simple_corpus(tmp_path, n_users=30))
        corpus = preprocess(raw, PreprocessConfig(seed=seed, cold_start_fraction=1.0,
                                                  split=split))
        for splits in (synth, corpus):
            groups = [[ep.user.user_id for ep in group]
                      for group in (splits.train, splits.validation, splits.test)]
            users = [uid for group in groups for uid in group]
            assert len(users) == len(set(users))
            assert groups[0] and groups[2]


class TestGeneratedCorpus:
    def test_pipeline_end_to_end(self, tmp_path):
        paths = generate_corpus(tmp_path / "corpus", n_users=60, n_movies=40, seed=5)
        raw = load_movielens(paths["ratings"], paths["users"], paths["movies"])
        assert len(raw.users) == 60
        splits = preprocess(raw, PreprocessConfig(seed=0))
        assert splits.train and splits.validation and splits.test
        labels = list(splits.is_major.values())
        assert any(labels) and not all(labels)

    def test_generation_deterministic(self, tmp_path):
        a = generate_corpus(tmp_path / "a", n_users=30, n_movies=25, seed=9)
        b = generate_corpus(tmp_path / "b", n_users=30, n_movies=25, seed=9)
        for key in a:
            with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_head_users_dominate_major_labels(self, tmp_path):
        paths = generate_corpus(tmp_path / "corpus", n_users=200, n_movies=80, seed=7)
        raw = load_movielens(paths["ratings"], paths["users"], paths["movies"])
        splits = preprocess(raw, PreprocessConfig(seed=0, cold_start_fraction=1.0))
        # generated head users have ids 1..160; most should classify major
        head = [flag for uid, flag in splits.is_major.items() if uid <= 160]
        tail = [flag for uid, flag in splits.is_major.items() if uid > 160]
        assert np.mean(head) > 0.6
        assert np.mean(tail) < 0.4


def line_loop_ratings(path, users, movies):
    """The per-line text-mode ratings parser that the byte scan replaced,
    kept as the reference the scan must match."""
    uids, mids, stamps, feedback = array("q"), array("q"), array("q"), array("d")
    low, high = RATING_RANGE
    stamp_low, stamp_high = INT64_RANGE
    skipped = total = 0
    with open(path, encoding="latin-1") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            parts = line.split("::")
            if len(parts) != 4:
                skipped += 1
                continue
            try:
                uid = int(parts[0])
                mid = int(parts[1])
                value = float(parts[2])
                timestamp = int(parts[3])
            except ValueError:
                skipped += 1
                continue
            if uid not in users or mid not in movies:
                skipped += 1
                continue
            if not (low <= value <= high) or not (stamp_low <= timestamp <= stamp_high):
                skipped += 1
                continue
            uids.append(uid)
            mids.append(mid)
            feedback.append(value)
            stamps.append(timestamp)
    return ((np.frombuffer(uids, dtype=np.int64), np.frombuffer(mids, dtype=np.int64),
             np.frombuffer(feedback, dtype=np.float64), np.frombuffer(stamps, dtype=np.int64)),
            skipped, total)


# known (users, movies): ids within a short span, and ids that also hold
# values far apart, so both ways of testing membership run
DENSE_IDS = ({u: None for u in range(0, 40)}, {m: None for m in range(1, 30)})
SPARSE_IDS = ({u: None for u in list(range(0, 40)) + [10 ** 17, 2 ** 62]},
              {m: None for m in list(range(1, 30)) + [123456789012345678]})
# lines the strict scan must hand to the per-line rules, each a kind of irregularity
IRREGULAR_LINES = [
    " 1::2::3::978300000", "1::2::3::978300000 ", "1 ::2::3::978300000", "1::2:: 4::978300000",
    "\t1::2::3::978300000", "+1::2::3::978300000", "1::+2::4.5::978300000",
    "1::2::+4::978300000", "1_0::2::3::978300000", "1::2::4_5::978300000",
    "1::2::nan::978300000", "1::2::inf::978300000", "1::2::1e0::978300000",
    "1::2::4.::978300000", "1::2::.5::978300000", "1::2::4..5::978300000",
    "1::2::4.5.0::978300000", "\xe9::2::3::978300000", "1::2::3::97830\xb20",
    "1::2::3::978300000\xa0", "1234567890123456789::2::3::978300000",
    "0000000000000000001::2::3::978300000", "1::2::3::1234567890123456789",
    "1::2::3::9223372036854775808", "1::2::3::-978300000", "1::2::3::-9223372036854775808",
    "1::2::3::-9223372036854775809", "-1::2::3::978300000", "-5::2::3::978300000",
    "1::-3::3::978300000", "9223372036854775808::2::3::4",
    "1::-9223372036854775809::3::4", "1::2::3.000000000000000::978300000",
    "1::2::2.4475771046563414::978300000", "1::2::2.7164870596402359::978300000",
    "1::2::5.00000000000000001::978300000", "1::2::3", "1::2::3::4::5", ":::", "1:::2::3::4",
    "1::2:::3::4", "1::2::3:::4", "::2::3::4", "1::::3::4", "1::2::::4", "1::2::3::",
    "1:2::3::4", "1::2::3:4", "garbage", "1;2;3;4", "\x00",
]
STRICT_RATINGS = ["1", "3", "5", "4.5", "4.50", "0.99999", "5.000001", "1.0", "007",
                  "4.999999999999999", "2.00000000000001", "0", "6", "10"]


def mixed_ratings_file(path, seed, ids, n_lines=400):
    r"""Seeded ratings.dat bytes mixing strict lines (known and unknown ids,
    leading zeros, 18-digit fields) with every irregular kind, blank lines,
    and \n, \r\n and lone \r breaks, ending with or without a break."""
    rng = np.random.default_rng(seed)
    users, movies = list(ids[0]), list(ids[1])
    lines = []
    for i in range(n_lines):
        kind = rng.integers(0, 10)
        if kind < 6:
            uid = users[rng.integers(len(users))] if rng.uniform() < 0.9 else rng.integers(40, 99)
            mid = movies[rng.integers(len(movies))] if rng.uniform() < 0.9 else 99
            uid_s = "0" * int(rng.integers(0, 3)) + str(uid)
            if kind == 5:
                fraction = "".join(str(d) for d in rng.integers(0, 10, int(rng.integers(1, 15))))
                rating = f"{rng.integers(0, 6)}.{fraction}"
            else:
                rating = STRICT_RATINGS[rng.integers(len(STRICT_RATINGS))]
            stamp = int(rng.integers(0, 10 ** int(rng.integers(1, 19))))
            lines.append(f"{uid_s}::{mid}::{rating}::{stamp}")
        elif kind < 8:
            lines.append(IRREGULAR_LINES[i % len(IRREGULAR_LINES)])
        elif kind == 8:
            lines.append("")
        else:
            lines.append(f"{users[rng.integers(len(users))]}::{movies[rng.integers(len(movies))]}"
                         f"::{rng.integers(1, 6)}::{10 ** 17 + i}")
    breaks = ["\n", "\r\n", "\r"]
    text = "".join(line + breaks[rng.integers(3)] for line in lines)
    if seed % 2:
        text = text.rstrip("\r\n")
    with open(path, "wb") as fh:
        fh.write(text.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("ids", [DENSE_IDS, SPARSE_IDS], ids=["dense-ids", "sparse-ids"])
class TestRatingsScanMatchesLineLoop:
    """The byte scan gives the line loop's columns (same bytes, dtypes and
    file order), skip count and line count on files that mix strict lines
    with every irregular kind."""

    def assert_same_parse(self, path, ids):
        expected_columns, expected_skipped, expected_total = line_loop_ratings(path, *ids)
        columns, skipped, total = tasks._parse_ratings(path, *ids)
        got = (columns.uid, columns.mid, columns.feedback, columns.timestamp)
        for a, b in zip(got, expected_columns):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (skipped, total) == (expected_skipped, expected_total)
        return total

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("block_bytes", [1, 7, 64, tasks.RATINGS_BLOCK_BYTES])
    def test_mixed_files(self, tmp_path, monkeypatch, ids, seed, block_bytes):
        # small blocks split lines, and \r\n pairs, at every offset
        monkeypatch.setattr(tasks, "RATINGS_BLOCK_BYTES", block_bytes)
        path = mixed_ratings_file(tmp_path / "ratings.dat", seed, ids)
        assert self.assert_same_parse(path, ids) > 300

    def test_every_irregular_line_alone(self, tmp_path, ids):
        for i, line in enumerate(IRREGULAR_LINES):
            path = tmp_path / f"r{i}.dat"
            path.write_bytes(f"1::2::3::4\r\n{line}\n".encode("latin-1"))
            assert self.assert_same_parse(str(path), ids) == 2

    @pytest.mark.parametrize("text", [b"", b"\n", b"\r\n\r\r\n\n", b"1::2::3::4",
                                      b"1::2::3::4\r", b"\r1::2::3::4\r\r\n"])
    def test_blank_lines_and_final_breaks(self, tmp_path, ids, text):
        path = tmp_path / "ratings.dat"
        path.write_bytes(text)
        self.assert_same_parse(str(path), ids)

    def test_only_irregular_lines_reach_the_line_rules(self, tmp_path, monkeypatch, ids):
        strict = ["1::2::3::4", "000000000000000001::2::1.23456789012345::4",
                  "1::999999999999999999::123456789012345::999999999999999999",
                  "1::2::0.5::4", "1::2::4.50::4"]
        seen = []
        line_rules = tasks._parse_rating_line
        monkeypatch.setattr(tasks, "_parse_rating_line",
                            lambda line: seen.append(line) or line_rules(line))
        path = tmp_path / "ratings.dat"
        path.write_bytes("\n".join(strict + IRREGULAR_LINES).encode("latin-1"))
        self.assert_same_parse(str(path), ids)
        assert seen == IRREGULAR_LINES

    def test_decimal_ratings_decode_to_float_of_their_text(self, tmp_path, ids):
        rng = np.random.default_rng(11)
        lines = []
        for _ in range(2000):
            whole = int(rng.integers(1, 5))
            fraction = "".join(str(d) for d in rng.integers(0, 10, int(rng.integers(1, 17))))
            lines.append(f"1::1::{whole}.{fraction}::978300000")
        path = tmp_path / "ratings.dat"
        path.write_text("\n".join(lines), encoding="latin-1")
        assert self.assert_same_parse(str(path), ids) == 2000


def split_digest(splits):
    """sha256 over every encoded episode in split order, the vocabularies and labels."""
    digest = hashlib.sha256()
    for name in ("train", "validation", "test"):
        digest.update(name.encode("utf-8"))
        for ep in getattr(splits, name):
            digest.update(repr(ep.user.user_id).encode("utf-8"))
            for part in (ep.support, ep.query):
                for arr in splits.encode(ep.user, part):
                    arr = np.ascontiguousarray(arr)
                    digest.update(repr((arr.dtype.str, arr.shape)).encode("utf-8"))
                    digest.update(arr.tobytes())
    for value in (splits.user_vocabs, splits.item_vocabs, splits.is_major):
        digest.update(repr(value).encode("utf-8"))
    return digest.hexdigest()


def tie_corpus(tmp_path):
    """Movies 9 and 10 rated at one timestamp by every user, some twice.

    Integer ids order as strings ("10" < "9") and exact ties keep file order,
    so each user's sorted ratings differ from both numeric and reversed order.
    """
    users = [f"{u}::{'F' if u % 3 else 'M'}::{20 + u}::{u % 4}::{30000 + u}"
             for u in range(1, 11)]
    movies = [f"{m}::Feature {m} (1990)::Genre{m % 5}" for m in range(1, 13)]
    ratings = []
    for u in range(1, 11):
        stamp = 978300000 + (u % 3)
        ratings.append(f"{u}::9::{u % 5 + 1}::{stamp}")
        ratings.append(f"{u}::10::{(u + 2) % 5 + 1}::{stamp}")
        ratings.append(f"{u}::9::{(u + 3) % 5 + 1}::{stamp}")
        ratings.append(f"{u}::{u % 8 + 1}::{(u + 1) % 5 + 1}::{stamp - 1}")
        ratings.append(f"{u}::11::{(u + 4) % 5 + 1}::{stamp}")
        ratings.append(f"{u}::2::3::{stamp + 5}")
    return corpus_paths(tmp_path, users, movies, ratings)


class TestSplitDigests:
    """Encoded splits pinned bit for bit; the digests were recorded before the
    pipeline moved to numpy columns and must never change."""

    def test_synthetic_splits(self):
        splits = synthetic_splits(0.8, 0.2, 0.0, 1.0, 100, 0.1, seed=3)
        assert split_digest(splits) == "bff4cb3f1a22a90fed6b1e4339e2abf09a54035a47ef0e1830ed656353e43e65"

    def test_generated_corpus(self, tmp_path):
        paths = generate_corpus(tmp_path / "corpus", n_users=60, n_movies=40, seed=5)
        raw = load_movielens(paths["ratings"], paths["users"], paths["movies"])
        splits = preprocess(raw, PreprocessConfig(seed=0))
        assert split_digest(splits) == "7eccd7fbde9817ff12f24b71fb781a63e58a1a5939c962b852a7ad64c8f52ec4"

    def test_repr_order_and_file_order_ties(self, tmp_path):
        raw = load_movielens(*tie_corpus(tmp_path))
        splits = preprocess(raw, PreprocessConfig(seed=4, cold_start_fraction=1.0,
                                                  support_ratio=0.5))
        assert split_digest(splits) == "3655915616228b151b31a1fdf6912be2058e3de1185d5bd46d7a3805ab43f726"


ML_DIR = os.environ.get("MOVIELENS_1M_DIR")


@pytest.mark.skipif(ML_DIR is None, reason="set MOVIELENS_1M_DIR to test against the real corpus")
class TestRealCorpus:
    def test_raw_user_count(self):
        raw = load_movielens(os.path.join(ML_DIR, "ratings.dat"),
                             os.path.join(ML_DIR, "users.dat"),
                             os.path.join(ML_DIR, "movies.dat"))
        assert len(raw.users) == 6040

    def test_major_fraction_near_two_thirds(self):
        raw = load_movielens(os.path.join(ML_DIR, "ratings.dat"),
                             os.path.join(ML_DIR, "users.dat"),
                             os.path.join(ML_DIR, "movies.dat"))
        splits = preprocess(raw, PreprocessConfig(seed=0))
        fraction = np.mean(list(splits.is_major.values()))
        assert abs(fraction - 0.65) < 0.03
