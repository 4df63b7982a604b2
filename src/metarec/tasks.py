"""Task data model: columnar ingestion, filtering, splits, and synthetic generators.

Users become few-shot episodes: a profile plus support and query sets.  From
parsing to the model, interactions live in numpy columns, never in one Python
object per rating.  The loader keeps every usable rating line as one entry of
four columns (int64 user, item and timestamp, float64 feedback); it scans
``ratings.dat`` as bytes, decoding well-formed lines as arrays and sending
only the others through the per-line text rules.
`preprocess` ranks users by activity, keeps the cold-start tail, filters out
malformed profiles, splits users 7:1:2 and each user's interactions 80:20,
then gathers each split's interactions into one set of columns whose item
features are already vocabulary ids.  A split is a `SplitView` of those
columns: its episodes' support and query sets are read-only row ranges.
Feature vocabularies are built over the surviving population in ``repr``
order; major/minor labels follow the top-populous-value rule with counts
taken from the training split only.
"""

import math
import numbers
import re
import warnings
from array import array
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from .errors import ConfigError, DataError

USER_FEATURE_NAMES = ("gender", "age", "occupation", "zip_prefix")
ITEM_FEATURE_NAMES = ("genre",)
ZIP_RE = re.compile(r"^\d{5}")
ZIP_PREFIX_LEN = 1
RATING_RANGE = (1.0, 5.0)
MAX_SKIPPED_FRACTION = 0.01
MAJOR_FEATURE_THRESHOLD = 2  # strictly more than this many head values => major
INT64_RANGE = (-(2 ** 63), 2 ** 63 - 1)
# ratings.dat is read in blocks of this many bytes (about 1,400 MovieLens
# lines), so every temporary of the scan stays near 100 KB
RATINGS_BLOCK_BYTES = 1 << 15
STRICT_INT_DIGITS = 18       # below 10**18, so it fits int64
STRICT_RATING_DIGITS = 15    # below 10**15 < 2**53, so exact as a float64
# the seven gaps between a strict line's break, six colons and end are
# field, "::", field, "::", rating, "::", field, each a field's length + 1:
# (least gap, most gap - least gap)
_STRICT_GAPS = (np.array([[2], [1], [2], [1], [2], [1], [2]]),
                np.array([[STRICT_INT_DIGITS - 1], [0], [STRICT_INT_DIGITS - 1], [0],
                          [STRICT_RATING_DIGITS], [0], [STRICT_INT_DIGITS - 1]], dtype=np.uint64))
# known ids spanning fewer values than this are looked up in a bool table
ID_TABLE_SPAN = 1 << 17
_POW10 = 10 ** np.arange(STRICT_INT_DIGITS + 1, dtype=np.int64)
_POW10_F = _POW10.astype(np.float64)   # exact: every power up to 10**22 is


@dataclass(frozen=True)
class UserProfile:
    user_id: object
    features: Tuple


@dataclass(frozen=True, eq=False)
class InteractionColumns:
    """Interactions as columns, one row per interaction.

    ``item_ids`` holds the raw item ids, ``items`` the (n, n_item_features)
    item feature vocabulary ids, ``feedback`` the float64 targets and
    ``timestamps`` the int64 times (0 where the source has none).  Build
    one with `_read_only_columns`; `rows` views inherit its read-only flags.
    """

    item_ids: np.ndarray
    items: np.ndarray
    feedback: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.feedback)

    def rows(self, start: int, stop: int) -> "InteractionColumns":
        """Rows ``start:stop`` as views of these columns."""
        return InteractionColumns(self.item_ids[start:stop], self.items[start:stop],
                                  self.feedback[start:stop], self.timestamps[start:stop])


def _read_only_columns(item_ids, items, feedback, timestamps) -> InteractionColumns:
    for column in (item_ids, items, feedback, timestamps):
        column.flags.writeable = False
    return InteractionColumns(item_ids, items, feedback, timestamps)


@dataclass(frozen=True)
class TaskEpisode:
    user: UserProfile
    support: InteractionColumns
    query: InteractionColumns


class SplitView(Sequence):
    """A split's episodes as row ranges of one set of read-only columns.

    Episode ``i`` is user ``user_ids[i]`` (a list of plain Python keys) with
    the profile features ``profiles[profile_rows[i]]``; its support set is
    rows ``starts[i]:starts[i] + support_lengths[i]`` of ``columns`` and its
    query set the ``query_lengths[i]`` rows right after.  Several views may
    share the columns.  Indexing builds the episode's `TaskEpisode` on
    demand, and `take` selects episodes without copying rows.
    """

    __slots__ = ("columns", "starts", "support_lengths", "query_lengths", "user_ids",
                 "profiles", "profile_rows")

    def __init__(self, columns: InteractionColumns, starts, support_lengths, query_lengths,
                 user_ids: list, profiles: Tuple[Tuple, ...], profile_rows):
        self.columns, self.user_ids, self.profiles = columns, user_ids, profiles
        self.starts, self.support_lengths = starts, support_lengths
        self.query_lengths, self.profile_rows = query_lengths, profile_rows

    def __len__(self) -> int:
        return len(self.user_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        index = range(len(self))[index]
        start = int(self.starts[index])
        middle = start + int(self.support_lengths[index])
        user = UserProfile(self.user_ids[index], self.profiles[self.profile_rows[index]])
        return TaskEpisode(user, self.columns.rows(start, middle),
                           self.columns.rows(middle, middle + int(self.query_lengths[index])))

    def take(self, positions) -> "SplitView":
        """The episodes at ``positions``, in that order, on the same columns."""
        index = np.asarray(positions, dtype=np.int64)
        return SplitView(self.columns, self.starts[index], self.support_lengths[index],
                         self.query_lengths[index], [self.user_ids[i] for i in index.tolist()],
                         self.profiles, self.profile_rows[index])


@dataclass(frozen=True, eq=False)
class RatingColumns:
    """Usable rating lines in file order: int64 ``uid``, ``mid`` and
    ``timestamp``, float64 ``feedback``."""

    uid: np.ndarray
    mid: np.ndarray
    feedback: np.ndarray
    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.uid)


@dataclass(frozen=True)
class RawDataset:
    users: Dict
    movies: Dict          # item_id -> feature tuple
    ratings: RatingColumns
    skipped_lines: int
    total_lines: int


@dataclass(frozen=True)
class DatasetSplits:
    train: Sequence[TaskEpisode]
    validation: Sequence[TaskEpisode]
    test: Sequence[TaskEpisode]
    user_vocabs: Tuple[Dict, ...]
    item_vocabs: Tuple[Dict, ...]
    is_major: Dict

    def user_vocab_sizes(self) -> Tuple[int, ...]:
        return tuple(len(v) for v in self.user_vocabs)

    def item_vocab_sizes(self) -> Tuple[int, ...]:
        return tuple(len(v) for v in self.item_vocabs)

    def encode(self, user: UserProfile, part: InteractionColumns):
        """Model inputs ``(user_ids, items, feedback)`` for one user's interactions."""
        try:
            user_ids = np.array([vocab[value] for vocab, value
                                 in zip(self.user_vocabs, user.features)], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"user {user.user_id!r} carries unknown feature value {exc}")
        return user_ids, part.items, part.feedback


def _split_counts(n: int, parts: Tuple[int, int, int]) -> Tuple[int, int]:
    total = sum(parts)
    first = (parts[0] * n) // total
    second = ((parts[0] + parts[1]) * n) // total
    return first, second


def check_split(split, n_users: Optional[int] = None) -> None:
    """Reject a train/validation/test user split that cannot yield both a
    train and a test user.

    ``split`` must be three non-negative integers with positive train and test
    shares (a zero validation share is legal).  A positive test share always
    yields a test user; given ``n_users``, the train count must be positive too.
    """
    if (len(split) != 3
            or not all(isinstance(s, numbers.Integral) and not isinstance(s, bool)
                       and s >= 0 for s in split)
            or split[0] == 0 or split[2] == 0):
        raise ConfigError(f"dataset.split must be three non-negative integers with "
                          f"positive train and test shares, got {tuple(split)}")
    if n_users is not None:
        if _split_counts(n_users, tuple(split))[0] == 0:
            raise ConfigError(f"dataset.split {tuple(split)} leaves the train split of "
                              f"{n_users} users empty")


@dataclass(frozen=True)
class PreprocessConfig:
    seed: int = 0
    cold_start_fraction: float = 0.8
    min_items: int = 2
    split: Tuple[int, int, int] = (7, 1, 2)
    support_ratio: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.cold_start_fraction <= 1.0):
            raise ConfigError("cold_start_fraction must be in (0, 1]")
        if self.min_items < 2:
            raise ConfigError("min_items must be >= 2 so query sets are non-empty")
        check_split(self.split)
        if not (0.0 < self.support_ratio < 1.0):
            raise ConfigError("support_ratio must be in (0, 1)")


def _in_int64(value: int) -> bool:
    return INT64_RANGE[0] <= value <= INT64_RANGE[1]


def _parse_header_file(path, kind: str, n_fields: int,
                       int_fields: Tuple[int, ...]) -> Tuple[Dict, int, int]:
    """``(records, skipped, total)`` of a ``::``-separated Latin-1 ``kind``
    file: each usable line's fields keyed by its id, field 0.

    Blank lines are not counted.  A line is skipped when its field count is
    not ``n_fields``, when one of ``int_fields`` is not an integer, or when
    its id is outside int64, in that order; a repeated id keeps its later
    line.
    """
    records: Dict = {}
    skipped = total = 0
    try:
        handle = open(path, encoding="latin-1")
    except OSError as exc:
        raise DataError(f"cannot open {kind} file: {exc}")
    with handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            fields = line.split("::")
            if len(fields) != n_fields:
                skipped += 1
                continue
            try:
                for i in int_fields:
                    fields[i] = int(fields[i])
            except ValueError:
                skipped += 1
                continue
            if not _in_int64(fields[0]):
                skipped += 1
                continue
            records[fields[0]] = fields
    return records, skipped, total


def _parse_rating_line(line: str) -> Optional[Tuple[int, int, float, int]]:
    """One line's ``(uid, mid, rating, timestamp)`` under the text rules, or
    None when the line is skipped for its own text.

    Membership and the rating range are checked by the caller.  An id outside
    int64 is skipped here: it cannot name a known user or movie.
    """
    parts = line.split("::")
    if len(parts) != 4:
        return None
    try:
        fields = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        return None
    if not (_in_int64(fields[0]) and _in_int64(fields[1]) and _in_int64(fields[3])):
        return None
    return fields


def _line_blocks(handle):
    r"""The bytes of ``handle`` as blocks of whole lines.

    Every block starts with a line break (``\r`` or ``\n``): the first with
    an added one, each later block with the last break of the block before.
    Only empty lines come of that, and empty lines are not counted.
    """
    pieces = [b"\n"]
    while True:
        chunk = handle.read(RATINGS_BLOCK_BYTES)
        if not chunk:
            break
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r"))
        if cut < 0:
            pieces.append(chunk)
            continue
        pieces.append(chunk[:cut + 1])
        yield b"".join(pieces)
        pieces = [chunk[cut:]]
    if len(pieces) > 1 or len(pieces[0]) > 1:
        yield b"".join(pieces)


def _digits_value(windows: np.ndarray, hi: np.ndarray, length: np.ndarray,
                  width: int) -> np.ndarray:
    """int64 value of the ``length`` (at most ``width``) digits before each
    byte ``hi``.

    Row ``r`` of ``windows`` holds the digit values of the 18 bytes before
    byte ``r``; the bytes before a field weigh multiples of 10**length and
    drop out of the remainder.
    """
    window = windows[hi, STRICT_INT_DIGITS - width:]
    return (window @ _POW10[width - 1::-1]) % _POW10[length]


def _strict_lines(data: np.ndarray, is_break: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray):
    """The lines (indices into ``starts``) that are strict, and their columns.

    A strict line is ``D{1,18}::D{1,18}::R::D{1,18}`` with ``D`` an ASCII
    digit and ``R`` at most 15 digits with at most one interior ``.``.  Its
    ids and timestamp are exact int64s, and its rating is ``N / 10.0**k``
    for the rating's digits ``N`` (< 2**53) and ``k`` fraction digits: a
    correctly rounded division of two exact floats, so the same float64 as
    ``float(text)``.
    """
    colons = np.flatnonzero(data == ord(":"))
    first = np.searchsorted(colons, starts)
    count = np.searchsorted(colons, ends) - first
    six = count == 6
    lines = np.flatnonzero(six)
    # per line: the break before it, its six colons and its end; a field
    # ends at bounds[1::2] and spans the gap before that, less one
    bounds = np.vstack((starts[lines] - 1, colons[np.repeat(six, count)].reshape(-1, 6).T,
                        ends[lines]))
    gaps = bounds[1:] - bounds[:-1]
    ok = ((gaps - _STRICT_GAPS[0]).view(np.uint64) <= _STRICT_GAPS[1]).all(axis=0)
    hi, length = bounds[1::2], gaps[::2] - 1
    # the one byte of a strict line that is neither a digit nor a colon (":"
    # is "0" + 10; bytes below "0" wrap high) is an optional rating dot
    frac = np.zeros(len(lines), dtype=np.int64)   # digits after the dot
    other = np.flatnonzero((data - np.uint8(ord("0")) > 10) & ~is_break)
    if len(other):
        owner = np.searchsorted(starts, other, side="right") - 1
        n_other = np.bincount(owner, minlength=len(starts))[lines]
        dot = np.zeros(len(starts), dtype=np.int64)
        dot[owner] = other
        dot = dot[lines]
        ok &= (n_other == 0) | ((n_other == 1) & (data[dot] == ord("."))
                                & (dot > bounds[4] + 1) & (dot < hi[2] - 1))
        np.subtract(hi[2] - 1, dot, out=frac, where=n_other == 1)
    ok &= length[2] - (frac > 0) <= STRICT_RATING_DIGITS
    if not ok.all():
        lines, hi, length, frac = lines[ok], hi[:, ok], length[:, ok], frac[ok]
    if not len(lines):
        return lines, None
    padded = np.zeros(len(data) + STRICT_INT_DIGITS, dtype=np.uint8)
    digits = np.subtract(data, ord("0"), out=padded[STRICT_INT_DIGITS:])
    digits *= digits <= 9
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(len(data) + 1, STRICT_INT_DIGITS), strides=(1, 1), writeable=False)
    uid, mid, rating, stamp = (_digits_value(windows, *field) for field
                               in zip(hi, length, length.max(axis=1)))
    if frac.any():
        # the dot was read as a 0 digit: drop it
        rating = np.where(frac > 0, rating // _POW10[frac + 1] * _POW10[frac]
                          + rating % _POW10[frac], rating)
    return lines, (uid, mid, rating / _POW10_F[frac], stamp)


def _decode_block(block: bytes):
    r"""Columns ``(uid, mid, rating, timestamp)`` for every non-blank line of
    a `_line_blocks` block, and a mask of the lines whose own text parsed.

    Strict lines decode as arrays; every other line goes through
    `_parse_rating_line`.  Lines break at ``\r`` and at ``\n``: where text
    mode reads ``\r\n`` as one break this sees an extra empty line, and
    empty lines are not lines.
    """
    data = np.frombuffer(block, dtype=np.uint8)
    is_break = (data == ord("\n")) | (data == ord("\r"))
    breaks = np.flatnonzero(is_break)
    starts, ends = breaks + 1, np.append(breaks[1:], len(data))
    nonblank = ends > starts
    starts, ends = starts[nonblank], ends[nonblank]
    n = len(starts)
    lines, strict = _strict_lines(data, is_break, starts, ends)
    parsed = np.ones(n, dtype=bool)
    if strict is not None and len(lines) == n:
        return strict, parsed
    columns = (np.zeros(n, np.int64), np.zeros(n, np.int64),
               np.zeros(n, np.float64), np.zeros(n, np.int64))
    if strict is not None:
        for column, values in zip(columns, strict):
            column[lines] = values
    loose = np.ones(n, dtype=bool)
    loose[lines] = False
    for i in np.flatnonzero(loose).tolist():
        fields = _parse_rating_line(block[starts[i]:ends[i]].decode("latin-1"))
        if fields is None:
            parsed[i] = False
        else:
            for column, value in zip(columns, fields):
                column[i] = value
    return columns, parsed


def _id_test(ids) -> Callable[[np.ndarray], np.ndarray]:
    """A test of which int64 values are among ``ids``: one table lookup when
    the ids span fewer than ``ID_TABLE_SPAN`` values, else ``np.isin``."""
    ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
    if not len(ids) or int(ids.max()) - int(ids.min()) >= ID_TABLE_SPAN:
        return lambda values: np.isin(values, ids)
    low = ids.min()
    table = np.zeros(int(ids.max() - low) + 2, dtype=bool)   # the last entry stays False
    table[ids - low] = True
    # an unsigned offset past the span (a value below low wraps) reads that last entry
    return lambda values: table[np.minimum((values - low).view(np.uint64), len(table) - 1)]


def _parse_ratings(path, users, movies) -> Tuple[RatingColumns, int, int]:
    # user and movie ids already fit int64 (their parsers skip any that do not)
    known_user, known_movie = _id_test(users), _id_test(movies)
    out = (array("q"), array("q"), array("d"), array("q"))
    low, high = RATING_RANGE
    skipped = total = 0
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open ratings file: {exc}")
    with handle:
        for block in _line_blocks(handle):
            columns, keep = _decode_block(block)
            uid, mid, value, _ = columns
            keep &= known_user(uid) & known_movie(mid) & (value >= low) & (value <= high)
            kept = int(np.count_nonzero(keep))
            for column, values in zip(out, columns):
                column.frombytes(memoryview(values if kept == len(keep) else values[keep]).cast("B"))
            total += len(keep)
            skipped += len(keep) - kept
    columns = RatingColumns(*(np.frombuffer(column, dtype=dtype) for column, dtype
                              in zip(out, (np.int64, np.int64, np.float64, np.int64))))
    return columns, skipped, total


def load_movielens(ratings_path, users_path, movies_path) -> RawDataset:
    """Parse `::`-separated Latin-1 rating/user/movie files.

    Unparseable or dangling lines are skipped and counted, as are ratings
    outside 1-5 and ids or timestamps outside int64; more than 1% of skipped
    lines in any file aborts the load.
    """
    users, skipped_u, total_u = _parse_header_file(users_path, "users", 5, (0, 2, 3))
    users = {uid: {"gender": gender, "age": age, "occupation": occupation, "zipcode": zipcode}
             for uid, (_, gender, age, occupation, zipcode) in users.items()}
    movies, skipped_m, total_m = _parse_header_file(movies_path, "movies", 3, (0,))
    movies = {mid: (genres,) for mid, (_, _title, genres) in movies.items()}
    ratings, skipped_r, total_r = _parse_ratings(ratings_path, users, movies)
    if total_r == 0 or not len(ratings):
        raise DataError("ratings file holds no usable records")
    for name, skipped, total in (("users", skipped_u, total_u),
                                 ("movies", skipped_m, total_m),
                                 ("ratings", skipped_r, total_r)):
        if total and skipped / total > MAX_SKIPPED_FRACTION:
            raise DataError(
                f"{name} file: {skipped} of {total} lines skipped exceeds the 1% budget")
    if skipped_u or skipped_m or skipped_r:
        warnings.warn(
            f"skipped lines while loading: users={skipped_u} movies={skipped_m} ratings={skipped_r}")
    return RawDataset(users=users, movies=movies, ratings=ratings,
                      skipped_lines=skipped_u + skipped_m + skipped_r,
                      total_lines=total_u + total_m + total_r)


def _profile_from_raw(uid, rec) -> Optional[UserProfile]:
    gender = rec["gender"]
    if gender not in ("M", "F"):
        return None
    age = rec["age"]
    if age < 10 or age > 100:
        return None
    if rec["occupation"] < 0:
        return None
    zipcode = rec["zipcode"]
    if not ZIP_RE.match(zipcode):
        return None
    return UserProfile(user_id=uid,
                       features=(gender, age, rec["occupation"], zipcode[:ZIP_PREFIX_LEN]))


def classify_major_minor(profiles: Sequence[UserProfile],
                         train_user_ids: Set,
                         vocabs: Sequence[Mapping]) -> Dict:
    """Label users major/minor by membership in per-feature head-value sets.

    For each feature the head set covers the ceil(30%) most user-populous
    values (ceil(50%) when the vocabulary is binary), counted over training
    users only, ties broken by value order in the vocabulary.  A user is
    major when strictly more than two features fall in the head sets.
    """
    head_sets = []
    for feature_pos, vocab in enumerate(vocabs):
        counts: Dict = {value: 0 for value in vocab}
        for profile in profiles:
            if profile.user_id in train_user_ids:
                counts[profile.features[feature_pos]] += 1
        fraction = 0.5 if len(vocab) == 2 else 0.3
        top_k = int(np.ceil(fraction * len(vocab)))
        ranked = sorted(vocab, key=lambda v: (-counts[v], vocab[v]))
        head_sets.append(set(ranked[:top_k]))
    labels: Dict = {}
    for profile in profiles:
        hits = sum(1 for pos, value in enumerate(profile.features)
                   if value in head_sets[pos])
        labels[profile.user_id] = hits > MAJOR_FEATURE_THRESHOLD
    return labels


def _build_vocab(values) -> Dict:
    return {value: idx for idx, value in enumerate(sorted(set(values), key=repr))}


def preprocess(raw: RawDataset, config: PreprocessConfig) -> DatasetSplits:
    """Cold-start ranking, validity filters, user splits, episode splits."""
    ratings = raw.ratings
    user_keys = sorted(raw.users)
    slot = {uid: pos for pos, uid in enumerate(user_keys)}
    owner = np.searchsorted(np.array(user_keys, dtype=np.int64), ratings.uid)
    counts = np.bincount(owner, minlength=len(user_keys))

    # stage 1: keep the cold-start tail, the users with the least log data;
    # slots are in uid order, so a stable sort ranks by (count, uid)
    ranked = np.argsort(counts, kind="stable")
    keep = ranked[:int(np.floor(config.cold_start_fraction * len(ranked)))]

    # stage 2: profile validity and minimum interaction count
    profiles: List[UserProfile] = []
    for pos in keep.tolist():
        uid = user_keys[pos]
        profile = _profile_from_raw(uid, raw.users[uid])
        if profile is None:
            continue
        if counts[pos] < config.min_items:
            continue
        profiles.append(profile)
    if not profiles:
        raise DataError("every user was filtered out during preprocessing")

    # stage 3: seeded user shuffle into train/validation/test
    rng = np.random.default_rng(config.seed)
    profiles.sort(key=lambda p: repr(p.user_id))
    order = rng.permutation(len(profiles))
    shuffled = [profiles[i] for i in order]
    first, second = _split_counts(len(shuffled), config.split)
    groups = (shuffled[:first], shuffled[first:second], shuffled[second:])

    # the ratings of surviving users, in file order
    surviving = np.zeros(len(user_keys), dtype=bool)
    surviving[[slot[p.user_id] for p in profiles]] = True
    kept = np.flatnonzero(surviving[owner])
    mid, owner = ratings.mid[kept], owner[kept]
    feedback, timestamp = ratings.feedback[kept], ratings.timestamp[kept]

    # vocabularies span every surviving user and the items they rated; one
    # lookup array maps each distinct movie to its item feature ids
    user_vocabs = tuple(_build_vocab(p.features[pos] for p in profiles)
                        for pos in range(len(USER_FEATURE_NAMES)))
    movie_ids, movie_of = np.unique(mid, return_inverse=True)
    movie_ids = movie_ids.tolist()
    item_vocabs = tuple(_build_vocab(raw.movies[m][pos] for m in movie_ids)
                        for pos in range(len(ITEM_FEATURE_NAMES)))
    movie_items = np.array([[vocab[value] for vocab, value in zip(item_vocabs, raw.movies[m])]
                            for m in movie_ids], dtype=np.int64)

    # each user's ratings as one contiguous run, ordered by (timestamp, repr
    # of the item id) with exact ties in file order: integer ids compare as
    # strings, so "10" sorts before "9"
    repr_rank = np.empty(len(movie_ids), dtype=np.int64)
    repr_rank[sorted(range(len(movie_ids)), key=lambda m: repr(movie_ids[m]))] = \
        np.arange(len(movie_ids))
    by_user = np.lexsort((repr_rank[movie_of], timestamp, owner))
    kept_counts = np.where(surviving, counts, 0)
    starts = (np.cumsum(kept_counts) - kept_counts).tolist()
    counts = counts.tolist()

    # stage 4: per-user support/query split, in deterministic user order; each
    # split's interactions are gathered into one set of columns
    distinct = tuple(dict.fromkeys(profile.features for profile in profiles))
    profile_rows = {features: row for row, features in enumerate(distinct)}
    views = []
    for group in groups:
        picks, sizes = [], []
        for profile in group:
            pos = slot[profile.user_id]
            n = counts[pos]
            picks.append(by_user[starts[pos]:starts[pos] + n][rng.permutation(n)])
            sizes.append((n, min(int(np.ceil(config.support_ratio * n)), n - 1)))
        rows = np.concatenate(picks) if picks else np.zeros(0, dtype=np.int64)
        columns = _read_only_columns(mid[rows], movie_items[movie_of[rows]],
                                     feedback[rows], timestamp[rows])
        n, support = np.array(sizes, dtype=np.int64).reshape(-1, 2).T
        views.append(SplitView(columns, np.cumsum(n) - n, support, n - support,
                               [profile.user_id for profile in group], distinct,
                               np.array([profile_rows[p.features] for p in group],
                                        dtype=np.int64)))

    train_ids = {profile.user_id for profile in groups[0]}
    labels = classify_major_minor(profiles, train_ids, user_vocabs)
    return DatasetSplits(*views, user_vocabs=user_vocabs, item_vocabs=item_vocabs,
                         is_major=labels)


SYNTH_ITEM_FEATURE_VALUE = "scalar"


def check_synthetic(p1: float, p2: float, x1: float, x2: float, n_tasks: int,
                    noise_sd: float, support_size: int, query_size: int) -> None:
    """Reject a two-group population that `synth_two_group` cannot draw,
    naming the first fault found."""
    if not (p1 > 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) < 1e-12):
        raise ConfigError("group probabilities must be non-negative and sum to 1")
    if p1 < p2:
        raise ConfigError("group 1 must be the major group (p1 >= p2)")
    if n_tasks < 1 or support_size < 1 or query_size < 1:
        raise ConfigError("n_tasks, support_size, query_size must be >= 1")
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ConfigError(f"x1 and x2 must be finite, got {x1} and {x2}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ConfigError(f"noise_sd must be finite and non-negative, got {noise_sd}")


def synth_two_group(p1: float, p2: float, x1: float, x2: float, n_tasks: int,
                    noise_sd: float, seed: int, support_size: int = 5,
                    query_size: int = 5) -> SplitView:
    """Scalar-regression episodes drawn from two latent groups.

    Each task belongs to group 1 with probability p1; its targets scatter
    around the group preference x_g with Gaussian noise.  The single user
    feature is the group id, so embeddings can separate the groups; user
    keys are the task numbers.  Every task's interactions are one row range
    of shared columns: item ids count from 0 within a task, the one item
    feature value has id 0, and timestamps are 0.
    """
    check_synthetic(p1, p2, x1, x2, n_tasks, noise_sd, support_size, query_size)
    rng = np.random.default_rng(seed)
    size = support_size + query_size
    major = np.empty(n_tasks, dtype=bool)
    normals = np.empty((n_tasks, size))
    for task in range(n_tasks):
        major[task] = rng.uniform() < p1
        normals[task] = rng.standard_normal(size)
    targets = np.where(major, x1, x2).astype(np.float64)[:, None] + noise_sd * normals
    columns = _read_only_columns(np.tile(np.arange(size, dtype=np.int64), n_tasks),
                                 np.zeros((n_tasks * size, 1), dtype=np.int64),
                                 targets.reshape(-1), np.zeros(n_tasks * size, dtype=np.int64))
    return SplitView(columns, np.arange(n_tasks, dtype=np.int64) * size,
                     np.full(n_tasks, support_size, dtype=np.int64),
                     np.full(n_tasks, query_size, dtype=np.int64), list(range(n_tasks)),
                     ((1,), (2,)), (~major).astype(np.int64))


def synthetic_splits(p1: float, p2: float, x1: float, x2: float, n_tasks: int,
                     noise_sd: float, seed: int, support_size: int = 5,
                     query_size: int = 5,
                     split: Tuple[int, int, int] = (7, 1, 2)) -> DatasetSplits:
    """Package two-group episodes as train/validation/test splits, each a
    `take` of one `SplitView`; group 1 is the major group."""
    check_split(split, n_tasks)
    episodes = synth_two_group(p1, p2, x1, x2, n_tasks, noise_sd, seed,
                               support_size, query_size)
    order = np.random.default_rng((seed, 1)).permutation(n_tasks)
    parts = np.split(order, _split_counts(n_tasks, split))
    return DatasetSplits(*map(episodes.take, parts), user_vocabs=({1: 0, 2: 1},),
                         item_vocabs=({SYNTH_ITEM_FEATURE_VALUE: 0},),
                         is_major=dict(zip(episodes.user_ids,
                                           (episodes.profile_rows == 0).tolist())))
