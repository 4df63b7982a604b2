"""Differentiable model core: embeddings + ReLU MLP, exact grad and HVP.

The architecture is fixed (per-feature embedding tables, a dense ReLU stack,
one linear rating output trained on mean squared error), so reverse-mode
differentiation is written out explicitly instead of pulling in an autodiff
framework.

Parameters are addressed by flat offset: every embedding table first, one
row of ``embedding_dim`` values per id, then each dense layer's weight and
bias.  `ModelSpec.plan` derives where each of them sits once per spec.

Episodes are checked once per split, into a `CheckedSplit` of read-only
columns: `check_episodes` checks each episode's shapes as it reads it,
copies the episodes into new columns and range-checks every id there, and
a caller whose rows already sit in read-only columns wraps them as they
are.  `_split_of` alone decides what an episode input is: a tuple is one
``(user_ids, items, targets)`` episode, a split checked for the spec is
used as it is, and anything else is a sequence of episodes, checked into a
small split first.  `grad`, `hvp` and `predict_stacks` take their episodes
through it; `forward` and `user_embedding` check their ids on every call.

Every pass runs on a ragged stack.  `CheckedSplit.stack` gathers every
episode's ids and targets from the columns by index, one run of rows per
episode in split order, and each run of episodes with equal item counts is
a block.  Within a block each dense layer is one ``(B, n, in) @ (in, out)``
matmul, or ``(B, n, in) @ (B, in, out)`` when every episode has its own
parameters (the adapted theta_i of an inner step).  numpy's matmul loops
over the leading axis and makes, for each slice, the same BLAS call a lone
episode's 2-D matmul makes, and the row sums whose order fixes bits (the
loss, the bias gradient, the user-embedding sum) run per block over each
slice's rows in the same order.  Every other step (gathers, ReLU masks,
finiteness checks, loss scales, scatters) runs once over all rows and
touches each row on its own.  So every episode gets the bits of a
one-episode pass, and a lone episode is a stack of one.  Ragged episodes
are never padded to share a block: zero rows change the BLAS call's shape
and, with it, how the sums round.  One 2-D matmul over several episodes'
rows would too (a single ``(B n, in)`` matmul blocks its sums differently).
How episodes are ordered and cut into stacks therefore moves no bit.
`ordered_passes` is the one cutter: it orders episodes by their row counts
and cuts them into passes of at most a given number, so a pass's episodes
of one shape form one block.  The trainer's and evaluation's passes and
`predict_stacks`, which `predict`, `forward` and transfer's per-epoch loss
run through, all use it; `predict_stack` returns one (B, n_items) array of
predictions and one of targets per block.

`grad_stack` runs a forward and a backward pass over a stack and returns one
gradient row per episode, each normalized by its own item count, written
into a caller's buffer when given; the input gradient goes back to the
embedding values as one add at the user positions and one ``np.add.at`` at
the item positions, which adds repeated items in row order.  An episode
whose forward pass goes non-finite stays in its stack, without a numpy
warning, and is reported with the error a one-episode pass would raise.
`grad` pools a batch: it runs its episodes as one ragged stack ordered by
item count and adds every episode's terms onto one vector in episode
order, as a pass over the episodes one at a time would.  The pass is kept
as a tape, and `hvp` pushes a tangent v through it without recomputing it
(the R-op of Pearlmutter, 1994), which gives an exact Hessian-vector
product; given `grad_stack`'s StackGradient it pushes one tangent row per
episode.

Every call that takes a ParamSet checks its layout against the spec (one
comparison of layout keys); `hvp` given a tape relies on the check its
`grad` made on the same theta, and `grad_stack` and `predict_stack`, which
take flat vectors, on their caller's.

Everything is float64 and deterministic given the seed.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .params import Gradient, Layout, ParamSet, dense_views

__all__ = [
    "ModelSpec",
    "Episode",
    "CheckedEpisode",
    "CheckedSplit",
    "EpisodeStack",
    "StackGradient",
    "check_episodes",
    "ordered_passes",
    "init_params",
    "init_dense_stack",
    "forward",
    "predict",
    "predict_stacks",
    "predict_stack",
    "user_embedding",
    "loss",
    "grad",
    "grad_stack",
    "hvp",
]

EMBEDDING_INIT_RANGE = 0.05

# One training example group: ids of one user's categorical features, an
# (n_items, n_item_features) id matrix, and one target per item.
Episode = Tuple[Sequence[int], np.ndarray, np.ndarray]


class FlatPlan(NamedTuple):
    """Where a spec's parameters sit in the flat vector.

    The embedding tables fill the front of the vector, one row of
    ``embedding_dim`` values per id; ``positions`` holds the flat position of
    every value there, one row per embedding row, and
    ``user_rows``/``item_rows`` the row each table starts at, so id ``i`` of
    user table ``t`` reads ``positions[user_rows[t] + i]``.  ``layers``
    holds one ``(weight slice, weight shape, bias slice)`` per dense layer.
    """

    vocab_sizes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    user_vocab: np.ndarray
    item_vocab: np.ndarray
    user_rows: np.ndarray
    item_rows: np.ndarray
    positions: np.ndarray
    user_width: int
    layers: Tuple[Tuple[slice, Tuple[int, int], slice], ...]


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the prediction model.

    ``decision_dims`` lists dense layer output widths from first to last; the
    last entry is the 1-wide rating output.  ReLU is applied after every
    layer except the last.
    """

    user_vocab_sizes: Tuple[int, ...]
    item_vocab_sizes: Tuple[int, ...]
    embedding_dim: int = 32
    decision_dims: Tuple[int, ...] = (320, 192, 1)

    def __post_init__(self):
        if not self.user_vocab_sizes:
            raise ConfigError("model needs at least one user feature")
        if not self.item_vocab_sizes:
            raise ConfigError("model needs at least one item feature")
        if any(v < 1 for v in self.user_vocab_sizes + self.item_vocab_sizes):
            raise ConfigError("vocabulary sizes must be positive")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")
        if not self.decision_dims:
            raise ConfigError("decision_dims must not be empty")
        if self.decision_dims[-1] != 1:
            raise ConfigError("the rating output layer must be 1 wide")

    @property
    def user_width(self) -> int:
        return len(self.user_vocab_sizes) * self.embedding_dim

    @property
    def fused_width(self) -> int:
        return (len(self.user_vocab_sizes) + len(self.item_vocab_sizes)) * self.embedding_dim

    @cached_property
    def layout_key(self):
        """``(names, shapes)`` a parameter layout must have for this spec."""
        shapes = expected_entry_shapes(self)
        return tuple(shapes), tuple(shapes.values())

    @cached_property
    def plan(self) -> FlatPlan:
        """Flat offsets of this spec's tables and layers, read off ``layout_key``."""
        layout = Layout(*self.layout_key)
        n_user = len(self.user_vocab_sizes)
        n_tables = n_user + len(self.item_vocab_sizes)
        table_rows = np.array([sl.start for sl in layout.slices[:n_tables]],
                              dtype=np.int64) // self.embedding_dim
        arrays = (np.array(self.user_vocab_sizes, dtype=np.int64),
                  np.array(self.item_vocab_sizes, dtype=np.int64),
                  table_rows[:n_user], table_rows[n_user:],
                  np.arange(layout.slices[n_tables].start, dtype=np.int64).reshape(
                      -1, self.embedding_dim))
        for arr in arrays:
            arr.flags.writeable = False
        return FlatPlan((self.user_vocab_sizes, self.item_vocab_sizes), *arrays,
                        self.user_width, layout.dense_layers(n_tables))


# ---------------------------------------------------------------------------
# initialization


def dense_stack_shapes(in_dim: int, dims: Sequence[int], prefix: str) -> dict:
    """Entry name -> shape of a dense stack, in the order `init_dense_stack` draws them."""
    shapes = {}
    for layer, width in enumerate(dims):
        shapes[f"{prefix}_W{layer}"] = (width, in_dim)
        shapes[f"{prefix}_b{layer}"] = (width,)
        in_dim = width
    return shapes


def init_dense_stack(rng: np.random.Generator, in_dim: int, dims: Sequence[int], prefix: str):
    """Uniform +/- 1/sqrt(fan_in) weights and biases for a dense stack."""
    entries = {}
    for name, shape in dense_stack_shapes(in_dim, dims, prefix).items():
        if len(shape) == 2:  # a weight; its layer's bias follows with the same bound
            bound = 1.0 / np.sqrt(shape[1])
        entries[name] = rng.uniform(-bound, bound, size=shape)
    return entries


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Seeded parameters: embeddings uniform +/-0.05, layers +/-1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    entries = {}
    for i, vocab in enumerate(spec.user_vocab_sizes):
        entries[f"emb_user_{i}"] = rng.uniform(
            -EMBEDDING_INIT_RANGE, EMBEDDING_INIT_RANGE, size=(vocab, spec.embedding_dim)
        )
    for j, vocab in enumerate(spec.item_vocab_sizes):
        entries[f"emb_item_{j}"] = rng.uniform(
            -EMBEDDING_INIT_RANGE, EMBEDDING_INIT_RANGE, size=(vocab, spec.embedding_dim)
        )
    entries.update(init_dense_stack(rng, spec.fused_width, spec.decision_dims, "dec"))
    return ParamSet(entries)


def expected_entry_names(spec: ModelSpec) -> Tuple[str, ...]:
    return tuple(expected_entry_shapes(spec))


def expected_entry_shapes(spec: ModelSpec):
    shapes = {}
    for i, vocab in enumerate(spec.user_vocab_sizes):
        shapes[f"emb_user_{i}"] = (vocab, spec.embedding_dim)
    for j, vocab in enumerate(spec.item_vocab_sizes):
        shapes[f"emb_item_{j}"] = (vocab, spec.embedding_dim)
    shapes.update(dense_stack_shapes(spec.fused_width, spec.decision_dims, "dec"))
    return shapes


def _check_theta(theta: ParamSet, spec: ModelSpec) -> None:
    if theta.layout.key == spec.layout_key:
        return
    if theta.names() != expected_entry_names(spec):
        raise ConfigError(
            f"parameter layout {theta.names()} does not match the model spec "
            f"(expected {expected_entry_names(spec)})"
        )
    expected = expected_entry_shapes(spec)
    for name, shape in expected.items():
        if theta[name].shape != shape:
            raise ConfigError(
                f"parameter '{name}' has shape {theta[name].shape}, model spec needs {shape}"
            )


# ---------------------------------------------------------------------------
# checking episodes, one split at a time


def _check_episode(spec: ModelSpec, user_ids, items, targets):
    """Int64 ids and float64 targets of one episode, their shapes checked.

    Id ranges are left to `check_episodes`, which checks a whole split at
    once.  Targets of None (a `forward` input) read as zeros.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    if user_ids.shape != (len(spec.user_vocab_sizes),):
        raise DataError(
            f"expected {len(spec.user_vocab_sizes)} user feature ids, got shape {user_ids.shape}"
        )
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 2 or items.shape[1] != len(spec.item_vocab_sizes):
        raise DataError(
            f"item id matrix must be (n_items, {len(spec.item_vocab_sizes)}), got {items.shape}"
        )
    if items.shape[0] == 0:
        raise DataError("episode has no items")
    if targets is None:
        return user_ids, items, np.zeros(items.shape[0])
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (items.shape[0],):
        raise DataError(f"targets shape {targets.shape} does not match {items.shape[0]} items")
    return user_ids, items, targets


def _check_ids(ids: np.ndarray, vocab: np.ndarray, side: str) -> None:
    """Reject ids outside their vocabulary; the last axis runs over features."""
    bad = (ids < 0) | (ids >= vocab)
    if np.logical_or.reduce(bad, None):
        position = tuple(np.argwhere(bad)[0])
        feature = position[-1]
        raise DataError(f"{side} feature {feature} id {ids[position]} outside vocabulary "
                        f"[0, {vocab[feature]})")


class CheckedEpisode(tuple):
    """``(user_ids, items, targets)`` of one episode of a `CheckedSplit`.

    Made only by indexing a split.  Its arrays are read-only views of the
    split's columns, so the check cannot go stale.
    """


class CheckedSplit(Sequence):
    """Episodes checked once against ``vocab_sizes``, as read-only columns.

    ``users`` holds one row of user feature ids per episode, ``items`` and
    ``targets`` every episode's rows, and episode ``i`` is rows
    ``starts[i]:starts[i] + lengths[i]``.  Several splits may share the
    columns and differ in their row ranges.  Indexing builds the episode's
    `CheckedEpisode` on demand; `take`, or a slice, selects episodes without
    copying rows, and `stack` gathers an equal-length split's rows into an
    `EpisodeStack`.
    """

    __slots__ = ("vocab_sizes", "users", "items", "targets", "starts", "lengths")

    def __init__(self, vocab_sizes, users, items, targets, starts, lengths):
        self.vocab_sizes = vocab_sizes
        self.users, self.items, self.targets = users, items, targets
        self.starts, self.lengths = starts, lengths

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        index = range(len(self))[index]
        start = int(self.starts[index])
        stop = start + int(self.lengths[index])
        user_ids = self.users[index]
        user_ids.flags.writeable = False
        return CheckedEpisode((user_ids, self.items[start:stop], self.targets[start:stop]))

    def take(self, positions) -> "CheckedSplit":
        """The episodes at ``positions`` (an index array or a slice), in that
        order, on the same columns."""
        return CheckedSplit(self.vocab_sizes, self.users[positions], self.items, self.targets,
                            self.starts[positions], self.lengths[positions])

    def stack(self, plan: FlatPlan) -> "EpisodeStack":
        """Every episode's rows, concatenated in episode order, as an
        `EpisodeStack` whose blocks are the runs of equal item counts."""
        lengths = self.lengths
        blocks, n_episodes, n_rows = [], 0, 0
        for n, run in itertools.groupby(lengths.tolist()):
            size = len(list(run))
            blocks.append((n_episodes, n_episodes + size, n_rows, n_rows + size * n, n))
            n_episodes, n_rows = n_episodes + size, n_rows + size * n
        row_episodes = np.arange(n_episodes).repeat(lengths)
        rows = (self.starts - (lengths.cumsum() - lengths)).repeat(lengths) + np.arange(n_rows)
        user_index = _user_index(self.users, plan)
        index = np.concatenate(
            (user_index[row_episodes],
             plan.positions[self.items[rows] + plan.item_rows].reshape(n_rows, -1)), axis=1)
        return EpisodeStack(user_index, index, self.targets[rows], lengths, row_episodes,
                            tuple(blocks))


def _well_formed(spec: ModelSpec, users, items, targets) -> bool:
    """Whether id rows and targets have the dtypes and widths `_check_episode` gives."""
    return (users.dtype == np.int64 and users.shape[1:] == (len(spec.user_vocab_sizes),)
            and items.dtype == np.int64 and items.shape[1:] == (len(spec.item_vocab_sizes),)
            and targets.dtype == np.float64 and targets.ndim == 1)


def check_episodes(spec: ModelSpec, episodes) -> CheckedSplit:
    """Check a split's ``(user_ids, items, targets)`` episodes once, in one pass.

    Each episode's shapes are checked with `_check_episode` as it is read,
    so the error is the first bad episode's, and an error raised while
    ``episodes`` is iterated comes after the errors of the episodes before
    it.  The ids and targets are then copied into one set of read-only
    columns, and every id is range-checked there.
    """
    plan = spec.plan
    # every column starts as an empty block of its dtype and width, so an
    # empty split concatenates like any other
    users = [np.empty((0, len(spec.user_vocab_sizes)), dtype=np.int64)]
    items = [np.empty((0, len(spec.item_vocab_sizes)), dtype=np.int64)]
    targets = [np.empty(0)]
    lengths = []
    for episode in episodes:
        episode_users, episode_items, episode_targets = _check_episode(spec, *episode)
        users.append(episode_users[None])
        items.append(episode_items)
        targets.append(episode_targets)
        lengths.append(len(episode_targets))
    lengths = np.array(lengths, dtype=np.int64)
    split = CheckedSplit(plan.vocab_sizes, np.concatenate(users), np.concatenate(items),
                         np.concatenate(targets), np.cumsum(lengths) - lengths, lengths)
    _check_ids(split.users, plan.user_vocab, "user")
    _check_ids(split.items, plan.item_vocab, "item")
    for column in (split.users, split.items, split.targets):
        column.flags.writeable = False
    return split


def _split_of(spec: ModelSpec, episodes) -> CheckedSplit:
    """The checked split of an episode input, the one place its form is decided.

    A tuple is one ``(user_ids, items, targets)`` episode; a `CheckedSplit`
    checked against ``spec``'s vocabulary sizes is used as it is; anything
    else is a sequence of episodes, which `check_episodes` checks.
    """
    if isinstance(episodes, tuple):
        episodes = [episodes]
    elif isinstance(episodes, CheckedSplit) and episodes.vocab_sizes == spec.plan.vocab_sizes:
        return episodes
    return check_episodes(spec, episodes)


def _user_index(user_ids: np.ndarray, plan: FlatPlan) -> np.ndarray:
    """Flat positions of checked user ids' embedding values: (user_width,)
    for one user's ids, one such row per user for a stack of them."""
    return plan.positions[user_ids + plan.user_rows].reshape(user_ids.shape[:-1] + (-1,))


def ordered_passes(limit: int, *lengths) -> List[List[int]]:
    """Positions ordered by ``lengths`` and cut into passes of at most ``limit``.

    The last array of ``lengths`` is the primary key, as in `np.lexsort`,
    and equal keys keep their order, so each pass's episodes of one shape
    sit next to each other and form one block of its ragged stacks.
    """
    order = np.lexsort(lengths).tolist()
    return [order[start:start + limit] for start in range(0, len(order), limit)]


class EpisodeStack(NamedTuple):
    """Episodes' rows concatenated in episode order, in ragged blocks.

    ``user_index`` (E, user_width) holds the flat positions of each
    episode's user embedding values; ``index`` (R, user_width +
    n_item_features * embedding_dim) those of every row's fused input, the
    user's values first, and ``row_targets`` (R,) its target.  ``lengths``
    (E,) counts each episode's rows and ``row_episodes`` (R,) names the
    episode of each row.  ``blocks`` holds one ``(first episode, stop
    episode, first row, stop row, n_items)`` per run of episodes with equal
    item counts; a block's rows reshape into a (B, n_items, ...) stack with
    one slice per episode, as a stack of that one shape would hold them.
    """

    user_index: np.ndarray
    index: np.ndarray
    row_targets: np.ndarray
    lengths: np.ndarray
    row_episodes: np.ndarray
    blocks: tuple


def _gather(flat: np.ndarray, stack: EpisodeStack) -> np.ndarray:
    """Every row's fused input values, (R, width), from one shared vector or
    from the (E, size) row of each row's episode."""
    if flat.ndim == 1:
        return flat[stack.index]
    return flat[stack.row_episodes[:, None], stack.index]


# ---------------------------------------------------------------------------
# forward


def _forward_stack(flat, weights, plan: FlatPlan, stack: EpisodeStack):
    """Forward pass of every episode of ``stack`` at once.

    ``flat`` is one parameter vector shared by every episode or an (E,
    size) stack with one row per episode, and ``weights`` its `dense_views`.
    Each block's layer is one ``(B, n, in) @ (in, out)`` matmul, or ``(B, n,
    in) @ (B, in, out)`` with per-episode rows, plus the bias; the
    finiteness check and the ReLU then run once over every row.  Returns
    (output, acts, preacts, failed): ``acts`` holds the input of every
    decision layer, the fused embedding rows first, ``preacts`` every
    layer's pre-activation, all (R, width), and ``failed`` maps the
    position of each episode whose pre-activations went non-finite to the
    error naming the first layer where they did.
    """
    a = _gather(flat, stack)
    acts = [a]
    preacts = []
    failed = {}
    last = len(weights) - 1
    shared = flat.ndim == 1
    with np.errstate(invalid="ignore", over="ignore"):
        for layer, (w, b) in enumerate(weights):
            w_t = w.swapaxes(-1, -2)
            parts = []
            for e0, e1, r0, r1, n in stack.blocks:
                z_k = a[r0:r1].reshape(e1 - e0, n, -1) @ (w_t if shared else w_t[e0:e1])
                z_k += b if shared else b[e0:e1]
                parts.append(z_k.reshape(r1 - r0, -1))
            z = _join(parts)
            finite = np.isfinite(z)
            if not np.logical_and.reduce(finite, None):
                bad = np.unique(stack.row_episodes[~finite.all(axis=1)])
                for position in bad.tolist():
                    failed.setdefault(position, NumericError(
                        f"non-finite values in decision layer {layer}"))
            preacts.append(z)
            if layer < last:
                a = np.maximum(z, 0.0)
                acts.append(a)
    return preacts[-1], acts, preacts, failed


def forward(theta: ParamSet, spec: ModelSpec, user_ids, items):
    """Predictions, one unbounded rating per item, plus the user embedding
    vector h (decision input side)."""
    _check_theta(theta, spec)
    split = check_episodes(spec, [(user_ids, items, None)])
    return (predict_stacks(theta, spec, split, 1)[0][1][0],
            theta.flat[_user_index(split.users[0], spec.plan)])


def predict_stack(flat: np.ndarray, spec: ModelSpec, stack: EpisodeStack):
    """Predictions for every episode of a ragged ``stack``, at one shared
    parameter vector or at one row of an (E, size) stack per episode: one
    ``(episodes, predictions, targets)`` per block, the slice of its
    episodes and (B, n_items) views of their rows, plus the ``failed`` map
    of `_forward_stack` (those episodes' rows are not finite)."""
    z_out, _, _, failed = _forward_stack(flat, dense_views(flat, spec.plan.layers), spec.plan,
                                         stack)
    z, t = z_out[:, 0], stack.row_targets
    return [(slice(e0, e1), z[r0:r1].reshape(e1 - e0, n), t[r0:r1].reshape(e1 - e0, n))
            for e0, e1, r0, r1, n in stack.blocks], failed


def predict_stacks(theta: ParamSet, spec: ModelSpec, episodes, limit: int) -> list:
    """`predict` for every episode, through ragged passes of at most
    ``limit`` episodes ordered by item count (`ordered_passes`): one
    ``(positions, predictions, targets)`` per block of each pass, its
    (B, n_items) rows in the order of ``positions``.

    ``episodes`` is one episode tuple, a `CheckedSplit` checked for
    ``spec``, or any episodes, checked into a split first (`_split_of`).  A
    non-finite forward pass raises the error of the first such episode.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, episodes)
    blocks, errors = [], {}
    for positions in ordered_passes(limit, split.lengths):
        predicted, failed = predict_stack(theta.flat, spec, split.take(positions).stack(spec.plan))
        for k, exc in failed.items():
            errors[positions[k]] = exc
        blocks += [(positions[block], *arrays) for block, *arrays in predicted]
    if errors:
        raise errors[min(errors)]
    return blocks


def predict(theta: ParamSet, spec: ModelSpec, episode) -> np.ndarray:
    """Predictions for the items of an episode ``(user_ids, items, targets)``.

    Like `forward` without the embedding.
    """
    return predict_stacks(theta, spec, [episode], 1)[0][1][0]


def user_embedding(theta: ParamSet, spec: ModelSpec, user_ids) -> np.ndarray:
    """Concatenated user-feature embedding rows for one user, or one such row
    per user for a (B, n_user_features) stack of ids."""
    _check_theta(theta, spec)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    n_features = len(spec.user_vocab_sizes)
    if user_ids.ndim not in (1, 2) or user_ids.shape[-1] != n_features:
        raise DataError(f"expected {n_features} user feature ids, got shape {user_ids.shape}")
    _check_ids(user_ids, spec.plan.user_vocab, "user")
    return theta.flat[_user_index(user_ids, spec.plan)]


# ---------------------------------------------------------------------------
# loss


def loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error of a batch of rating predictions."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape[0] == 0:
        raise DataError("loss of an empty batch is undefined")
    if predictions.shape != targets.shape:
        raise DataError("predictions/targets shape mismatch")
    r = predictions - targets
    return float(np.mean(r * r))


# ---------------------------------------------------------------------------
# gradients


class _StackTape(NamedTuple):
    """What one stacked forward and backward pass computed, kept for the R-op.

    ``flat`` and ``weights`` are the parameters the pass ran at (shared, or
    one row per episode) and their `dense_views`; ``acts`` holds the input
    of every decision layer, ``masks`` the ReLU masks ``z > 0`` of the
    hidden layers, and ``gas`` the upstream gradient of every layer after
    its mask, all (R, width) over the rows of ``stack``.  ``total_items``
    is the item count every loss is averaged over, or None when each
    episode's is its own.  Everything is held by reference; nothing is
    copied.
    """

    flat: np.ndarray
    weights: list
    stack: EpisodeStack
    acts: list
    masks: list
    gas: list
    total_items: Optional[int]


class StackGradient(NamedTuple):
    """Per-episode gradients of an `EpisodeStack`, each the `grad` of its episode alone.

    ``rows`` (one gradient per episode), ``losses`` and ``tape`` cover every
    episode.  ``failed`` maps the position of each episode whose forward
    pass went non-finite to its error; such an episode stays in the stack,
    and its row and loss are whatever the pass computed.
    """

    failed: dict
    rows: np.ndarray
    losses: np.ndarray
    tape: _StackTape


def _join(parts: list) -> np.ndarray:
    """Per-block results joined into one array of rows, in block order."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _user_sums(values: np.ndarray, stack: EpisodeStack, width: int) -> np.ndarray:
    """Each episode's sum over its rows of the first ``width`` columns of
    ``values``, block by block, (E, width)."""
    return _join([np.add.reduce(values[r0:r1, :width].reshape(e1 - e0, n, width), 1)
                  for e0, e1, r0, r1, n in stack.blocks])


def _grad_pass(flat, plan: FlatPlan, stack: EpisodeStack, total_items: Optional[int],
               out: np.ndarray):
    """Forward and backward pass of every episode of ``stack`` at once.

    Each loss is averaged over ``total_items``, or over the episode's own
    item count when that is None.  Each block's matmuls and row sums (the
    loss, the bias gradient and the user embedding sum) run per block, with
    the strides a stack of that one shape has; every other step runs once
    over all rows.  An episode whose forward pass goes non-finite stays in
    the stack: the backward pass runs with numpy's overflow and invalid
    warnings off, and since every episode is its own BLAS call, its values
    touch no other episode.  ``out`` (E, size) receives one row per
    episode: the gradient of its decision layers and zeros at the embedding
    values, whose gradient terms come back unscattered, as each episode's
    per-feature user sum (E, user_width) and its per-row item terms (R,
    item_width).  Returns (failed, losses, user_values, item_values, tape).
    """
    weights = dense_views(flat, plan.layers)
    _, acts, preacts, failed = _forward_stack(flat, weights, plan, stack)
    uw = plan.user_width
    n_layers = len(weights)
    shared = flat.ndim == 1
    gas = [None] * n_layers
    out[:, :plan.layers[0][0].start] = 0.0
    grads = dense_views(out, plan.layers)
    masks = [z > 0.0 for z in preacts[:-1]]
    with np.errstate(invalid="ignore", over="ignore"):
        r = preacts[-1][:, 0] - stack.row_targets
        losses, seeds = [], []
        for e0, e1, r0, r1, n in stack.blocks:
            count = n if total_items is None else total_items
            r_k = r[r0:r1]
            losses.append(np.add.reduce((r_k * r_k).reshape(e1 - e0, n), 1) / count)
            seeds.append(r_k * (2.0 / count))
        losses = _join(losses)
        ga = _join(seeds)[:, None]
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga = ga * masks[layer]
            gas[layer] = ga
            w, a = weights[layer][0], acts[layer]
            g_w, g_b = grads[layer]
            parts = []
            for e0, e1, r0, r1, n in stack.blocks:
                ga_k = ga[r0:r1].reshape(e1 - e0, n, -1)
                # a BLAS product sums from +0.0, so it is never -0.0, and
                # writing it into the zeroed row has the bits of adding it
                np.matmul(ga_k.swapaxes(-1, -2), a[r0:r1].reshape(e1 - e0, n, -1),
                          out=g_w[e0:e1])
                np.add.reduce(ga_k, 1, keepdims=True, out=g_b[e0:e1])
                parts.append((ga_k @ (w if shared else w[e0:e1])).reshape(r1 - r0, -1))
            g_b += 0.0  # as zeros plus the sum, so a -0.0 sum gives +0.0
            ga = _join(parts)
        user_values = _user_sums(ga, stack, uw)
    tape = _StackTape(flat, weights, stack, acts, masks, gas, total_items)
    return failed, losses, user_values, ga[:, uw:], tape


def _hvp_pass(tape: _StackTape, v: np.ndarray, plan: FlatPlan, out: np.ndarray):
    """The R-op of ``tape``'s passes along ``v`` (shared, or one row per episode).

    Writes one row per episode into ``out`` and returns (user_values,
    item_values), laid out as `_grad_pass` returns the gradient; the
    equations are in `hvp`.
    """
    uw = plan.user_width
    weights, stack, acts, masks, gas = tape.weights, tape.stack, tape.acts, tape.masks, tape.gas
    v_weights = dense_views(v, plan.layers)
    a_t = _gather(v, stack)
    acts_t = [a_t]
    n_layers = len(weights)
    shared, v_shared = tape.flat.ndim == 1, v.ndim == 1
    for layer in range(n_layers):
        w_t = weights[layer][0].swapaxes(-1, -2)
        v_w, v_b = v_weights[layer]
        v_w_t = v_w.swapaxes(-1, -2)
        a = acts[layer]
        parts = []
        for e0, e1, r0, r1, n in stack.blocks:
            shape = (e1 - e0, n, -1)
            z_k = a_t[r0:r1].reshape(shape) @ (w_t if shared else w_t[e0:e1])
            z_k += a[r0:r1].reshape(shape) @ (v_w_t if v_shared else v_w_t[e0:e1])
            z_k += v_b if v_shared else v_b[e0:e1]
            parts.append(z_k.reshape(r1 - r0, -1))
        z_t = _join(parts)
        if layer < n_layers - 1:
            a_t = np.where(masks[layer], z_t, 0.0)
            acts_t.append(a_t)

    total_items = tape.total_items
    ga_t = _join([z_t[r0:r1, 0] * (2.0 / (n if total_items is None else total_items))
                  for e0, e1, r0, r1, n in stack.blocks])[:, None]
    out[:, :plan.layers[0][0].start] = 0.0
    grads = dense_views(out, plan.layers)
    for layer in range(n_layers - 1, -1, -1):
        if layer < n_layers - 1:
            ga_t = ga_t * masks[layer]
        ga, w, v_w = gas[layer], weights[layer][0], v_weights[layer][0]
        a, a_t = acts[layer], acts_t[layer]
        g_w, g_b = grads[layer]
        parts = []
        for e0, e1, r0, r1, n in stack.blocks:
            shape = (e1 - e0, n, -1)
            ga_t_k, ga_k = ga_t[r0:r1].reshape(shape), ga[r0:r1].reshape(shape)
            np.add(ga_t_k.swapaxes(-1, -2) @ a[r0:r1].reshape(shape),
                   ga_k.swapaxes(-1, -2) @ a_t[r0:r1].reshape(shape), out=g_w[e0:e1])
            np.add.reduce(ga_t_k, 1, keepdims=True, out=g_b[e0:e1])
            parts.append((ga_t_k @ (w if shared else w[e0:e1])
                          + ga_k @ (v_w if v_shared else v_w[e0:e1])).reshape(r1 - r0, -1))
        g_b += 0.0
        ga_t = _join(parts)
    return _user_sums(ga_t, stack, uw), ga_t[:, uw:]


def _scatter_rows(out, stack: EpisodeStack, user_values, item_values) -> np.ndarray:
    """Add each episode's embedding terms into its own row of ``out``.

    The user positions are distinct within an episode, and ``np.add.at``
    adds item rows in order; raveled, it takes numpy's one-dimensional fast
    path in that order, so every row gets the bits of a one-episode pass.
    """
    n_rows, size = out.shape
    uw = stack.user_index.shape[1]
    out[np.arange(n_rows)[:, None], stack.user_index] += user_values
    item_positions = stack.index[:, uw:] + (stack.row_episodes * size)[:, None]
    np.add.at(out.reshape(-1), item_positions.ravel(), item_values.ravel())
    return out


def _pool(plan: FlatPlan, order: np.ndarray, stack: EpisodeStack, out, user_values,
          item_values) -> np.ndarray:
    """One vector from a pass's unscattered terms, added in batch order.

    ``order[p]`` is the batch position of the stack's episode ``p``.  The
    dense rows, laid out in batch order, are summed down the rows, and one
    ``np.add.at`` adds each episode's user then item terms in batch order,
    as a one-at-a-time pass would, so pooling keeps its bits.
    """
    uw = plan.user_width
    widths = np.empty(len(order), dtype=np.int64)
    widths[order] = uw + stack.lengths * (stack.index.shape[1] - uw)
    offsets = np.cumsum(widths) - widths
    start = plan.layers[0][0].start
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    index, values = np.empty(widths.sum(), dtype=np.int64), np.empty(widths.sum())
    for e0, e1, r0, r1, n in stack.blocks:
        at = offsets[order[e0:e1]][:, None] + np.arange(widths[order[e0]])
        index[at] = np.concatenate(
            (stack.user_index[e0:e1], stack.index[r0:r1, uw:].reshape(e1 - e0, -1)), axis=1)
        values[at] = np.concatenate(
            (user_values[e0:e1], item_values[r0:r1].reshape(e1 - e0, -1)), axis=1)
    flat = np.zeros(out.shape[1])
    flat[start:] += np.add.accumulate(out[inverse, start:])[-1]
    np.add.at(flat, index, values)
    return flat


def grad_stack(flat: np.ndarray, spec: ModelSpec, stack: EpisodeStack,
               out: Optional[np.ndarray] = None) -> StackGradient:
    """`grad` of each episode of ``stack`` alone, every episode at once.

    ``flat`` is one parameter vector for every episode or an (E, size)
    stack with one row per episode; the caller has checked its layout.  The
    rows are written into ``out``, a C-contiguous (E, size) array, when
    given, else into a new stack.  Every episode keeps its row, loss and tape, a failed one
    included, and none raises a numpy warning.
    """
    if out is None:
        out = np.empty((len(stack.lengths), flat.shape[-1]))
    failed, losses, user_values, item_values, tape = _grad_pass(flat, spec.plan, stack, None,
                                                                out)
    with np.errstate(invalid="ignore", over="ignore"):
        rows = _scatter_rows(out, stack, user_values, item_values)
    return StackGradient(failed, rows, losses, tape)


class _Tape(NamedTuple):
    """What `grad` computed at ``(theta, batch)``, kept for `hvp`: its one
    pass's tape and ``order``, the batch position of each of its episodes."""

    theta: ParamSet
    spec: ModelSpec
    batch: object
    order: np.ndarray
    stack_tape: _StackTape


def grad(theta: ParamSet, spec: ModelSpec, batch) -> Gradient:
    """Exact reverse-mode gradient of the pooled mean squared error over the batch.

    ``batch`` is one episode tuple, a sequence of episodes or a
    `CheckedSplit`, read by `_split_of`.  Its episodes run as one ragged
    pass, ordered by item count; every value is then added in episode
    order.  The returned Gradient carries the pass as its ``tape``, for
    `hvp` at the same point.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, batch)
    if not split:
        raise DataError("empty episode batch")
    plan = spec.plan
    order = np.argsort(split.lengths, kind="stable")
    stack = split.take(order).stack(plan)
    out = np.empty((len(order), theta.layout.size))
    failed, stack_losses, user_values, item_values, tape = _grad_pass(
        theta.flat, plan, stack, int(split.lengths.sum()), out)
    if failed:
        raise failed[min(failed, key=order.__getitem__)]
    losses = np.empty(len(order))
    losses[order] = stack_losses
    loss_value = 0.0
    for value in losses:
        loss_value = loss_value + value
    return Gradient.wrap(theta.layout, _pool(plan, order, stack, out, user_values, item_values),
                         float(loss_value), tape=_Tape(theta, spec, batch, order, tape))


def hvp(theta: ParamSet, spec: ModelSpec, batch, v,
        at: Union[Gradient, StackGradient, None] = None, out: Optional[np.ndarray] = None):
    """Exact Hessian-vector product H(theta) @ v for the pooled mean squared error.

    ``at`` is the Gradient that ``grad(theta, spec, batch)`` returned,
    for these same ``theta`` and ``batch`` objects; without it, `hvp` runs
    that `grad` first.  Or ``at`` is a StackGradient that `grad_stack`
    returned at ``theta.flat`` for the episodes in ``batch``, one per
    stacked episode; then ``v`` is an (E, size) array with one row per
    episode, and the result is too, each row the product for its episode
    alone, written into ``out`` (C-contiguous, like ``v``) when given.

    The R-op (Pearlmutter, 1994) differentiates the recorded passes along
    v and computes tangents only.  With rows z = a W^T + b and
    a' = relu(z) in the forward pass, and gradients gW = g^T a,
    gb = sum(g), g_in = g W in the backward pass (g is the layer's upstream
    gradient after its ReLU mask, and dg is masked alike):

        dz = da W^T + a dW^T + db,        da' = dz where z > 0,
        dgW = dg^T a + g^T da,  dgb = sum(dg),  dg_in = dg W + g dW,

    seeded with dz_out * 2 / n_items, the tangent of the mse gradient at the
    output.  The tangent of the gradient is exactly Hv; the Hessian is never
    formed.  Each tangent keeps the operand order of forward-over-reverse
    dual arithmetic, so its bits equal that formulation's.
    """
    plan = spec.plan
    if isinstance(at, StackGradient):
        if (at.tape.flat is not theta.flat or len(_split_of(spec, batch)) != len(at.rows)
                or np.shape(v) != at.rows.shape):
            raise ConfigError("a stacked hvp needs the StackGradient of grad_stack at this "
                              "theta, one episode and one row of v per slice")
        if out is None:
            out = np.empty(at.rows.shape)
        user_values, item_values = _hvp_pass(at.tape, v, plan, out)
        return _scatter_rows(out, at.tape.stack, user_values, item_values)
    theta._check_same_layout(v)
    if at is None:
        at = grad(theta, spec, batch)
    tape = at.tape if isinstance(at, Gradient) else None
    if (not isinstance(tape, _Tape) or tape.theta is not theta or tape.batch is not batch
            or tape.spec != spec):
        raise ConfigError("hvp needs the Gradient that grad returned for this same theta "
                          "object, batch object and spec")
    rows = np.empty((len(tape.order), theta.layout.size))
    user_values, item_values = _hvp_pass(tape.stack_tape, v.flat, plan, rows)
    return ParamSet.wrap(theta.layout, _pool(plan, tape.order, tape.stack_tape.stack, rows,
                                             user_values, item_values))
