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

Every pass runs on one padded block.  `CheckedSplit.stack` gathers every
episode's ids and targets from the columns by index into an (E, n) grid of
slots, n the longest episode's item count: an episode's rows fill its first
slots, and every slot after them repeats its last row, so gathers stay in
range and a padded slot is finite exactly when its episode is.  Each dense
layer is one ``(E, n, in) @ (in, out)`` matmul, or ``(E, n, in) @ (E, in,
out)`` when every episode has its own parameters (the adapted theta_i of an
inner step).  numpy's matmul loops over the leading axis and makes one BLAS
call per episode, all of one shape, and the row sums that fix bits (the
loss, the bias gradient) run over each episode's slots.  The first layer's
input is the user's embedding values followed by the item's, as in MeLU, so
it splits W into user and item columns and computes the user part once per
episode: ``z_r = i_r W_i^T + (u W_u^T + b)``.  Backward, the user columns'
weight gradient is the rank-one ``g_b^T u`` of the bias gradient g_b, and
the user's input gradient is ``g_b W_u``.  A padded slot's residual is
zero, so it seeds no gradient, and only real slots' item terms are
scattered.  So an episode's outputs depend only on its own rows and its
pass's padded row count: how a pass's episodes are ordered, and which
others share it, moves no bit, and a lone episode is a pass of one.  A
padded pass still rounds differently from an unpadded one: padding changes
the shape of every BLAS call, and with it how the sums round.
`ordered_passes` is the one cutter: it orders episodes by their row counts
and cuts them into passes of at most a given number, so a pass's episodes
have similar lengths and little padding.  The trainer's and evaluation's
passes and `predict_stacks`, which `predict`, `forward` and transfer's
per-epoch loss run through, all use it; `predict_stack` returns one (E, n)
array of padded predictions.

`grad_stack` runs a forward and a backward pass over a stack and returns one
gradient row per episode, each normalized by its own item count, written
into a caller's buffer when given; the input gradient goes back to the
embedding values as one add at the user positions and one ``np.add.at`` at
the real item positions, which adds repeated items in row order.  An
episode whose forward pass goes non-finite stays in its stack, without a
numpy warning, and is reported with the error a one-episode pass would
raise.  `grad` pools a batch: it runs its episodes as one padded pass and
adds every episode's terms onto one vector in episode order.  The pass is
kept as a tape, and `hvp` pushes a tangent v through it without recomputing
it (the R-op of Pearlmutter, 1994), which gives an exact Hessian-vector
product; given `grad_stack`'s StackGradient it pushes one tangent row per
episode.

Every call that takes a ParamSet checks its layout against the spec (one
comparison of layout keys); `hvp` given a tape relies on the check its
`grad` made on the same theta, and `grad_stack` and `predict_stack`, which
take flat vectors, on their caller's.

Everything is float64 and deterministic given the seed.
"""

from __future__ import annotations

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


def expected_entry_shapes(spec: ModelSpec):
    shapes = {}
    for i, vocab in enumerate(spec.user_vocab_sizes):
        shapes[f"emb_user_{i}"] = (vocab, spec.embedding_dim)
    for j, vocab in enumerate(spec.item_vocab_sizes):
        shapes[f"emb_item_{j}"] = (vocab, spec.embedding_dim)
    shapes.update(dense_stack_shapes(spec.fused_width, spec.decision_dims, "dec"))
    return shapes


def _check_theta(theta: ParamSet, spec: ModelSpec) -> None:
    layout = theta.layout
    if layout.key == spec.layout_key:
        return
    names, shapes = spec.layout_key
    if layout.names != names:
        raise ConfigError(
            f"parameter layout {layout.names} does not match the model spec (expected {names})")
    for name, shape, needed in zip(names, layout.shapes, shapes):
        if shape != needed:
            raise ConfigError(f"parameter '{name}' has shape {shape}, model spec needs {needed}")


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
    copying rows, and `stack` gathers the split's rows into a padded
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
        """Every episode's rows as one `EpisodeStack`, padded to the longest
        episode, one slice per episode in split order."""
        lengths = self.lengths
        slots = np.arange(lengths.max(initial=0))
        rows = self.starts[:, None] + np.minimum(slots, lengths[:, None] - 1)
        item_index = plan.positions[self.items[rows] + plan.item_rows]
        return EpisodeStack(_user_index(self.users, plan),
                            item_index.reshape(rows.shape + (-1,)), self.targets[rows],
                            slots < lengths[:, None], lengths)


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
    and equal keys keep their order, so each pass holds episodes of similar
    lengths and its padded stacks add few slots.
    """
    order = np.lexsort(lengths).tolist()
    return [order[start:start + limit] for start in range(0, len(order), limit)]


class EpisodeStack(NamedTuple):
    """Episodes' rows in one block, each episode padded to the longest.

    ``user_index`` (E, user_width) holds the flat positions of each
    episode's user embedding values, ``item_index`` (E, n, n_item_features
    * embedding_dim) those of each slot's item values, and ``targets``
    (E, n) each slot's target, where n is the longest episode's item count.
    ``lengths`` (E,) counts each episode's rows: they fill its first slots,
    marked True in ``real`` (E, n), and every slot after them repeats its
    last row's ids and target, so a padded slot's values are finite
    exactly when the episode's are.
    """

    user_index: np.ndarray
    item_index: np.ndarray
    targets: np.ndarray
    real: np.ndarray
    lengths: np.ndarray


def _gather(flat: np.ndarray, stack: EpisodeStack):
    """Each episode's user values (E, 1, user_width) and each slot's item
    values (E, n, item_width), from one shared vector or from each
    episode's own (E, size) row."""
    if flat.ndim == 1:
        return flat[stack.user_index][:, None], flat[stack.item_index]
    episodes = np.arange(len(flat))[:, None]
    return (flat[episodes, stack.user_index][:, None],
            flat[episodes[:, None], stack.item_index])


def _counts(stack: EpisodeStack, total_items: Optional[int]) -> np.ndarray:
    """The item count each episode's loss is averaged over, (E,): its own,
    or ``total_items`` for every episode of a pooled pass."""
    if total_items is None:
        return stack.lengths
    return np.full(len(stack.lengths), total_items)


# ---------------------------------------------------------------------------
# forward


def _forward_stack(flat, weights, plan: FlatPlan, stack: EpisodeStack):
    """Forward pass of every episode of ``stack`` at once.

    ``flat`` is one parameter vector shared by every episode or an (E,
    size) stack with one row per episode, and ``weights`` its `dense_views`.
    Every layer is one ``(E, n, in) @ (in, out)`` matmul, or ``(E, n, in) @
    (E, in, out)`` with per-episode rows, plus the bias, and the first
    layer adds each episode's user part, ``u W_u^T + b`` computed once per
    episode, to its items' ``i W_i^T``.  Returns (output, user, acts,
    preacts, failed): ``user`` holds the (E, 1, user_width) user values,
    ``acts`` the input of every decision layer, the item values first,
    ``preacts`` every layer's pre-activation, all (E, n, width), and
    ``failed`` maps the position of each episode whose pre-activations went
    non-finite to the error naming the first layer where they did.
    """
    uw = plan.user_width
    user, a = _gather(flat, stack)
    acts = [a]
    preacts = []
    failed = {}
    last = len(weights) - 1
    with np.errstate(invalid="ignore", over="ignore"):
        for layer, (w, b) in enumerate(weights):
            w_t = w.swapaxes(-1, -2)
            if layer:
                z = a @ w_t
                z += b
            else:
                z_user = user @ w_t[..., :uw, :]
                z_user += b
                z = a @ w_t[..., uw:, :]
                z += z_user
            finite = np.isfinite(z)
            if not np.logical_and.reduce(finite, None):
                for position in np.flatnonzero(~finite.all(axis=(1, 2))).tolist():
                    failed.setdefault(position, NumericError(
                        f"non-finite values in decision layer {layer}"))
            preacts.append(z)
            if layer < last:
                a = np.maximum(z, 0.0)
                acts.append(a)
    return preacts[-1], user, acts, preacts, failed


def forward(theta: ParamSet, spec: ModelSpec, user_ids, items):
    """Predictions, one unbounded rating per item, plus the user embedding
    vector h (decision input side)."""
    _check_theta(theta, spec)
    split = check_episodes(spec, [(user_ids, items, None)])
    return (predict_stacks(theta, spec, split, 1)[0][1][0],
            theta.flat[_user_index(split.users[0], spec.plan)])


def predict_stack(flat: np.ndarray, spec: ModelSpec, stack: EpisodeStack):
    """Predictions for every slot of ``stack``, at one shared parameter
    vector or at one row of an (E, size) stack per episode: an (E, n) array
    whose row e begins with episode e's ``lengths[e]`` predictions, plus
    the ``failed`` map of `_forward_stack` (those episodes' rows are not
    finite)."""
    z_out, *_, failed = _forward_stack(flat, dense_views(flat, spec.plan.layers), spec.plan,
                                       stack)
    return z_out[..., 0], failed


def predict_stacks(theta: ParamSet, spec: ModelSpec, episodes, limit: int) -> list:
    """`predict` for every episode, through passes of at most ``limit``
    episodes ordered by item count (`ordered_passes`): one ``(positions,
    predictions, targets, lengths)`` per pass, its (E, n) padded rows in
    the order of ``positions``.

    ``episodes`` is one episode tuple, a `CheckedSplit` checked for
    ``spec``, or any episodes, checked into a split first (`_split_of`).  A
    non-finite forward pass raises the error of the first such episode.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, episodes)
    passes, errors = [], {}
    for positions in ordered_passes(limit, split.lengths):
        stack = split.take(positions).stack(spec.plan)
        predictions, failed = predict_stack(theta.flat, spec, stack)
        for k, exc in failed.items():
            errors[positions[k]] = exc
        passes.append((positions, predictions, stack.targets, stack.lengths))
    if errors:
        raise errors[min(errors)]
    return passes


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
    one row per episode) and their `dense_views`; ``user`` holds each
    episode's (E, 1, user_width) user values, ``acts`` the input of every
    decision layer, ``masks`` the ReLU masks ``z > 0`` of the hidden layers,
    and ``gas`` the upstream gradient of every layer after its mask, all
    (E, n, width) over the slots of ``stack``.  ``user_grad`` is a copy of
    the first layer's (E, 1, width) bias gradient, each episode's sum of
    that layer's upstream gradient over its slots.  ``total_items`` is the
    item count every loss is averaged over, or None when each episode's is
    its own.  Everything else is held by reference; nothing is copied.
    """

    flat: np.ndarray
    weights: list
    stack: EpisodeStack
    user: np.ndarray
    acts: list
    masks: list
    gas: list
    user_grad: np.ndarray
    total_items: Optional[int]


class StackGradient(NamedTuple):
    """Per-episode gradients of an `EpisodeStack`, each the gradient of its
    episode alone at the stack's padded length.

    ``rows`` (one gradient per episode), ``losses`` and ``tape`` cover every
    episode.  ``failed`` maps the position of each episode whose forward
    pass went non-finite to its error; such an episode stays in the stack,
    and its row and loss are whatever the pass computed.
    """

    failed: dict
    rows: np.ndarray
    losses: np.ndarray
    tape: _StackTape


def _outer_sums(lefts, rights, out: np.ndarray) -> np.ndarray:
    """``sum_k lefts[k]^T rights[k]`` per episode, of (E, 1, width) rows,
    into ``out``: one (out, 2) @ (2, in) BLAS product per episode.  numpy
    hands a one-term (out, 1) @ (1, in) product to a slower loop of its own,
    so a rank-one product takes a zero second term.  A BLAS product sums
    from +0.0, so no entry is -0.0."""
    return np.matmul(np.concatenate(lefts, axis=1).swapaxes(-1, -2),
                     np.concatenate(rights, axis=1), out=out)


def _grad_pass(flat, plan: FlatPlan, stack: EpisodeStack, total_items: Optional[int],
               out: np.ndarray):
    """Forward and backward pass of every episode of ``stack`` at once.

    Each loss is averaged over ``total_items``, or over the episode's own
    item count when that is None; the residual of a padded slot is zero, so
    it seeds no gradient.  Every layer's weight gradient is one ``(E, out,
    n) @ (E, n, in)`` matmul and its bias gradient one sum over each
    episode's slots; the first layer's user columns get the rank-one
    product of that sum and the episode's user values.  An episode whose
    forward pass goes non-finite stays in the stack: the backward pass runs
    with numpy's overflow and invalid warnings off, and since every episode
    is its own BLAS call, its values touch no other episode.  ``out`` (E,
    size) receives one row per episode: the gradient of its decision layers
    and zeros at the embedding values, whose gradient terms come back
    unscattered, as each episode's user term (E, user_width) and its
    per-slot item terms (E, n, item_width).  Returns (failed, losses,
    user_values, item_values, tape).
    """
    weights = dense_views(flat, plan.layers)
    z_out, user, acts, preacts, failed = _forward_stack(flat, weights, plan, stack)
    uw = plan.user_width
    last = len(weights) - 1
    gas = [None] * len(weights)
    out[:, :plan.layers[0][0].start] = 0.0
    grads = dense_views(out, plan.layers)
    masks = [z > 0.0 for z in preacts[:-1]]
    counts = _counts(stack, total_items)
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.where(stack.real, z_out[..., 0] - stack.targets, 0.0)
        losses = np.add.reduce(r * r, 1) / counts
        ga = (r * (2.0 / counts)[:, None])[..., None]
        for layer in range(last, -1, -1):  # ends at layer 0, its names still bound
            if layer < last:
                ga = ga * masks[layer]
            gas[layer] = ga
            g_w, g_b = grads[layer]
            np.add.reduce(ga, 1, keepdims=True, out=g_b)
            g_b += 0.0  # as zeros plus the sum, so a -0.0 sum gives +0.0
            if layer:
                # a BLAS product sums from +0.0, so it is never -0.0, and
                # writing it into the zeroed row has the bits of adding it
                np.matmul(ga.swapaxes(-1, -2), acts[layer], out=g_w)
                ga = ga @ weights[layer][0]
        w = weights[0][0]
        np.matmul(ga.swapaxes(-1, -2), acts[0], out=g_w[..., uw:])
        _outer_sums((g_b, np.zeros_like(g_b)), (user, np.zeros_like(user)), g_w[..., :uw])
        user_values = (g_b @ w[..., :uw])[:, 0]
        item_values = ga @ w[..., uw:]
    tape = _StackTape(flat, weights, stack, user, acts, masks, gas, g_b.copy(), total_items)
    return failed, losses, user_values, item_values, tape


def _hvp_pass(tape: _StackTape, v: np.ndarray, plan: FlatPlan, out: np.ndarray):
    """The R-op of ``tape``'s passes along ``v`` (shared, or one row per episode).

    Writes one row per episode into ``out`` and returns (user_values,
    item_values), laid out as `_grad_pass` returns the gradient; the
    equations are in `hvp`.
    """
    uw = plan.user_width
    weights, stack, acts, masks, gas = tape.weights, tape.stack, tape.acts, tape.masks, tape.gas
    v_weights = dense_views(v, plan.layers)
    user_t, a_t = _gather(v, stack)
    acts_t = [a_t]
    last = len(weights) - 1
    for layer, ((w, _), (v_w, v_b)) in enumerate(zip(weights, v_weights)):
        w_t, v_w_t = w.swapaxes(-1, -2), v_w.swapaxes(-1, -2)
        if layer:
            z_t = a_t @ w_t
            z_t += acts[layer] @ v_w_t
            z_t += v_b
        else:
            z_user = user_t @ w_t[..., :uw, :]
            z_user += tape.user @ v_w_t[..., :uw, :]
            z_user += v_b
            z_t = a_t @ w_t[..., uw:, :]
            z_t += acts[0] @ v_w_t[..., uw:, :]
            z_t += z_user
        if layer < last:
            a_t = np.where(masks[layer], z_t, 0.0)
            acts_t.append(a_t)

    counts = _counts(stack, tape.total_items)
    ga_t = (np.where(stack.real, z_t[..., 0], 0.0) * (2.0 / counts)[:, None])[..., None]
    out[:, :plan.layers[0][0].start] = 0.0
    grads = dense_views(out, plan.layers)
    for layer in range(last, -1, -1):  # ends at layer 0, its names still bound
        if layer < last:
            ga_t = ga_t * masks[layer]
        ga = gas[layer]
        g_w, g_b = grads[layer]
        np.add.reduce(ga_t, 1, keepdims=True, out=g_b)
        g_b += 0.0
        if layer:
            np.add(ga_t.swapaxes(-1, -2) @ acts[layer], ga.swapaxes(-1, -2) @ acts_t[layer],
                   out=g_w)
            ga_t = ga_t @ weights[layer][0] + ga @ v_weights[layer][0]
    w, v_w, g_user = weights[0][0], v_weights[0][0], tape.user_grad
    np.add(ga_t.swapaxes(-1, -2) @ acts[0], ga.swapaxes(-1, -2) @ acts_t[0], out=g_w[..., uw:])
    _outer_sums((g_b, g_user), (tape.user, user_t), g_w[..., :uw])
    return ((g_b @ w[..., :uw] + g_user @ v_w[..., :uw])[:, 0],
            ga_t @ w[..., uw:] + ga @ v_w[..., uw:])


def _scatter_rows(out, stack: EpisodeStack, user_values, item_values) -> np.ndarray:
    """Add each episode's embedding terms into its own row of ``out``.

    The user positions are distinct within an episode, and ``np.add.at``
    adds the item terms of real slots only, in row order; raveled, it takes
    numpy's one-dimensional fast path in that order.
    """
    n_rows, size = out.shape
    episodes = np.arange(n_rows)
    out[episodes[:, None], stack.user_index] += user_values
    item_positions = (stack.item_index[stack.real]
                      + (episodes * size).repeat(stack.lengths)[:, None])
    np.add.at(out.reshape(-1), item_positions.ravel(), item_values[stack.real].ravel())
    return out


def _pool(plan: FlatPlan, stack: EpisodeStack, out, user_values, item_values) -> np.ndarray:
    """One vector from a pass's unscattered terms, added in episode order.

    The dense rows are summed down the rows, and one ``np.add.at`` adds
    each episode's user then real item terms, as a one-at-a-time pass
    would.
    """
    n_episodes = len(stack.lengths)
    real = np.concatenate((np.ones(stack.user_index.shape, dtype=bool),
                           stack.real.repeat(item_values.shape[-1], axis=1)), axis=1)
    index = np.concatenate((stack.user_index, stack.item_index.reshape(n_episodes, -1)), axis=1)
    values = np.concatenate((user_values, item_values.reshape(n_episodes, -1)), axis=1)
    start = plan.layers[0][0].start
    flat = np.zeros(out.shape[1])
    flat[start:] += np.add.accumulate(out[:, start:])[-1]
    np.add.at(flat, index[real], values[real])
    return flat


def grad_stack(flat: np.ndarray, spec: ModelSpec, stack: EpisodeStack,
               out: Optional[np.ndarray] = None) -> StackGradient:
    """The gradient of each episode of ``stack`` alone, every episode at once.

    ``flat`` is one parameter vector for every episode or an (E, size)
    stack with one row per episode; the caller has checked its layout.  The
    rows are written into ``out``, a C-contiguous (E, size) array, when
    given, else into a new stack.  An episode's row and loss depend only on
    its own rows and the stack's padded length: the order of the stack's
    episodes, and which other episodes share it, move no bit.  Every
    episode keeps its row, loss and tape, a failed one included, and none
    raises a numpy warning.
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
    pass's tape."""

    theta: ParamSet
    spec: ModelSpec
    batch: object
    stack_tape: _StackTape


def grad(theta: ParamSet, spec: ModelSpec, batch) -> Gradient:
    """Exact reverse-mode gradient of the pooled mean squared error over the batch.

    ``batch`` is one episode tuple, a sequence of episodes or a
    `CheckedSplit`, read by `_split_of`.  Its episodes run as one padded
    pass; every value is then added in episode order.  The returned
    Gradient carries the pass as its ``tape``, for `hvp` at the same point.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, batch)
    if not split:
        raise DataError("empty episode batch")
    plan = spec.plan
    stack = split.stack(plan)
    out = np.empty((len(split), theta.layout.size))
    failed, losses, user_values, item_values, tape = _grad_pass(
        theta.flat, plan, stack, int(split.lengths.sum()), out)
    if failed:
        raise failed[min(failed)]
    loss_value = 0.0
    for value in losses:
        loss_value = loss_value + value
    return Gradient.wrap(theta.layout, _pool(plan, stack, out, user_values, item_values),
                         float(loss_value), tape=_Tape(theta, spec, batch, tape))


def hvp(theta: ParamSet, spec: ModelSpec, batch, v,
        at: Union[Gradient, StackGradient, None] = None, out: Optional[np.ndarray] = None):
    """Exact Hessian-vector product H(theta) @ v for the pooled mean squared error.

    ``at`` is the Gradient that ``grad(theta, spec, batch)`` returned,
    for these same ``theta`` and ``batch`` objects; without it, `hvp` runs
    that `grad` first.  Or ``at`` is a StackGradient that `grad_stack`
    returned at ``theta.flat`` for the episodes in ``batch``, one per
    stacked episode; then ``v`` is an (E, size) array with one row per
    episode, and the result is too, each row the product for its episode
    alone at the stack's padded length, written into ``out`` (C-contiguous,
    like ``v``) when given.

    The R-op (Pearlmutter, 1994) differentiates the recorded passes along
    v and computes tangents only.  With rows z = a W^T + b and
    a' = relu(z) in the forward pass, and gradients gW = g^T a,
    gb = sum(g), g_in = g W in the backward pass (g is the layer's upstream
    gradient after its ReLU mask, and dg is masked alike):

        dz = da W^T + a dW^T + db,        da' = dz where z > 0,
        dgW = dg^T a + g^T da,  dgb = sum(dg),  dg_in = dg W + g dW,

    seeded with dz_out * 2 / n_items on real slots and zero on padded ones,
    the tangent of the mse gradient at the output.  The first layer splits
    W into its user and item columns, W_u and W_i, as the forward pass
    does: with u an episode's user values and g_b its bias gradient,
    dz_u = du W_u^T + u dW_u^T + db once per episode,
    dgW_u = dg_b^T u + g_b^T du, and the user term's tangent is
    dg_b W_u + g_b dW_u.  The tangent of the gradient is exactly Hv; the
    Hessian is never formed.
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
    stack = tape.stack_tape.stack
    rows = np.empty((len(stack.lengths), theta.layout.size))
    user_values, item_values = _hvp_pass(tape.stack_tape, v.flat, plan, rows)
    return ParamSet.wrap(theta.layout, _pool(plan, stack, rows, user_values, item_values))
