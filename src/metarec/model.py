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

Every pass runs on a stack.  Episodes with equal item counts form a shape
group (`shape_groups`, in first-appearance order), and `CheckedSplit.stack`
gathers a group's ids and targets from the columns by index, with a leading
axis, one slice per episode.  Each dense layer is then one ``(B, n, in) @
(in, out)`` matmul, or ``(B, n, in) @ (B, in, out)`` when every slice has its
own parameters (the adapted theta_i of an inner step).  numpy's matmul
loops over the leading axis and makes, for each slice, the same BLAS call a
lone episode's 2-D matmul makes, and reductions run over the row axis of
each slice in the same order; so every slice gets the bits of a one-episode
pass, and a lone episode is a stack of one.  Ragged episodes are never
padded to share a stack: zero rows change the BLAS call's shape and, with
it, how the sums round.  One stack of 2-D rows would too (a single ``(B n,
in)`` matmul blocks its sums differently).

`grad_stack` runs a forward and a backward pass over a stack and returns one
gradient row per episode, each normalized by its own item count; the input
gradient goes back to the embedding values as one add at the user positions
and one ``np.add.at`` at the item positions, which adds repeated items in
row order.  A slice whose forward pass goes non-finite stays in its stack,
without a numpy warning, and is reported with the error a one-episode pass
would raise.  `grad` pools a batch: it runs each shape group as a stack and
adds every episode's terms onto one vector in episode order, as a pass over
the episodes one at a time would.  The passes are kept as a tape, and `hvp`
pushes a tangent v through them without recomputing them (the R-op of
Pearlmutter, 1994), which gives an exact Hessian-vector product; given
`grad_stack`'s StackGradient it pushes one tangent row per slice.

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
    "shape_groups",
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
        """Every episode, all of one item count, stacked along a leading axis."""
        lengths = self.lengths.tolist()
        n_items = lengths[0]
        if lengths.count(n_items) != len(lengths):
            raise DataError("a stack needs episodes with equal item counts")
        rows = self.starts[:, None] + np.arange(n_items)
        items = self.items[rows]
        return EpisodeStack(
            _user_index(self.users, plan),
            plan.positions[items + plan.item_rows].reshape(items.shape[:-1] + (-1,)),
            self.targets[rows])


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


def shape_groups(keys, limit: Optional[int] = None) -> List[List[int]]:
    """Positions of equal ``keys``, one list per distinct key.

    Groups come in the order their keys first appear, positions in order
    within each; with ``limit`` a group is cut into runs of at most that
    many.  Keys that are all equal, the usual case in evaluation, take no
    step per position.
    """
    keys = list(keys)
    if keys and keys.count(keys[0]) == len(keys):
        groups = [list(range(len(keys)))]
    else:
        found = {}
        for position, key in enumerate(keys):
            found.setdefault(key, []).append(position)
        groups = list(found.values())
    if limit is None:
        return groups
    return [group[start:start + limit] for group in groups
            for start in range(0, len(group), limit)]


class EpisodeStack(NamedTuple):
    """Episodes of one shape stacked along a leading axis, one slice each.

    ``user_index`` (B, user_width) and ``item_index`` (B, n_items,
    n_item_features * embedding_dim) hold the flat positions of each slice's
    embedding values, ``targets`` (B, n_items) its targets.
    """

    user_index: np.ndarray
    item_index: np.ndarray
    targets: np.ndarray


def _gather(flat: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``flat[index]`` from one shared vector, or row by row from a (B, size)
    stack of them, where ``index`` has one leading slice per row."""
    if flat.ndim == 1:
        return flat[index]
    rows = np.arange(flat.shape[0]).reshape((-1,) + (1,) * (index.ndim - 1))
    return flat[rows, index]


# ---------------------------------------------------------------------------
# forward


def _forward_stack(flat, weights, plan: FlatPlan, stack: EpisodeStack):
    """Forward pass of every slice of ``stack`` at once.

    ``flat`` is one parameter vector shared by every slice or a (B, size)
    stack with one row per slice, and ``weights`` its `dense_views`.
    Returns (output, acts, preacts, failed): ``acts`` holds the input of
    every decision layer, the fused embedding rows first, ``preacts`` every
    layer's pre-activation, and ``failed`` maps the position of each slice
    whose pre-activations went non-finite to the error naming the first
    layer where they did.
    """
    uw = plan.user_width
    n_stack, n_items, item_width = stack.item_index.shape
    x = np.empty((n_stack, n_items, uw + item_width))
    x[:, :, :uw] = _gather(flat, stack.user_index)[:, None, :]
    x[:, :, uw:] = _gather(flat, stack.item_index)

    acts = [x]
    preacts = []
    failed = {}
    a = x
    last = len(weights) - 1
    with np.errstate(invalid="ignore", over="ignore"):
        for layer, (w, b) in enumerate(weights):
            z = a @ w.swapaxes(-1, -2) + b
            finite = np.isfinite(z)
            if not np.logical_and.reduce(finite, None):
                for position in np.flatnonzero(~finite.all(axis=(1, 2))).tolist():
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
    """Predictions (B, n_items) for every slice of ``stack``, at one shared
    parameter vector or at one row of a (B, size) stack per slice, plus the
    ``failed`` map of `_forward_stack` (those slices' rows are not finite)."""
    z_out, _, _, failed = _forward_stack(flat, dense_views(flat, spec.plan.layers), spec.plan,
                                         stack)
    return z_out[:, :, 0], failed


def predict_stacks(theta: ParamSet, spec: ModelSpec, episodes, limit: int) -> list:
    """`predict` for every episode through stacks of at most ``limit``
    episodes with equal item counts: one ``(positions, predictions,
    targets)`` per stack, its rows in the order of ``positions``.

    ``episodes`` is one episode tuple, a `CheckedSplit` checked for
    ``spec``, or any episodes, checked into a split first (`_split_of`).  A
    non-finite forward pass raises the error of the first such episode.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, episodes)
    stacks = []
    errors = {}
    for group in shape_groups(split.lengths.tolist(), limit):
        stack = split.take(group).stack(spec.plan)
        rows, failed = predict_stack(theta.flat, spec, stack)
        for position, exc in failed.items():
            errors[group[position]] = exc
        stacks.append((group, rows, stack.targets))
    if errors:
        raise errors[min(errors)]
    return stacks


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
    one row per slice) and their `dense_views`; ``acts`` holds the input of
    every decision layer, ``masks`` the ReLU masks ``z > 0`` of the hidden
    layers, and ``gas`` the upstream gradient of every layer after its mask,
    each with one leading slice per episode of ``stack``.  ``total_items``
    is the item count the loss is averaged over.  Everything is held by
    reference; nothing is copied.
    """

    flat: np.ndarray
    weights: list
    stack: EpisodeStack
    acts: list
    masks: list
    gas: list
    total_items: int


class StackGradient(NamedTuple):
    """Per-slice gradients of an `EpisodeStack`, each the `grad` of its episode alone.

    ``rows`` (one gradient per slice), ``losses`` and ``tape`` cover every
    slice.  ``failed`` maps the position of each slice whose forward pass
    went non-finite to its error; such a slice stays in the stack, and its
    row and loss are whatever the pass computed.
    """

    failed: dict
    rows: np.ndarray
    losses: np.ndarray
    tape: _StackTape


def _grad_pass(flat, plan: FlatPlan, stack: EpisodeStack, total_items: int):
    """Forward and backward pass of every slice of ``stack`` at once.

    A slice whose forward pass goes non-finite stays in the stack: the
    backward pass runs with numpy's overflow and invalid warnings off, and
    since every slice is its own BLAS call, its values touch no other
    slice.  Returns (failed, out, losses, user_values, item_values, tape):
    one row of ``out`` per slice holds the gradient of its decision layers
    and zeros at the embedding values, whose gradient terms come back
    unscattered, as each slice's per-feature user sum (B, user_width) and
    its per-item rows (B, n_items, item_width).
    """
    weights = dense_views(flat, plan.layers)
    _, acts, preacts, failed = _forward_stack(flat, weights, plan, stack)
    uw = plan.user_width
    n_layers = len(weights)
    gas = [None] * n_layers
    out = np.zeros((len(stack.targets), flat.shape[-1]))
    grads = dense_views(out, plan.layers)
    masks = [z > 0.0 for z in preacts[:-1]]
    with np.errstate(invalid="ignore", over="ignore"):
        r = preacts[-1][:, :, 0] - stack.targets
        losses = np.add.reduce(r * r, 1) / total_items
        ga = (r * (2.0 / total_items))[:, :, None]
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga = ga * masks[layer]
            gas[layer] = ga
            g_w, g_b = grads[layer]
            g_w += ga.swapaxes(-1, -2) @ acts[layer]
            g_b += np.add.reduce(ga, 1, keepdims=True)
            ga = ga @ weights[layer][0]
        user_values = np.add.reduce(ga[:, :, :uw], 1)
    tape = _StackTape(flat, weights, stack, acts, masks, gas, total_items)
    return failed, out, losses, user_values, ga[:, :, uw:], tape


def _hvp_pass(tape: _StackTape, v: np.ndarray, plan: FlatPlan):
    """The R-op of ``tape``'s passes along ``v`` (shared, or one row per slice).

    Returns (out, user_values, item_values) laid out as `_grad_pass`
    returns the gradient; the equations are in `hvp`.
    """
    uw = plan.user_width
    weights, stack, acts, masks, gas = tape.weights, tape.stack, tape.acts, tape.masks, tape.gas
    v_weights = dense_views(v, plan.layers)
    x_t = np.empty(acts[0].shape)
    x_t[:, :, :uw] = _gather(v, stack.user_index)[:, None, :]
    x_t[:, :, uw:] = _gather(v, stack.item_index)
    acts_t = [x_t]
    n_layers = len(weights)
    for layer in range(n_layers):
        v_w, v_b = v_weights[layer]
        z_t = (acts_t[layer] @ weights[layer][0].swapaxes(-1, -2)
               + acts[layer] @ v_w.swapaxes(-1, -2)) + v_b
        if layer < n_layers - 1:
            acts_t.append(np.where(masks[layer], z_t, 0.0))

    ga_t = (z_t[:, :, 0] * (2.0 / tape.total_items))[:, :, None]
    out = np.zeros((len(stack.targets), v.shape[-1]))
    grads = dense_views(out, plan.layers)
    for layer in range(n_layers - 1, -1, -1):
        if layer < n_layers - 1:
            ga_t = ga_t * masks[layer]
        ga = gas[layer]
        g_w, g_b = grads[layer]
        g_w += ga_t.swapaxes(-1, -2) @ acts[layer] + ga.swapaxes(-1, -2) @ acts_t[layer]
        g_b += np.add.reduce(ga_t, 1, keepdims=True)
        ga_t = ga_t @ weights[layer][0] + ga @ v_weights[layer][0]
    return out, np.add.reduce(ga_t[:, :, :uw], 1), ga_t[:, :, uw:]


def _scatter_rows(out, stack: EpisodeStack, user_values, item_values) -> np.ndarray:
    """Add each slice's embedding terms into its own row of ``out``.

    The user positions are distinct within a slice, and ``np.add.at`` adds
    item rows in order; raveled, it takes numpy's one-dimensional fast path
    in that order, so every row gets the bits of a one-episode pass.
    """
    n_rows, size = out.shape
    rows = np.arange(n_rows)
    out[rows[:, None], stack.user_index] += user_values
    np.add.at(out.reshape(-1), (stack.item_index + (rows * size)[:, None, None]).ravel(),
              item_values.ravel())
    return out


def _pool(plan: FlatPlan, size: int, groups) -> np.ndarray:
    """One vector from the unscattered terms of shape groups, added in episode order.

    ``groups`` holds one ``(positions, stack, out, user_values, item_values)``
    per group, ``positions`` saying where each slice's episode sits in the
    batch.  The dense rows, laid out in episode order, are summed down the
    rows, and one ``np.add.at`` adds each episode's user then item terms in
    episode order, as a one-at-a-time pass would, so pooling keeps its bits.
    """
    widths = np.zeros(sum(len(group[0]) for group in groups), dtype=np.int64)
    for positions, stack, *_ in groups:
        widths[positions] = stack.user_index.shape[1] + stack.item_index[0].size
    offsets = np.cumsum(widths) - widths
    start = plan.layers[0][0].start
    dense = np.empty((len(widths), size - start))
    index, values = np.empty(widths.sum(), dtype=np.int64), np.empty(widths.sum())
    for positions, stack, out, user_values, item_values in groups:
        n = len(positions)
        dense[positions] = out[:, start:]
        at = offsets[positions][:, None] + np.arange(widths[positions[0]])
        index[at] = np.concatenate((stack.user_index, stack.item_index.reshape(n, -1)), axis=1)
        values[at] = np.concatenate((user_values, item_values.reshape(n, -1)), axis=1)
    flat = np.zeros(size)
    flat[start:] += np.add.accumulate(dense)[-1]
    np.add.at(flat, index, values)
    return flat


def grad_stack(flat: np.ndarray, spec: ModelSpec, stack: EpisodeStack) -> StackGradient:
    """`grad` of each slice's episode alone, every slice at once.

    ``flat`` is one parameter vector for every slice or a (B, size) stack
    with one row per slice; the caller has checked its layout.  Every slice
    keeps its row, loss and tape, a failed one included, and none raises a
    numpy warning.
    """
    failed, out, losses, user_values, item_values, tape = _grad_pass(
        flat, spec.plan, stack, stack.targets.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        rows = _scatter_rows(out, stack, user_values, item_values)
    return StackGradient(failed, rows, losses, tape)


class _Tape(NamedTuple):
    """What `grad` computed at ``(theta, batch)``, kept for `hvp`: one
    ``(positions, _StackTape)`` pair per shape group of the batch."""

    theta: ParamSet
    spec: ModelSpec
    batch: object
    groups: list


def grad(theta: ParamSet, spec: ModelSpec, batch) -> Gradient:
    """Exact reverse-mode gradient of the pooled mean squared error over the batch.

    ``batch`` is one episode tuple, a sequence of episodes or a
    `CheckedSplit`, read by `_split_of`.  Episodes with equal item counts
    run as one stack; every value is then
    added in episode order.  The returned Gradient carries the passes as
    its ``tape``, for `hvp` at the same point.
    """
    _check_theta(theta, spec)
    split = _split_of(spec, batch)
    if not split:
        raise DataError("empty episode batch")
    lengths = split.lengths.tolist()
    total_items = sum(lengths)
    plan = spec.plan
    losses = [None] * len(split)
    groups, tapes = [], []
    errors = {}
    for group in shape_groups(lengths):
        failed, out, group_losses, user_values, item_values, tape = _grad_pass(
            theta.flat, plan, split.take(group).stack(plan), total_items)
        for position, exc in failed.items():
            errors[group[position]] = exc
        groups.append((group, tape.stack, out, user_values, item_values))
        tapes.append((group, tape))
        for position, i in enumerate(group):
            losses[i] = group_losses[position]
    if errors:
        raise errors[min(errors)]
    loss_value = 0.0
    for value in losses:
        loss_value = loss_value + value
    return Gradient.wrap(theta.layout, _pool(plan, theta.layout.size, groups), float(loss_value),
                         tape=_Tape(theta, spec, batch, tapes))


def hvp(theta: ParamSet, spec: ModelSpec, batch, v,
        at: Union[Gradient, StackGradient, None] = None):
    """Exact Hessian-vector product H(theta) @ v for the pooled mean squared error.

    ``at`` is the Gradient that ``grad(theta, spec, batch)`` returned,
    for these same ``theta`` and ``batch`` objects; without it, `hvp` runs
    that `grad` first.  Or ``at`` is a StackGradient that `grad_stack`
    returned at ``theta.flat`` for the episodes in ``batch``, one per
    slice; then ``v`` is a (B, size) array with one row per slice, and the
    result is too, each row the product for its episode alone.

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
        out, user_values, item_values = _hvp_pass(at.tape, v, plan)
        return _scatter_rows(out, at.tape.stack, user_values, item_values)
    theta._check_same_layout(v)
    if at is None:
        at = grad(theta, spec, batch)
    tape = at.tape if isinstance(at, Gradient) else None
    if (not isinstance(tape, _Tape) or tape.theta is not theta or tape.batch is not batch
            or tape.spec != spec):
        raise ConfigError("hvp needs the Gradient that grad returned for this same theta "
                          "object, batch object and spec")
    groups = [(group, stack_tape.stack) + _hvp_pass(stack_tape, v.flat, plan)
              for group, stack_tape in tape.groups]
    return ParamSet.wrap(theta.layout, _pool(plan, theta.layout.size, groups))
