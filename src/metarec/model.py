"""Differentiable model core: embeddings + ReLU MLP, exact grad and HVP.

The architecture is fixed (per-feature embedding tables, a dense ReLU stack,
one linear rating output trained on mean squared error), so reverse-mode
differentiation is written out explicitly instead of pulling in an autodiff
framework.

Parameters are addressed by flat offset.  A spec's layout puts every
embedding table first, one row of ``embedding_dim`` values per id, then each
dense layer's weight and bias.  `ModelSpec.plan` derives from the layout,
once per spec, the row each table starts at, the flat position of every
embedding value, and the slice and shape of each layer; a weight is read as
``flat[slice].reshape(shape)``, a bias as ``flat[slice]``.

Episodes are checked once per split.  `check_episodes` copies a split's ids
and targets into one set of read-only columns, range-checks every id there
with one array comparison per side (user, item), and returns one
`CheckedEpisode` per episode, a row view of those columns.  `check_episode`
is that routine on a one-episode split.  `grad`, `hvp` and `predict` send
any other episode, a plain tuple included, through it before use; `forward`
and `user_embedding` check their ids on every call.  No index is stored per
episode: each pass looks the checked ids' flat positions up in the plan.

`grad` runs one forward and one backward pass per episode.  The fused input
is two gathers from the flat vector, each layer's gradient adds into a view
of one zeroed flat vector, and the input gradient goes back to the embedding
values as one add at the user positions (distinct within an episode) and one
``np.add.at`` at the item positions, which adds repeated items in row order.
The Gradient it returns carries those passes as a tape: the episode's flat
positions, the input of every layer, the ReLU masks and the upstream
gradient of every layer.  `hvp` takes that tape and pushes a tangent v
through the same passes without recomputing them (the R-op of Pearlmutter,
1994), which gives the exact directional derivative of the gradient, i.e. an
exact Hessian-vector product.  Episodes run one at a time: stacking them
into one matmul would change the bits.

Every call checks the parameter layout against the spec (one comparison of
layout keys); `hvp` given a tape relies on the check its `grad` made on the
same theta.

Everything is float64 and deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .params import Gradient, Layout, ParamSet, dense_views

__all__ = [
    "ModelSpec",
    "Episode",
    "CheckedEpisode",
    "check_episode",
    "check_episodes",
    "init_params",
    "init_dense_stack",
    "forward",
    "predict",
    "user_embedding",
    "loss",
    "grad",
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


def init_dense_stack(rng: np.random.Generator, in_dim: int, dims: Sequence[int], prefix: str):
    """Uniform +/- 1/sqrt(fan_in) weights and biases for a dense stack."""
    entries = {}
    fan_in = in_dim
    for layer, width in enumerate(dims):
        bound = 1.0 / np.sqrt(fan_in)
        entries[f"{prefix}_W{layer}"] = rng.uniform(-bound, bound, size=(width, fan_in))
        entries[f"{prefix}_b{layer}"] = rng.uniform(-bound, bound, size=(width,))
        fan_in = width
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
    fan_in = spec.fused_width
    for layer, width in enumerate(spec.decision_dims):
        shapes[f"dec_W{layer}"] = (width, fan_in)
        shapes[f"dec_b{layer}"] = (width,)
        fan_in = width
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


def _check_episode(spec: ModelSpec, user_ids, items, targets=None):
    """Int64 ids and float64 targets of one episode, their shapes checked.

    Id ranges are left to `check_episodes`, which checks a whole split at
    once.  Without ``targets`` (a `forward` input) the targets read as zeros.
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
    """``(user_ids, items, targets)`` checked once against ``vocab_sizes``.

    Made only by `check_episodes`.  Its arrays are read-only row views of the
    copy that routine made of the split, so the check cannot go stale;
    ``vocab_sizes`` is the ``(user, item)`` vocabulary sizes it was checked
    against.
    """

    vocab_sizes: Tuple[Tuple[int, ...], Tuple[int, ...]]


def check_episodes(spec: ModelSpec, episodes) -> List[CheckedEpisode]:
    """Check a split's ``(user_ids, items, targets)`` episodes once, together.

    The ids and targets are copied into one set of read-only columns for the
    split and every id is range-checked there; each returned CheckedEpisode
    is a view of its rows.
    """
    users, item_blocks, target_blocks = [], [], []
    for episode in episodes:
        user_ids, ep_items, ep_targets = _check_episode(spec, *episode)
        users.append(user_ids)
        item_blocks.append(ep_items)
        target_blocks.append(ep_targets)
    if not users:
        return []
    plan = spec.plan
    stops = np.cumsum([len(ep_items) for ep_items in item_blocks]).tolist()
    users = np.array(users)
    items = np.concatenate(item_blocks)
    targets = np.concatenate(target_blocks)
    _check_ids(users, plan.user_vocab, "user")
    _check_ids(items, plan.item_vocab, "item")
    for arr in (users, items, targets):
        arr.flags.writeable = False
    checked = []
    for row, (start, stop) in enumerate(zip([0] + stops[:-1], stops)):
        episode = CheckedEpisode((users[row], items[start:stop], targets[start:stop]))
        episode.vocab_sizes = plan.vocab_sizes
        checked.append(episode)
    return checked


def check_episode(spec: ModelSpec, user_ids, items, targets) -> CheckedEpisode:
    """Check one episode against ``spec``: `check_episodes` on a one-episode split."""
    return check_episodes(spec, [(user_ids, items, targets)])[0]


def _checked(spec: ModelSpec, episode) -> CheckedEpisode:
    """The episode itself if it was checked against ``spec``'s vocabulary
    sizes, else a checked copy."""
    sizes = spec.plan.vocab_sizes
    if isinstance(episode, CheckedEpisode) and (episode.vocab_sizes is sizes
                                                or episode.vocab_sizes == sizes):
        return episode
    return check_episode(spec, *episode)


def _user_index(user_ids: np.ndarray, plan: FlatPlan) -> np.ndarray:
    """The (user_width,) flat positions of checked user ids' embedding values."""
    return plan.positions[user_ids + plan.user_rows].reshape(-1)


def _indices(episode: CheckedEpisode, plan: FlatPlan):
    """Flat positions of a checked episode's embedding values: the user's
    (user_width,) and the items' (n_items, n_item_features * embedding_dim)."""
    user_ids, items, _ = episode
    item_index = plan.positions[items + plan.item_rows].reshape(items.shape[0], -1)
    return _user_index(user_ids, plan), item_index


# ---------------------------------------------------------------------------
# forward


def _forward_core(flat, weights, plan: FlatPlan, user_index, item_index):
    """Shared forward pass over ``weights``, the `dense_views` of ``flat``.

    Returns (output, acts, preacts): ``acts`` holds the input of every
    decision layer, the fused embedding rows first, and ``preacts`` every
    layer's pre-activation.
    """
    uw = plan.user_width
    x = np.empty((item_index.shape[0], uw + item_index.shape[1]))
    x[:, :uw] = flat[user_index]
    x[:, uw:] = flat[item_index]

    acts = [x]
    preacts = []
    a = x
    last = len(weights) - 1
    with np.errstate(invalid="ignore", over="ignore"):
        for layer, (w, b) in enumerate(weights):
            z = a @ w.T + b
            if not np.logical_and.reduce(np.isfinite(z), None):
                raise NumericError(f"non-finite values in decision layer {layer}")
            preacts.append(z)
            if layer < last:
                a = np.maximum(z, 0.0)
                acts.append(a)
    return preacts[-1], acts, preacts


def _episode_forward(theta: ParamSet, spec: ModelSpec, episode: CheckedEpisode):
    plan = spec.plan
    flat = theta.flat
    return _forward_core(flat, dense_views(flat, plan.layers), plan, *_indices(episode, plan))


def forward(theta: ParamSet, spec: ModelSpec, user_ids, items):
    """Predictions, one unbounded rating per item, plus the user embedding
    vector h (decision input side)."""
    _check_theta(theta, spec)
    z_out, acts, _ = _episode_forward(theta, spec, check_episode(spec, user_ids, items, None))
    return z_out[:, 0], acts[0][0, :spec.user_width].copy()


def predict(theta: ParamSet, spec: ModelSpec, episode) -> np.ndarray:
    """Predictions for the items of an episode ``(user_ids, items, targets)``.

    Like `forward` without the embedding, and a `CheckedEpisode` checked
    for ``spec`` is not checked again.
    """
    _check_theta(theta, spec)
    z_out, _, _ = _episode_forward(theta, spec, _checked(spec, episode))
    return z_out[:, 0]


def user_embedding(theta: ParamSet, spec: ModelSpec, user_ids) -> np.ndarray:
    """Concatenated user-feature embedding rows for one user."""
    _check_theta(theta, spec)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    if user_ids.shape != (len(spec.user_vocab_sizes),):
        raise DataError(f"expected {len(spec.user_vocab_sizes)} user feature ids")
    for feature, (value, vocab) in enumerate(zip(user_ids.tolist(), spec.user_vocab_sizes)):
        if not 0 <= value < vocab:
            raise DataError(f"user feature {feature} id {value} outside vocabulary [0, {vocab})")
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


def _normalize_batch(batch) -> List[Episode]:
    if isinstance(batch, tuple) and len(batch) == 3 and not isinstance(batch[0], tuple):
        batch = [batch]
    if not batch:
        raise DataError("empty episode batch")
    return list(batch)


class _Tape:
    """What `grad` computed at ``(theta, batch)``, kept for `hvp`.

    ``weights`` holds theta's `dense_views`.  ``episodes`` holds one
    ``(user_index, item_index, acts, masks, gas)`` record per episode: the
    flat positions of its embedding values, the input of every decision
    layer, the ReLU masks ``z > 0`` of the hidden layers, and the upstream
    gradient of every layer after its mask.  Everything is held by
    reference; nothing is copied.
    """

    __slots__ = ("theta", "spec", "batch", "total_items", "weights", "episodes")

    def __init__(self, theta, spec, batch, total_items, weights):
        self.theta = theta
        self.spec = spec
        self.batch = batch
        self.total_items = total_items
        self.weights = weights
        self.episodes = []


def grad(theta: ParamSet, spec: ModelSpec, batch) -> Gradient:
    """Exact reverse-mode gradient of the pooled mean squared error over the batch.

    The returned Gradient carries the forward and backward pass as its
    ``tape``, for `hvp` at the same point.
    """
    _check_theta(theta, spec)
    checked = [_checked(spec, episode) for episode in _normalize_batch(batch)]
    total_items = sum(episode[1].shape[0] for episode in checked)
    plan = spec.plan
    uw = plan.user_width
    weights = dense_views(theta.flat, plan.layers)
    tape = _Tape(theta, spec, batch, total_items, weights)
    flat = np.zeros(theta.layout.size)
    grads = dense_views(flat, plan.layers)

    loss_value = 0.0
    n_layers = len(weights)
    for episode in checked:
        targets = episode[2]
        user_index, item_index = _indices(episode, plan)
        z_out, acts, preacts = _forward_core(theta.flat, weights, plan, user_index, item_index)

        r = z_out[:, 0] - targets
        loss_value = loss_value + np.add.reduce(r * r, None) / total_items
        gz = (r * (2.0 / total_items))[:, None]

        masks = [z > 0.0 for z in preacts[:-1]]
        gas = [None] * n_layers
        ga = gz
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga = ga * masks[layer]
            gas[layer] = ga
            g_w, g_b = grads[layer]
            g_w += ga.T @ acts[layer]
            g_b += np.add.reduce(ga, 0)
            ga = ga @ weights[layer][0]
        # the user positions are distinct, and add.at adds item rows in order;
        # raveled, it takes numpy's one-dimensional fast path in that order
        flat[user_index] += np.add.reduce(ga[:, :uw], 0)
        np.add.at(flat, item_index.ravel(), ga[:, uw:].ravel())
        tape.episodes.append((user_index, item_index, acts, masks, gas))
    return Gradient.wrap(theta.layout, flat, float(loss_value), tape=tape)


def hvp(theta: ParamSet, spec: ModelSpec, batch, v: ParamSet,
        at: Optional[Gradient] = None) -> ParamSet:
    """Exact Hessian-vector product H(theta) @ v for the pooled mean squared error.

    ``at`` is the Gradient that ``grad(theta, spec, batch)`` returned,
    for these same ``theta`` and ``batch`` objects; without it, `hvp` runs
    that `grad` first.  The R-op (Pearlmutter, 1994) then differentiates the
    recorded passes along v and computes tangents only.  With rows
    z = a W^T + b and a' = relu(z) in the forward pass, and gradients
    gW = g^T a, gb = sum(g), g_in = g W in the backward pass (g is the
    layer's upstream gradient after its ReLU mask, and dg is masked alike):

        dz = da W^T + a dW^T + db,        da' = dz where z > 0,
        dgW = dg^T a + g^T da,  dgb = sum(dg),  dg_in = dg W + g dW,

    seeded with dz_out * 2 / n_items, the tangent of the mse gradient at the
    output.  The tangent of the gradient is exactly Hv; the Hessian is never
    formed.  Each tangent keeps the operand order of forward-over-reverse
    dual arithmetic, so its bits equal that formulation's.
    """
    theta._check_same_layout(v)
    if at is None:
        at = grad(theta, spec, batch)
    tape = at.tape if isinstance(at, Gradient) else None
    if tape is None or tape.theta is not theta or tape.batch is not batch or tape.spec != spec:
        raise ConfigError("hvp needs the Gradient that grad returned for this same theta "
                          "object, batch object and spec")
    plan = spec.plan
    uw = plan.user_width
    weights = tape.weights
    v_flat = v.flat
    v_weights = dense_views(v_flat, plan.layers)
    tangents = np.zeros(theta.layout.size)
    out = dense_views(tangents, plan.layers)
    n_layers = len(weights)
    for user_index, item_index, acts, masks, gas in tape.episodes:
        x_t = np.empty(acts[0].shape)
        x_t[:, :uw] = v_flat[user_index]
        x_t[:, uw:] = v_flat[item_index]
        acts_t = [x_t]
        for layer in range(n_layers):
            v_w, v_b = v_weights[layer]
            z_t = (acts_t[layer] @ weights[layer][0].T + acts[layer] @ v_w.T) + v_b
            if layer < n_layers - 1:
                acts_t.append(np.where(masks[layer], z_t, 0.0))

        ga_t = (z_t[:, 0] * (2.0 / tape.total_items))[:, None]
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga_t = ga_t * masks[layer]
            ga = gas[layer]
            g_w, g_b = out[layer]
            g_w += ga_t.T @ acts[layer] + ga.T @ acts_t[layer]
            g_b += np.add.reduce(ga_t, 0)
            ga_t = ga_t @ weights[layer][0] + ga @ v_weights[layer][0]
        tangents[user_index] += np.add.reduce(ga_t[:, :uw], 0)
        np.add.at(tangents, item_index.ravel(), ga_t[:, uw:].ravel())
    return ParamSet.wrap(theta.layout, tangents)
