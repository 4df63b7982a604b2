"""Differentiable model core: embeddings + ReLU MLP, exact grad and HVP.

The architecture is fixed (per-feature embedding tables, a dense ReLU stack,
a regression or 2-way softmax head), so reverse-mode differentiation is
written out explicitly instead of pulling in an autodiff framework.  `grad`
runs one forward and one backward pass per episode and keeps what they
computed on the Gradient it returns, as a tape: the input of every layer,
the ReLU masks, the upstream gradient of every layer and, for the softmax
head, its exponentials.  `hvp` takes that tape and pushes a tangent v
through the same passes without recomputing them (the R-op of Pearlmutter,
1994), which gives the exact directional derivative of the gradient, i.e.
an exact Hessian-vector product.  Gradients and products accumulate in
place into views of one zeroed flat vector, which the returned ParamSet
then wraps without copying, views included.

Inputs are validated at the boundary.  Every call checks the parameter
layout against the spec (one comparison of layout keys); `hvp` given a
tape relies on the check its `grad` made on the same theta.  An episode made by
`check_episode` carries the vocabulary sizes it was checked against and
read-only arrays, so `grad` and `hvp` skip the id-range check for it when the
spec has the same vocabulary sizes; every other episode, including a plain
caller tuple, and every `forward` input is checked on each call.

Everything is float64 and deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .params import Gradient, ParamSet

__all__ = [
    "ModelSpec",
    "Episode",
    "CheckedEpisode",
    "check_episode",
    "init_params",
    "init_dense_stack",
    "forward",
    "predict",
    "user_embedding",
    "loss",
    "grad",
    "hvp",
    "LOSS_KINDS",
    "NEL_CLAMP",
    "NEL_CLICK_WEIGHT",
    "NEL_NOCLICK_WEIGHT",
]

LOSS_KINDS = ("mse", "weighted-nel")
NEL_CLAMP = 1e-12
NEL_CLICK_WEIGHT = 0.9
NEL_NOCLICK_WEIGHT = 0.1
EMBEDDING_INIT_RANGE = 0.05

# One training example group: ids of one user's categorical features, an
# (n_items, n_item_features) id matrix, and one target per item.
Episode = Tuple[Sequence[int], np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the prediction model.

    ``decision_dims`` lists dense layer output widths from first to last; the
    last entry is the output dimension (1 for rating regression, 2 for the
    click softmax).  ReLU is applied after every layer except the last.
    """

    user_vocab_sizes: Tuple[int, ...]
    item_vocab_sizes: Tuple[int, ...]
    embedding_dim: int = 32
    decision_dims: Tuple[int, ...] = (320, 192, 1)
    output_kind: str = "rating-regression"

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
        if self.output_kind == "rating-regression":
            if self.decision_dims[-1] != 1:
                raise ConfigError("rating-regression needs a 1-wide output layer")
        elif self.output_kind == "ctr-softmax":
            if self.decision_dims[-1] != 2:
                raise ConfigError("ctr-softmax needs a 2-wide output layer")
        else:
            raise ConfigError(f"unknown output_kind '{self.output_kind}'")

    @property
    def user_width(self) -> int:
        return len(self.user_vocab_sizes) * self.embedding_dim

    @property
    def fused_width(self) -> int:
        return (len(self.user_vocab_sizes) + len(self.item_vocab_sizes)) * self.embedding_dim

    def loss_kind(self) -> str:
        return "mse" if self.output_kind == "rating-regression" else "weighted-nel"

    @cached_property
    def layout_key(self):
        """``(names, shapes)`` a parameter layout must have for this spec."""
        shapes = expected_entry_shapes(self)
        names = expected_entry_names(self)
        return names, tuple(shapes[name] for name in names)


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
    names = [f"emb_user_{i}" for i in range(len(spec.user_vocab_sizes))]
    names += [f"emb_item_{j}" for j in range(len(spec.item_vocab_sizes))]
    for layer in range(len(spec.decision_dims)):
        names += [f"dec_W{layer}", f"dec_b{layer}"]
    return tuple(names)


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
# validation of raw episode inputs


def _check_episode(spec: ModelSpec, user_ids, items, targets=None) -> Tuple[np.ndarray, np.ndarray]:
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
    for i, vocab in enumerate(spec.user_vocab_sizes):
        if user_ids[i] < 0 or user_ids[i] >= vocab:
            raise DataError(f"user feature {i} id {user_ids[i]} outside vocabulary [0, {vocab})")
    for j, vocab in enumerate(spec.item_vocab_sizes):
        col = items[:, j]
        if col.min() < 0 or col.max() >= vocab:
            raise DataError(f"item feature {j} has ids outside vocabulary [0, {vocab})")
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (items.shape[0],):
            raise DataError(f"targets shape {targets.shape} does not match {items.shape[0]} items")
    return user_ids, items


class CheckedEpisode(tuple):
    """``(user_ids, items, targets)`` validated once against ``vocab_sizes``.

    Made only by `check_episode`.  Its arrays are read-only copies, so the
    check cannot go stale; ``vocab_sizes`` is the ``(user, item)`` vocabulary
    sizes it was checked against.
    """

    vocab_sizes: Tuple[Tuple[int, ...], Tuple[int, ...]]


def check_episode(spec: ModelSpec, user_ids, items, targets) -> CheckedEpisode:
    """Validate an episode against ``spec`` and freeze it as a CheckedEpisode."""
    user_ids, items = _check_episode(spec, user_ids, items, targets)
    arrays = (user_ids.copy(), items.copy(), np.array(targets, dtype=np.float64))
    for arr in arrays:
        arr.flags.writeable = False
    episode = CheckedEpisode(arrays)
    episode.vocab_sizes = (spec.user_vocab_sizes, spec.item_vocab_sizes)
    return episode


def _episode_arrays(spec: ModelSpec, episode) -> Episode:
    """Int64 ids and float64 targets of an episode, checked unless already done."""
    if (isinstance(episode, CheckedEpisode)
            and episode.vocab_sizes == (spec.user_vocab_sizes, spec.item_vocab_sizes)):
        return episode
    user_ids, items, targets = episode
    user_ids, items = _check_episode(spec, user_ids, items, targets)
    return user_ids, items, np.asarray(targets, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward


def _fused_input(entries, spec: ModelSpec, user_ids, items) -> np.ndarray:
    """Fused input rows: the user's embedding rows, then each item's.

    ``entries`` maps embedding names to tables: the parameters in a forward
    pass, the tangent in `hvp`'s tangent pass.
    """
    x = np.empty((items.shape[0], spec.fused_width))
    e = spec.embedding_dim
    for i in range(len(spec.user_vocab_sizes)):
        x[:, i * e:(i + 1) * e] = entries[f"emb_user_{i}"][user_ids[i]]
    for j in range(len(spec.item_vocab_sizes)):
        col = spec.user_width + j * e
        x[:, col:col + e] = entries[f"emb_item_{j}"][items[:, j]]
    return x


def _forward_core(theta, spec: ModelSpec, user_ids, items):
    """Shared forward pass.

    Returns (output, user_vec, acts, preacts): ``acts`` holds the input of
    every decision layer and ``preacts`` its pre-activation.
    """
    x = _fused_input(theta, spec, user_ids, items)
    u = x[0, :spec.user_width]

    acts = [x]
    preacts = []
    a = x
    n_layers = len(spec.decision_dims)
    with np.errstate(invalid="ignore", over="ignore"):
        for layer in range(n_layers):
            z = a @ theta[f"dec_W{layer}"].T + theta[f"dec_b{layer}"]
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite values in decision layer {layer}")
            preacts.append(z)
            if layer < n_layers - 1:
                a = np.maximum(z, 0.0)
                acts.append(a)
    return preacts[-1], u, acts, preacts


def _softmax(z_out):
    """Stable row softmax as ``(exp(z - rowmax), 1 / rowsum)``; p = e * inv."""
    e = np.exp(z_out - z_out.max(axis=1, keepdims=True))
    return e, 1.0 / e.sum(axis=1, keepdims=True)


def _predictions_from_output(spec: ModelSpec, z_out):
    if spec.output_kind == "rating-regression":
        return z_out[:, 0]
    e, inv = _softmax(z_out)
    return e * inv


def forward(theta: ParamSet, spec: ModelSpec, user_ids, items):
    """Predictions plus the user embedding vector h (decision input side).

    Rating regression returns one unbounded real per item; ctr-softmax returns
    per-item 2-way probability rows.
    """
    _check_theta(theta, spec)
    user_ids, items = _check_episode(spec, user_ids, items)
    z_out, u, _, _ = _forward_core(theta, spec, user_ids, items)
    return _predictions_from_output(spec, z_out), u.copy()


def predict(theta: ParamSet, spec: ModelSpec, episode) -> np.ndarray:
    """Predictions for the items of an episode ``(user_ids, items, targets)``.

    Like `forward` without the embedding, and a `CheckedEpisode` checked
    against ``spec`` is not checked again.
    """
    _check_theta(theta, spec)
    user_ids, items, _ = _episode_arrays(spec, episode)
    z_out, _, _, _ = _forward_core(theta, spec, user_ids, items)
    return _predictions_from_output(spec, z_out)


def user_embedding(theta: ParamSet, spec: ModelSpec, user_ids) -> np.ndarray:
    """Concatenated user-feature embedding rows for one user."""
    _check_theta(theta, spec)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    if user_ids.shape != (len(spec.user_vocab_sizes),):
        raise DataError(f"expected {len(spec.user_vocab_sizes)} user feature ids")
    parts = []
    for i, vocab in enumerate(spec.user_vocab_sizes):
        if user_ids[i] < 0 or user_ids[i] >= vocab:
            raise DataError(f"user feature {i} id {user_ids[i]} outside vocabulary [0, {vocab})")
        parts.append(theta[f"emb_user_{i}"][user_ids[i]])
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# losses


def loss(kind: str, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Batch loss: plain MSE or the click-weighted negative entropy loss.

    weighted-nel: mean over items of -w_j * y_j * log(p_click_j) with
    w = 0.9 for clicked and 0.1 for non-clicked items; y is the 0/1 click
    label, so non-clicked items contribute exactly zero.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape[0] == 0:
        raise DataError("loss of an empty batch is undefined")
    if kind == "mse":
        if predictions.shape != targets.shape:
            raise DataError("predictions/targets shape mismatch")
        r = predictions - targets
        return float(np.mean(r * r))
    if kind == "weighted-nel":
        if predictions.ndim != 2 or predictions.shape[1] != 2:
            raise DataError("weighted-nel expects (n_items, 2) probability rows")
        if targets.shape != (predictions.shape[0],):
            raise DataError("predictions/targets shape mismatch")
        w = np.where(targets == 1.0, NEL_CLICK_WEIGHT, NEL_NOCLICK_WEIGHT)
        p_click = np.maximum(predictions[:, 1], NEL_CLAMP)
        return float(np.mean(-w * targets * np.log(p_click)))
    raise ConfigError(f"unknown loss kind '{kind}'")


# ---------------------------------------------------------------------------
# gradients


def _normalize_batch(batch) -> List[Episode]:
    if isinstance(batch, tuple) and len(batch) == 3 and not isinstance(batch[0], tuple):
        batch = [batch]
    if not batch:
        raise DataError("empty episode batch")
    return list(batch)


def _scatter_embedding_grads(grads, spec: ModelSpec, user_ids, items, ga) -> None:
    """Add the fused-input gradient ``ga`` into the user/item embedding rows."""
    gu = ga[:, :spec.user_width].sum(axis=0)
    e = spec.embedding_dim
    for i in range(len(spec.user_vocab_sizes)):
        grads[f"emb_user_{i}"][user_ids[i]] += gu[i * e:(i + 1) * e]
    for j in range(len(spec.item_vocab_sizes)):
        col = spec.user_width + j * e
        np.add.at(grads[f"emb_item_{j}"], items[:, j], ga[:, col:col + e])


class _Tape:
    """What `grad` computed at ``(theta, batch)``, kept for `hvp`.

    ``episodes`` holds one ``(user_ids, items, acts, masks, gas, head)``
    record per episode: the input of every decision layer, the ReLU masks
    ``z > 0`` of the hidden layers, the upstream gradient of every layer
    after its mask, and for weighted-nel the softmax's ``(e, inv, coef)``
    (None for mse).  Everything is held by reference; nothing is copied.
    """

    __slots__ = ("theta", "spec", "batch", "kind", "total_items", "episodes")

    def __init__(self, theta, spec, batch, kind, total_items):
        self.theta = theta
        self.spec = spec
        self.batch = batch
        self.kind = kind
        self.total_items = total_items
        self.episodes = []


def grad(theta: ParamSet, spec: ModelSpec, batch, kind: str) -> Gradient:
    """Exact reverse-mode gradient of the pooled-mean loss over the batch.

    The returned Gradient carries the forward and backward pass as its
    ``tape``, for `hvp` at the same point.
    """
    _check_theta(theta, spec)
    checked = [_episode_arrays(spec, episode) for episode in _normalize_batch(batch)]
    total_items = sum(items.shape[0] for _, items, _ in checked)
    tape = _Tape(theta, spec, batch, kind, total_items)
    layout = theta.layout
    flat = np.zeros(layout.size)
    grads = layout.views(flat)

    loss_value = 0.0
    n_layers = len(spec.decision_dims)
    for user_ids, items, targets in checked:
        z_out, _, acts, preacts = _forward_core(theta, spec, user_ids, items)

        if kind == "mse":
            r = z_out[:, 0] - targets
            loss_value = loss_value + (r * r).sum() / total_items
            gz = (r * (2.0 / total_items))[:, None]
            head = None
        elif kind == "weighted-nel":
            e, inv = _softmax(z_out)
            p = e * inv
            w = np.where(targets == 1.0, NEL_CLICK_WEIGHT, NEL_NOCLICK_WEIGHT)
            p_click = np.maximum(p[:, 1], NEL_CLAMP)
            loss_value = loss_value + (-w * targets * np.log(p_click)).sum() / total_items
            # d/dz_c of -log p_1 is p_c - [c == 1]; items clamped away from the
            # log keep zero gradient, matching the loss surface actually used
            active = (p[:, 1] > NEL_CLAMP).astype(np.float64)
            coef = (w * targets * active / total_items)[:, None]
            gz = (p - np.array([0.0, 1.0])) * coef
            head = (e, inv, coef)
        else:
            raise ConfigError(f"unknown loss kind '{kind}'")

        masks = [z > 0.0 for z in preacts[:-1]]
        gas = [None] * n_layers
        ga = gz
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga = ga * masks[layer]
            gas[layer] = ga
            grads[f"dec_W{layer}"] += ga.T @ acts[layer]
            grads[f"dec_b{layer}"] += ga.sum(axis=0)
            ga = ga @ theta[f"dec_W{layer}"]
        _scatter_embedding_grads(grads, spec, user_ids, items, ga)
        tape.episodes.append((user_ids, items, acts, masks, gas, head))
    return Gradient.wrap(layout, flat, float(loss_value), views=grads, tape=tape)


def hvp(theta: ParamSet, spec: ModelSpec, batch, kind: str, v: ParamSet,
        at: Optional[Gradient] = None) -> ParamSet:
    """Exact Hessian-vector product H(theta) @ v for the pooled batch loss.

    ``at`` is the Gradient that ``grad(theta, spec, batch, kind)`` returned,
    for these same ``theta`` and ``batch`` objects; without it, `hvp` runs
    that `grad` first.  The R-op (Pearlmutter, 1994) then differentiates the
    recorded passes along v and computes tangents only.  With rows
    z = a W^T + b and a' = relu(z) in the forward pass, and gradients
    gW = g^T a, gb = sum(g), g_in = g W in the backward pass (g is the
    layer's upstream gradient after its ReLU mask, and dg is masked alike):

        dz = da W^T + a dW^T + db,        da' = dz where z > 0,
        dgW = dg^T a + g^T da,  dgb = sum(dg),  dg_in = dg W + g dW,

    seeded with the tangent of the loss gradient at the output.  The
    tangent of the gradient is exactly Hv; the Hessian is never formed.
    Each tangent keeps the operand order of forward-over-reverse dual
    arithmetic, so its bits equal that formulation's.
    """
    theta._check_same_layout(v)
    if at is None:
        at = grad(theta, spec, batch, kind)
    tape = at.tape if isinstance(at, Gradient) else None
    if (tape is None or tape.theta is not theta or tape.batch is not batch
            or tape.spec != spec or tape.kind != kind):
        raise ConfigError("hvp needs the Gradient that grad returned for this same theta "
                          "object, batch object, spec and loss kind")
    layout = theta.layout
    tangents = np.zeros(layout.size)
    out = layout.views(tangents)
    n_layers = len(spec.decision_dims)
    for user_ids, items, acts, masks, gas, head in tape.episodes:
        acts_t = [_fused_input(v, spec, user_ids, items)]
        for layer in range(n_layers):
            w_name, b_name = f"dec_W{layer}", f"dec_b{layer}"
            z_t = (acts_t[layer] @ theta[w_name].T + acts[layer] @ v[w_name].T) + v[b_name]
            if layer < n_layers - 1:
                acts_t.append(np.where(masks[layer], z_t, 0.0))

        if head is None:
            ga_t = (z_t[:, 0] * (2.0 / tape.total_items))[:, None]
        else:
            e, inv, coef = head
            e_t = z_t * e
            s_t = e_t.sum(axis=1, keepdims=True)
            ga_t = (e_t * inv - e * s_t * inv * inv) * coef

        for layer in range(n_layers - 1, -1, -1):
            w_name = f"dec_W{layer}"
            if layer < n_layers - 1:
                ga_t = ga_t * masks[layer]
            ga = gas[layer]
            out[w_name] += ga_t.T @ acts[layer] + ga.T @ acts_t[layer]
            out[f"dec_b{layer}"] += ga_t.sum(axis=0)
            ga_t = ga_t @ theta[w_name] + ga @ v[w_name]
        _scatter_embedding_grads(out, spec, user_ids, items, ga_t)
    return ParamSet.wrap(layout, tangents, views=out)
