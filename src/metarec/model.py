"""Differentiable model core: embeddings + ReLU MLP, exact grad and HVP.

The architecture is fixed (per-feature embedding tables, a dense ReLU stack,
a regression or 2-way softmax head), so reverse-mode differentiation is
written out explicitly instead of pulling in an autodiff framework.  The same
forward/backward code runs on either plain float64 arrays or `_Dual` pairs
(value, tangent); running it on duals yields the exact directional derivative
of the gradient, i.e. an exact Hessian-vector product.  Gradients accumulate
in place into views of one zeroed flat vector (two for the dual pass), which
the returned ParamSet then wraps without copying.

Inputs are validated at the boundary.  Every call checks the parameter
layout against the spec (one comparison of layout keys).  An episode made by
`check_episode` carries the vocabulary sizes it was checked against and
read-only arrays, so `grad` and `hvp` skip the id-range check for it when the
spec has the same vocabulary sizes; every other episode, including a plain
caller tuple, and every `forward` input is checked on each call.

Everything is float64 and deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple, Union

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
# dual numbers (value + tangent), enough ops for this model family


class _Dual:
    """Pair of arrays propagated through the same code path as plain arrays."""

    __slots__ = ("v", "t")
    __array_ufunc__ = None  # make numpy defer to our reflected operators

    def __init__(self, v, t):
        self.v = v
        self.t = t

    # arithmetic -------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v + other.v, self.t + other.t)
        return _Dual(self.v + other, self.t)

    __radd__ = __add__

    def __iadd__(self, other):
        if isinstance(other, _Dual):
            self.v += other.v
            self.t += other.t
        else:
            self.v += other
        return self

    def __sub__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v - other.v, self.t - other.t)
        return _Dual(self.v - other, self.t)

    def __rsub__(self, other):
        return _Dual(other - self.v, -self.t)

    def __neg__(self):
        return _Dual(-self.v, -self.t)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v, self.t * other.v + self.v * other.t)
        return _Dual(self.v * other, self.t * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Dual):
            inv = 1.0 / other.v
            return _Dual(self.v * inv, self.t * inv - self.v * other.t * inv * inv)
        return _Dual(self.v / other, self.t / other)

    def __matmul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v @ other.v, self.t @ other.v + self.v @ other.t)
        return _Dual(self.v @ other, self.t @ other)

    def __rmatmul__(self, other):
        return _Dual(other @ self.v, other @ self.t)

    # structure --------------------------------------------------------------
    def __getitem__(self, idx):
        return _Dual(self.v[idx], self.t[idx])

    def __setitem__(self, idx, value):
        if isinstance(value, _Dual):
            self.v[idx] = value.v
            self.t[idx] = value.t
        else:
            self.v[idx] = value
            self.t[idx] = 0.0

    @property
    def T(self):
        return _Dual(self.v.T, self.t.T)

    def sum(self, axis=None, keepdims=False):
        return _Dual(self.v.sum(axis=axis, keepdims=keepdims), self.t.sum(axis=axis, keepdims=keepdims))


def _value(x):
    return x.v if isinstance(x, _Dual) else x


def _relu(x):
    if isinstance(x, _Dual):
        return _Dual(np.maximum(x.v, 0.0), np.where(x.v > 0.0, x.t, 0.0))
    return np.maximum(x, 0.0)


def _exp(x):
    if isinstance(x, _Dual):
        e = np.exp(x.v)
        return _Dual(e, x.t * e)
    return np.exp(x)


def _log(x):
    if isinstance(x, _Dual):
        return _Dual(np.log(x.v), x.t / x.v)
    return np.log(x)


def _clamp_min(x, floor):
    if isinstance(x, _Dual):
        keep = x.v > floor
        return _Dual(np.maximum(x.v, floor), np.where(keep, x.t, 0.0))
    return np.maximum(x, floor)


def _scatter_add(acc, idx, rows):
    if isinstance(acc, _Dual):
        np.add.at(acc.v, idx, _value(rows))
        np.add.at(acc.t, idx, rows.t if isinstance(rows, _Dual) else np.zeros_like(_value(rows)))
    else:
        np.add.at(acc, idx, rows)


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


def _forward_core(theta, spec: ModelSpec, user_ids, items, check_finite=True):
    """Shared forward pass; ``theta`` entries may be arrays or duals.

    Returns (output, user_vec, cache) where cache holds per-layer inputs and
    pre-activations for the backward pass.
    """
    # fused input rows: the user's embedding rows, then each item's
    shape = (items.shape[0], spec.fused_width)
    if isinstance(theta["emb_user_0"], _Dual):
        x = _Dual(np.empty(shape), np.empty(shape))
    else:
        x = np.empty(shape)
    e = spec.embedding_dim
    for i in range(len(spec.user_vocab_sizes)):
        x[:, i * e:(i + 1) * e] = theta[f"emb_user_{i}"][user_ids[i]]
    for j in range(len(spec.item_vocab_sizes)):
        col = spec.user_width + j * e
        x[:, col:col + e] = theta[f"emb_item_{j}"][items[:, j]]
    u = x[0, :spec.user_width]

    acts = [x]  # inputs to each layer
    preacts = []
    a = x
    n_layers = len(spec.decision_dims)
    for layer in range(n_layers):
        w = theta[f"dec_W{layer}"]
        b = theta[f"dec_b{layer}"]
        with np.errstate(invalid="ignore", over="ignore"):
            z = a @ w.T + b
        if check_finite and not np.all(np.isfinite(_value(z))):
            raise NumericError(f"non-finite values in decision layer {layer}")
        preacts.append(z)
        if layer < n_layers - 1:
            a = _relu(z)
            acts.append(a)
    return preacts[-1], u, (acts, preacts)


def _predictions_from_output(spec: ModelSpec, z_out):
    if spec.output_kind == "rating-regression":
        return z_out[:, 0]
    # stable row softmax; the shift is constant so tangents flow correctly
    shift = _value(z_out).max(axis=1, keepdims=True)
    e = _exp(z_out - shift)
    return e / e.sum(axis=1, keepdims=True)


def forward(theta: ParamSet, spec: ModelSpec, user_ids, items):
    """Predictions plus the user embedding vector h (decision input side).

    Rating regression returns one unbounded real per item; ctr-softmax returns
    per-item 2-way probability rows.
    """
    _check_theta(theta, spec)
    user_ids, items = _check_episode(spec, user_ids, items)
    z_out, u, _ = _forward_core(theta, spec, user_ids, items)
    return _predictions_from_output(spec, z_out), u.copy()


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


def _grad_core(theta, grads, spec: ModelSpec, batch: List[Episode], kind: str):
    """Add the pooled-mean loss gradient into ``grads`` and return the loss.

    ``theta`` and ``grads`` map entry names to plain arrays or to duals;
    ``grads`` starts at zero and is updated in place.
    """
    checked = [_episode_arrays(spec, episode) for episode in batch]
    total_items = sum(items.shape[0] for _, items, _ in checked)

    loss_value = 0.0
    n_layers = len(spec.decision_dims)
    for user_ids, items, targets in checked:
        z_out, _, (acts, preacts) = _forward_core(theta, spec, user_ids, items)

        if kind == "mse":
            pred = z_out[:, 0]
            r = pred - targets
            loss_value = loss_value + (r * r).sum() / total_items
            gz = (r * (2.0 / total_items))[:, None]
        elif kind == "weighted-nel":
            p = _predictions_from_output(spec, z_out)
            p_click = _clamp_min(p[:, 1], NEL_CLAMP)
            w = np.where(targets == 1.0, NEL_CLICK_WEIGHT, NEL_NOCLICK_WEIGHT)
            loss_value = loss_value + (-w * targets * _log(p_click)).sum() / total_items
            # d/dz_c of -log p_1 is p_c - [c == 1]; items clamped away from the
            # log keep zero gradient, matching the loss surface actually used
            active = (_value(p)[:, 1] > NEL_CLAMP).astype(np.float64)
            coef = (w * targets * active / total_items)[:, None]
            gz = (p - np.array([0.0, 1.0])) * coef
        else:
            raise ConfigError(f"unknown loss kind '{kind}'")

        ga = gz
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                ga = ga * (_value(preacts[layer]) > 0.0).astype(np.float64)
            w_l = theta[f"dec_W{layer}"]
            grads[f"dec_W{layer}"] += ga.T @ acts[layer]
            grads[f"dec_b{layer}"] += ga.sum(axis=0)
            ga = ga @ w_l

        # split the fused-input gradient back into user/item embedding rows
        gu = ga[:, : spec.user_width].sum(axis=0)
        e = spec.embedding_dim
        for i in range(len(spec.user_vocab_sizes)):
            _scatter_add(grads[f"emb_user_{i}"], np.array([user_ids[i]]), gu[i * e : (i + 1) * e][None, :])
        for j in range(len(spec.item_vocab_sizes)):
            col = spec.user_width + j * e
            _scatter_add(grads[f"emb_item_{j}"], items[:, j], ga[:, col : col + e])
    return loss_value


def grad(theta: ParamSet, spec: ModelSpec, batch, kind: str) -> Gradient:
    """Exact reverse-mode gradient of the pooled-mean loss over the batch."""
    _check_theta(theta, spec)
    layout = theta.layout
    flat = np.zeros(layout.size)
    loss_value = _grad_core(theta, layout.views(flat), spec, _normalize_batch(batch), kind)
    return Gradient.wrap(layout, flat, float(loss_value))


def hvp(theta: ParamSet, spec: ModelSpec, batch, kind: str, v: ParamSet) -> ParamSet:
    """Exact Hessian-vector product H(theta) @ v for the pooled batch loss.

    Forward-over-reverse: the reverse-mode gradient code runs on dual numbers
    seeded with tangent v, and the tangent of the gradient is exactly Hv.
    The Hessian is never materialized.
    """
    _check_theta(theta, spec)
    theta._check_same_layout(v)
    layout = theta.layout
    dual_theta = {name: _Dual(theta[name], v[name]) for name in theta}
    values, tangents = np.zeros(layout.size), np.zeros(layout.size)
    value_views, tangent_views = layout.views(values), layout.views(tangents)
    grads = {name: _Dual(value_views[name], tangent_views[name]) for name in layout.names}
    _grad_core(dual_theta, grads, spec, _normalize_batch(batch), kind)
    return ParamSet.wrap(layout, tangents)
