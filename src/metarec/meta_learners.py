"""Meta-learning trainers with embedding-conditioned inner learning rates.

One trainer, ``MetaTrainer``, runs all six algorithms:

  paml        scalar inner rate from a small sigmoid head on the user embedding
  at-paml     paml plus an exact-scan memory whose kernel-blended stored rates
              are added to the head output
  reg-paml    paml plus a penalty on gradient norm times inner rate in the
              outer objective
  maml-fixed  one shared constant inner rate
  meta-sgd    one learned inner rate per parameter
  transfer    pooled supervised training with per-user fine-tuning at test time

The inner loop is one gradient step theta_i = theta - alpha_i * g_s where g_s
is the support-set gradient at theta.  The outer objective over a batch is

    J = sum_i [ L_query_i(theta_i) + gamma * ||g_s_i||^2 * |alpha_i| ]

with gamma = 0 for every algorithm except reg-paml.  Its exact derivatives are

    dJ/dtheta = sum_i  g_q_i + H_i @ (2*gamma*alpha_i*g_s_i - alpha_i*g_q_i)
    dJ/dpsi   = sum_i (gamma*||g_s_i||^2 - g_s_i . g_q_i) * dalpha_i/dpsi

where g_q_i is the query gradient at theta_i and H_i the support Hessian at
theta, realized as one Hessian-vector product per episode.  All five episodic
algorithms share its direction: meta-sgd's per-parameter rate vector a takes
alpha_i's place, and dJ/da = sum_i -(g_s_i * g_q_i) elementwise.  The user
embedding h_i that feeds the rate head and the tree is an input: no gradient
flows from alpha_i back into the embedding tables, which keeps the update the
exact gradient of J with h_i held at the pre-step theta and makes it
checkable by finite differences.

A batch runs in shape groups: the episodes with equal support and query row
counts, in first-appearance order.  A rate depends on the user embedding
only, so the rate head runs once over the batch's distinct embeddings and
the tree is searched once per distinct embedding, with each episode's hits
touched in batch order; then each group's support gradient, inner step,
query gradient and Hessian-vector product run as one stack (see `model`),
which gives every episode the bits of a pass of its own.  An episode that
fails a stage stays in its stack: every slice is its own BLAS call, so it
changes no other episode's bits.  After the group's passes each episode gets
the first error a one-episode pass would raise (support forward pass, loss,
gradient, then the same for the query), or its terms.  Drops, warnings,
logs and the sums over episodes stay in batch order.  Evaluation stacks its
users the same way, at most ``batch_size`` to a stack, and scores each
stack's query MSEs in one row-wise mean.

Transfer instead trains on pooled support+query episodes: its theta gradient
is their pooled supervised gradient, with no inner step, and its steps log no
episodes.

Updates are plain gradient descent with per-group 2-norm clipping.  All
computation is float64 and deterministic given the config seed.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import warnings
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .memory_tree import (DEFAULT_CAPACITY, DEFAULT_DELTA, DEFAULT_SIGMA, EVICTION_POLICIES,
                          TreeMemory, blend_gradients, check_kernel_params)
from .model import (
    ModelSpec,
    check_episodes,
    dense_stack_shapes,
    expected_entry_shapes,
    forward,  # unused here; kept importable for callers that wrap meta_learners.forward
    grad,
    grad_stack,
    hvp,
    init_dense_stack,
    init_params,
    loss,
    predict_many,
    predict_stack,
    shape_groups,
    stack_episodes,
    user_embedding,
)
from .params import ParamSet, axpy_update, dense_views, nonfinite_rows, row_dots
from .tasks import DatasetSplits, TaskEpisode

__all__ = [
    "ALGORITHMS",
    "LrHead",
    "TrainerConfig",
    "TrainedModel",
    "EpisodeLog",
    "StepLog",
    "GradientPass",
    "EvalRecord",
    "MetaTrainer",
    "inner_adapt",
    "adapt_with_gradient",
    "logged_rate",
    "logged_rates",
    "train",
    "evaluate",
    "config_digest",
    "save_checkpoint",
    "load_checkpoint",
    "tree_sidecar",
]

ALGORITHMS = ("paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd", "transfer")
LR_HEAD_SCALE = 1e-3
OUTER_LR_DEFAULT = 5e-5
OUTER_LR_PAML = 5e-6
CHECKPOINT_VERSION = 1
# integer TrainerConfig fields and the least value each accepts
_INT_FLOORS = (("epochs", 0), ("warmup_epochs", 0), ("seed", 0), ("batch_size", 1),
               ("embedding_dim", 1), ("tree_capacity", 1), ("tree_neighbors_train", 1),
               ("tree_neighbors_infer", 1))
# kd-tree search settings that older checkpoints still carry in their config
RETIRED_TREE_KEYS = ("tree_search_mode", "tree_leaf_size", "tree_num_random_trees",
                     "tree_checks_budget")


# ---------------------------------------------------------------------------
# learning-rate head


def _head_entry_shapes(input_dim: int, hidden_dims) -> dict:
    return dense_stack_shapes(input_dim, tuple(hidden_dims) + (1,), "lr")


class LrHead:
    """Maps a user embedding to an inner learning rate in (0, scale).

    alpha(h) = scale * sigmoid(dense stack(h)) with ReLU between layers and a
    single output unit, so the rate is always positive and bounded by scale.
    """

    def __init__(self, input_dim: int, hidden_dims=(64, 32), scale: float = LR_HEAD_SCALE,
                 seed=0, psi: Optional[ParamSet] = None):
        if input_dim < 1:
            raise ConfigError("LrHead input_dim must be >= 1")
        if not math.isfinite(scale) or scale <= 0.0:
            raise ConfigError("LrHead scale must be positive")
        hidden_dims = tuple(int(d) for d in hidden_dims)
        if any(d < 1 for d in hidden_dims):
            raise ConfigError("LrHead hidden widths must be >= 1")
        self.input_dim = int(input_dim)
        self.hidden_dims = hidden_dims
        self.scale = float(scale)
        dims = hidden_dims + (1,)
        if psi is None:
            rng = np.random.default_rng(seed)
            psi = ParamSet(init_dense_stack(rng, self.input_dim, dims, "lr"))
        expected = tuple(_head_entry_shapes(self.input_dim, hidden_dims))
        if psi.names() != expected:
            raise ConfigError(f"rate-head layout {psi.names()} does not match {expected}")
        self.psi = psi
        self._layers = psi.layout.dense_layers()

    def n_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def _forward(self, h):
        """The head over a (B, input_dim) stack of embeddings, each row a
        (d, 1) column: every layer is one W @ (B, d, 1) matmul, which numpy
        runs as the matrix-vector product of a lone embedding, row by row."""
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise ConfigError(f"embedding stack shape {h.shape} does not match head input "
                              f"(B, {self.input_dim})")
        weights = dense_views(self.psi.flat, self._layers)
        a = h[:, :, None]
        acts = [a]
        preacts = []
        n = self.n_layers()
        # a rate that goes non-finite is rejected by `_check_inner_rate`
        with np.errstate(invalid="ignore", over="ignore"):
            for layer, (w, b) in enumerate(weights):
                z = w @ a + b[:, None]
                preacts.append(z)
                if layer < n - 1:
                    a = np.maximum(z, 0.0)
                    acts.append(a)
            sig = 1.0 / (1.0 + np.exp(-preacts[-1][:, 0, 0]))
        return self.scale * sig, sig, acts, preacts, weights

    def alphas(self, h) -> List[float]:
        """Inner learning rate for each row of a stack of user embeddings."""
        return self._forward(h)[0].tolist()

    def alphas_and_grads(self, h) -> Tuple[List[float], np.ndarray]:
        """alphas(h) and d alpha / d psi, one row per embedding; the
        embeddings are treated as inputs."""
        values, sig, acts, preacts, weights = self._forward(h)
        gz = (self.scale * sig * (1.0 - sig))[:, None, None]
        flat = np.empty((len(sig), self.psi.layout.size))
        grads = dense_views(flat, self._layers)
        n = self.n_layers()
        for layer in range(n - 1, -1, -1):
            if layer < n - 1:
                gz = gz * (preacts[layer] > 0.0)
            g_w, g_b = grads[layer]
            np.multiply(gz, np.swapaxes(acts[layer], 1, 2), out=g_w)
            g_b[...] = np.swapaxes(gz, 1, 2)
            gz = weights[layer][0].T @ gz
        return values.tolist(), flat

    def alpha(self, h) -> float:
        """Inner learning rate for one user embedding: a stack of one."""
        return self.alphas(np.asarray(h)[None])[0]

    def alpha_and_grad(self, h) -> Tuple[float, ParamSet]:
        """(alpha(h), d alpha / d psi) for one user embedding: a stack of one."""
        values, grads = self.alphas_and_grads(np.asarray(h)[None])
        return values[0], ParamSet.wrap(self.psi.layout, grads[0])

    def copy(self) -> "LrHead":
        return LrHead(self.input_dim, self.hidden_dims, self.scale, psi=self.psi.copy())


# ---------------------------------------------------------------------------
# configuration and result containers


@dataclasses.dataclass
class TrainerConfig:
    """Training knobs; fields specific to one algorithm are ignored by others."""

    algorithm: str = "paml"
    outer_lr: Optional[float] = None  # default 5e-5, 5e-6 for paml
    fixed_inner_lr: float = 1e-5
    epochs: int = 20
    batch_size: int = 32
    gamma: float = 1e-3
    warmup_epochs: int = 1
    warmup_inner_lr: float = 5e-4
    embedding_dim: int = 32
    decision_dims: Tuple[int, ...] = (320, 192, 1)
    lr_hidden_dims: Tuple[int, ...] = (64, 32)
    lr_scale: float = LR_HEAD_SCALE
    grad_clip: float = 10.0
    meta_sgd_init: float = 1e-5
    tree_capacity: int = DEFAULT_CAPACITY
    tree_delta: float = DEFAULT_DELTA
    tree_sigma: float = DEFAULT_SIGMA
    tree_neighbors_train: int = 20
    tree_neighbors_infer: int = 5
    tree_eviction: str = "lru"
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        self.decision_dims = tuple(int(d) for d in self.decision_dims)
        self.lr_hidden_dims = tuple(int(d) for d in self.lr_hidden_dims)
        for name, floor in _INT_FLOORS:
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        if self.outer_lr is not None and (not math.isfinite(self.outer_lr) or self.outer_lr < 0):
            raise ConfigError("outer_lr must be finite and >= 0")
        for name in ("fixed_inner_lr", "warmup_inner_lr", "meta_sgd_init", "lr_scale", "grad_clip"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and positive")
        if not math.isfinite(self.gamma) or self.gamma < 0.0:
            raise ConfigError("gamma must be finite and >= 0")
        if not self.decision_dims or self.decision_dims[-1] != 1:
            raise ConfigError("decision_dims must end in the 1-wide rating output, "
                              f"got {self.decision_dims}")
        for name in ("decision_dims", "lr_hidden_dims"):
            if min(getattr(self, name), default=1) < 1:
                raise ConfigError(f"{name} widths must be >= 1, got {getattr(self, name)}")
        check_kernel_params(self.tree_delta, self.tree_sigma, "tree_")
        if self.tree_eviction not in EVICTION_POLICIES:
            raise ConfigError(f"unknown tree_eviction {self.tree_eviction!r}; "
                              f"expected one of {EVICTION_POLICIES}")

    @property
    def resolved_outer_lr(self) -> float:
        if self.outer_lr is not None:
            return float(self.outer_lr)
        return OUTER_LR_PAML if self.algorithm == "paml" else OUTER_LR_DEFAULT

    def effective_gamma(self) -> float:
        return self.gamma if self.algorithm == "reg-paml" else 0.0

    def uses_lr_head(self) -> bool:
        return self.algorithm in ("paml", "at-paml", "reg-paml")


@dataclasses.dataclass(frozen=True)
class EpisodeLog:
    """Per-episode quantities from one outer step, at the pre-step state."""

    user_key: object
    alpha: float  # scalar inner rate; mean of the vector for meta-sgd
    support_loss: float
    query_loss: float
    reg_value: float  # ||support grad||^2 * |alpha| (0 for per-parameter rates)
    support_grad_sq: float
    embedding_norm: float


@dataclasses.dataclass(frozen=True)
class StepLog:
    epoch: int
    step: int
    total_loss: float  # sum of query losses plus gamma times the penalties
    theta_grad_norm: float
    psi_grad_norm: float
    n_skipped: int
    episode_logs: Tuple[EpisodeLog, ...]


@dataclasses.dataclass
class GradientPass:
    """Summed exact outer gradients for one batch, before any update."""

    theta_grad: ParamSet
    psi_grad: Optional[ParamSet]
    msgd_grad: Optional[ParamSet]
    tree_node_ids: np.ndarray  # distinct tree nodes; the two arrays below align with it
    tree_emb_grads: np.ndarray
    tree_lr_grads: np.ndarray
    pending_stores: List[Tuple[np.ndarray, float]]
    episode_logs: Tuple[EpisodeLog, ...]
    total_loss: float
    n_skipped: int


@dataclasses.dataclass
class TrainedModel:
    """Parameters and companions retained from the best validation epoch."""

    algorithm: str
    spec: ModelSpec
    config: TrainerConfig
    theta: ParamSet
    lr_head: Optional[LrHead]
    meta_sgd_alpha: Optional[ParamSet]
    tree: Optional[TreeMemory]
    history: List[dict]
    step_logs: List[StepLog]
    best_epoch: Optional[int]


@dataclasses.dataclass(frozen=True)
class EvalRecord:
    user_key: object
    alpha: float
    predictions: np.ndarray
    targets: np.ndarray
    query_loss: float


class _Encoded(NamedTuple):
    user_key: object
    user_ids: np.ndarray
    support: tuple
    query: tuple


# ---------------------------------------------------------------------------
# episode-level operations


def _check_inner_rate(alpha_i) -> None:
    if isinstance(alpha_i, ParamSet):
        alpha_i.check_finite("inner rate vector")
        negative = alpha_i.flat < 0.0
        if negative.any():
            name = alpha_i.layout.entry_at(int(np.argmax(negative)))
            raise ConfigError(f"inner rate vector entry '{name}' has negative values")
        return
    value = float(alpha_i)
    if not math.isfinite(value):
        raise NumericError(f"inner rate must be finite, got {alpha_i!r}")
    if value < 0.0:
        raise ConfigError(f"inner rate must be >= 0, got {alpha_i!r}")


def adapt_with_gradient(theta: ParamSet, spec: ModelSpec, alpha_i, support):
    """One inner step on the support loss; returns (theta_i, support gradient)."""
    _check_inner_rate(alpha_i)
    g_s = grad(theta, spec, support)
    if not math.isfinite(g_s.loss):
        raise NumericError("support loss is not finite")
    g_s.check_finite("support gradient")
    return axpy_update(theta, g_s, alpha_i), g_s


def inner_adapt(theta: ParamSet, spec: ModelSpec, alpha_i, support) -> ParamSet:
    """theta_i = theta - alpha_i * support gradient, exactly one step."""
    return adapt_with_gradient(theta, spec, alpha_i, support)[0]


def _resolve_rates(config: TrainerConfig, head: Optional[LrHead], msgd_alpha, tree, h,
                   train: bool = False, warmup: bool = False) -> list:
    """Each user's inner rate, chosen by algorithm here and nowhere else.

    ``h`` holds one user embedding per row.  Returns one (alpha,
    dalpha_dpsi, neighbors) per row: a scalar rate or the meta-sgd rate
    vector, the head gradient (a flat row) or None, and the blended tree
    ``Neighbors`` or None.  A rate depends on the embedding only, so the
    head runs once over the distinct rows and at-paml searches the tree
    once per distinct row; rows with equal bytes share one rate object.
    Training (``train``) differentiates the head, blends
    ``tree_neighbors_train`` stored rates and then touches each row's hits
    in row order, and gives at-paml its fixed rate during warm-up.
    Evaluation blends ``tree_neighbors_infer`` rates and writes no state.
    """
    algorithm = config.algorithm
    n_users = len(h)
    if algorithm == "meta-sgd":
        return [(msgd_alpha, None, None)] * n_users
    if algorithm in ("maml-fixed", "transfer"):
        return [(config.fixed_inner_lr, None, None)] * n_users
    if algorithm == "at-paml" and warmup:
        return [(config.warmup_inner_lr, None, None)] * n_users
    h = np.ascontiguousarray(h, dtype=np.float64)
    # rows keyed by their bytes, so -0.0 and 0.0, or two NaN payloads, stay apart
    keys = h.view(np.dtype((np.void, h.itemsize * h.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct, inverse = h[first], inverse.tolist()
    if train:
        alphas, dalphas = head.alphas_and_grads(distinct)
    else:
        alphas, dalphas = head.alphas(distinct), [None] * len(first)
    found = [None] * len(first)
    if algorithm == "at-paml" and tree is not None and len(tree) > 0:
        k = config.tree_neighbors_train if train else config.tree_neighbors_infer
        for j, h_j in enumerate(distinct):
            alpha_tilde, found[j] = tree.blended_lr(h_j, k, touch=False)
            alphas[j] = alphas[j] + alpha_tilde
        if train:
            for j in inverse:
                tree.touch(found[j].ids)
    return [(alphas[j], dalphas[j], found[j]) for j in inverse]


def _resolve_rate(config: TrainerConfig, head: Optional[LrHead], msgd_alpha, tree, h,
                  train: bool = False, warmup: bool = False):
    """`_resolve_rates` for one user embedding, with the head gradient as a ParamSet."""
    alpha, dalpha_dpsi, neighbors = _resolve_rates(config, head, msgd_alpha, tree,
                                                   np.asarray(h)[None], train, warmup)[0]
    if dalpha_dpsi is not None:
        dalpha_dpsi = ParamSet.wrap(head.psi.layout, dalpha_dpsi)
    return alpha, dalpha_dpsi, neighbors


def logged_rate(alpha) -> float:
    """The scalar a rate is logged as: itself, or the mean of a rate vector."""
    if isinstance(alpha, ParamSet):
        return float(np.mean(alpha.flat))
    return float(alpha)


def _per_distinct(fn, values) -> list:
    """``fn(value)`` for each value, called once per distinct object."""
    results = {}
    for value in values:
        if id(value) not in results:
            results[id(value)] = fn(value)
    return [results[id(value)] for value in values]


def logged_rates(alphas) -> List[float]:
    """`logged_rate` of each rate, computed once per distinct rate object."""
    return _per_distinct(logged_rate, alphas)


def _clip_to_norm(g: ParamSet, max_norm: float) -> Tuple[ParamSet, float]:
    norm = g.norm()
    if norm > max_norm:
        return g.scale(max_norm / norm), norm
    return g, norm


def _clamp_nonnegative(ps: ParamSet) -> ParamSet:
    return ParamSet.wrap(ps.layout, np.maximum(ps.flat, 0.0))


def _model_spec(splits: DatasetSplits, config: TrainerConfig) -> ModelSpec:
    return ModelSpec(
        user_vocab_sizes=splits.user_vocab_sizes(),
        item_vocab_sizes=splits.item_vocab_sizes(),
        embedding_dim=config.embedding_dim,
        decision_dims=config.decision_dims,
    )


def _encode_split(splits: DatasetSplits, episodes: Sequence[TaskEpisode],
                  spec: ModelSpec, pooled: bool = False) -> list:
    """Encode a split's support and query sets, checked against ``spec`` together once.

    ``pooled`` returns one checked episode of each user's support and query
    rows together, as transfer trains on, in place of ``_Encoded`` pairs.
    """
    def parts():
        for episode in episodes:
            user_ids, s_items, s_targets = splits.encode(episode.user, episode.support)
            _, q_items, q_targets = splits.encode(episode.user, episode.query)
            if pooled:
                yield (user_ids, np.concatenate([s_items, q_items], axis=0),
                       np.concatenate([s_targets, q_targets]))
            else:
                yield user_ids, s_items, s_targets
                yield user_ids, q_items, q_targets

    checked = check_episodes(spec, parts())
    if pooled:
        return checked
    return [_Encoded(episode.user.user_id, support[0], support, query)
            for episode, support, query in zip(episodes, checked[0::2], checked[1::2])]


def _pooled_loss(theta: ParamSet, spec: ModelSpec, pooled, batch_size: int) -> float:
    """Item-weighted mean loss over ``pooled``, summed episode by episode in
    order; the predictions come from stacks of at most ``batch_size``."""
    total_items = sum(items.shape[0] for _, items, _ in pooled)
    total = 0.0
    for (_, items, targets), predictions in zip(pooled, predict_many(theta, spec, pooled,
                                                                     batch_size)):
        total += loss(predictions, targets) * items.shape[0]
    return total / total_items


def _adapt_stage(flat, spec: ModelSpec, layout, episodes, positions, errors: dict, name: str):
    """`grad_stack` over equal-shape ``episodes``, which sit at ``positions``.

    An episode whose forward pass, ``name`` loss or ``name`` gradient goes
    non-finite gets the first of those errors, the one a one-episode pass
    would raise, in ``errors``, keyed by its position, unless an earlier
    stage put one there.  Returns the StackGradient of every episode.
    """
    g = grad_stack(flat, spec, stack_episodes(spec, episodes))
    # each update overrides the last: the gradient, the loss, the forward pass
    stage_errors = nonfinite_rows(layout, g.rows, f"{name} gradient")
    stage_errors.update((index, NumericError(f"{name} loss is not finite"))
                        for index in np.flatnonzero(~np.isfinite(g.losses)).tolist())
    stage_errors.update(g.failed)
    for index, exc in stage_errors.items():
        errors.setdefault(positions[index], exc)
    return g


def _rate_error(alpha) -> Optional[Exception]:
    """The error `_check_inner_rate` raises for ``alpha``, or None."""
    try:
        _check_inner_rate(alpha)
    except (NumericError, ConfigError) as exc:
        return exc
    return None


def _shape_groups(episodes: Sequence[_Encoded], alphas, errors: dict,
                  limit: Optional[int] = None) -> List[List[int]]:
    """Positions of the episodes in shape groups: equal support and query
    row counts, first-appearance order, at most ``limit`` to a group.  An
    episode whose rate fails `_check_inner_rate` gets the error a
    one-episode pass would raise in ``errors`` and stays in its group.
    Each distinct rate object (one per user profile, meta-sgd's vector, a
    fixed rate) is checked once."""
    for i, exc in enumerate(_per_distinct(_rate_error, alphas)):
        if exc is not None:
            errors[i] = exc
    return shape_groups([(len(ep.support[2]), len(ep.query[2])) for ep in episodes], limit)


def _steps(alphas) -> np.ndarray:
    """A shape group's rates: a (B, 1) column of scalars, or meta-sgd's shared vector."""
    return alphas[0].flat if isinstance(alphas[0], ParamSet) else np.array(alphas)[:, None]


def _inner_step(flat: np.ndarray, rows: np.ndarray, step: np.ndarray, out=None) -> np.ndarray:
    """theta - step * g_i for each row g_i, as `axpy_update` computes it,
    written into ``out`` (which may be ``rows``) or a new stack."""
    out = np.multiply(rows, step, out=out)
    return np.subtract(flat, out, out=out)


def _sum_tree_gradients(parts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node sums of the episodes' (node ids, embedding grads, lr grads).

    ``np.add.at`` adds each node's terms onto zeros in episode order.
    """
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty((0, 0)), np.empty(0)
    ids = np.concatenate([p[0] for p in parts])
    node_ids, inverse = np.unique(ids, return_inverse=True)
    emb_sum = np.zeros((len(node_ids), parts[0][1].shape[1]))
    np.add.at(emb_sum, inverse, np.concatenate([p[1] for p in parts]))
    lr_sum = np.zeros(len(node_ids))
    np.add.at(lr_sum, inverse, np.concatenate([p[2] for p in parts]))
    return node_ids, emb_sum, lr_sum


# ---------------------------------------------------------------------------
# the trainer


class MetaTrainer:
    """Episode-batched trainer for all six algorithms; transfer's episodes are pooled."""

    def __init__(self, splits: DatasetSplits, config: TrainerConfig):
        if not splits.train:
            raise DataError("empty train split")
        self.config = config
        self.splits = splits
        self.spec = _model_spec(splits, config)
        self.train_episodes = _encode_split(splits, splits.train, self.spec,
                                            pooled=config.algorithm == "transfer")
        self.val_episodes = _encode_split(splits, splits.validation, self.spec)
        self.theta = init_params(self.spec, (config.seed, 0))
        self.head = None
        if config.uses_lr_head():
            self.head = LrHead(self.spec.user_width, config.lr_hidden_dims,
                               config.lr_scale, seed=(config.seed, 1))
        self.msgd_alpha = None
        if config.algorithm == "meta-sgd":
            self.msgd_alpha = self.theta.fill(config.meta_sgd_init)
        self.tree = None
        if config.algorithm == "at-paml":
            self.tree = TreeMemory(
                dim=self.spec.user_width,
                capacity=config.tree_capacity,
                delta=config.tree_delta,
                sigma=config.tree_sigma,
                eviction=config.tree_eviction,
            )
        self.step_logs: List[StepLog] = []
        self.history: List[dict] = []

    # -- gradients -----------------------------------------------------------

    def _group_pass(self, batch, group, rates, logged, h, gamma, results: dict) -> None:
        """One shape group's stages over every episode in it, failing ones
        included, with numpy's overflow and invalid warnings off; then the
        terms of each episode that no stage failed."""
        cfg, spec, theta = self.config, self.spec, self.theta
        support = [batch[i].support for i in group]
        a = _steps([rates[i][0] for i in group])
        with np.errstate(invalid="ignore", over="ignore"):
            s = _adapt_stage(theta.flat, spec, theta.layout, support, group, results, "support")
            q = _adapt_stage(_inner_step(theta.flat, s.rows, a), spec, theta.layout,
                             [batch[i].query for i in group], group, results, "query")
            g_s, g_q, q_losses = s.rows, q.rows, q.losses
            del q  # its tape holds the inner-step stack
            grad_sq = row_dots(theta.layout, g_s, g_s)
            s_dot_q = row_dots(theta.layout, g_s, g_q)
            # v = 2 gamma a g_s - a g_q, added as (-a g_q) + ..., rounds alike,
            # and H(-x) = -H(x) exactly.  At gamma = 0 only zeros in v and H v
            # can change sign, which theta_grad, a sum from +0, does not keep.
            v = g_q * -a
            if gamma != 0.0:
                v += g_s * (2.0 * gamma * a)
            theta_rows = hvp(theta, spec, support, v, at=s)
            theta_rows += g_q
            msgd_rows = None if self.msgd_alpha is None else (g_s * g_q) * -1.0
        for k, i in enumerate(group):
            if i in results:
                continue
            alpha, dalpha_dpsi, neighbors = rates[i]
            sq = float(grad_sq[k])
            reg_value = 0.0 if msgd_rows is not None else sq * abs(alpha)
            upstream = gamma * sq - float(s_dot_q[k])  # d(objective)/d(alpha)
            ep_psi = None if dalpha_dpsi is None else dalpha_dpsi * upstream
            ep_tree = None
            if neighbors is not None:
                ep_tree = (neighbors.ids,) + blend_gradients(
                    h[i], neighbors, upstream, cfg.tree_delta, cfg.tree_sigma)
            store = (h[i], alpha) if self.tree is not None else None
            log = EpisodeLog(batch[i].user_key, logged[i], float(s.losses[k]),
                             float(q_losses[k]), reg_value, sq, float(np.linalg.norm(h[i])))
            results[i] = (theta_rows[k], ep_psi, None if msgd_rows is None else msgd_rows[k],
                          ep_tree, store, log)

    def outer_gradients(self, batch: Sequence[_Encoded], warmup: bool = False) -> GradientPass:
        """Exact outer gradients of the batch objective at the current state.

        Episodes whose losses or gradients go non-finite are dropped with a
        warning; the pass fails only when nothing in the batch survives.
        Transfer's pass is the pooled gradient of its batch and drops nothing.
        """
        gamma = self.config.effective_gamma()
        if self.config.algorithm == "transfer":
            g = grad(self.theta, self.spec, batch)
            g.check_finite("pooled gradient")
            return GradientPass(g, None, None, *_sum_tree_gradients([]), [], (), g.loss, 0)
        theta_grad = np.zeros(self.theta.layout.size)
        psi_grad = np.zeros(self.head.psi.layout.size) if self.head is not None else None
        msgd_grad = np.zeros(self.theta.layout.size) if self.msgd_alpha is not None else None
        tree_parts: List[tuple] = []
        pending: List[Tuple[np.ndarray, float]] = []
        logs: List[EpisodeLog] = []
        total_loss = 0.0
        skipped = 0
        results = {}
        if batch:
            h = user_embedding(self.theta, self.spec, np.array([ep.user_ids for ep in batch]))
            rates = _resolve_rates(self.config, self.head, self.msgd_alpha, self.tree, h,
                                   train=True, warmup=warmup)
            alphas = [rate[0] for rate in rates]
            logged = logged_rates(alphas)
            for group in _shape_groups(batch, alphas, results):
                self._group_pass(batch, group, rates, logged, h, gamma, results)
        for i, ep in enumerate(batch):
            parts = results[i]
            if isinstance(parts, Exception):
                if not isinstance(parts, NumericError):
                    raise parts
                warnings.warn(f"dropping episode for user {ep.user_key!r}: {parts}")
                skipped += 1
                continue
            ep_theta, ep_psi, ep_msgd, ep_tree, store, log = parts
            theta_grad += ep_theta
            if ep_psi is not None:
                psi_grad += ep_psi
            if ep_msgd is not None:
                msgd_grad += ep_msgd
            if ep_tree is not None:
                tree_parts.append(ep_tree)
            if store is not None:
                pending.append(store)
            logs.append(log)
            total_loss += log.query_loss + gamma * log.reg_value
        if not logs:
            raise NumericError("every episode in the batch failed with a numeric error")
        return GradientPass(
            ParamSet.wrap(self.theta.layout, theta_grad),
            None if psi_grad is None else ParamSet.wrap(self.head.psi.layout, psi_grad),
            None if msgd_grad is None else ParamSet.wrap(self.theta.layout, msgd_grad),
            *_sum_tree_gradients(tree_parts), pending, tuple(logs), total_loss, skipped)

    # -- updates ---------------------------------------------------------------

    def outer_step(self, batch: Sequence[_Encoded], warmup: bool = False,
                   epoch: int = 0, step: int = 0) -> StepLog:
        """One outer update of theta, the rate head or vector, and the tree."""
        cfg = self.config
        beta = cfg.resolved_outer_lr
        gradients = self.outer_gradients(batch, warmup)

        theta_grad, theta_norm = _clip_to_norm(gradients.theta_grad, cfg.grad_clip)
        new_theta = axpy_update(self.theta, theta_grad, beta)
        psi_norm = 0.0
        new_psi = None
        if gradients.psi_grad is not None:
            psi_grad, psi_norm = _clip_to_norm(gradients.psi_grad, cfg.grad_clip)
            new_psi = axpy_update(self.head.psi, psi_grad, beta)
        new_msgd = None
        if gradients.msgd_grad is not None:
            msgd_grad, _ = _clip_to_norm(gradients.msgd_grad, cfg.grad_clip)
            new_msgd = _clamp_nonnegative(axpy_update(self.msgd_alpha, msgd_grad, beta))
        try:
            new_theta.check_finite("updated theta")
            if new_psi is not None:
                new_psi.check_finite("updated rate head")
            if new_msgd is not None:
                new_msgd.check_finite("updated rate vector")
        except NumericError as exc:
            raise NumericError(
                f"{exc} [diagnostics: total_loss={gradients.total_loss!r} "
                f"theta_grad_norm={theta_norm!r} psi_grad_norm={psi_norm!r} "
                f"outer_lr={beta!r}]") from exc

        self.theta = new_theta
        if new_psi is not None:
            self.head.psi = new_psi
        if new_msgd is not None:
            self.msgd_alpha = new_msgd
        if self.tree is not None:
            if len(gradients.tree_node_ids):
                self.tree.update_nodes(gradients.tree_node_ids, gradients.tree_emb_grads,
                                       gradients.tree_lr_grads, beta)
            for h, lr in gradients.pending_stores:
                self.tree.store_node(h, lr)
        return StepLog(epoch, step, gradients.total_loss, theta_norm, psi_norm,
                       gradients.n_skipped, gradients.episode_logs)

    # -- training loop -----------------------------------------------------------

    def _snapshot(self):
        head = self.head.copy() if self.head is not None else None
        msgd = self.msgd_alpha.copy() if self.msgd_alpha is not None else None
        tree = copy.deepcopy(self.tree) if self.tree is not None else None
        return self.theta.copy(), head, msgd, tree

    def _validation_loss(self) -> Optional[float]:
        if not self.val_episodes:
            return None
        records = _evaluate_encoded(self.theta, self.spec, self.config, self.head,
                                    self.msgd_alpha, self.tree, self.val_episodes)
        return float(np.mean([r.query_loss for r in records]))

    def train(self) -> TrainedModel:
        cfg = self.config
        best_metric = math.inf
        best_epoch = None
        best_state = None
        for epoch in range(cfg.epochs):
            warmup = cfg.algorithm == "at-paml" and epoch < cfg.warmup_epochs
            order = np.random.default_rng((cfg.seed, 2, epoch)).permutation(
                len(self.train_episodes))
            train_loss = 0.0
            aborted = False
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                batch = [self.train_episodes[i] for i in order[start:start + cfg.batch_size]]
                try:
                    log = self.outer_step(batch, warmup=warmup, epoch=epoch, step=step)
                except NumericError as exc:
                    warnings.warn(f"epoch {epoch} aborted at step {step}: {exc}")
                    aborted = True
                    break
                self.step_logs.append(log)
                train_loss += log.total_loss
            if cfg.algorithm == "transfer":
                train_loss = _pooled_loss(self.theta, self.spec, self.train_episodes,
                                          cfg.batch_size)
            val_loss = self._validation_loss()
            self.history.append({"epoch": epoch, "warmup": bool(warmup),
                                 "aborted": bool(aborted), "train_loss": float(train_loss),
                                 "val_loss": val_loss})
            if val_loss is not None and val_loss < best_metric:
                best_metric = val_loss
                best_epoch = epoch
                best_state = self._snapshot()
        if best_state is None:
            best_state = self._snapshot()
        theta, head, msgd, tree = best_state
        return TrainedModel(cfg.algorithm, self.spec, cfg, theta, head, msgd, tree,
                            list(self.history), list(self.step_logs), best_epoch)


def train(splits: DatasetSplits, config: TrainerConfig) -> TrainedModel:
    """Train the configured algorithm on the train split."""
    return MetaTrainer(splits, config).train()


# ---------------------------------------------------------------------------
# evaluation


def inference_alphas(model: TrainedModel, h) -> list:
    """Inner rate the model would use for each row of a stack of user
    embeddings at inference time.

    Each is a scalar, or the per-parameter rate vector for meta-sgd; never
    touches tree recency state.
    """
    return [rate[0] for rate in _resolve_rates(model.config, model.lr_head,
                                               model.meta_sgd_alpha, model.tree, h)]


def inference_alpha(model: TrainedModel, h):
    """`inference_alphas` for one user embedding."""
    return inference_alphas(model, np.asarray(h)[None])[0]


def _evaluate_encoded(theta, spec, config, head, msgd_alpha, tree,
                      episodes: Sequence[_Encoded]) -> List[EvalRecord]:
    """Adapt each user on its support set and score its query set, in order.

    Users with equal support and query row counts run as stacks of at most
    ``batch_size``.  A failing user stays in its stack, and the call raises
    the error that scoring the users one at a time would have raised first.
    Otherwise each stack's query MSEs come from one row-wise mean, which
    gives every row the bits of `loss` on it, and each record holds row
    views of its stack's predictions and targets.
    """
    if not episodes:
        return []
    h = user_embedding(theta, spec, np.array([ep.user_ids for ep in episodes]))
    alphas = [rate[0] for rate in _resolve_rates(config, head, msgd_alpha, tree, h)]
    errors = {}
    stacks = []
    for group in _shape_groups(episodes, alphas, errors, config.batch_size):
        query = stack_episodes(spec, [episodes[i].query for i in group])
        with np.errstate(invalid="ignore", over="ignore"):
            g_s = _adapt_stage(theta.flat, spec, theta.layout,
                               [episodes[i].support for i in group], group, errors,
                               "support").rows
            thetas = _inner_step(theta.flat, g_s, _steps([alphas[i] for i in group]), out=g_s)
            rows, failed = predict_stack(thetas, spec, query)
        for index, exc in failed.items():
            errors.setdefault(group[index], exc)
        stacks.append((group, rows, query.targets))
    if errors:
        raise errors[min(errors)]
    logged = logged_rates(alphas)
    records = [None] * len(episodes)
    for group, rows, targets in stacks:
        r = rows - targets
        mses = np.mean(r * r, axis=1).tolist()
        for index, i in enumerate(group):
            records[i] = EvalRecord(episodes[i].user_key, logged[i], rows[index], targets[index],
                                    mses[index])
    return records


def evaluate(model: TrainedModel, episodes: Sequence[TaskEpisode],
             splits: DatasetSplits) -> List[EvalRecord]:
    """Adapt on each support set by the model's own rule and score the query set.

    Model parameters, the rate head, and the tree are read but never changed;
    at-paml looks up its inference neighbor count with touch disabled.
    """
    encoded = _encode_split(splits, episodes, model.spec)
    return _evaluate_encoded(model.theta, model.spec, model.config, model.lr_head,
                             model.meta_sgd_alpha, model.tree, encoded)


# ---------------------------------------------------------------------------
# checkpoints


def _config_json(config: TrainerConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


def config_digest(config: TrainerConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    return hashlib.sha256(_config_json(config).encode("utf-8")).hexdigest()


def _normalize_checkpoint_path(path) -> str:
    path = str(path)
    return path if path.endswith(".npz") else path + ".npz"


def tree_sidecar(path: str) -> str:
    """Where the tree of the checkpoint at ``path`` (ending in .npz) is dumped."""
    return path[: -len(".npz")] + ".tree.npz"


def save_checkpoint(model: TrainedModel, path) -> str:
    """Versioned parameter dump; a tree, when present, lands in <path>.tree.npz.

    Every array is written as float64/int64 without transformation, so a
    save/load round trip reproduces the parameters bit for bit.
    """
    path = _normalize_checkpoint_path(path)
    arrays = {
        "version": np.array([CHECKPOINT_VERSION], dtype=np.int64),
        "algorithm": np.array(model.algorithm),
        "config_json": np.array(_config_json(model.config)),
        "config_digest": np.array(config_digest(model.config)),
        "history_json": np.array(json.dumps(model.history)),
        "best_epoch": np.array(
            [-1 if model.best_epoch is None else model.best_epoch], dtype=np.int64),
        "spec_user_vocab_sizes": np.array(model.spec.user_vocab_sizes, dtype=np.int64),
        "spec_item_vocab_sizes": np.array(model.spec.item_vocab_sizes, dtype=np.int64),
        "spec_embedding_dim": np.array([model.spec.embedding_dim], dtype=np.int64),
        "spec_decision_dims": np.array(model.spec.decision_dims, dtype=np.int64),
    }
    for name, arr in model.theta.items():
        arrays["theta." + name] = arr
    if model.lr_head is not None:
        for name, arr in model.lr_head.psi.items():
            arrays["psi." + name] = arr
    if model.meta_sgd_alpha is not None:
        for name, arr in model.meta_sgd_alpha.items():
            arrays["msgd." + name] = arr
    np.savez(path, **arrays)
    if model.tree is not None:
        model.tree.dump(tree_sidecar(path))
    return path


def _stored_params(data, prefix: str, shapes: dict) -> ParamSet:
    """The checkpoint's ``prefix`` entries, each checked against ``shapes``."""
    entries = {}
    for name, shape in shapes.items():
        key = prefix + name
        if key not in data.files:
            raise DataError(f"checkpoint has no entry '{key}'")
        entries[name] = data[key]
        if entries[name].shape != shape:
            raise DataError(f"checkpoint entry '{key}' has shape {entries[name].shape}, "
                            f"expected {shape}")
    return ParamSet(entries)


def load_checkpoint(path) -> TrainedModel:
    """Rebuild a TrainedModel from save_checkpoint output (step logs excluded)."""
    path = _normalize_checkpoint_path(path)
    if not os.path.exists(path):
        raise DataError(f"checkpoint file not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint version {version} is not supported "
                              f"(expected {CHECKPOINT_VERSION})")
        config_json = str(data["config_json"][()])
        stored_digest = str(data["config_digest"][()])
        actual = hashlib.sha256(config_json.encode("utf-8")).hexdigest()
        if actual != stored_digest:
            raise ConfigError("checkpoint config digest does not match its config")
        stored = json.loads(config_json)
        if stored.pop("freeze_alpha", None) is not None:
            raise ConfigError("checkpoint pins the paml rate with the retired freeze_alpha "
                              "and has no rate head; train maml-fixed with fixed_inner_lr "
                              "for a constant rate")
        output_kind = stored.pop("output_kind", "rating-regression")
        if output_kind != "rating-regression":
            raise ConfigError(f"checkpoint was trained with output_kind {output_kind!r}; "
                              "the model is rating-regression only")
        if (psi_rule := stored.pop("psi_update_rule", "exact")) != "exact":
            raise ConfigError(f"checkpoint was trained with psi_update_rule {psi_rule!r}; "
                              "the rate head trains on the exact outer gradient only")
        config = TrainerConfig(**{k: v for k, v in stored.items()
                                  if k not in RETIRED_TREE_KEYS})
        spec = ModelSpec(
            user_vocab_sizes=tuple(int(v) for v in data["spec_user_vocab_sizes"]),
            item_vocab_sizes=tuple(int(v) for v in data["spec_item_vocab_sizes"]),
            embedding_dim=int(data["spec_embedding_dim"][0]),
            decision_dims=tuple(int(v) for v in data["spec_decision_dims"]),
        )
        shapes = expected_entry_shapes(spec)
        theta = _stored_params(data, "theta.", shapes)
        head = None
        if any(key.startswith("psi.") for key in data.files):
            psi = _stored_params(data, "psi.",
                                 _head_entry_shapes(spec.user_width, config.lr_hidden_dims))
            head = LrHead(spec.user_width, config.lr_hidden_dims, config.lr_scale, psi=psi)
        msgd = None
        if any(key.startswith("msgd.") for key in data.files):
            msgd = _stored_params(data, "msgd.", shapes)
        history = json.loads(str(data["history_json"][()]))
        best_epoch = int(data["best_epoch"][0])
    tree = None
    sidecar = tree_sidecar(path)
    if os.path.exists(sidecar):
        tree = TreeMemory.load(sidecar)
        if tree.dim != spec.user_width:
            raise DataError(f"tree sidecar {sidecar} holds {tree.dim}-wide embeddings; "
                            f"the checkpoint's users are {spec.user_width} wide")
    return TrainedModel(config.algorithm, spec, config, theta, head, msgd, tree,
                        history, [], None if best_epoch < 0 else best_epoch)
