"""Meta-learning trainers with embedding-conditioned inner learning rates.

Six algorithms share one episode-level trainer skeleton:

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
theta, realized as one Hessian-vector product per episode.  For meta-sgd the
per-parameter rate vector a gives dJ/dtheta = sum_i g_q_i - H_i @ (a * g_q_i)
and dJ/da = sum_i -(g_s_i * g_q_i) elementwise.  The user embedding h_i that
feeds the rate head and the tree is treated as an input: no gradient flows
from alpha_i back into the embedding tables, which keeps the update the exact
gradient of J as written above and makes it checkable by finite differences.

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
from .memory_tree import EVICTION_POLICIES, TreeMemory, blend_gradients
from .model import (
    ModelSpec,
    check_episode,
    expected_entry_names,
    forward,  # unused here; kept importable for callers that wrap meta_learners.forward
    grad,
    hvp,
    init_dense_stack,
    init_params,
    loss,
    predict,
    user_embedding,
)
from .params import ParamSet, axpy_update
from .tasks import DatasetSplits, TaskEpisode

__all__ = [
    "ALGORITHMS",
    "PSI_UPDATE_RULES",
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
    "train",
    "transfer_train",
    "evaluate",
    "config_digest",
    "save_checkpoint",
    "load_checkpoint",
]

ALGORITHMS = ("paml", "at-paml", "reg-paml", "maml-fixed", "meta-sgd", "transfer")
# "exact" backpropagates the outer objective through alpha into the head;
# "ascent" adds +beta * sum_i L_query_i * dalpha_i/dpsi instead (a sign-flipped,
# loss-scaled variant kept only for comparison; it is not the gradient of J).
PSI_UPDATE_RULES = ("exact", "ascent")
LR_HEAD_SCALE = 1e-3
OUTER_LR_DEFAULT = 5e-5
OUTER_LR_PAML = 5e-6
CHECKPOINT_VERSION = 1
# kd-tree search settings that older checkpoints still carry in their config
RETIRED_TREE_KEYS = ("tree_search_mode", "tree_leaf_size", "tree_num_random_trees",
                     "tree_checks_budget")


# ---------------------------------------------------------------------------
# learning-rate head


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
        expected = tuple(
            name for layer in range(len(dims)) for name in (f"lr_W{layer}", f"lr_b{layer}")
        )
        if psi.names() != expected:
            raise ConfigError(f"rate-head layout {psi.names()} does not match {expected}")
        self.psi = psi

    def n_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def _forward(self, h):
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.input_dim,):
            raise ConfigError(f"embedding shape {h.shape} does not match head input "
                              f"({self.input_dim},)")
        acts = [h]
        preacts = []
        a = h
        n = self.n_layers()
        for layer in range(n):
            z = self.psi[f"lr_W{layer}"] @ a + self.psi[f"lr_b{layer}"]
            preacts.append(z)
            if layer < n - 1:
                a = np.maximum(z, 0.0)
                acts.append(a)
        logit = float(preacts[-1][0])
        with np.errstate(over="ignore"):
            sig = float(1.0 / (1.0 + np.exp(-logit)))
        return self.scale * sig, sig, acts, preacts

    def alpha(self, h) -> float:
        """Inner learning rate for one user embedding."""
        return self._forward(h)[0]

    def alpha_and_grad(self, h) -> Tuple[float, ParamSet]:
        """(alpha(h), d alpha / d psi); the embedding is treated as an input."""
        value, sig, acts, preacts = self._forward(h)
        gz = np.array([self.scale * sig * (1.0 - sig)])
        layout = self.psi.layout
        flat = np.empty(layout.size)
        grads = layout.views(flat)
        n = self.n_layers()
        for layer in range(n - 1, -1, -1):
            if layer < n - 1:
                gz = gz * (preacts[layer] > 0.0).astype(np.float64)
            np.outer(gz, acts[layer], out=grads[f"lr_W{layer}"])
            grads[f"lr_b{layer}"][...] = gz
            gz = self.psi[f"lr_W{layer}"].T @ gz
        return value, ParamSet.wrap(layout, flat)

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
    output_kind: str = "rating-regression"
    lr_hidden_dims: Tuple[int, ...] = (64, 32)
    lr_scale: float = LR_HEAD_SCALE
    grad_clip: float = 10.0
    psi_update_rule: str = "exact"
    meta_sgd_init: float = 1e-5
    tree_capacity: int = 10000
    tree_delta: float = 2.0
    tree_sigma: float = 1e-5
    tree_neighbors_train: int = 20
    tree_neighbors_infer: int = 5
    tree_eviction: str = "lru"
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        self.decision_dims = tuple(int(d) for d in self.decision_dims)
        self.lr_hidden_dims = tuple(int(d) for d in self.lr_hidden_dims)
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.outer_lr is not None and (not math.isfinite(self.outer_lr) or self.outer_lr < 0):
            raise ConfigError("outer_lr must be finite and >= 0")
        for name in ("fixed_inner_lr", "warmup_inner_lr", "meta_sgd_init", "lr_scale", "grad_clip"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and positive")
        if not math.isfinite(self.gamma) or self.gamma < 0.0:
            raise ConfigError("gamma must be finite and >= 0")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if not self.decision_dims:
            raise ConfigError("decision_dims must not be empty")
        if self.output_kind not in ("rating-regression", "ctr-softmax"):
            raise ConfigError(f"unknown output_kind {self.output_kind!r}")
        if self.psi_update_rule not in PSI_UPDATE_RULES:
            raise ConfigError(
                f"unknown psi_update_rule {self.psi_update_rule!r}; expected one of "
                f"{PSI_UPDATE_RULES}")
        if self.tree_neighbors_train < 1 or self.tree_neighbors_infer < 1:
            raise ConfigError("tree neighbor counts must be >= 1")
        if self.tree_capacity < 1:
            raise ConfigError("tree_capacity must be >= 1")
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
    if not math.isfinite(value) or value < 0.0:
        raise ConfigError(f"inner rate must be finite and >= 0, got {alpha_i!r}")


def adapt_with_gradient(theta: ParamSet, spec: ModelSpec, alpha_i, support):
    """One inner step on the support loss; returns (theta_i, support gradient)."""
    _check_inner_rate(alpha_i)
    g_s = grad(theta, spec, support, spec.loss_kind())
    if not math.isfinite(g_s.loss):
        raise NumericError("support loss is not finite")
    g_s.check_finite("support gradient")
    return axpy_update(theta, g_s, alpha_i), g_s


def inner_adapt(theta: ParamSet, spec: ModelSpec, alpha_i, support) -> ParamSet:
    """theta_i = theta - alpha_i * support gradient, exactly one step."""
    return adapt_with_gradient(theta, spec, alpha_i, support)[0]


def _resolve_rate(config: TrainerConfig, head: Optional[LrHead], msgd_alpha, tree, h,
                  train: bool = False, warmup: bool = False):
    """Each user's inner rate, chosen by algorithm here and nowhere else.

    Returns (alpha, dalpha_dpsi, neighbors): a scalar rate or the meta-sgd
    rate vector, the head gradient, and the tree neighbors that were blended.
    Training (``train``) differentiates the head, blends
    ``tree_neighbors_train`` stored rates with touch, and gives at-paml its
    fixed rate during warm-up.  Evaluation blends ``tree_neighbors_infer``
    rates without touch and writes no state.
    """
    algorithm = config.algorithm
    if algorithm == "meta-sgd":
        return msgd_alpha, None, []
    if algorithm in ("maml-fixed", "transfer"):
        return config.fixed_inner_lr, None, []
    if algorithm == "at-paml" and warmup:
        return config.warmup_inner_lr, None, []
    if train:
        alpha, dalpha_dpsi = head.alpha_and_grad(h)
    else:
        alpha, dalpha_dpsi = head.alpha(h), None
    neighbors = []
    if algorithm == "at-paml" and tree is not None and len(tree) > 0:
        k = config.tree_neighbors_train if train else config.tree_neighbors_infer
        alpha_tilde, neighbors = tree.blended_lr(h, k, touch=train)
        alpha = alpha + alpha_tilde
    return alpha, dalpha_dpsi, neighbors


def logged_rate(alpha) -> float:
    """The scalar a rate is logged as: itself, or the mean of a rate vector."""
    if isinstance(alpha, ParamSet):
        return float(np.mean(alpha.flat))
    return float(alpha)


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
        output_kind=config.output_kind,
    )


def _encode_episode(splits: DatasetSplits, episode: TaskEpisode, spec: ModelSpec) -> _Encoded:
    """Encode one user's support and query sets, each checked against ``spec`` once."""
    user_ids, s_items, s_targets = splits.encode(episode.user, episode.support)
    _, q_items, q_targets = splits.encode(episode.user, episode.query)
    support = check_episode(spec, user_ids, s_items, s_targets)
    return _Encoded(episode.user.user_id, support[0], support,
                    check_episode(spec, user_ids, q_items, q_targets))


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
    """Episode-batched trainer for all gradient meta-learning algorithms."""

    def __init__(self, splits: DatasetSplits, config: TrainerConfig):
        if config.algorithm == "transfer":
            raise ConfigError("transfer is trained by transfer_train, not MetaTrainer")
        if not splits.train:
            raise DataError("empty train split")
        self.config = config
        self.splits = splits
        self.spec = _model_spec(splits, config)
        self.train_episodes = [_encode_episode(splits, ep, self.spec) for ep in splits.train]
        self.val_episodes = [_encode_episode(splits, ep, self.spec) for ep in splits.validation]
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

    def _episode_pass(self, ep: _Encoded, warmup: bool, gamma: float, kind: str):
        cfg = self.config
        h = user_embedding(self.theta, self.spec, ep.user_ids)
        alpha, dalpha_dpsi, neighbors = _resolve_rate(
            cfg, self.head, self.msgd_alpha, self.tree, h, train=True, warmup=warmup)
        store = (h, alpha) if self.tree is not None else None
        theta_i, g_s = adapt_with_gradient(self.theta, self.spec, alpha, ep.support)
        grad_sq = g_s.dot(g_s)

        g_q = grad(theta_i, self.spec, ep.query, kind)
        if not math.isfinite(g_q.loss):
            raise NumericError("query loss is not finite")
        g_q.check_finite("query gradient")

        ep_msgd_grad = None
        reg_value = 0.0
        if isinstance(alpha, ParamSet):
            hv = hvp(self.theta, self.spec, ep.support, kind, alpha.mul(g_q), at=g_s)
            ep_theta_grad = g_q.sub(hv)
            ep_msgd_grad = g_s.mul(g_q).scale(-1.0)
        else:
            reg_value = grad_sq * abs(alpha)
            if alpha == 0.0:
                ep_theta_grad = g_q.copy()
            else:
                v = g_s.scale(2.0 * gamma * alpha).sub(g_q.scale(alpha))
                hv = hvp(self.theta, self.spec, ep.support, kind, v, at=g_s)
                ep_theta_grad = g_q.add(hv)

        # d(objective)/d(alpha); only the head gradient and the tree use it
        if dalpha_dpsi is not None or neighbors:
            upstream = gamma * grad_sq - g_s.dot(g_q)
        ep_psi_grad = None
        if dalpha_dpsi is not None:
            if cfg.psi_update_rule == "exact":
                ep_psi_grad = dalpha_dpsi.scale(upstream)
            else:
                ep_psi_grad = dalpha_dpsi.scale(-g_q.loss)
        ep_tree = None
        if neighbors:
            ep_tree = ([nb.node_id for nb in neighbors],) + blend_gradients(
                h, neighbors, upstream, cfg.tree_delta, cfg.tree_sigma)

        log = EpisodeLog(ep.user_key, logged_rate(alpha), g_s.loss, g_q.loss, reg_value,
                         grad_sq, float(np.linalg.norm(h)))
        return ep_theta_grad, ep_psi_grad, ep_msgd_grad, ep_tree, store, log

    def outer_gradients(self, batch: Sequence[_Encoded], warmup: bool = False) -> GradientPass:
        """Exact outer gradients of the batch objective at the current state.

        Episodes whose losses or gradients go non-finite are dropped with a
        warning; the pass fails only when nothing in the batch survives.
        """
        gamma = self.config.effective_gamma()
        kind = self.spec.loss_kind()
        theta_grad = self.theta.zeros_like()
        psi_grad = self.head.psi.zeros_like() if self.head is not None else None
        msgd_grad = self.msgd_alpha.zeros_like() if self.msgd_alpha is not None else None
        tree_parts: List[tuple] = []
        pending: List[Tuple[np.ndarray, float]] = []
        logs: List[EpisodeLog] = []
        total_loss = 0.0
        skipped = 0
        for ep in batch:
            try:
                parts = self._episode_pass(ep, warmup, gamma, kind)
            except NumericError as exc:
                warnings.warn(f"dropping episode for user {ep.user_key!r}: {exc}")
                skipped += 1
                continue
            ep_theta, ep_psi, ep_msgd, ep_tree, store, log = parts
            theta_grad = theta_grad.add(ep_theta)
            if ep_psi is not None:
                psi_grad = psi_grad.add(ep_psi)
            if ep_msgd is not None:
                msgd_grad = msgd_grad.add(ep_msgd)
            if ep_tree is not None:
                tree_parts.append(ep_tree)
            if store is not None:
                pending.append(store)
            logs.append(log)
            total_loss += log.query_loss + gamma * log.reg_value
        if not logs:
            raise NumericError("every episode in the batch failed with a numeric error")
        return GradientPass(theta_grad, psi_grad, msgd_grad, *_sum_tree_gradients(tree_parts),
                            pending, tuple(logs), total_loss, skipped)

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
    if config.algorithm == "transfer":
        return transfer_train(splits, config)
    return MetaTrainer(splits, config).train()


# ---------------------------------------------------------------------------
# transfer baseline


def _pooled_loss(theta: ParamSet, spec: ModelSpec, pooled, kind: str) -> float:
    total_items = sum(items.shape[0] for _, items, _ in pooled)
    total = 0.0
    for episode in pooled:
        _, items, targets = episode
        total += loss(kind, predict(theta, spec, episode), targets) * items.shape[0]
    return total / total_items


def transfer_train(splits: DatasetSplits, config: TrainerConfig) -> TrainedModel:
    """Pooled supervised training over every train interaction of every user."""
    if config.algorithm != "transfer":
        raise ConfigError(f"transfer_train got algorithm {config.algorithm!r}")
    if not splits.train:
        raise DataError("empty train split")
    spec = _model_spec(splits, config)
    kind = spec.loss_kind()
    pooled = []
    for episode in splits.train:
        encoded = _encode_episode(splits, episode, spec)
        s_ids, s_items, s_targets = encoded.support
        _, q_items, q_targets = encoded.query
        pooled.append(check_episode(spec, s_ids, np.concatenate([s_items, q_items], axis=0),
                                    np.concatenate([s_targets, q_targets])))
    val_episodes = [_encode_episode(splits, ep, spec) for ep in splits.validation]

    theta = init_params(spec, (config.seed, 0))
    beta = config.resolved_outer_lr
    history: List[dict] = []
    best_metric = math.inf
    best_epoch = None
    best_theta = None
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, 2, epoch)).permutation(len(pooled))
        for start in range(0, len(order), config.batch_size):
            batch = [pooled[i] for i in order[start:start + config.batch_size]]
            g = grad(theta, spec, batch, kind)
            g.check_finite("pooled gradient")
            clipped, _ = _clip_to_norm(g, config.grad_clip)
            theta = axpy_update(theta, clipped, beta)
            theta.check_finite("updated pooled theta")
        train_loss = _pooled_loss(theta, spec, pooled, kind)
        val_loss = None
        if val_episodes:
            records = _evaluate_encoded(theta, spec, config, None, None, None, val_episodes)
            val_loss = float(np.mean([r.query_loss for r in records]))
        history.append({"epoch": epoch, "warmup": False, "aborted": False,
                        "train_loss": float(train_loss), "val_loss": val_loss})
        if val_loss is not None and val_loss < best_metric:
            best_metric = val_loss
            best_epoch = epoch
            best_theta = theta.copy()
    if best_theta is None:
        best_theta = theta.copy()
    return TrainedModel("transfer", spec, config, best_theta, None, None, None,
                        history, [], best_epoch)


# ---------------------------------------------------------------------------
# evaluation


def inference_alpha(model: TrainedModel, h):
    """Inner rate the model would use for a user embedding at inference time.

    Returns a scalar, or the per-parameter rate vector for meta-sgd; never
    touches tree recency state.
    """
    return _resolve_rate(model.config, model.lr_head, model.meta_sgd_alpha, model.tree, h)[0]


def _evaluate_encoded(theta, spec, config, head, msgd_alpha, tree,
                      episodes: Sequence[_Encoded]) -> List[EvalRecord]:
    kind = spec.loss_kind()
    records = []
    for ep in episodes:
        h = user_embedding(theta, spec, ep.user_ids)
        alpha = _resolve_rate(config, head, msgd_alpha, tree, h)[0]
        theta_u, _ = adapt_with_gradient(theta, spec, alpha, ep.support)
        q_targets = ep.query[2]
        predictions = predict(theta_u, spec, ep.query)
        if not np.all(np.isfinite(predictions)):
            raise NumericError(f"non-finite predictions for user {ep.user_key!r}")
        query_loss = loss(kind, predictions, q_targets)
        records.append(EvalRecord(ep.user_key, logged_rate(alpha), predictions,
                                  np.asarray(q_targets, dtype=np.float64).copy(), query_loss))
    return records


def evaluate(model: TrainedModel, episodes: Sequence[TaskEpisode],
             splits: DatasetSplits) -> List[EvalRecord]:
    """Adapt on each support set by the model's own rule and score the query set.

    Model parameters, the rate head, and the tree are read but never changed;
    at-paml looks up its inference neighbor count with touch disabled.
    """
    encoded = [_encode_episode(splits, ep, model.spec) for ep in episodes]
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


def _tree_sidecar(path: str) -> str:
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
        "spec_output_kind": np.array(model.spec.output_kind),
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
        model.tree.dump(_tree_sidecar(path))
    return path


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
        config = TrainerConfig(**{k: v for k, v in stored.items()
                                  if k not in RETIRED_TREE_KEYS})
        spec = ModelSpec(
            user_vocab_sizes=tuple(int(v) for v in data["spec_user_vocab_sizes"]),
            item_vocab_sizes=tuple(int(v) for v in data["spec_item_vocab_sizes"]),
            embedding_dim=int(data["spec_embedding_dim"][0]),
            decision_dims=tuple(int(v) for v in data["spec_decision_dims"]),
            output_kind=str(data["spec_output_kind"][()]),
        )
        theta = ParamSet({name: data["theta." + name] for name in expected_entry_names(spec)})
        head = None
        if any(key.startswith("psi.") for key in data.files):
            dims = config.lr_hidden_dims + (1,)
            names = [name for layer in range(len(dims))
                     for name in (f"lr_W{layer}", f"lr_b{layer}")]
            psi = ParamSet({name: data["psi." + name] for name in names})
            head = LrHead(spec.user_width, config.lr_hidden_dims, config.lr_scale, psi=psi)
        msgd = None
        if any(key.startswith("msgd.") for key in data.files):
            msgd = ParamSet({name: data["msgd." + name] for name in expected_entry_names(spec)})
        history = json.loads(str(data["history_json"][()]))
        best_epoch = int(data["best_epoch"][0])
    tree = None
    sidecar = _tree_sidecar(path)
    if os.path.exists(sidecar):
        tree = TreeMemory.load(sidecar)
    return TrainedModel(config.algorithm, spec, config, theta, head, msgd, tree,
                        history, [], None if best_epoch < 0 else best_epoch)
