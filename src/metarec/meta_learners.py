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

Each split is encoded once (`_encode_split`), with one feature-id lookup
per distinct user profile: a `SplitView`'s own columns are checked and
wrapped, no row copied, and any other episodes are copied into new columns,
each episode's support rows right before its query rows.  An encoded split
is the only form in which the trainer and evaluation take episodes: a
training batch is a `take` of the split, as a slice of it is, and an
``_Encoded`` record is built only when the split is indexed.

The rate head runs once over a batch's distinct embeddings, and the tree
is searched once for them, one stacked search per chunk of them; rates are
passed on as `_distinct_rates`' ``(rates, index)``, one entry per distinct
embedding and each episode's position among them.  Then the batch,
ordered by (query rows, support rows), is cut by `ordered_passes` into
passes of at most `EVAL_STACK_BYTES` of parameter rows, and each pass runs
its support gradient, inner step, query gradient and Hessian-vector
product once, each as one padded block (see `model`): an episode's bits
depend only on its own rows and its pass's longest support and query
sets.  The passes' row stacks are views of buffers the trainer reuses from
step to step.  A failing episode stays in its pass and gets the first
error a one-episode pass would raise.  Drops, warnings, logs and sums stay in
batch order.  Evaluation cuts a split the same way, into passes of as
many users as `EVAL_STACK_BYTES` of adapted parameter rows hold, and never
fewer than ``batch_size``; each pass runs its support gradient, inner step
and query forward pass once.  Transfer instead trains on pooled episodes,
each user's support and query rows as one row range: its theta gradient
is their pooled supervised gradient, with no inner step.

Updates are plain gradient descent with per-group 2-norm clipping.  All
computation is float64 and deterministic given the config seed.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import warnings
from collections.abc import Sequence
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigError, DataError, NumericError, data_errors
from .memory_tree import (DEFAULT_CAPACITY, DEFAULT_DELTA, DEFAULT_SIGMA, EVICTION_POLICIES,
                          Neighbors, TreeMemory, blend_gradients, check_kernel_params)
from .model import (
    CheckedSplit,
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
    ordered_passes,
    predict_stack,
    predict_stacks,
    user_embedding,
    _check_ids,
    _well_formed,
)
from .params import ParamSet, axpy_update, dense_views, nonfinite_rows, row_dots
from .tasks import DatasetSplits, SplitView, TaskEpisode, UserProfile

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
    "adapt_with_gradient",
    "logged_rate",
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
# Bytes of parameter rows, one per episode, that one training or evaluation
# pass may hold: a small model runs a whole batch in one pass and scores a
# whole split in one or a few passes, and a large model's rows stay within
# this much memory (6 episodes a training pass on the criterion-6 model).  An
# evaluation pass still holds at least ``batch_size`` users.  A stacked tree
# search's (queries x nodes) prefilter stays within it too.
EVAL_STACK_BYTES = 512 * 1024
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
        shapes = _head_entry_shapes(self.input_dim, hidden_dims)
        expected = (tuple(shapes), tuple(shapes.values()))
        if psi.layout.key != expected:
            raise ConfigError(f"rate-head layout {psi.layout.key} does not match {expected}")
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


class EpisodeLog(NamedTuple):
    """Per-episode quantities from one outer step, at the pre-step state, as
    a named tuple."""

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


class EvalRecord(NamedTuple):
    """One user's evaluation, as a named tuple: its logged rate, row views of
    its query predictions and targets, and its query MSE."""

    user_key: object
    alpha: float
    predictions: np.ndarray
    targets: np.ndarray
    query_loss: float


class _Encoded(NamedTuple):
    """One user's episode, checked: ``user_ids`` are its support's user ids."""

    user_key: object
    user_ids: np.ndarray
    support: tuple
    query: tuple


class _EncodedSplit(Sequence):
    """A split's episodes on one set of checked columns: ``keys`` the user
    keys, ``support`` and ``query`` `CheckedSplit`s with one entry per
    episode, each support right before its query, so `pooled` is one row
    range per episode.  Indexing builds an `_Encoded` record on demand, and
    `take`, or a slice, selects episodes without copying rows."""

    __slots__ = ("keys", "support", "query")

    def __init__(self, keys, support: CheckedSplit, query: CheckedSplit):
        self.keys, self.support, self.query = keys, support, query

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        support = self.support[index]
        return _Encoded(self.keys[index], support[0], support, self.query[index])

    def take(self, positions) -> "_EncodedSplit":
        """The episodes at ``positions``, in that order."""
        index = np.asarray(positions, dtype=np.int64)
        return _EncodedSplit(list(map(self.keys.__getitem__, index.tolist())),
                             self.support.take(index), self.query.take(index))

    def pooled(self) -> CheckedSplit:
        """Each episode's support and query rows as one episode, as transfer trains on."""
        support = self.support
        return CheckedSplit(support.vocab_sizes, support.users, support.items, support.targets,
                            support.starts, support.lengths + self.query.lengths)


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


def _distinct_rates(config: TrainerConfig, head: Optional[LrHead], msgd_alpha, tree, h,
                    train: bool = False, warmup: bool = False) -> Tuple[list, List[int]]:
    """Each user's inner rate, chosen by algorithm here and nowhere else.

    ``h`` holds one user embedding per row.  Returns ``(rates, index)``:
    one (alpha, dalpha_dpsi, neighbors) per distinct rate, and the position
    in ``rates`` of each row's.  A rate is a scalar or the meta-sgd rate
    vector, the head gradient a flat row or None, and the blended tree
    ``Neighbors`` or None.  A rate depends on the embedding only, so the
    head runs once over the distinct rows and at-paml searches the tree
    once per chunk of them, a stacked search whose (rows x nodes) float64
    prefilter stays within `EVAL_STACK_BYTES`; rows with equal bytes share
    one rate.  Training (``train``) differentiates the head, blends
    ``tree_neighbors_train`` stored rates and then touches each row's hits
    in row order, and gives at-paml its fixed rate during warm-up.
    Evaluation blends ``tree_neighbors_infer`` rates and writes no state.
    """
    algorithm = config.algorithm
    shared = [0] * len(h)
    if algorithm == "meta-sgd":
        return [(msgd_alpha, None, None)], shared
    if algorithm in ("maml-fixed", "transfer"):
        return [(config.fixed_inner_lr, None, None)], shared
    if algorithm == "at-paml" and warmup:
        return [(config.warmup_inner_lr, None, None)], shared
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
        chunk = max(1, EVAL_STACK_BYTES // (8 * len(tree)))
        for start in range(0, len(first), chunk):
            blended, hits = tree.blended_lr(distinct[start:start + chunk], k, touch=False)
            for j, alpha_tilde, neighbors in zip(range(start, len(first)), blended, zip(*hits)):
                alphas[j] = alphas[j] + alpha_tilde
                found[j] = Neighbors._make(neighbors)
        if train:
            for j in inverse:
                tree.touch(found[j].ids)
    return list(zip(alphas, dalphas, found)), inverse


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
    )


def _paired(keys: list, parts: CheckedSplit) -> _EncodedSplit:
    """The split of ``parts`` checked as support, query, support, query, ..."""
    return _EncodedSplit(keys, parts.take(slice(0, None, 2)), parts.take(slice(1, None, 2)))


def _encode_view(splits: DatasetSplits, view: SplitView, spec: ModelSpec) -> _EncodedSplit:
    """``view`` checked against ``spec`` over its own rows, each distinct profile
    encoded once, and wrapped on its columns, no row copied; failing a check raises."""
    used, first, rows = np.unique(view.profile_rows, return_index=True, return_inverse=True)
    ids = []
    for profile, i in zip(used.tolist(), first.tolist()):
        start, stop = int(view.starts[i]), int(view.starts[i] + view.support_lengths[i])
        ids.append(splits.encode(UserProfile(view.user_ids[i], view.profiles[profile]),
                                 view.columns.rows(start, stop))[0])
    ids = np.array(ids)
    items, targets, plan = view.columns.items, view.columns.feedback, spec.plan
    lengths = view.support_lengths + view.query_lengths
    if (not _well_formed(spec, ids, items, targets) or len(targets) != len(items)
            or items.flags.writeable or targets.flags.writeable or view.starts.min() < 0
            or min(view.support_lengths.min(), view.query_lengths.min()) < 1):
        raise DataError("malformed split view")
    _check_ids(ids, plan.user_vocab, "user")
    offsets = np.cumsum(lengths) - lengths
    _check_ids(items[np.repeat(view.starts - offsets, lengths) + np.arange(lengths.sum())],
               plan.item_vocab, "item")
    users = ids[rows]
    users.flags.writeable = False
    checked = functools.partial(CheckedSplit, plan.vocab_sizes, users, items, targets)
    return _EncodedSplit(view.user_ids, checked(view.starts, view.support_lengths),
                         checked(view.starts + view.support_lengths, view.query_lengths))


def _encode_split(splits: DatasetSplits, episodes: Sequence[TaskEpisode],
                  spec: ModelSpec) -> _EncodedSplit:
    """A split's support and query sets, checked against ``spec`` together once.

    A `SplitView` that passes every check is wrapped as it is.  Any other
    episodes, or a view that fails a check, have their support rows then
    their query rows copied into new columns and checked there, so the
    error raised is the first bad episode's.
    """
    if isinstance(episodes, SplitView):
        try:
            return _encode_view(splits, episodes, spec)
        except (DataError, IndexError, TypeError, ValueError):
            pass
    found = {}

    def user_ids(episode: TaskEpisode) -> np.ndarray:
        if episode.user.features not in found:
            found[episode.user.features] = splits.encode(episode.user, episode.support)[0]
        return found[episode.user.features]

    parts = ((user_ids(episode), part.items, part.feedback) for episode in episodes
             for part in (episode.support, episode.query))
    return _paired([episode.user.user_id for episode in episodes], check_episodes(spec, parts))


def _check_encoded_for(spec: ModelSpec, episodes: _EncodedSplit) -> None:
    """Reject a split whose ids were checked against other vocabulary sizes."""
    if episodes.support.vocab_sizes != spec.plan.vocab_sizes:
        raise DataError("episodes were encoded for another model spec")


def _row_mses(rows: np.ndarray, targets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The mean squared error of each padded row's first ``lengths[e]``
    entries, with the bits of `loss` on them: one row-wise mean per
    distinct length."""
    r = rows - targets
    squares = r * r
    mses = np.empty(len(lengths))
    for n in np.unique(lengths).tolist():
        chosen = lengths == n
        mses[chosen] = np.mean(squares[chosen, :n], axis=1)
    return mses


def _pooled_loss(theta: ParamSet, spec: ModelSpec, pooled: CheckedSplit,
                 batch_size: int) -> float:
    """Item-weighted mean loss over ``pooled``, summed episode by episode in
    order (`np.add.accumulate` adds one term at a time); the predictions
    come from passes of at most ``batch_size``."""
    mses = np.empty(len(pooled))
    for positions, rows, targets, lengths in predict_stacks(theta, spec, pooled, batch_size):
        mses[positions] = _row_mses(rows, targets, lengths)
    return float(np.add.accumulate(mses * pooled.lengths)[-1] / pooled.lengths.sum())


def _adapt_stage(flat, spec: ModelSpec, layout, episodes, positions, errors: dict, name: str,
                 out=None):
    """`grad_stack` over ``episodes``, which sit at ``positions``, its rows
    written into ``out`` when given.

    An episode whose forward pass, ``name`` loss or ``name`` gradient goes
    non-finite gets the first of those errors, the one a one-episode pass
    would raise, in ``errors``, keyed by its position, unless an earlier
    stage put one there.  Returns the StackGradient of every episode.
    """
    g = grad_stack(flat, spec, episodes.stack(spec.plan), out)
    # each update overrides the last: the gradient, the loss, the forward pass
    stage_errors = nonfinite_rows(layout, g.rows, f"{name} gradient")
    stage_errors.update((index, NumericError(f"{name} loss is not finite"))
                        for index in np.flatnonzero(~np.isfinite(g.losses)).tolist())
    stage_errors.update(g.failed)
    for index, exc in stage_errors.items():
        errors.setdefault(positions[index], exc)
    return g


def _check_rates(rates: list, index: List[int], errors: dict) -> None:
    """Check each distinct rate of `_distinct_rates` once; an episode whose
    rate fails `_check_inner_rate` gets the error a one-episode pass would
    raise in ``errors`` and still runs with the others."""
    failed = {}
    for j, (alpha, _, _) in enumerate(rates):
        try:
            _check_inner_rate(alpha)
        except (NumericError, ConfigError) as exc:
            failed[j] = exc
    if failed:
        errors.update((i, failed[j]) for i, j in enumerate(index) if j in failed)


def _steps(rates: list) -> np.ndarray:
    """The step of each distinct rate of `_distinct_rates`: a (D, 1) column
    of scalars, or meta-sgd's shared rate vector."""
    alpha = rates[0][0]
    if isinstance(alpha, ParamSet):
        return alpha.flat
    return np.array([rate[0] for rate in rates])[:, None]


def _steps_at(steps: np.ndarray, index: List[int], positions: List[int]) -> np.ndarray:
    """The rows of `_steps` of the episodes at ``positions``, whose rates sit
    at ``index`` of their positions, or the shared rate vector."""
    return steps if steps.ndim == 1 else steps[[index[i] for i in positions]]


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
        self.train_episodes = _encode_split(splits, splits.train, self.spec)
        if config.algorithm == "transfer":
            self.train_episodes = self.train_episodes.pooled()
        self.val_episodes = _encode_split(splits, splits.validation, self.spec)
        self.theta = init_params(self.spec, (config.seed, 0))
        self.head = None
        if config.uses_lr_head():
            self.head = LrHead(self.spec.user_width, config.lr_hidden_dims,
                               config.lr_scale, seed=(config.seed, 1))
        self.msgd_alpha = None
        if config.algorithm == "meta-sgd":
            self.msgd_alpha = ParamSet.wrap(
                self.theta.layout, np.full(self.theta.layout.size, float(config.meta_sgd_init)))
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
        self._workspace = {}  # name -> reused (rows, size) buffer of `_batch_pass`

    # -- gradients -----------------------------------------------------------

    def _rows(self, name: str, n_rows: int) -> np.ndarray:
        """``n_rows`` rows of the trainer's reused (rows, size) buffer ``name``,
        which grows when a batch needs more."""
        buffer = self._workspace.get(name)
        if buffer is None or len(buffer) < n_rows:
            buffer = self._workspace[name] = np.empty((n_rows, self.theta.layout.size))
        return buffer[:n_rows]

    def _batch_pass(self, batch: _EncodedSplit, rates, index, gamma, errors: dict):
        """The support pass, inner step, query pass and Hessian-vector
        product of every episode, failing ones included, with numpy's
        overflow and invalid warnings off.

        Episodes run ordered by (query rows, support rows), in passes of at
        most `EVAL_STACK_BYTES` of parameter rows, so each pass's episodes
        have similar lengths and its padded stacks add few slots.  Every row stack
        is a view of a buffer the trainer reuses from step to step: the
        theta rows of the whole batch (and meta-sgd's rate rows), which
        take each pass's query gradients, and two pass buffers, one for the
        support gradients and then the Hessian-vector products, one for the
        adapted parameters and then v.  Returns ``(slots, theta_rows,
        msgd_rows, stats)``: episode i's rows are ``slots[i]``, and
        ``stats`` holds its support loss, query loss, ``g_s . g_s`` and
        ``g_s . g_q`` in batch order.
        """
        spec, theta = self.spec, self.theta
        layout = theta.layout
        n = len(batch)
        cuts = ordered_passes(max(1, EVAL_STACK_BYTES // theta.flat.nbytes),
                              batch.support.lengths, batch.query.lengths)
        theta_rows = self._rows("theta", n)
        msgd_rows = None if self.msgd_alpha is None else self._rows("msgd", n)
        support, adapted = (self._rows(name, len(cuts[0])) for name in ("support", "adapted"))
        stats = np.empty((4, n))
        steps = _steps(rates)
        with np.errstate(invalid="ignore", over="ignore"):
            for p, positions in enumerate(cuts):
                k = len(positions)
                rows = slice(p * len(support), p * len(support) + k)
                episodes = batch.take(positions)
                a = _steps_at(steps, index, positions)
                s = _adapt_stage(theta.flat, spec, layout, episodes.support, positions, errors,
                                 "support", support[:k])
                q = _adapt_stage(_inner_step(theta.flat, s.rows, a, out=adapted[:k]), spec,
                                 layout, episodes.query, positions, errors, "query",
                                 theta_rows[rows])
                g_s, g_q = s.rows, q.rows
                stats[:, positions] = (s.losses, q.losses, row_dots(layout, g_s, g_s),
                                       row_dots(layout, g_s, g_q))
                del q  # its tape holds the adapted parameters, which v overwrites
                if msgd_rows is not None:
                    np.multiply(np.multiply(g_s, g_q, out=msgd_rows[rows]), -1.0,
                                out=msgd_rows[rows])
                # v = 2 gamma a g_s - a g_q, added as (-a g_q) + ..., rounds alike,
                # and H(-x) = -H(x) exactly.  At gamma = 0 only zeros in v and H v
                # can change sign, which theta_grad, a sum from +0, does not keep.
                v = np.multiply(g_q, -a, out=adapted[:k])
                if gamma != 0.0:
                    v += np.multiply(g_s, 2.0 * gamma * a, out=g_s)
                # g_q + H v; a kept episode's g_q is finite, so the sum's bits
                # do not depend on the order of its terms
                g_q += hvp(theta, spec, episodes.support, v, at=s, out=g_s)
        return np.argsort(np.concatenate(cuts)).tolist(), theta_rows, msgd_rows, stats.tolist()

    def outer_gradients(self, batch: _EncodedSplit, warmup: bool = False) -> GradientPass:
        """Exact outer gradients of the batch objective at the current state.

        ``batch`` is a split encoded for the trainer's spec, such as a `take`
        or a slice of its episodes; transfer's is a `CheckedSplit` of pooled
        episodes.  Episodes whose losses or gradients go non-finite are
        dropped with a warning; the pass fails only when nothing in the batch
        survives.  Transfer's pass is the pooled gradient of its batch and
        drops nothing.  Every sum runs in batch order, from zeros.
        """
        cfg = self.config
        gamma = cfg.effective_gamma()
        if cfg.algorithm == "transfer":
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
        errors = {}
        _check_encoded_for(self.spec, batch)
        if batch:
            h = user_embedding(self.theta, self.spec, batch.support.users)
            rates, index = _distinct_rates(cfg, self.head, self.msgd_alpha, self.tree, h,
                                           train=True, warmup=warmup)
            logged = [logged_rate(rate[0]) for rate in rates]
            _check_rates(rates, index, errors)
            slots, theta_rows, msgd_rows, (s_losses, q_losses, grad_sq, s_dot_q) = \
                self._batch_pass(batch, rates, index, gamma, errors)
            with np.errstate(invalid="ignore", over="ignore"):
                # each row's norm as np.linalg.norm takes it: the root of one BLAS dot
                norms = np.sqrt((h[:, None, :] @ h[:, :, None])[:, 0, 0]).tolist()
        for i, user_key in enumerate(batch.keys):
            if i in errors:
                if not isinstance(errors[i], NumericError):
                    raise errors[i]
                warnings.warn(f"dropping episode for user {user_key!r}: {errors[i]}")
                skipped += 1
                continue
            alpha, dalpha_dpsi, neighbors = rates[index[i]]
            sq = grad_sq[i]
            reg_value = 0.0 if msgd_rows is not None else sq * abs(alpha)
            upstream = gamma * sq - s_dot_q[i]  # d(objective)/d(alpha)
            theta_grad += theta_rows[slots[i]]
            if dalpha_dpsi is not None:
                psi_grad += dalpha_dpsi * upstream
            if msgd_rows is not None:
                msgd_grad += msgd_rows[slots[i]]
            if neighbors is not None:
                tree_parts.append((neighbors.ids,) + blend_gradients(
                    h[i], neighbors, upstream, cfg.tree_delta, cfg.tree_sigma))
            if self.tree is not None:
                pending.append((h[i], alpha))
            logs.append(EpisodeLog(user_key, logged[index[i]], s_losses[i], q_losses[i],
                                   reg_value, sq, norms[i]))
            total_loss += q_losses[i] + gamma * reg_value
        if not logs:
            raise NumericError("every episode in the batch failed with a numeric error")
        return GradientPass(
            ParamSet.wrap(self.theta.layout, theta_grad),
            None if psi_grad is None else ParamSet.wrap(self.head.psi.layout, psi_grad),
            None if msgd_grad is None else ParamSet.wrap(self.theta.layout, msgd_grad),
            *_sum_tree_gradients(tree_parts), pending, tuple(logs), total_loss, skipped)

    # -- updates ---------------------------------------------------------------

    def outer_step(self, batch: _EncodedSplit, warmup: bool = False,
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
                                    self.msgd_alpha, self.tree, self.val_episodes,
                                    functools.partial(self._rows, "theta"))
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
                batch = self.train_episodes.take(order[start:start + cfg.batch_size])
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


def _evaluate_encoded(theta, spec, config, head, msgd_alpha, tree, episodes: _EncodedSplit,
                      rows=None) -> List[EvalRecord]:
    """Adapt each user on its support set and score its query set, in order.

    ``episodes`` is a split encoded for ``spec`` by `_encode_split`.  Each
    distinct embedding gets one rate from `_distinct_rates`, logged once.
    Users run ordered by (query rows, support rows), in passes of as many
    users as `EVAL_STACK_BYTES` of adapted parameter rows hold, and never
    fewer than ``batch_size`` (`ordered_passes`).  Each pass runs one
    support `grad_stack` into a row buffer, one inner step in place and one
    forward pass over its padded query stack.  The buffer is ``rows(n)``,
    n rows of a caller's reused buffer, or else one this call allocates.
    Each user still makes its own BLAS calls, so the order within a pass
    moves no bit; the cut sets each pass's padded lengths.  The call raises
    the error that scoring the users one at a time would have raised first,
    before it squares any residual.  Each pass's query MSEs come from one
    row-wise mean per distinct length, with the bits of `loss` on each
    user's rows, and each record holds views of its user's real rows of
    the pass's predictions and targets.
    """
    if not episodes:
        return []
    _check_encoded_for(spec, episodes)
    h = user_embedding(theta, spec, episodes.support.users)
    rates, index = _distinct_rates(config, head, msgd_alpha, tree, h)
    errors = {}
    _check_rates(rates, index, errors)
    steps = _steps(rates)
    cuts = ordered_passes(max(config.batch_size, EVAL_STACK_BYTES // theta.flat.nbytes),
                          episodes.support.lengths, episodes.query.lengths)
    buffer = np.empty((len(cuts[0]), theta.layout.size)) if rows is None else rows(len(cuts[0]))
    passes = []
    for positions in cuts:
        part = episodes.take(positions)
        with np.errstate(invalid="ignore", over="ignore"):
            g_s = _adapt_stage(theta.flat, spec, theta.layout, part.support, positions, errors,
                               "support", buffer[:len(positions)]).rows
            thetas = _inner_step(theta.flat, g_s, _steps_at(steps, index, positions), out=g_s)
            stack = part.query.stack(spec.plan)
            predictions, failed = predict_stack(thetas, spec, stack)
        for k, exc in failed.items():
            errors.setdefault(positions[k], exc)
        passes.append((positions, predictions, stack.targets, stack.lengths))
    if errors:
        raise errors[min(errors)]
    logged = [logged_rate(rate[0]) for rate in rates]
    records = [None] * len(episodes)
    for positions, predictions, targets, lengths in passes:
        mses = _row_mses(predictions, targets, lengths).tolist()
        for i, row, target, n, mse in zip(positions, predictions, targets, lengths.tolist(),
                                          mses):
            records[i] = EvalRecord(episodes.keys[i], logged[index[i]], row[:n], target[:n], mse)
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
    psi = None if model.lr_head is None else model.lr_head.psi
    for prefix, params in (("theta.", model.theta), ("psi.", psi),
                           ("msgd.", model.meta_sgd_alpha)):
        if params is not None:
            for name, arr in params.layout.views(params.flat).items():
                arrays[prefix + name] = arr
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
    """Rebuild a TrainedModel from save_checkpoint output (step logs excluded).

    A checkpoint or tree sidecar that cannot be read is a DataError naming it,
    and so is a missing entry of the algorithm's parameters or a missing
    sidecar of an at-paml checkpoint.
    """
    path = _normalize_checkpoint_path(path)
    with data_errors("read checkpoint", path), np.load(path, allow_pickle=False) as data:
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
        if config.uses_lr_head():
            psi = _stored_params(data, "psi.",
                                 _head_entry_shapes(spec.user_width, config.lr_hidden_dims))
            head = LrHead(spec.user_width, config.lr_hidden_dims, config.lr_scale, psi=psi)
        msgd = None
        if config.algorithm == "meta-sgd":
            msgd = _stored_params(data, "msgd.", shapes)
        history = json.loads(str(data["history_json"][()]))
        best_epoch = int(data["best_epoch"][0])
    tree = None
    if config.algorithm == "at-paml":
        sidecar = tree_sidecar(path)
        tree = TreeMemory.load(sidecar)
        if tree.dim != spec.user_width:
            raise DataError(f"tree sidecar {sidecar} holds {tree.dim}-wide embeddings; "
                            f"the checkpoint's users are {spec.user_width} wide")
    return TrainedModel(config.algorithm, spec, config, theta, head, msgd, tree,
                        history, [], None if best_epoch < 0 else best_epoch)
