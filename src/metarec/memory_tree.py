"""Embedding memory (the paper's "tree") with kernel-weighted rate blending.

Lookups return the K nearest stored user embeddings, and their learned rates
are blended with Gaussian-kernel weights into a prior for the query user.
Stored nodes are trainable: callers push gradients back through the blend.

Nodes are rows of numpy columns (ids, embeddings n x dim, rates, recency,
freq) plus a node-id -> row map, and a derived column of squared embedding
norms that is kept in step with the embeddings but never dumped.  A store
writes one row (an evicting store reuses the victim's), an update rewrites
rows in place, and the columns grow geometrically up to capacity.

A search takes one query embedding or a (D, dim) stack of them, and returns
each query's k nearest nodes ordered by (squared distance, node id),
exactly; a lone query is a stack of one.  At the tens of dimensions of user
embeddings a kd-tree would visit nearly every point anyway (Weber, Schek &
Blott, VLDB 1998), so every row is read, but cheaply: one matrix product
over the stack gives each (query, row) pair's norm expansion
||e||^2 - 2 e.q, one row-wise partition finds each query's k-th smallest,
and only the rows within a proven rounding margin,
16 (dim + 4) 2^-53 (max ||e||^2 + q.q), of it get their exact distance
((e - q)^2).sum(), so the hits are bit-identical to a full scan.  A query
whose scale is non-finite or near overflow, or k >= n, makes every row a
candidate.  The (distance, id) order, the kernel and the blend then run as
array operations over every query's hits.  A search with ``touch`` marks
each query's hits used in turn, closest first: each gets the next recency
tick and one more use in its frequency, which the lru and lfu evictions
read.  ``touch(node_ids)`` does the same for hits found earlier, so a
caller can search once for users who share an embedding and still touch
once per user; hits never depend on recency or frequency.

No index is ever rebuilt, so ``_dirty`` stays False; it remains because the
benchmark's tracer counts each search that finds it set as a rebuild.
"""

import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import ConfigError, DataError, data_errors

DEFAULT_CAPACITY = 10000
DEFAULT_DELTA = 2.0
DEFAULT_SIGMA = 1e-5

EVICTION_POLICIES = ("lru", "lfu")
# (attribute, file key, dtype) of every per-node column, in dump order
_COLUMNS = (("_ids", "ids", np.int64), ("_emb", "embeddings", np.float64),
            ("_lr", "lrs", np.float64), ("_recency", "recency", np.int64),
            ("_freq", "freq", np.int64))
# search's prefilter runs only below this scale, where no step can overflow
_SCALE_LIMIT = 2.0 ** 1020
# added to the scale so the margin also covers products that underflow
_UNDERFLOW_FLOOR = 2.0 ** -1021


class Neighbors(NamedTuple):
    """One search's hits, closest first, as aligned arrays: node ids, Euclidean
    distances, a copy of the node embeddings (one row each), rates, and the
    Gaussian kernel between the query and each node at the tree's delta."""

    ids: np.ndarray
    distances: np.ndarray
    embeddings: np.ndarray
    lrs: np.ndarray
    similarities: np.ndarray


def _node_field(attr: str, read):
    return property(lambda view: read(getattr(view._tree, attr)[view._tree._rows[view.node_id]]))


class NodeView:
    """Live view of one stored node; assigning ``lr`` writes the tree."""

    __slots__ = ("_tree", "node_id")

    def __init__(self, tree: "TreeMemory", node_id: int):
        self._tree, self.node_id = tree, node_id

    embedding = _node_field("_emb", np.copy)
    recency = _node_field("_recency", int)
    freq = _node_field("_freq", int)
    lr = _node_field("_lr", float)

    @lr.setter
    def lr(self, value: float) -> None:
        self._tree._lr[self._tree._rows[self.node_id]] = value


def kernel_similarity(h_i, h_k, delta: float = DEFAULT_DELTA) -> float:
    """Gaussian kernel exp(-delta * ||h_i - h_k||^2), in (0, 1]."""
    a = np.asarray(h_i, dtype=np.float64)
    b = np.asarray(h_k, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"kernel arguments have shapes {a.shape} and {b.shape}")
    diff = a - b
    return float(np.exp(-delta * np.dot(diff, diff)))


def blend_lr(sims, lrs, sigma: float = DEFAULT_SIGMA):
    """Kernel-weighted average of neighbor learning rates.

    ``sims`` and ``lrs`` align, one entry per neighbor, and give one rate; or
    they hold one row of neighbors per query, and give a list of rates, one
    per row.  Weights are s_k / (sum_j s_j + sigma), so they sum to strictly
    less than one and the blend shrinks toward zero.
    """
    sims, lrs = (np.asarray(values, dtype=np.float64) for values in (sims, lrs))
    if sims.ndim == 0 or sims.shape[-1] == 0 or sims.shape != lrs.shape:
        raise ConfigError(f"blend_lr needs aligned non-empty arrays, got {sims.shape} and {lrs.shape}")
    denom = sims.sum(axis=-1) + sigma
    # each (1 x m) @ (m x 1) product is the BLAS dot np.dot runs on one row
    return ((sims[..., None, :] @ lrs[..., :, None])[..., 0, 0] / denom).tolist()


def blend_gradients(h, neighbors: Neighbors, upstream: float,
                    delta: float = DEFAULT_DELTA,
                    sigma: float = DEFAULT_SIGMA) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of ``upstream * alpha_tilde`` w.r.t. the neighbors' nodes.

    alpha_tilde = sum_k w_k lr_k with w_k = s_k / (S + sigma) and
    s_k = exp(-delta ||h - h_k||^2), where s_k is the similarity the search
    for ``h`` found, so ``delta`` must be the searched tree's.  Returns the
    embedding gradients (one row per neighbor) and the lr gradients, in
    neighbor order.  The query embedding is treated as a constant.
    """
    if len(neighbors.ids) == 0:
        raise ConfigError("blend_gradients needs at least one neighbor")
    h = np.asarray(h, dtype=np.float64)
    sims, lrs = neighbors.similarities, neighbors.lrs
    denom = sims.sum() + sigma
    alpha_tilde = float(np.dot(sims, lrs) / denom)
    dalpha_ds = (lrs - alpha_tilde) / denom
    ds_dh = (-2.0 * delta * sims)[:, None] * (neighbors.embeddings - h)
    return (upstream * dalpha_ds)[:, None] * ds_dh, upstream * (sims / denom)


def _squared_norms(emb: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", emb, emb)


def check_kernel_params(delta: float, sigma: float, prefix: str = "") -> None:
    """Reject a kernel width ``delta`` that is not finite and >= 0, or a blend
    damping ``sigma`` that is not finite and > 0, which could zero the blend's
    denominator."""
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ConfigError(f"{prefix}delta must be finite and >= 0, got {delta!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ConfigError(f"{prefix}sigma must be finite and > 0, got {sigma!r}")


class TreeMemory:
    """Memory of user embeddings and their learned inner rates."""

    def __init__(self, dim: int, capacity: int = DEFAULT_CAPACITY,
                 delta: float = DEFAULT_DELTA, sigma: float = DEFAULT_SIGMA,
                 eviction: str = "lru"):
        if dim < 1:
            raise ConfigError("embedding dimension must be >= 1")
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if eviction not in EVICTION_POLICIES:
            raise ConfigError(
                f"unknown eviction policy {eviction!r}; expected one of {EVICTION_POLICIES}")
        check_kernel_params(float(delta), float(sigma))
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.delta = float(delta)
        self.sigma = float(sigma)
        self.eviction = eviction

        for attr, _, dtype in _COLUMNS:
            setattr(self, attr, np.empty((0, self.dim) if attr == "_emb" else 0, dtype=dtype))
        self._sq = np.empty(0, dtype=np.float64)  # squared norms, derived so never dumped
        # 2 c u of the prefilter's cut, c = 8 (dim + 4) and u = 2^-53; see _candidates
        self._margin = 16.0 * (self.dim + 4) * 2.0 ** -53
        self._n = 0
        self._rows: Dict[int, int] = {}
        self._next_id = 0
        self._counter = 0
        self._evictions = 0
        self._dirty = False
        self.last_search_visited = 0

    def __len__(self) -> int:
        return self._n

    @property
    def evictions(self) -> int:
        return self._evictions

    def node(self, node_id: int) -> NodeView:
        if node_id not in self._rows:
            raise ConfigError(f"unknown memory node id {node_id}")
        return NodeView(self, node_id)

    def node_ids(self) -> List[int]:
        return sorted(self._ids[: self._n].tolist())

    def _free_row(self) -> int:
        """The row past the last node, growing the columns geometrically up to
        capacity; once full, the row of the node evicted to make room."""
        n = self._n
        if n < self.capacity:
            if n == len(self._ids):
                size = min(self.capacity, max(16, 2 * n))
                for attr in [attr for attr, _, _ in _COLUMNS] + ["_sq"]:
                    old = getattr(self, attr)
                    spare = np.empty((size - n,) + old.shape[1:], dtype=old.dtype)
                    setattr(self, attr, np.concatenate([old, spare]))
            self._n += 1
            return n
        recency = self._recency[:n]
        if self.eviction == "lru":
            row = int(np.argmin(recency))
        else:  # ticks are unique, so (freq, recency) decides
            freq = self._freq[:n]
            least = np.flatnonzero(freq == freq.min())
            row = int(least[np.argmin(recency[least])])
        del self._rows[int(self._ids[row])]
        self._evictions += 1
        return row

    def store_node(self, h, lr: float) -> int:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.dim,):
            raise ConfigError(f"embedding shape {h.shape} does not match tree dim ({self.dim},)")
        if not np.all(np.isfinite(h)) or not np.isfinite(lr):
            raise DataError("non-finite embedding or learning rate offered to the memory tree")
        row = self._free_row()
        node_id = self._next_id
        self._next_id += 1
        self._rows[node_id] = row
        self._ids[row] = node_id
        self._emb[row] = h
        self._sq[row] = np.dot(h, h)
        self._lr[row] = min(max(lr, 0.0), 1.0)
        self._counter += 1
        self._recency[row] = self._counter
        self._freq[row] = 0
        return node_id

    def search(self, h, k: int, touch: bool = True) -> Neighbors:
        """Return up to ``k`` nearest stored nodes for each query, closest first.

        ``h`` is one query embedding, or a (D, dim) stack with one query per
        row; then every field of the result has a leading axis of D, one row
        of hits per query.  ``touch`` marks each query's hits used in turn;
        evaluation passes False so that scoring a model leaves the memory
        byte-identical.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        n = self._n
        if n == 0:
            raise DataError("search on an empty memory tree (warm-up must store nodes first)")
        q = np.asarray(h, dtype=np.float64)
        if q.ndim not in (1, 2) or q.shape[-1] != self.dim:
            raise ConfigError(f"query shape {q.shape} does not match tree dim ({self.dim},)")
        queries = q.reshape(-1, self.dim)
        which, rows = np.divmod(self._candidates(queries, k), n)
        self.last_search_visited = n
        diff = self._emb.take(rows, axis=0)
        diff -= queries[which]
        d2 = np.square(diff).sum(axis=1)  # the bits of ((emb - q) ** 2).sum(axis=1)
        # each query's first min(k, n) candidates by (d2, id), a total order
        # that puts NaN last; every query has at least that many
        m = min(k, n)
        firsts = np.searchsorted(which, np.arange(len(queries)))  # ``which`` ascends
        order = np.lexsort((self._ids[rows], d2, which))[(firsts[:, None] + np.arange(m)).ravel()]
        rows, d2, diff = rows[order], d2[order], diff[order]
        ids = self._ids[rows]
        if touch:
            for hits in ids.reshape(-1, m):
                self.touch(hits)
        # each (1 x dim) @ (dim x 1) product is the BLAS dot np.dot runs, and
        # e - q is exactly -(q - e), so the kernel matches kernel_similarity(q, e)
        # bit for bit; a row sum would not
        dots = diff.reshape(-1, 1, self.dim) @ diff.reshape(-1, self.dim, 1)
        sims = np.exp(-self.delta * dots.ravel())
        hits = Neighbors(ids, np.sqrt(d2), self._emb.take(rows, axis=0), self._lr[rows], sims)
        return Neighbors._make(field.reshape(q.shape[:-1] + (m,) + field.shape[1:])
                               for field in hits)

    def touch(self, node_ids) -> None:
        """Mark distinct nodes used, in order: each gets the next recency tick
        and one more use in its frequency, as a search with touch does for
        its hits, closest first."""
        rows = self._distinct_rows(node_ids, "touch of", "touch names one memory node twice")
        m = len(rows)
        self._recency[rows] = np.arange(self._counter + 1, self._counter + m + 1)
        self._counter += m
        self._freq[rows] += 1

    def _distinct_rows(self, node_ids, unknown: str, twice: str) -> np.ndarray:
        """The int64 rows of ``node_ids``, in order; an unknown id, or one
        named twice, is a ConfigError."""
        try:
            rows = [self._rows[i] for i in np.asarray(node_ids, dtype=np.int64).tolist()]
        except KeyError as exc:
            raise ConfigError(f"{unknown} unknown memory node id {exc.args[0]}") from None
        if len(set(rows)) != len(rows):
            raise ConfigError(twice)
        return np.array(rows, dtype=np.int64)

    def _candidates(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Ascending positions j n + row of (query, row) pairs, for the
        queries j of the (D, dim) stack ``queries`` and the n rows, that
        include for each query every row whose exact squared distance
        r = ((e - q)^2).sum() is at most its k-th smallest, ties included;
        for a lone query they are rows.

        With a = ||e||^2 - 2 e.q from the norm column and one matrix product
        over the stack, A a query's k-th smallest a, s = max ||e||^2 + q.q
        and u = 2^-53, the cut is a <= A + 2B with B = c u s and c = 8 (dim +
        4).  Proof: let D = ||e - q||^2 be the true distance and d = dim.  In
        any summation order, r and a + ||q||^2 each lie within E = gamma_{d+2}
        (||e|| + ||q||)^2 <= 2 gamma_{d+2} s of D, where gamma_m = m u / (1 -
        m u) (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        3.1).  The k rows with a <= A have r <= A + ||q||^2 + 2E, so the k-th
        smallest r, R, is at most that too; a row with r <= R then has a +
        ||q||^2 <= r + 2E <= A + ||q||^2 + 4E.  So the cut needs 4E <= 8 (d +
        2) u s (1 + O(d u)), and 2B = 16 (d + 4) u s leaves more than the few
        u s that rounding s, B and the cut itself can lose.  The scale carries
        a floor of 2^-1021, so 2B >= 16 (d + 4) 2^-1074 also covers the
        absolute error, at most 2^-1075 per product, of products that
        underflow.  The order of any sum is free, so the stack's matrix
        product finds each query's hits as a lone query's would.

        Below a scale of 2^1020 no step overflows.  A query whose scale is
        larger, infinite or NaN (a non-finite embedding or query), or k >= n,
        gets every row.
        """
        n = self._n
        sq = self._sq[:n]
        keep = np.ones((len(queries), n), dtype=bool)
        if k < n:
            with np.errstate(over="ignore", invalid="ignore"):
                scale = sq.max() + _squared_norms(queries) + _UNDERFLOW_FLOOR
            pruned = np.flatnonzero(scale <= _SCALE_LIMIT)
            a = (-2.0 * queries[pruned]) @ self._emb[:n].T
            a += sq
            cut = np.partition(a, k - 1, axis=1)[:, k - 1] + self._margin * scale[pruned]
            keep[pruned] = a <= cut[:, None]
        return np.flatnonzero(keep)

    def update_nodes(self, node_ids, emb_grads, lr_grads, beta: float) -> None:
        """One descent step on distinct nodes: row j of ``emb_grads`` and entry
        j of ``lr_grads`` belong to ``node_ids[j]``; rates stay in [0, 1]."""
        rows = self._distinct_rows(node_ids, "gradient supplied for",
                                   "gradient supplied twice for one memory node")
        emb_grads = np.asarray(emb_grads, dtype=np.float64)
        lr_grads = np.asarray(lr_grads, dtype=np.float64)
        if emb_grads.shape != (len(rows), self.dim) or lr_grads.shape != (len(rows),):
            raise ConfigError(f"gradient shapes {emb_grads.shape} and {lr_grads.shape} do not "
                              f"match {len(rows)} nodes of dim {self.dim}")
        emb = self._emb[rows] - beta * emb_grads
        self._emb[rows] = emb
        self._sq[rows] = _squared_norms(emb)
        self._lr[rows] = np.clip(self._lr[rows] - beta * lr_grads, 0.0, 1.0)

    def blended_lr(self, h, k: int, touch: bool = True):
        """Search then blend: returns (alpha_tilde, neighbors), with one rate
        in a list per query of a stack."""
        neighbors = self.search(h, k, touch=touch)
        return blend_lr(neighbors.similarities, neighbors.lrs, self.sigma), neighbors

    def dump(self, path) -> None:
        order = np.argsort(self._ids[: self._n])
        np.savez(
            path,
            **{key: getattr(self, attr)[order] for attr, key, _ in _COLUMNS},
            meta=np.array([self.dim, self.capacity, self._next_id, self._counter,
                           self._evictions], dtype=np.int64),
            params=np.array([self.delta, self.sigma], dtype=np.float64),
            eviction=np.array([EVICTION_POLICIES.index(self.eviction)], dtype=np.int64),
        )

    @classmethod
    def load(cls, path) -> "TreeMemory":
        """Rebuild a dumped memory; an unreadable dump or a malformed node table
        is a DataError.

        Older dumps also hold a search ``mode`` code, which is ignored.
        """
        with data_errors("read tree dump", path), np.load(path) as data:
            meta, params, codes = data["meta"], data["params"], data["eviction"]
            if len(meta) < 5 or len(params) < 2:
                raise DataError(f"tree dump {path}: meta holds {len(meta)} entries and "
                                f"params {len(params)}, expected at least 5 and 2")
            if len(codes) < 1 or not 0 <= int(codes[0]) < len(EVICTION_POLICIES):
                raise DataError(f"tree dump {path}: eviction code {codes.tolist()} is not one "
                                f"of 0..{len(EVICTION_POLICIES) - 1} {EVICTION_POLICIES}")
            try:
                tree = cls(dim=int(meta[0]), capacity=int(meta[1]),
                           delta=float(params[0]), sigma=float(params[1]),
                           eviction=EVICTION_POLICIES[int(codes[0])])
            except ConfigError as exc:
                raise DataError(f"tree dump {path}: {exc}") from None
            columns = {attr: np.array(data[key], dtype=dtype) for attr, key, dtype in _COLUMNS}
            # meta[:5] is shared by this layout and the older nine-entry one
            tree._next_id, tree._counter, tree._evictions = (int(v) for v in meta[2:5])
        ids = columns["_ids"]
        n = len(ids)
        lengths = {key: len(columns[attr]) for attr, key, _ in _COLUMNS}
        if len(set(lengths.values())) != 1:
            raise DataError(f"tree dump {path}: column lengths disagree: {lengths}")
        if columns["_emb"].shape != (n, tree.dim):
            raise DataError(f"tree dump {path}: embeddings are not ({n}, {tree.dim})")
        if len(np.unique(ids)) != n:
            raise DataError(f"tree dump {path}: node ids repeat")
        if n > tree.capacity:
            raise DataError(f"tree dump {path}: {n} nodes exceed capacity {tree.capacity}")
        if n and ids.max() >= tree._next_id:
            raise DataError(f"tree dump {path}: node id {ids.max()} >= next id {tree._next_id}")
        for attr, value in columns.items():
            setattr(tree, attr, value)
        tree._sq = _squared_norms(tree._emb)
        tree._n = n
        tree._rows = dict(zip(ids.tolist(), range(n)))
        return tree
