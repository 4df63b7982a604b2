"""Embedding memory (the paper's "tree") with kernel-weighted rate blending.

Lookups return the K nearest stored user embeddings, and their learned rates
are blended with Gaussian-kernel weights into a prior for the query user.
Stored nodes are trainable: callers push gradients back through the blend.

Nodes are rows of numpy columns (ids, embeddings n x dim, rates, recency,
freq) plus a node-id -> row map.  A store writes one row (an evicting store
reuses the victim's), an update rewrites rows in place, and the columns grow
geometrically up to capacity.  A search is one exact scan ordered by (squared
distance, node id): at the tens of dimensions of user embeddings a kd-tree
would visit nearly every point anyway (Weber, Schek & Blott, VLDB 1998).  No
index is ever rebuilt, so ``_dirty`` stays False; it remains because the
benchmark's tracer counts each search that finds it set as a rebuild.
"""

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_CAPACITY = 10000
DEFAULT_DELTA = 2.0
DEFAULT_SIGMA = 1e-5

SEARCH_MODES = ("exact", "approximate")
EVICTION_POLICIES = ("lru", "lfu")
# (attribute, file key, dtype) of every per-node column, in dump order
_COLUMNS = (("_ids", "ids", np.int64), ("_emb", "embeddings", np.float64),
            ("_lr", "lrs", np.float64), ("_recency", "recency", np.int64),
            ("_freq", "freq", np.int64))


class Neighbor(NamedTuple):
    """One search hit: stored node id, Euclidean distance, node payload, and
    the Gaussian kernel between the query and the node at the tree's delta."""

    node_id: int
    distance: float
    embedding: np.ndarray
    lr: float
    similarity: float


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


def blend_lr(neighbors: Sequence[Tuple[float, float]], sigma: float = DEFAULT_SIGMA) -> float:
    """Kernel-weighted average of neighbor learning rates.

    ``neighbors`` holds (similarity, lr) pairs.  Weights are s_k / (sum_j s_j
    + sigma), so they sum to strictly less than one and the blend shrinks
    toward zero.
    """
    if len(neighbors) == 0:
        raise ConfigError("blend_lr needs at least one neighbor")
    sims = np.array([s for s, _ in neighbors], dtype=np.float64)
    lrs = np.array([lr for _, lr in neighbors], dtype=np.float64)
    denom = sims.sum() + sigma
    return float(np.dot(sims, lrs) / denom)


def blend_gradients(h, neighbors: Sequence[Neighbor], upstream: float,
                    delta: float = DEFAULT_DELTA,
                    sigma: float = DEFAULT_SIGMA) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of ``upstream * alpha_tilde`` w.r.t. the neighbors' nodes.

    alpha_tilde = sum_k w_k lr_k with w_k = s_k / (S + sigma) and
    s_k = exp(-delta ||h - h_k||^2), where s_k is the similarity the search
    for ``h`` found, so ``delta`` must be the searched tree's.  Returns the
    embedding gradients (one row per neighbor) and the lr gradients, in
    neighbor order.  The query embedding is treated as a constant.
    """
    if len(neighbors) == 0:
        raise ConfigError("blend_gradients needs at least one neighbor")
    h = np.asarray(h, dtype=np.float64)
    sims = np.array([nb.similarity for nb in neighbors])
    lrs = np.array([nb.lr for nb in neighbors], dtype=np.float64)
    denom = sims.sum() + sigma
    alpha_tilde = float(np.dot(sims, lrs) / denom)
    dalpha_ds = (lrs - alpha_tilde) / denom
    ds_dh = (-2.0 * delta * sims)[:, None] * (np.array([nb.embedding for nb in neighbors]) - h)
    return (upstream * dalpha_ds)[:, None] * ds_dh, upstream * (sims / denom)


class TreeMemory:
    """Memory of user embeddings and their learned inner rates.

    Both search modes run the same exact scan; ``mode`` is only validated,
    stored and persisted, and ``seed`` selects nothing.
    """

    def __init__(self, dim: int, capacity: int = DEFAULT_CAPACITY, mode: str = "exact",
                 delta: float = DEFAULT_DELTA, sigma: float = DEFAULT_SIGMA,
                 eviction: str = "lru", seed: int = 0):
        if dim < 1:
            raise ConfigError("embedding dimension must be >= 1")
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if mode not in SEARCH_MODES:
            raise ConfigError(f"unknown search mode {mode!r}; expected one of {SEARCH_MODES}")
        if eviction not in EVICTION_POLICIES:
            raise ConfigError(
                f"unknown eviction policy {eviction!r}; expected one of {EVICTION_POLICIES}")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.mode = mode
        self.delta = float(delta)
        self.sigma = float(sigma)
        self.eviction = eviction

        for attr, _, dtype in _COLUMNS:
            setattr(self, attr, np.empty((0, self.dim) if attr == "_emb" else 0, dtype=dtype))
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
                for attr, _, _ in _COLUMNS:
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
        self._lr[row] = min(max(lr, 0.0), 1.0)
        self._counter += 1
        self._recency[row] = self._counter
        self._freq[row] = 0
        return node_id

    def search(self, h, k: int, touch: bool = True) -> List[Neighbor]:
        """Return up to ``k`` nearest stored nodes, closest first.

        ``touch`` controls whether returned nodes have their recency bumped;
        evaluation passes False so that scoring a model leaves the memory
        byte-identical.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        n = self._n
        if n == 0:
            raise DataError("search on an empty memory tree (warm-up must store nodes first)")
        q = np.asarray(h, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ConfigError(f"query shape {q.shape} does not match tree dim ({self.dim},)")
        ids = self._ids[:n]
        diff = self._emb[:n] - q
        d2 = np.square(diff, out=diff).sum(axis=1)  # the bits of ((emb - q) ** 2).sum(axis=1)
        self.last_search_visited = n
        # rows up to the k-th distance, ties included, then ordered by (d2, id);
        # ~(d2 > kth) keeps NaN rows, which the sort puts last
        rows = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1])) if k < n else np.arange(n)
        rows = rows[np.lexsort((ids[rows], d2[rows]))[:k]]
        if touch:
            self._recency[rows] = np.arange(self._counter + 1, self._counter + len(rows) + 1)
            self._counter += len(rows)
            self._freq[rows] += 1
        emb = self._emb[rows]
        diff = (q - emb).reshape(len(rows), 1, self.dim)
        # each (1 x dim) @ (dim x 1) product is the BLAS dot np.dot runs, so the
        # kernel matches kernel_similarity bit for bit; a row sum would not
        sims = np.exp(-self.delta * (diff @ diff.reshape(len(rows), self.dim, 1)).ravel())
        return list(map(Neighbor, ids[rows].tolist(), np.sqrt(d2[rows]).tolist(), emb,
                        self._lr[rows].tolist(), sims.tolist()))

    def update_nodes(self, node_ids, emb_grads, lr_grads, beta: float) -> None:
        """One descent step on distinct nodes: row j of ``emb_grads`` and entry
        j of ``lr_grads`` belong to ``node_ids[j]``; rates stay in [0, 1]."""
        unknown = [i for i in node_ids if i not in self._rows]
        if unknown:
            raise ConfigError(f"gradient supplied for unknown memory node id {unknown[0]}")
        rows = [self._rows[i] for i in node_ids]
        if len(set(rows)) != len(rows):
            raise ConfigError("gradient supplied twice for one memory node")
        emb_grads = np.asarray(emb_grads, dtype=np.float64)
        lr_grads = np.asarray(lr_grads, dtype=np.float64)
        if emb_grads.shape != (len(rows), self.dim) or lr_grads.shape != (len(rows),):
            raise ConfigError(f"gradient shapes {emb_grads.shape} and {lr_grads.shape} do not "
                              f"match {len(rows)} nodes of dim {self.dim}")
        self._emb[rows] = self._emb[rows] - beta * emb_grads
        self._lr[rows] = np.clip(self._lr[rows] - beta * lr_grads, 0.0, 1.0)

    def blended_lr(self, h, k: int, touch: bool = True) -> Tuple[float, List[Neighbor]]:
        """Search then blend: returns (alpha_tilde, neighbors)."""
        neighbors = self.search(h, k, touch=touch)
        return blend_lr([(nb.similarity, nb.lr) for nb in neighbors], self.sigma), neighbors

    def dump(self, path) -> None:
        order = np.argsort(self._ids[: self._n])
        np.savez(
            path,
            **{key: getattr(self, attr)[order] for attr, key, _ in _COLUMNS},
            meta=np.array([self.dim, self.capacity, self._next_id, self._counter,
                           self._evictions], dtype=np.int64),
            params=np.array([self.delta, self.sigma], dtype=np.float64),
            mode=np.array([SEARCH_MODES.index(self.mode)], dtype=np.int64),
            eviction=np.array([EVICTION_POLICIES.index(self.eviction)], dtype=np.int64),
        )

    @classmethod
    def load(cls, path) -> "TreeMemory":
        """Rebuild a dumped memory; a malformed node table is a DataError."""
        with np.load(path) as data:
            meta = data["meta"]
            tree = cls(dim=int(meta[0]), capacity=int(meta[1]),
                       mode=SEARCH_MODES[int(data["mode"][0])],
                       delta=float(data["params"][0]), sigma=float(data["params"][1]),
                       eviction=EVICTION_POLICIES[int(data["eviction"][0])])
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
        if n and ids.max() >= tree._next_id:
            raise DataError(f"tree dump {path}: node id {ids.max()} >= next id {tree._next_id}")
        for attr, value in columns.items():
            setattr(tree, attr, value)
        tree._n = n
        tree._rows = dict(zip(ids.tolist(), range(n)))
        return tree
