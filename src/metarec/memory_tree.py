"""Embedding memory (the paper's "tree") with kernel-weighted rate blending.

The memory stores (embedding, learning rate, recency) triples.  Lookups return
the K nearest stored embeddings; their rates are blended with Gaussian-kernel
weights into a prior for the query user.  Stored nodes are trainable: callers
push gradients back through the blend and the memory applies descent steps.

Every search is one exact scan over all stored embeddings, ordered by
(squared distance, node id).  At the tens of dimensions of user embeddings a
kd-tree would visit nearly every point anyway (Weber, Schek & Blott, VLDB 1998).
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_CAPACITY = 10000
DEFAULT_DELTA = 2.0
DEFAULT_SIGMA = 1e-5

SEARCH_MODES = ("exact", "approximate")
EVICTION_POLICIES = ("lru", "lfu")


class Neighbor(NamedTuple):
    """One search hit: stored node id, Euclidean distance, and node payload."""

    node_id: int
    distance: float
    embedding: np.ndarray
    lr: float


@dataclass
class MemoryNode:
    embedding: np.ndarray
    lr: float
    recency: int
    freq: int = 0


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


def blend_gradients(
    h,
    neighbors: Sequence[Neighbor],
    upstream: float,
    delta: float = DEFAULT_DELTA,
    sigma: float = DEFAULT_SIGMA,
) -> Tuple[Dict[int, np.ndarray], Dict[int, float]]:
    """Gradients of ``upstream * alpha_tilde`` w.r.t. stored nodes.

    alpha_tilde = sum_k w_k lr_k with w_k = s_k / (S + sigma) and
    s_k = exp(-delta ||h - h_k||^2).  Returns per-node embedding gradients and
    per-node lr gradients, keyed by node id.  The query embedding is treated
    as a constant.
    """
    if len(neighbors) == 0:
        raise ConfigError("blend_gradients needs at least one neighbor")
    h = np.asarray(h, dtype=np.float64)
    sims = np.array([kernel_similarity(h, nb.embedding, delta) for nb in neighbors])
    lrs = np.array([nb.lr for nb in neighbors], dtype=np.float64)
    denom = sims.sum() + sigma
    alpha_tilde = float(np.dot(sims, lrs) / denom)

    emb_grads: Dict[int, np.ndarray] = {}
    lr_grads: Dict[int, float] = {}
    for nb, s_k, lr_k in zip(neighbors, sims, lrs):
        dalpha_ds = (lr_k - alpha_tilde) / denom
        ds_dh = -2.0 * delta * s_k * (np.asarray(nb.embedding, dtype=np.float64) - h)
        grad = upstream * dalpha_ds * ds_dh
        weight = s_k / denom
        if nb.node_id in emb_grads:
            emb_grads[nb.node_id] = emb_grads[nb.node_id] + grad
            lr_grads[nb.node_id] += upstream * weight
        else:
            emb_grads[nb.node_id] = grad
            lr_grads[nb.node_id] = upstream * weight
    return emb_grads, lr_grads


class TreeMemory:
    """Memory of user embeddings and their learned inner rates.

    Both search modes run the same exact scan; ``mode`` is only validated,
    stored and persisted, and ``seed`` selects nothing.
    """

    def __init__(
        self,
        dim: int,
        capacity: int = DEFAULT_CAPACITY,
        mode: str = "exact",
        delta: float = DEFAULT_DELTA,
        sigma: float = DEFAULT_SIGMA,
        eviction: str = "lru",
        seed: int = 0,
    ):
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

        self._nodes: Dict[int, MemoryNode] = {}
        self._next_id = 0
        self._counter = 0
        self._evictions = 0
        self._dirty = True
        self._index_ids: Optional[np.ndarray] = None
        self._index_points: Optional[np.ndarray] = None
        self.last_search_visited = 0

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def evictions(self) -> int:
        return self._evictions

    def node(self, node_id: int) -> MemoryNode:
        if node_id not in self._nodes:
            raise ConfigError(f"unknown memory node id {node_id}")
        return self._nodes[node_id]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def _tick(self) -> int:
        self._counter += 1
        return self._counter

    def _evict_one(self) -> None:
        if self.eviction == "lru":
            victim = min(self._nodes, key=lambda i: (self._nodes[i].recency, i))
        else:
            victim = min(self._nodes, key=lambda i: (self._nodes[i].freq, self._nodes[i].recency, i))
        del self._nodes[victim]
        self._evictions += 1

    def store_node(self, h, lr: float) -> int:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.dim,):
            raise ConfigError(f"embedding shape {h.shape} does not match tree dim ({self.dim},)")
        if not np.all(np.isfinite(h)) or not np.isfinite(lr):
            raise DataError("non-finite embedding or learning rate offered to the memory tree")
        if len(self._nodes) >= self.capacity:
            self._evict_one()
        node_id = self._next_id
        self._next_id += 1
        clamped = float(min(max(lr, 0.0), 1.0))
        self._nodes[node_id] = MemoryNode(embedding=h.copy(), lr=clamped, recency=self._tick())
        self._dirty = True
        return node_id

    def _rebuild(self) -> None:
        ids = np.array(sorted(self._nodes), dtype=np.int64)
        self._index_ids = ids
        self._index_points = np.stack([self._nodes[i].embedding for i in ids])
        self._dirty = False

    def search(self, h, k: int, touch: bool = True) -> List[Neighbor]:
        """Return up to ``k`` nearest stored nodes, closest first.

        ``touch`` controls whether returned nodes have their recency bumped;
        evaluation passes False so that scoring a model leaves the memory
        byte-identical.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        if not self._nodes:
            raise DataError("search on an empty memory tree (warm-up must store nodes first)")
        q = np.asarray(h, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ConfigError(f"query shape {q.shape} does not match tree dim ({self.dim},)")
        if self._dirty:
            self._rebuild()
        ids = self._index_ids
        d2 = ((self._index_points - q) ** 2).sum(axis=1)
        self.last_search_visited = len(ids)
        hits = []
        for pos in np.lexsort((ids, d2))[:k]:
            node_id = int(ids[pos])
            node = self._nodes[node_id]
            if touch:
                node.recency = self._tick()
                node.freq += 1
            hits.append(Neighbor(node_id=node_id, distance=float(np.sqrt(d2[pos])),
                                 embedding=node.embedding.copy(), lr=node.lr))
        return hits

    def update_nodes(self, emb_grads: Dict[int, np.ndarray], lr_grads: Dict[int, float],
                     beta: float) -> None:
        """Apply one descent step to the touched nodes and invalidate the index."""
        for node_id in set(emb_grads) | set(lr_grads):
            if node_id not in self._nodes:
                raise ConfigError(f"gradient supplied for unknown memory node id {node_id}")
        for node_id, grad in emb_grads.items():
            grad = np.asarray(grad, dtype=np.float64)
            node = self._nodes[node_id]
            if grad.shape != node.embedding.shape:
                raise ConfigError(f"embedding gradient shape {grad.shape} does not match node")
            node.embedding = node.embedding - beta * grad
        for node_id, grad in lr_grads.items():
            node = self._nodes[node_id]
            node.lr = float(min(max(node.lr - beta * float(grad), 0.0), 1.0))
        if emb_grads or lr_grads:
            self._dirty = True

    def blended_lr(self, h, k: int, touch: bool = True) -> Tuple[float, List[Neighbor]]:
        """Search then blend: returns (alpha_tilde, neighbors)."""
        neighbors = self.search(h, k, touch=touch)
        q = np.asarray(h, dtype=np.float64)
        pairs = [(kernel_similarity(q, nb.embedding, self.delta), nb.lr) for nb in neighbors]
        return blend_lr(pairs, self.sigma), neighbors

    def dump(self, path) -> None:
        ids = np.array(sorted(self._nodes), dtype=np.int64)
        np.savez(
            path,
            ids=ids,
            embeddings=np.array([self._nodes[i].embedding for i in ids]).reshape(-1, self.dim),
            lrs=np.array([self._nodes[i].lr for i in ids], dtype=np.float64),
            recency=np.array([self._nodes[i].recency for i in ids], dtype=np.int64),
            freq=np.array([self._nodes[i].freq for i in ids], dtype=np.int64),
            meta=np.array([self.dim, self.capacity, self._next_id, self._counter,
                           self._evictions], dtype=np.int64),
            params=np.array([self.delta, self.sigma], dtype=np.float64),
            mode=np.array([SEARCH_MODES.index(self.mode)], dtype=np.int64),
            eviction=np.array([EVICTION_POLICIES.index(self.eviction)], dtype=np.int64),
        )

    @classmethod
    def load(cls, path) -> "TreeMemory":
        with np.load(path) as data:
            meta = data["meta"]
            tree = cls(
                dim=int(meta[0]),
                capacity=int(meta[1]),
                mode=SEARCH_MODES[int(data["mode"][0])],
                delta=float(data["params"][0]),
                sigma=float(data["params"][1]),
                eviction=EVICTION_POLICIES[int(data["eviction"][0])],
            )
            for node_id, emb, lr, rec, freq in zip(
                    data["ids"], data["embeddings"], data["lrs"], data["recency"], data["freq"]):
                tree._nodes[int(node_id)] = MemoryNode(
                    embedding=np.array(emb, dtype=np.float64), lr=float(lr),
                    recency=int(rec), freq=int(freq))
            # meta[:5] is shared by this layout and the older nine-entry one
            tree._next_id, tree._counter, tree._evictions = (int(v) for v in meta[2:5])
        return tree
