"""Tests for the embedding memory: storage, eviction, search, blending.

A linear scan ordered by (squared distance, node id) is the oracle for every
search assertion.  Gradient flows through the kernel blend are checked
against central finite differences.
"""

import numpy as np
import pytest

from metarec.errors import ConfigError, DataError
from metarec.memory_tree import (
    EVICTION_POLICIES,
    SEARCH_MODES,
    TreeMemory,
    blend_gradients,
    blend_lr,
    kernel_similarity,
)


def brute_force_ids(points, ids, query, k):
    d2 = ((np.asarray(points) - np.asarray(query)) ** 2).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (d2[i], ids[i]))
    return [(ids[i], float(np.sqrt(d2[i]))) for i in order[:k]]


def fill_tree(points, **kwargs):
    points = np.asarray(points, dtype=np.float64)
    tree = TreeMemory(dim=points.shape[1], **kwargs)
    ids = [tree.store_node(p, 1e-3) for p in points]
    return tree, ids


class TestStore:
    def test_insert_into_empty_tree(self):
        tree = TreeMemory(dim=3)
        tree.store_node([1.0, 2.0, 3.0], 1e-3)
        assert len(tree) == 1

    def test_dimension_mismatch_rejected(self):
        tree = TreeMemory(dim=3)
        with pytest.raises(ConfigError):
            tree.store_node([1.0, 2.0], 1e-3)

    def test_non_finite_embedding_rejected(self):
        tree = TreeMemory(dim=2)
        with pytest.raises(DataError):
            tree.store_node([np.inf, 0.0], 1e-3)

    def test_duplicates_are_both_stored(self):
        tree = TreeMemory(dim=2)
        tree.store_node([1.0, 1.0], 1e-3)
        tree.store_node([1.0, 1.0], 2e-3)
        assert len(tree) == 2

    def test_stored_lr_clamped_to_unit_interval(self):
        tree = TreeMemory(dim=1)
        a = tree.store_node([0.0], -0.5)
        b = tree.store_node([1.0], 2.5)
        assert tree.node(a).lr == 0.0
        assert tree.node(b).lr == 1.0

    def test_stored_embedding_is_a_copy(self):
        tree = TreeMemory(dim=2)
        src = np.array([1.0, 2.0])
        node_id = tree.store_node(src, 1e-3)
        src[0] = 99.0
        assert tree.node(node_id).embedding[0] == 1.0


class TestEviction:
    def test_least_recently_used_goes_first(self):
        tree = TreeMemory(dim=1, capacity=2)
        a = tree.store_node([0.0], 1e-3)
        b = tree.store_node([10.0], 1e-3)
        tree.search([9.0], k=1)  # touches b only
        c = tree.store_node([5.0], 1e-3)
        assert a not in tree.node_ids()
        assert sorted((b, c)) == tree.node_ids()

    def test_least_frequently_used_goes_first_under_lfu(self):
        # a is touched twice but long ago; b once, recently.  LRU would evict
        # a, LFU must evict b.
        tree = TreeMemory(dim=1, capacity=2, eviction="lfu")
        a = tree.store_node([0.0], 1e-3)
        b = tree.store_node([10.0], 1e-3)
        tree.search([-1.0], k=1)
        tree.search([-1.0], k=1)
        tree.search([9.0], k=1)
        c = tree.store_node([5.0], 1e-3)
        assert b not in tree.node_ids()
        assert sorted((a, c)) == tree.node_ids()

    def test_capacity_never_exceeded_and_evictions_counted(self):
        tree = TreeMemory(dim=2, capacity=50)
        rng = np.random.default_rng(0)
        for _ in range(130):
            tree.store_node(rng.normal(size=2), 1e-3)
            assert len(tree) <= 50
        assert len(tree) == 50
        assert tree.evictions == 80


class TestExactSearch:
    def test_line_of_three_points(self):
        tree, ids = fill_tree([[1.0], [2.0], [3.0]])
        hits = tree.search([0.0], k=2)
        assert [h.node_id for h in hits] == [ids[0], ids[1]]
        assert hits[0].distance == pytest.approx(1.0)
        assert hits[1].distance == pytest.approx(2.0)

    def test_empty_tree_search_is_an_error(self):
        tree = TreeMemory(dim=1)
        with pytest.raises(DataError):
            tree.search([0.0], k=1)

    def test_k_larger_than_count_returns_all(self):
        tree, ids = fill_tree([[0.0], [1.0]])
        hits = tree.search([0.0], k=10)
        assert len(hits) == 2

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_matches_brute_force_across_shapes(self, mode):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 300))
            d = int(rng.integers(2, 33))
            k = int(rng.integers(1, 21))
            points = rng.normal(size=(n, d))
            tree, ids = fill_tree(points, mode=mode)
            query = rng.normal(size=d)
            expected = brute_force_ids(points, ids, query, min(k, n))
            hits = tree.search(query, k=k, touch=False)
            assert [(h.node_id, h.distance) for h in hits] == expected

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_matches_brute_force_with_heavy_ties(self, mode):
        # many duplicated coordinates force tie-breaking through node ids
        rng = np.random.default_rng(5)
        points = rng.integers(0, 3, size=(80, 3)).astype(float)
        tree, ids = fill_tree(points, mode=mode)
        for _ in range(20):
            query = rng.integers(0, 3, size=3).astype(float)
            expected = brute_force_ids(points, ids, query, 10)
            hits = tree.search(query, k=10, touch=False)
            assert [(h.node_id, h.distance) for h in hits] == expected

    def test_consistent_after_every_kind_of_mutation(self):
        rng = np.random.default_rng(33)
        points = list(rng.normal(size=(40, 4)))
        tree, ids = fill_tree(points, capacity=45)
        query = rng.normal(size=4)

        extra = rng.normal(size=4)
        ids.append(tree.store_node(extra, 2e-3))
        points.append(extra)
        expected = brute_force_ids(points, ids, query, 7)
        got = tree.search(query, k=7, touch=False)
        assert [(h.node_id, h.distance) for h in got] == expected

        grad = rng.normal(size=4)
        tree.update_nodes([ids[0]], [grad], [0.0], beta=0.1)
        points[0] = points[0] - 0.1 * grad
        expected = brute_force_ids(points, ids, query, 7)
        got = tree.search(query, k=7, touch=False)
        assert [(h.node_id, h.distance) for h in got] == expected

    def test_touch_bumps_recency_and_frequency(self):
        tree, ids = fill_tree([[0.0], [5.0]])
        before = tree.node(ids[0]).recency
        tree.search([0.1], k=1)
        after = tree.node(ids[0]).recency
        assert after > before
        assert tree.node(ids[0]).freq == 1

    def test_hits_do_not_alias_storage(self):
        tree, ids = fill_tree([[0.0, 1.0], [5.0, 5.0]])
        for hit in tree.search([0.0, 0.0], k=2, touch=False):
            hit.embedding[:] = 99.0
        assert np.array_equal(tree.node(ids[0]).embedding, [0.0, 1.0])
        assert np.array_equal(tree.node(ids[1]).embedding, [5.0, 5.0])

    def test_untouched_search_leaves_state_alone(self):
        tree, ids = fill_tree([[0.0], [5.0]])
        rec = [tree.node(i).recency for i in ids]
        freq = [tree.node(i).freq for i in ids]
        tree.search([0.1], k=2, touch=False)
        assert [tree.node(i).recency for i in ids] == rec
        assert [tree.node(i).freq for i in ids] == freq


class TestApproximateSearch:
    def test_recall_meets_floor_on_reference_setup(self):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(500, 8))
        tree, ids = fill_tree(points, mode="approximate", seed=1)
        for k in (5, 20):
            found = total = 0
            for _ in range(100):
                query = rng.normal(size=8)
                true_ids = {nid for nid, _ in brute_force_ids(points, ids, query, k)}
                got = {h.node_id for h in tree.search(query, k=k, touch=False)}
                found += len(true_ids & got)
                total += k
            assert found / total >= 0.9

    def test_results_sorted_and_unique(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(300, 6))
        tree, _ = fill_tree(points, mode="approximate", seed=3)
        hits = tree.search(rng.normal(size=6), k=10, touch=False)
        dists = [h.distance for h in hits]
        assert dists == sorted(dists)
        assert len({h.node_id for h in hits}) == len(hits)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(19)
        points = rng.normal(size=(200, 5))
        query = rng.normal(size=5)
        a, _ = fill_tree(points, mode="approximate", seed=7)
        b, _ = fill_tree(points, mode="approximate", seed=7)
        ha = a.search(query, k=8, touch=False)
        hb = b.search(query, k=8, touch=False)
        assert [(h.node_id, h.distance) for h in ha] == [(h.node_id, h.distance) for h in hb]


class TestKernel:
    def test_identical_embeddings_have_unit_similarity(self):
        h = np.array([0.3, -0.2])
        assert kernel_similarity(h, h) == 1.0

    def test_half_unit_squared_distance(self):
        h_i = np.array([0.0, 0.0])
        h_k = np.array([np.sqrt(0.5), 0.0])
        assert kernel_similarity(h_i, h_k, delta=2.0) == pytest.approx(0.367879, abs=1e-6)

    def test_monotone_decay_with_distance(self):
        h = np.zeros(3)
        values = [kernel_similarity(h, np.full(3, r)) for r in (0.1, 0.5, 1.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            kernel_similarity(np.zeros(2), np.zeros(3))


class TestBlend:
    def test_single_neighbor_shrinks_toward_zero(self):
        assert blend_lr([(1.0, 2e-3)], sigma=1e-5) == pytest.approx(2e-3 / (1 + 1e-5), rel=1e-12)

    def test_two_equal_similarity_neighbors(self):
        got = blend_lr([(1.0, 1e-3), (1.0, 3e-3)], sigma=1e-5)
        assert got == pytest.approx(4e-3 / (2 + 1e-5), rel=1e-12)
        assert got == pytest.approx(1.99999e-3, abs=1e-8)

    def test_equal_rates_stay_strictly_below_common_value(self):
        sims = [0.9, 0.5, 0.1]
        c = 7e-4
        got = blend_lr([(s, c) for s in sims], sigma=1e-5)
        assert got < c
        assert got == pytest.approx(c * sum(sims) / (sum(sims) + 1e-5), rel=1e-12)

    def test_output_below_max_rate_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            sims = rng.uniform(1e-6, 1.0, size=n)
            lrs = rng.uniform(0.0, 1.0, size=n)
            lrs[int(rng.integers(0, n))] = lrs.max() + 1e-3
            got = blend_lr(list(zip(sims, lrs)), sigma=1e-5)
            assert 0.0 <= got < lrs.max()

    def test_empty_neighbor_list_rejected(self):
        with pytest.raises(ConfigError):
            blend_lr([], sigma=1e-5)


class TestBlendGradients:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.points = rng.normal(size=(6, 4))
        self.tree, self.ids = fill_tree(self.points)
        for i, node_id in enumerate(self.ids):
            self.tree.node(node_id).lr = 1e-3 * (i + 1)
        self.query = rng.normal(size=4)
        self.neighbor_ids = [nb.node_id for nb in self.tree.search(self.query, k=4, touch=False)]

    def loss_given(self, emb_override=None, lr_override=None):
        # scalar loss 3 * alpha_tilde^2 over the searched neighbor set
        sims, lrs = [], []
        for node_id in self.neighbor_ids:
            pos = self.ids.index(node_id)
            emb = self.points[pos].copy()
            lr = self.tree.node(node_id).lr
            if emb_override and node_id in emb_override:
                emb = emb_override[node_id]
            if lr_override and node_id in lr_override:
                lr = lr_override[node_id]
            sims.append(kernel_similarity(self.query, emb, 2.0))
            lrs.append(lr)
        alpha = blend_lr(list(zip(sims, lrs)), sigma=1e-5)
        return 3.0 * alpha ** 2

    def test_embedding_gradient_matches_finite_differences(self):
        neighbors = self.tree.search(self.query, k=4, touch=False)
        sims = [kernel_similarity(self.query, nb.embedding, 2.0) for nb in neighbors]
        alpha = blend_lr([(s, nb.lr) for s, nb in zip(sims, neighbors)], sigma=1e-5)
        upstream = 6.0 * alpha  # d/d_alpha of 3 alpha^2
        emb_grads, lr_grads = blend_gradients(self.query, neighbors, upstream)
        target = neighbors[0].node_id  # row 0 of emb_grads
        pos = self.ids.index(target)
        eps = 1e-6
        for j in range(4):
            bumped_up = self.points[pos].copy()
            bumped_up[j] += eps
            bumped_dn = self.points[pos].copy()
            bumped_dn[j] -= eps
            fd = (self.loss_given(emb_override={target: bumped_up})
                  - self.loss_given(emb_override={target: bumped_dn})) / (2 * eps)
            assert emb_grads[0][j] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_lr_gradient_matches_finite_differences(self):
        neighbors = self.tree.search(self.query, k=4, touch=False)
        sims = [kernel_similarity(self.query, nb.embedding, 2.0) for nb in neighbors]
        alpha = blend_lr([(s, nb.lr) for s, nb in zip(sims, neighbors)], sigma=1e-5)
        upstream = 6.0 * alpha
        _, lr_grads = blend_gradients(self.query, neighbors, upstream)
        eps = 1e-7
        for row, nb in enumerate(neighbors):
            base = self.tree.node(nb.node_id).lr
            fd = (self.loss_given(lr_override={nb.node_id: base + eps})
                  - self.loss_given(lr_override={nb.node_id: base - eps})) / (2 * eps)
            assert lr_grads[row] == pytest.approx(fd, rel=1e-4, abs=1e-12)


class TestUpdateNodes:
    def test_zero_gradients_change_nothing(self):
        tree, ids = fill_tree([[0.0, 1.0], [2.0, 3.0]])
        before = {i: tree.node(i).embedding.copy() for i in ids}
        tree.update_nodes(ids, np.zeros((2, 2)), np.zeros(2), beta=0.5)
        for i in ids:
            assert np.array_equal(tree.node(i).embedding, before[i])

    def test_zero_step_changes_nothing(self):
        tree, ids = fill_tree([[0.0, 1.0], [2.0, 3.0]])
        before = {i: tree.node(i).embedding.copy() for i in ids}
        tree.update_nodes([ids[0]], [np.ones(2)], [5.0], beta=0.0)
        assert np.array_equal(tree.node(ids[0]).embedding, before[ids[0]])

    def test_descent_step_applied_exactly(self):
        tree, ids = fill_tree([[1.0, -1.0]])
        tree.update_nodes([ids[0]], [np.array([2.0, 4.0])], [0.001], beta=0.25)
        assert np.array_equal(tree.node(ids[0]).embedding, np.array([0.5, -2.0]))
        assert tree.node(ids[0]).lr == pytest.approx(1e-3 - 0.25 * 0.001)

    def test_lr_stays_clamped(self):
        tree, ids = fill_tree([[0.0]])
        tree.update_nodes([ids[0]], [[0.0]], [100.0], beta=1.0)
        assert tree.node(ids[0]).lr == 0.0
        tree.update_nodes([ids[0]], [[0.0]], [-100.0], beta=1.0)
        assert tree.node(ids[0]).lr == 1.0

    def test_unknown_node_rejected(self):
        tree, _ = fill_tree([[0.0]])
        with pytest.raises(ConfigError):
            tree.update_nodes([999], [np.zeros(1)], [0.0], beta=0.1)

    def test_repeated_node_rejected(self):
        tree, ids = fill_tree([[0.0]])
        with pytest.raises(ConfigError, match="twice"):
            tree.update_nodes([ids[0], ids[0]], np.ones((2, 1)), np.zeros(2), beta=0.1)

    def test_gradient_shapes_must_match_the_nodes(self):
        tree, ids = fill_tree([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ConfigError, match="shapes"):
            tree.update_nodes(ids, np.ones((2, 3)), np.zeros(2), beta=0.1)
        with pytest.raises(ConfigError, match="shapes"):
            tree.update_nodes(ids, np.ones((2, 2)), np.zeros(1), beta=0.1)


class TestBlendedLrHelper:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 3))
        tree, _ = fill_tree(points)
        query = rng.normal(size=3)
        alpha, neighbors = tree.blended_lr(query, k=5, touch=False)
        sims = [kernel_similarity(query, nb.embedding, tree.delta) for nb in neighbors]
        assert alpha == pytest.approx(
            blend_lr(list(zip(sims, [nb.lr for nb in neighbors])), tree.sigma), rel=1e-12)


class TestDumpLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(25, 3))
        tree, ids = fill_tree(points, capacity=30)
        tree.search(rng.normal(size=3), k=4)  # creates recency/freq structure
        path = tmp_path / "memory.npz"
        tree.dump(path)
        clone = TreeMemory.load(path)

        assert clone.node_ids() == tree.node_ids()
        for i in tree.node_ids():
            assert np.array_equal(clone.node(i).embedding, tree.node(i).embedding)
            assert clone.node(i).lr == tree.node(i).lr
            assert clone.node(i).recency == tree.node(i).recency
            assert clone.node(i).freq == tree.node(i).freq
        query = rng.normal(size=3)
        a = tree.search(query, k=6, touch=False)
        b = clone.search(query, k=6, touch=False)
        assert [(h.node_id, h.distance) for h in a] == [(h.node_id, h.distance) for h in b]

    def test_loaded_tree_continues_id_sequence(self, tmp_path):
        tree, ids = fill_tree([[0.0], [1.0]])
        path = tmp_path / "memory.npz"
        tree.dump(path)
        clone = TreeMemory.load(path)
        new_id = clone.store_node([2.0], 1e-3)
        assert new_id == max(ids) + 1

    def test_nine_entry_meta_layout_still_loads(self, tmp_path):
        # dumps from the kd-tree memory appended leaf size, tree count, checks
        # budget and seed to meta; the first five entries are unchanged
        rng = np.random.default_rng(6)
        points = rng.normal(size=(12, 3))
        tree, ids = fill_tree(points, capacity=20, mode="approximate")
        tree.search(rng.normal(size=3), k=3)
        path = tmp_path / "old.npz"
        np.savez(
            path,
            ids=np.array(ids, dtype=np.int64),
            embeddings=points,
            lrs=np.array([tree.node(i).lr for i in ids]),
            recency=np.array([tree.node(i).recency for i in ids], dtype=np.int64),
            freq=np.array([tree.node(i).freq for i in ids], dtype=np.int64),
            meta=np.array([3, 20, len(ids), tree._counter, 0, 8, 4, 64, 1], dtype=np.int64),
            params=np.array([tree.delta, tree.sigma]),
            mode=np.array([SEARCH_MODES.index("approximate")], dtype=np.int64),
            eviction=np.array([0], dtype=np.int64),
        )
        clone = TreeMemory.load(path)

        assert clone.node_ids() == ids
        assert (clone.capacity, clone.mode) == (20, "approximate")
        for i in ids:
            assert np.array_equal(clone.node(i).embedding, tree.node(i).embedding)
            assert (clone.node(i).recency, clone.node(i).freq) == (
                tree.node(i).recency, tree.node(i).freq)
        query = rng.normal(size=3)
        a = tree.search(query, k=5, touch=False)
        b = clone.search(query, k=5, touch=False)
        assert [(h.node_id, h.distance) for h in a] == [(h.node_id, h.distance) for h in b]
        assert clone.store_node([0.0, 0.0, 0.0], 1e-3) == len(ids)


def rewrite_dump(tree, path, **changes):
    """Dump ``tree`` to ``path`` with some of its arrays replaced."""
    tree.dump(path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays.update(changes)
    np.savez(path, **arrays)


class TestLoadRejectsMalformedDumps:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.tree, self.ids = fill_tree(rng.normal(size=(5, 3)))

    def test_truncated_column(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, lrs=np.full(4, 1e-3))
        with pytest.raises(DataError, match="lengths disagree"):
            TreeMemory.load(path)

    def test_repeated_ids(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, ids=np.array([0, 1, 2, 2, 4], dtype=np.int64))
        with pytest.raises(DataError, match="repeat"):
            TreeMemory.load(path)

    def test_embeddings_of_the_wrong_width(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, embeddings=np.zeros((5, 4)))
        with pytest.raises(DataError, match="embeddings"):
            TreeMemory.load(path)

    def test_id_at_or_past_the_next_id(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, ids=np.array([0, 1, 2, 3, 5], dtype=np.int64))
        with pytest.raises(DataError, match="next id"):
            TreeMemory.load(path)


class ReferenceMemory:
    """Dict-of-nodes memory: the plain per-node model the columns must match.

    Each node is [embedding, lr, recency, freq]; eviction is a ``min`` over
    (recency, id) or (freq, recency, id), search a full lexsort by
    (squared distance, id), and each touch takes the next tick.
    """

    def __init__(self, capacity, eviction, delta):
        self.capacity, self.eviction, self.delta = capacity, eviction, delta
        self.nodes = {}
        self.next_id = self.counter = self.evictions = 0

    def store(self, h, lr):
        if len(self.nodes) >= self.capacity:
            if self.eviction == "lru":
                victim = min(self.nodes, key=lambda i: (self.nodes[i][2], i))
            else:
                victim = min(self.nodes, key=lambda i: (self.nodes[i][3], self.nodes[i][2], i))
            del self.nodes[victim]
            self.evictions += 1
        self.counter += 1
        self.nodes[self.next_id] = [np.array(h, dtype=np.float64), min(max(lr, 0.0), 1.0),
                                    self.counter, 0]
        self.next_id += 1
        return self.next_id - 1

    def search(self, q, k, touch):
        ids = sorted(self.nodes)
        d2 = ((np.stack([self.nodes[i][0] for i in ids]) - q) ** 2).sum(axis=1)
        hits = []
        for pos in np.lexsort((ids, d2))[:k]:
            node = self.nodes[ids[pos]]
            if touch:
                self.counter += 1
                node[2] = self.counter
                node[3] += 1
            hits.append((ids[pos], float(np.sqrt(d2[pos])), node[0].copy(), node[1],
                         kernel_similarity(q, node[0], self.delta)))
        return hits

    def update(self, emb_grads, lr_grads, beta):
        for node_id, g in emb_grads.items():
            self.nodes[node_id][0] = self.nodes[node_id][0] - beta * g
        for node_id, g in lr_grads.items():
            node = self.nodes[node_id]
            node[1] = min(max(node[1] - beta * g, 0.0), 1.0)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_memory(tree, ref):
    assert tree.node_ids() == sorted(ref.nodes)
    assert (len(tree), tree.evictions) == (len(ref.nodes), ref.evictions)
    for node_id, (emb, lr, recency, freq) in ref.nodes.items():
        node = tree.node(node_id)
        assert bits(node.embedding) == bits(emb)
        assert bits(node.lr) == bits(lr)
        assert (node.recency, node.freq) == (recency, freq)


class TestDifferentialAgainstReference:
    """One long random sequence drives the memory and the reference model."""

    @pytest.mark.parametrize("eviction", EVICTION_POLICIES)
    def test_every_operation_matches_bit_for_bit(self, tmp_path, eviction):
        rng = np.random.default_rng(31)
        dim, capacity = 3, 12

        def point():
            # half the points sit on a small grid, so distances tie often
            if rng.random() < 0.5:
                return rng.integers(0, 3, size=dim).astype(np.float64)
            return rng.normal(size=dim)

        tree = TreeMemory(dim=dim, capacity=capacity, eviction=eviction)
        ref = ReferenceMemory(capacity, eviction, tree.delta)
        for step in range(600):
            op = rng.random()
            if op < 0.35 or not ref.nodes:
                lr = float(rng.uniform(-0.2, 1.2))  # clamped to [0, 1] on store
                h = point()
                assert tree.store_node(h, lr) == ref.store(h, lr)
            elif op < 0.8:
                q, k, touch = point(), int(rng.integers(1, 16)), bool(rng.random() < 0.7)
                got = tree.search(q, k, touch=touch)
                expected = ref.search(q, k, touch)
                assert [(nb.node_id, bits(nb.distance), bits(nb.embedding), bits(nb.lr),
                         bits(nb.similarity)) for nb in got] == [
                    (i, bits(d), bits(e), bits(lr), bits(s)) for i, d, e, lr, s in expected]
            elif op < 0.97:
                ids = sorted(rng.choice(sorted(ref.nodes), size=min(4, len(ref.nodes)),
                                        replace=False).tolist())
                emb_grads = rng.normal(size=(len(ids), dim))
                lr_grads = rng.normal(size=len(ids)) * 2.0
                tree.update_nodes(ids, emb_grads, lr_grads, beta=0.3)
                ref.update(dict(zip(ids, emb_grads)), dict(zip(ids, lr_grads)), 0.3)
            else:
                path = tmp_path / f"memory-{step}.npz"
                tree.dump(path)
                tree = TreeMemory.load(path)
            assert_same_memory(tree, ref)
        assert ref.evictions > 0
