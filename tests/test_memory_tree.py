"""Tests for the embedding memory: storage, eviction, search, blending.

A linear scan ordered by (squared distance, node id) is the oracle for every
search assertion, and a stacked search must equal its queries searched one
at a time, bit for bit.  Gradient flows through the kernel blend are
checked against central finite differences.
"""

import numpy as np
import pytest

from metarec import meta_learners
from metarec.errors import ConfigError, DataError
from metarec.memory_tree import (
    EVICTION_POLICIES,
    TreeMemory,
    blend_gradients,
    blend_lr,
    kernel_similarity,
)
from metarec.meta_learners import LrHead, TrainerConfig, _distinct_rates


def brute_force_ids(points, ids, query, k):
    d2 = ((np.asarray(points) - np.asarray(query)) ** 2).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (d2[i], ids[i]))
    return [(ids[i], float(np.sqrt(d2[i]))) for i in order[:k]]


def pairs(hits):
    """(node id, distance) per hit, in hit order."""
    return list(zip(hits.ids.tolist(), hits.distances.tolist()))


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


class TestTouch:
    def state(self, tree):
        return {i: (tree.node(i).recency, tree.node(i).freq) for i in tree.node_ids()}

    def test_ticks_follow_the_given_order(self):
        tree, ids = fill_tree([[0.0], [1.0], [2.0], [3.0]])  # recency 1..4
        tree.touch([ids[2], ids[0]])
        assert self.state(tree) == {ids[0]: (6, 1), ids[1]: (2, 0), ids[2]: (5, 1),
                                    ids[3]: (4, 0)}
        tree.touch(np.array([ids[0]]))
        assert self.state(tree)[ids[0]] == (7, 2)
        tree.touch([])
        assert self.state(tree)[ids[0]] == (7, 2)
        assert tree.store_node([4.0], 1e-3) == 4 and tree.node(4).recency == 8

    def test_a_touching_search_is_a_search_then_a_touch(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(30, 3))
        searched, _ = fill_tree(points)
        touched, _ = fill_tree(points)
        for query in rng.normal(size=(5, 3)):
            hits = searched.search(query, k=4)
            plain = touched.search(query, k=4, touch=False)
            assert pairs(plain) == pairs(hits)
            touched.touch(plain.ids)
            assert self.state(touched) == self.state(searched)

    def test_unknown_or_repeated_id_is_rejected_before_any_write(self):
        tree, ids = fill_tree([[0.0], [1.0]])
        before = self.state(tree)
        with pytest.raises(ConfigError, match="unknown memory node id 7"):
            tree.touch([ids[0], 7])
        with pytest.raises(ConfigError, match="one memory node twice"):
            tree.touch([ids[1], ids[1]])
        assert self.state(tree) == before
        assert tree.store_node([2.0], 1e-3) == 2 and tree.node(2).recency == 3


class TestExactSearch:
    def test_line_of_three_points(self):
        tree, ids = fill_tree([[1.0], [2.0], [3.0]])
        hits = tree.search([0.0], k=2)
        assert hits.ids.tolist() == [ids[0], ids[1]]
        assert hits.distances[0] == pytest.approx(1.0)
        assert hits.distances[1] == pytest.approx(2.0)

    def test_empty_tree_search_is_an_error(self):
        tree = TreeMemory(dim=1)
        with pytest.raises(DataError):
            tree.search([0.0], k=1)

    def test_k_larger_than_count_returns_all(self):
        tree, ids = fill_tree([[0.0], [1.0]])
        hits = tree.search([0.0], k=10)
        assert all(len(column) == 2 for column in hits)

    def test_matches_brute_force_across_shapes(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 300))
            d = int(rng.integers(2, 33))
            k = int(rng.integers(1, 21))
            points = rng.normal(size=(n, d))
            tree, ids = fill_tree(points)
            query = rng.normal(size=d)
            expected = brute_force_ids(points, ids, query, min(k, n))
            assert pairs(tree.search(query, k=k, touch=False)) == expected

    def test_matches_brute_force_with_heavy_ties(self):
        # many duplicated coordinates force tie-breaking through node ids
        rng = np.random.default_rng(5)
        points = rng.integers(0, 3, size=(80, 3)).astype(float)
        tree, ids = fill_tree(points)
        for _ in range(20):
            query = rng.integers(0, 3, size=3).astype(float)
            expected = brute_force_ids(points, ids, query, 10)
            assert pairs(tree.search(query, k=10, touch=False)) == expected

    def test_consistent_after_every_kind_of_mutation(self):
        rng = np.random.default_rng(33)
        points = list(rng.normal(size=(40, 4)))
        tree, ids = fill_tree(points, capacity=45)
        query = rng.normal(size=4)

        extra = rng.normal(size=4)
        ids.append(tree.store_node(extra, 2e-3))
        points.append(extra)
        expected = brute_force_ids(points, ids, query, 7)
        assert pairs(tree.search(query, k=7, touch=False)) == expected

        grad = rng.normal(size=4)
        tree.update_nodes([ids[0]], [grad], [0.0], beta=0.1)
        points[0] = points[0] - 0.1 * grad
        expected = brute_force_ids(points, ids, query, 7)
        assert pairs(tree.search(query, k=7, touch=False)) == expected

    def test_touch_bumps_recency_and_frequency(self):
        tree, ids = fill_tree([[0.0], [5.0]])
        before = tree.node(ids[0]).recency
        tree.search([0.1], k=1)
        after = tree.node(ids[0]).recency
        assert after > before
        assert tree.node(ids[0]).freq == 1

    def test_hits_do_not_alias_storage(self):
        tree, ids = fill_tree([[0.0, 1.0], [5.0, 5.0]])
        hits = tree.search([0.0, 0.0], k=2, touch=False)
        for column in hits:
            column[...] = 99
        assert np.array_equal(tree.node(ids[0]).embedding, [0.0, 1.0])
        assert np.array_equal(tree.node(ids[1]).embedding, [5.0, 5.0])
        assert [tree.node(i).lr for i in ids] == [1e-3, 1e-3]
        assert tree.search([0.0, 0.0], k=2, touch=False).ids.tolist() == ids

    def test_untouched_search_leaves_state_alone(self):
        tree, ids = fill_tree([[0.0], [5.0]])
        rec = [tree.node(i).recency for i in ids]
        freq = [tree.node(i).freq for i in ids]
        tree.search([0.1], k=2, touch=False)
        assert [tree.node(i).recency for i in ids] == rec
        assert [tree.node(i).freq for i in ids] == freq


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
        assert blend_lr([1.0], [2e-3], sigma=1e-5) == pytest.approx(2e-3 / (1 + 1e-5), rel=1e-12)

    def test_two_equal_similarity_neighbors(self):
        got = blend_lr([1.0, 1.0], [1e-3, 3e-3], sigma=1e-5)
        assert got == pytest.approx(4e-3 / (2 + 1e-5), rel=1e-12)
        assert got == pytest.approx(1.99999e-3, abs=1e-8)

    def test_equal_rates_stay_strictly_below_common_value(self):
        sims = [0.9, 0.5, 0.1]
        c = 7e-4
        got = blend_lr(sims, [c] * len(sims), sigma=1e-5)
        assert got < c
        assert got == pytest.approx(c * sum(sims) / (sum(sims) + 1e-5), rel=1e-12)

    def test_output_below_max_rate_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            sims = rng.uniform(1e-6, 1.0, size=n)
            lrs = rng.uniform(0.0, 1.0, size=n)
            lrs[int(rng.integers(0, n))] = lrs.max() + 1e-3
            got = blend_lr(sims, lrs, sigma=1e-5)
            assert 0.0 <= got < lrs.max()

    def test_empty_neighbor_list_rejected(self):
        with pytest.raises(ConfigError):
            blend_lr([], [], sigma=1e-5)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigError, match="aligned"):
            blend_lr([1.0, 0.5], [1e-3], sigma=1e-5)


class TestBlendGradients:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.points = rng.normal(size=(6, 4))
        self.tree, self.ids = fill_tree(self.points)
        for i, node_id in enumerate(self.ids):
            self.tree.node(node_id).lr = 1e-3 * (i + 1)
        self.query = rng.normal(size=4)
        self.neighbor_ids = self.tree.search(self.query, k=4, touch=False).ids.tolist()

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
        alpha = blend_lr(sims, lrs, sigma=1e-5)
        return 3.0 * alpha ** 2

    def test_embedding_gradient_matches_finite_differences(self):
        neighbors = self.tree.search(self.query, k=4, touch=False)
        sims = [kernel_similarity(self.query, emb, 2.0) for emb in neighbors.embeddings]
        alpha = blend_lr(sims, neighbors.lrs, sigma=1e-5)
        upstream = 6.0 * alpha  # d/d_alpha of 3 alpha^2
        emb_grads, lr_grads = blend_gradients(self.query, neighbors, upstream)
        target = int(neighbors.ids[0])  # row 0 of emb_grads
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
        sims = [kernel_similarity(self.query, emb, 2.0) for emb in neighbors.embeddings]
        alpha = blend_lr(sims, neighbors.lrs, sigma=1e-5)
        upstream = 6.0 * alpha
        _, lr_grads = blend_gradients(self.query, neighbors, upstream)
        eps = 1e-7
        for row, node_id in enumerate(neighbors.ids.tolist()):
            base = self.tree.node(node_id).lr
            fd = (self.loss_given(lr_override={node_id: base + eps})
                  - self.loss_given(lr_override={node_id: base - eps})) / (2 * eps)
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
        sims = [kernel_similarity(query, emb, tree.delta) for emb in neighbors.embeddings]
        assert alpha == pytest.approx(blend_lr(sims, neighbors.lrs, tree.sigma), rel=1e-12)


def memory_state(tree):
    """Every node's id, rate, recency and frequency, and the tick counter."""
    return [(i, tree.node(i).lr, tree.node(i).recency, tree.node(i).freq)
            for i in tree.node_ids()], tree._counter


class TestStackedSearch:
    """A (D, dim) stack of queries searched at once against each query
    searched alone, in order, on a twin tree: every `Neighbors` field, every
    blended rate and, with ``touch``, the recency and frequency columns must
    match bit for bit."""

    def assert_stack_matches_loop(self, points, queries, ks, touch=False, lrs=None):
        points, queries = np.asarray(points, dtype=np.float64), np.asarray(queries)
        lrs = np.linspace(0.1, 0.9, len(points)) if lrs is None else lrs
        for k in ks:
            stacked, looped = (TreeMemory(dim=points.shape[1], capacity=len(points))
                               for _ in range(2))
            for point, lr in zip(points, lrs):
                stacked.store_node(point, lr)
                looped.store_node(point, lr)
            got = stacked.search(queries, k, touch=touch)
            expected = [looped.search(q, k, touch=touch) for q in queries]
            assert got.ids.shape == (len(queries), min(k, len(points)))
            for j, hits in enumerate(expected):
                for field, expected_field in zip(got, hits):
                    assert field[j].shape == expected_field.shape
                    assert field[j].tobytes() == expected_field.tobytes()
            assert memory_state(stacked) == memory_state(looped)
            rates, neighbors = stacked.blended_lr(queries, k, touch=False)
            assert [repr(rate) for rate in rates] == [
                repr(looped.blended_lr(q, k, touch=False)[0]) for q in queries]
            assert all(isinstance(rate, float) for rate in rates)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(neighbors, got))

    def test_random_queries_in_a_wide_cluster(self):
        rng = np.random.default_rng(5)
        center = 1e3 + rng.normal(size=16)
        points = center + rng.normal(size=(300, 16)) * rng.choice([1e-6, 1e-3, 1.0],
                                                                  size=(300, 1))
        queries = center + rng.normal(size=(40, 16)) * 1e-3
        self.assert_stack_matches_loop(points, queries, ks=(1, 5, 20))

    def test_ties_in_distance(self):
        """Duplicate embeddings and grid points: many hits tie in distance
        and are ordered by id; exact copies of a node are queries too."""
        rng = np.random.default_rng(6)
        grid = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        points = np.concatenate([grid, grid[:10], grid[:5]])
        queries = np.concatenate([grid[:6], rng.integers(0, 3, size=(6, 3)) + 0.5])
        self.assert_stack_matches_loop(points, queries, ks=(1, 3, 8, 30))
        tree, ids = fill_tree(points)
        for q, hits in zip(queries, tree.search(queries, k=8, touch=False).distances):
            assert hits.tolist() == [d for _, d in brute_force_ids(points, ids, q, 8)]

    def test_k_at_least_n_and_k_one_below_n(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 4))
        queries = rng.normal(size=(9, 4))
        self.assert_stack_matches_loop(points, queries, ks=(11, 12, 13, 40))

    def test_nan_and_infinite_queries_among_finite_ones(self):
        """A NaN or infinite query reads every row, whatever the others do;
        letting it through the prefilter would leave it no candidates."""
        rng = np.random.default_rng(8)
        points = rng.normal(size=(50, 4))
        queries = rng.normal(size=(8, 4))
        queries[2, 1] = np.nan
        queries[5, 0] = np.inf
        queries[6] = -np.inf
        self.assert_stack_matches_loop(points, queries, ks=(1, 4, 49))
        tree, ids = fill_tree(points)
        hits = tree.search(queries, k=4, touch=False)
        assert hits.ids[2].tolist() == ids[:4]  # every distance NaN, so by id
        for j in (0, 1, 3, 4, 7):
            assert pairs(tree.search(queries[j], k=4, touch=False)) == \
                brute_force_ids(points, ids, queries[j], 4)

    def test_a_huge_norm_node(self):
        """One node's squared norm is past 2^1020, so every query reads every
        row, and the hits are still the exact ones."""
        rng = np.random.default_rng(9)
        points = rng.normal(size=(30, 3))
        points[4] = 2.0 ** 510
        queries = rng.normal(size=(7, 3))
        queries[3] = points[4]
        self.assert_stack_matches_loop(points, queries, ks=(1, 5, 29))
        tree, ids = fill_tree(points)
        for q, hits in zip(queries, tree.search(queries, k=5, touch=False).ids):
            assert hits.tolist() == [i for i, _ in brute_force_ids(points, ids, q, 5)]

    def test_touching_a_stack_touches_each_querys_hits_in_order(self):
        """Queries that share hits: each query's hits get the next ticks,
        closest first, after the previous query's, as searching them one by
        one would give."""
        rng = np.random.default_rng(10)
        points = rng.normal(size=(25, 3))
        queries = np.concatenate([rng.normal(size=(6, 3)), points[:2], points[:2]])
        self.assert_stack_matches_loop(points, queries, ks=(1, 4, 25), touch=True)
        tree, _ = fill_tree(points)
        hits = tree.search(queries[:2], k=3)
        ticks = [[tree.node(i).recency for i in row] for row in hits.ids.tolist()]
        assert ticks == [[26, 27, 28], [29, 30, 31]]

    def test_a_lone_query_is_a_stack_of_one(self):
        rng = np.random.default_rng(11)
        tree, _ = fill_tree(rng.normal(size=(20, 3)))
        query = rng.normal(size=3)
        alone, stacked = tree.search(query, 4, touch=False), tree.search(query[None], 4,
                                                                          touch=False)
        for field, stacked_field in zip(alone, stacked):
            assert stacked_field.shape == (1,) + field.shape
            assert stacked_field[0].tobytes() == field.tobytes()
        rate, _ = tree.blended_lr(query, 4, touch=False)
        assert isinstance(rate, float)
        assert [rate] == tree.blended_lr(query[None], 4, touch=False)[0]

    @pytest.mark.parametrize("train", [False, True])
    def test_distinct_rates_in_one_row_chunks_are_unchanged(self, monkeypatch, train):
        """`_distinct_rates` cuts its stacked searches so that their
        prefilter fits `EVAL_STACK_BYTES`; shrunk to one byte, every chunk is
        one row, and every rate, head gradient, hit and touch is unchanged."""
        rng = np.random.default_rng(12)
        dim = 6
        config = TrainerConfig(algorithm="at-paml", tree_neighbors_train=5,
                               tree_neighbors_infer=3, lr_scale=0.1)
        head = LrHead(dim, (4, 3), 0.1, seed=1)
        h = rng.normal(size=(9, dim))
        h[7] = h[2]  # 8 distinct rows
        searched = []
        search = TreeMemory.search

        def spy(tree, queries, *args, **kwargs):
            searched.append(len(np.atleast_2d(queries)))
            return search(tree, queries, *args, **kwargs)

        monkeypatch.setattr(TreeMemory, "search", spy)

        def rates_and_state():
            tree, _ = fill_tree(np.random.default_rng(13).normal(size=(60, dim)))
            rates, index = _distinct_rates(config, head, None, tree, h, train=train)
            return [(repr(alpha), None if dalpha is None else dalpha.tobytes(),
                     [field.tobytes() for field in neighbors])
                    for alpha, dalpha, neighbors in rates], index, memory_state(tree)

        whole = rates_and_state()
        assert searched == [8]
        monkeypatch.setattr(meta_learners, "EVAL_STACK_BYTES", 1)
        del searched[:]
        assert rates_and_state() == whole
        assert searched == [1] * 8


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
        assert pairs(tree.search(query, k=6, touch=False)) == pairs(
            clone.search(query, k=6, touch=False))

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
        tree, ids = fill_tree(points, capacity=20)
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
            mode=np.array([1], dtype=np.int64),  # the retired "approximate" search
            eviction=np.array([0], dtype=np.int64),
        )
        clone = TreeMemory.load(path)

        assert clone.node_ids() == ids
        assert clone.capacity == 20
        for i in ids:
            assert np.array_equal(clone.node(i).embedding, tree.node(i).embedding)
            assert (clone.node(i).recency, clone.node(i).freq) == (
                tree.node(i).recency, tree.node(i).freq)
        query = rng.normal(size=3)
        assert pairs(tree.search(query, k=5, touch=False)) == pairs(
            clone.search(query, k=5, touch=False))
        assert clone.store_node([0.0, 0.0, 0.0], 1e-3) == len(ids)

    @pytest.mark.parametrize("code", [1, 5, -1])
    def test_stored_mode_code_is_ignored(self, tmp_path, code):
        # dumps from before the search modes were retired hold a mode code
        tree, ids = fill_tree([[0.0, 1.0], [2.0, 3.0]])
        path = tmp_path / "old.npz"
        rewrite_dump(tree, path, mode=np.array([code], dtype=np.int64))
        clone = TreeMemory.load(path)
        assert clone.node_ids() == ids
        assert pairs(clone.search([0.0, 0.0], k=2)) == pairs(tree.search([0.0, 0.0], k=2))


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

    @pytest.mark.parametrize("key, code", [("eviction", 7), ("eviction", -1)])
    def test_stored_code_out_of_range(self, tmp_path, key, code):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, **{key: np.array([code], dtype=np.int64)})
        with pytest.raises(DataError, match=f"{key} code"):
            TreeMemory.load(path)

    def test_short_meta(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, meta=np.array([3, 20, 5, 5], dtype=np.int64))
        with pytest.raises(DataError, match="meta holds 4 entries"):
            TreeMemory.load(path)

    def test_short_params(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, params=np.array([2.0]))
        with pytest.raises(DataError, match="params 1"):
            TreeMemory.load(path)

    def test_zero_capacity(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, meta=np.array([3, 0, 5, 5, 0], dtype=np.int64))
        with pytest.raises(DataError, match="capacity must be >= 1"):
            TreeMemory.load(path)

    def test_more_nodes_than_capacity(self, tmp_path):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, meta=np.array([3, 4, 5, 5, 0], dtype=np.int64))
        with pytest.raises(DataError, match="5 nodes"):
            TreeMemory.load(path)

    @pytest.mark.parametrize("params, name", [([np.nan, 1e-5], "delta"), ([-1.0, 1e-5], "delta"),
                                              ([2.0, np.inf], "sigma"), ([2.0, 0.0], "sigma")])
    def test_kernel_params_out_of_range(self, tmp_path, params, name):
        path = tmp_path / "memory.npz"
        rewrite_dump(self.tree, path, params=np.array(params))
        with pytest.raises(DataError, match=f"{name} must be finite"):
            TreeMemory.load(path)


class TestKernelParams:
    @pytest.mark.parametrize("delta", [np.nan, np.inf, -1.0])
    def test_delta_must_be_finite_and_non_negative(self, delta):
        with pytest.raises(ConfigError, match="delta must be finite and >= 0"):
            TreeMemory(dim=2, delta=delta)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be finite and > 0"):
            TreeMemory(dim=2, sigma=sigma)

    def test_zero_delta_is_accepted(self):
        tree, _ = fill_tree([[0.0, 0.0], [3.0, 4.0]], delta=0.0)
        assert tree.search([0.0, 0.0], 2, touch=False).similarities.tolist() == [1.0, 1.0]


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


def assert_same_hits(got, expected):
    assert list(zip(got.ids.tolist(), *(map(bits, column) for column in got[1:]))) == [
        (i, bits(d), bits(e), bits(lr), bits(s)) for i, d, e, lr, s in expected]


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
                assert_same_hits(tree.search(q, k, touch=touch), ref.search(q, k, touch))
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

    def test_wide_offset_cluster_and_non_finite_rows(self, tmp_path, monkeypatch):
        """The benchmark's tree width, 64, with points at a common offset of
        about 1e3 where the norm expansion behind search's prefilter keeps few
        of its digits: some points sit 1e-6 apart, some 1e-3, some 1, and
        some are exact copies.  Then update_nodes drives one node to inf and
        one to NaN, and a NaN query comes in.  Every search must match the
        plain full scan bit for bit, the finite searches must run the
        prefilter and prune, and the non-finite ones must read every row.
        """
        rng = np.random.default_rng(64)
        dim, capacity = 64, 150
        center = 1e3 + rng.normal(size=dim)
        offered = []

        def point():
            if offered and rng.random() < 0.15:
                return offered[int(rng.integers(len(offered)))].copy()
            h = center + rng.normal(size=dim) * rng.choice([1e-6, 1e-3, 1.0])
            offered.append(h)
            return h

        calls = []
        candidates = TreeMemory._candidates

        def spy(tree, q, k):
            rows = candidates(tree, q, k)
            calls.append((len(tree), k, rows))
            return rows

        monkeypatch.setattr(TreeMemory, "_candidates", spy)
        tree = TreeMemory(dim=dim, capacity=capacity)
        ref = ReferenceMemory(capacity, "lru", tree.delta)

        def search(q):
            k, touch = int(rng.integers(1, 30)), bool(rng.random() < 0.7)
            assert_same_hits(tree.search(q, k, touch=touch), ref.search(q, k, touch))

        def update(ids, emb_grads):
            lr_grads = rng.normal(size=len(ids))
            tree.update_nodes(ids, emb_grads, lr_grads, beta=0.3)
            ref.update(dict(zip(ids, emb_grads)), dict(zip(ids, lr_grads)), 0.3)

        for step in range(700):
            op = rng.random()
            if op < 0.45 or len(ref.nodes) < 3:
                lr = float(rng.uniform(0.0, 1.0))
                h = point()
                assert tree.store_node(h, lr) == ref.store(h, lr)
            elif op < 0.9:
                search(point())
            elif op < 0.98:
                ids = sorted(rng.choice(sorted(ref.nodes), size=3, replace=False).tolist())
                update(ids, rng.normal(size=(3, dim)) * rng.choice([1e-6, 1e-3]))
            else:
                path = tmp_path / f"memory-{step}.npz"
                tree.dump(path)
                tree = TreeMemory.load(path)
            assert_same_memory(tree, ref)
        assert ref.evictions > 0
        pruned = [(n, k, rows) for n, k, rows in calls if k < n]
        assert pruned and all(np.all(np.diff(rows) > 0) for _, _, rows in pruned)
        assert any(len(rows) < n for n, _, rows in pruned)
        assert any(len(rows) > k for n, k, rows in pruned)  # a margin that kept near rows

        # the prefilter would drop a non-finite row (or, for a NaN query, every
        # row), so getting every row back means the all-rows path ran
        def search_all_rows(queries):
            del calls[:]
            for q in queries:
                search(q)
            assert len(calls) == len(queries)
            assert all(np.array_equal(rows, np.arange(n)) for n, _, rows in calls)

        nan_query = center.copy()
        nan_query[5] = np.nan
        search_all_rows([nan_query] * 5)
        assert_same_memory(tree, ref)

        inf_node, nan_node = sorted(ref.nodes)[:2]
        update([inf_node], np.full((1, dim), -np.inf))
        search_all_rows([point() for _ in range(20)])
        grad = np.zeros((1, dim))
        grad[0, 7] = np.nan
        update([nan_node], grad)
        search_all_rows([point() for _ in range(20)] + [nan_query] * 3)
        assert_same_memory(tree, ref)
        assert not np.all(np.isfinite(tree.node(inf_node).embedding))
        assert np.isnan(tree.node(nan_node).embedding[7])

    @pytest.mark.parametrize("n", [79, 80])
    def test_small_trees_match_the_full_scan(self, n):
        """Trees of a few dozen nodes, which go through the prefilter like any
        other, match the full scan bit for bit."""
        rng = np.random.default_rng(n)
        dim, k = 64, 20
        tree = TreeMemory(dim=dim, capacity=n)
        ref = ReferenceMemory(n, "lru", tree.delta)
        for h in rng.normal(size=(n, dim)):
            assert tree.store_node(h, 0.1) == ref.store(h, 0.1)
        for q in rng.normal(size=(10, dim)):
            assert_same_hits(tree.search(q, k, touch=False), ref.search(q, k, False))
