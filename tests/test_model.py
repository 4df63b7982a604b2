import hashlib

import numpy as np
import pytest

from metarec.errors import ConfigError, DataError, NumericError
from metarec.params import ParamSet
from metarec.model import (
    ModelSpec,
    check_episodes,
    forward,
    grad,
    hvp,
    init_params,
    loss,
    predict,
    predict_stacks,
    user_embedding,
)


def tiny_spec():
    return ModelSpec(
        user_vocab_sizes=(3, 2),
        item_vocab_sizes=(4,),
        embedding_dim=2,
        decision_dims=(5, 3, 1),
    )


def random_episode(spec, rng, n_items=4):
    user = np.array([rng.integers(v) for v in spec.user_vocab_sizes])
    items = np.column_stack([rng.integers(v, size=n_items) for v in spec.item_vocab_sizes])
    return user, items, rng.normal(size=n_items)


def fd_gradient(fn, theta, eps=1e-6):
    """Central finite differences of a scalar function over a ParamSet."""
    flat = theta.flat
    out = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        out[i] = (fn(ParamSet.wrap(theta.layout, up))
                  - fn(ParamSet.wrap(theta.layout, down))) / (2 * eps)
    return out


class TestModelSpec:
    def test_rating_head_must_be_scalar(self):
        with pytest.raises(ConfigError):
            ModelSpec((2,), (2,), 2, (4, 3))

    def test_fused_width(self):
        spec = tiny_spec()
        assert spec.fused_width == 3 * 2
        assert spec.user_width == 2 * 2


class TestForward:
    def test_matches_straight_line_recomputation(self):
        """Layer-by-layer scalar re-evaluation of the same weights."""
        spec = tiny_spec()
        theta = init_params(spec, seed=7)
        rng = np.random.default_rng(0)
        user, items, _ = random_episode(spec, rng, n_items=3)
        preds, h = forward(theta, spec, user, items)
        entries = theta.layout.views(theta.flat)

        for row in range(3):
            x = list(entries["emb_user_0"][user[0]]) + list(entries["emb_user_1"][user[1]])
            x += list(entries["emb_item_0"][items[row, 0]])
            for layer in range(3):
                w = entries[f"dec_W{layer}"]
                b = entries[f"dec_b{layer}"]
                z = [sum(w[o][k] * x[k] for k in range(len(x))) + b[o] for o in range(w.shape[0])]
                x = [max(v, 0.0) for v in z] if layer < 2 else z
            assert preds[row] == pytest.approx(x[0], rel=1e-12)
        np.testing.assert_array_equal(
            h, np.concatenate([entries["emb_user_0"][user[0]], entries["emb_user_1"][user[1]]])
        )

    def test_zero_theta_gives_zero_predictions(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0).zeros_like()
        preds, _ = forward(theta, spec, np.array([0, 0]), np.array([[0], [1]]))
        np.testing.assert_array_equal(preds, np.zeros(2))

    def test_deterministic_bit_identical(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=3)
        a, _ = forward(theta, spec, np.array([2, 1]), np.array([[0], [3]]))
        b, _ = forward(theta, spec, np.array([2, 1]), np.array([[0], [3]]))
        np.testing.assert_array_equal(a, b)
        t1 = init_params(spec, seed=3)
        assert t1.layout.key == theta.layout.key
        np.testing.assert_array_equal(theta.flat, t1.flat)

    def test_out_of_vocabulary_rejected(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        with pytest.raises(DataError):
            forward(theta, spec, np.array([3, 0]), np.array([[0]]))
        with pytest.raises(DataError):
            forward(theta, spec, np.array([0, 0]), np.array([[4]]))

    def test_layout_mismatch_rejected(self):
        spec = tiny_spec()
        other = ModelSpec((3, 2), (4,), 2, (6, 3, 1))
        theta = init_params(other, seed=0)
        with pytest.raises(ConfigError,
                           match=r"^parameter 'dec_W0' has shape \(6, 6\), model spec needs \(5, 6\)$"):
            forward(theta, spec, np.array([0, 0]), np.array([[0]]))
        one_user_feature = init_params(ModelSpec((3,), (4,), 2, (5, 3, 1)), seed=0)
        expected = ("parameter layout ('emb_user_0', 'emb_item_0', 'dec_W0', 'dec_b0', 'dec_W1', "
                    "'dec_b1', 'dec_W2', 'dec_b2') does not match the model spec (expected "
                    "('emb_user_0', 'emb_user_1', 'emb_item_0', 'dec_W0', 'dec_b0', 'dec_W1', "
                    "'dec_b1', 'dec_W2', 'dec_b2'))")
        with pytest.raises(ConfigError) as info:
            forward(one_user_feature, spec, np.array([0, 0]), np.array([[0]]))
        assert str(info.value) == expected

    def test_non_finite_layer_reported(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        theta.layout.views(theta.flat)["dec_W1"][...] *= np.inf
        with pytest.raises(NumericError, match="layer 1"):
            forward(theta, spec, np.array([0, 0]), np.array([[0]]))

    def test_empty_item_set_rejected(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        with pytest.raises(DataError):
            forward(theta, spec, np.array([0, 0]), np.zeros((0, 1), dtype=int))

    def test_user_embedding_matches_forward(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=5)
        _, h = forward(theta, spec, np.array([1, 1]), np.array([[0]]))
        np.testing.assert_array_equal(h, user_embedding(theta, spec, np.array([1, 1])))


class TestLoss:
    def test_mse_example(self):
        assert loss(np.array([3.0, 1.0]), np.array([1.0, 3.0])) == 4.0

    def test_mse_zero_on_match(self):
        assert loss(np.array([2.0, 2.0]), np.array([2.0, 2.0])) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            loss(np.zeros(0), np.zeros(0))


class TestGrad:
    @pytest.mark.parametrize("n_items", [4], ids=["mse"])
    def test_matches_finite_differences(self, n_items):
        spec = tiny_spec()
        rng = np.random.default_rng(11)
        theta = init_params(spec, seed=11)
        batch = [random_episode(spec, rng, n_items=n_items) for _ in range(2)]

        g = grad(theta, spec, batch)

        def objective(t):
            return grad(t, spec, batch).loss

        fd = fd_gradient(objective, theta)
        np.testing.assert_allclose(g.flat, fd, rtol=1e-4, atol=1e-8)

    def test_loss_value_attached(self):
        spec = tiny_spec()
        rng = np.random.default_rng(2)
        theta = init_params(spec, seed=2)
        user, items, targets = random_episode(spec, rng)
        g = grad(theta, spec, (user, items, targets))
        preds, _ = forward(theta, spec, user, items)
        assert g.loss == pytest.approx(loss(preds, targets), rel=1e-14)

    def test_pooled_batch_loss_is_item_mean(self):
        spec = tiny_spec()
        rng = np.random.default_rng(4)
        theta = init_params(spec, seed=4)
        e1 = random_episode(spec, rng, n_items=2)
        e2 = random_episode(spec, rng, n_items=6)
        pooled = grad(theta, spec, [e1, e2]).loss
        p1, _ = forward(theta, spec, e1[0], e1[1])
        p2, _ = forward(theta, spec, e2[0], e2[1])
        preds = np.concatenate([p1, p2])
        targets = np.concatenate([e1[2], e2[2]])
        assert pooled == pytest.approx(loss(preds, targets), rel=1e-14)

    def test_relu_subgradient_zero_at_zero(self):
        # all-zero parameters leave every pre-activation at exactly 0, so the
        # only surviving gradient path is the output bias
        spec = tiny_spec()
        theta = init_params(spec, seed=0).zeros_like()
        g = grad(theta, spec, (np.array([0, 0]), np.array([[0]]), np.array([3.0])))
        for name, entry in g.layout.views(g.flat).items():
            if name == "dec_b2":
                np.testing.assert_allclose(entry, np.array([-6.0]))
            else:
                np.testing.assert_array_equal(entry, np.zeros_like(entry))

    def test_gradient_deterministic(self):
        spec = tiny_spec()
        rng = np.random.default_rng(9)
        theta = init_params(spec, seed=9)
        ep = random_episode(spec, rng)
        a = grad(theta, spec, ep).flat
        b = grad(theta, spec, ep).flat
        np.testing.assert_array_equal(a, b)


class TestHvp:
    @pytest.mark.parametrize("n_items", [5], ids=["mse"])
    def test_matches_grad_differencing(self, n_items):
        spec = tiny_spec()
        rng = np.random.default_rng(21)
        theta = init_params(spec, seed=21)
        batch = [random_episode(spec, rng, n_items=n_items)]
        v = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))

        exact = hvp(theta, spec, batch, v)

        eps = 1e-6
        up = grad(ParamSet.wrap(theta.layout, theta.flat + eps * v.flat), spec, batch)
        down = grad(ParamSet.wrap(theta.layout, theta.flat - eps * v.flat), spec, batch)
        approx = (up.flat - down.flat) / (2 * eps)
        np.testing.assert_allclose(exact.flat, approx, rtol=1e-3, atol=1e-6)

    # sha256 of hvp's output bits, re-pinned when the first layer computed
    # each episode's user part once (its R-op sums the rank-one user terms
    # in one BLAS product, so the bits no longer equal the earlier
    # dual-number hvp's); the tangent pass must keep its operand order,
    # since the pinned training reports hold only then
    PINNED_DIGESTS = {
        1: "c51542fe386442077196f0ff9d8ed52ae8b510e0e3da73f59eadf3cd08d26986",
        3: "b5359e76c3b47c7bb4a220648d5ceef99ecbdf15be9e978a7b55b5d7128f7928",
    }

    @staticmethod
    def pinned_case(n_episodes):
        spec = tiny_spec()
        rng = np.random.default_rng(41 + n_episodes)
        theta = init_params(spec, seed=41)
        batch = [random_episode(spec, rng, n_items=4 + k) for k in range(n_episodes)]
        if n_episodes == 1:
            batch = batch[0]
        v = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))
        return spec, theta, batch, v

    PINNED_IDS = ["mse-1", "mse-3"]

    @pytest.mark.parametrize("n_episodes", sorted(PINNED_DIGESTS), ids=PINNED_IDS)
    def test_output_bits_pinned(self, n_episodes):
        spec, theta, batch, v = self.pinned_case(n_episodes)
        out = hvp(theta, spec, batch, v)
        digest = hashlib.sha256(out.flat.tobytes()).hexdigest()
        assert digest == self.PINNED_DIGESTS[n_episodes]

    @pytest.mark.parametrize("n_episodes", sorted(PINNED_DIGESTS), ids=PINNED_IDS)
    def test_at_gradient_gives_same_bits(self, n_episodes):
        spec, theta, batch, v = self.pinned_case(n_episodes)
        g = grad(theta, spec, batch)
        with_tape = hvp(theta, spec, batch, v, at=g)
        assert with_tape.flat.tobytes() == hvp(theta, spec, batch, v).flat.tobytes()
        # the tape is read, never written: a second product at it is the same
        assert hvp(theta, spec, batch, v, at=g).flat.tobytes() == with_tape.flat.tobytes()

    def test_at_from_another_point_rejected(self):
        spec, theta, batch, v = self.pinned_case(3)
        g = grad(theta, spec, batch)
        other_theta = theta.copy()
        with pytest.raises(ConfigError, match="same theta"):
            hvp(other_theta, spec, batch, v, at=g)
        with pytest.raises(ConfigError, match="same theta"):
            hvp(theta, spec, list(batch), v, at=g)
        with pytest.raises(ConfigError, match="same theta"):
            hvp(theta, spec, batch, v, at=theta.zeros_like())

    def test_result_owns_its_storage(self):
        spec, theta, batch, v = self.pinned_case(1)
        g = grad(theta, spec, batch)
        out = hvp(theta, spec, batch, v, at=g)
        for result in (g, out):
            for operand in (theta, v):
                assert not np.shares_memory(result.flat, operand.flat)

    def test_symmetry_of_quadratic_form(self):
        # u . (H v) == v . (H u) for an exact Hessian
        spec = tiny_spec()
        rng = np.random.default_rng(33)
        theta = init_params(spec, seed=33)
        batch = [random_episode(spec, rng, n_items=3)]
        u = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))
        v = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))
        left = u.dot(hvp(theta, spec, batch, v))
        right = v.dot(hvp(theta, spec, batch, u))
        assert left == pytest.approx(right, rel=1e-10)

    def test_zero_vector_gives_zero(self):
        spec = tiny_spec()
        rng = np.random.default_rng(5)
        theta = init_params(spec, seed=5)
        batch = [random_episode(spec, rng)]
        out = hvp(theta, spec, batch, theta.zeros_like())
        assert out.norm() == 0.0

    def test_layout_mismatch_rejected(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        with pytest.raises(ConfigError):
            hvp(theta, spec, (np.array([0, 0]), np.array([[0]]), np.array([1.0])), ParamSet({"x": np.zeros(2)}))

    def test_tangent_with_wrong_shapes_rejected(self):
        # same names, but dec_b0 would broadcast from (1,) to (5,)
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        entries = {name: np.ones(shape) for name, shape in zip(*theta.layout.key)}
        entries["dec_b0"] = np.ones(1)
        v = ParamSet(entries)
        assert v.layout.names == theta.layout.names
        with pytest.raises(ConfigError, match="dec_b0"):
            hvp(theta, spec, (np.array([0, 0]), np.array([[0]]), np.array([1.0])), v)


class TestEpisodeValidation:
    def test_plain_tuple_out_of_vocabulary_rejected_on_every_call(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=0)
        bad_item = (np.array([0, 0]), np.array([[0], [4]]), np.array([1.0, 2.0]))
        bad_user = (np.array([0, 2]), np.array([[0]]), np.array([1.0]))
        for episode in (bad_item, bad_user):
            for _ in range(2):
                with pytest.raises(DataError):
                    grad(theta, spec, episode)
                with pytest.raises(DataError):
                    grad(theta, spec, [episode])
                with pytest.raises(DataError):
                    hvp(theta, spec, episode, theta.zeros_like())
                with pytest.raises(DataError):
                    forward(theta, spec, episode[0], episode[1])

    def test_checked_episode_is_read_only_and_gives_same_gradient(self):
        spec = tiny_spec()
        theta = init_params(spec, seed=2)
        user, items, targets = random_episode(spec, np.random.default_rng(2))
        checked = check_episodes(spec, [(user, items, targets)])[0]
        for arr in checked:
            assert not arr.flags.writeable
        items[0, 0] = 99  # the checked copy does not see later caller writes
        assert checked[1][0, 0] != 99
        plain = (checked[0].copy(), checked[1].copy(), checked[2].copy())
        np.testing.assert_array_equal(grad(theta, spec, checked).flat,
                                      grad(theta, spec, plain).flat)

    @pytest.mark.parametrize("form", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_a_tuple_is_one_episode_whatever_its_user_ids(self, form):
        """A lone episode whose user ids are a tuple, a list or an array, and a
        list of that one episode, give the bits of the array-id episode."""
        spec = tiny_spec()
        theta = init_params(spec, seed=3)
        rng = np.random.default_rng(3)
        user, items, targets = random_episode(spec, rng)
        v = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))

        def outputs(batch):
            g = grad(theta, spec, batch)  # hvp's tape is bound to this batch object
            return [g.flat, np.float64(g.loss), hvp(theta, spec, batch, v, at=g).flat,
                    hvp(theta, spec, batch, v).flat, predict_stacks(theta, spec, batch, 1)[0][1]]

        expected = outputs([(user, items, targets)])
        episode = (form(user.tolist()), items, targets)
        for batch in (episode, [episode]):
            got = outputs(batch)
            assert [part.tobytes() for part in got] == [part.tobytes() for part in expected]

    def test_check_episode_rejects_out_of_vocabulary(self):
        spec = tiny_spec()
        with pytest.raises(DataError):
            check_episodes(spec, [(np.array([0, 0]), np.array([[4]]), np.array([1.0]))])

    def test_mark_only_holds_for_the_same_vocabulary_sizes(self):
        wide = ModelSpec((3, 2), (9,), 2, (5, 3, 1))
        spec = tiny_spec()
        checked = check_episodes(wide, [(np.array([0, 0]), np.array([[8]]), np.array([1.0]))])[0]
        theta = init_params(spec, seed=0)
        with pytest.raises(DataError):
            grad(theta, spec, checked)
        with pytest.raises(DataError):
            hvp(theta, spec, checked, theta.zeros_like())


class TestKernelDigests:
    """Output bits of grad, hvp, predict and user_embedding, pinned.

    The spec has two user and two item features, the batch repeats item ids
    within an episode and holds a one-row episode, so every gather and
    scatter of the embedding tables reaches the digests.  Checked episodes
    and plain tuples must give the same bits.  The pooled batch pads its
    one-row and three-row episodes to five rows.  The digest was re-pinned
    when passes became padded blocks with the user embedding factored out
    of the first layer.
    """

    DIGEST = "f5e035ee97a8ffaaa649135405b11b2b465652a32466ed089f8f9b48977deae7"

    @staticmethod
    def case():
        spec = ModelSpec((3, 4), (5, 3), embedding_dim=3, decision_dims=(6, 4, 1))
        rng = np.random.default_rng(17)
        theta = init_params(spec, seed=17)
        v = ParamSet.wrap(theta.layout, rng.normal(size=theta.layout.size))
        users_items = (
            ((1, 2), [[2, 1], [2, 1], [0, 2], [2, 0], [4, 1]]),
            ((2, 0), [[3, 2]]),
            ((0, 3), [[1, 0], [1, 0], [1, 2]]),
        )
        episodes = []
        for user, items in users_items:
            episodes.append((np.array(user), np.array(items), rng.normal(size=len(items))))
        return spec, theta, v, episodes

    @staticmethod
    def outputs(spec, theta, v, episodes):
        parts = []
        for batch in (episodes, episodes[1], episodes[0]):
            g = grad(theta, spec, batch)
            parts += [g.flat, np.float64(g.loss), hvp(theta, spec, batch, v, at=g).flat]
        for episode in episodes:
            parts += [predict(theta, spec, episode), user_embedding(theta, spec, episode[0])]
        digest = hashlib.sha256()
        for part in parts:
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("checked", [False, True], ids=["False-mse", "True-mse"])
    def test_digests(self, checked):
        spec, theta, v, episodes = self.case()
        if checked:
            episodes = [check_episodes(spec, [episode])[0] for episode in episodes]
        assert self.outputs(spec, theta, v, episodes) == self.DIGEST
