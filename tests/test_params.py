import copy
import pickle

import numpy as np
import pytest

from metarec.errors import ConfigError, NumericError
from metarec.params import Gradient, ParamSet, axpy_update


def _ps(seed=0):
    rng = np.random.default_rng(seed)
    return ParamSet({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})


class TestParamSet:
    def test_float64_everywhere(self):
        ps = ParamSet({"w": np.ones((2, 2), dtype=np.float32)})
        assert ps["w"].dtype == np.float64

    def test_copy_owns_storage(self):
        ps = _ps()
        clone = ps.copy()
        clone["a"][0, 0] = 99.0
        assert ps["a"][0, 0] != 99.0

    def test_constructor_copies_caller_arrays(self):
        arr = np.zeros(3)
        ps = ParamSet({"x": arr})
        arr[0] = 7.0
        assert ps["x"][0] == 0.0

    def test_flat_round_trip_exact(self):
        ps = _ps(3)
        again = ps.from_flat(ps.to_flat())
        for name in ps:
            np.testing.assert_array_equal(ps[name], again[name])

    def test_flat_wrong_size_rejected(self):
        ps = _ps()
        with pytest.raises(ConfigError):
            ps.from_flat(np.zeros(ps.size() + 1))

    def test_arithmetic(self):
        a, b = _ps(1), _ps(2)
        np.testing.assert_allclose(a.add(b)["a"], a["a"] + b["a"])
        np.testing.assert_allclose(a.sub(b)["b"], a["b"] - b["b"])
        np.testing.assert_allclose(a.scale(2.5)["a"], 2.5 * a["a"])
        np.testing.assert_allclose(a.mul(b)["b"], a["b"] * b["b"])
        assert a.dot(b) == pytest.approx(
            float(np.dot(a.to_flat(), b.to_flat())), rel=1e-14
        )
        assert a.norm() == pytest.approx(float(np.linalg.norm(a.to_flat())), rel=1e-14)

    def test_mismatched_names_rejected(self):
        a = ParamSet({"x": np.zeros(2)})
        b = ParamSet({"y": np.zeros(2)})
        with pytest.raises(ConfigError):
            a.add(b)

    def test_mismatched_shapes_rejected(self):
        a = ParamSet({"x": np.zeros(2)})
        b = ParamSet({"x": np.zeros(3)})
        with pytest.raises(ConfigError):
            a.dot(b)


class TestFlatLayout:
    def test_write_through_entry_changes_flat(self):
        ps = _ps()
        ps["b"][2] = 42.0
        assert ps.to_flat()[6 + 2] == 42.0
        ps["a"] = np.full((2, 3), -1.0)
        np.testing.assert_array_equal(ps.to_flat()[:6], np.full(6, -1.0))

    @pytest.mark.parametrize("duplicate",
                             [copy.deepcopy, lambda ps: pickle.loads(pickle.dumps(ps))])
    def test_copies_write_through_to_their_own_flat(self, duplicate):
        ps = _ps()
        ps["b"]  # builds the name -> view dict that a copy must not carry over
        twin = duplicate(ps)
        twin["b"][2] = 42.0
        assert twin.to_flat()[6 + 2] == 42.0
        assert ps.to_flat()[6 + 2] != 42.0

    def test_results_never_alias_operands(self):
        a, b = _ps(1), _ps(2)
        results = [a.add(b), a.sub(b), a.scale(3.0), a.mul(b), a.copy(), a.zeros_like(),
                   a.fill(1.0), a.from_flat(a.to_flat())]
        for out in results:
            for operand in (a, b):
                for name in a:
                    assert not np.shares_memory(out[name], operand[name])
        before = a.to_flat()
        for out in results:
            out["a"][...] = 7.0
        np.testing.assert_array_equal(a.to_flat(), before)

    def test_results_share_the_layout_object(self):
        a, b = _ps(1), _ps(2)
        assert a.add(b).layout is a.layout
        assert a.scale(2.0).layout is a.layout
        assert a.copy().layout is a.layout

    def test_dot_matches_per_entry_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        shapes = {"w0": (7, 13), "b0": (7,), "w1": (3, 7), "b1": (3,), "s": (1,)}
        for _ in range(20):
            a = ParamSet({k: rng.normal(size=s) for k, s in shapes.items()})
            b = ParamSet({k: rng.normal(size=s) for k, s in shapes.items()})
            reference = 0.0
            for name in a:
                # separate copies, so neither operand is a view of the flat vector
                reference += float(np.dot(np.array(a[name]).ravel(), np.array(b[name]).ravel()))
            assert a.dot(b) == reference

    def test_check_finite_names_first_bad_entry(self):
        ps = ParamSet({"x": np.zeros(2), "y": np.zeros((2, 2)), "z": np.zeros(3)})
        ps["y"][1, 0] = np.nan
        ps["z"][0] = np.inf
        with pytest.raises(NumericError, match="probe entry 'y'"):
            ps.check_finite("probe")
        ps.fill(0.0).check_finite("probe")

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "dot"])
    def test_same_names_other_shape_rejected(self, op):
        a = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(2)})
        b = ParamSet({"w": np.zeros((3, 2)), "b": np.zeros(2)})
        assert a.size() == b.size()
        with pytest.raises(ConfigError, match="shape mismatch for 'w'"):
            getattr(a, op)(b)

    def test_unknown_entry_cannot_be_added(self):
        ps = _ps()
        with pytest.raises(ConfigError):
            ps["c"] = np.zeros(2)
        with pytest.raises(ConfigError):
            ps["b"] = np.zeros(5)


class TestAxpyUpdate:
    def test_scalar_step(self):
        theta, g = _ps(1), _ps(2)
        out = axpy_update(theta, g, 0.1)
        np.testing.assert_allclose(out["a"], theta["a"] - 0.1 * g["a"])

    def test_zero_gradient_is_identity(self):
        theta = _ps(1)
        out = axpy_update(theta, theta.zeros_like(), 0.5)
        for name in theta:
            np.testing.assert_array_equal(out[name], theta[name])

    def test_per_parameter_step(self):
        theta, g = _ps(1), _ps(2)
        step = theta.fill(0.0)
        step["a"] = np.full((2, 3), 0.2)
        out = axpy_update(theta, g, step)
        np.testing.assert_allclose(out["a"], theta["a"] - 0.2 * g["a"])
        np.testing.assert_array_equal(out["b"], theta["b"])


class TestGradient:
    def test_carries_loss(self):
        g = Gradient({"a": np.ones(2)}, loss=1.5)
        assert g.loss == 1.5
        assert isinstance(g, ParamSet)
