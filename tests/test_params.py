import copy
import pickle

import numpy as np
import pytest

from metarec.errors import ConfigError, NumericError
from metarec.params import Gradient, Layout, ParamSet, axpy_update


def _ps(seed=0):
    rng = np.random.default_rng(seed)
    return ParamSet({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})


def views(ps):
    """Entry name -> view of a ParamSet's flat vector; writes go through."""
    return ps.layout.views(ps.flat)


class TestParamSet:
    def test_float64_everywhere(self):
        ps = ParamSet({"w": np.ones((2, 2), dtype=np.float32)})
        assert ps.flat.dtype == np.float64

    def test_copy_owns_storage(self):
        ps = _ps()
        clone = ps.copy()
        views(clone)["a"][0, 0] = 99.0
        assert views(ps)["a"][0, 0] != 99.0

    def test_constructor_copies_caller_arrays(self):
        arr = np.zeros(3)
        ps = ParamSet({"x": arr})
        arr[0] = 7.0
        assert ps.flat[0] == 0.0

    def test_flat_round_trip_exact(self):
        rng = np.random.default_rng(3)
        entries = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        ps = ParamSet(entries)
        again = views(ParamSet.wrap(ps.layout, ps.flat.copy()))
        assert list(again) == list(entries)
        for name, arr in entries.items():
            np.testing.assert_array_equal(again[name], arr)

    def test_flat_wrong_size_rejected(self):
        ps = _ps()
        with pytest.raises(ConfigError):
            ParamSet.wrap(ps.layout, np.zeros(ps.layout.size + 1))

    def test_arithmetic(self):
        a, b = _ps(1), _ps(2)
        va, vb = views(a), views(b)
        np.testing.assert_allclose(views(a.add(b))["a"], va["a"] + vb["a"])
        np.testing.assert_allclose(views(a.sub(b))["b"], va["b"] - vb["b"])
        np.testing.assert_allclose(views(a.scale(2.5))["a"], 2.5 * va["a"])
        np.testing.assert_allclose(views(a.mul(b))["b"], va["b"] * vb["b"])
        assert a.dot(b) == pytest.approx(float(np.dot(a.flat, b.flat)), rel=1e-14)
        assert a.norm() == pytest.approx(float(np.linalg.norm(a.flat)), rel=1e-14)

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
        views(ps)["b"][2] = 42.0
        assert ps.flat[6 + 2] == 42.0
        views(ps)["a"][...] = np.full((2, 3), -1.0)
        np.testing.assert_array_equal(ps.flat[:6], np.full(6, -1.0))

    @pytest.mark.parametrize("duplicate",
                             [copy.deepcopy, lambda ps: pickle.loads(pickle.dumps(ps))])
    def test_copies_write_through_to_their_own_flat(self, duplicate):
        ps = _ps()
        twin = duplicate(ps)
        views(twin)["b"][2] = 42.0
        assert twin.flat[6 + 2] == 42.0
        assert ps.flat[6 + 2] != 42.0

    def test_results_never_alias_operands(self):
        a, b = _ps(1), _ps(2)
        results = [a.add(b), a.sub(b), a.scale(3.0), a.mul(b), a.copy(), a.zeros_like()]
        for out in results:
            for operand in (a, b):
                assert not np.shares_memory(out.flat, operand.flat)
        before = a.flat.copy()
        for out in results:
            views(out)["a"][...] = 7.0
        np.testing.assert_array_equal(a.flat, before)

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
            for x, y in zip(views(a).values(), views(b).values()):
                # separate copies, so neither operand is a view of the flat vector
                reference += float(np.dot(np.array(x).ravel(), np.array(y).ravel()))
            assert a.dot(b) == reference

    def test_check_finite_names_first_bad_entry(self):
        ps = ParamSet({"x": np.zeros(2), "y": np.zeros((2, 2)), "z": np.zeros(3)})
        views(ps)["y"][1, 0] = np.nan
        views(ps)["z"][0] = np.inf
        with pytest.raises(NumericError, match="probe entry 'y'"):
            ps.check_finite("probe")
        ps.zeros_like().check_finite("probe")

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "dot"])
    def test_same_names_other_shape_rejected(self, op):
        a = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(2)})
        b = ParamSet({"w": np.zeros((3, 2)), "b": np.zeros(2)})
        assert a.layout.size == b.layout.size
        with pytest.raises(ConfigError, match="shape mismatch for 'w'"):
            getattr(a, op)(b)


class TestAxpyUpdate:
    def test_scalar_step(self):
        theta, g = _ps(1), _ps(2)
        out = axpy_update(theta, g, 0.1)
        np.testing.assert_allclose(views(out)["a"], views(theta)["a"] - 0.1 * views(g)["a"])

    def test_zero_gradient_is_identity(self):
        theta = _ps(1)
        out = axpy_update(theta, theta.zeros_like(), 0.5)
        assert out.layout.key == theta.layout.key
        np.testing.assert_array_equal(out.flat, theta.flat)

    def test_per_parameter_step(self):
        theta, g = _ps(1), _ps(2)
        step = theta.zeros_like()
        views(step)["a"][...] = np.full((2, 3), 0.2)
        out = axpy_update(theta, g, step)
        np.testing.assert_allclose(views(out)["a"], views(theta)["a"] - 0.2 * views(g)["a"])
        np.testing.assert_array_equal(views(out)["b"], views(theta)["b"])


class TestGradient:
    def test_carries_loss(self):
        g = Gradient.wrap(Layout(("a",), ((2,),)), np.ones(2), loss=1.5)
        assert g.loss == 1.5
        assert g.tape is None
        assert isinstance(g, ParamSet)
