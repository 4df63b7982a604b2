"""Named float64 parameter collections and the descent update primitive.

A ``ParamSet`` stores all of its values in one contiguous float64 vector,
laid out entry by entry in insertion order by an immutable ``Layout``
(names, shapes, slices, size).  Arithmetic runs as one numpy call on the
whole vector, and every result shares the layout object of its left
operand, so building it copies nothing beyond the new vector.  Results own
fresh vectors: they never alias their operands.

The training path reads values by flat offset: the model and the rate head
slice ``flat`` at the offsets their layout fixes (see ``ModelSpec.plan``).
Reading an entry by name builds the ParamSet's name -> reshaped view dict
(`Layout.views`) on first use and keeps it; that is for callers outside
the hot path, such as checkpoints and tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["Layout", "ParamSet", "Gradient", "axpy_update", "dense_views"]


class Layout:
    """Entry names, shapes and flat slices of a ParamSet; never changed once built.

    ``key`` is ``(names, shapes)``: two layouts place every value at the same
    offset exactly when their keys are equal.
    """

    __slots__ = ("names", "shapes", "slices", "size", "key")

    def __init__(self, names: Tuple[str, ...], shapes: Tuple[Tuple[int, ...], ...]):
        self.names = tuple(names)
        self.shapes = tuple(tuple(s) for s in shapes)
        slices, offset = [], 0
        for shape in self.shapes:
            n = int(np.prod(shape, dtype=np.int64))
            slices.append(slice(offset, offset + n))
            offset += n
        self.slices = tuple(slices)
        self.size = offset
        self.key = (self.names, self.shapes)

    def views(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Entry name -> reshaped view of ``flat``; writes go through to it."""
        return {name: flat[sl].reshape(shape)
                for name, sl, shape in zip(self.names, self.slices, self.shapes)}

    def dense_layers(self, start: int = 0):
        """``(weight slice, weight shape, bias slice)`` of each (weight, bias)
        entry pair from entry ``start`` on."""
        return tuple((self.slices[k], self.shapes[k], self.slices[k + 1])
                     for k in range(start, len(self.names), 2))

    def entry_at(self, index: int) -> str:
        """Name of the entry holding flat position ``index``."""
        for name, sl in zip(self.names, self.slices):
            if index < sl.stop:
                return name
        raise IndexError(f"flat index {index} outside a layout of size {self.size}")


class ParamSet:
    """Ordered, named collection of float64 arrays backed by one flat vector.

    Insertion order of names is the canonical order used by flattening and by
    every elementwise operation.  The constructor copies caller arrays into a
    new vector, so a ParamSet never aliases caller storage; ``ps[name]`` is a
    view, and writing through it changes the ParamSet.
    """

    def __init__(self, entries: Dict[str, np.ndarray]):
        arrays = [np.asarray(arr, dtype=np.float64) for arr in entries.values()]
        self._layout = Layout(tuple(entries), tuple(a.shape for a in arrays))
        if arrays:
            self._flat = np.concatenate([a.ravel() for a in arrays])
        else:
            self._flat = np.zeros(0, dtype=np.float64)
        self._views = None

    @classmethod
    def wrap(cls, layout: Layout, flat: np.ndarray) -> "ParamSet":
        """ParamSet over ``flat`` itself (no copy); the caller hands it over."""
        if flat.dtype != np.float64 or flat.shape != (layout.size,):
            raise ConfigError(f"flat vector {flat.dtype}{flat.shape} does not fit a layout "
                              f"of size {layout.size}")
        ps = cls.__new__(cls)
        ps._layout = layout
        ps._flat = flat
        ps._views = None
        return ps

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def flat(self) -> np.ndarray:
        """The backing vector itself (not a copy); ``to_flat`` returns a copy."""
        return self._flat

    def __getstate__(self):
        # a copy or an unpickled ParamSet rebuilds its views over its own
        # vector; copied views would be detached from it
        state = self.__dict__.copy()
        state["_views"] = None
        return state

    def _entries(self) -> Dict[str, np.ndarray]:
        views = self._views
        if views is None:
            views = self._views = self._layout.views(self._flat)
        return views

    # -- container protocol -------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        views = self._views
        if views is None:
            views = self._entries()
        return views[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self._entries().get(name)
        if view is None:
            raise ConfigError(f"no entry '{name}' in layout {self.names()}")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ConfigError(f"shape mismatch for '{name}': {value.shape} vs {view.shape}")
        view[...] = value

    def __contains__(self, name: str) -> bool:
        return name in self._entries()

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout.names)

    def __len__(self) -> int:
        return len(self._layout.names)

    def names(self) -> Tuple[str, ...]:
        return self._layout.names

    def items(self):
        return self._entries().items()

    def __repr__(self) -> str:
        dims = ", ".join(f"{k}{list(s)}" for k, s in zip(self._layout.names, self._layout.shapes))
        return f"ParamSet({dims})"

    # -- arithmetic ----------------------------------------------------------

    def _check_same_layout(self, other: "ParamSet") -> None:
        mine, theirs = self._layout, other._layout
        if mine is theirs or mine.key == theirs.key:
            return
        if mine.names != theirs.names:
            raise ConfigError(f"name mismatch: {mine.names} vs {theirs.names}")
        for name, a, b in zip(mine.names, mine.shapes, theirs.shapes):
            if a != b:
                raise ConfigError(f"shape mismatch for '{name}': {a} vs {b}")

    def add(self, other: "ParamSet") -> "ParamSet":
        self._check_same_layout(other)
        return ParamSet.wrap(self._layout, self._flat + other._flat)

    def sub(self, other: "ParamSet") -> "ParamSet":
        self._check_same_layout(other)
        return ParamSet.wrap(self._layout, self._flat - other._flat)

    def scale(self, c: float) -> "ParamSet":
        return ParamSet.wrap(self._layout, self._flat * float(c))

    def mul(self, other: "ParamSet") -> "ParamSet":
        """Elementwise product (used by per-parameter learning-rate vectors)."""
        self._check_same_layout(other)
        return ParamSet.wrap(self._layout, self._flat * other._flat)

    def dot(self, other: "ParamSet") -> float:
        # per-entry partial sums in entry order; one dot over the whole
        # vector would round differently
        self._check_same_layout(other)
        a, b = self._flat, other._flat
        total = 0.0
        for sl in self._layout.slices:
            total += float(np.dot(a[sl], b[sl]))
        return total

    def norm(self) -> float:
        return float(np.sqrt(self.dot(self)))

    def copy(self) -> "ParamSet":
        return ParamSet.wrap(self._layout, self._flat.copy())

    def zeros_like(self) -> "ParamSet":
        return ParamSet.wrap(self._layout, np.zeros(self._layout.size))

    def fill(self, value: float) -> "ParamSet":
        return ParamSet.wrap(self._layout, np.full(self._layout.size, float(value)))

    # -- flat vector round trip ----------------------------------------------

    def size(self) -> int:
        return self._layout.size

    def to_flat(self) -> np.ndarray:
        return self._flat.copy()

    def from_flat(self, flat: np.ndarray) -> "ParamSet":
        """New ParamSet with this layout and values copied from ``flat``."""
        flat = np.array(flat, dtype=np.float64).ravel()
        if flat.size != self._layout.size:
            raise ConfigError(
                f"flat vector has {flat.size} values, layout needs {self._layout.size}")
        return ParamSet.wrap(self._layout, flat)

    def check_finite(self, context: str = "ParamSet") -> None:
        finite = np.isfinite(self._flat)
        if not finite.all():
            name = self._layout.entry_at(int(np.argmin(finite)))
            raise NumericError(f"non-finite values in {context} entry '{name}'")


class Gradient(ParamSet):
    """ParamSet-shaped output of a backward pass, tagged with its loss value.

    ``tape`` is what the pass kept for a Hessian-vector product at the same
    point (see `model.hvp`), or None.
    """

    def __init__(self, entries: Dict[str, np.ndarray], loss: float):
        super().__init__(entries)
        self.loss = float(loss)
        self.tape = None

    @classmethod
    def wrap(cls, layout: Layout, flat: np.ndarray, loss: float, tape=None) -> "Gradient":
        g = super().wrap(layout, flat)
        g.loss = float(loss)
        g.tape = tape
        return g


def dense_views(flat: np.ndarray, layers) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` views of ``flat``, one pair per `Layout.dense_layers` entry."""
    return [(flat[w_slice].reshape(w_shape), flat[b_slice]) for w_slice, w_shape, b_slice in layers]


def axpy_update(theta: ParamSet, g: ParamSet, step: Union[float, ParamSet]) -> ParamSet:
    """theta' = theta - step * g, with a scalar step or a per-parameter ParamSet."""
    if isinstance(step, ParamSet):
        return theta.sub(g.mul(step))
    return theta.sub(g.scale(float(step)))
