"""Parameter sets as a layout plus one flat float64 vector, and the descent update.

A ``ParamSet`` is an immutable ``Layout`` (entry names, shapes, slices,
size) and the one contiguous float64 vector it lays out, entry by entry in
the order the entries were given.  Arithmetic runs as one numpy call on the
whole vector, and every result shares the layout object of its left
operand, so building it copies nothing beyond the new vector.  Results own
fresh vectors: they never alias their operands.

Every reader works on ``flat`` at the offsets the layout fixes: the model
and the rate head through their plans (see ``ModelSpec.plan``), and
checkpoints and tests by name through `Layout.views`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["Layout", "ParamSet", "Gradient", "axpy_update", "dense_views", "row_dots",
           "nonfinite_rows"]


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
    """A `Layout` and the one float64 vector it lays out.

    The constructor copies named caller arrays into a new vector, entry by
    entry in insertion order, so a ParamSet never aliases caller storage;
    `wrap` adopts a vector as it is.  Entries are read by name through
    ``layout.views(flat)``.
    """

    def __init__(self, entries: Dict[str, np.ndarray]):
        arrays = [np.asarray(arr, dtype=np.float64) for arr in entries.values()]
        self._layout = Layout(tuple(entries), tuple(a.shape for a in arrays))
        if arrays:
            self._flat = np.concatenate([a.ravel() for a in arrays])
        else:
            self._flat = np.zeros(0, dtype=np.float64)

    @classmethod
    def wrap(cls, layout: Layout, flat: np.ndarray) -> "ParamSet":
        """ParamSet over ``flat`` itself (no copy); the caller hands it over."""
        if flat.dtype != np.float64 or flat.shape != (layout.size,):
            raise ConfigError(f"flat vector {flat.dtype}{flat.shape} does not fit a layout "
                              f"of size {layout.size}")
        ps = cls.__new__(cls)
        ps._layout = layout
        ps._flat = flat
        return ps

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def flat(self) -> np.ndarray:
        """The backing vector itself, not a copy: writes change the ParamSet."""
        return self._flat

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
        self._check_same_layout(other)
        return float(row_dots(self._layout, self._flat[None], other._flat[None])[0])

    def norm(self) -> float:
        return float(np.sqrt(self.dot(self)))

    def copy(self) -> "ParamSet":
        return ParamSet.wrap(self._layout, self._flat.copy())

    def zeros_like(self) -> "ParamSet":
        return ParamSet.wrap(self._layout, np.zeros(self._layout.size))

    def check_finite(self, context: str = "ParamSet") -> None:
        errors = nonfinite_rows(self._layout, self._flat[None], context)
        if errors:
            raise errors[0]


class Gradient(ParamSet):
    """ParamSet-shaped output of a backward pass, tagged with its loss value.

    ``tape`` is what the pass kept for a Hessian-vector product at the same
    point (see `model.hvp`), or None.
    """

    @classmethod
    def wrap(cls, layout: Layout, flat: np.ndarray, loss: float, tape=None) -> "Gradient":
        g = super().wrap(layout, flat)
        g.loss = float(loss)
        g.tape = tape
        return g


def dense_views(flat: np.ndarray, layers) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` views of ``flat``, one pair per `Layout.dense_layers` entry.

    A (B, size) stack of flat vectors gives (B, out, in) weights and
    (B, 1, out) biases, one slice per row; writes go through to the stack.
    """
    if flat.ndim == 1:
        return [(flat[w_slice].reshape(w_shape), flat[b_slice])
                for w_slice, w_shape, b_slice in layers]
    n = flat.shape[0]
    return [(flat[:, w_slice].reshape(n, *w_shape), flat[:, None, b_slice])
            for w_slice, w_shape, b_slice in layers]


def row_dots(layout: Layout, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`ParamSet.dot` of each row pair of two (B, size) stacks.

    Per-entry partial sums in entry order, as one (1, n) @ (n, 1) matmul per
    entry and row, which numpy hands to the same BLAS dot a 1-D ``np.dot``
    uses; one dot over the whole vector would round differently.
    """
    total = np.zeros(a.shape[0])
    for sl in layout.slices:
        total += (a[:, None, sl] @ b[:, sl, None])[:, 0, 0]
    return total


def nonfinite_rows(layout: Layout, rows: np.ndarray, context: str) -> Dict[int, NumericError]:
    """The error `ParamSet.check_finite` raises, for each row of a (B, size)
    stack that holds a non-finite value, keyed by row."""
    finite = np.isfinite(rows)
    if np.logical_and.reduce(finite, None):
        return {}
    return {row: NumericError(f"non-finite values in {context} entry "
                              f"'{layout.entry_at(int(np.argmin(finite[row])))}'")
            for row in np.flatnonzero(~finite.all(axis=1)).tolist()}


def axpy_update(theta: ParamSet, g: ParamSet, step: Union[float, ParamSet]) -> ParamSet:
    """theta' = theta - step * g, with a scalar step or a per-parameter ParamSet."""
    if isinstance(step, ParamSet):
        return theta.sub(g.mul(step))
    return theta.sub(g.scale(float(step)))
