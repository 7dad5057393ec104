"""Minimal reverse-mode automatic differentiation on an append-only tape.

Each node records its value and the local partial derivatives of the
output with respect to each input; ``Tape.backward`` sweeps the tape once
in reverse creation order, accumulating adjoints in a float64 array.  A
``record`` node keeps its edges as a tuple of (parent index, partial)
pairs; a fused node (``record_fused``, many inputs given by tape index)
keeps them as two arrays, swept with one ``np.add.at``.  The valuation
engine records each formula as a fused node over atom leaves recorded in
bulk (``leaf_range``), which builds no Node and makes each leaf's label
only when ``labels``, ``Node.label`` or ``dump`` first reads it; training
uses ``valuation.loss_gradient`` instead.

Completed tapes are read-only.  A tape must not be shared between
threads while nodes are still being recorded; independent evaluations
should each build their own tape.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["Node", "Tape", "GradientMap", "finite_difference_check"]


class Node:
    """Handle to one scalar recorded on a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> float:
        return self.tape.values[self.idx]

    @property
    def label(self) -> str:
        return self.tape.label(self.idx)

    def __repr__(self) -> str:
        return f"Node({self.idx}, {self.value!r}, {self.label})"


class GradientMap:
    """Adjoints of every node reachable from the backward root.

    Nodes the sweep never reached, or that come after the root, have
    adjoint 0.  The root always has adjoint exactly 1 (the map is
    d(root)/d(node); callers pick their own sign convention for losses).
    """

    def __init__(self, adjoints: np.ndarray, reached: np.ndarray, root_idx: int):
        self._adjoints, self._reached, self.root_idx = adjoints, reached, root_idx

    def __getitem__(self, node: Node) -> float:
        idx = node.idx
        return float(self._adjoints[idx]) if idx <= self.root_idx else 0.0

    def __len__(self) -> int:
        return int(np.count_nonzero(self._reached))


class _Edges:
    """A fused node's edges as two arrays; iterates as the (parent index,
    partial) pairs of a ``record`` node."""

    __slots__ = ("idx", "partials")

    def __init__(self, idx: np.ndarray, partials: np.ndarray):
        self.idx, self.partials = idx, partials

    def __iter__(self):
        return zip(self.idx.tolist(), self.partials.tolist())


class Tape:
    """Append-only record of a scalar computation."""

    __slots__ = ("values", "parents", "_labels", "_pending")

    def __init__(self):
        self.values: list[float] = []
        # parents[i]: node i's (parent index, local partial) pairs, or _Edges
        self.parents: list = []
        # _labels[i] is None while node i's label waits in a _pending
        # (start, stop, label_of) block, which makes it from i - start
        self._labels: list = []
        self._pending: list = []

    def __len__(self) -> int:
        return len(self.values)

    @property
    def labels(self) -> list:
        """Every node's label; pending leaf labels are made on this read."""
        for start, stop, label_of in self._pending:
            self._labels[start:stop] = [
                label_of(k) if label is None else label
                for k, label in enumerate(self._labels[start:stop])]
        self._pending.clear()
        return self._labels

    def label(self, idx: int) -> str:
        """Node ``idx``'s label, made alone if it is still pending."""
        label = self._labels[idx]
        if label is None:
            k = bisect.bisect_right(self._pending, idx, key=lambda blk: blk[0])
            start, _, label_of = self._pending[k - 1]
            label = self._labels[idx] = label_of(idx - start)
        return label

    def _append(self, label: str, value: float, edges) -> Node:
        self.values.append(value)
        self.parents.append(edges)
        self._labels.append(label)
        return Node(self, len(self.values) - 1)

    def leaf(self, value: float, label: str = "leaf") -> Node:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"leaf value must be finite, got {value!r}")
        return self._append(label, value, ())

    def leaf_range(self, values, label_of: Callable[[int], str]) -> range:
        """One leaf per entry of ``values``, recorded without a Node
        handle; leaf k's label is ``label_of(k)``, made when first read.
        Returns the leaves' tape indices."""
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"leaf value must be finite, got "
                             f"{float(values[~finite][0])!r}")
        base = len(self.values)
        if len(values):
            self.values += values.tolist()
            self.parents += [()] * len(values)
            self._labels += [None] * len(values)
            self._pending.append((base, len(self.values), label_of))
        return range(base, len(self.values))

    def leaves(self, values, labels: Sequence[str]) -> list:
        """One leaf per entry of ``values``, labelled by ``labels``."""
        values = np.asarray(values, dtype=float)
        if len(labels) != len(values):
            raise ValueError(f"{len(values)} leaf values but {len(labels)} labels")
        return [Node(self, idx)
                for idx in self.leaf_range(values, list(labels).__getitem__)]

    def record(self, label: str, inputs: Sequence[Node], value: float,
               partials: Sequence[float]) -> Node:
        if any(node.tape is not self for node in inputs):
            raise ValueError(f"{label}: input node belongs to another tape")
        if len(inputs) != len(partials):
            raise ValueError(f"{label}: {len(inputs)} inputs but "
                             f"{len(partials)} partials")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{label}: non-finite value {value!r}")
        if not all(map(math.isfinite, partials)):
            bad = next(d for d in partials if not math.isfinite(d))
            raise ValueError(f"{label}: non-finite partial {bad!r}")
        return self._append(label, value, tuple(
            zip([node.idx for node in inputs], map(float, partials))))

    def record_fused(self, label: str, parents, value: float, partials) -> Node:
        """``record`` for inputs given by tape index, as arrays of parent
        indices and partials, without one Node per input."""
        parents = np.array(parents, dtype=np.intp)
        partials = np.array(partials, dtype=float)
        if len(parents) != len(partials):
            raise ValueError(f"{label}: {len(parents)} inputs but "
                             f"{len(partials)} partials")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{label}: non-finite value {value!r}")
        finite = np.isfinite(partials)
        if not finite.all():
            raise ValueError(f"{label}: non-finite partial "
                             f"{float(partials[~finite][0])!r}")
        if len(parents) and not 0 <= parents.min() <= parents.max() < len(self.values):
            raise ValueError(f"{label}: input index outside the tape")
        return self._append(label, value, _Edges(parents, partials))

    def backward(self, root: Node) -> GradientMap:
        """Reverse sweep from ``root``; adjoint(x) = 0.0 + the sum over
        children c, latest first, of adjoint(c) * partial(c -> x)."""
        if root.tape is not self:
            raise ValueError("root node belongs to another tape")
        adjoints = np.zeros(root.idx + 1)
        reached = np.zeros(root.idx + 1, dtype=bool)
        adjoints[root.idx], reached[root.idx] = 1.0, True
        parents = self.parents
        for idx in range(root.idx, -1, -1):
            edges = parents[idx]
            if not edges or not reached[idx]:
                continue
            a = float(adjoints[idx])
            if type(edges) is tuple:
                for parent_idx, partial in edges:
                    adjoints[parent_idx] += a * partial
                    reached[parent_idx] = True
            else:  # unbuffered: repeated parents add in order
                np.add.at(adjoints, edges.idx, a * edges.partials)
                reached[edges.idx] = True
        return GradientMap(adjoints, reached, root.idx)

    def dump(self) -> str:
        """One node per line: ``id label value [parent:partial ...]``."""
        lines, labels = [], self.labels
        for idx in range(len(self.values)):
            parts = " ".join(f"{p}:{d!r}" for p, d in self.parents[idx])
            line = f"{idx} {labels[idx]} {self.values[idx]!r}"
            if parts:
                line += " " + parts
            lines.append(line)
        return "\n".join(lines)


def finite_difference_check(f: Callable[[Tape, list], Node],
                            point: Sequence[float], h: float = 1e-5) -> float:
    """Compare backward() against central differences at ``point``.

    ``f`` takes a tape plus one leaf node per coordinate and returns the
    root node.  Returns the max absolute coordinate-wise error between
    the analytic gradient and (f(x+h)-f(x-h))/2h.  The caller is
    responsible for keeping ``point +- h`` inside the operator's domain.
    """

    point = [float(x) for x in point]
    tape = Tape()
    leaves = [tape.leaf(x) for x in point]
    root = f(tape, leaves)
    grads = tape.backward(root)
    analytic = [grads[leaf] for leaf in leaves]

    def value_at(xs: list[float]) -> float:
        t = Tape()
        return f(t, [t.leaf(x) for x in xs]).value

    worst = 0.0
    for i in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[i] += h
        lo[i] -= h
        numeric = (value_at(hi) - value_at(lo)) / (2.0 * h)
        worst = max(worst, abs(numeric - analytic[i]))
    return worst
