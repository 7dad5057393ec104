"""Minimal reverse-mode automatic differentiation over scalars.

Each node of an append-only tape records its value and the local partial
derivatives of the output with respect to each input; ``Tape.backward``
sweeps the tape once in reverse creation order and accumulates adjoints.
The valuation engine no longer needs it to train: ``valuation.
loss_gradient`` returns the loss gradient as an array.  The tape serves
callers that want nodes (``valuation.valuate`` and ``dfl_loss`` record a
formula as one fused node over the ground-atom leaves with
``record_fused``), scalar compositions, and ``finite_difference_check``.

Completed tapes are read-only.  A tape must not be shared between
threads while nodes are still being recorded; independent evaluations
should each build their own tape.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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
        return self.tape.labels[self.idx]

    def __repr__(self) -> str:
        return f"Node({self.idx}, {self.value!r}, {self.label})"


class GradientMap:
    """Adjoints of every node reachable from the backward root.

    Nodes the sweep never reached have adjoint 0.  The root always has
    adjoint exactly 1 (the map is d(root)/d(node); callers pick their
    own sign convention for losses).
    """

    def __init__(self, adjoints: dict, root_idx: int):
        self._adjoints = adjoints
        self.root_idx = root_idx

    def __getitem__(self, node: Node) -> float:
        return self._adjoints.get(node.idx, 0.0)

    def __len__(self) -> int:
        return len(self._adjoints)


class Tape:
    """Append-only record of a scalar computation."""

    __slots__ = ("values", "parents", "labels")

    def __init__(self):
        self.values: list[float] = []
        # parents[i] is a tuple of (parent index, local partial) pairs
        self.parents: list[tuple] = []
        self.labels: list[str] = []

    def __len__(self) -> int:
        return len(self.values)

    def leaf(self, value: float, label: str = "leaf") -> Node:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"leaf value must be finite, got {value!r}")
        self.values.append(value)
        self.parents.append(())
        self.labels.append(label)
        return Node(self, len(self.values) - 1)

    def record(
        self,
        label: str,
        inputs: Sequence[Node],
        value: float,
        partials: Sequence[float],
    ) -> Node:
        if any(node.tape is not self for node in inputs):
            raise ValueError(f"{label}: input node belongs to another tape")
        return self.record_fused(label, [node.idx for node in inputs], value,
                                 partials)

    def record_fused(
        self,
        label: str,
        parents: Sequence[int],
        value: float,
        partials: Sequence[float],
    ) -> Node:
        """``record`` for inputs given by tape index, without one Node
        per input."""
        if len(parents) != len(partials):
            raise ValueError(
                f"{label}: {len(parents)} inputs but {len(partials)} partials"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{label}: non-finite value {value!r}")
        if not all(map(math.isfinite, partials)):
            bad = next(d for d in partials if not math.isfinite(d))
            raise ValueError(f"{label}: non-finite partial {bad!r}")
        if parents and not 0 <= min(parents) <= max(parents) < len(self.values):
            raise ValueError(f"{label}: input index outside the tape")
        self.values.append(value)
        self.parents.append(tuple(zip(parents, map(float, partials))))
        self.labels.append(label)
        return Node(self, len(self.values) - 1)

    def backward(self, root: Node) -> GradientMap:
        """Reverse sweep from ``root``; adjoint(x) = sum over children c of
        adjoint(c) * partial(c -> x)."""
        if root.tape is not self:
            raise ValueError("root node belongs to another tape")
        adjoints = {root.idx: 1.0}
        parents = self.parents
        for idx in range(root.idx, -1, -1):
            a = adjoints.get(idx)
            if a is None:
                continue
            for parent_idx, partial in parents[idx]:
                adjoints[parent_idx] = adjoints.get(parent_idx, 0.0) + a * partial
        return GradientMap(adjoints, root.idx)

    def dump(self) -> str:
        """One node per line: ``id label value [parent:partial ...]``."""
        lines = []
        for idx in range(len(self.values)):
            parts = " ".join(f"{p}:{d!r}" for p, d in self.parents[idx])
            line = f"{idx} {self.labels[idx]} {self.values[idx]!r}"
            if parts:
                line += " " + parts
            lines.append(line)
        return "\n".join(lines)


def finite_difference_check(
    f: Callable[[Tape, list], Node],
    point: Sequence[float],
    h: float = 1e-5,
) -> float:
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
