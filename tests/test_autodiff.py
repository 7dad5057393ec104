import itertools
import math
import random

import numpy as np
import pytest

from dfl.autodiff import Node, Tape, finite_difference_check


def test_leaf_identity():
    tape = Tape()
    node = tape.leaf(0.9)
    assert node.value == 0.9
    assert tape.parents[node.idx] == ()


def test_leaf_boundary():
    tape = Tape()
    assert tape.leaf(0.0).value == 0.0


def test_leaf_rejects_nonfinite():
    tape = Tape()
    with pytest.raises(ValueError):
        tape.leaf(float("nan"))
    with pytest.raises(ValueError):
        tape.leaf(float("inf"))


def test_record_product():
    tape = Tape()
    a = tape.leaf(0.5)
    b = tape.leaf(0.4)
    y = tape.record("T_P", [a, b], 0.20, [0.4, 0.5])
    assert y.value == pytest.approx(0.20)
    grads = tape.backward(y)
    assert grads[a] == pytest.approx(0.4)
    assert grads[b] == pytest.approx(0.5)


def test_record_negation():
    tape = Tape()
    a = tape.leaf(0.3)
    y = tape.record("N_C", [a], 0.7, [-1.0])
    assert y.value == 0.7
    assert tape.backward(y)[a] == -1.0


def test_record_rejects_bad_partials():
    tape = Tape()
    a = tape.leaf(0.3)
    with pytest.raises(ValueError):
        tape.record("bad", [a], 0.5, [float("inf")])
    with pytest.raises(ValueError):
        tape.record("bad", [a], 0.5, [1.0, 2.0])


def test_backward_root_only():
    tape = Tape()
    y = tape.leaf(0.7)
    grads = tape.backward(y)
    assert grads[y] == 1.0
    assert len(grads) == 1


def test_backward_reichenbach_shape():
    # y = 1 - a + a*c at a=0.9, c=0.4: dy/da = c - 1, dy/dc = a
    tape = Tape()
    a = tape.leaf(0.9)
    c = tape.leaf(0.4)
    y = tape.record("I_RC", [a, c], 1 - 0.9 + 0.9 * 0.4, [0.4 - 1.0, 0.9])
    grads = tape.backward(y)
    assert grads[a] == pytest.approx(-0.6)
    assert grads[c] == pytest.approx(0.9)


def test_unreachable_nodes_have_zero_adjoint():
    tape = Tape()
    a = tape.leaf(0.5)
    stray = tape.leaf(0.25)
    y = tape.record("id", [a], 0.5, [1.0])
    grads = tape.backward(y)
    assert grads[stray] == 0.0


def _brute_force_path_sum(tape, root_idx, target_idx):
    """Sum over all directed paths root -> target of the partial products."""
    total = 0.0
    stack = [(root_idx, 1.0)]
    while stack:
        idx, acc = stack.pop()
        if idx == target_idx:
            total += acc
            continue
        for parent_idx, partial in tape.parents[idx]:
            stack.append((parent_idx, acc * partial))
    return total


def test_sum_over_paths_against_enumeration_oracle():
    # Random small DAGs: backward() must equal the exhaustive sum over
    # root-to-leaf path products.
    rng = random.Random(7)
    for _ in range(200):
        tape = Tape()
        nodes = [tape.leaf(rng.uniform(-1, 1)) for _ in range(2)]
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, min(3, len(nodes)))
            inputs = rng.sample(nodes, k)
            partials = [rng.uniform(-2, 2) for _ in range(k)]
            nodes.append(tape.record("op", inputs, rng.uniform(-1, 1), partials))
        root = nodes[-1]
        grads = tape.backward(root)
        for node in nodes:
            expected = _brute_force_path_sum(tape, root.idx, node.idx)
            assert grads[node] == pytest.approx(expected, abs=1e-12)


def test_linearity():
    tape = Tape()
    a = tape.leaf(0.2)
    b = tape.leaf(0.5)
    s = tape.record("add", [a, b], 0.7, [1.0, 1.0])
    grads = tape.backward(s)
    assert grads[a] == 1.0 and grads[b] == 1.0

    tape = Tape()
    x = tape.leaf(0.4)
    y = tape.record("scale", [x], 3.0 * 0.4, [3.0])
    assert tape.backward(y)[x] == 3.0


def test_fanout_accumulation():
    # y = x*x as two uses of the same node: adjoint must accumulate
    tape = Tape()
    x = tape.leaf(0.3)
    y = tape.record("mul", [x, x], 0.09, [0.3, 0.3])
    assert tape.backward(y)[x] == pytest.approx(0.6)


def test_finite_difference_product():
    def f(tape, leaves):
        a, b = leaves
        return tape.record("T_P", [a, b], a.value * b.value, [b.value, a.value])

    assert finite_difference_check(f, [0.5, 0.4], h=1e-5) < 1e-6


def test_finite_difference_probsum():
    def f(tape, leaves):
        a, b = leaves
        v = a.value + b.value - a.value * b.value
        return tape.record("S_P", [a, b], v, [1 - b.value, 1 - a.value])

    assert finite_difference_check(f, [0.3, 0.5], h=1e-5) < 1e-6


def test_finite_difference_reichenbach():
    def f(tape, leaves):
        a, c = leaves
        v = 1 - a.value + a.value * c.value
        return tape.record("I_RC", [a, c], v, [c.value - 1.0, a.value])

    assert finite_difference_check(f, [0.9, 0.4], h=1e-5) < 1e-6


def test_dump_format():
    tape = Tape()
    a = tape.leaf(0.5)
    b = tape.leaf(0.4)
    tape.record("T_P", [a, b], 0.2, [0.4, 0.5])
    lines = tape.dump().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("0 leaf 0.5")
    assert lines[2].startswith("2 T_P 0.2") and "0:0.4" in lines[2]


def test_deep_chain_product_rule():
    # chain of n multiplications by constants: adjoint is the product
    tape = Tape()
    x = tape.leaf(1.0)
    node = x
    consts = [1.1, 0.9, 1.3, 0.7, 1.05]
    for c in consts:
        node = tape.record("mulc", [node], node.value * c, [c])
    grads = tape.backward(node)
    assert grads[x] == pytest.approx(math.prod(consts), rel=1e-12)


# ---------------------------------------------------------------------------
# fused nodes: edges as arrays, swept with np.add.at

def _dict_backward(tape, root_idx):
    """The reference sweep: one dict entry per reached node, one Python
    addition per (parent, partial) pair, in the order the pairs iterate."""
    adjoints = {root_idx: 1.0}
    for idx in range(root_idx, -1, -1):
        a = adjoints.get(idx)
        if a is None:
            continue
        for parent_idx, partial in tape.parents[idx]:
            adjoints[parent_idx] = adjoints.get(parent_idx, 0.0) + a * partial
    return adjoints


def _random_partial(rng):
    return rng.choice([0.0, -0.0, 1.0, -1.0, 1e-300, rng.uniform(-3, 3),
                       rng.uniform(-3, 3)])


def _random_mixed_tape(rng):
    """Leaves, then record and record_fused nodes; fused parents repeat.
    Returns the tape and a root that is not always the last node."""
    tape = Tape()
    nodes = [tape.leaf(rng.uniform(-1, 1)) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(1, 12)):
        k = rng.randint(0, 8)
        if rng.random() < 0.5:
            inputs = [rng.choice(nodes) for _ in range(k)]
            partials = [_random_partial(rng) for _ in range(k)]
            nodes.append(tape.record("op", inputs, rng.uniform(-1, 1), partials))
        else:
            parents = np.array([rng.randrange(len(nodes)) for _ in range(k)],
                               dtype=np.intp)
            partials = np.array([_random_partial(rng) for _ in range(k)])
            nodes.append(tape.record_fused("fused", parents, rng.uniform(-1, 1),
                                           partials))
    root = nodes[rng.randrange(len(nodes) // 2, len(nodes))]
    return tape, root


def test_array_tape_matches_the_dict_sweep_bit_for_bit():
    rng = random.Random(11)
    for _ in range(400):
        tape, root = _random_mixed_tape(rng)
        grads = tape.backward(root)
        expected = _dict_backward(tape, root.idx)
        got = np.array([grads[Node(tape, i)] for i in range(len(tape))])
        want = np.array([expected.get(i, 0.0) for i in range(len(tape))])
        assert got.tobytes() == want.tobytes()
        assert len(grads) == len(expected)


def test_fused_duplicate_parents_accumulate_in_order():
    tape = Tape()
    x = tape.leaf(0.5)
    y = tape.leaf(0.25)
    big = tape.record_fused("f", [0, 1, 0, 0], 0.0, [1e16, -0.0, 1.0, -1e16])
    grads = tape.backward(big)
    assert grads[x] == (((0.0 + 1e16) + 1.0) + -1e16)  # 0.0 in order
    assert math.copysign(1.0, grads[y]) == 1.0  # 0.0 + -0.0 is +0.0
    assert len(grads) == 3


def test_nodes_after_the_root_have_zero_adjoint():
    tape = Tape()
    a = tape.leaf(0.5)
    y = tape.record_fused("f", [0], 0.5, [2.0])
    later = tape.record_fused("g", [0, 1], 1.0, [3.0, 4.0])
    grads = tape.backward(y)
    assert grads[a] == 2.0 and grads[later] == 0.0 and len(grads) == 2


@pytest.mark.parametrize("parents, value, partials, message", [
    ([0, 1], 0.5, [1.0], "f: 2 inputs but 1 partials"),
    ([0], float("inf"), [1.0], "f: non-finite value inf"),
    ([0, 1], 0.5, [1.0, float("nan")], "f: non-finite partial nan"),
    ([0, 1], 0.5, [float("-inf"), float("nan")], "f: non-finite partial -inf"),
    ([0, 2], 0.5, [1.0, 1.0], "f: input index outside the tape"),
    ([-1], 0.5, [1.0], "f: input index outside the tape"),
])
def test_record_fused_refusals(parents, value, partials, message):
    for as_array in (False, True):
        tape = Tape()
        tape.leaf(0.1)
        tape.leaf(0.2)
        if as_array:
            parents, partials = np.array(parents), np.array(partials)
        with pytest.raises(ValueError) as excinfo:
            tape.record_fused("f", parents, value, partials)
        assert str(excinfo.value) == message
        assert len(tape) == 2 and len(tape.parents) == len(tape.labels) == 2


def test_fused_edges_iterate_as_python_pairs():
    tape = Tape()
    tape.leaf(0.1)
    tape.leaf(0.2)
    node = tape.record_fused("f", np.array([1, 0, 1]), 0.5,
                             np.array([0.25, -0.0, 3.0]))
    pairs = list(tape.parents[node.idx])
    assert pairs == [(1, 0.25), (0, -0.0), (1, 3.0)]
    assert all(type(p) is int and type(d) is float for p, d in pairs)
    empty = tape.record_fused("e", [], 0.0, [])
    assert list(tape.parents[empty.idx]) == []


def test_dump_of_fused_nodes_matches_record():
    fused, scalar = Tape(), Tape()
    for tape in (fused, scalar):
        tape.leaf(0.5, label="p(0,)")
        tape.leaf(0.1 + 0.2, label="p(1,)")
    fused.record_fused("v", np.array([1, 0, 1]), 0.75,
                       np.array([1e-300, -0.0, 1 / 3]))
    a, b = (Node(scalar, 0), Node(scalar, 1))
    scalar.record("v", [b, a, b], 0.75, [1e-300, -0.0, 1 / 3])
    assert fused.dump() == scalar.dump() == (
        "0 p(0,) 0.5\n1 p(1,) 0.30000000000000004\n"
        "2 v 0.75 1:1e-300 0:-0.0 1:0.3333333333333333")


def test_leaves_record_in_bulk_like_leaf():
    bulk, single = Tape(), Tape()
    for tape in (bulk, single):
        tape.leaf(0.9, label="first")
    values = [0.5, 0.0, 1.0 / 3.0]
    nodes = bulk.leaves(np.array(values), ["a", "b", "c"])
    for value, label in zip(values, "abc"):
        single.leaf(value, label=label)
    assert [n.idx for n in nodes] == [1, 2, 3]
    assert all(n.tape is bulk for n in nodes)
    assert bulk.dump() == single.dump()
    assert bulk.parents == single.parents
    assert all(type(v) is float for v in bulk.values)


def test_leaves_refusals():
    tape = Tape()
    with pytest.raises(ValueError, match="leaf value must be finite, got nan"):
        tape.leaves([0.5, float("nan")], ["a", "b"])
    with pytest.raises(ValueError, match="2 leaf values but 1 labels"):
        tape.leaves([0.5, 0.25], ["a"])
    assert len(tape) == 0 and tape.leaves([], []) == []
