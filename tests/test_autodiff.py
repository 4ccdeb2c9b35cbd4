"""Tests for the reverse-mode autodiff core.

Analytic gradients are checked against central finite differences, the
independent oracle for every op.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

from mmfuse.autodiff import Tape, as_matrix
from mmfuse.errors import DimensionError, InputError, UsageError
from support import finite_difference_check, reference_cross_entropy, sum_all


def param(t, value):
    """A parameter leaf whose gradient adds into a fresh zero buffer."""
    return t.parameter(value, np.zeros_like(value))


def fd_worst_error(build, arrays, step=1e-5):
    """Backprop through build(tape, nodes) and compare against central differences."""
    def f(params):
        t = Tape()
        nodes = {k: t.input(v) for k, v in params.items()}
        return float(build(t, nodes).value[0, 0])

    tape = Tape()
    nodes = {k: param(tape, v) for k, v in arrays.items()}
    out = build(tape, nodes)
    tape.backward(out)
    return finite_difference_check(f, arrays, {k: n.grad for k, n in nodes.items()}, step=step)


def uniform(rng, *shape):
    return rng.uniform(-2.0, 2.0, shape)


# -- forward values ----------------------------------------------------------


def test_matmul_value():
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    b = t.constant([[5.0], [6.0]])
    assert np.array_equal(t.matmul(a, b).value, [[17.0], [39.0]])


def test_add_and_row_bias_values():
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    b = t.constant([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(t.add(a, b).value, [[11.0, 22.0], [33.0, 44.0]])
    bias = t.constant([[1.0, -1.0]])
    assert np.array_equal(t.add(a, bias).value, [[2.0, 1.0], [4.0, 3.0]])


def test_softmax_rows_value_and_stability():
    t = Tape()
    s = t.softmax_rows(t.constant([[0.0, 0.0], [1000.0, 1000.0], [-1000.0, 1000.0]]))
    assert np.allclose(s.value[0], [0.5, 0.5])
    assert np.allclose(s.value[1], [0.5, 0.5])
    assert np.isfinite(s.value).all()
    assert s.value[2, 1] > 0.999999


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    t = Tape()
    for _ in range(20):
        s = t.softmax_rows(t.constant(rng.uniform(-50.0, 50.0, (5, 7)))).value
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
    for _ in range(20):
        # strict open-interval membership holds away from float64 saturation
        s = t.softmax_rows(t.constant(rng.uniform(-15.0, 15.0, (5, 7)))).value
        assert (s > 0.0).all() and (s < 1.0).all()


def test_dense_activation_values():
    t = Tape()
    x = t.constant([[0.0, -1.0, 50.0, -50.0]])
    eye, bias = t.constant(np.eye(4)), t.constant([[0.0, 0.0, 0.0, 0.0]])
    s = t.dense(x, eye, bias, "sigmoid").value
    assert s[0, 0] == 0.5
    assert abs(s[0, 1] - 1.0 / (1.0 + math.exp(1.0))) < 1e-12
    assert 0.0 <= s[0, 3] < 1e-15 and 1.0 - 1e-15 < s[0, 2] <= 1.0
    assert np.array_equal(t.dense(x, eye, bias, "relu").value, [[0.0, 0.0, 50.0, 0.0]])
    shifted = t.dense(t.constant([[1.0, 2.0], [3.0, 4.0]]), t.constant([[1.0], [10.0]]),
                      t.constant([[-0.5]]))
    assert np.array_equal(shifted.value, [[20.5], [42.5]])


def dense_reference(x, w, b, act, upstream):
    """The three separate ops the dense record replaces, in numpy: its value
    and the gradients of b, x and w for an upstream gradient."""
    pre = np.matmul(x, w) + b
    if act == "relu":
        out = np.maximum(pre, 0.0)
        g = upstream * (pre > 0.0)
    elif act == "sigmoid":
        out = 0.5 * (1.0 + np.tanh(0.5 * pre))
        g = upstream * out * (1.0 - out)
    else:
        out, g = pre, upstream
    g_b = np.add.reduce(g, axis=(0,), keepdims=True) if len(g) > 1 else g
    return out, g_b, g @ w.T, x.T @ g


@pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
def test_dense_matches_separate_ops_bytewise(act):
    """Forward and all three gradients equal matmul, then the bias add, then
    the activation, by bytes. ``x`` feeds a second consumer, whose gradient
    comes first and to which the dense contribution is added."""
    for m in (1, 3, 32):
        rng = np.random.default_rng(m)
        u, p = rng.normal(size=(m, 5)), rng.normal(size=(5, 4))
        w, b = rng.normal(size=(4, 6)), rng.normal(size=(1, 6))
        r, s = rng.normal(size=(m, 6)), rng.normal(size=(m, 4))
        t = Tape()
        n = {"p": param(t, p), "w": param(t, w), "b": param(t, b)}
        x = t.matmul(t.input(u), n["p"])
        out = t.dense(x, n["w"], n["b"], act)
        root = t.add(sum_all(t, t.mul(out, t.constant(r))), sum_all(t, t.mul(x, t.constant(s))))
        t.backward(root)
        want, g_b, g_x, g_w = dense_reference(u @ p, w, b, act, r)
        assert out.value.tobytes() == want.tobytes()
        # parameter gradients add into zeroed buffers, which turns a -0.0 into 0.0
        assert n["b"].grad.tobytes() == (0.0 + g_b).tobytes()
        assert x.grad.tobytes() == (s + g_x).tobytes()
        assert n["w"].grad.tobytes() == (0.0 + g_w).tobytes()
        assert n["p"].grad.tobytes() == (0.0 + u.T @ (s + g_x)).tobytes()
    t = Tape()
    x, w = t.constant(np.ones((3, 4))), t.constant(np.ones((4, 2)))
    for bad in ((1, 3), (3, 2), (1, 1, 2)):
        with pytest.raises(DimensionError):
            t.dense(x, w, t.constant(np.ones(bad)))
    with pytest.raises(DimensionError):
        t.dense(t.constant(np.ones((1, 3, 4))), w, t.constant(np.ones((1, 2))))
    with pytest.raises(UsageError):
        t.dense(x, w, t.constant(np.ones((1, 2))), "tanh")


def test_softmax_row_max_matches_a_max_reduce():
    """The row max comes from a sequence-major copy; the softmax equals one
    that takes it with a max-reduce over the last axis, by bytes, with ties
    and signed zeros in the rows."""
    rng = np.random.default_rng(12)
    t = Tape()
    for batch in (1, 3, 32, 1000):
        for length in (1, 2, 3, 4, 7, 8, 9, 16):
            shape = (batch, 2, length)
            tied = rng.choice([-0.0, 0.0, -1.5, 2.0, 2.0], size=shape)
            for v in (tied, 20.0 * rng.normal(size=shape)):
                e = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))
                want = e / np.add.reduce(e, axis=-1, keepdims=True)
                assert t.softmax_rows(t.constant(v)).value.tobytes() == want.tobytes()


def test_length_one_mean_is_a_view_that_follows_replay():
    """At L = 1, mean_rows shares its input's memory. Kept, it follows an
    input refilled in place through the op it pools, and its gradient is the
    pooled one, reshaped and contiguous even where the pooled one is a strided
    concat_cols slice, since a strided operand moves a gemm's bits."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 1, 3))
    scoring = Tape()
    assert np.shares_memory(scoring.mean_rows(scoring.input(x)).value, x)
    t = Tape()
    bias = param(t, rng.normal(size=(1, 1, 3)))
    h = t.add(t.input(x), bias)
    pooled = t.mean_rows(h)
    assert np.shares_memory(pooled.value, h.value) and pooled.value.shape == (4, 3)
    w = t.constant(rng.normal(size=(5, 2)))
    loss = sum_all(t, t.matmul(t.concat_cols(pooled, t.constant(np.ones((4, 2)))), w))
    t.backward(loss)
    x[...] = rng.normal(size=(4, 1, 3))
    bias.grad.fill(0.0)
    t.replay()
    t.backward(loss)
    assert np.array_equal(pooled.value, (x + bias.value)[:, 0])
    assert np.shares_memory(pooled.value, h.value)
    assert not pooled.grad.flags.c_contiguous and h.grad.flags.c_contiguous
    assert h.grad.shape == (4, 1, 3) and np.array_equal(h.grad[:, 0], pooled.grad)


def test_scale_concat_mean_transpose_sum_values():
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(t.mul(a, t.constant([[2.0]])).value, [[2.0, 4.0], [6.0, 8.0]])
    assert np.array_equal(t.mul(a, t.constant([[2.0], [10.0]])).value, [[2.0, 4.0], [30.0, 40.0]])
    b = t.constant([[5.0], [6.0]])
    assert np.array_equal(t.concat_cols(a, b).value, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
    assert np.array_equal(t.mean_rows(t.constant([[[1.0, 2.0], [3.0, 4.0]]])).value, [[2.0, 3.0]])
    assert np.array_equal(t.transpose(a).value, [[1.0, 3.0], [2.0, 4.0]])
    assert sum_all(t, a).value[0, 0] == 10.0


def test_stack_values():
    rng = np.random.default_rng(1)
    x, w = rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 5))
    t = Tape()
    a = t.constant(x)
    assert np.array_equal(t.matmul(a, t.constant(w)).value, (x.reshape(6, 4) @ w).reshape(3, 2, 5))
    # a length-1 stack runs the same gemm as the matrix of its rows
    single = rng.normal(size=(7, 1, 4))
    assert np.array_equal(t.matmul(t.constant(single), t.constant(w)).value[:, 0],
                          single[:, 0] @ w)
    y = rng.normal(size=(3, 4, 2))
    per_matrix = np.stack([x[b] @ y[b] for b in range(3)])
    assert np.abs(t.matmul(a, t.constant(y)).value - per_matrix).max() <= 1e-14
    assert np.array_equal(t.transpose(a).value, x.transpose(0, 2, 1))
    assert np.array_equal(t.mean_rows(a).value, x.mean(axis=1))
    assert np.abs(t.softmax_rows(a).value.sum(axis=2) - 1.0).max() <= 1e-15
    column = rng.normal(size=(3, 1, 4))
    assert np.array_equal(t.add(t.constant(column), a).value, x + column)


def test_value_only_tape_frees_intermediates():
    t = Tape()
    hidden = t.softmax_rows(t.constant(np.ones((2, 3, 4))))
    value = weakref.ref(hidden.value)
    out = t.add(hidden, hidden)
    del hidden
    assert value() is None  # no gradient flows through either op, so neither is kept
    assert len(t) == 1 and out.value.shape == (2, 3, 4)  # the constant leaf alone
    features = np.ones((2, 1, 3))
    held = weakref.ref(features)
    leaf = t.input(features)
    assert leaf.value is features and len(t) == 2  # taken as it is, no copy
    del features, leaf
    assert held() is None  # no op read it, so the tape does not hold it
    # an input that a kept op reads lives while that op does, and goes with the tape
    features = np.ones((2, 1, 3))
    held = weakref.ref(features)
    out = t.add(t.input(features), param(t, np.ones((1, 1, 3))))
    del features, out
    assert held() is not None
    del t
    assert held() is None


def test_cross_entropy_values():
    def loss(logits, labels):
        t = Tape()
        return t.cross_entropy_logits([t.constant(logits)], t.input(np.array(labels)))

    even = loss([[0.0, 0.0]], [1])
    assert abs(even.value[0, 0] - math.log(2.0)) <= 1e-15
    confident = loss([[100.0, -100.0]], [0])
    assert confident.value[0, 0] == 0.0
    wrong = loss([[100.0, -100.0]], [1])
    assert wrong.value[0, 0] == 200.0
    # mean over rows
    pair = loss([[0.0, 0.0], [0.0, 0.0]], [0, 1])
    assert abs(pair.value[0, 0] - math.log(2.0)) <= 1e-15


# -- gradients against finite differences ------------------------------------


def elementwise(op, a, b):
    """An OPS row for add or mul over operands of shapes a and b."""
    return ({"a": a, "b": b},
            lambda t, n: sum_all(t, t.matmul(getattr(t, op)(n["a"], n["b"]), n["w"])))


OPS = {
    "matmul": (
        {"a": (3, 4), "b": (4, 2)},
        lambda t, n: sum_all(t, t.matmul(n["a"], n["b"])),
    ),
    "softmax_rows": (
        {"a": (3, 4)},
        lambda t, n: sum_all(t, t.matmul(t.softmax_rows(n["a"]), n["w"])),
    ),
    "dense": (
        {"a": (3, 5), "b": (5, 4), "c": (1, 4)},
        lambda t, n: sum_all(t, t.matmul(t.dense(n["a"], n["b"], n["c"]), n["w"])),
    ),
    "dense_relu": (
        {"a": (3, 5), "b": (5, 4), "c": (1, 4)},
        lambda t, n: sum_all(t, t.matmul(t.dense(n["a"], n["b"], n["c"], "relu"), n["w"])),
    ),
    "dense_sigmoid": (
        {"a": (3, 5), "b": (5, 4), "c": (1, 4)},
        lambda t, n: sum_all(t, t.matmul(t.dense(n["a"], n["b"], n["c"], "sigmoid"), n["w"])),
    ),
    "concat_cols": (
        {"a": (3, 2), "b": (3, 2)},
        lambda t, n: sum_all(t, t.matmul(t.concat_cols(n["a"], n["b"]), n["w"])),
    ),
    "mean_rows": (
        {"a": (1, 5, 4)},
        lambda t, n: sum_all(t, t.matmul(t.mean_rows(n["a"]), n["w"])),
    ),
    "transpose": (
        {"a": (4, 3)},
        lambda t, n: sum_all(t, t.matmul(t.transpose(n["a"]), n["w"])),
    ),
    # (B, L, d) stacks
    "matmul_stack_by_matrix": (
        {"a": (2, 3, 4), "b": (4, 2)},
        lambda t, n: sum_all(t, t.matmul(n["a"], n["b"])),
    ),
    "matmul_stack_by_stack": (
        {"a": (2, 3, 4), "b": (2, 4, 2)},
        lambda t, n: sum_all(t, t.matmul(n["a"], n["b"])),
    ),
    "softmax_stack": (
        {"a": (2, 3, 4)},
        lambda t, n: sum_all(t, t.matmul(t.softmax_rows(n["a"]), n["w"])),
    ),
    "mean_rows_stack": (
        {"a": (2, 3, 4)},
        lambda t, n: sum_all(t, t.matmul(t.mean_rows(n["a"]), n["w"])),
    ),
    "mean_rows_length_one": (
        {"a": (3, 1, 4)},
        lambda t, n: sum_all(t, t.matmul(t.mean_rows(n["a"]), n["w"])),
    ),
    "transpose_stack": (
        {"a": (2, 4, 3)},
        lambda t, n: sum_all(t, t.matmul(t.transpose(n["a"]), n["w"])),
    ),
    # one loss op over three logits nodes that share a parent and the labels
    "cross_entropy_three": (
        {"a": (5, 4), "b": (4, 2), "c": (4, 2)},
        lambda t, n: sum_all(t, t.cross_entropy_logits(
            [t.matmul(n["a"], n[k]) for k in "wbc"],
            t.input(np.array([0, 1, 1, 0, 1], dtype=np.intp)))),
    ),
}
# add and mul at equal shapes and at each broadcast the model uses: a bias
# row, a gate column, a sequence of length 1 and the attention scale; in the
# last row both operands broadcast
for op in ("add", "mul"):
    OPS[op] = elementwise(op, (3, 4), (3, 4))
    OPS[f"{op}_broadcast_row"] = elementwise(op, (3, 4), (1, 4))
    OPS[f"{op}_broadcast_column"] = elementwise(op, (3, 4), (3, 1))
    OPS[f"{op}_broadcast_sequence"] = elementwise(op, (2, 3, 4), (2, 1, 4))
    OPS[f"{op}_broadcast_scale"] = elementwise(op, (2, 3, 4), (1, 1, 1))
    OPS[f"{op}_broadcast_both"] = elementwise(op, (3, 1), (1, 4))

# rows of the reducing weight appended so per-entry gradients are informative
REDUCER_ROWS = {op: 4 for op in OPS if not op.startswith("matmul")}


@pytest.mark.parametrize("op", sorted(OPS))
def test_gradients_match_finite_differences(op):
    shapes, build = OPS[op]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        arrays = {k: uniform(rng, *shape) for k, shape in shapes.items()}
        if op in REDUCER_ROWS:
            arrays["w"] = uniform(rng, REDUCER_ROWS[op], 2)
        assert fd_worst_error(build, arrays) <= 1e-4


def test_cross_entropy_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        labels = rng.integers(0, 2, 5)
        arrays = {"a": uniform(rng, 5, 3), "w": uniform(rng, 3, 2)}
        build = lambda t, n: t.cross_entropy_logits([t.matmul(n["a"], n["w"])],
                                                    t.input(labels))
        assert fd_worst_error(build, arrays) <= 1e-4


# numpy sums 7 rows in order, 37 on 8 lanes and 300 pairwise
@pytest.mark.parametrize("m", [7, 37, 300])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_cross_entropy_over_k_nodes_matches_k_one_node_ops_bytewise(k, m):
    """One loss op over K logits nodes is a 1 x K row whose entry j is node j's
    mean loss, and gives node j its gradient, byte for byte as the one-node
    formulas of ``support.reference_cross_entropy`` give them; so does a replay
    on refilled logits and labels."""
    rng = np.random.default_rng(60 + k + m)
    values = [rng.normal(scale=4.0, size=(m, 2)) for _ in range(k)]
    labels = rng.integers(0, 2, m)
    t = Tape()
    nodes = [param(t, v) for v in values]
    root = t.cross_entropy_logits(nodes, t.input(labels))
    assert root.value.shape == (1, k)
    for step in range(2):
        if step:  # refill in place and replay, as train_step does
            for v in values:
                v[...] = rng.normal(scale=4.0, size=(m, 2))
            labels[...] = rng.integers(0, 2, m)
            assert t.replay() is root
            for node in nodes:
                node.grad.fill(0.0)
        t.backward(root)
        for j, v in enumerate(values):
            loss, grad = reference_cross_entropy(v, labels)
            assert root.value[0, j].tobytes() == loss.tobytes(), (step, j)
            assert nodes[j].grad.tobytes() == grad.tobytes(), (step, j)


def test_cross_entropy_refuses_logits_of_other_shapes():
    t = Tape()
    labels = t.input(np.array([0, 1]))
    pair = t.constant(np.zeros((2, 2)))
    with pytest.raises(DimensionError, match=r"^cross_entropy_logits: logits must be m x 2, "
                                             r"one m for all, got \(2, 2\), \(3, 2\)$"):
        t.cross_entropy_logits([pair, t.constant(np.zeros((3, 2)))], labels)
    with pytest.raises(DimensionError, match="got no node$"):
        t.cross_entropy_logits([], labels)


def test_composite_graph_gradient():
    # chain exercising most ops together; the relu layer feeds two consumers
    def build(t, n):
        s = t.softmax_rows(t.add(t.matmul(n["x"], n["w1"]), n["b1"]))
        h = t.dense(t.mean_rows(s), n["w2"], n["b2"], "relu")
        g = t.dense(h, n["w3"], n["b3"], "sigmoid")
        scaled = t.mul(t.concat_cols(g, h), n["alpha"])
        return sum_all(t, t.matmul(scaled, n["w4"]))

    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        arrays = {
            "x": uniform(rng, 2, 4, 3),
            "w1": uniform(rng, 3, 5),
            "b1": uniform(rng, 1, 1, 5),
            "w2": uniform(rng, 5, 3),
            "b2": uniform(rng, 1, 3),
            "w3": uniform(rng, 3, 3),
            "b3": uniform(rng, 1, 3),
            "alpha": uniform(rng, 1, 1),
            "w4": uniform(rng, 6, 2),
        }
        assert fd_worst_error(build, arrays) <= 1e-4


# -- backward mechanics -------------------------------------------------------


def test_backward_seeds_root_with_one():
    t = Tape()
    x = param(t, as_matrix([[2.0, 3.0]]))
    y = sum_all(t, x)
    t.backward(y)
    assert np.array_equal(y.grad, [[1.0]])
    assert np.array_equal(x.grad, [[1.0, 1.0]])


def test_gradients_accumulate_for_repeated_parent():
    t = Tape()
    x = param(t, as_matrix([[1.5]]))
    y = sum_all(t, t.add(x, x))
    t.backward(y)
    assert np.array_equal(x.grad, [[2.0]])
    # an op's repeated parent: both operands are handed the same array, which
    # the second contribution must not write into
    t = Tape()
    h = t.transpose(param(t, as_matrix([[1.5]])))
    s = t.add(h, h)
    t.backward(s)
    assert np.array_equal(s.grad, [[1.0]])
    assert np.array_equal(h.grad, [[2.0]])


def test_parameter_gradient_adds_into_the_callers_buffer():
    t = Tape()
    buffer = np.array([[10.0, -20.0]])
    x = t.parameter(as_matrix([[2.0, 3.0]]), buffer)
    y = sum_all(t, t.mul(x, x))
    t.backward(y)
    assert x.grad is buffer
    assert np.array_equal(buffer, [[14.0, -14.0]])
    assert t.replay() is y
    assert x.grad is buffer  # replay leaves a parameter's buffer to its caller
    t.backward(y)
    assert x.grad is buffer and np.array_equal(buffer, [[18.0, -8.0]])


# -- parameter writers -----------------------------------------------------------
# The last op recorded that reads a parameter once writes its gradient into
# the caller's zeroed buffer; every other reader adds. Each case names, per
# parameter, the node whose op should be its writer (None: no writer).


def shared_weight(t, n):
    """w and b read by two dense layers: the second writes, the first adds."""
    first = t.dense(n["x"], n["w"], n["b"], "relu")
    second = t.dense(first, n["w"], n["b"])
    return sum_all(t, t.matmul(second, n["v"])), {"x": first, "w": second, "b": second}


def dense_reads_w_twice(t, n):
    """dense(w, w, b): w is read twice by one op, which clears its mark."""
    out = t.dense(n["w"], n["w"], n["b"], "sigmoid")
    return sum_all(t, t.matmul(out, n["v"])), {"w": None, "b": out}


def matmul_reads_w_twice(t, n):
    """matmul(w, w), after a dense that read w once: the second op clears the mark."""
    first = t.dense(n["x"], n["w"], n["b"])
    square = t.matmul(n["w"], n["w"])
    loss = sum_all(t, t.add(t.matmul(first, n["v"]), t.matmul(square, n["v"])))
    return loss, {"w": None, "b": first}


def stack_after_dense(t, n):
    """w read by a dense layer, then by a stack-by-matrix product, which writes."""
    first = t.dense(n["x"], n["w"], n["b"])
    stacked = t.matmul(n["s"], n["w"])
    loss = sum_all(t, t.add(t.matmul(first, n["v"]), t.matmul(t.mean_rows(stacked), n["v"])))
    return loss, {"w": stacked, "b": first}


def dead_last_reader(t, n):
    """w's last reader is off the loss's path: it gets no gradient, so it never
    writes, and the earlier reader adds into the zeroed buffer."""
    live = t.dense(n["x"], n["w"], n["b"], "relu")
    dead = t.dense(n["x"], n["w"], n["b"])
    return sum_all(t, t.matmul(live, n["v"])), {"w": dead, "b": dead}


WRITER_CASES = {
    "shared_weight": (shared_weight, {"x": (4, 3), "w": (3, 3), "b": (1, 3), "v": (3, 2)}),
    "dense_reads_w_twice": (dense_reads_w_twice, {"w": (3, 3), "b": (1, 3), "v": (3, 2)}),
    "matmul_reads_w_twice": (matmul_reads_w_twice,
                             {"x": (3, 3), "w": (3, 3), "b": (1, 3), "v": (3, 2)}),
    "stack_after_dense": (stack_after_dense,
                          {"x": (4, 3), "s": (4, 3, 3), "w": (3, 3), "b": (1, 3), "v": (3, 2)}),
    "dead_last_reader": (dead_last_reader, {"x": (4, 3), "w": (3, 3), "b": (1, 3), "v": (3, 2)}),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_parameter_writers_match_adding_into_zeroed_buffers(case):
    """Gradients equal, bit for bit, those of the same graph with every writer
    mark cleared, where each contribution adds into the zeroed buffer, and
    after a replay too; finite differences check them. A written zero may be
    -0.0 where an added one is +0.0, so both sides add 0.0 before comparing."""
    build, shapes = WRITER_CASES[case]
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        arrays = {k: uniform(rng, *shape) for k, shape in shapes.items()}
        assert fd_worst_error(lambda t, n: build(t, n)[0], arrays) <= 1e-4
        runs = []
        for clear in (False, True):
            t = Tape()
            nodes = {k: param(t, v) for k, v in arrays.items()}
            loss, writers = build(t, nodes)
            for name, writer in writers.items():
                assert nodes[name].writer is (None if writer is None else writer.value), name
            for node in nodes.values() if clear else ():
                node.writer = None
            t.backward(loss)
            first = {k: n.grad + 0.0 for k, n in nodes.items()}
            t.replay()
            for node in nodes.values():
                node.grad.fill(0.0)
            t.backward(loss)
            runs.append((first, {k: n.grad + 0.0 for k, n in nodes.items()}))
        (written, written_replay), (added, added_replay) = runs
        for name in arrays:
            assert written[name].tobytes() == added[name].tobytes(), (seed, name)
            assert written_replay[name].tobytes() == written[name].tobytes(), (seed, name)
            assert added_replay[name].tobytes() == added[name].tobytes(), (seed, name)


def test_a_writer_writes_over_what_its_buffer_held():
    """The one reader of w and b writes their gradients: whatever the buffers
    held is gone. A parameter read twice adds into its buffer instead
    (test_parameter_gradient_adds_into_the_callers_buffer)."""
    t = Tape()
    x = t.input(as_matrix([[1.0, 2.0], [3.0, -1.0]]))
    w = t.parameter(as_matrix([[0.5], [-0.25]]), np.full((2, 1), 7.0))
    b = t.parameter(as_matrix([[0.125]]), np.full((1, 1), -7.0))
    t.backward(sum_all(t, t.dense(x, w, b)))
    assert np.array_equal(w.grad, [[4.0], [1.0]]) and np.array_equal(b.grad, [[2.0]])


def test_dot_matches_matmul_bitwise_at_backward_shapes():
    """Backward's 2-D products run through np.dot, forward ones through
    np.matmul; a gradient keeps the bits of its forward's products only while
    the two agree. Rows are a batch of 32 at L in {1, 3, 4, 9}; widths are the
    model's: 16 and 12 (data), 8 (d_c), 16 (2 * d_c, gate hidden), 32 and 2
    (classifier), 1 (a gate). Operands come transposed, as x.T @ g and
    g @ w.T on the tape, and as contiguous copies."""
    build = (f"numpy {np.__version__}, "
             f"BLAS {np.show_config(mode='dicts')['Build Dependencies']['blas']}")
    rng = np.random.default_rng(17)
    widths = (1, 2, 8, 12, 16, 32)
    for rows in (32, 96, 128, 288):
        for k in widths:
            for n in widths:
                x, g = rng.normal(size=(rows, k)), rng.normal(size=(rows, n))
                w = rng.normal(size=(k, n))
                for a, b in ((x.T, g), (x.T.copy(), g), (g, w.T), (g, w.T.copy())):
                    written = np.empty((a.shape[0], b.shape[1]))
                    np.dot(a, b, out=written)
                    expected = np.matmul(a, b).tobytes()
                    assert np.dot(a, b).tobytes() == expected == written.tobytes(), \
                        f"np.dot differs from np.matmul at {a.shape} x {b.shape} under {build}"


def test_backward_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        t = Tape()
        a = param(t, rng.normal(size=(4, 5)))
        b = param(t, rng.normal(size=(5, 3)))
        logits = t.matmul(t.softmax_rows(t.matmul(a, b)), t.constant(rng.normal(size=(3, 2))))
        out = t.cross_entropy_logits([logits], t.input(np.array([0, 1, 1, 0])))
        t.backward(out)
        return a.grad.copy(), b.grad.copy(), out.value.copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_unused_branches_get_no_gradient():
    t = Tape()
    x = param(t, as_matrix([[1.0]]))
    unused = param(t, as_matrix([[5.0]]))
    off_path = t.transpose(unused)  # on the tape, off the path
    y = sum_all(t, x)
    t.backward(y)
    assert np.array_equal(unused.grad, [[0.0]]) and off_path.grad is None


def handoff_graph(t, x, labels, w, bias, v):
    """One graph of each gradient path: ``h`` has one consumer, ``hb`` two
    (``add(hb, hb)``), ``bias`` broadcasts over batch and sequence, and
    ``mean_rows`` pools a sequence of 3; returns every node by name."""
    n = {"x": t.input(x), "w": param(t, w), "bias": param(t, bias), "v": param(t, v)}
    n["h"] = t.matmul(n["x"], n["w"])
    n["hb"] = t.add(n["h"], n["bias"])
    n["s"] = t.add(n["hb"], n["hb"])
    n["pooled"] = t.mean_rows(n["s"])
    n["logits"] = t.matmul(n["pooled"], n["v"])
    n["loss"] = t.cross_entropy_logits([n["logits"]], t.input(labels))
    return n


def test_replayed_gradients_match_a_fresh_tape_bytewise():
    """A tape replayed on new inputs and updated parameters gives every node
    the gradient a fresh tape gives it, byte for byte and of the node's own
    shape: a handed-over gradient is never a broadcastable stand-in, and no
    node's gradient is added into another's."""
    rng = np.random.default_rng(11)
    w, bias, v = rng.normal(size=(5, 3)), rng.normal(size=(1, 1, 3)), rng.normal(size=(3, 2))
    tape, replayed = Tape(), None
    x_in, labels_in = np.empty((4, 3, 5)), np.empty(4, dtype=np.intp)  # the tape's inputs
    for step in range(4):
        x, labels = rng.normal(size=(4, 3, 5)), rng.integers(0, 2, 4)
        x_in[...], labels_in[...] = x, labels  # refilled in place, as train_step does
        if replayed is None:
            replayed = handoff_graph(tape, x_in, labels_in, w, bias, v)
        else:
            tape.replay()
            for name in ("w", "bias", "v"):  # the caller zeroes its buffers, as training does
                replayed[name].grad.fill(0.0)
        tape.backward(replayed["loss"])
        fresh_tape = Tape()
        fresh = handoff_graph(fresh_tape, x, labels, w, bias, v)
        fresh_tape.backward(fresh["loss"])
        assert replayed["loss"].value.tobytes() == fresh["loss"].value.tobytes()
        for name, node in replayed.items():
            if fresh[name].grad is None:
                assert node.grad is None, name
                continue
            assert node.grad.shape == node.value.shape, name
            assert node.grad.tobytes() == fresh[name].grad.tobytes(), (step, name)
        for name in ("w", "bias", "v"):  # step the parameters in place, as training does
            replayed[name].value -= 0.1 * replayed[name].grad


def test_backward_runs_once_per_replay():
    t = Tape()
    x = param(t, as_matrix([[2.0, 3.0]]))
    y, other = sum_all(t, t.mul(x, x)), sum_all(t, x)
    with pytest.raises(UsageError):
        t.replay()  # nothing to replay before a backward
    t.backward(y)
    with pytest.raises(UsageError):
        t.backward(y)  # a second pass would add into gradients already handed over
    assert t.replay() is y
    with pytest.raises(UsageError):
        t.backward(other)  # only the recorded root replays
    x.grad.fill(0.0)  # the parameter's buffer is the caller's to zero
    t.backward(y)
    assert np.array_equal(x.grad, [[4.0, 6.0]])


def test_replay_refuses_a_tape_that_dropped_an_op():
    t = Tape()
    values = np.array([[0.5, -1.0]])
    x = t.input(values)
    w = param(t, as_matrix([[2.0], [3.0]]))
    squashed = t.mul(x, x)  # no gradient flows through it: computed, not kept
    y = sum_all(t, t.matmul(squashed, w))
    assert len(t) == 4  # x, w, matmul, sum_all
    t.backward(y)
    assert np.array_equal(w.grad, squashed.value.T)
    assert x.grad is None and squashed.grad is None
    values[...] = [[1.0, 2.0]]
    with pytest.raises(UsageError):
        t.replay()  # it would rerun the matmul on the old square of x


# -- error handling ----------------------------------------------------------


def test_shape_errors_name_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    b = t.constant(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as err:
        t.matmul(a, b)
    assert "(2, 3)" in str(err.value)
    for op in (t.add, t.mul):
        for other in ((3, 2), (1, 2), (3, 1), (2, 1, 3)):  # a size that is not 1 differs, or the rank
            with pytest.raises(DimensionError) as err:
                op(a, t.constant(np.zeros(other)))
            assert "(2, 3)" in str(err.value) and str(other) in str(err.value)
    with pytest.raises(DimensionError):
        t.concat_cols(a, t.constant(np.zeros((3, 3))))
    with pytest.raises(DimensionError):
        t.cross_entropy_logits([a], t.input(np.array([0, 1])))
    stack = t.constant(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        t.matmul(stack, t.constant(np.zeros((3, 4, 2))))  # batch sizes differ
    with pytest.raises(DimensionError):
        t.matmul(t.constant(np.zeros((3, 2))), t.constant(np.zeros((2, 2, 4))))
    with pytest.raises(DimensionError):
        t.add(stack, t.constant(np.zeros((2, 2, 4))))  # only length 1 broadcasts
    with pytest.raises(DimensionError, match=r"^mean_rows: needs a \(B, L, c\) stack, got \(2, 3\)$"):
        t.mean_rows(a)


def test_cross_entropy_rejects_bad_labels():
    t = Tape()
    logits = t.constant(np.zeros((2, 2)))
    with pytest.raises(InputError, match="^labels must be 0 or 1$"):
        t.cross_entropy_logits([logits], t.input(np.array([0, 2])))
    with pytest.raises(InputError, match=r"^labels must be a length-2 intp vector, got "
                                         rf"{np.dtype(np.intp)} of shape \(1,\)$"):
        t.cross_entropy_logits([logits], t.input(np.array([0], dtype=np.intp)))
    # labels of another dtype are refused, not converted: a replay reads the leaf's own array
    for other in (np.float64, np.int32, np.bool_):
        with pytest.raises(InputError, match=f"^labels must be a length-2 intp vector, "
                                             f"got {np.dtype(other)} of shape"):
            t.cross_entropy_logits([logits], t.input(np.array([0, 1], dtype=other)))


def test_backward_requires_scalar_root():
    """A root is one row: each entry is seeded with 1, the gradient of its sum."""
    t = Tape()
    x = param(t, np.ones((2, 2)))
    for root in (t.add(x, x), t.transpose(param(t, np.ones((1, 2))))):
        with pytest.raises(UsageError) as err:
            t.backward(root)
        assert str(err.value).endswith(f"got shape {root.shape}")
    row = param(t, np.arange(3.0).reshape(1, 3))
    t.backward(t.mul(row, row))
    assert np.array_equal(row.grad, [[0.0, 2.0, 4.0]])


def test_nodes_cannot_cross_tapes():
    t1, t2 = Tape(), Tape()
    a = t1.constant([[1.0]])
    with pytest.raises(UsageError):
        t2.transpose(a)
    orphan = Tape().constant([[1.0]])  # its tape is freed with the statement
    assert orphan.tape is None
    with pytest.raises(UsageError):
        t2.transpose(orphan)


def test_as_matrix_validation():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(InputError):
        as_matrix([[np.nan]])
    with pytest.raises(InputError):
        Tape().constant(np.full((2, 1, 3), np.inf))
    with pytest.raises(DimensionError):
        Tape().constant(np.zeros((2, 0, 3)))
    with pytest.raises(DimensionError):
        Tape().constant(np.zeros((1, 1, 1, 1)))


# -- finite_difference_check itself -------------------------------------------


def test_finite_difference_check_on_square():
    params = {"x": np.array([[3.0]])}
    analytic = {"x": np.array([[6.0]])}
    worst = finite_difference_check(lambda p: float(p["x"][0, 0] ** 2), params, analytic)
    assert worst < 1e-9
    assert params["x"][0, 0] == 3.0  # restored


def test_finite_difference_check_constant_function():
    params = {"x": np.array([[1.0, 2.0]])}
    analytic = {"x": np.zeros((1, 2))}
    assert finite_difference_check(lambda p: 4.0, params, analytic) == 0.0


def test_finite_difference_check_rejects_bad_step():
    with pytest.raises(InputError):
        finite_difference_check(lambda p: 0.0, {}, {}, step=0.0)
