"""Tests for the reverse-mode autodiff core.

Analytic gradients are checked against central finite differences, the
independent oracle for every op.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

from mmfuse.autodiff import Tape, as_matrix, finite_difference_check
from mmfuse.errors import DimensionError, InputError, UsageError


def fd_worst_error(build, arrays, step=1e-5):
    """Backprop through build(tape, nodes) and compare against central differences."""
    def f(params):
        t = Tape(grad=False)
        nodes = {k: t.parameter(v) for k, v in params.items()}
        return float(build(t, nodes).value[0, 0])

    tape = Tape()
    nodes = {k: tape.parameter(v) for k, v in arrays.items()}
    out = build(tape, nodes)
    tape.backward(out)
    grads = {
        k: (nodes[k].grad if nodes[k].grad is not None else np.zeros_like(v))
        for k, v in arrays.items()
    }
    return finite_difference_check(f, arrays, grads, step=step)


def uniform(rng, *shape, avoid_zero=False):
    a = rng.uniform(-2.0, 2.0, shape)
    if avoid_zero:
        # keep relu inputs away from the kink
        a = np.where(np.abs(a) < 1e-3, 0.5, a)
    return a


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
    assert np.array_equal(t.add_row_bias(a, bias).value, [[2.0, 1.0], [4.0, 3.0]])


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


def test_sigmoid_relu_values():
    t = Tape()
    x = t.constant([[0.0, -1.0, 50.0, -50.0]])
    s = t.sigmoid(x).value
    assert s[0, 0] == 0.5
    assert abs(s[0, 1] - 1.0 / (1.0 + math.exp(1.0))) < 1e-12
    assert 0.0 <= s[0, 3] < 1e-15 and 1.0 - 1e-15 < s[0, 2] <= 1.0
    assert np.array_equal(t.relu(x).value, [[0.0, 0.0, 50.0, 0.0]])


def test_scale_concat_mean_transpose_sum_values():
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(t.scale_by_scalar(a, t.constant([[2.0]])).value, [[2.0, 4.0], [6.0, 8.0]])
    assert np.array_equal(t.scale_rows(a, t.constant([[2.0], [10.0]])).value, [[2.0, 4.0], [30.0, 40.0]])
    b = t.constant([[5.0], [6.0]])
    assert np.array_equal(t.concat_cols(a, b).value, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
    assert np.array_equal(t.mean_rows(a).value, [[2.0, 3.0]])
    assert np.array_equal(t.transpose(a).value, [[1.0, 3.0], [2.0, 4.0]])
    assert t.sum_all(a).value[0, 0] == 10.0


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
    t = Tape(grad=False)
    hidden = t.sigmoid(t.constant(np.ones((2, 3, 4))))
    value = weakref.ref(hidden.value)
    out = t.relu(hidden)
    del hidden
    assert value() is None
    assert len(t) == 0 and out.value.shape == (2, 3, 4)


def test_cross_entropy_values():
    t = Tape()
    even = t.cross_entropy_logits(t.constant([[0.0, 0.0]]), [1])
    assert abs(even.value[0, 0] - math.log(2.0)) <= 1e-15
    confident = t.cross_entropy_logits(t.constant([[100.0, -100.0]]), [0])
    assert confident.value[0, 0] == 0.0
    wrong = t.cross_entropy_logits(t.constant([[100.0, -100.0]]), [1])
    assert wrong.value[0, 0] == 200.0
    # mean over rows
    pair = t.cross_entropy_logits(t.constant([[0.0, 0.0], [0.0, 0.0]]), [0, 1])
    assert abs(pair.value[0, 0] - math.log(2.0)) <= 1e-15


# -- gradients against finite differences ------------------------------------


OPS = {
    "matmul": (
        {"a": (3, 4), "b": (4, 2)},
        lambda t, n: t.sum_all(t.matmul(n["a"], n["b"])),
    ),
    "add": (
        {"a": (3, 4), "b": (3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.add(n["a"], n["b"]), n["w"])),
    ),
    "add_row_bias": (
        {"a": (3, 4), "bias": (1, 4)},
        lambda t, n: t.sum_all(t.matmul(t.add_row_bias(n["a"], n["bias"]), n["w"])),
    ),
    "softmax_rows": (
        {"a": (3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.softmax_rows(n["a"]), n["w"])),
    ),
    "sigmoid": (
        {"a": (3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.sigmoid(n["a"]), n["w"])),
    ),
    "relu": (
        {"a": (3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.relu(n["a"]), n["w"])),
    ),
    "scale_by_scalar": (
        {"a": (3, 4), "s": (1, 1)},
        lambda t, n: t.sum_all(t.matmul(t.scale_by_scalar(n["a"], n["s"]), n["w"])),
    ),
    "scale_rows": (
        {"a": (3, 4), "s": (3, 1)},
        lambda t, n: t.sum_all(t.matmul(t.scale_rows(n["a"], n["s"]), n["w"])),
    ),
    "concat_cols": (
        {"a": (3, 2), "b": (3, 2)},
        lambda t, n: t.sum_all(t.matmul(t.concat_cols(n["a"], n["b"]), n["w"])),
    ),
    "mean_rows": (
        {"a": (5, 4)},
        lambda t, n: t.sum_all(t.matmul(t.mean_rows(n["a"]), n["w"])),
    ),
    "transpose": (
        {"a": (4, 3)},
        lambda t, n: t.sum_all(t.matmul(t.transpose(n["a"]), n["w"])),
    ),
    # (B, L, d) stacks
    "matmul_stack_by_matrix": (
        {"a": (2, 3, 4), "b": (4, 2)},
        lambda t, n: t.sum_all(t.matmul(n["a"], n["b"])),
    ),
    "matmul_stack_by_stack": (
        {"a": (2, 3, 4), "b": (2, 4, 2)},
        lambda t, n: t.sum_all(t.matmul(n["a"], n["b"])),
    ),
    "add_broadcast_sequence": (
        {"a": (2, 3, 4), "b": (2, 1, 4)},
        lambda t, n: t.sum_all(t.matmul(t.add(n["a"], n["b"]), n["w"])),
    ),
    "softmax_stack": (
        {"a": (2, 3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.softmax_rows(n["a"]), n["w"])),
    ),
    "mean_rows_stack": (
        {"a": (2, 3, 4)},
        lambda t, n: t.sum_all(t.matmul(t.mean_rows(n["a"]), n["w"])),
    ),
    "transpose_stack": (
        {"a": (2, 4, 3)},
        lambda t, n: t.sum_all(t.matmul(t.transpose(n["a"]), n["w"])),
    ),
}


# rows of the reducing weight appended so per-entry gradients are informative
REDUCER_ROWS = {
    "add": 4, "add_row_bias": 4, "softmax_rows": 4, "sigmoid": 4, "relu": 4,
    "scale_by_scalar": 4, "scale_rows": 4, "concat_cols": 4, "mean_rows": 4,
    "transpose": 4, "add_broadcast_sequence": 4, "softmax_stack": 4,
    "mean_rows_stack": 4, "transpose_stack": 4,
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_gradients_match_finite_differences(op):
    shapes, build = OPS[op]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        arrays = {k: uniform(rng, *shape, avoid_zero=(op == "relu")) for k, shape in shapes.items()}
        if op in REDUCER_ROWS:
            arrays["w"] = uniform(rng, REDUCER_ROWS[op], 2)
        assert fd_worst_error(build, arrays) <= 1e-4


def test_cross_entropy_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        labels = rng.integers(0, 2, 5)
        arrays = {"a": uniform(rng, 5, 3), "w": uniform(rng, 3, 2)}
        build = lambda t, n: t.cross_entropy_logits(t.matmul(n["a"], n["w"]), labels)
        assert fd_worst_error(build, arrays) <= 1e-4


def test_composite_graph_gradient():
    # chain exercising most ops together
    def build(t, n):
        h = t.relu(t.add_row_bias(t.matmul(n["x"], n["w1"]), n["b1"]))
        s = t.softmax_rows(h)
        g = t.sigmoid(t.matmul(t.mean_rows(s), n["w2"]))
        scaled = t.scale_rows(t.concat_cols(g, g), n["alpha"])
        return t.sum_all(t.matmul(scaled, n["w3"]))

    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        arrays = {
            "x": uniform(rng, 4, 3),
            "w1": uniform(rng, 3, 5),
            "b1": uniform(rng, 1, 5),
            "w2": uniform(rng, 5, 3),
            "alpha": uniform(rng, 1, 1),
            "w3": uniform(rng, 6, 2),
        }
        assert fd_worst_error(build, arrays) <= 1e-4


# -- backward mechanics -------------------------------------------------------


def test_backward_seeds_root_with_one():
    t = Tape()
    x = t.parameter([[2.0, 3.0]])
    y = t.sum_all(x)
    t.backward(y)
    assert np.array_equal(y.grad, [[1.0]])
    assert np.array_equal(x.grad, [[1.0, 1.0]])


def test_gradients_accumulate_for_repeated_parent():
    t = Tape()
    x = t.parameter([[1.5]])
    y = t.sum_all(t.add(x, x))
    t.backward(y)
    assert np.array_equal(x.grad, [[2.0]])


def test_backward_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        t = Tape()
        a = t.parameter(rng.normal(size=(4, 5)))
        b = t.parameter(rng.normal(size=(5, 3)))
        out = t.cross_entropy_logits(t.matmul(t.softmax_rows(t.matmul(a, b)), t.constant(rng.normal(size=(3, 2)))), [0, 1, 1, 0])
        t.backward(out)
        return a.grad.copy(), b.grad.copy(), out.value.copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_unused_branches_get_no_gradient():
    t = Tape()
    x = t.parameter([[1.0]])
    unused = t.parameter([[5.0]])
    t.sigmoid(unused)  # on the tape, off the path
    y = t.sum_all(x)
    t.backward(y)
    assert unused.grad is None


# -- error handling ----------------------------------------------------------


def test_shape_errors_name_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    b = t.constant(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as err:
        t.matmul(a, b)
    assert "(2, 3)" in str(err.value)
    with pytest.raises(DimensionError):
        t.add(a, t.constant(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        t.add_row_bias(a, t.constant(np.zeros((1, 2))))
    with pytest.raises(DimensionError):
        t.scale_by_scalar(a, t.constant(np.zeros((2, 1))))
    with pytest.raises(DimensionError):
        t.scale_rows(a, t.constant(np.zeros((3, 1))))
    with pytest.raises(DimensionError):
        t.concat_cols(a, t.constant(np.zeros((3, 3))))
    with pytest.raises(DimensionError):
        t.cross_entropy_logits(a, [0, 1])
    stack = t.constant(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        t.matmul(stack, t.constant(np.zeros((3, 4, 2))))  # batch sizes differ
    with pytest.raises(DimensionError):
        t.matmul(t.constant(np.zeros((3, 2))), t.constant(np.zeros((2, 2, 4))))
    with pytest.raises(DimensionError):
        t.add(stack, t.constant(np.zeros((2, 2, 4))))  # only length 1 broadcasts


def test_cross_entropy_rejects_bad_labels():
    t = Tape()
    logits = t.constant(np.zeros((2, 2)))
    with pytest.raises(InputError):
        t.cross_entropy_logits(logits, [0, 2])
    with pytest.raises(InputError):
        t.cross_entropy_logits(logits, [0])


def test_backward_requires_scalar_root():
    t = Tape()
    x = t.parameter(np.ones((2, 2)))
    with pytest.raises(UsageError):
        t.backward(t.add(x, x))


def test_backward_rejected_on_no_grad_tape():
    t = Tape(grad=False)
    x = t.parameter(np.ones((1, 1)))
    with pytest.raises(UsageError):
        t.backward(x)


def test_nodes_cannot_cross_tapes():
    t1, t2 = Tape(), Tape()
    a = t1.constant([[1.0]])
    with pytest.raises(UsageError):
        t2.sigmoid(a)


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
