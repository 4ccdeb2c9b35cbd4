"""Reverse-mode automatic differentiation over dense float64 arrays.

Values are matrices or ``(B, L, d)`` stacks of them: B sequences of L
rows each. Stack-by-matrix products run as one ``(B*L, d)`` gemm,
stack-by-stack products multiply matching sequences, ``dense`` is a
layer (product, bias row, optional relu or sigmoid), softmax normalises
over the last axis, and ``mean_rows`` pools a stack over its sequence
axis. The elementwise ``add`` and ``mul`` broadcast an operand's length-1
axes, and sum its gradient back over them. Softmax and cross-entropy (K
logits nodes' mean losses as one 1 x K row) are stabilized (max
subtraction, log-sum-exp), which keeps every output finite for finite inputs.

Each operation is one record: an output buffer (for a length-1 mean, a
view of the input) and a forward function that fills it, run once when
the op is called. As in PyTorch autograd, the tape keeps an op only when
a parent needs a gradient; an op on ``input`` and ``constant`` leaves
alone keeps nothing. Ownership runs one way: a tape holds its kept ops,
and a node holds its tape only weakly, so reference counting frees each
value and tape once nothing refers to it.
``Tape.backward`` seeds a one-row root with ones, the gradient of the
row's sum, and walks the kept ops in reverse, so gradients follow one
fixed order and repeated runs are bitwise identical. A parameter's gradient
goes into its caller's zeroed buffer: the last op recorded that reads it
once, which backward reaches first, writes its contribution there if it is
a ``dense`` or stack-by-matrix product; every other contribution adds. Any
other node keeps its first contribution as it is and sums later ones into a
new array, so no handed-over array is written. Backward's 2-D products run
through ``np.dot``, faster there than ``np.matmul`` with equal bits
(README). ``Tape.replay`` reruns the kept forwards, in their buffers, on
whatever the ``input`` arrays now hold (the caller refills them in place)
and drops their gradients; it refuses a tape that dropped an op.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InputError, UsageError

Array = np.ndarray


def as_matrix(values, *, name: str = "matrix", stack: bool = False) -> Array:
    """Coerce to a finite float64 matrix, or with stack=True a (B, L, d) stack; no empty axis."""
    arr = np.asarray(values, dtype=np.float64)
    ndim = 3 if stack else 2
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise DimensionError(f"{name} must have no empty axis, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _broadcast(op: str, a: "Node", b: "Node") -> tuple[tuple, tuple, tuple]:
    """The one shape rule of the elementwise ops: equal ranks and, on each
    axis, equal sizes or a size of 1. Returns the output shape and, for each
    operand, the axes it is broadcast over, which its gradient sums over."""
    a_shape, b_shape = a.value.shape, b.value.shape
    if a_shape == b_shape:
        return a_shape, (), ()
    # one plain loop: eager forward passes run this for every add and mul
    shape, a_axes, b_axes = list(a_shape), [], []
    if len(a_shape) == len(b_shape):
        for k, (m, n) in enumerate(zip(a_shape, b_shape)):
            if m == 1 != n:
                shape[k] = n
                a_axes.append(k)
            elif n == 1 != m:
                b_axes.append(k)
            elif m != n:
                break
        else:
            return tuple(shape), tuple(a_axes), tuple(b_axes)
    raise DimensionError(f"{op}: shapes do not broadcast, {a_shape} vs {b_shape}")


def _unbroadcast(g: Array, axes: tuple) -> Array:
    return np.add.reduce(g, axis=axes, keepdims=True) if axes else g


def _give(node: "Node", contribution: Array) -> None:
    """Pass ``node`` a consumer's contribution, of its full shape. A parameter
    adds it into its caller's buffer unless it was written there; any other
    node keeps the first as it is and sums later ones into a new array."""
    if node.op == "parameter":
        if contribution is not node.grad:
            node.grad += contribution
    elif node.grad is None:
        node.grad = contribution
    else:
        node.grad = node.grad + contribution


def _written(node: "Node", out: Array) -> Array | None:
    """``node``'s buffer if the op with output ``out`` is its writer, else None."""
    return node.grad if node.writer is out else None


class Node:
    """One value in a computation graph, plus its gradient."""

    __slots__ = ("value", "grad", "op", "requires_grad", "owner", "writer")

    def __init__(self, value: Array, op: str, requires_grad: bool, tape: "Tape"):
        self.value = value
        self.grad: Array | None = None
        self.op = op
        self.requires_grad = requires_grad
        self.owner = tape._ref  # weak: a tape holds what it records, never the other way
        self.writer: Array | None = None  # a parameter's: the output buffer of its writer op

    @property
    def tape(self) -> "Tape | None":  # None once the tape is freed
        return self.owner()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Ordered record of graph nodes; owns the backward traversal and replay.

    Pure evaluation (finite-difference probes, inference) enters its arrays
    as ``input`` or ``constant`` leaves, so the tape keeps no op. The tape
    holds its kept ops alone; their nodes point back at it weakly, so it is
    freed, with the arrays they read, when it goes.
    """

    def __init__(self):
        self._ref = weakref.ref(self)  # the one reference its nodes hold
        self._leaves = 0
        self.root: Node | None = None  # of the first backward; what replay recomputes
        self._dropped = False  # an op was computed but not kept, so replay would skip it
        self._steps: list[tuple] = []  # (forward, backward, node, out) per kept op

    def __len__(self) -> int:  # perfbench reads it as the nodes per training step
        return self._leaves + len(self._steps)

    # -- leaf construction ------------------------------------------------

    def constant(self, values, *, name: str = "constant") -> Node:
        """A leaf without gradient: a matrix or a (B, L, d) stack."""
        return self._leaf(as_matrix(values, name=name, stack=np.ndim(values) == 3), "constant")

    def parameter(self, value: Array, grad: Array) -> Node:
        """A leaf whose gradient goes into ``grad``, a C-contiguous float64 buffer
        of its shape that the caller owns and zeroes before each backward. The
        last op recorded that reads it once writes there if it is a ``dense`` or
        stack-by-matrix product; other contributions add. Taken unchecked."""
        node = self._leaf(value, "parameter", requires_grad=True)
        node.grad = grad
        return node

    def input(self, values: Array) -> Node:
        """A leaf without gradient for data the caller has checked, taken as
        it is (no copy, no finite scan): a replay reads what it holds then."""
        return self._leaf(values, "input")

    # -- internals ---------------------------------------------------------

    def _leaf(self, value: Array, op: str, requires_grad: bool = False) -> Node:
        node = Node(value, op, requires_grad, self)
        if value.dtype.kind == "f":  # integer labels index values
            self._leaves += 1
        return node

    def _record(self, shape: tuple, op: str, parents: tuple, forward: Callable[[Array], None],
                backward: Callable[[Array, Array], None]) -> Node:
        """One op: allocate its output buffer and run ``forward(out)`` into it
        once. If a parent needs a gradient, keep the node, its forward for
        replay and ``backward(g, out)``; otherwise keep nothing."""
        out = np.empty(shape)
        forward(out)
        for p in parents:  # a later reader takes over as writer; reading twice clears it
            if p.op == "parameter":
                p.writer = out if parents.count(p) == 1 else None
        return self._keep(Node(out, op, any(p.requires_grad for p in parents), self),
                          forward, backward, out)

    def _keep(self, node: Node, forward: Callable, backward: Callable, out: Array | None) -> Node:
        if node.requires_grad:
            self._steps.append((forward, backward, node, out))
        self._dropped |= not node.requires_grad
        return node

    def _own(self, *nodes: Node) -> None:
        for n in nodes:
            if n.owner is not self._ref:
                raise UsageError(f"node from a different tape passed to {type(self).__name__} op")

    # -- operations ----------------------------------------------------------
    # Forward and backward functions read their parents' values when they
    # run, not when they are made, so a replay sees the current inputs.

    def matmul(self, a: Node, b: Node) -> Node:
        """Matrix product. A (B, L, d) stack times a (d, c) matrix runs as one
        (B*L, d) gemm; a stack times a (B, d, c) stack multiplies each
        sequence by its own matrix."""
        self._own(a, b)
        av, bv = a.value, b.value
        if av.shape[-1] != bv.shape[-2] or (bv.ndim == 3 and (av.ndim, len(av)) != (3, len(bv))):
            raise DimensionError(f"matmul: inner dimensions disagree, {av.shape} x {bv.shape}")
        d, c = bv.shape[-2:]
        shape = av.shape[:-1] + (c,)
        stacked = av.ndim > bv.ndim  # a stack times a matrix: one gemm over the stacked rows
        a_rows, out_rows = ((-1, d), (-1, c)) if stacked else (av.shape, shape)

        def backward(g: Array, out: Array) -> None:
            av, bv = a.value, b.value
            if stacked:
                g2 = g.reshape(-1, c)
                if a.requires_grad:
                    _give(a, np.dot(g2, bv.T).reshape(av.shape))
                if b.requires_grad:
                    _give(b, np.dot(av.reshape(-1, d).T, g2, out=_written(b, out)))
                return
            if a.requires_grad:
                _give(a, g @ bv.swapaxes(-1, -2))
            if b.requires_grad:
                _give(b, av.swapaxes(-1, -2) @ g)
        return self._record(shape, "matmul", (a, b), lambda out: np.matmul(
            a.value.reshape(a_rows), b.value, out=out.reshape(out_rows)), backward)

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum, broadcasting length-1 axes (see ``_broadcast``)."""
        self._own(a, b)
        shape, a_axes, b_axes = _broadcast("add", a, b)

        def backward(g: Array, out: Array) -> None:
            if a.requires_grad:
                _give(a, _unbroadcast(g, a_axes))
            if b.requires_grad:
                _give(b, _unbroadcast(g, b_axes))
        return self._record(shape, "add", (a, b),
                            lambda out: np.add(a.value, b.value, out=out), backward)

    def mul(self, a: Node, b: Node) -> Node:
        """Elementwise product, broadcasting length-1 axes (see ``_broadcast``)."""
        self._own(a, b)
        shape, a_axes, b_axes = _broadcast("mul", a, b)

        def backward(g: Array, out: Array) -> None:
            if a.requires_grad:
                _give(a, _unbroadcast(g * b.value, a_axes))
            if b.requires_grad:
                _give(b, _unbroadcast(g * a.value, b_axes))
        return self._record(shape, "mul", (a, b),
                            lambda out: np.multiply(a.value, b.value, out=out), backward)

    def softmax_rows(self, a: Node) -> Node:
        """Softmax over the last axis."""
        self._own(a)

        def forward(out: Array) -> None:
            v = a.value  # row max from a sequence-major copy: fast, and exact in any order
            top = np.maximum.reduce(v.reshape(-1, v.shape[-1]).T.copy(), axis=0)
            e = np.exp(v - top.reshape(v.shape[:-1] + (1,)))
            np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)

        def backward(g: Array, out: Array) -> None:
            # ds/dx through a row softmax: s * (g - <g, s>)
            inner = np.add.reduce(g * out, axis=-1, keepdims=True)
            _give(a, out * (g - inner))
        return self._record(a.value.shape, "softmax_rows", (a,), forward, backward)

    def dense(self, x: Node, w: Node, b: Node, act: str | None = None) -> Node:
        """One layer, ``act(x @ w + b)`` for a matrix x, a (1, c) bias row and act
        None, "relu" or "sigmoid", as one record: the bias and the activation run
        in place in the product's buffer, which gives the activation's derivative."""
        self._own(x, w, b)
        xs, ws, bs = x.value.shape, w.value.shape, b.value.shape
        if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0] or bs != (1, ws[1]):
            raise DimensionError(f"dense: shapes disagree, {xs} x {ws} + {bs}")
        if act not in (None, "relu", "sigmoid"):
            raise UsageError(f"dense: unknown activation {act!r}")

        def forward(out: Array) -> None:
            np.add(np.matmul(x.value, w.value, out=out), b.value, out=out)
            if act == "relu":
                np.maximum(out, 0.0, out=out)
            elif act == "sigmoid":  # 0.5 * (1 + tanh(x / 2)): stable for large |x|, exact at 0
                np.add(np.tanh(np.multiply(out, 0.5, out=out), out=out), 1.0, out=out)
                np.multiply(out, 0.5, out=out)

        def backward(g: Array, out: Array) -> None:
            if act == "relu":  # out > 0 exactly where x @ w + b > 0
                g = g * (out > 0.0)
            elif act == "sigmoid":
                g = g * out * (1.0 - out)
            if b.requires_grad:  # bias, x, w: the order of separate matmul, add and act ops
                _give(b, np.add.reduce(g, axis=0, keepdims=True, out=_written(b, out)))
            if x.requires_grad:
                _give(x, np.dot(g, w.value.T, out=_written(x, out)))
            if w.requires_grad:
                _give(w, np.dot(x.value.T, g, out=_written(w, out)))
        return self._record((xs[0], ws[1]), "dense", (x, w, b), forward, backward)

    def concat_cols(self, a: Node, b: Node) -> Node:
        self._own(a, b)
        if a.value.shape[0] != b.value.shape[0]:
            raise DimensionError(
                f"concat_cols: row counts disagree, {a.value.shape} vs {b.value.shape}"
            )
        p = a.value.shape[1]

        def backward(g: Array, out: Array) -> None:
            if a.requires_grad:
                _give(a, g[:, :p])
            if b.requires_grad:
                _give(b, g[:, p:])
        return self._record((a.value.shape[0], p + b.value.shape[1]), "concat_cols", (a, b),
                            lambda out: np.concatenate((a.value, b.value), axis=1, out=out),
                            backward)

    def mean_rows(self, a: Node) -> Node:
        """Mean over the sequence axis: (B, L, c) -> (B, c). At L = 1 that is the
        one row: a view of the input, with no buffer, which replay takes again."""
        self._own(a)
        if a.value.ndim != 3:
            raise DimensionError(f"mean_rows: needs a (B, L, c) stack, got {a.value.shape}")
        n, m, c = a.value.shape
        if m == 1:
            node = Node(a.value.reshape(n, c), "mean_rows", a.requires_grad, self)
            # contiguous, as the divide gave: a strided gradient changes gemm bits at d_c = 1
            return self._keep(node, lambda out: setattr(node, "value", a.value.reshape(n, c)),
                              lambda g, out: _give(a, np.ascontiguousarray(g).reshape(n, 1, c)), None)
        # sum then divide by the count, as ndarray.mean does, without its overhead;
        # the pooled gradient is repeated over the sequence to the input's full shape
        return self._record((n, c), "mean_rows", (a,),
                            lambda out: np.divide(np.add.reduce(a.value, axis=1), m, out=out),
                            lambda g, out: _give(a, (g / m).reshape(n, 1, c).repeat(m, axis=1)))

    def transpose(self, a: Node) -> Node:
        """Swap the last two axes."""
        self._own(a)
        return self._record(a.value.swapaxes(-1, -2).shape, "transpose", (a,),
                            lambda out: np.copyto(out, a.value.swapaxes(-1, -2)),
                            lambda g, out: _give(a, g.swapaxes(-1, -2)))

    def cross_entropy_logits(self, logits: Sequence[Node], labels: Node) -> Node:
        """Mean negative log-likelihood of each of K m x 2 two-class logits nodes, as
        entry k of a 1 x K row; backward gives node j the gradient it gets alone,
        scaled by the row's gradient at j. ``labels`` is an ``input`` leaf of an
        intp 0/1 class per row, shared by all, which a replay reads as it then is."""
        self._own(labels, *logits)
        shapes = [n.value.shape for n in logits]
        k, m = len(logits), shapes[0][0] if shapes else 0
        if not shapes or any(shape != (m, 2) for shape in shapes):
            raise DimensionError("cross_entropy_logits: logits must be m x 2, one m for all, "
                                 f"got {', '.join(map(str, shapes)) or 'no node'}")
        lab = labels.value
        if lab.dtype != np.intp or lab.shape != (m,):
            raise InputError(f"labels must be a length-{m} intp vector, "
                             f"got {lab.dtype} of shape {lab.shape}")
        if not ((lab == 0) | (lab == 1)).all():
            raise InputError("labels must be 0 or 1")
        rows = np.arange(k * m).reshape(k, m)  # each node's rows of the stacked buffer
        stacked = np.empty((k * m, 2))  # every node's rows: each op serves all
        probs = np.empty((k * m, 2)) if any(n.requires_grad for n in logits) else None

        def forward(out: Array) -> None:
            v = np.concatenate([n.value for n in logits], out=stacked)
            # two columns: the row max and the row sum are one elementwise op each
            z = v - np.maximum(v[:, 0], v[:, 1]).reshape(k * m, 1)
            e = np.exp(z)
            sum_e = np.add(e[:, 0], e[:, 1]).reshape(k * m, 1)
            log_probs = z - np.log(sum_e)
            # each node's picks a C-ordered row, summed as a lone vector; x / -m is -(x / m)
            np.divide(np.add.reduce(log_probs[rows, labels.value], axis=1), -m, out=out[0])
            if probs is not None:
                np.divide(e, sum_e, out=probs)

        def backward(g: Array, out: Array) -> None:
            # d loss_j / d logits_j = (softmax - onehot) / m, each node's in its slice
            scale = g.reshape(k, 1) / m
            d = probs.reshape(k, m, 2) * scale.reshape(k, 1, 1)
            # ufunc.at: cheaper than a fancy -=, and each entry once
            np.subtract.at(d.reshape(k * m, 2), (rows, labels.value), scale)
            for j, node in enumerate(logits):
                if node.requires_grad:
                    _give(node, d[j])
        return self._record((1, k), "cross_entropy_logits", tuple(logits), forward, backward)

    # -- traversal -------------------------------------------------------

    def backward(self, root: Node) -> None:
        """Seed a one-row root with ones (its sum's gradient) and propagate: once
        per tape, then once per ``replay`` from the same root. Parameter
        gradients go into buffers the caller zeroes first (see ``parameter``)."""
        self._own(root)
        if root.value.ndim != 2 or len(root.value) != 1:
            raise UsageError(f"backward root must be one row, 1 x K, got shape {root.value.shape}")
        if root.grad is not None or self.root not in (None, root):
            raise UsageError("backward runs once per tape, then once per replay from its root")
        self.root = root
        root.grad = np.ones_like(root.value)
        for _, backward, node, out in reversed(self._steps):
            if node.grad is not None:
                backward(node.grad, out)

    def replay(self) -> Node:
        """Rerun every recorded op in order into its own buffer and drop its
        gradient, so the next backward fills them as the last one did;
        return its root. Parameter buffers are left to the caller."""
        if self.root is None:
            raise UsageError("replay needs a tape that has run backward")
        if self._dropped:
            raise UsageError("replay needs a tape that kept every op; "
                             "an op that needed no gradient was not kept")
        for forward, _, node, out in self._steps:
            forward(out)
            node.grad = None
        return self.root
