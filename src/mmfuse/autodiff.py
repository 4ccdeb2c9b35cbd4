"""Reverse-mode automatic differentiation over dense float64 arrays.

Values are matrices or ``(B, L, d)`` stacks of them: B sequences of L
rows each. Stack-by-matrix products run as one ``(B*L, d)`` gemm,
stack-by-stack products multiply matching sequences, softmax normalises
over the last axis, and ``mean_rows`` pools a stack over its sequence
axis. Operations append Node objects to a Tape in creation order;
``Tape.backward`` walks that list in reverse, so gradient accumulation
follows one fixed order and repeated runs produce bitwise identical
results. Softmax and cross-entropy are stabilized (max subtraction,
log-sum-exp), which keeps every output finite for finite inputs.

Gradients accumulate into ``Node.grad``; run one backward pass per tape,
or zero the grads yourself before reusing one.
"""

from __future__ import annotations

from typing import Callable

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


def _accum(node: "Node", contribution: Array) -> None:
    if node.grad is None:
        # ops produce C-ordered values, so this matches zeros_like at a
        # third of its call overhead
        node.grad = np.zeros(node.value.shape)
    node.grad += contribution  # in place: a preset grad may be a view into a caller's buffer


class Node:
    """One value in a computation graph, plus its accumulated gradient."""

    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "tape", "_backward")

    def __init__(self, value: Array, op: str, parents: tuple, requires_grad: bool, tape: "Tape"):
        self.value = value
        self.grad: Array | None = None
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        self.tape = tape
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of graph nodes; owns the backward traversal.

    ``Tape(grad=False)`` builds a value-only graph with no backward
    closures, which is cheaper for pure evaluation (e.g. finite-difference
    probes and inference). It keeps no node list and its nodes keep no
    parents, so intermediates are freed as soon as nothing refers to them.
    """

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._nodes: list[Node] = []

    def __len__(self) -> int:  # perfbench reads it as the nodes per training step
        return len(self._nodes)

    # -- leaf construction ------------------------------------------------

    def constant(self, values, *, name: str = "constant") -> Node:
        """A leaf without gradient: a matrix or a (B, L, d) stack."""
        return self._node(as_matrix(values, name=name, stack=np.ndim(values) == 3),
                          "constant", ())

    def parameter(self, value: Array) -> Node:
        """A leaf that receives gradients (when the tape records them); the
        float64 array is taken as it is, without checks or a copy."""
        node = Node(value, "parameter", (), self.grad_enabled, self)
        if self.grad_enabled:
            self._nodes.append(node)
        return node

    # -- internals ---------------------------------------------------------

    def _node(self, value: Array, op: str, parents: tuple) -> Node:
        if not self.grad_enabled:
            return Node(value, op, (), False, self)
        requires = any(p.requires_grad for p in parents)
        node = Node(value, op, parents, requires, self)
        self._nodes.append(node)
        return node

    def _own(self, *nodes: Node) -> None:
        for n in nodes:
            if n.tape is not self:
                raise UsageError(f"node from a different tape passed to {type(self).__name__} op")

    # -- operations ----------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        """Matrix product. A (B, L, d) stack times a (d, c) matrix runs as one
        (B*L, d) gemm; a stack times a (B, d, c) stack multiplies each
        sequence by its own matrix."""
        self._own(a, b)
        av, bv = a.value, b.value
        if av.shape[-1] != bv.shape[-2] or (bv.ndim == 3 and (av.ndim, len(av)) != (3, len(bv))):
            raise DimensionError(f"matmul: inner dimensions disagree, {av.shape} x {bv.shape}")
        if av.ndim > bv.ndim:  # a stack times a matrix: one gemm over the stacked rows
            a2 = av.reshape(-1, av.shape[-1])
            out = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[1:])
        else:
            a2, out = None, av @ bv
        node = self._node(out, "matmul", (a, b))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a2 is not None:
                    g2 = g.reshape(-1, g.shape[-1])
                    if a.requires_grad:
                        _accum(a, (g2 @ bv.T).reshape(av.shape))
                    if b.requires_grad:
                        _accum(b, a2.T @ g2)
                    return
                if a.requires_grad:
                    _accum(a, g @ bv.swapaxes(-1, -2))
                if b.requires_grad:
                    _accum(b, av.swapaxes(-1, -2) @ g)
            node._backward = backward
        return node

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum. Between two stacks, an operand whose sequence
        axis has length 1 is broadcast over the other's sequence."""
        self._own(a, b)
        a_shape, b_shape = a.value.shape, b.value.shape
        seq_broadcast = (len(a_shape) == len(b_shape) == 3 and a_shape[::2] == b_shape[::2]
                         and 1 in (a_shape[1], b_shape[1]))
        if a_shape != b_shape and not seq_broadcast:
            raise DimensionError(f"add: shapes disagree, {a_shape} vs {b_shape}")
        node = self._node(a.value + b.value, "add", (a, b))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a.requires_grad:
                    _accum(a, g if g.shape == a_shape else g.sum(axis=1, keepdims=True))
                if b.requires_grad:
                    _accum(b, g if g.shape == b_shape else g.sum(axis=1, keepdims=True))
            node._backward = backward
        return node

    def add_row_bias(self, a: Node, bias: Node) -> Node:
        """Add a 1 x n bias row to every row of an m x n matrix."""
        self._own(a, bias)
        if bias.value.shape != (1, a.value.shape[1]):
            raise DimensionError(
                f"add_row_bias: bias must be 1x{a.value.shape[1]}, got {bias.value.shape}"
            )
        node = self._node(a.value + bias.value, "add_row_bias", (a, bias))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a.requires_grad:
                    _accum(a, g)
                if bias.requires_grad:
                    _accum(bias, g.sum(axis=0, keepdims=True))
            node._backward = backward
        return node

    def softmax_rows(self, a: Node) -> Node:
        """Softmax over the last axis."""
        self._own(a)
        z = a.value - a.value.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=-1, keepdims=True)
        node = self._node(out, "softmax_rows", (a,))
        if node.requires_grad:
            def backward(g: Array) -> None:
                # ds/dx through a row softmax: s * (g - <g, s>)
                inner = (g * out).sum(axis=-1, keepdims=True)
                _accum(a, out * (g - inner))
            node._backward = backward
        return node

    def sigmoid(self, a: Node) -> Node:
        self._own(a)
        # tanh form is stable for large |x| and exact at 0
        out = 0.5 * (1.0 + np.tanh(0.5 * a.value))
        node = self._node(out, "sigmoid", (a,))
        if node.requires_grad:
            def backward(g: Array) -> None:
                _accum(a, g * out * (1.0 - out))
            node._backward = backward
        return node

    def relu(self, a: Node) -> Node:
        self._own(a)
        node = self._node(np.maximum(a.value, 0.0), "relu", (a,))
        if node.requires_grad:
            def backward(g: Array) -> None:
                _accum(a, g * (a.value > 0.0))
            node._backward = backward
        return node

    def scale_by_scalar(self, a: Node, s: Node) -> Node:
        """Multiply every entry of a by the single entry of a 1x1 node."""
        self._own(a, s)
        if s.value.shape != (1, 1):
            raise DimensionError(f"scale_by_scalar: scale must be 1x1, got {s.value.shape}")
        sval = s.value[0, 0]
        node = self._node(a.value * sval, "scale_by_scalar", (a, s))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a.requires_grad:
                    _accum(a, g * sval)
                if s.requires_grad:
                    _accum(s, np.array([[np.vdot(a.value, g)]]))
            node._backward = backward
        return node

    def scale_rows(self, a: Node, s: Node) -> Node:
        """Multiply row i of an m x n matrix by entry i of an m x 1 column."""
        self._own(a, s)
        if s.value.shape != (a.value.shape[0], 1):
            raise DimensionError(
                f"scale_rows: scale must be {a.value.shape[0]}x1, got {s.value.shape}"
            )
        node = self._node(a.value * s.value, "scale_rows", (a, s))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a.requires_grad:
                    _accum(a, g * s.value)
                if s.requires_grad:
                    _accum(s, (a.value * g).sum(axis=1, keepdims=True))
            node._backward = backward
        return node

    def concat_cols(self, a: Node, b: Node) -> Node:
        self._own(a, b)
        if a.value.shape[0] != b.value.shape[0]:
            raise DimensionError(
                f"concat_cols: row counts disagree, {a.value.shape} vs {b.value.shape}"
            )
        p = a.value.shape[1]
        node = self._node(np.concatenate((a.value, b.value), axis=1), "concat_cols", (a, b))
        if node.requires_grad:
            def backward(g: Array) -> None:
                if a.requires_grad:
                    _accum(a, g[:, :p])
                if b.requires_grad:
                    _accum(b, g[:, p:])
            node._backward = backward
        return node

    def mean_rows(self, a: Node) -> Node:
        """Mean over the sequence axis: (B, L, c) -> (B, c); a single
        (L, c) sequence gives 1 x c."""
        self._own(a)
        shape = a.value.shape
        m = shape[-2]
        # sum then divide by the count, as ndarray.mean does, without its overhead
        out = (np.add.reduce(a.value, axis=-2) / m).reshape(-1, shape[-1])
        node = self._node(out, "mean_rows", (a,))
        if node.requires_grad:
            def backward(g: Array) -> None:
                # the grad buffer broadcasts the pooled gradient over the sequence
                _accum(a, (g / m).reshape(shape[:-2] + (1, shape[-1])))
            node._backward = backward
        return node

    def transpose(self, a: Node) -> Node:
        """Swap the last two axes."""
        self._own(a)
        node = self._node(a.value.swapaxes(-1, -2).copy(), "transpose", (a,))
        if node.requires_grad:
            def backward(g: Array) -> None:
                _accum(a, g.swapaxes(-1, -2))
            node._backward = backward
        return node

    def cross_entropy_logits(self, logits: Node, labels) -> Node:
        """Mean negative log-likelihood of two-class logits: m x 2 -> 1 x 1."""
        self._own(logits)
        if logits.value.shape[1] != 2:
            raise DimensionError(
                f"cross_entropy_logits: logits must be m x 2, got {logits.value.shape}"
            )
        m = logits.value.shape[0]
        lab = np.asarray(labels)
        if lab.shape != (m,):
            raise InputError(f"labels must be a length-{m} sequence, got shape {lab.shape}")
        if not ((lab == 0) | (lab == 1)).all():
            raise InputError("labels must be 0 or 1")
        lab = lab.astype(np.intp)

        z = logits.value - logits.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        sum_e = e.sum(axis=1, keepdims=True)
        rows = np.arange(m)
        log_probs = z - np.log(sum_e)
        loss = -log_probs[rows, lab].mean()
        node = self._node(np.array([[loss]]), "cross_entropy_logits", (logits,))
        if node.requires_grad:
            probs = e / sum_e
            def backward(g: Array) -> None:
                # d loss / d logits = (softmax - onehot) / m
                scale = g[0, 0] / m
                d = probs * scale
                d[rows, lab] -= scale
                _accum(logits, d)
            node._backward = backward
        return node

    # -- traversal -------------------------------------------------------

    def backward(self, root: Node) -> None:
        """Seed the root with gradient 1 and propagate through the tape."""
        self._own(root)
        if not self.grad_enabled:
            raise UsageError("backward on a tape created with grad=False")
        if root.value.shape != (1, 1):
            raise UsageError(f"backward root must be 1x1, got shape {root.value.shape}")
        _accum(root, np.ones((1, 1)))
        for node in reversed(self._nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
