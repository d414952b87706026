"""Reverse-accumulation gradients over a fixed operator set.

A `Var` wraps a numpy array and remembers how it was produced; `backward`
walks the recorded graph once in reverse topological order. The operator
set is exactly what the encoders and the spatial loss need (linear algebra
over leading batch axes, activations, segment max-pooling, row gathers,
concatenation, masked softmax, log-sum-exp, log-gamma/digamma); there is
no general graph capture beyond it.

Gradients flow only through nodes marked as needing them: tape leaves set
`needs_grad`, constants do not, and each operator records one callback per
differentiable input, so constant branches cost nothing in the backward
pass.

Trainable parameters live in a `ParamTape`: named float64 arrays and
nothing else. A forward pass starts from `tape.leaves()`; after `backward`,
`leaf_gradients(leaves)` maps each name to its leaf's gradient, and that
mapping is the step's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import special_math
from .errors import ShapeMismatch

LAYER_NORM_EPS = 1e-5  # added to each row's variance in `layer_norm`


class Var:
    """Array-valued node of the gradient graph."""

    __slots__ = ("value", "grad", "parents", "vjps", "needs_grad")
    __array_ufunc__ = None  # `array - var` defers to Var.__rsub__ instead of looping over the array

    def __init__(self, value, needs_grad: bool = False):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=float)
        self.grad = None
        self.parents = ()
        self.vjps = ()
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, needs_grad={self.needs_grad})"

    def __add__(self, other):
        return add(self, as_var(other))

    def __radd__(self, other):
        return add(as_var(other), self)

    def __sub__(self, other):
        return sub(self, as_var(other))

    def __rsub__(self, other):
        return sub(as_var(other), self)

    def __mul__(self, other):
        return mul(self, as_var(other))

    def __rmul__(self, other):
        return mul(as_var(other), self)

    def __truediv__(self, other):
        return div(self, as_var(other))

    def __rtruediv__(self, other):
        return div(as_var(other), self)

    def __neg__(self):
        return neg(self)


def leaf(value) -> Var:
    """A differentiable input; `backward` will fill its `.grad`."""
    return Var(value, needs_grad=True)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _result(value, *edges) -> Var:
    """Build an op output from (parent, vjp) pairs, keeping only live edges."""
    out = Var(value)
    parents, vjps = [], []
    for p, fn in edges:
        if p.needs_grad:
            parents.append(p)
            vjps.append(fn)
    if parents:
        out.parents, out.vjps, out.needs_grad = tuple(parents), tuple(vjps), True
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Var, b: Var) -> Var:
    return _result(
        a.value + b.value,
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a: Var, b: Var) -> Var:
    return _result(
        a.value - b.value,
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    )


def mul(a: Var, b: Var) -> Var:
    return _result(
        a.value * b.value,
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    )


def div(a: Var, b: Var) -> Var:
    return _result(
        a.value / b.value,
        (a, lambda g: _unbroadcast(g / b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)),
    )


def neg(a: Var) -> Var:
    return _result(-a.value, (a, lambda g: -g))


def matmul(a: Var, b: Var) -> Var:
    """a @ b with numpy's broadcasting over leading batch axes; `linear` is the shared-weight product."""
    av, bv = a.value, b.value
    return _result(
        av @ bv,
        (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)),
    )


def swapaxes(a: Var, axis1: int, axis2: int) -> Var:
    return _result(
        np.swapaxes(a.value, axis1, axis2), (a, lambda g: np.swapaxes(g, axis1, axis2))
    )


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return _result(a.value.reshape(shape), (a, lambda g: g.reshape(old)))


def concat(parts: list[Var], axis: int = 0) -> Var:
    parts = [as_var(p) for p in parts]
    value = np.concatenate([p.value for p in parts], axis=axis)
    edges = []
    offset = 0
    for p in parts:
        size = p.value.shape[axis]
        index = [slice(None)] * value.ndim
        index[axis] = slice(offset, offset + size)
        edges.append((p, lambda g, idx=tuple(index): g[idx]))
        offset += size
    return _result(value, *edges)


def narrow(a: Var, axis: int, start: int, length: int) -> Var:
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        full = np.zeros_like(a.value)
        full[index] = g
        return full

    return _result(a.value[index], (a, vjp))


def take_rows(a: Var, indices) -> Var:
    """Rows of `a` gathered by an integer array of any shape; repeated rows accumulate."""
    indices = np.asarray(indices, dtype=int)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, indices, g)
        return full

    return _result(a.value[indices], (a, vjp))


def vsum(a: Var, axis=None) -> Var:
    def vjp(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.value.shape)

    return _result(a.value.sum(axis=axis), (a, vjp))


def vmean(a: Var) -> Var:
    """Mean over all entries."""
    return vsum(a) * (1.0 / a.value.size)


def segment_max(a: Var, starts) -> Var:
    """Column-wise max over the row segments [starts[i], starts[i + 1]) of a 2-D node.

    Segments must be non-empty and `starts` increasing from 0. The gradient
    of each output entry flows to the first row that attains the max.
    """
    starts = np.asarray(starts, dtype=np.intp)
    x = a.value
    n, width = x.shape
    out_val = np.maximum.reduceat(x, starts, axis=0)

    def vjp(g):
        # Each segment's rows padded to the longest: the first True down a column is its first argmax.
        lengths = np.diff(starts, append=n)
        segment = np.repeat(np.arange(starts.size), lengths)
        at_max = np.zeros((starts.size, lengths.max(), width), dtype=bool)
        at_max[segment, np.arange(n) - starts[segment]] = x == out_val[segment]
        first = starts[:, None] + at_max.argmax(axis=1)
        full = np.zeros_like(x)
        full[first, np.arange(width)] = g
        return full

    return _result(out_val, (a, vjp))


def relu(a: Var) -> Var:
    return _result(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0.0)))


def softplus(a: Var) -> Var:
    # log(1 + exp(x)) computed without overflow; derivative is the sigmoid.
    x = a.value
    e = np.exp(-np.abs(x))
    out_val = np.log1p(e)
    out_val += np.maximum(x, 0.0)

    def vjp(g):
        sig = np.where(x >= 0.0, 1.0, e)
        sig /= 1.0 + e
        sig *= g
        return sig

    return _result(out_val, (a, vjp))


def vlog(a: Var) -> Var:
    return _result(np.log(a.value), (a, lambda g: g / a.value))


def square(a: Var) -> Var:
    return mul(a, a)


def softmax(a: Var, mask=None) -> Var:
    """Softmax along the last axis; where a boolean `mask` (broadcast to `a`) is False the probability is 0.

    Every softmax slice needs at least one unmasked entry.
    """
    x = a.value if mask is None else np.where(mask, a.value, -np.inf)
    y = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=None if mask is None else x)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)

    def vjp(g):
        out = g * y
        inner = np.add.reduce(out, axis=-1, keepdims=True)
        np.subtract(g, inner, out=out)
        out *= y
        return out

    return _result(y, (a, vjp))


def logsumexp(a: Var) -> Var:
    """log sum exp along the last axis, kept as a length-1 axis; the vjp is the softmax of `a`."""
    out = special_math.log_sum_exp(a.value, axis=-1)[..., None]
    return _result(out, (a, lambda g: g * np.exp(a.value - out)))


def lgamma(a: Var) -> Var:
    return _result(special_math.log_gamma(a.value), (a, lambda g: g * special_math.digamma(a.value)))


def digamma(a: Var) -> Var:
    return _result(special_math.digamma(a.value), (a, lambda g: g * special_math.trigamma(a.value)))


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """x @ w (+ b) as one node: x (..., k), a shared w (k, m) and an optional b (m,).

    One (rows, k) @ (k, m) product over every leading axis of x, the bias
    added in place; the gradient of w sums over all of them.
    """
    xv, wv = x.value, w.value
    k, m = wv.shape
    rows = xv.reshape(-1, k)
    value = rows @ wv
    edges = [
        (x, lambda g: (g.reshape(-1, m) @ wv.T).reshape(xv.shape)),
        (w, lambda g: rows.T @ g.reshape(-1, m)),
    ]
    if b is not None:
        value += b.value
        edges.append((b, lambda g: _unbroadcast(g, b.value.shape)))
    return _result(value.reshape(xv.shape[:-1] + (m,)), *edges)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept: the sum-then-divide of `ndarray.mean` without its Python wrapper."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    out /= a.shape[-1]
    return out


def layer_norm(x: Var, gain: Var, offset: Var) -> Var:
    """Normalize the last axis to zero mean and unit variance, then affine.

    Fused into one node: the closed-form vjp is much cheaper than the
    composition of primitive ops it replaces. The forward and the vjp of x
    work in arrays they own, in the order of operations of the plain
    formulas, so they round exactly as those do.
    """
    xhat = x.value - _row_mean(x.value)
    value = xhat * xhat
    inv_sigma = _row_mean(value)
    inv_sigma += LAYER_NORM_EPS
    np.sqrt(inv_sigma, out=inv_sigma)
    np.divide(1.0, inv_sigma, out=inv_sigma)
    xhat *= inv_sigma
    np.multiply(xhat, gain.value, out=value)
    value += offset.value

    def vjp_x(g):
        term = g * gain.value
        scratch = term * xhat
        inner = _row_mean(scratch)
        term -= _row_mean(term)
        np.multiply(xhat, inner, out=scratch)
        term -= scratch
        term *= inv_sigma
        return term

    def vjp_gain(g):
        return _unbroadcast(g * xhat, gain.value.shape)

    def vjp_offset(g):
        return _unbroadcast(g, offset.value.shape)

    return _result(value, (x, vjp_x), (gain, vjp_gain), (offset, vjp_offset))


def backward(root: Var) -> None:
    """Fill `.grad` on every needs-grad leaf reachable from the scalar root.

    An interior node's gradient is released once its vjps have run, so
    only leaves (nodes without parents) hold a gradient afterwards.
    Gradients may share memory with each other and with node values; read
    them, do not write to them.
    """
    if root.value.size != 1:
        raise ShapeMismatch(f"backward needs a scalar root, got shape {root.value.shape}")
    if not root.needs_grad:
        return
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contribution = vjp(g)
            # Never in place: vjp outputs may alias g, other gradients or values.
            parent.grad = contribution if parent.grad is None else parent.grad + contribution
        if node.parents:
            node.grad = None


def leaf_gradients(leaves: Mapping[str, Var]) -> dict[str, np.ndarray]:
    """Each leaf's gradient after `backward`, zeros for a leaf the loss does not reach; read-only."""
    return {name: lv.grad if lv.grad is not None else np.zeros_like(lv.value) for name, lv in leaves.items()}


class ParamTape:
    """Named trainable parameter arrays."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def add_param(self, name: str, value: np.ndarray) -> None:
        if name in self.params:
            raise ShapeMismatch(f"duplicate parameter name {name!r}")
        self.params[name] = np.array(value, dtype=float)

    def leaves(self) -> dict[str, Var]:
        """Fresh leaf nodes viewing the current parameter values."""
        return {name: leaf(value) for name, value in self.params.items()}

    def constants(self) -> dict[str, Var]:
        """Constant nodes viewing the current parameter values; a forward on them records no graph."""
        return {name: Var(value) for name, value in self.params.items()}

    def copy(self) -> "ParamTape":
        out = ParamTape()
        for name, value in self.params.items():
            out.add_param(name, value)  # add_param copies
        return out


@dataclass
class GradientCheckFailure:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradientCheckReport:
    """Outcome of comparing tape gradients against central differences."""

    max_rel_error: float
    n_checked: int
    tolerance: float
    failures: list[GradientCheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_gradients(
    tape: ParamTape,
    loss_fn: Callable[[Mapping[str, Var]], Var],
    tolerance: float = 1e-4,
    n_samples: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare reverse-accumulated gradients with central finite differences.

    Samples at least `n_samples` parameter entries (all of them when the
    tape is smaller), perturbs each by +-step, and reports the relative
    error |a - n| / (|a| + |n| + 1e-8) against the analytic gradient.
    """
    leaves = tape.leaves()
    loss = loss_fn(leaves)
    backward(loss)
    analytic = leaf_gradients(leaves)

    entries = [(name, i) for name, p in tape.params.items() for i in range(p.size)]
    rng = np.random.default_rng(seed)
    if len(entries) > n_samples:
        chosen = rng.choice(len(entries), size=n_samples, replace=False)
        entries = [entries[i] for i in chosen]

    failures = []
    max_rel = 0.0
    for name, idx in entries:
        flat = tape.params[name].reshape(-1)
        original = flat[idx]
        flat[idx] = original + step
        up = float(loss_fn(tape.leaves()).value)
        flat[idx] = original - step
        down = float(loss_fn(tape.leaves()).value)
        flat[idx] = original
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name].reshape(-1)[idx])
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-8)
        max_rel = max(max_rel, rel)
        if rel > tolerance:
            failures.append(GradientCheckFailure(name, idx, a, numeric, rel))
    return GradientCheckReport(
        max_rel_error=max_rel, n_checked=len(entries), tolerance=tolerance, failures=failures
    )
