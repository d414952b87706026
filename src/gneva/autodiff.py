"""Reverse-accumulation gradients over a fixed operator set.

A `Var` wraps a numpy array and remembers how it was produced; `backward`
walks the recorded graph once in reverse topological order. The operator
set is exactly what the encoders and the spatial loss need (linear algebra,
activations, pooling, concatenation, softmax, log-sum-exp,
log-gamma/digamma); there is no general graph capture beyond it.

Gradients flow only through nodes marked as needing them: tape leaves set
`needs_grad`, constants do not, and each operator records one callback per
differentiable input, so constant branches cost nothing in the backward
pass.

Trainable parameters live in a `ParamTape`: named flat float64 arrays with
matching gradient accumulators. A forward pass starts from `tape.leaves()`
and `accumulate_grads` folds leaf gradients back into the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import special_math
from .errors import ShapeMismatch


class Var:
    """Array-valued node of the gradient graph."""

    __slots__ = ("value", "grad", "parents", "vjps", "needs_grad")

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

    def __matmul__(self, other):
        return matmul(self, as_var(other))

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
    live = tuple((p, fn) for p, fn in edges if p.needs_grad)
    if live:
        out.parents = tuple(p for p, _ in live)
        out.vjps = tuple(fn for _, fn in live)
        out.needs_grad = True
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
    return _result(
        a.value @ b.value,
        (a, lambda g: g @ b.value.T),
        (b, lambda g: a.value.T @ g),
    )


def transpose(a: Var) -> Var:
    return _result(a.value.T, (a, lambda g: g.T))


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
    indices = np.asarray(indices, dtype=int)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, indices, g)
        return full

    return _result(a.value[indices], (a, vjp))


def vsum(a: Var, axis=None, keepdims: bool = False) -> Var:
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.value.shape)

    return _result(a.value.sum(axis=axis, keepdims=keepdims), (a, vjp))


def vmean(a: Var, axis=None, keepdims: bool = False) -> Var:
    count = a.value.size if axis is None else a.value.shape[axis]
    return vsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def max_along(a: Var, axis: int, keepdims: bool = False) -> Var:
    """Max over one axis; the gradient flows to the first argmax only."""
    out_val = a.value.max(axis=axis, keepdims=keepdims)
    argmax = a.value.argmax(axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        full = np.zeros_like(a.value)
        np.put_along_axis(full, np.expand_dims(argmax, axis), gg, axis=axis)
        return full

    return _result(out_val, (a, vjp))


def relu(a: Var) -> Var:
    mask = a.value > 0.0
    return _result(np.maximum(a.value, 0.0), (a, lambda g: g * mask))


def softplus(a: Var) -> Var:
    # log(1 + exp(x)) computed without overflow; derivative is the sigmoid.
    x = a.value
    out_val = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _result(out_val, (a, lambda g: g * sig))


def vexp(a: Var) -> Var:
    e = np.exp(a.value)
    return _result(e, (a, lambda g: g * e))


def vlog(a: Var) -> Var:
    return _result(np.log(a.value), (a, lambda g: g / a.value))


def vsqrt(a: Var) -> Var:
    r = np.sqrt(a.value)
    return _result(r, (a, lambda g: g * (0.5 / r)))


def square(a: Var) -> Var:
    return mul(a, a)


def softmax(a: Var, axis: int = -1) -> Var:
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - inner)

    return _result(y, (a, vjp))


def logsumexp(a: Var) -> Var:
    """log sum exp over every entry; the vjp is the softmax of `a`."""
    out = special_math.log_sum_exp(a.value)
    return _result(np.asarray(out), (a, lambda g: g * np.exp(a.value - out)))


def lgamma(a: Var) -> Var:
    return _result(special_math.log_gamma(a.value), (a, lambda g: g * special_math.digamma(a.value)))


def digamma(a: Var) -> Var:
    return _result(special_math.digamma(a.value), (a, lambda g: g * special_math.trigamma(a.value)))


def linear(x: Var, w: Var, b: Var) -> Var:
    return add(matmul(x, w), b)


def layer_norm(x: Var, gain: Var, offset: Var, eps: float = 1e-5) -> Var:
    """Normalize the last axis to zero mean and unit variance, then affine.

    Fused into one node: the closed-form vjp is much cheaper than the
    composition of primitive ops it replaces.
    """
    mu = x.value.mean(axis=-1, keepdims=True)
    centered = x.value - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_sigma
    value = xhat * gain.value + offset.value

    def vjp_x(g):
        gxhat = g * gain.value
        term = gxhat - gxhat.mean(axis=-1, keepdims=True)
        term -= xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        return term * inv_sigma

    def vjp_gain(g):
        return _unbroadcast(g * xhat, gain.value.shape)

    def vjp_offset(g):
        return _unbroadcast(g, offset.value.shape)

    return _result(value, (x, vjp_x), (gain, vjp_gain), (offset, vjp_offset))


def backward(root: Var) -> None:
    """Fill `.grad` on every needs-grad node reachable from the scalar root."""
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
            if parent.grad is None:
                # Copy: vjp outputs may alias g or internal buffers.
                parent.grad = np.array(contribution, dtype=float)
            else:
                parent.grad += contribution


class ParamTape:
    """Named trainable parameter arrays with paired gradient accumulators."""

    def __init__(self, rng_seed: int = 0):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.rng_seed = int(rng_seed)

    def add_param(self, name: str, value: np.ndarray) -> None:
        if name in self.params:
            raise ShapeMismatch(f"duplicate parameter name {name!r}")
        arr = np.array(value, dtype=float)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    def leaves(self) -> dict[str, Var]:
        """Fresh leaf nodes viewing the current parameter values."""
        return {name: leaf(value) for name, value in self.params.items()}

    def accumulate_grads(self, leaves: Mapping[str, Var]) -> None:
        for name, leaf_var in leaves.items():
            if leaf_var.grad is not None:
                self.grads[name] += leaf_var.grad

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def copy(self) -> "ParamTape":
        out = ParamTape(self.rng_seed)
        for name, value in self.params.items():
            out.add_param(name, value.copy())
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
    analytic = {
        name: (lv.grad if lv.grad is not None else np.zeros_like(lv.value))
        for name, lv in leaves.items()
    }

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
