import numpy as np
import pytest

from gneva import autodiff as ad
from gneva.autodiff import ParamTape, Var, backward, check_gradients, leaf


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return g


def analytic_grad(op, x):
    v = leaf(x.copy())
    backward(op(v))
    return v.grad


_CONST = np.random.default_rng(100)
_W = _CONST.normal(size=(4, 5))  # a weight shared by every batch entry
_X = _CONST.normal(size=(2, 3, 4))
_B = _CONST.normal(size=(2, 3, 5, 2))  # a batched right operand
_ROWS = np.array([[0, 2, 2], [1, 0, 2]])  # a 2-D gather that repeats rows
_MASK = np.array([[True, False, True, True, False]] * 2 + [[False, False, False, True, False]])

OPS = {
    "matmul_shared_weight_lhs": (lambda v: ad.matmul(v, Var(_W)), lambda rng: rng.normal(size=(2, 3, 4))),
    "matmul_shared_weight_rhs": (lambda v: ad.matmul(Var(_X), v), lambda rng: rng.normal(size=(4, 5))),
    "matmul_batched_lhs": (lambda v: ad.matmul(v, Var(_B)), lambda rng: rng.normal(size=(2, 3, 4, 5))),
    "matmul_batched_rhs": (lambda v: ad.matmul(Var(_X[:, None]), v), lambda rng: rng.normal(size=(2, 3, 4, 6))),
    "swapaxes": (lambda v: ad.swapaxes(v, -3, -1), lambda rng: rng.normal(size=(2, 3, 4))),
    "take_rows_2d": (lambda v: ad.take_rows(v, _ROWS), lambda rng: rng.normal(size=(3, 4))),
    "segment_max": (lambda v: ad.segment_max(v, [0, 2, 3]), lambda rng: rng.normal(size=(6, 4))),
    "masked_softmax": (lambda v: ad.softmax(v, mask=_MASK), lambda rng: rng.normal(size=(3, 5))),
    "logsumexp_rows": (ad.logsumexp, lambda rng: rng.normal(size=(3, 5), scale=3.0)),
    "relu": (ad.relu, lambda rng: rng.normal(size=(4, 5)) + 0.05),
    "softplus": (ad.softplus, lambda rng: rng.normal(size=(3, 4), scale=3.0)),
    "log": (ad.vlog, lambda rng: rng.uniform(0.2, 4.0, size=6)),
    "softmax": (ad.softmax, lambda rng: rng.normal(size=(3, 5))),
    "logsumexp": (ad.logsumexp, lambda rng: rng.normal(size=6, scale=3.0)),
    "lgamma": (ad.lgamma, lambda rng: rng.uniform(0.7, 9.0, size=5)),
    "digamma": (ad.digamma, lambda rng: rng.uniform(0.7, 9.0, size=5)),
}


class TestElementwiseOps:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_gradient_matches_finite_difference(self, name):
        op, make = OPS[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        x = make(rng)
        weights = rng.normal(size=op(Var(x)).value.shape)

        def scalar_op(v):
            return ad.vsum(ad.mul(op(v), Var(weights)))

        a = analytic_grad(scalar_op, x.copy())
        n = numeric_grad(lambda arr: float(scalar_op(Var(arr)).value), x.copy())
        assert a == pytest.approx(n, rel=1e-5, abs=1e-7)


class TestStructuralOps:
    def test_matmul_gradients(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        va, vb = leaf(a.copy()), leaf(b.copy())
        backward(ad.vsum(ad.mul(ad.matmul(va, vb), Var(w))))
        na = numeric_grad(lambda x: float((x @ b * w).sum()), a.copy())
        nb = numeric_grad(lambda x: float((a @ x * w).sum()), b.copy())
        assert va.grad == pytest.approx(na, rel=1e-6)
        assert vb.grad == pytest.approx(nb, rel=1e-6)

    def test_broadcast_add_unbroadcasts(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        bias = rng.normal(size=3)
        vx, vb = leaf(x), leaf(bias)
        backward(ad.vsum(ad.add(vx, vb)))
        assert vb.grad == pytest.approx(np.full(3, 5.0))
        assert vx.grad == pytest.approx(np.ones((5, 3)))

    def test_concat_and_narrow_roundtrip(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        va, vb = leaf(a), leaf(b)
        joined = ad.concat([va, vb], axis=0)
        part = ad.narrow(joined, 0, 1, 3)
        backward(ad.vsum(part))
        expected_a = np.zeros((2, 3))
        expected_a[1:] = 1.0
        expected_b = np.zeros((4, 3))
        expected_b[:2] = 1.0
        assert va.grad == pytest.approx(expected_a)
        assert vb.grad == pytest.approx(expected_b)

    def test_take_rows_accumulates_duplicates(self):
        x = leaf(np.arange(6.0).reshape(3, 2))
        out = ad.take_rows(x, [0, 0, 2])
        backward(ad.vsum(out))
        assert x.grad == pytest.approx(np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]))

    def test_segment_max_routes_to_first_argmax(self):
        x = leaf(np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 0.0], [4.0, -1.0]]))
        out = ad.segment_max(x, [0, 2, 3])
        assert np.array_equal(out.value, [[3.0, 5.0], [2.0, 0.0], [4.0, -1.0]])
        backward(ad.vsum(out))
        assert x.grad == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))

    def test_segment_max_gradient_matches_the_reduceat_formula(self):
        # The former vjp, written out: each column's first argmax by an integer where and a min-reduceat.
        def reference(x, starts, g):
            n, width = x.shape
            out = np.maximum.reduceat(x, starts, axis=0)
            segment = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
            rows = np.where(x == out[segment], np.arange(n)[:, None], n)
            full = np.zeros_like(x)
            full[np.minimum.reduceat(rows, starts, axis=0), np.arange(width)] = g
            return full

        rng = np.random.default_rng(23)
        for case in range(300):
            lengths = rng.integers(1, 12, size=rng.integers(1, 20))
            shape = (int(lengths.sum()), int(rng.integers(1, 9)))
            # Every other case draws small integers, so a segment often holds its max more than once.
            value = rng.integers(-3, 3, size=shape).astype(float) if case % 2 else rng.normal(size=shape)
            starts = np.cumsum(np.r_[0, lengths[:-1]])
            x = leaf(value)
            out = ad.segment_max(x, starts)
            g = rng.normal(size=out.value.shape)
            backward(ad.vsum(ad.mul(out, Var(g))))
            assert np.array_equal(x.grad, reference(value, starts, g)), case

    def test_masked_softmax_gives_masked_entries_no_mass(self):
        x = leaf(np.array([[1.0, 50.0, 2.0], [0.5, 3.0, -1.0]]))
        mask = np.array([True, False, True])
        y = ad.softmax(x, mask=mask)
        assert np.array_equal(y.value[:, 1], [0.0, 0.0])
        assert np.allclose(y.value[:, [0, 2]], ad.softmax(Var(x.value[:, [0, 2]])).value, atol=1e-15)
        backward(ad.vsum(ad.mul(y, Var(np.arange(6.0).reshape(2, 3)))))
        assert np.array_equal(x.grad[:, 1], [0.0, 0.0])

    def test_backward_keeps_only_leaf_gradients(self):
        x = leaf(np.array([1.0, 2.0]))
        hidden = ad.mul(x, x)
        backward(ad.vsum(hidden))
        assert hidden.grad is None
        assert x.grad == pytest.approx(np.array([2.0, 4.0]))

    def test_mean_and_reshape(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        backward(ad.vmean(ad.reshape(x, (12,))))
        assert x.grad == pytest.approx(np.full((3, 4), 1.0 / 12.0))

    def test_reused_node_accumulates(self):
        x = leaf(np.array(3.0))
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 7
        backward(y)
        assert x.grad == pytest.approx(np.array(7.0))


class TestLayerNorm:
    def test_output_statistics(self):
        rng = np.random.default_rng(3)
        x = Var(rng.normal(size=(4, 16), scale=3.0))
        out = ad.layer_norm(x, Var(np.ones(16)), Var(np.zeros(16)))
        assert np.allclose(out.value.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.value.std(axis=1), 1.0, atol=1e-3)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 8))
        gain = rng.normal(size=8)
        offset = rng.normal(size=8)
        w = rng.normal(size=(3, 8))

        def f(arrs):
            vx, vg, vo = (leaf(a) for a in arrs)
            node = ad.vsum(ad.mul(ad.layer_norm(vx, vg, vo), Var(w)))
            return node, (vx, vg, vo)

        node, (vx, vg, vo) = f((x.copy(), gain.copy(), offset.copy()))
        backward(node)
        for arr, var, pos in ((x, vx, 0), (gain, vg, 1), (offset, vo, 2)):
            def scalar(a, pos=pos):
                arrs = [x.copy(), gain.copy(), offset.copy()]
                arrs[pos] = a
                return float(f(arrs)[0].value)

            n = numeric_grad(scalar, arr.copy())
            assert var.grad == pytest.approx(n, rel=1e-5, abs=1e-8)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: array_equal that also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def tape_grads(op, *arrays, g):
    """Value of op(*leaves) and each leaf's gradient for the upstream gradient g."""
    leaves = [leaf(a.copy()) for a in arrays]
    out = op(*leaves)
    backward(ad.vsum(ad.mul(out, Var(g))))  # the vjps receive exactly g
    return out.value, [v.grad for v in leaves]


def lead_sum(a, shape):
    """Sum over the leading axes that a (..., n) array has beyond `shape`."""
    return a.sum(axis=tuple(range(a.ndim - len(shape))))


# A batched (B, N, hidden) input and a single row; entries span several magnitudes.
KERNEL_SHAPES = [(3, 5, 16), (16,)]


def kernel_input(rng, shape):
    return rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 3.0, size=shape))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
class TestKernelsBitForBit:
    """The fused kernels against the plain formulas they replace, compared bit for bit.

    Each reference is written out of place, in the order of operations of the
    plain formula (and `ndarray.mean`, sum then divide); a kernel that reorders
    a floating-point operation fails here.
    """

    def test_layer_norm(self, shape):
        rng = np.random.default_rng(21)
        x, g = kernel_input(rng, shape), rng.normal(size=shape)
        gain, offset = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        value, (gx, ggain, goffset) = tape_grads(ad.layer_norm, x, gain, offset, g=g)

        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_sigma = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * inv_sigma
        gxhat = g * gain
        term = gxhat - gxhat.mean(axis=-1, keepdims=True)
        term -= xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        assert same_bits(value, xhat * gain + offset)
        assert same_bits(gx, term * inv_sigma)
        assert same_bits(ggain, lead_sum(g * xhat, gain.shape))
        assert same_bits(goffset, lead_sum(g, offset.shape))

    def test_linear(self, shape):
        rng = np.random.default_rng(22)
        x = kernel_input(rng, shape)
        w, b = rng.normal(size=(shape[-1], 7)), rng.normal(size=7)
        g = rng.normal(size=shape[:-1] + (7,))
        value, (gx, gw, gb) = tape_grads(ad.linear, x, w, b, g=g)

        rows, g_rows = x.reshape(-1, shape[-1]), g.reshape(-1, 7)
        assert same_bits(value, (rows @ w + b).reshape(g.shape))
        assert same_bits(gx, (g_rows @ w.T).reshape(shape))
        assert same_bits(gw, rows.T @ g_rows)
        assert same_bits(gb, lead_sum(g, b.shape))

    def test_linear_is_one_node(self, shape):
        rng = np.random.default_rng(23)
        x, w, b = leaf(rng.normal(size=shape)), leaf(rng.normal(size=(shape[-1], 4))), leaf(np.zeros(4))
        out = ad.linear(x, w, b)
        assert out.parents == (x, w, b)

    def test_masked_softmax(self, shape):
        rng = np.random.default_rng(24)
        x, g = kernel_input(rng, shape), rng.normal(size=shape)
        mask = rng.uniform(size=shape[:-2] + (1, shape[-1])) < 0.6
        mask[..., 0] = True  # every slice keeps an entry
        if len(shape) == 1:
            mask = mask.reshape(shape)
        value, (gx,) = tape_grads(lambda v: ad.softmax(v, mask=mask), x, g=g)

        xm = np.where(mask, x, -np.inf)
        e = np.exp(xm - xm.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        assert same_bits(value, y)
        assert same_bits(gx, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    def test_softmax_leaves_its_input_alone(self, shape):
        rng = np.random.default_rng(25)
        x = kernel_input(rng, shape)
        node = Var(x.copy())
        ad.softmax(node)
        assert same_bits(node.value, x)

    def test_softplus(self, shape):
        rng = np.random.default_rng(26)
        x, g = kernel_input(rng, shape) * 10.0, rng.normal(size=shape)
        x.reshape(-1)[:3] = [0.0, 800.0, -800.0]  # the sign switch and both saturations
        value, (gx,) = tape_grads(ad.softplus, x, g=g)

        out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        e = np.exp(-np.abs(x))
        sig = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert same_bits(value, out)
        assert same_bits(gx, g * sig)


class TestParamTape:
    def test_duplicate_name_rejected(self):
        tape = ParamTape()
        tape.add_param("w", np.ones(3))
        with pytest.raises(Exception):
            tape.add_param("w", np.ones(3))

    def test_leaf_gradients(self):
        tape = ParamTape()
        tape.add_param("w", np.array([1.0, 2.0]))
        tape.add_param("unused", np.ones((2, 3)))
        leaves = tape.leaves()
        backward(ad.vsum(ad.mul(leaves["w"], leaves["w"])))
        grads = ad.leaf_gradients(leaves)
        assert grads["w"] is leaves["w"].grad
        assert grads["w"].tolist() == [2.0, 4.0]
        assert grads["unused"].shape == (2, 3) and not grads["unused"].any()


    def test_copy_holds_equal_values_in_its_own_memory(self):
        tape = ParamTape()
        rng = np.random.default_rng(8)
        tape.add_param("w", rng.normal(size=(3, 4)))
        tape.add_param("b", np.zeros(4))
        copied = tape.copy()
        assert list(copied.params) == list(tape.params)
        for name, value in tape.params.items():
            assert np.array_equal(copied.params[name], value) and copied.params[name].dtype == value.dtype
            assert not np.shares_memory(copied.params[name], value), name
        copied.params["w"][...] = 0.0
        assert tape.params["w"].any()

class TestCheckGradients:
    def test_quadratic_loss_exact(self):
        tape = ParamTape()
        rng = np.random.default_rng(5)
        tape.add_param("w", rng.normal(size=32))

        def loss(leaves):
            return ad.vsum(ad.mul(leaves["w"], leaves["w"])) * 0.5

        report = check_gradients(tape, loss, tolerance=1e-4, n_samples=32)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_unused_parameter_reports_zero(self):
        tape = ParamTape()
        tape.add_param("used", np.array([1.0]))
        tape.add_param("unused", np.array([2.0]))

        def loss(leaves):
            return ad.vsum(ad.mul(leaves["used"], leaves["used"]))

        leaves = tape.leaves()
        backward(loss(leaves))
        assert np.all(ad.leaf_gradients(leaves)["unused"] == 0.0)
        report = check_gradients(tape, loss, n_samples=2)
        assert report.passed

    def test_composite_expression(self):
        tape = ParamTape()
        rng = np.random.default_rng(6)
        tape.add_param("w1", rng.normal(size=(6, 4), scale=0.5))
        tape.add_param("b1", rng.normal(size=4, scale=0.1))
        tape.add_param("w2", rng.normal(size=(4, 1), scale=0.5))
        x = rng.normal(size=(5, 6))

        def loss(leaves):
            h = ad.relu(ad.linear(Var(x), leaves["w1"], leaves["b1"]))
            out = ad.matmul(h, leaves["w2"])
            return ad.vsum(ad.mul(out, out))

        report = check_gradients(tape, loss, tolerance=1e-6, n_samples=300)
        assert report.n_checked == sum(p.size for p in tape.params.values())
        assert report.passed, report.failures[:3]
