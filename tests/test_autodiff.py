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


OPS = {
    "relu": (ad.relu, lambda rng: rng.normal(size=(4, 5)) + 0.05),
    "softplus": (ad.softplus, lambda rng: rng.normal(size=(3, 4), scale=3.0)),
    "exp": (ad.vexp, lambda rng: rng.normal(size=7)),
    "log": (ad.vlog, lambda rng: rng.uniform(0.2, 4.0, size=6)),
    "sqrt": (ad.vsqrt, lambda rng: rng.uniform(0.2, 4.0, size=6)),
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
        weights = rng.normal(size=x.shape)

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

    def test_max_along_routes_to_argmax(self):
        x = leaf(np.array([[1.0, 5.0, 3.0], [2.0, 2.0, 7.0]]))
        backward(ad.vsum(ad.max_along(x, axis=1)))
        assert x.grad == pytest.approx(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

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


class TestParamTape:
    def test_add_and_zero(self):
        tape = ParamTape(rng_seed=1)
        tape.add_param("w", np.ones((2, 2)))
        tape.grads["w"] += 3.0
        tape.zero_grads()
        assert np.all(tape.grads["w"] == 0.0)
        tape.zero_grads()  # idempotent
        assert np.all(tape.grads["w"] == 0.0)

    def test_duplicate_name_rejected(self):
        tape = ParamTape()
        tape.add_param("w", np.ones(3))
        with pytest.raises(Exception):
            tape.add_param("w", np.ones(3))

    def test_accumulate(self):
        tape = ParamTape()
        tape.add_param("w", np.array([1.0, 2.0]))
        leaves = tape.leaves()
        backward(ad.vsum(ad.mul(leaves["w"], leaves["w"])))
        tape.accumulate_grads(leaves)
        assert tape.grads["w"] == pytest.approx(np.array([2.0, 4.0]))


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
        node = loss(leaves)
        backward(node)
        tape.accumulate_grads(leaves)
        assert np.all(np.abs(tape.grads["unused"]) < 1e-10)
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
        assert report.n_checked == tape.n_params()
        assert report.passed, report.failures[:3]
