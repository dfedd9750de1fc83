import numpy as np
import pytest

from crowdcount.nn import (
    Conv2d,
    MaxPool2d,
    ReLU,
    conv2d_backward,
    conv2d_forward,
    maxpool_backward,
    maxpool_forward,
    mse_loss,
    relu_backward,
    relu_forward,
)
from crowdcount.models import build_model
from crowdcount.nn.layers import conv_output_size, layer_from_spec


def conv_brute_force(x, w, b, stride, padding, dilation):
    # direct six-loop definition, no im2col
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = conv_output_size(h, kh, stride, padding, dilation)
    ow = conv_output_size(wd, kw, stride, padding, dilation)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii = oi * stride + ki * dilation
                                jj = oj * stride + kj * dilation
                                acc += xp[ni, ci, ii, jj] * w[co, ci, ki, kj]
                    out[ni, co, oi, oj] = acc + b[co]
    return out


def pool_brute_force(x, window, stride):
    n, c, h, w = x.shape
    oh, ow = h // stride, w // stride
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    patch = x[ni, ci,
                              oi * stride : oi * stride + window,
                              oj * stride : oj * stride + window]
                    out[ni, ci, oi, oj] = patch.max()
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (1, 4, 2),
    ])
    def test_matches_brute_force(self, stride, padding, dilation):
        rng = np.random.default_rng(hash((stride, padding, dilation)) % 2**32)
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = conv2d_forward(x, w, b, stride, padding, dilation)
        expect = conv_brute_force(x, w, b, stride, padding, dilation)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d_forward(x, w, np.zeros(1), 1, 1, 1)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_output_size_rule(self):
        assert conv_output_size(48, 3, 1, 1, 1) == 48
        assert conv_output_size(48, 3, 1, 2, 2) == 48
        assert conv_output_size(8, 2, 2, 0, 1) == 4
        with pytest.raises(ValueError):
            conv_output_size(5, 2, 2, 0, 1)  # span not divisible by stride


class TestConvBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(42)
        for dilation in (1, 2):
            x = rng.normal(size=(2, 2, 6, 6))
            w = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            pad = dilation
            out = conv2d_forward(x, w, b, 1, pad, dilation)
            target = rng.normal(size=out.shape)
            _, grad_out = mse_loss(out, target)
            gx, gw, gb = conv2d_backward(x, w, grad_out, 1, pad, dilation)

            h = 1e-5
            def loss_at(xv, wv, bv):
                return mse_loss(conv2d_forward(xv, wv, bv, 1, pad, dilation), target)[0]

            for arr, grad in ((x, gx), (w, gw), (b, gb)):
                flat, gflat = arr.ravel(), grad.ravel()
                for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                    old = flat[idx]
                    flat[idx] = old + h
                    lp = loss_at(x, w, b)
                    flat[idx] = old - h
                    lm = loss_at(x, w, b)
                    flat[idx] = old
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-6)
                    assert abs(fd - gflat[idx]) / denom < 1e-6


class TestConvKernelLadder:
    """The kernel shapes the reference models use, at batch 3."""

    CASES = [(1, 2, 9, 1), (1, 2, 7, 1), (1, 3, 5, 1), (2, 3, 3, 2)]  # cin, cout, k, dilation

    @pytest.mark.parametrize("cin,cout,k,dilation", CASES)
    def test_forward_matches_brute_force(self, cin, cout, k, dilation):
        rng = np.random.default_rng([k, dilation])
        pad = dilation * (k - 1) // 2
        x = rng.normal(size=(3, cin, 10, 10))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        got = conv2d_forward(x, w, b, 1, pad, dilation)
        np.testing.assert_allclose(got, conv_brute_force(x, w, b, 1, pad, dilation),
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("cin,cout,k,dilation", CASES)
    def test_backward_matches_finite_differences(self, cin, cout, k, dilation):
        rng = np.random.default_rng([k, dilation, 1])
        pad = dilation * (k - 1) // 2
        x = rng.normal(size=(3, cin, 10, 10))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        r = rng.normal(size=(3, cout, 10, 10))  # linear readout weights
        gx, gw, gb = conv2d_backward(x, w, r, 1, pad, dilation)

        def loss():
            return float((conv2d_forward(x, w, b, 1, pad, dilation) * r).sum())

        h = 1e-5
        for arr, grad in ((x, gx), (w, gw), (b, gb)):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + h
                up = loss()
                flat[idx] = old - h
                down = loss()
                flat[idx] = old
                fd = (up - down) / (2 * h)
                assert abs(fd - grad.reshape(-1)[idx]) <= 1e-6 * max(1.0, abs(fd))

    def test_skipping_input_grad_keeps_parameter_grads(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 1, 10, 10))
        w = rng.normal(size=(2, 1, 9, 9))
        g = rng.normal(size=(3, 2, 10, 10))
        gx, gw, gb = conv2d_backward(x, w, g, 1, 4, 1)
        none, gw2, gb2 = conv2d_backward(x, w, g, 1, 4, 1, input_grad=False)
        assert gx is not None and none is None
        np.testing.assert_array_equal(gw, gw2)
        np.testing.assert_array_equal(gb, gb2)


class TestMaxPool:
    def test_matches_brute_force(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        out, _ = maxpool_forward(x, 2, 2)
        np.testing.assert_array_equal(out, pool_brute_force(x, 2, 2))

    def test_tie_breaks_first_in_row_major(self):
        x = np.zeros((1, 1, 2, 2))  # four-way tie
        out, idx = maxpool_forward(x, 2, 2)
        grad = maxpool_backward(idx, np.ones((1, 1, 1, 1)), x.shape)
        expect = np.zeros((1, 1, 2, 2))
        expect[0, 0, 0, 0] = 1.0  # top-left wins the tie
        np.testing.assert_array_equal(grad, expect)

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, idx = maxpool_forward(x, 2, 2)
        g = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        grad = maxpool_backward(idx, g, x.shape)
        expect = np.zeros_like(x)
        expect[0, 0, 1, 1] = 1.0
        expect[0, 0, 1, 3] = 2.0
        expect[0, 0, 3, 1] = 3.0
        expect[0, 0, 3, 3] = 4.0
        np.testing.assert_array_equal(grad, expect)

    def test_gradient_is_subpermutation(self):
        # pooling backward scatters each output grad to exactly one input
        x = np.random.default_rng(5).normal(size=(1, 2, 6, 6))
        out, idx = maxpool_forward(x, 2, 2)
        g = np.random.default_rng(6).normal(size=out.shape)
        grad = maxpool_backward(idx, g, x.shape)
        assert grad.sum() == pytest.approx(g.sum(), rel=1e-12)
        assert np.count_nonzero(grad) <= g.size

    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            maxpool_forward(np.zeros((1, 1, 5, 6)), 2, 2)

    def test_all_binary_windows_route_to_first_maximum(self):
        # every 2x2 window of zeros and ones, one window per channel
        bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
        x = bits.reshape(1, 16, 2, 2).astype(np.float64)
        out, idx = maxpool_forward(x, 2, 2)
        grad = maxpool_backward(idx, np.ones_like(out), x.shape)
        for c in range(16):
            window = x[0, c].reshape(-1)
            expect = np.zeros(4)
            expect[np.flatnonzero(window == window.max())[0]] = 1.0
            assert out[0, c, 0, 0] == window.max()
            np.testing.assert_array_equal(grad[0, c].reshape(-1), expect)

    @pytest.mark.parametrize("window,stride", [(3, 3), (2, 1), (3, 2)])
    def test_rejects_other_windows(self, window, stride):
        with pytest.raises(ValueError, match="2x2"):
            maxpool_forward(np.zeros((1, 1, 6, 6)), window, stride)
        with pytest.raises(ValueError, match="2x2"):
            MaxPool2d(window, stride)


class TestReLU:
    def test_forward_clamps(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu_forward(x), [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
        g = np.ones_like(x)
        # subgradient 0 at x = 0
        np.testing.assert_array_equal(relu_backward(x, g), [0, 0, 0, 1, 1])

    def test_finite_differences_off_zero(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.1, 1.0, size=(4, 5)) * rng.choice([-1.0, 1.0], size=(4, 5))
        target = rng.normal(size=(1, *x.shape))
        _, g = mse_loss(relu_forward(x)[None], target)
        grad = relu_backward(x, g[0])
        h = 1e-6
        for idx in range(x.size):
            old = x.flat[idx]
            x.flat[idx] = old + h
            lp = mse_loss(relu_forward(x)[None], target)[0]
            x.flat[idx] = old - h
            lm = mse_loss(relu_forward(x)[None], target)[0]
            x.flat[idx] = old
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad.flat[idx]) <= 1e-6 * max(1.0, abs(fd))


class TestLayerClasses:
    def test_conv_spec_roundtrip(self):
        layer = Conv2d(3, 8, 3, dilation=2, padding=2, rng=np.random.default_rng(5))
        spec = layer.spec()
        clone = layer_from_spec(spec)
        assert clone.weight.data.shape == layer.weight.data.shape
        assert clone.dilation == 2

    def test_he_init_statistics(self):
        layer = Conv2d(16, 64, 3, dtype=np.float64, rng=np.random.default_rng(0))
        std = layer.weight.data.std()
        expected = np.sqrt(2.0 / (16 * 9))
        assert std == pytest.approx(expected, rel=0.1)
        assert np.all(layer.bias.data == 0.0)

    def test_same_seed_same_init(self):
        a = Conv2d(2, 4, 3, rng=np.random.default_rng(7))
        b = Conv2d(2, 4, 3, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 4)

    def test_backward_before_forward_errors(self):
        layer = Conv2d(1, 1, 3)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 4, 4)))

    def test_param_count(self):
        layer = Conv2d(3, 8, 3)
        assert layer.param_count() == 3 * 8 * 9 + 8

    @pytest.mark.parametrize("arch,width", [("csrnet_lite", 0.25), ("mcnn", 0.5)])
    def test_network_backward_sets_every_gradient(self, arch, width):
        net = build_model(arch, width, in_channels=1, seed=0)
        x = np.random.default_rng(2).uniform(size=(2, 1, 16, 16)).astype(np.float32)
        _, grad = mse_loss(net.forward(x), np.zeros((2, 1, 4, 4), np.float32))
        net.backward(grad)
        for p in net.parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape
        firsts = [col.layers[0] for col in net.columns]
        assert all(layer.weight.grad.any() for layer in firsts)

    def test_pool_and_relu_roundtrip_shapes(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(np.float32)
        pool = MaxPool2d()
        relu = ReLU()
        y = pool.forward(relu.forward(x))
        assert y.shape == (2, 3, 4, 4)
        g = relu.backward(pool.backward(y.copy()))
        assert g.shape == x.shape
