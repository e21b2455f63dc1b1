"""Convolution kernels: fast paths vs. naive oracles, geometry, gradients."""

import tracemalloc

import numpy as np
import pytest

from fusionneck import convkit
from fusionneck.convkit import (
    ConvKernel,
    DeconvKernel,
    conv2d,
    deconv2x,
    naive_conv2d,
    naive_deconv2x,
    pointwise_conv,
)
from fusionneck.errors import ContractError, ShapeError
from fusionneck.tensor import Rng, Tape, Tensor4, grad_check, weighted_sum

# input [[1..9]] with a plus-shaped same-padding kernel, worked by hand
HAND_CONV_EXPECTED = [[7.0, 11.0, 11.0], [17.0, 25.0, 23.0], [19.0, 29.0, 23.0]]


def plus_kernel():
    w = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=float).reshape(1, 1, 3, 3)
    return ConvKernel(w, np.zeros(1), dilation=1)


class TestConv2d:
    def test_zero_kernel_zero_output(self):
        rng = Rng(0)
        x = Tensor4(rng.normal((1, 2, 4, 4)))
        k = ConvKernel(np.zeros((3, 2, 3, 3)), np.zeros(3), dilation=1)
        assert np.array_equal(conv2d(x, k).data, np.zeros((1, 3, 4, 4)))

    def test_delta_kernel_is_identity(self):
        rng = Rng(1)
        x = Tensor4(rng.normal((2, 1, 5, 5)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        k = ConvKernel(w, np.zeros(1), dilation=1)
        np.testing.assert_array_equal(conv2d(x, k).data, x.data)

    def test_hand_worked_example(self):
        x = Tensor4(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        out = conv2d(x, plus_kernel())
        np.testing.assert_array_equal(out.data.reshape(3, 3), HAND_CONV_EXPECTED)
        np.testing.assert_array_equal(
            naive_conv2d(x, plus_kernel()).data.reshape(3, 3), HAND_CONV_EXPECTED
        )

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_matches_naive_oracle(self, dilation):
        rng = Rng(10 + dilation)
        x = Tensor4(rng.normal((1, 1, 5, 5)))
        k = ConvKernel(rng.normal((1, 1, 3, 3)), rng.normal((1,)), dilation=dilation)
        fast = conv2d(x, k)
        slow = naive_conv2d(x, k)
        assert fast.dims == slow.dims
        assert np.max(np.abs(fast.data - slow.data)) < 1e-12

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_same_padding_preserves_dims(self, dilation):
        rng = Rng(20 + dilation)
        x = Tensor4(rng.normal((2, 3, 7, 6)))
        k = ConvKernel(rng.normal((4, 3, 3, 3)), np.zeros(4), dilation=dilation)
        assert conv2d(x, k).dims == (2, 4, 7, 6)

    def test_linearity(self):
        rng = Rng(30)
        x = Tensor4(rng.normal((1, 2, 4, 4)))
        y = Tensor4(rng.normal((1, 2, 4, 4)))
        k = ConvKernel(rng.normal((2, 2, 3, 3)), np.zeros(2), dilation=2)
        alpha, beta = 1.7, -0.4
        combo = Tensor4(alpha * x.data + beta * y.data)
        lhs = conv2d(combo, k).data
        rhs = alpha * conv2d(x, k).data + beta * conv2d(y, k).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_naive_linearity_in_input(self):
        rng = Rng(31)
        x = Tensor4(rng.normal((1, 1, 4, 4)))
        k = ConvKernel(rng.normal((1, 1, 3, 3)), np.zeros(1), dilation=1)
        scaled = naive_conv2d(Tensor4(3.0 * x.data), k).data
        np.testing.assert_allclose(scaled, 3.0 * naive_conv2d(x, k).data, atol=1e-12)

    @pytest.mark.parametrize("op, ksize, dilation", [
        (conv2d, 3, 2), (pointwise_conv, 1, 1),
    ], ids=["conv2d", "pointwise_conv"])
    def test_conv2d_tape_retains_only_the_output(self, op, ksize, dilation):
        """A taped p3 branch or lateral conv keeps its output alive, and no padded input or columns."""
        rng = Rng(103)
        x = Tensor4(rng.normal((2, 64, 32, 32)))
        k = ConvKernel(rng.normal((64, 64, ksize, ksize)), np.zeros(64), dilation=dilation)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, k, tape)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= retained < out.data.nbytes + (64 << 10)

    def test_channel_mismatch(self):
        k = ConvKernel(np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d(Tensor4.zeros(1, 2, 4, 4), k)

    def test_invalid_kernel_geometry(self):
        with pytest.raises(ContractError):
            ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1), dilation=0)
        for kh, kw in ((2, 2), (2, 3), (3, 4)):  # an even side has no symmetric padding that keeps H×W
            with pytest.raises(ShapeError, match="odd"):
                ConvKernel(np.zeros((1, 1, kh, kw)), np.zeros(1))


class TestPointwise:
    def test_identity_channel_map(self):
        rng = Rng(40)
        x = Tensor4(rng.normal((1, 3, 4, 4)))
        k = ConvKernel(np.eye(3).reshape(3, 3, 1, 1), np.zeros(3))
        np.testing.assert_array_equal(pointwise_conv(x, k).data, x.data)

    def test_channel_sum(self):
        rng = Rng(41)
        x = Tensor4(rng.normal((1, 2, 3, 3)))
        k = ConvKernel(np.ones((1, 2, 1, 1)), np.zeros(1))
        out = pointwise_conv(x, k)
        np.testing.assert_allclose(out.data[0, 0], x.data[0, 0] + x.data[0, 1], atol=1e-14)

    def test_matches_naive(self):
        rng = Rng(42)
        x = Tensor4(rng.normal((2, 3, 4, 4)))
        k = ConvKernel(rng.normal((5, 3, 1, 1)), rng.normal((5,)))
        assert np.max(np.abs(pointwise_conv(x, k).data - naive_conv2d(x, k).data)) < 1e-12

    def test_rejects_non_1x1(self):
        k = ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ContractError):
            pointwise_conv(Tensor4.zeros(1, 1, 4, 4), k)


class TestDeconv2x:
    def test_single_pixel_scatter_of_ones(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 2] = 5.0
        k = DeconvKernel(np.ones((1, 1, 2, 2)), np.zeros(1))
        out = deconv2x(Tensor4(x), k)
        expected = np.zeros((1, 1, 6, 6))
        expected[0, 0, 2:4, 4:6] = 5.0
        np.testing.assert_array_equal(out.data, expected)

    def test_spatial_doubling(self):
        rng = Rng(50)
        x = Tensor4(rng.normal((1, 3, 8, 8)))
        k = DeconvKernel(rng.normal((3, 5, 2, 2)), rng.normal((5,)))
        assert deconv2x(x, k).dims == (1, 5, 16, 16)

    def test_matches_naive_scatter(self):
        rng = Rng(51)
        x = Tensor4(rng.normal((2, 2, 3, 4)))
        k = DeconvKernel(rng.normal((2, 3, 2, 2)), rng.normal((3,)))
        fast = deconv2x(x, k)
        slow = naive_deconv2x(x, k)
        assert np.max(np.abs(fast.data - slow.data)) < 1e-12

    def test_block_disjointness_via_deltas(self):
        """Output block (2i, 2j) depends only on input pixel (i, j)."""
        rng = Rng(52)
        k = DeconvKernel(rng.normal((1, 1, 2, 2)), np.zeros(1))
        h = w = 3
        for i in range(h):
            for j in range(w):
                x = np.zeros((1, 1, h, w))
                x[0, 0, i, j] = 1.0
                out = deconv2x(Tensor4(x), k).data
                mask = np.zeros_like(out, dtype=bool)
                mask[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = True
                assert np.all(out[~mask] == 0.0)

    def test_channel_mismatch(self):
        k = DeconvKernel(np.zeros((3, 3, 2, 2)), np.zeros(3))
        with pytest.raises(ShapeError):
            deconv2x(Tensor4.zeros(1, 2, 4, 4), k)

    def test_kernel_must_be_2x2(self):
        with pytest.raises(ShapeError):
            DeconvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestConvGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d_backward(self, seed):
        rng = Rng(70 + seed)
        d = 1 + rng.integers(0, 3)
        x = Tensor4(rng.normal((1, 2, 5, 5)))
        k = ConvKernel(rng.normal((2, 2, 3, 3), 0.7), rng.normal((2,), 0.3), dilation=d)
        w = rng.normal((1, 2, 5, 5))

        def loss(tape):
            return weighted_sum(conv2d(x, k, tape), w, tape)

        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    # batch 2, unequal channel counts, H != W, as one band or as bands of one
    # output row, so a swapped channel or spatial axis in the lowered products
    # cannot cancel out
    @pytest.mark.parametrize("c_in, c_out", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("one_row_bands", [False, True])
    def test_conv2d_backward_general_shapes(self, c_in, c_out, dilation, one_row_bands, monkeypatch):
        rng = Rng(90 + 10 * c_in + dilation)
        x = Tensor4(rng.normal((2, c_in, 5, 7)))
        k = ConvKernel(rng.normal((c_out, c_in, 3, 3), 0.7), rng.normal((c_out,), 0.3), dilation=dilation)
        if one_row_bands:
            monkeypatch.setattr(convkit, "_COLUMN_BYTES", 1)
        w = rng.normal((2, c_out, 5, 7))

        def loss(tape):
            return weighted_sum(conv2d(x, k, tape), w, tape)

        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("group", [1, 3, 9])
    def test_every_tap_grouping(self, group, monkeypatch):
        # a column budget of `group` taps: small maps otherwise always take all 9
        rng = Rng(120 + group)
        x = Tensor4(rng.normal((2, 3, 5, 7)))
        k = ConvKernel(rng.normal((2, 3, 3, 3), 0.7), rng.normal((2,), 0.3), dilation=2)
        monkeypatch.setattr(convkit, "_COLUMN_BYTES", group * x.data.nbytes)
        w = rng.normal((2, 2, 5, 7))

        def loss(tape):
            return weighted_sum(conv2d(x, k, tape), w, tape)

        assert np.max(np.abs(conv2d(x, k).data - naive_conv2d(x, k).data)) < 1e-12
        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("band_rows, expected", [(1, [1] * 5), (2, [2, 2, 1])])
    def test_row_bands(self, band_rows, expected, monkeypatch):
        # a column budget of `band_rows` output rows; the last band is partial at 2
        rng = Rng(130 + band_rows)
        x = Tensor4(rng.normal((2, 3, 5, 7)))
        k = ConvKernel(rng.normal((2, 3, 3, 3), 0.7), rng.normal((2,), 0.3), dilation=2)
        row_bytes = 2 * 3 * 9 * 7 * x.data.itemsize  # B · C·kh·kw · W columns per output row
        monkeypatch.setattr(convkit, "_COLUMN_BYTES", band_rows * row_bytes)
        window, rows = convkit._tap_window(x.data, 3, 3, 2)
        bands = [window[..., r0 : r0 + rows, :].shape[4] for r0 in range(0, window.shape[4], rows)]
        assert bands == expected
        w = rng.normal((2, 2, 5, 7))

        def loss(tape):
            return weighted_sum(conv2d(x, k, tape), w, tape)

        assert np.max(np.abs(conv2d(x, k).data - naive_conv2d(x, k).data)) < 1e-12
        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    # square and oblong odd kernels at dilations 1-3 keep H×W, match the loop
    # oracle and have a correct backward: the input gradient pads g like the
    # input, per axis, and a 1x1 kernel runs through the same window
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 1), (1, 3), (3, 3), (5, 3), (5, 5)])
    def test_same_size_kernels(self, kh, kw, dilation):
        rng = Rng(140 + 10 * kh + kw + dilation)
        x = Tensor4(rng.normal((2, 3, 5, 7)))
        k = ConvKernel(rng.normal((2, 3, kh, kw), 0.7), rng.normal((2,), 0.3), dilation=dilation)
        out = conv2d(x, k)
        assert out.dims == (2, 2, 5, 7)
        assert np.max(np.abs(out.data - naive_conv2d(x, k).data)) < 1e-12
        w = rng.normal(out.shape)

        def loss(tape):
            return weighted_sum(conv2d(x, k, tape), w, tape)

        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    # a padding beyond same-size is a same-size conv of the input zero-padded
    # by pad: for a 1x1 kernel its ring of width pad reads the bias alone,
    # and the padded input's gradient cropped back to H×W is the unpadded
    # conv's input gradient on the cropped output weights
    @pytest.mark.parametrize("kh, kw, dilation, pad", [(1, 1, 1, 2), (1, 1, 1, 0)])
    def test_input_gradient_pad_and_crop(self, kh, kw, dilation, pad):
        rng = Rng(140 + 10 * kh + kw + dilation + pad)
        x = Tensor4(rng.normal((2, 3, 5, 7)))
        xp = Tensor4(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))))
        k = ConvKernel(rng.normal((2, 3, kh, kw), 0.7), rng.normal((2,), 0.3), dilation=dilation)
        out = conv2d(xp, k)
        assert out.dims == (2, 2, 5 + 2 * pad, 7 + 2 * pad)
        assert np.max(np.abs(out.data - naive_conv2d(xp, k).data)) < 1e-12
        inner = np.s_[:, :, pad : pad + 5, pad : pad + 7]
        np.testing.assert_allclose(out.data[inner], conv2d(x, k).data, rtol=0, atol=1e-12)
        ring = np.ones(out.shape, dtype=bool)
        ring[inner] = False
        bias = np.broadcast_to(k.bias.data[None, :, None, None], out.shape)
        np.testing.assert_array_equal(out.data[ring], bias[ring])
        w = rng.normal(out.shape)

        def loss(tape):
            return weighted_sum(conv2d(xp, k, tape), w, tape)

        assert grad_check(loss, [xp, k.weight, k.bias], epsilon=1e-6) < 1e-5
        for v, w_v in ((xp, w), (x, w[inner])):
            v.zero_grad()
            tape = Tape()
            total = weighted_sum(conv2d(v, k, tape), w_v, tape)
            total.grad = np.ones(())
            tape.backward()
        np.testing.assert_allclose(xp.grad[inner], x.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_deconv_backward(self, seed):
        rng = Rng(80 + seed)
        x = Tensor4(rng.normal((2, 2, 3, 3)))
        k = DeconvKernel(rng.normal((2, 2, 2, 2), 0.7), rng.normal((2,), 0.3))
        w = rng.normal((2, 2, 6, 6))

        def loss(tape):
            return weighted_sum(deconv2x(x, k, tape), w, tape)

        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("c, o", [(3, 2), (2, 3)])
    def test_deconv_backward_general_shapes(self, c, o):
        rng = Rng(85 + c)
        x = Tensor4(rng.normal((2, c, 3, 4)))
        k = DeconvKernel(rng.normal((c, o, 2, 2), 0.7), rng.normal((o,), 0.3))
        w = rng.normal((2, o, 6, 8))

        def loss(tape):
            return weighted_sum(deconv2x(x, k, tape), w, tape)

        assert grad_check(loss, [x, k.weight, k.bias], epsilon=1e-6) < 1e-5


def adjoint_gaps(op, x: Tensor4, kernel) -> tuple[float, float]:
    """Relative gaps in <A x, y> = <x, Aᵀ y> and its twin in the weight.

    With zero bias the op is linear in the input and in the weight
    separately, so the tape's input and weight gradients of <op(x), y> must
    reproduce the forward inner product exactly up to rounding.
    """
    rng = Rng(7)
    out = op(x, kernel)
    y = rng.normal(out.shape)
    tape = Tape()
    loss = weighted_sum(op(x, kernel, tape), y, tape)
    loss.grad = np.ones_like(loss.data)
    tape.backward()
    forward = float(np.sum(out.data * y))
    via_input = float(np.sum(x.data * x.grad))
    via_weight = float(np.sum(kernel.weight.data * kernel.weight.grad))
    return abs(forward - via_input) / abs(forward), abs(forward - via_weight) / abs(forward)


class TestAdjointAtDefaultSize:
    """The backward rules at the default config's shapes, where grad_check is too slow."""

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_conv2d(self, dilation):
        rng = Rng(100 + dilation)
        x = Tensor4(rng.normal((2, 64, 32, 32)))
        k = ConvKernel(rng.normal((64, 64, 3, 3)), np.zeros(64), dilation=dilation)
        assert max(adjoint_gaps(conv2d, x, k)) < 1e-12

    def test_pointwise_conv(self):
        rng = Rng(104)
        x = Tensor4(rng.normal((2, 192, 32, 32)))
        k = ConvKernel(rng.normal((64, 192, 1, 1)), np.zeros(64))
        assert max(adjoint_gaps(pointwise_conv, x, k)) < 1e-12

    @pytest.mark.parametrize("size", [8, 16])
    def test_deconv2x(self, size):
        rng = Rng(105 + size)
        x = Tensor4(rng.normal((2, 64, size, size)))
        k = DeconvKernel(rng.normal((64, 64, 2, 2)), np.zeros(64))
        assert max(adjoint_gaps(deconv2x, x, k)) < 1e-12
