import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowvo import nnops
from flowvo import tensor as T
from flowvo.gradcheck import REL_TOL, check_op, run_primitive_suite
from flowvo.tensor import ContractError, NumericError, ShapeError, Tensor


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = a @ Tensor(np.eye(2))
    np.testing.assert_array_equal(out.data, a.data)


def test_conv2d_ones_center_receptive_field():
    # 3x3 ones kernel over 5x5 ones image: interior output counts 9 taps
    img = Tensor(np.ones((5, 5, 1)))
    kernel = Tensor(np.ones((3, 3, 1, 1)))
    out = nnops.conv2d(img, kernel, stride=1, padding=0)
    assert out.shape == (3, 3, 1)
    assert out.data[1, 1, 0] == 9.0


def test_conv2d_even_kernel_rejected():
    img = Tensor(np.ones((5, 5, 1)))
    kernel = Tensor(np.ones((2, 2, 1, 1)))
    with pytest.raises(ContractError):
        nnops.conv2d(img, kernel)


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_sum():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_twice_without_zeroing_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    with pytest.raises(ContractError):
        (x * 3.0).sum().backward()
    x.zero_grad()
    (x * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
        T.add(a, b)


def test_nonfinite_output_names_op():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="sqrt"):
            T.sqrt(Tensor([-1.0]))
        with pytest.raises(NumericError, match="div"):
            Tensor([1.0]) / Tensor([0.0])


def test_grid_sample_identity_is_exact():
    rng = np.random.default_rng(0)
    img = Tensor(rng.random((4, 6, 3)))
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(4.0))
    out = nnops.grid_sample_bilinear(img, Tensor(np.stack([xs, ys], axis=-1)))
    np.testing.assert_array_equal(out.data, img.data)


def test_grid_sample_half_pixel_shift_on_ramp():
    # horizontal ramp: value == column index, so a +0.5 x-shift reads midpoints
    ramp = np.tile(np.arange(6.0)[None, :, None], (4, 1, 1))
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(4.0))
    coords = np.stack([xs + 0.5, ys], axis=-1)
    out = nnops.grid_sample_bilinear(Tensor(ramp), Tensor(coords))
    expected = np.minimum(np.arange(6.0) + 0.5, 5.0)
    np.testing.assert_allclose(out.data[0, :, 0], expected, atol=1e-12)


def test_grid_sample_out_of_bounds_clamps_to_border():
    rng = np.random.default_rng(1)
    img = Tensor(rng.random((3, 5, 2)))
    coords = np.full((2, 2, 2), 100.0)
    out = nnops.grid_sample_bilinear(img, Tensor(coords))
    np.testing.assert_array_equal(out.data, np.broadcast_to(img.data[2, 4], (2, 2, 2)))
    mask = nnops.grid_sample_valid_mask(coords, 5, 3)
    assert not mask.any()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 6))
def test_softmax_rows_are_distributions(seed, rows, cols):
    rng = np.random.default_rng(seed)
    out = T.softmax(Tensor(rng.normal(0, 3, (rows, cols))), axis=1).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_layer_norm_moments(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(2.0, 3.0, (4, 16)))
    y = nnops.layer_norm(x, axis=-1, eps=0.0).data
    assert np.abs(y.mean(axis=-1)).max() <= 1e-10
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


def test_dropout_seed_reproducible_and_rate_zero_identity():
    x = Tensor(np.arange(40.0).reshape(5, 8))
    a = nnops.dropout(x, 0.4, rng_seed=123).data
    b = nnops.dropout(x, 0.4, rng_seed=123).data
    np.testing.assert_array_equal(a, b)
    c = nnops.dropout(x, 0.4, rng_seed=124).data
    assert not np.array_equal(a, c)
    assert nnops.dropout(x, 0.0, rng_seed=5) is x
    with pytest.raises(ContractError):
        nnops.dropout(x, 1.0, rng_seed=0)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(3)
    x = rng.random((6, 7, 2))
    w = rng.random((3, 3, 2, 4))

    def run():
        t = Tensor(x)
        y = nnops.conv2d(t, Tensor(w), stride=2, padding=1)
        y = T.softmax(T.reshape(y, (12, 4)), axis=1)
        return nnops.layer_norm(y).data

    np.testing.assert_array_equal(run(), run())


def test_transposed_conv_output_size():
    x = Tensor(np.ones((4, 5, 2)))
    w = Tensor(np.ones((3, 3, 2, 1)))
    out = nnops.transposed_conv2d(x, w, stride=2, padding=0)
    assert out.shape == ((4 - 1) * 2 + 3, (5 - 1) * 2 + 3, 1)


@pytest.mark.parametrize("size,padding", [(5, 1), (7, 0)])
def test_transposed_conv_is_adjoint_of_conv(size, padding):
    # <conv(x), y> == <x, conv^T(y)> on size-compatible geometry:
    # H_in == (H_out - 1) * s + k - 2p, 5 -> 3 -> 5 at p=1 and 7 -> 3 -> 7 at p=0
    rng = np.random.default_rng(5)
    x = rng.random((size, size, 2))
    w = rng.random((3, 3, 2, 3))
    y = rng.random((3, 3, 3))
    conv_x = nnops.conv2d(Tensor(x), Tensor(w), stride=2, padding=padding).data
    xt = nnops.transposed_conv2d(Tensor(y), Tensor(np.transpose(w, (0, 1, 3, 2))),
                                 stride=2, padding=padding).data
    assert xt.shape == x.shape
    lhs = float((conv_x * y).sum())
    rhs = float((x * xt).sum())
    assert abs(lhs - rhs) < 1e-10


def test_concat_slice_roundtrip_grads():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    cat = T.concat([a, b], axis=1)
    cat[:, 3:].sum().backward()
    np.testing.assert_array_equal(a.grad, np.zeros((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


def test_avg_pool_matches_manual_mean():
    rng = np.random.default_rng(2)
    x = rng.random((6, 8, 2))
    out = nnops.avg_pool2d(Tensor(x), 2).data
    manual = x.reshape(3, 2, 4, 2, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(out, manual, atol=1e-12)


def _leaf(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _grid_coords(rng, h, w):
    """(4, 4, 2) sample points inside an (h, w) image, away from pixel centres."""
    base = rng.uniform(0.2, [w - 1.8, h - 1.8], size=(4, 4, 2))
    return Tensor(np.floor(base) + np.clip(base - np.floor(base), 0.25, 0.75),
                  requires_grad=True)


# the window geometries the networks use, beyond the primitive suite's cases
WINDOWED_OP_CASES = {
    "conv2d_k3_s1_p1": lambda rng: (
        lambda ts: nnops.conv2d(*ts, stride=1, padding=1),
        [_leaf(rng, 5, 6, 2), _leaf(rng, 3, 3, 2, 3), _leaf(rng, 3)]),
    "avg_pool2d_k2_s2": lambda rng: (
        lambda ts: nnops.avg_pool2d(ts[0], 2), [_leaf(rng, 5, 7, 2)]),
    "transposed_conv2d_k3_s2_p0": lambda rng: (
        lambda ts: nnops.transposed_conv2d(*ts, stride=2, padding=0),
        [_leaf(rng, 3, 4, 3), _leaf(rng, 3, 3, 3, 2), _leaf(rng, 2)]),
    "grid_sample_c1": lambda rng: (
        lambda ts: nnops.grid_sample_bilinear(*ts),
        [_leaf(rng, 5, 6, 1), _grid_coords(rng, 5, 6)]),
    "grid_sample_c3": lambda rng: (
        lambda ts: nnops.grid_sample_bilinear(*ts),
        [_leaf(rng, 5, 6, 3), _grid_coords(rng, 5, 6)]),
}


@pytest.mark.parametrize("case", sorted(WINDOWED_OP_CASES))
def test_windowed_op_gradients_at_network_shapes(case):
    rng = np.random.default_rng(17)
    op, inputs = WINDOWED_OP_CASES[case](rng)
    assert check_op(op, inputs, rng) <= REL_TOL


def test_grid_sample_constant_image_gets_no_gradient():
    rng = np.random.default_rng(23)
    img = rng.uniform(-1.0, 1.0, (2, 5, 6, 3))
    coords = _grid_coords(rng, 5, 6).data[None].repeat(2, axis=0)
    wgt = Tensor(rng.uniform(0.5, 1.5, (2, 4, 4, 3)))

    def coord_grad(image):
        c = Tensor(coords, requires_grad=True)
        out = nnops.grid_sample_bilinear(image, c)
        (out * wgt).sum().backward()
        return out, c.grad

    out, const_grad = coord_grad(Tensor(img))
    assert out._backward(np.ones(out.shape))[0] is None
    _, full_grad = coord_grad(Tensor(img, requires_grad=True))
    np.testing.assert_array_equal(const_grad, full_grad)


def test_slice_gradients_of_basic_and_repeated_fancy_keys():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    (x[1:, ::2].sum() + x[..., -1].sum() + 2.0 * x[np.array([0, 2, 0, 0])].sum()).backward()
    want = np.zeros((3, 4))
    want[1:, ::2] += 1.0
    want[:, -1] += 1.0
    want[0] += 6.0  # row 0 is picked three times
    want[2] += 2.0
    np.testing.assert_array_equal(x.grad, want)


def test_primitive_gradient_suite_small():
    results = run_primitive_suite(seed=123, cases_per_op=3)
    assert len(results) >= 25
    worst = max(results.values())
    assert worst <= 1e-4, f"worst primitive FD error {worst}"


def test_no_grad_disables_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert y._backward is None and not y.requires_grad
