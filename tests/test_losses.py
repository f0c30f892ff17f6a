import numpy as np
import pytest

from flowvo import geometry as geo
from flowvo import losses as L
from flowvo.tensor import ContractError, ShapeError, Tensor


def scalar_ssim_l1_oracle(recon, target, mask, alpha, window=3,
                          c1=0.01 ** 2, c2=0.03 ** 2):
    """Independent per-pixel-loop implementation of the photometric term.

    Mirrors the documented contract: both terms evaluated over the
    window-valid interior with the mask eroded by the window radius.
    """
    h, w, c = recon.shape
    r = window // 2
    total, count = 0.0, 0
    for y in range(r, h - r):
        for x in range(r, w - r):
            ok = all(mask[y + dy, x + dx]
                     for dy in range(-r, r + 1) for dx in range(-r, r + 1))
            if not ok:
                continue
            ssim_c = 0.0
            for ch in range(c):
                a = [recon[y + dy, x + dx, ch]
                     for dy in range(-r, r + 1) for dx in range(-r, r + 1)]
                b = [target[y + dy, x + dx, ch]
                     for dy in range(-r, r + 1) for dx in range(-r, r + 1)]
                n = len(a)
                mu_a = sum(a) / n
                mu_b = sum(b) / n
                var_a = sum(v * v for v in a) / n - mu_a ** 2
                var_b = sum(v * v for v in b) / n - mu_b ** 2
                cov = sum(u * v for u, v in zip(a, b)) / n - mu_a * mu_b
                ssim_c += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                           / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
            ssim_val = ssim_c / c
            l1 = np.abs(recon[y, x] - target[y, x]).mean()
            total += alpha * (1 - ssim_val) / 2 + (1 - alpha) * l1
            count += 1
    return total / count


def test_identical_images_give_zero():
    rng = np.random.default_rng(0)
    img = rng.random((8, 8, 3))
    out = L.image_synthesis_loss(Tensor(img), Tensor(img.copy()), None)
    assert out.item() == 0.0


def test_alpha_zero_reduces_to_masked_l1():
    rng = np.random.default_rng(1)
    a, b = rng.random((8, 8, 3)), rng.random((8, 8, 3))
    mask = rng.random((8, 8)) > 0.2
    cfg = L.LossConfig(alpha=0.0)
    out = L.image_synthesis_loss(Tensor(a), Tensor(b), mask, cfg).item()
    inner = L.erode_mask(mask, 1)
    l1 = np.abs(a - b).mean(axis=2)[1:-1, 1:-1]
    np.testing.assert_allclose(out, l1[inner].mean(), atol=1e-14)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_erode_mask_matches_per_pixel_window_check(radius):
    rng = np.random.default_rng(radius)
    mask = rng.random((9, 12)) > 0.15
    k = 2 * radius + 1
    expected = np.array([[mask[y:y + k, x:x + k].all() for x in range(12 - k + 1)]
                         for y in range(9 - k + 1)])
    np.testing.assert_array_equal(L.erode_mask(mask, radius), expected)


def test_matches_scalar_oracle_on_ramps():
    ys, xs = np.mgrid[0:8, 0:8]
    recon = np.stack([xs / 10.0, ys / 9.0, (xs + ys) / 20.0], axis=-1)
    target = np.stack([xs / 9.5, ys / 9.0 + 0.02, (xs * ys) / 60.0], axis=-1)
    mask = np.ones((8, 8), dtype=bool)
    mask[5, 2] = False
    cfg = L.LossConfig(alpha=0.85)
    got = L.image_synthesis_loss(Tensor(recon), Tensor(target), mask, cfg).item()
    expected = scalar_ssim_l1_oracle(recon, target, mask, alpha=0.85)
    assert abs(got - expected) <= 1e-10


def test_all_invalid_mask_warns_and_returns_zero():
    a = Tensor(np.random.default_rng(0).random((6, 6, 3)))
    with pytest.warns(RuntimeWarning):
        out = L.image_synthesis_loss(a, a, np.zeros((6, 6), dtype=bool))
    assert out.item() == 0.0


def test_ssim_self_is_one_everywhere():
    img = Tensor(np.random.default_rng(2).random((9, 9, 3)))
    np.testing.assert_array_equal(L.ssim(img, img).data, 1.0)


def test_ssim_symmetry():
    rng = np.random.default_rng(3)
    a, b = Tensor(rng.random((7, 9, 2))), Tensor(rng.random((7, 9, 2)))
    np.testing.assert_allclose(L.ssim(a, b).data, L.ssim(b, a).data, atol=1e-12)


def test_ssim_constant_offset_closed_form():
    mu_a, delta = 0.4, 0.05
    a = Tensor(np.full((6, 6, 1), mu_a))
    b = Tensor(np.full((6, 6, 1), mu_a + delta))
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    mu_b = mu_a + delta
    expected = (2 * mu_a * mu_b + c1) * c2 / ((mu_a ** 2 + mu_b ** 2 + c1) * c2)
    np.testing.assert_allclose(L.ssim(a, b).data, expected, atol=1e-14)


def test_ssim_range_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = Tensor(rng.random((8, 8, 1))), Tensor(rng.random((8, 8, 1)))
        vals = L.ssim(a, b).data
        assert (vals >= -1 - 1e-12).all() and (vals <= 1 + 1e-12).all()


def test_synthesis_loss_bounds_for_unit_images():
    rng = np.random.default_rng(5)
    cfg = L.LossConfig()
    a, b = rng.random((8, 8, 3)), rng.random((8, 8, 3))
    val = L.image_synthesis_loss(Tensor(a), Tensor(b), None, cfg).item()
    assert 0.0 <= val <= cfg.alpha + (1 - cfg.alpha) * np.abs(a - b).max()


def test_pose_consistency_identical_zero():
    poses = [Tensor(np.arange(6.0)) for _ in range(3)]
    assert L.pose_consistency_loss(poses, [Tensor(p.data.copy()) for p in poses]).item() == 0.0


def test_pose_consistency_single_component():
    a = [Tensor(np.zeros(6))]
    b_arr = np.zeros(6)
    b_arr[3] = 0.1
    assert abs(L.pose_consistency_loss(a, [Tensor(b_arr)]).item() - 0.1) < 1e-15


def test_pose_consistency_brute_force_and_symmetry():
    rng = np.random.default_rng(6)
    a = rng.normal(0, 1, (4, 6))
    b = rng.normal(0, 1, (4, 6))
    got = L.pose_consistency_loss(Tensor(a), Tensor(b)).item()
    brute = sum(abs(a[i, j] - b[i, j]) for i in range(4) for j in range(6))
    assert abs(got - brute) <= 1e-12
    assert got == L.pose_consistency_loss(Tensor(b), Tensor(a)).item()


def test_pose_consistency_length_mismatch():
    with pytest.raises(ShapeError):
        L.pose_consistency_loss(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6))))


@pytest.fixture
def rig():
    return geo.make_rig(40.0, 40.0, 15.5, 7.5, 32, 16, 0.4)


def test_constant_disparity_zero_smoothness(rig):
    idepth = Tensor(np.full((16, 32), 0.2))
    img = Tensor(np.random.default_rng(0).random((16, 32, 3)))
    sm, _, _ = L.depth_terms(idepth, idepth, img, img, rig)
    assert sm.item() == 0.0


def test_zero_disparity_zero_regularizer(rig):
    zero = Tensor(np.zeros((16, 32)))
    img = Tensor(np.zeros((16, 32, 3)))
    _, lr, reg = L.depth_terms(zero, zero, img, img, rig)
    assert reg.item() == 0.0
    assert lr.item() == 0.0


def test_consistent_synthetic_stereo_low_lr(rig, tmp_path):
    from flowvo.synthscene import SceneSpec, motion_poses, render_view

    spec = SceneSpec(seed=5, n_frames=1, width=rig.width, height=rig.height,
                     fx=rig.fx, fy=rig.fy, cx=rig.cx, cy=rig.cy,
                     baseline=rig.baseline)
    pose = motion_poses(spec)[0]
    img_l, depth_l, _ = render_view(spec, pose, 0, rig)
    img_r, depth_r, _ = render_view(spec, pose @ rig.right_to_left, 0, rig)
    _, lr, _ = L.depth_terms(Tensor(1.0 / depth_l), Tensor(1.0 / depth_r),
                             Tensor(img_l), Tensor(img_r), rig)
    assert lr.item() <= 1e-3


def test_total_loss_paper_weights_and_linearity():
    cfg = L.LossConfig(lambda_sm=0.1, lambda_lr=0.4, lambda_reg=0.02, lambda_pc=1.0)
    one = Tensor(1.0)
    zero = Tensor(0.0)
    assert L.total_loss(zero, zero, zero, zero, zero, cfg).item() == 0.0
    total = L.total_loss(one, one, one, one, one, cfg).item()
    assert abs(total - 2.52) < 1e-12
    cfg2 = L.LossConfig(lambda_sm=0.1, lambda_lr=0.4, lambda_reg=0.02, lambda_pc=2.0)
    total2 = L.total_loss(one, one, one, one, one, cfg2).item()
    assert abs((total2 - total) - 1.0) < 1e-12


def test_loss_config_validation():
    with pytest.raises(ContractError):
        L.LossConfig(alpha=1.5)
    with pytest.raises(ContractError):
        L.LossConfig(lambda_pc=-0.1)
    with pytest.raises(ContractError):
        L.LossConfig(ssim_window=4)
