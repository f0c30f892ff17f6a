"""Self-supervision objectives: photometric reconstruction, depth
regularity, pose consistency, and their weighted combination.

The photometric term blends a local-window structural similarity score
with an L1 intensity difference. SSIM statistics are computed on the
window-valid interior only, and the validity mask is eroded by the window
radius so no statistic straddles invalid pixels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .geometry import CameraRig, stereo_shift_coords
from .nnops import avg_pool2d, grid_sample_bilinear
from .tensor import ContractError, ShapeError, Tensor


@dataclass
class LossConfig:
    alpha: float = 0.85
    lambda_pc: float = 1.0
    lambda_sm: float = 0.1
    lambda_lr: float = 0.4
    lambda_reg: float = 0.02
    ssim_window: int = 3
    ssim_c1: float = 0.01 ** 2
    ssim_c2: float = 0.03 ** 2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("lambda_pc", "lambda_sm", "lambda_lr", "lambda_reg"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be nonnegative")
        if self.ssim_window % 2 == 0 or self.ssim_window < 1:
            raise ContractError(f"ssim_window must be odd, got {self.ssim_window}")


def _as_hwc(img: Tensor) -> Tensor:
    if img.ndim == 2:
        return T.reshape(img, (*img.shape, 1))
    if img.ndim != 3:
        raise ShapeError(f"expected (H, W) or (H, W, C) image, got {img.shape}")
    return img


def ssim(a: Tensor, b: Tensor, window: int = 3,
         c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> Tensor:
    """Channel-averaged local SSIM map on the window-valid interior.

    Output shape is (H - w + 1, W - w + 1); values lie in [-1, 1].
    """
    a, b = _as_hwc(a), _as_hwc(b)
    if a.shape != b.shape:
        raise ShapeError(f"ssim: image shapes differ, {a.shape} vs {b.shape}")
    mu_a = avg_pool2d(a, window, stride=1)
    mu_b = avg_pool2d(b, window, stride=1)
    var_a = avg_pool2d(a * a, window, stride=1) - mu_a * mu_a
    var_b = avg_pool2d(b * b, window, stride=1) - mu_b * mu_b
    cov = avg_pool2d(a * b, window, stride=1) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return T.mean(num / den, axis=2)


def erode_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary erosion with a (2r+1) square; output loses the r-pixel rim."""
    h, w = mask.shape
    # windows of the output's size: the leading (2r+1, 2r+1) axes step through
    # the offsets, so `all` ANDs whole shifted planes (fast) instead of 3x3 blocks
    return sliding_window_view(mask, (h - 2 * radius, w - 2 * radius)).all(axis=(0, 1))


def masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    count = float(mask.sum())
    if count == 0.0:
        return Tensor(0.0)
    return (values * Tensor(mask.astype(np.float64))).sum() / count


def image_synthesis_loss(recon: Tensor, target: Tensor,
                         mask: np.ndarray | None,
                         cfg: LossConfig | None = None) -> Tensor:
    """Masked mean of alpha*(1-SSIM)/2 + (1-alpha)*|recon-target|.

    Both terms are evaluated over the SSIM-valid interior with the validity
    mask eroded by the window radius. An all-invalid mask yields 0 with a
    warning.
    """
    cfg = cfg or LossConfig()
    recon, target = _as_hwc(recon), _as_hwc(target)
    if recon.shape != target.shape:
        raise ShapeError(f"image shapes differ, {recon.shape} vs {target.shape}")
    h, w, _ = recon.shape
    r = cfg.ssim_window // 2
    if mask is None:
        mask = np.ones((h, w), dtype=bool)
    inner = erode_mask(mask, r)
    if not inner.any():
        warnings.warn("image_synthesis_loss: mask excludes every pixel", RuntimeWarning)
        return Tensor(0.0)
    l1 = T.mean(T.abs_(recon - target), axis=2)[r:h - r, r:w - r]
    ssim_map = ssim(recon, target, cfg.ssim_window, cfg.ssim_c1, cfg.ssim_c2)
    per_pixel = cfg.alpha * (1.0 - ssim_map) * 0.5 + (1.0 - cfg.alpha) * l1
    return masked_mean(per_pixel, inner)


def _stack_poses(poses) -> Tensor:
    if isinstance(poses, Tensor):
        return poses if poses.ndim == 2 else T.reshape(poses, (1, poses.shape[0]))
    return T.concat([T.reshape(p, (1, 6)) for p in poses], axis=0)


def pose_consistency_loss(poses_a, poses_b) -> Tensor:
    """Sum over the window of L1 differences between 6-vector poses."""
    a, b = _stack_poses(poses_a), _stack_poses(poses_b)
    if a.shape != b.shape:
        raise ShapeError(f"pose lists differ in shape: {a.shape} vs {b.shape}")
    return T.abs_(a - b).sum()


def _smoothness(inv_depth: Tensor, img: Tensor) -> Tensor:
    img = _as_hwc(img)
    di_x = T.abs_(inv_depth[:, 1:] - inv_depth[:, :-1])
    di_y = T.abs_(inv_depth[1:, :] - inv_depth[:-1, :])
    gi_x = T.mean(T.abs_(img[:, 1:] - img[:, :-1]), axis=2)
    gi_y = T.mean(T.abs_(img[1:, :] - img[:-1, :]), axis=2)
    return (di_x * T.exp(-gi_x)).mean() + (di_y * T.exp(-gi_y)).mean()


def depth_terms(inv_depth_l: Tensor, inv_depth_r: Tensor,
                img_l: Tensor, img_r: Tensor,
                rig: CameraRig) -> tuple[Tensor, Tensor, Tensor]:
    """Edge-aware smoothness, warped left-right consistency, and magnitude
    regularization for one pyramid scale of inverse-depth maps."""
    smooth = (_smoothness(inv_depth_l, img_l) + _smoothness(inv_depth_r, img_r)) * 0.5

    coords_lr, valid_lr = stereo_shift_coords(inv_depth_l, rig, toward_right=True)
    r_in_l = grid_sample_bilinear(T.reshape(inv_depth_r, (*inv_depth_r.shape, 1)), coords_lr)
    lr_left = masked_mean(T.abs_(inv_depth_l - T.reshape(r_in_l, inv_depth_l.shape)), valid_lr)

    coords_rl, valid_rl = stereo_shift_coords(inv_depth_r, rig, toward_right=False)
    l_in_r = grid_sample_bilinear(T.reshape(inv_depth_l, (*inv_depth_l.shape, 1)), coords_rl)
    lr_right = masked_mean(T.abs_(inv_depth_r - T.reshape(l_in_r, inv_depth_r.shape)), valid_rl)
    lr = (lr_left + lr_right) * 0.5

    reg = (T.abs_(inv_depth_l).mean() + T.abs_(inv_depth_r).mean()) * 0.5
    return smooth, lr, reg


def total_loss(l_is: Tensor, l_pc: Tensor, l_sm: Tensor, l_lr: Tensor,
               l_reg: Tensor, cfg: LossConfig) -> Tensor:
    """Weighted sum of all training objectives."""
    return (l_is + cfg.lambda_pc * l_pc + cfg.lambda_sm * l_sm
            + cfg.lambda_lr * l_lr + cfg.lambda_reg * l_reg)
