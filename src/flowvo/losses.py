"""Self-supervision objectives: photometric reconstruction, depth
regularity, pose consistency, and their weighted combination.

The photometric term blends a local-window structural similarity score
with an L1 intensity difference. SSIM statistics are computed on the
window-valid interior only, and the validity mask is eroded by the window
radius so no statistic straddles invalid pixels.

`ssim` and `image_synthesis_loss` are one tape node each. Their window means
are box sums of [a, b, a^2, b^2, ab] by k shifted adds per axis (no cumsum
cancellation); the hand-written backward box-sums the map's padded partials.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .geometry import CameraRig, stereo_shift_coords
from .nnops import grid_sample_bilinear
from .tensor import ContractError, ShapeError, Tensor, _make


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


def _box_sum(x: np.ndarray, k: int) -> np.ndarray:
    """Valid k x k window sums over the (H, W) axes of (..., H, W, C) arrays."""
    ho, wo = x.shape[-3] - k + 1, x.shape[-2] - k + 1
    rows = x[..., :ho, :, :].copy()
    for i in range(1, k):
        rows += x[..., i:i + ho, :, :]
    out = rows[..., :wo, :].copy()
    for j in range(1, k):
        out += rows[..., j:j + wo, :]
    return out


def _channel_mean(x: np.ndarray) -> np.ndarray:
    # adding channel planes is about 5x faster than numpy's reduction over a short last axis
    return reduce(np.add, np.moveaxis(x, -1, 0)) / x.shape[-1]


def _ssim_fused(a: Tensor, b: Tensor, k: int, c1: float, c2: float, op: str):
    """Two equal (H, W), (H, W, C) or (N, H, W, C) images as (N, H, W, C) data, their SSIM
    map (N, H-k+1, W-k+1), and its adjoint: map gradient -> (da, db), None if not required."""
    shape = (1, *a.shape, 1) if a.ndim == 2 else (-1, *a.shape[-3:])
    if a.ndim not in (2, 3, 4) or a.shape != b.shape or min(shape[1:3]) < k:
        raise ShapeError(f"{op}: images {a.shape}, {b.shape} are not equal (H, W[, C]) "
                         f"or (N, H, W, C) with H, W >= {k}")
    ad, bd = a.data.reshape(shape), b.data.reshape(shape)
    stats = _box_sum(np.stack([ad, bd, ad * ad, bd * bd, ad * bd]), k) / (k * k)
    mu_a, mu_b, e_aa, e_bb, e_ab = stats
    ab, aa, bb = mu_a * mu_b, mu_a * mu_a, mu_b * mu_b
    num1, num2 = 2.0 * ab + c1, 2.0 * (e_ab - ab) + c2
    den1, den2 = aa + bb + c1, (e_aa - aa) + (e_bb - bb) + c2
    s = num1 * num2 / (den1 * den2)

    def grad(g: np.ndarray) -> tuple:
        n, ho, wo, c = s.shape
        g = g.reshape(n, ho, wo, 1) / (c * k * k)
        gd, gs = g / (den1 * den2), g * s
        # partials by E[a^2] = by E[b^2], by E[ab], by each mean (other * d_mu + own * d_own)
        d_mu = 2.0 * (num2 - num1) * gd
        d_own = 2.0 * gs * (1.0 / den2 - 1.0 / den1)
        need = [(mu_a, mu_b)] * a.requires_grad + [(mu_b, mu_a)] * b.requires_grad
        padded = np.zeros((2 + len(need), n, ho + 2 * k - 2, wo + 2 * k - 2, c))
        p_sq, p_ab, *p_mu = padded[:, :, k - 1:k - 1 + ho, k - 1:k - 1 + wo]
        np.divide(-gs, den2, out=p_sq)
        np.multiply(2.0 * num1, gd, out=p_ab)
        for p, (own, other) in zip(p_mu, need):
            np.multiply(d_mu, other, out=p)
            p += d_own * own
        t_sq, t_ab, *t_mu = _box_sum(padded, k)
        da = (t_mu[0] + 2.0 * ad * t_sq + bd * t_ab).reshape(a.shape) if a.requires_grad else None
        db = (t_mu[-1] + 2.0 * bd * t_sq + ad * t_ab).reshape(b.shape) if b.requires_grad else None
        return da, db

    return ad, bd, _channel_mean(s), grad


def ssim(a: Tensor, b: Tensor, window: int = 3,
         c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> Tensor:
    """Channel-averaged local SSIM map on the window-valid interior.

    Output shape is (H - w + 1, W - w + 1), with any leading N kept; values
    lie in [-1, 1].
    """
    _, _, out, grad = _ssim_fused(a, b, window, c1, c2, "ssim")
    return _make("ssim", out.reshape(*a.shape[:-3], *out.shape[1:]), (a, b), grad)


def erode_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary erosion of (..., H, W) masks with a (2r+1) square; output loses the r-pixel rim."""
    k = 2 * radius + 1
    return _box_sum(mask[..., None].astype(np.int32), k)[..., 0] == k * k


def masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of (..., H, W) values over the mask, per leading element; 0 where
    the mask is empty."""
    count = np.maximum(mask.sum(axis=(-2, -1)), 1).astype(np.float64)
    return (values * Tensor(mask.astype(np.float64))).sum(axis=(-2, -1)) / Tensor(count)


def image_synthesis_loss(recon: Tensor, target: Tensor,
                         mask: np.ndarray | None,
                         cfg: LossConfig | None = None) -> Tensor:
    """Masked mean of alpha*(1-SSIM)/2 + (1-alpha)*|recon-target|.

    Both terms are evaluated over the SSIM-valid interior with the validity
    mask eroded by the window radius. Images with a leading N give one
    mean per element, shape (N,). An element whose mask excludes every
    pixel yields 0 with a warning.
    """
    cfg = cfg or LossConfig()
    ad, bd, ssim_map, ssim_grad = _ssim_fused(recon, target, cfg.ssim_window, cfg.ssim_c1,
                                              cfg.ssim_c2, "image_synthesis_loss")
    h, w, c = ad.shape[1:]
    r = cfg.ssim_window // 2
    inner = erode_mask(np.ones((h, w), dtype=bool) if mask is None else mask, r)
    if not inner.any(axis=(-2, -1)).all():
        warnings.warn("image_synthesis_loss: mask excludes every pixel", RuntimeWarning)
    count = np.maximum(inner.sum(axis=(-2, -1)), 1).astype(np.float64)
    diff = ad[:, r:h - r, r:w - r] - bd[:, r:h - r, r:w - r]
    per_pixel = cfg.alpha * (1.0 - ssim_map) * 0.5 + (1.0 - cfg.alpha) * _channel_mean(np.abs(diff))
    out = (per_pixel * inner).sum(axis=(-2, -1)) / count

    def bw(g):
        # each element's gradient spread over its mask, split into the SSIM and L1 terms
        wgt = (g.reshape(-1) / count)[..., None, None] * inner
        da, db = ssim_grad(-0.5 * cfg.alpha * wgt)
        dl1 = np.sign(diff) * ((1.0 - cfg.alpha) / c * wgt[..., None])
        for d, sign in ((da, 1.0), (db, -1.0)):
            if d is not None:
                d.reshape(ad.shape)[:, r:h - r, r:w - r] += sign * dl1
        return da, db

    return _make("image_synthesis_loss", out.reshape(recon.shape[:-3]), (recon, target), bw)


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
    di_x = T.abs_(inv_depth[..., :, 1:] - inv_depth[..., :, :-1])
    di_y = T.abs_(inv_depth[..., 1:, :] - inv_depth[..., :-1, :])
    gi_x = T.mean(T.abs_(img[..., :, 1:, :] - img[..., :, :-1, :]), axis=-1)
    gi_y = T.mean(T.abs_(img[..., 1:, :, :] - img[..., :-1, :, :]), axis=-1)
    return ((di_x * T.exp(-gi_x)).mean(axis=(-2, -1))
            + (di_y * T.exp(-gi_y)).mean(axis=(-2, -1)))


def depth_terms(inv_depth_l: Tensor, inv_depth_r: Tensor,
                img_l: Tensor, img_r: Tensor,
                rig: CameraRig) -> tuple[Tensor, Tensor, Tensor]:
    """Edge-aware smoothness, warped left-right consistency, and magnitude
    regularization for one pyramid scale of inverse-depth maps (H, W);
    maps (N, H, W) give one value per element, shape (N,)."""
    smooth = (_smoothness(inv_depth_l, img_l) + _smoothness(inv_depth_r, img_r)) * 0.5

    def lr_term(a: Tensor, b: Tensor, toward_right: bool) -> Tensor:
        coords, valid = stereo_shift_coords(a, rig, toward_right)
        b_in_a = grid_sample_bilinear(T.reshape(b, (*b.shape, 1)), coords)
        return masked_mean(T.abs_(a - T.reshape(b_in_a, a.shape)), valid)

    lr = (lr_term(inv_depth_l, inv_depth_r, True) + lr_term(inv_depth_r, inv_depth_l, False)) * 0.5
    reg = (T.abs_(inv_depth_l).mean(axis=(-2, -1)) + T.abs_(inv_depth_r).mean(axis=(-2, -1))) * 0.5
    return smooth, lr, reg


def total_loss(l_is: Tensor, l_pc: Tensor, l_sm: Tensor, l_lr: Tensor,
               l_reg: Tensor, cfg: LossConfig) -> Tensor:
    """Weighted sum of all training objectives."""
    return (l_is + cfg.lambda_pc * l_pc + cfg.lambda_sm * l_sm
            + cfg.lambda_lr * l_lr + cfg.lambda_reg * l_reg)
