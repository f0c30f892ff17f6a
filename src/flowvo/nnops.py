"""Network-layer primitives on top of the tensor engine.

Convolutions use an HWC layout on single images (the trainer loops over
batch elements), kernels are (k, k, c_in, c_out). conv2d requires odd
kernels with explicit symmetric zero padding; output size is
floor((H + 2p - k) / s) + 1.

Every windowed op goes through one pair: `_im2col` views the k x k
windows of an image at stride s, and `_col2im`, its adjoint, scatter-adds
windows back into an image. conv2d is im2col then a matmul; its backward
is a matmul then col2im. transposed_conv2d is the adjoint of that: its
forward is a matmul then col2im, its backward im2col then matmuls.
avg_pool2d's backward is col2im of the spread gradient.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    _make,
    concat,
    mean,
    reshape,
    sqrt,
)


def _require_hwc(name, t, channels=None):
    if t.ndim != 3:
        raise ShapeError(f"{name}: expected (H, W, C) input, got {t.shape}")
    if channels is not None and t.shape[2] != channels:
        raise ShapeError(f"{name}: expected {channels} channels, got shape {t.shape}")


def _im2col(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """(ho, wo, k, k, c) view of the k x k windows of `xp` (H, W, C) at stride s."""
    win = sliding_window_view(xp, (k, k), axis=(0, 1))[:s * ho:s, :s * wo:s]
    return win.transpose(0, 1, 3, 4, 2)


def _col2im(cols: np.ndarray, shape: tuple, s: int) -> np.ndarray:
    """Adjoint of `_im2col`: sum (ho, wo, k, k, c) windows into zeros of `shape`."""
    ho, wo, k = cols.shape[:3]
    out = np.zeros(shape)
    for ki in range(k):
        for kj in range(k):
            out[ki:ki + s * ho:s, kj:kj + s * wo:s] += cols[:, :, ki, kj]
    return out


def _check_conv_args(name: str, x: Tensor, w: Tensor, b: Tensor | None) -> None:
    _require_hwc(name, x)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"{name}: kernel must be (k, k, c_in, c_out), got {w.shape}")
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"{name}: input has {x.shape[2]} channels, kernel expects {w.shape[2]}")
    if b is not None and b.shape != (w.shape[3],):
        raise ShapeError(f"{name}: bias shape {b.shape} != ({w.shape[3]},)")


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    _check_conv_args("conv2d", x, w, b)
    k = w.shape[0]
    if k % 2 == 0:
        raise ContractError(f"conv2d: kernel size must be odd, got {k}")
    h, wd, cin = x.shape
    cout = w.shape[3]
    s, p = int(stride), int(padding)
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d: output would be empty for input {x.shape}, k={k}, s={s}, p={p}")

    xp = np.pad(x.data, ((p, p), (p, p), (0, 0))) if p else x.data
    cols = _im2col(xp, k, s, ho, wo).reshape(ho * wo, k * k * cin)
    wmat = w.data.reshape(k * k * cin, cout)
    out = cols @ wmat
    if b is not None:
        out = out + b.data

    def bw(g):
        gmat = g.reshape(ho * wo, cout)
        dw = (cols.T @ gmat).reshape(k, k, cin, cout)
        # the padded shape is spelled out: naming xp here would keep its copy alive
        dxp = _col2im((gmat @ wmat.T).reshape(ho, wo, k, k, cin), (h + 2 * p, wd + 2 * p, cin), s)
        dx = dxp[p:p + h, p:p + wd] if p else dxp
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=(0, 1)))

    return _make("conv2d", out.reshape(ho, wo, cout), (x, w) if b is None else (x, w, b), bw)


def transposed_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv2d; output size (H-1)*s + k - 2p."""
    _check_conv_args("transposed_conv2d", x, w, b)
    k = w.shape[0]
    h, wd, cin = x.shape
    cout = w.shape[3]
    s, p = int(stride), int(padding)
    hf = (h - 1) * s + k
    wf = (wd - 1) * s + k
    ho, wo = hf - 2 * p, wf - 2 * p
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"transposed_conv2d: output would be empty for input {x.shape}")

    xmat = x.data.reshape(h * wd, cin)
    # one stacked product per tap, (k*k, h*wd, cout): col2im adds contiguous
    # taps faster than the strided columns of one (h*wd, k*k*cout) product
    taps = np.matmul(xmat, w.data.reshape(k * k, cin, cout))
    full = _col2im(taps.reshape(k, k, h, wd, cout).transpose(2, 3, 0, 1, 4), (hf, wf, cout), s)
    out = full[p:p + ho, p:p + wo]
    if b is not None:
        out = out + b.data

    def bw(g):
        gfull = np.zeros((hf, wf, cout))
        gfull[p:p + ho, p:p + wo] = g
        gcols = _im2col(gfull, k, s, h, wd).reshape(h * wd, k * k * cout)
        # (cin, k*k*cout): row c holds every tap's weights for input channel c
        wmat = w.data.transpose(2, 0, 1, 3).reshape(cin, k * k * cout)
        dx = (gcols @ wmat.T).reshape(h, wd, cin)
        dw = (xmat.T @ gcols).reshape(cin, k, k, cout).transpose(1, 2, 0, 3)
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=(0, 1)))

    return _make("transposed_conv2d", out, (x, w) if b is None else (x, w, b), bw)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Mean over k x k windows; zero padding counts toward the divisor."""
    _require_hwc("avg_pool2d", x)
    k = int(kernel)
    s = k if stride is None else int(stride)
    p = int(padding)
    h, wd, c = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"avg_pool2d: output would be empty for input {x.shape}, k={k}")
    xp = np.pad(x.data, ((p, p), (p, p), (0, 0))) if p else x.data
    # integral image: window sum = S[i+k,j+k] - S[i,j+k] - S[i+k,j] + S[i,j]
    integral = np.zeros((xp.shape[0] + 1, xp.shape[1] + 1, c))
    np.cumsum(xp, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    r0 = slice(0, s * ho, s)
    r1 = slice(k, k + s * ho, s)
    c0 = slice(0, s * wo, s)
    c1 = slice(k, k + s * wo, s)
    out = (integral[r1, c1] - integral[r0, c1]
           - integral[r1, c0] + integral[r0, c0]) / (k * k)

    def bw(g):
        cols = np.broadcast_to((g / (k * k))[:, :, None, None, :], (ho, wo, k, k, c))
        dxp = _col2im(cols, (h + 2 * p, wd + 2 * p, c), s)
        return (dxp[p:p + h, p:p + wd] if p else dxp,)

    return _make("avg_pool2d", out, (x,), bw)


def layer_norm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance over `axis` (no affine terms)."""
    mu = mean(x, axis=axis, keepdims=True)
    centered = x - mu
    var = mean(centered * centered, axis=axis, keepdims=True)
    return centered / sqrt(var + eps)


def dropout(x: Tensor, rate: float, rng_seed: int) -> Tensor:
    """Inverted dropout with a seed-determined mask; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    rng = np.random.default_rng(rng_seed)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make("dropout", x.data * mask, (x,), lambda g: (g * mask,))


def fully_connected(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (n, d_in) or (d_in,)."""
    if w.ndim != 2:
        raise ShapeError(f"fully_connected: weight must be 2-D, got {w.shape}")
    din, dout = w.shape
    if b.shape != (dout,):
        raise ShapeError(f"fully_connected: bias shape {b.shape} != ({dout},)")
    flat = x.ndim == 1
    if (flat and x.shape[0] != din) or (not flat and (x.ndim != 2 or x.shape[1] != din)):
        raise ShapeError(f"fully_connected: input {x.shape} incompatible with weight {w.shape}")
    xd = x.data.reshape(1, din) if flat else x.data
    out = xd @ w.data + b.data

    def bw(g):
        gm = g.reshape(1, dout) if flat else g
        dx = gm @ w.data.T
        return (dx.reshape(x.shape), xd.T @ gm, gm.sum(axis=0))

    return _make("fully_connected", out[0] if flat else out, (x, w, b), bw)


def grid_sample_bilinear(image: Tensor, coords: Tensor) -> Tensor:
    """Sample `image` (H, W, C) at pixel `coords` (Ho, Wo, 2), x then y.

    Coordinates are clamped to the border; use grid_sample_valid_mask to
    exclude out-of-bounds samples downstream. Gradients flow to both the
    image and the coordinates (zero where a coordinate is clamped).
    """
    _require_hwc("grid_sample_bilinear", image)
    if coords.ndim != 3 or coords.shape[2] != 2:
        raise ShapeError(f"grid_sample_bilinear: coords must be (H, W, 2), got {coords.shape}")
    h, w, c = image.shape
    cx = np.clip(coords.data[..., 0], 0.0, w - 1.0)
    cy = np.clip(coords.data[..., 1], 0.0, h - 1.0)
    if w > 1:
        x0 = np.minimum(np.floor(cx), w - 2).astype(np.intp)
        wx = cx - x0
        x1 = x0 + 1
    else:
        x0 = x1 = np.zeros(cx.shape, dtype=np.intp)
        wx = np.zeros_like(cx)
    if h > 1:
        y0 = np.minimum(np.floor(cy), h - 2).astype(np.intp)
        wy = cy - y0
        y1 = y0 + 1
    else:
        y0 = y1 = np.zeros(cy.shape, dtype=np.intp)
        wy = np.zeros_like(cy)

    flat = image.data.reshape(h * w, c)
    base0 = y0 * w
    base1 = y1 * w
    i00 = np.take(flat, base0 + x0, axis=0)
    i01 = np.take(flat, base0 + x1, axis=0)
    i10 = np.take(flat, base1 + x0, axis=0)
    i11 = np.take(flat, base1 + x1, axis=0)
    wxe = wx[..., None]
    wye = wy[..., None]
    out = ((1 - wye) * ((1 - wxe) * i00 + wxe * i01)
           + wye * ((1 - wxe) * i10 + wxe * i11))

    in_x = (coords.data[..., 0] >= 0.0) & (coords.data[..., 0] <= w - 1.0)
    in_y = (coords.data[..., 1] >= 0.0) & (coords.data[..., 1] <= h - 1.0)

    def bw(g):
        # one bincount per corner over channel-major bins (channel * h*w + pixel),
        # each summing its samples in output order; rows keep the loops long
        gt = g.reshape(-1, c).T
        offsets = np.arange(c)[:, None] * (h * w)
        dflat = np.zeros(c * h * w)
        for idx, wgt in (((base0 + x0), (1 - wye) * (1 - wxe)),
                         ((base0 + x1), (1 - wye) * wxe),
                         ((base1 + x0), wye * (1 - wxe)),
                         ((base1 + x1), wye * wxe)):
            bins = offsets + idx.reshape(1, -1)
            dflat += np.bincount(bins.reshape(-1), weights=(gt * wgt.reshape(1, -1)).reshape(-1),
                                 minlength=c * h * w)
        dgx = (g * ((1 - wye) * (i01 - i00) + wye * (i11 - i10))).sum(axis=-1) * in_x
        dgy = (g * ((1 - wxe) * (i10 - i00) + wxe * (i11 - i01))).sum(axis=-1) * in_y
        return dflat.reshape(c, h, w).transpose(1, 2, 0), np.stack([dgx, dgy], axis=-1)

    return _make("grid_sample_bilinear", out, (image, coords), bw)


def grid_sample_valid_mask(coords_data: np.ndarray, width: int, height: int) -> np.ndarray:
    """Boolean mask of coords falling inside the source image bounds."""
    x = coords_data[..., 0]
    y = coords_data[..., 1]
    return (x >= 0.0) & (x <= width - 1.0) & (y >= 0.0) & (y <= height - 1.0)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling, expressed with reshape/concat."""
    _require_hwc("upsample_nearest2x", x)
    h, w, c = x.shape
    t = reshape(x, (h, 1, w, 1, c))
    t = concat([t, t], axis=1)
    t = concat([t, t], axis=3)
    return reshape(t, (2 * h, 2 * w, c))
