"""Network-layer primitives on top of the tensor engine.

Spatial ops use the NHWC layout: an image is (H, W, C), and a leading N
stacks N images that the op treats independently, so the trainer runs a
whole batch through one call; an (H, W, C) input is the N = 1 case.
Kernels are (k, k, c_in, c_out). conv2d requires odd kernels with explicit
symmetric zero padding; output size is floor((H + 2p - k) / s) + 1.

Every windowed op goes through one pair: `_im2col` views the k x k
windows of a stack at stride s, and `_col2im`, its adjoint, scatter-adds
windows back. conv2d is im2col then a matmul. Its weight gradient is the
im2col copy (rebuilt in backward, not kept from forward) times the output
gradient. At stride 1 its input gradient is a correlation of the
(k-1-p)-padded output gradient with the flipped, transposed kernel: one
im2col and matmul, cheaper than col2im's k*k strided scatter-adds over
full-resolution maps. At stride 2 it is a matmul then col2im, since the
correlation form would need a zero-dilated gradient (2-7x slower at the
encoder shapes). transposed_conv2d is the adjoint of conv2d: a matmul then
col2im forward, im2col then matmuls backward. avg_pool2d's backward is
col2im of the spread gradient. Only the pyramids call it (k = s = 2); no
pipeline code pools at stride 1, since SSIM's window means are box sums.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    _make,
    mean,
    sqrt,
)


def _nhwc(name: str, t: Tensor) -> np.ndarray:
    """The data of an (H, W, C) or (N, H, W, C) tensor as (N, H, W, C)."""
    if t.ndim not in (3, 4):
        raise ShapeError(f"{name}: expected (H, W, C) or (N, H, W, C) input, got {t.shape}")
    return t.data.reshape(-1, *t.shape[-3:])


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else x


def _im2col(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """(N, ho, wo, k, k, c) view of the k x k windows of `xp` (N, H, W, C) at stride s."""
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, :s * ho:s, :s * wo:s]
    return win.transpose(0, 1, 2, 4, 5, 3)


def _col2im(cols: np.ndarray, shape: tuple, s: int) -> np.ndarray:
    """Adjoint of `_im2col`: sum (N, ho, wo, k, k, c) windows into zeros of `shape`."""
    ho, wo, k = cols.shape[1:4]
    out = np.zeros(shape)
    for ki in range(k):
        for kj in range(k):
            out[:, ki:ki + s * ho:s, kj:kj + s * wo:s] += cols[:, :, :, ki, kj]
    return out


def _check_conv_args(name: str, x: Tensor, w: Tensor, b: Tensor | None) -> np.ndarray:
    """Validates the operands; returns the input as (N, H, W, C)."""
    xd = _nhwc(name, x)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"{name}: kernel must be (k, k, c_in, c_out), got {w.shape}")
    if w.shape[2] != x.shape[-1]:
        raise ShapeError(f"{name}: input has {x.shape[-1]} channels, kernel expects {w.shape[2]}")
    if b is not None and b.shape != (w.shape[3],):
        raise ShapeError(f"{name}: bias shape {b.shape} != ({w.shape[3]},)")
    return xd


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    xd = _check_conv_args("conv2d", x, w, b)
    k = w.shape[0]
    if k % 2 == 0:
        raise ContractError(f"conv2d: kernel size must be odd, got {k}")
    n, h, wd, cin = xd.shape
    cout = w.shape[3]
    s, p = int(stride), int(padding)
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d: output would be empty for input {x.shape}, k={k}, s={s}, p={p}")

    def cols() -> np.ndarray:
        return _im2col(_pad(_nhwc("conv2d", x), p), k, s, ho, wo).reshape(n * ho * wo, k * k * cin)

    wmat = w.data.reshape(k * k * cin, cout)
    out = cols() @ wmat
    if b is not None:
        out += b.data

    def bw(g):
        gmat = g.reshape(n * ho * wo, cout)
        # the im2col copy is rebuilt rather than kept: holding every layer's
        # copy from forward to backward raised peak memory more than rebuilding costs
        dw = (cols().T @ gmat).reshape(k, k, cin, cout)
        if not x.requires_grad:
            dx = None
        elif s == 1 and p < k:
            # correlation with the flipped, transposed kernel over the
            # (k-1-p)-padded gradient: one im2col and one matmul, no scatter
            wflip = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
            gcols = _im2col(_pad(g.reshape(n, ho, wo, cout), k - 1 - p), k, 1, h, wd)
            dx = (gcols.reshape(n * h * wd, k * k * cout) @ wflip).reshape(x.shape)
        else:
            dxp = _col2im((gmat @ wmat.T).reshape(n, ho, wo, k, k, cin),
                          (n, h + 2 * p, wd + 2 * p, cin), s)
            dx = dxp[:, p:p + h, p:p + wd].reshape(x.shape)
        return (dx, dw) if b is None else (dx, dw, gmat.sum(axis=0))

    return _make("conv2d", out.reshape(*x.shape[:-3], ho, wo, cout),
                 (x, w) if b is None else (x, w, b), bw)


def transposed_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv2d; output size (H-1)*s + k - 2p."""
    n, h, wd, cin = _check_conv_args("transposed_conv2d", x, w, b).shape
    k = w.shape[0]
    cout = w.shape[3]
    s, p = int(stride), int(padding)
    hf = (h - 1) * s + k
    wf = (wd - 1) * s + k
    ho, wo = hf - 2 * p, wf - 2 * p
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"transposed_conv2d: output would be empty for input {x.shape}")

    xmat = x.data.reshape(n * h * wd, cin)
    # one stacked product per tap, (k*k, n*h*wd, cout): col2im adds contiguous
    # taps faster than the strided columns of one (n*h*wd, k*k*cout) product
    taps = np.matmul(xmat, w.data.reshape(k * k, cin, cout))
    full = _col2im(taps.reshape(k, k, n, h, wd, cout).transpose(2, 3, 4, 0, 1, 5),
                   (n, hf, wf, cout), s)
    out = full[:, p:p + ho, p:p + wo]
    if b is not None:
        out = out + b.data

    def bw(g):
        gfull = np.zeros((n, hf, wf, cout))
        gfull[:, p:p + ho, p:p + wo] = g.reshape(n, ho, wo, cout)
        gcols = _im2col(gfull, k, s, h, wd).reshape(n * h * wd, k * k * cout)
        # (cin, k*k*cout): row c holds every tap's weights for input channel c
        wmat = w.data.transpose(2, 0, 1, 3).reshape(cin, k * k * cout)
        dx = (gcols @ wmat.T).reshape(x.shape) if x.requires_grad else None
        dw = (xmat.T @ gcols).reshape(cin, k, k, cout).transpose(1, 2, 0, 3)
        return (dx, dw) if b is None else (dx, dw, g.reshape(-1, cout).sum(axis=0))

    return _make("transposed_conv2d", out.reshape(*x.shape[:-3], ho, wo, cout),
                 (x, w) if b is None else (x, w, b), bw)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Mean over k x k windows at stride s (default k), without padding."""
    xd = _nhwc("avg_pool2d", x)
    k = int(kernel)
    s = k if stride is None else int(stride)
    n, h, wd, c = xd.shape
    ho = (h - k) // s + 1
    wo = (wd - k) // s + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"avg_pool2d: output would be empty for input {x.shape}, k={k}")
    # integral image: window sum = S[i+k,j+k] - S[i,j+k] - S[i+k,j] + S[i,j]
    integral = np.zeros((n, h + 1, wd + 1, c))
    np.cumsum(xd, axis=1, out=integral[:, 1:, 1:])
    np.cumsum(integral[:, 1:, 1:], axis=2, out=integral[:, 1:, 1:])
    r0 = slice(0, s * ho, s)
    r1 = slice(k, k + s * ho, s)
    c0 = slice(0, s * wo, s)
    c1 = slice(k, k + s * wo, s)
    out = (integral[:, r1, c1] - integral[:, r0, c1]
           - integral[:, r1, c0] + integral[:, r0, c0]) / (k * k)

    def bw(g):
        gk = (g / (k * k)).reshape(n, ho, wo, 1, 1, c)
        return (_col2im(np.broadcast_to(gk, (n, ho, wo, k, k, c)), (n, h, wd, c), s).reshape(x.shape),)

    return _make("avg_pool2d", out.reshape(*x.shape[:-3], ho, wo, c), (x,), bw)


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
    """x @ w + b for x of shape (d_in,) or (n, d_in)."""
    if w.ndim != 2:
        raise ShapeError(f"fully_connected: weight must be 2-D, got {w.shape}")
    din, dout = w.shape
    if b.shape != (dout,):
        raise ShapeError(f"fully_connected: bias shape {b.shape} != ({dout},)")
    if x.ndim not in (1, 2) or x.shape[-1] != din:
        raise ShapeError(f"fully_connected: input {x.shape} incompatible with weight {w.shape}")
    xd = x.data.reshape(-1, din)
    out = xd @ w.data + b.data

    def bw(g):
        gm = g.reshape(-1, dout)
        return ((gm @ w.data.T).reshape(x.shape), xd.T @ gm, gm.sum(axis=0))

    return _make("fully_connected", out.reshape(*x.shape[:-1], dout), (x, w, b), bw)


def _corner(c: np.ndarray, size: int) -> tuple:
    """Lower index, weight of the upper index, and upper index of each
    coordinate clamped to [0, size - 1] (one index with weight 0 if size is 1)."""
    c = np.clip(c, 0.0, size - 1.0)
    lo = np.minimum(np.floor(c), max(size - 2, 0)).astype(np.intp)
    return lo, c - lo, lo + (size > 1)


def grid_sample_bilinear(image: Tensor, coords: Tensor) -> Tensor:
    """Sample `image` (H, W, C) at pixel `coords` (Ho, Wo, 2), x then y; with a
    leading N, element i of `coords` samples element i of `image`.

    Coordinates are clamped to the border; use grid_sample_valid_mask to
    exclude out-of-bounds samples downstream. Gradients flow to the image
    and the coordinates (zero where a coordinate is clamped), each only when
    it requires one.
    """
    n, h, w, c = _nhwc("grid_sample_bilinear", image).shape
    if coords.ndim != image.ndim or coords.shape[-1] != 2 or coords.shape[:-3] != image.shape[:-3]:
        raise ShapeError(f"grid_sample_bilinear: coords {coords.shape} must be "
                         f"(H, W, 2) with the leading axes of image {image.shape}")
    cd = coords.data.reshape(n, -1, 2)
    x0, wx, x1 = _corner(cd[..., 0], w)
    y0, wy, y1 = _corner(cd[..., 1], h)

    flat = image.data.reshape(n * h * w, c)
    first = np.arange(n)[:, None] * (h * w)  # row of element i's first pixel
    base0 = y0 * w + first
    base1 = y1 * w + first
    i00 = np.take(flat, base0 + x0, axis=0)
    i01 = np.take(flat, base0 + x1, axis=0)
    i10 = np.take(flat, base1 + x0, axis=0)
    i11 = np.take(flat, base1 + x1, axis=0)
    wxe = wx[..., None]
    wye = wy[..., None]
    out = ((1 - wye) * ((1 - wxe) * i00 + wxe * i01)
           + wye * ((1 - wxe) * i10 + wxe * i11))

    in_x = (cd[..., 0] >= 0.0) & (cd[..., 0] <= w - 1.0)
    in_y = (cd[..., 1] >= 0.0) & (cd[..., 1] <= h - 1.0)

    def bw(g):
        g = g.reshape(out.shape)
        dimg = dcoords = None
        if image.requires_grad:
            # one bincount per corner over channel-major bins (channel * n*h*w + pixel),
            # each summing its samples in output order; rows keep the loops long
            gt = g.reshape(-1, c).T
            offsets = np.arange(c)[:, None] * (n * h * w)
            dflat = np.zeros(c * n * h * w)
            for idx, wgt in (((base0 + x0), (1 - wye) * (1 - wxe)),
                             ((base0 + x1), (1 - wye) * wxe),
                             ((base1 + x0), wye * (1 - wxe)),
                             ((base1 + x1), wye * wxe)):
                bins = offsets + idx.reshape(1, -1)
                dflat += np.bincount(bins.reshape(-1), weights=(gt * wgt.reshape(1, -1)).reshape(-1),
                                     minlength=c * n * h * w)
            dimg = dflat.reshape(c, n * h * w).T.reshape(image.shape)
        if coords.requires_grad:
            dgx = (g * ((1 - wye) * (i01 - i00) + wye * (i11 - i10))).sum(axis=-1) * in_x
            dgy = (g * ((1 - wxe) * (i10 - i00) + wxe * (i11 - i01))).sum(axis=-1) * in_y
            dcoords = np.stack([dgx, dgy], axis=-1).reshape(coords.shape)
        return dimg, dcoords

    return _make("grid_sample_bilinear", out.reshape(*coords.shape[:-1], c), (image, coords), bw)


def grid_sample_valid_mask(coords_data: np.ndarray, width: int, height: int) -> np.ndarray:
    """Boolean mask of coords falling inside the source image bounds."""
    x = coords_data[..., 0]
    y = coords_data[..., 1]
    return (x >= 0.0) & (x <= width - 1.0) & (y >= 0.0) & (y <= height - 1.0)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling; backward sums each 2 x 2 block."""
    _nhwc("upsample_nearest2x", x)
    *lead, h, w, c = x.shape
    blocks = (*lead, h, 2, w, 2, c)
    out = np.broadcast_to(x.data[..., :, None, :, None, :], blocks).reshape(*lead, 2 * h, 2 * w, c)
    return _make("upsample_nearest2x", out, (x,),
                 lambda g: (g.reshape(blocks).sum(axis=(-4, -2)),))
