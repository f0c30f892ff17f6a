"""The three trainable networks, desk-scale.

* DepthNet: encoder-decoder emitting left/right inverse depth at 4 scales.
* FlowPoseNet: pairwise estimator. An initial-flow stage (trainable mini
  flow net, an injected ground-truth fixture, or disabled), a stride-2
  feature encoder shared by a pose head (two separate stacks of three
  fully-connected layers for rotation and translation) and an optional
  flow decoder producing 4 flow scales.
* TapeNet: windowed estimator. Per-group conv embedding with spatial
  average pooling, sinusoidal position encoding, one multi-head
  self-attention + feed-forward block, and a position-wise projection to
  6-DoF poses.

All parameters are float64 tensors initialized uniformly with fan-in
scaling from a fixed seed. Checkpoints are a named parameter table:
magic, version, then (name, shape, little-endian float64 data) records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import (
    avg_pool2d,
    conv2d,
    dropout,
    fully_connected,
    layer_norm,
    transposed_conv2d,
    upsample_nearest2x,
)
from .tensor import ContractError, ShapeError, Tensor

FLOW_INPUT_SCALE = 0.1  # conditioning: pixel flows enter conv stacks scaled down


@dataclass
class AttentionConfig:
    d_model: int = 64
    n_heads: int = 2
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ContractError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_v(self) -> int:
        return self.d_model // self.n_heads


IFG_MODES = ("none", "fixture", "trainable")


@dataclass
class ModelConfig:
    """Field order is the checkpoint's `cfg/model` layout (format version 1)."""

    d_model: int = 64
    n_heads: int = 2
    dropout: float = 0.1
    depth_base: int = 8
    flow_base: int = 12
    tape_base: int = 8
    ifg_mode: str = "fixture"  # one of IFG_MODES
    use_ffg: bool = False
    use_tape: bool = True
    min_depth: float = 0.5
    max_depth: float = 80.0
    rot_scale: float = 0.01
    trans_scale: float = 0.2
    position_encoding: bool = True
    tape_photometric: bool = False
    image_h: int = 64
    image_w: int = 128

    def __post_init__(self):
        if self.ifg_mode not in IFG_MODES:
            raise ContractError(f"unknown ifg_mode {self.ifg_mode!r}")
        for name in ("d_model", "n_heads", "depth_base", "flow_base", "tape_base",
                     "image_h", "image_w"):
            if getattr(self, name) < 1:
                raise ContractError(f"model.{name} must be >= 1, got {getattr(self, name)}")


# -- parameter plumbing -------------------------------------------------------


class ParamStore:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple, fan_in: int, bias_fill=None) -> Tensor:
        if name in self.params:
            raise ContractError(f"duplicate parameter {name}")
        if bias_fill is not None:
            arr = np.full(shape, float(bias_fill))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            arr = self.rng.uniform(-bound, bound, size=shape)
        t = Tensor(arr, requires_grad=True)
        self.params[name] = t
        return t


class Conv:
    def __init__(self, store: ParamStore, name: str, cin: int, cout: int,
                 k: int = 3, stride: int = 1, padding: int = 1, bias_init: float = 0.0):
        self.w = store.add(f"{name}.w", (k, k, cin, cout), fan_in=k * k * cin)
        self.b = store.add(f"{name}.b", (cout,), fan_in=1, bias_fill=bias_init)
        self.stride, self.padding = stride, padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class Encoder:
    """Stride-2 conv + ReLU stages; returns the features of every stage."""

    def __init__(self, store: ParamStore, prefix: str, cin: int, widths: list[int]):
        self.convs = []
        for i, cout in enumerate(widths):
            self.convs.append(Conv(store, f"{prefix}{i}", cin, cout, stride=2))
            cin = cout

    def __call__(self, x: Tensor) -> list[Tensor]:
        feats = []
        for conv in self.convs:
            x = T.relu(conv(x))
            feats.append(x)
        return feats


class Deconv2x:
    """Exact 2x upsampling: stride-2 transposed conv (k=3, p=0) cropped."""

    def __init__(self, store: ParamStore, name: str, cin: int, cout: int):
        self.w = store.add(f"{name}.w", (3, 3, cin, cout), fan_in=9 * cin)
        self.b = store.add(f"{name}.b", (cout,), fan_in=1, bias_fill=0.0)

    def __call__(self, x: Tensor) -> Tensor:
        h, w = x.shape[-3:-1]
        out = transposed_conv2d(x, self.w, self.b, stride=2, padding=0)
        return out[..., :2 * h, :2 * w, :]


class Linear:
    def __init__(self, store: ParamStore, name: str, din: int, dout: int,
                 bias_random: bool = False):
        self.w = store.add(f"{name}.w", (din, dout), fan_in=din)
        if bias_random:
            self.b = store.add(f"{name}.b", (dout,), fan_in=din)
        else:
            self.b = store.add(f"{name}.b", (dout,), fan_in=1, bias_fill=0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return fully_connected(x, self.w, self.b)


class SeedStream:
    """Deterministic per-call sub-seeds for dropout masks."""

    _M = 0xFFFFFFFFFFFFFFFF

    def __init__(self, base: int):
        self.base = int(base) & self._M
        self.counter = 0

    def next(self) -> int:
        self.counter += 1
        h = (self.base * 0x9E3779B185EBCA87 + self.counter * 0xC2B2AE3D27D4EB4F) & self._M
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & self._M
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & self._M
        return (h ^ (h >> 31)) & 0x7FFFFFFFFFFFFFFF


# -- attention -----------------------------------------------------------------


def attention_head(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v with the standard scale factor.

    Contractions are written as broadcast multiply + sum rather than BLAS
    matmul: each dot product then accumulates in a fixed index order, so
    permuting the two rows of a short window permutes the output bit-exactly
    (gemm kernels may fuse multiplies asymmetrically).
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention_head expects 2-D q, k, v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q columns {q.shape} must match k columns {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k rows {k.shape} must match v rows {v.shape}")
    n_q, d_k = q.shape
    n_k, d_v = v.shape
    logits = T.sum_(T.reshape(q, (n_q, 1, d_k)) * T.reshape(k, (1, n_k, d_k)),
                    axis=2) * (1.0 / np.sqrt(d_k))
    attn = T.softmax(logits, axis=1)
    return T.sum_(T.reshape(attn, (n_q, n_k, 1)) * T.reshape(v, (1, n_k, d_v)),
                  axis=1)


def sinusoidal_position_encoding(n: int, d_model: int) -> np.ndarray:
    pos = np.arange(n)[:, None]
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


# -- DepthNet -------------------------------------------------------------------


class DepthNet:
    """Monocular inverse-depth net; one forward yields left and right maps."""

    N_SCALES = 4

    def __init__(self, store: ParamStore, cfg: ModelConfig):
        b = cfg.depth_base
        self.cfg = cfg
        self.enc = Encoder(store, "depth.e", 3, [b, 2 * b, 4 * b, 8 * b])
        self.d3 = Conv(store, "depth.d3", 8 * b + 4 * b, 4 * b)
        self.d2 = Conv(store, "depth.d2", 4 * b + 2 * b, 2 * b)
        self.d1 = Conv(store, "depth.d1", 2 * b + b, b)
        self.d0 = Conv(store, "depth.d0", b, b)
        # bias starts predictions a few meters out, inside the photometric basin
        self.heads = [Conv(store, f"depth.h{s}", ch, 2, bias_init=-2.0)
                      for s, ch in enumerate([b, b, 2 * b, 4 * b])]

    def __call__(self, img: Tensor) -> list[Tensor]:
        """Returns inverse-depth maps (H/2^s, W/2^s, 2), scale 0 first; a
        leading N on the images is kept on the maps."""
        if img.ndim not in (3, 4) or img.shape[-1] != 3:
            raise ShapeError(f"DepthNet expects (H, W, 3) or (N, H, W, 3), got {img.shape}")
        if img.shape[-3] % 16 or img.shape[-2] % 16:
            raise ContractError(f"DepthNet input dims must be divisible by 16, got {img.shape}")
        e0, e1, e2, e3 = self.enc(img)
        u3 = T.relu(self.d3(T.concat([upsample_nearest2x(e3), e2], axis=-1)))
        u2 = T.relu(self.d2(T.concat([upsample_nearest2x(u3), e1], axis=-1)))
        u1 = T.relu(self.d1(T.concat([upsample_nearest2x(u2), e0], axis=-1)))
        u0 = T.relu(self.d0(upsample_nearest2x(u1)))
        id_min = 1.0 / self.cfg.max_depth
        id_max = 1.0 / self.cfg.min_depth
        maps = []
        for feat, head in zip([u0, u1, u2, u3], self.heads):
            maps.append(T.sigmoid(head(feat)) * (id_max - id_min) + id_min)
        return maps


# -- FlowPoseNet (pairwise estimator) -------------------------------------------


@dataclass
class FlowPoseOutput:
    pose: Tensor                 # (6,) cur->ref, (rx, ry, rz, tx, ty, tz); (N, 6) for N pairs
    flows: list[Tensor] | None   # 4 scales, each (N,) + (H/2^s, W/2^s, 2), or None
    initial_flow: Tensor | None


class MiniFlowNet:
    """Trainable initial-flow stage: a small image-pair encoder-decoder."""

    def __init__(self, store: ParamStore, base: int = 8):
        b = base
        self.enc = Encoder(store, "ifg.c", 6, [b, 2 * b])
        self.c2 = Conv(store, "ifg.c2", 2 * b, 2 * b)
        self.u1 = Conv(store, "ifg.u1", 2 * b + b, b)
        self.u0 = Conv(store, "ifg.u0", b, b)
        self.head = Conv(store, "ifg.flow", b, 2)

    def __call__(self, img_a: Tensor, img_b: Tensor) -> Tensor:
        e0, e1 = self.enc(T.concat([img_a, img_b], axis=-1))
        e1 = T.relu(self.c2(e1))
        u1 = T.relu(self.u1(T.concat([upsample_nearest2x(e1), e0], axis=-1)))
        u0 = T.relu(self.u0(upsample_nearest2x(u1)))
        return self.head(u0)


class FlowPoseNet:
    def __init__(self, store: ParamStore, cfg: ModelConfig):
        self.cfg = cfg
        b = cfg.flow_base
        in_ch = 6 if cfg.ifg_mode == "none" else 2
        image_hw = (cfg.image_h, cfg.image_w)
        if cfg.image_h % 16 or cfg.image_w % 16:
            raise ContractError(f"image dims must be divisible by 16, got {image_hw}")
        self.ifg = MiniFlowNet(store) if cfg.ifg_mode == "trainable" else None
        self.enc = Encoder(store, "f2f.e", in_ch, [b, 2 * b, 4 * b, 8 * b])
        self.pose_in = (image_hw[0] // 16) * (image_hw[1] // 16) * 8 * b
        feat = 8 * b
        # fc stacks read the flattened bottleneck: pose needs the spatial
        # layout of the flow features, which pooling would erase
        self.rot = [Linear(store, "f2f.rot0", self.pose_in, feat),
                    Linear(store, "f2f.rot1", feat, feat),
                    Linear(store, "f2f.rot2", feat, 3, bias_random=True)]
        self.trans = [Linear(store, "f2f.trans0", self.pose_in, feat),
                      Linear(store, "f2f.trans1", feat, feat),
                      Linear(store, "f2f.trans2", feat, 3, bias_random=True)]
        if cfg.use_ffg:
            self.g3 = Deconv2x(store, "f2f.g3", 8 * b, 4 * b)
            self.g3c = Conv(store, "f2f.g3c", 4 * b + 4 * b, 4 * b)
            self.g2 = Deconv2x(store, "f2f.g2", 4 * b, 2 * b)
            self.g2c = Conv(store, "f2f.g2c", 2 * b + 2 * b, 2 * b)
            self.g1 = Deconv2x(store, "f2f.g1", 2 * b, b)
            self.g1c = Conv(store, "f2f.g1c", b + b, b)
            self.g0 = Deconv2x(store, "f2f.g0", b, b)
            self.g0c = Conv(store, "f2f.g0c", b, b)
            self.flow_heads = [Conv(store, f"f2f.fh{s}", ch, 2)
                               for s, ch in enumerate([b, b, 2 * b, 4 * b])]

    def _fc_stack(self, stack, feats: Tensor) -> Tensor:
        x = feats
        for layer in stack[:-1]:
            x = T.relu(layer(x))
        return stack[-1](x)

    def __call__(self, img_a: Tensor, img_b: Tensor,
                 init_flow: Tensor | None = None) -> FlowPoseOutput:
        """Pose of frame b relative to frame a (maps b-coords into a-coords),
        plus refined flow a->b when the flow decoder is enabled. Images
        (N, H, W, 3) give N pairs at once."""
        if img_a.shape != img_b.shape:
            raise ShapeError(f"image pair shapes differ: {img_a.shape} vs {img_b.shape}")
        cfg = self.cfg
        if cfg.ifg_mode == "none":
            x = T.concat([img_a, img_b], axis=-1)
            initial = None
        else:
            if cfg.ifg_mode == "trainable":
                initial = self.ifg(img_a, img_b)
            else:
                if init_flow is None:
                    raise ContractError("ifg_mode='fixture' requires init_flow")
                initial = init_flow
            x = initial * FLOW_INPUT_SCALE
        e0, e1, e2, e3 = self.enc(x)
        feats = T.reshape(e3, (*e3.shape[:-3], self.pose_in))
        rot = self._fc_stack(self.rot, feats) * cfg.rot_scale
        trans = self._fc_stack(self.trans, feats) * cfg.trans_scale
        pose = T.concat([rot, trans], axis=-1)

        flows = None
        if cfg.use_ffg:
            u3 = T.relu(self.g3c(T.concat([self.g3(e3), e2], axis=-1)))
            u2 = T.relu(self.g2c(T.concat([self.g2(u3), e1], axis=-1)))
            u1 = T.relu(self.g1c(T.concat([self.g1(u2), e0], axis=-1)))
            u0 = T.relu(self.g0c(self.g0(u1)))
            flows = [self.flow_heads[0](u0), self.flow_heads[1](u1),
                     self.flow_heads[2](u2), self.flow_heads[3](u3)]
        elif initial is not None:
            flows = flow_pyramid(initial)
        return FlowPoseOutput(pose=pose, flows=flows, initial_flow=initial)


def flow_pyramid(flow: Tensor, n_scales: int = 4) -> list[Tensor]:
    """Downsampled flow pyramid; magnitudes rescale with resolution."""
    out = [flow]
    for _ in range(1, n_scales):
        out.append(avg_pool2d(out[-1], 2) * 0.5)
    return out


# -- TapeNet (windowed estimator) ------------------------------------------------


class TapeNet:
    def __init__(self, store: ParamStore, cfg: ModelConfig):
        self.cfg = cfg
        self.attn = AttentionConfig(cfg.d_model, cfg.n_heads, cfg.dropout)
        b = cfg.tape_base
        self.enc = Encoder(store, "tape.e", 4, [b, 2 * b, 4 * b, 8 * b])
        self.embed = Linear(store, "tape.embed", 8 * b, cfg.d_model)
        d_model, d_k = cfg.d_model, self.attn.d_k
        self.wq = [store.add(f"tape.h{i}.wq", (d_model, d_k), fan_in=d_model)
                   for i in range(cfg.n_heads)]
        self.wk = [store.add(f"tape.h{i}.wk", (d_model, d_k), fan_in=d_model)
                   for i in range(cfg.n_heads)]
        self.wv = [store.add(f"tape.h{i}.wv", (d_model, d_k), fan_in=d_model)
                   for i in range(cfg.n_heads)]
        self.ln1_g = store.add("tape.ln1.g", (d_model,), fan_in=1, bias_fill=1.0)
        self.ln1_b = store.add("tape.ln1.b", (d_model,), fan_in=1, bias_fill=0.0)
        self.ffn1 = Linear(store, "tape.ffn1", d_model, 2 * d_model)
        self.ffn2 = Linear(store, "tape.ffn2", 2 * d_model, d_model)
        self.ln2_g = store.add("tape.ln2.g", (d_model,), fan_in=1, bias_fill=1.0)
        self.ln2_b = store.add("tape.ln2.b", (d_model,), fan_in=1, bias_fill=0.0)
        self.out = Linear(store, "tape.out", d_model, 6, bias_random=True)

    def encode(self, groups, position_encoding: bool | None = None) -> Tensor:
        """Embed depth/flow groups into (n, d_model). `groups` is a list of
        (H, W, 4) tensors, one window, or a (B, n, H, W, 4) tensor of B
        windows, which gives (B, n, d_model)."""
        if isinstance(groups, list):
            if not groups:
                raise ContractError("tape encoder needs at least one group")
            groups = T.concat([T.reshape(g, (1, *g.shape)) for g in groups], axis=0)
        if groups.ndim not in (4, 5) or groups.shape[-1] != 4:
            raise ShapeError(f"each group must be (H, W, 4), got groups {groups.shape}")
        x = self.enc(T.reshape(groups, (-1, *groups.shape[-3:])))[-1]
        # spatial average pooling to one (8b,) row per group
        emb = T.reshape(self.embed(T.mean(x, axis=(-3, -2))), (*groups.shape[:-3], self.cfg.d_model))
        use_pe = self.cfg.position_encoding if position_encoding is None else position_encoding
        if use_pe:
            emb = emb + Tensor(sinusoidal_position_encoding(emb.shape[-2], self.cfg.d_model))
        return emb

    def decode(self, emb: Tensor, train_mode: bool = False,
               seeds: SeedStream | None = None) -> Tensor:
        """(n, d_model) embeddings -> (n, 6) poses via one attention block."""
        if emb.ndim != 2 or emb.shape[1] != self.cfg.d_model:
            raise ShapeError(f"embeddings must be (n, {self.cfg.d_model}), got {emb.shape}")
        rate = self.attn.dropout_rate if train_mode else 0.0
        seeds = seeds or SeedStream(0)
        heads = [attention_head(emb @ self.wq[i], emb @ self.wk[i], emb @ self.wv[i])
                 for i in range(self.cfg.n_heads)]
        mixed = dropout(T.concat(heads, axis=1), rate, seeds.next())
        q = layer_norm(emb + mixed, axis=-1) * self.ln1_g + self.ln1_b
        ff = self.ffn2(T.relu(self.ffn1(q)))
        q2 = layer_norm(q + dropout(ff, rate, seeds.next()), axis=-1) * self.ln2_g + self.ln2_b
        raw = self.out(q2)
        scale = Tensor(np.array([self.cfg.rot_scale] * 3 + [self.cfg.trans_scale] * 3))
        return raw * scale

    def __call__(self, groups, train_mode: bool = False,
                 seeds: SeedStream | None = None,
                 position_encoding: bool | None = None) -> Tensor:
        """(n, 6) poses for one window, (B, n, 6) for B windows; attention
        and dropout run window by window, in order."""
        emb = self.encode(groups, position_encoding)
        seeds = seeds or SeedStream(0)
        if emb.ndim == 2:
            return self.decode(emb, train_mode, seeds)
        return T.concat([T.reshape(self.decode(emb[i], train_mode, seeds), (1, emb.shape[1], 6))
                         for i in range(emb.shape[0])], axis=0)


def make_tape_group(inv_depth_a: Tensor, inv_depth_b: Tensor, flow: Tensor) -> Tensor:
    """Concatenate two inverse-depth maps (..., H, W) and one flow
    (..., H, W, 2) into an (..., H, W, 4) group."""
    if inv_depth_b.shape != inv_depth_a.shape or flow.shape != (*inv_depth_a.shape, 2):
        raise ShapeError("group channels must share spatial shape")
    return T.concat([T.reshape(inv_depth_a, (*inv_depth_a.shape, 1)),
                     T.reshape(inv_depth_b, (*inv_depth_b.shape, 1)),
                     flow * FLOW_INPUT_SCALE], axis=-1)


# -- model bundle ------------------------------------------------------------------


class VoModel:
    """DepthNet + FlowPoseNet (+ TapeNet) sharing one parameter table."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.store = ParamStore(seed)
        self.depth = DepthNet(self.store, cfg)
        self.flowpose = FlowPoseNet(self.store, cfg)
        self.tape = TapeNet(self.store, cfg) if cfg.use_tape else None

    @property
    def params(self) -> dict[str, Tensor]:
        return self.store.params

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_param_arrays(self, table: dict[str, np.ndarray]) -> None:
        for name, tensor in self.params.items():
            if name not in table:
                raise ContractError(f"checkpoint missing parameter {name}")
            if table[name].shape != tensor.data.shape:
                raise ShapeError(
                    f"checkpoint parameter {name} has shape {table[name].shape}, "
                    f"expected {tensor.data.shape}")
            tensor.data = table[name].astype(np.float64).copy()

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()


_CKPT_MAGIC = b"FLOWVOCK"
_CKPT_VERSION = 1


def save_checkpoint(path: str, table: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(table)))
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name], dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            offset = f.tell()
            data = f.read(n)
            if len(data) != n:
                raise ContractError(
                    f"{path}: checkpoint truncated at byte {offset + len(data)} "
                    f"(record needs {n} bytes from byte {offset})")
            return data

        if f.read(8) != _CKPT_MAGIC:
            raise ContractError(f"{path}: not a flowvo checkpoint")
        version, count = struct.unpack("<II", read(8))
        if version != _CKPT_VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        table = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim)) if ndim else ()
            n_items = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(8 * n_items), dtype="<f8")
            table[name] = data.reshape(shape).astype(np.float64)
    return table
