"""Two-stage optimization of the full framework and pose inference.

Stage 1 trains DepthNet alone on stereo photometric + depth regularity
terms until converged (relative improvement below a tolerance across a
window) or its iteration cap. Stage 2 trains everything jointly on the
weighted total objective over short temporal windows.

Determinism contract: batch selection, dropout masks, and augmentation
draws are all derived from (seed, stage, iteration), never from global
RNG state, so a resumed run replays the identical sequence.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import tensor as T
from .geometry import (
    CameraRig,
    flow_warp_coords,
    pose6_to_rt,
    rigid_warp_coords,
    scale_rig,
    se3_from_pose6,
    stereo_shift_coords,
)
from .losses import LossConfig, depth_terms, image_synthesis_loss, pose_consistency_loss, total_loss
from .networks import (
    IFG_MODES,
    ModelConfig,
    SeedStream,
    VoModel,
    load_checkpoint,
    make_tape_group,
    save_checkpoint,
)
from .nnops import avg_pool2d, grid_sample_bilinear, grid_sample_valid_mask
from .synthscene import SceneDataset
from .tensor import ContractError, NumericError, Tensor

METRIC_COLUMNS = ("iteration", "lr", "L_is", "L_pc", "L_sm", "L_lr", "L_reg", "L_all")


class TrainingAborted(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr0: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 2
    total_iters: int = 10000
    seq_len: int = 3
    seed: int = 0
    stage1_iters: int = 2000
    stage1_window: int = 500
    stage1_tol: float = 0.01
    checkpoint_every: int = 200
    n_scales: int = 4
    augment: bool = False
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.total_iters % 5:
            raise ContractError(
                f"total_iters must be divisible by 5 for exact halving boundaries, "
                f"got {self.total_iters}")
        if self.seq_len not in (3, 5):
            raise ContractError(f"seq_len must be 3 or 5, got {self.seq_len}")
        if not 1 <= self.n_scales <= 4:
            raise ContractError(f"n_scales must be in [1, 4], got {self.n_scales}")
        for name in ("batch_size", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")


def schedule_lr(lr0: float, iteration: int, total_iters: int) -> float:
    """lr0 * 2^(-floor(5k / total)): halves at each fifth of the run."""
    return lr0 * 2.0 ** (-((5 * iteration) // total_iters))


# -- Adam ---------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard bias-corrected Adam update; missing grads count as zero."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.m[name], state.v[name] = m, v
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# -- data plumbing -------------------------------------------------------------


def image_pyramid(img: Tensor, n_scales: int) -> list[Tensor]:
    out = [img]
    for _ in range(1, n_scales):
        out.append(avg_pool2d(out[-1], 2))
    return out


def augment_images(images: list[np.ndarray], rng) -> list[np.ndarray]:
    """Shared brightness/gamma/color jitter across a window (training hook)."""
    gamma = rng.uniform(0.9, 1.1)
    brightness = rng.uniform(0.9, 1.1)
    color = rng.uniform(0.95, 1.05, size=3)
    return [np.clip((img ** gamma) * brightness * color, 0.0, 1.0) for img in images]


def _mix_seed(*parts: int) -> int:
    h = 0x9E3779B185EBCA87
    for p in parts:
        h = (h ^ (int(p) & 0xFFFFFFFFFFFFFFFF)) * 0xC2B2AE3D27D4EB4F & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
    return h & 0x7FFFFFFFFFFFFFFF


# -- loss assembly --------------------------------------------------------------


def stereo_stage_losses(model: VoModel, left: Tensor, right: Tensor,
                        rig: CameraRig, cfg: TrainConfig) -> dict:
    """The stage-1 objective: stereo photometric (both directions) plus
    depth terms, scale-averaged and averaged over the N stereo pairs of
    `left`/`right` (N, H, W, 3); an (H, W, 3) pair is N = 1. Holds every
    metric key ("L_pc" is 0), "depth_maps", DepthNet's (N, ...) maps, and
    "pyramid", the left images' pyramid."""
    if left.ndim == 3:
        left, right = T.reshape(left, (1, *left.shape)), T.reshape(right, (1, *right.shape))
    maps = model.depth(left)
    pyr_l, pyr_r = image_pyramid(left, cfg.n_scales), image_pyramid(right, cfg.n_scales)
    l_is = l_sm = l_lr = l_reg = Tensor(0.0)
    for s in range(cfg.n_scales):
        rig_s = scale_rig(rig, s)
        idl, idr = maps[s][..., 0], maps[s][..., 1]
        # both directions as one stack: left from right, then right from left
        coords_l, valid_l = stereo_shift_coords(idl, rig_s, toward_right=True)
        coords_r, valid_r = stereo_shift_coords(idr, rig_s, toward_right=False)
        rec = grid_sample_bilinear(T.concat([pyr_r[s], pyr_l[s]]), T.concat([coords_l, coords_r]))
        l_is = l_is + image_synthesis_loss(rec, T.concat([pyr_l[s], pyr_r[s]]),
                                           np.concatenate([valid_l, valid_r]), cfg.loss).sum()
        sm, lr_, reg = depth_terms(idl, idr, pyr_l[s], pyr_r[s], rig_s)
        l_sm = l_sm + sm.sum()
        l_lr = l_lr + lr_.sum()
        l_reg = l_reg + reg.sum()
    n = float(cfg.n_scales * left.shape[0])
    parts = {"L_is": l_is / n, "L_pc": Tensor(0.0), "L_sm": l_sm / n, "L_lr": l_lr / n,
             "L_reg": l_reg / n, "depth_maps": maps, "pyramid": pyr_l}
    parts["L_all"] = total_loss(*(parts[k] for k in METRIC_COLUMNS[2:7]), cfg.loss)
    return parts


def _photometric_over_scales(pyr, src: np.ndarray, tgt: np.ndarray, coords_fn, cfg) -> Tensor:
    """Sum over directions of the scale-mean masked photometric term, where
    direction i rebuilds frame tgt[i] of the pyramid from frame src[i]."""
    acc = Tensor(0.0)
    for s in range(cfg.n_scales):
        coords, valid = coords_fn(s)
        rec = grid_sample_bilinear(Tensor(pyr[s].data[src]), coords)
        acc = acc + image_synthesis_loss(rec, Tensor(pyr[s].data[tgt]), valid, cfg.loss).sum()
    return acc / float(cfg.n_scales)


@dataclass
class WindowData:
    """B windows of n frames: images (B, n, H, W, 3), fixture flows k -> k+1
    and k+1 -> k (B, n-1, H, W, 2) or None."""

    lefts: np.ndarray
    rights: np.ndarray
    flows_fwd: np.ndarray | None
    flows_bwd: np.ndarray | None


def window_losses(model: VoModel, win: WindowData, rig: CameraRig,
                  cfg: TrainConfig, train_mode: bool,
                  seeds: SeedStream) -> dict[str, Tensor]:
    """All objective parts, averaged over the B windows of `win`.

    Each network and each loss term runs once on the whole batch: DepthNet
    on the B*n frames, FlowPoseNet on the 2*B*(n-1) pair directions (all
    forward pairs, then all backward ones) and TapeNet on the B*(n-1) groups.
    """
    b, n, h, w = win.lefts.shape[:4]
    n_pairs = b * (n - 1)
    parts = stereo_stage_losses(model, Tensor(win.lefts.reshape(b * n, h, w, 3)),
                                Tensor(win.rights.reshape(b * n, h, w, 3)), rig, cfg)
    maps, pyrs = parts["depth_maps"], parts["pyramid"]

    # frame index of each pair's first frame; direction i runs frame ia[i] -> ib[i]
    first = (np.arange(b)[:, None] * n + np.arange(n - 1)).reshape(-1)
    ia, ib = np.concatenate([first, first + 1]), np.concatenate([first + 1, first])
    init = None
    if win.flows_fwd is not None:
        init = Tensor(np.concatenate([win.flows_fwd, win.flows_bwd]).reshape(2 * n_pairs, h, w, 2))
    out = model.flowpose(Tensor(pyrs[0].data[ia]), Tensor(pyrs[0].data[ib]), init_flow=init)

    l_pc = Tensor(0.0)
    poses, pose_src, pose_tgt = out.pose, ia, ib
    if model.tape is not None:
        if out.flows is None and win.flows_fwd is None:
            raise ContractError(
                "the windowed estimator needs a flow source for its input "
                "groups: enable the flow decoder, the trainable initial-flow "
                "net, or the ground-truth fixture")
        flow0 = out.flows[0][:n_pairs] if out.flows is not None else Tensor(
            win.flows_fwd.reshape(n_pairs, h, w, 2))
        idepth0 = maps[0][..., 0]
        groups = make_tape_group(idepth0[first], idepth0[first + 1], flow0)
        tape_poses = T.reshape(model.tape(T.reshape(groups, (b, n - 1, h, w, 4)),
                                          train_mode=train_mode, seeds=seeds), (n_pairs, 6))
        l_pc = pose_consistency_loss(tape_poses, out.pose[:n_pairs]) / float(b)
        if model.cfg.tape_photometric:
            # the tape poses also rebuild frame k+1 from frame k
            poses = T.concat([poses, tape_poses])
            pose_src, pose_tgt = np.concatenate([ia, first]), np.concatenate([ib, first + 1])

    # pose i maps frame pose_tgt[i]'s camera into frame pose_src[i]'s, so
    # warping by it and by the target's depth rebuilds the target from the source
    rot, trans = pose6_to_rt(poses)
    l_is_p = _photometric_over_scales(pyrs, pose_src, pose_tgt, lambda s: rigid_warp_coords(
        1.0 / maps[s][pose_tgt, ..., 0], rot, trans, scale_rig(rig, s)), cfg) / float(n_pairs)

    l_is_f = Tensor(0.0)
    # injected ground-truth flow makes the flow term constant in the
    # parameters (its value sits at the photometric floor), so it is skipped
    if out.flows is not None and out.flows[0].requires_grad:
        def flow_coords(s):
            c = flow_warp_coords(out.flows[s])
            hs, ws = c.shape[-3:-1]
            return c, grid_sample_valid_mask(c.data, ws, hs)
        l_is_f = _photometric_over_scales(pyrs, ib, ia, flow_coords, cfg) / float(n_pairs)

    vals = {k: parts[k] for k in METRIC_COLUMNS[4:7]}  # L_sm, L_lr, L_reg
    vals.update(L_is=l_is_p + parts["L_is"] + l_is_f, L_pc=l_pc)
    vals["L_all"] = total_loss(*(vals[k] for k in METRIC_COLUMNS[2:7]), cfg.loss)
    return vals


# -- training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    metrics_stage1_path: str
    stage1_iters_run: int
    final_losses: dict


def _window(dataset: SceneDataset, starts: list[int], seq_len: int, fixture: bool,
            lefts: np.ndarray | None = None) -> WindowData:
    """The windows of `seq_len` frames from each start; `lefts` replaces
    the left images (augmentation)."""
    idx = [range(start, start + seq_len) for start in starts]
    if lefts is None:
        lefts = np.array([[dataset.left(i) for i in r] for r in idx])
    rights = np.array([[dataset.right(i) for i in r] for r in idx])
    if not fixture:
        return WindowData(lefts, rights, None, None)
    return WindowData(lefts, rights, np.array([[dataset.flow_fwd(i) for i in r[:-1]] for r in idx]),
                      np.array([[dataset.flow_bwd(i) for i in r[:-1]] for r in idx]))


def _format_row(iteration: int, lr: float, vals: dict) -> str:
    cols = [str(iteration), format(lr, ".17g")]
    for key in METRIC_COLUMNS[2:]:
        cols.append(format(vals[key], ".17g"))
    return ",".join(cols)


def _meta_table(model: VoModel, adam: AdamState, stage: int, iteration: int,
                cfg: TrainConfig) -> dict[str, np.ndarray]:
    """Checkpoint table of the current state. Parameter and Adam arrays are
    held by reference: `adam_step` and `load_param_arrays` rebind them and
    never write into them, so an earlier table keeps its values."""
    table = {f"param/{k}": p.data for k, p in model.params.items()}
    table.update({f"adam.m/{k}": arr for k, arr in adam.m.items()})
    table.update({f"adam.v/{k}": arr for k, arr in adam.v.items()})
    table["meta/adam_t"] = np.array([adam.t], dtype=np.float64)
    table["meta/stage"] = np.array([stage], dtype=np.float64)
    table["meta/iteration"] = np.array([iteration], dtype=np.float64)
    # one float per ModelConfig field, in field order; ifg_mode as its IFG_MODES index
    table["cfg/model"] = np.array(
        [IFG_MODES.index(v) if f.name == "ifg_mode" else v
         for f, v in zip(fields(ModelConfig), astuple(model.cfg))], dtype=np.float64)
    table["cfg/seed"] = np.array([cfg.seed], dtype=np.float64)
    return table


def model_config_from_table(table: dict[str, np.ndarray]) -> ModelConfig:
    values, cfg_fields = table["cfg/model"], fields(ModelConfig)
    if values.shape != (len(cfg_fields),):
        raise ContractError(
            f"checkpoint cfg/model has shape {values.shape}, expected ({len(cfg_fields)},)")
    cast = {"int": int, "float": float, "bool": bool}
    return ModelConfig(**{
        f.name: IFG_MODES[int(v)] if f.name == "ifg_mode" else cast[f.type](v)
        for f, v in zip(cfg_fields, values)})


def _check_image_size(model_cfg: ModelConfig, height: int, width: int, source: str) -> None:
    """The networks are built for one image size; reject any other before running them."""
    if (height, width) != (model_cfg.image_h, model_cfg.image_w):
        raise ContractError(
            f"{source} is {height}x{width} (HxW) but model.image_h/w is "
            f"{model_cfg.image_h}x{model_cfg.image_w}")


def load_model(checkpoint_path: str) -> tuple[VoModel, dict[str, np.ndarray]]:
    table = load_checkpoint(checkpoint_path)
    model = VoModel(model_config_from_table(table), seed=0)
    model.load_param_arrays(
        {k[len("param/"):]: v for k, v in table.items() if k.startswith("param/")})
    return model, table


def train(dataset: SceneDataset, cfg: TrainConfig, model_cfg: ModelConfig,
          out_dir: str, resume_from: str | None = None,
          stop_after: int | None = None) -> TrainResult:
    """Run the two training stages; write both metric files and the checkpoint.

    Both stages run the same loop. Every iteration calls `VoModel.zero_grads`
    exactly once, before its forward pass; then it appends its metric row,
    snapshots the last good state and writes any periodic checkpoint, and
    only then checks its stage's stop rule. Stage 1 trains the depth
    parameters until its convergence window or `stage1_iters`, and ignores
    `stop_after`. Stage 2 trains everything until `total_iters`, or ends
    after the iteration k for which `k + 1 >= stop_after` holds (simulating
    an interruption for resume testing). A NumericError or KeyboardInterrupt
    first writes the last good state and the metric rows so far.
    """
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    metrics_paths = (os.path.join(out_dir, "metrics_stage1.csv"),
                     os.path.join(out_dir, "metrics.csv"))
    fixture = model_cfg.ifg_mode == "fixture"

    if resume_from is None:
        model, adam = VoModel(model_cfg, seed=cfg.seed), AdamState()
        start_stage, it = 1, 0
    else:
        model, table = load_model(resume_from)
        adam = AdamState(
            m={k[len("adam.m/"):]: v for k, v in table.items() if k.startswith("adam.m/")},
            v={k[len("adam.v/"):]: v for k, v in table.items() if k.startswith("adam.v/")},
            t=int(table["meta/adam_t"][0]))
        start_stage, it = int(table["meta/stage"][0]), int(table["meta/iteration"][0])

    _check_image_size(model.cfg, dataset.rig.height, dataset.rig.width, "dataset rig")
    n_windows = dataset.n_frames - cfg.seq_len + 1
    if n_windows < 1:
        raise ContractError(
            f"dataset has {dataset.n_frames} frames, need >= seq_len {cfg.seq_len}")

    # each batch element draws its frame or window, then its augmentation
    def stereo_batch(rng, seeds) -> dict[str, Tensor]:
        pairs = []
        for _ in range(cfg.batch_size):
            f = int(rng.integers(0, dataset.n_frames))
            pair = [dataset.left(f), dataset.right(f)]
            pairs.append(augment_images(pair, rng) if cfg.augment else pair)
        left, right = np.swapaxes(np.array(pairs), 0, 1)
        return stereo_stage_losses(model, Tensor(left), Tensor(right), dataset.rig, cfg)

    def window_batch(rng, seeds) -> dict[str, Tensor]:
        starts, lefts = [], []
        for _ in range(cfg.batch_size):
            starts.append(int(rng.integers(0, n_windows)))
            if cfg.augment:
                lefts.append(augment_images(
                    [dataset.left(i) for i in range(starts[-1], starts[-1] + cfg.seq_len)], rng))
        win = _window(dataset, starts, cfg.seq_len, fixture,
                      lefts=np.array(lefts) if cfg.augment else None)
        return window_losses(model, win, dataset.rig, cfg, train_mode=True, seeds=seeds)

    def stage1_converged(it: int, hist: list[float]) -> bool:
        w = cfg.stage1_window
        if len(hist) < 2 * w:
            return False
        prev = float(np.mean(hist[-2 * w:-w]))
        cur = float(np.mean(hist[-w:]))
        return prev - cur < cfg.stage1_tol * abs(prev)

    # per stage: iteration cap, LR horizon, trained parameters, batch loss,
    # checkpoint period (stage 1 writes none) and stop rule
    stages = {
        1: (cfg.stage1_iters, max(cfg.stage1_iters, 1),
            {k: p for k, p in model.params.items() if k.startswith("depth.")},
            stereo_batch, None, stage1_converged),
        2: (cfg.total_iters, cfg.total_iters, model.params, window_batch,
            cfg.checkpoint_every, lambda it, hist: stop_after is not None and it >= stop_after),
    }

    def run_iteration(stage: int, k: int, lr: float, params, batch_loss) -> dict[str, float]:
        rng = np.random.default_rng(_mix_seed(cfg.seed, stage, k))
        seeds = SeedStream(_mix_seed(cfg.seed, stage, k, 7))
        model.zero_grads()
        vals = batch_loss(rng, seeds)
        vals["L_all"].backward()
        adam_step(params, adam, lr, cfg.beta1, cfg.beta2)
        return {key: vals[key].item() for key in METRIC_COLUMNS[2:]}

    rows: tuple[list[str], list[str]] = ([], [])
    stage1_run = 0
    last_good = _meta_table(model, adam, start_stage, it, cfg)
    aborted = None
    try:
        for stage in range(start_stage, 3):
            cap, horizon, params, batch_loss, ckpt_every, done = stages[stage]
            hist: list[float] = []
            for k in range(it, cap):
                lr = schedule_lr(cfg.lr0, k, horizon)
                vals = run_iteration(stage, k, lr, params, batch_loss)
                rows[stage - 1].append(_format_row(k, lr, vals))
                hist.append(vals["L_all"])
                it = k + 1
                last_good = _meta_table(model, adam, stage, it, cfg)
                if ckpt_every is not None and it % ckpt_every == 0:
                    save_checkpoint(ckpt_path, last_good)
                if done(it, hist):
                    break
            if stage == 1:
                stage1_run, it = it, 0
                adam = AdamState()  # stage 2 optimizes a different parameter set
                last_good = _meta_table(model, adam, 2, 0, cfg)
            save_checkpoint(ckpt_path, last_good)
    except (NumericError, KeyboardInterrupt) as exc:
        save_checkpoint(ckpt_path, last_good)
        aborted = exc

    for path, stage_rows in zip(metrics_paths, rows):
        _write_metrics(path, stage_rows, resume_from is None)
    if isinstance(aborted, KeyboardInterrupt):
        raise aborted
    if aborted is not None:
        raise TrainingAborted(
            f"training aborted on numeric error ({aborted}); "
            f"last good checkpoint written to {ckpt_path}") from aborted
    final = (dict(zip(METRIC_COLUMNS[2:], map(float, rows[1][-1].split(",")[2:])))
             if rows[1] else {})
    return TrainResult(ckpt_path, metrics_paths[1], metrics_paths[0], stage1_run, final)


def _write_metrics(path: str, rows: list[str], fresh: bool) -> None:
    mode = "w" if fresh else "a"
    with open(path, mode) as f:
        if fresh:
            f.write(",".join(METRIC_COLUMNS) + "\n")
        for row in rows:
            f.write(row + "\n")


# -- inference ----------------------------------------------------------------------


def integrate_relative_poses(rels: list[np.ndarray],
                             start: np.ndarray | None = None) -> list[np.ndarray]:
    """Chain cur->prev relative transforms into world-from-camera poses."""
    pose = np.eye(4) if start is None else start.copy()
    out = [pose.copy()]
    for rel in rels:
        pose = pose @ rel
        out.append(pose.copy())
    return out


def infer_relative_poses(model: VoModel, frames: list[np.ndarray],
                         flow_provider=None) -> list[np.ndarray]:
    """Pairwise cur->prev transforms over consecutive frames (no training graph)."""
    rels = []
    if frames:
        _check_image_size(model.cfg, *frames[0].shape[:2], "input frame")
    with T.no_grad():
        for k in range(len(frames) - 1):
            init = None
            if model.cfg.ifg_mode == "fixture":
                if flow_provider is None:
                    raise ContractError("fixture flow mode needs a flow_provider at inference")
                init = Tensor(flow_provider(k))
            out = model.flowpose(Tensor(frames[k]), Tensor(frames[k + 1]), init_flow=init)
            rels.append(se3_from_pose6(out.pose.data))
    return rels


def infer_trajectory(model: VoModel, frames: list[np.ndarray], flow_provider=None):
    """Integrate pairwise predictions into a world-frame trajectory."""
    from .evaluate import Trajectory

    rels = infer_relative_poses(model, frames, flow_provider)
    return Trajectory(integrate_relative_poses(rels))
