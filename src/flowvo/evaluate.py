"""Trajectory benchmarking: average translational/rotational drift over
fixed path lengths (the standard odometry protocol), absolute trajectory
error with optional closed-form alignment, and speed-binned tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import invert, rotation_angle
from .tensor import ContractError

SEGMENT_LENGTHS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)
DEFAULT_FRAME_RATE = 10.0
SPEED_BIN_WIDTH = 2.0  # m/s


class Trajectory:
    """Time-ordered world-from-camera poses; only relative motion matters."""

    def __init__(self, poses, frame_indices=None, frame_rate: float = DEFAULT_FRAME_RATE):
        self.poses = [np.asarray(p, dtype=np.float64) for p in poses]
        self.frame_indices = (list(frame_indices) if frame_indices is not None
                              else list(range(len(self.poses))))
        self.frame_rate = float(frame_rate)
        if len(self.frame_indices) != len(self.poses):
            raise ContractError("frame_indices length mismatch")

    def __len__(self):
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.array([p[:3, 3] for p in self.poses])


@dataclass
class OdomErrors:
    t_err_percent: float
    r_err_deg_per_100m: float
    per_length: dict = field(default_factory=dict)   # L -> (t%, deg/100m, count)
    per_speed: dict = field(default_factory=dict)    # m/s bin floor -> (t%, deg/100m, count)
    n_subsequences: int = 0
    insufficient_length: bool = False


def trajectory_distances(traj: Trajectory) -> np.ndarray:
    pos = traj.positions()
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def first_frame_at_length(dist: np.ndarray, start: int, length: float):
    """First frame whose accumulated arc length from `start` reaches `length`."""
    target = dist[start] + length
    idx = int(np.searchsorted(dist, target, side="left"))
    while idx < len(dist) and dist[idx] < target:
        idx += 1
    return idx if idx < len(dist) else None


def _subsequence_errors(gt: Trajectory, pred: Trajectory,
                        lengths, step: int):
    """Yields (length, speed, t_frac_per_m, r_rad_per_m) per subsequence."""
    if len(gt) != len(pred):
        raise ContractError(f"trajectory lengths differ: {len(gt)} vs {len(pred)}")
    dist = trajectory_distances(gt)
    for start in range(0, len(gt), step):
        gt_start_inv = invert(gt.poses[start])
        pred_start_inv = invert(pred.poses[start])
        for length in lengths:
            end = first_frame_at_length(dist, start, length)
            if end is None:
                continue
            gt_rel = gt_start_inv @ gt.poses[end]
            pred_rel = pred_start_inv @ pred.poses[end]
            if np.array_equal(gt_rel, pred_rel):
                # identical relative motion is exactly zero error; the
                # matrix route would leave ~sqrt(eps) arccos residue
                t_err, r_err = 0.0, 0.0
            else:
                err = invert(gt_rel) @ pred_rel
                t_err = float(np.linalg.norm(err[:3, 3])) / length
                r_err = rotation_angle(err[:3, :3]) / length
            dt = (end - start) / gt.frame_rate
            yield length, length / dt, t_err, r_err


def kitti_odometry_errors(gt: Trajectory, pred: Trajectory,
                          lengths=SEGMENT_LENGTHS, step: int = 1) -> OdomErrors:
    """Average drift over every subsequence of the configured path lengths.

    The error transform is (gt_rel)^-1 @ pred_rel; translational drift is
    reported as a percentage of path length, rotational drift in degrees
    per 100 m.
    """
    per_length_acc: dict[float, list] = {}
    per_speed_acc: dict[float, list] = {}
    all_t, all_r = [], []
    for length, speed, t_err, r_err in _subsequence_errors(gt, pred, lengths, step):
        all_t.append(t_err)
        all_r.append(r_err)
        per_length_acc.setdefault(length, []).append((t_err, r_err))
        sbin = float(np.floor(speed / SPEED_BIN_WIDTH) * SPEED_BIN_WIDTH)
        per_speed_acc.setdefault(sbin, []).append((t_err, r_err))

    def to_table(acc):
        table = {}
        for key in sorted(acc):
            arr = np.array(acc[key])
            table[key] = (float(arr[:, 0].mean()) * 100.0,
                          float(np.degrees(arr[:, 1].mean())) * 100.0,
                          len(arr))
        return table

    if not all_t:
        return OdomErrors(0.0, 0.0, {}, {}, 0, insufficient_length=True)
    return OdomErrors(
        t_err_percent=float(np.mean(all_t)) * 100.0,
        r_err_deg_per_100m=float(np.degrees(np.mean(all_r))) * 100.0,
        per_length=to_table(per_length_acc),
        per_speed=to_table(per_speed_acc),
        n_subsequences=len(all_t),
        insufficient_length=False)


# -- absolute trajectory error -------------------------------------------------


def umeyama_alignment(src: np.ndarray, dst: np.ndarray, with_scale: bool):
    """Closed-form similarity aligning src onto dst: returns (s, R, t)."""
    if src.shape[0] < 3:
        raise ContractError(f"similarity alignment needs >= 3 points, got {src.shape[0]}")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / src.shape[0]
    u, d, vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2, 2] = -1.0
    rot = u @ sign @ vt
    if with_scale:
        var_s = (xs ** 2).sum() / src.shape[0]
        scale = float(np.trace(np.diag(d) @ sign) / var_s)
    else:
        scale = 1.0
    trans = mu_d - scale * rot @ mu_s
    return scale, rot, trans


def ate(gt: Trajectory, pred: Trajectory, align: str = "none") -> float:
    """Position RMSE in meters after optional alignment of pred onto gt.

    align: 'none', 'scale' (single least-squares factor, no rotation),
    or 'sim3' (full similarity via orthogonal Procrustes with scale).
    """
    if len(gt) != len(pred):
        raise ContractError(f"trajectory lengths differ: {len(gt)} vs {len(pred)}")
    g = gt.positions()
    p = pred.positions()
    if align == "none":
        aligned = p
    elif align == "scale":
        denom = float((p * p).sum())
        s = float((g * p).sum()) / denom if denom > 0 else 1.0
        aligned = s * p
    elif align == "sim3":
        s, rot, trans = umeyama_alignment(p, g, with_scale=True)
        aligned = (s * (rot @ p.T)).T + trans
    else:
        raise ContractError(f"unknown alignment mode {align!r}")
    return float(np.sqrt(((aligned - g) ** 2).sum(axis=1).mean()))


def translation_direction_errors(gt_rels, pred_rels) -> np.ndarray:
    """Per-pair angle (degrees) between predicted and true translation vectors."""
    if len(gt_rels) != len(pred_rels):
        raise ContractError("relative pose lists differ in length")
    out = []
    for g, p in zip(gt_rels, pred_rels):
        tg, tp = g[:3, 3], p[:3, 3]
        ng, np_ = np.linalg.norm(tg), np.linalg.norm(tp)
        if ng == 0.0 or np_ == 0.0:
            out.append(90.0)
            continue
        cosang = np.clip(tg @ tp / (ng * np_), -1.0, 1.0)
        out.append(float(np.degrees(np.arccos(cosang))))
    return np.array(out)


# -- reports -------------------------------------------------------------------


def write_error_report(out_dir: str, errors: OdomErrors,
                       ate_values: dict | None = None) -> dict:
    """Write metrics.csv, per_length.csv, per_speed.csv, summary.txt."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "per_length": os.path.join(out_dir, "per_length.csv"),
        "per_speed": os.path.join(out_dir, "per_speed.csv"),
        "summary": os.path.join(out_dir, "summary.txt"),
    }
    with open(paths["metrics"], "w") as f:
        f.write("t_err_percent,r_err_deg_per_100m,n_subsequences,insufficient_length\n")
        f.write(f"{errors.t_err_percent:.6f},{errors.r_err_deg_per_100m:.6f},"
                f"{errors.n_subsequences},{int(errors.insufficient_length)}\n")
    with open(paths["per_length"], "w") as f:
        f.write("length_m,t_err_percent,r_err_deg_per_100m,count\n")
        for length, (t, r, n) in sorted(errors.per_length.items()):
            f.write(f"{length:.0f},{t:.6f},{r:.6f},{n}\n")
    with open(paths["per_speed"], "w") as f:
        f.write("speed_bin_m_s,t_err_percent,r_err_deg_per_100m,count\n")
        for sbin, (t, r, n) in sorted(errors.per_speed.items()):
            f.write(f"{sbin:.1f},{t:.6f},{r:.6f},{n}\n")
    with open(paths["summary"], "w") as f:
        if errors.insufficient_length:
            f.write("status: insufficient length (trajectory shorter than the "
                    "smallest segment length)\n")
        else:
            f.write("status: ok\n")
        f.write(f"t_err: {errors.t_err_percent:.2f} %\n")
        f.write(f"r_err: {errors.r_err_deg_per_100m:.2f} deg/100m\n")
        f.write(f"subsequences: {errors.n_subsequences}\n")
        for name, val in (ate_values or {}).items():
            f.write(f"ate[{name}]: {val:.4f} m\n")
    return paths
