"""SE(3) pose algebra, pinhole projection, and warp-coordinate construction.

Conventions, fixed once for the whole package:
  * camera frame: x right, y down, z forward; pixel (u, v) = (column, row);
  * projection u = fx*X/Z + cx, v = fy*Y/Z + cy, depth = Z;
  * Euler angles compose as R = Rz(rz) @ Ry(ry) @ Rx(rx);
  * a relative pose labelled "cur->ref" maps points in the current camera's
    coordinates into the reference camera's coordinates. The warp that
    reconstructs the current view from the reference view uses the current
    view's depth and exactly this transform;
  * world-from-camera absolute poses accumulate by right-multiplication:
    world_k = world_0 @ rel_{1->0} @ ... @ rel_{k->k-1}.

Two layers live here: plain numpy helpers (evaluation, rendering, oracles)
and Tensor-valued versions that participate in differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor
from .nnops import grid_sample_valid_mask

DEPTH_CAP_M = 80.0
MIN_DEPTH_M = 0.5
Z_EPS = 1e-6


# -- plain numpy SE(3) ---------------------------------------------------


def euler_to_rotmat(rx: float, ry: float, rz: float) -> np.ndarray:
    ca, sa = np.cos(rx), np.sin(rx)
    cb, sb = np.cos(ry), np.sin(ry)
    cc, sc = np.cos(rz), np.sin(rz)
    return np.array([
        [cc * cb, cc * sb * sa - sc * ca, cc * sb * ca + sc * sa],
        [sc * cb, sc * sb * sa + cc * ca, sc * sb * ca - cc * sa],
        [-sb, cb * sa, cb * ca],
    ])


def se3_matrix(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = rot
    out[:3, 3] = np.asarray(trans, dtype=np.float64)
    return out


def se3_from_pose6(pose: np.ndarray) -> np.ndarray:
    pose = np.asarray(pose, dtype=np.float64).reshape(6)
    return se3_matrix(euler_to_rotmat(pose[0], pose[1], pose[2]), pose[3:6])


def invert(a: np.ndarray) -> np.ndarray:
    rot = a[:3, :3]
    out = np.eye(4)
    out[:3, :3] = rot.T
    out[:3, 3] = -rot.T @ a[:3, 3]
    return out


def rotation_angle(rot: np.ndarray) -> float:
    """Geodesic rotation angle, radians; trace formula clamped for roundoff."""
    return float(np.arccos(np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)))


def check_rotation(rot: np.ndarray, tol: float = 1e-9) -> bool:
    return (np.abs(rot @ rot.T - np.eye(3)).max() <= tol
            and abs(np.linalg.det(rot) - 1.0) <= tol)


def orthonormalize(rot: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(rot)
    fixed = u @ vt
    if np.linalg.det(fixed) < 0:
        u[:, -1] = -u[:, -1]
        fixed = u @ vt
    return fixed


# -- camera rig ----------------------------------------------------------


@dataclass(frozen=True)
class CameraRig:
    """Pinhole intrinsics plus the known left-to-right stereo transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    left_to_right: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ContractError("principal point outside the image")

    @property
    def baseline(self) -> float:
        """Stereo baseline in meters (rectified rig, right camera at +x)."""
        return float(-self.left_to_right[0, 3])

    @property
    def right_to_left(self) -> np.ndarray:
        return invert(self.left_to_right)


def make_rig(fx, fy, cx, cy, width, height, baseline) -> CameraRig:
    l2r = se3_matrix(np.eye(3), [-float(baseline), 0.0, 0.0])
    return CameraRig(fx, fy, cx, cy, int(width), int(height), l2r)


def scale_rig(rig: CameraRig, scale: int) -> CameraRig:
    """Intrinsics for the 2**scale average-pooled pyramid level (center-aware)."""
    f = 2 ** scale
    return CameraRig(
        fx=rig.fx / f,
        fy=rig.fy / f,
        cx=(rig.cx + 0.5) / f - 0.5,
        cy=(rig.cy + 0.5) / f - 0.5,
        width=rig.width // f,
        height=rig.height // f,
        left_to_right=rig.left_to_right.copy(),
    )


# -- grids and coordinates ------------------------------------------------


def identity_grid(height: int, width: int) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    return np.stack([xs, ys], axis=-1)


def pixel_rays(rig: CameraRig) -> np.ndarray:
    """Unit-depth camera rays per pixel, shape (H, W, 3)."""
    grid = identity_grid(rig.height, rig.width)
    rx = (grid[..., 0] - rig.cx) / rig.fx
    ry = (grid[..., 1] - rig.cy) / rig.fy
    return np.stack([rx, ry, np.ones_like(rx)], axis=-1)


# -- differentiable pose / warp -------------------------------------------


def pose6_to_rt(pose: Tensor) -> tuple[Tensor, Tensor]:
    """Rotation (3, 3) and translation (3,) tensors from a 6-vector tensor;
    (N, 3, 3) and (N, 3) from an (N, 6) stack of poses."""
    if pose.ndim not in (1, 2) or pose.shape[-1] != 6:
        raise ContractError(f"pose must have shape (6,) or (N, 6), got {pose.shape}")
    rx, ry, rz = pose[..., 0:1], pose[..., 1:2], pose[..., 2:3]
    ca, sa = T.cos(rx), T.sin(rx)
    cb, sb = T.cos(ry), T.sin(ry)
    cc, sc = T.cos(rz), T.sin(rz)
    entries = [
        cc * cb, cc * sb * sa - sc * ca, cc * sb * ca + sc * sa,
        sc * cb, sc * sb * sa + cc * ca, sc * sb * ca - cc * sa,
        -sb, cb * sa, cb * ca,
    ]
    rot = T.reshape(T.concat(entries, axis=-1), (*pose.shape[:-1], 3, 3))
    return rot, pose[..., 3:6]


def rigid_warp_coords(depth: Tensor, rot: Tensor, trans: Tensor,
                      rig: CameraRig) -> tuple[Tensor, np.ndarray]:
    """Source-sampling coordinates for view synthesis by rigid motion.

    `depth` is the target view's depth (H, W); (rot, trans) map target-camera
    points into the source camera. Returns pixel coords (H, W, 2) into the
    source image plus a validity mask excluding behind-camera and
    out-of-frame pixels. Differentiable w.r.t. depth, rot, trans. With a
    leading N on depth (N, H, W), rot (N, 3, 3) and trans (N, 3), element i
    warps by pose i.
    """
    *lead, h, w = depth.shape
    rays = Tensor(pixel_rays(rig).reshape(h * w, 3))
    pts = rays * T.reshape(depth, (*lead, h * w, 1))
    rot_t = T.transpose(rot, (*range(len(lead)), len(lead) + 1, len(lead)))
    cam = pts @ rot_t + T.reshape(trans, (*lead, 1, 3))
    z = cam[..., 2:3]
    z_safe = T.relu(z - Z_EPS) + Z_EPS
    uv = cam[..., 0:2] / z_safe * Tensor([rig.fx, rig.fy]) + Tensor([rig.cx, rig.cy])
    coords = T.reshape(uv, (*lead, h, w, 2))
    valid = (z.data > Z_EPS).reshape(*lead, h, w) & \
        grid_sample_valid_mask(coords.data, rig.width, rig.height)
    return coords, valid


def rigid_warp_coords_pose(depth: Tensor, pose: Tensor,
                           rig: CameraRig) -> tuple[Tensor, np.ndarray]:
    rot, trans = pose6_to_rt(pose)
    return rigid_warp_coords(depth, rot, trans, rig)


def flow_warp_coords(flow: Tensor) -> Tensor:
    """coords(p) = p + flow(p) for a (H, W, 2) or (N, H, W, 2) flow field."""
    if flow.ndim not in (3, 4) or flow.shape[-1] != 2:
        raise ContractError(f"flow must be (H, W, 2) or (N, H, W, 2), got {flow.shape}")
    return flow + Tensor(identity_grid(*flow.shape[-3:-1]))


def stereo_shift_coords(inv_depth: Tensor, rig: CameraRig,
                        toward_right: bool) -> tuple[Tensor, np.ndarray]:
    """Disparity-shift sampling coords for a rectified stereo rig.

    Equivalent to rigid_warp_coords with the stereo transform but expressed
    as the 1-D shift u' = u -/+ fx * baseline * inv_depth; `toward_right`
    selects sampling the right image for left pixels. `inv_depth` is (H, W)
    or (N, H, W).
    """
    grid = identity_grid(*inv_depth.shape[-2:])
    sign = -1.0 if toward_right else 1.0
    shift = inv_depth * (sign * rig.fx * rig.baseline)
    u = Tensor(grid[..., 0]) + shift
    coords = T.concat([T.reshape(u, (*u.shape, 1)),
                       Tensor(np.broadcast_to(grid[..., 1:2], (*u.shape, 1)))], axis=-1)
    return coords, grid_sample_valid_mask(coords.data, rig.width, rig.height)


# -- numpy twin of the warp (oracle / rendering support) -------------------


def rigid_warp_coords_np(depth: np.ndarray, rel: np.ndarray,
                         rig: CameraRig) -> tuple[np.ndarray, np.ndarray]:
    h, w = depth.shape
    pts = pixel_rays(rig) * depth[..., None]
    cam = pts @ rel[:3, :3].T + rel[:3, 3]
    z = cam[..., 2]
    z_safe = np.maximum(z, Z_EPS)
    u = cam[..., 0] / z_safe * rig.fx + rig.cx
    v = cam[..., 1] / z_safe * rig.fy + rig.cy
    coords = np.stack([u, v], axis=-1)
    valid = (z > Z_EPS) & grid_sample_valid_mask(coords, rig.width, rig.height)
    return coords, valid
