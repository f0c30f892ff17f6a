import numpy as np
import pytest

from flowvo import geometry as geo
from flowvo import tensor as T
from flowvo.tensor import ContractError, Tensor


def random_se3(rng, max_angle=1.0, max_trans=5.0):
    pose = np.concatenate([rng.uniform(-max_angle, max_angle, 3),
                           rng.uniform(-max_trans, max_trans, 3)])
    return geo.se3_from_pose6(pose)


def test_zero_pose_is_identity():
    np.testing.assert_array_equal(geo.se3_from_pose6(np.zeros(6)), np.eye(4))


def test_quarter_turn_about_z_maps_x_to_y():
    rot = geo.euler_to_rotmat(0.0, 0.0, np.pi / 2)
    np.testing.assert_allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_invert_roundtrip():
    rng = np.random.default_rng(0)
    a = random_se3(rng)
    np.testing.assert_allclose(a @ geo.invert(a), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(geo.invert(geo.invert(a)), a, atol=1e-12)


def test_rotation_angle_matches_construction():
    for angle in (0.0, 0.3, 1.2, np.pi - 1e-6):
        rot = geo.euler_to_rotmat(0.0, 0.0, angle)
        assert abs(geo.rotation_angle(rot) - angle) < 1e-9


@pytest.fixture
def rig():
    return geo.make_rig(fx=50.0, fy=48.0, cx=31.5, cy=15.5,
                        width=64, height=32, baseline=0.4)


def test_identity_pose_warp_is_identity_grid(rig):
    depth = Tensor(np.full((rig.height, rig.width), 7.0))
    pose = Tensor(np.zeros(6))
    coords, valid = geo.rigid_warp_coords_pose(depth, pose, rig)
    np.testing.assert_allclose(coords.data, geo.identity_grid(rig.height, rig.width),
                               atol=1e-9)
    assert valid.all()


def test_pure_x_translation_shifts_uniformly(rig):
    d, tx = 5.0, 0.8
    depth = Tensor(np.full((rig.height, rig.width), d))
    pose = Tensor(np.array([0, 0, 0, tx, 0, 0.0]))
    coords, _ = geo.rigid_warp_coords_pose(depth, pose, rig)
    grid = geo.identity_grid(rig.height, rig.width)
    shift = coords.data[..., 0] - grid[..., 0]
    np.testing.assert_allclose(shift, rig.fx * tx / d, atol=1e-9)
    np.testing.assert_allclose(coords.data[..., 1], grid[..., 1], atol=1e-9)


def stereo_rt(rig):
    """Constant (R, t) tensors of the rig's left-to-right transform."""
    return Tensor(rig.left_to_right[:3, :3]), Tensor(rig.left_to_right[:3, 3])


def test_stereo_pose_reproduces_disparity(rig):
    d = 8.0
    depth = Tensor(np.full((rig.height, rig.width), d))
    rot, trans = stereo_rt(rig)
    coords, _ = geo.rigid_warp_coords(depth, rot, trans, rig)
    grid = geo.identity_grid(rig.height, rig.width)
    disparity = grid[..., 0] - coords.data[..., 0]
    np.testing.assert_allclose(disparity, rig.fx * rig.baseline / d, atol=1e-9)


def test_stereo_shift_equals_rigid_stereo_warp(rig):
    rng = np.random.default_rng(3)
    depth = 4.0 + 4.0 * rng.random((rig.height, rig.width))
    inv_depth = Tensor(1.0 / depth)
    shift_coords, _ = geo.stereo_shift_coords(inv_depth, rig, toward_right=True)
    rot, trans = stereo_rt(rig)
    rigid_coords, _ = geo.rigid_warp_coords(Tensor(depth), rot, trans, rig)
    np.testing.assert_allclose(shift_coords.data, rigid_coords.data, atol=1e-9)


def test_flow_warp_coords():
    flow = np.zeros((4, 6, 2))
    coords = geo.flow_warp_coords(Tensor(flow))
    np.testing.assert_array_equal(coords.data, geo.identity_grid(4, 6))
    flow[..., 0] = 2.0
    coords = geo.flow_warp_coords(Tensor(flow))
    np.testing.assert_array_equal(coords.data[..., 0], geo.identity_grid(4, 6)[..., 0] + 2)


def test_behind_camera_points_masked(rig):
    depth = Tensor(np.full((rig.height, rig.width), 2.0))
    pose = Tensor(np.array([0, 0, 0, 0, 0, -5.0]))  # z = 2 - 5 < 0 everywhere
    _, valid = geo.rigid_warp_coords_pose(depth, pose, rig)
    assert not valid.any()


def test_rigid_warp_gradient_wrt_pose_matches_fd(rig):
    from flowvo.gradcheck import check_gradients

    rng = np.random.default_rng(7)
    small = geo.make_rig(10.0, 10.0, 3.5, 3.5, 8, 8, 0.3)
    depth = Tensor(rng.uniform(4, 6, (8, 8)), requires_grad=True)
    pose = Tensor(np.concatenate([rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.3, 0.3, 3)]),
                  requires_grad=True)
    wgt = Tensor(rng.uniform(0.5, 1.5, (8, 8, 2)))

    def run(ts):
        coords, _ = geo.rigid_warp_coords_pose(ts[0], ts[1], small)
        return (coords * wgt).sum()

    assert check_gradients(run, [depth, pose]) <= 1e-4


def test_scale_rig_center_aware():
    rig = geo.make_rig(100.0, 100.0, 63.5, 31.5, 128, 64, 0.5)
    half = geo.scale_rig(rig, 1)
    assert half.width == 64 and half.height == 32
    # a point projecting to full-res pixel u lands at (u + 0.5)/2 - 0.5
    point = np.array([[1.3, 0.7, 9.0]])
    u_full = point[0, 0] / point[0, 2] * rig.fx + rig.cx
    u_half = point[0, 0] / point[0, 2] * half.fx + half.cx
    assert abs(u_half - ((u_full + 0.5) / 2 - 0.5)) < 1e-12


def test_rig_invariants():
    with pytest.raises(ContractError):
        geo.make_rig(-1.0, 1.0, 0.0, 0.0, 4, 4, 0.1)
    with pytest.raises(ContractError):
        geo.make_rig(1.0, 1.0, 9.0, 0.0, 4, 4, 0.1)


def test_pose6_to_rt_tensor_matches_numpy():
    rng = np.random.default_rng(11)
    pose = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 3)])
    rot_t, trans_t = geo.pose6_to_rt(Tensor(pose))
    expected = geo.se3_from_pose6(pose)
    np.testing.assert_allclose(rot_t.data, expected[:3, :3], atol=1e-15)
    np.testing.assert_array_equal(trans_t.data, expected[:3, 3])
