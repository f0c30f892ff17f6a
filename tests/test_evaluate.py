import numpy as np
import pytest

from flowvo import evaluate as ev
from flowvo.geometry import euler_to_rotmat, se3_matrix
from flowvo.tensor import ContractError


def brute_force_odometry_errors(gt_poses, pred_poses, lengths, frame_rate=10.0, step=1):
    """Independent double-loop implementation: plain numpy, no shared code."""
    pos = np.array([p[:3, 3] for p in gt_poses])
    dist = [0.0]
    for i in range(1, len(pos)):
        dist.append(dist[-1] + float(np.linalg.norm(pos[i] - pos[i - 1])))
    t_errs, r_errs = [], []
    for first in range(0, len(gt_poses), step):
        for length in lengths:
            last = None
            for i in range(first, len(gt_poses)):
                if dist[i] - dist[first] >= length:
                    last = i
                    break
            if last is None:
                continue
            gt_rel = np.linalg.inv(gt_poses[first]) @ gt_poses[last]
            pred_rel = np.linalg.inv(pred_poses[first]) @ pred_poses[last]
            err = np.linalg.inv(gt_rel) @ pred_rel
            t_errs.append(np.linalg.norm(err[:3, 3]) / length)
            tr = np.clip((np.trace(err[:3, :3]) - 1.0) / 2.0, -1.0, 1.0)
            r_errs.append(np.arccos(tr) / length)
    if not t_errs:
        return None
    return (float(np.mean(t_errs)) * 100.0,
            float(np.degrees(np.mean(r_errs))) * 100.0,
            len(t_errs))


def random_trajectory(rng, n, step_scale=1.5):
    poses = [np.eye(4)]
    for _ in range(n - 1):
        rel = se3_matrix(euler_to_rotmat(*rng.uniform(-0.02, 0.02, 3)),
                         rng.uniform(-step_scale, step_scale, 3))
        poses.append(poses[-1] @ rel)
    return poses


def perturbed(rng, poses, rot_sigma=0.01, trans_sigma=0.3):
    out = []
    for p in poses:
        noise = se3_matrix(euler_to_rotmat(*rng.normal(0, rot_sigma, 3)),
                           rng.normal(0, trans_sigma, 3))
        out.append(p @ noise)
    return out


def test_identical_trajectories_zero_error():
    rng = np.random.default_rng(0)
    poses = random_trajectory(rng, 300)
    gt = ev.Trajectory(poses)
    pred = ev.Trajectory([p.copy() for p in poses])
    errors = ev.kitti_odometry_errors(gt, pred)
    assert errors.t_err_percent == 0.0
    assert errors.r_err_deg_per_100m == 0.0
    assert errors.n_subsequences > 0


def test_constructed_one_degree_per_100m():
    # straight 1000 m at 1 m/frame; prediction positions identical but the
    # orientation drifts 1 degree per 100 m: r_err must read 1.00
    n = 1001
    gt, pred = [], []
    for k in range(n):
        pos = np.array([0.0, 0.0, float(k)])
        gt.append(se3_matrix(np.eye(3), pos))
        angle = np.radians(k * 0.01)
        pred.append(se3_matrix(euler_to_rotmat(0.0, angle, 0.0), pos))
    errors = ev.kitti_odometry_errors(ev.Trajectory(gt), ev.Trajectory(pred))
    assert errors.r_err_deg_per_100m == pytest.approx(1.0, abs=0.01)


def test_matches_brute_force_on_random_trajectories():
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(150, 500))
        gt_poses = random_trajectory(rng, n)
        pred_poses = perturbed(rng, gt_poses)
        gt = ev.Trajectory(gt_poses)
        pred = ev.Trajectory(pred_poses)
        got = ev.kitti_odometry_errors(gt, pred)
        expected = brute_force_odometry_errors(gt_poses, pred_poses, ev.SEGMENT_LENGTHS)
        assert expected is not None
        assert abs(got.t_err_percent - expected[0]) <= 1e-9
        assert abs(got.r_err_deg_per_100m - expected[1]) <= 1e-9
        assert got.n_subsequences == expected[2]


def test_insufficient_length_status():
    poses = [se3_matrix(np.eye(3), [0, 0, 0.05 * k]) for k in range(100)]  # 5 m
    errors = ev.kitti_odometry_errors(ev.Trajectory(poses), ev.Trajectory(poses))
    assert errors.insufficient_length
    assert errors.per_length == {} and errors.per_speed == {}
    assert errors.n_subsequences == 0


def test_metric_invariant_to_global_frame():
    rng = np.random.default_rng(7)
    gt_poses = random_trajectory(rng, 200)
    pred_poses = perturbed(rng, gt_poses)
    base = ev.kitti_odometry_errors(ev.Trajectory(gt_poses), ev.Trajectory(pred_poses))
    fixed = se3_matrix(euler_to_rotmat(0.4, -0.2, 0.9), [100.0, -5.0, 3.0])
    both = ev.kitti_odometry_errors(
        ev.Trajectory([fixed @ p for p in gt_poses]),
        ev.Trajectory([fixed @ p for p in pred_poses]))
    pred_only = ev.kitti_odometry_errors(
        ev.Trajectory(gt_poses),
        ev.Trajectory([fixed @ p for p in pred_poses]))
    assert abs(both.t_err_percent - base.t_err_percent) <= 1e-12
    assert abs(both.r_err_deg_per_100m - base.r_err_deg_per_100m) <= 1e-12
    assert abs(pred_only.t_err_percent - base.t_err_percent) <= 1e-12
    assert abs(pred_only.r_err_deg_per_100m - base.r_err_deg_per_100m) <= 1e-12


def test_ate_modes():
    rng = np.random.default_rng(3)
    poses = random_trajectory(rng, 50)
    gt = ev.Trajectory(poses)
    assert ev.ate(gt, gt, "none") == 0.0
    assert ev.ate(gt, gt, "scale") == 0.0
    assert ev.ate(gt, gt, "sim3") <= 1e-9

    doubled = [p.copy() for p in poses]
    for p in doubled:
        p[:3, 3] *= 2.0
    assert ev.ate(gt, ev.Trajectory(doubled), "scale") <= 1e-9

    offset = [p.copy() for p in poses]
    for p in offset:
        p[:3, 3] += np.array([1.0, 2.0, 2.0])
    assert ev.ate(gt, ev.Trajectory(offset), "none") == pytest.approx(3.0, abs=1e-12)


def test_ate_sim3_requires_three_points():
    poses = [np.eye(4), np.eye(4)]
    with pytest.raises(ContractError):
        ev.ate(ev.Trajectory(poses), ev.Trajectory(poses), "sim3")


def test_ate_sim3_removes_similarity():
    rng = np.random.default_rng(5)
    poses = random_trajectory(rng, 60)
    sim = se3_matrix(euler_to_rotmat(0.3, 0.2, -0.5), [4.0, 1.0, -2.0])
    scaled = []
    for p in poses:
        q = sim @ p
        q[:3, 3] = 1.7 * q[:3, 3]
        scaled.append(q)
    assert ev.ate(ev.Trajectory(poses), ev.Trajectory(scaled), "sim3") <= 1e-9


def test_trajectory_length_mismatch():
    a = ev.Trajectory([np.eye(4)] * 3)
    b = ev.Trajectory([np.eye(4)] * 4)
    with pytest.raises(ContractError):
        ev.kitti_odometry_errors(a, b)
    with pytest.raises(ContractError):
        ev.ate(a, b)


def test_speed_bins_constant_speed_single_bucket():
    # 10 Hz at 1 m/frame -> 10 m/s everywhere
    poses = [se3_matrix(np.eye(3), [0, 0, float(k)]) for k in range(300)]
    table = ev.kitti_odometry_errors(ev.Trajectory(poses), ev.Trajectory(poses)).per_speed
    assert list(table.keys()) == [10.0]
    t, r, count = table[10.0]
    assert t == 0.0 and r == 0.0 and count > 0


def test_speed_bins_two_speed_populations():
    # exactly representable steps so arc lengths accumulate without drift:
    # 0.25 m/frame (2.5 m/s) then 0.75 m/frame (7.5 m/s) at 10 Hz
    poses = []
    pos = 0.0
    for k in range(400):
        poses.append(se3_matrix(np.eye(3), [0, 0, pos]))
        pos += 0.25 if k < 200 else 0.75
    gt = ev.Trajectory(poses)
    table = ev.kitti_odometry_errors(gt, gt, lengths=(10.0,)).per_speed
    assert 2.0 in table and 6.0 in table
    # starts fully inside each constant-speed region dominate their buckets
    assert table[2.0][2] >= 160
    assert table[6.0][2] >= 180
    assert all(t == 0.0 and r == 0.0 for t, r, _ in table.values())


def test_error_report_files(tmp_path):
    rng = np.random.default_rng(1)
    poses = random_trajectory(rng, 200)
    gt = ev.Trajectory(poses)
    pred = ev.Trajectory(perturbed(rng, poses))
    errors = ev.kitti_odometry_errors(gt, pred)
    paths = ev.write_error_report(str(tmp_path), errors, {"scale": ev.ate(gt, pred, "scale")})
    for p in paths.values():
        assert open(p).read()
    header = open(paths["per_length"]).readline().strip()
    assert header == "length_m,t_err_percent,r_err_deg_per_100m,count"
