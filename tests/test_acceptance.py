"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the
PASS lines and measured values inline). The desk-scale training run is
shared across criteria through session fixtures.
"""

import csv
import filecmp
import os
import time

import numpy as np
import pytest

from flowvo.config import load_run_config
from flowvo.evaluate import (
    SEGMENT_LENGTHS,
    Trajectory,
    ate,
    kitti_odometry_errors,
    translation_direction_errors,
)
from flowvo.gradcheck import REL_TOL, run_model_suite, run_primitive_suite
from flowvo.geometry import identity_grid, invert, rigid_warp_coords_np
from flowvo.losses import image_synthesis_loss
from flowvo.networks import ModelConfig, VoModel, attention_head
from flowvo.nnops import grid_sample_bilinear
from flowvo.synthscene import (
    SceneDataset,
    SceneSpec,
    motion_poses,
    project_points,
    render,
    render_view,
)
from flowvo.tensor import Tensor
from flowvo.trainer import (
    TrainConfig,
    infer_relative_poses,
    infer_trajectory,
    load_model,
    train,
)
from flowvo.losses import LossConfig

pytestmark = pytest.mark.acceptance

# -- desk-scale experiment configuration (64x128 per the acceptance bar) -----

TRAIN_SCENE = SceneSpec(seed=11, n_frames=40)
HELDOUT_SCENE = SceneSpec(seed=77, n_frames=100)

# desk-scale recalibration (see decisions ledger): the synthetic photometric
# pose gradient is ~1e-3-scale, so the consistency weight is scaled to match
# rather than drown it, and dropout regularization is pointless noise over a
# few hundred iterations on synthetic data
DESK_LOSS = dict(lambda_pc=0.01)
DESK_TRAIN = dict(total_iters=800, stage1_iters=200, batch_size=2, seq_len=3,
                  checkpoint_every=200, seed=4)
DESK_MODEL = dict(ifg_mode="fixture", use_tape=True, dropout=0.0)

# reduced config for the determinism / resume / ablation criteria, which
# assert reproducibility and completion rather than accuracy
SMALL_TRAIN = dict(total_iters=40, stage1_iters=20, batch_size=1,
                   checkpoint_every=20, seed=9)


def _print_result(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_data")
    train_dir = str(root / "train")
    held_dir = str(root / "held")
    render(TRAIN_SCENE, train_dir)
    render(HELDOUT_SCENE, held_dir)
    return SceneDataset(train_dir), SceneDataset(held_dir)


@pytest.fixture(scope="session")
def desk_run(datasets, tmp_path_factory):
    train_ds, _ = datasets
    out = str(tmp_path_factory.mktemp("accept_run"))
    cfg = TrainConfig(loss=LossConfig(**DESK_LOSS), **DESK_TRAIN)
    t0 = time.time()
    result = train(train_ds, cfg, ModelConfig(**DESK_MODEL), out)
    return {"result": result, "minutes": (time.time() - t0) / 60.0, "cfg": cfg}


# -- criterion 1: gradient suite ----------------------------------------------


def test_criterion_gradient_suite():
    t0 = time.time()
    results = run_primitive_suite(seed=2024, cases_per_op=20)
    results.update(run_model_suite(seed=2024, cases_per_op=20))
    elapsed = time.time() - t0
    worst = max(results.values())
    failures = {k: v for k, v in results.items() if v > REL_TOL}
    assert not failures, f"gradient failures: {failures}"
    assert elapsed <= 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    _print_result("gradient-suite",
                  f"{len(results)} ops/losses, worst rel err {worst:.2e}, {elapsed:.0f}s")


# -- criterion 2: geometry oracle ----------------------------------------------


def test_criterion_geometry_oracle():
    spec = TRAIN_SCENE
    rig = spec.rig()
    poses = motion_poses(spec)
    img0, depth0, pts0 = render_view(spec, poses[0], 0, rig)
    img1, depth1, _ = render_view(spec, poses[1], 1, rig)
    grid = identity_grid(rig.height, rig.width)

    # exact rigid-flow equality on float64 ground truth
    flow_gt = project_points(pts0, poses[1], rig) - grid
    rel_0to1 = invert(invert(poses[0]) @ poses[1])
    coords_f, _ = rigid_warp_coords_np(depth0, rel_0to1, rig)
    flow_err = np.abs(coords_f - grid - flow_gt).max()
    assert flow_err <= 1e-9

    # pose-path warp: reconstruct frame 1 from frame 0
    rel_1to0 = invert(poses[0]) @ poses[1]
    coords_p, valid_p = rigid_warp_coords_np(depth1, rel_1to0, rig)
    rec_p = grid_sample_bilinear(Tensor(img0), Tensor(coords_p)).data
    mae_pose = np.abs(rec_p - img1)[valid_p].mean()
    assert mae_pose <= 1e-3

    # flow-path warp: reconstruct frame 0 from frame 1 via GT forward flow
    coords_fl = grid + flow_gt
    valid_fl = ((coords_fl[..., 0] >= 0) & (coords_fl[..., 0] <= rig.width - 1)
                & (coords_fl[..., 1] >= 0) & (coords_fl[..., 1] <= rig.height - 1))
    rec_f = grid_sample_bilinear(Tensor(img1), Tensor(coords_fl)).data
    mae_flow = np.abs(rec_f - img0)[valid_fl].mean()
    assert mae_flow <= 1e-3
    _print_result("geometry-oracle",
                  f"flow eq {flow_err:.1e}, pose-warp MAE {mae_pose:.1e}, "
                  f"flow-warp MAE {mae_flow:.1e}")


# -- criterion 3: evaluator oracle ----------------------------------------------


def _brute_force(gt_poses, pred_poses, lengths):
    pos = np.array([p[:3, 3] for p in gt_poses])
    dist = [0.0]
    for i in range(1, len(pos)):
        dist.append(dist[-1] + float(np.linalg.norm(pos[i] - pos[i - 1])))
    t_errs, r_errs = [], []
    for first in range(len(gt_poses)):
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
            if np.array_equal(gt_rel, pred_rel):
                t_errs.append(0.0)
                r_errs.append(0.0)
                continue
            err = np.linalg.inv(gt_rel) @ pred_rel
            t_errs.append(np.linalg.norm(err[:3, 3]) / length)
            tr = np.clip((np.trace(err[:3, :3]) - 1.0) / 2.0, -1.0, 1.0)
            r_errs.append(np.arccos(tr) / length)
    if not t_errs:
        return None
    return (float(np.mean(t_errs)) * 100.0,
            float(np.degrees(np.mean(r_errs))) * 100.0)


def test_criterion_evaluator_oracle():
    from flowvo.geometry import euler_to_rotmat, se3_matrix

    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(120, 500))
        poses = [np.eye(4)]
        for _ in range(n - 1):
            rel = se3_matrix(euler_to_rotmat(*rng.uniform(-0.02, 0.02, 3)),
                             rng.uniform(-1.5, 1.5, 3))
            poses.append(poses[-1] @ rel)
        pred = []
        for p in poses:
            noise = se3_matrix(euler_to_rotmat(*rng.normal(0, 0.01, 3)),
                               rng.normal(0, 0.3, 3))
            pred.append(p @ noise)
        got = kitti_odometry_errors(Trajectory(poses), Trajectory(pred))
        expected = _brute_force(poses, pred, SEGMENT_LENGTHS)
        assert expected is not None
        worst = max(worst, abs(got.t_err_percent - expected[0]),
                    abs(got.r_err_deg_per_100m - expected[1]))
        assert worst <= 1e-9

    # constructed drift: straight 1000 m, orientation drifting 1 deg / 100 m
    gt, pred = [], []
    for k in range(1001):
        pos = np.array([0.0, 0.0, float(k)])
        gt.append(se3_matrix(np.eye(3), pos))
        pred.append(se3_matrix(euler_to_rotmat(0.0, np.radians(k * 0.01), 0.0), pos))
    errors = kitti_odometry_errors(Trajectory(gt), Trajectory(pred))
    assert errors.r_err_deg_per_100m == pytest.approx(1.0, abs=0.01)

    same = kitti_odometry_errors(Trajectory(gt), Trajectory([p.copy() for p in gt]))
    assert same.t_err_percent == 0.0 and same.r_err_deg_per_100m == 0.0
    _print_result("evaluator-oracle",
                  f"50 trajectories within {worst:.1e}, constructed drift "
                  f"{errors.r_err_deg_per_100m:.3f} deg/100m, identical -> (0, 0)")


# -- criterion 4: attention contract ----------------------------------------------


def test_criterion_attention_contract():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n, d_k, d_v = rng.integers(2, 6), int(rng.integers(2, 8)), int(rng.integers(2, 8))
        q = rng.normal(0, 1, (int(n), d_k))
        k = rng.normal(0, 1, (int(n), d_k))
        v = rng.normal(0, 1, (int(n), d_v))
        got = attention_head(Tensor(q), Tensor(k), Tensor(v)).data
        logits = q @ k.T / np.sqrt(d_k)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = (e / e.sum(axis=1, keepdims=True)) @ v
        worst = max(worst, np.abs(got - expected).max())
    assert worst <= 1e-12

    model = VoModel(ModelConfig(d_model=64, n_heads=2, dropout=0.0), seed=5)
    g1 = Tensor(rng.random((64, 128, 4)))
    g2 = Tensor(rng.random((64, 128, 4)))
    fwd = model.tape([g1, g2], train_mode=False, position_encoding=False).data
    rev = model.tape([g2, g1], train_mode=False, position_encoding=False).data
    assert np.array_equal(fwd, rev[::-1]), "permutation equivariance not bit-exact"
    _print_result("attention-contract",
                  f"formula err {worst:.1e}, permutation bit-exact")


# -- criterion 5: desk-scale training ----------------------------------------------


def test_criterion_desk_training(datasets, desk_run):
    _, held = datasets
    result = desk_run["result"]
    minutes = desk_run["minutes"]
    assert minutes <= 30.0, f"training took {minutes:.1f} min (budget 30)"

    rows = list(csv.DictReader(open(result.metrics_path)))
    first = {k: float(v) for k, v in rows[0].items()}
    tail = rows[-20:]
    final_all = float(np.median([float(r["L_all"]) for r in tail]))
    final_pc = float(np.median([float(r["L_pc"]) for r in tail]))
    drop_all = first["L_all"] / final_all
    drop_pc = first["L_pc"] / max(final_pc, 1e-12)
    assert drop_all >= 10.0, f"total loss fell only {drop_all:.1f}x"
    assert drop_pc >= 10.0, f"pose-consistency loss fell only {drop_pc:.1f}x"

    model, _ = load_model(result.checkpoint_path)
    frames = [held.left(i) for i in range(held.n_frames)]
    traj = infer_trajectory(model, frames, flow_provider=held.flow_fwd)
    gt = Trajectory(held.abs_poses)
    path_len = float(np.linalg.norm(np.diff(gt.positions(), axis=0), axis=1).sum())
    ate_val = ate(gt, traj, align="scale")
    ate_frac = ate_val / path_len
    assert ate_frac <= 0.05, f"scale-aligned ATE {100 * ate_frac:.1f}% of path"

    rels = infer_relative_poses(model, frames, held.flow_fwd)
    dir_median = float(np.median(translation_direction_errors(held.rel_poses, rels)))
    assert dir_median <= 10.0, f"median direction error {dir_median:.1f} deg"
    _print_result("desk-training",
                  f"{minutes:.1f} min, L_all x{drop_all:.0f}, L_pc x{drop_pc:.0f}, "
                  f"ATE {100 * ate_frac:.2f}% of {path_len:.1f} m, "
                  f"dir median {dir_median:.1f} deg")


# -- criterion 6: ablation direction check (soft) -------------------------------------


def test_criterion_ablation_comparison(datasets, tmp_path_factory, capsys):
    from flowvo.cli import main

    train_ds, held = datasets
    out = str(tmp_path_factory.mktemp("ablate"))
    args = ["ablate", "--data", train_ds.root, "--heldout", held.root,
            "--toggle", "lpc=0", "--out", out]
    for key, val in SMALL_TRAIN.items():
        args += ["--set", f"train.{key}={val}"]
    # the consistency-enabled arm uses the published weight
    args += ["--set", "loss.lambda_pc=1.0"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    cmp_path = os.path.join(out, "comparison_lpc_0.csv")
    rows = list(csv.DictReader(open(cmp_path)))
    assert {r["variant"] for r in rows} == {"on", "off"}
    for row in rows:
        assert float(row["ate_scale_m"]) >= 0.0
    _print_result("ablation-comparison",
                  "; ".join(f"lpc {r['variant']}: ate {float(r['ate_scale_m']):.3f} m"
                            for r in rows))


# -- criterion 7: determinism -----------------------------------------------------


def test_criterion_determinism_and_resume(datasets, tmp_path_factory):
    train_ds, _ = datasets
    root = tmp_path_factory.mktemp("determinism")
    cfg = TrainConfig(loss=LossConfig(**DESK_LOSS), **SMALL_TRAIN)
    mcfg = ModelConfig(**DESK_MODEL)

    # byte-identical metrics on repeated runs
    a = train(train_ds, cfg, mcfg, str(root / "a"))
    b = train(train_ds, cfg, mcfg, str(root / "b"))
    assert filecmp.cmp(a.metrics_path, b.metrics_path, shallow=False)
    assert filecmp.cmp(a.metrics_stage1_path, b.metrics_stage1_path, shallow=False)

    # interrupted + resumed run matches the uninterrupted one
    half = cfg.total_iters // 2
    part_dir = str(root / "part")
    train(train_ds, cfg, mcfg, part_dir, stop_after=half)
    resumed = train(train_ds, cfg, mcfg, part_dir,
                    resume_from=os.path.join(part_dir, "checkpoint.bin"))
    rows_a = list(csv.DictReader(open(a.metrics_path)))
    rows_r = list(csv.DictReader(open(resumed.metrics_path)))
    assert len(rows_a) == len(rows_r) == cfg.total_iters
    worst = max(abs(float(ra["L_all"]) - float(rr["L_all"]))
                for ra, rr in zip(rows_a[half:], rows_r[half:]))
    assert worst <= 1e-12, f"resume diverged by {worst}"
    _print_result("determinism",
                  f"metrics byte-identical, resume within {worst:.1e}")
