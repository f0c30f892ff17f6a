import csv
import os

import numpy as np
import pytest

from flowvo import trainer as tr
from flowvo.geometry import se3_from_pose6
from flowvo.losses import LossConfig
from flowvo.networks import ModelConfig, SeedStream, VoModel, load_checkpoint, save_checkpoint
from flowvo.synthscene import SceneDataset, SceneSpec, render
from flowvo.tensor import ContractError, NumericError, Tensor

TINY_SCENE = dict(width=32, height=16, fx=28.0, fy=28.0, cx=15.5, cy=7.5,
                  base_depth=8.0, speed=0.1)
def tiny_model_cfg(**kw):
    base = dict(image_h=16, image_w=32, d_model=16, n_heads=2, depth_base=2,
                flow_base=2, tape_base=2)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tinyscene"))
    render(SceneSpec(seed=31, n_frames=6, **TINY_SCENE), out)
    return SceneDataset(out)


def tiny_train_cfg(**kw):
    base = dict(total_iters=5, stage1_iters=2, stage1_window=500,
                checkpoint_every=100, seed=3, batch_size=1, n_scales=2)
    base.update(kw)
    return tr.TrainConfig(**base)


# -- schedule ------------------------------------------------------------------


def test_lr_schedule_exact_halving():
    lr0, total = 2e-4, 1000
    for k in (0, 199, 200, 399, 400, 999):
        expected = lr0 * 2.0 ** (-((5 * k) // total))
        assert tr.schedule_lr(lr0, k, total) == expected
    assert tr.schedule_lr(lr0, 0, total) == lr0
    assert tr.schedule_lr(lr0, 200, total) == lr0 / 2
    assert tr.schedule_lr(lr0, 800, total) == lr0 / 16


def test_train_config_validation():
    with pytest.raises(ContractError):
        tr.TrainConfig(total_iters=7)
    with pytest.raises(ContractError):
        tr.TrainConfig(total_iters=10, seq_len=4)
    with pytest.raises(ContractError, match="batch_size"):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ContractError, match="checkpoint_every"):
        tr.TrainConfig(checkpoint_every=0)


# -- adam ----------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = tr.AdamState()
    tr.adam_step({"p": p}, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.array([0.3])
    tr.adam_step({"p": p}, tr.AdamState(), lr=1e-3)
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    assert abs((0.5 - p.data[0]) - 1e-3) < 1e-9


def test_adam_quadratic_bowl_converges():
    target = np.array([1.5, -2.0, 0.3])
    p = Tensor(np.zeros(3), requires_grad=True)
    state = tr.AdamState()
    for _ in range(5000):
        p.grad = 2.0 * (p.data - target)
        tr.adam_step({"p": p}, state, lr=0.01)
        if np.abs(p.data - target).max() <= 1e-6:
            break
    assert np.abs(p.data - target).max() <= 1e-6


def test_adam_nonfinite_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.inf])
    with pytest.raises(NumericError, match="badparam"):
        tr.adam_step({"badparam": p}, tr.AdamState(), lr=0.1)


# -- pose integration --------------------------------------------------------------


def test_integrate_identity_stays_at_origin():
    rels = [np.eye(4)] * 10
    poses = tr.integrate_relative_poses(rels)
    for p in poses:
        np.testing.assert_array_equal(p, np.eye(4))


def test_integrate_gt_relative_poses_recovers_absolute(tiny_data):
    poses = tr.integrate_relative_poses(tiny_data.rel_poses,
                                        start=tiny_data.abs_poses[0])
    for got, want in zip(poses, tiny_data.abs_poses):
        assert np.abs(got - want).max() <= 1e-9


# -- wiring ---------------------------------------------------------------------


def _tape_grads_without_consistency(tiny_data, **model_kw):
    """Gradients of the tape.* parameters of one window with lambda_pc = 0."""
    model = VoModel(tiny_model_cfg(use_tape=True, **model_kw), seed=1)
    cfg = tiny_train_cfg(loss=LossConfig(lambda_pc=0.0))
    win = tr._window(tiny_data, 0, 3, fixture=True)
    vals = tr.window_losses(model, win, tiny_data.rig, cfg, train_mode=False,
                            seeds=SeedStream(0))
    vals["L_all"].backward()
    tape_grads = {k: p.grad for k, p in model.params.items() if k.startswith("tape.")}
    assert tape_grads
    return tape_grads


def test_lambda_pc_zero_gives_tape_zero_gradient(tiny_data):
    for name, g in _tape_grads_without_consistency(tiny_data).items():
        assert g is None or np.abs(g).max() == 0.0, name


def test_tape_photometric_trains_tape_without_consistency(tiny_data):
    grads = _tape_grads_without_consistency(tiny_data, tape_photometric=True)
    assert any(g is not None and np.abs(g).max() > 0.0 for g in grads.values())


def test_stage1_logs_depth_only_objective(tiny_data, tmp_path):
    cfg = tiny_train_cfg(total_iters=5, stage1_iters=3)
    res = tr.train(tiny_data, cfg, tiny_model_cfg(), str(tmp_path / "run"))
    rows1 = list(csv.DictReader(open(res.metrics_stage1_path)))
    assert len(rows1) == 3
    for row in rows1:
        assert float(row["L_pc"]) == 0.0


def test_checkpoint_model_config_keeps_version_1_layout(tmp_path):
    mc = tiny_model_cfg(dropout=0.25, ifg_mode="trainable", use_ffg=True, use_tape=False,
                        min_depth=0.75, max_depth=40.0, rot_scale=0.02, trans_scale=0.5,
                        position_encoding=False, tape_photometric=True)
    table = tr._meta_table(VoModel(mc, seed=0), tr.AdamState(), 1, 0, tiny_train_cfg())
    # d_model, n_heads, dropout, depth/flow/tape_base, ifg_mode index, use_ffg, use_tape,
    # min/max_depth, rot/trans_scale, position_encoding, tape_photometric, image_h/w
    v1 = [16, 2, 0.25, 2, 2, 2, 2, 1, 0, 0.75, 40.0, 0.02, 0.5, 0, 1, 16, 32]
    assert table["cfg/model"].dtype == np.float64
    np.testing.assert_array_equal(table["cfg/model"], v1)
    path = str(tmp_path / "checkpoint.bin")
    save_checkpoint(path, table)
    model, _ = tr.load_model(path)
    assert model.cfg == mc


def test_train_writes_metrics_and_checkpoint(tiny_data, tmp_path):
    out = str(tmp_path / "run")
    cfg = tiny_train_cfg()
    res = tr.train(tiny_data, cfg, tiny_model_cfg(), out)
    assert os.path.exists(res.checkpoint_path)
    rows = list(csv.DictReader(open(res.metrics_path)))
    assert len(rows) == cfg.total_iters
    assert list(rows[0]) == list(tr.METRIC_COLUMNS)
    lrs = [float(r["lr"]) for r in rows]
    assert lrs[0] == cfg.lr0 and lrs[-1] == cfg.lr0 / 16


def test_train_deterministic_metrics(tiny_data, tmp_path):
    cfg = tiny_train_cfg()
    tr.train(tiny_data, cfg, tiny_model_cfg(), str(tmp_path / "a"))
    tr.train(tiny_data, cfg, tiny_model_cfg(), str(tmp_path / "b"))
    a = open(tmp_path / "a" / "metrics.csv", "rb").read()
    b = open(tmp_path / "b" / "metrics.csv", "rb").read()
    assert a == b


def test_resume_matches_uninterrupted(tiny_data, tmp_path):
    mcfg = tiny_model_cfg()
    cfg = tiny_train_cfg(total_iters=10, checkpoint_every=100)
    tr.train(tiny_data, cfg, mcfg, str(tmp_path / "full"))
    part_dir = str(tmp_path / "part")
    tr.train(tiny_data, cfg, mcfg, part_dir, stop_after=5)
    tr.train(tiny_data, cfg, mcfg, part_dir,
             resume_from=os.path.join(part_dir, "checkpoint.bin"))
    for name in ("metrics.csv", "metrics_stage1.csv", "checkpoint.bin"):
        full = (tmp_path / "full" / name).read_bytes()
        assert full == (tmp_path / "part" / name).read_bytes(), name


def test_training_abort_keeps_last_good_checkpoint(tiny_data, tmp_path, monkeypatch):
    calls = {"n": 0}
    real = tr.window_losses

    def exploding(*args, **kw):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericError("op 'mul' produced non-finite values")
        return real(*args, **kw)

    monkeypatch.setattr(tr, "window_losses", exploding)
    out = str(tmp_path / "run")
    with pytest.raises(tr.TrainingAborted):
        tr.train(tiny_data, tiny_train_cfg(total_iters=10, stage1_iters=0),
                 tiny_model_cfg(), out)
    assert os.path.exists(os.path.join(out, "checkpoint.bin"))
    model, table = tr.load_model(os.path.join(out, "checkpoint.bin"))
    assert int(table["meta/stage"][0]) == 2


@pytest.mark.parametrize("failure", ["forward", "adam_step"])
def test_abort_keeps_state_of_last_finished_iteration(tiny_data, tmp_path, monkeypatch,
                                                      failure):
    """A numeric error in stage-2 iteration 2, in the forward pass or halfway
    through the Adam step, leaves the checkpoint a `stop_after=2` run ends with."""
    cfg, mcfg = tiny_train_cfg(total_iters=10), tiny_model_cfg()
    ref = tr.train(tiny_data, cfg, mcfg, str(tmp_path / "ref"), stop_after=2)
    calls = {"n": 0}
    partial = {}
    if failure == "forward":
        real_losses = tr.window_losses

        def failing(*args, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NumericError("op 'mul' produced non-finite values")
            return real_losses(*args, **kw)

        monkeypatch.setattr(tr, "window_losses", failing)
    else:
        real_step = tr.adam_step

        def failing(params, state, lr, *args):
            calls["n"] += 1
            if calls["n"] != cfg.stage1_iters + 3:
                return real_step(params, state, lr, *args)
            first, last = list(params.values())[0], list(params.values())[-1]
            last.grad = np.full_like(last.data, np.nan)
            before = first.data
            try:
                real_step(params, state, lr, *args)
            finally:
                partial["first_updated"] = first.data is not before

        monkeypatch.setattr(tr, "adam_step", failing)
    out = tmp_path / "aborted"
    with pytest.raises(tr.TrainingAborted):
        tr.train(tiny_data, cfg, mcfg, str(out))
    if failure == "adam_step":
        assert partial["first_updated"]
    got = load_checkpoint(str(out / "checkpoint.bin"))
    want = load_checkpoint(ref.checkpoint_path)
    assert sorted(got) == sorted(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert (out / "metrics.csv").read_bytes() == open(ref.metrics_path, "rb").read()


def test_benchmark_hooks(tiny_data, tmp_path, monkeypatch):
    """What the benchmark harness relies on: one `VoModel.zero_grads` call per
    metric row, a `stop_after` answered through `__le__` alone, and the loss
    and optimizer functions looked up as module globals at call time."""
    counts = {"zero_grads": 0, "window_losses": 0, "stereo_stage_losses": 0,
              "adam_step": 0}
    real_zero = VoModel.zero_grads

    def zero_grads(model):
        counts["zero_grads"] += 1
        real_zero(model)

    monkeypatch.setattr(VoModel, "zero_grads", zero_grads)
    for name in ("window_losses", "stereo_stage_losses", "adam_step"):
        def counted(*args, _name=name, _real=getattr(tr, name), **kw):
            counts[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(tr, name, counted)

    class StopAt3:
        def __init__(self):
            self.seen = []

        def __le__(self, iteration):
            self.seen.append(iteration)
            return iteration >= 3

    stop = StopAt3()
    cfg = tiny_train_cfg(total_iters=10, stage1_iters=2, batch_size=2)
    res = tr.train(tiny_data, cfg, tiny_model_cfg(), str(tmp_path / "run"), stop_after=stop)
    n1 = len(list(csv.DictReader(open(res.metrics_stage1_path))))
    n2 = len(list(csv.DictReader(open(res.metrics_path))))
    assert (n1, n2) == (2, 3)
    assert stop.seen == [1, 2, 3]
    assert counts["zero_grads"] == counts["adam_step"] == n1 + n2
    assert counts["window_losses"] == n2 * cfg.batch_size
    assert counts["stereo_stage_losses"] == (n1 + n2 * cfg.seq_len) * cfg.batch_size


def test_infer_trajectory_runs_and_has_right_length(tiny_data, tmp_path):
    cfg = tiny_train_cfg()
    res = tr.train(tiny_data, cfg, tiny_model_cfg(), str(tmp_path / "run"))
    model, _ = tr.load_model(res.checkpoint_path)
    frames = [tiny_data.left(i) for i in range(tiny_data.n_frames)]
    traj = tr.infer_trajectory(model, frames, flow_provider=tiny_data.flow_fwd)
    assert len(traj) == tiny_data.n_frames
    np.testing.assert_array_equal(traj.poses[0], np.eye(4))


def test_infer_requires_flow_provider_in_fixture_mode(tiny_data, tmp_path):
    model = VoModel(tiny_model_cfg(), seed=0)
    frames = [tiny_data.left(i) for i in range(2)]
    with pytest.raises(ContractError):
        tr.infer_trajectory(model, frames)


def test_augment_hook_changes_images_deterministically():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    imgs = [np.random.default_rng(0).random((4, 4, 3))]
    a = tr.augment_images(imgs, rng1)[0]
    b = tr.augment_images(imgs, rng2)[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, imgs[0])
    assert a.min() >= 0.0 and a.max() <= 1.0
