import csv
import os
import shutil

import numpy as np
import pytest

from flowvo import dataio
from flowvo.cli import main
from flowvo.geometry import euler_to_rotmat, se3_matrix

TINY = ["scene.width=32", "scene.height=16", "scene.fx=28", "scene.fy=28",
        "scene.cx=15.5", "scene.cy=7.5", "scene.n_frames=5", "scene.speed=0.1",
        "model.image_h=16", "model.image_w=32", "model.d_model=16",
        "model.depth_base=2", "model.flow_base=2", "model.tape_base=2",
        "train.total_iters=5", "train.stage1_iters=2", "train.batch_size=1",
        "train.n_scales=2"]


def tiny_args(extra):
    out = []
    for kv in TINY + extra:
        out += ["--set", kv]
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> infer, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    assert main(["synth", "--out", data] + tiny_args([])) == 0
    run = str(root / "run")
    assert main(["train", "--data", data, "--out", run] + tiny_args([])) == 0
    traj = str(root / "traj.txt")
    assert main(["infer", "--checkpoint", os.path.join(run, "checkpoint.bin"),
                 "--data", data, "--out", traj]) == 0
    return {"root": root, "data": data, "run": run, "traj": traj}


def test_synth_train_infer_outputs(pipeline):
    assert os.path.exists(os.path.join(pipeline["data"], "left", "000000.ppm"))
    assert os.path.exists(os.path.join(pipeline["run"], "metrics.csv"))
    poses, _ = dataio.read_pose_file(pipeline["traj"])
    assert len(poses) == 5


def test_eval_identical_prints_zero(pipeline, capsys, tmp_path):
    gt = os.path.join(pipeline["data"], "poses_abs.txt")
    out = str(tmp_path / "eval")
    assert main(["eval", "--gt", gt, "--pred", gt, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "t_err 0.00, r_err 0.00" in printed
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert "insufficient" in printed  # 0.4 m of path < 100 m


def test_eval_on_long_trajectory(tmp_path, capsys):
    rng = np.random.default_rng(0)
    poses = [np.eye(4)]
    for _ in range(200):
        rel = se3_matrix(euler_to_rotmat(0, 0.002, 0), [0, 0, 1.2])
        poses.append(poses[-1] @ rel)
    gt_path = str(tmp_path / "gt.txt")
    dataio.write_pose_file(gt_path, poses)
    pred = [p.copy() for p in poses]
    for p in pred:
        p[:3, 3] *= 1.03
    pred_path = str(tmp_path / "pred.txt")
    dataio.write_pose_file(pred_path, pred)
    out = str(tmp_path / "ev")
    assert main(["eval", "--gt", gt_path, "--pred", pred_path,
                 "--align", "scale", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "t_err" in text and "ate[scale]" in text
    assert os.path.exists(os.path.join(out, "per_length.csv"))

    # identical long trajectories print exact zeros
    assert main(["eval", "--gt", gt_path, "--pred", gt_path,
                 "--out", str(tmp_path / "ev0")]) == 0
    assert "t_err 0.00, r_err 0.00" in capsys.readouterr().out


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck", "--seed", "1", "--cases", "1"]) == 0
    printed = capsys.readouterr().out
    assert "softmax" in printed and "max_rel_err" in printed
    assert "attention_head" in printed


def test_missing_file_is_config_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "o")])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_truncated_checkpoint_is_config_error(pipeline, tmp_path, capsys):
    blob = open(os.path.join(pipeline["run"], "checkpoint.bin"), "rb").read()
    for cut in (12, 40, len(blob) // 2, len(blob) - 3):
        path = str(tmp_path / f"cut{cut}.bin")
        with open(path, "wb") as f:
            f.write(blob[:cut])
        code = main(["infer", "--checkpoint", path, "--data", pipeline["data"],
                     "--out", str(tmp_path / "traj.txt")])
        err = capsys.readouterr().err
        assert code == 2, cut
        assert path in err and "truncated" in err, err


def test_truncated_image_is_config_error(pipeline, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(pipeline["data"], data)
    left = os.path.join(data, "left")
    for name in os.listdir(left):
        path = os.path.join(left, name)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])
    code = main(["train", "--data", data, "--out", str(tmp_path / "run")] + tiny_args([]))
    err = capsys.readouterr().err
    assert code == 2
    assert left in err and "byte" in err, err


def test_image_size_differing_from_rig_is_config_error(pipeline, tmp_path, capsys):
    code = main(["train", "--data", pipeline["data"], "--out", str(tmp_path / "run")]
                + tiny_args(["model.image_h=32"]))
    err = capsys.readouterr().err
    assert code == 2
    assert "16x32" in err and "32x32" in err, err

    data = str(tmp_path / "tall")
    assert main(["synth", "--out", data]
                + tiny_args(["scene.height=32", "scene.cy=15.5", "scene.n_frames=2"])) == 0
    code = main(["infer", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"),
                 "--data", data, "--out", str(tmp_path / "traj.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "32x32" in err and "16x32" in err, err


@pytest.mark.parametrize("key", ["d_model", "n_heads", "depth_base", "flow_base",
                                 "tape_base", "image_h", "image_w"])
def test_nonpositive_model_size_is_config_error(pipeline, tmp_path, capsys, key):
    code = main(["train", "--data", pipeline["data"], "--out", str(tmp_path / "run")]
                + tiny_args([f"model.{key}=0"]))
    err = capsys.readouterr().err
    assert code == 2
    assert f"model.{key}" in err and "Traceback" not in err, err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "s"), "--set", "scene.moons=2"])
    assert code == 2
    assert "scene.moons" in capsys.readouterr().err


def test_out_defaults_to_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWVO_OUT", str(tmp_path / "root"))
    assert main(["synth"] + tiny_args([])) == 0
    assert os.path.exists(str(tmp_path / "root" / "synth" / "rig.txt"))


def test_no_out_and_no_env_is_config_error(monkeypatch, capsys):
    monkeypatch.delenv("FLOWVO_OUT", raising=False)
    assert main(["synth"] + tiny_args([])) == 2
    assert "FLOWVO_OUT" in capsys.readouterr().err


def test_list_keys(capsys):
    assert main(["--list-keys"]) == 0
    assert "train.lr0" in capsys.readouterr().out


def test_render_failure_is_runtime_error(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "bad")]
                + tiny_args(["scene.base_depth=2.2", "scene.speed=0.3",
                             "scene.n_frames=20", "scene.surface_amp=0.0"]))
    assert code == 3
    assert "error[runtime]" in capsys.readouterr().err


def test_ablate_lpc_comparison(pipeline, tmp_path, capsys):
    out = str(tmp_path / "ab")
    code = main(["ablate", "--data", pipeline["data"], "--heldout", pipeline["data"],
                 "--toggle", "lpc=0", "--out", out] + tiny_args([]))
    assert code == 0
    cmp_path = os.path.join(out, "comparison_lpc_0.csv")
    lines = open(cmp_path).read().strip().splitlines()
    assert lines[0].startswith("variant,ate_scale_m")
    assert len(lines) == 3
    # 0.4 m of held-out path is too short for drift errors, and the file says so
    rows = list(csv.DictReader(lines))
    assert [r["insufficient_length"] for r in rows] == ["1", "1"]
    assert capsys.readouterr().out.count("status: insufficient length") == 2


def test_ffg_ifg_toggles_compare_preset_with_baseline():
    from flowvo.cli import _toggle_variants
    from flowvo.config import load_run_config

    def components(overrides):
        m = load_run_config(None, overrides).model
        return m.ifg_mode, m.use_ffg, m.use_tape

    base = ["model.use_tape=true", "model.ifg_mode=fixture", "model.use_ffg=true"]
    off = ("none", False, False)
    for toggle, on in (("ffg", ("none", True, False)), ("ifg", ("fixture", False, False))):
        label, on_set, off_set = _toggle_variants(toggle, base)
        assert label == toggle
        assert components(on_set) == on and components(off_set) == off


def test_train_preset_baseline(tmp_path):
    data = str(tmp_path / "d")
    assert main(["synth", "--out", data] + tiny_args([])) == 0
    run = str(tmp_path / "r")
    code = main(["train", "--data", data, "--out", run, "--preset", "baseline"]
                + tiny_args([]))
    assert code == 0
    from flowvo.trainer import load_model
    model, _ = load_model(os.path.join(run, "checkpoint.bin"))
    assert model.cfg.ifg_mode == "none"
    assert model.cfg.use_tape is False and model.cfg.use_ffg is False


def test_unknown_preset_is_config_error(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                 "--preset", "warp9"]) == 2
    assert "preset" in capsys.readouterr().err
