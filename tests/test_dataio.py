import numpy as np
import pytest

from flowvo import dataio
from flowvo.geometry import euler_to_rotmat, make_rig, se3_matrix


def test_ppm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((6, 9, 3))
    path = str(tmp_path / "x.ppm")
    dataio.write_ppm(path, img)
    back = dataio.read_ppm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12


def test_ppm_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ppm")
    with open(path, "wb") as f:
        f.write(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(dataio.ParseError):
        dataio.read_ppm(path)


def test_pfm_roundtrip_gray_and_color(tmp_path):
    rng = np.random.default_rng(1)
    gray = rng.normal(0, 10, (5, 7)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "g.pfm")
    dataio.write_pfm(path, gray)
    np.testing.assert_array_equal(dataio.read_pfm(path), gray)
    color = rng.normal(0, 10, (4, 6, 3)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "c.pfm")
    dataio.write_pfm(path, color)
    np.testing.assert_array_equal(dataio.read_pfm(path), color)


def test_flow_pfm_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    flow = rng.normal(0, 3, (4, 5, 2)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "f.pfm")
    dataio.write_flow_pfm(path, flow)
    np.testing.assert_array_equal(dataio.read_flow_pfm(path), flow)


def test_identity_pose_line_roundtrips_exactly(tmp_path):
    path = str(tmp_path / "poses.txt")
    with open(path, "w") as f:
        f.write("1 0 0 0 0 1 0 0 0 0 1 0\n")
    poses, n_fixed = dataio.read_pose_file(path)
    assert n_fixed == 0
    np.testing.assert_array_equal(poses[0], np.eye(4))
    assert dataio.format_pose_line(poses[0]) == "1 0 0 0 0 1 0 0 0 0 1 0"


def test_pose_file_write_read_write_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    poses = [se3_matrix(euler_to_rotmat(*rng.uniform(-1, 1, 3)), rng.uniform(-9, 9, 3))
             for _ in range(7)]
    p1 = str(tmp_path / "a.txt")
    p2 = str(tmp_path / "b.txt")
    dataio.write_pose_file(p1, poses)
    loaded, n_fixed = dataio.read_pose_file(p1)
    assert n_fixed == 0
    dataio.write_pose_file(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    for a, b in zip(poses, loaded):
        assert np.abs(a - b).max() <= 1e-12


def test_pose_file_malformed_line_reports_position(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as f:
        f.write("1 0 0 0 0 1 0 0 0 0 1 0\n")
        f.write("1 0 0\n")
    with pytest.raises(dataio.ParseError, match=r":2"):
        dataio.read_pose_file(path)


def test_pose_file_reorthonormalizes_drifted_rotation(tmp_path):
    rot = euler_to_rotmat(0.2, 0.1, -0.3) * 1.001  # drifted scale
    path = str(tmp_path / "drift.txt")
    vals = np.hstack([np.column_stack([rot, [1.0, 2.0, 3.0]]).reshape(12)])
    with open(path, "w") as f:
        f.write(" ".join(str(v) for v in vals) + "\n")
    poses, n_fixed = dataio.read_pose_file(path)
    assert n_fixed == 1
    r = poses[0][:3, :3]
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)


def test_rig_roundtrip(tmp_path):
    rig = make_rig(100.5, 99.25, 63.5, 31.5, 128, 64, 0.54)
    path = str(tmp_path / "rig.txt")
    dataio.write_rig(path, rig)
    back = dataio.read_rig(path)
    assert back.fx == rig.fx and back.fy == rig.fy
    assert back.width == rig.width and back.height == rig.height
    assert back.baseline == pytest.approx(rig.baseline)


def test_rig_missing_key(tmp_path):
    path = str(tmp_path / "rig.txt")
    with open(path, "w") as f:
        f.write("fx = 10\n")
    with pytest.raises(dataio.ParseError, match="missing rig key"):
        dataio.read_rig(path)


def test_rig_non_numeric_value_names_line(tmp_path):
    path = str(tmp_path / "rig.txt")
    with open(path, "w") as f:
        f.write("# rig\nfx = abc\n")
    with pytest.raises(dataio.ParseError, match=r"rig\.txt:2: fx"):
        dataio.read_rig(path)


@pytest.mark.parametrize("kind", ["ppm", "flow_pfm"])
def test_truncated_image_names_path_and_offset(tmp_path, kind):
    path = str(tmp_path / f"x.{kind}")
    if kind == "ppm":
        dataio.write_ppm(path, np.full((16, 32, 3), 0.5))
        reader = dataio.read_ppm
    else:
        dataio.write_flow_pfm(path, np.ones((16, 32, 2)))
        reader = dataio.read_flow_pfm
    blob = open(path, "rb").read()
    for cut in (len(blob) // 2, 5):
        with open(path, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(dataio.ParseError, match="byte") as info:
            reader(path)
        assert path in str(info.value)
