"""On-disk formats: 16-bit binary PPM images, PFM float maps, pose text
files (12 values per line, row-major top three rows of the 4x4
world-from-camera matrix), and the plain-text rig description.
"""

from __future__ import annotations

import os

import numpy as np

from .geometry import CameraRig, check_rotation, make_rig, orthonormalize


class ParseError(ValueError):
    """Malformed input file; message carries the path and line/byte position."""


# -- PPM (P6, 16-bit) ------------------------------------------------------


def write_ppm(path: str, img: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0, 1] as a maxval-65535 P6 PPM."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"write_ppm expects (H, W, 3), got {img.shape}")
    h, w, _ = img.shape
    q = np.clip(np.rint(img * 65535.0), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n65535\n".encode("ascii"))
        f.write(q.tobytes())


def _samples(path: str, raw: bytes, dtype, offset: int, count: int) -> np.ndarray:
    """`count` values of `dtype` stored in `raw` from byte `offset` on."""
    end = offset + count * np.dtype(dtype).itemsize
    if len(raw) < end:
        raise ParseError(f"{path}: file ends at byte {len(raw)}, but its header "
                         f"promises data up to byte {end}")
    return np.frombuffer(raw, dtype=dtype, offset=offset, count=count)


def _dims(path: str, fields: list[bytes], count: int, offset: int) -> list[int]:
    """`count` positive integers from the header fields ending at byte `offset`."""
    try:
        dims = [int(f) for f in fields]
        if len(dims) == count and min(dims) >= 1:
            return dims
    except ValueError:
        pass
    raise ParseError(f"{path}: bad header fields {b' '.join(fields)[:40]!r} before byte {offset}")


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise ParseError(f"{path}: not a binary PPM (magic {fields[0]!r})")
    w, h, maxval = _dims(path, fields[1:], 3, pos)
    if maxval not in (255, 65535):
        raise ParseError(f"{path}: unsupported maxval {maxval}")
    data = _samples(path, raw, ">u2" if maxval == 65535 else np.uint8, pos, h * w * 3)
    return data.reshape(h, w, 3).astype(np.float64) / maxval


# -- PFM --------------------------------------------------------------------


def write_pfm(path: str, data: np.ndarray) -> None:
    """Write (H, W) as 'Pf' or (H, W, 3) as 'PF', little endian (scale -1)."""
    if data.ndim == 2:
        magic, arr = b"Pf", data[:, :, None]
    elif data.ndim == 3 and data.shape[2] == 3:
        magic, arr = b"PF", data
    else:
        raise ValueError(f"write_pfm expects (H, W) or (H, W, 3), got {data.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(arr).astype("<f4").tobytes())


def read_pfm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    # three newline-terminated header lines: magic, "width height", scale
    header = raw.split(b"\n", 3)[:3]
    pos = sum(len(line) + 1 for line in header)
    magic = header[0].strip()
    if magic not in (b"Pf", b"PF") or len(header) < 3:
        raise ParseError(f"{path}: not a PFM header (magic {magic[:8]!r}) before byte {pos}")
    w, h = _dims(path, header[1].split(), 2, pos)
    try:
        scale = float(header[2])
    except ValueError:
        raise ParseError(f"{path}: bad PFM scale {header[2]!r} before byte {pos}") from None
    channels = 3 if magic == b"PF" else 1
    data = _samples(path, raw, "<f4" if scale < 0 else ">f4", pos, h * w * channels)
    arr = np.flipud(data.reshape(h, w, channels)).astype(np.float64)
    return arr[:, :, 0] if channels == 1 else arr


def write_flow_pfm(path: str, flow: np.ndarray) -> None:
    """Store an (H, W, 2) flow as a 3-channel PFM with a zero third channel."""
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError(f"write_flow_pfm expects (H, W, 2), got {flow.shape}")
    packed = np.concatenate([flow, np.zeros_like(flow[:, :, :1])], axis=2)
    write_pfm(path, packed)


def read_flow_pfm(path: str) -> np.ndarray:
    arr = read_pfm(path)
    if arr.ndim != 3:
        raise ParseError(f"{path}: flow PFM must have 3 channels")
    return arr[:, :, :2]


# -- pose text files ---------------------------------------------------------


def format_pose_line(mat: np.ndarray) -> str:
    return " ".join(format(v, ".17g") for v in np.asarray(mat)[:3, :].reshape(12))


def write_pose_file(path: str, poses) -> None:
    with open(path, "w") as f:
        for mat in poses:
            f.write(format_pose_line(mat) + "\n")


def read_pose_file(path: str, fix_rotations: bool = True):
    """Read 12-value pose lines; returns (list of 4x4, n_reorthonormalized)."""
    poses = []
    n_fixed = 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 12:
                raise ParseError(f"{path}:{lineno}: expected 12 values, got {len(parts)}")
            try:
                vals = np.array([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            mat = np.eye(4)
            mat[:3, :] = vals.reshape(3, 4)
            if not check_rotation(mat[:3, :3], tol=1e-6):
                if not fix_rotations:
                    raise ParseError(f"{path}:{lineno}: rotation drifted beyond 1e-6")
                mat[:3, :3] = orthonormalize(mat[:3, :3])
                n_fixed += 1
            poses.append(mat)
    return poses, n_fixed


# -- rig description ----------------------------------------------------------


def write_rig(path: str, rig: CameraRig) -> None:
    with open(path, "w") as f:
        for key, val in (("fx", rig.fx), ("fy", rig.fy), ("cx", rig.cx), ("cy", rig.cy),
                         ("width", rig.width), ("height", rig.height),
                         ("baseline", rig.baseline)):
            f.write(f"{key} = {format(val, '.17g')}\n")


def read_rig(path: str) -> CameraRig:
    fields = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            try:
                fields[key.strip()] = float(val.strip())
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: {key.strip()} is not a number: {val.strip()!r}") from None
    try:
        return make_rig(fields["fx"], fields["fy"], fields["cx"], fields["cy"],
                        int(fields["width"]), int(fields["height"]), fields["baseline"])
    except KeyError as exc:
        raise ParseError(f"{path}: missing rig key {exc}") from None


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
