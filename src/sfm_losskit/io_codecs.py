"""Bit-exact raster codecs (PFM for floats, binary PPM for images) and the
scene-directory layout used by the command-line tools.

PFM streams are little-endian float32 (scale header -1.0) with the standard
bottom-to-top row order. PPM is binary P6: written with maxval 65535 (2
bytes/sample, big-endian), read with maxval 65535 or 255 (1 byte/sample, as
other tools write it); single-channel images are written with the gray value
replicated over R, G, B.

Sparse labels travel as one 3-channel PFM: channel 0 holds the label depth
(0 = no label), channel 1 the beam id (-1 = none), channel 2 the constant
nominal beam count of the sensor.
"""

from __future__ import annotations

import math
import os
import stat

import numpy as np

from .errors import CodecError, DimensionError
from .geometry import CameraIntrinsics, PoseSE3
from .supervision import SparseDepth
from .synth import Scene


def write_pfm(path, data: np.ndarray) -> None:
    data = np.asarray(data)
    if data.ndim == 2:
        header = b"Pf"
        rows = data.astype("<f4")
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
        rows = data.astype("<f4")
    else:
        raise DimensionError(f"PFM supports (H, W) or (H, W, 3), got {data.shape}")
    h, w = rows.shape[:2]
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(rows[::-1].tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        ident = _read_token(fh)
        if ident == b"Pf":
            channels = 1
        elif ident == b"PF":
            channels = 3
        else:
            raise CodecError(f"{path}: not a PFM stream (got {ident!r})")
        w, h = _read_size(fh, path)
        scale = _read_float(fh, path)
        endian = "<" if scale < 0 else ">"
        count = h * w * channels
        raw = _read_payload(fh, path, 4 * count)
        data = np.frombuffer(raw, dtype=endian + "f4").reshape(
            (h, w) if channels == 1 else (h, w, 3)
        )
    return np.array(data[::-1], dtype=np.float32)


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise DimensionError(f"PPM expects (H, W, C) with C in {{1, 3}}, got {img.shape}")
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    levels = np.clip(np.rint(img * 65535), 0, 65535)
    payload = levels.astype(">u2").tobytes()
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(payload)


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P6":
            raise CodecError(f"{path}: not a binary PPM (P6) stream")
        w, h = _read_size(fh, path)
        maxval = _read_int(fh, path)
        if maxval not in (255, 65535):
            raise CodecError(f"{path}: unsupported maxval {maxval}")
        dtype = ">u2" if maxval == 65535 else "u1"
        count = h * w * 3
        raw = _read_payload(fh, path, count * (2 if maxval == 65535 else 1))
        data = np.frombuffer(raw, dtype=dtype)
    return data.reshape(h, w, 3).astype(np.float64) / maxval


def _read_token(fh) -> bytes:
    # skip whitespace and '#' comments, then read one whitespace-terminated token
    tok = b""
    while True:
        c = fh.read(1)
        if not c:
            raise CodecError("unexpected end of stream in header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = fh.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _read_int(fh, path) -> int:
    tok = _read_token(fh)
    try:
        return int(tok)
    except ValueError as exc:
        raise CodecError(f"{path}: expected integer header token, got {tok!r}") from exc


def _read_size(fh, path) -> tuple[int, int]:
    w = _read_int(fh, path)
    h = _read_int(fh, path)
    if w <= 0 or h <= 0:
        raise CodecError(f"{path}: image size must be positive, got {w}x{h}")
    return w, h


def _read_payload(fh, path, nbytes: int) -> bytes:
    # fh.read(n) allocates n bytes up front, so a regular file too short for
    # the size its header claims is rejected before reading
    st = os.fstat(fh.fileno())
    raw = b""
    if not stat.S_ISREG(st.st_mode) or st.st_size - fh.tell() >= nbytes:
        raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise CodecError(f"{path}: truncated payload, the header promises {nbytes} bytes")
    return raw


def _read_float(fh, path) -> float:
    tok = _read_token(fh)
    try:
        return float(tok)
    except ValueError as exc:
        raise CodecError(f"{path}: expected float header token, got {tok!r}") from exc


def _floats(path, parts) -> list[float]:
    try:
        values = [float(v) for v in parts]
    except ValueError as exc:
        raise CodecError(f"{path}: non-numeric manifest value: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CodecError(f"{path}: non-finite manifest value in {' '.join(parts)!r}")
    return values


def write_labels_pfm(path, labels: SparseDepth) -> None:
    h, w = labels.depth.shape
    packed = np.empty((h, w, 3), dtype=np.float32)
    packed[..., 0] = labels.depth
    packed[..., 1] = labels.beam_id
    packed[..., 2] = labels.num_beams
    write_pfm(path, packed)


def read_labels_pfm(path) -> SparseDepth:
    return unpack_labels(path, read_pfm(path))


def unpack_labels(path, data: np.ndarray) -> SparseDepth:
    """Check the raster of a label PFM read from ``path`` and unpack it."""
    if data.ndim != 3:
        raise CodecError(f"{path}: label PFM must be 3-channel")
    # before any cast: a NaN or inf value, a fractional beam id or beam count,
    # one beyond 2**24 in magnitude (past it float32 skips integers) and a
    # negative beam count are malformed
    if not np.isfinite(data).all():
        raise CodecError(f"{path}: label PFM holds a non-finite value")
    if not np.all(data[..., 1:] == np.floor(data[..., 1:])):
        raise CodecError(f"{path}: beam ids and beam counts must be integers")
    if np.any(np.abs(data[..., 1:]) > 2**24):
        raise CodecError(f"{path}: beam ids and beam counts must be at most 2**24 in magnitude")
    num_beams = data[..., 2]
    if np.any(num_beams < 0):
        raise CodecError(f"{path}: beam count is negative")
    if num_beams.size and not np.all(num_beams == num_beams.flat[0]):
        raise CodecError(f"{path}: beam-count channel is not constant")
    try:
        return SparseDepth(
            depth=data[..., 0].astype(np.float64),
            beam_id=data[..., 1].astype(np.int64),
            num_beams=int(num_beams.flat[0]) if num_beams.size else 0,
        )
    except ValueError as exc:  # channels SparseDepth rejects
        raise CodecError(f"{path}: {exc}") from exc


MANIFEST_NAME = "manifest.txt"


def write_manifest(path, k: CameraIntrinsics, channels: int,
                   target_file: str, depth_file: str, labels_file: str,
                   contexts: list[tuple[str, PoseSE3]]) -> None:
    lines = [
        "# scene manifest: files, intrinsics, context poses (row-major 3x4)",
        f"width {k.width}",
        f"height {k.height}",
        f"channels {channels}",
        f"intrinsics {k.fx!r} {k.fy!r} {k.cx!r} {k.cy!r}",
        f"target {target_file}",
        f"depth {depth_file}",
        f"labels {labels_file}",
    ]
    for name, pose in contexts:
        m = pose.matrix()[:3, :]
        vals = " ".join(repr(float(v)) for v in m.reshape(-1))
        lines.append(f"context {name} {vals}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path):
    """Parse a manifest; returns (intrinsics, channels, target, depth, labels,
    [(context_file, pose), ...])."""
    fields = {}
    contexts = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CodecError(f"{path}: not UTF-8 text ({exc})") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "context":
            if len(parts) != 14:
                raise CodecError(f"{path}: context line needs a file and 12 floats")
            m = np.array(_floats(path, parts[2:])).reshape(3, 4)
            contexts.append((parts[1], PoseSE3.from_matrix(m[:, :3], m[:, 3])))
        elif key == "intrinsics":
            if len(parts) != 5:
                raise CodecError(f"{path}: intrinsics line needs 4 floats (fx fy cx cy)")
            fields[key] = _floats(path, parts[1:])
        else:
            if len(parts) != 2:
                raise CodecError(f"{path}: malformed line {raw!r}")
            fields[key] = parts[1]
    if not contexts:
        raise CodecError(f"{path}: no context line")
    try:
        k = CameraIntrinsics(
            fx=fields["intrinsics"][0],
            fy=fields["intrinsics"][1],
            cx=fields["intrinsics"][2],
            cy=fields["intrinsics"][3],
            width=int(fields["width"]),
            height=int(fields["height"]),
        )
        channels = int(fields["channels"])
        if channels not in (1, 3):
            raise CodecError(f"{path}: channels must be 1 or 3, got {channels}")
        return k, channels, fields["target"], fields["depth"], fields["labels"], contexts
    except KeyError as exc:
        raise CodecError(f"{path}: missing manifest field {exc}") from exc
    except ValueError as exc:  # non-integer size field or invalid intrinsics
        raise CodecError(f"{path}: {exc}") from exc


def write_scene_dir(out_dir, scene) -> None:
    """Write a scene as PPM/PFM files plus a manifest into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_ppm(os.path.join(out_dir, "target.ppm"), scene.target)
    write_pfm(os.path.join(out_dir, "depth.pfm"), scene.gt_depth)
    write_labels_pfm(os.path.join(out_dir, "labels.pfm"), scene.labels)
    ctx_entries = []
    for i, (img, pose) in enumerate(scene.contexts):
        name = f"context_{i:02d}.ppm"
        write_ppm(os.path.join(out_dir, name), img)
        ctx_entries.append((name, pose))
    write_manifest(
        os.path.join(out_dir, MANIFEST_NAME),
        scene.intrinsics,
        scene.target.shape[2],
        "target.ppm",
        "depth.pfm",
        "labels.pfm",
        ctx_entries,
    )


def read_scene_dir(scene_dir):
    """Load a scene directory written by write_scene_dir.

    Images come back with the channel count recorded in the manifest: for
    single-channel scenes the replicated PPM channels are collapsed back to
    one. The closed-form occlusion masks are not stored, so the loaded Scene
    has none.
    """
    man = os.path.join(scene_dir, MANIFEST_NAME)
    k, channels, target_f, depth_f, labels_f, contexts = read_manifest(man)

    def _check_size(name, shape):
        if shape[:2] != (k.height, k.width):
            raise CodecError(
                f"{scene_dir}: {name} is {shape[1]}x{shape[0]}, the manifest says "
                f"{k.width}x{k.height}"
            )

    def _load_image(name):
        img = read_ppm(os.path.join(scene_dir, name))
        _check_size(name, img.shape)
        if channels == 1:
            img = img[..., :1]
        return img

    target = _load_image(target_f)
    gt_depth = read_pfm(os.path.join(scene_dir, depth_f)).astype(np.float64)
    _check_size(depth_f, gt_depth.shape)
    labels = read_labels_pfm(os.path.join(scene_dir, labels_f))
    _check_size(labels_f, labels.depth.shape)
    ctx = [(_load_image(name), pose) for name, pose in contexts]
    if not (np.isfinite(gt_depth).all() and (gt_depth > 0).all()):
        raise CodecError(f"{scene_dir}: {depth_f} holds a non-finite or non-positive depth")
    return Scene(
        target=target,
        gt_depth=gt_depth,
        intrinsics=k,
        contexts=ctx,
        labels=labels,
    )
