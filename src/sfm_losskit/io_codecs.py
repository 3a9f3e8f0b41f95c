"""Bit-exact raster codecs (PFM for floats, binary PPM for images) and the
scene-directory layout used by the command-line tools.

PFM streams are little-endian float32 (scale header -1.0) with the standard
bottom-to-top row order. PPM is binary P6: written with maxval 65535 (2
bytes/sample, big-endian), read with maxval 65535 or 255 (1 byte/sample, as
other tools write it); single-channel images are written with the gray value
replicated over R, G, B. Images are (C, H, W) planes in memory, as
everywhere in the package; the PPM codec is the one place that interleaves
them into (H, W, 3) samples and back.

Sparse labels travel as one 3-channel PFM: channel 0 holds the label depth
(0 = no label), channel 1 the beam id (-1 = none), channel 2 the constant
nominal beam count of the sensor.
"""

from __future__ import annotations

import math
import os
import stat
from pathlib import Path

import numpy as np

from .errors import CodecError, DimensionError
from .geometry import CameraIntrinsics, PoseSE3
from .supervision import SparseDepth
from .synth import Scene


def write_pfm(path, data: np.ndarray) -> None:
    Path(path).write_bytes(_pfm_bytes(path, data))


def _pfm_bytes(path, data: np.ndarray) -> bytes:
    """The PFM stream of ``data``; ``path`` names it in errors."""
    data = np.asarray(data)
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise DimensionError(f"PFM supports (H, W) or (H, W, 3), got {data.shape}")
    # the cast would turn a finite value past float32's range into inf; NaN
    # and inf themselves are written as they are
    if np.any((np.abs(data) > np.finfo(np.float32).max) & np.isfinite(data)):
        raise CodecError(f"{path}: a finite value lies beyond the float32 range")
    rows = data.astype("<f4")
    h, w = rows.shape[:2]
    return header + f"\n{w} {h}\n-1.0\n".encode("ascii") + rows[::-1].tobytes()


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
        scale = _read_number(fh, path, float)
        if scale == 0 or not math.isfinite(scale):
            raise CodecError(f"{path}: PFM scale must be finite and nonzero, got {scale}")
        endian = "<" if scale < 0 else ">"
        count = h * w * channels
        raw = _read_payload(fh, path, 4 * count)
        data = np.frombuffer(raw, dtype=endian + "f4").reshape(
            (h, w) if channels == 1 else (h, w, 3)
        )
    return np.array(data[::-1], dtype=np.float32)


def _ppm_bytes(img: np.ndarray) -> bytes:
    """The 16-bit binary PPM stream of a (C, H, W) image."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise DimensionError(f"PPM expects (C, H, W) with C in {{1, 3}}, got {img.shape}")
    # quantize the contiguous planes in place, then interleave (gray replicated)
    levels = img * 65535
    np.rint(levels, out=levels)
    levels = levels.clip(0, 65535, out=levels).astype(">u2").transpose(1, 2, 0)
    h, w = levels.shape[:2]
    return f"P6\n{w} {h}\n65535\n".encode("ascii") + np.broadcast_to(levels, (h, w, 3)).tobytes()


def read_ppm(path) -> tuple[np.ndarray, int]:
    """A binary PPM's (3, H, W) integer samples, a view of its payload, and its maxval."""
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P6":
            raise CodecError(f"{path}: not a binary PPM (P6) stream")
        w, h = _read_size(fh, path)
        maxval = _read_number(fh, path, int)
        if maxval not in (255, 65535):
            raise CodecError(f"{path}: unsupported maxval {maxval}")
        dtype = ">u2" if maxval == 65535 else "u1"
        count = h * w * 3
        raw = _read_payload(fh, path, count * (2 if maxval == 65535 else 1))
        data = np.frombuffer(raw, dtype=dtype)
    return data.reshape(h, w, 3).transpose(2, 0, 1), maxval


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


def _read_number(fh, path, kind):
    """The next header token parsed by ``kind`` (int or float)."""
    tok = _read_token(fh)
    try:
        return kind(tok)
    except ValueError as exc:
        name = "integer" if kind is int else "float"
        raise CodecError(f"{path}: expected {name} header token, got {tok!r}") from exc


def _read_size(fh, path) -> tuple[int, int]:
    w = _read_number(fh, path, int)
    h = _read_number(fh, path, int)
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


def _floats(path, parts) -> list[float]:
    try:
        values = [float(v) for v in parts]
    except ValueError as exc:
        raise CodecError(f"{path}: non-numeric manifest value: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CodecError(f"{path}: non-finite manifest value in {' '.join(parts)!r}")
    return values


def write_labels_pfm(path, labels: SparseDepth) -> None:
    write_pfm(path, _packed_labels(labels))


def _packed_labels(labels: SparseDepth) -> np.ndarray:
    h, w = labels.depth.shape
    packed = np.empty((h, w, 3), dtype=np.float32)
    packed[..., 0] = labels.depth
    packed[..., 1] = labels.beam_id
    packed[..., 2] = labels.num_beams
    return packed


def read_labels_pfm(path) -> SparseDepth:
    return unpack_labels(path, read_pfm(path))


def unpack_labels(path, data: np.ndarray) -> SparseDepth:
    """Check the raster of a label PFM read from ``path`` and unpack it."""
    if data.ndim != 3:
        raise CodecError(f"{path}: label PFM must be 3-channel")
    # checked on contiguous planes before any cast: a NaN or inf value, a
    # fractional beam id or beam count, one beyond 2**24 in magnitude (past
    # it float32 skips integers) and a negative beam count are malformed
    planes = data.transpose(2, 0, 1).copy()
    depth, beam_id, num_beams = planes
    if not np.isfinite(planes).all():
        raise CodecError(f"{path}: label PFM holds a non-finite value")
    if not np.all(planes[1:] == np.floor(planes[1:])):
        raise CodecError(f"{path}: beam ids and beam counts must be integers")
    if np.any(np.abs(planes[1:]) > 2**24):
        raise CodecError(f"{path}: beam ids and beam counts must be at most 2**24 in magnitude")
    if np.any(num_beams < 0):
        raise CodecError(f"{path}: beam count is negative")
    if num_beams.size and not np.all(num_beams == num_beams.flat[0]):
        raise CodecError(f"{path}: beam-count channel is not constant")
    try:
        return SparseDepth(
            depth=depth.astype(np.float64),
            beam_id=beam_id.astype(np.int64),
            num_beams=int(num_beams.flat[0]) if num_beams.size else 0,
        )
    except ValueError as exc:  # channels SparseDepth rejects
        raise CodecError(f"{path}: {exc}") from exc


MANIFEST_NAME = "manifest.txt"


def read_manifest(path):
    """Parse a manifest; returns (intrinsics, channels, target, depth, labels,
    [(context_file, pose), ...]). Every field but context appears once;
    an unknown or repeated field, or a context whose 3x3 block is not a
    rotation (max|R^T R - I| > 1e-6 or det R <= 0), is a CodecError."""
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
        if key in fields:
            raise CodecError(f"{path}: repeated manifest field {key!r}")
        if key == "context":
            if len(parts) != 14:
                raise CodecError(f"{path}: context line needs a file and 12 floats")
            m = np.array(_floats(path, parts[2:])).reshape(3, 4)
            rot = m[:, :3]
            if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-6 or np.linalg.det(rot) <= 0:
                raise CodecError(f"{path}: the 3x3 block of context {parts[1]} is not a rotation")
            contexts.append((parts[1], PoseSE3.from_matrix(rot, m[:, 3])))
        elif key == "intrinsics":
            if len(parts) != 5:
                raise CodecError(f"{path}: intrinsics line needs 4 floats (fx fy cx cy)")
            fields[key] = _floats(path, parts[1:])
        elif key in ("width", "height", "channels", "target", "depth", "labels"):
            if len(parts) != 2:
                raise CodecError(f"{path}: malformed line {raw!r}")
            fields[key] = parts[1]
        else:
            raise CodecError(f"{path}: unknown manifest field {key!r}")
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
    """Write a scene as PPM/PFM files plus a manifest into ``out_dir``.

    Every file is encoded before the directory is made or any file opened,
    so a raster that cannot be written (a CodecError) leaves no partial
    scene behind."""
    k = scene.intrinsics
    files = {
        "target.ppm": _ppm_bytes(scene.target),
        "depth.pfm": _pfm_bytes(os.path.join(out_dir, "depth.pfm"), scene.gt_depth),
        "labels.pfm": _pfm_bytes(os.path.join(out_dir, "labels.pfm"),
                                 _packed_labels(scene.labels)),
    }
    lines = [
        "# scene manifest: files, intrinsics, context poses (row-major 3x4)",
        f"width {k.width}",
        f"height {k.height}",
        f"channels {scene.target.shape[0]}",
        f"intrinsics {k.fx!r} {k.fy!r} {k.cx!r} {k.cy!r}",
        *(f"{Path(name).stem} {name}" for name in files),  # target, depth, labels
    ]
    for i, (img, pose) in enumerate(scene.contexts):
        name = f"context_{i:02d}.ppm"
        files[name] = _ppm_bytes(img)
        vals = " ".join(repr(float(v)) for v in pose.matrix()[:3, :].reshape(-1))
        lines.append(f"context {name} {vals}")
    files[MANIFEST_NAME] = ("\n".join(lines) + "\n").encode("utf-8")
    os.makedirs(out_dir, exist_ok=True)
    for name, payload in files.items():
        Path(out_dir, name).write_bytes(payload)


def read_scene_dir(scene_dir):
    """Load a scene directory written by write_scene_dir.

    Images come back as contiguous (C, H, W) planes with the channel count
    recorded in the manifest: for single-channel scenes the replicated PPM
    channels are collapsed back to one, and a PPM whose channels differ is a
    CodecError. The closed-form occlusion masks are not stored, so the
    loaded Scene has none.
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
        samples, maxval = read_ppm(os.path.join(scene_dir, name))
        _check_size(name, samples.shape[1:])
        # one plane at a time: a broadcast compare of strided planes is 4x slower
        if channels == 1 and any((plane != samples[0]).any() for plane in samples[1:]):
            raise CodecError(f"{scene_dir}: {name} is in colour, the manifest says channels 1")
        return np.true_divide(samples[:channels], maxval, dtype=np.float64, order="C")

    target = _load_image(target_f)
    gt_depth = read_pfm(os.path.join(scene_dir, depth_f)).astype(np.float64)
    if gt_depth.ndim != 2:
        raise CodecError(f"{scene_dir}: {depth_f} must be a single-channel PFM")
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
