"""Image file handling.

Binary PPM (P6) and PGM (P5) are read and written natively so batch runs
stay byte-reproducible with no codec in the loop. PNG goes through Pillow
when it is installed. Pixels travel as float64 in [0, 1]; color images are
channel-first (3, H, W), masks are (H, W).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import InputError


def _read_tokens(path: str, raw: bytes, count: int) -> tuple[list[bytes], int]:
    """Pull `count` whitespace-separated header tokens from the bytes of the
    file at `path`, skipping # comments. Returns the tokens and the offset
    of the first data byte."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(raw):
            raise InputError(f"{path}: truncated netpbm header")
        byte = raw[pos : pos + 1]
        if byte == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif byte.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace() and raw[end : end + 1] != b"#":
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    # exactly one whitespace byte separates the maxval token from raster data
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise InputError(f"{path}: missing whitespace before netpbm raster")
    return tokens, pos + 1


def _read_netpbm(path: str, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    tokens, data_at = _read_tokens(path, raw, 4)
    # header tokens are shown escaped: raw bytes never reach the terminal
    if tokens[0] != magic:
        raise InputError(f"{path}: expected {magic.decode()} file, got {tokens[0]!r}")
    for label, token in zip(("width", "height", "maxval"), tokens[1:]):
        if not token.isdigit() or int(token) < 1:
            raise InputError(f"{path}: netpbm {label} must be a positive integer, got {token!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 is supported, got {maxval}")
    count = width * height * channels
    # one image per file: a byte past the raster is as malformed as a missing one
    data = raw[data_at:]
    if len(data) != count:
        raise InputError(f"{path}: raster has {len(data)} bytes, expected {count}")
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3).transpose(2, 0, 1)


def read_ppm(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_ppm(path: str, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[0] != 3:
        raise InputError(f"PPM writer expects (3, H, W), got {img.shape}")
    _, h, w = img.shape
    body = _quantize(img).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(body)


def write_pgm(path: str, img: np.ndarray) -> None:
    if img.ndim != 2:
        raise InputError(f"PGM writer expects (H, W), got {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(_quantize(img).tobytes())


def _require_pillow():
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise InputError("PNG support needs the Pillow package") from exc
    return Image


def read_image(path: str) -> np.ndarray:
    """Color image as (3, H, W) floats. Grayscale sources are replicated."""
    lower = path.lower()
    if lower.endswith(".ppm"):
        return read_ppm(path)
    if lower.endswith(".pgm"):
        gray = read_pgm(path)
        return np.repeat(gray[None, :, :], 3, axis=0)
    if lower.endswith(".png"):
        Image = _require_pillow()
        with Image.open(path) as im:
            arr = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
        return arr.transpose(2, 0, 1)
    raise InputError(f"unsupported image format: {path}")


def read_mask(path: str) -> np.ndarray:
    lower = path.lower()
    if lower.endswith(".pgm"):
        return read_pgm(path)
    if lower.endswith(".png"):
        Image = _require_pillow()
        with Image.open(path) as im:
            return np.asarray(im.convert("L"), dtype=np.float64) / 255.0
    raise InputError(f"unsupported mask format: {path}")


def _write_png(path: str, img: np.ndarray) -> None:
    Image = _require_pillow()
    if img.ndim == 2:
        Image.fromarray(_quantize(img), mode="L").save(path)
    else:
        Image.fromarray(_quantize(img).transpose(1, 2, 0), mode="RGB").save(path)


_WRITERS = {".ppm": write_ppm, ".pgm": write_pgm, ".png": _write_png}


def image_writer(path: str) -> Callable[[str, np.ndarray], None]:
    """The writer for path's extension. Raises InputError for an
    extension with no writer, or for PNG when Pillow is missing, so a
    command can reject its output path before doing any work."""
    lower = path.lower()
    for ext, writer in _WRITERS.items():
        if lower.endswith(ext):
            if writer is _write_png:
                _require_pillow()
            return writer
    raise InputError(f"unsupported image format: {path}")


def write_image(path: str, img: np.ndarray) -> None:
    image_writer(path)(path, img)


def linear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source taps and blend weight for half-pixel-centered linear resampling
    (edges clamp, so up- and downsizing share one rule, and the autodiff
    2x upsample shares it too)."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src).astype(int)
    frac = src - lo
    return np.clip(lo, 0, n_in - 1), np.clip(lo + 1, 0, n_in - 1), frac


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the trailing two axes of (H, W) or (C, H, W)."""
    if out_h < 1 or out_w < 1:
        raise InputError(f"target size {out_h}x{out_w} is not positive")
    h, w = img.shape[-2:]
    r0, r1, rf = linear_taps(h, out_h)
    c0, c1, cf = linear_taps(w, out_w)
    rows = img[..., r0, :] * (1.0 - rf)[..., :, None] + img[..., r1, :] * rf[..., :, None]
    return rows[..., :, c0] * (1.0 - cf) + rows[..., :, c1] * cf
