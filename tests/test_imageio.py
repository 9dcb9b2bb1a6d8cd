"""Netpbm byte handling, PNG via Pillow, and the shared linear resampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan.errors import ShapeError, ValidationError
from shadowscan.imageio import (
    read_image,
    read_mask,
    read_pgm,
    read_ppm,
    resize_bilinear,
    write_image,
    write_pgm,
    write_ppm,
)


def _u8_image(seed, shape):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def test_ppm_round_trip_is_byte_exact(tmp_path):
    raw = _u8_image(0, (3, 5, 7))
    img = raw.astype(np.float64) / 255.0
    path = str(tmp_path / "a.ppm")
    write_ppm(path, img)
    again = read_ppm(path)
    assert np.array_equal(again, img)
    write_ppm(str(tmp_path / "b.ppm"), again)
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_pgm_round_trip_is_byte_exact(tmp_path):
    raw = _u8_image(1, (4, 6))
    img = raw.astype(np.float64) / 255.0
    path = str(tmp_path / "m.pgm")
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_ppm_header_layout(tmp_path):
    path = tmp_path / "h.ppm"
    write_ppm(str(path), np.zeros((3, 2, 3)))
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_header_comments_and_whitespace(tmp_path):
    # arbitrary comments and runs of whitespace before the maxval, but
    # exactly one whitespace byte between maxval and raster
    raster = bytes(range(12))
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # comment\n# another full line\n 2\t2 # trailing\n  255\n" + raster)
    img = read_ppm(str(path))
    assert img.shape == (3, 2, 2)
    flat = np.round(img.transpose(1, 2, 0).reshape(-1) * 255.0).astype(int)
    assert list(flat) == list(range(12))


def test_raster_may_start_with_whitespace_byte(tmp_path):
    # only the single delimiter is consumed; a raster whose first byte is
    # 0x20 must survive
    raster = b"\x20" + bytes(range(11))
    path = tmp_path / "w.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + raster)
    img = read_ppm(str(path))
    assert round(img[0, 0, 0] * 255) == 0x20


def test_reader_rejects_bad_files(tmp_path):
    good = b"P6\n2 2\n255\n" + bytes(12)
    cases = [
        b"P5\n2 2\n255\n" + bytes(12),  # wrong magic for ppm
        b"P6\n2 2\n65535\n" + bytes(12),  # unsupported maxval
        good[:-1],  # truncated raster
        b"P6\n2 2\n255" ,  # no delimiter, no raster
        b"P6\n2 2",  # truncated header
        b"P6\nabc 2\n255\n" + bytes(12),  # non-numeric width
        b"P6\n2 -2\n255\n" + bytes(12),  # negative height
        b"P6\n2 0\n255\n",  # zero height
        b"P6\n2 2\n25x\n" + bytes(12),  # non-numeric maxval
    ]
    for i, blob in enumerate(cases):
        path = tmp_path / f"bad{i}.ppm"
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            read_ppm(str(path))


@settings(max_examples=300, deadline=None)
@given(
    magic=st.sampled_from([b"P6", b"P5"]),
    flips=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 255)), max_size=4),
    keep=st.integers(0, 40),
)
def test_netpbm_reader_fuzz_loads_or_raises_validation_error(tmp_path_factory, magic, flips, keep):
    channels = 3 if magic == b"P6" else 1
    raw = bytearray(magic + b"\n# c\n3 2\n255\n" + bytes(range(6 * channels)))
    for at, value in flips:
        raw[at % len(raw)] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(bytes(raw[:keep]))
    reader = read_ppm if magic == b"P6" else read_pgm
    try:
        reader(str(path))
    except ValidationError:
        pass


def test_writer_shape_errors(tmp_path):
    with pytest.raises(ShapeError):
        write_ppm(str(tmp_path / "x.ppm"), np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        write_pgm(str(tmp_path / "x.pgm"), np.zeros((3, 4, 4)))


def test_writer_clips_and_rounds(tmp_path):
    img = np.array([[[-0.5, 0.5], [1.5, 0.002]]])
    img = np.repeat(img, 3, axis=0)
    path = str(tmp_path / "q.ppm")
    write_ppm(path, img)
    got = np.round(read_ppm(path) * 255.0).astype(int)
    assert list(got[0].ravel()) == [0, 128, 255, 1]


def test_read_image_replicates_grayscale(tmp_path):
    gray = _u8_image(2, (3, 4)).astype(np.float64) / 255.0
    path = str(tmp_path / "g.pgm")
    write_pgm(path, gray)
    img = read_image(path)
    assert img.shape == (3, 3, 4)
    for c in range(3):
        assert np.array_equal(img[c], gray)


def test_png_round_trip(tmp_path):
    pytest.importorskip("PIL")
    img = _u8_image(3, (3, 6, 5)).astype(np.float64) / 255.0
    path = str(tmp_path / "p.png")
    write_image(path, img)
    assert np.array_equal(read_image(path), img)
    mask = _u8_image(4, (6, 5)).astype(np.float64) / 255.0
    mpath = str(tmp_path / "m.png")
    write_image(mpath, mask)
    assert np.array_equal(read_mask(mpath), mask)


def test_unsupported_extensions(tmp_path):
    with pytest.raises(ValidationError):
        read_image(str(tmp_path / "x.bmp"))
    with pytest.raises(ValidationError):
        read_mask(str(tmp_path / "x.ppm"))
    with pytest.raises(ValidationError):
        write_image(str(tmp_path / "x.tiff"), np.zeros((3, 2, 2)))


def test_resize_identity_and_constants():
    img = np.random.default_rng(5).uniform(size=(3, 6, 7))
    assert np.allclose(resize_bilinear(img, 6, 7), img)
    flat = np.full((4, 4), 0.37)
    assert np.allclose(resize_bilinear(flat, 9, 3), 0.37)


def test_resize_known_1d_values():
    # half-pixel-centered taps: [0, 1] widened to 4 lands on the quarters
    img = np.array([[0.0, 1.0]])
    assert np.allclose(resize_bilinear(img, 1, 4)[0], [0.0, 0.25, 0.75, 1.0])
    # and narrowing 4 to 2 averages adjacent pairs
    img = np.array([[0.0, 0.2, 0.6, 1.0]])
    assert np.allclose(resize_bilinear(img, 1, 2)[0], [0.1, 0.8])


def test_resize_handles_leading_channels():
    img = np.random.default_rng(6).uniform(size=(3, 8, 8))
    out = resize_bilinear(img, 4, 12)
    assert out.shape == (3, 4, 12)
    for c in range(3):
        assert np.allclose(out[c], resize_bilinear(img[c], 4, 12))
    with pytest.raises(ShapeError):
        resize_bilinear(img, 0, 4)
