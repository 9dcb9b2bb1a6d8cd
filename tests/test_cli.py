"""End-to-end command runs in a subprocess: files in, files out, exit codes."""

import os

import numpy as np
import pytest

from helpers import SRC, run_cli, run_python
from shadowscan.blocks import ShadowNet
from shadowscan.checkpoint import load_checkpoint, save_checkpoint
from shadowscan.config import ModelConfig
from shadowscan.imageio import read_ppm, write_pgm, write_ppm
from shadowscan.scanorder import dump_path, horizontal_order

# grid 4x4 with the shadow on patches rows 1..2, cols 1..2; ring order is
# frozen so a change to the traversal cannot slip through as "still valid"
_GOLDEN_COORDS = [
    (2, 1), (2, 2), (1, 2), (1, 1),
    (0, 0), (1, 0), (2, 0), (3, 0),
    (3, 1), (3, 2), (3, 3), (2, 3),
    (1, 3), (0, 3), (0, 2), (0, 1),
]
_GOLDEN_DUMP = "4 4 8 mas\n" + "".join(f"{r} {c}\n" for r, c in _GOLDEN_COORDS)

_TINY_FLAGS = ["--channels", "2", "--state-dim", "2", "--unet-depth", "1", "--patch-size", "2"]


def test_child_imports_the_checkout_src(tmp_path):
    proc = run_python(["-c", "import shadowscan; print(shadowscan.__file__)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert os.path.samefile(proc.stdout.strip(), os.path.join(SRC, "shadowscan", "__init__.py"))


def _centered_mask(tmp_path, name="mask.pgm"):
    mask = np.zeros((32, 32))
    mask[8:24, 8:24] = 1.0
    path = tmp_path / name
    write_pgm(str(path), mask)
    return path


def test_scan_viz_golden_path(tmp_path):
    _centered_mask(tmp_path)
    proc = run_cli(["scan-viz", "mask.pgm", "--out", "sv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sv_path.txt").read_text() == _GOLDEN_DUMP
    viz = read_ppm(str(tmp_path / "sv_viz.ppm"))
    assert viz.shape == (3, 32, 32)
    # first visited patch (2,1) is hue 0 inside a white shadow outline
    assert np.array_equal(np.round(viz[:, 17, 9] * 255), [255, 0, 0])
    assert np.array_equal(np.round(viz[:, 16, 8] * 255), [255, 255, 255])
    # last visited patch (0,1) sits at the end of the hue ramp, no outline
    assert np.array_equal(np.round(viz[:, 3, 11] * 255), [255, 0, 255])


def test_scan_viz_no_shadow_falls_back_to_row_major(tmp_path):
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((32, 32)))
    proc = run_cli(["scan-viz", "mask.pgm"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scan_path.txt").read_text() == dump_path(horizontal_order(4, 4, 8))


def test_scan_viz_runs_are_byte_identical(tmp_path):
    _centered_mask(tmp_path)
    for prefix in ("one", "two"):
        proc = run_cli(["scan-viz", "mask.pgm", "--out", prefix], tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "one_path.txt").read_bytes() == (tmp_path / "two_path.txt").read_bytes()
    assert (tmp_path / "one_viz.ppm").read_bytes() == (tmp_path / "two_viz.ppm").read_bytes()


def test_check_command_reports_pass(tmp_path):
    proc = run_cli(["check", "interleave"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("interleave-roundtrip: PASS max_err=")


def test_check_rejects_unknown_suite(tmp_path):
    proc = run_cli(["check", "everything"], tmp_path)
    assert proc.returncode == 2


def test_train_toy_needs_a_data_source(tmp_path):
    proc = run_cli(["train-toy", "--steps", "1"], tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_train_toy_zero_steps_snapshots_the_fresh_model(tmp_path):
    proc = run_cli(
        ["train-toy", "--synth", "2", "--steps", "0", "--size", "8", *_TINY_FLAGS],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    config, arrays = load_checkpoint(str(tmp_path / "toy.ckpt"))
    fresh = ShadowNet(config)
    for name, tensor in fresh.named_params():
        assert np.array_equal(arrays[name], tensor.data)
    assert (tmp_path / "toy.ckpt.log").read_text() == "step,loss,lr\n"
    out = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    assert out["initial_loss"] == out["final_loss"]
    float(out["final_loss"])


def test_config_file_flags_precedence(tmp_path):
    (tmp_path / "model.cfg").write_text("channels = 4\n# comment line\nstate_dim=2\n")
    proc = run_cli(
        [
            "train-toy", "--synth", "1", "--steps", "0", "--size", "8",
            "--config", "model.cfg", "--channels", "2",
            "--unet-depth", "1", "--patch-size", "2",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    config, _ = load_checkpoint(str(tmp_path / "toy.ckpt"))
    assert config.channels == 2 and config.state_dim == 2
    assert "config channels=2" in proc.stderr


def test_forward_with_silenced_checkpoint_copies_the_input(tmp_path):
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4)
    model = ShadowNet(config)
    model.silence()
    save_checkpoint(str(tmp_path / "id.ckpt"), model)
    rng = np.random.default_rng(0)
    image = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    mask = np.zeros((16, 16))
    mask[4:10, 6:12] = 1.0
    write_ppm(str(tmp_path / "in.ppm"), image)
    write_pgm(str(tmp_path / "mask.pgm"), mask)
    proc = run_cli(
        ["forward", "in.ppm", "mask.pgm", "--checkpoint", "id.ckpt", "--out", "out.ppm"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.ppm").read_bytes() == (tmp_path / "in.ppm").read_bytes()


def test_forward_rejects_conflicting_overrides(tmp_path):
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4)
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(config))
    rng = np.random.default_rng(1)
    write_ppm(str(tmp_path / "in.ppm"), rng.uniform(size=(3, 16, 16)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((16, 16)))
    proc = run_cli(
        ["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt", "--channels", "8"],
        tmp_path,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "conflicts" in proc.stderr


def test_eval_mismatched_sizes_need_resize(tmp_path):
    rng = np.random.default_rng(2)
    write_ppm(str(tmp_path / "pred.ppm"), rng.uniform(size=(3, 16, 16)))
    write_ppm(str(tmp_path / "gt.ppm"), rng.uniform(size=(3, 20, 20)))
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    write_pgm(str(tmp_path / "mask.pgm"), mask)
    args = ["eval", "pred.ppm", "gt.ppm", "mask.pgm"]
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_cli([*args, "--resize256"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "region psnr ssim rmse"
    pairs = dict(line.split("=", 1) for line in lines[5:])
    assert float(pairs["psnr_all"]) > 0.0
    assert float(pairs["ssim_s"]) <= 1.0


def test_eval_writes_report_file(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(3, 16, 16))
    write_ppm(str(tmp_path / "pred.ppm"), img)
    write_ppm(str(tmp_path / "gt.ppm"), img)
    mask = np.zeros((16, 16))
    mask[2:8, 2:8] = 1.0
    write_pgm(str(tmp_path / "mask.pgm"), mask)
    proc = run_cli(
        ["eval", "pred.ppm", "gt.ppm", "mask.pgm", "--out", "report.txt"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "report.txt").read_text()
    assert "psnr_all=100.0" in text
    assert proc.stdout == ""


def test_missing_file_is_an_input_error(tmp_path):
    proc = run_cli(["scan-viz", "nope.pgm"], tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def _set_field(index, field, value):
    """Manifest edit: replace one field of the index-th param line."""

    def edit(lines, blob_size):
        params = [i for i, line in enumerate(lines) if line.startswith(b"param ")]
        fields = lines[params[index]].split(b" ")
        fields[field] = value(blob_size, fields) if callable(value) else value
        lines[params[index]] = b" ".join(fields)
        return lines

    return edit


def _append_field(lines, blob_size):
    params = [i for i, line in enumerate(lines) if line.startswith(b"param ")]
    lines[params[0]] += b" 7"
    return lines


def _non_ascii(lines, blob_size):
    lines[1] = lines[1].replace(b"channels", b"chann\xe9ls")
    return lines


@pytest.mark.parametrize(
    "edit",
    [
        _set_field(0, 3, b"0x"),
        _set_field(-1, 3, lambda size, _: str(size + 8).encode()),
        _append_field,
        _set_field(0, 2, b"2xq"),
        _set_field(0, 2, b"-2"),
        _set_field(0, 3, lambda size, _: str(size - 8).encode()),
        _set_field(1, 3, b"8"),
        _non_ascii,
    ],
    ids=[
        "offset-not-integer",
        "offset-past-blob",
        "wrong-field-count",
        "dimension-not-integer",
        "negative-dimension",
        "param-runs-past-blob",
        "overlapping-params",
        "non-ascii-manifest",
    ],
)
def test_forward_rejects_malformed_checkpoint(tmp_path, edit):
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4)
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(config))
    head, sep, rest = (tmp_path / "m.ckpt").read_bytes().partition(b"\nblob ")
    lines = edit(head.split(b"\n"), int(rest.split(b"\n", 1)[0]))
    (tmp_path / "m.ckpt").write_bytes(b"\n".join(lines) + sep + rest)
    write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 16, 16)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((16, 16)))
    proc = run_cli(["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_forward_and_eval_reject_non_numeric_netpbm_header(tmp_path):
    (tmp_path / "bad.ppm").write_bytes(b"P6\nabc 4\n255\n" + bytes(48))
    write_ppm(str(tmp_path / "good.ppm"), np.zeros((3, 4, 4)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((4, 4)))
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(ModelConfig(channels=2, state_dim=2)))
    for args in (
        ["forward", "bad.ppm", "mask.pgm", "--checkpoint", "m.ckpt"],
        ["eval", "bad.ppm", "good.ppm", "mask.pgm"],
    ):
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == proc.stderr.count("config ") + 1
        assert proc.stderr.splitlines()[-1].startswith("error:") and "width" in proc.stderr


@pytest.mark.parametrize("text", [b"channels=banana\n", b"channels=\xe9\n"], ids=["non-integer", "non-ascii"])
def test_check_reads_its_config_file(tmp_path, text):
    (tmp_path / "bad.cfg").write_bytes(text)
    proc = run_cli(["check", "interleave", "--config", "bad.cfg"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
