"""End-to-end command runs: files in, files out, exit codes. Each run is a
separate process, except where a test patches the CLI module in-process."""

import argparse
import contextlib
import importlib.util
import io
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SRC, run_cli, run_python
from shadowscan import checkpoint, cli
from shadowscan.blocks import ShadowNet
from shadowscan.checkpoint import load_checkpoint, save_checkpoint
from shadowscan.config import ModelConfig, _parse_bool, _parse_float, _parse_int
from shadowscan.errors import InputError
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


_MODEL_FLAGS = [
    "--channels", "--state-dim", "--expansion", "--unet-depth", "--patch-size",
    "--tau", "--dropout", "--residual-output", "--seed",
]


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert got == {
        "scan-viz": sorted(["--out", "--config", "--patch-size", "--tau"]),
        "check": sorted(["--config", "--seed"]),
        "forward": sorted(["--checkpoint", "--out", "--config", *_MODEL_FLAGS]),
        "train-toy": sorted(
            ["--data", "--synth", "--steps", "--batch", "--size", "--log", "--out", "--config", *_MODEL_FLAGS]
        ),
        "eval": sorted(["--resize256", "--out"]),
    }


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "pred.ppm", "gt.ppm", "mask.pgm", "--channels", "8"],
        ["check", "interleave", "--patch-size", "4"],
        ["scan-viz", "mask.pgm", "--seed", "1"],
    ],
)
def test_a_model_flag_the_subcommand_does_not_read_is_rejected(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize(
    "flag, value, kind",
    [
        ("--channels", "banana", "channels must be an integer"),
        ("--channels", "1_6", "channels must be an integer"),
        ("--tau", "0_5", "tau must be a number"),
        ("--tau", "\u0660.\u0665", "tau must be a number"),  # Arabic-Indic digits
        ("--tau", "\uff10.5", "tau must be a number"),  # fullwidth zero
        ("--tau", " 0.5 ", "tau must be a number"),
        ("--tau", "0.5\n", "tau must be a number"),
        ("--residual-output", "maybe", "residual_output must be a boolean"),
    ],
)
def test_train_toy_rejects_a_malformed_flag_value(tmp_path, flag, value, kind):
    proc = run_cli(["train-toy", "--synth", "1", "--steps", "0", "--size", "8", flag, value], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {kind}, got {value!r}\n"
    assert not (tmp_path / "toy.ckpt").exists()


@settings(max_examples=500)
@given(text=st.one_of(st.text(), st.from_regex(r"\A\s*[-+]?\d+\s*\Z")))
def test_int_parses_iff_ascii_digits_with_an_optional_minus(text):
    if re.fullmatch(r"-?[0-9]+", text):
        assert _parse_int("n", text) == int(text)
    else:
        with pytest.raises(InputError):
            _parse_int("n", text)


@settings(max_examples=500)
@given(text=st.one_of(st.text(), st.floats().map(repr), st.from_regex(r"\A\s*-?[0-9]+(\.[0-9]*)?([eE]-?[0-9]+)?\s*\Z")))
def test_float_parses_only_ascii_without_separators_or_whitespace(text):
    # anything else raises InputError and nothing else
    try:
        value = _parse_float("x", text)
    except InputError:
        return
    assert text.isascii() and "_" not in text and not any(ch.isspace() for ch in text)
    assert value == float(text) or (math.isnan(value) and math.isnan(float(text)))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


# one of the spellings, in upper or lower case, with surrounding whitespace
_BOOL_TEXT = st.tuples(st.text(" \t\n"), st.sampled_from(sorted(_BOOLS)), st.booleans(), st.text(" \t\n")).map(
    lambda t: t[0] + (t[1].upper() if t[2] else t[1]) + t[3]
)


@settings(max_examples=500)
@given(text=st.one_of(st.text(), _BOOL_TEXT))
def test_bool_parses_iff_one_of_eight_spellings_up_to_case_and_whitespace(text):
    word = text.strip().lower()
    if word in _BOOLS:
        assert _parse_bool("b", text) is _BOOLS[word]
    else:
        with pytest.raises(InputError):
            _parse_bool("b", text)


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


def test_check_rejects_a_negative_seed(tmp_path):
    proc = run_cli(["check", "interleave", "--seed", "-1"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_train_toy_needs_a_data_source(tmp_path):
    proc = run_cli(["train-toy", "--steps", "1"], tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize("flags", [["--synth", "-1"], ["--synth", "2", "--batch", "0"]])
def test_train_toy_rejects_an_empty_set_or_batch(tmp_path, flags):
    proc = run_cli(["train-toy", *flags, "--steps", "1", "--size", "8", *_TINY_FLAGS], tmp_path)
    assert proc.returncode == 2
    assert len([line for line in proc.stderr.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [["--steps", "-4", "--size", "8"], ["--steps", "1", "--size", "-3"]])
def test_train_toy_rejects_negative_steps_or_size(tmp_path, flags):
    proc = run_cli(["train-toy", "--synth", "2", *flags, *_TINY_FLAGS], tmp_path)
    assert proc.returncode == 2
    assert len([line for line in proc.stderr.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "toy.ckpt").exists()


@pytest.mark.parametrize("out,log_path", [("same", "same"), ("a.ckpt", "./a.ckpt")])
def test_train_toy_rejects_a_log_that_is_the_checkpoint(tmp_path, out, log_path):
    proc = run_cli(
        ["train-toy", "--synth", "1", "--steps", "1", "--size", "8", "--out", out, "--log", log_path, *_TINY_FLAGS],
        tmp_path,
    )
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "same file" in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("flags", [["--steps", "-4"], ["--batch", "0"], ["--batch", "-2"]])
def test_train_toy_rejects_bad_steps_or_batch_before_any_forward(tmp_path, monkeypatch, capsys, flags):
    def no_forward(*args, **kwargs):
        raise AssertionError("dataset_loss ran before the arguments were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "dataset_loss", no_forward)
    assert cli.main(["train-toy", "--synth", "8", *flags, "--size", "8", *_TINY_FLAGS]) == 2
    assert len([line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]) == 1
    assert not (tmp_path / "toy.ckpt").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 2.6 TiB for an array with shape (10000000000, 3)", ""])
def test_out_of_memory_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, message):
    # a model too large for memory (say --channels 10000000000) fails in
    # its constructor; the stand-in raises there without allocating
    def too_large(config):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ShadowNet", too_large)
    assert cli.main(["train-toy", "--synth", "1", "--size", "8", "--steps", "0", *_TINY_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "toy.ckpt").exists()


@pytest.mark.parametrize(
    "flags", [["--out", "nodir/x.ckpt"], ["--out", "y.ckpt", "--log", "nodir/y.log"]]
)
def test_train_toy_rejects_an_output_in_a_missing_directory_before_any_forward(
    tmp_path, monkeypatch, capsys, flags
):
    def no_forward(*args, **kwargs):
        raise AssertionError("dataset_loss ran before the output paths were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "dataset_loss", no_forward)
    assert cli.main(["train-toy", "--synth", "4", "--steps", "6", "--size", "8", *flags, *_TINY_FLAGS]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "nodir" in errors[0] and "does not exist" in errors[0]
    assert list(tmp_path.iterdir()) == []


def _no_model(config):
    raise AssertionError("a model was built before its config was checked")


def _deep_checkpoint(tmp_path):
    """A tiny model's checkpoint whose manifest asks for UNet depth 1000000."""
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(ModelConfig(channels=2, state_dim=2)))
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(raw.replace(b"\nconfig unet_depth=1\n", b"\nconfig unet_depth=1000000\n", 1))
    write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 32, 32)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((32, 32)))
    return ["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt"]


@pytest.mark.parametrize(
    "command",
    [
        lambda tmp_path: ["train-toy", "--synth", "1", "--size", "32", "--steps", "0", "--unet-depth", "1000000"],
        _deep_checkpoint,
    ],
    ids=["train-toy-flag", "forward-checkpoint"],
)
def test_an_oversized_unet_depth_exits_2_before_any_model_is_built(tmp_path, monkeypatch, capsys, command):
    argv = command(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ShadowNet", _no_model)
    monkeypatch.setattr(checkpoint, "ShadowNet", _no_model)
    assert cli.main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "unet_depth must lie in [0, 16]" in errors[0], errors
    assert not (tmp_path / "toy.ckpt").exists() and not (tmp_path / "pred.ppm").exists()


@pytest.mark.parametrize(
    "argv,work",
    [
        (["scan-viz", "mask.pgm", "--out", "nodir/x"], "render_scan_viz"),
        (["eval", "img.ppm", "img.ppm", "mask.pgm", "--out", "nodir/r.txt"], "evaluate"),
    ],
)
def test_scan_viz_and_eval_reject_a_missing_out_directory_before_any_work(tmp_path, monkeypatch, capsys, argv, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was checked")

    write_ppm(str(tmp_path / "img.ppm"), np.zeros((3, 8, 8)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((8, 8)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, work, no_work)
    assert cli.main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "directory nodir does not exist" in errors[0], errors
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.ppm", "mask.pgm"]



_TRAIN_TOY = ["train-toy", "--synth", "2", "--size", "8", "--steps", "1", "--batch", "1", *_TINY_FLAGS]


@pytest.mark.parametrize(
    "argv,directory,work",
    [
        (["forward", "img.ppm", "mask.pgm", "--checkpoint", "m.ckpt", "--out", "D.ppm"], "D.ppm", "model_from_checkpoint"),
        (["eval", "img.ppm", "img.ppm", "mask.pgm", "--out", "DIR"], "DIR", "evaluate"),
        (["scan-viz", "mask.pgm", "--out", "v"], "v_path.txt", "render_scan_viz"),
        (["scan-viz", "mask.pgm", "--out", "v"], "v_viz.ppm", "render_scan_viz"),
        ([*_TRAIN_TOY, "--out", "DIR"], "DIR", "dataset_loss"),
        ([*_TRAIN_TOY, "--out", "t2.ckpt", "--log", "DIR"], "DIR", "dataset_loss"),
        ([*_TRAIN_TOY, "--out", "t2.ckpt"], "t2.ckpt.log", "dataset_loss"),
    ],
    ids=["forward", "eval", "scan-viz-path", "scan-viz-viz", "train-toy-out", "train-toy-log", "train-toy-default-log"],
)
def test_an_output_that_is_a_directory_is_rejected_before_any_work(
    tmp_path, monkeypatch, capsys, argv, directory, work
):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output paths were checked")

    write_ppm(str(tmp_path / "img.ppm"), np.zeros((3, 8, 8)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((8, 8)))
    (tmp_path / directory).mkdir()
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, work, no_work)
    assert cli.main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {directory}: is a directory, not a file"]
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flags", [["--synth", "5"], ["--size", "64"], ["--synth", "5", "--size", "64"]])
def test_train_toy_data_excludes_synth_and_size(tmp_path, monkeypatch, capsys, flags):
    def no_work(*args, **kwargs):
        raise AssertionError("the training data was read before the flags were checked")

    (tmp_path / "pairs").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_dir_pairs", no_work)
    monkeypatch.setattr(cli, "dataset_loss", no_work)
    assert cli.main(["train-toy", "--data", "pairs", *flags, "--steps", "1", *_TINY_FLAGS]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: --data trains on the directory's pairs and excludes {flags[0]}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


@pytest.mark.parametrize("flags,size", [([], 32), (["--size", "8"], 8), (["--size", "0"], 0)])
def test_train_toy_synthetic_side_is_32_unless_given(tmp_path, monkeypatch, capsys, flags, size):
    seen = []

    def record(count, size, seed):
        seen.append(size)
        raise InputError("stop before training")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "make_toy_pairs", record)
    assert cli.main(["train-toy", "--synth", "1", *flags, "--steps", "0", *_TINY_FLAGS]) == 2
    assert seen == [size]


# the toy set with NaN in every clean image, so the first training loss is NaN
_NAN_TRAIN_TOY = """
import sys
from shadowscan import cli
toy = cli.make_toy_pairs
cli.make_toy_pairs = lambda **kw: [(s, m, c * float("nan")) for s, m, c in toy(**kw)]
sys.exit(cli.main(sys.argv[1:]))
"""


def test_train_toy_stops_on_a_non_finite_loss(tmp_path):
    proc = run_python(
        ["-c", _NAN_TRAIN_TOY, "train-toy", "--synth", "2", "--steps", "3", "--size", "8", *_TINY_FLAGS],
        tmp_path,
    )
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: training step 0: loss is nan"]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "toy.ckpt").exists()


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
            "--unet-depth", "1", "--patch-size", "2", "--residual-output", "no",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    config, _ = load_checkpoint(str(tmp_path / "toy.ckpt"))
    assert config.channels == 2 and config.state_dim == 2 and config.residual_output is False
    assert "config channels=2" in proc.stderr


def test_train_toy_rejects_a_data_triple_of_mixed_sizes(tmp_path):
    (tmp_path / "pairs").mkdir()
    write_ppm(str(tmp_path / "pairs" / "a_shadow.ppm"), np.zeros((3, 16, 16)))
    write_pgm(str(tmp_path / "pairs" / "a_mask.pgm"), np.zeros((16, 16)))
    write_ppm(str(tmp_path / "pairs" / "a_gt.ppm"), np.zeros((3, 8, 8)))
    proc = run_cli(["train-toy", "--data", "pairs", "--steps", "1", *_TINY_FLAGS], tmp_path)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: a: files differ in size (shadow 16x16, mask 16x16, gt 8x8)"]
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize(
    "out,message",
    [
        ("pred.jpg", "unsupported image format: pred.jpg"),
        ("nodir/pred.ppm", "nodir/pred.ppm: directory nodir does not exist"),
        ("pred.pgm", "pred.pgm: a PGM holds one channel but the prediction has three; use .ppm or .png"),
        pytest.param(
            "pred.png",
            "PNG support needs the Pillow package",
            marks=pytest.mark.skipif(importlib.util.find_spec("PIL") is not None, reason="Pillow writes PNG"),
        ),
    ],
)
def test_forward_rejects_an_unwritable_out_before_loading_the_checkpoint(tmp_path, out, message):
    # no checkpoint exists: the --out check must fail first
    write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 8, 8)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((8, 8)))
    proc = run_cli(["forward", "in.ppm", "mask.pgm", "--checkpoint", "missing.ckpt", "--out", out], tmp_path)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}"], proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm", "mask.pgm"]


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


def test_forward_rejects_a_non_finite_checkpoint_param(tmp_path):
    model = ShadowNet(ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4))
    dict(model.named_params())["dec_b"].data[0] = np.nan
    save_checkpoint(str(tmp_path / "m.ckpt"), model)
    write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 16, 16)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((16, 16)))
    proc = run_cli(["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: param 'dec_b' holds a non-finite value\n"
    assert not (tmp_path / "pred.ppm").exists()


@pytest.mark.parametrize("name, value", [("encoder.w", 1e308), ("dec_w", 1e308)])
def test_forward_rejects_a_checkpoint_whose_forward_overflows(tmp_path, name, value):
    # finite weights whose products leave float64: the encoder's turn the
    # prediction to NaN, the decoder's to infinities that the output clamp
    # would hide in a finite image
    model = ShadowNet(ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=4))
    dict(model.named_params())[name].data[:] = value
    save_checkpoint(str(tmp_path / "m.ckpt"), model)
    write_ppm(str(tmp_path / "in.ppm"), np.random.default_rng(5).uniform(size=(3, 16, 16)))
    write_pgm(str(tmp_path / "mask.pgm"), np.zeros((16, 16)))
    proc = run_cli(["forward", "in.ppm", "mask.pgm", "--checkpoint", "m.ckpt"], tmp_path)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    assert errors[0].startswith("error: m.ckpt: the forward pass leaves float64 range ("), proc.stderr
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "pred.ppm").exists()


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


def _negative_seed(lines, blob_size):
    return [b"config seed=-1" if line == b"config seed=0" else line for line in lines]


def _missing_config(lines, blob_size):
    return [line for line in lines if line != b"config seed=0"]


def _repeated_config(lines, blob_size):
    return lines[:2] + lines[1:]


@pytest.mark.parametrize(
    "edit",
    [
        _set_field(0, 3, b"0x"),
        _set_field(-1, 3, lambda size, _: str(size + 8).encode()),
        _append_field,
        _set_field(0, 2, b"2xq"),
        _set_field(0, 2, b"-2"),
        _set_field(0, 2, b"0x99999999999999999999"),
        _set_field(0, 2, b"0x9223372036854775807x2"),
        _set_field(0, 3, lambda size, _: str(size - 8).encode()),
        _set_field(1, 3, b"8"),
        _non_ascii,
        _negative_seed,
        _missing_config,
        _repeated_config,
    ],
    ids=[
        "offset-not-integer",
        "offset-past-blob",
        "wrong-field-count",
        "dimension-not-integer",
        "negative-dimension",
        "dimension-numpy-refuses",
        "array-numpy-refuses",
        "param-runs-past-blob",
        "overlapping-params",
        "non-ascii-manifest",
        "negative-seed",
        "missing-config-line",
        "repeated-config-line",
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


def test_no_command_imports_scipy(tmp_path):
    # the package's special functions are numpy code; scipy is only the
    # tests' oracle and must not be loaded, at import or by a forward
    save_checkpoint(str(tmp_path / "m.ckpt"), ShadowNet(ModelConfig(channels=2, state_dim=2, unet_depth=1, patch_size=2)))
    write_ppm(str(tmp_path / "in.ppm"), np.random.default_rng(4).uniform(size=(3, 8, 8)))
    write_pgm(str(tmp_path / "mask.pgm"), np.eye(8))
    script = (
        "import sys\n"
        "from shadowscan import cli\n"
        "code = cli.main(['forward', 'in.ppm', 'mask.pgm', '--checkpoint', 'm.ckpt'])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
    assert (tmp_path / "pred.ppm").exists()


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


@pytest.mark.parametrize(
    "text",
    [b"channels=banana\n", b"channels=\xe9\n", b"channels=4\nchannels=2\n", b"channels=1_6\n"],
    ids=["non-integer", "non-ascii", "repeated-key", "digit-separator"],
)
def test_check_reads_its_config_file(tmp_path, text):
    (tmp_path / "bad.cfg").write_bytes(text)
    proc = run_cli(["check", "interleave", "--config", "bad.cfg"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


def _run_in_process(argv):
    """Exit code and stderr of ``cli.main(argv)``; argparse exits count as
    codes. Any other exception escapes to the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory to run in, and valid inputs at three sizes as bytes."""
    work = tmp_path_factory.mktemp("cli_fuzz")
    rng = np.random.default_rng(0)
    config = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2)
    save_checkpoint(str(work / "m.ckpt"), ShadowNet(config))
    blobs = {}
    for size in (8, 12, 16):
        for name in ("img.ppm", "gt.ppm"):
            write_ppm(str(work / name), rng.uniform(size=(3, size, size)))
        write_pgm(str(work / "mask.pgm"), (rng.uniform(size=(size, size)) < 0.4).astype(float))
        (work / "run.cfg").write_bytes(b"patch_size=2\ntau=0.5\n")
        names = ("img.ppm", "gt.ppm", "mask.pgm", "m.ckpt", "run.cfg")
        blobs[size] = {name: (work / name).read_bytes() for name in names}
    return work, blobs


# each command line, with {d} for the run directory, and the inputs it reads
_FUZZ_COMMANDS = {
    "eval": ("eval {d}/img.ppm {d}/gt.ppm {d}/mask.pgm", ["img.ppm", "gt.ppm", "mask.pgm"]),
    "scan-viz": ("scan-viz {d}/mask.pgm --out {d}/scan --config {d}/run.cfg", ["mask.pgm", "run.cfg"]),
    "forward": (
        "forward {d}/img.ppm {d}/mask.pgm --checkpoint {d}/m.ckpt --out {d}/out.ppm --config {d}/run.cfg",
        ["img.ppm", "mask.pgm", "m.ckpt", "run.cfg"],
    ),
}


@settings(max_examples=400)
@given(
    command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
    size=st.sampled_from([8, 12, 16]),
    target=st.integers(0, 11),  # a multiple of every command's input count
    flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3),
    keep=st.one_of(st.none(), st.integers(0, 1 << 16)),
    tail=st.binary(max_size=4),
)
def test_malformed_inputs_exit_2_with_one_error_line(fuzz_inputs, command, size, target, flips, keep, tail):
    # one input of the command is mutated: bytes flipped, the file cut
    # short, bytes appended; the command succeeds or rejects it cleanly
    work, blobs = fuzz_inputs
    line, reads = _FUZZ_COMMANDS[command]
    mutated = reads[target % len(reads)]
    for name, blob in blobs[size].items():
        if name == mutated:
            raw = bytearray(blob)
            for at, value in flips:
                raw[at % len(raw)] = value
            blob = bytes(raw[:keep]) + tail
        (work / name).write_bytes(blob)
    _assert_clean_exit(*_run_in_process(line.format(d=work).split()))


def _assert_clean_exit(code, err):
    """Success, or exit 2 whose last stderr line is its only ``error:``."""
    assert "Traceback" not in err
    if code != 0:
        assert code == 2, err
        lines = err.splitlines()
        assert [text for text in lines if "error:" in text] == lines[-1:], err
        # input bytes are shown escaped: no control byte but each line's end
        assert err.endswith("\n") and not any(ch < " " or ch == "\x7f" for ch in err.replace("\n", "")), err


@settings(max_examples=100)
@given(
    index=st.integers(-8, 7),
    dims=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 1 << 70)), min_size=1, max_size=4),
)
def test_manifest_dimensions_exit_0_or_2_with_one_error_line(fuzz_inputs, index, dims):
    # one param line of the checkpoint gets another shape: any count of
    # dimensions, zeros among them, sizes past what numpy can index
    work, blobs = fuzz_inputs
    for name, blob in blobs[8].items():
        (work / name).write_bytes(blob)
    head, sep, rest = blobs[8]["m.ckpt"].partition(b"\nblob ")
    shape = b"x".join(str(d).encode() for d in dims)
    lines = _set_field(index, 2, shape)(head.split(b"\n"), None)
    (work / "m.ckpt").write_bytes(b"\n".join(lines) + sep + rest)
    _assert_clean_exit(*_run_in_process(_FUZZ_COMMANDS["forward"][0].format(d=work).split()))


def test_eval_names_the_cut_short_mask(fuzz_inputs):
    # cut inside the header and just before the whitespace ending it
    work, blobs = fuzz_inputs
    for name, blob in blobs[16].items():
        (work / name).write_bytes(blob)
    header = b"P5\n16 16\n255\n"
    assert blobs[16]["mask.pgm"].startswith(header)
    for keep, message in ((5, "truncated netpbm header"), (len(header) - 1, "missing whitespace before netpbm raster")):
        (work / "mask.pgm").write_bytes(header[:keep])
        code, err = _run_in_process(_FUZZ_COMMANDS["eval"][0].format(d=work).split())
        assert code == 2 and err == f"error: {work / 'mask.pgm'}: {message}\n", err


def test_bytes_after_a_raster_are_rejected(fuzz_inputs):
    # 16 px: eval rejects images below the 11x11 SSIM window for that alone
    work, blobs = fuzz_inputs
    for name, blob in blobs[16].items():
        (work / name).write_bytes(blob)
    code, err = _run_in_process(_FUZZ_COMMANDS["eval"][0].format(d=work).split())
    assert code == 0, err
    (work / "img.ppm").write_bytes(blobs[16]["img.ppm"] + b"junk")
    code, err = _run_in_process(_FUZZ_COMMANDS["eval"][0].format(d=work).split())
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    (work / "mask.pgm").write_bytes(blobs[16]["mask.pgm"] + b"\0")
    code, err = _run_in_process(["scan-viz", str(work / "mask.pgm"), "--out", str(work / "scan")])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
