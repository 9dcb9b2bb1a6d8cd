"""Shared test oracles: central finite differences against the tape, and
child-process runs of the command line against this checkout's `src`."""

import os
import subprocess
import sys

import numpy as np

from shadowscan import autodiff as ad
from shadowscan.autodiff import GradTape, Tensor


def weighted_sum(y, weight):
    """sum(y * weight) as one tape node; replayed from the default seed 1.0,
    it hands y the cotangent ``weight`` exactly."""
    out = Tensor(np.sum(y.data * weight))
    ad._record(out, lambda g: y.accumulate(g * weight, owned=True))
    return out


def tape_grads(fn, tensors, weight):
    """Gradients of sum(fn(*tensors) * weight) from one backward pass."""
    for t in tensors:
        t.zero_grad()
    with GradTape() as tape:
        loss = weighted_sum(fn(*tensors), weight)
    ad.backward(loss, tape)
    return [t.grad for t in tensors]


def numeric_grads(fn, tensors, weight, eps=1e-6):
    """The same gradients from central differences, element by element.

    fn must be deterministic; it is re-evaluated with single entries of the
    operand arrays nudged in place.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for idx in np.ndindex(*t.data.shape):
            keep = t.data[idx]
            t.data[idx] = keep + eps
            hi = float(np.sum(fn(*tensors).data * weight))
            t.data[idx] = keep - eps
            lo = float(np.sum(fn(*tensors).data * weight))
            t.data[idx] = keep
            g[idx] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_grads_match(fn, tensors, seed=0, tol=1e-4, eps=1e-6):
    """Tape gradients and finite differences agree for every operand."""
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=fn(*tensors).shape)
    analytic = tape_grads(fn, tensors, weight)
    numeric = numeric_grads(fn, tensors, weight, eps)
    for t, a, n in zip(tensors, analytic, numeric):
        assert a is not None, f"missing gradient for operand of shape {t.shape}"
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.abs(a - n) / scale
        assert err.max() <= tol, f"gradient off by {err.max():.3e} (tol {tol})"


# the checkout's own package tree; child processes import shadowscan from here
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(argv, cwd):
    """Run `python *argv` in a child process with SRC first on PYTHONPATH.

    The path is absolute, so it resolves from any cwd, and it comes before
    any inherited entries, so an installed copy never stands in for SRC.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
    )


def run_cli(args, cwd):
    """Run `python -m shadowscan *args` in cwd as a separate process."""
    return run_python(["-m", "shadowscan", *args], cwd)
