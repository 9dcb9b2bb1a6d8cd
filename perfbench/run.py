"""Benchmark for shadowscan: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload infer-64 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with no probe installed; with
``--trace 1`` they are the per-layer ones, from a run that alternates
traced and untraced requests so the tracing overhead is measured too. The
line before it holds the environment, the per-request latencies by kind
(``infer_ms``, ``eval_ms``, ``train_step_ms``), the percentile the tail
stands for with its sample count, the set-up rounds, ``train_loss_final``
and every check that missed. Traced runs also write their spans to
``perfbench/out/``.

Set-up (imports once, then three rounds of input synthesis, model build,
checkpoint write and one warm-up request) is timed as ``setup_s``: the
import time plus the median round. Warm-up requests are checked but never
enter the latency samples.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, pinned before numpy loads, keeps load within the cores
# and sums in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 3


def _import_program():
    """shadowscan from the checkout's own ``src``, whatever the cwd."""
    if not os.path.isfile(os.path.join(SRC, "shadowscan", "__init__.py")):
        sys.exit(f"error: no shadowscan package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    global measure, probes, workloads
    import measure
    import probes
    import workloads


def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, None if it is not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    return int(fn())
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.executable,
        "python_version": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Runner:
    """Runs requests, times them and counts every failure."""

    def __init__(self, workload, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.tracer = measure.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.walls: dict[bool, list[int]] = {False: [], True: []}

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        self.misses.append(f"request {index}: {why}")
        print(f"miss: request {index}: {why}", file=sys.stderr)

    def request(self, index: int, traced: bool = False, record: bool = True) -> None:
        wl = self.workload
        self.attempted += 1
        try:
            wl.prepare(index)
            if traced:
                with probes.installed(self.tracer):
                    root = self.tracer.begin_op()
                    try:
                        out = wl.request(index)
                    finally:
                        self.tracer.close(root)
                wall = self.tracer.spans[root][measure.END] - self.tracer.spans[root][measure.START]
            else:
                start = time.perf_counter_ns()
                out = wl.request(index)
                wall = time.perf_counter_ns() - start
            wl.check(index, out)
        except workloads.Miss as exc:
            self._fail(index, str(exc))
            return
        except Exception:  # a failing request must not end the run
            self._fail(index, traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc()
            return
        if not record:
            return
        self.walls[traced].append(wall)
        if not traced:
            self.samples.setdefault("op_ms", []).append(wall / 1e6)
            for key, value in out.items():
                if key.endswith("_ms"):
                    self.samples.setdefault(key, []).append(value)

    def golden(self) -> None:
        wl = self.workload
        try:
            if self.trace:
                # traced like the requests, so tracing is shown not to
                # change any output; these spans are not reported
                discard = measure.Tracer()
                with probes.installed(discard):
                    root = discard.begin_op()
                    misses = wl.golden()
                    discard.close(root)
            else:
                misses = wl.golden()
        except Exception:
            traceback.print_exc()
            misses = [f"golden cases raised {traceback.format_exc().strip().splitlines()[-1]}"]
        self.attempted += 1
        if misses:
            self.failed += 1
            self.misses.extend(misses)
            for m in misses:
                print(f"miss: {m}", file=sys.stderr)


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    wl = runner.workload
    ops = runner.samples.get("op_ms") or [float("nan")]
    tail, pct, count = measure.tail(ops)
    p50 = statistics.median(ops)
    # throughput at the median request, not over the summed time: a few
    # requests slowed by the shared host would otherwise swing it
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "img_per_s": (wl.images_per_request / (p50 / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"tail_percentile": pct, "samples": count}
    for key, values in runner.samples.items():
        if key != "op_ms":
            detail[f"{key}_p50"] = statistics.median(values)
            detail[f"{key}_tail"], _, _ = measure.tail(values)
    if "train_step_ms" in runner.samples:
        steps = runner.samples["train_step_ms"]
        detail["train_img_per_s"] = wl.batch / (statistics.median(steps) / 1e3)
    return metrics, detail


def per_layer(runner: Runner) -> tuple[dict, dict]:
    tracer = runner.tracer
    ops = measure.aggregate(tracer.spans)
    n = len(ops)
    totals: dict[str, float] = {}
    for agg in ops.values():
        for key, ns in measure.layer_times(agg).items():
            totals[key] = totals.get(key, 0.0) + ns / 1e6 / n
    counts: dict[str, float] = {}
    for counter in tracer.counters:
        for key, value in counter.items():
            counts[key] = counts.get(key, 0.0) + value / n
    metrics = {key: (value, "ms") for key, value in totals.items()}
    for key in (
        "ssm.recurrence.calls",
        "ssm.recurrence.elements",
        "autodiff.tape_ops",
        "autodiff.permute_gather.calls",
        "scanorder.mas_order.calls",
    ):
        metrics[key] = (counts.get(key, 0.0), "count")
    metrics["checkpoint.bytes"] = (counts.get("checkpoint.bytes", 0.0), "B")
    recurrence = totals["ssm.recurrence.fwd_ms"] + totals["ssm.recurrence.bwd_ms"]
    metrics["ssm.recurrence.share"] = (recurrence / totals["trace.op_ms"], "ratio")
    calls = counts.get("scanorder.mas_order.calls", 0.0) * n
    metrics["scanorder.distinct_ratio"] = (len(tracer.keys) / calls if calls else 0.0, "ratio")
    traced, plain = runner.walls[True], runner.walls[False]
    metrics["trace.overhead_ratio"] = ((sum(traced) / len(traced)) / (sum(plain) / len(plain)), "ratio")
    partition = sum(totals[key] for key in measure.PARTITION)
    detail = {"traced_ops": n, "untraced_ops": len(plain), "partition_ms": partition}
    return metrics, detail


def write_spans(tracer, path: str) -> None:
    with gzip.open(path, "wt", encoding="ascii") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be >= 0")
    import_s = time.perf_counter() - _STARTED

    # the CLI logs every call at INFO; keep that cost but not the text
    devnull = open(os.devnull, "w")
    logging.basicConfig(stream=devnull, level=logging.INFO, format="%(message)s")
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(wl, bool(args.trace))
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            wl.setup()
            runner.request(0, record=False)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)

        index, start = 1, time.perf_counter()
        while index <= workloads.MIN_OPS or time.perf_counter() - start < args.seconds:
            runner.request(index, traced=runner.trace and index % 2 == 0)
            index += 1
        if runner.trace:
            metrics, detail = per_layer(runner)
            write_spans(runner.tracer, os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            metrics, detail = end_to_end(runner, setup_s)
        detail.update(wl.details())
        runner.golden()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        logging.getLogger().handlers.clear()
        devnull.close()

    detail.update(
        workload=args.workload,
        env=environment(args.seed),
        import_s=import_s,
        setup_rounds_s=rounds,
        ops_failed_ratio=runner.failed / runner.attempted,
        misses=runner.misses,
    )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
