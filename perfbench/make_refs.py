"""Rewrite the golden references under ``refs/`` from the current program.

    python3 perfbench/make_refs.py

The benchmark compares its golden cases with these files on every run, so
rewrite them only for a change that is meant to alter the arithmetic, and
say so in the change.
"""

from __future__ import annotations

import logging
import os
import shutil
import sys

import run


def main() -> int:
    run._import_program()
    logging.basicConfig(level=logging.WARNING)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"refs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for cls in run.workloads.WORKLOADS.values():
            wl = cls(run.workloads.GOLDEN_SEED, workdir)
            wl.setup()
            misses = wl.golden(write=True)
            if misses:
                print("\n".join(misses), file=sys.stderr)
                return 1
            print(f"{cls.name}: references written")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
