"""The machine and build a benchmark result was measured on."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

import numpy as np

# OpenBLAS exports its thread query under a prefix and suffix that depend on
# how it was built; numpy wheels ship the ``scipy_openblas`` 64-bit build.
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": cfg.get("name", "unknown"), "version": cfg.get("version", "unknown")}


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "seed": seed,
    }
