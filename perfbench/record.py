"""Environment record and computed kernel counts that go with every result.

Counts here are computed from array sizes, not measured: parameter bytes,
forward multiply-add flops, and the bytes a taped forward pass keeps alive.
They ignore cache misses and temporaries.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

from folheat import neural

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git(root: Path, *args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_name() -> str | None:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        return None
    return deps.get("blas", {}).get("name")


def env_record(root: Path, workload: str, seed: int, seconds: int, load_1min: float) -> dict:
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if head else None
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "git_hash": head,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": load_1min,
    }


def llc_bytes() -> int:
    """Size of cpu0's last-level cache from sysfs (read-only); 0 when unknown."""
    best_level, best_size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or level < best_level:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        best_level, best_size = level, int(size.rstrip("KMG")) * scale
    return best_size


def param_bytes(model) -> int:
    return 8 * sum(w.size + b.size for g in model.groups for w, b in zip(g.weights, g.biases))


def forward_flops_per_sample(model) -> int:
    """Two flops per weight (multiply and add); biases and activations omitted."""
    return 2 * sum(w.size for g in model.groups for w in g.weights)


def tape_bytes(model, batch: np.ndarray) -> int:
    """Bytes held by the arrays of one taped forward pass over `batch`."""
    _, tape = neural.forward_with_tape(model, batch)
    total = tape.out.nbytes
    for gt in tape.group_tapes:
        arrays = [gt.x_gath, *gt.preacts, *gt.acts, *gt.act_aux]
        total += sum(a.nbytes for a in arrays if a is not None)
    return total
