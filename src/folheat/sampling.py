"""Unsupervised training corpus: trigonometric-series fields, normalized
white-noise fields, and constant fields over the free nodes.

Every generator min-max normalizes into [0, 1]; a field whose raw span is
below 1e-12 collapses to the mid-range constant 0.5 instead of dividing by
zero. Each sample draws from its own RNG stream derived from (seed, sample
index), so generation is reproducible and order-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .mesh import DofMap, Mesh

DEGENERATE_SPAN = 1e-12

# interval menus the per-term parameters are drawn from: first pick an
# interval uniformly, then a value uniformly within it
DEFAULT_OFFSET_RANGES = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))
DEFAULT_AMP_RANGES = ((0.01, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0))
DEFAULT_FREQ_RANGES = (
    (0.0, 0.0),
    (0.001, 0.01),
    (0.01, 0.1),
    (0.1, 1.0),
    (1.1, 2.0),
    (2.1, 4.0),
    (4.1, 6.0),
)


def _check_ranges(name, ranges):
    if not ranges:
        raise ValidationError(f"{name} must list at least one interval")
    for lo, hi in ranges:
        if lo > hi:
            raise ValidationError(f"{name} interval ({lo}, {hi}) is not ordered")


@dataclass(frozen=True)
class FourierParams:
    """Term count and interval menus for the trigonometric-series generator."""

    n_terms: int = 50
    offset_ranges: tuple = DEFAULT_OFFSET_RANGES
    amp_x_ranges: tuple = DEFAULT_AMP_RANGES
    amp_y_ranges: tuple = DEFAULT_AMP_RANGES
    freq_x_ranges: tuple = DEFAULT_FREQ_RANGES
    freq_y_ranges: tuple = DEFAULT_FREQ_RANGES

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValidationError(f"n_terms must be >= 1, got {self.n_terms}")
        _check_ranges("offset_ranges", self.offset_ranges)
        _check_ranges("amp_x_ranges", self.amp_x_ranges)
        _check_ranges("amp_y_ranges", self.amp_y_ranges)
        _check_ranges("freq_x_ranges", self.freq_x_ranges)
        _check_ranges("freq_y_ranges", self.freq_y_ranges)


@dataclass(frozen=True)
class SampleSet:
    """Training samples (n_samples x n_free) with provenance and seed."""

    samples: np.ndarray
    provenance: dict[str, int]
    seed: int
    fingerprint: str

    def __post_init__(self):
        self.samples.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def _minmax(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    span = values.max() - lo
    if span < DEGENERATE_SPAN:
        return np.full(values.shape, 0.5)
    return (values - lo) / span


def _draw(ranges, rng) -> float:
    lo, hi = ranges[rng.integers(len(ranges))]
    return float(rng.uniform(lo, hi))


def gen_fourier(fp: FourierParams, mesh: Mesh, dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One smooth random field: a sum of fp.n_terms sine/cosine products.

    Per term, draw offset, x/y amplitudes, and x/y frequencies from their
    interval menus; evaluate at the free-node coordinates; normalize.
    """
    xy = mesh.nodes[dofs.free]
    x, y = xy[:, 0], xy[:, 1]
    total = np.zeros(dofs.n_free)
    for _ in range(fp.n_terms):
        offset = _draw(fp.offset_ranges, rng)
        amp_x = _draw(fp.amp_x_ranges, rng)
        amp_y = _draw(fp.amp_y_ranges, rng)
        freq_x = _draw(fp.freq_x_ranges, rng)
        freq_y = _draw(fp.freq_y_ranges, rng)
        sx, cx = np.sin(freq_x * x), np.cos(freq_x * x)
        sy, cy = np.sin(freq_y * y), np.cos(freq_y * y)
        total += offset + amp_x * sx * cy + amp_y * cx * sy + amp_x * sx * sy + amp_y * cx * cy
    return _minmax(total)


def gen_gaussian(mesh: Mesh, dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One white-noise field: i.i.d. standard normals per free node, normalized."""
    return _minmax(rng.standard_normal(dofs.n_free))


def gen_constant(dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One constant field with level drawn uniformly from [0, 1]."""
    return np.full(dofs.n_free, float(rng.uniform(0.0, 1.0)))


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def build_sample_set(
    counts: tuple[int, int, int],
    fp: FourierParams,
    mesh: Mesh,
    dofs: DofMap,
    seed: int,
) -> SampleSet:
    """Generate (n_fourier, n_gaussian, n_constant) samples, in that order."""
    n_fourier, n_gaussian, n_constant = counts
    if min(counts) < 0:
        raise ValidationError(f"sample counts must be >= 0, got {counts}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n_total = n_fourier + n_gaussian + n_constant
    samples = np.zeros((n_total, dofs.n_free))
    row = 0
    for _ in range(n_fourier):
        samples[row] = gen_fourier(fp, mesh, dofs, _sample_rng(seed, row))
        row += 1
    for _ in range(n_gaussian):
        samples[row] = gen_gaussian(mesh, dofs, _sample_rng(seed, row))
        row += 1
    for _ in range(n_constant):
        samples[row] = gen_constant(dofs, _sample_rng(seed, row))
        row += 1
    provenance = {"fourier": n_fourier, "gaussian": n_gaussian, "constant": n_constant}
    return SampleSet(samples, provenance, seed, dofs.fingerprint)


def save_sample_set(out_dir, ss: SampleSet, fp: FourierParams) -> None:
    """Write samples.npy plus a JSON sidecar with provenance and generator setup."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "samples.npy", ss.samples)
    meta = {
        "provenance": ss.provenance,
        "seed": ss.seed,
        "fingerprint": ss.fingerprint,
        "n_samples": int(ss.n_samples),
        "n_free": int(ss.samples.shape[1]),
        "fourier": {
            "n_terms": fp.n_terms,
            "offset_ranges": [list(r) for r in fp.offset_ranges],
            "amp_x_ranges": [list(r) for r in fp.amp_x_ranges],
            "amp_y_ranges": [list(r) for r in fp.amp_y_ranges],
            "freq_x_ranges": [list(r) for r in fp.freq_x_ranges],
            "freq_y_ranges": [list(r) for r in fp.freq_y_ranges],
        },
    }
    (out / "samples.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_sample_set(in_dir) -> SampleSet:
    """Read save_sample_set's output; a sidecar that is not a JSON object with
    every key, or a sample that is not finite, is a ValidationError."""
    in_path = Path(in_dir)
    samples = np.load(in_path / "samples.npy")
    sidecar = in_path / "samples.json"
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{sidecar}: not JSON: {exc}") from None
    for key in ("n_samples", "n_free", "provenance", "seed", "fingerprint"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValidationError(f"{sidecar}: missing key {key!r}")
    if samples.shape != (meta["n_samples"], meta["n_free"]):
        raise ValidationError(
            f"samples.npy shape {samples.shape} disagrees with sidecar "
            f"({meta['n_samples']}, {meta['n_free']})"
        )
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ValidationError(f"{in_path / 'samples.npy'}: sample {bad[0]} holds a non-finite value")
    return SampleSet(samples, meta["provenance"], meta["seed"], meta["fingerprint"])
