"""Unsupervised training corpus: trigonometric-series fields, normalized
white-noise fields, and constant fields over the free nodes.

Every generator min-max normalizes into [0, 1]; a field whose raw span is
below 1e-12 collapses to the mid-range constant 0.5 instead of dividing by
zero.

build_sample_set draws each kind of field from its own generator, kind k of
KINDS from default_rng(SeedSequence((seed, k))), so the corpus is
reproducible from the seed and the counts alone:
- the trigonometric rows take every term's interval index first, then every
  value within its interval, each in (row, term, menu) order;
- the white-noise rows are consecutive gen_gaussian fields;
- the constant rows are consecutive uniform levels in [0, 1).
Rows are evaluated BLOCK_VALUES values at a time; the bits do not depend on
the block size.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .mesh import DofMap, Mesh
from .textio import read_record, write_record

DEGENERATE_SPAN = 1e-12
# the corpus's three kinds of field, in row order; the sidecar's provenance keys
KINDS = ("fourier", "gaussian", "constant")
# build_sample_set evaluates Fourier and Gaussian rows in blocks of about this many values
BLOCK_VALUES = 1 << 16
# the corpus contract a sample set's sidecar records: 2 is one generator per kind
CORPUS = 2

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
        if not (math.isfinite(lo) and math.isfinite(hi - lo)):
            raise ValidationError(f"{name} interval ({lo}, {hi}) is not finite")
        if lo > hi:
            raise ValidationError(f"{name} interval ({lo}, {hi}) is not ordered")


@dataclass(frozen=True)
class FourierParams:
    """Term count, then the interval menus of the trigonometric-series
    generator in the order each term draws from them. The fields name the
    [samples] config keys and the sidecar's `fourier` entries."""

    n_terms: int = 50
    offset_ranges: tuple = DEFAULT_OFFSET_RANGES
    amp_x_ranges: tuple = DEFAULT_AMP_RANGES
    amp_y_ranges: tuple = DEFAULT_AMP_RANGES
    freq_x_ranges: tuple = DEFAULT_FREQ_RANGES
    freq_y_ranges: tuple = DEFAULT_FREQ_RANGES

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValidationError(f"n_terms must be >= 1, got {self.n_terms}")
        for field, menu in zip(fields(self)[1:], self.menus()):
            _check_ranges(field.name, menu)

    def menus(self) -> tuple:
        """The interval menus: every field after n_terms, in draw order."""
        return tuple(getattr(self, field.name) for field in fields(self)[1:])


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


def _minmax_rows(values: np.ndarray) -> np.ndarray:
    """Min-max normalize each row; a row spanning under DEGENERATE_SPAN becomes 0.5."""
    lo = values.min(axis=1, keepdims=True, initial=np.inf)  # a 0-wide row has no minimum
    span = values.max(axis=1, keepdims=True, initial=-np.inf) - lo
    flat = span < DEGENERATE_SPAN
    out = (values - lo) / np.where(flat, 1.0, span)
    out[flat[:, 0]] = 0.5
    return out


def _fourier_draws(fp: FourierParams, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """(n_rows, n_terms, 5) term parameters (offset, amp_x, amp_y, freq_x, freq_y)
    from rng: every interval index, then every value uniform within its
    interval (Generator.uniform's lo + (hi - lo) * u), each in (row, term,
    menu) order."""
    menus = fp.menus()
    shape = (n_rows, fp.n_terms, len(menus))
    idx = rng.integers([len(menu) for menu in menus], size=shape)
    u = rng.random(shape)
    for col, menu in enumerate(menus):  # a column at a time, in place: no full-size gather
        lo, hi = np.array(menu, dtype=np.float64).T
        pick = idx[..., col]
        u[..., col] *= (hi - lo)[pick]
        u[..., col] += lo[pick]
    return u


def _distinct(values: np.ndarray):
    """(distinct values, inverse index); -0.0 and 0.0 count as distinct."""
    _, first, inverse = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)
    return values[first], inverse


def _fourier_rows(draws: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normalized trigonometric series for each row of draws (rows, n_terms, 5)
    at the points (x, y); terms are added in order, as a scalar loop would.

    Sines and cosines are taken once per distinct coordinate and gathered.
    """
    (ux, ix), (uy, iy) = _distinct(x), _distinct(y)
    total = np.zeros((draws.shape[0], x.size))
    for offset, amp_x, amp_y, freq_x, freq_y in draws.transpose(1, 2, 0)[..., None]:
        fx, fy = freq_x * ux, freq_y * uy
        a, b = (amp_x * np.sin(fx))[:, ix], (amp_y * np.cos(fx))[:, ix]  # amp_x * sx, amp_y * cx
        sy, cy = np.sin(fy)[:, iy], np.cos(fy)[:, iy]
        total += offset + a * cy + b * sy + a * sy + b * cy
    return _minmax_rows(total)


def gen_fourier(fp: FourierParams, mesh: Mesh, dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One smooth random field: a sum of fp.n_terms sine/cosine products.

    Draw each term's offset, x/y amplitudes, and x/y frequencies from their
    interval menus (_fourier_draws of one row); evaluate at the free-node
    coordinates; normalize.
    """
    xy = mesh.nodes[dofs.free]
    return _fourier_rows(_fourier_draws(fp, rng, 1), xy[:, 0], xy[:, 1])[0]


def gen_gaussian(dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One white-noise field: i.i.d. standard normals per free node, normalized."""
    return _minmax_rows(rng.standard_normal((1, dofs.n_free)))[0]


def build_sample_set(
    counts: tuple[int, int, int],
    fp: FourierParams,
    mesh: Mesh,
    dofs: DofMap,
    seed: int,
) -> SampleSet:
    """Generate (n_fourier, n_gaussian, n_constant) samples, in that order.

    Kind k of KINDS draws from default_rng(SeedSequence((seed, k))): the
    trigonometric rows from _fourier_draws(fp, rng, n_fourier), the
    white-noise rows as consecutive gen_gaussian calls, the constant rows as
    consecutive uniform [0, 1) levels. Fourier and Gaussian rows are evaluated
    BLOCK_VALUES values at a time, with the same bits for any block size.
    """
    n_fourier, n_gaussian, n_constant = counts
    if min(counts) < 0:
        raise ValidationError(f"sample counts must be >= 0, got {counts}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if dofs.n_free < 1:
        raise ValidationError("sample set needs at least one free dof")
    fourier_rng, gaussian_rng, constant_rng = (np.random.default_rng(np.random.SeedSequence((seed, k)))
                                               for k in range(len(KINDS)))
    samples = np.empty((sum(counts), dofs.n_free))
    fourier, gaussian, constant = np.split(samples, [n_fourier, n_fourier + n_gaussian])
    xy = mesh.nodes[dofs.free]
    block = max(1, BLOCK_VALUES // dofs.n_free)
    draws = _fourier_draws(fp, fourier_rng, n_fourier)
    for start in range(0, n_fourier, block):
        fourier[start:start + block] = _fourier_rows(draws[start:start + block], xy[:, 0], xy[:, 1])
    del draws
    for rows in np.split(gaussian, range(block, n_gaussian, block)):
        rows[:] = _minmax_rows(gaussian_rng.standard_normal(rows.shape))
    constant[:] = constant_rng.random((n_constant, 1))
    return SampleSet(samples, dict(zip(KINDS, counts)), seed, dofs.fingerprint)


def save_sample_set(out_dir, ss: SampleSet, fp: FourierParams) -> None:
    """Write samples.npy plus a JSON sidecar with provenance and generator setup."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "samples.npy").open("wb") as f:
        write_record(f, ss.samples, "<f8")
    meta = {
        "corpus": CORPUS,
        "provenance": ss.provenance,
        "seed": ss.seed,
        "fingerprint": ss.fingerprint,
        "n_samples": int(ss.n_samples),
        "n_free": int(ss.samples.shape[1]),
        "fourier": asdict(fp),
    }
    (out / "samples.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_sample_set(in_dir, counts: tuple[int, int, int], fp: FourierParams, dofs: DofMap,
                    seed: int) -> SampleSet:
    """Read the set that build_sample_set(counts, fp, mesh, dofs, seed) made and
    save_sample_set wrote. A sidecar that is not a JSON object with every key,
    one that records another corpus contract than CORPUS, grid (a
    FingerprintError), seed, counts or Fourier setting, or a shape that its
    counts and grid do not make, a samples.npy that is not a float64 array of
    that shape (checked before its data is read), or a sample that is not
    finite, is a ValidationError."""
    in_path = Path(in_dir)
    sidecar, npy = in_path / "samples.json", in_path / "samples.npy"
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{sidecar}: not JSON: {exc}") from None
    for key in ("n_samples", "n_free", "provenance", "seed", "fingerprint", "fourier", "corpus"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValidationError(f"{sidecar}: missing key {key!r}")
    dofs.check(meta["fingerprint"], meta["n_free"], f"sample set {in_dir}")
    # the recipe as the sidecar would record it, and as JSON reads it back (lists for tuples)
    recipe = json.loads(json.dumps({"corpus": CORPUS, "seed": seed, "counts": dict(zip(KINDS, counts)),
                                    **asdict(fp)}))
    recorded = {**(meta["fourier"] if isinstance(meta["fourier"], dict) else {}),
                "corpus": meta["corpus"], "seed": meta["seed"], "counts": meta["provenance"]}
    for item, wanted in recipe.items():
        if (got := recorded.get(item)) != wanted:
            got, wanted = (json.dumps(value, sort_keys=True) for value in (got, wanted))
            raise ValidationError(f"sample set {in_dir} was generated with {item} {got}, not {wanted}")
    shape = (sum(counts), dofs.n_free)
    if (meta["n_samples"], meta["n_free"]) != shape:
        raise ValidationError(f"sample set {in_dir} records {meta['n_samples']} samples of "
                              f"{meta['n_free']} free values, not {shape[0]} of {shape[1]}")
    with npy.open("rb") as f:
        samples = read_record(f, npy, "samples", "<f8", shape)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ValidationError(f"{npy}: sample {bad[0]} holds a non-finite value")
    return SampleSet(samples, meta["provenance"], meta["seed"], meta["fingerprint"])
