"""Unsupervised training corpus: trigonometric-series fields, normalized
white-noise fields, and constant fields over the free nodes.

Every generator min-max normalizes into [0, 1]; a field whose raw span is
below 1e-12 collapses to the mid-range constant 0.5 instead of dividing by
zero. Each sample draws from its own RNG stream derived from (seed, sample
index), so generation is reproducible and order-independent.

build_sample_set makes the corpus that gen_fourier, gen_gaussian and
gen_constant make row by row, without a SeedSequence or a scalar draw per
row. It seeds every row's PCG64 from one vectorised pass of numpy's
SeedSequence((seed, row)) hash over all rows, reads each trigonometric row's
draws from the raw PCG64 words that the scalar draws would consume, and
evaluates blocks of rows together, term by term in the scalar order, as it
normalises blocks of white-noise rows. A row where Lemire's integer bound
could have rejected a draw takes the scalar draws.

One check guards the rest: rows 0, the last trigonometric row and the last
row are compared bit for bit with their generator run on numpy's own
SeedSequence. On any mismatch (another numpy) every row is remade by those
generators, the only fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError
from .mesh import DofMap, Mesh
from .textio import read_record, write_record

DEGENERATE_SPAN = 1e-12
# the corpus's three kinds of field, in row order; the sidecar's provenance keys
KINDS = ("fourier", "gaussian", "constant")
# build_sample_set evaluates Fourier and Gaussian rows in blocks of about this many values
BLOCK_VALUES = 1 << 16
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, pool size 4)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

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


def _draw(ranges, rng) -> float:
    lo, hi = ranges[rng.integers(len(ranges))]
    return float(rng.uniform(lo, hi))


def _scalar_draws(fp: FourierParams, rng: np.random.Generator) -> np.ndarray:
    """(n_terms, 5) term parameters (offset, amp_x, amp_y, freq_x, freq_y) from rng."""
    menus = fp.menus()
    return np.array([[_draw(menu, rng) for menu in menus] for _ in range(fp.n_terms)])


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

    Per term, draw offset, x/y amplitudes, and x/y frequencies from their
    interval menus; evaluate at the free-node coordinates; normalize.
    """
    xy = mesh.nodes[dofs.free]
    return _fourier_rows(_scalar_draws(fp, rng)[None], xy[:, 0], xy[:, 1])[0]


def gen_gaussian(dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One white-noise field: i.i.d. standard normals per free node, normalized."""
    return _minmax_rows(rng.standard_normal((1, dofs.n_free)))[0]


def gen_constant(dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """One constant field with level drawn uniformly from [0, 1]."""
    return np.full(dofs.n_free, float(rng.uniform(0.0, 1.0)))


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


class _Hash:
    """numpy's hashmix (and generate_state's output hash) over uint32 arrays:
    xor the running constant, advance it by mult, multiply, xor-shift by 16."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, values: np.ndarray) -> np.ndarray:
        xor, self.const = self.const, self.const * self.mult & 0xFFFFFFFF
        values = (values ^ xor) * self.const
        return values ^ (values >> 16)


def _seed_words(seed: int, n_rows: int) -> np.ndarray:
    """(n_rows, 4) uint64: SeedSequence((seed, row)).generate_state(4, np.uint64)
    of every row below 2**32. The entropy words are the seed's, little-endian,
    then the row's; words beyond the pool of 4 are mixed into the pool after
    its own mixing, as numpy's mix_entropy does."""
    rows = np.arange(n_rows, dtype=np.uint32)
    entropy = [np.full_like(rows, seed >> shift & 0xFFFFFFFF)
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [rows]
    hashmix = _Hash(INIT_A, MULT_A)
    pool = [hashmix(word) for word in (entropy + [np.zeros_like(rows)] * 4)[:4]]
    for src in range(max(4, len(entropy))):  # the pool's own words, then entropy beyond it
        word = pool[src] if src < 4 else entropy[src]
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * MIX_MULT_L - hashmix(word) * MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    output = _Hash(INIT_B, MULT_B)
    state = np.stack([output(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _RowWords(ISeedSequence):
    """The seed sequence of one row, as the words it hands PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for 4 uint64 words; any other request seeds rows the check refuses
        return self.words if n_words == 4 and dtype is np.uint64 else np.zeros(n_words, dtype)


class _RawReplica:
    """Reads a Fourier row's term draws from the raw PCG64 words that
    _scalar_draws would consume from the same fresh generator.

    numpy draws no integer for a menu of one interval. Other integer draws
    take 32-bit halves, two consecutive draws sharing one word, low half
    first; the index is (half * k) >> 32 (Lemire's bound). Each uniform draw
    takes a whole word: lo + (hi - lo) * ((w >> 11) * 2**-53).
    """

    def __init__(self, fp: FourierParams):
        menus = fp.menus()
        slots = [([], [], []) for _ in menus]  # per menu: integer words, their shifts, uniform words
        n_words = n_ints = 0
        for _ in range(fp.n_terms):
            for menu, (int_words, shifts, uni_words) in zip(menus, slots):
                if len(menu) > 1:
                    if n_ints % 2 == 0:
                        pending, n_words = n_words, n_words + 1
                    int_words.append(pending)
                    shifts.append(32 * (n_ints % 2))
                    n_ints += 1
                uni_words.append(n_words)
                n_words += 1
        self.fp, self.n_words = fp, n_words
        self.plan = []
        for menu, (int_words, shifts, uni_words) in zip(menus, slots):
            lo, hi = np.array(menu, dtype=np.float64).T
            self.plan.append((len(menu), lo, hi - lo, np.array(int_words, dtype=np.intp),
                              np.array(shifts, dtype=np.uint64), np.array(uni_words, dtype=np.intp)))

    def raw(self, rngs) -> np.ndarray:
        """(rows, n_words) raw words of each row's fresh generator."""
        return np.stack([rng.bit_generator.random_raw(self.n_words) for rng in rngs])

    def draws(self, raw: np.ndarray):
        """(draws (rows, n_terms, 5), risky): a risky row is one where the
        rejection step of Lemire's bound could have fired and consumed more."""
        out = np.empty((raw.shape[0], self.fp.n_terms, len(self.plan)))
        risky = np.zeros(raw.shape[0], dtype=bool)
        for p, (k, lo, span, int_words, shifts, uni_words) in enumerate(self.plan):
            idx = 0
            if k > 1:
                scaled = ((raw[:, int_words] >> shifts) & 0xFFFFFFFF) * np.uint64(k)
                idx = (scaled >> 32).astype(np.intp)
                risky |= ((scaled & 0xFFFFFFFF) < k).any(axis=1)
            unit = (raw[:, uni_words] >> 11).astype(np.float64) * 2.0**-53
            out[:, :, p] = lo[idx] + span[idx] * unit
        return out, risky


def build_sample_set(
    counts: tuple[int, int, int],
    fp: FourierParams,
    mesh: Mesh,
    dofs: DofMap,
    seed: int,
) -> SampleSet:
    """Generate (n_fourier, n_gaussian, n_constant) samples, in that order:
    row r is gen_fourier, gen_gaussian or gen_constant run on
    _sample_rng(seed, r), bitwise.

    Every row is built fast (see the module docstring), Fourier and Gaussian
    rows BLOCK_VALUES values at a time. Rows 0, n_fourier - 1 and the last
    are then compared bit for bit with their generator on _sample_rng; on any
    mismatch every row is remade by the generators.
    """
    n_fourier, n_gaussian, n_constant = counts
    if min(counts) < 0:
        raise ValidationError(f"sample counts must be >= 0, got {counts}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if dofs.n_free < 1:
        raise ValidationError("sample set needs at least one free dof")
    n_total = n_fourier + n_gaussian + n_constant
    gaussian_stop = n_fourier + n_gaussian
    words = _seed_words(seed, n_total)

    def rng(row):
        return np.random.Generator(np.random.PCG64(_RowWords(words[row])))

    def reference(row):
        row_rng = _sample_rng(seed, row)
        if row < n_fourier:
            return gen_fourier(fp, mesh, dofs, row_rng)
        return gen_gaussian(dofs, row_rng) if row < gaussian_stop else gen_constant(dofs, row_rng)

    samples = np.zeros((n_total, dofs.n_free))
    xy = mesh.nodes[dofs.free]
    replica = _RawReplica(fp)
    block = max(1, BLOCK_VALUES // dofs.n_free)
    for start in range(0, n_fourier, block):
        rows = range(start, min(start + block, n_fourier))
        draws, risky = replica.draws(replica.raw([rng(row) for row in rows]))
        for i in np.flatnonzero(risky):  # Lemire's bound could have rejected a draw
            draws[i] = _scalar_draws(fp, rng(rows[i]))
        samples[start:rows.stop] = _fourier_rows(draws, xy[:, 0], xy[:, 1])
    for start in range(n_fourier, gaussian_stop, block):
        rows = range(start, min(start + block, gaussian_stop))
        samples[start:rows.stop] = _minmax_rows(np.stack([rng(row).standard_normal(dofs.n_free) for row in rows]))
    for row in range(gaussian_stop, n_total):
        samples[row] = gen_constant(dofs, rng(row))
    checked = {row for row in (0, n_fourier - 1, n_total - 1) if 0 <= row < n_total}
    if any(samples[row].tobytes() != reference(row).tobytes() for row in checked):
        samples = np.stack([reference(row) for row in range(n_total)])  # numpy draws otherwise
    return SampleSet(samples, dict(zip(KINDS, counts)), seed, dofs.fingerprint)


def save_sample_set(out_dir, ss: SampleSet, fp: FourierParams) -> None:
    """Write samples.npy plus a JSON sidecar with provenance and generator setup."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "samples.npy").open("wb") as f:
        write_record(f, ss.samples, "<f8")
    meta = {
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
    one that records another grid (a FingerprintError), seed, counts or Fourier
    setting, or a shape that its counts and grid do not make, a samples.npy that
    is not a float64 array of that shape (checked before its data is read), or
    a sample that is not finite, is a ValidationError."""
    in_path = Path(in_dir)
    sidecar, npy = in_path / "samples.json", in_path / "samples.npy"
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{sidecar}: not JSON: {exc}") from None
    for key in ("n_samples", "n_free", "provenance", "seed", "fingerprint", "fourier"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValidationError(f"{sidecar}: missing key {key!r}")
    dofs.check(meta["fingerprint"], meta["n_free"], f"sample set {in_dir}")
    # the recipe as the sidecar would record it, and as JSON reads it back (lists for tuples)
    recipe = json.loads(json.dumps({"seed": seed, "counts": dict(zip(KINDS, counts)), **asdict(fp)}))
    recorded = {**(meta["fourier"] if isinstance(meta["fourier"], dict) else {}),
                "seed": meta["seed"], "counts": meta["provenance"]}
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
