import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folheat import sampling
from folheat.errors import ValidationError
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat.sampling import (
    FourierParams,
    build_sample_set,
    gen_constant,
    gen_fourier,
    gen_gaussian,
    load_sample_set,
    save_sample_set,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def row_rng(seed, row):
    """The generator each corpus row draws from."""
    return np.random.default_rng(np.random.SeedSequence((seed, row)))


def reference_fourier(fp, mesh, dofs, rng):
    """Scalar draws and a per-term loop over one field: the generator's
    definition, independent of the batched evaluator."""
    xy = mesh.nodes[dofs.free]
    x, y = xy[:, 0], xy[:, 1]
    total = np.zeros(dofs.n_free)
    for _ in range(fp.n_terms):
        params = []
        for ranges in (fp.offset_ranges, fp.amp_x_ranges, fp.amp_y_ranges, fp.freq_x_ranges, fp.freq_y_ranges):
            lo, hi = ranges[rng.integers(len(ranges))]
            params.append(float(rng.uniform(lo, hi)))
        offset, amp_x, amp_y, freq_x, freq_y = params
        sx, cx = np.sin(freq_x * x), np.cos(freq_x * x)
        sy, cy = np.sin(freq_y * y), np.cos(freq_y * y)
        total += offset + amp_x * sx * cy + amp_y * cx * sy + amp_x * sx * sy + amp_y * cx * cy
    span = total.max() - total.min()
    return np.full(total.shape, 0.5) if span < 1e-12 else (total - total.min()) / span


def reference_corpus(counts, fp, mesh, dofs, seed, fourier=gen_fourier):
    rows = [fourier(fp, mesh, dofs, row_rng(seed, r)) for r in range(counts[0])]
    rows += [gen_gaussian(dofs, row_rng(seed, r)) for r in range(counts[0], sum(counts[:2]))]
    rows += [gen_constant(dofs, row_rng(seed, r)) for r in range(sum(counts[:2]), sum(counts))]
    return np.array(rows).reshape(sum(counts), dofs.n_free)


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestFourier:
    def test_degenerate_amplitudes_give_mid_range(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams(
            n_terms=3,
            amp_x_ranges=((0.0, 0.0),),
            amp_y_ranges=((0.0, 0.0),),
        )
        field = gen_fourier(fp, mesh, dofs, rng(1))
        assert np.all(field == 0.5)

    def test_single_constant_term(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams(
            n_terms=1,
            offset_ranges=((1.0, 1.0),),
            amp_x_ranges=((0.0, 0.0),),
            amp_y_ranges=((0.0, 0.0),),
        )
        assert np.all(gen_fourier(fp, mesh, dofs, rng(2)) == 0.5)

    def test_deterministic_under_seed(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams()
        a = gen_fourier(fp, mesh, dofs, rng(3))
        b = gen_fourier(fp, mesh, dofs, rng(3))
        assert np.array_equal(a, b)

    def test_range_and_nondegeneracy(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams()
        for seed in range(100):
            field = gen_fourier(fp, mesh, dofs, rng(seed))
            assert field.min() >= 0.0 and field.max() <= 1.0
            assert field.max() - field.min() > 1e-9  # nonzero frequencies exist

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValidationError):
            FourierParams(offset_ranges=((1.0, 0.5),))
        with pytest.raises(ValidationError):
            FourierParams(amp_x_ranges=())

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0), (-1e308, 1e308)])
    def test_non_finite_ranges_rejected(self, interval):
        with pytest.raises(ValidationError, match="not finite"):
            FourierParams(freq_x_ranges=(interval,))

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_matches_scalar_reference(self, grid11, seed):
        mesh, dofs = grid11
        assert_bitwise(gen_fourier(FourierParams(), mesh, dofs, rng(seed)),
                       reference_fourier(FourierParams(), mesh, dofs, rng(seed)))


class TestGaussian:
    def test_minmax_exact(self, grid11):
        _, dofs = grid11
        field = gen_gaussian(dofs, rng(4))
        assert field.min() == 0.0
        assert field.max() == 1.0

    def test_reproducible(self, grid11):
        _, dofs = grid11
        assert np.array_equal(gen_gaussian(dofs, rng(5)), gen_gaussian(dofs, rng(5)))

    def test_large_sample_mean_near_half(self):
        # normalized iid normals concentrate around 0.5 for many nodes
        from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid

        mesh = build_structured_grid(340, 300, 1.0, 1.0)  # ~1e5 nodes
        dofs = build_dof_map(mesh, DirichletSpec({}))
        field = gen_gaussian(dofs, rng(6))
        assert 0.45 <= field.mean() <= 0.55


class TestConstant:
    def test_flat(self, grid11):
        _, dofs = grid11
        field = gen_constant(dofs, rng(7))
        assert field.max() - field.min() == 0.0
        assert field.shape == (dofs.n_free,)

    def test_deterministic(self, grid11):
        _, dofs = grid11
        assert np.array_equal(gen_constant(dofs, rng(8)), gen_constant(dofs, rng(8)))

    def test_levels_spread_over_unit_interval(self, grid11):
        _, dofs = grid11
        levels = [gen_constant(dofs, rng(seed))[0] for seed in range(300)]
        assert 0.4 <= float(np.mean(levels)) <= 0.6


class TestSampleSet:
    def test_paper_scale_shape(self, grid11):
        mesh, dofs = grid11
        ss = build_sample_set((12, 15, 3), FourierParams(n_terms=5), mesh, dofs, seed=1)
        assert ss.samples.shape == (30, 99)
        assert ss.provenance == {"fourier": 12, "gaussian": 15, "constant": 3}
        assert sum(ss.provenance.values()) == ss.n_samples
        assert ss.samples.min() >= 0.0 and ss.samples.max() <= 1.0

    def test_single_constant(self, grid11):
        mesh, dofs = grid11
        ss = build_sample_set((0, 0, 1), FourierParams(), mesh, dofs, seed=2)
        assert ss.n_samples == 1
        assert ss.samples.max() - ss.samples.min() == 0.0

    def test_bitwise_deterministic(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams(n_terms=4)
        a = build_sample_set((5, 5, 2), fp, mesh, dofs, seed=3)
        b = build_sample_set((5, 5, 2), fp, mesh, dofs, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_carries_grid_fingerprint(self, grid11):
        mesh, dofs = grid11
        ss = build_sample_set((1, 1, 1), FourierParams(n_terms=2), mesh, dofs, seed=4)
        assert ss.fingerprint == dofs.fingerprint

    def test_negative_counts_rejected(self, grid11):
        mesh, dofs = grid11
        with pytest.raises(ValidationError):
            build_sample_set((-1, 0, 0), FourierParams(), mesh, dofs, seed=0)

    def test_save_load_round_trip(self, tmp_path, grid11):
        mesh, dofs = grid11
        fp = FourierParams(n_terms=3)
        ss = build_sample_set((3, 2, 1), fp, mesh, dofs, seed=5)
        save_sample_set(tmp_path / "s", ss, fp)
        np.save(tmp_path / "np.npy", ss.samples)
        assert (tmp_path / "s" / "samples.npy").read_bytes() == (tmp_path / "np.npy").read_bytes()
        back = load_sample_set(tmp_path / "s", (3, 2, 1), fp, dofs, seed=5)
        assert np.array_equal(back.samples, ss.samples)
        assert back.provenance == ss.provenance
        assert back.seed == ss.seed
        assert back.fingerprint == ss.fingerprint


@pytest.mark.parametrize("seed", [0, 7])
def test_desk_corpus_matches_row_by_row_generators(grid11, seed):
    mesh, dofs = grid11
    counts, fp = (1200, 1500, 300), FourierParams()
    assert_bitwise(build_sample_set(counts, fp, mesh, dofs, seed).samples,
                   reference_corpus(counts, fp, mesh, dofs, seed))


MESHES = {}


def small_problem(kind, irregular_mesh):
    if kind not in MESHES:
        if kind == "structured":
            mesh = build_structured_grid(5, 4, 1.0, 0.7)
            MESHES[kind] = mesh, build_dof_map(mesh, DirichletSpec({"left": 1.0}))
        else:
            mesh = irregular_mesh
            MESHES[kind] = mesh, build_dof_map(mesh, DirichletSpec({"inner": 1.0, "outer": 0.0}))
    return MESHES[kind]


interval = st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.0, 0.5, 4.0])).map(
    lambda lw: (lw[0], lw[0] + lw[1]))
menu = st.lists(interval, min_size=1, max_size=4).map(tuple)
small_params = st.builds(FourierParams, n_terms=st.integers(1, 6), offset_ranges=menu,
                         amp_x_ranges=menu, amp_y_ranges=menu, freq_x_ranges=menu, freq_y_ranges=menu)


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(fp=small_params, seed=st.integers(0, 2**32), n_fourier=st.integers(1, 9),
       kind=st.sampled_from(["structured", "irregular"]), block_values=st.integers(1, 200))
def test_batched_fourier_rows_match_scalar_reference(irregular_mesh, fp, seed, n_fourier, kind,
                                                    block_values):
    mesh, dofs = small_problem(kind, irregular_mesh)
    calls = []
    saved = sampling.BLOCK_VALUES, sampling.gen_fourier
    sampling.BLOCK_VALUES = block_values
    sampling.gen_fourier = lambda *args: calls.append(args) or saved[1](*args)
    try:
        got = build_sample_set((n_fourier, 1, 1), fp, mesh, dofs, seed).samples
    finally:
        sampling.BLOCK_VALUES, sampling.gen_fourier = saved
    assert len(calls) == len({0, n_fourier - 1})  # the checked rows only: the batched rows were kept
    assert_bitwise(got, reference_corpus((n_fourier, 1, 1), fp, mesh, dofs, seed, reference_fourier))


class TestRawReplica:
    def test_reads_the_scalar_draws(self):
        fp = FourierParams(n_terms=7)
        replica = sampling._RawReplica(fp)
        draws, risky = replica.draws(replica.raw([row_rng(4, row) for row in range(30)]))
        assert not risky.any()
        for row in range(30):
            assert_bitwise(draws[row], sampling._scalar_draws(fp, row_rng(4, row)))

    def test_flags_a_half_word_lemire_could_reject(self):
        replica = sampling._RawReplica(FourierParams(n_terms=2))
        raw = replica.raw([row_rng(0, row) for row in range(3)])
        raw[1, 0] &= np.uint64(0xFFFFFFFF00000000)  # first integer draw: low half 0, (0 * k) mod 2**32 < k
        raw[2, 0] |= np.uint64(0xFFFFFFFF)  # low half 2**32 - 1: (half * k) mod 2**32 = 2**32 - k
        _, risky = replica.draws(raw)
        assert risky.tolist() == [False, True, False]

    def test_fallback_rows_match_reference(self, grid11, monkeypatch):
        mesh, dofs = grid11
        read = sampling._RawReplica.draws

        def flag_odd_rows(self, raw):
            draws, risky = read(self, raw)
            odd = np.arange(len(risky)) % 2 == 1
            draws[odd] = np.nan  # the fallback must overwrite these
            return draws, risky | odd

        monkeypatch.setattr(sampling._RawReplica, "draws", flag_odd_rows)
        counts, fp = (9, 2, 1), FourierParams(n_terms=5)
        assert_bitwise(build_sample_set(counts, fp, mesh, dofs, 3).samples,
                       reference_corpus(counts, fp, mesh, dofs, 3, reference_fourier))

    def test_replica_that_disagrees_is_not_used(self, grid11, monkeypatch):
        mesh, dofs = grid11
        read = sampling._RawReplica.draws
        monkeypatch.setattr(sampling._RawReplica, "draws",
                            lambda self, raw: (read(self, raw)[0] + 1.0, np.zeros(len(raw), dtype=bool)))
        counts, fp = (6, 0, 0), FourierParams(n_terms=5)
        assert_bitwise(build_sample_set(counts, fp, mesh, dofs, 8).samples,
                       reference_corpus(counts, fp, mesh, dofs, 8, reference_fourier))


class TestSeedWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**95 + 11,
                                      2**96, 2**96 + 1, 2**130 + 5, 2**300 + 7])
    def test_words_match_numpy_seed_sequence(self, seed):
        n_rows = 70000
        words = sampling._seed_words(seed, n_rows)
        assert words.shape == (n_rows, 4) and words.dtype == np.uint64
        for row in (0, 1, 65536, n_rows - 1):
            assert_bitwise(words[row], np.random.SeedSequence((seed, row)).generate_state(4, np.uint64))

    @pytest.mark.parametrize("flipped_row", [0, 5, -1])  # 5: the last Fourier row
    def test_words_that_disagree_are_not_used(self, grid11, monkeypatch, flipped_row):
        mesh, dofs = grid11
        compute = sampling._seed_words

        def flip_one_bit(seed, n_rows):
            words = compute(seed, n_rows)
            words[flipped_row, 0] ^= np.uint64(1 << 17)
            return words

        monkeypatch.setattr(sampling, "_seed_words", flip_one_bit)
        counts, fp = (6, 4, 2), FourierParams(n_terms=5)
        assert_bitwise(build_sample_set(counts, fp, mesh, dofs, 8).samples,
                       reference_corpus(counts, fp, mesh, dofs, 8, reference_fourier))

    def test_desk_corpus_takes_the_vectorised_words(self, grid11, monkeypatch):
        mesh, dofs = grid11
        made, numpy_seed_sequence = [], np.random.SeedSequence

        def counted(*args, **kwargs):
            made.append(args)
            return numpy_seed_sequence(*args, **kwargs)

        fourier = []
        monkeypatch.setattr(np.random, "SeedSequence", counted)
        monkeypatch.setattr(sampling, "gen_fourier", lambda *args: fourier.append(args) or gen_fourier(*args))
        build_sample_set((1200, 1500, 300), FourierParams(), mesh, dofs, 0)
        assert len(made) == 3 and len(fourier) == 2  # the checked rows 0, 1199 and 2999, not one per row


ONE_FREE_DOF = DirichletSpec({"left": 1.0, "right": 1.0, "top": 1.0, "bottom": 1.0})


@pytest.mark.parametrize(("counts", "seed"), [  # 700: two Gaussian blocks; 2**130 + 5: entropy beyond the pool
    ((0, 5, 0), 11), ((0, 0, 5), 11), ((0, 0, 0), 11), ((3, 700, 2), 11), ((3, 700, 2), 2**130 + 5)],
    ids=["counts0", "counts1", "counts2", "counts3", "counts3-seed-beyond-the-pool"])
def test_corpora_of_each_kind_match_row_by_row_generators(grid11, counts, seed):
    mesh, dofs = grid11
    fp = FourierParams(n_terms=4)
    assert_bitwise(build_sample_set(counts, fp, mesh, dofs, seed).samples,
                   reference_corpus(counts, fp, mesh, dofs, seed, reference_fourier))


def test_gaussian_rows_on_one_free_dof_are_mid_range():
    mesh = build_structured_grid(3, 3, 1.0, 1.0)
    dofs = build_dof_map(mesh, ONE_FREE_DOF)
    assert dofs.n_free == 1
    counts, fp = (2, 6, 2), FourierParams(n_terms=3)
    got = build_sample_set(counts, fp, mesh, dofs, 12).samples
    assert_bitwise(got, reference_corpus(counts, fp, mesh, dofs, 12, reference_fourier))
    assert np.all(got[:8] == 0.5)
