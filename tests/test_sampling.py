import numpy as np
import pytest
from conftest import series
from hypothesis import given, settings
from hypothesis import strategies as st

from folheat import sampling
from folheat.errors import ValidationError
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat.sampling import (
    FourierParams,
    build_sample_set,
    gen_fourier,
    gen_gaussian,
    load_sample_set,
    save_sample_set,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def kind_rng(seed, kind):
    """The generator that corpus field kind `kind` (an index into KINDS) draws from."""
    return np.random.default_rng(np.random.SeedSequence((seed, kind)))


def reference_draws(fp, rng, n_rows):
    """(n_rows, n_terms, 5) term parameters by scalar calls: one integers call
    per interval index, then one uniform call per value, each in (row, term,
    menu) order."""
    menus = (fp.offset_ranges, fp.amp_x_ranges, fp.amp_y_ranges, fp.freq_x_ranges, fp.freq_y_ranges)
    picks = [menu[rng.integers(len(menu))] for _ in range(n_rows * fp.n_terms) for menu in menus]
    return np.array([float(rng.uniform(lo, hi)) for lo, hi in picks]).reshape(n_rows, fp.n_terms, 5)


def reference_corpus(counts, fp, mesh, dofs, seed):
    """The corpus by scalar code: trigonometric rows by series of
    reference_draws, white-noise rows by consecutive gen_gaussian calls,
    constant rows by consecutive uniform(0, 1) calls, each kind on its own
    generator."""
    n_fourier, n_gaussian, n_constant = counts
    rows = [series(terms, mesh, dofs) for terms in reference_draws(fp, kind_rng(seed, 0), n_fourier)]
    gaussian, constant = kind_rng(seed, 1), kind_rng(seed, 2)
    rows += [gen_gaussian(dofs, gaussian) for _ in range(n_gaussian)]
    rows += [np.full(dofs.n_free, float(constant.uniform(0.0, 1.0))) for _ in range(n_constant)]
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
        fp = FourierParams()
        assert_bitwise(gen_fourier(fp, mesh, dofs, rng(seed)),
                       series(reference_draws(fp, rng(seed), 1)[0], mesh, dofs))

    def test_is_row_zero_of_a_one_row_build(self, grid11):
        mesh, dofs = grid11
        fp = FourierParams()
        assert_bitwise(gen_fourier(fp, mesh, dofs, kind_rng(3, 0)),
                       build_sample_set((1, 0, 0), fp, mesh, dofs, seed=3).samples[0])


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
    """The constant rows of a corpus."""

    def test_flat(self, grid11):
        mesh, dofs = grid11
        rows = build_sample_set((0, 0, 4), FourierParams(), mesh, dofs, seed=7).samples
        assert rows.shape == (4, dofs.n_free)
        assert np.all(rows.max(axis=1) == rows.min(axis=1))

    def test_deterministic(self, grid11):
        mesh, dofs = grid11
        a, b = (build_sample_set((0, 0, 4), FourierParams(), mesh, dofs, seed=8).samples for _ in range(2))
        assert np.array_equal(a, b)

    def test_levels_spread_over_unit_interval(self, grid11):
        mesh, dofs = grid11
        levels = build_sample_set((0, 0, 300), FourierParams(), mesh, dofs, seed=9).samples[:, 0]
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

    def test_set_of_another_corpus_contract_is_refused(self, tmp_path, grid11):
        mesh, dofs = grid11
        fp = FourierParams(n_terms=3)
        save_sample_set(tmp_path, build_sample_set((3, 2, 1), fp, mesh, dofs, seed=5), fp)
        sidecar = tmp_path / "samples.json"
        sidecar.write_text(sidecar.read_text().replace('"corpus": 2', '"corpus": 1'))
        with pytest.raises(ValidationError, match=f"^sample set {tmp_path} was generated with corpus 1, not 2$"):
            load_sample_set(tmp_path, (3, 2, 1), fp, dofs, seed=5)


@pytest.mark.parametrize("seed", [0, 7])
def test_desk_corpus_matches_scalar_reference(grid11, seed):
    mesh, dofs = grid11
    counts, fp = (1200, 1500, 300), FourierParams()
    assert_bitwise(build_sample_set(counts, fp, mesh, dofs, seed).samples,
                   reference_corpus(counts, fp, mesh, dofs, seed))


def test_desk_corpus_seeds_one_generator_per_kind(grid11, monkeypatch):
    mesh, dofs = grid11
    made, numpy_seed_sequence = [], np.random.SeedSequence

    def counted(*args, **kwargs):
        made.append(args)
        return numpy_seed_sequence(*args, **kwargs)

    fourier = []
    monkeypatch.setattr(np.random, "SeedSequence", counted)
    monkeypatch.setattr(sampling, "gen_fourier", lambda *args: fourier.append(args) or gen_fourier(*args))
    build_sample_set((1200, 1500, 300), FourierParams(), mesh, dofs, 5)
    assert made == [((5, 0),), ((5, 1),), ((5, 2),)] and fourier == []


def test_fourier_draws_are_scalar_draws_in_order():
    fp = FourierParams(n_terms=7, offset_ranges=((0.25, 0.25),))  # a one-interval menu draws no index
    assert_bitwise(sampling._fourier_draws(fp, kind_rng(4, 0), 30), reference_draws(fp, kind_rng(4, 0), 30))


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
    saved = sampling.BLOCK_VALUES
    sampling.BLOCK_VALUES = block_values
    try:
        got = build_sample_set((n_fourier, 1, 1), fp, mesh, dofs, seed).samples
    finally:
        sampling.BLOCK_VALUES = saved
    assert_bitwise(got, reference_corpus((n_fourier, 1, 1), fp, mesh, dofs, seed))


class TestSeedWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**95 + 11,
                                      2**96, 2**96 + 1, 2**130 + 5, 2**300 + 7])
    def test_words_match_numpy_seed_sequence(self, grid3, seed):
        """Each kind's generator is seeded by numpy's SeedSequence((seed, k)),
        for seeds of any size."""
        mesh, dofs = grid3
        fp = FourierParams(n_terms=3)
        assert_bitwise(build_sample_set((1, 1, 1), fp, mesh, dofs, seed).samples,
                       np.stack([gen_fourier(fp, mesh, dofs, kind_rng(seed, 0)),
                                 gen_gaussian(dofs, kind_rng(seed, 1)),
                                 np.full(dofs.n_free, kind_rng(seed, 2).uniform(0.0, 1.0))]))


ONE_FREE_DOF = DirichletSpec({"left": 1.0, "right": 1.0, "top": 1.0, "bottom": 1.0})


@pytest.mark.parametrize(("counts", "seed"), [  # 700: two Gaussian blocks; 2**130 + 5: entropy beyond the pool
    ((0, 5, 0), 11), ((0, 0, 5), 11), ((0, 0, 0), 11), ((3, 700, 2), 11), ((3, 700, 2), 2**130 + 5)],
    ids=["counts0", "counts1", "counts2", "counts3", "counts3-seed-beyond-the-pool"])
def test_corpora_of_each_kind_match_row_by_row_generators(grid11, counts, seed):
    """Gaussian rows are consecutive gen_gaussian calls and constant rows
    consecutive uniform(0, 1) calls on their kind's generator."""
    mesh, dofs = grid11
    n_fourier, n_gaussian, n_constant = counts
    gaussian, constant = kind_rng(seed, 1), kind_rng(seed, 2)
    rows = [gen_gaussian(dofs, gaussian) for _ in range(n_gaussian)]
    rows += [np.full(dofs.n_free, float(constant.uniform(0.0, 1.0))) for _ in range(n_constant)]
    got = build_sample_set(counts, FourierParams(n_terms=4), mesh, dofs, seed).samples[n_fourier:]
    assert_bitwise(got, np.array(rows).reshape(n_gaussian + n_constant, dofs.n_free))


def test_gaussian_rows_on_one_free_dof_are_mid_range():
    mesh = build_structured_grid(3, 3, 1.0, 1.0)
    dofs = build_dof_map(mesh, ONE_FREE_DOF)
    assert dofs.n_free == 1
    counts, fp = (2, 6, 2), FourierParams(n_terms=3)
    got = build_sample_set(counts, fp, mesh, dofs, 12).samples
    assert_bitwise(got, reference_corpus(counts, fp, mesh, dofs, 12))
    assert np.all(got[:8] == 0.5)
