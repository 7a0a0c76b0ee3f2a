import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import legacy_corpus

from folheat.cli import main
from folheat.errors import FingerprintError, NumericalError, ValidationError
from folheat.evaluation import rollout
from folheat.fe_solver import steady_state, step_fe
from folheat.fem import ConductivityField, MaterialParams, assemble, reduce_system
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat import neural, training
from folheat.neural import (
    ACTIVATIONS,
    ARCHITECTURES,
    count_params,
    forward_batch,
    init_model,
    load_model,
    save_model,
)
from folheat.sampling import KINDS, FourierParams, SampleSet, build_sample_set
from folheat.training import (
    LBFGS_HISTORY,
    AdamState,
    LbfgsState,
    TrainConfig,
    _adam_inplace,
    _loss_and_grad,
    batch_loss,
    lbfgs_step,
    loss_gradient,
    residual_loss,
    train,
)


@pytest.fixture(scope="module")
def problem3():
    mesh = build_structured_grid(3, 3, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
    return mesh, dofs, sys_mats, rs


class TestResidualLoss:
    def test_fe_step_zeroes_the_residual(self, reduced11):
        _, dofs, _, rs = reduced11
        rng = np.random.default_rng(1)
        t_n = dofs.merge(rng.uniform(0, 1, dofs.n_free))
        t_next = step_fe(rs, dofs, t_n)
        loss = residual_loss(rs, dofs, dofs.extract_free(t_n), dofs.extract_free(t_next))
        assert loss <= 1e-9

    def test_steady_state_is_a_fixed_point_of_the_loss(self, reduced11):
        _, dofs, sys_mats, rs = reduced11
        t_ss = steady_state(sys_mats, dofs)[dofs.free]
        assert residual_loss(rs, dofs, t_ss, t_ss) <= 1e-9

    def test_linear_profile(self, reduced11):
        mesh, dofs, _, rs = reduced11
        t = (1.0 - mesh.nodes[:, 0])[dofs.free]
        assert residual_loss(rs, dofs, t, t) <= 1e-10

    def test_requires_backward_euler_system(self, system11):
        _, dofs, sys_mats = system11
        rs_half = reduce_system(sys_mats, dofs, 0.05, 0.5)
        t = np.zeros(dofs.n_free)
        with pytest.raises(ValidationError, match="alpha"):
            residual_loss(rs_half, dofs, t, t)

    def test_dimension_mismatch(self, reduced11):
        _, dofs, _, rs = reduced11
        with pytest.raises(ValidationError):
            residual_loss(rs, dofs, np.zeros(3), np.zeros(dofs.n_free))


class TestBatchLoss:
    def test_perfect_prediction_is_tiny(self, reduced11):
        _, dofs, _, rs = reduced11
        t_n = np.random.default_rng(2).uniform(0, 1, dofs.n_free)
        t_next = dofs.extract_free(step_fe(rs, dofs, dofs.merge(t_n)))

        class Exact:
            pass

        # bypass the network: batch_loss of a model that returns t_next exactly
        # is emulated through residual_loss, whose square it must equal
        li = residual_loss(rs, dofs, t_n, t_next)
        assert li**2 <= 1e-18

    def test_duplicated_sample_keeps_mean(self, problem3):
        mesh, dofs, _, rs = problem3
        model = init_model("separated", mesh, dofs, seed=3)
        one = np.random.default_rng(3).uniform(0, 1, (1, dofs.n_free))
        twice = np.vstack([one, one])
        assert batch_loss(rs, dofs, one, model) == pytest.approx(
            batch_loss(rs, dofs, twice, model), rel=1e-15
        )

    def test_nonnegative(self, problem3):
        mesh, dofs, _, rs = problem3
        model = init_model("fully_connected", mesh, dofs, seed=4)
        batch = np.random.default_rng(4).uniform(0, 1, (7, dofs.n_free))
        assert batch_loss(rs, dofs, batch, model) >= 0.0

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_untaped_loss_equals_taped_loss(self, reduced11, monkeypatch, arch, activation):
        mesh, dofs, _, rs = reduced11
        model = init_model(arch, mesh, dofs, activation=activation, seed=7)
        batch = np.random.default_rng(7).uniform(0, 1, (5, dofs.n_free))
        taped = _loss_and_grad(rs, dofs, batch, model, want_grad=True)[0]

        def forward_with_tape(*args):
            raise AssertionError("batch_loss taped its forward pass")

        monkeypatch.setattr(neural, "forward_with_tape", forward_with_tape)
        assert batch_loss(rs, dofs, batch, model) == taped

    def test_empty_batch_rejected(self, problem3):
        mesh, dofs, _, rs = problem3
        model = init_model("separated", mesh, dofs, seed=5)
        with pytest.raises(ValidationError):
            batch_loss(rs, dofs, np.zeros((0, dofs.n_free)), model)


def finite_difference_check(rs, dofs, batch, model, n_params=20, h=1e-6, seed=0):
    """Max guarded relative error between analytic and central-difference grads."""
    analytic = loss_gradient(rs, dofs, batch, model)
    p0 = model.params_flat()
    rng = np.random.default_rng(seed)
    idx = rng.choice(p0.size, size=min(n_params, p0.size), replace=False)
    floor = 1e-6 * max(1.0, float(np.abs(analytic).max()))
    worst = 0.0
    for i in idx:
        p = p0.copy()
        p[i] += h
        model.set_params_flat(p)
        up = batch_loss(rs, dofs, batch, model)
        p[i] -= 2 * h
        model.set_params_flat(p)
        down = batch_loss(rs, dofs, batch, model)
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(analytic[i]), floor)
        worst = max(worst, abs(fd - analytic[i]) / denom)
    model.set_params_flat(p0)
    return worst


class TestLossGradient:
    def test_matches_finite_differences(self, problem3):
        mesh, dofs, _, rs = problem3
        batch = np.random.default_rng(5).uniform(0, 1, (4, dofs.n_free))
        model = init_model("separated", mesh, dofs, activation="swish", seed=11)
        assert finite_difference_check(rs, dofs, batch, model) < 1e-5

    def test_zero_weight_model_reproducible(self, problem3):
        mesh, dofs, _, rs = problem3
        model = init_model("separated", mesh, dofs, seed=6)
        model.set_params_flat(np.zeros(count_params(model)))
        batch = np.random.default_rng(6).uniform(0, 1, (3, dofs.n_free))
        g1 = loss_gradient(rs, dofs, batch, model)
        g2 = loss_gradient(rs, dofs, batch, model)
        assert np.isfinite(g1).all()
        assert np.array_equal(g1, g2)

    def test_minimizer_of_loss_is_fe_step(self, reduced11):
        # steepest descent on t_hat itself must walk to the FE solution
        _, dofs, _, rs = reduced11
        rng = np.random.default_rng(8)
        t_n = rng.uniform(0, 1, dofs.n_free)
        target = dofs.extract_free(step_fe(rs, dofs, dofs.merge(t_n)))
        t_hat = rng.uniform(0, 1, dofs.n_free)
        a = rs.A_ff
        rhs = rs.B_ff @ t_n + rs.rhs_const
        dist_prev = np.inf
        for _ in range(500):
            grad = 2.0 * (a.T @ (a @ t_hat - rhs))
            ag = a @ grad
            denom = 2.0 * float(ag @ ag)
            if denom == 0.0:
                break
            step = float(grad @ grad) / denom  # exact line search for the quadratic
            t_hat = t_hat - step * grad
            dist = float(np.linalg.norm(t_hat - target))
            assert dist <= dist_prev + 1e-12
            dist_prev = dist
        assert dist_prev < 1e-6


def adam(params, grads, lr=1e-3):
    """One Adam step from a zero state, as train takes it; returns (params, state)."""
    params = np.array(params, dtype=np.float64)
    state = AdamState.zeros(params.size)
    _adam_inplace(params, np.array(grads, dtype=np.float64), state, lr, 0.9, 0.999, 1e-8,
                  np.empty_like(params))
    return params, state


class TestAdam:
    def test_first_step_magnitude(self):
        params, state = adam(np.array([1.0]), np.array([0.5]))
        assert params[0] - 1.0 == pytest.approx(-9.99999980e-4, rel=1e-9)
        assert state.t == 1

    def test_zero_gradient_no_motion(self):
        params, _ = adam(np.array([1.0, -2.0]), np.zeros(2))
        assert np.array_equal(params, np.array([1.0, -2.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal(50)
        g = rng.standard_normal(50)
        a1, s1 = adam(p, g)
        a2, s2 = adam(p, g)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1.m, s2.m)


class TestLbfgs:
    def test_quadratic_convergence(self):
        d = np.array([1.0, 10.0])

        def f_and_g(x):
            return 0.5 * float(x @ (d * x)), d * x

        x = np.array([5.0, -3.0])
        state = LbfgsState()
        for _ in range(30):
            x, state = lbfgs_step(x, f_and_g, state)
        assert np.linalg.norm(x) < 1e-8

    def test_each_point_evaluated_once(self):
        # a step reuses the loss and gradient of the point the previous step accepted
        d = np.array([1.0, 10.0])
        calls = []

        def f_and_g(x):
            calls.append(x)
            return 0.5 * float(x @ (d * x)), d * x

        x = np.array([5.0, -3.0])
        state = LbfgsState()
        trials = 0
        for _ in range(30):
            before, x_in = len(calls), x
            x, state = lbfgs_step(x, f_and_g, state)
            trials += sum(p is not x_in for p in calls[before:])
        assert len(calls) == 1 + trials

    def test_first_step_is_steepest_descent_direction(self):
        def f_and_g(x):
            return float(x @ x), 2.0 * x

        x0 = np.array([1.0, 2.0])
        x1, state = lbfgs_step(x0, f_and_g, LbfgsState())
        # empty history: the move must be along -grad (backtracking sets the length)
        move = x1 - x0
        grad0 = 2.0 * x0
        cosine = float(move @ -grad0) / (np.linalg.norm(move) * np.linalg.norm(grad0))
        assert cosine == pytest.approx(1.0, abs=1e-12)
        assert not state.line_search_failed

    def test_history_keeps_the_last_pairs(self):
        d = np.linspace(1.0, 100.0, 40)

        def f_and_g(x):
            return 0.5 * float(x @ (d * x)), d * x

        x, state, moves = np.ones(40), LbfgsState(), []
        for k in range(LBFGS_HISTORY + 3):
            x_in = x
            x, state = lbfgs_step(x, f_and_g, state)
            moves.append(x - x_in)
            assert len(state.s_pairs) == min(k + 1, LBFGS_HISTORY)
        assert all(np.array_equal(s, m) for s, m in zip(state.s_pairs, moves[-LBFGS_HISTORY:]))

    def test_negative_curvature_pair_rejected(self):
        def f_and_g(x):  # concave: moving along -grad always decreases f
            return -float(x @ x), -2.0 * x

        x = np.array([1.0, 1.0])
        x, state = lbfgs_step(x, f_and_g, LbfgsState())
        assert len(state.s_pairs) == 0  # s.y < 0 must not enter the history

    def test_line_search_failure_flag(self):
        def f_and_g(x):
            # reported slope promises descent, but every positive step hits a wall
            loss = 1e9 if x[0] > 0 else -float(x[0])
            return loss, np.array([-1.0])

        x, state = lbfgs_step(np.array([0.0]), f_and_g, LbfgsState())
        assert state.line_search_failed
        assert np.array_equal(x, np.array([0.0]))


class TestTrain:
    def _setup(self, seed=0):
        mesh = build_structured_grid(3, 3, 1.0, 1.0)
        dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
        sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        samples = build_sample_set((4, 4, 2), FourierParams(n_terms=3), mesh, dofs, seed=seed)
        return mesh, dofs, rs, samples

    def test_record_length_and_decrease(self):
        mesh, dofs, rs, samples = self._setup()
        model = init_model("separated", mesh, dofs, seed=1)
        model, record = train(model, rs, dofs, samples, TrainConfig(epochs=50, batch_size=5, seed=1))
        assert record.shape == (50,)
        assert record[-1] < record[0]

    def test_bitwise_deterministic(self):
        mesh, dofs, rs, samples = self._setup()
        cfg = TrainConfig(epochs=5, batch_size=4, seed=2)
        m1, r1 = train(init_model("separated", mesh, dofs, seed=2), rs, dofs, samples, cfg)
        m2, r2 = train(init_model("separated", mesh, dofs, seed=2), rs, dofs, samples, cfg)
        assert np.array_equal(r1, r2)
        assert np.array_equal(m1.params_flat(), m2.params_flat())

    def test_epoch_partitioning(self):
        # 10 samples, batch 4 -> batches of 4/4/2; the short batch is kept
        mesh, dofs, rs, samples = self._setup()
        model = init_model("separated", mesh, dofs, seed=3)
        _, record = train(model, rs, dofs, samples, TrainConfig(epochs=1, batch_size=4, seed=3))
        assert record.shape == (1,)

    def test_fingerprint_mismatch_rejected(self):
        mesh, dofs, rs, samples = self._setup()
        other_mesh = build_structured_grid(4, 4, 1.0, 1.0)
        other_dofs = build_dof_map(other_mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
        model = init_model("separated", other_mesh, other_dofs, seed=4)
        with pytest.raises(FingerprintError):
            train(model, rs, dofs, samples, TrainConfig(epochs=1, batch_size=4))

    def test_model_dt_follows_system(self):
        mesh, dofs, rs, samples = self._setup()
        model = init_model("separated", mesh, dofs, seed=5, dt=123.0)
        model, _ = train(model, rs, dofs, samples, TrainConfig(epochs=1, batch_size=4))
        assert model.dt == rs.dt

    def test_non_finite_loss_aborts(self):
        mesh, dofs, rs, samples = self._setup()
        model = init_model("separated", mesh, dofs, seed=6)
        poisoned = model.params_flat()
        poisoned[0] = np.nan
        model.set_params_flat(poisoned)
        with pytest.raises(NumericalError, match="diverged"):
            train(model, rs, dofs, samples, TrainConfig(epochs=2, batch_size=10, seed=6))

    def test_lbfgs_full_batch_path(self):
        mesh, dofs, rs, samples = self._setup()
        model = init_model("separated", mesh, dofs, seed=7)
        cfg = TrainConfig(epochs=20, batch_size=4, optimizer="lbfgs", seed=7)
        model, record = train(model, rs, dofs, samples, cfg)
        assert record[-1] < record[0] * 0.5

    def test_lbfgs_stops_at_a_failed_line_search(self, monkeypatch, capsys):
        # no trial passes Armijo: each epoch would re-run the same 20 trials
        mesh, dofs, rs, samples = self._setup()
        monkeypatch.setattr(training, "ARMIJO_C", 1e30)
        model, probe = (init_model("separated", mesh, dofs, seed=7) for _ in range(2))
        point, state, unstopped = model.params_flat(), LbfgsState(), []

        def f_and_g(p):  # the loop train would run without the stop
            probe.set_params_flat(p)
            return _loss_and_grad(rs, dofs, samples.samples, probe, True)

        for _ in range(5):
            point, state = lbfgs_step(point, f_and_g, state)
            unstopped.append(state.last_loss)
        assert state.line_search_failed
        evaluations = []
        monkeypatch.setattr(training, "_loss_and_grad",
                            lambda *a: evaluations.append(1) or _loss_and_grad(*a))
        model, record = train(model, rs, dofs, samples,
                              TrainConfig(epochs=5, batch_size=4, optimizer="lbfgs", seed=7))
        assert len(evaluations) == 21
        assert np.array_equal(record, unstopped)
        assert np.array_equal(model.params_flat(), point)
        assert capsys.readouterr().err == (
            f"L-BFGS line search failed at epoch 1/5; training stops at loss {record[0]:.6e}\n")

    def test_checkpoint_round_trip_after_training(self, tmp_path):
        mesh, dofs, rs, samples = self._setup()
        model = init_model("elementwise", mesh, dofs, seed=8)
        model, _ = train(model, rs, dofs, samples, TrainConfig(epochs=3, batch_size=5, seed=8))
        save_model(model, tmp_path / "m.folmodel")
        back = load_model(tmp_path / "m.folmodel", dofs)
        x = np.random.default_rng(8).uniform(0, 1, dofs.n_free)
        assert np.array_equal(forward_batch(back, x), forward_batch(model, x))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0, batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, batch_size=1, lr=-1.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, batch_size=1, optimizer="sgd")
        with pytest.raises(ValidationError, match="log_every must be >= 0, got -1"):
            TrainConfig(epochs=1, batch_size=1, log_every=-1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_refused(self, lr):
        with pytest.raises(ValidationError, match="lr must be positive and finite"):
            TrainConfig(epochs=1, batch_size=1, lr=lr)


def _problem(n):
    mesh = build_structured_grid(n, n, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    return mesh, dofs, reduce_system(sys_mats, dofs, 0.05, 1.0)


def _legacy_set(counts, fp, mesh, dofs, seed):
    """The corpus the training bits below were pinned on, as a sample set."""
    return SampleSet(legacy_corpus(counts, fp, mesh, dofs, seed), dict(zip(KINDS, counts)), seed,
                     dofs.fingerprint)


def _trained_sha256(model, rs, dofs, samples, adam_epochs, lbfgs_epochs, batch_size, seed):
    """sha256 of the parameters after Adam then L-BFGS, and of both loss records."""
    h = hashlib.sha256()
    _, adam = train(model, rs, dofs, samples, TrainConfig(adam_epochs, batch_size, seed=seed))
    _, lbfgs = train(model, rs, dofs, samples,
                     TrainConfig(lbfgs_epochs, batch_size, optimizer="lbfgs", seed=seed))
    for values in (model.params_flat(), adam, lbfgs):
        h.update(values.tobytes())
    return h.hexdigest()


# Training's exact bits on this numpy/OpenBLAS build at 1 BLAS thread, recorded
# from the taped pass that kept z, a and the expit/tanh cache per hidden layer,
# on the row-by-row corpus of conftest.legacy_corpus, which no change to
# sampling moves. A refactor of neural or training must reproduce them.
SMALL_SHA256 = {
    ("separated", "swish"): "ee01a571c0e8e3e61611853d578cff9a0a91b29e32ff413409c75014c419f13a",
    ("separated", "tanh"): "69820152e7de308537e3d0ee748a3c796c6260e408c91afa7f876f466ba3bf8c",
    ("separated", "sigmoid"): "31abc112bfbf91f3b37e6b8bcc846a49ef76fc6fd522692f565dc382d8827790",
    ("separated", "relu"): "9e503d92c4ffddafceb255202cf53c8bf19b0eca6ab7e9e85841a0b5c2bf54b9",
    ("elementwise", "swish"): "3014e02e9f334c8ca4a9c384b396b131ae55b41183b4f2eeec49f1906eab1137",
    ("elementwise", "tanh"): "ec01d979d6c537e5a2d7bdb0d67f863b03cf84c822f8509690245d2507741f30",
    ("elementwise", "sigmoid"): "f285bfd4a2233f2589616d14c5c6aea3d56f83cb59fb481c79c79fa75ef49756",
    ("elementwise", "relu"): "a212f0f22d22a32405fed26bf07abfcadc33db1dfd8bd12439bb8e1ff743fe50",
    ("fully_connected", "swish"): "ec8138e2d4965659ae3c1d94ad954c633a9547e341a5c1272f972f8c382fc3d0",
    ("fully_connected", "tanh"): "6a8a51e30ed7b79ddd034d2a384ec9078a45fb0848e69487d8004b82f6007966",
    ("fully_connected", "sigmoid"): "084ae636860cc8b9d1ce4b53430a95279f4ffe28a860fc6c2aae973829bacc39",
    ("fully_connected", "relu"): "37144c70ecfa5aaea2b6a90d5adef9032c59bf5ad4c9e48c17dd67f2c38470e7",
}
DESK_SHA256 = "0daf76b1dfb511530443fdd52076a38ee7719c0403f9aa78d55cdad9ef7bd67c"


@pytest.fixture(scope="module")
def desk():
    """The desk recipe's 11x11 problem and a 3000-sample corpus of its counts
    (seed 0), made by legacy_corpus."""
    mesh, dofs, rs = _problem(11)
    samples = _legacy_set((1200, 1500, 300), FourierParams(), mesh, dofs, seed=0)
    return mesh, dofs, rs, samples


class TestTrainingBits:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_small_grid(self, arch, activation):
        # 20 samples in batches of 6 end in a short batch of 2
        mesh, dofs, rs = _problem(5)
        samples = _legacy_set((8, 8, 4), FourierParams(), mesh, dofs, seed=3)
        model = init_model(arch, mesh, dofs, activation=activation, seed=4)
        assert _trained_sha256(model, rs, dofs, samples, 3, 3, 6, 5) == SMALL_SHA256[arch, activation]

    def test_desk_recipe(self, desk):
        mesh, dofs, rs, samples = desk
        model = init_model("separated", mesh, dofs, activation="swish", seed=0)
        assert _trained_sha256(model, rs, dofs, samples, 5, 8, 60, 0) == DESK_SHA256


@pytest.mark.parametrize("block", [1, 7, 11])  # 11 divides none of the tape slots here
@pytest.mark.parametrize("hidden", [(1,), (3, 1, 2), (2, 7)], ids=str)
def test_activation_block_keeps_the_bits(monkeypatch, block, hidden):
    """The in-place activation of the tape, ACT_BLOCK values at a time, gives
    the bits of one pass over each slot, for every architecture and activation."""
    mesh, dofs, rs = _problem(5)
    x = np.random.default_rng(6).uniform(-0.5, 1.5, (4, dofs.n_free))
    models = {(arch, act): init_model(arch, mesh, dofs, hidden, act, seed=7)
              for arch in ARCHITECTURES for act in ACTIVATIONS}
    for model in models.values():
        for g in model.groups:  # relu's kink and every slot's sign pattern in play
            for b in g.biases:
                b[...] = np.random.default_rng(b.size).uniform(-0.5, 0.5, b.shape)

    def bits():
        return {key: (neural.forward_with_tape(m, x)[0].tobytes(),
                      batch_loss(rs, dofs, x, m), loss_gradient(rs, dofs, x, m).tobytes())
                for key, m in models.items()}

    default = bits()
    monkeypatch.setattr(neural, "ACT_BLOCK", block)
    assert bits() == default


def test_full_batch_gradient_memory(desk):
    """The tape of a and g per hidden layer is the only full-size buffer of the
    taped pass, and backprop's dz overwrites the spent a: one full-batch desk
    gradient peaks under 4.5 arrays of (99 nets, 3000 samples, 10) float64."""
    mesh, dofs, rs, samples = desk
    model = init_model("separated", mesh, dofs, seed=0)
    unit = 99 * 3000 * 10 * 8
    tracemalloc.start()
    try:
        loss_gradient(rs, dofs, samples.samples, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * unit, peak / unit


def _left_right_5x5(left, right):
    """The 5x5 unit-square grid, the dof map of left/right Dirichlet values and
    its implicit-Euler system at dt 0.05."""
    mesh = build_structured_grid(5, 5, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": left, "right": right}))
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    return mesh, dofs, reduce_system(sys_mats, dofs, 0.05, 1.0)


LEFT_RIGHT_5X5_CONFIG = """\
[mesh]
nx = 5
ny = 5

[dirichlet]
left = {left}
right = {right}

[samples]
fourier = 2
gaussian = 2
constant = 1
"""


@pytest.mark.parametrize("case", ["load_model", "rollout", "train-model", "train-set",
                                  "train-samples-cli"])
def test_artifact_for_another_problem_is_refused(tmp_path, capsys, case):
    """Problems A (left 1, right 0) and B (left 0, right 1) share the 5x5 grid
    and its 15 free dofs. A model or sample set made for A is refused on B by
    a FingerprintError that names the artifact and both fingerprints; `train`
    compares both with the problem it trains on, not with each other."""
    mesh, dofs_a, _ = _left_right_5x5(1.0, 0.0)
    _, dofs_b, rs_b = _left_right_5x5(0.0, 1.0)
    assert dofs_a.n_free == dofs_b.n_free == 15 and dofs_a.fingerprint != dofs_b.fingerprint
    model_a, model_b = (init_model("separated", mesh, d, hidden_spec=(4,), seed=0)
                        for d in (dofs_a, dofs_b))
    set_a = build_sample_set((2, 2, 1), FourierParams(n_terms=2), mesh, dofs_a, seed=0)
    cfg = TrainConfig(epochs=1, batch_size=5, log_every=0)
    path, sdir = tmp_path / "a.folmodel", tmp_path / "samples_a"
    save_model(model_a, path)

    def another_problem():
        {"load_model": lambda: load_model(path, dofs_b),
         "rollout": lambda: rollout(model_a, dofs_b, np.zeros(dofs_b.n_nodes), 1),
         "train-model": lambda: train(model_a, rs_b, dofs_b, set_a, cfg),  # model and set for A
         "train-set": lambda: train(model_b, rs_b, dofs_b, set_a, cfg)}[case]()

    what = {"load_model": f"model {path}", "train-set": "sample set",
            "train-samples-cli": f"sample set {sdir}"}.get(case, "model")
    refusal = (f"{what} was built for grid {dofs_a.fingerprint} (15 free dofs), "
               f"not for {dofs_b.fingerprint} (15 free dofs)")
    if case == "train-samples-cli":
        cfg_a, cfg_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        cfg_a.write_text(LEFT_RIGHT_5X5_CONFIG.format(left=1.0, right=0.0))
        cfg_b.write_text(LEFT_RIGHT_5X5_CONFIG.format(left=0.0, right=1.0))
        assert main(["gen-samples", "--config", str(cfg_a), "--out", str(sdir)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_b), "--samples", str(sdir),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert not (tmp_path / "run").exists()
    else:
        with pytest.raises(FingerprintError) as refused:
            another_problem()
        assert str(refused.value) == refusal
