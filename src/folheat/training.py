"""Physics-based loss on the implicit-Euler FE residual, analytic gradients,
Adam and L-BFGS, and the mini-batch training loop.

The residual of one sample is r = A_ff t_hat - M_ff t_n - rhs_const, a purely
algebraic function of the network output, so the loss gradient with respect
to t_hat is (2/n_s) A_ff^T r and the rest is an exact reverse pass through
the taped forward evaluation - no numerical differentiation anywhere.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .errors import NumericalError, ValidationError
from .fem import ReducedSystem
from .mesh import DofMap
from .neural import ModelBundle
from .sampling import SampleSet

LOSS_ALPHA = 1.0  # the residual loss is the backward-Euler one


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    log_every: int = 0  # epochs between progress lines; 0 = silent

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        if self.optimizer not in ("adam", "lbfgs"):
            raise ValidationError(f"optimizer must be 'adam' or 'lbfgs', got {self.optimizer!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.log_every < 0:
            raise ValidationError(f"log_every must be >= 0, got {self.log_every}")


def _require_loss_system(rs: ReducedSystem):
    if rs.alpha != LOSS_ALPHA:
        raise ValidationError(
            f"the residual loss is defined for alpha={LOSS_ALPHA}, got alpha={rs.alpha}"
        )


def _residual_matrix(rs: ReducedSystem, t_n: np.ndarray, t_hat: np.ndarray) -> np.ndarray:
    """Residuals column-wise: A_ff t_hat - M_ff t_n - rhs_const, shape (n_free, batch)."""
    # for alpha = 1, B_ff is exactly M_ff
    return rs.A_ff @ t_hat.T - rs.B_ff @ t_n.T - rs.rhs_const[:, None]


def residual_loss(rs: ReducedSystem, dofs: DofMap, t_n: np.ndarray, t_hat: np.ndarray) -> float:
    """L2 norm of one sample's implicit-Euler residual."""
    _require_loss_system(rs)
    t_n = np.asarray(t_n, dtype=np.float64)
    t_hat = np.asarray(t_hat, dtype=np.float64)
    if t_n.shape != (dofs.n_free,) or t_hat.shape != (dofs.n_free,):
        raise ValidationError(
            f"fields must have {dofs.n_free} free entries, got {t_n.shape} and {t_hat.shape}"
        )
    r = _residual_matrix(rs, t_n[None, :], t_hat[None, :])
    return float(np.linalg.norm(r))


def _loss_and_grad(rs: ReducedSystem, dofs: DofMap, batch: np.ndarray, model: ModelBundle,
                   want_grad: bool, workspace: neural.Workspace | None = None):
    _require_loss_system(rs)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != dofs.n_free:
        raise ValidationError(
            f"batch must be (n, {dofs.n_free}), got {batch.shape}"
        )
    if batch.shape[0] == 0:
        raise ValidationError("batch must be non-empty")
    n_s = batch.shape[0]
    if want_grad:
        t_hat, tape = neural.forward_with_tape(model, batch, workspace)
    else:
        t_hat = neural.forward_batch(model, batch)  # the same bits, without a tape
    r = _residual_matrix(rs, batch, t_hat)  # (n_free, n_s)
    loss = float(np.sum(r * r)) / n_s
    if not want_grad:
        return loss, None
    # d(loss)/d(t_hat) = (2/n_s) A_ff^T r; A_ff is symmetric, so no transpose.
    # Rebinding r frees the residual before the reverse pass.
    r = rs.A_ff @ r
    r *= 2.0 / n_s
    return loss, neural.backprop(model, tape, r.T)


def batch_loss(rs: ReducedSystem, dofs: DofMap, batch: np.ndarray, model: ModelBundle) -> float:
    """Mean over the batch of squared residual norms."""
    return _loss_and_grad(rs, dofs, batch, model, want_grad=False)[0]


def loss_gradient(rs: ReducedSystem, dofs: DofMap, batch: np.ndarray, model: ModelBundle) -> np.ndarray:
    """Exact gradient of batch_loss with respect to every weight and bias, in
    params_flat order."""
    return _loss_and_grad(rs, dofs, batch, model, want_grad=True)[1]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def _adam_inplace(params, grads, state: AdamState, lr, beta1, beta2, eps, scratch):
    """Core Adam update mutating params/state; `grads` and `scratch` are clobbered."""
    state.t += 1
    np.multiply(grads, grads, out=scratch)
    state.v *= beta2
    scratch *= 1.0 - beta2
    state.v += scratch
    state.m *= beta1
    grads *= 1.0 - beta1
    state.m += grads
    # params -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    np.divide(state.v, 1.0 - beta2**state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    np.divide(state.m, scratch, out=scratch)
    scratch *= lr / (1.0 - beta1**state.t)
    params -= scratch


@dataclass
class LbfgsState:
    s_pairs: list = field(default_factory=list)  # parameter steps
    y_pairs: list = field(default_factory=list)  # gradient differences
    last_loss: float = np.nan
    line_search_failed: bool = False
    point: np.ndarray | None = None  # the array the step returned
    grad: np.ndarray | None = None  # gradient at `point`; its loss is last_loss


ARMIJO_C = 1e-4
LINE_SEARCH_TRIALS = 20
LBFGS_HISTORY = 10  # curvature pairs an L-BFGS step keeps


def lbfgs_step(params: np.ndarray, grad_fn, state: LbfgsState):
    """One L-BFGS step: two-loop recursion plus backtracking Armijo search.

    grad_fn(params) must return (loss, gradient). Pairs with non-positive
    curvature s.y are discarded. On line-search failure the parameters are
    returned unchanged and state.line_search_failed is set.

    When `params` is the array the previous step returned (and has not been
    modified in place since), its loss and gradient are taken from `state`
    instead of calling grad_fn again, so each point is evaluated once.
    """
    params = np.asarray(params, dtype=np.float64)
    if params is state.point:
        loss, grad = state.last_loss, state.grad
    else:
        loss, grad = grad_fn(params)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss} in L-BFGS step")

    # two-loop recursion for the quasi-Newton direction
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(state.s_pairs), reversed(state.y_pairs)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if state.s_pairs:
        s_last, y_last = state.s_pairs[-1], state.y_pairs[-1]
        q *= float(s_last @ y_last) / float(y_last @ y_last)
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    direction = -q

    slope = float(grad @ direction)
    if slope >= 0:  # not a descent direction; fall back to steepest descent
        direction = -grad
        slope = -float(grad @ grad)

    step = 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        trial = params + step * direction
        trial_loss, trial_grad = grad_fn(trial)
        if np.isfinite(trial_loss) and trial_loss <= loss + ARMIJO_C * step * slope:
            s_new = trial - params
            y_new = trial_grad - grad
            new_state = LbfgsState(list(state.s_pairs), list(state.y_pairs), trial_loss, False,
                                   trial, trial_grad)
            if float(s_new @ y_new) > 0:  # curvature guard
                new_state.s_pairs.append(s_new)
                new_state.y_pairs.append(y_new)
                if len(new_state.s_pairs) > LBFGS_HISTORY:
                    new_state.s_pairs.pop(0)
                    new_state.y_pairs.pop(0)
            return trial, new_state
        step *= 0.5
    failed = LbfgsState(list(state.s_pairs), list(state.y_pairs), loss, True, params, grad)
    return params, failed


def train(
    model: ModelBundle,
    rs: ReducedSystem,
    dofs: DofMap,
    samples: SampleSet,
    cfg: TrainConfig,
):
    """Optimize the model on the sample set; returns (model, per-epoch losses).

    Adam shuffles and runs one step per mini-batch (short final batch kept);
    L-BFGS runs one full-batch step per epoch, and stops at a failed line
    search, whose point and loss fill the rest of the record. Both are
    deterministic under cfg.seed. A non-finite loss aborts with a
    NumericalError. A model or sample set made for another problem (another
    fingerprint than dofs) is a FingerprintError.
    """
    dofs.check(model.fingerprint, model.n_free, "model")
    dofs.check(samples.fingerprint, samples.samples.shape[1], "sample set")
    model.dt = rs.dt  # the trained operator is specific to this step size
    data = samples.samples
    n_samples = data.shape[0]
    if n_samples == 0:
        raise ValidationError("sample set is empty")

    record = np.zeros(cfg.epochs)
    t_start = time.perf_counter()

    # parameters live in one flat buffer; the model's arrays are views
    neural_params = model.rebind_params_flat()
    workspace = neural.Workspace()  # one tape and scratch for every batch and evaluation
    if cfg.optimizer == "adam":
        state = AdamState.zeros(neural_params.size)
        scratch = np.empty_like(neural_params)
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch)))
            order = rng.permutation(n_samples)
            losses = []
            for lo in range(0, n_samples, cfg.batch_size):
                batch = data[order[lo : lo + cfg.batch_size]]
                loss, grads = _loss_and_grad(rs, dofs, batch, model, True, workspace)
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"loss diverged at epoch {epoch} (value {loss}); try a smaller lr"
                    )
                _adam_inplace(neural_params, grads, state, cfg.lr, 0.9, 0.999, 1e-8, scratch)
                losses.append(loss)
            record[epoch] = float(np.mean(losses))
            _maybe_log(cfg, epoch, record[epoch], t_start)
    else:  # lbfgs, full batch
        # the L-BFGS point is its own array: trials are written into the model's
        # buffer, which must not alias the point they step from
        point = neural_params.copy()
        state = LbfgsState()

        def f_and_g(p):
            np.copyto(neural_params, p)
            return _loss_and_grad(rs, dofs, data, model, True, workspace)

        for epoch in range(cfg.epochs):
            point, state = lbfgs_step(point, f_and_g, state)
            # a failed line search leaves the buffer at its last rejected trial
            np.copyto(neural_params, point)
            if not np.isfinite(state.last_loss):
                raise NumericalError(f"loss diverged at epoch {epoch}")
            record[epoch] = state.last_loss
            _maybe_log(cfg, epoch, record[epoch], t_start)
            if state.line_search_failed:  # every later epoch would repeat it, bit for bit
                record[epoch:] = state.last_loss
                print(f"L-BFGS line search failed at epoch {epoch + 1}/{cfg.epochs}; "
                      f"training stops at loss {state.last_loss:.6e}", file=sys.stderr)
                break

    return model, record


def _maybe_log(cfg: TrainConfig, epoch: int, loss: float, t_start: float) -> None:
    if cfg.log_every and (epoch % cfg.log_every == 0 or epoch == cfg.epochs - 1):
        wall = time.perf_counter() - t_start
        print(f"epoch {epoch + 1}/{cfg.epochs}  mean_loss {loss:.6e}  wall {wall:.1f}s", flush=True)
