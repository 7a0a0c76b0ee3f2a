"""Outside-in tracing of the folheat layers.

Spans are recorded by swapping module and class attributes for timing
wrappers, in the namespace where the caller looks the name up, so the
package itself is never edited. A span is (name, start, end, parent); a
layer's self time is its span's duration minus the time of its child spans
and of the tracer's own bookkeeping done on their behalf. Counters that
would be too hot for spans (per-element FEM kernels) only count calls.

`Tracer.installed()` puts the wrappers in place and restores every original
attribute on exit; `Tracer.restored()` confirms that it did.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from folheat import cli, config, evaluation, fe_solver, fem, mesh, neural, sampling, training


class CountingCSR(sp.csr_array):
    """CSR matrix that counts `A @ x`; PCG does exactly one per iteration."""

    def __matmul__(self, other):
        self.matmuls = getattr(self, "matmuls", 0) + 1
        return super().__matmul__(other)


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, bookkeeping s]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original)
        self.flops = defaultdict(float)  # arch -> forward flops, computed
        self.flop_time = defaultdict(float)  # arch -> forward_with_tape busy s
        self.rel_residual_max = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """Span wrapper; `name` may be a callable of the call's args.

        `after(args, kwargs, result, seconds)` runs outside the span and its
        cost is charged to the parent as bookkeeping, not as self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            span = [label, 0.0, 0.0, parent, 0.0]
            self.spans.append(span)
            self._open.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                span[1], span[2] = start, end
            if after is not None:
                after(args, kwargs, result, end - start)
                if parent >= 0:
                    self.spans[parent][4] += perf_counter() - end
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, wrapper)

    # -- per-call extras ---------------------------------------------------

    def _after_reduce(self, args, kwargs, rs, seconds):
        # hand every later solve an A_ff that counts its matvecs
        object.__setattr__(rs, "A_ff", CountingCSR(rs.A_ff))

    def _wrap_solve(self, fn):
        timed = self._wrap("fe_solver.linear_solve_spd", fn, after=self._after_solve)

        @functools.wraps(fn)
        def wrapper(A, b, *args, **kwargs):
            before = getattr(A, "matmuls", 0)
            x = timed(A, b, *args, **kwargs)
            if isinstance(A, CountingCSR):
                self.counts["pcg_iters"] += A.matmuls - before
                self.counts["pcg_solves"] += 1
            return x

        return wrapper

    def _after_solve(self, args, kwargs, x, seconds):
        A, b = args[0], np.asarray(args[1])
        norm_b = np.linalg.norm(b)
        if norm_b > 0:
            matvec = sp.csr_array.__matmul__(A, x) if isinstance(A, CountingCSR) else A @ x
            rel = float(np.linalg.norm(matvec - b) / norm_b)
            self.rel_residual_max = max(self.rel_residual_max, rel)

    def _after_save_trajectory(self, args, kwargs, result, seconds):
        out, _, traj = args
        self.counts["save_trajectory_bytes"] += sum(
            (Path(out) / fe_solver.step_filename(i)).stat().st_size for i in range(len(traj.fields))
        )

    def _after_load_model(self, args, kwargs, model, seconds):
        src = args[0]
        if not (isinstance(src, str) and src.lstrip().startswith(neural.CHECKPOINT_FORMAT)):
            self.counts["load_model_bytes"] += os.path.getsize(src)

    def _after_forward(self, args, kwargs, result, seconds):
        m, X = args[0], np.asarray(args[1])
        batch = 1 if X.ndim == 1 else X.shape[0]
        self.flops[m.arch] += 2.0 * batch * sum(w.size for g in m.groups for w in g.weights)
        self.flop_time[m.arch] += seconds

    def _wrap_lbfgs(self, fn):
        @functools.wraps(fn)
        def step(params, grad_fn, *args, **kwargs):
            def counted(p):
                self.counts["lbfgs_evals"] += 1
                return grad_fn(p)

            self.counts["lbfgs_steps"] += 1
            return fn(params, counted, *args, **kwargs)

        return self._wrap("training.lbfgs_step", step)

    # -- install / restore -------------------------------------------------

    def _targets(self):
        w = self._wrap
        load_mesh = w("mesh.load_mesh", mesh.load_mesh)
        return [
            (mesh, "load_mesh", load_mesh),
            (config, "load_mesh", load_mesh),  # config imports it by name
            (mesh, "validate_mesh", w("mesh.validate_mesh", mesh.validate_mesh)),
            (mesh.DofMap, "merge", w("mesh.DofMap.merge", mesh.DofMap.merge)),
            (config, "load_run_config", w("config.load_run_config", config.load_run_config)),
            (fem, "assemble", w("fem.assemble", fem.assemble)),
            (fem, "reduce_system",
             w("fem.reduce_system", fem.reduce_system, after=self._after_reduce)),
            (fem, "element_mass", self._counter("fem.element_mass", fem.element_mass)),
            (fem, "element_stiffness",
             self._counter("fem.element_stiffness", fem.element_stiffness)),
            (fem, "b_matrix", self._counter("fem.b_matrix", fem.b_matrix)),
            (evaluation, "b_matrix", self._counter("fem.b_matrix", evaluation.b_matrix)),
            (fe_solver, "linear_solve_spd", self._wrap_solve(fe_solver.linear_solve_spd)),
            (fe_solver, "save_trajectory",
             w("fe_solver.save_trajectory", fe_solver.save_trajectory,
               after=self._after_save_trajectory)),
            (fe_solver, "load_field", w("fe_solver.load_field", fe_solver.load_field)),
            (sampling, "build_sample_set",
             w("sampling.build_sample_set", sampling.build_sample_set)),
            (sampling, "gen_fourier", self._counter("sampling.gen_fourier", sampling.gen_fourier)),
            (neural, "forward_with_tape",
             w("neural.forward_with_tape", neural.forward_with_tape, after=self._after_forward)),
            (neural, "backprop", w("neural.backprop", neural.backprop)),
            (neural, "forward_batch",
             w(lambda a: f"neural.forward_batch.{a[0].arch}", neural.forward_batch)),
            (neural, "load_model",
             w("neural.load_model", neural.load_model, after=self._after_load_model)),
            (neural.ModelBundle, "set_params_flat",
             w("neural.set_params_flat", neural.ModelBundle.set_params_flat)),
            (training, "train", w("training.train", training.train)),
            (training, "lbfgs_step", self._wrap_lbfgs(training.lbfgs_step)),
            (evaluation, "rollout", w("evaluation.rollout", evaluation.rollout)),
            (evaluation, "heat_flux", w("evaluation.heat_flux", evaluation.heat_flux)),
            (evaluation, "cross_section", w("evaluation.cross_section", evaluation.cross_section)),
            (evaluation, "upsample_field",
             w("evaluation.upsample_field", evaluation.upsample_field)),
            (evaluation, "canonical_test_fields",
             w("evaluation.canonical_test_fields", evaluation.canonical_test_fields)),
            (cli._COMMANDS, "solve-fem", w("cli.solve-fem", cli._COMMANDS["solve-fem"])),
            (cli._COMMANDS, "postprocess", w("cli.postprocess", cli._COMMANDS["postprocess"])),
        ]

    @contextmanager
    def installed(self):
        for owner, attr, wrapper in self._targets():
            self._patch(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                _set(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute the tracer wrapped holds its original again."""
        return all(_get(owner, attr) is original for owner, attr, original in self._patches)

    # -- aggregation -------------------------------------------------------

    def layer_totals(self):
        """name -> (calls, busy seconds, self seconds) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, bookkeeping) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i] - bookkeeping
        return totals
