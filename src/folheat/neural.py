"""MLP time-steppers over the free-node field, with taped forward passes for
exact analytic backpropagation.

Three wirings are supported:

* ``separated``       -- one small net per output node, each reading the full
                         free field (the main-study layout);
* ``elementwise``     -- one small net per output node, reading only the free
                         nodes of elements that contain the output node;
* ``fully_connected`` -- a single wide net mapping the whole field at once.

Internally nets with identical layer shapes are stacked into "groups" whose
parameters are 3-d arrays (net, out, in), so every architecture runs through
the same batched matmul code path. The output layer is always linear; values
outside [0, 1] are allowed and diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import FingerprintError, ValidationError
from .mesh import DofMap, Mesh
from .textio import TokenReader, write_block

CHECKPOINT_FORMAT = "folmodel"
CHECKPOINT_VERSION = 1

ARCHITECTURES = ("separated", "elementwise", "fully_connected")
ACTIVATIONS = ("swish", "tanh", "sigmoid", "relu")

DEFAULT_HIDDEN = {
    "separated": (10, 10),
    "elementwise": (10, 10),
    "fully_connected": (170, 170, 170, 170),
}


def _act_forward(kind: str, z):
    """(activation(z), cached transcendental) so the reverse pass can skip
    recomputing expit/tanh; the cache is expit(z) for swish/sigmoid, tanh(z)
    for tanh, None for relu."""
    if kind == "swish":
        s = expit(z)
        return z * s, s
    if kind == "tanh":
        t = np.tanh(z)
        return t, t
    if kind == "sigmoid":
        s = expit(z)
        return s, s
    return np.maximum(z, 0.0), None


def _act_grad_cached(kind: str, z, aux):
    """Exact derivative of the activation at z from the forward cache `aux`
    (relu uses subgradient 0 at 0)."""
    if kind == "swish":
        return aux * (1.0 + z * (1.0 - aux))
    if kind == "tanh":
        return 1.0 - aux * aux
    if kind == "sigmoid":
        return aux * (1.0 - aux)
    return np.where(z > 0, 1.0, 0.0)


@dataclass
class NetGroup:
    """Nets with identical layer shapes, parameters stacked along axis 0.

    out_slots maps the flattened group output (net-major) to free slots;
    in_slots is (n_nets, stencil) of input free slots, or None when every
    net reads the full field.
    """

    out_slots: np.ndarray
    in_slots: np.ndarray | None
    weights: list[np.ndarray]  # per layer (n_nets, out, in)
    biases: list[np.ndarray]  # per layer (n_nets, out)

    @property
    def n_nets(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class ModelBundle:
    """A trained (or trainable) time-stepper and the dof layout it belongs to."""

    arch: str
    activation: str
    n_free: int
    groups: list[NetGroup]
    grid_meta: str  # DofMap fingerprint of the training mesh
    dt: float

    def params_flat(self) -> np.ndarray:
        """All parameters as one vector (group, layer, weights-then-bias order)."""
        chunks = []
        for g in self.groups:
            for w, b in zip(g.weights, g.biases):
                chunks.append(w.ravel())
                chunks.append(b.ravel())
        return np.concatenate(chunks)

    def set_params_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        n = count_params(self)
        if vec.shape != (n,):
            raise ValidationError(f"parameter vector has shape {vec.shape}, model needs ({n},)")
        for g, (ws, bs) in zip(self.groups, _flat_views(self.groups, vec)):
            for w, b, vw, vb in zip(g.weights, g.biases, ws, bs):
                np.copyto(w, vw)
                np.copyto(b, vb)

    def rebind_params_flat(self) -> np.ndarray:
        """Re-home all parameters as views into one flat buffer and return it.

        Optimizers can then update the buffer in place and the model follows,
        skipping a copy per step.
        """
        flat = self.params_flat()
        for g, (ws, bs) in zip(self.groups, _flat_views(self.groups, flat)):
            g.weights[:] = ws
            g.biases[:] = bs
        return flat


def _flat_views(groups: list[NetGroup], flat: np.ndarray):
    """Per group, (weight views, bias views) of `flat` in params_flat order."""
    views, pos = [], 0
    for g in groups:
        ws, bs = [], []
        for w, b in zip(g.weights, g.biases):
            ws.append(flat[pos : pos + w.size].reshape(w.shape))
            pos += w.size
            bs.append(flat[pos : pos + b.size].reshape(b.shape))
            pos += b.size
        views.append((ws, bs))
    return views


def count_params(m: ModelBundle) -> int:
    """Total trainable scalars: sum over layers of out*in + out."""
    return sum(w.size + b.size for g in m.groups for w, b in zip(g.weights, g.biases))


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_out, fan_in = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _stacked_group(rng, out_slots, in_slots, n_nets, in_dim, hidden, out_dim) -> NetGroup:
    dims = [in_dim, *hidden, out_dim]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(_glorot(rng, (n_nets, d_out, d_in)))
        biases.append(np.zeros((n_nets, d_out)))
    return NetGroup(np.asarray(out_slots, dtype=np.int64), in_slots, weights, biases)


def _elementwise_stencils(mesh: Mesh, dofs: DofMap) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The free slots of all nodes sharing an element with each free node, by
    stencil size ascending: size -> (slots, (len(slots), size) stencils)."""
    n = dofs.n_free
    slots = dofs.node_to_slot[mesh.elems]  # (E, 4); the 16 node pairs of each element follow
    rows, cols = np.repeat(slots, 4, axis=1).ravel(), np.tile(slots, 4).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = np.divmod(np.unique(rows[keep] * n + cols[keep]), n)  # sorted by row, then column
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    by_size = {}
    for size in np.unique(counts).tolist():
        members = np.flatnonzero(counts == size)
        by_size[size] = members, cols[starts[members, None] + np.arange(size)]
    return by_size


def init_model(
    arch: str,
    mesh: Mesh,
    dofs: DofMap,
    hidden_spec=None,
    activation: str = "swish",
    seed: int = 0,
    dt: float = 0.05,
) -> ModelBundle:
    """Build a fresh model with Glorot-uniform weights and zero biases.

    hidden_spec defaults to (10, 10) for the per-node architectures and
    (170, 170, 170, 170) for fully_connected.
    """
    if arch not in ARCHITECTURES:
        raise ValidationError(f"unknown architecture {arch!r}, expected one of {ARCHITECTURES}")
    if activation not in ACTIVATIONS:
        raise ValidationError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
    hidden = tuple(int(h) for h in (hidden_spec or DEFAULT_HIDDEN[arch]))
    if not hidden or min(hidden) < 1:
        raise ValidationError(f"hidden_spec must list positive widths, got {hidden}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    n_free = dofs.n_free
    if n_free < 1:
        raise ValidationError("model needs at least one free dof")
    rng = np.random.default_rng(seed)

    groups: list[NetGroup] = []
    if arch == "fully_connected":
        groups.append(
            _stacked_group(rng, np.arange(n_free), None, 1, n_free, hidden, n_free)
        )
    elif arch == "separated":
        groups.append(_stacked_group(rng, np.arange(n_free), None, n_free, n_free, hidden, 1))
    else:  # elementwise
        for size, (slots, in_slots) in _elementwise_stencils(mesh, dofs).items():
            groups.append(_stacked_group(rng, slots, in_slots, slots.size, size, hidden, 1))

    return ModelBundle(arch, activation, n_free, groups, dofs.fingerprint, float(dt))


@dataclass
class GroupTape:
    x_full: np.ndarray | None  # (batch, n_free) view when the group reads the full field
    x_gath: np.ndarray | None  # (n_nets, batch, stencil) gathered inputs otherwise
    preacts: list[np.ndarray]  # z per layer, (n_nets, batch, out); last is the output
    acts: list[np.ndarray]  # activation(z) for hidden layers
    act_aux: list  # cached transcendentals for the reverse pass


@dataclass
class ForwardTape:
    group_tapes: list[GroupTape]
    out: np.ndarray  # (batch, n_free)


def _group_forward(group: NetGroup, X: np.ndarray, activation: str) -> GroupTape:
    n_nets, out0, in0 = group.weights[0].shape
    if group.in_slots is None:
        x_gath = None
        z = (X @ group.weights[0].reshape(n_nets * out0, in0).T).reshape(
            X.shape[0], n_nets, out0
        ).transpose(1, 0, 2)
    else:
        x_gath = np.ascontiguousarray(X[:, group.in_slots].transpose(1, 0, 2))
        z = x_gath @ group.weights[0].transpose(0, 2, 1)
    z = z + group.biases[0][:, None, :]
    preacts = [z]
    acts = []
    act_aux = []
    for l in range(1, group.n_layers):
        a, aux = _act_forward(activation, z)
        acts.append(a)
        act_aux.append(aux)
        z = a @ group.weights[l].transpose(0, 2, 1) + group.biases[l][:, None, :]
        preacts.append(z)
    return GroupTape(X if group.in_slots is None else None, x_gath, preacts, acts, act_aux)


def forward_batch(m: ModelBundle, X: np.ndarray) -> np.ndarray:
    """Evaluate a batch of free fields, shape (batch, n_free) -> same shape."""
    return forward_with_tape(m, X)[0]


def forward_with_tape(m: ModelBundle, X: np.ndarray):
    """forward_batch plus the intermediates needed for an exact reverse pass."""
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != m.n_free:
        raise ValidationError(f"input shape {X.shape} does not match n_free={m.n_free}")
    out = np.empty((X.shape[0], m.n_free))
    tapes = []
    for g in m.groups:
        gt = _group_forward(g, X, m.activation)
        z = gt.preacts[-1]  # (n_nets, batch, out_dim)
        out[:, g.out_slots] = z.transpose(1, 0, 2).reshape(X.shape[0], -1)
        tapes.append(gt)
    if squeeze:
        return out[0], ForwardTape(tapes, out)
    return out, ForwardTape(tapes, out)


def backprop(m: ModelBundle, tape: ForwardTape, d_out: np.ndarray) -> np.ndarray:
    """Exact parameter gradients given d(loss)/d(output), shape (batch, n_free).

    Returns a fresh flat vector in params_flat order; each layer's dW and db
    are written straight into their views of it.
    """
    d_out = np.asarray(d_out, dtype=np.float64)
    grad = np.empty(count_params(m))
    batch = d_out.shape[0]
    for g, gt, (d_ws, d_bs) in zip(m.groups, tape.group_tapes, _flat_views(m.groups, grad)):
        dz = np.ascontiguousarray(
            d_out[:, g.out_slots].reshape(batch, g.n_nets, -1).transpose(1, 0, 2)
        )
        for l in range(g.n_layers - 1, 0, -1):
            np.matmul(dz.transpose(0, 2, 1), gt.acts[l - 1], out=d_ws[l])
            dz.sum(axis=1, out=d_bs[l])
            da = dz @ g.weights[l]
            dz = da * _act_grad_cached(m.activation, gt.preacts[l - 1], gt.act_aux[l - 1])
        dz.sum(axis=1, out=d_bs[0])
        if g.in_slots is None:
            n_nets, _, out0 = dz.shape
            dz0 = dz.transpose(1, 0, 2).reshape(batch, n_nets * out0)
            np.matmul(dz0.T, gt.x_full, out=d_ws[0].reshape(n_nets * out0, -1))
        else:
            np.matmul(dz.transpose(0, 2, 1), gt.x_gath, out=d_ws[0])
    return grad


def save_model(m: ModelBundle, path) -> None:
    """Write the versioned text checkpoint (exact decimal round trip)."""
    with Path(path).open("w") as f:
        f.write(f"{CHECKPOINT_FORMAT} {CHECKPOINT_VERSION}\narch {m.arch}\nactivation {m.activation}\n"
                f"n_free {m.n_free}\nfingerprint {m.grid_meta}\ndt {float(m.dt)!r}\n"
                f"groups {len(m.groups)}\n")
        for gi, g in enumerate(m.groups):
            f.write(f"group {gi} nets {g.n_nets} layers {g.n_layers}\noutslots {g.out_slots.size}\n")
            write_block(f, 16, g.out_slots)
            if g.in_slots is None:
                f.write("input full\n")
            else:
                f.write(f"input {g.in_slots.shape[1]}\n")
                write_block(f, 16, g.in_slots.ravel())
            for l, (w, b) in enumerate(zip(g.weights, g.biases)):
                f.write(f"layer {l} out {w.shape[1]} in {w.shape[2]}\nweights\n")
                write_block(f, 6, w.ravel())
                f.write("biases\n")
                write_block(f, 6, b.ravel())
        f.write("end\n")


def load_model(path_or_text, dofs: DofMap | None = None) -> ModelBundle:
    """Read a checkpoint; verifies the dof fingerprint when `dofs` is given."""
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith(CHECKPOINT_FORMAT):
        text, source = path_or_text, "checkpoint"
    else:
        text, source = Path(path_or_text).read_text(), str(path_or_text)
    r = TokenReader(text, error_cls=ValidationError, source=source)

    def positive(word):
        if (value := r.next_keyed(word, int)) < 1:
            r.fail(f"{word} must be positive, got {value}")
        return value

    r.expect(CHECKPOINT_FORMAT)
    if (version := r.next_token("checkpoint version", int)) != CHECKPOINT_VERSION:
        r.fail(f"unsupported {CHECKPOINT_FORMAT} version {version}")
    if (arch := r.next_keyed("arch")) not in ARCHITECTURES:
        r.fail(f"unknown architecture {arch!r}")
    if (activation := r.next_keyed("activation")) not in ACTIVATIONS:
        r.fail(f"unknown activation {activation!r}")
    n_free, fingerprint, dt = positive("n_free"), r.next_keyed("fingerprint"), r.next_keyed("dt", float)
    if dt <= 0:
        r.fail(f"dt must be positive, got {dt}")
    groups = []
    for gi in range(positive("groups")):
        if r.next_keyed("group", int) != gi:
            r.fail("group indices must be contiguous")
        n_nets, n_layers = positive("nets"), positive("layers")
        (out_slots,) = r.next_block(r.next_keyed("outslots", int), ("output slot", int))
        in_slots = None
        if (spec := r.next_keyed("input")) != "full":
            stencil = int(spec) if spec.isdecimal() else 0
            if stencil < 1:
                r.fail(f"expected 'full' or a positive stencil size, got {spec!r}")
            in_slots = r.next_block(n_nets * stencil, ("input slot", int))[0].reshape(n_nets, stencil)
        weights, biases = [], []
        for l in range(n_layers):
            if r.next_keyed("layer", int) != l:
                r.fail("layer indices must be contiguous")
            d_out, d_in = positive("out"), positive("in")
            r.expect("weights")
            (w,) = r.next_block(n_nets * d_out * d_in, ("weight", float))
            r.expect("biases")
            (b,) = r.next_block(n_nets * d_out, ("bias", float))
            weights.append(w.reshape(n_nets, d_out, d_in))
            biases.append(b.reshape(n_nets, d_out))
        groups.append(NetGroup(out_slots, in_slots, weights, biases))
    r.expect("end")

    model = ModelBundle(arch, activation, n_free, groups, fingerprint, dt)
    _check_wiring(model, source)
    if dofs is not None:
        check_fingerprint(model, dofs)
    return model


def _check_wiring(m: ModelBundle, source: str) -> None:
    """Refuse groups that do not map the free field onto every free slot once."""
    slots = np.concatenate([g.out_slots for g in m.groups])
    if slots.size != m.n_free or not np.array_equal(np.sort(slots), np.arange(m.n_free)):
        raise ValidationError(f"{source}: output slots of all groups must be a "
                              f"permutation of 0..{m.n_free - 1}")
    for gi, g in enumerate(m.groups):
        width = m.n_free if g.in_slots is None else g.in_slots.shape[1]
        if g.in_slots is not None and (g.in_slots.min() < 0 or g.in_slots.max() >= m.n_free):
            raise ValidationError(f"{source}: group {gi} input slots must lie in [0, {m.n_free})")
        for l, w in enumerate(g.weights):
            if w.shape[2] != width:
                raise ValidationError(
                    f"{source}: group {gi} layer {l} reads {w.shape[2]} inputs, expected {width}")
            width = w.shape[1]
        if g.n_nets * width != g.out_slots.size:
            raise ValidationError(f"{source}: group {gi} has {g.n_nets} nets of {width} outputs "
                                  f"for {g.out_slots.size} output slots")


def check_fingerprint(m: ModelBundle, dofs: DofMap) -> None:
    if m.grid_meta != dofs.fingerprint or m.n_free != dofs.n_free:
        raise FingerprintError(
            f"model was built for grid {m.grid_meta} ({m.n_free} free dofs), "
            f"got {dofs.fingerprint} ({dofs.n_free} free dofs)"
        )
