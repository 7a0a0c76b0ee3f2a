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

from .errors import ValidationError
from .mesh import DofMap, Mesh
from .textio import TokenReader, decoding, read_record, write_record

CHECKPOINT_FORMAT = "folmodel"
CHECKPOINT_VERSION = 2
VERSION_BYTES = 64  # a checkpoint's first line is read within this many bytes
HEADER_BYTES = 1 << 20  # and its text header within this many
ACT_BLOCK = 1 << 11  # tape values per in-place activation pass; its buffer stays in cache

ARCHITECTURES = ("separated", "elementwise", "fully_connected")
ACTIVATIONS = ("swish", "tanh", "sigmoid", "relu")

DEFAULT_HIDDEN = {
    "separated": (10, 10),
    "elementwise": (10, 10),
    "fully_connected": (170, 170, 170, 170),
}


def _act_in_place(kind: str, z, d=None, s=None) -> None:
    """Overwrite z with activation(z) and, when d is given, write its exact
    derivative into d one operation at a time (relu's subgradient at 0 is 0);
    swish keeps expit(z) in s (a fresh buffer when None)."""
    if kind == "swish":  # d = s * (1 + z * (1 - s)), then z * s
        s = expit(z, out=s)
        if d is not None:
            np.subtract(1.0, s, out=d)
            d *= z
            d += 1.0
            d *= s
        z *= s
    elif kind == "tanh":  # t = tanh(z), then d = 1 - t * t
        np.tanh(z, out=z)
        if d is not None:
            np.multiply(z, z, out=d)
            np.subtract(1.0, d, out=d)
    elif kind == "sigmoid":  # s = expit(z), then d = s * (1 - s)
        expit(z, out=z)
        if d is not None:
            np.subtract(1.0, z, out=d)
            d *= z
    else:  # d = (z > 0), then max(z, 0)
        if d is not None:
            np.greater(z, 0.0, out=d)
        np.maximum(z, 0.0, out=z)


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
    fingerprint: str  # DofMap fingerprint of the problem it was built for
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
    preacts: list[np.ndarray]  # empty: no z is taped (kept for readers of the tape's arrays)
    acts: list[np.ndarray]  # activation a per hidden layer, (n_nets, batch, width); backprop's dz
    act_aux: list[np.ndarray]  # its derivative g = activation'(z) per hidden layer


@dataclass
class ForwardTape:
    group_tapes: list[GroupTape]
    out: np.ndarray  # (batch, n_free)


def _shaped(flat: np.ndarray, shape, batch_major: bool = False) -> np.ndarray:
    """(n_nets, batch, width) view of the front of `flat`; batch-major storage
    puts each sample's nets side by side."""
    n_nets, batch, width = shape
    front = flat[: n_nets * batch * width]
    if batch_major:
        return front.reshape(batch, n_nets, width).transpose(1, 0, 2)
    return front.reshape(shape)


class Workspace:
    """Buffers reused by taped passes: the tape, where each hidden layer's z
    becomes its a and backprop's dz overwrites the spent a; an ACT_BLOCK
    buffer; and a scratch buffer, sized by the stencil and output widths, for
    the gathered inputs and the output layer's z. The buffers grow to the
    largest batch seen and a smaller batch uses their front, so one workspace
    serves a whole training run; each taped pass overwrites the last one's tape.
    """

    def __init__(self):
        self.tape = self.scratch = np.empty(0)
        self.block = np.empty(ACT_BLOCK)
        self._pos = 0

    def reserve(self, m: ModelBundle, batch: int) -> None:
        """Make room for one taped pass of `m` over `batch` samples."""
        tape = scratch = 0
        for g in m.groups:
            stencil = 0 if g.in_slots is None else g.in_slots.shape[1]
            tape += g.n_nets * (stencil + 2 * sum(w.shape[1] for w in g.weights[:-1]))
            scratch = max(scratch, g.n_nets * max(stencil, g.weights[-1].shape[1]))
        if self.tape.size < batch * tape:
            self.tape = np.empty(batch * tape)
        if self.scratch.size < batch * scratch:
            self.scratch = np.empty(batch * scratch)
        self._pos = 0

    def take(self, shape, batch_major: bool = False) -> np.ndarray:
        """The next unused piece of the tape, shaped as _shaped does."""
        view = _shaped(self.tape[self._pos :], shape, batch_major)
        self._pos += view.size
        return view


def _as_batch(m: ModelBundle, X):
    """X as a float64 (batch, n_free) array, and whether one field was given."""
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != m.n_free:
        raise ValidationError(f"input shape {X.shape} does not match n_free={m.n_free}")
    return X, squeeze


def _group_forward(group: NetGroup, X: np.ndarray, activation: str, out: np.ndarray,
                   ws: Workspace | None = None) -> GroupTape | None:
    """One group's pass, writing its outputs into their slots of `out`.

    With a workspace the pass is taped: each hidden layer's z becomes its a
    in a tape slot, next to its derivative g, and the GroupTape is returned.
    Without one, each layer gets a fresh buffer and is activated in place,
    and only the layer being computed stays alive; None is returned.
    """
    n_nets, batch = group.n_nets, X.shape[0]
    full = group.in_slots is None
    a = x_gath = None  # a full-field group's first layer reads X itself
    if not full and ws is None:
        a = np.ascontiguousarray(X[:, group.in_slots].transpose(1, 0, 2))
    elif not full:
        stencil = group.in_slots.shape[1]
        # in_slots are checked when a model is built or loaded, so "clip" never
        # clips; unlike the default "raise", it writes `out` without a buffered copy
        gathered = np.take(X, group.in_slots, axis=1, mode="clip",
                           out=_shaped(ws.scratch, (batch, n_nets, stencil)))
        a = x_gath = ws.take((n_nets, batch, stencil))
        np.copyto(x_gath, gathered.transpose(1, 0, 2))
    acts, grads = [], []
    for l, (w, b) in enumerate(zip(group.weights, group.biases)):
        # z, a and g share a storage order, which the reverse pass's sums and
        # matmuls see: batch-major for a full-field group's first layer, so
        # one matmul over all nets fills it
        shape, batch_major = (n_nets, batch, w.shape[1]), full and l == 0
        hidden = l < group.n_layers - 1
        if ws is not None:
            z = ws.take(shape, batch_major) if hidden else _shaped(ws.scratch, shape, batch_major)
        elif batch_major:
            z = np.empty((batch, n_nets, shape[2])).transpose(1, 0, 2)
        else:
            z = np.empty(shape)
        if batch_major:
            np.matmul(X, w.reshape(n_nets * shape[2], -1).T,
                      out=z.transpose(1, 0, 2).reshape(batch, n_nets * shape[2]))
        else:
            np.matmul(a, w.transpose(0, 2, 1), out=z)
        z += b[:, None, :]
        a = z  # the spent layer is dropped before the activation
        if hidden and ws is None:
            _act_in_place(activation, z)
        elif hidden:  # z becomes a in place, a cache-sized block at a time
            grads.append(ws.take(shape, batch_major))
            z_mem, g_mem = z.ravel("K"), grads[-1].ravel("K")  # views: tape slots are contiguous
            for lo in range(0, z_mem.size, ACT_BLOCK):
                block = z_mem[lo : lo + ACT_BLOCK]
                _act_in_place(activation, block, g_mem[lo : lo + ACT_BLOCK], ws.block[: block.size])
            acts.append(z)
    out[:, group.out_slots] = z.transpose(1, 0, 2).reshape(batch, -1)
    return None if ws is None else GroupTape(X if full else None, x_gath, [], acts, grads)


def forward_batch(m: ModelBundle, X: np.ndarray) -> np.ndarray:
    """Evaluate a batch of free fields, shape (batch, n_free) -> same shape, by
    forward_with_tape's pass, keeping no tape and computing no derivative."""
    X, squeeze = _as_batch(m, X)
    out = np.empty((X.shape[0], m.n_free))
    for g in m.groups:
        _group_forward(g, X, m.activation, out)
    return out[0] if squeeze else out


def forward_with_tape(m: ModelBundle, X: np.ndarray, workspace: Workspace | None = None):
    """forward_batch plus the tape an exact reverse pass needs: per hidden
    layer the activation a and its derivative g. The tape lives in
    `workspace` (a fresh one when None), and is the only buffer of the pass
    whose size grows with the hidden widths."""
    X, squeeze = _as_batch(m, X)
    ws = Workspace() if workspace is None else workspace
    ws.reserve(m, X.shape[0])
    out = np.empty((X.shape[0], m.n_free))
    tape = ForwardTape([_group_forward(g, X, m.activation, out, ws) for g in m.groups], out)
    return (out[0] if squeeze else out), tape


def backprop(m: ModelBundle, tape: ForwardTape, d_out: np.ndarray) -> np.ndarray:
    """Exact parameter gradients given d(loss)/d(output), shape (batch, n_free).

    Returns a fresh flat vector in params_flat order; each layer's dW and db
    are written straight into their views of it. Layer by layer,
    dz = (dz @ W_l) * g overwrites the tape's a of layer l - 1, which dW_l
    was the last to read; this pass consumes the tape.
    """
    d_out = np.asarray(d_out, dtype=np.float64)
    grad = np.empty(count_params(m))
    batch = d_out.shape[0]
    for g, gt, (d_ws, d_bs) in zip(m.groups, tape.group_tapes, _flat_views(m.groups, grad)):
        # rows of d_out.T, so a net with one output needs a single gathered copy
        dz = np.ascontiguousarray(
            d_out.T[g.out_slots].reshape(g.n_nets, -1, batch).transpose(0, 2, 1)
        )
        for l in range(g.n_layers - 1, 0, -1):
            a = gt.acts[l - 1]
            np.matmul(dz.transpose(0, 2, 1), a, out=d_ws[l])
            dz.sum(axis=1, out=d_bs[l])
            if a.shape[2] == 1:  # net-major: a width-1 dz summed in batch-major storage takes other bits
                a = _shaped(a.ravel("K"), a.shape)
            dz = np.matmul(dz, g.weights[l], out=a)
            dz *= gt.act_aux[l - 1]
        dz.sum(axis=1, out=d_bs[0])
        if g.in_slots is None:  # one matmul over all nets: dW0 = dz0.T @ x, dz0 (batch, n_nets * out0)
            # a view: dz0 is one wide, or batch-major in the first layer's a (a
            # copy only for a group without hidden layers)
            n_nets, _, out0 = dz.shape
            dz0_t = dz.transpose(1, 0, 2).reshape(batch, n_nets * out0).T
            np.matmul(dz0_t, gt.x_full, out=d_ws[0].reshape(n_nets * out0, -1))
        else:
            np.matmul(dz.transpose(0, 2, 1), gt.x_gath, out=d_ws[0])
    return grad


def save_model(m: ModelBundle, path) -> None:
    """Write the versioned checkpoint: a text header of the model's fields and
    array shapes, ending in an ``end`` line, then each group's slot arrays and
    its layers' weights and biases as ``.npy`` records (exact bits), in
    params_flat order."""
    head = [f"{CHECKPOINT_FORMAT} {CHECKPOINT_VERSION}\narch {m.arch}\nactivation {m.activation}\n"
            f"n_free {m.n_free}\nfingerprint {m.fingerprint}\ndt {float(m.dt)!r}\ngroups {len(m.groups)}\n"]
    for gi, g in enumerate(m.groups):
        head.append(f"group {gi} nets {g.n_nets} layers {g.n_layers}\noutslots {g.out_slots.size}\n"
                    f"input {'full' if g.in_slots is None else g.in_slots.shape[1]}\n")
        head += [f"layer {l} out {w.shape[1]} in {w.shape[2]}\n" for l, w in enumerate(g.weights)]
    with Path(path).open("wb") as f:
        f.write(("".join(head) + "end\n").encode("ascii"))
        for g in m.groups:
            for slots in (g.out_slots, g.in_slots):
                if slots is not None:
                    write_record(f, slots, "<i8")
            for w, b in zip(g.weights, g.biases):
                write_record(f, w, "<f8")
                write_record(f, b, "<f8")


def load_model(path, dofs: DofMap | None = None) -> ModelBundle:
    """Read the checkpoint file at path; verifies the dof fingerprint when
    `dofs` is given. Each array record is checked against the shape the
    header declares before its data is read."""
    source = str(path)
    with Path(path).open("rb") as f:
        model = _read_model(f, source)
    _check_wiring(model, source)
    if dofs is not None:
        dofs.check(model.fingerprint, model.n_free, f"model {source}")
    return model


def _read_model(f, source: str) -> ModelBundle:
    """The checkpoint's fields from its text header, and each array from the
    binary file f as the header declares it. The format and version are
    checked on the first line, read within VERSION_BYTES, before more is
    read. The header runs to its ``end`` line, within HEADER_BYTES; a line
    that is not ASCII, as the records are not, ends it early."""
    head = bytearray(f.readline(VERSION_BYTES))
    # a first line of another version, or of another file, is parsed alone
    line = b"" if head.split() == [CHECKPOINT_FORMAT.encode(), b"%d" % CHECKPOINT_VERSION] else b"end"
    while line.strip() != b"end":
        line = f.readline(HEADER_BYTES + 1 - len(head))
        if not (line and line.isascii()):
            break
        head += line
        if len(head) > HEADER_BYTES:
            raise ValidationError(f"{source}: no 'end' line in the first {HEADER_BYTES} bytes")
    with decoding(source):
        r = TokenReader(head.decode("ascii"), error_cls=ValidationError, source=source)
    r.expect(CHECKPOINT_FORMAT)
    if (version := r.next_token("checkpoint version", int)) != CHECKPOINT_VERSION:
        r.fail(f"unsupported {CHECKPOINT_FORMAT} version {version}")

    def positive(word):
        if (value := r.next_keyed(word, int)) < 1:
            r.fail(f"{word} must be positive, got {value}")
        return value

    def finite(what, shape):
        a = read_record(f, source, what, "<f8", shape)
        if not np.isfinite((a.min(), a.max())).all():  # both NaN if any is: no mask the array's size
            raise ValidationError(f"{source}: {what} hold a non-finite value")
        return a

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
        out_slots = read_record(f, source, f"group {gi} output slots", "<i8", (positive("outslots"),))
        in_slots = None
        if (spec := r.next_keyed("input")) != "full":
            stencil = int(spec) if spec.isdecimal() else 0
            if stencil < 1:
                r.fail(f"expected 'full' or a positive stencil size, got {spec!r}")
            in_slots = read_record(f, source, f"group {gi} input slots", "<i8", (n_nets, stencil))
        weights, biases = [], []
        for l in range(n_layers):
            if r.next_keyed("layer", int) != l:
                r.fail("layer indices must be contiguous")
            d_out, d_in = positive("out"), positive("in")
            weights.append(finite(f"group {gi} layer {l} weights", (n_nets, d_out, d_in)))
            biases.append(finite(f"group {gi} layer {l} biases", (n_nets, d_out)))
        groups.append(NetGroup(out_slots, in_slots, weights, biases))
    r.expect("end")
    return ModelBundle(arch, activation, n_free, groups, fingerprint, dt)


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

