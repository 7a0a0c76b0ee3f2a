"""Mutation fuzzing of the three text parsers: folmesh, folmodel and the INI
run config. Each mutant of a valid text deletes, replaces or duplicates a
token, or truncates the text; it must either parse or raise ValidationError,
and what parses must be usable."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folheat import textio
from folheat.config import load_run_config
from folheat.errors import ValidationError
from folheat.mesh import build_structured_grid, load_mesh, serialize_mesh
from folheat.neural import forward_batch, init_model, load_model, save_model

FUZZ = settings(database=None, derandomize=True, max_examples=300, deadline=None)

# replacement tokens beyond those of the text itself, drawn half the time
NUMBERS = ["0", "-1", "2", "7", "0.5", "-0", "nan", "inf", "-inf", "1e999", str(2**64), "x", "#"]
INI = ["%", "%(x)s", "=", ":", ";", ",", "[mesh]", "[DEFAULT]", "Left", "file"]

CONFIG = """\
[mesh]
source = structured
nx = 3
ny = 4
width = 1.0
height = 2.0

[dirichlet]
left = 1.0
right = 0.0

[conductivity]
kind = inclusions   ; homogeneous | inclusions | file
circles = 0.3,0.65,0.17; 0.7,0.3,0.15
inclusion = 0.1

[material]
rho = 10.0

[samples]
fourier = 6
n_terms = 4
offset_ranges = 0:0.5, 0.5:1

[train]
arch = separated
hidden = 10 10
dt = 0.05
lr = 0.001

[run]
seed = 9
"""


@st.composite
def mutants(draw, text, specials=NUMBERS):
    pieces = re.split(r"(\s+)", text)  # tokens at even indices, whitespace between
    vocabulary = st.sampled_from(sorted(set(text.split()))) | st.sampled_from(specials)
    for _ in range(draw(st.integers(1, 3))):
        tokens = [i for i in range(0, len(pieces), 2) if pieces[i]]
        if not tokens:
            break
        i = draw(st.sampled_from(tokens))
        op = draw(st.sampled_from(["delete", "replace", "duplicate", "truncate"]))
        if op == "delete":
            pieces[i] = ""
        elif op == "replace":
            pieces[i] = draw(vocabulary)
        elif op == "duplicate":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        else:
            pieces[i:] = [pieces[i][: draw(st.integers(0, len(pieces[i])))]]
    return "".join(pieces)


@FUZZ
@given(text=mutants("# 3x3 unit square\n" + serialize_mesh(build_structured_grid(3, 3, 1.0, 1.0))))
def test_mesh_mutants_parse_or_refuse(text):
    try:
        mesh = load_mesh(text)
    except ValidationError:
        return
    assert mesh.nodes.shape == (mesh.n_nodes, 2) and np.isfinite(mesh.nodes).all()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_texts(grid3, work):
    mesh, dofs = grid3
    for arch in ("elementwise", "separated"):
        save_model(init_model(arch, mesh, dofs, hidden_spec=(2,), seed=0), work / arch)
    return [(work / arch).read_text() for arch in ("elementwise", "separated")]


@FUZZ
@given(data=st.data())
def test_model_mutants_parse_or_refuse(model_texts, work, data):
    """At the default window and at 64 characters, where mutated blocks
    straddle window ends, a mutant loads the same or fails the same."""
    path = work / "m.folmodel"
    path.write_text(data.draw(st.sampled_from(model_texts).flatmap(mutants)))
    outcomes = []
    for window in (textio.WINDOW, 64):
        with mock.patch.object(textio, "WINDOW", window):
            try:
                model = load_model(path)
            except ValidationError as exc:
                outcomes.append(str(exc))
                continue
        outcomes.append((model.dt, model.params_flat().tobytes()))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], str):
        return
    assert np.isfinite(model.dt) and model.dt > 0  # mutants reach dt with "0", "-1", "-0"
    x = np.random.default_rng(0).uniform(0.0, 1.0, (2, model.n_free))
    out = forward_batch(model, x)
    assert out.shape == x.shape and np.isfinite(out).all()


GETTERS = ("dirichlet", "material", "fourier_params", "sample_counts", "hidden_spec")
PROPERTIES = ("seed", "dt", "arch", "activation", "optimizer", "epochs", "batch_size", "lr")


@FUZZ
@given(text=mutants(CONFIG, NUMBERS + INI))
def test_config_mutants_load_and_answer_or_refuse(work, text):
    path = work / "run.cfg"
    path.write_text(text)
    try:
        cfg = load_run_config(path)
    except ValidationError:
        return
    calls = [lambda name=name: getattr(cfg, name)() for name in GETTERS]
    calls += [lambda name=name: getattr(cfg, name) for name in PROPERTIES]
    try:
        mesh = cfg.build_mesh()
    except ValidationError:
        mesh = build_structured_grid(3, 3, 1.0, 1.0)
    calls.append(lambda: cfg.conductivity(mesh))
    for call in calls:
        try:
            call()
        except ValidationError:
            pass
