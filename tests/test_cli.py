import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import IRREGULAR_MESH, rowwise_csv
from folheat import cli, fem
from folheat.cli import main
from folheat.config import load_run_config
from folheat.errors import ValidationError
from folheat.evaluation import canonical_test_fields, cross_section, heat_flux, upsample_field
from folheat.fe_solver import load_field, solve_transient, step_filename
from folheat.fem import assemble, reduce_system
from folheat.mesh import build_dof_map

REPO = Path(__file__).resolve().parent.parent

SMOKE_CONFIG = """\
[mesh]
nx = 3
ny = 3

[samples]
fourier = 6
gaussian = 6
constant = 2
n_terms = 4

[train]
epochs = 2
batch_size = 5

[run]
seed = 9
"""


@pytest.fixture()
def smoke_cfg(tmp_path):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(SMOKE_CONFIG)
    return cfg


def run(*args):
    return main([str(a) for a in args])


def fingerprint(cfg_path) -> str:
    """The fingerprint of the problem (mesh and Dirichlet data) a config sets."""
    cfg = load_run_config(cfg_path)
    return build_dof_map(cfg.build_mesh(), cfg.dirichlet()).fingerprint


def dt_cfg(tmp_path, dt):
    """The smoke config at [train] dt = dt, the step solve-fem takes."""
    cfg = tmp_path / f"dt_{dt}.cfg"
    cfg.write_text(SMOKE_CONFIG.replace("[train]\n", f"[train]\ndt = {dt}\n"))
    return cfg


class TestGenMesh:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "m.folmesh"
        assert run("gen-mesh", "--nx", 11, "--ny", 11, "--out", out) == 0
        assert "121 nodes" in capsys.readouterr().out
        assert run("validate", "--mesh", out) == 0

    def test_too_small_grid_is_validation_error(self, tmp_path):
        assert run("gen-mesh", "--nx", 1, "--ny", 5, "--out", tmp_path / "m") == 1

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.folmesh"
        bad.write_text("folmesh 1\nnodes 1\n0 0.0\n")  # truncated node line
        assert run("validate", "--mesh", bad) == 1

    @pytest.mark.parametrize("option, kind", [("--nx", "an integer"), ("--width", "a number")])
    def test_digit_separator_is_no_number(self, tmp_path, capsys, option, kind):
        assert run("gen-mesh", "--nx", 3, "--ny", 3, option, "1_0", "--out", tmp_path / "m") == 1
        assert capsys.readouterr().err == f"error: argument {option}: must be {kind}, got '1_0'\n"
        assert not (tmp_path / "m").exists()

    def test_non_finite_width_is_validation_error(self, tmp_path, capsys):
        assert run("gen-mesh", "--nx", 3, "--ny", 3, "--width", "nan", "--out", tmp_path / "m") == 1
        assert "positive and finite, got nan x 1.0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_validate_rejects_non_finite_coordinate(self, tmp_path, capsys):
        mesh = tmp_path / "m.folmesh"
        run("gen-mesh", "--nx", 3, "--ny", 3, "--out", mesh)
        mesh.write_text(mesh.read_text().replace("4 0.5 0.5", "4 nan 0.5"))
        capsys.readouterr()
        cfg = tmp_path / "m.cfg"
        cfg.write_text("[mesh]\nsource = file\npath = m.folmesh\n")
        for args in (["validate", "--mesh", mesh],
                     ["solve-fem", "--config", cfg, "--init", "canonical:const05", "--steps", 1,
                      "--out", tmp_path / "ref"]):
            assert run(*args) == 1
            err = capsys.readouterr().err
            assert f"{mesh}: line 7: expected finite x coordinate, got 'nan'" in err
            assert "Traceback" not in err

    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert run("gen-mesh", "--nx", 3, "--ny", 3, "--frobnicate", 1,
                   "--out", tmp_path / "m") == 1


class TestGenSamples:
    def test_counts_and_metadata(self, tmp_path):
        cfg = tmp_path / "gaussian.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("fourier = 6\ngaussian = 6\nconstant = 2",
                                            "fourier = 0\ngaussian = 10\nconstant = 0"))
        out = tmp_path / "samples"
        assert run("gen-samples", "--config", cfg, "--out", out) == 0
        samples = np.load(out / "samples.npy")
        assert samples.shape == (10, 3)
        assert (out / "samples.json").exists()
        assert {"seed 9", "counts 0/10/0"} <= set((out / "manifest.txt").read_text().splitlines())

    @pytest.mark.parametrize("flag", ["--fourier", "--gaussian", "--constant", "--seed"])
    def test_config_keys_are_no_flags(self, tmp_path, smoke_cfg, capsys, flag):
        out = tmp_path / "samples"
        assert run("gen-samples", "--config", smoke_cfg, flag, 3, "--out", out) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 3\n"
        assert not out.exists()

    def test_seed_reproducibility_bytes(self, tmp_path, smoke_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        run("gen-samples", "--config", smoke_cfg, "--out", a)
        run("gen-samples", "--config", smoke_cfg, "--out", b)
        assert (a / "samples.npy").read_bytes() == (b / "samples.npy").read_bytes()
        assert (a / "samples.json").read_bytes() == (b / "samples.json").read_bytes()


class TestTrain:
    def test_smoke_train_outputs(self, tmp_path, smoke_cfg):
        out = tmp_path / "run"
        assert run("train", "--config", smoke_cfg, "--out", out, "--log-every", 0) == 0
        assert (out / "model.folmodel").exists()
        lines = (out / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3  # header + 2 epochs

    def test_rerun_identical_outputs(self, tmp_path, smoke_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        run("train", "--config", smoke_cfg, "--out", a, "--log-every", 0)
        run("train", "--config", smoke_cfg, "--out", b, "--log-every", 0)
        assert (a / "loss_history.csv").read_bytes() == (b / "loss_history.csv").read_bytes()
        assert (a / "model.folmodel").read_bytes() == (b / "model.folmodel").read_bytes()

    def test_negative_log_every_refused_before_sampling(self, tmp_path, smoke_cfg, capsys,
                                                        monkeypatch):
        def no_sampling(*args):
            raise AssertionError("samples built before the options were checked")

        monkeypatch.setattr("folheat.sampling.build_sample_set", no_sampling)
        assert run("train", "--config", smoke_cfg, "--out", tmp_path / "run", "--log-every", -1) == 1
        assert capsys.readouterr().err == "error: log_every must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    def test_missing_mesh_file_fails_before_training(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mesh]\nsource = file\npath = nowhere.folmesh\n")
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == 1

    def test_reuses_pregenerated_samples(self, tmp_path, smoke_cfg):
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        out = tmp_path / "run"
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", out, "--log-every", 0) == 0

    @pytest.mark.parametrize("old, new, refusal", [
        ("nx = 3", "nx = 4", "was built for grid {theirs} (6 free dofs), not for {ours} (3 free dofs)"),
        ("seed = 9", "seed = 3", "was generated with seed 3, not 9"),
        ("fourier = 6", "fourier = 5", 'was generated with counts {"constant": 2, "fourier": 5, '
                                      '"gaussian": 6}, not {"constant": 2, "fourier": 6, "gaussian": 6}'),
        ("n_terms = 4", "n_terms = 5", "was generated with n_terms 5, not 4"),
    ], ids=["grid", "seed", "counts", "n_terms"])
    def test_set_of_another_recipe_is_refused(self, tmp_path, smoke_cfg, capsys, old, new, refusal):
        other, sdir = tmp_path / "other.cfg", tmp_path / "samples"
        other.write_text(SMOKE_CONFIG.replace(old, new))
        assert run("gen-samples", "--config", other, "--out", sdir) == 0
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        refusal = refusal.replace("{theirs}", fingerprint(other)).replace("{ours}", fingerprint(smoke_cfg))
        assert capsys.readouterr().err == f"error: sample set {sdir} {refusal}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["fingerprint", "n_samples", "provenance", "fourier", "corpus"])
    def test_sidecar_missing_key_is_validation_error(self, tmp_path, smoke_cfg, capsys, key):
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        meta = json.loads((sdir / "samples.json").read_text())
        del meta[key]
        (sdir / "samples.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        err = capsys.readouterr().err
        assert f"{sdir / 'samples.json'}: missing key {key!r}" in err
        assert "Traceback" not in err

    def test_sidecar_not_json_is_validation_error(self, tmp_path, smoke_cfg, capsys):
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        (sdir / "samples.json").write_text("{\n")
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        err = capsys.readouterr().err
        assert f"{sdir / 'samples.json'}: not JSON" in err
        assert "Traceback" not in err

    def test_truncated_samples_file_is_validation_error(self, tmp_path, smoke_cfg, capsys):
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        npy = sdir / "samples.npy"
        npy.write_bytes(npy.read_bytes()[:100])
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        err = capsys.readouterr().err
        assert f"{npy}: not a readable .npy array" in err
        assert "Traceback" not in err

    # samples.npy edits, and the reason each is refused for
    BAD_SAMPLES = {
        "huge-shape":
            "{npy}: samples is a <f8 array of shape (10000000000000, 3), expected <f8 of shape (14, 3)",
        "huge-shape-and-sidecar":
            "sample set {sdir} records 10000000000000 samples of 3 free values, not 14 of 3",
        "unicode": "{npy}: samples is a <U1 array of shape (14, 3), expected <f8 of shape (14, 3)",
        "complex": "{npy}: samples is a <c16 array of shape (14, 3), expected <f8 of shape (14, 3)",
        "int64": "{npy}: samples is a <i8 array of shape (14, 3), expected <f8 of shape (14, 3)",
    }

    @pytest.mark.parametrize("kind", list(BAD_SAMPLES))
    def test_bad_samples_array_is_validation_error(self, tmp_path, smoke_cfg, capsys, kind):
        """A samples.npy whose header is not a float64 array of the shape that
        the recipe's counts and the grid make, or a sidecar that records
        another shape, is refused before the data is read."""
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        npy, sidecar = sdir / "samples.npy", sdir / "samples.json"
        samples = np.load(npy)
        if kind.startswith("huge"):
            with npy.open("wb") as f:
                np.lib.format.write_array_header_1_0(
                    f, {"descr": "<f8", "fortran_order": False, "shape": (10**13, 3)})
                f.write(samples.tobytes())
            if kind.endswith("sidecar"):
                sidecar.write_text(sidecar.read_text().replace('"n_samples": 14', f'"n_samples": {10**13}'))
        else:
            np.save(npy, samples.astype({"unicode": "<U1", "complex": "<c16", "int64": "<i8"}[kind]))
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: " + self.BAD_SAMPLES[kind].format(npy=npy, sdir=sdir)]

    @pytest.mark.parametrize("n_samples, n_free", [(3, 3), (14, 1)], ids=["rows", "columns"])
    def test_set_cut_to_another_shape_is_refused(self, tmp_path, smoke_cfg, capsys, n_samples,
                                                 n_free):
        """A set cut to its first rows or columns, its sidecar's shape edited
        to match, is not the set its recorded counts and grid make."""
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        npy, sidecar = sdir / "samples.npy", sdir / "samples.json"
        np.save(npy, np.load(npy)[:n_samples, :n_free])
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "n_samples": n_samples, "n_free": n_free}))
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        assert capsys.readouterr().err == (f"error: sample set {sdir} records {n_samples} samples "
                                           f"of {n_free} free values, not 14 of 3\n")
        assert not (tmp_path / "run").exists()

    def test_non_finite_sample_is_validation_error(self, tmp_path, smoke_cfg, capsys):
        sdir = tmp_path / "samples"
        run("gen-samples", "--config", smoke_cfg, "--out", sdir)
        samples = np.load(sdir / "samples.npy")
        samples[4, 1] = np.nan
        np.save(sdir / "samples.npy", samples)
        capsys.readouterr()
        assert run("train", "--config", smoke_cfg, "--samples", sdir,
                   "--out", tmp_path / "run", "--log-every", 0) == 1
        err = capsys.readouterr().err
        assert f"{sdir / 'samples.npy'}: sample 4 holds a non-finite value" in err


class TestPredictAndSolve:
    @pytest.fixture()
    def trained(self, tmp_path, smoke_cfg):
        out = tmp_path / "run"
        run("train", "--config", smoke_cfg, "--out", out, "--log-every", 0)
        return out / "model.folmodel"

    def test_predict_file_count(self, tmp_path, smoke_cfg, trained):
        out = tmp_path / "pred"
        assert run("predict", "--config", smoke_cfg, "--checkpoint", trained,
                   "--init", "canonical:sin10y", "--steps", 10, "--out", out) == 0
        assert len(list(out.glob("step_*.csv"))) == 11

    @pytest.mark.parametrize("command", ["solve-fem", "predict"])
    def test_shorter_rerun_removes_stale_steps(self, tmp_path, smoke_cfg, trained, capsys, command):
        """A 3-step run into the directory of a 6-step one leaves 4 step files,
        so evaluate sees 4 fields, not the earlier run's 7."""
        ref, out = tmp_path / "ref", tmp_path / "out"
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
                   "--steps", 6, "--out", ref) == 0
        source = ["--checkpoint", trained] if command == "predict" else []
        for steps in (6, 3):
            assert run(command, "--config", smoke_cfg, *source, "--init", "canonical:sin10y",
                       "--steps", steps, "--out", out) == 0
        assert sorted(p.name for p in out.glob("step_*.csv")) == [step_filename(i) for i in range(4)]
        capsys.readouterr()
        assert run("evaluate", "--pred", out, "--ref", ref, "--out", tmp_path / "e.csv") == 1
        assert capsys.readouterr().err == "error: step-count mismatch: 4 predicted vs 7 reference\n"

    def test_predict_zero_steps(self, tmp_path, smoke_cfg, trained):
        out = tmp_path / "pred0"
        run("predict", "--config", smoke_cfg, "--checkpoint", trained,
            "--init", "canonical:const05", "--steps", 0, "--out", out)
        assert len(list(out.glob("step_*.csv"))) == 1

    def test_unknown_canonical_name(self, tmp_path, smoke_cfg, trained):
        assert run("predict", "--config", smoke_cfg, "--checkpoint", trained,
                   "--init", "canonical:nope", "--steps", 1, "--out", tmp_path / "x") == 1

    def test_negative_dt_checkpoint_refused(self, tmp_path, smoke_cfg, trained, capsys):
        bad = tmp_path / "bad.folmodel"
        bad.write_bytes(re.sub(rb"(?m)^dt .*$", b"dt -0.05", trained.read_bytes(), count=1))
        capsys.readouterr()
        assert run("predict", "--config", smoke_cfg, "--checkpoint", bad,
                   "--init", "canonical:const05", "--steps", 1, "--out", tmp_path / "x") == 1
        assert f"{bad}: line 6: dt must be positive, got -0.05" in capsys.readouterr().err

    def test_mismatched_grid_checkpoint(self, tmp_path, smoke_cfg, trained):
        big = tmp_path / "big.cfg"
        big.write_text("[mesh]\nnx = 5\nny = 5\n")
        assert run("predict", "--config", big, "--checkpoint", trained,
                   "--init", "canonical:const05", "--steps", 1, "--out", tmp_path / "x") == 1

    def test_checkpoint_path_starting_with_format_word(self, tmp_path, smoke_cfg, trained,
                                                       monkeypatch):
        # a relative path that starts like checkpoint text is still a path
        (tmp_path / "folmodel_runs").mkdir()
        shutil.copy(trained, tmp_path / "folmodel_runs" / "model.folmodel")
        monkeypatch.chdir(tmp_path)
        assert run("predict", "--config", smoke_cfg, "--checkpoint", "folmodel_runs/model.folmodel",
                   "--init", "canonical:const05", "--steps", 1, "--out", tmp_path / "pred") == 0

    # checkpoints predict and benchmark cannot use, and the reason each is refused for
    UNUSABLE = {
        "v1-text": "line 1: unsupported folmodel version 1",
        "random-bytes": "not valid ascii text",
        "truncated": "group 0 layer 0 weights needs ",
        "empty": "line 1: unexpected end of file, expected 'folmodel'",
    }

    @pytest.mark.parametrize("command", ["predict", "benchmark"])
    @pytest.mark.parametrize("kind", list(UNUSABLE))
    def test_unusable_checkpoint_is_one_error_line(self, tmp_path, smoke_cfg, trained, capsys,
                                                   command, kind):
        data = trained.read_bytes()
        bad = tmp_path / f"{kind}.folmodel"
        bad.write_bytes({
            "v1-text": b"folmodel 1\narch separated\nactivation swish\nn_free 3\n",
            "random-bytes": np.random.default_rng(0).bytes(4096),
            "truncated": data[: data.index(b"\nend\n") + 600],
            "empty": b"",
        }[kind])
        args = ["--init", "canonical:const05", "--steps", 1]
        args += ["--out", tmp_path / "x"] if command == "predict" else ["--repeats", 1]
        capsys.readouterr()
        assert run(command, "--config", smoke_cfg, "--checkpoint", bad, *args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: {self.UNUSABLE[kind]}"), lines

    def test_solve_fem_layout_matches_predict(self, tmp_path, smoke_cfg, trained):
        pred, ref = tmp_path / "pred", tmp_path / "ref"
        run("predict", "--config", smoke_cfg, "--checkpoint", trained,
            "--init", "canonical:const05", "--steps", 3, "--out", pred)
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:const05",
                   "--steps", 3, "--out", ref) == 0
        assert sorted(p.name for p in pred.glob("step_*.csv")) == \
               sorted(p.name for p in ref.glob("step_*.csv"))

    def test_solve_fem_rejects_bad_alpha(self, tmp_path, smoke_cfg, capsys):
        """solve-fem has no --alpha option: its reference is always the
        implicit-Euler step that the network learns."""
        capsys.readouterr()
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:const05",
                   "--steps", 1, "--alpha", 0.5, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --alpha 0.5\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dt", ["nan", "inf", "0_5"])
    def test_solve_fem_non_finite_dt_refused_before_assembly(self, tmp_path, smoke_cfg, capsys,
                                                             monkeypatch, dt):
        def assemble(*args):
            raise AssertionError("assembled before dt was checked")

        monkeypatch.setattr(fem, "assemble", assemble)
        cfg = dt_cfg(tmp_path, dt)
        capsys.readouterr()
        assert run("solve-fem", "--config", cfg, "--init", "canonical:const05",
                   "--steps", 1, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: [train] dt = '{dt}': " in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_solve_fem_overflowing_dt_fails_at_once(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("solve-fem", "--config", dt_cfg(tmp_path, "1e308"), "--init", "canonical:const05",
                   "--steps", 1, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "dt 1e+308 makes A_ff of the reduced system non-finite" in err
        assert "did not converge" not in err

    @pytest.mark.parametrize("dt", ["1e200", "1e308"])
    def test_solve_fem_huge_dt_prints_one_error_line(self, tmp_path, dt):
        # a child process: pytest would catch numpy's RuntimeWarnings before stderr
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "folheat.cli", "solve-fem", "--config", str(dt_cfg(tmp_path, dt)),
             "--init", "canonical:const05", "--steps", "1", "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numerical failure: ")

    def test_solve_fem_has_no_dt_option(self, tmp_path, smoke_cfg, capsys):
        capsys.readouterr()
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:const05",
                   "--steps", 1, "--dt", 0.1, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --dt 0.1\n"
        assert not (tmp_path / "x").exists()

    def test_init_from_field_file(self, tmp_path, smoke_cfg, trained):
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
            "--steps", 1, "--out", ref)
        out = tmp_path / "pred"
        assert run("predict", "--config", smoke_cfg, "--checkpoint", trained,
                   "--init", ref / "step_0001.csv", "--steps", 2, "--out", out) == 0


class TestEvaluate:
    @pytest.fixture()
    def two_dirs(self, tmp_path, smoke_cfg):
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
            "--steps", 3, "--out", ref)
        return tmp_path, ref

    def test_identical_dirs_zero_error(self, two_dirs, capsys):
        tmp_path, ref = two_dirs
        assert run("evaluate", "--pred", ref, "--ref", ref,
                   "--out", tmp_path / "e.csv") == 0
        text = (tmp_path / "e.csv").read_text().splitlines()
        assert text[0] == "step,t,E_rr"
        for line in text[1:]:
            assert line.endswith(",0.0")

    def test_scaled_prediction_gives_tenth(self, two_dirs):
        tmp_path, ref = two_dirs
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "manifest.txt").write_text("folheat run manifest\ndt 0.05\n")
        for step in ref.glob("step_*.csv"):
            lines = step.read_text().splitlines()
            out = [lines[0]]
            for row in lines[1:]:
                nid, x, y, t = row.split(",")
                out.append(f"{nid},{x},{y},{float(t) * 1.1!r}")
            (pred / step.name).write_text("\n".join(out) + "\n")
        assert run("evaluate", "--pred", pred, "--ref", ref, "--out", tmp_path / "e.csv") == 0
        rows = (tmp_path / "e.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[2]) == pytest.approx(0.1, abs=1e-12)

    def test_missing_step_is_mismatch(self, two_dirs):
        tmp_path, ref = two_dirs
        partial = tmp_path / "partial"
        partial.mkdir()
        for step in list(ref.glob("step_*.csv"))[:-1]:
            (partial / step.name).write_text(step.read_text())
        assert run("evaluate", "--pred", partial, "--ref", ref) == 1

    def test_assert_below_enforced(self, two_dirs):
        tmp_path, ref = two_dirs
        assert run("evaluate", "--pred", ref, "--ref", ref, "--assert-below", 0.1) == 0
        pred = tmp_path / "pred2"
        pred.mkdir()
        for step in ref.glob("step_*.csv"):
            lines = step.read_text().splitlines()
            out = [lines[0]]
            for row in lines[1:]:
                nid, x, y, t = row.split(",")
                out.append(f"{nid},{x},{y},{float(t) * 2.0!r}")
            (pred / step.name).write_text("\n".join(out) + "\n")
        assert run("evaluate", "--pred", pred, "--ref", ref, "--assert-below", 0.1) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "nan"), ("--dt", "-1"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "0_05"),
        ("--assert-below", "nan"), ("--assert-below", "inf"), ("--assert-below", "-0.1"),
    ])
    def test_bad_float_option_is_validation_error(self, two_dirs, capsys, flag, value):
        tmp_path, ref = two_dirs
        capsys.readouterr()
        assert run("evaluate", "--pred", ref, "--ref", ref, flag, value,
                   "--out", tmp_path / "e.csv") == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive finite number, got '{value}'" in err
        assert not (tmp_path / "e.csv").exists()

    def test_no_dt_anywhere_is_validation_error(self, two_dirs, capsys):
        tmp_path, ref = two_dirs
        bare = [tmp_path / "bare_pred", tmp_path / "bare_ref"]
        for d in bare:
            d.mkdir()
            for step in ref.glob("step_*.csv"):
                (d / step.name).write_text(step.read_text())
        assert run("evaluate", "--pred", bare[0], "--ref", bare[1],
                   "--out", tmp_path / "e.csv") == 1
        assert "--dt" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
        assert run("evaluate", "--pred", bare[0], "--ref", bare[1], "--dt", 0.05,
                   "--out", tmp_path / "e.csv") == 0

    def test_fields_of_different_meshes_refused(self, tmp_path, smoke_cfg, capsys):
        wide = tmp_path / "wide.cfg"
        wide.write_text(SMOKE_CONFIG.replace("ny = 3", "ny = 3\nwidth = 2.0"))
        dirs = []
        for cfg, tag in ((smoke_cfg, "unit"), (wide, "wide")):
            dirs.append(tmp_path / tag)
            assert run("solve-fem", "--config", cfg, "--init", "canonical:sin10y",
                       "--steps", 2, "--out", dirs[-1]) == 0
        capsys.readouterr()
        assert run("evaluate", "--pred", dirs[0], "--ref", dirs[1],
                   "--out", tmp_path / "e.csv") == 1
        err = capsys.readouterr().err
        assert str(dirs[0] / "step_0000.csv") in err and str(dirs[1] / "step_0000.csv") in err
        assert not (tmp_path / "e.csv").exists()

    def test_trajectories_at_different_dt_refused(self, tmp_path, smoke_cfg, capsys):
        dirs = [tmp_path / "fine", tmp_path / "coarse"]
        for out, dt in zip(dirs, ("0.05", "0.5")):
            assert run("solve-fem", "--config", dt_cfg(tmp_path, dt), "--init", "canonical:sin10y",
                       "--steps", 2, "--out", out) == 0
        (dirs[0] / "step_0001.csv").write_text("no field\n")  # refused before a step is read
        for extra in ([], ["--dt", 0.05]):
            capsys.readouterr()
            assert run("evaluate", "--pred", dirs[0], "--ref", dirs[1], *extra,
                       "--out", tmp_path / "e.csv") == 1
            assert capsys.readouterr().err == (
                f"error: {dirs[0]} was saved at dt 0.05 and {dirs[1]} at dt 0.5; "
                "their steps are different times\n")
        assert not (tmp_path / "e.csv").exists()
        # a --dt that disagrees with the one manifest on record is refused too
        ref, bare = tmp_path / "ref", tmp_path / "bare"
        assert run("solve-fem", "--config", dt_cfg(tmp_path, "0.05"), "--init", "canonical:sin10y",
                   "--steps", 2, "--out", ref) == 0
        shutil.copytree(ref, bare, ignore=shutil.ignore_patterns("manifest.txt"))
        capsys.readouterr()
        assert run("evaluate", "--pred", bare, "--ref", ref, "--dt", 0.5,
                   "--out", tmp_path / "e.csv") == 1
        assert capsys.readouterr().err == (
            f"error: {ref} was saved at dt 0.05 and --dt at dt 0.5; "
            "their steps are different times\n")
        assert not (tmp_path / "e.csv").exists()
        assert run("evaluate", "--pred", bare, "--ref", ref, "--dt", 0.05,
                   "--out", tmp_path / "e.csv") == 0

    @pytest.mark.parametrize("dt", ["abc", "nan", "-1", "inf"])
    def test_bad_manifest_dt_is_validation_error(self, two_dirs, capsys, dt):
        tmp_path, ref = two_dirs
        pred = tmp_path / "pred_dt"
        pred.mkdir()
        for step in ref.glob("step_*.csv"):
            (pred / step.name).write_text(step.read_text())
        (pred / "manifest.txt").write_text(f"folheat run manifest\ndt {dt}\n")
        capsys.readouterr()
        assert run("evaluate", "--pred", pred, "--ref", ref, "--out", tmp_path / "e.csv") == 1
        err = capsys.readouterr().err
        assert str(pred / "manifest.txt") in err
        assert "Traceback" not in err
        assert not (tmp_path / "e.csv").exists()


class TestBenchmark:
    def test_report_schema(self, tmp_path, smoke_cfg, capsys, monkeypatch):
        out = tmp_path / "run"
        run("train", "--config", smoke_cfg, "--out", out, "--log-every", 0)
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)  # restored after the test
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # the budget is each cap, not OMP's alone
        report = tmp_path / "bench.txt"
        assert run("benchmark", "--config", smoke_cfg, "--checkpoint", out / "model.folmodel",
                   "--steps", 2, "--repeats", 5, "--out", report) == 0
        text = report.read_text()
        for key in ("median_nn_seconds", "median_fe_seconds", "ratio_fe_over_nn",
                    "n_steps 2", "repeats 5"):
            assert key in text
        assert ("thread_budget OMP_NUM_THREADS=unset OPENBLAS_NUM_THREADS=2 MKL_NUM_THREADS=unset"
                in text.splitlines())


class TestPostprocess:
    def test_outputs(self, tmp_path, smoke_cfg):
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
            "--steps", 1, "--out", ref)
        out = tmp_path / "post"
        assert run("postprocess", "--config", smoke_cfg, "--field", ref / "step_0001.csv",
                   "--out", out, "--upsample", 9) == 0
        for name in ("flux.csv", "section_x_0.5.csv", "upsampled.csv", "upsampled.pgm"):
            assert (out / name).exists()
        assert (out / "upsampled.pgm").read_bytes().startswith(b"P5\n9 9\n255\n")
        mesh = load_run_config(smoke_cfg).build_mesh()
        grid = upsample_field(mesh, load_field(ref / "step_0001.csv", mesh), 9, 9)
        assert np.array_equal(np.loadtxt(out / "upsampled.csv", delimiter=","), grid)

    def test_annulus_outputs_are_the_rowwise_bytes(self, tmp_path):
        """On the shipped annulus, whose resampled grid has cells off the mesh,
        flux.csv and upsampled.csv hold the bytes of a row-by-row writer."""
        cfg = tmp_path / "annulus.cfg"
        cfg.write_text(f"[mesh]\nsource = file\npath = {IRREGULAR_MESH}\n"
                       "[dirichlet]\ninner = 1.0\nouter = 0.0\n")
        ref, out = tmp_path / "ref", tmp_path / "post"
        assert run("solve-fem", "--config", cfg, "--init", "canonical:sin10y", "--steps", 2, "--out", ref) == 0
        assert run("postprocess", "--config", cfg, "--field", ref / "step_0002.csv", "--out", out) == 0
        config = load_run_config(cfg)
        mesh = config.build_mesh()
        field = load_field(ref / "step_0002.csv", mesh)
        flux = heat_flux(mesh, config.conductivity(mesh), field)
        grid = upsample_field(mesh, field, 165, 165)
        assert np.isnan(grid).any() and not np.isnan(grid).all()
        assert (out / "flux.csv").read_bytes() == rowwise_csv(
            ["node_id", "x", "y", "qx", "qy"], [range(mesh.n_nodes), *mesh.nodes.T, *flux.T]).encode()
        assert (out / "upsampled.csv").read_bytes() == rowwise_csv(None, grid.T).encode()

    def test_manifest_records_the_request(self, tmp_path, smoke_cfg):
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y", "--steps", 0, "--out", ref)
        out, field = tmp_path / "post", ref / "step_0000.csv"
        assert run("postprocess", "--config", smoke_cfg, "--field", field, "--sections", "x=0.25, y=0.5",
                   "--upsample", 9, "--out", out) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [f"field {field}", "sections x=0.25, y=0.5", "upsample 9"] == lines[4:7]

    @pytest.mark.parametrize("bad", ["id:x", "T:abc", "T:nan", "T:-inf", "id:1", "x:abc", "y:0.7"])
    def test_bad_field_value_is_validation_error(self, tmp_path, smoke_cfg, capsys, bad):
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
            "--steps", 0, "--out", ref)
        lines = (ref / "step_0000.csv").read_text().splitlines()
        cells = lines[3].split(",")
        column, value = bad.split(":")
        cells[["id", "x", "y", "T"].index(column)] = value
        lines[3] = ",".join(cells)
        field = tmp_path / "bad.csv"
        field.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("postprocess", "--config", smoke_cfg, "--field", field,
                   "--out", tmp_path / "post", "--upsample", 9) == 1
        err = capsys.readouterr().err
        assert f"{field} line 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, value", [
        ("--upsample", 2**50), ("--upsample", 1), ("--sections", "y=5"), ("--sections", "q"),
        ("--sections", "x=0.5,q"), ("--sections", "x=0_0"),
    ])
    def test_refused_request_writes_nothing(self, tmp_path, smoke_cfg, capsys, option, value):
        """A request refused after the field loads exits 1 before --out is made."""
        ref = tmp_path / "ref"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y", "--steps", 0, "--out", ref)
        capsys.readouterr()
        assert run("postprocess", "--config", smoke_cfg, "--field", ref / "step_0000.csv",
                   "--out", tmp_path / "post", option, value) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "post").exists()

    def test_reused_out_holds_only_this_request(self, tmp_path, smoke_cfg):
        ref, out = tmp_path / "ref", tmp_path / "post"
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y", "--steps", 0, "--out", ref)
        for sections in ("x=0.25", "y=0.5"):
            assert run("postprocess", "--config", smoke_cfg, "--field", ref / "step_0000.csv",
                       "--sections", sections, "--upsample", 9, "--out", out) == 0
        listing = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(listing) == ["flux.csv", "manifest.txt", "section_y_0.5.csv",
                                   "upsampled.csv", "upsampled.pgm"]
        # a refused request removes nothing either
        assert run("postprocess", "--config", smoke_cfg, "--field", ref / "step_0000.csv",
                   "--sections", "y=5", "--upsample", 9, "--out", out) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == listing


class TestDeterminismPipeline:
    def test_full_pipeline_byte_identical(self, tmp_path, smoke_cfg):
        outputs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            run("train", "--config", smoke_cfg, "--out", base / "run", "--log-every", 0)
            run("predict", "--config", smoke_cfg, "--checkpoint", base / "run/model.folmodel",
                "--init", "canonical:gaussian", "--steps", 4, "--out", base / "pred")
            run("solve-fem", "--config", smoke_cfg, "--init", "canonical:gaussian",
                "--steps", 4, "--out", base / "ref")
            run("evaluate", "--pred", base / "pred", "--ref", base / "ref",
                "--out", base / "errors.csv")
            outputs.append(base)
        a, b = outputs
        for rel in ("run/model.folmodel", "run/loss_history.csv", "pred/step_0004.csv",
                    "ref/step_0004.csv", "errors.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreads:
    @pytest.mark.parametrize("args", [["--threads", "0"], ["--threads", "-2"], ["--threads=0"],
                                      ["--threads", "abc"], ["--threads", "1.5"],
                                      ["--threads", "1_0"]])
    def test_non_positive_count_refused(self, tmp_path, capsys, args):
        before = dict(os.environ)
        assert run(*args, "gen-mesh", "--nx", 3, "--ny", 3, "--out", tmp_path / "m") == 1
        value = args[-1].removeprefix("--threads=")
        assert capsys.readouterr().err == (
            f"error: argument --threads: must be a positive integer, got {value!r}\n")
        assert dict(os.environ) == before
        assert not (tmp_path / "m").exists()

    def test_positive_count_sets_every_cap(self, tmp_path, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)  # restored after the test
        assert run("--threads", 1, "gen-mesh", "--nx", 3, "--ny", 3, "--out", tmp_path / "m") == 0
        assert [os.environ[var] for var in THREAD_VARS] == ["1", "1", "1"]

    def test_one_process_runs_each_command_as_alone(self, tmp_path, monkeypatch, capsys):
        """The parser is built once per process; a refused command leaves nothing
        in it that changes the next one."""
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "1")  # restored after the test
        cli._build_parser.cache_clear()
        assert run("solve-fem", "--alpha", "0.5") == 1
        assert capsys.readouterr().err == (
            "error: the following arguments are required: --init, --steps, --out\n")
        assert run("gen-mesh", "--nx", 3, "--ny", 3, "--out", tmp_path / "a") == 0
        assert run("--threads", 1, "gen-mesh", "--nx", 3, "--ny", 3, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert cli._build_parser.cache_info().misses == 1

    def test_cli_import_leaves_numpy_unloaded(self):
        # OpenBLAS reads its thread budget once, when numpy loads it
        code = "import sys, folheat.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestTooLargeToAllocate:
    """Requests of PiB scale fail at their first allocation: one error line,
    exit 1, and no traceback."""

    HUGE = 2**50

    def check(self, capsys, *args):
        capsys.readouterr()
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
        assert " PiB " in err

    def test_gen_mesh(self, tmp_path, capsys):
        self.check(capsys, "gen-mesh", "--nx", self.HUGE, "--ny", self.HUGE, "--out", tmp_path / "m")
        assert not (tmp_path / "m").exists()

    def test_gen_samples(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("fourier = 6", f"fourier = {self.HUGE}"))
        self.check(capsys, "gen-samples", "--config", cfg, "--out", tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_postprocess_upsample(self, tmp_path, smoke_cfg, capsys):
        run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y", "--steps", 0,
            "--out", tmp_path / "ref")
        self.check(capsys, "postprocess", "--config", smoke_cfg, "--field",
                   tmp_path / "ref" / "step_0000.csv", "--upsample", self.HUGE,
                   "--out", tmp_path / "post")


class TestNoFreeNode:
    def test_problem_with_every_node_prescribed(self, tmp_path, capsys):
        """A 2x2 grid under the left/right Dirichlet data has no free node:
        gen-samples and train refuse it in one error line, and solve-fem
        writes the prescribed field at every step, from every initial field."""
        cfg = tmp_path / "no_free.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("nx = 3\nny = 3", "nx = 2\nny = 2"))
        for command in ("gen-samples", "train"):
            capsys.readouterr()
            assert run(command, "--config", cfg, "--out", tmp_path / command) == 1
            assert capsys.readouterr().err == "error: sample set needs at least one free dof\n"
            assert not (tmp_path / command).exists()
        mesh = load_run_config(cfg).build_mesh()
        for name in ("sin10y", "gaussian", "trig2", "const05", "abs_sin10x"):
            out = tmp_path / name
            assert run("solve-fem", "--config", cfg, "--init", f"canonical:{name}",
                       "--steps", 2, "--out", out) == 0
            for step in range(3):
                assert load_field(out / step_filename(step), mesh).tolist() == [1.0, 0.0, 1.0, 0.0]


class TestManifest:
    def test_git_runs_once_per_process(self, tmp_path, smoke_cfg, monkeypatch):
        calls = []
        real_run = cli.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", counting_run)
        cli._git_hash.cache_clear()
        for name in ("a", "b"):
            assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:const05",
                       "--steps", 1, "--out", tmp_path / name) == 0
        assert len(calls) == 1
        builds = [line for name in ("a", "b")
                  for line in (tmp_path / name / "manifest.txt").read_text().splitlines()
                  if line.startswith("build ")]
        assert len(builds) == 2 and builds[0] == builds[1]

    def test_dt_line_is_the_step_the_command_used(self, tmp_path, smoke_cfg):
        def manifest_dt(out):
            return [line for line in (out / "manifest.txt").read_text().splitlines()
                    if line.startswith("dt ")]

        assert run("train", "--config", smoke_cfg, "--out", tmp_path / "run", "--log-every", 0) == 0
        assert manifest_dt(tmp_path / "run") == ["dt 0.05"]
        assert run("solve-fem", "--config", dt_cfg(tmp_path, 0.1), "--init", "canonical:const05",
                   "--steps", 1, "--out", tmp_path / "fe") == 0
        assert manifest_dt(tmp_path / "fe") == ["dt 0.1"]
        assert run("predict", "--config", dt_cfg(tmp_path, 0.2),
                   "--checkpoint", tmp_path / "run" / "model.folmodel",
                   "--init", "canonical:const05", "--steps", 1, "--out", tmp_path / "pred") == 0
        assert manifest_dt(tmp_path / "pred") == ["dt 0.05"]


class TestConfig:
    @pytest.mark.parametrize("old, new, key", [
        ("nx = 3", "nx = abc", "[mesh] nx"),
        ("[run]", "[dirichlet]\nleft = abc\n\n[run]", "[dirichlet] left"),
        ("epochs = 2", "epochs = 2.5", "[train] epochs"),
        ("epochs = 2", "epochs = 2\ndt = fast", "[train] dt"),
        ("epochs = 2", "epochs = 2\nhidden = 10 x", "[train] hidden"),
        ("n_terms = 4", "n_terms = 4\noffset_ranges = 0:a", "[samples] offset_ranges"),
        ("seed = 9", "seed = nine", "[run] seed"),
        ("nx = 3", "nx = 5%", "[mesh] nx"),
        ("nx = 3", "nx = 3\nwidth = nan", "[mesh] width"),
        ("nx = 3", "nx = 3\nheight = -inf", "[mesh] height"),
        # int() and float() read a `_` digit separator: dt 0_05 would be 5.0
        ("epochs = 2", "epochs = 2\ndt = 0_05", "[train] dt"),
        ("[run]", "[material]\nrho = 1_0\n\n[run]", "[material] rho"),
        ("epochs = 2", "epochs = 2\nhidden = 1_0", "[train] hidden"),
        ("n_terms = 4", "n_terms = 4\noffset_ranges = 0:0_5", "[samples] offset_ranges"),
        ("[run]", "[conductivity]\nkind = inclusions\ncircles = 0.5,0.5,0_2\n\n[run]",
         "[conductivity] circles"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, old, new, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CONFIG.replace(old, new))
        assert run("train", "--config", cfg, "--out", tmp_path / "run", "--log-every", 0) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("circles", ["0.5,0.5,nan", "0.5,0.5,inf", "0.5,0.5,-0.2", "0.5,0.5,0",
                                         "0.3,0.3,0.1; nan,0.5,0.2", "0.5,-inf,0.2"])
    def test_bad_circle_is_refused(self, tmp_path, capsys, circles):
        """An inclusion circle needs a finite centre and a positive finite radius."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CONFIG + f"\n[conductivity]\nkind = inclusions\ncircles = {circles}\n")
        assert run("solve-fem", "--config", cfg, "--init", "canonical:const05", "--steps", 1,
                   "--out", tmp_path / "ref") == 1
        err = capsys.readouterr().err
        assert f"{cfg}: [conductivity] circles = {circles!r}: expected a finite centre and a " in err
        assert "Traceback" not in err

    def test_readme_irregular_domain_recipe(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        section = readme.split("## Irregular domains", 1)[1]
        recipe = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        assert "path = data/irregular.folmesh" in recipe
        (tmp_path / "data").mkdir()
        shutil.copy(REPO / "data" / "irregular.folmesh", tmp_path / "data")
        cfg = tmp_path / "annulus.cfg"
        cfg.write_text(recipe)
        ref = tmp_path / "ref"
        assert run("solve-fem", "--config", cfg, "--init", "canonical:sin10y",
                   "--steps", 3, "--out", ref) == 0
        assert run("evaluate", "--pred", ref, "--ref", ref, "--out", tmp_path / "e.csv") == 0
        assert len((tmp_path / "e.csv").read_text().splitlines()) == 5

        # the ring does not fill its bounding box: points off it are nan, black in the PGM
        post, n = tmp_path / "post", 33
        assert run("postprocess", "--config", cfg, "--field", ref / "step_0003.csv",
                   "--upsample", n, "--out", post) == 0
        mesh = load_run_config(cfg).build_mesh()
        placed = upsample_field(mesh, load_field(ref / "step_0003.csv", mesh), n, n)
        off = np.isnan(placed)
        assert off[0, 0] and not off[0, -1] and 0 < off.sum() < n * n
        grid = np.loadtxt(post / "upsampled.csv", delimiter=",")
        assert np.array_equal(np.isnan(grid), off)
        assert np.array_equal(grid[~off], placed[~off])
        pgm = (post / "upsampled.pgm").read_bytes()
        header = f"P5\n{n} {n}\n255\n".encode()
        assert pgm.startswith(header) and len(pgm) == len(header) + n * n
        pixels = np.frombuffer(pgm[len(header):], np.uint8).reshape(n, n)[::-1]
        assert (pixels[off] == 0).all()
        assert pixels[~off].min() == 0 and pixels[~off].max() == 255

    def test_dirichlet_key_keeps_its_case(self, tmp_path):
        mesh = (REPO / "data" / "irregular.folmesh").read_text()
        (tmp_path / "ring.folmesh").write_text(mesh.replace("bset inner", "bset Inner"))
        cfg = tmp_path / "ring.cfg"
        cfg.write_text("[mesh]\nsource = file\npath = ring.folmesh\n[dirichlet]\nInner = 1.0\n")
        assert run("solve-fem", "--config", cfg, "--init", "canonical:const05",
                   "--steps", 1, "--out", tmp_path / "ref") == 0


def documented_argvs(text):
    """The argument list of each `folheat <command> ...` line in text, or of each
    `"${FOLHEAT[@]}" <command> ...` line of a script, with continuation lines
    joined and what follows a `;`, `||` or `#` dropped."""
    argvs = []
    for line in text.replace("\\\n", " ").splitlines():
        if found := re.search(r'(?:\bfolheat|"\$\{FOLHEAT\[@\]\}")\s+([a-z].*)', line):
            argvs.append(shlex.split(re.split(r";|\|\|", found.group(1))[0], comments=True))
    return argvs


def fenced_blocks(markdown):
    return "".join(re.findall(r"```[^\n]*\n(.*?)```", markdown, re.S))


class TestDocumentedCommands:
    """Every folheat command line in README.md's fenced blocks and in
    scripts/reproduce.sh names a command and options the parser accepts."""

    @pytest.mark.parametrize("doc, commands", [
        ("README.md", set(cli._COMMANDS)),
        ("scripts/reproduce.sh", {"gen-mesh", "validate", "gen-samples", "train", "predict",
                                  "solve-fem", "evaluate", "benchmark"}),
    ])
    def test_parser_accepts_each_documented_command(self, doc, commands):
        text = (REPO / doc).read_text()
        argvs = documented_argvs(fenced_blocks(text) if doc.endswith(".md") else text)
        for argv in argvs:
            cli._build_parser().parse_args(argv)
        assert {argv[0] for argv in argvs} == commands

    def test_an_option_the_parser_lacks_is_caught(self):
        readme = (REPO / "README.md").read_text()
        stale = readme.replace("folheat solve-fem --init", "folheat solve-fem --dt 0.1 --init")
        assert stale != readme
        with pytest.raises(ValidationError, match="unrecognized arguments: --dt 0.1"):
            for argv in documented_argvs(fenced_blocks(stale)):
                cli._build_parser().parse_args(argv)


class TestCsvOutputs:
    def test_lf_only_and_exact_round_trip(self, tmp_path, smoke_cfg):
        ref, post, train_dir = tmp_path / "ref", tmp_path / "post", tmp_path / "run"
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
                   "--steps", 2, "--out", ref) == 0
        assert run("evaluate", "--pred", ref, "--ref", ref) == 0
        assert run("train", "--config", smoke_cfg, "--out", train_dir, "--log-every", 0) == 0
        assert run("postprocess", "--config", smoke_cfg, "--field", ref / "step_0002.csv",
                   "--sections", "x=0.5,y=0.3", "--upsample", 9, "--out", post) == 0
        written = sorted(tmp_path.rglob("*.csv"))
        assert len(written) == 9
        for path in written:
            assert b"\r" not in path.read_bytes(), path

        cfg = load_run_config(smoke_cfg)
        mesh = cfg.build_mesh()
        dofs = build_dof_map(mesh, cfg.dirichlet())
        k = cfg.conductivity(mesh)
        rs = reduce_system(assemble(mesh, k, cfg.material()), dofs, cfg.dt, 1.0)
        fields = solve_transient(rs, dofs, canonical_test_fields(mesh, dofs)["sin10y"], 2).fields
        for i, field in enumerate(fields):
            assert np.array_equal(load_field(ref / step_filename(i), mesh), field)

        def table(path):
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

        ids = np.arange(mesh.n_nodes)
        assert np.array_equal(table(ref / "errors.csv"),
                              np.column_stack([np.arange(3), np.arange(3) * cfg.dt, np.zeros(3)]))
        assert np.array_equal(table(post / "flux.csv"),
                              np.column_stack([ids, mesh.nodes, heat_flux(mesh, k, fields[2])]))
        for axis, value in (("x", 0.5), ("y", 0.3)):
            assert np.array_equal(table(post / f"section_{axis}_{value}.csv"),
                                  cross_section(mesh, fields[2], axis, value))
        assert np.array_equal(np.loadtxt(post / "upsampled.csv", delimiter=","),
                              upsample_field(mesh, fields[2], 9, 9))
        manifest = (train_dir / "manifest.txt").read_text()
        final_loss = float(re.search(r"^final_loss (\S+)$", manifest, re.M).group(1))
        assert table(train_dir / "loss_history.csv")[-1, 1] == final_loss


class TestUndecodableInput:
    """A file that is not valid text is a ValidationError naming it: exit 1
    with one stderr line, not a UnicodeDecodeError traceback."""

    @staticmethod
    def refused(capsys, path, *args):
        capsys.readouterr()
        assert run(*args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: not valid "), lines

    def test_checkpoint(self, tmp_path, smoke_cfg, capsys):
        npy = tmp_path / "model.npy"
        np.save(npy, np.arange(3.0))
        self.refused(capsys, npy, "predict", "--config", smoke_cfg, "--checkpoint", npy,
                     "--init", "canonical:const05", "--steps", 1, "--out", tmp_path / "x")

    def test_mesh(self, tmp_path, capsys):
        mesh = tmp_path / "m.folmesh"
        assert run("gen-mesh", "--nx", 3, "--ny", 3, "--out", mesh) == 0
        mesh.write_bytes(mesh.read_bytes().replace(b"\nelems", b"\n# \xff\nelems"))
        self.refused(capsys, mesh, "validate", "--mesh", mesh)
        cfg = tmp_path / "file.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("nx = 3\nny = 3", f"source = file\npath = {mesh}"))
        self.refused(capsys, mesh, "solve-fem", "--config", cfg, "--init", "canonical:const05",
                     "--steps", 1, "--out", tmp_path / "x")

    def test_field_csv(self, tmp_path, smoke_cfg, capsys):
        ref = tmp_path / "ref"
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
                   "--steps", 0, "--out", ref) == 0
        field = tmp_path / "bad.csv"
        field.write_bytes((ref / "step_0000.csv").read_bytes() + b"\xff\n")
        self.refused(capsys, field, "solve-fem", "--config", smoke_cfg, "--init", field,
                     "--steps", 1, "--out", tmp_path / "x")
        self.refused(capsys, field, "postprocess", "--config", smoke_cfg, "--field", field,
                     "--out", tmp_path / "post", "--upsample", 9)

    def test_config_and_manifest(self, tmp_path, smoke_cfg, capsys):
        for tag in ("a", "b"):
            assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:const05",
                       "--steps", 1, "--out", tmp_path / tag) == 0
        manifest = tmp_path / "a" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"# \xff\n")
        self.refused(capsys, manifest, "evaluate", "--pred", tmp_path / "a", "--ref", tmp_path / "b")
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(smoke_cfg.read_bytes() + b"# \xff\n")
        self.refused(capsys, cfg, "solve-fem", "--config", cfg, "--init", "canonical:const05",
                     "--steps", 1, "--out", tmp_path / "x")


class TestOverLongCsvField:
    """A CSV field longer than csv.field_size_limit() is a ValidationError
    naming the file and the line: exit 1 with one stderr line."""

    def test_field_and_conductivity_files(self, tmp_path, smoke_cfg, capsys):
        ref = tmp_path / "ref"
        assert run("solve-fem", "--config", smoke_cfg, "--init", "canonical:sin10y",
                   "--steps", 0, "--out", ref) == 0
        lines = (ref / "step_0000.csv").read_text().splitlines()
        lines[3] += "0" * 200_000
        field = tmp_path / "long.csv"
        field.write_text("\n".join(lines) + "\n")
        for args in (("postprocess", "--config", smoke_cfg, "--field", field,
                      "--out", tmp_path / "post", "--upsample", 9),
                     ("solve-fem", "--config", smoke_cfg, "--init", field,
                      "--steps", 1, "--out", tmp_path / "x")):
            capsys.readouterr()
            assert run(*args) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {field} line 4: field larger"), err
        k = tmp_path / "k.csv"
        k.write_text("node_id,k\n0,1\n1," + "1" * 200_000 + "\n")
        cfg = tmp_path / "file.cfg"
        cfg.write_text(SMOKE_CONFIG + f"\n[conductivity]\nkind = file\npath = {k}\n")
        capsys.readouterr()
        assert run("solve-fem", "--config", cfg, "--init", "canonical:const05",
                   "--steps", 1, "--out", tmp_path / "y") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {k} line 3: field larger"), err
