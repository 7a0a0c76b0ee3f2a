"""Run configuration: one INI-style file drives every CLI experiment.

All defaults equal the main-study values (11x11 unit square, left=1/right=0,
homogeneous k=1, rho=10, c=1, 1200/1500/300 samples, separated nets [10,10],
swish, Adam, lr 1e-3, batch 60, dt 0.05). A config file only needs the keys
it overrides.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ValidationError, number
from .fem import ConductivityField, MaterialParams, load_conductivity
from .mesh import DirichletSpec, Mesh, build_structured_grid, load_mesh
from .sampling import KINDS, FourierParams
from .textio import read_text

DEFAULT_CONFIG = """\
[mesh]
source = structured      ; structured | file
nx = 11
ny = 11
width = 1.0
height = 1.0
path =                   ; mesh file when source = file

[dirichlet]
left = 1.0
right = 0.0

[conductivity]
kind = homogeneous       ; homogeneous | inclusions | file
value = 1.0
background = 1.0
inclusion = 0.1
circles = 0.3,0.65,0.17; 0.7,0.3,0.15; 0.55,0.82,0.1
path =

[material]
rho = 10.0
c = 1.0

[samples]
fourier = 1200
gaussian = 1500
constant = 300
n_terms = 50
offset_ranges = 0:0.5, 0.5:1, 1:1.5
amp_x_ranges = 0.01:0.1, 0.1:0.5, 0.5:1, 1:1.5, 1.5:2
amp_y_ranges = 0.01:0.1, 0.1:0.5, 0.5:1, 1:1.5, 1.5:2
freq_x_ranges = 0:0, 0.001:0.01, 0.01:0.1, 0.1:1, 1.1:2, 2.1:4, 4.1:6
freq_y_ranges = 0:0, 0.001:0.01, 0.01:0.1, 0.1:1, 1.1:2, 2.1:4, 4.1:6

[train]
arch = separated         ; separated | elementwise | fully_connected
activation = swish
optimizer = adam         ; adam | lbfgs
epochs = 1000
batch_size = 60
lr = 0.001
dt = 0.05
hidden =                 ; blank = architecture default

[run]
seed = 0
"""


def _parse_ranges(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo, hi = part.split(":")
            out.append((float(lo), float(hi)))
        except ValueError:
            raise ValueError(f"expected 'lo:hi' pairs, got {part!r}") from None
    if not out:
        raise ValueError("no intervals given")
    return tuple(out)


def _parse_circles(text: str) -> tuple:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            cx, cy, r = (float(v) for v in part.split(","))
        except ValueError:
            raise ValueError(f"expected 'x,y,r' triples, got {part!r}") from None
        if not (math.isfinite(cx) and math.isfinite(cy) and 0 < r < math.inf):
            raise ValueError(f"expected a finite centre and a positive finite radius, got {part!r}")
        out.append((cx, cy, r))
    return tuple(out)


@dataclass
class RunConfig:
    raw_text: str
    parser: configparser.ConfigParser
    base_dir: Path
    source: str  # named in errors: the config file, or "default config"

    def _get(self, section: str, key: str, kind=str):
        """[section] key read by kind; any kind but str reads numbers, so its text
        is checked by errors.number. A ValueError, or a float that is not
        finite, is a ValidationError."""
        text = self.parser.get(section, key).strip()
        try:
            value = kind(text if kind is str else number(text, str))
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        except ValueError as exc:
            raise ValidationError(f"{self.source}: [{section}] {key} = {text!r}: {exc}") from None

    def build_mesh(self) -> Mesh:
        source = self._get("mesh", "source")
        if source == "structured":
            return build_structured_grid(
                self._get("mesh", "nx", int),
                self._get("mesh", "ny", int),
                self._get("mesh", "width", float),
                self._get("mesh", "height", float),
            )
        if source == "file":
            path = self._resolve(self._get("mesh", "path"), "mesh.path")
            text = read_text(path)
            try:
                return load_mesh(text)
            except ValidationError as exc:
                raise type(exc)(f"{path}: {exc}") from None
        raise ValidationError(f"mesh.source must be 'structured' or 'file', got {source!r}")

    def dirichlet(self) -> DirichletSpec:
        entries = {tag: self._get("dirichlet", tag, float) for tag in self.parser.options("dirichlet")}
        if not entries:
            raise ValidationError("config must prescribe at least one Dirichlet boundary")
        return DirichletSpec(entries)

    def conductivity(self, mesh: Mesh) -> ConductivityField:
        kind = self._get("conductivity", "kind")
        if kind == "homogeneous":
            return ConductivityField.homogeneous(mesh, self._get("conductivity", "value", float))
        if kind == "inclusions":
            return ConductivityField.inclusions(
                mesh,
                circles=self._get("conductivity", "circles", _parse_circles),
                background=self._get("conductivity", "background", float),
                inclusion=self._get("conductivity", "inclusion", float),
            )
        if kind == "file":
            path = self._resolve(self._get("conductivity", "path"), "conductivity.path")
            return load_conductivity(path, mesh.n_nodes)
        raise ValidationError(
            f"conductivity.kind must be homogeneous|inclusions|file, got {kind!r}"
        )

    def material(self) -> MaterialParams:
        return MaterialParams(self._get("material", "rho", float), self._get("material", "c", float))

    def fourier_params(self) -> FourierParams:
        """FourierParams from the [samples] keys named after its fields."""
        n_terms, *menus = fields(FourierParams)
        return FourierParams(self._get("samples", n_terms.name, int),
                             *(self._get("samples", menu.name, _parse_ranges) for menu in menus))

    def sample_counts(self) -> tuple[int, int, int]:
        """The [samples] count of each kind of field, in sampling.KINDS order."""
        return tuple(self._get("samples", kind, int) for kind in KINDS)

    @property
    def seed(self) -> int:
        return self._get("run", "seed", int)

    @property
    def dt(self) -> float:
        return self._get("train", "dt", float)

    @property
    def arch(self) -> str:
        return self._get("train", "arch")

    @property
    def activation(self) -> str:
        return self._get("train", "activation")

    def train_config(self, log_every: int):
        """training.TrainConfig of the [train] optimizer settings and the [run] seed."""
        from .training import TrainConfig  # loads neural, which only training commands need

        return TrainConfig(epochs=self._get("train", "epochs", int),
                           batch_size=self._get("train", "batch_size", int),
                           lr=self._get("train", "lr", float),
                           optimizer=self._get("train", "optimizer"),
                           seed=self.seed, log_every=log_every)

    def hidden_spec(self):
        """Layer widths, or None (the architecture default) when blank."""
        return self._get("train", "hidden", lambda text: tuple(int(t) for t in text.split())) or None

    def _resolve(self, value: str, key: str) -> Path:
        if not value:
            raise ValidationError(f"config key {key} is required here but empty")
        path = Path(value)
        if not path.is_absolute():
            path = self.base_dir / path
        if not path.exists():
            raise ValidationError(f"{key}: file not found: {path}")
        return path


def _parser(text: str) -> configparser.ConfigParser:
    # keys keep their case (boundary tags are case-sensitive); % is literal
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return parser


def load_run_config(path=None) -> RunConfig:
    """Read a config file layered over the defaults, None giving pure defaults; a
    [dirichlet] section in the file replaces the default left/right one whole."""
    parser = _parser(DEFAULT_CONFIG)
    if path is None:
        return RunConfig(DEFAULT_CONFIG, parser, Path.cwd(), "default config")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {p}")
    text = read_text(p)
    try:
        if _parser(text).has_section("dirichlet"):
            parser.remove_section("dirichlet")
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"bad config file {p}: {exc}") from exc
    return RunConfig(text, parser, p.parent.resolve(), str(p))
