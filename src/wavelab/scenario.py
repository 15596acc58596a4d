"""Scenario configuration: JSON schema, validation, presets, mesh assembly.

A scenario pins the interior domain box, element size, degree, media, PML
layers, stabilization weights, boundary reflection coefficients and the run
protocol.  The mesh extends beyond the interior box by the layer width on
each PML side.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from . import media as media_mod
from . import pml as pml_mod
from .errors import ConfigurationError
from .solver import SolverConfig, build_mesh

SCHEMA_VERSION = 1

PRESET_SCENARIOS = (
    "acoustic-waveguide",
    "elastic-iso-waveguide",
    "elastic-aniso-waveguide",
    "reference-run",
    "convergence-study",
)

_SIDES = ("west", "east", "south", "north")

_TOP_KEYS = {
    "schema", "name", "domain", "element_size", "degree", "medium", "pml",
    "theta", "boundaries", "cfl", "final_time", "stop_time", "initial",
    "receivers", "snapshot_times", "record_fields", "history_stride",
    "divergence_factor", "output_dir",
}


def _fail(key, message):
    raise ConfigurationError(f"{key}: {message}")


def _require(cond, key, message):
    if not cond:
        _fail(key, message)


def _is_int(value):
    # bool is an int subclass, but true/false is no degree or stride
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class PmlSettings:
    sides: tuple = ()
    width: float = 10.0
    tol: float = pml_mod.DEFAULT_TOL
    alpha: float = pml_mod.DEFAULT_ALPHA
    gamma: float = 1.0
    exponent: int = pml_mod.DEFAULT_EXPONENT
    d0: float | None = None  # explicit override of the tol-derived strength


@dataclass
class Scenario:
    name: str
    domain: tuple               # (x0, x1, y0, y1) interior extents
    element_size: float
    degree: int
    medium_cfg: dict
    pml: PmlSettings = field(default_factory=PmlSettings)
    theta_x: float = 1.0
    theta_y: float = 1.0
    boundaries: dict = field(default_factory=lambda: {s: 0.0 for s in _SIDES})
    cfl: float = 0.9
    final_time: float = 1.0
    stop_time: float | None = None
    initial: dict = field(default_factory=lambda: {"type": "gaussian-pulse"})
    receivers: tuple = ()
    snapshot_times: tuple = ()
    record_fields: bool = False
    history_stride: int | None = None
    divergence_factor: float = 1e4
    output_dir: str | None = None
    raw: dict = field(default_factory=dict)

    # -- assembly ---------------------------------------------------------

    def media_for(self, xc, yc):
        cfg = self.medium_cfg
        if "two" in cfg:
            m_a = media_mod.from_config(cfg["two"][0])
            m_b = media_mod.from_config(cfg["two"][1])
            axis = cfg["interface"]["axis"]
            pos = cfg["interface"]["position"]
            coord = xc if axis == "x" else yc
            return m_a if coord < pos else m_b
        return media_mod.from_config(cfg)

    def c_p_max(self):
        cfg = self.medium_cfg
        specs = cfg["two"] if "two" in cfg else [cfg]
        return max(media_mod.from_config(s).wave_speeds().c_p for s in specs)

    def pml_profiles(self):
        if not self.pml.sides:
            return []
        d0 = self.pml.d0
        if d0 is None:
            d0 = pml_mod.damping_strength(self.c_p_max(), self.pml.width,
                                          self.pml.tol)
        x0, x1, y0, y1 = self.domain
        anchor = {"west": ("x", x0, "low"), "east": ("x", x1, "high"),
                  "south": ("y", y0, "low"), "north": ("y", y1, "high")}
        profiles = []
        for side in self.pml.sides:
            axis, extent, orient = anchor[side]
            profiles.append(pml_mod.PmlProfile(
                axis=axis, interior_extent=extent, width=self.pml.width,
                d0=d0, exponent=self.pml.exponent, alpha=self.pml.alpha,
                gamma=self.pml.gamma, side=orient))
        return profiles

    def mesh_extents(self):
        x0, x1, y0, y1 = self.domain
        w = self.pml.width
        if "west" in self.pml.sides:
            x0 -= w
        if "east" in self.pml.sides:
            x1 += w
        if "south" in self.pml.sides:
            y0 -= w
        if "north" in self.pml.sides:
            y1 += w
        return x0, x1, y0, y1

    def build(self):
        """Returns (mesh, solver config) ready for solver.run."""
        x0, x1, y0, y1 = self.mesh_extents()
        mesh = build_mesh(x0, x1, y0, y1, self.element_size, self.degree,
                          self.media_for, self.boundaries,
                          profiles=self.pml_profiles())
        mesh.interior_box = self.domain
        ex = mesh.extents
        for i, (rx, ry) in enumerate(self.receivers):
            if not (ex[0] <= rx <= ex[1] and ex[2] <= ry <= ex[3]):
                _fail(f"receivers[{i}]", f"({rx}, {ry}) is outside the mesh")
        config = SolverConfig(theta_x=self.theta_x, theta_y=self.theta_y,
                              cfl=self.cfl, final_time=self.final_time,
                              stop_time=self.stop_time)
        return mesh, config

    def canonical_dict(self):
        return dict(self.raw)


def _validate_medium(cfg):
    if isinstance(cfg, str):
        return {"preset": cfg}
    _require(isinstance(cfg, dict), "medium", "must be a name or an object")
    if "two" in cfg:
        _require(len(cfg["two"]) == 2, "medium.two",
                 "needs exactly two medium specs")
        iface = cfg.get("interface")
        _require(isinstance(iface, dict), "medium.interface",
                 "required for piecewise media")
        _require(iface.get("axis") in ("x", "y"), "medium.interface.axis",
                 "must be 'x' or 'y'")
        _require(isinstance(iface.get("position"), (int, float)),
                 "medium.interface.position", "must be a number")
        for sub in cfg["two"]:
            media_mod.from_config(sub)
        return cfg
    media_mod.from_config(cfg)  # raises InvalidMediumError when malformed
    return cfg


def from_dict(data):
    """Validate a scenario dictionary; every invariant failure names its key."""
    _require(isinstance(data, dict), "scenario", "must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, sorted(unknown)[0] if unknown else "",
             "unknown configuration key")
    _require(data.get("schema") == SCHEMA_VERSION, "schema",
             f"must be {SCHEMA_VERSION}")

    dom = data.get("domain")
    _require(isinstance(dom, dict) and "x" in dom and "y" in dom, "domain",
             "must be an object with 'x' and 'y' ranges")
    try:
        x0, x1 = map(float, dom["x"])
        y0, y1 = map(float, dom["y"])
    except (TypeError, ValueError):
        _fail("domain", "ranges must be [lo, hi] numbers")
    _require(x1 > x0, "domain.x", "must be increasing")
    _require(y1 > y0, "domain.y", "must be increasing")

    dx = data.get("element_size")
    _require(isinstance(dx, (int, float)) and dx > 0, "element_size",
             "must be a positive number")

    def divides(span):
        ratio = span / dx
        return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio) \
            and round(ratio) >= 1

    _require(divides(x1 - x0), "element_size",
             f"{dx} does not divide the x extent {x1 - x0}")
    _require(divides(y1 - y0), "element_size",
             f"{dx} does not divide the y extent {y1 - y0}")

    degree = data.get("degree")
    _require(_is_int(degree) and 1 <= degree <= 12, "degree",
             "must be an integer in [1, 12]")

    medium_cfg = _validate_medium(data.get("medium"))

    pml_raw = data.get("pml", {})
    _require(isinstance(pml_raw, dict), "pml", "must be an object")
    sides = tuple(pml_raw.get("sides", ()))
    for s in sides:
        _require(s in _SIDES, "pml.sides", f"unknown side {s!r}")
    width = float(pml_raw.get("width", 10.0))
    if sides:
        _require(width > 0, "pml.width", "must be positive")
        _require(divides(width), "pml.width",
                 f"{width} does not span an integer number of "
                 f"size-{dx} elements")
    tol = float(pml_raw.get("tol", pml_mod.DEFAULT_TOL))
    _require(0 < tol <= 1, "pml.tol", "must lie in (0, 1]")
    alpha = float(pml_raw.get("alpha", pml_mod.DEFAULT_ALPHA))
    _require(alpha >= 0, "pml.alpha", "must be nonnegative")
    gamma = float(pml_raw.get("gamma", 1.0))
    _require(gamma > 0, "pml.gamma", "must be positive")
    exponent = int(pml_raw.get("exponent", pml_mod.DEFAULT_EXPONENT))
    _require(exponent >= 1, "pml.exponent", "must be >= 1")
    d0 = pml_raw.get("d0")
    if d0 is not None:
        _require(float(d0) >= 0, "pml.d0", "must be nonnegative")
        d0 = float(d0)
    pml_settings = PmlSettings(sides=sides, width=width, tol=tol, alpha=alpha,
                               gamma=gamma, exponent=exponent, d0=d0)

    theta = data.get("theta", {})
    theta_x = float(theta.get("x", 1.0))
    theta_y = float(theta.get("y", 1.0))
    for key, val in (("theta.x", theta_x), ("theta.y", theta_y)):
        _require(0.0 <= val <= 1.0, key, "must lie in [0, 1]")

    bounds = dict(data.get("boundaries", {}))
    r = {}
    for s in _SIDES:
        r[s] = float(bounds.get(s, 0.0))
        _require(abs(r[s]) <= 1.0, f"boundaries.{s}",
                 f"reflection coefficient must lie in [-1, 1], got {r[s]}")
    for s in bounds:
        _require(s in _SIDES, "boundaries", f"unknown side {s!r}")

    cfl = float(data.get("cfl", 0.9))
    _require(0 < cfl <= 1.0, "cfl", "must lie in (0, 1]")

    final_time = float(data.get("final_time", 1.0))
    _require(final_time > 0, "final_time", "must be positive")
    stop_time = data.get("stop_time")
    if stop_time is not None:
        stop_time = float(stop_time)
        _require(0 < stop_time <= final_time, "stop_time",
                 "must lie in (0, final_time]")

    initial = data.get("initial", {"type": "gaussian-pulse"})
    _require(isinstance(initial, dict), "initial", "must be an object")
    _require(initial.get("type", "gaussian-pulse") in
             ("gaussian-pulse", "standing-mode", "zero"), "initial.type",
             "must be gaussian-pulse, standing-mode or zero")

    receivers = tuple(tuple(map(float, p)) for p in data.get("receivers", ()))
    snapshot_times = tuple(float(t) for t in data.get("snapshot_times", ()))
    for i, t in enumerate(snapshot_times):
        _require(0 <= t <= final_time, f"snapshot_times[{i}]",
                 "must lie in [0, final_time]")

    divergence = float(data.get("divergence_factor", 1e4))
    _require(divergence > 1, "divergence_factor", "must exceed 1")

    stride = data.get("history_stride")
    if stride is not None:
        _require(_is_int(stride) and stride >= 1, "history_stride",
                 "must be a positive integer")

    return Scenario(
        name=str(data.get("name", "scenario")),
        domain=(x0, x1, y0, y1),
        element_size=float(dx),
        degree=degree,
        medium_cfg=medium_cfg,
        pml=pml_settings,
        theta_x=theta_x,
        theta_y=theta_y,
        boundaries=r,
        cfl=cfl,
        final_time=final_time,
        stop_time=stop_time,
        initial=initial,
        receivers=receivers,
        snapshot_times=snapshot_times,
        record_fields=bool(data.get("record_fields", False)),
        history_stride=stride,
        divergence_factor=divergence,
        output_dir=data.get("output_dir"),
        raw=data,
    )


def parse_scenario(path):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: malformed JSON ({exc})") from None
    return from_dict(data)


def load_preset(name):
    """Load one of the shipped scenario presets by name."""
    if name not in PRESET_SCENARIOS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {PRESET_SCENARIOS}")
    ref = resources.files("wavelab").joinpath("presets", f"{name}.json")
    return from_dict(json.loads(ref.read_text(encoding="utf-8")))


def run_scenario(scenario):
    """Build and execute a scenario; returns the RunRecord."""
    from .solver import run

    mesh, config = scenario.build()
    return run(mesh, config,
               initial=scenario.initial,
               receivers=scenario.receivers,
               snapshot_times=scenario.snapshot_times,
               record_fields=scenario.record_fields,
               history_stride=scenario.history_stride,
               divergence_factor=scenario.divergence_factor)


def with_overrides(scenario, **overrides):
    """Re-validate a scenario with selected fields replaced.

    Supported overrides: theta_x, theta_y, tol, d0, degree, cfl, final_time,
    stop_time, record_fields, output_dir, divergence_factor, history_stride.
    """
    data = json.loads(json.dumps(scenario.raw))  # deep copy
    mapping = {
        "theta_x": ("theta", "x"),
        "theta_y": ("theta", "y"),
        "tol": ("pml", "tol"),
        "d0": ("pml", "d0"),
    }
    for key, val in overrides.items():
        if val is None:
            continue
        if key in mapping:
            group, sub = mapping[key]
            data.setdefault(group, {})[sub] = val
        elif key in _TOP_KEYS:
            data[key] = val
        else:
            raise ConfigurationError(f"unknown override {key!r}")
    return from_dict(data)
