"""Scenario configuration: JSON schema, validation, presets, mesh assembly.

A scenario pins the interior domain box, element size, degree, media, PML
layers, stabilization weights, boundary reflection coefficients and the run
protocol; the mesh extends beyond the box by the layer width on each PML
side.  ``SCHEMA`` has one row per key: its kind (its type, and a range that
no solver object owns) and its default.  ``from_dict`` reads a scenario in
one walk, builds the solver's objects and checks the rules relating keys.
"""

import json
import math
from dataclasses import fields
from importlib import resources
from numbers import Integral, Real
from types import SimpleNamespace

from . import media as media_mod
from . import pml as pml_mod
from .errors import ConfigurationError, InvalidMediumError
from .operators import MAX_DEGREE
from .solver import SolverConfig, build_mesh, timestep_formula
from .solver.mesh import inside, layout, reflection_coefficients

SCHEMA_VERSION = 1

# Bounds on what a scenario may ask the solver to allocate and step, checked
# before a mesh is built: the largest shipped runs have 30,000 unknowns and
# about 17,000 steps.
MAX_UNKNOWNS = 10**7
MAX_STEPS = 10**7

PRESET_SCENARIOS = ("acoustic-waveguide", "elastic-iso-waveguide",
                    "elastic-aniso-waveguide", "reference-run",
                    "convergence-study")

# -- kinds: each reads a value, checks it and returns it resolved -------------
class Invalid(Exception):
    """A value that breaks its row; ``path`` gathers its keys, innermost
    first, as it passes out through objects and lists."""
    def __init__(self, message, *path):
        super().__init__(message)
        self.path = list(path)


REQUIRED = object()  # the default of a key that must be given


def number(interval=None, whole=False):
    """A number, never a bool; an int if ``whole``.  Any float, NaN and inf
    included, unless an ``interval`` such as "(0, 1]" bounds it: then open
    ends become the nearest float inside, so inf never fits."""
    if interval:
        lo, hi = (float(b) for b in interval[1:-1].split(","))
        lo = math.nextafter(lo, math.inf) if interval[0] == "(" else lo
        hi = math.nextafter(hi, -math.inf) if interval[-1] == ")" else hi
    cast, abc = (int, Integral) if whole else (float, Real)

    def read(value):
        t = type(value)
        if t not in (cast, int) and (t is bool or not isinstance(value, abc)):
            raise Invalid(f"must be {'an integer' if whole else 'a number'}"
                          f", got {value!r}")
        if interval and not lo <= value <= hi:
            raise Invalid(f"must lie in {interval}, got {value!r}")
        return value if t is cast else cast(value)
    return read


def of_type(cls, what):
    def read(value):
        if not isinstance(value, cls):
            raise Invalid(f"must be {what}, got {value!r}")
        return value
    return read


def one_of(*choices):
    def read(value):
        if isinstance(value, bool) or value not in choices:
            raise Invalid(f"must be one of {', '.join(map(repr, choices))}"
                          f", got {value!r}")
        return value
    return read


def list_of(item, length=None):
    """A list of ``item`` values, read to a tuple."""
    def read(value):
        if not isinstance(value, (list, tuple)) or (
                length and len(value) != length):
            of = f" of {length} items" if length else ""
            raise Invalid(f"must be a list{of}, got {value!r}")
        out = []
        try:
            for v in value:
                out.append(item(v))
        except Invalid as exc:
            exc.path.append(len(out))
            raise
        return tuple(out)
    return read


def obj(rows):
    """A JSON object whose keys are the rows of a table, key -> (kind,
    default).  Defaults are read once, here.  A REQUIRED key must be given; a
    key with default None is optional and reads to None when absent or null."""
    reads = {key: kind if default is not None else
             (lambda v, kind=kind: None if v is None else kind(v))
             for key, (kind, default) in rows.items()}
    defaults = {key: None if default in (None, REQUIRED) else kind(default)
                for key, (kind, default) in rows.items()}
    required = [key for key, (_, d) in rows.items() if d is REQUIRED]
    nested = [key for key, d in defaults.items() if type(d) is dict]

    def read(value):
        if not isinstance(value, dict):
            raise Invalid(f"must be an object, got {value!r}")
        out = defaults.copy()
        for key, v in value.items():
            if key not in reads:  # named as text, under the object
                raise Invalid(f"unknown configuration key {key!r}")
            try:
                out[key] = reads[key](v)
            except Invalid as exc:
                exc.path.append(key)
                raise
        if len(value) < len(rows):  # some keys are absent
            for key in required:
                if key not in value:
                    raise Invalid("is required", key)
            for key in nested:  # a nested object's defaults, copied
                if key not in value:
                    out[key] = dict(out[key])
        return out
    return read


_MEDIUM_SPECS = {kind: obj({"type": (one_of(kind), REQUIRED)} | {
    f.name: (number(), REQUIRED) for f in fields(cls)}) for kind, cls in (
        ("acoustic", media_mod.AcousticMedium),
        ("elastic", media_mod.ElasticMedium2D))}
_MEDIUM_SPECS["preset"] = obj({"preset": (one_of(*media_mod.PRESETS),
                                          REQUIRED)})


def medium(value):
    """One medium, read to the medium object: a preset name, ``{"preset":
    name}`` or acoustic or elastic parameters, which the medium checks."""
    spec = {"preset": value} if isinstance(value, str) else value
    if not isinstance(spec, dict):
        raise Invalid("must be a medium preset name or an object")
    kind = "preset" if "preset" in spec else spec.get("type")
    if not (isinstance(kind, str) and kind in _MEDIUM_SPECS):
        raise Invalid(f"must be 'acoustic' or 'elastic', got {kind!r}", "type")
    _MEDIUM_SPECS[kind](spec)
    try:
        return media_mod.from_config(value)
    except InvalidMediumError as exc:
        raise Invalid(str(exc)) from None


_TWO_MEDIA = obj({
    "two": (list_of(medium, length=2), REQUIRED),
    "interface": (obj({"axis": (one_of("x", "y"), REQUIRED),
                       "position": (number(), REQUIRED)}), REQUIRED)})


def media(value):
    """The medium key: one medium, or two split at an interface; read to
    (media, (axis, position) or None)."""
    if isinstance(value, dict) and "two" in value:
        v = _TWO_MEDIA(value)
        first, second = v["two"]
        if media_mod.is_acoustic(first) != media_mod.is_acoustic(second):
            raise Invalid("must be of the same system (acoustic or elastic) "
                          "as medium.two[0]", 1, "two")
        return v["two"], (v["interface"]["axis"], v["interface"]["position"])
    return (medium(value),), None


_RANGE = list_of(number("(-inf, inf)"), length=2)
_POSITIVE = number("(0, inf)")
_COUNT = number("[1, inf)", whole=True)
_STRING = of_type(str, "a string")

SCHEMA = obj({
    "schema": (one_of(SCHEMA_VERSION), REQUIRED),
    "name": (_STRING, "scenario"),
    "domain": (obj({"x": (_RANGE, REQUIRED), "y": (_RANGE, REQUIRED)}),
               REQUIRED),
    "element_size": (_POSITIVE, REQUIRED),
    "degree": (number(f"[1, {MAX_DEGREE}]", whole=True), REQUIRED),
    "medium": (media, REQUIRED),
    "pml": (obj({
        "sides": (list_of(_STRING), ()),
        "width": (number(), pml_mod.DEFAULT_WIDTH),
        "tol": (number("(0, 1]"), pml_mod.DEFAULT_TOL),
        "alpha": (number(), pml_mod.DEFAULT_ALPHA),
        "gamma": (number(), 1.0),
        "exponent": (number(whole=True), pml_mod.DEFAULT_EXPONENT),
        "d0": (number(), None),  # overrides the tol-derived d0
    }), {}),
    "theta": (obj({"x": (number(), 1.0), "y": (number(), 1.0)}), {}),
    "boundaries": (obj({s: (number(), 0.0) for s in pml_mod.SIDES}), {}),
    "cfl": (number(), 0.9),
    "final_time": (number(), 1.0),
    "stop_time": (number(), None),
    "initial": (obj({
        "type": (one_of("gaussian-pulse", "standing-mode", "zero"),
                 "gaussian-pulse"),
        "center": (_RANGE, None),  # None: x = 0, mid-height of the domain
        "width_sq": (_POSITIVE, 9.0),
        "nx": (_COUNT, 1),
        "ny": (_COUNT, 1),
    }), {}),
    "receivers": (list_of(_RANGE), ()),  # inside the mesh
    "snapshot_times": (list_of(number("[0, inf)")), ()),  # to stop_time
    "record_fields": (of_type(bool, "true or false"), False),
    "history_stride": (_COUNT, None),
    "divergence_factor": (number("(1, inf)"), 1e4),
    "output_dir": (_STRING, None),
})


class Scenario(SimpleNamespace):
    """The keys of ``SCHEMA``, resolved, as attributes; but ``domain`` is
    (x0, x1, y0, y1), ``medium`` is ``media`` (one or two) and ``interface``
    ((axis, position) or None), and ``theta`` is ``theta_x``, ``theta_y``;
    ``c_p_max`` (the largest c_p), ``layers`` and ``config`` are built once."""

    def build(self):
        """Returns (mesh, solver config) ready for solver.run."""
        return build_mesh(*self.domain, self.element_size, self.degree,
                          self.media, self.boundaries, layers=self.layers,
                          interface=self.interface), self.config

    def canonical_dict(self):
        return dict(self.raw)


def from_dict(data):
    """Validate a scenario dictionary against ``SCHEMA`` and resolve it; every
    failure names its key path."""
    try:
        v = SCHEMA(data)
    except Invalid as exc:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                       for k in reversed(exc.path))[1:] or "scenario"
        raise ConfigurationError(f"{path}: {exc}") from None
    size, pml = v["element_size"], SimpleNamespace(**v["pml"])
    v["pml"], v["domain"] = pml, (*v["domain"]["x"], *v["domain"]["y"])
    v["media"], v["interface"] = v.pop("medium")
    theta, _ = v.pop("theta"), v.pop("schema")
    try:
        c_p_max = media_mod.max_wave_speed(v["media"])
    except InvalidMediumError as exc:
        raise ConfigurationError(f"medium: {exc}") from None
    mx0, mx1, my0, my1 = layout(v["domain"], size, pml.sides, pml.width,
                                v["interface"])[2]
    d0 = pml.d0
    if d0 is None:  # tol-derived; with sides, layout has found the width > 0
        d0 = (pml_mod.damping_strength(c_p_max, pml.width, pml.tol)
              if pml.sides else 0.0)
    layers = pml_mod.Layers(pml.sides, pml.width, d0, pml.exponent,
                            pml.alpha, pml.gamma)
    config = SolverConfig(theta["x"], theta["y"], v["cfl"], v["final_time"],
                          v["stop_time"])
    v["boundaries"] = reflection_coefficients(v["boundaries"])
    labels = {}  # snapshot file label -> index of the time that first has it
    end = "final_time" if v["stop_time"] is None else "stop_time"
    for i, t in enumerate(v["snapshot_times"]):
        if t > v[end]:
            raise ConfigurationError(
                f"snapshot_times[{i}]: must lie in [0, {end}]")
        j = labels.setdefault(f"{t:g}", i)
        if j != i:
            raise ConfigurationError(
                f"snapshot_times[{i}]: {t!r} writes snapshot_t{t:g}.csv, "
                f"the file of snapshot_times[{j}]")
    if v["initial"]["type"] == "standing-mode" and (
            v["interface"] or not media_mod.is_acoustic(v["media"][0])):
        raise ConfigurationError("initial.type: standing-mode is exact only "
                                 "for one uniform acoustic medium")
    sc = Scenario(**v, raw=data, theta_x=theta["x"], theta_y=theta["y"],
                  c_p_max=c_p_max, layers=layers, config=config)
    # floats, so a huge count compares (as inf at worst) instead of raising
    fields = 3 if media_mod.is_acoustic(sc.media[0]) else 5
    unknowns = ((mx1 - mx0) / size) * ((my1 - my0) / size) * fields * (
        sc.degree + 1) ** 2
    if unknowns > MAX_UNKNOWNS:
        raise ConfigurationError(
            f"element_size: {size} gives {unknowns:.3g} unknowns, more than "
            f"{MAX_UNKNOWNS:.0e}")
    dt = timestep_formula(sc.cfl, sc.degree, sc.c_p_max, size)
    steps = sc.final_time / dt  # above MAX_STEPS exactly when its ceil is
    if steps > MAX_STEPS:
        raise ConfigurationError(
            f"final_time: {sc.final_time} takes {steps:.3g} steps of "
            f"{dt:.3g} s, more than {MAX_STEPS:.0e}")
    for i, (rx, ry) in enumerate(sc.receivers):
        if not (inside(rx, mx0, mx1, size) and inside(ry, my0, my1, size)):
            raise ConfigurationError(
                f"receivers[{i}]: ({rx}, {ry}) is outside the mesh")
    return sc


def parse_scenario(path):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}") from None
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigurationError(f"cannot read scenario file {path}: "
                                 f"{exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # syntax, encoding, depth
        raise ConfigurationError(f"{path}: malformed JSON ({exc})") from None
    return from_dict(data)


def load_preset(name):
    """Load one of the shipped scenario presets by name."""
    if name not in PRESET_SCENARIOS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {PRESET_SCENARIOS}")
    ref = resources.files("wavelab").joinpath("presets", f"{name}.json")
    return from_dict(json.loads(ref.read_text(encoding="utf-8")))


def load(name_or_path):
    """The shipped preset of that name, else the scenario JSON at that path."""
    if name_or_path in PRESET_SCENARIOS:
        return load_preset(name_or_path)
    return parse_scenario(name_or_path)


def run_scenario(scenario, on_sample=None):
    """Build and run a scenario (on_sample: see solver.run); the RunRecord."""
    from .solver import run

    mesh, config = scenario.build()
    return run(mesh, config,
               initial=scenario.initial,
               receivers=scenario.receivers,
               snapshot_times=scenario.snapshot_times,
               record_fields=scenario.record_fields,
               history_stride=scenario.history_stride,
               divergence_factor=scenario.divergence_factor,
               on_sample=on_sample)


def with_overrides(scenario, **overrides):
    """Re-validate a scenario with fields replaced: theta_x, theta_y, tol,
    d0, or any top-level key (degree, cfl, final_time, stop_time, ...)."""
    data = json.loads(json.dumps(scenario.raw))  # deep copy
    nested = {"theta_x": ("theta", "x"), "theta_y": ("theta", "y"),
              "tol": ("pml", "tol"), "d0": ("pml", "d0")}
    for key, val in overrides.items():
        if val is not None and key in nested:
            group, sub = nested[key]
            data.setdefault(group, {})[sub] = val
        elif val is not None:  # from_dict turns an unknown key away
            data[key] = val
    return from_dict(data)
