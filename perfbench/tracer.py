"""Per-layer tracing: spans around wavelab's functions, kept in memory.

The tracer rebinds each traced function on the namespace its callers read it
from (a module global or a class attribute), records one span per call
(group, start, end, parent span) and restores every attribute on exit, also
when the traced code raises.  Self time is a span's duration minus the
durations of the spans nested directly inside it.
"""

import csv
import gzip
import inspect
from time import perf_counter

import numpy as np

import wavelab.solver
from wavelab import analysis, cli, diagnostics, media, scenario
from wavelab.solver import core, fluxes
from workloads import record_dofs


def _count_elements(tracer, bound, mesh):
    tracer.elements += mesh.K * mesh.L


def _note_scan(tracer, bound, result):
    tracer.scans.append(tuple(bound.arguments.values()))


# (namespace, attribute, span group, observer of the bound arguments and
# result).  Spans of one group share a name; a group's time counts only its
# outermost spans, so load_preset calling from_dict is counted once.
TARGETS = (
    (scenario, "load_preset", "scenario.load", None),
    (scenario, "from_dict", "scenario.load", None),
    (scenario, "with_overrides", "scenario.load", None),
    (scenario.Scenario, "build", "scenario.build", None),
    (scenario, "build_mesh", "solver.mesh.build", _count_elements),
    (wavelab.solver, "run", "solver.core.run", None),
    (core, "advance", "solver.core.advance", None),
    (core, "rhs", "solver.core.rhs", None),
    (fluxes, "acoustic_face_fluctuations", "solver.fluxes.face", None),
    (fluxes, "elastic_face_fluctuations", "solver.fluxes.face", None),
    (fluxes, "acoustic_boundary_fluctuation", "solver.fluxes.boundary", None),
    (fluxes, "elastic_boundary_fluctuation", "solver.fluxes.boundary", None),
    (diagnostics, "discrete_energy", "diagnostics.energy", None),
    (diagnostics, "linf_norm", "diagnostics.linf", None),
    (diagnostics, "pml_error", "diagnostics.pml_error", None),
    (cli, "write_run_artifacts", "cli.write", None),
    (cli, "_write_csv", "cli.write", None),
    (cli, "_write_metadata", "cli.write", None),
    (analysis, "slowness_scan", "analysis.slowness_scan", _note_scan),
    (analysis, "dispersion_roots", "analysis.dispersion", None),
    (analysis, "group_velocity", "analysis.group_velocity", None),
    (media.AcousticMedium, "coefficient_matrices",
     "media.coefficient_matrices", None),
    (media.ElasticMedium2D, "coefficient_matrices",
     "media.coefficient_matrices", None),
)

# per-layer metric -> unit; the order is the order of the report
UNITS = {
    "scenario.load_s": "s",
    "scenario.build_s": "s",
    "solver.mesh.build_s": "s",
    "solver.mesh.elements": "count",
    "solver.core.steps": "count",
    "solver.core.dofs": "count",
    "solver.core.rhs_calls": "count",
    "solver.core.rhs_us": "us",
    "solver.core.rhs_self_us": "us",
    "solver.core.advance_calls": "count",
    "solver.core.advance_self_us": "us",
    "solver.core.run_self_s": "s",
    "solver.core.rhs_flops_computed": "flop",
    "solver.core.rhs_bytes_computed": "B",
    "solver.core.rhs_flops_per_byte_computed": "flop/B",
    "solver.fluxes.face_calls": "count",
    "solver.fluxes.face_us": "us",
    "solver.fluxes.boundary_calls": "count",
    "solver.fluxes.boundary_us": "us",
    "diagnostics.energy_calls": "count",
    "diagnostics.energy_us": "us",
    "diagnostics.linf_us": "us",
    "diagnostics.pml_error_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "analysis.slowness_scans": "count",
    "analysis.scan_useful_ratio": "ratio",
    "analysis.dispersion_calls": "count",
    "analysis.dispersion_us": "us",
    "analysis.group_velocity_us": "us",
    "media.coefficient_matrices_calls": "count",
    "media.coefficient_matrices_us": "us",
    "trace.overhead_frac": "ratio",
}

# metrics that must repeat exactly between jobs of the same inputs
COUNTS = tuple(name for name, unit in UNITS.items()
               if unit in ("count", "flop", "B", "flop/B")) + (
                   "analysis.scan_useful_ratio",)


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans = []      # (target index, start, end, parent span index)
        self.elements = 0
        self.scans = []
        self._stack = []
        self._originals = []

    def __enter__(self):
        try:
            for index, (owner, attr, _, observe) in enumerate(TARGETS):
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original, observe))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, index, original, observe):
        spans, stack, clock = self.spans, self._stack, perf_counter
        signature = inspect.signature(original) if observe else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound, result)
            return result

        return traced

    def table(self):
        """Spans as arrays: group name, start, end, parent, self time."""
        groups = np.array([TARGETS[s[0]][2] for s in self.spans],
                          dtype=object)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=int)
        dur = end - start
        child = np.zeros(len(self.spans))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return SpanTable(groups, start, end, parent, dur - child)

    def write(self, path):
        """Write the spans as gzipped CSV, times in seconds from the first
        span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "group", "function", "start_s",
                          "end_s"])
            for i, (index, start, end, parent) in enumerate(self.spans):
                owner, attr, group, _ = TARGETS[index]
                out.writerow([i, parent, group,
                              f"{owner.__name__}.{attr}",
                              repr(start - t0), repr(end - t0)])


class SpanTable:
    """Column view of a tracer's spans."""

    def __init__(self, groups, start, end, parent, self_time):
        self.groups = groups
        self.start = start
        self.end = end
        self.parent = parent
        self.self_time = self_time
        self.duration = end - start

    def mask(self, group):
        return self.groups == group

    def count(self, group):
        return int(self.mask(group).sum())

    def mean_us(self, group, self_time=False):
        m = self.mask(group)
        values = (self.self_time if self_time else self.duration)[m]
        return 1e6 * float(values.mean()) if values.size else 0.0

    def total(self, group, self_time=False):
        """Seconds in a group, counting only spans with no ancestor of the
        same group (or the summed self time of all its spans)."""
        m = self.mask(group)
        if self_time:
            return float(self.self_time[m].sum())
        if not m.any():
            return 0.0
        member = m.tolist()
        inside = [False] * len(member)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = member[p] or inside[p]
        return float(self.duration[m & ~np.array(inside, dtype=bool)].sum())


def rhs_work(mesh):
    """(flops, bytes) of one ``core.rhs`` call, computed from array shapes.

    A model, not a measurement: each numpy pass over an array of s values
    reads its operands and writes its result once (8 bytes a value), and
    caches are ignored.  With E = K L elements, N = E m n^2 nodal values,
    F = E m n face values per side and per axis, and Nx, Ny the nodal
    values of the elements with active x / y PML columns:

    * volume terms, per axis: derivative 2n N flops and 2N values moved,
      coefficient product 2m N and 2N, metric scaling N and 2N;
    * fluctuations, per axis: ``flux_flops`` per face value on all faces,
      reading both traces and writing the result (3 per face value);
    * lift, per axis: zero-filled N-value array plus two face slices of
      2F flops, 2F values moved each;
    * combining the four terms: 3N flops, 9N values moved;
    * PML auxiliary update: 5 flops and 19 values moved per active value;
    * the P multiply: 2m N flops, 2N values moved.
    """
    K, L, m, n = mesh.K, mesh.L, mesh.m, mesh.n
    N = K * L * m * n * n
    F = K * L * m * n
    Nx = len(mesh.active_x) * L * m * n * n
    Ny = K * len(mesh.active_y) * m * n * n
    flux_flops = 7 if mesh.acoustic else 9   # per face value, from fluxes.py
    flops = (2 * (2 * n + 2 * m + 1) * N
             + 2 * flux_flops * 2 * F
             + 2 * 4 * F
             + 3 * N
             + 5 * (Nx + Ny)
             + 2 * m * N)
    values = (2 * 6 * N
              + 2 * 3 * 2 * F
              + 2 * (N + 4 * F)
              + 9 * N
              + 19 * (Nx + Ny)
              + 2 * N)
    return flops, 8 * values


def layer_metrics(tracer, job):
    """Per-layer metrics of one traced job (``trace.overhead_frac`` aside)."""
    t = tracer.table()
    steps = sum(len(rec.times) - 1 for rec, _ in job.runs)
    dofs = 0
    flops = nbytes = 0
    for rec, _ in job.runs:
        dofs += record_dofs(rec)
        f, b = rhs_work(rec.mesh)
        calls = 4 * (len(rec.times) - 1)
        flops += f * calls
        nbytes += b * calls
    scans = len(tracer.scans)
    return {
        "scenario.load_s": t.total("scenario.load"),
        "scenario.build_s": t.total("scenario.build"),
        "solver.mesh.build_s": t.total("solver.mesh.build"),
        "solver.mesh.elements": tracer.elements,
        "solver.core.steps": steps,
        "solver.core.dofs": dofs,
        "solver.core.rhs_calls": t.count("solver.core.rhs"),
        "solver.core.rhs_us": t.mean_us("solver.core.rhs"),
        "solver.core.rhs_self_us": t.mean_us("solver.core.rhs", True),
        "solver.core.advance_calls": t.count("solver.core.advance"),
        "solver.core.advance_self_us": t.mean_us("solver.core.advance", True),
        "solver.core.run_self_s": t.total("solver.core.run", True),
        "solver.core.rhs_flops_computed": flops,
        "solver.core.rhs_bytes_computed": nbytes,
        "solver.core.rhs_flops_per_byte_computed":
            flops / nbytes if nbytes else 0.0,
        "solver.fluxes.face_calls": t.count("solver.fluxes.face"),
        "solver.fluxes.face_us": t.mean_us("solver.fluxes.face"),
        "solver.fluxes.boundary_calls": t.count("solver.fluxes.boundary"),
        "solver.fluxes.boundary_us": t.mean_us("solver.fluxes.boundary"),
        "diagnostics.energy_calls": t.count("diagnostics.energy"),
        "diagnostics.energy_us": t.mean_us("diagnostics.energy"),
        "diagnostics.linf_us": t.mean_us("diagnostics.linf"),
        "diagnostics.pml_error_s": t.total("diagnostics.pml_error"),
        "cli.write_s": t.total("cli.write"),
        "cli.bytes_written": job.bytes_written,
        "analysis.slowness_scans": scans,
        "analysis.scan_useful_ratio":
            len(set(tracer.scans)) / scans if scans else 0.0,
        "analysis.dispersion_calls": t.count("analysis.dispersion"),
        "analysis.dispersion_us": t.mean_us("analysis.dispersion"),
        "analysis.group_velocity_us": t.mean_us("analysis.group_velocity"),
        "media.coefficient_matrices_calls":
            t.count("media.coefficient_matrices"),
        "media.coefficient_matrices_us":
            t.mean_us("media.coefficient_matrices"),
    }
