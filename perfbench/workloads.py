"""Benchmark workloads: seeded inputs, one batch job each, and output checks.

Each workload is a job a user runs through wavelab's public API:

* ``acoustic-pml``: the acoustic waveguide with its east PML, one receiver
  and no snapshots.  Small arrays per numpy call, so it is dominated by the
  per-call overhead of ``rhs`` and the fluxes; pure stepping.
* ``elastic-snapshots``: the isotropic elastic waveguide with receivers and
  snapshots.  Larger arrays, the elastic flux path, and megabytes of CSV.
* ``abc-comparison``: ``cli.compare_abc`` (PML run, ABC run and a
  double-width reference run, all recording field history).  Memory heavy.
* ``media-analysis``: ``cli.write_analysis_artifacts`` on two preset media
  and one seeded orthotropic medium.  Runs no solver code at all.

A job is ``setup`` (what the job's command does before it computes: load,
validation and ``Scenario.build``, loading and validation only for
``abc-comparison``, or building the seeded medium) followed by ``execute``.
Outputs are checked in two ways: every run must pass the physical checks of
:meth:`Workload.check`, and for the seeds in ``REFERENCE_SEEDS`` a summary of
the outputs must match the one stored in ``reference.json`` within
``SERIES_RTOL`` / ``SCALAR_RTOL`` (see :func:`compare`).
"""

import copy
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import wavelab.solver
from wavelab import analysis, cli, media, scenario

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# seeds whose output summaries reference.json stores
REFERENCE_SEEDS = range(16)

# Relative tolerances of the reference comparison.  A series is compared to
# 1e-9 of its largest magnitude: far above the rounding noise of a faithful
# reordering of floating-point sums, far below a 1e-6 change of any value.
SERIES_RTOL = 1e-9
# Stability products come from central differences with a 1e-6 relative
# step, which amplifies rounding differences by about 1e6.
SCALAR_RTOL = 1e-7

# points at which a stored series is sampled (plus its length and sum)
_SERIES_SAMPLES = 17


def series_summary(values):
    """Length, evenly spaced samples and sum of a 1-D series."""
    x = np.asarray(values, dtype=float)
    idx = np.unique(np.linspace(0, x.size - 1, _SERIES_SAMPLES).round()
                    .astype(int))
    return {"n": int(x.size), "samples": [float(v) for v in x[idx]],
            "sum": float(x.sum())}


def _is_series(node):
    return isinstance(node, dict) and set(node) == {"n", "samples", "sum"}


def compare(reference, got, path="result"):
    """List the mismatches between a stored summary and a fresh one.

    Series match when lengths are equal and every sample and the sum lie
    within ``SERIES_RTOL`` of the series' largest sample magnitude (the sum
    within that times the length).  Floats elsewhere match within
    ``SCALAR_RTOL`` relative; strings and integers must be equal.
    """
    if _is_series(reference):
        if not _is_series(got) or got["n"] != reference["n"]:
            return [f"{path}: series length differs"]
        scale = max(abs(v) for v in reference["samples"]) or 1.0
        tol = SERIES_RTOL * scale
        bad = [i for i, (a, b) in enumerate(zip(reference["samples"],
                                                got["samples"]))
               if not abs(a - b) <= tol]
        out = [f"{path}: sample {i} is {got['samples'][i]!r}, "
               f"reference {reference['samples'][i]!r}" for i in bad[:3]]
        if not abs(got["sum"] - reference["sum"]) <= tol * reference["n"]:
            out.append(f"{path}: sum is {got['sum']!r}, "
                       f"reference {reference['sum']!r}")
        return out
    if isinstance(reference, dict):
        if not isinstance(got, dict) or set(got) != set(reference):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(reference):
            out += compare(reference[key], got[key], f"{path}.{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(got, list) or len(got) != len(reference):
            return [f"{path}: length differs"]
        out = []
        for i, (a, b) in enumerate(zip(reference, got)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    if isinstance(reference, float):
        ok = abs(got - reference) <= SCALAR_RTOL * abs(reference) + 1e-300
        return [] if ok else [f"{path}: {got!r}, reference {reference!r}"]
    return [] if got == reference else [
        f"{path}: {got!r}, reference {reference!r}"]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    """Timings and outputs of one job."""

    wall_s: float
    setup_s: float
    execute_s: float
    runs: list            # (RunRecord, seconds in solver.run) per solver run
    payload: object       # what the workload's execute returned
    out_dir: Path
    bytes_written: int = 0


@contextmanager
def captured_runs(sink):
    """Collect (record, seconds) of every ``wavelab.solver.run`` call.

    ``scenario.run_scenario`` (used by ``cli.compare_abc``) and the solver
    workloads both look ``run`` up on the ``wavelab.solver`` package, so
    rebinding that attribute sees every solver run.
    """
    original = wavelab.solver.run

    def run(*args, **kwargs):
        start = perf_counter()
        record = original(*args, **kwargs)
        sink.append((record, perf_counter() - start))
        return record

    wavelab.solver.run = run
    try:
        yield
    finally:
        wavelab.solver.run = original


def run_job(workload, inputs, out_dir):
    """Set up and execute one job, timing both; artifacts go to out_dir."""
    runs = []
    with captured_runs(runs):
        t0 = perf_counter()
        prepared = workload.setup(inputs)
        t1 = perf_counter()
        payload = workload.execute(prepared, out_dir)
        t2 = perf_counter()
    size = sum(p.stat().st_size for p in Path(out_dir).rglob("*")
               if p.is_file())
    return Job(wall_s=t2 - t0, setup_s=t1 - t0, execute_s=t2 - t1, runs=runs,
               payload=payload, out_dir=Path(out_dir), bytes_written=size)


def record_dofs(record):
    """Unknowns advanced by the solver: U plus the PML auxiliary fields."""
    s = record.final_state
    return s.U.size + s.w_x.size + s.w_y.size


def _uniform(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _check_record(record, label):
    problems = []
    if record.status != "completed":
        problems.append(f"{label}: status {record.status}")
    s = record.final_state
    if not all(np.isfinite(a).all() for a in (s.U, s.w_x, s.w_y)):
        problems.append(f"{label}: non-finite final state")
    if not record.energy[-1] <= record.energy[0]:
        problems.append(f"{label}: energy grew from {record.energy[0]!r} "
                        f"to {record.energy[-1]!r}")
    if len(record.times) != record.n_steps + 1:
        problems.append(f"{label}: {len(record.times) - 1} of "
                        f"{record.n_steps} steps taken")
    return problems


def _missing_files(out_dir, names):
    return [f"missing artifact {name}" for name in names
            if not (Path(out_dir) / name).is_file()]


class Workload:
    """Seeded inputs, a job in two timed phases, and checks of its outputs.

    Subclasses are dataclasses with ``name`` and ``why`` fields.
    """

    def inputs(self, seed):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def execute(self, prepared, out_dir):
        raise NotImplementedError

    def summary(self, job):
        """JSON-able values compared against ``reference.json``."""
        raise NotImplementedError

    def check(self, job):
        """Problems found in a job's outputs, whatever the seed."""
        raise NotImplementedError

    def work(self, job):
        """(steps, dof-stage updates, compute seconds) done by the job."""
        steps = sum(len(rec.times) - 1 for rec, _ in job.runs)
        updates = sum(4 * record_dofs(rec) * (len(rec.times) - 1)
                      for rec, _ in job.runs)
        return steps, updates, sum(sec for _, sec in job.runs)


def _load_scenario(preset, overrides):
    sc = scenario.load_preset(preset)
    raw = copy.deepcopy(sc.canonical_dict())
    raw.update(overrides)
    return scenario.from_dict(raw)


@dataclass
class SolverRun(Workload):
    """One ``solver.run`` of a waveguide preset plus its artifacts."""

    name: str
    why: str
    preset: str
    final_time: float
    n_receivers: int
    n_snapshots: int

    def inputs(self, seed):
        rng = random.Random(seed)
        center = [_uniform(rng, -30.0, 30.0), _uniform(rng, 10.0, 40.0)]
        receivers = [[_uniform(rng, -45.0, 45.0), _uniform(rng, 5.0, 45.0)]
                     for _ in range(self.n_receivers)]
        # distinct fractions k/40 of the run (over 4 steps apart when the
        # run has over 160 steps, so no two fall on the same step)
        ks = sorted(rng.sample(range(1, 41), self.n_snapshots))
        return {"preset": self.preset, "overrides": {
            "final_time": self.final_time,
            "initial": {"type": "gaussian-pulse", "center": center},
            "receivers": receivers,
            "snapshot_times": [self.final_time * k / 40 for k in ks]}}

    def setup(self, inputs):
        sc = _load_scenario(inputs["preset"], inputs["overrides"])
        mesh, config = sc.build()
        return sc, mesh, config

    def execute(self, prepared, out_dir):
        sc, mesh, config = prepared
        record = wavelab.solver.run(
            mesh, config, initial=sc.initial, receivers=sc.receivers,
            snapshot_times=sc.snapshot_times, record_fields=sc.record_fields,
            history_stride=sc.history_stride,
            divergence_factor=sc.divergence_factor)
        cli.write_run_artifacts(out_dir, sc, record)
        return record

    def summary(self, job):
        rec = job.payload
        traces = np.asarray(rec.receiver_series)
        return {"energy": series_summary(rec.energy),
                "linf": series_summary(rec.linf),
                "receivers": [[series_summary(traces[i, :, f])
                               for f in range(traces.shape[2])]
                              for i in range(traces.shape[0])]}

    def check(self, job):
        rec = job.payload
        names = ["series.csv", "receivers.csv", "metadata.json"]
        names += [f"snapshot_t{t:g}.csv" for t in rec.snapshots]
        problems = _check_record(rec, self.preset)
        if len(rec.snapshots) != self.n_snapshots:
            problems.append(f"{len(rec.snapshots)} snapshots taken, "
                            f"{self.n_snapshots} requested")
        return problems + _missing_files(job.out_dir, names)


@dataclass
class AbcComparison(Workload):
    """``cli.compare_abc`` on the acoustic waveguide."""

    name: str
    why: str
    final_time: float

    def inputs(self, seed):
        rng = random.Random(seed)
        # pulse near the east layer so reflections reach the interior early
        center = [_uniform(rng, 10.0, 35.0), _uniform(rng, 10.0, 40.0)]
        receiver = [_uniform(rng, -45.0, 45.0), _uniform(rng, 5.0, 45.0)]
        return {"preset": "acoustic-waveguide", "overrides": {
            "final_time": self.final_time,
            "initial": {"type": "gaussian-pulse", "center": center},
            "receivers": [receiver], "snapshot_times": []}}

    def setup(self, inputs):
        # as ``wavelab run abc-comparison`` does: compare_abc builds the
        # meshes of its three runs itself
        return _load_scenario(inputs["preset"], inputs["overrides"])

    def execute(self, prepared, out_dir):
        return cli.compare_abc(prepared, out_dir)

    def summary(self, job):
        pml_err, abc_err, horizon = job.payload
        return {"horizon": float(horizon),
                "pml_max_linf": pml_err.max_linf(),
                "abc_max_linf": abc_err.max_linf(),
                "pml_linf": series_summary(pml_err.linf),
                "abc_linf": series_summary(abc_err.linf),
                "energy": [series_summary(rec.energy) for rec, _ in job.runs]}

    def check(self, job):
        pml_err, abc_err, _ = job.payload
        problems = []
        if len(job.runs) != 3:
            problems.append(f"{len(job.runs)} solver runs, expected 3")
        for i, (rec, _) in enumerate(job.runs):
            problems += _check_record(rec, f"run {i}")
        for label, err in (("pml", pml_err), ("abc", abc_err)):
            if err.linf.size == 0 or not np.isfinite(err.linf).all():
                problems.append(f"{label} error series empty or non-finite")
        return problems + _missing_files(
            job.out_dir, ["error_series.csv", "metadata.json"])


SEEDED_MEDIUM = "seeded-orthotropic"


@contextmanager
def _medium_named(name, medium):
    """Make ``cli.write_analysis_artifacts`` resolve ``name`` to ``medium``.

    The analysis command takes media by name only, so the seeded medium is
    given a name for the duration of the call.
    """
    original = cli._resolve_medium

    def resolve(requested):
        return medium if requested == name else original(requested)

    cli._resolve_medium = resolve
    try:
        yield
    finally:
        cli._resolve_medium = original


@dataclass
class MediaAnalysis(Workload):
    """``cli.write_analysis_artifacts(..., "both")`` on three media."""

    name: str
    why: str
    n_directions: int

    MEDIA = ("am1-table1", "aniso-violating", SEEDED_MEDIUM)

    def inputs(self, seed):
        rng = random.Random(seed)
        c11 = _uniform(rng, 2.0, 20.0)
        c22 = _uniform(rng, 2.0, 20.0)
        c12 = round(rng.uniform(0.05, 0.9) * math.sqrt(c11 * c22), 3)
        return {"type": "elastic", "rho": _uniform(rng, 0.5, 3.0),
                "c11": c11, "c12": c12, "c22": c22,
                "c33": _uniform(rng, 0.5, 5.0)}

    def setup(self, inputs):
        return media.from_config(inputs)

    def execute(self, prepared, out_dir):
        with _medium_named(SEEDED_MEDIUM, prepared):
            return {name: cli.write_analysis_artifacts(
                        name, "both", self.n_directions, Path(out_dir) / name)
                    for name in self.MEDIA}

    def summary(self, job):
        return {name: {axis: {"verdict": rep.verdict,
                              "min_product": rep.min_product}
                       for axis, rep in sorted(reports.items())}
                for name, reports in job.payload.items()}

    def check(self, job):
        reports = job.payload
        problems = []
        for name, axis, verdict in (("am1-table1", "x", "stable"),
                                    ("am1-table1", "y", "stable"),
                                    ("aniso-violating", "x", "unstable")):
            if reports[name][axis].verdict != verdict:
                problems.append(f"{name} on {axis} is "
                                f"{reports[name][axis].verdict}")
        for name in self.MEDIA:
            for axis, rep in reports[name].items():
                if not math.isfinite(rep.min_product):
                    problems.append(f"{name} on {axis}: non-finite product")
            problems += _missing_files(
                job.out_dir, [f"{name}/slowness.csv",
                              f"{name}/stability_x.json",
                              f"{name}/stability_y.json"])
        return problems

    def work(self, job):
        """A step is one scanned direction of one medium; the rate counts
        those per second, as the analysis advances no dofs."""
        units = len(self.MEDIA) * self.n_directions
        return units, units, job.execute_s


WORKLOADS = {w.name: w for w in (
    SolverRun("acoustic-pml",
              "smallest arrays per numpy call: stepping overhead in rhs and "
              "fluxes dominates; control for writing and analysis changes",
              "acoustic-waveguide", final_time=60.0, n_receivers=1,
              n_snapshots=0),
    SolverRun("elastic-snapshots",
              "larger arrays and the elastic flux path, plus receivers and "
              "11 snapshots of CSV written beside stepping",
              "elastic-iso-waveguide", final_time=10.0, n_receivers=3,
              n_snapshots=11),
    AbcComparison("abc-comparison",
                  "three runs recording field history plus pml_error: the "
                  "memory-heavy path", final_time=35.0),
    MediaAnalysis("media-analysis",
                  "slowness scans and eigen solves only: the control for "
                  "every solver change", n_directions=720),
)}


def check_job(workload, job, reference):
    """All problems of a job: physical checks plus the stored reference."""
    problems = workload.check(job)
    if reference is not None:
        problems += compare(reference, workload.summary(job))
    return problems
