"""Tests of the benchmark itself: inputs, tracing and output checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# a few steps of the acoustic waveguide: every solver layer in 0.1 s
TINY = workloads.SolverRun("tiny", "", "acoustic-waveguide", final_time=2.0,
                           n_receivers=1, n_snapshots=0)


def traced_job(workload, tmp_path, seed=3):
    with tracer.Tracer() as tr:
        job = workloads.run_job(workload, workload.inputs(seed),
                                tmp_path / "out")
    return tr, job


def test_same_seed_gives_identical_inputs():
    for wl in workloads.WORKLOADS.values():
        a = json.dumps(wl.inputs(7), sort_keys=True)
        assert a == json.dumps(wl.inputs(7), sort_keys=True)
        assert a != json.dumps(wl.inputs(8), sort_keys=True)


def test_wrappers_are_restored_even_when_the_run_raises(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracer.TARGETS]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(owner.__dict__[attr] is not orig for (owner, attr, _, _),
                       orig in zip(tracer.TARGETS, originals))
            raise RuntimeError("job failed")
    traced_job(TINY, tmp_path)
    assert all(owner.__dict__[attr] is orig for (owner, attr, _, _), orig
               in zip(tracer.TARGETS, originals))


def test_child_spans_fit_inside_parents_and_self_times_are_nonnegative(
        tmp_path):
    tr, _ = traced_job(TINY, tmp_path)
    t = tr.table()
    assert len(t.groups) > 100
    nested = t.parent >= 0
    assert nested.any()
    p = t.parent[nested]
    assert (t.start[p] <= t.start[nested]).all()
    assert (t.end[nested] <= t.end[p]).all()
    assert (t.self_time >= -1e-9).all()


def test_counts_repeat_exactly_and_rhs_runs_four_times_a_step(tmp_path):
    first = tracer.layer_metrics(*traced_job(TINY, tmp_path))
    second = tracer.layer_metrics(*traced_job(TINY, tmp_path))
    assert {k: first[k] for k in tracer.COUNTS} == \
        {k: second[k] for k in tracer.COUNTS}
    assert first["solver.core.steps"] == 9
    assert first["solver.core.rhs_calls"] == 4 * first["solver.core.steps"]
    assert first["solver.core.advance_calls"] == first["solver.core.steps"]
    assert first["solver.core.dofs"] == 18000
    assert first["solver.fluxes.face_calls"] == 2 * first["solver.core.rhs_calls"]


def test_analysis_counts_show_the_repeated_slowness_scans(tmp_path):
    small = workloads.MediaAnalysis("small", "", n_directions=16)
    metrics = tracer.layer_metrics(*traced_job(small, tmp_path))
    assert metrics["analysis.slowness_scans"] == 9
    assert metrics["analysis.scan_useful_ratio"] == pytest.approx(1 / 3)
    assert metrics["solver.core.rhs_calls"] == 0


def test_check_rejects_a_perturbed_energy_series(tmp_path):
    job = workloads.run_job(TINY, TINY.inputs(3), tmp_path / "out")
    reference = TINY.summary(job)
    assert workloads.check_job(TINY, job, reference) == []
    energy = job.payload.energy.copy()
    job.payload.energy = energy * (1.0 + 1e-13)
    assert workloads.check_job(TINY, job, reference) == []
    job.payload.energy = energy * (1.0 + 1e-6)
    assert workloads.check_job(TINY, job, reference)


def test_check_rejects_energy_growth_for_any_seed(tmp_path):
    job = workloads.run_job(TINY, TINY.inputs(12345), tmp_path / "out")
    assert TINY.check(job) == []
    job.payload.energy[-1] = 1.01 * job.payload.energy[0]
    assert any("energy grew" in p for p in TINY.check(job))


def test_shipped_seed_matches_its_reference(tmp_path):
    wl = workloads.WORKLOADS["acoustic-pml"]
    reference = workloads.load_reference()
    assert all(str(s) in reference[name] for name in workloads.WORKLOADS
               for s in workloads.REFERENCE_SEEDS)
    job = workloads.run_job(wl, wl.inputs(0), tmp_path / "out")
    assert workloads.check_job(wl, job, reference[wl.name]["0"]) == []


def test_benchmark_json_names_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acoustic-pml",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

