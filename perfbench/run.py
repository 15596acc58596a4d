"""wavelab benchmark: run one workload as a closed loop and report metrics.

Usage, from the root of a source checkout (nothing needs to be installed):

    python3 perfbench/run.py --workload acoustic-pml --seed 1 --seconds 25 \
        --trace 0

One client in one process runs jobs back to back for ``--seconds`` seconds
(always at least one job), with BLAS threads capped at the usable CPU count.
Every job's outputs are checked (see ``workloads.py``).  With ``--trace 0``
the end-to-end metrics are reported as medians over the jobs; with
``--trace 1`` untraced and traced jobs alternate, the per-layer metrics are
medians over the traced jobs (counts, which must repeat exactly, are taken
from the first), and the spans of the last traced job are
written to ``perfbench/_out/spans-<workload>-<seed>.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "dof_stage_updates_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def cap_threads():
    """Cap the BLAS/OpenMP thread variables at the usable CPU count.

    Must run before numpy is imported.  Returns the usable CPU count.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, nproc))
        except ValueError:
            value = nproc
        os.environ[var] = str(max(1, min(value, nproc)))
    return nproc


def git_commit():
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc, args):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu, "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__, "blas": blas,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


class Runner:
    """Runs jobs of one workload and keeps their timings and check results.

    Only numbers are kept between jobs, so one job's outputs are freed
    before the next starts and the peak RSS is that of a single job.
    """

    def __init__(self, workloads, workload, seed):
        self.wl = workloads
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.reference = workloads.load_reference().get(
            workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.done = []    # (wall s, set-up s, steps, dof-stage updates,
                          #  compute s)

    def job(self, tracer=None):
        """One checked job; returns it, or None when it raised."""
        self.attempted += 1
        out_dir = OUT / f"job-{os.getpid()}"
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            if tracer is None:
                job = self.wl.run_job(self.workload, self.inputs, out_dir)
            else:
                with tracer:
                    job = self.wl.run_job(self.workload, self.inputs,
                                          out_dir)
            problems = self.wl.check_job(self.workload, job, self.reference)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        self.done.append((job.wall_s, job.setup_s,
                          *self.workload.work(job)))
        return job


def end_to_end(runner, seconds):
    deadline = perf_counter() + seconds
    while True:
        runner.job()
        if perf_counter() >= deadline:
            break
    if not runner.done:
        return None
    wall, setup, steps, updates, compute = zip(*runner.done)
    return {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "step_ms": median([1e3 * c / n for c, n in zip(compute, steps)]),
        "dof_stage_updates_per_s":
            median([u / c for u, c in zip(updates, compute)]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, seconds, tracer_mod, spans_path):
    """Alternate untraced and traced jobs; medians of the traced layers."""
    plain, traced, layers = [], [], []
    last = None
    deadline = perf_counter() + seconds
    while True:
        tracing = len(traced) < len(plain)
        tracer = tracer_mod.Tracer() if tracing else None
        job = runner.job(tracer)
        if job is not None:
            if tracing:
                traced.append(job.wall_s)
                layers.append(tracer_mod.layer_metrics(tracer, job))
                last = tracer
            else:
                plain.append(job.wall_s)
        job = None    # free its outputs before the next job starts
        raised = runner.attempted - len(runner.done)
        if perf_counter() >= deadline and (traced and plain or raised > 1):
            break
    if not (traced and plain):
        return None
    unsteady = [name for name in tracer_mod.COUNTS
                if len({m[name] for m in layers}) != 1]
    if unsteady:
        runner.failed = min(runner.attempted, runner.failed + 1)
        print(f"check failed: counts differ between jobs: {unsteady}",
              file=sys.stderr)
    metrics = {name: layers[0][name] if name in tracer_mod.COUNTS
               else median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    last.write(spans_path)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    src = ROOT / "src"
    if not (src / "wavelab" / "__init__.py").is_file():
        print(f"no wavelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import wavelab
    if Path(wavelab.__file__).resolve().parent != src / "wavelab":
        print(f"imported wavelab from {wavelab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; available: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(nproc, args)}))
    OUT.mkdir(exist_ok=True)
    runner = Runner(workloads, workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        units = tracer_mod.UNITS
        metrics = per_layer(
            runner, args.seconds, tracer_mod,
            OUT / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        units = END_TO_END
        metrics = end_to_end(runner, args.seconds)
    if metrics is None:
        print("no job completed", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]!r} {unit}")
    print(f"{'failed_frac':42s} {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} jobs)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
