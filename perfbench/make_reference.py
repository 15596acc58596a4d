"""Regenerate ``reference.json``: output summaries for the shipped seeds.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

It stores every seed in ``workloads.REFERENCE_SEEDS``.  Run it only when a
change is meant to alter the program's outputs, and say so in the change;
the benchmark compares every run on these seeds against the stored
summaries, with the tolerances of ``workloads.compare``.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    out_dir = HERE / "_out" / "reference-job"
    result = {}
    for name, wl in workloads.WORKLOADS.items():
        result[name] = {}
        for seed in workloads.REFERENCE_SEEDS:
            shutil.rmtree(out_dir, ignore_errors=True)
            job = workloads.run_job(wl, wl.inputs(seed), out_dir)
            problems = wl.check(job)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            result[name][str(seed)] = wl.summary(job)
            print(f"{name} seed {seed}: {job.wall_s:.2f} s", flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    # one line per workload and seed keeps the file small and diffable
    lines = []
    for name, seeds in result.items():
        entries = [f'    "{seed}": {json.dumps(summary, sort_keys=True)}'
                   for seed, summary in seeds.items()]
        lines.append(f'  "{name}": {{\n' + ",\n".join(entries) + "\n  }")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"workloads": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
