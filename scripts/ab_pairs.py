"""Paired A/B benchmark of the working tree against an earlier revision.

    python3 scripts/ab_pairs.py REV --workload elastic-snapshots --pairs 10 \\
        [--seed 1] [--seconds 6] [--out BENCH_<n>.json]

``git archive REV`` is unpacked into a temporary directory ("parent"), and
the files of this checkout that git tracks or would add (``git ls-files
--cached --others --exclude-standard``) are copied beside it ("change"), so
both sides run from fresh directories on one file system.
``perfbench/run.py --trace 0`` runs one workload in each, once per pair.  The
side that goes first alternates from pair to pair, so a drift of the host's
speed falls on both sides alike.
For every end-to-end metric of ``BENCHMARK.json`` the script prints the
median and range of each side, the parent's interquartile range, the ratio
of the medians, and in how many pairs the change was better.

With ``--out``, the pairs are also written to a JSON file, one record per
workload (a record of the same workload is replaced, others are kept):

    {"environment": <run.py's environment line: cpu_model, nproc, threads,
                     numpy, blas, python>,
     "workloads": {<workload>: {
         "parent": <REV as a full commit id>, "seed", "seconds", "pairs",
         "correct": <every job of every run passed its checks>,
         "metrics": {<metric>: {"unit", "better", "parent": [...],
                                "change": [...], "won": <pairs>}}}}}

A run whose jobs fail a check, or that exits non-zero, stops the script with
exit code 1.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=text).stdout


def unpack(rev, dest):
    """Files of ``rev`` in ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", rev + "^{commit}").strip()
    archive = git("archive", "--format=tar", commit, text=False)
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_checkout(dest):
    """This checkout's tracked and addable files, copied into ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():  # skips deleted tracked files
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(tree, workload, seed, seconds):
    """(environment, result) of one ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py failed in {tree} (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"run.py in {tree}: {result['failed']} of "
                 f"{result['attempted']} jobs failed their checks:\n"
                 f"{proc.stderr}")
    return json.loads(lines[0])["environment"], result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in runs}
        commit = unpack(args.rev, trees["parent"])
        copy_checkout(trees["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                env, result = run_once(trees[side], args.workload, args.seed,
                                       args.seconds)
                runs[side].append(result["metrics"])
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)

    metrics = {}
    print(f"{args.workload}: {args.pairs} pairs, parent {commit[:12]}, "
          f"seed {args.seed}, {args.seconds:g} s a run")
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(parent, change))
        q1, _, q3 = (quantiles(parent, n=4) if len(parent) > 1
                     else (parent[0],) * 3)
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         "parent": parent, "change": change, "won": won}
        print(f"  {name:26s} parent {median(parent):.4g} "
              f"[{min(parent):.4g}-{max(parent):.4g}] (IQR {q3 - q1:.3g})  "
              f"change {median(change):.4g} "
              f"[{min(change):.4g}-{max(change):.4g}]  "
              f"ratio {median(change) / median(parent):.3f}  "
              f"better in {won}/{args.pairs}")

    if args.out:
        data = (json.loads(args.out.read_text()) if args.out.is_file()
                else {"workloads": {}})
        data["environment"] = {k: env[k] for k in (
            "cpu_model", "nproc", "threads", "numpy", "blas", "python")}
        data["workloads"][args.workload] = {
            "parent": commit, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "correct": True, "metrics": metrics}
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
