"""SHA-256 of every CSV body a set of short scenario runs writes, and of the
plane-wave analysis artifacts.

A refactor that must not change results is checked by running this script on
the tree before and after it and comparing the two outputs line by line:

    PYTHONPATH=src python scripts/golden_csv.py > before.txt
    ... change the code ...
    PYTHONPATH=src python scripts/golden_csv.py > after.txt
    diff before.txt after.txt

Each scenario goes through ``cli.run_scenario_with_artifacts``.  The set is
the five shipped presets, shortened, plus variants that no preset exercises:
a PML on all four sides (corners included) with gamma != 1, theta below 1 on
both axes, fractional reflection coefficients, snapshots and two receivers,
for each medium preset; and two-media interfaces on x and on y with layers on
east and north, and on x with layers on west and south, which move the grid
origin.  Two ``cli.compare_abc`` cases, the acoustic waveguide and the
all-sides acoustic variant, hash their ``error_series.csv``.  Of their three
runs, the PML and ABC runs record field history, and the reference run is
measured against them as it steps.
``cli.write_analysis_artifacts`` scans each medium preset, the unstable
``aniso-violating`` included, on both axes at ``ANALYSIS_DIRECTIONS``
directions, and its ``slowness.csv`` and ``stability_{x,y}.json`` are hashed
under ``analysis-<medium>``.  ``cli.convergence_study`` on degrees 2 and 3
at 5 and 10 elements per side, whose element edges at h = 0.2 and 0.1 do not
sum exactly to the box, hashes its ``convergence.csv``.  Output lines are
``<sha256>  <scenario>/<file>``, sorted.

With ``--summary`` it prints, instead of hashes, the JSON object that
``tests/golden_summary.json`` holds: per file and per column (per key of a
JSON artifact), the largest |x| and the L2 norm of the finite values and the
count of the others, or a non-numeric value as it is.  Hashes show any
change; the summaries, which ``tests/test_golden.py`` checks to 1e-10 of a
column's largest |x|, show how large it is, and hold across BLAS builds:

    PYTHONPATH=src python scripts/golden_csv.py --summary \
        > tests/golden_summary.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from wavelab import cli, scenario

PRESET_TIME = 6.0
SHORT_PRESET_TIME = {"convergence-study": 0.7}
# final_time of each compare_abc case: past the pulse's arrival at the layer,
# so the error series holds absorption and not rounding noise
ABC_TIME = {"abc-comparison": 60.0, "abc-comparison-all-sides": 20.0}
ANALYSIS_MEDIA = ("acoustic-484", "iso-table1", "am1-table1",
                  "aniso-violating")
ANALYSIS_DIRECTIONS = 180
CONVERGENCE = {"degrees": (2, 3), "meshes": (5, 10)}


def _variant(name, medium, sides, gamma=1.0, **extra):
    data = {
        "schema": 1,
        "name": name,
        "domain": {"x": [-20.0, 20.0], "y": [0.0, 20.0]},
        "element_size": 5.0,
        "degree": 4,
        "medium": medium,
        "pml": {"sides": sides, "width": 10.0, "tol": 0.001, "alpha": 0.15,
                "gamma": gamma},
        "boundaries": {"west": 0.3, "east": -0.4, "south": 0.6,
                       "north": -0.2},
        "final_time": PRESET_TIME,
        "receivers": [[5.0, 10.0], [-12.5, 3.0]],
    }
    data.update(extra)
    return scenario.from_dict(data)


def scenarios():
    out = []
    for name in scenario.PRESET_SCENARIOS:
        sc = scenario.load_preset(name)
        out.append(scenario.with_overrides(
            sc, final_time=SHORT_PRESET_TIME.get(name, PRESET_TIME)))
    for med in ("acoustic-484", "iso-table1", "am1-table1"):
        out.append(_variant(f"all-sides-{med}", med,
                            ["west", "east", "south", "north"], gamma=1.5,
                            theta={"x": 0.5, "y": 0.25},
                            snapshot_times=[2.0, PRESET_TIME]))
    for name, axis, position, sides in (
            ("two-media-x", "x", 0.0, ["east", "north"]),
            ("two-media-y", "y", 10.0, ["east", "north"]),
            ("two-media-x-west-south", "x", 5.0, ["west", "south"])):
        medium = {"two": ["iso-table1", "am1-table1"],
                  "interface": {"axis": axis, "position": position}}
        out.append(_variant(name, medium, sides,
                            snapshot_times=[0.0, 3.0, PRESET_TIME]))
    return out


def write_outputs(root):
    """Run every case into its own directory under ``root``; returns the
    checked files as ``{"<case>/<file>": path}``."""
    outs = []
    for sc in scenarios():
        outs.append(root / sc.name)
        cli.run_scenario_with_artifacts(sc, outs[-1])
    for name, base in (
            ("abc-comparison", scenario.load_preset("acoustic-waveguide")),
            ("abc-comparison-all-sides", _variant(
                "all-sides-acoustic-484", "acoustic-484",
                ["west", "east", "south", "north"], gamma=1.5,
                theta={"x": 0.5, "y": 0.25}))):
        outs.append(root / name)
        cli.compare_abc(scenario.with_overrides(
            base, final_time=ABC_TIME[name]), outs[-1])
    for name in ANALYSIS_MEDIA:
        outs.append(root / f"analysis-{name}")
        cli.write_analysis_artifacts(name, "both", ANALYSIS_DIRECTIONS,
                                     outs[-1])
    outs.append(root / "convergence")
    cli.convergence_study(**CONVERGENCE, out_dir=outs[-1])
    return {f"{out.name}/{path.name}": path for out in outs
            for path in [*out.glob("*.csv"), *out.glob("stability_*.json")]}


def _stats(values):
    x = np.asarray(values, dtype=float).ravel()
    finite = x[np.isfinite(x)]
    return [float(np.abs(finite).max(initial=0.0)),
            float(np.sqrt(np.sum(finite * finite))), int(x.size - finite.size)]


def summary(path):
    """{column: [largest |x|, L2, count of NaN and inf]} of a CSV body, or
    of the numeric keys of a JSON artifact, whose other keys keep their
    value."""
    if path.suffix == ".json":
        return {key: _stats(value) if isinstance(value, (int, float, list))
                and not isinstance(value, bool) else value
                for key, value in json.loads(path.read_text()).items()}
    header = path.read_text().splitlines()[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: _stats(table[:, j]) for j, name in enumerate(header)}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = write_outputs(Path(tmp))
        if "--summary" in sys.argv[1:]:
            print(json.dumps({name: summary(files[name])
                              for name in sorted(files)}, indent=1))
        else:
            print("\n".join(
                f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  "
                f"{name}" for name in sorted(files)))


if __name__ == "__main__":
    main()
