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
"""

import hashlib
import tempfile
from pathlib import Path

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


def main():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for sc in scenarios():
            outs.append(Path(tmp) / sc.name)
            cli.run_scenario_with_artifacts(sc, outs[-1])
        for name, base in (
                ("abc-comparison", scenario.load_preset("acoustic-waveguide")),
                ("abc-comparison-all-sides", _variant(
                    "all-sides-acoustic-484", "acoustic-484",
                    ["west", "east", "south", "north"], gamma=1.5,
                    theta={"x": 0.5, "y": 0.25}))):
            outs.append(Path(tmp) / name)
            cli.compare_abc(scenario.with_overrides(
                base, final_time=ABC_TIME[name]), outs[-1])
        for name in ANALYSIS_MEDIA:
            outs.append(Path(tmp) / f"analysis-{name}")
            cli.write_analysis_artifacts(name, "both", ANALYSIS_DIRECTIONS,
                                         outs[-1])
        outs.append(Path(tmp) / "convergence")
        cli.convergence_study(**CONVERGENCE, out_dir=outs[-1])
        for out in outs:
            for path in sorted([*out.glob("*.csv"),
                                *out.glob("stability_*.json")]):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {out.name}/{path.name}")
    print("\n".join(sorted(lines, key=lambda s: s.split("  ")[1])))


if __name__ == "__main__":
    main()
