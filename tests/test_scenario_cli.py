import copy
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import wavelab.solver
from wavelab import analysis, cli, media, scenario
from wavelab.errors import ConfigurationError


def tiny_scenario_dict(**overrides):
    data = {
        "schema": 1,
        "name": "tiny",
        "domain": {"x": [0.0, 2.0], "y": [0.0, 2.0]},
        "element_size": 1.0,
        "degree": 3,
        "medium": {"type": "acoustic", "rho": 1.0, "kappa": 1.0},
        "pml": {"sides": []},
        "boundaries": {"west": 1.0, "east": 1.0, "south": 1.0, "north": 1.0},
        "final_time": 0.4,
        "initial": {"type": "gaussian-pulse", "center": [1.0, 1.0],
                    "width_sq": 0.3},
        "receivers": [[1.0, 1.0]],
        "snapshot_times": [0.4],
    }
    data.update(overrides)
    return data


def write_scenario(tmp_path, data, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_waveguide_preset_reference_parameters():
    sc = scenario.load_preset("acoustic-waveguide")
    assert sc.domain == (-50.0, 50.0, 0.0, 50.0)
    assert sc.element_size == 5.0
    assert sc.degree == 4
    assert sc.pml.sides == ("east",)
    assert sc.pml.width == 10.0
    assert sc.pml.tol == 1e-3
    assert sc.pml.alpha == 0.15
    assert sc.cfl == 0.9
    assert sc.final_time == 200.0
    assert sc.boundaries == {"west": -1.0, "east": 0.0,
                             "south": 1.0, "north": 1.0}
    assert sc.theta_x == 1.0
    mesh, config = sc.build()
    assert (mesh.K, mesh.L) == (22, 10)
    assert mesh.active_x.tolist() == [20, 21]
    # ~840 steps at the reference time step
    from wavelab.solver import timestep
    assert int(np.ceil(200.0 / timestep(config, mesh))) == 840


def test_all_presets_parse():
    for name in scenario.PRESET_SCENARIOS:
        sc = scenario.load_preset(name)
        assert sc.name == name


def test_reflection_coefficient_out_of_range_rejected():
    with pytest.raises(ConfigurationError, match="boundaries.east"):
        scenario.from_dict(tiny_scenario_dict(
            boundaries={"west": 1.0, "east": 1.5, "south": 1.0,
                        "north": 1.0}))


def test_pml_width_must_span_whole_elements():
    data = tiny_scenario_dict(
        domain={"x": [0.0, 10.0], "y": [0.0, 10.0]},
        element_size=5.0,
        pml={"sides": ["east"], "width": 7.0})
    with pytest.raises(ConfigurationError, match="pml.width"):
        scenario.from_dict(data)


def test_element_size_must_divide_domain():
    with pytest.raises(ConfigurationError, match="element_size"):
        scenario.from_dict(tiny_scenario_dict(element_size=0.3))


def test_unknown_keys_and_schema_rejected():
    with pytest.raises(ConfigurationError, match=r"^scenario: unknown "
                       r"configuration key 'wavelength'$"):
        scenario.from_dict(tiny_scenario_dict(wavelength=3.0))
    # quoted under the object that holds it, so no key reads as a path
    for key, held in (("a.b", "pml"), (":", "pml"), ("z", "domain")):
        data = tiny_scenario_dict()
        data[held][key] = 1.0
        with pytest.raises(ConfigurationError, match=f"^{held}: unknown "
                           f"configuration key {re.escape(repr(key))}$"):
            scenario.from_dict(data)
    bad = tiny_scenario_dict()
    bad["schema"] = 99
    with pytest.raises(ConfigurationError, match="schema"):
        scenario.from_dict(bad)


def test_theta_out_of_range_rejected():
    with pytest.raises(ConfigurationError, match="theta.x"):
        scenario.from_dict(tiny_scenario_dict(theta={"x": 1.5}))


@pytest.mark.parametrize("key", ["degree", "history_stride"])
def test_bool_integer_keys_rejected(key):
    # validation only: building a mesh with degree=True grows the GLL
    # Newton arrays without bound
    with pytest.raises(ConfigurationError, match=key):
        scenario.from_dict(tiny_scenario_dict(**{key: True}))


def test_receiver_outside_mesh_rejected():
    # checked against the mesh extents while validating, before any mesh
    with pytest.raises(ConfigurationError, match="receivers"):
        scenario.from_dict(tiny_scenario_dict(receivers=[[9.0, 1.0]]))


def test_malformed_json_and_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        scenario.parse_scenario(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="malformed"):
        scenario.parse_scenario(str(bad))


def test_deeply_nested_json_is_malformed(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(str(path))}: malformed JSON"):
        scenario.parse_scenario(str(path))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert f"{path}: malformed JSON" in capsys.readouterr().err


def test_two_media_scenario_builds():
    data = tiny_scenario_dict(medium={
        "two": [{"type": "acoustic", "rho": 1.0, "kappa": 1.0},
                {"type": "acoustic", "rho": 2.0, "kappa": 4.0}],
        "interface": {"axis": "x", "position": 1.0}})
    sc = scenario.from_dict(data)
    mesh, _ = sc.build()
    assert mesh.media[mesh.index[0, 0]].rho == 1.0
    assert mesh.media[mesh.index[1, 0]].rho == 2.0
    assert sc.c_p_max == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("extra", [
    {"medium": {"two": ["acoustic-484", {"type": "acoustic", "rho": 2.0,
                                         "kappa": 4.0}],
                "interface": {"axis": "x", "position": 0.8}}},
    {"receivers": [[0.8, 0.05]]}])
def test_a_point_one_ulp_past_the_extent_is_on_its_edge(tmp_path, extra):
    """x = 0.8 lies on the east extent 0.7 + 0.1 = 0.7999999999999999, both
    as an interface and as a receiver, and the run completes."""
    data = tiny_scenario_dict(
        domain={"x": [0.0, 0.7], "y": [0.0, 0.1]}, element_size=0.1,
        pml={"sides": ["east"], "width": 0.1}, final_time=0.01,
        initial={"type": "gaussian-pulse", "center": [0.3, 0.05],
                 "width_sq": 0.01}, receivers=[[0.3, 0.05]],
        snapshot_times=[])
    data.update(extra)
    assert 0.7 + 0.1 < 0.8
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, data), "--out",
                     str(out)]) == cli.EXIT_OK
    assert json.loads((out / "metadata.json").read_text())[
        "status"] == "completed"


@pytest.mark.parametrize("medium", ["aniso-violating",
                                    {"preset": "aniso-violating"}])
def test_violating_medium_is_a_scenario_preset(medium):
    sc = scenario.from_dict(tiny_scenario_dict(medium=medium))
    assert sc.media == (media.preset("aniso-violating"),)
    assert cli._resolve_medium("aniso-violating") is sc.media[0]


def test_overrides_reach_the_config():
    sc = scenario.load_preset("acoustic-waveguide")
    sc2 = scenario.with_overrides(sc, theta_x=0.0, tol=1e-2, degree=3,
                                  final_time=10.0)
    assert sc2.theta_x == 0.0
    assert sc2.pml.tol == 1e-2
    assert sc2.degree == 3
    assert sc2.final_time == 10.0
    with pytest.raises(ConfigurationError):
        scenario.with_overrides(sc, no_such_field=1)


def test_cli_run_writes_artifacts_and_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario_dict())
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert cli.main(["run", path, "--out", str(out1)]) == 0
    assert cli.main(["run", path, "--out", str(out2)]) == 0
    for name in ("series.csv", "receivers.csv", "snapshot_t0.4.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["status"] == "completed"
    assert meta["scenario_hash"] == json.loads(
        (out2 / "metadata.json").read_text())["scenario_hash"]
    assert len(meta["scenario_hash"]) == 64


_LEAN_RUN = """
import json, sys
from wavelab import cli, scenario
path, out = sys.argv[1:]
assert cli.main(["run", path, "--out", out]) == cli.EXIT_OK
loaded = sorted({"_hashlib", "numpy.ma"} & set(sys.modules))
import hashlib
sc = scenario.load(path)
blob = json.dumps(sc.canonical_dict(), sort_keys=True, separators=(",", ":"))
print(json.dumps({"loaded": loaded, "hash": cli.scenario_hash(sc),
                  "sha256": hashlib.sha256(blob.encode()).hexdigest()}))
"""


def _fresh_env(**env):
    """os.environ with ``env`` and this checkout's wavelab on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_a_run_loads_neither_openssl_nor_numpy_ma(tmp_path):
    """A ``wavelab run`` in a fresh interpreter leaves hashlib's OpenSSL
    module and numpy.ma unloaded, and its scenario hash is still hashlib's
    SHA-256 of the canonical scenario."""
    path = write_scenario(tmp_path, tiny_scenario_dict(
        pml={"sides": ["east"], "width": 1.0}))
    done = subprocess.run(
        [sys.executable, "-c", _LEAN_RUN, path, str(tmp_path / "out")],
        env=_fresh_env(), capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["hash"] == report["sha256"]
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["scenario_hash"] == report["sha256"]


_HASH_RUNS = """
import hashlib, sys
from pathlib import Path
from wavelab import cli, scenario
out = Path(sys.argv[1])
for name in ("acoustic-waveguide", "elastic-iso-waveguide"):
    sc = scenario.with_overrides(scenario.load_preset(name), final_time=6.0,
                                 snapshot_times=[3.0, 6.0])
    cli.run_scenario_with_artifacts(sc, out / name)
for path in sorted(out.glob("*/*.csv")):
    print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out))
"""


def test_csv_bodies_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The matrix products of rhs and discrete_energy give the same bytes
    with one BLAS thread and with two."""
    listings = []
    for threads in ("1", "2"):
        env = _fresh_env(OPENBLAS_NUM_THREADS=threads,
                         OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_RUNS, str(tmp_path / threads)],
            env=env, capture_output=True, text=True, check=True)
        listings.append(done.stdout.splitlines())
    assert len(listings[0]) == 8  # series, receivers, two snapshots per run
    assert listings[0] == listings[1]


def test_cli_exit_code_for_configuration_error(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario_dict(element_size=0.37))
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG


def test_cli_run_of_an_unreadable_path_names_it(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == cli.EXIT_CONFIG
    assert str(tmp_path) in capsys.readouterr().err


def _assert_analyze_stable_on_both_axes(medium, out):
    code = cli.main(["analyze", "--medium", medium, "--axis", "both",
                     "--directions", "64", "--out", str(out)])
    assert code == 0
    for ax in ("x", "y"):
        payload = json.loads((out / f"stability_{ax}.json").read_text())
        assert payload["verdict"] == "stable"
        assert payload["medium"] == medium
    header = (out / "slowness.csv").read_text().splitlines()[0]
    assert header == ("branch,angle,S_x,S_y,Vg_x,Vg_y,product_x,product_y")


def test_cli_analyze_writes_verdicts(tmp_path):
    _assert_analyze_stable_on_both_axes("iso-table1", tmp_path / "an")


def test_cli_analyze_am1_table1_stable_on_both_axes(tmp_path):
    _assert_analyze_stable_on_both_axes("am1-table1", tmp_path / "an")


def test_cli_analyze_violating_medium(tmp_path):
    out = tmp_path / "an"
    code = cli.main(["analyze", "--medium", "aniso-violating", "--axis", "x",
                     "--directions", "64", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "stability_x.json").read_text())
    assert payload["verdict"] == "unstable"


@pytest.mark.parametrize("directions", ["5", "0", "-3"])
def test_cli_analyze_rejects_too_few_directions(directions, tmp_path,
                                                capsys):
    out = tmp_path / "an"
    code = cli.main(["analyze", "--medium", "am1-table1", "--directions",
                     directions, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "configuration error: --directions: " in capsys.readouterr().err
    assert not out.exists()  # nothing is written


def test_cli_analyze_rejects_too_many_directions(tmp_path, monkeypatch,
                                                 capsys):
    def branches(*args):  # the scan's large arrays: never reached
        raise AssertionError("the scan ran")

    monkeypatch.setattr(analysis, "branches", branches)
    out = tmp_path / "an"
    assert cli.main(["analyze", "--medium", "am1-table1", "--directions",
                     str(analysis.MAX_DIRECTIONS + 1), "--out", str(out)]) == (
        cli.EXIT_CONFIG)
    assert ("configuration error: --directions: need at most 100000, got "
            "100001") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_directions", [5, 0, -3])
def test_write_analysis_artifacts_rejects_too_few_directions(n_directions,
                                                             tmp_path):
    out = tmp_path / "an"
    with pytest.raises(ConfigurationError, match="need at least 16"):
        cli.write_analysis_artifacts("am1-table1", "both", n_directions,
                                     str(out))
    assert not out.exists()  # nothing is written


@pytest.mark.parametrize("axis", ["z", "X", ""])
def test_write_analysis_artifacts_rejects_an_unknown_axis(axis, tmp_path):
    out = tmp_path / "an"
    with pytest.raises(ConfigurationError, match="--axis: "):
        cli.write_analysis_artifacts("am1-table1", axis, 16, str(out))
    assert not out.exists()  # nothing is written
    # the axis is checked before the medium is resolved
    with pytest.raises(ConfigurationError, match="--axis: "):
        cli.write_analysis_artifacts("no-such-medium", axis, 16, str(out))


def test_unknown_preset_rejected(tmp_path, capsys):
    # the old meta-preset names of `wavelab run` are neither presets nor
    # files: each experiment has its own subcommand
    for name in ("no-such-preset", "abc-comparison", "stability-analysis"):
        out = tmp_path / name
        assert cli.main(["run", name, "--out", str(out)]) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()  # nothing is written


def test_convergence_command_runs_the_sweep(tmp_path, monkeypatch, capsys):
    calls = []

    def sweep(out_dir=None):
        calls.append(out_dir)
        return {2: {"errors": [4e-3, 1e-3], "orders": [2.0]}}

    monkeypatch.setattr(cli, "convergence_study", sweep)
    out = str(tmp_path / "cs")
    assert cli.main(["convergence", "--out", out]) == cli.EXIT_OK
    assert calls == [out]
    assert "degree 2: observed orders 2" in capsys.readouterr().out


def test_run_convergence_study_runs_the_scenario_preset(tmp_path):
    out = tmp_path / "cs"
    assert cli.main(["run", "convergence-study", "--degree", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    assert (out / "series.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["degree"] == 3
    assert meta["scenario"]["name"] == "convergence-study"
    assert meta["status"] == "completed"


@pytest.mark.parametrize("name", ["abc-comparison", "stability-analysis",
                                  "convergence-study"])
def test_compare_abc_rejects_a_meta_preset(name, tmp_path, capsys):
    # convergence-study is a scenario preset without a layer; the other two
    # names are neither presets nor files
    out = tmp_path / "cmp"
    assert cli.main(["compare-abc", name, "--out", str(out)]) == (
        cli.EXIT_CONFIG)
    assert "configuration error: " in capsys.readouterr().err
    assert not out.exists()  # nothing is written


def test_cli_run_waveguide_shortened(tmp_path):
    out = tmp_path / "wg"
    assert cli.main(["run", "acoustic-waveguide", "--theta-x", "1",
                     "--final-time", "5", "--out", str(out)]) == cli.EXIT_OK
    linf = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)[:, 1]
    assert linf.max() <= 2.0 * linf[0]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "completed"
    assert meta["scenario"]["theta"]["x"] == 1.0
    assert meta["scenario"]["final_time"] == 5.0


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    block = _readme_section("Command line").split("```")[1]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("wavelab ")]
    assert {line[1] for line in lines} == {
        "run", "analyze", "compare-abc", "convergence"}
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(line[1:])  # exits on a line that does not parse


def test_readme_lists_the_scenario_presets():
    text = " ".join(_readme_section("Command line").split())
    listed = re.search(r"Scenario presets[^:]*:(.*?)\.", text).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == (
        scenario.PRESET_SCENARIOS)


def test_cli_unstable_run_exits_3_with_partial_artifacts(tmp_path):
    # squeezed strong-damping elastic layer: carries a genuine growing mode
    data = tiny_scenario_dict(
        name="squeezed",
        domain={"x": [-10.0, 10.0], "y": [0.0, 10.0]},
        element_size=5.0,
        degree=3,
        medium={"preset": "iso-table1"},
        pml={"sides": ["east"], "width": 10.0, "tol": 0.001, "alpha": 0.15},
        boundaries={"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
        final_time=400.0,
        divergence_factor=20.0,
        initial={"type": "gaussian-pulse", "center": [0.0, 5.0]},
        receivers=[],
        snapshot_times=[])
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_UNSTABLE
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "unstable"
    assert meta["blowup_time"] is not None
    series = (out / "series.csv").read_text().splitlines()
    assert len(series) > 10  # partial record was written
    last_linf = float(series[-1].split(",")[1])
    first_linf = float(series[1].split(",")[1])
    assert last_linf > 20.0 * first_linf


def test_compare_abc_small_scenario(tmp_path):
    data = tiny_scenario_dict(
        name="mini-abc",
        domain={"x": [-20.0, 20.0], "y": [0.0, 20.0]},
        element_size=5.0,
        degree=3,
        medium={"preset": "acoustic-484"},
        pml={"sides": ["east"], "width": 10.0, "tol": 0.001, "alpha": 0.15},
        boundaries={"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
        final_time=60.0,
        initial={"type": "gaussian-pulse"},
        receivers=[],
        snapshot_times=[])
    path = write_scenario(tmp_path, data)
    out = tmp_path / "cmp"
    assert cli.main(["compare-abc", path, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["pml_max_linf_error"] < meta["abc_max_linf_error"]
    body = (out / "error_series.csv").read_text().splitlines()
    assert body[0] == "t,pml_linf,pml_l2,abc_linf,abc_l2"
    assert len(body) > 10


def _captured_solver_runs(monkeypatch, **forced):
    """Records of every ``wavelab.solver.run`` call, in call order, with
    the keywords in ``forced`` set on each call."""
    records = []
    original = wavelab.solver.run

    def record(*args, **kwargs):
        records.append(original(*args, **{**kwargs, **forced}))
        return records[-1]

    monkeypatch.setattr(wavelab.solver, "run", record)
    return records


ALL_SIDES_BASE = dict(
    domain={"x": [-20.0, 20.0], "y": [0.0, 20.0]}, element_size=5.0,
    degree=2, medium={"preset": "acoustic-484"},
    pml={"sides": ["west", "east", "south", "north"], "width": 10.0,
         "gamma": 1.5},
    final_time=10.0, receivers=[], snapshot_times=[],
    initial={"type": "gaussian-pulse"})


def test_compare_abc_reference_is_an_undamped_layer(tmp_path, monkeypatch):
    """The reference run is the base with an undamped layer as wide as the
    domain on each of the base's layer sides: the grown domain's mesh, no
    auxiliary fields and gamma = 1 although the base has 1.5, and the base
    interior.  It records no history: it is measured against the stored
    runs as it steps.  It absorbs nowhere, so the PML run's error stays
    small where a wall of the reference would reflect."""
    records = _captured_solver_runs(monkeypatch)
    base = scenario.from_dict(tiny_scenario_dict(**ALL_SIDES_BASE))
    pml_err, _, _ = cli.compare_abc(base, tmp_path / "cmp")
    pml_rec, abc_rec, ref_rec = records
    ref = ref_rec.mesh
    # 40 (the x extent) beyond every side of [-20, 20] x [0, 20]
    assert np.array_equal(ref.x_edges, -60.0 + 5.0 * np.arange(25))
    assert np.array_equal(ref.y_edges, -40.0 + 5.0 * np.arange(21))
    assert ref.interior_box == base.domain
    assert ref.active_x.size == 0 and ref.active_y.size == 0
    assert np.all(ref.inv_gamma_x == 1.0) and np.all(ref.inv_gamma_y == 1.0)
    assert pml_rec.mesh.inv_gamma_x.min() < 1.0
    assert ref_rec.history is None
    assert pml_rec.history is not None and abc_rec.history is not None

    def interior_shape(mesh):
        kx0, kx1, ly0, ly1 = mesh.interior
        return kx1 - kx0, ly1 - ly0

    assert interior_shape(ref) == interior_shape(pml_rec.mesh) == (8, 4)
    assert ref_rec.dt == pml_rec.dt == abc_rec.dt
    # a reference with walls where the base has layers put this at 0.13
    late = np.argmin(np.abs(pml_err.times - 9.5))
    assert pml_err.linf[late] < 1e-3


@pytest.mark.parametrize("base", [
    dict(domain={"x": [-20.0, 20.0], "y": [0.0, 20.0]}, element_size=5.0,
         degree=3, medium={"preset": "acoustic-484"},
         pml={"sides": ["east"], "width": 10.0, "tol": 0.001, "alpha": 0.15},
         boundaries={"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
         final_time=30.0, initial={"type": "gaussian-pulse"},
         receivers=[], snapshot_times=[]),
    ALL_SIDES_BASE,
    dict(domain={"x": [-3.0, 3.0], "y": [0.0, 3.0]}, element_size=0.6,
         degree=2, medium={"preset": "acoustic-484"},
         pml={"sides": ["west", "south"], "width": 1.2}, history_stride=3,
         final_time=3.0, initial={"type": "gaussian-pulse", "width_sq": 0.5},
         receivers=[], snapshot_times=[])],
    ids=["acoustic-east", "all-sides", "west-south-stride"])
def test_compare_abc_series_equal_the_history_oracle(base, tmp_path,
                                                     monkeypatch):
    """The errors measured as the reference steps equal, bit for bit, the
    batched differences of the recorded histories of the same three runs,
    also with the base's own ``history_stride`` and an element size that
    binary fractions do not hold exactly."""
    records = _captured_solver_runs(monkeypatch, record_fields=True)
    pml_err, abc_err, horizon = cli.compare_abc(
        scenario.from_dict(tiny_scenario_dict(**base)), tmp_path / "cmp")
    pml_rec, abc_rec, ref_rec = records
    stride = base.get("history_stride")
    for got, rec in ((pml_err, pml_rec), (abc_err, abc_rec)):
        assert stride is None or np.allclose(np.diff(rec.history_times),
                                             stride * rec.dt)
        want = oracles.pml_error(rec, ref_rec, horizon)
        assert len(want.times) > 10
        for name in ("times", "linf", "l2"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert abc_err.max_linf() > 0.0


def test_compare_abc_rejects_a_base_without_a_layer(tmp_path):
    base = scenario.from_dict(tiny_scenario_dict())
    with pytest.raises(ConfigurationError, match=r"^pml\.sides: "):
        cli.compare_abc(base, tmp_path / "cmp")
    assert not (tmp_path / "cmp").exists()


LOCKSTEP_BASE = dict(
    domain={"x": [-10.0, 10.0], "y": [0.0, 10.0]}, element_size=5.0,
    degree=2, medium={"preset": "acoustic-484"},
    pml={"sides": ["east"], "width": 5.0}, history_stride=2, final_time=5.0,
    receivers=[], snapshot_times=[], initial={"type": "gaussian-pulse"})


def _stepped_times(rec):
    rec.history_times = rec.times


def _one_sample_short(rec):
    rec.history, rec.history_times = rec.history[:-1], rec.history_times[:-1]


def _one_sample_long(rec):
    rec.history = np.concatenate([rec.history, rec.history[-1:]])
    rec.history_times = np.append(rec.history_times, np.inf)


def _every_other_sample(rec):
    rec.history, rec.history_times = rec.history[::2], rec.history_times[::2]


def _half_times(rec):
    rec.history_times = 0.5 * rec.history_times


def _narrower_interior(rec):
    rec.history = rec.history[:, :-1]


def _fewer_nodes(rec):  # as from a lower degree
    rec.history = rec.history[..., :-1, :-1]


@pytest.mark.parametrize("stored", [0, 1], ids=["pml", "abc"])
@pytest.mark.parametrize("perturb", [
    _half_times, _every_other_sample, _stepped_times, _one_sample_short,
    _one_sample_long, _narrower_interior, _fewer_nodes],
    ids=lambda f: f.__name__[1:])
def test_compare_abc_rejects_stored_samples_out_of_lockstep(
        perturb, stored, tmp_path, monkeypatch):
    """Each reference sample must meet, in each stored run, a sample of its
    index, shape and time (to 1e-9), and the stored runs no further ones."""
    original = wavelab.solver.run
    calls = []

    def run(*args, **kwargs):
        rec = original(*args, **kwargs)
        if len(calls) == stored:
            perturb(rec)
        calls.append(rec)
        return rec

    monkeypatch.setattr(wavelab.solver, "run", run)
    base = scenario.from_dict(tiny_scenario_dict(**LOCKSTEP_BASE))
    with pytest.raises(ValueError, match="reference"):
        cli.compare_abc(base, tmp_path / "cmp")
    assert len(calls[stored].history) > 2


def test_compare_abc_accepts_sample_times_off_in_their_last_bits(
        tmp_path, monkeypatch):
    """A dt off in its last bits, as from another mesh origin, lines up."""
    original = wavelab.solver.run

    def run(*args, **kwargs):
        rec = original(*args, **kwargs)
        if rec.history is not None:
            rec.history_times = rec.history_times * (1 + 1e-15)
        return rec

    monkeypatch.setattr(wavelab.solver, "run", run)
    base = scenario.from_dict(tiny_scenario_dict(**LOCKSTEP_BASE))
    pml_err, _, _ = cli.compare_abc(base, tmp_path / "cmp")
    assert len(pml_err.times) > 2


@pytest.mark.parametrize("argv", [
    ["run", "acoustic-waveguide"], ["compare-abc"], ["convergence"],
    ["analyze", "--medium", "am1-table1"]],
    ids=["run", "compare-abc", "convergence", "analyze"])
def test_an_unusable_out_exits_2_before_any_run(argv, tmp_path, monkeypatch,
                                                capsys):
    def run(*args, **kwargs):
        raise AssertionError("solver.run called")

    monkeypatch.setattr(wavelab.solver, "run", run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: cannot make output directory {out}: " \
            in err
    assert blocker.read_text() == ""


def test_snapshot_times_with_one_file_name_are_rejected(tmp_path, capsys):
    """snapshot_t{t:g}.csv keeps six significant digits, so 0.6 and
    0.6000001 would write one file."""
    data = tiny_scenario_dict(final_time=1.0,
                              snapshot_times=[0.2, 0.6, 0.6000001])
    with pytest.raises(ConfigurationError,
                       match=r"^snapshot_times\[2\]: .*snapshot_t0\.6\.csv.*"
                             r"snapshot_times\[1\]"):
        scenario.from_dict(data)
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "snapshot_times[2]" in capsys.readouterr().err
    assert not out.exists()


def _set(path, value):
    """A mutation that sets the value at a key path of a scenario dict."""
    def mutate(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


_ELASTIC = {"type": "elastic", "rho": 1.0, "c11": 4.0, "c12": 1.0,
            "c22": 4.0, "c33": 2.0}
_NO_C11 = {k: v for k, v in _ELASTIC.items() if k != "c11"}
_NEGATIVE_RHO = {"type": "acoustic", "rho": -1.0, "kappa": 1.0}


def _both(first, second):
    def mutate(data):
        first(data)
        second(data)
    return mutate


# (mutation of acoustic-waveguide, key path the error must name)
PROBES = {
    "receivers-string": (_set(["receivers"], "ab"), "receivers"),
    "theta-x-string": (_set(["theta", "x"], "a"), "theta.x"),
    "pml-width-string": (_set(["pml", "width"], "x"), "pml.width"),
    "snapshots-string": (_set(["snapshot_times"], "ab"), "snapshot_times"),
    "theta-list": (_set(["theta"], [1]), "theta"),
    "boundaries-list": (_set(["boundaries"], [1]), "boundaries"),
    "elastic-missing-c11": (_set(["medium"], _NO_C11), "medium.c11"),
    "two-media-missing-c11": (_set(["medium"], {
        "two": [_ELASTIC, _NO_C11],
        "interface": {"axis": "x", "position": 0.0}}), "medium.two[1].c11"),
    "final-time-inf": (_set(["final_time"], float("inf")), "final_time"),
    "receiver-3d": (_set(["receivers"], [[1, 2, 3]]), "receivers[0]"),
    "center-1d": (_set(["initial", "center"], [1]), "initial.center"),
    "cfl-bool": (_set(["cfl"], True), "cfl"),
    "record-fields-string": (_set(["record_fields"], "no"), "record_fields"),
    "exponent-float": (_set(["pml", "exponent"], 2.7), "pml.exponent"),
    # an unknown key is named by the object that holds it
    "pml-unknown-key": (_set(["pml", "widht"], 10.0), "pml"),
    "initial-unknown-key": (_set(["initial", "centre"], [0.0, 1.0]),
                            "initial"),
    "duplicate-side": (_set(["pml", "sides"], ["east", "east"]),
                       "pml.sides[1]"),
    "interface-off-edge": (_set(["medium"], {
        "two": ["acoustic-484", {"type": "acoustic", "rho": 2.0,
                                 "kappa": 4.0}],
        "interface": {"axis": "x", "position": 2.5}}),
        "medium.interface.position"),
    "sides-string": (_set(["pml", "sides"], "east"), "pml.sides"),
    "two-media-mixed-systems": (_set(["medium"], {
        "two": ["acoustic-484", "iso-table1"],
        "interface": {"axis": "x", "position": 0.0}}), "medium.two[1]"),
    "element-size-tiny": (_set(["element_size"], 1e-300), "element_size"),
    "final-time-huge": (_set(["final_time"], 1e12), "final_time"),
    # wave speeds that overflow to inf (dt would be 0)
    "acoustic-infinite-speed": (_set(["medium"], {
        "type": "acoustic", "rho": 1e-320, "kappa": 1.0}), "medium"),
    "elastic-infinite-speed": (_set(["medium"], {
        "type": "elastic", "rho": 1.0, "c11": 1e308, "c12": 0.0,
        "c22": 1e308, "c33": 1e308}), "medium"),
    # parameters the medium itself rejects
    "acoustic-negative-rho": (_set(["medium"], _NEGATIVE_RHO), "medium"),
    "two-media-negative-rho": (_set(["medium"], {
        "two": ["acoustic-484", _NEGATIVE_RHO],
        "interface": {"axis": "x", "position": 0.0}}), "medium.two[1]"),
    # the standing mode is exact only for one uniform acoustic medium
    "standing-mode-elastic": (_both(
        _set(["medium"], "iso-table1"),
        _set(["initial"], {"type": "standing-mode"})), "initial.type"),
    "standing-mode-two-media": (_both(
        _set(["medium"], {"two": ["acoustic-484", "acoustic-484"],
                          "interface": {"axis": "x", "position": 0.0}}),
        _set(["initial"], {"type": "standing-mode"})), "initial.type"),
    # the element layout: extents, then element size, then layer width,
    # then interface; size 3 divides neither the extents nor the width 10
    "domain-reversed": (_set(["domain", "x"], [50.0, -50.0]), "domain.x"),
    "element-size-3": (_set(["element_size"], 3.0), "element_size"),
    "pml-width-part-element": (_set(["pml", "width"], 7.5), "pml.width"),
    "pml-width-no-element": (_set(["pml", "width"], 1e-12), "pml.width"),
    "pml-width-negative": (_set(["pml", "width"], -10.0), "pml.width"),
    # the tol-derived d0 of this width overflows: layout names the width first
    "pml-width-tiny": (_set(["pml", "width"], 1e-308), "pml.width"),
    "receiver-outside": (_set(["receivers"], [[500.0, 1.0]]),
                         "receivers[0]"),
    "interface-outside": (_set(["medium"], {
        "two": ["acoustic-484", "acoustic-484"],
        "interface": {"axis": "x", "position": 500.0}}),
        "medium.interface.position"),
    # the ranges of the solver's parameters and of the layer's
    "theta-y-above-one": (_set(["theta", "y"], 1.5), "theta.y"),
    "cfl-zero": (_set(["cfl"], 0.0), "cfl"),
    "final-time-zero": (_set(["final_time"], 0.0), "final_time"),
    "stop-time-past-final": (_set(["stop_time"], 300.0), "stop_time"),
    "pml-alpha-negative": (_set(["pml", "alpha"], -1.0), "pml.alpha"),
    "pml-gamma-zero": (_set(["pml", "gamma"], 0.0), "pml.gamma"),
    "pml-d0-negative": (_set(["pml", "d0"], -1.0), "pml.d0"),
    "pml-exponent-zero": (_set(["pml", "exponent"], 0), "pml.exponent"),
    "boundaries-east-1.5": (_set(["boundaries", "east"], 1.5),
                            "boundaries.east"),
    # NaN and inf reach the object that owns the key's range, whose rule the
    # message states (a third item: the message after the key)
    "cfl-nan": (_set(["cfl"], math.nan), "cfl", "must lie in (0, 1], got nan"),
    "theta-y-inf": (_set(["theta", "y"], math.inf), "theta.y",
                    "must lie in [0, 1], got inf"),
    "pml-alpha-nan": (_set(["pml", "alpha"], math.nan), "pml.alpha",
                      "must lie in [0, inf), got nan"),
    "pml-d0-inf": (_set(["pml", "d0"], math.inf), "pml.d0",
                   "must lie in [0, inf), got inf"),
    "pml-width-nan": (_set(["pml", "width"], math.nan), "pml.width",
                      "layer width nan is not a positive multiple"),
    "interface-inf": (_set(["medium"], {
        "two": ["acoustic-484", "acoustic-484"],
        "interface": {"axis": "y", "position": math.inf}}),
        "medium.interface.position", "y = inf is not on an"),
    "boundaries-west-nan": (_set(["boundaries", "west"], math.nan),
                            "boundaries.west",
                            "must lie in [-1, 1], got nan"),
    "boundaries-north-inf": (_set(["boundaries", "north"], math.inf),
                             "boundaries.north",
                             "must lie in [-1, 1], got inf"),
    "acoustic-rho-nan": (_set(["medium"], {
        "type": "acoustic", "rho": math.nan, "kappa": 1.0}), "medium",
        "acoustic medium needs rho > 0"),
    "acoustic-kappa-inf": (_set(["medium"], {
        "type": "acoustic", "rho": 1.0, "kappa": math.inf}), "medium",
        "wave speed c_p = inf"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_scenario_names_its_key(probe, tmp_path, capsys):
    mutate, key, *rule = PROBES[probe]
    message = f"{key}: {''.join(rule)}"
    data = copy.deepcopy(scenario.load_preset("acoustic-waveguide").raw)
    mutate(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a rejection prints no warning
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(message)}"):
            scenario.from_dict(data)
    path = write_scenario(tmp_path, data)
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err


def _numbers(node, path=()):
    """(key path, value) of every number in a JSON tree, bools aside."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _numbers(child, path + (key,))


def _members(node, path=()):
    """The key path of every member of every object in a JSON tree."""
    for key, child in node.items():
        yield path + (key,)
        if isinstance(child, dict):
            yield from _members(child, path + (key,))


@pytest.mark.parametrize("medium", [
    {"type": "acoustic", "rho": 1.0, "kappa": 1.0}, _ELASTIC],
    ids=["acoustic", "elastic"])
def test_every_number_rejects_nan_and_inf_naming_its_key(medium, tmp_path,
                                                        capsys):
    """NaN, inf and -inf anywhere a scenario holds a number exit 2 with a
    message that names the key, or for a medium's parameter the medium: the
    row or the object that owns the key's range rejects them.  The scenario
    sets every key that SCHEMA reads, so a key added without an owner fails
    here."""
    full = tiny_scenario_dict(
        medium={"two": [medium, dict(medium)],
                "interface": {"axis": "x", "position": 1.0}},
        pml={"sides": ["east"], "width": 1.0, "tol": 1e-3, "alpha": 0.1,
             "gamma": 1.5, "exponent": 3, "d0": 2.0},
        theta={"x": 0.5, "y": 1.0}, cfl=0.5, stop_time=0.4,
        initial={"type": "gaussian-pulse", "center": [1.0, 1.0],
                 "width_sq": 0.3, "nx": 1, "ny": 1},
        record_fields=False, history_stride=2, divergence_factor=1e4,
        output_dir=str(tmp_path / "out"))
    scenario.from_dict(full)
    assert set(_members(scenario.SCHEMA(full))) <= set(_members(full))
    for path, _ in _numbers(full):
        key = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                      for k in path)[1:]
        for bad in (math.nan, math.inf, -math.inf):
            data = copy.deepcopy(full)
            _set(list(path), bad)(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigurationError) as exc:
                    scenario.from_dict(data)
            named = str(exc.value).split(": ")[0]
            assert key == named or key.startswith(
                (named + ".", named + "[")), str(exc.value)
            assert cli.main(["run", write_scenario(tmp_path, data)]) == \
                cli.EXIT_CONFIG
            assert f"configuration error: {named}: " in \
                capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_final_time_below_1e_12_takes_its_step(tmp_path, capsys):
    """The stop tolerance is relative: a run to 1e-300 s takes one step."""
    out = tmp_path / "out"
    assert cli.main(["run", "acoustic-waveguide", "--final-time", "1e-300",
                     "--out", str(out)]) == cli.EXIT_OK
    assert "completed acoustic-waveguide: 1 steps" in capsys.readouterr().out
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["n_steps"] == meta["steps_taken"] == 1
    assert len((out / "series.csv").read_text().splitlines()) == 3


def test_cli_run_reports_the_steps_it_ran(tmp_path, capsys):
    path = write_scenario(tmp_path, tiny_scenario_dict(
        final_time=2.0, stop_time=1.0))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_OK
    ran = len((out / "series.csv").read_text().splitlines()) - 2
    meta = json.loads((out / "metadata.json").read_text())
    assert 0 < ran == meta["steps_taken"] < meta["n_steps"]
    assert f": {ran} steps," in capsys.readouterr().out
    # a run that reaches final_time takes every planned step
    path = write_scenario(tmp_path, tiny_scenario_dict(final_time=2.0))
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "completed"
    assert 0 < meta["steps_taken"] == meta["n_steps"]


def test_snapshot_past_stop_time_is_rejected(tmp_path, capsys):
    """A snapshot after stop_time would never be taken; from_dict names it
    and ``wavelab run`` exits 2 without writing anything."""
    data = tiny_scenario_dict(final_time=2.0, stop_time=1.0,
                              snapshot_times=[0.5, 1.5])
    with pytest.raises(ConfigurationError,
                       match=r"^snapshot_times\[1\]: must lie in "
                             r"\[0, stop_time\]$"):
        scenario.from_dict(data)
    out = tmp_path / "out"
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "snapshot_times[1]: must lie in [0, stop_time]" in \
        capsys.readouterr().err
    assert not out.exists()
    # a snapshot at stop_time itself is taken
    data["snapshot_times"] = [0.5, 1.0]
    assert cli.main(["run", write_scenario(tmp_path, data),
                     "--out", str(out)]) == cli.EXIT_OK
    assert sorted(p.name for p in out.glob("snapshot_t*.csv")) == [
        "snapshot_t0.5.csv", "snapshot_t1.csv"]


def test_compare_abc_drops_snapshots_past_its_horizon(tmp_path):
    """compare_abc stops its runs at the validity horizon and writes no
    snapshots, so a base with snapshots past the horizon still runs.  Its
    runs end on the first step at or past the horizon, and the error series
    on the last sample at or before it."""
    base = scenario.from_dict(tiny_scenario_dict(
        domain={"x": [-20.0, 20.0], "y": [0.0, 20.0]}, element_size=5.0,
        degree=2, medium={"preset": "acoustic-484"},
        pml={"sides": ["east"], "width": 5.0}, final_time=60.0,
        receivers=[], snapshot_times=[55.0],
        initial={"type": "gaussian-pulse"}))
    pml_err, _, horizon = cli.compare_abc(base, tmp_path / "cmp")
    assert horizon < 55.0
    dt = pml_err.times[1] - pml_err.times[0]
    assert horizon - dt < pml_err.times[-1] <= horizon
    body = (tmp_path / "cmp" / "error_series.csv").read_text().splitlines()
    assert len(body) == 1 + len(pml_err.times)
