import copy
import json
import re
import warnings

import numpy as np
import pytest

from wavelab import cli, media, scenario
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
    with pytest.raises(ConfigurationError, match="wavelength"):
        scenario.from_dict(tiny_scenario_dict(wavelength=3.0))
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


def test_two_media_scenario_builds():
    data = tiny_scenario_dict(medium={
        "two": [{"type": "acoustic", "rho": 1.0, "kappa": 1.0},
                {"type": "acoustic", "rho": 2.0, "kappa": 4.0}],
        "interface": {"axis": "x", "position": 1.0}})
    sc = scenario.from_dict(data)
    mesh, _ = sc.build()
    assert mesh.media[0, 0].rho == 1.0
    assert mesh.media[1, 0].rho == 2.0
    assert sc.c_p_max == pytest.approx(np.sqrt(2.0))


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


def test_cli_exit_code_for_configuration_error(tmp_path):
    path = write_scenario(tmp_path, tiny_scenario_dict(element_size=0.37))
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG


def test_cli_run_of_an_unreadable_path_names_it(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == cli.EXIT_CONFIG
    assert str(tmp_path) in capsys.readouterr().err


def test_cli_analyze_writes_verdicts(tmp_path):
    out = tmp_path / "an"
    code = cli.main(["analyze", "--medium", "iso-table1", "--axis", "both",
                     "--directions", "64", "--out", str(out)])
    assert code == 0
    for ax in ("x", "y"):
        payload = json.loads((out / f"stability_{ax}.json").read_text())
        assert payload["verdict"] == "stable"
        assert payload["medium"] == "iso-table1"
    header = (out / "slowness.csv").read_text().splitlines()[0]
    assert header == ("branch,angle,S_x,S_y,Vg_x,Vg_y,product_x,product_y")


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


@pytest.mark.parametrize("n_directions", [5, 0, -3])
def test_run_preset_stability_analysis_rejects_too_few_directions(
        n_directions, tmp_path):
    out = tmp_path / "sa"
    with pytest.raises(ConfigurationError, match="need at least 16"):
        cli.run_preset("stability-analysis", out_dir=str(out),
                       n_directions=n_directions)
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


def test_run_preset_stability_analysis(tmp_path):
    status, reports = cli.run_preset("stability-analysis",
                                     out_dir=str(tmp_path),
                                     medium="am1-table1", n_directions=64)
    assert status == cli.EXIT_OK
    assert reports["x"].verdict == "stable"
    assert reports["y"].verdict == "stable"


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        cli.run_preset("no-such-preset")


def test_convergence_study_name_runs_the_sweep(tmp_path, monkeypatch):
    calls = []

    def sweep(out_dir=None):
        calls.append(out_dir)
        return {"swept": True}

    monkeypatch.setattr(cli, "convergence_study", sweep)
    out = str(tmp_path / "cs")
    assert cli.run_preset("convergence-study", out_dir=out) == (
        cli.EXIT_OK, {"swept": True})
    assert cli.main(["run", "convergence-study", "--out", out]) == cli.EXIT_OK
    assert calls == [out, out]
    with pytest.raises(ConfigurationError, match="final_time"):
        cli.run_preset("convergence-study", final_time=1.0)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", cli.META_PRESETS)
def test_compare_abc_rejects_a_meta_preset(name, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert cli.main(["compare-abc", name, "--out", str(out)]) == (
        cli.EXIT_CONFIG)
    assert f"configuration error: {name!r} is an experiment" in (
        capsys.readouterr().err)
    assert not out.exists()  # nothing is written
    # every name is listed once
    assert sorted(cli.ALL_PRESETS) == sorted(
        set(scenario.PRESET_SCENARIOS) | set(cli.META_PRESETS))


def test_run_preset_waveguide_shortened(tmp_path):
    status, record = cli.run_preset("acoustic-waveguide",
                                    out_dir=str(tmp_path / "wg"),
                                    theta_x=1.0, final_time=5.0)
    assert status == cli.EXIT_OK
    assert record.status == "completed"
    assert record.linf.max() <= 2.0 * record.linf[0]
    assert (tmp_path / "wg" / "series.csv").exists()
    meta = json.loads((tmp_path / "wg" / "metadata.json").read_text())
    assert meta["status"] == "completed"


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


def test_compare_abc_reference_is_an_undamped_layer(tmp_path, monkeypatch):
    """The reference run is the base with one undamped east layer as wide as
    the domain: the doubled domain's mesh, no auxiliary fields and gamma = 1
    although the base has 1.5, and a history of the base interior only."""
    records = []
    run_scenario = scenario.run_scenario

    def record(sc):
        records.append(run_scenario(sc))
        return records[-1]

    monkeypatch.setattr(scenario, "run_scenario", record)
    base = scenario.from_dict(tiny_scenario_dict(
        domain={"x": [-20.0, 20.0], "y": [0.0, 20.0]}, element_size=5.0,
        degree=2, medium={"preset": "acoustic-484"},
        pml={"sides": ["west", "east", "south", "north"], "width": 10.0,
             "gamma": 1.5},
        final_time=10.0, receivers=[], snapshot_times=[],
        initial={"type": "gaussian-pulse"}))
    cli.compare_abc(base, tmp_path / "cmp")
    pml_rec, _, ref_rec = records
    ref = ref_rec.mesh
    doubled = -20.0 + 5.0 * np.arange(17)  # [x0, x1 + (x1 - x0)]
    assert np.array_equal(ref.x_edges, doubled)
    assert ref.interior_box == base.domain
    assert ref.active_x.size == 0 and ref.active_y.size == 0
    assert np.all(ref.inv_gamma_x == 1.0) and np.all(ref.inv_gamma_y == 1.0)
    assert pml_rec.mesh.inv_gamma_x.min() < 1.0
    assert ref_rec.history.shape == pml_rec.history.shape


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
    "pml-unknown-key": (_set(["pml", "widht"], 10.0), "pml.widht"),
    "initial-unknown-key": (_set(["initial", "centre"], [0.0, 1.0]),
                            "initial.centre"),
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
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_scenario_names_its_key(probe, tmp_path, capsys):
    mutate, key = PROBES[probe]
    data = copy.deepcopy(scenario.load_preset("acoustic-waveguide").raw)
    mutate(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a rejection prints no warning
        with pytest.raises(ConfigurationError, match=f"^{re.escape(key)}: "):
            scenario.from_dict(data)
    path = write_scenario(tmp_path, data)
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert f"configuration error: {key}: " in capsys.readouterr().err


def test_cli_run_reports_the_steps_it_ran(tmp_path, capsys):
    path = write_scenario(tmp_path, tiny_scenario_dict(
        final_time=2.0, stop_time=1.0))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_OK
    ran = len((out / "series.csv").read_text().splitlines()) - 2
    planned = json.loads((out / "metadata.json").read_text())["n_steps"]
    assert 0 < ran < planned
    assert f": {ran} steps," in capsys.readouterr().out
