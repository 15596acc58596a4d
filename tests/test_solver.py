import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wavelab import cli, diagnostics, media, pml, scenario
from wavelab.errors import InvalidMediumError, UnstableRunError
from wavelab.solver import (SolverConfig, advance, build_mesh, rhs, rk4_step,
                            run, timestep, timestep_formula)
from wavelab.solver.core import (gaussian_pulse, split, standing_mode,
                                 zero_state)

R_CLOSED = {"west": 1.0, "east": 1.0, "south": 1.0, "north": 1.0}
ACOUSTIC = media.preset("acoustic-484")
ISO = media.preset("iso-table1")


def closed_box(med, n_elem=2, degree=4, size=2.0):
    return build_mesh(0.0, n_elem * size, 0.0, n_elem * size, size, degree,
                      lambda x, y: med, R_CLOSED)


def test_mesh_rejects_a_wave_speed_that_is_not_finite():
    # kappa / rho overflows to inf: the time step would be zero
    fast = media.AcousticMedium(rho=1e-320, kappa=1.0)
    with pytest.raises(InvalidMediumError, match="c_p = inf"):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, lambda x, y: fast, R_CLOSED)


def smooth_random_state(mesh, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    st = zero_state(mesh)
    X, Y = mesh.node_coordinates()
    for f in range(mesh.m):
        c = rng.normal(size=(3, 3))
        st.U[:, :, f] = amplitude * sum(
            c[i, j] * X ** i * Y ** j for i in range(3) for j in range(3))
    return st


def rate(st, mesh, cfg):
    """(dU, dw_x, dw_y) at a state: rhs into a fresh vector, split."""
    out = np.empty_like(st.y)
    rhs(st.y, mesh, cfg, out)
    return split(out, mesh)


def test_rhs_zero_for_compatible_constant_state():
    """Constant velocity with zero pressure satisfies the r=1 walls, so every
    fluctuation vanishes and so does the broken derivative."""
    mesh = closed_box(ACOUSTIC, n_elem=3, degree=3)
    cfg = SolverConfig(final_time=1.0)
    st = zero_state(mesh)
    st.U[:, :, 1] = 0.8
    st.U[:, :, 2] = -0.2
    dU, dwx, dwy = rate(st, mesh, cfg)
    assert np.max(np.abs(dU)) < 1e-14
    # elastic analogue: constant velocity, zero stress, free surfaces
    mesh = closed_box(ISO, n_elem=2, degree=4)
    st = zero_state(mesh)
    st.U[:, :, 0] = 0.5
    st.U[:, :, 1] = 1.5
    dU, _, _ = rate(st, mesh, cfg)
    assert np.max(np.abs(dU)) < 1e-13


def test_rhs_theta_independent_without_damping():
    mesh = closed_box(ACOUSTIC)
    st = smooth_random_state(mesh, seed=1)
    d0 = rate(st, mesh, SolverConfig(theta_x=0.0, theta_y=0.0, final_time=1.0))
    d1 = rate(st, mesh, SolverConfig(theta_x=1.0, theta_y=1.0, final_time=1.0))
    assert np.array_equal(d0[0], d1[0])
    assert d0[1].size == 0 and d0[2].size == 0


def test_single_element_energy_rate_nonpositive():
    mesh = closed_box(ACOUSTIC, n_elem=1, degree=5)
    cfg = SolverConfig(final_time=1.0)
    st = smooth_random_state(mesh, seed=2)
    dU, _, _ = rate(st, mesh, cfg)
    h = mesh.ref.weights
    PU = np.einsum("klab,klbij->klaij", mesh.Pinv, st.U)
    dE = float(np.einsum("klaij,klaij,i,j->", PU, dU, h, h) * mesh.jac[0, 0])
    E = diagnostics.discrete_energy(st.U, mesh)
    assert dE <= 1e-12 * E


@pytest.mark.parametrize("med", [ACOUSTIC, ISO], ids=["acoustic", "elastic"])
def test_closed_box_energy_monotone(med):
    mesh = closed_box(med, n_elem=3, degree=3, size=2.0)
    cfg = SolverConfig(final_time=1.0)
    st = smooth_random_state(mesh, seed=3)
    dt = timestep(cfg, mesh)
    E = diagnostics.discrete_energy(st.U, mesh)
    for _ in range(150):
        advance(st, dt, mesh, cfg)
        E_new = diagnostics.discrete_energy(st.U, mesh)
        assert E_new <= E * (1.0 + 1e-12)
        E = E_new


def test_timestep_reference_values():
    assert timestep_formula(0.9, 4, 1.484, 5.0) == pytest.approx(
        0.238243, rel=1e-5)
    assert timestep_formula(0.9, 4, 6.0, 5.0) == pytest.approx(
        0.0589256, rel=1e-5)
    # doubling N scales dt by (2N+1) ratio
    r = timestep_formula(0.9, 8, 1.0, 1.0) / timestep_formula(0.9, 4, 1.0, 1.0)
    assert r == pytest.approx(9.0 / 17.0, rel=1e-14)


def test_rk4_scalar_decay_accuracy():
    y = np.array([1.0])
    dt = 0.1
    rk4_step(y, dt, lambda s, out: np.negative(s, out=out), np.empty((5, 1)))
    assert abs(y[0] - np.exp(-dt)) < 1e-7


def test_rk4_zero_rhs_identity():
    y = np.arange(5.0)
    rk4_step(y, 0.3, lambda s, out: out.fill(0.0), np.empty((5, 5)))
    assert np.array_equal(y, np.arange(5.0))


def test_advance_linear_superposition():
    mesh = closed_box(ACOUSTIC, n_elem=2, degree=3)
    cfg = SolverConfig(final_time=1.0)
    dt = timestep(cfg, mesh)
    a = smooth_random_state(mesh, seed=4)
    b = smooth_random_state(mesh, seed=5)
    ab = zero_state(mesh)
    ab.U[:] = 2.0 * a.U + 3.0 * b.U
    for st in (a, b, ab):
        advance(st, dt, mesh, cfg)
    assert np.allclose(ab.U, 2.0 * a.U + 3.0 * b.U,
                       rtol=0, atol=1e-12 * np.max(np.abs(ab.U)))


def test_run_zero_initial_data_stays_zero():
    mesh = closed_box(ACOUSTIC)
    rec = run(mesh, SolverConfig(final_time=0.5), initial={"type": "zero"})
    assert np.all(rec.linf == 0.0)
    assert np.all(rec.energy == 0.0)
    assert np.all(rec.final_state.U == 0.0)


def test_run_records_receivers_and_snapshots(tmp_path):
    mesh = closed_box(ACOUSTIC, n_elem=2, degree=4, size=1.0)
    cfg = SolverConfig(final_time=0.4)
    rec = run(mesh, cfg,
              initial={"type": "gaussian-pulse", "center": (1.0, 1.0),
                       "width_sq": 0.3},
              receivers=[(1.0, 1.0), (0.25, 0.5)],
              snapshot_times=[0.0, 0.4])
    assert rec.status == "completed"
    assert rec.receiver_series.shape[0] == 2
    assert rec.receiver_series.shape[1] == len(rec.times)
    # receiver at the pulse center starts at the peak value
    assert rec.receiver_series[0][0][0] == pytest.approx(1.0)
    assert set(rec.snapshots) == {0.0, 0.4}
    assert np.array_equal(rec.snapshots[0.4], rec.final_state.U)
    # the record keeps the stepped vector, not the RK4 stage vectors
    U_final = split(rec.final_state.y, mesh)[0]
    assert np.array_equal(U_final, rec.snapshots[0.4])
    assert rec.final_state.stages is None
    # at dt 0.2, 0.51 and 0.52 both round to step 3: each requested time
    # gets that step's fields, one shared copy, and its own file
    sc = scenario.with_overrides(scenario.load_preset("acoustic-waveguide"),
                                 final_time=1.0,
                                 snapshot_times=[0.5, 0.51, 0.52])
    rec = cli.run_scenario_with_artifacts(sc, tmp_path)
    assert rec.dt == pytest.approx(0.2)
    assert set(rec.snapshots) == {0.5, 0.51, 0.52}
    assert rec.snapshots[0.51] is rec.snapshots[0.52]
    assert not np.array_equal(rec.snapshots[0.5], rec.snapshots[0.51])
    assert sorted(p.name for p in tmp_path.glob("snapshot_t*.csv")) == [
        "snapshot_t0.5.csv", "snapshot_t0.51.csv", "snapshot_t0.52.csv"]


def test_gaussian_pulse_peaks_at_one_on_a_node():
    mesh = build_mesh(-50.0, 50.0, 0.0, 50.0, 5.0, 4,
                      lambda x, y: ACOUSTIC,
                      {"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
                      layers=pml.Layers(("east",), 10.0))
    f = gaussian_pulse(mesh)
    assert f.max() == pytest.approx(1.0)


def test_perfect_matching_before_arrival():
    """With the pulse still far from the layer, the damped and undamped
    runs are identical in the interior."""
    d0 = pml.damping_strength(1.484, 10.0, 1e-3)
    r = {"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0}

    def make(d_on):
        layers = pml.Layers(("east",), 10.0, d0=d0 if d_on else 0.0,
                            alpha=0.15)
        return build_mesh(-20.0, 20.0, 0.0, 10.0, 5.0, 4,
                          lambda x, y: ACOUSTIC, r, layers=layers)

    T = 7.0  # arrival needs (20 - 9)/1.484 = 7.4 s
    kw = dict(initial={"type": "gaussian-pulse", "center": (0.0, 5.0)},
              record_fields=True, history_stride=1)
    rec_pml = run(make(True), SolverConfig(final_time=T), **kw)
    rec_ref = run(make(False), SolverConfig(final_time=T), **kw)
    diff = np.max(np.abs(rec_pml.history - rec_ref.history))
    # this squeezed domain leaves only ~7 km between pulse tail and layer,
    # so sub-resolution dispersive tails bound the agreement; the full-size
    # 1e-12 check lives in the acceptance suite
    assert diff <= 1e-8


def test_auxiliary_fields_allocated_only_on_layer_elements():
    d0 = pml.damping_strength(1.484, 10.0, 1e-3)
    layers = pml.Layers(("east",), 10.0, d0=d0, alpha=0.15)
    mesh = build_mesh(-20.0, 20.0, 0.0, 10.0, 5.0, 3, lambda x, y: ACOUSTIC,
                      {"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
                      layers=layers)
    # only the two element columns overlapping [20, 30] carry w_x, none w_y
    assert mesh.active_x.tolist() == [8, 9]
    assert mesh.active_y.size == 0
    st = zero_state(mesh)
    assert st.w_x.shape == (2, mesh.L, 3, mesh.n, mesh.n)
    assert st.w_y.shape[1] == 0
    # the blocks are views of the flat vector: U first, then w_x
    st.U[:] = 1.0
    st.w_x[:] = 2.0
    assert np.array_equal(st.y, np.repeat([1.0, 2.0],
                                          [st.U.size, st.w_x.size]))
    rec = run(mesh, SolverConfig(final_time=2.0), initial={"type": "zero"})
    assert np.all(rec.final_state.w_x == 0.0)


def test_sides_without_a_layer_stay_undamped():
    """An element's last node can round past the box's edge, as the top node
    does here (-9.08 + (-1.22 + 9.08) > -1.22); on a side without a layer
    that must not damp or scale."""
    layers = pml.Layers(("east",), 7.86, d0=1.0, gamma=1.5)
    mesh = build_mesh(0.0, 7.86, -9.08, -1.22, 7.86, 3,
                      lambda x, y: ACOUSTIC, R_CLOSED, layers=layers)
    assert mesh.yn.max() > -1.22
    assert mesh.active_x.tolist() == [1]
    assert mesh.active_y.size == 0
    assert np.all(mesh.d_y == 0.0) and np.all(mesh.inv_gamma_y == 1.0)


def test_divergence_guard_raises_with_partial_record():
    """A squeezed strong-damping elastic layer config carries a genuine
    growing mode; the run must abort with the partial record attached."""
    d0 = pml.damping_strength(6.0, 10.0, 1e-3)
    layers = pml.Layers(("east",), 10.0, d0=d0, alpha=0.15)
    mesh = build_mesh(-10.0, 10.0, 0.0, 10.0, 5.0, 3, lambda x, y: ISO,
                      {"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0},
                      layers=layers)
    st = smooth_random_state(mesh, seed=6, amplitude=0.1)
    with pytest.raises(UnstableRunError) as info:
        run(mesh, SolverConfig(final_time=2000.0), initial=st,
            divergence_factor=20.0, receivers=[(0.0, 5.0), (15.0, 2.5)],
            snapshot_times=[0.0], record_fields=True, history_stride=7)
    rec = info.value.record
    assert rec.status == "unstable"
    assert info.value.time == pytest.approx(rec.times[-1], abs=1e-9)
    assert rec.linf[-1] > 20.0 * rec.linf[0]
    # every series covers the steps sampled, the guard's step included
    n = len(rec.times)
    assert n > 1 and rec.linf.shape == rec.energy.shape == (n,)
    assert rec.receiver_series.shape == (2, n, mesh.m)
    assert np.all(np.isfinite(rec.receiver_series))
    assert np.array_equal(rec.history_times, rec.times[::7])
    assert len(rec.history) == len(rec.history_times)
    assert set(rec.snapshots) == {0.0}
    assert rec.final_state.stages is None


def test_non_finite_state_raises_with_the_steps_before_it():
    """A non-finite state is not sampled, so the record ends one step before
    the blow-up time."""
    mesh = closed_box(ACOUSTIC)
    st = smooth_random_state(mesh, seed=8)
    st.U[0, 0, 0, 1, 1] = np.nan
    with pytest.raises(UnstableRunError, match="non-finite") as info:
        run(mesh, SolverConfig(final_time=1.0), initial=st,
            receivers=[(1.0, 1.0)], record_fields=True, history_stride=1)
    rec = info.value.record
    assert rec.status == "unstable"
    assert rec.times.tolist() == [0.0]
    assert rec.blowup_time == info.value.time == rec.dt
    assert rec.linf.shape == rec.energy.shape == (1,)
    assert rec.receiver_series.shape == (1, 1, mesh.m)
    assert rec.history_times.tolist() == [0.0] and len(rec.history) == 1
    assert rec.final_state.stages is None


def test_standing_mode_satisfies_wave_equation_discretely():
    med = media.AcousticMedium(rho=1.0, kappa=1.0)
    mesh = build_mesh(0.0, 1.0, 0.0, 1.0, 1.0 / 8.0, 4, lambda x, y: med,
                      R_CLOSED)
    cfg = SolverConfig(final_time=0.3)
    rec = run(mesh, cfg, initial={"type": "standing-mode", "nx": 1, "ny": 1})
    exact = standing_mode(mesh, 1, 1, rec.times[-1])
    err = diagnostics.weighted_l2(rec.final_state.U - exact, mesh)
    norm = diagnostics.weighted_l2(exact, mesh)
    assert err < 1e-4 * max(norm, 1.0)


def test_quick_convergence_order():
    med = media.AcousticMedium(rho=1.0, kappa=1.0)
    errs = []
    for ne in (8, 16):
        mesh = build_mesh(0.0, 1.0, 0.0, 1.0, 1.0 / ne, 2,
                          lambda x, y: med, R_CLOSED)
        rec = run(mesh, SolverConfig(final_time=0.5),
                  initial={"type": "standing-mode"})
        exact = standing_mode(mesh, 1, 1, rec.times[-1])
        errs.append(diagnostics.weighted_l2(rec.final_state.U - exact, mesh))
    assert np.log2(errs[0] / errs[1]) >= 2.0


def test_piecewise_media_interface_is_stable_and_consistent():
    left = media.AcousticMedium(rho=1.0, kappa=1.0)
    right = media.AcousticMedium(rho=3.0, kappa=2.0)
    mesh = build_mesh(0.0, 4.0, 0.0, 2.0, 1.0, 3,
                      lambda x, y: left if x < 2.0 else right, R_CLOSED)
    cfg = SolverConfig(final_time=1.0)
    st = smooth_random_state(mesh, seed=7)
    dt = timestep(cfg, mesh)
    E = diagnostics.discrete_energy(st.U, mesh)
    for _ in range(100):
        advance(st, dt, mesh, cfg)
        E_new = diagnostics.discrete_energy(st.U, mesh)
        assert E_new <= E * (1.0 + 1e-12)
        E = E_new


# x <-> y mirror image of each field: acoustic (p, vx, vy), elastic
# (vx, vy, sxx, syy, sxy)
MIRROR_FIELDS = {3: [0, 2, 1], 5: [1, 0, 3, 2, 4]}


def _mirror(a):
    return a[:, :, MIRROR_FIELDS[a.shape[2]]].transpose(1, 0, 2, 4, 3)


@pytest.mark.parametrize("med", [ACOUSTIC, ISO], ids=["acoustic", "elastic"])
def test_rhs_mirror_symmetric_between_x_and_y_layers(med):
    """A layer on north is the mirror image of a layer on east, so the y
    flux, lift and damping path must reproduce the x path transposed."""
    d0 = pml.damping_strength(6.0, 10.0, 1e-3)
    r = {"west": 0.3, "east": -0.4, "south": 0.6, "north": -0.2}
    r_mirror = {"west": r["south"], "east": r["north"],
                "south": r["west"], "north": r["east"]}

    def mesh_with(axis, boundary_r):
        layers = pml.Layers(("east",) if axis == "x" else ("north",), 10.0,
                            d0=d0, alpha=0.15, gamma=1.5)
        return build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 3, lambda x, y: med,
                          boundary_r, layers=layers)

    east, north = mesh_with("x", r), mesh_with("y", r_mirror)
    rng = np.random.default_rng(9)
    st = zero_state(east)
    st.U[:] = rng.normal(size=st.U.shape)
    st.w_x[:] = rng.normal(size=st.w_x.shape)
    mirrored = zero_state(north)
    mirrored.U[:] = _mirror(st.U)
    mirrored.w_y[:] = _mirror(st.w_x)

    dU, dw_x, _ = rate(st, east, SolverConfig(theta_x=0.7, theta_y=0.2))
    dU_m, _, dw_y_m = rate(mirrored, north,
                           SolverConfig(theta_x=0.2, theta_y=0.7))
    for got, want in ((dU_m, _mirror(dU)), (dw_y_m, _mirror(dw_x))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _theta_spectrum():
    path = Path(__file__).resolve().parents[1] / "scripts"
    spec = importlib.util.spec_from_file_location("theta_spectrum",
                                                  path / "theta_spectrum.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("medium, sides", [
    ("acoustic-484", ["west", "east", "south", "north"]),
    ("iso-table1", ["east", "north"]),
    ({"two": ["iso-table1", "am1-table1"],
      "interface": {"axis": "x", "position": 0.0}}, ["east", "north"]),
], ids=["acoustic-all-sides", "elastic-two-sides", "two-media"])
def test_assembled_operator_matches_rhs(medium, sides):
    """The spectrum script's A, assembled from rhs of unit vectors, applies
    rhs to any state."""
    pytest.importorskip("scipy")
    sc = scenario.from_dict({
        "schema": 1, "domain": {"x": [-10.0, 10.0], "y": [0.0, 10.0]},
        "element_size": 5.0, "degree": 2, "medium": medium,
        "pml": {"sides": sides, "width": 5.0, "gamma": 1.5},
        "boundaries": {"west": 0.3, "east": -0.4, "south": 0.6,
                       "north": -0.2},
        "theta": {"x": 0.5, "y": 0.25}})
    mesh, cfg = sc.build()
    A = _theta_spectrum().assemble(mesh, cfg)
    y = np.random.default_rng(10).normal(size=A.shape[0])
    want = np.empty_like(y)
    rhs(y, mesh, cfg, want)
    assert np.max(np.abs(A @ y - want)) <= 1e-14 * np.max(np.abs(want))
