import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wavelab import cli, diagnostics, media, pml, scenario
from wavelab.errors import (ConfigurationError, InvalidMediumError,
                            UnstableRunError)
from wavelab.solver import (SolverConfig, advance, build_mesh, rhs, rk4_step,
                            run, timestep, timestep_formula)
from wavelab.solver.core import (gaussian_pulse, split, standing_mode,
                                 zero_state)
from wavelab.solver.mesh import layout

R_CLOSED = {"west": 1.0, "east": 1.0, "south": 1.0, "north": 1.0}
ACOUSTIC = media.preset("acoustic-484")
ISO = media.preset("iso-table1")


def closed_box(med, n_elem=2, degree=4, size=2.0):
    return build_mesh(0.0, n_elem * size, 0.0, n_elem * size, size, degree,
                      (med,), R_CLOSED)


def test_mesh_rejects_a_wave_speed_that_is_not_finite():
    # kappa / rho overflows to inf: the time step would be zero
    fast = media.AcousticMedium(rho=1e-320, kappa=1.0)
    with pytest.raises(InvalidMediumError, match="c_p = inf"):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, (fast,), R_CLOSED)


def test_mesh_rejects_a_layer_of_part_elements():
    # the grown x extent, 15, is three whole elements
    layers = pml.Layers(("west", "east"), 2.5)
    with pytest.raises(ConfigurationError,
                       match=r"^pml\.width: layer width 2\.5"):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, (ACOUSTIC,), R_CLOSED,
                   layers=layers)


@pytest.mark.parametrize("x0, x1", [(0.0, 0.0), (10.0, 0.0), (0.0, -5.0)])
def test_mesh_rejects_a_box_that_is_not_increasing(x0, x1):
    # with the layers, the grown extent of (0, 0) is two whole elements
    layers = pml.Layers(("west", "east"), 5.0)
    with pytest.raises(ConfigurationError, match=r"^domain\.x: .*x extent"):
        build_mesh(x0, x1, 0.0, 10.0, 5.0, 2, (ACOUSTIC,), R_CLOSED,
                   layers=layers)


@pytest.mark.parametrize("media_, interface", [
    ((ACOUSTIC, ACOUSTIC), None), ((ACOUSTIC,), ("x", 5.0)), ((), None),
    ((ACOUSTIC, ISO), ("x", 5.0))])
def test_mesh_takes_one_medium_or_two_and_an_interface(media_, interface):
    with pytest.raises(ConfigurationError,
                       match="^medium: .*one medium, or two"):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, media_, R_CLOSED,
                   interface=interface)


@pytest.mark.parametrize("r", [1.5, np.nan])
def test_mesh_rejects_a_reflection_coefficient_outside_minus_one_to_one(r):
    with pytest.raises(ConfigurationError, match=r"^boundaries\.east: "):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, (ACOUSTIC,),
                   {**R_CLOSED, "east": r})


@pytest.mark.parametrize("times, key", [
    ({"final_time": np.nan}, "final_time"),
    ({"final_time": np.inf}, "final_time"),
    ({"final_time": -1.0}, "final_time"), ({"final_time": 0.0}, "final_time"),
    ({"stop_time": -1.0}, "stop_time"), ({"stop_time": np.nan}, "stop_time"),
    ({"stop_time": 5.0}, "stop_time")],
    ids=["final-nan", "final-inf", "final-negative", "final-zero",
         "stop-negative", "stop-nan", "stop-past-final"])
def test_solver_config_rejects_a_bad_time(times, key):
    """A run ends at a finite, positive final time, and stops in (0,
    final_time]: any other time is named before a step is taken."""
    with pytest.raises(ConfigurationError, match=f"^{key}: "):
        run(closed_box(ACOUSTIC), SolverConfig(**times),
            initial={"type": "zero"})


@pytest.mark.parametrize("interface", [("z", 5.0), ("x", 2.5), ("x", 50.0)],
                         ids=["axis-z", "between-edges", "outside"])
def test_mesh_rejects_an_interface_off_its_element_edges(interface):
    other = media.AcousticMedium(rho=3.0, kappa=2.0)
    with pytest.raises(ConfigurationError, match=r"^medium\.interface\."
                       r"position: .*not on an x or y element"):
        build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 2, (ACOUSTIC, other), R_CLOSED,
                   interface=interface)


@pytest.mark.parametrize("sides", [pml.SIDES, ("east",), ("south", "west"),
                                   ()])
def test_mesh_interior_counts_the_layer_elements(sides):
    layers = pml.Layers(sides, 5.0)
    mesh = build_mesh(-10.0, 10.0, 0.0, 7.5, 2.5, 2, (ACOUSTIC,), R_CLOSED,
                      layers=layers)
    w, e, s, n = (2 if side in sides else 0 for side in pml.SIDES)
    assert (mesh.K, mesh.L) == (8 + w + e, 3 + s + n)
    assert mesh.interior == (w, mesh.K - e, s, mesh.L - n)
    kx0, kx1, ly0, ly1 = mesh.interior
    assert (mesh.x_edges[kx0], mesh.x_edges[kx1], mesh.y_edges[ly0],
            mesh.y_edges[ly1]) == (-10.0, 10.0, 0.0, 7.5)


@pytest.mark.parametrize("axis, position", [("x", -2.5), ("y", 5.0)])
def test_mesh_index_puts_media_1_at_or_beyond_the_interface(axis, position):
    low, high = ACOUSTIC, media.AcousticMedium(rho=3.0, kappa=2.0)
    mesh = build_mesh(-10.0, 10.0, 0.0, 7.5, 2.5, 2, (low, high), R_CLOSED,
                      layers=pml.Layers(("east", "north"), 5.0),
                      interface=(axis, position))
    X, Y = np.meshgrid(0.5 * (mesh.x_edges[:-1] + mesh.x_edges[1:]),
                       0.5 * (mesh.y_edges[:-1] + mesh.y_edges[1:]),
                       indexing="ij")
    beyond = (X if axis == "x" else Y) >= position
    assert mesh.media == (low, high)
    assert np.array_equal(mesh.index, beyond.astype(int))
    assert 0 < beyond.sum() < beyond.size
    P = [med.coefficient_matrices().P for med in mesh.media]
    assert np.array_equal(mesh.Pmat,
                          np.where(beyond[..., None, None], P[1], P[0]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_mesh_agrees_with_its_layout(data):
    """Over random valid boxes (typed as decimals, so the edges need not sum
    to them exactly), sizes, layer sides and interfaces at lo + j h, the far
    extent's included: the mesh's counts, extents and interior are layout's,
    its outer edges are the extents exactly, media[1] lies at or beyond the
    interface, and locate finds the highest element whose low edge is at or
    below a point, takes a point past an outer edge by less than 1e-9 of an
    element (or of the extent) onto that edge, and rejects one further
    out."""
    size = data.draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.7, 1.5, 5.0]))
    box = []
    for _ in "xy":
        lo = data.draw(st.integers(-200, 200)) / 20
        box += [lo, round(lo + data.draw(st.integers(1, 6)) * size, 9)]
    sides = tuple(data.draw(st.sets(st.sampled_from(pml.SIDES))))
    layers = pml.Layers(sides, data.draw(st.integers(1, 3)) * size)
    K, L, extents, interior = layout(box, size, sides, layers.width)
    interface, media_ = None, (ACOUSTIC,)
    if data.draw(st.booleans()):
        axis = data.draw(st.sampled_from("xy"))
        count, lo = (K, extents[0]) if axis == "x" else (L, extents[2])
        j = data.draw(st.integers(0, count))
        interface = (axis, lo + j * size)
        media_ = (ACOUSTIC, media.AcousticMedium(rho=3.0, kappa=2.0))
    mesh = build_mesh(*box, size, 2, media_, R_CLOSED, layers=layers,
                      interface=interface)
    assert (mesh.K, mesh.L, mesh.extents, mesh.interior) == (
        K, L, extents, interior)
    assert (mesh.x_edges[0], mesh.x_edges[-1], mesh.y_edges[0],
            mesh.y_edges[-1]) == extents
    assert mesh.x_edges.shape == (K + 1,) and mesh.y_edges.shape == (L + 1,)
    if interface is None:
        assert not mesh.index.any()
    else:
        beyond = np.arange(count) >= j
        assert np.array_equal(mesh.index, np.broadcast_to(
            beyond[:, None] if axis == "x" else beyond, (K, L)))
    # a point anywhere in the mesh, or on any edge, the outer ones included
    point = []
    for edges in (mesh.x_edges, mesh.y_edges):
        point.append(data.draw(
            st.floats(edges[0], edges[-1]) | st.sampled_from(list(edges))))
    kx, ly, q, r = mesh.locate(*point)
    for v, k, ref, edges in zip(point, (kx, ly), (q, r),
                                (mesh.x_edges, mesh.y_edges)):
        assert k == max(i for i in range(len(edges) - 1) if edges[i] <= v)
        assert edges[k] <= v <= edges[k + 1]
        assert -1.0 <= ref <= 1.0
        assert abs(edges[k] + 0.5 * (ref + 1.0) * (edges[k + 1] - edges[k])
                   - v) <= 1e-12 * max(1.0, abs(v))
    x0, x1, y0, y1 = extents
    assert mesh.locate(np.nextafter(x1, np.inf), y0) == (K - 1, 0, 1.0, -1.0)
    assert mesh.locate(x0, np.nextafter(y0, -np.inf)) == (0, 0, -1.0, -1.0)
    tol_x, tol_y = (1e-9 * max(size, hi - lo) for lo, hi in ((x0, x1),
                                                              (y0, y1)))
    for outside in ((x1 + 2 * tol_x, y0), (x0, y0 - 2 * tol_y)):
        with pytest.raises(ValueError, match="outside the mesh"):
            mesh.locate(*outside)


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
    rk4_step(y, dt, lambda s, out: np.negative(s, out=out), np.empty((3, 1)))
    assert abs(y[0] - np.exp(-dt)) < 1e-7


def test_rk4_zero_rhs_identity():
    y = np.arange(5.0)
    rk4_step(y, 0.3, lambda s, out: out.fill(0.0), np.empty((3, 5)))
    assert np.array_equal(y, np.arange(5.0))


def test_rk4_step_equals_the_five_vector_oracle():
    """The three-vector step does the oracle's arithmetic in the oracle's
    order, so every bit agrees, step after step."""
    rng = np.random.default_rng(8)
    A = rng.normal(size=(40, 40))

    def f(s, out):
        np.matmul(A, s, out=out)

    y = rng.normal(size=40)
    want = y.copy()
    for _ in range(5):
        rk4_step(y, 0.07, f, np.empty((3, 40)))
        oracles.rk4_step(want, 0.07, f, np.empty((5, 40)))
        assert np.array_equal(y, want)


def test_rhs_rejects_an_out_that_overlaps_y():
    """rhs uses the U block of out as scratch while it still reads y."""
    mesh = closed_box(ACOUSTIC, n_elem=2, degree=3)
    st = smooth_random_state(mesh, seed=3)
    for out in (st.y, st.y[::-1]):
        with pytest.raises(ValueError, match="out must not overlap y"):
            rhs(st.y, mesh, SolverConfig(), out)


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
                      (ACOUSTIC,),
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
                          (ACOUSTIC,), r, layers=layers)

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


def test_on_sample_sees_the_history_samples():
    """on_sample gets sample i of the interior fields and its time at the
    history stride, with or without the history stored."""
    layers = pml.Layers(("east",), 5.0, d0=1.0)
    mesh = build_mesh(0.0, 10.0, 0.0, 5.0, 5.0, 3, (ACOUSTIC,), R_CLOSED,
                      layers=layers)
    kw = dict(initial={"type": "gaussian-pulse", "center": (5.0, 2.5)},
              history_stride=3)
    for record_fields in (True, False):
        samples = []
        rec = run(mesh, SolverConfig(final_time=2.0), **kw,
                  record_fields=record_fields,
                  on_sample=lambda i, t, U: samples.append((i, t, U.copy())))
        if record_fields:
            history, history_times = rec.history, rec.history_times
        else:
            assert rec.history is None
    assert [i for i, _, _ in samples] == list(range(len(history)))
    assert len(history) == len(rec.times[::3]) > 2
    for (i, t, U), want in zip(samples, history):
        assert t == history_times[i]
        assert np.array_equal(U, want)


def test_auxiliary_fields_allocated_only_on_layer_elements():
    d0 = pml.damping_strength(1.484, 10.0, 1e-3)
    layers = pml.Layers(("east",), 10.0, d0=d0, alpha=0.15)
    mesh = build_mesh(-20.0, 20.0, 0.0, 10.0, 5.0, 3, (ACOUSTIC,),
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
                      (ACOUSTIC,), R_CLOSED, layers=layers)
    assert mesh.yn.max() > -1.22
    assert mesh.active_x.tolist() == [1]
    assert mesh.active_y.size == 0
    assert np.all(mesh.d_y == 0.0) and np.all(mesh.inv_gamma_y == 1.0)


def test_divergence_guard_raises_with_partial_record():
    """A squeezed strong-damping elastic layer config carries a genuine
    growing mode; the run must abort with the partial record attached."""
    d0 = pml.damping_strength(6.0, 10.0, 1e-3)
    layers = pml.Layers(("east",), 10.0, d0=d0, alpha=0.15)
    mesh = build_mesh(-10.0, 10.0, 0.0, 10.0, 5.0, 3, (ISO,),
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
    mesh = build_mesh(0.0, 1.0, 0.0, 1.0, 1.0 / 8.0, 4, (med,),
                      R_CLOSED)
    cfg = SolverConfig(final_time=0.3)
    rec = run(mesh, cfg, initial={"type": "standing-mode", "nx": 1, "ny": 1})
    exact = standing_mode(mesh, 1, 1, rec.times[-1])
    err = diagnostics.weighted_l2(rec.final_state.U - exact, mesh)
    norm = diagnostics.weighted_l2(exact, mesh)
    assert err < 1e-4 * max(norm, 1.0)


@pytest.mark.parametrize("media_, interface", [
    ((ISO,), None), ((ACOUSTIC, ACOUSTIC), ("x", 2.0))],
    ids=["elastic", "two-media"])
def test_standing_mode_needs_one_acoustic_medium(media_, interface):
    mesh = build_mesh(0.0, 4.0, 0.0, 4.0, 2.0, 2, media_, R_CLOSED,
                      interface=interface)
    with pytest.raises(ValueError, match="one acoustic medium"):
        standing_mode(mesh)


def test_quick_convergence_order():
    med = media.AcousticMedium(rho=1.0, kappa=1.0)
    errs = []
    for ne in (8, 16):
        mesh = build_mesh(0.0, 1.0, 0.0, 1.0, 1.0 / ne, 2,
                          (med,), R_CLOSED)
        rec = run(mesh, SolverConfig(final_time=0.5),
                  initial={"type": "standing-mode"})
        exact = standing_mode(mesh, 1, 1, rec.times[-1])
        errs.append(diagnostics.weighted_l2(rec.final_state.U - exact, mesh))
    assert np.log2(errs[0] / errs[1]) >= 2.0


def test_piecewise_media_interface_is_stable_and_consistent():
    left = media.AcousticMedium(rho=1.0, kappa=1.0)
    right = media.AcousticMedium(rho=3.0, kappa=2.0)
    mesh = build_mesh(0.0, 4.0, 0.0, 2.0, 1.0, 3,
                      (left, right), R_CLOSED, interface=("x", 2.0))
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
        return build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 3, (med,),
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
