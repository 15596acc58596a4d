import numpy as np
import pytest

from wavelab import diagnostics, media, pml
from wavelab.solver import SolverConfig, build_mesh, run
from wavelab.solver.core import zero_state

R1 = {"west": 1.0, "east": 1.0, "south": 1.0, "north": 1.0}


def unit_element_mesh(kappa=1.0, rho=1.0, degree=4):
    med = media.AcousticMedium(rho=rho, kappa=kappa)
    return build_mesh(-1.0, 1.0, -1.0, 1.0, 2.0, degree,
                      (med,), R1)


def test_energy_zero_state():
    mesh = unit_element_mesh()
    assert diagnostics.discrete_energy(zero_state(mesh).U, mesh) == 0.0


def test_energy_constant_pressure_reference_element():
    mesh = unit_element_mesh(kappa=1.0, rho=1.0)
    st = zero_state(mesh)
    st.U[:, :, 0] = 1.0
    # (1/2) * integral of p^2 / kappa over area 4
    assert diagnostics.discrete_energy(st.U, mesh) == pytest.approx(2.0)


def test_energy_quadratic_scaling():
    mesh = unit_element_mesh(kappa=0.7, rho=2.3)
    rng = np.random.default_rng(9)
    st = zero_state(mesh)
    st.U[:] = rng.normal(size=st.U.shape)
    E1 = diagnostics.discrete_energy(st.U, mesh)
    E3 = diagnostics.discrete_energy(3.0 * st.U, mesh)
    assert E3 == pytest.approx(9.0 * E1, rel=1e-13)


def test_energy_matches_elementwise_loop():
    med = media.preset("iso-table1")
    mesh = build_mesh(0.0, 4.0, 0.0, 2.0, 1.0, 3, (med,), R1)
    rng = np.random.default_rng(10)
    U = rng.normal(size=(mesh.K, mesh.L, mesh.m, mesh.n, mesh.n))
    h = mesh.ref.weights
    total = 0.0
    for kx in range(mesh.K):
        for ly in range(mesh.L):
            for i in range(mesh.n):
                for j in range(mesh.n):
                    u = U[kx, ly, :, i, j]
                    total += 0.5 * h[i] * h[j] * mesh.jac[kx, ly] * (
                        u @ mesh.Pinv[kx, ly] @ u)
    assert diagnostics.discrete_energy(U, mesh) == pytest.approx(
        total, rel=1e-12)


def test_linf_selectors():
    """The mesh selects the field: |p| on an acoustic mesh, the velocity
    magnitude and no stress on an elastic one."""
    mesh = unit_element_mesh()
    st = zero_state(mesh)
    assert diagnostics.linf_norm(st.U, mesh) == 0.0
    st.U[0, 0, 0, 2, 3] = -5.0
    st.U[0, 0, 1:, 1, 1] = 30.0, 40.0
    assert diagnostics.linf_norm(st.U, mesh) == 5.0
    elastic = build_mesh(-1.0, 1.0, -1.0, 1.0, 2.0, 4,
                         (media.preset("iso-table1"),), R1)
    U = zero_state(elastic).U
    U[0, 0, :, 1, 1] = 3.0, 4.0, 50.0, 60.0, 70.0
    assert diagnostics.linf_norm(U, elastic) == pytest.approx(5.0)


def test_linf_gaussian_center_node():
    med = media.preset("acoustic-484")
    mesh = build_mesh(-50.0, 50.0, 0.0, 50.0, 5.0, 4, (med,),
                      {"west": -1.0, "east": 0.0, "south": 1.0, "north": 1.0})
    rec = run(mesh, SolverConfig(final_time=1e-9),
              initial={"type": "gaussian-pulse"})
    assert rec.linf[0] == pytest.approx(1.0)


def test_receiver_sample_nodal_and_polynomial_exactness():
    mesh = build_mesh(0.0, 2.0, 0.0, 2.0, 1.0, 3,
                      (media.AcousticMedium(1.0, 1.0),), R1)
    X, Y = mesh.node_coordinates()
    st = zero_state(mesh)
    st.U[:, :, 0] = 7.0          # constant
    st.U[:, :, 1] = X            # linear, reproduced exactly for N >= 1
    x = mesh.xn[0, 2]            # nodal hit
    y = mesh.yn[1, 1]
    cfg = SolverConfig(final_time=1e-9)
    y0 = st.y.copy()
    rec = run(mesh, cfg, initial=st, receivers=[(x, y), (0.377, 1.612)])
    assert np.array_equal(st.y, y0)  # run steps a copy of the given state
    nodal, arbitrary = rec.receiver_series[:, 0]
    assert nodal[0] == pytest.approx(7.0)
    assert nodal[1] == pytest.approx(x, abs=1e-13)
    assert arbitrary[0] == pytest.approx(7.0, abs=1e-13)
    assert arbitrary[1] == pytest.approx(0.377, abs=1e-13)
    with pytest.raises(ValueError):
        run(mesh, cfg, initial=st, receivers=[(5.0, 0.5)])


def _recorded_run(**kw):
    med = media.preset("acoustic-484")
    mesh = build_mesh(0.0, 10.0, 0.0, 10.0, 5.0, 3, (med,), R1,
                      layers=pml.Layers(("east",), 5.0, d0=1.0))
    return run(mesh, SolverConfig(final_time=1.0),
               initial={"type": "gaussian-pulse", "center": (5.0, 5.0)},
               **kw)


def test_pml_error_of_run_against_itself_is_zero():
    rec = _recorded_run(record_fields=True, history_stride=1)
    # the history covers the 2 x 2 interior elements, not the layer
    assert rec.mesh.interior == (0, 2, 0, 2)
    assert rec.history.shape[1:3] == (2, 2)
    for U in rec.history:
        assert diagnostics.pml_error(U, U.copy(), rec.mesh) == (0.0, 0.0)
    linf, l2 = diagnostics.pml_error(rec.history[-1], rec.history[0],
                                     rec.mesh)
    assert linf > 0.0 and l2 > 0.0


def test_reference_validity_horizon():
    # interior ends at x=50, reference at x=150: 100 km out and back at
    # 1.484 km/s, less one 5 km element
    h = diagnostics.reference_validity_horizon(100.0, 1.484, 5.0)
    assert h == pytest.approx((200.0 - 5.0) / 1.484)
    # no extension: horizon collapses to zero
    assert diagnostics.reference_validity_horizon(0.0, 1.0, 0.1) == 0.0
