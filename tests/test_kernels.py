"""The solver's whole right-hand side (self blocks, face maps and layer
columns) and its discrete energy, as matrix products over all elements,
against their oracles in ``tests/oracles.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wavelab import diagnostics, media, pml, scenario
from wavelab.operators import MAX_DEGREE
from wavelab.solver import SolverConfig, build_mesh, rhs
from wavelab.solver.core import split, zero_state

# a layer on every side with gamma != 1, so the metric scaling varies per
# node along both axes, and corners carry both auxiliary fields
LAYERS = pml.Layers(pml.SIDES, 1.0, d0=2.0, gamma=1.5)


def walls(degree):
    """A reflection coefficient in [-1, 1] on each side, drawn per degree."""
    r = np.random.default_rng(100 + degree).uniform(-1.0, 1.0, 4)
    return dict(zip(pml.SIDES, r))


def one_medium(name, degree):
    med = media.preset(name)
    return build_mesh(0.0, 2.0, 0.0, 2.0, 1.0, degree, (med,), walls(degree),
                      layers=LAYERS)


def two_media(axis, degree):
    """iso-table1 below and am1-table1 above 1.0 on ``axis``, so P and the
    impedances differ between elements."""
    low, high = media.preset("iso-table1"), media.preset("am1-table1")
    return build_mesh(0.0, 2.0, 0.0, 2.0, 1.0, degree, (low, high),
                      walls(degree), layers=LAYERS, interface=(axis, 1.0))


CASES = [(name, degree) for degree in range(1, MAX_DEGREE + 1)
         for name in ("acoustic-484", "iso-table1", "aniso-violating")]
CASES += [(f"two-media-{axis}", degree) for axis in "xy"
          for degree in (1, 4, MAX_DEGREE)]


def mesh_of(name, degree):
    if name.startswith("two-media-"):
        return two_media(name[-1], degree)
    return one_medium(name, degree)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name, degree", CASES)
def test_kernels_match_their_einsum_oracles(name, degree):
    mesh = mesh_of(name, degree)
    rng = np.random.default_rng(degree)
    y = rng.normal(size=zero_state(mesh).y.size)
    U = split(y, mesh)[0]

    assert all(close(got, want) for got, want in zip(
        oracles.line_volume_terms(mesh, U), oracles.volume_terms(mesh, U)))

    out = np.empty_like(y)
    config = SolverConfig(theta_x=0.5, theta_y=0.25)
    rhs(y, mesh, config, out)
    assert close(out, oracles.rhs(y, mesh, config))

    E = diagnostics.discrete_energy(U, mesh)
    assert abs(E - oracles.discrete_energy(U, mesh)) <= 1e-13 * abs(E)


def _golden_scenarios():
    path = Path(__file__).resolve().parents[1] / "scripts" / "golden_csv.py"
    spec = importlib.util.spec_from_file_location("golden_csv", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenarios()


GOLDEN = {sc.name: sc for sc in _golden_scenarios()}


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rhs_matches_the_per_pair_oracle(name, theta):
    """rhs, with the lift maps, against the oracle rhs built on the per-pair
    fluctuations, on every scenario preset and every golden variant."""
    assert set(scenario.PRESET_SCENARIOS) <= set(GOLDEN)
    mesh, _ = GOLDEN[name].build()
    config = SolverConfig(theta_x=theta, theta_y=theta)
    y = np.random.default_rng(13).normal(size=zero_state(mesh).y.size)
    out = np.empty_like(y)
    rhs(y, mesh, config, out)
    want = oracles.rhs(y, mesh, config)
    assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))


PAIRS = {"acoustic": (media.preset("acoustic-484"),
                      media.AcousticMedium(rho=2.0, kappa=3.0)),
         "elastic": (media.preset("iso-table1"), media.preset("am1-table1"),
                     media.preset("aniso-violating"))}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rhs_matches_the_oracle_on_random_small_meshes(data):
    """1 to 3 unit elements per axis, layer elements included, on a box from
    0; any degree up to 6, wall reflection coefficients, layer sides, gamma
    and d0 (d0 = 0 with gamma != 1 scales an undamped layer), one medium or
    two split on x or y, and theta."""
    counts = [data.draw(st.integers(1, 3)) for _ in "xy"]
    axes_sides = (pml.SIDES[:2], pml.SIDES[2:])
    sides = [data.draw(st.lists(st.sampled_from(pair), unique=True,
                                max_size=count - 1))
             for count, pair in zip(counts, axes_sides)]
    box = [edge for count, drawn in zip(counts, sides)
           for edge in (0.0, float(count - len(drawn)))]
    layers = pml.Layers(tuple(sides[0] + sides[1]), 1.0,
                        d0=data.draw(st.sampled_from([0.0, 0.5, 3.0])),
                        gamma=data.draw(st.floats(1.0, 2.0)))
    system = PAIRS[data.draw(st.sampled_from(sorted(PAIRS)))]
    chosen, interface = (data.draw(st.sampled_from(system)),), None
    if data.draw(st.booleans()):
        chosen = tuple(data.draw(st.permutations(system))[:2])
        k = data.draw(st.integers(0, 1))
        low = float(axes_sides[k][0] in sides[k])  # the layer below the box
        interface = ("xy"[k], data.draw(st.integers(0, counts[k])) - low)
    r = dict(zip(pml.SIDES, data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=4, max_size=4))))
    mesh = build_mesh(*box, 1.0, data.draw(st.integers(1, 6)), chosen, r,
                      layers=layers, interface=interface)
    assert (mesh.K, mesh.L) == tuple(counts)
    for active, d in ((mesh.active_x, mesh.d_x), (mesh.active_y, mesh.d_y)):
        assert active.tolist() == np.flatnonzero(d.max(axis=1) > 0).tolist()
    config = SolverConfig(theta_x=data.draw(st.floats(0.0, 1.0)),
                          theta_y=data.draw(st.floats(0.0, 1.0)))
    y = np.random.default_rng(data.draw(st.integers(0, 99))).normal(
        size=zero_state(mesh).y.size)
    out = np.empty_like(y)
    rhs(y, mesh, config, out)
    assert close(out, oracles.rhs(y, mesh, config))
