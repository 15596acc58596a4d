"""The solver's element kernels (volume terms, the P multiply and the
discrete energy), as matrix products over all elements, and its whole
right-hand side, against their oracles in ``tests/oracles.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracles
from wavelab import diagnostics, media, pml, scenario
from wavelab.operators import MAX_DEGREE
from wavelab.solver import SolverConfig, build_mesh, rhs
from wavelab.solver.core import _volume_terms, split, zero_state

R = {"west": 0.3, "east": -0.4, "south": 0.6, "north": -0.2}
# a layer on every side with gamma != 1, so the metric scaling varies per
# node along both axes, and corners carry both auxiliary fields
LAYERS = pml.Layers(pml.SIDES, 1.0, d0=2.0, gamma=1.5)


def one_medium(name, degree):
    med = media.preset(name)
    return build_mesh(0.0, 2.0, 0.0, 2.0, 1.0, degree, (med,), R,
                      layers=LAYERS)


def two_media(axis, degree):
    """iso-table1 below and am1-table1 above 1.0 on ``axis``, so P differs
    between elements."""
    low, high = media.preset("iso-table1"), media.preset("am1-table1")
    return build_mesh(0.0, 2.0, 0.0, 2.0, 1.0, degree,
                      (low, high), R, layers=LAYERS, interface=(axis, 1.0))


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

    Vx, Vy, scratch = (np.empty_like(U) for _ in range(3))
    _volume_terms(mesh, U, Vx, Vy, scratch)
    want_x, want_y = oracles.volume_terms(mesh, U)
    assert close(Vx, want_x) and close(Vy, want_y)

    out = np.empty_like(y)
    rhs(y, mesh, SolverConfig(theta_x=0.5, theta_y=0.25), out)
    body = mesh.work[0]  # what rhs multiplies by P, left in its scratch
    assert close(split(out, mesh)[0], oracles.p_multiply(mesh, body))

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
