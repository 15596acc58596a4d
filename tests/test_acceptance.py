"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.  The
full-size waveguide experiments make this module take five to six minutes
on a 2-vCPU machine: criterion 6 260-315 s (its theta=0 runs go on until the
divergence guard stops them, at t = 335 s and 515 s), criterion 5 36-43 s.
"""

import itertools
import time

import numpy as np
import pytest

from oracles import find_violating_medium, sbp_residual, stretching_metric
from wavelab import analysis, cli, diagnostics, media, pml, scenario
from wavelab.errors import UnstableRunError
from wavelab.operators import ReferenceElement1D
from wavelab.solver import SolverConfig, advance, build_mesh, run, timestep
from wavelab.solver.core import timestep_formula, zero_state


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


# horizon of the theta=0 runs; the run's divergence guard (1e4x the initial
# L-inf) ends a growing run before it
THETA0_HORIZON = 1000.0


def _waveguide_record(preset, theta_x, final_time=None):
    sc = scenario.with_overrides(scenario.load_preset(preset),
                                 theta_x=theta_x, final_time=final_time)
    try:
        return scenario.run_scenario(sc)
    except UnstableRunError as exc:
        return exc.record


def _growth_evidence(record):
    """Peak L-inf growth, exponential rate fitted to log L-inf over the second
    half of the run, and the first time past 1e3x the initial L-inf (None if
    never)."""
    linf = record.linf / record.linf[0]
    t = record.times
    half = t >= 0.5 * t[-1]
    rate = np.polyfit(t[half], np.log(linf[half]), 1)[0]
    above = np.flatnonzero(linf > 1e3)
    t_cross = t[above[0]] if above.size else None
    return linf.max(), rate, t_cross


def _bounded_and_decaying(record):
    linf0 = record.linf[0]
    t = record.times
    bounded = record.linf.max() <= 2.0 * linf0
    late = record.linf[t >= 0.9 * t[-1]]
    mid = record.linf[(t >= 0.45 * t[-1]) & (t <= 0.55 * t[-1])]
    decaying = late.mean() < mid.mean()
    return bounded, decaying


def _check_theta_switch(num, preset):
    """theta=0 grows past 1e3x within THETA0_HORIZON at a positive fitted
    rate; theta=1 stays bounded and decays over the preset's own run."""
    rec0 = _waveguide_record(preset, 0.0, final_time=THETA0_HORIZON)
    rec1 = _waveguide_record(preset, 1.0)
    growth0, rate0, t_cross = _growth_evidence(rec0)
    bounded1, decaying1 = _bounded_and_decaying(rec1)
    exploded = growth0 > 1e3 and rate0 > 0.0
    ok = exploded and bounded1 and decaying1
    crossed = "never" if t_cross is None else f"t={t_cross:.0f} s"
    assert _report(
        num, f"{preset} theta=0 instability reproduction", ok,
        f"theta=0 growth {growth0:.3g}x, fitted rate {rate0:.3g}/s, 1e3x "
        f"crossed {crossed}, run ended t={rec0.times[-1]:.0f} s "
        f"({rec0.status}) (need > 1e3x and rate > 0 within horizon "
        f"{THETA0_HORIZON:.0f} s), "
        f"theta=1 bounded={bounded1} decaying={decaying1}")


# -- criterion 1 ---------------------------------------------------------------


def test_c01_sbp_identity():
    start = time.perf_counter()
    worst = max(sbp_residual(ReferenceElement1D(N)) for N in range(1, 13))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    assert _report(1, "sbp-identity",
                   ok, f"max residual {worst:.2e}, {elapsed * 1e3:.0f} ms")


# -- criterion 2 ---------------------------------------------------------------


def test_c02_energy_dissipation_without_pml():
    med = media.preset("acoustic-484")
    r = {"west": -1.0, "east": 1.0, "south": 1.0, "north": -1.0}
    mesh = build_mesh(0.0, 30.0, 0.0, 30.0, 5.0, 4, lambda x, y: med, r)
    cfg = SolverConfig(final_time=1.0)
    rng = np.random.default_rng(42)
    st = zero_state(mesh)
    X, Y = mesh.node_coordinates()
    for f in range(3):
        c = rng.normal(size=(4, 4))
        st.U[:, :, f] = sum(c[i, j] * np.sin((i + 1) * np.pi * X / 30.0)
                            * np.cos(j * np.pi * Y / 30.0)
                            for i in range(4) for j in range(4))
    dt = timestep(cfg, mesh)
    E = diagnostics.discrete_energy(st.U, mesh)
    worst_increase = -np.inf
    for _ in range(500):
        advance(st, dt, mesh, cfg)
        E_new = diagnostics.discrete_energy(st.U, mesh)
        worst_increase = max(worst_increase, (E_new - E) / E)
        E = E_new
    ok = worst_increase <= 1e-12
    assert _report(2, "closed-box energy dissipation", ok,
                   f"worst per-step relative increase {worst_increase:.2e}")


# -- criterion 3 ---------------------------------------------------------------


def test_c03_dispersion_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    ac = media.preset("acoustic-484")
    # exactly isotropic stiffness at the tabulated speeds; the tabulated
    # c12 = 36.85 is 0.01 GPa away from isotropy (c11 - 2 c33 = 36.86),
    # which already shifts oblique roots at the 1e-3 level
    iso = media.ElasticMedium2D(rho=2.7, c11=97.20,
                                c12=97.20 - 2 * 30.17, c22=97.20, c33=30.17)
    cs = np.sqrt(30.17 / 2.7)
    for _ in range(100):
        k = rng.normal(size=2)
        k *= rng.uniform(0.05, 5.0) / np.hypot(*k)
        kn = np.hypot(*k)
        got = np.sort(analysis.dispersion_roots(ac, k).roots.imag)
        want = np.array([-1.484 * kn, 0.0, 1.484 * kn])
        worst = max(worst, np.max(np.abs(got - want)))
        got = np.sort(analysis.dispersion_roots(iso, k).roots.imag)
        want = np.array([-6.0 * kn, -cs * kn, 0.0, cs * kn, 6.0 * kn])
        worst = max(worst, np.max(np.abs(got - want)))
    ok = worst <= 1e-10
    assert _report(3, "dispersion oracle", ok, f"worst deviation {worst:.2e}")


# -- criterion 4 ---------------------------------------------------------------


def test_c04_geometric_stability_condition():
    verdicts = {}
    for name in ("acoustic-484", "iso-table1", "am1-table1"):
        med = media.preset(name)
        for axis in ("x", "y"):
            rep = analysis.geometric_stability_check(med, axis, 720)
            verdicts[f"{name}/{axis}"] = rep.verdict
    stable_ok = all(v == "stable" for v in verdicts.values())
    violating, report = find_violating_medium()
    unstable_ok = report.verdict == "unstable"
    spec_ok = True
    for scale in (50.0, 200.0):
        k = tuple(report.worst_direction * scale)
        spec = analysis.pml_mode_spectrum(violating, k, d=2.0, alpha=0.15)
        spec_ok = spec_ok and spec.max_real > 1e-8
    ok = stable_ok and unstable_ok and spec_ok
    assert _report(4, "geometric stability condition", ok,
                   f"reference media stable={stable_ok}, derived medium "
                   f"unstable={unstable_ok}, growing modes={spec_ok}")


# -- criteria 5 and 6 ------------------------------------------------------------


@pytest.mark.slow
def test_c05_acoustic_theta_zero_instability():
    _check_theta_switch(5, "acoustic-waveguide")


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["elastic-iso-waveguide",
                                    "elastic-aniso-waveguide"])
def test_c06_elastic_theta_zero_instability(preset):
    _check_theta_switch(6, preset)


# -- criterion 7 ---------------------------------------------------------------


def test_c07_pml_beats_abc(tmp_path):
    base = scenario.load_preset("acoustic-waveguide")
    pml_err, abc_err, horizon = cli.compare_abc(base, tmp_path)
    ratio_ok = pml_err.max_linf() <= abc_err.max_linf() / 10.0
    level_ok = pml_err.max_linf() <= 2e-2
    ok = ratio_ok and level_ok
    assert _report(
        7, "pml versus abc accuracy", ok,
        f"horizon {horizon:.1f} s, max interior error pml "
        f"{pml_err.max_linf():.3e} vs abc {abc_err.max_linf():.3e}")


# -- criterion 8 ---------------------------------------------------------------


def test_c08_perfect_matching_before_arrival():
    base = scenario.load_preset("acoustic-waveguide")
    # support radius at the 1e-20 amplitude level of the unit pulse
    support = np.sqrt(9.0 * 20.0 * np.log(10.0) / np.log(2.0))
    window = (50.0 - support) / 1.484
    sc_pml = scenario.with_overrides(base, final_time=float(window),
                                     record_fields=True, history_stride=1)
    sc_off = scenario.with_overrides(sc_pml, d0=0.0)
    rec_pml = scenario.run_scenario(sc_pml)
    rec_off = scenario.run_scenario(sc_off)
    diff = float(np.max(np.abs(rec_pml.history - rec_off.history)))
    ok = diff <= 1e-12
    assert _report(8, "perfect matching before arrival", ok,
                   f"max interior deviation {diff:.2e} through "
                   f"t = {window:.1f} s")


# -- criterion 9 ---------------------------------------------------------------


def test_c09_convergence_orders(tmp_path):
    start = time.perf_counter()
    results = cli.convergence_study(out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    ok = True
    details = []
    for degree, res in results.items():
        orders = res["orders"]
        ok = ok and all(o >= degree for o in orders)
        details.append(f"N={degree}: orders "
                       + ", ".join(f"{o:.2f}" for o in orders))
    ok = ok and elapsed < 120.0
    assert _report(9, "standing-mode convergence", ok,
                   "; ".join(details) + f" ({elapsed:.0f} s)")


# -- criterion 10 --------------------------------------------------------------


def test_c10_formula_spot_checks():
    vals_ok = (
        abs(pml.damping_strength(1.484, 10.0, 1e-3) / 2.05022 - 1) <= 1e-5
        and abs(pml.damping_strength(6.0, 10.0, 1e-3) / 8.28931 - 1) <= 1e-5
        and abs(timestep_formula(0.9, 4, 1.484, 5.0) / 0.238243 - 1) <= 1e-5)
    worst = 0.0
    s_values = [0.2 + 0.0j, 1.0 + 2.0j, 0.5 - 4.0j, 3.0 + 0.7j, 0.05 + 9.0j]
    d_values = np.linspace(0.0, 10.0, 10)
    a_values = np.linspace(0.0, 2.0, 10)
    g_values = np.linspace(0.25, 4.0, 10)
    count = 0
    for d, a, g in itertools.product(d_values, a_values, g_values):
        s = s_values[count % len(s_values)]
        count += 1
        S = stretching_metric(s, d, a, g)
        res = abs(1.0 / S - (1.0 / g - (1.0 / S) * d / (s + a)))
        worst = max(worst, res)
    identity_ok = worst <= 1e-14 and count == 1000
    ok = vals_ok and identity_ok
    assert _report(10, "formula spot checks", ok,
                   f"reference values ok={vals_ok}, inverse-identity "
                   f"residual {worst:.2e} over {count} samples")
