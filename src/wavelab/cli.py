"""Command-line interface: runs, analysis sweeps and the ABC comparison.

Exit codes: 0 success, 2 configuration error, 3 unstable run,
4 numerical failure.  Artifacts are CSV series plus a metadata JSON carrying
the scenario hash; re-running with identical inputs yields byte-identical
CSV bodies.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, diagnostics
from . import media as media_mod
from . import scenario as scenario_mod
from .errors import (ConfigurationError, InvalidMediumError,
                     NumericalFailureError, UnstableRunError)
from .solver.core import standing_mode

META_PRESETS = ("abc-comparison", "stability-analysis", "convergence-study")
ALL_PRESETS = tuple(name for name in scenario_mod.PRESET_SCENARIOS
                    if name not in META_PRESETS) + META_PRESETS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def scenario_hash(sc):
    blob = json.dumps(sc.canonical_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_metadata(out, sc, extra):
    meta = {
        "version": __version__,
        "scenario": sc.canonical_dict(),
        "scenario_hash": scenario_hash(sc),
        "degree": sc.degree,
    }
    meta.update(extra)
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(out_dir, sc, record):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "series.csv", ["t", "linf", "energy"],
               zip(record.times, record.linf, record.energy))
    if record.receiver_series is not None:
        header = ["t"] + [f"rec{i}_{f}"
                          for i in range(len(record.receiver_series))
                          for f in record.mesh.fields]
        _write_csv(out / "receivers.csv", header, np.column_stack(
            [record.times, *record.receiver_series]))
    mesh = record.mesh
    X, Y = mesh.node_coordinates()
    for t, U in sorted(record.snapshots.items()):
        rows = np.column_stack([X.ravel(), Y.ravel()]
                               + [U[:, :, f].ravel() for f in range(mesh.m)])
        _write_csv(out / f"snapshot_t{t:g}.csv",
                   ["x", "y", *mesh.fields], rows)
    _write_metadata(out, sc, {
        "dt": record.dt,
        "n_steps": record.n_steps,
        "status": record.status,
        "blowup_time": record.blowup_time,
        "linf_field": record.linf_field,
    })
    return out


def run_scenario_with_artifacts(sc, out_dir=None):
    """Execute a scenario and write artifacts; re-raises instability after
    writing the partial record."""
    out_dir = Path(out_dir or sc.output_dir or Path("out") / sc.name)
    try:
        record = scenario_mod.run_scenario(sc)
    except UnstableRunError as exc:
        write_run_artifacts(out_dir, sc, exc.record)
        raise
    write_run_artifacts(out_dir, sc, record)
    return record


def _resolve_medium(name):
    # a module-level name, so perfbench can rebind it to add a seeded medium
    return media_mod.preset(name)


def write_analysis_artifacts(medium_name, axis="x", n_directions=720,
                             out_dir="out/analysis"):
    """Slowness scan CSV, one row per direction and non-degenerate branch,
    plus per-axis stability verdict JSON."""
    if axis not in ("x", "y", "both"):
        raise ConfigurationError(
            f"--axis: must be 'x', 'y' or 'both', got {axis!r}")
    if n_directions < analysis.MIN_DIRECTIONS:
        raise ConfigurationError(
            f"--directions: need at least {analysis.MIN_DIRECTIONS}, "
            f"got {n_directions}")
    medium = _resolve_medium(medium_name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, k, omega, V_g = analysis.slowness_scan(medium, n_directions)
    keep = ~np.isnan(V_g[..., 0])
    branch = np.broadcast_to(np.arange(omega.shape[1]), omega.shape)
    angle = np.broadcast_to(np.arctan2(k[:, 1:], k[:, :1]), omega.shape)
    S = k[:, None, :] / omega[..., None]
    product = omega[..., None] / k[:, None, :] * V_g
    _write_csv(out / "slowness.csv",
               ["branch", "angle", "S_x", "S_y", "Vg_x", "Vg_y",
                "product_x", "product_y"],
               np.column_stack([branch[keep], angle[keep], S[keep],
                                V_g[keep], product[keep]]))
    reports = {}
    axes = ("x", "y") if axis == "both" else (axis,)
    for ax in axes:
        rep = analysis.geometric_stability_check(medium, ax, n_directions)
        reports[ax] = rep
        with open(out / f"stability_{ax}.json", "w", encoding="utf-8") as fh:
            payload = {"medium": medium_name, **rep.to_dict()}
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return reports


def compare_abc(base_sc, out_dir=None):
    """PML vs plain first-order ABC against a reference-domain run.

    Runs the scenario with its PML, with the damping switched off (the same
    mesh then acts as a waveguide terminated by the r=0 ABC), and with one
    undamped layer (d0 = 0, gamma = 1) as wide as the domain on the east, so
    boundary reflections cannot contaminate the interior before the validity
    horizon; emits both interior error series.
    """
    out = Path(out_dir or Path("out") / "abc-comparison")
    x0, x1, _, _ = base_sc.domain

    pml_sc = scenario_mod.with_overrides(base_sc, record_fields=True)
    abc_sc = scenario_mod.with_overrides(base_sc, d0=0.0, record_fields=True)
    ref_sc = scenario_mod.with_overrides(
        base_sc, name=base_sc.name + "-reference", record_fields=True,
        pml={"sides": ["east"], "width": x1 - x0, "d0": 0.0})

    horizon = diagnostics.reference_validity_horizon(
        base_sc.domain, ref_sc.layers().extents(ref_sc.domain),
        base_sc.c_p_max, base_sc.element_size)
    ref_sc = scenario_mod.with_overrides(ref_sc, stop_time=min(
        horizon, base_sc.final_time))

    pml_rec = scenario_mod.run_scenario(pml_sc)
    abc_rec = scenario_mod.run_scenario(abc_sc)
    ref_rec = scenario_mod.run_scenario(ref_sc)

    pml_err = diagnostics.pml_error(pml_rec, ref_rec, horizon)
    abc_err = diagnostics.pml_error(abc_rec, ref_rec, horizon)

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "error_series.csv",
               ["t", "pml_linf", "pml_l2", "abc_linf", "abc_l2"],
               zip(pml_err.times, pml_err.linf, pml_err.l2,
                   abc_err.linf, abc_err.l2))
    _write_metadata(out, base_sc, {
        "horizon": horizon,
        "pml_max_linf_error": pml_err.max_linf(),
        "abc_max_linf_error": abc_err.max_linf(),
    })
    return pml_err, abc_err, horizon


def convergence_study(degrees=(2, 3), meshes=(10, 20, 40), out_dir=None):
    """Closed-box standing-mode refinement sweep; returns observed orders."""
    out = Path(out_dir or Path("out") / "convergence-study")
    base = scenario_mod.load_preset("convergence-study")
    rows = []
    results = {}
    for degree in degrees:
        errors = []
        for ne in meshes:
            sc = scenario_mod.with_overrides(
                base, degree=degree, element_size=1.0 / ne)
            rec = scenario_mod.run_scenario(sc)
            mesh = rec.mesh
            exact = standing_mode(mesh, base.initial.get("nx", 1),
                                  base.initial.get("ny", 1), rec.times[-1])
            err = diagnostics.weighted_l2(rec.final_state.U - exact, mesh)
            order = (np.log2(errors[-1] / err) if errors else float("nan"))
            errors.append(err)
            rows.append([degree, ne, err, order])
        orders = [np.log2(errors[i] / errors[i + 1])
                  for i in range(len(errors) - 1)]
        results[degree] = {"errors": errors, "orders": orders}
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "convergence.csv",
               ["degree", "elements_per_side", "l2_error", "observed_order"],
               rows)
    return results


def run_preset(name, out_dir=None, **overrides):
    """Execute a named experiment preset; returns (exit_status, payload).

    A meta-preset wins over a scenario preset of the same name, so
    ``convergence-study`` runs the refinement sweep."""
    if name == "abc-comparison":
        base = scenario_mod.with_overrides(
            scenario_mod.load_preset("acoustic-waveguide"), **overrides)
        return EXIT_OK, compare_abc(base, out_dir)
    if name == "stability-analysis":
        medium = overrides.pop("medium", "am1-table1")
        n_dir = overrides.pop("n_directions", 720)
        if overrides:
            raise ConfigurationError(
                f"unknown stability-analysis overrides {sorted(overrides)}")
        reports = write_analysis_artifacts(medium, "both", n_dir,
                                           out_dir or "out/stability-analysis")
        return EXIT_OK, reports
    if name == "convergence-study":
        if overrides:
            raise ConfigurationError(
                f"unknown convergence-study overrides {sorted(overrides)}")
        return EXIT_OK, convergence_study(out_dir=out_dir)
    if name in scenario_mod.PRESET_SCENARIOS:
        sc = scenario_mod.with_overrides(scenario_mod.load_preset(name),
                                         **overrides)
        try:
            record = run_scenario_with_artifacts(sc, out_dir)
        except UnstableRunError as exc:
            return EXIT_UNSTABLE, exc.record
        return EXIT_OK, record
    raise ConfigurationError(
        f"unknown preset {name!r}; available: {ALL_PRESETS}")


def _load_scenario_arg(arg):
    if arg in META_PRESETS:
        raise ConfigurationError(f"{arg!r} is an experiment, not a scenario; "
                                 f"run it with 'wavelab run {arg}'")
    if arg in scenario_mod.PRESET_SCENARIOS:
        return scenario_mod.load_preset(arg)
    return scenario_mod.parse_scenario(arg)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="2D DG spectral-element wave solver with stabilized PML")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("scenario",
                       help=f"path to scenario JSON or one of {ALL_PRESETS}")
    p_run.add_argument("--theta-x", type=float, default=None)
    p_run.add_argument("--theta-y", type=float, default=None)
    p_run.add_argument("--tol", type=float, default=None,
                       help="PML relative-error design tolerance")
    p_run.add_argument("--degree", type=int, default=None)
    p_run.add_argument("--cfl", type=float, default=None)
    p_run.add_argument("--final-time", type=float, default=None)
    p_run.add_argument("--out", default=None, help="output directory")

    p_an = sub.add_parser("analyze", help="slowness/stability analysis")
    p_an.add_argument("--medium", required=True, help="medium preset name")
    p_an.add_argument("--axis", choices=("x", "y", "both"), default="x")
    p_an.add_argument("--directions", type=int, default=720)
    p_an.add_argument("--out", default="out/analysis")

    p_cmp = sub.add_parser("compare-abc",
                           help="PML vs ABC error against a reference run")
    p_cmp.add_argument("scenario", nargs="?", default="acoustic-waveguide")
    p_cmp.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {k: getattr(args, k) for k in
                         ("theta_x", "theta_y", "tol", "degree", "cfl",
                          "final_time")}
            if args.scenario in META_PRESETS:
                status, _ = run_preset(
                    args.scenario, out_dir=args.out,
                    **{k: v for k, v in overrides.items() if v is not None})
                print(f"{args.scenario} artifacts written to "
                      f"{args.out or 'out/' + args.scenario}")
                return status
            sc = _load_scenario_arg(args.scenario)
            sc = scenario_mod.with_overrides(sc, **overrides)
            record = run_scenario_with_artifacts(sc, args.out)
            print(f"completed {sc.name}: {len(record.times) - 1} steps, "
                  f"dt={record.dt:.6g} s, final linf={record.linf[-1]:.6g}")
            return EXIT_OK
        if args.command == "analyze":
            reports = write_analysis_artifacts(
                args.medium, args.axis, args.directions, args.out)
            for ax, rep in sorted(reports.items()):
                print(f"{args.medium} axis {ax}: {rep.verdict} "
                      f"(min product {rep.min_product:.3e})")
            return EXIT_OK
        if args.command == "compare-abc":
            base = _load_scenario_arg(args.scenario)
            pml_err, abc_err, horizon = compare_abc(base, args.out)
            print(f"validity horizon: {horizon:.6g} s")
            print(f"max interior L-inf error: PML {pml_err.max_linf():.6g}, "
                  f"ABC {abc_err.max_linf():.6g}")
            return EXIT_OK
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, InvalidMediumError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnstableRunError as exc:
        print(f"unstable run: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
