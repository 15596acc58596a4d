"""Command-line interface: runs, analysis sweeps and the ABC comparison.

Exit codes: 0 success, 2 configuration error, 3 unstable run,
4 numerical failure.  Artifacts are CSV series plus a metadata JSON carrying
the scenario hash; re-running with identical inputs yields byte-identical
CSV bodies.
"""

import argparse
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

try:  # CPython's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4


def _write_csv(path, header, rows):
    """Write the 2-D array ``rows`` under ``header``, as Python float reprs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float):  # no list of every value
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def scenario_hash(sc):
    blob = json.dumps(sc.canonical_dict(), sort_keys=True,
                      separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


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


def _output_dir(path):
    """``path`` as a directory made with its parents, or ConfigurationError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigurationError(f"cannot make output directory {out}: "
                                 f"{exc.strerror}") from None
    return out


def write_run_artifacts(out_dir, sc, record):
    out = _output_dir(out_dir)
    _write_csv(out / "series.csv", ["t", "linf", "energy"],
               np.column_stack([record.times, record.linf, record.energy]))
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
        "steps_taken": len(record.times) - 1,
        "status": record.status,
        "blowup_time": record.blowup_time,
        "linf_field": record.linf_field,
    })
    return out


def run_scenario_with_artifacts(sc, out_dir=None):
    """Execute a scenario and write artifacts; re-raises instability after
    writing the partial record."""
    out_dir = _output_dir(out_dir or sc.output_dir or Path("out") / sc.name)
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
    medium = _resolve_medium(medium_name)
    try:  # before anything is written
        _, k, omega, V_g = analysis.slowness_scan(medium, n_directions)
    except ValueError as exc:
        raise ConfigurationError(f"--directions: {exc}") from None
    out = _output_dir(out_dir)
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
    mesh then acts as a waveguide terminated by the r=0 ABC), and with an
    undamped layer (d0 = 0, gamma = 1) as wide as the domain on every side
    that has a layer, so boundary reflections cannot contaminate the
    interior before the validity horizon; emits both interior error series.
    """
    if not base_sc.pml.sides:
        raise ConfigurationError(
            "pml.sides: compare-abc compares a layer with the ABC, and the "
            "scenario has no layer")
    out = _output_dir(out_dir or Path("out") / "abc-comparison")
    x0, x1, _, _ = base_sc.domain
    horizon = diagnostics.reference_validity_horizon(
        x1 - x0, base_sc.c_p_max, base_sc.element_size)
    # the error series ends at the horizon, so no run steps past it
    common = {"snapshot_times": [], "stop_time": min(
        horizon, base_sc.stop_time or base_sc.final_time)}
    stored = {"record_fields": True, **common}

    pml_sc = scenario_mod.with_overrides(base_sc, **stored)
    abc_sc = scenario_mod.with_overrides(base_sc, d0=0.0, **stored)
    ref_sc = scenario_mod.with_overrides(
        base_sc, name=base_sc.name + "-reference", **common,
        pml={"sides": list(base_sc.pml.sides), "width": x1 - x0, "d0": 0.0})

    pml_rec = scenario_mod.run_scenario(pml_sc)
    abc_rec = scenario_mod.run_scenario(abc_sc)
    rows = []

    def measure(i, t, U):  # the reference's sample i against the stored ones
        row = [t]
        for rec in (pml_rec, abc_rec):
            if not (i < len(rec.history) and rec.history[i].shape == U.shape
                    and abs(rec.history_times[i] - t) <= 1e-9):
                raise ValueError(f"reference sample {i} (t = {t:.6g} s, "
                                 f"shape {U.shape}) has no stored match")
            row += diagnostics.pml_error(rec.history[i], U, rec.mesh)
        rows.append(row)

    # the reference records no history: it is measured as it steps
    scenario_mod.run_scenario(ref_sc, on_sample=measure)
    for rec in (pml_rec, abc_rec):
        if len(rec.history) != len(rows):
            raise ValueError(f"a stored run holds {len(rec.history)} "
                             f"samples, the reference took {len(rows)}")
    rows = np.array(rows)
    rows = rows[rows[:, 0] <= horizon + 1e-12]
    pml_err = diagnostics.ErrorSeries(rows[:, 0], rows[:, 1], rows[:, 2])
    abc_err = diagnostics.ErrorSeries(rows[:, 0], rows[:, 3], rows[:, 4])

    _write_csv(out / "error_series.csv",
               ["t", "pml_linf", "pml_l2", "abc_linf", "abc_l2"], rows)
    _write_metadata(out, base_sc, {
        "horizon": horizon,
        "pml_max_linf_error": pml_err.max_linf(),
        "abc_max_linf_error": abc_err.max_linf(),
    })
    return pml_err, abc_err, horizon


def convergence_study(degrees=(2, 3), meshes=(10, 20, 40), out_dir=None):
    """Closed-box standing-mode refinement sweep; returns observed orders."""
    out = _output_dir(out_dir or Path("out") / "convergence-study")
    base = scenario_mod.load_preset("convergence-study")
    rows = []
    results = {}
    for degree in degrees:
        errors, first = [], len(rows)
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
        # this degree's rows less its first, which has no order
        orders = [row[3] for row in rows[first + 1:]]
        results[degree] = {"errors": errors, "orders": orders}
    _write_csv(out / "convergence.csv",
               ["degree", "elements_per_side", "l2_error", "observed_order"],
               rows)
    return results


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="2D DG spectral-element wave solver with stabilized PML")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("scenario", help="path to scenario JSON or one of "
                       f"{scenario_mod.PRESET_SCENARIOS}")
    p_run.add_argument("--theta-x", type=float, default=None)
    p_run.add_argument("--theta-y", type=float, default=None)
    p_run.add_argument("--tol", type=float, default=None,
                       help="PML echo of a wall behind the layer at normal "
                       "incidence when alpha = 0; more below about alpha")
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

    p_conv = sub.add_parser("convergence",
                            help="standing-mode refinement sweep")
    p_conv.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {k: getattr(args, k) for k in
                         ("theta_x", "theta_y", "tol", "degree", "cfl",
                          "final_time")}
            sc = scenario_mod.with_overrides(scenario_mod.load(args.scenario),
                                             **overrides)
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
            base = scenario_mod.load(args.scenario)
            pml_err, abc_err, horizon = compare_abc(base, args.out)
            print(f"validity horizon: {horizon:.6g} s")
            print(f"max interior L-inf error: PML {pml_err.max_linf():.6g}, "
                  f"ABC {abc_err.max_linf():.6g}")
            return EXIT_OK
        if args.command == "convergence":
            for degree, result in convergence_study(out_dir=args.out).items():
                print(f"degree {degree}: observed orders " + ", ".join(
                    f"{order:.3g}" for order in result["orders"]))
            return EXIT_OK
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
