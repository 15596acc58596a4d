"""Growing modes of a scenario's semi-discrete operator near chosen frequencies.

The right-hand side is linear with constant coefficients, dy/dt = A y with
y = (U, w_x, w_y).  This script assembles A column by column from
``wavelab.solver.core.rhs`` (one call per unknown), then for each frequency
omega finds the eigenvalues nearest the shift i*omega by sparse shift-invert
Arnoldi and prints the one with the largest real part, the element and the
field where its eigenvector peaks.  A positive real part is a mode that grows
like exp(Re(lambda) t).

    PYTHONPATH=src python scripts/theta_spectrum.py elastic-iso-waveguide \\
        --theta-x 0 --omega 0.3 1 2 3

Needs scipy.  Assembly takes one rhs() call per unknown.
"""

import argparse

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

from wavelab import scenario
from wavelab.solver.core import rhs, split, zero_state


def assemble(mesh, config):
    """Sparse A with rhs(y) = A y: column j is rhs of the j-th unit vector."""
    y = zero_state(mesh).y
    col = np.empty_like(y)
    rows, cols, vals = [], [], []
    for j in range(y.size):
        y[j] = 1.0
        rhs(y, mesh, config, col)
        y[j] = 0.0
        nz = np.flatnonzero(col)
        rows.append(nz)
        cols.append(np.full(nz.size, j))
        vals.append(col[nz])
    return sp.csc_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(y.size, y.size))


def locate(index, mesh):
    """Block name, element (kx, ly) in mesh numbering and field index of
    unknown ``index`` of y."""
    y = zero_state(mesh).y
    y[index] = 1.0
    for name, block in zip(("U", "w_x", "w_y"), split(y, mesh)):
        if block.any():
            k, l, m, _, _ = np.unravel_index(block.argmax(), block.shape)
            k = mesh.active_x[k] if name == "w_x" else k
            l = mesh.active_y[l] if name == "w_y" else l
            return name, (int(k), int(l)), int(m)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", help="preset name or scenario JSON path")
    parser.add_argument("--theta-x", type=float, default=None)
    parser.add_argument("--omega", type=float, nargs="+", default=[1.0],
                        help="imaginary parts of the shifts")
    args = parser.parse_args(argv)

    sc = scenario.with_overrides(scenario.load(args.scenario),
                                 theta_x=args.theta_x)
    mesh, config = sc.build()
    A = assemble(mesh, config)
    print(f"{sc.name}: theta=({config.theta_x:g}, {config.theta_y:g}), "
          f"n={A.shape[0]}, nnz={A.nnz}")
    # with a real matrix and a complex shift, eigs iterates on the real part
    # of (A - sigma I)^-1, which can return eigenvalues far from the shift
    Ac = A.astype(complex)
    best = -np.inf
    for omega in args.omega:
        lam, vec = eigs(Ac, k=12, sigma=1j * omega, tol=1e-10)
        i = int(np.argmax(lam.real))
        name, elem, fld = locate(int(np.argmax(np.abs(vec[:, i]))), mesh)
        best = max(best, lam[i].real)
        print(f"omega {omega:g}: max Re {lam[i].real:.3e} at Im "
              f"{lam[i].imag:.4f}, peak in {name} field {fld} of element "
              f"{elem}")
    print(f"largest Re over all shifts: {best:.3e}")


if __name__ == "__main__":
    main()
