import numpy as np
import pytest

from oracles import sbp_q, sbp_residual
from wavelab import operators as ops


def test_gll_n1_is_trapezoid():
    nodes, weights = ops.gll_nodes_weights(1)
    assert np.allclose(nodes, [-1.0, 1.0])
    assert np.allclose(weights, [1.0, 1.0])


def test_gll_n2_closed_form():
    nodes, weights = ops.gll_nodes_weights(2)
    assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_gll_n4_nodes_are_roots_of_lobatto_polynomial():
    nodes, _ = ops.gll_nodes_weights(4)
    assert np.allclose(np.abs(nodes[[1, 3]]), np.sqrt(3 / 7), atol=1e-14)
    # residual of (1 - q^2) P4'(q); P4' = (35 q^3 - 15 q)/2
    q = nodes
    res = (1 - q ** 2) * (35 * q ** 3 - 15 * q) / 2
    assert np.max(np.abs(res)) < 1e-14


@pytest.mark.parametrize("N", range(1, 13))
def test_weights_positive_and_sum_to_two(N):
    _, weights = ops.gll_nodes_weights(N)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("N", range(1, 13))
def test_quadrature_exactness(N):
    nodes, weights = ops.gll_nodes_weights(N)
    for n in range(2 * N):
        exact = 0.0 if n % 2 else 2.0 / (n + 1)
        assert abs(weights @ nodes ** n - exact) < 1e-12


@pytest.mark.parametrize("N", range(1, 13))
def test_differentiation_exact_on_monomials(N):
    ref = ops.ReferenceElement1D(N)
    q = ref.nodes
    assert np.max(np.abs(ref.D @ np.ones_like(q))) < 1e-13
    for n in range(1, N + 1):
        err = ref.D @ q ** n - n * q ** (n - 1)
        assert np.max(np.abs(err)) < 1e-11


def test_n1_derivative_matrix():
    ref = ops.ReferenceElement1D(1)
    assert np.allclose(ref.D, [[-0.5, 0.5], [-0.5, 0.5]])
    # SBP identity written out for N=1
    Q = sbp_q(ref)
    assert np.allclose(Q + Q.T, np.diag([-1.0, 1.0]))


@pytest.mark.parametrize("N", range(1, 13))
def test_sbp_identity(N):
    assert sbp_residual(ops.ReferenceElement1D(N)) <= 1e-13


def test_degree_bounds_rejected():
    # the message of the scenario's degree row, as a ValueError
    for N in (0, 13):
        with pytest.raises(ValueError,
                           match=rf"^degree: must lie in \[1, 12\], got {N}$"):
            ops.gll_nodes_weights(N)


def test_lagrange_eval_reproduces_polynomials():
    ref = ops.ReferenceElement1D(5)
    coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.1])
    vals = np.polyval(coeffs, ref.nodes)
    for x in (-0.83, 0.0, 0.31, 0.999):
        e = ops.lagrange_eval(ref.nodes, x)
        assert abs(e @ vals - np.polyval(coeffs, x)) < 1e-12
