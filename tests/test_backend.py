import numpy as np
import pytest

from dephasing import backend
from util import assemble_joint_loop, rand_density, rand_unitary

needs_numba = pytest.mark.skipif(
    "numba" not in backend.IMPLEMENTATIONS,
    reason="numba backend not available")


def joint_inputs(rng, n, m):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c /= np.linalg.norm(c)
    ws = np.stack([rand_unitary(rng, m) for _ in range(n)])
    return c, ws, rand_density(rng, m)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 5), (6, 16)])
def test_assemble_joint_matches_loop_reference(n, m):
    rng = np.random.default_rng(n * 10 + m)
    c, ws, r0 = joint_inputs(rng, n, m)
    ref = assemble_joint_loop(c, list(ws), r0)
    assert np.max(np.abs(backend.assemble_joint(c, ws, r0) - ref)) < 1e-13
    assert np.max(np.abs(
        backend.IMPLEMENTATIONS["numpy"]["assemble_joint"](c, ws, r0) - ref)) < 1e-13


def test_assemble_joint_accepts_a_sequence_of_propagators():
    rng = np.random.default_rng(5)
    c, ws, r0 = joint_inputs(rng, 3, 4)
    assert np.array_equal(backend.assemble_joint(c, list(ws), r0),
                          backend.assemble_joint(c, ws, r0))


@needs_numba
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 5)])
def test_assemble_joint_agree(n, m):
    rng = np.random.default_rng(n * 10 + m)
    c, ws, r0 = joint_inputs(rng, n, m)
    a = backend.IMPLEMENTATIONS["numpy"]["assemble_joint"](c, ws, r0)
    b = backend.IMPLEMENTATIONS["numba"]["assemble_joint"](c, ws, r0)
    assert np.max(np.abs(a - b)) < 1e-14


@needs_numba
@pytest.mark.parametrize("dim_s,dim_e", [(2, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("transpose_env", [True, False])
def test_partial_transpose_agree(dim_s, dim_e, transpose_env):
    rng = np.random.default_rng(dim_s * 7 + dim_e)
    d = dim_s * dim_e
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = backend.IMPLEMENTATIONS["numpy"]["partial_transpose"](
        rho, dim_s, dim_e, transpose_env)
    b = backend.IMPLEMENTATIONS["numba"]["partial_transpose"](
        np.ascontiguousarray(rho), dim_s, dim_e, transpose_env)
    assert np.array_equal(a, b)


@needs_numba
@pytest.mark.parametrize("m", [2, 3, 5])
def test_minor_grid_agree(m):
    rng = np.random.default_rng(m)
    p = rng.random(m)
    p /= p.sum()
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ci, cj, cl = amps / np.linalg.norm(amps)
    closed_a, dets_a = backend.IMPLEMENTATIONS["numpy"]["minor_grid"](
        ci, cj, cl, p, u, x)
    closed_b, dets_b = backend.IMPLEMENTATIONS["numba"]["minor_grid"](
        ci, cj, cl, p, u, x)
    assert np.max(np.abs(closed_a - closed_b)) < 1e-15
    assert np.max(np.abs(dets_a - dets_b)) < 1e-15


def test_dispatchers_match_selected_backend():
    rng = np.random.default_rng(0)
    c, ws, r0 = joint_inputs(rng, 3, 2)
    sigma = backend.assemble_joint(c, ws, r0)
    ref = backend.IMPLEMENTATIONS[backend.BACKEND]["assemble_joint"](c, ws, r0)
    assert np.max(np.abs(sigma - ref)) < 1e-15
    pt = backend.partial_transpose_dense(sigma, 3, 2, True)
    assert np.array_equal(
        backend.partial_transpose_dense(pt, 3, 2, True), sigma)
