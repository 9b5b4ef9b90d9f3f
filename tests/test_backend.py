import numpy as np
import pytest

from dephasing import backend
from util import assemble_joint_loop, minor_grid_loop, rand_density, rand_unitary


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


def test_assemble_joint_accepts_a_sequence_of_propagators():
    rng = np.random.default_rng(5)
    c, ws, r0 = joint_inputs(rng, 3, 4)
    assert np.array_equal(backend.assemble_joint(c, list(ws), r0),
                          backend.assemble_joint(c, ws, r0))


@pytest.mark.parametrize("m", [2, 3, 5, 16])
def test_minor_grid_matches_loop_reference(m):
    rng = np.random.default_rng(m)
    p = rng.random(m)
    p /= p.sum()
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ci, cj, cl = amps / np.linalg.norm(amps)
    closed, dets = backend.minor_grid_3x3(ci, cj, cl, p, u, x)
    closed_ref, dets_ref = minor_grid_loop(ci, cj, cl, p, u, x)
    for got, ref in ((closed, closed_ref), (dets, dets_ref)):
        assert got.shape == (m, m) and got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.all(np.diag(got) == 0.0)
