import re

import numpy as np
import pytest

from dephasing.linalg import (
    DimensionMismatchError,
    LinalgError,
    NotCommutingError,
    NotHermitianError,
    commutator_norm,
    frob,
    hermitian_eig,
    partial_transpose,
    simultaneous_diagonalize,
)
from dephasing.evolution import propagators
from dephasing.model import DephasingModel, validate
from util import eig_bisection_oracle, expm_taylor, rand_hermitian, rand_unitary

SIGMA_Y_LIKE = np.array([[0, 1j], [-1j, 0]], dtype=np.complex128)


class TestHermitianEig:
    def test_already_diagonal(self):
        vals, vecs = hermitian_eig(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(vals, [-1.0, 1.0])
        assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])

    def test_pauli_type_spectrum(self):
        vals, _ = hermitian_eig(SIGMA_Y_LIKE)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 8)
        vals, _ = hermitian_eig(a)
        assert np.max(np.abs(vals - eig_bisection_oracle(a))) < 1e-10

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1)
        a = rand_hermitian(rng, 10)
        vals, vecs = hermitian_eig(a)
        assert frob((vecs * vals) @ vecs.conj().T - a) <= 1e-12 * max(1, frob(a))
        assert frob(vecs.conj().T @ vecs - np.eye(10)) <= 1e-12 * 10
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_spectrum_invariant_under_conjugation(self):
        rng = np.random.default_rng(12)
        a = rand_hermitian(rng, 6)
        u = rand_unitary(rng, 6)
        vals, _ = hermitian_eig(a)
        vals_rot, _ = hermitian_eig(u @ a @ u.conj().T)
        assert np.max(np.abs(vals - vals_rot)) < 1e-9


def exp_of(h, theta):
    """exp(-i theta H) as the package computes it: the propagator w_1 of a
    qubit model with H_E = H and V_1 = 0 (V_0 = -H, so w_0 = 1)."""
    m = h.shape[0]
    model = validate(DephasingModel(
        n=2, m=m, c=np.array([1, 1], dtype=complex) / np.sqrt(2),
        r0=np.eye(m, dtype=complex) / m, h_env=h,
        v=(-h, np.zeros((m, m), dtype=complex))))
    return propagators(model, theta).w[1]


class TestUnitaryExp:
    """``propagators`` is the package's matrix exponential."""

    def test_zero_generator(self):
        assert np.allclose(exp_of(np.zeros((3, 3), dtype=complex), 2.7),
                           np.eye(3))

    def test_diagonal_phases(self):
        out = exp_of(np.diag([np.pi, 0.0]).astype(complex), 1.0)
        assert np.max(np.abs(out - np.diag([-1.0, 1.0]))) < 1e-12

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(3)
        h = rand_hermitian(rng, 6)
        out = exp_of(h, 0.37)
        assert frob(out - expm_taylor(-1j * 0.37 * h)) < 1e-9

    def test_result_unitary(self):
        rng = np.random.default_rng(4)
        h = rand_hermitian(rng, 7)
        u = exp_of(h, 1.9)
        assert frob(u @ u.conj().T - np.eye(7)) <= 1e-11 * 7

    def test_group_property(self):
        rng = np.random.default_rng(5)
        h = rand_hermitian(rng, 5)
        u = exp_of(h, 0.4) @ exp_of(h, 1.1)
        assert frob(u - exp_of(h, 1.5)) < 1e-10


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(8)
        rho_s = rand_hermitian(rng, 3)
        rho_e = rand_hermitian(rng, 2)
        rho = np.kron(rho_s, rho_e)
        assert np.allclose(partial_transpose(rho, 3, 2, "system"),
                           np.kron(rho_s.T, rho_e))
        assert np.allclose(partial_transpose(rho, 3, 2, "environment"),
                           np.kron(rho_s, rho_e.T))

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(9)
        rho = rand_hermitian(rng, 6)
        for sub in ("system", "environment"):
            pt = partial_transpose(rho, 3, 2, sub)
            assert np.array_equal(partial_transpose(pt, 3, 2, sub), rho)
            assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
            assert frob(pt - pt.conj().T) < 1e-14

    def test_two_transposes_compose_to_full(self):
        rng = np.random.default_rng(10)
        rho = rand_hermitian(rng, 6)
        ts = partial_transpose(rho, 2, 3, "system")
        assert np.allclose(partial_transpose(ts, 2, 3, "environment"), rho.T)

    def test_spectra_agree_between_subsystems(self):
        rng = np.random.default_rng(11)
        rho = rand_hermitian(rng, 12)
        es = np.linalg.eigvalsh(partial_transpose(rho, 4, 3, "system"))
        ee = np.linalg.eigvalsh(partial_transpose(rho, 4, 3, "environment"))
        assert np.max(np.abs(es - ee)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(5, dtype=complex), 2, 2, "system")


class TestCommutatorNorm:
    def test_identity_commutes(self):
        rng = np.random.default_rng(2)
        b = rand_hermitian(rng, 4)
        assert commutator_norm(np.eye(4, dtype=complex), b) == 0.0

    def test_pauli_pair(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        assert commutator_norm(a, SIGMA_Y_LIKE) == pytest.approx(2 * np.sqrt(2))

    def test_diagonal_matrices_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0, 3.0]).astype(complex),
                               np.diag([4.0, 5.0, 6.0]).astype(complex)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_stack_matches_pair_by_pair(self):
        rng = np.random.default_rng(8)
        a = np.stack([rand_unitary(rng, 5) for _ in range(6)])
        b = np.stack([rand_hermitian(rng, 5) for _ in range(6)])
        norms = commutator_norm(a, b)
        assert norms.shape == (6,)
        for k in range(6):
            assert abs(norms[k] - commutator_norm(a[k], b[k])) < 1e-13

    def test_single_matrix_broadcasts_against_stack(self):
        rng = np.random.default_rng(9)
        r = rand_hermitian(rng, 4)
        b = np.stack([rand_unitary(rng, 4) for _ in range(3)])
        norms = commutator_norm(r, b)
        for k in range(3):
            assert abs(norms[k] - commutator_norm(r, b[k])) < 1e-13

    def test_stacks_must_broadcast(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.zeros((2, 3, 3), dtype=complex),
                            np.zeros((4, 3, 3), dtype=complex))

    def test_non_square_stack_rejected(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))

    def test_non_finite_entry_anywhere_in_stack_rejected(self):
        a = np.zeros((3, 2, 2), dtype=complex)
        a[2, 1, 0] = complex(0.0, np.nan)
        with pytest.raises(LinalgError):
            commutator_norm(a, np.zeros((3, 2, 2)))


class TestSimultaneousDiagonalize:
    def test_identity_pair(self):
        basis, diags = simultaneous_diagonalize(
            [np.eye(3, dtype=complex), np.eye(3, dtype=complex)])
        assert frob(basis.conj().T @ basis - np.eye(3)) < 1e-12
        for d in diags:
            assert np.allclose(d, 1.0)

    def test_degenerate_second_refined_by_first(self):
        basis, diags = simultaneous_diagonalize(
            [np.diag([2.0, 1.0]).astype(complex),
             np.diag([5.0, 5.0]).astype(complex)])
        # standard basis up to permutation/phase
        assert np.allclose(np.sort(np.abs(basis), axis=0), [[0, 0], [1, 1]])
        assert sorted(diags[0].real) == [1.0, 2.0]
        assert np.allclose(diags[1], 5.0)

    def test_round_trip_commuting_unitaries(self):
        rng = np.random.default_rng(11)
        dim = 6
        q = rand_unitary(rng, dim)
        target_diags = [np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
                        for _ in range(4)]
        ops = [(q * d) @ q.conj().T for d in target_diags]
        basis, diags = simultaneous_diagonalize(ops, tol=1e-9)
        for op, d in zip(ops, diags):
            res = basis.conj().T @ op @ basis - np.diag(d)
            assert frob(res) < 1e-9
        # recovered diagonals match the construction up to a joint permutation
        perm_overlap = np.abs(basis.conj().T @ q)
        assert np.allclose(np.sort(perm_overlap.ravel())[-dim:], 1.0, atol=1e-9)

    def test_rejects_noncommuting(self):
        with pytest.raises(NotCommutingError):
            simultaneous_diagonalize(
                [np.diag([1.0, -1.0]).astype(complex), SIGMA_Y_LIKE])

    def test_noncommuting_error_names_residual_and_bound(self):
        with pytest.raises(NotCommutingError) as info:
            simultaneous_diagonalize(
                [np.diag([1.0, -1.0]).astype(complex), SIGMA_Y_LIKE], tol=1e-9)
        match = re.fullmatch(r"simultaneous diagonalization residual (\S+) "
                             r"exceeds bound (\S+)", str(info.value))
        assert match is not None
        residual, bound = map(float, match.groups())
        assert bound == float(f"{10 * 1e-9 * 2:.3e}")
        # no unitary basis brings both operators within reach of diagonal
        assert residual > 0.1

    @pytest.mark.parametrize("gap,tol", [(1.2e-9, 1e-9), (1e-3, 1e-3),
                                         (5e-4, 1e-3)])
    def test_near_degenerate_pair_mixed_by_a_later_operator(self, gap, tol):
        # R splits at its gap (above DEGENERACY_RTOL), but U mixes the two
        # states strongly; ||[R, U]|| = gap sin(a) sqrt(2) is within tol
        r = np.diag([0.5 - gap / 2, 0.5 + gap / 2]).astype(complex)
        u = (np.cos(np.pi / 6) * np.eye(2)
             - 1j * np.sin(np.pi / 6) * np.array([[0, 1], [1, 0]]))
        assert commutator_norm(r, u) <= tol
        basis, diagonals = simultaneous_diagonalize([r, u], tol=tol)
        assert frob(basis.conj().T @ basis - np.eye(2)) < 1e-12
        for op, diagonal in zip((r, u), diagonals):
            rotated = basis.conj().T @ op @ basis
            assert np.array_equal(np.diag(rotated), diagonal)
            assert frob(rotated - np.diag(diagonal)) <= 10 * tol * 2

    def test_mixed_hermitian_and_unitary(self):
        rng = np.random.default_rng(21)
        q = rand_unitary(rng, 5)
        herm = (q * rng.standard_normal(5)) @ q.conj().T
        unit = (q * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))) @ q.conj().T
        basis, diags = simultaneous_diagonalize([herm, unit], tol=1e-9)
        for op, d in zip((herm, unit), diags):
            assert frob(basis.conj().T @ op @ basis - np.diag(d)) < 1e-9
