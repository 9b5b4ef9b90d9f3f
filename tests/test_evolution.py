import numpy as np
import pytest

from dephasing import model as model_module
from dephasing.evolution import (
    conditional_block,
    joint_state,
    pair_operator,
    propagators,
)
from dephasing.linalg import frob
from dephasing.model import (
    EnsembleSpec,
    Family,
    mixed_qutrit_example,
    random_instance,
    validate,
)
from util import decoherence_factors, pauli_fixture_sigma


@pytest.fixture
def generic_model():
    spec = EnsembleSpec(seed=17, count=1, n=3, m=3, family=Family.GENERIC)
    return validate(random_instance(spec, 0))


class TestPropagators:
    def test_identity_at_time_zero(self, generic_model):
        props = propagators(generic_model, 0.0)
        for w in props.w:
            assert np.allclose(w, np.eye(3))

    def test_equal_couplings_give_equal_propagators(self):
        spec = EnsembleSpec(seed=2, count=1, n=3, m=2, family=Family.GENERIC)
        m = random_instance(spec, 0)
        from dephasing.model import DephasingModel
        m = validate(DephasingModel(n=m.n, m=m.m, c=m.c, r0=m.r0,
                                    h_env=m.h_env, v=(m.v[0],) * 3))
        props = propagators(m, 1.3)
        assert np.allclose(props.w[0], props.w[1])
        assert np.allclose(props.w[0], props.w[2])

    def test_time_reversal_is_adjoint(self, generic_model):
        fwd = propagators(generic_model, 0.9)
        bwd = propagators(generic_model, -0.9)
        for wf, wb in zip(fwd.w, bwd.w):
            assert frob(wb - wf.conj().T) < 1e-10

    def test_unitarity(self, generic_model):
        props = propagators(generic_model, 2.1)
        for w in props.w:
            assert frob(w @ w.conj().T - np.eye(3)) < 1e-10 * 3

    def test_propagator_mode_returns_snapshot(self):
        m = mixed_qutrit_example()
        for t in (0.0, 0.5, 3.0):
            props = propagators(m, t)
            for a, b in zip(props.w, m.w):
                assert np.array_equal(a, b)

    def test_stacked_array_of_levels(self, generic_model):
        assert propagators(generic_model, 0.7).w.shape == (3, 3, 3)
        assert propagators(mixed_qutrit_example(), 0.7).w.shape == (3, 2, 2)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (6, 16)])
    def test_cached_spectra_match_per_level_exponential(self, n, m):
        spec = EnsembleSpec(seed=23, count=1, n=n, m=m, family=Family.GENERIC)
        model = validate(random_instance(spec, 0))
        for t in (0.0, 0.4, 2.5, -1.3):
            props = propagators(model, t)
            for k, vk in enumerate(model.v):
                vals, vecs = np.linalg.eigh(model.h_env + vk)
                ref = (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T
                assert np.max(np.abs(props.w[k] - ref)) < 1e-13

    def test_levels_decomposed_once_per_model(self, generic_model, monkeypatch):
        calls = []
        real = model_module.hermitian_eig

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "hermitian_eig", counted)
        for t in np.linspace(0.0, 3.0, 7):
            propagators(generic_model, t)
        assert len(calls) == generic_model.n


class TestPairOperator:
    def test_equal_indices_identity(self, generic_model):
        props = propagators(generic_model, 1.0)
        assert np.allclose(pair_operator(props, 1, 1), np.eye(3))

    def test_fixture_pair_product(self):
        # w_1 w_2 for the built-in fixture is i times the remaining Pauli axis
        m = mixed_qutrit_example()
        props = propagators(m, 1.0)
        assert np.allclose(m.w[1] @ m.w[2], np.array([[0, 1j], [1j, 0]]))
        w12 = pair_operator(props, 1, 2)
        assert np.allclose(w12, m.w[1] @ m.w[2].conj().T)

    def test_adjoint_identity(self, generic_model):
        props = propagators(generic_model, 0.6)
        for i in range(3):
            for j in range(3):
                wij = pair_operator(props, i, j)
                wji = pair_operator(props, j, i)
                assert frob(wij @ wji - np.eye(3)) < 1e-10
                assert frob(wij - wji.conj().T) < 1e-12

    def test_composition_through_reference_level(self, generic_model):
        props = propagators(generic_model, 0.6)
        for i in range(3):
            for j in range(3):
                composed = pair_operator(props, i, 0) @ pair_operator(props, 0, j)
                assert frob(pair_operator(props, i, j) - composed) < 1e-12

    def test_index_out_of_range(self, generic_model):
        props = propagators(generic_model, 1.0)
        with pytest.raises(IndexError):
            pair_operator(props, 0, 3)


class TestConditionalBlock:
    def test_time_zero_is_initial_state(self, generic_model):
        props = propagators(generic_model, 0.0)
        for k in range(3):
            for l in range(3):
                assert np.allclose(conditional_block(generic_model, props, k, l),
                                   generic_model.r0)

    def test_mixed_state_invariant(self):
        spec = EnsembleSpec(seed=4, count=1, n=3, m=2, family=Family.MIXED)
        m = validate(random_instance(spec, 0))
        props = propagators(m, 1.7)
        for k in range(3):
            assert np.allclose(conditional_block(m, props, k, k), np.eye(2) / 2)

    def test_conjugation_symmetry(self, generic_model):
        props = propagators(generic_model, 1.1)
        for k in range(3):
            for l in range(3):
                rkl = conditional_block(generic_model, props, k, l)
                rlk = conditional_block(generic_model, props, l, k)
                assert frob(rkl - rlk.conj().T) < 1e-12

    def test_diagonal_blocks_are_density_matrices(self, generic_model):
        props = propagators(generic_model, 0.8)
        for k in range(3):
            rkk = conditional_block(generic_model, props, k, k)
            assert abs(np.trace(rkk) - 1) < 1e-12
            assert np.linalg.eigvalsh(rkk)[0] > -1e-12

    def test_block_factorizes_through_pair_operator(self, generic_model):
        # R_ij = R_ii W_ij = W_ij R_jj
        props = propagators(generic_model, 1.4)
        for i in range(3):
            for j in range(3):
                rij = conditional_block(generic_model, props, i, j)
                rii = conditional_block(generic_model, props, i, i)
                rjj = conditional_block(generic_model, props, j, j)
                wij = pair_operator(props, i, j)
                assert frob(rij - rii @ wij) < 1e-10
                assert frob(rij - wij @ rjj) < 1e-10


class TestJointState:
    def test_fixture_matches_hand_entered_matrix(self):
        m = mixed_qutrit_example()
        state = joint_state(m, propagators(m, 1.0))
        assert np.max(np.abs(state.sigma - pauli_fixture_sigma())) < 1e-15

    def test_time_zero_product_state(self, generic_model):
        state = joint_state(generic_model, propagators(generic_model, 0.0))
        psi = np.outer(generic_model.c, generic_model.c.conj())
        assert np.allclose(state.sigma, np.kron(psi, generic_model.r0))

    def test_density_matrix_invariants(self, generic_model):
        state = joint_state(generic_model, propagators(generic_model, 2.5))
        assert frob(state.sigma - state.sigma.conj().T) < 1e-12
        assert abs(np.trace(state.sigma) - 1) < 1e-10
        assert np.linalg.eigvalsh(state.sigma)[0] > -1e-9

    def test_agrees_with_controlled_unitary_dilation(self, generic_model):
        t = 1.3
        props = propagators(generic_model, t)
        n, mdim = 3, 3
        u = np.zeros((n * mdim, n * mdim), dtype=complex)
        for k in range(n):
            u[k * mdim:(k + 1) * mdim, k * mdim:(k + 1) * mdim] = props.w[k]
        psi = np.outer(generic_model.c, generic_model.c.conj())
        direct = u @ np.kron(psi, generic_model.r0) @ u.conj().T
        state = joint_state(generic_model, props)
        assert np.max(np.abs(state.sigma - direct)) < 1e-10

    def test_populations_conserved(self, generic_model):
        for t in (0.3, 1.9, 4.2):
            state = joint_state(generic_model, propagators(generic_model, t))
            reduced = np.zeros((3, 3), dtype=complex)
            for k in range(3):
                for l in range(3):
                    reduced[k, l] = np.trace(state.block(k, l))
            pops = np.abs(generic_model.c) ** 2
            assert np.max(np.abs(np.diag(reduced).real - pops)) < 1e-10


class TestDecoherenceFactors:
    """The propagators seen through the reduced coherence factors, computed
    by the oracle ``util.decoherence_factors``."""

    def test_all_ones_at_time_zero(self, generic_model):
        d = decoherence_factors(generic_model, propagators(generic_model, 0.0))
        assert np.allclose(d, 1.0)

    def test_diagonal_ones_and_contraction(self, generic_model):
        d = decoherence_factors(generic_model, propagators(generic_model, 1.6))
        assert np.allclose(np.diag(d), 1.0)
        assert np.max(np.abs(d)) <= 1.0 + 1e-12

    def test_fixture_full_dephasing_entry(self):
        m = mixed_qutrit_example()
        d = decoherence_factors(m, propagators(m, 1.0))
        assert abs(d[1, 2]) < 1e-14
        assert abs(d[0, 1]) < 1e-14
