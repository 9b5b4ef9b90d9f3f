import json

import numpy as np
import pytest

from dephasing.criteria import (
    NotSeparableError,
    build_decomposition,
    decide,
    decide_from_props,
)
from dephasing.evolution import conditional_block, joint_state, propagators
from dephasing.linalg import commutator_norm, frob
from dephasing.model import (
    DephasingModel,
    EnsembleSpec,
    Family,
    mixed_qutrit_example,
    random_instance,
    validate,
)
from util import rand_unitary, reconstruct_loop


def commuting_model(seed=13, n=4, m=3):
    spec = EnsembleSpec(seed=seed, count=1, n=n, m=m, family=Family.COMMUTING)
    return validate(random_instance(spec, 0))


def generic_model(seed=23, n=3, m=3):
    spec = EnsembleSpec(seed=seed, count=1, n=n, m=m, family=Family.GENERIC)
    return validate(random_instance(spec, 0))


class TestQubitLikeNorms:
    def test_mixed_environment_all_zero(self):
        m = mixed_qutrit_example()
        norms = decide_from_props(m, propagators(m, 1.0)).qubit_like
        assert [j for j, _ in norms] == [1, 2]
        assert all(norm == 0.0 for _, norm in norms)

    def test_time_zero_all_zero(self):
        m = generic_model()
        norms = decide_from_props(m, propagators(m, 0.0)).qubit_like
        assert all(norm < 1e-14 for _, norm in norms)

    def test_equivalent_to_block_difference(self):
        # each norm vanishes iff R_jj(t) = R_00(t)
        m = generic_model(seed=31)
        props = propagators(m, 1.0)
        r00 = conditional_block(m, props, 0, 0)
        for j, norm in decide_from_props(m, props).qubit_like:
            diff = frob(conditional_block(m, props, j, j) - r00)
            assert (norm < 1e-9) == (diff < 1e-9)
            assert norm > 1e-3 and diff > 1e-3  # generic instance: both fail

        cm = commuting_model(seed=37, n=3, m=3)
        cprops = propagators(cm, 1.0)
        c00 = conditional_block(cm, cprops, 0, 0)
        for j, norm in decide_from_props(cm, cprops).qubit_like:
            diff = frob(conditional_block(cm, cprops, j, j) - c00)
            assert norm < 1e-9 and diff < 1e-9


class TestCrossNorms:
    def test_qubit_has_no_cross_conditions(self):
        spec = EnsembleSpec(seed=3, count=1, n=2, m=3, family=Family.GENERIC)
        m = validate(random_instance(spec, 0))
        assert decide_from_props(m, propagators(m, 1.0)).cross == ()

    def test_fixture_single_record(self):
        m = mixed_qutrit_example()
        records = decide_from_props(m, propagators(m, 1.0)).cross
        assert len(records) == 1
        j, l, norm = records[0]
        assert (j, l) == (2, 1)
        assert norm == pytest.approx(2 * np.sqrt(2))

    def test_commuting_family_vanishes(self):
        m = commuting_model()
        records = decide_from_props(m, propagators(m, 1.3)).cross
        assert len(records) == 3  # (N-1)(N-2)/2 for N = 4
        assert all(norm < 1e-9 for _, _, norm in records)

    def test_record_count(self):
        for n in (2, 3, 4, 5):
            m = generic_model(seed=n, n=n, m=2)
            report = decide_from_props(m, propagators(m, 0.5))
            assert len(report.cross) == (n - 1) * (n - 2) // 2
            assert len(report.qubit_like) == n - 1

    def test_stacked_norms_match_pair_by_pair(self):
        m = generic_model(seed=3, n=5, m=4)
        props = propagators(m, 0.9)
        w = props.w
        pair = [w[j] @ w[0].conj().T for j in range(5)]
        cross = [(j, l, commutator_norm(pair[j], pair[l]))
                 for j in range(2, 5) for l in range(1, j)]
        qubit = [(j, commutator_norm(m.r0, w[0].conj().T @ w[j])) for j in range(1, 5)]
        report = decide_from_props(m, props)
        for got, want in ((report.cross, cross), (report.qubit_like, qubit)):
            assert [rec[:-1] for rec in got] == [rec[:-1] for rec in want]
            assert max(abs(a[-1] - b[-1]) for a, b in zip(got, want)) < 1e-13

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (4, 5), (5, 8), (6, 16)])
    def test_relative_propagator_norms_match_pair_operator_loop(self, n, m):
        # ||[U_j, U_l]|| with U_j = w_0^dag w_j equals ||[W_j0, W_l0]||
        rng = np.random.default_rng(n * 100 + m)
        snapshot = DephasingModel(
            n=n, m=m, c=np.full(n, 1 / np.sqrt(n), dtype=complex),
            r0=np.eye(m, dtype=complex) / m,
            w=tuple(rand_unitary(rng, m) for _ in range(n)))
        models = [generic_model(seed=n, n=n, m=m), commuting_model(n=n, m=m),
                  validate(snapshot)]
        for mdl in models:
            props = propagators(mdl, 1.7)
            w = props.w
            pair = [w[j] @ w[0].conj().T for j in range(n)]
            want = [(j, l, commutator_norm(pair[j], pair[l]))
                    for j in range(2, n) for l in range(1, j)]
            got = decide_from_props(mdl, props).cross
            assert [rec[:2] for rec in got] == [rec[:2] for rec in want]
            assert all(abs(a[2] - b[2]) < 1e-14 for a, b in zip(got, want))


class TestDecide:
    def test_fixture_entangled_by_cross_condition_only(self):
        report = decide(mixed_qutrit_example(), 1.0)
        assert report.verdict == "entangled"
        assert report.witnesses == ("cross[2,1]",)
        assert report.max_qubit_like == 0.0

    def test_commuting_family_separable(self):
        for t in (0.4, 1.0, 3.3):
            assert decide(commuting_model(), t).separable

    def test_time_zero_separable(self):
        report = decide(generic_model(), 0.0)
        assert report.separable
        assert report.max_qubit_like < 1e-13
        assert report.max_cross < 1e-13

    def test_both_families_use_the_tolerance_unscaled(self):
        spec = EnsembleSpec(seed=3, count=1, n=3, m=4, family=Family.PURE)
        model = validate(random_instance(spec, 0))
        base = decide(model, 1.0)
        norms = [norm for *_, norm in base.qubit_like + base.cross]
        # the median norm sits exactly on the threshold and must not fail
        for tol in (1e-7, sorted(norms)[len(norms) // 2]):
            report = decide(model, 1.0, tol_comm=tol)
            failed = ([f"qubit_like[{j}]" for j, norm in report.qubit_like
                       if norm > tol]
                      + [f"cross[{j},{l}]" for j, l, norm in report.cross
                         if norm > tol])
            assert report.witnesses == tuple(failed)
            assert report.margin == min(abs(norm - tol) for norm in norms)

    def test_json_round_trip(self):
        report = decide(mixed_qutrit_example(), 1.0)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "entangled"
        assert doc["qubit_like"] == [{"j": 1, "norm": 0.0},
                                     {"j": 2, "norm": 0.0}]
        assert doc["cross"][0]["j"] == 2
        assert doc["witnesses"] == ["cross[2,1]"]
        assert doc["margin"] > 0


class TestConditionRedundancy:
    """The index-0 subsets imply the full condition families."""

    def propagator_set_with_diagonal_pairs(self, rng, n, m):
        # w_j = w_0 D_j with diagonal unitary D_j: the family-1 subset holds
        # for a diagonal R(0) while the w_j stay otherwise generic
        w0 = rand_unitary(rng, m)
        ws = [w0]
        for _ in range(1, n):
            ws.append(w0 @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m))))
        return ws

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 3)])
    def test_family1_subset_implies_all_pairs(self, n, m):
        rng = np.random.default_rng(100 + n)
        ws = self.propagator_set_with_diagonal_pairs(rng, n, m)
        probs = rng.random(m)
        r0 = np.diag(probs / probs.sum()).astype(complex)
        for j in range(1, n):
            assert commutator_norm(r0, ws[0].conj().T @ ws[j]) < 1e-12
        for i in range(n):
            for j in range(n):
                assert commutator_norm(r0, ws[i].conj().T @ ws[j]) < 1e-8

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 4)])
    def test_family2_subset_implies_all_four_index(self, n, m):
        rng = np.random.default_rng(200 + n)
        q = rand_unitary(rng, m)
        w0 = rand_unitary(rng, m)
        ws = [w0]
        for _ in range(1, n):
            d = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            ws.append(((q * d) @ q.conj().T) @ w0)
        pair = lambda i, j: ws[i] @ ws[j].conj().T
        for j in range(2, n):
            for l in range(1, j):
                assert commutator_norm(pair(j, 0), pair(l, 0)) < 1e-12
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert commutator_norm(pair(i, j), pair(k, l)) < 1e-8

    def test_qutrit_single_cross_condition_implies_others(self):
        # for N = 3, [W_10, W_20] = 0 forces the remaining two commutators
        rng = np.random.default_rng(77)
        q = rand_unitary(rng, 4)
        w0 = rand_unitary(rng, 4)
        ws = [w0]
        for _ in range(2):
            d = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            ws.append(((q * d) @ q.conj().T) @ w0)
        pair = lambda i, j: ws[i] @ ws[j].conj().T
        assert commutator_norm(pair(1, 0), pair(2, 0)) < 1e-12
        assert commutator_norm(pair(0, 1), pair(1, 2)) < 1e-8
        assert commutator_norm(pair(2, 0), pair(1, 2)) < 1e-8


class TestDecomposition:
    def test_requires_separable_verdict(self):
        m = mixed_qutrit_example()
        props = propagators(m, 1.0)
        with pytest.raises(NotSeparableError):
            build_decomposition(m, props, decide_from_props(m, props))

    def test_time_zero_recovers_initial_data(self):
        m = generic_model(seed=51)
        props = propagators(m, 0.0)
        report = decide_from_props(m, props)
        dec = build_decomposition(m, props, report)
        assert np.allclose(np.sort(dec.weights),
                           np.sort(np.linalg.eigvalsh(m.r0).clip(0)))
        psi = np.outer(m.c, m.c.conj())
        for rho in dec.system_states:
            assert np.allclose(rho, psi)

    def test_reconstruction_on_commuting_family(self):
        m = commuting_model(seed=19, n=4, m=4)
        for t in (0.5, 1.7):
            props = propagators(m, t)
            report = decide_from_props(m, props)
            dec = build_decomposition(m, props, report)
            sigma = joint_state(m, props).sigma
            assert frob(dec.reconstruct() - sigma) < 1e-8 * max(1, frob(sigma))

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 8), (6, 16), (3, 64)])
    def test_one_product_matches_kron_loop(self, n, m):
        mdl = commuting_model(seed=n * 100 + m, n=n, m=m)
        for t in (0.0, 0.8, 2.9):
            props = propagators(mdl, t)
            dec = build_decomposition(mdl, props, decide_from_props(mdl, props))
            want = reconstruct_loop(mdl.c, dec.weights, dec.env_basis,
                                    dec.phases)
            assert frob(dec.reconstruct() - want) < 1e-13
            for idx, rho in enumerate(dec.system_states):
                vec = mdl.c * dec.phases[:, idx]
                assert np.array_equal(rho, np.outer(vec, vec.conj()))

    def test_states_are_pure_and_normalized(self):
        m = commuting_model(seed=29, n=3, m=3)
        props = propagators(m, 2.2)
        dec = build_decomposition(m, props, decide_from_props(m, props))
        assert dec.weights.sum() == pytest.approx(1.0)
        assert np.all(dec.weights >= 0)
        for rho in dec.system_states:
            assert np.trace(rho).real == pytest.approx(1.0)
            vals = np.linalg.eigvalsh(rho)
            assert vals[-1] == pytest.approx(1.0, abs=1e-9)  # rank one

    def test_qubit_structure(self):
        # N = 2: weights from the conditional environment state, one phase
        # per environment basis state on the off-diagonal
        m = commuting_model(seed=61, n=2, m=3)
        props = propagators(m, 1.1)
        dec = build_decomposition(m, props, decide_from_props(m, props))
        assert dec.phases.shape == (2, 3)
        assert np.allclose(dec.phases[0], 1.0)
        assert np.allclose(np.abs(dec.phases[1]), 1.0)
        for idx, rho in enumerate(dec.system_states):
            expected = m.c[0] * np.conj(m.c[1]) * np.conj(dec.phases[1, idx])
            assert rho[0, 1] == pytest.approx(expected)
