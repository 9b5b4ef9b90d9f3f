from itertools import permutations, product

import numpy as np
import pytest

from dephasing import witnesses
from dephasing.criteria import decide_from_props
from dephasing.evolution import JointState, joint_state, pair_operator, propagators
from dephasing.linalg import DimensionMismatchError, LinalgError, partial_transpose
from dephasing.model import (
    DephasingModel,
    EnsembleSpec,
    Family,
    mixed_qutrit_example,
    random_instance,
    validate,
)
from dephasing.witnesses import (
    NEGATIVE_CUT,
    PreconditionFailedError,
    minor_D,
    minor_X,
    minor_Y,
    minor_Ytilde,
    pt_spectrum,
    witness_scan,
)
from util import (
    bordered_minors_loop,
    kept_states_loop,
    near_degenerate_model,
    rand_unitary,
)

FIXTURE_PT_EIGS = np.array([-1, -1, 2, 2, 2, 2]) / 6.0


def fixture_props():
    m = mixed_qutrit_example()
    return m, propagators(m, 1.0)


def instance(family, seed=0, n=3, m=3, index=0):
    spec = EnsembleSpec(seed=seed, count=index + 1, n=n, m=m, family=family)
    return validate(random_instance(spec, index))


def one_zero_weight_model():
    """Generic couplings, r0 with exactly one zero eigenvalue."""
    rng = np.random.default_rng(55)
    q = rand_unitary(rng, 3)
    r0 = (q * np.array([0.6, 0.4, 0.0])) @ q.conj().T
    base = instance(Family.GENERIC, seed=60, n=3, m=3)
    return validate(DephasingModel(n=3, m=3, c=base.c,
                                   r0=(r0 + r0.conj().T) / 2,
                                   h_env=base.h_env, v=base.v))


def decoupled_zero_weight_model(weights, seed):
    """A qubit with w_0 = 1 and diagonal r0 whose last state has zero weight
    and is left alone by w_1, a random unitary on the other states.  R_00(t)
    = r0 is diagonal, so its ascending eigenbasis is a permutation of the
    standard basis."""
    m = len(weights)
    w1 = np.eye(m, dtype=complex)
    w1[:-1, :-1] = rand_unitary(np.random.default_rng(seed), m - 1)
    return validate(DephasingModel(
        n=2, m=m, c=np.array([1, 1], dtype=complex) / np.sqrt(2),
        r0=np.diag(weights).astype(complex),
        w=(np.eye(m, dtype=complex), w1)))


def every_lookup(model):
    """(lookup, key) for every valid key of the four public minors; a
    qutrit's X minors at (0, 1, 2) are looked up as its D minors."""
    envs = list(product(range(model.m), repeat=2))
    for i, j in permutations(range(model.n), 2):
        for l in sorted(set(range(model.n)) - {i, j}):
            for k, q in envs:
                if model.n == 3 and (i, j, l) == (0, 1, 2):
                    yield minor_D, (k, q)
                else:
                    yield minor_X, (i, j, l, k, q)
        for n in range(model.m):
            yield minor_Y, (i, j, n)
        for n, r in envs:
            yield minor_Ytilde, (i, j, n, r)


class TestPtSpectrum:
    def test_fixture_eigenvalues(self):
        m, props = fixture_props()
        state = joint_state(m, props)
        eigs = pt_spectrum(state)
        env = np.linalg.eigvalsh(
            partial_transpose(state.sigma, m.n, m.m, "environment"))
        assert np.max(np.abs(env - FIXTURE_PT_EIGS)) < 1e-12
        assert np.max(np.abs(eigs - env)) < 1e-10
        assert witnesses._negativity(eigs) == pytest.approx(1 / 3)

    def test_product_state_spectrum(self):
        m = instance(Family.GENERIC, seed=3)
        state = joint_state(m, propagators(m, 0.0))
        eigs = pt_spectrum(state)
        rho_s = np.outer(m.c, m.c.conj())
        expected = np.sort(np.outer(np.linalg.eigvalsh(rho_s.T),
                                    np.linalg.eigvalsh(m.r0)).ravel())
        assert np.max(np.abs(eigs - expected)) < 1e-10
        assert eigs[0] > -1e-12

    def test_subsystem_spectra_agree(self):
        m = instance(Family.GENERIC, seed=8, n=4, m=3)
        state = joint_state(m, propagators(m, 1.5))
        es = pt_spectrum(state)
        ee = np.linalg.eigvalsh(
            partial_transpose(state.sigma, m.n, m.m, "environment"))
        assert np.max(np.abs(es - ee)) < 1e-10

    @pytest.mark.parametrize("subsystem", ["system", "environment"])
    def test_subsystem_string_is_rejected(self, subsystem):
        # the second parameter is the output buffer: a subsystem name given
        # there raises instead of selecting a transpose
        state = joint_state(*fixture_props())
        with pytest.raises(DimensionMismatchError):
            pt_spectrum(state, subsystem)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_state_raises_linalg_error(self, bad):
        state = joint_state(*fixture_props())
        sigma = state.sigma.copy()
        sigma[1, 1] = sigma[2, 4] = sigma[4, 2] = bad
        with pytest.raises(LinalgError):
            pt_spectrum(JointState(t=state.t, sigma=sigma, dims=state.dims))


class TestMinorD:
    def test_fixture_value(self):
        # pinned by direct determinant evaluation of the fixture
        m, props = fixture_props()
        ev = minor_D(m, props, 0, 1)
        assert ev.closed_form == pytest.approx(-1 / 54)
        assert ev.determinant == pytest.approx(-1 / 54)

    def test_never_positive_and_matches_determinant(self):
        m = instance(Family.MIXED, seed=5, n=3, m=3)
        props = propagators(m, 1.2)
        for k in range(3):
            for q in range(3):
                if k == q:
                    continue
                ev = minor_D(m, props, k, q)
                assert ev.closed_form <= 1e-9
                assert abs(ev.closed_form - ev.determinant) \
                    <= 1e-8 * max(1, abs(ev.determinant))

    def test_requires_qutrit(self):
        m = instance(Family.MIXED, seed=5, n=4, m=2)
        with pytest.raises(ValueError):
            minor_D(m, propagators(m, 1.0), 0, 1)

    def test_requires_family1(self):
        m = instance(Family.GENERIC, seed=9)
        with pytest.raises(PreconditionFailedError):
            minor_D(m, propagators(m, 1.0), 0, 1)

    def test_decoupled_pair_gives_zero(self):
        # propagators diagonal in the basis of a nondegenerate r0: x_kq = 0
        rng = np.random.default_rng(40)
        probs = np.array([0.5, 0.3, 0.2])
        ws = tuple(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
                   for _ in range(3))
        m = validate(DephasingModel(
            n=3, m=3, c=np.full(3, 1 / np.sqrt(3), dtype=complex),
            r0=np.diag(probs).astype(complex), w=ws))
        props = propagators(m, 1.0)
        for k in range(3):
            for q in range(3):
                if k != q:
                    ev = minor_D(m, props, k, q)
                    assert abs(ev.closed_form) < 1e-12
                    assert abs(ev.determinant) < 1e-12


class TestMinorX:
    def test_fixture_negative_for_all_triples(self):
        m, props = fixture_props()
        ev = minor_X(m, props, 0, 1, 2, 0, 1)
        assert ev.closed_form < -1e-3
        assert ev.closed_form == pytest.approx(ev.determinant)

    def test_equal_phases_give_zero(self):
        # all pair operators share one eigenbasis with equal phases: the
        # bracket term vanishes even though couplings are nonzero
        rng = np.random.default_rng(41)
        q = rand_unitary(rng, 2)
        m = validate(DephasingModel(
            n=3, m=2, c=np.full(3, 1 / np.sqrt(3), dtype=complex),
            r0=np.eye(2, dtype=complex) / 2,
            w=(np.eye(2, dtype=complex), q, q)))
        props = propagators(m, 1.0)
        for k, qq in ((0, 1), (1, 0)):
            ev = minor_X(m, props, 0, 1, 2, k, qq)
            assert abs(ev.closed_form) < 1e-12

    def test_distinct_indices_required(self):
        m, props = fixture_props()
        with pytest.raises(ValueError):
            minor_X(m, props, 0, 1, 1, 0, 1)

    def test_agreement_on_mixed_ensembles(self):
        for seed in range(4):
            m = instance(Family.MIXED, seed=seed, n=4, m=3)
            props = propagators(m, 0.9)
            for (i, j, l) in ((0, 1, 2), (1, 3, 2), (2, 0, 3)):
                for k in range(3):
                    for q in range(3):
                        if k == q:
                            continue
                        ev = minor_X(m, props, i, j, l, k, q)
                        assert ev.closed_form <= 1e-9
                        assert abs(ev.closed_form - ev.determinant) \
                            <= 1e-8 * max(1, abs(ev.determinant))


class TestLookupKeys:
    """Each public minor is one entry of its pair's table: an index outside
    the table raises, and none wraps onto another entry."""

    @pytest.mark.parametrize("model,lookup,key", [
        (mixed_qutrit_example(), minor_D, (-1, 0)),
        (mixed_qutrit_example(), minor_D, (0, -1)),
        (mixed_qutrit_example(), minor_D, (2, 0)),
        (mixed_qutrit_example(), minor_X, (0, 1, 2, -1, 0)),
        (mixed_qutrit_example(), minor_X, (0, 1, 2, 0, 2)),
        (instance(Family.GENERIC, seed=23), minor_Y, (0, 1, -1)),
        (instance(Family.GENERIC, seed=23), minor_Y, (0, 1, 3)),
        (instance(Family.PURE, seed=31, m=4), minor_Ytilde, (0, 1, 3, -1)),
        (instance(Family.PURE, seed=31, m=4), minor_Ytilde, (0, 1, 3, 4)),
    ], ids=["D-k=-1", "D-q=-1", "D-k=M", "X-k=-1", "X-q=M", "Y-n=-1",
            "Y-n=M", "Ytilde-r=-1", "Ytilde-r=M"])
    def test_environment_index_outside_the_table(self, model, lookup, key):
        with pytest.raises(PreconditionFailedError, match="no minor at"):
            lookup(model, propagators(model, 1.0), *key)

    @pytest.mark.parametrize("lookup,key", [
        (minor_X, (-1, 0, 1, 0, 1)),
        (minor_X, (0, 1, 3, 0, 1)),
        (minor_Y, (-1, 0, 0)),
        (minor_Y, (0, 3, 0)),
        (minor_Ytilde, (0, -1, 1, 0)),
    ], ids=["X-i=-1", "X-l=N", "Y-i=-1", "Y-j=N", "Ytilde-j=-1"])
    def test_system_index_outside_the_levels(self, lookup, key):
        m, props = fixture_props()
        with pytest.raises(ValueError, match="distinct levels in 0..2"):
            lookup(m, props, *key)


class TestStateElimination:
    @staticmethod
    def kept(p, y):
        return list(witnesses._kept_states(p, y))

    @staticmethod
    def kept_ref(p, y):
        return kept_states_loop(p, y, witnesses.ZERO_WEIGHT_CUT,
                                witnesses.DECOUPLE_CUT)

    def test_matches_iterative_elimination(self):
        rng = np.random.default_rng(0)
        levels = np.array([0.0, 1e-13, 1e-11, 0.3])
        for _ in range(2000):
            m = int(rng.integers(1, 7))
            p = np.where(rng.random(m) < 0.6, 0.0, rng.random(m))
            p[rng.random(m) < 0.2] = 1e-13
            y = rng.choice(levels, size=(m, m), p=[0.6, 0.1, 0.1, 0.2])
            y = y * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, m)))
            assert self.kept(p, y) == self.kept_ref(p, y), (p, y)

    def test_zero_weight_pair_coupled_to_each_other_is_kept(self):
        p = np.array([0.5, 0.0, 0.0, 0.5, 0.0])
        y = np.diag(np.ones(5, dtype=complex))
        y[1, 2] = 0.3
        assert self.kept(p, y) == self.kept_ref(p, y) == [0, 1, 2, 3]

    def test_one_sided_coupling_keeps_state(self):
        p = np.array([0.0, 1.0])
        y = np.array([[1.0, 0.0], [0.2, 1.0]], dtype=complex)
        assert self.kept(p, y) == self.kept_ref(p, y) == [0, 1]


class TestMinorY:
    def test_commuting_pair_all_zero(self):
        m = instance(Family.COMMUTING, seed=21, n=3, m=3)
        props = propagators(m, 1.4)
        for n in range(3):
            ev = minor_Y(m, props, 0, 1, n)
            assert abs(ev.closed_form) < 1e-10
            assert abs(ev.determinant) < 1e-10

    def test_generic_pair_has_negative_minor(self):
        m = instance(Family.GENERIC, seed=23, n=3, m=3)
        props = propagators(m, 1.0)
        values = [minor_Y(m, props, 0, 1, n).closed_form for n in range(3)]
        assert min(values) < -1e-6

    def test_closed_form_matches_determinant(self):
        for seed in range(5):
            m = instance(Family.GENERIC, seed=seed, n=3, m=4)
            props = propagators(m, 0.7)
            for i, j in ((0, 1), (2, 0)):
                for n in range(4):
                    ev = minor_Y(m, props, i, j, n)
                    assert abs(ev.closed_form - ev.determinant) \
                        <= 1e-8 * max(1, abs(ev.determinant))

    def test_single_zero_weight_case(self):
        m = one_zero_weight_model()
        props = propagators(m, 1.0)
        values = []
        for n in range(3):
            ev = minor_Y(m, props, 0, 1, n)
            assert abs(ev.closed_form - ev.determinant) \
                <= 1e-8 * max(1, abs(ev.determinant))
            values.append(ev.closed_form)
        assert min(values) < -1e-9  # coupled zero state forces entanglement

    def test_two_zero_weights_refused(self):
        # the Y class vanishes identically there; Y-tilde takes over
        m = instance(Family.PURE, seed=31, n=3, m=3)
        props = propagators(m, 1.0)
        for n in range(3):
            with pytest.raises(PreconditionFailedError):
                minor_Y(m, props, 0, 1, n)
        assert minor_Ytilde(m, props, 0, 1, 2, 0).class_tag == "Ytilde"

    def test_eliminated_state_refused(self):
        # r0 = diag(0.6, 0.4, 0): the zero-weight state sorts first and is
        # decoupled, so it is eliminated and the other two keep the Y class
        m = decoupled_zero_weight_model([0.6, 0.4, 0.0], seed=43)
        props = propagators(m, 1.0)
        with pytest.raises(PreconditionFailedError):
            minor_Y(m, props, 0, 1, 0)
        for n in (1, 2):
            assert minor_Y(m, props, 0, 1, n).indices == (0, 1, n)


class TestMinorYtilde:
    def test_pure_environment_negative_and_matches_determinant(self):
        m = instance(Family.PURE, seed=31, n=3, m=4)
        props = propagators(m, 1.0)
        scan = witness_scan(m, props, decide_from_props(m, props))
        tags = {w.class_tag for w in scan.witnesses}
        assert tags == {"Ytilde"}
        for w in scan.witnesses:
            assert w.closed_form < 0
            assert abs(w.closed_form - w.determinant) \
                <= 1e-8 * max(1, abs(w.determinant))
        assert scan.pt_min_eigenvalue < -1e-10

    def test_zero_coupling_gives_zero(self):
        # block-diagonal propagators never mix the occupied state with the
        # empty sector
        c = np.array([1, 1], dtype=complex) / np.sqrt(2)
        w_mix = np.eye(3, dtype=complex)
        w_mix[1:, 1:] = rand_unitary(np.random.default_rng(42), 2)
        m = validate(DephasingModel(
            n=2, m=3, c=c, r0=np.diag([1.0, 0.0, 0.0]).astype(complex),
            w=(np.eye(3, dtype=complex), w_mix)))
        props = propagators(m, 1.0)
        # ascending eigenbasis of R_00(t): the occupied state sorts last
        for r in (0, 1):
            ev = minor_Ytilde(m, props, 0, 1, 2, r)
            assert abs(ev.closed_form) < 1e-12
            assert abs(ev.determinant) < 1e-12

    def test_precondition_errors(self):
        m = instance(Family.GENERIC, seed=12, n=3, m=3)
        props = propagators(m, 1.0)
        with pytest.raises(PreconditionFailedError):
            minor_Ytilde(m, props, 0, 1, 0, 1)  # full-rank r0: no zero sector

    def test_weight_roles_enforced(self):
        # pure R_00(t): zero weights at positions 0..2, the occupied state 3
        m = instance(Family.PURE, seed=31, n=3, m=4)
        props = propagators(m, 1.0)
        assert minor_Ytilde(m, props, 0, 1, 3, 0).class_tag == "Ytilde"
        with pytest.raises(PreconditionFailedError):
            minor_Ytilde(m, props, 0, 1, 0, 1)  # zero-weight n
        with pytest.raises(PreconditionFailedError):
            minor_Ytilde(m, props, 0, 1, 3, 3)  # nonzero-weight r

    def test_eliminated_state_refused(self):
        # r0 = diag(1, 0, 0, 0): standard states 1, 2, 3 sort to positions
        # 0, 1, 2 and state 0 to 3; position 2 is decoupled and eliminated,
        # leaving two coupled zero weights
        m = decoupled_zero_weight_model([1.0, 0.0, 0.0, 0.0], seed=44)
        props = propagators(m, 1.0)
        with pytest.raises(PreconditionFailedError):
            minor_Ytilde(m, props, 0, 1, 3, 2)
        for r in (0, 1):
            ev = minor_Ytilde(m, props, 0, 1, 3, r)
            assert ev.closed_form < NEGATIVE_CUT


class TestWitnessScan:
    def test_fixture_finds_cross_class_witness(self):
        m, props = fixture_props()
        scan = witness_scan(m, props, decide_from_props(m, props))
        assert scan.witnesses
        assert scan.witnesses[0].class_tag in ("D", "X")
        assert scan.witnesses[0].closed_form < 0
        assert scan.pt_min_eigenvalue == pytest.approx(-1 / 6)
        assert scan.negativity == pytest.approx(1 / 3)

    def test_separable_instance_empty(self):
        m = instance(Family.COMMUTING, seed=2, n=3, m=3)
        props = propagators(m, 1.0)
        scan = witness_scan(m, props, decide_from_props(m, props))
        assert scan.witnesses == ()
        assert scan.pt_min_eigenvalue >= -1e-10

    def test_family1_violation_finds_bordered_witness(self):
        for seed in range(5):
            m = instance(Family.GENERIC, seed=seed, n=3, m=3)
            props = propagators(m, 1.0)
            report = decide_from_props(m, props)
            assert report.verdict == "entangled"
            scan = witness_scan(m, props, report)
            assert scan.witnesses
            assert scan.witnesses[0].class_tag in ("Y", "Ytilde")
            assert scan.pt_min_eigenvalue < -1e-10

    @pytest.mark.parametrize("family,seed", [(Family.GENERIC, 3), (Family.PURE, 31)])
    def test_bordered_scan_matches_single_minors(self, family, seed, monkeypatch):
        m = instance(family, seed=seed, n=3, m=4)
        props = propagators(m, 1.0)
        report = decide_from_props(m, props)
        calls = []
        real = witnesses.hermitian_eig

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(witnesses, "hermitian_eig", counted)
        scan = witness_scan(m, props, report)
        assert len(calls) == m.n  # one per level i, shared by its pairs
        monkeypatch.undo()
        assert scan.witnesses
        for w in scan.witnesses:
            lookup = minor_Y if w.class_tag == "Y" else minor_Ytilde
            assert lookup(m, props, *w.indices) == w

    @pytest.mark.parametrize("model", [
        instance(Family.GENERIC, seed=3, n=3, m=4),
        one_zero_weight_model(),
        instance(Family.PURE, seed=31, n=3, m=4),
        decoupled_zero_weight_model([1.0, 0.0, 0.0, 0.0], seed=44),
    ], ids=["generic", "one-zero-weight", "pure", "eliminated"])
    def test_pair_tables_match_per_minor_loop(self, model):
        props = propagators(model, 1.0)
        for i in range(model.n):
            p, vecs = witnesses._level_eig(model, props, i)
            for j in range(model.n):
                if i == j:
                    continue
                table = witnesses._y_table(model, props, i, j, p, vecs)
                y = vecs.conj().T @ pair_operator(props, i, j) @ vecs
                ref = bordered_minors_loop(
                    model.c[i], model.c[j], p, y, i, j,
                    witnesses.ZERO_WEIGHT_CUT, witnesses.DECOUPLE_CUT)
                assert {key: (ev.class_tag, ev.closed_form, ev.determinant)
                        for key, ev in table.items()} == ref
                assert all(ev.indices == key for key, ev in table.items())

    @pytest.mark.parametrize("model,classes", [
        (mixed_qutrit_example(), {"D", "X"}),
        (instance(Family.MIXED, seed=5, n=4, m=4), {"X"}),
        (instance(Family.GENERIC, seed=3, n=3, m=4), {"Y"}),
        (instance(Family.PURE, seed=31, n=3, m=4), {"Ytilde"}),
    ], ids=["fixture", "mixed", "generic", "pure"])
    def test_scan_holds_every_negative_lookup(self, model, classes):
        # the other direction of the single-lookup tests: nothing the public
        # lookups find below the cut is missing from the scan
        props = propagators(model, 1.0)
        expected = []
        for lookup, key in every_lookup(model):
            try:
                ev = lookup(model, props, *key)
            except PreconditionFailedError:
                continue
            if ev.closed_form < NEGATIVE_CUT:
                expected.append(ev)
        assert {ev.class_tag for ev in expected} == classes
        expected.sort(key=lambda ev: (ev.closed_form, ev.indices))
        scan = witness_scan(model, props, decide_from_props(model, props))
        assert scan.witnesses == tuple(expected)

    def test_x_scan_of_a_near_degenerate_r0(self):
        # R(0)'s gap of 1.2e-9 is above DEGENERACY_RTOL, so refinement
        # splits it, while every W_ji mixes its eigenvectors; the qubit-like
        # norms are still within tol, so the scan takes the X path, and it
        # must find what it finds for the exactly degenerate R(0)
        scans = []
        for gap in (0.0, 1.2e-9):
            m = near_degenerate_model(gap, ("x", "y"))
            props = propagators(m, 1.0)
            report = decide_from_props(m, props)
            assert report.max_qubit_like <= report.tol_comm < report.max_cross
            scans.append(witness_scan(m, props, report).witnesses)
        exact, near = scans
        assert len(near) == len(exact) > 0
        assert sorted(w.class_tag for w in near) == sorted(
            w.class_tag for w in exact)
        assert np.allclose([w.closed_form for w in near],
                           [w.closed_form for w in exact], rtol=0, atol=1e-11)
        for w in near:
            assert w.closed_form == pytest.approx(w.determinant, abs=1e-15)

    def test_x_scan_diagonalizes_once_per_pair(self, monkeypatch):
        m = instance(Family.MIXED, seed=5, n=4, m=4)
        props = propagators(m, 1.0)
        report = decide_from_props(m, props)
        assert report.max_qubit_like <= report.tol_comm < report.max_cross
        calls = []
        real = witnesses.simultaneous_diagonalize

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(witnesses, "simultaneous_diagonalize", counted)
        scan = witness_scan(m, props, report)
        assert len(calls) == m.n * (m.n - 1)  # one per ordered pair (i, j)
        monkeypatch.undo()
        assert scan.witnesses
        for w in scan.witnesses:
            assert w.class_tag == "X"
            single = minor_X(m, props, *w.indices)
            assert (single.closed_form, single.determinant) == \
                (w.closed_form, w.determinant)

    def test_serialization(self):
        m, props = fixture_props()
        scan = witness_scan(m, props, decide_from_props(m, props))
        doc = scan.to_dict()
        assert doc["pt_min_eigenvalue"] == pytest.approx(-1 / 6)
        assert doc["witnesses"][0]["class"] in ("D", "X")
        assert set(doc["witnesses"][0]) == {"class", "indices",
                                            "closed_form", "determinant"}
