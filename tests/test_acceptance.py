"""End-to-end acceptance checks.

Each test prints a single PASS line on success; a failure shows up as a
regular pytest failure.  Run with ``pytest -v tests/test_acceptance.py``.
"""

import ast
import importlib
import re
import time
from pathlib import Path

import numpy as np
import pytest

from dephasing.criteria import build_decomposition, decide_from_props
from dephasing.evolution import joint_state, propagators
from dephasing.linalg import commutator_norm, frob, partial_transpose
from dephasing.model import (
    EnsembleSpec,
    Family,
    mixed_qutrit_example,
    random_instance,
    validate,
)
from dephasing.witnesses import minor_X, witness_scan
from util import pauli_fixture_sigma, rand_unitary

TIME_GRID = (0.0, 0.6, 1.1, 1.7, 2.3)
ROOT = Path(__file__).resolve().parents[1]


def _families_grid():
    """(family, N, M, models): every small size, and larger sizes at fewer
    models each."""
    for family in Family:
        for n in (2, 3, 4):
            for m in (2, 3, 4):
                yield family, n, m, 6
        for n in (5, 6):
            for m in (8, 12, 16):
                yield family, n, m, 2


def _evaluate(model, t):
    props = propagators(model, t)
    report = decide_from_props(model, props)
    state = joint_state(model, props)
    eigs = np.linalg.eigvalsh(
        partial_transpose(state.sigma, model.n, model.m, "system"))
    return props, report, state, eigs


def test_golden_qutrit_fixture():
    start = time.perf_counter()
    model = validate(mixed_qutrit_example())
    props, report, state, eigs = _evaluate(model, 1.0)
    elapsed = time.perf_counter() - start
    expected = np.array([-1, -1, 2, 2, 2, 2]) / 6.0
    assert np.max(np.abs(eigs - expected)) < 1e-10
    assert report.verdict == "entangled"
    assert all(norm < 1e-12 for _, norm in report.qubit_like)
    assert elapsed < 1.0
    print(f"PASS golden qutrit fixture: PT eigenvalues {{-1/6 x2, 1/3 x4}}, "
          f"entangled, qubit-like norms < 1e-12, {elapsed:.3f}s")


def test_fixture_joint_state_entrywise():
    model = validate(mixed_qutrit_example())
    sigma = joint_state(model, propagators(model, 1.0)).sigma
    dev = np.max(np.abs(sigma - pauli_fixture_sigma()))
    assert dev < 1e-12
    print(f"PASS fixture joint state matches the hand-entered 6x6 matrix "
          f"entrywise (max dev {dev:.1e})")


def test_verdicts_agree_with_partial_transpose_oracle():
    start = time.perf_counter()
    instances = 0
    pop_dev = 0.0
    for family, n, m, count in _families_grid():
        spec = EnsembleSpec(seed=1000 + 10 * n + m, count=count,
                            n=n, m=m, family=family)
        for index in range(spec.count):
            model = validate(random_instance(spec, index))
            instances += 1
            for t in TIME_GRID:
                props, report, state, eigs = _evaluate(model, t)
                if report.separable:
                    assert eigs[0] >= -1e-10, (family, n, m, index, t)
                    dec = build_decomposition(model, props, report)
                    err = frob(dec.reconstruct() - state.sigma)
                    assert err < 1e-8, (family, n, m, index, t, err)
                else:
                    assert eigs[0] < -1e-10, (family, n, m, index, t, eigs[0])
                diag = np.array([np.trace(state.block(k, k)).real
                                 for k in range(n)])
                pop_dev = max(pop_dev, np.max(np.abs(diag - np.abs(model.c) ** 2)))
    elapsed = time.perf_counter() - start
    assert instances >= 200
    assert elapsed < 120.0
    assert pop_dev < 1e-10
    print(f"PASS verdict/oracle agreement on {instances} instances x "
          f"{len(TIME_GRID)} times ({elapsed:.1f}s); separable verdicts "
          f"reconstruct to 1e-8, entangled verdicts have PT eig < -1e-10")


def test_minor_closed_forms_match_determinants():
    worst_rel = 0.0
    worst_pos = -np.inf
    evaluated = 0
    # 3x3 classes on instances where the qubit-like conditions hold
    for seed in range(6):
        spec = EnsembleSpec(seed=seed, count=1, n=3, m=3, family=Family.MIXED)
        model = validate(random_instance(spec, 0))
        props = propagators(model, 1.0 + 0.2 * seed)
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    if len({i, j, l}) != 3:
                        continue
                    for k in range(3):
                        for q in range(3):
                            if k == q:
                                continue
                            ev = minor_X(model, props, i, j, l, k, q)
                            evaluated += 1
                            worst_pos = max(worst_pos, ev.closed_form)
                            worst_rel = max(worst_rel,
                                            abs(ev.closed_form - ev.determinant)
                                            / max(1.0, abs(ev.determinant)))
    # bordered classes on instances where a qubit-like condition fails
    for family in (Family.GENERIC, Family.PURE):
        for seed in range(6):
            spec = EnsembleSpec(seed=100 + seed, count=1, n=3, m=3,
                                family=family)
            model = validate(random_instance(spec, 0))
            props = propagators(model, 0.9)
            report = decide_from_props(model, props)
            scan = witness_scan(model, props, report)
            assert scan.witnesses, (family, seed)
            for w in scan.witnesses:
                evaluated += 1
                worst_rel = max(worst_rel,
                                abs(w.closed_form - w.determinant)
                                / max(1.0, abs(w.determinant)))
    assert worst_rel < 1e-8
    assert worst_pos < 1e-9
    print(f"PASS {evaluated} minors: closed forms match determinants "
          f"(worst {worst_rel:.1e}), no 3x3 minor above +1e-9 "
          f"(max {worst_pos:.1e})")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "bordered Y minors scale like a product of M weights and lie above the "
    "absolute NEGATIVE_CUT, so these entangled states get no witness"))
def test_entangled_generic_states_get_a_witness_at_larger_m():
    empty = []
    for m in (10, 12):
        spec = EnsembleSpec(seed=1, count=16, n=3, m=m, family=Family.GENERIC)
        for index in range(spec.count):
            model = validate(random_instance(spec, index))
            props, report, state, eigs = _evaluate(model, 1.0)
            # a failed premise is a real failure, not the expected one
            if report.separable or eigs[0] >= -1e-10:
                pytest.fail(f"M = {m}, model {index} is not entangled")
            if not witness_scan(model, props, report).witnesses:
                empty.append((m, index))
    assert not empty, f"entangled (M, model) without a witness: {empty}"


def test_condition_family_reductions():
    worst = 0.0
    for n in (3, 4, 5):
        rng = np.random.default_rng(300 + n)
        m = 3
        # index-0 qubit-like subset -> all pairwise commutators vanish
        w0 = rand_unitary(rng, m)
        ws = [w0] + [w0 @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
                     for _ in range(1, n)]
        probs = rng.random(m)
        r0 = np.diag(probs / probs.sum()).astype(complex)
        for j in range(1, n):
            assert commutator_norm(r0, ws[0].conj().T @ ws[j]) < 1e-12
        for i in range(n):
            for j in range(n):
                norm = commutator_norm(r0, ws[i].conj().T @ ws[j])
                worst = max(worst, norm)
        # index-0 cross subset -> all four-index commutators vanish
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
                        worst = max(worst,
                                    commutator_norm(pair(i, j), pair(k, l)))
    assert worst < 1e-8
    print(f"PASS condition-family reductions up to N = 5 "
          f"(worst implied norm {worst:.1e})")


def test_qubit_verdict_matches_ppt_oracle():
    checked = 0
    for family in Family:
        for m in (2, 3):
            spec = EnsembleSpec(seed=400 + m, count=4, n=2, m=m, family=family)
            for index in range(spec.count):
                model = validate(random_instance(spec, index))
                for t in TIME_GRID:
                    props, report, state, eigs = _evaluate(model, t)
                    assert report.cross == ()
                    assert len(report.qubit_like) == 1
                    assert report.separable == (eigs[0] >= -1e-10), \
                        (family, m, index, t)
                    checked += 1
    print(f"PASS qubit verdicts: single commutator condition, empty cross "
          f"family, agrees with the PPT oracle on {checked} cases")


def test_mixed_environment_can_entangle_qutrit():
    found = None
    spec = EnsembleSpec(seed=500, count=8, n=3, m=2, family=Family.MIXED)
    for index in range(spec.count):
        model = validate(random_instance(spec, index))
        for t in TIME_GRID[1:]:
            props, report, state, eigs = _evaluate(model, t)
            if report.verdict == "entangled":
                assert eigs[0] < -1e-10
                found = (index, t, eigs[0])
                break
        if found:
            break
    assert found is not None
    index, t, eig = found
    print(f"PASS completely mixed two-level environment entangles with a "
          f"qutrit: instance {index} at t = {t} has PT eigenvalue {eig:.3e}")


def test_population_conservation():
    worst = 0.0
    for family, n, m, _ in _families_grid():
        spec = EnsembleSpec(seed=600 + 10 * n + m, count=2,
                            n=n, m=m, family=family)
        for index in range(spec.count):
            model = validate(random_instance(spec, index))
            for t in TIME_GRID:
                state = joint_state(model, propagators(model, t))
                diag = np.array([np.trace(state.block(k, k)).real
                                 for k in range(n)])
                worst = max(worst, np.max(np.abs(diag - np.abs(model.c) ** 2)))
    assert worst < 1e-10
    print(f"PASS population conservation: max deviation of the reduced-system "
          f"diagonal from |c_k|^2 is {worst:.1e}")


def test_readme_library_overview_runs():
    # the block's expression lines end in "# ..., <expected value>"
    readme = (ROOT / "README.md").read_text()
    overview = readme[readme.index("## Library overview"):]
    block = re.search(r"```python\n(.*?)```", overview, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            continue
        value = eval(expr, namespace)
        expected = eval(comment.rsplit(",", 1)[-1])
        if isinstance(expected, str):
            assert value == expected
        else:
            assert abs(value - expected) <= 1e-12, (code, value, expected)
        checked.append(expected)
    assert checked == ["entangled", -1 / 6, -1 / 54]
    print(f"PASS README library overview: {len(checked)} commented values")


def test_traced_names_resolve():
    # perfbench/tracer.py wraps these (module, function) pairs by name; a
    # refactor that moves or renames one breaks every traced benchmark run
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    assert traced
    for module, name in traced:
        fn = getattr(importlib.import_module(f"dephasing.{module}"), name, None)
        assert callable(fn), f"dephasing.{module}.{name}"
    print(f"PASS {len(traced)} traced names resolve in dephasing")
