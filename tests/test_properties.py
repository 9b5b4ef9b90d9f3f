"""Invariances of the verdict over seeded random models, drawn with hypothesis.

A global phase on the amplitudes c and a unitary change of environment
basis leave the joint state's entanglement untouched, so they must leave the
verdict and the smallest partial-transpose eigenvalue unchanged; so must
scaling every energy by s and the time by 1/s, which leaves each propagator
exp(-i (H_E + V_k) t) as it was.  Models whose operators all commute must
stay separable at every time.  Draws whose
commutator norms sit within half a threshold of ``tol_comm`` are skipped,
since rounding alone may flip them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dephasing.criteria import decide_from_props
from dephasing.evolution import joint_state, propagators
from dephasing.model import EnsembleSpec, Family, random_instance, validate
from dephasing.witnesses import pt_spectrum
from util import rand_unitary

# the same examples on every run, and nothing written to disk
drawn = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None)

seeds = st.integers(0, 2 ** 32 - 1)
times = st.floats(0.0, 5.0)


@st.composite
def models(draw, families=tuple(Family)):
    spec = EnsembleSpec(seed=draw(seeds), count=1, n=draw(st.integers(2, 4)),
                        m=draw(st.integers(2, 6)),
                        family=draw(st.sampled_from(families)))
    return validate(random_instance(spec, 0))


def evaluate(model, t):
    props = propagators(model, t)
    report = decide_from_props(model, props)
    return report, pt_spectrum(joint_state(model, props))[0]


def assert_same_outcome(model, other, t):
    report, pt_min = evaluate(model, t)
    assume(report.margin > report.tol_comm / 2)
    other_report, other_pt_min = evaluate(validate(other), t)
    assert other_report.verdict == report.verdict
    assert abs(other_pt_min - pt_min) < 1e-9


@drawn
@given(models(), times, st.floats(0.0, 2 * np.pi))
def test_global_phase_on_c_changes_nothing(model, t, phi):
    assert_same_outcome(
        model, dataclasses.replace(model, c=np.exp(1j * phi) * model.c), t)


@drawn
@given(models(), times, seeds)
def test_environment_basis_change_changes_nothing(model, t, seed):
    u = rand_unitary(np.random.default_rng(seed), model.m)

    def rotate(a):
        return u @ a @ u.conj().T

    rotated = dataclasses.replace(
        model, r0=rotate(model.r0), h_env=rotate(model.h_env),
        v=tuple(rotate(vk) for vk in model.v))
    assert_same_outcome(model, rotated, t)


@drawn
@given(models(families=(Family.COMMUTING,)), times)
def test_commuting_models_stay_separable(model, t):
    report, pt_min = evaluate(model, t)
    assert report.separable
    assert pt_min > -1e-10


@pytest.mark.parametrize("family", [Family.GENERIC, Family.COMMUTING, Family.MIXED],
                         ids=lambda f: f.value)
def test_rescaling_energies_against_time_changes_nothing(family):
    for index in range(3):
        model = validate(random_instance(
            EnsembleSpec(seed=41, count=3, n=3, m=6, family=family), index))
        for t in (0.4, 2.5):
            report, pt_min = evaluate(model, t)
            assert report.margin > report.tol_comm / 2
            for s in (1e-6, 1e-3, 1e3, 1e6):
                scaled = validate(dataclasses.replace(
                    model, h_env=s * model.h_env,
                    v=tuple(s * vk for vk in model.v)))
                other_report, other_pt_min = evaluate(scaled, t / s)
                assert other_report.verdict == report.verdict
                assert abs(other_pt_min - pt_min) < 1e-9
