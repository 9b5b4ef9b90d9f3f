"""Kernels that write into caller-supplied buffers, and the CLI loops that
reuse one pair of (NM, NM) buffers for sigma and its partial transpose."""

import numpy as np
import pytest

from dephasing import backend, cli
from dephasing.evolution import joint_state, propagators
from dephasing.linalg import DimensionMismatchError, partial_transpose
from dephasing.model import EnsembleSpec, Family, random_instance, save_model, validate
from dephasing.witnesses import pt_spectrum


def model(n=3, m=4, family=Family.GENERIC, seed=17):
    return validate(random_instance(
        EnsembleSpec(seed=seed, count=1, n=n, m=m, family=family), 0))


def kernels(mdl):
    """(name, fresh(), into(out)) for every kernel that takes ``out``;
    ``into`` returns the array it wrote."""
    props = propagators(mdl, 0.8)
    sigma = joint_state(mdl, props).sigma
    n, m = mdl.n, mdl.m

    def pt_written(out):
        pt_spectrum(joint_state(mdl, props), out=out)
        return out

    return [
        ("assemble_joint",
         lambda: backend.assemble_joint(mdl.c, props.w, mdl.r0),
         lambda out: backend.assemble_joint(mdl.c, props.w, mdl.r0, out=out)),
        ("joint_state",
         lambda: joint_state(mdl, props).sigma,
         lambda out: joint_state(mdl, props, out=out).sigma),
        ("pt_spectrum",
         lambda: partial_transpose(sigma, n, m, "system"),
         pt_written),
    ]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (6, 16)])
def test_writing_into_out_is_bitwise_fresh_allocation(n, m):
    mdl = model(n, m)
    for name, fresh, into in kernels(mdl):
        out = np.full((n * m, n * m), np.nan, dtype=np.complex128)
        got = into(out)
        assert got is out, name
        assert got.tobytes() == fresh().tobytes(), name


def test_pt_spectrum_into_out_gives_the_same_eigenvalues():
    mdl = model(4, 5)
    state = joint_state(mdl, propagators(mdl, 1.3))
    out = np.empty((20, 20), dtype=np.complex128)
    assert np.array_equal(pt_spectrum(state, out=out), pt_spectrum(state))


@pytest.mark.parametrize("bad", [
    np.empty((12, 12), dtype=np.complex64),
    np.empty((12, 12), dtype=np.float64),
    np.empty((12, 11), dtype=np.complex128),
    np.empty((144,), dtype=np.complex128),
    np.empty((12, 12), dtype=np.complex128, order="F"),
    [[0j] * 12] * 12,
], ids=["complex64", "float64", "shape", "flat", "fortran", "list"])
def test_wrong_out_is_rejected(bad):
    mdl = model(3, 4)
    for name, _, into in kernels(mdl):
        with pytest.raises(DimensionMismatchError):
            into(bad)


def record_buffers(monkeypatch):
    """Patch the CLI's joint_state and pt_spectrum to record their ``out``."""
    seen = {"joint_state": [], "pt_spectrum": []}
    real = {"joint_state": cli.joint_state, "pt_spectrum": cli.pt_spectrum}

    def recorder(name):
        def call(*args, out=None, **kwargs):
            seen[name].append(out)
            return real[name](*args, out=out, **kwargs)
        return call

    for name in seen:
        monkeypatch.setattr(cli, name, recorder(name))
    return seen


def test_every_sweep_step_writes_into_the_same_two_arrays(tmp_path, monkeypatch,
                                                           capsys):
    mdl = model(4, 5)
    path = tmp_path / "model.json"
    save_model(mdl, path)
    seen = record_buffers(monkeypatch)
    steps = 17
    assert cli.main(["sweep", "--model", str(path), "--t-start", "0",
                     "--t-end", "2", "--steps", str(steps),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    sigma_outs, pt_outs = seen["joint_state"], seen["pt_spectrum"]
    assert len(sigma_outs) == len(pt_outs) == steps
    assert all(out is sigma_outs[0] for out in sigma_outs)
    assert all(out is pt_outs[0] for out in pt_outs)
    assert sigma_outs[0] is not pt_outs[0]
    assert sigma_outs[0].shape == pt_outs[0].shape == (20, 20)


def test_random_reuses_its_buffers_across_models(tmp_path, monkeypatch, capsys):
    seen = record_buffers(monkeypatch)
    assert cli.main(["random", "--seed", "3", "--count", "4", "--n", "3",
                     "--m", "3", "--out", str(tmp_path / "ens")]) == 0
    capsys.readouterr()
    for outs in seen.values():
        assert len(outs) == 4
        assert all(out is outs[0] for out in outs)
