"""``dephasing sweep`` against a per-step reference, on every ensemble family."""

import csv

import numpy as np
import pytest

from dephasing import cli, linalg, model, witnesses
from dephasing.model import EnsembleSpec, Family, random_instance, save_model, validate
from util import sweep_reference

CASES = [(Family.GENERIC, 3, 4), (Family.GENERIC, 2, 3), (Family.COMMUTING, 3, 3),
         (Family.MIXED, 3, 4), (Family.PURE, 4, 3)]


def run_sweep(path, out, steps, t_end=3.0):
    code = cli.main(["sweep", "--model", str(path), "--t-start", "0",
                     "--t-end", repr(t_end), "--steps", str(steps), "--out", str(out)])
    assert code == cli.EXIT_SEPARABLE
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_HEADER
    return rows[1:]


@pytest.mark.parametrize("family,n,m", CASES, ids=lambda v: getattr(v, "value", v))
def test_sweep_matches_per_step_reference(tmp_path, family, n, m):
    spec = EnsembleSpec(seed=31, count=2, n=n, m=m, family=family)
    for index in range(spec.count):
        mdl = validate(random_instance(spec, index))
        path = tmp_path / f"model_{index}.json"
        save_model(mdl, path)
        rows = run_sweep(path, tmp_path / f"sweep_{index}.csv", steps=25)
        ref = sweep_reference(mdl, np.linspace(0.0, 3.0, 25))
        assert [row[-1] for row in rows] == [r[-1] for r in ref]
        got = np.array([[float(x) for x in row[:-1]] for row in rows])
        want = np.array([r[:-1] for r in ref])
        assert np.max(np.abs(got - want)) < 1e-12
        if family is Family.COMMUTING:
            assert {row[-1] for row in rows} == {"separable"}
        else:
            assert rows[0][-1] == "separable"
            assert "entangled" in {row[-1] for row in rows}


def test_eigendecompositions_do_not_grow_with_steps(tmp_path, monkeypatch):
    calls = []
    real = linalg.hermitian_eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (linalg, model, witnesses):
        monkeypatch.setattr(mod, "hermitian_eig", counted)
    spec = EnsembleSpec(seed=5, count=1, n=4, m=5, family=Family.GENERIC)
    path = tmp_path / "model.json"
    save_model(validate(random_instance(spec, 0)), path)
    counts = []
    for steps in (3, 40):
        calls.clear()
        run_sweep(path, tmp_path / "sweep.csv", steps)
        counts.append(len(calls))
    # one for R(0) in validate, one per level for the propagators
    assert counts == [1 + 4, 1 + 4]
