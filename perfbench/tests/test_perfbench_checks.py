"""The benchmark's checks must pass on the package's real outputs and fail
on every corrupted copy of them.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dephasing import cli, evolution  # noqa: E402
from dephasing import model as dmodel  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracle_process import OracleProcess  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from tracer import HARNESS, SPAN_NAMES, Tracer  # noqa: E402


def _model(family, n, m, index=0, seed=3):
    spec = dmodel.EnsembleSpec(seed=seed, count=index + 1, n=n, m=m,
                               family=dmodel.Family(family))
    return dmodel.validate(dmodel.random_instance(spec, index))


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------

GRID = np.linspace(0.0, 1.5, 11)
SAMPLED = [0, 4, 9]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    model = _model("generic", 3, 4)
    dmodel.save_model(model, tmp / "model.json")
    code = cli.main(["sweep", "--model", str(tmp / "model.json"), "--t-start", "0",
                     "--t-end", "1.5", "--steps", "11", "--out", str(tmp / "out.csv")])
    assert code == cli.EXIT_SEPARABLE
    return model, (tmp / "out.csv").read_text()


def _edit_field(text, row, col, fn):
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_csv_passes(sweep_csv):
    model, text = sweep_csv
    oracles.check_sweep_csv(text, model, GRID, SAMPLED)


FLIP = {"separable": "entangled", "entangled": "separable"}


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda t: _edit_field(t, 4, 5, FLIP.get), id="flipped-verdict-sampled"),
    pytest.param(lambda t: _edit_field(t, 6, 5, FLIP.get), id="flipped-verdict-unsampled"),
    pytest.param(lambda t: _edit_field(t, 4, 3, lambda x: repr(float(x) + 1e-6)),
                 id="pt-eigenvalue-moved-1e-6"),
    pytest.param(lambda t: _edit_field(t, 9, 4, lambda x: repr(float(x) + 1e-6)),
                 id="negativity-moved-1e-6"),
    pytest.param(lambda t: _edit_field(t, 4, 2, lambda x: repr(float(x) * 1.01)),
                 id="cross-norm-scaled"),
    pytest.param(lambda t: _edit_field(t, 9, 0, lambda x: repr(float(x) + 1e-3)),
                 id="time-shifted"),
    pytest.param(lambda t: "\n".join(t.splitlines()[:-1]) + "\n", id="dropped-row"),
])
def test_sweep_csv_corruptions_fail(sweep_csv, corrupt):
    model, text = sweep_csv
    with pytest.raises(CheckFailed):
        oracles.check_sweep_csv(corrupt(text), model, GRID, SAMPLED)


# ---------------------------------------------------------------------------
# witness scans and decompositions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_output():
    model = _model("mixed", 4, 4)
    return model, workloads.evaluate(model, 1.0)


def test_scan_mixed_passes(mixed_output):
    model, (report, scan) = mixed_output
    assert report.verdict == "entangled" and len(scan.witnesses) > 0
    oracles.check_scan_mixed(model, 1.0, report, scan)


def _moved_eigenvalue(scan, delta=1e-6):
    eigs = np.array(scan.pt_eigenvalues)
    eigs[0] += delta
    return dataclasses.replace(scan, pt_eigenvalues=eigs)


def _scaled_witness(scan, pos, factor):
    ws = list(scan.witnesses)
    ws[pos] = dataclasses.replace(ws[pos], closed_form=ws[pos].closed_form * factor,
                                  determinant=ws[pos].determinant * factor)
    return dataclasses.replace(scan, witnesses=tuple(ws))


def _swapped_indices(scan):
    ws = list(scan.witnesses)
    i, j, l, k, q = ws[0].indices
    ws[0] = dataclasses.replace(ws[0], indices=(i, j, l, q, k))
    return dataclasses.replace(scan, witnesses=tuple(ws))


SCAN_CORRUPTIONS = {
    "dropped-witness": lambda r, s: (r, dataclasses.replace(s, witnesses=s.witnesses[1:])),
    "pt-eigenvalue-moved-1e-6": lambda r, s: (r, _moved_eigenvalue(s)),
    "flipped-verdict": lambda r, s: (dataclasses.replace(r, verdict="separable"), s),
    "witness-value-scaled": lambda r, s: (r, _scaled_witness(s, 3, 1.001)),
    "closed-form-only-changed": lambda r, s: (r, dataclasses.replace(
        s, witnesses=(dataclasses.replace(s.witnesses[0], determinant=0.0),)
        + s.witnesses[1:])),
    "witness-indices-swapped": lambda r, s: (r, _swapped_indices(s)),
    "qubit-like-norm-nonzero": lambda r, s: (dataclasses.replace(
        r, qubit_like=((1, 1e-3),) + r.qubit_like[1:]), s),
}


@pytest.mark.parametrize("name", sorted(SCAN_CORRUPTIONS))
def test_scan_mixed_corruptions_fail(mixed_output, name):
    model, (report, scan) = mixed_output
    with pytest.raises(CheckFailed):
        oracles.check_scan_mixed(model, 1.0, *SCAN_CORRUPTIONS[name](report, scan))


@pytest.fixture(scope="module")
def generic_output():
    model = _model("generic", 3, 4)
    return model, workloads.evaluate(model, 1.0)


def test_certify_entangled_passes(generic_output):
    model, (report, scan) = generic_output
    assert len(scan.witnesses) > 0
    oracles.check_certify_entangled(model, 1.0, report, scan)


CERTIFY_CORRUPTIONS = {
    name: SCAN_CORRUPTIONS[name] for name in (
        "pt-eigenvalue-moved-1e-6", "flipped-verdict", "closed-form-only-changed",
        "dropped-witness")}
CERTIFY_CORRUPTIONS["witness-value-scaled"] = lambda r, s: (r, _scaled_witness(s, 1, 1.001))
CERTIFY_CORRUPTIONS["witness-state-moved"] = lambda r, s: (r, dataclasses.replace(
    s, witnesses=(dataclasses.replace(
        s.witnesses[0], indices=s.witnesses[0].indices[:2] + ((s.witnesses[0].indices[2] + 1) % 4,)),)
    + s.witnesses[1:]))


def test_certify_fixture_has_several_witnesses(generic_output):
    _, (_, scan) = generic_output
    assert len(scan.witnesses) >= 2


@pytest.mark.parametrize("name", sorted(CERTIFY_CORRUPTIONS))
def test_certify_entangled_corruptions_fail(generic_output, name):
    model, (report, scan) = generic_output
    with pytest.raises(CheckFailed):
        oracles.check_certify_entangled(model, 1.0, *CERTIFY_CORRUPTIONS[name](report, scan))


def test_certify_entangled_without_witness_fails(generic_output):
    model, (report, scan) = generic_output
    with pytest.raises(oracles.MissingWitness):
        oracles.check_certify_entangled(
            model, 1.0, report, dataclasses.replace(scan, witnesses=()))


@pytest.fixture(scope="module")
def commuting_output():
    model = _model("commuting", 3, 4)
    return model, workloads.evaluate(model, 1.0)


def test_certify_separable_passes(commuting_output):
    model, (report, decomposition) = commuting_output
    oracles.check_certify_separable(model, 1.0, report, decomposition)


def _reweighted(d, fn):
    return dataclasses.replace(d, weights=fn(np.array(d.weights)))


DECOMPOSITION_CORRUPTIONS = {
    "flipped-verdict": lambda r, d: (dataclasses.replace(r, verdict="entangled"), d),
    "negative-weight": lambda r, d: (r, _reweighted(d, lambda p: p - np.eye(len(p))[0] * (p[0] + 1e-3))),
    "weights-not-normalized": lambda r, d: (r, _reweighted(d, lambda p: p * 1.01)),
    "weights-permuted": lambda r, d: (r, _reweighted(d, lambda p: p[::-1])),
    "basis-rotated": lambda r, d: (r, dataclasses.replace(
        d, env_basis=d.env_basis[:, ::-1])),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CORRUPTIONS))
def test_certify_separable_corruptions_fail(commuting_output, name):
    model, (report, decomposition) = commuting_output
    with pytest.raises(CheckFailed):
        oracles.check_certify_separable(
            model, 1.0, *DECOMPOSITION_CORRUPTIONS[name](report, decomposition))


# ---------------------------------------------------------------------------
# certify inputs and the tracer
# ---------------------------------------------------------------------------

def test_certify_streams_split_on_the_fault(tmp_path):
    wl = workloads.Certify(seed=5, workdir=tmp_path)
    for kind, expect_empty in (("generic", False), ("fault", True)):
        for _ in range(3):
            model = dmodel.random_instance(wl.specs[kind], next(wl.indices[kind]))
            report, scan = workloads.evaluate(model, wl.sizes["t"])
            assert report.verdict == "entangled" and scan.pt_min_eigenvalue < -1e-2
            assert (len(scan.witnesses) == 0) == expect_empty


def test_oracle_process_checks_in_a_child(tmp_path):
    proc = OracleProcess(workloads.Certify, 5, tmp_path)
    try:
        proc.reset()
        inputs = proc.inputs()
        kinds = [kind for kind, _, _ in inputs]
        assert kinds == list(workloads.Certify.ORDER)
        wl = workloads.Certify(5, tmp_path)
        items = wl.prepare(0, [inputs[0], inputs[kinds.index("fault")]])
        outputs = [wl.run(item) for item in items]
        flipped = (dataclasses.replace(outputs[0][0], verdict="separable"), outputs[0][1])
        good, fault = proc.check(items, outputs)
        (bad,) = proc.check(items[:1], [flipped])
    finally:
        proc.close()
    assert good is None
    assert fault is not None and fault[1]
    assert bad is not None and not bad[1]
    assert proc._proc.exitcode == 0


def test_tracer_accounts_for_item_time():
    model = _model("generic", 3, 4)
    tracer = Tracer()
    original = evolution.propagators
    tracer.install()
    try:
        assert evolution.propagators is not original
        times = []
        for item in range(3):
            with tracer.harness_span(item) as span:
                workloads.evaluate(model, 1.0)
            times.append(span[2] - span[1])
    finally:
        tracer.uninstall()
    assert evolution.propagators is original
    calls, selfs = tracer.self_times(dict.fromkeys(range(3), 1.0))
    assert calls[HARNESS] == 3 and calls["evolution.propagators"] == 3
    assert calls["witnesses.minor_Y"] == 3 * 6 * 4
    accounted = sum(selfs[name] for name in SPAN_NAMES) + selfs[HARNESS]
    assert accounted == pytest.approx(sum(times), rel=1e-9)
    assert all(selfs[name] >= 0 for name in selfs)
