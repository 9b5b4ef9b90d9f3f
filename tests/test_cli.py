import csv
import json

import numpy as np
import pytest

from dephasing import cli
from dephasing.cli import main
from dephasing.linalg import NotHermitianError
from dephasing.model import (
    DephasingModel,
    EnsembleSpec,
    Family,
    mixed_qutrit_example,
    model_to_dict,
    random_instance,
    save_model,
    validate,
)
from util import cancelling_model


@pytest.fixture
def entangled_path(tmp_path):
    path = tmp_path / "fixture.json"
    save_model(mixed_qutrit_example(), path)
    return str(path)


@pytest.fixture
def separable_path(tmp_path):
    spec = EnsembleSpec(seed=13, count=1, n=3, m=3, family=Family.COMMUTING)
    path = tmp_path / "commuting.json"
    save_model(validate(random_instance(spec, 0)), path)
    return str(path)


class TestCheck:
    def test_separable_exit_code(self, separable_path):
        assert main(["check", "--model", separable_path, "--t", "1.0"]) == 0

    def test_entangled_exit_code(self, entangled_path):
        assert main(["check", "--model", entangled_path, "--t", "1.0"]) == 3

    def test_json_format(self, entangled_path, capsys):
        code = main(["check", "--model", entangled_path, "--t", "1.0",
                     "--format", "json"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "entangled"
        assert doc["witnesses"] == ["cross[2,1]"]
        assert doc["pt"]["min_eigenvalue"] == pytest.approx(-1 / 6)
        assert doc["pt"]["negativity"] == pytest.approx(1 / 3)
        assert len(doc["pt"]["eigenvalues"]) == 6

    def test_text_format(self, entangled_path, capsys):
        main(["check", "--model", entangled_path, "--t", "1.0"])
        out = capsys.readouterr().out
        assert "verdict  = entangled" in out
        assert "failed conditions: cross[2,1]" in out

    def test_loose_tolerance_flips_verdict(self, entangled_path):
        code = main(["check", "--model", entangled_path, "--t", "1.0",
                     "--tol-comm", "10.0"])
        assert code == 0

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", "--model", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--model", str(path)]) == 1
        assert capsys.readouterr().err

    def test_invalid_model_reports_path(self, tmp_path, capsys):
        m = mixed_qutrit_example()
        broken = DephasingModel(n=3, m=2, c=m.c, r0=m.r0 * 0.5, w=m.w)
        path = tmp_path / "invalid.json"
        save_model(broken, path)
        assert main(["check", "--model", str(path)]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert any(e["path"] == "r0" for e in doc["errors"])

    def test_model_that_fails_only_in_the_propagators_is_an_error(
            self, tmp_path, capsys):
        path = tmp_path / "cancelling.json"
        save_model(cancelling_model(), path)
        assert main(["check", "--model", str(path), "--t", "1.0"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert {e["path"] for e in json.loads(err)["errors"]} == {
            "v[0]", "v[1]", "v[2]"}

    def test_kernel_error_is_reported_without_traceback(
            self, separable_path, capsys, monkeypatch):
        def failing(model, t):
            raise NotHermitianError("not Hermitian: ||A - A^dag||_F = 1e-3")

        monkeypatch.setattr(cli, "propagators", failing)
        assert main(["check", "--model", separable_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not Hermitian") and "Traceback" not in err

    @pytest.mark.parametrize("override,path", [
        (5, "$"),
        ({"n": None}, "n"),
        ({"m": [2]}, "m"),
        ({"n": 2.7}, "n"),
        ({"n": True}, "n"),
        ({"v": 5}, "v"),
    ], ids=["not-an-object", "n-null", "m-list", "n-float", "n-bool", "v-scalar"])
    def test_malformed_model_reports_path(self, tmp_path, capsys, override, path):
        spec = EnsembleSpec(seed=1, count=1, n=3, m=2, family=Family.GENERIC)
        doc = model_to_dict(random_instance(spec, 0))
        doc = {**doc, **override} if isinstance(override, dict) else override
        model_path = tmp_path / "malformed.json"
        model_path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [e["path"] for e in json.loads(err)["errors"]] == [path]


class TestSweep:
    def test_csv_header_and_rows(self, entangled_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", entangled_path, "--t-start", "0.0",
                     "--t-end", "2.0", "--steps", "5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "max_qubit_like_norm", "max_cross_norm",
                           "min_pt_eig", "negativity", "verdict"]
        assert len(rows) == 6
        assert [r[-1] for r in rows[1:]] == ["entangled"] * 5  # snapshot model
        ts = [float(r[0]) for r in rows[1:]]
        assert np.allclose(ts, np.linspace(0.0, 2.0, 5))

    def test_hamiltonian_model_starts_separable(self, tmp_path):
        spec = EnsembleSpec(seed=5, count=1, n=3, m=2, family=Family.GENERIC)
        path = tmp_path / "generic.json"
        save_model(validate(random_instance(spec, 0)), path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--model", str(path), "--t-start", "0.0",
              "--t-end", "1.0", "--steps", "3", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows[0][-1] == "separable"
        assert float(rows[0][4]) < 1e-12

    def test_deterministic_output(self, entangled_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["sweep", "--model", entangled_path, "--t-start", "0.0",
                  "--t-end", "1.0", "--steps", "4", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_grid(self, entangled_path, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--model", entangled_path, "--t-start", "1.0",
                     "--t-end", "0.0", "--steps", "3", "--out", out]) == 1
        assert main(["sweep", "--model", entangled_path, "--t-start", "0.0",
                     "--t-end", "1.0", "--steps", "1", "--out", out]) == 1
        capsys.readouterr()


class TestExample:
    def test_self_check_passes(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out
        assert "verdict: entangled" in out
        assert "PT eigenvalues:" in out

    def test_prints_scaled_matrices(self, capsys):
        main(["example"])
        out = capsys.readouterr().out
        assert "joint state sigma (times 6):" in out
        assert "partial transpose over the environment (times 6):" in out

    def test_fixture_evaluated_once(self, monkeypatch, capsys):
        calls = []
        real = cli.propagators
        monkeypatch.setattr(cli, "propagators",
                            lambda *a: calls.append(a) or real(*a))
        assert main(["example"]) == 0
        assert len(calls) == 1
        capsys.readouterr()


class TestRandom:
    def test_writes_models_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ensemble"
        code = main(["random", "--seed", "9", "--count", "3", "--n", "3",
                     "--m", "2", "--family", "generic", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.glob("model_*.json"))
        assert files == ["model_0000.json", "model_0001.json",
                         "model_0002.json"]
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "index"
        assert len(rows) == 4
        capsys.readouterr()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["random", "--seed", "11", "--count", "2", "--family",
                  "commuting", "--out", str(out)])
            outs.append(out)
        for fname in ("model_0000.json", "model_0001.json", "summary.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        capsys.readouterr()

    def test_zero_environment_dimension_is_an_error(self, tmp_path, capsys):
        code = main(["random", "--seed", "1", "--count", "2", "--n", "3",
                     "--m", "0", "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [e["path"] for e in json.loads(err)["errors"]] == ["m"]

    @pytest.mark.parametrize("option,value,path", [
        ("--m", "-1", "m"), ("--n", "-1", "n"), ("--m", "0", "m"),
        ("--n", "1", "n"),
    ], ids=["m-negative", "n-negative", "m-zero", "n-one"])
    def test_invalid_dimension_is_reported_before_any_output(
            self, tmp_path, capsys, option, value, path):
        out = tmp_path / "d"
        assert main(["random", "--seed", "1", "--count", "2",
                     f"{option}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [e["path"] for e in json.loads(err)["errors"]] == [path]
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_nonpositive_count(self, tmp_path, capsys, count):
        assert main(["random", "--seed", "1", "--count", count,
                     "--out", str(tmp_path / "d")]) == 1
        out, err = capsys.readouterr()
        assert "wrote" not in out
        assert "Traceback" not in err
        assert "count must be >= 1" in err

    def test_generated_models_load_back(self, tmp_path, capsys):
        out = tmp_path / "ensemble"
        main(["random", "--seed", "2", "--count", "1", "--family", "mixed",
              "--out", str(out)])
        assert main(["check", "--model", str(out / "model_0000.json"),
                     "--t", "0.0"]) == 0
        capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTolComm:
    """A --tol-comm that is not finite and >= 0 decides nothing: NaN and
    +inf pass every condition, a negative value fails every one.  Each
    subcommand ends with exit code 1 and an ``error:`` line before any
    output."""

    @pytest.mark.parametrize("value,shown", [("nan", "nan"), ("inf", "inf"),
                                             ("-inf", "-inf"), ("-1", "-1.0")])
    @pytest.mark.parametrize("command", ["check", "sweep", "example", "random"])
    def test_rejected_by_every_subcommand(self, entangled_path, tmp_path,
                                          capsys, command, value, shown):
        out = tmp_path / "out"
        args = {"check": ["--model", entangled_path, "--t", "1"],
                "sweep": ["--model", entangled_path, "--t-start", "0",
                          "--t-end", "1", "--steps", "3", "--out", str(out)],
                "example": [],
                "random": ["--seed", "1", "--count", "1", "--out", str(out)]}
        assert main([command, *args[command], f"--tol-comm={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --tol-comm must be finite and >= 0, got {shown}\n")
        assert captured.out == ""
        assert not out.exists()

    def test_zero_is_allowed(self, entangled_path):
        assert main(["check", "--model", entangled_path, "--t", "1",
                     "--tol-comm", "0"]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteTimes:
    """A non-finite time is an error: exit 1 and an ``error:`` line naming the
    option, with no warning on the way (RuntimeWarning is an error here)."""

    VALUES = ["inf", "-inf", "nan"]

    def error(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "wrote" not in out
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("value", VALUES)
    def test_check(self, separable_path, capsys, value):
        err = self.error(capsys, ["check", "--model", separable_path,
                                  f"--t={value}"])
        assert err.startswith("error: --t must be finite")

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("option", ["--t-start", "--t-end"])
    def test_sweep(self, separable_path, tmp_path, capsys, option, value):
        bounds = {"--t-start": "0", "--t-end": "1", option: value}
        out = tmp_path / "sweep.csv"
        err = self.error(capsys, [
            "sweep", "--model", separable_path, "--steps", "3",
            "--out", str(out)] + [f"{k}={v}" for k, v in bounds.items()])
        assert err.startswith(f"error: {option} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("value", VALUES)
    def test_random(self, tmp_path, capsys, value):
        out = tmp_path / "d"
        err = self.error(capsys, ["random", "--seed", "1", "--count", "1",
                                  f"--t={value}", "--out", str(out)])
        assert err.startswith("error: --t must be finite")
        assert not out.exists()

    def test_sweep_width_that_overflows(self, separable_path, tmp_path, capsys):
        err = self.error(capsys, [
            "sweep", "--model", separable_path, "--t-start=-1e308",
            "--t-end=1e308", "--steps", "3", "--out", str(tmp_path / "s.csv")])
        assert err.startswith("error: t-end - t-start must be finite")

    def test_finite_time_whose_phase_overflows(self, tmp_path, capsys):
        spec = EnsembleSpec(seed=5, count=1, n=3, m=4, family=Family.GENERIC)
        mdl = validate(random_instance(spec, 0))
        assert 1e308 * float(np.abs(mdl.level_spectra[0]).max()) == np.inf
        path = tmp_path / "generic.json"
        save_model(mdl, path)
        err = self.error(capsys, ["check", "--model", str(path),
                                  "--t", "1e308"])
        assert err.startswith("error: t = 1e+308: ")


class TestMalformedOptions:
    """Option text that argparse cannot parse is an error like any other:
    exit 1 and one ``error:`` line, not argparse's usage text and exit 2."""

    @pytest.mark.parametrize("argv,message", [
        (["check", "--model", "{path}", "--tol-comm=abc"],
         "argument --tol-comm: invalid float value: 'abc'"),
        (["check", "--model", "{path}", "--t", "abc"],
         "argument --t: invalid float value: 'abc'"),
        (["check"], "the following arguments are required: --model"),
        (["check", "--model", "{path}", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["sweep", "--model", "{path}", "--t-start", "0", "--t-end", "1",
          "--steps", "2.5", "--out", "{out}"],
         "argument --steps: invalid int value: '2.5'"),
    ], ids=["tol-comm", "t", "no-model", "format", "steps"])
    def test_exits_1_with_one_error_line(self, entangled_path, tmp_path,
                                         capsys, argv, message):
        out = tmp_path / "sweep.csv"
        argv = [a.format(path=entangled_path, out=out) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dephasing")
