import json

import numpy as np
import pytest

from dephasing.criteria import decide
from dephasing.linalg import _require_hermitian
from dephasing.model import (
    DephasingModel,
    EnsembleSpec,
    Family,
    ValidationError,
    load_model,
    mixed_qutrit_example,
    model_from_dict,
    model_to_dict,
    random_instance,
    save_model,
    validate,
)
from util import cancelling_model


def make_qutrit_model():
    return DephasingModel(
        n=3, m=2,
        c=np.full(3, 1 / np.sqrt(3), dtype=complex),
        r0=np.eye(2, dtype=complex) / 2,
        h_env=np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex),
        v=(np.zeros((2, 2), dtype=complex),
           np.diag([1.0, -1.0]).astype(complex),
           np.array([[0, 1j], [-1j, 0]], dtype=complex)),
    )


class TestValidate:
    def test_accepts_balanced_qutrit(self):
        assert validate(make_qutrit_model()) is not None

    def test_accepts_degenerate_qubit_amplitudes(self):
        m = DephasingModel(
            n=2, m=2,
            c=np.array([1.0, 0.0], dtype=complex),
            r0=np.eye(2, dtype=complex) / 2,
            h_env=np.zeros((2, 2), dtype=complex),
            v=(np.zeros((2, 2), dtype=complex),) * 2,
        )
        validate(m)

    def test_rejects_bad_trace(self):
        m = make_qutrit_model()
        bad = DephasingModel(n=m.n, m=m.m, c=m.c, r0=m.r0 * 0.9,
                             h_env=m.h_env, v=m.v)
        with pytest.raises(ValidationError) as exc:
            validate(bad)
        assert any(path == "r0" for path, _ in exc.value.errors)

    def test_rejects_unnormalized_amplitudes(self):
        m = make_qutrit_model()
        bad = DephasingModel(n=m.n, m=m.m, c=m.c * 1.01, r0=m.r0,
                             h_env=m.h_env, v=m.v)
        with pytest.raises(ValidationError) as exc:
            validate(bad)
        assert exc.value.errors[0][0] == "c"

    def test_rejects_non_hermitian_coupling(self):
        m = make_qutrit_model()
        v = list(m.v)
        v[1] = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError) as exc:
            validate(DephasingModel(n=m.n, m=m.m, c=m.c, r0=m.r0,
                                    h_env=m.h_env, v=tuple(v)))
        assert any(path == "v[1]" for path, _ in exc.value.errors)

    def test_rejects_non_hermitian_sum_of_hamiltonian_and_coupling(self):
        bad = cancelling_model()
        for k in range(bad.n):   # each term on its own passes
            _require_hermitian(bad.v[k])
        _require_hermitian(bad.h_env)
        with pytest.raises(ValidationError) as exc:
            validate(bad)
        assert [path for path, _ in exc.value.errors] == ["v[0]", "v[1]", "v[2]"]
        assert [reason.split(": ")[:2] for _, reason in exc.value.errors] == [
            [f"h_env + v[{k}]", "not Hermitian"] for k in range(3)]

    def test_rejects_nonunitary_propagator(self):
        ex = mixed_qutrit_example()
        w = list(ex.w)
        w[2] = 2.0 * w[2]
        with pytest.raises(ValidationError) as exc:
            validate(DephasingModel(n=3, m=2, c=ex.c, r0=ex.r0, w=tuple(w)))
        assert any("w[2]" == path for path, _ in exc.value.errors)

    def test_invalid_dimension_stops_before_matrix_checks(self):
        empty = np.zeros((0, 0), dtype=complex)
        bad = DephasingModel(n=3, m=0, c=np.full(3, 1 / np.sqrt(3), complex),
                             r0=empty, h_env=empty, v=(empty,) * 3)
        with pytest.raises(ValidationError) as exc:
            validate(bad)
        assert [path for path, _ in exc.value.errors] == ["m"]

    def test_error_report_is_json_with_paths(self):
        m = make_qutrit_model()
        try:
            validate(DephasingModel(n=m.n, m=m.m, c=m.c, r0=m.r0 * 0.5,
                                    h_env=m.h_env, v=m.v))
        except ValidationError as exc:
            doc = json.loads(exc.to_json())
            assert doc["errors"][0]["path"] == "r0"
        else:
            pytest.fail("expected a validation error")


class TestSerialization:
    def test_round_trip_hamiltonian_mode(self, tmp_path):
        m = make_qutrit_model()
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = validate(load_model(path))
        assert loaded.mode == "hamiltonian"
        assert np.array_equal(loaded.c, m.c)
        assert np.array_equal(loaded.h_env, m.h_env)
        for a, b in zip(loaded.v, m.v):
            assert np.array_equal(a, b)

    def test_round_trip_propagator_mode(self, tmp_path):
        m = mixed_qutrit_example()
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = validate(load_model(path))
        assert loaded.mode == "propagator"
        for a, b in zip(loaded.w, m.w):
            assert np.array_equal(a, b)

    @staticmethod
    def bits(model):
        arrays = [model.c, model.r0] + list(
            (model.h_env,) + model.v if model.mode == "hamiltonian" else model.w)
        return [np.asarray(a).tobytes() for a in arrays]

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_files_load_bit_identically(self, tmp_path, family):
        spec = EnsembleSpec(seed=8, count=2, n=4, m=6, family=family)
        for index in range(spec.count):
            m = validate(random_instance(spec, index))
            path = tmp_path / "model.json"
            save_model(m, path)
            assert self.bits(load_model(path)) == self.bits(m)

    def test_one_matrix_row_per_line(self, tmp_path):
        spec = EnsembleSpec(seed=8, count=1, n=3, m=5)
        m = validate(random_instance(spec, 0))
        path = tmp_path / "model.json"
        save_model(m, path)
        lines = path.read_text().splitlines()
        rows = [line for line in lines if line.lstrip().startswith("[[")]
        # c on its key's line; r0, h_env and 3 couplings one row per line
        assert len(rows) == 5 * (2 + 3)
        assert all(len(json.loads(row.rstrip(","))) == 5 for row in rows)
        assert json.loads(path.read_text()) == model_to_dict(m)

    def test_bytes_reproducible(self, tmp_path):
        spec = EnsembleSpec(seed=8, count=1, n=3, m=5, family=Family.PURE)
        for name in ("a.json", "b.json"):
            save_model(validate(random_instance(spec, 0)), tmp_path / name)
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())

    @pytest.mark.parametrize("make", [make_qutrit_model, mixed_qutrit_example],
                             ids=["hamiltonian", "propagator"])
    def test_files_of_older_versions_still_load(self, tmp_path, make):
        m = make()
        old = tmp_path / "old.json"   # the indented layout written before
        with open(old, "w") as fh:
            json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
            fh.write("\n")
        new = tmp_path / "new.json"
        save_model(m, new)
        assert old.read_bytes() != new.read_bytes()
        assert self.bits(load_model(old)) == self.bits(load_model(new)) == self.bits(m)

    def test_complex_scalars_are_pairs(self):
        doc = model_to_dict(mixed_qutrit_example())
        assert doc["mode"] == "propagator"
        assert doc["w"][2][0][1] == [0.0, 1.0]
        json.dumps(doc)  # must be plain JSON types

    def test_old_epsilon_key_is_ignored(self):
        doc = model_to_dict(make_qutrit_model())
        doc["epsilon"] = [0.0, 1.0, 2.0]
        loaded = validate(model_from_dict(doc))
        assert "epsilon" not in model_to_dict(loaded)
        assert model_to_dict(loaded) == model_to_dict(make_qutrit_model())

    def test_missing_keys_reported_with_paths(self):
        with pytest.raises(ValidationError) as exc:
            model_from_dict({"n": 2, "m": 2})
        paths = [p for p, _ in exc.value.errors]
        assert "c" in paths and "r0" in paths


class TestEnsembles:
    def test_determinism(self):
        spec = EnsembleSpec(seed=42, count=3, n=3, m=3, family=Family.GENERIC)
        a = random_instance(spec, 0)
        b = random_instance(spec, 0)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.h_env, b.h_env)
        assert np.array_equal(a.r0, b.r0)
        for x, y in zip(a.v, b.v):
            assert np.array_equal(x, y)

    def test_mixed_environment_exact(self):
        spec = EnsembleSpec(seed=1, count=2, n=3, m=2, family=Family.MIXED)
        m = random_instance(spec, 1)
        assert np.array_equal(m.r0, np.eye(2) / 2)

    @pytest.mark.parametrize("family", list(Family))
    def test_all_generated_instances_validate(self, family):
        spec = EnsembleSpec(seed=7, count=4, n=3, m=3, family=family)
        for index in range(spec.count):
            validate(random_instance(spec, index))

    def test_commuting_family_separable_on_grid(self):
        spec = EnsembleSpec(seed=13, count=2, n=4, m=3, family=Family.COMMUTING)
        m = validate(random_instance(spec, 0))
        for t in np.linspace(0.0, 4.0, 6):
            report = decide(m, float(t))
            assert report.max_qubit_like < 1e-9
            assert report.max_cross < 1e-9
            assert report.separable

    def test_index_out_of_range(self):
        spec = EnsembleSpec(seed=1, count=2, n=2, m=2)
        with pytest.raises(IndexError):
            random_instance(spec, 2)

    def test_pure_environment_rank_one(self):
        spec = EnsembleSpec(seed=5, count=1, n=2, m=4, family=Family.PURE)
        m = random_instance(spec, 0)
        vals = np.linalg.eigvalsh(m.r0)
        assert np.max(np.abs(vals[:-1])) < 1e-12
        assert vals[-1] == pytest.approx(1.0)
