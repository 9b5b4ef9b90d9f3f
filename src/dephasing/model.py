"""Problem-instance data model: validation, JSON I/O and seeded ensembles.

A model is either *Hamiltonian-mode* (environment Hamiltonian ``h_env`` plus
one coupling operator per system level, evolved to any time) or
*propagator-mode* (the conditional unitaries ``w_k`` given directly as a
snapshot at a single instant).  Files are plain JSON with complex scalars as
``[re, im]`` pairs and matrices as nested row-major arrays.
"""

import enum
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import NotHermitianError, _require_hermitian, frob, hermitian_eig
from .tolerances import INPUT_TOL

__all__ = [
    "ValidationError",
    "DephasingModel",
    "Family",
    "EnsembleSpec",
    "validate",
    "random_instance",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
    "mixed_qutrit_example",
]


class ValidationError(Exception):
    """Aggregated invariant violations, each with a field path."""

    def __init__(self, errors):
        self.errors = list(errors)
        msg = "; ".join(f"{path}: {reason}" for path, reason in self.errors)
        super().__init__(msg)

    def to_json(self):
        return json.dumps(
            {"errors": [{"path": p, "reason": r} for p, r in self.errors]},
            indent=2)


@dataclass(frozen=True)
class DephasingModel:
    """A dephasing problem instance.

    Exactly one of (``h_env``, ``v``) or ``w`` is set, depending on ``mode``.
    """

    n: int
    m: int
    c: np.ndarray
    r0: np.ndarray
    h_env: np.ndarray | None = None
    v: tuple | None = None
    w: tuple | None = None

    @property
    def mode(self):
        return "propagator" if self.w is not None else "hamiltonian"

    @cached_property
    def level_spectra(self):
        """Eigendecompositions of H_E + V_k for every level, computed once.

        Returns ``(vals, vecs)`` stacked to shapes (N, M) and (N, M, M), so
        that propagators at any time cost one stacked product.  The model's
        arrays are treated as immutable once this has been read.
        """
        if self.mode != "hamiltonian":
            raise ValueError("propagator-mode models carry no Hamiltonians")
        pairs = [hermitian_eig(self.h_env + vk) for vk in self.v]
        vals = np.stack([vals for vals, _ in pairs])
        vecs = np.stack([vecs for _, vecs in pairs])
        vals.flags.writeable = vecs.flags.writeable = False  # shared by every caller
        return vals, vecs


def _check_matrix(errors, path, a, dim):
    if a is None:
        errors.append((path, "missing"))
        return False
    if a.shape != (dim, dim):
        errors.append((path, f"expected shape ({dim}, {dim}), got {a.shape}"))
        return False
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        errors.append((path, "non-finite entries"))
        return False
    return True


def _check_hermitian(errors, path, a, what=""):
    try:
        _require_hermitian(a)
    except NotHermitianError as exc:
        errors.append((path, f"{what}{exc}"))
        return False
    return True


def _check_dimensions(n, m):
    """Raise ValidationError, paths ``n`` and ``m``, unless N >= 2 and M >= 1."""
    errors = []
    if n < 2:
        errors.append(("n", f"system dimension must be >= 2, got {n}"))
    if m < 1:
        errors.append(("m", f"environment dimension must be >= 1, got {m}"))
    if errors:
        raise ValidationError(errors)


def validate(model):
    """Certify all model invariants; raises ValidationError listing every
    violation with its field path.  Returns the model unchanged on success."""
    # the array checks below assume valid dimensions
    _check_dimensions(model.n, model.m)
    errors = []
    c = np.asarray(model.c)
    if c.shape != (model.n,):
        errors.append(("c", f"expected {model.n} amplitudes, got shape {c.shape}"))
    else:
        s = float(np.sum(np.abs(c) ** 2))
        if abs(s - 1.0) > INPUT_TOL:
            errors.append(("c", f"sum |c_k|^2 = {s!r}, expected 1"))

    if model.mode == "hamiltonian":
        h_ok = (_check_matrix(errors, "h_env", model.h_env, model.m)
                and _check_hermitian(errors, "h_env", model.h_env))
        if model.v is None or len(model.v) != model.n:
            errors.append(("v", f"expected {model.n} coupling operators"))
        else:
            for k, vk in enumerate(model.v):
                if (_check_matrix(errors, f"v[{k}]", vk, model.m)
                        and _check_hermitian(errors, f"v[{k}]", vk) and h_ok):
                    # the propagators decompose the sum, whose norm may be
                    # far smaller than either term's
                    _check_hermitian(errors, f"v[{k}]", model.h_env + vk,
                                     f"h_env + v[{k}]: ")
    else:
        if model.w is None or len(model.w) != model.n:
            errors.append(("w", f"expected {model.n} propagators"))
        else:
            for k, wk in enumerate(model.w):
                if _check_matrix(errors, f"w[{k}]", wk, model.m):
                    dev = frob(wk @ wk.conj().T - np.eye(model.m))
                    if dev > INPUT_TOL * model.m:
                        errors.append(
                            (f"w[{k}]", f"not unitary: ||w w^dag - 1||_F = {dev:.3e}"))

    if _check_matrix(errors, "r0", model.r0, model.m):
        if _check_hermitian(errors, "r0", model.r0):
            tr = complex(np.trace(model.r0))
            if abs(tr - 1.0) > INPUT_TOL:
                errors.append(("r0", f"trace = {tr!r}, expected 1"))
            vals, _ = hermitian_eig(model.r0)
            if vals[0] < -INPUT_TOL:
                errors.append(("r0", f"min eigenvalue {vals[0]:.3e} < 0"))

    if errors:
        raise ValidationError(errors)
    return model


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _encode_complex(a):
    """A complex vector or matrix as nested row-major lists of [re, im]
    pairs of Python floats."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode_matrix(rows, path):
    try:
        a = np.array([[complex(re, im) for re, im in row] for row in rows],
                     dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError([(path, f"malformed matrix: {exc}")]) from exc
    return a


def model_to_dict(model):
    doc = {
        "mode": model.mode,
        "n": model.n,
        "m": model.m,
        "c": _encode_complex(model.c),
        "r0": _encode_complex(model.r0),
    }
    if model.mode == "hamiltonian":
        doc["h_env"] = _encode_complex(model.h_env)
        doc["v"] = [_encode_complex(vk) for vk in model.v]
    else:
        doc["w"] = [_encode_complex(wk) for wk in model.w]
    return doc


def _decode_matrices(items, path):
    if not isinstance(items, list):
        raise ValidationError([(path, "expected a list of matrices")])
    return tuple(_decode_matrix(a, f"{path}[{k}]") for k, a in enumerate(items))


def model_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValidationError([("$", "the document must be a JSON object")])
    errors = [(key, "missing") for key in ("n", "m", "c", "r0") if key not in doc]
    for key in ("n", "m"):
        # bool is a subclass of int, but JSON true/false is no dimension
        if key in doc and (isinstance(doc[key], bool)
                           or not isinstance(doc[key], int)):
            errors.append((key, f"expected an integer, got {json.dumps(doc[key])}"))
    if errors:
        raise ValidationError(errors)
    mode = doc.get("mode", "hamiltonian")
    if mode not in ("hamiltonian", "propagator"):
        raise ValidationError([("mode", f"unknown mode {mode!r}")])
    try:
        c = np.array([complex(re, im) for re, im in doc["c"]], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError([("c", f"malformed amplitudes: {exc}")]) from exc
    kwargs = dict(
        n=doc["n"],
        m=doc["m"],
        c=c,
        r0=_decode_matrix(doc["r0"], "r0"),
    )
    if mode == "hamiltonian":
        if "h_env" not in doc or "v" not in doc:
            raise ValidationError(
                [(k, "missing") for k in ("h_env", "v") if k not in doc])
        kwargs["h_env"] = _decode_matrix(doc["h_env"], "h_env")
        kwargs["v"] = _decode_matrices(doc["v"], "v")
    else:
        if "w" not in doc:
            raise ValidationError([("w", "missing")])
        kwargs["w"] = _decode_matrices(doc["w"], "w")
    # files from older versions may carry per-level system energies under
    # "epsilon"; they never affect a verdict and are ignored
    return DephasingModel(**kwargs)


def _layout(value, depth=0):
    """JSON text of ``value`` with one matrix row per line.

    A list whose items are lists of lists (a matrix of [re, im] pairs, or a
    stack of matrices) gets one item per line; every other value is written
    whole by the C encoder (``json.dump`` with ``indent`` would use the
    pure-Python one).
    """
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_layout(value[key], depth + 1)}"
                 for key in sorted(value)]
        brackets = "{}"
    elif (isinstance(value, list) and value and isinstance(value[0], list)
          and value[0] and isinstance(value[0][0], list)):
        items = [_layout(item, depth + 1) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    pad = " " * depth
    return (brackets[0] + "\n" + ",\n".join(f"{pad} {item}" for item in items)
            + f"\n{pad}" + brackets[1])


def save_model(model, path):
    """Write ``model`` as JSON: sorted keys, complex scalars as [re, im]
    pairs, one matrix row per line.  The bytes depend only on the model."""
    with open(path, "w") as fh:
        fh.write(_layout(model_to_dict(model)) + "\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError([(str(path), f"invalid JSON: {exc}")]) from exc
    return model_from_dict(doc)


# ---------------------------------------------------------------------------
# seeded ensembles
# ---------------------------------------------------------------------------

class Family(str, enum.Enum):
    GENERIC = "generic"          # fully generic Hermitian couplings and r0
    COMMUTING = "commuting"      # everything diagonal in one shared basis
    MIXED = "mixed"              # r0 = 1/M exactly
    PURE = "pure"                # r0 a random pure state


@dataclass(frozen=True)
class EnsembleSpec:
    seed: int
    count: int
    n: int
    m: int
    family: Family = Family.GENERIC


def _random_hermitian(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (g + g.conj().T) / 2


def _random_unitary(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_density(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2


def random_instance(spec, index):
    """Deterministic instance ``index`` of an ensemble; identical
    (spec, index) pairs reproduce bit-for-bit identical models.  Invalid
    dimensions raise ``validate``'s ValidationError before any array is
    drawn."""
    if not 0 <= index < spec.count:
        raise IndexError(f"index {index} out of range for count {spec.count}")
    n, m = spec.n, spec.m
    _check_dimensions(n, m)
    rng = np.random.default_rng([int(spec.seed) & (2 ** 64 - 1), index])
    family = Family(spec.family)

    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c /= np.linalg.norm(c)

    if family is Family.COMMUTING:
        q = _random_unitary(rng, m)
        h_env = q @ np.diag(rng.standard_normal(m)) @ q.conj().T
        v = []
        for _ in range(n):
            vk = q @ np.diag(rng.standard_normal(m)) @ q.conj().T
            v.append((vk + vk.conj().T) / 2)
        probs = rng.random(m)
        probs /= probs.sum()
        r0 = q @ np.diag(probs.astype(complex)) @ q.conj().T
        h_env = (h_env + h_env.conj().T) / 2
        r0 = (r0 + r0.conj().T) / 2
        r0 /= np.trace(r0).real
        return DephasingModel(n=n, m=m, c=c, r0=r0, h_env=h_env, v=tuple(v))

    h_env = _random_hermitian(rng, m)
    v = tuple(_random_hermitian(rng, m) for _ in range(n))
    if family is Family.MIXED:
        r0 = np.eye(m, dtype=np.complex128) / m
    elif family is Family.PURE:
        vec = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vec /= np.linalg.norm(vec)
        r0 = np.outer(vec, vec.conj())
    else:
        r0 = _random_density(rng, m)
    return DephasingModel(n=n, m=m, c=c, r0=r0, h_env=h_env, v=v)


def mixed_qutrit_example():
    """Qutrit coupled to a single-qubit environment, given as a propagator
    snapshot at the instant where the conditional unitaries are the identity
    and two Pauli operators.  The environment starts completely mixed, yet
    the joint state at this instant is entangled."""
    w0 = np.eye(2, dtype=np.complex128)
    w1 = np.diag([1.0 + 0j, -1.0 + 0j])
    w2 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=np.complex128)
    return DephasingModel(
        n=3,
        m=2,
        c=np.full(3, 1.0 / np.sqrt(3.0), dtype=np.complex128),
        r0=np.eye(2, dtype=np.complex128) / 2,
        w=(w0, w1, w2),
    )
