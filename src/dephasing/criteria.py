"""The two commutation-condition families and the separability verdict.

Family 1 ("qubit-like"): [R(0), w_0^dag w_j] = 0 for j = 1..N-1, equivalent
to all conditional environment states R_jj(t) being equal.  Family 2
("cross"): [W_j0, W_l0] = 0 for 0 < l < j < N.  Both families vanishing is
necessary and sufficient for separability, and in that case the state admits
an explicit convex decomposition over a common environment eigenbasis.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .evolution import propagators
from .linalg import simultaneous_diagonalize
from .tolerances import DEFAULT_TOL_COMM

__all__ = [
    "DEFAULT_TOL_COMM",
    "CriterionReport",
    "SeparableDecomposition",
    "NotSeparableError",
    "decide",
    "decide_from_props",
    "build_decomposition",
]


class NotSeparableError(Exception):
    pass


@dataclass(frozen=True)
class CriterionReport:
    t: float
    qubit_like: tuple        # ((j, norm), ...), j = 1..N-1
    cross: tuple             # ((j, l, norm), ...), 0 < l < j < N
    verdict: str             # "separable" | "entangled"
    margin: float            # smallest |norm - threshold| over all records
    witnesses: tuple         # identifiers of failed conditions
    tol_comm: float          # threshold of both families

    @property
    def separable(self):
        return self.verdict == "separable"

    @property
    def max_qubit_like(self):
        return max((norm for _, norm in self.qubit_like), default=0.0)

    @property
    def max_cross(self):
        return max((norm for _, _, norm in self.cross), default=0.0)

    def to_dict(self):
        return {
            "t": self.t,
            "verdict": self.verdict,
            "qubit_like": [{"j": j, "norm": norm} for j, norm in self.qubit_like],
            "cross": [{"j": j, "l": l, "norm": norm} for j, l, norm in self.cross],
            "margin": self.margin,
            "witnesses": list(self.witnesses),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class SeparableDecomposition:
    """The ensemble {p_n, rho_n, |n(t)>} realizing a separable joint state.

    ``phases[i, n]`` is the unimodular diagonal value of W_i0 on basis state
    n (row 0 is all ones); the pure system state attached to environment
    basis state n has amplitudes ``c * phases[:, n]``.
    """

    weights: np.ndarray      # p_n, nonnegative, sums to 1
    env_basis: np.ndarray    # columns |n(t)>
    phases: np.ndarray       # N x M complex, unimodular
    c: np.ndarray            # the model's system amplitudes

    @property
    def system_states(self):
        """The M pure system states, as an (M, N, N) stack."""
        vecs = (self.c[:, None] * self.phases).T
        return vecs[:, :, None] * vecs[:, None, :].conj()

    def reconstruct(self):
        """sigma_sep = (B p) B^dag with B[(i, e), n] = c_i phases[i, n]
        env_basis[e, n]: column n of B is the product state of term n."""
        n, m = self.phases.shape
        b = ((self.c[:, None] * self.phases)[:, None, :]
             * self.env_basis[None, :, :]).reshape(n * m, m)
        return (b * self.weights) @ b.conj().T


@functools.cache
def _cross_index(k):
    """The cross conditions among k = N - 1 relative propagators as two
    read-only zero-based index arrays (j - 1, l - 1), 0 < l < j < N, in
    report order; cached, since every time of a sweep asks for the same k."""
    js, ls = np.tril_indices(k, -1)
    js.flags.writeable = ls.flags.writeable = False
    return js, ls


def _relative(w):
    """U_j = w_0^dag w_j for j = 1..N-1, as one (N-1, M, M) product."""
    return w[0].conj().T @ w[1:]


def _condition_norms(r0, w):
    """The norms of both condition families from an (N, M, M) propagator
    stack: ``(qubit_like, cross)``, with ``cross`` in ``_cross_index`` order.

    Both families are commutators of U_j = w_0^dag w_j: the qubit-like ones
    with R(0), the cross ones among themselves, since W_j0 = w_0 U_j w_0^dag
    and the Frobenius norm is unitarily invariant, so ||[W_j0, W_l0]|| =
    ||[U_j, U_l]||.  Every product U_j U_l comes from one ((N-1)M x M)
    (M x (N-1)M) product of the stack's rows and columns; ``prod[j-1, :,
    l-1, :]`` is U_j U_l.  The inputs are not checked: w comes from
    ``propagators`` and r0 from a validated model.
    """
    u = _relative(w)
    k, m = u.shape[0], u.shape[-1]
    prod = (u.reshape(k * m, m) @ u.transpose(1, 0, 2).reshape(m, k * m))
    prod = prod.reshape(k, m, k, m)
    js, ls = _cross_index(k)
    return (np.linalg.norm(r0 @ u - u @ r0, axis=(-2, -1)),
            np.linalg.norm(prod[js, :, ls] - prod[ls, :, js], axis=(-2, -1)))


def _verdict(qubit_like, cross, tol_comm):
    """The verdict rule: a condition fails when its norm exceeds tol_comm,
    and one failed condition makes the state entangled.

    Returns the verdict and the failed masks of both families.
    """
    failed1, failed2 = qubit_like > tol_comm, cross > tol_comm
    entangled = failed1.any() or failed2.any()
    return "entangled" if entangled else "separable", failed1, failed2


def _report(t, qubit_like, cross, tol_comm):
    """The CriterionReport at time t from the two norm arrays of
    ``_condition_norms``: the records, the failed conditions and the margin."""
    verdict, failed1, failed2 = _verdict(qubit_like, cross, tol_comm)
    js, ls = _cross_index(len(qubit_like))
    pairs = list(zip((js + 1).tolist(), (ls + 1).tolist()))
    witnesses = ([f"qubit_like[{j}]"
                  for j, failed in enumerate(failed1.tolist(), start=1) if failed]
                 + [f"cross[{j},{l}]"
                    for (j, l), failed in zip(pairs, failed2.tolist()) if failed])
    # both families share one threshold: a validated R(0) has ||R(0)||_F <= 1
    distances = np.abs(np.concatenate([qubit_like, cross]) - tol_comm)

    return CriterionReport(
        t=t,
        qubit_like=tuple(enumerate(qubit_like.tolist(), start=1)),
        cross=tuple((j, l, norm) for (j, l), norm in zip(pairs, cross.tolist())),
        verdict=verdict,
        margin=float(distances.min()) if distances.size else float("inf"),
        witnesses=tuple(witnesses),
        tol_comm=tol_comm,
    )


def _require_tol_comm(tol_comm, name="tol_comm"):
    """Raise ValueError unless tol_comm is finite and >= 0: no norm exceeds
    NaN or +inf, and every norm exceeds a negative threshold."""
    if not 0 <= tol_comm < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol_comm!r}")


def decide_from_props(model, props, tol_comm=DEFAULT_TOL_COMM):
    """Render the verdict from already-built propagators; a ``tol_comm``
    that is not finite and >= 0 raises ``ValueError``."""
    _require_tol_comm(tol_comm)
    return _report(props.t, *_condition_norms(model.r0, props.w), tol_comm)


def decide(model, t, tol_comm=DEFAULT_TOL_COMM):
    """Evaluate both condition families at time t and render the verdict."""
    return decide_from_props(model, propagators(model, t), tol_comm=tol_comm)


def build_decomposition(model, props, report):
    """Construct the explicit separable ensemble for a separable verdict.

    Simultaneously diagonalizes R(0) and every U_j = w_0^dag w_j, the
    operators whose commutators the verdict measured.  Since R_00(t) =
    w_0 R(0) w_0^dag and W_j0 = w_0 U_j w_0^dag, the environment basis
    w_0 B (B their common eigenbasis, to within the residual bound of
    ``simultaneous_diagonalize``) diagonalizes R_00(t) and every W_j0: the
    weights are R(0)'s eigenvalues, and each system state is the pure state
    with amplitudes c_i times the per-basis-state phases of U_i.
    """
    if not report.separable:
        raise NotSeparableError(
            "decomposition requires a separable verdict, got entangled")
    n, m = model.n, model.m
    w = props.w
    basis, diagonals = simultaneous_diagonalize(
        [model.r0, *_relative(w)], tol=report.tol_comm)

    weights = np.clip(diagonals[0].real, 0.0, None)
    weights = weights / weights.sum()

    phases = np.ones((n, m), dtype=np.complex128)
    d = np.stack(diagonals[1:])
    phases[1:] = d / np.abs(d)

    return SeparableDecomposition(
        weights=weights,
        env_basis=w[0] @ basis,
        phases=phases,
        c=model.c,
    )
