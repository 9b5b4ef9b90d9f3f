"""The two commutation-condition families and the separability verdict.

Family 1 ("qubit-like"): [R(0), w_0^dag w_j] = 0 for j = 1..N-1, equivalent
to all conditional environment states R_jj(t) being equal.  Family 2
("cross"): [W_j0, W_l0] = 0 for 0 < l < j < N.  Both families vanishing is
necessary and sufficient for separability, and in that case the state admits
an explicit convex decomposition over a common environment eigenbasis.
"""

import json
from dataclasses import dataclass

import numpy as np

from .evolution import conditional_block, pair_operator, propagators
from .linalg import commutator_norm, simultaneous_diagonalize
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


def _relative_propagators(props):
    """U_j = w_0^dag w_j for j = 1..N-1, as an (N-1, M, M) stack.

    Both families are commutators of these: the qubit-like ones with R(0),
    the cross ones among themselves, since W_j0 = w_0 U_j w_0^dag and the
    Frobenius norm is unitarily invariant, so ||[W_j0, W_l0]|| =
    ||[U_j, U_l]||.
    """
    w = props.w
    return w[0].conj().T @ w[1:]


def _cross_pairs(n):
    """The cross conditions (j, l), 0 < l < j < n, in report order."""
    return [(j, l) for j in range(2, n) for l in range(1, j)]


def _cross_norms(u, pairs):
    """||[U_j, U_l]||_F for every (j, l) in ``pairs``.

    Every product U_j U_l comes from one ((N-1)M x M) (M x (N-1)M) product
    of the stack's rows and columns; ``prod[j-1, :, l-1, :]`` is U_j U_l.
    """
    k, m = u.shape[0], u.shape[-1]
    if not pairs:
        return np.zeros(0)
    prod = (u.reshape(k * m, m) @ u.transpose(1, 0, 2).reshape(m, k * m))
    prod = prod.reshape(k, m, k, m)
    js, ls = np.array(pairs).T - 1
    return np.linalg.norm(prod[js, :, ls] - prod[ls, :, js], axis=(-2, -1))


def decide_from_props(model, props, tol_comm=DEFAULT_TOL_COMM):
    """Render the verdict from already-built propagators.

    U_j = w_0^dag w_j is formed once and serves both families; the records,
    the failed conditions and the margin come from the two norm arrays.
    """
    u = _relative_propagators(props)
    pairs = _cross_pairs(len(props.w))
    norms1 = commutator_norm(model.r0, u)
    norms2 = _cross_norms(u, pairs)

    # both families share one threshold: a validated R(0) has ||R(0)||_F <= 1
    family1 = tuple(enumerate(norms1.tolist(), start=1))
    family2 = tuple((j, l, norm) for (j, l), norm in zip(pairs, norms2.tolist()))
    witnesses = ([f"qubit_like[{j}]" for j, norm in family1 if norm > tol_comm]
                 + [f"cross[{j},{l}]" for j, l, norm in family2
                    if norm > tol_comm])
    distances = np.abs(np.concatenate([norms1, norms2]) - tol_comm)

    return CriterionReport(
        t=props.t,
        qubit_like=family1,
        cross=family2,
        verdict="separable" if not witnesses else "entangled",
        margin=float(distances.min()) if distances.size else float("inf"),
        witnesses=tuple(witnesses),
        tol_comm=tol_comm,
    )


def decide(model, t, tol_comm=DEFAULT_TOL_COMM):
    """Evaluate both condition families at time t and render the verdict."""
    return decide_from_props(model, propagators(model, t), tol_comm=tol_comm)


def build_decomposition(model, props, report):
    """Construct the explicit separable ensemble for a separable verdict.

    Simultaneously diagonalizes R_00(t) and all W_j0(t); the weights are the
    eigenvalues of R_00(t), and each system state is the pure state whose
    amplitudes are c_i rotated by the per-basis-state phases of W_i0.
    """
    if not report.separable:
        raise NotSeparableError(
            "decomposition requires a separable verdict, got entangled")
    n, m = model.n, model.m
    r00 = conditional_block(model, props, 0, 0)
    ops = [r00] + [pair_operator(props, j, 0) for j in range(1, n)]
    basis, diagonals = simultaneous_diagonalize(ops, tol=report.tol_comm)

    weights = np.clip(diagonals[0].real, 0.0, None)
    weights = weights / weights.sum()

    phases = np.ones((n, m), dtype=np.complex128)
    d = np.stack(diagonals[1:])
    phases[1:] = d / np.abs(d)

    return SeparableDecomposition(
        weights=weights,
        env_basis=basis,
        phases=phases,
        c=model.c,
    )
