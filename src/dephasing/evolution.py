"""Conditional propagators, pair operators, and the joint density matrix."""

from dataclasses import dataclass

import numpy as np

from . import backend

__all__ = [
    "ConditionalPropagators",
    "JointState",
    "propagators",
    "pair_operator",
    "conditional_block",
    "joint_state",
]


@dataclass(frozen=True)
class ConditionalPropagators:
    """The environment unitaries conditioned on each system level.

    ``w`` is an (N, M, M) array; ``w[k]`` is w_k(t).
    """

    t: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.complex128))


@dataclass(frozen=True)
class JointState:
    t: float
    sigma: np.ndarray
    dims: tuple  # (N, M)

    def block(self, k, l):
        """The environment operator attached to |k><l|, including c_k c_l^*."""
        n, m = self.dims
        return self.sigma[k * m:(k + 1) * m, l * m:(l + 1) * m]


def propagators(model, t):
    """w_k(t) = exp(-i (H_E + V_k) t) for Hamiltonian-mode models.

    Every level's w_k(t) = V_k diag(e^{-i lambda_k t}) V_k^dag comes from
    one stacked product over the model's cached eigendecompositions.

    Propagator-mode models are snapshots at a single instant; their stored
    unitaries are returned for every t.
    """
    if model.mode == "propagator":
        return ConditionalPropagators(t=float(t), w=np.stack(model.w))
    vals, vecs = model.level_spectra
    phased = vecs * np.exp(-1j * t * vals)[:, None, :]
    return ConditionalPropagators(
        t=float(t), w=phased @ vecs.conj().transpose(0, 2, 1))


def pair_operator(props, i, j):
    """W_ij = w_i w_j^dag; unitary, with W_ij = W_ji^dag and W_ii = 1."""
    n = len(props.w)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair indices ({i}, {j}) out of range for {n} levels")
    return props.w[i] @ props.w[j].conj().T


def conditional_block(model, props, k, l):
    """R_kl(t) = w_k R(0) w_l^dag."""
    n = len(props.w)
    if not (0 <= k < n and 0 <= l < n):
        raise IndexError(f"block indices ({k}, {l}) out of range for {n} levels")
    return props.w[k] @ model.r0 @ props.w[l].conj().T


def joint_state(model, props, out=None):
    """The full joint density matrix: block (k, l) is c_k c_l^* R_kl(t).

    With ``out`` (a C-contiguous complex128 (NM, NM) array) sigma is written
    there, and the returned state's ``sigma`` is ``out`` itself; a time loop
    passes the same array at every step.
    """
    sigma = backend.assemble_joint(model.c, props.w, model.r0, out=out)
    return JointState(t=props.t, sigma=sigma, dims=(model.n, model.m))

