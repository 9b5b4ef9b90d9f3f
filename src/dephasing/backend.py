"""The two array kernels behind joint-state assembly and the 3x3 minor grid.

Both are plain numpy: the assembly is two matrix products, the grid one
broadcast over the environment pair (k, q).  Eigendecompositions stay in
``linalg`` as single LAPACK calls.
"""

import numpy as np

__all__ = ["assemble_joint", "minor_grid_3x3"]


def assemble_joint(c, ws, r0):
    """Joint density matrix from amplitudes, propagators and R(0):
    sigma[kM:(k+1)M, lM:(l+1)M] = c_k conj(c_l) w_k r0 w_l^dag.

    With the (N, M, M) stack ``ws`` the rows of A = [c_0 w_0; ...; c_{N-1}
    w_{N-1}] make up all levels at once, and sigma = A r0 A^dag is two
    matrix products.
    """
    c = np.asarray(c, dtype=np.complex128)
    r0 = np.asarray(r0, dtype=np.complex128)
    ws = np.asarray(ws, dtype=np.complex128)
    n, m = ws.shape[0], r0.shape[0]
    a = (c[:, None, None] * ws).reshape(n * m, m)
    return (a @ r0) @ a.conj().T


def minor_grid_3x3(ci, cj, cl, p, u, x):
    """Closed-form and determinant values of the two-index 3x3 minor class.

    ``p`` are the weights, ``u`` the unimodular diagonal of the pair operator
    diagonal in this basis, ``x`` the matrix elements of the off-basis pair
    operator.  Returns (closed, dets), each an MxM real array indexed by the
    environment pair (k, q); the diagonal k == q is zero.
    """
    ci, cj, cl = complex(ci), complex(cj), complex(cl)
    p = np.asarray(p, dtype=np.float64)
    u = np.asarray(u, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    pk, pq = p[:, None], p[None, :]
    uk, uq = u[:, None], u[None, :]

    cc = abs(ci * cj * cl) ** 2
    closed = (-2.0 * cc * pk ** 3 * np.abs(x) ** 2
              * (1.0 - (uk * np.conj(uq)).real))
    a00 = abs(ci) ** 2 * pk
    a01 = cj * np.conj(ci) * pk * uk
    a02 = cl * np.conj(ci) * pk * x
    a11 = abs(cj) ** 2 * pk
    a12 = cl * np.conj(cj) * pk * np.conj(uq) * x
    a22 = abs(cl) ** 2 * pq
    dets = (a00 * (a11 * a22 - a12 * np.conj(a12))
            - a01 * (np.conj(a01) * a22 - a12 * np.conj(a02))
            + a02 * (np.conj(a01) * np.conj(a12) - a11 * np.conj(a02))).real
    np.fill_diagonal(closed, 0.0)
    np.fill_diagonal(dets, 0.0)
    return closed, dets
