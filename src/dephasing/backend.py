"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the ``DEPHASING_BACKEND``
environment variable:

* ``auto`` (default) -- use numba if it imports, numpy otherwise
* ``numba``          -- require numba, raise if unavailable
* ``numpy``          -- force the pure-numpy implementations

Eigendecompositions and matrix exponentials are deliberately *not* routed
through numba: they are single LAPACK calls either way.  The kernels here are
the loop-heavy parts: block assembly of the joint density matrix, partial
transposition, and the 3x3 principal-minor grids.
"""

import os

import numpy as np

__all__ = [
    "BACKEND",
    "assemble_joint",
    "partial_transpose_dense",
    "minor_grid_3x3",
    "IMPLEMENTATIONS",
]


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _assemble_joint_np(c, ws, r0):
    """sigma[kM:(k+1)M, lM:(l+1)M] = c_k conj(c_l) w_k r0 w_l^dag.

    With the (N, M, M) stack ``ws`` the rows of A = [c_0 w_0; ...; c_{N-1}
    w_{N-1}] make up all levels at once, and sigma = A r0 A^dag is two
    matrix products.
    """
    n, m = ws.shape[0], r0.shape[0]
    a = (c[:, None, None] * ws).reshape(n * m, m)
    return (a @ r0) @ a.conj().T


def _partial_transpose_np(rho, dim_s, dim_e, transpose_env):
    arr = rho.reshape(dim_s, dim_e, dim_s, dim_e)
    if transpose_env:
        arr = arr.transpose(0, 3, 2, 1)
    else:
        arr = arr.transpose(2, 1, 0, 3)
    return np.ascontiguousarray(arr).reshape(dim_s * dim_e, dim_s * dim_e)


def _minor_grid_np(ci, cj, cl, p, u, x):
    """Closed-form and determinant values of the two-index 3x3 minor class.

    ``p`` are the weights, ``u`` the unimodular diagonal of the pair operator
    diagonal in this basis, ``x`` the matrix elements of the off-basis pair
    operator.  Returns (closed, dets), each an MxM real array; entries with
    k == q are left at zero.
    """
    m = p.shape[0]
    closed = np.zeros((m, m))
    dets = np.zeros((m, m))
    cc = abs(ci * cj * cl) ** 2
    for k in range(m):
        for q in range(m):
            if k == q:
                continue
            closed[k, q] = (-2.0 * cc * p[k] ** 3 * abs(x[k, q]) ** 2
                            * (1.0 - (u[k] * np.conj(u[q])).real))
            a00 = abs(ci) ** 2 * p[k]
            a01 = cj * np.conj(ci) * p[k] * u[k]
            a02 = cl * np.conj(ci) * p[k] * x[k, q]
            a11 = abs(cj) ** 2 * p[k]
            a12 = cl * np.conj(cj) * p[k] * np.conj(u[q]) * x[k, q]
            a22 = abs(cl) ** 2 * p[q]
            det = (a00 * (a11 * a22 - a12 * np.conj(a12))
                   - a01 * (np.conj(a01) * a22 - a12 * np.conj(a02))
                   + a02 * (np.conj(a01) * np.conj(a12) - a11 * np.conj(a02)))
            dets[k, q] = det.real
    return closed, dets


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def _select_backend():
    choice = os.environ.get("DEPHASING_BACKEND", "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"DEPHASING_BACKEND must be auto/numba/numpy, got {choice!r}")
    if choice == "numpy":
        return "numpy", None
    try:
        from numba import njit
    except ImportError:
        if choice == "numba":
            raise
        return "numpy", None
    return "numba", njit


BACKEND, _njit = _select_backend()

if _njit is not None:

    @_njit(cache=True)
    def _assemble_joint_nb(c, ws, r0):  # pragma: no cover - exercised via dispatch
        n = c.shape[0]
        m = r0.shape[0]
        sigma = np.empty((n * m, n * m), dtype=np.complex128)
        for k in range(n):
            wr = np.ascontiguousarray(ws[k]) @ r0
            for l in range(n):
                block = wr @ np.ascontiguousarray(ws[l]).conj().T
                sigma[k * m:(k + 1) * m, l * m:(l + 1) * m] = c[k] * np.conj(c[l]) * block
        return sigma

    @_njit(cache=True)
    def _partial_transpose_nb(rho, dim_s, dim_e, transpose_env):  # pragma: no cover
        out = np.empty_like(rho)
        for s in range(dim_s):
            for e in range(dim_e):
                for s2 in range(dim_s):
                    for e2 in range(dim_e):
                        if transpose_env:
                            out[s * dim_e + e, s2 * dim_e + e2] = \
                                rho[s * dim_e + e2, s2 * dim_e + e]
                        else:
                            out[s * dim_e + e, s2 * dim_e + e2] = \
                                rho[s2 * dim_e + e, s * dim_e + e2]
        return out

    @_njit(cache=True)
    def _minor_grid_nb(ci, cj, cl, p, u, x):  # pragma: no cover
        m = p.shape[0]
        closed = np.zeros((m, m))
        dets = np.zeros((m, m))
        cc = abs(ci * cj * cl) ** 2
        for k in range(m):
            for q in range(m):
                if k == q:
                    continue
                closed[k, q] = (-2.0 * cc * p[k] ** 3 * abs(x[k, q]) ** 2
                                * (1.0 - (u[k] * np.conj(u[q])).real))
                a00 = abs(ci) ** 2 * p[k]
                a01 = cj * np.conj(ci) * p[k] * u[k]
                a02 = cl * np.conj(ci) * p[k] * x[k, q]
                a11 = abs(cj) ** 2 * p[k]
                a12 = cl * np.conj(cj) * p[k] * np.conj(u[q]) * x[k, q]
                a22 = abs(cl) ** 2 * p[q]
                det = (a00 * (a11 * a22 - a12 * np.conj(a12))
                       - a01 * (np.conj(a01) * a22 - a12 * np.conj(a02))
                       + a02 * (np.conj(a01) * np.conj(a12) - a11 * np.conj(a02)))
                dets[k, q] = det.real
        return closed, dets

else:
    _assemble_joint_nb = None
    _partial_transpose_nb = None
    _minor_grid_nb = None


IMPLEMENTATIONS = {
    "numpy": {
        "assemble_joint": _assemble_joint_np,
        "partial_transpose": _partial_transpose_np,
        "minor_grid": _minor_grid_np,
    },
}
if _njit is not None:
    IMPLEMENTATIONS["numba"] = {
        "assemble_joint": _assemble_joint_nb,
        "partial_transpose": _partial_transpose_nb,
        "minor_grid": _minor_grid_nb,
    }


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------

def assemble_joint(c, ws, r0):
    """Assemble the full joint density matrix from amplitudes, propagators
    and the initial environment state."""
    c = np.asarray(c, dtype=np.complex128)
    r0 = np.asarray(r0, dtype=np.complex128)
    ws = np.ascontiguousarray(ws, dtype=np.complex128)
    if BACKEND == "numba":
        return _assemble_joint_nb(c, ws, np.ascontiguousarray(r0))
    return _assemble_joint_np(c, ws, r0)


def partial_transpose_dense(rho, dim_s, dim_e, transpose_env):
    """Partial transpose of a (dim_s*dim_e) square matrix, row index s*dim_e+e."""
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    if BACKEND == "numba":
        return _partial_transpose_nb(rho, dim_s, dim_e, transpose_env)
    return _partial_transpose_np(rho, dim_s, dim_e, transpose_env)


def minor_grid_3x3(ci, cj, cl, p, u, x):
    """Evaluate the full k,q grid of the 3x3 principal-minor class."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.complex128)
    x = np.ascontiguousarray(x, dtype=np.complex128)
    if BACKEND == "numba":
        return _minor_grid_nb(complex(ci), complex(cj), complex(cl), p, u, x)
    return _minor_grid_np(complex(ci), complex(cj), complex(cl), p, u, x)
