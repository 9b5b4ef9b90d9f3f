"""Dense complex matrix kernels.

Everything here operates on plain ``numpy`` complex arrays.  Conventions used
throughout the package: matrices are row-major, and a bipartite index
factorizes as ``r = s * M + e`` with ``s`` the system label and ``e`` the
environment label.
"""

import numpy as np

from .tolerances import DEFAULT_TOL_COMM, DEGENERACY_RTOL, INPUT_TOL

__all__ = [
    "LinalgError",
    "NotHermitianError",
    "NoConvergenceError",
    "DimensionMismatchError",
    "NotCommutingError",
    "frob",
    "hermitian_eig",
    "partial_transpose",
    "commutator_norm",
    "simultaneous_diagonalize",
]


class LinalgError(Exception):
    """Base class for kernel failures."""


class NotHermitianError(LinalgError):
    pass


class NoConvergenceError(LinalgError):
    pass


class DimensionMismatchError(LinalgError):
    pass


class NotCommutingError(LinalgError):
    pass


def frob(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _as_square(a, name="matrix", stacked=False):
    """Validate a square complex matrix, or with ``stacked`` a (..., M, M)
    stack of them, in one pass."""
    a = np.asarray(a, dtype=np.complex128)
    if (a.ndim < 2 or (a.ndim != 2 and not stacked)
            or a.shape[-1] != a.shape[-2]):
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise LinalgError(f"{name} contains non-finite entries")
    return a


def _check_out(out, shape):
    """Require a caller-supplied output buffer to be a C-contiguous
    complex128 array of exactly ``shape``."""
    if (not isinstance(out, np.ndarray) or out.shape != shape
            or out.dtype != np.complex128 or not out.flags.c_contiguous):
        got = (f"{out.dtype} array of shape {out.shape}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise DimensionMismatchError(
            f"out must be a C-contiguous complex128 array of shape {shape}, "
            f"got {got}")


def _require_hermitian(a):
    """Raise NotHermitianError unless ||A - A^dag||_F <= INPUT_TOL *
    max(1, ||A||_F)."""
    dev = frob(a - a.conj().T)
    if dev > INPUT_TOL * max(1.0, frob(a)):
        raise NotHermitianError(f"not Hermitian: ||A - A^dag||_F = {dev:.3e}")


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix.
    """
    a = _as_square(a)
    _require_hermitian(a)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return vals, vecs


def partial_transpose(rho, dim_s, dim_e, subsystem="environment", out=None):
    """Partial transpose of a bipartite matrix with index order r = s*M + e.

    ``subsystem`` selects which tensor factor is transposed: ``"system"``
    swaps the system blocks, ``"environment"`` transposes within each block.
    With ``out`` (a C-contiguous complex128 array of rho's shape, not rho
    itself) the result is written there and ``out`` is returned.
    """
    rho = _as_square(rho, "rho")
    if rho.shape[0] != dim_s * dim_e:
        raise DimensionMismatchError(
            f"rho has dim {rho.shape[0]}, expected {dim_s} * {dim_e}")
    return _partial_transpose(rho, dim_s, dim_e, subsystem, out)


def _partial_transpose(rho, dim_s, dim_e, subsystem, out):
    """``partial_transpose`` without the scan of rho: rho must already be a
    finite complex128 (dim_s dim_e)-square array, such as a joint state's
    sigma."""
    if subsystem not in ("system", "environment"):
        raise ValueError(f"unknown subsystem {subsystem!r}")
    arr = rho.reshape(dim_s, dim_e, dim_s, dim_e)
    if subsystem == "environment":
        arr = arr.transpose(0, 3, 2, 1)
    else:
        arr = arr.transpose(2, 1, 0, 3)
    if out is None:
        return arr.reshape(dim_s * dim_e, dim_s * dim_e)
    _check_out(out, rho.shape)
    np.copyto(out.reshape(arr.shape), arr)
    return out


def commutator_norm(a, b):
    """Frobenius norm of [A, B] = AB - BA: a float for two matrices, an
    array over the broadcast leading axes for (..., M, M) stacks, so one call
    gives the norms of many pairs."""
    a = _as_square(a, "A", stacked=True)
    b = _as_square(b, "B", stacked=True)
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise DimensionMismatchError(
            f"stacks {a.shape} and {b.shape} do not broadcast") from exc
    c = a @ b - b @ a
    if c.ndim == 2:
        return frob(c)
    return np.linalg.norm(c, axis=(-2, -1))


def _hermitian_refiners(ops, tol):
    """Split each normal operator into Hermitian refinement stages."""
    refiners = []
    for op in ops:
        refiners.append((op + op.conj().T) / 2)
        anti = (op - op.conj().T) / (2j)
        if frob(anti) > tol * max(1.0, frob(op)):
            refiners.append(anti)
    return refiners


def _refine(basis, blocks, h):
    """Diagonalize h restricted to each degenerate block, splitting blocks."""
    thresh = DEGENERACY_RTOL * max(1.0, frob(h))
    new_blocks = []
    for blk in blocks:
        if len(blk) == 1:
            new_blocks.append(blk)
            continue
        sub = basis[:, blk].conj().T @ h @ basis[:, blk]
        sub = (sub + sub.conj().T) / 2
        vals, vecs = np.linalg.eigh(sub)
        basis[:, blk] = basis[:, blk] @ vecs
        start = 0
        for i in range(1, len(blk) + 1):
            if i == len(blk) or vals[i] - vals[i - 1] > thresh:
                new_blocks.append(blk[start:i])
                start = i
    return new_blocks


def _candidate_bases(ops, tol):
    """Bases to try, in order: sequential refinement, then the eigenbases of
    four seeded random combinations of the Hermitian refiners."""
    refiners = _hermitian_refiners(ops, tol)
    dim = ops[0].shape[0]
    basis = np.eye(dim, dtype=np.complex128)
    blocks = [np.arange(dim)]
    for h in refiners:
        blocks = _refine(basis, blocks, h)
    yield basis
    rng = np.random.default_rng(0)
    for _ in range(4):
        weights = rng.standard_normal(len(refiners))
        yield np.linalg.eigh(sum(w * h for w, h in zip(weights, refiners)))[1]


def simultaneous_diagonalize(ops, tol=DEFAULT_TOL_COMM):
    """Common eigenbasis of a family of commuting normal operators.

    Candidate bases, in order: sequential refinement (the first operator is
    diagonalized, its degenerate eigenspaces split by the Hermitian and
    anti-Hermitian parts of the others), then eigenbases of four seeded
    random combinations of those parts.  These catch a near-degenerate pair
    that refinement splits at its ``DEGENERACY_RTOL`` gap although a later
    operator mixes it (their commutator, gap times coupling, stays small).
    The first candidate on which every basis^dag op basis is within
    10 tol dim of diagonal is returned, else ``NotCommutingError`` names
    the least residual and the bound.  No commutator is checked.

    Returns ``(basis, diagonals)`` where ``basis`` is unitary and
    ``diagonals[i]`` is the complex diagonal of ``basis^dag ops[i] basis``.
    """
    ops = [_as_square(op, f"ops[{i}]") for i, op in enumerate(ops)]
    if not ops:
        raise ValueError("need at least one operator")
    dim = ops[0].shape[0]
    if any(op.shape[0] != dim for op in ops):
        raise DimensionMismatchError("operators must share a dimension")

    bound = 10.0 * tol * dim
    least = np.inf
    for basis in _candidate_bases(ops, tol):
        rotated = [basis.conj().T @ op @ basis for op in ops]
        diagonals = [np.diag(r).copy() for r in rotated]
        residual = max(frob(r - np.diag(d)) for r, d in zip(rotated, diagonals))
        if residual <= bound:
            return basis, diagonals
        least = min(least, residual)
    raise NotCommutingError(
        f"simultaneous diagonalization residual {least:.3e} "
        f"exceeds bound {bound:.3e}")
