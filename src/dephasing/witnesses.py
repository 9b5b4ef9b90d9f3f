"""Independent entanglement oracles.

Two kinds of evidence are produced, both independent of the commutator
criteria: the spectrum of the partially transposed joint state, and three
classes of principal minors of that spectrum's matrix, each evaluated both
through its closed form and through a direct determinant.

Minor classes:

* D -- qutrit-specific 3x3 minors labeled by two environment states
* X -- the same 3x3 structure for any triple of system levels
* Y / Y-tilde -- bordered (M+1)x(M+1) minors for a pair of system levels,
  with a case split on how many weights of the conditional environment state
  vanish (the Y class is non-informative once two or more weights vanish,
  and the Y-tilde class takes over)
"""

import json
from dataclasses import dataclass

import numpy as np

from . import backend
from .criteria import qubit_like_norms
from .evolution import conditional_block, joint_state, pair_operator
from .linalg import hermitian_eig, partial_transpose, simultaneous_diagonalize
from .tolerances import (
    DECOUPLE_CUT,
    DEFAULT_TOL_COMM,
    NEGATIVE_CUT,
    PRECONDITION_TOL,
    ZERO_WEIGHT_CUT,
)

__all__ = [
    "PreconditionFailedError",
    "MinorEvaluation",
    "WitnessScan",
    "pt_spectrum",
    "negativity",
    "minor_D",
    "minor_X",
    "minor_Y",
    "minor_Ytilde",
    "witness_scan",
]


class PreconditionFailedError(Exception):
    pass


@dataclass(frozen=True)
class MinorEvaluation:
    class_tag: str           # "D", "X", "Y", "Ytilde"
    indices: tuple
    closed_form: float
    determinant: float
    informative: bool = True

    def to_dict(self):
        return {
            "class": self.class_tag,
            "indices": list(self.indices),
            "closed_form": self.closed_form,
            "determinant": self.determinant,
        }


@dataclass(frozen=True)
class WitnessScan:
    pt_eigenvalues: np.ndarray
    witnesses: tuple         # MinorEvaluations with negative value, ascending

    @property
    def pt_min_eigenvalue(self):
        return float(self.pt_eigenvalues[0])

    @property
    def negativity(self):
        neg = self.pt_eigenvalues[self.pt_eigenvalues < 0]
        return float(-neg.sum())

    def to_dict(self):
        return {
            "pt_min_eigenvalue": self.pt_min_eigenvalue,
            "negativity": self.negativity,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def pt_spectrum(state, subsystem="system", out=None):
    """Ascending eigenvalues of the partial transpose of the joint state.

    With ``out`` (a C-contiguous complex128 (NM, NM) array) the partial
    transpose is written there instead of into a fresh array.
    """
    n, m = state.dims
    pt = partial_transpose(state.sigma, n, m, subsystem, out=out)
    return np.linalg.eigvalsh(pt)


def negativity(state):
    """Sum of |negative eigenvalues| of the partial transpose."""
    eigs = pt_spectrum(state)
    return float(-eigs[eigs < 0].sum())


def _require_family1(model, props, tol):
    norms = [norm for _, norm in qubit_like_norms(model, props)]
    worst = max(norms, default=0.0)
    if worst > tol:
        raise PreconditionFailedError(
            f"qubit-like norms must vanish for this minor class "
            f"(max {worst:.3e} > {tol:.3e})")


def _x_basis(model, props, i, j, tol):
    """Common eigenbasis data (basis, p, u) of the ordered pair (i, j) for
    the 3x3 minor classes: p are the weights of R_00(t), u the unimodular
    diagonal of W_ji.  Shared by every third level l.
    """
    r00 = conditional_block(model, props, 0, 0)
    w_ji = pair_operator(props, j, i)
    basis, diagonals = simultaneous_diagonalize([r00, w_ji], tol=tol)
    p = np.clip(diagonals[0].real, 0.0, None)
    u = diagonals[1] / np.abs(diagonals[1])
    return basis, p, u


def _x_grids(model, props, i, j, l, basis, p, u):
    """x, the matrix of W_li in the pair's basis, and the closed-form and
    determinant grids of the triple (i, j, l) over environment pairs."""
    x = basis.conj().T @ pair_operator(props, l, i) @ basis
    ci, cj, cl = model.c[i], model.c[j], model.c[l]
    closed, dets = backend.minor_grid_3x3(ci, cj, cl, p, u, x)
    return x, closed, dets


def minor_X(model, props, i, j, l, k, q, tol=DEFAULT_TOL_COMM):
    """3x3 principal minor for system triple (i, j, l), environment pair (k, q).

    k and q label the common eigenbasis of R_00(t) and W_ji(t).  Only
    meaningful when the qubit-like conditions hold; never positive, and
    strictly negative exactly when the cross conditions fail at (k, q).
    """
    if len({i, j, l}) != 3:
        raise ValueError("system indices must be distinct")
    _require_family1(model, props, tol)
    basis, p, u = _x_basis(model, props, i, j, tol)
    x, closed, dets = _x_grids(model, props, i, j, l, basis, p, u)
    if abs(x[k, q]) > PRECONDITION_TOL and abs(p[k] - p[q]) > PRECONDITION_TOL:
        raise PreconditionFailedError(
            f"weights p_{k} and p_{q} differ despite coupling x_{k}{q} != 0; "
            "qubit-like conditions do not actually hold at this tolerance")
    return MinorEvaluation(
        class_tag="X",
        indices=(i, j, l, k, q),
        closed_form=float(closed[k, q]),
        determinant=float(dets[k, q]),
    )


def minor_D(model, props, k, q, tol=DEFAULT_TOL_COMM):
    """The qutrit two-index minor: the X class at system triple (0, 1, 2)."""
    if model.n != 3:
        raise ValueError(f"D-class minors require a qutrit, got N = {model.n}")
    ev = minor_X(model, props, 0, 1, 2, k, q, tol=tol)
    return MinorEvaluation(
        class_tag="D",
        indices=(k, q),
        closed_form=ev.closed_form,
        determinant=ev.determinant,
    )


def _kept_states(p, y):
    """Environment states that survive elimination: those with nonzero weight
    or coupled through ``y`` to some other state.

    Only a state decoupled from every other state is dropped, so dropping it
    changes no other state's test and one pass is exact.
    """
    a = np.abs(y)
    coupling = np.maximum(a, a.T)
    np.fill_diagonal(coupling, 0.0)
    coupled = coupling.max(axis=1, initial=0.0) >= DECOUPLE_CUT
    return np.flatnonzero((p >= ZERO_WEIGHT_CUT) | coupled)


def _y_data(model, props, i, j):
    """Eigenbasis data for the bordered minor classes of the pair (i, j).

    Returns (p, y, kept) after eliminating environment states with zero
    weight that are fully decoupled from the pair operator; the index arrays
    refer to the ascending eigenbasis of R_ii(t).
    """
    r_ii = conditional_block(model, props, i, i)
    vals, vecs = hermitian_eig(r_ii)
    p_full = np.clip(vals, 0.0, None)
    y_full = vecs.conj().T @ pair_operator(props, i, j) @ vecs
    kept = _kept_states(p_full, y_full)
    return p_full[kept], y_full[np.ix_(kept, kept)], kept


def _y_closed_and_det(ci, cj, p, y, n_pos):
    """Exact determinant identity for the bordered Y minor at position n_pos."""
    mdim = p.shape[0]
    prod_except = np.array([np.prod(np.delete(p, k)) for k in range(mdim)])
    total = np.prod(p)
    col_weight = float(np.sum(p * np.abs(y[:, n_pos]) ** 2))
    closed = (abs(ci) ** (2 * mdim) * abs(cj) ** 2
              * (total * col_weight
                 - float(np.sum(prod_except * p[n_pos] ** 2
                                * np.abs(y[n_pos, :]) ** 2))))
    bordered = np.zeros((mdim + 1, mdim + 1), dtype=np.complex128)
    bordered[:mdim, :mdim] = np.diag(abs(ci) ** 2 * p)
    border = np.conj(ci) * cj * p[n_pos] * np.conj(y[n_pos, :])
    bordered[:mdim, mdim] = border
    bordered[mdim, :mdim] = np.conj(border)
    bordered[mdim, mdim] = abs(cj) ** 2 * col_weight
    det = np.linalg.det(bordered).real
    return float(closed), float(det)


def minor_Y(model, props, i, j, n):
    """Bordered principal minor for the pair (i, j), environment state n.

    Indices refer to the ascending eigenbasis of R_ii(t) after eliminating
    decoupled zero-weight environment states.  When two or more weights
    remain zero the whole class vanishes identically and the evaluation is
    flagged non-informative.
    """
    if i == j:
        raise ValueError("system indices must be distinct")
    return _minor_Y_from(model, i, j, n, *_y_data(model, props, i, j))


def _minor_Y_from(model, i, j, n, p, y, kept):
    """``minor_Y`` on the pair data (p, y, kept) returned by ``_y_data``."""
    positions = {state: pos for pos, state in enumerate(kept)}
    if n not in positions:
        raise PreconditionFailedError(
            f"environment state {n} was eliminated as decoupled")
    closed, det = _y_closed_and_det(model.c[i], model.c[j], p, y, positions[n])
    num_zero = int(np.sum(p < ZERO_WEIGHT_CUT))
    return MinorEvaluation(
        class_tag="Y",
        indices=(i, j, n),
        closed_form=closed,
        determinant=det,
        informative=num_zero < 2,
    )


def minor_Ytilde(model, props, i, j, n, r):
    """Replacement minor class when two or more weights of R_ii(t) vanish.

    ``r`` must label a zero-weight state that remains coupled, ``n`` a
    nonzero-weight state, both in the basis of ``minor_Y``; the minor is
    negative iff the pair operator couples them.
    """
    if i == j:
        raise ValueError("system indices must be distinct")
    return _minor_Ytilde_from(model, i, j, n, r, *_y_data(model, props, i, j))


def _minor_Ytilde_from(model, i, j, n, r, p, y, kept):
    """``minor_Ytilde`` on the pair data (p, y, kept) returned by ``_y_data``."""
    positions = {state: pos for pos, state in enumerate(kept)}
    if n not in positions or r not in positions:
        raise PreconditionFailedError(
            "requested environment state was eliminated as decoupled")
    zero_mask = p < ZERO_WEIGHT_CUT
    num_zero = int(zero_mask.sum())
    if num_zero < 2:
        raise PreconditionFailedError(
            f"this class requires >= 2 zero weights, found {num_zero}")
    n_pos, r_pos = positions[n], positions[r]
    if not zero_mask[r_pos]:
        raise PreconditionFailedError(f"state {r} has nonzero weight")
    if zero_mask[n_pos]:
        raise PreconditionFailedError(f"state {n} has zero weight")

    mdim = len(kept)
    nonzero = np.flatnonzero(~zero_mask)
    ci, cj = model.c[i], model.c[j]
    closed = -(abs(ci) ** (2 * (mdim - num_zero + 1)) * abs(cj) ** 2
               * float(np.prod(p[nonzero]))
               * p[n_pos] ** 2 * abs(y[n_pos, r_pos]) ** 2)

    # bordered determinant over the nonzero states plus the single state r
    keep_pos = list(nonzero) + [r_pos]
    d = len(keep_pos)
    bordered = np.zeros((d + 1, d + 1), dtype=np.complex128)
    bordered[:d, :d] = np.diag(abs(ci) ** 2 * p[keep_pos])
    border = np.conj(ci) * cj * p[n_pos] * np.conj(y[n_pos, keep_pos])
    bordered[:d, d] = border
    bordered[d, :d] = np.conj(border)
    bordered[d, d] = abs(cj) ** 2 * float(np.sum(p * np.abs(y[:, n_pos]) ** 2))
    det = float(np.linalg.det(bordered).real)

    return MinorEvaluation(
        class_tag="Ytilde",
        indices=(i, j, n, r),
        closed_form=float(closed),
        determinant=det,
    )


def _scan_pair_minors(model, props, i, j):
    """All negative bordered minors (Y or Y-tilde as applicable) for (i, j),
    evaluated from one eigendecomposition of R_ii(t)."""
    data = _y_data(model, props, i, j)
    p, _, kept = data
    zero_mask = p < ZERO_WEIGHT_CUT
    num_zero = int(zero_mask.sum())
    found = []
    if num_zero >= 2:
        for n_pos in np.flatnonzero(~zero_mask):
            for r_pos in np.flatnonzero(zero_mask):
                ev = _minor_Ytilde_from(model, i, j, int(kept[n_pos]),
                                        int(kept[r_pos]), *data)
                if ev.closed_form < NEGATIVE_CUT:
                    found.append(ev)
    else:
        for n_pos in range(len(kept)):
            ev = _minor_Y_from(model, i, j, int(kept[n_pos]), *data)
            if ev.informative and ev.closed_form < NEGATIVE_CUT:
                found.append(ev)
    return found


def witness_scan(model, props, report):
    """Hunt for negative principal minors matching the report's failure mode.

    A failed qubit-like condition sends the scan to the bordered classes; a
    failure of only the cross conditions sends it to the 3x3 classes.  For an
    entangled verdict the scan is expected to return a negative witness, and
    the partial-transpose spectrum is always attached as a safety net.
    """
    state = joint_state(model, props)
    eigs = pt_spectrum(state, "system")

    family1_failed = any(w.startswith("qubit_like") for w in report.witnesses)
    family2_failed = any(w.startswith("cross") for w in report.witnesses)

    found = []
    if family1_failed:
        for i in range(model.n):
            for j in range(model.n):
                if i != j:
                    found.extend(_scan_pair_minors(model, props, i, j))
    elif family2_failed:
        for i in range(model.n):
            for j in range(model.n):
                if i == j:
                    continue
                basis, p, u = _x_basis(model, props, i, j, report.tol_comm)
                for l in range(model.n):
                    if l in (i, j):
                        continue
                    _, closed, dets = _x_grids(model, props, i, j, l,
                                               basis, p, u)
                    is_d = model.n == 3 and (i, j, l) == (0, 1, 2)
                    # the grid's diagonal k == q is zero, so never selected
                    for k, q in zip(*np.nonzero(closed < NEGATIVE_CUT)):
                        k, q = int(k), int(q)
                        found.append(MinorEvaluation(
                            class_tag="D" if is_d else "X",
                            indices=(k, q) if is_d else (i, j, l, k, q),
                            closed_form=float(closed[k, q]),
                            determinant=float(dets[k, q]),
                        ))

    found.sort(key=lambda ev: (ev.closed_form, ev.indices))
    return WitnessScan(pt_eigenvalues=eigs, witnesses=tuple(found))
