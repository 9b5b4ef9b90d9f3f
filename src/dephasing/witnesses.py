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
  vanish (the Y class vanishes identically once two or more weights vanish,
  and the Y-tilde class takes over)
"""

import json
from dataclasses import dataclass

import numpy as np

from . import backend
from .criteria import decide_from_props
from .evolution import conditional_block, joint_state, pair_operator
from .linalg import (
    LinalgError,
    NoConvergenceError,
    _partial_transpose,
    hermitian_eig,
    simultaneous_diagonalize,
)
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
        return _negativity(self.pt_eigenvalues)

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
    transpose is written there instead of into a fresh array.  sigma is not
    scanned for finiteness, since ``joint_state`` builds it from unitaries
    and a validated model; a non-finite spectrum raises ``LinalgError``.
    """
    n, m = state.dims
    pt = _partial_transpose(state.sigma, n, m, subsystem, out)
    try:
        eigs = np.linalg.eigvalsh(pt)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    if not np.isfinite(eigs).all():
        raise LinalgError("partial-transpose spectrum has non-finite entries")
    return eigs


def _negativity(eigs):
    """Sum of |negative eigenvalues| of a partial-transpose spectrum."""
    return float(-eigs[eigs < 0].sum())


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


def minor_X(model, props, i, j, l, k, q):
    """3x3 principal minor for system triple (i, j, l), environment pair (k, q).

    k and q label the common eigenbasis of R_00(t) and W_ji(t).  Only
    meaningful when the qubit-like conditions hold; never positive, and
    strictly negative exactly when the cross conditions fail at (k, q).
    """
    if len({i, j, l}) != 3:
        raise ValueError("system indices must be distinct")
    worst = decide_from_props(model, props).max_qubit_like
    if worst > DEFAULT_TOL_COMM:
        raise PreconditionFailedError(
            f"qubit-like norms must vanish for this minor class "
            f"(max {worst:.3e} > {DEFAULT_TOL_COMM:.3e})")
    basis, p, u = _x_basis(model, props, i, j, DEFAULT_TOL_COMM)
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


def minor_D(model, props, k, q):
    """The qutrit two-index minor: the X class at system triple (0, 1, 2)."""
    if model.n != 3:
        raise ValueError(f"D-class minors require a qutrit, got N = {model.n}")
    ev = minor_X(model, props, 0, 1, 2, k, q)
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


def _level_eig(model, props, i):
    """Weights (clipped at zero) and ascending eigenbasis of R_ii(t), shared
    by every pair (i, j)."""
    vals, vecs = hermitian_eig(conditional_block(model, props, i, i))
    return np.clip(vals, 0.0, None), vecs


def _bordered_det(ci, cj, p, y, n_pos, cols):
    """Determinant of diag(|c_i|^2 p) over the states ``cols``, bordered by
    row n_pos of the pair operator."""
    d = len(cols)
    bordered = np.zeros((d + 1, d + 1), dtype=np.complex128)
    bordered[:d, :d] = np.diag(abs(ci) ** 2 * p[cols])
    border = np.conj(ci) * cj * p[n_pos] * np.conj(y[n_pos, cols])
    bordered[:d, d] = border
    bordered[d, :d] = np.conj(border)
    bordered[d, d] = abs(cj) ** 2 * float(np.sum(p * np.abs(y[:, n_pos]) ** 2))
    return float(np.linalg.det(bordered).real)


def _y_closed(ci, cj, p, y, n_pos):
    """Exact determinant identity for the bordered Y minor at position n_pos."""
    mdim = p.shape[0]
    prod_except = np.array([np.prod(np.delete(p, k)) for k in range(mdim)])
    total = np.prod(p)
    col_weight = float(np.sum(p * np.abs(y[:, n_pos]) ** 2))
    return float(abs(ci) ** (2 * mdim) * abs(cj) ** 2
                 * (total * col_weight
                    - float(np.sum(prod_except * p[n_pos] ** 2
                                   * np.abs(y[n_pos, :]) ** 2))))


def _pair_minors(model, props, i, j, p_full, vecs):
    """Every bordered minor of the pair (i, j), keyed by its indices, from
    (p_full, vecs) = ``_level_eig`` of level i.

    After decoupled zero-weight states are eliminated, the table holds Y at
    every kept n while fewer than two weights vanish, else Y-tilde at every
    nonzero-weight n and zero-weight r.
    """
    y_full = vecs.conj().T @ pair_operator(props, i, j) @ vecs
    kept = _kept_states(p_full, y_full)
    p, y = p_full[kept], y_full[np.ix_(kept, kept)]
    ci, cj = model.c[i], model.c[j]
    zero_mask = p < ZERO_WEIGHT_CUT
    num_zero = int(zero_mask.sum())
    table = {}
    if num_zero < 2:
        cols = np.arange(len(kept))
        for n_pos in cols:
            key = (i, j, int(kept[n_pos]))
            table[key] = MinorEvaluation(
                "Y", key, _y_closed(ci, cj, p, y, n_pos),
                _bordered_det(ci, cj, p, y, n_pos, cols))
        return table
    nonzero = np.flatnonzero(~zero_mask)
    scale = (abs(ci) ** (2 * (len(kept) - num_zero + 1)) * abs(cj) ** 2
             * float(np.prod(p[nonzero])))
    for n_pos in nonzero:
        for r_pos in np.flatnonzero(zero_mask):
            # bordered over the nonzero states plus the single state r
            key = (i, j, int(kept[n_pos]), int(kept[r_pos]))
            closed = -(scale * p[n_pos] ** 2 * abs(y[n_pos, r_pos]) ** 2)
            table[key] = MinorEvaluation(
                "Ytilde", key, float(closed),
                _bordered_det(ci, cj, p, y, n_pos,
                              np.append(nonzero, r_pos)))
    return table


def _bordered_lookup(model, props, key, requirement):
    """The entry ``key`` = (i, j, ...) of the pair (i, j)'s minor table."""
    i, j = key[:2]
    if i == j:
        raise ValueError("system indices must be distinct")
    table = _pair_minors(model, props, i, j, *_level_eig(model, props, i))
    if key not in table:
        raise PreconditionFailedError(f"no minor at {key}: {requirement}")
    return table[key]


def minor_Y(model, props, i, j, n):
    """Bordered principal minor for the pair (i, j), environment state n.

    Indices refer to the ascending eigenbasis of R_ii(t) after eliminating
    decoupled zero-weight environment states.  Raises
    ``PreconditionFailedError`` for an eliminated n, or when two or more
    weights remain zero (the class vanishes; ``minor_Ytilde`` takes over).
    """
    return _bordered_lookup(
        model, props, (i, j, n),
        "requires fewer than two zero weights and a state that was not "
        "eliminated as decoupled")


def minor_Ytilde(model, props, i, j, n, r):
    """Replacement minor class when two or more weights of R_ii(t) vanish.

    ``r`` must label a zero-weight state that remains coupled, ``n`` a
    nonzero-weight state, both in the basis of ``minor_Y``; the minor is
    negative iff the pair operator couples them.
    """
    return _bordered_lookup(
        model, props, (i, j, n, r),
        "requires >= 2 zero weights, a nonzero-weight n and a zero-weight r, "
        "neither eliminated as decoupled")


def witness_scan(model, props, report):
    """Hunt for negative principal minors matching the report's failure mode.

    A failed qubit-like condition sends the scan to the bordered classes; a
    failure of only the cross conditions sends it to the 3x3 classes.  For an
    entangled verdict the scan is expected to return a negative witness, and
    the partial-transpose spectrum is always attached as a safety net.
    """
    state = joint_state(model, props)
    eigs = pt_spectrum(state, "system")

    found = []
    if report.max_qubit_like > report.tol_comm:
        for i in range(model.n):
            level = _level_eig(model, props, i)
            for j in range(model.n):
                if i != j:
                    table = _pair_minors(model, props, i, j, *level)
                    found.extend(ev for ev in table.values()
                                 if ev.closed_form < NEGATIVE_CUT)
    elif report.max_cross > report.tol_comm:
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
