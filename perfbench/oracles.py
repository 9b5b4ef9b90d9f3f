"""Independent recomputation of what the package outputs, and the checks
that compare the two.

Nothing here calls into ``dephasing``: propagators come from
``scipy.linalg.expm``, the joint state is assembled block by block, spectra
come from ``scipy.linalg.eigvalsh`` and principal minors are determinants of
submatrices of the partially transposed state.  Models are read only through
their plain fields (``n``, ``m``, ``c``, ``r0``, ``h_env``, ``v``).

Every ``check_*`` function raises :class:`CheckFailed` with a reason when an
output disagrees with its oracle or breaks a property the method must have.
"""

import csv
import io

import numpy as np
import scipy.linalg as sla

#: the package's documented default commutator-norm threshold; for a density
#: matrix ||R(0)||_F <= 1, so both condition families use it unscaled
TOL_COMM = 1e-9

#: the package's absolute cut below which a principal minor counts as negative
NEGATIVE_CUT = -1e-12

#: agreement of eigenvalues and norms between two LAPACK drivers
EIG_TOL = 1e-9

CSV_HEADER = ["t", "max_qubit_like_norm", "max_cross_norm",
              "min_pt_eig", "negativity", "verdict"]


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


class MissingWitness(CheckFailed):
    """An entangled verdict whose witness scan found no negative minor."""


def expect(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# independent evolution and joint state
# ---------------------------------------------------------------------------

def propagators(model, t):
    """w_k(t) = exp(-i t (H_E + V_k)), stacked to shape (N, M, M)."""
    return np.stack([sla.expm(-1j * t * (model.h_env + vk)) for vk in model.v])


def joint_state(c, w, r0):
    """sigma = sum_kl c_k c_l^* |k><l| (x) w_k R(0) w_l^dag."""
    n, m = w.shape[0], w.shape[1]
    wr = w @ r0
    blocks = wr[:, None] @ w.conj().transpose(0, 2, 1)[None, :]
    blocks = blocks * (c[:, None] * c.conj()[None, :])[:, :, None, None]
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def pt_system(sigma, n, m):
    """Partial transpose over the system factor (row index s * M + e)."""
    return sigma.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m)


def pt_eigenvalues(sigma, n, m):
    return sla.eigvalsh(pt_system(sigma, n, m))


def negativity(eigs):
    return float(-eigs[eigs < 0].sum())


def _comm_norm(a, b):
    return float(np.linalg.norm(a @ b - b @ a))


def condition_norms(w, r0):
    """(qubit-like norms, cross norms): ||[R(0), w_0^dag w_j]||_F for j >= 1
    and ||[W_j0, W_l0]||_F for 0 < l < j, with W_j0 = w_j w_0^dag."""
    n = w.shape[0]
    qubit_like = [_comm_norm(r0, w[0].conj().T @ w[j]) for j in range(1, n)]
    pair = [w[j] @ w[0].conj().T for j in range(n)]
    cross = [_comm_norm(pair[j], pair[l])
             for j in range(2, n) for l in range(1, j)]
    return qubit_like, cross


def verdict(qubit_like, cross):
    return "entangled" if max(qubit_like + cross) > TOL_COMM else "separable"


# ---------------------------------------------------------------------------
# principal minors taken directly from the partially transposed state
# ---------------------------------------------------------------------------

def _rotate_blocks(pt, basis, n):
    """(1_N (x) B)^dag PT (1_N (x) B)."""
    u = np.kron(np.eye(n), basis)
    return u.conj().T @ pt @ u


def bordered_minors(pt, w, r0, n, m):
    """Bordered (M+1)x(M+1) minors for every ordered pair (i, j), i != j.

    In the eigenbasis V of R_ii(t) = w_i R(0) w_i^dag, applied in every
    block, the minor for environment state q keeps all M rows of block i and
    row q of block j.  Returns an (N, N, M) array; the diagonal i == j is
    left at +inf.
    """
    out = np.full((n, n, m), np.inf)
    for i in range(n):
        _, v = sla.eigh(w[i] @ r0 @ w[i].conj().T)
        rot = _rotate_blocks(pt, v, n)
        rows_i = list(range(i * m, (i + 1) * m))
        for j in range(n):
            if j == i:
                continue
            idx = np.array([rows_i + [j * m + q] for q in range(m)])
            out[i, j] = np.linalg.det(rot[idx[:, :, None], idx[:, None, :]]).real
    return out


def triple_minors(pt, w, n, m):
    """3x3 minors of the X class for R(0) = 1/M.

    For the system triple (i, j, l) the common eigenbasis is that of
    W_ji = w_j w_i^dag, ordered by ascending real, then imaginary part of
    its eigenvalues; the minor (k, q) keeps row k of blocks i and j and row
    q of block l.  Returns an (N, N, N, M, M) array indexed (i, j, l, k, q),
    +inf wherever the indices do not name a minor of the class.
    """
    out = np.full((n, n, n, m, m), np.inf)
    kk, qq = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    off_diagonal = kk != qq
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            vals, vecs = sla.eig(w[j] @ w[i].conj().T)
            order = np.lexsort((vals.imag, vals.real))
            basis, _ = np.linalg.qr(vecs[:, order])
            rot = _rotate_blocks(pt, basis, n)
            for l in range(n):
                if l in (i, j):
                    continue
                rows = np.stack([i * m + kk, j * m + kk, l * m + qq], axis=-1)
                dets = np.linalg.det(rot[rows[..., :, None], rows[..., None, :]]).real
                out[i, j, l] = np.where(off_diagonal, dets, np.inf)
    return out


# ---------------------------------------------------------------------------
# checks of package outputs
# ---------------------------------------------------------------------------

def _close(a, b, tol=EIG_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_sweep_csv(text, model, grid, sampled):
    """A ``dephasing sweep`` CSV against the model it was computed from.

    Every row: the t column matches the grid, the verdict matches the CSV's
    own norms, and negativity is consistent with the PT minimum eigenvalue.
    Sampled rows: norms, PT minimum eigenvalue, negativity and verdict are
    recomputed from scipy propagators and an independently assembled sigma,
    whose PT eigenvalues must sum to 1.  The t = 0 row must be separable.
    """
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows and rows[0] == CSV_HEADER, f"bad CSV header {rows[:1]}")
    body = rows[1:]
    expect(len(body) == len(grid), f"{len(body)} rows for {len(grid)} times")
    parsed = []
    for r, (row, t) in enumerate(zip(body, grid)):
        expect(len(row) == 6, f"row {r}: {len(row)} fields")
        t_csv, q_max, x_max, min_eig, neg = (float(x) for x in row[:5])
        expect(t_csv == float(t), f"row {r}: t = {t_csv}, grid says {t}")
        expect(row[5] == verdict([q_max], [x_max]),
               f"row {r}: verdict {row[5]} with norms {q_max}, {x_max}")
        expect(neg >= 0.0 and neg >= -min_eig - EIG_TOL,
               f"row {r}: negativity {neg} vs PT minimum {min_eig}")
        parsed.append((t_csv, q_max, x_max, min_eig, neg, row[5]))
    expect(parsed[0][0] == 0.0 and parsed[0][5] == "separable",
           f"t = 0 row is {parsed[0][5]}")

    for r in sampled:
        t, q_max, x_max, min_eig, neg, verd = parsed[r]
        w = propagators(model, t)
        sigma = joint_state(model.c, w, model.r0)
        eigs = pt_eigenvalues(sigma, model.n, model.m)
        expect(_close(eigs.sum(), 1.0), f"row {r}: PT eigenvalues sum to {eigs.sum()}")
        expect(_close(eigs[0], min_eig), f"row {r}: PT minimum {min_eig}, oracle {eigs[0]}")
        expect(_close(negativity(eigs), neg), f"row {r}: negativity {neg}, oracle {negativity(eigs)}")
        ql, cross = condition_norms(w, model.r0)
        expect(_close(max(ql), q_max, 1e-7), f"row {r}: qubit-like norm {q_max}, oracle {max(ql)}")
        expect(_close(max(cross, default=0.0), x_max, 1e-7),
               f"row {r}: cross norm {x_max}, oracle {max(cross, default=0.0)}")
        expect(verd == verdict(ql, cross), f"row {r}: verdict {verd}, oracle {verdict(ql, cross)}")


def _check_spectrum(scan, eigs):
    pkg = np.asarray(scan.pt_eigenvalues)
    expect(pkg.shape == eigs.shape, f"{pkg.shape[0]} PT eigenvalues, expected {eigs.shape[0]}")
    expect(np.all(np.abs(pkg - eigs) <= EIG_TOL), "PT spectrum differs from the oracle "
           f"by {np.max(np.abs(pkg - eigs)):.3e}")
    expect(eigs[0] < 0, f"entangled verdict with PT minimum {eigs[0]}")


def _witness_values(witnesses):
    closed = np.array([ev.closed_form for ev in witnesses])
    det = np.array([ev.determinant for ev in witnesses])
    return closed, det


def _check_closed_forms(witnesses):
    closed, det = _witness_values(witnesses)
    bad = (closed >= NEGATIVE_CUT) | (np.abs(closed - det) > 1e-9 * np.abs(closed) + 1e-18)
    if bad.any():
        ev = witnesses[int(np.argmax(bad))]
        raise CheckFailed(f"witness {ev.indices}: closed form {ev.closed_form} "
                          f"vs determinant {ev.determinant}")


def check_scan_mixed(model, t, report, scan):
    """``decide_from_props`` + ``witness_scan`` on a model with R(0) = 1/M.

    Every qubit-like norm vanishes, the verdict is entangled with a negative
    PT minimum, every witness's closed form equals its determinant, and the
    witnesses are exactly the negative 3x3 minors of the partially
    transposed state, value by value.
    """
    n, m = model.n, model.m
    w = propagators(model, t)
    ql, cross = condition_norms(w, model.r0)
    expect(max(ql) <= TOL_COMM / 10, f"oracle qubit-like norm {max(ql)} for R(0) = 1/M")
    expect(all(norm <= TOL_COMM / 10 for _, norm in report.qubit_like),
           f"qubit-like norms {report.qubit_like} for R(0) = 1/M")
    expect(report.verdict == "entangled" == verdict(ql, cross),
           f"verdict {report.verdict}, oracle {verdict(ql, cross)}")
    sigma = joint_state(model.c, w, model.r0)
    pt = pt_system(sigma, n, m)
    _check_spectrum(scan, sla.eigvalsh(pt))
    _check_closed_forms(scan.witnesses)

    _match_minors(scan.witnesses, triple_minors(pt, w, n, m))


def _match_minors(witnesses, minors):
    """The witnesses are exactly the negative entries of the oracle's minor
    array, indexed by the witness indices, value by value: no clearly
    negative minor is missing, none is listed twice, and none lies clearly
    above the cut."""
    found = {tuple(ev.indices) for ev in witnesses}
    expect(len(found) == len(witnesses), "a witness is listed twice")
    missing = [idx for idx in np.argwhere(minors < 2 * NEGATIVE_CUT).tolist()
               if tuple(idx) not in found]
    expect(not missing, f"{len(missing)} negative minors missing, first {missing[:1]}")
    maybe = int(np.sum(minors < NEGATIVE_CUT / 2))
    expect(len(witnesses) <= maybe, f"{len(witnesses)} witnesses, oracle finds {maybe}")
    if not witnesses:
        return
    closed, _ = _witness_values(witnesses)
    direct = minors[tuple(np.array([ev.indices for ev in witnesses]).T)]
    bad = np.abs(closed - direct) > 1e-7 * np.abs(direct) + 1e-18
    if bad.any():
        pos = int(np.argmax(bad))
        raise CheckFailed(f"witness {witnesses[pos].indices}: {closed[pos]}, "
                          f"PT minor {direct[pos]}")


def check_certify_separable(model, t, report, decomposition):
    """A separable verdict: weights >= 0 summing to 1, and the product
    decomposition rebuilds the independently assembled sigma."""
    w = propagators(model, t)
    ql, cross = condition_norms(w, model.r0)
    expect(report.verdict == "separable" == verdict(ql, cross),
           f"verdict {report.verdict}, oracle {verdict(ql, cross)}")
    p = np.asarray(decomposition.weights)
    expect(np.all(p >= 0) and _close(p.sum(), 1.0, 1e-12), f"weights {p}")
    sigma = joint_state(model.c, w, model.r0)
    err = float(np.linalg.norm(decomposition.reconstruct() - sigma))
    expect(err <= 1e-8, f"decomposition misses sigma by {err:.3e}")


def check_certify_entangled(model, t, report, scan):
    """An entangled verdict on a generic model: negative PT minimum
    eigenvalue, a non-empty witness list, every witness's closed form equal
    to its determinant, and the witnesses exactly the negative bordered
    minors of the partially transposed state, value by value.  R(0) has full
    rank, so every witness is of the Y class."""
    n, m = model.n, model.m
    w = propagators(model, t)
    ql, cross = condition_norms(w, model.r0)
    expect(report.verdict == "entangled" == verdict(ql, cross),
           f"verdict {report.verdict}, oracle {verdict(ql, cross)}")
    pt = pt_system(joint_state(model.c, w, model.r0), n, m)
    _check_spectrum(scan, sla.eigvalsh(pt))
    _check_closed_forms(scan.witnesses)
    if not scan.witnesses:
        raise MissingWitness(
            f"entangled, PT minimum {scan.pt_eigenvalues[0]:.3g}, but no witness")
    classes = sorted({ev.class_tag for ev in scan.witnesses})
    expect(classes == ["Y"], f"witness classes {classes} for a full-rank R(0)")
    _match_minors(scan.witnesses, bordered_minors(pt, w, model.r0, n, m))


def smallest_bordered_minor(model, t):
    """The most negative bordered minor of a generic model, and the PT
    minimum eigenvalue, both from the oracle."""
    w = propagators(model, t)
    sigma = joint_state(model.c, w, model.r0)
    pt = pt_system(sigma, model.n, model.m)
    minors = bordered_minors(pt, w, model.r0, model.n, model.m)
    return float(minors.min()), float(sla.eigvalsh(pt)[0])
