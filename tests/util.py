"""Shared test helpers and independent numerical oracles.

The oracles here deliberately avoid the code paths they check: eigenvalues
come from inertia-count bisection on LDL factorizations, and the matrix
exponential from a scaled-and-squared Taylor series.
"""

import numpy as np
import scipy.linalg


def rand_hermitian(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (g + g.conj().T) / 2


def rand_unitary(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def cancelling_model(seed=0, n=3, m=4, scale=1e6, skew=1e-5):
    """A model whose H_E and V_k each pass the Hermiticity check relative to
    their own norm (about ``scale``) while H_E + V_k = O(1) does not: every
    coupling is -H_E plus an O(1) Hermitian term, and each of H_E and V_k
    carries the same anti-Hermitian part of Frobenius norm ``skew``."""
    from dephasing.model import DephasingModel

    rng = np.random.default_rng(seed)
    h = rand_hermitian(rng, m)
    h *= scale / np.linalg.norm(h)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    anti = (g - g.conj().T) / 2
    anti *= skew / np.linalg.norm(anti)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DephasingModel(
        n=n, m=m, c=c / np.linalg.norm(c), r0=rand_density(rng, m),
        h_env=h + anti,
        v=tuple(-h + rand_hermitian(rng, m) + anti for _ in range(n)))


def rand_density(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2


def _count_negative_ldl_blocks(d):
    """Negative-eigenvalue count of the (block-)diagonal LDL factor."""
    m = d.shape[0]
    count = 0
    k = 0
    while k < m:
        if k + 1 < m and abs(d[k + 1, k]) > 1e-14:
            # 2x2 block: quadratic formula on trace and determinant
            tr = (d[k, k] + d[k + 1, k + 1]).real
            det = (d[k, k] * d[k + 1, k + 1] - abs(d[k + 1, k]) ** 2).real
            disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
            for lam in ((tr + disc) / 2, (tr - disc) / 2):
                if lam < 0:
                    count += 1
            k += 2
        else:
            if d[k, k].real < 0:
                count += 1
            k += 1
    return count


def eig_bisection_oracle(a, iters=90):
    """All eigenvalues of a Hermitian matrix by inertia-count bisection."""
    a = np.asarray(a, dtype=np.complex128)
    m = a.shape[0]
    bound = float(np.linalg.norm(a)) + 1.0
    eye = np.eye(m)

    def count_below(x):
        _, d, _ = scipy.linalg.ldl(a - x * eye, hermitian=True)
        return _count_negative_ldl_blocks(d)

    vals = []
    for k in range(m):
        lo, hi = -bound, bound
        for _ in range(iters):
            mid = (lo + hi) / 2
            if count_below(mid) <= k:
                lo = mid
            else:
                hi = mid
        vals.append((lo + hi) / 2)
    return np.array(vals)


def expm_taylor(a):
    """exp(A) by scaling-and-squaring of a truncated Taylor series."""
    a = np.asarray(a, dtype=np.complex128)
    norm = np.linalg.norm(a)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    b = a / 2 ** s
    term = np.eye(a.shape[0], dtype=np.complex128)
    out = term.copy()
    for k in range(1, 40):
        term = term @ b / k
        out += term
        if np.linalg.norm(term) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def pauli_fixture_sigma():
    """The 6x6 joint state of the built-in qutrit fixture, entered by hand."""
    i = 1j
    return np.array([
        [1, 0, 1, 0, 0, i],
        [0, 1, 0, -1, -i, 0],
        [1, 0, 1, 0, 0, i],
        [0, -1, 0, 1, i, 0],
        [0, i, 0, -i, 1, 0],
        [-i, 0, -i, 0, 0, 1],
    ], dtype=np.complex128) / 6


def pauli_fixture_sigma_te():
    """Its partial transpose over the environment, also entered by hand."""
    i = 1j
    return np.array([
        [1, 0, 1, 0, 0, -i],
        [0, 1, 0, -1, i, 0],
        [1, 0, 1, 0, 0, i],
        [0, -1, 0, 1, i, 0],
        [0, -i, 0, -i, 1, 0],
        [i, 0, -i, 0, 0, 1],
    ], dtype=np.complex128) / 6


def assemble_joint_loop(c, ws, r0):
    """Slow reference joint state, block by block:
    sigma[kM:(k+1)M, lM:(l+1)M] = c_k conj(c_l) w_k r0 w_l^dag."""
    n = len(c)
    m = r0.shape[0]
    sigma = np.empty((n * m, n * m), dtype=np.complex128)
    wr = [ws[k] @ r0 for k in range(n)]
    for k in range(n):
        for l in range(n):
            block = wr[k] @ ws[l].conj().T
            sigma[k * m:(k + 1) * m, l * m:(l + 1) * m] = c[k] * np.conj(c[l]) * block
    return sigma


def _comm_frob(a, b):
    return float(np.linalg.norm(a @ b - b @ a))


def sweep_reference(model, grid, tol_comm=1e-9):
    """Per-step reference for ``dephasing sweep`` on a Hamiltonian-mode model.

    Each step exponentiates every level on its own with ``scipy.linalg.expm``,
    takes every commutator pair by pair, assembles the joint state block by
    block and partially transposes it over the system by explicit indexing.
    Returns rows (t, max qubit-like norm, max cross norm, min PT eigenvalue,
    negativity, verdict), one per time.
    """
    n, m = model.n, model.m
    rows = []
    for t in grid:
        ws = [scipy.linalg.expm(-1j * t * (model.h_env + vk)) for vk in model.v]
        qubit_like = [_comm_frob(model.r0, ws[0].conj().T @ ws[j])
                      for j in range(1, n)]
        pair = [ws[j] @ ws[0].conj().T for j in range(n)]
        cross = [_comm_frob(pair[j], pair[l])
                 for j in range(2, n) for l in range(1, j)]
        sigma = assemble_joint_loop(model.c, ws, model.r0)
        pt = np.empty_like(sigma)
        for s in range(n):
            for s2 in range(n):
                pt[s * m:(s + 1) * m, s2 * m:(s2 + 1) * m] = \
                    sigma[s2 * m:(s2 + 1) * m, s * m:(s + 1) * m]
        eigs = np.linalg.eigvalsh(pt)
        worst = max(qubit_like + cross)
        rows.append((float(t), max(qubit_like), max(cross, default=0.0),
                     float(eigs[0]), float(-eigs[eigs < 0].sum()),
                     "entangled" if worst > tol_comm else "separable"))
    return rows


def minor_grid_loop(ci, cj, cl, p, u, x):
    """Slow reference 3x3 minor grid, one environment pair (k, q) at a time:
    the closed form and the cofactor expansion of the 3x3 determinant."""
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


def kept_states_loop(p, y, zero_weight_cut, decouple_cut):
    """Reference state elimination for the bordered minors: repeatedly drop
    one zero-weight state decoupled from every state still kept."""
    kept = list(range(len(p)))
    while True:
        for pos, state in enumerate(kept):
            if p[state] >= zero_weight_cut:
                continue
            others = [s for s in kept if s != state]
            col = max((abs(y[o, state]) for o in others), default=0.0)
            row = max((abs(y[state, o]) for o in others), default=0.0)
            if max(col, row) < decouple_cut:
                kept.pop(pos)
                break
        else:
            return kept


def bordered_minors_loop(ci, cj, p_full, y_full, i, j, zero_weight_cut,
                         decouple_cut):
    """Reference bordered-minor table of the pair (i, j), one minor at a time.

    ``p_full`` are the weights of R_ii(t) and ``y_full`` the pair operator
    in its eigenbasis.  After eliminating decoupled zero-weight states, each
    Y minor (fewer than two zero weights) or Y-tilde minor (two or more) gets
    its own closed form and its own bordered matrix.  Returns
    {indices: (class, closed form, determinant)}.
    """
    kept = kept_states_loop(p_full, y_full, zero_weight_cut, decouple_cut)
    p, y = p_full[kept], y_full[np.ix_(kept, kept)]
    mdim = len(kept)
    zero_mask = p < zero_weight_cut
    num_zero = int(zero_mask.sum())
    table = {}
    if num_zero < 2:
        for n_pos in range(mdim):
            prod_except = np.array([np.prod(np.delete(p, k))
                                    for k in range(mdim)])
            col_weight = float(np.sum(p * np.abs(y[:, n_pos]) ** 2))
            closed = (abs(ci) ** (2 * mdim) * abs(cj) ** 2
                      * (np.prod(p) * col_weight
                         - float(np.sum(prod_except * p[n_pos] ** 2
                                        * np.abs(y[n_pos, :]) ** 2))))
            bordered = np.zeros((mdim + 1, mdim + 1), dtype=np.complex128)
            bordered[:mdim, :mdim] = np.diag(abs(ci) ** 2 * p)
            border = np.conj(ci) * cj * p[n_pos] * np.conj(y[n_pos, :])
            bordered[:mdim, mdim] = border
            bordered[mdim, :mdim] = np.conj(border)
            bordered[mdim, mdim] = abs(cj) ** 2 * col_weight
            table[(i, j, kept[n_pos])] = (
                "Y", float(closed), float(np.linalg.det(bordered).real))
        return table
    nonzero = np.flatnonzero(~zero_mask)
    for n_pos in nonzero:
        for r_pos in np.flatnonzero(zero_mask):
            closed = -(abs(ci) ** (2 * (mdim - num_zero + 1)) * abs(cj) ** 2
                       * float(np.prod(p[nonzero]))
                       * p[n_pos] ** 2 * abs(y[n_pos, r_pos]) ** 2)
            keep_pos = list(nonzero) + [r_pos]
            d = len(keep_pos)
            bordered = np.zeros((d + 1, d + 1), dtype=np.complex128)
            bordered[:d, :d] = np.diag(abs(ci) ** 2 * p[keep_pos])
            border = np.conj(ci) * cj * p[n_pos] * np.conj(y[n_pos, keep_pos])
            bordered[:d, d] = border
            bordered[d, :d] = np.conj(border)
            bordered[d, d] = abs(cj) ** 2 * float(
                np.sum(p * np.abs(y[:, n_pos]) ** 2))
            table[(i, j, kept[n_pos], kept[r_pos])] = (
                "Ytilde", float(closed), float(np.linalg.det(bordered).real))
    return table


def reconstruct_loop(c, weights, env_basis, phases):
    """Reference separable state, one term at a time: the sum over n of
    p_n (psi_n psi_n^dag) (x) |n><n|, with psi_n = c * phases[:, n]."""
    n, m = phases.shape
    sigma = np.zeros((n * m, n * m), dtype=np.complex128)
    for idx in range(m):
        vec = c * phases[:, idx]
        ket = env_basis[:, idx]
        sigma += weights[idx] * np.kron(np.outer(vec, vec.conj()),
                                        np.outer(ket, ket.conj()))
    return sigma


def decoherence_factors(model, props):
    """NxN matrix of reduced coherence factors, entry (k, l) =
    tr[w_l^dag w_k R(0)], one trace at a time."""
    n = model.n
    d = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            d[k, l] = np.trace(props.w[l].conj().T @ props.w[k] @ model.r0)
    return d
