"""Every numerical cut the package makes, defined once.

A verdict comes down to sign tests on floating-point numbers, so each value
below says what it compares and whether the comparison is absolute or
relative to what.  The user's commutator threshold (``tol_comm`` on
``decide``, ``--tol-comm`` on the command line) defaults to
``DEFAULT_TOL_COMM``; every other cut is fixed.
"""

__all__ = [
    "INPUT_TOL",
    "DEFAULT_TOL_COMM",
    "DEGENERACY_RTOL",
    "ZERO_WEIGHT_CUT",
    "DECOUPLE_CUT",
    "NEGATIVE_CUT",
    "PRECONDITION_TOL",
]

#: model invariants and eigensolver input.  ||A - A^dag||_F relative to
#: max(1, ||A||_F) for Hermiticity; ||w w^dag - 1||_F relative to M for
#: unitarity; absolute on sum |c_k|^2 - 1, on tr R(0) - 1 and on the most
#: negative eigenvalue of R(0)
INPUT_TOL = 1e-10

#: default threshold on each commutator norm ||[A, B]||_F of both condition
#: families (absolute); also the default ``tol`` of ``minor_X``, ``minor_D``
#: and ``simultaneous_diagonalize``, which scales it by the dimension
DEFAULT_TOL_COMM = 1e-9

#: gap between consecutive eigenvalues below which they share a degenerate
#: subspace, relative to max(1, ||H||_F)
DEGENERACY_RTOL = 1e-9

#: eigenvalues of R_ii(t) below this count as zero weights (absolute)
ZERO_WEIGHT_CUT = 1e-12

#: |matrix elements| of the pair operator below this count as decoupled
#: when eliminating environment states (absolute)
DECOUPLE_CUT = 1e-10

#: a minor's closed form below this is a witness (absolute)
NEGATIVE_CUT = -1e-12

#: ``minor_X`` refuses a pair (k, q) whose coupling |x_kq| and weight gap
#: |p_k - p_q| both exceed this (absolute)
PRECONDITION_TOL = 1e-6
