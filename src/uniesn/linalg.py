"""Proven upper bounds on operator norms.

The Euclidean vector norm and the spectral matrix norm it induces are used
everywhere in this package; every Lipschitz constant and error gain is built
from them, so each norm is rounded up, never down.
"""

import math

import numpy as np


def operator_norm(mat) -> float:
    """A proven upper bound on the largest singular value of ``mat``.

    LAPACK's SVD is backward stable: its value s is the largest singular value
    of A + E, ||E|| <= p u ||A||, u = 2**-53, so by Weyl's inequality the true
    one is at most s / (1 - p u), which s * (1 + 2 p u) stays above once
    rounded.  For an m x n matrix, r = min(m, n), p = 4 m n sqrt(r) + 69 r**2:
    the Householder bidiagonalisation's column-wise backward error gamma_mn
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Theorem
    19.4, its constant c taken as 2), summed over r columns in the Frobenius
    norm and doubled for the right-hand reflections, plus the 69 r**2 relative
    error of the bidiagonal's singular values (Demmel & Kahan, SIAM J. Sci.
    Stat. Comput. 11(5), 1990).  A 1 x 1 matrix's norm |a| is exact.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size <= 1:
        return float(np.abs(a).sum())
    m, n = a.shape
    p = 4 * m * n * math.sqrt(min(m, n)) + 69 * min(m, n) ** 2
    return float(np.linalg.norm(a, 2)) * (1.0 + 2.0 * p * 2.0**-53)
