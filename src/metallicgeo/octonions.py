"""Octonion algebra and the seven-dimensional cross product.

The multiplication table is generated by the Cayley-Dickson doubling of
the quaternions: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)). The
cross product of imaginary octonions u, v in R^7 is the imaginary part of
their product; for unit u and w orthogonal to u it squares to -1, which is
what turns it into an almost complex structure on the 6-sphere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cross7_matrix", "MULT_TABLE"]


def _quat_mult_table() -> np.ndarray:
    # t[a, b, c]: e_a e_b = sum_c t[a, b, c] e_c for quaternion units 1, i, j, k
    t = np.zeros((4, 4, 4))
    def s(a, b, c, sign):
        t[a, b, c] = sign
    for a in range(4):
        s(0, a, a, 1.0)
        if a:
            s(a, 0, a, 1.0)
            s(a, a, 0, -1.0)
    s(1, 2, 3, 1.0); s(2, 1, 3, -1.0)
    s(2, 3, 1, 1.0); s(3, 2, 1, -1.0)
    s(3, 1, 2, 1.0); s(1, 3, 2, -1.0)
    return t


def _oct_mult_table() -> np.ndarray:
    """Structure constants T[a, b, c] with e_a e_b = sum_c T[a, b, c] e_c."""
    qt = _quat_mult_table()
    conj = np.diag([1.0, -1.0, -1.0, -1.0])
    T = np.zeros((8, 8, 8))
    basis = np.eye(4)
    for ia in range(8):
        a, b = (basis[ia], np.zeros(4)) if ia < 4 else (np.zeros(4), basis[ia - 4])
        for ic in range(8):
            c, d = (basis[ic], np.zeros(4)) if ic < 4 else (np.zeros(4), basis[ic - 4])
            first = np.einsum("abc,a,b->c", qt, a, c) - np.einsum("abc,a,b->c", qt, conj @ d, b)
            second = np.einsum("abc,a,b->c", qt, d, a) + np.einsum("abc,a,b->c", qt, b, conj @ c)
            T[ia, ic, :4] = first
            T[ia, ic, 4:] = second
    return T


MULT_TABLE = _oct_mult_table()

# cross-product structure constants on the imaginary units e_1..e_7
_CROSS = MULT_TABLE[1:, 1:, 1:].copy()


def cross7_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix M with M @ v = u x v, the cross product of imaginary octonions.

    u is one vector of length 7 or a stack (..., 7); M is (..., 7, 7).
    """
    return np.einsum("abc,...a->...cb", _CROSS, np.asarray(u, float))
