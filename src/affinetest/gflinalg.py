"""Dense linear algebra over prime fields GF(p).

All matrices here are small (desk scale), so everything is plain Gaussian
elimination on numpy integer arrays with exact mod-p arithmetic.  Rows and
vectors are sequences of ints; results come back reduced to [0, p).
"""
from __future__ import annotations

import numpy as np


def as_matrix(rows, p: int) -> np.ndarray:
    """Copy `rows` into a 2-D int64 array reduced mod p."""
    mat = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    return np.mod(mat, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns (echelon matrix with zero rows dropped, pivot column list).
    """
    m = np.mod(np.array(mat, dtype=np.int64, copy=True), p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if m[i, c] % p != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(mat, p: int) -> int:
    m = as_matrix(mat, p)
    if m.size == 0:
        return 0
    return rref(m, p)[0].shape[0]


def in_rowspan(mat, vec, p: int) -> bool:
    """True iff `vec` lies in the span of the rows of `mat` over GF(p)."""
    m = as_matrix(mat, p)
    v = np.mod(np.asarray(vec, dtype=np.int64), p)
    if not v.any():
        return True
    if m.size == 0:
        return False
    base, _ = rref(m, p)
    stacked = np.vstack([base, v[None, :]])
    return rref(stacked, p)[0].shape[0] == base.shape[0]


def is_invertible(mat, p: int) -> bool:
    m = as_matrix(mat, p)
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]


def random_invertible(rng: np.random.Generator, size: int, p: int) -> np.ndarray:
    """Uniform-ish invertible size x size matrix mod p by rejection sampling."""
    while True:
        m = rng.integers(0, p, size=(size, size), dtype=np.int64)
        if is_invertible(m, p):
            return m
