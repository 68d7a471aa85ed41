"""Reference computations the benchmark checks the program against.

Nothing here imports affinetest.  Every quantity is computed by a different
route from the library's: Gowers norms, correlations and bias come from the
Fourier transform on F_p^n (dft below) instead of enumeration;
polynomials are evaluated term by term from the factor file format; GF(p)
rank is plain Gaussian elimination on Python ints; violation counts at p = 2
index sums by XOR of canonical indices instead of coordinate arithmetic.
selftest.py checks each of these against brute force at tiny sizes.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


# --- domain and file formats --------------------------------------------


def coords(p: int, n: int) -> np.ndarray:
    """(n, p^n) digits of every canonical index, coordinate 1 fastest."""
    idx = np.arange(p**n, dtype=np.int64)
    out = np.empty((n, p**n), dtype=np.int64)
    for i in range(n):
        idx, out[i] = np.divmod(idx, p)
    return out


def index_of(points, p: int) -> np.ndarray:
    """Canonical little-endian index of each row of an (m, n) digit array."""
    pts = np.asarray(points, dtype=np.int64) % p
    weights = p ** np.arange(pts.shape[-1], dtype=np.int64)
    return pts @ weights


def parse_function_table(text: str) -> tuple[int, int, int, np.ndarray]:
    head, body = text.split("\n", 1)
    p, n, r = (int(t) for t in head.split())
    return p, n, r, np.array(body.split(), dtype=np.int64)


def parse_real_table(text: str) -> tuple[int, int, np.ndarray]:
    head, body = text.split("\n", 1)
    p, n = (int(t) for t in head.split())
    return p, n, np.array([float(t) for t in body.split()])


def parse_factor(text: str) -> tuple[int, int, list[list[tuple[int, tuple[int, ...]]]]]:
    """Factor file: "p n C", then per polynomial "k coeff e_1..e_n ..."."""
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    p, n, c = (int(t) for t in lines[0].split())
    polys = []
    for line in lines[1 : 1 + c]:
        tok = [int(t) for t in line.split()]
        terms = []
        for j in range(tok[0]):
            base = 1 + j * (n + 1)
            terms.append((tok[base], tuple(tok[base + 1 : base + 1 + n])))
        polys.append(terms)
    return p, n, polys


def eval_poly(terms, p: int, n: int) -> np.ndarray:
    """Values of sum c * prod x_i^e_i mod p on the whole domain."""
    digits = coords(p, n)
    powers = {e: np.array([pow(a, e, p) for a in range(p)], dtype=np.int64) for e in range(p)}
    acc = np.zeros(p**n, dtype=np.int64)
    for coeff, expts in terms:
        term = np.full(p**n, coeff % p, dtype=np.int64)
        for i, e in enumerate(expts):
            if e:
                term = term * powers[e][digits[i]] % p
        acc = (acc + term) % p
    return acc


def cell_indices(factor_text: str) -> tuple[int, int, int, np.ndarray]:
    """(p, n, C, flat cell index of every point) for a factor file."""
    p, n, polys = parse_factor(factor_text)
    flat = np.zeros(p**n, dtype=np.int64)
    for i, terms in enumerate(polys):
        flat += eval_poly(terms, p, n) * p**i
    return p, n, len(polys), flat


# --- Fourier side ----------------------------------------------------------


def dft(rows: np.ndarray, p: int, n: int) -> np.ndarray:
    """Fourier transform on F_p^n of each row: sum_x f(x) e_p(-xi.x), with
    xi in the same canonical order as x.  One p-point DFT per coordinate,
    applied as a matrix product; selftest.py checks it against
    numpy.fft.fftn over the (p,)*n Fortran-order reshape."""
    w = np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
    if p == 2:
        w = w.real
    out = np.asarray(rows).astype(np.result_type(rows.dtype, w.dtype))
    batch = out.shape[0]
    for i in reversed(range(n)):  # coordinate i has stride p^i
        out = (w @ out.reshape(batch * p ** (n - 1 - i), p, p**i)).reshape(batch, -1)
    return out


def _spectra(rows: np.ndarray, p: int, n: int) -> np.ndarray:
    """|E_x f(x) e_p(-xi.x)| for every xi, per row."""
    return np.abs(dft(rows, p, n)) / p**n


def shift_index(p: int, n: int):
    """h -> canonical indices of x + h for all x."""
    if p == 2:
        base = np.arange(2**n)
        return lambda h_digits: base ^ int(index_of(h_digits, 2))
    digits = coords(p, n)
    weights = p ** np.arange(n, dtype=np.int64)

    def shifted(h_digits):
        return ((digits + np.asarray(h_digits, dtype=np.int64)[:, None]) % p).T @ weights

    return shifted


def gowers_power(values: np.ndarray, p: int, n: int, k: int, block: int = 256) -> float:
    """||f||_{U^k}^(2^k): |E f|^2 for k=1, sum |f^|^4 for k=2, and
    E_h ||Delta_h f||_{U^(k-1)}^(2^(k-1)) above, Delta_h f = f(.+h) conj f."""
    vals = np.asarray(values)
    if k == 1:
        return float(abs(vals.mean()) ** 2)
    if k == 2:
        return float((_spectra(vals[None, :], p, n) ** 4).sum())
    digits = coords(p, n)
    shifted = shift_index(p, n)
    size = p**n
    if k == 3:
        total = 0.0
        for start in range(0, size, block):
            hs = range(start, min(start + block, size))
            rows = np.stack([vals[shifted(digits[:, h])] * np.conj(vals) for h in hs])
            total += float((_spectra(rows, p, n) ** 4).sum())
        return total / size
    return sum(
        gowers_power(vals[shifted(digits[:, h])] * np.conj(vals), p, n, k - 1) for h in range(size)
    ) / size


def gowers(values: np.ndarray, p: int, n: int, k: int) -> float:
    return max(gowers_power(values, p, n, k), 0.0) ** (1.0 / 2**k)


def max_linear_correlation(values: np.ndarray, p: int, n: int) -> float:
    """max over degree-<=1 P of |E f e_p(P)|; the constant term never matters."""
    return float(_spectra(np.asarray(values)[None, :], p, n).max())


def max_bias(cells: np.ndarray, p: int, c: int) -> float:
    """max over nonzero lambda of |E e_p(sum lambda_i P_i)|: the largest
    nonzero Fourier coefficient of the cell histogram."""
    if c == 0:
        return 0.0
    hist = np.bincount(cells, minlength=p**c).astype(np.float64)
    spec = _spectra(hist[None, :], p, c)[0] * p**c / cells.size
    spec[0] = 0.0
    return float(spec.max())


# --- GF(p) linear algebra --------------------------------------------------


def gf_rank(rows, p: int) -> int:
    mat = [[int(v) % p for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def in_column_space(mat, vec, p: int) -> bool:
    cols = [list(col) for col in zip(*mat)]
    return gf_rank(cols, p) == gf_rank(cols + [list(vec)], p)


# --- tester side -------------------------------------------------------------

# x_1, x_1 + x_2, x_1 + x_3, x_1 + x_2 + x_3
DERIVATIVE_FORMS = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))


def breaks_derivative_identity(sigma, p: int) -> bool:
    s = [v - 1 for v in sigma]
    return (s[0] - s[1] - s[2] + s[3]) % p != 0


def labels_at_forms(labels: np.ndarray, p: int, points, forms=DERIVATIVE_FORMS) -> tuple[int, ...]:
    pts = np.asarray(points, dtype=np.int64)
    images = [np.asarray(form, dtype=np.int64) @ pts for form in forms]
    return tuple(int(labels[i]) for i in index_of(np.array(images), p))


def xor_violations(labels: np.ndarray, sigma) -> tuple[int, tuple[int, int, int] | None]:
    """p = 2: number of (a, b, c) with labels (a, a^b, a^c, a^b^c) = sigma, and
    the first such tuple in lexicographic order."""
    size = labels.size
    a = np.arange(size)[:, None, None]
    b = np.arange(size)[None, :, None]
    c = np.arange(size)[None, None, :]
    hit = (labels[a] == sigma[0]) & (labels[a ^ b] == sigma[1])
    hit = hit & (labels[a ^ c] == sigma[2]) & (labels[a ^ b ^ c] == sigma[3])
    count = int(np.count_nonzero(hit))
    if not count:
        return 0, None
    first = np.unravel_index(int(np.argmax(hit)), hit.shape)
    return count, tuple(int(v) for v in first)


def distance_to_affine(labels: np.ndarray, p: int, n: int) -> Fraction:
    """Exact min distance from labels - 1 to any a.x + b over F_p."""
    digits = coords(p, n)
    target = labels - 1
    linear = (digits.T @ digits) % p  # row a: a.x for every x (a runs over the domain)
    diff = (target[None, :] - linear) % p
    agree = max(int(np.count_nonzero(diff == b, axis=1).max()) for b in range(p))
    return Fraction(p**n - agree, p**n)


# --- decomposition side ------------------------------------------------------


def cell_means(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    counts = np.bincount(cells)
    sums = np.bincount(cells, weights=values)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return means[cells]


def cleanup(labels: np.ndarray, r: int, coarse: np.ndarray, in_sub: np.ndarray, zeta: float) -> np.ndarray:
    """The three-step relabeling, cell by cell: cells whose label frequencies
    differ from their subcell's by more than zeta become the subcell's most
    popular label; elsewhere labels rarer than zeta in the subcell become it."""
    out = labels.copy()
    for cell in np.unique(coarse):
        members = coarse == cell
        sub = members & in_sub
        cell_frac = np.array([np.mean(labels[members] == lab) for lab in range(1, r + 1)])
        sub_frac = np.array([np.mean(labels[sub] == lab) for lab in range(1, r + 1)])
        popular = 1 + int(np.argmax(sub_frac))
        if np.any(np.abs(cell_frac - sub_frac) > zeta):
            out[members] = popular
            continue
        for lab in range(1, r + 1):
            if sub_frac[lab - 1] < zeta:
                out[members & (labels == lab)] = popular
    return out
