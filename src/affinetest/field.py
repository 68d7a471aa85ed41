"""Exact arithmetic over F_p^n: domain enumeration, function tables, distances,
and restriction to affine subspaces.

Vectors in F_p^n are plain tuples of ints reduced mod p.  Tables store one
entry per domain point in canonical order

    index(x) = sum_i x_i * p**(i-1)        (coordinate 1 varies fastest)

which is the little-endian radix-p order used consistently across the whole
package and its file formats.  Labels are 1-based: a function into [R] takes
values in {1, ..., R}.  All types are immutable after construction and every
operation is a pure function.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_DOMAIN_BITS = 62
# the one enumeration budget: tuple grids, domains and cell spaces walked at
# once, and the bound on dense per-cell arrays past the domain's size
ENUM_BUDGET = 1 << 24


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


def rng_for(seed: int, *scope: int) -> np.random.Generator:
    """The seeded stream of `scope` under `seed`:
    default_rng(SeedSequence((seed, *scope))), which for no scope is the
    stream of default_rng(seed)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *scope)))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < 2^64: the first twelve primes as
    bases decide primality exactly below 3.18 * 10^23."""
    if p >= 2**64:
        raise ValueError(f"primality of {p} is decided only below 2^64")
    if p <= _MR_BASES[-1]:
        return p in _MR_BASES
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime modulus p and domain dimension n for functions on F_p^n."""

    p: int
    n: int

    def __post_init__(self):
        if self.p >= 2**MAX_DOMAIN_BITS:
            raise ValueError(f"p={self.p} overflows the index type (p < 2^{MAX_DOMAIN_BITS})")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.n * math.log2(self.p) > MAX_DOMAIN_BITS:
            raise ValueError(f"domain size p^n = {self.p}^{self.n} overflows the index type")

    @property
    def size(self) -> int:
        return self.p**self.n


def canonical_index(x, params: FieldParams) -> int:
    """Little-endian radix-p index of a vector; bijective with [0, p^n)."""
    if len(x) != params.n:
        raise ValueError(f"expected {params.n} coordinates, got {len(x)}")
    idx = 0
    for i in reversed(range(params.n)):
        c = x[i] % params.p
        idx = idx * params.p + c
    return idx


def digit_index(x, params: FieldParams, what: str) -> int:
    """canonical_index of a point given by its digits, which must be n
    digits in [0, p); otherwise a ValueError names the point as `what`."""
    if len(x) != params.n:
        raise ValueError(f"{what} needs {params.n} digit(s), got {len(x)}")
    if not all(0 <= v < params.p for v in x):
        raise ValueError(f"{what} digits must lie in [0, {params.p}), got {' '.join(map(str, x))}")
    return canonical_index(x, params)


def index_to_vec(idx: int, params: FieldParams) -> tuple[int, ...]:
    """Inverse of canonical_index."""
    if not 0 <= idx < params.size:
        raise ValueError("index out of range")
    coords = []
    for _ in range(params.n):
        idx, c = divmod(idx, params.p)
        coords.append(c)
    return tuple(coords)


def index_digits(indices, params: FieldParams) -> np.ndarray:
    """Coordinates of many points at once: shape (..., n) for `indices` of
    shape (...), last axis x_1, ..., x_n (vectorized index_to_vec)."""
    place = params.p ** np.arange(params.n, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[..., None] // place % params.p


def canonical_indices(points, params: FieldParams) -> np.ndarray:
    """Canonical indices of many points at once: shape (...) for `points` of
    shape (..., n), coordinates reduced mod p (vectorized canonical_index)."""
    place = params.p ** np.arange(params.n, dtype=np.int64)
    return (np.asarray(points, dtype=np.int64) % params.p) @ place


def e_p(a: int, p: int) -> complex:
    """The complex number e^(2*pi*i*a/p) for a field element a in [0, p)."""
    if not 0 <= a < p:
        raise ValueError("field element out of range")
    return cmath.exp(2j * cmath.pi * a / p)


def unit_roots(p: int) -> np.ndarray:
    """All p-th roots of unity, index a -> e_p(a, p).

    p = 2 returns exactly (1, -1) so characteristic-2 bias sums are exact.
    """
    if p == 2:
        return np.array([1.0, -1.0], dtype=complex)
    return np.exp(2j * np.pi * np.arange(p) / p)


def fourier_means(values, params: FieldParams) -> np.ndarray:
    """E_x v(x) e_p(lambda . x) for every lambda in F_p^n, in canonical order.

    The last axis of `values` is the table; leading axes hold independent
    tables, transformed together.  The result has the same shape.  At p >= 3
    it is complex128: one n-dimensional inverse FFT over the (p,)*n cube of
    the table.  At p = 2 it is the Walsh-Hadamard transform, run in place as n
    butterfly passes, coordinate 1 (the cube's last axis) first: on every
    pair (a, b) of entries 2^j apart, a + b and a - b, then the whole array
    times 1/2.  Those are the additions and scalings of the inverse FFT's
    length-2 passes in its order, so the result is bit-identical to it,
    without n FFT calls and their axis copies.  The Walsh spectrum of a real
    table is real, so real and integer tables run and come back in float64
    (the inverse FFT's real part, its imaginary part being exactly 0), and
    complex ones in complex128.
    """
    v = np.asarray(values)
    p, n = params.p, params.n
    if p == 2:
        a = np.array(v, dtype=np.complex128 if np.iscomplexobj(v) else np.float64, order="C")
        for j in range(n):
            # every 2^(j+1)-block lies inside one table, so leading axes fold in
            pairs = a.reshape(-1, 2, 1 << j)
            lo, hi = pairs[:, 0], pairs[:, 1]
            total = lo + hi
            np.subtract(lo, hi, out=hi)
            lo[...] = total
            a *= 0.5
        return a
    if n == 0:
        return v.astype(complex)
    cube = v.reshape(v.shape[:-1] + (p,) * n)
    return np.fft.ifftn(cube, axes=tuple(range(-n, 0))).reshape(v.shape)


@dataclass(frozen=True)
class FunctionTable:
    """Dense table of a function F_p^n -> [R]; values are 1-based labels."""

    params: FieldParams
    range_size: int
    values: np.ndarray

    def __post_init__(self):
        if self.range_size < 1:
            raise ValueError("range_size must be >= 1")
        try:
            vals = np.asarray(self.values, dtype=np.int64)
        except OverflowError:
            raise ValueError("labels must lie in [1, R] and fit in int64") from None
        if vals.shape != (self.params.size,):
            raise ValueError(f"expected {self.params.size} values, got {vals.shape}")
        if vals.size and (vals.min() < 1 or vals.max() > self.range_size):
            raise ValueError("labels must lie in [1, R]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x) -> int:
        return int(self.values[canonical_index(x, self.params)])

    def indicator_slice(self, label: int) -> "RealTable":
        """The {0,1}-valued slice of points attaining `label`."""
        if not 1 <= label <= self.range_size:
            raise ValueError("label out of range")
        return RealTable(self.params, (self.values == label).astype(np.float64))

    def slices(self) -> tuple["RealTable", ...]:
        """The R indicator slices, or BudgetError before any is built when R
        exceeds max(p^n, ENUM_BUDGET) (a range wider than the domain)."""
        bound = max(self.params.size, ENUM_BUDGET)
        if self.range_size > bound:
            raise BudgetError(f"R = {self.range_size} slices exceed max(p^n, budget) = {bound}")
        return tuple(self.indicator_slice(i) for i in range(1, self.range_size + 1))

    def with_values(self, values) -> "FunctionTable":
        return FunctionTable(self.params, self.range_size, values)


@dataclass(frozen=True)
class RealTable:
    """Dense table of a function F_p^n -> R (double precision, all finite)."""

    params: FieldParams
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.params.size,):
            raise ValueError(f"expected {self.params.size} values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x) -> float:
        return float(self.values[canonical_index(x, self.params)])

    def mean(self) -> float:
        return float(self.values.mean())

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))


def distance(f: FunctionTable, g: FunctionTable) -> float:
    """Exact fraction of points where f and g disagree."""
    c, t = disagreement_count(f, g)
    return c / t


def disagreement_count(f: FunctionTable, g: FunctionTable) -> tuple[int, int]:
    """(number of disagreeing points, domain size) as exact integers."""
    if f.params != g.params or f.range_size != g.range_size:
        raise ValueError("tables have mismatched shape")
    return int(np.count_nonzero(f.values != g.values)), f.params.size


def combination_indices(indices, coeffs, params: FieldParams) -> np.ndarray:
    """Canonical indices of fixed linear combinations of many point tuples.

    `indices` has shape (..., l) and holds the canonical indices of the
    points x_1, ..., x_l; `coeffs` has shape (k, l).  Entry i of the result's
    last axis (shape (..., k)) is the index of sum_j coeffs[i, j] x_j.  No
    coordinate array is built.  At p = 2, index(x + y) = index(x) XOR
    index(y), so each combination is the XOR of the indices whose
    coefficient is odd.  At p >= 3 each of n passes peels one radix-p digit
    off every index (coordinate t + 1 of every point) and adds that
    coordinate's combinations at place value p^t.
    """
    p = params.p
    idx = np.asarray(indices, dtype=np.int64)
    cols = np.asarray(coeffs, dtype=np.int64).T % p
    out = np.zeros(idx.shape[:-1] + cols.shape[1:], dtype=np.int64)
    if p == 2:
        for j, i in zip(*np.nonzero(cols)):
            out[..., i] ^= idx[..., j]
        return out
    rest = idx
    for t in range(params.n):
        rest, digits = np.divmod(rest, p)
        out += (digits @ cols % p) * p**t
    return out


def affine_span_indices(indices, params: FieldParams) -> np.ndarray:
    """Canonical indices of the affine spans of many point tuples at once.

    `indices` has shape (trials, l) and holds canonical point indices; row c
    of the result (trials, p^(l-1)) holds the index of x_1 + sum_j c_j
    x_(j+1) for every c in F_p^(l-1) in canonical order, from one
    combination_indices call.
    """
    idx = np.asarray(indices, dtype=np.int64)
    sub = FieldParams(params.p, idx.shape[-1] - 1)
    span = index_digits(np.arange(sub.size), sub)
    return combination_indices(idx, np.hstack([np.ones((len(span), 1), np.int64), span]), params)


def restrict_to_affine_span(f: FunctionTable, points) -> FunctionTable:
    """Restrict f to the affine span of x_1, ..., x_l.

    Returns g over F_p^(l-1) with g(c_2, ..., c_l) = f(x_1 + sum_j c_j x_j).
    The span is taken through x_1 with directions x_2, ..., x_l; degenerate
    direction lists are allowed and simply repeat values.
    """
    pts = [tuple(q) for q in points]
    if not pts:
        raise ValueError("need at least one point")
    p, n = f.params.p, f.params.n
    for q in pts:
        if len(q) != n:
            raise ValueError("point dimension mismatch")
    rows = canonical_indices(np.array(pts, dtype=np.int64).reshape(1, len(pts), n), f.params)
    idx = affine_span_indices(rows, f.params)[0]
    return FunctionTable(FieldParams(p, len(pts) - 1), f.range_size, f.values[idx])


# --- table file formats ---------------------------------------------------
#
# Function table: line 1 "p n R", line 2 the p^n labels in canonical order.
# Real table:     line 1 "p n",   line 2 the p^n reals (repr round-trip).


def dump_function_table(f: FunctionTable) -> str:
    head = f"{f.params.p} {f.params.n} {f.range_size}"
    body = " ".join(map(str, f.values.tolist()))
    return head + "\n" + body + "\n"


def _split_table(text: str, header: str) -> tuple[list[int], list[str]]:
    """A table file's header integers, named by `header` ("p n R"), and its
    value tokens; the file must hold exactly those two lines."""
    lines = text.strip().split("\n")
    if len(lines) != 2:
        raise ValueError(f"table needs a header line {header!r} and one line of values")
    head = lines[0].split()
    if len(head) != len(header.split()):
        raise ValueError(f"table header needs the integers {header!r}, got {lines[0]!r}")
    return [int(t) for t in head], lines[1].split()


def parse_function_table(text: str) -> FunctionTable:
    """FunctionTable reads the label tokens in one int64 pass, as int() does."""
    (p, n, r), vals = _split_table(text, "p n R")
    return FunctionTable(FieldParams(p, n), r, vals)


def save_function_table(f: FunctionTable, path) -> None:
    Path(path).write_text(dump_function_table(f))


def load_function_table(path) -> FunctionTable:
    return parse_function_table(Path(path).read_text())


def dump_real_table(f: RealTable) -> str:
    head = f"{f.params.p} {f.params.n}"
    body = " ".join(map(repr, f.values.tolist()))
    return head + "\n" + body + "\n"


def parse_real_table(text: str) -> RealTable:
    (p, n), vals = _split_table(text, "p n")
    return RealTable(FieldParams(p, n), np.array([float(t) for t in vals], dtype=np.float64))


def save_real_table(f: RealTable, path) -> None:
    Path(path).write_text(dump_real_table(f))


def load_real_table(path) -> RealTable:
    return parse_real_table(Path(path).read_text())
