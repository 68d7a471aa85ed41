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
from functools import lru_cache
from pathlib import Path

import numpy as np

MAX_DOMAIN_BITS = 62


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime modulus p and domain dimension n for functions on F_p^n."""

    p: int
    n: int

    def __post_init__(self):
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


def index_to_vec(idx: int, params: FieldParams) -> tuple[int, ...]:
    """Inverse of canonical_index."""
    if not 0 <= idx < params.size:
        raise ValueError("index out of range")
    coords = []
    for _ in range(params.n):
        idx, c = divmod(idx, params.p)
        coords.append(c)
    return tuple(coords)


@lru_cache(maxsize=64)
def domain_coords(params: FieldParams) -> np.ndarray:
    """(n, p^n) array: row i holds coordinate i+1 of every domain point."""
    n, p, size = params.n, params.p, params.size
    coords = np.empty((n, size), dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    for i in range(n):
        coords[i] = idx % p
        idx //= p
    coords.setflags(write=False)
    return coords


def vec_add(x, y, p: int) -> tuple[int, ...]:
    return tuple((a + b) % p for a, b in zip(x, y, strict=True))


def vec_scale(c: int, x, p: int) -> tuple[int, ...]:
    return tuple((c * a) % p for a in x)


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

    One n-dimensional inverse FFT over the (p,)*n cube of the table.  The last
    axis of `values` is the table; leading axes hold independent tables,
    transformed together.
    """
    v = np.asarray(values)
    if params.n == 0:
        return v.astype(complex)
    cube = v.reshape(v.shape[:-1] + (params.p,) * params.n)
    return np.fft.ifftn(cube, axes=tuple(range(-params.n, 0))).reshape(v.shape)


@dataclass(frozen=True)
class FunctionTable:
    """Dense table of a function F_p^n -> [R]; values are 1-based labels."""

    params: FieldParams
    range_size: int
    values: np.ndarray

    def __post_init__(self):
        if self.range_size < 1:
            raise ValueError("range_size must be >= 1")
        vals = np.asarray(self.values, dtype=np.int64)
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
        return tuple(self.indicator_slice(i) for i in range(1, self.range_size + 1))

    def as_real(self) -> "RealTable":
        return RealTable(self.params, self.values.astype(np.float64))

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
    ell = len(pts)
    sub = FieldParams(p, ell - 1)
    size = sub.size
    # index of x_1 + sum_j c_j x_j per coordinate, vectorized over the c-grid
    coeffs = domain_coords(sub) if ell > 1 else np.zeros((0, 1), dtype=np.int64)
    idx = np.zeros(size, dtype=np.int64)
    for t in range(n):
        digit = np.full(size, pts[0][t], dtype=np.int64)
        for j in range(1, ell):
            digit += coeffs[j - 1] * pts[j][t]
        idx += (digit % p) * p**t
    return FunctionTable(sub, f.range_size, f.values[idx])


# --- table file formats ---------------------------------------------------
#
# Function table: line 1 "p n R", line 2 the p^n labels in canonical order.
# Real table:     line 1 "p n",   line 2 the p^n reals (repr round-trip).


def dump_function_table(f: FunctionTable) -> str:
    head = f"{f.params.p} {f.params.n} {f.range_size}"
    body = " ".join(str(int(v)) for v in f.values)
    return head + "\n" + body + "\n"


def parse_function_table(text: str) -> FunctionTable:
    lines = text.split("\n")
    p, n, r = (int(t) for t in lines[0].split())
    vals = [int(t) for t in lines[1].split()]
    return FunctionTable(FieldParams(p, n), r, np.array(vals, dtype=np.int64))


def save_function_table(f: FunctionTable, path) -> None:
    Path(path).write_text(dump_function_table(f))


def load_function_table(path) -> FunctionTable:
    return parse_function_table(Path(path).read_text())


def dump_real_table(f: RealTable) -> str:
    head = f"{f.params.p} {f.params.n}"
    body = " ".join(repr(float(v)) for v in f.values)
    return head + "\n" + body + "\n"


def parse_real_table(text: str) -> RealTable:
    lines = text.split("\n")
    p, n = (int(t) for t in lines[0].split())
    vals = [float(t) for t in lines[1].split()]
    return RealTable(FieldParams(p, n), np.array(vals, dtype=np.float64))


def save_real_table(f: RealTable, path) -> None:
    Path(path).write_text(dump_real_table(f))


def load_real_table(path) -> RealTable:
    return parse_real_table(Path(path).read_text())
