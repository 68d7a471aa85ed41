"""Multivariate polynomials F_p^n -> F_p in canonical reduced form.

The reduction x^p = x is applied at construction, so exponents live in
[0, p-1] and equality of Polynomial objects is equality of the functions'
canonical representations.  Coefficients are stored in [1, p-1]; zero terms
are dropped.

Values on the whole domain come from one tensor transform, whatever the
degree and number of terms: the coefficients of all the terms, constant and
linear ones included, are scattered to the canonical indices of their
exponent vectors, and the p x p matrix V[x, e] = x^e mod p is applied along
every coordinate they depend on (at p = 2, the binary Moebius transform).
That is top * p^top small-integer operations for the last coordinate `top`
any of them touches (times the number of exponents in use per coordinate at
p >= 3).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FieldParams


def _reduce_exponent(e: int, p: int) -> int:
    if e < 0:
        raise ValueError(f"exponent {e} is negative")
    if e == 0:
        return 0
    return (e - 1) % (p - 1) + 1 if p > 2 else 1


@dataclass(frozen=True)
class Polynomial:
    """Canonical polynomial: sorted tuple of (exponent vector, coefficient)."""

    p: int
    n: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_monomials(cls, p: int, n: int, monomials: dict) -> "Polynomial":
        acc: dict[tuple[int, ...], int] = {}
        for expts, coeff in monomials.items():
            if len(expts) != n:
                raise ValueError("exponent vector length mismatch")
            key = tuple(_reduce_exponent(int(e), p) for e in expts)
            acc[key] = (acc.get(key, 0) + int(coeff)) % p
        terms = tuple(sorted((e, c) for e, c in acc.items() if c))
        return cls(p, n, terms)

    @classmethod
    def zero(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n, ())

    @classmethod
    def coordinate(cls, p: int, n: int, i: int) -> "Polynomial":
        """The polynomial x_i (1-based coordinate)."""
        e = [0] * n
        e[i - 1] = 1
        return cls.from_monomials(p, n, {tuple(e): 1})

    @classmethod
    def linear(cls, p: int, n: int, coeffs, constant: int = 0) -> "Polynomial":
        monos: dict[tuple[int, ...], int] = {}
        for i, c in enumerate(coeffs):
            if c % p:
                e = [0] * n
                e[i] = 1
                monos[tuple(e)] = c % p
        if constant % p:
            monos[(0,) * n] = constant % p
        return cls.from_monomials(p, n, monos)

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    @property
    def params(self) -> FieldParams:
        return FieldParams(self.p, self.n)

    def linear_part(self) -> tuple[int, ...]:
        """Coefficient vector of the degree-1 monomials."""
        out = [0] * self.n
        for e, c in self.terms:
            if sum(e) == 1:
                out[e.index(1)] = c
        return tuple(out)

    def eval_point(self, x) -> int:
        total = 0
        for e, c in self.terms:
            v = c
            for xi, ei in zip(x, e):
                if ei:
                    v = v * pow(int(xi) % self.p, ei, self.p) % self.p
            total += v
        return total % self.p

    def values(self) -> np.ndarray:
        """Values on the whole domain in canonical order, as a read-only
        array of the narrowest dtype that holds p - 1 (`residue_dtype`).
        Arithmetic on it stays in that dtype, so a caller that scales or sums
        the values widens them first."""
        return _poly_values(self)

    def __str__(self) -> str:
        def mono(e, c):
            parts = [] if c == 1 and any(e) else [str(c)]
            parts += [f"x{i+1}" if k == 1 else f"x{i+1}^{k}" for i, k in enumerate(e) if k]
            return "*".join(parts)

        return " + ".join(mono(e, c) for e, c in self.terms) if self.terms else "0"


def _narrowest(bound: int, dtypes):
    """The first of `dtypes` whose maximum is at least bound (object when
    none is)."""
    return next((d for d in dtypes if bound <= np.iinfo(d).max), object)


def residue_dtype(p: int):
    """The dtype of polynomial value tables over F_p: uint8 for p < 2^8,
    uint16 for p < 2^16, uint32 for p < 2^32 and int64 above, the narrowest
    that holds every residue (and, p being prime, p itself)."""
    return _narrowest(p - 1, (np.uint8, np.uint16, np.uint32, np.int64))


@lru_cache(maxsize=4096)
def _poly_values(poly: Polynomial) -> np.ndarray:
    """Values on F_p^n in canonical order, as a read-only array of
    `residue_dtype(p)`: the one tensor transform of all the terms
    (`_transform_values`), broadcast over the coordinates no term depends
    on."""
    part = _transform_values(poly.terms, poly.p)
    out = np.empty(poly.p**poly.n, dtype=residue_dtype(poly.p))
    out.reshape((-1,) + (poly.p,) * part.ndim)[...] = part
    out.setflags(write=False)
    return out


def _reduce(v: np.ndarray, p: int) -> np.ndarray:
    """v mod p in place, for v >= 0: by floor division, which numpy runs
    several times faster than its remainder on small integer dtypes."""
    v -= v // p * p
    return v


def _transform_values(terms, p: int) -> np.ndarray:
    """Sum of the given terms, reduced mod p: an array with one axis per
    coordinate of their exponent vectors, the last coordinate first (the
    C-order view of canonical order), of length 1 on the coordinates no term
    depends on and p on the k others (no axes when there are no terms).

    The coefficients are scattered to the canonical indices of their
    exponent vectors restricted to those k coordinates, and each of them is
    then transformed by the p x p matrix V[x, e] = x^e mod p (0^0 = 1)
    along its axis, restricted to the exponents that occur there.  At p = 2
    that is the binary Moebius transform, one XOR of half the array per
    coordinate, done on the widest machine words the block size allows.  At
    p >= 3 each coordinate is one small-integer einsum, whose sums add one
    product of two residues per exponent in use; the dtype holds the largest
    such sum (Python integers past uint64), so none overflows before the
    reduction.  The work is k passes over p^k entries (times the number of
    exponents in use at p >= 3), k <= n, however many terms there are.
    """
    cols = list(zip(*(e for e, _ in terms)))  # each coordinate's exponents, term by term
    used = [t for t, col in enumerate(cols) if any(col)]
    k = len(used)
    exps = [tuple(sorted(set(cols[t]))) for t in used]
    bound = max(map(len, exps), default=1) * (p - 1) ** 2
    dtype = _narrowest(bound, (np.uint8, np.uint16, np.uint32, np.uint64))
    place = [0] * len(cols)
    for j, t in enumerate(used):
        place[t] = p**j
    v = np.zeros(p**k, dtype=dtype)
    for e, c in terms:
        v[sum(map(operator.mul, e, place))] = c
    if p == 2:
        for j in range(k):
            w = min(j, 3)
            half = v.view(f"u{2**w}").reshape(-1, 2, 2 ** (j - w))
            half[:, 1, :] ^= half[:, 0, :]
    else:
        tables = {e: _power_table(p, e).astype(dtype) for e in set(exps)}
        for j, axis_exps in enumerate(exps):
            axis = v.reshape(-1, p, p**j)[:, axis_exps, :]
            v = _reduce(np.einsum("xe,aeb->axb", tables[axis_exps], axis).ravel(), p)
    return v.reshape([p if x else 1 for x in reversed(place)])


def _power_table(p: int, exps) -> np.ndarray:
    """V[x, e] = x^e mod p (0^0 = 1) for every x in F_p and the given
    exponents, as int64 by square-and-multiply over arange(p): exact while
    p^2 < 2^63, which holds for every p whose p-entry table fits in memory."""
    squares = [np.arange(p, dtype=np.int64)]  # x^(2^b) mod p, shared by the exponents
    out = np.ones((len(exps), p), dtype=np.int64)
    for row, e in zip(out, exps):
        for b in range(e.bit_length()):
            if b == len(squares):
                squares.append(squares[-1] * squares[-1] % p)
            if e >> b & 1:
                row[...] = row * squares[b] % p
    return out.T


def monomials_up_to_degree(p: int, n: int, d: int) -> list[tuple[int, ...]]:
    """Canonical reduced monomials of total degree <= d, sorted by
    (degree, exponent vector); the constant monomial comes first.

    Only the exponent vectors of degree <= d are visited: the degree-t ones
    are the multisets of t coordinates (sets at p = 2) with no coordinate
    taken more than p - 1 times.  Itertools lists them in lexicographic order
    of the sorted coordinates, the reverse of their exponent vectors' order.
    """
    top = min(p - 1, d)
    out = []
    for t in range(d + 1):
        if top == 1:
            picks = itertools.combinations(range(n), t)
        else:
            picks = itertools.combinations_with_replacement(range(n), t)
        level = []
        for pick in picks:
            e = [0] * n
            for i in pick:
                e[i] += 1
            if max(e, default=0) <= top:
                level.append(tuple(e))
        out += reversed(level)
    return out
