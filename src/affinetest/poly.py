"""Multivariate polynomials F_p^n -> F_p in canonical reduced form.

The reduction x^p = x is applied at construction, so exponents live in
[0, p-1] and equality of Polynomial objects is equality of the functions'
canonical representations.  Coefficients are stored in [1, p-1]; zero terms
are dropped.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FieldParams, domain_coords


def _reduce_exponent(e: int, p: int) -> int:
    if e <= 0:
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

    def constant_part(self) -> int:
        for e, c in self.terms:
            if sum(e) == 0:
                return c
        return 0

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
        """Values on the whole domain in canonical order (read-only array)."""
        return _poly_values(self)

    def __str__(self) -> str:
        def mono(e, c):
            parts = [] if c == 1 and any(e) else [str(c)]
            parts += [f"x{i+1}" if k == 1 else f"x{i+1}^{k}" for i, k in enumerate(e) if k]
            return "*".join(parts)

        return " + ".join(mono(e, c) for e, c in self.terms) if self.terms else "0"


@lru_cache(maxsize=4096)
def _poly_values(poly: Polynomial) -> np.ndarray:
    params, p = poly.params, poly.p
    # the degree <= 1 part as an outer sum, coordinate t + 1 at place value
    # p^t, up to the last coordinate it depends on, then repeated over the
    # rest of the domain; then one pass per higher term
    linear = poly.linear_part()
    top = max((t + 1 for t, c in enumerate(linear) if c), default=0)
    acc = np.array([poly.constant_part()], dtype=np.int64)
    digits = np.arange(p, dtype=np.int64)[:, None]
    for c in linear[:top]:
        acc = (acc + c * digits).ravel()
    acc = np.tile(acc, p ** (params.n - top))
    for e, c in poly.terms:
        if sum(e) <= 1:
            continue
        coords = domain_coords(params)
        term = np.full(params.size, c, dtype=np.int64)
        for t, et in enumerate(e):
            if et == 1:
                term = term * coords[t] % p
            elif et:
                powers = np.array([pow(x, et, p) for x in range(p)], dtype=np.int64)
                term = term * powers[coords[t]] % p
        acc += term
    acc %= p
    acc.setflags(write=False)
    return acc


def monomials_up_to_degree(p: int, n: int, d: int) -> list[tuple[int, ...]]:
    """Canonical reduced monomials of total degree <= d, sorted by
    (degree, exponent vector); the constant monomial comes first."""
    monos = [
        e
        for e in itertools.product(range(min(p - 1, d) + 1), repeat=n)
        if sum(e) <= d
    ]
    return sorted(monos, key=lambda e: (sum(e), e))
