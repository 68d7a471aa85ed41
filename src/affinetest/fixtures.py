"""Deterministic fixture generators: random tables, degree-d tables, planted
violations, linear and random factors, and the classic constraint families.

Everything is seeded and reproducible; planted violation densities are
recomputed exactly, never assumed from the construction.
"""
from __future__ import annotations

import numpy as np

from .field import FieldParams, FunctionTable, RealTable, index_digits, index_to_vec, rng_for
from .forms import AffineConstraint, ConstraintCollection, InducedConstraint
from .factor import PolynomialFactor
from .poly import Polynomial, monomials_up_to_degree
from .tester import violation_density
from . import gflinalg


def random_function(p: int, n: int, r: int, seed: int) -> FunctionTable:
    params = FieldParams(p, n)
    rng = rng_for(seed, 0xF)
    return FunctionTable(params, r, rng.integers(1, r + 1, size=params.size, dtype=np.int64))


def random_real_table(p: int, n: int, seed: int, lo: float = -1.0, hi: float = 1.0) -> RealTable:
    params = FieldParams(p, n)
    rng = rng_for(seed, 0x1E)
    return RealTable(params, rng.uniform(lo, hi, size=params.size))


def degree_d_table(p: int, n: int, d: int, seed: int) -> FunctionTable:
    """A table of a random polynomial of degree <= d; labels = values + 1, R = p."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    params = FieldParams(p, n)
    rng = rng_for(seed, 0xD)
    monos = monomials_up_to_degree(p, n, d)
    coeffs = {e: int(rng.integers(0, p)) for e in monos}
    poly = Polynomial.from_monomials(p, n, coeffs)
    return FunctionTable(params, p, poly.values() + 1)


def random_polynomial(p: int, n: int, d: int, rng: np.random.Generator) -> Polynomial:
    """Random polynomial of degree exactly d (nonzero top part)."""
    if not 0 <= d <= n * (p - 1):
        raise ValueError(f"degree must lie in [0, n(p - 1)] = [0, {n * (p - 1)}], got {d}")
    monos = monomials_up_to_degree(p, n, d)
    while True:
        coeffs = {e: int(rng.integers(0, p)) for e in monos}
        poly = Polynomial.from_monomials(p, n, coeffs)
        if poly.degree == d:
            return poly


def linear_factor(p: int, n: int, c: int, seed: int) -> PolynomialFactor:
    """C degree-1 polynomials with linearly independent linear parts."""
    if c > n:
        raise ValueError("cannot have more than n independent linear polynomials")
    rng = rng_for(seed, 0x11)
    rows: list[np.ndarray] = []
    while len(rows) < c:
        vec = rng.integers(0, p, size=n, dtype=np.int64)
        if not gflinalg.in_rowspan(rows, vec, p):
            rows.append(vec)
    return PolynomialFactor(tuple(Polynomial.linear(p, n, vec.tolist()) for vec in rows))


def random_factor(p: int, n: int, c: int, d: int, seed: int) -> PolynomialFactor:
    rng = rng_for(seed, 0x1F)
    return PolynomialFactor(tuple(random_polynomial(p, n, d, rng) for _ in range(c)))


def derivative_forms(p: int) -> AffineConstraint:
    """(X1, X1+X2, X1+X3, X1+X2+X3): the second-derivative constraint forms."""
    rows = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    return AffineConstraint.from_rows(p, rows)


def blr_constraint(p: int, sigma) -> InducedConstraint:
    return InducedConstraint(derivative_forms(p), tuple(sigma))


def derivative_collection(p: int) -> ConstraintCollection:
    """All induced constraints on the derivative forms whose pattern breaks
    the identity s1 - s2 - s3 + s4 = 0 (labels are field values + 1).

    A table with R = p is free of this whole family exactly when it is a
    polynomial of degree at most 1.
    """
    a = derivative_forms(p)
    members = []
    for flat in range(p**4):
        s = index_to_vec(flat, FieldParams(p, 4))
        if (s[0] - s[1] - s[2] + s[3]) % p != 0:
            members.append(InducedConstraint(a, tuple(v + 1 for v in s)))
    return ConstraintCollection(tuple(members))


def ap_constraint(p: int, k: int, sigma=None) -> InducedConstraint:
    """k-term arithmetic progression forms (X1, X1+X2, ..., X1+(k-1)X2)."""
    if not 1 <= k <= p:
        raise ValueError(f"k-term AP needs 1 <= k <= p for distinct forms, got k = {k}")
    rows = [(1, j % p) for j in range(k)]
    a = AffineConstraint.from_rows(p, rows)
    if sigma is None:
        sigma = tuple([1] * k)
    return InducedConstraint(a, tuple(sigma))


def layered_table(
    p: int,
    n: int,
    seed: int,
    deep_cells: int = 1,
    quarter: bool = False,
) -> FunctionTable:
    """Two-scale fixture for super-decomposition studies (p = 2 only).

    The bulk structure is a majority pattern on a random invertible affine
    image of (x_1, x_2, x_3), so every coarse character is strong and a
    robust factor needs the full 3-dimensional span.  On top, `deep_cells`
    of the 8 coarse cells get a weak dependence on x_4 (half-cell contrast),
    or on (x_4, x_5) quarters when `quarter` is set; its characters are too
    weak for the coarse factor but force exactly the deeper refinement.
    """
    if p != 2 or n < 5:
        raise ValueError("layered fixture is built for p = 2, n >= 5")
    params = FieldParams(p, n)
    rng = rng_for(seed, 0x2A)
    mat = gflinalg.random_invertible(rng, 3, 2)
    consts = rng.integers(0, 2, size=3)
    coords = index_digits(np.arange(params.size), params).T
    base3 = (mat @ coords[:3] + consts[:, None]) % 2
    mask = Polynomial.linear(2, n, [int(v) for v in rng.integers(0, 2, size=3)] + [0] * (n - 3),
                             int(rng.integers(0, 2))).values()
    maj = (base3.sum(axis=0) >= 2).astype(np.int64)
    labels = 1 + (maj ^ mask)
    cell_id = base3[0] + 2 * base3[1] + 4 * base3[2]
    chosen = rng.choice(8, size=deep_cells, replace=False)
    deep = np.isin(cell_id, chosen)
    if quarter:
        block = (coords[3] == 1) & (coords[4] == 1)
    else:
        block = coords[3] == 1
    flip = deep & block
    labels = np.where(flip, 3 - labels, labels)
    return FunctionTable(params, 2, labels)


def planted_violations(
    p: int, n: int, flips: int, seed: int
) -> tuple[FunctionTable, ConstraintCollection, dict[tuple[int, ...], float]]:
    """Degree-1 table with `flips` random points relabeled, plus the exact
    violation density against every member of the derivative family."""
    base = degree_d_table(p, n, 1, seed)
    rng = rng_for(seed, 0x7)
    vals = np.array(base.values)
    for idx in rng.choice(base.params.size, size=min(flips, base.params.size), replace=False):
        old = vals[idx]
        new = 1 + int(rng.integers(0, p - 1))
        vals[idx] = new if new < old else new + 1
    f = base.with_values(vals)
    family = derivative_collection(p)
    densities = {ic.sigma: violation_density(f, ic) for ic in family.members}
    return f, family, densities
