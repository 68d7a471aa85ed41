"""Polynomial factors: cell partitions of F_p^n defined by a polynomial
sequence, conditional expectations, density and degree indices, bias
certificates, refinement relations, representation, and pattern probabilities
inside cells.

Rank of a factor is never computed from its definition (infeasible); the
operational substitute everywhere is the bias certificate, the maximum
exponential bias over nonzero combinations of the defining polynomials.
Exact rank statements are made only for degree-1 factors, where full rank is
affine independence of the polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import gflinalg
from .field import BudgetError, FieldParams, FunctionTable, RealTable, fourier_means, unit_roots
from .forms import AffineConstraint, CellImage, consistency_check, mixed_dimension, scan_grid
from .gowers import polynomial_bias
from .poly import Polynomial

DEFAULT_BIAS_BUDGET = 1 << 16
DEFAULT_ENUM_BUDGET = 1 << 24


@dataclass(frozen=True)
class PolynomialFactor:
    """Ordered sequence of polynomials F_p^n -> F_p; cells are joint preimages."""

    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        shared = {(q.p, q.n) for q in self.polys}
        if len(shared) > 1:
            raise ValueError("factor polynomials must share (p, n)")

    @classmethod
    def trivial(cls) -> "PolynomialFactor":
        return cls(())

    @property
    def complexity(self) -> int:
        return len(self.polys)

    @property
    def degree(self) -> int:
        return max((q.degree for q in self.polys), default=0)

    def params(self, default: FieldParams | None = None) -> FieldParams:
        if self.polys:
            return self.polys[0].params
        if default is None:
            raise ValueError("empty factor carries no domain; pass params explicitly")
        return default

    def degree_list(self) -> tuple[int, ...]:
        return tuple(q.degree for q in self.polys)

    def extend(self, poly: Polynomial) -> "PolynomialFactor":
        return PolynomialFactor(self.polys + (poly,))

    def is_syntactic_refinement_of(self, other: "PolynomialFactor") -> bool:
        return self.polys[: other.complexity] == other.polys


@lru_cache(maxsize=1024)
def _cell_index_array(factor: PolynomialFactor, params: FieldParams) -> np.ndarray:
    """Flat little-endian cell index of every domain point."""
    idx = np.zeros(params.size, dtype=np.int64)
    for i, q in enumerate(factor.polys):
        idx += q.values() * q.p**i
    idx.setflags(write=False)
    return idx


def cell_index_array(factor: PolynomialFactor, params: FieldParams | None = None) -> np.ndarray:
    return _cell_index_array(factor, factor.params(params))


def eval_factor(factor: PolynomialFactor, x) -> tuple[int, ...]:
    """Componentwise evaluation: the cell image of x."""
    return tuple(q.eval_point(x) for q in factor.polys)


def cell_of_index(flat: int, factor: PolynomialFactor) -> tuple[int, ...]:
    p = factor.polys[0].p if factor.polys else 2
    out = []
    for _ in range(factor.complexity):
        flat, digit = divmod(flat, p)
        out.append(digit)
    return tuple(out)


def cell_histogram(
    factor: PolynomialFactor,
    params: FieldParams | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict[tuple[int, ...], int]:
    """Exact point counts per cell image, by full enumeration."""
    params = factor.params(params)
    if params.size > budget:
        raise BudgetError("domain exceeds enumeration budget")
    p = params.p
    counts = np.bincount(cell_index_array(factor, params), minlength=p**factor.complexity)
    return {cell_of_index(i, factor): int(c) for i, c in enumerate(counts)}


def conditional_expectation(f: RealTable, factor: PolynomialFactor) -> RealTable:
    """E[f|B]: the per-cell mean of f, constant on every cell.

    For a FunctionTable, the caller picks the real view (an indicator slice
    or as_real cast) before calling.
    """
    params = f.params
    idx = cell_index_array(factor, params)
    ncells = factor.polys[0].p ** factor.complexity if factor.polys else 1
    counts = np.bincount(idx, minlength=ncells)
    sums = np.bincount(idx, weights=f.values, minlength=ncells)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return RealTable(params, means[idx])


def density_index(fs: Sequence[RealTable], factor: PolynomialFactor) -> float:
    """sum_i E[(E[f_i|B])^2]; monotone under refinement by Cauchy-Schwarz."""
    total = 0.0
    for f in fs:
        ce = conditional_expectation(f, factor)
        total += float(np.mean(ce.values**2))
    return total


@dataclass(frozen=True)
class DegreeIndex:
    """Counts of defining polynomials per exact degree, with the
    anti-lexicographic order (largest differing degree decides)."""

    counts: tuple[tuple[int, int], ...]  # sorted (degree, count), count > 0

    @classmethod
    def of(cls, factor: PolynomialFactor) -> "DegreeIndex":
        acc: dict[int, int] = {}
        for q in factor.polys:
            acc[q.degree] = acc.get(q.degree, 0) + 1
        return cls(tuple(sorted(acc.items())))

    def count(self, degree: int) -> int:
        return dict(self.counts).get(degree, 0)

    def __lt__(self, other: "DegreeIndex") -> bool:
        degrees = sorted(
            set(dict(self.counts)) | set(dict(other.counts)), reverse=True
        )
        for d in degrees:
            a, b = self.count(d), other.count(d)
            if a != b:
                return a < b
        return False

    def __le__(self, other: "DegreeIndex") -> bool:
        return self == other or self < other


def degree_index(factor: PolynomialFactor) -> DegreeIndex:
    return DegreeIndex.of(factor)


@dataclass(frozen=True)
class BiasCertificate:
    """Maximum |E e_p(sum lambda_i P_i)| over checked nonzero combinations."""

    max_bias: float
    checked_combinations: int
    exhaustive: bool


def bias_certificate(
    factor: PolynomialFactor,
    params: FieldParams | None = None,
    budget: int = DEFAULT_BIAS_BUDGET,
    seed: int = 0,
) -> BiasCertificate:
    """Max bias over nonzero lambda in F_p^C.

    Exhaustive when p^C - 1 <= budget: the bias of sum lambda_i P_i is
    |E_x e_p(lambda . B(x))|, the lambda-th Fourier coefficient of the cell
    histogram scaled by p^C / p^n, so one bincount and one p^C-point
    fourier_means score every lambda.  Otherwise the maximum runs over a
    seeded sample of `budget` combinations, each scored on the whole domain.
    """
    params = factor.params(params)
    p = params.p
    c = factor.complexity
    if c == 0:
        return BiasCertificate(0.0, 0, True)
    total = p**c - 1
    if total <= budget:
        counts = np.bincount(cell_index_array(factor, params), minlength=p**c)
        means = fourier_means(counts, FieldParams(p, c))
        return BiasCertificate(float(np.abs(means[1:]).max()) * (p**c / params.size), total, True)
    values = np.stack([q.values() for q in factor.polys])
    rng = np.random.default_rng(seed)
    lam_ids = rng.integers(1, p**c, size=budget, dtype=np.int64)
    lams = np.empty((len(lam_ids), c), dtype=np.int64)
    rem = lam_ids.copy()
    for i in range(c):
        lams[:, i] = rem % p
        rem //= p
    max_bias = 0.0
    roots = unit_roots(p)
    chunk = max(1, (1 << 22) // params.size)
    for start in range(0, len(lams), chunk):
        combo = lams[start : start + chunk] @ values % p
        sums = roots[combo].sum(axis=1)
        max_bias = max(max_bias, float(np.abs(sums).max() / params.size))
    return BiasCertificate(max_bias, len(lam_ids), False)


def is_semantic_refinement(
    fine: PolynomialFactor,
    coarse: PolynomialFactor,
    params: FieldParams | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> bool:
    """Exhaustive check that fine-cell equality implies coarse-cell equality."""
    if fine.polys:
        params = fine.params()
    elif coarse.polys:
        params = coarse.params()
    elif params is None:
        raise ValueError("two empty factors need explicit params")
    if params.size > budget:
        raise BudgetError("domain exceeds enumeration budget")
    fi = cell_index_array(fine, params)
    ci = cell_index_array(coarse, params)
    order = np.argsort(fi, kind="stable")
    fs, cs = fi[order], ci[order]
    starts = np.ones(len(fs), dtype=bool)
    starts[1:] = fs[1:] != fs[:-1]
    # coarse index must be constant within each fine-cell run
    rep = cs[starts][np.cumsum(starts) - 1]
    return bool(np.all(rep == cs))


def common_refinement(b: PolynomialFactor, b2: PolynomialFactor) -> PolynomialFactor:
    """Concatenate b with the polynomials of b2 not already present."""
    seen = set(b.polys)
    extra = tuple(q for q in b2.polys if q not in seen)
    return PolynomialFactor(b.polys + extra)


def represents(
    f: FunctionTable,
    fine: PolynomialFactor,
    coarse: PolynomialFactor,
    zeta: float,
    params: FieldParams | None = None,
) -> bool:
    """Whether the fine factor zeta-represents the coarse one w.r.t. f.

    True iff at most a zeta fraction of coarse cells have more than a zeta
    fraction of their nonempty subcells c' with |E[f^(i)|c] - E[f^(i)|c']| >
    zeta for some label i.  Empty subcells are skipped (the denominator counts
    nonempty subcells).
    """
    if not fine.is_syntactic_refinement_of(coarse):
        raise ValueError("fine factor must syntactically refine the coarse one")
    params = f.params
    p = params.p
    cc, cf = coarse.complexity, fine.complexity
    n_coarse, n_fine = p**cc, p**cf
    fi = cell_index_array(fine, params)
    counts_f = np.bincount(fi, minlength=n_fine)
    nonempty = counts_f > 0
    bad_sub = np.zeros(n_fine, dtype=bool)
    for label in range(1, f.range_size + 1):
        slice_vals = (f.values == label).astype(np.float64)
        sums_f = np.bincount(fi, weights=slice_vals, minlength=n_fine)
        means_f = np.divide(sums_f, counts_f, out=np.zeros_like(sums_f), where=nonempty)
        mf = means_f.reshape(-1, n_coarse)  # [subcell id s, coarse cell]
        cnt = counts_f.reshape(-1, n_coarse)
        coarse_sums = sums_f.reshape(-1, n_coarse).sum(axis=0)
        coarse_counts = cnt.sum(axis=0)
        means_c = np.divide(
            coarse_sums, coarse_counts, out=np.zeros_like(coarse_sums), where=coarse_counts > 0
        )
        dev = np.abs(mf - means_c[None, :])
        bad_sub |= ((dev > zeta) & (cnt > 0)).ravel()
    cnt = counts_f.reshape(-1, n_coarse)
    bad = bad_sub.reshape(-1, n_coarse)
    nonempty_subcells = (cnt > 0).sum(axis=0)
    bad_counts = bad.sum(axis=0)
    with np.errstate(invalid="ignore"):
        frac = np.divide(
            bad_counts,
            nonempty_subcells,
            out=np.zeros(n_coarse, dtype=np.float64),
            where=nonempty_subcells > 0,
        )
    flagged = int(np.count_nonzero(frac > zeta))
    return flagged <= zeta * n_coarse


def pattern_count(
    factor: PolynomialFactor,
    constraint: AffineConstraint,
    images: CellImage,
    params: FieldParams | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[int, int]:
    """Exact (#tuples with B(a_j(x)) = b_j for all j, #tuples) by enumeration."""
    params = factor.params(params)
    p, ell = params.p, constraint.ell
    total = params.size**ell
    if total > budget:
        raise BudgetError("tuple grid exceeds enumeration budget")
    cells = cell_index_array(factor, params)
    targets = []
    for b in images.cells:
        flat = 0
        for i in reversed(range(len(b))):
            flat = flat * p + b[i] % p
        targets.append(flat)
    return scan_grid(cells, constraint, params, targets), total


def pattern_probability(
    factor: PolynomialFactor,
    constraint: AffineConstraint,
    images: CellImage,
    mode: str = "predicted",
    params: FieldParams | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """Probability that a random tuple lands in the given cells.

    bruteforce: exact fraction over all (x_1, ..., x_l) tuples.
    predicted:  0 if the images are inconsistent, else p^(-s) with s the
    mixed dimension of the constraint at the factor's degree sequence.  The
    prediction matches bruteforce within max_bias * p^(mC) for certified
    factors, and exactly for affinely independent degree-1 factors.
    """
    if mode == "bruteforce":
        count, total = pattern_count(factor, constraint, images, params, budget)
        return count / total
    if mode != "predicted":
        raise ValueError(f"unknown mode {mode!r}")
    degrees = factor.degree_list()
    if any(d < 1 for d in degrees):
        raise ValueError("predicted mode needs all polynomial degrees >= 1")
    if images.width != factor.complexity:
        raise ValueError("image width must equal factor complexity")
    if not consistency_check(constraint, degrees, images):
        return 0.0
    s = mixed_dimension(constraint.forms, degrees)
    return float(Fraction(1, constraint.p**s))


# --- factor file format -----------------------------------------------------
#
# Line 1 "p n C"; then one polynomial per line: term count k followed by k
# groups "coeff e_1 ... e_n".


def dump_factor(factor: PolynomialFactor, params: FieldParams | None = None) -> str:
    params = factor.params(params)
    lines = [f"{params.p} {params.n} {factor.complexity}"]
    for q in factor.polys:
        flat = [str(len(q.terms))]
        for e, c in q.terms:
            flat.append(str(c))
            flat.extend(str(v) for v in e)
        lines.append(" ".join(flat))
    return "\n".join(lines) + "\n"


def parse_factor(text: str) -> tuple[PolynomialFactor, FieldParams]:
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    p, n, c = (int(t) for t in lines[0].split())
    polys = []
    for i in range(c):
        tok = [int(t) for t in lines[1 + i].split()]
        k = tok[0]
        monos = {}
        pos = 1
        for _ in range(k):
            coeff = tok[pos]
            expts = tuple(tok[pos + 1 : pos + 1 + n])
            monos[expts] = coeff
            pos += 1 + n
        polys.append(Polynomial.from_monomials(p, n, monos))
    return PolynomialFactor(tuple(polys)), FieldParams(p, n)


def save_factor(factor: PolynomialFactor, path, params: FieldParams | None = None) -> None:
    Path(path).write_text(dump_factor(factor, params))


def load_factor(path) -> tuple[PolynomialFactor, FieldParams]:
    return parse_factor(Path(path).read_text())
