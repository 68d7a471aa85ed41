"""Polynomial factors: cell partitions of F_p^n defined by a polynomial
sequence, conditional expectations, density and degree indices, bias
certificates, refinement relations, representation, and pattern probabilities
inside cells.

Rank of a factor is never computed from its definition (infeasible); the
operational substitute everywhere is the bias certificate, the maximum
exponential bias over nonzero combinations of the defining polynomials.
Exact rank statements are made only for degree-1 factors, where full rank is
affine independence of the polynomials.

The cells of B = (P_1, ..., P_C) are the canonical indices of F_p^C
(`cell_space`), so a factor has at most 2^62 cells; `cell_histogram`, which
enumerates domain and cells, is charged max(p^n, p^C) against its budget.
Arrays with one entry per cell (conditional expectations, representation
and subcell counts) take their length from `dense_cell_count`, which bounds
them by max(p^n, ENUM_BUDGET) cells, and per-cell label counts by one such
array per label that can occur.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .field import (
    ENUM_BUDGET,
    MAX_DOMAIN_BITS,
    BudgetError,
    FieldParams,
    FunctionTable,
    RealTable,
    fourier_means,
    index_digits,
    rng_for,
    unit_roots,
)
from .forms import (
    AffineConstraint,
    CellImage,
    check_field,
    consistency_check,
    mixed_dimension,
    scan_grid,
)
from .poly import Polynomial

DEFAULT_BIAS_BUDGET = 1 << 16
# entries of one sampled bias scoring chunk (lambdas x occupied cells), and the
# largest cell space whose spectrum a sampled certificate reads at p = 2
BIAS_CHUNK = 1 << 22


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
        """The factor's domain; `default` is the domain of an empty factor,
        and a nonempty factor over another domain raises ValueError."""
        if self.polys:
            own = self.polys[0].params
            if default is not None and default != own:
                raise ValueError(
                    f"factor over F_{own.p}^{own.n} does not apply to F_{default.p}^{default.n}"
                )
            return own
        if default is None:
            raise ValueError("empty factor carries no domain; pass params explicitly")
        return default

    def degree_list(self) -> tuple[int, ...]:
        return tuple(q.degree for q in self.polys)

    def extend(self, poly: Polynomial) -> "PolynomialFactor":
        return PolynomialFactor(self.polys + (poly,))

    def is_syntactic_refinement_of(self, other: "PolynomialFactor") -> bool:
        return self.polys[: other.complexity] == other.polys


def cell_space(factor: PolynomialFactor, params: FieldParams | None = None) -> FieldParams:
    """F_p^C, whose canonical indices number the factor's cells; past 2^62
    cells it raises ValueError, as the index type holds no more."""
    p = factor.params(params).p
    try:
        return FieldParams(p, factor.complexity)
    except ValueError:  # p is the domain's prime, so only the size can fail
        raise ValueError(
            f"cell space p^C = {p}^{factor.complexity} overflows the index type"
            f" (at most 2^{MAX_DOMAIN_BITS} cells)"
        ) from None


def dense_cell_count(
    factor: PolynomialFactor, params: FieldParams | None = None, labels: int = 1
) -> int:
    """p^C, the length of an array with one entry per cell of the factor;
    past max(p^n, ENUM_BUDGET) cells it raises BudgetError instead, before
    anything of that length is allocated.  With R = `labels`, the R * p^C
    per-cell label counts are charged too: one such array per label that
    can occur, so past min(R, p^n) of them (a declared range wider than the
    domain) it raises BudgetError as well."""
    space = cell_space(factor, params)
    size = factor.params(params).size
    bound = max(size, ENUM_BUDGET)
    if space.size > bound:
        raise BudgetError(
            f"per-cell array of p^C = {space.p}^{space.n} cells exceeds max(p^n, budget) = {bound}"
        )
    if labels * space.size > min(labels, size) * bound:
        raise BudgetError(
            f"per-cell label counts R * p^C = {labels} * {space.p}^{space.n} exceed"
            f" min(R, p^n) * max(p^n, budget) = {min(labels, size) * bound}"
        )
    return space.size


@lru_cache(maxsize=1024)
def _cell_index_array(factor: PolynomialFactor, params: FieldParams) -> np.ndarray:
    """Flat little-endian cell index of every domain point, by Horner's rule
    in int64: the value tables are narrow (`residue_dtype`), and a product
    of one with p^i in its own dtype would wrap."""
    cell_space(factor, params)  # the indices must fit the index type
    idx = np.zeros(params.size, dtype=np.int64)
    for q in reversed(factor.polys):
        idx *= params.p
        idx += q.values()
    idx.setflags(write=False)
    return idx


def cell_index_array(factor: PolynomialFactor, params: FieldParams | None = None) -> np.ndarray:
    return _cell_index_array(factor, factor.params(params))


def eval_factor(factor: PolynomialFactor, x) -> tuple[int, ...]:
    """Componentwise evaluation: the cell image of x."""
    return tuple(q.eval_point(x) for q in factor.polys)


def cell_histogram(
    factor: PolynomialFactor,
    params: FieldParams | None = None,
    budget: int = ENUM_BUDGET,
) -> dict[tuple[int, ...], int]:
    """Exact point counts per cell image, by full enumeration of the domain
    and of the cell space, charged max(p^n, p^C) against the budget."""
    params = factor.params(params)
    space = cell_space(factor, params)
    if max(params.size, space.size) > budget:
        raise BudgetError("domain or cell space exceeds enumeration budget")
    counts = np.bincount(cell_index_array(factor, params), minlength=space.size)
    cells = index_digits(np.arange(space.size), space).tolist()
    return dict(zip(map(tuple, cells), counts.tolist()))


def conditional_expectation(f: RealTable, factor: PolynomialFactor) -> RealTable:
    """E[f|B]: the per-cell mean of f, constant on every cell.

    For a FunctionTable, the caller picks the real view (an indicator slice,
    say) before calling.
    """
    params = f.params
    idx = cell_index_array(factor, params)
    ncells = dense_cell_count(factor, params)
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
    anti-lexicographic order (largest differing degree decides, fewer of it
    is smaller): that of the descending degree sequences, as tuples."""

    counts: tuple[tuple[int, int], ...]  # sorted (degree, count), count > 0

    @classmethod
    def of(cls, factor: PolynomialFactor) -> "DegreeIndex":
        return cls(tuple(sorted(Counter(q.degree for q in factor.polys).items())))

    def count(self, degree: int) -> int:
        return dict(self.counts).get(degree, 0)

    def _descending(self) -> tuple[int, ...]:
        return tuple(d for d, k in reversed(self.counts) for _ in range(k))

    def __lt__(self, other: "DegreeIndex") -> bool:
        return self._descending() < other._descending()

    def __le__(self, other: "DegreeIndex") -> bool:
        return self._descending() <= other._descending()


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

    The bias of sum lambda_i P_i is |E_x e_p(lambda . B(x))|, the lambda-th
    Fourier coefficient of the cell histogram scaled by p^C / p^n.  Exhaustive
    when p^C - 1 <= budget: one bincount and one p^C-point fourier_means score
    every lambda.  Otherwise the maximum runs over a seeded sample of `budget`
    lambdas.  At p = 2 with 2^C <= min(BIAS_CHUNK, budget * 2^n) they are read
    off that same spectrum, which then has no more entries than scoring them
    would touch; everywhere else each lambda is scored on the occupied cells
    weighted by their point counts, BIAS_CHUNK entries at a time.  At p = 2
    both routes sum +-1 times integer counts, exactly, and scale by powers of
    two, so the route never changes a bit of the result; at p >= 3 they would
    round differently, and the scoring route is kept.
    """
    params = factor.params(params)
    space = cell_space(factor, params)
    p = space.p
    if space.n == 0:
        return BiasCertificate(0.0, 0, True)
    total = space.size - 1
    if total <= budget:
        return BiasCertificate(_spectrum_max(factor, params, space, slice(1, None)), total, True)
    lam_ids = rng_for(seed).integers(1, space.size, size=budget, dtype=np.int64)
    if p == 2 and space.size <= min(BIAS_CHUNK, budget * params.size):
        return BiasCertificate(_spectrum_max(factor, params, space, lam_ids), len(lam_ids), False)
    # occupied cells only: p^C, past the spectrum's reach, can outgrow the domain
    cells, weights = np.unique(cell_index_array(factor, params), return_counts=True)
    # float64 so that the products below run in BLAS; every sum is an exact integer
    digits = index_digits(cells, space).T.astype(np.float64)
    lams = index_digits(lam_ids, space).astype(np.float64)
    max_bias = 0.0
    roots = unit_roots(p)
    weights = weights.astype(np.float64)
    chunk = max(1, BIAS_CHUNK // len(cells))
    for start in range(0, len(lams), chunk):
        combo = (lams[start : start + chunk] @ digits).astype(np.int64) % p
        sums = roots[combo] @ weights
        max_bias = max(max_bias, float(np.abs(sums).max() / params.size))
    return BiasCertificate(max_bias, len(lam_ids), False)


def _spectrum_max(factor: PolynomialFactor, params: FieldParams, space: FieldParams, lams) -> float:
    """Max of |E_x e_p(lambda . B(x))| over the lambdas that `lams` indexes
    in F_p^C, read off the transform of the cell histogram."""
    counts = np.bincount(cell_index_array(factor, params), minlength=space.size)
    return float(np.abs(fourier_means(counts, space))[lams].max()) * (space.size / params.size)


def is_semantic_refinement(
    fine: PolynomialFactor,
    coarse: PolynomialFactor,
    params: FieldParams | None = None,
    budget: int = ENUM_BUDGET,
) -> bool:
    """Exhaustive check that fine-cell equality implies coarse-cell equality:
    no fine cell meets two coarse cells."""
    params = (fine if fine.polys else coarse).params(params)
    if params.size > budget:
        raise BudgetError("domain exceeds enumeration budget")
    fine_idx, coarse_idx = cell_index_array(fine, params), cell_index_array(coarse, params)
    _, first, fine_cell = np.unique(fine_idx, return_index=True, return_inverse=True)
    # every point lies in the coarse cell of the first point of its fine cell
    return bool(np.array_equal(coarse_idx[first][fine_cell], coarse_idx))


def common_refinement(b: PolynomialFactor, b2: PolynomialFactor) -> PolynomialFactor:
    """Concatenate b with the polynomials of b2 not already present."""
    seen = set(b.polys)
    extra = tuple(q for q in b2.polys if q not in seen)
    return PolynomialFactor(b.polys + extra)


def label_frequencies(
    idx: np.ndarray, values: np.ndarray, r: int, ncells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell label counts of some points: (counts, freq), counts[c] the
    points with idx == c and freq[i - 1, c] those of them labelled i, for
    cell indices idx in [0, ncells) and labels values in [1, r], from one
    bincount of the joint code idx * r + values - 1."""
    freq = np.bincount(idx * r + values - 1, minlength=r * ncells).reshape(ncells, r).T
    return freq.sum(axis=0), freq


def check_zeta(zeta: float) -> None:
    """zeta, a fraction of cells and a gap between frequencies, lies in (0, 1]."""
    if not 0 < zeta <= 1:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta!r}")


def represents(
    f: FunctionTable,
    fine: PolynomialFactor,
    coarse: PolynomialFactor,
    zeta: float,
) -> bool:
    """Whether the fine factor zeta-represents the coarse one w.r.t. f.

    True iff at most a zeta fraction of coarse cells have more than a zeta
    fraction of their nonempty subcells c' with |E[f^(i)|c] - E[f^(i)|c']| >
    zeta for some label i.  Empty subcells are skipped (the denominator counts
    nonempty subcells).  One label_frequencies count over the fine cells
    gives every label's means, a coarse cell's counts summing its subcells'.
    A zeta outside (0, 1] raises ValueError.
    """
    check_zeta(zeta)
    if not fine.is_syntactic_refinement_of(coarse):
        raise ValueError("fine factor must syntactically refine the coarse one")
    r = f.range_size
    n_coarse = dense_cell_count(coarse, f.params)
    counts_f, freq_f = label_frequencies(
        cell_index_array(fine, f.params), f.values, r, dense_cell_count(fine, f.params, r)
    )
    # [label, subcell id s, coarse cell]: a fine cell index is s * n_coarse + coarse cell
    cnt = counts_f.reshape(-1, n_coarse)
    freq = freq_f.reshape(r, -1, n_coarse)
    means_f = np.divide(freq, cnt, out=np.zeros(freq.shape), where=cnt > 0)
    coarse_counts = cnt.sum(axis=0)
    means_c = np.divide(
        freq.sum(axis=1), coarse_counts, out=np.zeros((r, n_coarse)), where=coarse_counts > 0
    )
    dev = np.abs(means_f - means_c[:, None, :])
    bad = ((dev > zeta) & (cnt > 0)).any(axis=0)
    nonempty_subcells = (cnt > 0).sum(axis=0)
    frac = np.divide(
        bad.sum(axis=0), nonempty_subcells, out=np.zeros(n_coarse), where=nonempty_subcells > 0
    )
    flagged = int(np.count_nonzero(frac > zeta))
    return flagged <= zeta * n_coarse


def pattern_count(
    factor: PolynomialFactor,
    constraint: AffineConstraint,
    images: CellImage,
    params: FieldParams | None = None,
    budget: int = ENUM_BUDGET,
) -> tuple[int, int]:
    """Exact (#tuples with B(a_j(x)) = b_j for all j, #tuples) by enumeration."""
    params = factor.params(params)
    check_field(constraint, params, "a factor")
    targets = images.indices(constraint.size, cell_space(factor, params))
    count = scan_grid(cell_index_array(factor, params), constraint, params, targets, budget=budget)
    return count, params.size**constraint.ell


def pattern_probability(
    factor: PolynomialFactor,
    constraint: AffineConstraint,
    images: CellImage,
    mode: str = "predicted",
    params: FieldParams | None = None,
    budget: int = ENUM_BUDGET,
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
    if factor.polys or params is not None:
        check_field(constraint, factor.params(params), "a factor")
    degrees = factor.degree_list()
    if any(d < 1 for d in degrees):
        raise ValueError("predicted mode needs all polynomial degrees >= 1")
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
    lines = [ln.split() for ln in text.strip().split("\n") if ln.strip()]
    if not lines or len(lines[0]) != 3:
        raise ValueError("factor header needs 3 integers 'p n C'")
    p, n, c = (int(t) for t in lines[0])
    params = FieldParams(p, n)
    if len(lines) != c + 1:
        raise ValueError(f"factor has {len(lines) - 1} polynomial lines, its header declares {c}")
    polys = []
    for line in lines[1:]:
        tok = [int(t) for t in line]
        if tok[0] < 0 or len(tok) != 1 + tok[0] * (1 + n):
            raise ValueError(f"polynomial line needs a count k and k groups of {1 + n} integers")
        monos = {}
        for pos in range(1, len(tok), 1 + n):
            expts = tuple(tok[pos + 1 : pos + 1 + n])
            if min(expts, default=0) < 0:
                raise ValueError(f"negative exponent in monomial {expts}")
            if expts in monos:
                raise ValueError(f"monomial {expts} appears twice in one polynomial line")
            monos[expts] = tok[pos]
        polys.append(Polynomial.from_monomials(p, n, monos))
    return PolynomialFactor(tuple(polys)), params


def save_factor(factor: PolynomialFactor, path, params: FieldParams | None = None) -> None:
    Path(path).write_text(dump_factor(factor, params))


def load_factor(path) -> tuple[PolynomialFactor, FieldParams]:
    return parse_factor(Path(path).read_text())
