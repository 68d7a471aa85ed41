"""Gowers uniformity norms, polynomial bias and correlation, and an
exhaustive constructive stand-in for the inverse Gowers theorem.

Exact mode enumerates the full (x, y_1, ..., y_k) average; the sum is
organized through the algebraic identity

    ||f||_{U^k}^{2^k} = E_{y_1..y_{k-1}} | E_x prod_{S subset [k-1]}
                        conj^{k-1-|S|} f(x + sum_{i in S} y_i) |^2

which regroups exactly the same finite sum (no FFT, no approximation) and
keeps the radicand a mean of squares.  Monte-Carlo mode samples tuples from a
fixed set of logical RNG streams so results are reproducible for a given seed
regardless of thread count.

The U^1 "norm" is the seminorm |E f|; it is allowed here and flagged as such
in the documentation only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gflinalg
from .field import BudgetError, FieldParams, RealTable, domain_coords, unit_roots
from .forms import LinearForm
from .poly import Polynomial, monomials_up_to_degree

DEFAULT_EXACT_BUDGET = 1 << 26
DEFAULT_SEARCH_BUDGET = 1 << 20
DEFAULT_SAMPLES = 50_000
MC_STREAMS = 16
RADICAND_CLAMP = -1e-12
RADICAND_FATAL = -1e-6


@dataclass(frozen=True)
class GowersResult:
    """A Gowers norm value with its estimation metadata."""

    value: float
    stderr: float
    mode: str
    samples: int
    seed: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")
        if self.mode == "exact" and self.stderr != 0.0:
            raise ValueError("exact mode must report stderr 0")


@dataclass(frozen=True)
class CorrelationWitness:
    """A polynomial P maximizing |E[f(x) e_p(P(x))]| with the attained value."""

    polynomial: Polynomial
    correlation: float


@lru_cache(maxsize=32)
def _add_table(params: FieldParams) -> np.ndarray:
    """(N, N) table of canonical indices of pointwise sums; N kept small by
    the exact-mode budget."""
    p, size = params.p, params.size
    coords = domain_coords(params)
    idx = np.zeros((size, size), dtype=np.int64)
    for t in range(params.n):
        idx += ((coords[t][:, None] + coords[t][None, :]) % p) * p**t
    idx.setflags(write=False)
    return idx


def _exact_radicand(values: np.ndarray, params: FieldParams, k: int) -> float:
    size = params.size
    if k == 1:
        return abs(np.mean(values)) ** 2
    add = _add_table(params)
    axes = k  # x plus y_1..y_{k-1}
    base = np.arange(size, dtype=np.int64)

    def axis_view(a: int) -> np.ndarray:
        shape = [1] * axes
        shape[a] = size
        return base.reshape(shape)

    is_complex = np.iscomplexobj(values)
    prod = None
    # subsets of {y_1..y_{k-1}} by bitmask; conjugation parity = k-1-|S| mod 2
    for mask in range(1 << (k - 1)):
        idx = axis_view(0)
        for i in range(k - 1):
            if mask >> i & 1:
                idx = add[idx, axis_view(i + 1)]
        term = values[idx]
        if is_complex and (k - 1 - bin(mask).count("1")) % 2:
            term = np.conj(term)
        prod = term if prod is None else prod * term
    inner = prod.mean(axis=0)
    if is_complex:
        sq = (inner * np.conj(inner)).real
    else:
        sq = inner * inner
    return float(sq.mean())


def _finish_exact(radicand: float, k: int) -> float:
    if radicand < RADICAND_FATAL:
        raise RuntimeError(f"Gowers radicand {radicand} below -1e-6: accumulation bug")
    if radicand < 0:
        # mean-of-squares organization keeps this at roundoff scale (>= -1e-12)
        radicand = 0.0
    return radicand ** (1.0 / (1 << k))


def gowers_norm_values(
    values: np.ndarray,
    params: FieldParams,
    k: int,
    mode: str = "exact",
    budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> GowersResult:
    """Gowers U^k norm of a table of values (real or complex) on F_p^n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode == "exact":
        if params.size ** (k + 1) > budget:
            raise BudgetError(
                f"exact U^{k} needs p^(n(k+1)) = {params.size ** (k + 1)} > budget {budget}"
            )
        value = _finish_exact(_exact_radicand(values, params, k), k)
        return GowersResult(value, 0.0, "exact", params.size ** (k + 1), seed)
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    return _gowers_monte_carlo(values, params, k, samples, seed)


def _gowers_monte_carlo(
    values: np.ndarray, params: FieldParams, k: int, samples: int, seed: int
) -> GowersResult:
    p, n, size = params.p, params.n, params.size
    coords = domain_coords(params)
    per = [samples // MC_STREAMS] * MC_STREAMS
    for i in range(samples % MC_STREAMS):
        per[i] += 1
    chunks = []
    for worker, count in enumerate(per):
        if count == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, worker)))
        draws = rng.integers(0, size, size=(k + 1, count), dtype=np.int64)
        prod = np.ones(count, dtype=values.dtype)
        for mask in range(1 << k):
            digitsum = coords[:, draws[0]].copy()
            for i in range(k):
                if mask >> i & 1:
                    digitsum += coords[:, draws[i + 1]]
            digitsum %= p
            idx = np.zeros(count, dtype=np.int64)
            for t in range(n):
                idx += digitsum[t] * p**t
            term = values[idx]
            if np.iscomplexobj(values) and (k - bin(mask).count("1")) % 2:
                term = np.conj(term)
            prod = prod * term
        chunks.append(prod)
    sample_vals = np.concatenate(chunks)
    if np.iscomplexobj(sample_vals):
        sample_vals = sample_vals.real
    mean = float(sample_vals.mean())
    sd = float(sample_vals.std(ddof=1)) if samples > 1 else 0.0
    stderr_mean = sd / np.sqrt(samples)
    root = 1.0 / (1 << k)
    value = max(mean, 0.0) ** root
    if mean > 0:
        stderr = stderr_mean * root * mean ** (root - 1.0)
    else:
        stderr = float("inf")
    return GowersResult(value, float(stderr), "monte_carlo", samples, seed)


def gowers_norm(
    f: RealTable,
    k: int,
    mode: str = "exact",
    budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> GowersResult:
    """Gowers U^k norm of a real table; see gowers_norm_values for modes."""
    return gowers_norm_values(f.values, f.params, k, mode, budget, samples, seed)


def polynomial_bias(poly: Polynomial, budget: int = DEFAULT_EXACT_BUDGET) -> float:
    """Exact |E_x e_p(P(x))| by full enumeration."""
    params = poly.params
    if params.size > budget:
        raise BudgetError("domain exceeds enumeration budget")
    counts = np.bincount(poly.values(), minlength=poly.p)
    total = complex(np.dot(counts.astype(np.float64), unit_roots(poly.p)))
    return abs(total) / params.size


def correlation(f: RealTable, poly: Polynomial) -> float:
    """Exact |E_x f(x) e_p(P(x))|."""
    if f.params != poly.params:
        raise ValueError("table and polynomial domains differ")
    phases = unit_roots(poly.p)[poly.values()]
    return abs(complex(np.dot(f.values, phases))) / f.params.size


def inverse_gowers_search(
    f: RealTable, d: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> CorrelationWitness:
    """Exhaustively maximize correlation(f, P) over polynomials of degree <= d.

    The search covers every canonical reduced polynomial (exponents <= p-1,
    total degree <= d); ties go to the earliest coefficient vector in
    canonical little-endian order, so P = 0 wins among zero-correlation ties.
    The inverse-theorem guarantee (positive U^{d+1} norm forces a positive
    maximum here) is only backed for d < p; the search itself runs for any d.
    """
    p, n = f.params.p, f.params.n
    if d < 0:
        raise ValueError("d must be >= 0")
    monos = monomials_up_to_degree(p, n, d)
    k = len(monos)
    total = p**k
    if total > budget:
        raise BudgetError(f"search space p^{k} = {total} exceeds budget {budget}")
    mono_vals = np.empty((k, f.params.size), dtype=np.int64)
    for j, e in enumerate(monos):
        mono_vals[j] = Polynomial.from_monomials(p, n, {e: 1}).values()
    roots = unit_roots(p)
    best_corr = -1.0
    best_idx = 0
    chunk = 4096
    fvals = f.values
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        ids = np.arange(start, stop, dtype=np.int64)
        coeffs = np.empty((stop - start, k), dtype=np.int64)
        rem = ids.copy()
        for j in range(k):
            coeffs[:, j] = rem % p
            rem //= p
        pv = coeffs @ mono_vals % p
        corr = np.abs(roots[pv] @ fvals) / f.params.size
        local = int(np.argmax(corr))
        if corr[local] > best_corr:
            best_corr = float(corr[local])
            best_idx = start + local
    coeff_vec = []
    rem = best_idx
    for _ in range(k):
        rem, c = divmod(rem, p)
        coeff_vec.append(c)
    poly = Polynomial.from_monomials(
        p, n, {e: c for e, c in zip(monos, coeff_vec) if c}
    )
    recomputed = correlation(f, poly)
    if abs(recomputed - best_corr) > 1e-9:
        raise RuntimeError("witness correlation failed recomputation")
    return CorrelationWitness(poly, recomputed)


def system_product_mean(
    tables: Sequence[RealTable],
    forms: Sequence[LinearForm],
    budget: int = DEFAULT_EXACT_BUDGET,
) -> float:
    """Exact E_{x_1..x_l} prod_i f_i(L_i(x_1, ..., x_l)).

    The joint image of the forms is uniform on the column space of the
    coefficient matrix, applied coordinate-wise.  Writing that space in
    reduced echelon form, the pivot-form images are jointly uniform and every
    other image is a fixed combination of them, so the p^(nl)-term sum
    collapses to a grid over rank-many variables; fully independent systems
    reduce to a product of means.
    """
    m = len(tables)
    if m != len(forms):
        raise ValueError("need one table per form")
    params = tables[0].params
    if any(t.params != params for t in tables):
        raise ValueError("tables must share a domain")
    p, n = params.p, params.n
    if any(f.p != p for f in forms):
        raise ValueError("forms and tables disagree on p")
    coeff = np.array([f.coeffs for f in forms], dtype=np.int64)
    basis, pivots = gflinalg.rref(coeff.T, p)  # column-space basis, rref rows
    r = basis.shape[0]
    if n == 0 or r == 0:
        out = 1.0
        for t in tables:
            out *= float(t.values[0])
        return out
    if r == m:
        out = 1.0
        for t in tables:
            out *= float(t.values.mean())
        return out
    size = params.size
    if size**r > budget:
        raise BudgetError("reduced grid exceeds enumeration budget")
    # rows over r grid variables: pivot form a gets e_a, others column j of basis
    rows = np.zeros((m, r), dtype=np.int64)
    for a, j in enumerate(pivots):
        rows[j, a] = 1
    for j in range(m):
        if j not in pivots:
            rows[j] = basis[:, j]
    coords = domain_coords(params)
    total = 0.0
    outer = 0
    while size ** (r - outer) > 1 << 22:
        outer += 1
    outer_count = size**outer
    shape = (size,) * (r - outer)
    base = np.arange(size, dtype=np.int64)
    for oid in range(outer_count):
        ovals = []
        rem = oid
        for _ in range(outer):
            rem, v = divmod(rem, size)
            ovals.append(v)
        prod = None
        for j in range(m):
            idx = np.zeros(shape, dtype=np.int64)
            for t in range(n):
                digit = np.zeros(shape, dtype=np.int64)
                for a in range(r):
                    c = rows[j, a]
                    if not c:
                        continue
                    if a < outer:
                        digit += c * coords[t, ovals[a]]
                    else:
                        view = [1] * (r - outer)
                        view[a - outer] = size
                        digit = digit + c * coords[t].reshape(view)
                idx += (digit % p) * p**t
            term = tables[j].values[idx]
            prod = term if prod is None else prod * term
        total += float(prod.sum())
    return total / size**r
