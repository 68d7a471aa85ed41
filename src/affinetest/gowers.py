"""Gowers uniformity norms, polynomial bias and correlation, and an
exhaustive constructive stand-in for the inverse Gowers theorem.

Exact mode reduces U^k by derivatives to U^2,

    ||f||_{U^k}^{2^k} = E_h ||Delta_h f||_{U^{k-1}}^{2^{k-1}},
    Delta_h f(x) = f(x + h) conj f(x),        ||g||_{U^2}^4 = sum_lambda |g^(lambda)|^4,

with every Fourier coefficient g^(lambda) from one field.fourier_means call,
so the radicand is a sum of non-negative terms.  Each derivative level is
one gather: a table minus[h, x] = index(x - h), from one
field.combination_indices call over the pairs (x, h), picks g(x - h) for
every h at once, and that times conj g(x) is the next level, with h on a
new leading axis.  Exact mode is charged against its budget by
exact_charge: U^1 and U^2 the p^n entries handed to that transform times
its one pass per coordinate, max(n, 1) * p^n; U^k for
k >= 3 the p^(n(k+1)) tuples it averages over, because it holds its whole
p^(n(k-1))-entry derivative stack at once (p^n derivative tables per level
above U^2), so a charge by the transform's work would bound its time but
not its memory.  No charge exceeds the p^(n(k+1)) tuples, so any call whose
tuple space fits the budget is exact.  Monte-Carlo mode samples
tuples (x, h_1, ..., h_k) from MC_STREAMS fixed logical RNG streams, so
results are reproducible for a given seed; it is charged the largest array
one stream holds, max(ceil(samples / MC_STREAMS), k + 1) * 2^k entries.
The draws are canonical indices, and one field.combination_indices call
per stream turns them into the index of x + sum_{i in S} h_i for all 2^k
subsets S at once, with no coordinate array: at p = 2 by XOR of the drawn
indices, at p >= 3 one radix-p digit per pass.  system_product_mean sums
over the grid of its rank-reduced forms as forms.grid_slices hands it out,
charged against its budget, whole or one x_1 slice at a time: each
form's table is read as an array that broadcasts over the grid, gathered by
rows of a p^n x p^n row table (never larger than the grid or slice), so
the per-tuple arrays are the running float product and the one view being
multiplied in, 8 bytes per tuple each.

The U^1 "norm" is the seminorm |E f|; it is allowed here and flagged as such
in the documentation only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gflinalg
from .field import (
    BudgetError,
    FieldParams,
    RealTable,
    combination_indices,
    fourier_means,
    index_digits,
    index_to_vec,
    rng_for,
    unit_roots,
)
from .forms import LinearForm, grid_slices
from .poly import Polynomial, monomials_up_to_degree

DEFAULT_EXACT_BUDGET = 1 << 26
DEFAULT_SEARCH_BUDGET = 1 << 20
DEFAULT_SAMPLES = 50_000
MC_STREAMS = 16
TIE_RTOL = 1e-9


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


def _exact_radicand(values: np.ndarray, params: FieldParams, k: int) -> float:
    if k == 1 or params.n == 0:
        return abs(np.mean(values)) ** (1 << k)
    stack = values
    if k >= 3:
        # minus[h, x]: the index of x - h, from the pair (x, h) with coefficients (1, -1)
        pts = np.arange(params.size)
        pairs = np.stack(np.broadcast_arrays(pts, pts[:, None]), axis=-1)
        minus = combination_indices(pairs, [[1, -1]], params)[..., 0]
        for _ in range(k - 2):
            # one new leading axis per level: Delta_h g(x) = g(x - h) conj g(x) for every h
            stack = np.moveaxis(stack[..., minus], -2, 0) * np.conj(stack)
    fourth = np.abs(fourier_means(stack.reshape(-1, params.size), params)) ** 4
    return float(fourth.sum(axis=1).mean())


def exact_charge(params: FieldParams, k: int) -> int:
    """Cost charged to exact U^k against its budget: for k <= 2 the p^n
    entries handed to fourier_means times one pass per coordinate, for
    k >= 3 the p^(n(k+1)) tuples (see the module docstring)."""
    if k <= 2:
        return max(params.n, 1) * params.size
    return params.size ** (k + 1)


def gowers_norm_values(
    values: np.ndarray,
    params: FieldParams,
    k: int,
    mode: str = "exact",
    budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> GowersResult:
    """Gowers U^k norm of a table of values (real or complex) on F_p^n.

    Exact mode raises BudgetError when exact_charge(params, k) exceeds
    budget.  That charge is at most the p^(n(k+1)) tuples the norm averages
    over (for k <= 2, n <= p^n), so every table whose whole tuple space fits
    the budget is exact.  An exact result still reports samples =
    p^(n(k+1)), the number of tuples averaged.  Monte-Carlo mode raises
    BudgetError when the largest array of one stream, its draws by the 2^k
    subset sums (or the (2^k, k + 1) subset table), exceeds budget.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode == "exact":
        charge = exact_charge(params, k)
        if charge > budget:
            raise BudgetError(f"exact U^{k} is charged {charge} > budget {budget}")
        value = _exact_radicand(values, params, k) ** (1.0 / (1 << k))
        return GowersResult(value, 0.0, "exact", params.size ** (k + 1), seed)
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    charge = max(-(-samples // MC_STREAMS), k + 1) << k
    if charge > budget:
        raise BudgetError(f"Monte-Carlo U^{k} is charged {charge} > budget {budget}")
    return _gowers_monte_carlo(values, params, k, samples, seed)


def _gowers_monte_carlo(
    values: np.ndarray, params: FieldParams, k: int, samples: int, seed: int
) -> GowersResult:
    # row mask: x + sum of the h_i whose bit i is set in mask
    masks = index_digits(np.arange(1 << k), FieldParams(2, k))
    combos = np.hstack([np.ones((len(masks), 1), dtype=np.int64), masks])
    conjugate = np.iscomplexobj(values) & ((k - masks.sum(axis=1)) % 2 == 1)
    per = [samples // MC_STREAMS] * MC_STREAMS
    for i in range(samples % MC_STREAMS):
        per[i] += 1
    sample_vals = np.empty(samples, dtype=values.dtype)
    start = 0
    for worker, count in enumerate(per):
        if count == 0:
            continue
        draws = rng_for(seed, worker).integers(0, params.size, size=(k + 1, count), dtype=np.int64)
        terms = values[combination_indices(draws.T, combos, params)]
        # out of place: numpy's in-place complex product of one-entry arrays
        # rounds differently
        prod = np.ones(count, dtype=values.dtype)
        for mask, conj in enumerate(conjugate):
            prod = prod * (np.conj(terms[:, mask]) if conj else terms[:, mask])
        sample_vals[start : start + count] = prod
        start += count
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


def coset_rows(params: FieldParams, d: int, budget: int, rows: int | None = None):
    """The polynomials of degree <= d as rows Q of degree >= 2 parts, each
    standing for the p^(n+1) polynomials Q + lambda . x + c.

    Raises ValueError for d < 0 and BudgetError when the p^(#monomials)
    polynomials exceed budget.  Returns monomials_up_to_degree(p, n, d) and
    the (p^h, p^n) table of the parts' values in blocks of `rows` rows (one
    block when None): row q is the part whose coefficients over the h
    monomials of degree >= 2 are the little-endian digits of q.
    """
    p = params.p
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    monos = monomials_up_to_degree(p, params.n, d)
    total = p ** len(monos)
    if total > budget:
        raise BudgetError(f"search space p^{len(monos)} = {total} exceeds budget {budget}")
    higher = [e for e in monos if sum(e) >= 2]
    mono_vals = np.array(
        [Polynomial.from_monomials(p, params.n, {e: 1}).values() for e in higher], dtype=np.int64
    ).reshape(len(higher), params.size)
    digits, count = FieldParams(p, len(higher)), p ** len(higher)
    step = rows or count
    return monos, (
        index_digits(np.arange(q, min(q + step, count)), digits) @ mono_vals % p
        for q in range(0, count, step)
    )


def inverse_gowers_search(
    f: RealTable, d: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> CorrelationWitness:
    """Exhaustively maximize correlation(f, P) over polynomials of degree <= d.

    The search covers every canonical reduced polynomial (exponents <= p-1,
    total degree <= d).  Coefficient vectors are ordered little-endian over
    monomials_up_to_degree: the constant first, then x_n, ..., x_1, then the
    monomials of degree >= 2.  For each row Q of coset_rows, one fourier_means
    of f e_p(Q) scores every linear part at once; the constant term never
    changes |corr|, so it is always 0.  Ties: among candidates with
    correlation >= (1 - TIE_RTOL) * max, the earliest coefficient vector wins,
    so float noise never picks among exact ties (P, -P and every constant
    shift, for real f) and P = 0 wins among zero-correlation ties.  Memory is a
    few dozen bytes per candidate, bounded by the budget.  The
    inverse-theorem guarantee (positive U^{d+1} norm forces a positive maximum
    here) is only backed for d < p; the search itself runs for any d.
    """
    params = f.params
    p, n = params.p, params.n
    monos, (q_vals,) = coset_rows(params, d, budget)
    scores = np.abs(fourier_means(f.values * unit_roots(p)[q_vals], params))
    if d == 0:
        scores = scores[:, :1]
    else:
        # column r: the linear part whose coefficients of x_n, ..., x_1 are the
        # little-endian digits of r, i.e. lambda with its digits reversed:
        # the canonical order read through the (p,)*n cube with its axes reversed
        scores = scores[:, np.arange(params.size).reshape((p,) * n).T.ravel()]
    # flat index q * p^n + r is the coefficient vector's index divided by p
    flat = scores.ravel()
    best = int(np.argmax(flat >= (1.0 - TIE_RTOL) * flat.max()))
    digits = index_to_vec(best * p, FieldParams(p, len(monos)))
    poly = Polynomial.from_monomials(p, n, {e: c for e, c in zip(monos, digits) if c})
    recomputed = correlation(f, poly)
    if abs(recomputed - flat[best]) > 1e-9:
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
    reduce to a product of means.  The reduced grid has p^(nr) tuples, at
    most `budget`; forms.grid_slices walks it whole when it has at most
    forms.GRID_CHUNK tuples, else one slice of p^(n(r-1)) tuples per value of
    the first variable.  Each table is read as a view that broadcasts over
    the grid, with no per-tuple index; the views are multiplied in form
    order and each piece's product is summed flattened in C order, so the
    value is the one the per-tuple index gather gives, bit for bit.
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
    basis, _ = gflinalg.rref(coeff.T, p)  # column-space basis, rref rows
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
    # form j over the r grid variables is column j of the rref basis (e_a at pivot a)
    reduced = [LinearForm(p, tuple(col)) for col in basis.T]
    total = 0.0
    for _, shape, prod in grid_slices(
        [t.values for t in tables], reduced, params, np.multiply, budget
    ):
        total += float(np.broadcast_to(prod, shape).ravel().sum())
    return total / params.size**r
