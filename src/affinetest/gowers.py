"""Gowers uniformity norms, polynomial bias and correlation, and an
exhaustive constructive stand-in for the inverse Gowers theorem.

Exact mode reduces U^k by derivatives to U^2,

    ||f||_{U^k}^{2^k} = E_h ||Delta_h f||_{U^{k-1}}^{2^{k-1}},
    Delta_h f(x) = f(x + h) conj f(x),        ||g||_{U^2}^4 = sum_lambda |g^(lambda)|^4,

with every Fourier coefficient g^(lambda) from one field.fourier_means call,
so the radicand is a sum of non-negative terms.  Monte-Carlo mode samples
tuples from MC_STREAMS fixed logical RNG streams, so results are
reproducible for a given seed.

The U^1 "norm" is the seminorm |E f|; it is allowed here and flagged as such
in the documentation only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gflinalg
from .field import BudgetError, FieldParams, RealTable, domain_coords, fourier_means, unit_roots
from .forms import LinearForm
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
    p, n = params.p, params.n
    if k == 1 or n == 0:
        return abs(np.mean(values)) ** (1 << k)
    cube = values.reshape((p,) * n)
    axes = tuple(range(-n, 0))
    shifts = list(itertools.product(range(p), repeat=n))
    for _ in range(k - 2):
        # one new leading axis per level: Delta_h g(x) = g(x - h) conj g(x) for every h
        cube = np.stack([np.roll(cube, h, axis=axes) for h in shifts]) * np.conj(cube)
    fourth = np.abs(fourier_means(cube.reshape(-1, params.size), params)) ** 4
    return float(fourth.sum(axis=1).mean())


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
        value = _exact_radicand(values, params, k) ** (1.0 / (1 << k))
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
    total degree <= d).  Coefficient vectors are ordered little-endian over
    monomials_up_to_degree: the constant first, then x_n, ..., x_1, then the
    monomials of degree >= 2.  For each coefficient vector Q of the degree >= 2
    part, one fourier_means of f e_p(Q) scores every linear part at once; the
    constant term never changes |corr|, so it is always 0.  Ties: among
    candidates with correlation >= (1 - TIE_RTOL) * max, the earliest
    coefficient vector wins, so float noise never picks among exact ties (P, -P
    and every constant shift, for real f) and P = 0 wins among zero-correlation
    ties.  Memory is a few dozen bytes per candidate, bounded by the budget.
    The inverse-theorem guarantee (positive U^{d+1} norm forces a positive
    maximum here) is only backed for d < p; the search itself runs for any d.
    """
    params = f.params
    p, n = params.p, params.n
    if d < 0:
        raise ValueError("d must be >= 0")
    monos = monomials_up_to_degree(p, n, d)
    total = p ** len(monos)
    if total > budget:
        raise BudgetError(f"search space p^{len(monos)} = {total} exceeds budget {budget}")
    higher = [e for e in monos if sum(e) >= 2]
    mono_vals = np.array(
        [Polynomial.from_monomials(p, n, {e: 1}).values() for e in higher], dtype=np.int64
    ).reshape(len(higher), params.size)
    # row q: the degree >= 2 part whose coefficients are the little-endian digits of q
    q_vals = domain_coords(FieldParams(p, len(higher))).T @ mono_vals % p
    scores = np.abs(fourier_means(f.values * unit_roots(p)[q_vals], params))
    if d == 0:
        scores = scores[:, :1]
    else:
        # column r: the linear part whose coefficients of x_n, ..., x_1 are the
        # little-endian digits of r, i.e. lambda with its digits reversed
        coords = domain_coords(params)
        scores = scores[:, p ** np.arange(n) @ coords[::-1]]
    # flat index q * p^n + r is the coefficient vector's index divided by p
    flat = scores.ravel()
    best = int(np.argmax(flat >= (1.0 - TIE_RTOL) * flat.max()))
    rem, coeffs = best * p, {}
    for e in monos:
        rem, c = divmod(rem, p)
        if c:
            coeffs[e] = c
    poly = Polynomial.from_monomials(p, n, coeffs)
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
