"""Workload `oracles`: direct library calls to the exact and sampled kernels,
each cold (the library caches are emptied before every call) and large.

Bias certificates, cell histograms, exact and Monte-Carlo Gowers norms, the
inverse-Gowers search and pattern counts: the kernels that a Fourier-domain
rewrite would replace.  The tester does no work here.  Each result is checked
against oracles.py, which computes the same quantities by FFT, by its own
polynomial evaluator and by GF(p) rank.
"""
from __future__ import annotations

import numpy as np

import oracles
from harness import Op, Workload, expect

TOL = 1e-9
# exhaustive bias certificates and histograms: (p, n, C, degree)
EXHAUSTIVE = ((2, 10, 8, 2), (2, 11, 8, 3), (2, 12, 10, 2), (2, 13, 10, 3), (2, 14, 8, 2),
              (3, 6, 5, 2), (3, 7, 4, 2), (3, 7, 6, 2))
# sampled bias certificate: (p, n, C, degree, sampled combinations)
SAMPLED = ((2, 15, 16, 2, 64),)
# exact Gowers ladders: (p, n, largest k within the default exact budget)
LADDERS = ((2, 5, 4), (2, 6, 3), (2, 8, 2), (3, 3, 4), (3, 4, 3), (3, 5, 2))
LADDER_TABLES = 3
# Monte-Carlo norms of layered-table slices: (n, k); band of 6 stderr
MONTE_CARLO = ((12, 2), (12, 3), (13, 2), (14, 2))
MC_TABLES = 2
MC_BAND = 6.0
# inverse-Gowers search: (p, n, d)
INVERSE = ((2, 10, 1), (2, 10, 1), (2, 11, 1), (2, 12, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1), (3, 3, 2),
           (3, 3, 2))
# pattern counts on independent linear factors: (p, n, C, constraint)
PATTERNS = ((2, 6, 2, "derivative"), (2, 6, 3, "derivative"), (2, 5, 2, "derivative"),
            (3, 4, 2, "derivative"), (3, 4, 3, "derivative"), (3, 5, 2, "ap3"))


def setup(seed: int, workdir) -> Workload:
    from affinetest import fixtures

    base = 1000 * seed
    ops: list[Op] = []
    for i, (p, n, c, d) in enumerate(EXHAUSTIVE):
        fac = fixtures.random_factor(p, n, c, d, base + i)
        ops += [_bias_op(fac, None), _histogram_op(fac)]
    for i, (p, n, c, d, budget) in enumerate(SAMPLED):
        ops.append(_bias_op(fixtures.random_factor(p, n, c, d, base + 100 + i), budget))
    for i, (p, n, kmax) in enumerate(LADDERS):
        for t in range(LADDER_TABLES):
            table = fixtures.random_real_table(p, n, base + 200 + 10 * i + t)
            ops += _ladder_ops(table, kmax)
    for i, (n, k) in enumerate(MONTE_CARLO):
        for t in range(MC_TABLES):
            table = fixtures.layered_table(2, n, base + 300 + 10 * i + t, quarter=True).indicator_slice(1)
            ops.append(_monte_carlo_op(table, k, base + t))
    for i, (p, n, d) in enumerate(INVERSE):
        ops.append(_inverse_op(fixtures.random_real_table(p, n, base + 400 + i), d))
    for i, (p, n, c, kind) in enumerate(PATTERNS):
        fac = fixtures.linear_factor(p, n, c, base + 500 + i)
        forms = fixtures.derivative_forms(p) if kind == "derivative" else fixtures.ap_constraint(p, 3).constraint
        ops += _pattern_ops(fac, forms, np.random.default_rng(base + 500 + i))
    return Workload(ops, cold_each_op=True)


def _factor_text(fac):
    from affinetest.factor import dump_factor

    return dump_factor(fac)


def _bias_op(fac, budget) -> Op:
    from affinetest import factor

    text = _factor_text(fac)
    p, n, c = (int(t) for t in text.split("\n", 1)[0].split())

    def run():
        if budget is None:
            return factor.bias_certificate(fac)
        return factor.bias_certificate(fac, budget=budget, seed=1)

    def check(cert):
        _, _, _, cells = oracles.cell_indices(text)
        best = oracles.max_bias(cells, p, c)
        if budget is None:
            expect(cert.exhaustive and cert.checked_combinations == p**c - 1, "not exhaustive")
            expect(abs(cert.max_bias - best) <= TOL, f"max_bias {cert.max_bias} != Fourier {best}")
        else:
            expect(not cert.exhaustive and cert.checked_combinations == budget, "sample size")
            expect(0 <= cert.max_bias <= best + TOL, f"sampled bias {cert.max_bias} > exhaustive {best}")

    mode = "exhaustive" if budget is None else f"sampled {budget}"
    return Op(f"bias_certificate {mode} p={p} n={n} C={c}", run, check)


def _histogram_op(fac) -> Op:
    from affinetest import factor

    text = _factor_text(fac)
    p, n, c = (int(t) for t in text.split("\n", 1)[0].split())

    def check(hist):
        _, _, _, cells = oracles.cell_indices(text)
        want = np.bincount(cells, minlength=p**c)
        got = np.zeros(p**c, dtype=np.int64)
        for cell, count in hist.items():
            got[sum(v * p**i for i, v in enumerate(cell))] = count
        expect(len(hist) == p**c and np.array_equal(got, want), "cell histogram")

    return Op(f"cell_histogram p={p} n={n} C={c}", lambda: factor.cell_histogram(fac), check)


def _ladder_ops(table, kmax) -> list[Op]:
    from affinetest import gowers

    p, n = table.params.p, table.params.n
    values = np.array(table.values)
    got = {}

    def op(k):
        def check(res):
            got[k] = res.value
            want = oracles.gowers(values, p, n, k)
            expect(res.mode == "exact" and abs(res.value - want) <= TOL, f"U^{k} {res.value} != Fourier {want}")
            if k == kmax:
                ladder = [got[j] for j in range(1, kmax + 1)]
                expect(all(a <= b + TOL for a, b in zip(ladder, ladder[1:])), f"U^k not monotone: {ladder}")

        return Op(f"gowers_norm exact k={k} p={p} n={n}", lambda: gowers.gowers_norm(table, k), check)

    return [op(k) for k in range(1, kmax + 1)]


def _monte_carlo_op(table, k, mc_seed) -> Op:
    from affinetest import gowers

    p, n = table.params.p, table.params.n

    def check(res):
        want = oracles.gowers(np.array(table.values), p, n, k)
        expect(res.mode == "monte_carlo" and 0 < res.stderr < np.inf, f"stderr {res.stderr}")
        expect(abs(res.value - want) <= MC_BAND * res.stderr,
               f"U^{k} estimate {res.value} +- {res.stderr} misses exact {want}")

    return Op(f"gowers_norm monte_carlo k={k} n={n}",
              lambda: gowers.gowers_norm(table, k, mode="monte_carlo", seed=mc_seed), check)


def _inverse_op(table, d) -> Op:
    from affinetest import gowers

    p, n = table.params.p, table.params.n
    values = np.array(table.values)

    def check(w):
        terms = [(c, e) for e, c in w.polynomial.terms]
        expect(all(sum(e) <= d for _, e in terms), "witness degree exceeds d")
        phases = np.exp(2j * np.pi * oracles.eval_poly(terms, p, n) / p)
        corr = abs(np.mean(values * phases))
        expect(abs(w.correlation - corr) <= TOL, f"witness correlation {w.correlation} != {corr}")
        linear = oracles.max_linear_correlation(values, p, n)
        if d == 1:
            expect(abs(w.correlation - linear) <= TOL, f"d=1 maximum {w.correlation} != max|f^| {linear}")
        else:
            u3 = oracles.gowers(values, p, n, 3)
            expect(linear - TOL <= w.correlation <= u3 + TOL,
                   f"d=2 maximum {w.correlation} outside [{linear}, U^3 = {u3}]")

    return Op(f"inverse_gowers_search d={d} p={p} n={n}", lambda: gowers.inverse_gowers_search(table, d), check)


def _pattern_ops(fac, constraint, rng) -> list[Op]:
    from affinetest import factor
    from affinetest.forms import CellImage

    p, c, ell = constraint.p, fac.complexity, constraint.ell
    n = fac.params().n
    a = [list(form.coeffs) for form in constraint.forms]
    ys = rng.integers(0, p, size=(ell, c))
    consistent = [tuple(int(v) for v in np.dot(row, ys) % p) for row in a]
    broken = list(consistent)
    broken[-1] = tuple((v + (i == 0)) % p for i, v in enumerate(broken[-1]))
    rank = oracles.gf_rank(a, p)
    ops = []
    for name, cells in (("consistent", consistent), ("inconsistent", broken)):
        image = CellImage(tuple(cells))

        def check(res, cells=cells):
            count, total = res
            expect(total == p ** (n * ell), "tuple total")
            rows_ok = all(oracles.in_column_space(a, [b[i] for b in cells], p) for i in range(c))
            want = total // p ** (c * rank) if rows_ok else 0
            expect(count == want, f"pattern count {count} != {want} (rank {rank}, consistent {rows_ok})")

        ops.append(Op(f"pattern_count {name} p={p} n={n} C={c} l={ell}",
                      lambda image=image: factor.pattern_count(fac, constraint, image), check))
    return ops
