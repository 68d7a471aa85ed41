"""Checks every oracle in oracles.py against brute force at tiny sizes.

Run from the repository root:  python3 bench/selftest.py
Exits 0 when every check passes; prints the first failure otherwise.
"""
from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

TOL = 1e-12


def _roots(p):
    return np.exp(2j * np.pi * np.arange(p) / p)


def _domain(p, n):
    return [tuple(int(c) for c in v) for v in oracles.coords(p, n).T]


def _idx(x, p):
    return sum(int(v) % p * p**i for i, v in enumerate(x))


def brute_gowers_power(vals, p, n, k):
    dom = _domain(p, n)
    total = 0.0
    for x in dom:
        for hs in itertools.product(dom, repeat=k):
            prod = 1.0 + 0j
            for mask in range(1 << k):
                pt = list(x)
                for i in range(k):
                    if mask >> i & 1:
                        pt = [a + b for a, b in zip(pt, hs[i])]
                v = vals[_idx(pt, p)]
                prod *= np.conj(v) if (k - bin(mask).count("1")) % 2 else v
            total += prod.real
    return total / len(dom) ** (k + 1)


def brute_linear_correlation(vals, p, n):
    dom = _domain(p, n)
    roots = _roots(p)
    best = 0.0
    for a in dom:
        for c in range(p):
            s = sum(vals[_idx(x, p)] * roots[(np.dot(a, x) + c) % p] for x in dom)
            best = max(best, abs(s) / len(dom))
    return best


def brute_bias(polys, p, n):
    dom = _domain(p, n)
    roots = _roots(p)
    best = 0.0
    for lam in itertools.product(range(p), repeat=len(polys)):
        if not any(lam):
            continue
        s = 0j
        for x in dom:
            val = 0
            for l, terms in zip(lam, polys):
                val += l * sum(c * np.prod([pow(xi, e, p) for xi, e in zip(x, ex)]) for c, ex in terms)
            s += roots[val % p]
        best = max(best, abs(s) / len(dom))
    return best


def brute_rank(rows, p):
    rows = [tuple(r) for r in rows]
    span = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(len(rows[0])))
            for cs in itertools.product(range(p), repeat=len(rows))}
    return round(np.log(len(span)) / np.log(p))


def check(name, ok):
    if not ok:
        print(f"FAIL {name}")
        raise SystemExit(1)
    print(f"ok   {name}")


def main():
    rng = np.random.default_rng(7)
    for p, n, ks in ((2, 3, (1, 2, 3)), (3, 2, (1, 2, 3)), (2, 2, (4,)), (5, 1, (2, 3))):
        vals = rng.uniform(-1, 1, p**n)
        for k in ks:
            got = oracles.gowers_power(vals, p, n, k, block=3)
            want = brute_gowers_power(vals, p, n, k)
            check(f"U^{k} power p={p} n={n}", abs(got - want) < TOL)
        cvals = vals * _roots(p)[rng.integers(0, p, p**n)]
        check(f"complex U^3 power p={p} n={n}",
              abs(oracles.gowers_power(cvals, p, n, 3) - brute_gowers_power(cvals, p, n, 3)) < TOL)
        check(f"linear correlation p={p} n={n}",
              abs(oracles.max_linear_correlation(vals, p, n) - brute_linear_correlation(vals, p, n)) < TOL)

    for p, n in ((2, 4), (3, 3), (5, 2)):
        vals = rng.uniform(-1, 1, p**n) + 1j * rng.uniform(-1, 1, p**n)
        want = np.fft.fftn(vals.reshape((p,) * n, order="F")).reshape(-1, order="F")
        check(f"dft against numpy.fft.fftn p={p} n={n}",
              np.abs(oracles.dft(vals[None, :], p, n)[0] - want).max() < TOL)

    for p, n, c in ((2, 3, 3), (3, 2, 2)):
        polys = []
        for _ in range(c):
            terms = [(int(rng.integers(1, p)), tuple(int(e) for e in rng.integers(0, p, n)))
                     for _ in range(3)]
            polys.append(terms)
        dom = _domain(p, n)
        for terms in polys:
            pointwise = [sum(co * np.prod([pow(xi, e, p) for xi, e in zip(x, ex)]) for co, ex in terms) % p
                         for x in dom]
            check(f"poly eval p={p} n={n}", list(oracles.eval_poly(terms, p, n)) == pointwise)
        text = f"{p} {n} {c}\n" + "\n".join(
            " ".join([str(len(t))] + [" ".join(map(str, (co,) + ex)) for co, ex in t]) for t in polys)
        _, _, cc, cells = oracles.cell_indices(text)
        check(f"exhaustive bias p={p} n={n} C={c}",
              abs(oracles.max_bias(cells, p, cc) - brute_bias(polys, p, n)) < TOL)

    for p in (2, 3, 5):
        for _ in range(5):
            rows = rng.integers(0, p, size=(3, 4))
            check(f"gf rank p={p}", oracles.gf_rank(rows, p) == brute_rank(rows, p))

    labels = rng.integers(1, 3, 2**3)
    dom = _domain(2, 3)
    for sigma in ((1, 2, 2, 2), (2, 1, 1, 1), (1, 1, 1, 2)):
        hits = [(a, b, c) for a in range(8) for b in range(8) for c in range(8)
                if oracles.labels_at_forms(labels, 2, [dom[a], dom[b], dom[c]]) == sigma]
        count, first = oracles.xor_violations(labels, sigma)
        check(f"xor violations {sigma}", count == len(hits) and first == (hits[0] if hits else None))

    for p, n in ((2, 3), (3, 2)):
        labels = rng.integers(1, p + 1, p**n)
        best = min(
            sum((np.dot(a, x) + b) % p != labels[_idx(x, p)] - 1 for x in _domain(p, n))
            for a in _domain(p, n) for b in range(p))
        check(f"affine distance p={p} n={n}",
              oracles.distance_to_affine(labels, p, n) == Fraction(best, p**n))
    print("all oracle self-tests passed")


if __name__ == "__main__":
    main()
