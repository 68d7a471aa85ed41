import itertools

import numpy as np
import pytest

from affinetest import (
    FieldParams,
    LinearForm,
    Polynomial,
    RealTable,
    correlation,
    gowers_norm,
    gowers_norm_values,
    inverse_gowers_search,
    polynomial_bias,
    system_product_mean,
)
from affinetest.field import BudgetError, index_to_vec
from affinetest.gowers import TIE_RTOL
from affinetest.poly import monomials_up_to_degree
from affinetest.forms import eval_form
from affinetest import fixtures


def reference_gowers(values, params, k):
    """Literal enumeration of (x, y_1, ..., y_k); the oracle the fast path
    must match."""
    p, n = params.p, params.n
    pts = [index_to_vec(i, params) for i in range(params.size)]
    total = 0.0 + 0.0j
    for tup in itertools.product(range(params.size), repeat=k + 1):
        x = pts[tup[0]]
        term = 1.0 + 0.0j
        for bits in itertools.product((0, 1), repeat=k):
            pt = tuple(
                (x[t] + sum(b * pts[tup[1 + i]][t] for i, b in enumerate(bits))) % p
                for t in range(n)
            )
            v = complex(values[sum(c * p**t for t, c in enumerate(pt))])
            if (k - sum(bits)) % 2:
                v = v.conjugate()
            term *= v
        total += term
    rad = (total / params.size ** (k + 1)).real
    return max(rad, 0.0) ** (1.0 / (1 << k))


def test_constant_table_norm_is_the_constant():
    params = FieldParams(2, 3)
    f = RealTable(params, np.full(8, 0.3))
    for k in (1, 2, 3):
        assert abs(gowers_norm(f, k).value - 0.3) < 1e-12


def test_u1_is_mean_magnitude():
    params = FieldParams(2, 3)
    vals = np.array([i & 1 for i in range(8)], dtype=float)
    assert abs(gowers_norm(RealTable(params, vals), 1).value - 0.5) < 1e-12


def test_u2_of_linear_character_is_one():
    params = FieldParams(2, 3)
    vals = 1.0 - 2.0 * np.array([i & 1 for i in range(8)], dtype=float)
    assert abs(gowers_norm(RealTable(params, vals), 2).value - 1.0) < 1e-12


@pytest.mark.parametrize(
    "p,n,k",
    [(2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (2, 3, 2), (5, 1, 2), (3, 1, 4), (2, 2, 4),
     (2, 0, 1), (3, 0, 2), (5, 0, 3)],
)
def test_exact_matches_reference_enumeration(p, n, k):
    t = fixtures.random_real_table(p, n, seed=p * 10 + n + k)
    got = gowers_norm(t, k).value
    want = reference_gowers(t.values, t.params, k)
    assert abs(got - want) < 1e-10


def test_exact_matches_reference_for_complex_values():
    rng = np.random.default_rng(8)
    for params in (FieldParams(3, 1), FieldParams(2, 2)):
        vals = rng.uniform(-1, 1, params.size) + 1j * rng.uniform(-1, 1, params.size)
        for k in (1, 2, 3, 4):
            got = gowers_norm_values(vals, params, k).value
            want = reference_gowers(vals, params, k)
            assert abs(got - want) < 1e-10


def test_monotone_ladder_on_random_tables():
    for seed in range(20):
        t = fixtures.random_real_table(2, 4, seed=seed, lo=0.0, hi=1.0)
        u1 = gowers_norm(t, 1).value
        u2 = gowers_norm(t, 2).value
        u3 = gowers_norm(t, 3).value
        assert u1 <= u2 + 1e-9 <= u3 + 2e-9


def test_phase_of_low_degree_polynomial_has_full_norm():
    from affinetest.field import unit_roots

    for p, n, d in [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (2, 2, 2), (3, 3, 1)]:
        rng = np.random.default_rng(p * 100 + n * 10 + d)
        poly = fixtures.random_polynomial(p, n, d, rng)
        vals = unit_roots(p)[poly.values()]
        res = gowers_norm_values(vals, FieldParams(p, n), d + 1)
        assert abs(res.value - 1.0) < 1e-9


def test_exact_budget_error():
    t = fixtures.random_real_table(2, 5, seed=1)
    with pytest.raises(BudgetError):
        gowers_norm(t, 3, budget=1 << 10)


def test_monte_carlo_calibration():
    t = fixtures.random_real_table(2, 4, seed=3, lo=0.0, hi=1.0)
    exact = gowers_norm(t, 2).value
    hits = 0
    for seed in range(30):
        mc = gowers_norm(t, 2, mode="monte_carlo", samples=20000, seed=seed)
        assert mc.stderr > 0
        hits += abs(mc.value - exact) <= 4 * mc.stderr
    assert hits >= 27


def test_monte_carlo_deterministic_given_seed():
    t = fixtures.random_real_table(2, 4, seed=4)
    a = gowers_norm(t, 2, mode="monte_carlo", samples=5000, seed=9)
    b = gowers_norm(t, 2, mode="monte_carlo", samples=5000, seed=9)
    assert a == b


def test_polynomial_bias_examples():
    assert polynomial_bias(Polynomial.zero(2, 3)) == 1.0
    assert polynomial_bias(Polynomial.coordinate(2, 4, 1)) == 0.0
    quad = Polynomial.from_monomials(2, 2, {(1, 1): 1})
    assert abs(polynomial_bias(quad) - 0.5) < 1e-12


def test_correlation_examples():
    params = FieldParams(2, 3)
    zero = RealTable(params, np.zeros(8))
    poly = Polynomial.coordinate(2, 3, 2)
    assert correlation(zero, poly) == 0.0
    signed = RealTable(params, 1.0 - 2.0 * poly.values().astype(float))
    assert abs(correlation(signed, poly) - 1.0) < 1e-12


def fwht(v):
    v = np.array(v, dtype=float)
    h = 1
    while h < len(v):
        for i in range(0, len(v), h * 2):
            a, b = v[i : i + h].copy(), v[i + h : i + 2 * h].copy()
            v[i : i + h] = a + b
            v[i + h : i + 2 * h] = a - b
        h *= 2
    return v


def test_max_affine_correlation_matches_walsh_spectrum():
    t = fixtures.random_real_table(2, 4, seed=6)
    # Walsh coefficients over all 2^4 linear parts; constants only flip sign
    walsh_max = np.max(np.abs(fwht(t.values))) / 16
    best = 0.0
    for flat in range(32):
        coeffs = [(flat >> i) & 1 for i in range(4)]
        poly = Polynomial.linear(2, 4, coeffs, constant=flat >> 4)
        best = max(best, correlation(t, poly))
    assert abs(best - walsh_max) < 1e-12
    witness = inverse_gowers_search(t, 1)
    assert abs(witness.correlation - walsh_max) < 1e-12


def test_inverse_search_examples():
    quad = Polynomial.from_monomials(2, 2, {(1, 1): 1})
    params = FieldParams(2, 2)
    f = RealTable(params, 1.0 - 2.0 * quad.values().astype(float))
    w = inverse_gowers_search(f, 2)
    assert w.polynomial == quad
    assert abs(w.correlation - 1.0) < 1e-12
    zero = RealTable(params, np.zeros(4))
    wz = inverse_gowers_search(zero, 2)
    assert wz.polynomial == Polynomial.zero(2, 2)
    assert wz.correlation == 0.0
    # the only U^2-null table is 0, and its best correlation is 0
    null = RealTable(FieldParams(2, 3), np.zeros(8))
    assert gowers_norm(null, 2).value == 0.0
    assert inverse_gowers_search(null, 1).correlation == 0.0


def coefficient_vectors(p, n, d):
    """Every polynomial of degree <= d in canonical order: the index of a
    coefficient vector is little-endian over monomials_up_to_degree."""
    monos = monomials_up_to_degree(p, n, d)
    for coeffs in itertools.product(range(p), repeat=len(monos)):
        yield Polynomial.from_monomials(p, n, dict(zip(monos, reversed(coeffs))))


@pytest.mark.parametrize("p,n,d", [(2, 3, 2), (3, 2, 2), (3, 3, 1), (5, 2, 1), (3, 3, 0), (3, 2, 0)])
def test_inverse_search_tie_rule_against_brute_force(p, n, d):
    for seed in range(3):
        for t in (
            fixtures.random_real_table(p, n, seed=seed),
            fixtures.random_function(p, n, 3, seed).indicator_slice(1),
        ):
            corrs = [(correlation(t, q), q) for q in coefficient_vectors(p, n, d)]
            top = max(c for c, _ in corrs)
            earliest = next(q for c, q in corrs if c >= (1.0 - TIE_RTOL) * top)
            w = inverse_gowers_search(t, d)
            assert w.polynomial == earliest
            assert abs(w.correlation - top) < 1e-12
            if d == 0:
                assert w.polynomial == Polynomial.zero(p, n)


def test_inverse_search_budget():
    t = fixtures.random_real_table(2, 5, seed=2)
    with pytest.raises(BudgetError):
        inverse_gowers_search(t, 2, budget=4)


def brute_product_mean(tables, forms):
    params = tables[0].params
    pts = [index_to_vec(i, params) for i in range(params.size)]
    ell = forms[0].ell
    total = 0.0
    for tup in itertools.product(pts, repeat=ell):
        v = 1.0
        for form, t in zip(forms, tables):
            v *= t(eval_form(form, tup))
        total += v
    return total / params.size**ell


def test_system_product_mean_against_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(15):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        forms = [
            LinearForm(p, tuple(int(c) for c in rng.integers(0, p, size=ell)))
            for _ in range(m)
        ]
        tables = [fixtures.random_real_table(p, n, seed=trial * 31 + i) for i in range(m)]
        assert abs(system_product_mean(tables, forms) - brute_product_mean(tables, forms)) < 1e-10
