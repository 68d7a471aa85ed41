import itertools
from fractions import Fraction

import numpy as np
import pytest

from affinetest import (
    AffineConstraint,
    CellImage,
    FieldParams,
    Polynomial,
    RealTable,
    bias_certificate,
    cell_histogram,
    common_refinement,
    conditional_expectation,
    degree_index,
    density_index,
    eval_factor,
    is_semantic_refinement,
    pattern_count,
    pattern_probability,
    polynomial_bias,
    represents,
)
from affinetest.factor import PolynomialFactor, dump_factor, parse_factor
from affinetest.field import index_to_vec, unit_roots
from affinetest.forms import mixed_dimension
from affinetest import fixtures


def coord(p, n, i):
    return Polynomial.coordinate(p, n, i)


def test_polynomial_canonical_form():
    # x^p = x reduction and zero-coefficient dropping
    poly = Polynomial.from_monomials(3, 2, {(3, 0): 1, (1, 0): 2})
    assert poly == Polynomial.zero(3, 2)
    sq = Polynomial.from_monomials(2, 1, {(5,): 1})
    assert sq == coord(2, 1, 1)
    assert Polynomial.zero(5, 2).degree == 0


def test_polynomial_degree_and_parts():
    poly = Polynomial.from_monomials(3, 3, {(1, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): 2})
    assert poly.degree == 2
    assert poly.linear_part() == (0, 0, 1)
    assert poly.constant_part() == 2


def test_eval_factor_examples():
    empty = PolynomialFactor.trivial()
    assert eval_factor(empty, (1, 0, 1)) == ()
    b = PolynomialFactor((coord(2, 3, 1), coord(2, 3, 2)))
    assert eval_factor(b, (1, 0, 1)) == (1, 0)


def test_eval_factor_monomial_sum_oracle():
    rng = np.random.default_rng(4)
    factor = fixtures.random_factor(3, 3, 2, 2, seed=9)
    for _ in range(40):
        x = tuple(int(v) for v in rng.integers(0, 3, size=3))
        got = eval_factor(factor, x)
        for qi, q in enumerate(factor.polys):
            manual = 0
            for e, c in q.terms:
                term = c
                for xi, ei in zip(x, e):
                    term *= xi**ei
                manual += term
            assert got[qi] == manual % 3


@pytest.mark.parametrize("p,n,d", [(2, 4, 3), (3, 3, 4), (5, 2, 8), (7, 2, 6), (101, 1, 100)])
def test_polynomial_values_match_pointwise_evaluation(p, n, d):
    rng = np.random.default_rng(p + n + d)
    params = FieldParams(p, n)
    for _ in range(3):
        poly = fixtures.random_polynomial(p, n, d, rng)
        want = [poly.eval_point(index_to_vec(i, params)) for i in range(params.size)]
        assert poly.values().tolist() == want


def test_cell_histogram_examples():
    b = PolynomialFactor((coord(2, 3, 1),))
    assert cell_histogram(b) == {(0,): 4, (1,): 4}
    dup = PolynomialFactor((coord(2, 3, 1), coord(2, 3, 1)))
    hist = cell_histogram(dup)
    assert hist[(1, 0)] == 0 and hist[(0, 1)] == 0
    assert hist[(0, 0)] == 4 and hist[(1, 1)] == 4


def test_cell_histogram_rank_nullity():
    for seed in range(5):
        factor = fixtures.linear_factor(3, 4, 2, seed=seed)
        hist = cell_histogram(factor)
        assert all(c == 3 ** (4 - 2) for c in hist.values())
        assert sum(hist.values()) == 3**4


def test_conditional_expectation_examples():
    f = fixtures.random_function(3, 2, 2, seed=5).indicator_slice(1)
    ce = conditional_expectation(f, PolynomialFactor.trivial())
    assert np.allclose(ce.values, f.values.mean())
    b = PolynomialFactor((coord(2, 3, 1),))
    x1 = RealTable(FieldParams(2, 3), coord(2, 3, 1).values().astype(float))
    assert np.array_equal(conditional_expectation(x1, b).values, x1.values)


def test_conditional_expectation_recount_oracle():
    f = fixtures.random_function(3, 2, 2, seed=6).indicator_slice(2)
    b = fixtures.random_factor(3, 2, 2, 2, seed=7)
    ce = conditional_expectation(f, b)
    for cell, pts in _cells_of(b).items():
        mean = sum(f.values[i] for i in pts) / len(pts)
        for i in pts:
            assert abs(ce.values[i] - mean) < 1e-12
    # tower property is exact
    assert abs(ce.values.mean() - f.values.mean()) < 1e-12


def _cells_of(factor):
    params = factor.params()
    out = {}
    for i in range(params.size):
        from affinetest.field import index_to_vec

        out.setdefault(eval_factor(factor, index_to_vec(i, params)), []).append(i)
    return {k: v for k, v in out.items() if v}


def test_density_index_examples():
    params = FieldParams(2, 3)
    ones = RealTable(params, np.ones(8))
    assert density_index([ones], PolynomialFactor.trivial()) == 1.0
    half = RealTable(params, np.full(8, 0.5))
    assert density_index([half], PolynomialFactor.trivial()) == 0.25


def test_density_index_refinement_monotone():
    rng = np.random.default_rng(8)
    for seed in range(20):
        f = fixtures.random_function(2, 4, 2, seed=seed)
        fs = f.slices()
        b = fixtures.linear_factor(2, 4, 1, seed=seed)
        finer = b.extend(fixtures.random_polynomial(2, 4, 1, rng))
        assert density_index(fs, finer) >= density_index(fs, b) - 1e-12


def test_degree_index_examples():
    assert degree_index(PolynomialFactor.trivial()).counts == ()
    b = PolynomialFactor(
        (coord(2, 2, 1), Polynomial.from_monomials(2, 2, {(1, 1): 1}))
    )
    idx = degree_index(b)
    assert idx.count(1) == 1 and idx.count(2) == 1
    lo = PolynomialFactor(tuple(coord(2, 6, i) for i in range(1, 6)))
    hi = PolynomialFactor((Polynomial.from_monomials(2, 6, {(1, 1, 0, 0, 0, 0): 1}),))
    assert degree_index(lo) < degree_index(hi)  # (i1=5) < (i2=1) anti-lexicographically


def test_bias_certificate_examples():
    b = PolynomialFactor((coord(2, 3, 1), coord(2, 3, 2)))
    cert = bias_certificate(b)
    assert cert.max_bias == 0.0 and cert.exhaustive and cert.checked_combinations == 3
    dup = PolynomialFactor((coord(2, 3, 1), coord(2, 3, 1)))
    assert bias_certificate(dup).max_bias == 1.0


def test_bias_certificate_recomputation_oracle():
    factor = fixtures.random_factor(2, 8, 3, 2, seed=10)
    cert = bias_certificate(factor)
    assert cert.exhaustive and cert.checked_combinations == 7
    best = 0.0
    vals = [q.values() for q in factor.polys]
    for lam in itertools.product(range(2), repeat=3):
        if not any(lam):
            continue
        combo = sum(l * v for l, v in zip(lam, vals)) % 2
        poly_vals = combo.astype(np.int64)
        bias = abs(np.sum(1.0 - 2.0 * poly_vals)) / len(poly_vals)
        best = max(best, bias)
    assert cert.max_bias == best


def lambda_loop_max_bias(factor, lam_ids):
    """Max |E e_p(sum lambda_i P_i)| over the given little-endian lambda
    indices, one pass over the domain per lambda."""
    p, c = factor.polys[0].p, factor.complexity
    vals = np.stack([q.values() for q in factor.polys])
    roots = unit_roots(p)
    best = 0.0
    for lam_id in lam_ids:
        lam = np.array([(int(lam_id) // p**i) % p for i in range(c)], dtype=np.int64)
        combo = lam @ vals % p
        best = max(best, float(np.abs(roots[combo].sum()) / vals.shape[1]))
    return best


@pytest.mark.parametrize(
    "p,n,c,d", [(2, 8, 5, 2), (2, 9, 7, 3), (2, 6, 1, 1), (3, 5, 4, 2), (3, 4, 3, 1), (5, 3, 3, 2)]
)
def test_exhaustive_bias_matches_lambda_loop(p, n, c, d):
    for seed in range(3):
        factor = fixtures.random_factor(p, n, c, d, seed=seed)
        cert = bias_certificate(factor)
        assert cert.exhaustive and cert.checked_combinations == p**c - 1
        want = lambda_loop_max_bias(factor, range(1, p**c))
        if p == 2:
            assert cert.max_bias == want
        else:
            assert abs(cert.max_bias - want) < 1e-12


def test_bias_certificate_sampled_mode():
    factor = fixtures.linear_factor(2, 20, 18, seed=3)
    cert = bias_certificate(factor, budget=100, seed=1)
    assert not cert.exhaustive and cert.checked_combinations == 100


@pytest.mark.parametrize("p,n,c,budget,seed", [(2, 8, 7, 40, 2), (3, 5, 5, 30, 0)])
def test_sampled_bias_is_max_over_its_sample(p, n, c, budget, seed):
    factor = fixtures.random_factor(p, n, c, 2, seed=seed)
    cert = bias_certificate(factor, budget=budget, seed=2)
    lam_ids = np.random.default_rng(2).integers(1, p**c, size=budget, dtype=np.int64)
    assert not cert.exhaustive and cert.checked_combinations == budget
    assert abs(cert.max_bias - lambda_loop_max_bias(factor, lam_ids)) < 1e-12
    # the sample misses the exhaustive maximum here, so the test tells them apart
    assert cert.max_bias < bias_certificate(factor).max_bias - 1e-3


def test_cell_size_band_against_exhaustive_bias():
    for seed in range(6):
        factor = fixtures.random_factor(2, 8, 3, 2, seed=seed)
        cert = bias_certificate(factor)
        hist = cell_histogram(factor)
        for count in hist.values():
            dev = abs(Fraction(count, 2**8) - Fraction(1, 8))
            assert dev <= Fraction(cert.max_bias)


def test_refinement_checks():
    b12 = PolynomialFactor((coord(2, 2, 1), coord(2, 2, 2)))
    s = PolynomialFactor((Polynomial.linear(2, 2, [1, 1]),))
    assert is_semantic_refinement(b12, b12)
    assert is_semantic_refinement(b12, s)
    assert not is_semantic_refinement(
        PolynomialFactor((coord(2, 2, 1),)), PolynomialFactor((coord(2, 2, 2),))
    )


def test_common_refinement():
    b = PolynomialFactor((coord(2, 3, 1),))
    assert common_refinement(b, PolynomialFactor.trivial()) == b
    c = PolynomialFactor((coord(2, 3, 2),))
    joint = common_refinement(b, c)
    assert joint.complexity == 2
    dup = common_refinement(b, b)
    assert dup.complexity == 1
    assert joint.is_syntactic_refinement_of(b)


def test_represents_trivial_cases():
    f = fixtures.random_function(2, 4, 2, seed=11)
    b = fixtures.linear_factor(2, 4, 2, seed=11)
    assert represents(f, b, b, 0.01)
    # measurable function: subcell means equal cell means
    vals = 1 + coord(2, 4, 1).values()
    fm = f.with_values(vals)
    fine = b if b.polys[0].linear_part() == (1, 0, 0, 0) else PolynomialFactor(
        (coord(2, 4, 1), coord(2, 4, 2))
    )
    assert represents(fm, fine.extend(coord(2, 4, 3)), fine, 0.05)


def test_represents_adversarial_concentration():
    # one subcell per cell carries all the mass difference: fails small zeta
    params = FieldParams(2, 4)
    coarse = PolynomialFactor((coord(2, 4, 1),))
    fine = PolynomialFactor((coord(2, 4, 1), coord(2, 4, 2), coord(2, 4, 3)))
    x2 = coord(2, 4, 2).values()
    x3 = coord(2, 4, 3).values()
    vals = np.where((x2 == 0) & (x3 == 0), 2, 1)
    f = fixtures.random_function(2, 4, 2, seed=0).with_values(vals)
    assert not represents(f, fine, coarse, 0.2)


def test_pattern_probability_examples():
    # single linear polynomial, single form: exactly p^-1 for every cell
    b = PolynomialFactor((coord(3, 2, 1),))
    a = AffineConstraint.from_rows(3, [(1,)])
    for cell in range(3):
        img = CellImage(((cell,),))
        assert pattern_count(b, a, img) == (3, 9)
        assert pattern_probability(b, a, img, mode="predicted") == 1 / 3
        assert pattern_probability(b, a, img, mode="bruteforce") == 3 / 9


def test_pattern_probability_blr_exact():
    b = PolynomialFactor((coord(2, 4, 1), coord(2, 4, 2)))
    a = AffineConstraint.from_rows(2, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    img = CellImage(((0, 1), (1, 1), (1, 0), (0, 0)))  # rows sum to 0: consistent
    count, total = pattern_count(b, a, img)
    s = mixed_dimension(a.forms, (1, 1))
    assert s == 6
    assert Fraction(count, total) == Fraction(1, 2**6)
    assert pattern_probability(b, a, img, mode="predicted") == 1 / 2**6
    bad = CellImage(((1, 0), (0, 0), (0, 0), (0, 0)))
    assert pattern_probability(b, a, bad, mode="bruteforce") == 0.0
    assert pattern_probability(b, a, bad, mode="predicted") == 0.0


def test_pattern_probability_band_for_degree_two():
    # within max_bias * p^(mC) of the prediction for certified factors
    factor = fixtures.random_factor(2, 6, 2, 2, seed=14)
    cert = bias_certificate(factor)
    a = AffineConstraint.from_rows(2, [(1, 0), (1, 1)])
    rng = np.random.default_rng(15)
    for _ in range(10):
        img = CellImage(
            tuple(tuple(int(v) for v in rng.integers(0, 2, size=2)) for _ in range(2))
        )
        brute = pattern_probability(factor, a, img, mode="bruteforce")
        pred = pattern_probability(factor, a, img, mode="predicted")
        band = cert.max_bias * 2 ** (2 * 2)
        if pred > 0:
            assert abs(brute - pred) <= band + 1e-12
        else:
            assert brute == 0.0


def test_predicted_mode_needs_positive_degrees():
    b = PolynomialFactor((Polynomial.zero(2, 3),))
    a = AffineConstraint.from_rows(2, [(1,)])
    with pytest.raises(ValueError):
        pattern_probability(b, a, CellImage(((0,),)), mode="predicted")


def test_defect_cauchy_schwarz():
    rng = np.random.default_rng(16)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        alpha = rng.uniform(0.05, 1.0, size=m)
        alpha /= alpha.sum()
        f = rng.uniform(0.0, 1.0, size=m)
        j = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
        a = float(alpha @ f)
        xi = float(alpha[j].sum())
        eta = float(alpha[j] @ f[j]) / xi - a
        lhs = float(alpha @ (f**2))
        assert lhs >= a**2 + xi * eta**2 - 1e-12


def test_factor_file_round_trip():
    factor = fixtures.random_factor(3, 3, 2, 2, seed=18)
    text = dump_factor(factor)
    back, params = parse_factor(text)
    assert back == factor and params == FieldParams(3, 3)
    assert dump_factor(back, params) == text
