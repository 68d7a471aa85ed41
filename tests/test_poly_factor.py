import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

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
from affinetest.factor import (
    DegreeIndex,
    PolynomialFactor,
    cell_index_array,
    dump_factor,
    label_frequencies,
    parse_factor,
)
from affinetest.field import (
    BudgetError,
    canonical_index,
    fourier_means,
    index_to_vec,
    is_prime,
    unit_roots,
)
from affinetest.forms import consistency_check, mixed_dimension
from affinetest.poly import _power_table, _transform_values, monomials_up_to_degree
from affinetest import factor as factor_module, fixtures
from reference import (
    cell_of_index,
    constant_part,
    domain_coords,
    reference_degree_index_lt,
    reference_is_semantic_refinement,
    reference_sampled_max_bias,
)


def coord(p, n, i):
    return Polynomial.coordinate(p, n, i)


def test_polynomial_canonical_form():
    # x^p = x reduction and zero-coefficient dropping
    poly = Polynomial.from_monomials(3, 2, {(3, 0): 1, (1, 0): 2})
    assert poly == Polynomial.zero(3, 2)
    sq = Polynomial.from_monomials(2, 1, {(5,): 1})
    assert sq == coord(2, 1, 1)
    assert Polynomial.zero(5, 2).degree == 0


@pytest.mark.parametrize("p,n,expts", [(2, 1, (-1,)), (3, 2, (1, -2)), (5, 3, (0, 0, -7))])
def test_polynomial_rejects_negative_exponents(p, n, expts):
    with pytest.raises(ValueError, match="negative"):
        Polynomial.from_monomials(p, n, {expts: 1})


def reference_monomials(p, n, d):
    """Every exponent vector in [0, min(p - 1, d)]^n, filtered to degree <= d
    and sorted; the oracle for the degree-bounded enumeration."""
    monos = [e for e in itertools.product(range(min(p - 1, d) + 1), repeat=n) if sum(e) <= d]
    return sorted(monos, key=lambda e: (sum(e), e))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monomials_up_to_degree_match_filtered_product(p):
    for n in range(7):
        for d in range(-1, 5):
            assert monomials_up_to_degree(p, n, d) == reference_monomials(p, n, d)


def test_polynomial_degree_and_parts():
    poly = Polynomial.from_monomials(3, 3, {(1, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): 2})
    assert poly.degree == 2
    assert poly.linear_part() == (0, 0, 1)
    assert constant_part(poly) == 2


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


@pytest.mark.parametrize("p,n,d", [
    (2, 4, 3), (3, 3, 4), (5, 2, 8), (7, 2, 6), (101, 1, 100), (2, 6, 1), (3, 4, 1), (5, 3, 0),
])
def test_polynomial_values_match_pointwise_evaluation(p, n, d):
    rng = np.random.default_rng(p + n + d)
    params = FieldParams(p, n)
    for _ in range(3):
        poly = fixtures.random_polynomial(p, n, d, rng)
        want = [poly.eval_point(index_to_vec(i, params)) for i in range(params.size)]
        assert poly.values().tolist() == want


def reference_poly_values(poly):
    """Per-term evaluator: the degree <= 1 part as an outer sum, then
    np.full plus a multiply and a mod over the domain per variable of every
    degree >= 2 term."""
    params, p = poly.params, poly.p
    linear = poly.linear_part()
    top = max((t + 1 for t, c in enumerate(linear) if c), default=0)
    acc = np.array([constant_part(poly)], dtype=np.int64)
    digits = np.arange(p, dtype=np.int64)[:, None]
    for c in linear[:top]:
        acc = (acc + c * digits).ravel()
    acc = np.tile(acc, p ** (params.n - top))
    for e, c in poly.terms:
        if sum(e) <= 1:
            continue
        coords = domain_coords(params)
        term = np.full(params.size, c, dtype=np.int64)
        for t, et in enumerate(e):
            if et == 1:
                term = term * coords[t] % p
            elif et:
                powers = np.array([pow(x, et, p) for x in range(p)], dtype=np.int64)
                term = term * powers[coords[t]] % p
        acc += term
    acc %= p
    acc.setflags(write=False)
    return acc


def value_dtype(p):
    """The dtype of value tables over F_p: the narrowest that holds p - 1."""
    return np.dtype(
        np.uint8 if p < 2**8 else np.uint16 if p < 2**16 else np.uint32 if p < 2**32 else np.int64
    )


def assert_values_match_reference(poly):
    got, want = poly.values(), reference_poly_values(poly)
    assert got.dtype == value_dtype(poly.p) and want.dtype == np.int64
    assert got.shape == want.shape == (poly.p**poly.n,)
    assert not got.flags.writeable
    assert np.array_equal(got, want)


# n from 0 up to about 10^5 points per p
SIZES = {2: (0, 1, 2, 5, 11, 16), 3: (0, 1, 2, 4, 7, 10), 5: (0, 1, 3, 5, 7), 7: (0, 1, 3, 6)}
P_N = [(p, n) for p, ns in SIZES.items() for n in ns]


@pytest.mark.parametrize("p,n", P_N)
def test_values_of_zero_and_constant_polynomials(p, n):
    assert_values_match_reference(Polynomial.zero(p, n))
    for c in range(1, p):
        poly = Polynomial.from_monomials(p, n, {(0,) * n: c})
        assert_values_match_reference(poly)
        assert set(poly.values().tolist()) == {c}


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_values_of_every_single_monomial(p, n):
    # every exponent vector in [0, p - 1]^n, so each exponent at each
    # coordinate, alone and together, and terms ending below coordinate n
    rng = np.random.default_rng(p * 10 + n)
    for e in itertools.product(range(p), repeat=n):
        poly = Polynomial.from_monomials(p, n, {e: int(rng.integers(1, p))})
        assert poly.terms and poly.terms[0][0] == e
        assert_values_match_reference(poly)


@pytest.mark.parametrize("p,n", [(p, n) for p, n in P_N if n >= 3])
def test_values_of_terms_ending_below_n(p, n):
    # the transform covers the first k coordinates and is repeated over the rest
    rng = np.random.default_rng(p + 100 * n)
    for k in (1, 2, 3):
        low = fixtures.random_polynomial(p, k, min(2, (p - 1) * k), rng)
        monos = {e + (0,) * (n - k): c for e, c in low.terms}
        assert_values_match_reference(Polynomial.from_monomials(p, n, monos))
        monos[(0,) * (n - 1) + (1,)] = 1  # with a linear part up to coordinate n
        assert_values_match_reference(Polynomial.from_monomials(p, n, monos))
    # a monomial skipping the coordinates in between
    gap = Polynomial.from_monomials(p, n, {(1,) + (0,) * (n - 3) + (min(2, p - 1), 0): 1})
    assert_values_match_reference(gap)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_values_of_random_polynomials_of_every_degree(p, n):
    rng = np.random.default_rng(7 * p + n)
    for d in range((p - 1) * n + 1):
        for _ in range(3):
            assert_values_match_reference(fixtures.random_polynomial(p, n, d, rng))


@pytest.mark.parametrize("p,n,d", [(2, 16, 2), (2, 11, 3), (3, 10, 2), (3, 7, 4), (5, 7, 2), (7, 6, 2)])
def test_values_of_random_polynomials_near_10_5_points(p, n, d):
    assert_values_match_reference(fixtures.random_polynomial(p, n, d, np.random.default_rng(d)))


def test_values_in_the_uint64_transform_dtype():
    # p^3 > 2^64, but the transform's sums, one product of two residues per
    # exponent in use (3 here), stay below 2^64: they run in uint64
    p = 2642246
    while not is_prime(p):
        p += 1
    assert p**3 > 2**64 and 3 * (p - 1) ** 2 < 2**64
    poly = Polynomial.from_monomials(p, 1, {(2,): 5, (1,): 7, (0,): 3})
    assert _transform_values(poly.terms, p).dtype == np.uint64
    vals = poly.values()
    assert vals.dtype == np.uint32 and vals.shape == (p,) and not vals.flags.writeable
    for x in [0, 1, 2, p - 1] + np.random.default_rng(0).integers(0, p, 20).tolist():
        assert vals[x] == poly.eval_point((x,))


@pytest.mark.parametrize("p,n,dtype", [
    (11, 2, np.uint8), (13, 2, np.uint16),
    (181, 2, np.uint16), (191, 2, np.uint32),
    (46337, 1, np.uint32), (46349, 1, np.uint64),
])
def test_linear_and_constant_terms_on_both_sides_of_each_transform_dtype(p, n, dtype):
    # exponents 0 and 1 in use on every coordinate: sums up to 2(p - 1)^2,
    # just within the dtype for the first prime of each pair, just past it
    # for the second
    rng = np.random.default_rng(p)
    poly = Polynomial.linear(p, n, rng.integers(1, p, n).tolist(), int(rng.integers(1, p)))
    assert _transform_values(poly.terms, p).dtype == dtype
    assert_values_match_reference(poly)
    assert_values_match_reference(Polynomial.from_monomials(p, n, {(0,) * n: p - 1}))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_power_table_equals_pow(p):
    # the transform's square-and-multiply table against Python's pow, every
    # exponent at once and a few alone
    want = np.array([[pow(x, e, p) for e in range(p)] for x in range(p)])
    assert np.array_equal(_power_table(p, tuple(range(p))), want)
    for e in (0, 1, p - 1):
        assert np.array_equal(_power_table(p, (e,)), want[:, [e]])


@st.composite
def polynomials_and_points(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, {2: 9, 3: 6, 5: 4, 7: 3}[p]))
    expts = st.tuples(*[st.integers(0, 2 * p) for _ in range(n)])
    monos = draw(st.dictionaries(expts, st.integers(-p, 2 * p), max_size=12))
    x = draw(st.tuples(*[st.integers(0, p - 1) for _ in range(n)]))
    return Polynomial.from_monomials(p, n, monos), x


@settings(max_examples=200, deadline=None)
@given(polynomials_and_points())
def test_values_agree_with_pointwise_evaluation(case):
    poly, x = case
    assert poly.values()[canonical_index(x, poly.params)] == poly.eval_point(x)


@st.composite
def polynomials_at_residue_widths(draw):
    # primes on both sides of 2^8 and past 2^16; zero and constant
    # polynomials drawn on purpose, every exponent in [0, p - 1] possible
    p = draw(st.sampled_from([2, 3, 5, 7, 251, 257, 65537]))
    n = draw(st.integers(0, {2: 9, 3: 6, 5: 4, 7: 3, 251: 2, 257: 2, 65537: 1}[p]))
    point = st.tuples(*[st.integers(0, p - 1) for _ in range(n)])
    kind = draw(st.sampled_from(["zero", "constant", "any"]))
    if kind == "zero":
        monos = {}
    elif kind == "constant":
        monos = {(0,) * n: draw(st.integers(1, p - 1))}
    else:
        monos = draw(st.dictionaries(point, st.integers(0, p - 1), max_size=6))
    points = draw(st.lists(point, min_size=1, max_size=8))
    return Polynomial.from_monomials(p, n, monos), points


@settings(max_examples=150, deadline=None)
@given(polynomials_at_residue_widths())
def test_values_are_read_only_residues_of_the_narrowest_dtype(case):
    poly, points = case
    params = poly.params
    event(f"p = {poly.p}")
    vals = poly.values()
    assert vals.dtype == value_dtype(poly.p) and vals.shape == (params.size,)
    assert not vals.flags.writeable and poly.values() is vals
    for x in points:
        assert int(vals[canonical_index(x, params)]) == poly.eval_point(x)
    if params.size <= 4096:
        want = [poly.eval_point(index_to_vec(i, params)) for i in range(params.size)]
        assert np.array_equal(vals, np.array(want, dtype=np.int64))


def test_values_past_2_32_are_int64():
    # p^0 = 1 point: the one domain on which a value table over such a field fits
    p = 2**32 + 15
    assert is_prime(p)
    for poly in (Polynomial.zero(p, 0), Polynomial.from_monomials(p, 0, {(): p - 1})):
        vals = poly.values()
        assert vals.dtype == np.int64 and vals.tolist() == [poly.eval_point(())]


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


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("c", [0, 1, 3])
def test_cell_histogram_matches_per_cell_decoding(p, c):
    # keys, their order and counts as decoded one cell at a time (c = 0 is
    # the empty factor, whose one cell is ())
    params = FieldParams(p, 3)
    factor = fixtures.random_factor(p, 3, c, 2, seed=10 * p + c)
    counts = np.bincount(cell_index_array(factor, params), minlength=p**c)
    want = {cell_of_index(i, factor): int(k) for i, k in enumerate(counts)}
    got = cell_histogram(factor, params)
    assert list(got.items()) == list(want.items())
    assert {type(x) for cell, k in got.items() for x in (*cell, k)} <= {int}


def python_cell_indices(factor, params):
    """sum_i P_i(x) p^i of every point x, in Python integers."""
    values = [q.values().tolist() for q in factor.polys]
    return [
        sum(v[x] * params.p**i for i, v in enumerate(values)) for x in range(params.size)
    ]


@pytest.mark.parametrize("p,n,c,seed", [
    (2, 3, 62, 0), (2, 4, 61, 1), (2, 5, 7, 2), (3, 3, 39, 3), (3, 2, 0, 4), (5, 2, 26, 5),
    (7, 2, 3, 6),
])
def test_cell_index_array_is_the_digit_sum(p, n, c, seed):
    # p = 2, C = 62 is the bound: indices up to 2^62 - 1
    params = FieldParams(p, n)
    factor = fixtures.random_factor(p, n, c, 2, seed=seed)
    assert cell_index_array(factor, params).tolist() == python_cell_indices(factor, params)


def test_cell_index_array_accumulates_uint8_values_in_int64():
    # the values are uint8 at p = 3, where 2 * 3^5 = 486 would wrap to 230
    params = FieldParams(3, 4)
    factor = fixtures.random_factor(3, 4, 7, 2, seed=8)
    assert {q.values().dtype for q in factor.polys} == {np.dtype(np.uint8)}
    want = sum(q.values().astype(np.int64) * 3**i for i, q in enumerate(factor.polys))
    assert want.max() > 2 * 3**5
    got = cell_index_array(factor, params)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_cell_index_array_rejects_more_than_2_62_cells():
    # 3^40 > 2^63: int64 indices would wrap, and some would come out negative
    params = FieldParams(3, 3)
    factor = fixtures.random_factor(3, 3, 40, 2, seed=0)
    assert max(python_cell_indices(factor, params)) >= 2**63
    for call in (cell_index_array, cell_histogram, bias_certificate):
        # the cell space overflows, not the 27-point domain
        with pytest.raises(ValueError, match=r"^cell space p\^C = 3\^40 overflows the index type"):
            call(factor, params)


def test_cell_histogram_charges_the_cell_space():
    # 2^30 cells over an 8-point domain: the cell space, not the domain, binds
    factor = fixtures.random_factor(2, 3, 30, 1, seed=0)
    with pytest.raises(BudgetError, match="cell space"):
        cell_histogram(factor, budget=1 << 24)
    small = fixtures.random_factor(2, 3, 5, 1, seed=0)
    assert sum(cell_histogram(small, budget=32).values()) == 8
    with pytest.raises(BudgetError):
        cell_histogram(small, budget=31)


@pytest.mark.parametrize("budget, bound", [(16, 16), (4, 8)])  # max(p^n, budget), p^n = 8
def test_per_cell_arrays_are_bounded_by_domain_or_budget(monkeypatch, budget, bound):
    f = fixtures.random_function(2, 3, 2, seed=1)
    c = bound.bit_length() - 1  # 2^c = bound cells fit, one polynomial more does not
    fits = fixtures.random_factor(2, 3, c, 1, seed=0)
    coarse = PolynomialFactor(fits.polys[:1])
    wide = fits.extend(coord(2, 3, 1))
    want = (conditional_expectation(f.indicator_slice(1), fits).values.tolist(),
            represents(f, fits, coarse, 0.5))
    monkeypatch.setattr(factor_module, "ENUM_BUDGET", budget)
    assert (conditional_expectation(f.indicator_slice(1), fits).values.tolist(),
            represents(f, fits, coarse, 0.5)) == want
    message = rf"^per-cell array of p\^C = 2\^{c + 1} cells exceeds max\(p\^n, budget\) = {bound}$"
    with pytest.raises(BudgetError, match=message):
        conditional_expectation(f.indicator_slice(1), wide)
    with pytest.raises(BudgetError, match=message):
        represents(f, wide, coarse, 0.5)


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


def _factor_of_degrees(degrees):
    """A factor over F_2^6 whose polynomials have the given degrees (x_1 ... x_d)."""
    return PolynomialFactor(tuple(
        Polynomial.from_monomials(2, 6, {(1,) * d + (0,) * (6 - d): 1}) for d in degrees
    ))


def test_degree_index_order_on_every_pair_of_small_degree_multisets():
    # the 70 multisets of at most four degrees in 0..3, all 4,900 pairs
    pick = itertools.combinations_with_replacement
    multisets = [ds for k in range(5) for ds in pick(range(4), k)]
    indices = [DegreeIndex(tuple(sorted(Counter(ds).items()))) for ds in multisets]
    for a, b in itertools.product(indices, repeat=2):
        assert (a < b) == reference_degree_index_lt(a, b)
        assert (a <= b) == (a == b or reference_degree_index_lt(a, b))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=7),
    st.lists(st.integers(0, 6), max_size=7),
)
@example([2, 1, 1, 1, 1, 1], [2, 2])
@example([1], [1, 0])
def test_degree_index_order_is_the_anti_lexicographic_one(da, db):
    a, b = (degree_index(_factor_of_degrees(ds)) for ds in (da, db))
    assert a.counts == tuple(sorted(Counter(da).items()))
    assert (a < b) == reference_degree_index_lt(a, b)
    assert (a <= b) == (a == b or reference_degree_index_lt(a, b))
    assert (a == b) == (sorted(da) == sorted(db))


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


@pytest.mark.parametrize("p,c", [(2, 17), (2, 18), (2, 19), (2, 20), (3, 11)])
def test_sampled_bias_equals_the_digit_loop_scoring(p, c):
    # bit for bit, not within a tolerance.  At p = 2, n = 10 and 300 lambdas,
    # C = 17 and 18 (2^C <= 300 * 2^10) read the lambdas off the histogram's
    # spectrum, C = 19 and 20 score them on the occupied cells
    factor = fixtures.random_factor(p, {2: 10, 3: 6}[p], c, 2, seed=c)
    for seed in range(3):
        cert = bias_certificate(factor, budget=300, seed=seed)
        assert not cert.exhaustive
        assert cert.max_bias == reference_sampled_max_bias(factor, factor.params(), 300, seed)


@pytest.mark.parametrize("p, n, c", [(2, 6, 10), (3, 4, 6)])
def test_sampled_bias_reads_the_lambdas_of_default_rng_seed(p, n, c):
    # three lambdas per sample: the maximum differs from seed to seed, so it
    # pins the stream, that of default_rng(seed) at large seeds too
    factor = fixtures.random_factor(p, n, c, 2, seed=1)
    seeds = (0, 1, 7, 2**40 + 3, 2**70 + 5)
    got = [bias_certificate(factor, budget=3, seed=seed).max_bias for seed in seeds]
    assert got == [reference_sampled_max_bias(factor, factor.params(), 3, seed) for seed in seeds]
    assert len(set(got)) > 1


def sampled_bias_and_route(factor, budget, seed):
    """(max_bias, whether it was read off the spectrum) of a sampled certificate."""
    with mock.patch.object(factor_module, "fourier_means", wraps=fourier_means) as spy:
        cert = bias_certificate(factor, budget=budget, seed=seed)
    assert not cert.exhaustive and cert.checked_combinations == budget
    return cert.max_bias, spy.called


@st.composite
def sampled_bias_cases(draw):
    """(n, C, budget, seed) of a sampled certificate at p = 2, with budget * 2^n
    up to 2^20 on either side of 2^C."""
    n = draw(st.integers(1, 12), label="n")
    c = draw(st.integers(2, 20), label="C")
    top = min(2**c - 2, 1 << 14, (1 << 20) >> n)
    budget = draw(st.one_of(st.integers(1, min(top, 8)), st.integers(1, top)), label="budget")
    return n, c, budget, draw(st.integers(0, 3), label="seed")


@settings(max_examples=100, deadline=None)
@given(sampled_bias_cases())
@example((12, 20, 256, 0))  # 2^C = budget * 2^n: the spectrum
@example((12, 20, 255, 1))  # one lambda fewer: the scoring
@example((3, 17, 1 << 14, 2))  # 2^C = budget * 2^n at the fewest points
def test_sampled_bias_at_p2_equals_the_digit_loop_scoring(case):
    n, c, budget, seed = case
    factor = fixtures.random_factor(2, n, c, min(2, n), seed=seed)
    max_bias, spectral = sampled_bias_and_route(factor, budget, seed)
    event("spectrum" if spectral else "scoring")
    assert spectral == (2**c <= budget * 2**n)
    assert max_bias == reference_sampled_max_bias(factor, factor.params(), budget, seed)


def test_sampled_bias_past_the_spectrum_cap_scores_its_lambdas(monkeypatch):
    # 2^12 cells and 2^12 * 2^7 sampled entries: the spectrum unless it would
    # exceed one scoring chunk, which a small chunk makes it
    factor = fixtures.random_factor(2, 7, 12, 2, seed=4)
    want = [reference_sampled_max_bias(factor, factor.params(), 40, seed) for seed in range(3)]
    for chunk, spectral in ((factor_module.BIAS_CHUNK, True), (1 << 12, True), (1 << 11, False)):
        monkeypatch.setattr(factor_module, "BIAS_CHUNK", chunk)
        got = [sampled_bias_and_route(factor, 40, seed) for seed in range(3)]
        assert got == [(bias, spectral) for bias in want]


@pytest.mark.parametrize("p,n,c", [(3, 6, 7), (5, 4, 5)])
def test_sampled_bias_at_odd_p_keeps_the_digit_loop_scoring(p, n, c):
    # p^C <= budget * p^n, yet no transform: at p >= 3 it would round
    # differently in the last bits
    factor = fixtures.random_factor(p, n, c, 2, seed=c)
    for seed in range(3):
        assert sampled_bias_and_route(factor, 300, seed) == (
            reference_sampled_max_bias(factor, factor.params(), 300, seed), False
        )


def test_sampled_bias_memory_is_bounded_by_the_cell_space():
    # the oracles benchmark's sampled certificate: 2^16 cells, 64 lambdas;
    # scoring them on every occupied cell traced about 42 MiB
    factor = fixtures.random_factor(2, 15, 16, 2, seed=100)
    cell_index_array(factor)
    tracemalloc.start()
    try:
        cert = bias_certificate(factor, budget=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.max_bias == reference_sampled_max_bias(factor, factor.params(), 64, 1)
    assert peak < 8 << 20


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


@st.composite
def factor_pairs(draw):
    """(fine, coarse, params or None): each coarse polynomial is a fine one,
    the sum of two (both refined by fine) or a random one (mostly not)."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, {2: 5, 3: 3}[p]))
    d = draw(st.integers(1, min(2, n * (p - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    fine = tuple(fixtures.random_polynomial(p, n, d, rng) for _ in range(draw(st.integers(0, 4))))
    kinds = ["random", "fine", "sum"] if fine else ["random"]
    coarse = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "random":
            coarse.append(fixtures.random_polynomial(p, n, d, rng))
        elif kind == "fine":
            coarse.append(draw(st.sampled_from(fine)))
        else:
            monos = dict(draw(st.sampled_from(fine)).terms)
            for e, coeff in draw(st.sampled_from(fine)).terms:
                monos[e] = monos.get(e, 0) + coeff
            coarse.append(Polynomial.from_monomials(p, n, monos))
    explicit = not (fine or coarse) or draw(st.booleans())
    params = FieldParams(p, n) if explicit else None
    return PolynomialFactor(fine), PolynomialFactor(tuple(coarse)), params


@settings(max_examples=300, deadline=None)
@given(factor_pairs())
def test_semantic_refinement_matches_the_run_length_reference(case):
    fine, coarse, params = case
    want = reference_is_semantic_refinement(fine, coarse, params)
    assert is_semantic_refinement(fine, coarse, params) is want


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
    assert represents(f, fine, coarse, 1.0)  # zeta = 1 flags no more than every cell


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


@pytest.mark.parametrize("cells", [
    ((1,), (0,), (1,), (0,)),
    ((0, 1), (1, 1), (1, 3), (0, 0)),
    ((0, 1), (1, 1), (1, 0), (0, 0), (0, 0)),
    ((0, 1), (1, 1)),
    (),
], ids=["width-1", "digit-3", "five-images", "two-images", "no-images"])
def test_cell_images_must_be_points_of_the_cell_space(cells):
    # four forms, two polynomials over F_2: four images of two digits in [0, 2)
    b = PolynomialFactor((coord(2, 4, 1), coord(2, 4, 2)))
    a = fixtures.derivative_forms(2)
    img = CellImage(cells)
    with pytest.raises(ValueError, match="cell image"):
        pattern_count(b, a, img)
    with pytest.raises(ValueError, match="cell image"):
        consistency_check(a, (1, 1), img)
    for mode in ("predicted", "bruteforce"):
        with pytest.raises(ValueError, match="cell image"):
            pattern_probability(b, a, img, mode=mode)


def test_constraint_and_factor_must_share_the_field():
    # F_3 forms once scanned the F_2 grid, and the prediction was 3^-6
    b = fixtures.linear_factor(2, 4, 2, seed=0)
    a = fixtures.derivative_forms(3)
    img = CellImage(((0, 0),) * 4)
    message = "constraint over F_3 does not apply to a factor over F_2\\^4"
    with pytest.raises(ValueError, match=message):
        pattern_count(b, a, img)
    for mode in ("predicted", "bruteforce"):
        with pytest.raises(ValueError, match=message):
            pattern_probability(b, a, img, mode=mode)
    # an empty factor has the domain it is given, and none to compare without one
    empty = PolynomialFactor.trivial()
    with pytest.raises(ValueError, match=message):
        pattern_probability(empty, a, CellImage(((),) * 4), params=FieldParams(2, 4))
    assert pattern_probability(empty, a, CellImage(((),) * 4)) == 1.0


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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2",  # short header
        "2 2 1 1\n1 1 1 0",  # long header
        "4 2 1\n1 1 1 0",  # p not prime
        "2 2 2\n1 1 1 0",  # fewer polynomial lines than C
        "2 2 1\n1 1 1 0\n1 1 0 1",  # more polynomial lines than C
        "2 2 1\n2 1 1 0",  # term count above the groups given
        "2 2 1\n1 1 1 0 1 0 1",  # term count below the groups given
        "2 2 1\n-1",  # negative term count
        "2 2 1\n1 1 1 x",  # not an integer
        "2 2 1\n1 1 -1 0",  # negative exponent
        "2 2 1\n2 1 1 0 1 1 0",  # repeated monomial
        "3 2 1\n2 1 0 1 2 0 1",  # repeated monomial, other coefficient
        "4611686018427388039 0 0",  # p beyond the index type
    ],
)
def test_parse_factor_rejects_malformed_files(text):
    with pytest.raises(ValueError):
        parse_factor(text)


def test_factor_file_round_trip():
    factor = fixtures.random_factor(3, 3, 2, 2, seed=18)
    text = dump_factor(factor)
    back, params = parse_factor(text)
    assert back == factor and params == FieldParams(3, 3)
    assert dump_factor(back, params) == text


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 6),
    ncells=st.integers(1, 50),
    points=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=80),
)
@example(r=2, ncells=4, points=[])  # an empty subcell
@example(r=1, ncells=3, points=[(0, 0), (2, 5), (2, 1)])
@example(r=4, ncells=9, points=[(1, 3), (8, 0), (1, 2)])  # more cells than points
def test_label_frequencies_matches_per_label_bincounts(r, ncells, points):
    idx = np.array([c % ncells for c, _ in points], dtype=np.int64)
    values = np.array([v % r + 1 for _, v in points], dtype=np.int64)
    counts, freq = label_frequencies(idx, values, r, ncells)
    assert np.array_equal(counts, np.bincount(idx, minlength=ncells))
    assert freq.shape == (r, ncells)
    for label in range(1, r + 1):
        weights = (values == label).astype(np.float64)
        assert np.array_equal(freq[label - 1], np.bincount(idx, weights=weights, minlength=ncells))
