import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinetest import (
    FieldParams,
    FunctionTable,
    canonical_index,
    distance,
    distance_to_enumerable_property,
    e_p,
    index_to_vec,
    restrict_to_affine_span,
)
from affinetest.field import (
    BudgetError,
    affine_span_indices,
    canonical_indices,
    combination_indices,
    dump_function_table,
    dump_real_table,
    fourier_means,
    index_digits,
    is_prime,
    parse_function_table,
    parse_real_table,
    rng_for,
    RealTable,
)
from affinetest import field, fixtures
from reference import domain_coords


def test_canonical_index_examples():
    assert canonical_index((1, 0, 0), FieldParams(2, 3)) == 1
    assert canonical_index((2, 1), FieldParams(3, 2)) == 5
    assert canonical_index((0, 0, 0), FieldParams(2, 3)) == 0


@pytest.mark.parametrize("p,n", [(2, 3), (2, 10), (3, 4), (5, 3), (2, 16)])
def test_canonical_index_bijection_exhaustive(p, n):
    params = FieldParams(p, n)
    assert params.size <= 1 << 16
    for idx in range(params.size):
        assert canonical_index(index_to_vec(idx, params), params) == idx


def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams(4, 2)
    with pytest.raises(ValueError):
        FieldParams(1, 2)
    with pytest.raises(ValueError):
        FieldParams(2, 99)  # overflows the index type


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**70 + 5])
def test_rng_for_is_the_seed_sequence_stream(seed):
    # no scope: the stream of default_rng(seed) itself
    def draws(rng):
        return rng.integers(0, 1 << 62, size=50).tolist()

    assert draws(rng_for(seed)) == draws(np.random.default_rng(seed))
    for scope in [(0,), (3,), (0xF, 2**33)]:
        want = np.random.default_rng(np.random.SeedSequence(entropy=(seed, *scope)))
        assert draws(rng_for(seed, *scope)) == draws(want)
    assert draws(rng_for(seed, 1)) != draws(rng_for(seed, 2))


def test_e_p_examples():
    assert e_p(0, 5) == 1
    assert abs(e_p(1, 2) + 1) < 1e-12
    w = e_p(1, 5)
    assert abs(abs(w) - 1) < 1e-12
    assert abs(w - complex(np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5))) < 1e-12


def test_distance_examples():
    params = FieldParams(2, 3)
    f = FunctionTable(params, 2, [1] * 8)
    assert distance(f, f) == 0
    g = FunctionTable(params, 2, [1] * 7 + [2])
    assert distance(f, g) == 0.125


def test_distance_recount_oracle():
    f = fixtures.random_function(3, 2, 3, seed=1)
    g = fixtures.random_function(3, 2, 3, seed=2)
    manual = sum(
        1 for i in range(9) if f.values[i] != g.values[i]
    ) / 9
    assert distance(f, g) == manual


def test_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(30):
        seeds = rng.integers(0, 1 << 30, size=3)
        f, g, h = (fixtures.random_function(2, 4, 3, seed=int(s)) for s in seeds)
        assert distance(f, g) == distance(g, f)
        assert distance(f, h) <= distance(f, g) + distance(g, h)


def test_restriction_single_point():
    f = fixtures.random_function(3, 2, 3, seed=7)
    g = restrict_to_affine_span(f, [(2, 1)])
    assert g.params.n == 0
    assert g.values[0] == f((2, 1))


def test_restriction_degenerate_direction_is_constant():
    f = fixtures.random_function(2, 3, 2, seed=3)
    g = restrict_to_affine_span(f, [(1, 0, 1), (0, 0, 0)])
    assert g.params.n == 1
    assert len(set(g.values.tolist())) == 1
    assert g.values[0] == f((1, 0, 1))


def test_restriction_recompute_oracle():
    # degree-1 table over F_2^4; restriction must equal direct re-evaluation
    f = fixtures.degree_d_table(2, 4, 1, seed=11)
    rng = np.random.default_rng(13)
    pts = [tuple(int(v) for v in rng.integers(0, 2, size=4)) for _ in range(3)]
    g = restrict_to_affine_span(f, pts)
    for c2 in range(2):
        for c3 in range(2):
            target = tuple(
                (pts[0][t] + c2 * pts[1][t] + c3 * pts[2][t]) % 2 for t in range(4)
            )
            assert g((c2, c3)) == f(target)


def test_restriction_preserves_hereditary_property():
    # degree <= 1 is affine subspace hereditary: restrictions stay degree <= 1
    rng = np.random.default_rng(17)
    for trial in range(10):
        f = fixtures.degree_d_table(2, 4, 1, seed=trial)
        assert distance_to_enumerable_property(f, max_degree=1) == 0
        pts = [tuple(int(v) for v in rng.integers(0, 2, size=4)) for _ in range(3)]
        g = restrict_to_affine_span(f, pts)
        assert distance_to_enumerable_property(g, max_degree=1) == 0


def test_function_table_round_trip_bit_exact():
    f = fixtures.random_function(3, 3, 4, seed=23)
    text = dump_function_table(f)
    g = parse_function_table(text)
    assert g.params == f.params and g.range_size == f.range_size
    assert np.array_equal(g.values, f.values)
    assert dump_function_table(g) == text


def test_real_table_round_trip():
    t = fixtures.random_real_table(2, 4, seed=29)
    back = parse_real_table(dump_real_table(t))
    assert np.array_equal(back.values, t.values)


def test_table_writers_spell_values_exactly():
    reals = [0.0, -0.0, 5e-324, 1e16, -2.5, 1 / 3, 1e300, 123456789.0, -1e-7]
    text = dump_real_table(RealTable(FieldParams(3, 2), reals))
    assert text == (
        "3 2\n0.0 -0.0 5e-324 1e+16 -2.5 0.3333333333333333 1e+300 123456789.0 -1e-07\n"
    )
    assert np.array_equal(parse_real_table(text).values, reals)
    assert np.signbit(parse_real_table(text).values[1])
    labels = FunctionTable(FieldParams(2, 3), 12, [1, 12, 3, 10, 7, 1, 2, 11])
    assert dump_function_table(labels) == "2 3 12\n1 12 3 10 7 1 2 11\n"


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_function_table, ""),
        (parse_function_table, "2 1 2"),  # header only
        (parse_function_table, "2 1\n1 2"),  # short header
        (parse_function_table, "2 1 2 2\n1 2"),  # long header
        (parse_function_table, "2 1 2\n1 2\n1 2"),  # extra line
        (parse_function_table, "2 1 2\n1"),  # too few labels
        (parse_function_table, "2 1 2\n1 99999999999999999999"),  # label beyond int64
        (parse_function_table, "2 1 99999999999999999999\n1 99999999999999999999"),
        (parse_function_table, "4611686018427388039 0 2\n1"),  # p beyond the index type
        (parse_function_table, "18446744073709551629 0 2\n1"),  # p beyond 64 bits
        (parse_function_table, "1000000000000000001 0 2\n1"),  # composite p near 10^18
        (parse_real_table, "2 1"),
        (parse_real_table, "2\n0.5 0.25"),
        (parse_real_table, "2 1 0\n0.5 0.25"),
        (parse_real_table, "2 1\n0.5 0.25\n0.5"),
        (parse_real_table, "2 1\n0.5 nan"),
    ],
)
def test_table_parsers_reject_malformed_files(parse, text):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize("token", ["x", "1.5", "0x1", "1e3", "--1"])
def test_malformed_labels_are_rejected_with_the_message_of_int(token):
    with pytest.raises(ValueError) as exc:
        parse_function_table(f"2 1 2\n1 {token}")
    assert str(exc.value) == f"invalid literal for int() with base 10: {token!r}"


def test_labels_are_read_as_int_reads_them():
    assert parse_function_table("2 2 1000\n01 1_000 +7 0002").values.tolist() == [1, 1000, 7, 2]
    with pytest.raises(ValueError) as exc:
        parse_function_table("2 1 2\n1 99999999999999999999")
    assert str(exc.value) == "labels must lie in [1, R] and fit in int64"


def trial_division_is_prime(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, int(m**0.5) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [m for m in range(-3, 10**5) if is_prime(m)] == [
        m for m in range(-3, 10**5) if trial_division_is_prime(m)
    ]


def test_is_prime_on_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
                  41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217,
                  162401, 172081, 188461, 252601, 278545, 294409, 314821, 334153,
                  340561, 399001, 410041, 449065, 488881, 512461]
    assert not any(is_prime(m) for m in carmichael)
    assert all(not trial_division_is_prime(m) for m in carmichael)
    # strong pseudoprimes to every prime base up to 7, 13 and 23 respectively
    for m in (3215031751, 3474749660383, 3825123056546413051):
        assert not is_prime(m)
    for m in (2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59):
        assert is_prime(m)
    for m in (2**62, (2**31 - 1) * (2**31 + 11), 2**64 - 1):
        assert not is_prime(m)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_field_params_bound_p_before_primality():
    assert FieldParams(10**18 + 3, 0).size == 1
    for p in (2**62 + 135, 2**62, 2**64 + 13, 10**40 + 1):
        with pytest.raises(ValueError, match="index type"):
            FieldParams(p, 0)
    with pytest.raises(ValueError, match="not prime"):
        FieldParams(10**18 + 1, 0)


def test_table_validation():
    params = FieldParams(2, 2)
    with pytest.raises(ValueError):
        FunctionTable(params, 2, [1, 2, 3, 1])  # label out of range
    with pytest.raises(ValueError):
        FunctionTable(params, 2, [1, 2, 1])  # wrong length
    with pytest.raises(ValueError):
        RealTable(params, [1.0, float("inf"), 0.0, 0.0])


def test_slices_past_the_budget_are_budget_errors(monkeypatch):
    # R = 2^40 declared labels on 16 points once built slices without end;
    # up to max(p^n, budget) labels every slice is built
    f = FunctionTable(FieldParams(2, 4), 2**40, [1, 2] * 8)
    with pytest.raises(BudgetError, match="R = 1099511627776 slices exceed"):
        f.slices()
    monkeypatch.setattr(field, "ENUM_BUDGET", 4)
    wide = FunctionTable(FieldParams(2, 4), 16, list(range(1, 17)))
    assert [s.values.tolist().index(1.0) for s in wide.slices()] == list(range(16))
    with pytest.raises(BudgetError, match="max\\(p\\^n, budget\\) = 16"):
        FunctionTable(FieldParams(2, 4), 17, wide.values).slices()


def test_tables_are_immutable():
    f = fixtures.random_function(2, 3, 2, seed=1)
    with pytest.raises(ValueError):
        f.values[0] = 2


@pytest.mark.parametrize("p,n", [(2, 0), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_fourier_means_matches_character_sums(p, n):
    params = FieldParams(p, n)
    rng = np.random.default_rng(p * 10 + n)
    vals = rng.uniform(-1, 1, (2, params.size)) + 1j * rng.uniform(-1, 1, (2, params.size))
    got = fourier_means(vals, params)
    pts = [index_to_vec(i, params) for i in range(params.size)]
    for lam_idx, lam in enumerate(pts):
        chars = np.array([e_p(sum(a * b for a, b in zip(lam, x)) % p, p) for x in pts])
        want = vals @ chars / params.size
        assert np.abs(got[:, lam_idx] - want).max() < 1e-12
        assert abs(fourier_means(vals[1], params)[lam_idx] - want[1]) < 1e-12


def reference_fourier_means(values, params):
    """One inverse FFT over the (p,)*n cube; the oracle for the p = 2
    butterfly, which must match it bit for bit."""
    v = np.asarray(values)
    if params.n == 0:
        return v.astype(complex)
    cube = v.reshape(v.shape[:-1] + (params.p,) * params.n)
    return np.fft.ifftn(cube, axes=tuple(range(-params.n, 0))).reshape(v.shape)


def assert_bitwise_equal(got, want, real=False):
    """got equals the inverse FFT `want` bit for bit; a real result (a real
    table's spectrum at p = 2) equals its real part, its imaginary part
    being exactly 0."""
    assert want.dtype == np.complex128 and got.shape == want.shape
    if real:
        assert got.dtype == np.float64 and not want.imag.any()
        assert np.array_equal(got, want.real)
    else:
        assert got.dtype == np.complex128
        assert np.array_equal(got.real, want.real)
        assert np.array_equal(got.imag, want.imag)
    assert np.array_equal(np.abs(got), np.abs(want))


def fourier_inputs(rng, shape):
    """float64, int64, +-1-phase complex and random complex tables."""
    return (
        rng.uniform(-1, 1, shape),
        rng.integers(-7, 8, shape),
        np.array([1.0, -1.0], dtype=complex)[rng.integers(0, 2, shape)],
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
    )


@pytest.mark.parametrize("n", range(15))
def test_fourier_means_butterfly_is_bitwise_ifftn(n):
    params = FieldParams(2, n)
    rng = np.random.default_rng(n)
    for batch in ((), (3,), (2, 3)):
        for vals in fourier_inputs(rng, batch + (params.size,)):
            assert_bitwise_equal(fourier_means(vals, params), reference_fourier_means(vals, params),
                                 real=not np.iscomplexobj(vals))


def test_fourier_means_butterfly_reads_any_memory_layout():
    # a transposed (F-ordered) batch must be transformed, not a copy of it
    params = FieldParams(2, 5)
    vals = np.random.default_rng(3).normal(size=(params.size, 4)).T
    assert_bitwise_equal(fourier_means(vals, params), reference_fourier_means(vals, params),
                         real=True)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 10),
    batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    kind=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fourier_means_butterfly_is_bitwise_ifftn_property(n, batch, kind, seed):
    params = FieldParams(2, n)
    vals = fourier_inputs(np.random.default_rng(seed), batch + (params.size,))[kind]
    assert_bitwise_equal(fourier_means(vals, params), reference_fourier_means(vals, params),
                         real=kind < 2)


@pytest.mark.parametrize("p,n", [(3, 0), (3, 1), (3, 4), (5, 1), (5, 3)])
def test_fourier_means_unchanged_at_odd_p(p, n):
    params = FieldParams(p, n)
    rng = np.random.default_rng(p + n)
    for batch in ((), (2, 3)):
        for vals in fourier_inputs(rng, batch + (params.size,)):
            assert_bitwise_equal(fourier_means(vals, params), reference_fourier_means(vals, params))


def reference_combination_indices(points, coeffs, p):
    """The coordinate kernel: points (..., l, n), one coordinate of every
    combination per pass; the oracle for the index kernel."""
    pts = np.asarray(points, dtype=np.int64)
    cols = np.asarray(coeffs, dtype=np.int64).T
    idx = np.zeros(pts.shape[:-2] + cols.shape[1:], dtype=np.int64)
    for t in range(pts.shape[-1]):
        idx += (pts[..., t] @ cols % p) * p**t
    return idx


@pytest.mark.parametrize("p,n", [(2, 0), (2, 5), (3, 3), (5, 2), (7, 1)])
def test_index_digits_and_canonical_indices_match_scalar_maps(p, n):
    params = FieldParams(p, n)
    idx = np.arange(params.size)
    digits = index_digits(idx, params)
    assert digits.shape == (params.size, n)
    assert digits.tolist() == [list(index_to_vec(i, params)) for i in range(params.size)]
    assert np.array_equal(digits, domain_coords(params).T)
    assert np.array_equal(canonical_indices(digits, params), idx)
    # unreduced coordinates are read mod p, as canonical_index reads them
    assert np.array_equal(canonical_indices(digits + p * (digits % 2) - p, params), idx)
    assert index_digits(idx.reshape(1, -1), params).shape == (1, params.size, n)


@settings(max_examples=150)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(0, 6),
    batch=st.lists(st.integers(1, 4), min_size=0, max_size=2),
    ell=st.integers(1, 5),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_combination_indices_match_coordinate_kernel(p, n, batch, ell, k, seed):
    params = FieldParams(p, n)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, params.size, size=tuple(batch) + (ell,))
    # coefficients beyond [0, p) are read mod p
    coeffs = rng.integers(-p, 2 * p, size=(k, ell))
    got = combination_indices(idx, coeffs, params)
    want = reference_combination_indices(index_digits(idx, params), coeffs % p, p)
    assert got.shape == tuple(batch) + (k,) and got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,n,ell", [(2, 6, 1), (2, 6, 4), (3, 4, 3), (5, 3, 3)])
def test_affine_span_indices_match_coordinate_kernel(p, n, ell):
    params = FieldParams(p, n)
    idx = np.random.default_rng(ell).integers(0, params.size, size=(9, ell))
    span = domain_coords(FieldParams(p, ell - 1)).T
    coeffs = np.hstack([np.ones((len(span), 1), np.int64), span])
    want = reference_combination_indices(index_digits(idx, params), coeffs, p)
    assert np.array_equal(affine_span_indices(idx, params), want)
