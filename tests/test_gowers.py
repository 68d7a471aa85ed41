import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from affinetest.field import ENUM_BUDGET, BudgetError, fourier_means, index_to_vec
from affinetest.gowers import (
    DEFAULT_EXACT_BUDGET,
    MC_STREAMS,
    TIE_RTOL,
    GowersResult,
    exact_charge,
)
from affinetest.poly import monomials_up_to_degree
from affinetest.forms import eval_form
from affinetest import fixtures, gflinalg
from affinetest import forms as forms_module
from affinetest import gowers as gowers_module
from reference import domain_coords, reference_grid_point_indices


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


@pytest.mark.parametrize("p,n,k", [
    (2, 0, 2), (2, 3, 1), (2, 4, 2), (3, 2, 2), (2, 3, 3), (5, 1, 3), (3, 2, 4), (7, 1, 1),
])
def test_exact_budget_boundary(p, n, k):
    params = FieldParams(p, n)
    charge = exact_charge(params, k)
    assert charge == (max(n, 1) * p**n if k <= 2 else p ** (n * (k + 1)))
    vals = fixtures.random_real_table(p, n, seed=p + n + k).values
    res = gowers_norm_values(vals, params, k, budget=charge)
    assert res.mode == "exact" and res.samples == params.size ** (k + 1)
    assert res == gowers_norm_values(vals, params, k)
    with pytest.raises(BudgetError):
        gowers_norm_values(vals, params, k, budget=charge - 1)


def test_exact_charge_keeps_every_exact_call_exact():
    # every (p, n, k) whose p^(n(k+1)) tuples fit a budget is charged no more
    inside = 0
    for p in (2, 3, 5, 7, 11, 13, 8191):
        for n in range(0, 27):
            if p**n > DEFAULT_EXACT_BUDGET:
                break
            for k in range(1, 30):
                tuples = p ** (n * (k + 1))
                charge = exact_charge(FieldParams(p, n), k)
                assert charge <= tuples
                if tuples <= DEFAULT_EXACT_BUDGET:
                    inside += 1
                    assert charge <= DEFAULT_EXACT_BUDGET
    assert inside > 100


def test_monte_carlo_calibration():
    t = fixtures.random_real_table(2, 4, seed=3, lo=0.0, hi=1.0)
    exact = gowers_norm(t, 2).value
    hits = 0
    for seed in range(30):
        mc = gowers_norm(t, 2, mode="monte_carlo", samples=20000, seed=seed)
        assert mc.stderr > 0
        hits += abs(mc.value - exact) <= 4 * mc.stderr
    assert hits >= 27


@pytest.mark.parametrize("samples, k, charge", [
    (100, 3, 7 * 2**3),  # ceil(100 / MC_STREAMS) = 7 draws per stream
    (16, 3, 4 * 2**3),  # one draw per stream: the (2^k, k + 1) subset table binds
    (1, 1, 2 * 2**1),
])
def test_monte_carlo_is_charged_its_largest_stream_array(samples, k, charge):
    t = fixtures.random_real_table(2, 3, seed=1)
    message = rf"^Monte-Carlo U\^{k} is charged {charge} > budget {charge - 1}$"
    with pytest.raises(BudgetError, match=message):
        gowers_norm(t, k, mode="monte_carlo", samples=samples, budget=charge - 1, seed=2)
    got = gowers_norm(t, k, mode="monte_carlo", samples=samples, budget=charge, seed=2)
    assert got == gowers_norm(t, k, mode="monte_carlo", samples=samples, seed=2)


def test_monte_carlo_budgets_reach_k_12_and_14_at_default_samples(monkeypatch):
    # 3125 draws per stream times 2^k: k <= 12 within the CLI's 2^24 budget,
    # k <= 14 within the library default; nothing past them is allocated
    monkeypatch.setattr(gowers_module, "_gowers_monte_carlo", lambda *args: "sampled")
    values, params = np.ones(16), FieldParams(2, 4)
    for budget, top in ((ENUM_BUDGET, 12), (DEFAULT_EXACT_BUDGET, 14)):
        assert gowers_norm_values(values, params, top, "monte_carlo", budget) == "sampled"
        for k in (top + 1, 40):
            with pytest.raises(BudgetError, match=f"Monte-Carlo U\\^{k} is charged"):
                gowers_norm_values(values, params, k, "monte_carlo", budget)


def test_monte_carlo_deterministic_given_seed():
    t = fixtures.random_real_table(2, 4, seed=4)
    a = gowers_norm(t, 2, mode="monte_carlo", samples=5000, seed=9)
    b = gowers_norm(t, 2, mode="monte_carlo", samples=5000, seed=9)
    assert a == b


def reference_monte_carlo(values, params, k, samples, seed):
    """The per-mask Monte-Carlo loop: each stream's digit sums x + sum of the
    chosen h_i rebuilt mask by mask; the oracle for the batched estimate."""
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
    root = 1.0 / (1 << k)
    stderr = sd / np.sqrt(samples) * root * mean ** (root - 1.0) if mean > 0 else float("inf")
    return GowersResult(max(mean, 0.0) ** root, float(stderr), "monte_carlo", samples, seed)


@pytest.mark.parametrize("p,n", [(2, 7), (3, 4), (5, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_monte_carlo_matches_per_mask_loop(p, n, k):
    t = fixtures.random_real_table(p, n, seed=10 * p + n)
    phases = np.exp(2j * np.pi * fixtures.random_real_table(p, n, seed=k).values)
    for values in (t.values, t.values * phases):
        for samples, seed in ((1, 3), (5003, k), (20000, 7)):
            got = gowers_norm_values(values, t.params, k, mode="monte_carlo",
                                     samples=samples, seed=seed)
            assert got == reference_monte_carlo(values, t.params, k, samples, seed)


def reference_monte_carlo_by_coords(values, params, k, samples, seed):
    """The coordinate Monte-Carlo body: every drawn index gathered into its
    coordinates from domain_coords, then each mask's combination summed one
    coordinate at a time; the oracle for the index kernel."""
    p, n = params.p, params.n
    coords = domain_coords(params)
    masks = domain_coords(FieldParams(2, k)).T
    cols = np.hstack([np.ones((len(masks), 1), dtype=np.int64), masks]).T
    conjugate = np.iscomplexobj(values) & ((k - masks.sum(axis=1)) % 2 == 1)
    per = [samples // MC_STREAMS] * MC_STREAMS
    for i in range(samples % MC_STREAMS):
        per[i] += 1
    chunks = []
    for worker, count in enumerate(per):
        if count == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, worker)))
        draws = rng.integers(0, params.size, size=(k + 1, count), dtype=np.int64)
        pts = coords[:, draws.T].transpose(1, 2, 0)
        idx = np.zeros((count, len(masks)), dtype=np.int64)
        for t in range(n):
            idx += (pts[..., t] @ cols % p) * p**t
        terms = values[idx]
        prod = np.ones(count, dtype=values.dtype)
        for mask, conj in enumerate(conjugate):
            prod = prod * (np.conj(terms[:, mask]) if conj else terms[:, mask])
        chunks.append(prod)
    sample_vals = np.concatenate(chunks)
    if np.iscomplexobj(sample_vals):
        sample_vals = sample_vals.real
    mean = float(sample_vals.mean())
    sd = float(sample_vals.std(ddof=1)) if samples > 1 else 0.0
    root = 1.0 / (1 << k)
    stderr = sd / np.sqrt(samples) * root * mean ** (root - 1.0) if mean > 0 else float("inf")
    return GowersResult(max(mean, 0.0) ** root, float(stderr), "monte_carlo", samples, seed)


@pytest.mark.parametrize("p,n", [(2, 9), (3, 5), (5, 3)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monte_carlo_matches_coordinate_body(p, n, k):
    t = fixtures.random_real_table(p, n, seed=7 * p + n)
    phases = np.exp(2j * np.pi * fixtures.random_real_table(p, n, seed=k + 20).values)
    for values in (t.values - 0.25, t.values * phases):
        for samples in (1, 17, 50_000):
            got = gowers_norm_values(values, t.params, k, mode="monte_carlo",
                                     samples=samples, seed=k)
            want = reference_monte_carlo_by_coords(values, t.params, k, samples, k)
            assert (got.value, got.stderr) == (want.value, want.stderr)
            assert got == want


def test_monte_carlo_builds_no_coordinate_array():
    # at p = 2, n = 20 the coordinate array alone would be 20 x 2^20 int64 (160 MB)
    t = RealTable(FieldParams(2, 20), np.linspace(-1.0, 1.0, 1 << 20))
    tracemalloc.start()
    try:
        res = gowers_norm(t, 2, mode="monte_carlo", samples=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.mode == "monte_carlo" and res.samples == 2000
    assert peak < 20 * t.params.size * 8


def test_monte_carlo_needs_a_sample():
    t = fixtures.random_real_table(2, 3, seed=1)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            gowers_norm_values(t.values, t.params, 2, mode="monte_carlo", samples=samples)


def reference_radicand_by_roll(values, params, k):
    """Exact ||f||_{U^k}^{2^k} with the derivative stack built by one np.roll
    of the (p,)*n cube per shift h; the oracle for the gathered stack."""
    p, n = params.p, params.n
    cube = values.reshape((p,) * n)
    axes = tuple(range(-n, 0))
    shifts = list(itertools.product(range(p), repeat=n))
    for _ in range(k - 2):
        cube = np.stack([np.roll(cube, h, axis=axes) for h in shifts]) * np.conj(cube)
    fourth = np.abs(fourier_means(cube.reshape(-1, params.size), params)) ** 4
    return float(fourth.sum(axis=1).mean())


@pytest.mark.parametrize("p,n,k", [
    (2, 1, 3), (2, 5, 3), (2, 8, 3), (2, 3, 4), (2, 5, 4), (2, 2, 5), (2, 3, 5),
    (3, 2, 3), (3, 4, 3), (3, 3, 4), (3, 2, 5), (5, 2, 3), (5, 2, 4), (7, 1, 5),
])
def test_exact_radicand_matches_roll_stack(p, n, k):
    t = fixtures.random_real_table(p, n, seed=p + 10 * n + 100 * k)
    phases = np.exp(2j * np.pi * fixtures.random_real_table(p, n, seed=k).values)
    for values in (t.values - 0.5, t.values * phases):
        want = reference_radicand_by_roll(values, t.params, k) ** (1.0 / (1 << k))
        got = gowers_norm_values(values, t.params, k, budget=exact_charge(t.params, k))
        assert got.value == want


def test_exact_u2_builds_no_derivative_table(monkeypatch):
    # the p^n x p^n table of x - h is needed only for k >= 3; exact U^2
    # runs up to n = 21 at p = 2, where that table would be 2^42 entries
    def refuse(*args):
        raise AssertionError("derivative table built for U^2")

    monkeypatch.setattr(gowers_module, "combination_indices", refuse)
    t = fixtures.random_real_table(2, 6, seed=1)
    assert gowers_norm(t, 2).mode == "exact"


def test_inverse_search_builds_no_coordinate_array():
    # at p = 2, n = 16 the coordinate array would be 16 x 2^16 int64 (8 MB)
    params = FieldParams(2, 16)
    t = RealTable(params, np.cos(np.arange(params.size) * 0.37))
    tracemalloc.start()
    try:
        w = inverse_gowers_search(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * params.size * 8
    assert w.polynomial.degree <= 1
    assert abs(w.correlation - np.abs(fwht(t.values)).max() / params.size) < 1e-12


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


def reference_system_product_mean(tables, forms):
    """The index-grid kernel: the same rank reduction, then one int64 index
    array per reduced form over the whole reduced grid, the product of the
    gathered values summed whole or per x_1 slice as grid_slices cuts it."""
    params = tables[0].params
    p, size = params.p, params.size
    coeff = np.array([f.coeffs for f in forms], dtype=np.int64)
    basis, _ = gflinalg.rref(coeff.T, p)
    r = basis.shape[0]
    if params.n == 0 or r == 0:
        return math.prod(float(t.values[0]) for t in tables)
    if r == len(forms):
        return math.prod(float(t.values.mean()) for t in tables)
    reduced = [LinearForm(p, tuple(col)) for col in basis.T]
    grids = reference_grid_point_indices(reduced, params)
    prod = tables[0].values[grids[0]]
    for t, idx in zip(tables[1:], grids[1:]):
        prod = prod * t.values[idx]
    rows = [prod] if size**r <= forms_module.GRID_CHUNK else prod.reshape(size, -1)
    return sum(float(row.sum()) for row in rows) / size**r


@st.composite
def product_systems(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, {2: 3, 3: 2, 5: 1}[p]))
    ell = draw(st.integers(1, 4))
    # any coefficients, zero forms and forms without x_1 included
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * ell), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    chunk = draw(st.sampled_from([forms_module.GRID_CHUNK, 1]), label="chunk")
    return p, n, rows, seed, chunk


@settings(max_examples=200, deadline=None)
@given(product_systems())
def test_system_product_mean_equals_index_grid_kernel(case):
    p, n, rows, seed, chunk = case
    params = FieldParams(p, n)
    rng = np.random.default_rng(seed)
    forms = [LinearForm(p, r) for r in rows]
    tables = [RealTable(params, rng.standard_normal(params.size)) for _ in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms_module, "GRID_CHUNK", chunk)
        assert system_product_mean(tables, forms) == reference_system_product_mean(tables, forms)


def test_system_product_mean_sliced_grid(monkeypatch):
    # reduced forms with x_1 coefficients 0 and >= 2; with GRID_CHUNK below
    # the reduced grid, the x_1-slice walk must cover every tuple once.  The
    # values are quarters, so every sum is exact in any order and the two
    # walks agree bit for bit.
    rng = np.random.default_rng(5)
    cases = [
        (2, 3, [(1, 0), (0, 1), (1, 1)]),
        (3, 2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]),
        (5, 1, [(0, 1), (1, 0), (2, 3), (4, 4)]),
    ]
    for p, n, rows in cases:
        forms = [LinearForm(p, r) for r in rows]
        params = FieldParams(p, n)
        tables = [RealTable(params, rng.integers(-4, 5, size=params.size) / 4) for _ in rows]
        whole = system_product_mean(tables, forms)
        with monkeypatch.context() as patch:
            patch.setattr(forms_module, "GRID_CHUNK", 5)
            sliced = system_product_mean(tables, forms)
        assert sliced == whole
        assert abs(whole - brute_product_mean(tables, forms)) < 1e-10
