import itertools

import numpy as np
import pytest

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
    dump_function_table,
    dump_real_table,
    fourier_means,
    parse_function_table,
    parse_real_table,
    RealTable,
)
from affinetest import fixtures


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


def test_table_validation():
    params = FieldParams(2, 2)
    with pytest.raises(ValueError):
        FunctionTable(params, 2, [1, 2, 3, 1])  # label out of range
    with pytest.raises(ValueError):
        FunctionTable(params, 2, [1, 2, 1])  # wrong length
    with pytest.raises(ValueError):
        RealTable(params, [1.0, float("inf"), 0.0, 0.0])


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
