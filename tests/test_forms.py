import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from affinetest import (
    AffineConstraint,
    CellImage,
    FieldParams,
    FunctionTable,
    InducedConstraint,
    LinearForm,
    change_of_view,
    consistency_check,
    cs_complexity,
    dimension_d,
    eval_form,
    find_induced_occurrence,
    make_concise,
    mixed_dimension,
    tensor_power,
)
from affinetest.factor import pattern_count
from affinetest.field import BudgetError, index_to_vec
from affinetest.forms import (
    ConstraintCollection,
    check_field,
    dump_collection,
    dump_induced_constraint,
    grid_point_indices,
    grid_slices,
    grid_tuples,
    parse_collection,
    scan_grid,
    tensor_row_space,
)
from affinetest.gowers import system_product_mean
from affinetest.tester import violation_count
from affinetest import fixtures, forms, gflinalg
from reference import (
    kernel_basis,
    parse_induced_constraint,
    reference_grid_point_indices,
    reference_grid_tuples,
    reference_make_concise,
    reference_matches,
)


def blr_forms(p=2):
    return [
        LinearForm(p, (1, 0, 0)),
        LinearForm(p, (1, 1, 0)),
        LinearForm(p, (1, 0, 1)),
        LinearForm(p, (1, 1, 1)),
    ]


def test_eval_form_examples():
    x1 = LinearForm(3, (1, 0))
    pts = [(2, 1), (0, 2)]
    assert eval_form(x1, pts) == (2, 1)
    s = LinearForm(2, (1, 1))
    assert eval_form(s, [(1, 0, 1), (1, 0, 1)]) == (0, 0, 0)


def test_eval_form_recount_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        form = LinearForm(3, tuple(int(v) for v in rng.integers(0, 3, size=3)))
        pts = [tuple(int(v) for v in rng.integers(0, 3, size=2)) for _ in range(3)]
        got = eval_form(form, pts)
        for t in range(2):
            assert got[t] == sum(c * q[t] for c, q in zip(form.coeffs, pts)) % 3


def test_cs_complexity_examples():
    assert cs_complexity([LinearForm(2, (1,))]) == 0
    assert cs_complexity(blr_forms()) == 1
    ap = [LinearForm(5, (1, j)) for j in range(4)]
    assert cs_complexity(ap) == 2


def test_cs_complexity_degenerate_and_budget():
    # proportional pair: no finite complexity
    assert cs_complexity([LinearForm(3, (1, 0)), LinearForm(3, (2, 0))]) is None
    forms = [LinearForm(2, tuple((1 if i == j else 0) for i in range(9))) for j in range(9)]
    with pytest.raises(BudgetError):
        cs_complexity(forms)


def test_tensor_power_examples():
    t = tensor_power(LinearForm(2, (1, 0)), 2)
    assert t.tolist() == [1, 0, 0, 0]
    f = LinearForm(3, (1, 2))
    assert tensor_power(f, 1).tolist() == [1, 2]
    assert tensor_power(f, 2).tolist() == [1, 2, 2, 1]


def test_tensor_power_unit_at_all_ones_index():
    # X_1 coefficient 1 forces entry 1 at the (1, ..., 1) multi-index (flat 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 5))
        coeffs = (1,) + tuple(int(v) for v in rng.integers(0, p, size=ell - 1))
        for d in (1, 2, 3):
            assert tensor_power(LinearForm(p, coeffs), d)[0] == 1


def test_dimension_examples():
    same = [LinearForm(2, (1, 0))] * 3
    assert dimension_d(same, 1) == 1
    assert dimension_d(blr_forms(), 1) == 3
    assert mixed_dimension(blr_forms(), (1,)) == dimension_d(blr_forms(), 1)
    assert mixed_dimension(blr_forms(), (1, 1)) == 6
    rank2 = gflinalg.rank(
        np.vstack([tensor_power(f, 2) for f in blr_forms()]), 2
    )
    assert mixed_dimension(blr_forms(), (1, 2)) == 3 + rank2


def _random_normal_constraint(rng, p, ell, m):
    rows = [[1] + [int(v) for v in rng.integers(0, p, size=ell - 1)] for _ in range(m)]
    rows[0] = [1] + [0] * (ell - 1)
    return AffineConstraint.from_rows(p, rows)


def test_change_of_view_identity_and_permutation():
    a = AffineConstraint.from_rows(2, [f.coeffs for f in blr_forms()])
    eye = np.eye(3, dtype=int)
    assert [f.coeffs for f in change_of_view(a, eye)] == [f.coeffs for f in a.forms]
    perm = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    swapped = change_of_view(a, perm)
    assert sorted(f.coeffs for f in swapped) == sorted(f.coeffs for f in a.forms)


def test_change_of_view_preserves_dimension():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 5))
        a = _random_normal_constraint(rng, p, ell, int(rng.integers(2, 5)))
        mat = gflinalg.random_invertible(rng, ell, p)
        viewed = change_of_view(a, mat)
        for d in (1, 2, 3):
            assert dimension_d(a.forms, d) == dimension_d(viewed, d)


def test_change_of_view_preserves_complexity():
    rng = np.random.default_rng(9)
    done = 0
    while done < 25:
        p = int(rng.choice([2, 3]))
        ell = int(rng.integers(2, 4))
        a = _random_normal_constraint(rng, p, ell, int(rng.integers(2, 5)))
        s = cs_complexity(a.forms)
        if s is None:
            continue
        mat = gflinalg.random_invertible(rng, ell, p)
        assert cs_complexity(change_of_view(a, mat)) == s
        done += 1


def test_change_of_view_rejects_singular():
    a = AffineConstraint.from_rows(2, [f.coeffs for f in blr_forms()])
    with pytest.raises(ValueError):
        change_of_view(a, np.zeros((3, 3), dtype=int))


def test_juxtaposition_dimension():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 4))
        a = _random_normal_constraint(rng, p, ell, int(rng.integers(2, 5)))
        d = int(rng.integers(1, 4))
        q = dimension_d(a.forms, d)
        juxt = [LinearForm(p, f.coeffs + (0,) * (ell - 1)) for f in a.forms]
        juxt += [
            LinearForm(p, (f.coeffs[0],) + (0,) * (ell - 1) + f.coeffs[1:])
            for f in a.forms
        ]
        assert dimension_d(juxt, d) == 2 * q - 1


def all_tables(params, r):
    for flat in range(r**params.size):
        vals, rem = [], flat
        for _ in range(params.size):
            rem, v = divmod(rem, r)
            vals.append(v + 1)
        yield FunctionTable(params, r, np.array(vals))


def test_make_concise_identity_when_already_concise():
    a = AffineConstraint.from_rows(2, [f.coeffs for f in blr_forms()])
    ic = InducedConstraint(a, (1, 1, 1, 2))
    assert make_concise(ic) is ic


def test_make_concise_exhaustive_equivalence():
    # A = (X1, X1+X2+X3): l=3 > m=2; freeness must agree on all 16 functions
    a = AffineConstraint.from_rows(2, [(1, 0, 0), (1, 1, 1)])
    params = FieldParams(2, 2)
    for sigma in itertools.product((1, 2), repeat=2):
        ic = InducedConstraint(a, sigma)
        conc = make_concise(ic)
        assert conc.constraint.ell <= 2
        assert conc.constraint.forms[0].coeffs[0] == 1
        for f in all_tables(params, 2):
            before = find_induced_occurrence(f, ic).witness is None
            after = find_induced_occurrence(f, conc).witness is None
            assert before == after


def test_make_concise_variable_bound_on_random_constraints():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = int(rng.choice([2, 3]))
        ell = int(rng.integers(2, 6))
        m = int(rng.integers(1, ell + 2))
        a = _random_normal_constraint(rng, p, ell, m)
        sigma = tuple(int(v) for v in rng.integers(1, 3, size=m))
        conc = make_concise(InducedConstraint(a, sigma))
        assert conc.constraint.ell <= max(m, ell if ell <= m else m)


@st.composite
def induced_constraints(draw):
    """Normal-form constraints with l <= 8 and m <= l + 1 whose X_2, ..., X_l
    coefficients have rows that combine earlier rows and zeroed columns
    drawn on purpose, so rank-deficient tails are common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ell = draw(st.integers(1, 8))
    m = draw(st.integers(1, ell + 1))
    tails = [[0] * (ell - 1)]
    for _ in range(m - 1):
        if len(tails) > 1 and draw(st.booleans()):
            w = draw(st.lists(st.integers(0, p - 1), min_size=len(tails), max_size=len(tails)))
            tails.append([sum(wi * t[c] for wi, t in zip(w, tails)) % p for c in range(ell - 1)])
        else:
            tails.append(draw(st.lists(st.integers(0, p - 1), min_size=ell - 1, max_size=ell - 1)))
    zeroed = draw(st.sets(st.integers(0, ell - 1)))
    rows = [[1] + [0 if c in zeroed else v for c, v in enumerate(t)] for t in tails]
    sigma = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return InducedConstraint(AffineConstraint.from_rows(p, rows), sigma)


@settings(max_examples=600)
@given(induced_constraints())
def test_make_concise_equals_kernel_completion(ic):
    # the row reduction's output is the kernel-completion construction's,
    # form for form, not merely an equivalent system
    assert make_concise(ic) == reference_make_concise(ic)


def test_consistency_examples():
    a = AffineConstraint.from_rows(2, [f.coeffs for f in blr_forms()])
    # equal cells are always consistent (kernel rows sum to zero)
    img = CellImage(((1, 0), (1, 0), (1, 0), (1, 0)))
    assert consistency_check(a, (1, 1), img)
    # BLR d=1 kernel is span{(1,1,1,1)}: consistent iff rows sum to 0
    assert consistency_check(a, (1,), CellImage(((0,), (1,), (1,), (0,))))
    assert not consistency_check(a, (1,), CellImage(((1,), (0,), (0,), (0,))))


def test_consistency_monotone_under_constant_append():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        a = _random_normal_constraint(rng, p, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        c = int(rng.integers(1, 3))
        degrees = tuple(int(v) for v in rng.integers(1, 3, size=c))
        cells = tuple(
            tuple(int(v) for v in rng.integers(0, p, size=c)) for _ in range(a.size)
        )
        img = CellImage(cells)
        if not consistency_check(a, degrees, img):
            continue
        const = tuple(int(v) for v in rng.integers(0, p, size=2))
        extended = CellImage(tuple(b + const for b in cells))
        assert consistency_check(a, degrees + (1, 2), extended)


def test_consistency_against_joint_kernel_formulation():
    # the per-row decomposition must agree with the joint-Lambda condition
    rng = np.random.default_rng(19)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        a = _random_normal_constraint(rng, p, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        c = int(rng.integers(1, 3))
        degrees = tuple(int(v) for v in rng.integers(1, 3, size=c))
        cells = tuple(
            tuple(int(v) for v in rng.integers(0, p, size=c)) for _ in range(a.size)
        )
        img = CellImage(cells)
        kernels = []
        for d in degrees:
            powers = np.vstack([tensor_power(f, d) for f in a.forms])
            kernels.append(kernel_basis(powers.T, p))
        joint_ok = True
        for _ in range(60):
            lam = np.zeros((c, a.size), dtype=np.int64)
            for i, ker in enumerate(kernels):
                if ker.shape[0]:
                    w = rng.integers(0, p, size=ker.shape[0])
                    lam[i] = (w @ ker) % p
            total = sum(
                int(lam[i, j]) * cells[j][i] for i in range(c) for j in range(a.size)
            )
            if total % p != 0:
                joint_ok = False
                break
        assert consistency_check(a, degrees, img) == joint_ok


def test_constraint_file_round_trip():
    a = AffineConstraint.from_rows(3, [(1, 0), (1, 1), (1, 2)])
    ic = InducedConstraint(a, (1, 2, 3))
    text = dump_induced_constraint(ic, 3)
    back, r = parse_induced_constraint(text)
    assert back == ic and r == 3
    col = ConstraintCollection((ic, InducedConstraint(a, (3, 2, 1))))
    text = dump_collection(col, 3)
    back_col, r = parse_collection(text)
    assert back_col.members == col.members


def test_normal_form_validation():
    with pytest.raises(ValueError):
        AffineConstraint.from_rows(2, [(1, 1), (1, 0)])  # first form not X_1
    with pytest.raises(ValueError):
        AffineConstraint.from_rows(2, [(1, 0), (0, 1)])  # missing unit X_1


def test_tensor_row_space_cache_consistency():
    a = AffineConstraint.from_rows(2, [f.coeffs for f in blr_forms()])
    first = tensor_row_space(a, 1)
    second = tensor_row_space(a, 1)
    assert first is second


# (p, l, n): every p in {2, 3, 5, 7} at l = 1..4, grids of at most 5^6 tuples
GRID_CASES = [
    (p, ell, n)
    for p, dims in ((2, (0, 1, 3)), (3, (1, 2)), (5, (1, 2)), (7, (1, 2)))
    for n in dims
    for ell in range(1, 5)
    if (p**n) ** ell <= 5**6
]


@pytest.mark.parametrize("p,ell,n", GRID_CASES)
def test_grid_point_indices_match_per_digit_builder(p, ell, n):
    rng = np.random.default_rng(100 * p + 10 * ell + n)
    params = FieldParams(p, n)
    systems = [_random_normal_constraint(rng, p, ell, 4) for _ in range(3)]
    # every coefficient 0..p-1 on every variable, and the AP forms x_1 + c x_2
    systems.append(AffineConstraint.from_rows(
        p, [(1,) + (0,) * (ell - 1)] + [(1,) + (c,) * (ell - 1) for c in range(p)]
    ))
    if ell == 2:
        systems.append(fixtures.ap_constraint(p, min(p, 3)).constraint)
    systems = [a.forms for a in systems]
    # any x_1 coefficient: random forms, and c x_1 for every c, alone and plus x_2 + ... + x_l
    systems.append([LinearForm(p, tuple(int(v) for v in rng.integers(0, p, size=ell)))
                    for _ in range(4)])
    systems.append([LinearForm(p, (c,) + (0,) * (ell - 1)) for c in range(p)])
    systems.append([LinearForm(p, (c,) + (1,) * (ell - 1)) for c in range(p)])
    for forms_ in systems:
        got = grid_point_indices(forms_, params)
        want = reference_grid_point_indices(forms_, params)
        assert len(got) == len(want)
        for f, g, w in zip(forms_, got, want):
            # a view has length 1 on every axis its form does not read
            assert g.dtype == w.dtype
            assert g.shape == tuple(params.size if c else 1 for c in f.coeffs)
            assert np.array_equal(np.broadcast_to(g, (params.size,) * ell).ravel(), w)


@pytest.mark.parametrize("p", [3, 5])
def test_scan_grid_one_free_axis_slices(monkeypatch, p):
    # l = 2 grids above GRID_CHUNK walk slices with only x_2 free, the case
    # that builds one row of the sum table instead of the whole table
    params = FieldParams(p, 2)
    a = fixtures.ap_constraint(p, 3).constraint  # x_1, x_1 + x_2, x_1 + 2 x_2
    f = fixtures.random_function(p, 2, 2, seed=p)
    pts = [index_to_vec(i, params) for i in range(params.size)]
    for sigma in itertools.product((1, 2), repeat=3):
        hits = [
            i * params.size + j
            for i, x in enumerate(pts)
            for j, y in enumerate(pts)
            if all(f(eval_form(form, (x, y))) == s for form, s in zip(a.forms, sigma))
        ]
        whole = (scan_grid(f.values, a, params, sigma, first=True),
                 scan_grid(f.values, a, params, sigma))
        with monkeypatch.context() as patch:
            patch.setattr(forms, "GRID_CHUNK", params.size)
            sliced = (scan_grid(f.values, a, params, sigma, first=True),
                      scan_grid(f.values, a, params, sigma))
        assert whole == sliced == ((hits[0] if hits else None), len(hits))


def reference_scan_grid(values, constraint, params, targets, first=False):
    """The index-grid scan: one int64 index array per form over the whole
    grid, labels gathered through it and compared with sigma."""
    ok = reference_matches(values, reference_grid_point_indices(constraint.forms, params), targets)
    if first:
        i = int(ok.argmax())
        return i if ok[i] else None
    return int(np.count_nonzero(ok))


@st.composite
def scan_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(0, {2: (6, 4, 3, 3), 3: (4, 3, 2, 2), 5: (3, 2, 1, 1)}[p][ell - 1]))
    params = FieldParams(p, n)
    others = st.lists(st.tuples(*[st.integers(0, p - 1)] * (ell - 1)), max_size=4)
    rows = [(1,) + (0,) * (ell - 1)] + [(1,) + r for r in draw(others, label="forms")]
    r = draw(st.integers(1, 3))
    values = np.array(draw(st.lists(st.integers(1, r), min_size=params.size,
                                    max_size=params.size)), dtype=np.int64)
    sigma = draw(st.tuples(*[st.integers(1, r)] * len(rows)), label="sigma")
    # GRID_CHUNK below the grid sends it down the x_1-slice walk, with and
    # without room for a p^(2n) row table in each slice
    chunk = draw(st.sampled_from([forms.GRID_CHUNK, params.size**2, 1]), label="chunk")
    return AffineConstraint.from_rows(p, rows), params, values, sigma, chunk


def _gap_case(p, chunk):
    # a derivative square on x_3 and x_4 whose top form skips x_2
    rows = [(1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, p - 1), (1, 0, 1, p - 1)]
    params = FieldParams(p, 2 if p == 2 else 1)
    values = np.random.default_rng(p).integers(1, 3, size=params.size)
    return AffineConstraint.from_rows(p, rows), params, values, (1, 2, 2, 1), chunk


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example(_gap_case(2, forms.GRID_CHUNK))
@example(_gap_case(3, 1))
def test_scan_grid_matches_index_grid_scan(case):
    a, params, values, sigma, chunk = case
    want = [reference_scan_grid(values, a, params, sigma, first) for first in (False, True)]
    with mock.patch.object(forms, "GRID_CHUNK", chunk):
        got = [scan_grid(values, a, params, sigma, first=first) for first in (False, True)]
    assert got == want


@st.composite
def grid_index_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 3))
    ell = draw(st.integers(1, 4))
    params = FieldParams(p, n)
    last = params.size**ell - 1
    flats = draw(st.lists(st.integers(0, last), max_size=20), label="flats") + [last]
    return np.array(flats, dtype=np.int64), ell, params


@settings(max_examples=300, deadline=None)
@given(grid_index_cases())
def test_grid_tuples_matches_place_value_decoding(case):
    flats, ell, params = case
    got = grid_tuples(flats, ell, params)
    assert got.shape == (len(flats), ell, params.n)
    assert np.array_equal(got, reference_grid_tuples(flats, ell, params))


@pytest.mark.parametrize("p, n, ell", [(2, 2, 3), (3, 1, 4), (5, 1, 2)])
def test_grid_slices_offsets_decode_to_slice_starts(monkeypatch, p, n, ell):
    # the x_1 slice walk: each piece's offset is its first tuple (x_1, 0, ..., 0)
    params = FieldParams(p, n)
    a = AffineConstraint.from_rows(p, [(1,) + (0,) * (ell - 1), (1,) * ell])
    tables = [np.ones(params.size)] * 2
    monkeypatch.setattr(forms, "GRID_CHUNK", params.size)
    offsets = [off for off, _, _ in grid_slices(tables, a.forms, params, np.multiply, 1 << 20)]
    assert len(offsets) == params.size
    for x1, off in enumerate(offsets):
        want = [list(index_to_vec(x1, params))] + [[0] * n] * (ell - 1)
        assert grid_tuples(off, ell, params).tolist() == want


def _budget_cases():
    """Each tuple-grid scan on one 729-tuple grid (p = 3, n = 2, l = 3), as a
    call taking the budget, with the value it returns within budget."""
    f = fixtures.random_function(3, 2, 2, seed=3)
    ic = fixtures.blr_constraint(3, (1, 2, 2, 1))
    a = ic.constraint
    fac = fixtures.linear_factor(3, 2, 1, seed=5)
    images = CellImage(((0,), (1,), (2,), (0,)))
    tables = [fixtures.random_real_table(3, 2, seed=i) for i in range(4)]
    return {
        "scan_grid": (lambda b: scan_grid(f.values, a, f.params, ic.sigma, budget=b), 8),
        "find_induced_occurrence": (
            lambda b: find_induced_occurrence(f, ic, budget=b).witness.points,
            ((1, 0), (2, 0), (2, 0)),
        ),
        "violation_count": (lambda b: violation_count(f, ic, budget=b), (8, 729)),
        "pattern_count": (lambda b: pattern_count(fac, a, images, budget=b), (27, 729)),
        # 4 forms of rank 3: the reduced grid has 9^3 tuples
        "system_product_mean": (
            lambda b: system_product_mean(tables, a.forms, budget=b), 0.002404052492074024
        ),
    }


@pytest.mark.parametrize("name", sorted(_budget_cases()))
def test_tuple_grid_budget_is_charged_by_grid_slices(name):
    call, want = _budget_cases()[name]
    with pytest.raises(BudgetError, match=r"^tuple grid \d+ exceeds budget 728$"):
        call(728)
    assert call(729) == want


def test_unattained_sigma_returns_before_the_budget_charge():
    f = fixtures.random_function(2, 3, 2, seed=1)
    g = FunctionTable(f.params, 3, f.values)  # label 3 never attained
    out = find_induced_occurrence(g, fixtures.blr_constraint(2, (1, 1, 1, 3)), budget=0)
    assert out.definitive and out.witness is None


def test_field_check_names_a_table_or_a_factor():
    a = fixtures.derivative_forms(3)
    params = FieldParams(2, 5)
    for what in ("a table", "a factor"):
        with pytest.raises(ValueError) as err:
            check_field(a, params, what)
        assert str(err.value) == f"constraint over F_3 does not apply to {what} over F_2^5"
    check_field(a, FieldParams(3, 5), "a table")


def test_scan_grid_holds_less_than_one_index_array():
    # p = 2, n = 7, l = 3: 2^21 tuples, where one int64 index array is 16 MB
    f = fixtures.random_function(2, 7, 2, seed=4)
    params = f.params
    for ic in fixtures.derivative_collection(2).members[:4]:
        tracemalloc.start()
        try:
            count = scan_grid(f.values, ic.constraint, params, ic.sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * params.size**3
        assert 0 < count < params.size**3


def test_parse_collection_builds_each_constraint_once():
    col = fixtures.derivative_collection(5)
    with mock.patch.object(forms, "_parse_head", wraps=forms._parse_head) as spy:
        back, r = parse_collection(dump_collection(col, 5))
    assert back == col and r == 5
    assert len({id(ic.constraint) for ic in back.members}) == 1
    assert spy.call_count == 1 and len(back) == 500


@pytest.mark.parametrize("sigma", ["1", "1 2 1", "1 x", "0 1"])
def test_bad_sigma_under_an_already_parsed_head_raises(sigma):
    head = "2 2 2 2\n1 0\n1 1\n"
    with pytest.raises(ValueError):
        parse_collection(head + "1 2\n\n" + head + sigma)


@pytest.mark.parametrize(
    "text",
    [
        "2 2 2",  # short header
        "2 2 2 2 2\n1 0\n1 1\n1 2",  # long header
        "2 2 3 2\n1 0\n1 1\n1 2",  # fewer form lines than m
        "2 2 1 2\n1 0\n1 1\n1",  # more lines than m + 2
        "2 2 2 2\n1 0\n1\n1 2",  # short form line
        "2 2 2 2\n1 0\n1 1 0\n1 2",  # long form line
        "2 3 2 2\n1 0\n1 1\n1 2",  # rows shorter than the declared l
        "2 2 2 2\n1 0\n1 1\n1",  # short sigma
        "2 2 2 2\n1 0\n1 1\n1 2 1",  # long sigma
        "4 2 2 2\n1 0\n1 1\n1 2",  # p not prime
        "1000000000000000001 2 2 2\n1 0\n1 1\n1 2",  # composite p near 10^18
        "4611686018427388039 2 2 2\n1 0\n1 1\n1 2",  # prime p beyond the index type
        "18446744073709551629 2 2 2\n1 0\n1 1\n1 2",  # prime p beyond 64 bits
        "0 2 2 2\n1 0\n1 1\n1 2",
        "2 0 2 2\n\n\n1 2",
        "2 2 0 2\n",
        "2 2 2 0\n1 0\n1 1\n1 2",
        "2 2 2 x\n1 0\n1 1\n1 2",
    ],
)
def test_malformed_constraint_block_raises(text):
    with pytest.raises(ValueError):
        parse_induced_constraint(text)
    with pytest.raises(ValueError):
        parse_collection(text)


@pytest.mark.parametrize(
    "other", ["2 2 2 5\n1 0\n1 1\n1 2", "3 2 2 2\n1 0\n1 1\n1 2"]
)
def test_parse_collection_rejects_blocks_disagreeing_on_p_or_r(other):
    first = "2 2 2 2\n1 0\n1 1\n1 2\n"
    with pytest.raises(ValueError, match="disagree"):
        parse_collection(first + "\n" + other)
    with pytest.raises(ValueError, match="disagree"):
        parse_collection(other + "\n\n" + first)


def test_truncated_collection_files_raise():
    text = dump_collection(fixtures.derivative_collection(2), 2)
    # inside the first header, inside the second header, inside the last sigma
    for cut in (7, text.index("\n\n") + 5, len(text) - 4):
        with pytest.raises(ValueError):
            parse_collection(text[:cut])


@st.composite
def collections(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(1, 5))):
        ell = draw(st.integers(1, 4))
        rows = [(1,) + (0,) * (ell - 1)]
        for _ in range(draw(st.integers(0, 4))):
            rows.append((1,) + tuple(draw(st.integers(0, p - 1)) for _ in range(ell - 1)))
        sigma = tuple(draw(st.integers(1, r)) for _ in rows)
        members.append(InducedConstraint(AffineConstraint.from_rows(p, rows), sigma))
    return ConstraintCollection(tuple(members)), r


@given(collections())
def test_collection_round_trip(drawn):
    col, r = drawn
    back, back_r = parse_collection(dump_collection(col, r))
    assert back.members == col.members and back_r == r
