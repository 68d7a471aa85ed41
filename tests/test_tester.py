import itertools
import math

import numpy as np
import pytest

from affinetest import (
    AffineConstraint,
    ConstraintCollection,
    DecompositionConfig,
    FieldParams,
    FunctionTable,
    InducedConstraint,
    affine_subspace_test,
    big_picture,
    cleanup,
    distance,
    distance_to_enumerable_property,
    find_induced_occurrence,
    lift_restriction_witness,
    make_witness,
    min_partially_induced_size,
    partially_induces,
    restrict_to_affine_span,
    select_subcell,
    super_decompose,
    violation_density,
)
from affinetest import forms
from affinetest.decompose import SelectionError
from affinetest.factor import PolynomialFactor, eval_factor, pattern_count
from affinetest.field import index_to_vec
from affinetest.forms import CellImage, eval_form
from affinetest.tester import violation_count
from affinetest.poly import Polynomial
from affinetest import fixtures


def brute_occurrences(f, ic):
    params = f.params
    pts = [index_to_vec(i, params) for i in range(params.size)]
    found = []
    for tup in itertools.product(pts, repeat=ic.constraint.ell):
        vals = tuple(f(eval_form(form, tup)) for form in ic.constraint.forms)
        if vals == ic.sigma:
            found.append(tup)
    return found


def test_find_occurrence_constant_function():
    params = FieldParams(2, 2)
    f = FunctionTable(params, 2, np.full(4, 2))
    ic = fixtures.blr_constraint(2, (2, 2, 2, 2))
    out = find_induced_occurrence(f, ic)
    assert out.definitive
    assert out.witness.points == ((0, 0), (0, 0), (0, 0))  # lexicographically first


def test_find_occurrence_unattained_label_shortcut():
    f = fixtures.random_function(2, 3, 2, seed=1)
    ic = fixtures.blr_constraint(2, (1, 1, 1, 3))
    with pytest.raises(ValueError):
        find_induced_occurrence(f, ic)  # sigma beyond R is a usage error
    g = FunctionTable(f.params, 3, f.values)  # R = 3, label 3 never attained
    out = find_induced_occurrence(g, fixtures.blr_constraint(2, (1, 1, 1, 3)))
    assert out.definitive and out.witness is None


def test_find_occurrence_double_enumeration():
    for seed in (3, 4, 5):
        f = fixtures.random_function(2, 3, 2, seed=seed)
        for sigma in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1)]:
            ic = fixtures.blr_constraint(2, sigma)
            brute = brute_occurrences(f, ic)
            out = find_induced_occurrence(f, ic)
            assert out.definitive
            if brute:
                assert out.witness.points == brute[0]
            else:
                assert out.witness is None


def test_find_occurrence_randomized_mode():
    f = fixtures.random_function(2, 3, 2, seed=6)
    ic = fixtures.blr_constraint(2, (1, 1, 1, 1))
    brute = brute_occurrences(f, ic)
    out = find_induced_occurrence(f, ic, mode="randomized", budget=3000, seed=1)
    if brute:
        assert out.witness is not None and out.definitive
    else:
        assert out.witness is None and not out.definitive


def test_violation_density_examples():
    params = FieldParams(2, 2)
    f = FunctionTable(params, 2, np.full(4, 1))
    assert violation_density(f, fixtures.blr_constraint(2, (1, 1, 1, 1))) == 1.0
    # degree-1 table: derivative identity kills every violating sigma
    g = fixtures.degree_d_table(2, 3, 1, seed=7)
    for ic in fixtures.derivative_collection(2).members:
        assert violation_density(g, ic) == 0.0


def test_violation_density_double_count():
    f = fixtures.random_function(2, 3, 2, seed=8)
    ic = fixtures.blr_constraint(2, (2, 1, 2, 1))
    assert violation_density(f, ic) == len(brute_occurrences(f, ic)) / 2**9


def test_chunked_grid_walk_matches_whole_grid(monkeypatch):
    # the real threshold needs 2^22 tuples; shrinking forms.GRID_CHUNK sends
    # small grids down the x_1-slice walk
    cases = [
        (fixtures.random_function(2, 3, 2, seed=s), ic)
        for s in (3, 4)
        for ic in fixtures.derivative_collection(2).members
    ]
    ap = fixtures.ap_constraint(3, 3, (1, 2, 3))
    cases.append((fixtures.random_function(3, 2, 3, seed=1), ap))
    factor = fixtures.random_factor(2, 3, 2, 2, seed=1)
    forms_ = fixtures.derivative_forms(2)
    images = [CellImage(((0, 1), (1, 1), (1, 0), (0, 0))), CellImage(((1, 0),) * 4)]

    def scans():
        out = []
        for f, ic in cases:
            w = find_induced_occurrence(f, ic).witness
            out.append((w.points if w else None, violation_count(f, ic)))
        return out + [pattern_count(factor, forms_, img) for img in images]

    whole = scans()
    chunk_vars = []
    grid_point_indices = forms.grid_point_indices

    def spy(constraint, params, chunk_var=None):
        chunk_vars.append(chunk_var)
        return grid_point_indices(constraint, params, chunk_var)

    monkeypatch.setattr(forms, "grid_point_indices", spy)
    monkeypatch.setattr(forms, "GRID_CHUNK", 8)
    assert scans() == whole
    assert chunk_vars and None not in chunk_vars
    for (f, ic), (witness, count) in zip(cases, whole):
        brute = brute_occurrences(f, ic)
        assert witness == (brute[0] if brute else None)
        assert count == (len(brute), f.params.size**ic.constraint.ell)
    # some first witness lies past the x_1 = 0 slice, so slice offsets are exercised
    assert any(w and any(w[0]) for w, _ in whole[: len(cases)])
    pts = [index_to_vec(i, FieldParams(2, 3)) for i in range(8)]
    for img, count in zip(images, whole[len(cases):]):
        brute = sum(
            all(
                eval_factor(factor, eval_form(form, tup)) == b
                for form, b in zip(forms_.forms, img.cells)
            )
            for tup in itertools.product(pts, repeat=3)
        )
        assert count == (brute, 8**3)


def test_subspace_test_one_sided_on_free_tables():
    family = fixtures.derivative_collection(2)
    for seed in range(5):
        f = fixtures.degree_d_table(2, 5, 1, seed=seed)
        rep = affine_subspace_test(f, family, trials=300, seed=seed)
        assert rep.verdict == "accept"
        assert rep.rejections == 0
        assert rep.witness is None


def test_subspace_test_empty_collection_accepts():
    f = fixtures.random_function(2, 4, 2, seed=1)
    rep = affine_subspace_test(f, ConstraintCollection(()), trials=50, seed=0)
    assert rep.verdict == "accept" and rep.trials == 50


def test_subspace_test_rejections_carry_verified_witnesses():
    family = fixtures.derivative_collection(2)
    f = fixtures.random_function(2, 3, 2, seed=5)
    assert distance_to_enumerable_property(f, max_degree=1) > 0
    rep = affine_subspace_test(f, family, trials=400, seed=2)
    assert rep.verdict == "reject"
    w = rep.witness
    hit = False
    for ic in family.members:
        vals = tuple(f(eval_form(form, w.points)) for form in ic.constraint.forms)
        hit = hit or vals == ic.sigma
    assert hit


def test_witness_lifting_soundness():
    f = fixtures.random_function(2, 4, 2, seed=9)
    rng = np.random.default_rng(0)
    pts = [tuple(int(v) for v in rng.integers(0, 2, size=4)) for _ in range(3)]
    g = restrict_to_affine_span(f, pts)
    ic = fixtures.blr_constraint(2, (1, 2, 1, 2))
    out = find_induced_occurrence(g, ic)
    if out.witness is not None:
        lifted = lift_restriction_witness(pts, out.witness.points, 2)
        make_witness(f, ic, lifted)  # raises if the lift is unsound


def test_subspace_test_budget_marks_inconclusive():
    family = fixtures.derivative_collection(2)
    f = fixtures.random_function(2, 3, 2, seed=5)
    rep = affine_subspace_test(f, family, trials=20, seed=2, budget=1)
    assert rep.inconclusive_trials == 20
    assert rep.verdict == "accept"  # no verified witness, no rejection


@pytest.mark.parametrize(
    "p, n, seed, rejections, witness",
    [
        (2, 10, 1, 9, [[0, 0, 1, 0, 0, 1, 1, 1, 1, 0], [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
                       [1, 0, 0, 1, 0, 0, 0, 0, 1, 0]]),
        (3, 6, 2, 20, [[0, 0, 2, 2, 1, 2], [2, 2, 2, 0, 2, 0], [2, 2, 2, 0, 2, 0]]),
        (5, 4, 3, 20, [[1, 0, 3, 4], [0, 2, 1, 0], [0, 2, 1, 0]]),
    ],
)
def test_subspace_test_report_pinned(p, n, seed, rejections, witness):
    # exact rejection counts and first witnesses; all family members share
    # one constraint, so these also pin the member order of the grid checks
    f = fixtures.random_function(p, n, p, seed)
    rep = affine_subspace_test(f, fixtures.derivative_collection(p), trials=20, seed=seed)
    rate = rejections / 20
    assert rep.as_dict() == {
        "verdict": "reject",
        "trials": 20,
        "rejections": rejections,
        "witness": witness,
        "seed": seed,
        "empirical_rejection_rate": rate,
        "stderr": math.sqrt(rate * (1 - rate) / 20),
        "inconclusive_trials": 0,
    }


def test_distance_examples():
    f = fixtures.degree_d_table(2, 4, 1, seed=10)
    assert distance_to_enumerable_property(f, max_degree=1) == 0.0
    params = FieldParams(2, 2)
    quad = Polynomial.from_monomials(2, 2, {(1, 1): 1})
    g = FunctionTable(params, 2, 1 + quad.values())
    assert distance_to_enumerable_property(g, max_degree=1) == 0.25
    other = fixtures.random_function(2, 2, 2, seed=11)
    assert distance_to_enumerable_property(g, tables=[other]) == distance(g, other)


def test_distance_requires_field_sized_range():
    f = fixtures.random_function(2, 3, 3, seed=12)
    with pytest.raises(ValueError):
        distance_to_enumerable_property(f, max_degree=1)


def test_big_picture_examples():
    f = fixtures.random_function(2, 3, 2, seed=13)
    bp = big_picture(f, PolynomialFactor.trivial())
    assert bp.cells[()] == frozenset(np.unique(f.values).tolist())
    x1 = Polynomial.coordinate(2, 3, 1)
    measurable = f.with_values(1 + x1.values())
    bp2 = big_picture(measurable, PolynomialFactor((x1,)))
    assert bp2.cells == {(0,): frozenset({1}), (1,): frozenset({2})}


def test_big_picture_recount():
    f = fixtures.random_function(2, 3, 2, seed=14)
    factor = PolynomialFactor((Polynomial.coordinate(2, 3, 1),))
    bp = big_picture(f, factor)
    x1 = Polynomial.coordinate(2, 3, 1).values()
    for cell in (0, 1):
        assert bp.cells[(cell,)] == frozenset(np.unique(f.values[x1 == cell]).tolist())


def test_partial_induction_examples():
    a = fixtures.derivative_forms(2)
    ic = InducedConstraint(a, (1, 2, 2, 1))
    # every cell carries every label: equal cells are consistent
    full = {(c1, c2): frozenset({1, 2}) for c1 in range(2) for c2 in range(2)}
    res = partially_induces(full, (1, 1), ic)
    assert res.induced is True
    assert len(set(res.cells)) >= 1
    # a label absent from every cell
    missing = {(0, 0): frozenset({1}), (1, 0): frozenset({1})}
    assert partially_induces(missing, (1, 1), ic).induced is False


def test_partial_induction_from_actual_occurrence():
    # f induces (A, sigma)  =>  big_picture partially induces it
    f = fixtures.random_function(2, 4, 2, seed=15)
    factor = fixtures.linear_factor(2, 4, 2, seed=15)
    for ic in fixtures.derivative_collection(2).members:
        out = find_induced_occurrence(f, ic)
        if out.witness is None:
            continue
        bp = big_picture(f, factor)
        res = partially_induces(bp, factor.degree_list(), ic)
        assert res.induced is True


def test_partial_induction_budget_inconclusive():
    a = fixtures.derivative_forms(2)
    ic = InducedConstraint(a, (1, 1, 1, 1))
    full = {(c1, c2): frozenset({1, 2}) for c1 in range(2) for c2 in range(2)}
    res = partially_induces(full, (1, 1), ic, budget=1)
    assert res.induced is None


def test_min_partially_induced_size():
    a2 = AffineConstraint.from_rows(2, [(1, 0), (1, 1)])
    small = InducedConstraint(a2, (1, 2))
    big = fixtures.blr_constraint(2, (1, 1, 2, 2))
    col = ConstraintCollection((big, small))
    g = {(0,): frozenset({1, 2}), (1,): frozenset({1, 2})}
    size, definitive = min_partially_induced_size(g, (1,), col)
    assert size == 2 and definitive
    none_col = ConstraintCollection((InducedConstraint(a2, (2, 2)),))
    g2 = {(0,): frozenset({1})}
    size, definitive = min_partially_induced_size(g2, (1,), none_col)
    assert size is None and definitive


def test_min_size_two_members_both_induced():
    a2 = AffineConstraint.from_rows(2, [(1, 0), (1, 1)])
    member4 = fixtures.blr_constraint(2, (1, 1, 1, 1))
    member2 = InducedConstraint(a2, (1, 1))
    col = ConstraintCollection((member4, member2))
    g = {(0, 0): frozenset({1}), (1, 1): frozenset({1}),
         (0, 1): frozenset({1}), (1, 0): frozenset({1})}
    size, definitive = min_partially_induced_size(g, (1, 1), col)
    assert size == 2 and definitive
    size4, _ = min_partially_induced_size(g, (1, 1), ConstraintCollection((member4,)))
    assert size4 == 4


def test_cleanup_transfer_end_to_end():
    # a function beyond cleanup reach of degree <= 1 stays non-free after
    # cleanup, and the big picture of the cleanup partially induces whatever
    # constraint survives (the core transfer step of the testability argument)
    zeta = 0.07
    family = fixtures.derivative_collection(2)
    params = FieldParams(2, 4)
    quad = Polynomial.from_monomials(2, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    f = FunctionTable(params, 2, 1 + quad.values())
    coarse = PolynomialFactor(
        (Polynomial.coordinate(2, 4, 1), Polynomial.coordinate(2, 4, 2))
    )
    fine = coarse.extend(Polynomial.coordinate(2, 4, 3))
    from affinetest import bias_certificate

    beta = 2**coarse.complexity * bias_certificate(coarse).max_bias
    bound = (2 * f.range_size + 1 + beta) * zeta
    assert distance_to_enumerable_property(f, max_degree=1) > bound
    checked = 0
    for s in ((0,), (1,)):
        cleaned = cleanup(f, coarse, fine, s, zeta)
        bp = big_picture(cleaned, coarse)
        for ic in family.members:
            if find_induced_occurrence(cleaned, ic).witness is None:
                continue
            assert partially_induces(bp, coarse.degree_list(), ic).induced is True
            checked += 1
    assert checked >= 3  # the cleanups do retain induced constraints
