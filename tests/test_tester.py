import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from affinetest import forms, gflinalg, gowers, tester
from affinetest.decompose import SelectionError
from affinetest.factor import PolynomialFactor, cell_index_array, eval_factor, pattern_count
from affinetest.field import BudgetError, RealTable, canonical_indices, index_digits, index_to_vec
from affinetest.forms import CellImage, eval_form, make_concise_collection
from affinetest.tester import violation_count
from affinetest.gowers import inverse_gowers_search
from affinetest.poly import Polynomial, monomials_up_to_degree
from affinetest import fixtures
from reference import (
    reference_distance_to_degree,
    reference_grid_point_indices,
    reference_matches,
)


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


def reference_randomized_search(f, ic, budget, seed):
    """The randomized search one tuple at a time through eval_form: the
    oracle for the blocked search."""
    params = f.params
    if any(s not in set(f.values.tolist()) for s in ic.sigma):
        return tester.SearchOutcome(None, True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    for _ in range(budget):
        pts = tuple(index_to_vec(int(i), params)
                    for i in rng.integers(0, params.size, size=ic.constraint.ell))
        if all(f(eval_form(form, pts)) == lab for form, lab in zip(ic.constraint.forms, ic.sigma)):
            return tester.SearchOutcome(make_witness(f, ic, pts), True)
    return tester.SearchOutcome(None, False)


@pytest.mark.parametrize("block", [tester.SEARCH_BLOCK, 7])
def test_randomized_search_matches_per_tuple_loop(monkeypatch, block):
    monkeypatch.setattr(tester, "SEARCH_BLOCK", block)
    cases = [(fixtures.random_function(2, 4, 2, seed=s), ic)
             for s in (1, 2) for ic in fixtures.derivative_collection(2).members[:8]]
    cases += [(fixtures.random_function(3, 2, 3, seed=3), fixtures.ap_constraint(3, 3, (1, 2, 3))),
              (fixtures.random_function(5, 2, 2, seed=4), fixtures.ap_constraint(5, 3, (1, 2, 1)))]
    outcomes = []
    for f, ic in cases:
        for seed in range(4):
            for budget in (0, 1, 7, 8, 15, 60):
                got = find_induced_occurrence(f, ic, mode="randomized", budget=budget, seed=seed)
                assert got == reference_randomized_search(f, ic, budget, seed)
                outcomes.append(got)
    # both outcomes occur: a witness found and an exhausted, non-definitive budget
    assert any(o.witness for o in outcomes)
    assert any(not o.definitive for o in outcomes)


def test_randomized_search_hit_past_a_block(monkeypatch):
    # label 2 only on the subspace {0, e_1, e_2, e_1 + e_2}: about one tuple in
    # 512 induces the all-2 pattern, so first hits fall in later blocks
    monkeypatch.setattr(tester, "SEARCH_BLOCK", 7)
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, np.where(np.arange(params.size) < 4, 2, 1))
    ic = fixtures.blr_constraint(2, (2, 2, 2, 2))
    ell = ic.constraint.ell
    late = 0
    for seed in range(10):
        want = reference_randomized_search(f, ic, 3000, seed)
        assert find_induced_occurrence(f, ic, mode="randomized", budget=3000, seed=seed) == want
        assert want.witness
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
        draws = [tuple(index_to_vec(int(i), params) for i in row)
                 for row in rng.integers(0, params.size, size=(3000, ell))]
        late += draws.index(want.witness.points) >= 7
    assert late >= 8


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
    slice_views = forms._FormViews.slice

    def spy(self, x1):
        chunk_vars.append(x1)
        return slice_views(self, x1)

    monkeypatch.setattr(forms._FormViews, "slice", spy)
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


def vec_add(x, y, p):
    return tuple((a + b) % p for a, b in zip(x, y, strict=True))


def vec_scale(c, x, p):
    return tuple((c * a) % p for a in x)


def reference_trial_draws(seed, start, stop, size, ell):
    """Trial t's sample draws, one numpy Generator per trial: the oracle for
    tester._trial_draws."""
    rows = [
        np.random.default_rng(np.random.SeedSequence(entropy=(seed, t))).integers(0, size, size=ell)
        for t in range(start, stop)
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), ell)


def reference_subspace_test(f, collection, ell_test=None, trials=1000, seed=0, budget=1 << 24):
    """The tester as one Python loop per trial and per member, restricting
    and lifting by plain vector arithmetic: the oracle for the batched
    affine_subspace_test."""
    params = f.params
    p = params.p
    collection = make_concise_collection(collection)
    if len(collection) == 0:
        return tester.TestReport("accept", trials, 0, None, seed, 0.0, 0.0, 0)
    ell = ell_test if ell_test is not None else collection.max_ell()
    sub = FieldParams(p, ell - 1)
    grids = {}
    for ic in collection.members:
        a = ic.constraint
        if a not in grids:
            grids[a] = (
                reference_grid_point_indices(a.forms, sub) if sub.size**a.ell <= budget else None
            )

    def span_point(pts, c):
        acc = pts[0]
        for cj, x in zip(c, pts[1:]):
            acc = vec_add(acc, vec_scale(cj, x, p), p)
        return acc

    rejections = inconclusive = 0
    first_witness = None
    for t in range(trials):
        draws = reference_trial_draws(seed, t, t + 1, params.size, ell)[0]
        pts = [index_to_vec(int(i), params) for i in draws]
        g = np.array([f(span_point(pts, index_to_vec(i, sub))) for i in range(sub.size)])
        rejected = trial_inconclusive = False
        for ic in collection.members:
            grid = grids[ic.constraint]
            if grid is None:
                trial_inconclusive = True
                continue
            ok = reference_matches(g, grid, ic.sigma)
            flat = int(ok.argmax())
            if not ok[flat]:
                continue
            wpoints = []
            for _ in range(ic.constraint.ell):
                flat, r = divmod(flat, sub.size)
                wpoints.append(index_to_vec(r, sub))
            lifted = [span_point([(0,) * params.n] + pts[1:], w) for w in reversed(wpoints)]
            lifted[0] = vec_add(lifted[0], pts[0], p)
            witness = make_witness(f, ic, lifted)
            first_witness = first_witness or witness
            rejected = True
            break
        rejections += rejected
        inconclusive += trial_inconclusive and not rejected
    rate = rejections / trials if trials else 0.0
    stderr = math.sqrt(rate * (1 - rate) / trials) if trials else 0.0
    verdict = "reject" if rejections else "accept"
    return tester.TestReport(
        verdict, trials, rejections, first_witness, seed, rate, stderr, inconclusive
    )


def _mixed_collection(p):
    # derivative members around AP members of 2 and 3 terms, which have
    # fewer variables and forms and so their own grids
    deriv = fixtures.derivative_collection(p).members
    aps = [
        fixtures.ap_constraint(p, k, tuple((s + j * step) % p + 1 for j in range(k)))
        for k in (2, 3)
        if k <= p
        for s in range(p)
        for step in (0, 1)
    ]
    return ConstraintCollection(deriv[:3] + tuple(aps) + deriv[3:])


def _high_label_collection(p):
    # the first two members need a label above R, so they can never match; a
    # label code in base R would read the first sigma as (1, 2, 1, 1), a later
    # member's, and the second's label does not fit in int64
    high = InducedConstraint(fixtures.derivative_forms(p), (p + 1, 1, 1, 1))
    huge = InducedConstraint(fixtures.derivative_forms(p), (1, 1, 1, 10**20))
    return ConstraintCollection((high, huge) + fixtures.derivative_collection(p).members)


def _oracle_cases():
    for p, n in ((2, 5), (3, 3), (5, 2)):
        tables = {
            "far": fixtures.random_function(p, n, p, seed=p),
            "free": fixtures.degree_d_table(p, n, 1, seed=p),
        }
        for tname, f in tables.items():
            for cname, col in (
                ("deriv", fixtures.derivative_collection(p)),
                ("mixed", _mixed_collection(p)),
                ("high", _high_label_collection(p)),
            ):
                if tname == "free" and cname == "deriv":
                    continue  # "high" holds the same members behind one more
                for ell in (None, 4) if p < 5 else (None,):
                    yield f"p{p}-{tname}-{cname}-ell{ell}", f, col, ell
    # over budget at p = 3, l = 3: 100 cuts the derivative grid (729 tuples)
    # but keeps the AP grid (81), so trials the AP member misses on a
    # degree-1 table are inconclusive; 80 cuts both
    deriv = fixtures.derivative_collection(3).members
    col = ConstraintCollection(deriv[:3] + (fixtures.ap_constraint(3, 3, (1, 2, 3)),) + deriv[3:])
    yield "p3-budget-100", fixtures.degree_d_table(3, 3, 1, seed=4), col, 100
    yield "p3-budget-80", fixtures.random_function(3, 3, 3, seed=4), col, 80


@pytest.mark.parametrize("chunk", [forms.GRID_CHUNK, 200])
def test_batched_subspace_test_matches_reference_loop(monkeypatch, chunk):
    # chunk = 200 puts 3 trials in a block at p = 2 and 1 at p = 3, 5, so
    # reports must come out the same across block boundaries
    monkeypatch.setattr(forms, "GRID_CHUNK", chunk)
    seen = {"rejections": 0, "inconclusive": 0, "accept": 0, "late_witness": 0}
    for name, f, col, extra in _oracle_cases():
        budget = extra if name.startswith("p3-budget") else 1 << 24
        ell = None if name.startswith("p3-budget") else extra
        trials = 8 if f.params.p == 5 else 24
        for seed, t in ((0, trials), (1, trials), (2, 0)):
            got = affine_subspace_test(f, col, ell_test=ell, trials=t, seed=seed, budget=budget)
            want = reference_subspace_test(f, col, ell_test=ell, trials=t, seed=seed, budget=budget)
            assert got.as_dict() == want.as_dict(), (name, seed, t)
            seen["rejections"] += got.rejections > 0
            seen["inconclusive"] += got.inconclusive_trials > 0
            seen["accept"] += got.verdict == "accept" and t > 0
            seen["late_witness"] += got.rejections > 0 and got.rejections < t
    assert all(seen.values()), seen


@st.composite
def subspace_cases(draw):
    p = draw(st.sampled_from([2, 3]), label="p")
    n = draw(st.integers(1, 3), label="n")
    r = draw(st.integers(1, 3), label="R")
    labels = draw(st.lists(st.integers(1, r), min_size=p**n, max_size=p**n), label="table")
    f = FunctionTable(FieldParams(p, n), r, np.array(labels))
    members = []
    for _ in range(draw(st.integers(1, 3), label="members")):
        ell = draw(st.integers(1, 3))
        rows = [(1,) + (0,) * (ell - 1)]
        for _ in range(draw(st.integers(0, 3))):
            rows.append((1,) + tuple(draw(st.integers(0, p - 1)) for _ in range(ell - 1)))
        sigma = tuple(draw(st.integers(1, r + 1)) for _ in rows)
        members.append(InducedConstraint(AffineConstraint.from_rows(p, rows), sigma))
    col = ConstraintCollection(tuple(members))
    ell_test = draw(st.sampled_from([None, 3, 4]), label="ell_test")
    trials = draw(st.integers(0, 12), label="trials")
    seed = draw(st.integers(0, 3), label="seed")
    budget = draw(st.sampled_from([1 << 24, 30, 1]), label="budget")
    chunk = draw(st.sampled_from([forms.GRID_CHUNK, 1, 40]), label="chunk")
    return f, col, ell_test, trials, seed, budget, chunk


def _unread_axis_case(p, chunk):
    # a derivative square on x_3 and x_4 whose forms never read x_2, so its
    # labels are folded into the grid state over an axis no form gathers
    rows = [(1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, p - 1), (1, 0, 1, p - 1)]
    member = InducedConstraint(AffineConstraint.from_rows(p, rows), (1, 2, 2, 1))
    f = fixtures.random_function(p, 3, 2, seed=p)
    return f, ConstraintCollection((member,)), None, 12, 0, 1 << 24, chunk


@settings(max_examples=60)
@given(subspace_cases())
@example(_unread_axis_case(2, forms.GRID_CHUNK))
@example(_unread_axis_case(3, 40))
def test_batched_subspace_test_property(case):
    f, col, ell_test, trials, seed, budget, chunk = case
    with mock.patch.object(forms, "GRID_CHUNK", chunk):
        got = affine_subspace_test(f, col, ell_test, trials, seed, budget)
    want = reference_subspace_test(f, col, ell_test, trials, seed, budget)
    assert got.as_dict() == want.as_dict()


@settings(max_examples=200)
@given(data=st.data())
def test_trial_draws_equal_numpy_generators(data):
    # seeds of 1 to 4 words make SeedSequence entropy of 2 to 5 words, the
    # last past its 4-word pool; starts near 2^32 cross to 2-word trial indices
    words = data.draw(st.integers(1, 4), label="seed words")
    low = 1 << 32 * (words - 1) if words > 1 else 0
    seed = data.draw(st.integers(low, min(1 << 32 * words, 1 << 100) - 1), label="seed")
    base = data.draw(st.sampled_from([0, (1 << 32) - 20]), label="base")
    start = base + data.draw(st.integers(0, 30), label="offset")
    stop = start + data.draw(st.integers(0, 30), label="rows")
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    top = next(k for k in itertools.count() if p ** (k + 1) >= 2**31)
    n = data.draw(st.integers(0, top), label="n")
    ell = data.draw(st.integers(1, 6), label="ell")
    got = tester._trial_draws(seed, start, stop, p**n, ell)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_trial_draws(seed, start, stop, p**n, ell))


@pytest.mark.parametrize("size, ell", [(3**19, 6), (5**13, 1), (2**32, 2), (3**21, 2)])
def test_trial_draws_rows_numpy_redraws(size, ell):
    # at 3^19 and 5^13 about 19% and 15% of 32-bit words fall below Lemire's
    # threshold and are rejected; sizes from 2^32 - 1 up are drawn by numpy
    # for every row
    for seed in (0, 7, (1 << 64) + 1, (1 << 96) + 5):
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as spy:
            got = tester._trial_draws(seed, 0, 300, size, ell)
        assert np.array_equal(got, reference_trial_draws(seed, 0, 300, size, ell))
        if size < 2**32 - 1:
            assert 0 < spy.call_count < 300
        else:
            assert spy.call_count == 300


def test_negative_seed_raises():
    f = fixtures.random_function(2, 3, 2, seed=1)
    family = fixtures.derivative_collection(2)
    for trials, budget in ((5, 1 << 24), (0, 1 << 24), (5, 1)):
        with pytest.raises(ValueError, match="seed"):
            affine_subspace_test(f, family, trials=trials, seed=-1, budget=budget)


def test_reports_across_a_draw_slice_boundary(monkeypatch):
    # one trial per grid block and DRAW_SLICE + 3 trials: both groupings give
    # the same report; a smaller slice is also checked against the trial loop
    f = fixtures.random_function(2, 4, 2, seed=3)
    family = fixtures.derivative_collection(2)
    trials = tester.DRAW_SLICE + 3
    default_chunk, default_slice = forms.GRID_CHUNK, tester.DRAW_SLICE
    reports = []
    for chunk in (forms.GRID_CHUNK, 1):
        monkeypatch.setattr(forms, "GRID_CHUNK", chunk)
        reports.append(affine_subspace_test(f, family, trials=trials, seed=4).as_dict())
    assert reports[0] == reports[1]
    assert 0 < reports[0]["rejections"] < trials
    monkeypatch.setattr(tester, "DRAW_SLICE", 5)
    for chunk in (forms.GRID_CHUNK, 1):
        monkeypatch.setattr(forms, "GRID_CHUNK", chunk)
        got = affine_subspace_test(f, family, trials=23, seed=4)
        assert got.as_dict() == reference_subspace_test(f, family, trials=23, seed=4).as_dict()
    # at l = 4 a budget of 1000 keeps the derivative grids (512 tuples) and
    # cuts a 4-variable one (4096): every trial that does not reject is
    # inconclusive, at blocks of 1, 5 and DRAW_SLICE trials
    rows = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]
    wide = InducedConstraint(AffineConstraint.from_rows(2, rows), (1, 1, 1, 2))
    mixed = ConstraintCollection(family.members + (wide,))
    want = reference_subspace_test(f, mixed, 4, trials=23, seed=1, budget=1000)
    assert 0 < want.rejections < 23
    monkeypatch.setattr(forms, "GRID_CHUNK", default_chunk)
    for draw_slice in (1, 5, default_slice):
        monkeypatch.setattr(tester, "DRAW_SLICE", draw_slice)
        got = affine_subspace_test(f, mixed, 4, trials=23, seed=1, budget=1000)
        assert got.inconclusive_trials == got.trials - got.rejections
        assert got.as_dict() == want.as_dict()


def test_no_grid_in_budget_draws_nothing(monkeypatch):
    # at l = 40 every restriction grid is over budget: no restriction of
    # 2^39 points is built, and every trial is inconclusive
    f = fixtures.random_function(2, 10, 2, seed=1)
    family = fixtures.derivative_collection(2)
    monkeypatch.setattr(tester, "affine_span_indices", None)  # must not be called
    rep = affine_subspace_test(f, family, ell_test=40, trials=3, seed=0)
    assert rep.inconclusive_trials == 3 and rep.verdict == "accept"
    high = _high_label_collection(2).members[0]  # no member can match, none over budget
    rep = affine_subspace_test(f, ConstraintCollection((high,)), trials=3, seed=0)
    assert rep.inconclusive_trials == 0 and rep.verdict == "accept"


def test_corrupted_lift_raises(monkeypatch):
    f = fixtures.random_function(2, 4, 2, seed=5)
    family = fixtures.derivative_collection(2)
    assert affine_subspace_test(f, family, trials=50, seed=2).rejections > 1
    lift = tester._lift

    def corrupted(samples, witnesses, p):
        # move the first point of every rejected trial but the first one a
        # block reports, so only the block-wide check can catch it
        out = lift(samples, witnesses, p)
        out[1:, 0, 0] = (out[1:, 0, 0] + 1) % p
        return out

    monkeypatch.setattr(tester, "_lift", corrupted)
    with pytest.raises(ValueError, match="does not evaluate to sigma"):
        affine_subspace_test(f, family, trials=50, seed=2)


def test_field_mismatch_raises():
    for tp, cp in ((3, 2), (2, 3)):
        f = fixtures.degree_d_table(tp, 3, 1, seed=1)
        family = fixtures.derivative_collection(cp)
        ic = family.members[0]
        for call in (
            lambda: affine_subspace_test(f, family, trials=5),
            lambda: find_induced_occurrence(f, ic),
            lambda: violation_count(f, ic),
        ):
            with pytest.raises(ValueError, match=f"F_{cp} .* F_{tp}"):
                call()


def test_table_field_check_wording_once_per_distinct_constraint():
    f = fixtures.degree_d_table(3, 3, 1, seed=1)
    family = fixtures.derivative_collection(2)  # 8 members, one constraint
    message = r"^constraint over F_2 does not apply to a table over F_3\^3$"
    for call in (
        lambda: affine_subspace_test(f, family, trials=5),
        lambda: find_induced_occurrence(f, family.members[0]),
        lambda: violation_count(f, family.members[0]),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    g = fixtures.degree_d_table(2, 3, 1, seed=1)
    with mock.patch.object(tester, "check_field", wraps=tester.check_field) as spy:
        assert affine_subspace_test(g, family, trials=5).verdict == "accept"
    assert spy.call_count == 1


def test_negative_trials_raise():
    f = fixtures.random_function(2, 3, 2, seed=1)
    with pytest.raises(ValueError, match="trials"):
        affine_subspace_test(f, fixtures.derivative_collection(2), trials=-3)


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


# the loop oracle scores one table per polynomial; larger families in the
# sweep were compared with it once, outside the suite
ORACLE_TABLES = 1 << 12


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_distance_to_degree_matches_loop_oracle(p):
    for d, n in itertools.product(range(4), range(6)):
        params = FieldParams(p, n)
        rng = np.random.default_rng([p, d, n])
        above = {e: int(rng.integers(0, p)) for e in monomials_up_to_degree(p, n, d + 1)}
        tables = [rng.integers(1, p + 1, params.size), Polynomial.from_monomials(p, n, above).values() + 1]
        family = p ** len(monomials_up_to_degree(p, n, d))
        for vals in tables:
            f = FunctionTable(params, p, vals)
            if family > 1 << 20:
                with pytest.raises(BudgetError, match=f"= {family} exceeds"):
                    distance_to_enumerable_property(f, max_degree=d)
            elif family <= ORACLE_TABLES:
                assert distance_to_enumerable_property(f, max_degree=d) == (
                    reference_distance_to_degree(f, d)
                )


@pytest.mark.parametrize("n, d", [(0, 1), (3, 0), (4, 1), (5, 2), (8, 1), (12, 1)])
def test_distance_at_p2_is_half_the_correlation_gap(n, d):
    # agreement with P or P + 1 is (2^n + |sum_x (-1)^(f(x) - 1 + P(x))|) / 2
    f = fixtures.random_function(2, n, 2, seed=n + d)
    signs = RealTable(f.params, 1.0 - 2.0 * (f.values - 1))
    corr = inverse_gowers_search(signs, d).correlation
    size = f.params.size
    assert size * distance_to_enumerable_property(f, max_degree=d) == size * (1 - corr) / 2


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 4),
    d=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_to_degree_is_affine_invariant(p, n, d, seed):
    params = FieldParams(p, n)
    if p ** len(monomials_up_to_degree(p, n, d)) > 1 << 20:
        return
    rng = np.random.default_rng(seed)
    f = FunctionTable(params, p, rng.integers(1, p + 1, params.size))
    a = gflinalg.random_invertible(rng, n, p)
    c = rng.integers(0, p, n)
    moved = canonical_indices(index_digits(np.arange(params.size), params) @ a.T + c, params)
    g = f.with_values(f.values[moved])
    assert distance_to_enumerable_property(g, max_degree=d) == (
        distance_to_enumerable_property(f, max_degree=d)
    )


@pytest.mark.parametrize("p, n, d", [(2, 5, 2), (3, 3, 2), (5, 2, 2), (7, 2, 1), (3, 2, 0)])
def test_distance_in_one_row_blocks_is_unchanged(monkeypatch, p, n, d):
    f = fixtures.random_function(p, n, p, seed=p * n + d)
    whole = distance_to_enumerable_property(f, max_degree=d)
    monkeypatch.setattr(gowers, "DEFAULT_SEARCH_BUDGET", 1)
    assert distance_to_enumerable_property(f, max_degree=d) == whole


def test_distance_rejects_negative_degree():
    f = fixtures.random_function(2, 3, 2, seed=12)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        distance_to_enumerable_property(f, max_degree=-1)


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


@pytest.mark.parametrize("p,c", [(2, 0), (2, 3), (3, 1), (5, 3)])
def test_big_picture_matches_per_pair_decoding(p, c):
    # cells in the order of their first (cell, label) pair, as decoded one pair at a time
    f = fixtures.random_function(p, 3, 3, seed=p + c)
    factor = fixtures.random_factor(p, 3, c, 1, seed=c)
    want: dict = {}
    for pair in np.unique(cell_index_array(factor, f.params) * 4 + f.values):
        cell_flat, label = divmod(int(pair), 4)
        want.setdefault(index_to_vec(cell_flat, FieldParams(p, c)), set()).add(label)
    cells = big_picture(f, factor).cells
    assert list(cells) == list(want)
    assert cells == {cell: frozenset(labels) for cell, labels in want.items()}


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
