import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from affinetest import (
    DecompositionConfig,
    FieldParams,
    FunctionTable,
    Polynomial,
    RealTable,
    SelectionError,
    cleanup,
    conditional_expectation,
    density_index,
    distance,
    refine_step,
    represents,
    robust_refine,
    select_subcell,
    strong_decompose,
    subcell_conditions,
    super_decompose,
)
from affinetest import decompose
from affinetest import factor as factor_module
from affinetest.decompose import DecompositionResult, load_result, save_result
from affinetest.field import BudgetError
from affinetest.factor import PolynomialFactor, bias_certificate
from affinetest.gowers import CorrelationWitness, gowers_norm
from affinetest import fixtures


def coord(p, n, i):
    return Polynomial.coordinate(p, n, i)


def test_refine_step_returns_none_for_measurable_slice():
    b = PolynomialFactor((coord(2, 4, 1),))
    slice_vals = coord(2, 4, 1).values().astype(float)
    f = RealTable(FieldParams(2, 4), slice_vals)
    assert refine_step(f, b, 1) is None


def test_refine_step_character_example():
    # centered (-1)^{x_1} on the trivial factor: appends x_1, index gain 1
    params = FieldParams(2, 3)
    f = RealTable(params, 1.0 - 2.0 * coord(2, 3, 1).values().astype(float))
    before = density_index([f], PolynomialFactor.trivial())
    refined = refine_step(f, PolynomialFactor.trivial(), 1)
    assert refined is not None and refined.complexity == 1
    assert refined.polys[0].linear_part() == (1, 0, 0)
    gain = density_index([f], refined) - before
    assert abs(gain - 1.0) < 1e-12


@pytest.mark.parametrize("p,factor_rows,witness,dependent", [
    (2, [(1, 0, 0), (0, 1, 0)], ((0, 0, 0), 1), True),  # zero linear part: a constant
    (2, [], ((0, 1, 1), 0), False),  # the empty factor spans only 0
    (2, [(1, 0, 0), (0, 1, 0)], ((1, 1, 0), 1), True),  # x_1 + x_2 + 1
    (2, [(1, 0, 0), (0, 1, 0)], ((1, 1, 1), 0), False),
    (3, [(1, 2, 0)], ((2, 1, 0), 0), True),  # 2 (x_1 + 2 x_2)
    (3, [(1, 2, 0)], ((2, 2, 0), 0), False),
])
def test_degree_1_witness_must_be_affinely_independent(p, factor_rows, witness, dependent):
    factor = PolynomialFactor(tuple(Polynomial.linear(p, 3, row) for row in factor_rows))
    q = Polynomial.linear(p, 3, *witness)
    f = RealTable(FieldParams(p, 3), np.zeros(p**3))
    found = CorrelationWitness(q, 0.5)
    with mock.patch.object(decompose, "inverse_gowers_search", return_value=found):
        if dependent:
            with pytest.raises(AssertionError, match="affinely dependent"):
                refine_step(f, factor, 1)
        else:
            assert refine_step(f, factor, 1) == factor.extend(q)
        assert refine_step(f, factor, 2) == factor.extend(q)  # checked at degree 1 only


def test_refine_step_strictly_increases_index():
    for seed in range(8):
        f = fixtures.random_function(2, 4, 2, seed=seed).indicator_slice(1)
        b = PolynomialFactor.trivial()
        refined = refine_step(f, b, 2)
        if refined is None:
            continue
        assert density_index([f], refined) > density_index([f], b)


def test_robust_refine_trivial_cases():
    f = fixtures.random_function(2, 4, 2, seed=1)
    fs = f.slices()
    b = fixtures.linear_factor(2, 4, 1, seed=1)
    # gamma above the total index budget: nothing can be kept
    assert robust_refine(fs, b, 3.0, 1) == b
    measurable = f.with_values(1 + coord(2, 4, 2).values())
    b2 = PolynomialFactor((coord(2, 4, 2),))
    assert robust_refine(measurable.slices(), b2, 0.01, 1) == b2


def test_robust_refine_terminates_with_small_gains():
    f = fixtures.random_function(2, 4, 2, seed=5)
    fs = f.slices()
    trace = []
    out = robust_refine(fs, PolynomialFactor.trivial(), 0.05, 1, max_factor_size=40, trace=trace)
    steps = [t for t in trace if t["event"] == "robust_step"]
    assert len(steps) <= 40  # index bounded by R/gamma = 2/0.05
    assert all(t["gain"] >= 0.05 for t in steps)
    # no further single step of gain >= 0.05 exists
    for s in f.slices():
        cand = refine_step(s, out, 1)
        if cand is not None:
            assert density_index(fs, cand) - density_index(fs, out) < 0.05


def _verify_strong(f, res, d, eps=1e-9):
    fs = f.slices()
    for i in range(f.range_size):
        total = res.f1[i].values + res.f2[i].values + res.f3[i].values
        assert np.max(np.abs(total - fs[i].values)) <= eps
        ce = conditional_expectation(fs[i], res.factor_coarse)
        assert np.max(np.abs(res.f1[i].values - ce.values)) <= eps
        assert -eps <= res.f1[i].values.min() and res.f1[i].values.max() <= 1 + eps
        mid = res.f1[i].values + res.f3[i].values
        assert -eps <= mid.min() and mid.max() <= 1 + eps
        for t in (res.f2[i], res.f3[i]):
            assert -1 - eps <= t.values.min() and t.values.max() <= 1 + eps
        assert gowers_norm(res.f2[i], d + 1).value <= res.certificates.gowers_bound + eps
        assert res.f3[i].l2_norm() <= res.certificates.l2_bound + eps


def test_strong_decompose_measurable_base():
    params = FieldParams(2, 5)
    b0 = PolynomialFactor((coord(2, 5, 1),))
    f = FunctionTable(params, 2, 1 + coord(2, 5, 1).values())
    cfg = DecompositionConfig(degree=1, delta=0.2)
    res = strong_decompose(f, cfg, b0)
    assert res.certified
    assert max(np.abs(t.values).max() for t in res.f2) == 0
    assert max(np.abs(t.values).max() for t in res.f3) == 0
    assert res.factor_coarse.is_syntactic_refinement_of(b0)


def test_strong_decompose_vacuous_eta():
    f = fixtures.random_function(2, 5, 2, seed=2)
    cfg = DecompositionConfig(degree=1, delta=0.4, eta=1.0)
    res = strong_decompose(f, cfg)
    # eta = 1 is vacuous, so the inner factor equals B and f3 vanishes
    assert res.certified
    assert max(np.abs(t.values).max() for t in res.f3) == 0
    _verify_strong(f, res, 1)


def test_strong_decompose_contract_random():
    cfg = DecompositionConfig(
        degree=1, delta=0.2, eta=lambda c: 0.55 / (c + 1), max_factor_size=8
    )
    for seed in range(5):
        f = fixtures.random_function(2, 5, 2, seed=100 + seed)
        res = strong_decompose(f, cfg)
        assert res.certified
        _verify_strong(f, res, 1)


def test_strong_decompose_rejects_bad_inputs():
    f = fixtures.random_function(2, 4, 2, seed=1)
    with pytest.raises(ValueError):
        strong_decompose(f, DecompositionConfig(degree=2))  # degree >= p
    b0 = PolynomialFactor((Polynomial.from_monomials(3, 3, {(1, 1, 0): 1}),))
    g = fixtures.random_function(3, 3, 2, seed=1)
    with pytest.raises(ValueError):
        strong_decompose(g, DecompositionConfig(degree=1), b0)


def test_super_decompose_constant_function():
    params = FieldParams(2, 4)
    f = FunctionTable(params, 2, np.ones(16, dtype=np.int64))
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.3, zeta=0.2))
    assert res.certified
    assert res.factor_coarse.complexity == 0 and res.factor_fine.complexity == 0
    assert max(np.abs(t.values).max() for t in res.f2) == 0
    assert max(np.abs(t.values).max() for t in res.f3) == 0


def test_super_decompose_measurable_function():
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, 1 + coord(2, 5, 3).values())
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.3, zeta=0.2))
    assert res.certified
    assert max(np.abs(t.values).max() for t in res.f2) == 0
    assert max(np.abs(t.values).max() for t in res.f3) == 0


def test_super_decompose_layered_contract():
    f = fixtures.layered_table(2, 5, 0, deep_cells=3, quarter=True)
    cfg = DecompositionConfig(degree=1, delta=0.25, eta=0.08, zeta=0.3, max_factor_size=8)
    res = super_decompose(f, cfg)
    assert res.certified
    assert res.factor_fine.complexity > res.factor_coarse.complexity
    assert res.factor_fine.is_syntactic_refinement_of(res.factor_coarse)
    # representation literally re-verified, not trusted from the loop
    assert represents(f, res.factor_fine, res.factor_coarse, 0.3)
    assert res.certificates.bias_coarse.exhaustive
    assert res.certificates.bias_fine.exhaustive
    fs = f.slices()
    for i in range(2):
        total = res.f1[i].values + res.f2[i].values + res.f3[i].values
        assert np.max(np.abs(total - fs[i].values)) <= 1e-9
        ce = conditional_expectation(fs[i], res.factor_fine)
        assert np.max(np.abs(res.f1[i].values - ce.values)) <= 1e-9


def test_super_decompose_exhausted_iterations_keep_fine_refining_coarse():
    # one iteration whose representation check fails: the coarse factor is
    # not re-robustified against a fine one that no iteration follows
    f = fixtures.random_function(2, 6, 2, seed=1)
    cfg = DecompositionConfig(degree=1, delta=0.25, eta=0.08, zeta=0.05,
                              max_factor_size=8, max_iterations=1)
    res = super_decompose(f, cfg)
    assert not res.certified and not res.certificates.represents
    assert res.factor_fine.is_syntactic_refinement_of(res.factor_coarse)
    assert res.factor_fine.complexity > res.factor_coarse.complexity


def _flipped(f, seed, fraction):
    rng = np.random.default_rng(seed)
    flips = rng.choice(f.params.size, size=round(fraction * f.params.size), replace=False)
    labels = np.array(f.values)
    labels[flips] = 3 - labels[flips]
    return f.with_values(labels)


@pytest.mark.parametrize("case", ["layered-2", "layered-3", "random"])
def test_monte_carlo_certificates_carry_their_margin(monkeypatch, case):
    # inputs on which a bare Monte-Carlo point estimate once certified a
    # residual whose exact U^2 is above eta: the first two estimates read
    # 0.0738 +- 0.013 and 0.0524 +- 0.044 for exact norms 0.0777 and 0.0799,
    # the third read 0 with stderr inf for an exact norm of 0.1405
    # the random input stays uncertified (estimate 0.1095 +- 0.0099); with the
    # margin the layered ones refine further and certify honestly
    if case == "random":
        f, eta, decompose_fn = fixtures.random_function(2, 9, 2, 0), 0.04, strong_decompose
        expect_certified = False
    else:
        seed = int(case[-1])
        f = _flipped(fixtures.layered_table(2, 9, seed, quarter=True), seed, 0.05)
        eta, decompose_fn = 0.075, super_decompose
        expect_certified = True

    def monte_carlo_only(r, k, mode="exact", **kwargs):
        if mode == "exact":
            raise BudgetError("exact mode switched off")
        return gowers_norm(r, k, mode=mode, **kwargs)

    monkeypatch.setattr(decompose, "gowers_norm", monte_carlo_only)
    cfg = DecompositionConfig(degree=1, delta=0.25, eta=eta, zeta=0.15,
                              max_factor_size=8, max_iterations=30, seed=0)
    res = decompose_fn(f, cfg)
    certs = res.certificates
    assert all(g.mode == "monte_carlo" for g in certs.gowers)
    assert res.certified is expect_certified
    if expect_certified:
        assert all(g.value + 3 * g.stderr <= certs.gowers_bound
                   for g in certs.gowers)
        assert all(gowers_norm(t, 2).value <= certs.gowers_bound for t in res.f2)


def test_gowers_certification_takes_each_factors_norms_once(monkeypatch):
    # the norms of a factor are recomputed only after a step changed it, and
    # the returned norms are those of the returned factor
    take_norms = decompose._slice_gowers
    seen = []

    def counted(fs, factor, k, seed):
        seen.append(factor)
        return take_norms(fs, factor, k, seed)

    monkeypatch.setattr(decompose, "_slice_gowers", counted)
    fs = fixtures.random_function(2, 6, 2, seed=3).slices()
    # the size budget binds; no witness is left; certified at once; the
    # iterations run out on a step
    for size, eta, iters in ((2, 0.01, 5), (8, lambda c: -1.0, 5), (8, 1.0, 5), (8, 0.01, 1)):
        cfg = DecompositionConfig(degree=1, delta=0.2, eta=eta, max_factor_size=size,
                                  max_iterations=iters)
        seen.clear()
        cur, norms, _ = decompose._gowers_certified(
            fs, PolynomialFactor.trivial(), cfg.eta_fn(), 1, cfg, None
        )
        assert len(seen) == len(set(seen))
        assert seen[-1] == cur
        assert norms == take_norms(fs, cur, 2, cfg.seed)


def _degenerate_result(f):
    """Super result over measurable f, then a zero polynomial appended so the
    fine factor is a proper (but partition-trivial) refinement."""
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.3, zeta=0.25))
    fine = res.factor_fine.extend(Polynomial.zero(f.params.p, f.params.n))
    return DecompositionResult(
        factor_coarse=res.factor_coarse,
        factor_fine=fine,
        f1=res.f1,
        f2=res.f2,
        f3=res.f3,
        subcell=None,
        certificates=res.certificates,
        certified=res.certified,
    )


def test_select_subcell_degenerate_zero_extension():
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, 1 + coord(2, 5, 1).values())
    res = _degenerate_result(f)
    s = select_subcell(f, res, 0.3, 0.25, seed=0)
    assert s == (0,)  # the only nonempty subcell id
    ok_a, ok_b = subcell_conditions(f, res, (0,), 0.3, 0.25)
    assert ok_a and ok_b
    ok_a, ok_b = subcell_conditions(f, res, (1,), 0.3, 0.25)
    assert not ok_a  # empty subcells


def test_select_subcell_measurable_condition_b_everywhere():
    f = fixtures.layered_table(2, 5, 1, deep_cells=3, quarter=True)
    cfg = DecompositionConfig(degree=1, delta=0.25, eta=0.08, zeta=0.3, max_factor_size=8)
    res = super_decompose(f, cfg)
    extra = res.factor_fine.complexity - res.factor_coarse.complexity
    assert extra > 0
    accepted = 0
    for flat in range(2**extra):
        s = tuple((flat >> i) & 1 for i in range(extra))
        ok_a, ok_b = subcell_conditions(f, res, s, 0.25, 0.3)
        accepted += ok_a and ok_b
    assert accepted >= 2 ** (extra - 1)  # at least half per the selection bound


def test_select_subcell_requires_proper_refinement():
    f = fixtures.random_function(2, 4, 2, seed=3)
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.4, eta=1.0, zeta=0.2))
    assert res.factor_fine.complexity == res.factor_coarse.complexity
    with pytest.raises(ValueError):
        select_subcell(f, res, 0.4, 0.2)


@pytest.mark.parametrize("budget, bound", [(16, 16), (4, 8)])  # max(p^n, budget), p^n = 8
def test_subcell_counts_are_bounded_by_domain_or_budget(monkeypatch, budget, bound):
    # coarse factors of 2^c = bound cells fit, one polynomial more does not;
    # a zero polynomial past the coarse factor makes subcell (0,) the whole cell
    f = fixtures.random_function(2, 3, 2, seed=1)
    c = bound.bit_length() - 1
    fits = fixtures.random_factor(2, 3, c, 1, seed=0)
    wide = fits.extend(coord(2, 3, 1))
    zero = Polynomial.zero(2, 3)
    base = super_decompose(f, DecompositionConfig(degree=1, delta=0.3, zeta=0.25))

    def run(coarse):
        res = replace(base, factor_coarse=coarse, factor_fine=coarse.extend(zero))
        return (subcell_conditions(f, res, (0,), 0.3, 0.25),
                select_subcell(f, res, 0.3, 0.25),
                cleanup(f, coarse, coarse.extend(zero), (0,), 0.25).values.tolist())

    want = run(fits)
    monkeypatch.setattr(factor_module, "ENUM_BUDGET", budget)
    assert run(fits) == want
    res = replace(base, factor_coarse=wide, factor_fine=wide.extend(zero))
    message = rf"^per-cell array of p\^C = 2\^{c + 1} cells exceeds max\(p\^n, budget\) = {bound}$"
    for call in (
        lambda: subcell_conditions(f, res, (0,), 0.3, 0.25),
        lambda: select_subcell(f, res, 0.3, 0.25),
        lambda: cleanup(f, wide, wide.extend(zero), (0,), 0.25),
    ):
        with pytest.raises(BudgetError, match=message):
            call()


@pytest.mark.parametrize("s", [(), (0, 0)], ids=["short", "long"])
def test_subcell_id_length_is_checked(s):
    # one polynomial past the coarse factor: a subcell id is one digit
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, 1 + coord(2, 5, 1).values())
    res = _degenerate_result(f)
    message = rf"subcell needs 1 digit\(s\), got {len(s)}"
    with pytest.raises(ValueError, match=message):
        subcell_conditions(f, res, s, 0.3, 0.25)
    with pytest.raises(ValueError, match=message):
        cleanup(f, res.factor_coarse, res.factor_fine, s, 0.25)


@pytest.mark.parametrize("knob,value", [
    ("eta", math.nan), ("delta", math.inf), ("eta", -1.0), ("delta", -0.25),
], ids=["eta-nan", "delta-inf", "eta-negative", "delta-negative"])
def test_constant_delta_and_eta_must_be_finite_and_nonnegative(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be finite and >= 0, got {value!r}"):
        DecompositionConfig(degree=1, **{knob: value})
    # a callable schedule is taken as it is, and 0 is a valid constant
    cfg = DecompositionConfig(degree=1, **{knob: lambda _c: value})
    assert getattr(cfg, f"{knob}_fn")()(0) is value
    assert getattr(DecompositionConfig(degree=1, **{knob: 0}), f"{knob}_fn")()(0) == 0.0


@pytest.mark.parametrize("delta", [-0.25, math.nan, math.inf])
def test_subcell_conditions_reject_a_bad_constant_delta(delta):
    # squared, -0.25 would act as 0.25
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, 1 + coord(2, 5, 1).values())
    res = _degenerate_result(f)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        subcell_conditions(f, res, (0,), delta, 0.25)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        select_subcell(f, res, delta, 0.25)


def test_cleanup_identity_when_nothing_triggers():
    params = FieldParams(2, 5)
    f = FunctionTable(params, 2, 1 + coord(2, 5, 1).values())
    coarse = PolynomialFactor((coord(2, 5, 1),))
    fine = coarse.extend(coord(2, 5, 2))
    out = cleanup(f, coarse, fine, (0,), 0.3)
    assert np.array_equal(out.values, f.values)


def test_cleanup_minority_relabeled():
    # single cell (trivial factor), 3/32 minority below zeta = 0.2
    params = FieldParams(2, 5)
    vals = np.ones(32, dtype=np.int64)
    vals[:3] = 2
    f = FunctionTable(params, 2, vals)
    coarse = PolynomialFactor.trivial()
    fine = PolynomialFactor((Polynomial.zero(2, 5),))
    out = cleanup(f, coarse, fine, (0,), 0.2)
    assert np.all(out.values == 1)
    assert distance(f, out) == 3 / 32


@pytest.mark.parametrize("r, c, fits", [(16, 4, True), (17, 3, True), (17, 4, False)])
def test_label_counts_are_charged_per_label_that_can_occur(monkeypatch, r, c, fits):
    # p^n = 16 points hold at most 16 distinct labels; with the budget at 16,
    # R * 2^C counts fit while they are at most min(R, 16) * 16
    params = FieldParams(2, 4)
    x1, x2 = coord(2, 4, 1).values(), coord(2, 4, 2).values()
    f = FunctionTable(params, r, 1 + x1 + 2 * x2)
    # represents counts the labels per cell of its fine factor, the subcell
    # steps per cell of the coarse one: both have 2^C cells here
    coarse = PolynomialFactor(tuple(coord(2, 4, i) for i in range(1, c + 1)))
    fine = coarse.extend(Polynomial.zero(2, 4))
    res = replace(
        super_decompose(f, DecompositionConfig(degree=1, delta=0.3, zeta=0.25)),
        factor_coarse=coarse, factor_fine=fine,
    )
    monkeypatch.setattr(factor_module, "ENUM_BUDGET", 16)
    calls = (
        lambda: represents(f, coarse, PolynomialFactor(coarse.polys[:1]), 0.5),
        lambda: subcell_conditions(f, res, (0,), 0.3, 0.25),
        lambda: cleanup(f, coarse, fine, (0,), 0.25),
    )
    if fits:
        rep, conditions, cleaned = (call() for call in calls)
        assert rep and conditions == (True, True) and cleaned.values.tolist() == f.values.tolist()
        return
    message = (rf"^per-cell label counts R \* p\^C = 17 \* 2\^4 exceed"
               rf" min\(R, p\^n\) \* max\(p\^n, budget\) = 256$")
    for call in calls:
        with pytest.raises(BudgetError, match=message):
            call()


def test_cleanup_two_cell_instance():
    # hand-built 16-point instance: cell x1=0 violates the frequency gap,
    # cell x1=1 is clean and untouched
    params = FieldParams(2, 4)
    x1 = coord(2, 4, 1).values()
    x2 = coord(2, 4, 2).values()
    vals = np.where(x1 == 0, np.where(x2 == 0, 1, 2), 1)
    f = FunctionTable(params, 2, vals)
    coarse = PolynomialFactor((coord(2, 4, 1),))
    fine = coarse.extend(coord(2, 4, 2))
    out = cleanup(f, coarse, fine, (0,), 0.3)
    # violating cell x1=0: |Pr[1|c]-Pr[1|(c,0)]| = |0.5-1| > 0.3, rewritten to 1
    assert np.all(out.values[x1 == 0] == 1)
    assert np.array_equal(out.values[x1 == 1], f.values[x1 == 1])


def test_cleanup_empty_subcell_is_hard_error():
    params = FieldParams(2, 4)
    f = fixtures.random_function(2, 4, 2, seed=9)
    coarse = PolynomialFactor((coord(2, 4, 1),))
    fine = coarse.extend(coord(2, 4, 1))  # duplicate: subcell ids (0,1),(1,0) empty
    with pytest.raises(RuntimeError):
        cleanup(f, coarse, fine, (1,), 0.2)


def test_cleanup_distance_bound_on_accepted_instances():
    zeta = 0.15
    checked = 0
    for seed in range(12):
        f = fixtures.layered_table(2, 5, seed, deep_cells=1, quarter=True)
        cfg = DecompositionConfig(degree=1, delta=0.25, eta=0.04, zeta=zeta, max_factor_size=8)
        res = super_decompose(f, cfg)
        if not (res.certified and res.factor_fine.complexity > res.factor_coarse.complexity):
            continue
        try:
            s = select_subcell(f, res, 0.25, zeta, seed=seed)
        except SelectionError:
            continue
        out = cleanup(f, res.factor_coarse, res.factor_fine, s, zeta)
        beta = 2**res.factor_coarse.complexity * res.certificates.bias_coarse.max_bias
        assert distance(f, out) <= (2 * f.range_size + 1 + beta) * zeta
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("zeta", [math.nan, -1.0, 0.0, 5.0])
def test_zeta_outside_0_1_is_rejected(zeta):
    # DecompositionConfig's range, checked again where a zeta arrives alone;
    # no attempt at all still rejects it
    f = fixtures.layered_table(2, 5, 0, deep_cells=1, quarter=True)
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.25, eta=0.04, zeta=0.15))
    s = (0,) * (res.factor_fine.complexity - res.factor_coarse.complexity)
    message = r"zeta must lie in \(0, 1\]"
    for call in (lambda: DecompositionConfig(degree=1, zeta=zeta),
                 lambda: subcell_conditions(f, res, s, 0.25, zeta),
                 lambda: select_subcell(f, res, 0.25, zeta, max_attempts=0),
                 lambda: cleanup(f, res.factor_coarse, res.factor_fine, s, zeta),
                 lambda: represents(f, res.factor_fine, res.factor_coarse, zeta)):
        with pytest.raises(ValueError, match=message):
            call()


def test_result_save_load_round_trip(tmp_path):
    # load_result inverts save_result on a super result, the same with a
    # subcell, and a strong result; the trace is not reloaded
    f = fixtures.layered_table(2, 5, 2, deep_cells=3, quarter=True)
    cfg = DecompositionConfig(degree=1, delta=0.25, eta=0.08, zeta=0.3, max_factor_size=8)
    sup = super_decompose(f, cfg)
    for i, res in enumerate((sup, replace(sup, subcell=(1, 0)), strong_decompose(f, cfg))):
        save_result(res, tmp_path / str(i), f.params)
        back = load_result(tmp_path / str(i))
        assert back == replace(res, f1=back.f1, f2=back.f2, f3=back.f3, trace=())
        for name in ("f1", "f2", "f3"):
            for a, b in zip(getattr(res, name), getattr(back, name), strict=True):
                assert np.array_equal(a.values, b.values)


def test_load_result_resolves_each_record_class_once(tmp_path):
    # Certificates, GowersResult and BiasCertificate: at most one type-hint
    # resolution each, however many loads and gowers certificates there are
    f = fixtures.layered_table(2, 5, 2, deep_cells=3, quarter=True)
    res = super_decompose(f, DecompositionConfig(degree=1, delta=0.25, eta=0.08, zeta=0.3))
    assert len(res.certificates.gowers) >= 2
    save_result(res, tmp_path, f.params)
    with mock.patch.object(decompose, "get_type_hints", wraps=decompose.get_type_hints) as hints:
        decompose._field_types.cache_clear()
        first, second = load_result(tmp_path), load_result(tmp_path)
    assert first.certificates == second.certificates == res.certificates
    assert hints.call_count == 3


def test_trace_records_steps():
    f = fixtures.random_function(2, 5, 2, seed=4)
    cfg = DecompositionConfig(degree=1, delta=0.2, eta=lambda c: 0.55 / (c + 1))
    res = strong_decompose(f, cfg)
    events = {t["event"] for t in res.trace}
    assert "robust_step" in events or "gowers_step" in events
