"""The acceptance suite: every headline property of the library checked
against independent oracles at pinned tolerances and seeds.

Each criterion is a function returning a CriterionResult; the registry at the
bottom drives both `affinetest experiment` and the pytest acceptance module.
All tolerances are fixed here, not configurable.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fixtures, gflinalg
from .decompose import (
    DecompositionConfig,
    SelectionError,
    cleanup,
    select_subcell,
    strong_decompose,
    super_decompose,
)
from .factor import (
    PolynomialFactor,
    bias_certificate,
    cell_histogram,
    pattern_count,
)
from .field import FieldParams, FunctionTable, disagreement_count, index_to_vec
from .forms import (
    AffineConstraint,
    CellImage,
    InducedConstraint,
    LinearForm,
    cs_complexity,
    change_of_view,
    dimension_d,
    make_concise,
    mixed_dimension,
)
from .gowers import gowers_norm, system_product_mean
from .tester import (
    distance_to_enumerable_property,
    find_induced_occurrence,
    affine_subspace_test,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.time() - t0)


def _random_system(rng, p_choices=(2, 3), n_max=4, m_max=4, ell_max=4):
    while True:
        p = int(rng.choice(p_choices))
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(2, m_max + 1))
        ell = int(rng.integers(2, ell_max + 1))
        forms = []
        for _ in range(m):
            v = rng.integers(0, p, size=ell)
            if not v.any():
                break
            forms.append(LinearForm(p, tuple(int(c) for c in v)))
        if len(forms) < m:
            continue
        s = cs_complexity(forms)
        if s is not None:
            return p, n, forms, s


def counting_lemma(seed: int = 11, instances: int = 200) -> CriterionResult:
    """|E prod f_i(L_i)| <= min_i ||f_i||_{U^{s+1}} + 1e-9 on random systems."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = -1.0
    for trial in range(instances):
        p, n, forms, s = _random_system(rng)
        tables = [
            fixtures.random_real_table(p, n, seed=1000 + trial * 7 + i)
            for i in range(len(forms))
        ]
        lhs = abs(system_product_mean(tables, forms))
        rhs = min(gowers_norm(t, s + 1).value for t in tables)
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > 1e-9:
            return _result(
                "counting_lemma", False,
                f"violated at trial {trial}: lhs={lhs} rhs={rhs}", t0,
            )
    return _result(
        "counting_lemma", True,
        f"{instances} instances, worst lhs-rhs = {worst:.3e} <= 1e-9", t0,
    )


def pattern_probability_exactness(seed: int = 5) -> CriterionResult:
    """Bruteforce pattern counts equal p^-s exactly on consistent image
    tuples and 0 on inconsistent ones, for independent linear factors over
    F_2^4 and F_3^3 with the derivative constraint."""
    t0 = time.time()
    checked_cons = checked_incons = 0
    for p, n, c in ((2, 4, 2), (3, 3, 2)):
        factor = fixtures.linear_factor(p, n, c, seed=seed + p)
        constraint = fixtures.derivative_forms(p)
        degrees = factor.degree_list()
        s = mixed_dimension(constraint.forms, degrees)
        rng = np.random.default_rng(seed + 10 * p)
        total_tuples = (p**c) ** constraint.size
        seen_c = seen_i = 0
        for flat in rng.permutation(total_tuples):
            cells = []
            rem = int(flat)
            for _ in range(constraint.size):
                rem, cid = divmod(rem, p**c)
                digits = []
                for _ in range(c):
                    cid, d = divmod(cid, p)
                    digits.append(d)
                cells.append(tuple(digits))
            img = CellImage(tuple(cells))
            from .forms import consistency_check

            cons = consistency_check(constraint, degrees, img)
            if cons and seen_c >= 30:
                continue
            if not cons and seen_i >= 30:
                continue
            count, total = pattern_count(factor, constraint, img)
            frac = Fraction(count, total)
            if cons:
                if frac != Fraction(1, p**s):
                    return _result(
                        "pattern_probability_exactness", False,
                        f"consistent tuple gave {frac}, expected 1/{p}^{s}", t0,
                    )
                seen_c += 1
            else:
                if frac != 0:
                    return _result(
                        "pattern_probability_exactness", False,
                        f"inconsistent tuple gave {frac} != 0", t0,
                    )
                seen_i += 1
            if seen_c >= 30 and seen_i >= 30:
                break
        checked_cons += seen_c
        checked_incons += seen_i
    passed = checked_cons >= 50 and checked_incons >= 50
    return _result(
        "pattern_probability_exactness", passed,
        f"{checked_cons} consistent and {checked_incons} inconsistent tuples exact", t0,
    )


def cell_size_band(seed: int = 23, instances: int = 20) -> CriterionResult:
    """|count(b)/p^n - p^-C| <= exhaustive max_bias for random degree-2
    factors at p=2, exact arithmetic on the left."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    checked = 0
    for trial in range(instances):
        n = int(rng.integers(5, 11))
        c = int(rng.integers(1, 5))
        factor = fixtures.random_factor(2, n, c, 2, seed=seed + trial)
        cert = bias_certificate(factor)
        assert cert.exhaustive
        hist = cell_histogram(factor)
        total = 2**n
        for cell, count in hist.items():
            dev = abs(Fraction(count, total) - Fraction(1, 2**c))
            if dev > Fraction(cert.max_bias):  # max_bias exact for p = 2
                return _result(
                    "cell_size_band", False,
                    f"trial {trial} cell {cell}: |{count}/{total} - 2^-{c}| = {dev} > {cert.max_bias}",
                    t0,
                )
        checked += 1
    return _result("cell_size_band", True, f"{checked} factors, all cells inside the band", t0)


def dimension_invariances(seed: int = 7) -> CriterionResult:
    """change_of_view preserves dimension_d (100 pairs); juxtaposed systems
    have dimension exactly 2q-1 (50 constraints)."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    for trial in range(100):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        rows = [[1] + [int(v) for v in rng.integers(0, p, size=ell - 1)] for _ in range(m)]
        rows[0] = [1] + [0] * (ell - 1)
        a = AffineConstraint.from_rows(p, rows)
        mat = gflinalg.random_invertible(rng, ell, p)
        viewed = change_of_view(a.forms, mat)
        for d in (1, 2, 3):
            if dimension_d(a.forms, d) != dimension_d(viewed, d):
                return _result(
                    "dimension_invariances", False,
                    f"view changed d={d} dimension at trial {trial}", t0,
                )
    for trial in range(50):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        rows = [[1] + [int(v) for v in rng.integers(0, p, size=ell - 1)] for _ in range(m)]
        rows[0] = [1] + [0] * (ell - 1)
        a = AffineConstraint.from_rows(p, rows)
        q = dimension_d(a.forms, d)
        juxt = []
        for f in a.forms:
            juxt.append(LinearForm(p, f.coeffs + (0,) * (ell - 1)))
        for f in a.forms:
            juxt.append(LinearForm(p, (f.coeffs[0],) + (0,) * (ell - 1) + f.coeffs[1:]))
        if dimension_d(juxt, d) != 2 * q - 1:
            return _result(
                "dimension_invariances", False,
                f"juxtaposition gave {dimension_d(juxt, d)} != 2*{q}-1 at trial {trial}", t0,
            )
    return _result("dimension_invariances", True, "100 view pairs + 50 juxtapositions exact", t0)


def _all_tables(params: FieldParams, r: int):
    for flat in range(r**params.size):
        vals = []
        rem = flat
        for _ in range(params.size):
            rem, v = divmod(rem, r)
            vals.append(v + 1)
        yield FunctionTable(params, r, np.array(vals, dtype=np.int64))


def conciseness_equivalence(seed: int = 13, instances: int = 10) -> CriterionResult:
    """make_concise preserves freeness for all 16 functions F_2^2 -> [2]."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    params = FieldParams(2, 2)
    tables = list(_all_tables(params, 2))
    done = 0
    while done < instances:
        ell = int(rng.integers(3, 6))
        m = int(rng.integers(2, ell))  # m < ell: genuinely non-concise
        rows = [[1] + [int(v) for v in rng.integers(0, 2, size=ell - 1)] for _ in range(m)]
        rows[0] = [1] + [0] * (ell - 1)
        sigma = tuple(int(v) for v in rng.integers(1, 3, size=m))
        ic = InducedConstraint(AffineConstraint.from_rows(2, rows), sigma)
        conc = make_concise(ic)
        if conc.constraint.ell > conc.constraint.size:
            return _result("conciseness_equivalence", False, "output not concise", t0)
        for f in tables:
            before = find_induced_occurrence(f, ic).witness is None
            after = find_induced_occurrence(f, conc).witness is None
            if before != after:
                return _result(
                    "conciseness_equivalence", False,
                    f"freeness mismatch on table {f.values.tolist()} for constraint {rows}", t0,
                )
        done += 1
    return _result(
        "conciseness_equivalence", True,
        f"{instances} non-concise constraints, 16 functions each, freeness identical", t0,
    )


def _check_strong_contract(f, res, d: int) -> str | None:
    fs = f.slices()
    eps = 1e-9
    for i in range(f.range_size):
        total = res.f1[i].values + res.f2[i].values + res.f3[i].values
        if np.max(np.abs(total - fs[i].values)) > eps:
            return "f1+f2+f3 != f"
        from .factor import conditional_expectation

        ce = conditional_expectation(fs[i], res.factor_coarse)
        if np.max(np.abs(res.f1[i].values - ce.values)) > eps:
            return "f1 is not E[f|B]"
        if res.f1[i].values.min() < -eps or res.f1[i].values.max() > 1 + eps:
            return "f1 out of [0,1]"
        both = res.f1[i].values + res.f3[i].values
        if both.min() < -eps or both.max() > 1 + eps:
            return "f1+f3 out of [0,1]"
        for t in (res.f2[i], res.f3[i]):
            if t.values.min() < -1 - eps or t.values.max() > 1 + eps:
                return "f2 or f3 out of [-1,1]"
        u = gowers_norm(res.f2[i], d + 1).value
        if u > res.certificates.gowers_bound + eps:
            return f"U^{d+1}(f2) = {u} exceeds {res.certificates.gowers_bound}"
        l2 = res.f3[i].l2_norm()
        if l2 > res.certificates.l2_bound + eps:
            return f"l2(f3) = {l2} exceeds {res.certificates.l2_bound}"
    # rank bullet at degree 1: affine independence of the linear parts
    lin = [q.linear_part() for q in res.factor_coarse.polys]
    if lin and gflinalg.rank(np.array(lin), f.params.p) != len(lin):
        return "degree-1 factor is affinely dependent"
    return None


def decomposition_contract(seed: int = 31, instances: int = 20) -> CriterionResult:
    """strong_decompose bullets verified by independent recomputation at
    p=2, n=5, d=1 on random tables (delta = 0.2)."""
    t0 = time.time()
    cfg = DecompositionConfig(
        degree=1, delta=0.2, eta=lambda c: 0.55 / (c + 1), max_factor_size=8, max_iterations=40
    )
    for trial in range(instances):
        f = fixtures.random_function(2, 5, 2, seed=seed + trial)
        res = strong_decompose(f, cfg)
        if not res.certified:
            return _result("decomposition_contract", False, f"trial {trial} not certified", t0)
        err = _check_strong_contract(f, res, 1)
        if err:
            return _result("decomposition_contract", False, f"trial {trial}: {err}", t0)
    return _result(
        "decomposition_contract", True, f"{instances} tables, all six bullets verified", t0
    )


def _certified_super_instances(count: int, deep_cells: int, zeta: float, eta: float, seeds):
    """Certified super-decompositions with a proper refinement, as
    (f, result) pairs."""
    out = []
    for seed in seeds:
        if len(out) >= count:
            break
        f = fixtures.layered_table(2, 5, seed, deep_cells=deep_cells, quarter=True)
        cfg = DecompositionConfig(
            degree=1, delta=0.25, eta=eta, zeta=zeta,
            max_factor_size=8, max_iterations=30,
        )
        res = super_decompose(f, cfg)
        if res.certified and res.factor_fine.complexity > res.factor_coarse.complexity:
            out.append((f, res))
    return out


def subcell_selection(seed: int = 3) -> CriterionResult:
    """select_subcell acceptance frequency >= 0.5 - 3 stderr over 200 seeds
    on certified super-decompositions."""
    t0 = time.time()
    zeta = 0.3
    pairs = _certified_super_instances(5, deep_cells=3, zeta=zeta, eta=0.08, seeds=range(40))
    if len(pairs) < 5:
        return _result("subcell_selection", False, "could not build 5 certified instances", t0)
    accepted = trials = 0
    for f, res in pairs:
        for s_seed in range(40):
            trials += 1
            try:
                select_subcell(f, res, 0.25, zeta, seed=seed + 1000 * s_seed, max_attempts=1)
                accepted += 1
            except SelectionError:
                pass
    rate = accepted / trials
    floor = 0.5 - 3 * math.sqrt(0.25 / trials)
    passed = rate >= floor
    return _result(
        "subcell_selection", passed,
        f"acceptance {accepted}/{trials} = {rate:.3f} >= {floor:.3f}", t0,
    )


def cleanup_bound(seed: int = 17, instances: int = 50) -> CriterionResult:
    """distance(f, cleanup) <= (2R+1+beta) zeta exactly on accepted instances."""
    t0 = time.time()
    zeta = 0.15
    done = 0
    for fixture_seed in range(200):
        if done >= instances:
            break
        f = fixtures.layered_table(2, 5, fixture_seed, deep_cells=1, quarter=True)
        cfg = DecompositionConfig(
            degree=1, delta=0.25, eta=0.04, zeta=zeta, max_factor_size=8, max_iterations=30
        )
        res = super_decompose(f, cfg)
        if not (res.certified and res.factor_fine.complexity > res.factor_coarse.complexity):
            continue
        try:
            s = select_subcell(f, res, 0.25, zeta, seed=seed + fixture_seed)
        except SelectionError:
            continue
        cleaned = cleanup(f, res.factor_coarse, res.factor_fine, s, zeta)
        c, total = disagreement_count(f, cleaned)
        beta = (2 ** res.factor_coarse.complexity) * res.certificates.bias_coarse.max_bias
        bound = Fraction(2 * f.range_size + 1) * Fraction(zeta) + Fraction(beta) * Fraction(zeta)
        if Fraction(c, total) > bound:
            return _result(
                "cleanup_bound", False,
                f"seed {fixture_seed}: distance {c}/{total} > bound {float(bound)}", t0,
            )
        done += 1
    passed = done >= instances
    return _result("cleanup_bound", passed, f"{done} accepted instances, zero violations", t0)


def tester_one_sidedness(seed: int = 41, tables: int = 50, trials: int = 1000) -> CriterionResult:
    """Degree-<=1 tables over F_2^5 are never rejected by the subspace tester
    against the derivative family."""
    t0 = time.time()
    family = fixtures.derivative_collection(2)
    for i in range(tables):
        f = fixtures.degree_d_table(2, 5, 1, seed=seed + i)
        rep = affine_subspace_test(f, family, trials=trials, seed=seed + 7 * i)
        if rep.rejections != 0 or rep.inconclusive_trials != 0:
            return _result(
                "tester_one_sidedness", False,
                f"table {i} rejected {rep.rejections} times", t0,
            )
    return _result(
        "tester_one_sidedness", True,
        f"{tables} free tables x {trials} trials, zero rejections", t0,
    )


def _exact_trial_rejection_probability(f, family, ell: int) -> Fraction:
    """Probability over all sample tuples that the restriction's span
    contains an occurrence of some family member, by full enumeration."""
    from .field import restrict_to_affine_span
    from .forms import grid_matches, grid_point_indices

    params = f.params
    sub = FieldParams(params.p, ell - 1)
    grids = [
        (ic, grid_point_indices(ic.constraint, sub)) for ic in family.members
    ]
    hits = 0
    total = params.size**ell
    for flat in range(total):
        rem = flat
        idxs = []
        for _ in range(ell):
            rem, i = divmod(rem, params.size)
            idxs.append(i)
        pts = [index_to_vec(i, params) for i in idxs]
        g = restrict_to_affine_span(f, pts)
        for ic, grid in grids:
            if grid_matches(g.values, grid, ic.sigma).any():
                hits += 1
                break
    return Fraction(hits, total)


def tester_soundness_consistency(seed: int = 59) -> CriterionResult:
    """Empirical rejection rate within 3 binomial stderr of the exact
    per-trial probability for >= 95% of seeds, on far functions over F_2^3."""
    t0 = time.time()
    family = fixtures.derivative_collection(2)
    funcs = []
    i = 0
    while len(funcs) < 20:
        f = fixtures.random_function(2, 3, 2, seed=seed + i)
        i += 1
        if distance_to_enumerable_property(f, max_degree=1) >= 0.2:
            funcs.append(f)
    trials = 300
    ok = total = 0
    for fi, f in enumerate(funcs):
        p_exact = float(_exact_trial_rejection_probability(f, family, 3))
        sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
        for run in range(20):
            rep = affine_subspace_test(f, family, ell_test=3, trials=trials, seed=1000 * fi + run)
            total += 1
            if abs(rep.empirical_rejection_rate - p_exact) <= 3 * sigma:
                ok += 1
    rate = ok / total
    passed = rate >= 0.95
    return _result(
        "tester_soundness_consistency", passed,
        f"{ok}/{total} seed runs within 3 stderr ({rate:.3f} >= 0.95)", t0,
    )


def gowers_ladder_and_monte_carlo(seed: int = 71) -> CriterionResult:
    """U^1 <= U^2 <= U^3 exactly on 50 random tables; MC within 4 stderr of
    exact for >= 95% of 100 runs."""
    t0 = time.time()
    for i in range(50):
        f = fixtures.random_real_table(2, 4, seed=seed + i, lo=0.0, hi=1.0)
        u1 = gowers_norm(f, 1).value
        u2 = gowers_norm(f, 2).value
        u3 = gowers_norm(f, 3).value
        if not (u1 <= u2 + 1e-9 and u2 <= u3 + 1e-9):
            return _result(
                "gowers_ladder_and_monte_carlo", False,
                f"ladder violated at table {i}: {u1}, {u2}, {u3}", t0,
            )
    f = fixtures.random_real_table(2, 4, seed=seed, lo=0.0, hi=1.0)
    exact = gowers_norm(f, 2).value
    ok = 0
    for run in range(100):
        mc = gowers_norm(f, 2, mode="monte_carlo", samples=20000, seed=run)
        if abs(mc.value - exact) <= 4 * mc.stderr:
            ok += 1
    passed = ok >= 95
    return _result(
        "gowers_ladder_and_monte_carlo", passed,
        f"ladder exact on 50 tables; MC within 4 stderr in {ok}/100 runs", t0,
    )


CRITERIA = (
    ("1", counting_lemma),
    ("2", pattern_probability_exactness),
    ("3", cell_size_band),
    ("4", dimension_invariances),
    ("5", conciseness_equivalence),
    ("6", decomposition_contract),
    ("7", subcell_selection),
    ("8", cleanup_bound),
    ("9", tester_one_sidedness),
    ("10", tester_soundness_consistency),
    ("11", gowers_ladder_and_monte_carlo),
)

# pinned tolerances and budgets, embedded verbatim in experiment reports
TOLERANCES = {
    "counting_lemma": {"instances": 200, "slack": 1e-9, "runtime_s": 60},
    "pattern_probability_exactness": {"consistent": 50, "inconsistent": 50,
                                      "comparison": "exact rational", "runtime_s": 30},
    "cell_size_band": {"instances": 20, "comparison": "exact rational vs exact bias"},
    "dimension_invariances": {"view_pairs": 100, "juxtapositions": 50, "failures": 0},
    "conciseness_equivalence": {"constraints": 10, "functions": 16, "mismatches": 0},
    "decomposition_contract": {"tables": 20, "pointwise": 1e-9, "ranges": 1e-9,
                               "delta": 0.2},
    "subcell_selection": {"seeds": 200, "floor": "0.5 - 3*binomial stderr"},
    "cleanup_bound": {"instances": 50, "zeta": 0.15, "comparison": "exact rational"},
    "tester_one_sidedness": {"tables": 50, "trials": 1000, "rejections": 0},
    "tester_soundness_consistency": {"functions": 20, "min_distance": 0.2,
                                     "band": "3 binomial stderr", "seed_fraction": 0.95},
    "gowers_ladder_and_monte_carlo": {"tables": 50, "ladder_slack": 1e-9,
                                      "mc_band": "4 stderr", "mc_fraction": 0.95},
}


def run_all() -> list[CriterionResult]:
    return [fn() for _, fn in CRITERIA]
