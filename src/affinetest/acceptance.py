"""The acceptance suite: every headline property of the library checked
against independent oracles at pinned tolerances and seeds.

Each criterion is a check returning (passed, detail); `_criterion` runs it
with its TOLERANCES entry, which holds every number it runs with, and times
it.  The registry at the bottom drives both `affinetest experiment` and the
pytest acceptance module.  Seeds are fixed in each criterion's body.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fixtures, gflinalg
from .decompose import (
    DecompositionConfig, SelectionError, cleanup, select_subcell, strong_decompose,
    super_decompose,
)
from .factor import bias_certificate, cell_histogram, conditional_expectation, pattern_count
from .field import (
    FieldParams, FunctionTable, canonical_index, disagreement_count, index_to_vec,
    restrict_to_affine_span,
)
from .forms import (
    AffineConstraint, CellImage, InducedConstraint, LinearForm, cs_complexity, change_of_view,
    consistency_check, dimension_d, eval_form, make_concise, mixed_dimension,
)
from .gowers import gowers_norm, system_product_mean
from .tester import (
    affine_subspace_test, distance_to_enumerable_property, find_induced_occurrence,
)

# the numbers each criterion runs with, embedded verbatim in experiment reports
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


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _criterion(check):
    """`check(tolerances) -> (passed, detail)` as a function of no arguments
    returning the CriterionResult named after it, run with its TOLERANCES
    entry (read at each call) and timed."""
    @functools.wraps(check)
    def run() -> CriterionResult:
        t0 = time.time()
        passed, detail = check(TOLERANCES[check.__name__])
        return CriterionResult(check.__name__, passed, detail, time.time() - t0)
    return run


def _random_system(rng):
    """(p, n, forms, s): 2 to 4 nonzero forms in 2 to 4 variables over F_2 or
    F_3 with finite Cauchy-Schwarz complexity s, and n in 1..4."""
    while True:
        p = int(rng.choice((2, 3)))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        ell = int(rng.integers(2, 5))
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


def _random_constraint(rng, p: int, ell: int, m: int) -> AffineConstraint:
    """m normal-form forms in ell variables: X_1, then X_1 plus random
    multiples of the others (drawn for every form, the first included)."""
    rows = [[1] + [int(v) for v in rng.integers(0, p, size=ell - 1)] for _ in range(m)]
    rows[0] = [1] + [0] * (ell - 1)
    return AffineConstraint.from_rows(p, rows)


@_criterion
def counting_lemma(tol) -> tuple[bool, str]:
    """|E prod f_i(L_i)| <= min_i ||f_i||_{U^{s+1}} + slack on random systems."""
    rng = np.random.default_rng(11)
    worst = -1.0
    for trial in range(tol["instances"]):
        p, n, forms, s = _random_system(rng)
        tables = [fixtures.random_real_table(p, n, seed=1000 + trial * 7 + i)
                  for i in range(len(forms))]
        lhs = abs(system_product_mean(tables, forms))
        rhs = min(gowers_norm(t, s + 1).value for t in tables)
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > tol["slack"]:
            return False, f"violated at trial {trial}: lhs={lhs} rhs={rhs}"
    slack = np.format_float_scientific(tol["slack"], trim="-", exp_digits=1)
    return True, f"{tol['instances']} instances, worst lhs-rhs = {worst:.3e} <= {slack}"


@_criterion
def pattern_probability_exactness(tol) -> tuple[bool, str]:
    """Bruteforce pattern counts equal p^-s exactly on consistent image
    tuples and 0 on inconsistent ones, for independent linear factors over
    F_2^4 and F_3^3 with the derivative constraint."""
    seed = 5
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
            # cell j holds digits jc .. jc + c - 1 of flat in radix p
            digits = index_to_vec(int(flat), FieldParams(p, c * constraint.size))
            img = CellImage(tuple(digits[j * c : (j + 1) * c] for j in range(constraint.size)))
            cons = consistency_check(constraint, degrees, img)
            if (seen_c if cons else seen_i) >= 30:
                continue
            count, total = pattern_count(factor, constraint, img)
            frac = Fraction(count, total)
            if cons:
                if frac != Fraction(1, p**s):
                    return False, f"consistent tuple gave {frac}, expected 1/{p}^{s}"
                seen_c += 1
            else:
                if frac != 0:
                    return False, f"inconsistent tuple gave {frac} != 0"
                seen_i += 1
            if seen_c >= 30 and seen_i >= 30:
                break
        checked_cons += seen_c
        checked_incons += seen_i
    passed = checked_cons >= tol["consistent"] and checked_incons >= tol["inconsistent"]
    return passed, f"{checked_cons} consistent and {checked_incons} inconsistent tuples exact"


@_criterion
def cell_size_band(tol) -> tuple[bool, str]:
    """|count(b)/p^n - p^-C| <= exhaustive max_bias for random degree-2
    factors at p=2, exact arithmetic on the left."""
    seed = 23
    rng = np.random.default_rng(seed)
    checked = 0
    for trial in range(tol["instances"]):
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
                return False, (
                    f"trial {trial} cell {cell}: |{count}/{total} - 2^-{c}| = {dev} > {cert.max_bias}"
                )
        checked += 1
    return True, f"{checked} factors, all cells inside the band"


@_criterion
def dimension_invariances(tol) -> tuple[bool, str]:
    """change_of_view preserves dimension_d on random view pairs; juxtaposed
    systems have dimension exactly 2q-1."""
    rng = np.random.default_rng(7)
    for trial in range(tol["view_pairs"]):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a = _random_constraint(rng, p, ell, m)
        mat = gflinalg.random_invertible(rng, ell, p)
        viewed = change_of_view(a.forms, mat)
        for d in (1, 2, 3):
            if dimension_d(a.forms, d) != dimension_d(viewed, d):
                return False, f"view changed d={d} dimension at trial {trial}"
    for trial in range(tol["juxtapositions"]):
        p = int(rng.choice([2, 3, 5]))
        ell = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        a = _random_constraint(rng, p, ell, m)
        q = dimension_d(a.forms, d)
        pad = (0,) * (ell - 1)
        juxt = [LinearForm(p, f.coeffs + pad) for f in a.forms]
        juxt += [LinearForm(p, f.coeffs[:1] + pad + f.coeffs[1:]) for f in a.forms]
        if dimension_d(juxt, d) != 2 * q - 1:
            return False, f"juxtaposition gave {dimension_d(juxt, d)} != 2*{q}-1 at trial {trial}"
    return True, (
        f"{tol['view_pairs']} view pairs + {tol['juxtapositions']} juxtapositions exact"
    )


@_criterion
def conciseness_equivalence(tol) -> tuple[bool, str]:
    """make_concise preserves freeness for all 16 functions F_2^2 -> [2]."""
    rng = np.random.default_rng(13)
    params = FieldParams(2, 2)
    # every table, the label at index 0 varying fastest
    tables = [
        FunctionTable(params, 2, np.array(labels[::-1], dtype=np.int64))
        for labels in itertools.product((1, 2), repeat=params.size)
    ]
    for _ in range(tol["constraints"]):
        ell = int(rng.integers(3, 6))
        m = int(rng.integers(2, ell))  # m < ell: genuinely non-concise
        a = _random_constraint(rng, 2, ell, m)
        sigma = tuple(int(v) for v in rng.integers(1, 3, size=m))
        ic = InducedConstraint(a, sigma)
        conc = make_concise(ic)
        if conc.constraint.ell > conc.constraint.size:
            return False, "output not concise"
        for f in tables:
            before = find_induced_occurrence(f, ic).witness is None
            after = find_induced_occurrence(f, conc).witness is None
            if before != after:
                rows = [list(form.coeffs) for form in a.forms]
                return False, f"freeness mismatch on table {f.values.tolist()} for constraint {rows}"
    return True, (
        f"{tol['constraints']} non-concise constraints, {len(tables)} functions each, "
        "freeness identical"
    )


def _check_strong_contract(f, res, d: int, tol) -> str | None:
    """The first strong-decomposition bullet res breaks, if any: identities
    within tol["pointwise"], ranges and certified bounds within tol["ranges"]."""
    fs = f.slices()
    exact, eps = tol["pointwise"], tol["ranges"]
    for i in range(f.range_size):
        total = res.f1[i].values + res.f2[i].values + res.f3[i].values
        if np.max(np.abs(total - fs[i].values)) > exact:
            return "f1+f2+f3 != f"
        ce = conditional_expectation(fs[i], res.factor_coarse)
        if np.max(np.abs(res.f1[i].values - ce.values)) > exact:
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


@_criterion
def decomposition_contract(tol) -> tuple[bool, str]:
    """strong_decompose bullets verified by independent recomputation at
    p=2, n=5, d=1 on random tables."""
    cfg = DecompositionConfig(
        degree=1, delta=tol["delta"], eta=lambda c: 0.55 / (c + 1), max_factor_size=8,
        max_iterations=40,
    )
    for trial in range(tol["tables"]):
        f = fixtures.random_function(2, 5, 2, seed=31 + trial)
        res = strong_decompose(f, cfg)
        if not res.certified:
            return False, f"trial {trial} not certified"
        err = _check_strong_contract(f, res, 1, tol)
        if err:
            return False, f"trial {trial}: {err}"
    return True, f"{tol['tables']} tables, all six bullets verified"


def _certified_super_instances(deep_cells: int, zeta: float, eta: float, fixture_seeds: int):
    """Certified super-decompositions of the layered tables over F_2^5 of
    fixture seeds 0, 1, ... whose fine factor properly refines the coarse
    one, as (fixture seed, f, result), each decomposed only when drawn."""
    cfg = DecompositionConfig(
        degree=1, delta=0.25, eta=eta, zeta=zeta, max_factor_size=8, max_iterations=30,
    )
    for seed in range(fixture_seeds):
        f = fixtures.layered_table(2, 5, seed, deep_cells=deep_cells, quarter=True)
        res = super_decompose(f, cfg)
        if res.certified and res.factor_fine.complexity > res.factor_coarse.complexity:
            yield seed, f, res


@_criterion
def subcell_selection(tol) -> tuple[bool, str]:
    """select_subcell acceptance frequency >= 0.5 - 3 stderr over the
    selection seeds, split evenly over 5 certified super-decompositions."""
    zeta, instances = 0.3, 5
    found = list(itertools.islice(_certified_super_instances(3, zeta, 0.08, 40), instances))
    if len(found) < instances:
        return False, f"could not build {instances} certified instances"
    accepted = trials = 0
    for _, f, res in found:
        for s_seed in range(tol["seeds"] // instances):
            trials += 1
            try:
                select_subcell(f, res, 0.25, zeta, seed=3 + 1000 * s_seed, max_attempts=1)
                accepted += 1
            except SelectionError:
                pass
    rate = accepted / trials
    floor = 0.5 - 3 * math.sqrt(0.25 / trials)
    return rate >= floor, f"acceptance {accepted}/{trials} = {rate:.3f} >= {floor:.3f}"


@_criterion
def cleanup_bound(tol) -> tuple[bool, str]:
    """distance(f, cleanup) <= (2R+1+beta) zeta exactly on accepted instances."""
    zeta = tol["zeta"]
    done = 0
    for fixture_seed, f, res in _certified_super_instances(1, zeta, 0.04, 200):
        try:
            s = select_subcell(f, res, 0.25, zeta, seed=17 + fixture_seed)
        except SelectionError:
            continue
        cleaned = cleanup(f, res.factor_coarse, res.factor_fine, s, zeta)
        c, total = disagreement_count(f, cleaned)
        beta = (2 ** res.factor_coarse.complexity) * res.certificates.bias_coarse.max_bias
        bound = Fraction(2 * f.range_size + 1) * Fraction(zeta) + Fraction(beta) * Fraction(zeta)
        if Fraction(c, total) > bound:
            return False, f"seed {fixture_seed}: distance {c}/{total} > bound {float(bound)}"
        done += 1
        if done >= tol["instances"]:
            break
    return done >= tol["instances"], f"{done} accepted instances, zero violations"


@_criterion
def tester_one_sidedness(tol) -> tuple[bool, str]:
    """Degree-<=1 tables over F_2^5 are never rejected by the subspace tester
    against the derivative family."""
    seed = 41
    family = fixtures.derivative_collection(2)
    for i in range(tol["tables"]):
        f = fixtures.degree_d_table(2, 5, 1, seed=seed + i)
        rep = affine_subspace_test(f, family, trials=tol["trials"], seed=seed + 7 * i)
        if rep.rejections != 0 or rep.inconclusive_trials != 0:
            return False, f"table {i} rejected {rep.rejections} times"
    return True, f"{tol['tables']} free tables x {tol['trials']} trials, zero rejections"


def _exact_trial_rejection_probability(f, family, ell: int) -> Fraction:
    """Probability over all sample tuples that the restriction's span
    contains an occurrence of some family member, by full enumeration.  Each
    distinct constraint's form values are indexed tuple by tuple with
    eval_form, so this shares no grid code with the tester it checks."""
    params = f.params
    sub = FieldParams(params.p, ell - 1)
    sub_points = [index_to_vec(i, sub) for i in range(sub.size)]
    grids: dict[AffineConstraint, np.ndarray] = {}
    for ic in family.members:
        a = ic.constraint
        if a not in grids:
            grids[a] = np.array([
                [canonical_index(eval_form(form, tup), sub) for form in a.forms]
                for tup in itertools.product(sub_points, repeat=a.ell)
            ], dtype=np.int64)
    hits = 0
    for idxs in itertools.product(range(params.size), repeat=ell):
        g = restrict_to_affine_span(f, [index_to_vec(i, params) for i in idxs])
        hits += any((g.values[grids[ic.constraint]] == ic.sigma).all(axis=1).any()
                    for ic in family.members)
    return Fraction(hits, params.size**ell)


@_criterion
def tester_soundness_consistency(tol) -> tuple[bool, str]:
    """Empirical rejection rate within 3 binomial stderr of the exact
    per-trial probability for at least seed_fraction of the seed runs, on
    functions over F_2^3 at least min_distance from degree <= 1."""
    family = fixtures.derivative_collection(2)
    tables = (fixtures.random_function(2, 3, 2, seed=59 + i) for i in itertools.count())
    far = (f for f in tables
           if distance_to_enumerable_property(f, max_degree=1) >= tol["min_distance"])
    funcs = list(itertools.islice(far, tol["functions"]))
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
    return rate >= tol["seed_fraction"], (
        f"{ok}/{total} seed runs within 3 stderr ({rate:.3f} >= {tol['seed_fraction']})"
    )


@_criterion
def gowers_ladder_and_monte_carlo(tol) -> tuple[bool, str]:
    """U^1 <= U^2 <= U^3 up to ladder_slack on random tables; MC within 4
    stderr of exact for at least mc_fraction of 100 runs."""
    seed, slack, runs = 71, tol["ladder_slack"], 100
    for i in range(tol["tables"]):
        f = fixtures.random_real_table(2, 4, seed=seed + i, lo=0.0, hi=1.0)
        u1 = gowers_norm(f, 1).value
        u2 = gowers_norm(f, 2).value
        u3 = gowers_norm(f, 3).value
        if not (u1 <= u2 + slack and u2 <= u3 + slack):
            return False, f"ladder violated at table {i}: {u1}, {u2}, {u3}"
    f = fixtures.random_real_table(2, 4, seed=seed, lo=0.0, hi=1.0)
    exact = gowers_norm(f, 2).value
    ok = 0
    for run in range(runs):
        mc = gowers_norm(f, 2, mode="monte_carlo", samples=20000, seed=run)
        if abs(mc.value - exact) <= 4 * mc.stderr:
            ok += 1
    return ok / runs >= tol["mc_fraction"], (
        f"ladder exact on {tol['tables']} tables; MC within 4 stderr in {ok}/{runs} runs"
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
