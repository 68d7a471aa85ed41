"""Induced-constraint detection, freeness oracles, distance to enumerable
properties, big-picture machinery, and the one-sided affine-subspace tester.

The tester samples points, restricts the function to their affine span, and
searches the restriction exhaustively.  Every rejection carries a witness
lifted back to domain points and re-verified against f, so a function that is
actually free can never be rejected.  Wherever a budget can bind, results are
tri-state (True / False / None for inconclusive) and accept-side conclusions
are only drawn from definitive results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .field import (
    BudgetError,
    FieldParams,
    FunctionTable,
    disagreement_count,
    index_to_vec,
    restrict_to_affine_span,
    vec_add,
    vec_scale,
)
from .factor import PolynomialFactor, cell_index_array, cell_of_index
from .forms import (
    AffineConstraint,
    ConstraintCollection,
    InducedConstraint,
    eval_form,
    grid_matches,
    grid_point_indices,
    make_concise_collection,
    scan_grid,
    tensor_row_space,
)
from . import gflinalg
from .poly import Polynomial, monomials_up_to_degree

DEFAULT_TUPLE_BUDGET = 1 << 24
DEFAULT_NODE_BUDGET = 1 << 20


@dataclass(frozen=True)
class Witness:
    """Points x_1, ..., x_l at which f induces (A, sigma); construct through
    make_witness so the evaluation is re-verified."""

    points: tuple[tuple[int, ...], ...]


def make_witness(f: FunctionTable, ic: InducedConstraint, points) -> Witness:
    pts = tuple(tuple(q) for q in points)
    for form, label in zip(ic.constraint.forms, ic.sigma):
        if f(eval_form(form, pts)) != label:
            raise ValueError("claimed witness does not evaluate to sigma")
    return Witness(pts)


@dataclass(frozen=True)
class SearchOutcome:
    """Occurrence-search result; definitive=False marks an exhausted sample
    budget rather than verified freeness."""

    witness: Witness | None
    definitive: bool


@dataclass(frozen=True)
class TestReport:
    verdict: str
    trials: int
    rejections: int
    witness: Witness | None
    seed: int
    empirical_rejection_rate: float
    stderr: float
    inconclusive_trials: int = 0

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials": self.trials,
            "rejections": self.rejections,
            "witness": [list(q) for q in self.witness.points] if self.witness else None,
            "seed": self.seed,
            "empirical_rejection_rate": self.empirical_rejection_rate,
            "stderr": self.stderr,
            "inconclusive_trials": self.inconclusive_trials,
        }


def _tuple_from_flat(flat: int, ell: int, params: FieldParams) -> tuple[tuple[int, ...], ...]:
    # grids lay x_1 on the most significant axis
    size = params.size
    idxs = []
    for _ in range(ell):
        flat, r = divmod(flat, size)
        idxs.append(r)
    idxs.reverse()
    return tuple(index_to_vec(i, params) for i in idxs)


def find_induced_occurrence(
    f: FunctionTable,
    ic: InducedConstraint,
    mode: str = "exhaustive",
    budget: int = DEFAULT_TUPLE_BUDGET,
    seed: int = 0,
) -> SearchOutcome:
    """Find points where f induces (A, sigma), or certify there are none.

    Exhaustive mode scans all tuples in lexicographic order of canonical
    indices (x_1 most significant) and is definitive.  Randomized mode samples
    `budget` tuples and is definitive only on success or when sigma uses a
    label f never attains.
    """
    params = f.params
    a = ic.constraint
    if any(s > f.range_size for s in ic.sigma):
        raise ValueError("sigma labels exceed the table's range")
    attained = set(int(v) for v in np.unique(f.values))
    if any(s not in attained for s in ic.sigma):
        return SearchOutcome(None, True)
    ell = a.ell
    total = params.size**ell
    if mode == "exhaustive":
        if total > budget:
            raise BudgetError(f"tuple grid {total} exceeds budget {budget}")
        flat = scan_grid(f.values, a, params, ic.sigma, first=True)
        if flat is None:
            return SearchOutcome(None, True)
        return SearchOutcome(make_witness(f, ic, _tuple_from_flat(flat, ell, params)), True)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    for _ in range(budget):
        pts = tuple(index_to_vec(int(i), params) for i in rng.integers(0, params.size, size=ell))
        if all(f(eval_form(form, pts)) == lab for form, lab in zip(a.forms, ic.sigma)):
            return SearchOutcome(make_witness(f, ic, pts), True)
    return SearchOutcome(None, False)


def violation_count(
    f: FunctionTable, ic: InducedConstraint, budget: int = DEFAULT_TUPLE_BUDGET
) -> tuple[int, int]:
    """(#tuples inducing (A, sigma), #tuples), exact by enumeration."""
    params = f.params
    a = ic.constraint
    total = params.size**a.ell
    if total > budget:
        raise BudgetError(f"tuple grid {total} exceeds budget {budget}")
    return scan_grid(f.values, a, params, ic.sigma), total


def violation_density(
    f: FunctionTable, ic: InducedConstraint, budget: int = DEFAULT_TUPLE_BUDGET
) -> float:
    c, t = violation_count(f, ic, budget)
    return c / t


def lift_restriction_witness(
    sample_points: Sequence, witness_points: Sequence, p: int
) -> tuple[tuple[int, ...], ...]:
    """Map a witness found in a restriction back to domain points.

    With g(c) = f(x_1 + sum_j c_j x_{j+1}) and restriction witness w_1, ...,
    w_l, the points y_1 = x_1 + L(w_1), y_k = L(w_k) for k >= 2 (L the linear
    part of the span map) satisfy f(a_j(y)) = g(a_j(w)) for every form,
    because every form carries coefficient 1 on X_1.
    """
    pts = [tuple(q) for q in sample_points]
    n = len(pts[0])
    lifted = []
    for widx, w in enumerate(witness_points):
        acc = tuple(0 for _ in range(n))
        for j, c in enumerate(w):
            acc = vec_add(acc, vec_scale(c, pts[j + 1], p), p)
        if widx == 0:
            acc = vec_add(acc, pts[0], p)
        lifted.append(acc)
    return tuple(lifted)


def affine_subspace_test(
    f: FunctionTable,
    collection: ConstraintCollection,
    ell_test: int | None = None,
    trials: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> TestReport:
    """One-sided subspace tester: restrict f to random affine spans and search
    the restrictions exhaustively for induced constraints.

    Rejections always carry a Witness verified against f itself.  Restriction
    checks whose tuple grids exceed the budget make the trial inconclusive;
    such trials are counted and reported, never treated as accepts silently.
    """
    params = f.params
    if not collection.concise:
        collection = make_concise_collection(collection)
    if len(collection) == 0:
        return TestReport("accept", trials, 0, None, seed, 0.0, 0.0, 0)
    ell = ell_test if ell_test is not None else collection.max_ell()
    if ell < collection.max_ell():
        raise ValueError("ell_test below the collection's variable count")
    sub = FieldParams(params.p, ell - 1)
    # members sharing a constraint share its grid; None marks an over-budget grid
    grids: dict[AffineConstraint, list[np.ndarray] | None] = {}
    checks = []
    for ic in collection.members:
        a = ic.constraint
        if a not in grids:
            grids[a] = grid_point_indices(a, sub) if sub.size**a.ell <= budget else None
        checks.append((ic, grids[a]))
    rejections = 0
    inconclusive = 0
    first_witness: Witness | None = None
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, t)))
        pts = [index_to_vec(int(i), params) for i in rng.integers(0, params.size, size=ell)]
        g = restrict_to_affine_span(f, pts)
        rejected = False
        trial_inconclusive = False
        for ic, grid in checks:
            if grid is None:
                trial_inconclusive = True
                continue
            ok = grid_matches(g.values, grid, ic.sigma)
            flat = int(ok.argmax())
            if not ok[flat]:
                continue
            wpoints = _tuple_from_flat(flat, ic.constraint.ell, sub)
            lifted = lift_restriction_witness(pts, wpoints, params.p)
            witness = make_witness(f, ic, lifted)  # raises if the lift is unsound
            if first_witness is None:
                first_witness = witness
            rejected = True
            break
        if rejected:
            rejections += 1
        elif trial_inconclusive:
            inconclusive += 1
    rate = rejections / trials if trials else 0.0
    stderr = math.sqrt(rate * (1 - rate) / trials) if trials else 0.0
    verdict = "reject" if rejections else "accept"
    return TestReport(verdict, trials, rejections, first_witness, seed, rate, stderr, inconclusive)


def enumerate_degree_tables(params: FieldParams, max_degree: int, budget: int = 1 << 20):
    """Yield value arrays (0-based field values) of every polynomial of degree
    at most max_degree, in canonical coefficient order."""
    monos = monomials_up_to_degree(params.p, params.n, max_degree)
    k = len(monos)
    total = params.p**k
    if total > budget:
        raise BudgetError(f"table family p^{k} = {total} exceeds budget {budget}")
    mono_vals = np.stack(
        [Polynomial.from_monomials(params.p, params.n, {e: 1}).values() for e in monos]
    )
    for pid in range(total):
        coeffs = []
        rem = pid
        for _ in range(k):
            rem, c = divmod(rem, params.p)
            coeffs.append(c)
        yield np.array(coeffs, dtype=np.int64) @ mono_vals % params.p


def distance_to_enumerable_property(
    f: FunctionTable,
    max_degree: int | None = None,
    tables: Sequence[FunctionTable] | None = None,
    budget: int = 1 << 20,
) -> float:
    """Exact min distance to degree-<=d tables or to an explicit table list.

    The polynomial property requires R = p with the fixed bijection
    label i <-> field value i-1.
    """
    if (max_degree is None) == (tables is None):
        raise ValueError("specify exactly one of max_degree or tables")
    if tables is not None:
        if not tables:
            raise ValueError("empty property")
        best = min(Fraction(*disagreement_count(f, g)) for g in tables)
        return float(best)
    if f.range_size != f.params.p:
        raise ValueError("polynomial property needs R = p (labels are field values + 1)")
    target = f.values - 1
    best = f.params.size + 1
    for vals in enumerate_degree_tables(f.params, max_degree, budget):
        best = min(best, int(np.count_nonzero(vals != target)))
        if best == 0:
            break
    return best / f.params.size


@dataclass(frozen=True)
class BigPicture:
    """Map from each nonempty cell of a factor to the set of labels attained."""

    factor: PolynomialFactor
    cells: Mapping[tuple[int, ...], frozenset[int]]


def big_picture(f: FunctionTable, factor: PolynomialFactor) -> BigPicture:
    params = f.params
    idx = cell_index_array(factor, params)
    r = f.range_size
    pairs = np.unique(idx * (r + 1) + f.values)
    cells: dict[tuple[int, ...], set[int]] = {}
    for pair in pairs:
        cell_flat, label = divmod(int(pair), r + 1)
        cells.setdefault(cell_of_index(cell_flat, factor), set()).add(label)
    return BigPicture(factor, {c: frozenset(s) for c, s in cells.items()})


@dataclass(frozen=True)
class PartialInduction:
    """Tri-state result of a partial-induction search."""

    induced: bool | None
    cells: tuple[tuple[int, ...], ...] | None


def partially_induces(
    g: BigPicture | Mapping,
    degrees: Sequence[int],
    ic: InducedConstraint,
    budget: int = DEFAULT_NODE_BUDGET,
) -> PartialInduction:
    """Search for consistent cells b_1, ..., b_m with sigma_j in g(b_j).

    Depth-first over forms with incremental row-space projection pruning: a
    prefix (b_1, ..., b_k) survives only if each of its rows extends to a
    member of the corresponding tensor row space.  Returns inconclusive when
    the node budget is exhausted.
    """
    cells_map = g.cells if isinstance(g, BigPicture) else g
    a = ic.constraint
    m = a.size
    p = a.p
    candidates = [
        [c for c, labels in cells_map.items() if ic.sigma[j] in labels] for j in range(m)
    ]
    if any(not cand for cand in candidates):
        return PartialInduction(False, None)
    bases = [tensor_row_space(a, d) for d in degrees]
    visited = 0
    chosen: list[tuple[int, ...]] = []

    def prefix_ok(k: int) -> bool:
        for i, basis in enumerate(bases):
            row = np.array([chosen[j][i] for j in range(k)], dtype=np.int64)
            trunc = basis[:, :k]
            if not gflinalg.in_rowspan(trunc, row, p):
                return False
        return True

    def rec(j: int) -> bool | None:
        nonlocal visited
        if j == m:
            return True
        for cand in candidates[j]:
            visited += 1
            if visited > budget:
                return None
            chosen.append(cand)
            if prefix_ok(j + 1):
                sub = rec(j + 1)
                if sub:
                    return True
                if sub is None:
                    chosen.pop()
                    return None
            chosen.pop()
        return False

    out = rec(0)
    if out is None:
        return PartialInduction(None, None)
    if not out:
        return PartialInduction(False, None)
    return PartialInduction(True, tuple(chosen))


def min_partially_induced_size(
    g: BigPicture | Mapping,
    degrees: Sequence[int],
    collection: ConstraintCollection,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int | None, bool]:
    """Min constraint size over members partially induced by g.

    Returns (size or None, definitive).  definitive=False flags that some
    smaller member came back inconclusive, so the reported value is only an
    upper bound (or the None is not trustworthy).
    """
    members = sorted(collection.members, key=lambda ic: ic.constraint.size)
    uncertain = False
    for ic in members:
        res = partially_induces(g, degrees, ic, budget)
        if res.induced:
            return ic.constraint.size, not uncertain
        if res.induced is None:
            uncertain = True
    return None, not uncertain
