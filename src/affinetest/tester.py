"""Induced-constraint detection, freeness oracles, distance to enumerable
properties, big-picture machinery, and the one-sided affine-subspace tester.

The tester samples points, restricts the function to their affine span, and
searches the restriction exhaustively.  Trial t's points are exactly
default_rng(SeedSequence((seed, t))).integers(0, p^n, l).  It runs its
trials in blocks of at most DRAW_SLICE trials and about forms.GRID_CHUNK
tuples: one draw call computes a block's points by array arithmetic that
emulates numpy's generators, one span-index gather restricts f for every
trial of the block, and for each distinct constraint every form's labels
are gathered once per block through its grid_point_indices view, over only
the grid axes the form reads, and folded by a per-form lookup table into
the position of the first member whose sigma each tuple matches.  Every
rejected trial's witness is lifted back to domain points and re-checked
against f, all of a block's at once, so a function that is actually free
can never be rejected.
The exact distance to degree-<=d tables reads the inverse search's rows of
degree >= 2 parts: p Fourier transforms per row score every affine shift
at once, with no table per polynomial.
Wherever a budget can bind, results are tri-state (True / False / None for
inconclusive) and accept-side conclusions are only drawn from definitive
results.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .field import (
    ENUM_BUDGET,
    FieldParams,
    FunctionTable,
    affine_span_indices,
    canonical_indices,
    combination_indices,
    disagreement_count,
    fourier_means,
    index_digits,
    rng_for,
    unit_roots,
)
from .factor import PolynomialFactor, cell_index_array, cell_space
from .forms import (
    AffineConstraint,
    ConstraintCollection,
    InducedConstraint,
    check_field,
    eval_form,
    grid_point_indices,
    grid_tuples,
    make_concise_collection,
    scan_grid,
    tensor_row_space,
)
from . import forms, gflinalg, gowers

DEFAULT_NODE_BUDGET = 1 << 20
SEARCH_BLOCK = 1 << 10  # tuples drawn and checked at once by the randomized search
DRAW_SLICE = 1 << 12  # most tester trials drawn and scanned in one block

# numpy's SeedSequence (4-word pool) and PCG64 (XSL-RR 128/64) constants
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


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
        """The report's fields, with the witness as its list of points."""
        witness = [list(q) for q in self.witness.points] if self.witness else None
        return {**vars(self), "witness": witness}  # asdict would deep-copy the witness


def find_induced_occurrence(
    f: FunctionTable,
    ic: InducedConstraint,
    mode: str = "exhaustive",
    budget: int = ENUM_BUDGET,
    seed: int = 0,
) -> SearchOutcome:
    """Find points where f induces (A, sigma), or certify there are none.

    Exhaustive mode scans all tuples in lexicographic order of canonical
    indices (x_1 most significant) and is definitive.  Randomized mode samples
    `budget` tuples from one seeded stream, SEARCH_BLOCK at a time, returns
    the first match in draw order, and is definitive only on success or when
    sigma uses a label f never attains.
    """
    params = f.params
    a = ic.constraint
    check_field(a, params, "a table")
    if any(s > f.range_size for s in ic.sigma):
        raise ValueError("sigma labels exceed the table's range")
    attained = set(int(v) for v in np.unique(f.values))
    if any(s not in attained for s in ic.sigma):
        return SearchOutcome(None, True)
    ell = a.ell
    if mode == "exhaustive":
        flat = scan_grid(f.values, a, params, ic.sigma, first=True, budget=budget)
        if flat is None:
            return SearchOutcome(None, True)
        return SearchOutcome(make_witness(f, ic, grid_tuples(flat, ell, params).tolist()), True)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    rng = rng_for(seed)
    coeffs = [form.coeffs for form in a.forms]
    for start in range(0, budget, SEARCH_BLOCK):
        # one draw per block continues the stream of one draw per tuple
        draws = rng.integers(0, params.size, size=(min(SEARCH_BLOCK, budget - start), ell))
        ok = np.all(f.values[combination_indices(draws, coeffs, params)] == ic.sigma, axis=1)
        if ok.any():
            points = index_digits(draws[ok.argmax()], params).tolist()
            return SearchOutcome(make_witness(f, ic, points), True)
    return SearchOutcome(None, False)


def violation_count(
    f: FunctionTable, ic: InducedConstraint, budget: int = ENUM_BUDGET
) -> tuple[int, int]:
    """(#tuples inducing (A, sigma), #tuples), exact by enumeration."""
    params = f.params
    a = ic.constraint
    check_field(a, params, "a table")
    return scan_grid(f.values, a, params, ic.sigma, budget=budget), params.size**a.ell


def violation_density(
    f: FunctionTable, ic: InducedConstraint, budget: int = ENUM_BUDGET
) -> float:
    c, t = violation_count(f, ic, budget)
    return c / t


def _lift(samples: np.ndarray, witnesses: np.ndarray, p: int) -> np.ndarray:
    """Lift restriction witnesses (k, m, l-1) through samples (k, l, n) to
    domain points (k, m, n); see lift_restriction_witness."""
    lifted = witnesses @ samples[:, 1:]
    lifted[:, 0] += samples[:, 0]
    return lifted % p


def lift_restriction_witness(
    sample_points: Sequence, witness_points: Sequence, p: int
) -> tuple[tuple[int, ...], ...]:
    """Map a witness found in a restriction back to domain points.

    With g(c) = f(x_1 + sum_j c_j x_{j+1}) and restriction witness w_1, ...,
    w_l, the points y_1 = x_1 + L(w_1), y_k = L(w_k) for k >= 2 (L the linear
    part of the span map) satisfy f(a_j(y)) = g(a_j(w)) for every form,
    because every form carries coefficient 1 on X_1.
    """
    pts = np.array([tuple(q) for q in sample_points], dtype=np.int64)
    w = np.array([tuple(q) for q in witness_points], dtype=np.int64)
    lifted = _lift(pts[None], w.reshape(1, len(w), len(pts) - 1), p)[0]
    return tuple(tuple(int(v) for v in q) for q in lifted)


class _GridCheck:
    """One distinct constraint of a collection over the restriction domain:
    its forms' index views over the tuple grid (None when over budget; see
    grid_point_indices) and a label automaton over the grid.

    luts[j][state * (R + 1) + label] is the state after reading form j's
    label; states number the distinct sigma prefixes read so far plus one
    dead state, and the last table yields the collection position of the
    first member whose whole sigma matched, or len(members).  Members whose
    sigma uses a label above R can never match and are left out.
    """

    def __init__(self, constraint, positions, members, sub, range_size, budget):
        self.constraint = constraint
        self.sub = sub
        self.shape = (sub.size,) * constraint.ell
        total = sub.size**constraint.ell
        self.views = grid_point_indices(constraint.forms, sub) if total <= budget else None
        live = [i for i in positions if max(members[i].sigma) <= range_size]
        self.sigmas = np.zeros((len(members), constraint.size), dtype=np.int64)
        for i in live:
            self.sigmas[i] = members[i].sigma
        self.base = range_size + 1
        self.luts = []
        states = {(): 0}
        for j in range(constraint.size if live else 0):
            last = j == constraint.size - 1
            nxt: dict[tuple[int, ...], int] = {}
            for i in live:
                key = members[i].sigma[: j + 1]
                nxt.setdefault(key, i if last else len(nxt))
            lut = np.full((len(states) + 1) * self.base, len(members) if last else len(nxt))
            for key, state in nxt.items():
                lut[states[key[:-1]] * self.base + key[-1]] = state
            self.luts.append(lut)
            states = nxt

    def first_members(self, values: np.ndarray) -> np.ndarray:
        """(trials, tuples) collection position of the first member each
        tuple of each restriction (rows of `values`) induces.  The state
        covers the whole grid, and each form's labels are gathered over only
        the axes it reads and broadcast into it."""
        state = np.empty((len(values),) + self.shape, dtype=np.int64)
        state[...] = self.luts[0][values[:, self.views[0]]]
        for view, lut in zip(self.views[1:], self.luts[1:]):
            state *= self.base
            state += values[:, view]
            state = lut[state]
        return state.reshape(len(values), -1)

    def witnesses(self, f: FunctionTable, samples, flats, positions) -> np.ndarray:
        """Domain points (k, l_a, n) of the grid tuples `flats` found in the
        restrictions of `samples` (k, l, n); raise unless f(a_j(y)) = sigma_j
        for every lifted tuple y and form a_j, with sigma that of the member
        at the matching position."""
        lifted = _lift(samples, grid_tuples(flats, self.constraint.ell, self.sub), self.sub.p)
        coeffs = [form.coeffs for form in self.constraint.forms]
        idx = combination_indices(canonical_indices(lifted, f.params), coeffs, f.params)
        if not np.array_equal(f.values[idx], self.sigmas[positions]):
            raise ValueError("claimed witness does not evaluate to sigma")
        return lifted


def _hash_constants(init: int, mult: int, count: int):
    """The xor and multiply constants of `count` successive SeedSequence
    hashes, as two uint32 arrays (count, 1); they do not depend on the data."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _M32)
    return np.array(chain[:-1], np.uint32)[:, None], np.array(chain[1:], np.uint32)[:, None]


def _hash32(words, xor, mul):
    """SeedSequence's hashmix of uint32 words under its xor and multiply
    constants."""
    words = (words ^ xor) * mul
    return words ^ words >> 16


def _mix32(x, y):
    """SeedSequence's mix of hashed uint32 words y into pool words x."""
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ r >> 16


def _seed_state(entropy: list, rows: int) -> np.ndarray:
    """(4, rows) uint64: SeedSequence(entropy).generate_state(4, uint64) for
    each row, from uint32 entropy words that are Python ints or (rows,)
    arrays.  Hashes whose inputs do not depend on each other run at once:
    the pool's initial words, the three mixed into the pool by each source
    word, and the eight words of the output state."""
    extra = entropy[4:]
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * len(extra))
    pool = np.zeros((4, rows), dtype=np.uint32)
    for i, word in enumerate(entropy[:4]):
        pool[i] = word
    pool = _hash32(pool, xor[:4], mul[:4])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix32(pool[dst], _hash32(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in extra:
        pool = _mix32(pool, _hash32(np.uint32(word), xor[k : k + 4], mul[k : k + 4]))
        k += 4
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    halves = _hash32(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
    return halves[0::2] | halves[1::2] << np.uint64(32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state * multiplier + inc mod 2^128 on (hi, lo) uint64 halves;
    the high half of lo times the multiplier's low half comes from 32-bit
    halves."""
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64)
    b0, b1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1 = lo & m32, lo >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    hi = hi * m_lo + lo * m_hi + a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    lo = lo * m_lo
    out_lo = lo + inc_lo
    return hi + inc_hi + (out_lo < lo), out_lo


def _trial_draws(seed: int, start: int, stop: int, size: int, ell: int) -> np.ndarray:
    """(stop - start, ell) int64 sample draws: row t - start is exactly
    default_rng(SeedSequence((seed, t))).integers(0, size, size=ell).

    All rows are computed at once by emulating numpy's SeedSequence, PCG64
    (O'Neill's XSL-RR 128/64) and Lemire's bounded 32-bit draw, which reads
    the low half of each 64-bit output first.  A row that the emulation does
    not cover (a word Lemire's method rejects, t >= 2^32, size >= 2^32 - 1)
    is redrawn by numpy itself.  The caller checks that seed >= 0.
    """
    seed = operator.index(seed)
    rows = max(0, stop - start)
    draws = np.zeros((rows, ell), dtype=np.int64)
    fast = max(0, min(stop, 1 << 32) - start) if size < _M32 else 0
    redo = list(range(fast, rows))
    if fast:
        seed_words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        t = np.arange(start, start + fast, dtype=np.uint32)
        with np.errstate(over="ignore"):
            w0, w1, w2, w3 = _seed_state(seed_words + [t], fast)
            one = np.uint64(1)
            inc_hi, inc_lo = w2 << one | w3 >> np.uint64(63), w3 << one | one
            # srandom: a step from state 0 gives inc, add the seed, step
            lo = inc_lo + w1
            hi, lo = _pcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
            words = np.empty((fast, (ell + 1) // 2, 2), dtype=np.uint64)
            for i in range(words.shape[1]):
                hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
                x, r = hi ^ lo, hi >> np.uint64(58)
                x = x >> r | x << (np.uint64(64) - r & np.uint64(63))
                words[:, i, 0] = x & np.uint64(_M32)
                words[:, i, 1] = x >> np.uint64(32)
            m = words.reshape(fast, -1)[:, :ell] * np.uint64(size)
        draws[:fast] = m >> np.uint64(32)
        threshold = ((1 << 32) - size) % size
        if threshold:
            rejected = (m & np.uint64(_M32) < np.uint64(threshold)).any(axis=1)
            redo = np.flatnonzero(rejected).tolist() + redo
    for i in redo:
        draws[i] = rng_for(seed, start + i).integers(0, size, size=ell)
    return draws


def affine_subspace_test(
    f: FunctionTable,
    collection: ConstraintCollection,
    ell_test: int | None = None,
    trials: int = 1000,
    seed: int = 0,
    budget: int = ENUM_BUDGET,
) -> TestReport:
    """One-sided subspace tester: restrict f to random affine spans and search
    the restrictions exhaustively for induced constraints.

    Trial t's l sample points are exactly
    default_rng(SeedSequence((seed, t))).integers(0, p^n, l) (seed must be
    nonnegative), so a report does not depend on how trials are grouped.
    Trials run in order, in blocks of at most DRAW_SLICE trials and about
    forms.GRID_CHUNK tuples: the block's points come from one _trial_draws
    call and its restrictions from one affine_span_indices call, each form
    of each distinct constraint is gathered once through its grid view, and
    a trial rejects when some tuple matches a member's sigma.  Its witness
    is the first matching member in collection order and that member's
    first tuple in scan order.

    Rejections always carry a Witness verified against f itself: every
    rejected trial's witness is lifted to domain points and checked against
    f's table (ValueError if the lift is unsound), and the reported witness,
    that of the first rejected trial, goes through make_witness.  A check
    whose tuple grid exceeds the budget makes each trial that does not
    reject inconclusive; such trials are counted, never silent accepts.
    When no check fits the budget, nothing is drawn or restricted and every
    trial is inconclusive.
    """
    params = f.params
    p = params.p
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    collection = make_concise_collection(collection)
    members = collection.members
    # members sharing a constraint share its field check, grid and automaton
    positions: dict[AffineConstraint, list[int]] = {}
    for i, ic in enumerate(members):
        positions.setdefault(ic.constraint, []).append(i)
    for a in positions:
        check_field(a, params, "a table")
    if len(collection) == 0:
        return TestReport("accept", trials, 0, None, seed, 0.0, 0.0, 0)
    ell = ell_test if ell_test is not None else collection.max_ell()
    if ell < collection.max_ell():
        raise ValueError("ell_test below the collection's variable count")
    sub = FieldParams(p, ell - 1)
    none = len(members)
    checks = [
        _GridCheck(a, pos, members, sub, f.range_size, budget) for a, pos in positions.items()
    ]
    over_budget = any(c.views is None for c in checks)
    checks = [c for c in checks if c.views is not None and c.luts]
    widest = max((sub.size**c.constraint.ell for c in checks), default=1)
    block = max(1, min(DRAW_SLICE, forms.GRID_CHUNK // widest))
    rejections = 0
    first_witness: Witness | None = None
    # with no check left no trial can reject, so nothing is drawn
    for lo in range(0, trials if checks else 0, block):
        draws = _trial_draws(seed, lo, min(trials, lo + block), params.size, ell)
        values = f.values[affine_span_indices(draws, params)]
        # per trial: first matching member, its first tuple and its check
        member = np.full(len(draws), none)
        flat = np.zeros(len(draws), dtype=np.int64)
        owner = np.zeros(len(draws), dtype=np.int64)
        for ci, c in enumerate(checks):
            found = c.first_members(values)
            first = found.argmin(axis=1)  # the least member's first tuple
            best = np.take_along_axis(found, first[:, None], axis=1)[:, 0]
            better = best < member
            member[better] = best[better]
            flat[better] = first[better]
            owner[better] = ci
        hits = np.flatnonzero(member < none)
        for ci, c in enumerate(checks):
            sel = hits[owner[hits] == ci]
            if sel.size:
                lifted = c.witnesses(f, index_digits(draws[sel], params), flat[sel], member[sel])
                if first_witness is None and sel[0] == hits[0]:
                    first_witness = make_witness(f, members[member[sel[0]]], lifted[0].tolist())
        rejections += hits.size
    inconclusive = trials - rejections if over_budget else 0
    rate = rejections / trials if trials else 0.0
    stderr = math.sqrt(rate * (1 - rate) / trials) if trials else 0.0
    verdict = "reject" if rejections else "accept"
    return TestReport(verdict, trials, rejections, first_witness, seed, rate, stderr, inconclusive)


def distance_to_enumerable_property(
    f: FunctionTable,
    max_degree: int | None = None,
    tables: Sequence[FunctionTable] | None = None,
    budget: int = gowers.DEFAULT_SEARCH_BUDGET,
) -> float:
    """Exact min distance to degree-<=d tables or to an explicit table list.

    The polynomial property requires R = p with the fixed bijection label
    i <-> field value i-1.  Its p^(#monomials) candidates are charged against
    budget and scored from the rows Q of gowers.coset_rows, as in the
    inverse search: with r = f - 1 - Q, f agrees with Q + lambda . x + c at

        N = p^(n-1) sum_t e_p(-tc) E_x e_p(t r(x)) e_p(-t lambda . x)

    points, read for every lambda from fourier_means of e_p(t r) and for
    every c from one length-p fourier_means over t (lambda = 0 only when
    d = 0).  Blocks of rows hold at most gowers.DEFAULT_SEARCH_BUDGET
    candidates, or one row, whatever the budget.  RuntimeError is raised if
    the largest N lies more than 1e-6 from an integer.
    """
    if (max_degree is None) == (tables is None):
        raise ValueError("specify exactly one of max_degree or tables")
    if tables is not None:
        if not tables:
            raise ValueError("empty property")
        best = min(Fraction(*disagreement_count(f, g)) for g in tables)
        return float(best)
    params = f.params
    p, n, size = params.p, params.n, params.size
    if f.range_size != p:
        raise ValueError("polynomial property needs R = p (labels are field values + 1)")
    _, blocks = gowers.coset_rows(
        params, max_degree, budget, max(1, gowers.DEFAULT_SEARCH_BUDGET // (p * size))
    )
    cols = 1 if max_degree == 0 else size
    roots, target = unit_roots(p), f.values - 1
    best = 0.0
    for q_vals in blocks:
        resid = (target - q_vals) % p
        # twisted[q, lambda, t] = E_x e_p(t r(x)) e_p(-t lambda . x), 1 at t = 0:
        # entry -t lambda of transform t, each axis of its (p,)*n cube permuted
        twisted = np.ones((len(q_vals), cols, p), dtype=np.complex128)
        for t in range(1, p):
            cube = fourier_means(roots[resid * t % p], params).reshape((-1,) + (p,) * n)
            axes = np.ix_(*[-t * np.arange(p) % p] * n)
            twisted[..., t] = cube[(slice(None),) + axes].reshape(len(q_vals), -1)[:, :cols]
        best = max(best, float(fourier_means(twisted, FieldParams(p, 1)).real.max()))
    agree = best * size
    if abs(agree - round(agree)) > 1e-6:
        raise RuntimeError(f"largest agreement {agree!r} is not an integer")
    return (size - round(agree)) / size


@dataclass(frozen=True)
class BigPicture:
    """Map from each nonempty cell of a factor to the set of labels attained."""

    factor: PolynomialFactor
    cells: Mapping[tuple[int, ...], frozenset[int]]


def big_picture(f: FunctionTable, factor: PolynomialFactor) -> BigPicture:
    params = f.params
    idx = cell_index_array(factor, params)
    r = f.range_size
    cell_flats, labels = np.divmod(np.unique(idx * (r + 1) + f.values), r + 1)
    digits = index_digits(cell_flats, cell_space(factor, params)).tolist()
    cells: dict[tuple[int, ...], set[int]] = {}
    for cell, label in zip(map(tuple, digits), labels.tolist()):
        cells.setdefault(cell, set()).add(label)
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
