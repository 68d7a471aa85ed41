"""Refinement steps, robust refinement, strong and super decompositions,
subcell selection, and the cleanup relabeling.

The quantitative tower functions of the underlying theory are replaced by
explicit budgets (max factor size, max iterations, search budget); every
claimed bound is certified post hoc by recomputing the norm it asserts, and
results whose budgets ran out are returned flagged rather than trusted.
Refinements are kept syntactic throughout: polynomials are only appended, so
every produced factor extends its base by construction.  At degree 1 the
appended polynomials are kept affinely independent, which is exact full rank;
for higher degree a degenerate bias certificate (a nonzero combination with
bias 1) aborts with a diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import gflinalg
from .field import BudgetError, FieldParams, FunctionTable, RealTable
from .factor import (
    BiasCertificate,
    PolynomialFactor,
    bias_certificate,
    cell_index_array,
    conditional_expectation,
    density_index,
    represents,
)
from .gowers import (
    CorrelationWitness,
    GowersResult,
    gowers_norm,
    inverse_gowers_search,
)

CORRELATION_FLOOR = 1e-12

Schedule = Callable[[int], float]


def default_eta(c: int) -> float:
    return 1.0 / (4.0 * (c + 1) * 3.0**c)


def default_delta(c: int) -> float:
    return 0.1 / 2.0**c


def as_schedule(value, fallback: Schedule) -> Schedule:
    if value is None:
        return fallback
    if callable(value):
        return value
    x = float(value)
    return lambda _c: x


class SelectionError(RuntimeError):
    """No subcell id passed both selection conditions within max_attempts."""


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs for the decomposition loops.

    delta and eta may be constants or schedules (functions of factor size);
    eta should be nonincreasing.  Budgets bound factor growth, loop length,
    and the inverse-theorem search space.
    """

    degree: int
    delta: object = None
    eta: object = None
    zeta: float = 0.1
    max_factor_size: int = 16
    max_iterations: int = 64
    search_budget: int = 1 << 20
    seed: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not 0 < self.zeta <= 1:
            raise ValueError("zeta must lie in (0, 1]")
        if min(self.max_factor_size, self.max_iterations, self.search_budget) < 1:
            raise ValueError("budgets must be positive")

    def delta_fn(self) -> Schedule:
        return as_schedule(self.delta, default_delta)

    def eta_fn(self) -> Schedule:
        return as_schedule(self.eta, default_eta)


@dataclass(frozen=True)
class Certificates:
    """Recomputed evidence for a decomposition's claimed bounds."""

    gowers: tuple[GowersResult, ...]
    gowers_bound: float
    l2_f3: float
    l2_bound: float
    bias_coarse: BiasCertificate
    bias_fine: BiasCertificate
    represents: bool | None


@dataclass(frozen=True)
class DecompositionResult:
    """Factors B (coarse) and B' (fine, = B in strong mode) with per-label
    tables f1, f2, f3 summing to the indicator slices of f."""

    factor_coarse: PolynomialFactor
    factor_fine: PolynomialFactor
    f1: tuple[RealTable, ...]
    f2: tuple[RealTable, ...]
    f3: tuple[RealTable, ...]
    subcell: tuple[int, ...] | None
    certificates: Certificates
    certified: bool
    trace: tuple[dict, ...] = field(default_factory=tuple)


def _affinely_independent(factor: PolynomialFactor, poly) -> bool:
    """Whether poly's linear part is outside the affine span of the factor's."""
    rows = [q.linear_part() for q in factor.polys]
    vec = np.array(poly.linear_part(), dtype=np.int64)
    p = poly.p
    if not vec.any():
        return False
    if not rows:
        return True
    return not gflinalg.in_rowspan(np.array(rows, dtype=np.int64), vec, p)


def refine_step(
    f_slice: RealTable,
    factor: PolynomialFactor,
    d: int,
    budget: int = 1 << 20,
) -> PolynomialFactor | None:
    """One growth step: append the best degree-<=d witness for the residual.

    Returns None when the residual g = f - E[f|B] correlates with no
    polynomial (g is then U^{d+1}-null); otherwise the appended factor, whose
    density index exceeds the old one by at least the witness correlation
    squared.
    """
    resid = RealTable(
        f_slice.params,
        f_slice.values - conditional_expectation(f_slice, factor).values,
    )
    witness = inverse_gowers_search(resid, d, budget)
    if witness.correlation <= CORRELATION_FLOOR:
        return None
    if d == 1 and not _affinely_independent(factor, witness.polynomial):
        raise AssertionError(
            "degree-1 witness affinely dependent on the factor; residual projection bug"
        )
    return factor.extend(witness.polynomial)


def robust_refine(
    fs: Sequence[RealTable],
    factor: PolynomialFactor,
    gamma,
    d: int,
    budget: int = 1 << 20,
    max_factor_size: int = 16,
    trace: list | None = None,
) -> PolynomialFactor:
    """Grow the factor while some slice admits a single step of realized
    density-index gain >= gamma(current size).

    The index is bounded by the slice count, so at most R/gamma steps happen.
    On hitting max_factor_size the partial factor is returned with a
    diagnostic trace entry.
    """
    gamma_fn = as_schedule(gamma, lambda _c: float(gamma))
    cur = factor
    cur_index = density_index(fs, cur)
    while True:
        if cur.complexity >= max_factor_size:
            if trace is not None:
                trace.append({"event": "robust_refine_size_budget", "size": cur.complexity})
            return cur
        progressed = False
        for i, f_slice in enumerate(fs):
            cand = refine_step(f_slice, cur, d, budget)
            if cand is None:
                continue
            gain = density_index(fs, cand) - cur_index
            if gain >= gamma_fn(cur.complexity):
                if trace is not None:
                    trace.append(
                        {"event": "robust_step", "slice": i, "gain": gain, "size": cand.complexity}
                    )
                cur = cand
                cur_index += gain
                progressed = True
                break
        if not progressed:
            return cur


def _slice_gowers(
    fs: Sequence[RealTable], factor: PolynomialFactor, k: int, seed: int
) -> tuple[list[RealTable], list[GowersResult]]:
    resids, norms = [], []
    for f_slice in fs:
        r = RealTable(
            f_slice.params,
            f_slice.values - conditional_expectation(f_slice, factor).values,
        )
        resids.append(r)
        try:
            norms.append(gowers_norm(r, k))
        except BudgetError:
            norms.append(gowers_norm(r, k, mode="monte_carlo", seed=seed))
    return resids, norms


def _gowers_certified(
    fs: Sequence[RealTable],
    factor: PolynomialFactor,
    eta_fn: Schedule,
    d: int,
    cfg: DecompositionConfig,
    trace: list | None,
) -> tuple[PolynomialFactor, list[GowersResult], bool]:
    """Append witnesses until every slice residual has U^{d+1} norm within
    eta(current size); certification fails when budgets bind first."""
    cur = factor
    for _ in range(cfg.max_iterations * max(len(fs), 1)):
        _, norms = _slice_gowers(fs, cur, d + 1, cfg.seed)
        bound = eta_fn(cur.complexity)
        if all(g.value <= bound for g in norms):
            return cur, norms, True
        if cur.complexity >= cfg.max_factor_size:
            break
        order = sorted(range(len(fs)), key=lambda i: -norms[i].value)
        stepped = False
        for i in order:
            if norms[i].value <= bound:
                break
            cand = refine_step(fs[i], cur, d, cfg.search_budget)
            if cand is not None:
                if trace is not None:
                    trace.append(
                        {"event": "gowers_step", "slice": i, "size": cand.complexity,
                         "norm": norms[i].value, "bound": bound}
                    )
                cur = cand
                stepped = True
                break
        if not stepped:
            break
    _, norms = _slice_gowers(fs, cur, d + 1, cfg.seed)
    certified = all(g.value <= eta_fn(cur.complexity) for g in norms)
    if trace is not None and not certified:
        trace.append({"event": "gowers_budget_exhausted", "size": cur.complexity})
    return cur, norms, certified


def _check_degeneracy(cert: BiasCertificate, d: int) -> None:
    if d >= 2 and cert.max_bias >= 1.0 - 1e-9:
        raise RuntimeError(
            "degenerate factor: some nonzero combination has bias 1; "
            "constructive regularization beyond degree 1 is out of scope"
        )


def _tables_sub(a: Sequence[RealTable], b: Sequence[RealTable]) -> tuple[RealTable, ...]:
    return tuple(RealTable(x.params, x.values - y.values) for x, y in zip(a, b))


def strong_decompose(
    f: FunctionTable,
    cfg: DecompositionConfig,
    base: PolynomialFactor | None = None,
) -> DecompositionResult:
    """Decompose f = f1 + f2 + f3 per label slice over a factor extending base.

    f1 is the per-slice conditional expectation over the produced factor B;
    f2 has certified-small U^{d+1} norm (computed against an internal further
    refinement); f3 is the remainder with certified L2 norm at most
    delta(|B|).  All certificates are recomputed norms, not loop trust.
    """
    params = f.params
    d = cfg.degree
    if d >= params.p:
        raise ValueError("decomposition requires degree < p")
    factor0 = base if base is not None else PolynomialFactor.trivial()
    if factor0.degree > d:
        raise ValueError("base factor degree exceeds configured degree")
    fs = f.slices()
    delta_fn, eta_fn = cfg.delta_fn(), cfg.eta_fn()
    trace: list[dict] = []
    coarse = robust_refine(
        fs, factor0, lambda c: delta_fn(c) ** 2, d, cfg.search_budget,
        cfg.max_factor_size, trace,
    )
    inner = coarse
    certified_l2 = False
    gnorms: list[GowersResult] = []
    gcert = False
    for _ in range(cfg.max_iterations):
        inner, gnorms, gcert = _gowers_certified(fs, coarse, eta_fn, d, cfg, trace)
        f1 = [conditional_expectation(s, coarse) for s in fs]
        f_inner = [conditional_expectation(s, inner) for s in fs]
        f3 = _tables_sub(f_inner, f1)
        l2s = [t.l2_norm() for t in f3]
        if max(l2s) <= delta_fn(coarse.complexity):
            certified_l2 = True
            break
        trace.append({"event": "l2_absorb", "l2": max(l2s), "bound": delta_fn(coarse.complexity)})
        coarse = inner
    f1 = tuple(conditional_expectation(s, coarse) for s in fs)
    f_inner = [conditional_expectation(s, inner) for s in fs]
    f2 = _tables_sub(list(fs), f_inner)
    f3 = _tables_sub(f_inner, list(f1))
    bias_c = bias_certificate(coarse, params)
    _check_degeneracy(bias_c, d)
    certs = Certificates(
        gowers=tuple(gnorms),
        gowers_bound=eta_fn(inner.complexity),
        l2_f3=max(t.l2_norm() for t in f3),
        l2_bound=delta_fn(coarse.complexity),
        bias_coarse=bias_c,
        bias_fine=bias_c,
        represents=True,
    )
    return DecompositionResult(
        factor_coarse=coarse,
        factor_fine=coarse,
        f1=f1,
        f2=f2,
        f3=f3,
        subcell=None,
        certificates=certs,
        certified=certified_l2 and gcert,
        trace=tuple(trace),
    )


def super_decompose(f: FunctionTable, cfg: DecompositionConfig) -> DecompositionResult:
    """Two-factor decomposition: coarse B, syntactic refinement B' that
    zeta-represents B, and f = f1 + f2 + f3 relative to B'.

    The loop re-robustifies B whenever representation fails (each failure
    carries a realized density-index gain, so the loop is budget-bounded).
    The internal Gowers refinement certifies B' against itself, so the
    remainder f3 vanishes and its delta(|B|) certificate is exact.
    """
    params = f.params
    d = cfg.degree
    if d >= params.p:
        raise ValueError("decomposition requires degree < p")
    fs = f.slices()
    delta_fn, eta_fn = cfg.delta_fn(), cfg.eta_fn()
    trace: list[dict] = []
    coarse = robust_refine(
        fs, PolynomialFactor.trivial(), lambda c: delta_fn(c) ** 2, d,
        cfg.search_budget, cfg.max_factor_size, trace,
    )
    fine = coarse
    gnorms: list[GowersResult] = []
    gcert = False
    rep = False
    for _ in range(cfg.max_iterations):
        fine, gnorms, gcert = _gowers_certified(fs, coarse, eta_fn, d, cfg, trace)
        rep = represents(f, fine, coarse, cfg.zeta)
        if rep:
            break
        gain = density_index(fs, fine) - density_index(fs, coarse)
        trace.append({"event": "represents_failed", "gain": gain, "fine": fine.complexity})
        coarse = robust_refine(
            fs, fine, lambda c: delta_fn(c) ** 2, d, cfg.search_budget,
            cfg.max_factor_size, trace,
        )
    f1 = tuple(conditional_expectation(s, fine) for s in fs)
    f2 = _tables_sub(list(fs), list(f1))
    zeros = tuple(RealTable(params, np.zeros(params.size)) for _ in fs)
    bias_c = bias_certificate(coarse, params)
    bias_f = bias_certificate(fine, params)
    _check_degeneracy(bias_f, d)
    certs = Certificates(
        gowers=tuple(gnorms),
        gowers_bound=eta_fn(fine.complexity),
        l2_f3=0.0,
        l2_bound=delta_fn(coarse.complexity),
        bias_coarse=bias_c,
        bias_fine=bias_f,
        represents=rep,
    )
    return DecompositionResult(
        factor_coarse=coarse,
        factor_fine=fine,
        f1=f1,
        f2=f2,
        f3=zeros,
        subcell=None,
        certificates=certs,
        certified=rep and gcert,
        trace=tuple(trace),
    )


def _subcell_masks(
    result: DecompositionResult, params: FieldParams, s: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, int]:
    p = params.p
    cc = result.factor_coarse.complexity
    fine_idx = cell_index_array(result.factor_fine, params)
    coarse_idx = fine_idx % p**cc
    s_flat = 0
    for v in reversed(s):
        s_flat = s_flat * p + v % p
    in_subcell = fine_idx // p**cc == s_flat
    return coarse_idx, in_subcell, p**cc


def subcell_conditions(
    f: FunctionTable,
    result: DecompositionResult,
    s: tuple[int, ...],
    delta,
    zeta: float,
) -> tuple[bool, bool]:
    """Evaluate the two acceptance conditions for a candidate subcell id.

    (a) every coarse cell's chosen subcell keeps E[(f3^(i))^2 | (c, s)] below
        delta(|B|)^2 for every label slice;
    (b) fewer than a zeta fraction of coarse cells have any label slice whose
        mean over (c, s) deviates from its mean over c by more than zeta.
    """
    params = f.params
    coarse_idx, in_sub, ncells = _subcell_masks(result, params, s)
    delta_fn = as_schedule(delta, default_delta)
    dbound = delta_fn(result.factor_coarse.complexity) ** 2
    cell_counts = np.bincount(coarse_idx, minlength=ncells)
    sub_counts = np.bincount(coarse_idx[in_sub], minlength=ncells)
    occupied = cell_counts > 0
    orphaned = occupied & (sub_counts == 0)
    cond_a = not orphaned.any()
    if cond_a:
        for t in result.f3:
            sq = np.bincount(
                coarse_idx[in_sub], weights=t.values[in_sub] ** 2, minlength=ncells
            )
            mean_sq = np.divide(sq, sub_counts, out=np.zeros_like(sq), where=sub_counts > 0)
            if np.any(mean_sq[occupied] >= dbound):
                cond_a = False
                break
    deviating = orphaned.copy()
    for label in range(1, f.range_size + 1):
        vals = (f.values == label).astype(np.float64)
        cell_means = np.divide(
            np.bincount(coarse_idx, weights=vals, minlength=ncells),
            cell_counts,
            out=np.zeros(ncells),
            where=occupied,
        )
        sub_means = np.divide(
            np.bincount(coarse_idx[in_sub], weights=vals[in_sub], minlength=ncells),
            sub_counts,
            out=np.zeros(ncells),
            where=sub_counts > 0,
        )
        deviating |= occupied & (sub_counts > 0) & (np.abs(cell_means - sub_means) > zeta)
    cond_b = int(deviating.sum()) < zeta * ncells
    return cond_a, cond_b


def select_subcell(
    f: FunctionTable,
    result: DecompositionResult,
    delta,
    zeta: float,
    seed: int = 0,
    max_attempts: int = 32,
) -> tuple[int, ...]:
    """Sample subcell ids uniformly until one passes both conditions.

    When the decomposition certificates hold (super run with representation
    parameter zeta/4 and L2 schedule 0.1 * delta(C) / p^C), each condition
    holds with probability at least 3/4 over a uniform s, so acceptance
    within a few attempts is the typical outcome.
    """
    extra = result.factor_fine.complexity - result.factor_coarse.complexity
    if extra <= 0:
        raise ValueError("result has no proper refinement to select from")
    p = f.params.p
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    for _ in range(max_attempts):
        s = tuple(int(v) for v in rng.integers(0, p, size=extra))
        ok_a, ok_b = subcell_conditions(f, result, s, delta, zeta)
        if ok_a and ok_b:
            return s
    raise SelectionError(
        f"no subcell accepted in {max_attempts} attempts; certificates are marginal"
    )


def save_result(res: DecompositionResult, out_dir, params: FieldParams) -> None:
    """Write a DecompositionResult as summary.json (factors inline, tables by
    path), the per-label real tables, and trace.jsonl."""
    import json
    from pathlib import Path

    from .factor import dump_factor
    from .field import save_real_table

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_paths: dict[str, list[str]] = {}
    for name, tables in (("f1", res.f1), ("f2", res.f2), ("f3", res.f3)):
        paths = []
        for i, t in enumerate(tables):
            rel = f"{name}_{i + 1}.real"
            save_real_table(t, out / rel)
            paths.append(rel)
        table_paths[name] = paths
    certs = res.certificates
    doc = {
        "factor_coarse": dump_factor(res.factor_coarse, params),
        "factor_fine": dump_factor(res.factor_fine, params),
        "tables": table_paths,
        "subcell": list(res.subcell) if res.subcell is not None else None,
        "certified": res.certified,
        "certificates": {
            "gowers": [
                {"value": g.value, "stderr": g.stderr, "mode": g.mode,
                 "samples": g.samples, "seed": g.seed}
                for g in certs.gowers
            ],
            "gowers_bound": certs.gowers_bound,
            "l2_f3": certs.l2_f3,
            "l2_bound": certs.l2_bound,
            "bias_coarse": {
                "max_bias": certs.bias_coarse.max_bias,
                "checked_combinations": certs.bias_coarse.checked_combinations,
                "exhaustive": certs.bias_coarse.exhaustive,
            },
            "bias_fine": {
                "max_bias": certs.bias_fine.max_bias,
                "checked_combinations": certs.bias_fine.checked_combinations,
                "exhaustive": certs.bias_fine.exhaustive,
            },
            "represents": certs.represents,
        },
    }
    (out / "summary.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    with (out / "trace.jsonl").open("w") as fh:
        for entry in res.trace:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_result(out_dir) -> DecompositionResult:
    """Inverse of save_result (trace is not reloaded)."""
    import json
    from pathlib import Path

    from .factor import parse_factor
    from .field import load_real_table
    from .gowers import GowersResult

    out = Path(out_dir)
    doc = json.loads((out / "summary.json").read_text())
    coarse, _ = parse_factor(doc["factor_coarse"])
    fine, _ = parse_factor(doc["factor_fine"])
    tables = {
        name: tuple(load_real_table(out / rel) for rel in rels)
        for name, rels in doc["tables"].items()
    }
    c = doc["certificates"]
    certs = Certificates(
        gowers=tuple(
            GowersResult(g["value"], g["stderr"], g["mode"], g["samples"], g["seed"])
            for g in c["gowers"]
        ),
        gowers_bound=c["gowers_bound"],
        l2_f3=c["l2_f3"],
        l2_bound=c["l2_bound"],
        bias_coarse=BiasCertificate(**c["bias_coarse"]),
        bias_fine=BiasCertificate(**c["bias_fine"]),
        represents=c["represents"],
    )
    return DecompositionResult(
        factor_coarse=coarse,
        factor_fine=fine,
        f1=tables["f1"],
        f2=tables["f2"],
        f3=tables["f3"],
        subcell=tuple(doc["subcell"]) if doc["subcell"] is not None else None,
        certificates=certs,
        certified=doc["certified"],
    )


def cleanup(
    f: FunctionTable,
    coarse: PolynomialFactor,
    fine: PolynomialFactor,
    s: tuple[int, ...],
    zeta: float,
) -> FunctionTable:
    """Three-step relabeling toward the selected subcells.

    (1) copy f; (2) cells where any label's frequency differs between the
    cell and its chosen subcell by more than zeta become constant, set to the
    subcell's most popular label; (3) in remaining cells, labels rarer than
    zeta inside the subcell are replaced by that most popular label.  Ties
    break to the smallest label.  A nonempty cell with an empty chosen
    subcell is a hard error (degeneracy upstream).
    """
    if not fine.is_syntactic_refinement_of(coarse):
        raise ValueError("fine factor must syntactically refine the coarse one")
    params = f.params
    p = params.p
    cc = coarse.complexity
    if len(s) != fine.complexity - cc:
        raise ValueError("subcell id length mismatch")
    fine_idx = cell_index_array(fine, params)
    coarse_idx = fine_idx % p**cc
    s_flat = 0
    for v in reversed(s):
        s_flat = s_flat * p + v % p
    in_sub = fine_idx // p**cc == s_flat
    ncells = p**cc
    r = f.range_size
    cell_counts = np.bincount(coarse_idx, minlength=ncells)
    sub_counts = np.bincount(coarse_idx[in_sub], minlength=ncells)
    occupied = cell_counts > 0
    if np.any(occupied & (sub_counts == 0)):
        raise RuntimeError("nonempty cell with empty selected subcell; rank failure upstream")
    cell_freq = np.zeros((r, ncells))
    sub_freq = np.zeros((r, ncells))
    for label in range(1, r + 1):
        hit = f.values == label
        cell_freq[label - 1] = np.bincount(
            coarse_idx, weights=hit.astype(np.float64), minlength=ncells
        )
        sub_freq[label - 1] = np.bincount(
            coarse_idx[in_sub], weights=hit[in_sub].astype(np.float64), minlength=ncells
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        cell_frac = np.where(occupied, cell_freq / np.maximum(cell_counts, 1), 0.0)
        sub_frac = np.where(sub_counts > 0, sub_freq / np.maximum(sub_counts, 1), 0.0)
    popular = np.argmax(sub_frac, axis=0) + 1  # argmax breaks ties to smallest label
    out = np.array(f.values, dtype=np.int64)
    rewrite_cell = occupied & (np.abs(cell_frac - sub_frac) > zeta).any(axis=0)
    mask2 = rewrite_cell[coarse_idx]
    out[mask2] = popular[coarse_idx[mask2]]
    rare = (sub_frac < zeta) & occupied[None, :] & ~rewrite_cell[None, :]
    for label in range(1, r + 1):
        mask3 = rare[label - 1][coarse_idx] & (f.values == label)
        out[mask3] = popular[coarse_idx[mask3]]
    return f.with_values(out)
