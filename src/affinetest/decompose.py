"""Refinement steps, robust refinement, strong and super decompositions,
subcell selection, and the cleanup relabeling.

The quantitative tower functions of the underlying theory are replaced by
explicit budgets (max factor size, max iterations, search budget); every
claimed bound is certified post hoc by recomputing the norm it asserts (a
Monte-Carlo norm only with MC_CERT_Z standard errors of margin), and results
whose budgets ran out are returned flagged rather than trusted.
Refinements are kept syntactic throughout: polynomials are only appended, so
every produced factor extends its base by construction.  At degree 1 the
appended polynomials are kept affinely independent, which is exact full rank;
for higher degree a degenerate bias certificate (a nonzero combination with
bias 1) aborts with a diagnostic.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import gflinalg
from .field import (
    BudgetError,
    FieldParams,
    FunctionTable,
    RealTable,
    digit_index,
    load_real_table,
    rng_for,
    save_real_table,
)
from .factor import (
    BiasCertificate,
    PolynomialFactor,
    bias_certificate,
    cell_index_array,
    check_zeta,
    conditional_expectation,
    dense_cell_count,
    density_index,
    dump_factor,
    label_frequencies,
    parse_factor,
    represents,
)
from .gowers import (
    DEFAULT_SEARCH_BUDGET,
    GowersResult,
    gowers_norm,
    inverse_gowers_search,
)

CORRELATION_FLOOR = 1e-12
MC_CERT_Z = 3.0

Schedule = Callable[[int], float]


def default_eta(c: int) -> float:
    return 1.0 / (4.0 * (c + 1) * 3.0**c)


def default_delta(c: int) -> float:
    return 0.1 / 2.0**c


def as_schedule(value, fallback: Schedule, name: str = "schedule") -> Schedule:
    """value as a schedule: fallback for None, a callable as it is, and a
    constant, which must be finite and >= 0, as a constant schedule."""
    if value is None:
        return fallback
    if callable(value):
        return value
    x = float(value)
    if not 0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
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
    search_budget: int = DEFAULT_SEARCH_BUDGET
    seed: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        check_zeta(self.zeta)
        if min(self.max_factor_size, self.max_iterations, self.search_budget) < 1:
            raise ValueError("budgets must be positive")
        self.delta_fn()  # a constant delta or eta that is not finite and >= 0 raises
        self.eta_fn()

    def delta_fn(self) -> Schedule:
        return as_schedule(self.delta, default_delta, "delta")

    def eta_fn(self) -> Schedule:
        return as_schedule(self.eta, default_eta, "eta")


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


def _residual(f_slice: RealTable, factor: PolynomialFactor) -> RealTable:
    """f - E[f|B] on one slice."""
    expect = conditional_expectation(f_slice, factor)
    return RealTable(f_slice.params, f_slice.values - expect.values)


def refine_step(
    f_slice: RealTable,
    factor: PolynomialFactor,
    d: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PolynomialFactor | None:
    """One growth step: append the best degree-<=d witness for the residual.

    Returns None when the residual g = f - E[f|B] correlates with no
    polynomial (g is then U^{d+1}-null); otherwise the appended factor, whose
    density index exceeds the old one by at least the witness correlation
    squared.
    """
    witness = inverse_gowers_search(_residual(f_slice, factor), d, budget)
    if witness.correlation <= CORRELATION_FLOOR:
        return None
    q = witness.polynomial
    rows = [b.linear_part() for b in factor.polys]
    if d == 1 and gflinalg.in_rowspan(rows, q.linear_part(), q.p):
        raise AssertionError(
            "degree-1 witness affinely dependent on the factor; residual projection bug"
        )
    return factor.extend(witness.polynomial)


def robust_refine(
    fs: Sequence[RealTable],
    factor: PolynomialFactor,
    gamma,
    d: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    max_factor_size: int = DecompositionConfig.max_factor_size,
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
) -> list[GowersResult]:
    """U^k norm of each slice's residual, Monte-Carlo where exact is over budget."""
    norms = []
    for f_slice in fs:
        r = _residual(f_slice, factor)
        try:
            norms.append(gowers_norm(r, k))
        except BudgetError:
            norms.append(gowers_norm(r, k, mode="monte_carlo", seed=seed))
    return norms


def _within(g: GowersResult, bound: float) -> bool:
    """A norm certified at most bound: an exact norm by its value, a
    Monte-Carlo estimate only MC_CERT_Z standard errors below it, so an
    estimate with stderr inf never certifies."""
    return g.value + MC_CERT_Z * g.stderr <= bound


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
        norms = _slice_gowers(fs, cur, d + 1, cfg.seed)
        bound = eta_fn(cur.complexity)
        if all(_within(g, bound) for g in norms):
            return cur, norms, True
        if cur.complexity >= cfg.max_factor_size:
            break
        order = sorted(range(len(fs)), key=lambda i: -norms[i].value)
        stepped = False
        for i in order:
            if _within(norms[i], bound):
                continue
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
    else:
        # the loop ran out on a step, so cur changed after the last norms
        norms = _slice_gowers(fs, cur, d + 1, cfg.seed)
    certified = all(_within(g, eta_fn(cur.complexity)) for g in norms)
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
    certified_l2 = False
    for _ in range(cfg.max_iterations):  # at least once: the config checks it
        inner, gnorms, gcert = _gowers_certified(fs, coarse, eta_fn, d, cfg, trace)
        f1 = [conditional_expectation(s, coarse) for s in fs]
        f_inner = [conditional_expectation(s, inner) for s in fs]
        f3 = _tables_sub(f_inner, f1)
        l2_f3 = max(t.l2_norm() for t in f3)
        if l2_f3 <= delta_fn(coarse.complexity):
            certified_l2 = True
            break
        trace.append({"event": "l2_absorb", "l2": l2_f3, "bound": delta_fn(coarse.complexity)})
        coarse = inner
    else:
        # the loop ran out on an absorb step, so coarse has become inner
        f1, f3 = f_inner, _tables_sub(f_inner, f_inner)
        l2_f3 = max(t.l2_norm() for t in f3)
    bias_c = bias_certificate(coarse, params)
    _check_degeneracy(bias_c, d)
    certs = Certificates(
        gowers=tuple(gnorms),
        gowers_bound=eta_fn(inner.complexity),
        l2_f3=l2_f3,
        l2_bound=delta_fn(coarse.complexity),
        bias_coarse=bias_c,
        bias_fine=bias_c,
        represents=True,
    )
    return DecompositionResult(
        factor_coarse=coarse,
        factor_fine=coarse,
        f1=tuple(f1),
        f2=_tables_sub(fs, f_inner),
        f3=f3,
        subcell=None,
        certificates=certs,
        certified=certified_l2 and gcert,
        trace=tuple(trace),
    )


def super_decompose(f: FunctionTable, cfg: DecompositionConfig) -> DecompositionResult:
    """Two-factor decomposition: coarse B, syntactic refinement B' that
    zeta-represents B, and f = f1 + f2 + f3 relative to B'.

    The loop re-robustifies B whenever representation fails and another
    iteration follows (each failure carries a realized density-index gain,
    so the loop is budget-bounded); B' always refines the B returned.
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
    for it in range(cfg.max_iterations):
        if it:  # the previous iteration failed to represent B
            coarse = robust_refine(
                fs, fine, lambda c: delta_fn(c) ** 2, d, cfg.search_budget,
                cfg.max_factor_size, trace,
            )
        fine, gnorms, gcert = _gowers_certified(fs, coarse, eta_fn, d, cfg, trace)
        rep = represents(f, fine, coarse, cfg.zeta)
        if rep:
            break
        gain = density_index(fs, fine) - density_index(fs, coarse)
        trace.append({"event": "represents_failed", "gain": gain, "fine": fine.complexity})
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


def _subcell_frequencies(
    f: FunctionTable, fine: PolynomialFactor, coarse: PolynomialFactor, s: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Per point its coarse cell index (the fine cell index's first C
    digits, C the coarse factor's complexity) and whether it lies in
    subcell s; per coarse cell the point counts of the cell and of its
    subcell s, and each label's frequency [label - 1, cell] in both (0 where
    empty).  s must be a point of F_p^(C' - C), C' the fine factor's
    complexity."""
    r = f.range_size
    ncells = dense_cell_count(coarse, f.params, r)
    sub = digit_index(s, FieldParams(f.params.p, fine.complexity - coarse.complexity), "subcell")
    fine_idx = cell_index_array(fine, f.params)
    coarse_idx = fine_idx % ncells
    in_sub = fine_idx // ncells == sub
    cell_counts, cell_freq = label_frequencies(coarse_idx, f.values, r, ncells)
    sub_counts, sub_freq = label_frequencies(coarse_idx[in_sub], f.values[in_sub], r, ncells)
    cell_frac = np.divide(cell_freq, cell_counts, out=np.zeros((r, ncells)), where=cell_counts > 0)
    sub_frac = np.divide(sub_freq, sub_counts, out=np.zeros((r, ncells)), where=sub_counts > 0)
    return coarse_idx, in_sub, cell_counts, sub_counts, cell_frac, sub_frac


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
    check_zeta(zeta)
    coarse_idx, in_sub, cell_counts, sub_counts, cell_frac, sub_frac = _subcell_frequencies(
        f, result.factor_fine, result.factor_coarse, s
    )
    ncells = len(cell_counts)
    delta_fn = as_schedule(delta, default_delta, "delta")
    dbound = delta_fn(result.factor_coarse.complexity) ** 2
    occupied = cell_counts > 0
    orphaned = occupied & (sub_counts == 0)
    cond_a = not orphaned.any()
    if cond_a:
        sub_idx = coarse_idx[in_sub]
        for t in result.f3:
            sq = np.bincount(sub_idx, weights=t.values[in_sub] ** 2, minlength=ncells)
            mean_sq = np.divide(sq, sub_counts, out=np.zeros_like(sq), where=sub_counts > 0)
            if np.any(mean_sq[occupied] >= dbound):
                cond_a = False
                break
    deviating = orphaned | (
        occupied & (sub_counts > 0) & (np.abs(cell_frac - sub_frac) > zeta).any(axis=0)
    )
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
    check_zeta(zeta)
    extra = result.factor_fine.complexity - result.factor_coarse.complexity
    if extra <= 0:
        raise ValueError("result has no proper refinement to select from")
    p = f.params.p
    rng = rng_for(seed)
    for _ in range(max_attempts):
        s = tuple(int(v) for v in rng.integers(0, p, size=extra))
        ok_a, ok_b = subcell_conditions(f, result, s, delta, zeta)
        if ok_a and ok_b:
            return s
    raise SelectionError(
        f"no subcell accepted in {max_attempts} attempts; certificates are marginal"
    )


# summary.json's fields with their types, written as record fields' annotations
_SUMMARY = {"certificates": dict, "certified": bool, "factor_coarse": str, "factor_fine": str,
            "subcell": tuple[int, ...] | None, "tables": dict}
_TABLES = dict.fromkeys(("f1", "f2", "f3"), tuple[str, ...])
_JSON_NAMES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
               float: "number", type(None): "null"}


def save_result(res: DecompositionResult, out_dir, params: FieldParams) -> None:
    """Write a DecompositionResult as summary.json (factors inline, tables by
    path, certificates by their dataclass fields), the per-label real tables,
    and trace.jsonl."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_paths: dict[str, list[str]] = {}
    for name in _TABLES:
        paths = table_paths[name] = []
        for i, t in enumerate(getattr(res, name)):
            rel = f"{name}_{i + 1}.real"
            save_real_table(t, out / rel)
            paths.append(rel)
    doc = {
        "factor_coarse": dump_factor(res.factor_coarse, params),
        "factor_fine": dump_factor(res.factor_fine, params),
        "tables": table_paths,
        "subcell": res.subcell,
        "certified": res.certified,
        "certificates": asdict(res.certificates),
    }
    (out / "summary.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    with (out / "trace.jsonl").open("w") as fh:
        for entry in res.trace:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _is_json(value, hint) -> bool:
    """Whether value, as json.loads gives it, is JSON of type `hint`: a tuple
    is an array of its element type, a record an object, a float any number
    (true and false are no number)."""
    if get_origin(hint) is tuple:
        return type(value) is list and all(_is_json(v, get_args(hint)[0]) for v in value)
    if get_args(hint):
        return any(_is_json(value, h) for h in get_args(hint))
    if hint is float:
        return type(value) in (int, float)
    return type(value) is (dict if is_dataclass(hint) else hint)


def _json_name(hint) -> str:
    """The JSON type `hint` in words, as `_is_json` reads it."""
    if get_origin(hint) is tuple:
        return f"array of {_json_name(get_args(hint)[0])}"
    if get_args(hint):
        return " or ".join(map(_json_name, get_args(hint)))
    return "object" if is_dataclass(hint) else _JSON_NAMES[hint]


def _fields(doc, types: dict, what: str) -> dict:
    """doc, which must be a JSON object with exactly the keys of `types`,
    each holding JSON of its type (see `_is_json`); a record's types are its
    fields' annotations."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing, unexpected = types.keys() - doc.keys(), doc.keys() - types.keys()
    problems = [
        f"{kind} field(s) {', '.join(sorted(keys))}"
        for kind, keys in (("missing", missing), ("unexpected", unexpected))
        if keys
    ]
    problems = problems or [
        f"field {name} must be {_json_name(hint)}, got {_JSON_NAMES[type(doc[name])]}"
        for name, hint in types.items()
        if not _is_json(doc[name], hint)
    ]
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}")
    return doc


@cache
def _field_types(cls) -> dict:
    """The record class's field annotations, resolved once: each
    get_type_hints call compiles the string annotations again."""
    return get_type_hints(cls)


def _record(cls, doc, what: str):
    """The dataclass cls built by keyword from a JSON object of its fields."""
    return cls(**_fields(doc, _field_types(cls), what))


def load_result(out_dir) -> DecompositionResult:
    """Inverse of save_result (trace is not reloaded).  A missing or
    unexpected field in summary.json, or one of the wrong JSON type, raises
    a ValueError that names it."""
    out = Path(out_dir)
    doc = _fields(json.loads((out / "summary.json").read_text()), _SUMMARY, "summary.json")
    coarse, _ = parse_factor(doc["factor_coarse"])
    fine, _ = parse_factor(doc["factor_fine"])
    tables = _fields(doc["tables"], _TABLES, "summary.json tables")
    c = _fields(doc["certificates"], _field_types(Certificates), "certificates")
    certs = Certificates(**{
        **c,
        "gowers": tuple(_record(GowersResult, g, "gowers certificate") for g in c["gowers"]),
        "bias_coarse": _record(BiasCertificate, c["bias_coarse"], "bias_coarse"),
        "bias_fine": _record(BiasCertificate, c["bias_fine"], "bias_fine"),
    })
    return DecompositionResult(
        factor_coarse=coarse,
        factor_fine=fine,
        **{name: tuple(load_real_table(out / rel) for rel in tables[name]) for name in _TABLES},
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
    check_zeta(zeta)
    if not fine.is_syntactic_refinement_of(coarse):
        raise ValueError("fine factor must syntactically refine the coarse one")
    coarse_idx, _, cell_counts, sub_counts, cell_frac, sub_frac = _subcell_frequencies(
        f, fine, coarse, s
    )
    occupied = cell_counts > 0
    if np.any(occupied & (sub_counts == 0)):
        raise RuntimeError("nonempty cell with empty selected subcell; rank failure upstream")
    popular = np.argmax(sub_frac, axis=0) + 1  # argmax breaks ties to smallest label
    rewrite_cell = occupied & (np.abs(cell_frac - sub_frac) > zeta).any(axis=0)
    # new_label[label - 1, cell]: popular in rewritten cells and for rare labels
    relabel = rewrite_cell | (sub_frac < zeta) & occupied
    new_label = np.where(relabel, popular, np.arange(1, f.range_size + 1)[:, None])
    return f.with_values(new_label[f.values - 1, coarse_idx])
