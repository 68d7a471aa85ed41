"""Command-line front end.

Subcommands: complexity, gowers, dimension, consistency, factor-stats,
decompose, select-subcell, cleanup, test, distance, experiment, fixture.
Each prints a short human-readable report to stdout and optionally writes a
machine JSON document (--json PATH).  Reports are byte-identical for
identical (argv, seed, input files).

Exit codes: 0 success/accept; 1 reject or falsified experiment check;
2 budget exhausted or inconclusive; 64 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import acceptance, fixtures
from .decompose import (
    DecompositionConfig,
    SelectionError,
    cleanup,
    load_result,
    save_result,
    select_subcell,
    strong_decompose,
    super_decompose,
)
from .factor import (
    bias_certificate,
    cell_histogram,
    degree_index,
    load_factor,
    pattern_probability,
    save_factor,
)
from .field import (
    ENUM_BUDGET,
    BudgetError,
    load_function_table,
    load_real_table,
    save_function_table,
)
from .forms import (
    CellImage,
    InducedConstraint,
    check_field,
    consistency_check,
    cs_complexity,
    dump_collection,
    dump_induced_constraint,
    mixed_dimension,
    parse_collection,
)
from .gowers import DEFAULT_SAMPLES, gowers_norm
from .tester import affine_subspace_test, distance_to_enumerable_property

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(args, doc: dict, text: str) -> None:
    print(text)
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _load_constraints(path):
    return parse_collection(Path(path).read_text())


def _first_constraint(path) -> InducedConstraint:
    col, _ = _load_constraints(path)
    if not col.members:
        raise ValueError(f"{path} holds no constraint")
    return col.members[0]


def cmd_complexity(args) -> int:
    col, _ = _load_constraints(args.constraints)
    rows = []
    # members share constraints: each distinct one is computed once
    complexity = functools.cache(lambda a: cs_complexity(a.forms))
    for ic in col.members:
        s = complexity(ic.constraint)
        rows.append({"sigma": list(ic.sigma), "complexity": s})
        print(f"sigma={list(ic.sigma)} complexity={s}")
    _emit(args, {"constraints": rows}, f"{len(rows)} constraint(s)")
    return EXIT_OK


def cmd_gowers(args) -> int:
    if args.real:
        table = load_real_table(args.real)
    else:
        f = load_function_table(args.function)
        table = f.indicator_slice(args.slice)
    res = gowers_norm(
        table, args.k, mode=args.mode, budget=ENUM_BUDGET, samples=args.samples, seed=args.seed,
    )
    _emit(args, asdict(res), f"U^{args.k} = {res.value!r} (stderr {res.stderr!r}, {res.mode})")
    return EXIT_OK


def cmd_dimension(args) -> int:
    ic = _first_constraint(args.constraints)
    val = mixed_dimension(ic.constraint.forms, args.degrees)
    _emit(args, {"degrees": args.degrees, "dimension": val},
          f"dimension at degrees {args.degrees}: {val}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    ic = _first_constraint(args.constraints)
    factor, params = load_factor(args.factor)
    check_field(ic.constraint, params, "a factor")
    cells = tuple(
        tuple(int(t) for t in chunk.split()) for chunk in args.images.split(",")
    )
    img = CellImage(cells)
    ok = consistency_check(ic.constraint, factor.degree_list(), img)
    prob = pattern_probability(factor, ic.constraint, img, mode="predicted")
    doc = {"consistent": ok, "predicted_probability": prob}
    _emit(args, doc, f"consistent: {ok}; predicted probability {prob!r}")
    return EXIT_OK


def cmd_factor_stats(args) -> int:
    factor, params = load_factor(args.factor)
    hist = cell_histogram(factor, params)
    cert = bias_certificate(factor, params, seed=args.seed)
    counts = sorted(hist.values())
    idx = degree_index(factor)
    doc = {
        "complexity": factor.complexity,
        "degree": factor.degree,
        "degree_index": dict((str(k), v) for k, v in idx.counts),
        "cells": len([c for c in counts if c > 0]),
        "min_cell": counts[0] if counts else 0,
        "max_cell": counts[-1] if counts else 0,
        "max_bias": cert.max_bias,
        "bias_exhaustive": cert.exhaustive,
        "bias_checked": cert.checked_combinations,
    }
    _emit(
        args, doc,
        f"C={factor.complexity} degree={factor.degree} nonempty_cells={doc['cells']} "
        f"cell_range=[{doc['min_cell']},{doc['max_cell']}] max_bias={cert.max_bias!r} "
        f"(exhaustive={cert.exhaustive})",
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = load_function_table(args.function)
    base = None
    if args.base:
        base, _ = load_factor(args.base)
    cfg = DecompositionConfig(
        degree=args.degree,
        delta=args.delta,
        eta=args.eta,
        zeta=args.zeta,
        max_factor_size=args.max_factor_size,
        max_iterations=args.max_iterations,
        search_budget=args.search_budget,
        seed=args.seed,
    )
    if args.mode == "strong":
        res = strong_decompose(f, cfg, base)
    else:
        res = super_decompose(f, cfg)
    save_result(res, args.out, f.params)
    text = (
        f"mode={args.mode} certified={res.certified} "
        f"|B|={res.factor_coarse.complexity} |B'|={res.factor_fine.complexity} "
        f"l2_f3={res.certificates.l2_f3!r} gowers_bound={res.certificates.gowers_bound!r}"
    )
    _emit(args, {"out": str(args.out), "certified": res.certified}, text)
    return EXIT_OK if res.certified else EXIT_BUDGET


def cmd_select_subcell(args) -> int:
    f = load_function_table(args.function)
    res = load_result(args.result)
    try:
        s = select_subcell(
            f, res, args.delta, args.zeta, seed=args.seed, max_attempts=args.max_attempts
        )
    except SelectionError as exc:
        _emit(args, {"accepted": False, "error": str(exc)}, f"selection failed: {exc}")
        return EXIT_BUDGET
    _emit(args, {"accepted": True, "subcell": list(s)}, f"subcell {' '.join(map(str, s))}")
    return EXIT_OK


def cmd_cleanup(args) -> int:
    f = load_function_table(args.function)
    coarse, _ = load_factor(args.coarse)
    fine, _ = load_factor(args.fine)
    s = tuple(int(t) for t in args.subcell.split())
    out = cleanup(f, coarse, fine, s, args.zeta)
    save_function_table(out, args.out)
    changed = int(np.count_nonzero(out.values != f.values))
    _emit(
        args,
        {"out": str(args.out), "changed_points": changed, "total": f.params.size},
        f"cleanup wrote {args.out}; changed {changed}/{f.params.size} points",
    )
    return EXIT_OK


def cmd_test(args) -> int:
    f = load_function_table(args.function)
    col, _ = _load_constraints(args.constraints)
    report = affine_subspace_test(
        f, col, ell_test=args.ell, trials=args.trials, seed=args.seed,
        budget=args.budget,
    )
    doc = report.as_dict()
    _emit(
        args, doc,
        f"verdict={report.verdict} rejections={report.rejections}/{report.trials} "
        f"rate={report.empirical_rejection_rate!r} stderr={report.stderr!r} "
        f"inconclusive={report.inconclusive_trials}",
    )
    if report.verdict == "reject":
        return EXIT_REJECT
    if report.inconclusive_trials:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_distance(args) -> int:
    f = load_function_table(args.function)
    if args.max_degree is not None:
        val = distance_to_enumerable_property(
            f, max_degree=args.max_degree, budget=args.budget
        )
    else:
        tables = [load_function_table(p) for p in args.tables]
        val = distance_to_enumerable_property(f, tables=tables)
    _emit(args, {"distance": val}, f"distance = {val!r}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    known = {w for name, fn in acceptance.CRITERIA for w in (name, fn.__name__)}
    unknown = [w for w in args.only or () if w not in known]
    if unknown:
        raise ValueError(f"unknown criteria: {', '.join(unknown)}")
    results = []
    for name, fn in acceptance.CRITERIA:
        if args.only and not {name, fn.__name__} & set(args.only):
            continue
        r = fn()
        results.append(r)
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {name} {r.name}: {r.detail} ({r.seconds:.1f}s)")
    doc = {
        "results": [asdict(r) for r in results],
        "tolerances": {r.name: acceptance.TOLERANCES[r.name] for r in results},
    }
    passed = sum(r.passed for r in results)
    _emit(args, doc, f"{passed}/{len(results)} criteria passed")
    return EXIT_OK if passed == len(results) else EXIT_REJECT


def cmd_fixture(args) -> int:
    kind = args.kind
    out = Path(args.out)
    if kind == "random_function":
        f = fixtures.random_function(args.p, args.n, args.range_size, args.seed)
        save_function_table(f, out)
    elif kind == "degree_d_table":
        f = fixtures.degree_d_table(args.p, args.n, args.degree, args.seed)
        save_function_table(f, out)
    elif kind == "planted_violations":
        f, family, densities = fixtures.planted_violations(args.p, args.n, args.flips, args.seed)
        save_function_table(f, out)
        report = {
            "violation_density": {str(list(k)): v for k, v in densities.items()},
            "max_density": max(densities.values()),
        }
        out.with_suffix(".report.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n"
        )
        print(f"planted max violation density {max(densities.values())!r}")
    elif kind == "linear_factor":
        b = fixtures.linear_factor(args.p, args.n, args.count, args.seed)
        save_factor(b, out)
    elif kind == "random_factor":
        b = fixtures.random_factor(args.p, args.n, args.count, args.degree, args.seed)
        save_factor(b, out)
    elif kind == "blr_constraint":
        if args.sigma:
            sigma = tuple(int(t) for t in args.sigma.split())
            ic = fixtures.blr_constraint(args.p, sigma)
            out.write_text(dump_induced_constraint(ic, args.range_size))
        else:
            col = fixtures.derivative_collection(args.p)
            out.write_text(dump_collection(col, args.p))
    elif kind == "ap_constraint":
        sigma = tuple(int(t) for t in args.sigma.split()) if args.sigma else None
        ic = fixtures.ap_constraint(args.p, args.count, sigma)
        out.write_text(dump_induced_constraint(ic, args.range_size))
    else:
        raise SystemExit(EXIT_USAGE)
    print(f"wrote {out}")
    return EXIT_OK


@functools.cache  # one parser per process: building it takes milliseconds
def build_parser() -> _Parser:
    parser = _Parser(prog="affinetest")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--json", help="write a machine-readable JSON report here")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("complexity", cmd_complexity, help="Cauchy-Schwarz complexity of constraints")
    sp.add_argument("--constraints", required=True)

    sp = add("gowers", cmd_gowers, help="Gowers U^k norm of a table")
    table = sp.add_mutually_exclusive_group(required=True)
    table.add_argument("--function", help="labeled table file (use with --slice)")
    table.add_argument("--real", help="real table file")
    sp.add_argument("--slice", type=int, default=1)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--mode", choices=["exact", "monte_carlo"], default="exact")
    sp.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("dimension", cmd_dimension, help="(d_1, ..., d_C)-dimension of a constraint")
    sp.add_argument("--constraints", required=True)
    sp.add_argument("--degrees", type=int, nargs="+", required=True)

    sp = add("consistency", cmd_consistency, help="consistency of cell images")
    sp.add_argument("--constraints", required=True)
    sp.add_argument("--factor", required=True)
    sp.add_argument("--images", required=True,
                    help="comma-separated cells, space-separated digits")

    sp = add("factor-stats", cmd_factor_stats, help="cells, degree index, bias certificate")
    sp.add_argument("--factor", required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("decompose", cmd_decompose, help="strong or super decomposition")
    sp.add_argument("--function", required=True)
    sp.add_argument("--mode", choices=["strong", "super"], default="strong")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--zeta", type=float, default=DecompositionConfig.zeta)
    sp.add_argument("--base", help="base factor file (strong mode)")
    sp.add_argument("--max-factor-size", type=int, default=DecompositionConfig.max_factor_size)
    sp.add_argument("--max-iterations", type=int, default=DecompositionConfig.max_iterations)
    sp.add_argument("--search-budget", type=int, default=DecompositionConfig.search_budget)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("select-subcell", cmd_select_subcell, help="sample an accepted subcell id")
    sp.add_argument("--function", required=True)
    sp.add_argument("--result", required=True, help="decompose output directory")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--zeta", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-attempts", type=_positive_int, default=32)

    sp = add("cleanup", cmd_cleanup, help="three-step relabeling toward chosen subcells")
    sp.add_argument("--function", required=True)
    sp.add_argument("--coarse", required=True)
    sp.add_argument("--fine", required=True)
    sp.add_argument("--subcell", required=True, help="space-separated digits")
    sp.add_argument("--zeta", type=float, required=True)
    sp.add_argument("--out", required=True)

    sp = add("test", cmd_test, help="one-sided affine-subspace tester")
    sp.add_argument("--constraints", required=True)
    sp.add_argument("--function", required=True)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_positive_int, default=ENUM_BUDGET)

    sp = add("distance", cmd_distance, help="exact distance to an enumerable property")
    sp.add_argument("--function", required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--tables", nargs="*", default=[])
    sp.add_argument("--budget", type=_positive_int, default=ENUM_BUDGET)

    sp = add("experiment", cmd_experiment, help="run the acceptance suite")
    sp.add_argument("--only", nargs="*", help="criterion numbers or names")

    sp = add("fixture", cmd_fixture, help="generate deterministic fixture files")
    sp.add_argument("kind", choices=[
        "random_function", "degree_d_table", "planted_violations",
        "linear_factor", "random_factor", "blr_constraint", "ap_constraint",
    ])
    sp.add_argument("--out", required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--range-size", type=int, default=2)
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--count", type=int, default=2)
    sp.add_argument("--flips", type=int, default=2)
    sp.add_argument("--sigma", default=None, help="space-separated labels")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
