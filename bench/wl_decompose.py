"""Workload `decompose`: the decomposition pipeline as users run it, through
the CLI: `decompose` (super or strong), then `select-subcell`, then `cleanup`.

Inputs are layered_table(2, n, quarter=True) tables with 2% of their labels
flipped and random_function(2, n, 2) tables.  Up to n = 8 the Gowers
certificates are exact.  From n = 9 up they are Monte-Carlo, and on some
inputs the program then certifies on point estimates that the exact norm
breaks, so the benchmark keeps n >= 9 inputs fixed: a seed-dependent input
there would fail on some seeds only.  Every decomposition that certifies on
a Monte-Carlo estimate the exact norm refutes counts as a failed operation
with that reason; three of the fixed inputs are kept because they show it.
Factors grow one polynomial at a time, so the poly and factor caches run hot.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import oracles
from harness import CertificationFault, CheckFailed, Workload, cli_op, expect

DEGREE, DELTA, ZETA = 1, 0.25, 0.15
BUDGETS = ["--max-factor-size", "8", "--max-iterations", "30"]
ETA = 0.04
FLIP_FRACTION = 0.02
# seeded inputs, exact certificates: (kind, n, count)
SEEDED = (("layered", 7, 3), ("random", 7, 2), ("layered", 8, 3), ("random", 8, 2))
MC_FAULT = ("Monte-Carlo certificate ignores its stderr "
            "(_gowers_certified, decompose.py:242 and 264)")
# fixed inputs, Monte-Carlo certificates:
# (kind, n, table seed, flip fraction, eta, modes, shows the fault)
# The 11 decompositions of the 2%-flipped inputs are the slowest ops, a tenth
# of a round's 102, so op_p90_ms reads the faster half of them and the slowest
# fault inputs below, not an input that changes with the seed.  n = 11
# (1.9 s) and the strong mode at n = 10 (0.7 s) are left out: they would make
# a round 2.6 s longer and leave fewer rounds in a run.
# The last three certify on a Monte-Carlo estimate although the exact U^2 of
# f2 is above eta: at n = 9 with 5% flips and eta = 0.075 the estimates read
# 0.0738 and 0.0524 for exact norms 0.0777 and 0.0799; on the random table
# the estimate's mean is negative, so it reads 0 with stderr inf, for an
# exact norm of 0.1405.  The other fixed inputs pass on today's Monte-Carlo
# draws; should a change to the sampler make one of them certify wrongly, it
# counts as the same fault, and the failed count shows the change.
FIXED = (
    ("layered", 9, 0, FLIP_FRACTION, ETA, ("super", "strong"), False),
    ("layered", 9, 1, FLIP_FRACTION, ETA, ("super", "strong"), False),
    ("layered", 9, 4, FLIP_FRACTION, ETA, ("super", "strong"), False),
    ("layered", 9, 5, FLIP_FRACTION, ETA, ("super", "strong"), False),
    ("layered", 9, 6, FLIP_FRACTION, ETA, ("super", "strong"), False),
    ("layered", 10, 0, FLIP_FRACTION, ETA, ("super",), False),
    ("layered", 9, 2, 0.05, 0.075, ("super",), True),
    ("layered", 9, 3, 0.05, 0.075, ("super",), True),
    ("random", 9, 0, 0.0, ETA, ("strong",), True),
)


def make_table(kind: str, n: int, table_seed: int, flip_fraction: float):
    from affinetest import fixtures

    if kind == "random":
        return fixtures.random_function(2, n, 2, table_seed)
    f = fixtures.layered_table(2, n, table_seed, quarter=True)
    rng = np.random.default_rng(table_seed)
    flips = rng.choice(f.params.size, size=round(flip_fraction * f.params.size), replace=False)
    labels = np.array(f.values)
    labels[flips] = 3 - labels[flips]
    return f.with_values(labels)


def setup(seed: int, workdir) -> Workload:
    from affinetest.field import save_function_table

    inputs = []
    for kind, n, count in SEEDED:
        for i in range(count):
            table_seed = 1000 * seed + 10 * n + i
            inputs.append((f"{kind} n={n} #{i}", kind, n, table_seed, FLIP_FRACTION, ETA,
                           ("super", "strong"), False))
    for kind, n, table_seed, frac, eta, modes, shows_fault in FIXED:
        inputs.append((f"{kind} n={n} fixed seed {table_seed} flips {frac}", kind, n, table_seed,
                       frac, eta, modes, shows_fault))

    ops = []
    for j, (label, kind, n, table_seed, frac, eta, modes, shows_fault) in enumerate(inputs):
        table = workdir / f"in{j}.tab"
        save_function_table(make_table(kind, n, table_seed, frac), table)
        for mode in modes:
            ops += _pipeline(workdir / f"{j}-{mode}", table, f"{label} {mode}", mode, eta, shows_fault)
    return Workload(ops)


def _pipeline(base, table, label, mode, eta, shows_fault):
    dec, sel, clean_tab, clean_json = base / "dec", base / "sel.json", base / "clean.tab", base / "clean.json"
    coarse_fac, fine_fac = base / "coarse.fac", base / "fine.fac"
    base.mkdir()
    decompose = ["decompose", "--function", str(table), "--mode", mode, "--degree", str(DEGREE),
                 "--delta", str(DELTA), "--eta", str(eta), "--zeta", str(ZETA), *BUDGETS,
                 "--seed", "0", "--out", str(dec), "--json", str(base / "dec.json")]
    select = ["select-subcell", "--function", str(table), "--result", str(dec), "--delta",
              str(DELTA), "--zeta", str(ZETA), "--seed", "1", "--json", str(sel)]
    state = {}

    def prepare_cleanup():
        # what a user does between the two commands: factor files out of the
        # summary, and the accepted subcell (none: clean up against B alone)
        summary = json.loads((dec / "summary.json").read_text())
        coarse_fac.write_text(summary["factor_coarse"])
        accepted = sel.exists() and json.loads(sel.read_text())["accepted"]
        state["subcell"] = " ".join(map(str, json.loads(sel.read_text())["subcell"])) if accepted else ""
        fine_fac.write_text(summary["factor_fine"] if accepted else summary["factor_coarse"])

    def cleanup_argv():
        return ["cleanup", "--function", str(table), "--coarse", str(coarse_fac), "--fine",
                str(fine_fac), "--subcell", state["subcell"], "--zeta", str(ZETA), "--out",
                str(clean_tab), "--json", str(clean_json)]

    shared = {}  # decompose and select records, for the later checks of the chain
    return [
        cli_op(f"decompose {label}", decompose, [base / "dec.json", dec],
               _check_decompose(table, shared), shows_fault=shows_fault),
        cli_op(f"select-subcell {label}", select, [sel], _check_select(table, shared)),
        cli_op(f"cleanup {label}", cleanup_argv, [clean_json, clean_tab],
               _check_cleanup(table, shared), prepare=prepare_cleanup),
    ]


# --- checks -------------------------------------------------------------------


def _load(rec, table):
    files = dict(rec.files)
    summary = json.loads(files["dec/summary.json"])
    p, n, r, labels = oracles.parse_function_table(table.read_text())
    tables = {name: [oracles.parse_real_table(files[f"dec/{rel}"].decode())[2] for rel in rels]
              for name, rels in summary["tables"].items()}
    return summary, p, n, r, labels, tables


def _linear_part(terms, n):
    vec = [0] * n
    for coeff, expts in terms:
        expect(sum(expts) <= DEGREE, f"factor polynomial of degree {sum(expts)} > {DEGREE}")
        if sum(expts) == 1:
            vec[expts.index(1)] = coeff
    return vec


def _check_decompose(table, shared):
    def check(rec):
        shared["dec"] = rec
        expect(rec.code in (0, 2), f"decompose exit {rec.code}: {rec.stderr.strip()}")
        summary, p, n, r, labels, tables = _load(rec, table)
        certified = summary["certified"]
        expect(rec.code == (0 if certified else 2), "exit code disagrees with certified")
        fine_text, coarse_text = summary["factor_fine"], summary["factor_coarse"]
        _, _, fine_polys = oracles.parse_factor(fine_text)
        _, _, coarse_polys = oracles.parse_factor(coarse_text)
        expect(fine_polys[: len(coarse_polys)] == coarse_polys, "fine factor does not extend the coarse one")
        rank = oracles.gf_rank([_linear_part(t, n) for t in fine_polys] or [[0] * n], p)
        expect(rank == len(fine_polys), f"degree-1 factor of {len(fine_polys)} polynomials has rank {rank}")
        _, _, c_fine, cells = oracles.cell_indices(fine_text)
        for i in range(r):
            ind = (labels == i + 1).astype(np.float64)
            total = tables["f1"][i] + tables["f2"][i] + tables["f3"][i]
            expect(np.max(np.abs(total - ind)) <= 1e-9, f"f1+f2+f3 != slice {i + 1}")
            expect(np.max(np.abs(tables["f1"][i] - oracles.cell_means(ind, cells))) <= 1e-9,
                   f"f1 of slice {i + 1} is not the fine-cell mean")
        certs = summary["certificates"]
        for key, text in (("bias_fine", fine_text), ("bias_coarse", coarse_text)):
            _, _, c, cc = oracles.cell_indices(text)
            want = oracles.max_bias(cc, p, c)
            expect(abs(certs[key]["max_bias"] - want) <= 1e-9, f"{key} {certs[key]['max_bias']} != {want}")
        exact = [oracles.gowers(t, p, n, DEGREE + 1) for t in tables["f2"]]
        for g, want in zip(certs["gowers"], exact):
            if g["mode"] == "exact":
                expect(abs(g["value"] - want) <= 1e-9, f"exact U^2 certificate {g['value']} != {want}")
        over = [i for i, v in enumerate(exact) if v > certs["gowers_bound"] + 1e-9]
        if certified and over:
            detail = (f"certified with norms {[(g['mode'], round(g['value'], 4)) for g in certs['gowers']]}, "
                      f"exact U^2(f2) {[round(v, 4) for v in exact]} > bound {certs['gowers_bound']}")
            # the known fault is the Monte-Carlo estimate standing in for the
            # norm; a slice certified on an exact norm above the bound is not it
            if all(certs["gowers"][i]["mode"] == "monte_carlo" for i in over):
                raise CertificationFault(f"{MC_FAULT}: {detail}")
            raise CheckFailed(detail)

    return check


def _subcell_masks(summary, p, s):
    """Coarse cell of every point, and whether it lies in subcell s."""
    _, _, c_coarse, coarse_cells = oracles.cell_indices(summary["factor_coarse"])
    _, _, _, fine_cells = oracles.cell_indices(summary["factor_fine"])
    s_flat = sum(v * p**i for i, v in enumerate(s))
    return coarse_cells, fine_cells // p**c_coarse == s_flat


def _check_select(table, shared):
    def check(rec):
        shared["sel"] = rec
        summary, p, n, r, labels, tables = _load(shared["dec"], table)
        c_coarse = len(oracles.parse_factor(summary["factor_coarse"])[2])
        c_fine = len(oracles.parse_factor(summary["factor_fine"])[2])
        if c_fine == c_coarse:
            expect(rec.code == 64 and "no proper refinement" in rec.stderr,
                   f"select-subcell without a refinement exited {rec.code}")
            return
        expect(rec.files, f"select-subcell wrote no report (exit {rec.code})")
        doc = json.loads(rec.files[0][1])
        if not doc["accepted"]:
            expect(rec.code == 2, "rejected selection must exit 2")
            return
        s = doc["subcell"]
        expect(rec.code == 0 and len(s) == c_fine - c_coarse and all(0 <= v < p for v in s),
               f"malformed subcell {s}")
        coarse, in_sub = _subcell_masks(summary, p, s)
        ok = _conditions(labels, r, coarse, in_sub, tables["f3"], DELTA**2, ZETA, p**c_coarse)
        expect(ok, f"accepted subcell {s} fails the selection conditions")

    return check


def _conditions(labels, r, coarse, in_sub, f3, delta_sq, zeta, ncells) -> bool:
    """Conditions (a) and (b) of a subcell id, cell by cell: no occupied cell
    loses its subcell, f3 stays below delta^2 in mean square on every chosen
    subcell, and fewer than zeta * ncells cells deviate by more than zeta."""
    deviating = 0
    for cell in np.unique(coarse):
        members = coarse == cell
        sub = members & in_sub
        if not sub.any():
            return False
        if any(np.mean(t[sub] ** 2) >= delta_sq for t in f3):
            return False
        if any(abs(np.mean(labels[members] == lab) - np.mean(labels[sub] == lab)) > zeta
               for lab in range(1, r + 1)):
            deviating += 1
    return deviating < zeta * ncells


def _check_cleanup(table, shared):
    def check(rec):
        summary, p, n, r, labels, _ = _load(shared["dec"], table)
        expect(rec.code == 0, f"cleanup exit {rec.code}: {rec.stderr.strip()}")
        sel = shared.get("sel")
        files = dict(rec.files)
        out = oracles.parse_function_table(files["clean.tab"].decode())[3]
        doc = json.loads(files["clean.json"])
        s = ()
        if sel is not None and sel.files and json.loads(sel.files[0][1])["accepted"]:
            s = tuple(json.loads(sel.files[0][1])["subcell"])
        if s:
            coarse, in_sub = _subcell_masks(summary, p, s)
        else:
            _, _, _, coarse = oracles.cell_indices(summary["factor_coarse"])
            in_sub = np.ones_like(coarse, dtype=bool)
        want = oracles.cleanup(labels, r, coarse, in_sub, ZETA)
        expect(np.array_equal(out, want), "cleanup output differs from the three-step rule")
        changed = int(np.count_nonzero(out != labels))
        expect(doc["changed_points"] == changed and doc["total"] == labels.size, "cleanup report counts")
        if s and summary["certified"]:
            c_coarse = len(oracles.parse_factor(summary["factor_coarse"])[2])
            beta = Fraction(p**c_coarse) * Fraction(summary["certificates"]["bias_coarse"]["max_bias"])
            bound = Fraction(2 * r + 1) * Fraction(ZETA) + beta * Fraction(ZETA)
            expect(Fraction(changed, labels.size) <= bound,
                   f"cleanup distance {changed}/{labels.size} > (2R+1+beta)zeta = {float(bound)}")

    return check
