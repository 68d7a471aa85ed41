"""Workload `tester`: the one-sided subspace tester run through the CLI on
free and far tables, plus exhaustive grid scans on planted-violation tables.

Restriction to affine spans and the per-member grid checks do nearly all
the work; gowers and factor sit idle.  Free tables scan every family member
on every trial while far tables stop at the first witness, so a change that
helps one can cost the other.
"""
from __future__ import annotations

import json
from fractions import Fraction

import oracles
from harness import CheckFailed, Op, Workload, cli_op, expect

# (p, n, free tables, far tables, trials per run)
TEST_GRID = ((2, 10, 20, 20, 40), (3, 6, 13, 13, 30), (5, 4, 1, 1, 8))
# planted-violation tables at p = 2 scanned member by member: (n, flips)
PLANTED = ((6, 3), (5, 2))
FAR_DISTANCE = Fraction(1, 5)


def setup(seed: int, workdir) -> Workload:
    from affinetest import fixtures
    from affinetest.field import load_function_table, save_function_table
    from affinetest.forms import dump_collection

    ops: list[Op] = []
    for p, n, n_free, n_far, trials in TEST_GRID:
        family = workdir / f"derivative_p{p}.col"
        family.write_text(dump_collection(fixtures.derivative_collection(p), p))
        for kind, count in (("free", n_free), ("far", n_far)):
            for i in range(count):
                table_seed = 1000 * seed + i
                if kind == "free":
                    f = fixtures.degree_d_table(p, n, 1, table_seed)
                else:
                    f = fixtures.random_function(p, n, p, table_seed)
                path = workdir / f"{kind}_p{p}_n{n}_{i}.tab"
                save_function_table(f, path)
                report = workdir / f"{kind}_p{p}_n{n}_{i}.json"
                argv = ["test", "--constraints", str(family), "--function", str(path),
                        "--trials", str(trials), "--seed", str(table_seed), "--json", str(report)]
                ops.append(cli_op(f"test {kind} p={p} n={n} #{i}", argv, [report],
                                  _test_check(path, kind, trials)))

    for j, (n, flips) in enumerate(PLANTED):
        f, family, densities = fixtures.planted_violations(2, n, flips, 1000 * seed + j)
        path = workdir / f"planted_n{n}.tab"
        save_function_table(f, path)
        table = load_function_table(path)
        labels = oracles.parse_function_table(path.read_text())[3]
        for ic in family.members:
            ops += _scan_ops(table, labels, ic, densities[ic.sigma], n)
    return Workload(ops)


def _report(rec) -> dict:
    expect(rec.files, f"no JSON report (exit {rec.code}, stderr {rec.stderr.strip()!r})")
    return json.loads(rec.file(rec.files[0][0]))


def _test_check(path, kind: str, trials: int):
    def check(rec):
        p, n, _, labels = oracles.parse_function_table(path.read_text())
        doc = _report(rec)
        expect(doc["trials"] == trials, "trial count")
        expect(doc["inconclusive_trials"] == 0, "inconclusive trials on an in-budget family")
        expect(doc["empirical_rejection_rate"] == doc["rejections"] / trials, "rejection rate")
        dist = oracles.distance_to_affine(labels, p, n)
        if kind == "free":
            expect(dist == 0, "free fixture is not degree <= 1")
            expect(rec.code == 0 and doc["verdict"] == "accept" and doc["rejections"] == 0,
                   f"free table rejected {doc['rejections']} times")
            expect(doc["witness"] is None, "witness on an accept")
            return
        expect(dist >= FAR_DISTANCE, f"far fixture at distance {dist} < {FAR_DISTANCE}")
        expect(rec.code == 1 and doc["verdict"] == "reject" and doc["rejections"] >= 1,
               "far table accepted")
        sigma = oracles.labels_at_forms(labels, p, doc["witness"])
        expect(oracles.breaks_derivative_identity(sigma, p),
               f"witness evaluates to {sigma}, which satisfies s1-s2-s3+s4 = 0")

    return check


def _scan_ops(table, labels, ic, density, n) -> list[Op]:
    from affinetest import tester  # looked up per call, so a traced run sees the calls

    sigma = ic.sigma
    size = 2**n

    def want():
        return oracles.xor_violations(labels, sigma)

    def check_count(rec):
        count, _ = want()
        expect(tuple(rec) == (count, size**3), f"violation_count {rec} != XOR count {count}")
        expect(density == count / size**3, f"planted density {density} != {count}/{size**3}")

    def check_find(rec):
        witness, definitive = rec
        count, first = want()
        expect(definitive, "exhaustive search not definitive")
        if count == 0:
            expect(witness is None, "witness where the XOR count finds none")
            return
        if witness is None:
            raise CheckFailed(f"no witness, XOR count {count}")
        expect(oracles.labels_at_forms(labels, 2, witness) == sigma, "witness does not evaluate to sigma")
        expect(tuple(oracles.index_of(witness, 2)) == first, "witness is not the first in scan order")

    def find():
        out = tester.find_induced_occurrence(table, ic)
        return (out.witness.points if out.witness else None), out.definitive

    return [
        Op(f"violation_count n={n} sigma={sigma}", lambda: tester.violation_count(table, ic), check_count),
        Op(f"find_induced_occurrence n={n} sigma={sigma}", find, check_find),
    ]
