import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinetest import cli, fixtures
from affinetest.cli import main
from affinetest.decompose import load_result
from affinetest.factor import dump_factor, load_factor, parse_factor, save_factor
from affinetest.field import (
    FieldParams,
    disagreement_count,
    dump_function_table,
    dump_real_table,
    load_function_table,
    parse_function_table,
    parse_real_table,
    save_function_table,
)
from affinetest.forms import (
    ConstraintCollection,
    cs_complexity,
    dimension_d,
    dump_collection,
    mixed_dimension,
    parse_collection,
)
from reference import parse_induced_constraint


@pytest.fixture
def blr_file(tmp_path):
    path = tmp_path / "blr.col"
    assert main(["fixture", "blr_constraint", "--p", "2", "--out", str(path)]) == 0
    return path


@pytest.fixture
def free_table(tmp_path):
    path = tmp_path / "free.tab"
    code = main([
        "fixture", "degree_d_table", "--p", "2", "--n", "5",
        "--degree", "1", "--seed", "4", "--out", str(path),
    ])
    assert code == 0
    return path


def test_fixture_determinism(tmp_path):
    a, b = tmp_path / "a.tab", tmp_path / "b.tab"
    for out in (a, b):
        main(["fixture", "random_function", "--p", "3", "--n", "2",
              "--range-size", "3", "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_complexity_prints_one(blr_file, capsys):
    assert main(["complexity", "--constraints", str(blr_file)]) == 0
    out = capsys.readouterr().out
    assert "complexity=1" in out


def test_complexity_computes_each_distinct_constraint_once(tmp_path, capsys, monkeypatch):
    members = fixtures.derivative_collection(3).members + (
        fixtures.ap_constraint(3, 3, (1, 2, 3)), fixtures.ap_constraint(3, 3, (2, 2, 1)),
    )
    path = tmp_path / "mixed.col"
    path.write_text(dump_collection(ConstraintCollection(members), 3))
    calls = []
    monkeypatch.setattr(cli, "cs_complexity", lambda forms: calls.append(forms) or cs_complexity(forms))
    assert main(["complexity", "--constraints", str(path), "--json", str(tmp_path / "c.json")]) == 0
    assert len(calls) == len({ic.constraint for ic in members}) == 2
    rows = json.loads((tmp_path / "c.json").read_text())["constraints"]
    assert [r["sigma"] for r in rows] == [list(ic.sigma) for ic in members]
    assert [r["complexity"] for r in rows] == [cs_complexity(ic.constraint.forms) for ic in members]
    assert capsys.readouterr().out.count("complexity=") == len(members)


def test_test_accepts_free_function(blr_file, free_table, tmp_path):
    report = tmp_path / "rep.json"
    code = main([
        "test", "--constraints", str(blr_file), "--function", str(free_table),
        "--trials", "200", "--seed", "1", "--json", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "accept" and doc["rejections"] == 0


def test_test_rejects_far_function(blr_file, tmp_path):
    func = tmp_path / "far.tab"
    main(["fixture", "random_function", "--p", "2", "--n", "3", "--seed", "5",
          "--out", str(func)])
    code = main([
        "test", "--constraints", str(blr_file), "--function", str(func),
        "--trials", "300", "--seed", "2",
    ])
    assert code == 1


def test_test_budget_exit_code(blr_file, tmp_path):
    func = tmp_path / "far.tab"
    main(["fixture", "random_function", "--p", "2", "--n", "3", "--seed", "5",
          "--out", str(func)])
    code = main([
        "test", "--constraints", str(blr_file), "--function", str(func),
        "--trials", "10", "--seed", "2", "--budget", "1",
    ])
    assert code == 2


def test_test_no_grid_in_budget_is_inconclusive(blr_file, tmp_path, capsys):
    # at --ell 40 the restriction grids hold 2^117 tuples: no trial can be
    # checked, and none may build its 2^39-point restriction
    func = tmp_path / "big.tab"
    main(["fixture", "random_function", "--p", "2", "--n", "10", "--seed", "5",
          "--out", str(func)])
    capsys.readouterr()
    code = main([
        "test", "--constraints", str(blr_file), "--function", str(func),
        "--ell", "40", "--trials", "3", "--seed", "2",
    ])
    assert code == 2
    assert "inconclusive=3" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert main(["complexity"]) == 64  # missing required argument
    assert main(["no-such-command"]) == 64


def test_usage_error_then_valid_call(blr_file, capsys):
    # main parses with one parser per process; a failed parse must not leave
    # state behind for the next call
    assert main(["complexity", "--constraints", str(blr_file)]) == 0
    first = capsys.readouterr().out
    assert main(["complexity", "--constraints", str(blr_file), "--bogus"]) == 64
    assert main(["complexity"]) == 64
    assert main(["complexity", "--constraints", str(blr_file)]) == 0
    assert capsys.readouterr().out == first


def test_reports_byte_identical(blr_file, free_table, tmp_path, capsys):
    reports = []
    outs = []
    for i in range(2):
        rep = tmp_path / f"r{i}.json"
        main([
            "test", "--constraints", str(blr_file), "--function", str(free_table),
            "--trials", "100", "--seed", "3", "--json", str(rep),
        ])
        reports.append(rep.read_bytes())
        outs.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert outs[0] == outs[1]


def test_distance_and_gowers_commands(free_table, capsys):
    assert main(["distance", "--function", str(free_table), "--max-degree", "1"]) == 0
    assert "distance = 0.0" in capsys.readouterr().out
    assert main(["gowers", "--function", str(free_table), "--slice", "1", "-k", "2"]) == 0
    assert "exact" in capsys.readouterr().out


@pytest.mark.parametrize("extra, message", [
    ([], "one of the arguments --function --real is required"),
    (["--function", "F", "--real", "F"], "not allowed with argument"),
    (["--function", "F", "--mode", "monte_carlo", "--samples", "0"], "must be at least 1"),
    (["--function", "F", "--mode", "monte_carlo", "--samples", "-3"], "must be at least 1"),
])
def test_gowers_rejects_invalid_arguments(free_table, capsys, extra, message):
    argv = ["gowers", "-k", "2"] + [str(free_table) if a == "F" else a for a in extra]
    assert main(argv) == 64
    assert message in capsys.readouterr().err


def test_factor_pipeline(tmp_path, capsys):
    fac = tmp_path / "lin.fac"
    assert main(["fixture", "linear_factor", "--p", "2", "--n", "5", "--count", "2",
                 "--seed", "1", "--out", str(fac)]) == 0
    assert main(["factor-stats", "--factor", str(fac)]) == 0
    out = capsys.readouterr().out
    assert "max_bias=0.0" in out and "exhaustive=True" in out


def test_consistency_command(blr_file, tmp_path, capsys):
    fac = tmp_path / "lin.fac"
    main(["fixture", "linear_factor", "--p", "2", "--n", "4", "--count", "2",
          "--seed", "2", "--out", str(fac)])
    assert main([
        "consistency", "--constraints", str(blr_file), "--factor", str(fac),
        "--images", "0 0, 0 0, 0 0, 0 0",
    ]) == 0
    assert "consistent: True" in capsys.readouterr().out


@pytest.mark.parametrize("images", ["0 0, 0 0, 0 0, 0 0", "0, 0"])
def test_consistency_rejects_a_constraint_over_another_field(tmp_path, capsys, images):
    # an F_3 constraint with an F_2 factor once printed "consistent: True";
    # the fields are compared before the images are read as cells of either
    col, fac = tmp_path / "blr3.col", tmp_path / "lin.fac"
    assert main(["fixture", "blr_constraint", "--p", "3", "--out", str(col)]) == 0
    assert main(["fixture", "linear_factor", "--n", "5", "--count", "2", "--out", str(fac)]) == 0
    capsys.readouterr()
    assert main(["consistency", "--constraints", str(col), "--factor", str(fac),
                 "--images", images]) == 64
    assert capsys.readouterr() == (
        "", "error: constraint over F_3 does not apply to a factor over F_2^5\n"
    )


@pytest.mark.parametrize("images, message", [
    ("0 0, 0 0", "need 4 cell images, one per form, got 2"),
    ("0 0, 0 0, 0 0, 0 0, 0 0", "need 4 cell images, one per form, got 5"),
    ("1, 0, 1, 0", "cell image needs 2 digit(s), got 1"),
    ("0 1, 1 1, 1 3, 0 0", "cell image digits must lie in [0, 2), got 1 3"),
])
def test_consistency_images_must_be_cells(blr_file, tmp_path, capsys, images, message):
    fac = tmp_path / "lin.fac"
    assert main(["fixture", "linear_factor", "--n", "5", "--count", "2", "--out", str(fac)]) == 0
    capsys.readouterr()
    assert main(["consistency", "--constraints", str(blr_file), "--factor", str(fac),
                 "--images", images]) == 64
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_factor_stats_budget_counts_cells(tmp_path, capsys):
    # 2^30 cells over an 8-point domain exceed the 2^24 enumeration budget
    fac = tmp_path / "wide.fac"
    save_factor(fixtures.random_factor(2, 3, 30, 1, seed=0), fac)
    assert main(["factor-stats", "--factor", str(fac)]) == 2
    assert capsys.readouterr().err.startswith("budget error:")


@pytest.mark.parametrize("command, message", [
    ("gowers", "Monte-Carlo U^40 is charged 3435973836800000 > budget 16777216"),
    ("decompose", "per-cell array of p^C = 3^30 cells exceeds max(p^n, budget) = 16777216"),
    ("cleanup", "per-cell array of p^C = 3^30 cells exceeds max(p^n, budget) = 16777216"),
    ("cleanup-range", "per-cell label counts R * p^C = 1099511627776 * 2^1 exceed"
                      " min(R, p^n) * max(p^n, budget) = 268435456"),
    ("decompose-range", "R = 1099511627776 slices exceed max(p^n, budget) = 16777216"),
])
def test_unbounded_arrays_are_budget_errors(tmp_path, capsys, command, message):
    # each once died allocating TiB to PiB (exit 1); now nothing of that
    # size is allocated: U^40 by sampling, 30 copies of x_1 over F_3^4,
    # whose 3^30 cells dwarf the 81-point domain, and a 16-point table that
    # declares R = 2^40 labels (it holds two), counted per cell of x_1 or
    # as one indicator slice per label (decompose once ran without end)
    g, f3, wide = tmp_path / "g.tab", tmp_path / "f3.tab", tmp_path / "wide.fac"
    r40, x1 = tmp_path / "r40.tab", tmp_path / "x1.fac"
    assert main(["fixture", "random_function", "--n", "4", "--out", str(g)]) == 0
    assert main(["fixture", "random_function", "--p", "3", "--n", "4", "--out", str(f3)]) == 0
    wide.write_text("3 4 30\n" + "1 1 1 0 0 0\n" * 30)
    r40.write_text(f"2 4 {2**40}\n" + " ".join("12" * 8) + "\n")
    x1.write_text("2 4 1\n1 1 1 0 0 0\n")
    argv = {
        "gowers": ["gowers", "--function", str(g), "-k", "40", "--mode", "monte_carlo"],
        "decompose": ["decompose", "--function", str(f3), "--degree", "1", "--base", str(wide),
                      "--out", str(tmp_path / "dec")],
        "cleanup": ["cleanup", "--function", str(f3), "--coarse", str(wide), "--fine", str(wide),
                    "--subcell", "", "--zeta", "0.1", "--out", str(tmp_path / "clean.tab")],
        "cleanup-range": ["cleanup", "--function", str(r40), "--coarse", str(x1), "--fine",
                          str(x1), "--subcell", "", "--zeta", "0.1",
                          "--out", str(tmp_path / "clean.tab")],
        "decompose-range": ["decompose", "--function", str(r40), "--degree", "1",
                            "--out", str(tmp_path / "dec40")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"budget error: {message}\n")


@pytest.mark.parametrize("knob, value", [
    ("--eta", "nan"), ("--delta", "inf"), ("--eta", "-1"), ("--delta", "-0.25"),
])
def test_decompose_rejects_a_bad_constant_delta_or_eta(pinned_inputs, capsys, knob, value):
    argv = ["decompose", "--function", "layer5.tab", "--degree", "1", knob, value,
            "--out", "dec"]
    assert main(argv) == 64
    assert capsys.readouterr().err == (
        f"error: {knob[2:]} must be finite and >= 0, got {float(value)!r}\n"
    )
    assert not Path("dec").exists()


def test_select_subcell_rejects_a_negative_delta(pinned_inputs, capsys):
    # squared, -0.25 once acted as 0.25
    assert main(PINNED["decompose_super.json"][0]) == 0
    capsys.readouterr()
    assert main(["select-subcell", "--function", "layer5.tab", "--result", "dec",
                 "--delta", "-0.25", "--zeta", "0.15"]) == 64
    assert capsys.readouterr().err == "error: delta must be finite and >= 0, got -0.25\n"


@pytest.mark.parametrize("command", ["select-subcell", "cleanup"])
@pytest.mark.parametrize("zeta", ["nan", "-1", "0", "5"])
def test_subcell_commands_reject_zeta_outside_0_1(pinned_inputs, capsys, command, zeta):
    # nan and -1 once exited 2 blaming the certificates, 5 accepted a subcell
    assert main(PINNED["decompose_super.json"][0]) == 0
    doc = json.loads(Path("dec/summary.json").read_text())
    Path("coarse.fac").write_text(doc["factor_coarse"])
    Path("fine.fac").write_text(doc["factor_fine"])
    capsys.readouterr()
    if command == "select-subcell":
        argv = ["select-subcell", "--function", "layer5.tab", "--result", "dec",
                "--delta", "0.25", "--json", "out"]
    else:
        argv = ["cleanup", "--function", "layer5.tab", "--coarse", "coarse.fac",
                "--fine", "fine.fac", "--subcell", "1 1", "--out", "out"]
    assert main(argv + ["--zeta", zeta]) == 64
    assert capsys.readouterr() == ("", f"error: zeta must lie in (0, 1], got {float(zeta)!r}\n")
    assert not Path("out").exists()


def test_decompose_select_cleanup_pipeline(tmp_path, capsys):
    from affinetest import fixtures
    from affinetest.field import save_function_table

    func = tmp_path / "layer.tab"
    save_function_table(fixtures.layered_table(2, 5, 0, deep_cells=1, quarter=True), func)
    dec = tmp_path / "dec"
    assert main([
        "decompose", "--function", str(func), "--mode", "super", "--degree", "1",
        "--delta", "0.25", "--eta", "0.04", "--zeta", "0.15", "--out", str(dec),
    ]) == 0
    assert (dec / "summary.json").exists() and (dec / "trace.jsonl").exists()
    assert main([
        "select-subcell", "--function", str(func), "--result", str(dec),
        "--delta", "0.25", "--zeta", "0.15", "--seed", "2",
    ]) == 0
    sub = capsys.readouterr().out.strip().splitlines()[-1].removeprefix("subcell ")
    doc = json.loads((dec / "summary.json").read_text())
    coarse_file = tmp_path / "coarse.fac"
    fine_file = tmp_path / "fine.fac"
    coarse_file.write_text(doc["factor_coarse"])
    fine_file.write_text(doc["factor_fine"])
    clean = tmp_path / "clean.tab"
    assert main([
        "cleanup", "--function", str(func), "--coarse", str(coarse_file),
        "--fine", str(fine_file), "--subcell", sub, "--zeta", "0.15",
        "--out", str(clean),
    ]) == 0
    f = load_function_table(func)
    g = load_function_table(clean)
    assert np.count_nonzero(f.values != g.values) <= int(5 * 0.15 * 32) + 1


@pytest.mark.parametrize("command", ["decompose", "cleanup"])
def test_factor_over_another_domain_is_usage_error(tmp_path, capsys, command):
    fac = tmp_path / "lin4.fac"
    func = tmp_path / "f5.tab"
    assert main(["fixture", "linear_factor", "--p", "2", "--n", "4", "--count", "2",
                 "--out", str(fac)]) == 0
    save_function_table(fixtures.random_function(2, 5, 2, seed=1), func)
    capsys.readouterr()
    if command == "decompose":
        argv = ["decompose", "--function", str(func), "--degree", "1", "--base", str(fac),
                "--out", str(tmp_path / "dec")]
    else:
        argv = ["cleanup", "--function", str(func), "--coarse", str(fac), "--fine", str(fac),
                "--subcell", "", "--zeta", "0.1", "--out", str(tmp_path / "clean.tab")]
    assert main(argv) == 64
    assert "factor over F_2^4 does not apply to F_2^5" in capsys.readouterr().err


def test_planted_violations_reports_density(tmp_path, capsys):
    out = tmp_path / "planted.tab"
    assert main([
        "fixture", "planted_violations", "--p", "2", "--n", "3", "--flips", "2",
        "--seed", "3", "--out", str(out),
    ]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    # recomputed, not assumed: flips create at least one violating pattern
    assert report["max_density"] > 0


def test_experiment_single_criterion(capsys):
    assert main(["experiment", "--only", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 5" in out


@pytest.mark.parametrize("only", [["12"], ["5", "bogus", "0"]])
def test_experiment_unknown_criteria_are_usage_errors(capsys, only):
    assert main(["experiment", "--only"] + only) == 64
    out, err = capsys.readouterr()
    assert out == ""  # nothing is run
    unknown = [w for w in only if w != "5"]
    assert f"unknown criteria: {', '.join(unknown)}" in err


@pytest.mark.parametrize("table_p, family_p", [(3, 2), (2, 3)])
def test_test_field_mismatch_is_usage_error(tmp_path, capsys, table_p, family_p):
    # a collection over one field never silently tests a table over another
    family = tmp_path / "family.col"
    assert main(["fixture", "blr_constraint", "--p", str(family_p), "--out", str(family)]) == 0
    func = tmp_path / "free.tab"
    assert main(["fixture", "degree_d_table", "--p", str(table_p), "--n", "3",
                 "--degree", "1", "--seed", "1", "--out", str(func)]) == 0
    capsys.readouterr()
    code = main(["test", "--constraints", str(family), "--function", str(func),
                 "--trials", "20", "--seed", "1"])
    assert code == 64
    assert capsys.readouterr().err == (
        f"error: constraint over F_{family_p} does not apply to a table over F_{table_p}^3\n"
    )


@pytest.mark.parametrize("extra", [
    ["--trials", "-3"],
    ["--budget", "0"],
    ["--budget", "-5"],
    ["--seed", "-1"],
    ["--seed", "-1", "--trials", "0"],
])
def test_test_rejects_invalid_arguments(blr_file, free_table, extra):
    argv = ["test", "--constraints", str(blr_file), "--function", str(free_table),
            "--trials", "10", "--seed", "1"]
    assert main(argv + extra) == 64


def test_distance_rejects_nonpositive_budget(free_table):
    for budget in ("0", "-1"):
        argv = ["distance", "--function", str(free_table), "--max-degree", "1",
                "--budget", budget]
        assert main(argv) == 64


def test_distance_negative_degree_is_a_usage_error(free_table, capsys):
    argv = ["distance", "--function", str(free_table), "--max-degree", "-1"]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "degree must be >= 0, got -1" in err and "need at least one array" not in err


def test_distance_over_budget_exits_2(free_table, capsys):
    # 2^(1 + 5 + 10) polynomials of degree <= 2 on F_2^5
    argv = ["distance", "--function", str(free_table), "--max-degree", "2"]
    assert main(argv + ["--budget", str(2**16 - 1)]) == 2
    assert "p^16 = 65536 exceeds budget 65535" in capsys.readouterr().err
    assert main(argv + ["--budget", str(2**16)]) == 0


def _damage(data, text: str) -> str:
    """Cut `text`, replace one of its tokens, or drop or repeat one line."""
    kind = data.draw(st.sampled_from(["cut", "token", "line"]), label="kind")
    if kind == "cut":
        return text[: data.draw(st.integers(0, len(text)), label="cut")]
    if kind == "token":
        tokens = list(re.finditer(r"\S+", text))
        tok = tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")]
        new = data.draw(st.sampled_from(["-1", "0", "1", "2", "3", "4", "7", "x", ""]), label="new")
        return text[: tok.start()] + new + text[tok.end():]
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    repeat = data.draw(st.booleans(), label="repeat")
    return "\n".join(lines[: i + 1] + lines[i:] if repeat else lines[:i] + lines[i + 1:])


@settings(max_examples=150)
@given(data=st.data())
def test_damaged_collection_files_exit_cleanly(tmp_path_factory, data):
    work = tmp_path_factory.getbasetemp() / "damaged"
    work.mkdir(exist_ok=True)
    table = work / "f.tab"
    if not table.exists():
        save_function_table(fixtures.random_function(2, 3, 2, seed=1), table)
    family = fixtures.derivative_collection(data.draw(st.sampled_from([2, 3]), label="p"))
    text = _damage(data, dump_collection(family, 2))
    try:
        parse_collection(text)
        malformed = False
    except ValueError:
        malformed = True
    path = work / "damaged.col"
    path.write_text(text)
    code = main(["test", "--constraints", str(path), "--function", str(table),
                 "--trials", "5", "--seed", "0"])
    assert code == 64 if malformed else code in (0, 1, 2, 64)


@pytest.mark.parametrize("command", [
    ["dimension", "--degrees", "1"],
    ["consistency", "--factor", "unused.fac", "--images", "0"],
])
def test_empty_collection_is_usage_error(tmp_path, command):
    empty = tmp_path / "empty.col"
    empty.write_text("")
    assert main(command[:1] + ["--constraints", str(empty)] + command[1:]) == 64


# (dumped file, its parser, the command that reads it from PATH)
READERS = {
    "function": (dump_function_table(fixtures.random_function(2, 3, 2, seed=1)),
                 parse_function_table, ["distance", "--function", "PATH", "--max-degree", "1"]),
    "real": (dump_real_table(fixtures.random_real_table(2, 3, seed=1)),
             parse_real_table, ["gowers", "--real", "PATH", "-k", "2"]),
    "factor": (dump_factor(fixtures.linear_factor(2, 4, 2, 0)),
               parse_factor, ["factor-stats", "--factor", "PATH"]),
}


def _read_damaged(path, kind, text) -> int:
    """The reader's command exits 64 exactly when the parser rejects the
    text, and 0 otherwise; it never raises."""
    _, parse, argv = READERS[kind]
    try:
        parse(text)
        malformed = False
    except ValueError:
        malformed = True
    path.write_text(text)
    code = main([str(path) if a == "PATH" else a for a in argv])
    assert code == (64 if malformed else 0)
    return code


@pytest.mark.parametrize("kind", sorted(READERS))
def test_truncated_table_and_factor_files_exit_cleanly(tmp_path, kind, capsys):
    text = READERS[kind][0]
    for cut in range(len(text) + 1):
        code = _read_damaged(tmp_path / "cut", kind, text[:cut])
        if cut < len(text.rstrip()) and text[cut].isspace():
            assert code == 64  # whole tokens or lines are missing
    capsys.readouterr()


@settings(max_examples=150)
@given(data=st.data())
def test_damaged_table_and_factor_files_exit_cleanly(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(READERS)), label="kind")
    path = tmp_path_factory.getbasetemp() / f"damaged.{kind}"
    _read_damaged(path, kind, _damage(data, READERS[kind][0]))


@pytest.mark.parametrize("kind,text", [
    ("function", "2 1 2\n1 99999999999999999999\n"),  # label beyond int64
    ("function", "4611686018427388039 0 2\n1\n"),  # p beyond the index type
    ("function", "18446744073709551629 0 2\n1\n"),  # p beyond 64 bits
    ("function", "1000000000000000001 0 2\n1\n"),  # composite p, once a trial-division hang
    ("factor", "2 2 1\n1 1 -1 0\n"),  # negative exponent, once read as 0
    ("factor", "2 2 1\n2 1 1 0 1 1 0\n"),  # repeated monomial, once read as x1
])
def test_unreadable_files_are_usage_errors(tmp_path, capsys, kind, text):
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    argv = [str(path) if a == "PATH" else a for a in READERS[kind][2]]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_huge_prime_table_is_read_at_once(tmp_path, capsys):
    # a prime p near 10^18 loads (n = 0) and the command fails only on R != p
    path = tmp_path / "huge.tab"
    path.write_text("1000000000000000003 0 2\n1\n")
    assert main(["distance", "--function", str(path), "--max-degree", "1"]) == 64
    assert "R = p" in capsys.readouterr().err


@pytest.fixture
def pinned_inputs(tmp_path, monkeypatch):
    """The inputs of the documents under tests/pinned, in the working directory."""
    monkeypatch.chdir(tmp_path)
    for argv in (["blr_constraint", "--out", "blr.col"],
                 ["degree_d_table", "--n", "5", "--seed", "4", "--out", "free.tab"],
                 ["random_function", "--seed", "5", "--out", "far.tab"],
                 ["linear_factor", "--n", "6", "--count", "1", "--seed", "1",
                  "--out", "base.fac"]):
        assert main(["fixture"] + argv) == 0
    save_function_table(fixtures.layered_table(2, 5, 0, deep_cells=1, quarter=True), "layer5.tab")
    save_function_table(fixtures.layered_table(2, 6, 1), "layer6.tab")
    return tmp_path


# pinned document: (the call that writes it, its exit code, where it is
# written); the documents were written before they came from the dataclasses
PINNED = {
    "test_accept.json": (["test", "--constraints", "blr.col", "--function", "free.tab",
                          "--trials", "50", "--json", "out.json"], 0, "out.json"),
    "test_reject.json": (["test", "--constraints", "blr.col", "--function", "far.tab",
                          "--trials", "50", "--json", "out.json"], 1, "out.json"),
    "gowers_exact.json": (["gowers", "--function", "far.tab", "-k", "3", "--json", "out.json"],
                          0, "out.json"),
    "gowers_monte_carlo.json": (["gowers", "--function", "far.tab", "-k", "3", "--mode",
                                 "monte_carlo", "--samples", "500", "--seed", "3",
                                 "--json", "out.json"], 0, "out.json"),
    "decompose_strong_base.json": (["decompose", "--function", "layer6.tab", "--mode", "strong",
                                    "--degree", "1", "--base", "base.fac", "--out", "dec"],
                                   0, "dec/summary.json"),
    "decompose_super.json": (["decompose", "--function", "layer5.tab", "--mode", "super",
                              "--degree", "1", "--delta", "0.25", "--eta", "0.04",
                              "--zeta", "0.15", "--out", "dec"], 0, "dec/summary.json"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_json_documents_are_pinned(pinned_inputs, capsys, name):
    argv, code, written = PINNED[name]
    assert main(argv) == code
    pinned = Path(__file__).parent / "pinned" / name
    assert (pinned_inputs / written).read_bytes() == pinned.read_bytes()


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.clear(), "missing field(s) certificates, certified, factor_coarse"),
    (lambda doc: doc.pop("certified"), "missing field(s) certified"),
    (lambda doc: doc.update(extra=1), "unexpected field(s) extra"),
    (lambda doc: doc["tables"].pop("f2"), "missing field(s) f2"),
    (lambda doc: doc["certificates"].pop("l2_f3"), "missing field(s) l2_f3"),
    (lambda doc: doc["certificates"]["gowers"][0].update(k=3), "unexpected field(s) k"),
    (lambda doc: doc["certificates"]["bias_fine"].pop("exhaustive"),
     "missing field(s) exhaustive"),
    (lambda doc: doc["certificates"].update(gowers=5),
     "certificates: field gowers must be array of object, got integer"),
    (lambda doc: doc["tables"].update(f1=5),
     "tables: field f1 must be array of string, got integer"),
    (lambda doc: doc.update(subcell=5),
     "field subcell must be array of integer or null, got integer"),
    (lambda doc: doc.update(factor_coarse=5), "field factor_coarse must be string, got integer"),
    (lambda doc: doc.update(certified="yes"), "field certified must be boolean, got string"),
], ids=["empty", "no-certified", "extra", "no-f2", "no-l2_f3", "gowers-extra",
        "bias-no-exhaustive", "gowers-number", "f1-number", "subcell-number",
        "factor-number", "certified-string"])
def test_summary_fields_are_checked(pinned_inputs, capsys, edit, named):
    assert main(PINNED["decompose_super.json"][0]) == 0
    summary = pinned_inputs / "dec" / "summary.json"
    doc = json.loads(summary.read_text())
    edit(doc)
    summary.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["select-subcell", "--function", "layer5.tab", "--result", "dec",
                 "--delta", "0.25", "--zeta", "0.15"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and err.count("\n") == 1


def test_select_subcell_exits_2_when_no_subcell_passes(pinned_inputs, capsys):
    assert main(PINNED["decompose_super.json"][0]) == 0
    assert main(["select-subcell", "--function", "layer5.tab", "--result", "dec", "--delta",
                 "0.0001", "--zeta", "0.001", "--max-attempts", "2", "--json", "sel.json"]) == 2
    assert "selection failed: no subcell accepted in 2 attempts" in capsys.readouterr().out
    assert json.loads((pinned_inputs / "sel.json").read_text())["accepted"] is False


@pytest.mark.parametrize("attempts", ["0", "-1"])
def test_select_subcell_rejects_fewer_than_one_attempt(pinned_inputs, capsys, attempts):
    # both once exited 2, "no subcell accepted in -1 attempts", blaming the
    # certificates
    assert main(PINNED["decompose_super.json"][0]) == 0
    capsys.readouterr()
    assert main(["select-subcell", "--function", "layer5.tab", "--result", "dec", "--delta",
                 "0.25", "--zeta", "0.15", "--max-attempts", attempts, "--json", "sel.json"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and f"must be at least 1, got {attempts}" in err
    assert "Traceback" not in err and not Path("sel.json").exists()


def test_strong_decompose_command_extends_its_base(pinned_inputs, capsys):
    base, _ = load_factor("base.fac")
    for out, extra in (("dec", []), ("dec_base", ["--base", "base.fac"])):
        argv = ["decompose", "--function", "layer6.tab", "--degree", "1", "--out", out]
        assert main(argv + extra) == 0
        assert "mode=strong certified=True" in capsys.readouterr().out
        res = load_result(out)
        assert res.factor_coarse == res.factor_fine and res.certified
        assert res.factor_coarse.is_syntactic_refinement_of(base) == bool(extra)


def test_dimension_and_distance_tables_commands(pinned_inputs, capsys):
    assert main(["fixture", "blr_constraint", "--p", "3", "--out", "blr3.col"]) == 0
    for p, path in ((2, "blr.col"), (3, "blr3.col")):
        forms = fixtures.derivative_forms(p).forms
        # one degree d reads dimension_d; several, their sum
        cases = [([str(d)], dimension_d(forms, d)) for d in (1, 2, 3)]
        cases.append((["1", "2"], mixed_dimension(forms, (1, 2))))
        for degrees, want in cases:
            assert main(["dimension", "--constraints", path, "--degrees", *degrees,
                         "--json", "dim.json"]) == 0
            assert json.loads(Path("dim.json").read_text()) == {
                "degrees": [int(d) for d in degrees], "dimension": want}
    save_function_table(fixtures.random_function(2, 4, 2, seed=6), "far2.tab")
    differ, size = disagreement_count(load_function_table("far.tab"),
                                      load_function_table("far2.tab"))
    for tables, distance in ((["far2.tab"], differ / size), (["far2.tab", "far.tab"], 0.0)):
        assert main(["distance", "--function", "far.tab", "--tables", *tables,
                     "--json", "dist.json"]) == 0
        assert json.loads(Path("dist.json").read_text()) == {"distance": distance}


def test_experiment_json_holds_each_result(tmp_path, capsys):
    assert main(["experiment", "--only", "5", "--json", str(tmp_path / "exp.json")]) == 0
    doc = json.loads((tmp_path / "exp.json").read_text())
    (result,) = doc["results"]
    assert sorted(result) == ["detail", "name", "passed", "seconds"] and result["passed"]
    assert list(doc["tolerances"]) == [result["name"]]


def test_factor_and_constraint_fixtures(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["fixture", "random_factor", "--p", "3", "--n", "3", "--count", "2",
                 "--degree", "2", "--seed", "1", "--out", out]) == 0
    factor, params = load_factor(out)
    assert params == FieldParams(3, 3) and [q.degree for q in factor.polys] == [2, 2]
    assert main(["fixture", "blr_constraint", "--p", "3", "--sigma", "1 2 3 1",
                 "--range-size", "3", "--out", out]) == 0
    ic, r = parse_induced_constraint(Path(out).read_text())
    assert ic == fixtures.blr_constraint(3, (1, 2, 3, 1)) and r == 3
    assert main(["fixture", "ap_constraint", "--p", "5", "--count", "3", "--sigma", "1 2 1",
                 "--out", out]) == 0
    ic, r = parse_induced_constraint(Path(out).read_text())
    assert ic == fixtures.ap_constraint(5, 3, (1, 2, 1)) and r == 2
    assert [form.coeffs for form in ic.constraint.forms] == [(1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("argv, message", [
    (["fixture", "random_factor", "--degree", "5"],
     "degree must lie in [0, n(p - 1)] = [0, 4], got 5"),
    (["fixture", "random_factor", "--degree", "-1"],
     "degree must lie in [0, n(p - 1)] = [0, 4], got -1"),
    (["fixture", "degree_d_table", "--degree", "-1"], "degree must be >= 0, got -1"),
    (["fixture", "ap_constraint", "--count", "0"],
     "k-term AP needs 1 <= k <= p for distinct forms, got k = 0"),
    (["cleanup", "--function", "f.tab", "--coarse", "c.fac", "--fine", "f.fac",
      "--subcell", "5", "--zeta", "0.1"], "subcell digits must lie in [0, 2), got 5"),
    (["cleanup", "--function", "f.tab", "--coarse", "c.fac", "--fine", "f.fac",
      "--subcell", "0 0", "--zeta", "0.1"], "subcell needs 1 digit(s), got 2"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # each of these once looped forever, wrote a wrong file or raised a traceback
    monkeypatch.chdir(tmp_path)
    save_function_table(fixtures.random_function(2, 4, 2, seed=1), "f.tab")
    save_factor(fixtures.linear_factor(2, 4, 1, seed=1), "c.fac")
    save_factor(fixtures.linear_factor(2, 4, 2, seed=1), "f.fac")
    assert main(argv + ["--out", "out"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


def test_label_past_int64_never_matches(tmp_path, capsys):
    # a member whose sigma holds a label above R is never induced, however
    # large the label; it once overflowed the tester's int64 sigma table
    col = tmp_path / "big.col"
    col.write_text("2 3 4 2\n1 0 0\n1 1 0\n1 0 1\n1 1 1\n1 1 1 99999999999999999999\n")
    func = tmp_path / "f.tab"
    save_function_table(fixtures.random_function(2, 4, 2, seed=1), func)
    argv = ["test", "--constraints", str(col), "--function", str(func), "--trials", "20"]
    assert main(argv) == 0
    assert "verdict=accept rejections=0/20" in capsys.readouterr().out
