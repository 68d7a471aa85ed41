import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinetest import fixtures
from affinetest.cli import main
from affinetest.factor import dump_factor, parse_factor
from affinetest.field import (
    dump_function_table,
    dump_real_table,
    load_function_table,
    parse_function_table,
    parse_real_table,
    save_function_table,
)
from affinetest.forms import dump_collection, parse_collection


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
    err = capsys.readouterr().err
    assert f"F_{family_p}" in err and f"F_{table_p}" in err


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
