"""Command-line interface: commands, exit codes, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieq import CATALOG_NAMES
from lieq.catalog import catalog
from lieq.cli import run_command
from lieq.contraction import STD_FULL_MAP, STD_FULL_RENAME, STD_PE_MAP, STD_PE_RENAME

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

GOOD_ALGEBRA = {
    "name": "su2ish",
    "generators": ["A", "B", "C"],
    "symbols": [],
    "brackets": [
        {"a": "A", "b": "B", "result": [{"coeff": "1", "gen": "C"}]},
        {"a": "B", "b": "C", "result": [{"coeff": "1", "gen": "A"}]},
        {"a": "A", "b": "C", "result": [{"coeff": "-1", "gen": "B"}]},
    ],
}
BAD_ALGEBRA = {
    "name": "broken",
    "generators": ["A", "B", "C"],
    "symbols": [],
    "brackets": [
        {"a": "A", "b": "B", "result": [{"coeff": "1", "gen": "C"}]},
        {"a": "B", "b": "C", "result": [{"coeff": "1", "gen": "A"}]},
        {"a": "A", "b": "C", "result": [{"coeff": "1", "gen": "C"}]},
    ],
}


def run(capsys, *argv):
    code = run_command(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.split()
    assert len(names) == 9
    assert "galilei_central" in names and "poincare_trivial_ext_hbar" in names


@pytest.mark.parametrize("module", ["lieq", "lieq.cli"])
def test_module_entry_point(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    listed = run_module("catalog", "list")
    assert (listed.returncode, listed.stdout.split(), listed.stderr) == (0, list(CATALOG_NAMES), "")
    missing = run_module("validate", "nosuch")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr == "error: 'nosuch' is neither a catalog algebra nor a file\n"


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "galilei_central")
    assert code == 0
    assert "generators:" in out
    assert "[KGx, Px] = i*M" in out
    assert "[H, KGx] = -i*Px" in out  # pairs print in generator listing order

    code, out, _ = run(capsys, "catalog", "show", "u1")
    assert code == 0
    assert out.endswith("generators: Q\nsymbols: eps, c, m0, m, w, t\n"
                        "(abelian: every bracket vanishes)\n")

    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2 and "nope" in err


def test_validate_catalog_and_files(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "galilei_central")
    assert code == 0 and "ok" in out

    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_ALGEBRA))
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_ALGEBRA))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "Jacobi" in out

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2

    code, _, err = run(capsys, "validate", "no_such_thing")
    assert code == 2


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "galilei_central", "KGx", "Px")
    assert code == 0 and out.strip() == "[KGx, Px] = i*M"
    code, out, _ = run(capsys, "bracket", "galilei_central", "Px", "Py")
    assert code == 0 and out.strip() == "[Px, Py] = 0"
    code, _, err = run(capsys, "bracket", "galilei_central", "KGx", "Qx")
    assert code == 2


def test_casimir_verify_all(capsys):
    code, out, _ = run(capsys, "casimir", "verify", "galilei_central", "--all")
    assert code == 0
    for label in ("C1G", "C2G", "C4G"):
        assert label in out
    assert "factored" in out


def test_casimir_verify_expr(capsys):
    code, out, _ = run(capsys, "casimir", "verify", "poincare",
                       "--expr", "H^2 - Px*Px - Py*Py - Pz*Pz")
    assert code == 0 and "commutes" in out

    code, out, _ = run(capsys, "casimir", "verify", "galilei_central",
                       "--expr", "(" * 190 + "M" + ")" * 190)
    assert code == 0 and "commutes" in out  # the deepest nesting accepted

    code, out, _ = run(capsys, "casimir", "verify", "galilei_central", "--expr", "H")
    assert code == 1
    assert "KGx" in out  # witness
    assert "Px" in out  # residue

    code, _, err = run(capsys, "casimir", "verify", "galilei_central", "--expr", "H +")
    assert code == 2

    code, _, err = run(capsys, "casimir", "verify", "galilei_central")
    assert code == 2  # need exactly one of --all / --expr
    code, _, err = run(capsys, "casimir", "verify", "galilei_central",
                       "--all", "--expr", "M")
    assert code == 2


@pytest.mark.parametrize("command, expected", [
    (("verify", "galilei_central"), "PASS: element commutes"),
    (("contract", "poincare_trivial_ext_hbar", "--map", str(DATA / "std.json")), "limit = -Mp"),
])
def test_expr_value_may_start_with_minus(command, expected, capsys):
    code, out, err = run(capsys, "casimir", *command, "--expr", "-M")
    assert code == 0 and err == ""
    assert expected in out


def test_casimir_expr_accepts_catalog_labels(capsys):
    code, out, _ = run(capsys, "casimir", "verify", "poincare", "--expr", "C4P")
    assert code == 0 and "commutes" in out

    code, out, _ = run(capsys, "casimir", "contract", "poincare_trivial_ext_hbar",
                       "--map", str(DATA / "std.json"), "--expr", "C2PE")
    assert code == 0
    assert "power 4" in out
    assert "Mp^2" in out


def test_contract_with_check(capsys):
    code, out, _ = run(
        capsys, "contract", "poincare_trivial_ext",
        "--map", str(DATA / "std.json"),
        "--check-against", "galilei_central",
        "--rename", str(DATA / "std-rename.json"),
    )
    assert code == 0
    assert "shifted energy" in out  # preprocessing note
    assert "tables match" in out


def test_contract_with_check_lists_differences(capsys, tmp_path):
    # Swapping the Pxp and Pyp targets of the standard renaming breaks 14
    # brackets; rows follow the contracted table's basis order, zero sides too.
    renaming = json.loads((DATA / "std-rename.json").read_text())
    renaming["Pxp"], renaming["Pyp"] = renaming["Pyp"], renaming["Pxp"]
    swapped = tmp_path / "swapped-rename.json"
    swapped.write_text(json.dumps(renaming))
    code, out, _ = run(
        capsys, "contract", "poincare_trivial_ext",
        "--map", str(DATA / "std.json"),
        "--check-against", "galilei_central",
        "--rename", str(swapped),
    )
    assert code == 1
    assert out.splitlines()[1:] == [
        "tables differ in 14 brackets:",
        "  [H, KGx]: got -i*Py, expected -i*Px",
        "  [H, KGy]: got -i*Px, expected -i*Py",
        "  [Jx, Py]: got 0, expected i*Pz",
        "  [Jx, Px]: got i*Pz, expected 0",
        "  [Jx, Pz]: got -i*Px, expected -i*Py",
        "  [Jy, Py]: got -i*Pz, expected 0",
        "  [Jy, Px]: got 0, expected -i*Pz",
        "  [Jy, Pz]: got i*Py, expected i*Px",
        "  [Jz, Py]: got i*Px, expected -i*Px",
        "  [Jz, Px]: got -i*Py, expected i*Py",
        "  [KGx, Py]: got i*M, expected 0",
        "  [KGx, Px]: got 0, expected i*M",
        "  [KGy, Py]: got 0, expected i*M",
        "  [KGy, Px]: got i*M, expected 0",
    ]


@pytest.mark.parametrize("filename, mapping", [
    ("std.json", STD_PE_MAP), ("std-rename.json", STD_PE_RENAME),
    ("std-full.json", STD_FULL_MAP), ("std-full-rename.json", STD_FULL_RENAME),
])
def test_map_files_match_the_standard_maps(filename, mapping):
    # the files the CLI examples pass to --map and --rename, key order included
    loaded = json.loads((DATA / filename).read_text())
    assert list(loaded.items()) == list(mapping.items())


def test_contract_prints_table(capsys):
    code, out, _ = run(capsys, "contract", "poincare_trivial_ext_hbar",
                       "--map", str(DATA / "std.json"))
    assert code == 0
    assert "[KPxp, Pxp] = i*Mp" in out


def test_contract_divergent_and_bad_map(capsys, tmp_path):
    bad = tmp_path / "bad-map.json"
    bad.write_text(json.dumps({"H": 0, "Jx": 1, "Jy": 1, "Jz": 1,
                               "KPx": 0, "KPy": 0, "KPz": 0,
                               "Px": 0, "Py": 0, "Pz": 0}))
    code, out, _ = run(capsys, "contract", "poincare", "--map", str(bad))
    assert code == 1 and "diverges" in out

    short = tmp_path / "short-map.json"
    short.write_text(json.dumps({"H": 0}))
    code, _, err = run(capsys, "contract", "poincare", "--map", str(short))
    assert code == 2

    code, _, err = run(capsys, "contract", "poincare", "--map",
                       str(tmp_path / "missing.json"))
    assert code == 2

    missing_rename = run(capsys, "contract", "poincare_trivial_ext_hbar",
                         "--map", str(DATA / "std.json"),
                         "--check-against", "galilei_central")
    assert missing_rename[0] == 2


def test_casimir_contract(capsys):
    base = ("casimir", "contract", "poincare_trivial_ext_hbar",
            "--map", str(DATA / "std.json"))
    code, out, _ = run(capsys, *base, "--expr", "M")
    assert code == 0
    assert "power 2" in out and "Mp" in out

    code, out, _ = run(capsys, *base, "--expr", "M", "--power", "1")
    assert code == 1 and "pole" in out

    code, out, _ = run(capsys, *base, "--expr", "M", "--power", "5")
    assert code == 0
    assert "zero" in out

    code, _, err = run(capsys, *base, "--expr", "M", "--power", "two")
    assert code == 2

    # the automatic power has no window: C1PE^6 needs eps^12
    code, out, _ = run(capsys, *base, "--expr", "M^6")
    assert code == 0
    assert out.splitlines() == ["power 12", "limit = Mp^6"]


def test_limit_traditional(capsys):
    code, out, _ = run(capsys, "limit", "traditional")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 24
    assert any("[Kx, Px] = i*m0" in l for l in lines)


@pytest.mark.parametrize("argv, fail_lines", [
    (("casimir", "verify", "galilei_central", "--all"),
     ["FAIL C2G (verbatim ordering): witness KGx, residue -2*i*Px*M",
      "FAIL C4G (factored ordering): witness Jy, residue -2*KGx*Pz*M - 2*KGz*Px*M"]),
    (("limit", "traditional"), ["FAIL [Kx, Px] = -i*m0 [residue: 2*i*m0]"]),
], ids=["casimir_verify_all", "limit_traditional"])
def test_a_wrong_sign_prints_fail_lines(argv, fail_lines, capsys, monkeypatch):
    flipped = catalog("galilei_central").flip_sign("KGx", "Px", "M")
    monkeypatch.setitem(sys.modules["lieq.catalog"]._CACHE, "galilei_central", flipped)
    monkeypatch.setattr(sys.modules["lieq.casimirs"], "_CATALOG_CACHE", {})
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == fail_lines


def test_mhi_commands(capsys):
    code, out, _ = run(capsys, "mhi", "show", "full_relativistic")
    assert code == 0
    assert "observables: M, S2, Q" in out
    assert "C2PE" in out

    code, _, err = run(capsys, "mhi", "show", "poincare")
    assert code == 2

    code, out, _ = run(capsys, "mhi", "nparticle", "3")
    assert code == 0
    assert "3*m0" in out and "ParticleNumber" in out and "3" in out

    code, _, err = run(capsys, "mhi", "nparticle", "0")
    assert code == 2
    code, _, err = run(capsys, "mhi", "nparticle", "x")
    assert code == 2


def test_report_paper(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "paper", "--format", "json",
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["counts"]["fail"] == 0
    assert any(c["name"].startswith("validate ") for c in doc["checks"])

    code, out, _ = run(capsys, "report", "paper")
    assert code == 0
    assert "PASS validate galilei_central" in out


def test_term_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("LIEQ_TERM_CAP", "2")
    code, out, _ = run(capsys, "casimir", "verify", "galilei_central", "--all")
    assert code == 1
    assert "cap" in out.lower()


def _algebra_file(tmp_path, **fields):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(dict(GOOD_ALGEBRA, **fields)))
    return str(path)


@pytest.mark.parametrize(
    "case", ["term_cap", "no_coeff", "deep_nesting", "string_generators", "unwritable_out",
             "exponent_expr", "exponent_squared", "exponent_json", "exponent_map"])
def test_bad_inputs_exit_2_with_one_line(case, capsys, monkeypatch, tmp_path):
    # scalar exponents must lie in [-2^32, 2^32)
    if case == "exponent_expr":
        argv = ["casimir", "verify", "poincare", "--expr", "(c^4294967296)*H"]
    elif case == "exponent_squared":
        argv = ["casimir", "verify", "poincare", "--expr", "(c^2147483648)^2*H"]
    elif case == "exponent_json":
        brackets = [{"a": "A", "b": "B", "result": [{"coeff": "c^4294967296", "gen": "C"}]}]
        argv = ["validate", _algebra_file(tmp_path, symbols=["c"], brackets=brackets)]
    elif case == "exponent_map":
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(dict(STD_PE_MAP, M=2 ** 40)))
        argv = ["casimir", "contract", "poincare_trivial_ext_hbar", "--map", str(huge),
                "--expr", "M"]
    elif case == "term_cap":
        monkeypatch.setenv("LIEQ_TERM_CAP", "abc")
        argv = ["casimir", "verify", "galilei_central", "--all"]
    elif case == "no_coeff":
        brackets = [{"a": "A", "b": "B", "result": [{"gen": "C"}]}]
        argv = ["validate", _algebra_file(tmp_path, brackets=brackets)]
    elif case == "deep_nesting":
        argv = ["casimir", "verify", "galilei_central", "--expr", "(" * 200 + "M" + ")" * 200]
    elif case == "unwritable_out":
        argv = ["report", "paper", "--out", str(tmp_path / "missing" / "r.json")]
    else:
        argv = ["validate", _algebra_file(tmp_path, generators="ABC")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("2^32" in err) == case.startswith("exponent")


@pytest.mark.parametrize("first, second", [
    (("A", "B", "1"), ("A", "B", "1")),
    (("A", "B", None), ("B", "A", "-1")),
    (("A", "B", "1"), ("B", "A", None)),
], ids=["same_order", "empty_then_reversed", "nonzero_then_reversed_empty"])
def test_validate_a_pair_given_twice_exits_2_with_one_line(first, second, capsys, tmp_path):
    # each pair is given at most once, in either order, empty or not
    def entry(a, b, coeff):
        return {"a": a, "b": b, "result": [{"coeff": coeff, "gen": "C"}] if coeff else []}

    brackets = GOOD_ALGEBRA["brackets"][1:] + [entry(*first), entry(*second)]
    code, out, err = run(capsys, "validate", _algebra_file(tmp_path, brackets=brackets))
    assert (code, out) == (2, "")
    assert err == "error: bracket (%s,%s) given twice\n" % second[:2]


@pytest.mark.parametrize("symbols", [["s", "s"], ["i"]], ids=["symbol_twice", "symbol_i"])
def test_validate_bad_symbols_exit_2_with_one_line(symbols, capsys, tmp_path):
    code, out, err = run(capsys, "validate", _algebra_file(tmp_path, symbols=symbols))
    assert (code, out) == (2, "")
    assert err == "error: scalar symbols of 'su2ish' must be distinct and not 'i'\n"


def test_validate_a_file_with_many_symbols(tmp_path):
    # One coefficient sums n symbols.  A child process validates each file, so
    # their symbols stay out of this one's registry, whose limit is 1,024 fields:
    # the 6 defaults and 1,018 more.
    def validate(n):
        symbols = ["s%d" % k for k in range(n)]
        brackets = [{"a": "A", "b": "B", "result": [{"coeff": "+".join(symbols), "gen": "C"}]}]
        path = tmp_path / ("many%d.json" % n)
        path.write_text(json.dumps(dict(GOOD_ALGEBRA, symbols=symbols, brackets=brackets)))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "lieq", "validate", str(path)], env=env,
                              capture_output=True, text=True, timeout=60)

    done = validate(1000)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "su2ish: ok (3 generators, antisymmetry and Jacobi hold)\n"
    over = validate(1019)
    assert (over.returncode, over.stdout) == (2, "")
    assert over.stderr == "error: too many symbols: at most 1024 distinct symbols per process\n"


def test_validate_reports_a_bad_coefficient_before_a_pair_given_twice(capsys, tmp_path):
    # entries are parsed for shape and coefficients before names and pairs are checked
    brackets = GOOD_ALGEBRA["brackets"][:1] + GOOD_ALGEBRA["brackets"] + [
        {"a": "B", "b": "C", "result": [{"coeff": "1/0", "gen": "A"}]}]
    code, out, err = run(capsys, "validate", _algebra_file(tmp_path, brackets=brackets))
    assert (code, out) == (2, "")
    assert err == "error: bad coefficient '1/0': division by zero (line 1, column 3)\n"


@pytest.mark.parametrize("command", ["contract", "casimir contract"])
@pytest.mark.parametrize("generator, exponent",
                         [("M", 2 ** 40), ("KPx", -2 ** 33), ("M", 2 ** 128)],
                         ids=["M=2^40", "KPx=-2^33", "M=2^128"])
def test_a_map_exponent_out_of_range_exits_2_with_one_line(command, generator, exponent, capsys,
                                                           tmp_path):
    # 2^128 would carry a shift into the next symbol's exponent instead of failing
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(STD_PE_MAP, **{generator: exponent})))
    argv = command.split() + ["poincare_trivial_ext_hbar", "--map", str(huge)]
    if command != "contract":
        argv += ["--expr", "M"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: exponent out of range: exponents must lie in [-2^32, 2^32)\n"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "catalog")[0] == 2


@pytest.mark.parametrize("argv", [
    ["casimir", "contract", "poincare", "--map", str(DATA / "std.json"), "--expr", "M",
     "--power", "two"],
    ["contract", "poincare"],
    [],
], ids=["bad_power", "missing_map", "missing_command"])
def test_usage_errors_are_one_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
