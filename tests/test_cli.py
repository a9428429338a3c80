"""Command-line interface: commands, exit codes, file handling."""

import json
from pathlib import Path

import pytest

from lieq.cli import run_command

DATA = Path(__file__).resolve().parent.parent / "data"

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


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "galilei_central")
    assert code == 0
    assert "generators:" in out
    assert "[KGx, Px] = i*M" in out
    assert "[H, KGx] = -i*Px" in out  # pairs print in generator listing order

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


def test_limit_traditional(capsys):
    code, out, _ = run(capsys, "limit", "traditional")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 24
    assert any("[Kx, Px] = i*m0" in l for l in lines)


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


@pytest.mark.parametrize("case", ["term_cap", "no_coeff", "deep_nesting", "string_generators"])
def test_bad_inputs_exit_2_with_one_line(case, capsys, monkeypatch, tmp_path):
    if case == "term_cap":
        monkeypatch.setenv("LIEQ_TERM_CAP", "abc")
        argv = ["casimir", "verify", "galilei_central", "--all"]
    elif case == "no_coeff":
        brackets = [{"a": "A", "b": "B", "result": [{"gen": "C"}]}]
        argv = ["validate", _algebra_file(tmp_path, brackets=brackets)]
    elif case == "deep_nesting":
        argv = ["casimir", "verify", "galilei_central", "--expr", "(" * 200 + "M" + ")" * 200]
    else:
        argv = ["validate", _algebra_file(tmp_path, generators="ABC")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "catalog")[0] == 2
