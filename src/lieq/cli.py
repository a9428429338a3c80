"""Command-line front end: catalog browsing, checks, contractions, reports.

Exit codes: 0 when every requested check passes, 1 when a check fails or a
limit genuinely diverges, 2 on usage, parse, or file errors.  The
LIEQ_TERM_CAP environment variable overrides the rewriting term budget.
"""

import argparse
import sys
import warnings
from functools import cache
from pathlib import Path

from lieq.algebra import AlgebraError
from lieq.casimirs import casimir_catalog, casimir_entries
from lieq.catalog import CATALOG_NAMES, _json_doc, algebra_from_json, catalog
from lieq.contraction import (
    ContractionError,
    DivergentContraction,
    DivergentLimit,
    ZeroLimitWarning,
    contract,
    contract_casimir,
    tables_equal,
)
from lieq.expr import ExprError, parse_element
from lieq.limits import traditional_limit_report
from lieq.mhi import MHIError, actual_valued_observables, n_particle_labels
from lieq.report import report_paper
from lieq.scalars import ScalarError
from lieq.uea import DEFAULT_TERM_CAP, TermBudgetExceeded, UEAError, format_sum, is_casimir

__all__ = ["run_command", "main"]


# -- formatting helpers ----------------------------------------------------------

def _print_table(alg):
    print("algebra %s (dimension %d)" % (alg.name, alg.dim))
    print("generators: %s" % ", ".join(alg.generators))
    if alg.symbols:
        print("symbols: %s" % ", ".join(alg.symbols))
    shown = False
    for (a, b), combo in alg.nonzero_brackets():
        print("[%s, %s] = %s" % (a, b, format_sum(combo.items())))
        shown = True
    if not shown:
        print("(abelian: every bracket vanishes)")


def _read_text(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise AlgebraError("cannot read %s: %s" % (path, e)) from None


def _load_map(path, value_type, what):
    """A JSON object from generator names to value_type values (bools rejected)."""
    doc = _json_doc(_read_text(path), path)
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, value_type) and not isinstance(v, bool)
        for k, v in doc.items()
    ):
        raise AlgebraError("%s must map generator names to %s" % (path, what))
    return doc


def _resolve_contraction_source(name, mapping):
    """Swap in the shifted-energy basis when the map is keyed on Hb."""
    alg = catalog(name)
    if name == "poincare_trivial_ext" and "Hb" in mapping and "Hb" not in alg.generators:
        alg = catalog("poincare_trivial_ext_hbar")
        print("note: map is keyed on Hb; switching to the shifted energy "
              "basis (Hb = H - M)")
    return alg


# -- command handlers ------------------------------------------------------------

def _cmd_catalog_list(args):
    for name in CATALOG_NAMES:
        print(name)
    return 0


def _cmd_catalog_show(args):
    _print_table(catalog(args.name))
    return 0


def _cmd_validate(args):
    target = args.target
    if target in CATALOG_NAMES:
        alg = catalog(target)
    elif Path(target).is_file():
        alg = algebra_from_json(_read_text(target))
    else:
        print("error: %r is neither a catalog algebra nor a file" % target,
              file=sys.stderr)
        return 2
    report = alg.validate()
    if report.ok:
        print("%s: ok (%d generators, antisymmetry and Jacobi hold)"
              % (alg.name, alg.dim))
        return 0
    for (a, b, c), residues in report.jacobi:
        print("Jacobi fails on (%s, %s, %s): residue on %s"
              % (a, b, c, ", ".join(sorted(residues))))
    for issue in report.issues:
        print(issue)
    return 1


def _cmd_bracket(args):
    alg = catalog(args.name)
    combo = alg.bracket(args.gen_a, args.gen_b)
    print("[%s, %s] = %s" % (args.gen_a, args.gen_b, format_sum(combo.items())))
    return 0


def _element_arg(alg, text):
    """Resolve an --expr value: a Casimir catalog label wins, else parse it."""
    label = text.strip()
    try:
        entries = casimir_entries(alg.name)
    except AlgebraError:
        entries = {}
    if label in entries:
        return entries[label]
    return parse_element(alg, text)


def _cmd_casimir_verify(args):
    if bool(args.all) == (args.expr is not None):
        print("error: give exactly one of --all or --expr", file=sys.stderr)
        return 2
    alg = catalog(args.name)
    if args.all:
        failures = 0
        for entry in casimir_catalog(args.name):
            verdict = is_casimir(entry.element)
            if verdict.ok:
                print("PASS %s (%s ordering)" % (entry.label, entry.ordering))
            else:
                failures += 1
                print("FAIL %s (%s ordering): witness %s, residue %s"
                      % (entry.label, entry.ordering, verdict.witness,
                         verdict.residue))
        return 1 if failures else 0
    element = _element_arg(alg, args.expr)
    verdict = is_casimir(element)
    if verdict.ok:
        print("PASS: element commutes with every generator of %s" % args.name)
        return 0
    print("FAIL: witness %s, residue %s" % (verdict.witness, verdict.residue))
    return 1


def _cmd_contract(args):
    if args.check_against is not None and args.rename is None:
        print("error: --check-against requires --rename", file=sys.stderr)
        return 2
    mapping = _load_map(args.map, int, "integers")
    alg = _resolve_contraction_source(args.name, mapping)
    con = contract(alg, mapping)
    if args.check_against is None:
        _print_table(con)
        return 0
    target = catalog(args.check_against)
    renaming = _load_map(args.rename, str, "generator names")
    ok, diff = tables_equal(con, target, renaming)
    if ok:
        print("tables match: %s contracts onto %s" % (alg.name, target.name))
        return 0
    print("tables differ in %d brackets:" % len(diff))
    for row in diff:
        print("  [%s, %s]: got %s, expected %s"
              % (row.pair_b[0], row.pair_b[1], format_sum(row.left.items()),
                 format_sum(row.right.items())))
    return 1


def _cmd_casimir_contract(args):
    mapping = _load_map(args.map, int, "integers")
    alg = _resolve_contraction_source(args.name, mapping)
    element = _element_arg(alg, args.expr)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        limit, used = contract_casimir(element, mapping, args.power)
    for w in caught:
        if issubclass(w.category, ZeroLimitWarning):
            print("warning: %s" % w.message)
    print("power %d" % used)
    print("limit = %s" % limit)
    return 0


def _cmd_limit_traditional(args):
    rows = traditional_limit_report()
    failures = 0
    for row in rows:
        if row.ok:
            print("PASS %s" % row.name)
        else:
            failures += 1
            print("FAIL %s [residue: %s]" % (row.name, row.residue))
    print("%d identities, %d failed" % (len(rows), failures))
    return 1 if failures else 0


def _cmd_mhi_show(args):
    descriptor = actual_valued_observables(args.group)
    print("group %s" % descriptor.group)
    for row in descriptor.rows:
        print("  %s: observable %s with eigenvalue %s (key %s)"
              % (row.casimir, row.observable, row.eigenvalue, row.key))
    print("observables: %s" % ", ".join(descriptor.observables()))
    return 0


def _cmd_mhi_nparticle(args):
    labels = n_particle_labels(args.n)
    for obs in (labels.mass, labels.spin, labels.charge, labels.number):
        print("%s: %s -> %s" % (obs.name, obs.operator, obs.label))
    print("note: %s" % labels.note)
    return 0


def _cmd_report_paper(args):
    report = report_paper()
    body = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            Path(args.out).write_text(body)
        except OSError as e:
            raise AlgebraError("cannot write %s: %s" % (args.out, e)) from None
        counts = report.counts()
        print("report written to %s (%d passed, %d failed, %d warnings)"
              % (args.out, counts["pass"], counts["fail"], counts["warn"]))
    else:
        sys.stdout.write(body)
    return 0 if report.all_pass else 1


# -- parser ----------------------------------------------------------------------

def _power_arg(text):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "power must be an integer or 'auto', got %r" % text) from None


class _Parser(argparse.ArgumentParser):
    """Usage errors print one stderr line, "error: <message>", and exit 2.

    Subparsers are made with the same class, so the rule holds at every level.
    """

    def error(self, message):
        self.exit(2, "error: %s\n" % " ".join(message.splitlines()))


@cache
def _build_parser():
    """The one parser of this process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="lieq",
        description="Exact kinematical Lie algebra toolkit: tables, Casimir "
                    "checks, contractions, and the full reproduction report.",
        epilog="Environment: LIEQ_TERM_CAP overrides the rewriting term budget "
               "(default %d)." % DEFAULT_TERM_CAP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="browse the algebra catalog")
    catalog_sub = p_catalog.add_subparsers(dest="subcommand", required=True)
    p = catalog_sub.add_parser("list", help="list catalog algebra names")
    p.set_defaults(func=_cmd_catalog_list)
    p = catalog_sub.add_parser("show", help="print one algebra's table")
    p.add_argument("name")
    p.set_defaults(func=_cmd_catalog_show)

    p = sub.add_parser("validate", help="check antisymmetry and Jacobi")
    p.add_argument("target", help="catalog name or algebra JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bracket", help="print one bracket")
    p.add_argument("name")
    p.add_argument("gen_a")
    p.add_argument("gen_b")
    p.set_defaults(func=_cmd_bracket)

    p_casimir = sub.add_parser("casimir", help="Casimir checks and contractions")
    casimir_sub = p_casimir.add_subparsers(dest="subcommand", required=True)
    p = casimir_sub.add_parser("verify", help="verify Casimir candidates")
    p.add_argument("name")
    p.add_argument("--all", action="store_true",
                   help="verify every catalog Casimir of the algebra")
    p.add_argument("--expr",
                   help="verify one element: a catalog label (C2G, C4PE, ...) "
                        "or an expression in the generators")
    p.set_defaults(func=_cmd_casimir_verify)
    p = casimir_sub.add_parser("contract", help="contract one element")
    p.add_argument("name")
    p.add_argument("--map", required=True, help="JSON file: generator -> exponent")
    p.add_argument("--expr", required=True,
                   help="element to contract: a catalog label (C1PE, C2PE, ...) "
                        "or an expression in the generators")
    p.add_argument("--power", type=_power_arg, default="auto")
    p.set_defaults(func=_cmd_casimir_contract)

    p = sub.add_parser("contract", help="contract an algebra")
    p.add_argument("name")
    p.add_argument("--map", required=True, help="JSON file: generator -> exponent")
    p.add_argument("--check-against", dest="check_against",
                   help="catalog algebra the result should match")
    p.add_argument("--rename", help="JSON file: contracted name -> target name")
    p.set_defaults(func=_cmd_contract)

    p_limit = sub.add_parser("limit", help="realized limit checks")
    limit_sub = p_limit.add_subparsers(dest="subcommand", required=True)
    p = limit_sub.add_parser("traditional", help="low-velocity boost identities")
    p.set_defaults(func=_cmd_limit_traditional)

    p_mhi = sub.add_parser("mhi", help="observable descriptors")
    mhi_sub = p_mhi.add_subparsers(dest="subcommand", required=True)
    p = mhi_sub.add_parser("show", help="observables of a group")
    p.add_argument("group")
    p.set_defaults(func=_cmd_mhi_show)
    p = mhi_sub.add_parser("nparticle", help="n-particle labels")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_mhi_nparticle)

    p_report = sub.add_parser("report", help="one-shot reproduction report")
    report_sub = p_report.add_subparsers(dest="subcommand", required=True)
    p = report_sub.add_parser("paper", help="run the full pipeline")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=_cmd_report_paper)

    return parser


def _glue_expr_values(argv):
    """Rewrite each `--expr VALUE` as `--expr=VALUE`, so VALUE may start with "-"."""
    argv = list(argv)
    for k in range(len(argv) - 2, -1, -1):
        if argv[k] == "--expr":
            argv[k:k + 2] = ["--expr=" + argv[k + 1]]
    return argv


def run_command(argv):
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_expr_values(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (DivergentContraction, DivergentLimit, TermBudgetExceeded) as e:
        print("error: %s" % e)
        return 1
    except (ExprError, AlgebraError, ContractionError, MHIError, ScalarError, UEAError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
