"""Seeded inputs and checked ops for the three workloads.

Each `*_ops` function turns a `random.Random` into a list of ops, one pass of
the workload.  An op is `(kind, input, run)`: `input` describes the generated
input, and `run()` does one report, one query or one table task and returns
True only when its result matches the known answer.
Everything the checks compare against (expected witnesses, residues,
offenders, powers, inverse matrices) is computed here, before any timing.

The seed draws values: axes, coefficients, which generator or map.  The
slot tables below fix the size mix (kinds, algebras, degrees, matrix
layouts), so every seed gives a pass of the same shape and about the same
cost.

lieq is reached through module attributes at call time (`lieq.is_casimir`,
`cli.run_command`) so that a traced run sees its wrappers.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import lieq
import lieq.cli as cli

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
GOLDEN_REPORT = HERE / "golden_report.json"

CASIMIR_GROUPS = (
    "galilei_central", "poincare", "poincare_trivial_ext",
    "poincare_trivial_ext_hbar", "u1", "full_relativistic", "full_nonrelativistic",
)

# Fault injection for the self-test: the report's validation step and one
# table task see this sign-flipped constant.
FAULT = ("poincare", "KPx", "Px", "H")


def setup():
    """Everything a workload needs before its first op; timed as setup_s."""
    for name in lieq.CATALOG_NAMES:
        lieq.catalog(name)
    for name in CASIMIR_GROUPS:
        lieq.casimir_catalog(name)


# -- report -------------------------------------------------------------------

_ELAPSED = re.compile(r'"elapsed_seconds": [-+.0-9eE]+')


def normalized_report_json(report):
    return _ELAPSED.sub('"elapsed_seconds": 0', report.to_json())


def report_ops(rng, fault=False):
    """One op: the whole paper report.  The workload has no inputs."""
    golden = GOLDEN_REPORT.read_text()
    fault_arg = FAULT if fault else None

    def run():
        report = lieq.report_paper(fault=fault_arg)
        return (report.counts() == {"pass": 80, "fail": 0, "warn": 0}
                and normalized_report_json(report) == golden)

    return [("report", "report_paper()", run)]


# -- straighten -----------------------------------------------------------------

# (algebra, generator patterns, degree): x = a sum of the generators with
# random coefficients, checked as x^n == x^(n-1)*x == x*x^(n-1).  {a} and {b}
# are two distinct axes drawn from AXIS_PAIRS.
#
# In each of these pairs the third axis sorts after {b}.  A bracket such as
# [Ja, KPb] = i*eps_abc*KPc then always creates a generator on the same side
# of KPb in basis order, so the rewriting work of a slot, not just its
# bracket structure, is the same for every seed.
AXIS_PAIRS = (("x", "y"), ("y", "x"), ("z", "x"))
POWER_SLOTS = (
    ("poincare", ("H", "KP{a}"), 9),
    ("poincare", ("KP{a}", "P{a}"), 8),
    ("poincare", ("J{a}", "KP{b}"), 8),
    ("poincare", ("KP{a}", "KP{b}"), 7),
    ("poincare", ("H", "KP{a}", "P{a}"), 6),
    ("poincare", ("H", "KP{a}"), 7),
    ("poincare", ("J{a}", "P{b}"), 7),
    ("galilei_central", ("H", "KG{a}"), 12),
    ("galilei_central", ("J{a}", "KG{b}"), 10),
    ("galilei_central", ("KG{a}", "P{a}", "H"), 8),
    ("galilei_central", ("J{a}", "P{b}"), 8),
    ("poincare_trivial_ext_hbar", ("Hb", "KP{a}"), 8),
    ("poincare_trivial_ext_hbar", ("M", "KP{a}", "P{a}"), 7),
    ("poincare_trivial_ext_hbar", ("J{a}", "KP{b}"), 6),
    ("heisenberg3", ("X{a}", "P{a}"), 16),
    ("heisenberg3", ("X{a}", "P{a}", "X{b}", "P{b}"), 8),
)

# (algebra, factor labels): a multiple of a product of catalog Casimirs,
# parsed from their printed form; is_casimir must hold.
CASIMIR_SLOTS = (
    ("poincare", ("C2P", "C4P")),
    ("poincare", ("C4P", "C4P")),
    ("galilei_central", ("C2G", "C4G")),
    ("galilei_central", ("C4G", "C4G")),
    ("galilei_central", ("C1G", "C2G")),
    ("poincare_trivial_ext_hbar", ("C2PE", "C4PE")),
    ("poincare_trivial_ext_hbar", ("C1PE", "C4PE")),
)

# (algebra, factor labels, witness): the same products plus one generator
# whose first non-commuting generator in basis order is the witness, so
# is_casimir must fail there with residue coeff*[G, witness].
NONCENTRAL_SLOTS = (
    ("poincare", ("C2P", "C4P"), "Jx"),
    ("poincare", ("C4P", "C4P"), "H"),
    ("galilei_central", ("C2G", "C4G"), "Jx"),
    ("galilei_central", ("C4G", "C4G"), "Jx"),
    ("poincare_trivial_ext_hbar", ("C2PE", "C4PE"), "Hb"),
    ("poincare_trivial_ext_hbar", ("C1PE", "C4PE"), "Jx"),
)

# (algebra, count): Jacobi and antisymmetry of random quadratic elements.
# These are the light queries.  Their number sets where the median op falls:
# with 10 of them it lands among powers and Casimir products of nearly equal
# cost (about 6000 scalar operations and rewrite steps each), whatever the seed.
JACOBI_SLOTS = (
    ("poincare", 3),
    ("galilei_central", 2),
    ("poincare_trivial_ext_hbar", 3),
    ("heisenberg3", 2),
)


def _coeff(rng):
    """A random nonzero Gaussian integer n, -n, n*i or -n*i with 2 <= n <= 29.

    Coefficients from a wide range make accidental cancellations, and so
    seed-dependent amounts of work, rare.
    """
    n = rng.randint(2, 29)
    return rng.choice(("%d", "-%d", "%d*i", "-%d*i")) % n


def _term(coeff, word):
    if coeff == "1":
        return word
    if coeff == "-1":
        return "-" + word
    return coeff + "*" + word


def _random_sum(rng, words):
    return " + ".join(_term(_coeff(rng), w) for w in words)


def _power_op(alg, base, n):
    def run():
        x = lieq.parse_element(alg, base)
        xn = lieq.parse_element(alg, "(%s)^%d" % (base, n))
        xm = lieq.parse_element(alg, "(%s)^%d" % (base, n - 1))
        return xn == xm * x and xn == x * xm

    return ("power", "%s: (%s)^%d" % (alg.name, base, n), run)


def _product_text(rng, entries, labels):
    a, b = (str(entries[label]) for label in labels)
    if a == b and rng.random() < 0.5:
        body = "(%s)^2" % a
    else:
        body = "(%s)*(%s)" % (a, b)
    return _term(_coeff(rng), "(%s)" % body)


def _casimir_op(alg, text):
    def run():
        return lieq.is_casimir(lieq.parse_element(alg, text)).ok

    return ("casimir", "%s: %s" % (alg.name, text), run)


def _first_partner(alg, g):
    return next((h for h in alg.generators if alg.bracket(g, h)), None)


def _noncentral_op(rng, alg, entries, labels, witness):
    candidates = [g for g in alg.generators if _first_partner(alg, g) == witness]
    g = rng.choice(candidates)
    coeff = _coeff(rng)
    text = "%s + %s" % (_product_text(rng, entries, labels), _term(coeff, g))
    c = lieq.parse_scalar(coeff)
    expected = lieq.UEAElement.from_terms(
        alg, {(d,): c * v for d, v in alg.bracket(g, witness).items()})

    def run():
        verdict = lieq.is_casimir(lieq.parse_element(alg, text))
        return not verdict.ok and verdict.witness == witness and verdict.residue == expected

    return ("noncentral", "%s: %s" % (alg.name, text), run)


def _jacobi_op(rng, alg):
    gens = alg.generators
    texts = [
        "%s + %s" % (_term(_coeff(rng), "%s*%s" % tuple(rng.choices(gens, k=2))),
                     _term(_coeff(rng), rng.choice(gens)))
        for _ in range(3)
    ]

    def run():
        x, y, z = (lieq.parse_element(alg, t) for t in texts)
        br = lieq.commutator
        jacobi = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
        return jacobi.is_zero() and (br(x, y) + br(y, x)).is_zero()

    return ("jacobi", "%s: %s" % (alg.name, "; ".join(texts)), run)


def straighten_ops(rng, fault=False):
    ops = []
    for name, patterns, n in POWER_SLOTS:
        a, b = rng.choice(AXIS_PAIRS)
        words = [p.format(a=a, b=b) for p in patterns]
        ops.append(_power_op(lieq.catalog(name), _random_sum(rng, words), n))
    for name, labels in CASIMIR_SLOTS:
        text = _product_text(rng, lieq.casimir_entries(name), labels)
        ops.append(_casimir_op(lieq.catalog(name), text))
    for name, labels, witness in NONCENTRAL_SLOTS:
        alg = lieq.catalog(name)
        ops.append(_noncentral_op(rng, alg, lieq.casimir_entries(name), labels, witness))
    for name, count in JACOBI_SLOTS:
        alg = lieq.catalog(name)
        ops.extend(_jacobi_op(rng, alg) for _ in range(count))
    rng.shuffle(ops)
    return ops


# -- tables -----------------------------------------------------------------------

# (algebra, entries above the diagonal) for unitriangular basis changes.  The
# positions and symbols come from LAYOUT_SEED and the coefficients from the
# run seed, so the size of every task is the same for every seed.
BASIS_SLOTS = (
    ("poincare", 6),
    ("poincare", 4),
    ("poincare_trivial_ext", 6),
    ("poincare_trivial_ext_hbar", 5),
    ("galilei_central", 8),
    ("galilei", 6),
    ("full_relativistic", 5),
    ("full_nonrelativistic", 6),
    ("heisenberg3", 6),
)
LAYOUT_SEED = 20100
ENTRY_SYMBOLS = ("c", "m", "w", "eps", "eps^2", "eps^-1", "eps^-2")


# (algebra, admissible): seeded eps-power maps with exponents in {0, 1, 2}.
CONTRACTION_SLOTS = (
    ("poincare", True),
    ("galilei_central", True),
    ("poincare_trivial_ext", True),
    ("poincare_trivial_ext_hbar", True),
    ("full_relativistic", True),
    ("full_nonrelativistic", True),
    ("poincare", False),
    ("galilei_central", False),
    ("poincare_trivial_ext_hbar", False),
)
VALIDATE_NAMES = (
    "galilei_central", "poincare", "poincare_trivial_ext",
    "poincare_trivial_ext_hbar", "full_relativistic", "full_nonrelativistic",
)


def _unitriangular(rng, layout, n, count):
    """I + N with `count` entries c1*s1 + c2*s2 above the diagonal; the
    layout draws positions and symbols, the seed draws the coefficients."""
    one, zero = lieq.Scalar.one(), lieq.Scalar.zero()
    matrix = [[one if r == c else zero for c in range(n)] for r in range(n)]
    upper = [(r, c) for r in range(n) for c in range(r + 1, n)]
    for r, c in layout.sample(upper, count):
        s1, s2 = layout.sample(ENTRY_SYMBOLS, 2)
        text = "%s + %s" % (_term(_coeff(rng), s1), _term(_coeff(rng), s2))
        matrix[r][c] = lieq.parse_scalar(text)
    return matrix


def _unitriangular_inverse(matrix):
    """(I + N)^-1 = I - N + N^2 - ..., N strictly upper triangular."""
    n = len(matrix)
    zero = lieq.Scalar.zero()
    nil = [[matrix[r][c] if c > r else zero for c in range(n)] for r in range(n)]
    inverse = [[lieq.Scalar.one() if r == c else zero for c in range(n)] for r in range(n)]
    power = [row[:] for row in inverse]
    for k in range(1, n):
        power = [[sum((power[r][j] * nil[j][c] for j in range(r, c)), zero) for c in range(n)]
                 for r in range(n)]
        if all(v.is_zero() for row in power for v in row):
            break
        term = power if k % 2 == 0 else [[-v for v in row] for row in power]
        inverse = [[inverse[r][c] + term[r][c] for c in range(n)] for r in range(n)]
    return inverse


def _basis_op(alg, matrix, inverse):
    def run():
        changed = alg.change_basis(matrix, alg.generators)
        if not changed.validate().ok:
            return False
        return changed.change_basis(inverse, alg.generators) == alg

    entries = ["%d,%d: %s" % (r, c, v) for r, row in enumerate(matrix)
               for c, v in enumerate(row) if c > r and not v.is_zero()]
    return ("basis", "%s: %s" % (alg.name, "; ".join(entries)), run)


def _admissible(alg, powers):
    return all(powers[a] + powers[b] - powers[d] >= 0 for a, b, d in alg.nonzero_constants())


def _draw_map(rng, alg, admissible):
    while True:
        powers = {g: rng.choice((0, 1, 2)) for g in alg.generators}
        if len(set(powers.values())) > 1 and _admissible(alg, powers) == admissible:
            return powers


def _contract_op(alg, powers, entries):
    expected_power = {
        label: max(sum(powers[g] for g in word) for word, _ in e.terms())
        for label, e in entries.items()
    }

    def run():
        limit_algebra = lieq.contract(alg, powers)
        for label, e in entries.items():
            limit, used = lieq.contract_casimir(e, powers, "auto")
            if (used != expected_power[label] or limit.algebra != limit_algebra
                    or not lieq.is_casimir(limit).ok):
                return False
        return True

    return ("contract", "%s: %s" % (alg.name, powers), run)


def _divergent_op(alg, powers):
    expected = []
    for a, b, d in alg.nonzero_constants():
        shift = powers[a] + powers[b] - powers[d]
        order = alg.bracket(a, b)[d].min_degree("eps") + shift
        if order < 0:
            expected.append(((a, b, d), -order))

    def run():
        try:
            lieq.contract(alg, powers)
        except lieq.DivergentContraction as e:
            return list(e.offenders) == expected
        return False

    return ("divergent", "%s: %s" % (alg.name, powers), run)


def _cli_op(argv):
    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run_command(argv)
        return code == 0

    return ("cli", " ".join(argv).replace(str(DATA.parent) + "/", ""), run)


def tables_ops(rng, fault=False):
    layout = random.Random(LAYOUT_SEED)
    ops = []
    for name, count in BASIS_SLOTS:
        alg = lieq.catalog(name)
        matrix = _unitriangular(rng, layout, alg.dim, count)
        if fault and name == FAULT[0]:
            alg = alg.flip_sign(*FAULT[1:])
        ops.append(_basis_op(alg, matrix, _unitriangular_inverse(matrix)))
    for name, admissible in CONTRACTION_SLOTS:
        alg = lieq.catalog(name)
        powers = _draw_map(rng, alg, admissible)
        if admissible:
            ops.append(_contract_op(alg, powers, lieq.casimir_entries(name)))
        else:
            ops.append(_divergent_op(alg, powers))
    for name in rng.sample(VALIDATE_NAMES, 2):
        ops.append(_cli_op(["validate", name]))
    ops.append(_cli_op([
        "contract", "poincare_trivial_ext",
        "--map", str(DATA / "std.json"),
        "--check-against", "galilei_central",
        "--rename", str(DATA / "std-rename.json"),
    ]))
    rng.shuffle(ops)
    return ops


MAKE_PASS = {
    "report": report_ops,
    "straighten": straighten_ops,
    "tables": tables_ops,
}
