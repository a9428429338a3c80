"""Fuzzed CLI inputs end in exit 0, 1 or 2, with no traceback and one stderr line at most.

Hypothesis drives run_command with mutated algebra JSON files, mutated
rescaling and renaming map files, and random --expr strings.  Some argv are
malformed too: one word dropped or one junk word inserted, so the argument
parser's own usage errors are drawn as well.

An expression carries one "^" at most (a junk "^" can add a second, on the
literal 2 at most).  On a bare scalar symbol (eps, m or i) its exponent is
drawn up to 2^40, and so is the exponent of m in the algebra file's
coefficient "m^N": scalar powers are cheap, and these cross the bound of 2^32
on scalar exponents.  Any other exponent is bounded to at most 4.
Straightening time is still unbounded (there is no rewrite-step budget yet),
so a large power of a generator sum can run for minutes; that bound keeps the
suite fast and is not a fix.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieq.casimirs import CASIMIR_GROUPS, casimir_entries
from lieq.catalog import CATALOG_NAMES, catalog
from lieq.cli import run_command
from lieq.contraction import STD_PE_MAP, STD_PE_RENAME

ALGEBRA = {
    "name": "su2ish",
    "generators": ["A", "B", "C"],
    "symbols": ["m"],
    "brackets": [
        {"a": "A", "b": "B", "result": [{"coeff": "1", "gen": "C"}]},
        {"a": "B", "b": "C", "result": [{"coeff": "m", "gen": "A"}]},
        {"a": "A", "b": "C", "result": [{"coeff": "-1", "gen": "B"}]},
    ],
}

# File contents that no JSON value serializes to.
RAW_FILES = (
    b"",
    b"{not json",
    b"\xff\xfe{}",
    b"[" * 5000 + b"]" * 5000,
    b'{"H": ' + b"7" * 5000 + b"}",
)

MAX_POWER = 4
SYMBOL_ATOMS = ("eps", "m", "i")
SYMBOL_POWER = st.integers(0, 2**40) | st.sampled_from((2**31, 2**32 - 1, 2**32))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

NAMES = st.sampled_from(("poincare_trivial_ext_hbar",) * 4 + CATALOG_NAMES + ("nope",))
TARGETS = st.sampled_from(("galilei_central",) * 4 + CATALOG_NAMES + ("nope",))
# Tokens that break an expression; a junk "^" meets at most the literal 2.
JUNK = ("+", "-", "*", "(", ")", "/", "^", "$", "\n", "2\u00b2", "x", "1/0")
# Words that break a command line.
ARGV_JUNK = ("--bogus", "-x", "--map", "--expr", "--power", "--all", "--rename", "--", "-",
             "", "two", "a\nb", "a\u2028b", "nope")


@st.composite
def mutated_file(draw, base):
    """Bytes of base as JSON after up to two random edits, or a raw bad file."""
    if draw(st.sampled_from((False,) * 9 + (True,))):
        return draw(st.sampled_from(RAW_FILES))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(JSON_VALUES)
            break
    return json.dumps(doc).encode()


@st.composite
def expressions(draw, name):
    """A sum of products with at most one power, maybe with one junk token; or a label."""
    labels = list(casimir_entries(name)) if name in CASIMIR_GROUPS else []
    if labels and draw(st.sampled_from((False,) * 4 + (True,))):
        return draw(st.sampled_from(labels))
    gens = list(catalog(name).generators) if name in CATALOG_NAMES else ["H"]
    atom = st.sampled_from(gens + ["i", "eps", "m", "-1", "2", "1/2"])
    factor = atom | st.lists(atom, min_size=2, max_size=3).map(lambda a: "(%s)" % " + ".join(a))
    products = draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3))
    if draw(st.booleans()):
        product = draw(st.sampled_from(products))
        k = draw(st.integers(0, len(product) - 1))
        if product[k] in SYMBOL_ATOMS:
            sign = "-" if product[k] == "eps" and draw(st.booleans()) else ""
            product[k] += "^%s%d" % (sign, draw(SYMBOL_POWER))
        else:
            product[k] += "^%d" % draw(st.integers(-MAX_POWER, MAX_POWER))
    tokens = " + ".join(" * ".join(p) for p in products).split(" ")
    if draw(st.sampled_from((False, False, True))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(JUNK)))
    return " ".join(tokens)


@st.composite
def algebras(draw):
    """ALGEBRA with its coefficient "m" raised to a drawn power."""
    doc = copy.deepcopy(ALGEBRA)
    doc["brackets"][1]["result"][0]["coeff"] = "m^%d" % draw(SYMBOL_POWER)
    return doc


@st.composite
def malformed(draw, argv):
    """argv with one word dropped or one junk word inserted."""
    argv = list(argv)
    if argv and draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    else:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ARGV_JUNK)))
    return argv


@st.composite
def invocations(draw):
    """(argv, {placeholder: bytes}), argv malformed one time in four; file
    arguments are placeholders until written."""
    argv, files = draw(well_formed_invocations())
    if draw(st.sampled_from((False, False, False, True))):
        argv = draw(malformed(argv))
    return argv, files


@st.composite
def well_formed_invocations(draw):
    command = draw(st.sampled_from(("validate", "contract", "check", "verify", "casimir_contract")))
    name = draw(NAMES)
    files = {"map": draw(mutated_file(STD_PE_MAP))}
    if command == "validate":
        return ["validate", "@algebra"], {"algebra": draw(mutated_file(draw(algebras())))}
    if command == "contract":
        return ["contract", name, "--map", "@map"], files
    if command == "check":
        files["rename"] = draw(mutated_file(STD_PE_RENAME))
        return ["contract", name, "--map", "@map", "--check-against", draw(TARGETS),
                "--rename", "@rename"], files
    if command == "verify":
        return ["casimir", "verify", name, "--expr", draw(expressions(name))], {}
    argv = ["casimir", "contract", name, "--map", "@map", "--expr", draw(expressions(name))]
    power = draw(st.one_of(st.none(), st.just("auto"), st.integers(-12, 12).map(str)))
    if power is not None:
        argv += ["--power", power]
    return argv, files


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_fuzzed_cli_inputs_fail_cleanly(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, content in files.items():
            paths["@" + key] = Path(tmp, key + ".json")
            paths["@" + key].write_bytes(content)
        argv = [str(paths.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    assert len(err.splitlines()) <= 1, (argv, err)
