"""Expression grammar: lexer/parser for scalars and enveloping-algebra elements."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieq.catalog import catalog
from lieq.expr import ExprError, parse_element, parse_scalar
from lieq.scalars import Scalar
from lieq.uea import UEAElement

GC = catalog("galilei_central")
POI = catalog("poincare")

ONE = Scalar.one()
I = Scalar.i()


def test_scalar_literals():
    assert parse_scalar("0") == Scalar.zero()
    assert parse_scalar("42") == Scalar.from_int(42)
    assert parse_scalar("3/2") == Scalar.rational(3, 2)
    assert parse_scalar("-3/2") == -Scalar.rational(3, 2)
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2*i") == Scalar.gaussian(0, 2)
    assert parse_scalar("1+2*i") == Scalar.gaussian(1, 2)
    assert parse_scalar("(1-i)") == Scalar.gaussian(1, -1)


def test_scalar_symbols_and_powers():
    c, m0 = Scalar.symbol("c"), Scalar.symbol("m0")
    assert parse_scalar("c") == c
    assert parse_scalar("m0^2*c") == m0 * m0 * c
    assert parse_scalar("3/2*i*eps^2") == Scalar.rational(3, 2) * I * Scalar.symbol("eps", 2)
    assert parse_scalar("eps^-2") == Scalar.symbol("eps", -2)
    assert parse_scalar("eps^0") == ONE
    assert parse_scalar("2 + eps") == Scalar.from_int(2) + Scalar.symbol("eps")
    assert parse_scalar("-c + m") == -c + Scalar.symbol("m")
    assert parse_scalar("-(c - m)") == -c + Scalar.symbol("m")
    assert parse_scalar("2^3") == Scalar.from_int(8)


def test_scalar_symbol_table():
    # default table is the standard symbol set; an explicit table restricts it
    assert parse_scalar("c", ("c",)) == Scalar.symbol("c")
    with pytest.raises(ExprError):
        parse_scalar("c", ("eps",))
    with pytest.raises(ExprError):
        parse_scalar("nope")


def test_scalar_rejects_negative_power_off_eps():
    with pytest.raises(ExprError):
        parse_scalar("c^-1")
    with pytest.raises(ExprError):
        parse_scalar("(eps)^-1")  # the base must be the bare symbol
    with pytest.raises(ExprError):
        parse_scalar("2^-1")


def test_error_positions():
    with pytest.raises(ExprError) as exc:
        parse_scalar("1 + $")
    assert exc.value.line == 1 and exc.value.column == 5
    with pytest.raises(ExprError) as exc:
        parse_scalar("1 +\n+ 2")
    assert exc.value.line == 2
    with pytest.raises(ExprError) as exc:
        parse_element(GC, "M + Qx")
    assert "Qx" in str(exc.value)
    assert exc.value.column == 5


def test_parse_element_basics():
    assert parse_element(GC, "M") == UEAElement.gen(GC, "M")
    assert parse_element(GC, "i*M") == I * UEAElement.gen(GC, "M")
    assert parse_element(GC, "2") == Scalar.from_int(2) * UEAElement.unit(GC)
    assert parse_element(GC, "i*eps^2*Jz") == (I * Scalar.symbol("eps", 2)) * UEAElement.gen(
        GC, "Jz"
    )
    c2p = parse_element(POI, "H^2 - Px*Px - Py*Py - Pz*Pz")
    expected = UEAElement.gen(POI, "H") ** 2 - sum(
        (UEAElement.gen(POI, "P" + ax) ** 2 for ax in "xyz"), UEAElement.zero(POI)
    )
    assert c2p == expected


def test_parse_element_word_order_matters():
    px_kgx = parse_element(GC, "Px*KGx")
    assert px_kgx == UEAElement.word(GC, ("KGx", "Px")) - I * UEAElement.gen(GC, "M")
    assert parse_element(GC, "KGx*Px") == UEAElement.word(GC, ("KGx", "Px"))


def test_parse_element_scalar_promotion_and_parens():
    assert parse_element(GC, "(1 + eps)") == (ONE + Scalar.symbol("eps")) * UEAElement.unit(GC)
    assert parse_element(GC, "(H + M)^2") == (
        UEAElement.gen(GC, "H") + UEAElement.gen(GC, "M")
    ) ** 2
    assert parse_element(GC, "M*(2 + eps)") == (
        Scalar.from_int(2) + Scalar.symbol("eps")
    ) * UEAElement.gen(GC, "M")


def test_parse_element_rejects():
    with pytest.raises(ExprError):
        parse_element(GC, "KPx")  # generator of another catalog algebra
    with pytest.raises(ExprError):
        parse_element(GC, "M M")  # juxtaposition is not a product
    with pytest.raises(ExprError):
        parse_element(GC, "M^-1")
    with pytest.raises(ExprError):
        parse_element(GC, "")
    with pytest.raises(ExprError):
        parse_element(GC, "(M")
    with pytest.raises(ExprError):
        parse_element(GC, "M +")


def test_roundtrip_known_forms():
    for text in (
        "0",
        "1",
        "M",
        "i*M",
        "H*M - 1/2*Px^2 - 1/2*Py^2 - 1/2*Pz^2",
        "KGx*Px",
        "(1 + eps)",
        "eps^-2*M",
    ):
        e = parse_element(GC, text)
        assert parse_element(GC, str(e)) == e


def test_roundtrip_scalar_printing():
    for text in ("0", "-3", "3/2", "i", "-i", "2*i", "3/2*i*eps^2", "eps^-2", "(1+2*i)*m0"):
        s = parse_scalar(text)
        assert parse_scalar(str(s)) == s


@st.composite
def small_elements(draw):
    names = ("H", "Jx", "KGy", "Px", "M")
    n_terms = draw(st.integers(0, 3))
    e = UEAElement.zero(GC)
    for _ in range(n_terms):
        word = tuple(draw(st.sampled_from(names)) for _ in range(draw(st.integers(0, 3))))
        re = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
        im = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
        k = draw(st.integers(-2, 2))
        coeff = Scalar.gaussian(re, im) * Scalar.symbol("eps", k)
        e = e + UEAElement.word(GC, word, coeff)
    return e


@given(small_elements())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(e):
    assert parse_element(GC, str(e)) == e


@pytest.mark.parametrize("text, message", [
    ("1/0", "division by zero"),
    ("7" * 5000 + "*c", "integer of 5000 digits is too long"),
], ids=["divide_by_zero", "long_integer"])
def test_scalar_rejects_bad_input(text, message):
    with pytest.raises(ExprError, match=message):
        parse_scalar(text)


# -- error positions ---------------------------------------------------------------

SEPARATORS = ("", " ", "  ", "\t", "\r", "\n", "\r\n", "\u2003", "\n\t\u00a0")


def ref_position(text, k):
    """(line, column) of offset k, walked one character at a time: "\\n" starts a
    line, and every other character, tab, \\r and Unicode space included, is a column."""
    line, column = 1, 1
    for ch in text[:k]:
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


def seeded_text(rng):
    """A valid multi-line scalar expression with every kind of token and separator."""
    atoms = ("3", "12", "3/4", "i", "c", "eps", "m0", "eps^-2", "c^3", "(1 - i)")
    parts = [rng.choice(atoms)]
    for _ in range(rng.randint(6, 12)):
        parts += [rng.choice(SEPARATORS), rng.choice("+-*"), rng.choice(SEPARATORS),
                  rng.choice(atoms)]
    return rng.choice(SEPARATORS) + "".join(parts) + rng.choice(SEPARATORS)


def error_position(text, symbols=None):
    with pytest.raises(ExprError) as exc:
        parse_scalar(text, symbols)
    assert str(exc.value).endswith("(line %d, column %d)" % (exc.value.line, exc.value.column))
    return exc.value.line, exc.value.column


@pytest.mark.parametrize("seed", range(4))
def test_error_positions_match_a_character_count(seed):
    rng = random.Random(6101 + seed)
    text = seeded_text(rng)
    assert text.count("\n") >= 1 and any(s in text for s in ("\t", "\r", "\u2003", "\u00a0"))
    parse_scalar(text)
    for k in range(len(text) + 1):
        bad = text[:k] + "$" + text[k:]
        assert error_position(bad) == ref_position(bad, k), (bad, k)
    # errors found by the parser, not the tokenizer: at END, and at an unknown name
    tail = text + rng.choice("+-*") + "\t\r\n  "
    assert error_position(tail) == ref_position(tail, len(tail))
    k = next(m.start() for m in re.finditer(r"[a-z]\w*", text) if m.group() != "i")
    assert error_position(text, ()) == ref_position(text, k)
    long_int = text + " +\n\t " + "7" * 5000
    assert error_position(long_int) == ref_position(long_int, len(text) + 5)
