"""Surface grammar for scalars and enveloping-algebra elements.

expr   := term (('+' | '-') term)*
term   := factor ('*' factor)*
factor := '-'* primary ('^' ('-'? INT))?
primary:= INT ('/' INT)? | IDENT | '(' expr ')'

`i` is the imaginary literal; other identifiers resolve to declared symbols
or (in element context) generators.  `*` is mandatory — no juxtaposition.
Negative powers are allowed only on the bare contraction symbol eps.
Whitespace (including newlines) is insignificant; errors carry line/column.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent (four frames per level) well inside Python's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction

from lieq.scalars import DEFAULT_SYMBOLS, LAURENT_SYMBOL, Scalar
from lieq.uea import UEAElement


class ExprError(ValueError):
    """Syntax or name error, with 1-based line/column position."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


_PUNCT = set("+-*^/()")
MAX_NESTING = 190


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch.isspace():
            col += 1
            k += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, None, line, col))
            col += 1
            k += 1
            continue
        if ch.isdecimal():
            j = k
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[k:j])
            except ValueError:  # beyond the interpreter's integer-string limit
                raise ExprError("integer of %d digits is too long" % (j - k), line, col) from None
            tokens.append(("INT", value, line, col))
            col += j - k
            k = j
            continue
        if ch.isalpha():
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[k:j], line, col))
            col += j - k
            k = j
            continue
        raise ExprError("unexpected character %r" % ch, line, col)
    tokens.append(("END", None, line, col))
    return tokens


class _Parser:
    """Recursive-descent evaluator; values are Scalar or UEAElement."""

    def __init__(self, tokens, algebra, symbols):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.algebra = algebra
        self.symbols = frozenset(symbols)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprError(message, tok[2], tok[3])

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.fail("expected %r" % kind, tok)
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            self.fail("unexpected %r" % (tok[1] if tok[1] is not None else tok[0]), tok)
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value, rhs = self._promote_pair(value, rhs, op)
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.next()
            rhs = self.factor()
            value = self._multiply(value, rhs)
        return value

    def factor(self):
        negate = False
        while self.peek()[0] == "-":
            self.next()
            negate = not negate
        value, bare_name = self.primary()
        if self.peek()[0] == "^":
            caret = self.next()
            negative = self.peek()[0] == "-"
            if negative:
                self.next()
            n = self.expect("INT")[1]
            if negative and bare_name != LAURENT_SYMBOL:
                self.fail("negative powers are only allowed on the bare symbol %r" % LAURENT_SYMBOL, caret)
            value = Scalar.symbol(LAURENT_SYMBOL, -n) if negative else value ** n
        return -value if negate else value

    def primary(self):
        """Returns (value, bare_name): bare_name is set only for a lone identifier."""
        tok = self.next()
        kind, value = tok[0], tok[1]
        if kind == "INT":
            if self.peek()[0] == "/":
                self.next()
                denom = self.expect("INT")
                if denom[1] == 0:
                    self.fail("division by zero", denom)
                return Scalar.rational(Fraction(value, denom[1])), None
            return Scalar.from_int(value), None
        if kind == "IDENT":
            if value == "i":
                return Scalar.i(), None
            if value in self.symbols:
                return Scalar.symbol(value), value
            if self.algebra is not None:
                try:
                    self.algebra.generator(value)
                except Exception:
                    pass
                else:
                    return UEAElement.gen(self.algebra, value), value
            self.fail("unknown identifier %r" % value, tok)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail("parentheses nested deeper than %d" % MAX_NESTING, tok)
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner, None
        if kind == "END":
            self.fail("unexpected end of input", tok)
        self.fail("unexpected %r" % (value if value is not None else kind), tok)

    def _promote(self, value):
        if isinstance(value, Scalar) and self.algebra is not None:
            return UEAElement.unit(self.algebra) * value
        return value

    def _promote_pair(self, a, b, op):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a, b
        return self._promote(a), self._promote(b)

    def _multiply(self, a, b):
        # scalars commute with everything, so scalar*element == element*scalar
        if isinstance(a, Scalar) and not isinstance(b, Scalar):
            return b * a
        return a * b


def parse_scalar(text, symbols=None):
    """Parse a pure-scalar expression over the given symbol names."""
    table = DEFAULT_SYMBOLS if symbols is None else tuple(symbols)
    tokens = _tokenize(text)
    value = _Parser(tokens, None, table).parse()
    # a Scalar is the only possible outcome with no algebra in scope
    return value


def parse_element(algebra, text):
    """Parse an expression into the algebra's enveloping algebra.

    Identifiers resolve to the imaginary literal `i`, declared commuting
    symbols (the algebra's plus the standard set), or generators.
    """
    table = tuple(DEFAULT_SYMBOLS) + tuple(s for s in algebra.symbols if s not in DEFAULT_SYMBOLS)
    tokens = _tokenize(text)
    parser = _Parser(tokens, algebra, table)
    value = parser.parse()
    if isinstance(value, Scalar):
        return UEAElement.unit(algebra) * value
    return value
