"""Surface grammar for scalars and enveloping-algebra elements.

expr   := term (('+' | '-') term)*
term   := factor ('*' factor)*
factor := '-'* primary ('^' ('-'? INT))?
primary:= INT ('/' INT)? | IDENT | '(' expr ')'

`i` is the imaginary literal; other identifiers resolve to declared symbols
or (in element context) generators.  `*` is mandatory — no juxtaposition.
Negative powers are allowed only on the bare contraction symbol eps.
Whitespace (including newlines) is insignificant.  Tokens carry offsets;
an error's line/column is computed from its offset when it is raised.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent (four frames per level) well inside Python's recursion limit.
"""

from __future__ import annotations

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


def _fail(text, message, k):
    """Raise ExprError at offset k: "\n" ends a line, any other character is a column."""
    raise ExprError(message, text.count("\n", 0, k) + 1, k - text.rfind("\n", 0, k)) from None


def _tokenize(text):
    """(kind, value, offset) tokens, closed by END at the end of the text."""
    tokens = []
    k, n = 0, len(text)
    while k < n:
        ch, j = text[k], k + 1
        if ch.isspace():
            pass
        elif ch in _PUNCT:
            tokens.append((ch, None, k))
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("INT", int(text[k:j]), k))
            except ValueError:  # beyond the interpreter's integer-string limit
                _fail(text, "integer of %d digits is too long" % (j - k), k)
        elif ch.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[k:j], k))
        else:
            _fail(text, "unexpected character %r" % ch, k)
        k = j
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    """Recursive-descent evaluator; values are Scalar or UEAElement."""

    def __init__(self, text, algebra, symbols):
        self.text = text
        self.tokens = _tokenize(text)
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
        _fail(self.text, message, (tok or self.peek())[2])

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
            value, rhs = self._promote_pair(value, rhs)
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.next()
            rhs = self.factor()
            value = value * rhs
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
                return Scalar.rational(value, denom[1]), None
            return Scalar.from_int(value), None
        if kind == "IDENT":
            if value == "i":
                return Scalar.i(), None
            if value in self.symbols:
                return Scalar.symbol(value), value
            if self.algebra is not None and value in self.algebra.generators:
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

    def _promote_pair(self, a, b):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a, b
        return self._promote(a), self._promote(b)


def parse_scalar(text, symbols=None):
    """Parse a pure-scalar expression over the given symbol names."""
    table = DEFAULT_SYMBOLS if symbols is None else tuple(symbols)
    # a Scalar is the only possible outcome with no algebra in scope
    return _Parser(text, None, table).parse()


def parse_element(algebra, text):
    """Parse an expression into the algebra's enveloping algebra.

    Identifiers resolve to the imaginary literal `i`, declared commuting
    symbols (the algebra's plus the standard set), or generators.
    """
    table = tuple(DEFAULT_SYMBOLS) + tuple(s for s in algebra.symbols if s not in DEFAULT_SYMBOLS)
    value = _Parser(text, algebra, table).parse()
    if isinstance(value, Scalar):
        return UEAElement.unit(algebra) * value
    return value
