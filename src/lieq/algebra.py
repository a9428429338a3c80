"""Lie algebras as sparse structure-constant tables over the exact scalar ring.

Conventions: [G_a, G_b] = sum_d c_ab^d G_d with the imaginary unit kept
explicit in the constants (Hermitian-generator convention).  The table stores
only pairs with index(a) < index(b); the other triangle is derived by
antisymmetry, so antisymmetry cannot be broken by transcription.  Generator
order is significant — it doubles as the PBW basis order in lieq.uea.

All values are immutable; operations return new algebras.
"""

from __future__ import annotations

from collections import namedtuple

from lieq.scalars import DEFAULT_SYMBOLS, LAURENT_SYMBOL, Scalar

Generator = namedtuple("Generator", ["name", "index"])


class AlgebraError(ValueError):
    """Bad algebra construction or lookup (unknown generator, bad matrix...)."""


class ValidationReport:
    """Outcome of validate(): lists of violations, empty == valid."""

    def __init__(self, jacobi=None, issues=None):
        # jacobi: list of ((name_a, name_b, name_c), {name_d: Scalar residue})
        self.jacobi = jacobi or []
        self.issues = issues or []

    @property
    def ok(self):
        return not self.jacobi and not self.issues


class InvalidCocycle(AlgebraError):
    """Central-extension overrides broke the Jacobi identity."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _combine(target, d, coeff):
    cur = target.get(d)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        target.pop(d, None)
    else:
        target[d] = cur


class LieAlgebra:
    __slots__ = ("name", "generators", "symbols", "_index", "_table")

    def __init__(self, name, generators, brackets, symbols=DEFAULT_SYMBOLS):
        """brackets: {(name_a, name_b): {name_d: Scalar}}; pairs in any order."""
        self.name = name
        self.generators = tuple(generators)
        self.symbols = tuple(symbols)
        if len(set(self.generators)) != len(self.generators):
            raise AlgebraError("duplicate generator names in %r" % name)
        for g in self.generators:
            if g in self.symbols or g == "i":
                raise AlgebraError("generator name %r collides with a scalar symbol" % g)
        self._index = {g: k for k, g in enumerate(self.generators)}
        table = {}
        for (a, b), combo in brackets.items():
            ia, ib = self._gen_index(a), self._gen_index(b)
            entry = {}
            for d, coeff in combo.items():
                if not isinstance(coeff, Scalar):
                    raise AlgebraError("structure constant for [%s,%s] is not a Scalar" % (a, b))
                if not coeff.is_zero():
                    _combine(entry, self._gen_index(d), coeff)
            if ia == ib:
                if entry:
                    raise AlgebraError("nonzero bracket [%s,%s]" % (a, a))
                continue
            if ia > ib:
                ia, ib = ib, ia
                entry = {d: -coeff for d, coeff in entry.items()}
            if (ia, ib) in table:
                raise AlgebraError("bracket (%s,%s) given twice" % (a, b))
            if entry:
                table[(ia, ib)] = entry
        self._table = table

    # -- lookups --------------------------------------------------------------

    def _gen_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError("unknown generator %r in algebra %r" % (name, self.name)) from None

    def generator(self, name):
        return Generator(name, self._gen_index(name))

    @property
    def dim(self):
        return len(self.generators)

    def bracket_index(self, ia, ib):
        """[G_ia, G_ib] as {index: Scalar}, antisymmetry applied."""
        if ia == ib:
            return {}
        if ia < ib:
            return dict(self._table.get((ia, ib), {}))
        entry = self._table.get((ib, ia), {})
        return {d: -coeff for d, coeff in entry.items()}

    def bracket(self, x, y):
        """Bilinear bracket of generator names or {name: Scalar} combinations."""
        cx = self._as_combo(x)
        cy = self._as_combo(y)
        out = {}
        for ia, ca in cx.items():
            for ib, cb in cy.items():
                w = ca * cb
                if w.is_zero():
                    continue
                for d, coeff in self.bracket_index(ia, ib).items():
                    _combine(out, d, w * coeff)
        return {self.generators[d]: coeff for d, coeff in sorted(out.items())}

    def _as_combo(self, x):
        if isinstance(x, str):
            return {self._gen_index(x): Scalar.one()}
        combo = {}
        for name, coeff in x.items():
            _combine(combo, self._gen_index(name), coeff)
        return combo

    def nonzero_constants(self):
        """All stored (a, b, d) name triples with nonzero c_ab^d."""
        out = []
        for (ia, ib) in sorted(self._table):
            for d in sorted(self._table[(ia, ib)]):
                out.append((self.generators[ia], self.generators[ib], self.generators[d]))
        return out

    # -- validation ------------------------------------------------------------

    def _bracket_combo_index(self, combo, ic):
        out = {}
        for ia, ca in combo.items():
            for d, coeff in self.bracket_index(ia, ic).items():
                _combine(out, d, ca * coeff)
        return out

    def validate(self):
        """Exhaustive antisymmetry/Jacobi check; violations are report content."""
        issues = []
        declared = set(self.symbols)
        for (ia, ib), entry in self._table.items():
            for d, coeff in entry.items():
                extra = coeff.symbols() - declared
                if extra:
                    issues.append(
                        "undeclared symbols %s in [%s,%s]"
                        % (sorted(extra), self.generators[ia], self.generators[ib])
                    )
        jacobi = []
        n = self.dim
        for a in range(n):
            for b in range(a + 1, n):
                ab = self.bracket_index(a, b)
                for c in range(b + 1, n):
                    residue = {}
                    for d, coeff in self._bracket_combo_index(ab, c).items():
                        _combine(residue, d, coeff)
                    for d, coeff in self._bracket_combo_index(self.bracket_index(b, c), a).items():
                        _combine(residue, d, coeff)
                    for d, coeff in self._bracket_combo_index(self.bracket_index(c, a), b).items():
                        _combine(residue, d, coeff)
                    if residue:
                        names = (self.generators[a], self.generators[b], self.generators[c])
                        jacobi.append(
                            (names, {self.generators[d]: r for d, r in sorted(residue.items())})
                        )
        return ValidationReport(jacobi=jacobi, issues=issues)

    # -- constructions -----------------------------------------------------------

    def _bracket_names(self):
        out = {}
        for (ia, ib), entry in self._table.items():
            pair = (self.generators[ia], self.generators[ib])
            out[pair] = {self.generators[d]: coeff for d, coeff in entry.items()}
        return out

    def with_bracket(self, a, b, combo):
        """Copy with the bracket [a,b] replaced (no validation — test/mutation aid)."""
        self._gen_index(a), self._gen_index(b)
        brackets = self._bracket_names()
        brackets.pop((a, b), None)
        brackets.pop((b, a), None)
        brackets[(a, b)] = combo
        return LieAlgebra(self.name + "_mut", self.generators, brackets, self.symbols)

    def flip_sign(self, a, b, d):
        """Copy with the single structure constant c_ab^d negated."""
        entry = self.bracket(a, b)
        if d not in entry:
            raise AlgebraError("no constant c_%s,%s^%s to flip" % (a, b, d))
        entry[d] = -entry[d]
        return self.with_bracket(a, b, entry)

    def rename(self, mapping, name=None):
        """Rename generators via a (partial) injective mapping."""
        new_names = tuple(mapping.get(g, g) for g in self.generators)
        brackets = {}
        for (a, b), combo in self._bracket_names().items():
            brackets[(mapping.get(a, a), mapping.get(b, b))] = {
                mapping.get(d, d): coeff for d, coeff in combo.items()
            }
        return LieAlgebra(name or self.name, new_names, brackets, self.symbols)

    def trivial_extension(self, new_gen, name=None):
        if new_gen in self._index:
            raise AlgebraError("generator %r already present" % new_gen)
        return LieAlgebra(
            name or self.name + "_ext",
            self.generators + (new_gen,),
            self._bracket_names(),
            self.symbols,
        )

    def central_extension(self, central, overrides, name=None):
        """Append a central generator and replace the listed brackets.

        The modified table is revalidated exhaustively; InvalidCocycle carries
        the report when the replacement breaks Jacobi.
        """
        name = name or self.name + "_central"
        ext = self.trivial_extension(central)
        for (a, b), combo in overrides.items():
            if a == central or b == central:
                raise AlgebraError("overrides must pair existing generators")
            ext = ext.with_bracket(a, b, combo)
        ext = ext.rename({}, name)
        report = ext.validate()
        if not report.ok:
            raise InvalidCocycle("central extension by %r fails Jacobi" % central, report)
        return ext

    def direct_product(self, other, name=None):
        mapping = {}
        for g in other.generators:
            if g in self._index:
                mapping[g] = g + "_2"
                if mapping[g] in self._index:
                    raise AlgebraError("cannot disambiguate clashing generator %r" % g)
        b = other.rename(mapping) if mapping else other
        brackets = self._bracket_names()
        brackets.update(b._bracket_names())
        symbols = self.symbols + tuple(s for s in b.symbols if s not in self.symbols)
        return LieAlgebra(
            name or "%s_x_%s" % (self.name, other.name),
            self.generators + b.generators,
            brackets,
            symbols,
        )

    def change_basis(self, matrix, new_names, name=None):
        """new_r = sum_c matrix[r][c] * old_c; exact inverse required.

        Transforms c'_ab^f = sum A[a][c] A[b][d] c_cd^e Ainv[e][f].
        """
        n = self.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise AlgebraError("basis matrix must be %dx%d" % (n, n))
        if len(new_names) != n:
            raise AlgebraError("need %d new names" % n)
        inv = _invert(matrix)
        table = {}
        for a in range(n):
            for b in range(a + 1, n):
                # [new_a, new_b] in the old basis
                old = {}
                for c in range(n):
                    ac = matrix[a][c]
                    if ac.is_zero():
                        continue
                    for d in range(n):
                        bd = matrix[b][d]
                        if bd.is_zero():
                            continue
                        w = ac * bd
                        for e, coeff in self.bracket_index(c, d).items():
                            _combine(old, e, w * coeff)
                entry = {}
                for e, coeff in old.items():
                    for f in range(n):
                        w = inv[e][f]
                        if not w.is_zero():
                            _combine(entry, f, coeff * w)
                if entry:
                    table[(new_names[a], new_names[b])] = {
                        new_names[f]: coeff for f, coeff in entry.items()
                    }
        return LieAlgebra(name or self.name + "_basis", new_names, table, self.symbols)

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        """Same generators (order included), symbols, and table; label ignored."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.symbols == other.symbols
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.generators, self.symbols))

    def __repr__(self):
        return "LieAlgebra(%r, dim=%d)" % (self.name, self.dim)


def _scalar_inverse(s):
    """Exact inverse of a Scalar if it is a unit in the ring, else None.

    Units are single monomials with only powers of the contraction symbol
    (eps) and a nonzero Gaussian-rational coefficient.
    """
    terms = s.items()
    if len(terms) != 1:
        return None
    (mono, (re, im)), = terms
    for sym, _ in mono:
        if sym != LAURENT_SYMBOL:
            return None
    norm = re * re + im * im
    out = Scalar.gaussian(re / norm, -im / norm)
    for sym, exp in mono:
        out = out.mul_power(sym, -exp)
    return out


def _invert(matrix):
    """Gauss-Jordan inverse over the scalar ring; pivots must be units."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    inv = [[Scalar.one() if r == c else Scalar.zero() for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot_row = None
        pivot_inv = None
        for r in range(col, n):
            pivot_inv = _scalar_inverse(a[r][col])
            if pivot_inv is not None:
                pivot_row = r
                break
        if pivot_row is None:
            raise AlgebraError("basis matrix is singular (no unit pivot in column %d)" % col)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        a[col] = [x * pivot_inv for x in a[col]]
        inv[col] = [x * pivot_inv for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv
