"""Lie algebras as sparse structure-constant tables over the exact scalar ring.

Conventions: [G_a, G_b] = sum_d c_ab^d G_d with the imaginary unit kept
explicit in the constants (Hermitian-generator convention).  Each pair is
given once, in either order; the constructor derives the other triangle by
antisymmetry once, so antisymmetry cannot be broken by transcription.  Every
nonzero entry of both triangles is stored as a read-only mapping, so a
lookup is one dictionary read.  Generator order is significant — it doubles
as the PBW basis order in lieq.uea — and nonzero_brackets lists the table in
it: by pair, then by result generator.

One private core (_build) stores every table from upper-triangle index rows
{(ia, ib): {d: nonzero Scalar}}, ia < ib.  Only name-keyed input a caller
hands in, the constructor's table, lieq.catalog's file entries, with_bracket's
bracket and central_extension's overrides, is indexed (_index_rows), in the
order given, so a fault is blamed where it is given; every derived table is
built from its source's index rows (_from_rows), never from names.

All values are immutable; operations return new algebras.  bracket, validate
and change_basis accumulate raw maps (lieq.scalars); validate and change_basis
walk only stored entries and nonzero matrix entries, never every index tuple,
and _invert reduces sparse rows of [A | I].  One fact is cached on an
instance, set by a validate() call and never stale, since the table never
changes after construction: _valid, that the report was ok, which lets
is_casimir skip generators (_casimir_plan) and lieq.contraction skip
validating a source again.  validate() itself always recomputes.  The plan
and lieq.uea's rewrite table (_descent_table) are derived once per instance
too.  _derived is lieq.contraction's registry of the live tables rescaled or
contracted from this one, a WeakValueDictionary made on first use: it shares
a table while someone holds it and keeps nothing after.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from lieq.scalars import DEFAULT_SYMBOLS, Scalar, _add_into, _freeze, _mac, _unit_inverse

Generator = namedtuple("Generator", ["name", "index"])

_EMPTY = MappingProxyType({})
_ZERO = Scalar.zero()


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


class LieAlgebra:
    __slots__ = ("name", "generators", "symbols", "_index", "_table", "_valid",
                 "_plan", "_descents", "_derived", "__weakref__")

    def __init__(self, name, generators, brackets, symbols=DEFAULT_SYMBOLS):
        """brackets: {(name_a, name_b): {name_d: Scalar}}; each pair once, in either order."""
        self._build(name, generators, symbols, {}, brackets.items())

    @classmethod
    def _from_rows(cls, name, generators, upper, symbols, named=None):
        """The algebra of index rows {(ia, ib): {d: nonzero Scalar}}, ia < ib; see _build."""
        alg = cls.__new__(cls)
        alg._build(name, generators, symbols, upper, named)
        return alg

    def _build(self, name, generators, symbols, rows, named):
        """The one constructor core: check the names, store both triangles, reset the fact.

        rows are index rows as in _from_rows, where an empty row is a vanishing
        bracket; named, name-keyed ((a, b), combo) pairs, is indexed after the
        checks, against these generators, and replaces the rows of the pairs it gives.
        """
        self.name = name
        self.generators = tuple(generators)
        self.symbols = tuple(symbols)
        if len(set(self.generators)) != len(self.generators):
            raise AlgebraError("duplicate generator names in %r" % name)
        for g in self.generators:
            if g in self.symbols or g == "i":
                raise AlgebraError("generator name %r collides with a scalar symbol" % g)
        self._index = {g: k for k, g in enumerate(self.generators)}
        upper = {**rows, **self._index_rows(named)} if named else rows
        # {(ia, ib): read-only {d: c}} for both triangles, upper pairs in basis order
        self._table = {}
        for (ia, ib) in sorted(upper):
            entry = upper[(ia, ib)]
            if entry:
                entry = dict(sorted(entry.items()))
                self._table[(ia, ib)] = MappingProxyType(entry)
                self._table[(ib, ia)] = MappingProxyType({d: -c for d, c in entry.items()})
        self._valid = False  # set by a validate() whose report is ok
        self._plan = None  # cached _casimir_plan() of a valid table
        self._descents = None  # cached _descent_table()
        self._derived = None  # lieq.contraction's weak registry of live derived tables

    def _index_rows(self, pairs):
        """Upper index rows of name-keyed ((a, b), combo) pairs, read in the order given:
        each pair is given once, in either order; a vanishing pair keeps an empty row."""
        upper = {}
        for (a, b), combo in pairs:
            ia, ib = self._gen_index(a), self._gen_index(b)
            entry = {}
            for d, coeff in combo.items():
                if not isinstance(coeff, Scalar):
                    raise AlgebraError("structure constant for [%s,%s] is not a Scalar" % (a, b))
                if coeff:
                    entry[self._gen_index(d)] = coeff
            if ia == ib and entry:
                raise AlgebraError("nonzero bracket [%s,%s]" % (a, a))
            if ia > ib:
                ia, ib = ib, ia
                entry = {d: -coeff for d, coeff in entry.items()}
            if (ia, ib) in upper:
                raise AlgebraError("bracket (%s,%s) given twice" % (a, b))
            upper[(ia, ib)] = entry
        return upper

    def _upper_rows(self, shift=0):
        """A copy of the upper index rows, every index raised by shift."""
        return {(a + shift, b + shift): {d + shift: c for d, c in entry.items()}
                for (a, b), entry in self._table.items() if a < b}

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
        """[G_ia, G_ib] as a read-only {index: Scalar}, empty when it vanishes."""
        return self._table.get((ia, ib), _EMPTY)

    def _descent_table(self):
        """{(-b, -a): ((-d, raw c_ba^d), ...)} for each nonzero [G_b, G_a], b > a.

        lieq.uea._normalize's rewrite table, in its negated index space.
        """
        if self._descents is None:
            self._descents = {
                (-b, -a): tuple((-d, c._terms) for d, c in entry.items())
                for (b, a), entry in self._table.items() if b > a}
        return self._descents

    def bracket(self, x, y):
        """Bilinear bracket of generator names or {name: Scalar} combinations."""
        cx = self._as_combo(x)
        cy = self._as_combo(y)
        out = {}
        for ia, ca in cx.items():
            for ib, cb in cy.items():
                w = ca * cb
                for d, coeff in self.bracket_index(ia, ib).items():
                    _mac(out.setdefault(d, {}), w._terms, coeff._terms)
        return {self.generators[d]: coeff for d, coeff in sorted(_freeze(out).items())}

    def _as_combo(self, x):
        if isinstance(x, str):
            return {self._gen_index(x): Scalar.one()}
        combo = {}
        for name, coeff in x.items():
            _add_into(combo.setdefault(self._gen_index(name), {}), coeff._terms)
        return _freeze(combo)

    def nonzero_brackets(self):
        """Yield ((a, b), {d: c_ab^d}) for every nonzero bracket, a listed before b.

        Basis order: by pair, then by result generator.  Each dict is a fresh
        copy, and the pairs with their dicts are a valid constructor table.
        """
        gens = self.generators
        for (ia, ib), entry in self._table.items():
            if ia < ib:
                yield (gens[ia], gens[ib]), {gens[d]: coeff for d, coeff in entry.items()}

    def nonzero_constants(self):
        """All (a, b, d) name triples with nonzero c_ab^d, a listed before b."""
        return [(a, b, d) for (a, b), combo in self.nonzero_brackets() for d in combo]

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Exhaustive antisymmetry/Jacobi check; violations are report content.

        A nonzero Jacobi term c_xy^e c_ez^d pairs two stored entries with (x, y, z)
        in cyclic order, so walking those pairs reaches every such term exactly once.
        """
        gens = self.generators
        issues = []
        declared = set(self.symbols)
        for (a, b), entry in self._table.items():
            if a < b:
                for coeff in entry.values():
                    if any(coeff._terms):  # a symbol needs a monomial other than the constant 0
                        extra = coeff.symbols() - declared
                        if extra:
                            issues.append("undeclared symbols %s in [%s,%s]"
                                          % (sorted(extra), gens[a], gens[b]))
        ad = {}  # ad[e] = [(z, ((d, raw c_ez^d), ...)), ...]
        for (e, z), entry in self._table.items():
            ad.setdefault(e, []).append((z, tuple((d, c._terms) for d, c in entry.items())))
        # {(a, b, c, d): raw} for a < b < c: the G_d part of [[a,b],c] + [[b,c],a] + [[c,a],b]
        sums = {}
        for (x, y), entry in self._table.items():
            rising = x < y
            for e, coeff in entry.items():
                xy = coeff._terms  # raw c_xy^e
                for z, ez in ad.get(e, ()):
                    # (x, y, z) is cyclic in its sorted triple iff x < y < z, z < x < y or y < z < x
                    if rising:
                        if y < z:
                            a, b, c = x, y, z
                        elif z < x:
                            a, b, c = z, x, y
                        else:
                            continue
                    elif y < z < x:
                        a, b, c = y, z, x
                    else:
                        continue
                    for d, ez_d in ez:
                        _mac(sums.setdefault((a, b, c, d), {}), xy, ez_d)
        jacobi = []  # residues that did not cancel, grouped by triple in basis order
        for (a, b, c, d), r in sorted(_freeze(sums).items()):
            triple = (gens[a], gens[b], gens[c])
            if not jacobi or jacobi[-1][0] != triple:
                jacobi.append((triple, {}))
            jacobi[-1][1][gens[d]] = r
        report = ValidationReport(jacobi=jacobi, issues=issues)
        self._valid = report.ok
        return report

    def _casimir_plan(self):
        """Indices of the generators is_casimir straightens [e, G] against, in basis order.

        Until a validate() call has found the table ok this is every
        generator.  On a valid table a generator is left out when the ones
        before it already imply [e, G] = 0: the known set starts empty, each
        generator not in it is checked and added, and then the set is closed
        under the rule that a bracket [X, Y] of two known generators with
        exactly one support index outside the set adds that index.  Reads
        _table directly; the plan is derived once per instance.
        """
        if not self._valid:
            return range(self.dim)
        if self._plan is None:
            known = set()
            plan = []
            for g in range(self.dim):
                if g in known:
                    continue
                plan.append(g)
                known.add(g)
                grown = True
                while grown:
                    grown = False
                    for (a, b), entry in self._table.items():
                        if a in known and b in known:
                            outside = [d for d in entry if d not in known]
                            if len(outside) == 1:
                                known.add(outside[0])
                                grown = True
            self._plan = tuple(plan)
        return self._plan

    # -- constructions -----------------------------------------------------------

    def with_bracket(self, a, b, combo):
        """Copy with the bracket [a,b] replaced (no validation — test/mutation aid)."""
        return LieAlgebra._from_rows(self.name + "_mut", self.generators, self._upper_rows(),
                                     self.symbols, [((a, b), combo)])

    def flip_sign(self, a, b, d):
        """Copy with the single structure constant c_ab^d negated."""
        ia, ib = self._gen_index(a), self._gen_index(b)
        rows = self._upper_rows()
        row = rows.get((min(ia, ib), max(ia, ib)), {})
        id_ = self._index.get(d)
        if id_ not in row:
            raise AlgebraError("no constant c_%s,%s^%s to flip" % (a, b, d))
        row[id_] = -row[id_]  # c_ba^d = -c_ab^d flips with it
        return LieAlgebra._from_rows(self.name + "_mut", self.generators, rows, self.symbols)

    def rename(self, mapping, name=None):
        """Rename generators via a (partial) injective mapping."""
        return LieAlgebra._from_rows(name or self.name,
                                     tuple(mapping.get(g, g) for g in self.generators),
                                     self._upper_rows(), self.symbols)

    def trivial_extension(self, new_gen, name=None):
        if new_gen in self._index:
            raise AlgebraError("generator %r already present" % new_gen)
        return LieAlgebra._from_rows(name or self.name + "_ext", self.generators + (new_gen,),
                                     self._upper_rows(), self.symbols)

    def central_extension(self, central, overrides, name=None):
        """Append a central generator and replace the listed brackets.

        The modified table is revalidated exhaustively; InvalidCocycle carries
        the report when the replacement breaks Jacobi.
        """
        if central in self._index:
            raise AlgebraError("generator %r already present" % central)

        def given():  # overrides as given, each checked as _index_rows reaches it
            for pair, combo in overrides.items():
                if central in pair:
                    raise AlgebraError("overrides must pair existing generators")
                yield pair, combo

        ext = LieAlgebra._from_rows(name or self.name + "_central", self.generators + (central,),
                                    self._upper_rows(), self.symbols, given())
        report = ext.validate()
        if not report.ok:
            raise InvalidCocycle("central extension by %r fails Jacobi" % central, report)
        return ext

    def direct_product(self, other, name=None):
        mapping = {}
        for g in other.generators:
            if g in self._index:
                mapping[g] = g + "_2"
                if mapping[g] in self._index or mapping[g] in other._index:
                    raise AlgebraError("cannot disambiguate clashing generator %r" % g)
        symbols = self.symbols + tuple(s for s in other.symbols if s not in self.symbols)
        return LieAlgebra._from_rows(
            name or "%s_x_%s" % (self.name, other.name),
            self.generators + tuple(mapping.get(g, g) for g in other.generators),
            {**self._upper_rows(), **other._upper_rows(self.dim)},
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
        cols = [[(a, matrix[a][c]._terms) for a in range(n) if matrix[a][c]] for c in range(n)]
        inv_rows = [[(f, w._terms) for f, w in enumerate(row) if w] for row in inv]
        old = {}  # {(a, b): {e: raw}}: [new_a, new_b] in the old basis, a < b
        for (c, d), entry in self._table.items():
            for a, ac in cols[c]:
                for b, bd in cols[d]:
                    if a < b:
                        w = {}  # raw A[a][c] * A[b][d]
                        _mac(w, ac, bd)
                        acc = old.setdefault((a, b), {})
                        for e, coeff in entry.items():
                            _mac(acc.setdefault(e, {}), w, coeff._terms)
        upper = {}
        for pair, combo in old.items():
            entry = {}
            for e, coeff in combo.items():
                for f, w in inv_rows[e]:
                    _mac(entry.setdefault(f, {}), coeff, w)
            upper[pair] = _freeze(entry)  # empty when the bracket cancelled
        return LieAlgebra._from_rows(name or self.name + "_basis", new_names, upper,
                                     self.symbols)

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


def _invert(matrix):
    """Gauss-Jordan inverse over the scalar ring; pivots must be units.

    The sparse rows {col: Scalar} of [A | I], column n + c holding I's column
    c, are reduced to [I | A^-1]: the pivot of column k is the first unit at
    or below row k, and a row operation visits only the pivot row's entries.
    """
    n = len(matrix)
    rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
    for r, row in enumerate(rows):
        row[n + r] = Scalar.one()
    for col in range(n):
        for r in range(col, n):
            pivot_inv = _unit_inverse(rows[r].get(col, _ZERO))
            if pivot_inv is not None:
                break
        else:
            raise AlgebraError("basis matrix is singular (no unit pivot in column %d)" % col)
        rows[col], rows[r] = rows[r], rows[col]
        if not pivot_inv.is_one():
            rows[col] = {c: x * pivot_inv for c, x in rows[col].items()}
        pivot = rows[col]
        for r, row in enumerate(rows):
            factor = row.get(col)
            if factor is None or r == col:
                continue
            for c, y in pivot.items():
                x = row.pop(c, None)
                x = -(factor * y) if x is None else x - factor * y
                if x:
                    row[c] = x
    return [[row.get(n + c, _ZERO) for c in range(n)] for row in rows]
