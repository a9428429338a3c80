"""Per-layer tracing of lieq from outside the package.

`Tracer.install()` rebinds the public functions and methods of every lieq
module to timing wrappers; `uninstall()` puts the originals back.  Both may be
called again, so traced and untraced passes can alternate in one run.  A layer is
the module that defines a function (`scalars`, `uea`, `algebra`, ...).

A name imported with `from lieq.x import f` is a second binding of the same
function object, so the wrapper is also rebound in every module that holds
it (for example `lieq.report.is_casimir`); `rebinds` lists each such place.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its self time (duration
minus child time) is charged to its own layer.  Calls into the scalar ring
and `LieAlgebra.bracket_index` run millions of times per pass: they are
timed and counted the same way but are not stored as spans.  Every other
call is stored as a span (id, parent id, op id, name, start, end, self time)
and the spans are written out when the run ends.
"""

import gzip
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "scalars", "uea", "algebra", "casimirs", "catalog", "contraction",
    "expr", "limits", "mhi", "report", "cli",
)

ARITHMETIC = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__")

# Hot calls kept out of the span list (timed and counted only).
LEAF_CALLS = {
    "Scalar": ARITHMETIC + ("mul_power", "limit0", "substitute"),
    "LieAlgebra": ("bracket_index",),
}

# Constructors and accessors too small to be a layer's work; their time
# stays with the caller.
UNTRACED = {
    "Scalar": ("zero", "one", "i", "from_int", "rational", "gaussian", "symbol",
               "is_zero", "is_one", "constant_pair", "symbols", "items", "min_degree"),
    "LieAlgebra": ("generator", "generator_list"),
    "UEAElement": ("is_zero", "term_count"),
}

MAX_SPANS = 200_000

PER_LAYER = (
    ("scalars.mul_calls", "count"),
    ("scalars.add_calls", "count"),
    ("scalars.const_mul_share", "ratio"),
    ("scalars.self_s", "s"),
    ("uea.products", "count"),
    ("uea.bracket_lookups", "count"),
    ("uea.terms_out", "count"),
    ("uea.lookups_per_term", "ratio"),
    ("uea.is_casimir_calls", "count"),
    ("uea.self_s", "s"),
    ("casimirs.entries_builds", "count"),
    ("casimirs.variant_calls", "count"),
    ("casimirs.self_s", "s"),
    ("algebra.validate_calls", "count"),
    ("algebra.validate_s", "s"),
    ("algebra.change_basis_s", "s"),
    ("algebra.self_s", "s"),
    ("contraction.calls", "count"),
    ("contraction.validates_per_call", "ratio"),
    ("contraction.self_s", "s"),
    ("catalog.build_s", "s"),
    ("expr.parse_calls", "count"),
    ("expr.self_s", "s"),
    ("limits.self_s", "s"),
    ("mhi.self_s", "s"),
    ("report.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Straightening entry points: every call into uea._normalize comes from one.
_STRAIGHTENERS = {
    "uea.UEAElement.word", "uea.UEAElement.from_terms", "uea.normal_form",
    "uea.rename_element", "uea.weyl_word",
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Wrappers, call stack, counts and spans of one traced run."""

    def __init__(self):
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "lieq" or n.startswith("lieq.")]
        self.stack = []
        self.cells = {}  # qualified name -> [calls, self seconds, inclusive seconds]
        self.layer_of = {}
        self.counts = Counter()
        self.depth = Counter()  # open non-leaf frames per layer
        self.spans = []
        self.dropped_spans = 0
        self.next_span = 1
        self.op_id = None
        self.rebinds = []
        self._bindings = []  # (owner, attribute, original, wrapper)

    # -- installation ---------------------------------------------------------

    def _targets(self):
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, "%s.%s" % (layer, name), mod, name, obj, False
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    yield from self._method_targets(layer, obj)

    def _method_targets(self, layer, cls):
        leaf = LEAF_CALLS.get(cls.__name__, ())
        untraced = UNTRACED.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr in untraced or (attr.startswith("_") and attr not in ARITHMETIC):
                continue
            if not (inspect.isfunction(raw) or isinstance(raw, staticmethod)):
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, attr)
            yield layer, qual, cls, attr, raw, attr in leaf

    def install(self):
        """Rebind every target to its wrapper; the wrappers are made once."""
        if not self._bindings:
            self._bindings = self._make_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def _make_bindings(self):
        bindings = []
        originals = {}
        for layer, qual, owner, attr, raw, leaf in list(self._targets()):
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(func, layer, qual, leaf)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            bindings.append((owner, attr, raw, wrapper))
            if inspect.ismodule(owner):
                originals[raw] = (wrapper, owner)
        # Names bound again by `from module import name` elsewhere in lieq.
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                hit = inspect.isfunction(obj) and originals.get(obj)
                if hit and hit[1] is not mod:
                    bindings.append((mod, name, obj, hit[0]))
                    self.rebinds.append("%s.%s" % (mod.__name__, name))
        return bindings

    def uninstall(self):
        for owner, attr, raw, _ in reversed(self._bindings):
            setattr(owner, attr, raw)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, func, layer, qual, leaf):
        cell = self.cells.setdefault(qual, [0, 0.0, 0.0])
        self.layer_of[qual] = layer
        stack = self.stack
        clock = time.perf_counter
        hook = self._hook(qual)

        if leaf:
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                frame = [0.0, layer, None]
                stack.append(frame)
                t0 = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    cell[0] += 1
                    cell[1] += dur - frame[0]
                    cell[2] += dur
                    if parent is not None:
                        parent[0] += dur
                if hook is not None:
                    hook(args, result, parent)
                return result
        else:
            tracer = self
            depth = self.depth

            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                span = tracer.next_span
                tracer.next_span += 1
                frame = [0.0, layer, span]
                if depth[layer] == 0:
                    tracer.counts[layer + ".entries"] += 1
                depth[layer] += 1
                stack.append(frame)
                t0 = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    stack.pop()
                    depth[layer] -= 1
                    self_time = dur - frame[0]
                    cell[0] += 1
                    cell[1] += self_time
                    cell[2] += dur
                    if parent is not None:
                        parent[0] += dur
                    tracer._record(span, parent, qual, t0, t1, self_time)
                if hook is not None:
                    hook(args, result, parent)
                return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", qual)
        return wrapper

    def _record(self, span, parent, name, t0, t1, self_time):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        self.spans.append((span, parent[2] if parent else None, self.op_id, name, t0, t1, self_time))

    def _hook(self, qual):
        counts = self.counts
        # Scalar * element returns NotImplemented and is not a ring operation.
        if qual == "scalars.Scalar.__mul__":
            def hook(args, result, parent):
                if result is not NotImplemented:
                    counts["scalars.mul"] += 1
                    a, b = args
                    if a.constant_pair() is not None and b.constant_pair() is not None:
                        counts["scalars.const_mul"] += 1
            return hook
        if qual == "scalars.Scalar.__add__":
            def hook(args, result, parent):
                if result is not NotImplemented:
                    counts["scalars.add"] += 1
            return hook
        if qual == "uea.UEAElement.__mul__":
            def hook(args, result, parent):
                if type(args[1]) is type(args[0]):
                    counts["uea.products"] += 1
                    counts["uea.terms_out"] += result.term_count()
            return hook
        if qual in _STRAIGHTENERS:
            def hook(args, result, parent):
                counts["uea.terms_out"] += result.term_count()
            return hook
        if qual == "algebra.LieAlgebra.bracket_index":
            def hook(args, result, parent):
                if parent is not None and parent[1] == "uea":
                    counts["uea.bracket_lookups"] += 1
            return hook
        if qual == "algebra.LieAlgebra.validate":
            depth = self.depth

            def hook(args, result, parent):
                if depth["contraction"]:
                    counts["contraction.validates"] += 1
            return hook
        return None

    # -- ops and results ----------------------------------------------------------

    def begin_op(self, op_id, kind):
        """Open the root frame of one op; returns a token for end_op."""
        self.op_id = op_id
        frame = [0.0, "bench", self.next_span]
        self.next_span += 1
        self.stack.append(frame)
        return frame, "op." + kind, time.perf_counter()

    def end_op(self, token):
        frame, name, t0 = token
        t1 = time.perf_counter()
        self.stack.remove(frame)
        self._record(frame[2], None, name, t0, t1, t1 - t0 - frame[0])
        self.op_id = None

    def reset(self):
        """Zero every count and time; spans are kept."""
        for cell in self.cells.values():
            cell[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def calls(self, qual):
        return self.cells[qual][0]

    def inclusive(self, qual):
        return self.cells[qual][2]

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for qual, cell in self.cells.items():
            out[self.layer_of[qual]] += cell[1]
        return out

    def pass_metrics(self):
        """Per-layer metrics of everything since the last reset()."""
        c = self.counts
        self_s = self.layer_self()
        mul = c["scalars.mul"]
        lookups = c["uea.bracket_lookups"]
        contraction_calls = c["contraction.entries"]
        return {
            "scalars.mul_calls": mul,
            "scalars.add_calls": c["scalars.add"],
            "scalars.const_mul_share": _ratio(c["scalars.const_mul"], mul),
            "scalars.self_s": self_s["scalars"],
            "uea.products": c["uea.products"],
            "uea.bracket_lookups": lookups,
            "uea.terms_out": c["uea.terms_out"],
            "uea.lookups_per_term": _ratio(lookups, c["uea.terms_out"]),
            "uea.is_casimir_calls": self.calls("uea.is_casimir"),
            "uea.self_s": self_s["uea"],
            "casimirs.entries_builds": self.calls("casimirs.casimir_catalog"),
            "casimirs.variant_calls": self.calls("casimirs.casimir_variant"),
            "casimirs.self_s": self_s["casimirs"],
            "algebra.validate_calls": self.calls("algebra.LieAlgebra.validate"),
            "algebra.validate_s": self.inclusive("algebra.LieAlgebra.validate"),
            "algebra.change_basis_s": self.inclusive("algebra.LieAlgebra.change_basis"),
            "algebra.self_s": self_s["algebra"],
            "contraction.calls": contraction_calls,
            "contraction.validates_per_call": _ratio(c["contraction.validates"], contraction_calls),
            "contraction.self_s": self_s["contraction"],
            "expr.parse_calls": self.calls("expr.parse_element") + self.calls("expr.parse_scalar"),
            "expr.self_s": self_s["expr"],
            "limits.self_s": self_s["limits"],
            "mhi.self_s": self_s["mhi"],
            "report.self_s": self_s["report"],
            "cli.calls": c["cli.entries"],
            "cli.self_s": self_s["cli"],
        }

    def write_spans(self, path, meta):
        """Write a header line (meta, rebinds) and one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, rebinds=self.rebinds, spans=len(self.spans),
                      dropped_spans=self.dropped_spans,
                      fields=["id", "parent", "op", "name", "start", "end", "self"])
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
