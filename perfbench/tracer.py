"""Spans around fracsum's public functions, recorded from outside the program.

``install`` prepares, for every binding of every public function of the
layers (``polycore``, ``specialfn``, ``engine``, ``summands``, ``catalog``,
``cli``), a wrapper that records a span: name, start, end, parent and one
count (points evaluated for ``summands.eval``, ``n_used`` for an engine
evaluation). Functions imported by name into other modules (``log_gamma``
in ``summands`` and ``catalog``, ``poly_sum`` in ``engine``, ...) are found
by identity and wrapped in every module that binds them; the returned
``Bindings`` switch all of them between wrapper and original. Summands
returned by the ``summands`` constructors get traced ``eval``/``deriv``
through ``dataclasses.replace``.

Spans of one operation share its id. They are kept in memory; ``fold``
reduces each operation's spans to per-name totals when it ends, and the
first ``keep_spans`` spans are written to a file when the run ends.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import time
import types

LAYERS = ("polycore", "specialfn", "engine", "summands", "catalog", "cli")

# engine functions that run one level evaluation; their count is n_used
ENGINE_EVALS = ("engine.frac_sum_right", "engine.frac_sum_left")

ROOT = "bench.op"


class Tracer:
    """Span recorder for a single-threaded run.

    A span is a list ``[name, start_ns, end_ns, parent_index, count]``; its
    index in ``spans`` is its id within the current operation.
    """

    def __init__(self, keep_spans: int = 200_000):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.totals = Totals()
        self.kept: list[tuple] = []
        self.keep_spans = keep_spans
        self.ops = 0
        self._root = self.wrap(_call, ROOT)

    def wrap(self, fn, name, count=None):
        """Wrap fn so each call records a span. name may be a callable of the
        call's arguments; count(args, result) gives the span's count."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args), 0, 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        traced.__wrapped__ = fn
        traced.perfbench_traced = True
        return traced

    def wrap_summand(self, f):
        """The summand f with traced eval (and deriv, when it has one)."""
        if getattr(f.eval, "perfbench_traced", False):
            return f
        kw = {"eval": self.wrap(f.eval, "summands.eval", _points)}
        if f.deriv is not None:
            kw["deriv"] = self.wrap(f.deriv, "summands.deriv")
        return dataclasses.replace(f, **kw)

    def run_op(self, fn):
        """Call fn() as one operation, under a root span."""
        self.spans.clear()
        del self.stack[1:]
        return self._root(fn)

    def end_op(self) -> None:
        """Fold the finished operation's spans; keep the first ones for the file."""
        self.totals.add(fold(self.spans))
        room = self.keep_spans - len(self.kept)
        if room > 0:
            self.kept.extend((self.ops, i, *s) for i, s in enumerate(self.spans[:room]))
        self.ops += 1

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,name,start_ns,end_ns,parent,count\n")
            for op, i, name, start, end, parent, n in self.kept:
                fh.write(f"{op},{i},{name},{start},{end},{parent},{n}\n")


def _call(fn):
    return fn()


def _points(args, out) -> int:
    return int(getattr(args[0], "size", 1))


def _n_used(args, out) -> int:
    return int(out.n_used)


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__):
            yield attr, obj


class Bindings:
    """Every place that binds a traced function: switch() puts the wrappers
    in (True) or the originals back (False)."""

    def __init__(self):
        self.places: list[tuple] = []  # (setter, key, original, wrapper)

    def add(self, setter, key, original, wrapper) -> None:
        self.places.append((setter, key, original, wrapper))

    def switch(self, traced: bool) -> None:
        for setter, key, original, wrapper in self.places:
            setter(key, wrapper if traced else original)


def install(tracer: Tracer) -> Bindings:
    """Wrappers for every binding of every public function of the fracsum
    layers; they are put in place by ``Bindings.switch(True)``."""
    mods = {layer: importlib.import_module(f"fracsum.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, fn in _public_functions(mod):
            name = f"{layer}.{attr}"
            if name in ENGINE_EVALS:
                wrapped[fn] = tracer.wrap(fn, name, _n_used)
            elif layer == "summands" and attr != "parse_complex":
                wrapped[fn] = _summand_factory(tracer, fn, "summands.build")
            elif name == "catalog.run_identity":
                wrapped[fn] = tracer.wrap(fn, lambda args: f"catalog.{args[0]}")
            elif name == "cli.build_parser":
                wrapped[fn] = _parser_factory(tracer, fn)
            else:
                wrapped[fn] = tracer.wrap(fn, name)
    bindings = Bindings()
    for mod in (importlib.import_module("fracsum"), *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                bindings.add(functools.partial(setattr, mod), attr, obj, wrapped[obj])
            elif isinstance(obj, dict):
                # dispatch tables such as summands._NO_ARG_FAMILIES
                for key, val in obj.items():
                    if isinstance(val, types.FunctionType) and val in wrapped:
                        bindings.add(obj.__setitem__, key, val, wrapped[val])
    report = mods["catalog"].IdentityReport
    for attr in ("to_text", "to_dict"):
        orig = getattr(report, attr)
        bindings.add(functools.partial(setattr, report), attr, orig,
                     tracer.wrap(orig, "catalog.render"))
    return bindings


def _summand_factory(tracer: Tracer, fn, name):
    build = tracer.wrap(fn, name)

    def traced_factory(*args, **kwargs):
        return tracer.wrap_summand(build(*args, **kwargs))

    traced_factory.__wrapped__ = fn
    return traced_factory


def _parser_factory(tracer: Tracer, fn):
    build = tracer.wrap(fn, "cli.build_parser")

    def traced_build(*args, **kwargs):
        parser = build(*args, **kwargs)
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
        return parser

    traced_build.__wrapped__ = fn
    return traced_build


# ---------------------------------------------------------------------------
# reduction of spans to per-name and per-layer totals


@dataclasses.dataclass
class Totals:
    """Sums over operations of what ``fold`` reports for each."""

    calls: dict = dataclasses.field(default_factory=dict)   # outermost spans per name
    incl_ns: dict = dataclasses.field(default_factory=dict)  # their durations
    count: dict = dataclasses.field(default_factory=dict)    # their counts
    self_ns: dict = dataclasses.field(default_factory=dict)  # per layer
    root_ns: int = 0
    spans: int = 0
    engine_points: int = 0
    engine_useful: int = 0
    ops: int = 0

    def add(self, part: "Totals") -> None:
        for mine, theirs in ((self.calls, part.calls), (self.incl_ns, part.incl_ns),
                             (self.count, part.count), (self.self_ns, part.self_ns)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        self.root_ns += part.root_ns
        self.spans += part.spans
        self.engine_points += part.engine_points
        self.engine_useful += part.engine_useful
        self.ops += part.ops


def fold(spans) -> Totals:
    """Reduce one operation's spans, given in entry order (parents first).

    A span's self time is its duration minus the time its direct children
    cover; per-name calls, durations and counts take only outermost spans
    (no ancestor of the same name), so recursion is not counted twice. The
    points each engine evaluation spent are the counts of the
    ``summands.eval`` spans under it; 2 * n_used of them were useful.
    """
    t = Totals(ops=1, spans=len(spans))
    child = [0] * len(spans)
    points = {}
    for i, (name, start, end, parent, n) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child[parent] += dur
        else:
            t.root_ns += dur
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t.calls[name] = t.calls.get(name, 0) + 1
            t.incl_ns[name] = t.incl_ns.get(name, 0) + dur
            t.count[name] = t.count.get(name, 0) + n
        if name == "summands.eval" and p < 0:
            e = parent
            while e >= 0 and spans[e][0] not in ENGINE_EVALS:
                e = spans[e][3]
            if e >= 0:
                points[e] = points.get(e, 0) + n
    for i, (name, start, end, parent, n) in enumerate(spans):
        layer = name.split(".", 1)[0]
        t.self_ns[layer] = t.self_ns.get(layer, 0) + (end - start) - child[i]
    for e, pts in points.items():
        t.engine_points += pts
        t.engine_useful += min(pts, 2 * spans[e][4])
    return t
