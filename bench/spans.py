"""Per-layer tracing for the benchmark, installed from outside the package.

A traced pass wraps the public functions and methods of each package module
(a layer) and records a span per call: name, start, end, parent span and the
op it belongs to. gf2n is called about a million times a pass, so its calls
are only counted, and the time of each outermost gf2n entry is charged to
the span that made it rather than recorded as a span of its own.

Nothing here runs unless Tracer.install() is called; uninstall() puts every
original object back.
"""

from collections import Counter
import enum
import functools
import inspect
import time

LAYERS = ("gf2n", "boolfunc", "vflats", "dopoly", "covers", "cycliccode", "cli")
COUNTED_LAYER = "gf2n"

# Per-layer time metrics: time under the outermost call to any of the named
# functions, their callees included.
INCLUSIVE = {
    "boolfunc.table_build_s": ("boolfunc.FunctionTable.__init__",
                               "boolfunc.FunctionTable.from_monomial",
                               "boolfunc.FunctionTable.from_univariate",
                               "boolfunc.FunctionTable.from_json"),
    "boolfunc.spectrum_s": ("boolfunc.FunctionTable.spectrum",),
    "vflats.count_s": ("vflats.count_via_spectrum",),
    "vflats.enumerate_s": ("vflats.enumerate_flats",),
    "dopoly.to_table_s": ("dopoly.DOPolynomial.to_table",),
    "dopoly.rank_s": ("dopoly.DOPolynomial.rank_multiset",),
    "covers.build_s": ("covers.gold_cover", "covers.theorem8_cover"),
    "covers.verify_s": ("covers.verify_cover", "covers.verify_nonparallel",
                        "covers.verify_totally_skew", "covers.overlapping_flats"),
    "cycliccode.report_s": ("cycliccode.report",),
    "cycliccode.direct_s": ("cycliccode.direct_low_weight_counts",),
}

# Per-layer count metrics: calls of one function.
CALLS = {
    "gf2n.mul_calls": "gf2n.GF.mul",
    "gf2n.pow_calls": "gf2n.GF.pow",
    "boolfunc.tables_built": "boolfunc.FunctionTable.__init__",
    "dopoly.ranks_computed": "dopoly.BinaryMatrix.rank",
}

# Per-layer count metrics read off a call's arguments or result.
TALLY_HOOKS = {
    "vflats.enumerate_flats": ("vflats.blocks_enumerated", lambda args, result: len(result)),
    "covers.verify_cover": ("covers.flats_verified", lambda args, result: len(args[0])),
}

# Counts the benchmark itself measures around each op.
BENCH_TALLIES = ("cli.stdout_bytes", "cli.file_bytes")


class Span:
    __slots__ = ("id", "op", "layer", "name", "start", "end", "parent", "leaf_s")

    def __init__(self, id, op, layer, name, start, end=None, parent=None, leaf_s=0.0):
        self.id, self.op, self.layer, self.name = id, op, layer, name
        self.start, self.end, self.parent, self.leaf_s = start, end, parent, leaf_s


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """{span id: self seconds}: the span's duration minus the part of it its
    child spans cover, minus the counted-layer time charged to it (leaf_s)."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]]) - s.leaf_s
    return out


def layer_self_times(spans):
    selfs = self_times(spans)
    totals = Counter()
    for s in spans:
        totals[s.layer] += selfs[s.id]
    return totals


def outermost_time(spans, names):
    """Summed duration of the spans named in names that have no ancestor
    also named in names."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.end - s.start
    return total


class Tracer:
    """Wraps the layer modules of one imported package."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.namespaces = [package, *self.modules.values()]
        self._restore = []
        self.reset()

    @property
    def installed(self):
        return bool(self._restore)

    def reset(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.tallies = Counter()
        self.counted_s = 0.0
        self._depth = 0
        self._op = None

    # --- op boundaries, called by the benchmark around each op -------------

    def begin_op(self, op_id, name):
        self._op = op_id
        self._open("bench", f"bench.op:{name}")

    def end_op(self):
        self._close(self.stack[-1])
        self._op = None

    def _open(self, layer, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), self._op, layer, name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    # --- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, layer, key):
        hook = TALLY_HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            span = self._open(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook:
                self.tallies[hook[0]] += hook[1](args, result)
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _count_wrapper(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self._depth:
                self._depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._depth -= 1
            self._depth = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth = 0
                self.counted_s += elapsed
                if self.stack:
                    self.stack[-1].leaf_s += elapsed

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _wrap(self, fn, layer, key):
        if layer == COUNTED_LAYER:
            return self._count_wrapper(fn, key)
        return self._span_wrapper(fn, layer, key)

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, layer, key))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                new = self._wrap(raw, layer, key)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, enum.Enum):
                        self._wrap_class(obj, layer)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        # a function imported by name into another module is rebound there too
        for namespace in self.namespaces:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(namespace, name, replaced[id(obj)][1])
                    self._restore.append((namespace, name, obj))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # --- metrics -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset()."""
        if self.stack:
            raise RuntimeError("spans still open")
        selfs = layer_self_times(self.spans)
        selfs[COUNTED_LAYER] += self.counted_s
        metrics = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
        for metric, names in INCLUSIVE.items():
            metrics[metric] = outermost_time(self.spans, set(names))
        for metric, key in CALLS.items():
            metrics[metric] = self.calls[key]
        for metric, _ in TALLY_HOOKS.values():
            metrics[metric] = self.tallies[metric]
        for metric in BENCH_TALLIES:
            metrics[metric] = self.tallies[metric]
        return metrics


def per_layer_units():
    """{metric: unit} for every metric layer_metrics() returns."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({m: "s" for m in INCLUSIVE})
    units.update({m: "count" for m in CALLS})
    units.update({m: "count" for m, _ in TALLY_HOOKS.values()})
    units.update({m: "bytes" for m in BENCH_TALLIES})
    return units
