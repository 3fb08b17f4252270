"""Spans around the calls into each helirep module, installed from outside.

``Tracer.install`` replaces every public function of a helirep module,
and every public method of a class defined there, with a wrapper that
records a span.  The wrapper is put both on the defining module and on
every other helirep module (or module-level dict) holding a reference to
the same function, so ``hyperspherical.sph_p`` and ``SUITES["cg"]`` are
seen as well.  A few private helpers and foreign calls are wrapped as
probes: they are timed into their layer but not counted as calls.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans add up to the time covered by
top-level spans.  Spans are aggregated in memory per (caller, callee)
edge, since a round of ``points`` makes millions of them; the top-level
operation spans are kept whole.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter
from fractions import Fraction

LAYERS = (
    "halfint", "kernels", "su2", "hyperspherical", "core", "generators",
    "tensordec", "clifford", "gelfand_yaglom", "radial", "suites", "cli",
)

# Dunder methods that are part of a class's public surface: construction,
# arithmetic, comparison and conversion.
_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__abs__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__matmul__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__hash__", "__float__", "__int__",
})

# Counters reported per traced round, besides <layer>.calls and .self_s.
COUNTERS = (
    "halfint.objects", "kernels.series_terms", "kernels.exact_calls",
    "su2.reflections", "su2.pole_skips", "hyperspherical.scalar_evals",
    "hyperspherical.repeat_keys", "hyperspherical.grid_cells",
    "radial.rhs_evals", "cli.output_bytes", "clifford.rank_bytes",
    "clifford.subset_products", "gelfand_yaglom.relations",
)


def _twice(value):
    """Twice a spin label, computed without calling into helirep."""
    twice = getattr(value, "twice", None)
    if twice is not None:
        return twice
    return int(Fraction(str(value) if isinstance(value, str) else value) * 2)


def _as_float(value):
    twice = getattr(value, "twice", None)
    return twice / 2 if twice is not None else float(value)


class Tracer:
    def __init__(self):
        self.names = []      # span id -> "module.qualname"
        self.layer_of = []   # span id -> layer
        self.public = []     # span id -> counted in <layer>.calls
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.edges = {}      # (caller id or -1, callee id) -> [count, total_s]
        self.counts = Counter()
        self.top_s = 0.0
        self.op_spans = []   # (op name, start, end) of top-level operations
        self._stack = []
        self._seen_keys = set()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _register(self, name, layer, public):
        self.names.append(name)
        self.layer_of.append(layer)
        self.public.append(public)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer, public=True, hook=None):
        sid = self._register(name, layer, public)
        stack, calls, total_s, self_s, edges = (
            self._stack, self.calls, self.total_s, self.self_s, self.edges)
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                calls[sid] += 1
                total_s[sid] += duration
                self_s[sid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    key = (stack[-1][0], sid)
                else:
                    tracer.top_s += duration
                    key = (-1, sid)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
            if hook is not None:
                hook(tracer, args, out, None)
            return out

        return functools.update_wrapper(span, fn)

    def begin_round(self):
        """Forget the seen (2l, 2m, 2n) keys: repeats are counted per round."""
        self._seen_keys.clear()

    def record_op(self, name, start, end):
        self.op_spans.append((name, start, end))

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"helirep.{layer}") for layer in LAYERS}
        package = importlib.import_module("helirep")
        wrappers = {}  # id(original) -> wrapper
        hooks = _hooks()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer,
                                         hook=hooks.get(f"{layer}.{attr}"))
                    wrappers[id(obj)] = wrapper
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, layer, hooks)
        for (layer, attr), hook in _PROBES.items():
            mod = modules[layer]
            original = getattr(mod, attr)
            wrappers[id(original)] = self._wrap(
                original, f"{layer}.{attr}", layer, public=False, hook=hook)
        self._rebind(list(modules.values()) + [package], wrappers)
        # clifford ranks its product matrix through numpy; time that call
        # as clifford's own work.
        linalg = importlib.import_module("numpy.linalg")
        original = linalg.matrix_rank
        self._set(linalg, "matrix_rank", self._wrap(
            original, "clifford:numpy.linalg.matrix_rank", "clifford",
            public=False, hook=_rank_hook))

    def _patch_class(self, cls, layer, hooks):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = hooks.get(name)
            if isinstance(member, classmethod):
                new = classmethod(self._wrap(member.__func__, name, layer, hook=hook))
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, name, layer, hook=hook))
            elif isinstance(member, property):
                if member.fget is None:
                    continue
                new = property(self._wrap(member.fget, name, layer, hook=hook),
                               member.fset, member.fdel, member.__doc__)
            elif inspect.isfunction(member):
                new = self._wrap(member, name, layer, hook=hook)
            else:
                continue
            self._set(cls, attr, new)

    def _rebind(self, namespaces, wrappers):
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj):
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if callable(value) and id(value) in wrappers:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = wrappers[id(value)]

    def _set(self, owner, attr, value):
        self._restore.append((functools.partial(setattr, owner), attr,
                              owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for setter, key, value in reversed(self._restore):
            setter(key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        calls = Counter()
        self_s = Counter()
        for sid, layer in enumerate(self.layer_of):
            if self.public[sid]:
                calls[layer] += self.calls[sid]
            self_s[layer] += self.self_s[sid]
        return calls, self_s

    def probe_total(self, name):
        return sum(t for n, t in zip(self.names, self.total_s) if n == name)

    def dump(self, path, extra):
        spans = [
            {"name": name, "layer": layer, "public": public, "calls": calls,
             "total_s": total, "self_s": self_time}
            for name, layer, public, calls, total, self_time in zip(
                self.names, self.layer_of, self.public, self.calls,
                self.total_s, self.self_s)
            if calls
        ]
        edges = [
            {"caller": "<op>" if caller < 0 else self.names[caller],
             "callee": self.names[callee], "count": count, "total_s": total}
            for (caller, callee), (count, total) in sorted(self.edges.items())
        ]
        ops = [{"op": name, "start": start, "end": end}
               for name, start, end in self.op_spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "spans": spans, "edges": edges, "ops": ops},
                      handle, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Counters taken at the span boundary from arguments and results


def _halfint_object(tracer, args, out, exc):
    if exc is None:
        tracer.counts["halfint.objects"] += 1


def _series_hook(tracer, args, out, exc):
    stops = []
    for param in args[0]:
        value = _as_float(param)
        if value <= 0 and value == round(value):
            stops.append(-int(round(value)))
    if stops:
        tracer.counts["kernels.series_terms"] += min(stops)
    if isinstance(out, Fraction):
        tracer.counts["kernels.exact_calls"] += 1


def _reflection_hook(tracer, args, out, exc):
    if math.cos(float(args[3])) < 0.0:
        tracer.counts["su2.reflections"] += 1


def _pole_hook(tracer, args, out, exc):
    if exc is not None and type(exc).__name__ == "PoleError":
        tracer.counts["su2.pole_skips"] += 1


def _key_seen(tracer, args):
    key = (_twice(args[0]), _twice(args[1]), _twice(args[2]))
    if key in tracer._seen_keys:
        tracer.counts["hyperspherical.repeat_keys"] += 1
    tracer._seen_keys.add(key)


def _scalar_hook(tracer, args, out, exc):
    if exc is None:
        tracer.counts["hyperspherical.scalar_evals"] += 1
        _key_seen(tracer, args)


def _grid_hook(tracer, args, out, exc):
    if exc is None:
        tracer.counts["hyperspherical.grid_cells"] += out.size
        _key_seen(tracer, args)


def _solve_hook(tracer, args, out, exc):
    if exc is None:
        tracer.counts["radial.rhs_evals"] += int(out.nfev)


def _rank_hook(tracer, args, out, exc):
    tracer.counts["clifford.rank_bytes"] += int(getattr(args[0], "nbytes", 0))


def _products_hook(tracer, args, out, exc):
    if exc is None:
        tracer.counts["clifford.subset_products"] += len(out)


def _invariance_hook(tracer, args, out, exc):
    if exc is None:
        tracer.counts["gelfand_yaglom.relations"] += len(out["residuals"])


def _rotation_table_hook(tracer, args, out, exc):
    # lambda12_from_commutators checks the nine-row rotation table.
    if exc is None:
        tracer.counts["gelfand_yaglom.relations"] += 9


def _hooks():
    return {
        "halfint.HalfInt.__init__": _halfint_object,
        "halfint.HalfInt.from_twice": _halfint_object,
        "kernels.terminating_series": _series_hook,
        "su2.sph_p": _reflection_hook,
        "su2.cg_su2_hyp": _pole_hook,
        "hyperspherical.z_series": _scalar_hook,
        "hyperspherical.z_factorized": _scalar_hook,
        "hyperspherical.z_grid": _grid_hook,
        "hyperspherical.z_series_grid": _grid_hook,
        "gelfand_yaglom.verify_invariance": _invariance_hook,
        "gelfand_yaglom.lambda12_from_commutators": _rotation_table_hook,
    }


# Private helpers and foreign calls timed as part of their layer.
_PROBES = {
    ("clifford", "_subset_products"): _products_hook,
    ("radial", "solve_ivp"): _solve_hook,
}
