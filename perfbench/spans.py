"""Per-layer spans and counters for the traced run, installed from outside qlr.

A layer is one ``qlr`` module. ``Tracer.install`` rebinds every public
function and the main methods of every class of each module, in every qlr
module namespace, to a wrapper. A span opens when a call crosses from one
layer into another and closes when it returns; its self time is its duration
minus the child spans it contains. Calls that stay inside the current layer
are counted but open no span. Spans are folded into per-layer totals as they
close, so memory stays flat however many calls a run makes.

Tracing costs several times the untraced run time, so end-to-end numbers
always come from untraced runs.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "shapes", "tableaux", "crystal", "charge", "catabolism",
    "cyclage", "kpoly", "involution", "verify", "cli",
)
# methods wrapped besides the public ones; hashing and equality stay
# unwrapped because dictionary lookups call them everywhere
WRAPPED_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__",
                   "__mul__", "__rmul__", "__neg__"}
# inclusive wall time of these entry points, outermost call only
TIMERS = {
    "kostant": ("kpoly.k_by_kostant",),
    "series": ("kpoly.series_decomposition",),
    "recurrence": ("kpoly.k_by_recurrence",),
    "lr": ("kpoly.lr_coefficient", "kpoly.lr3", "kpoly.lr_skew_times_row",
           "kpoly.lr_product_coefficient"),
    "charge": ("kpoly.k_by_charge",),
}
PERM_OPS = (
    "shapes.inversions", "shapes.perm_sign", "shapes.perm_inverse",
    "shapes.perm_mul", "shapes.perm_apply", "shapes.identity_perm",
    "shapes.adjacent_transposition", "shapes.reduced_word",
    "shapes.all_permutations", "shapes.dominant_sort",
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _memo_ratio(*cached) -> float:
    """Hit ratio over the memo tables given; a name that is gone or no longer
    memoized counts as no lookups."""
    infos = [f.cache_info() for f in cached if hasattr(f, "cache_info")]
    hits = sum(i.hits for i in infos)
    return _ratio(hits, hits + sum(i.misses for i in infos))


class Tracer:
    def __init__(self):
        self.stack = ["bench"]      # layer of each open span
        self.child = [0.0]          # child-span time inside each open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.timer_s = defaultdict(float)
        self.timer_open = Counter()
        self.originals = {}
        self.hooks = {}

    # -- wrappers ------------------------------------------------------------

    def _span_call(self, f, layer, name, hook):
        stack, child, self_s, calls = self.stack, self.child, self.self_s, self.calls

        def call(*args, **kwargs):
            calls[name] += 1
            if stack[-1] == layer:
                result = f(*args, **kwargs)
            else:
                stack.append(layer)
                child.append(0.0)
                t0 = perf_counter()
                try:
                    result = f(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[layer] += dt - child.pop()
                    child[-1] += dt
            if hook is not None:
                hook(args, result)
            return result

        return call

    def _span_generator(self, f, layer, name):
        """A generator's work runs at each ``next``, so each one is a span."""
        stack, child, self_s = self.stack, self.child, self.self_s
        calls, counts = self.calls, self.counts

        def call(*args, **kwargs):
            calls[name] += 1
            it = f(*args, **kwargs)
            while True:
                stack.append(layer)
                child.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    inner = child.pop()
                    self_s[layer] += dt - inner
                    child[-1] += dt
                counts[name + ".yields"] += 1
                yield item

        return call

    def _timed(self, f, group):
        timer_s, timer_open = self.timer_s, self.timer_open

        def call(*args, **kwargs):
            if timer_open[group]:
                return f(*args, **kwargs)
            timer_open[group] = 1
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                timer_s[group] += perf_counter() - t0
                timer_open[group] = 0

        return call

    def _wrap(self, f, layer, name):
        self.originals[name] = f
        if inspect.isgeneratorfunction(f):
            return self._span_generator(f, layer, name)
        wrapped = self._span_call(f, layer, name, self.hooks.get(name))
        for group, names in TIMERS.items():
            if name in names:
                wrapped = self._timed(wrapped, group)
        return wrapped

    def _hooks(self):
        counts = self.counts
        reduced_word = importlib.import_module("qlr.shapes").reduced_word

        def kostant_q(args, result):
            counts["kostant_nonzero"] += bool(result)

        def bott_straighten(args, result):
            counts["straighten_kept"] += result is not None

        def series_monomials(args, result):
            counts["series_monomials"] += len(result)

        def is_catabolizable(args, result):
            counts["cst_kept"] += bool(result)

        def plactic_act(args, result):
            counts["plactic_reflections"] += len(reduced_word(args[0]))

        return {
            "kpoly.kostant_q": kostant_q,
            "kpoly.bott_straighten": bott_straighten,
            "kpoly.series_monomials": series_monomials,
            "catabolism.is_catabolizable": is_catabolizable,
            "crystal.plactic_act": plactic_act,
        }

    # -- installation ----------------------------------------------------------

    def install(self):
        """Rebind qlr's functions and methods to traced wrappers."""
        modules = {layer: importlib.import_module(f"qlr.{layer}") for layer in LAYERS}
        self.hooks = self._hooks()
        replaced = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer)
                elif callable(value):
                    replaced[id(value)] = self._wrap(value, layer, f"{layer}.{attr}")
        for mod in [importlib.import_module("qlr"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self._wrap(value.__func__, layer, name)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, layer, name))

    # -- results ---------------------------------------------------------------

    def metrics(self, cache_hits: int, cache_lookups: int) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        calls, counts, timer_s = self.calls, self.counts, self.timer_s
        orig = self.originals
        kpoly = importlib.import_module("qlr.kpoly")
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        kostant_calls = calls["kpoly.kostant_q"]
        straighten_calls = calls["kpoly.bott_straighten"]
        cst_tested = calls["catabolism.is_catabolizable"]
        out.update({
            "kpoly.kostant.s": (timer_s["kostant"], "s"),
            "kpoly.kostant.perms": (kostant_calls, "count"),
            "kpoly.kostant.nonzero_ratio": (_ratio(counts["kostant_nonzero"], kostant_calls), "ratio"),
            "kpoly.series.s": (timer_s["series"], "s"),
            "kpoly.series.monomials": (counts["series_monomials"], "count"),
            "kpoly.series.straighten_kept_ratio": (
                _ratio(counts["straighten_kept"], straighten_calls), "ratio"),
            "kpoly.recurrence.s": (timer_s["recurrence"], "s"),
            "kpoly.recurrence.memo_hit_ratio": (_memo_ratio(getattr(kpoly, "_k_rec", None)), "ratio"),
            "kpoly.lr.s": (timer_s["lr"], "s"),
            "kpoly.lr.memo_hit_ratio": (
                _memo_ratio(orig.get("kpoly.lr_coefficient"), orig.get("kpoly.lr_skew_times_row")),
                "ratio"),
            "kpoly.qpoly_new": (calls["kpoly.QPoly.__init__"], "count"),
            "kpoly.charge.s": (timer_s["charge"], "s"),
            "catabolism.cst_tested": (cst_tested, "count"),
            "catabolism.cst_kept": (counts["cst_kept"], "count"),
            "catabolism.keep_ratio": (_ratio(counts["cst_kept"], cst_tested), "ratio"),
            "tableaux.tableau_new": (calls["tableaux.Tableau.__init__"], "count"),
            "tableaux.enumerate_cst.memo_hit_ratio": (
                _memo_ratio(orig.get("tableaux.enumerate_cst")), "ratio"),
            "involution.u_content_calls": (calls["involution.InvolutionContext.u_content"], "count"),
            "involution.triples": (counts["involution.InvolutionContext.triples.yields"], "count"),
            "shapes.perm_ops": (sum(calls[name] for name in PERM_OPS), "count"),
            "crystal.r_pairing_calls": (calls["crystal.r_pairing"], "count"),
            "crystal.plactic_reflections": (counts["plactic_reflections"], "count"),
            "charge.memo_hit_ratio": (_memo_ratio(orig.get("charge.charge")), "ratio"),
            "cli.cache_lines_parsed": (calls["kpoly.QPoly.from_json"], "count"),
            "cli.cache_hit_ratio": (_ratio(cache_hits, cache_lookups), "ratio"),
        })
        return out
