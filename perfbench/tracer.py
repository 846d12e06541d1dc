"""Per-layer tracing for the traced run, installed from outside the package.

Layers are the package's modules. The tracer replaces chosen functions and
methods with timing wrappers, and it patches every module global that is
bound to a wrapped function, because the package imports functions by name
(cli binds digit_sum_check, freeness binds rank_and_left_nullspace, ...).

Coarse boundaries (run_command, the verifiers, elimination, Magnus images,
inversion, the text format, crossed checks, monoid enumeration and
classification) are recorded as spans with start, end and parent, tagged with
the job id. Fine boundaries (group products and weights, series products and
sums, prime- and quadratic-field arithmetic, crossed twist and action) are
called too often for spans; for them the tracer keeps count, total and self
time per job. Self time is a boundary's duration minus the time of the
wrapped boundaries it called. Stdlib Fraction arithmetic cannot be wrapped,
so its cost lands in the self time of the layer that calls it.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "mnseries"
LAYERS = ("cli", "freeness", "magnus", "linalg", "series", "crossed", "groups", "scalars")

_GROUP_CLASSES = ("Heisenberg", "SemidirectGroup", "WreathGroup", "LatticeGroup")
_SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

# (module, qualified name) of each boundary
COARSE = (
    ("cli", "run_command"),
    ("freeness", "free_monoid_check"), ("freeness", "digit_sum_check"),
    ("freeness", "pingpong_check"), ("freeness", "group_algebra_independence"),
    ("freeness", "type1_unit_generators"),
    ("linalg", "rank_and_left_nullspace"),
    ("magnus", "magnus_image"),
    ("series", "GradedSeries.invert"), ("series", "from_text"), ("series", "to_text"),
    ("crossed", "check_crossed_system"),
    ("groups", "enumerate_monoid"), ("groups", "classify_order_type"),
)
FINE = (
    tuple(("groups", f"{c}.{m}") for c in _GROUP_CLASSES for m in ("multiply", "weight", "in_monoid"))
    + (("magnus", "FreeMonoid.multiply"), ("magnus", "FreeMonoid.weight"),
       ("series", "GradedSeries.__mul__"), ("series", "GradedSeries.__add__"),
       ("crossed", "CrossedSystem.twist"), ("crossed", "CrossedSystem.action"))
    + tuple(("scalars", f"{c}.{m}") for c in ("PrimeFieldElement", "QuadraticFieldElement")
            for m in _SCALAR_DUNDERS)
)
LAYER_OF = {name: layer for layer, name in COARSE + FINE}
# the report detail each verifier counts its checked items in
_ITEM_KEYS = {"free_monoid_check": "words", "digit_sum_check": "sums",
              "pingpong_check": "checked", "group_algebra_independence": "words"}


class Tracer:
    """Wraps the package's boundaries; call install() before the traced pass
    and uninstall() after it. Between begin_job() and end_job() every call to
    a boundary is recorded against that job."""

    def __init__(self):
        self.spans = []          # (job, span id, parent id, name, start, end)
        self.jobs = []           # per job: {name: [count, total, self]}
        self.stack = [0.0]       # child time of each open boundary, job level at the bottom
        self.span_stack = [None]
        self.job = None
        self.stats = None
        self.counters = {}
        self._patches = []
        self._hooks = {"rank_and_left_nullspace": self._after_rank,
                       "GradedSeries.__mul__": self._after_mul,
                       "GradedSeries.invert": self._after_invert}
        for name, key in _ITEM_KEYS.items():
            self._hooks[name] = lambda args, result, made, key=key: \
                self._count("freeness.items", result.details.get(key, 0))

    # -- job bracketing ------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self.stats = {}
        self.stack = [0.0]
        self.span_stack = [None]

    def end_job(self):
        self.jobs.append(self.stats)
        self.stats = None

    def _count(self, key, value, peak=False):
        c = self.counters
        c[key] = max(c.get(key, 0), value) if peak else c.get(key, 0) + value

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, coarse):
        clock = time.perf_counter
        tracer = self
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            stats = tracer.stats
            if stats is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if coarse:
                span_id = len(tracer.spans)
                parent = tracer.span_stack[-1]
                tracer.span_stack.append(span_id)
                tracer.spans.append(None)
            made = tracer.counters.get("products", 0) if hook is not None else 0
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                child = stack.pop()
                stack[-1] += duration
                entry = stats.get(name)
                if entry is None:
                    stats[name] = [1, duration, duration - child]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - child
                if coarse:
                    tracer.span_stack.pop()
                    tracer.spans[span_id] = (tracer.job, span_id, parent, name, t0, t1)
            if hook is not None:
                hook(args, result, made)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_product(self, name, fn):
        """A context product that also counts the group products made, for
        series.pair_useful_ratio."""
        inner = self._wrap(name, fn, False)
        counters = self.counters

        def product(*args):
            counters["products"] = counters.get("products", 0) + 1
            return inner(*args)

        product.__wrapped__ = fn
        return product

    # -- hooks for the counters named in the per-layer metrics ----------------

    def _after_rank(self, args, result, made):
        matrix = args[0]
        self._count("linalg.rows", len(matrix))
        self._count("linalg.cols", len(matrix[0]) if matrix else 0)
        self._count("linalg.deficient_calls", int(result[1] is not None))

    def _after_mul(self, args, result, made):
        self._count("series.pairs", len(args[0].terms) * len(args[1].terms))
        self._count("series.products", self.counters.get("products", 0) - made)
        self._count("series.peak_terms", len(result.terms), peak=True)

    def _after_invert(self, args, result, made):
        self._count("series.peak_terms", len(result.terms), peak=True)

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        replaced = {}
        for coarse, boundaries in ((True, COARSE), (False, FINE)):
            for layer, qualname in boundaries:
                owner = modules[layer]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if attr == "multiply":
                    wrapper = self._wrap_product(qualname, original)
                else:
                    wrapper = self._wrap(qualname, original, coarse)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                replaced[id(original)] = (original, wrapper)
        # rebind the names other modules imported
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def totals(self):
        """{boundary: [count, total, self]} summed over all jobs."""
        out = {}
        for stats in self.jobs:
            for name, (n, total, own) in stats.items():
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += own
        return out

    def layer_totals(self, column):
        """Per layer, the sum of one totals() column over its boundaries."""
        out = dict.fromkeys(LAYERS, 0)
        for name, entry in self.totals().items():
            out[LAYER_OF[name]] += entry[column]
        return out
