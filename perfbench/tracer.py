"""Layer tracer for ewverify, installed from outside the package.

The tracer wraps the public entry points of each layer module: every public
module-level function, and the public and arithmetic methods of the classes
listed in ``CLASSES``.  A wrapper is bound on every ``ewverify`` module
attribute that refers to the original function, because several modules
import functions by name (``from .fields import substitute``); methods are
wrapped on their class.

Three kinds of wrapper, chosen per class because the hot value types are
called up to a million times per job:

- ``span``  times the call and keeps a span record (name, start, end,
  parent) in memory until :meth:`Tracer.summary`;
- ``time``  times the call and folds it into its layer's self time on the
  fly, without a span record (``ContractionScalar`` and ``Mat2``);
- ``count`` only counts calls (``ComplexRational`` arithmetic).

Spans are timed with ``time.thread_time``, the CPU time of the one thread
that runs the CLI, so the benchmark's pauses of the process (``run.Slices``)
do not count.  A layer's self time is its spans' duration minus the time
covered by child spans.  Code that is not wrapped, such as stdlib
``fractions``, private helpers and ``report``, counts toward the layer whose
wrapper called it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("contraction", "matrices", "fields", "numeric", "model", "limits",
          "parser", "cli")

# class name -> wrapper kind; ``count`` classes wrap their arithmetic only.
CLASSES = {
    "contraction": {"ComplexRational": "count", "ContractionScalar": "time"},
    "matrices": {"Mat2": "time"},
    "fields": {"Expression": "span"},
}

ARITHMETIC = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__truediv__", "__neg__", "__pow__", "conjugate", "abs2",
))

# Entry point -> check name.  Only the outermost check span counts, so the
# spectra that ``mass-invariance`` extracts are not also counted as ``masses``.
CHECKS = {
    "matrices.verify_group": "group-axioms",
    "model.verify_grading": "grading-identity",
    "model.verify_matter_radial": "matter-radial-identity",
    "model.check_u1_invariance": "u1-invariance",
    "model.check_su2_invariance": "su2-invariance",
    "model.verify_trace_identity": "trace-identity",
    "limits.decoupling_check": "base-fiber-decoupling",
    "limits.mass_invariance_check": "mass-invariance",
    "model.extract_masses": "masses",
    "limits.scaling_sweep": "scaling-sweep",
}

NOTE = ("ComplexRational arithmetic is counted, not timed; ContractionScalar "
        "and Mat2 methods are timed without span records; other entry points "
        "keep span records; numeric.eval.products is a structural count, the "
        "index combinations implied by the evaluated expressions "
        "(DIMENSION ** dummy indices, per term), not combinations the "
        "evaluation loop was seen to run")


def _targets(module, layer):
    """Yield (owner, attribute, function, name, kind) for one layer module."""
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            yield module, attr, obj, f"{layer}.{attr}", "span"
    for cls_name, kind in CLASSES.get(layer, {}).items():
        cls = getattr(module, cls_name)
        for attr, obj in vars(cls).items():
            if (kind == "count" or attr.startswith("_")) and attr not in ARITHMETIC:
                continue
            fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
            if inspect.isfunction(fn):
                yield cls, attr, obj, f"{layer}.{fn.__qualname__}", kind


class Tracer:
    """Counts and spans for one process; ``install`` before the CLI runs."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent id
        self._span_parent: list[int] = []  # span id -> parent span id, -1 at the root
        self._span_name: list[str] = []  # span id -> name
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._products: dict[int, tuple[object, int]] = {}
        self.wrapped: dict[object, object] = {}  # original function -> wrapper

    # --- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"ewverify.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for owner, attr, obj, name, kind in list(_targets(module, layer)):
                if isinstance(obj, (classmethod, staticmethod)):
                    wrapper = type(obj)(self._wrap(obj.__func__, name, layer, kind))
                    self.wrapped[obj.__func__] = wrapper.__func__
                elif obj in self.wrapped:  # alias such as __radd__ = __add__
                    wrapper = self.wrapped[obj]
                else:
                    wrapper = self._wrap(obj, name, layer, kind)
                    self.wrapped[obj] = wrapper
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, wrapper)
        # rebind names imported with ``from .x import f`` in every module
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ewverify" and not mod_name.startswith("ewverify."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self.wrapped.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name, layer, kind):
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        pre, post = HOOKS.get(name, (None, None))
        clock = time.thread_time
        stack = self._stack
        self_s = self.self_s
        record = kind == "span"
        spans, parents, names = self.spans, self._span_parent, self._span_name

        def traced(*args, **kwargs):
            counts[name] += 1
            if pre is not None:
                args = pre(self, args)
            parent = stack[-1][2] if stack else -1
            if record:
                span_id = len(parents)
                parents.append(parent)
                names.append(name)
            else:
                span_id = parent  # children attach to the nearest recorded span
            frame = [0.0, clock(), span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans.append((name, frame[1], end, parent))
            if post is not None:
                post(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # --- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, per-layer self time, and outermost time per span name."""
        inclusive: Counter = Counter()
        checks: Counter = Counter()
        for name, start, end, parent in self.spans:
            ancestors = set()
            while parent >= 0:
                ancestors.add(self._span_name[parent])
                parent = self._span_parent[parent]
            if name not in ancestors:
                inclusive[name] += end - start
            if name in CHECKS and not ancestors.intersection(CHECKS):
                checks[CHECKS[name]] += end - start
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(inclusive),
            "check_s": dict(checks),
        }


# --- hooks that derive per-layer counters from arguments and results --------

def _build_terms(tracer, args):
    cls, raw, *rest = args
    raw = list(raw)
    tracer.counts["fields.build.terms_in"] += len(raw)
    return (cls, raw, *rest)


def _cs_pairs(tracer, args):
    left, right = args[0], args[1]
    width = len(right.coeffs) if isinstance(right, type(left)) else 1
    tracer.counts["contraction.cs_mul.coeff_pairs"] += len(left.coeffs) * width
    return args


def _eval_products(tracer, args):
    """Count the combinations an expression's dummy indices imply (see NOTE)."""
    expr = args[0]
    cached = tracer._products.get(id(expr))
    if cached is None or cached[0] is not expr:
        from ewverify.numeric import DIMENSION
        n = sum(DIMENSION ** sum(1 for c in t.index_counts().values() if c == 2)
                for t in expr.terms)
        cached = tracer._products[id(expr)] = (expr, n)
    tracer.counts["numeric.eval.products"] += cached[1]
    return args


def _equals_path(tracer, result):
    if result.decision_path == "numeric-oracle":
        tracer.counts["numeric.equals.oracle"] += 1


def _sweep_draws(tracer, result):
    tracer.counts["limits.sweep.redraws"] += result.degenerate_redraws
    tracer.counts["limits.sweep.draws"] += result.samples + result.degenerate_redraws


HOOKS = {
    "fields.Expression.build": (_build_terms, None),
    "contraction.ContractionScalar.__mul__": (_cs_pairs, None),
    "numeric.eval_expression": (_eval_products, None),
    "numeric.equals": (None, _equals_path),
    "limits.scaling_sweep": (None, _sweep_draws),
}
