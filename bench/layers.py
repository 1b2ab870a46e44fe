"""Per-layer tracing of one op, done from outside the package.

The tracer wraps public functions and methods of ``subriemann`` after it is
imported; nothing inside ``src/`` is changed.  Every wrapped call opens a
frame on a per-thread stack.  When the frame closes, its duration minus the
time of the frames nested in it is its self time, which is added to the
layer that owns the wrapped name.  Calls of the hot names (``Expr.at``,
``diff``, ``compiled_cse``) only add to per-name totals; every other call is
also kept as a span (id, name, layer, start, end, parent).

``diff`` recurses through the tree, so a name already open on the stack is
called straight through: only outermost calls are timed and counted, for
every name.  ``rk4_step`` is counted, never timed: its right-hand side
belongs to whichever layer called it.

``rt-report`` runs its checks in a thread pool.  A frame opened on a thread
whose stack is empty takes the main thread's open frame as its parent.  That
is exact while one thread at a time runs traced code, which holds here: the
op processes run with ``SUBRIEMANN_THREADS`` unset, so the pool has one
worker and the main thread waits on it.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

LAYERS = ("expr", "structures", "curves", "surfaces", "variation", "cli")

# (metric prefix, module, attribute path, layer, kind); kind is "span",
# "hot" (timed, no span kept), "count" (call count only) or "capture" (keeps
# sigma_c's q_expr() trees in rt for node counting after the op).  A function is
# replaced wherever the package bound it by ``from ... import``, except a
# "count" target, which is replaced only in its own module: ``rk4_step`` is
# counted apart as bound in ``curves`` and as bound in ``variation``.
TARGETS = (
    ("expr.compile", "subriemann.expr", "compiled_cse", "expr", "hot"),
    ("expr.at", "subriemann.expr", "Expr.at", "expr", "hot"),
    ("expr.diff", "subriemann.expr", "*.diff", "expr", "hot"),
    ("structures.build", "subriemann.catalog", "rt_structure", "structures", "span"),
    ("structures.build", "subriemann.catalog", "heisenberg_structure", "structures",
     "span"),
    ("curves.rk4", "subriemann.curves", "rk4_step", "curves", "count"),
    ("curves.characteristic", "subriemann.curves", "integrate_characteristic",
     "curves", "span"),
    ("curves.jacobi", "subriemann.curves", "jacobi_vertical_ode", "curves", "span"),
    ("curves.family", "subriemann.curves", "jacobi_from_curve_family", "curves", "span"),
    ("curves.csv", "subriemann.curves", "CurveTrace.to_csv", "curves", "span"),
    ("surfaces.frame_point", "subriemann.surfaces", "SurfaceGeometry.frame_point",
     "surfaces", "span"),
    ("surfaces.geometry", "subriemann.surfaces", "ImplicitSurface.geometry",
     "surfaces", "span"),
    ("surfaces.project", "subriemann.surfaces", "ImplicitSurface.project",
     "surfaces", "span"),
    ("surfaces.singular_detect", "subriemann.surfaces", "singular_set_detect",
     "surfaces", "span"),
    ("surfaces.stationarity", "subriemann.surfaces", "stationarity_at_singular_curve",
     "surfaces", "span"),
    ("variation.fan", "subriemann.variation", "CharPatch.fan_from_curve",
     "variation", "span"),
    ("variation.base_patch", "subriemann.variation", "CharPatch.from_base_point",
     "variation", "span"),
    ("variation.flow_rk4", "subriemann.variation", "rk4_step", "variation", "count"),
    ("variation.q", "subriemann.variation", "stability_quadratic_Q", "variation", "span"),
    ("variation.index_form", "subriemann.variation", "index_form", "variation", "span"),
    ("variation.sign_field", "subriemann.variation", "stability_sign_field",
     "variation", "span"),
    ("expr.q", "subriemann.surfaces", "SurfaceGeometry.q_expr", "expr", "capture"),
    ("cli.main", "subriemann.cli", "main", "cli", "span"),
    ("cli.plane_q_search", "subriemann.cli", "plane_q_search", "cli", "span"),
    ("cli.helicoid_q_samples", "subriemann.cli", "helicoid_q_samples", "cli", "span"),
)

# per-layer metric -> (unit, better), in the order the benchmark reports them
METRICS = {
    "expr.compile_calls": ("count", "lower"),
    "expr.compile_misses": ("count", "lower"),
    "expr.compile_s": ("s", "lower"),
    "expr.at_calls": ("count", "lower"),
    "expr.at_s": ("s", "lower"),
    "expr.diff_calls": ("count", "lower"),
    "expr.diff_s": ("s", "lower"),
    "expr.q_nodes": ("count", "lower"),
    "expr.q_distinct_nodes": ("count", "lower"),
    "structures.build_calls": ("count", "lower"),
    "structures.build_s": ("s", "lower"),
    "curves.rk4_calls": ("count", "lower"),
    "curves.char_step_us": ("us", "lower"),
    "curves.jacobi_step_us": ("us", "lower"),
    "curves.family_s": ("s", "lower"),
    "curves.csv_s": ("s", "lower"),
    "surfaces.frame_point_calls": ("count", "lower"),
    "surfaces.frame_point_us": ("us", "lower"),
    "surfaces.geometry_calls": ("count", "lower"),
    "surfaces.geometry_s": ("s", "lower"),
    "surfaces.project_calls": ("count", "lower"),
    "surfaces.project_s": ("s", "lower"),
    "surfaces.singular_detect_s": ("s", "lower"),
    "surfaces.stationarity_s": ("s", "lower"),
    "variation.fan_s": ("s", "lower"),
    "variation.base_patch_s": ("s", "lower"),
    "variation.flow_rk4_calls": ("count", "lower"),
    "variation.q_calls": ("count", "lower"),
    "variation.q_s": ("s", "lower"),
    "variation.index_form_s": ("s", "lower"),
    "variation.sign_field_s": ("s", "lower"),
    "cli.plane_q_search_s": ("s", "lower"),
    "cli.helicoid_q_samples_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Frames, spans and per-name totals of one traced op."""

    def __init__(self):
        self.spans = []        # [id, name, layer, start, end, parent]
        self.totals = {}       # prefix -> [calls, seconds, rk4 steps inside]
        self.counts = {}       # prefix -> calls (count-only targets)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.missing = []
        self.q_trees = []      # q_expr() results of sigma_c in rt
        self._local = threading.local()
        self._main_stack = self._stack()
        self._t0 = time.perf_counter()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def call(self, prefix, layer, keep_span, fn, args, kwargs):
        stack = self._stack()
        for fr in stack:
            if fr[0] == prefix:
                return fn(*args, **kwargs)
        parent = self._parent(stack)
        sid = len(self.spans) if keep_span else None
        if keep_span:
            self.spans.append([sid, prefix, layer, 0.0, 0.0,
                               parent[4] if parent is not None else None])
        # frame: prefix, layer, start, nested seconds, span id, rk4 count
        frame = [prefix, layer, 0.0, 0.0, sid if keep_span else
                 (parent[4] if parent is not None else None),
                 self.counts.get("curves.rk4", 0)]
        stack.append(frame)
        frame[2] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[3]
            if parent is not None:
                parent[3] += dur
            tot = self.totals.setdefault(prefix, [0, 0.0, 0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += self.counts.get("curves.rk4", 0) - frame[5]
            if keep_span:
                self.spans[sid][3] = start - self._t0
                self.spans[sid][4] = end - self._t0

    def count(self, prefix, fn, args, kwargs):
        self.counts[prefix] = self.counts.get(prefix, 0) + 1
        return fn(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def _wrap(self, prefix, layer, kind, fn):
        if kind == "capture":
            def wrapper(geom, *args, **kwargs):
                out = fn(geom, *args, **kwargs)
                if (getattr(geom.surface, "name", "") == "sigma_c"
                        and getattr(geom.structure, "name", "") == "rt"
                        and not any(t is out for t in self.q_trees)):
                    self.q_trees.append(out)
                return out
        elif kind == "count":
            def wrapper(*args, **kwargs):
                return self.count(prefix, fn, args, kwargs)
        else:
            keep = kind == "span"

            def wrapper(*args, **kwargs):
                return self.call(prefix, layer, keep, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def install(self):
        """Wrap every target; names that no longer exist go to ``missing``."""
        for prefix, modname, path, layer, kind in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{path}")
                continue
            if path.startswith("*."):
                self._install_method_family(mod, path[2:], prefix, layer, kind)
            elif "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if raw is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self._wrap(prefix, layer, kind, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(prefix, layer, kind, raw))
            else:
                fn = getattr(mod, path, None)
                if not callable(fn):
                    self.missing.append(f"{modname}.{path}")
                    continue
                wrapper = self._wrap(prefix, layer, kind, fn)
                if kind == "count":
                    setattr(mod, path, wrapper)
                else:
                    self._rebind(fn, wrapper)

    def _install_method_family(self, mod, meth, prefix, layer, kind):
        """Wrap ``meth`` on every class of ``mod`` that defines it itself."""
        found = False
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and meth in obj.__dict__:
                setattr(obj, meth, self._wrap(prefix, layer, kind, obj.__dict__[meth]))
                found = True
        if not found:
            self.missing.append(f"{mod.__name__}.*.{meth}")

    @staticmethod
    def _rebind(fn, wrapper):
        """Replace ``fn`` in its module and wherever ``from ... import`` bound it."""
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "subriemann" or name.startswith("subriemann.")):
                continue
            for attr, val in list(vars(other).items()):
                if val is fn:
                    setattr(other, attr, wrapper)

    # -- results ---------------------------------------------------------------

    def metrics(self, fast_cache_growth):
        """Per-layer metrics of the op (everything but the trace.* pair)."""
        def calls(p):
            return self.totals.get(p, [0, 0.0, 0])[0]

        def secs(p):
            return self.totals.get(p, [0, 0.0, 0])[1]

        def per_step_us(p):
            n, s, steps = self.totals.get(p, [0, 0.0, 0])
            return 1e6 * s / steps if steps else 0.0

        fp_calls = calls("surfaces.frame_point")
        nodes, distinct = 0, 0
        for tree in self.q_trees:
            n, d = tree_size(tree)
            nodes, distinct = max(nodes, n), max(distinct, d)
        out = {
            "expr.compile_calls": calls("expr.compile"),
            "expr.compile_misses": fast_cache_growth,
            "expr.compile_s": secs("expr.compile"),
            "expr.at_calls": calls("expr.at"),
            "expr.at_s": secs("expr.at"),
            "expr.diff_calls": calls("expr.diff"),
            "expr.diff_s": secs("expr.diff"),
            "expr.q_nodes": nodes,
            "expr.q_distinct_nodes": distinct,
            "structures.build_calls": calls("structures.build"),
            "structures.build_s": secs("structures.build"),
            "curves.rk4_calls": self.counts.get("curves.rk4", 0),
            "curves.char_step_us": per_step_us("curves.characteristic"),
            "curves.jacobi_step_us": per_step_us("curves.jacobi"),
            "curves.family_s": secs("curves.family"),
            "curves.csv_s": secs("curves.csv"),
            "surfaces.frame_point_calls": fp_calls,
            "surfaces.frame_point_us": (1e6 * secs("surfaces.frame_point") / fp_calls
                                        if fp_calls else 0.0),
            "surfaces.geometry_calls": calls("surfaces.geometry"),
            "surfaces.geometry_s": secs("surfaces.geometry"),
            "surfaces.project_calls": calls("surfaces.project"),
            "surfaces.project_s": secs("surfaces.project"),
            "surfaces.singular_detect_s": secs("surfaces.singular_detect"),
            "surfaces.stationarity_s": secs("surfaces.stationarity"),
            "variation.fan_s": secs("variation.fan"),
            "variation.base_patch_s": secs("variation.base_patch"),
            "variation.flow_rk4_calls": self.counts.get("variation.flow_rk4", 0),
            "variation.q_calls": calls("variation.q"),
            "variation.q_s": secs("variation.q"),
            "variation.index_form_s": secs("variation.index_form"),
            "variation.sign_field_s": secs("variation.sign_field"),
            "cli.plane_q_search_s": secs("cli.plane_q_search"),
            "cli.helicoid_q_samples_s": secs("cli.helicoid_q_samples"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


def tree_size(root):
    """(node count of the tree walk, number of distinct node objects)."""
    count = 0
    seen = set()
    todo = [root]
    while todo:
        node = todo.pop()
        count += 1
        seen.add(id(node))
        todo.extend(node.children())
    return count, len(seen)
