"""Per-layer tracing from outside the package.

``Tracer.install`` wraps each layer's public functions (the names in the
module's ``__all__``, plus ``cli.main`` and the symbol and lattice methods
listed in ``METHODS``) wherever a ``schurkit`` module binds them, so a call
through ``schurkit.cli.norm_lower_bound`` or ``schurkit.estimator.schatten_norm``
records a span just as a direct call does. Each span is kept in memory as
[name id, start, end, parent span, job id]. Calls to ``numpy.linalg.svd``,
``eigh`` and ``eigvalsh`` are counted and timed but are not spans, so their
time stays in the self time of the layer that made the call.
``Tracer.uninstall`` puts every original back.

A layer's self time is the time of its spans minus the part covered by their
child spans. The ``*_s`` group metrics sum each group's outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "estimator", "schatten", "transference", "marcinkiewicz",
          "symbols", "lattice")

METHODS = {
    "symbols": {"DiscreteSymbol": ("eval_pairs", "values_on", "evaluable_mask"),
                "ContinuousSymbol": ("__call__", "partial", "partial_alpha")},
    "lattice": {"Box": ("index", "index_array", "points_array")},
}

# metric -> the traced names (layer.qualname) whose outermost spans it sums
TIME_GROUPS = {
    "schatten.schatten_norm_s": ("schatten.schatten_norm",),
    "schatten.lp_sp_norm_s": ("schatten.lp_sp_norm",),
    "schatten.square_function_norm_s": ("schatten.square_function_norm",),
    "transference.pi_embed_s": ("transference.pi_embed",),
    "transference.apply_fourier_multiplier_s": ("transference.apply_fourier_multiplier",),
    "transference.freq_project_s": ("transference.freq_project",),
    "transference.sbp_s": ("transference.summation_by_parts_1d",
                           "transference.summation_by_parts_2d"),
    "transference.lp_experiment_s": ("transference.lp_experiment",),
    "marcinkiewicz.variation_s": ("marcinkiewicz.check_1d", "marcinkiewicz.check_2d",
                                  "marcinkiewicz.check_dd"),
    "marcinkiewicz.check_continuous_s": ("marcinkiewicz.check_continuous",),
    "marcinkiewicz.discretize_s": ("marcinkiewicz.discretize_continuous",),
    "symbols.eval_pairs_s": ("symbols.DiscreteSymbol.eval_pairs",),
    "symbols.values_on_s": ("symbols.DiscreteSymbol.values_on",),
    "symbols.continuous_s": ("symbols.ContinuousSymbol.__call__",
                             "symbols.ContinuousSymbol.partial"),
    "lattice.index_array_s": ("lattice.Box.index_array",),
    "lattice.points_array_s": ("lattice.Box.points_array",),
}

# metric -> the traced name whose calls it counts
CALL_COUNTS = {
    "schatten.schatten_norm_calls": "schatten.schatten_norm",
    "transference.freq_project_calls": "transference.freq_project",
    "symbols.eval_pairs_calls": "symbols.DiscreteSymbol.eval_pairs",
}

COUNTERS = ("estimator.steps", "estimator.restarts", "schatten.grid_terms",
            "transference.coeff_bytes", "marcinkiewicz.quad_errors",
            "symbols.pairs_evaluated", "symbols.continuous_points")

LINALG = {"svd": "svd", "eigh": "eig", "eigvalsh": "eig"}


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _poly_bytes(f):
    return len(f.support) * f.rows.npoints * f.cols.npoints * 16


class Tracer:
    """Spans and counters for one traced phase; install, run jobs, uninstall."""

    def __init__(self):
        self.names = []          # name id -> "layer.qualname"
        self.spans = []          # [name id, start, end, parent, job]
        self.linalg = []         # (kind, parent span, seconds, work)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self.on = False
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self._errors = set()

    # -- installation -------------------------------------------------------

    def install(self):
        import schurkit.marcinkiewicz as marcinkiewicz

        self._quad_error = marcinkiewicz.QuadratureError
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"schurkit.{layer}"]
            names = ("main",) if layer == "cli" else getattr(mod, "__all__", ())
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth,
                                self._wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "schurkit" and not modname.startswith("schurkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for name, kind in LINALG.items():
            self._patch(np.linalg, name, self._wrap_linalg(getattr(np.linalg, name), kind))
        self.on = True

    def uninstall(self):
        self.on = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                tracer.on = False
                try:
                    hook(fn, args, kwargs, out)
                finally:
                    tracer.on = True
            return out

        return traced

    def _wrap_linalg(self, fn, kind):
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if not tracer.on:
                return fn(a, *args, **kwargs)
            t0 = clock()
            out = fn(a, *args, **kwargs)
            dt = clock() - t0
            shape = np.shape(a)
            m, n = shape[-2:]
            work = math.prod(shape[:-2]) * m * n * min(m, n)
            tracer.linalg.append((kind, stack[-1] if stack else -1, dt, work))
            return out

        return counted

    def _count_error(self, exc):
        if isinstance(exc, self._quad_error) and id(exc) not in self._errors:
            self._errors.add(id(exc))
            self.counts["marcinkiewicz.quad_errors"] += 1

    # -- counting hooks, named after the traced function ---------------------

    def _add_estimate(self, res):
        self.counts["estimator.steps"] += res.iterations
        self.counts["estimator.restarts"] += res.restarts

    def _after_estimator_norm_lower_bound(self, fn, args, kwargs, res):
        self._add_estimate(res)

    def _after_estimator_cb_lower_bound(self, fn, args, kwargs, res):
        # k = 1 returns norm_lower_bound's result, already counted
        if res.flags.get("k_amp", 1) > 1:
            self._add_estimate(res)

    def _after_schatten_lp_sp_norm(self, fn, args, kwargs, out):
        a = _bind(fn, args, kwargs)
        grid = a["grid"] or sys.modules["schurkit.schatten"].QuadratureGrid.default_for(a["f"])
        self.counts["schatten.grid_terms"] += grid.size * len(a["f"].support)

    def _after_schatten_square_function_norm(self, fn, args, kwargs, out):
        a = _bind(fn, args, kwargs)
        gs = [g for g in a["gs"] if g.support]
        if not gs:
            return
        grid = a["grid"] or sys.modules["schurkit.schatten"].QuadratureGrid(
            gs[0].d, 4 * max(1, max(g.max_freq() for g in gs)) + 1)
        sides = 2 if a["side"] == "max" else 1
        self.counts["schatten.grid_terms"] += grid.size * sides * sum(len(g.support) for g in gs)

    def _after_poly(self, fn, args, kwargs, f):
        self.counts["transference.coeff_bytes"] += _poly_bytes(f)

    _after_transference_pi_embed = _after_poly
    _after_transference_apply_fourier_multiplier = _after_poly
    _after_transference_freq_project = _after_poly
    _after_transference_smooth_cutoff = _after_poly

    def _after_symbols_DiscreteSymbol_eval_pairs(self, fn, args, kwargs, out):
        self.counts["symbols.pairs_evaluated"] += len(out)

    def _after_symbols_ContinuousSymbol___call__(self, fn, args, kwargs, out):
        self.counts["symbols.continuous_points"] += np.size(out)

    def _after_symbols_ContinuousSymbol_partial(self, fn, args, kwargs, out):
        # numeric partials evaluate the symbol itself, counted by __call__
        if args[0].has_analytic_partials:
            self.counts["symbols.continuous_points"] += np.size(out)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics over everything traced so far."""
        names, spans = self.names, self.spans
        layer_of = [n.split(".", 1)[0] for n in names]
        group_of = {}
        for group, members in TIME_GROUPS.items():
            for member in members:
                if member in names:
                    group_of[names.index(member)] = group
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update(dict.fromkeys(TIME_GROUPS, 0.0))
        out.update(dict.fromkeys(CALL_COUNTS, 0))
        out.update(self.counts)
        count_of = {names.index(n): m for m, n in CALL_COUNTS.items() if n in names}
        under_estimator = [False] * len(spans)
        norm_evals = 0
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            layer = layer_of[nid]
            out[f"{layer}.self_s"] += (t1 - t0) - child[i]
            if nid in count_of:
                out[count_of[nid]] += 1
            if parent >= 0:
                under_estimator[i] = (layer_of[spans[parent][0]] == "estimator"
                                      or under_estimator[parent])
            if names[nid] == "schatten.schatten_norm" and under_estimator[i]:
                norm_evals += 1
            group = group_of.get(nid)
            if group is not None and not self._inside_group(i, group, group_of):
                out[group] += t1 - t0

        svd_in_estimator = 0
        for kind in ("svd", "eig"):
            out[f"schatten.{kind}_calls"] = 0
            out[f"schatten.{kind}_s"] = 0.0
        out["schatten.svd_work"] = 0
        for kind, parent, dt, work in self.linalg:
            out[f"schatten.{kind}_calls"] += 1
            out[f"schatten.{kind}_s"] += dt
            if kind == "svd":
                out["schatten.svd_work"] += work
                if parent >= 0 and (layer_of[spans[parent][0]] == "estimator"
                                    or under_estimator[parent]):
                    svd_in_estimator += 1
        steps = out["estimator.steps"]
        out["estimator.norm_evals"] = norm_evals
        out["estimator.accept_ratio"] = steps / norm_evals if norm_evals else 0.0
        out["estimator.svd_per_step"] = svd_in_estimator / steps if steps else 0.0
        return out

    def _inside_group(self, i, group, group_of):
        parent = self.spans[i][3]
        while parent >= 0:
            if group_of.get(self.spans[parent][0]) == group:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, origin):
        """Spans as JSON, times in seconds from ``origin``."""
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": [[nid, round(t0 - origin, 7), round(t1 - origin, 7), parent, job]
                      for nid, t0, t1, parent, job in self.spans],
            "linalg_fields": ["kind", "parent", "seconds", "work"],
            "linalg": [[k, p, round(dt, 7), w] for k, p, dt, w in self.linalg],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
